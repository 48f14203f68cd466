//! Saturation loadgen: open-loop ramps over `table = "load"` scenarios,
//! and the same ramps against the crash-safe resident service for
//! `table = "service"` scenarios (see `mcc_bench::service_load` and
//! DESIGN.md §14).
//!
//! ```text
//! cargo run -p mcc-bench --release --bin loadgen -- scenarios/e13_loadgen_2d.toml
//! cargo run -p mcc-bench --release --bin loadgen -- --quick --out /tmp/lg.json scenarios/e14_loadgen_mixed.toml
//! cargo run -p mcc-bench --release --bin loadgen -- --quick scenarios/e15_service.toml
//! ```
//!
//! Each scenario's ramp (see `mcc_bench::loadgen` and DESIGN.md §13)
//! prints a per-step table to stdout and writes a machine-readable JSON
//! summary: to `--out FILE` when given (single scenario only), otherwise
//! to `BENCH_loadgen_<stem>.json` in the working directory. `--quick`
//! shrinks the ramp to a sub-second smoke run (a tenth of the step
//! duration, at most three steps). The resolved file list is deduplicated
//! by canonical path like the `tables` binary.

use std::collections::HashSet;
use std::path::PathBuf;
use std::process::ExitCode;

use mcc_bench::loadgen::run_load;
use mcc_bench::scenario::{Scenario, TableKind};
use mcc_bench::service_load::run_service_load;

fn usage() -> &'static str {
    "usage: loadgen [--quick] [--out FILE] <scenario.toml>..."
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut seen = HashSet::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match it.next() {
                Some(file) => out = Some(PathBuf::from(file)),
                None => {
                    eprintln!("error: --out needs a file argument\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            other if other.starts_with("--") => {
                eprintln!("error: unknown option `{other}`\n{}", usage());
                return ExitCode::FAILURE;
            }
            file => {
                let path = PathBuf::from(file);
                let key = std::fs::canonicalize(&path).unwrap_or_else(|_| path.clone());
                if seen.insert(key) {
                    paths.push(path);
                }
            }
        }
    }
    if paths.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    if out.is_some() && paths.len() > 1 {
        eprintln!("error: --out takes exactly one scenario\n{}", usage());
        return ExitCode::FAILURE;
    }

    for path in &paths {
        let scenario = match Scenario::load(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let scenario = if quick { scenario.quick() } else { scenario };
        let (rendered, json) = if scenario.table == TableKind::Service {
            match run_service_load(&scenario) {
                Ok(r) => (r.render(), r.to_json()),
                Err(e) => {
                    eprintln!("error: {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        } else {
            match run_load(&scenario) {
                Ok(r) => (r.render(), r.to_json()),
                Err(e) => {
                    eprintln!("error: {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        };
        println!("{rendered}");
        let out_path = out.clone().unwrap_or_else(|| {
            let stem = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "scenario".to_string());
            PathBuf::from(format!("BENCH_loadgen_{stem}.json"))
        });
        if let Err(e) = mcc_bench::report::write_snapshot(&out_path.to_string_lossy(), &json) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {}", out_path.display());
    }
    ExitCode::SUCCESS
}
