//! Command-line entry point of the workspace benchmark.
//!
//! ```text
//! repobench --workload <sweep|batch|service> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the provenance record, the end-to-end summary (and with
//! `--trace 1` the per-layer table), then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced, the per-layer metrics traced. Exits non-zero on any
//! failed op or correctness gate.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use repobench::common::{median, peak_rss_mb, percentile, provenance};
use repobench::trace::json_str;
use repobench::{Metric, RunConfig, PER_LAYER};

/// Samples the op count must leave beyond p99.
const TAIL_SAMPLES: u64 = 10;

struct Args {
    workload: String,
    cfg: RunConfig,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key.to_string(), v.clone());
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let num =
        |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("--{k}: {e}")) };
    let workload = get("workload")?.clone();
    let rate = repobench::nominal_ops_per_second(&workload).ok_or_else(|| {
        format!(
            "unknown workload {workload:?} (expected one of {:?})",
            repobench::WORKLOADS
        )
    })?;
    let ops = num("seconds")?.saturating_mul(rate);
    if ops < 100 * TAIL_SAMPLES {
        return Err(format!(
            "{ops} ops leave fewer than {TAIL_SAMPLES} samples beyond p99"
        ));
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    for k in kv.keys() {
        if !["workload", "seed", "seconds", "trace"].contains(&k.as_str()) {
            return Err(format!("unknown option --{k}"));
        }
    }
    Ok(Args {
        workload,
        cfg: RunConfig {
            seed: num("seed")?,
            ops,
            trace,
            out_dir: PathBuf::from(".bench_out"),
        },
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let res = match repobench::run(&args.workload, &args.cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    for (k, v) in provenance(&args.workload, &args.cfg, &res.definition) {
        println!("# {k}: {v}");
    }
    let mut lat = res.lat_ns.clone();
    lat.sort_unstable();
    let n = lat.len() as u64;
    let p99_rank = (0.99 * n as f64).ceil() as u64;
    let e2e = vec![
        Metric::new("setup_s", median(&res.setup_s), "s"),
        Metric::new("ops_per_s", res.attempted as f64 / res.measured_s, "1/s"),
        Metric::new("p50_us", percentile(&lat, 0.50) as f64 / 1e3, "us"),
        Metric::new("p99_us", percentile(&lat, 0.99) as f64 / 1e3, "us"),
        Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB"),
    ];
    println!(
        "# digest: {:016x}  attempted: {}  failed: {}  latency samples: {n} ({} beyond p99)",
        res.digest,
        res.attempted,
        res.failed,
        n - p99_rank
    );
    println!(
        "# setup repetitions (s): {:?}  measured phase: {:.3} s",
        res.setup_s, res.measured_s
    );
    // Host-noise diagnostic: throughput of each tenth of the op sequence.
    let tenths: Vec<String> = res
        .lat_ns
        .chunks(res.lat_ns.len().div_ceil(10).max(1))
        .map(|c| {
            format!(
                "{:.0}",
                c.len() as f64 * 1e9 / c.iter().sum::<u64>().max(1) as f64
            )
        })
        .collect();
    println!("# ops/s by tenth of the run: {}", tenths.join(" "));
    for m in &e2e {
        println!("# {:<12} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for f in &res.failures {
        println!("# FAILED: {f}");
    }

    let metrics: Vec<Metric> = if args.cfg.trace {
        println!("# per-layer self time ({}):", args.workload);
        for line in res.layer_table.lines() {
            println!("#   {line}");
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = res
                    .layers
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                println!("# {name:<44} {v:>14.4} {unit}");
                Metric::new(name, v, unit)
            })
            .collect()
    } else {
        e2e
    };

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        res.failed == 0,
        res.attempted,
        res.failed,
        body.join(", ")
    );
    if res.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
