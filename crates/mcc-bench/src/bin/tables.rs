//! Regenerate evaluation tables from declarative scenario files.
//!
//! ```text
//! cargo run -p mcc-bench --release --bin tables -- scenarios/e1_regions_2d.toml [more.toml ...] [--quick]
//! cargo run -p mcc-bench --release --bin tables -- --all [--quick]
//! ```
//!
//! Every table is driven entirely by the TOML scenario layer
//! (`mcc_bench::scenario`): pass one or more scenario files, or `--all` to
//! run every `*.toml` under `scenarios/`. `--quick` shrinks each scenario's
//! seed range to a tenth for a fast smoke run. The experiment → scenario
//! map lives in `EXPERIMENTS.md`.
//!
//! The resolved file list is deduplicated by canonical path, so passing
//! the same scenario twice — or combining `--all` with an explicit path it
//! already covers — runs it once.

use std::collections::HashSet;
use std::path::PathBuf;
use std::process::ExitCode;

use mcc_bench::runner::run_scenario;
use mcc_bench::scenario::Scenario;

const SCENARIO_DIR: &str = "scenarios";

fn usage() -> &'static str {
    "usage: tables [--quick] <scenario.toml>... | tables [--quick] --all"
}

/// Merge explicitly named paths with `--all` discoveries into one run
/// list, first occurrence wins, deduplicated by canonical path (so
/// `scenarios/e1.toml` and `./scenarios/../scenarios/e1.toml` collapse).
fn resolve_paths(explicit: &[PathBuf], discovered: &[PathBuf]) -> Vec<PathBuf> {
    let mut seen = HashSet::new();
    explicit
        .iter()
        .chain(discovered)
        .filter(|path| {
            seen.insert(std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf()))
        })
        .cloned()
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args
        .iter()
        .find(|a| a.starts_with("--") && *a != "--quick" && *a != "--all")
    {
        eprintln!("error: unknown option `{unknown}`\n{}", usage());
        return ExitCode::FAILURE;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let all = args.iter().any(|a| a == "--all");
    let explicit: Vec<PathBuf> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(PathBuf::from)
        .collect();

    let discovered = if all {
        match scenario_dir_files() {
            Ok(found) => found,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        Vec::new()
    };
    let paths = resolve_paths(&explicit, &discovered);
    if paths.is_empty() {
        eprintln!("{}", usage());
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
        match run_scenario(&scenario) {
            Ok(report) => println!("{}", report.render()),
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn scenario_dir_files() -> Result<Vec<PathBuf>, String> {
    let entries =
        std::fs::read_dir(SCENARIO_DIR).map_err(|e| format!("cannot list {SCENARIO_DIR}/: {e}"))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .toml scenarios found in {SCENARIO_DIR}/"));
    }
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: the same scenario named twice — or once explicitly and
    /// once via `--all` discovery, possibly through a different spelling
    /// of the same file — must survive resolution exactly once, with the
    /// explicit occurrence winning.
    #[test]
    fn resolve_paths_dedupes_explicit_and_discovered() {
        let dir = std::env::temp_dir().join(format!("mcc-tables-dedupe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.toml");
        let b = dir.join("b.toml");
        std::fs::write(&a, "x").unwrap();
        std::fs::write(&b, "x").unwrap();
        // A relative-style respelling of `a` that canonicalizes equal.
        let a_respelled = dir.join(".").join("a.toml");

        let resolved = resolve_paths(
            &[a.clone(), a.clone(), a_respelled],
            &[a.clone(), b.clone()],
        );
        assert_eq!(
            resolved,
            vec![a, b],
            "one run per file; explicit occurrence first"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resolve_paths_keeps_missing_files_for_the_loader_to_report() {
        // Canonicalization fails on nonexistent paths; they must still
        // pass through (deduped textually) so `Scenario::load` can print
        // its error instead of the path silently vanishing.
        let ghost = PathBuf::from("no/such/scenario.toml");
        let resolved = resolve_paths(&[ghost.clone(), ghost.clone()], &[]);
        assert_eq!(resolved, vec![ghost]);
    }
}
