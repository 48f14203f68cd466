//! Golden-snapshot regression tests: every shipped scenario's table.
//!
//! Each `scenarios/<stem>.toml` has its rendered `--quick` table checked in
//! as `tests/golden/<stem>_quick.txt`. Any change to fault injection, trial
//! sampling, the model pipelines or the renderer that perturbs a single
//! character of a row shows up as a diff here (and in the CI loop that runs
//! the actual `tables` binary against the same files). A scenario without a
//! golden fails [`every_scenario_matches_its_quick_golden`]. Regenerate —
//! only after convincing yourself the change is intended — with:
//!
//! ```text
//! cargo run --release -p mcc-bench --bin tables -- --quick \
//!     scenarios/<stem>.toml > crates/mcc-bench/tests/golden/<stem>_quick.txt
//! ```

use mcc_bench::runner::run_scenario;
use mcc_bench::scenario::Scenario;

/// Kept out of debug builds: its 4th row trips the exact route's
/// "exact rule can never strand a feasible route" debug check
/// (`mcc_routing::route_space`) — the
/// 3-D feasibility-detection defect that is ROADMAP's first open item
/// ("3-D feasibility detection must agree with Theorem 2"). Release
/// builds, and the CI golden loop, still diff it.
const DEBUG_PANICS: &str = "e8_clustered_routing_3d";

fn assert_quick_matches_golden(stem: &str) {
    let root = env!("CARGO_MANIFEST_DIR");
    let golden = std::fs::read_to_string(format!("{root}/tests/golden/{stem}_quick.txt"))
        .unwrap_or_else(|e| panic!("scenario {stem} has no golden {stem}_quick.txt: {e}"));
    let scenario = Scenario::load(format!("{root}/../../scenarios/{stem}.toml"))
        .unwrap_or_else(|e| panic!("{stem} parses: {e}"))
        .quick();
    let report = run_scenario(&scenario).unwrap_or_else(|e| panic!("{stem} runs: {e}"));
    // The `tables` binary prints the rendered report with `println!`,
    // which appends one newline beyond the render itself.
    let printed = format!("{}\n", report.render());
    assert_eq!(
        printed, golden,
        "{stem} --quick table drifted from {stem}_quick.txt; \
         table determinism is part of the scenario contract"
    );
}

#[test]
fn every_scenario_matches_its_quick_golden() {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut stems: Vec<String> = std::fs::read_dir(format!("{root}/../../scenarios"))
        .expect("scenarios/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    stems.sort();
    assert!(stems.len() >= NAMED.len() + 2, "scenarios found: {stems:?}");
    for stem in &stems {
        let golden = format!("{root}/tests/golden/{stem}_quick.txt");
        assert!(
            std::path::Path::new(&golden).is_file(),
            "scenario {stem} has no golden {stem}_quick.txt"
        );
        if NAMED.contains(&stem.as_str()) || (cfg!(debug_assertions) && stem == DEBUG_PANICS) {
            continue;
        }
        assert_quick_matches_golden(stem);
    }
}

/// One named test per listed scenario, plus `NAMED`, the stems the
/// table-driven test leaves to them.
macro_rules! named_goldens {
    ($($test:ident: $stem:literal,)*) => {
        const NAMED: &[&str] = &[$($stem),*];
        $(
            #[test]
            fn $test() {
                assert_quick_matches_golden($stem);
            }
        )*
    };
}

// The scenarios that were pinned one test each keep their test names.
// E12 and the E18 churn twin exist only if every per-round incremental
// equivalence check passed, so their goldens also certify the repair
// pipeline; E15's pins the service chain (admission verdicts, journaled
// churn generations, renderer); E16–E19 pin the regime samplers.
named_goldens! {
    e4_quick_table_matches_golden_snapshot: "e4_routing_2d",
    e10_torus_quick_table_matches_golden_snapshot: "e10_torus_2d",
    e11_torus_quick_table_matches_golden_snapshot: "e11_torus_3d",
    e12_churn_quick_table_matches_golden_snapshot: "e12_churn_2d",
    e15_service_quick_ramp_matches_golden_snapshot: "e15_service",
    e16_front_quick_table_matches_golden_snapshot: "e16_front_2d",
    e17_plane_quick_table_matches_golden_snapshot: "e17_plane_3d",
    e18_transient_quick_table_matches_golden_snapshot: "e18_transient_2d",
    e18_transient_churn_quick_table_matches_golden_snapshot: "e18_transient_churn_2d",
    e19_adversarial_quick_table_matches_golden_snapshot: "e19_adversarial_2d",
}
