//! Golden-snapshot regression test for the routing-table determinism
//! contract.
//!
//! The rendered table of `e4_routing_2d.toml` in `--quick` mode is
//! checked in under `tests/golden/`; any change to trial sampling, the
//! prepared-mesh pipeline, model semantics or the renderer that perturbs
//! a single character of a row shows up as a diff here (and in the CI
//! step that runs the actual `tables` binary against the same file).
//! Regenerate — only after convincing yourself the change is intended —
//! with:
//!
//! ```text
//! cargo run --release -p mcc-bench --bin tables -- --quick \
//!     scenarios/e4_routing_2d.toml > crates/mcc-bench/tests/golden/e4_routing_2d_quick.txt
//! ```

use mcc_bench::runner::run_scenario;
use mcc_bench::scenario::Scenario;

fn assert_quick_matches_golden(scenario_file: &str, golden_file: &str) {
    let root = env!("CARGO_MANIFEST_DIR");
    let scenario = Scenario::load(format!("{root}/../../scenarios/{scenario_file}"))
        .unwrap_or_else(|e| panic!("{scenario_file} parses: {e}"))
        .quick();
    let report = run_scenario(&scenario).unwrap_or_else(|e| panic!("{scenario_file} runs: {e}"));
    // The `tables` binary prints the rendered report with `println!`,
    // which appends one newline beyond the render itself.
    let printed = format!("{}\n", report.render());
    let golden = std::fs::read_to_string(format!("{root}/tests/golden/{golden_file}"))
        .expect("golden snapshot exists");
    assert_eq!(
        printed, golden,
        "{scenario_file} --quick table drifted from {golden_file}; \
         routing-table determinism is part of the prepared-pipeline contract"
    );
}

#[test]
fn e4_quick_table_matches_golden_snapshot() {
    assert_quick_matches_golden("e4_routing_2d.toml", "e4_routing_2d_quick.txt");
}

#[test]
fn e10_torus_quick_table_matches_golden_snapshot() {
    assert_quick_matches_golden("e10_torus_2d.toml", "e10_torus_2d_quick.txt");
}

#[test]
fn e11_torus_quick_table_matches_golden_snapshot() {
    assert_quick_matches_golden("e11_torus_3d.toml", "e11_torus_3d_quick.txt");
}

#[test]
fn e15_service_quick_ramp_matches_golden_snapshot() {
    // Service ramps run through the resident mesh-service (journaled
    // shards behind virtual-time admission queues), so this golden pins
    // the whole chain: plan determinism, admission verdicts, journaled
    // churn generations and the service renderer.
    assert_quick_matches_golden("e15_service.toml", "e15_service_quick.txt");
}

#[test]
fn e16_front_quick_table_matches_golden_snapshot() {
    // Pins the correlated-front regime end to end: epicenter seeding,
    // the bounded flood growth, and the resulting routing table.
    assert_quick_matches_golden("e16_front_2d.toml", "e16_front_2d_quick.txt");
}

#[test]
fn e17_plane_quick_table_matches_golden_snapshot() {
    // Pins the sweeping-plane regime's slab order (axis + seed-drawn
    // direction) through the 3-D routing path.
    assert_quick_matches_golden("e17_plane_3d.toml", "e17_plane_3d_quick.txt");
}

#[test]
fn e18_transient_quick_table_matches_golden_snapshot() {
    // Pins the transient regime's round-0 active-set sampling (site
    // draw + per-site phases) through the routing path.
    assert_quick_matches_golden("e18_transient_2d.toml", "e18_transient_2d_quick.txt");
}

#[test]
fn e18_transient_churn_quick_table_matches_golden_snapshot() {
    // The churn twin drives the same schedules through the incremental
    // models; like E12 the runner refuses to aggregate unless every
    // per-round equivalence check against recomputation passed, so this
    // golden certifies Schedule::step deltas are consistent histories.
    assert_quick_matches_golden(
        "e18_transient_churn_2d.toml",
        "e18_transient_churn_2d_quick.txt",
    );
}

#[test]
fn e19_adversarial_quick_table_matches_golden_snapshot() {
    // Pins the adversarial boundary search (annealed restarts + greedy
    // 1-minimal pruning) and the endpoint-safety collapse it charts:
    // the golden's `safe-ep` column is far below its `oracle` column.
    assert_quick_matches_golden("e19_adversarial_2d.toml", "e19_adversarial_2d_quick.txt");
}

#[test]
fn e12_churn_quick_table_matches_golden_snapshot() {
    // Beyond renderer determinism this pins the incremental-maintenance
    // path end-to-end: the runner refuses to produce churn rows at all
    // unless every per-round equivalence check against from-scratch
    // recomputation passed, so a drift here means the repair pipeline
    // (or its RNG consumption) changed.
    assert_quick_matches_golden("e12_churn_2d.toml", "e12_churn_2d_quick.txt");
}
