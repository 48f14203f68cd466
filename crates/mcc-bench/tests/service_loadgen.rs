//! Integration battery for the service saturation driver: the overload
//! smoke (typed shed errors and a deterministic admit/shed sequence for a
//! fixed profile+seed) and the `tables` CLI surface that prints the shed
//! table.

use std::path::PathBuf;
use std::process::Command;

use mcc_bench::scenario::Scenario;
use mcc_bench::service_load::{run_service_load, ServiceLoadReport};

/// A sub-second service ramp over a mixed 2-D/3-D shard pool, costed so
/// the top step is far beyond the shards' virtual service capacity.
const SERVICE: &str = "\
name = \"service 2-D\"
table = \"service\"
[mesh]
dims = [12, 12]
[faults]
counts = [8]
[run]
seeds = [7, 8]
[load]
initial_rps = 100
increment_rps = 100
max_rps = 300
step_secs = 0.05
mix = [0.5, 0.3, 0.2]
pool = 2
alt_dims = [6, 6, 6]
# Let the whole ramp run: this battery inspects the full shed curve
# rather than stopping at first saturation.
fail_limit = 0.95
[service]
queue_cap = 8
deadline_ms = 4.0
cost_us = [12000, 6000, 24000]
snapshot_every = 4
";

fn service_scenario() -> Scenario {
    Scenario::from_toml(SERVICE).expect("the service scenario is valid")
}

/// One step of [`deterministic_view`]: (step, rps, ops, admitted,
/// shed_overloaded, shed_deadline, rejected, undelivered, saturated).
type StepView = (usize, u32, u64, u64, u64, u64, u64, u64, bool);

/// The per-step counts of a service report.
fn deterministic_view(report: &ServiceLoadReport) -> Vec<StepView> {
    report
        .steps
        .iter()
        .map(|s| {
            (
                s.step,
                s.offered_rps,
                s.ops,
                s.admitted,
                s.shed_overloaded,
                s.shed_deadline,
                s.rejected,
                s.undelivered,
                s.saturated,
            )
        })
        .collect()
}

#[test]
fn overload_smoke_sheds_deterministically() {
    let sc = service_scenario();
    let a = run_service_load(&sc).expect("service scenario runs");
    let b = run_service_load(&sc).expect("service scenario runs twice");

    assert_eq!(a.steps.len(), 3);
    assert_eq!(a.shards, 4);
    assert_eq!(a.geometries, vec!["12x12".to_string(), "6x6x6".to_string()]);
    for s in &a.steps {
        // Every planned op is accounted for by exactly one outcome.
        assert_eq!(
            s.admitted + s.shed_overloaded + s.shed_deadline + s.rejected,
            s.ops
        );
        assert_eq!(
            s.shed_rate,
            (s.shed_overloaded + s.shed_deadline) as f64 / s.ops as f64
        );
    }
    // Past saturation the service sheds (with typed errors — anything
    // else is an error from the driver) and the curve rises with the rate.
    let shed: Vec<u64> = a
        .steps
        .iter()
        .map(|s| s.shed_overloaded + s.shed_deadline)
        .collect();
    assert!(*shed.last().unwrap() > 0, "top step must shed: {shed:?}");
    assert!(shed.last() >= shed.first(), "shed curve fell: {shed:?}");

    // A healthy run never trips the supervisor, and every shard ends on
    // its journaled generation: the bootstrap batch plus admitted churns.
    assert_eq!(a.recoveries, 0);
    assert_eq!(a.final_gens.len(), 4);
    assert!(a.final_gens.iter().all(|&g| g >= 1));

    // Determinism: identical admit/shed sequence and final generations.
    assert_eq!(deterministic_view(&a), deterministic_view(&b));
    assert_eq!(a.final_gens, b.final_gens);
    assert_eq!(a.render(), b.render(), "rendered table must be byte-equal");
}

#[test]
fn run_service_load_refuses_other_tables() {
    let err = run_service_load(&Scenario::regions_2d(8, &[2], 2)).unwrap_err();
    assert!(err.to_string().contains("service"), "got: {err}");
}

/// Write a scenario document to a fresh temp file and return its path.
fn write_scenario(text: &str, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcc-service-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write scenario");
    path
}

#[test]
fn tables_binary_prints_the_service_shed_table() {
    let sc = service_scenario();
    let path = write_scenario(SERVICE, "svc-tables.toml");
    let run = Command::new(env!("CARGO_BIN_EXE_tables"))
        .arg(&path)
        .output()
        .expect("run tables on service scenario");
    assert!(
        run.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let report = run_service_load(&sc).expect("service scenario runs");
    assert_eq!(
        String::from_utf8_lossy(&run.stdout),
        format!("{}\n", report.render()),
        "tables prints exactly the rendered shed table"
    );
    assert!(report.render().contains("shed%"));
}
