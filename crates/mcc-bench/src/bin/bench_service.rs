//! Snapshot the crash-safe service's robustness numbers to
//! `BENCH_service.json`: recovery time as a function of WAL length (with
//! and without a fixed snapshot interval bounding the replayed suffix),
//! and the shed-rate curve of an overload ramp driven beyond saturation.
//!
//! Every recovery case is gated on bit-for-bit state equivalence: the
//! recovered shard's digest (statuses, unsafe set, MCC shapes,
//! generation) must equal the uninterrupted writer's, or the binary
//! refuses to write the snapshot and exits nonzero. Regenerate with:
//!
//! ```text
//! cargo run --release -p mcc-bench --bin bench_service -- BENCH_service.json
//! ```

use std::time::Instant;

use mcc_bench::scenario::{LoadProfile, MeshDims, Scenario, ServiceProfile};
use mcc_bench::service_load::run_service_load;
use mesh_service::testutil::TempDir;
use mesh_service::{CrashPoint, Geometry, Request, ShardCore, ShardSpec};
use mesh_topo::par::Parallelism;

/// WAL lengths (churn ops journaled before the kill).
const LOG_LENS: [u64; 3] = [64, 256, 1024];
/// The fixed snapshot interval of the bounded-recovery cases.
const SNAP_EVERY: u64 = 32;
/// Recovery timing repetitions (best-of, like the other bench bins).
const REPS: u32 = 5;

struct RecoveryCase {
    log_len: u64,
    snapshot_every: u64,
    /// WAL bytes on disk at the kill point.
    wal_bytes: u64,
    recover_ns: u128,
}

/// Journal `log_len` churn ops, then time a cold `ShardCore::open` over
/// the directory. Returns `None` (after printing why) if the recovered
/// state diverges from the uninterrupted writer.
fn recovery_case(log_len: u64, snapshot_every: u64) -> Option<RecoveryCase> {
    let spec = ShardSpec::new(
        Geometry::M2 {
            width: 16,
            height: 16,
            wrap: false,
        },
        snapshot_every,
    );
    let dir = TempDir::new(&format!("bench-recovery-{log_len}-{snapshot_every}"));
    let mut writer = ShardCore::open(dir.path(), spec, Parallelism::SEQ, CrashPoint::none())
        .expect("open writer shard");
    for seed in 0..log_len {
        writer
            .handle(&Request::ChurnRandom {
                seed: 0xBEC0 + seed,
            })
            .expect("journal churn op");
    }
    let reference = writer.digest();
    let wal_bytes = std::fs::metadata(dir.join("wal.log"))
        .map(|m| m.len())
        .unwrap_or(0);
    drop(writer);

    let mut best = u128::MAX;
    for _ in 0..REPS {
        let start = Instant::now();
        let mut recovered = ShardCore::open(dir.path(), spec, Parallelism::SEQ, CrashPoint::none())
            .expect("recover shard");
        best = best.min(start.elapsed().as_nanos());
        if recovered.digest() != reference {
            eprintln!(
                "FAIL: recovery of the {log_len}-op journal (snapshot_every = \
                 {snapshot_every}) diverges from the reference replay at generation {}; \
                 refusing to write the snapshot",
                recovered.gen()
            );
            return None;
        }
    }
    Some(RecoveryCase {
        log_len,
        snapshot_every,
        wal_bytes,
        recover_ns: best.max(1),
    })
}

/// The E15 ramp with the saturation stop effectively disabled, so the
/// shed-rate curve extends beyond the first saturated step.
fn shed_scenario() -> Scenario {
    Scenario::service_2d(
        12,
        10,
        0,
        LoadProfile {
            initial_rps: 200,
            increment_rps: 200,
            max_rps: 1000,
            step_secs: 0.05,
            mix_routing: 0.5,
            mix_labelling: 0.3,
            mix_churn: 0.2,
            pool: 2,
            alt_dims: Some(MeshDims::D3 { x: 6, y: 6, z: 6 }),
            p99_limit_ms: LoadProfile::DEFAULT_P99_LIMIT_MS,
            fail_limit: 0.99,
        },
        ServiceProfile {
            queue_cap: 8,
            deadline_ms: 12.0,
            cost_us: [12_000, 6_000, 24_000],
            snapshot_every: 8,
        },
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_service.json".to_string());

    let mut cases = Vec::new();
    for &log_len in &LOG_LENS {
        for snapshot_every in [0, SNAP_EVERY] {
            match recovery_case(log_len, snapshot_every) {
                Some(c) => cases.push(c),
                None => std::process::exit(1),
            }
        }
    }

    let ramp = match run_service_load(&shed_scenario()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL: shed-rate ramp did not run: {e}; refusing to write the snapshot");
            std::process::exit(1);
        }
    };
    if ramp.recoveries != 0 {
        eprintln!(
            "FAIL: the overload ramp tripped the supervisor {} time(s); \
             refusing to write the snapshot",
            ramp.recoveries
        );
        std::process::exit(1);
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"service\",\n");
    json.push_str(
        "  \"description\": \"mesh-service robustness: cold-recovery time (snapshot load + \
         WAL replay) vs journal length on a 16x16 shard, best of 5, gated on bit-for-bit \
         digest equivalence with the uninterrupted writer; plus the shed-rate curve of an \
         open-loop ramp driven past saturation (deterministic virtual-time admission)\",\n",
    );
    json.push_str("  \"units\": \"nanoseconds\",\n");
    json.push_str(&mcc_bench::report::fault_regime_field("uniform"));
    json.push_str(&format!(
        "  \"gate\": {{\"digest_equivalence\": true, \"reps\": {REPS}}},\n"
    ));
    json.push_str("  \"recovery\": [\n");
    for (i, c) in cases.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"log_len\": {}, \"snapshot_every\": {}, \"wal_bytes\": {}, \
             \"recover_ns\": {}}}{}\n",
            c.log_len,
            c.snapshot_every,
            c.wal_bytes,
            c.recover_ns,
            if i + 1 < cases.len() { "," } else { "" }
        ));
        println!(
            "recovery log_len {:>5} snapshot_every {:>3} wal {:>8} B  {:>12} ns",
            c.log_len, c.snapshot_every, c.wal_bytes, c.recover_ns
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"shed_curve\": [\n");
    for (i, s) in ramp.steps.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"offered_rps\": {}, \"ops\": {}, \"admitted\": {}, \
             \"shed_rate\": {:.6}, \"p99_us\": {}}}{}\n",
            s.offered_rps,
            s.ops,
            s.admitted,
            s.shed_rate,
            s.p99_us,
            if i + 1 < ramp.steps.len() { "," } else { "" }
        ));
        println!(
            "shed    rps {:>5} ops {:>5} admitted {:>5} shed_rate {:>6.2}%",
            s.offered_rps,
            s.ops,
            s.admitted,
            s.shed_rate * 100.0
        );
    }
    json.push_str("  ]\n}\n");

    mcc_bench::report::write_snapshot_or_exit(&out_path, &json);
}
