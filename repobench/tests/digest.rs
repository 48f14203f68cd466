//! The op sequence of a run is fixed by its seed and op count: two runs
//! with one seed agree on the output digest and the op counts, and another
//! seed changes the digest. The traced replay must reproduce the untraced
//! outputs exactly (it counts any disagreement as a failed op).

use repobench::{run, RunConfig, WORKLOADS};

fn cfg(seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        ops: 400,
        trace,
        out_dir: std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("repobench-test"),
    }
}

#[test]
fn same_seed_same_digest_other_seed_other_digest() {
    for w in WORKLOADS {
        let a = run(w, &cfg(7, false)).expect("first run");
        let b = run(w, &cfg(7, true)).expect("second, traced run");
        let c = run(w, &cfg(8, false)).expect("other seed");
        for r in [&a, &b, &c] {
            assert_eq!(r.failed, 0, "{w}: {:?}", r.failures);
            assert_eq!(r.attempted, 400, "{w}");
            assert_eq!(r.lat_ns.len(), 400, "{w}");
        }
        assert_eq!(a.digest, b.digest, "{w}: one seed, two digests");
        assert_ne!(a.digest, c.digest, "{w}: two seeds, one digest");
        assert!(
            b.layers.iter().any(|m| m.value > 0.0),
            "{w}: no per-layer numbers"
        );
    }
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run("nope", &cfg(1, false)).is_err());
}
