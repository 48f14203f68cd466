//! Service-level behaviour: supervision (panicked shards restart from the
//! journal), the single reopen path after a shutdown or a failed recovery,
//! overload shedding with typed errors and a deterministic shed sequence,
//! restart-resume over the same root, the retry helper, and callers on
//! several threads at once.

use std::fs;
use std::thread;
use std::time::Duration;

use mesh_service::prelude::*;
use mesh_service::shard::ShardStats;
use mesh_service::{CrashSite, ShardCore, StateDigest};
use mesh_topo::coord::{c2, c3};
use mesh_topo::Parallelism;

fn spec_8x8() -> ShardSpec {
    ShardSpec::new(
        Geometry::M2 {
            width: 8,
            height: 8,
            wrap: false,
        },
        4,
    )
}

fn stats(svc: &MeshService, shard: usize) -> ShardStats {
    match svc.call(shard, Request::Stats, 0) {
        Ok(Response::Stats(s)) => s,
        other => panic!("stats: {other:?}"),
    }
}

#[test]
fn panicked_shard_recovers_from_its_journal() {
    let root = TempDir::new("supervise");
    let svc = MeshService::start(ServiceConfig::new(root.path()), &[spec_8x8()]).unwrap();

    let r = svc.call(
        0,
        Request::Churn2 {
            injected: vec![c2(3, 3), c2(5, 5)],
            healed: vec![],
        },
        0,
    );
    assert_eq!(r, Ok(Response::Churn { gen: 1 }));

    // Kill the shard mid-flight; the caller sees a typed error...
    assert_eq!(
        svc.call(0, Request::Panic, 0),
        Err(ServiceError::ShardPanicked)
    );

    // ...and the next request sees the journaled state, not a blank shard.
    let s = stats(&svc, 0);
    assert_eq!((s.gen, s.faults, s.recoveries), (1, 2, 1));
    match svc.call(0, Request::Query2(c2(3, 3)), 0) {
        Ok(Response::Region { status, .. }) => assert!(status.contains("faulty"), "{status}"),
        other => panic!("query: {other:?}"),
    }

    // Supervision is not one-shot.
    assert_eq!(
        svc.call(0, Request::Panic, 0),
        Err(ServiceError::ShardPanicked)
    );
    assert_eq!(stats(&svc, 0).recoveries, 2);

    assert_eq!(
        svc.call(9, Request::Stats, 0),
        Err(ServiceError::UnknownShard { shard: 9 })
    );
}

/// A fired crash hook stays fired, so no reopen may re-arm it: neither the
/// rebuild after the injected crash nor the reopen after `shutdown`.
#[test]
fn reopen_after_shutdown_does_not_rearm_a_fired_crash_hook() {
    let root = TempDir::new("rearm");
    let mut cfg = ServiceConfig::new(root.path());
    cfg.crash = CrashPoint::after(0);
    let svc = MeshService::start(cfg, &[spec_8x8()]).unwrap();

    assert_eq!(
        svc.call(0, Request::ChurnRandom { seed: 1 }, 0),
        Err(ServiceError::Injected(CrashSite::AppendStart))
    );
    assert_eq!(
        svc.call(0, Request::ChurnRandom { seed: 2 }, 0),
        Ok(Response::Churn { gen: 1 })
    );
    svc.shutdown();
    assert_eq!(
        svc.call(0, Request::ChurnRandom { seed: 3 }, 0),
        Ok(Response::Churn { gen: 2 })
    );
    assert_eq!(stats(&svc, 0).gen, 2);
}

/// A recovery that fails leaves the shard closed; once the journal is
/// readable again the next call reopens it, and that reopen counts.
#[test]
fn failed_recovery_keeps_the_recovery_count() {
    let root = TempDir::new("failed-recovery");
    let svc = MeshService::start(ServiceConfig::new(root.path()), &[spec_8x8()]).unwrap();
    for seed in 0..4u64 {
        assert!(svc.call(0, Request::ChurnRandom { seed }, 0).is_ok());
    }
    let before = stats(&svc, 0);
    assert_eq!(before.snapshot_gen, 4);

    let snap = root.path().join("shard-0000").join("snapshot.bin");
    let good = fs::read(&snap).unwrap();
    fs::write(&snap, b"not a snapshot").unwrap();
    for req in [Request::Panic, Request::Stats] {
        match svc.call(0, req, 0) {
            Err(ServiceError::Corrupt { path, .. }) => assert_eq!(path, snap),
            other => panic!("call over damaged snapshot: {other:?}"),
        }
    }

    fs::write(&snap, good).unwrap();
    let after = stats(&svc, 0);
    assert_eq!((after.gen, after.recoveries), (before.gen, 1));
}

/// A burst beyond the queue bound sheds with `Overloaded`; the admit/shed
/// sequence is a pure function of the schedule, so two identical services
/// produce it byte-for-byte.
#[test]
fn overload_sheds_deterministically() {
    let run = |tag: &str| -> Vec<String> {
        let root = TempDir::new(tag);
        let mut cfg = ServiceConfig::new(root.path());
        cfg.admission.queue_cap = 4;
        cfg.admission.deadline_ns = u64::MAX; // isolate the depth bound
        let svc = MeshService::start(cfg, &[spec_8x8()]).unwrap();
        (0..12u64)
            .map(|i| {
                let r = svc.call(
                    0,
                    Request::Route2 {
                        s: c2(0, 0),
                        d: c2(7, 7),
                        seed: i,
                    },
                    0, // every request arrives at the same instant
                );
                match r {
                    Ok(Response::Route { delivered, hops }) => format!("ok:{delivered}:{hops}"),
                    Err(ServiceError::Overloaded { depth }) => format!("overloaded:{depth}"),
                    other => panic!("burst: {other:?}"),
                }
            })
            .collect()
    };
    let a = run("burst-a");
    assert_eq!(a.iter().filter(|s| s.starts_with("ok")).count(), 4);
    assert_eq!(a.iter().filter(|s| s.starts_with("overloaded")).count(), 8);
    assert_eq!(a, run("burst-b"), "shed sequence is not deterministic");
}

/// With a tight deadline and a draining queue, the typed error switches to
/// `Deadline` — the request would have waited too long, not queued too deep.
#[test]
fn deadline_shedding_yields_typed_waits() {
    let root = TempDir::new("deadline");
    let mut cfg = ServiceConfig::new(root.path());
    cfg.admission.queue_cap = 1024;
    cfg.admission.deadline_ns = 1_000_000; // 1 ms
    cfg.admission.cost_ns = [600_000, 600_000, 600_000];
    let svc = MeshService::start(cfg, &[spec_8x8()]).unwrap();

    let outcome = |r: Result<Response, ServiceError>| match r {
        Ok(_) => "ok",
        Err(e) if e.is_shed() => "shed",
        other => panic!("deadline burst: {other:?}"),
    };
    let burst: Vec<_> = (0..4u64)
        .map(|i| outcome(svc.call(0, Request::QueryRandom { seed: i }, 0)))
        .collect();
    // arrivals at t=0 with 600 µs service: waits 0, 600 µs, 1.2 ms, 1.2 ms.
    assert_eq!(burst, ["ok", "ok", "shed", "shed"]);
    assert_eq!(
        svc.call(0, Request::QueryRandom { seed: 9 }, 0),
        Err(ServiceError::Deadline { wait_ns: 1_200_000 })
    );
    // Later arrivals find the queue drained.
    assert_eq!(
        outcome(svc.call(0, Request::QueryRandom { seed: 5 }, 2_000_000)),
        "ok"
    );
}

#[test]
fn retry_helper_bounds_attempts_and_passes_successes_through() {
    let root = TempDir::new("retry");
    let mut cfg = ServiceConfig::new(root.path());
    cfg.admission.queue_cap = 1;
    cfg.admission.deadline_ns = u64::MAX;
    let svc = MeshService::start(cfg, &[spec_8x8()]).unwrap();

    // Fill the single-slot queue at t=0.
    assert!(svc.call(0, Request::QueryRandom { seed: 1 }, 0).is_ok());
    // Virtual time never advances across retries, so every attempt sheds.
    let r = svc.call_with_retry(
        0,
        Request::QueryRandom { seed: 2 },
        0,
        3,
        Duration::from_millis(1),
    );
    assert_eq!(r, Err(ServiceError::Overloaded { depth: 1 }));
    // A request that admits succeeds on the first attempt.
    let r = svc.call_with_retry(
        0,
        Request::QueryRandom { seed: 3 },
        1_000_000_000,
        3,
        Duration::from_millis(1),
    );
    assert!(r.is_ok(), "{r:?}");
}

#[test]
fn shutdown_then_restart_resumes_from_the_journal() {
    let root = TempDir::new("resume");
    {
        let svc = MeshService::start(ServiceConfig::new(root.path()), &[spec_8x8()]).unwrap();
        for seed in 0..5u64 {
            assert!(svc.call(0, Request::ChurnRandom { seed }, 0).is_ok());
        }
        assert_eq!(stats(&svc, 0).gen, 5);
        svc.shutdown();
    }
    let svc = MeshService::start(ServiceConfig::new(root.path()), &[spec_8x8()]).unwrap();
    let s = stats(&svc, 0);
    assert_eq!(s.gen, 5);
    // snapshot_every = 4 → one auto-snapshot happened; the WAL holds the rest.
    assert_eq!(s.snapshot_gen, 4);
    assert!(svc.call(0, Request::ChurnRandom { seed: 99 }, 0).is_ok());
}

#[test]
fn startup_surfaces_snapshot_corruption() {
    let root = TempDir::new("corrupt");
    {
        let svc = MeshService::start(ServiceConfig::new(root.path()), &[spec_8x8()]).unwrap();
        for seed in 0..4u64 {
            assert!(svc.call(0, Request::ChurnRandom { seed }, 0).is_ok());
        }
        svc.shutdown();
    }
    let snap = root.path().join("shard-0000").join("snapshot.bin");
    fs::write(&snap, b"not a snapshot").unwrap();
    match MeshService::start(ServiceConfig::new(root.path()), &[spec_8x8()]) {
        Err(ServiceError::Corrupt { path, .. }) => assert_eq!(path, snap),
        Err(other) => panic!("start over damaged snapshot: {other:?}"),
        Ok(_) => panic!("start over damaged snapshot succeeded"),
    }
}

/// Two 8×8 and two 5×5×5 shards.
fn mixed_specs() -> Vec<ShardSpec> {
    let spec_5x5x5 = ShardSpec::new(
        Geometry::M3 {
            nx: 5,
            ny: 5,
            nz: 5,
            wrap: false,
        },
        4,
    );
    vec![spec_8x8(), spec_8x8(), spec_5x5x5, spec_5x5x5]
}

/// The request sequence driven on `shard`: churn, route and query in
/// turn, with seeds unique to the shard and arrivals 150 µs apart — under
/// the default costs and a 1 ms deadline, some of them shed.
fn shard_sequence(shard: usize) -> Vec<(Request, u64)> {
    (0..24u64)
        .map(|i| {
            let seed = shard as u64 * 1_000 + i;
            let req = match i % 3 {
                0 => Request::ChurnRandom { seed },
                1 => Request::RouteRandom { seed, min_dist: 4 },
                _ => Request::QueryRandom { seed },
            };
            (req, i * 150_000)
        })
        .collect()
}

type Outcomes = Vec<Result<Response, ServiceError>>;

/// Drive every shard's [`shard_sequence`] — on one thread per shard, or
/// all on the calling thread — and return each shard's replies, final
/// stats and the digest of the state its journal recovers to.
fn drive_mixed(tag: &str, threaded: bool) -> (Vec<Outcomes>, Vec<ShardStats>, Vec<StateDigest>) {
    let root = TempDir::new(tag);
    let specs = mixed_specs();
    let mut cfg = ServiceConfig::new(root.path());
    cfg.admission.deadline_ns = 1_000_000;
    let svc = MeshService::start(cfg, &specs).unwrap();
    let drive = |shard: usize| -> Outcomes {
        shard_sequence(shard)
            .into_iter()
            .map(|(req, at)| svc.call(shard, req, at))
            .collect()
    };
    let outcomes: Vec<Outcomes> = if threaded {
        thread::scope(|scope| {
            let handles: Vec<_> = (0..specs.len())
                .map(|shard| scope.spawn(move || drive(shard)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller panicked"))
                .collect()
        })
    } else {
        (0..specs.len()).map(drive).collect()
    };
    let stats: Vec<ShardStats> = (0..specs.len()).map(|i| stats(&svc, i)).collect();
    svc.shutdown();
    let digests = specs
        .iter()
        .enumerate()
        .map(|(i, &spec)| {
            let dir = root.path().join(format!("shard-{i:04}"));
            ShardCore::open(&dir, spec, Parallelism::SEQ, CrashPoint::none())
                .expect("reopen shard")
                .digest()
        })
        .collect();
    (outcomes, stats, digests)
}

/// One caller thread per shard ends exactly where a sequential run of the
/// same sequences does: same replies, same generations, same state.
#[test]
fn concurrent_callers_on_distinct_shards_match_a_sequential_run() {
    let (outcomes, stats, digests) = drive_mixed("threads-distinct", true);
    let (seq_outcomes, seq_stats, seq_digests) = drive_mixed("threads-sequential", false);
    assert_eq!(outcomes, seq_outcomes);
    let gens: Vec<u64> = stats.iter().map(|s| s.gen).collect();
    let seq_gens: Vec<u64> = seq_stats.iter().map(|s| s.gen).collect();
    assert_eq!(gens, seq_gens);
    assert_eq!(digests, seq_digests);
    // The sequences do exercise both outcomes on every shard.
    for replies in &outcomes {
        assert!(replies.iter().any(|r| r.is_ok()), "{replies:?}");
        assert!(
            replies
                .iter()
                .any(|r| r.as_ref().is_err_and(|e| e.is_shed())),
            "{replies:?}"
        );
    }
}

/// Callers contending for one shard serialize on its lock: every call gets
/// a typed reply, admitted and shed calls add up to those issued, and the
/// generation rises by exactly the admitted churns.
#[test]
fn concurrent_callers_on_one_shard_account_for_every_request() {
    const THREADS: u64 = 4;
    const CALLS: u64 = 30;
    let root = TempDir::new("threads-contend");
    let mut cfg = ServiceConfig::new(root.path());
    cfg.admission.queue_cap = 4;
    let svc = MeshService::start(cfg, &[spec_8x8()]).unwrap();
    let tallies: Vec<[u64; 3]> = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let svc = &svc;
                scope.spawn(move || {
                    let [mut admitted, mut shed, mut churns] = [0u64; 3];
                    for i in 0..CALLS {
                        let seed = t * 1_000 + i;
                        let churn = i % 2 == 0;
                        let req = if churn {
                            Request::ChurnRandom { seed }
                        } else {
                            Request::QueryRandom { seed }
                        };
                        // Every thread offers at the same virtual instants.
                        match svc.call(0, req, i * 100_000) {
                            Ok(_) => {
                                admitted += 1;
                                churns += u64::from(churn);
                            }
                            Err(e) if e.is_shed() => shed += 1,
                            Err(e) => panic!("thread {t}, call {i}: {e}"),
                        }
                    }
                    [admitted, shed, churns]
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller panicked"))
            .collect()
    });
    let [admitted, shed, churns] = tallies.iter().fold([0u64; 3], |acc, t| {
        [acc[0] + t[0], acc[1] + t[1], acc[2] + t[2]]
    });
    assert_eq!(admitted + shed, THREADS * CALLS);
    assert!(shed > 0, "four callers per instant must overload the shard");
    assert_eq!(stats(&svc, 0).gen, churns);
}

/// A request of the wrong dimension, or naming nodes outside the mesh, is
/// rejected with its reason and leaves the shard untouched: same
/// generation, same journal length, same state.
#[test]
fn malformed_requests_are_rejected_without_a_trace() {
    let root = TempDir::new("reject");
    let spec_4x4x3 = ShardSpec::new(
        Geometry::M3 {
            nx: 4,
            ny: 4,
            nz: 3,
            wrap: false,
        },
        0,
    );
    let mut d2 = ShardCore::open(
        &root.join("d2"),
        spec_8x8(),
        Parallelism::SEQ,
        CrashPoint::none(),
    )
    .unwrap();
    let mut d3 = ShardCore::open(
        &root.join("d3"),
        spec_4x4x3,
        Parallelism::SEQ,
        CrashPoint::none(),
    )
    .unwrap();
    // One journaled churn each, so the generation and the WAL are not at
    // their zero values.
    let churn2 = Request::Churn2 {
        injected: vec![c2(3, 3)],
        healed: vec![],
    };
    let churn3 = Request::Churn3 {
        injected: vec![c3(1, 2, 1)],
        healed: vec![],
    };
    assert_eq!(d2.handle(&churn2), Ok(Response::Churn { gen: 1 }));
    assert_eq!(d3.handle(&churn3), Ok(Response::Churn { gen: 1 }));

    let rejects = |core: &mut ShardCore, req: Request, reason: &str| {
        let (gen, wal, digest) = (core.gen(), core.stats().wal_bytes, core.digest());
        assert!(wal > 0);
        assert_eq!(
            core.handle(&req),
            Err(ServiceError::Rejected {
                reason: reason.to_string()
            }),
            "{req:?}"
        );
        assert_eq!(core.gen(), gen, "{req:?}");
        assert_eq!(core.stats().wal_bytes, wal, "{req:?}");
        assert_eq!(core.digest(), digest, "{req:?}");
    };

    // The wrong dimension, each way.
    let route2 = Request::Route2 {
        s: c2(0, 0),
        d: c2(1, 1),
        seed: 1,
    };
    let route3 = Request::Route3 {
        s: c3(0, 0, 0),
        d: c3(1, 1, 1),
        seed: 1,
    };
    rejects(&mut d3, route2, "request is 2-D but shard is 3-D");
    rejects(
        &mut d3,
        Request::Query2(c2(0, 0)),
        "request is 2-D but shard is 3-D",
    );
    rejects(&mut d3, churn2, "churn batch is 2-D but shard is 3-D");
    rejects(&mut d2, route3, "request is 3-D but shard is 2-D");
    rejects(
        &mut d2,
        Request::Query3(c3(0, 0, 0)),
        "request is 3-D but shard is 2-D",
    );
    rejects(&mut d2, churn3, "churn batch is 3-D but shard is 2-D");

    // Nodes outside the mesh.
    let route2 = Request::Route2 {
        s: c2(0, 0),
        d: c2(8, 2),
        seed: 1,
    };
    let route3 = Request::Route3 {
        s: c3(-1, 0, 0),
        d: c3(1, 1, 1),
        seed: 1,
    };
    rejects(
        &mut d2,
        route2,
        "route endpoints (0,0) -> (8,2) outside the mesh",
    );
    rejects(
        &mut d3,
        route3,
        "route endpoints (-1,0,0) -> (1,1,1) outside the mesh",
    );
    rejects(
        &mut d2,
        Request::Query2(c2(2, -1)),
        "query node (2,-1) outside the mesh",
    );
    rejects(
        &mut d3,
        Request::Query3(c3(0, 0, 3)),
        "query node (0,0,3) outside the mesh",
    );
}
