//! The tentpole acceptance battery: kill a shard at **every** journal
//! crash site and at **every** torn-tail byte offset, recover it, and pin
//! the recovered state bit-for-bit (statuses, unsafe sets, MCC shapes,
//! generation) against an uninterrupted reference run.
//!
//! The trace mixes explicit and seeded-random churn with explicit
//! snapshots plus auto-snapshot cadence, so the site enumeration covers
//! append, snapshot-tmp, snapshot-rename, and WAL-truncate boundaries in
//! realistic interleavings.

use std::collections::BTreeMap;
use std::fs;

use mesh_service::prelude::*;
use mesh_service::shard::{ShardCore, WAL_FILE};
use mesh_service::wal::decode_records;
use mesh_service::StateDigest;
use mesh_topo::coord::{c2, c3};
use mesh_topo::par::Parallelism;

/// Run `trace` uninterrupted in a fresh dir, returning the digest at every
/// generation the run passes through (gen 0 included).
fn reference_digests(
    tag: &str,
    spec: ShardSpec,
    trace: &[Request],
) -> (TempDir, BTreeMap<u64, StateDigest>) {
    let dir = TempDir::new(tag);
    let mut core =
        ShardCore::open(dir.path(), spec, Parallelism::SEQ, CrashPoint::none()).expect("open");
    let mut digests = BTreeMap::new();
    digests.insert(core.gen(), core.digest());
    for req in trace {
        core.handle(req).expect("reference op");
        digests.insert(core.gen(), core.digest());
    }
    (dir, digests)
}

/// Kill at every enumerated crash site; recovery must land exactly on a
/// reference generation with an identical digest.
fn run_site_battery(tag: &str, spec: ShardSpec, trace: &[Request]) {
    let (_ref_dir, reference) = reference_digests(&format!("{tag}-ref"), spec, trace);

    // First pass: count the sites an uninterrupted run passes through.
    let counter = CrashPoint::counting();
    {
        let dir = TempDir::new(&format!("{tag}-count"));
        let mut core =
            ShardCore::open(dir.path(), spec, Parallelism::SEQ, counter.clone()).expect("open");
        for req in trace {
            core.handle(req).expect("counting op");
        }
    }
    let sites = counter.sites_seen();
    assert!(sites >= 6, "trace passes only {sites} crash sites");

    for k in 0..sites {
        let dir = TempDir::new(&format!("{tag}-kill{k}"));
        let crash = CrashPoint::after(k);
        let mut core =
            ShardCore::open(dir.path(), spec, Parallelism::SEQ, crash.clone()).expect("open");
        let mut fired = None;
        for req in trace {
            match core.handle(req) {
                Ok(_) => {}
                Err(ServiceError::Injected(site)) => {
                    fired = Some(site);
                    break;
                }
                Err(e) => panic!("site {k}: unexpected error {e}"),
            }
        }
        let site = fired.unwrap_or_else(|| panic!("site {k} never fired in {sites}-site trace"));
        drop(core);

        // The simulated process is dead; recover from the journal alone.
        let mut recovered = ShardCore::open(dir.path(), spec, Parallelism::SEQ, CrashPoint::none())
            .expect("recover");
        let gen = recovered.gen();
        let want = reference.get(&gen).unwrap_or_else(|| {
            panic!("site {k} ({site}): recovered to generation {gen} the reference never saw")
        });
        assert_eq!(
            &recovered.digest(),
            want,
            "site {k} ({site}): recovered state diverges at generation {gen}"
        );
        // The recovered incarnation must keep working.
        recovered
            .handle(&Request::ChurnRandom { seed: 0xF00D + k })
            .expect("post-recovery churn");
    }
}

#[test]
fn kill_at_every_site_2d() {
    let spec = ShardSpec::new(
        Geometry::M2 {
            width: 8,
            height: 6,
            wrap: false,
        },
        3, // auto-snapshot every 3 churn ops → snapshot sites mid-trace
    );
    let mut trace = vec![Request::Churn2 {
        injected: vec![c2(2, 2), c2(5, 1)],
        healed: vec![],
    }];
    for seed in 0..7u64 {
        trace.push(Request::ChurnRandom {
            seed: 0xC0FFEE + seed,
        });
    }
    trace.insert(4, Request::Snapshot);
    trace.push(Request::Snapshot);
    run_site_battery("battery2", spec, &trace);
}

#[test]
fn kill_at_every_site_3d_torus() {
    let spec = ShardSpec::new(
        Geometry::M3 {
            nx: 4,
            ny: 4,
            nz: 3,
            wrap: true,
        },
        2,
    );
    let mut trace = vec![Request::Churn3 {
        injected: vec![c3(1, 1, 1), c3(2, 3, 0)],
        healed: vec![],
    }];
    for seed in 0..5u64 {
        trace.push(Request::ChurnRandom {
            seed: 0xBEEF + seed,
        });
    }
    trace.push(Request::Snapshot);
    run_site_battery("battery3", spec, &trace);
}

/// Truncate the final WAL at **every** byte offset; recovery must replay
/// exactly the fully contained records — never crash, never see a phantom.
#[test]
fn torn_tail_at_every_byte_offset() {
    let spec = ShardSpec::new(
        Geometry::M2 {
            width: 6,
            height: 6,
            wrap: false,
        },
        0, // never snapshot: the whole history lives in the WAL
    );
    let mut trace = vec![Request::Churn2 {
        injected: vec![c2(1, 1), c2(4, 4), c2(2, 3)],
        healed: vec![],
    }];
    for seed in 0..9u64 {
        trace.push(Request::ChurnRandom {
            seed: 0xABBA + seed,
        });
    }
    let (ref_dir, reference) = reference_digests("torn-ref", spec, &trace);

    let wal = fs::read(ref_dir.path().join(WAL_FILE)).expect("read reference WAL");
    assert!(wal.len() > 200, "WAL too short to be interesting");

    for cut in 0..=wal.len() {
        let dir = TempDir::new(&format!("torn{cut}"));
        fs::create_dir_all(dir.path()).expect("mk shard dir");
        fs::write(dir.path().join(WAL_FILE), &wal[..cut]).expect("write torn WAL");

        let mut recovered = ShardCore::open(dir.path(), spec, Parallelism::SEQ, CrashPoint::none())
            .expect("recover");
        let (contained, _) = decode_records(&wal[..cut]);
        assert_eq!(
            recovered.gen(),
            contained.len() as u64,
            "cut at byte {cut}: wrong committed prefix"
        );
        let want = &reference[&recovered.gen()];
        assert_eq!(
            &recovered.digest(),
            want,
            "cut at byte {cut}: recovered state diverges"
        );
    }
}
