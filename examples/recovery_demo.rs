//! Recovery demo: kill a journaled mesh-service shard and watch it come
//! back bit-for-bit.
//!
//! Starts the resident service over one 16x16 shard, journals a few fault
//! churn batches (write-ahead log + periodic snapshots), panics the shard
//! mid-request, and shows the service rebuild it from its journal with
//! nothing lost. Then shuts the whole service down and restarts it over
//! the same directory to show a full process restart resumes identically.
//!
//! ```text
//! cargo run --example recovery_demo
//! ```

use std::io::{self, Write};

use mcc_mesh::mesh_service::prelude::*;
use mcc_mesh::mesh_topo::coord::c2;

fn main() -> io::Result<()> {
    render(&mut io::stdout().lock())
}

/// Run the demo, writing its report to `out`. Panics if the service loses
/// or misreports state across the crash or the restart.
pub fn render(out: &mut impl Write) -> io::Result<()> {
    // Journals live under a self-cleaning temp directory; point `root` at
    // a real path to keep state across runs.
    let root = TempDir::new("recovery-demo");
    let spec = ShardSpec::new(
        Geometry::M2 {
            width: 16,
            height: 16,
            wrap: false,
        },
        4, // snapshot every 4 churn ops; the WAL holds the rest
    );

    let svc = MeshService::start(ServiceConfig::new(root.path()), &[spec]).unwrap();
    writeln!(out, "service up over {}", root.path().display())?;

    // Journal some churn: an explicit batch, then seeded random ones.
    svc.call(
        0,
        Request::Churn2 {
            injected: vec![c2(3, 3), c2(3, 4), c2(12, 7)],
            healed: vec![],
        },
        0,
    )
    .unwrap();
    for seed in 0..6 {
        svc.call(0, Request::ChurnRandom { seed }, 0).unwrap();
    }
    let before = stats(&svc);
    writeln!(
        out,
        "journaled: gen {} ({} faults, snapshot at gen {})",
        before.gen, before.faults, before.snapshot_gen
    )?;

    // Panic the shard mid-request (the default panic hook still prints
    // the message). The caller gets a typed error...
    assert_eq!(
        svc.call(0, Request::Panic, 0),
        Err(ServiceError::ShardPanicked)
    );
    writeln!(out, "shard killed (ServiceError::ShardPanicked)")?;

    // ...and the service has already rebuilt it, under the shard's lock,
    // from its snapshot and WAL.
    let after = stats(&svc);
    assert_eq!((after.gen, after.faults), (before.gen, before.faults));
    writeln!(
        out,
        "service recovered it: gen {} ({} faults, {} recovery)",
        after.gen, after.faults, after.recoveries
    )?;

    // Routing still works over the recovered models.
    let r = svc
        .call(
            0,
            Request::RouteRandom {
                seed: 7,
                min_dist: 8,
            },
            0,
        )
        .unwrap();
    writeln!(out, "post-recovery route: {r:?}")?;

    // A full process restart resumes from the same journal.
    svc.shutdown();
    let svc = MeshService::start(ServiceConfig::new(root.path()), &[spec]).unwrap();
    let resumed = stats(&svc);
    assert_eq!(resumed.gen, before.gen);
    writeln!(out, "process restart resumed at gen {}", resumed.gen)?;
    svc.shutdown();
    Ok(())
}

fn stats(svc: &MeshService) -> mcc_mesh::mesh_service::ShardStats {
    match svc.call(0, Request::Stats, 0) {
        Ok(Response::Stats(s)) => s,
        other => panic!("stats: {other:?}"),
    }
}
