//! Recovery as it ran before the journal fold, kept as a test oracle: build
//! the models from the snapshot's fault set, then apply every journaled
//! record past the snapshot through [`IncrementalModels::try_apply`], one
//! at a time, and take the digest of the result.
//!
//! The whole WAL is read into memory and decoded with
//! [`decode_records`]. Each record is checked in the order recovery checks
//! it — sequence, decode, dimension, then the batch — and the first
//! failure is the same [`ServiceError::Corrupt`] recovery reports.
//! `recovery.rs` asserts that `ShardCore::open` reaches the same
//! [`StateDigest`] or the same error on random journals.

use std::fs;
use std::path::Path;

use fault_model::{BorderPolicy, IncrementalModels};
use mesh_service::ops::ChurnRecord;
use mesh_service::shard::{Geometry, ShardSpec, SNAP_FILE, WAL_FILE};
use mesh_service::wal::decode_records;
use mesh_service::{snapshot, ServiceError, StateDigest};
use mesh_topo::{Coord, Frame, Mesh, Mesh2D, Mesh3D, NodeSet};

/// A record's batch, if it has the models' dimension.
type Batch<'r, C> = Option<(&'r [C], &'r [C])>;

/// Recover the shard journaled under `dir` by per-record replay.
pub fn recover(dir: &Path, spec: &ShardSpec) -> Result<StateDigest, ServiceError> {
    let snap = snapshot::load(&dir.join(SNAP_FILE))?;
    let (faults, snap_gen) = snap.map_or((None, 0), |s| {
        (
            Some(NodeSet::from_raw_words(s.nbits as usize, s.words)),
            s.gen,
        )
    });
    let wal_path = dir.join(WAL_FILE);
    let buf = fs::read(&wal_path).unwrap_or_default();
    let (records, _) = decode_records(&buf);
    let replay = Replay {
        border: spec.border,
        faults,
        snap_gen,
        records,
        wal_path: &wal_path,
    };
    match spec.geom {
        Geometry::M2 {
            width,
            height,
            wrap,
        } => {
            let mesh = if wrap {
                Mesh2D::torus(width, height)
            } else {
                Mesh2D::new(width, height)
            };
            replay.run(mesh, |rec| match rec {
                ChurnRecord::D2 { injected, healed } => Some((injected, healed)),
                ChurnRecord::D3 { .. } => None,
            })
        }
        Geometry::M3 { nx, ny, nz, wrap } => {
            let mesh = if wrap {
                Mesh3D::torus(nx, ny, nz)
            } else {
                Mesh3D::new(nx, ny, nz)
            };
            replay.run(mesh, |rec| match rec {
                ChurnRecord::D3 { injected, healed } => Some((injected, healed)),
                ChurnRecord::D2 { .. } => None,
            })
        }
    }
}

struct Replay<'p> {
    border: BorderPolicy,
    faults: Option<NodeSet>,
    snap_gen: u64,
    records: Vec<(u64, Vec<u8>)>,
    wal_path: &'p Path,
}

impl Replay<'_> {
    fn run<C: Coord>(
        self,
        mut mesh: Mesh<C>,
        batch: impl for<'r> Fn(&'r ChurnRecord) -> Batch<'r, C>,
    ) -> Result<StateDigest, ServiceError> {
        let corrupt = |detail| ServiceError::Corrupt {
            path: self.wal_path.to_path_buf(),
            detail,
        };
        if let Some(faults) = &self.faults {
            mesh.inject_fault_set(faults);
        }
        let mut inc = IncrementalModels::new(mesh, self.border);
        let mut gen = self.snap_gen;
        for (seq, payload) in &self.records {
            let seq = *seq;
            if seq <= self.snap_gen {
                continue;
            }
            if seq != gen + 1 {
                return Err(corrupt(format!(
                    "sequence gap: have generation {gen}, next record {seq}"
                )));
            }
            let rec = ChurnRecord::decode(payload).map_err(corrupt)?;
            let (injected, healed) = batch(&rec).ok_or_else(|| {
                corrupt(format!(
                    "journaled record {seq} does not apply: churn batch is {}-D but shard is {}-D",
                    rec.dim(),
                    C::DIMS
                ))
            })?;
            inc.try_apply(injected, healed)
                .map_err(|e| corrupt(format!("journaled record {seq} does not apply: {e}")))?;
            gen = seq;
        }
        Ok(digest(&mut inc, gen))
    }
}

/// The digest `ShardCore::digest` takes, of `inc` at generation `gen`.
fn digest<C: Coord>(inc: &mut IncrementalModels<C>, gen: u64) -> StateDigest {
    let frame = Frame::identity(inc.mesh());
    let faults = inc.mesh().fault_set().clone();
    let m = inc.models(frame);
    StateDigest {
        gen,
        faults,
        statuses: m
            .lab
            .iter()
            .map(|(_, s)| format!("{s:?}"))
            .collect::<Vec<_>>()
            .join(","),
        unsafe_set: m.lab.unsafe_set().clone(),
        mccs: format!("{:?}", m.mccs),
        comps: format!("{:?}", m.comps),
    }
}
