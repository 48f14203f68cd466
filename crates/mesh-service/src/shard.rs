//! One shard: a single mesh instance, its `IncrementalModels` cache, and
//! its journal (WAL + snapshot).
//!
//! A [`ShardCore`] is the synchronous state machine [`crate::service`]
//! drives on each caller's thread, one call at a time under the shard's
//! lock. Requests either read the maintained models (route, query,
//! stats) or mutate the fault configuration (churn), and every mutation
//! follows the write-ahead discipline:
//!
//! 1. **check** — validate the batch against the current state
//!    ([`fault_model`]'s `check`, surfaced as
//!    [`ServiceError::Rejected`]
//!    without touching anything),
//! 2. **journal** — append the resolved record to the WAL,
//! 3. **apply** — mutate the models; infallible after step 1, so a durable
//!    record always corresponds to an applicable op.
//!
//! Recovery ([`ShardCore::open`]) is the inverse: delete a stale snapshot
//! temp file, load the snapshot (if any), rebuild the mesh from the spec
//! plus the snapshot's fault words, replay the WAL's clean prefix
//! (skipping records the snapshot already covers, rejecting sequence
//! gaps), and truncate the torn tail. Determinism: every journaled record
//! is a *resolved* coordinate batch — seed-driven sampling happens before
//! journaling — so replay is a pure fold over the journal, independent of
//! wall clock and restart count.

use std::fs;
use std::path::{Path, PathBuf};

use fault_model::oracle::Useful2;
use fault_model::{BorderPolicy, IncrementalModels2, IncrementalModels3};
use mcc_routing::router2::DecisionRule;
use mcc_routing::{Policy, RouteScratch3, Router2, Router3};
use mesh_topo::coord::{C2, C3};
use mesh_topo::nodeset::NodeSet;
use mesh_topo::par::Parallelism;
use mesh_topo::{Frame2, Frame3, Mesh2D, Mesh3D};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::crash::CrashPoint;
use crate::error::ServiceError;
use crate::ops::ChurnRecord;
use crate::snapshot::{self, Snapshot};
use crate::wal::{decode_records, SyncPolicy, Wal};

/// WAL file name inside a shard directory.
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside a shard directory.
pub const SNAP_FILE: &str = "snapshot.bin";
/// Snapshot temp file name (crash-safe publish staging).
pub const SNAP_TMP: &str = "snapshot.tmp";

/// How many random probes a seed-driven sampler makes before falling back
/// to a linear scan.
const SAMPLE_ATTEMPTS: usize = 64;

/// The mesh geometry one shard owns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Geometry {
    /// A 2-D mesh (or torus).
    M2 {
        /// Extent along X.
        width: i32,
        /// Extent along Y.
        height: i32,
        /// True for a torus.
        wrap: bool,
    },
    /// A 3-D mesh (or torus).
    M3 {
        /// Extent along X.
        nx: i32,
        /// Extent along Y.
        ny: i32,
        /// Extent along Z.
        nz: i32,
        /// True for a torus.
        wrap: bool,
    },
}

impl Geometry {
    /// Mesh dimensionality (2 or 3).
    pub fn dim(&self) -> u8 {
        match self {
            Geometry::M2 { .. } => 2,
            Geometry::M3 { .. } => 3,
        }
    }

    /// True for torus geometries.
    pub fn wraps(&self) -> bool {
        match *self {
            Geometry::M2 { wrap, .. } | Geometry::M3 { wrap, .. } => wrap,
        }
    }

    /// Extents, zero-padded to three axes.
    pub fn extents(&self) -> [i32; 3] {
        match *self {
            Geometry::M2 { width, height, .. } => [width, height, 0],
            Geometry::M3 { nx, ny, nz, .. } => [nx, ny, nz],
        }
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        match *self {
            Geometry::M2 { width, height, .. } => width as usize * height as usize,
            Geometry::M3 { nx, ny, nz, .. } => nx as usize * ny as usize * nz as usize,
        }
    }
}

/// Everything needed to (re)build one shard from an empty directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// The mesh geometry.
    pub geom: Geometry,
    /// Labelling border policy.
    pub border: BorderPolicy,
    /// Snapshot after this many churn ops since the last snapshot
    /// (0 = never snapshot automatically).
    pub snapshot_every: u64,
    /// WAL / snapshot sync policy.
    pub sync: SyncPolicy,
}

impl ShardSpec {
    /// A test-friendly spec: fsync-free, snapshotting every
    /// `snapshot_every` ops.
    pub fn new(geom: Geometry, snapshot_every: u64) -> ShardSpec {
        ShardSpec {
            geom,
            border: BorderPolicy::BorderSafe,
            snapshot_every,
            sync: SyncPolicy::Never,
        }
    }
}

/// A request a shard can serve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Route between two explicit 2-D endpoints.
    Route2 {
        /// Source.
        s: C2,
        /// Destination.
        d: C2,
        /// Policy seed.
        seed: u64,
    },
    /// Route between two explicit 3-D endpoints.
    Route3 {
        /// Source.
        s: C3,
        /// Destination.
        d: C3,
        /// Policy seed.
        seed: u64,
    },
    /// Route between a seed-sampled healthy pair at least `min_dist` apart.
    RouteRandom {
        /// Sampling + policy seed.
        seed: u64,
        /// Minimum topology-aware source/destination distance.
        min_dist: u32,
    },
    /// Query the label and region membership of one 2-D node.
    Query2(C2),
    /// Query the label and region membership of one 3-D node.
    Query3(C3),
    /// Query a seed-sampled node.
    QueryRandom {
        /// Sampling seed.
        seed: u64,
    },
    /// Apply an explicit 2-D churn batch.
    Churn2 {
        /// Nodes to mark faulty.
        injected: Vec<C2>,
        /// Nodes to mark healthy.
        healed: Vec<C2>,
    },
    /// Apply an explicit 3-D churn batch.
    Churn3 {
        /// Nodes to mark faulty.
        injected: Vec<C3>,
        /// Nodes to mark healthy.
        healed: Vec<C3>,
    },
    /// Heal one seed-sampled faulty node and inject one seed-sampled
    /// healthy node (steady-state churn; resolved before journaling).
    ChurnRandom {
        /// Sampling seed.
        seed: u64,
    },
    /// Force a snapshot now.
    Snapshot,
    /// Report shard statistics.
    Stats,
    /// Panic the shard (supervision testing — the service must rebuild it
    /// from its journal).
    Panic,
}

impl Request {
    /// The admission cost class, or `None` for control requests that
    /// bypass load shedding.
    pub fn op_class(&self) -> Option<crate::admission::OpClass> {
        use crate::admission::OpClass;
        match self {
            Request::Route2 { .. } | Request::Route3 { .. } | Request::RouteRandom { .. } => {
                Some(OpClass::Route)
            }
            Request::Query2(_) | Request::Query3(_) | Request::QueryRandom { .. } => {
                Some(OpClass::Query)
            }
            Request::Churn2 { .. } | Request::Churn3 { .. } | Request::ChurnRandom { .. } => {
                Some(OpClass::Churn)
            }
            Request::Snapshot | Request::Stats | Request::Panic => None,
        }
    }
}

/// A successful reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Outcome of a route request.
    Route {
        /// True if the packet reached the destination.
        delivered: bool,
        /// Hops taken.
        hops: usize,
    },
    /// Outcome of a region query.
    Region {
        /// The node's status label (Debug form, e.g. `safe`, `faulty`).
        status: String,
        /// True if the node is in the unsafe set.
        in_unsafe: bool,
        /// Number of MCCs in the identity orientation.
        mccs: usize,
    },
    /// Outcome of a churn request.
    Churn {
        /// Generation after the batch applied.
        gen: u64,
    },
    /// Outcome of a snapshot request.
    Snapshot {
        /// Generation the snapshot covers.
        gen: u64,
    },
    /// Shard statistics.
    Stats(ShardStats),
}

/// Observable shard counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Durable churn generation.
    pub gen: u64,
    /// Generation the last snapshot covers.
    pub snapshot_gen: u64,
    /// Churn ops applied by this incarnation (excludes replayed ops).
    pub ops_applied: u64,
    /// Committed WAL bytes.
    pub wal_bytes: u64,
    /// Current fault count.
    pub faults: usize,
    /// Total nodes.
    pub nodes: usize,
    /// Times this shard has been restarted from its journal.
    pub recoveries: u64,
}

/// Bit-for-bit comparable shard state: the durable generation, the fault
/// configuration, and every model derived from it in the identity
/// orientation (statuses, unsafe set, component cells, MCC shapes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateDigest {
    /// Durable churn generation.
    pub gen: u64,
    /// The fault set.
    pub faults: NodeSet,
    /// Per-node status labels (Debug form, joined).
    pub statuses: String,
    /// The unsafe-node set.
    pub unsafe_set: NodeSet,
    /// MCC shapes (Debug form).
    pub mccs: String,
    /// Component decomposition (Debug form).
    pub comps: String,
}

/// The dimension-erased model cache a shard owns.
#[derive(Clone, Debug)]
pub enum ShardModels {
    /// 2-D models (boxed: the caches are KiB-sized, the enum should not be).
    D2(Box<IncrementalModels2>),
    /// 3-D models.
    D3(Box<IncrementalModels3>),
}

impl ShardModels {
    /// A fault-free cache for `spec`'s geometry.
    pub fn fresh(spec: &ShardSpec) -> ShardModels {
        ShardModels::from_fault_words(spec, None).expect("fresh build cannot mismatch")
    }

    /// Rebuild a cache from snapshot fault words (or fault-free for
    /// `None`), validating the word count against the geometry.
    pub fn from_fault_words(
        spec: &ShardSpec,
        faults: Option<(usize, Vec<u64>)>,
    ) -> Result<ShardModels, String> {
        let nodes = spec.geom.node_count();
        let set = match faults {
            None => None,
            Some((nbits, words)) => {
                if nbits != nodes || words.len() != nbits.div_ceil(64) {
                    return Err(format!(
                        "fault set covers {nbits} nodes in {} words, geometry has {nodes}",
                        words.len()
                    ));
                }
                Some(NodeSet::from_raw_words(nbits, words))
            }
        };
        Ok(match spec.geom {
            Geometry::M2 {
                width,
                height,
                wrap,
            } => {
                let mut mesh = if wrap {
                    Mesh2D::torus(width, height)
                } else {
                    Mesh2D::new(width, height)
                };
                if let Some(set) = set {
                    mesh.inject_fault_set(&set);
                }
                ShardModels::D2(Box::new(IncrementalModels2::new(mesh, spec.border)))
            }
            Geometry::M3 { nx, ny, nz, wrap } => {
                let mut mesh = if wrap {
                    Mesh3D::torus(nx, ny, nz)
                } else {
                    Mesh3D::new(nx, ny, nz)
                };
                if let Some(set) = set {
                    mesh.inject_fault_set(&set);
                }
                ShardModels::D3(Box::new(IncrementalModels3::new(mesh, spec.border)))
            }
        })
    }

    /// Mesh dimensionality (2 or 3).
    pub fn dim(&self) -> u8 {
        match self {
            ShardModels::D2(_) => 2,
            ShardModels::D3(_) => 3,
        }
    }

    /// Current fault count.
    pub fn fault_count(&self) -> usize {
        match self {
            ShardModels::D2(inc) => inc.mesh().fault_set().len(),
            ShardModels::D3(inc) => inc.mesh().fault_set().len(),
        }
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        match self {
            ShardModels::D2(inc) => inc.mesh().node_count(),
            ShardModels::D3(inc) => inc.mesh().node_count(),
        }
    }

    /// The fault set as `(nbits, words)` — the snapshot payload.
    pub fn fault_words(&self) -> (usize, Vec<u64>) {
        match self {
            ShardModels::D2(inc) => {
                let set = inc.mesh().fault_set();
                (set.capacity(), set.words().to_vec())
            }
            ShardModels::D3(inc) => {
                let set = inc.mesh().fault_set();
                (set.capacity(), set.words().to_vec())
            }
        }
    }

    /// Validate a churn record against the current state without applying
    /// it (dimension match plus the fault-model batch checks).
    pub fn check(&self, rec: &ChurnRecord) -> Result<(), String> {
        match (self, rec) {
            (ShardModels::D2(inc), ChurnRecord::D2 { injected, healed }) => {
                inc.check(injected, healed).map_err(|e| e.to_string())
            }
            (ShardModels::D3(inc), ChurnRecord::D3 { injected, healed }) => {
                inc.check(injected, healed).map_err(|e| e.to_string())
            }
            _ => Err(format!(
                "churn batch is {}-D but shard is {}-D",
                if matches!(rec, ChurnRecord::D2 { .. }) {
                    2
                } else {
                    3
                },
                self.dim()
            )),
        }
    }

    /// Apply a churn record that already passed [`check`](ShardModels::check).
    ///
    /// # Panics
    /// If the record is invalid for the current state.
    pub fn apply(&mut self, rec: &ChurnRecord) {
        self.try_apply(rec).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible apply (check + mutate in one step) — the replay path.
    pub fn try_apply(&mut self, rec: &ChurnRecord) -> Result<(), String> {
        self.check(rec)?;
        match (self, rec) {
            (ShardModels::D2(inc), ChurnRecord::D2 { injected, healed }) => {
                inc.try_apply(injected, healed).map_err(|e| e.to_string())
            }
            (ShardModels::D3(inc), ChurnRecord::D3 { injected, healed }) => {
                inc.try_apply(injected, healed).map_err(|e| e.to_string())
            }
            _ => unreachable!("check already matched dimensions"),
        }
    }

    /// The full comparable state in the identity orientation. `gen` is the
    /// durable generation the caller tracks (the internal model generation
    /// restarts at zero on recovery and is deliberately not compared).
    pub fn digest(&mut self, gen: u64) -> StateDigest {
        match self {
            ShardModels::D2(inc) => {
                let frame = Frame2::identity(inc.mesh());
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
            ShardModels::D3(inc) => {
                let frame = Frame3::identity(inc.mesh());
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
        }
    }

    /// Resolve a seed-driven churn request into an explicit batch against
    /// the current state: heal one sampled faulty node (if any), inject
    /// one sampled healthy node (if any). Deterministic in
    /// `(seed, current fault configuration)`.
    pub fn resolve_churn_random(&self, seed: u64) -> ChurnRecord {
        let mut rng = SmallRng::seed_from_u64(seed);
        match self {
            ShardModels::D2(inc) => {
                let mesh = inc.mesh();
                let space = mesh.space();
                let (inj, heal) = sample_flip(&mut rng, mesh.fault_set(), space.len());
                ChurnRecord::D2 {
                    injected: inj.into_iter().map(|i| space.coord(i)).collect(),
                    healed: heal.into_iter().map(|i| space.coord(i)).collect(),
                }
            }
            ShardModels::D3(inc) => {
                let mesh = inc.mesh();
                let space = mesh.space();
                let (inj, heal) = sample_flip(&mut rng, mesh.fault_set(), space.len());
                ChurnRecord::D3 {
                    injected: inj.into_iter().map(|i| space.coord(i)).collect(),
                    healed: heal.into_iter().map(|i| space.coord(i)).collect(),
                }
            }
        }
    }
}

/// Sample (inject, heal) index singletons for steady-state churn: heal a
/// uniform faulty node when any exist, inject a healthy node found by
/// random probing with a linear-scan fallback.
fn sample_flip(
    rng: &mut SmallRng,
    faults: &NodeSet,
    nodes: usize,
) -> (Option<usize>, Option<usize>) {
    let heal = if !faults.is_empty() {
        let nth = rng.gen_range(0..faults.len());
        faults.iter().nth(nth)
    } else {
        None
    };
    let inject = if faults.len() < nodes {
        let mut found = None;
        for _ in 0..SAMPLE_ATTEMPTS {
            let i = rng.gen_range(0..nodes);
            if !faults.contains(i) {
                found = Some(i);
                break;
            }
        }
        found.or_else(|| {
            let start = rng.gen_range(0..nodes);
            (0..nodes)
                .map(|k| (start + k) % nodes)
                .find(|&i| !faults.contains(i))
        })
    } else {
        None
    };
    (inject, heal)
}

/// The synchronous state machine of one shard (see the module docs).
#[derive(Debug)]
pub struct ShardCore {
    dir: PathBuf,
    spec: ShardSpec,
    crash: CrashPoint,
    models: ShardModels,
    wal: Wal,
    gen: u64,
    snapshot_gen: u64,
    ops_applied: u64,
    recoveries: u64,
    /// Route scratch, reused by every route request: the 2-D
    /// backward-reachability set, and the 3-D set plus detection flood.
    useful2: Useful2,
    scratch3: RouteScratch3,
}

impl ShardCore {
    /// Open (or recover) the shard journaled under `dir`.
    ///
    /// `_par` is ignored: shard models are computed sequentially. The
    /// argument stays only so existing callers keep compiling.
    pub fn open(
        dir: &Path,
        spec: ShardSpec,
        _par: Parallelism,
        crash: CrashPoint,
    ) -> Result<ShardCore, ServiceError> {
        ShardCore::open_counted(dir, spec, crash, 0)
    }

    /// [`open`](ShardCore::open) carrying a recovery counter across
    /// restarts (the service increments it on each reopen).
    pub(crate) fn open_counted(
        dir: &Path,
        spec: ShardSpec,
        crash: CrashPoint,
        recoveries: u64,
    ) -> Result<ShardCore, ServiceError> {
        fs::create_dir_all(dir).map_err(|e| ServiceError::io(dir, e))?;
        // A stale temp file is a snapshot that died before its rename —
        // the old snapshot (if any) is still authoritative.
        let tmp = dir.join(SNAP_TMP);
        match fs::remove_file(&tmp) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(ServiceError::io(&tmp, e)),
        }

        let snap_path = dir.join(SNAP_FILE);
        let (mut models, snap_gen) = match snapshot::load(&snap_path)? {
            Some(s) => {
                check_snapshot_spec(&s, &spec, &snap_path)?;
                let models =
                    ShardModels::from_fault_words(&spec, Some((s.nbits as usize, s.words)))
                        .map_err(|detail| ServiceError::Corrupt {
                            path: snap_path.clone(),
                            detail,
                        })?;
                (models, s.gen)
            }
            None => (ShardModels::fresh(&spec), 0),
        };

        let wal_path = dir.join(WAL_FILE);
        let buf = match fs::read(&wal_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(ServiceError::io(&wal_path, e)),
        };
        let (records, clean_len) = decode_records(&buf);
        let mut gen = snap_gen;
        for (seq, payload) in records {
            // Records the snapshot already covers linger when a crash hit
            // between the snapshot rename and the WAL truncation.
            if seq <= snap_gen {
                continue;
            }
            if seq != gen + 1 {
                return Err(ServiceError::Corrupt {
                    path: wal_path,
                    detail: format!("sequence gap: have generation {gen}, next record {seq}"),
                });
            }
            let rec = ChurnRecord::decode(&payload).map_err(|detail| ServiceError::Corrupt {
                path: wal_path.clone(),
                detail,
            })?;
            models
                .try_apply(&rec)
                .map_err(|detail| ServiceError::Corrupt {
                    path: wal_path.clone(),
                    detail: format!("journaled record {seq} does not apply: {detail}"),
                })?;
            gen = seq;
        }
        let wal = Wal::open_at(&wal_path, clean_len as u64, spec.sync)?;
        Ok(ShardCore {
            dir: dir.to_path_buf(),
            spec,
            crash,
            models,
            wal,
            gen,
            snapshot_gen: snap_gen,
            ops_applied: 0,
            recoveries,
            useful2: Useful2::scratch(),
            scratch3: RouteScratch3::new(),
        })
    }

    /// The shard's journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The spec this shard was built from.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Durable churn generation.
    pub fn gen(&self) -> u64 {
        self.gen
    }

    /// The full comparable state (see [`StateDigest`]).
    pub fn digest(&mut self) -> StateDigest {
        self.models.digest(self.gen)
    }

    /// Serve one request.
    pub fn handle(&mut self, req: &Request) -> Result<Response, ServiceError> {
        match req {
            Request::Route2 { s, d, seed } => self.route2(*s, *d, *seed),
            Request::Route3 { s, d, seed } => self.route3(*s, *d, *seed),
            Request::RouteRandom { seed, min_dist } => self.route_random(*seed, *min_dist),
            Request::Query2(c) => self.query2(*c),
            Request::Query3(c) => self.query3(*c),
            Request::QueryRandom { seed } => self.query_random(*seed),
            Request::Churn2 { injected, healed } => self.churn(ChurnRecord::D2 {
                injected: injected.clone(),
                healed: healed.clone(),
            }),
            Request::Churn3 { injected, healed } => self.churn(ChurnRecord::D3 {
                injected: injected.clone(),
                healed: healed.clone(),
            }),
            Request::ChurnRandom { seed } => {
                let rec = self.models.resolve_churn_random(*seed);
                self.churn(rec)
            }
            Request::Snapshot => {
                let gen = self.snapshot_now()?;
                Ok(Response::Snapshot { gen })
            }
            Request::Stats => Ok(Response::Stats(self.stats())),
            Request::Panic => panic!("injected shard panic (supervision test)"),
        }
    }

    /// Observable counters.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            gen: self.gen,
            snapshot_gen: self.snapshot_gen,
            ops_applied: self.ops_applied,
            wal_bytes: self.wal.len_bytes(),
            faults: self.models.fault_count(),
            nodes: self.models.node_count(),
            recoveries: self.recoveries,
        }
    }

    /// Write a snapshot covering the current generation and truncate the
    /// WAL. Returns the covered generation.
    pub fn snapshot_now(&mut self) -> Result<u64, ServiceError> {
        let (nbits, words) = self.models.fault_words();
        let snap = Snapshot {
            dim: self.spec.geom.dim(),
            wrap: self.spec.geom.wraps(),
            border: self.spec.border,
            extents: self.spec.geom.extents(),
            gen: self.gen,
            nbits: nbits as u64,
            words,
        };
        snapshot::write(
            &self.dir.join(SNAP_FILE),
            &self.dir.join(SNAP_TMP),
            &snap,
            self.spec.sync,
            &self.crash,
        )?;
        self.snapshot_gen = self.gen;
        self.wal.truncate_all(&self.crash)?;
        Ok(self.gen)
    }

    /// The write-ahead churn path: check → journal → apply → maybe
    /// snapshot.
    fn churn(&mut self, rec: ChurnRecord) -> Result<Response, ServiceError> {
        self.models
            .check(&rec)
            .map_err(|reason| ServiceError::Rejected { reason })?;
        let seq = self.gen + 1;
        self.wal.append(seq, &rec.encode(), &self.crash)?;
        self.models.apply(&rec);
        self.gen = seq;
        self.ops_applied += 1;
        if self.spec.snapshot_every > 0 && self.gen - self.snapshot_gen >= self.spec.snapshot_every
        {
            self.snapshot_now()?;
        }
        Ok(Response::Churn { gen: self.gen })
    }

    fn route2(&mut self, s: C2, d: C2, seed: u64) -> Result<Response, ServiceError> {
        let ShardModels::D2(inc) = &mut self.models else {
            return Err(wrong_dim(2, self.models.dim()));
        };
        let space = inc.mesh().space();
        if space.index_checked(s).is_none() || space.index_checked(d).is_none() {
            return Err(ServiceError::Rejected {
                reason: format!("route endpoints {s:?} -> {d:?} outside the mesh"),
            });
        }
        let frame = Frame2::for_pair(inc.mesh(), s, d);
        let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
        let m = inc.models(frame);
        let mut policy = Policy::random(seed);
        let out = Router2::new(m.lab, m.mccs).route_with_rule_in(
            cs,
            cd,
            &mut policy,
            DecisionRule::BoundaryExact,
            &mut self.useful2,
        );
        Ok(Response::Route {
            delivered: out.delivered(),
            hops: out.path.hops(),
        })
    }

    fn route3(&mut self, s: C3, d: C3, seed: u64) -> Result<Response, ServiceError> {
        let ShardModels::D3(inc) = &mut self.models else {
            return Err(wrong_dim(3, self.models.dim()));
        };
        let space = inc.mesh().space();
        if space.index_checked(s).is_none() || space.index_checked(d).is_none() {
            return Err(ServiceError::Rejected {
                reason: format!("route endpoints {s:?} -> {d:?} outside the mesh"),
            });
        }
        let frame = Frame3::for_pair(inc.mesh(), s, d);
        let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
        let m = inc.models(frame);
        let mut policy = Policy::random(seed);
        let out = Router3::new(m.lab, m.mccs).route_with_rule_in(
            cs,
            cd,
            &mut policy,
            DecisionRule::BoundaryExact,
            &mut self.scratch3,
        );
        Ok(Response::Route {
            delivered: out.delivered(),
            hops: out.path.hops(),
        })
    }

    fn route_random(&mut self, seed: u64, min_dist: u32) -> Result<Response, ServiceError> {
        let mut rng = SmallRng::seed_from_u64(seed);
        match &self.models {
            ShardModels::D2(inc) => {
                let mesh = inc.mesh();
                let space = mesh.space();
                let pair = sample_pair(&mut rng, space.len(), |i, j| {
                    let (a, b) = (space.coord(i), space.coord(j));
                    mesh.is_healthy(a) && mesh.is_healthy(b) && space.dist(a, b) >= min_dist.max(1)
                });
                let Some((i, j)) = pair else {
                    return Err(ServiceError::Rejected {
                        reason: "no healthy pair satisfies the separation requirement".into(),
                    });
                };
                let (s, d) = (space.coord(i), space.coord(j));
                self.route2(s, d, seed)
            }
            ShardModels::D3(inc) => {
                let mesh = inc.mesh();
                let space = mesh.space();
                let pair = sample_pair(&mut rng, space.len(), |i, j| {
                    let (a, b) = (space.coord(i), space.coord(j));
                    mesh.is_healthy(a) && mesh.is_healthy(b) && space.dist(a, b) >= min_dist.max(1)
                });
                let Some((i, j)) = pair else {
                    return Err(ServiceError::Rejected {
                        reason: "no healthy pair satisfies the separation requirement".into(),
                    });
                };
                let (s, d) = (space.coord(i), space.coord(j));
                self.route3(s, d, seed)
            }
        }
    }

    fn query2(&mut self, c: C2) -> Result<Response, ServiceError> {
        let ShardModels::D2(inc) = &mut self.models else {
            return Err(wrong_dim(2, self.models.dim()));
        };
        let space = inc.mesh().space();
        let Some(i) = space.index_checked(c) else {
            return Err(ServiceError::Rejected {
                reason: format!("query node {c:?} outside the mesh"),
            });
        };
        let frame = Frame2::identity(inc.mesh());
        let m = inc.models(frame);
        Ok(Response::Region {
            status: format!("{:?}", m.lab.status(c)),
            in_unsafe: m.lab.unsafe_set().contains(i),
            mccs: m.mccs.len(),
        })
    }

    fn query3(&mut self, c: C3) -> Result<Response, ServiceError> {
        let ShardModels::D3(inc) = &mut self.models else {
            return Err(wrong_dim(3, self.models.dim()));
        };
        let space = inc.mesh().space();
        let Some(i) = space.index_checked(c) else {
            return Err(ServiceError::Rejected {
                reason: format!("query node {c:?} outside the mesh"),
            });
        };
        let frame = Frame3::identity(inc.mesh());
        let m = inc.models(frame);
        Ok(Response::Region {
            status: format!("{:?}", m.lab.status(c)),
            in_unsafe: m.lab.unsafe_set().contains(i),
            mccs: m.mccs.len(),
        })
    }

    fn query_random(&mut self, seed: u64) -> Result<Response, ServiceError> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let i = rng.gen_range(0..self.models.node_count());
        match &self.models {
            ShardModels::D2(inc) => {
                let c = inc.mesh().space().coord(i);
                self.query2(c)
            }
            ShardModels::D3(inc) => {
                let c = inc.mesh().space().coord(i);
                self.query3(c)
            }
        }
    }
}

fn wrong_dim(req: u8, shard: u8) -> ServiceError {
    ServiceError::Rejected {
        reason: format!("request is {req}-D but shard is {shard}-D"),
    }
}

/// Sample an index pair satisfying `ok` by bounded random probing.
fn sample_pair(
    rng: &mut SmallRng,
    nodes: usize,
    ok: impl Fn(usize, usize) -> bool,
) -> Option<(usize, usize)> {
    for _ in 0..SAMPLE_ATTEMPTS * 4 {
        let i = rng.gen_range(0..nodes);
        let j = rng.gen_range(0..nodes);
        if i != j && ok(i, j) {
            return Some((i, j));
        }
    }
    None
}

fn check_snapshot_spec(snap: &Snapshot, spec: &ShardSpec, path: &Path) -> Result<(), ServiceError> {
    let want = (
        spec.geom.dim(),
        spec.geom.wraps(),
        spec.border,
        spec.geom.extents(),
    );
    let got = (snap.dim, snap.wrap, snap.border, snap.extents);
    if want != got {
        return Err(ServiceError::Corrupt {
            path: path.to_path_buf(),
            detail: format!("snapshot geometry {got:?} does not match shard spec {want:?}"),
        });
    }
    Ok(())
}
