//! `service`: the resident `MeshService` under a closed-loop client.
//!
//! Four shards (three 3-D 24³, one 2-D 128²), each seeded to 1.5 % faults
//! by one explicit churn batch, snapshotted, and given a long WAL suffix
//! of single-node churns before anything is timed. Set-up is
//! `MeshService::start` (snapshot load plus WAL replay) followed by one
//! warm route per orientation. The measured phase sends 80 % routes, 10 %
//! queries and 10 % churns, 3:1 to the 3-D shards, one call at a time.
//! Every endpoint and churn pair comes from the benchmark's own mirror of
//! each shard's fault set; virtual arrival times are 1 ms apart, so
//! admission never sheds.
//!
//! The traced run replays the same requests twice more: through
//! `ShardCore::handle` on a replica opened from a copy of the pre-phase
//! journal (giving handle time, and call − handle = the actor hop), and
//! through the decomposed public calls a shard makes (admission offer,
//! model sync, router, churn check, WAL append, incremental apply,
//! snapshot write), each in a span.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fault_model::{IncrementalModels2, IncrementalModels3};
use mcc_routing::{Policy, Router2, Router3};
use mesh_service::admission::{Admission, AdmissionConfig, OpClass};
use mesh_service::crash::CrashPoint;
use mesh_service::shard::{
    Geometry, Request, Response, ShardCore, ShardSpec, SNAP_FILE, SNAP_TMP, WAL_FILE,
};
use mesh_service::snapshot::{self, Snapshot};
use mesh_service::wal::{decode_records, SyncPolicy, Wal, RECORD_OVERHEAD};
use mesh_service::{ChurnRecord, MeshService, ServiceConfig};
use mesh_topo::{Frame2, Frame3, Mesh2D, Mesh3D, Parallelism, C2, C3};

use crate::common::{repeat_setup, Digest, Metric, Rng, RunConfig, RunResult};
use crate::trace::{Span, Tracer, SETUP_OP};
use crate::trial::BORDER;

/// Ops per second of `--seconds` (about 40 µs per call on one CPU).
pub const NOMINAL_OPS_PER_S: u64 = 25_000;
/// 3-D shard side.
const K3: i32 = 24;
/// 2-D shard side.
const W2: i32 = 128;
/// The shards: three 3-D, one 2-D.
const GEOMS: [Geometry; 4] = [
    Geometry::M3 {
        nx: K3,
        ny: K3,
        nz: K3,
        wrap: false,
    },
    Geometry::M3 {
        nx: K3,
        ny: K3,
        nz: K3,
        wrap: false,
    },
    Geometry::M3 {
        nx: K3,
        ny: K3,
        nz: K3,
        wrap: false,
    },
    Geometry::M2 {
        width: W2,
        height: W2,
        wrap: false,
    },
];
/// Seed fault share, in per mille of the nodes.
const FAULT_PERMILLE: usize = 15;
/// Single-node churn records journaled after the snapshot, before set-up.
const WAL_SUFFIX: u64 = 12_000;
/// Snapshot after this many churns since the last snapshot.
const SNAPSHOT_EVERY: u64 = 12_288;
/// Virtual spacing of arrivals: longer than any admission cost, so the
/// admission queue is always empty when a request arrives.
const ARRIVAL_NS: u64 = 1_000_000;
/// Root span of one decomposed op.
const ROOT: &str = "op.service";

/// The inputs of the workload.
pub fn definition() -> String {
    format!(
        "service: MeshService with 4 shards (3 x 3-D {K3}^3, 1 x 2-D {W2}^2), each seeded to \
         {}.{}% faults by one churn batch, snapshotted, then {WAL_SUFFIX} single-node churns \
         journaled (SyncPolicy::Never, snapshot_every {SNAPSHOT_EVERY}); set-up = \
         MeshService::start + one warm route per orientation; closed loop, one client, \
         80% route / 10% query / 10% churn (heal 1 + inject 1), 3:1 to the 3-D shards, \
         route endpoints >= {K3} (3-D) / {} (2-D) hops apart, arrivals {ARRIVAL_NS} ns apart",
        FAULT_PERMILLE / 10,
        FAULT_PERMILLE % 10,
        W2 / 2
    )
}

fn spec(geom: Geometry) -> ShardSpec {
    ShardSpec::new(geom, SNAPSHOT_EVERY)
}

fn shard_dir(root: &Path, i: usize) -> PathBuf {
    root.join(format!("shard-{i:04}"))
}

/// A node coordinate of either dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Node {
    D2(C2),
    D3(C3),
}

/// The benchmark's own copy of one shard's fault set.
#[derive(Clone, Debug)]
struct Mirror {
    geom: Geometry,
    faulty: Vec<bool>,
    list: Vec<usize>,
}

impl Mirror {
    fn new(geom: Geometry) -> Mirror {
        Mirror {
            geom,
            faulty: vec![false; geom.node_count()],
            list: Vec::new(),
        }
    }

    fn node(&self, i: usize) -> Node {
        let i = i as i32;
        match self.geom {
            Geometry::M2 { width, .. } => Node::D2(C2 {
                x: i % width,
                y: i / width,
            }),
            Geometry::M3 { nx, ny, .. } => Node::D3(C3 {
                x: i % nx,
                y: (i / nx) % ny,
                z: i / (nx * ny),
            }),
        }
    }

    fn healthy_index(&self, rng: &mut Rng) -> usize {
        loop {
            let i = rng.next_u64() as usize % self.faulty.len();
            if !self.faulty[i] {
                return i;
            }
        }
    }

    /// Mark `i` faulty.
    fn inject(&mut self, i: usize) {
        self.faulty[i] = true;
        self.list.push(i);
    }

    /// Heal one random faulty node and inject one random healthy node.
    fn churn(&mut self, rng: &mut Rng) -> (usize, usize) {
        let pos = rng.next_u64() as usize % self.list.len();
        let healed = self.list.swap_remove(pos);
        let injected = self.healthy_index(rng);
        self.faulty[healed] = false;
        self.inject(injected);
        (injected, healed)
    }

    /// A healthy pair at least `min_dist` hops apart.
    fn pair(&self, rng: &mut Rng, min_dist: u32) -> (Node, Node) {
        loop {
            let (a, b) = (
                self.node(self.healthy_index(rng)),
                self.node(self.healthy_index(rng)),
            );
            if dist(a, b) >= min_dist {
                return (a, b);
            }
        }
    }

    /// A healthy pair whose direction matches `orient` (bit k set: the
    /// destination is above the source on axis k).
    fn oriented_pair(&self, rng: &mut Rng, orient: usize) -> (Node, Node) {
        loop {
            let (a, b) = self.pair(rng, 1);
            let up = |bit: usize, sa: i32, sb: i32| (sa < sb) == (orient & bit != 0) && sa != sb;
            let ok = match (a, b) {
                (Node::D2(s), Node::D2(d)) => up(1, s.x, d.x) && up(2, s.y, d.y),
                (Node::D3(s), Node::D3(d)) => up(1, s.x, d.x) && up(2, s.y, d.y) && up(4, s.z, d.z),
                _ => unreachable!("one shard has one dimension"),
            };
            if ok {
                return (a, b);
            }
        }
    }

    fn churn_request(&self, injected: &[usize], healed: &[usize]) -> Request {
        let nodes = |v: &[usize]| v.iter().map(|&i| self.node(i)).collect::<Vec<_>>();
        let (inj, heal) = (nodes(injected), nodes(healed));
        match self.geom {
            Geometry::M2 { .. } => Request::Churn2 {
                injected: inj.iter().map(|n| n.d2()).collect(),
                healed: heal.iter().map(|n| n.d2()).collect(),
            },
            Geometry::M3 { .. } => Request::Churn3 {
                injected: inj.iter().map(|n| n.d3()).collect(),
                healed: heal.iter().map(|n| n.d3()).collect(),
            },
        }
    }
}

impl Node {
    fn d2(self) -> C2 {
        match self {
            Node::D2(c) => c,
            Node::D3(_) => unreachable!("2-D shard"),
        }
    }

    fn d3(self) -> C3 {
        match self {
            Node::D3(c) => c,
            Node::D2(_) => unreachable!("3-D shard"),
        }
    }
}

fn dist(a: Node, b: Node) -> u32 {
    match (a, b) {
        (Node::D2(a), Node::D2(b)) => a.dist(b),
        (Node::D3(a), Node::D3(b)) => a.dist(b),
        _ => unreachable!("one shard has one dimension"),
    }
}

fn route_request(s: Node, d: Node, seed: u64) -> Request {
    match (s, d) {
        (Node::D2(s), Node::D2(d)) => Request::Route2 { s, d, seed },
        (Node::D3(s), Node::D3(d)) => Request::Route3 { s, d, seed },
        _ => unreachable!("one shard has one dimension"),
    }
}

fn query_request(c: Node) -> Request {
    match c {
        Node::D2(c) => Request::Query2(c),
        Node::D3(c) => Request::Query3(c),
    }
}

/// One request of the measured phase and what its reply must show.
#[derive(Clone, Debug)]
struct Op {
    shard: usize,
    class: OpClass,
    req: Request,
    /// Route: the endpoint distance. Churn: the generation after it.
    /// Query: 1 if the node is faulty.
    expect: u64,
}

/// Everything the seed fixes: the journaled history of each shard, the
/// warm-up requests and the measured ops.
struct Plan {
    /// Per shard: the seed batch followed by the WAL suffix.
    history: Vec<Vec<Request>>,
    /// Per shard: one route per orientation.
    warm: Vec<Vec<Request>>,
    ops: Vec<Op>,
    /// Per shard: the churn requests of the measured phase.
    measured_churn: Vec<Vec<Request>>,
}

fn plan(seed: u64, n: u64) -> Plan {
    let mut rng = Rng::new(seed, 20);
    let mut mirrors: Vec<Mirror> = GEOMS.iter().map(|&g| Mirror::new(g)).collect();
    let mut history = Vec::new();
    let mut warm = Vec::new();
    for m in &mut mirrors {
        let count = m.faulty.len() * FAULT_PERMILLE / 1000;
        let mut seeded = Vec::with_capacity(count);
        while seeded.len() < count {
            let i = m.healthy_index(&mut rng);
            m.inject(i);
            seeded.push(i);
        }
        let mut h = vec![m.churn_request(&seeded, &[])];
        for _ in 0..WAL_SUFFIX {
            let (inj, heal) = m.churn(&mut rng);
            h.push(m.churn_request(&[inj], &[heal]));
        }
        history.push(h);
        let orientations = if m.geom.dim() == 3 { 8 } else { 4 };
        warm.push(
            (0..orientations)
                .map(|o| {
                    let (s, d) = m.oriented_pair(&mut rng, o);
                    route_request(s, d, rng.next_u64())
                })
                .collect(),
        );
    }
    let mut gens: Vec<u64> = vec![WAL_SUFFIX + 1; GEOMS.len()];
    let mut measured_churn = vec![Vec::new(); GEOMS.len()];
    let ops = (0..n)
        .map(|_| {
            let shard = if rng.chance(3, 4) {
                rng.next_u64() as usize % 3
            } else {
                3
            };
            let m = &mut mirrors[shard];
            match rng.next_u64() % 10 {
                0..=7 => {
                    let min = if m.geom.dim() == 3 { K3 } else { W2 / 2 } as u32;
                    let (s, d) = m.pair(&mut rng, min);
                    Op {
                        shard,
                        class: OpClass::Route,
                        req: route_request(s, d, rng.next_u64()),
                        expect: u64::from(dist(s, d)),
                    }
                }
                8 => {
                    let i = rng.next_u64() as usize % m.faulty.len();
                    Op {
                        shard,
                        class: OpClass::Query,
                        req: query_request(m.node(i)),
                        expect: u64::from(m.faulty[i]),
                    }
                }
                _ => {
                    let (inj, heal) = m.churn(&mut rng);
                    let req = m.churn_request(&[inj], &[heal]);
                    gens[shard] += 1;
                    measured_churn[shard].push(req.clone());
                    Op {
                        shard,
                        class: OpClass::Churn,
                        req,
                        expect: gens[shard],
                    }
                }
            }
        })
        .collect();
    Plan {
        history,
        warm,
        ops,
        measured_churn,
    }
}

/// Check a reply against the plan; fold it into the digest.
fn check_reply(op: &Op, reply: &Response, digest: &mut Digest) -> Result<(), String> {
    digest.add(op.shard as u64);
    match (op.class, reply) {
        (OpClass::Route, &Response::Route { delivered, hops }) => {
            digest.add(u64::from(delivered));
            digest.add(hops as u64);
            if delivered && hops as u64 != op.expect {
                return Err(format!("route took {hops} hops for distance {}", op.expect));
            }
        }
        (
            OpClass::Query,
            Response::Region {
                status,
                in_unsafe,
                mccs,
            },
        ) => {
            digest.add(u64::from(*in_unsafe));
            digest.add(*mccs as u64);
            for b in status.bytes() {
                digest.add(u64::from(b));
            }
            if op.expect == 1 && !in_unsafe {
                return Err(format!("faulty node reported safe ({status})"));
            }
        }
        (OpClass::Churn, &Response::Churn { gen }) => {
            digest.add(gen);
            if gen != op.expect {
                return Err(format!(
                    "churn reached generation {gen}, expected {}",
                    op.expect
                ));
            }
        }
        (class, other) => return Err(format!("{class:?} request got {other:?}")),
    }
    Ok(())
}

/// Removes the run's journal directory however the run ends.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn io(path: &Path, e: std::io::Error) -> String {
    format!("{}: {e}", path.display())
}

/// Journal `history` into a fresh shard directory (untimed input set-up).
fn write_journal(dir: &Path, geom: Geometry, history: &[Request]) -> Result<(), String> {
    let mut core = ShardCore::open(dir, spec(geom), Parallelism::SEQ, CrashPoint::none())
        .map_err(|e| e.to_string())?;
    let (seed_batch, suffix) = history
        .split_first()
        .expect("history starts with the seed batch");
    core.handle(seed_batch).map_err(|e| e.to_string())?;
    core.handle(&Request::Snapshot).map_err(|e| e.to_string())?;
    for req in suffix {
        core.handle(req).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn copy_journal(from: &Path, to: &Path) -> Result<(), String> {
    fs::create_dir_all(to).map_err(|e| io(to, e))?;
    for f in [WAL_FILE, SNAP_FILE] {
        fs::copy(from.join(f), to.join(f)).map_err(|e| io(&from.join(f), e))?;
    }
    Ok(())
}

const CLASSES: [&str; 3] = ["route", "query", "churn"];

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let mut res = RunResult {
        definition: definition(),
        ..RunResult::default()
    };
    let root = cfg
        .out_dir
        .join(format!("service-{}-seed{}", std::process::id(), cfg.seed));
    let _guard = DirGuard(root.clone());
    let live = root.join("live");
    let p = plan(cfg.seed, cfg.ops);
    for (i, (&geom, h)) in GEOMS.iter().zip(&p.history).enumerate() {
        write_journal(&shard_dir(&live, i), geom, h)?;
    }
    if cfg.trace {
        for i in 0..GEOMS.len() {
            for replica in ["handle", "decomposed"] {
                copy_journal(&shard_dir(&live, i), &shard_dir(&root.join(replica), i))?;
            }
        }
    }
    let specs: Vec<ShardSpec> = GEOMS.iter().map(|&g| spec(g)).collect();

    let mut vclock = 0u64;
    let (svc, setup_s) = repeat_setup(|| {
        let svc =
            MeshService::start(ServiceConfig::new(&live), &specs).map_err(|e| e.to_string())?;
        for (shard, reqs) in p.warm.iter().enumerate() {
            for req in reqs {
                vclock += ARRIVAL_NS;
                svc.call(shard, req.clone(), vclock)
                    .map_err(|e| format!("warm-up request failed: {e}"))?;
            }
        }
        Ok(svc)
    })?;
    res.setup_s = setup_s;

    let mut digest = Digest::default();
    let mut replies = Vec::new();
    let mut call_ns = [0u64; 3];
    let mut class_ops = [0u64; 3];
    res.lat_ns.reserve(p.ops.len());
    let t0 = Instant::now();
    for op in &p.ops {
        let req = op.req.clone();
        vclock += ARRIVAL_NS;
        let t = Instant::now();
        let reply = svc.call(op.shard, req, vclock);
        let ns = t.elapsed().as_nanos() as u64;
        res.lat_ns.push(ns);
        call_ns[op.class.index()] += ns;
        class_ops[op.class.index()] += 1;
        let check = match &reply {
            Ok(r) => check_reply(op, r, &mut digest),
            Err(e) => Err(format!("{:?} on shard {}: {e}", op.class, op.shard)),
        };
        res.record(check);
        if cfg.trace {
            replies.push(reply.ok());
        }
    }
    res.measured_s = t0.elapsed().as_secs_f64();
    svc.shutdown();
    drop(svc);

    // Recovery gate: each journal reopens to the state of a reference
    // shard fed the same churn in a separate directory.
    for (i, &geom) in GEOMS.iter().enumerate() {
        let reopened = ShardCore::open(
            &shard_dir(&live, i),
            spec(geom),
            Parallelism::SEQ,
            CrashPoint::none(),
        )
        .map(|mut c| c.digest());
        let mut reference = ShardCore::open(
            &shard_dir(&root.join("reference"), i),
            spec(geom),
            Parallelism::SEQ,
            CrashPoint::none(),
        )
        .map_err(|e| e.to_string())?;
        for req in p.history[i].iter().chain(&p.measured_churn[i]) {
            reference.handle(req).map_err(|e| e.to_string())?;
        }
        match reopened {
            Ok(d) if d == reference.digest() => digest.add(d.gen),
            Ok(d) => res.fail(format!(
                "shard {i}: recovered state (gen {}) differs from the reference",
                d.gen
            )),
            Err(e) => res.fail(format!("shard {i}: reopen failed: {e}")),
        }
    }
    res.digest = digest.value();

    if cfg.trace {
        let call_us: Vec<f64> = (0..3)
            .map(|c| call_ns[c] as f64 / class_ops[c].max(1) as f64 / 1e3)
            .collect();
        trace_replay(cfg, &root, &p, &replies, &call_us, &mut res)?;
    }
    Ok(res)
}

/// The traced replays (see the module docs).
fn trace_replay(
    cfg: &RunConfig,
    root: &Path,
    p: &Plan,
    replies: &[Option<Response>],
    call_us: &[f64],
    res: &mut RunResult,
) -> Result<(), String> {
    let mut tr = Tracer::new();

    // Replica 1: ShardCore::handle on the same requests.
    tr.set_op(SETUP_OP);
    let mut cores = Vec::new();
    let mut replayed = 0usize;
    for (i, &geom) in GEOMS.iter().enumerate() {
        let dir = shard_dir(&root.join("handle"), i);
        let wal = fs::read(dir.join(WAL_FILE)).map_err(|e| io(&dir, e))?;
        replayed += decode_records(&wal).0.len();
        let core = tr.time("mesh_service.recovery.open", || {
            ShardCore::open(&dir, spec(geom), Parallelism::SEQ, CrashPoint::none())
        });
        cores.push(core.map_err(|e| e.to_string())?);
    }
    for (core, reqs) in cores.iter_mut().zip(&p.warm) {
        for req in reqs {
            core.handle(req).map_err(|e| e.to_string())?;
        }
    }
    const HANDLE: [&str; 3] = [
        "mesh_service.shard.handle.route",
        "mesh_service.shard.handle.query",
        "mesh_service.shard.handle.churn",
    ];
    let t0 = Instant::now();
    for (i, (op, want)) in p.ops.iter().zip(replies).enumerate() {
        tr.set_op(i as u32);
        let got = tr.time(HANDLE[op.class.index()], || cores[op.shard].handle(&op.req));
        if got.ok().as_ref() != want.as_ref() {
            res.fail(format!(
                "op {i}: ShardCore::handle replay disagrees with MeshService::call"
            ));
        }
    }
    let handle_s = t0.elapsed().as_secs_f64();
    drop(cores);

    // Replica 2: the decomposed calls.
    let mut shards = GEOMS
        .iter()
        .enumerate()
        .map(|(i, &g)| Decomposed::open(&shard_dir(&root.join("decomposed"), i), g))
        .collect::<Result<Vec<_>, String>>()?;
    // Warm-up spans go to a throwaway recorder, as set-up is untimed here.
    for (s, reqs) in shards.iter_mut().zip(&p.warm) {
        for req in reqs {
            s.serve(req, &mut Tracer::new())?;
        }
    }
    let repaired0: usize = shards.iter().map(Decomposed::statuses_repaired).sum();
    let mut vclock = 0;
    let t0 = Instant::now();
    for (i, (op, want)) in p.ops.iter().zip(replies).enumerate() {
        tr.set_op(i as u32);
        vclock += ARRIVAL_NS;
        let root_span = tr.begin(ROOT);
        let s = &mut shards[op.shard];
        let offer = tr.time("mesh_service.admission.offer", || {
            s.admission.offer(vclock, op.class)
        });
        if offer.is_err() {
            tr.count("mesh_service.admission.shed", 1.0);
        }
        let got = s.serve(&op.req, &mut tr)?;
        tr.end(root_span);
        if Some(&got) != want.as_ref() {
            res.fail(format!(
                "op {i}: decomposed replay gave {got:?}, service {want:?}"
            ));
        }
    }
    let traced_s = t0.elapsed().as_secs_f64();
    let repaired: usize = shards
        .iter()
        .map(Decomposed::statuses_repaired)
        .sum::<usize>()
        - repaired0;

    let handle_us: Vec<f64> = HANDLE.iter().map(|&h| tr.mean_self_us(h)).collect();
    let agg = tr.agg(ROOT);
    let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let c = |n: &str| tr.counter(n);
    let mut m = Vec::new();
    for k in 0..3 {
        m.push(Metric::new(
            format!("mesh_service.call_us.{}", CLASSES[k]),
            call_us[k],
            "us",
        ));
        m.push(Metric::new(
            format!("mesh_service.shard.handle_us.{}", CLASSES[k]),
            handle_us[k],
            "us",
        ));
        m.push(Metric::new(
            format!("mesh_service.hop_us.{}", CLASSES[k]),
            call_us[k] - handle_us[k],
            "us",
        ));
    }
    let appends = tr.agg("mesh_service.wal.append").calls as f64;
    let lookups = c("fault_model.incremental.lookups");
    m.extend([
        Metric::new(
            "mesh_service.admission.offer_ns",
            tr.mean_self_us("mesh_service.admission.offer") * 1e3,
            "ns",
        ),
        Metric::new(
            "mesh_service.admission.shed",
            c("mesh_service.admission.shed"),
            "count",
        ),
        Metric::new(
            "mesh_service.wal.append_us",
            tr.mean_self_us("mesh_service.wal.append"),
            "us",
        ),
        Metric::new("mesh_service.wal.appends", appends, "count"),
        Metric::new(
            "mesh_service.wal.bytes",
            per(c("mesh_service.wal.bytes"), appends),
            "B",
        ),
        Metric::new(
            "mesh_service.snapshot.write_us",
            tr.mean_self_us("mesh_service.snapshot.write"),
            "us",
        ),
        Metric::new(
            "mesh_service.snapshot.writes",
            tr.agg("mesh_service.snapshot.write").calls as f64,
            "count",
        ),
        Metric::new(
            "fault_model.incremental.apply_us",
            tr.mean_self_us("fault_model.incremental.apply"),
            "us",
        ),
        Metric::new(
            "fault_model.incremental.sync_us",
            tr.mean_self_us("fault_model.incremental.sync"),
            "us",
        ),
        Metric::new(
            "fault_model.incremental.slot_hit_ratio",
            per(c("fault_model.incremental.slot_hits"), lookups),
            "ratio",
        ),
        Metric::new(
            "fault_model.incremental.statuses_repaired",
            repaired as f64,
            "count",
        ),
        Metric::new(
            "mesh_service.recovery.open_us",
            tr.mean_self_us("mesh_service.recovery.open"),
            "us",
        ),
        Metric::new(
            "mesh_service.recovery.replayed_records",
            replayed as f64,
            "count",
        ),
        Metric::new(
            "mcc_routing.router.route_us",
            tr.mean_self_us("mcc_routing.router.route"),
            "us",
        ),
        Metric::new(
            "trace.unattributed_frac",
            per(agg.self_ns as f64, agg.total_ns as f64),
            "frac",
        ),
        Metric::new("trace.overhead_frac", traced_s / handle_s - 1.0, "frac"),
    ]);
    res.layers = m;
    res.layer_table = tr.table(ROOT, cfg.ops);
    crate::common::write_trace(cfg, "service", res, &tr)
}

/// The models of one shard, by dimension.
enum Models {
    D2(Box<IncrementalModels2>),
    D3(Box<IncrementalModels3>),
}

/// One shard rebuilt from its journal and driven through the public calls
/// a shard makes, each in a span.
struct Decomposed {
    geom: Geometry,
    dir: PathBuf,
    models: Models,
    wal: Wal,
    admission: Admission,
    gen: u64,
    snapshot_gen: u64,
}

impl Decomposed {
    fn open(dir: &Path, geom: Geometry) -> Result<Decomposed, String> {
        let snap = snapshot::load(&dir.join(SNAP_FILE))
            .map_err(|e| e.to_string())?
            .ok_or("journal has no snapshot")?;
        let set = mesh_topo::NodeSet::from_raw_words(snap.nbits as usize, snap.words);
        let mut models = match geom {
            Geometry::M2 { width, height, .. } => {
                let mut mesh = Mesh2D::new(width, height);
                mesh.inject_fault_set(&set);
                Models::D2(Box::new(IncrementalModels2::new(mesh, BORDER)))
            }
            Geometry::M3 { nx, ny, nz, .. } => {
                let mut mesh = Mesh3D::new(nx, ny, nz);
                mesh.inject_fault_set(&set);
                Models::D3(Box::new(IncrementalModels3::new(mesh, BORDER)))
            }
        };
        let wal_path = dir.join(WAL_FILE);
        let buf = fs::read(&wal_path).map_err(|e| io(&wal_path, e))?;
        let (records, clean) = decode_records(&buf);
        let mut gen = snap.gen;
        for (seq, payload) in records {
            let rec = ChurnRecord::decode(&payload)?;
            apply(&mut models, &rec)?;
            gen = seq;
        }
        Ok(Decomposed {
            geom,
            dir: dir.to_path_buf(),
            models,
            wal: Wal::open_at(&wal_path, clean as u64, SyncPolicy::Never)
                .map_err(|e| e.to_string())?,
            admission: Admission::new(AdmissionConfig::default()),
            gen,
            snapshot_gen: snap.gen,
        })
    }

    fn statuses_repaired(&self) -> usize {
        match &self.models {
            Models::D2(inc) => inc.statuses_repaired(),
            Models::D3(inc) => inc.statuses_repaired(),
        }
    }

    /// Serve `req` the way `ShardCore::handle` does, one span per call.
    fn serve(&mut self, req: &Request, tr: &mut Tracer) -> Result<Response, String> {
        match req {
            Request::Route2 { s, d, seed } => {
                let Models::D2(inc) = &mut self.models else {
                    unreachable!("2-D shard")
                };
                let frame = Frame2::for_pair(inc.mesh(), *s, *d);
                let (cs, cd) = (frame.to_canon(*s), frame.to_canon(*d));
                let sp = models_span(tr, inc.slot_current(frame));
                let m = inc.models(frame);
                tr.end(sp);
                let out = tr.time("mcc_routing.router.route", || {
                    Router2::new(m.lab, m.mccs).route(cs, cd, &mut Policy::random(*seed))
                });
                Ok(Response::Route {
                    delivered: out.delivered(),
                    hops: out.path.hops(),
                })
            }
            Request::Route3 { s, d, seed } => {
                let Models::D3(inc) = &mut self.models else {
                    unreachable!("3-D shard")
                };
                let frame = Frame3::for_pair(inc.mesh(), *s, *d);
                let (cs, cd) = (frame.to_canon(*s), frame.to_canon(*d));
                let sp = models_span(tr, inc.slot_current(frame));
                let m = inc.models(frame);
                tr.end(sp);
                let out = tr.time("mcc_routing.router.route", || {
                    Router3::new(m.lab, m.mccs).route(cs, cd, &mut Policy::random(*seed))
                });
                Ok(Response::Route {
                    delivered: out.delivered(),
                    hops: out.path.hops(),
                })
            }
            Request::Query2(c) => {
                let Models::D2(inc) = &mut self.models else {
                    unreachable!("2-D shard")
                };
                let frame = Frame2::identity(inc.mesh());
                let i = inc.mesh().space().index(*c);
                let sp = models_span(tr, inc.slot_current(frame));
                let m = inc.models(frame);
                tr.end(sp);
                Ok(Response::Region {
                    status: format!("{:?}", m.lab.status(*c)),
                    in_unsafe: m.lab.unsafe_set().contains(i),
                    mccs: m.mccs.len(),
                })
            }
            Request::Query3(c) => {
                let Models::D3(inc) = &mut self.models else {
                    unreachable!("3-D shard")
                };
                let frame = Frame3::identity(inc.mesh());
                let i = inc.mesh().space().index(*c);
                let sp = models_span(tr, inc.slot_current(frame));
                let m = inc.models(frame);
                tr.end(sp);
                Ok(Response::Region {
                    status: format!("{:?}", m.lab.status(*c)),
                    in_unsafe: m.lab.unsafe_set().contains(i),
                    mccs: m.mccs.len(),
                })
            }
            Request::Churn2 { injected, healed } => self.churn(
                ChurnRecord::D2 {
                    injected: injected.clone(),
                    healed: healed.clone(),
                },
                tr,
            ),
            Request::Churn3 { injected, healed } => self.churn(
                ChurnRecord::D3 {
                    injected: injected.clone(),
                    healed: healed.clone(),
                },
                tr,
            ),
            other => Err(format!("the workload never sends {other:?}")),
        }
    }

    /// Check → journal → apply → maybe snapshot, as `ShardCore` does.
    fn churn(&mut self, rec: ChurnRecord, tr: &mut Tracer) -> Result<Response, String> {
        let none = CrashPoint::none();
        tr.time("fault_model.incremental.check", || {
            check(&self.models, &rec)
        })?;
        let payload = rec.encode();
        let seq = self.gen + 1;
        tr.time("mesh_service.wal.append", || {
            self.wal.append(seq, &payload, &none)
        })
        .map_err(|e| e.to_string())?;
        tr.count(
            "mesh_service.wal.bytes",
            (RECORD_OVERHEAD + payload.len()) as f64,
        );
        tr.time("fault_model.incremental.apply", || {
            apply(&mut self.models, &rec)
        })?;
        self.gen = seq;
        if self.gen - self.snapshot_gen >= SNAPSHOT_EVERY {
            let (nbits, words) = match &self.models {
                Models::D2(inc) => (
                    inc.mesh().fault_set().capacity(),
                    inc.mesh().fault_set().words().to_vec(),
                ),
                Models::D3(inc) => (
                    inc.mesh().fault_set().capacity(),
                    inc.mesh().fault_set().words().to_vec(),
                ),
            };
            let snap = Snapshot {
                dim: self.geom.dim(),
                wrap: self.geom.wraps(),
                border: BORDER,
                extents: self.geom.extents(),
                gen: self.gen,
                nbits: nbits as u64,
                words,
            };
            let (path, tmp) = (self.dir.join(SNAP_FILE), self.dir.join(SNAP_TMP));
            tr.time("mesh_service.snapshot.write", || {
                snapshot::write(&path, &tmp, &snap, SyncPolicy::Never, &none)
            })
            .map_err(|e| e.to_string())?;
            tr.time("mesh_service.wal.truncate", || self.wal.truncate_all(&none))
                .map_err(|e| e.to_string())?;
            self.snapshot_gen = self.gen;
        }
        Ok(Response::Churn { gen: self.gen })
    }
}

/// Span of a `models(frame)` call that repairs or rebuilds the slot.
const SYNC: &str = "fault_model.incremental.sync";
/// Span of a `models(frame)` call on a current slot.
const LOOKUP: &str = "fault_model.incremental.lookup";

/// Count a `models(frame)` call and open its span.
fn models_span(tr: &mut Tracer, current: bool) -> Span {
    tr.count("fault_model.incremental.lookups", 1.0);
    if current {
        tr.count("fault_model.incremental.slot_hits", 1.0);
        tr.begin(LOOKUP)
    } else {
        tr.begin(SYNC)
    }
}

fn check(models: &Models, rec: &ChurnRecord) -> Result<(), String> {
    match (models, rec) {
        (Models::D2(inc), ChurnRecord::D2 { injected, healed }) => {
            inc.check(injected, healed).map_err(|e| e.to_string())
        }
        (Models::D3(inc), ChurnRecord::D3 { injected, healed }) => {
            inc.check(injected, healed).map_err(|e| e.to_string())
        }
        _ => Err("churn record of the wrong dimension".into()),
    }
}

fn apply(models: &mut Models, rec: &ChurnRecord) -> Result<(), String> {
    match (models, rec) {
        (Models::D2(inc), ChurnRecord::D2 { injected, healed }) => {
            inc.try_apply(injected, healed).map_err(|e| e.to_string())
        }
        (Models::D3(inc), ChurnRecord::D3 { injected, healed }) => {
            inc.try_apply(injected, healed).map_err(|e| e.to_string())
        }
        _ => Err("churn record of the wrong dimension".into()),
    }
}
