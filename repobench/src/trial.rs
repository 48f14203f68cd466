//! One routing trial, two ways: whole (`PreparedMesh2/3::run_trial`, the
//! untraced path) and decomposed into the public calls of each layer, each
//! wrapped in a span (the traced path). The decomposed path must return the
//! very `TrialResult` the whole path returns.
//!
//! The decomposition costs one piece of work the whole path avoids:
//! `run_trial` hands the existence condition's closure sweep to the router
//! through a crate-internal call, while the public router entry point
//! (`route_with_rule_in`) sweeps it again. The traced path times that
//! sweep on its own as `mcc_routing.router.resweep` and the detection the
//! router repeats as `mcc_routing.detect`, so the router span itself
//! contains its repeated detection, its re-sweep and the forwarding walk.

use fault_model::mcc2::MccSet2;
use fault_model::mcc3::MccSet3;
use fault_model::oracle::{self, Useful2, Useful3};
use fault_model::{
    minimal_path_exists_2d_in, minimal_path_exists_3d_in, BorderPolicy, FaultBlocks2, FaultBlocks3,
    Labelling2, Labelling3,
};
use mcc_routing::router2::DecisionRule;
use mcc_routing::trace::RouteResult;
use mcc_routing::{
    baseline, detect_2d, detect_3d_in, FloodScratch3, Policy, RouteScratch3, Router2, Router3,
    TrialResult,
};
use mesh_topo::{Frame2, Frame3, Mesh2D, Mesh3D, C2, C3};

use crate::common::Digest;
use crate::trace::Tracer;

/// Border policy of every labelling (the paper's, and `TrialOptions`'s).
pub const BORDER: BorderPolicy = BorderPolicy::BorderSafe;

/// Span names of the trial layers.
pub mod span {
    /// `FaultRegime::inject_2d/3d` into a new mesh.
    pub const INJECT: &str = "fault_model.regime.inject";
    /// `Labelling2/3::compute`.
    pub const LABELLING: &str = "fault_model.labelling.compute";
    /// `MccSet2/3::compute`.
    pub const MCC: &str = "fault_model.mcc.compute";
    /// `FaultBlocks2/3::compute`.
    pub const RFB: &str = "fault_model.rfb.compute";
    /// `oracle::reachable_2d_in/3d_in`.
    pub const ORACLE: &str = "fault_model.oracle.reachable";
    /// `minimal_path_exists_2d_in/3d_in`.
    pub const CONDITION: &str = "fault_model.condition.exists";
    /// `FaultBlocks2/3::minimal_path_exists_in`.
    pub const RFB_EXISTS: &str = "fault_model.rfb.exists";
    /// `baseline::route_greedy_2d/3d`.
    pub const GREEDY: &str = "mcc_routing.baseline.greedy";
    /// `baseline::route_rfb_2d_in/3d_in`.
    pub const RFB_ROUTE: &str = "mcc_routing.baseline.rfb_route";
    /// `detect_2d` / `detect_3d_in`.
    pub const DETECT: &str = "mcc_routing.detect";
    /// `Useful2/3::recompute` over the unsafe closure.
    pub const RESWEEP: &str = "mcc_routing.router.resweep";
    /// `Router2/3::route_with_rule_in`.
    pub const ROUTE: &str = "mcc_routing.router.route";
}

/// Counter names of the trial layers.
pub mod counter {
    /// Nodes visited by detection (summed over detection calls).
    pub const DETECT_VISITED: &str = "mcc_routing.detect.visited";
    /// Hops of delivered MCC routes (summed).
    pub const ROUTE_HOPS: &str = "mcc_routing.router.hops";
    /// MCC deliveries.
    pub const DELIVERED: &str = "mcc_routing.router.delivered";
    /// Pairs the oracle found feasible.
    pub const ORACLE_OK: &str = "fault_model.oracle.feasible";
    /// Oracle-feasible pairs with both endpoints safe.
    pub const FEASIBLE_SAFE: &str = "fault_model.oracle.feasible_safe";
    /// Pairs the block model admitted.
    pub const RFB_OK: &str = "fault_model.rfb.admitted";
    /// Unsafe nodes per labelling (summed over labelling calls).
    pub const UNSAFE: &str = "fault_model.labelling.unsafe_nodes";
    /// MCCs per decomposition (summed over MCC calls).
    pub const REGIONS: &str = "fault_model.mcc.regions";
    /// Disabled nodes per block model (summed over block calls).
    pub const DISABLED: &str = "fault_model.rfb.disabled_nodes";
    /// Oracle-feasible pairs with safe endpoints that detection refused.
    pub const DETECT_REFUSED: &str = "mcc_routing.detect.refused_feasible";
}

/// The correctness gates of one trial (Theorems 1–2 and minimality).
pub fn check(r: &TrialResult, dist: u32) -> Result<(), String> {
    if r.mcc_ok != r.oracle_ok {
        return Err(format!(
            "MCC condition {} != oracle {}",
            r.mcc_ok, r.oracle_ok
        ));
    }
    if r.mcc_delivered && r.mcc_hops as u32 != dist {
        return Err(format!(
            "route took {} hops for distance {dist}",
            r.mcc_hops
        ));
    }
    if (r.rfb_ok || r.greedy_ok) && !r.oracle_ok {
        return Err("a baseline admitted an infeasible pair".into());
    }
    Ok(())
}

/// Fold every field of `r` into `digest`.
pub fn fold(digest: &mut Digest, r: &TrialResult) {
    let flags = [
        r.oracle_ok,
        r.mcc_ok,
        r.rfb_ok,
        r.greedy_ok,
        r.mcc_delivered,
        r.endpoints_safe,
    ]
    .iter()
    .enumerate()
    .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i));
    digest.add(flags);
    digest.add(r.mcc_hops as u64);
    digest.add(r.detection_cost as u64);
    digest.add(r.mcc_adaptivity.to_bits());
    digest.add(r.rfb_adaptivity.to_bits());
}

/// Count the outcome-level counters of one trial.
pub fn count_outcome(tr: &mut Tracer, r: &TrialResult) {
    tr.count(counter::ORACLE_OK, f64::from(u8::from(r.oracle_ok)));
    tr.count(
        counter::FEASIBLE_SAFE,
        f64::from(u8::from(r.oracle_ok && r.endpoints_safe)),
    );
    tr.count(counter::RFB_OK, f64::from(u8::from(r.rfb_ok)));
    if r.mcc_delivered {
        tr.count(counter::DELIVERED, 1.0);
        tr.count(counter::ROUTE_HOPS, r.mcc_hops as f64);
    }
}

/// The per-orientation models of one 2-D fault configuration.
#[derive(Debug)]
pub struct Models2 {
    /// Labelling of the orientation.
    pub lab: Labelling2,
    /// Its MCC decomposition.
    pub mccs: MccSet2,
}

/// The per-orientation models of one 3-D fault configuration.
#[derive(Debug)]
pub struct Models3 {
    /// Labelling of the orientation.
    pub lab: Labelling3,
    /// Its MCC decomposition.
    pub mccs: MccSet3,
}

/// Build the models of `frame`'s orientation, one span per layer.
pub fn build_2d(mesh: &Mesh2D, frame: Frame2, tr: &mut Tracer) -> Models2 {
    let lab = tr.time(span::LABELLING, || Labelling2::compute(mesh, frame, BORDER));
    tr.count(counter::UNSAFE, lab.unsafe_count() as f64);
    let mccs = tr.time(span::MCC, || MccSet2::compute(&lab));
    tr.count(counter::REGIONS, mccs.len() as f64);
    Models2 { lab, mccs }
}

/// 3-D twin of [`build_2d`].
pub fn build_3d(mesh: &Mesh3D, frame: Frame3, tr: &mut Tracer) -> Models3 {
    let lab = tr.time(span::LABELLING, || Labelling3::compute(mesh, frame, BORDER));
    tr.count(counter::UNSAFE, lab.unsafe_count() as f64);
    let mccs = tr.time(span::MCC, || MccSet3::compute(&lab));
    tr.count(counter::REGIONS, mccs.len() as f64);
    Models3 { lab, mccs }
}

/// Build the block model, as a span.
pub fn blocks_2d(mesh: &Mesh2D, tr: &mut Tracer) -> FaultBlocks2 {
    let b = tr.time(span::RFB, || FaultBlocks2::compute(mesh));
    tr.count(counter::DISABLED, b.disabled_count() as f64);
    b
}

/// 3-D twin of [`blocks_2d`].
pub fn blocks_3d(mesh: &Mesh3D, tr: &mut Tracer) -> FaultBlocks3 {
    let b = tr.time(span::RFB, || FaultBlocks3::compute(mesh));
    tr.count(counter::DISABLED, b.disabled_count() as f64);
    b
}

/// Reusable buffers of the decomposed 2-D trial.
#[derive(Debug)]
pub struct Scratch2 {
    useful: Useful2,
    cond_useful: Useful2,
    route_useful: Useful2,
}

impl Default for Scratch2 {
    fn default() -> Scratch2 {
        Scratch2 {
            useful: Useful2::scratch(),
            cond_useful: Useful2::scratch(),
            route_useful: Useful2::scratch(),
        }
    }
}

/// Reusable buffers of the decomposed 3-D trial.
#[derive(Debug)]
pub struct Scratch3 {
    useful: Useful3,
    cond_useful: Useful3,
    resweep: Useful3,
    flood: FloodScratch3,
    route: RouteScratch3,
}

impl Default for Scratch3 {
    fn default() -> Scratch3 {
        Scratch3 {
            useful: Useful3::scratch(),
            cond_useful: Useful3::scratch(),
            resweep: Useful3::scratch(),
            flood: FloodScratch3::new(),
            route: RouteScratch3::new(),
        }
    }
}

/// The per-pair half of `PreparedMesh2::run_trial`, decomposed into spans.
/// `m` must hold the models of `Frame2::for_pair(mesh, s, d)`.
#[allow(clippy::too_many_arguments)]
pub fn decomposed_2d(
    mesh: &Mesh2D,
    m: &Models2,
    blocks: &FaultBlocks2,
    s: C2,
    d: C2,
    seed: u64,
    sc: &mut Scratch2,
    tr: &mut Tracer,
) -> TrialResult {
    let frame = m.lab.frame();
    let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
    let lab = &m.lab;
    let oracle_ok = tr.time(span::ORACLE, || {
        oracle::reachable_2d_in(
            cs,
            cd,
            |c| {
                let c = frame.from_canon(c);
                !mesh.contains(c) || mesh.is_faulty(c)
            },
            &mut sc.useful,
        )
    });
    let mcc_ok = tr.time(span::CONDITION, || {
        minimal_path_exists_2d_in(lab, &m.mccs, cs, cd, &mut sc.cond_useful).exists()
    });
    let rfb_ok = tr.time(span::RFB_EXISTS, || {
        blocks.minimal_path_exists_in(mesh, s, d, &mut sc.useful)
    });
    let endpoints_safe = lab.is_safe(cs) && lab.is_safe(cd);
    let mut r = TrialResult {
        oracle_ok,
        mcc_ok,
        rfb_ok,
        endpoints_safe,
        ..TrialResult::default()
    };
    r.greedy_ok = tr.time(span::GREEDY, || {
        baseline::route_greedy_2d(lab, cs, cd, &mut Policy::random(seed)).result
            == RouteResult::Delivered
    });
    if endpoints_safe {
        let det = tr.time(span::DETECT, || detect_2d(lab, cs, cd));
        tr.count(counter::DETECT_VISITED, det.hops as f64);
        r.detection_cost = det.hops;
        if !det.feasible() && oracle_ok {
            tr.count(counter::DETECT_REFUSED, 1.0);
        }
        if det.feasible() {
            tr.time(span::RESWEEP, || {
                sc.route_useful.recompute(cs, cd, |c| {
                    lab.status_get(c).map(|t| t.is_unsafe()).unwrap_or(true)
                })
            });
            let out = tr.time(span::ROUTE, || {
                Router2::new(lab, &m.mccs).route_with_rule_in(
                    cs,
                    cd,
                    &mut Policy::random(seed ^ 0x9e37_79b9),
                    DecisionRule::BoundaryExact,
                    &mut sc.route_useful,
                )
            });
            r.detection_cost = out.detection_hops;
            if out.delivered() {
                r.mcc_delivered = true;
                r.mcc_hops = out.path.hops();
                r.mcc_adaptivity = out.adaptivity();
            }
        }
    }
    if rfb_ok {
        let out = tr.time(span::RFB_ROUTE, || {
            baseline::route_rfb_2d_in(
                blocks,
                mesh,
                s,
                d,
                &mut Policy::random(seed ^ 0x51),
                &mut sc.useful,
            )
        });
        if out.delivered() {
            r.rfb_adaptivity = out.adaptivity();
        }
    }
    count_outcome(tr, &r);
    r
}

/// 3-D twin of [`decomposed_2d`].
#[allow(clippy::too_many_arguments)]
pub fn decomposed_3d(
    mesh: &Mesh3D,
    m: &Models3,
    blocks: &FaultBlocks3,
    s: C3,
    d: C3,
    seed: u64,
    sc: &mut Scratch3,
    tr: &mut Tracer,
) -> TrialResult {
    let frame = m.lab.frame();
    let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
    let lab = &m.lab;
    let oracle_ok = tr.time(span::ORACLE, || {
        oracle::reachable_3d_in(
            cs,
            cd,
            |c| {
                let c = frame.from_canon(c);
                !mesh.contains(c) || mesh.is_faulty(c)
            },
            &mut sc.useful,
        )
    });
    let mcc_ok = tr.time(span::CONDITION, || {
        minimal_path_exists_3d_in(lab, cs, cd, &mut sc.cond_useful).exists()
    });
    let rfb_ok = tr.time(span::RFB_EXISTS, || {
        blocks.minimal_path_exists_in(mesh, s, d, &mut sc.useful)
    });
    let endpoints_safe = lab.is_safe(cs) && lab.is_safe(cd);
    let mut r = TrialResult {
        oracle_ok,
        mcc_ok,
        rfb_ok,
        endpoints_safe,
        ..TrialResult::default()
    };
    r.greedy_ok = tr.time(span::GREEDY, || {
        baseline::route_greedy_3d(lab, cs, cd, &mut Policy::random(seed)).result
            == RouteResult::Delivered
    });
    if endpoints_safe {
        let det = tr.time(span::DETECT, || detect_3d_in(lab, cs, cd, &mut sc.flood));
        tr.count(counter::DETECT_VISITED, det.visited as f64);
        r.detection_cost = det.visited;
        if !det.feasible() && oracle_ok {
            tr.count(counter::DETECT_REFUSED, 1.0);
        }
        if det.feasible() {
            tr.time(span::RESWEEP, || {
                sc.resweep.recompute(cs, cd, |c| {
                    lab.status_get(c).map(|t| t.is_unsafe()).unwrap_or(true)
                })
            });
            let out = tr.time(span::ROUTE, || {
                Router3::new(lab, &m.mccs).route_with_rule_in(
                    cs,
                    cd,
                    &mut Policy::random(seed ^ 0x9e37_79b9),
                    DecisionRule::BoundaryExact,
                    &mut sc.route,
                )
            });
            r.detection_cost = out.detection_cost;
            if out.delivered() {
                r.mcc_delivered = true;
                r.mcc_hops = out.path.hops();
                r.mcc_adaptivity = out.adaptivity();
            }
        }
    }
    if rfb_ok {
        let out = tr.time(span::RFB_ROUTE, || {
            baseline::route_rfb_3d_in(
                blocks,
                mesh,
                s,
                d,
                &mut Policy::random(seed ^ 0x51),
                &mut sc.useful,
            )
        });
        if out.delivered() {
            r.rfb_adaptivity = out.adaptivity();
        }
    }
    count_outcome(tr, &r);
    r
}

/// A healthy-by-construction random pair in a `w × h` box at least
/// `min_dist` hops apart, accepted by `ok`.
pub fn pair_2d(
    rng: &mut crate::common::Rng,
    w: i32,
    h: i32,
    min_dist: u32,
    ok: impl Fn(C2) -> bool,
) -> (C2, C2) {
    loop {
        let s = C2 {
            x: rng.coord(w),
            y: rng.coord(h),
        };
        let d = C2 {
            x: rng.coord(w),
            y: rng.coord(h),
        };
        if s.dist(d) >= min_dist && ok(s) && ok(d) {
            return (s, d);
        }
    }
}

/// 3-D twin of [`pair_2d`] in a `k³` cube.
pub fn pair_3d(
    rng: &mut crate::common::Rng,
    k: i32,
    min_dist: u32,
    ok: impl Fn(C3) -> bool,
) -> (C3, C3) {
    loop {
        let s = C3 {
            x: rng.coord(k),
            y: rng.coord(k),
            z: rng.coord(k),
        };
        let d = C3 {
            x: rng.coord(k),
            y: rng.coord(k),
            z: rng.coord(k),
        };
        if s.dist(d) >= min_dist && ok(s) && ok(d) {
            return (s, d);
        }
    }
}

/// The per-layer metrics of a traced trial workload (`sweep`, `batch`).
/// Times are mean self time per call; counts are per call of the layer
/// that produces them; `hits` counts untraced ops that computed no model.
pub fn layer_metrics(
    tr: &Tracer,
    root: &str,
    ops: u64,
    hits: u64,
    untraced_s: f64,
    traced_s: f64,
) -> Vec<crate::Metric> {
    use crate::Metric;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let calls = |name: &str| tr.agg(name).calls as f64;
    let root_agg = tr.agg(root);
    let redone = tr.agg(span::DETECT).self_ns + tr.agg(span::RESWEEP).self_ns;
    let mut m: Vec<Metric> = [
        (span::INJECT, "fault_model.regime.inject_us"),
        (span::LABELLING, "fault_model.labelling.compute_us"),
        (span::MCC, "fault_model.mcc.compute_us"),
        (span::RFB, "fault_model.rfb.compute_us"),
        (span::ORACLE, "fault_model.oracle.reachable_us"),
        (span::CONDITION, "fault_model.condition.exists_us"),
        (span::RFB_EXISTS, "fault_model.rfb.exists_us"),
        (span::DETECT, "mcc_routing.detect.us"),
        (span::RESWEEP, "mcc_routing.router.resweep_us"),
        (span::ROUTE, "mcc_routing.router.route_us"),
        (span::GREEDY, "mcc_routing.baseline.greedy_us"),
        (span::RFB_ROUTE, "mcc_routing.baseline.rfb_route_us"),
    ]
    .iter()
    .map(|&(s, name)| Metric::new(name, tr.mean_self_us(s), "us"))
    .collect();
    let c = |n: &str| tr.counter(n);
    m.extend([
        Metric::new(
            "fault_model.models.hit_ratio",
            per(hits as f64, ops as f64),
            "ratio",
        ),
        Metric::new(
            "mcc_routing.detect.visited",
            per(c(counter::DETECT_VISITED), calls(span::DETECT)),
            "count",
        ),
        Metric::new(
            "mcc_routing.router.hops",
            per(c(counter::ROUTE_HOPS), c(counter::DELIVERED)),
            "count",
        ),
        Metric::new(
            "mcc_routing.router.delivered_ratio",
            per(c(counter::DELIVERED), c(counter::FEASIBLE_SAFE)),
            "ratio",
        ),
        Metric::new(
            "mcc_routing.detect.refused_feasible",
            c(counter::DETECT_REFUSED),
            "count",
        ),
        Metric::new(
            "fault_model.rfb.admit_ratio",
            per(c(counter::RFB_OK), c(counter::ORACLE_OK)),
            "ratio",
        ),
        Metric::new(
            "fault_model.labelling.unsafe_nodes",
            per(c(counter::UNSAFE), calls(span::LABELLING)),
            "count",
        ),
        Metric::new(
            "fault_model.mcc.regions",
            per(c(counter::REGIONS), calls(span::MCC)),
            "count",
        ),
        Metric::new(
            "fault_model.rfb.disabled_nodes",
            per(c(counter::DISABLED), calls(span::RFB)),
            "count",
        ),
        Metric::new(
            "trace.unattributed_frac",
            per(root_agg.self_ns as f64, root_agg.total_ns as f64),
            "frac",
        ),
        Metric::new(
            "trace.redundant_frac",
            per(redone as f64, root_agg.total_ns as f64),
            "frac",
        ),
        Metric::new("trace.overhead_frac", traced_s / untraced_s - 1.0, "frac"),
    ]);
    m
}
