//! Distributed two-phase routing in 2-D (Algorithm 3 as messages).
//!
//! Phase one: two detection messages walk from the source (`+Y` with `+X`
//! detours; `+X` with `+Y` detours), each deciding purely from the
//! neighbor-status knowledge of the node it sits on by the step rule the
//! semantic walks use (`mcc_routing::feasibility2::walk_step`), and *reply
//! messages* retrace the walk back to the source — message costs included.
//!
//! Phase two: the data message is forwarded hop by hop. At every node the
//! candidate directions are the preferred ones whose neighbor is safe, and
//! a direction is excluded when a [`BoundaryRecord2`] **stored at that
//! node** forbids it for the current destination. No node ever consults
//! non-local information.
//!
//! `tests` validate against the semantic layer: the detection replies agree
//! with `mcc_routing::detect_2d`, and the data message is delivered over a
//! minimal path whenever the semantic condition admits one.

use std::ops::ControlFlow;

use mcc_routing::feasibility2::{walk_step, WALKS};
use mesh_topo::{Coord, Dir2, Mesh2D, NodeSpace2, Path2, C2};
use sim_net::{RunStats, SimNet};

use crate::boundary2::{BoundState, Boundary2};
use crate::records::BoundaryRecord2;

/// Messages of the routing phase.
#[derive(Clone, Debug)]
pub enum RouteMsg {
    /// A detection walk: `main`/`side` directions, destination, and the
    /// path walked so far (for the reply).
    Detect {
        /// Primary walk direction.
        main: Dir2,
        /// Detour direction.
        side: Dir2,
        /// Canonical destination.
        d: C2,
        /// Nodes visited so far, source first.
        path: Vec<C2>,
    },
    /// The detection verdict retracing `path` back to the source.
    Reply {
        /// Which walk is reporting (its main direction).
        main: Dir2,
        /// Did the walk reach its target edge?
        ok: bool,
        /// Remaining nodes to retrace (last element = next hop).
        path: Vec<C2>,
    },
    /// The routed payload.
    Data {
        /// Canonical destination.
        d: C2,
        /// Nodes visited so far, source first.
        path: Vec<C2>,
    },
}

/// Per-node routing state: boundary state plus routing scratch.
#[derive(Clone, Debug, Default)]
pub struct RouteState {
    /// Construction-phase state (records, statuses).
    pub base: BoundState,
    /// Detection verdicts received (at the source).
    pub verdicts: Vec<(Dir2, bool)>,
    /// Path of a delivered data message (at the destination).
    pub delivered: Option<Vec<C2>>,
}

/// Outcome of one distributed routing attempt.
#[derive(Clone, Debug)]
pub struct DistRouteOutcome {
    /// Was the routing activated (both detections positive)?
    pub feasible: bool,
    /// The delivered path, if any.
    pub path: Option<Path2>,
    /// Message statistics of the routing phase (detection + data).
    pub stats: RunStats,
}

/// Execute one routing from canonical `s` to `d` (`s ≤ d`, both safe) on a
/// constructed boundary network.
///
/// # Panics
/// If `s` does not precede `d`, or either endpoint is unsafe.
pub fn route_distributed_2d(mesh: &Mesh2D, bound: &Boundary2, s: C2, d: C2) -> DistRouteOutcome {
    assert!(
        s.dominated_by(d),
        "distributed routing requires canonical s <= d"
    );
    let (w, h) = (mesh.width(), mesh.height());
    let space = mesh.space();
    let mut net: SimNet<C2, RouteState, RouteMsg> = SimNet::new(space, |_| RouteState::default());
    for i in 0..net.len() {
        net.state_mut(i).base = bound.net.state(i).clone();
    }
    assert!(
        net.state_at(s).base.status.is_safe() && net.state_at(d).base.status.is_safe(),
        "distributed routing requires safe endpoints"
    );
    // Phase one: launch both detection walks.
    for (main, side) in WALKS {
        let path = vec![];
        net.post(
            space.index(s),
            RouteMsg::Detect {
                main,
                side,
                d,
                path,
            },
        );
    }
    let max_rounds = (6 * (w + h)) as usize + 32;
    let mut stats = net.run(max_rounds, make_step(space));
    // Read verdicts at the source.
    let verdicts = &net.state_at(s).verdicts;
    let y_ok = verdicts.iter().any(|&(m, ok)| m == Dir2::Yp && ok);
    let x_ok = verdicts.iter().any(|&(m, ok)| m == Dir2::Xp && ok);
    let feasible = y_ok && x_ok;
    let mut path = None;
    if feasible {
        let mut net2 = net;
        net2.post(space.index(s), RouteMsg::Data { d, path: vec![] });
        let data_stats = net2.run(max_rounds, make_step(space));
        stats.absorb(data_stats);
        path = net2.state_at(d).delivered.clone().map(Path2::from_nodes);
    }
    DistRouteOutcome {
        feasible,
        path,
        stats,
    }
}

/// The shared handler of both phases (detection walks + replies, data
/// forwarding), parameterized by the mesh linearization.
fn make_step(
    space: NodeSpace2,
) -> impl FnMut(&mut RouteState, sim_net::Inbox<'_, RouteMsg>, &mut sim_net::Ctx<'_, C2, RouteMsg>)
{
    move |state, inbox, ctx| {
        let me_i = ctx.me();
        let me = space.coord(me_i);
        for (_, msg) in inbox {
            match msg {
                RouteMsg::Detect {
                    main,
                    side,
                    d,
                    path,
                } => {
                    let (main, side, d) = (*main, *side, *d);
                    let mut path = path.clone();
                    path.push(me);
                    let safe = |v: C2| {
                        me.dir_to(v).is_some_and(|dir| {
                            space.step(me_i, dir).is_some()
                                && matches!(state.base.nbr_status[dir.index()], Some(st) if st.is_safe())
                        })
                    };
                    match walk_step(me, d, main, side, safe) {
                        ControlFlow::Break(ok) => {
                            // Reply toward the source.
                            path.pop();
                            if let Some(&back) = path.last() {
                                ctx.send(space.index(back), RouteMsg::Reply { main, ok, path });
                            } else {
                                state.verdicts.push((main, ok)); // walk ended at s
                            }
                        }
                        ControlFlow::Continue(next) => {
                            let msg = RouteMsg::Detect {
                                main,
                                side,
                                d,
                                path,
                            };
                            ctx.send(space.index(next), msg);
                        }
                    }
                }
                RouteMsg::Reply { main, ok, path } => {
                    let mut path = path.clone();
                    path.pop();
                    if let Some(&back) = path.last() {
                        ctx.send(
                            space.index(back),
                            RouteMsg::Reply {
                                main: *main,
                                ok: *ok,
                                path,
                            },
                        );
                    } else {
                        state.verdicts.push((*main, *ok));
                    }
                }
                RouteMsg::Data { d, path } => {
                    let d = *d;
                    let mut path = path.clone();
                    path.push(me);
                    if me == d {
                        state.delivered = Some(path);
                        continue;
                    }
                    // Candidate preferred directions, filtered by neighbor
                    // status and by the records stored at this node.
                    let records: &[BoundaryRecord2] = &state.base.records;
                    let mut allowed: Vec<Dir2> = Vec::with_capacity(2);
                    for dir in Dir2::POSITIVE {
                        if me.get(dir.axis()) >= d.get(dir.axis()) {
                            continue;
                        }
                        let v = me.step(dir);
                        let v_safe = space.contains(v)
                            && matches!(state.base.nbr_status[dir.index()], Some(st) if st.is_safe());
                        if !v_safe {
                            continue;
                        }
                        if records.iter().any(|r| r.excludes(v, d)) {
                            continue;
                        }
                        allowed.push(dir);
                    }
                    // Balanced pick (largest remaining offset), X on ties.
                    let pick = allowed.iter().copied().max_by_key(|dir| match dir {
                        Dir2::Xp => (d.x - me.x, 1),
                        Dir2::Yp => (d.y - me.y, 0),
                        _ => (i32::MIN, 0),
                    });
                    if let Some(dir) = pick {
                        let next = space.step(me_i, dir).expect("allowed dirs are in-mesh");
                        ctx.send(next, RouteMsg::Data { d, path });
                    }
                    // else: stuck — the attempt simply dies, which the
                    // validation layer reports as a non-delivery.
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary2::build_pipeline_2d;
    use fault_model::mcc2::MccSet2;
    use fault_model::{minimal_path_exists_2d, BorderPolicy, Existence2, Labelling2};
    use mesh_topo::coord::c2;
    use mesh_topo::Frame2;

    fn build(faults: &[C2], w: i32, h: i32) -> (Mesh2D, Boundary2) {
        let mut mesh = Mesh2D::new(w, h);
        for &f in faults {
            mesh.inject_fault(f);
        }
        let (b, _) = build_pipeline_2d(&mesh, Frame2::identity(&mesh));
        (mesh, b)
    }

    #[test]
    fn routes_fault_free() {
        let (mesh, b) = build(&[], 8, 8);
        let out = route_distributed_2d(&mesh, &b, c2(0, 0), c2(7, 7));
        assert!(out.feasible);
        let path = out.path.expect("delivered");
        assert!(path.is_minimal(&mesh, c2(0, 0), c2(7, 7)));
    }

    #[test]
    fn routes_around_region_using_records() {
        let (mesh, b) = build(&[c2(3, 3), c2(4, 3), c2(3, 4)], 10, 10);
        let out = route_distributed_2d(&mesh, &b, c2(0, 0), c2(8, 8));
        assert!(out.feasible);
        let path = out.path.expect("delivered");
        assert!(path.is_minimal(&mesh, c2(0, 0), c2(8, 8)));
    }

    #[test]
    fn detection_refuses_blocked_routes() {
        let (mesh, b) = build(&[c2(3, 4)], 8, 8);
        let out = route_distributed_2d(&mesh, &b, c2(3, 0), c2(3, 7));
        assert!(!out.feasible);
        assert!(out.path.is_none());
    }

    #[test]
    fn records_prevent_the_forbidden_shadow() {
        // The balanced data walk from (0,3) to (9,8) with a region at
        // x=5..6,y=5..6 would enter the down-shadow without records; with
        // them it must still deliver minimally.
        let (mesh, b) = build(&[c2(5, 5), c2(6, 6), c2(5, 6), c2(6, 5)], 10, 10);
        let out = route_distributed_2d(&mesh, &b, c2(0, 3), c2(9, 8));
        assert!(out.feasible);
        let path = out.path.expect("delivered");
        assert!(path.is_minimal(&mesh, c2(0, 3), c2(9, 8)));
    }

    #[test]
    fn matches_semantic_layer_randomized() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut delivered = 0;
        let mut refused = 0;
        for seed in 0..25u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut mesh = Mesh2D::new(12, 12);
            // Interior faults only: the identification walk assumption.
            for _ in 0..8 {
                let c = c2(rng.gen_range(1..11), rng.gen_range(1..11));
                if mesh.is_healthy(c) {
                    mesh.inject_fault(c);
                }
            }
            let frame = Frame2::identity(&mesh);
            let lab = Labelling2::compute(&mesh, frame, BorderPolicy::BorderSafe);
            let set = MccSet2::compute(&lab);
            let (s, d) = (c2(0, 0), c2(11, 11));
            if !lab.is_safe(s) || !lab.is_safe(d) {
                continue;
            }
            let (_, bnd) = (
                0,
                Boundary2::run(&mesh, &{
                    let l = crate::labelling::DistLabelling2::run(&mesh, frame);
                    let c = crate::compid::DistComponents2::run(&mesh, &l);
                    crate::ident2::Ident2::run(&mesh, &c)
                }),
            );
            let out = route_distributed_2d(&mesh, &bnd, s, d);
            let semantic = minimal_path_exists_2d(&lab, &set, s, d) == Existence2::Exists;
            assert_eq!(out.feasible, semantic, "seed {seed}: detection mismatch");
            if semantic {
                let path = out
                    .path
                    .unwrap_or_else(|| panic!("seed {seed}: feasible but not delivered (stuck)"));
                assert!(path.is_minimal(&mesh, s, d), "seed {seed}: non-minimal");
                delivered += 1;
            } else {
                refused += 1;
            }
        }
        assert!(delivered >= 5, "delivered only {delivered}");
        let _ = refused;
    }

    #[test]
    fn torus_pipeline_matches_semantic_layer() {
        // The full construction pipeline (labelling → compid → ident →
        // boundary) plus distributed routing on a torus with seam-free
        // fault regions: detection verdicts and delivery must match the
        // semantic condition through the pair's canonical frame.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut delivered = 0;
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xD15C);
            let mut mesh = Mesh2D::torus(12, 12);
            // Keep regions off the canonical seam: interior faults of the
            // identity orientation (the identification walks' working
            // assumption, same as the mesh pipeline).
            for _ in 0..8 {
                let c = c2(rng.gen_range(1..11), rng.gen_range(1..11));
                if mesh.is_healthy(c) {
                    mesh.inject_fault(c);
                }
            }
            let frame = Frame2::identity(&mesh);
            let lab = Labelling2::compute(&mesh, frame, BorderPolicy::BorderSafe);
            let set = MccSet2::compute(&lab);
            let (s, d) = (c2(0, 0), c2(11, 11));
            if !lab.is_safe(s) || !lab.is_safe(d) {
                continue;
            }
            let (bnd, _) = build_pipeline_2d(&mesh, frame);
            let out = route_distributed_2d(&mesh, &bnd, s, d);
            let semantic = minimal_path_exists_2d(&lab, &set, s, d) == Existence2::Exists;
            assert_eq!(out.feasible, semantic, "seed {seed}: detection mismatch");
            if semantic {
                let path = out
                    .path
                    .unwrap_or_else(|| panic!("seed {seed}: feasible but stuck"));
                assert!(path.is_valid(&mesh), "seed {seed}");
                assert_eq!(path.hops() as u32, s.dist(d), "seed {seed}");
                delivered += 1;
            }
        }
        assert!(delivered >= 5, "delivered only {delivered}");
    }

    #[test]
    fn message_stats_accumulate() {
        let (mesh, b) = build(&[c2(4, 4)], 10, 10);
        let out = route_distributed_2d(&mesh, &b, c2(0, 0), c2(9, 9));
        assert!(out.feasible);
        // Detection (two walks + replies) plus data forwarding.
        assert!(
            out.stats.messages > 18 + 18,
            "messages = {}",
            out.stats.messages
        );
    }
}
