//! The 2-D identification process (Algorithm 2, steps 1–2).
//!
//! Identification messages are launched at every *initialization-corner
//! candidate* (a safe node whose north-east diagonal cell is unsafe and
//! whose `+X` and `+Y` neighbors are safe — the local signature of the
//! paper's corner) and wall-follow the edge nodes of the region with the
//! fault region on their right hand, collecting every member cell they see
//! in their Chebyshev-1 view that carries the walked component's id. When
//! the walk closes its loop the origin reconstructs the region shape
//! (HV-convex fill of the collected boundary cells).
//!
//! The paper starts one walk at *the* initialization corner and splits it
//! into clockwise/counter-clockwise halves that meet at the opposite
//! corner; launching one full loop per candidate and electing the minimum
//! candidate as the owner afterwards yields the same information with the
//! same per-walk message count and needs no corner-uniqueness assumption
//! (see DESIGN.md).
//!
//! After election the owner launches a *delivery walk* around the same
//! contour that deposits the shape at the region's Y- and X-boundary
//! anchors, where the boundary construction of [`crate::boundary2`] picks
//! it up.

use std::collections::HashMap;
use std::sync::Arc;

use fault_model::NodeStatus;
use mesh_topo::{Dir2, Mesh2D, NodeSpace2, C2};
use sim_net::{RunStats, SimNet};

use crate::compid::DistComponents2;
use crate::records::RegionShape;

/// Clockwise rotation (the "right" of a heading, y pointing up).
pub fn right_of(h: Dir2) -> Dir2 {
    match h {
        Dir2::Yp => Dir2::Xp,
        Dir2::Xp => Dir2::Ym,
        Dir2::Ym => Dir2::Xm,
        Dir2::Xm => Dir2::Yp,
    }
}

/// Counter-clockwise rotation.
pub fn left_of(h: Dir2) -> Dir2 {
    right_of(right_of(right_of(h)))
}

/// A wall-following identification or delivery walk.
#[derive(Clone, Debug)]
pub struct WalkMsg {
    /// Node that launched the walk.
    pub origin: C2,
    /// Component id being traced.
    pub comp: C2,
    /// Heading used to enter the current node.
    pub heading: Dir2,
    /// First `(node, heading)` pair of the walk — loop-closure sentinel.
    pub first: (C2, Dir2),
    /// Hops taken so far (0 = launch self-post).
    pub steps: u32,
    /// Member cells collected so far (identification walks only).
    pub collected: Vec<C2>,
    /// Shape being delivered (delivery walks only).
    pub shape: Option<Arc<RegionShape>>,
    /// Remaining hops before the walk is discarded (the paper's TTL).
    pub ttl: u32,
}

/// Messages of the identification phase.
#[derive(Clone, Debug)]
pub enum IdentMsg {
    /// A wall-following walk in flight.
    Walk(WalkMsg),
    /// Loop closed: the collected cells return to the origin.
    Done {
        /// Component id traced by the finished walk.
        comp: C2,
        /// All member cells the walk collected.
        collected: Vec<C2>,
    },
}

/// Per-node state of the identification phase.
#[derive(Clone, Debug, Default)]
pub struct IdentState {
    /// Own status.
    pub status: NodeStatus,
    /// Own component id, if unsafe.
    pub comp_id: Option<C2>,
    /// Chebyshev-1 (plus orthogonal distance 2) view: status and comp id.
    pub view: HashMap<C2, (NodeStatus, Option<C2>)>,
    /// The shape owned by this node (elected initialization corners only).
    pub shape: Option<Arc<RegionShape>>,
    /// Shapes deposited here because this node is a boundary anchor.
    pub anchor_shapes: Vec<Arc<RegionShape>>,
}

/// The completed identification network.
pub struct Ident2 {
    /// Per-node state (canonical coordinates).
    pub net: SimNet<C2, IdentState, IdentMsg>,
    /// Rounds/messages of this phase.
    pub stats: RunStats,
    width: i32,
    height: i32,
}

/// One wall-follow step: given the local view and the heading used to
/// enter `u`, pick the next direction by **left-hand** priority (the region
/// sits on the walker's left: launches start on the region's south-west
/// side heading east along its southern edge).
fn next_dir(
    space: NodeSpace2,
    view: &HashMap<C2, (NodeStatus, Option<C2>)>,
    u: C2,
    heading: Dir2,
) -> Option<Dir2> {
    let safe = |c: C2| space.contains(c) && matches!(view.get(&c), Some((st, _)) if st.is_safe());
    [
        left_of(heading),
        heading,
        right_of(heading),
        heading.opposite(),
    ]
    .into_iter()
    .find(|&dir| safe(u.step(dir)))
}

impl Ident2 {
    /// Run the identification walks on top of a converged component phase.
    pub fn run(mesh: &Mesh2D, comps: &DistComponents2) -> Ident2 {
        let (w, h) = (mesh.width(), mesh.height());
        let space = mesh.space();
        let mut net: SimNet<C2, IdentState, IdentMsg> =
            SimNet::new(space, |_| IdentState::default());
        // Seed from the component phase.
        for i in 0..net.len() {
            let src = comps.net.state(i);
            let dst = net.state_mut(i);
            dst.status = src.status;
            dst.comp_id = src.comp_id;
            dst.view = src.view.clone();
        }
        let ttl_max = (8 * w * h) as u32;
        // Launch a walk from every corner candidate.
        let mut launches: Vec<(usize, WalkMsg)> = Vec::new();
        for i in 0..net.len() {
            let c = space.coord(i);
            let st = net.state(i);
            if !st.status.is_safe() {
                continue;
            }
            let diag = C2 {
                x: c.x + 1,
                y: c.y + 1,
            };
            let diag_comp = match st.view.get(&diag) {
                Some((ds, comp)) if ds.is_unsafe() => *comp,
                _ => continue,
            };
            let xp_safe = matches!(st.view.get(&c.step(Dir2::Xp)), Some((s, _)) if s.is_safe());
            let yp_safe = matches!(st.view.get(&c.step(Dir2::Yp)), Some((s, _)) if s.is_safe());
            if !(xp_safe
                && yp_safe
                && space.contains(c.step(Dir2::Xp))
                && space.contains(c.step(Dir2::Yp)))
            {
                continue;
            }
            let Some(comp) = diag_comp else { continue };
            // First move by left-hand priority with a virtual -Y heading:
            // east along the region's southern edge.
            let Some(dir) = next_dir(space, &st.view, c, Dir2::Ym) else {
                continue;
            };
            let first = (c.step(dir), dir);
            launches.push((
                i,
                WalkMsg {
                    origin: c,
                    comp,
                    heading: dir,
                    first,
                    steps: 0,
                    collected: Vec::new(),
                    shape: None,
                    ttl: ttl_max,
                },
            ));
        }
        for (i, msg) in launches {
            net.post(i, IdentMsg::Walk(msg)); // self-post; the handler forwards
        }
        let max_rounds = (8 * (w * h)) as usize + 16;
        let stats = net.run(max_rounds, move |state, inbox, ctx| {
            let me = space.coord(ctx.me());
            for (_, msg) in inbox {
                match msg {
                    IdentMsg::Walk(walk) => {
                        let mut walk = walk.clone();
                        if walk.ttl == 0 {
                            continue; // discard, as the paper's TTL rule
                        }
                        walk.ttl -= 1;
                        // Collection (identification walks) / anchor deposit
                        // (delivery walks) at the current node.
                        if walk.shape.is_none() {
                            for (cell, (st, comp)) in state.view.iter() {
                                if st.is_unsafe()
                                    && *comp == Some(walk.comp)
                                    && (cell.x - me.x).abs() <= 1
                                    && (cell.y - me.y).abs() <= 1
                                {
                                    walk.collected.push(*cell);
                                }
                            }
                        } else if let Some(shape) = &walk.shape {
                            if (shape.y_anchor() == me || shape.x_anchor() == me)
                                && !state
                                    .anchor_shapes
                                    .iter()
                                    .any(|s| s.comp_id == shape.comp_id)
                            {
                                state.anchor_shapes.push(shape.clone());
                            }
                        }
                        // Launch self-post: step onto the first node.
                        if walk.steps == 0 {
                            let (first_node, dir) = walk.first;
                            walk.heading = dir;
                            walk.steps = 1;
                            ctx.send(space.index(first_node), IdentMsg::Walk(walk));
                            continue;
                        }
                        // Loop closure: re-entered the first node with the
                        // first heading after a non-trivial tour.
                        if walk.steps > 1 && (me, walk.heading) == walk.first {
                            if walk.shape.is_none() {
                                // Report back to the origin (our neighbor:
                                // the origin stepped onto us to launch).
                                ctx.send(
                                    space.index(walk.origin),
                                    IdentMsg::Done {
                                        comp: walk.comp,
                                        collected: walk.collected,
                                    },
                                );
                            }
                            continue;
                        }
                        // Continue the wall-follow.
                        if let Some(dir) = next_dir(space, &state.view, me, walk.heading) {
                            walk.heading = dir;
                            walk.steps += 1;
                            let next = me.step(dir);
                            ctx.send(space.index(next), IdentMsg::Walk(walk));
                        }
                    }
                    IdentMsg::Done { comp, collected } => {
                        // Reconstruct, elect, and (if owner) start delivery.
                        if collected.is_empty() {
                            continue;
                        }
                        let filled = hv_fill(collected.clone());
                        let shape = Arc::new(RegionShape::new(*comp, filled));
                        let candidates = shape.corner_candidates();
                        let owner = candidates
                            .iter()
                            .copied()
                            .find(|c| {
                                matches!(state.view.get(c), Some((st, _)) if st.is_safe())
                                    || *c == me
                            })
                            .or(candidates.first().copied());
                        if owner == Some(me) && state.shape.is_none() {
                            state.shape = Some(shape.clone());
                            // Deposit locally if we are an anchor ourselves.
                            if shape.y_anchor() == me || shape.x_anchor() == me {
                                state.anchor_shapes.push(shape.clone());
                            }
                            // Launch the delivery walk (same contour).
                            if let Some(dir) = next_dir(space, &state.view, me, Dir2::Ym) {
                                let first = (me.step(dir), dir);
                                ctx.send(
                                    space.index(first.0),
                                    IdentMsg::Walk(WalkMsg {
                                        origin: me,
                                        comp: *comp,
                                        heading: dir,
                                        first,
                                        steps: 1,
                                        collected: Vec::new(),
                                        shape: Some(shape),
                                        ttl: ttl_max,
                                    }),
                                );
                            }
                        }
                    }
                }
            }
        });
        Ident2 {
            net,
            stats,
            width: w,
            height: h,
        }
    }

    /// All owned shapes, by owner coordinate.
    pub fn shapes(&self) -> Vec<(C2, Arc<RegionShape>)> {
        self.net
            .iter_coords()
            .filter_map(|(c, s)| s.shape.clone().map(|sh| (c, sh)))
            .collect()
    }

    /// Mesh width.
    pub fn width(&self) -> i32 {
        self.width
    }

    /// Mesh height.
    pub fn height(&self) -> i32 {
        self.height
    }
}

/// HV-convex fill: complete each column's interval between the collected
/// extremes (MCCs have contiguous columns, so boundary cells determine the
/// interior).
fn hv_fill(mut cells: Vec<C2>) -> Vec<C2> {
    cells.sort();
    cells.dedup();
    use std::collections::BTreeMap;
    let mut cols: BTreeMap<i32, (i32, i32)> = BTreeMap::new();
    for c in &cells {
        let e = cols.entry(c.x).or_insert((c.y, c.y));
        e.0 = e.0.min(c.y);
        e.1 = e.1.max(c.y);
    }
    let mut out = Vec::new();
    for (x, (lo, hi)) in cols {
        for y in lo..=hi {
            out.push(C2 { x, y });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labelling::DistLabelling2;
    use fault_model::mcc2::MccSet2;
    use fault_model::{BorderPolicy, Labelling2};
    use mesh_topo::coord::c2;
    use mesh_topo::Frame2;

    fn pipeline(mesh: &Mesh2D) -> Ident2 {
        let lab = DistLabelling2::run(mesh, Frame2::identity(mesh));
        let comps = DistComponents2::run(mesh, &lab);
        Ident2::run(mesh, &comps)
    }

    fn reference_shapes(mesh: &Mesh2D) -> Vec<Vec<C2>> {
        let lab = Labelling2::compute(mesh, Frame2::identity(mesh), BorderPolicy::BorderSafe);
        let set = MccSet2::compute(&lab);
        set.mccs
            .iter()
            .map(|m| {
                let mut cells = m.cells.clone();
                cells.sort();
                cells
            })
            .collect()
    }

    fn assert_shapes_match(mesh: &Mesh2D, ident: &Ident2) {
        let mut got: Vec<Vec<C2>> = ident
            .shapes()
            .into_iter()
            .map(|(_, s)| s.cells.clone())
            .collect();
        let mut want = reference_shapes(mesh);
        got.sort();
        want.sort();
        assert_eq!(got, want, "reconstructed shapes diverge");
    }

    #[test]
    fn single_fault_identified() {
        let mut mesh = Mesh2D::new(10, 10);
        mesh.inject_fault(c2(5, 5));
        let ident = pipeline(&mesh);
        assert_shapes_match(&mesh, &ident);
        let shapes = ident.shapes();
        assert_eq!(shapes.len(), 1);
        // Owner is the SW candidate corner.
        assert_eq!(shapes[0].0, c2(4, 4));
    }

    #[test]
    fn staircase_identified() {
        let mut mesh = Mesh2D::new(14, 14);
        for x in 3..=7 {
            mesh.inject_fault(c2(x, 10 - x));
        }
        let ident = pipeline(&mesh);
        assert_shapes_match(&mesh, &ident);
    }

    #[test]
    fn slash_diagonal_identified_as_one() {
        let mut mesh = Mesh2D::new(10, 10);
        mesh.inject_fault(c2(4, 4));
        mesh.inject_fault(c2(5, 5));
        let ident = pipeline(&mesh);
        assert_shapes_match(&mesh, &ident);
        assert_eq!(ident.shapes().len(), 1);
    }

    #[test]
    fn two_regions_identified_separately() {
        let mut mesh = Mesh2D::new(12, 12);
        mesh.inject_fault(c2(2, 2));
        mesh.inject_fault(c2(8, 8));
        let ident = pipeline(&mesh);
        assert_shapes_match(&mesh, &ident);
        assert_eq!(ident.shapes().len(), 2);
    }

    #[test]
    fn anchors_receive_shapes() {
        let mut mesh = Mesh2D::new(10, 10);
        mesh.inject_fault(c2(5, 5));
        let ident = pipeline(&mesh);
        let (_, shape) = &ident.shapes()[0];
        let ya = shape.y_anchor();
        let xa = shape.x_anchor();
        assert!(ident
            .net
            .state_at(ya)
            .anchor_shapes
            .iter()
            .any(|s| s.comp_id == shape.comp_id));
        assert!(ident
            .net
            .state_at(xa)
            .anchor_shapes
            .iter()
            .any(|s| s.comp_id == shape.comp_id));
    }

    #[test]
    fn randomized_reconstruction_matches() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // Interior faults only: the walks assume regions do not split the
        // mesh (documented assumption, shared with the paper).
        for seed in 0..14u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut mesh = Mesh2D::new(14, 14);
            for _ in 0..10 {
                let c = c2(rng.gen_range(1..13), rng.gen_range(1..13));
                if mesh.is_healthy(c) {
                    mesh.inject_fault(c);
                }
            }
            let ident = pipeline(&mesh);
            assert_shapes_match(&mesh, &ident);
        }
    }

    #[test]
    fn walk_message_cost_scales_with_perimeter() {
        let mut small = Mesh2D::new(16, 16);
        small.inject_fault(c2(8, 8));
        let mut large = Mesh2D::new(16, 16);
        for x in 4..=11 {
            large.inject_fault(c2(x, 15 - x));
        }
        let a = pipeline(&small);
        let b = pipeline(&large);
        assert!(b.stats.messages > a.stats.messages);
    }
}
