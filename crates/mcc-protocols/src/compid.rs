//! Distributed component identification.
//!
//! After labelling, each unsafe node must learn which MCC it belongs to so
//! that identification walks can distinguish the region they are tracing
//! from foreign regions one corridor away. MCC connectivity is
//! 8-connectivity, and 8-diagonal members are not mesh-linked, so the
//! protocol gossips through the shared safe (or unsafe) 4-neighbors: every
//! node re-broadcasts *first-hand* announcements of its 4-neighbors once,
//! giving every node a consistent view of all cells at Chebyshev distance 1
//! (and orthogonal distance 2). Unsafe nodes iterate min-id consensus over
//! the 8-adjacent unsafe cells they see.
//!
//! The converged id of a component is the minimum coordinate of its
//! members — identical to what a centralized pass computes (tested).

use std::collections::HashMap;

use fault_model::NodeStatus;
use mesh_topo::{Frame2, Mesh2D, C2};
use sim_net::{Grid2, RunStats, SimNet};

use crate::labelling::DistLabelling2;

/// Gossip message: `(subject cell, subject's status, subject's current
/// component id, first-hand?)`.
type Msg = (C2, NodeStatus, Option<C2>, bool);

/// Per-node state after component identification.
#[derive(Clone, Debug, Default)]
pub struct CompState {
    /// The node's own status (copied from the labelling run).
    pub status: NodeStatus,
    /// This node's component id (min member coordinate), if unsafe.
    pub comp_id: Option<C2>,
    /// Everything the node knows about nearby cells: status and component
    /// id. Covers at least the 8-neighborhood.
    pub view: HashMap<C2, (NodeStatus, Option<C2>)>,
}

/// The converged component-identification network.
pub struct DistComponents2 {
    /// Per-node state (canonical coordinates).
    pub net: SimNet<Grid2, CompState, Msg>,
    /// Rounds/messages of this phase.
    pub stats: RunStats,
}

impl DistComponents2 {
    /// Run the gossip until component ids converge.
    pub fn run(mesh: &Mesh2D, lab: &DistLabelling2) -> DistComponents2 {
        let topo = Grid2::from_space(mesh.space());
        let space = topo.space();
        let mut net: SimNet<Grid2, CompState, Msg> = SimNet::new(topo, |_| CompState::default());
        // Seed statuses from the labelling phase.
        for i in 0..net.len() {
            let c = space.coord(i);
            let st = lab.net.state(i).status;
            let state = net.state_mut(i);
            state.status = st;
            state.comp_id = st.is_unsafe().then_some(c);
            state.view.insert(c, (st, state.comp_id));
        }
        let max_rounds = ((mesh.width() + mesh.height()) as usize) * 6 + 12;
        // Per-axis adjacency distance: |Δ| on a mesh, the shorter arc on a
        // torus, so 8-adjacency works across the wrap seam too.
        let axis_d = move |a: i32, b: i32, k: i32| {
            let d = (a - b).abs();
            if space.wraps() {
                d.min(k - d)
            } else {
                d
            }
        };
        let (gw, gh) = (mesh.width(), mesh.height());
        let stats = net.run(max_rounds, move |state, inbox, ctx| {
            let me_i = ctx.me();
            let me = space.coord(me_i);
            let mut changed_view = false;
            for &(from, (cell, status, comp, first_hand)) in inbox {
                let entry = state.view.entry(cell).or_insert((status, comp));
                let new_comp = match (entry.1, comp) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                if entry.1 != new_comp || entry.0 != status {
                    *entry = (status, new_comp);
                    changed_view = true;
                }
                // Relay first-hand announcements of my 4-neighbors onward
                // (second-hand, no further relay) so diagonal neighbors
                // hear about each other.
                if first_hand && space.coord(from as usize) == cell {
                    for dir in mesh_topo::Dir2::ALL {
                        if let Some(n) = space.step(me_i, dir) {
                            if space.coord(n) != cell {
                                ctx.send(n, (cell, status, new_comp, false));
                            }
                        }
                    }
                }
            }
            // Min-id consensus over visible 8-adjacent unsafe cells.
            let mut announce = ctx.round == 0;
            if state.status.is_unsafe() {
                let mut best = state.comp_id;
                for (cell, (st, comp)) in state.view.iter() {
                    let dx = axis_d(cell.x, me.x, gw);
                    let dy = axis_d(cell.y, me.y, gh);
                    if dx <= 1 && dy <= 1 && *cell != me && st.is_unsafe() {
                        if let Some(c) = comp {
                            if best.map(|b| *c < b).unwrap_or(true) {
                                best = Some(*c);
                            }
                        }
                    }
                }
                if best != state.comp_id {
                    state.comp_id = best;
                    state.view.insert(me, (state.status, best));
                    announce = true;
                }
            }
            let _ = changed_view;
            if announce {
                for dir in mesh_topo::Dir2::ALL {
                    if let Some(n) = space.step(me_i, dir) {
                        ctx.send(n, (me, state.status, state.comp_id, true));
                    }
                }
            }
        });
        DistComponents2 { net, stats }
    }

    /// The component id of canonical `c`, if unsafe.
    pub fn comp_id(&self, c: C2) -> Option<C2> {
        self.net.state_at(c).comp_id
    }

    /// Validate against the centralized decomposition: two unsafe nodes
    /// share a protocol id iff they share a centralized component.
    pub fn matches(&self, mesh: &Mesh2D, frame: Frame2) -> bool {
        use fault_model::components::Components2;
        use fault_model::{BorderPolicy, Labelling2};
        let lab = Labelling2::compute(mesh, frame, BorderPolicy::BorderSafe);
        let comps = Components2::compute(&lab);
        let mut id_map: HashMap<C2, u32> = HashMap::new();
        for (c, state) in self.net.iter_coords() {
            match (state.comp_id, comps.component_of(c)) {
                (None, None) => {}
                (Some(pid), Some(cid)) => {
                    if let Some(&prev) = id_map.get(&pid) {
                        if prev != cid {
                            return false;
                        }
                    } else {
                        if id_map.values().any(|&v| v == cid) {
                            return false; // two protocol ids for one component
                        }
                        id_map.insert(pid, cid);
                    }
                }
                _ => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_model::{BorderPolicy, FaultRegime};
    use mesh_topo::coord::c2;

    fn run_for(faults: &[C2], w: i32, h: i32) -> (Mesh2D, DistComponents2) {
        let mut mesh = Mesh2D::new(w, h);
        for &f in faults {
            mesh.inject_fault(f);
        }
        let lab = DistLabelling2::run(&mesh, Frame2::identity(&mesh));
        let comps = DistComponents2::run(&mesh, &lab);
        (mesh, comps)
    }

    #[test]
    fn single_region_single_id() {
        let (_, comps) = run_for(&[c2(5, 6), c2(6, 5)], 10, 10);
        // The closure makes a 2x2 region; all four share the min coord.
        let id = comps.comp_id(c2(5, 5));
        assert!(id.is_some());
        for c in [c2(5, 6), c2(6, 5), c2(6, 6)] {
            assert_eq!(comps.comp_id(c), id);
        }
        assert_eq!(id, Some(c2(5, 5)));
    }

    #[test]
    fn diagonal_members_join_via_relay() {
        // "/"-pair: 8-connected but not mesh-linked; gossip must join them.
        let (_, comps) = run_for(&[c2(4, 4), c2(5, 5)], 10, 10);
        assert_eq!(comps.comp_id(c2(4, 4)), Some(c2(4, 4)));
        assert_eq!(comps.comp_id(c2(5, 5)), Some(c2(4, 4)));
    }

    #[test]
    fn separate_regions_separate_ids() {
        let (_, comps) = run_for(&[c2(2, 2), c2(7, 7)], 10, 10);
        assert_ne!(comps.comp_id(c2(2, 2)), comps.comp_id(c2(7, 7)));
        assert_eq!(comps.comp_id(c2(4, 4)), None);
    }

    #[test]
    fn corridor_width_one_keeps_regions_apart() {
        // Two walls separated by a single safe column.
        let faults: Vec<C2> = (2..=5)
            .map(|y| c2(3, y))
            .chain((2..=5).map(|y| c2(5, y)))
            .collect();
        let (_, comps) = run_for(&faults, 10, 10);
        assert_ne!(comps.comp_id(c2(3, 3)), comps.comp_id(c2(5, 3)));
        assert_eq!(comps.comp_id(c2(4, 3)), None, "corridor stays safe");
    }

    #[test]
    fn matches_centralized_on_random_instances() {
        for seed in 0..10u64 {
            let mut mesh = Mesh2D::new(14, 14);
            FaultRegime::Uniform.inject(&mut mesh, 20, seed, &[], BorderPolicy::BorderSafe);
            let frame = Frame2::identity(&mesh);
            let lab = DistLabelling2::run(&mesh, frame);
            let comps = DistComponents2::run(&mesh, &lab);
            assert!(comps.stats.quiescent, "seed {seed}");
            assert!(comps.matches(&mesh, frame), "seed {seed}: ids diverge");
        }
    }

    #[test]
    fn torus_components_join_across_the_seam() {
        // (0,4) and (9,4) are wrap-linked: one component, one id. The
        // diagonal wrap pair (0,0)/(9,9) is Chebyshev-1 through the
        // corner seam: also one component.
        let mut mesh = Mesh2D::torus(10, 10);
        for c in [c2(0, 4), c2(9, 4), c2(0, 0), c2(9, 9)] {
            mesh.inject_fault(c);
        }
        let frame = Frame2::identity(&mesh);
        let lab = DistLabelling2::run(&mesh, frame);
        let comps = DistComponents2::run(&mesh, &lab);
        assert!(comps.stats.quiescent);
        assert_eq!(comps.comp_id(c2(0, 4)), comps.comp_id(c2(9, 4)));
        assert_eq!(comps.comp_id(c2(0, 0)), comps.comp_id(c2(9, 9)));
        assert_ne!(comps.comp_id(c2(0, 4)), comps.comp_id(c2(0, 0)));
        assert!(comps.matches(&mesh, frame), "ids diverge from centralized");
    }

    #[test]
    fn torus_matches_centralized_on_random_instances() {
        for seed in 0..8u64 {
            let mut mesh = Mesh2D::torus(12, 12);
            FaultRegime::Uniform.inject(&mut mesh, 18, seed, &[], BorderPolicy::BorderSafe);
            let frame = Frame2::identity(&mesh);
            let lab = DistLabelling2::run(&mesh, frame);
            let comps = DistComponents2::run(&mesh, &lab);
            assert!(comps.stats.quiescent, "seed {seed}");
            assert!(comps.matches(&mesh, frame), "seed {seed}: ids diverge");
        }
    }

    #[test]
    fn long_snake_converges() {
        // A long 8-connected staircase: min-id must travel the whole chain.
        let faults: Vec<C2> = (0..8).map(|i| c2(2 + i, 2 + i)).collect();
        let (mesh, comps) = run_for(&faults, 14, 14);
        let frame = Frame2::identity(&mesh);
        assert!(comps.matches(&mesh, frame));
        assert_eq!(comps.comp_id(c2(9, 9)), Some(c2(2, 2)));
    }
}
