//! Distributed labelling — Algorithms 1 and 4 as message protocols.
//!
//! Initially a node knows only whether it itself is faulty. In round 0
//! every node announces its status to its neighbors; from then on a node
//! re-evaluates the useless / can't-reach rules whenever a neighbor's
//! announcement changes its view, announcing its own new labels in turn.
//! The protocol reaches the same fixpoint as the centralized closure
//! (validated by tests) in a number of rounds proportional to the longest
//! label-propagation chain.
//!
//! The network runs in **canonical coordinates** (one instance per
//! quadrant/octant orientation), so the rules always look at the `+`/`-`
//! neighbors.
//!
//! Runs on the flat engine: nodes are [`mesh_topo::NodeSpace2`] /
//! [`mesh_topo::NodeSpace3`] linear indices, and once the label wavefront
//! has passed, converged nodes are never dispatched again (the engine's
//! active set), so convergence tails cost messages — not whole-mesh scans.
//! The pre-refactor implementation survives beside `tests/parity.rs` as
//! the oracle that pins this one stats-identical.

use fault_model::{BorderPolicy, Labelling2, Labelling3, NodeStatus};
use mesh_topo::{Dir2, Dir3, Frame2, Frame3, Mesh2D, Mesh3D, C2, C3};
use sim_net::{Grid2, Grid3, RunStats, SimNet};

/// Per-node protocol state (2-D and 3-D share the shape).
#[derive(Clone, Debug, Default)]
pub struct LabelState {
    /// The node's own current status.
    pub status: NodeStatus,
    /// What the node believes about each neighbor, keyed by direction
    /// index: `(blocks_forward, blocks_backward)`.
    pub nbr_blocks: [(bool, bool); 6],
    /// Whether the node has announced its current status.
    pub(crate) announced: (bool, bool),
}

/// Announcement message: the sender's `(blocks_forward, blocks_backward)`.
pub type LabelMsg = (bool, bool);

/// Result of running the distributed labelling on one 2-D orientation.
pub struct DistLabelling2 {
    /// The converged network (canonical coordinates).
    pub net: SimNet<Grid2, LabelState, LabelMsg>,
    /// Rounds/messages of the labelling run.
    pub stats: RunStats,
    frame: Frame2,
}

/// Result of running the distributed labelling on one 3-D orientation.
pub struct DistLabelling3 {
    /// The converged network (canonical coordinates).
    pub net: SimNet<Grid3, LabelState, LabelMsg>,
    /// Rounds/messages of the labelling run.
    pub stats: RunStats,
    frame: Frame3,
}

impl DistLabelling2 {
    /// Run the protocol for `mesh` under `frame`.
    pub fn run(mesh: &Mesh2D, frame: Frame2) -> DistLabelling2 {
        let topo = Grid2::from_space(mesh.space());
        let space = topo.space();
        let mut net: SimNet<Grid2, LabelState, LabelMsg> =
            SimNet::new(topo, |_| LabelState::default());
        for &f in mesh.faults() {
            net.state_at_mut(frame.to_canon(f)).status = NodeStatus::FAULT;
        }
        let max_rounds = (mesh.width() + mesh.height()) as usize * 4 + 8;
        let w = mesh.width() as usize;
        let wrap = space.wraps();
        let stats = net.run(max_rounds, move |state, inbox, ctx| {
            let me = ctx.me();
            // Absorb announcements: the sender is a neighbor (engine
            // invariant). On a mesh its direction is exactly its index
            // offset (+1/-1 along x, +w/-w along y) — no coordinate math;
            // the y-stride is tested first: in a width-1 mesh +1 == +w,
            // and the only neighbors that exist there are y-steps. On a
            // torus wrap links break the offset rule; the four wrapped
            // neighbor indices are decoded once per dispatch (not per
            // message) and matched against (k ≥ 3 per axis keeps them
            // distinct).
            let wrapped = wrap.then(|| Dir2::ALL.map(|d| space.step(me, d)));
            for &(from, blocks) in inbox {
                let from = from as usize;
                let dir = if let Some(nbrs) = &wrapped {
                    let k = nbrs
                        .iter()
                        .position(|&n| n == Some(from))
                        .expect("sender is a neighbor");
                    Dir2::ALL[k]
                } else if from == me + w {
                    Dir2::Yp
                } else if from + w == me {
                    Dir2::Ym
                } else if from == me + 1 {
                    Dir2::Xp
                } else {
                    Dir2::Xm
                };
                state.nbr_blocks[dir.index()] = blocks;
            }
            // Re-evaluate rules (out-of-mesh counts as safe: BorderSafe).
            use Dir2::{Xm, Xp, Ym, Yp};
            let fwd_blocked = |s: &LabelState, d: Dir2| s.nbr_blocks[d.index()].0;
            let bwd_blocked = |s: &LabelState, d: Dir2| s.nbr_blocks[d.index()].1;
            if !state.status.blocks_forward()
                && !state.status.is_faulty()
                && fwd_blocked(state, Xp)
                && fwd_blocked(state, Yp)
            {
                state.status.mark_useless();
            }
            if !state.status.blocks_backward()
                && !state.status.is_faulty()
                && bwd_blocked(state, Xm)
                && bwd_blocked(state, Ym)
            {
                state.status.mark_cant_reach();
            }
            // Announce changes (round 0 announces the initial status).
            let now = (
                state.status.blocks_forward(),
                state.status.blocks_backward(),
            );
            if state.announced != (now.0, now.1) || ctx.round == 0 {
                state.announced = now;
                space.for_neighbors4(me, |n| ctx.send(n, now));
            }
        });
        DistLabelling2 { net, stats, frame }
    }

    /// Status of the node at canonical `c`.
    pub fn status(&self, c: C2) -> NodeStatus {
        self.net.state_at(c).status
    }

    /// The frame the protocol ran under.
    pub fn frame(&self) -> Frame2 {
        self.frame
    }

    /// True if the converged labels equal the centralized closure.
    pub fn matches(&self, reference: &Labelling2) -> bool {
        self.net
            .iter_coords()
            .all(|(c, s)| s.status == reference.status(c))
    }
}

impl DistLabelling3 {
    /// Run the protocol for `mesh` under `frame`.
    pub fn run(mesh: &Mesh3D, frame: Frame3) -> DistLabelling3 {
        let topo = Grid3::from_space(mesh.space());
        let space = topo.space();
        let mut net: SimNet<Grid3, LabelState, LabelMsg> =
            SimNet::new(topo, |_| LabelState::default());
        for &f in mesh.faults() {
            net.state_at_mut(frame.to_canon(f)).status = NodeStatus::FAULT;
        }
        let max_rounds = (mesh.nx() + mesh.ny() + mesh.nz()) as usize * 4 + 8;
        let nx = mesh.nx() as usize;
        let nxy = nx * mesh.ny() as usize;
        let wrap = space.wraps();
        let stats = net.run(max_rounds, move |state, inbox, ctx| {
            let me = ctx.me();
            // Sender direction from the index offset, as in 2-D: larger
            // strides first, so dimension-1 meshes (where +1 == +nx or
            // +nx == +nx·ny) resolve to the only step that exists there.
            // Torus wrap links break the offset rule; the six wrapped
            // neighbor indices are decoded once per dispatch and matched
            // against (see the 2-D decode).
            let wrapped = wrap.then(|| Dir3::ALL.map(|d| space.step(me, d)));
            for &(from, blocks) in inbox {
                let from = from as usize;
                let dir = if let Some(nbrs) = &wrapped {
                    let k = nbrs
                        .iter()
                        .position(|&n| n == Some(from))
                        .expect("sender is a neighbor");
                    Dir3::ALL[k]
                } else if from == me + nxy {
                    Dir3::Zp
                } else if from + nxy == me {
                    Dir3::Zm
                } else if from == me + nx {
                    Dir3::Yp
                } else if from + nx == me {
                    Dir3::Ym
                } else if from == me + 1 {
                    Dir3::Xp
                } else {
                    Dir3::Xm
                };
                state.nbr_blocks[dir.index()] = blocks;
            }
            use Dir3::{Xm, Xp, Ym, Yp, Zm, Zp};
            let fwd = |s: &LabelState, d: Dir3| s.nbr_blocks[d.index()].0;
            let bwd = |s: &LabelState, d: Dir3| s.nbr_blocks[d.index()].1;
            if !state.status.blocks_forward()
                && !state.status.is_faulty()
                && fwd(state, Xp)
                && fwd(state, Yp)
                && fwd(state, Zp)
            {
                state.status.mark_useless();
            }
            if !state.status.blocks_backward()
                && !state.status.is_faulty()
                && bwd(state, Xm)
                && bwd(state, Ym)
                && bwd(state, Zm)
            {
                state.status.mark_cant_reach();
            }
            let now = (
                state.status.blocks_forward(),
                state.status.blocks_backward(),
            );
            if state.announced != (now.0, now.1) || ctx.round == 0 {
                state.announced = now;
                space.for_neighbors6(me, |n| ctx.send(n, now));
            }
        });
        DistLabelling3 { net, stats, frame }
    }

    /// Status of the node at canonical `c`.
    pub fn status(&self, c: C3) -> NodeStatus {
        self.net.state_at(c).status
    }

    /// The frame the protocol ran under.
    pub fn frame(&self) -> Frame3 {
        self.frame
    }

    /// True if the converged labels equal the centralized closure.
    pub fn matches(&self, reference: &Labelling3) -> bool {
        self.net
            .iter_coords()
            .all(|(c, s)| s.status == reference.status(c))
    }
}

/// Convenience: run and validate against the centralized 2-D closure.
pub fn labelled_net_2d(mesh: &Mesh2D, frame: Frame2) -> DistLabelling2 {
    let dist = DistLabelling2::run(mesh, frame);
    debug_assert!(dist.matches(&Labelling2::compute(mesh, frame, BorderPolicy::BorderSafe)));
    dist
}

/// Convenience: run and validate against the centralized 3-D closure.
pub fn labelled_net_3d(mesh: &Mesh3D, frame: Frame3) -> DistLabelling3 {
    let dist = DistLabelling3::run(mesh, frame);
    debug_assert!(dist.matches(&Labelling3::compute(mesh, frame, BorderPolicy::BorderSafe)));
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_model::{BorderPolicy, FaultRegime};
    use mesh_topo::coord::{c2, c3};

    #[test]
    fn converges_to_centralized_fixpoint_2d() {
        for seed in 0..12u64 {
            let mut mesh = Mesh2D::new(14, 14);
            FaultRegime::Uniform.inject(&mut mesh, 16, seed, &[], BorderPolicy::BorderSafe);
            for frame in Frame2::all(&mesh) {
                let reference = Labelling2::compute(&mesh, frame, BorderPolicy::BorderSafe);
                let dist = DistLabelling2::run(&mesh, frame);
                assert!(dist.stats.quiescent, "seed {seed}: did not converge");
                assert!(dist.matches(&reference), "seed {seed} frame {frame:?}");
            }
        }
    }

    #[test]
    fn converges_to_centralized_fixpoint_3d() {
        for seed in 0..6u64 {
            let mut mesh = Mesh3D::kary(8);
            FaultRegime::Uniform.inject(&mut mesh, 30, seed, &[], BorderPolicy::BorderSafe);
            let frame = Frame3::identity(&mesh);
            let reference = Labelling3::compute(&mesh, frame, BorderPolicy::BorderSafe);
            let dist = DistLabelling3::run(&mesh, frame);
            assert!(dist.stats.quiescent);
            assert!(dist.matches(&reference), "seed {seed}");
        }
    }

    #[test]
    fn torus_converges_to_centralized_fixpoint_2d() {
        // The wrap decode and the wrapped announcements must reproduce the
        // centralized torus closure for every reflection frame and for a
        // rotated pair frame.
        for seed in 0..8u64 {
            let mut mesh = Mesh2D::torus(11, 9);
            FaultRegime::Uniform.inject(&mut mesh, 14, seed, &[], BorderPolicy::BorderSafe);
            let mut frames = Frame2::all(&mesh).to_vec();
            frames.push(Frame2::for_pair(&mesh, c2(9, 7), c2(2, 1)));
            for frame in frames {
                let reference = Labelling2::compute(&mesh, frame, BorderPolicy::BorderSafe);
                let dist = DistLabelling2::run(&mesh, frame);
                assert!(dist.stats.quiescent, "seed {seed}: did not converge");
                assert!(dist.matches(&reference), "seed {seed} frame {frame:?}");
            }
        }
    }

    #[test]
    fn torus_converges_to_centralized_fixpoint_3d() {
        for seed in 0..4u64 {
            let mut mesh = Mesh3D::torus(5, 6, 4);
            FaultRegime::Uniform.inject(&mut mesh, 18, seed, &[], BorderPolicy::BorderSafe);
            for frame in [
                Frame3::identity(&mesh),
                Frame3::for_pair(&mesh, c3(4, 5, 3), c3(1, 1, 1)),
            ] {
                let reference = Labelling3::compute(&mesh, frame, BorderPolicy::BorderSafe);
                let dist = DistLabelling3::run(&mesh, frame);
                assert!(dist.stats.quiescent, "seed {seed}");
                assert!(dist.matches(&reference), "seed {seed} frame {frame:?}");
            }
        }
    }

    #[test]
    fn torus_seam_cascade_propagates() {
        // The same seam cascade the centralized closure pins: (7,2)
        // becomes useless only through its wrap link to (0,2).
        let mut torus = Mesh2D::torus(8, 5);
        for c in [c2(1, 2), c2(0, 3), c2(7, 3)] {
            torus.inject_fault(c);
        }
        let dist = DistLabelling2::run(&torus, Frame2::identity(&torus));
        assert!(dist.stats.quiescent);
        assert!(dist.status(c2(0, 2)).is_useless());
        assert!(dist.status(c2(7, 2)).is_useless(), "label must cross seam");
    }

    #[test]
    fn cascade_takes_proportional_rounds() {
        // A long antidiagonal cascade: labels must propagate step by step.
        let mut mesh = Mesh2D::new(20, 20);
        for x in 2..=17 {
            mesh.inject_fault(c2(x, 19 - x));
        }
        let dist = DistLabelling2::run(&mesh, Frame2::identity(&mesh));
        let reference =
            Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        assert!(dist.matches(&reference));
        // The useless cascade is long; convergence needs several rounds.
        assert!(dist.stats.rounds > 4, "rounds = {}", dist.stats.rounds);
    }

    #[test]
    fn fault_free_converges_fast() {
        let mesh = Mesh3D::kary(6);
        let dist = DistLabelling3::run(&mesh, Frame3::identity(&mesh));
        assert!(dist.stats.quiescent);
        // One announce round + one silent round.
        assert!(dist.stats.rounds <= 3, "rounds = {}", dist.stats.rounds);
        assert!(dist.status(c3(3, 3, 3)).is_safe());
    }

    #[test]
    fn message_count_scales_with_faults() {
        let mut sparse = Mesh2D::new(16, 16);
        FaultRegime::Uniform.inject(&mut sparse, 4, 1, &[], BorderPolicy::BorderSafe);
        let mut dense = Mesh2D::new(16, 16);
        FaultRegime::Uniform.inject(&mut dense, 60, 1, &[], BorderPolicy::BorderSafe);
        let a = DistLabelling2::run(&sparse, Frame2::identity(&sparse));
        let b = DistLabelling2::run(&dense, Frame2::identity(&dense));
        // Denser faults mean more label changes and hence more messages
        // beyond the fixed initial announcement.
        assert!(b.stats.messages >= a.stats.messages);
    }

    #[test]
    fn degenerate_meshes_attribute_directions_correctly() {
        // Width-1 mesh: the +1 index offset IS the y-step (+1 == +w); the
        // decode must land announcements in the Y slots, not the X slots.
        let mut line = Mesh2D::new(1, 5);
        line.inject_fault(c2(0, 3));
        let dist = DistLabelling2::run(&line, Frame2::identity(&line));
        let below = dist.net.state_at(c2(0, 2));
        assert_eq!(below.nbr_blocks[mesh_topo::Dir2::Yp.index()], (true, true));
        assert_eq!(
            below.nbr_blocks[mesh_topo::Dir2::Xp.index()],
            (false, false),
            "no x-neighbor exists in a width-1 mesh"
        );
        let reference =
            Labelling2::compute(&line, Frame2::identity(&line), BorderPolicy::BorderSafe);
        assert!(dist.matches(&reference));

        // 3-D with nx == 1 (+1 == +nx) and ny == 1 over nx > 1 (+nx ==
        // +nx·ny): both alias pairs must resolve to the real step.
        for (dims, fault, probe, dir) in [
            ((1, 4, 4), c3(0, 2, 1), c3(0, 1, 1), mesh_topo::Dir3::Yp),
            ((4, 1, 4), c3(2, 0, 2), c3(2, 0, 1), mesh_topo::Dir3::Zp),
        ] {
            let mut mesh = Mesh3D::new(dims.0, dims.1, dims.2);
            mesh.inject_fault(fault);
            let dist = DistLabelling3::run(&mesh, Frame3::identity(&mesh));
            let st = dist.net.state_at(probe);
            assert_eq!(st.nbr_blocks[dir.index()], (true, true), "dims {dims:?}");
            let reference =
                Labelling3::compute(&mesh, Frame3::identity(&mesh), BorderPolicy::BorderSafe);
            assert!(dist.matches(&reference), "dims {dims:?}");
        }
    }

    #[test]
    fn stats_match_reference_engine() {
        // The cost the pre-refactor hash-map engine reports for this mesh
        // (the engine itself lives in tests/reference; the full parity
        // suite against it is tests/parity.rs).
        let mut mesh = Mesh2D::new(12, 12);
        FaultRegime::Uniform.inject(&mut mesh, 14, 7, &[], BorderPolicy::BorderSafe);
        let frame = Frame2::identity(&mesh);
        let new = DistLabelling2::run(&mesh, frame);
        let reference = RunStats {
            rounds: 4,
            messages: 536,
            max_inflight: 528,
            quiescent: true,
        };
        assert_eq!(new.stats, reference);
        assert!(new.matches(&Labelling2::compute(&mesh, frame, BorderPolicy::BorderSafe)));
    }
}
