//! Distributed labelling — Algorithms 1 and 4 as message protocols.
//!
//! Initially a node knows only whether it itself is faulty. In round 0
//! every node announces its status to its neighbors; from then on a node
//! re-evaluates the useless / can't-reach rules whenever a neighbor's
//! announcement changes its view, announcing its own new labels in turn.
//! The protocol reaches the same fixpoint as the centralized closure
//! (validated by tests) in a number of rounds proportional to the longest
//! label-propagation chain, which can be far longer than the mesh
//! diameter; the round cap is therefore derived from the node count.
//!
//! The two algorithms differ only in the axis count, so [`DistLabelling`]
//! is written once over the node space; [`DistLabelling2`] and
//! [`DistLabelling3`] name it per dimension.
//!
//! The network runs in **canonical coordinates** (one instance per
//! quadrant/octant orientation), so the rules always look at the `+`/`-`
//! neighbors.
//!
//! Runs on the flat engine: nodes are linear indices of the mesh's
//! [`NodeSpace`](mesh_topo::NodeSpace), and once the label wavefront has
//! passed, converged nodes are never dispatched again (the engine's active
//! set), so convergence tails cost messages — not whole-mesh scans. The
//! pre-refactor implementation survives beside `tests/parity.rs` as the
//! oracle that pins this one stats-identical.

use fault_model::{Labelling, NodeStatus};
use mesh_topo::{Coord, Frame, Mesh, C2, C3};
use sim_net::{RunStats, SimNet};

/// Per-node protocol state (2-D and 3-D share the shape).
#[derive(Clone, Debug, Default)]
pub struct LabelState {
    /// The node's own current status.
    pub status: NodeStatus,
    /// What the node believes about each neighbor, keyed by direction
    /// index (`+X, -X, +Y, -Y[, +Z, -Z]`): `(blocks_forward,
    /// blocks_backward)`.
    pub nbr_blocks: [(bool, bool); 6],
    /// Whether the node has announced its current status.
    pub(crate) announced: (bool, bool),
}

/// Announcement message: the sender's `(blocks_forward, blocks_backward)`.
pub type LabelMsg = (bool, bool);

/// Result of running the distributed labelling on one orientation.
pub struct DistLabelling<C: Coord> {
    /// The converged network (canonical coordinates).
    pub net: SimNet<C, LabelState, LabelMsg>,
    /// Rounds/messages of the labelling run.
    pub stats: RunStats,
    frame: Frame<C>,
}

/// The distributed labelling of a 2-D mesh (Algorithm 1).
pub type DistLabelling2 = DistLabelling<C2>;

/// The distributed labelling of a 3-D mesh (Algorithm 4).
pub type DistLabelling3 = DistLabelling<C3>;

impl<C: Coord> DistLabelling<C> {
    /// Run the protocol for `mesh` under `frame`.
    ///
    /// # Panics
    /// If the run does not go quiet within its round cap (it always does:
    /// see the cap's derivation).
    pub fn run(mesh: &Mesh<C>, frame: Frame<C>) -> DistLabelling<C> {
        let space = mesh.space();
        let mut net: SimNet<C, LabelState, LabelMsg> =
            SimNet::new(space, |_| LabelState::default());
        for &f in mesh.faults() {
            net.state_at_mut(frame.to_canon(f)).status = NodeStatus::FAULT;
        }
        // Each node's two label flags flip at most once, and every round
        // after round 0 that sends anything flipped one; the run then needs
        // one round to absorb the last announcements and one silent round.
        let max_rounds = 2 * space.len() + 3;
        let ext = space.extents();
        let strides = [1, ext[0], ext[0] * ext[1]];
        let wrap = space.wraps();
        let stats = net.run(max_rounds, move |state, inbox, ctx| {
            let me = ctx.me();
            // Absorb announcements: the sender is a neighbor (engine
            // invariant). On a torus wrap links break the offset rule;
            // the wrapped neighbor indices are decoded once per dispatch
            // (not per message), in direction-index order, and matched
            // against (k ≥ 3 per axis keeps them distinct).
            let wrapped = wrap.then(|| {
                let (mut nbrs, mut k) = ([usize::MAX; 6], 0);
                space.for_axis_neighbors(me, |n| {
                    nbrs[k] = n;
                    k += 1;
                });
                nbrs
            });
            for &(from, blocks) in inbox {
                let from = from as usize;
                let slot = match &wrapped {
                    Some(nbrs) => nbrs
                        .iter()
                        .position(|&n| n == from)
                        .expect("sender is a neighbor"),
                    None => mesh_slot(me, from, &strides[..C::DIMS]),
                };
                state.nbr_blocks[slot] = blocks;
            }
            // Re-evaluate rules (out-of-mesh counts as safe: BorderSafe):
            // useless once every `+` neighbor blocks forward, can't-reach
            // once every `-` neighbor blocks backward.
            let nbrs = &state.nbr_blocks[..2 * C::DIMS];
            if !state.status.blocks_forward()
                && !state.status.is_faulty()
                && nbrs.iter().step_by(2).all(|b| b.0)
            {
                state.status.mark_useless();
            }
            if !state.status.blocks_backward()
                && !state.status.is_faulty()
                && nbrs.iter().skip(1).step_by(2).all(|b| b.1)
            {
                state.status.mark_cant_reach();
            }
            // Announce changes (round 0 announces the initial status).
            let now = (
                state.status.blocks_forward(),
                state.status.blocks_backward(),
            );
            if state.announced != now || ctx.round == 0 {
                state.announced = now;
                space.for_axis_neighbors(me, |n| ctx.send(n, now));
            }
        });
        assert!(
            stats.quiescent,
            "distributed labelling did not converge in {max_rounds} rounds"
        );
        DistLabelling { net, stats, frame }
    }

    /// Status of the node at canonical `c`.
    pub fn status(&self, c: C) -> NodeStatus {
        self.net.state_at(c).status
    }

    /// The frame the protocol ran under.
    pub fn frame(&self) -> Frame<C> {
        self.frame
    }

    /// True if the converged labels equal the centralized closure.
    pub fn matches(&self, reference: &Labelling<C>) -> bool {
        self.net
            .iter_coords()
            .all(|(c, s)| s.status == reference.status(c))
    }
}

/// The direction index of mesh neighbor `from` of `me`: its index offset
/// is `±stride` of its axis (no coordinate math). Larger strides are
/// tested first, so degenerate meshes (`+1 == +nx` when `nx == 1`, `+nx ==
/// +nx·ny` when `ny == 1`) resolve to the only step that exists there.
#[inline]
fn mesh_slot(me: usize, from: usize, strides: &[usize]) -> usize {
    for (axis, &stride) in strides.iter().enumerate().rev() {
        if from == me + stride {
            return 2 * axis;
        }
        if from + stride == me {
            return 2 * axis + 1;
        }
    }
    unreachable!("sender {from} is not a neighbor of {me}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_model::{BorderPolicy, FaultRegime, Labelling2, Labelling3};
    use mesh_topo::coord::{c2, c3};
    use mesh_topo::{Frame2, Frame3, Mesh2D, Mesh3D};

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
    fn long_helix_converges_past_the_old_round_cap() {
        // A torus "helix": odd rows are walls with one connector each,
        // even rows carry one fault just past the connector, and the last
        // odd row is solid. The useless label winds row by row through
        // the whole torus, so its chain is far longer than the mesh
        // diameter: a round cap of 4·(w + h) + 8 = 168 stops it early.
        let mut mesh = Mesh2D::torus(20, 20);
        for r in 0..10i32 {
            let s = (3 - 2 * r).rem_euclid(20);
            mesh.inject_fault(c2((s + 1) % 20, 2 * r));
            for x in 0..20 {
                if x != s || r == 9 {
                    mesh.inject_fault(c2(x, 2 * r + 1));
                }
            }
        }
        let frame = Frame2::identity(&mesh);
        let dist = DistLabelling2::run(&mesh, frame);
        assert!(dist.stats.rounds > 168, "rounds = {}", dist.stats.rounds);
        assert!(dist.matches(&Labelling2::compute(&mesh, frame, BorderPolicy::BorderSafe)));
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
            rounds: 3,
            messages: 528,
            max_inflight: 528,
            quiescent: true,
        };
        assert_eq!(new.stats, reference);
        assert!(new.matches(&Labelling2::compute(&mesh, frame, BorderPolicy::BorderSafe)));
    }
}
