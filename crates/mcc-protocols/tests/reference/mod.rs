//! Pre-refactor distributed labelling on the hash-addressed engine.
//!
//! This is the labelling protocol exactly as it ran before the flat-engine
//! rework, on [`hash_net::HashSimNet`]: coordinate-keyed nodes, boxed
//! neighbor closure, per-node inbox `Vec`s, every node stepping every
//! round. The parity tests (`parity.rs`) use it to pin that the flat engine
//! changed cost accounting by zero — identical [`RunStats`] on fixed seeds
//! — and that the converged labels agree node for node.
//!
//! Keep this module byte-faithful to the old protocol logic; it is a test
//! oracle, not a surface for new features.

pub mod hash_net;

use fault_model::{Labelling2, Labelling3, NodeStatus};
use mcc_protocols::labelling::LabelMsg;
use mesh_topo::{Frame2, Frame3, Mesh2D, Mesh3D, C2, C3};
use sim_net::RunStats;

use hash_net::HashSimNet;

/// Per-node protocol state, the shape of
/// `mcc_protocols::labelling::LabelState`. The oracle keeps its own copy
/// because the library's `announced` field is private to its crate.
#[derive(Clone, Debug, Default)]
pub struct LabelState {
    /// The node's own current status.
    pub status: NodeStatus,
    /// What the node believes about each neighbor, keyed by direction
    /// index: `(blocks_forward, blocks_backward)`.
    pub nbr_blocks: [(bool, bool); 6],
    /// Whether the node has announced its current status.
    announced: (bool, bool),
}

/// Pre-refactor [`mcc_protocols::DistLabelling2`]: same protocol, hash engine.
pub struct RefDistLabelling2 {
    /// The converged network (canonical coordinates).
    pub net: HashSimNet<C2, LabelState, LabelMsg>,
    /// Rounds/messages of the labelling run.
    pub stats: RunStats,
}

/// Pre-refactor [`mcc_protocols::DistLabelling3`]: same protocol, hash engine.
pub struct RefDistLabelling3 {
    /// The converged network (canonical coordinates).
    pub net: HashSimNet<C3, LabelState, LabelMsg>,
    /// Rounds/messages of the labelling run.
    pub stats: RunStats,
}

impl RefDistLabelling2 {
    /// Run the protocol for `mesh` under `frame`.
    pub fn run(mesh: &Mesh2D, frame: Frame2) -> RefDistLabelling2 {
        let (w, h) = (mesh.width(), mesh.height());
        let mut net: HashSimNet<C2, LabelState, LabelMsg> = HashSimNet::new(
            mesh.nodes(), // canonical coords = same set
            |_| LabelState::default(),
            move |a: C2, b: C2| {
                a.dist(b) == 1
                    && a.x >= 0
                    && a.y >= 0
                    && b.x >= 0
                    && b.y >= 0
                    && a.x < w
                    && a.y < h
                    && b.x < w
                    && b.y < h
            },
        );
        for &f in mesh.faults() {
            net.state_mut(frame.to_canon(f)).status = NodeStatus::FAULT;
        }
        let max_rounds = (w + h) as usize * 4 + 8;
        let stats = net.run(max_rounds, |state, inbox, ctx| {
            let me = ctx.me();
            // Absorb announcements.
            for &(from, blocks) in inbox {
                if let Some(dir) = me.dir_to(from) {
                    state.nbr_blocks[dir.index()] = blocks;
                }
            }
            // Re-evaluate rules (out-of-mesh counts as safe: BorderSafe).
            use mesh_topo::Dir2::{Xm, Xp, Ym, Yp};
            let fwd_blocked = |s: &LabelState, d: mesh_topo::Dir2| s.nbr_blocks[d.index()].0;
            let bwd_blocked = |s: &LabelState, d: mesh_topo::Dir2| s.nbr_blocks[d.index()].1;
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
                for dir in mesh_topo::Dir2::ALL {
                    let n = me.step(dir);
                    if n.x >= 0 && n.y >= 0 && n.x < w && n.y < h {
                        ctx.send(n, now);
                    }
                }
            }
        });
        RefDistLabelling2 { net, stats }
    }

    /// True if the converged labels equal the centralized closure.
    pub fn matches(&self, reference: &Labelling2) -> bool {
        self.net
            .iter()
            .all(|(c, s)| s.status == reference.status(c))
    }
}

impl RefDistLabelling3 {
    /// Run the protocol for `mesh` under `frame`.
    pub fn run(mesh: &Mesh3D, frame: Frame3) -> RefDistLabelling3 {
        let (nx, ny, nz) = (mesh.nx(), mesh.ny(), mesh.nz());
        let inside =
            move |c: C3| c.x >= 0 && c.y >= 0 && c.z >= 0 && c.x < nx && c.y < ny && c.z < nz;
        let mut net: HashSimNet<C3, LabelState, LabelMsg> = HashSimNet::new(
            mesh.nodes(),
            |_| LabelState::default(),
            move |a: C3, b: C3| a.dist(b) == 1 && inside(a) && inside(b),
        );
        for &f in mesh.faults() {
            net.state_mut(frame.to_canon(f)).status = NodeStatus::FAULT;
        }
        let max_rounds = (nx + ny + nz) as usize * 4 + 8;
        let stats = net.run(max_rounds, move |state, inbox, ctx| {
            let me = ctx.me();
            for &(from, blocks) in inbox {
                if let Some(dir) = me.dir_to(from) {
                    state.nbr_blocks[dir.index()] = blocks;
                }
            }
            use mesh_topo::Dir3::{Xm, Xp, Ym, Yp, Zm, Zp};
            let fwd = |s: &LabelState, d: mesh_topo::Dir3| s.nbr_blocks[d.index()].0;
            let bwd = |s: &LabelState, d: mesh_topo::Dir3| s.nbr_blocks[d.index()].1;
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
                for dir in mesh_topo::Dir3::ALL {
                    let n = me.step(dir);
                    if inside(n) {
                        ctx.send(n, now);
                    }
                }
            }
        });
        RefDistLabelling3 { net, stats }
    }

    /// True if the converged labels equal the centralized closure.
    pub fn matches(&self, reference: &Labelling3) -> bool {
        self.net
            .iter()
            .all(|(c, s)| s.status == reference.status(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_model::BorderPolicy;
    use mesh_topo::FaultSpec;

    #[test]
    fn reference_still_converges_to_the_fixpoint() {
        let mut mesh = Mesh2D::new(12, 12);
        FaultSpec::uniform(14, 3).inject_2d(&mut mesh, &[]);
        let frame = Frame2::identity(&mesh);
        let reference = Labelling2::compute(&mesh, frame, BorderPolicy::BorderSafe);
        let dist = RefDistLabelling2::run(&mesh, frame);
        assert!(dist.stats.quiescent);
        assert!(dist.matches(&reference));

        let mut mesh3 = Mesh3D::kary(6);
        FaultSpec::uniform(16, 3).inject_3d(&mut mesh3, &[]);
        let frame3 = Frame3::identity(&mesh3);
        let reference3 = Labelling3::compute(&mesh3, frame3, BorderPolicy::BorderSafe);
        let dist3 = RefDistLabelling3::run(&mesh3, frame3);
        assert!(dist3.stats.quiescent);
        assert!(dist3.matches(&reference3));
    }
}
