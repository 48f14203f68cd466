//! The small-scope exhaustive battery of the model invariants.
//!
//! Every fault set of a small mesh or torus, up to a fault count, is
//! checked against the independent oracles:
//!
//! * the labelling kernel equals the hash reference on meshes and the
//!   wrapped worklist closure on tori, in every frame under both border
//!   policies, and its unsafe set equals its statuses;
//! * the MCC records of each of those labellings partition its unsafe set,
//!   each record's fault and sacrificed counts match the statuses of its
//!   cells, its `bounds` is the box of its cells, and on 2-D meshes every
//!   MCC is HV-convex; the records built from a kept decomposition
//!   (`MccSet::from_components`) equal `MccSet::compute`'s, position by
//!   position;
//! * the block kernel equals the reference closure of `reference/rfb.rs`:
//!   the disabled set, the block list (order included) and the sacrificed
//!   count;
//! * every node an MCC captures (border-safe, any frame) the block model
//!   captures too;
//! * the existence condition (Theorem 1 in 2-D, Theorem 2 in 3-D) agrees
//!   with the reachability oracle on every ordered pair of healthy nodes,
//!   through the pair's own frame.
//!
//! The sets run in the fixed order of [`fault_sets`], so the failure
//! reported is the first in that order: the fewest faults, then the lowest
//! node indices. `cargo test` runs a slice (3×4 and 3×3×3 with up to two
//! faults, the 3×3×3 torus with up to one); the full battery (every 4×4 set, every 3×3×3 set of up to
//! three faults, meshes and tori) is the ignored test, run in release:
//!
//! ```text
//! cargo test --release -p fault-model --test exhaustive -- --include-ignored
//! ```

mod fault_sets;
// The component references serve `properties.rs`.
#[allow(dead_code)]
mod reference;
#[path = "reference/rfb.rs"]
mod rfb_reference;

use fault_model::condition::evaluate;
use fault_model::oracle::Useful;
use fault_model::{BorderPolicy, Components, FaultBlocks, Labelling, Mcc, MccSet, NodeStatus};
use fault_sets::FaultSets;
use mesh_topo::{Coord, Frame, Mesh, Mesh2D, Mesh3D, NodeSet, C2, C3};
use rfb_reference::{RefBlocks2, RefBlocks3};

/// Fault sets per checked range.
const CHUNK: u64 = 256;

/// The per-dimension references.
trait Dim: Coord {
    fn mesh(extents: [i32; 3], torus: bool) -> Mesh<Self>;
    /// The hash reference's statuses on a mesh, by canonical index.
    fn hash(mesh: &Mesh<Self>, frame: Frame<Self>, policy: BorderPolicy) -> Vec<NodeStatus>;
    /// The reference block model: disabled set, blocks, sacrificed count.
    fn ref_blocks(mesh: &Mesh<Self>) -> (NodeSet, Vec<Self::Block>, usize);
    /// The dimension's structural theorem for one MCC of a mesh labelling:
    /// HV-convexity in 2-D, nothing in 3-D (sections may have holes).
    fn shape_holds(_: &Mcc<Self>) -> bool {
        true
    }
}

impl Dim for C2 {
    fn mesh(e: [i32; 3], torus: bool) -> Mesh2D {
        if torus {
            Mesh2D::torus(e[0], e[1])
        } else {
            Mesh2D::new(e[0], e[1])
        }
    }
    fn hash(mesh: &Mesh2D, frame: Frame<Self>, policy: BorderPolicy) -> Vec<NodeStatus> {
        let st = reference::HashLabelling2::compute(mesh, frame, policy).status;
        let space = mesh.space();
        (0..space.len()).map(|i| st[&space.coord(i)]).collect()
    }
    fn ref_blocks(mesh: &Mesh2D) -> (NodeSet, Vec<Self::Block>, usize) {
        let r = RefBlocks2::compute(mesh);
        (r.disabled, r.blocks, r.sacrificed)
    }
    fn shape_holds(m: &Mcc<Self>) -> bool {
        m.is_hv_convex()
    }
}

impl Dim for C3 {
    fn mesh(e: [i32; 3], torus: bool) -> Mesh3D {
        if torus {
            Mesh3D::torus(e[0], e[1], e[2])
        } else {
            Mesh3D::new(e[0], e[1], e[2])
        }
    }
    fn hash(mesh: &Mesh3D, frame: Frame<Self>, policy: BorderPolicy) -> Vec<NodeStatus> {
        let st = reference::HashLabelling3::compute(mesh, frame, policy).status;
        let space = mesh.space();
        (0..space.len()).map(|i| st[&space.coord(i)]).collect()
    }
    fn ref_blocks(mesh: &Mesh3D) -> (NodeSet, Vec<Self::Block>, usize) {
        let r = RefBlocks3::compute(mesh);
        (r.disabled, r.blocks, r.sacrificed)
    }
}

/// Check every invariant on `mesh`.
fn check<C: Dim>(mesh: &Mesh<C>) -> Result<(), String> {
    let space = mesh.space();
    // The labelling kernel against its oracles.
    for policy in [BorderPolicy::BorderSafe, BorderPolicy::BorderBlocked] {
        for frame in Frame::all(mesh) {
            let lab = Labelling::<C>::compute(mesh, frame, policy);
            let want = if mesh.wraps() {
                reference::worklist_closure(mesh, frame)
            } else {
                <C as Dim>::hash(mesh, frame, policy)
            };
            for (c, st) in lab.iter() {
                if st != want[space.index(c)] || lab.is_unsafe(c) != st.is_unsafe() {
                    return Err(format!(
                        "labelling ({policy:?}, {frame:?}) at {c}: {st:?}, want {:?}",
                        want[space.index(c)]
                    ));
                }
            }
            check_mccs(&lab, mesh.wraps())
                .map_err(|e| format!("MCC records ({policy:?}, {frame:?}): {e}"))?;
        }
    }

    // The block kernel against the reference closure.
    let blocks = FaultBlocks::compute(mesh);
    let (disabled, ref_blocks, sacrificed) = C::ref_blocks(mesh);
    if let Some(c) = mesh
        .nodes()
        .find(|&c| blocks.is_disabled(c) != disabled.contains(space.index(c)))
    {
        return Err(format!("block model: disabled set differs at {c}"));
    }
    if blocks.blocks() != ref_blocks || blocks.sacrificed_count() != sacrificed {
        return Err(format!(
            "block model: blocks {:?}, want {ref_blocks:?}",
            blocks.blocks()
        ));
    }

    // MCC capture within block capture, and the condition against the
    // oracle. The border-safe labelling of each frame a pair uses is
    // computed once.
    let mut models: Vec<(Frame<C>, Labelling<C>)> = Vec::new();
    for frame in Frame::all(mesh) {
        let i = model(&mut models, mesh, frame);
        let lab = &models[i].1;
        if let Some(c) = mesh
            .nodes()
            .find(|&c| lab.status_mesh(c).is_unsafe() && !blocks.is_disabled(c))
        {
            return Err(format!(
                "MCC ({frame:?}) captures {c}, the block model does not"
            ));
        }
    }
    let healthy: Vec<C> = mesh.nodes().filter(|&c| mesh.is_healthy(c)).collect();
    for &s in &healthy {
        for &d in &healthy {
            let frame = Frame::for_pair(mesh, s, d);
            let i = model(&mut models, mesh, frame);
            let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
            let claim = evaluate(&models[i].1, cs, cd, &mut Useful::scratch()).exists();
            let blocked = |c| mesh.is_faulty(frame.from_canon(c));
            let truth = Useful::<C>::compute(cs, cd, blocked).contains(cs);
            if claim != truth {
                return Err(format!("condition {s} -> {d}: {claim}, oracle {truth}"));
            }
        }
    }
    Ok(())
}

/// Check the MCC records of `lab` against its statuses. The records are
/// built from a kept decomposition, as the incremental models build them,
/// and must equal [`MccSet::compute`]'s, record `p` holding exactly the
/// cells of component `p`.
fn check_mccs<C: Dim>(lab: &Labelling<C>, wraps: bool) -> Result<(), String> {
    let space = lab.space();
    let comps = Components::compute(lab);
    let mccs = MccSet::from_components(&comps, lab);
    if mccs != MccSet::compute(lab) {
        return Err("from_components differs from compute".into());
    }
    let mut covered = NodeSet::new(space.len());
    for (p, m) in mccs.iter().enumerate() {
        if m.cells != comps.cells[p] {
            return Err(format!("MCC {p} does not hold the cells of component {p}"));
        }
        let (mut lo, mut hi) = (m.cells[0].xyz(), m.cells[0].xyz());
        let mut faults = 0;
        for &c in &m.cells {
            if !lab.is_unsafe(c) {
                return Err(format!("MCC {p} holds the safe node {c}"));
            }
            if !covered.insert(space.index(c)) {
                return Err(format!("{c} lies in two MCCs"));
            }
            faults += usize::from(lab.status(c).is_faulty());
            let q = c.xyz();
            for a in 0..3 {
                lo[a] = lo[a].min(q[a]);
                hi[a] = hi[a].max(q[a]);
            }
        }
        if (m.fault_count, m.sacrificed_count) != (faults, m.cells.len() - faults) {
            return Err(format!(
                "MCC {p} counts {} faulty / {} sacrificed, its cells {faults} / {}",
                m.fault_count,
                m.sacrificed_count,
                m.cells.len() - faults
            ));
        }
        let want = C::block(Coord::from_xyz(lo), Coord::from_xyz(hi));
        if m.bounds != want {
            return Err(format!(
                "MCC {p} bounds {:?}, its cells span {want:?}",
                m.bounds
            ));
        }
        if !wraps && !C::shape_holds(m) {
            return Err(format!("MCC {p} breaks the shape theorem: {:?}", m.cells));
        }
    }
    if covered != *lab.unsafe_set() {
        return Err("the MCCs do not cover the unsafe set".into());
    }
    Ok(())
}

/// The position in `models` of the border-safe labelling of `mesh` under
/// `frame`, computed on first use.
fn model<C: Dim>(
    models: &mut Vec<(Frame<C>, Labelling<C>)>,
    mesh: &Mesh<C>,
    frame: Frame<C>,
) -> usize {
    if let Some(i) = models.iter().position(|m| m.0 == frame) {
        return i;
    }
    let lab = Labelling::<C>::compute(mesh, frame, BorderPolicy::BorderSafe);
    models.push((frame, lab));
    models.len() - 1
}

/// Check every set of at most `max` faults on the mesh (or torus) of
/// `extents`; panic with the first failure.
fn exhaust<C: Dim + Sync>(extents: [i32; 3], torus: bool, max: usize) -> u64 {
    let clean = C::mesh(extents, torus);
    let space = clean.space();
    let sets = FaultSets::new(space.len(), max);
    let failure = sets.first_failure(CHUNK, |faults| {
        let mut mesh = clean.clone();
        for &i in faults {
            mesh.inject_fault(space.coord(i));
        }
        check(&mesh)
    });
    if let Some(f) = failure {
        let faults: Vec<C> = f.faults.iter().map(|&i| space.coord(i)).collect();
        panic!(
            "{extents:?} (torus: {torus}), set {} with faults {faults:?}: {}",
            f.index, f.message
        );
    }
    sets.len()
}

#[test]
fn model_invariants_hold_on_every_small_fault_set_slice() {
    for torus in [false, true] {
        assert_eq!(exhaust::<C2>([3, 4, 1], torus, 2), 1 + 12 + 66);
    }
    assert_eq!(exhaust::<C3>([3, 3, 3], false, 2), 1 + 27 + 351);
    assert_eq!(exhaust::<C3>([3, 3, 3], true, 1), 1 + 27);
}

#[test]
#[ignore = "the full battery; run in release with --include-ignored"]
fn model_invariants_hold_on_every_small_fault_set_full() {
    for torus in [false, true] {
        assert_eq!(exhaust::<C2>([4, 4, 1], torus, 16), 1 << 16);
        assert_eq!(exhaust::<C3>([3, 3, 3], torus, 3), 1 + 27 + 351 + 2925);
    }
}
