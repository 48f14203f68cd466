//! Orientation-keyed model caches for one fault configuration.
//!
//! Everything a routing trial consumes is a pure function of the mesh's
//! fault set plus, for the labelling family, one of the finitely many
//! canonical frame orientations (4 quadrants in 2-D, 8 octants in 3-D;
//! see [`mesh_topo::Frame2`]):
//!
//! * [`FaultBlocks2`](crate::FaultBlocks2) /
//!   [`FaultBlocks3`](crate::FaultBlocks3) — orientation-free, one per mesh,
//! * [`Labelling2`](crate::Labelling2) / [`Labelling3`](crate::Labelling3) —
//!   one per orientation,
//! * [`MccSet2`] / [`MccSet3`] — derived from the labelling, one per
//!   orientation.
//!
//! A [`ModelCache`] ([`ModelCache2`] / [`ModelCache3`]) therefore memoizes each model the
//! first time an orientation asks for it and hands out borrows afterwards,
//! so a sweep that evaluates many source/destination pairs against the
//! same fault set pays for model construction at most `1 + 4` (2-D) or
//! `1 + 8` (3-D) times instead of once per pair. This is the compute layer
//! behind `mcc_routing`'s prepared-trial path (DESIGN.md §9). The cache is
//! written once over the node space; it reaches the per-dimension MCC
//! model through [`ModelSpace`].
//!
//! # Examples
//!
//! ```
//! use fault_model::models::ModelCache2;
//! use fault_model::BorderPolicy;
//! use mesh_topo::coord::c2;
//! use mesh_topo::{Frame2, Mesh2D};
//!
//! let mut mesh = Mesh2D::new(8, 8);
//! mesh.inject_fault(c2(4, 4));
//! let mut cache = ModelCache2::new(&mesh, BorderPolicy::BorderSafe);
//!
//! let frame = Frame2::for_pair(&mesh, c2(7, 0), c2(0, 7)); // flipped X
//! let m = cache.models(frame, true, true);
//! assert!(m.lab.is_safe(frame.to_canon(c2(0, 0))));
//! assert_eq!(m.mccs.expect("requested").len(), 1);
//! assert!(m.blocks.expect("requested").is_disabled(c2(4, 4)));
//! ```

use mesh_topo::{Mesh, NodeSpace2, NodeSpace3, Space};

use crate::components::{Components, Splice};
use crate::labelling::Labelling;
use crate::mcc2::{Mcc2, MccSet2};
use crate::mcc3::{Mcc3, MccSet3};
use crate::oracle;
use crate::rfb::FaultBlocks;
use crate::status::BorderPolicy;

/// The per-dimension model the caches hold beside the generic labelling,
/// components and block model: the MCC shapes (2-D profiles vs 3-D
/// sections), plus the reachability oracle.
pub trait ModelSpace: Space {
    /// One MCC's shape.
    type Mcc: Clone + std::fmt::Debug;
    /// The MCC decomposition of a labelling.
    type Mccs: Clone + PartialEq + std::fmt::Debug;

    /// Extract every MCC of `lab`.
    fn mccs(lab: &Labelling<Self>) -> Self::Mccs;
    /// Extract the MCC of one component from its cells (in discovery
    /// order) and their statuses in `lab`.
    fn mcc_from_cells(cells: Vec<Self::Coord>, lab: &Labelling<Self>) -> Self::Mcc;
    /// The MCCs of a decomposition, indexed by component position.
    fn mcc_list(mccs: &mut Self::Mccs) -> &mut Vec<Self::Mcc>;
    /// The oracle ([`oracle::reachable_2d`] / [`oracle::reachable_3d`]):
    /// does a minimal path lead from canonical `s` to `d` around the
    /// `blocked` nodes?
    fn reachable(s: Self::Coord, d: Self::Coord, blocked: impl Fn(Self::Coord) -> bool) -> bool;
}

impl ModelSpace for NodeSpace2 {
    type Mcc = Mcc2;
    type Mccs = MccSet2;

    fn mccs(lab: &Labelling<Self>) -> MccSet2 {
        MccSet2::compute(lab)
    }
    fn mcc_from_cells(cells: Vec<Self::Coord>, lab: &Labelling<Self>) -> Mcc2 {
        Mcc2::from_cells(cells, lab)
    }
    fn mcc_list(mccs: &mut MccSet2) -> &mut Vec<Mcc2> {
        &mut mccs.mccs
    }
    fn reachable(s: Self::Coord, d: Self::Coord, blocked: impl Fn(Self::Coord) -> bool) -> bool {
        oracle::reachable_2d(s, d, blocked)
    }
}

impl ModelSpace for NodeSpace3 {
    type Mcc = Mcc3;
    type Mccs = MccSet3;

    fn mccs(lab: &Labelling<Self>) -> MccSet3 {
        MccSet3::compute(lab)
    }
    fn mcc_from_cells(cells: Vec<Self::Coord>, lab: &Labelling<Self>) -> Mcc3 {
        Mcc3::from_cells(cells, lab)
    }
    fn mcc_list(mccs: &mut MccSet3) -> &mut Vec<Mcc3> {
        &mut mccs.mccs
    }
    fn reachable(s: Self::Coord, d: Self::Coord, blocked: impl Fn(Self::Coord) -> bool) -> bool {
        oracle::reachable_3d(s, d, blocked)
    }
}

/// Repair the MCC shapes after a component repair: `comps` is the
/// repaired decomposition, `splice` what [`Components::repair`] returned,
/// and `changed` the dirty region it was given. The splice drops the MCCs
/// of removed components and extracts those of re-discovered ones in
/// place; a carried component holding **any** status-changed cell is
/// re-extracted too — a cell can flip useless→faulty without a membership
/// change, which moves the fault/sacrificed split even though the shape is
/// untouched. No other MCC is read or written, and the result is
/// bit-for-bit equal to `S::mccs(lab)` (DESIGN.md §12). Returns the
/// number of MCCs extracted.
pub(crate) fn repair_mccs<S: ModelSpace>(
    mccs: &mut S::Mccs,
    lab: &Labelling<S>,
    comps: &Components<S>,
    splice: &Splice,
    changed: &[usize],
) -> usize {
    let list = S::mcc_list(mccs);
    let extract = |p: usize| S::mcc_from_cells(comps.cells[p].clone(), lab);
    splice.apply(list, extract);
    let mut dirty: Vec<usize> = changed
        .iter()
        .filter_map(|&i| comps.position_at(i))
        .filter(|p| splice.inserted.binary_search(p).is_err())
        .collect();
    dirty.sort_unstable();
    dirty.dedup();
    for &p in &dirty {
        list[p] = extract(p);
    }
    splice.inserted.len() + dirty.len()
}

/// The models of one orientation: the labelling always, the MCC
/// decomposition only once something has requested it.
#[derive(Clone, Debug)]
struct Slot<S: ModelSpace> {
    lab: Labelling<S>,
    mccs: Option<S::Mccs>,
}

/// Borrowed views of every model a trial needs, fetched (and lazily
/// computed) in one call so the borrows coexist.
#[derive(Debug)]
pub struct ModelsRef<'a, S: ModelSpace> {
    /// The labelling of the requested orientation.
    pub lab: &'a Labelling<S>,
    /// The MCC decomposition of that labelling, if requested.
    pub mccs: Option<&'a S::Mccs>,
    /// The orientation-free block model, if requested.
    pub blocks: Option<&'a FaultBlocks<S>>,
}

/// Borrowed views of the 2-D models (rectangular blocks).
pub type ModelsRef2<'a> = ModelsRef<'a, NodeSpace2>;

/// Borrowed views of the 3-D models (cuboid blocks).
pub type ModelsRef3<'a> = ModelsRef<'a, NodeSpace3>;

/// Lazy per-orientation model cache over one fault configuration.
#[derive(Clone, Debug)]
pub struct ModelCache<'m, S: ModelSpace> {
    mesh: &'m Mesh<S>,
    border: BorderPolicy,
    blocks: Option<FaultBlocks<S>>,
    slots: Vec<Option<Slot<S>>>,
}

/// The model cache over a 2-D mesh (4 quadrant slots).
pub type ModelCache2<'m> = ModelCache<'m, NodeSpace2>;

/// The model cache over a 3-D mesh (8 octant slots).
pub type ModelCache3<'m> = ModelCache<'m, NodeSpace3>;

impl<'m, S: ModelSpace> ModelCache<'m, S> {
    /// An empty cache for `mesh`; nothing is computed until requested.
    pub fn new(mesh: &'m Mesh<S>, border: BorderPolicy) -> ModelCache<'m, S> {
        ModelCache {
            mesh,
            border,
            blocks: None,
            slots: (0..S::ORIENTATIONS).map(|_| None).collect(),
        }
    }

    /// The mesh this cache describes.
    pub fn mesh(&self) -> &'m Mesh<S> {
        self.mesh
    }

    /// Fetch the models for `frame`'s orientation, computing whatever this
    /// cache has not seen yet: the labelling on first use of the
    /// orientation, the MCC set on first use with `want_mccs`, the block
    /// model on first use with `want_blocks` (any orientation).
    ///
    /// Slots are keyed by the frame's reflection index but guarded by
    /// **full-frame** equality: on a torus, frames with the same
    /// reflection carry pair-specific rotations, so a slot holding a
    /// different frame is recomputed rather than wrongly reused. Mesh
    /// frames are unique per index, so mesh behavior (and its
    /// ≤ `1 + ORIENTATIONS` compute bound) is unchanged.
    pub fn models(
        &mut self,
        frame: S::Frame,
        want_mccs: bool,
        want_blocks: bool,
    ) -> ModelsRef<'_, S> {
        let idx = S::frame_index(frame);
        let stale = !matches!(&self.slots[idx], Some(slot) if slot.lab.frame() == frame);
        if stale {
            self.slots[idx] = Some(Slot {
                lab: Labelling::compute(self.mesh, frame, self.border),
                mccs: None,
            });
        }
        let slot = self.slots[idx].as_mut().expect("just filled");
        if want_mccs && slot.mccs.is_none() {
            slot.mccs = Some(S::mccs(&slot.lab));
        }
        if want_blocks && self.blocks.is_none() {
            self.blocks = Some(FaultBlocks::compute(self.mesh));
        }
        let slot = self.slots[idx].as_ref().expect("just filled");
        ModelsRef {
            lab: &slot.lab,
            mccs: if want_mccs { slot.mccs.as_ref() } else { None },
            blocks: if want_blocks {
                self.blocks.as_ref()
            } else {
                None
            },
        }
    }

    /// Number of orientations whose labelling has been computed.
    pub fn orientations_computed(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultBlocks2, Labelling2};
    use mesh_topo::coord::{c2, c3};
    use mesh_topo::{Frame2, Frame3, Mesh2D, Mesh3D};

    #[test]
    fn cache_matches_fresh_models_every_orientation() {
        let mut mesh = Mesh2D::new(10, 10);
        for c in [c2(3, 3), c2(4, 3), c2(7, 6)] {
            mesh.inject_fault(c);
        }
        let mut cache = ModelCache2::new(&mesh, BorderPolicy::BorderSafe);
        for frame in Frame2::all(&mesh) {
            let fresh_lab = Labelling2::compute(&mesh, frame, BorderPolicy::BorderSafe);
            let fresh_mccs = MccSet2::compute(&fresh_lab);
            let m = cache.models(frame, true, true);
            for c in mesh.nodes() {
                let cc = frame.to_canon(c);
                assert_eq!(m.lab.status(cc), fresh_lab.status(cc), "{frame:?} {c}");
            }
            assert_eq!(
                m.mccs.expect("requested").len(),
                fresh_mccs.len(),
                "{frame:?}"
            );
            assert_eq!(
                m.blocks.expect("requested").sacrificed_count(),
                FaultBlocks2::compute(&mesh).sacrificed_count()
            );
        }
        assert_eq!(cache.orientations_computed(), 4);
    }

    #[test]
    fn torus_rotations_never_alias_slots() {
        // On a torus every pair brings its own rotation; frames sharing a
        // reflection index must still be recomputed, never reused.
        let mut mesh = Mesh2D::torus(8, 6);
        for c in [c2(2, 2), c2(3, 2), c2(6, 4)] {
            mesh.inject_fault(c);
        }
        let mut cache = ModelCache2::new(&mesh, BorderPolicy::BorderSafe);
        for (s, d) in [
            (c2(0, 0), c2(3, 2)),
            (c2(1, 1), c2(4, 3)), // same reflection, different rotation
            (c2(5, 5), c2(1, 1)),
            (c2(0, 0), c2(3, 2)), // repeat: hits the cached slot again
        ] {
            let frame = Frame2::for_pair(&mesh, s, d);
            let m = cache.models(frame, true, true);
            assert_eq!(m.lab.frame(), frame, "slot must hold the asked frame");
            let fresh = Labelling2::compute(&mesh, frame, BorderPolicy::BorderSafe);
            for c in mesh.nodes() {
                let cc = frame.to_canon(c);
                assert_eq!(m.lab.status(cc), fresh.status(cc), "{s}->{d} at {c}");
            }
        }
    }

    #[test]
    fn cache_is_lazy_per_orientation_and_model() {
        let mut mesh = Mesh3D::kary(6);
        mesh.inject_fault(c3(3, 3, 3));
        let mut cache = ModelCache3::new(&mesh, BorderPolicy::BorderSafe);
        assert_eq!(cache.orientations_computed(), 0);
        let frame = Frame3::for_pair(&mesh, c3(0, 0, 0), c3(5, 5, 5));
        let m = cache.models(frame, false, false);
        assert!(m.mccs.is_none() && m.blocks.is_none());
        assert_eq!(cache.orientations_computed(), 1);
        // Asking again with more models fills them in on the same slot.
        let m = cache.models(frame, true, true);
        assert!(m.mccs.is_some() && m.blocks.is_some());
        assert_eq!(cache.orientations_computed(), 1);
    }
}
