//! Orientation-keyed model caches for one fault configuration.
//!
//! A routing trial reads two models, each a pure function of the mesh's
//! fault set plus, for the labelling, one of the finitely many canonical
//! frame orientations (4 quadrants in 2-D, 8 octants in 3-D; see
//! [`mesh_topo::Frame2`]):
//!
//! * [`FaultBlocks2`](crate::FaultBlocks2) /
//!   [`FaultBlocks3`](crate::FaultBlocks3) — orientation-free, one per mesh,
//! * [`Labelling2`](crate::Labelling2) / [`Labelling3`](crate::Labelling3) —
//!   one per orientation.
//!
//! No trial step reads the MCC records ([`MccSet`](crate::MccSet)): the
//! existence conditions and the exact routers use the labelling's unsafe
//! closure. Their readers — region statistics, the protocols and
//! [`IncrementalModels`](crate::IncrementalModels) — call
//! [`MccSet::compute`](crate::MccSet::compute) on their own.
//!
//! A [`ModelCache`] ([`ModelCache2`] / [`ModelCache3`]) therefore memoizes
//! each model the first time an orientation asks for it and hands out
//! borrows afterwards, so a sweep that evaluates many source/destination
//! pairs against the same fault set pays for model construction at most
//! `1 + 4` (2-D) or `1 + 8` (3-D) times instead of once per pair. This is
//! the compute layer behind `mcc_routing`'s prepared-trial path (DESIGN.md
//! §9).
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
//! let m = cache.models(frame);
//! assert!(m.lab.is_safe(frame.to_canon(c2(0, 0))));
//! assert!(m.blocks.is_disabled(c2(4, 4)));
//! ```

use mesh_topo::{Coord, Frame, Mesh, C2, C3};

use crate::labelling::Labelling;
use crate::rfb::FaultBlocks;
use crate::status::BorderPolicy;

/// Borrowed views of every model a trial needs, fetched (and lazily
/// computed) in one call so the borrows coexist.
#[derive(Debug)]
pub struct ModelsRef<'a, C: Coord> {
    /// The labelling of the requested orientation.
    pub lab: &'a Labelling<C>,
    /// The orientation-free block model.
    pub blocks: &'a FaultBlocks<C>,
}

/// Borrowed views of the 2-D models (rectangular blocks).
pub type ModelsRef2<'a> = ModelsRef<'a, C2>;

/// Borrowed views of the 3-D models (cuboid blocks).
pub type ModelsRef3<'a> = ModelsRef<'a, C3>;

/// Lazy per-orientation model cache over one fault configuration.
#[derive(Clone, Debug)]
pub struct ModelCache<'m, C: Coord> {
    mesh: &'m Mesh<C>,
    border: BorderPolicy,
    blocks: Option<FaultBlocks<C>>,
    slots: Vec<Option<Labelling<C>>>,
}

/// The model cache over a 2-D mesh (4 quadrant slots).
pub type ModelCache2<'m> = ModelCache<'m, C2>;

/// The model cache over a 3-D mesh (8 octant slots).
pub type ModelCache3<'m> = ModelCache<'m, C3>;

impl<'m, C: Coord> ModelCache<'m, C> {
    /// An empty cache for `mesh`; nothing is computed until requested.
    pub fn new(mesh: &'m Mesh<C>, border: BorderPolicy) -> ModelCache<'m, C> {
        ModelCache {
            mesh,
            border,
            blocks: None,
            slots: (0..C::ORIENTATIONS).map(|_| None).collect(),
        }
    }

    /// The mesh this cache describes.
    pub fn mesh(&self) -> &'m Mesh<C> {
        self.mesh
    }

    /// Fetch the models for `frame`'s orientation, computing whatever this
    /// cache has not seen yet: the labelling on first use of the
    /// orientation, the block model on first use of any orientation.
    ///
    /// Slots are keyed by the frame's reflection index but guarded by
    /// **full-frame** equality: on a torus, frames with the same
    /// reflection carry pair-specific rotations, so a slot holding a
    /// different frame is recomputed rather than wrongly reused. Mesh
    /// frames are unique per index, so mesh behavior (and its
    /// ≤ `1 + ORIENTATIONS` compute bound) is unchanged.
    pub fn models(&mut self, frame: Frame<C>) -> ModelsRef<'_, C> {
        let idx = frame.index();
        let slot = &mut self.slots[idx];
        if !matches!(slot, Some(lab) if lab.frame() == frame) {
            *slot = Some(Labelling::compute(self.mesh, frame, self.border));
        }
        ModelsRef {
            lab: self.slots[idx].as_ref().expect("just filled"),
            blocks: self
                .blocks
                .get_or_insert_with(|| FaultBlocks::compute(self.mesh)),
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
    use crate::{FaultBlocks2, FaultBlocks3, Labelling2};
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
            let m = cache.models(frame);
            for c in mesh.nodes() {
                let cc = frame.to_canon(c);
                assert_eq!(m.lab.status(cc), fresh_lab.status(cc), "{frame:?} {c}");
            }
            assert_eq!(
                m.blocks.sacrificed_count(),
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
            let m = cache.models(frame);
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
        let blocks: *const FaultBlocks3 = cache.models(frame).blocks;
        assert_eq!(cache.orientations_computed(), 1);
        // Asking again reuses the same slot and the same block model.
        let again: *const FaultBlocks3 = cache.models(frame).blocks;
        assert_eq!(cache.orientations_computed(), 1);
        assert!(std::ptr::eq(blocks, again));
    }
}
