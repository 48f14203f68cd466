//! Incrementally maintained models under fault churn.
//!
//! [`IncrementalModels`] ([`IncrementalModels2`] / [`IncrementalModels3`])
//! is the workspace's one model cache. It **owns** its mesh and keeps the
//! models of each orientation alive across batched fault injections and
//! heals; a batch of routing trials over one frozen fault configuration
//! (`mcc_routing::PreparedMesh`) is the case with no churn at all:
//!
//! * the labelling of each orientation is patched in place by
//!   [`Labelling::repair`] (dirty-region worklist or bulk re-sweep) on the
//!   first [`labelling`] or [`models`] call after churn,
//! * the component decomposition by [`Components::repair`], once per
//!   [`models`] call over the statuses changed since the previous one:
//!   only the components a flip touched are re-discovered, and they are
//!   spliced into the component list at their sorted position
//!   ([`Splice`](crate::Splice)) while every other component keeps its
//!   cells and its stable internal handle,
//! * the MCC records by the same splice on the MCC list, in the same
//!   [`models`] call: only re-discovered or status-touched components are
//!   re-extracted, every other MCC is left in place,
//! * the orientation-free block model is dropped by every batch and
//!   recomputed lazily — it is cheap relative to the labelling family and
//!   has no per-orientation structure to exploit.
//!
//! Validation is one routine, [`CheckedBatch::new`], over a node space and
//! a fault bitset: it costs O(b log b) in the batch's b nodes, with no
//! mesh-sized scratch, and its checked batch carries the sorted indices
//! [`apply_checked`] flips. [`check`], [`try_apply`] and a journal fold
//! (which flips a bare bitset through [`CheckedBatch::flip`] and builds
//! the models once at the end) all go through it, so a write-ahead caller
//! that checks, journals, then applies validates each batch once.
//!
//! Synchronization is **per orientation slot and lazy**. A labelling is a
//! function of the fault set alone, not of the order of the churn that
//! produced it, so a lagging slot needs only the net difference between
//! its fault set and the mesh's. [`apply`] flips the fault bits and marks
//! the batch's nodes in each live slot's stale [`NodeSet`] (allocated by
//! the first batch that reaches the slot). The next [`labelling`] or
//! [`models`] call for that orientation takes the stale nodes whose fault
//! bit differs between the mesh and the slot's labelling and repairs them
//! as one batch: a node injected and healed in between repairs nothing,
//! and the repair touches only the perturbation's closure cone. However
//! long the lag, a slot costs one bit per node, and once its net
//! difference reaches `nodes /` [`BULK_REPAIR_FANOUT`] the repair
//! re-sweeps the grid, so a sync never costs much more than a rebuild.
//!
//! Each slot holds two layers. The **labelling layer** is synced on every
//! call; a router, which reads only the safe/unsafe labelling (Algorithms
//! 3 and 6), calls [`labelling`] and pays for nothing else. The **region
//! layer** — components and MCC records — is built on the slot's first
//! [`models`] call and repaired only by later [`models`] calls; between
//! them every labelling sync adds its changed statuses to the slot's
//! pending [`NodeSet`], so the pending memory is also bounded by the node
//! count however long the region layer lags. A region repair costs
//! O(changed statuses + affected components + log #components), plus
//! moving the component and MCC lists' entries behind the first changed
//! position. [`statuses_repaired`], [`mccs_extracted`], [`slot_rebuilds`]
//! and [`region_builds`] count that work deterministically.
//!
//! Every repaired model is **bit-for-bit equal** to recomputing from
//! scratch on the churned mesh — statuses, unsafe sets, component ids and
//! cell order, MCC records, and therefore every routing decision made on
//! top. The equivalence battery in `tests/churn_equiv.rs` pins this after
//! every step of random inject/heal traces (DESIGN.md §12).
//!
//! The cache is written once over the node space: the labelling,
//! components, MCC records ([`MccSet`]) and block model it keeps are each
//! one generic type, so no per-dimension hook is needed.
//!
//! [`apply`]: IncrementalModels::apply
//! [`apply_checked`]: IncrementalModels::apply_checked
//! [`check`]: IncrementalModels::check
//! [`try_apply`]: IncrementalModels::try_apply
//! [`labelling`]: IncrementalModels::labelling
//! [`models`]: IncrementalModels::models
//! [`statuses_repaired`]: IncrementalModels::statuses_repaired
//! [`mccs_extracted`]: IncrementalModels::mccs_extracted
//! [`slot_rebuilds`]: IncrementalModels::slot_rebuilds
//! [`region_builds`]: IncrementalModels::region_builds
//! [`BULK_REPAIR_FANOUT`]: crate::labelling::BULK_REPAIR_FANOUT
//!
//! # Examples
//!
//! ```
//! use fault_model::incremental::IncrementalModels2;
//! use fault_model::BorderPolicy;
//! use mesh_topo::coord::c2;
//! use mesh_topo::{Frame2, Mesh2D};
//!
//! let mut mesh = Mesh2D::new(8, 8);
//! mesh.inject_fault(c2(4, 4));
//! let mut inc = IncrementalModels2::new(mesh, BorderPolicy::BorderSafe);
//!
//! let frame = Frame2::identity(inc.mesh());
//! assert_eq!(inc.models(frame).mccs.len(), 1);
//!
//! // Churn: one heal, one injection — models are patched, not rebuilt.
//! inc.apply(&[c2(2, 2)], &[c2(4, 4)]);
//! let m = inc.models(frame);
//! assert!(m.lab.is_safe(c2(4, 4)));
//! assert_eq!(m.mccs.len(), 1);
//! ```

use mesh_topo::{Coord, Frame, Mesh, NodeSet, NodeSpace, C2, C3};

use crate::components::Components;
use crate::labelling::Labelling;
use crate::mcc::MccSet;
use crate::rfb::FaultBlocks;
use crate::status::BorderPolicy;

/// A churn batch rejected by validation — the mesh and every maintained
/// model are untouched (validation runs strictly before any mutation).
///
/// Batches are *deltas*, not wishes: each set must name distinct in-bounds
/// nodes, the sets must be disjoint, every injected node must currently be
/// healthy and every healed node currently faulty. The [`Display`] messages
/// keep the exact phrases the panicking [`apply`] path has always used, so
/// `#[should_panic(expected = ...)]` pins stay valid.
///
/// [`Display`]: std::fmt::Display
/// [`apply`]: IncrementalModels::apply
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnError<C> {
    /// A named node lies outside the mesh.
    OutOfBounds(C),
    /// The same node appears twice in the injected set.
    DuplicateInjected(C),
    /// The same node appears twice in the healed set.
    DuplicateHealed(C),
    /// A node appears in both the injected and the healed set.
    Overlap(C),
    /// An injected node is already faulty.
    AlreadyFaulty(C),
    /// A healed node is not faulty.
    NotFaulty(C),
}

impl<C: std::fmt::Display> std::fmt::Display for ChurnError<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::OutOfBounds(c) => write!(f, "churn node out of bounds: {c}"),
            ChurnError::DuplicateInjected(c) => write!(f, "duplicate injected node {c}"),
            ChurnError::DuplicateHealed(c) => write!(f, "duplicate healed node {c}"),
            ChurnError::Overlap(c) => write!(f, "inject/heal sets overlap at {c}"),
            ChurnError::AlreadyFaulty(c) => write!(f, "injected node already faulty: {c}"),
            ChurnError::NotFaulty(c) => write!(f, "healed node not faulty: {c}"),
        }
    }
}

impl<C: std::fmt::Display + std::fmt::Debug> std::error::Error for ChurnError<C> {}

/// A churn batch that passed validation against one fault set: its node
/// indices to inject and to heal, each ascending.
///
/// [`CheckedBatch::new`] is the one validation routine. It costs
/// O(b log b) in the batch's b nodes and allocates nothing mesh-sized:
///
/// 1. each node is mapped to its index ([`ChurnError::OutOfBounds`]),
/// 2. each set is sorted and scanned for repeats
///    ([`ChurnError::DuplicateInjected`], [`ChurnError::DuplicateHealed`]),
///    then each healed node is looked up among the injected ones
///    ([`ChurnError::Overlap`]),
/// 3. each node is probed in the fault bitset
///    ([`ChurnError::AlreadyFaulty`], [`ChurnError::NotFaulty`]).
///
/// A batch with several faults reports the one a node-by-node scan in
/// that order reports: the injected set is scanned for bounds and repeats
/// before the healed set, and within a check the first offending node in
/// input order wins.
#[derive(Debug)]
pub struct CheckedBatch {
    inject: Vec<usize>,
    heal: Vec<usize>,
}

impl CheckedBatch {
    /// Validate `injected`/`healed` against the fault set `faulty` over
    /// `space` (see the type docs for the checks and their order).
    pub fn new<C: Coord>(
        space: NodeSpace<C>,
        faulty: &NodeSet,
        injected: &[C],
        healed: &[C],
    ) -> Result<CheckedBatch, ChurnError<C>> {
        let inject = sorted_indices(space, injected, ChurnError::DuplicateInjected)?;
        let heal = sorted_indices(space, healed, ChurnError::DuplicateHealed)?;
        if let Some(&c) = healed
            .iter()
            .find(|&&c| inject.binary_search(&space.index(c)).is_ok())
        {
            return Err(ChurnError::Overlap(c));
        }
        if let Some(&c) = injected.iter().find(|&&c| faulty.contains(space.index(c))) {
            return Err(ChurnError::AlreadyFaulty(c));
        }
        if let Some(&c) = healed.iter().find(|&&c| !faulty.contains(space.index(c))) {
            return Err(ChurnError::NotFaulty(c));
        }
        Ok(CheckedBatch { inject, heal })
    }

    /// Flip the batch into the fault set it was checked against.
    pub fn flip(&self, faulty: &mut NodeSet) {
        for &i in &self.inject {
            faulty.insert(i);
        }
        for &i in &self.heal {
            faulty.remove(i);
        }
    }
}

/// The indices of `coords`, ascending, or the error a scan in input order
/// meets first: a node outside `space`, or a repeat of an earlier node
/// (reported through `repeat`).
fn sorted_indices<C: Coord>(
    space: NodeSpace<C>,
    coords: &[C],
    repeat: fn(C) -> ChurnError<C>,
) -> Result<Vec<usize>, ChurnError<C>> {
    let mut indices = Vec::with_capacity(coords.len());
    let mut outside = None;
    for (at, &c) in coords.iter().enumerate() {
        match space.index_checked(c) {
            Some(i) => indices.push(i),
            None => {
                outside = Some(at);
                break;
            }
        }
    }
    indices.sort_unstable();
    if indices.windows(2).any(|w| w[0] == w[1]) {
        return Err(repeat(
            coords[first_repeat(space, &coords[..indices.len()])],
        ));
    }
    if let Some(at) = outside {
        return Err(ChurnError::OutOfBounds(coords[at]));
    }
    Ok(indices)
}

/// The position of the first node of `coords` (all inside `space`) whose
/// index an earlier node already took; `coords` must hold a repeat.
fn first_repeat<C: Coord>(space: NodeSpace<C>, coords: &[C]) -> usize {
    let mut keyed: Vec<(usize, usize)> = coords
        .iter()
        .enumerate()
        .map(|(at, &c)| (space.index(c), at))
        .collect();
    keyed.sort_unstable();
    // Within a run of equal indices the positions ascend, so each later
    // member of a run is a repeat; the earliest of them is met first.
    keyed
        .windows(2)
        .filter(|w| w[0].0 == w[1].0)
        .map(|w| w[1].1)
        .min()
        .expect("coords hold a repeat")
}

/// The incrementally maintained models of one orientation: the labelling
/// layer, synced on every use, and the region layer, built and repaired
/// only by [`IncrementalModels::models`].
#[derive(Clone, Debug)]
struct IncSlot<C: Coord> {
    lab: Labelling<C>,
    /// Mesh indices a batch flipped since `lab` was last synced. Empty and
    /// unallocated until the first batch reaches the slot.
    stale: NodeSet,
    region: Option<RegionLayer<C>>,
}

/// The components and MCC records of one orientation, repaired lazily.
#[derive(Clone, Debug)]
struct RegionLayer<C: Coord> {
    comps: Components<C>,
    mccs: MccSet<C>,
    /// Nodes whose status a labelling repair changed since `comps` and
    /// `mccs` were last repaired: at most one bit per node of the space.
    pending: NodeSet,
}

/// Borrowed views of one orientation's incrementally maintained models.
#[derive(Debug)]
pub struct IncModelsRef<'a, C: Coord> {
    /// The labelling of the requested orientation.
    pub lab: &'a Labelling<C>,
    /// Its component decomposition.
    pub comps: &'a Components<C>,
    /// Its MCC records.
    pub mccs: &'a MccSet<C>,
}

/// Owned, churn-capable model cache over a mesh (see the module docs).
#[derive(Clone, Debug)]
pub struct IncrementalModels<C: Coord> {
    mesh: Mesh<C>,
    border: BorderPolicy,
    /// One slot per orientation.
    slots: Vec<Option<IncSlot<C>>>,
    /// The block model of the current mesh; churn drops it.
    blocks: Option<FaultBlocks<C>>,
    /// Total statuses changed by slot syncs — the incremental work done.
    repaired_statuses: usize,
    /// Slots built from scratch (first use or torus re-rotation).
    slot_rebuilds: usize,
    /// Region layers built from scratch.
    region_builds: usize,
    /// MCCs extracted by slot repairs.
    mccs_extracted: usize,
}

/// The incrementally maintained models of a 2-D mesh (4 quadrant slots).
pub type IncrementalModels2 = IncrementalModels<C2>;

/// The incrementally maintained models of a 3-D mesh (8 octant slots).
pub type IncrementalModels3 = IncrementalModels<C3>;

impl<C: Coord> IncrementalModels<C> {
    /// Take ownership of `mesh`; nothing is computed until requested.
    pub fn new(mesh: Mesh<C>, border: BorderPolicy) -> IncrementalModels<C> {
        IncrementalModels {
            mesh,
            border,
            slots: (0..C::ORIENTATIONS).map(|_| None).collect(),
            blocks: None,
            repaired_statuses: 0,
            slot_rebuilds: 0,
            region_builds: 0,
            mccs_extracted: 0,
        }
    }

    /// The current (churned) mesh.
    pub fn mesh(&self) -> &Mesh<C> {
        &self.mesh
    }

    /// The border policy every maintained labelling uses.
    pub fn border(&self) -> BorderPolicy {
        self.border
    }

    /// Total node statuses changed across all slot syncs — each sync
    /// counts the statuses its net fault difference changed, so this grows
    /// with the perturbation sizes, not with mesh size or churn count.
    pub fn statuses_repaired(&self) -> usize {
        self.repaired_statuses
    }

    /// Number of slots built from scratch rather than repaired: first use
    /// of an orientation, or a torus slot asked for another rotation.
    pub fn slot_rebuilds(&self) -> usize {
        self.slot_rebuilds
    }

    /// Number of orientation slots that hold a labelling.
    pub fn live_slots(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Number of region layers (components plus MCC records) built from
    /// scratch: the first [`models`] call on a slot, and the first after
    /// that slot was rebuilt. Traffic that only reads [`labelling`] builds
    /// none.
    ///
    /// [`models`]: IncrementalModels::models
    /// [`labelling`]: IncrementalModels::labelling
    pub fn region_builds(&self) -> usize {
        self.region_builds
    }

    /// Number of MCCs region repairs have extracted — the re-discovered
    /// components plus the carried ones with a changed status. A repair
    /// reuses every other MCC, so this grows with the churn, not with the
    /// number of fault regions. Region builds are not counted here.
    pub fn mccs_extracted(&self) -> usize {
        self.mccs_extracted
    }

    /// True if the slot holding `frame`'s orientation exists and no batch
    /// has reached it since its labelling was synced (a [`labelling`] call
    /// would neither rebuild nor repair; a [`models`] call may still build
    /// or repair the slot's components and MCC records).
    ///
    /// [`labelling`]: IncrementalModels::labelling
    /// [`models`]: IncrementalModels::models
    pub fn slot_current(&self, frame: Frame<C>) -> bool {
        matches!(
            &self.slots[frame.index()],
            Some(sl) if sl.lab.frame() == frame && sl.stale.is_empty()
        )
    }

    /// True if the block model exists (churn drops it).
    pub fn blocks_current(&self) -> bool {
        self.blocks.is_some()
    }

    /// Apply one churn batch: inject every fault in `injected` and heal
    /// every fault in `healed`; live slots catch up on their next use.
    ///
    /// The two sets must be disjoint, `injected` all healthy and `healed`
    /// all faulty — batches are *deltas*, not wishes; an overlapping or
    /// already-satisfied entry is a caller bug and panics. Long-lived
    /// callers fed untrusted batches use [`try_apply`] instead.
    ///
    /// [`try_apply`]: IncrementalModels::try_apply
    pub fn apply(&mut self, injected: &[C], healed: &[C]) {
        if let Err(e) = self.try_apply(injected, healed) {
            panic!("{e}");
        }
    }

    /// Fallible twin of [`apply`]: validate the batch first and return a
    /// typed [`ChurnError`] instead of panicking. On `Err` the mesh and
    /// every maintained model are untouched, so a resident service can
    /// reject a malformed request and keep serving.
    ///
    /// [`apply`]: IncrementalModels::apply
    pub fn try_apply(&mut self, injected: &[C], healed: &[C]) -> Result<(), ChurnError<C>> {
        let batch = self.checked(injected, healed)?;
        self.apply_checked(batch);
        Ok(())
    }

    /// Validate a churn batch without applying it — exactly the checks
    /// [`try_apply`] runs before mutating anything.
    ///
    /// [`try_apply`]: IncrementalModels::try_apply
    pub fn check(&self, injected: &[C], healed: &[C]) -> Result<(), ChurnError<C>> {
        self.checked(injected, healed).map(drop)
    }

    /// Validate a churn batch against the current mesh and keep the
    /// result for [`apply_checked`]. A write-ahead-logging caller validates
    /// first, journals the batch, and only then applies it, so the apply
    /// step cannot fail after the log record is durable, and the batch is
    /// validated once.
    ///
    /// [`apply_checked`]: IncrementalModels::apply_checked
    pub fn checked(&self, injected: &[C], healed: &[C]) -> Result<CheckedBatch, ChurnError<C>> {
        CheckedBatch::new(self.mesh.space(), self.mesh.fault_set(), injected, healed)
    }

    /// Apply a batch [`checked`] against the current state: flip its bits,
    /// mark them stale in every live slot and drop the block model, all in
    /// the cost of the batch. Infallible; a batch checked against an
    /// earlier state is a caller bug.
    ///
    /// [`checked`]: IncrementalModels::checked
    pub fn apply_checked(&mut self, batch: CheckedBatch) {
        let flipped = self.mesh.inject_indices(&batch.inject) + self.mesh.heal_indices(&batch.heal);
        debug_assert_eq!(flipped, batch.inject.len() + batch.heal.len());
        self.blocks = None;
        let nodes = self.mesh.space().len();
        for slot in self.slots.iter_mut().flatten() {
            if slot.stale.capacity() == 0 {
                slot.stale = NodeSet::new(nodes);
            }
            for &i in batch.inject.iter().chain(&batch.heal) {
                slot.stale.insert(i);
            }
        }
    }

    /// The maintained labelling of `frame`'s orientation, brought up to the
    /// current mesh first: an empty (or, on a torus, differently-rotated)
    /// slot is built from scratch; a lagging slot repairs its net fault
    /// difference. Components and MCC records are neither built nor
    /// repaired; if the slot holds them, the changed statuses are kept for
    /// the next [`models`] call.
    ///
    /// [`models`]: IncrementalModels::models
    pub fn labelling(&mut self, frame: Frame<C>) -> &Labelling<C> {
        let idx = self.sync_labelling(frame);
        &self.slots[idx].as_ref().expect("just synced").lab
    }

    /// The labelling of `frame`'s orientation, synced as by [`labelling`],
    /// and the block model of the current mesh, in one borrow — the two
    /// models a routing trial reads.
    ///
    /// [`labelling`]: IncrementalModels::labelling
    pub fn labelling_and_blocks(&mut self, frame: Frame<C>) -> (&Labelling<C>, &FaultBlocks<C>) {
        let idx = self.sync_labelling(frame);
        self.blocks();
        let lab = &self.slots[idx].as_ref().expect("just synced").lab;
        (lab, self.blocks.as_ref().expect("just built"))
    }

    /// Fetch the maintained models for `frame`'s orientation: the
    /// labelling synced as by [`labelling`], then the components and MCC
    /// records, built on the slot's first `models` call and afterwards
    /// repaired in place **once** per call, over the statuses changed
    /// since the previous one.
    ///
    /// [`labelling`]: IncrementalModels::labelling
    pub fn models(&mut self, frame: Frame<C>) -> IncModelsRef<'_, C> {
        let idx = self.sync_labelling(frame);
        let slot = self.slots[idx].as_mut().expect("just synced");
        match &mut slot.region {
            Some(region) if !region.pending.is_empty() => {
                // A node that flipped and flipped back since the last call
                // stays pending: a harmless dirty mark, since the component
                // and MCC repairs only need a superset of the flipped nodes.
                let changed: Vec<usize> = region.pending.iter().collect();
                region.pending.clear();
                let splice = region.comps.repair(&slot.lab, &changed);
                let mccs = &mut region.mccs;
                self.mccs_extracted += mccs.repair(&slot.lab, &region.comps, &splice, &changed);
            }
            Some(_) => {}
            None => {
                let comps = Components::compute(&slot.lab);
                let mccs = MccSet::from_components(&comps, &slot.lab);
                slot.region = Some(RegionLayer {
                    comps,
                    mccs,
                    pending: NodeSet::new(self.mesh.space().len()),
                });
                self.region_builds += 1;
            }
        }
        let slot = self.slots[idx].as_ref().expect("just synced");
        let region = slot.region.as_ref().expect("just built");
        IncModelsRef {
            lab: &slot.lab,
            comps: &region.comps,
            mccs: &region.mccs,
        }
    }

    /// Bring the labelling of `frame`'s slot up to the current mesh (see
    /// [`labelling`](IncrementalModels::labelling)); returns the slot's
    /// index.
    fn sync_labelling(&mut self, frame: Frame<C>) -> usize {
        let idx = frame.index();
        let slot = match &mut self.slots[idx] {
            Some(sl) if sl.lab.frame() == frame => sl,
            slot => {
                self.slot_rebuilds += 1;
                slot.insert(IncSlot {
                    lab: Labelling::compute(&self.mesh, frame, self.border),
                    stale: NodeSet::new(0),
                    region: None,
                })
            }
        };
        if !slot.stale.is_empty() {
            // Only the net difference matters: a stale node whose fault bit
            // the labelling already shows flipped back in between.
            let (space, faulty) = (self.mesh.space(), self.mesh.fault_set());
            let (mut injected, mut healed) = (Vec::new(), Vec::new());
            for i in slot.stale.iter() {
                let c = space.coord(i);
                match (faulty.contains(i), slot.lab.status_mesh(c).is_faulty()) {
                    (true, false) => injected.push(c),
                    (false, true) => healed.push(c),
                    _ => {}
                }
            }
            slot.stale.clear();
            let changed = slot.lab.repair(&injected, &healed);
            self.repaired_statuses += changed.len();
            if let Some(region) = &mut slot.region {
                for i in changed {
                    region.pending.insert(i);
                }
            }
        }
        idx
    }

    /// The orientation-free block model of the current mesh, recomputed
    /// lazily after churn (any applied batch drops it).
    pub fn blocks(&mut self) -> &FaultBlocks<C> {
        self.blocks
            .get_or_insert_with(|| FaultBlocks::compute(&self.mesh))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultBlocks2;
    use mesh_topo::coord::{c2, c3};
    use mesh_topo::{Frame2, Frame3, Mesh2D, Mesh3D, C2};

    fn assert_labelling_eq<C: Coord>(got: &Labelling<C>, want: &Labelling<C>) {
        for ((c, a), (_, b)) in got.iter().zip(want.iter()) {
            assert_eq!(a, b, "status diverged at {c} for {:?}", want.frame());
        }
        assert_eq!(got.unsafe_set(), want.unsafe_set());
    }

    fn assert_slot_matches_fresh<C: Coord>(inc: &mut IncrementalModels<C>, frame: Frame<C>) {
        let mesh = inc.mesh().clone();
        let border = inc.border();
        let m = inc.models(frame);
        let lab = Labelling::compute(&mesh, frame, border);
        assert_labelling_eq(m.lab, &lab);
        assert_eq!(m.comps.cells, Components::compute(&lab).cells);
        assert_eq!(m.mccs, &MccSet::compute(&lab));
    }

    #[test]
    fn maintained_models_match_fresh_across_churn_and_orientations() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let (w, h) = (10, 9);
        let mut mesh = Mesh2D::new(w, h);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10 {
            mesh.inject_fault(c2(rng.gen_range(0..w), rng.gen_range(0..h)));
        }
        let mut inc = IncrementalModels2::new(mesh, BorderPolicy::BorderSafe);
        let frames = Frame2::all(inc.mesh());
        for step in 0..20 {
            let mut injected = Vec::new();
            let mut healed = Vec::new();
            for _ in 0..rng.gen_range(0..3) {
                let c = c2(rng.gen_range(0..w), rng.gen_range(0..h));
                if inc.mesh().is_healthy(c) && !injected.contains(&c) {
                    injected.push(c);
                }
            }
            let faults = inc.mesh().faults().to_vec();
            if !faults.is_empty() {
                for _ in 0..rng.gen_range(0..3) {
                    let c = faults[rng.gen_range(0..faults.len())];
                    if !healed.contains(&c) {
                        healed.push(c);
                    }
                }
            }
            inc.apply(&injected, &healed);
            // Interleave sync patterns: some steps sync every orientation,
            // some only one, so slots lag by varying amounts.
            for &frame in frames.iter().take(if step % 3 == 0 { 4 } else { 1 }) {
                assert_slot_matches_fresh(&mut inc, frame);
            }
        }
        for frame in frames {
            assert_slot_matches_fresh(&mut inc, frame);
        }
        assert!(inc.statuses_repaired() > 0, "syncs must have done work");
    }

    #[test]
    fn churn_marks_only_live_slots_and_allocates_their_stale_sets_lazily() {
        let mut inc = IncrementalModels2::new(Mesh2D::new(8, 8), BorderPolicy::BorderSafe);
        for i in 0..5 {
            inc.apply(&[c2(i, i)], &[]);
        }
        assert_eq!(inc.live_slots(), 0, "no slot to mark");
        let frame = Frame2::identity(inc.mesh());
        assert_slot_matches_fresh(&mut inc, frame);
        let stale =
            |inc: &IncrementalModels2| inc.slots[frame.index()].as_ref().unwrap().stale.clone();
        assert_eq!(stale(&inc).capacity(), 0, "a built slot holds no stale set");
        inc.apply(&[c2(7, 0)], &[c2(2, 2)]);
        let marked = stale(&inc);
        assert_eq!(marked.capacity(), 64, "the first batch allocates it");
        let space = inc.mesh().space();
        let want = NodeSet::from_indices(64, [space.index(c2(7, 0)), space.index(c2(2, 2))]);
        assert_eq!(marked, want, "marked with both nodes of the batch");
        assert_slot_matches_fresh(&mut inc, frame);
        assert!(stale(&inc).is_empty(), "the sync consumed it");
    }

    #[test]
    fn a_node_injected_and_healed_between_syncs_repairs_nothing() {
        let mut mesh = Mesh2D::new(16, 16);
        for c in [c2(4, 4), c2(5, 6), c2(9, 9)] {
            mesh.inject_fault(c);
        }
        let mut inc = IncrementalModels2::new(mesh, BorderPolicy::BorderSafe);
        let frame = Frame2::identity(inc.mesh());
        assert_slot_matches_fresh(&mut inc, frame);
        let repaired = inc.statuses_repaired();
        inc.apply(&[c2(5, 5)], &[]);
        inc.apply(&[], &[c2(5, 5)]);
        assert!(!inc.slot_current(frame), "both batches marked the slot");
        assert_slot_matches_fresh(&mut inc, frame);
        assert!(inc.slot_current(frame));
        assert_eq!(inc.statuses_repaired(), repaired, "no net difference");
        assert_eq!(inc.slot_rebuilds(), 1);
    }

    #[test]
    fn torus_rotations_never_alias_slots() {
        // On a torus every pair brings its own rotation; frames sharing a
        // reflection index must be rebuilt, never reused, and a churn batch
        // between rotations must reach the slot that survives it.
        let mut mesh = Mesh2D::torus(8, 6);
        for c in [c2(2, 2), c2(3, 2), c2(6, 4)] {
            mesh.inject_fault(c);
        }
        let mut inc = IncrementalModels2::new(mesh, BorderPolicy::BorderSafe);
        let churn = [
            (vec![c2(5, 1)], vec![]),
            (vec![c2(7, 5)], vec![c2(3, 2)]),
            (vec![], vec![c2(5, 1)]),
            (vec![c2(1, 3)], vec![]),
        ];
        for ((s, d), (injected, healed)) in [
            (c2(0, 0), c2(3, 2)),
            (c2(1, 1), c2(4, 3)), // same reflection, different rotation
            (c2(5, 5), c2(1, 1)),
            (c2(5, 5), c2(1, 1)), // repeat: the churned slot is repaired
        ]
        .into_iter()
        .zip(churn)
        {
            let frame = Frame2::for_pair(inc.mesh(), s, d);
            assert_eq!(
                inc.models(frame).lab.frame(),
                frame,
                "slot must hold the asked frame"
            );
            assert_slot_matches_fresh(&mut inc, frame);
            inc.apply(&injected, &healed);
            assert_slot_matches_fresh(&mut inc, frame);
        }
        assert_eq!(inc.slot_rebuilds(), 3, "the repeat rotation is not rebuilt");
    }

    #[test]
    fn labelling_and_blocks_match_fresh_every_orientation() {
        let mut mesh = Mesh2D::new(10, 10);
        for c in [c2(3, 3), c2(4, 3), c2(7, 6)] {
            mesh.inject_fault(c);
        }
        let mut inc = IncrementalModels2::new(mesh, BorderPolicy::BorderSafe);
        for (injected, healed) in [(vec![], vec![]), (vec![c2(4, 4)], vec![c2(7, 6)])] {
            inc.apply(&injected, &healed);
            let mesh = inc.mesh().clone();
            for frame in Frame2::all(&mesh) {
                let (lab, blocks) = inc.labelling_and_blocks(frame);
                let fresh = Labelling::compute(&mesh, frame, BorderPolicy::BorderSafe);
                assert_labelling_eq(lab, &fresh);
                let fresh = FaultBlocks2::compute(&mesh);
                assert_eq!(blocks.blocks(), fresh.blocks());
                assert_eq!(blocks.sacrificed_count(), fresh.sacrificed_count());
            }
        }
        assert_eq!(inc.live_slots(), 4);
        assert_eq!(inc.slot_rebuilds(), 4, "the churn was repaired in place");
    }

    #[test]
    fn churn_flips_a_slot_from_valid_to_stale() {
        let mut mesh = Mesh2D::new(8, 8);
        mesh.inject_fault(c2(3, 3));
        let mut inc = IncrementalModels2::new(mesh, BorderPolicy::BorderSafe);
        let frame = Frame2::identity(inc.mesh());
        assert!(!inc.slot_current(frame), "nothing computed yet");
        inc.models(frame);
        assert!(inc.slot_current(frame));
        // A heal far outside the cached labelling's unsafe region still
        // stales the slot — every batch marks every live slot, and the
        // repair (not the validity test) is what localizes the work.
        inc.apply(&[], &[c2(3, 3)]);
        assert!(!inc.slot_current(frame), "churn must stale the slot");
        inc.models(frame);
        assert!(inc.slot_current(frame), "models() re-syncs the slot");
    }

    #[test]
    fn heal_that_ungrounds_a_fault_block_forces_block_recompute() {
        // Two fault pairs close enough for the rectangle closure to disable
        // the healthy nodes between them; healing one fault shrinks the
        // block and must re-enable them.
        let mut mesh = Mesh2D::new(10, 10);
        for c in [c2(4, 4), c2(4, 6), c2(5, 5)] {
            mesh.inject_fault(c);
        }
        let mut inc = IncrementalModels2::new(mesh, BorderPolicy::BorderSafe);
        assert!(!inc.blocks_current());
        assert!(inc.blocks().is_disabled(c2(4, 5)), "interior is blocked");
        assert!(inc.blocks_current());
        inc.apply(&[], &[c2(4, 4)]);
        assert!(!inc.blocks_current(), "churn must stale the block model");
        let fresh = FaultBlocks2::compute(inc.mesh());
        let blocks = inc.blocks();
        assert_eq!(blocks.sacrificed_count(), fresh.sacrificed_count());
        assert_eq!(blocks.blocks(), fresh.blocks());
        assert!(
            !blocks.is_disabled(c2(4, 4)),
            "healed node must leave the block"
        );
    }

    #[test]
    fn a_long_lag_syncs_in_place_through_the_bulk_tier() {
        use crate::labelling::BULK_REPAIR_FANOUT;
        // 256 nodes: a net difference of 6 flips or more takes the bulk
        // tier, one of 5 or fewer the worklist tier.
        let mut mesh = Mesh2D::new(16, 16);
        mesh.inject_fault(c2(8, 8));
        let nodes = mesh.node_count();
        let mut inc = IncrementalModels2::new(mesh, BorderPolicy::BorderSafe);
        let frames = Frame2::all(inc.mesh());
        inc.models(frames[0]);
        inc.models(frames[1]);
        let rebuilds = inc.slot_rebuilds();
        let net = |before: &NodeSet, inc: &IncrementalModels2| {
            let after = inc.mesh().fault_set();
            after.difference_iter(before).count() + before.difference_iter(after).count()
        };
        // A lag of 42 batches on frames[1], with frames[0] in sync.
        let before = inc.mesh().fault_set().clone();
        for i in 0..42 {
            let c = c2(i % 14 + 1, i / 14 * 5 + 1);
            if inc.mesh().is_healthy(c) {
                inc.apply(&[c], &[]);
            } else {
                inc.apply(&[], &[c]);
            }
            inc.models(frames[0]);
        }
        assert!(
            net(&before, &inc) * BULK_REPAIR_FANOUT >= nodes,
            "bulk tier"
        );
        assert_slot_matches_fresh(&mut inc, frames[1]);
        // A short lag on the same mesh.
        let before = inc.mesh().fault_set().clone();
        inc.apply(&[c2(12, 12)], &[c2(8, 8)]);
        inc.apply(&[c2(3, 12)], &[]);
        assert!(
            net(&before, &inc) * BULK_REPAIR_FANOUT < nodes,
            "worklist tier"
        );
        assert_slot_matches_fresh(&mut inc, frames[1]);
        assert_slot_matches_fresh(&mut inc, frames[0]);
        assert_eq!(inc.slot_rebuilds(), rebuilds, "every lag synced in place");
    }

    #[test]
    fn maintained_models_match_fresh_3d() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let k = 6;
        let mut mesh = Mesh3D::torus(k, k, k);
        let mut rng = SmallRng::seed_from_u64(17);
        for _ in 0..12 {
            mesh.inject_fault(c3(
                rng.gen_range(0..k),
                rng.gen_range(0..k),
                rng.gen_range(0..k),
            ));
        }
        let mut inc = IncrementalModels3::new(mesh, BorderPolicy::BorderSafe);
        let frame = Frame3::identity(inc.mesh());
        for _ in 0..12 {
            let mut injected = Vec::new();
            let mut healed = Vec::new();
            for _ in 0..rng.gen_range(0..3) {
                let c = c3(
                    rng.gen_range(0..k),
                    rng.gen_range(0..k),
                    rng.gen_range(0..k),
                );
                if inc.mesh().is_healthy(c) && !injected.contains(&c) {
                    injected.push(c);
                }
            }
            let faults = inc.mesh().faults().to_vec();
            if !faults.is_empty() {
                healed.push(faults[rng.gen_range(0..faults.len())]);
            }
            inc.apply(&injected, &healed);
            assert_slot_matches_fresh(&mut inc, frame);
        }
    }

    #[test]
    fn far_churn_among_many_regions_extracts_only_its_own_mccs() {
        // 125 isolated single-fault regions on a 16³ lattice. Healing a
        // middle one and injecting a new one past the last shifts the
        // positions of half the regions, yet re-extracts at most the two
        // touched MCCs and rebuilds no slot.
        let mut mesh = Mesh3D::kary(16);
        for n in 0..125 {
            mesh.inject_fault(c3(3 * (n % 5) + 1, 3 * (n / 5 % 5) + 1, 3 * (n / 25) + 1));
        }
        let mut inc = IncrementalModels3::new(mesh, BorderPolicy::BorderSafe);
        let frame = Frame3::identity(inc.mesh());
        assert_eq!(inc.models(frame).comps.len(), 125);
        let (rebuilds, extracted) = (inc.slot_rebuilds(), inc.mccs_extracted());
        assert_eq!((rebuilds, extracted), (1, 0), "the first use builds");

        inc.apply(&[c3(15, 15, 15)], &[c3(7, 7, 7)]);
        assert_slot_matches_fresh(&mut inc, frame);
        assert_eq!(inc.models(frame).comps.len(), 125);
        assert_eq!(inc.slot_rebuilds(), rebuilds, "a repair rebuilds nothing");
        assert!(
            inc.mccs_extracted() - extracted <= 2,
            "extracted {} MCCs",
            inc.mccs_extracted() - extracted
        );
    }

    #[test]
    fn label_only_syncs_build_no_regions() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // The 125-region lattice above, churned one heal plus one inject
        // at a time while every octant syncs through `labelling` alone.
        let k = 16;
        let mut mesh = Mesh3D::kary(k);
        for n in 0..125 {
            mesh.inject_fault(c3(3 * (n % 5) + 1, 3 * (n / 5 % 5) + 1, 3 * (n / 25) + 1));
        }
        let mut inc = IncrementalModels3::new(mesh, BorderPolicy::BorderSafe);
        let frames = Frame3::all(inc.mesh());
        let identity = Frame3::identity(inc.mesh());
        let mut rng = SmallRng::seed_from_u64(11);
        let mut churn = |inc: &mut IncrementalModels3| {
            let faults = inc.mesh().faults().to_vec();
            let heal = faults[rng.gen_range(0..faults.len())];
            let inject = loop {
                let c = c3(
                    rng.gen_range(0..k),
                    rng.gen_range(0..k),
                    rng.gen_range(0..k),
                );
                if inc.mesh().is_healthy(c) {
                    break c;
                }
            };
            inc.apply(&[inject], &[heal]);
        };
        for _ in 0..100 {
            churn(&mut inc);
            for &frame in &frames {
                inc.labelling(frame);
            }
        }
        assert_eq!(inc.slot_rebuilds(), 8, "one labelling build per octant");
        assert!(inc.statuses_repaired() > 0, "syncs must have done work");
        assert_eq!(
            (inc.region_builds(), inc.mccs_extracted()),
            (0, 0),
            "labelling syncs touch no components or MCC records"
        );
        for &frame in &frames {
            let fresh = Labelling::compute(inc.mesh(), frame, BorderPolicy::BorderSafe);
            assert_labelling_eq(inc.labelling(frame), &fresh);
        }

        assert_slot_matches_fresh(&mut inc, identity);
        assert_eq!(inc.region_builds(), 1, "the first models call builds");
        assert_eq!(inc.mccs_extracted(), 0, "a build is not a repair");

        // Forty labelling-only syncs keep the slot live and leave its
        // region layer pending; the next models call repairs it.
        for _ in 0..40 {
            churn(&mut inc);
            inc.labelling(identity);
        }
        let region = |inc: &IncrementalModels3| {
            let slot = inc.slots[identity.index()].as_ref().expect("live slot");
            slot.region.as_ref().expect("built region").pending.clone()
        };
        let pending = region(&inc);
        assert!(!pending.is_empty(), "syncs left statuses pending");
        assert_eq!(pending.capacity(), inc.mesh().node_count());
        assert_slot_matches_fresh(&mut inc, identity);
        assert!(region(&inc).is_empty(), "models consumed the pending set");
        assert_eq!(inc.region_builds(), 1, "a lagging region is repaired");
        assert_eq!(inc.slot_rebuilds(), 8);
    }

    #[test]
    #[should_panic(expected = "healed node not faulty")]
    fn healing_a_healthy_node_panics() {
        let mesh = Mesh2D::new(6, 6);
        let mut inc = IncrementalModels2::new(mesh, BorderPolicy::BorderSafe);
        inc.apply(&[], &[c2(2, 2)]);
    }

    #[test]
    #[should_panic(expected = "inject/heal sets overlap")]
    fn overlapping_batch_panics() {
        let mut mesh = Mesh2D::new(6, 6);
        mesh.inject_fault(c2(2, 2));
        let mut inc = IncrementalModels2::new(mesh, BorderPolicy::BorderSafe);
        inc.apply(&[c2(2, 2)], &[c2(2, 2)]);
    }

    #[test]
    fn try_apply_rejects_without_mutating() {
        let mut mesh = Mesh2D::new(6, 6);
        mesh.inject_fault(c2(2, 2));
        let mut inc = IncrementalModels2::new(mesh, BorderPolicy::BorderSafe);
        let frame = Frame2::identity(inc.mesh());
        inc.models(frame);
        let before_faults = inc.mesh().fault_set().clone();

        let cases: Vec<(Vec<C2>, Vec<C2>, ChurnError<C2>)> = vec![
            (vec![c2(9, 0)], vec![], ChurnError::OutOfBounds(c2(9, 0))),
            (
                vec![c2(1, 1), c2(1, 1)],
                vec![],
                ChurnError::DuplicateInjected(c2(1, 1)),
            ),
            (
                vec![],
                vec![c2(2, 2), c2(2, 2)],
                ChurnError::DuplicateHealed(c2(2, 2)),
            ),
            (
                vec![c2(2, 2)],
                vec![c2(2, 2)],
                ChurnError::Overlap(c2(2, 2)),
            ),
            (vec![c2(2, 2)], vec![], ChurnError::AlreadyFaulty(c2(2, 2))),
            (vec![], vec![c2(3, 3)], ChurnError::NotFaulty(c2(3, 3))),
        ];
        for (injected, healed, want) in cases {
            assert_eq!(inc.try_apply(&injected, &healed), Err(want));
            assert_eq!(inc.mesh().fault_set(), &before_faults);
            assert!(inc.slot_current(frame), "rejected batch must not stale");
        }

        // A valid batch after the rejections still applies cleanly.
        assert_eq!(inc.try_apply(&[c2(4, 4)], &[c2(2, 2)]), Ok(()));
        assert!(inc.mesh().is_healthy(c2(2, 2)));
        assert!(!inc.slot_current(frame));
    }

    #[test]
    fn try_apply_rejects_without_mutating_3d() {
        let mut mesh = Mesh3D::new(5, 5, 5);
        mesh.inject_fault(c3(1, 1, 1));
        let mut inc = IncrementalModels3::new(mesh, BorderPolicy::BorderSafe);
        assert_eq!(
            inc.try_apply(&[c3(1, 1, 1)], &[]),
            Err(ChurnError::AlreadyFaulty(c3(1, 1, 1)))
        );
        assert_eq!(
            inc.try_apply(&[], &[c3(0, 0, 0)]),
            Err(ChurnError::NotFaulty(c3(0, 0, 0)))
        );
        assert_eq!(
            inc.try_apply(&[c3(5, 0, 0)], &[]),
            Err(ChurnError::OutOfBounds(c3(5, 0, 0)))
        );
        assert_eq!(inc.mesh().faults(), [c3(1, 1, 1)]);
        assert_eq!(inc.try_apply(&[c3(2, 2, 2)], &[c3(1, 1, 1)]), Ok(()));
        assert_eq!(inc.mesh().faults(), [c3(2, 2, 2)]);
    }

    /// The mutation-style negative test: with the heal-retraction path of
    /// the labelling repair deliberately skipped, the equivalence check the
    /// battery relies on must FAIL — proving the battery would catch a
    /// missing invalidation path, not silently pass.
    #[test]
    fn skipping_heal_retraction_breaks_equivalence() {
        use crate::labelling::mutation::SKIP_HEAL_RETRACTION;

        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                SKIP_HEAL_RETRACTION.with(|f| f.set(false));
            }
        }
        let _reset = Reset;

        /// Heal `heal` under the mutation and check that `probe` keeps a
        /// useless label a from-scratch labelling retracts. Each torus is
        /// large enough that a one-node heal stays below the bulk-tier
        /// cut-over (the bulk tier recomputes from scratch and is immune
        /// to the skipped path).
        fn case<C: Coord>(mesh: Mesh<C>, frame: Frame<C>, heal: C, probe: C) {
            let mut inc = IncrementalModels::<C>::new(mesh, BorderPolicy::BorderSafe);
            assert!(inc.models(frame).lab.status(probe).is_useless());

            SKIP_HEAL_RETRACTION.with(|f| f.set(true));
            inc.apply(&[], &[heal]);
            let stale = inc.models(frame).lab.status(probe);
            let fresh = Labelling::<C>::compute(inc.mesh(), frame, BorderPolicy::BorderSafe);
            assert!(
                fresh.status(probe).is_safe(),
                "ground truth: the label must retract"
            );
            assert!(
                stale.is_useless(),
                "mutated repair must leave the stale label the battery would flag"
            );
            assert_ne!(stale, fresh.status(probe), "equivalence check fails");
        }

        // 2-D seam: healing (1,2) must retract the useless label of (0,2)
        // and, across the wrap seam, (11,2).
        let mut torus = Mesh2D::torus(12, 5);
        for c in [c2(1, 2), c2(0, 3), c2(11, 3)] {
            torus.inject_fault(c);
        }
        let frame = Frame2::identity(&torus);
        case::<C2>(torus, frame, c2(1, 2), c2(11, 2));

        // 3-D seam: the corner (5,5,5) is sealed only by its three wrapped
        // `+` neighbors; healing (0,5,5) must retract it across the X wrap.
        let mut torus = Mesh3D::torus_kary(6);
        for c in [c3(0, 5, 5), c3(5, 0, 5), c3(5, 5, 0)] {
            torus.inject_fault(c);
        }
        let frame = Frame3::identity(&torus);
        case::<C3>(torus, frame, c3(0, 5, 5), c3(5, 5, 5));
    }
}
