//! Incrementally maintained model caches under fault churn.
//!
//! [`ModelCache2`](crate::ModelCache2) memoizes the models of one *frozen*
//! fault configuration — it borrows the mesh, so any churn forces the caller
//! to throw the whole cache away. [`IncrementalModels`]
//! ([`IncrementalModels2`] / [`IncrementalModels3`]) instead **owns** its
//! mesh and keeps the full model stack alive across batched fault
//! injections and heals:
//!
//! * the labelling of each orientation is patched in place by
//!   [`Labelling::repair`] (dirty-region worklist or bulk re-sweep), once
//!   per unseen churn batch,
//! * the component decomposition by [`Components::repair`], once per sync
//!   over the merged dirty regions: only the components a flip touched are
//!   re-discovered, and they are spliced into the component list at their
//!   sorted position ([`Splice`](crate::Splice)) while every other
//!   component keeps its cells and its stable internal handle,
//! * the MCC shapes by the same splice on the MCC list: only re-discovered
//!   or status-touched components are re-extracted, every other MCC is
//!   left in place,
//! * the orientation-free block model is invalidated wholesale and lazily
//!   recomputed — it is cheap relative to the labelling family and has no
//!   per-orientation structure to exploit.
//!
//! Synchronization is **per orientation slot and lazy**: [`apply`] only
//! records the delta in a generation log; a slot replays the log entries it
//! has not seen the next time [`models`] asks for its orientation. A heal
//! whose effect never reaches a slot's orientation still replays there, but
//! the replay touches only the perturbation's closure cone — update cost
//! scales with the batch, not the mesh, and not the number of fault
//! regions: a sync costs O(changed statuses + affected components +
//! log #components), plus moving the component and MCC lists' entries
//! behind the first changed position. [`statuses_repaired`],
//! [`mccs_extracted`] and [`slot_rebuilds`] count that work
//! deterministically. The log is compacted once every
//! live slot has advanced past an entry, and a slot left behind by more
//! than [`LOG_CAP`] generations is dropped and rebuilt from scratch on
//! next use, bounding both memory and replay time.
//!
//! Every repaired model is **bit-for-bit equal** to recomputing from
//! scratch on the churned mesh — statuses, unsafe sets, component ids and
//! cell order, MCC shapes, and therefore every routing decision made on
//! top. The equivalence battery in `tests/churn_equiv.rs` pins this after
//! every step of random inject/heal traces (DESIGN.md §12).
//!
//! The cache is written once over the node space and reaches the
//! per-dimension MCC and block models through [`ModelSpace`].
//!
//! [`apply`]: IncrementalModels::apply
//! [`models`]: IncrementalModels::models
//! [`statuses_repaired`]: IncrementalModels::statuses_repaired
//! [`mccs_extracted`]: IncrementalModels::mccs_extracted
//! [`slot_rebuilds`]: IncrementalModels::slot_rebuilds
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

use mesh_topo::{Mesh, NodeSet, NodeSpace2, NodeSpace3};

use crate::components::Components;
use crate::labelling::Labelling;
use crate::models::{repair_mccs, ModelSpace};
use crate::rfb::FaultBlocks;
use crate::status::BorderPolicy;

/// Maximum number of generations a slot may lag behind before it is
/// dropped and rebuilt from scratch instead of replayed. Also bounds the
/// retained delta log.
pub const LOG_CAP: u64 = 32;

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

/// One recorded churn batch.
#[derive(Clone, Debug)]
struct LogEntry<C> {
    /// The generation this batch produced.
    gen: u64,
    injected: Vec<C>,
    healed: Vec<C>,
}

/// The incrementally maintained models of one orientation.
#[derive(Clone, Debug)]
struct IncSlot<S: ModelSpace> {
    /// Generation the models below reflect.
    synced: u64,
    lab: Labelling<S>,
    comps: Components<S>,
    mccs: S::Mccs,
}

/// Borrowed views of one orientation's incrementally maintained models.
#[derive(Debug)]
pub struct IncModelsRef<'a, S: ModelSpace> {
    /// The labelling of the requested orientation.
    pub lab: &'a Labelling<S>,
    /// Its component decomposition.
    pub comps: &'a Components<S>,
    /// Its MCC shapes.
    pub mccs: &'a S::Mccs,
}

/// Borrowed views of one 2-D orientation's maintained models.
pub type IncModelsRef2<'a> = IncModelsRef<'a, NodeSpace2>;

/// Borrowed views of one 3-D orientation's maintained models.
pub type IncModelsRef3<'a> = IncModelsRef<'a, NodeSpace3>;

/// Owned, churn-capable model cache over a mesh (see the module docs).
#[derive(Clone, Debug)]
pub struct IncrementalModels<S: ModelSpace> {
    mesh: Mesh<S>,
    border: BorderPolicy,
    /// Bumped by every [`IncrementalModels::apply`].
    generation: u64,
    /// Churn batches not yet replayed by every live slot, ascending `gen`.
    log: Vec<LogEntry<S::Coord>>,
    /// One slot per orientation.
    slots: Vec<Option<IncSlot<S>>>,
    blocks: Option<FaultBlocks<S>>,
    /// Generation `blocks` reflects (meaningless while `blocks` is `None`).
    blocks_synced: u64,
    /// Total statuses changed by slot replays — the incremental work done.
    repaired_statuses: usize,
    /// Slots built from scratch (first use, torus re-rotation, or dropped
    /// past [`LOG_CAP`]).
    slot_rebuilds: usize,
    /// MCCs extracted by slot repairs.
    mccs_extracted: usize,
}

/// The incrementally maintained models of a 2-D mesh (4 quadrant slots).
pub type IncrementalModels2 = IncrementalModels<NodeSpace2>;

/// The incrementally maintained models of a 3-D mesh (8 octant slots).
pub type IncrementalModels3 = IncrementalModels<NodeSpace3>;

impl<S: ModelSpace> IncrementalModels<S> {
    /// Take ownership of `mesh`; nothing is computed until requested.
    pub fn new(mesh: Mesh<S>, border: BorderPolicy) -> IncrementalModels<S> {
        IncrementalModels {
            mesh,
            border,
            generation: 0,
            log: Vec::new(),
            slots: (0..S::ORIENTATIONS).map(|_| None).collect(),
            blocks: None,
            blocks_synced: 0,
            repaired_statuses: 0,
            slot_rebuilds: 0,
            mccs_extracted: 0,
        }
    }

    /// The current (churned) mesh.
    pub fn mesh(&self) -> &Mesh<S> {
        &self.mesh
    }

    /// The border policy every maintained labelling uses.
    pub fn border(&self) -> BorderPolicy {
        self.border
    }

    /// Number of churn batches applied so far.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total node statuses changed across all slot replays — grows with the
    /// perturbation sizes, not with mesh size or churn count.
    pub fn statuses_repaired(&self) -> usize {
        self.repaired_statuses
    }

    /// Number of slots built from scratch rather than repaired: first use
    /// of an orientation, a torus slot asked for another rotation, or a
    /// slot dropped for lagging more than [`LOG_CAP`] generations.
    pub fn slot_rebuilds(&self) -> usize {
        self.slot_rebuilds
    }

    /// Number of MCCs slot repairs have extracted — the re-discovered
    /// components plus the carried ones with a changed status. A repair
    /// reuses every other MCC, so this grows with the churn, not with the
    /// number of fault regions. Rebuilt slots are not counted here.
    pub fn mccs_extracted(&self) -> usize {
        self.mccs_extracted
    }

    /// True if the slot holding `frame`'s orientation exists and already
    /// reflects the current generation (a [`models`] call would neither
    /// rebuild nor replay).
    ///
    /// [`models`]: IncrementalModels::models
    pub fn slot_current(&self, frame: S::Frame) -> bool {
        matches!(
            &self.slots[S::frame_index(frame)],
            Some(sl) if sl.lab.frame() == frame && sl.synced == self.generation
        )
    }

    /// True if the block model exists and reflects the current generation.
    pub fn blocks_current(&self) -> bool {
        self.blocks.is_some() && self.blocks_synced == self.generation
    }

    /// Apply one churn batch: inject every fault in `injected`, heal every
    /// fault in `healed`, and record the delta for lazy slot replay.
    ///
    /// The two sets must be disjoint, `injected` all healthy and `healed`
    /// all faulty — batches are *deltas*, not wishes; an overlapping or
    /// already-satisfied entry is a caller bug and panics. Long-lived
    /// callers fed untrusted batches use [`try_apply`] instead.
    ///
    /// [`try_apply`]: IncrementalModels::try_apply
    pub fn apply(&mut self, injected: &[S::Coord], healed: &[S::Coord]) {
        if let Err(e) = self.try_apply(injected, healed) {
            panic!("{e}");
        }
    }

    /// Fallible twin of [`apply`]: validate the batch first and return a
    /// typed [`ChurnError`] instead of panicking. On `Err` the mesh, the
    /// generation counter and every maintained model are untouched, so a
    /// resident service can reject a malformed request and keep serving.
    ///
    /// [`apply`]: IncrementalModels::apply
    pub fn try_apply(
        &mut self,
        injected: &[S::Coord],
        healed: &[S::Coord],
    ) -> Result<(), ChurnError<S::Coord>> {
        let (inj, heal) = self.validated_sets(injected, healed)?;
        let flipped = self.mesh.inject_fault_set(&inj) + self.mesh.heal_fault_set(&heal);
        debug_assert_eq!(flipped, injected.len() + healed.len());
        self.generation += 1;
        self.log.push(LogEntry {
            gen: self.generation,
            injected: injected.to_vec(),
            healed: healed.to_vec(),
        });
        self.compact();
        Ok(())
    }

    /// Validate a churn batch without applying it — exactly the checks
    /// [`try_apply`] runs before mutating anything. A write-ahead-logging
    /// caller validates first, journals the batch, and only then applies
    /// it, so the apply step cannot fail after the log record is durable.
    ///
    /// [`try_apply`]: IncrementalModels::try_apply
    pub fn check(
        &self,
        injected: &[S::Coord],
        healed: &[S::Coord],
    ) -> Result<(), ChurnError<S::Coord>> {
        self.validated_sets(injected, healed).map(|_| ())
    }

    /// The shared validation pass behind [`check`] and [`try_apply`]:
    /// check order matches the historical assert order (duplicates,
    /// overlap, already-faulty, not-faulty) so which error a multiply
    /// malformed batch reports stays stable.
    ///
    /// [`check`]: IncrementalModels::check
    /// [`try_apply`]: IncrementalModels::try_apply
    fn validated_sets(
        &self,
        injected: &[S::Coord],
        healed: &[S::Coord],
    ) -> Result<(NodeSet, NodeSet), ChurnError<S::Coord>> {
        let space = self.mesh.space();
        let faulty = self.mesh.fault_set();
        let mut inj = NodeSet::new(space.node_count());
        for &c in injected {
            let i = space.index_checked(c).ok_or(ChurnError::OutOfBounds(c))?;
            if !inj.insert(i) {
                return Err(ChurnError::DuplicateInjected(c));
            }
        }
        let mut heal = NodeSet::new(space.node_count());
        for &c in healed {
            let i = space.index_checked(c).ok_or(ChurnError::OutOfBounds(c))?;
            if !heal.insert(i) {
                return Err(ChurnError::DuplicateHealed(c));
            }
        }
        for &c in healed {
            if inj.contains(space.index(c)) {
                return Err(ChurnError::Overlap(c));
            }
        }
        for &c in injected {
            if faulty.contains(space.index(c)) {
                return Err(ChurnError::AlreadyFaulty(c));
            }
        }
        for &c in healed {
            if !faulty.contains(space.index(c)) {
                return Err(ChurnError::NotFaulty(c));
            }
        }
        Ok((inj, heal))
    }

    /// Drop slots too stale to replay and log entries every live slot has
    /// already consumed.
    fn compact(&mut self) {
        let cutoff = self.generation.saturating_sub(LOG_CAP);
        for slot in &mut self.slots {
            if matches!(slot, Some(sl) if sl.synced < cutoff) {
                *slot = None;
            }
        }
        let keep_after = self
            .slots
            .iter()
            .flatten()
            .map(|sl| sl.synced)
            .min()
            .unwrap_or(self.generation);
        self.log.retain(|e| e.gen > keep_after);
    }

    /// Fetch the maintained models for `frame`'s orientation, bringing its
    /// slot up to the current generation first: an empty (or, on a torus,
    /// differently-rotated) slot is built from scratch; a lagging slot
    /// replays the labelling repair of each churn batch it has not seen,
    /// then repairs components and MCCs in place **once**, over the merged
    /// dirty regions of those batches.
    pub fn models(&mut self, frame: S::Frame) -> IncModelsRef<'_, S> {
        let idx = S::frame_index(frame);
        let rebuild = !matches!(&self.slots[idx], Some(sl) if sl.lab.frame() == frame);
        if rebuild {
            let lab = Labelling::compute(&self.mesh, frame, self.border);
            let comps = Components::compute(&lab);
            let mccs = S::mccs(&lab);
            self.slots[idx] = Some(IncSlot {
                synced: self.generation,
                lab,
                comps,
                mccs,
            });
            self.slot_rebuilds += 1;
        }
        let slot = self.slots[idx].as_mut().expect("just filled");
        if slot.synced < self.generation {
            // A node that flips and flips back inside the window stays in
            // the merged list: a harmless dirty mark, since the component
            // and MCC repairs only need a superset of the flipped nodes.
            let mut changed = Vec::new();
            for e in self.log.iter().filter(|e| e.gen > slot.synced) {
                let step = slot.lab.repair(&e.injected, &e.healed);
                self.repaired_statuses += step.len();
                changed.extend(step);
            }
            changed.sort_unstable();
            changed.dedup();
            let splice = slot.comps.repair(&slot.lab, &changed);
            self.mccs_extracted +=
                repair_mccs(&mut slot.mccs, &slot.lab, &slot.comps, &splice, &changed);
            slot.synced = self.generation;
        }
        let slot = self.slots[idx].as_ref().expect("just filled");
        IncModelsRef {
            lab: &slot.lab,
            comps: &slot.comps,
            mccs: &slot.mccs,
        }
    }

    /// The orientation-free block model of the current mesh, recomputed
    /// lazily after churn (any applied batch invalidates it wholesale).
    pub fn blocks(&mut self) -> &FaultBlocks<S> {
        if !self.blocks_current() {
            self.blocks = Some(FaultBlocks::compute(&self.mesh));
            self.blocks_synced = self.generation;
        }
        self.blocks.as_ref().expect("just filled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultBlocks2;
    use mesh_topo::coord::{c2, c3};
    use mesh_topo::{Frame2, Frame3, Mesh2D, Mesh3D, C2};

    fn assert_slot_matches_fresh<S: ModelSpace>(inc: &mut IncrementalModels<S>, frame: S::Frame)
    where
        S::Mccs: PartialEq,
    {
        let mesh = inc.mesh().clone();
        let border = inc.border();
        let m = inc.models(frame);
        let lab = Labelling::compute(&mesh, frame, border);
        for ((c, a), (_, b)) in m.lab.iter().zip(lab.iter()) {
            assert_eq!(a, b, "status diverged at {c} for {frame:?}");
        }
        assert_eq!(m.lab.unsafe_set(), lab.unsafe_set());
        assert_eq!(m.comps.cells, Components::compute(&lab).cells);
        assert_eq!(m.mccs, &S::mccs(&lab));
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
        assert!(inc.statuses_repaired() > 0, "replays must have done work");
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
        // invalidates the slot — staleness is generation-based, and the
        // replay (not the validity test) is what localizes the work.
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
        assert_eq!(blocks.blocks, fresh.blocks);
        assert!(
            !blocks.is_disabled(c2(4, 4)),
            "healed node must leave the block"
        );
    }

    #[test]
    fn lagging_slot_is_dropped_and_rebuilt_after_log_cap() {
        let mut mesh = Mesh2D::new(9, 9);
        mesh.inject_fault(c2(4, 4));
        let mut inc = IncrementalModels2::new(mesh, BorderPolicy::BorderSafe);
        let frames = Frame2::all(inc.mesh());
        inc.models(frames[0]);
        inc.models(frames[1]);
        // Churn far past LOG_CAP, keeping only frames[0] in sync.
        for i in 0..(LOG_CAP + 10) {
            let c = c2((i % 7) as i32, (i / 7 % 7) as i32 + 1);
            if inc.mesh().is_healthy(c) {
                inc.apply(&[c], &[]);
            } else {
                inc.apply(&[], &[c]);
            }
            inc.models(frames[0]);
        }
        assert!(
            inc.log.len() <= LOG_CAP as usize + 1,
            "log must stay bounded, got {}",
            inc.log.len()
        );
        assert!(inc.slots[frames[1].index()].is_none(), "stale slot dropped");
        // The rebuilt slot still matches a from-scratch computation.
        assert_slot_matches_fresh(&mut inc, frames[1]);
        assert_slot_matches_fresh(&mut inc, frames[0]);
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
            assert!(inc.blocks_current() || inc.generation() > 0);
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
        assert_eq!(inc.slot_rebuilds(), rebuilds, "a replay rebuilds nothing");
        assert!(
            inc.mccs_extracted() - extracted <= 2,
            "extracted {} MCCs",
            inc.mccs_extracted() - extracted
        );
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
            assert_eq!(inc.generation(), 0, "rejected batch must not bump gen");
            assert_eq!(inc.mesh().fault_set(), &before_faults);
            assert!(inc.slot_current(frame), "rejected batch must not stale");
        }

        // A valid batch after the rejections still applies cleanly.
        assert_eq!(inc.try_apply(&[c2(4, 4)], &[c2(2, 2)]), Ok(()));
        assert_eq!(inc.generation(), 1);
        assert!(inc.mesh().is_healthy(c2(2, 2)));
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
        assert_eq!(inc.generation(), 0);
        assert_eq!(inc.try_apply(&[c3(2, 2, 2)], &[c3(1, 1, 1)]), Ok(()));
        assert_eq!(inc.generation(), 1);
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
        fn case<S: ModelSpace>(mesh: Mesh<S>, frame: S::Frame, heal: S::Coord, probe: S::Coord) {
            let mut inc = IncrementalModels::<S>::new(mesh, BorderPolicy::BorderSafe);
            assert!(inc.models(frame).lab.status(probe).is_useless());

            SKIP_HEAL_RETRACTION.with(|f| f.set(true));
            inc.apply(&[], &[heal]);
            let stale = inc.models(frame).lab.status(probe);
            let fresh = Labelling::<S>::compute(inc.mesh(), frame, BorderPolicy::BorderSafe);
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
        case::<NodeSpace2>(torus, frame, c2(1, 2), c2(11, 2));

        // 3-D seam: the corner (5,5,5) is sealed only by its three wrapped
        // `+` neighbors; healing (0,5,5) must retract it across the X wrap.
        let mut torus = Mesh3D::torus_kary(6);
        for c in [c3(0, 5, 5), c3(5, 0, 5), c3(5, 5, 0)] {
            torus.inject_fault(c);
        }
        let frame = Frame3::identity(&torus);
        case::<NodeSpace3>(torus, frame, c3(0, 5, 5), c3(5, 5, 5));
    }
}
