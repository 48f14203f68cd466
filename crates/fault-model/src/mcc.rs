//! Minimal Connected Components: the fault-region record, written once
//! over the node space.
//!
//! Each connected component of the unsafe set (8-connectivity in 2-D,
//! 18-connectivity in 3-D, see [`crate::components`]) is one MCC. Its
//! record is what the labelling closure defines and the evaluation counts:
//! the member cells, their bounding box, and the split of the cells into
//! faulty and sacrificed (useless / can't-reach) nodes.
//!
//! No routing step reads an MCC: Theorems 1–2 and the exact routers use
//! the labelling's unsafe closure (DESIGN.md §1, §9). The shape queries
//! that the region tests, the examples and the protocol twins compare
//! against — the 2-D forbidden/critical regions and HV-convexity in
//! [`crate::mcc2`], the 3-D plane sections in [`crate::mcc3`] — are
//! derived from the cells on demand, so a record's memory is O(cells),
//! whatever its bounding-box volume.

use mesh_topo::Coord;

use crate::components::{Components, Splice};
use crate::labelling::Labelling;

/// One Minimal Connected Component of a labelling (canonical coordinates).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mcc<C: Coord> {
    /// All member cells, in component discovery order.
    pub cells: Vec<C>,
    /// Bounding box of the cells.
    pub bounds: C::Block,
    /// Number of faulty cells.
    pub fault_count: usize,
    /// Number of healthy (useless / can't-reach) cells.
    pub sacrificed_count: usize,
}

/// All MCCs of one labelling.
#[derive(Clone, Debug, PartialEq)]
pub struct MccSet<C: Coord> {
    /// The components, indexed by component position.
    pub mccs: Vec<Mcc<C>>,
}

impl<C: Coord> Mcc<C> {
    /// The MCC of one component from its cells and their statuses in `lab`.
    pub(crate) fn from_cells(cells: Vec<C>, lab: &Labelling<C>) -> Mcc<C> {
        debug_assert!(!cells.is_empty());
        let (mut lo, mut hi) = (cells[0].xyz(), cells[0].xyz());
        let mut fault_count = 0;
        for &c in &cells {
            let p = c.xyz();
            for a in 0..3 {
                lo[a] = lo[a].min(p[a]);
                hi[a] = hi[a].max(p[a]);
            }
            fault_count += usize::from(lab.status(c).is_faulty());
        }
        Mcc {
            bounds: C::block(C::from_xyz(lo), C::from_xyz(hi)),
            sacrificed_count: cells.len() - fault_count,
            fault_count,
            cells,
        }
    }

    /// Total number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// MCCs are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// True if the component occupies cell `c`.
    pub fn contains(&self, c: C) -> bool {
        self.cells.contains(&c)
    }
}

impl<C: Coord> MccSet<C> {
    /// Extract all MCCs of a labelling.
    pub fn compute(lab: &Labelling<C>) -> MccSet<C> {
        MccSet::from_components(&Components::compute(lab), lab)
    }

    /// The MCCs of `comps`, the component decomposition of `lab`: one
    /// record per component, in component order. A caller that keeps the
    /// components builds the records from them instead of discovering the
    /// components a second time.
    pub fn from_components(comps: &Components<C>, lab: &Labelling<C>) -> MccSet<C> {
        MccSet {
            mccs: comps
                .cells
                .iter()
                .map(|cells| Mcc::from_cells(cells.clone(), lab))
                .collect(),
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.mccs.len()
    }

    /// True if there are no unsafe nodes.
    pub fn is_empty(&self) -> bool {
        self.mccs.is_empty()
    }

    /// Iterate the components.
    pub fn iter(&self) -> impl Iterator<Item = &Mcc<C>> {
        self.mccs.iter()
    }

    /// Total healthy nodes captured by fault regions.
    pub fn total_sacrificed(&self) -> usize {
        self.mccs.iter().map(|m| m.sacrificed_count).sum()
    }

    /// The component containing canonical `c`, if any.
    pub fn component_containing(&self, c: C) -> Option<&Mcc<C>> {
        self.mccs.iter().find(|m| m.contains(c))
    }

    /// Repair the set after a component repair: `comps` is the repaired
    /// decomposition, `splice` what [`Components::repair`] returned, and
    /// `changed` the dirty region it was given. The splice drops the MCCs
    /// of removed components and extracts those of re-discovered ones in
    /// place; a carried component holding **any** status-changed cell is
    /// re-extracted too — a cell can flip useless→faulty without a
    /// membership change, which moves the fault/sacrificed split even
    /// though the cells are untouched. No other MCC is read or written, and
    /// the result is bit-for-bit equal to [`MccSet::compute`] (DESIGN.md
    /// §12). Returns the number of MCCs extracted.
    pub(crate) fn repair(
        &mut self,
        lab: &Labelling<C>,
        comps: &Components<C>,
        splice: &Splice,
        changed: &[usize],
    ) -> usize {
        let extract = |p: usize| Mcc::from_cells(comps.cells[p].clone(), lab);
        splice.apply(&mut self.mccs, extract);
        let mut dirty: Vec<usize> = changed
            .iter()
            .filter_map(|&i| comps.position_at(i))
            .filter(|p| splice.inserted.binary_search(p).is_err())
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        for &p in &dirty {
            self.mccs[p] = extract(p);
        }
        splice.inserted.len() + dirty.len()
    }
}
