//! Rectangular / cuboid faulty blocks — the classical baseline model,
//! written once over the 2-D and 3-D node spaces.
//!
//! The conventional orthogonal convex fault model (Boppana–Chalasani; the
//! 3-D routing literature the paper compares against uses its cuboid
//! form): a healthy node is *disabled* if it has **two or more**
//! faulty-or-disabled neighbors, and each connected disabled component is
//! widened to its bounding box and filled, until the disabled set is a
//! disjoint union of full boxes. The model is orientation-blind and much
//! more aggressive than MCC: it is the baseline the paper's evaluation
//! counts sacrificed healthy nodes against.
//!
//! The rule is 2-neighbour bootstrap percolation, run in frontier form:
//! every node counts its disabled neighbors and enters the worklist once,
//! when it is disabled. Worklist entries carry their coordinates, so a
//! neighbor probe never divides. After the closure one pass finds each
//! component's box; boxes that are not full are filled and the closure
//! resumes. That fill fires only on a torus, where a component crossing
//! the wrap seam has a grid-spanning box. At the fixpoint no boxes merge,
//! and [`FaultBlocks::blocks`] lists them in ascending linear index of
//! their min corners (DESIGN.md §6, "The faulty-block kernel").

use mesh_topo::{Mesh, NodeSet, NodeSpace2, NodeSpace3, Space};

use crate::oracle::Useful;

/// The faulty-block decomposition of a mesh or torus.
///
/// The disabled set is a [`NodeSet`] bitset over the mesh's node space.
/// All coordinates are mesh coordinates: the model is
/// orientation-independent.
#[derive(Clone, Debug)]
pub struct FaultBlocks<S: Space> {
    space: S,
    disabled: NodeSet,
    /// The fault blocks: disjoint, each fully disabled, in ascending
    /// linear index of their min corners.
    pub blocks: Vec<S::Block>,
    fault_count: usize,
}

/// The rectangular-block model of a 2-D mesh.
pub type FaultBlocks2 = FaultBlocks<NodeSpace2>;

/// The cuboid-block model of a 3-D mesh.
pub type FaultBlocks3 = FaultBlocks<NodeSpace3>;

impl<S: Space> FaultBlocks<S> {
    /// Compute the block closure of the mesh's fault set.
    pub fn compute(mesh: &Mesh<S>) -> FaultBlocks<S> {
        let space = mesh.space();
        let faults = mesh.fault_set();
        let mut k = Closure::new(Geometry::of(space), faults);
        let mut boxes = loop {
            k.close();
            let boxes = k.component_boxes();
            if !k.fill(&boxes) {
                break boxes;
            }
        };
        // Each box is full, so its min corner is its component's first node.
        boxes.sort_unstable_by_key(|b| k.geo.index(b.lo));
        let corner = |c| space.coord(k.geo.index(c) as usize);
        FaultBlocks {
            space,
            disabled: k.disabled_set(),
            blocks: boxes
                .iter()
                .map(|b| S::block(corner(b.lo), corner(b.hi)))
                .collect(),
            fault_count: faults.len(),
        }
    }

    /// True if `c` is inside some fault block (faulty or disabled).
    #[inline]
    pub fn is_disabled(&self, c: S::Coord) -> bool {
        self.space
            .index_checked(c)
            .is_some_and(|i| self.disabled.contains(i))
    }

    /// Healthy nodes sacrificed by the model (disabled but not faulty).
    pub fn sacrificed_count(&self) -> usize {
        self.disabled.len() - self.fault_count
    }

    /// Total disabled nodes (faulty + sacrificed).
    pub fn disabled_count(&self) -> usize {
        self.disabled.len()
    }
}

impl<S: Space> FaultBlocks<S> {
    /// Existence of a minimal path from `s` to `d` **under the block model**:
    /// a monotone path (after canonicalization) avoiding every disabled node.
    /// This is how block-based routing decides success — endpoints inside a
    /// block or separated by blocks fail even when the physical fault set
    /// would admit a minimal path. `s`, `d` are mesh coordinates.
    pub fn minimal_path_exists(&self, mesh: &Mesh<S>, s: S::Coord, d: S::Coord) -> bool {
        self.minimal_path_exists_in(mesh, s, d, &mut Useful::scratch())
    }

    /// [`FaultBlocks::minimal_path_exists`] with a caller-provided scratch
    /// buffer for the reachability sweep, which reads the disabled set's
    /// rows directly (see [`Useful::recompute_set`]). When it returns
    /// `true`, `useful` holds the block-useful set of the canonical pair.
    pub fn minimal_path_exists_in(
        &self,
        mesh: &Mesh<S>,
        s: S::Coord,
        d: S::Coord,
        useful: &mut Useful<S>,
    ) -> bool {
        if self.is_disabled(s) || self.is_disabled(d) {
            return false;
        }
        let frame = S::frame_for_pair(mesh, s, d);
        let (cs, cd) = (S::to_canon(frame, s), S::to_canon(frame, d));
        useful.recompute_set(cs, cd, &self.disabled, self.space, Some(frame));
        useful.contains(cs)
    }
}

/// A node's linear index and its `[x, y, z]` coordinates, in 16 bytes so
/// the worklist stays small.
type Node = (u32, [u32; 3]);

/// The extents, strides and wrap mode of a node space, `x` fastest.
#[derive(Clone, Copy)]
struct Geometry {
    extent: [u32; 3],
    stride: [u32; 3],
    wrap: bool,
}

impl Geometry {
    fn of<S: Space>(space: S) -> Geometry {
        u32::try_from(space.node_count()).expect("block model: more than 2^32 nodes");
        let extent = space.extents().map(|n| n as u32);
        Geometry {
            extent,
            stride: [1, extent[0], extent[0] * extent[1]],
            wrap: space.wraps(),
        }
    }

    fn index(self, c: [u32; 3]) -> u32 {
        c[0] + c[1] * self.stride[1] + c[2] * self.stride[2]
    }

    fn node(self, i: usize) -> Node {
        let [nx, ny, _] = self.extent;
        let i = i as u32;
        (i, [i % nx, i / nx % ny, i / (nx * ny)])
    }

    /// Call `f` with every face neighbor of `u`, once per adjacency: on an
    /// extent-2 torus axis both directions reach the same node, which is
    /// then reported twice. Axes of extent 1 have no neighbors.
    #[inline]
    fn for_neighbors(self, (i, c): Node, mut f: impl FnMut(Node)) {
        for a in 0..3 {
            let (n, s) = (self.extent[a], self.stride[a]);
            if n == 1 {
                continue;
            }
            let (mut up, mut down) = (c, c);
            if c[a] + 1 < n {
                up[a] += 1;
                f((i + s, up));
            } else if self.wrap {
                up[a] = 0;
                f((i + s - n * s, up));
            }
            if c[a] > 0 {
                down[a] -= 1;
                f((i - s, down));
            } else if self.wrap {
                down[a] = n - 1;
                f((i + (n - 1) * s, down));
            }
        }
    }
}

/// The bounding box of one connected disabled component.
struct Bounds {
    lo: [u32; 3],
    hi: [u32; 3],
    /// True if every node of the box is disabled.
    full: bool,
}

/// Flags of a node's state byte; the low bits count its disabled
/// neighbors (at most 6), per adjacency.
const DISABLED: u8 = 0x80;
const SEEN: u8 = 0x40;

/// The scratch state of one [`FaultBlocks::compute`].
struct Closure {
    geo: Geometry,
    /// Per node: its disabled-neighbor count, `DISABLED` and, during a
    /// component pass, `SEEN`.
    state: Vec<u8>,
    /// Every disabled node, in the order it was disabled. The worklist is
    /// `disabled[next..]`: the nodes whose neighbors' counts are not yet
    /// raised.
    disabled: Vec<Node>,
    next: usize,
}

impl Closure {
    /// The state of `faults` before any propagation: every fault disabled
    /// and enqueued.
    fn new(geo: Geometry, faults: &NodeSet) -> Closure {
        let mut state = vec![0; faults.capacity()];
        // Grown on demand, not reserved for every node: on a large mesh
        // that reservation is an mmap, and glibc raises its mmap threshold
        // when one is freed, which slowed the per-pair layers of the
        // `batch` benchmark by 4 %.
        let mut disabled = Vec::with_capacity(faults.len());
        for i in faults.iter() {
            state[i] = DISABLED;
            disabled.push(geo.node(i));
        }
        Closure {
            geo,
            state,
            disabled,
            next: 0,
        }
    }

    /// Drain the worklist: raise the counts around each newly disabled
    /// node, and disable (and enqueue) every node whose count reaches 2.
    /// A disabled node's byte never equals 2, so it is enqueued only once.
    fn close(&mut self) {
        let geo = self.geo;
        while let Some(&u) = self.disabled.get(self.next) {
            self.next += 1;
            geo.for_neighbors(u, |v| {
                let s = &mut self.state[v.0 as usize];
                *s += 1;
                if *s == 2 {
                    *s |= DISABLED;
                    self.disabled.push(v);
                }
            });
        }
    }

    /// The bounding box of every connected disabled component.
    fn component_boxes(&mut self) -> Vec<Bounds> {
        let geo = self.geo;
        if self.disabled.len() == self.state.len() {
            // Percolation: the one component is the whole grid.
            return vec![Bounds {
                lo: [0; 3],
                hi: geo.extent.map(|n| n - 1),
                full: true,
            }];
        }
        let mut stack: Vec<Node> = Vec::new();
        let mut boxes = Vec::new();
        for k in 0..self.disabled.len() {
            let start = self.disabled[k];
            if self.state[start.0 as usize] & SEEN != 0 {
                continue;
            }
            self.state[start.0 as usize] |= SEEN;
            let (mut lo, mut hi, mut size) = (start.1, start.1, 0u32);
            stack.push(start);
            while let Some(u) = stack.pop() {
                size += 1;
                for a in 0..3 {
                    lo[a] = lo[a].min(u.1[a]);
                    hi[a] = hi[a].max(u.1[a]);
                }
                geo.for_neighbors(u, |v| {
                    let s = &mut self.state[v.0 as usize];
                    if *s & (DISABLED | SEEN) == DISABLED {
                        *s |= SEEN;
                        stack.push(v);
                    }
                });
            }
            let volume: u32 = (0..3).map(|a| hi[a] - lo[a] + 1).product();
            boxes.push(Bounds {
                lo,
                hi,
                full: size == volume,
            });
        }
        boxes
    }

    /// Disable and enqueue every node of every box that is not full, and
    /// clear the component marks for the next pass. Returns true if any
    /// node changed.
    fn fill(&mut self, boxes: &[Bounds]) -> bool {
        let mut filled = false;
        for b in boxes.iter().filter(|b| !b.full) {
            for z in b.lo[2]..=b.hi[2] {
                for y in b.lo[1]..=b.hi[1] {
                    for x in b.lo[0]..=b.hi[0] {
                        let i = self.geo.index([x, y, z]);
                        let s = &mut self.state[i as usize];
                        if *s & DISABLED == 0 {
                            *s |= DISABLED;
                            self.disabled.push((i, [x, y, z]));
                            filled = true;
                        }
                    }
                }
            }
        }
        if filled {
            for &(i, _) in &self.disabled {
                self.state[i as usize] &= !SEEN;
            }
        }
        filled
    }

    /// The disabled nodes as a bitset.
    fn disabled_set(&self) -> NodeSet {
        let mut words = vec![0u64; self.state.len().div_ceil(64)];
        for &(i, _) in &self.disabled {
            words[i as usize / 64] |= 1 << (i % 64);
        }
        NodeSet::from_raw_words(self.state.len(), words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_2_wrap_axis_counts_its_one_neighbor_twice() {
        // On a wrapping axis of extent 2 the +x and -x neighbors of a node
        // are the same node, which the rule counts twice: one fault
        // disables its partner across the axis, and nothing else.
        let geo = Geometry {
            extent: [2, 4, 1],
            stride: [1, 2, 8],
            wrap: true,
        };
        let mut k = Closure::new(geo, &NodeSet::from_indices(8, [0]));
        k.close();
        assert_eq!(k.disabled_set(), NodeSet::from_indices(8, [0, 1]));
    }
}
