//! Exact monotone-reachability ground truth.
//!
//! A minimal route from a canonical `s` to `d` (`s ≤ d` componentwise) uses
//! only positive moves and never leaves the Region of Minimal Paths
//! `[s, d]`. Whether such a route exists around a blocked set is a simple
//! dynamic program over that box. This module is the *oracle* the whole
//! reproduction is validated against:
//!
//! * the MCC existence conditions (Lemma 1 / Theorems 1–2) must agree with
//!   [`reachable_2d`] / [`reachable_3d`] on the fault set,
//! * Wang's minimality theorem — avoiding the unsafe *closure* blocks no more
//!   destinations than avoiding the faults — is property-tested by comparing
//!   the oracle on the two blocked sets,
//! * per-hop routing decisions use the backward variant ([`Useful`]): the
//!   set of nodes from which the destination is still monotonically
//!   reachable.
//!
//! # The kernel
//!
//! [`Useful`] stores the box as rows along `x`, one bit per node, each row
//! **reversed** so bit `i` is `x = d.x − i`: reachability then flows from
//! low bits to high bits, the direction a carry runs. The rows are swept
//! from `d` backward, `z` outer and `y` inner, so the `+Y` and `+Z`
//! neighbor rows are final when a row is reached. A row's *seeds* are its
//! free nodes with a useful `+Y` or `+Z` neighbor (and `d` itself in the
//! last row); every free node of a free run that starts at a seed is
//! useful too. One carry-propagating add per word finds those runs: the
//! run fill of `crate::rows`, which the labelling and block closures
//! share. Rows wider than 64 nodes carry the add and the shifted-in seed
//! bit across words.
//!
//! The free bits of a row come from one of two places:
//!
//! * [`Useful::recompute_set`] reads them straight from a [`NodeSet`] —
//!   the mesh's fault set, a labelling's unsafe set, a block model's
//!   disabled set — with no per-node work. The frame fixes one mesh run
//!   per row (two when a torus row crosses the wrap seam); a reflected `x`
//!   axis already lists the row in reversed order, an unreflected one is
//!   bit-reversed after the copy. The direction comes from the frame's
//!   reflection, never from the mesh images of the row's two ends: when
//!   `d` sits at Lee distance `k/2` a wrapping row's ends differ by
//!   exactly `k/2` too.
//! * [`Useful::recompute`] asks a `blocked` closure once per box node and
//!   hands the rows to the same sweep.

use mesh_topo::{Coord, Frame, NodeSet, NodeSpace, C2, C3};

use crate::rows::{put_bits, reverse_row, take_bits, RunFill};

/// True if a monotone (`+X`/`+Y`) path from `s` to `d` exists that avoids
/// every node for which `blocked` returns true. Requires `s ≤ d`
/// componentwise; endpoints themselves must not be blocked.
///
/// # Panics
/// If `s` does not precede `d` componentwise.
pub fn reachable_2d(s: C2, d: C2, blocked: impl Fn(C2) -> bool) -> bool {
    Useful2::compute(s, d, blocked).contains(s)
}

/// [`reachable_2d`] with a caller-provided scratch buffer (see
/// [`Useful::recompute`]); the buffer's previous contents are discarded.
///
/// # Panics
/// If `s` does not precede `d` componentwise.
pub fn reachable_2d_in(s: C2, d: C2, blocked: impl Fn(C2) -> bool, useful: &mut Useful2) -> bool {
    useful.recompute(s, d, blocked);
    useful.contains(s)
}

/// True if a monotone (`+X`/`+Y`/`+Z`) path from `s` to `d` exists avoiding
/// `blocked` nodes. Requires `s ≤ d` componentwise.
///
/// # Panics
/// If `s` does not precede `d` componentwise.
pub fn reachable_3d(s: C3, d: C3, blocked: impl Fn(C3) -> bool) -> bool {
    Useful3::compute(s, d, blocked).contains(s)
}

/// [`reachable_3d`] with a caller-provided scratch buffer (see
/// [`Useful::recompute`]); the buffer's previous contents are discarded.
///
/// # Panics
/// If `s` does not precede `d` componentwise.
pub fn reachable_3d_in(s: C3, d: C3, blocked: impl Fn(C3) -> bool, useful: &mut Useful3) -> bool {
    useful.recompute(s, d, blocked);
    useful.contains(s)
}

/// The backward reachability set: all nodes `u` in the box `[s, d]` from
/// which `d` is monotonically reachable avoiding blocked nodes.
///
/// A fully-adaptive minimal router that only ever steps onto *useful*
/// neighbors can never get stuck and always produces a minimal path.
///
/// The set is stored as reversed bit rows along `x` and filled by the
/// word-parallel sweep of the module docs.
#[derive(Clone, Debug)]
pub struct Useful<C: Coord> {
    s: C,
    d: C,
    /// Rows per `z` plane (the box's `y` extent).
    wy: usize,
    /// Words per row.
    wpr: usize,
    /// Row `(z − s.z)·wy + (y − s.y)` occupies words `row·wpr ..`; bit
    /// `i` of a row is the node at `x = d.x − i`.
    rows: Vec<u64>,
}

/// The backward reachability set in 2-D.
pub type Useful2 = Useful<C2>;

/// The backward reachability set in 3-D.
pub type Useful3 = Useful<C3>;

impl<C: Coord> Useful<C> {
    /// An empty scratch instance (a degenerate one-node box) whose storage
    /// is meant to be recycled through [`Useful::recompute`] or
    /// [`Useful::recompute_set`].
    pub fn scratch() -> Useful<C> {
        let origin = C::from_xyz([0; 3]);
        Useful {
            s: origin,
            d: origin,
            wy: 1,
            wpr: 1,
            rows: vec![0],
        }
    }

    /// Recompute the useful set for a new box `[s, d]`, asking `blocked`
    /// once per box node, reusing this instance's storage (no allocation
    /// once the buffer has grown to the largest box seen). Equivalent to
    /// `*self = Useful::compute(..)`.
    ///
    /// # Panics
    /// If `s` does not precede `d` componentwise.
    pub fn recompute(&mut self, s: C, d: C, blocked: impl Fn(C) -> bool) {
        let (x0, x1) = (s.xyz()[0], d.xyz()[0]);
        self.sweep(s, d, |y, z, row| {
            for (i, x) in (x0..=x1).rev().enumerate() {
                if !blocked(C::from_xyz([x, y, z])) {
                    row[i / 64] |= 1 << (i % 64);
                }
            }
        });
    }

    /// Recompute the useful set for a new box `[s, d]` whose blocked nodes
    /// are the members of `set`, a bitset over `space`. `frame` maps box
    /// coordinates to `space` coordinates (a node `c` is blocked iff
    /// `set` holds `space.index(frame.from_canon(c))`); `None` means
    /// the set is indexed by the box coordinates themselves, as a
    /// labelling's unsafe set is. Each row is copied out of the set's
    /// words whole; no node is visited on its own.
    ///
    /// # Panics
    /// If `s` does not precede `d` componentwise, or the box does not lie
    /// inside `space`'s extents.
    pub fn recompute_set(
        &mut self,
        s: C,
        d: C,
        set: &NodeSet,
        space: NodeSpace<C>,
        frame: Option<Frame<C>>,
    ) {
        let (lo, hi, ext) = (s.xyz(), d.xyz(), space.extents());
        assert!(
            (0..3).all(|k| 0 <= lo[k] && lo[k] <= hi[k] && (hi[k] as usize) < ext[k]),
            "oracle requires canonical s <= d inside {space:?}, got {s:?} {d:?}"
        );
        let to_space = |c| frame.map_or(c, |f| f.from_canon(c));
        // The node-space run of each row starts at the image of `d.x`
        // when the frame reflects `x` (the run is then already reversed)
        // and at the image of `s.x` otherwise.
        let flip = frame.is_some_and(|f| f.flips(0));
        let xs = if flip { hi[0] } else { lo[0] };
        let wx = (hi[0] - lo[0] + 1) as usize;
        let width = ext[0];
        let mstart = to_space(C::from_xyz([xs, lo[1], lo[2]])).xyz()[0] as usize;
        // Nodes before the wrap seam; a torus row may continue at x = 0.
        let head = wx.min(width - mstart);
        let words = set.words();
        self.sweep(s, d, |y, z, row| {
            let start = space.index(to_space(C::from_xyz([xs, y, z])));
            if let [one] = row {
                let mut run = take_bits(words, start, head);
                if head < wx {
                    run |= take_bits(words, start - mstart, wx - head) << head;
                }
                let blocked = if flip {
                    run
                } else {
                    run.reverse_bits() >> (64 - wx)
                };
                *one = !blocked & (u64::MAX >> (64 - wx));
            } else {
                put_bits(row, 0, words, start, head);
                if head < wx {
                    put_bits(row, head, words, start - mstart, wx - head);
                }
                if !flip {
                    reverse_row(row, wx);
                }
                for w in row.iter_mut() {
                    *w = !*w;
                }
                row[row.len() - 1] &= u64::MAX >> (row.len() * 64 - wx);
            }
        });
    }

    /// Compute the useful set for the box `[s, d]`.
    ///
    /// # Panics
    /// If `s` does not precede `d` componentwise.
    pub fn compute(s: C, d: C, blocked: impl Fn(C) -> bool) -> Useful<C> {
        let mut u = Useful::scratch();
        u.recompute(s, d, blocked);
        u
    }

    /// The word-parallel sweep: shape the rows for `[s, d]`, then, from
    /// `d`'s row backward, let `fill(y, z, row)` set the row's free bits
    /// (the row arrives zeroed) and turn them into its useful bits.
    fn sweep(&mut self, s: C, d: C, mut fill: impl FnMut(i32, i32, &mut [u64])) {
        let (lo, hi) = (s.xyz(), d.xyz());
        assert!(
            (0..3).all(|k| lo[k] <= hi[k]),
            "oracle requires canonical s <= d, got {s:?} {d:?}"
        );
        let [wx, wy, wz] = [0, 1, 2].map(|k| (hi[k] - lo[k] + 1) as usize);
        let wpr = wx.div_ceil(64);
        let nrows = wy * wz;
        self.rows.clear();
        self.rows.resize(nrows * wpr, 0);
        let mut r = nrows;
        for zi in (0..wz).rev() {
            for yi in (0..wy).rev() {
                r -= 1;
                let (done, later) = self.rows.split_at_mut((r + 1) * wpr);
                let row = &mut done[r * wpr..];
                fill(lo[1] + yi as i32, lo[2] + zi as i32, row);
                // Row r + 1 is the +Y neighbor row, row r + wy the +Z one.
                let up_y = (yi + 1 < wy).then(|| &later[..wpr]);
                let up_z = (zi + 1 < wz).then(|| &later[(wy - 1) * wpr..wy * wpr]);
                let d_row = r + 1 == nrows;
                let mut fill = RunFill::default();
                for k in 0..wpr {
                    let free = row[k];
                    let mut above = up_y.map_or(0, |w| w[k]) | up_z.map_or(0, |w| w[k]);
                    if d_row && k == 0 {
                        above |= 1; // d itself
                    }
                    row[k] = fill.word(free, free & above);
                }
            }
        }
        self.s = s;
        self.d = d;
        self.wy = wy;
        self.wpr = wpr;
    }

    /// True if `c` lies in `[s, d]` and `d` is monotonically reachable from it.
    #[inline]
    pub fn contains(&self, c: C) -> bool {
        let (c, lo, hi) = (c.xyz(), self.s.xyz(), self.d.xyz());
        if (0..3).any(|k| c[k] < lo[k] || c[k] > hi[k]) {
            return false;
        }
        let i = (hi[0] - c[0]) as usize;
        let row = (c[2] - lo[2]) as usize * self.wy + (c[1] - lo[1]) as usize;
        (self.rows[row * self.wpr + i / 64] >> (i % 64)) & 1 != 0
    }

    /// Number of useful nodes in the box.
    pub fn count(&self) -> usize {
        self.rows.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_topo::coord::{c2, c3};
    use std::collections::HashSet;

    #[test]
    fn open_box_everything_reachable() {
        assert!(reachable_2d(c2(0, 0), c2(5, 5), |_| false));
        let u = Useful2::compute(c2(0, 0), c2(3, 2), |_| false);
        assert_eq!(u.count(), 12);
        assert!(reachable_3d(c3(0, 0, 0), c3(3, 3, 3), |_| false));
    }

    #[test]
    fn single_node_path() {
        assert!(reachable_2d(c2(2, 2), c2(2, 2), |_| false));
        assert!(!reachable_2d(c2(2, 2), c2(2, 2), |c| c == c2(2, 2)));
    }

    #[test]
    fn column_wall_blocks_2d() {
        // Wall across the full height of the box at x=3.
        let wall: HashSet<_> = (0..=5).map(|y| c2(3, y)).collect();
        assert!(!reachable_2d(c2(0, 0), c2(5, 5), |c| wall.contains(&c)));
        // Gap at the top lets it through.
        let mut gapped = wall.clone();
        gapped.remove(&c2(3, 5));
        assert!(reachable_2d(c2(0, 0), c2(5, 5), |c| gapped.contains(&c)));
    }

    #[test]
    fn antidiagonal_wall_blocks_2d() {
        // Cells with x+y == 4 block every monotone path in [0,0]..[4,4]
        // only if every lattice point on that antidiagonal is blocked.
        let diag: HashSet<_> = (0..=4).map(|x| c2(x, 4 - x)).collect();
        assert!(!reachable_2d(c2(0, 0), c2(4, 4), |c| diag.contains(&c)));
        let mut gapped = diag.clone();
        gapped.remove(&c2(2, 2));
        assert!(reachable_2d(c2(0, 0), c2(4, 4), |c| gapped.contains(&c)));
    }

    #[test]
    fn wall_outside_box_is_ignored() {
        let wall: HashSet<_> = (0..=9).map(|y| c2(6, y)).collect();
        // d.x = 5 < 6: the wall lies outside the RMP.
        assert!(reachable_2d(c2(0, 0), c2(5, 9), |c| wall.contains(&c)));
    }

    #[test]
    fn plane_wall_blocks_3d() {
        // Full plane x=2 inside [0,0,0]..[4,4,4].
        let blocked = |c: C3| c.x == 2;
        assert!(!reachable_3d(c3(0, 0, 0), c3(4, 4, 4), blocked));
        // One hole in the plane suffices.
        let holey = |c: C3| c.x == 2 && c != c3(2, 1, 3);
        assert!(reachable_3d(c3(0, 0, 0), c3(4, 4, 4), holey));
    }

    #[test]
    fn useful_set_is_monotone_closed() {
        // Every useful node other than d has a useful positive neighbor.
        let blocked: HashSet<_> = [c2(2, 2), c2(3, 1), c2(1, 3), c2(4, 0)]
            .into_iter()
            .collect();
        let s = c2(0, 0);
        let d = c2(5, 5);
        let u = Useful2::compute(s, d, |c| blocked.contains(&c));
        for x in 0..=5 {
            for y in 0..=5 {
                let c = c2(x, y);
                if u.contains(c) && c != d {
                    assert!(
                        u.contains(c2(x + 1, y)) || u.contains(c2(x, y + 1)),
                        "{c} useful but stuck"
                    );
                }
            }
        }
    }

    #[test]
    fn useful3_set_is_monotone_closed() {
        let blocked: HashSet<_> = [c3(1, 1, 1), c3(2, 0, 1), c3(0, 2, 2)]
            .into_iter()
            .collect();
        let s = c3(0, 0, 0);
        let d = c3(3, 3, 3);
        let u = Useful3::compute(s, d, |c| blocked.contains(&c));
        assert!(u.contains(s));
        for x in 0..=3 {
            for y in 0..=3 {
                for z in 0..=3 {
                    let c = c3(x, y, z);
                    if u.contains(c) && c != d {
                        assert!(
                            u.contains(c3(x + 1, y, z))
                                || u.contains(c3(x, y + 1, z))
                                || u.contains(c3(x, y, z + 1)),
                            "{c} useful but stuck"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn recompute_matches_fresh_compute_across_boxes() {
        // One scratch instance cycled through boxes of shrinking and
        // growing size must agree with a fresh compute every time.
        let blocked2 = |c: C2| (c.x + 2 * c.y) % 5 == 0;
        let mut scratch = Useful2::scratch();
        for (s, d) in [
            (c2(0, 0), c2(9, 7)),
            (c2(3, 3), c2(4, 3)),
            (c2(1, 2), c2(11, 12)),
            (c2(5, 5), c2(5, 5)),
        ] {
            scratch.recompute(s, d, blocked2);
            let fresh = Useful2::compute(s, d, blocked2);
            assert_eq!(scratch.count(), fresh.count(), "{s} -> {d}");
            for x in s.x..=d.x {
                for y in s.y..=d.y {
                    assert_eq!(scratch.contains(c2(x, y)), fresh.contains(c2(x, y)));
                }
            }
        }
        let blocked3 = |c: C3| (c.x + c.y + c.z) % 4 == 1;
        let mut scratch = Useful3::scratch();
        for (s, d) in [
            (c3(0, 0, 0), c3(5, 6, 4)),
            (c3(2, 2, 2), c3(3, 2, 2)),
            (c3(1, 0, 1), c3(7, 7, 7)),
        ] {
            scratch.recompute(s, d, blocked3);
            let fresh = Useful3::compute(s, d, blocked3);
            assert_eq!(scratch.count(), fresh.count(), "{s} -> {d}");
            for x in s.x..=d.x {
                for y in s.y..=d.y {
                    for z in s.z..=d.z {
                        assert_eq!(scratch.contains(c3(x, y, z)), fresh.contains(c3(x, y, z)));
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_destination_unreachable() {
        assert!(!reachable_2d(c2(0, 0), c2(3, 3), |c| c == c2(3, 3)));
        assert!(!reachable_3d(c3(0, 0, 0), c3(2, 2, 2), |c| c == c3(2, 2, 2)));
    }

    #[test]
    #[should_panic]
    fn non_canonical_pair_panics() {
        reachable_2d(c2(3, 0), c2(0, 3), |_| false);
    }
}
