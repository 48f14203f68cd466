//! The per-node monotone-reachability sweep — the representation the
//! word-parallel kernel in `fault_model::oracle` replaced, kept verbatim
//! as a test oracle.
//!
//! Each box node is visited once, in reverse raster order from `d`, and is
//! useful iff it is not blocked and is `d` itself or has a useful `+X`,
//! `+Y` (or `+Z`) neighbor inside the box. `reachability_equiv.rs` asserts
//! the kernel reproduces this set bit for bit.

#![allow(dead_code)]

use mesh_topo::{Coord, NodeSet, C2, C3};

/// The backward reachability set in 2-D: all nodes `u` in `[s, d]` from which
/// `d` is monotonically reachable avoiding blocked nodes.
///
/// A fully-adaptive minimal router that only ever steps onto *useful*
/// neighbors can never get stuck and always produces a minimal path.
///
/// The set is a packed [`NodeSet`] over the RMP box, filled by one reverse
/// raster sweep.
#[derive(Clone, Debug)]
pub struct Useful2 {
    s: C2,
    d: C2,
    w: i32,
    useful: NodeSet,
}

impl Useful2 {
    /// An empty scratch instance (a degenerate one-node box) whose storage
    /// is meant to be recycled through [`Useful2::recompute`].
    pub fn scratch() -> Useful2 {
        Useful2 {
            s: C2::ORIGIN,
            d: C2::ORIGIN,
            w: 1,
            useful: NodeSet::new(1),
        }
    }

    /// Recompute the useful set for a new box `[s, d]`, reusing this
    /// instance's bitset storage (no allocation once the buffer has grown
    /// to the largest box seen). Equivalent to `*self = Useful2::compute(..)`.
    ///
    /// # Panics
    /// If `s` does not precede `d` componentwise.
    pub fn recompute(&mut self, s: C2, d: C2, blocked: impl Fn(C2) -> bool) {
        assert!(
            s.dominated_by(d),
            "oracle requires canonical s <= d, got {s:?} {d:?}"
        );
        let w = d.x - s.x + 1;
        let h = d.y - s.y + 1;
        self.useful.reset((w as usize) * (h as usize));
        let useful = &mut self.useful;
        let idx = |c: C2| ((c.y - s.y) as usize) * (w as usize) + ((c.x - s.x) as usize);
        // Sweep from d down to s; at c, usefulness depends on c+X / c+Y which
        // are later in the sweep order reversed, i.e. already computed.
        for y in (s.y..=d.y).rev() {
            for x in (s.x..=d.x).rev() {
                let c = C2 { x, y };
                if blocked(c) {
                    continue;
                }
                let ok = (c == d)
                    || (x < d.x && useful.contains(idx(C2 { x: x + 1, y })))
                    || (y < d.y && useful.contains(idx(C2 { x, y: y + 1 })));
                if ok {
                    useful.insert(idx(c));
                }
            }
        }
        self.s = s;
        self.d = d;
        self.w = w;
    }

    /// Compute the useful set for the box `[s, d]`.
    ///
    /// # Panics
    /// If `s` does not precede `d` componentwise.
    pub fn compute(s: C2, d: C2, blocked: impl Fn(C2) -> bool) -> Useful2 {
        let mut u = Useful2::scratch();
        u.recompute(s, d, blocked);
        u
    }

    /// True if `c` lies in `[s, d]` and `d` is monotonically reachable from it.
    #[inline]
    pub fn contains(&self, c: C2) -> bool {
        if !(self.s.dominated_by(c) && c.dominated_by(self.d)) {
            return false;
        }
        self.useful
            .contains(((c.y - self.s.y) as usize) * (self.w as usize) + ((c.x - self.s.x) as usize))
    }

    /// Number of useful nodes in the box.
    pub fn count(&self) -> usize {
        self.useful.len()
    }
}

/// The backward reachability set in 3-D (see [`Useful2`]).
#[derive(Clone, Debug)]
pub struct Useful3 {
    s: C3,
    d: C3,
    wx: i32,
    wy: i32,
    useful: NodeSet,
}

impl Useful3 {
    /// An empty scratch instance (a degenerate one-node box) whose storage
    /// is meant to be recycled through [`Useful3::recompute`].
    pub fn scratch() -> Useful3 {
        Useful3 {
            s: C3::ORIGIN,
            d: C3::ORIGIN,
            wx: 1,
            wy: 1,
            useful: NodeSet::new(1),
        }
    }

    /// Recompute the useful set for a new box `[s, d]`, reusing this
    /// instance's bitset storage (no allocation once the buffer has grown
    /// to the largest box seen). Equivalent to `*self = Useful3::compute(..)`.
    ///
    /// # Panics
    /// If `s` does not precede `d` componentwise.
    pub fn recompute(&mut self, s: C3, d: C3, blocked: impl Fn(C3) -> bool) {
        assert!(
            s.dominated_by(d),
            "oracle requires canonical s <= d, got {s:?} {d:?}"
        );
        let wx = d.x - s.x + 1;
        let wy = d.y - s.y + 1;
        let wz = d.z - s.z + 1;
        self.useful
            .reset((wx as usize) * (wy as usize) * (wz as usize));
        let useful = &mut self.useful;
        let idx = |c: C3| {
            (((c.z - s.z) as usize) * (wy as usize) + ((c.y - s.y) as usize)) * (wx as usize)
                + ((c.x - s.x) as usize)
        };
        for z in (s.z..=d.z).rev() {
            for y in (s.y..=d.y).rev() {
                for x in (s.x..=d.x).rev() {
                    let c = C3 { x, y, z };
                    if blocked(c) {
                        continue;
                    }
                    let ok = (c == d)
                        || (x < d.x && useful.contains(idx(C3 { x: x + 1, y, z })))
                        || (y < d.y && useful.contains(idx(C3 { x, y: y + 1, z })))
                        || (z < d.z && useful.contains(idx(C3 { x, y, z: z + 1 })));
                    if ok {
                        useful.insert(idx(c));
                    }
                }
            }
        }
        self.s = s;
        self.d = d;
        self.wx = wx;
        self.wy = wy;
    }

    /// Compute the useful set for the box `[s, d]`.
    ///
    /// # Panics
    /// If `s` does not precede `d` componentwise.
    pub fn compute(s: C3, d: C3, blocked: impl Fn(C3) -> bool) -> Useful3 {
        let mut u = Useful3::scratch();
        u.recompute(s, d, blocked);
        u
    }

    /// True if `c` lies in `[s, d]` and `d` is monotonically reachable from it.
    #[inline]
    pub fn contains(&self, c: C3) -> bool {
        if !(self.s.dominated_by(c) && c.dominated_by(self.d)) {
            return false;
        }
        let i = (((c.z - self.s.z) as usize) * (self.wy as usize) + ((c.y - self.s.y) as usize))
            * (self.wx as usize)
            + ((c.x - self.s.x) as usize);
        self.useful.contains(i)
    }

    /// Number of useful nodes in the box.
    pub fn count(&self) -> usize {
        self.useful.len()
    }
}
