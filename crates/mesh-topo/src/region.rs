//! Axis-aligned rectangles and boxes (inclusive bounds).
//!
//! Used for the Region of Minimal Paths (RMP) between a source and a
//! destination, for rectangular/cuboid faulty-block baselines, and for the
//! bounding extents of MCC fault regions.

use serde::{Deserialize, Serialize};

use crate::coord::{Coord, C2, C3};

/// An axis-aligned rectangle with **inclusive** bounds `[x0..=x1] × [y0..=y1]`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Rect {
    /// Smallest x.
    pub x0: i32,
    /// Smallest y.
    pub y0: i32,
    /// Largest x (inclusive).
    pub x1: i32,
    /// Largest y (inclusive).
    pub y1: i32,
}

/// An axis-aligned box with **inclusive** bounds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Box3 {
    /// Smallest corner.
    pub lo: C3,
    /// Largest corner (inclusive).
    pub hi: C3,
}

impl Rect {
    /// The rectangle spanned by two (unordered) corner points.
    pub fn spanning(a: C2, b: C2) -> Rect {
        Rect {
            x0: a.x.min(b.x),
            y0: a.y.min(b.y),
            x1: a.x.max(b.x),
            y1: a.y.max(b.y),
        }
    }

    /// The degenerate rectangle containing only `c`.
    pub fn point(c: C2) -> Rect {
        Rect::spanning(c, c)
    }

    /// True if `c` lies inside (bounds inclusive).
    #[inline]
    pub fn contains(&self, c: C2) -> bool {
        c.x >= self.x0 && c.x <= self.x1 && c.y >= self.y0 && c.y <= self.y1
    }

    /// Grow to include `c`.
    pub fn include(&mut self, c: C2) {
        self.x0 = self.x0.min(c.x);
        self.y0 = self.y0.min(c.y);
        self.x1 = self.x1.max(c.x);
        self.y1 = self.y1.max(c.y);
    }

    /// True if the two rectangles share at least one cell.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x0 <= other.x1 && other.x0 <= self.x1 && self.y0 <= other.y1 && other.y0 <= self.y1
    }

    /// The smallest rectangle containing both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }

    /// Width × height.
    pub fn area(&self) -> u64 {
        let w = (self.x1 - self.x0 + 1).max(0) as u64;
        let h = (self.y1 - self.y0 + 1).max(0) as u64;
        w * h
    }

    /// Iterate all contained cells in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = C2> + '_ {
        let (x0, x1, y0, y1) = (self.x0, self.x1, self.y0, self.y1);
        (y0..=y1).flat_map(move |y| (x0..=x1).map(move |x| C2 { x, y }))
    }
}

impl Box3 {
    /// The box spanned by two (unordered) corner points.
    pub fn spanning(a: C3, b: C3) -> Box3 {
        Box3 {
            lo: C3 {
                x: a.x.min(b.x),
                y: a.y.min(b.y),
                z: a.z.min(b.z),
            },
            hi: C3 {
                x: a.x.max(b.x),
                y: a.y.max(b.y),
                z: a.z.max(b.z),
            },
        }
    }

    /// The degenerate box containing only `c`.
    pub fn point(c: C3) -> Box3 {
        Box3::spanning(c, c)
    }

    /// True if `c` lies inside (bounds inclusive).
    #[inline]
    pub fn contains(&self, c: C3) -> bool {
        self.lo.dominated_by(c) && c.dominated_by(self.hi)
    }

    /// Grow to include `c`.
    pub fn include(&mut self, c: C3) {
        self.lo.x = self.lo.x.min(c.x);
        self.lo.y = self.lo.y.min(c.y);
        self.lo.z = self.lo.z.min(c.z);
        self.hi.x = self.hi.x.max(c.x);
        self.hi.y = self.hi.y.max(c.y);
        self.hi.z = self.hi.z.max(c.z);
    }

    /// True if the two boxes share at least one cell.
    pub fn intersects(&self, other: &Box3) -> bool {
        self.lo.x <= other.hi.x
            && other.lo.x <= self.hi.x
            && self.lo.y <= other.hi.y
            && other.lo.y <= self.hi.y
            && self.lo.z <= other.hi.z
            && other.lo.z <= self.hi.z
    }

    /// The smallest box containing both.
    pub fn union(&self, other: &Box3) -> Box3 {
        Box3 {
            lo: C3 {
                x: self.lo.x.min(other.lo.x),
                y: self.lo.y.min(other.lo.y),
                z: self.lo.z.min(other.lo.z),
            },
            hi: C3 {
                x: self.hi.x.max(other.hi.x),
                y: self.hi.y.max(other.hi.y),
                z: self.hi.z.max(other.hi.z),
            },
        }
    }

    /// Number of cells in the box.
    pub fn volume(&self) -> u64 {
        let dx = (self.hi.x - self.lo.x + 1).max(0) as u64;
        let dy = (self.hi.y - self.lo.y + 1).max(0) as u64;
        let dz = (self.hi.z - self.lo.z + 1).max(0) as u64;
        dx * dy * dz
    }

    /// Iterate all contained cells (x fastest).
    pub fn iter(&self) -> impl Iterator<Item = C3> + '_ {
        let (lo, hi) = (self.lo, self.hi);
        (lo.z..=hi.z).flat_map(move |z| {
            (lo.y..=hi.y).flat_map(move |y| (lo.x..=hi.x).map(move |x| C3 { x, y, z }))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::{c2, c3};

    #[test]
    fn rect_spanning_orders_corners() {
        let r = Rect::spanning(c2(5, 1), c2(2, 4));
        assert_eq!(
            r,
            Rect {
                x0: 2,
                y0: 1,
                x1: 5,
                y1: 4
            }
        );
        assert!(r.contains(c2(2, 1)));
        assert!(r.contains(c2(5, 4)));
        assert!(!r.contains(c2(6, 4)));
        assert_eq!(r.area(), 16);
        assert_eq!(r.iter().count(), 16);
    }

    #[test]
    fn rect_touch_vs_intersect() {
        let a = Rect::spanning(c2(0, 0), c2(2, 2));
        let b = Rect::spanning(c2(3, 0), c2(4, 2)); // adjacent, not overlapping
        let c = Rect::spanning(c2(5, 0), c2(6, 2)); // gap of one column
        assert!(!a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(a.intersects(&Rect::spanning(c2(2, 2), c2(4, 4))));
    }

    #[test]
    fn rect_union_include() {
        let mut r = Rect::point(c2(3, 3));
        r.include(c2(1, 5));
        assert_eq!(
            r,
            Rect {
                x0: 1,
                y0: 3,
                x1: 3,
                y1: 5
            }
        );
        let u = r.union(&Rect::point(c2(7, 0)));
        assert_eq!(
            u,
            Rect {
                x0: 1,
                y0: 0,
                x1: 7,
                y1: 5
            }
        );
    }

    #[test]
    fn box_basics() {
        let b = Box3::spanning(c3(4, 0, 2), c3(1, 3, 0));
        assert_eq!(b.lo, c3(1, 0, 0));
        assert_eq!(b.hi, c3(4, 3, 2));
        assert_eq!(b.volume(), 4 * 4 * 3);
        assert_eq!(b.iter().count() as u64, b.volume());
        assert!(b.contains(c3(2, 2, 1)));
        assert!(!b.contains(c3(2, 4, 1)));
    }

    #[test]
    fn box_touch_merge_semantics() {
        let a = Box3::spanning(c3(0, 0, 0), c3(1, 1, 1));
        let b = Box3::spanning(c3(2, 0, 0), c3(3, 1, 1));
        assert!(!a.intersects(&b));
        let u = a.union(&b);
        assert!(u.contains(c3(3, 1, 1)) && u.contains(c3(0, 0, 0)));
        assert!(u.intersects(&a) && u.intersects(&b));
    }
}
