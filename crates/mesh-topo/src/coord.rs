//! Integer lattice coordinates for 2-D and 3-D meshes.
//!
//! Coordinates are stored as `i32` so that reflection frames ([`crate::frame`])
//! and off-mesh probes (a neighbor one step outside the mesh) are representable
//! without wrap-around hazards. All in-mesh coordinates are non-negative.
//!
//! [`Coord`] holds the few facts that differ by dimension, so the node
//! space, the reflection frame, the path and the routers' forwarding walk
//! are written once over it.

use core::fmt::{Debug, Display};
use core::hash::Hash;

use serde::{Deserialize, Serialize};

use crate::dir::{Axis2, Axis3, Dir2, Dir3};
use crate::region::{Box3, Rect};

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::C2 {}
    impl Sealed for super::C3 {}
}

/// A lattice coordinate of one dimension: the facts that differ between
/// the 2-D and the 3-D mesh. [`NodeSpace`](crate::NodeSpace) and
/// [`Frame`](crate::Frame) are written once over it; everything else they
/// do is the same rule over `DIMS` axes.
///
/// Sealed: [`C2`] and [`C3`] are the only implementors.
pub trait Coord: sealed::Sealed + Copy + Eq + Hash + Debug + Display + 'static {
    /// Number of axes.
    const DIMS: usize;
    /// Number of orientation frames, one per reflection of the axes
    /// (`2^DIMS`).
    const ORIENTATIONS: usize = 1 << Self::DIMS;
    /// The region-connectivity offsets `[dx, dy, dz]` (`dz` is 0 in 2-D):
    /// the 8-neighborhood in 2-D, the 18-neighborhood (faces and planar
    /// diagonals, no space diagonal) in 3-D, faces first, in the fixed
    /// order MCC component discovery relies on.
    const REGION_OFFSETS: &'static [[i32; 3]];
    /// The signed unit direction: [`Dir2`] or [`Dir3`].
    type Dir: Copy;
    /// The positive directions in axis order: the preferred directions
    /// toward a canonical destination.
    const POSITIVE: &'static [Self::Dir];
    /// The axis-aligned box: [`Rect`] or [`Box3`].
    type Block: Copy + Eq + Debug;

    /// The coordinate as `[x, y, z]`; `z` is 0 in 2-D.
    fn xyz(self) -> [i32; 3];
    /// The coordinate with axes `[x, y, z]`; `z` is ignored in 2-D.
    fn from_xyz(p: [i32; 3]) -> Self;
    /// The box with inclusive corners `lo` and `hi`.
    fn block(lo: Self, hi: Self) -> Self::Block;
    /// The axis of `d` (0 for x) and whether it points along `+`.
    fn axis_sign(d: Self::Dir) -> (usize, bool);
    /// The neighbor one step along `d` (may fall outside the mesh).
    fn step(self, d: Self::Dir) -> Self;

    /// Componentwise dominance: `self ≤ other` on every axis.
    ///
    /// A minimal (`+`-direction) route from `s` to `d` visits exactly the
    /// nodes `u` with `s.dominated_by(u) && u.dominated_by(d)` — the Region
    /// of Minimal Paths (RMP).
    #[inline]
    fn dominated_by(self, other: Self) -> bool {
        let (a, b) = (self.xyz(), other.xyz());
        a[0] <= b[0] && a[1] <= b[1] && a[2] <= b[2]
    }
}

impl Coord for C2 {
    const DIMS: usize = 2;
    const REGION_OFFSETS: &'static [[i32; 3]] = &[
        [1, 0, 0],
        [-1, 0, 0],
        [0, 1, 0],
        [0, -1, 0],
        [1, 1, 0],
        [1, -1, 0],
        [-1, 1, 0],
        [-1, -1, 0],
    ];
    type Dir = Dir2;
    const POSITIVE: &'static [Dir2] = &Dir2::POSITIVE;
    type Block = Rect;

    #[inline]
    fn xyz(self) -> [i32; 3] {
        [self.x, self.y, 0]
    }
    #[inline]
    fn from_xyz(p: [i32; 3]) -> C2 {
        C2 { x: p[0], y: p[1] }
    }
    fn block(lo: C2, hi: C2) -> Rect {
        Rect::spanning(lo, hi)
    }
    #[inline]
    fn axis_sign(d: Dir2) -> (usize, bool) {
        (d.axis().index(), d.is_positive())
    }
    #[inline]
    fn step(self, d: Dir2) -> C2 {
        C2::step(self, d)
    }
}

impl Coord for C3 {
    const DIMS: usize = 3;
    const REGION_OFFSETS: &'static [[i32; 3]] = &[
        [1, 0, 0],
        [-1, 0, 0],
        [0, 1, 0],
        [0, -1, 0],
        [0, 0, 1],
        [0, 0, -1],
        [1, 1, 0],
        [1, -1, 0],
        [-1, 1, 0],
        [-1, -1, 0],
        [1, 0, 1],
        [1, 0, -1],
        [-1, 0, 1],
        [-1, 0, -1],
        [0, 1, 1],
        [0, 1, -1],
        [0, -1, 1],
        [0, -1, -1],
    ];
    type Dir = Dir3;
    const POSITIVE: &'static [Dir3] = &Dir3::POSITIVE;
    type Block = Box3;

    #[inline]
    fn xyz(self) -> [i32; 3] {
        [self.x, self.y, self.z]
    }
    #[inline]
    fn from_xyz(p: [i32; 3]) -> C3 {
        C3 {
            x: p[0],
            y: p[1],
            z: p[2],
        }
    }
    fn block(lo: C3, hi: C3) -> Box3 {
        Box3::spanning(lo, hi)
    }
    #[inline]
    fn axis_sign(d: Dir3) -> (usize, bool) {
        (d.axis().index(), d.is_positive())
    }
    #[inline]
    fn step(self, d: Dir3) -> C3 {
        C3::step(self, d)
    }
}

/// A node address `(x, y)` in a 2-D mesh.
///
/// The paper labels each node `u` as `(x_u, y_u)`; distance is the Manhattan
/// metric `D(u, v) = |x_v - x_u| + |y_v - y_u|`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct C2 {
    /// X coordinate (dimension 0).
    pub x: i32,
    /// Y coordinate (dimension 1).
    pub y: i32,
}

/// A node address `(x, y, z)` in a 3-D mesh.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct C3 {
    /// X coordinate (dimension 0).
    pub x: i32,
    /// Y coordinate (dimension 1).
    pub y: i32,
    /// Z coordinate (dimension 2).
    pub z: i32,
}

impl core::fmt::Debug for C2 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

impl core::fmt::Display for C2 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

impl core::fmt::Debug for C3 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({},{},{})", self.x, self.y, self.z)
    }
}

impl core::fmt::Display for C3 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({},{},{})", self.x, self.y, self.z)
    }
}

/// Shorthand constructor: `c2(x, y)`.
#[inline]
pub const fn c2(x: i32, y: i32) -> C2 {
    C2 { x, y }
}

/// Shorthand constructor: `c3(x, y, z)`.
#[inline]
pub const fn c3(x: i32, y: i32, z: i32) -> C3 {
    C3 { x, y, z }
}

impl C2 {
    /// The origin `(0, 0)` — the canonical source node of the paper.
    pub const ORIGIN: C2 = C2 { x: 0, y: 0 };

    /// Manhattan distance `D(self, other)`.
    #[inline]
    pub fn dist(self, other: C2) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }

    /// The neighbor one step along `dir` (may fall outside the mesh).
    #[inline]
    pub fn step(self, dir: Dir2) -> C2 {
        let (dx, dy) = dir.delta();
        C2 {
            x: self.x + dx,
            y: self.y + dy,
        }
    }

    /// Coordinate along `axis`.
    #[inline]
    pub fn get(self, axis: Axis2) -> i32 {
        match axis {
            Axis2::X => self.x,
            Axis2::Y => self.y,
        }
    }

    /// Replace the coordinate along `axis`.
    #[inline]
    pub fn with(self, axis: Axis2, v: i32) -> C2 {
        match axis {
            Axis2::X => C2 { x: v, ..self },
            Axis2::Y => C2 { y: v, ..self },
        }
    }

    /// The direction from `self` to a neighboring node, if adjacent.
    pub fn dir_to(self, other: C2) -> Option<Dir2> {
        Dir2::ALL.into_iter().find(|&d| self.step(d) == other)
    }
}

impl C3 {
    /// The origin `(0, 0, 0)` — the canonical source node of the paper.
    pub const ORIGIN: C3 = C3 { x: 0, y: 0, z: 0 };

    /// Manhattan distance `D(self, other)`.
    #[inline]
    pub fn dist(self, other: C3) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y) + self.z.abs_diff(other.z)
    }

    /// The neighbor one step along `dir` (may fall outside the mesh).
    #[inline]
    pub fn step(self, dir: Dir3) -> C3 {
        let (dx, dy, dz) = dir.delta();
        C3 {
            x: self.x + dx,
            y: self.y + dy,
            z: self.z + dz,
        }
    }

    /// Coordinate along `axis`.
    #[inline]
    pub fn get(self, axis: Axis3) -> i32 {
        match axis {
            Axis3::X => self.x,
            Axis3::Y => self.y,
            Axis3::Z => self.z,
        }
    }

    /// Replace the coordinate along `axis`.
    #[inline]
    pub fn with(self, axis: Axis3, v: i32) -> C3 {
        match axis {
            Axis3::X => C3 { x: v, ..self },
            Axis3::Y => C3 { y: v, ..self },
            Axis3::Z => C3 { z: v, ..self },
        }
    }

    /// The direction from `self` to a neighboring node, if adjacent.
    pub fn dir_to(self, other: C3) -> Option<Dir3> {
        Dir3::ALL.into_iter().find(|&d| self.step(d) == other)
    }

    /// Project onto the plane orthogonal to `axis`, returning the remaining
    /// two coordinates in axis order (used for 2-D section analysis of 3-D
    /// fault regions).
    #[inline]
    pub fn project(self, axis: Axis3) -> C2 {
        match axis {
            Axis3::X => C2 {
                x: self.y,
                y: self.z,
            },
            Axis3::Y => C2 {
                x: self.x,
                y: self.z,
            },
            Axis3::Z => C2 {
                x: self.x,
                y: self.y,
            },
        }
    }
}

impl core::ops::Add<C2> for C2 {
    type Output = C2;
    #[inline]
    fn add(self, rhs: C2) -> C2 {
        C2 {
            x: self.x + rhs.x,
            y: self.y + rhs.y,
        }
    }
}

impl core::ops::Sub<C2> for C2 {
    type Output = C2;
    #[inline]
    fn sub(self, rhs: C2) -> C2 {
        C2 {
            x: self.x - rhs.x,
            y: self.y - rhs.y,
        }
    }
}

impl core::ops::Add<C3> for C3 {
    type Output = C3;
    #[inline]
    fn add(self, rhs: C3) -> C3 {
        C3 {
            x: self.x + rhs.x,
            y: self.y + rhs.y,
            z: self.z + rhs.z,
        }
    }
}

impl core::ops::Sub<C3> for C3 {
    type Output = C3;
    #[inline]
    fn sub(self, rhs: C3) -> C3 {
        C3 {
            x: self.x - rhs.x,
            y: self.y - rhs.y,
            z: self.z - rhs.z,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_is_manhattan() {
        assert_eq!(c2(0, 0).dist(c2(3, 4)), 7);
        assert_eq!(c2(3, 4).dist(c2(0, 0)), 7);
        assert_eq!(c3(1, 2, 3).dist(c3(4, 0, 3)), 5);
    }

    #[test]
    fn step_matches_paper_neighbor_definitions() {
        // (x+1, y) is the +X neighbor, etc.
        let u = c2(5, 7);
        assert_eq!(u.step(Dir2::Xp), c2(6, 7));
        assert_eq!(u.step(Dir2::Xm), c2(4, 7));
        assert_eq!(u.step(Dir2::Yp), c2(5, 8));
        assert_eq!(u.step(Dir2::Ym), c2(5, 6));
        let v = c3(5, 7, 9);
        assert_eq!(v.step(Dir3::Zp), c3(5, 7, 10));
        assert_eq!(v.step(Dir3::Zm), c3(5, 7, 8));
    }

    #[test]
    fn dominance() {
        assert!(c2(0, 0).dominated_by(c2(3, 4)));
        assert!(c2(3, 4).dominated_by(c2(3, 4)));
        assert!(!c2(4, 0).dominated_by(c2(3, 4)));
        assert!(c3(1, 1, 1).dominated_by(c3(1, 2, 1)));
        assert!(!c3(1, 3, 1).dominated_by(c3(1, 2, 9)));
    }

    #[test]
    fn dir_to_identifies_links() {
        assert_eq!(c2(2, 2).dir_to(c2(3, 2)), Some(Dir2::Xp));
        assert_eq!(c2(2, 2).dir_to(c2(2, 1)), Some(Dir2::Ym));
        assert_eq!(c2(2, 2).dir_to(c2(3, 3)), None);
        assert_eq!(c3(0, 0, 0).dir_to(c3(0, 0, 1)), Some(Dir3::Zp));
    }

    #[test]
    fn project_drops_the_axis() {
        let p = c3(4, 5, 6);
        assert_eq!(p.project(Axis3::X), c2(5, 6));
        assert_eq!(p.project(Axis3::Y), c2(4, 6));
        assert_eq!(p.project(Axis3::Z), c2(4, 5));
    }

    #[test]
    fn axis_accessors() {
        let u = c3(7, 8, 9);
        assert_eq!(u.get(Axis3::X), 7);
        assert_eq!(u.with(Axis3::Y, 0), c3(7, 0, 9));
        let v = c2(7, 8);
        assert_eq!(v.get(Axis2::Y), 8);
        assert_eq!(v.with(Axis2::X, 1), c2(1, 8));
    }
}
