//! Quadrant / octant canonicalization frames.
//!
//! The paper develops its labelling and routing for the canonical case
//! `s = (0,0[,0])`, `d ≥ 0` componentwise: the preferred directions are the
//! positive ones. For an arbitrary source/destination pair the model is
//! applied after reflecting each axis on which the destination lies on the
//! negative side of the source. A [`Frame`] is such a reflection, one flag
//! per axis ([`Frame2`] / [`Frame3`] name its two dimensions): an
//! involutive mesh automorphism that maps the pair into the canonical
//! orientation.
//!
//! On a **torus** ([`Mesh2D::torus`](crate::Mesh2D::torus)) the frame
//! additionally carries a per-axis rotation (translation modulo the extent
//! — also a torus automorphism): [`Frame::for_pair`] picks, per axis, the
//! shorter arc from source to destination (reflecting when the `-` arc is
//! strictly shorter) and rotates the axis so the canonical source lands on
//! the origin and the canonical destination on the Lee-distance vector. The
//! whole canonical pipeline — labelling, conditions, routers — then keeps
//! its "destination dominates source" worldview, and the wrap-around seam
//! sits *behind* the source where the Region of Minimal Paths never
//! touches it. Mesh frames carry no rotation, so mesh behavior is
//! untouched.
//!
//! Labelling (and therefore the MCC decomposition) depends only on the
//! frame, not on the concrete `s`/`d`, so per-mesh results can be cached
//! per frame (4 reflections in 2-D, 8 in 3-D; on a torus the rotation is
//! part of the cache key — see `fault_model::models`).

use core::marker::PhantomData;

use serde::{Deserialize, Serialize};

use crate::coord::{Coord, C2, C3};
use crate::mesh::Mesh;

/// Pick reflection + rotation for one torus axis: reflect when the `-` arc
/// is strictly shorter, then rotate the (possibly reflected) source onto 0.
/// Returns `(flip, offset)`.
fn torus_axis(s: i32, d: i32, k: i32) -> (bool, i32) {
    let fwd = (d - s).rem_euclid(k);
    let bwd = (s - d).rem_euclid(k);
    let flip = bwd < fwd;
    let rs = if flip { k - 1 - s } else { s };
    (flip, (-rs).rem_euclid(k))
}

/// A per-axis reflection of a mesh with coordinates `C` (one of the
/// `2^DIMS` orientations), optionally composed with a per-axis rotation on
/// a torus (see the module docs).
///
/// Equality and hashing make a frame a model-cache key: reflection frames
/// ([`Frame::identity`], [`Frame::all`]) carry no rotation even on a
/// torus, while every torus pair frame is marked as rotated, so it never
/// equals a reflection frame, not even with a zero rotation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Frame<C> {
    /// Reflect axis `a` (`v ↦ k-1-v`); false past the frame's axes.
    flip: [bool; 3],
    /// Per-axis extents of the mesh, `x` first; 1 past its axes.
    ext: [i32; 3],
    /// Rotation added after reflection, modulo the extent (torus only).
    off: [i32; 3],
    /// Apply the rotation modulo the extents (torus pair frames only).
    wrap: bool,
    coord: PhantomData<C>,
}

/// One of the 4 quadrant frames of a 2-D mesh.
pub type Frame2 = Frame<C2>;

/// One of the 8 octant frames of a 3-D mesh.
pub type Frame3 = Frame<C3>;

impl<C: Coord> Frame<C> {
    /// The reflection frame of `mesh` flipping the axes set in `flip`.
    fn reflection(mesh: &Mesh<C>, flip: [bool; 3]) -> Self {
        Frame {
            flip,
            ext: mesh.space().extents().map(|k| k as i32),
            off: [0; 3],
            wrap: false,
            coord: PhantomData,
        }
    }

    /// The identity frame for `mesh` (no reflection, no rotation).
    pub fn identity(mesh: &Mesh<C>) -> Self {
        Self::reflection(mesh, [false; 3])
    }

    /// The frame that maps `(s, d)` into canonical orientation
    /// (`to_canon(s) ≤ to_canon(d)` componentwise).
    ///
    /// On a mesh this is the pure reflection frame of the paper. On a
    /// torus it reflects each axis whose `-` arc is strictly shorter (ties
    /// keep the `+` arc) and then rotates the axis, so that `to_canon(s)`
    /// is the origin and `to_canon(d)` the Lee-distance vector. Both pieces
    /// are torus automorphisms, so the fault set seen through the frame is
    /// an exact relabelling.
    pub fn for_pair(mesh: &Mesh<C>, s: C, d: C) -> Self {
        let (s, d) = (s.xyz(), d.xyz());
        let mut frame = Self::identity(mesh);
        frame.wrap = mesh.wraps();
        for a in 0..C::DIMS {
            if frame.wrap {
                (frame.flip[a], frame.off[a]) = torus_axis(s[a], d[a], frame.ext[a]);
            } else {
                frame.flip[a] = d[a] < s[a];
            }
        }
        frame
    }

    /// Every reflection frame of `mesh`, in [`Frame::index`] order
    /// (reflections only; rotations are pair-specific).
    pub fn all(mesh: &Mesh<C>) -> Vec<Self> {
        (0..C::ORIENTATIONS)
            .map(|i| Self::reflection(mesh, [i & 1 != 0, i & 2 != 0, i & 4 != 0]))
            .collect()
    }

    /// A compact index in `0..2^DIMS` identifying the **reflection** part
    /// of the frame (bit `a` set when axis `a` is reflected). Torus frames
    /// with different rotations share an index; cache layers that key on
    /// it must compare the full frame for equality.
    pub fn index(&self) -> usize {
        (0..C::DIMS).map(|a| (self.flip[a] as usize) << a).sum()
    }

    /// True if the frame reflects `axis` (0 for x).
    #[inline]
    pub fn flips(&self, axis: usize) -> bool {
        self.flip[axis]
    }

    /// Map a mesh coordinate into the canonical frame. Involutive for
    /// reflection-only frames; torus frames invert through
    /// [`Frame::from_canon`]. On a torus, out-of-range inputs are reduced
    /// modulo the extents.
    #[inline]
    pub fn to_canon(&self, c: C) -> C {
        let mut p = c.xyz();
        for (a, v) in p.iter_mut().enumerate().take(C::DIMS) {
            if self.flip[a] {
                *v = self.ext[a] - 1 - *v;
            }
        }
        if self.wrap {
            for (a, v) in p.iter_mut().enumerate().take(C::DIMS) {
                *v = (*v + self.off[a]).rem_euclid(self.ext[a]);
            }
        }
        C::from_xyz(p)
    }

    /// Map a canonical-frame coordinate back to mesh coordinates (the
    /// exact inverse of [`Frame::to_canon`]).
    #[inline]
    pub fn from_canon(&self, c: C) -> C {
        if !self.wrap {
            return self.to_canon(c); // reflections are involutions
        }
        let mut p = c.xyz();
        for (a, v) in p.iter_mut().enumerate().take(C::DIMS) {
            *v = (*v - self.off[a]).rem_euclid(self.ext[a]);
            if self.flip[a] {
                *v = self.ext[a] - 1 - *v;
            }
        }
        C::from_xyz(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::{c2, c3};
    use crate::dir::{Dir2, Dir3};
    use crate::mesh::{Mesh2D, Mesh3D};

    #[test]
    fn frame2_canonicalizes_every_pair() {
        let mesh = Mesh2D::new(7, 5);
        let pairs = [
            (c2(3, 3), c2(6, 4)),
            (c2(3, 3), c2(0, 4)),
            (c2(3, 3), c2(6, 0)),
            (c2(3, 3), c2(0, 0)),
            (c2(2, 2), c2(2, 2)),
        ];
        for (s, d) in pairs {
            let f = Frame2::for_pair(&mesh, s, d);
            let (cs, cd) = (f.to_canon(s), f.to_canon(d));
            assert!(
                cs.dominated_by(cd),
                "{s:?}->{d:?} not canonical: {cs:?} {cd:?}"
            );
            assert_eq!(f.from_canon(cs), s);
            assert_eq!(f.from_canon(cd), d);
            assert_eq!(cs.dist(cd), s.dist(d), "reflection must preserve distance");
        }
    }

    #[test]
    fn frame3_canonicalizes_every_pair() {
        let mesh = Mesh3D::new(5, 6, 7);
        let s = c3(2, 3, 4);
        for d in [
            c3(4, 5, 6),
            c3(0, 0, 0),
            c3(4, 0, 6),
            c3(0, 5, 0),
            c3(2, 3, 4),
        ] {
            let f = Frame3::for_pair(&mesh, s, d);
            let (cs, cd) = (f.to_canon(s), f.to_canon(d));
            assert!(cs.dominated_by(cd));
            assert_eq!(f.from_canon(cs), s);
            assert_eq!(cs.dist(cd), s.dist(d));
        }
    }

    #[test]
    fn frame_maps_steps_consistently() {
        // Stepping then mapping == mapping then stepping: a reflection
        // reverses the step on a flipped axis and keeps it elsewhere.
        let mesh = Mesh3D::new(5, 5, 5);
        for f in Frame3::all(&mesh) {
            let u = c3(2, 3, 1);
            for d in Dir3::ALL {
                let canon = if f.flips(d.axis().index()) {
                    d.opposite()
                } else {
                    d
                };
                assert_eq!(f.to_canon(u.step(d)), f.to_canon(u).step(canon));
            }
        }
        let mesh2 = Mesh2D::new(5, 4);
        for f in Frame2::all(&mesh2) {
            let u = c2(2, 3);
            for d in Dir2::ALL {
                let canon = if f.flips(d.axis().index()) {
                    d.opposite()
                } else {
                    d
                };
                assert_eq!(f.to_canon(u.step(d)), f.to_canon(u).step(canon));
            }
        }
    }

    #[test]
    fn frame_indices_unique() {
        let mesh = Mesh3D::new(4, 4, 4);
        let mut seen = [false; 8];
        for f in Frame3::all(&mesh) {
            assert!(!seen[f.index()]);
            seen[f.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn torus_frame_puts_source_at_origin_and_dest_on_lee_vector() {
        let mesh = Mesh2D::torus(8, 6);
        let pairs = [
            (c2(1, 1), c2(6, 4)),
            (c2(6, 4), c2(1, 1)),
            (c2(7, 0), c2(0, 5)),
            (c2(3, 3), c2(3, 3)),
            (c2(0, 0), c2(4, 3)), // per-axis tie: keep the + arc
        ];
        for (s, d) in pairs {
            let f = Frame2::for_pair(&mesh, s, d);
            let (cs, cd) = (f.to_canon(s), f.to_canon(d));
            assert_eq!(cs, C2::ORIGIN, "{s:?}->{d:?}");
            assert_eq!(
                cd.x as u32 + cd.y as u32,
                mesh.dist(s, d),
                "{s:?}->{d:?}: canonical destination must sit on the Lee vector"
            );
            assert!(cs.dominated_by(cd));
            // The frame is an exact bijection of the torus.
            assert_eq!(f.from_canon(cs), s);
            assert_eq!(f.from_canon(cd), d);
            for c in mesh.nodes() {
                assert_eq!(f.from_canon(f.to_canon(c)), c, "{s:?}->{d:?} at {c:?}");
            }
        }
    }

    #[test]
    fn torus_frame3_roundtrips_and_hits_lee_vector() {
        let mesh = Mesh3D::torus(5, 4, 6);
        let s = c3(4, 1, 5);
        for d in [c3(1, 3, 0), c3(0, 0, 0), c3(4, 1, 5), c3(2, 3, 2)] {
            let f = Frame3::for_pair(&mesh, s, d);
            let (cs, cd) = (f.to_canon(s), f.to_canon(d));
            assert_eq!(cs, C3::ORIGIN);
            assert_eq!(cd.x as u32 + cd.y as u32 + cd.z as u32, mesh.dist(s, d));
            for c in mesh.nodes() {
                assert_eq!(f.from_canon(f.to_canon(c)), c);
            }
        }
    }

    #[test]
    fn torus_frame_maps_wrapped_steps_consistently() {
        // Stepping in mesh coordinates (mod k) then mapping equals mapping
        // then stepping the mapped direction (mod k).
        let mesh = Mesh2D::torus(7, 5);
        let space = mesh.space();
        let f = Frame2::for_pair(&mesh, c2(5, 4), c2(1, 1));
        for c in mesh.nodes() {
            for d in Dir2::ALL {
                let lhs = f.to_canon(space.wrap_coord(c.step(d)));
                let canon = if f.flips(d.axis().index()) {
                    d.opposite()
                } else {
                    d
                };
                let rhs = space.wrap_coord(f.to_canon(c).step(canon));
                assert_eq!(lhs, rhs, "{c:?} {d:?}");
            }
        }
    }

    #[test]
    fn frame_equality_is_the_model_cache_key() {
        // A frame keys the model cache: equality and hashing decide which
        // cached models a pair may reuse.
        use std::collections::HashSet;
        let torus = Mesh2D::torus(7, 5);
        // `identity` and `all` carry no rotation, even on a torus: they
        // map like pure reflections and equal their mesh twins.
        let all = Frame2::all(&torus);
        assert_eq!(Frame2::identity(&torus), all[0]);
        assert_eq!(all[1].to_canon(c2(0, 0)), c2(6, 0));
        assert_eq!(all[3].to_canon(c2(1, 1)), c2(5, 3));
        let mesh = Mesh2D::new(7, 5);
        assert_eq!(Frame2::all(&mesh), all);
        assert_ne!(
            Frame2::identity(&mesh),
            Frame2::identity(&Mesh2D::new(5, 7))
        );
        // A torus pair frame with zero rotation maps like the identity,
        // yet compares unequal to it.
        let zero = Frame2::for_pair(&torus, c2(0, 0), c2(1, 1));
        for c in torus.nodes() {
            assert_eq!(zero.to_canon(c), c);
        }
        assert_ne!(zero, Frame2::identity(&torus));
        // `index()` names the reflection only: rotations share it.
        let turned = Frame2::for_pair(&torus, c2(2, 3), c2(4, 4));
        assert_eq!((zero.index(), turned.index()), (0, 0));
        assert_ne!(zero, turned);
        assert_eq!(Frame2::for_pair(&torus, c2(4, 4), c2(2, 3)).index(), 3);
        // On a mesh a pair frame is the reflection frame of `all`.
        assert_eq!(
            Frame2::for_pair(&mesh, c2(3, 3), c2(0, 4)),
            Frame2::all(&mesh)[1]
        );
        // Hashing agrees with equality.
        let again = Frame2::for_pair(&torus, c2(2, 3), c2(4, 4));
        let keys: HashSet<Frame2> = [all[0], Frame2::identity(&mesh), zero, turned, again]
            .into_iter()
            .collect();
        assert_eq!(keys.len(), 3);

        let t3 = Mesh3D::torus(4, 5, 6);
        let zero3 = Frame3::for_pair(&t3, c3(0, 0, 0), c3(1, 1, 1));
        assert_ne!(zero3, Frame3::identity(&t3));
        assert_eq!(
            Frame3::identity(&t3),
            Frame3::identity(&Mesh3D::new(4, 5, 6))
        );
        assert_eq!(Frame3::for_pair(&t3, c3(1, 2, 3), c3(0, 1, 2)).index(), 7);
        let keys: HashSet<Frame3> = Frame3::all(&t3).into_iter().chain([zero3]).collect();
        assert_eq!(keys.len(), 9);
    }

    #[test]
    fn bounds_stay_in_mesh() {
        let mesh = Mesh2D::new(9, 3);
        for f in Frame2::all(&mesh) {
            for c in mesh.nodes() {
                let m = f.to_canon(c);
                assert!(mesh.contains(m), "{c:?} mapped outside: {m:?}");
            }
        }
    }
}
