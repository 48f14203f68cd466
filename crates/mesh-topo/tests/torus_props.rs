//! Property battery pinning the neighbor math of the node spaces against
//! brute-force coordinate arithmetic.
//!
//! The enumerators in `mesh_topo::nodeset` compute neighbor indices with
//! branchy in-place offset math (no division in the hot loop). These
//! tests re-derive every neighborhood from the definition — `c + offset`,
//! reduced `mod k` per axis on a torus and dropped past a mesh border —
//! and require exact agreement, in the documented order, for every node
//! of randomly drawn torus and mesh extents, across:
//!
//! * `step` (single probes),
//! * `for_axis_neighbors` (the 4- and 6-neighborhoods, in the order the
//!   fault samplers' draw sequence relies on),
//! * `for_region_neighbors` (the 8- and 18-neighborhoods, in the order
//!   component discovery relies on),
//! * `dist` (per-axis Lee distance) and `wrap_coord` (reduction).

use mesh_topo::coord::{c2, c3};
use mesh_topo::{Dir2, Dir3, Mesh2D, Mesh3D, NodeSpace2, NodeSpace3, C2, C3};
use proptest::prelude::*;

/// The definition: wrap one axis value into `0..k`.
fn modk(v: i32, k: i32) -> i32 {
    ((v % k) + k) % k
}

/// The 2-D axis-neighbor offsets in the documented enumeration order:
/// `+X, -X, +Y, -Y` (`Dir2::ALL`), the order the fault samplers' draw
/// sequence relies on.
const AXIS4: [(i32, i32); 4] = [(1, 0), (-1, 0), (0, 1), (0, -1)];

/// The 2-D region-connectivity offsets in the order component discovery
/// relies on: faces first, then the diagonals.
const REGION8: [(i32, i32); 8] = [
    (1, 0),
    (-1, 0),
    (0, 1),
    (0, -1),
    (1, 1),
    (1, -1),
    (-1, 1),
    (-1, -1),
];

/// The 3-D axis-neighbor offsets: `+X, -X, +Y, -Y, +Z, -Z` (`Dir3::ALL`).
const AXIS6: [(i32, i32, i32); 6] = [
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
];

/// The 3-D region-connectivity offsets (faces, then the planar diagonals
/// of the xy, xz and yz planes; no space diagonal), in discovery order.
const REGION18: [(i32, i32, i32); 18] = [
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
    (1, 1, 0),
    (1, -1, 0),
    (-1, 1, 0),
    (-1, -1, 0),
    (1, 0, 1),
    (1, 0, -1),
    (-1, 0, 1),
    (-1, 0, -1),
    (0, 1, 1),
    (0, 1, -1),
    (0, -1, 1),
    (0, -1, -1),
];

/// One probe by definition: `c + off` reduced modulo the extents on a
/// torus, `None` outside a mesh.
fn probe2(c: C2, (dx, dy): (i32, i32), (w, h): (i32, i32), wrap: bool) -> Option<C2> {
    let (x, y) = (c.x + dx, c.y + dy);
    if wrap {
        Some(c2(modk(x, w), modk(y, h)))
    } else {
        let inside = (0..w).contains(&x) && (0..h).contains(&y);
        inside.then(|| c2(x, y))
    }
}

/// The 3-D twin of [`probe2`].
fn probe3(c: C3, (dx, dy, dz): (i32, i32, i32), ext: (i32, i32, i32), wrap: bool) -> Option<C3> {
    let (x, y, z) = (c.x + dx, c.y + dy, c.z + dz);
    if wrap {
        Some(c3(modk(x, ext.0), modk(y, ext.1), modk(z, ext.2)))
    } else {
        let inside = (0..ext.0).contains(&x) && (0..ext.1).contains(&y) && (0..ext.2).contains(&z);
        inside.then(|| c3(x, y, z))
    }
}

proptest! {
    // Each case checks a torus and a mesh: the mesh extents are the
    // torus's less two, so lines one and two nodes wide are covered, and
    // every node is visited, so are every border and corner.
    #[test]
    fn torus2_neighbors_match_modular_oracle(w in 3i32..12, h in 3i32..12) {
        for (s, ext) in [
            (NodeSpace2::torus(w, h), (w, h)),
            (NodeSpace2::new(w - 2, h - 2), (w - 2, h - 2)),
        ] {
            let wrap = s.wraps();
            for i in 0..s.len() {
                let c = s.coord(i);
                // Single-step probes.
                for (dir, &off) in Dir2::ALL.into_iter().zip(AXIS4.iter()) {
                    let want = probe2(c, off, ext, wrap);
                    prop_assert_eq!(s.step(i, dir).map(|j| s.coord(j)), want);
                }
                // Both enumerators, exact order.
                let axis: Vec<C2> = AXIS4.iter().filter_map(|&o| probe2(c, o, ext, wrap)).collect();
                let mut got = Vec::new();
                s.for_axis_neighbors(i, |j| got.push(s.coord(j)));
                prop_assert_eq!(&got, &axis, "axis neighbors of {} (wrap {})", c, wrap);
                let region: Vec<C2> =
                    REGION8.iter().filter_map(|&o| probe2(c, o, ext, wrap)).collect();
                let mut got8 = Vec::new();
                s.for_region_neighbors(i, |j| got8.push(s.coord(j)));
                prop_assert_eq!(&got8, &region, "region neighbors of {} (wrap {})", c, wrap);
            }
        }
    }

    #[test]
    fn torus3_neighbors_match_modular_oracle(
        nx in 3i32..7,
        ny in 3i32..7,
        nz in 3i32..7,
    ) {
        for (s, ext) in [
            (NodeSpace3::torus(nx, ny, nz), (nx, ny, nz)),
            (NodeSpace3::new(nx - 2, ny - 2, nz - 2), (nx - 2, ny - 2, nz - 2)),
        ] {
            let wrap = s.wraps();
            for i in 0..s.len() {
                let c = s.coord(i);
                for (dir, &off) in Dir3::ALL.into_iter().zip(AXIS6.iter()) {
                    let want = probe3(c, off, ext, wrap);
                    prop_assert_eq!(s.step(i, dir).map(|j| s.coord(j)), want);
                }
                let axis: Vec<C3> = AXIS6.iter().filter_map(|&o| probe3(c, o, ext, wrap)).collect();
                let mut got = Vec::new();
                s.for_axis_neighbors(i, |j| got.push(s.coord(j)));
                prop_assert_eq!(&got, &axis, "axis neighbors of {} (wrap {})", c, wrap);
                let region: Vec<C3> =
                    REGION18.iter().filter_map(|&o| probe3(c, o, ext, wrap)).collect();
                let mut got18 = Vec::new();
                s.for_region_neighbors(i, |j| got18.push(s.coord(j)));
                prop_assert_eq!(&got18, &region, "region neighbors of {} (wrap {})", c, wrap);
            }
        }
    }

    #[test]
    fn torus_distance_is_min_arc_sum(
        w in 3i32..12,
        h in 3i32..12,
        ax in 0i32..12, ay in 0i32..12,
        bx in 0i32..12, by in 0i32..12,
    ) {
        let s = NodeSpace2::torus(w, h);
        let a = c2(ax % w, ay % h);
        let b = c2(bx % w, by % h);
        let arc = |p: i32, q: i32, k: i32| {
            let d = (p - q).abs();
            d.min(k - d) as u32
        };
        prop_assert_eq!(s.dist(a, b), arc(a.x, b.x, w) + arc(a.y, b.y, h));
        prop_assert_eq!(s.dist(a, b), s.dist(b, a));
        // The wrapped mesh agrees with its space.
        let mesh = Mesh2D::torus(w, h);
        prop_assert_eq!(mesh.dist(a, b), s.dist(a, b));
    }

    #[test]
    fn torus_wrap_coord_is_modular_reduction(
        w in 3i32..10,
        h in 3i32..10,
        x in -40i32..40,
        y in -40i32..40,
    ) {
        let s = NodeSpace2::torus(w, h);
        prop_assert_eq!(s.wrap_coord(c2(x, y)), c2(modk(x, w), modk(y, h)));
    }

    #[test]
    fn mesh3_and_torus3_neighbors_differ_only_at_borders(k in 3i32..6) {
        let mesh = Mesh3D::kary(k);
        let torus = Mesh3D::torus_kary(k);
        for c in mesh.nodes() {
            let m: Vec<C3> = mesh.neighbors(c).collect();
            let t: Vec<C3> = torus.neighbors(c).collect();
            prop_assert_eq!(t.len(), 6);
            let interior = c.x > 0 && c.y > 0 && c.z > 0
                && c.x < k - 1 && c.y < k - 1 && c.z < k - 1;
            if interior {
                prop_assert_eq!(&m, &t);
            } else {
                // Every mesh neighbor survives on the torus, in order.
                let mut it = t.iter();
                for n in &m {
                    prop_assert!(it.any(|x| x == n), "{n} lost at {c}");
                }
            }
        }
    }
}
