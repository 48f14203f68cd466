//! The reachability-kernel equivalence battery.
//!
//! [`Useful`] computes the backward monotone-reachability set of a box a
//! row of bits at a time. The per-node sweep it replaced is kept verbatim
//! in [`reference/useful.rs`](reference) as the oracle, and every case
//! here asserts the kernel reproduces it exactly: `contains` on every box
//! node, and `count`.
//!
//! Cases cover 2-D and 3-D meshes and tori, every reflection frame and
//! the per-pair torus frames (whose rows may cross the wrap seam), box
//! widths 1–130 (rows of one, two and three words) and blocked shares
//! from 0 % to 50 %. Each case runs both entry points: the set entry
//! ([`Useful::recompute_set`], with a frame and with the set indexed by
//! the box coordinates) and the closure entry ([`Useful::recompute`]).
//! One kernel instance is reused across all cases, so a stale row from a
//! larger earlier box would show.
//!
//! `cargo test` runs a bounded slice; the full battery is the ignored
//! test, run in release:
//!
//! ```text
//! cargo test --release -p fault-model --test reachability_equiv -- --include-ignored
//! ```

#[path = "reference/useful.rs"]
mod reference;

use fault_model::oracle::Useful;
use mesh_topo::coord::{c2, c3};
use mesh_topo::{Coord, Frame, Mesh, Mesh2D, Mesh3D, NodeSet, NodeSpace, C2, C3};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The widest box row the battery asks for.
const MAX_WIDTH: i32 = 130;

/// The per-node reference sweep of one dimension.
trait Reference: Coord {
    type Ref;
    fn sweep(s: Self, d: Self, blocked: impl Fn(Self) -> bool) -> Self::Ref;
    fn contains(r: &Self::Ref, c: Self) -> bool;
    fn count(r: &Self::Ref) -> usize;
    fn mesh(extents: [i32; 3], torus: bool) -> Mesh<Self>;
}

impl Reference for C2 {
    type Ref = reference::Useful2;
    fn sweep(s: Self, d: Self, blocked: impl Fn(Self) -> bool) -> Self::Ref {
        reference::Useful2::compute(s, d, blocked)
    }
    fn contains(r: &Self::Ref, c: Self) -> bool {
        r.contains(c)
    }
    fn count(r: &Self::Ref) -> usize {
        r.count()
    }
    fn mesh(e: [i32; 3], torus: bool) -> Mesh2D {
        if torus {
            Mesh2D::torus(e[0], e[1])
        } else {
            Mesh2D::new(e[0], e[1])
        }
    }
}

impl Reference for C3 {
    type Ref = reference::Useful3;
    fn sweep(s: Self, d: Self, blocked: impl Fn(Self) -> bool) -> Self::Ref {
        reference::Useful3::compute(s, d, blocked)
    }
    fn contains(r: &Self::Ref, c: Self) -> bool {
        r.contains(c)
    }
    fn count(r: &Self::Ref) -> usize {
        r.count()
    }
    fn mesh(e: [i32; 3], torus: bool) -> Mesh3D {
        if torus {
            Mesh3D::torus(e[0], e[1], e[2])
        } else {
            Mesh3D::new(e[0], e[1], e[2])
        }
    }
}

/// What one battery run covered.
#[derive(Default, Debug)]
struct Coverage {
    boxes: usize,
    /// Boxes by words per row: one, two, three.
    words: [usize; 3],
    /// Torus boxes whose rows cross the wrap seam.
    seam: usize,
    /// Boxes whose source cannot reach the destination.
    blocked: usize,
    widest: i32,
}

/// Every node of the box `[s, d]`, plus a one-node margin outside it
/// where the node space allows one (`contains` must say no there).
fn box_nodes<C: Coord>(s: C, d: C) -> Vec<C> {
    let (lo, hi) = (s.xyz(), d.xyz());
    let mut out = Vec::new();
    for z in lo[2] - 1..=hi[2] + 1 {
        for y in lo[1] - 1..=hi[1] + 1 {
            for x in lo[0] - 1..=hi[0] + 1 {
                out.push(C::from_xyz([x, y, z]));
            }
        }
    }
    out
}

/// Assert the kernel's current set equals the reference on `[s, d]`.
fn assert_same<C: Reference>(kernel: &Useful<C>, want: &C::Ref, s: C, d: C, what: &str) {
    for c in box_nodes(s, d) {
        assert_eq!(
            kernel.contains(c),
            C::contains(want, c),
            "{what}: box {s}..{d} differs at {c}"
        );
    }
    assert_eq!(kernel.count(), C::count(want), "{what}: box {s}..{d} count");
}

/// Run both entry points on one box and compare each with the reference.
/// `frame` maps box coordinates to `space` coordinates (`None`: identity).
fn check_box<C: Reference>(
    kernel: &mut Useful<C>,
    space: NodeSpace<C>,
    set: &NodeSet,
    frame: Option<Frame<C>>,
    s: C,
    d: C,
    cov: &mut Coverage,
) {
    let blocked = |c: C| set.contains(space.index(frame.map_or(c, |f| f.from_canon(c))));
    let want = C::sweep(s, d, blocked);
    kernel.recompute_set(s, d, set, space, frame);
    assert_same(kernel, &want, s, d, "set entry");
    kernel.recompute(s, d, blocked);
    assert_same(kernel, &want, s, d, "closure entry");

    let (lo, hi) = (s.xyz(), d.xyz());
    let wx = hi[0] - lo[0] + 1;
    cov.boxes += 1;
    cov.words[(wx as usize).div_ceil(64) - 1] += 1;
    cov.blocked += usize::from(!C::contains(&want, s));
    cov.widest = cov.widest.max(wx);
    if let Some(f) = frame {
        let xs: Vec<i32> = (lo[0]..=hi[0])
            .map(|x| f.from_canon(C::from_xyz([x, lo[1], lo[2]])).xyz()[0])
            .collect();
        let span = xs.iter().max().unwrap() - xs.iter().min().unwrap() + 1;
        cov.seam += usize::from(span != wx);
    }
}

/// A random set over `space` with each node a member with probability
/// `share`.
fn random_set<C: Coord>(rng: &mut SmallRng, space: NodeSpace<C>, share: f64) -> NodeSet {
    let n = space.len();
    NodeSet::from_indices(n, (0..n).filter(|_| rng.gen_bool(share)))
}

/// A random canonical box inside `extents`; its `x` width is drawn
/// uniformly from what the extent allows, up to [`MAX_WIDTH`].
fn random_box<C: Coord>(rng: &mut SmallRng, extents: [i32; 3]) -> (C, C) {
    let (mut lo, mut hi) = ([0; 3], [0; 3]);
    for k in 0..3 {
        let cap = if k == 0 {
            extents[k].min(MAX_WIDTH)
        } else {
            extents[k]
        };
        let w = rng.gen_range(1..=cap);
        lo[k] = rng.gen_range(0..=extents[k] - w);
        hi[k] = lo[k] + w - 1;
    }
    (C::from_xyz(lo), C::from_xyz(hi))
}

/// One random case: a mesh or torus, a blocked set, then a per-pair
/// frame, every reflection frame and the identity indexing in turn.
fn case<C: Reference>(rng: &mut SmallRng, kernel: &mut Useful<C>, torus: bool, cov: &mut Coverage) {
    let lo = if torus { 3 } else { 1 };
    // A box is at most as wide as the mesh, and a torus pair frame keeps
    // at most half the ring plus one node, so these extents keep every
    // box within MAX_WIDTH.
    let max_x = if torus { 2 * MAX_WIDTH - 1 } else { MAX_WIDTH };
    let small = if C::DIMS == 2 { 7 } else { 4 };
    let mut extents = [rng.gen_range(lo..=max_x), rng.gen_range(lo..=small), 1];
    if C::DIMS == 3 {
        extents[2] = rng.gen_range(lo..=small);
    }
    let mesh = C::mesh(extents, torus);
    let space = mesh.space();
    let share = if rng.gen_bool(0.1) {
        0.0
    } else {
        rng.gen_range(0.0..0.5)
    };
    let set = random_set(rng, space, share);

    let pick = |rng: &mut SmallRng| C::from_xyz([0, 1, 2].map(|k| rng.gen_range(0..extents[k])));
    let (s, d) = (pick(rng), pick(rng));
    let frame = Frame::for_pair(&mesh, s, d);
    let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
    check_box(kernel, space, &set, Some(frame), cs, cd, cov);

    for f in Frame::all(&mesh) {
        let (bs, bd) = random_box::<C>(rng, extents);
        check_box(kernel, space, &set, Some(f), bs, bd, cov);
    }
    let (bs, bd) = random_box::<C>(rng, extents);
    check_box(kernel, space, &set, None, bs, bd, cov);
}

/// Run `cases` random cases per dimension from `seed`, half on tori.
fn battery(seed: u64, cases: usize) -> (Coverage, Coverage) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut cov2, mut cov3) = (Coverage::default(), Coverage::default());
    let (mut k2, mut k3) = (Useful::scratch(), Useful::scratch());
    for i in 0..cases {
        let torus = i % 2 == 1;
        case::<C2>(&mut rng, &mut k2, torus, &mut cov2);
        case::<C3>(&mut rng, &mut k3, torus, &mut cov3);
    }
    (cov2, cov3)
}

fn assert_covered(cov: &Coverage) {
    assert!(cov.words.iter().all(|&n| n > 0), "{cov:?}");
    assert!(cov.seam > 0 && cov.blocked > 0, "{cov:?}");
    assert!(cov.widest >= MAX_WIDTH - 10, "{cov:?}");
}

#[test]
fn kernel_matches_reference_slice() {
    let (cov2, cov3) = battery(26, 60);
    assert_covered(&cov2);
    assert_covered(&cov3);
}

#[test]
#[ignore = "the full battery; run in release with --include-ignored"]
fn kernel_matches_reference_full() {
    let (cov2, cov3) = battery(0x5eed, 10_000);
    assert_eq!(cov2.boxes, 10_000 * 6);
    assert_eq!(cov3.boxes, 10_000 * 10);
    assert_covered(&cov2);
    assert_covered(&cov3);
    assert_eq!(cov2.widest, MAX_WIDTH);
    assert_eq!(cov3.widest, MAX_WIDTH);
}

/// The seam tie: on an 8-ary torus, `s = (7, 5)` and `d = (3, 1)` sit at
/// Lee distance 4 on both axes, so the frame keeps the `+` arc and the
/// canonical row `x = 0..4` is mesh `x = 7, 0, 1, 2, 3`. The mesh images
/// of the row's ends differ by 4 = width − 1, as they would for the
/// unwrapped run `3..=7`; a row fill that trusts that difference reads
/// the wrong side of the seam. Faults sit on both sides of it.
#[test]
fn seam_tie_rows_read_both_sides_of_the_wrap() {
    let mut mesh = Mesh2D::torus(8, 8);
    // A wall at mesh x = 1 over the box's rows (y = 5, 6, 7, 0, 1) with
    // one gap, plus faults at x = 5, outside the box.
    for y in [5, 6, 0, 1] {
        mesh.inject_fault(c2(1, y));
    }
    for y in [5, 7, 1] {
        mesh.inject_fault(c2(5, y));
    }
    mesh.inject_fault(c2(7, 7));
    let (s, d) = (c2(7, 5), c2(3, 1));
    let frame = mesh_topo::Frame2::for_pair(&mesh, s, d);
    let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
    assert_eq!((cs, cd), (c2(0, 0), c2(4, 4)));
    let mut kernel = Useful::scratch();
    kernel.recompute_set(cs, cd, mesh.fault_set(), mesh.space(), Some(frame));
    let want = reference::Useful2::compute(cs, cd, |c| mesh.is_faulty(frame.from_canon(c)));
    assert_same::<C2>(&kernel, &want, cs, cd, "2-D seam tie");
    assert!(kernel.contains(cs), "the gap at (1, 7) lets s through");

    let mut mesh = Mesh3D::torus(8, 8, 8);
    for y in [5, 6, 0, 1] {
        for z in [6, 7, 0, 1, 2] {
            mesh.inject_fault(c3(1, y, z));
        }
    }
    for (y, z) in [(5, 6), (7, 0), (1, 2)] {
        mesh.inject_fault(c3(5, y, z));
    }
    mesh.inject_fault(c3(7, 7, 2));
    let (s, d) = (c3(7, 5, 6), c3(3, 1, 2));
    let frame = mesh_topo::Frame3::for_pair(&mesh, s, d);
    let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
    assert_eq!((cs, cd), (c3(0, 0, 0), c3(4, 4, 4)));
    let mut kernel = Useful::scratch();
    kernel.recompute_set(cs, cd, mesh.fault_set(), mesh.space(), Some(frame));
    let want = reference::Useful3::compute(cs, cd, |c| mesh.is_faulty(frame.from_canon(c)));
    assert_same::<C3>(&kernel, &want, cs, cd, "3-D seam tie");
    assert!(kernel.contains(cs), "the y = 7 gap lets s through");
}
