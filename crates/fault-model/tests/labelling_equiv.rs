//! The labelling equivalence battery.
//!
//! [`Labelling::compute`] runs both closures of Algorithms 1 and 4 on
//! words: rows of at most 64 nodes packed `⌊64/nx⌋` to a word (lanes),
//! wider rows one or more words each. Every case here compares it with
//! the definitional closures of `reference/mod.rs` — the hash-based
//! worklist [`HashLabelling2`] / [`HashLabelling3`] on meshes, the
//! worklist over the wrapped neighbor relation on tori — on every status
//! and on the unsafe set, under every frame of [`Frame::all`] and both
//! border policies.
//!
//! The cases cover every `x` extent from 1 to 66 (tori from 3) with plane
//! heights of one to three words of lanes, in 2-D and 3-D, and fixed 16³
//! and 24³ meshes. The battery counts the cases by lanes per word, with
//! padding bits above the last lane (`64 % nx ≠ 0`), with phantom lanes in
//! a plane's last word (`ny % ⌊64/nx⌋ ≠ 0`), by words per row past 64
//! nodes, and on tori whose plane is one word (lane 0 reads the word's own
//! last real lane), meshes and tori apart, and fails if a class is
//! missing.
//!
//! `cargo test` runs the every-width cases under one frame each and the
//! fixed cubes; the full battery (every width under every frame, and
//! 4,000 random shapes up to three words per row) is the ignored test, run
//! in release:
//!
//! ```text
//! cargo test --release -p fault-model --test labelling_equiv -- --include-ignored
//! ```

mod reference;

use fault_model::{BorderPolicy, FaultRegime, Labelling, NodeStatus};
use mesh_topo::{Coord, Frame, Mesh, Mesh2D, Mesh3D, NodeSet};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reference::{worklist_closure, HashLabelling2, HashLabelling3};
use std::collections::BTreeMap;

const POLICIES: [BorderPolicy; 2] = [BorderPolicy::BorderSafe, BorderPolicy::BorderBlocked];

/// What one battery run covered, meshes at index 0 and tori at 1.
#[derive(Default, Debug)]
struct Coverage {
    cases: usize,
    /// Cases by lanes per word (`⌊64/nx⌋`, rows of at most 64 nodes).
    lanes: [BTreeMap<usize, usize>; 2],
    /// Cases with padding bits above the last lane, and with phantom
    /// lanes in a plane's last word.
    padded: [usize; 2],
    phantom: [usize; 2],
    /// Torus cases whose plane is one word.
    one_word_planes: usize,
    /// Cases by words per row, rows of more than 64 nodes.
    row_words: BTreeMap<usize, usize>,
    /// Cases with both a useless and a can't-reach label.
    labelled: [usize; 2],
}

impl Coverage {
    /// Count a case of `nx × ny` planes.
    fn count(&mut self, torus: bool, [nx, ny]: [usize; 2]) {
        let t = usize::from(torus);
        self.cases += 1;
        if nx > 64 {
            *self.row_words.entry(nx.div_ceil(64)).or_default() += 1;
            return;
        }
        let per = 64 / nx;
        *self.lanes[t].entry(per).or_default() += 1;
        self.padded[t] += usize::from(64 % nx != 0);
        self.phantom[t] += usize::from(ny % per != 0);
        self.one_word_planes += usize::from(torus && ny <= per);
    }

    /// Assert that meshes and tori each hit the lane count of every row
    /// width in `nx` (tori from 3), padded and phantom lanes, one-word
    /// torus planes and labels.
    fn assert_classes(&self, nx: impl IntoIterator<Item = usize> + Clone) {
        for (t, lo) in [(0, 1), (1, 3)] {
            for w in nx.clone().into_iter().filter(|&w| w >= lo && w <= 64) {
                assert!(
                    self.lanes[t].contains_key(&(64 / w)),
                    "no case with {} lanes per word (torus: {}): {self:?}",
                    64 / w,
                    t == 1
                );
            }
            assert!(self.padded[t] > 0, "{self:?}");
            assert!(self.phantom[t] > 0, "{self:?}");
            assert!(self.labelled[t] > 0, "{self:?}");
        }
        assert!(self.one_word_planes > 0, "{self:?}");
    }
}

/// Compare the labelling of `mesh` with `reference` (statuses by
/// canonical index) under each of `frames` and both policies.
fn check<C: Coord>(
    mesh: &Mesh<C>,
    frames: &[Frame<C>],
    cov: &mut Coverage,
    reference: impl Fn(Frame<C>, BorderPolicy) -> Vec<NodeStatus>,
) {
    let space = mesh.space();
    for &frame in frames {
        for policy in POLICIES {
            let lab = Labelling::compute(mesh, frame, policy);
            let want = reference(frame, policy);
            for (i, (c, st)) in lab.iter().enumerate() {
                assert_eq!(
                    st, want[i],
                    "status at canonical {c} ({policy:?}, {frame:?}) on {mesh:?}"
                );
            }
            let unsafe_set = NodeSet::from_indices(
                space.len(),
                (0..space.len()).filter(|&i| want[i].is_unsafe()),
            );
            assert_eq!(
                lab.unsafe_set(),
                &unsafe_set,
                "unsafe set ({policy:?}, {frame:?}) on {mesh:?}"
            );
            let kinds = (0..space.len()).fold([false; 2], |[u, c], i| {
                [u || want[i].is_useless(), c || want[i].is_cant_reach()]
            });
            cov.labelled[usize::from(space.wraps())] += usize::from(kinds == [true; 2]);
        }
    }
}

/// The frames a case runs under: all of them, or one drawn from `rng`.
fn frames<C: Coord>(mesh: &Mesh<C>, all: bool, rng: &mut SmallRng) -> Vec<Frame<C>> {
    let mut frames = Frame::all(mesh);
    if !all {
        let k = rng.gen_range(0..frames.len());
        frames = vec![frames[k]];
    }
    frames
}

fn check_2d(mesh: &Mesh2D, all_frames: bool, rng: &mut SmallRng, cov: &mut Coverage) {
    let space = mesh.space();
    check(
        mesh,
        &frames(mesh, all_frames, rng),
        cov,
        |frame, policy| {
            if space.wraps() {
                return worklist_closure(mesh, frame);
            }
            let hash = HashLabelling2::compute(mesh, frame, policy);
            let mut st = vec![NodeStatus::SAFE; space.len()];
            for (&c, &s) in &hash.status {
                st[space.index(c)] = s;
            }
            st
        },
    );
    cov.count(
        space.wraps(),
        [space.width(), space.height()].map(|n| n as usize),
    );
}

fn check_3d(mesh: &Mesh3D, all_frames: bool, rng: &mut SmallRng, cov: &mut Coverage) {
    let space = mesh.space();
    check(
        mesh,
        &frames(mesh, all_frames, rng),
        cov,
        |frame, policy| {
            if space.wraps() {
                return worklist_closure(mesh, frame);
            }
            let hash = HashLabelling3::compute(mesh, frame, policy);
            let mut st = vec![NodeStatus::SAFE; space.len()];
            for (&c, &s) in &hash.status {
                st[space.index(c)] = s;
            }
            st
        },
    );
    cov.count(space.wraps(), [space.nx(), space.ny()].map(|n| n as usize));
}

/// Inject a uniform or clustered fault set of up to 35 % of the nodes,
/// biased low, into `mesh`.
fn inject<C: Coord>(mesh: &mut Mesh<C>, rng: &mut SmallRng) {
    let share: f64 = rng.gen_range(0.0..1.0);
    let count = (share * share * 0.35 * mesh.space().len() as f64) as usize;
    let regime = if rng.gen_range(0..2) == 0 {
        FaultRegime::Uniform
    } else {
        FaultRegime::Clustered {
            clusters: rng.gen_range(1..5),
        }
    };
    regime.inject(mesh, count, rng.gen(), &[], BorderPolicy::BorderSafe);
}

/// Every `x` extent from 1 to 66 (tori from 3), each with every plane
/// height from one to three words of lanes (every residue modulo the
/// lanes per word, whole and partial last words, one-word planes), in 2-D
/// and 3-D (`z` extents up to 3), under one frame each or all of them.
fn every_width(all_frames: bool) -> Coverage {
    let mut rng = SmallRng::seed_from_u64(43);
    let mut cov = Coverage::default();
    for torus in [false, true] {
        let lo = if torus { 3 } else { 1 };
        for nx in lo..=66 {
            let per = (64 / nx).max(1);
            for ny in (per..(3 * per).max(lo + 2)).filter(|&ny| ny >= lo) {
                let mut mesh = if torus {
                    Mesh2D::torus(nx, ny)
                } else {
                    Mesh2D::new(nx, ny)
                };
                inject(&mut mesh, &mut rng);
                check_2d(&mesh, all_frames, &mut rng, &mut cov);

                let nz = rng.gen_range(lo..=3);
                let mut mesh = if torus {
                    Mesh3D::torus(nx, ny, nz)
                } else {
                    Mesh3D::new(nx, ny, nz)
                };
                inject(&mut mesh, &mut rng);
                check_3d(&mesh, all_frames, &mut rng, &mut cov);
            }
        }
    }
    cov
}

#[test]
fn labelling_matches_reference_at_every_width() {
    let cov = every_width(false);
    cov.assert_classes(1..=66);
    assert!(cov.row_words.contains_key(&2), "{cov:?}");
}

/// 3-D `k`-ary meshes under `count` uniform faults, `cases` of them, under
/// every frame and both policies.
fn cubes(k: i32, cases: usize, count: std::ops::RangeInclusive<usize>) -> Coverage {
    let mut rng = SmallRng::seed_from_u64(3);
    let mut cov = Coverage::default();
    for _ in 0..cases {
        let mut mesh = Mesh3D::kary(k);
        let count = rng.gen_range(count.clone());
        FaultRegime::Uniform.inject(&mut mesh, count, rng.gen(), &[], BorderPolicy::BorderSafe);
        check_3d(&mesh, true, &mut rng, &mut cov);
    }
    cov
}

/// 16³, the `sweep` benchmark's size and fault counts: four lanes to a
/// word, four words to a plane.
#[test]
fn labelling_matches_reference_at_16_cubed() {
    let cov = cubes(16, 4, 10..=400);
    assert_eq!(cov.lanes[0].get(&4), Some(&4), "{cov:?}");
    assert!(cov.labelled[0] > 0, "{cov:?}");
}

/// 24³: two lanes to a word and 16 bits of padding above them.
#[test]
fn labelling_matches_reference_at_24_cubed() {
    let cov = cubes(24, 2, 100..=1_400);
    assert_eq!(cov.padded[0], 2, "{cov:?}");
    assert_eq!(cov.lanes[0].get(&2), Some(&2), "{cov:?}");
}

/// A random `x` extent in `lo..=130`, the words per row drawn first so
/// rows of one, two and three words are equally common.
fn x_extent(rng: &mut SmallRng, lo: i32) -> i32 {
    let words = rng.gen_range(1..=3);
    rng.gen_range(lo.max(64 * (words - 1) + 1)..=(64 * words).min(130))
}

#[test]
#[ignore = "the full battery; run in release with --include-ignored"]
fn labelling_matches_reference_full() {
    let cov = every_width(true);
    cov.assert_classes(1..=66);
    let mut rng = SmallRng::seed_from_u64(0x1abe1);
    let mut cov = Coverage::default();
    for case in 0..2_000 {
        let torus = case % 2 == 1;
        let lo = if torus { 3 } else { 1 };
        let (w, h) = (x_extent(&mut rng, lo), rng.gen_range(lo..=9));
        let mut mesh = if torus {
            Mesh2D::torus(w, h)
        } else {
            Mesh2D::new(w, h)
        };
        inject(&mut mesh, &mut rng);
        check_2d(&mesh, true, &mut rng, &mut cov);
        let e = [
            x_extent(&mut rng, lo),
            rng.gen_range(lo..=5),
            rng.gen_range(lo..=4),
        ];
        let mut mesh = if torus {
            Mesh3D::torus(e[0], e[1], e[2])
        } else {
            Mesh3D::new(e[0], e[1], e[2])
        };
        inject(&mut mesh, &mut rng);
        check_3d(&mesh, true, &mut rng, &mut cov);
    }
    assert_eq!(cov.cases, 4_000);
    assert!(cov.row_words.len() == 2, "{cov:?}");
    cov.assert_classes([1, 2, 3, 5, 9, 17, 33, 64]);
}
