//! The block-model equivalence battery.
//!
//! [`FaultBlocks2`] / [`FaultBlocks3`] compute the faulty-block closure
//! with a frontier kernel. The closure they replaced is kept verbatim in
//! [`reference/rfb.rs`](reference) as the oracle, and every case here
//! asserts the kernel reproduces it exactly: the same disabled set, the
//! same `blocks` Vec (order included) and the same sacrificed count.
//!
//! Cases cover 2-D and 3-D meshes (extents 2–16) and tori (extents 3–16;
//! the node space rejects smaller tori; the full battery draws `x`
//! extents up to 64), plus wide ones whose rows span one, two and three
//! words (`x` extents up to 130, with 2-D heights up to 7 and 3-D `y` and
//! `z` extents up to 4), the uniform, clustered, front and plane fault
//! regimes, and fault shares from none up to well past the point where
//! the closure percolates to the whole grid. A fixed list adds every `x`
//! extent from 2 to 66 with plane heights of one to three words of lanes,
//! and 8³, 16³ and 24³ meshes. The battery
//! counts the cases where the closure disables every node and the cases
//! whose box fill adds nodes the rule alone does not. It fails if either
//! kind is missing on tori, or if a fill adds anything on a mesh (where a
//! connected set closed under the rule is already a full box). On every
//! mesh case it also checks why the kernel may skip the fill there: each
//! component of the disabled set is a full box, and the boxes are pairwise
//! at ℓ1 distance ≥ 3. Rows of at most 64 nodes settle `⌊64/nx⌋` to a
//! word, so the battery also counts cases by lanes per word, with padding
//! bits above the last lane (`64 % nx ≠ 0`) and with a partial last word
//! per plane (`ny % ⌊64/nx⌋ ≠ 0`), meshes and tori apart, and fails if a
//! class is missing.
//!
//! `cargo test` runs bounded slices and the fixed cases; the full battery
//! (16,000 cases) is the ignored test, run in release:
//!
//! ```text
//! cargo test --release -p fault-model --test rfb_equiv -- --include-ignored
//! ```

#[path = "reference/rfb.rs"]
mod reference;

use fault_model::{BorderPolicy, FaultBlocks2, FaultBlocks3, FaultRegime};
use mesh_topo::{Coord, Mesh2D, Mesh3D, NodeSet, NodeSpace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reference::{RefBlocks2, RefBlocks3};
use std::collections::BTreeMap;
use std::ops::RangeInclusive;

/// What one battery run covered.
#[derive(Default, Debug)]
struct Coverage {
    cases: usize,
    full_percolation: usize,
    torus_fill: usize,
    mesh_fill: usize,
    /// Cases by words per row: one, two, three.
    words: [usize; 3],
    /// Cases whose rows fit a word, meshes then tori: by lanes per word
    /// (`⌊64/nx⌋`), with padding bits above the last lane (`64 % nx ≠
    /// 0`), and with a partial last word per plane (`ny` not a multiple of
    /// the lanes per word).
    lanes: [BTreeMap<usize, usize>; 2],
    padded: [usize; 2],
    partial: [usize; 2],
}

impl Coverage {
    /// Count a case of `nx × ny` planes.
    fn count(&mut self, torus: bool, [nx, ny]: [usize; 2]) {
        self.cases += 1;
        self.words[nx.div_ceil(64) - 1] += 1;
        if nx <= 64 {
            let (t, per) = (usize::from(torus), 64 / nx);
            *self.lanes[t].entry(per).or_default() += 1;
            self.padded[t] += usize::from(64 % nx != 0);
            self.partial[t] += usize::from(ny % per != 0);
        }
    }

    /// Assert that meshes and tori each hit the lane count of every row
    /// width in `nx` (tori from 3), padded lanes and partial plane words.
    fn assert_lanes(&self, nx: impl IntoIterator<Item = usize> + Clone) {
        for (t, lo) in [(0, 2), (1, 3)] {
            for w in nx.clone().into_iter().filter(|&w| w >= lo) {
                assert!(
                    self.lanes[t].contains_key(&(64 / w)),
                    "no case with {} lanes per word (torus: {}): {self:?}",
                    64 / w,
                    t == 1
                );
            }
            assert!(self.padded[t] > 0, "{self:?}");
            assert!(self.partial[t] > 0, "{self:?}");
        }
    }
}

/// The largest extents a battery draws: `[width, height]` in 2-D and
/// `[nx, ny, nz]` in 3-D.
struct Shape {
    max2: [i32; 2],
    max3: [i32; 3],
}

/// `x` extents up to `nx`, 2-D heights up to 16 and 3-D `y` and `z`
/// extents up to `yz`.
fn narrow(nx: i32, yz: i32) -> Shape {
    Shape {
        max2: [nx, 16],
        max3: [nx, yz, yz],
    }
}

/// Rows of up to three words.
const WIDE: Shape = Shape {
    max2: [130, 7],
    max3: [130, 4, 4],
};

/// One of the four spatial regimes, drawn from `rng`.
fn regime(rng: &mut SmallRng, dims: usize) -> FaultRegime {
    match rng.gen_range(0..4) {
        0 => FaultRegime::Uniform,
        1 => FaultRegime::Clustered {
            clusters: rng.gen_range(1..6),
        },
        2 => FaultRegime::CorrelatedFront {
            fronts: rng.gen_range(1..4),
        },
        _ => FaultRegime::SweepingPlane {
            axis: rng.gen_range(0..dims),
        },
    }
}

/// A fault count for `nodes` nodes: shares up to 40 %, biased low.
fn fault_count(rng: &mut SmallRng, nodes: usize) -> usize {
    let share: f64 = rng.gen_range(0.0..1.0);
    (share * share * 0.4 * nodes as f64) as usize
}

/// Assert that every component of `disabled` is a full box and that the
/// boxes are pairwise at ℓ1 distance ≥ 3: the shape of a mesh's closure
/// under the block rule, which therefore needs no fill. (At distance 2 a
/// node between two boxes would have two disabled neighbors.)
fn assert_separated_full_boxes<C: Coord>(space: NodeSpace<C>, disabled: &NodeSet) {
    let mut seen = NodeSet::new(space.len());
    let mut boxes: Vec<([i32; 3], [i32; 3])> = Vec::new();
    for start in disabled.iter() {
        if !seen.insert(start) {
            continue;
        }
        let (mut lo, mut hi, mut size, mut stack) = ([i32::MAX; 3], [i32::MIN; 3], 0, vec![start]);
        while let Some(i) = stack.pop() {
            size += 1;
            let c = space.coord(i).xyz();
            for k in 0..3 {
                lo[k] = lo[k].min(c[k]);
                hi[k] = hi[k].max(c[k]);
            }
            space.for_axis_neighbors(i, |j| {
                if disabled.contains(j) && seen.insert(j) {
                    stack.push(j);
                }
            });
        }
        let volume: i32 = (0..3).map(|k| hi[k] - lo[k] + 1).product();
        assert_eq!(
            size, volume as usize,
            "component {lo:?}..{hi:?} is not a full box in {space:?}"
        );
        for (l, h) in &boxes {
            let gap: i32 = (0..3)
                .map(|k| (l[k] - hi[k]).max(lo[k] - h[k]).max(0))
                .sum();
            assert!(
                gap >= 3,
                "boxes {l:?}..{h:?} and {lo:?}..{hi:?} are {gap} apart in {space:?}"
            );
        }
        boxes.push((lo, hi));
    }
}

fn check_2d(mesh: &Mesh2D, cov: &mut Coverage) {
    let new = FaultBlocks2::compute(mesh);
    let old = RefBlocks2::compute(mesh);
    let space = mesh.space();
    for c in mesh.nodes() {
        assert_eq!(
            new.is_disabled(c),
            old.disabled.contains(space.index(c)),
            "disabled set differs at {c} on {mesh:?}"
        );
    }
    assert_eq!(new.disabled_count(), old.disabled.len(), "{mesh:?}");
    assert_eq!(new.blocks(), old.blocks, "blocks differ on {mesh:?}");
    assert_eq!(new.sacrificed_count(), old.sacrificed, "{mesh:?}");

    cov.count(
        space.wraps(),
        [space.width(), space.height()].map(|n| n as usize),
    );
    cov.full_percolation += usize::from(old.disabled.len() == space.len());
    let mut rule_only = mesh.fault_set().clone();
    RefBlocks2::close_rule(space, &mut rule_only);
    let filled = usize::from(rule_only != old.disabled);
    if space.wraps() {
        cov.torus_fill += filled;
    } else {
        cov.mesh_fill += filled;
        assert_separated_full_boxes(space, &old.disabled);
    }
}

fn check_3d(mesh: &Mesh3D, cov: &mut Coverage) {
    let new = FaultBlocks3::compute(mesh);
    let old = RefBlocks3::compute(mesh);
    let space = mesh.space();
    for c in mesh.nodes() {
        assert_eq!(
            new.is_disabled(c),
            old.disabled.contains(space.index(c)),
            "disabled set differs at {c} on {mesh:?}"
        );
    }
    assert_eq!(new.disabled_count(), old.disabled.len(), "{mesh:?}");
    assert_eq!(new.blocks(), old.blocks, "blocks differ on {mesh:?}");
    assert_eq!(new.sacrificed_count(), old.sacrificed, "{mesh:?}");

    cov.count(space.wraps(), [space.nx(), space.ny()].map(|n| n as usize));
    cov.full_percolation += usize::from(old.disabled.len() == space.len());
    let mut rule_only = mesh.fault_set().clone();
    RefBlocks3::close_rule(space, &mut rule_only);
    let filled = usize::from(rule_only != old.disabled);
    if space.wraps() {
        cov.torus_fill += filled;
    } else {
        cov.mesh_fill += filled;
        assert_separated_full_boxes(space, &old.disabled);
    }
}

/// A random `x` extent in `lo..=max`. Past one word, the words per row are
/// drawn first, so rows of every word count are equally common.
fn x_extent(rng: &mut SmallRng, lo: i32, max: i32) -> i32 {
    if max <= 64 {
        return rng.gen_range(lo..=max);
    }
    let words = rng.gen_range(1..=(max + 63) / 64);
    rng.gen_range(lo.max(64 * (words - 1) + 1)..=max.min(64 * words))
}

/// Run `cases` random 2-D and `cases` random 3-D cases from `seed`, half
/// of each on tori, with extents up to `shape`.
fn battery(seed: u64, cases: usize, shape: Shape) -> Coverage {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cov = Coverage::default();
    for case in 0..cases {
        let torus = case % 2 == 1;
        let lo = if torus { 3 } else { 2 };
        let (w, h) = (
            x_extent(&mut rng, lo, shape.max2[0]),
            rng.gen_range(lo..=shape.max2[1]),
        );
        let mut mesh = if torus {
            Mesh2D::torus(w, h)
        } else {
            Mesh2D::new(w, h)
        };
        let count = fault_count(&mut rng, mesh.space().len());
        regime(&mut rng, 2).inject(&mut mesh, count, rng.gen(), &[], BorderPolicy::BorderSafe);
        check_2d(&mesh, &mut cov);

        let e = [
            x_extent(&mut rng, lo, shape.max3[0]),
            rng.gen_range(lo..=shape.max3[1]),
            rng.gen_range(lo..=shape.max3[2]),
        ];
        let mut mesh = if torus {
            Mesh3D::torus(e[0], e[1], e[2])
        } else {
            Mesh3D::new(e[0], e[1], e[2])
        };
        let count = fault_count(&mut rng, mesh.space().len());
        regime(&mut rng, 3).inject(&mut mesh, count, rng.gen(), &[], BorderPolicy::BorderSafe);
        check_3d(&mesh, &mut cov);
    }
    cov
}

#[test]
fn block_model_matches_reference_slice() {
    let cov = battery(17, 300, narrow(16, 10));
    assert!(cov.full_percolation > 0, "{cov:?}");
    assert!(cov.torus_fill > 0, "{cov:?}");
    assert_eq!(cov.mesh_fill, 0, "{cov:?}");
    cov.assert_lanes(2..=16);
}

#[test]
fn block_model_matches_reference_wide_rows_slice() {
    let cov = battery(27, 60, WIDE);
    assert!(cov.words.iter().all(|&n| n > 0), "{cov:?}");
    assert!(cov.torus_fill > 0, "{cov:?}");
    assert_eq!(cov.mesh_fill, 0, "{cov:?}");
    cov.assert_lanes([22, 64]);
}

#[test]
#[ignore = "the full battery; run in release with --include-ignored"]
fn block_model_matches_reference_full() {
    let cov = battery(0x5eed, 6_000, narrow(64, 16));
    assert_eq!(cov.cases, 12_000);
    assert!(cov.full_percolation > 0, "{cov:?}");
    assert!(cov.torus_fill > 0, "{cov:?}");
    assert_eq!(cov.mesh_fill, 0, "{cov:?}");
    cov.assert_lanes(2..=64);
    let cov = battery(0x51de, 2_000, WIDE);
    assert_eq!(cov.cases, 4_000);
    assert!(cov.words.iter().all(|&n| n > 0), "{cov:?}");
    assert!(cov.full_percolation > 0, "{cov:?}");
    assert!(cov.torus_fill > 0, "{cov:?}");
    assert_eq!(cov.mesh_fill, 0, "{cov:?}");
    cov.assert_lanes(2..=64);
}

/// Every row width from 2 to 66 (tori from 3), each with every plane
/// height from one to three words of lanes (so every residue modulo the
/// lanes per word, whole and partial last words, and planes of one
/// word), in 2-D and 3-D, under random regimes and fault counts from a
/// fixed seed.
#[test]
fn block_model_matches_reference_at_every_width() {
    let mut rng = SmallRng::seed_from_u64(66);
    let mut cov = Coverage::default();
    for torus in [false, true] {
        let lo = if torus { 3 } else { 2 };
        for nx in lo..=66 {
            let per = (64 / nx).max(1);
            for ny in (per..(3 * per).max(lo + 2)).filter(|&ny| ny >= lo) {
                let mut mesh = if torus {
                    Mesh2D::torus(nx, ny)
                } else {
                    Mesh2D::new(nx, ny)
                };
                let count = fault_count(&mut rng, mesh.space().len());
                regime(&mut rng, 2).inject(
                    &mut mesh,
                    count,
                    rng.gen(),
                    &[],
                    BorderPolicy::BorderSafe,
                );
                check_2d(&mesh, &mut cov);

                let nz = rng.gen_range(lo..=4);
                let mut mesh = if torus {
                    Mesh3D::torus(nx, ny, nz)
                } else {
                    Mesh3D::new(nx, ny, nz)
                };
                let count = fault_count(&mut rng, mesh.space().len());
                regime(&mut rng, 3).inject(
                    &mut mesh,
                    count,
                    rng.gen(),
                    &[],
                    BorderPolicy::BorderSafe,
                );
                check_3d(&mesh, &mut cov);
            }
        }
    }
    cov.assert_lanes(2..=64);
    assert!(cov.words[1] > 0, "{cov:?}");
    assert!(cov.torus_fill > 0, "{cov:?}");
    assert_eq!(cov.mesh_fill, 0, "{cov:?}");
}

/// 3-D `k`-ary meshes under `count` uniform faults, `cases` of them.
fn cubes(k: i32, cases: usize, count: RangeInclusive<usize>) -> Coverage {
    let mut rng = SmallRng::seed_from_u64(3);
    let mut cov = Coverage::default();
    for _ in 0..cases {
        let mut mesh = Mesh3D::kary(k);
        let count = rng.gen_range(count.clone());
        FaultRegime::Uniform.inject(&mut mesh, count, rng.gen(), &[], BorderPolicy::BorderSafe);
        check_3d(&mesh, &mut cov);
    }
    cov
}

/// 3-D meshes at the `sweep` benchmark's size (16³) and fault counts
/// (10–120), where 2-neighbour percolation to the whole grid is common.
#[test]
fn block_model_matches_reference_at_16_cubed() {
    let cov = cubes(16, 24, 10..=120);
    assert!(cov.full_percolation > 0, "{cov:?}");
    assert_eq!(cov.mesh_fill, 0, "{cov:?}");
}

/// 8³: eight whole rows to a word.
#[test]
fn block_model_matches_reference_at_8_cubed() {
    let cov = cubes(8, 48, 2..=40);
    assert!(cov.full_percolation > 0, "{cov:?}");
    assert_eq!(cov.lanes[0].get(&8), Some(&48), "{cov:?}");
}

/// 24³: two rows to a word and 16 bits of padding above them.
#[test]
fn block_model_matches_reference_at_24_cubed() {
    let cov = cubes(24, 8, 20..=400);
    assert_eq!(cov.padded[0], 8, "{cov:?}");
    assert_eq!(cov.lanes[0].get(&2), Some(&8), "{cov:?}");
}
