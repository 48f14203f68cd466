//! The block-model equivalence battery.
//!
//! [`FaultBlocks2`] / [`FaultBlocks3`] compute the faulty-block closure
//! with a frontier kernel. The closure they replaced is kept verbatim in
//! [`reference/rfb.rs`](reference) as the oracle, and every case here
//! asserts the kernel reproduces it exactly: the same disabled set, the
//! same `blocks` Vec (order included) and the same sacrificed count.
//!
//! Cases cover 2-D and 3-D meshes (extents 2–16) and tori (extents 3–16;
//! the node space rejects smaller tori), plus wide ones whose rows span
//! one, two and three words (`x` extents up to 130, with 2-D heights up
//! to 7 and 3-D `y` and `z` extents up to 4), the uniform, clustered,
//! front and plane fault regimes, and fault shares from none up to well
//! past the point where the closure percolates to the whole grid. The battery
//! counts the cases where the closure disables every node and the cases
//! whose box fill adds nodes the rule alone does not. It fails if either
//! kind is missing on tori, or if a fill adds anything on a mesh (where a
//! connected set closed under the rule is already a full box). On every
//! mesh case it also checks why the kernel may skip the fill there: each
//! component of the disabled set is a full box, and the boxes are pairwise
//! at ℓ1 distance ≥ 3.
//!
//! `cargo test` runs a bounded slice; the full battery (16,000 cases) is
//! the ignored test, run in release:
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

/// What one battery run covered.
#[derive(Default, Debug)]
struct Coverage {
    cases: usize,
    full_percolation: usize,
    torus_fill: usize,
    mesh_fill: usize,
    /// Cases by words per row: one, two, three.
    words: [usize; 3],
}

/// The largest extents a battery draws: `[width, height]` in 2-D and
/// `[nx, ny, nz]` in 3-D.
struct Shape {
    max2: [i32; 2],
    max3: [i32; 3],
}

/// Extents 2–16 (3-D up to `max3` per axis).
fn narrow(max3: i32) -> Shape {
    Shape {
        max2: [16, 16],
        max3: [max3; 3],
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

    cov.cases += 1;
    cov.words[(space.width() as usize).div_ceil(64) - 1] += 1;
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

    cov.cases += 1;
    cov.words[(space.nx() as usize).div_ceil(64) - 1] += 1;
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
    let cov = battery(17, 300, narrow(10));
    assert!(cov.full_percolation > 0, "{cov:?}");
    assert!(cov.torus_fill > 0, "{cov:?}");
    assert_eq!(cov.mesh_fill, 0, "{cov:?}");
}

#[test]
fn block_model_matches_reference_wide_rows_slice() {
    let cov = battery(27, 60, WIDE);
    assert!(cov.words.iter().all(|&n| n > 0), "{cov:?}");
    assert!(cov.torus_fill > 0, "{cov:?}");
    assert_eq!(cov.mesh_fill, 0, "{cov:?}");
}

#[test]
#[ignore = "the full battery; run in release with --include-ignored"]
fn block_model_matches_reference_full() {
    let cov = battery(0x5eed, 6_000, narrow(16));
    assert_eq!(cov.cases, 12_000);
    assert!(cov.full_percolation > 0, "{cov:?}");
    assert!(cov.torus_fill > 0, "{cov:?}");
    assert_eq!(cov.mesh_fill, 0, "{cov:?}");
    let cov = battery(0x51de, 2_000, WIDE);
    assert_eq!(cov.cases, 4_000);
    assert!(cov.words.iter().all(|&n| n > 0), "{cov:?}");
    assert!(cov.full_percolation > 0, "{cov:?}");
    assert!(cov.torus_fill > 0, "{cov:?}");
    assert_eq!(cov.mesh_fill, 0, "{cov:?}");
}

/// 3-D meshes at the `sweep` benchmark's size (16³) and fault counts
/// (10–120), where 2-neighbour percolation to the whole grid is common.
#[test]
fn block_model_matches_reference_at_16_cubed() {
    let mut rng = SmallRng::seed_from_u64(3);
    let mut cov = Coverage::default();
    for _ in 0..24 {
        let mut mesh = Mesh3D::kary(16);
        let count = rng.gen_range(10..=120);
        FaultRegime::Uniform.inject(&mut mesh, count, rng.gen(), &[], BorderPolicy::BorderSafe);
        check_3d(&mesh, &mut cov);
    }
    assert!(cov.full_percolation > 0, "{cov:?}");
    assert_eq!(cov.mesh_fill, 0, "{cov:?}");
}
