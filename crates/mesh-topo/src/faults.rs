//! Seeded random fault samplers.
//!
//! The evaluation sweeps inject a given number of node faults into a mesh and
//! average over many seeds. This module holds the two spatial samplers the
//! fault-regime layer (`fault_model::FaultRegime`) builds on:
//!
//! * [`sample_uniform`] — faults chosen uniformly at random without
//!   replacement (the standard workload in the fault-block literature),
//! * [`sample_clustered`] — faults grown around random cluster seeds,
//!   stressing the models with large connected fault regions,
//!
//! and [`eligible_indices`], the candidate list both draw from: the healthy
//! nodes outside a protected set (typically the source and destination
//! under test). [`random_node`] is the one-node draw the scenario drivers
//! use for endpoints and churn.
//!
//! Sampling runs entirely on the flat node-state layer
//! ([`crate::nodeset`]): candidates are linear node indices, and
//! eligibility/membership checks are [`NodeSet`] bit tests instead of the
//! per-call `HashSet` rebuilds of the original implementation.
//!
//! Every sample is a pure function of the seed, the pool and the count.
//! [`sample_uniform`] is a forward partial Fisher–Yates shuffle: it makes
//! one draw per chosen fault, and its samples from one seed are
//! prefix-nested across counts. [`sample_clustered`] draws exactly what the
//! hash-based sampler it replaced drew; a regression test below pins that.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::coord::Coord;
use crate::mesh::Mesh;
use crate::nodeset::{NodeSet, NodeSpace};

/// Linear indices of the nodes of `mesh` eligible for injection: healthy
/// and not in `protected`, in ascending index order, which is
/// node-iteration order. The order is part of the reproducible RNG draw
/// sequence, so every sampler caller must build its candidate list through
/// here (or reproduce this order exactly). A protected coordinate outside
/// the space excludes nothing.
pub fn eligible_indices<C: Coord>(mesh: &Mesh<C>, protected: &[C]) -> Vec<usize> {
    let space = mesh.space();
    let healthy = mesh.fault_set().words().iter().map(|w| !w).collect();
    let mut eligible = NodeSet::from_raw_words(space.len(), healthy);
    for i in protected.iter().filter_map(|&c| space.index_checked(c)) {
        eligible.remove(i);
    }
    let mut pool = Vec::with_capacity(eligible.len());
    for (wi, &word) in eligible.words().iter().enumerate() {
        let base = wi * 64;
        if word == u64::MAX {
            pool.extend(base..base + 64);
        } else {
            let mut bits = word;
            while bits != 0 {
                pool.push(base + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
    pool
}

/// A uniformly random node of `space`: one draw per axis, in `x, y, z`
/// order (the order is part of every caller's reproducible draw
/// sequence).
pub fn random_node<C: Coord>(space: NodeSpace<C>, rng: &mut SmallRng) -> C {
    let ext = space.extents();
    let mut p = [0; 3];
    for (axis, v) in p.iter_mut().enumerate().take(C::DIMS) {
        *v = rng.gen_range(0..ext[axis] as i32);
    }
    C::from_xyz(p)
}

/// Choose `min(count, pool.len())` distinct indices uniformly at random
/// from `pool`, in draw order.
///
/// A forward partial Fisher–Yates shuffle: step `i` swaps a uniform draw
/// from `pool[i..]` into slot `i`, so the sample costs one draw per chosen
/// index, not one per pool entry. The first `k` draws of a seed are the
/// same whatever `count` is, so a smaller sample is a prefix of a larger
/// one from the same seed and pool.
pub fn sample_uniform(mut pool: Vec<usize>, count: usize, rng: &mut SmallRng) -> Vec<usize> {
    let n = pool.len();
    let k = count.min(n);
    for i in 0..k {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

/// Grow `count` faults from `clusters` random seed points by repeatedly
/// extending a random already-chosen fault to a random eligible neighbor.
///
/// `space_len` is the size of the node index space; `neighbors_of` pushes
/// the in-mesh neighbor indices of a node in fixed direction order (the
/// order matters: it is part of the reproducible RNG draw sequence).
pub fn sample_clustered(
    space_len: usize,
    eligible: &[usize],
    count: usize,
    clusters: usize,
    rng: &mut SmallRng,
    neighbors_of: impl Fn(usize, &mut Vec<usize>),
) -> Vec<usize> {
    if eligible.is_empty() || count == 0 {
        return Vec::new();
    }
    let eligible_set = NodeSet::from_indices(space_len, eligible.iter().copied());
    let mut chosen: Vec<usize> = Vec::with_capacity(count);
    let mut chosen_set = NodeSet::new(space_len);
    let clusters = clusters.max(1);

    // Seed points.
    for _ in 0..clusters.min(count) {
        // Retry a few times to avoid duplicate seeds; fall back to scan.
        let mut placed = false;
        for _ in 0..32 {
            let c = eligible[rng.gen_range(0..eligible.len())];
            if chosen_set.insert(c) {
                chosen.push(c);
                placed = true;
                break;
            }
        }
        if !placed {
            if let Some(&c) = eligible.iter().find(|&&c| !chosen_set.contains(c)) {
                chosen_set.insert(c);
                chosen.push(c);
            }
        }
    }

    // Growth: pick a random chosen fault, extend to a random eligible,
    // unchosen neighbor. If the frontier is exhausted fall back to uniform.
    let mut stall = 0usize;
    let mut nbrs: Vec<usize> = Vec::with_capacity(6);
    while chosen.len() < count.min(eligible.len()) {
        let base = chosen[rng.gen_range(0..chosen.len())];
        nbrs.clear();
        neighbors_of(base, &mut nbrs);
        nbrs.retain(|&c| eligible_set.contains(c) && !chosen_set.contains(c));
        if let Some(&next) = nbrs.as_slice().choose(rng) {
            chosen_set.insert(next);
            chosen.push(next);
            stall = 0;
        } else {
            stall += 1;
            if stall > 4 * chosen.len() + 64 {
                // All cluster surfaces blocked; fill remaining uniformly.
                for &c in eligible {
                    if chosen.len() >= count {
                        break;
                    }
                    if chosen_set.insert(c) {
                        chosen.push(c);
                    }
                }
                break;
            }
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::{c2, c3, C2, C3};
    use crate::mesh::{Mesh2D, Mesh3D};
    use rand::SeedableRng;

    /// Inject `count` uniformly sampled faults, drawing exactly as the
    /// uniform fault regime does.
    fn uniform<C: Coord>(mesh: &mut Mesh<C>, count: usize, seed: u64, protected: &[C]) -> usize {
        let mut rng = SmallRng::seed_from_u64(seed);
        let chosen = sample_uniform(eligible_indices(mesh, protected), count, &mut rng);
        inject(mesh, chosen)
    }

    /// Inject `count` clustered faults, drawing exactly as the clustered
    /// fault regime does.
    fn clustered<C: Coord>(
        mesh: &mut Mesh<C>,
        count: usize,
        clusters: usize,
        seed: u64,
        protected: &[C],
    ) -> usize {
        let mut rng = SmallRng::seed_from_u64(seed);
        let space = mesh.space();
        let eligible = eligible_indices(mesh, protected);
        let chosen = sample_clustered(
            space.len(),
            &eligible,
            count,
            clusters,
            &mut rng,
            |i, out| space.for_axis_neighbors(i, |j| out.push(j)),
        );
        inject(mesh, chosen)
    }

    fn inject<C: Coord>(mesh: &mut Mesh<C>, chosen: Vec<usize>) -> usize {
        for &i in &chosen {
            mesh.inject_fault(mesh.space().coord(i));
        }
        chosen.len()
    }

    #[test]
    fn uniform_2d_is_reproducible_and_respects_protection() {
        let protected = [c2(0, 0), c2(9, 9)];
        let mut m1 = Mesh2D::new(10, 10);
        let mut m2 = Mesh2D::new(10, 10);
        assert_eq!(uniform(&mut m1, 20, 42, &protected), 20);
        assert_eq!(uniform(&mut m2, 20, 42, &protected), 20);
        assert_eq!(m1.faults(), m2.faults());
        assert!(m1.is_healthy(c2(0, 0)) && m1.is_healthy(c2(9, 9)));
        assert_eq!(m1.fault_count(), 20);
    }

    #[test]
    fn different_seeds_differ() {
        let mut m1 = Mesh2D::new(10, 10);
        let mut m2 = Mesh2D::new(10, 10);
        uniform(&mut m1, 20, 1, &[]);
        uniform(&mut m2, 20, 2, &[]);
        assert_ne!(m1.faults(), m2.faults());
    }

    #[test]
    fn count_saturates_at_eligible() {
        let mut m = Mesh2D::new(3, 3);
        let n = uniform(&mut m, 100, 7, &[c2(0, 0)]);
        assert_eq!(n, 8);
        assert!(m.is_healthy(c2(0, 0)));
    }

    #[test]
    fn clustered_2d_produces_connected_growth() {
        let mut m = Mesh2D::new(20, 20);
        let n = clustered(&mut m, 30, 2, 9, &[]);
        assert_eq!(n, 30);
        // Every fault is either a seed or adjacent to another fault —
        // verify no fault is fully isolated unless it is one of the 2 seeds.
        let isolated = m
            .faults()
            .iter()
            .filter(|&&c| m.neighbors(c).all(|v| !m.is_faulty(v)))
            .count();
        assert!(
            isolated <= 2,
            "at most the seeds may be isolated, got {isolated}"
        );
    }

    #[test]
    fn clustered_3d_reproducible() {
        let mut m1 = Mesh3D::kary(8);
        let mut m2 = Mesh3D::kary(8);
        assert_eq!(clustered(&mut m1, 25, 3, 77, &[c3(0, 0, 0)]), 25);
        assert_eq!(clustered(&mut m2, 25, 3, 77, &[c3(0, 0, 0)]), 25);
        assert_eq!(m1.faults(), m2.faults());
        assert!(m1.is_healthy(c3(0, 0, 0)));
    }

    #[test]
    fn uniform_3d_counts() {
        let mut m = Mesh3D::kary(6);
        assert_eq!(uniform(&mut m, 50, 5, &[]), 50);
        assert_eq!(m.fault_count(), 50);
    }

    /// `eligible_indices` equals the coordinate filter it replaced, on
    /// meshes and tori whose node counts do and do not fill the last
    /// bitset word, with protected coordinates that are in the space,
    /// duplicated, faulty, or outside it.
    #[test]
    fn eligible_indices_match_coordinate_filter() {
        for torus in [false, true] {
            for seed in 0..12u64 {
                let (w, h) = (8 + seed as i32 % 5, 8);
                let mut m = if torus {
                    Mesh2D::torus(w, h)
                } else {
                    Mesh2D::new(w, h)
                };
                uniform(&mut m, 5 * seed as usize, seed, &[]);
                let mut protected = vec![c2(0, 0), c2(3, 2), c2(3, 2), c2(-1, 2), c2(w, 0)];
                protected.extend(m.faults().first());
                let filter: Vec<usize> = m
                    .nodes()
                    .filter(|c| !protected.contains(c) && m.is_healthy(*c))
                    .map(|c| m.space().index(c))
                    .collect();
                assert_eq!(eligible_indices(&m, &protected), filter);

                let k = 4 + seed as i32 % 3;
                let mut m = if torus {
                    Mesh3D::torus(k, k, k)
                } else {
                    Mesh3D::kary(k)
                };
                uniform(&mut m, 4 * seed as usize, seed, &[]);
                let mut protected = vec![c3(1, 1, 1), c3(1, 1, 1), c3(0, 0, -1), c3(0, k, 0)];
                protected.extend(m.faults().first());
                let filter: Vec<usize> = m
                    .nodes()
                    .filter(|c| !protected.contains(c) && m.is_healthy(*c))
                    .map(|c| m.space().index(c))
                    .collect();
                assert_eq!(eligible_indices(&m, &protected), filter);
            }
        }
    }

    /// The uniform sample is `min(count, pool)` distinct members of the
    /// pool, for pools that are not ranges and counts below, at and above
    /// the pool size.
    #[test]
    fn uniform_sample_is_a_distinct_subset_of_the_pool() {
        for seed in 0..40u64 {
            let n = seed as usize % 13;
            let pool: Vec<usize> = (0..n).map(|i| 3 * i + 1).collect();
            for count in [0, 1, n / 2, n, n + 5] {
                let mut rng = SmallRng::seed_from_u64(seed);
                let sample = sample_uniform(pool.clone(), count, &mut rng);
                assert_eq!(sample.len(), count.min(n), "seed {seed} count {count}");
                let mut sorted = sample.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), sample.len(), "seed {seed}: repeated index");
                assert!(sample.iter().all(|i| pool.contains(i)), "seed {seed}");
            }
        }
    }

    /// With one seed and pool, a smaller sample is a prefix of a larger
    /// one: the draws for the first `k` slots do not depend on `count`.
    #[test]
    fn uniform_samples_are_prefix_nested() {
        let pool: Vec<usize> = (0..200).collect();
        for seed in [0u64, 5, 99, 0xdead_beef] {
            let draw =
                |count| sample_uniform(pool.clone(), count, &mut SmallRng::seed_from_u64(seed));
            let full = draw(pool.len());
            for k in [0, 1, 7, 60, 199] {
                assert_eq!(draw(k), full[..k], "seed {seed} k {k}");
            }
        }
    }

    /// Every pool member is drawn equally often. Over 4,000 fixed seeds a
    /// 3-of-10 sample includes each member 1,200 times in expectation; the
    /// chi-square statistic of the ten inclusion counts must stay below
    /// 27.88, the 0.999 quantile of chi-square with 9 degrees of freedom.
    /// (Inclusions are negatively correlated, so the statistic runs below
    /// that distribution and the bound is conservative.)
    #[test]
    fn uniform_inclusion_counts_pass_chi_square() {
        let (n, k, seeds) = (10usize, 3usize, 4_000u64);
        let mut hits = vec![0u64; n];
        for seed in 0..seeds {
            let mut rng = SmallRng::seed_from_u64(seed);
            for i in sample_uniform((0..n).collect(), k, &mut rng) {
                hits[i] += 1;
            }
        }
        let expected = (seeds as usize * k) as f64 / n as f64;
        let chi2: f64 = hits
            .iter()
            .map(|&h| (h as f64 - expected).powi(2) / expected)
            .sum();
        assert!(chi2 < 27.88, "chi-square {chi2:.2} over {hits:?}");
    }

    /// On a 16³ mesh (64 words, most of them all-ones when few nodes are
    /// faulty), `eligible_indices` lists exactly `NodeSet::iter`'s members,
    /// in its order, with and without faults beside the protected nodes.
    #[test]
    fn eligible_indices_match_nodeset_iter_on_full_words() {
        let protected = [c3(0, 0, 0), c3(5, 7, 9), c3(15, 15, 15), c3(3, 0, 0)];
        for faults in [0usize, 3, 40] {
            let mut m = Mesh3D::kary(16);
            uniform(&mut m, faults, faults as u64, &protected);
            let space = m.space();
            let mut expect = NodeSet::from_raw_words(
                space.len(),
                m.fault_set().words().iter().map(|w| !w).collect(),
            );
            for &c in &protected {
                expect.remove(space.index(c));
            }
            let expect: Vec<usize> = expect.iter().collect();
            assert_eq!(expect.len(), 4096 - faults - protected.len());
            assert_eq!(eligible_indices(&m, &protected), expect, "{faults} faults");
        }
    }

    /// The hash-based clustered sampler this module replaced, kept verbatim
    /// as the reference for the determinism regression below: same seed
    /// must give the same fault set under both representations.
    mod hash_reference {
        use super::*;
        use std::collections::HashSet;

        pub fn choose_clustered<C: Copy + Eq + std::hash::Hash>(
            eligible: &[C],
            count: usize,
            clusters: usize,
            rng: &mut SmallRng,
            neighbors_of: impl Fn(C) -> Vec<C>,
        ) -> Vec<C> {
            if eligible.is_empty() || count == 0 {
                return Vec::new();
            }
            let eligible_set: HashSet<C> = eligible.iter().copied().collect();
            let mut chosen: Vec<C> = Vec::with_capacity(count);
            let mut chosen_set: HashSet<C> = HashSet::with_capacity(count);
            let clusters = clusters.max(1);
            for _ in 0..clusters.min(count) {
                let mut placed = false;
                for _ in 0..32 {
                    let c = eligible[rng.gen_range(0..eligible.len())];
                    if chosen_set.insert(c) {
                        chosen.push(c);
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    if let Some(&c) = eligible.iter().find(|c| !chosen_set.contains(c)) {
                        chosen_set.insert(c);
                        chosen.push(c);
                    }
                }
            }
            let mut stall = 0usize;
            while chosen.len() < count.min(eligible.len()) {
                let base = chosen[rng.gen_range(0..chosen.len())];
                let nbrs: Vec<C> = neighbors_of(base)
                    .into_iter()
                    .filter(|c| eligible_set.contains(c) && !chosen_set.contains(c))
                    .collect();
                if let Some(&next) = nbrs.as_slice().choose(rng) {
                    chosen_set.insert(next);
                    chosen.push(next);
                    stall = 0;
                } else {
                    stall += 1;
                    if stall > 4 * chosen.len() + 64 {
                        for &c in eligible {
                            if chosen.len() >= count {
                                break;
                            }
                            if chosen_set.insert(c) {
                                chosen.push(c);
                            }
                        }
                        break;
                    }
                }
            }
            chosen
        }
    }

    /// Determinism regression: the NodeSet-based clustered sampler draws
    /// exactly the fault sets the hash-based sampler drew, for the same
    /// seeds, in both dimensions (including injection order).
    #[test]
    fn sampling_matches_hash_reference() {
        for seed in [0u64, 1, 7, 42, 1234, 0xdead_beef] {
            for &(count, clusters) in &[(10usize, 1usize), (30, 3), (70, 5)] {
                // 2-D.
                let protected = [c2(0, 0), c2(11, 11)];
                let reference = Mesh2D::new(12, 12);
                let eligible: Vec<C2> = reference
                    .nodes()
                    .filter(|c| !protected.contains(c))
                    .collect();
                let mut rng = SmallRng::seed_from_u64(seed);
                let expect_clustered =
                    hash_reference::choose_clustered(&eligible, count, clusters, &mut rng, |c| {
                        crate::dir::Dir2::ALL.iter().map(|&d| c.step(d)).collect()
                    });
                let mut m = Mesh2D::new(12, 12);
                clustered(&mut m, count, clusters, seed, &protected);
                assert_eq!(m.faults(), expect_clustered, "2d clustered seed {seed}");

                // 3-D.
                let reference3 = Mesh3D::kary(7);
                let eligible3: Vec<C3> = reference3.nodes().collect();
                let mut rng = SmallRng::seed_from_u64(seed);
                let expect3 =
                    hash_reference::choose_clustered(&eligible3, count, clusters, &mut rng, |c| {
                        crate::dir::Dir3::ALL.iter().map(|&d| c.step(d)).collect()
                    });
                let mut m3 = Mesh3D::kary(7);
                clustered(&mut m3, count, clusters, seed, &[]);
                assert_eq!(m3.faults(), expect3, "3d clustered seed {seed}");
            }
        }
    }
}
