//! Fully-adaptive selection policies.
//!
//! Step 2(c) of Algorithm 3/6: "apply any fully adaptive and minimal routing
//! process to pick up a forwarding direction from set F". The router
//! computes the surviving set `F`; a [`Policy`] picks one member. Policies
//! only ever see directions the router already proved harmless, so the
//! minimality guarantee is policy-independent — which these types make easy
//! to demonstrate experimentally. [`Policy::choose`] is written once over
//! the coordinate type, so one policy serves the 2-D and 3-D routers.

use mesh_topo::Coord;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A fully-adaptive forwarding-direction selection policy.
#[derive(Clone, Debug)]
pub enum Policy {
    /// Always the first allowed direction in `X < Y < Z` order
    /// (dimension-ordered, e-cube-like within the adaptive envelope).
    XFirst,
    /// The allowed direction with the largest remaining offset to the
    /// destination (keeps the RMP "fat", maximizing future adaptivity).
    Balanced,
    /// Alternate dimensions whenever possible (zig-zag; diagonal-ish paths).
    ZigZag {
        /// Index of the previously chosen axis, if any.
        last_axis: Option<usize>,
    },
    /// Uniformly random among the allowed directions (seeded).
    Random(SmallRng),
}

impl Policy {
    /// Dimension-ordered policy.
    pub fn x_first() -> Policy {
        Policy::XFirst
    }

    /// Largest-remaining-offset policy.
    pub fn balanced() -> Policy {
        Policy::Balanced
    }

    /// Dimension-alternating policy.
    pub fn zigzag() -> Policy {
        Policy::ZigZag { last_axis: None }
    }

    /// Seeded random policy.
    pub fn random(seed: u64) -> Policy {
        Policy::Random(SmallRng::seed_from_u64(seed))
    }

    /// Pick a forwarding direction among `allowed`, at `u` toward `d`.
    ///
    /// # Panics
    /// If `allowed` is empty — the router must not consult a policy with an
    /// empty candidate set.
    pub fn choose<C: Coord>(&mut self, u: C, d: C, allowed: &[C::Dir]) -> C::Dir {
        assert!(
            !allowed.is_empty(),
            "policy consulted with empty direction set"
        );
        match self {
            Policy::XFirst => allowed[0],
            Policy::Balanced => {
                // `max_by_key` keeps the last of equal offsets.
                let (u, d) = (u.xyz(), d.xyz());
                *allowed
                    .iter()
                    .max_by_key(|&&dir| match C::axis_sign(dir) {
                        (axis, true) => d[axis] - u[axis],
                        _ => i32::MIN,
                    })
                    .expect("non-empty")
            }
            Policy::ZigZag { last_axis } => {
                let axis = |dir: C::Dir| C::axis_sign(dir).0;
                let pick = allowed
                    .iter()
                    .copied()
                    .find(|&dir| Some(axis(dir)) != *last_axis)
                    .unwrap_or(allowed[0]);
                *last_axis = Some(axis(pick));
                pick
            }
            Policy::Random(rng) => allowed[rng.gen_range(0..allowed.len())],
        }
    }

    /// All deterministic policies plus one random instance — convenient for
    /// "every policy stays minimal" sweeps.
    pub fn suite(seed: u64) -> Vec<Policy> {
        vec![
            Policy::x_first(),
            Policy::balanced(),
            Policy::zigzag(),
            Policy::random(seed),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_topo::coord::{c2, c3};
    use mesh_topo::{Dir2, Dir3};

    #[test]
    fn x_first_is_deterministic() {
        let mut p = Policy::x_first();
        assert_eq!(
            p.choose(c2(0, 0), c2(5, 5), &[Dir2::Xp, Dir2::Yp]),
            Dir2::Xp
        );
        assert_eq!(p.choose(c2(0, 0), c2(5, 5), &[Dir2::Yp]), Dir2::Yp);
    }

    #[test]
    fn balanced_prefers_long_axis() {
        let mut p = Policy::balanced();
        assert_eq!(
            p.choose(c2(0, 0), c2(1, 7), &[Dir2::Xp, Dir2::Yp]),
            Dir2::Yp
        );
        assert_eq!(
            p.choose(c3(0, 0, 0), c3(2, 9, 4), &[Dir3::Xp, Dir3::Yp, Dir3::Zp]),
            Dir3::Yp
        );
    }

    #[test]
    fn balanced_breaks_ties_toward_the_last_direction() {
        // Equal remaining offsets: `max_by_key` keeps the last maximum,
        // and every golden route depends on that tie rule.
        let mut p = Policy::balanced();
        assert_eq!(
            p.choose(c2(0, 0), c2(4, 4), &[Dir2::Xp, Dir2::Yp]),
            Dir2::Yp
        );
        assert_eq!(
            p.choose(c3(0, 0, 0), c3(3, 3, 3), &[Dir3::Xp, Dir3::Yp, Dir3::Zp]),
            Dir3::Zp
        );
        // A tie between the first two of three still takes the later one.
        assert_eq!(
            p.choose(c3(0, 0, 0), c3(5, 5, 2), &[Dir3::Xp, Dir3::Yp, Dir3::Zp]),
            Dir3::Yp
        );
    }

    #[test]
    fn zigzag_alternates_in_3d() {
        let mut p = Policy::zigzag();
        let (u, d) = (c3(0, 0, 0), c3(9, 9, 9));
        let all = [Dir3::Xp, Dir3::Yp, Dir3::Zp];
        // Only the previous axis is avoided: X and Y alternate while both
        // stay allowed, and Z is taken when X is the one to avoid.
        assert_eq!(p.choose(u, d, &all), Dir3::Xp);
        assert_eq!(p.choose(u, d, &all), Dir3::Yp);
        assert_eq!(p.choose(u, d, &all), Dir3::Xp);
        assert_eq!(p.choose(u, d, &[Dir3::Xp, Dir3::Zp]), Dir3::Zp);
        assert_eq!(p.choose(u, d, &[Dir3::Zp]), Dir3::Zp);
        assert_eq!(p.choose(u, d, &all), Dir3::Xp);
    }

    #[test]
    fn zigzag_alternates() {
        let mut p = Policy::zigzag();
        let first = p.choose(c2(0, 0), c2(5, 5), &[Dir2::Xp, Dir2::Yp]);
        let second = p.choose(c2(1, 0), c2(5, 5), &[Dir2::Xp, Dir2::Yp]);
        assert_ne!(first.axis(), second.axis());
        // Falls back when only the same axis remains.
        let third = p.choose(c2(1, 1), c2(5, 5), &[second]);
        assert_eq!(third, second);
    }

    #[test]
    fn random_is_seeded_and_in_set() {
        let mut p1 = Policy::random(9);
        let mut p2 = Policy::random(9);
        for _ in 0..20 {
            let a = p1.choose(c3(0, 0, 0), c3(9, 9, 9), &[Dir3::Xp, Dir3::Yp, Dir3::Zp]);
            let b = p2.choose(c3(0, 0, 0), c3(9, 9, 9), &[Dir3::Xp, Dir3::Yp, Dir3::Zp]);
            assert_eq!(a, b);
            assert!([Dir3::Xp, Dir3::Yp, Dir3::Zp].contains(&a));
        }
    }

    #[test]
    #[should_panic]
    fn empty_set_panics() {
        Policy::x_first().choose(c2(0, 0), c2(1, 1), &[]);
    }
}
