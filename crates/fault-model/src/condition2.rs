//! Lemma 1 / Theorem 1 — existence of a minimal path in 2-D meshes.
//!
//! *Lemma 1 (Wang, rewritten by the paper):* a routing from canonical
//! `s` to `d` has **no** minimal path iff there exists an MCC `M` with
//! `s ∈ Q_X(M) ∧ d ∈ Q'_X(M)`, or `s ∈ Q_Y(M) ∧ d ∈ Q'_Y(M)` — where the
//! regions are the *merged* regions of the boundary construction: when the
//! boundary of one MCC runs into another MCC, the forbidden regions union
//! (Algorithm 2 step 3 / Theorem 1's boundary-intersection clause).
//!
//! Semantically the merged condition equals monotone reachability avoiding
//! the unsafe closure, so no MCC set is read: the entry points here forward
//! to [`crate::condition::evaluate`], which Theorem 2 shares. The
//! *operational* merged form — detection messages walking around fault
//! regions, exactly Algorithm 3 step 1 — lives in
//! `mcc-routing::feasibility2` and is tested equivalent.
//!
//! The per-MCC *unmerged* pair check ([`Mcc2::in_forbidden_x`] with
//! [`Mcc2::in_critical_x`], and the same on Y) is sufficient — when it
//! fires, no minimal path exists — and is what boundary records let
//! individual nodes evaluate locally; it is not necessary in multi-MCC
//! compositions. The tests below pin both facts.
//!
//! [`Mcc2::in_forbidden_x`]: crate::Mcc2::in_forbidden_x
//! [`Mcc2::in_critical_x`]: crate::Mcc2::in_critical_x

use mesh_topo::C2;

use crate::condition::{evaluate, Existence};
use crate::labelling::Labelling2;
use crate::mcc2::MccSet2;
use crate::oracle;

/// Outcome of the 2-D existence condition.
pub type Existence2 = Existence;

/// Evaluate the existence condition for canonical `s ≤ d`.
///
/// `lab` must be the labelling for the quadrant of `(s, d)`; the MCC set
/// is not read (module docs).
///
/// # Panics
/// If `s` does not precede `d` componentwise.
pub fn minimal_path_exists_2d(lab: &Labelling2, _mccs: &MccSet2, s: C2, d: C2) -> Existence2 {
    evaluate(lab, s, d, &mut oracle::Useful2::scratch())
}

/// [`minimal_path_exists_2d`] with a caller-provided scratch buffer for
/// the reachability sweep (see [`oracle::Useful::recompute_set`]).
///
/// # Panics
/// If `s` does not precede `d` componentwise.
pub fn minimal_path_exists_2d_in(
    lab: &Labelling2,
    _mccs: &MccSet2,
    s: C2,
    d: C2,
    useful: &mut oracle::Useful2,
) -> Existence2 {
    evaluate(lab, s, d, useful)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcc2::{Mcc2, RegionAxis2};
    use crate::status::BorderPolicy;
    use mesh_topo::coord::c2;
    use mesh_topo::{Frame2, Mesh2D};

    fn setup(faults: &[C2], w: i32, h: i32) -> (Labelling2, MccSet2) {
        let mut mesh = Mesh2D::new(w, h);
        for &f in faults {
            mesh.inject_fault(f);
        }
        let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        let set = MccSet2::compute(&lab);
        (lab, set)
    }

    /// The unmerged per-MCC pair condition: the first MCC (and axis) for
    /// which `s` lies in the forbidden region and `d` in the matching
    /// critical region.
    fn single_mcc_blocking(mccs: &MccSet2, s: C2, d: C2) -> Option<(&Mcc2, RegionAxis2)> {
        let axes = [RegionAxis2::X, RegionAxis2::Y];
        let blocks = |m: &Mcc2, a| m.in_forbidden(a, s) && m.in_critical(a, d);
        mccs.iter()
            .find_map(|m| axes.into_iter().find(|&a| blocks(m, a)).map(|a| (m, a)))
    }

    #[test]
    fn open_mesh_exists() {
        let (lab, set) = setup(&[], 8, 8);
        assert_eq!(
            minimal_path_exists_2d(&lab, &set, c2(0, 0), c2(7, 7)),
            Existence2::Exists
        );
    }

    #[test]
    fn wall_blocks_same_column() {
        // Fault directly between s and d in a degenerate (single-column) RMP.
        let (lab, set) = setup(&[c2(3, 4)], 8, 8);
        let r = minimal_path_exists_2d(&lab, &set, c2(3, 0), c2(3, 7));
        assert_eq!(r, Existence2::Blocked);
        // The unmerged pair condition agrees here (single MCC).
        let (m, axis) = single_mcc_blocking(&set, c2(3, 0), c2(3, 7)).unwrap();
        assert_eq!(axis, RegionAxis2::Y);
        assert_eq!(m.fault_count, 1);
        // Two-column RMP can route around it.
        assert!(minimal_path_exists_2d(&lab, &set, c2(2, 0), c2(3, 7)).exists());
    }

    #[test]
    fn row_wall_blocks_x_axis() {
        let (lab, set) = setup(&[c2(4, 3)], 8, 8);
        let r = minimal_path_exists_2d(&lab, &set, c2(0, 3), c2(7, 3));
        assert_eq!(r, Existence2::Blocked);
        let (_, axis) = single_mcc_blocking(&set, c2(0, 3), c2(7, 3)).unwrap();
        assert_eq!(axis, RegionAxis2::X);
    }

    #[test]
    fn full_antidiagonal_blocks() {
        // Faults on every cell of the antidiagonal x+y = 6 within the RMP
        // [0,0]..[6,6]: no monotone path exists. The useless cascade reaches
        // the source, so the triage reports SourceUseless.
        let faults: Vec<C2> = (0..=6).map(|x| c2(x, 6 - x)).collect();
        let (lab, set) = setup(&faults, 10, 10);
        let r = minimal_path_exists_2d(&lab, &set, c2(0, 0), c2(6, 6));
        assert!(!r.exists(), "{r:?}");
    }

    #[test]
    fn band_away_from_source_blocks_via_pair() {
        // Antidiagonal band x+y=8, x in 2..=6. s=(2,0) is safe (the useless
        // cascade stops where paths can escape under the band's right end);
        // d=(4,8) is safe above the band. Blocked, and the single-MCC pair
        // condition detects it.
        let faults: Vec<C2> = (2..=6).map(|x| c2(x, 8 - x)).collect();
        let (lab, set) = setup(&faults, 12, 12);
        let (s, d) = (c2(2, 0), c2(4, 8));
        assert!(lab.status(s).is_safe(), "{:?}", lab.status(s));
        assert!(lab.status(d).is_safe(), "{:?}", lab.status(d));
        assert_eq!(
            minimal_path_exists_2d(&lab, &set, s, d),
            Existence2::Blocked
        );
        let (m, axis) = single_mcc_blocking(&set, s, d).unwrap();
        assert_eq!(axis, RegionAxis2::Y);
        assert!(m.fault_count == 5);
    }

    #[test]
    fn two_mccs_jointly_block_narrow_rmp() {
        // Two isolated faults in a two-column RMP: neither single MCC's
        // pair fires, but the merged condition (oracle semantics) blocks.
        let (lab, set) = setup(&[c2(2, 1), c2(3, 8)], 12, 12);
        let (s, d) = (c2(2, 0), c2(3, 10));
        assert!(lab.status(s).is_safe() && lab.status(d).is_safe());
        assert_eq!(
            minimal_path_exists_2d(&lab, &set, s, d),
            Existence2::Blocked
        );
        assert!(
            single_mcc_blocking(&set, s, d).is_none(),
            "unmerged pair must miss this"
        );
    }

    #[test]
    fn pair_condition_is_sufficient() {
        // Whenever the pair fires, the exact condition must agree.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        let mut fired = 0;
        for _ in 0..400 {
            let mut mesh = Mesh2D::new(12, 12);
            for _ in 0..rng.gen_range(1..16) {
                let c = c2(rng.gen_range(0..12), rng.gen_range(0..12));
                if mesh.is_healthy(c) {
                    mesh.inject_fault(c);
                }
            }
            let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
            let set = MccSet2::compute(&lab);
            let s = c2(rng.gen_range(0..6), rng.gen_range(0..6));
            let d = c2(rng.gen_range(6..12), rng.gen_range(6..12));
            if !lab.status(s).is_safe() || !lab.status(d).is_safe() {
                continue;
            }
            if single_mcc_blocking(&set, s, d).is_some() {
                fired += 1;
                assert!(
                    !minimal_path_exists_2d(&lab, &set, s, d).exists(),
                    "pair fired but a path exists: s={s} d={d} faults={:?}",
                    mesh.faults()
                );
            }
        }
        assert!(fired > 0, "test never exercised the pair condition");
    }

    #[test]
    fn endpoint_faulty() {
        let (lab, set) = setup(&[c2(2, 2)], 6, 6);
        assert_eq!(
            minimal_path_exists_2d(&lab, &set, c2(0, 0), c2(2, 2)),
            Existence2::EndpointFaulty
        );
    }

    #[test]
    fn cant_reach_destination_blocked() {
        let faults = [c2(4, 5), c2(5, 4), c2(4, 6), c2(6, 4)];
        let (lab, set) = setup(&faults, 9, 9);
        assert!(lab.status(c2(5, 5)).is_cant_reach());
        assert_eq!(
            minimal_path_exists_2d(&lab, &set, c2(0, 0), c2(5, 5)),
            Existence2::DestinationCantReach
        );
    }

    #[test]
    fn useless_source_blocked() {
        let faults = [c2(3, 2), c2(2, 3), c2(3, 1), c2(1, 3)];
        let (lab, set) = setup(&faults, 9, 9);
        assert!(lab.status(c2(2, 2)).is_useless());
        assert_eq!(
            minimal_path_exists_2d(&lab, &set, c2(2, 2), c2(8, 8)),
            Existence2::SourceUseless
        );
    }

    #[test]
    fn useless_destination_still_reachable() {
        let faults = [c2(6, 5), c2(5, 6)];
        let (lab, set) = setup(&faults, 9, 9);
        assert!(lab.status(c2(5, 5)).is_useless());
        let r = minimal_path_exists_2d(&lab, &set, c2(0, 0), c2(5, 5));
        assert_eq!(r, Existence2::OracleExists);
        assert!(r.exists());
    }

    #[test]
    fn both_endpoints_in_region_route_within() {
        // Corridor of useless cells: s and d inside, straight path exists.
        let mut faults: Vec<C2> = (0..=6).map(|x| c2(x, 6)).collect();
        faults.push(c2(7, 5));
        let (lab, set) = setup(&faults, 10, 10);
        assert!(lab.status(c2(3, 5)).is_useless());
        assert!(lab.status(c2(6, 5)).is_useless());
        assert_eq!(
            minimal_path_exists_2d(&lab, &set, c2(3, 5), c2(6, 5)),
            Existence2::OracleExists
        );
    }

    #[test]
    fn trivial_same_node() {
        let (lab, set) = setup(&[c2(1, 1)], 4, 4);
        assert!(minimal_path_exists_2d(&lab, &set, c2(2, 2), c2(2, 2)).exists());
    }
}
