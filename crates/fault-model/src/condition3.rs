//! Theorem 2 — existence of a minimal path in 3-D meshes.
//!
//! The paper's Theorem 2 states the condition in terms of boundary
//! intersections, whose operational (detection-message) form lives in the
//! routing crate. Its *semantic evaluation* is the one Theorem 1 shares,
//! [`crate::condition::evaluate`]: with both endpoints safe, a minimal path
//! exists iff the destination is monotonically reachable while avoiding
//! the unsafe closure — by the MCC minimality theorem this is equivalent
//! to avoiding only the faults (the crate's property tests verify that
//! equivalence, and the detection floods are tested against it).
//!
//! Endpoint triage is the 2-D one: faulty endpoints are invalid, a
//! can't-reach destination (safe source) is unreachable, a useless source
//! (safe destination) is stuck, and queries with labelled endpoints fall
//! back to the exact fault-avoiding oracle.

use mesh_topo::C3;

use crate::condition::{evaluate, Existence};
use crate::labelling::Labelling3;
use crate::oracle;

/// Outcome of the 3-D existence condition.
pub type Existence3 = Existence;

/// Evaluate the existence condition for canonical `s ≤ d` under `lab`.
///
/// # Panics
/// If `s` does not precede `d` componentwise.
pub fn minimal_path_exists_3d(lab: &Labelling3, s: C3, d: C3) -> Existence3 {
    evaluate(lab, s, d, &mut oracle::Useful3::scratch())
}

/// [`minimal_path_exists_3d`] with a caller-provided scratch buffer for
/// the reachability sweep (see [`oracle::Useful::recompute_set`]).
///
/// # Panics
/// If `s` does not precede `d` componentwise.
pub fn minimal_path_exists_3d_in(
    lab: &Labelling3,
    s: C3,
    d: C3,
    useful: &mut oracle::Useful3,
) -> Existence3 {
    evaluate(lab, s, d, useful)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::BorderPolicy;
    use mesh_topo::coord::c3;
    use mesh_topo::{Frame3, Mesh3D};

    fn setup(faults: &[C3], k: i32) -> Labelling3 {
        let mut mesh = Mesh3D::kary(k);
        for &f in faults {
            mesh.inject_fault(f);
        }
        Labelling3::compute(&mesh, Frame3::identity(&mesh), BorderPolicy::BorderSafe)
    }

    #[test]
    fn open_mesh_exists() {
        let lab = setup(&[], 6);
        assert_eq!(
            minimal_path_exists_3d(&lab, c3(0, 0, 0), c3(5, 5, 5)),
            Existence3::Exists
        );
    }

    #[test]
    fn single_fault_never_blocks_wide_rmp() {
        let lab = setup(&[c3(2, 2, 2)], 6);
        assert!(minimal_path_exists_3d(&lab, c3(0, 0, 0), c3(5, 5, 5)).exists());
    }

    #[test]
    fn fault_blocks_degenerate_line_rmp() {
        let lab = setup(&[c3(0, 0, 3)], 8);
        // RMP is the single line x=0,y=0: the fault on it blocks.
        let r = minimal_path_exists_3d(&lab, c3(0, 0, 0), c3(0, 0, 6));
        assert_eq!(r, Existence3::Blocked);
    }

    #[test]
    fn plane_wall_blocks() {
        // Block the full antidiagonal plane x+y+z = 5 inside [0..4]^3... a
        // simpler barrier: the full plane z=2 within the RMP cross-section.
        let mut faults = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                faults.push(c3(x, y, 2));
            }
        }
        let lab = setup(&faults, 8);
        assert_eq!(
            minimal_path_exists_3d(&lab, c3(0, 0, 0), c3(3, 3, 4)),
            Existence3::Blocked
        );
        // Going around the wall (d.x beyond the wall) restores the path.
        assert!(minimal_path_exists_3d(&lab, c3(0, 0, 0), c3(4, 3, 4)).exists());
    }

    #[test]
    fn endpoint_faulty() {
        let lab = setup(&[c3(1, 1, 1)], 4);
        assert_eq!(
            minimal_path_exists_3d(&lab, c3(0, 0, 0), c3(1, 1, 1)),
            Existence3::EndpointFaulty
        );
        assert_eq!(
            minimal_path_exists_3d(&lab, c3(1, 1, 1), c3(3, 3, 3)),
            Existence3::EndpointFaulty
        );
    }

    #[test]
    fn cant_reach_destination() {
        // Seal (4,4,4) from below in all three dimensions, and extend the
        // walls so the closure survives: a full 3x3 wall on each negative
        // face of the 2x2x2 cube rooted at (4,4,4).
        let mut faults = Vec::new();
        for a in 4..=5 {
            for b in 4..=5 {
                faults.push(c3(3, a, b));
                faults.push(c3(a, 3, b));
                faults.push(c3(a, b, 3));
            }
        }
        let lab = setup(&faults, 9);
        assert!(lab.status(c3(4, 4, 4)).is_cant_reach());
        assert_eq!(
            minimal_path_exists_3d(&lab, c3(0, 0, 0), c3(4, 4, 4)),
            Existence3::DestinationCantReach
        );
    }

    #[test]
    fn useless_source() {
        let mut faults = Vec::new();
        for a in 3..=4 {
            for b in 3..=4 {
                faults.push(c3(5, a, b));
                faults.push(c3(a, 5, b));
                faults.push(c3(a, b, 5));
            }
        }
        let lab = setup(&faults, 9);
        assert!(lab.status(c3(4, 4, 4)).is_useless());
        assert_eq!(
            minimal_path_exists_3d(&lab, c3(4, 4, 4), c3(8, 8, 8)),
            Existence3::SourceUseless
        );
    }

    #[test]
    fn useless_destination_reachable_via_oracle() {
        let mut faults = Vec::new();
        for a in 3..=4 {
            for b in 3..=4 {
                faults.push(c3(5, a, b));
                faults.push(c3(a, 5, b));
                faults.push(c3(a, b, 5));
            }
        }
        let lab = setup(&faults, 9);
        assert!(lab.status(c3(4, 4, 4)).is_useless());
        let r = minimal_path_exists_3d(&lab, c3(0, 0, 0), c3(4, 4, 4));
        assert_eq!(r, Existence3::OracleExists);
    }

    #[test]
    fn same_node_trivial() {
        let lab = setup(&[c3(1, 1, 1)], 4);
        assert!(minimal_path_exists_3d(&lab, c3(2, 2, 2), c3(2, 2, 2)).exists());
    }
}
