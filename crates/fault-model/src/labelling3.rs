//! Unit tests of [`crate::labelling`] on 3-D meshes and tori: Algorithm 4,
//! the Figure 5 example, and its churn repair.

mod tests {
    use crate::labelling::Labelling3;
    use crate::status::BorderPolicy;
    use mesh_topo::coord::c3;
    use mesh_topo::{Frame3, Mesh3D};

    fn lab(mesh: &Mesh3D) -> Labelling3 {
        Labelling3::compute(mesh, Frame3::identity(mesh), BorderPolicy::BorderSafe)
    }

    /// The exact fault set of Figure 5 of the paper.
    fn figure5_mesh() -> Mesh3D {
        let mut mesh = Mesh3D::kary(10);
        for c in [
            c3(5, 5, 6),
            c3(6, 5, 5),
            c3(5, 6, 5),
            c3(6, 7, 5),
            c3(7, 6, 5),
            c3(5, 4, 7),
            c3(4, 5, 7),
            c3(7, 8, 4),
        ] {
            mesh.inject_fault(c);
        }
        mesh
    }

    #[test]
    fn figure5_labelling_matches_paper() {
        // The paper states: "(5,5,5) becomes useless and (5,5,7) becomes
        // can't-reach in our labelling process."
        let l = lab(&figure5_mesh());
        assert!(
            l.status(c3(5, 5, 5)).is_useless(),
            "(5,5,5) must be useless"
        );
        assert!(
            l.status(c3(5, 5, 7)).is_cant_reach(),
            "(5,5,7) must be can't-reach"
        );
        // And exactly those two healthy nodes are sacrificed.
        assert_eq!(l.sacrificed_count(), 2);
        assert_eq!(l.unsafe_count(), 10);
    }

    #[test]
    fn figure5_other_neighbors_stay_safe() {
        let l = lab(&figure5_mesh());
        // The isolated fault (7,8,4) labels nothing around it.
        for c in [
            c3(6, 8, 4),
            c3(7, 7, 4),
            c3(7, 8, 3),
            c3(7, 8, 5),
            c3(8, 8, 4),
        ] {
            assert!(l.status(c).is_safe(), "{c} should stay safe");
        }
        // The hole (6,6,5) of the section z=5 stays safe (non-convex section).
        assert!(l.status(c3(6, 6, 5)).is_safe());
    }

    #[test]
    fn two_blocked_dims_are_not_enough_in_3d() {
        // +X and +Y blocked, +Z open -> still safe (escape along +Z).
        let mut mesh = Mesh3D::kary(8);
        mesh.inject_fault(c3(5, 4, 4));
        mesh.inject_fault(c3(4, 5, 4));
        let l = lab(&mesh);
        assert!(l.status(c3(4, 4, 4)).is_safe());
        assert_eq!(l.sacrificed_count(), 0);
    }

    #[test]
    fn three_blocked_dims_label_useless() {
        let mut mesh = Mesh3D::kary(8);
        mesh.inject_fault(c3(5, 4, 4));
        mesh.inject_fault(c3(4, 5, 4));
        mesh.inject_fault(c3(4, 4, 5));
        let l = lab(&mesh);
        assert!(l.status(c3(4, 4, 4)).is_useless());
        // and the symmetric pocket on the other side stays safe
        assert!(l.status(c3(5, 5, 5)).is_safe());
    }

    #[test]
    fn cant_reach_in_3d() {
        let mut mesh = Mesh3D::kary(8);
        mesh.inject_fault(c3(3, 4, 4));
        mesh.inject_fault(c3(4, 3, 4));
        mesh.inject_fault(c3(4, 4, 3));
        let l = lab(&mesh);
        assert!(l.status(c3(4, 4, 4)).is_cant_reach());
        assert_eq!(l.sacrificed_count(), 1);
    }

    #[test]
    fn torus_pocket_wraps_in_all_three_dimensions() {
        // The corner node (4,4,4) of a 5-ary torus is sealed by its three
        // *wrapped* positive neighbors; on the mesh the BorderSafe policy
        // keeps it safe.
        let faults = [c3(0, 4, 4), c3(4, 0, 4), c3(4, 4, 0)];
        let mut torus = Mesh3D::torus_kary(5);
        for c in faults {
            torus.inject_fault(c);
        }
        let lt = Labelling3::compute(&torus, Frame3::identity(&torus), BorderPolicy::BorderSafe);
        assert!(lt.status(c3(4, 4, 4)).is_useless());
        assert_eq!(lt.sacrificed_count(), 1);

        let mut mesh = Mesh3D::kary(5);
        for c in faults {
            mesh.inject_fault(c);
        }
        let lm = lab(&mesh);
        assert!(lm.status(c3(4, 4, 4)).is_safe());
        assert_eq!(lm.sacrificed_count(), 0);
    }

    #[test]
    fn fault_free_all_safe() {
        let mesh = Mesh3D::kary(6);
        let l = lab(&mesh);
        assert_eq!(l.unsafe_count(), 0);
    }

    #[test]
    fn octant_reflection_changes_labelling() {
        // A useless pocket for the identity octant is a can't-reach pocket
        // for the fully flipped octant.
        let mut mesh = Mesh3D::kary(8);
        mesh.inject_fault(c3(5, 4, 4));
        mesh.inject_fault(c3(4, 5, 4));
        mesh.inject_fault(c3(4, 4, 5));
        let f = Frame3::for_pair(&mesh, c3(7, 7, 7), c3(0, 0, 0));
        let l = Labelling3::compute(&mesh, f, BorderPolicy::BorderSafe);
        assert!(l.status_mesh(c3(4, 4, 4)).is_cant_reach());
    }

    #[test]
    fn repair_matches_recompute_on_random_churn_3d() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for torus in [false, true] {
            for policy in [BorderPolicy::BorderSafe, BorderPolicy::BorderBlocked] {
                let k = 6;
                let mut mesh = if torus {
                    Mesh3D::torus_kary(k)
                } else {
                    Mesh3D::kary(k)
                };
                let mut rng = SmallRng::seed_from_u64(torus as u64 * 2 + 3);
                for _ in 0..20 {
                    mesh.inject_fault(c3(
                        rng.gen_range(0..k),
                        rng.gen_range(0..k),
                        rng.gen_range(0..k),
                    ));
                }
                let mut l = Labelling3::compute(&mesh, Frame3::identity(&mesh), policy);
                for _ in 0..30 {
                    let mut injected = Vec::new();
                    let mut healed = Vec::new();
                    for _ in 0..rng.gen_range(0..4) {
                        let c = c3(
                            rng.gen_range(0..k),
                            rng.gen_range(0..k),
                            rng.gen_range(0..k),
                        );
                        if mesh.is_healthy(c) && !injected.contains(&c) {
                            injected.push(c);
                        }
                    }
                    let faults = mesh.faults().to_vec();
                    for _ in 0..rng.gen_range(0..4) {
                        let c = faults[rng.gen_range(0..faults.len())];
                        if !healed.contains(&c) {
                            healed.push(c);
                        }
                    }
                    for &c in &injected {
                        assert!(mesh.inject_fault(c));
                    }
                    for &c in &healed {
                        assert!(mesh.heal_fault(c));
                    }
                    l.repair(&injected, &healed);
                    let fresh = Labelling3::compute(&mesh, l.frame(), policy);
                    for ((c, a), (_, b)) in l.iter().zip(fresh.iter()) {
                        assert_eq!(a, b, "status diverged at {c}");
                    }
                    assert_eq!(l.unsafe_set(), fresh.unsafe_set());
                }
            }
        }
    }

    #[test]
    fn status_mesh_roundtrip() {
        let mut mesh = Mesh3D::kary(5);
        mesh.inject_fault(c3(2, 2, 2));
        for f in Frame3::all(&mesh) {
            let l = Labelling3::compute(&mesh, f, BorderPolicy::BorderSafe);
            for c in mesh.nodes() {
                assert_eq!(l.status_mesh(c), l.status(f.to_canon(c)));
            }
        }
    }
}
