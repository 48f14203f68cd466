//! Unit tests of [`crate::labelling`] on 2-D meshes and tori: Algorithm 1
//! and its churn repair.

mod tests {
    use crate::labelling::Labelling2;
    use crate::status::{BorderPolicy, NodeStatus};
    use mesh_topo::coord::c2;
    use mesh_topo::{Frame2, Mesh2D, C2};

    fn lab(mesh: &Mesh2D) -> Labelling2 {
        Labelling2::compute(mesh, Frame2::identity(mesh), BorderPolicy::BorderSafe)
    }

    #[test]
    fn fault_free_mesh_is_all_safe() {
        let mesh = Mesh2D::new(8, 8);
        let l = lab(&mesh);
        assert_eq!(l.unsafe_count(), 0);
        assert!(l.iter().all(|(_, s)| s.is_safe()));
    }

    #[test]
    fn single_fault_labels_nothing_else() {
        let mut mesh = Mesh2D::new(8, 8);
        mesh.inject_fault(c2(4, 4));
        let l = lab(&mesh);
        assert_eq!(l.unsafe_count(), 1);
        assert_eq!(l.sacrificed_count(), 0);
        assert!(l.status(c2(4, 4)).is_faulty());
    }

    #[test]
    fn antidiagonal_pair_fills_corners() {
        // Faults at (5,6) and (6,5): (5,5) gets useless (+X and +Y faulty),
        // (6,6) gets can't-reach (-X and -Y faulty).
        let mut mesh = Mesh2D::new(10, 10);
        mesh.inject_fault(c2(5, 6));
        mesh.inject_fault(c2(6, 5));
        let l = lab(&mesh);
        assert!(l.status(c2(5, 5)).is_useless());
        assert!(l.status(c2(6, 6)).is_cant_reach());
        assert_eq!(l.unsafe_count(), 4);
        assert_eq!(l.sacrificed_count(), 2);
    }

    #[test]
    fn main_diagonal_pair_stays_separate() {
        // Faults at (5,5) and (6,6) do not interact (the "/" orientation).
        let mut mesh = Mesh2D::new(10, 10);
        mesh.inject_fault(c2(5, 5));
        mesh.inject_fault(c2(6, 6));
        let l = lab(&mesh);
        assert_eq!(l.unsafe_count(), 2);
        assert_eq!(l.sacrificed_count(), 0);
    }

    #[test]
    fn useless_cascade() {
        // A column of faults at x=6 and a row of faults at y=6 with a safe
        // pocket in the corner: the pocket cell (5,5) is useless, and the
        // cascade continues to (4,4)? No — only if both its +X and +Y are
        // unsafe. Construct an L that forces a 2-step cascade.
        let mut mesh = Mesh2D::new(10, 10);
        for c in [c2(6, 5), c2(6, 4), c2(5, 6), c2(4, 6)] {
            mesh.inject_fault(c);
        }
        let l = lab(&mesh);
        // (5,5): +X=(6,5) faulty, +Y=(5,6) faulty -> useless.
        assert!(l.status(c2(5, 5)).is_useless());
        // (4,5): +X=(5,5) useless, +Y=(4,6) faulty -> useless.
        assert!(l.status(c2(4, 5)).is_useless());
        // (5,4): +X=(6,4) faulty, +Y=(5,5) useless -> useless.
        assert!(l.status(c2(5, 4)).is_useless());
        // (4,4): +X=(5,4) useless, +Y=(4,5) useless -> useless.
        assert!(l.status(c2(4, 4)).is_useless());
        // (3,3) is not: +X=(4,3) safe.
        assert!(l.status(c2(3, 3)).is_safe());
    }

    #[test]
    fn cant_reach_pocket() {
        // Wall on -X and -Y of a pocket: (6,6) with faults at (5,6) and (6,5).
        let mut mesh = Mesh2D::new(10, 10);
        for c in [c2(5, 6), c2(6, 5), c2(5, 7), c2(7, 5)] {
            mesh.inject_fault(c);
        }
        let l = lab(&mesh);
        assert!(l.status(c2(6, 6)).is_cant_reach());
        // (6,7): -X=(5,7) faulty, -Y=(6,6) cant-reach -> cant-reach.
        assert!(l.status(c2(6, 7)).is_cant_reach());
        assert!(l.status(c2(7, 6)).is_cant_reach());
        assert!(l.status(c2(7, 7)).is_cant_reach());
    }

    #[test]
    fn border_safe_policy_keeps_far_corner_safe() {
        let mut mesh = Mesh2D::new(8, 8);
        mesh.inject_fault(c2(3, 3));
        let l = lab(&mesh);
        // With BorderSafe the mesh corner (7,7) must stay safe.
        assert!(l.status(c2(7, 7)).is_safe());
    }

    #[test]
    fn border_blocked_policy_cascades_from_corner() {
        let mesh = {
            let mut m = Mesh2D::new(4, 4);
            // no faults needed; the border itself blocks
            m.inject_fault(c2(0, 0)); // keep one fault so closure has work
            m
        };
        let l = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderBlocked);
        // (3,3): +X and +Y out of mesh -> useless under BorderBlocked.
        assert!(l.status(c2(3, 3)).is_useless());
    }

    #[test]
    fn frame_reflection_relabels() {
        // A fault pattern that is "/"-oriented for the identity frame is
        // "\"-oriented after an X flip, so the labelling differs.
        let mut mesh = Mesh2D::new(10, 10);
        mesh.inject_fault(c2(5, 5));
        mesh.inject_fault(c2(6, 6));
        let id = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        assert_eq!(id.sacrificed_count(), 0);
        let flipped = Frame2::for_pair(&mesh, c2(9, 0), c2(0, 9)); // flip_x
        let lf = Labelling2::compute(&mesh, flipped, BorderPolicy::BorderSafe);
        assert_eq!(lf.sacrificed_count(), 2);
        // In mesh coordinates the filled cells are (6,5) and (5,6).
        assert!(lf.status_mesh(c2(6, 5)).is_unsafe());
        assert!(lf.status_mesh(c2(5, 6)).is_unsafe());
    }

    #[test]
    fn status_mesh_matches_canonical() {
        let mut mesh = Mesh2D::new(6, 6);
        mesh.inject_fault(c2(2, 3));
        let f = Frame2::for_pair(&mesh, c2(5, 5), c2(0, 0));
        let l = Labelling2::compute(&mesh, f, BorderPolicy::BorderSafe);
        for c in mesh.nodes() {
            assert_eq!(l.status_mesh(c), l.status(f.to_canon(c)));
        }
    }

    #[test]
    fn torus_labels_wrap_across_the_seam() {
        // (0,2) is useless from its in-grid neighbors; (7,2) then becomes
        // useless through the wrap link (its +X neighbor is (0,2)). The
        // decreasing-x sweep sees that dependency only on its second pass,
        // so this also exercises the fixpoint iteration.
        let faults = [c2(1, 2), c2(0, 3), c2(7, 3)];
        let mut torus = Mesh2D::torus(8, 5);
        for c in faults {
            torus.inject_fault(c);
        }
        let lt = lab(&torus);
        assert!(lt.status(c2(0, 2)).is_useless());
        assert!(lt.status(c2(7, 2)).is_useless(), "label must wrap");
        // (1,3) is can't-reach on both topologies: -X=(0,3), -Y=(1,2).
        assert!(lt.status(c2(1, 3)).is_cant_reach());
        assert_eq!(lt.sacrificed_count(), 3);

        // On the mesh with the same faults the seam does not exist: the
        // border is safe and (7,2) keeps its label.
        let mut mesh = Mesh2D::new(8, 5);
        for c in faults {
            mesh.inject_fault(c);
        }
        let lm = lab(&mesh);
        assert!(lm.status(c2(0, 2)).is_useless());
        assert!(lm.status(c2(7, 2)).is_safe());
    }

    #[test]
    fn torus_fixpoint_has_no_missed_labels() {
        // Closure property: no safe node may have both wrapped positive
        // (or both wrapped negative) neighbors blocked.
        let mut torus = Mesh2D::torus(7, 6);
        for c in [c2(0, 0), c2(6, 1), c2(1, 5), c2(3, 3), c2(4, 2), c2(2, 4)] {
            torus.inject_fault(c);
        }
        let l = lab(&torus);
        let space = torus.space();
        for c in torus.nodes() {
            let st = l.status(c);
            let nxp = l.status(space.wrap_coord(c.step(mesh_topo::Dir2::Xp)));
            let nyp = l.status(space.wrap_coord(c.step(mesh_topo::Dir2::Yp)));
            let nxm = l.status(space.wrap_coord(c.step(mesh_topo::Dir2::Xm)));
            let nym = l.status(space.wrap_coord(c.step(mesh_topo::Dir2::Ym)));
            if !st.blocks_forward() {
                assert!(
                    !(nxp.blocks_forward() && nyp.blocks_forward()),
                    "{c} missed useless"
                );
            }
            if !st.blocks_backward() {
                assert!(
                    !(nxm.blocks_backward() && nym.blocks_backward()),
                    "{c} missed can't-reach"
                );
            }
        }
    }

    fn churn_once(
        mesh: &mut Mesh2D,
        lab: &mut Labelling2,
        injected: &[C2],
        healed: &[C2],
    ) -> Vec<usize> {
        for &c in injected {
            assert!(mesh.inject_fault(c));
        }
        for &c in healed {
            assert!(mesh.heal_fault(c));
        }
        lab.repair(injected, healed)
    }

    fn assert_matches_recompute(mesh: &Mesh2D, lab: &Labelling2) {
        let fresh = Labelling2::compute(mesh, lab.frame(), lab.policy());
        for ((c, a), (_, b)) in lab.iter().zip(fresh.iter()) {
            assert_eq!(a, b, "status diverged at {c}");
        }
        assert_eq!(lab.unsafe_set(), fresh.unsafe_set());
    }

    #[test]
    fn repair_reverses_the_seam_crossing_label() {
        // The torus_labels_wrap_across_the_seam scenario, then heal (1,2):
        // (0,2) loses useless, and the retraction must cross the wrap seam
        // backwards to also clear (7,2), whose +X neighbor is (0,2).
        let mut torus = Mesh2D::torus(8, 5);
        for c in [c2(1, 2), c2(0, 3), c2(7, 3)] {
            torus.inject_fault(c);
        }
        let mut l = lab(&torus);
        assert!(l.status(c2(7, 2)).is_useless());
        let changed = churn_once(&mut torus, &mut l, &[], &[c2(1, 2)]);
        assert!(l.status(c2(0, 2)).is_safe());
        assert!(
            l.status(c2(7, 2)).is_safe(),
            "retraction must cross the seam"
        );
        assert!(changed.contains(&l.space().index(c2(7, 2))));
        assert_matches_recompute(&torus, &l);
    }

    #[test]
    fn repair_changed_list_is_exact() {
        let mut mesh = Mesh2D::new(10, 10);
        for c in [c2(6, 5), c2(6, 4), c2(5, 6), c2(4, 6)] {
            mesh.inject_fault(c);
        }
        let mut l = lab(&mesh);
        let before: Vec<NodeStatus> = l.iter().map(|(_, s)| s).collect();
        let changed = churn_once(&mut mesh, &mut l, &[c2(2, 2)], &[c2(6, 5)]);
        assert_matches_recompute(&mesh, &l);
        let diff: Vec<usize> = l
            .iter()
            .enumerate()
            .filter(|&(i, (_, s))| s != before[i])
            .map(|(i, _)| i)
            .collect();
        assert_eq!(changed, diff);
        assert!(changed.windows(2).all(|p| p[0] < p[1]), "sorted ascending");
    }

    #[test]
    fn repair_matches_recompute_on_random_churn() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for torus in [false, true] {
            for policy in [BorderPolicy::BorderSafe, BorderPolicy::BorderBlocked] {
                let (w, h) = (12, 9);
                let mut mesh = if torus {
                    Mesh2D::torus(w, h)
                } else {
                    Mesh2D::new(w, h)
                };
                let mut rng = SmallRng::seed_from_u64(torus as u64 * 2 + 11);
                for _ in 0..16 {
                    mesh.inject_fault(c2(rng.gen_range(0..w), rng.gen_range(0..h)));
                }
                let mut l = Labelling2::compute(&mesh, Frame2::identity(&mesh), policy);
                for _ in 0..50 {
                    let mut injected = Vec::new();
                    let mut healed = Vec::new();
                    for _ in 0..rng.gen_range(0..4) {
                        let c = c2(rng.gen_range(0..w), rng.gen_range(0..h));
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
                    churn_once(&mut mesh, &mut l, &injected, &healed);
                    assert_matches_recompute(&mesh, &l);
                }
            }
        }
    }

    #[test]
    fn bulk_repair_tier_matches_worklist_tier() {
        // A batch big enough to trip the BULK_REPAIR_FANOUT cut-over on an
        // 8×8 grid (64 nodes: >= 2 flips), exercised against recompute on
        // both topologies.
        for torus in [false, true] {
            let mut mesh = if torus {
                Mesh2D::torus(8, 8)
            } else {
                Mesh2D::new(8, 8)
            };
            for x in 0..8 {
                mesh.inject_fault(c2(x, 3));
            }
            let mut l = lab(&mesh);
            let injected: Vec<C2> = (0..8)
                .map(|y| c2(5, y))
                .filter(|&c| mesh.is_healthy(c))
                .collect();
            let healed = vec![c2(1, 3), c2(2, 3)];
            for &c in &injected {
                mesh.inject_fault(c);
            }
            for &c in &healed {
                mesh.heal_fault(c);
            }
            let changed = l.repair(&injected, &healed);
            assert_matches_recompute(&mesh, &l);
            assert!(changed.windows(2).all(|p| p[0] < p[1]));
        }
    }

    #[test]
    fn unsafe_set_matches_statuses() {
        let mut mesh = Mesh2D::new(10, 10);
        for c in [c2(5, 6), c2(6, 5), c2(2, 2)] {
            mesh.inject_fault(c);
        }
        let l = lab(&mesh);
        let set = l.unsafe_set();
        for c in mesh.nodes() {
            assert_eq!(set.contains(l.space().index(c)), l.status(c).is_unsafe());
        }
        assert_eq!(set.len(), l.unsafe_count());
    }
}
