//! Unit tests of [`crate::rfb`] on 2-D meshes and tori: the rectangular
//! block model.

mod tests {
    use crate::oracle;
    use crate::rfb::FaultBlocks2;
    use mesh_topo::coord::c2;
    use mesh_topo::{Mesh2D, Rect, C2};

    fn blocks_of(faults: &[C2], w: i32, h: i32) -> (Mesh2D, FaultBlocks2) {
        let mut mesh = Mesh2D::new(w, h);
        for &f in faults {
            mesh.inject_fault(f);
        }
        let b = FaultBlocks2::compute(&mesh);
        (mesh, b)
    }

    #[test]
    fn single_fault_single_cell_block() {
        let (_, b) = blocks_of(&[c2(4, 4)], 10, 10);
        assert_eq!(b.blocks().len(), 1);
        assert_eq!(b.blocks()[0], Rect::spanning(c2(4, 4), c2(4, 4)));
        assert_eq!(b.sacrificed_count(), 0);
    }

    #[test]
    fn diagonal_faults_close_to_rectangle() {
        // Both diagonal orientations close under the RFB rule (unlike MCC).
        let (_, b) = blocks_of(&[c2(4, 4), c2(5, 5)], 10, 10);
        assert_eq!(b.blocks().len(), 1);
        assert_eq!(b.blocks()[0], Rect::spanning(c2(4, 4), c2(5, 5)));
        assert_eq!(b.sacrificed_count(), 2);
        let (_, b2) = blocks_of(&[c2(4, 5), c2(5, 4)], 10, 10);
        assert_eq!(b2.blocks().len(), 1);
        assert_eq!(b2.sacrificed_count(), 2);
    }

    #[test]
    fn gap_of_one_in_a_column_closes() {
        // Two faulty nodes two apart in a column: the node between them has
        // two faulty neighbors -> disabled -> a 1x3 rectangle.
        let (_, b) = blocks_of(&[c2(4, 4), c2(4, 6)], 10, 10);
        assert_eq!(b.blocks().len(), 1);
        assert_eq!(b.blocks()[0], Rect::spanning(c2(4, 4), c2(4, 6)));
        assert_eq!(b.sacrificed_count(), 1);
    }

    #[test]
    fn l_shape_fills_rectangle() {
        let (_, b) = blocks_of(&[c2(4, 4), c2(4, 6), c2(6, 4)], 12, 12);
        assert_eq!(b.blocks().len(), 1);
        assert_eq!(b.blocks()[0], Rect::spanning(c2(4, 4), c2(6, 6)));
        assert_eq!(b.sacrificed_count(), 6);
    }

    #[test]
    fn blocks_are_full_rectangles() {
        let (_, b) = blocks_of(&[c2(2, 2), c2(3, 3), c2(2, 4), c2(8, 1), c2(8, 2)], 12, 12);
        for r in &b.blocks() {
            for c in r.iter() {
                assert!(b.is_disabled(c), "{c} inside block {r:?} but not disabled");
            }
        }
        let total: u64 = b.blocks().iter().map(|r| r.area()).sum();
        assert_eq!(total as usize, b.disabled_count());
        // and blocks are pairwise disjoint
        for i in 0..b.blocks().len() {
            for j in (i + 1)..b.blocks().len() {
                assert!(!b.blocks()[i].intersects(&b.blocks()[j]));
            }
        }
    }

    #[test]
    fn far_apart_faults_stay_separate() {
        let (_, b) = blocks_of(&[c2(2, 2), c2(8, 8)], 12, 12);
        assert_eq!(b.blocks().len(), 2);
    }

    #[test]
    fn rfb_is_coarser_than_mcc() {
        use crate::labelling::Labelling2;
        use crate::mcc2::MccSet2;
        use crate::status::BorderPolicy;
        use mesh_topo::Frame2;
        // "/"-oriented diagonal: MCC sacrifices nothing, RFB sacrifices 2.
        let (mesh, b) = blocks_of(&[c2(4, 4), c2(5, 5)], 10, 10);
        let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        let mccs = MccSet2::compute(&lab);
        assert_eq!(mccs.total_sacrificed(), 0);
        assert_eq!(b.sacrificed_count(), 2);
    }

    #[test]
    fn minimal_path_under_blocks() {
        let (mesh, b) = blocks_of(&[c2(3, 3), c2(4, 4)], 8, 8);
        // Block is [3..4]x[3..4]; s below it in col 3, d above it in col 4.
        assert!(!b.minimal_path_exists(&mesh, c2(3, 0), c2(4, 7)));
        // Wider RMP escapes.
        assert!(b.minimal_path_exists(&mesh, c2(0, 0), c2(7, 7)));
    }

    #[test]
    fn block_success_implies_fault_oracle_success() {
        // The block model is conservative: whenever it says a minimal path
        // exists, one really does exist among the physical faults.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..200 {
            let mut mesh = Mesh2D::new(12, 12);
            for _ in 0..rng.gen_range(0..14) {
                let c = c2(rng.gen_range(0..12), rng.gen_range(0..12));
                if mesh.is_healthy(c) {
                    mesh.inject_fault(c);
                }
            }
            let b = FaultBlocks2::compute(&mesh);
            let s = c2(rng.gen_range(0..12), rng.gen_range(0..12));
            let d = c2(rng.gen_range(0..12), rng.gen_range(0..12));
            if mesh.is_faulty(s) || mesh.is_faulty(d) {
                continue;
            }
            if b.minimal_path_exists(&mesh, s, d) {
                let frame = mesh_topo::Frame2::for_pair(&mesh, s, d);
                assert!(oracle::reachable_2d(
                    frame.to_canon(s),
                    frame.to_canon(d),
                    |c| {
                        mesh.is_faulty(frame.from_canon(c)) || !mesh.contains(frame.from_canon(c))
                    }
                ));
            }
        }
    }

    #[test]
    fn endpoint_in_block_fails() {
        let (mesh, b) = blocks_of(&[c2(3, 3), c2(4, 4)], 8, 8);
        // (3,4) is healthy but disabled.
        assert!(b.is_disabled(c2(3, 4)));
        assert!(mesh.is_healthy(c2(3, 4)));
        assert!(!b.minimal_path_exists(&mesh, c2(0, 0), c2(3, 4)));
    }

    #[test]
    fn torus_component_across_the_seam_fills_its_grid_spanning_box() {
        // (7,3) and (0,3) are neighbors across the wrap seam, and no other
        // node has two faulty neighbors, so the rule alone disables
        // nothing. Their bounding box in mesh coordinates spans the whole
        // row, so the fill disables all of row 3.
        let mut mesh = Mesh2D::torus(8, 8);
        mesh.inject_fault(c2(7, 3));
        mesh.inject_fault(c2(0, 3));
        let b = FaultBlocks2::compute(&mesh);
        assert_eq!(b.blocks(), vec![Rect::spanning(c2(0, 3), c2(7, 3))]);
        assert_eq!(b.sacrificed_count(), 6);
        // The ring cuts every minimal path from row 2 to row 5, although
        // column 2 holds no fault: the loss the RFB columns of the torus
        // tables record.
        assert!(!b.minimal_path_exists(&mesh, c2(2, 2), c2(2, 5)));
        assert!((2..=5).all(|y| mesh.is_healthy(c2(2, y))));
    }
}
