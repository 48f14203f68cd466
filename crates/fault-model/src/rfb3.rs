//! Unit tests of [`crate::rfb`] on 3-D meshes: the cuboid block model.

mod tests {
    use crate::rfb::FaultBlocks3;
    use mesh_topo::coord::c3;
    use mesh_topo::{Box3, Mesh3D, C3};

    fn blocks_of(faults: &[C3], k: i32) -> (Mesh3D, FaultBlocks3) {
        let mut mesh = Mesh3D::kary(k);
        for &f in faults {
            mesh.inject_fault(f);
        }
        let b = FaultBlocks3::compute(&mesh);
        (mesh, b)
    }

    #[test]
    fn single_fault_single_cell() {
        let (_, b) = blocks_of(&[c3(3, 3, 3)], 8);
        assert_eq!(b.blocks().len(), 1);
        assert_eq!(b.blocks()[0].volume(), 1);
        assert_eq!(b.sacrificed_count(), 0);
    }

    #[test]
    fn diagonal_pair_merges_in_3d_blocks() {
        // Planar diagonal: the two nodes between them each see two faulty
        // neighbors -> disabled -> one 2x2x1 block.
        let (_, b) = blocks_of(&[c3(3, 3, 3), c3(4, 4, 3)], 8);
        assert_eq!(b.blocks().len(), 1);
        assert_eq!(b.blocks()[0], Box3::spanning(c3(3, 3, 3), c3(4, 4, 3)));
        assert_eq!(b.sacrificed_count(), 2);
    }

    #[test]
    fn space_diagonal_stays_separate() {
        // Space diagonal (differs in all 3 coords): no node has two
        // faulty neighbors, and the two singleton boxes do not intersect.
        let (_, b) = blocks_of(&[c3(4, 4, 4), c3(5, 5, 5)], 8);
        assert_eq!(b.blocks().len(), 2);
    }

    #[test]
    fn blocks_are_filled_cuboids() {
        let (_, b) = blocks_of(&[c3(2, 2, 2), c3(3, 3, 2), c3(2, 3, 3)], 8);
        for blk in &b.blocks() {
            for c in blk.iter() {
                assert!(b.is_disabled(c), "{c} in block {blk:?} not disabled");
            }
        }
        let total: u64 = b.blocks().iter().map(|bb| bb.volume()).sum();
        assert_eq!(total as usize, b.disabled_count());
    }

    #[test]
    fn rfb3_coarser_than_mcc3() {
        use crate::labelling::Labelling3;
        use crate::status::BorderPolicy;
        use mesh_topo::Frame3;
        let (mesh, b) = blocks_of(&[c3(3, 3, 3), c3(4, 4, 3)], 8);
        let lab = Labelling3::compute(&mesh, Frame3::identity(&mesh), BorderPolicy::BorderSafe);
        // MCC: two blocked dims are not enough in 3-D -> nothing sacrificed.
        assert_eq!(lab.sacrificed_count(), 0);
        assert_eq!(b.sacrificed_count(), 2);
    }

    #[test]
    fn minimal_path_under_cuboids() {
        // A cuboid spanning the full RMP cross-section blocks.
        let mut faults = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                faults.push(c3(x, y, 2));
            }
        }
        let (mesh, b) = blocks_of(&faults, 8);
        assert!(!b.minimal_path_exists(&mesh, c3(0, 0, 0), c3(3, 3, 4)));
        assert!(b.minimal_path_exists(&mesh, c3(0, 0, 0), c3(4, 3, 4)));
    }

    #[test]
    fn endpoint_in_block_fails() {
        let (mesh, b) = blocks_of(&[c3(3, 3, 3), c3(4, 4, 3)], 8);
        assert!(b.is_disabled(c3(3, 4, 3)));
        assert!(mesh.is_healthy(c3(3, 4, 3)));
        assert!(!b.minimal_path_exists(&mesh, c3(0, 0, 0), c3(3, 4, 3)));
    }

    #[test]
    fn disjoint_blocks_stay_disjoint() {
        let (_, b) = blocks_of(&[c3(1, 1, 1), c3(6, 6, 6)], 8);
        assert_eq!(b.blocks().len(), 2);
        assert!(!b.blocks()[0].intersects(&b.blocks()[1]));
    }

    #[test]
    fn two_diagonals_percolate_through_the_whole_16_cube() {
        // The diagonal of the z = 0 plane fills that plane, the diagonal
        // of the x = 0 plane fills that one, and from the two planes every
        // node gains a disabled -x and -z neighbor in turn.
        let mut faults: Vec<C3> = (0..16).map(|i| c3(i, i, 0)).collect();
        faults.extend((1..16).map(|j| c3(0, j, j)));
        let (_, b) = blocks_of(&faults, 16);
        assert_eq!(b.disabled_count(), 4096);
        assert_eq!(b.sacrificed_count(), 4096 - 31);
        assert_eq!(
            b.blocks(),
            vec![Box3::spanning(c3(0, 0, 0), c3(15, 15, 15))]
        );
    }
}
