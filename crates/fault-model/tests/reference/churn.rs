//! Churn-batch validation as it ran before `CheckedBatch`, kept verbatim
//! as a test oracle.
//!
//! Each set is collected into a mesh-sized `NodeSet` in input order, so
//! the first repeat or out-of-range node met is the one reported; then the
//! healed nodes are looked up in the injected set, and every node is
//! probed in the fault bitset. `batch_check.rs` asserts the sorted-index
//! routine reports the same `Ok` or the same `ChurnError`.

use fault_model::ChurnError;
use mesh_topo::{Coord, Mesh, NodeSet};

/// The injected and healed sets of a valid batch, or the error the
/// node-by-node scan meets first.
pub fn validated_sets<C: Coord>(
    mesh: &Mesh<C>,
    injected: &[C],
    healed: &[C],
) -> Result<(NodeSet, NodeSet), ChurnError<C>> {
    let space = mesh.space();
    let faulty = mesh.fault_set();
    let mut inj = NodeSet::new(space.len());
    for &c in injected {
        let i = space.index_checked(c).ok_or(ChurnError::OutOfBounds(c))?;
        if !inj.insert(i) {
            return Err(ChurnError::DuplicateInjected(c));
        }
    }
    let mut heal = NodeSet::new(space.len());
    for &c in healed {
        let i = space.index_checked(c).ok_or(ChurnError::OutOfBounds(c))?;
        if !heal.insert(i) {
            return Err(ChurnError::DuplicateHealed(c));
        }
    }
    for &c in healed {
        if inj.contains(space.index(c)) {
            return Err(ChurnError::Overlap(c));
        }
    }
    for &c in injected {
        if faulty.contains(space.index(c)) {
            return Err(ChurnError::AlreadyFaulty(c));
        }
    }
    for &c in healed {
        if !faulty.contains(space.index(c)) {
            return Err(ChurnError::NotFaulty(c));
        }
    }
    Ok((inj, heal))
}
