//! 2-D boundary construction (Algorithm 2, step 3).
//!
//! From each region's Y anchor (one column west of the region, above that
//! column's top — where the delivery walk of [`crate::ident2`] left the
//! shape) a *boundary message* descends in the `-Y` direction, depositing a
//! [`BoundaryRecord2`] at every node it visits. When the next `-Y` node is
//! unsafe the message turns `-X` and hugs the blocking region — the mirror
//! image of the detection walk, and just as stuck-free: a safe node whose
//! `-X` and `-Y` neighbors are both unsafe would have been labelled
//! can't-reach. While rounding a foreign region the walk passes that
//! region's own Y anchor and **merges its forbidden region** into the
//! record (`Q_Y(c) := Q_Y(c) ∪ Q_Y(v)`), exactly the paper's merge rule.
//! The X boundary mirrors everything (descend `-X`, detour `-Y`, merge at
//! X anchors).
//!
//! The records are precisely the "limited global information" the routing
//! of [`crate::route2`] relies on: a message traveling toward a critical
//! destination meets the boundary line *before* it can enter the forbidden
//! shadow, because the line runs along the only safe entry column/row.

use std::sync::Arc;

use fault_model::NodeStatus;
use mesh_topo::{Dir2, Mesh2D, C2};
use sim_net::{RunStats, SimNet};

use crate::ident2::Ident2;
use crate::records::{BoundaryAxis, BoundaryRecord2, RegionShape};

/// A boundary message in flight.
#[derive(Clone, Debug)]
pub struct BoundMsg {
    /// Which boundary is being constructed.
    pub axis: BoundaryAxis,
    /// The root region (its critical region gates the record).
    pub root: Arc<RegionShape>,
    /// Forbidden regions merged so far (root included).
    pub merged: Vec<Arc<RegionShape>>,
}

/// Per-node state after boundary construction.
#[derive(Clone, Debug, Default)]
pub struct BoundState {
    /// Own status.
    pub status: NodeStatus,
    /// Neighbor statuses by direction index (from the labelling phase).
    pub nbr_status: [Option<NodeStatus>; 4],
    /// Shapes anchored here (from the identification phase).
    pub anchor_shapes: Vec<Arc<RegionShape>>,
    /// Deposited boundary records.
    pub records: Vec<BoundaryRecord2>,
}

/// The completed boundary-construction network.
pub struct Boundary2 {
    /// Per-node state (canonical coordinates).
    pub net: SimNet<C2, BoundState, BoundMsg>,
    /// Rounds/messages of this phase.
    pub stats: RunStats,
}

impl Boundary2 {
    /// Run the boundary construction on top of a completed identification.
    pub fn run(mesh: &Mesh2D, ident: &Ident2) -> Boundary2 {
        let (w, h) = (mesh.width(), mesh.height());
        let space = mesh.space();
        let mut net: SimNet<C2, BoundState, BoundMsg> =
            SimNet::new(space, |_| BoundState::default());
        for i in 0..net.len() {
            let src = ident.net.state(i);
            let nbr_status = {
                let mut nbr = [None; 4];
                for dir in Dir2::ALL {
                    if let Some(n) = space.step(i, dir) {
                        nbr[dir.index()] = Some(ident.net.state(n).status);
                    }
                }
                nbr
            };
            let dst = net.state_mut(i);
            dst.status = src.status;
            dst.anchor_shapes = src.anchor_shapes.clone();
            dst.nbr_status = nbr_status;
        }
        // Launch one boundary walk per anchored shape.
        let mut launches: Vec<(usize, BoundMsg)> = Vec::new();
        for (i, state) in net.iter() {
            let c = space.coord(i);
            for shape in &state.anchor_shapes {
                if shape.y_anchor() == c {
                    launches.push((
                        i,
                        BoundMsg {
                            axis: BoundaryAxis::Y,
                            root: shape.clone(),
                            merged: vec![shape.clone()],
                        },
                    ));
                }
                if shape.x_anchor() == c {
                    launches.push((
                        i,
                        BoundMsg {
                            axis: BoundaryAxis::X,
                            root: shape.clone(),
                            merged: vec![shape.clone()],
                        },
                    ));
                }
            }
        }
        for (i, msg) in launches {
            net.post(i, msg);
        }
        let max_rounds = (4 * (w + h)) as usize * (1 + mesh.fault_count()) + 16;
        let stats = net.run(max_rounds, move |state, inbox, ctx| {
            let me_i = ctx.me();
            let me = space.coord(me_i);
            for (_, msg) in inbox {
                let mut msg = msg.clone();
                // Merge any same-axis anchor shapes stored here.
                for s in &state.anchor_shapes {
                    let is_anchor = match msg.axis {
                        BoundaryAxis::Y => s.y_anchor() == me,
                        BoundaryAxis::X => s.x_anchor() == me,
                    };
                    if is_anchor
                        && s.comp_id != msg.root.comp_id
                        && !msg.merged.iter().any(|m| m.comp_id == s.comp_id)
                    {
                        msg.merged.push(s.clone());
                    }
                }
                // Deposit.
                let dup = state.records.iter().any(|r| {
                    r.axis == msg.axis
                        && r.root.comp_id == msg.root.comp_id
                        && r.merged.len() >= msg.merged.len()
                });
                if !dup {
                    state.records.push(BoundaryRecord2 {
                        axis: msg.axis,
                        root: msg.root.clone(),
                        merged: msg.merged.clone(),
                    });
                } else {
                    continue; // already walked through here with this record
                }
                // Advance: main direction, else detour.
                let (main, side) = match msg.axis {
                    BoundaryAxis::Y => (Dir2::Ym, Dir2::Xm),
                    BoundaryAxis::X => (Dir2::Xm, Dir2::Ym),
                };
                let safe = |dir: Dir2| {
                    space.step(me_i, dir).is_some()
                        && matches!(state.nbr_status[dir.index()], Some(st) if st.is_safe())
                };
                if safe(main) {
                    ctx.send(space.step(me_i, main).expect("checked in-mesh"), msg);
                } else if space.step(me_i, main).is_some() && safe(side) {
                    // Blocked by a region (not the mesh edge): detour.
                    ctx.send(space.step(me_i, side).expect("checked in-mesh"), msg);
                }
                // Otherwise: reached the mesh edge — the boundary ends.
            }
        });
        Boundary2 { net, stats }
    }

    /// The records stored at canonical `c`.
    pub fn records(&self, c: C2) -> &[BoundaryRecord2] {
        &self.net.state_at(c).records
    }

    /// Total records deposited (a memory-cost metric of the model).
    pub fn total_records(&self) -> usize {
        self.net.iter().map(|(_, s)| s.records.len()).sum()
    }
}

/// Run the full distributed construction pipeline for one quadrant:
/// labelling → components → identification → boundaries. Returns the final
/// network plus the aggregate statistics of all four phases.
pub fn build_pipeline_2d(mesh: &Mesh2D, frame: mesh_topo::Frame2) -> (Boundary2, PipelineStats) {
    let lab = crate::labelling::DistLabelling2::run(mesh, frame);
    let comps = crate::compid::DistComponents2::run(mesh, &lab);
    let ident = Ident2::run(mesh, &comps);
    let bound = Boundary2::run(mesh, &ident);
    let stats = PipelineStats {
        labelling: lab.stats,
        components: comps.stats,
        identification: ident.stats,
        boundary: bound.stats,
    };
    (bound, stats)
}

/// Message/round statistics of the four construction phases.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineStats {
    /// Labelling closure phase.
    pub labelling: RunStats,
    /// Component-id gossip phase.
    pub components: RunStats,
    /// Identification walks phase.
    pub identification: RunStats,
    /// Boundary construction phase.
    pub boundary: RunStats,
}

impl PipelineStats {
    /// Total messages across all phases.
    pub fn total_messages(&self) -> usize {
        self.labelling.messages
            + self.components.messages
            + self.identification.messages
            + self.boundary.messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_topo::coord::c2;
    use mesh_topo::Frame2;

    fn build(faults: &[C2], w: i32, h: i32) -> (Mesh2D, Boundary2) {
        let mut mesh = Mesh2D::new(w, h);
        for &f in faults {
            mesh.inject_fault(f);
        }
        let (b, _) = build_pipeline_2d(&mesh, Frame2::identity(&mesh));
        (mesh, b)
    }

    #[test]
    fn y_boundary_descends_from_anchor() {
        let (_, b) = build(&[c2(5, 5)], 10, 10);
        // Shape {(5,5)}: Y anchor (4,6); the boundary deposits records at
        // (4,6),(4,5)...(4,0).
        for y in 0..=6 {
            let recs = b.records(c2(4, y));
            assert!(
                recs.iter().any(|r| r.axis == BoundaryAxis::Y),
                "missing Y record at (4,{y})"
            );
        }
        // X boundary: anchor (6,4), records at (5,4)...(0,4).
        for x in 0..=6 {
            let recs = b.records(c2(x, 4));
            assert!(
                recs.iter().any(|r| r.axis == BoundaryAxis::X),
                "missing X record at ({x},4)"
            );
        }
    }

    #[test]
    fn boundary_detours_and_merges() {
        // M2 at (3,8); M1 at (2,1) sits under M2's descending line x=2:
        // the Y boundary of M2 must detour and absorb M1's forbidden
        // region.
        let (_, b) = build(&[c2(3, 8), c2(2, 1)], 12, 12);
        // Below/left of M1, the record rooted at M2 must carry M1 merged.
        let recs = b.records(c2(1, 0));
        let merged = recs.iter().find(|r| {
            r.axis == BoundaryAxis::Y && r.root.comp_id == c2(3, 8) && r.merged.len() == 2
        });
        assert!(
            merged.is_some(),
            "expected merged record at (1,0): {recs:?}"
        );
    }

    #[test]
    fn records_gate_on_critical_destination() {
        let (_, b) = build(&[c2(5, 5)], 10, 10);
        let recs = b.records(c2(4, 2));
        let rec = recs.iter().find(|r| r.axis == BoundaryAxis::Y).unwrap();
        // Destination above the region in its column: entering (5,2) from
        // the boundary is forbidden.
        assert!(rec.excludes(c2(5, 2), c2(5, 9)));
        // Destination elsewhere: allowed.
        assert!(!rec.excludes(c2(5, 2), c2(9, 0)));
    }

    #[test]
    fn total_records_scale_with_regions() {
        let (_, one) = build(&[c2(5, 5)], 12, 12);
        let (_, two) = build(&[c2(5, 5), c2(9, 9)], 12, 12);
        assert!(two.total_records() > one.total_records());
    }
}
