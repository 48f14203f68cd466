//! # fault-model — the MCC fault information model (2-D and 3-D)
//!
//! This crate implements the *semantic layer* of the reproduction of
//! Jiang, Wu & Wang, "A New Fault Information Model for Fault-Tolerant
//! Adaptive and Minimal Routing in 3-D Meshes" (ICPP 2005):
//!
//! * [`status`] — node status lattice (safe / faulty / useless / can't-reach)
//!   and the mesh-border policy,
//! * [`labelling`] — the recursive labelling closure (Algorithm 1 and
//!   Algorithm 4 of the paper), written once over the node space,
//! * [`components`] — connected components of unsafe nodes,
//! * [`mcc2`] / [`mcc3`] — Minimal Connected Components: shape extraction,
//!   profiles, corners and sections,
//! * [`condition2`] / [`condition3`] — the sufficient & necessary conditions
//!   for existence of a minimal path (Lemma 1 / Theorem 1 / Theorem 2),
//! * [`models`] — orientation-keyed lazy caches of labellings, MCC sets and
//!   fault blocks for one fault configuration (the compute layer behind
//!   the prepared-trial path of `mcc-routing`),
//! * [`rfb`] — the rectangular / cuboid faulty-block baseline models the
//!   paper compares against, written once over the node space,
//! * [`oracle`] — exact monotone-reachability ground truth used to validate
//!   everything above,
//! * [`stats`] — fault-region statistics for the evaluation.
//!
//! Module ↔ paper map: [`status`] and [`labelling`] implement the node
//! states and Algorithm 1 of Section 3 (2-D model, [`Labelling2`]);
//! [`labelling`] is also Algorithm 4 of Section 4 ([`Labelling3`]), whose
//! Figure 5 example is pinned by this crate's tests; [`mcc2`]/[`mcc3`]
//! realize the MCC shape machinery
//! (boundaries, corners, sections) of Sections 3–4; [`condition2`] is
//! Lemma 1/Theorem 1, [`condition3`] Theorem 2; [`rfb`] is the
//! faulty-block baseline of the Section 6 evaluation.
//!
//! All labelling-level computation happens in *canonical coordinates*: the
//! source/destination pair is first reflected by a
//! [`mesh_topo::Frame2`]/[`mesh_topo::Frame3`] so that the destination
//! dominates the source and the preferred directions are the positive ones.
//!
//! Hot paths run on the flat node-state layer of [`mesh_topo::nodeset`]:
//! the labelling closures are raster sweeps over a dense status array and
//! component discovery BFSs over a packed unsafe-node bitset.
//!
//! # Examples
//!
//! Label a faulty mesh, extract its fault regions, and decide minimal-path
//! existence (the antidiagonal pair of Section 3: two faults capture two
//! healthy nodes):
//!
//! ```
//! use fault_model::mcc2::MccSet2;
//! use fault_model::{minimal_path_exists_2d, BorderPolicy, Labelling2};
//! use mesh_topo::coord::c2;
//! use mesh_topo::{Frame2, Mesh2D};
//!
//! let mut mesh = Mesh2D::new(10, 10);
//! mesh.inject_fault(c2(5, 6));
//! mesh.inject_fault(c2(6, 5));
//!
//! let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
//! assert!(lab.status(c2(5, 5)).is_useless());
//! assert!(lab.status(c2(6, 6)).is_cant_reach());
//! assert_eq!(lab.sacrificed_count(), 2);
//!
//! let mccs = MccSet2::compute(&lab);
//! assert_eq!(mccs.len(), 1); // one 8-connected fault region
//!
//! // The region blocks nothing for a wide routing...
//! assert!(minimal_path_exists_2d(&lab, &mccs, c2(0, 0), c2(9, 9)).exists());
//! // ...but pins a single-column routing through its span.
//! assert!(!minimal_path_exists_2d(&lab, &mccs, c2(6, 0), c2(6, 9)).exists());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod components;
pub mod condition2;
pub mod condition3;
pub mod incremental;
pub mod labelling;
// The unit tests of `labelling`, one module per dimension.
#[cfg(test)]
mod labelling2;
#[cfg(test)]
mod labelling3;
pub mod mcc2;
pub mod mcc3;
pub mod models;
pub mod oracle;
pub mod regime;
pub mod rfb;
// The unit tests of `rfb`, one module per dimension.
#[cfg(test)]
mod rfb2;
#[cfg(test)]
mod rfb3;
pub mod stats;
pub mod status;
#[cfg(test)]
mod testutil;

pub use components::{Components, Splice};
pub use condition2::{minimal_path_exists_2d, minimal_path_exists_2d_in, Existence2};
pub use condition3::{minimal_path_exists_3d, minimal_path_exists_3d_in, Existence3};
pub use incremental::{ChurnError, IncrementalModels, IncrementalModels2, IncrementalModels3};
pub use labelling::{Labelling, Labelling2, Labelling3};
pub use mcc2::Mcc2;
pub use mcc3::Mcc3;
pub use models::{ModelCache, ModelCache2, ModelCache3, ModelSpace};
pub use regime::{AdversarialReport, FaultRegime, Schedule};
pub use rfb::{FaultBlocks, FaultBlocks2, FaultBlocks3};
pub use status::{BorderPolicy, NodeStatus};
