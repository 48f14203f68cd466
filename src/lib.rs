//! # mcc-mesh — facade crate
//!
//! Re-exports the whole workspace: the MCC fault-information model and
//! fault-tolerant adaptive minimal routing for 2-D and 3-D meshes
//! (reproduction of Jiang, Wu & Wang, ICPP 2005), together with the
//! substrates it is built on.
//!
//! Start with the [`mesh_topo`] substrate to build a mesh and inject faults,
//! use [`fault_model`] to compute MCC fault regions and existence conditions,
//! and [`mcc_routing`] to actually route. [`mcc_protocols`] contains the
//! distributed (message-passing) implementations running on [`sim_net`].
//!
//! # Examples
//!
//! The shortest possible end-to-end run — inject faults, label, route:
//!
//! ```
//! use mcc_mesh::fault_model::{BorderPolicy, FaultRegime};
//! use mcc_mesh::mcc_routing::run_trial_2d;
//! use mcc_mesh::mesh_topo::coord::c2;
//! use mcc_mesh::mesh_topo::Mesh2D;
//!
//! let mut mesh = Mesh2D::new(12, 12);
//! let protected = [c2(0, 0), c2(11, 11)];
//! FaultRegime::Uniform.inject(&mut mesh, 10, 3, &protected, BorderPolicy::BorderSafe);
//! let trial = run_trial_2d(&mesh, c2(0, 0), c2(11, 11), 3);
//! assert_eq!(trial.mcc_ok, trial.oracle_ok); // the MCC condition is exact
//! ```

#![forbid(unsafe_code)]

pub use fault_model;
pub use mcc_protocols;
pub use mcc_routing;
pub use mesh_service;
pub use mesh_topo;
pub use sim_net;

/// The workspace README, compiled as documentation so its Rust code blocks
/// run under `cargo test --doc` — README examples cannot silently drift
/// from the API.
#[doc = include_str!("../README.md")]
mod readme_doctests {}
