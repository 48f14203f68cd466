//! # mcc-routing — fault-tolerant adaptive and minimal routing
//!
//! The routing layer of the Jiang–Wu–Wang (ICPP 2005) reproduction:
//!
//! * [`feasibility2`] / [`feasibility3`] — the *detection message* walks of
//!   Algorithm 3 step 1 and Algorithm 6 step 1: operational evaluation of
//!   Theorems 1 and 2 using only node-local status, hugging fault regions
//!   with positive-direction turns,
//! * [`policy`] — pluggable fully-adaptive selection policies (the paper
//!   lets "any fully adaptive and minimal routing process" pick among the
//!   surviving preferred directions),
//! * [`router2`] / [`router3`] — the entry points of the two-phase routing
//!   processes (Algorithms 3 and 6): feasibility check at the source, then
//!   per-hop forwarding that never enters a detour area (one private walk,
//!   shared with the baselines),
//! * [`baseline`] — comparison routers: greedy (no fault information) and
//!   rectangular/cuboid-block routing,
//! * [`trace`] — route outcomes, adaptivity and path-quality metrics,
//! * [`trial`] — single-trial experiment runners shared by the benchmark
//!   harness,
//! * [`prepared`] — the amortized trial pipeline: per-mesh model caching
//!   (orientation-keyed) plus reusable scratch buffers, so a batch of
//!   trials against one fault configuration pays for model construction
//!   once instead of once per pair,
//! * [`route_space`] — the two-phase route written once over the node
//!   space, and [`RouteSpace`], its one per-dimension step: detection.
//!
//! Module ↔ paper map: [`feasibility2`] and [`router2`] are Algorithm 3
//! (Section 3, 2-D routing); [`feasibility3`] and [`router3`] are
//! Algorithm 6 (Section 5, 3-D routing); [`baseline`] provides the
//! information-free and faulty-block routers of the Section 6 comparison;
//! [`trial`] reproduces one data point of the evaluation's success-rate
//! and path-quality tables.
//!
//! # Examples
//!
//! Run a complete trial — labelling, feasibility, MCC routing and all
//! baselines — on a small faulty mesh
//! ([`run_trial_with`]):
//!
//! ```
//! use fault_model::BorderPolicy;
//! use mcc_routing::{run_trial_2d, TrialOptions};
//! use mcc_routing::trial::run_trial_with;
//! use mesh_topo::coord::c2;
//! use mesh_topo::Mesh2D;
//!
//! let mut mesh = Mesh2D::new(12, 12);
//! mesh.inject_fault(c2(5, 6));
//! mesh.inject_fault(c2(6, 5));
//!
//! let t = run_trial_2d(&mesh, c2(0, 0), c2(11, 11), 7);
//! assert!(t.oracle_ok, "a minimal path exists among the faults");
//! assert_eq!(t.mcc_ok, t.oracle_ok, "Theorem 1 is exact");
//! assert!(t.mcc_delivered && t.mcc_hops == 22);
//!
//! // The same trial under the blocked-border ablation: the far corner
//! // is labelled unsafe, so the MCC router never starts.
//! let opts = TrialOptions { border: BorderPolicy::BorderBlocked };
//! let t = run_trial_with(&mesh, c2(0, 0), c2(11, 11), 7, &opts);
//! assert!(t.oracle_ok && !t.endpoints_safe && !t.mcc_delivered);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
mod dirbuf;
pub mod feasibility2;
pub mod feasibility3;
pub mod policy;
pub mod prepared;
pub mod route_space;
pub mod router2;
pub mod router3;
pub mod trace;
pub mod trial;
mod walk;

pub use feasibility2::{detect_2d, Detection2};
pub use feasibility3::{detect_3d, detect_3d_in, Detection3, FloodScratch3};
pub use policy::Policy;
pub use prepared::{PreparedMesh, PreparedMesh2, PreparedMesh3};
pub use route_space::{route_in, RouteSpace};
pub use router2::Router2;
pub use router3::{RouteScratch3, Router3};
pub use trace::{RouteOutcome2, RouteOutcome3, RouteSummary};
pub use trial::{run_trial_2d, run_trial_3d, run_trial_with, TrialOptions, TrialResult};
