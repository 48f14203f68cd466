//! # mcc-protocols — distributed construction of the MCC model
//!
//! Message-passing implementations (on [`sim_net`]) of the paper's
//! distributed processes, in which every node knows initially only its own
//! fault status and, after one exchange, its neighbors':
//!
//! * [`labelling`] — the labelling closure by neighbor status exchange
//!   (Algorithms 1 and 4 run as a protocol; convergence rounds and message
//!   counts are experiment E7),
//! * [`compid`] — component identification: every unsafe node learns its
//!   MCC's id (the minimum member coordinate) by 2-hop gossip over the
//!   8/18-adjacency,
//! * [`ident2`] — the 2-D identification process: wall-following
//!   identification messages launched at initialization corners walk the
//!   edge nodes of each MCC and reconstruct its shape (Algorithm 2 steps
//!   1–2),
//! * [`boundary2`] — X/Y boundary construction: boundary messages descend
//!   from each initialization corner, detour around foreign MCCs, merge
//!   forbidden regions and deposit [`records::BoundaryRecord2`]s
//!   (Algorithm 2 step 3),
//! * [`route2`] — the two-phase routing of Algorithm 3 as a message
//!   protocol: detection messages with reply paths, then data forwarding
//!   where every hop decides from its *locally stored* records only,
//! * [`detect3`] / [`route3`] — the 3-D detection floods of Algorithm 6 and
//!   routing whose per-hop decision re-runs neighbor detection (see
//!   DESIGN.md for the record-machinery substitution),
//! * [`records`] — the boundary-record data nodes store.
//!
//! Every protocol is validated against the semantic layer of
//! [`fault_model`] / [`mcc_routing`]: same labels, same shapes, same
//! decisions, same delivered minimal paths.
//!
//! Module ↔ paper map: [`labelling`] runs Algorithms 1/4 distributively
//! (Sections 3–4); [`compid`], [`ident2`] and [`boundary2`] are the three
//! stages of Algorithm 2's identification and boundary construction
//! (Section 3); [`route2`] is Algorithm 3 and [`detect3`]/[`route3`]
//! Algorithm 6 as message protocols (Sections 3 and 5); the message/round
//! counts feed the overhead tables of Section 6.
//!
//! # Examples
//!
//! Run the distributed labelling protocol and check it converges to the
//! same fixpoint as the semantic closure:
//!
//! ```
//! use fault_model::{BorderPolicy, Labelling2};
//! use mcc_protocols::DistLabelling2;
//! use mesh_topo::coord::c2;
//! use mesh_topo::{Frame2, Mesh2D};
//!
//! let mut mesh = Mesh2D::new(8, 8);
//! mesh.inject_fault(c2(3, 4));
//! mesh.inject_fault(c2(4, 3));
//!
//! let frame = Frame2::identity(&mesh);
//! let dist = DistLabelling2::run(&mesh, frame);
//! assert!(dist.status(c2(3, 3)).is_useless());
//!
//! let semantic = Labelling2::compute(&mesh, frame, BorderPolicy::BorderSafe);
//! assert!(dist.matches(&semantic));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boundary2;
pub mod compid;
pub mod detect3;
pub mod ident2;
pub mod labelling;
pub mod records;
pub mod route2;
pub mod route3;

pub use labelling::{DistLabelling2, DistLabelling3};
