//! # mesh-service — the crash-safe resident mesh service
//!
//! A long-lived service owning many mesh instances, sharded by mesh id.
//! Each shard is a state machine behind its own lock, driven on the
//! caller's thread, serving route / query-region / churn / snapshot /
//! stats requests against its own
//! [`fault_model::IncrementalModels2`]/[`fault_model::IncrementalModels3`]
//! cache, with three robustness layers the rest of the workspace only
//! simulates:
//!
//! * **durability** ([`wal`], [`snapshot`]) — every state-mutating op is
//!   appended to a per-shard write-ahead log (length-prefixed, checksummed
//!   records) *before* it is applied; periodic snapshots (the serialized
//!   fault `NodeSet` plus a generation counter) truncate the log; recovery
//!   loads the snapshot, folds the committed WAL suffix into its fault set
//!   (building the models once, at the end) and discards the
//!   torn tail at the first bad checksum,
//! * **fault injection** ([`crash`]) — every append/snapshot/truncate
//!   boundary passes through a [`crash::CrashPoint`] hook, so the test
//!   battery can kill a shard at *every* such site (plus every byte-level
//!   torn-tail truncation) and pin recovered state bit-for-bit against an
//!   uninterrupted reference run,
//! * **overload shedding** ([`admission`]) — each shard fronts a bounded
//!   deterministic virtual-time queue; saturation yields typed
//!   [`ServiceError::Overloaded`]/[`ServiceError::Deadline`] errors and a
//!   retry-with-backoff helper instead of collapse.
//!
//! # Example
//!
//! ```
//! use mesh_service::prelude::*;
//! use mesh_topo::coord::c2;
//!
//! let root = TempDir::new("doc");
//! let spec = ShardSpec::new(
//!     Geometry::M2 { width: 8, height: 8, wrap: false },
//!     4, // snapshot every 4 churn ops
//! );
//! let svc = MeshService::start(ServiceConfig::new(root.path()), &[spec]).unwrap();
//!
//! // Inject two faults, then route around them.
//! let r = svc.call(
//!     0,
//!     Request::Churn2 { injected: vec![c2(3, 4), c2(4, 3)], healed: vec![] },
//!     0,
//! );
//! assert_eq!(r, Ok(Response::Churn { gen: 1 }));
//! let r = svc.call(0, Request::Route2 { s: c2(0, 0), d: c2(7, 7), seed: 7 }, 0).unwrap();
//! assert_eq!(r, Response::Route { delivered: true, hops: 14 });
//!
//! // Malformed churn is rejected; the shard stays up.
//! let bad = svc.call(
//!     0,
//!     Request::Churn2 { injected: vec![c2(3, 4)], healed: vec![] },
//!     0,
//! );
//! assert!(matches!(bad, Err(ServiceError::Rejected { .. })));
//! assert!(svc.call(0, Request::Stats, 0).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod crash;
pub mod error;
pub mod ops;
pub mod service;
pub mod shard;
pub mod snapshot;
pub mod testutil;
pub mod wal;
pub mod wire;

pub use admission::{Admission, AdmissionConfig, OpClass};
pub use crash::{CrashPoint, CrashSite};
pub use error::ServiceError;
pub use ops::ChurnRecord;
pub use service::{MeshService, ServiceConfig};
pub use shard::{Geometry, Request, Response, ShardCore, ShardSpec, ShardStats, StateDigest};
pub use wal::SyncPolicy;

/// Everything a service caller typically needs.
pub mod prelude {
    pub use crate::admission::AdmissionConfig;
    pub use crate::crash::CrashPoint;
    pub use crate::error::ServiceError;
    pub use crate::service::{MeshService, ServiceConfig};
    pub use crate::shard::{Geometry, Request, Response, ShardSpec};
    pub use crate::testutil::TempDir;
    pub use crate::wal::SyncPolicy;
}
