//! # mesh-topo — k-ary 2-D / 3-D mesh topology substrate
//!
//! This crate provides the network-topology substrate used by the MCC
//! fault-information-model reproduction (Jiang, Wu, Wang; ICPP 2005):
//!
//! * [`coord`] — integer lattice coordinates [`C2`] / [`C3`] with Manhattan
//!   distance and dominance orders,
//! * [`dir`] — axes and signed unit directions ([`Dir2`], [`Dir3`]),
//! * [`grid`] — dense row-major storage ([`Grid2`], [`Grid3`]) indexed by
//!   coordinates,
//! * [`mesh`] — the mesh networks themselves (one [`Mesh`] over the node
//!   space, named [`Mesh2D`] / [`Mesh3D`]): bounds, neighborhoods and fault
//!   sets,
//! * [`region`] — axis-aligned rectangles and boxes,
//! * [`frame`] — quadrant/octant reflection frames that canonicalize a
//!   source/destination pair so the destination dominates the source,
//! * [`faults`] — seeded random fault samplers (uniform and clustered),
//! * [`nodeset`] — the flat node-state layer: linearized index spaces
//!   ([`NodeSpace2`], [`NodeSpace3`]), the packed [`NodeSet`] bitset and the
//!   dense [`NodeGrid`] value array that every hot mesh kernel runs on,
//! * [`space`] — the [`Space`] trait that lets the mesh, and the fault
//!   model's injection, closure, repair, component and cache layers, be
//!   written once for both dimensions,
//! * [`path`] — routing paths and minimality/validity checks.
//!
//! In the paper's vocabulary this crate is the *network model* of Section 2:
//! the k-ary n-dimensional mesh, its node addresses and neighborhoods, and
//! the faulty-node sets the labelling process of Sections 3–4 classifies.
//!
//! Everything here is deterministic and allocation-conscious: grids are flat
//! `Vec`s, fault sets are packed bitsets, neighbor iteration never
//! allocates, and all random workloads are reproducible from a `u64` seed.
//!
//! # Examples
//!
//! Build a mesh, inject faults, and inspect the fault set both
//! coordinate-wise and through the flat [`NodeSet`] layer (seeded fault
//! regimes live in `fault_model::FaultRegime`):
//!
//! ```
//! use mesh_topo::coord::c2;
//! use mesh_topo::Mesh2D;
//!
//! let mut mesh = Mesh2D::new(16, 16);
//! for c in [c2(3, 4), c2(3, 5), c2(9, 1)] {
//!     assert!(mesh.inject_fault(c));
//! }
//! assert!(!mesh.inject_fault(c2(3, 4))); // already faulty
//! assert!(mesh.is_healthy(c2(0, 0)));
//!
//! // The coordinate API and the bitset agree.
//! let faults = mesh.fault_set();
//! assert_eq!(faults.len(), mesh.fault_count());
//! for &f in mesh.faults() {
//!     assert!(faults.contains(mesh.space().index(f)));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coord;
pub mod dir;
pub mod faults;
pub mod frame;
pub mod grid;
pub mod mesh;
pub mod nodeset;
pub mod par;
pub mod path;
pub mod region;
pub mod space;

pub use coord::{C2, C3};
pub use dir::{Axis2, Axis3, Dir2, Dir3};
pub use frame::{Frame2, Frame3};
pub use grid::{Grid2, Grid3};
pub use mesh::{Mesh, Mesh2D, Mesh3D};
pub use nodeset::{NodeGrid, NodeSet, NodeSpace2, NodeSpace3};
pub use par::{detected_cores, Parallelism};
pub use path::{Path2, Path3};
pub use region::{Box3, Rect};
pub use space::Space;
