//! # sim-net — deterministic synchronous message-passing simulator
//!
//! The distributed protocols of the MCC reproduction (labelling,
//! identification, boundary construction, detection and routing messages)
//! run on this substrate. It models exactly what the paper assumes of the
//! hardware:
//!
//! * every node runs the same handler and owns private state,
//! * messages travel one mesh link per round (neighbor-to-neighbor along
//!   one dimension),
//! * delivery is reliable and FIFO per link; rounds are globally
//!   synchronous,
//! * execution is fully deterministic: nodes step in index order and each
//!   inbox is grouped in sender order.
//!
//! The engine is **flat and index-addressed**: it runs over a mesh's own
//! [`mesh_topo::NodeSpace`], such as [`mesh_topo::NodeSpace2`], which
//! names nodes by linear index and links the nodes at distance 1 (torus
//! wrap links included). Per-round delivery reuses one double-buffered
//! message slab, and an active-node bitset skips converged nodes entirely
//! (see the [`engine`] module docs for the layout, and DESIGN.md §7 for
//! the complexity budget). The pre-refactor hash-addressed engine survives as
//! a test oracle beside `mcc-protocols`' `tests/parity.rs`.
//!
//! [`SimNet::run`] drives rounds until quiescence (no messages in flight)
//! or a round limit, returning message/round statistics — the protocol
//! overhead numbers of the evaluation (experiments E5/E7). In the paper's
//! terms this is the execution model Sections 3–5 assume for their
//! distributed labelling, identification and routing processes.
//!
//! # Examples
//!
//! A six-node line flooding a token one hop per round:
//!
//! ```
//! use mesh_topo::{NodeSpace2, C2};
//! use sim_net::SimNet;
//!
//! // A 6x1 mesh; state records the hop count at which the token arrived.
//! let mut net: SimNet<C2, usize, usize> = SimNet::new(NodeSpace2::new(6, 1), |_| 0);
//! net.post(0, 0);
//! let stats = net.run(100, |state, inbox, ctx| {
//!     for &(_, hops) in inbox {
//!         *state = hops;
//!         if ctx.me() + 1 < 6 {
//!             ctx.send(ctx.me() + 1, hops + 1); // forward one link
//!         }
//!     }
//! });
//! assert!(stats.quiescent);
//! assert_eq!(*net.state(5), 5);
//! assert_eq!(stats.messages, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod stats;
mod topology;

pub use engine::{Ctx, Inbox, SendError, SimNet};
pub use stats::RunStats;
