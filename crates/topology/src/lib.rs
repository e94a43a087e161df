//! k-ary n-cube topology substrate.
//!
//! This crate provides the network geometry shared by the analytical model
//! (`kncube-core`) and the flit-level simulator (`kncube-sim`):
//!
//! * [`KAryNCube`] — the torus geometry: `N = k^n` nodes arranged in `n`
//!   dimensions with `k` nodes per dimension, connected by unidirectional or
//!   bidirectional links (the paper analyses the unidirectional case);
//! * [`NodeId`] / coordinate conversion in mixed radix `k`;
//! * [`Channel`] / [`ChannelId`] — identification of the physical network
//!   channels (one outgoing channel per node per dimension and direction);
//! * dimension-order ("XY") deterministic routing ([`routing`]), including
//!   the Dally–Seitz virtual-channel *dating* classes that make wormhole
//!   routing deadlock-free on rings with wrap-around links;
//! * the hot-spot geometry of §3 of the paper ([`hotspot`]): distances of
//!   channels and rings from the hot-spot node / hot `y`-ring, and the
//!   traffic fractions `P_hx,j`, `P_hy,j` of Eqs. (4)–(5).
//!
//! Everything here is exact, deterministic combinatorics; the probabilistic
//! machinery lives in `kncube-traffic` and `kncube-queueing`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod faults;
pub mod geometry;
pub mod hotspot;
pub mod ring;
pub mod routing;

pub use channel::{Channel, ChannelId, Direction};
pub use faults::{FaultRouter, FaultSet, TreeEdge, FAULT_ROUTER_BYTES_PER_PAIR};
pub use geometry::{Boundary, KAryNCube, LinkKind, NodeId, TopologyError};
pub use hotspot::HotSpotGeometry;
pub use ring::Ring;
pub use routing::{DorRoute, Hop, VcClass, MAX_VIRTUAL_CHANNELS};
