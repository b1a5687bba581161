//! Packet-level network simulator for HHC experiments.
//!
//! A deterministic, slotted discrete-event engine ([`sim::Simulator`],
//! executing the flat core in [`flat`]):
//!
//! * **event calendar** — link transmissions land through a timing
//!   wheel keyed by landing cycle and drained in canonical
//!   `(start, link)` order, so per-cycle cost follows traffic, not
//!   topology size;
//! * **lazy link store** — per-link queue state is materialised on a
//!   link's first use, which admits HHC(4) (2^20 nodes) packet-level;
//! * **hybrid link fidelity** — an uncontended link is served
//!   analytically and promoted to full queueing on first contention;
//!   every engine variant yields byte-identical statistics;
//! * **buffers** — every directed link moves at most one packet per
//!   cycle (multi-flit packets, store-and-forward or cut-through); link
//!   queues are unbounded by default, or finite with backpressure and
//!   counted drops ([`SimConfig::queue_capacity`]);
//! * **source routing** — a [`strategy::Strategy`] picks the full path
//!   at injection (single path, one of the `m + 1` disjoint paths,
//!   fault-adaptive, fault-free construction, Valiant);
//! * **faults** — a static fault set plus timed [`FaultEvent`]s that
//!   fail or recover nodes during the run, under the fail-at-injection
//!   model: a faulty node injects nothing and is avoided at route
//!   selection, while packets already in flight are not rerouted.
//!   Unroutable packets count as drops.
//!
//! [`fault`] additionally provides the *static* (queue-free) delivery
//! analysis used by experiment F3, where only connectivity matters.
//! [`scenario`] layers declarative TOML scenarios — spec, compile, run,
//! golden-trace record/replay, delta-debug shrinking — on top of
//! [`sim::Simulator`].

#![warn(missing_docs)]

pub mod fault;
pub mod faults;
pub mod flat;
pub mod net;
pub mod packet;
pub mod scenario;
pub mod sim;
pub mod stats;
pub mod strategy;

pub use faults::{FaultAction, FaultEvent, FaultFlags};
pub use flat::{EngineConfig, Fidelity, LinkStoreMode, RouteArena, WarmRoutes};
pub use hhc_core::CacheConfig;
pub use net::{CubeNet, LinkTable, Network, RouteScratch};
pub use sim::{DeliveryRecord, SimConfig, SimError, Simulator, Switching};
pub use stats::{CycleSample, SimStats};
pub use strategy::Strategy;
