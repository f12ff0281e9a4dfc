//! Deterministic discrete-event SDN network simulator.
//!
//! This crate is the substitute for the paper's physical/Mininet network and
//! FloodLight's switch-facing machinery (see DESIGN.md §2). It provides:
//!
//! - [`switch::Switch`] — an OpenFlow 1.0 switch: priority/wildcard flow
//!   table with idle/hard timeouts and per-flow counters, port state and
//!   counters, packet buffers.
//! - [`network::Network`] — switches wired by links with hosts at the edge,
//!   a synchronous dataplane walker that records delivery/drop/loop traces,
//!   a virtual clock, failure injection (link and switch down), and an
//!   event queue toward the controller.
//! - [`topology::Topology`] — generators: linear, ring, star, tree,
//!   fat-tree, seeded random.
//!
//! Determinism: no wall-clock time, no unseeded randomness. The same inputs
//! yield byte-identical traces, which the recovery and replay experiments
//! rely on.

#![forbid(unsafe_code)]

pub mod clock;
pub mod flow_table;
pub mod network;
pub mod reference;
pub mod switch;
pub mod topology;

pub use clock::{SimDuration, SimTime};
pub use flow_table::{ExpiredFlow, FlowEntry, FlowModOutcome, FlowTable};
pub use network::{ApplyOutcome, DataplaneTrace, Lineage, NetError, NetEvent, Network, HOP_LIMIT};
pub use reference::LinearFlowTable;
pub use switch::{PortState, Switch, SwitchOutput};
pub use topology::{Endpoint, HostSpec, LinkSpec, Topology};
