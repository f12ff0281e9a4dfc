//! Event-driven SDN controller platform.
//!
//! This crate is the stand-in for FloodLight's core (DESIGN.md §2): the app
//! interface ([`app::SdnApp`]) and its fault wall ([`sandbox`]), the
//! controller services apps consult ([`services`]), the translation pipeline
//! from raw network events to app-level [`event::Event`]s including switch
//! handshake and LLDP link discovery ([`translate`]), and the **monolithic
//! baseline runtime** ([`monolithic`]) whose fate-sharing failure mode the
//! paper opens with: one app panic kills the controller and every other app.
//!
//! The LegoSDN runtime (crate `legosdn`) reuses everything here except the
//! monolithic dispatcher, replacing it with AppVisor isolation, NetLog
//! transactions, and Crash-Pad recovery.

pub mod app;
pub mod event;
pub mod monolithic;
pub mod sandbox;
pub mod services;
pub mod snapshot;
pub mod translate;

pub use app::{Command, Ctx, RestoreError, SdnApp};
pub use event::{Event, EventKind};
pub use monolithic::{ControllerStats, CrashInfo, CycleReport, MonolithicController};
pub use sandbox::{Fault, Sandbox};
pub use services::{Device, DeviceDelta, DeviceView, LinkKey, TopologyDelta, TopologyView};
pub use translate::EventTranslator;
