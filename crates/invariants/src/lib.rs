//! Network invariant checking — the VeriFlow-style policy checker the paper
//! assumes for byzantine-failure detection (§3.3) and "No-Compromise"
//! enforcement (§5).
//!
//! - [`mod@probe`]: non-mutating dataplane walks classifying each host pair as
//!   delivered / punted / black-holed / looping.
//! - [`checker`]: invariant sets, full-network checks, the NetLog pre-commit
//!   [`Checker::gate`], and the §5 [`checker::shutdown_network`] escape
//!   hatch.
//! - [`state`]: the per-pair cache that makes a repeated check cost only
//!   what changed since the last one ([`CheckState`]).

pub mod checker;
pub mod probe;
pub mod state;

pub use checker::{shutdown_network, CheckReport, Checker, Invariant, Violation};
pub use probe::{probe, ProbeOutcome, PROBE_HOP_LIMIT};
pub use state::CheckState;
