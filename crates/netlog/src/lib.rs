//! NetLog — the network transaction layer (paper §3.2).
//!
//! Bundles the control messages an app emits while processing one event
//! into an atomic, all-or-nothing network transaction. Built on the
//! insight that every state-altering OpenFlow message is invertible given
//! the pre-state it displaced (`legosdn_openflow::inverse`); the engine
//! records inverses as it applies commands and replays them in reverse on
//! abort.
//!
//! An engine built with a `Checker` also guards its commits: a
//! transaction that leaves the network violating an invariant is rolled
//! back at commit and reported as `TxError::Blocked` (§3.3).
//!
//! The lossy parts of inversion — flow counters and elapsed timeouts — are
//! handled per the paper: restored entries carry their *remaining* hard
//! timeout, and a [`counter_cache::CounterCache`] rewrites statistics
//! replies so restored flows report continuous counters.

#![forbid(unsafe_code)]

pub mod barrier;
pub mod counter_cache;
pub mod engine;

pub use barrier::*;
pub use counter_cache::CounterCache;
pub use engine::{
    CommitReport, NetLog, NetLogStats, RollbackReport, Transaction, TxError, TxId, TxMode,
    TxRecord, TxState,
};
