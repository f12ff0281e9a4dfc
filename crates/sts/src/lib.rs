//! Minimal causal sequences over SDN event histories — the STS technique
//! the paper plans to adopt for failures that span multiple transactions
//! (§5: "we plan on extending LegoSDN to read a history of snapshots [...]
//! and use techniques like STS to detect the exact set of events that
//! induced the crash. STS allows us to determine which checkpoint to roll
//! back the application to.")
//!
//! The core is `ddmin` (Zeller's delta debugging) over an event history:
//! given a crash reproduced by replaying `H` against a fixed starting
//! state, find a 1-minimal subsequence that still reproduces it. The
//! [`oracle::AppReplayOracle`] replays candidate subsequences into fresh
//! app instances with panic containment.

#![forbid(unsafe_code)]

pub mod ddmin;
pub mod oracle;

pub use ddmin::{ddmin, MinimizeError, MinimizeReport};
pub use oracle::{AppReplayOracle, ReplayOracle};
