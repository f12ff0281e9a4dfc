//! Crash-Pad — the fault-tolerance layer built on AppVisor's isolation and
//! NetLog's atomic updates (paper §3.3).
//!
//! "Crash-Pad takes a snapshot of the state of the SDN-App prior to its
//! processing of an event and should a failure occur, it can easily revert
//! to this snapshot. Replay of the offending event, however, will most
//! likely cause the SDN-App to fail. Therefore, Crash-Pad either ignores or
//! transforms the event [...] prior to the replay."
//!
//! - [`checkpoint`]: per-event and every-N checkpointing with suffix replay
//!   (the §5 overhead optimisation) and checkpoint history (§5 STS).
//! - [`policy`]: the operator policy language — Absolute / No /
//!   Equivalence compromise, per app, per event kind.
//! - [`mod@transform`]: equivalence rewrites (switch-down ⇄ link-downs, …).
//! - [`ticket`]: problem tickets for developer triage.
//! - [`engine`]: the dispatch/recovery engine over any [`RecoverableApp`].

pub mod checkpoint;
pub mod diagnose;
pub mod engine;
pub mod policy;
pub mod ticket;
pub mod transform;

pub use checkpoint::{Checkpoint, CheckpointPolicy, CheckpointStore, RecoveryPlan};
pub use diagnose::{DiagnoseError, Diagnosis};
pub use engine::{
    CrashPad, CrashPadConfig, CrashPadStats, DeliveryResult, DispatchResult, LocalSandbox,
    RecoverableApp,
};
pub use policy::{CompromisePolicy, PolicyParseError, PolicyTable};
pub use ticket::{FailureKind, ProblemTicket, RecoveryTaken, TicketStore};
pub use transform::{transform, TransformDirection};
