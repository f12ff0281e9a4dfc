//! The SDN application interface.
//!
//! Applications are event-driven: they subscribe to [`EventKind`]s, receive
//! [`Event`]s with a context exposing the controller's services, and emit
//! [`Command`]s (OpenFlow messages toward switches).
//!
//! For LegoSDN, two aspects of the trait are load-bearing:
//!
//! - `snapshot`/`restore` give Crash-Pad its checkpoint primitive — the
//!   stand-in for CRIU in the paper's prototype (DESIGN.md §2). Apps
//!   serialize their *entire* state; restoring the bytes must reproduce the
//!   exact pre-event state.
//! - Any method may panic. A panic is the fail-stop crash the whole system
//!   is designed around; who it kills depends on the runtime (the
//!   monolithic baseline dies with the app, LegoSDN calls apps only through
//!   a [`crate::sandbox::Sandbox`], which contains it).

use crate::event::{Event, EventKind};
use crate::services::{DeviceView, TopologyView};
use legosdn_codec::Codec;
use legosdn_netsim::SimTime;
use legosdn_openflow::prelude::{DatapathId, Message};
use std::fmt;

/// A command an app asks the controller to execute.
#[derive(Clone, Debug, PartialEq, Codec)]
pub struct Command {
    pub dpid: DatapathId,
    pub msg: Message,
}

/// Error restoring an app snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RestoreError(pub String);

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot restore failed: {}", self.0)
    }
}

impl std::error::Error for RestoreError {}

/// The context handed to an app for one event: read access to controller
/// services, write access to a command buffer.
///
/// The context is plain serializable data plus a buffer, so it can be
/// reconstructed on the far side of the AppVisor RPC for isolated apps.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// Virtual time at dispatch.
    pub now: SimTime,
    /// The controller's view of switches and links.
    pub topology: &'a TopologyView,
    /// The controller's view of end hosts.
    pub devices: &'a DeviceView,
    commands: Vec<Command>,
}

impl<'a> Ctx<'a> {
    /// Build a context for one dispatch.
    #[must_use]
    pub fn new(now: SimTime, topology: &'a TopologyView, devices: &'a DeviceView) -> Self {
        Ctx {
            now,
            topology,
            devices,
            commands: Vec::new(),
        }
    }

    /// Queue an OpenFlow message toward a switch.
    pub fn send(&mut self, dpid: DatapathId, msg: Message) {
        self.commands.push(Command { dpid, msg });
    }

    /// Commands queued so far.
    #[must_use]
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// Consume the context, yielding the queued commands.
    #[must_use]
    pub fn into_commands(self) -> Vec<Command> {
        self.commands
    }
}

/// An SDN application.
pub trait SdnApp: Send {
    /// Unique application name (used for registration, policies, tickets).
    fn name(&self) -> &str;

    /// Event kinds this app wants delivered.
    fn subscriptions(&self) -> Vec<EventKind>;

    /// Handle one event. May send commands through `ctx`. May panic — a
    /// panic models a fail-stop application bug.
    fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>);

    /// Serialize the app's complete state.
    fn snapshot(&self) -> Vec<u8>;

    /// Restore state from a previous [`SdnApp::snapshot`].
    fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use legosdn_openflow::prelude::{FlowMod, Match};

    struct Probe {
        seen: u32,
    }

    impl SdnApp for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn subscriptions(&self) -> Vec<EventKind> {
            vec![EventKind::PacketIn, EventKind::SwitchUp]
        }
        fn on_event(&mut self, _event: &Event, ctx: &mut Ctx<'_>) {
            self.seen += 1;
            ctx.send(DatapathId(1), Message::FlowMod(FlowMod::add(Match::any())));
        }
        fn snapshot(&self) -> Vec<u8> {
            self.seen.to_be_bytes().to_vec()
        }
        fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
            let arr: [u8; 4] = bytes
                .try_into()
                .map_err(|_| RestoreError("bad length".into()))?;
            self.seen = u32::from_be_bytes(arr);
            Ok(())
        }
    }

    #[test]
    fn ctx_buffers_commands() {
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        let mut app = Probe { seen: 0 };
        app.on_event(&Event::SwitchUp(DatapathId(1)), &mut ctx);
        assert_eq!(ctx.commands().len(), 1);
        let cmds = ctx.into_commands();
        assert_eq!(cmds[0].dpid, DatapathId(1));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut app = Probe { seen: 42 };
        let snap = app.snapshot();
        app.seen = 0;
        app.restore(&snap).unwrap();
        assert_eq!(app.seen, 42);
        assert!(app.restore(&[1, 2]).is_err());
    }
}
