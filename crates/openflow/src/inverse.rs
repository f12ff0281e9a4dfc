//! Message inversion — NetLog's key insight (paper §3.2).
//!
//! > "each control message that modifies network state is invertible: for
//! > every state altering control message, A, there exists another control
//! > message, B, that undoes A's state change."
//!
//! Inversion needs the *pre-state* the message displaced (the flow entries a
//! delete removed, the entry an add overwrote, a port's prior admin state).
//! NetLog captures that pre-state at apply time and calls into this module,
//! which is purely functional: pre-state in, undo messages appended to
//! the caller's log.
//!
//! Undo is imperfect for counters and elapsed timeouts — the paper's
//! counter-cache handles those; see `legosdn-netlog`.

use crate::messages::{FlowEntrySnapshot, FlowMod, FlowModCommand, Message, PortMod};
use legosdn_codec::Codec;

/// Pre-state captured before applying a state-altering message.
#[derive(Clone, Debug, PartialEq, Eq, Codec)]
pub enum PreState {
    /// For `FlowMod::Add` / `Modify*`: the entries the message displaced or
    /// rewrote (empty if it created fresh state).
    DisplacedFlows(Vec<FlowEntrySnapshot>),
    /// For `FlowMod::Delete*`: the entries the message removed.
    DeletedFlows(Vec<FlowEntrySnapshot>),
    /// For `PortMod`: whether the port was administratively down before.
    PortWasDown(bool),
}

/// Rebuild the `FlowMod` that reinstalls a snapshotted entry.
///
/// The remaining hard timeout (not the original) is used so the restored
/// entry expires when the original would have — the paper's "adds it with
/// the appropriate time-out information".
#[must_use]
pub fn restore_flow(snapshot: &FlowEntrySnapshot) -> FlowMod {
    let hard = match snapshot.remaining_hard {
        Some(rem) => rem.min(u32::from(u16::MAX)) as u16,
        None => 0,
    };
    let mut fm = FlowMod::add(snapshot.mat.clone())
        .priority(snapshot.priority)
        .cookie(snapshot.cookie)
        .idle_timeout(snapshot.idle_timeout)
        .hard_timeout(hard)
        .actions(snapshot.actions.clone());
    fm.send_flow_removed = snapshot.send_flow_removed;
    fm
}

/// Append to `undo` the messages that undo `msg`, given the pre-state it
/// displaced, in the order they must apply. A message that changed no
/// durable network state — a packet-out, a read, a barrier, a port-mod
/// that left the port as it was — appends nothing: already-emitted
/// packets are unrecoverable, which the paper accepts ("undoing a state
/// change is imperfect").
///
/// `pre_state` must correspond to the message (`DisplacedFlows` for
/// add/modify, `DeletedFlows` for delete, `PortWasDown` for port-mod);
/// mismatches fall back to the conservative interpretation of "nothing
/// displaced".
pub fn inverse_into(msg: &Message, pre_state: &PreState, undo: &mut Vec<Message>) {
    match msg {
        Message::FlowMod(fm) => flowmod_inverse_into(fm, pre_state, undo),
        Message::PortMod(pm) => {
            let was_down = match pre_state {
                PreState::PortWasDown(d) => *d,
                _ => !pm.down,
            };
            // Otherwise no state changed, and there is nothing to undo.
            if was_down != pm.down {
                undo.push(Message::PortMod(PortMod {
                    port_no: pm.port_no,
                    hw_addr: pm.hw_addr,
                    down: was_down,
                }));
            }
        }
        // Packet-outs, stats, barriers, echoes: no durable network state.
        _ => {}
    }
}

fn flowmod_inverse_into(fm: &FlowMod, pre_state: &PreState, undo: &mut Vec<Message>) {
    let flows = match (fm.command, pre_state) {
        (
            FlowModCommand::Add | FlowModCommand::Modify | FlowModCommand::ModifyStrict,
            PreState::DisplacedFlows(v),
        )
        | (FlowModCommand::Delete | FlowModCommand::DeleteStrict, PreState::DeletedFlows(v)) => {
            v.as_slice()
        }
        _ => &[],
    };
    let removes_itself = match fm.command {
        // An add that overwrote an identical match+priority entry is
        // undone by restoring that entry, which replaces the new one.
        FlowModCommand::Add => !flows
            .iter()
            .any(|s| s.mat == fm.mat && s.priority == fm.priority),
        // Re-adding each pre-state entry restores its action list (OF 1.0
        // add replaces an identical match+priority entry); a modify that
        // matched nothing behaved like an add.
        FlowModCommand::Modify | FlowModCommand::ModifyStrict => flows.is_empty(),
        FlowModCommand::Delete | FlowModCommand::DeleteStrict => false,
    };
    if removes_itself {
        undo.push(Message::FlowMod(FlowMod::delete_strict(
            fm.mat.clone(),
            fm.priority,
        )));
    }
    undo.extend(flows.iter().map(|s| Message::FlowMod(restore_flow(s))));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::Action;
    use crate::matching::Match;
    use crate::messages::{PacketOut, StatsRequest};
    use crate::types::{BufferId, Ipv4Addr, MacAddr, PortNo};

    /// The undo messages of `msg` on their own.
    fn inverse(msg: &Message, pre_state: &PreState) -> Vec<Message> {
        let mut undo = Vec::new();
        inverse_into(msg, pre_state, &mut undo);
        undo
    }

    fn snap(priority: u16) -> FlowEntrySnapshot {
        FlowEntrySnapshot {
            mat: Match::eth_dst(MacAddr::from_index(1)),
            priority,
            cookie: 7,
            idle_timeout: 10,
            hard_timeout: 60,
            remaining_hard: Some(42),
            duration_sec: 18,
            packet_count: 100,
            byte_count: 6400,
            send_flow_removed: true,
            actions: vec![Action::Output(PortNo::Phys(2))],
        }
    }

    #[test]
    fn add_with_nothing_displaced_inverts_to_delete_strict() {
        let fm = FlowMod::add(Match::any()).priority(5);
        let msgs = inverse(
            &Message::FlowMod(fm.clone()),
            &PreState::DisplacedFlows(vec![]),
        );
        assert_eq!(msgs.len(), 1);
        match &msgs[0] {
            Message::FlowMod(d) => {
                assert_eq!(d.command, FlowModCommand::DeleteStrict);
                assert_eq!(d.mat, fm.mat);
                assert_eq!(d.priority, 5);
            }
            other => panic!("expected flow-mod, got {other:?}"),
        }
    }

    #[test]
    fn add_overwriting_identical_entry_inverts_to_restore_only() {
        let s = snap(5);
        let fm = FlowMod::add(s.mat.clone())
            .priority(5)
            .action(Action::Output(PortNo::Phys(9)));
        let msgs = inverse(
            &Message::FlowMod(fm),
            &PreState::DisplacedFlows(vec![s.clone()]),
        );
        assert_eq!(msgs.len(), 1);
        match &msgs[0] {
            Message::FlowMod(r) => {
                assert_eq!(r.command, FlowModCommand::Add);
                assert_eq!(r.actions, s.actions);
                // remaining hard timeout, not the original, is restored
                assert_eq!(r.hard_timeout, 42);
            }
            other => panic!("expected flow-mod, got {other:?}"),
        }
    }

    #[test]
    fn delete_inverts_to_adds_for_every_deleted_entry() {
        let fm = FlowMod::delete(Match::any());
        let deleted = vec![snap(1), snap(2), snap(3)];
        let msgs = inverse(
            &Message::FlowMod(fm),
            &PreState::DeletedFlows(deleted.clone()),
        );
        assert_eq!(msgs.len(), 3);
        for (m, s) in msgs.iter().zip(&deleted) {
            match m {
                Message::FlowMod(r) => {
                    assert_eq!(r.command, FlowModCommand::Add);
                    assert_eq!(r.priority, s.priority);
                    assert!(r.send_flow_removed);
                }
                other => panic!("expected flow-mod, got {other:?}"),
            }
        }
    }

    #[test]
    fn delete_of_nothing_inverts_to_nothing() {
        let fm = FlowMod::delete(Match::any());
        assert!(inverse(&Message::FlowMod(fm), &PreState::DeletedFlows(vec![])).is_empty());
    }

    #[test]
    fn modify_restores_prior_actions() {
        let s = snap(5);
        let mut fm = FlowMod::add(s.mat.clone()).priority(5);
        fm.command = FlowModCommand::ModifyStrict;
        let msgs = inverse(
            &Message::FlowMod(fm),
            &PreState::DisplacedFlows(vec![s.clone()]),
        );
        assert_eq!(msgs.len(), 1);
        match &msgs[0] {
            Message::FlowMod(r) => assert_eq!(r.actions, s.actions),
            other => panic!("expected flow-mod, got {other:?}"),
        }
    }

    #[test]
    fn modify_matching_nothing_inverts_to_delete() {
        let mut fm = FlowMod::add(Match::any()).priority(3);
        fm.command = FlowModCommand::Modify;
        let msgs = inverse(&Message::FlowMod(fm), &PreState::DisplacedFlows(vec![]));
        assert_eq!(msgs.len(), 1);
        assert!(
            matches!(&msgs[0], Message::FlowMod(d) if d.command == FlowModCommand::DeleteStrict)
        );
    }

    #[test]
    fn portmod_inverts_to_opposite_state() {
        let pm = PortMod {
            port_no: PortNo::Phys(1),
            hw_addr: MacAddr::from_index(1),
            down: true,
        };
        let msgs = inverse(&Message::PortMod(pm.clone()), &PreState::PortWasDown(false));
        assert_eq!(msgs.len(), 1);
        assert!(matches!(&msgs[0], Message::PortMod(p) if !p.down));
    }

    #[test]
    fn portmod_noop_inverts_to_nothing() {
        let pm = PortMod {
            port_no: PortNo::Phys(1),
            hw_addr: MacAddr::from_index(1),
            down: true,
        };
        assert!(inverse(&Message::PortMod(pm), &PreState::PortWasDown(true)).is_empty());
    }

    #[test]
    fn packet_out_is_ephemeral() {
        let po = Message::PacketOut(PacketOut {
            buffer_id: BufferId::NONE,
            in_port: PortNo::None,
            actions: vec![Action::Output(PortNo::Flood)],
            packet: None,
        });
        assert!(inverse(&po, &PreState::DisplacedFlows(vec![])).is_empty());
    }

    #[test]
    fn reads_are_ephemeral() {
        let sr = Message::StatsRequest(StatsRequest::Table);
        assert!(inverse(&sr, &PreState::DeletedFlows(vec![])).is_empty());
        assert!(inverse(&Message::BarrierRequest, &PreState::DeletedFlows(vec![])).is_empty());
    }

    #[test]
    fn an_inverse_appends_after_what_the_log_holds() {
        let held = Message::FlowMod(FlowMod::delete(Match::any()));
        let mut undo = vec![held.clone()];
        let fm = FlowMod::add(Match::any()).priority(5);
        inverse_into(
            &Message::FlowMod(fm),
            &PreState::DisplacedFlows(vec![]),
            &mut undo,
        );
        inverse_into(&Message::Hello, &PreState::PortWasDown(false), &mut undo);
        assert_eq!(undo.len(), 2);
        assert_eq!(undo[0], held);
        assert!(
            matches!(&undo[1], Message::FlowMod(d) if d.command == FlowModCommand::DeleteStrict)
        );
    }

    #[test]
    fn restore_flow_clamps_large_remaining_timeout() {
        let mut s = snap(1);
        s.remaining_hard = Some(1_000_000);
        let fm = restore_flow(&s);
        assert_eq!(fm.hard_timeout, u16::MAX);
        s.remaining_hard = None;
        assert_eq!(restore_flow(&s).hard_timeout, 0);
        let _ = Ipv4Addr::new(0, 0, 0, 0);
    }
}
