//! A spanning-tree app: computes a spanning tree over the controller's
//! topology view and installs flood rules that only use tree ports, making
//! broadcast traffic loop-free on cyclic topologies (the problem the
//! invariant checker's `NoLoops` guards against).
//!
//! This is the kind of stateful, topology-sensitive app whose naive reboot
//! the paper's §1 warns about: rebuilding the tree from scratch floods the
//! network with rule churn, so keeping its state across crashes matters.

use crate::util::{snap, unsnap};
use legosdn_codec::{Codec, Memo};
use legosdn_controller::app::{Ctx, RestoreError, SdnApp, Snapshot};
use legosdn_controller::event::{Event, EventKind};
use legosdn_controller::services::TopologyView;
use legosdn_netsim::Endpoint;
use legosdn_openflow::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

#[derive(Clone, Debug, Default, PartialEq, Codec)]
struct State {
    /// Ports (per switch) currently allowed to flood: tree ports + host
    /// ports (i.e. everything except non-tree inter-switch ports).
    /// Memoized (DESIGN.md §15): most recomputations leave it as it was.
    blocked: Memo<BTreeMap<DatapathId, BTreeSet<u16>>>,
    recomputations: u64,
}

/// Priority for the drop rules on blocked ports: above reactive app rules,
/// below the firewall.
const BLOCK_PRIORITY: u16 = 0xe000;

/// Spanning-tree computation + enforcement.
#[derive(Debug, Default)]
pub struct SpanningTree {
    state: State,
}

impl SpanningTree {
    /// A new spanning-tree app.
    #[must_use]
    pub fn new() -> Self {
        SpanningTree::default()
    }

    /// Times the tree has been recomputed.
    #[must_use]
    pub fn recomputations(&self) -> u64 {
        self.state.recomputations
    }

    /// Ports currently blocked on a switch.
    #[must_use]
    pub fn blocked_ports(&self, dpid: DatapathId) -> Vec<u16> {
        self.state
            .blocked
            .get(&dpid)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// BFS spanning tree over the topology view; returns the set of
    /// inter-switch endpoints that are ON the tree.
    fn tree_endpoints(topo: &TopologyView) -> BTreeSet<Endpoint> {
        let mut on_tree = BTreeSet::new();
        let mut visited = BTreeSet::new();
        let Some(&root) = topo.switches.keys().next() else {
            return on_tree;
        };
        let mut queue = VecDeque::from([root]);
        visited.insert(root);
        while let Some(cur) = queue.pop_front() {
            for (out_port, peer) in topo.neighbors(cur) {
                if visited.insert(peer.dpid) {
                    on_tree.insert(Endpoint::new(cur, out_port));
                    on_tree.insert(peer);
                    queue.push_back(peer.dpid);
                }
            }
        }
        on_tree
    }

    /// Recompute the tree and emit delta rules: block non-tree inter-switch
    /// ports (ingress drop), unblock ports that re-joined the tree.
    fn recompute(&mut self, ctx: &mut Ctx<'_>) {
        self.state.recomputations += 1;
        let on_tree = Self::tree_endpoints(ctx.topology);

        // Every inter-switch endpoint NOT on the tree gets blocked.
        let mut want: BTreeMap<DatapathId, BTreeSet<u16>> = BTreeMap::new();
        for link in ctx.topology.links().iter() {
            for ep in [link.a, link.b] {
                if !on_tree.contains(&ep) {
                    want.entry(ep.dpid).or_default().insert(ep.port);
                }
            }
        }

        // Deltas vs. current blocks.
        let dpids: BTreeSet<DatapathId> = want
            .keys()
            .chain(self.state.blocked.keys())
            .copied()
            .collect();
        for dpid in dpids {
            let empty = BTreeSet::new();
            let wanted = want.get(&dpid).unwrap_or(&empty);
            let current = self.state.blocked.get(&dpid).cloned().unwrap_or_default();
            for &port in wanted.difference(&current) {
                let fm = FlowMod::add(Match::any().with_in_port(PortNo::Phys(port)))
                    .priority(BLOCK_PRIORITY);
                ctx.send(dpid, Message::FlowMod(fm));
            }
            for &port in current.difference(wanted) {
                let fm = FlowMod::delete_strict(
                    Match::any().with_in_port(PortNo::Phys(port)),
                    BLOCK_PRIORITY,
                );
                ctx.send(dpid, Message::FlowMod(fm));
            }
        }
        if *self.state.blocked != want {
            *self.state.blocked.make_mut() = want;
        }
    }
}

impl SdnApp for SpanningTree {
    fn name(&self) -> &str {
        "spanning-tree"
    }

    fn subscriptions(&self) -> Vec<EventKind> {
        vec![
            EventKind::SwitchUp,
            EventKind::SwitchDown,
            EventKind::LinkUp,
            EventKind::LinkDown,
        ]
    }

    fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
        match event {
            Event::SwitchUp(_)
            | Event::SwitchDown(_)
            | Event::LinkUp { .. }
            | Event::LinkDown { .. } => {
                // Any topology change can move the tree.
                if let Event::SwitchDown(d) = event {
                    // The dead switch's blocks are gone with its table.
                    if self.state.blocked.contains_key(d) {
                        self.state.blocked.make_mut().remove(d);
                    }
                }
                self.recompute(ctx);
            }
            _ => {}
        }
    }

    fn snapshot(&self) -> Snapshot {
        snap(&self.state)
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        self.state = unsnap(bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legosdn_controller::services::DeviceView;
    use legosdn_netsim::SimTime;

    fn ep(d: u64, p: u16) -> Endpoint {
        Endpoint::new(DatapathId(d), p)
    }

    /// Triangle: 1-2, 2-3, 1-3 — one link must be blocked.
    fn triangle() -> TopologyView {
        let mut t = TopologyView::default();
        for d in 1..=3 {
            t.switch_up(DatapathId(d), vec![]);
        }
        t.link_up(ep(1, 1), ep(2, 1));
        t.link_up(ep(2, 2), ep(3, 1));
        t.link_up(ep(1, 2), ep(3, 2));
        t
    }

    fn run(
        app: &mut SpanningTree,
        ev: &Event,
        topo: &TopologyView,
    ) -> Vec<legosdn_controller::app::Command> {
        let dev = DeviceView::default();
        let mut ctx = Ctx::new(SimTime::ZERO, topo, &dev);
        app.on_event(ev, &mut ctx);
        ctx.into_commands()
    }

    #[test]
    fn tree_covers_all_switches() {
        let topo = triangle();
        let on_tree = SpanningTree::tree_endpoints(&topo);
        // A spanning tree over 3 switches has 2 links = 4 endpoints.
        assert_eq!(on_tree.len(), 4);
    }

    #[test]
    fn triangle_blocks_exactly_one_link() {
        let topo = triangle();
        let mut app = SpanningTree::new();
        let cmds = run(&mut app, &Event::SwitchUp(DatapathId(1)), &topo);
        // One blocked link = two blocked endpoints = two drop rules.
        let blocks = cmds
            .iter()
            .filter(|c| {
                matches!(&c.msg, Message::FlowMod(fm)
                if fm.command == FlowModCommand::Add && fm.priority == BLOCK_PRIORITY)
            })
            .count();
        assert_eq!(blocks, 2, "{cmds:?}");
        let total_blocked: usize = (1..=3)
            .map(|d| app.blocked_ports(DatapathId(d)).len())
            .sum();
        assert_eq!(total_blocked, 2);
    }

    #[test]
    fn acyclic_topology_blocks_nothing() {
        let mut topo = TopologyView::default();
        for d in 1..=3 {
            topo.switch_up(DatapathId(d), vec![]);
        }
        topo.link_up(ep(1, 1), ep(2, 1));
        topo.link_up(ep(2, 2), ep(3, 1));
        let mut app = SpanningTree::new();
        let cmds = run(&mut app, &Event::SwitchUp(DatapathId(1)), &topo);
        assert!(cmds.is_empty(), "{cmds:?}");
    }

    #[test]
    fn tree_link_failure_unblocks_the_spare() {
        let mut topo = triangle();
        let mut app = SpanningTree::new();
        run(&mut app, &Event::SwitchUp(DatapathId(1)), &topo);
        let blocked_before: Vec<(u64, Vec<u16>)> = (1..=3)
            .map(|d| (d, app.blocked_ports(DatapathId(d))))
            .collect();
        // Fail a TREE link (1-2 is always on the BFS tree from root 1).
        topo.link_down(ep(1, 1), ep(2, 1));
        let cmds = run(
            &mut app,
            &Event::LinkDown {
                a: ep(1, 1),
                b: ep(2, 1),
            },
            &topo,
        );
        // The previously blocked link must be unblocked (deletes emitted).
        let deletes = cmds
            .iter()
            .filter(|c| matches!(&c.msg, Message::FlowMod(fm) if fm.is_delete()))
            .count();
        assert!(
            deletes >= 1,
            "spare link must be unblocked: {cmds:?} (was {blocked_before:?})"
        );
        // Now nothing is blocked: remaining topology is a line.
        let total_blocked: usize = (1..=3)
            .map(|d| app.blocked_ports(DatapathId(d)).len())
            .sum();
        assert_eq!(total_blocked, 0);
    }

    #[test]
    fn recompute_is_idempotent() {
        let topo = triangle();
        let mut app = SpanningTree::new();
        run(&mut app, &Event::SwitchUp(DatapathId(1)), &topo);
        // Same topology again: no delta commands.
        let cmds = run(&mut app, &Event::SwitchUp(DatapathId(2)), &topo);
        assert!(cmds.is_empty(), "{cmds:?}");
        assert_eq!(app.recomputations(), 2);
    }

    #[test]
    fn state_roundtrips() {
        let topo = triangle();
        let mut app = SpanningTree::new();
        run(&mut app, &Event::SwitchUp(DatapathId(1)), &topo);
        let snap = app.snapshot();
        let mut fresh = SpanningTree::new();
        fresh.restore(&snap.flat()).unwrap();
        // Restored app agrees nothing changed.
        let cmds = run(&mut fresh, &Event::SwitchUp(DatapathId(1)), &topo);
        assert!(cmds.is_empty());
    }

    #[test]
    fn empty_topology_is_fine() {
        let topo = TopologyView::default();
        let mut app = SpanningTree::new();
        let cmds = run(&mut app, &Event::SwitchUp(DatapathId(1)), &topo);
        assert!(cmds.is_empty());
    }
}
