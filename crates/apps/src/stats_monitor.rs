//! A monitoring app: polls per-switch aggregate statistics on its timer tick
//! and keeps a bounded history. Stands in for FloodLight's counter-store
//! users (§4.1 notes the paper had to comment those out — ours works).

use crate::util::{snap, unsnap};
use legosdn_codec::{Codec, Memo};
use legosdn_controller::app::{Ctx, RestoreError, SdnApp};
use legosdn_controller::event::{Event, EventKind};
use legosdn_netsim::SimTime;
use legosdn_openflow::prelude::*;
use std::collections::BTreeSet;

/// One aggregate sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Codec)]
pub struct Sample {
    pub at: SimTime,
    pub dpid: DatapathId,
    pub packets: u64,
    pub bytes: u64,
    pub flows: u32,
}

#[derive(Clone, Debug, Default, PartialEq, Codec)]
struct State {
    switches: BTreeSet<DatapathId>,
    /// Memoized (DESIGN.md §15): up to 4096 samples, written only by a
    /// stats reply — ticks and switch events leave it alone.
    history: Memo<Vec<Sample>>,
    polls_sent: u64,
}

/// Maximum retained samples.
const HISTORY_CAP: usize = 4096;

/// Periodic aggregate-statistics poller.
#[derive(Debug, Default)]
pub struct StatsMonitor {
    state: State,
}

impl StatsMonitor {
    /// A new monitor.
    #[must_use]
    pub fn new() -> Self {
        StatsMonitor::default()
    }

    /// Recorded samples, oldest first.
    #[must_use]
    pub fn history(&self) -> &[Sample] {
        &self.state.history
    }

    /// Stats polls issued so far.
    #[must_use]
    pub fn polls_sent(&self) -> u64 {
        self.state.polls_sent
    }
}

impl SdnApp for StatsMonitor {
    fn name(&self) -> &str {
        "stats-monitor"
    }

    fn subscriptions(&self) -> Vec<EventKind> {
        vec![
            EventKind::SwitchUp,
            EventKind::SwitchDown,
            EventKind::Tick,
            EventKind::StatsReply,
        ]
    }

    fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
        match event {
            Event::SwitchUp(dpid) => {
                self.state.switches.insert(*dpid);
            }
            Event::SwitchDown(dpid) => {
                self.state.switches.remove(dpid);
            }
            Event::Tick(_) => {
                for &dpid in &self.state.switches {
                    self.state.polls_sent += 1;
                    ctx.send(
                        dpid,
                        Message::StatsRequest(StatsRequest::Aggregate {
                            mat: Match::any(),
                            out_port: PortNo::None,
                        }),
                    );
                }
            }
            Event::StatsReply(
                dpid,
                StatsReply::Aggregate {
                    packet_count,
                    byte_count,
                    flow_count,
                },
            ) => {
                let history = self.state.history.make_mut();
                if history.len() >= HISTORY_CAP {
                    history.remove(0);
                }
                history.push(Sample {
                    at: ctx.now,
                    dpid: *dpid,
                    packets: *packet_count,
                    bytes: *byte_count,
                    flows: *flow_count,
                });
            }
            _ => {}
        }
    }

    fn snapshot(&self) -> Vec<u8> {
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
    use legosdn_controller::services::{DeviceView, TopologyView};

    fn run(app: &mut StatsMonitor, ev: &Event, now: SimTime) -> usize {
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        let mut ctx = Ctx::new(now, &topo, &dev);
        app.on_event(ev, &mut ctx);
        ctx.commands().len()
    }

    #[test]
    fn polls_known_switches_on_tick() {
        let mut app = StatsMonitor::new();
        run(&mut app, &Event::SwitchUp(DatapathId(1)), SimTime::ZERO);
        run(&mut app, &Event::SwitchUp(DatapathId(2)), SimTime::ZERO);
        let n = run(
            &mut app,
            &Event::Tick(SimTime::from_secs(1)),
            SimTime::from_secs(1),
        );
        assert_eq!(n, 2);
        assert_eq!(app.polls_sent(), 2);
        // A dead switch stops being polled.
        run(
            &mut app,
            &Event::SwitchDown(DatapathId(2)),
            SimTime::from_secs(2),
        );
        let n = run(
            &mut app,
            &Event::Tick(SimTime::from_secs(3)),
            SimTime::from_secs(3),
        );
        assert_eq!(n, 1);
    }

    #[test]
    fn records_aggregate_replies_with_time() {
        let mut app = StatsMonitor::new();
        let reply = Event::StatsReply(
            DatapathId(1),
            StatsReply::Aggregate {
                packet_count: 10,
                byte_count: 640,
                flow_count: 2,
            },
        );
        run(&mut app, &reply, SimTime::from_secs(9));
        assert_eq!(app.history().len(), 1);
        let s = app.history()[0];
        assert_eq!(s.at, SimTime::from_secs(9));
        assert_eq!((s.packets, s.bytes, s.flows), (10, 640, 2));
    }

    #[test]
    fn history_is_bounded() {
        let mut app = StatsMonitor::new();
        let reply = Event::StatsReply(
            DatapathId(1),
            StatsReply::Aggregate {
                packet_count: 1,
                byte_count: 1,
                flow_count: 1,
            },
        );
        for i in 0..(HISTORY_CAP + 10) {
            run(&mut app, &reply, SimTime::from_secs(i as u64));
        }
        assert_eq!(app.history().len(), HISTORY_CAP);
        // Oldest entries were evicted.
        assert_eq!(app.history()[0].at, SimTime::from_secs(10));
    }

    #[test]
    fn flow_stats_replies_are_ignored() {
        let mut app = StatsMonitor::new();
        run(
            &mut app,
            &Event::StatsReply(DatapathId(1), StatsReply::Flow(vec![])),
            SimTime::ZERO,
        );
        assert!(app.history().is_empty());
    }

    #[test]
    fn snapshot_preserves_history_and_switches() {
        let mut app = StatsMonitor::new();
        run(&mut app, &Event::SwitchUp(DatapathId(1)), SimTime::ZERO);
        let reply = Event::StatsReply(
            DatapathId(1),
            StatsReply::Aggregate {
                packet_count: 5,
                byte_count: 50,
                flow_count: 1,
            },
        );
        run(&mut app, &reply, SimTime::from_secs(1));
        let s = app.snapshot();
        let mut fresh = StatsMonitor::new();
        fresh.restore(&s).unwrap();
        assert_eq!(fresh.history().len(), 1);
        assert_eq!(
            run(
                &mut fresh,
                &Event::Tick(SimTime::from_secs(2)),
                SimTime::from_secs(2)
            ),
            1
        );
    }
}
