//! The `fleet` bin's fan-out, and the trace-driven datacenter workload
//! engine (flash crowd, elephant/mice, link-flap storm) the `workload` bin
//! replays as the check.sh fat-tree smoke.

use legosdn::appvisor::{AppHandle, AppVisorProxy, DeliverOutcome, ProxyError};
use legosdn::controller::services::{DeviceView, TopologyView};
use legosdn::netsim::{HostSpec, NetEvent};
use legosdn::prelude::*;
use legosdn_testkit::Rng;

/// Fan one event out to a fleet of stubs the way the dispatch window
/// does — queue it on every stub, then collect every ack, so the stubs
/// process concurrently. One outcome per handle, in order.
pub fn fan_out(
    proxy: &mut AppVisorProxy,
    handles: &[AppHandle],
    event: &Event,
    topology: &TopologyView,
    devices: &DeviceView,
) -> Vec<Result<DeliverOutcome, ProxyError>> {
    let tags: Vec<_> = handles
        .iter()
        .map(|&h| proxy.queue_deliver(h, event, topology, devices, SimTime::ZERO))
        .collect();
    handles
        .iter()
        .zip(tags)
        .map(|(&h, tag)| match tag? {
            Some(seq) => proxy.collect_deliver(h, seq),
            None => Ok(DeliverOutcome::CommFailure),
        })
        .collect()
}

/// One event in a trace-driven workload.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A host emits a packet into the dataplane.
    Inject { src: MacAddr, packet: Packet },
    /// A core/agg/edge link changes state.
    LinkState { link: usize, up: bool },
}

/// A seeded, replayable event stream over a topology.
#[derive(Clone, Debug)]
pub struct TraceWorkload {
    pub name: &'static str,
    pub events: Vec<TraceEvent>,
}

/// A zipf-ish skewed index in `[0, n)`: rank 0 with probability 1/2, rank 1
/// with 1/4, … (geometric via trailing zeros of a splitmix64 draw). Close
/// enough to datacenter flow popularity for workload shaping, and exactly
/// reproducible from the seed.
fn skewed_index(rng: &mut Rng, n: usize) -> usize {
    assert!(n > 0);
    (rng.next_u64().trailing_zeros() as usize).min(n - 1)
}

fn tcp_between(src: &HostSpec, dst: &HostSpec, sport: u16, dport: u16) -> Packet {
    Packet::tcp(src.mac, dst.mac, src.ip, dst.ip, sport, dport)
}

/// Flash crowd: every host hammers a handful of hot destinations (skewed
/// dst rank, uniform src, fresh source ports) — the worst case for exact
/// entry churn on the hot hosts' edge switches.
pub fn flash_crowd(topo: &Topology, seed: u64, n: usize) -> TraceWorkload {
    let mut rng = Rng::seed_from_u64(seed);
    let hosts = &topo.hosts;
    let events = (0..n)
        .map(|_| {
            let src = &hosts[rng.gen_range(0..hosts.len())];
            let dst = &hosts[skewed_index(&mut rng, hosts.len())];
            let sport = rng.gen_range(1024..60_000u16);
            TraceEvent::Inject {
                src: src.mac,
                packet: tcp_between(src, dst, sport, 80),
            }
        })
        .collect();
    TraceWorkload {
        name: "flash_crowd",
        events,
    }
}

/// Elephant/mice mix: a small set of long-lived 5-tuples carries ~70% of
/// packets (repeat exact-match hits), the rest are one-off mice (table
/// misses → packet-ins → new entries).
pub fn elephant_mice(topo: &Topology, seed: u64, n: usize) -> TraceWorkload {
    let mut rng = Rng::seed_from_u64(seed);
    let hosts = &topo.hosts;
    let elephants: Vec<(usize, usize, u16)> = (0..8)
        .map(|_| {
            (
                rng.gen_range(0..hosts.len()),
                rng.gen_range(0..hosts.len()),
                rng.gen_range(1024..60_000u16),
            )
        })
        .collect();
    let events = (0..n)
        .map(|_| {
            if rng.gen_bool(0.7) {
                let &(s, d, sport) = rng.pick(&elephants);
                TraceEvent::Inject {
                    src: hosts[s].mac,
                    packet: tcp_between(&hosts[s], &hosts[d], sport, 443),
                }
            } else {
                let src = &hosts[rng.gen_range(0..hosts.len())];
                let dst = &hosts[rng.gen_range(0..hosts.len())];
                let sport = rng.gen_range(1024..60_000u16);
                let dport = *rng.pick(&[80, 443, 8080]);
                TraceEvent::Inject {
                    src: src.mac,
                    packet: tcp_between(src, dst, sport, dport),
                }
            }
        })
        .collect();
    TraceWorkload {
        name: "elephant_mice",
        events,
    }
}

/// Link-flap storm: steady skewed traffic with a skewed-popularity link
/// bouncing down/up every few events — port-status churn layered over the
/// packet stream.
pub fn link_flap_storm(topo: &Topology, seed: u64, n: usize) -> TraceWorkload {
    let mut rng = Rng::seed_from_u64(seed);
    let hosts = &topo.hosts;
    let n_links = topo.links.len();
    let events = (0..n)
        .map(|i| {
            if n_links > 0 && i % 16 == 8 {
                let link = skewed_index(&mut rng, n_links);
                TraceEvent::LinkState { link, up: false }
            } else if n_links > 0 && i % 16 == 12 {
                let link = skewed_index(&mut rng, n_links);
                TraceEvent::LinkState { link, up: true }
            } else {
                let src = &hosts[rng.gen_range(0..hosts.len())];
                let dst = &hosts[skewed_index(&mut rng, hosts.len())];
                let sport = rng.gen_range(1024..60_000u16);
                TraceEvent::Inject {
                    src: src.mac,
                    packet: tcp_between(src, dst, sport, 80),
                }
            }
        })
        .collect();
    TraceWorkload {
        name: "link_flap_storm",
        events,
    }
}

/// Counters from one workload replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    pub events: u64,
    pub packet_ins: u64,
    pub flow_mods: u64,
    pub delivered: u64,
    pub dropped: u64,
}

/// Replay a workload against a network with a minimal reactive controller:
/// every packet-in is answered by installing an exact-match rule (idle
/// timeout `idle_timeout` seconds) echoing traffic out its ingress port,
/// plus a packet-out that releases the punted packet the same way. The
/// clock ticks one second every `tick_every` events so idle expiry and the
/// flow tables' deadline watermark get exercised.
pub fn replay_reactive(
    net: &mut Network,
    workload: &TraceWorkload,
    idle_timeout: u16,
    tick_every: usize,
) -> ReplayStats {
    let mut stats = ReplayStats::default();
    net.poll_events(); // drain the boot-time SwitchConnected burst
    for (i, ev) in workload.events.iter().enumerate() {
        stats.events += 1;
        match ev {
            TraceEvent::Inject { src, packet } => {
                if let Ok(trace) = net.inject(*src, packet.clone()) {
                    stats.packet_ins += trace.packet_ins as u64;
                }
            }
            TraceEvent::LinkState { link, up } => {
                let _ = net.set_link_up(*link, *up);
            }
        }
        for event in net.poll_events() {
            if let NetEvent::FromSwitch(dpid, Message::PacketIn(pi)) = event {
                let fm = FlowMod::add(Match::from_packet(&pi.packet, pi.in_port))
                    .idle_timeout(idle_timeout)
                    .action(Action::Output(pi.in_port));
                if net.apply(dpid, &Message::FlowMod(fm)).is_ok() {
                    stats.flow_mods += 1;
                }
                let po = PacketOut {
                    buffer_id: BufferId::NONE,
                    in_port: PortNo::None,
                    actions: vec![Action::Output(pi.in_port)],
                    packet: Some(pi.packet.clone()),
                };
                let _ = net.apply(dpid, &Message::PacketOut(po));
            }
        }
        if tick_every > 0 && (i + 1) % tick_every == 0 {
            net.tick(SimDuration::from_secs(1));
        }
    }
    let (delivered, dropped) = net.delivery_counters();
    stats.delivered = delivered;
    stats.dropped = dropped;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_workloads_are_seed_deterministic() {
        let topo = Topology::fat_tree(4);
        for gen in [flash_crowd, elephant_mice, link_flap_storm] {
            let a = gen(&topo, 7, 200);
            let b = gen(&topo, 7, 200);
            assert_eq!(a.events, b.events, "{}", a.name);
            let c = gen(&topo, 8, 200);
            assert_ne!(a.events, c.events, "{} ignores its seed", a.name);
        }
    }

    #[test]
    fn skewed_index_prefers_low_ranks() {
        let mut rng = Rng::seed_from_u64(1);
        let mut counts = [0usize; 4];
        for _ in 0..1000 {
            counts[skewed_index(&mut rng, 4)] += 1;
        }
        assert!(counts[0] > counts[1], "{counts:?}");
        assert!(counts[1] > counts[3], "{counts:?}");
    }

    #[test]
    fn replay_reactive_installs_flows_and_delivers() {
        let topo = Topology::fat_tree(4);
        let mut net = Network::new(&topo);
        let w = elephant_mice(&topo, 3, 400);
        let stats = replay_reactive(&mut net, &w, 10, 50);
        assert_eq!(stats.events, 400);
        assert!(stats.packet_ins > 0, "{stats:?}");
        assert!(stats.flow_mods > 0, "{stats:?}");
        assert!(stats.delivered > 0, "{stats:?}");
        assert!(
            net.switches().any(|s| !s.table().is_empty()),
            "reactive rules should be installed"
        );
        // Same seed + fresh network ⇒ identical replay.
        let mut net2 = Network::new(&topo);
        assert_eq!(replay_reactive(&mut net2, &w, 10, 50), stats);
    }

    #[test]
    fn link_flap_storm_flaps_links() {
        let topo = Topology::fat_tree(4);
        let w = link_flap_storm(&topo, 5, 200);
        assert!(w
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::LinkState { up: false, .. })));
        let mut net = Network::new(&topo);
        let stats = replay_reactive(&mut net, &w, 10, 50);
        assert_eq!(stats.events, 200);
    }
}
