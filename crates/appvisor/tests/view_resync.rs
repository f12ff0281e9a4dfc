//! View shipping end to end: a stub is sent the controller's views whole
//! once and as diffs afterwards, and — whatever is lost, crashes or is
//! replayed on the way — its app only ever runs on exactly the view pair
//! the proxy built that delivery frame from.
//!
//! The proxy-level tests run over the path the proxy itself launches — a
//! `StubHost` pool, the proxy blocking on the reply queue — with a
//! `FlakyTransport` between the two to lose frames on demand.

use legosdn_appvisor::{
    decode_frame, encode_frame, AppHandle, AppVisorProxy, DeliverOutcome, FlakyTransport,
    ProxyConfig, QueueTransport, RpcMessage, StubConfig, StubHost, Transport,
};
use legosdn_controller::app::{Ctx, RestoreError, SdnApp};
use legosdn_controller::event::{Event, EventKind};
use legosdn_controller::services::{DeviceView, TopologyView};
use legosdn_controller::{snapshot, EventTranslator};
use legosdn_netsim::{Network, SimTime, Topology};
use legosdn_obs::Obs;
use legosdn_openflow::prelude::DatapathId;
use std::sync::{Arc, Mutex};
use std::time::Duration;

type Views = (TopologyView, DeviceView);

fn encoded(views: (&TopologyView, &DeviceView)) -> Vec<u8> {
    let mut bytes = snapshot::to_bytes(views.0).unwrap();
    bytes.extend(snapshot::to_bytes(views.1).unwrap());
    bytes
}

/// What the app saw, in order: `(event id, the views it was handed)`.
type Seen = Arc<Mutex<Vec<(u64, Vec<u8>)>>>;

/// Records the views every event arrives with; the event's id rides in
/// its `Tick` time. The log lives outside the app's state, so a restore
/// does not rewind it.
struct ViewProbe {
    seen: Seen,
    crash_at: Option<u64>,
}

impl SdnApp for ViewProbe {
    fn name(&self) -> &str {
        "view-probe"
    }
    fn subscriptions(&self) -> Vec<EventKind> {
        vec![EventKind::Tick]
    }
    fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
        let Event::Tick(SimTime(id)) = event else {
            return;
        };
        self.seen
            .lock()
            .unwrap()
            .push((*id, encoded((ctx.topology, ctx.devices))));
        assert_ne!(Some(*id), self.crash_at, "view probe crash");
    }
    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }
    fn restore(&mut self, _bytes: &[u8]) -> Result<(), RestoreError> {
        Ok(())
    }
}

/// fat_tree(4) as the controller sees it after discovery, every host
/// learned: 20 switches, 32 links, 16 devices.
fn booted() -> (Topology, Views) {
    let topo = Topology::fat_tree(4);
    let mut net = Network::new(&topo);
    let mut tr = EventTranslator::new();
    for raw in net.poll_events() {
        tr.process(&mut net, raw);
    }
    for h in &topo.hosts {
        tr.devices.learn(h.mac, Some(h.ip), h.attach, SimTime::ZERO);
    }
    (topo, (tr.topology, tr.devices))
}

/// `n` successive view pairs, each one controller-side change after the
/// last: a host refreshed on every step, a link lost or found on some,
/// and a whole switch (links, grave, devices) lost half way.
fn history(n: u64) -> Vec<Views> {
    let (topo, mut views) = booted();
    let mut out = vec![views.clone()];
    for i in 1..n {
        let h = &topo.hosts[i as usize % topo.hosts.len()];
        views.1.learn(h.mac, None, h.attach, SimTime::from_secs(i));
        let l = &topo.links[i as usize % topo.links.len()];
        match i % 4 {
            1 => drop(views.0.link_down(l.a, l.b)),
            3 => drop(views.0.link_up(l.a, l.b)),
            _ => {}
        }
        if i == n / 2 {
            let dpid = DatapathId(1);
            views.0.switch_down(dpid);
            views.1.purge_switch(dpid);
        }
        out.push(views.clone());
    }
    out
}

struct Rig {
    proxy: AppVisorProxy,
    h: AppHandle,
    obs: Obs,
    seen: Seen,
    // The stub's host thread, kept alive for the proxy.
    _host: StubHost,
}

/// A `ViewProbe` behind a stub, reached through a transport that loses
/// `drop_per_mille` of the proxy's frames.
fn rig(drop_per_mille: u32, crash_at: Option<u64>) -> Rig {
    // Over a lossless transport every awaited reply arrives (the stub
    // reports crashes) and a wait ends when it does, so a long deadline
    // costs nothing — and a loaded box printing a panic backtrace cannot
    // turn `Crashed` into a timeout. A lossy test waits its deadline out
    // once per eaten frame.
    let deliver_timeout = if drop_per_mille == 0 {
        Duration::from_secs(2)
    } else {
        Duration::from_millis(60)
    };
    let stub = StubConfig {
        heartbeat_period: Duration::from_millis(10),
        report_crashes: true,
    };
    let obs = Obs::new();
    let mut proxy = AppVisorProxy::new(ProxyConfig {
        deliver_timeout,
        rpc_timeout: Duration::from_secs(2),
        stub: stub.clone(),
        ..Default::default()
    });
    proxy.set_obs(obs.clone());
    let seen = Seen::default();
    let app = Box::new(ViewProbe {
        seen: seen.clone(),
        crash_at,
    });
    let (proxy_side, stub_side) = QueueTransport::pair();
    let host = StubHost::new(1);
    host.spawn(app, stub_side.into_duplex(), stub).unwrap();
    let lossy = FlakyTransport::new(proxy_side, drop_per_mille, 11);
    let h = proxy
        .register_transport(Box::new(lossy))
        .expect("stub registers");
    Rig {
        proxy,
        h,
        obs,
        seen,
        _host: host,
    }
}

impl Rig {
    fn deliver(&mut self, id: u64, views: &Views) -> DeliverOutcome {
        let event = Event::Tick(SimTime(id));
        self.proxy
            .deliver(self.h, &event, &views.0, &views.1, SimTime::ZERO)
            .unwrap()
    }

    fn queue(&mut self, id: u64, views: &Views) -> u64 {
        let event = Event::Tick(SimTime(id));
        self.proxy
            .queue_deliver(self.h, &event, &views.0, &views.1, SimTime::ZERO)
            .unwrap()
            .expect("send succeeds")
    }

    fn bytes_sent(&self) -> u64 {
        self.proxy.wire_stats(self.h).unwrap().bytes_sent
    }

    /// `(full frames, delta frames, resyncs of this app)` so far.
    fn frames(&self) -> (u64, u64, u64) {
        let counter = |name, label| self.obs.counter("appvisor", name, label).get();
        (
            counter("view_full_frames", ""),
            counter("view_delta_frames", ""),
            counter("view_resyncs", "view-probe"),
        )
    }

    /// Every event the app ran, it ran on the views of `history[id]`;
    /// returns the ids in the order it ran them.
    fn assert_never_stale(&self, history: &[Views]) -> Vec<u64> {
        let seen = self.seen.lock().unwrap();
        for (id, saw) in seen.iter() {
            let built_from = &history[*id as usize];
            assert!(
                *saw == encoded((&built_from.0, &built_from.1)),
                "event {id} ran on views its frame was not built from"
            );
        }
        seen.iter().map(|(id, _)| *id).collect()
    }
}

fn is_ack(outcome: &DeliverOutcome) -> bool {
    matches!(outcome, DeliverOutcome::Commands(_))
}

#[test]
fn steady_state_deliveries_cost_a_diff_not_the_views() {
    let history = history(40);
    let mut rig = rig(0, None);
    assert!(is_ack(&rig.deliver(0, &history[0])));
    let first = rig.bytes_sent();
    assert!(first > 2_000, "first contact ships the views whole");
    for (id, views) in history.iter().enumerate().skip(1) {
        let before = rig.bytes_sent();
        assert!(is_ack(&rig.deliver(id as u64, views)));
        let frame = rig.bytes_sent() - before;
        assert!(frame < 512, "delivery {id} put {frame} B on the wire");
    }
    assert_eq!(rig.frames(), (1, 39, 0));
    assert_eq!(rig.assert_never_stale(&history).len(), 40);
}

#[test]
fn a_lost_delivery_frame_breaks_the_chain_safely() {
    let history = history(12);
    let mut rig = rig(250, None);
    // A window of eight goes out before any reply is read; the lossy
    // transport eats at least one of the frames.
    let tags: Vec<u64> = (0..8)
        .map(|id| rig.queue(id, &history[id as usize]))
        .collect();
    let mut lost = None;
    for (id, tag) in tags.iter().enumerate() {
        match rig.proxy.collect_deliver(rig.h, *tag).unwrap() {
            DeliverOutcome::Commands(_) => {}
            other => {
                assert_eq!(other, DeliverOutcome::CommFailure);
                lost = Some(id);
                break;
            }
        }
    }
    let lost = lost.expect("seed 11 at 250‰ drops one of the first eight frames");
    rig.proxy.cancel_pending(rig.h, &tags[lost + 1..]).unwrap();
    // Everything queued behind the lost frame was a diff against it
    // or its successors: the stub applied none of them and the app
    // ran none of them.
    let ran = rig.assert_never_stale(&history);
    assert_eq!(ran, (0..lost as u64).collect::<Vec<_>>());
    // From here every frame is whole until one is acknowledged (the
    // transport is still lossy), then diffs resume.
    let (full, delta, resyncs) = rig.frames();
    assert_eq!((full, resyncs), (1, 0));
    let mut tries = 0;
    while !is_ack(&rig.deliver(10, &history[10])) {
        tries += 1;
        assert!(tries < 20, "never got through");
    }
    assert_eq!(rig.frames(), (full + tries + 1, delta, resyncs + tries + 1));
    let ran = rig.assert_never_stale(&history);
    assert_eq!(ran.last(), Some(&10));
}

#[test]
fn a_crash_mid_window_resends_whole_views_then_diffs() {
    let history = history(12);
    let mut rig = rig(0, Some(2));
    let checkpoint = rig.proxy.snapshot(rig.h).unwrap();
    assert!(is_ack(&rig.deliver(0, &history[0])));
    assert!(is_ack(&rig.deliver(1, &history[1])));
    // Event 2 crashes the app with 3..=9 queued behind it.
    let tags: Vec<u64> = (2..10)
        .map(|id| rig.queue(id, &history[id as usize]))
        .collect();
    assert!(matches!(
        rig.proxy.collect_deliver(rig.h, tags[0]).unwrap(),
        DeliverOutcome::Crashed { .. }
    ));
    rig.proxy.cancel_pending(rig.h, &tags[1..]).unwrap();
    assert!(rig.proxy.restore(rig.h, &checkpoint).unwrap());
    assert_eq!(rig.frames(), (1, 9, 0));
    // Re-send the cancelled slots: the first frame carries the views
    // whole, the rest are diffs again.
    let before = rig.bytes_sent();
    let first = rig.queue(3, &history[3]);
    assert!(rig.bytes_sent() - before > 2_000);
    assert_eq!(rig.frames(), (2, 9, 1));
    let rest: Vec<u64> = (4..10)
        .map(|id| rig.queue(id, &history[id as usize]))
        .collect();
    assert_eq!(rig.frames(), (2, 15, 1));
    for tag in std::iter::once(first).chain(rest) {
        assert!(is_ack(&rig.proxy.collect_deliver(rig.h, tag).unwrap()));
    }
    let ran = rig.assert_never_stale(&history);
    assert_eq!(ran, (0..10).collect::<Vec<_>>(), "each once");
}

#[test]
fn a_replay_against_older_views_is_one_more_diff() {
    let history = history(10);
    let mut rig = rig(0, None);
    // Forward past the switch loss at step 5, then replay step 2 (a
    // switch, its links and its hosts come back; the grave empties),
    // then jump forward again.
    for id in [0, 4, 7, 2, 9, 0] {
        assert!(is_ack(&rig.deliver(id, &history[id as usize])));
    }
    assert_eq!(rig.frames(), (1, 5, 0), "one whole frame, ever");
    assert_eq!(rig.assert_never_stale(&history), [0, 4, 7, 2, 9, 0]);
}

/// The stub alone, driven by hand: views belong to the stub, so a dead
/// app's stub keeps taking them in, and a diff cut against any frame but
/// the one it last took views from is never applied or run.
#[test]
fn a_dead_stub_keeps_its_views_in_step_and_refuses_a_foreign_base() {
    let history = history(8);
    let seen = Seen::default();
    let (mut proxy_side, stub_side) = QueueTransport::pair();
    let app = Box::new(ViewProbe {
        seen: seen.clone(),
        crash_at: Some(2),
    });
    let host = StubHost::new(1);
    host.spawn(app, stub_side.into_duplex(), StubConfig::default())
        .unwrap();
    let mut reply = move |frame: Option<RpcMessage>, wait_ms: u64| -> Option<RpcMessage> {
        if let Some(frame) = frame {
            proxy_side.send(&encode_frame(&frame)).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_millis(wait_ms);
        while let Some(left) = deadline.checked_duration_since(std::time::Instant::now()) {
            if let Some(bytes) = proxy_side.recv_timeout(left).unwrap() {
                match decode_frame(&bytes).unwrap() {
                    RpcMessage::Heartbeat { .. } => {}
                    msg => return Some(msg),
                }
            }
        }
        None
    };
    let delta = |id: u64, base: u64, held: u64| RpcMessage::EventDeliverDelta {
        seq: id,
        event: Event::Tick(SimTime(id)),
        base,
        topology: history[held as usize].0.diff(&history[id as usize].0),
        devices: history[held as usize].1.diff(&history[id as usize].1),
        now: SimTime::ZERO,
    };
    assert!(matches!(
        reply(None, 2_000),
        Some(RpcMessage::Register { .. })
    ));
    // A diff before any views: nothing to apply it to.
    assert_eq!(reply(Some(delta(3, 2, 2)), 80), None);
    let whole = RpcMessage::EventDeliver {
        seq: 1,
        event: Event::Tick(SimTime(1)),
        topology: history[1].0.clone(),
        devices: history[1].1.clone(),
        now: SimTime::ZERO,
    };
    assert!(matches!(
        reply(Some(whole), 2_000),
        Some(RpcMessage::EventAck { seq: 1, .. })
    ));
    assert!(matches!(
        reply(Some(delta(2, 1, 1)), 2_000),
        Some(RpcMessage::Crashed { seq: 2, .. })
    ));
    // Dead: 3 and 4 get no answer, but their views are taken in...
    assert_eq!(reply(Some(delta(3, 2, 2)), 80), None);
    assert_eq!(reply(Some(delta(4, 3, 3)), 80), None);
    let restore = RpcMessage::RestoreRequest {
        seq: 5,
        bytes: Vec::new(),
    };
    assert!(matches!(
        reply(Some(restore), 2_000),
        Some(RpcMessage::RestoreAck { ok: true, .. })
    ));
    // ...so a diff against frame 4 lands on the right views,
    assert!(matches!(
        reply(Some(delta(6, 4, 4)), 2_000),
        Some(RpcMessage::EventAck { seq: 6, .. })
    ));
    // and one against frame 4 again (the stub now holds 6) is refused.
    assert_eq!(reply(Some(delta(7, 4, 4)), 80), None);
    let seen = seen.lock().unwrap();
    let ran: Vec<u64> = seen.iter().map(|(id, _)| *id).collect();
    assert_eq!(ran, [1, 2, 6]);
    for (id, saw) in seen.iter() {
        let built_from = &history[*id as usize];
        assert!(
            *saw == encoded((&built_from.0, &built_from.1)),
            "event {id}"
        );
    }
}
