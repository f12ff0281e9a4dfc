//! View shipping end to end: a stub is sent the controller's views whole
//! once and as diffs afterwards, and — whatever is lost, crashes or is
//! replayed on the way — its app only ever runs on exactly the view pair
//! the proxy built that delivery frame from.
//!
//! Every test drives its stub inline (`InlineStub`): the stub serves each
//! frame inside the proxy's send, so a reply that is not queued when the
//! proxy looks never will be, and a lost frame or a silent stub is a
//! timeout at once — no test waits out a deadline. A `FlakyTransport`
//! around the inline end loses the proxy's frames on demand.

use legosdn_appvisor::{
    decode_frame, encode_frame, AppHandle, AppVisorProxy, DeliverOutcome, FlakyTransport,
    InlineStub, ProxyConfig, RpcMessage, StubConfig, Transport,
};
use legosdn_controller::app::{Ctx, RestoreError, SdnApp, Snapshot};
use legosdn_controller::event::{Event, EventKind};
use legosdn_controller::services::{DeviceView, TopologyView};
use legosdn_controller::{snapshot, EventTranslator};
use legosdn_netsim::{Network, SimTime, Topology};
use legosdn_obs::Obs;
use legosdn_openflow::prelude::DatapathId;
use std::sync::{Arc, Mutex};

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
    fn snapshot(&self) -> Snapshot {
        Snapshot::default()
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
}

/// A `ViewProbe` behind an inline stub, reached through a transport that
/// loses `drop_per_mille` of the proxy's frames. One proxy config serves
/// lossless and lossy rigs alike: no wait ever reaches its deadline.
fn rig(drop_per_mille: u32, crash_at: Option<u64>) -> Rig {
    rig_with(drop_per_mille, crash_at, StubConfig::default())
}

/// [`rig`] with a stub configured by `stub`.
fn rig_with(drop_per_mille: u32, crash_at: Option<u64>, stub: StubConfig) -> Rig {
    let obs = Obs::new();
    let mut proxy = AppVisorProxy::new(ProxyConfig::default());
    proxy.set_obs(obs.clone());
    let seen = Seen::default();
    let app = Box::new(ViewProbe {
        seen: seen.clone(),
        crash_at,
    });
    let stub = InlineStub::new(app, stub);
    let lossy = FlakyTransport::new(stub, drop_per_mille, 11);
    let h = proxy
        .register_transport(Box::new(lossy))
        .expect("stub registers");
    Rig {
        proxy,
        h,
        obs,
        seen,
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

/// Event 2 crashes the app with 3..=9 queued behind it. The crash is
/// collected, the app restored from its checkpoint, and 3..=9 re-sent and
/// collected, as the engine re-sends a failed app's window. Returns the
/// rig, how event 2's delivery was classified, and the bytes each re-sent
/// frame put on the wire.
fn crash_mid_window(report_crashes: bool) -> (Rig, DeliverOutcome, Vec<u64>) {
    let history = history(12);
    let mut rig = rig_with(0, Some(2), StubConfig { report_crashes });
    let checkpoint = rig.proxy.snapshot(rig.h).unwrap();
    assert!(is_ack(&rig.deliver(0, &history[0])));
    assert!(is_ack(&rig.deliver(1, &history[1])));
    let tags: Vec<u64> = (2..10)
        .map(|id| rig.queue(id, &history[id as usize]))
        .collect();
    let crash = rig.proxy.collect_deliver(rig.h, tags[0]).unwrap();
    assert!(rig.proxy.restore(rig.h, &checkpoint).unwrap());
    assert_eq!(rig.frames(), (1, 9, 0));
    let mut sizes = Vec::new();
    let mut resent = Vec::new();
    for id in 3..10 {
        let before = rig.bytes_sent();
        resent.push(rig.queue(id, &history[id as usize]));
        sizes.push(rig.bytes_sent() - before);
    }
    for tag in resent {
        assert!(is_ack(&rig.proxy.collect_deliver(rig.h, tag).unwrap()));
    }
    let ran = rig.assert_never_stale(&history);
    assert_eq!(ran, (0..10).collect::<Vec<_>>(), "each once");
    (rig, crash, sizes)
}

/// A reported crash keeps the view base: the dead app's stub took the
/// views of 2..=9 in before it asked whether its app was dead, so every
/// re-sent frame is a diff against frame 9's views. The first one steps
/// back over the switch loss at step 6, so it carries that switch, its
/// links and its hosts; the views whole are over 3 KB.
#[test]
fn a_crash_mid_window_keeps_the_view_base() {
    let (rig, crash, sizes) = crash_mid_window(true);
    assert!(matches!(crash, DeliverOutcome::Crashed { .. }));
    assert_eq!(rig.frames(), (1, 16, 0), "no frame carries the views whole");
    assert!(
        sizes[0] < 1_024,
        "re-sent delivery 3 put {} B on the wire",
        sizes[0]
    );
    for (id, size) in (4..).zip(&sizes[1..]) {
        assert!(
            *size < 512,
            "re-sent delivery {id} put {size} B on the wire"
        );
    }
}

/// A stub that does not report crashes is silent, and silence is a comm
/// failure: the proxy no longer knows what the stub holds, so the first
/// re-sent frame carries the views whole and the rest are diffs again.
#[test]
fn a_silent_crash_mid_window_resyncs_once() {
    let (rig, crash, sizes) = crash_mid_window(false);
    assert_eq!(crash, DeliverOutcome::CommFailure);
    assert_eq!(rig.frames(), (2, 15, 1), "one resync");
    assert!(sizes[0] > 2_000, "the first re-sent frame is whole");
    for (id, size) in (4..).zip(&sizes[1..]) {
        assert!(
            *size < 512,
            "re-sent delivery {id} put {size} B on the wire"
        );
    }
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
    let app = Box::new(ViewProbe {
        seen: seen.clone(),
        crash_at: Some(2),
    });
    let mut stub = InlineStub::new(app, StubConfig::default());
    // The answer to `frame`, if the stub gives one: it is queued by the
    // time `send` returns, or never.
    let mut reply = move |frame: Option<RpcMessage>| -> Option<RpcMessage> {
        if let Some(frame) = frame {
            stub.send(encode_frame(&frame)).unwrap();
        }
        let bytes = stub.try_recv().unwrap()?;
        Some(decode_frame(&bytes).unwrap())
    };
    let delta = |id: u64, base: u64, held: u64| RpcMessage::EventDeliverDelta {
        seq: id,
        event: Event::Tick(SimTime(id)),
        base,
        topology: history[held as usize].0.diff(&history[id as usize].0),
        devices: history[held as usize].1.diff(&history[id as usize].1),
        now: SimTime::ZERO,
    };
    assert!(matches!(reply(None), Some(RpcMessage::Register { .. })));
    // A diff before any views: nothing to apply it to.
    assert_eq!(reply(Some(delta(3, 2, 2))), None);
    let whole = RpcMessage::EventDeliver {
        seq: 1,
        event: Event::Tick(SimTime(1)),
        topology: history[1].0.clone(),
        devices: history[1].1.clone(),
        now: SimTime::ZERO,
    };
    assert!(matches!(
        reply(Some(whole)),
        Some(RpcMessage::EventAck { seq: 1, .. })
    ));
    assert!(matches!(
        reply(Some(delta(2, 1, 1))),
        Some(RpcMessage::Crashed { seq: 2, .. })
    ));
    // Dead: 3 and 4 get no answer, but their views are taken in...
    assert_eq!(reply(Some(delta(3, 2, 2))), None);
    assert_eq!(reply(Some(delta(4, 3, 3))), None);
    let restore = RpcMessage::RestoreRequest {
        seq: 5,
        bytes: Vec::new(),
    };
    assert!(matches!(
        reply(Some(restore)),
        Some(RpcMessage::RestoreAck { ok: true, .. })
    ));
    // ...so a diff against frame 4 lands on the right views,
    assert!(matches!(
        reply(Some(delta(6, 4, 4))),
        Some(RpcMessage::EventAck { seq: 6, .. })
    ));
    // and one against frame 4 again (the stub now holds 6) is refused.
    assert_eq!(reply(Some(delta(7, 4, 4))), None);
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
