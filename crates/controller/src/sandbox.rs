//! The fault wall: outside tests and the monolithic baseline (whose dying
//! with its apps is the point), a [`Sandbox`] is the only code that calls
//! into an app. Every call runs under `catch_unwind`, and so does every
//! drop of something the app handed back — the app itself, when the
//! sandbox goes, and a panic's payload, the moment it is caught. A panic
//! kills the app, which answers [`Fault::Dead`] uncalled until a restore
//! revives it.

use crate::app::{Command, Ctx, RestoreError, SdnApp};
use crate::event::{Event, EventKind};
use legosdn_codec::Snapshot;
use std::any::Any;
use std::borrow::Cow;
use std::cell::OnceCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Why a call into a sandboxed app returned nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Not called: dead of an earlier panic (or a kill) with this text.
    Dead(String),
    /// The app panicked in this call, and is dead from now on.
    Panicked(String),
    /// `restore` refused the bytes; the app is as it was.
    Rejected(RestoreError),
}

impl From<Fault> for String {
    /// The panic text, or the rejection: what a ticket names as the fault.
    fn from(fault: Fault) -> String {
        match fault {
            Fault::Dead(text) | Fault::Panicked(text) => text,
            Fault::Rejected(e) => e.to_string(),
        }
    }
}

/// What delivering one event to an app came to, wherever the app runs:
/// behind a sandbox here, or behind an AppVisor stub.
#[derive(Clone, Debug, PartialEq)]
pub enum DeliverOutcome {
    /// The app processed the event; here are its commands.
    Commands(Vec<Command>),
    /// The app crashed on this event (its sandbox or stub reported it).
    Crashed { panic_message: String },
    /// The stub did not answer in time — a communication failure, the
    /// paper's primary crash signal (isolated apps only).
    CommFailure,
}

impl DeliverOutcome {
    /// The outcome's stable trace-step label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            DeliverOutcome::Commands(_) => "ok",
            DeliverOutcome::Crashed { .. } => "crashed",
            DeliverOutcome::CommFailure => "comm_failure",
        }
    }
}

/// An app behind the fault wall.
pub struct Sandbox {
    app: Box<dyn SdnApp>,
    /// The text of the panic that killed the app, until a restore
    /// succeeds. A cell, because a panic in a `&self` read (`snapshot`,
    /// say) kills all the same.
    dead: OnceCell<Cow<'static, str>>,
}

impl Sandbox {
    /// Wall `app` off; it starts alive.
    #[must_use]
    pub fn new(app: Box<dyn SdnApp>) -> Self {
        Sandbox {
            app,
            dead: OnceCell::new(),
        }
    }

    /// Has the app died since its last successful restore?
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.dead.get().is_some()
    }

    /// The app's name and subscriptions.
    pub fn identity(&self) -> Result<(String, Vec<EventKind>), Fault> {
        wall(&self.dead, || {
            (self.app.name().to_string(), self.app.subscriptions())
        })
    }

    /// Deliver `event`; the app's commands land in `ctx`.
    pub fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) -> Result<(), Fault> {
        wall(&self.dead, || self.app.on_event(event, ctx))
    }

    /// The app's [`SdnApp::snapshot`].
    pub fn capture(&self) -> Result<Snapshot, Fault> {
        wall(&self.dead, || self.app.snapshot())
    }

    /// The app's [`SdnApp::restore`], which runs even a dead app: success
    /// revives it, a rejection leaves it as it was.
    pub fn revive(&mut self, bytes: &[u8]) -> Result<(), Fault> {
        let died_of = self.dead.take();
        wall(&self.dead, || self.app.restore(bytes))?.map_err(|rejected| {
            self.dead = died_of.map_or_else(OnceCell::new, OnceCell::from);
            Fault::Rejected(rejected)
        })
    }

    /// Kill the app without calling it, as a panic with `reason` would. A
    /// dead app keeps what it died of.
    pub fn kill(&mut self, reason: &str) {
        let _ = self.dead.set(Cow::Owned(reason.to_string()));
    }
}

impl Drop for Sandbox {
    /// The app's own `Drop` is app code too: it runs inside the wall.
    fn drop(&mut self) {
        let app = std::mem::replace(&mut self.app, Box::new(Gone));
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| drop(app))) {
            drop(panic_text(payload));
        }
    }
}

/// What a dropped sandbox holds in its app's place: a unit, so putting
/// it there allocates nothing. Nothing calls it.
struct Gone;

impl SdnApp for Gone {
    fn name(&self) -> &str {
        "gone"
    }
    fn subscriptions(&self) -> Vec<EventKind> {
        Vec::new()
    }
    fn on_event(&mut self, _event: &Event, _ctx: &mut Ctx<'_>) {}
    fn snapshot(&self) -> Snapshot {
        Snapshot::default()
    }
    fn restore(&mut self, _bytes: &[u8]) -> Result<(), RestoreError> {
        Ok(())
    }
}

/// Call into an app, unless it is `dead`; a panic kills it.
fn wall<T>(dead: &OnceCell<Cow<'static, str>>, call: impl FnOnce() -> T) -> Result<T, Fault> {
    if let Some(text) = dead.get() {
        return Err(Fault::Dead(text.to_string()));
    }
    catch_unwind(AssertUnwindSafe(call)).map_err(|payload| {
        let text = panic_text(payload);
        let _ = dead.set(text.clone());
        Fault::Panicked(text.into_owned())
    })
}

/// Render a caught panic's payload as text, consuming it: a `String` or
/// `&str` payload is the text; any other is dropped inside the wall,
/// since its `Drop` may be app code, and if that drop panics too, the
/// second payload is forgotten rather than dropped.
pub fn panic_text(payload: Box<dyn Any + Send>) -> Cow<'static, str> {
    let payload = match payload.downcast::<String>() {
        Ok(text) => return Cow::Owned(*text),
        Err(payload) => payload,
    };
    let payload = match payload.downcast::<&'static str>() {
        Ok(text) => return Cow::Borrowed(*text),
        Err(payload) => payload,
    };
    if let Err(again) = catch_unwind(AssertUnwindSafe(|| drop(payload))) {
        std::mem::forget(again);
    }
    Cow::Borrowed("<non-string panic payload>")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::services::{DeviceView, TopologyView};
    use legosdn_codec::{to_bytes, Codec, CodecError, Memo, Reader};
    use legosdn_netsim::SimTime;
    use legosdn_openflow::prelude::{DatapathId, Message};
    use legosdn_testkit::within;
    use std::time::Duration;

    /// Counts events into its state; panics in the one method named.
    struct Hostile {
        panics_in: &'static str,
        seen: u8,
    }

    impl Hostile {
        fn maybe_panic(&self, method: &str) {
            assert_ne!(self.panics_in, method, "hostile app panics in {method}");
        }
    }

    impl SdnApp for Hostile {
        fn name(&self) -> &str {
            self.maybe_panic("name");
            "hostile"
        }
        fn subscriptions(&self) -> Vec<EventKind> {
            self.maybe_panic("subscriptions");
            vec![EventKind::SwitchUp]
        }
        fn on_event(&mut self, _event: &Event, ctx: &mut Ctx<'_>) {
            self.maybe_panic("on_event");
            self.seen += 1;
            ctx.send(DatapathId(1), Message::BarrierRequest);
        }
        fn snapshot(&self) -> Snapshot {
            self.maybe_panic("snapshot");
            vec![self.seen].into()
        }
        fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
            self.maybe_panic("restore");
            match bytes {
                [seen] => {
                    self.seen = *seen;
                    Ok(())
                }
                _ => Err(RestoreError("one byte".into())),
            }
        }
    }

    fn sandbox(panics_in: &'static str) -> Sandbox {
        Sandbox::new(Box::new(Hostile { panics_in, seen: 0 }))
    }

    fn deliver(sb: &mut Sandbox) -> Result<usize, Fault> {
        let (topo, dev) = (TopologyView::default(), DeviceView::default());
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        sb.on_event(&Event::SwitchUp(DatapathId(1)), &mut ctx)?;
        Ok(ctx.commands().len())
    }

    #[test]
    fn a_healthy_app_passes_through() {
        let mut sb = sandbox("nothing");
        assert_eq!(
            sb.identity(),
            Ok(("hostile".to_string(), vec![EventKind::SwitchUp]))
        );
        assert_eq!(deliver(&mut sb), Ok(1));
        assert_eq!(sb.capture(), Ok(vec![1].into()));
        assert_eq!(sb.revive(&[0]), Ok(()));
        assert_eq!(sb.capture(), Ok(vec![0].into()));
        assert!(!sb.is_dead());
    }

    #[test]
    fn a_panic_in_any_method_kills_and_is_named_until_a_restore() {
        for method in ["name", "subscriptions", "on_event", "snapshot"] {
            let mut sb = sandbox(method);
            let fault = match method {
                "on_event" => deliver(&mut sb).unwrap_err(),
                "snapshot" => sb.capture().unwrap_err(),
                _ => sb.identity().unwrap_err(),
            };
            let text = format!("hostile app panics in {method}");
            assert!(
                matches!(&fault, Fault::Panicked(t) if t.contains(&text)),
                "{fault:?}"
            );
            assert!(sb.is_dead());
            // Dead: nothing runs, and every answer names the fault.
            assert!(matches!(deliver(&mut sb), Err(Fault::Dead(t)) if t.contains(&text)));
            assert!(matches!(sb.capture(), Err(Fault::Dead(t)) if t.contains(&text)));
            assert_eq!(sb.revive(&[0]), Ok(()));
            assert!(!sb.is_dead());
        }
    }

    #[test]
    fn a_panic_in_restore_kills_and_a_rejection_does_not() {
        let mut sb = sandbox("restore");
        assert!(matches!(sb.revive(&[0]), Err(Fault::Panicked(t)) if t.contains("restore")));
        assert!(sb.is_dead());
        assert!(matches!(deliver(&mut sb), Err(Fault::Dead(_))));

        let mut sb = sandbox("nothing");
        assert!(matches!(sb.revive(&[]), Err(Fault::Rejected(_))));
        assert_eq!(deliver(&mut sb), Ok(1), "a rejected restore kills nothing");
        let mut dead = sandbox("on_event");
        let _ = deliver(&mut dead);
        assert!(matches!(dead.revive(&[]), Err(Fault::Rejected(_))));
        assert!(
            matches!(deliver(&mut dead), Err(Fault::Dead(t)) if t.contains("on_event")),
            "a rejected restore revives nothing"
        );
    }

    /// Encodes by panicking.
    struct Bomb;

    impl Codec for Bomb {
        fn encode(&self, _out: &mut Vec<u8>) {
            panic!("bomb in the encoder");
        }
        fn decode(_r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Bomb)
        }
    }

    /// A memoized table, then a field whose encoding panics: the snapshot
    /// dies after the table was cut out of the encoder's buffer.
    #[derive(Codec)]
    struct Exploding {
        table: Memo<Vec<u32>>,
        bomb: Bomb,
    }

    impl SdnApp for Exploding {
        fn name(&self) -> &str {
            "exploding"
        }
        fn subscriptions(&self) -> Vec<EventKind> {
            Vec::new()
        }
        fn on_event(&mut self, _event: &Event, _ctx: &mut Ctx<'_>) {}
        fn snapshot(&self) -> Snapshot {
            Snapshot::of(self)
        }
        fn restore(&mut self, _bytes: &[u8]) -> Result<(), RestoreError> {
            Ok(())
        }
    }

    #[test]
    fn a_panic_mid_checkpoint_leaves_the_threads_encoder_as_it_was() {
        let table = Memo::new((0..100).collect::<Vec<u32>>());
        let plain = to_bytes(&table.to_vec()).unwrap();
        assert_eq!(to_bytes(&table).unwrap(), plain, "warms the memo");
        let sb = Sandbox::new(Box::new(Exploding {
            table: table.clone(),
            bomb: Bomb,
        }));
        assert!(matches!(sb.capture(), Err(Fault::Panicked(t)) if t.contains("bomb")));
        // This thread's next plain encode gets every byte, and its next
        // checkpoints carry nothing of the one that died.
        assert_eq!(to_bytes(&table).unwrap(), plain);
        assert_eq!(sandbox("nothing").capture(), Ok(vec![0].into()));
        let shared = Snapshot::of(&(7u8, table));
        let mut want = vec![7u8];
        want.extend_from_slice(&plain);
        assert_eq!(shared, want);
        assert_eq!(shared.to_vec(), want);
    }

    /// A panic payload whose own drop panics.
    struct PanicsWhenDropped;

    impl Drop for PanicsWhenDropped {
        fn drop(&mut self) {
            panic!("a payload's drop panics");
        }
    }

    /// Panics with a [`PanicsWhenDropped`] payload on its first event, and
    /// panics again when it is dropped itself.
    struct Booby;

    impl SdnApp for Booby {
        fn name(&self) -> &str {
            "booby"
        }
        fn subscriptions(&self) -> Vec<EventKind> {
            vec![EventKind::SwitchUp]
        }
        fn on_event(&mut self, _event: &Event, _ctx: &mut Ctx<'_>) {
            std::panic::panic_any(PanicsWhenDropped);
        }
        fn snapshot(&self) -> Snapshot {
            Snapshot::default()
        }
        fn restore(&mut self, _bytes: &[u8]) -> Result<(), RestoreError> {
            Ok(())
        }
    }

    impl Drop for Booby {
        fn drop(&mut self) {
            panic!("an app's drop panics");
        }
    }

    #[test]
    fn a_payload_whose_drop_panics_is_dropped_inside_the_wall() {
        within(Duration::from_secs(10), || {
            let mut sb = Sandbox::new(Box::new(Booby));
            let fault = deliver(&mut sb).unwrap_err();
            assert_eq!(fault, Fault::Panicked("<non-string panic payload>".into()));
            assert!(matches!(deliver(&mut sb), Err(Fault::Dead(_))));
        });
    }

    #[test]
    fn dropping_a_sandbox_whose_app_panics_in_drop_does_not_unwind() {
        within(Duration::from_secs(10), || {
            drop(Sandbox::new(Box::new(Booby)))
        });
    }

    #[test]
    fn a_kill_is_a_death_without_a_call_and_keeps_the_first_cause() {
        let mut sb = sandbox("nothing");
        sb.kill("killed");
        assert_eq!(sb.capture(), Err(Fault::Dead("killed".into())));
        sb.kill("again");
        assert_eq!(sb.capture(), Err(Fault::Dead("killed".into())));
        assert_eq!(sb.revive(&[0]), Ok(()));
        assert_eq!(deliver(&mut sb), Ok(1));
    }
}
