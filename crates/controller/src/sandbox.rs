//! The fault wall: outside tests and the monolithic baseline (whose dying
//! with its apps is the point), a [`Sandbox`] is the only code that calls
//! into an app. Every call runs under `catch_unwind`; a panic kills the app,
//! which answers [`Fault::Dead`] uncalled until a restore revives it.

use crate::app::{Ctx, RestoreError, SdnApp};
use crate::event::{Event, EventKind};
use std::any::Any;
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

/// An app behind the fault wall.
pub struct Sandbox {
    app: Box<dyn SdnApp>,
    /// The panic that killed the app, until a restore succeeds: its
    /// payload, rendered only when asked. A cell, because a panic in a
    /// `&self` read (`snapshot`, say) kills all the same.
    dead: OnceCell<Box<dyn Any + Send>>,
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
    pub fn capture(&self) -> Result<Vec<u8>, Fault> {
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
        let _ = self.dead.set(Box::new(reason.to_string()));
    }
}

/// Call into an app, unless it is `dead`; a panic kills it.
fn wall<T>(dead: &OnceCell<Box<dyn Any + Send>>, call: impl FnOnce() -> T) -> Result<T, Fault> {
    if let Some(payload) = dead.get() {
        return Err(Fault::Dead(panic_text(&**payload)));
    }
    catch_unwind(AssertUnwindSafe(call)).map_err(|payload| {
        let text = panic_text(&*payload);
        let _ = dead.set(payload);
        Fault::Panicked(text)
    })
}

/// Render a panic payload as text (panics carry `String` or `&str`).
pub(crate) fn panic_text(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::services::{DeviceView, TopologyView};
    use legosdn_netsim::SimTime;
    use legosdn_openflow::prelude::{DatapathId, Message};

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
        fn snapshot(&self) -> Vec<u8> {
            self.maybe_panic("snapshot");
            vec![self.seen]
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
        assert_eq!(sb.capture(), Ok(vec![1]));
        assert_eq!(sb.revive(&[0]), Ok(()));
        assert_eq!(sb.capture(), Ok(vec![0]));
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
