//! Property: the recovery-timeline invariants of `timeline_property` hold
//! for any interleaving of journal records that fits in the ring.

mod timeline_property;

#[test]
fn any_interleaving_yields_ordered_non_overlapping_incidents() {
    timeline_property::check(256, &["fwd", "lb", "fw", "mon"], 512, 120);
}
