//! Property: the recovery-timeline invariants of `timeline_property` also
//! hold when the journal ring evicts its oldest records, so the snapshot
//! starts mid-history: outcomes whose detection was evicted, transactions
//! whose begin was evicted.

mod timeline_property;

#[test]
fn any_interleaving_yields_ordered_non_overlapping_incidents() {
    timeline_property::check(200, &["alpha", "beta", "gamma"], 48, 240);
}
