//! Every metric the benchmark emits, by name, with its unit and which
//! way is better. `BENCHMARK.json` at the repository root lists the same
//! names; `tests::benchmark_json_names_match` holds the two together.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may worsen
    /// before it counts as a regression.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The bounds are this host's noise: see README.md.
pub const END_TO_END: [EndToEnd; 6] = [
    gated("events_per_s", "1/s", Higher, 0.25),
    gated("cpu_us_per_event", "us", Lower, 0.25),
    gated("burst_p50_us", "us", Lower, 0.25),
    gated("allocs_per_event", "count", Lower, 0.05),
    gated("peak_heap_mb", "MB", Lower, 0.08),
    gated("setup_s", "s", Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 59] = [
    // Loop spans around the real runtime.
    layer("netsim.inject_ns_per_pkt", "ns", Lower),
    layer("core.run_cycle_ns_per_event", "ns", Lower),
    layer("netsim.tick_ns", "ns", Lower),
    layer("core.cycles_per_op", "count", Lower),
    layer("core.events_per_cycle", "count", Higher),
    layer("netsim.hit_bursts", "count", Higher),
    layer("netsim.table_hit_ratio", "%", Higher),
    layer("netsim.rules_final", "count", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("bench.burst_tail_us", "us", Lower),
    layer("bench.burst_tail_pct", "%", Higher),
    layer("bench.host_slowdown", "ratio", Lower),
    // Staged replay: layer self times per event; they sum to the total.
    layer("staged.total_ns_per_event", "ns", Lower),
    layer("netsim.offer_ns_per_event", "ns", Lower),
    layer("controller.translate_ns_per_event", "ns", Lower),
    layer("crashpad.self_ns_per_event", "ns", Lower),
    layer("apps.ns_per_event", "ns", Lower),
    layer("netlog.tx_ns_per_event", "ns", Lower),
    layer("invariants.check_ns_per_event", "ns", Lower),
    layer("staged.glue_ns_per_event", "ns", Lower),
    layer("staged.sum_error_pct", "%", Lower),
    layer("staged.checkpoint_check_share_pct", "%", Lower),
    layer("core.orchestration_ns_per_event", "ns", Lower),
    // Staged replay: per call.
    layer("crashpad.dispatch_ns_per_delivery", "ns", Lower),
    layer("apps.on_event_ns_per_delivery", "ns", Lower),
    layer("apps.snapshot_ns", "ns", Lower),
    layer("apps.snapshots_per_event", "count", Lower),
    layer("apps.snapshot_bytes", "B", Lower),
    layer("netlog.tx_ns_per_tx", "ns", Lower),
    layer("netlog.cmds_per_tx", "count", Lower),
    layer("invariants.check_ns_per_tx", "ns", Lower),
    layer("crashpad.recover_us_p50", "us", Lower),
    layer("crashpad.recoveries", "count", Lower),
    layer("crashpad.events_replayed", "count", Lower),
    // Replay probes over the recorded event and command streams.
    layer("netsim.apply_ns_per_cmd", "ns", Lower),
    layer("netlog.abort_ns_per_tx", "ns", Lower),
    layer("netlog.barrier_ns_per_pos", "ns", Lower),
    layer("invariants.check_ns", "ns", Lower),
    layer("openflow.encode_ns_per_msg", "ns", Lower),
    layer("openflow.decode_ns_per_msg", "ns", Lower),
    layer("openflow.bytes_per_msg", "B", Lower),
    layer("appvisor.rpc_encode_ns_per_frame", "ns", Lower),
    layer("appvisor.rpc_decode_ns_per_frame", "ns", Lower),
    layer("appvisor.deliver_frame_bytes", "B", Lower),
    layer("appvisor.deliver_rtt_us_p50.channel", "us", Lower),
    layer("appvisor.deliver_rtt_us_p50.udp", "us", Lower),
    layer("appvisor.snapshot_rtt_us_p50", "us", Lower),
    layer("appvisor.wire_bytes_per_event", "B", Lower),
    layer("appvisor.comm_failures", "count", Lower),
    layer("controller.view_clone_ns", "ns", Lower),
    layer("controller.mono_ns_per_event", "ns", Lower),
    // Config-delta mini-runs and direct obs calls.
    layer("core.ns_per_event.d1w1", "ns", Lower),
    layer("core.ns_per_event.d8w1", "ns", Lower),
    layer("core.ns_per_event.d8w2", "ns", Lower),
    layer("obs.tax_ns_per_event.on", "ns", Lower),
    layer("obs.tax_ns_per_event.traced", "ns", Lower),
    layer("obs.counter_lookup_ns", "ns", Lower),
    layer("obs.span_ns", "ns", Lower),
    layer("obs.allocs_per_counter_lookup", "count", Lower),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Per-name median over several value sets that share their names.
pub fn medians(sets: &[Values]) -> Values {
    let mut out = Values::new();
    if let Some(first) = sets.first() {
        for name in first.keys() {
            let column: Vec<f64> = sets.iter().map(|s| s[name]).collect();
            out.insert(name, crate::stats::median(&column));
        }
    }
    out
}

/// The result line the driver reads: one JSON object, every value with
/// all its digits.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'static str, &'static str, f64)>,
) -> String {
    let body: Vec<String> = metrics
        .map(|(name, unit, value)| {
            assert!(value.is_finite(), "{name} is not a number");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// The text of the array named `section`.
    fn array<'a>(json: &'a str, section: &str) -> &'a str {
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &json[start..];
        &body[..body.find(']').expect("section is an array")]
    }

    /// The string values of `"key"` inside the array named `section`.
    fn strings_in(json: &str, section: &str, key: &str) -> Vec<String> {
        let body = array(json, section);
        let needle = format!("\"{key}\"");
        body.match_indices(&needle)
            .map(|(at, _)| {
                let rest = &body[at + needle.len()..];
                let open = rest.find('"').expect("string value") + 1;
                let len = rest[open..].find('"').expect("closed string");
                rest[open..open + len].to_string()
            })
            .collect()
    }

    /// The numeric values of `"bound"` inside `end_to_end`.
    fn bounds_in(json: &str) -> Vec<f64> {
        let body = array(json, "end_to_end");
        body.match_indices("\"bound\"")
            .map(|(at, _)| {
                let rest = body[at + 7..].trim_start_matches([':', ' ']);
                let len = rest
                    .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                    .unwrap_or(rest.len());
                rest[..len].parse().expect("bound is a number")
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_match() {
        let json = include_str!("../../BENCHMARK.json");
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(strings_in(json, "workloads", "name"), workloads);
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(strings_in(json, "end_to_end", "name"), e2e);
        let units: Vec<&str> = END_TO_END.iter().map(|m| m.unit).collect();
        assert_eq!(strings_in(json, "end_to_end", "unit"), units);
        let better: Vec<&str> = END_TO_END.iter().map(|m| m.better.as_str()).collect();
        assert_eq!(strings_in(json, "end_to_end", "better"), better);
        let bounds: Vec<f64> = END_TO_END.iter().map(|m| m.bound).collect();
        assert_eq!(bounds_in(json), bounds);
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(strings_in(json, "per_layer", "name"), layers);
        let units: Vec<&str> = PER_LAYER.iter().map(|m| m.unit).collect();
        assert_eq!(strings_in(json, "per_layer", "unit"), units);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a metric name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 12, 0, [("a_s", "s", 0.25)].into_iter());
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"a_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
