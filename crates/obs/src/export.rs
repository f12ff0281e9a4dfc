//! Exporters: Prometheus text exposition (`/metrics`) and a JSON snapshot
//! (`/metrics.json`). Both hand-rolled over std — no serde, no formatting
//! crates.

use std::fmt::Write as _;

use crate::metrics::{Key, Registry};
use crate::timeline::{IncidentReport, Resolution};

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn metric_name(key: &Key) -> String {
    format!("legosdn_{}_{}", sanitize(&key.0), sanitize(&key.1))
}

/// Escape a label value per the Prometheus text exposition format:
/// backslash, double-quote, and line feed.
fn escape_label(label: &str) -> String {
    label
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn label_suffix(label: &str) -> String {
    if label.is_empty() {
        String::new()
    } else {
        format!("{{label=\"{}\"}}", escape_label(label))
    }
}

/// Prometheus text exposition (metric families sorted by key, `# TYPE`
/// comments, cumulative `le` buckets for histograms).
#[must_use]
pub fn prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    let mut last_family = String::new();
    for (key, value) in registry.counters() {
        let name = metric_name(&key);
        if name != last_family {
            let _ = writeln!(out, "# TYPE {name} counter");
            last_family = name.clone();
        }
        let _ = writeln!(out, "{name}{} {value}", label_suffix(&key.2));
    }
    for (key, value) in registry.gauges() {
        let name = metric_name(&key);
        if name != last_family {
            let _ = writeln!(out, "# TYPE {name} gauge");
            last_family = name.clone();
        }
        let _ = writeln!(out, "{name}{} {value}", label_suffix(&key.2));
    }
    for (key, summary, buckets) in registry.histograms() {
        let name = metric_name(&key);
        if name != last_family {
            let _ = writeln!(out, "# TYPE {name} histogram");
            last_family = name.clone();
        }
        let label = &key.2;
        let extra = if label.is_empty() {
            String::new()
        } else {
            format!(",label=\"{}\"", escape_label(label))
        };
        let mut cum = 0u64;
        for (le, count) in &buckets {
            cum += count;
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"{extra}}} {cum}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"{extra}}} {}", summary.count);
        let _ = writeln!(out, "{name}_sum{} {}", label_suffix(label), summary.sum);
        let _ = writeln!(out, "{name}_count{} {}", label_suffix(label), summary.count);
    }
    out
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn key_fields(key: &Key) -> String {
    format!(
        "\"component\":\"{}\",\"name\":\"{}\",\"label\":\"{}\"",
        json_escape(&key.0),
        json_escape(&key.1),
        json_escape(&key.2)
    )
}

/// JSON snapshot of every instrument, journal occupancy (`[total,
/// evicted, retained]` records), and the reconstructed incidents. Schema
/// is documented in DESIGN.md ("Observability").
#[must_use]
pub fn json_snapshot(
    registry: &Registry,
    journal: [u64; 3],
    incidents: &[IncidentReport],
) -> String {
    let mut out = String::from("{\n  \"counters\": [");
    let counters = registry.counters();
    for (i, (key, value)) in counters.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    {{{},\"value\":{value}}}", key_fields(key));
    }
    out.push_str("\n  ],\n  \"gauges\": [");
    let gauges = registry.gauges();
    for (i, (key, value)) in gauges.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    {{{},\"value\":{value}}}", key_fields(key));
    }
    out.push_str("\n  ],\n  \"histograms\": [");
    for (i, (key, s, _)) in registry.histograms().iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{{},\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\
             \"p99\":{},\"max\":{}}}",
            key_fields(key),
            s.count,
            s.sum,
            s.p50,
            s.p90,
            s.p99,
            s.max
        );
    }
    let _ = write!(
        out,
        "\n  ],\n  \"journal\": {{\"total\":{},\"evicted\":{},\"retained\":{}}},\n  \
         \"incidents\": [",
        journal[0], journal[1], journal[2]
    );
    for (i, inc) in incidents.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let resolution = match &inc.resolution {
            Resolution::Ticketed { failure } => format!("ticketed:{failure}"),
            Resolution::AppDead => "app_dead".to_string(),
            Resolution::Superseded => "superseded".to_string(),
            Resolution::Open => "open".to_string(),
        };
        let _ = write!(
            out,
            "{sep}\n    {{\"app\":\"{}\",\"detected_by\":\"{}\",\
             \"detection_seq\":{},\"detection_at_ns\":{},\
             \"detect_to_restore_ns\":{},\"detect_to_replay_ns\":{},\
             \"rules_rolled_back\":{},\"events_transformed\":{},\
             \"events_dropped\":{},\"resolution\":\"{}\",\"total_ns\":{}}}",
            json_escape(&inc.app),
            json_escape(inc.detected_by),
            inc.detection_seq,
            inc.detection_at_ns,
            inc.detection_to_restore_ns()
                .map_or("null".to_string(), |v| v.to_string()),
            inc.detection_to_replay_ns()
                .map_or("null".to_string(), |v| v.to_string()),
            inc.rules_rolled_back,
            inc.events_transformed,
            inc.events_dropped,
            json_escape(&resolution),
            inc.total_ns()
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{AppId, Journal, RecordKind};
    use crate::timeline::reconstruct;

    fn setup() -> (Registry, Journal) {
        let r = Registry::default();
        r.counter("core", "events_total", "").add(42);
        r.counter("netsim", "flow_install", "sw1").add(7);
        r.gauge("core", "apps_alive", "").set(3);
        let h = r.histogram("appvisor", "deliver_ns", "fwd");
        h.observe(100);
        h.observe(200_000);
        let mut j = Journal::new(16);
        let fwd = Some(AppId(0));
        j.push(10, None, fwd, RecordKind::AppCrash { detail: "p".into() });
        j.push(20, None, fwd, RecordKind::TicketFiled { failure: "fs" });
        (r, j)
    }

    #[test]
    fn prometheus_exposition_shape() {
        let (r, _) = setup();
        let text = prometheus(&r);
        assert!(text.contains("# TYPE legosdn_core_events_total counter"));
        assert!(text.contains("legosdn_core_events_total 42"));
        assert!(text.contains("legosdn_netsim_flow_install{label=\"sw1\"} 7"));
        assert!(text.contains("legosdn_core_apps_alive 3"));
        assert!(text.contains("# TYPE legosdn_appvisor_deliver_ns histogram"));
        assert!(text.contains("legosdn_appvisor_deliver_ns_count{label=\"fwd\"} 2"));
        assert!(text.contains("le=\"+Inf\",label=\"fwd\"}} 2".replace("}}", "}").as_str()));
        // Buckets are cumulative.
        let bucket_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("_bucket{le=\"") && !l.contains("+Inf"))
            .collect();
        assert_eq!(bucket_lines.len(), 2);
        assert!(bucket_lines[0].ends_with(" 1"));
        assert!(bucket_lines[1].ends_with(" 2"));
    }

    #[test]
    fn json_snapshot_shape() {
        let (r, j) = setup();
        let incidents = reconstruct(&j.snapshot(), &["fwd".to_string()]);
        let json = json_snapshot(&r, [j.total, j.evicted, 2], &incidents);
        assert!(json.contains("\"counters\""));
        assert!(json.contains(
            "\"component\":\"core\",\"name\":\"events_total\",\"label\":\"\",\"value\":42"
        ));
        assert!(json.contains("\"journal\": {\"total\":2,\"evicted\":0,\"retained\":2}"));
        assert!(json.contains("\"resolution\":\"ticketed:fs\""));
        assert!(json.contains("\"p50\""));
        // Balanced braces/brackets — cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn label_escaping_covers_backslash_quote_and_newline() {
        assert_eq!(escape_label(r"a\b"), r"a\\b");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
        let r = Registry::default();
        r.counter("core", "weird", "x\"y\\z\nw").inc();
        let h = r.histogram("core", "weird_ns", "x\"y\\z\nw");
        h.observe(7);
        let text = prometheus(&r);
        // The raw newline must never reach the exposition: every metric
        // stays on one line, with the escaped form in both the counter
        // suffix and the histogram bucket labels.
        assert!(text.lines().all(|l| !l.is_empty()));
        assert!(text.contains("legosdn_core_weird{label=\"x\\\"y\\\\z\\nw\"} 1"));
        assert!(text.contains("le=\"+Inf\",label=\"x\\\"y\\\\z\\nw\"}"));
    }

    /// Invert `escape_label` — the escaping must be lossless.
    fn unescape_label(s: &str) -> String {
        let mut out = String::new();
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        }
        out
    }

    #[test]
    fn label_escaping_roundtrips_tabs_backslash_runs_and_utf8() {
        // Adversarial fixed cases: tab (passes through raw — legal and
        // still single-line), backslash runs, multi-byte UTF-8 next to
        // the escaped bytes, and trailing backslash.
        for raw in [
            "a\tb",
            "run\\\\\\of\\backslashes\\",
            "π→∞ \"quoted\" \n tab\there λ",
            "\\n is literal backslash-n, not a newline",
            "mixed\n\t\"\\\u{1F500}",
        ] {
            let esc = escape_label(raw);
            assert!(!esc.contains('\n'), "raw newline survived in {esc:?}");
            assert_eq!(unescape_label(&esc), raw, "lossy escape of {raw:?}");
        }

        // Seeded property sweep over strings mixing ASCII, the three
        // escaped characters, tabs, and multi-byte code points.
        let alphabet: Vec<char> = "ab\"\\\n\tπλ✓\u{1F500}z".chars().collect();
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..200 {
            let len = (next() % 24) as usize;
            let raw: String = (0..len)
                .map(|_| alphabet[(next() as usize) % alphabet.len()])
                .collect();
            let esc = escape_label(&raw);
            // Single-line: the exposition writer relies on it.
            assert!(!esc.contains('\n'), "raw newline survived in {esc:?}");
            // Every '"' is preceded by a backslash, so the label value
            // never terminates the quoted suffix early.
            let bytes = esc.as_bytes();
            for (i, b) in bytes.iter().enumerate() {
                if *b == b'"' {
                    assert!(i > 0 && bytes[i - 1] == b'\\', "unescaped quote in {esc:?}");
                }
            }
            // Lossless.
            assert_eq!(unescape_label(&esc), raw, "lossy escape of {raw:?}");
        }
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
