//! Integration: the live ops endpoint over a real TCP socket.
//!
//! Starts `ObsServer` on an ephemeral port, drives a small fault campaign
//! through a full `LegoSdnRuntime`, and verifies what an external scraper
//! would see: `/metrics` parses under the Prometheus text grammar (with
//! hostile label values escaped), counters strictly increase between
//! scrapes, `/healthz` answers while live, graceful shutdown joins
//! every thread and closes the listener, and `/rollups`, `/traces/<id>`
//! and `/incidents` tell the same recovery story as `RuntimeStats`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use legosdn::crashpad::{CheckpointPolicy, CrashPadConfig, PolicyTable, TransformDirection};
use legosdn::prelude::*;

/// Raw-TCP fetch (the `curl` equivalent): returns `(status, body)`.
fn scrape(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to ops endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
        .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .expect("header/body separator");
    (status, body)
}

fn is_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Validate one `{...}` interior: `name="value"` pairs, comma-separated,
/// values escaping `\\`, `\"` and `\n` and containing no raw newline.
fn assert_valid_labels(s: &str, line: &str) {
    let mut chars = s.chars().peekable();
    loop {
        let mut name = String::new();
        while let Some(&c) = chars.peek() {
            if c.is_ascii_alphanumeric() || c == '_' {
                name.push(c);
                chars.next();
            } else {
                break;
            }
        }
        assert!(is_metric_name(&name), "bad label name in {line:?}");
        assert_eq!(chars.next(), Some('='), "expected '=' in {line:?}");
        assert_eq!(
            chars.next(),
            Some('"'),
            "expected opening quote in {line:?}"
        );
        loop {
            match chars.next() {
                Some('\\') => {
                    let esc = chars.next();
                    assert!(
                        matches!(esc, Some('\\' | '"' | 'n')),
                        "invalid escape \\{esc:?} in {line:?}"
                    );
                }
                Some('"') => break,
                Some(c) => assert_ne!(c, '\n', "raw newline inside label value: {line:?}"),
                None => panic!("unterminated label value in {line:?}"),
            }
        }
        match chars.next() {
            Some(',') => {}
            None => break,
            other => panic!("expected ',' or end after label, got {other:?} in {line:?}"),
        }
    }
}

/// Every line of the exposition must be a `# TYPE` comment or a
/// `name[{labels}] value` sample.
fn assert_valid_exposition(text: &str) {
    assert!(!text.is_empty(), "empty exposition");
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let parts: Vec<&str> = rest.split(' ').collect();
            assert_eq!(parts.len(), 2, "malformed TYPE comment: {line:?}");
            assert!(is_metric_name(parts[0]), "bad name in TYPE: {line:?}");
            assert!(
                matches!(parts[1], "counter" | "gauge" | "histogram"),
                "unknown metric type: {line:?}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment form: {line:?}");
        let (series, value) = line.rsplit_once(' ').expect("sample needs a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value in {line:?}"
        );
        match series.split_once('{') {
            None => assert!(is_metric_name(series), "bad metric name: {line:?}"),
            Some((name, labels)) => {
                assert!(is_metric_name(name), "bad metric name: {line:?}");
                let labels = labels.strip_suffix('}').expect("unclosed label braces");
                assert_valid_labels(labels, line);
            }
        }
    }
}

/// Parse every sample into `(series, value)` pairs for cross-scrape
/// comparison.
fn samples(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

fn sample(text: &str, series: &str) -> f64 {
    samples(text)
        .into_iter()
        .find(|(s, _)| s == series)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("series {series} not found"))
}

struct Campaign {
    net: Network,
    rt: LegoSdnRuntime,
    poison: MacAddr,
    src: MacAddr,
    dst: MacAddr,
}

impl Campaign {
    fn new() -> Self {
        Campaign::on(Obs::new())
    }

    /// Private obs instance (construction-time wiring): the endpoint
    /// must serve exactly this campaign, isolated from other tests in
    /// the process.
    fn on(obs: Obs) -> Self {
        let topo = Topology::linear(3, 1);
        let mut net = Network::new(&topo);
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            crashpad: CrashPadConfig {
                checkpoints: CheckpointPolicy {
                    interval: 2,
                    history: 8,
                    ..CheckpointPolicy::default()
                },
                policies: PolicyTable::with_default(CompromisePolicy::Absolute),
                transform_direction: TransformDirection::Decompose,
            },
            checker: Some(Checker::new(vec![
                Invariant::NoBlackHoles,
                Invariant::NoLoops,
            ])),
            obs: legosdn::ObsConfig::instance(obs),
            ..LegoSdnConfig::default()
        });
        let poison = topo.hosts[2].mac;
        rt.attach(Box::new(LearningSwitch::new())).unwrap();
        rt.attach(Box::new(FaultyApp::new(
            Box::new(ShortestPathRouter::new()),
            BugTrigger::OnEventKind(EventKind::SwitchDown),
            BugEffect::Crash,
        )))
        .unwrap();
        rt.run_cycle(&mut net);
        Campaign {
            src: topo.hosts[0].mac,
            dst: topo.hosts[1].mac,
            net,
            rt,
            poison,
        }
    }

    /// One campaign round: healthy traffic, a poisoned packet, and a
    /// switch bounce (the fail-stop trigger).
    fn round(&mut self) {
        for _ in 0..3 {
            self.net
                .inject(self.src, Packet::ethernet(self.src, self.dst))
                .unwrap();
            self.rt.run_cycle(&mut self.net);
        }
        self.net
            .inject(self.src, Packet::ethernet(self.src, self.poison))
            .unwrap();
        self.rt.run_cycle(&mut self.net);
        self.net.set_switch_up(DatapathId(2), false).unwrap();
        self.rt.run_cycle(&mut self.net);
        self.net.set_switch_up(DatapathId(2), true).unwrap();
        self.rt.run_cycle(&mut self.net);
    }
}

#[test]
fn live_endpoint_serves_a_fault_campaign() {
    let mut campaign = Campaign::new();
    let obs = campaign.rt.obs();
    // A hostile label exercising every escape the exposition format
    // defines: double-quote, backslash, newline.
    obs.counter("campaign", "weird_label_total", "a\"b\\c\nd")
        .inc();

    let server = ObsServer::start(obs.clone(), ServeConfig::ephemeral()).expect("bind endpoint");
    let addr = server.local_addr();

    campaign.round();

    // Liveness while the campaign runs.
    let (status, body) = scrape(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // First scrape: grammar-valid, hostile label escaped onto one line.
    let (status, first) = scrape(addr, "/metrics");
    assert_eq!(status, 200);
    assert_valid_exposition(&first);
    assert!(
        first.contains("legosdn_campaign_weird_label_total{label=\"a\\\"b\\\\c\\nd\"} 1"),
        "escaped hostile label missing:\n{first}"
    );
    assert!(sample(&first, "legosdn_core_dispatches") >= 1.0);

    // The campaign produced at least one reconstructed incident.
    let (status, incidents) = scrape(addr, "/incidents");
    assert_eq!(status, 200);
    assert!(
        incidents.contains("incident app="),
        "no incidents:\n{incidents}"
    );

    let (status, json) = scrape(addr, "/metrics.json");
    assert_eq!(status, 200);
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(json.contains("\"incidents\""));

    // More campaign rounds, then a second scrape: counters from both the
    // runtime and the endpoint itself must strictly increase.
    campaign.round();
    campaign.round();
    let (_, second) = scrape(addr, "/metrics");
    assert_valid_exposition(&second);
    for series in [
        "legosdn_core_dispatches",
        "legosdn_obsd_http_requests_total{label=\"200\"}",
    ] {
        let (a, b) = (sample(&first, series), sample(&second, series));
        assert!(b > a, "{series} must strictly increase: {a} then {b}");
    }

    // Graceful shutdown ordering: every thread joins (accept + 2 default
    // workers, none panicked or leaked), then the listener is closed.
    let joined = server.shutdown();
    assert_eq!(joined, 3, "accept loop + worker pool all joined");
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must be closed after shutdown"
    );
}

/// Sum of every `"key":<integer>` in a `/rollups` body: closed windows
/// plus the open one partition the deltas since the tracker's first
/// sample, however many window boundaries the run crossed.
fn rollup_total(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    json.match_indices(&needle)
        .map(|(at, _)| {
            let digits = &json[at + needle.len()..];
            let end = digits
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(digits.len());
            digits[..end].parse::<u64>().expect("integer rollup field")
        })
        .sum()
}

#[test]
fn rollups_traces_and_incidents_agree_with_the_runtime() {
    let obs = Obs::new();
    let server = ObsServer::start(obs.clone(), ServeConfig::ephemeral()).expect("bind endpoint");
    let addr = server.local_addr();

    // The tracker's first sample is taken before the runtime exists, so
    // every delta it reports afterwards is a total.
    let (status, empty) = scrape(addr, "/rollups");
    assert_eq!(status, 200);
    assert!(empty.contains("\"windows\":[]"), "fresh tracker: {empty}");
    assert_eq!(rollup_total(&empty, "cycles"), 0);

    let mut campaign = Campaign::on(obs.clone());
    campaign.round();
    campaign.round();
    let stats = campaign.rt.stats();
    assert!(stats.failstop_recoveries >= 1, "no crash recovered");

    let (status, rollups) = scrape(addr, "/rollups");
    assert_eq!(status, 200);
    assert_eq!(
        rollup_total(&rollups, "recoveries"),
        stats.failstop_recoveries
    );
    assert_eq!(rollup_total(&rollups, "cycles"), stats.cycles);
    assert_eq!(rollup_total(&rollups, "events"), stats.events_translated);
    assert_eq!(
        rollup_total(&rollups, "recovery_count"),
        stats.failstop_recoveries,
        "one timed restore per recovery"
    );

    // The recovery is also one causal trace, served by id with the
    // journal-reconstructed incident it overlaps.
    let episode = obs
        .traces()
        .into_iter()
        .find(|t| t.events.iter().any(|e| e.phase == "restore"))
        .expect("a trace holding the restore");
    let (status, list) = scrape(addr, "/traces");
    assert_eq!(status, 200);
    assert!(list.contains(&format!("\"id\":\"{}\"", episode.id)));
    let (status, detail) = scrape(addr, &format!("/traces/{}", episode.id));
    assert_eq!(status, 200);
    assert!(detail.contains("\"phase\":\"restore\""), "{detail}");
    assert!(detail.contains("incident app="), "no incident: {detail}");
    assert_eq!(scrape(addr, "/traces/0-notanumber").0, 404);

    let (status, incidents) = scrape(addr, "/incidents");
    assert_eq!(status, 200);
    let reconstructed = obs.incidents().len();
    assert!(reconstructed as u64 >= stats.failstop_recoveries);
    assert!(
        incidents.starts_with(&format!("{reconstructed} incident(s) reconstructed\n")),
        "{incidents}"
    );

    server.shutdown();
}
