//! Indexed ≡ linear flow-table equivalence (DESIGN.md §12).
//!
//! Drives seeded random flow-mod/packet/expire sequences through the
//! two-tier indexed [`FlowTable`] and the retained [`LinearFlowTable`]
//! reference, asserting after every operation that both report identical
//! outcomes, lookups, stats, expirations, and snapshot filters — and that
//! equal logical state still encodes to byte-identical `Codec` output that
//! survives a decode/re-encode round-trip through the index rebuild.
//!
//! The generators deliberately use tiny value universes so exact matches
//! collide with wildcards, prefixes mask the same networks at different
//! lengths, and same-priority ties exercise the insertion-seq tiebreak.

use legosdn_netsim::{FlowTable, LinearFlowTable, SimDuration, SimTime};
use legosdn_openflow::prelude::{
    Action, EtherType, FlowMod, FlowModCommand, Ipv4Addr, MacAddr, Match, Packet, PortNo, VlanId,
};
use legosdn_testkit::Rng;

fn mac(rng: &mut Rng) -> MacAddr {
    MacAddr::from_index(rng.gen_range(1..5u64))
}

fn ip(rng: &mut Rng) -> Ipv4Addr {
    Ipv4Addr::from_index(rng.gen_range(1..5u32))
}

fn port(rng: &mut Rng) -> PortNo {
    PortNo::Phys(rng.gen_range(1..5u16))
}

fn tport(rng: &mut Rng) -> u16 {
    *rng.pick(&[80, 443, 4000])
}

fn packet(rng: &mut Rng) -> Packet {
    match rng.gen_range(0..5u32) {
        0 => Packet::ethernet(mac(rng), mac(rng)),
        1 => Packet::arp(mac(rng), mac(rng), ip(rng), ip(rng)),
        2 => Packet::icmp(mac(rng), mac(rng), ip(rng), ip(rng)),
        3 => Packet::udp(mac(rng), mac(rng), ip(rng), ip(rng), tport(rng), tport(rng)),
        _ => Packet::tcp(mac(rng), mac(rng), ip(rng), ip(rng), tport(rng), tport(rng)),
    }
}

/// A match drawn to stress both tiers: sometimes a packet's own
/// fully-concrete fingerprint, sometimes that fingerprint with one field
/// widened (dropped or prefix-shortened) so it lands in the wildcard tier
/// while still overlapping the exact population, sometimes sparse.
fn gen_match(rng: &mut Rng) -> Match {
    match rng.gen_range(0..4u32) {
        0 => {
            // Fully concrete (exact tier whenever the packet is TCP/UDP).
            Match::from_packet(&packet(rng), port(rng))
        }
        1 => {
            // Concrete, then widened along one axis.
            let mut m = Match::from_packet(&packet(rng), port(rng));
            match rng.gen_range(0..6u32) {
                0 => m.in_port = None,
                1 => m.eth_src = None,
                2 => m.tp_src = None,
                3 => m.ip_src = m.ip_src.map(|(n, _)| (n, *rng.pick(&[8, 16, 24]))),
                4 => m.ip_dst = m.ip_dst.map(|(n, _)| (n, *rng.pick(&[24, 40]))),
                _ => m.vlan_pcp = None,
            }
            m
        }
        2 => Match::any(),
        _ => {
            // Sparse random fields.
            let mut m = Match::any();
            if rng.gen_bool(0.5) {
                m.eth_dst = Some(mac(rng));
            }
            if rng.gen_bool(0.3) {
                m.in_port = Some(port(rng));
            }
            if rng.gen_bool(0.3) {
                m.eth_type = Some(EtherType::Ipv4);
                m.ip_dst = Some((ip(rng), *rng.pick(&[16, 24, 32])));
            }
            if rng.gen_bool(0.2) {
                m.vlan = Some(*rng.pick(&[VlanId::NONE, VlanId(10)]));
            }
            m
        }
    }
}

fn gen_flow_mod(rng: &mut Rng) -> FlowMod {
    let mut fm = FlowMod::add(gen_match(rng));
    fm.command = *rng.pick(&[
        FlowModCommand::Add,
        FlowModCommand::Add,
        FlowModCommand::Add,
        FlowModCommand::Add,
        FlowModCommand::Modify,
        FlowModCommand::ModifyStrict,
        FlowModCommand::Delete,
        FlowModCommand::DeleteStrict,
    ]);
    fm.priority = *rng.pick(&[1, 5, 5, 9, 100]);
    fm.cookie = rng.gen_range(0..8u64);
    if rng.gen_bool(0.3) {
        fm.idle_timeout = rng.gen_range(1..6u16);
    }
    if rng.gen_bool(0.3) {
        fm.hard_timeout = rng.gen_range(1..10u16);
    }
    fm.send_flow_removed = rng.gen_bool(0.3);
    if matches!(fm.command, FlowModCommand::Add) {
        fm.check_overlap = rng.gen_bool(0.2);
    }
    if matches!(
        fm.command,
        FlowModCommand::Delete | FlowModCommand::DeleteStrict
    ) && rng.gen_bool(0.3)
    {
        fm.out_port = port(rng);
    }
    fm.actions = vec![Action::Output(port(rng))];
    fm
}

fn assert_same_state(indexed: &FlowTable, linear: &LinearFlowTable, ctx: &str) {
    assert_eq!(indexed.len(), linear.len(), "{ctx}: len");
    assert_eq!(indexed.stats(), linear.stats(), "{ctx}: stats");
    let a: Vec<_> = indexed.iter().cloned().collect();
    let b: Vec<_> = linear.iter().cloned().collect();
    assert_eq!(a, b, "{ctx}: entries in table order");
    let ab = legosdn_codec::to_bytes(indexed).unwrap();
    let bb = legosdn_codec::to_bytes(linear).unwrap();
    assert_eq!(ab, bb, "{ctx}: encodings");
    // The index rebuilt from the wire bytes must re-encode identically.
    let back: FlowTable = legosdn_codec::from_bytes(&ab).unwrap();
    assert_eq!(
        legosdn_codec::to_bytes(&back).unwrap(),
        ab,
        "{ctx}: re-encode"
    );
}

fn run_sequence(seed: u64, ops: usize) {
    let mut rng = Rng::seed_from_u64(seed);
    let cap = if rng.gen_bool(0.5) { 0 } else { 24 };
    let mut indexed = FlowTable::with_capacity(cap);
    let mut linear = LinearFlowTable::with_capacity(cap);
    let mut now = SimTime::ZERO;
    for op in 0..ops {
        let ctx = format!("seed {seed} op {op}");
        match rng.gen_range(0..10u32) {
            0..=3 => {
                let fm = gen_flow_mod(&mut rng);
                let a = indexed.apply(&fm, now);
                let b = linear.apply(&fm, now);
                assert_eq!(a, b, "{ctx}: apply {fm:?}");
                assert!(indexed.index_is_consistent(), "{ctx}: tiers after apply");
            }
            4..=6 => {
                let p = packet(&mut rng);
                let in_port = port(&mut rng);
                assert_eq!(
                    indexed.peek(&p, in_port).cloned(),
                    linear.peek(&p, in_port).cloned(),
                    "{ctx}: peek"
                );
                assert_eq!(
                    indexed.lookup(&p, in_port, now).cloned(),
                    linear.lookup(&p, in_port, now).cloned(),
                    "{ctx}: lookup"
                );
            }
            7 => {
                now += SimDuration::from_micros(rng.gen_range(1..3_000_000u64));
                assert_eq!(indexed.expire(now), linear.expire(now), "{ctx}: expire");
                assert!(indexed.index_is_consistent(), "{ctx}: tiers after expire");
            }
            8 => {
                let m = gen_match(&mut rng);
                let op_filter = if rng.gen_bool(0.3) {
                    port(&mut rng)
                } else {
                    PortNo::None
                };
                assert_eq!(
                    indexed.snapshot_matching(&m, op_filter, now),
                    linear.snapshot_matching(&m, op_filter, now),
                    "{ctx}: snapshot_matching"
                );
            }
            _ => {
                let m = gen_match(&mut rng);
                let pri = *rng.pick(&[1, 5, 9, 100]);
                assert_eq!(
                    indexed.restore_counters(&m, pri, 11, 1100),
                    linear.restore_counters(&m, pri, 11, 1100),
                    "{ctx}: restore_counters"
                );
            }
        }
        if op % 25 == 0 || op + 1 == ops {
            assert_same_state(&indexed, &linear, &ctx);
        }
    }
}

#[test]
fn indexed_equals_linear_across_seeds() {
    for seed in 0..32 {
        run_sequence(seed, 400);
    }
}

#[test]
fn indexed_equals_linear_long_haul() {
    // Fewer seeds, longer sequences: deeper tables, more expiry churn.
    for seed in 100..104 {
        run_sequence(seed, 2000);
    }
}

/// Host `i`'s TCP flow towards host 1.
fn flow_packet(i: u32) -> Packet {
    Packet::tcp(
        MacAddr::from_index(u64::from(i)),
        MacAddr::from_index(1),
        Ipv4Addr::from_index(i),
        Ipv4Addr::from_index(1),
        4000,
        80,
    )
}

/// That flow arriving on port 1: fully concrete, so it lands in the
/// exact tier, one bucket per `i`.
fn exact_match(i: u32) -> Match {
    Match::from_packet(&flow_packet(i), PortNo::Phys(1))
}

fn timed(mat: Match, priority: u16, idle: u16, hard: u16) -> FlowMod {
    let mut fm = FlowMod::add(mat);
    fm.priority = priority;
    fm.idle_timeout = idle;
    fm.hard_timeout = hard;
    fm.send_flow_removed = priority == 9;
    fm.actions = vec![Action::Output(PortNo::Phys(2))];
    fm
}

#[test]
fn one_pass_expiring_most_of_a_large_table() {
    let mut indexed = FlowTable::default();
    let mut linear = LinearFlowTable::default();
    let t0 = SimTime::ZERO;
    let mut both = |fm: FlowMod| {
        assert_eq!(indexed.apply(&fm, t0), linear.apply(&fm, t0));
    };
    // 400 exact buckets holding two priorities each, with every mix of
    // short / long / absent idle and hard timeouts; 200 wildcard entries
    // (host `i`'s destination MAC) on the same schedule.
    for i in 0..400u32 {
        let (idle, hard) = [(2, 0), (0, 3), (2, 50), (50, 0), (0, 0)][i as usize % 5];
        both(timed(exact_match(i + 2), 5, idle, hard));
        both(timed(exact_match(i + 2), 9, hard, idle));
    }
    for i in 0..200u32 {
        let (idle, hard) = [(3, 0), (0, 2), (0, 0)][i as usize % 3];
        both(timed(
            Match::eth_dst(MacAddr::from_index(u64::from(i))),
            5,
            idle,
            hard,
        ));
    }
    assert_eq!(indexed.len(), 1000);

    let now = t0 + SimDuration::from_secs(4);
    let gone = indexed.expire(now);
    assert_eq!(gone, linear.expire(now));
    assert!(gone.len() > 500, "{} expired", gone.len());
    assert!(indexed.index_is_consistent());
    assert_same_state(&indexed, &linear, "after mass expiry");

    // The survivors still answer lookups the way the reference does.
    for i in 0..400u32 {
        let p = flow_packet(i + 2);
        assert_eq!(
            indexed.lookup(&p, PortNo::Phys(1), now).cloned(),
            linear.lookup(&p, PortNo::Phys(1), now).cloned()
        );
    }
}

#[test]
fn expiry_empties_a_bucket_the_next_install_recreates() {
    let mut indexed = FlowTable::default();
    let mut linear = LinearFlowTable::default();
    let mut now = SimTime::ZERO;
    for round in 0..3 {
        let fm = timed(exact_match(7), 5, 1, 0);
        assert_eq!(indexed.apply(&fm, now), linear.apply(&fm, now));
        assert!(indexed.index_is_consistent(), "round {round}: installed");
        now += SimDuration::from_secs(2);
        let gone = indexed.expire(now);
        assert_eq!(gone.len(), 1, "round {round}");
        assert_eq!(gone, linear.expire(now));
        assert!(indexed.is_empty());
        assert!(indexed.index_is_consistent(), "round {round}: expired");
    }
    assert_same_state(&indexed, &linear, "after three rounds");
}
