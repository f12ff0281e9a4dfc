//! `Memo`'s one failure mode is a stale remembered encoding. Drive a
//! `Memo`-bearing struct and a plain twin through the same random reads,
//! writes, clones, encodes and decodes, and demand identical bytes after
//! every step.

use legosdn_codec::{from_bytes, to_bytes, Codec, Memo};
use legosdn_testkit::{forall, Rng};
use std::collections::BTreeMap;

#[derive(Clone, Debug, Default, PartialEq, Codec)]
struct Plain {
    counter: u64,
    tables: BTreeMap<u32, BTreeMap<u16, u8>>,
    log: Vec<String>,
    tail: Option<u32>,
}

/// Same shape, same bytes: memoized per table and for the whole log.
#[derive(Clone, Debug, Default, PartialEq, Codec)]
struct Memoed {
    counter: u64,
    tables: BTreeMap<u32, Memo<BTreeMap<u16, u8>>>,
    log: Memo<Vec<String>>,
    tail: Option<u32>,
}

fn assert_in_step(plain: &Plain, memoed: &Memoed, what: &str) {
    assert_eq!(
        to_bytes(memoed).unwrap(),
        to_bytes(plain).unwrap(),
        "bytes diverged after {what}"
    );
}

/// One random operation applied to both twins. Returns its name.
fn step(rng: &mut Rng, plain: &mut Plain, memoed: &mut Memoed) -> &'static str {
    let table = rng.gen_range(0u32..4);
    let key = rng.gen_range(0u16..6);
    let value = rng.gen_range(0u8..3);
    match rng.gen_range(0u32..12) {
        0 => {
            plain.counter += 1;
            memoed.counter += 1;
            "plain field write"
        }
        1 => {
            plain.tables.entry(table).or_default().insert(key, value);
            memoed
                .tables
                .entry(table)
                .or_default()
                .make_mut()
                .insert(key, value);
            "table insert"
        }
        2 => {
            // The apps' idiom: look first, write only on change.
            let slot = memoed.tables.entry(table).or_default();
            if slot.get(&key) != Some(&value) {
                slot.make_mut().insert(key, value);
            }
            plain.tables.entry(table).or_default().insert(key, value);
            "compare-first insert"
        }
        3 => {
            if let Some(t) = plain.tables.get_mut(&table) {
                t.remove(&key);
            }
            if let Some(t) = memoed.tables.get_mut(&table) {
                t.make_mut().remove(&key);
            }
            "table remove"
        }
        4 => {
            plain.tables.remove(&table);
            memoed.tables.remove(&table);
            "table drop"
        }
        5 => {
            let line = rng.gen_name(0..5);
            plain.log.push(line.clone());
            memoed.log.make_mut().push(line);
            "log push"
        }
        6 => {
            // Borrowing mutably without changing anything must stay right.
            let _ = memoed.log.make_mut();
            if let Some(t) = memoed.tables.get_mut(&table) {
                let _ = t.make_mut();
            }
            "no-op make_mut"
        }
        7 => {
            // Reads go through Deref and see the twin's value.
            assert_eq!(*memoed.log, plain.log);
            for (k, t) in &memoed.tables {
                assert_eq!(**t, plain.tables[k]);
            }
            "read"
        }
        8 => {
            // Encode warms every memo; a later write must still show.
            let _ = to_bytes(memoed).unwrap();
            "encode"
        }
        9 => {
            *memoed = memoed.clone();
            *plain = plain.clone();
            "clone"
        }
        10 => {
            // Decode primes the memos from the input; then write at once.
            *memoed = from_bytes(&to_bytes(plain).unwrap()).unwrap();
            assert!(memoed.log.is_warm(), "decode primes the memo");
            plain.tables.entry(table).or_default().insert(key, value);
            memoed
                .tables
                .entry(table)
                .or_default()
                .make_mut()
                .insert(key, value);
            plain.log.clear();
            memoed.log.make_mut().clear();
            "decode then write"
        }
        _ => {
            plain.tail = rng.gen_option(|r| r.gen_range(0u32..9));
            memoed.tail = plain.tail;
            "tail write"
        }
    }
}

#[test]
fn memoized_twin_encodes_identically_after_every_step() {
    forall(200, |rng| {
        let (mut plain, mut memoed) = (Plain::default(), Memoed::default());
        assert_in_step(&plain, &memoed, "construction");
        for _ in 0..rng.gen_range(1usize..120) {
            let what = step(rng, &mut plain, &mut memoed);
            assert_in_step(&plain, &memoed, what);
            // The plain twin decodes from the memoized one's bytes: the
            // wrapper never reaches the wire.
            let back: Plain = from_bytes(&to_bytes(&memoed).unwrap()).unwrap();
            assert_eq!(back, plain, "after {what}");
        }
    });
}

#[test]
fn a_clone_and_its_original_diverge_independently() {
    forall(100, |rng| {
        let (mut plain_a, mut memo_a) = (Plain::default(), Memoed::default());
        for _ in 0..rng.gen_range(1usize..40) {
            step(rng, &mut plain_a, &mut memo_a);
        }
        // Clone while warm, then drive the two histories apart.
        let _ = to_bytes(&memo_a).unwrap();
        let (mut plain_b, mut memo_b) = (plain_a.clone(), memo_a.clone());
        for _ in 0..rng.gen_range(1usize..40) {
            if rng.gen_bool(0.5) {
                let what = step(rng, &mut plain_a, &mut memo_a);
                assert_in_step(&plain_a, &memo_a, what);
            } else {
                let what = step(rng, &mut plain_b, &mut memo_b);
                assert_in_step(&plain_b, &memo_b, what);
            }
        }
        assert_in_step(&plain_a, &memo_a, "divergence (original)");
        assert_in_step(&plain_b, &memo_b, "divergence (clone)");
    });
}
