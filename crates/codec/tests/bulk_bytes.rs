//! A byte array's body is one append and one copy (`u8`'s
//! `encode_slice`/`decode_vec`), and that changes nothing but the cost:
//! `Vec<u8>` is held against `Vec<Byte>`, a derived newtype that still
//! takes the per-element path, on seeded random arrays. Both encode to the
//! same bytes; at every cut of an encoding both decode to the same value
//! or both fail with `Eof`; and a length prefix past the input is `Eof`
//! for the bulk path before it reads a byte.

use legosdn_codec::{from_bytes, to_bytes, Codec, CodecError};
use legosdn_testkit::Rng;

/// One byte, decoded on its own: the per-element twin of `u8`.
#[derive(Clone, Copy, Debug, PartialEq, Codec)]
struct Byte(u8);

/// A value with a field after the array, so a body that reads too much
/// or too little shows at the next field.
type Bulk = (Vec<u8>, u16);
type PerElement = (Vec<Byte>, u16);

fn random_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0u16..256) as u8).collect()
}

/// Both encodings of `bytes` are equal, and every cut of them decodes
/// alike both ways: all of it to the value, any prefix to `Eof`.
fn holds_for(bytes: Vec<u8>, tail: u16) {
    let twin: PerElement = (bytes.iter().copied().map(Byte).collect(), tail);
    let value: Bulk = (bytes, tail);
    let encoded = to_bytes(&value).unwrap();
    assert_eq!(encoded, to_bytes(&twin).unwrap(), "len {}", value.0.len());
    assert_eq!(from_bytes::<Bulk>(&encoded), Ok(value.clone()));
    assert_eq!(from_bytes::<PerElement>(&encoded), Ok(twin));
    for cut in 0..encoded.len() {
        let prefix = &encoded[..cut];
        assert_eq!(
            from_bytes::<Bulk>(prefix),
            Err(CodecError::Eof),
            "len {} cut {cut}",
            value.0.len()
        );
        assert_eq!(
            from_bytes::<PerElement>(prefix),
            Err(CodecError::Eof),
            "len {} cut {cut}",
            value.0.len()
        );
    }
}

#[test]
fn bulk_and_per_element_bytes_agree_at_every_cut() {
    let mut rng = Rng::seed_from_u64(0xB17E5);
    for len in (0..=300).chain([4_095, 4_096, 4_097, 17_069]) {
        let bytes = random_bytes(&mut rng, len);
        holds_for(bytes, rng.gen_range(0u16..u16::MAX));
    }
}

#[test]
fn a_length_past_the_input_is_eof() {
    let mut rng = Rng::seed_from_u64(0xB17E6);
    for held in [0usize, 1, 7, 300, 4_096] {
        let body = random_bytes(&mut rng, held);
        for declared in [held as u64 + 1, held as u64 * 8 + 65, 1 << 31, u64::MAX] {
            let mut input = declared.to_le_bytes().to_vec();
            input.extend_from_slice(&body);
            assert_eq!(
                from_bytes::<Vec<u8>>(&input),
                Err(CodecError::Eof),
                "{declared} declared over {held} bytes"
            );
            assert_eq!(
                from_bytes::<Vec<Byte>>(&input),
                Err(CodecError::Eof),
                "{declared} declared over {held} bytes"
            );
        }
    }
}
