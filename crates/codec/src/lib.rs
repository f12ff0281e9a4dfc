//! A compact, non-self-describing binary codec for application snapshots
//! and RPC frames — std-only, zero external dependencies.
//!
//! Crash-Pad's checkpoint primitive (the CRIU stand-in, DESIGN.md §2) is
//! "serialize the app's complete state before each event"; AppVisor's
//! proxy⇄stub RPC carries the same encoding on the wire. The format is
//! bincode-like: fixed-width little-endian integers, `u64` length-prefixed
//! sequences and strings, one-byte option/bool tags, and `u32` enum variant
//! indices. It is implemented locally because the build environment has no
//! registry access — the [`Codec`] derive replaces `serde` entirely.
//!
//! The format is not self-describing: decoding must use the same types as
//! encoding.
//!
//! [`Memo`] wraps a value so that encoding it again, unchanged, is a copy
//! of the bytes from last time — what makes a per-event checkpoint cost
//! what the event wrote.

// The derive macro emits `::legosdn_codec::…` paths; alias ourselves so
// `#[derive(Codec)]` also works inside this crate (mirrors serde's trick).
extern crate self as legosdn_codec;

pub use legosdn_codec_derive::Codec;

mod memo;
pub use memo::Memo;

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;

/// Encode `value` to bytes.
pub fn to_bytes<T: Codec>(value: &T) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    value.encode(&mut out);
    Ok(out)
}

/// Decode a `T` from bytes produced by [`to_bytes`].
pub fn from_bytes<T: Codec>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader {
        input: bytes,
        pos: 0,
    };
    let value = T::decode(&mut r)?;
    if r.pos != bytes.len() {
        return Err(CodecError::Trailing(bytes.len() - r.pos));
    }
    Ok(value)
}

/// Codec failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of input.
    Eof,
    /// Input bytes left over after a complete value.
    Trailing(usize),
    /// Structurally invalid input (bad tag, bad UTF-8, absurd length).
    Invalid(String),
    /// Caller-reported error.
    Message(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Eof => write!(f, "unexpected end of input"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes"),
            CodecError::Invalid(s) => write!(f, "invalid input: {s}"),
            CodecError::Message(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A cursor over input bytes.
pub struct Reader<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `input`, positioned at the start.
    #[must_use]
    pub fn new(input: &'a [u8]) -> Self {
        Reader { input, pos: 0 }
    }

    /// Take the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.input.len() - self.pos < n {
            return Err(CodecError::Eof);
        }
        let out = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read a `u64 LE` length prefix with a plausibility bound: a length
    /// can't exceed remaining bytes ×8 (every element is at least one
    /// byte, except units; allow slack).
    pub fn get_len(&mut self) -> Result<usize, CodecError> {
        let b = self.take(8)?;
        let len = u64::from_le_bytes(b.try_into().unwrap());
        let remaining = (self.input.len() - self.pos) as u64;
        if len > remaining.saturating_mul(8).saturating_add(64) {
            return Err(CodecError::Invalid(format!("length {len} implausible")));
        }
        Ok(len as usize)
    }
}

/// A value with a stable binary encoding.
pub trait Codec: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one value from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

macro_rules! num_codec {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(<$ty>::from_le_bytes(r.take(size_of::<$ty>())?.try_into().unwrap()))
            }
        }
    )*};
}

num_codec!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

// usize/isize travel as fixed 64-bit so snapshots are portable.
impl Codec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(u64::decode(r)? as usize)
    }
}

impl Codec for isize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as i64).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(i64::decode(r)? as isize)
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Invalid(format!("bool tag {other}"))),
        }
    }
}

impl Codec for f32 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(f32::from_bits(u32::decode(r)?))
    }
}

impl Codec for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Codec for char {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u32).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let v = u32::decode(r)?;
        char::from_u32(v).ok_or_else(|| CodecError::Invalid(format!("char {v}")))
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.get_len()?;
        let bytes = r.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| CodecError::Invalid("non-UTF-8 string".into()))
    }
}

impl Codec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(())
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(CodecError::Invalid(format!("option tag {other}"))),
        }
    }
}

impl<T: Codec> Codec for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Box::new(T::decode(r)?))
    }
}

/// Shared values encode exactly as the value they point at: sharing is
/// a property of the process, not of the bytes.
impl<T: Codec> Codec for std::sync::Arc<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(std::sync::Arc::new(T::decode(r)?))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.get_len()?;
        let mut v = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<T: Codec> Codec for std::collections::VecDeque<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.get_len()?;
        let mut v = std::collections::VecDeque::with_capacity(len.min(4096));
        for _ in 0..len {
            v.push_back(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // Arrays encode as fixed-length tuples: no length prefix.
        let mut v = Vec::with_capacity(N);
        for _ in 0..N {
            v.push(T::decode(r)?);
        }
        v.try_into().map_err(|_| CodecError::Eof)
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.get_len()?;
        let mut m = BTreeMap::new();
        for _ in 0..len {
            m.insert(K::decode(r)?, V::decode(r)?);
        }
        Ok(m)
    }
}

impl<K: Codec + Eq + Hash, V: Codec> Codec for HashMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        // Deterministic encoding requires a stable order; collect and sort
        // by encoded key bytes.
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = self
            .iter()
            .map(|(k, v)| {
                let (mut kb, mut vb) = (Vec::new(), Vec::new());
                k.encode(&mut kb);
                v.encode(&mut vb);
                (kb, vb)
            })
            .collect();
        entries.sort();
        out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for (kb, vb) in entries {
            out.extend_from_slice(&kb);
            out.extend_from_slice(&vb);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.get_len()?;
        let mut m = HashMap::with_capacity(len.min(4096));
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

impl<T: Codec + Ord> Codec for BTreeSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.get_len()?;
        let mut s = BTreeSet::new();
        for _ in 0..len {
            s.insert(T::decode(r)?);
        }
        Ok(s)
    }
}

impl<T: Codec + Eq + Hash + Ord> Codec for HashSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort();
        out.extend_from_slice(&(items.len() as u64).to_le_bytes());
        for v in items {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.get_len()?;
        let mut s = HashSet::with_capacity(len.min(4096));
        for _ in 0..len {
            s.insert(T::decode(r)?);
        }
        Ok(s)
    }
}

macro_rules! tuple_codec {
    ($(($($n:tt $t:ident),+)),+ $(,)?) => {$(
        impl<$($t: Codec),+> Codec for ($($t,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$n.encode(out);)+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(($($t::decode(r)?,)+))
            }
        }
    )+};
}

tuple_codec!(
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
    (0 A, 1 B, 2 C, 3 D, 4 E),
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F),
);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + fmt::Debug>(value: T) {
        let bytes = to_bytes(&value).expect("encode");
        let back: T = from_bytes(&bytes).expect("decode");
        assert_eq!(back, value);
    }

    #[derive(Codec, PartialEq, Debug)]
    struct Nested {
        name: String,
        items: Vec<(u32, bool)>,
        lookup: BTreeMap<String, u64>,
        maybe: Option<Box<Nested>>,
    }

    #[derive(Codec, PartialEq, Debug)]
    enum Shape {
        Unit,
        Newtype(u32),
        Tuple(u8, String),
        Struct { x: i64, y: Option<f64> },
    }

    #[derive(Codec, PartialEq, Debug)]
    struct Pair(pub u32, pub String);

    #[derive(Codec, PartialEq, Debug, Default)]
    struct Skippy {
        kept: u64,
        #[codec(skip)]
        scratch: u64,
    }

    #[test]
    fn primitives() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-123i32);
        roundtrip(i64::MIN);
        roundtrip(true);
        roundtrip(false);
        roundtrip('\u{1F980}');
        roundtrip(3.25f32);
        roundtrip(-0.0f64);
        roundtrip(String::from("hello snapshot"));
        roundtrip(String::new());
        roundtrip(7usize);
    }

    #[test]
    fn collections() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<String>::new());
        roundtrip(BTreeMap::from([
            ("a".to_string(), 1u8),
            ("b".to_string(), 2),
        ]));
        roundtrip((1u8, "x".to_string(), vec![true, false]));
        roundtrip(Some(vec![Some(1u16), None]));
        roundtrip([1u8, 2, 3, 4, 5, 6]);
        roundtrip(HashMap::from([
            (1u32, "a".to_string()),
            (2, "b".to_string()),
        ]));
        roundtrip(BTreeSet::from([3u16, 1, 2]));
    }

    #[test]
    fn arc_encodes_as_its_pointee() {
        let plain = BTreeMap::from([(1u32, "a".to_string())]);
        let shared = std::sync::Arc::new(plain.clone());
        assert_eq!(to_bytes(&shared).unwrap(), to_bytes(&plain).unwrap());
        roundtrip(shared);
    }

    #[test]
    fn structs_and_enums() {
        roundtrip(Nested {
            name: "root".into(),
            items: vec![(1, true), (2, false)],
            lookup: BTreeMap::from([("k".to_string(), 9u64)]),
            maybe: Some(Box::new(Nested {
                name: "leaf".into(),
                items: vec![],
                lookup: BTreeMap::new(),
                maybe: None,
            })),
        });
        roundtrip(Shape::Unit);
        roundtrip(Shape::Newtype(7));
        roundtrip(Shape::Tuple(1, "t".into()));
        roundtrip(Shape::Struct {
            x: -5,
            y: Some(2.5),
        });
        roundtrip(vec![Shape::Unit, Shape::Newtype(1)]);
        roundtrip(Pair(9, "p".into()));
    }

    #[test]
    fn variant_indices_are_stable_u32() {
        assert_eq!(to_bytes(&Shape::Unit).unwrap(), 0u32.to_le_bytes());
        let bytes = to_bytes(&Shape::Newtype(7)).unwrap();
        assert_eq!(&bytes[..4], 1u32.to_le_bytes());
        assert_eq!(&bytes[4..], 7u32.to_le_bytes());
    }

    #[test]
    fn skip_fields_are_not_encoded_and_default_on_decode() {
        let v = Skippy {
            kept: 5,
            scratch: 99,
        };
        let bytes = to_bytes(&v).unwrap();
        assert_eq!(bytes.len(), 8, "only `kept` travels");
        let back: Skippy = from_bytes(&bytes).unwrap();
        assert_eq!(back.kept, 5);
        assert_eq!(back.scratch, 0, "skipped field defaults");
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = to_bytes(&vec![1u64, 2, 3]).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                from_bytes::<Vec<u64>>(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_input_errors() {
        let mut bytes = to_bytes(&7u32).unwrap();
        bytes.push(0);
        assert_eq!(from_bytes::<u32>(&bytes), Err(CodecError::Trailing(1)));
    }

    #[test]
    fn bad_tags_error() {
        assert!(from_bytes::<bool>(&[7]).is_err());
        assert!(from_bytes::<Option<u8>>(&[9, 1]).is_err());
        // Absurd length prefix.
        let mut bytes = u64::MAX.to_le_bytes().to_vec();
        bytes.push(0);
        assert!(from_bytes::<String>(&bytes).is_err());
        // Out-of-range enum variant.
        assert!(from_bytes::<Shape>(&99u32.to_le_bytes()).is_err());
    }

    #[test]
    fn type_confusion_is_detected_or_differs() {
        // Not self-describing: decoding as the wrong type either errors or
        // yields different bytes — it must never panic.
        let bytes = to_bytes(&("abc".to_string(), 42u64)).unwrap();
        let _ = from_bytes::<Vec<u8>>(&bytes);
        let _ = from_bytes::<u64>(&bytes);
    }
}
