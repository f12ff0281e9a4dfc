//! [`Memo`] — a value that remembers its own encoding (DESIGN.md §15).
//!
//! A checkpoint re-serializes an app's whole state although one event
//! writes a small part of it. Wrapping a large, rarely-written piece of
//! state in a `Memo` makes encoding it a copy of the bytes remembered from
//! last time; only a write — which must go through [`Memo::make_mut`] —
//! forgets them. The bytes are exactly `T`'s, so wrapping a field changes
//! no snapshot.

use crate::{Codec, CodecError, Reader};
use std::fmt;
use std::ops::Deref;
use std::sync::OnceLock;

/// A `T` beside a lazily filled copy of its encoding.
///
/// The one rule that keeps the copy honest: there is no way to `&mut T`
/// except [`Memo::make_mut`], and `make_mut` drops the copy. Hence no
/// `DerefMut`, no public field, and interior mutability inside `T` is the
/// caller's bug.
pub struct Memo<T> {
    value: T,
    /// `value`'s encoding, if it was encoded or decoded since the last
    /// `make_mut`. `OnceLock` so `encode(&self)` can fill it and the
    /// wrapper stays `Send + Sync` with `T`.
    bytes: OnceLock<Box<[u8]>>,
}

impl<T> Memo<T> {
    /// Wrap `value`; nothing is remembered until the first encode.
    #[must_use]
    pub fn new(value: T) -> Self {
        Memo {
            value,
            bytes: OnceLock::new(),
        }
    }

    /// Write access. Forgets the remembered encoding whether or not the
    /// caller goes on to change anything, so compare before calling.
    pub fn make_mut(&mut self) -> &mut T {
        self.bytes.take();
        &mut self.value
    }

    /// Is an encoding currently remembered? (Tests and diagnostics.)
    #[must_use]
    pub fn is_warm(&self) -> bool {
        self.bytes.get().is_some()
    }
}

impl<T> Deref for Memo<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T: Default> Default for Memo<T> {
    fn default() -> Self {
        Memo::new(T::default())
    }
}

/// A clone's value equals the original's, so the remembered bytes carry.
impl<T: Clone> Clone for Memo<T> {
    fn clone(&self) -> Self {
        Memo {
            value: self.value.clone(),
            bytes: self.bytes.clone(),
        }
    }
}

impl<T: PartialEq> PartialEq for Memo<T> {
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
    }
}

impl<T: fmt::Debug> fmt::Debug for Memo<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.value.fmt(f)
    }
}

/// Encodes byte-for-byte as `T`.
impl<T: Codec> Codec for Memo<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        if let Some(bytes) = self.bytes.get() {
            out.extend_from_slice(bytes);
            return;
        }
        let start = out.len();
        self.value.encode(out);
        // A racing encoder computed the same bytes; either copy will do.
        let _ = self.bytes.set(out[start..].into());
    }

    /// Remembers the slice the value was read from, so the next encode of
    /// a restored value is already a copy. That slice is what `encode`
    /// would produce whenever the input came from `encode` — which is the
    /// only input this codec is specified for (it is not self-describing).
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let start = r.pos;
        let value = T::decode(r)?;
        Ok(Memo {
            value,
            bytes: OnceLock::from(Box::from(&r.input[start..r.pos])),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes};
    use std::collections::BTreeMap;

    fn table() -> BTreeMap<u32, String> {
        BTreeMap::from([(1, "a".to_string()), (2, "b".to_string())])
    }

    #[test]
    fn encodes_as_the_value_it_wraps() {
        let memo = Memo::new(table());
        assert!(!memo.is_warm());
        assert_eq!(to_bytes(&memo).unwrap(), to_bytes(&table()).unwrap());
        assert!(memo.is_warm(), "first encode fills the memo");
        // The second encode is the remembered copy; same bytes.
        assert_eq!(to_bytes(&memo).unwrap(), to_bytes(&table()).unwrap());
        let back: Memo<BTreeMap<u32, String>> = from_bytes(&to_bytes(&table()).unwrap()).unwrap();
        assert_eq!(*back, table());
    }

    #[test]
    fn make_mut_forgets_and_the_next_encode_sees_the_write() {
        let mut memo = Memo::new(table());
        let _ = to_bytes(&memo).unwrap();
        memo.make_mut().insert(3, "c".to_string());
        assert!(!memo.is_warm());
        let mut want = table();
        want.insert(3, "c".to_string());
        assert_eq!(to_bytes(&memo).unwrap(), to_bytes(&want).unwrap());
    }

    #[test]
    fn decode_primes_from_exactly_its_own_slice() {
        // Neighbours on both sides: the memo must hold only its own bytes.
        let bytes = to_bytes(&(7u16, table(), 9u8)).unwrap();
        let (a, memo, b): (u16, Memo<BTreeMap<u32, String>>, u8) = from_bytes(&bytes).unwrap();
        assert_eq!((a, b), (7, 9));
        assert!(memo.is_warm());
        assert_eq!(to_bytes(&memo).unwrap(), to_bytes(&table()).unwrap());
    }

    #[test]
    fn clone_carries_the_memo_and_equality_ignores_it() {
        let warm = Memo::new(table());
        let _ = to_bytes(&warm).unwrap();
        assert!(warm.clone().is_warm());
        let cold = Memo::new(table());
        assert_eq!(warm, cold);
        assert_eq!(format!("{warm:?}"), format!("{:?}", table()));
    }

    #[test]
    fn stays_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Memo<BTreeMap<u32, String>>>();
    }
}
