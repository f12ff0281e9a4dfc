//! [`Snapshot`] — a checkpoint stored shared (DESIGN.md §15).
//!
//! A checkpoint is one byte sequence: exactly what [`crate::to_bytes`]
//! returns for the same value. It is *stored* as the few plain bytes an
//! event rewrites, held inline, and the outermost [`crate::Memo`]s' encodings,
//! held by handle. A checkpoint taken after an event that wrote no
//! memoized state therefore copies the plain bytes and clones the
//! handles; it does not copy the memos' bytes.
//!
//! The sharing is scoped: while [`Snapshot::of`] encodes, this thread
//! remembers the one buffer it encodes into, and a memo encoded straight
//! into that buffer is recorded by handle instead of appended. Every other
//! buffer — a nested [`crate::to_bytes`], a frame, a cold memo encoding its
//! own value — gets the bytes. The state is set only through [`Scope`],
//! whose `Drop` puts it back, so a panic in the middle of an encode leaves
//! the thread as it found it.

use crate::{Codec, CodecError, Reader};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::Arc;

/// A memo recorded by handle: the offset into the plain bytes it sits at,
/// and its encoding.
type Cut = (usize, Arc<[u8]>);

thread_local! {
    /// The buffer a [`Snapshot::of`] on this thread is cutting memos out
    /// of, or null. Written only by [`Scope`].
    static CUTTING: Cell<*const Vec<u8>> = const { Cell::new(std::ptr::null()) };
    /// The memos cut so far, innermost `Snapshot::of` last.
    static CUTS: RefCell<Vec<Cut>> = const { RefCell::new(Vec::new()) };
}

/// This thread's sharing state for as long as the guard lives: entered
/// with the buffer to cut memos out of (or null, to share nothing), put
/// back as it was on drop, unwinding included, with any cut made inside
/// and not taken dropped too.
struct Scope {
    previous: *const Vec<u8>,
    cuts_from: usize,
}

impl Scope {
    fn enter(buffer: *const Vec<u8>) -> Scope {
        Scope {
            previous: CUTTING.replace(buffer),
            cuts_from: CUTS.with_borrow(Vec::len),
        }
    }

    /// The cuts made inside this scope, in order.
    fn take_cuts(&self) -> Shared {
        CUTS.with_borrow_mut(|cuts| {
            if cuts.len() == self.cuts_from + 1 {
                Shared::One(cuts.pop().expect("one cut"))
            } else {
                Shared::Many(cuts.drain(self.cuts_from..).collect())
            }
        })
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        CUTTING.set(self.previous);
        CUTS.with_borrow_mut(|cuts| cuts.truncate(self.cuts_from));
    }
}

/// Is `out` the buffer a [`Snapshot::of`] is cutting memos out of?
pub(crate) fn is_cutting(out: &Vec<u8>) -> bool {
    std::ptr::eq(CUTTING.get(), out)
}

/// Append `bytes` to `out`, or record them by handle when `out` is the
/// buffer being cut.
pub(crate) fn put(out: &mut Vec<u8>, bytes: &Arc<[u8]>) {
    if is_cutting(out) {
        CUTS.with_borrow_mut(|cuts| cuts.push((out.len(), Arc::clone(bytes))));
    } else {
        out.extend_from_slice(bytes);
    }
}

/// Run `encode` with sharing off: a cold memo encodes its value, nested
/// memos included, into bytes of its own.
pub(crate) fn unshared(encode: impl FnOnce()) {
    let _scope = Scope::enter(std::ptr::null());
    encode();
}

/// Plain bytes this short live in the snapshot itself.
const INLINE: usize = 24;

/// A snapshot's plain bytes: inline when they are few, else one exact
/// heap copy.
#[derive(Clone)]
enum Plain {
    Inline(u8, [u8; INLINE]),
    Heap(Box<[u8]>),
}

impl Plain {
    fn new(bytes: &[u8]) -> Plain {
        if bytes.len() > INLINE {
            return Plain::Heap(bytes.into());
        }
        let mut inline = [0; INLINE];
        inline[..bytes.len()].copy_from_slice(bytes);
        Plain::Inline(bytes.len() as u8, inline)
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            Plain::Inline(len, bytes) => &bytes[..usize::from(*len)],
            Plain::Heap(bytes) => bytes,
        }
    }
}

/// A snapshot's cut memos, ascending by offset. One is the common case
/// and needs no list.
#[derive(Clone)]
enum Shared {
    One(Cut),
    Many(Box<[Cut]>),
}

impl Shared {
    fn as_slice(&self) -> &[Cut] {
        match self {
            Shared::One(cut) => std::slice::from_ref(cut),
            Shared::Many(cuts) => cuts,
        }
    }
}

/// One app checkpoint: a byte sequence stored as plain bytes with the
/// outermost memos' encodings spliced in by handle.
///
/// Equality, `Debug` and [`Codec`] see only the sequence: two snapshots
/// with the same bytes are equal however they are stored, and a snapshot
/// encodes exactly as the `Vec<u8>` of its bytes would.
#[derive(Clone)]
pub struct Snapshot {
    /// Every byte not in a cut, in order.
    plain: Plain,
    /// Where the cut memos go, and their bytes.
    shared: Shared,
}

impl Snapshot {
    /// Encode `value` as a snapshot: the bytes of [`crate::to_bytes`],
    /// with each outermost memo held by handle instead of copied.
    pub fn of<T: Codec>(value: &T) -> Snapshot {
        crate::with_encode_buffer(|buf| {
            let scope = Scope::enter(buf);
            value.encode(buf);
            Snapshot {
                shared: scope.take_cuts(),
                plain: Plain::new(buf),
            }
        })
    }

    /// Length of the byte sequence.
    #[must_use]
    pub fn len(&self) -> usize {
        let cuts: usize = self.shared.as_slice().iter().map(|(_, b)| b.len()).sum();
        self.plain.as_slice().len() + cuts
    }

    /// Is the byte sequence empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The byte sequence in stored pieces, in order; some may be empty.
    pub fn chunks(&self) -> impl DoubleEndedIterator<Item = &[u8]> + '_ {
        let (plain, cuts) = (self.plain.as_slice(), self.shared.as_slice());
        (0..=2 * cuts.len()).map(move |i| {
            let k = i / 2;
            if i % 2 == 1 {
                return &*cuts[k].1;
            }
            let start = if k == 0 { 0 } else { cuts[k - 1].0 };
            let end = cuts.get(k).map_or(plain.len(), |(at, _)| *at);
            &plain[start..end]
        })
    }

    /// The bytes in one slice: borrowed when they are stored as one piece
    /// (a snapshot that came off the wire, or an app with no memo), a
    /// copy otherwise.
    #[must_use]
    pub fn flat(&self) -> Cow<'_, [u8]> {
        let mut pieces = self.chunks().filter(|c| !c.is_empty());
        match (pieces.next(), pieces.next()) {
            (None, _) => Cow::Borrowed(&[]),
            (Some(only), None) => Cow::Borrowed(only),
            _ => Cow::Owned(self.to_vec()),
        }
    }

    /// The bytes, copied into one `Vec`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        for chunk in self.chunks() {
            out.extend_from_slice(chunk);
        }
        out
    }
}

/// Bytes as one plain run, stored at their length.
impl From<Vec<u8>> for Snapshot {
    fn from(bytes: Vec<u8>) -> Snapshot {
        let plain = if bytes.len() <= INLINE {
            Plain::new(&bytes)
        } else {
            Plain::Heap(bytes.into_boxed_slice())
        };
        Snapshot {
            plain,
            shared: Shared::Many(Box::default()),
        }
    }
}

impl Default for Snapshot {
    fn default() -> Snapshot {
        Snapshot::from(Vec::new())
    }
}

/// Byte equality, compared from the end: two checkpoints of one app
/// differ first in the counters a derived encoding ends with. A piece
/// both hold by the same handle is not read.
impl PartialEq for Snapshot {
    fn eq(&self, other: &Snapshot) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let (mut mine, mut theirs) = (self.chunks().rev(), other.chunks().rev());
        let (mut a, mut b): (&[u8], &[u8]) = (&[], &[]);
        loop {
            if a.is_empty() {
                match mine.next() {
                    Some(next) => a = next,
                    // Equal lengths: both ran out together.
                    None => return true,
                }
                continue;
            }
            if b.is_empty() {
                b = theirs.next().expect("equal lengths");
                continue;
            }
            let n = a.len().min(b.len());
            let (a_rest, a_tail) = a.split_at(a.len() - n);
            let (b_rest, b_tail) = b.split_at(b.len() - n);
            if a_tail.as_ptr() != b_tail.as_ptr() && a_tail != b_tail {
                return false;
            }
            (a, b) = (a_rest, b_rest);
        }
    }
}

impl Eq for Snapshot {}

impl PartialEq<Vec<u8>> for Snapshot {
    fn eq(&self, other: &Vec<u8>) -> bool {
        let mut rest = &other[..];
        self.len() == other.len()
            && self.chunks().all(|chunk| {
                let (head, tail) = rest.split_at(chunk.len());
                rest = tail;
                head == chunk
            })
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.chunks().flatten()).finish()
    }
}

/// Writes exactly what the `Vec<u8>` of the same bytes writes. Into a
/// buffer being cut, the memos stay shared; anywhere else they are copied.
impl Codec for Snapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        let (plain, cuts) = (self.plain.as_slice(), self.shared.as_slice());
        let mut from = 0;
        for (at, bytes) in cuts {
            out.extend_from_slice(&plain[from..*at]);
            put(out, bytes);
            from = *at;
        }
        out.extend_from_slice(&plain[from..]);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Vec::<u8>::decode(r).map(Snapshot::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes, Memo};

    fn warm(n: u32) -> Memo<Vec<u32>> {
        let memo = Memo::new((0..n).collect());
        let _ = to_bytes(&memo).unwrap();
        memo
    }

    #[test]
    fn an_outer_memo_is_one_handle_and_the_memos_inside_it_are_copied() {
        let inner = warm(50);
        let outer = Memo::new(vec![inner.clone(), inner]);
        let value = (1u64, outer, 2u64);
        let snapshot = Snapshot::of(&value);
        let bytes = to_bytes(&value).unwrap();
        assert_eq!(snapshot, bytes);
        assert_eq!(snapshot.len(), bytes.len());
        let pieces: Vec<&[u8]> = snapshot.chunks().collect();
        assert_eq!(pieces.len(), 3, "plain, the outer memo, plain");
        assert_eq!(pieces[1].len(), bytes.len() - 16);
        // A second snapshot holds the outer memo by the same handle.
        let again = Snapshot::of(&value);
        assert_eq!(again.chunks().nth(1).unwrap().as_ptr(), pieces[1].as_ptr());
    }

    #[test]
    fn flat_borrows_one_piece_and_copies_several() {
        let plain = Snapshot::from((0u8..100).collect::<Vec<_>>());
        assert!(matches!(plain.flat(), Cow::Borrowed(b) if b.len() == 100));
        let only_memo = Snapshot::of(&warm(40));
        assert!(matches!(only_memo.flat(), Cow::Borrowed(b) if b.len() == 168));
        let mixed = Snapshot::of(&(9u8, warm(40)));
        assert!(matches!(mixed.flat(), Cow::Owned(ref b) if *b == mixed.to_vec()));
        assert!(matches!(Snapshot::default().flat(), Cow::Borrowed(b) if b.is_empty()));
    }

    #[test]
    fn equality_is_the_bytes_however_stored() {
        let value = (3u8, warm(30), 4u8, warm(10));
        let shared = Snapshot::of(&value);
        let flat = Snapshot::from(to_bytes(&value).unwrap());
        let fresh = Snapshot::of(&(3u8, Memo::new((0..30).collect::<Vec<u32>>()), 4u8, warm(10)));
        assert_eq!(shared, flat);
        assert_eq!(flat, shared);
        assert_eq!(shared, fresh);
        let other = Snapshot::of(&(3u8, warm(30), 5u8, warm(10)));
        assert_ne!(shared, other);
        assert_ne!(shared, Snapshot::of(&(3u8, warm(31), 4u8, warm(10))));
        assert_eq!(format!("{shared:?}"), format!("{:?}", flat.to_vec()));
    }

    #[test]
    fn encodes_as_its_bytes_and_shares_into_an_outer_snapshot() {
        let inner = Snapshot::of(&(1u16, warm(20)));
        let as_vec = inner.to_vec();
        assert_eq!(to_bytes(&inner).unwrap(), to_bytes(&as_vec).unwrap());
        let back: Snapshot = from_bytes(&to_bytes(&inner).unwrap()).unwrap();
        assert_eq!(back, inner);
        // A snapshot inside a snapshot's value keeps its memo by handle.
        let outer = Snapshot::of(&(vec![inner.clone()], 8u8));
        assert_eq!(outer, to_bytes(&(vec![as_vec], 8u8)).unwrap());
        let memo_piece = |s: &Snapshot| s.chunks().find(|c| c.len() == 88).map(<[u8]>::as_ptr);
        assert_eq!(memo_piece(&outer), memo_piece(&inner));
    }
}
