//! In-memory span recorder for the traced phase. Spans are opened by the
//! benchmark around its own calls into each layer, kept in a per-thread
//! vector, and written out when the run ends. With the recorder off
//! (every end-to-end measurement) `enter` is one thread-local branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: u32,
    /// The op (burst) this span belongs to.
    pub op: u32,
}

struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        op: 0,
    });
}

/// Start recording on this thread, dropping anything recorded before.
pub fn start() {
    RECORDER.with_borrow_mut(|r| {
        r.on = true;
        r.epoch = Instant::now();
        r.spans.clear();
        r.open.clear();
        r.op = 0;
    });
}

/// Stop recording and hand over the spans.
pub fn finish() -> Vec<Span> {
    RECORDER.with_borrow_mut(|r| {
        r.on = false;
        assert!(r.open.is_empty(), "span still open at finish");
        std::mem::take(&mut r.spans)
    })
}

pub fn set_op(op: u32) {
    RECORDER.with_borrow_mut(|r| r.op = op);
}

/// Closes its span when dropped.
pub struct Guard(Option<u32>);

pub fn enter(name: &'static str) -> Guard {
    RECORDER.with_borrow_mut(|r| {
        if !r.on {
            return Guard(None);
        }
        let idx = u32::try_from(r.spans.len()).expect("fewer than 2^32 spans");
        let now = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: r.open.last().copied().unwrap_or(NO_PARENT),
            op: r.op,
        });
        r.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        RECORDER.with_borrow_mut(|r| {
            let top = r.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must nest");
            r.spans[idx as usize].end_ns = r.epoch.elapsed().as_nanos() as u64;
        });
    }
}

/// Append a later recording: its parents are rebased onto the joined
/// vector and its clock continues where `dst` ended.
pub fn append(dst: &mut Vec<Span>, src: Vec<Span>) {
    let base = u32::try_from(dst.len()).expect("fewer than 2^32 spans");
    let shift = dst.iter().map(|s| s.end_ns).max().unwrap_or(0);
    dst.extend(src.into_iter().map(|s| Span {
        start_ns: s.start_ns + shift,
        end_ns: s.end_ns + shift,
        parent: if s.parent == NO_PARENT {
            NO_PARENT
        } else {
            s.parent + base
        },
        ..s
    }));
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// Per-name totals. Children never overlap each other (one thread, strict
/// nesting), so a span's self time is its duration minus its children's.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(children);
    }
    out
}

/// The file holds at most this many spans, the first ones: `lean_mice`
/// records 600 000 a run, 50 MB as text.
pub const FILE_CAP: usize = 200_000;

/// One JSON object per line: `name, start_ns, end_ns, parent, op`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let spans = &spans[..spans.len().min(FILE_CAP)];
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.op
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span("op", 0, 100, NO_PARENT),
            span("translate", 10, 30, 0),
            span("dispatch", 30, 90, 0),
            span("snapshot", 40, 60, 2),
            span("dispatch", 92, 96, 0),
        ];
        let t = totals(&spans);
        assert_eq!(t["op"].self_ns, 100 - 20 - 60 - 4);
        assert_eq!(t["translate"].self_ns, 20);
        assert_eq!(
            t["dispatch"],
            Totals {
                count: 2,
                total_ns: 64,
                self_ns: 44
            }
        );
        assert_eq!(t["snapshot"].self_ns, 20);
        // Self times of a tree sum to its root's duration.
        assert_eq!(t.values().map(|x| x.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn append_rebases_parents_and_clock() {
        let mut all = vec![span("a", 0, 50, NO_PARENT), span("b", 10, 20, 0)];
        append(
            &mut all,
            vec![span("c", 0, 30, NO_PARENT), span("d", 5, 9, 0)],
        );
        assert_eq!(all[2], span("c", 50, 80, NO_PARENT));
        assert_eq!(all[3], span("d", 55, 59, 2));
        assert_eq!(totals(&all)["c"].self_ns, 26);
    }

    #[test]
    fn guards_nest_and_record_only_when_on() {
        drop(enter("ignored"));
        start();
        set_op(3);
        {
            let _outer = enter("outer");
            let _inner = enter("inner");
        }
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("outer", NO_PARENT, 3)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        drop(enter("ignored"));
        assert!(finish().is_empty());
    }
}
