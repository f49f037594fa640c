//! Per-worker recording: the end-to-end latency of every operation, and —
//! in a traced run — one span per call the benchmark makes into a layer.
//!
//! Spans carry a name, start, end, operation id and parent. Every span
//! feeds its name's statistics; the first [`SPAN_CAP`] of a window are
//! also kept in a buffer allocated before the window opens, and written
//! out when the run ends.

use crate::hist::Hist;
use std::io::Write;
use std::time::Instant;

/// Spans buffered per worker for the trace file (32 bytes each).
pub const SPAN_CAP: usize = 1 << 17;
/// Parent index of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;
/// Index of a span opened after the buffer filled: it has no slot, but its
/// children still have a parent.
const UNBUFFERED: u32 = u32::MAX - 1;

/// The id of worker `w`'s `i`-th operation, shared by all its spans.
pub fn op_id(w: usize, i: usize) -> u64 {
    (w as u64) << 48 | i as u64
}

/// Nanoseconds since a shared epoch.
pub struct Clock {
    epoch: Instant,
}

impl Default for Clock {
    fn default() -> Self {
        Clock {
            epoch: Instant::now(),
        }
    }
}

impl Clock {
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// The layer a span's callee lives in.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Structures,
    Core,
    Ledger,
}

pub const LAYERS: [(Layer, &str); 3] = [
    (Layer::Structures, "structures"),
    (Layer::Core, "core"),
    (Layer::Ledger, "ledger"),
];

/// Every public entry point the benchmark calls, one span name each.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Name {
    Enqueue,
    Dequeue,
    Push,
    Pop,
    Get,
    MoveOne,
    MoveKeyed,
    Migrate,
    Settle,
    Promote,
    Demote,
    Balance,
    Close,
    Open,
    /// A close of one account and the open that replaces it.
    Churn,
    Audit,
}

pub const NAMES: usize = 16;

impl Name {
    /// Every name, indexed by its discriminant.
    pub const ALL: [Name; NAMES] = [
        Name::Enqueue,
        Name::Dequeue,
        Name::Push,
        Name::Pop,
        Name::Get,
        Name::MoveOne,
        Name::MoveKeyed,
        Name::Migrate,
        Name::Settle,
        Name::Promote,
        Name::Demote,
        Name::Balance,
        Name::Close,
        Name::Open,
        Name::Churn,
        Name::Audit,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Name::Enqueue => "MsQueue::enqueue",
            Name::Dequeue => "MsQueue::dequeue",
            Name::Push => "TreiberStack::push",
            Name::Pop => "TreiberStack::pop",
            Name::Get => "LfHashMap::get",
            Name::MoveOne => "move_one",
            Name::MoveKeyed => "move_keyed",
            Name::Migrate => "Ledger::migrate",
            Name::Settle => "Ledger::settle",
            Name::Promote => "Ledger::promote",
            Name::Demote => "Ledger::demote",
            Name::Balance => "Ledger::balance",
            Name::Close => "Ledger::close",
            Name::Open => "Ledger::open",
            Name::Churn => "Ledger::close+open",
            Name::Audit => "Ledger::quiesced_audit",
        }
    }

    pub fn layer(self) -> Layer {
        match self {
            Name::Enqueue | Name::Dequeue | Name::Push | Name::Pop | Name::Get => Layer::Structures,
            Name::MoveOne | Name::MoveKeyed => Layer::Core,
            _ => Layer::Ledger,
        }
    }
}

/// What a call achieved. `Wasted` is a valid answer that did no useful
/// work (an empty source, a missing key, a lost race); `Failed` is a
/// refusal or a wrong answer, and counts against the run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Useful,
    Wasted,
    Failed,
}

#[derive(Default, Clone)]
pub struct SpanStat {
    pub calls: u64,
    pub useful: u64,
    pub wasted: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
    pub hist: Hist,
}

#[derive(Clone, Copy)]
struct Span {
    start: u64,
    end: u64,
    op: u64,
    parent: u32,
    name: Name,
}

pub struct Tracer {
    pub stats: Vec<SpanStat>,
    /// Time covered by spans without a parent.
    pub top_ns: u64,
    /// Latencies of operations whose span overlapped an audit.
    pub stalled: Hist,
    buf: Vec<Span>,
    pub dropped: u64,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            stats: vec![SpanStat::default(); NAMES],
            top_ns: 0,
            stalled: Hist::default(),
            buf: Vec::with_capacity(SPAN_CAP),
            dropped: 0,
        }
    }

    fn clear(&mut self) {
        for s in &mut self.stats {
            s.calls = 0;
            s.useful = 0;
            s.wasted = 0;
            s.self_ns = 0;
            s.hist.clear();
        }
        self.top_ns = 0;
        self.stalled.clear();
        self.buf.clear();
        self.dropped = 0;
    }

    /// Reserve a buffer slot for a span whose children are recorded before
    /// it ends; returns the index children name as their parent.
    pub fn open(&mut self, name: Name, op: u64, start: u64) -> u32 {
        self.push(Span {
            start,
            end: start,
            op,
            parent: NO_PARENT,
            name,
        })
    }

    /// Finish a span. `idx` is the slot [`Tracer::open`] reserved, or
    /// [`NO_PARENT`] for a span recorded in one step; `child_ns` is the
    /// time its children cover.
    #[allow(clippy::too_many_arguments)]
    pub fn close(
        &mut self,
        idx: u32,
        name: Name,
        op: u64,
        parent: u32,
        start: u64,
        end: u64,
        child_ns: u64,
        out: Outcome,
    ) {
        let dur = end.saturating_sub(start);
        match idx {
            NO_PARENT => {
                self.push(Span {
                    start,
                    end,
                    op,
                    parent,
                    name,
                });
            }
            UNBUFFERED => {}
            i => self.buf[i as usize].end = end,
        }
        if parent == NO_PARENT {
            self.top_ns += dur;
        }
        let st = &mut self.stats[name as usize];
        st.calls += 1;
        st.self_ns += dur.saturating_sub(child_ns);
        st.hist.record(dur);
        match out {
            Outcome::Useful => st.useful += 1,
            Outcome::Wasted => st.wasted += 1,
            Outcome::Failed => {}
        }
    }

    /// A span with no children, recorded in one step.
    pub fn leaf(&mut self, name: Name, op: u64, start: u64, end: u64, out: Outcome) {
        self.close(NO_PARENT, name, op, NO_PARENT, start, end, 0, out);
    }

    fn push(&mut self, s: Span) -> u32 {
        if self.buf.len() < SPAN_CAP {
            self.buf.push(s);
            (self.buf.len() - 1) as u32
        } else {
            self.dropped += 1;
            UNBUFFERED
        }
    }

    pub fn spans(&self) -> usize {
        self.buf.len()
    }

    /// Append this worker's buffered spans as CSV rows.
    pub fn write_csv(&self, worker: usize, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.buf.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{worker},{i},{},{},{parent},{},{}",
                s.name.label(),
                s.op,
                s.start,
                s.end
            )?;
        }
        Ok(())
    }
}

/// One worker's record of a window.
pub struct Rec {
    pub measuring: bool,
    pub ops: u64,
    pub failed: u64,
    /// Failed operations before the window opened (warm-up); they still
    /// count against the run.
    pub warm_failed: u64,
    /// Local work between operations (paper Fig 2 only).
    pub local_ns: u64,
    pub lat: Hist,
    pub tr: Option<Box<Tracer>>,
}

impl Rec {
    pub fn new(trace: bool) -> Self {
        Rec {
            measuring: false,
            ops: 0,
            failed: 0,
            warm_failed: 0,
            local_ns: 0,
            lat: Hist::default(),
            tr: trace.then(|| Box::new(Tracer::new())),
        }
    }

    pub fn start_window(&mut self) {
        self.measuring = true;
        self.warm_failed += self.failed;
        self.ops = 0;
        self.failed = 0;
        self.local_ns = 0;
        self.lat.clear();
        if let Some(t) = self.tr.as_deref_mut() {
            t.clear();
        }
    }

    /// One completed client operation and its latency.
    #[inline]
    pub fn op(&mut self, start: u64, end: u64, out: Outcome) {
        self.ops += 1;
        self.failed += (out == Outcome::Failed) as u64;
        self.lat.record(end.saturating_sub(start));
    }
}
