//! `paper_fig2`: the paper's Fig 2 generator on one `MsQueue` and one
//! default `TreiberStack` (elimination on), each prefilled with 1000
//! items. Half the operations are `move_one` in a random direction, half
//! an insert or remove on a random object, with about 0.1 µs of local
//! work between operations (the paper's high-contention setting).
//!
//! Throughput is the paper's quantity: operations per second of
//! synchronization time, i.e. wall time minus mean local work.

use crate::drive::{drive, on_thread, Ctl, DriveCfg, WORKERS};
use crate::gen::{self, mix};
use crate::rec::{op_id, Name, Outcome, Rec};
use crate::{run_bench, Bench, Gates, Params, Report};
use lfc_core::{move_one, MoveOutcome};
use lfc_runtime::SmallRng;
use lfc_structures::{lock_move, LockQueue, LockStack, MsQueue, TreiberStack};

pub const PREFILL: u64 = 1000;
/// Mean local work between operations, in ns (paper §6, high contention).
const WORK_NS: u64 = 100;

const MOVE: u32 = 0;
const INSERT: u32 = 1;
const REMOVE: u32 = 2;

/// Operation word: bits 0-1 kind, bit 2 the object (0 queue, 1 stack; for
/// a move, the source), bits 8.. the local work that follows, in ns.
fn draw(rng: &mut SmallRng) -> u32 {
    let r = rng.next_u32();
    let kind = if r & 1 == 0 {
        MOVE
    } else if r & 4 == 0 {
        INSERT
    } else {
        REMOVE
    };
    kind | ((r >> 1) & 1) << 2 | work(rng) << 8
}

/// Local work in ns: an Irwin–Hall sum of three uniforms, roughly normal
/// around the mean, as the paper draws its work time.
fn work(rng: &mut SmallRng) -> u32 {
    let (lo, hi) = (WORK_NS / 2, WORK_NS + WORK_NS / 2);
    ((0..3).map(|_| rng.range_incl(lo, hi)).sum::<u64>() / 3) as u32
}

/// The operation that undoes `op`'s effect on the object sizes: a move
/// the other way, or a remove for an insert and an insert for a remove.
fn mirror(op: u32, rng: &mut SmallRng) -> u32 {
    let side = op & 4;
    let kind = match op & 3 {
        MOVE => MOVE | (side ^ 4),
        INSERT => REMOVE | side,
        _ => INSERT | side,
    };
    kind | work(rng) << 8
}

/// A worker's ring: half drawn, half their mirrors, shuffled. The ring
/// is cycled, so an unbalanced ring would grow or drain the objects by
/// the same amount every cycle and the run would never be stationary;
/// balanced, the object sizes only wander around the prefill.
fn ring(seed: u64, w: u64, len: usize) -> Vec<u32> {
    let mut r = gen::rng(seed, w);
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len / 2 {
        let op = draw(&mut r);
        ops.push(op);
        ops.push(mirror(op, &mut r));
    }
    gen::shuffle(&mut ops, &mut r);
    ops
}

/// The two objects of a Fig 2 trial, lock-free or TTAS-locked.
pub trait Pair: Send + Sync {
    fn insert(&self, side: usize, v: u64);
    fn remove(&self, side: usize) -> Option<u64>;
    /// Move one element from `side` to the other object.
    fn mv(&self, side: usize) -> bool;
}

pub struct LfPair {
    pub q: MsQueue<u64>,
    pub s: TreiberStack<u64>,
}

impl Pair for LfPair {
    fn insert(&self, side: usize, v: u64) {
        if side == 0 {
            self.q.enqueue(v)
        } else {
            self.s.push(v)
        }
    }

    fn remove(&self, side: usize) -> Option<u64> {
        if side == 0 {
            self.q.dequeue()
        } else {
            self.s.pop()
        }
    }

    fn mv(&self, side: usize) -> bool {
        let r = if side == 0 {
            move_one(&self.q, &self.s)
        } else {
            move_one(&self.s, &self.q)
        };
        r == MoveOutcome::Moved
    }
}

pub struct LockPair {
    q: LockQueue<u64>,
    s: LockStack<u64>,
}

impl Pair for LockPair {
    fn insert(&self, side: usize, v: u64) {
        if side == 0 {
            self.q.enqueue(v)
        } else {
            self.s.push(v)
        }
    }

    fn remove(&self, side: usize) -> Option<u64> {
        if side == 0 {
            self.q.dequeue()
        } else {
            self.s.pop()
        }
    }

    fn mv(&self, side: usize) -> bool {
        if side == 0 {
            lock_move(&self.q, &self.s)
        } else {
            lock_move(&self.s, &self.q)
        }
    }
}

/// Elements a worker added and removed: count and a checksum of the
/// values, so the gate catches a duplicated or lost element even when the
/// count happens to balance.
#[derive(Default)]
pub struct Tally {
    pub inserted: u64,
    pub inserted_sum: u64,
    pub removed: u64,
    pub removed_sum: u64,
}

pub struct Fig2<P> {
    rings: Vec<Vec<u32>>,
    make: fn() -> P,
}

impl<P: Pair> Fig2<P> {
    pub fn new(seed: u64, ring: usize, make: fn() -> P) -> Self {
        let rings = (0..WORKERS as u64)
            .map(|w| self::ring(seed, w, ring))
            .collect();
        Fig2 { rings, make }
    }
}

/// Prefill value `i` of `side`.
fn prefill_value(side: usize, i: u64) -> u64 {
    side as u64 * PREFILL + i
}

impl<P: Pair> Bench for Fig2<P> {
    type Objs = P;
    type Tally = Tally;

    fn setup(&self) -> P {
        let p = (self.make)();
        for i in 0..PREFILL {
            p.insert(0, prefill_value(0, i));
            p.insert(1, prefill_value(1, i));
        }
        p
    }

    fn work(&self, p: &P, ctl: &Ctl, rec: &mut Rec, t: &mut Tally) {
        let ring = &self.rings[ctl.w];
        let mask = ring.len() - 1;
        let tag = (ctl.w as u64 + 1) << 56;
        let mut i = 0usize;
        let mut start = ctl.clock.now();
        while ctl.running(rec, &mut start) {
            let op = ring[i & mask];
            let side = (op >> 2) as usize & 1;
            let (name, out) = match op & 3 {
                MOVE => {
                    let moved = p.mv(side);
                    (Name::MoveOne, useful_if(moved))
                }
                INSERT => {
                    let v = tag | i as u64;
                    p.insert(side, v);
                    t.inserted += 1;
                    t.inserted_sum = t.inserted_sum.wrapping_add(mix(v));
                    ([Name::Enqueue, Name::Push][side], Outcome::Useful)
                }
                _ => {
                    let got = p.remove(side);
                    if let Some(v) = got {
                        t.removed += 1;
                        t.removed_sum = t.removed_sum.wrapping_add(mix(v));
                    }
                    ([Name::Dequeue, Name::Pop][side], useful_if(got.is_some()))
                }
            };
            let end = ctl.clock.now();
            rec.op(start, end, out);
            if let Some(tr) = rec.tr.as_deref_mut() {
                tr.leaf(name, op_id(ctl.w, i), start, end, out);
            }
            i += 1;
            // Local work: spin until it has passed; the time actually spun
            // is what the synchronization time subtracts.
            let until = end + (op >> 8) as u64;
            let mut now = end;
            while now < until {
                std::hint::spin_loop();
                now = ctl.clock.now();
            }
            rec.local_ns += now - end;
            start = now;
        }
    }

    fn gates(&self, p: &P, tallies: &[Tally], g: &mut Gates) {
        let (mut count, mut sum) = (2 * PREFILL, 0u64);
        for side in 0..2 {
            for i in 0..PREFILL {
                sum = sum.wrapping_add(mix(prefill_value(side, i)));
            }
        }
        for t in tallies {
            count = count.wrapping_add(t.inserted).wrapping_sub(t.removed);
            sum = sum.wrapping_add(t.inserted_sum).wrapping_sub(t.removed_sum);
        }
        let (mut found, mut found_sum) = (0u64, 0u64);
        for side in 0..2 {
            while let Some(v) = p.remove(side) {
                found += 1;
                found_sum = found_sum.wrapping_add(mix(v));
            }
        }
        g.check(found == count, || {
            format!("queue+stack hold {found} elements, expected prefill+inserts-removes = {count}")
        });
        g.check(found_sum == sum, || {
            "queue+stack element checksum differs from prefill+inserts-removes".into()
        });
    }
}

fn useful_if(b: bool) -> Outcome {
    if b {
        Outcome::Useful
    } else {
        Outcome::Wasted
    }
}

pub fn lock_free() -> LfPair {
    LfPair {
        q: MsQueue::new(),
        s: TreiberStack::new(),
    }
}

fn locked() -> LockPair {
    LockPair {
        q: LockQueue::new(),
        s: LockStack::new(),
    }
}

pub fn run(p: &Params) -> Report {
    let b = Fig2::new(p.seed, p.scale.ring, lock_free);
    run_bench(&b, p, p.scale.setup[0])
}

/// The traced run's TTAS twin: the same generator and seed on the
/// lock-free pair and on the two-lock TTAS pair, one short untraced
/// window each. Returns (lock-free, TTAS) operations per second of
/// synchronization time.
pub fn twin(p: &Params) -> (f64, f64) {
    let cfg = DriveCfg {
        warmup: p.scale.warmup / 4,
        window: p.scale.twin,
        sub: p.scale.sub,
        trace: false,
    };
    fn half<P: Pair>(b: &Fig2<P>, cfg: &DriveCfg) -> f64 {
        let objs = on_thread(|| b.setup());
        let tallies = (0..WORKERS).map(|_| Tally::default()).collect();
        let (w, _) = drive(cfg, None, tallies, |ctl, rec, t| b.work(&objs, ctl, rec, t));
        on_thread(move || drop(objs));
        w.ops_per_s()
    }
    let lf = half(&Fig2::new(p.seed, p.scale.ring, lock_free), &cfg);
    let lk = half(&Fig2::new(p.seed, p.scale.ring, locked), &cfg);
    (lf, lk)
}
