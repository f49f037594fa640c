//! Contended transfers through the batched front-end.
//!
//! Many threads hammer a small hot key-set, shuttling tokens between two
//! ledgers with composed keyed moves — every move submitted through a
//! [`BatchGate`], the claim-pattern group-commit front-end added in PR 7.
//! Under contention, one thread claims the whole request list and drives
//! the batch through the composition engine while the others wait on their
//! result words (or, past a patience bound, help and finally self-execute
//! — the lock-freedom escape hatch). Uncontended submits never touch the
//! claim list at all.
//!
//! Two express lanes (queues with one sealed token each) are swapped
//! through a second gate, and a broadcast desk occasionally routes
//! `move_keyed_to_all` through a third. When the music stops, every token
//! must exist exactly once — batching changed who *executes* a move, never
//! its atomicity.
//!
//! ```sh
//! cargo run --release --example contended_transfers
//! ```

use lockfree_compose::batch::{decode_move, decode_swap};
use lockfree_compose::metrics;
use lockfree_compose::{BatchGate, LfHashMap, MoveKeyedOp, MoveKeyedToAllOp, MsQueue, SwapOp};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const TOKENS: u64 = 32;
const HOT: u64 = 8; // most traffic lands on this many keys
const THREADS: usize = 6;
const RUN: Duration = Duration::from_millis(500);

fn main() {
    // Two ledgers; every token starts in A. Keyed moves between maps are
    // the paper's composed operation, here fronted by the batch gate.
    let a: LfHashMap<u64, u64> = LfHashMap::new();
    let b: LfHashMap<u64, u64> = LfHashMap::new();
    for t in 0..TOKENS {
        a.insert(t, t);
    }
    // Express lanes: one sealed token each, exchanged atomically.
    let q1: MsQueue<u64> = MsQueue::new();
    let q2: MsQueue<u64> = MsQueue::new();
    q1.enqueue(1_000);
    q2.enqueue(2_000);

    // One gate per request type; each gate serves both directions.
    type Ledger = LfHashMap<u64, u64>;
    let moves: BatchGate<MoveKeyedOp<'_, u64, u64, Ledger, Ledger>> = BatchGate::new();
    let casts: BatchGate<MoveKeyedToAllOp<'_, u64, u64, Ledger, Ledger>> = BatchGate::new();
    let swaps: BatchGate<SwapOp<'_, u64, MsQueue<u64>, MsQueue<u64>>> = BatchGate::new();
    let to_a: [&LfHashMap<u64, u64>; 1] = [&a];
    let to_b: [&LfHashMap<u64, u64>; 1] = [&b];

    let stop = AtomicBool::new(false);
    let ops = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|sc| {
        for t in 0..THREADS {
            let (a, b, q1, q2) = (&a, &b, &q1, &q2);
            let (moves, casts, swaps) = (&moves, &casts, &swaps);
            let (to_a, to_b) = (&to_a, &to_b);
            let (stop, ops) = (&stop, &ops);
            sc.spawn(move || {
                let mut n = 0u64;
                let mut x = 0x9E3779B97F4A7C15u64 ^ (t as u64) << 32;
                while !stop.load(Ordering::Relaxed) {
                    // xorshift: cheap, thread-local, deterministic enough.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let key = x % HOT;
                    match x >> 60 {
                        0..=5 => {
                            // The hot path: keyed move on a contended key.
                            let op = if x & (1 << 32) == 0 {
                                MoveKeyedOp::new(a, key, b)
                            } else {
                                MoveKeyedOp::new(b, key, a)
                            };
                            let _ = decode_move(moves.submit(op));
                        }
                        6..=9 => {
                            // Cold keys spread some uncontended traffic.
                            let cold = HOT + x % (TOKENS - HOT);
                            let op = if x & (1 << 32) == 0 {
                                MoveKeyedOp::new(a, cold, b)
                            } else {
                                MoveKeyedOp::new(b, cold, a)
                            };
                            let _ = decode_move(moves.submit(op));
                        }
                        10..=12 => {
                            // Broadcast desk: same atomicity, fan-out form.
                            let op = if x & (1 << 32) == 0 {
                                MoveKeyedToAllOp::new(a, key, &to_b[..])
                            } else {
                                MoveKeyedToAllOp::new(b, key, &to_a[..])
                            };
                            let _ = decode_move(casts.submit(op));
                        }
                        _ => {
                            let _ = decode_swap(swaps.submit(SwapOp::new(q1, q2)));
                        }
                    }
                    n += 1;
                }
                ops.fetch_add(n, Ordering::Relaxed);
            });
        }
        std::thread::sleep(RUN);
        stop.store(true, Ordering::Release);
    });
    let elapsed = t0.elapsed();

    // Conservation: every ledger token exists exactly once, value intact.
    for k in 0..TOKENS {
        let (in_a, in_b) = (a.get(&k), b.get(&k));
        assert!(
            matches!((in_a, in_b), (Some(v), None) | (None, Some(v)) if v == k),
            "token {k} torn: a={in_a:?} b={in_b:?}"
        );
    }
    // The sealed lane tokens survived every swap, exactly once each.
    let mut lane: Vec<u64> = std::iter::from_fn(|| q1.dequeue().or_else(|| q2.dequeue())).collect();
    lane.sort_unstable();
    assert_eq!(lane, vec![1_000, 2_000], "lane tokens torn by swap");

    let total = ops.load(Ordering::Relaxed);
    println!(
        "{} threads, {} hot keys: {} composed ops in {:.0?} ({:.0} ops/s)",
        THREADS,
        HOT,
        total,
        elapsed,
        total as f64 / elapsed.as_secs_f64()
    );
    let gate = metrics::snapshot().batch;
    println!(
        "gate traffic: {} direct, {} batched ({} batches drained, {} self-executed)",
        gate.direct, gate.batched, gate.drained, gate.self_execs
    );
    println!("conservation check passed: every token exists exactly once");
}
