//! Experiment ABA: the paper's §7 discussion attributes the stack's poor
//! move-only numbers to *false helping* — the D14 ABA where a recently
//! moved element reappears as the expected `old2` and delayed helpers
//! install stale marked descriptors that must be reverted. Adding a version
//! counter to the top pointer removes the effect at a small cost to normal
//! operations.
//!
//! This bench measures stack↔stack move throughput for the plain Treiber
//! top vs the stamped top, and prints the `stale_mark_reverts` counter delta
//! (each revert is one false-helping episode).

use lfc_bench::harness::{bench, bench_custom, report, Measurement};
use lfc_core::move_one;
use lfc_runtime::metrics::{total, Counter};
use lfc_structures::{StampedStack, TreiberStack};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};

fn move_throughput() -> Vec<Measurement> {
    let mut out = Vec::new();

    out.push(bench_custom("stack_stack_move_2thr/treiber", |iters| {
        let x: TreiberStack<u64> = TreiberStack::new();
        let y: TreiberStack<u64> = TreiberStack::new();
        for i in 0..64 {
            x.push(i);
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|sc| {
            let (xr, yr, stopr) = (&x, &y, &stop);
            sc.spawn(move || {
                while !stopr.load(Ordering::Relaxed) {
                    let _ = move_one(yr, xr);
                }
            });
            let start = std::time::Instant::now();
            for _ in 0..iters {
                black_box(move_one(&x, &y));
            }
            let e = start.elapsed();
            stop.store(true, Ordering::Relaxed);
            e
        })
    }));

    out.push(bench_custom("stack_stack_move_2thr/stamped", |iters| {
        let x: StampedStack<u64> = StampedStack::new();
        let y: StampedStack<u64> = StampedStack::new();
        for i in 0..64 {
            x.push(i);
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|sc| {
            let (xr, yr, stopr) = (&x, &y, &stop);
            sc.spawn(move || {
                while !stopr.load(Ordering::Relaxed) {
                    let _ = move_one(yr, xr);
                }
            });
            let start = std::time::Instant::now();
            for _ in 0..iters {
                black_box(move_one(&x, &y));
            }
            let e = start.elapsed();
            stop.store(true, Ordering::Relaxed);
            e
        })
    }));

    out
}

fn normal_op_cost() -> Vec<Measurement> {
    // The paper's caveat: the counter "somewhat lowers the performance of
    // the normal insert and remove operations".
    let mut out = Vec::new();
    let t: TreiberStack<u64> = TreiberStack::new();
    out.push(bench("stack_normal_ops/treiber_push_pop", || {
        t.push(black_box(1));
        black_box(t.pop());
    }));
    let s: StampedStack<u64> = StampedStack::new();
    out.push(bench("stack_normal_ops/stamped_push_pop", || {
        s.push(black_box(1));
        black_box(s.pop());
    }));
    out
}

fn false_helping_report() {
    // The ABA needs several helpers racing the same hot words plus
    // preemption (paper §7 saw it at 16 threads); run 6 movers per flavour.
    const ROUNDS: usize = 30_000;
    const MOVERS: usize = 3;
    for stamped in [false, true] {
        let before = total(Counter::StaleMarkReverts);
        if stamped {
            let x: StampedStack<u64> = StampedStack::new();
            let y: StampedStack<u64> = StampedStack::new();
            x.push(1);
            x.push(2);
            std::thread::scope(|sc| {
                let (xr, yr) = (&x, &y);
                for _ in 0..MOVERS {
                    sc.spawn(move || {
                        for _ in 0..ROUNDS {
                            let _ = move_one(yr, xr);
                        }
                    });
                    sc.spawn(move || {
                        for _ in 0..ROUNDS {
                            let _ = move_one(xr, yr);
                        }
                    });
                }
            });
        } else {
            let x: TreiberStack<u64> = TreiberStack::new();
            let y: TreiberStack<u64> = TreiberStack::new();
            x.push(1);
            x.push(2);
            std::thread::scope(|sc| {
                let (xr, yr) = (&x, &y);
                for _ in 0..MOVERS {
                    sc.spawn(move || {
                        for _ in 0..ROUNDS {
                            let _ = move_one(yr, xr);
                        }
                    });
                    sc.spawn(move || {
                        for _ in 0..ROUNDS {
                            let _ = move_one(xr, yr);
                        }
                    });
                }
            });
        }
        let delta = total(Counter::StaleMarkReverts) - before;
        println!(
            "false-helping episodes over {} move attempts ({}): {}",
            2 * MOVERS * ROUNDS,
            if stamped { "stamped" } else { "treiber" },
            delta
        );
    }
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let mut ms = move_throughput();
    ms.extend(normal_op_cost());
    if json {
        for m in &ms {
            println!("{}", m.to_json());
        }
    } else {
        report("stamped_ablation", &ms);
        false_helping_report();
    }
}
