//! The traced run's layer probe: direct calls into the public entry points
//! of the layers the workloads cannot span from outside, at 1 and 2
//! threads. Each thread works on private objects, so the 2-thread rows
//! show the cost of leaving the solo regime (and of sharing the machine),
//! not contention on a shared word.
//!
//! At 1 thread the probing thread is the only one registered with the
//! runtime, so `commit_entries` takes its solo path; at 2 threads it runs
//! the descriptor protocol (DCAS for 2 entries, CASN for 4).

use crate::Scale;
use lfc_dcas::{commit_entries, CasnEntry, CasnResult, DAtomic};
use std::alloc::Layout;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Batches per thread; the reported figure is the median batch.
const BATCHES: usize = 9;
/// Operations between re-pins where a guard is held, so no guard pins an
/// epoch long enough to hold back reclamation.
const PIN_CHUNK: u64 = 64;

pub struct ProbeRow {
    pub name: &'static str,
    pub t1_ns: f64,
    pub t2_ns: f64,
}

/// One probe: `make` builds a thread's private objects and returns a
/// closure that performs `n` operations on them.
fn time_per_op<F, G>(threads: usize, batch: Duration, make: &F) -> f64
where
    F: Fn() -> G + Sync,
    G: FnMut(u64),
{
    let barrier = Barrier::new(threads);
    let samples: Vec<f64> = std::thread::scope(|sc| {
        let hs: Vec<_> = (0..threads)
            .map(|_| {
                let barrier = &barrier;
                sc.spawn(move || {
                    let mut op = make();
                    // Register with the runtime before anyone times.
                    let _ = lfc_hazard::pin();
                    barrier.wait();
                    let mut n = PIN_CHUNK;
                    loop {
                        let t = Instant::now();
                        op(n);
                        if t.elapsed() >= batch / 8 {
                            break;
                        }
                        n *= 2;
                    }
                    let n = n * 8;
                    let mut out = Vec::with_capacity(BATCHES);
                    for _ in 0..BATCHES {
                        let t = Instant::now();
                        op(n);
                        out.push(t.elapsed().as_nanos() as f64 / n as f64);
                    }
                    out
                })
            })
            .collect();
        hs.into_iter()
            .flat_map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    crate::median(samples)
}

fn row<F, G>(name: &'static str, scale: &Scale, make: F) -> ProbeRow
where
    F: Fn() -> G + Sync,
    G: FnMut(u64),
{
    ProbeRow {
        name,
        t1_ns: time_per_op(1, scale.probe_batch, &make),
        t2_ns: time_per_op(2, scale.probe_batch, &make),
    }
}

/// A thread's private words for a k-entry commit probe; each operation
/// swings every word between two raw values.
fn commit_probe<const K: usize>() -> impl FnMut(u64) {
    let words: Box<[DAtomic; K]> = Box::new(std::array::from_fn(|_| DAtomic::new(8)));
    let mut cur = 8usize;
    move |n| {
        for _ in 0..n / PIN_CHUNK {
            let g = lfc_hazard::pin();
            for _ in 0..PIN_CHUNK {
                let next = cur ^ 24;
                let entries: [CasnEntry; K] = std::array::from_fn(|i| CasnEntry {
                    ptr: &words[i],
                    old: cur,
                    new: next,
                    hp: 0,
                });
                // SAFETY: every entry points at a distinct word of `words`,
                // which this closure owns for the whole call; no other
                // thread can reach them, so no helper needs an `hp`.
                let r = unsafe { commit_entries(&entries, &g) };
                assert_eq!(r, CasnResult::Success, "private words cannot conflict");
                cur = next;
            }
        }
    }
}

/// All probe rows. Runs only when no other thread of this process is
/// registered with the runtime, so the 1-thread rows really run alone.
pub fn run(scale: &Scale) -> Vec<ProbeRow> {
    let block = Layout::from_size_align(64, 8).expect("valid layout");
    vec![
        row("alloc.block_roundtrip_ns", scale, || {
            move |n| {
                for _ in 0..n {
                    let p = lfc_alloc::alloc_block(block);
                    // SAFETY: `p` came from `alloc_block(block)` just above
                    // and is not used again.
                    unsafe { lfc_alloc::free_block(black_box(p.as_ptr()), block) };
                }
            }
        }),
        row("hazard.pin_ns", scale, || {
            |n| {
                for _ in 0..n {
                    black_box(lfc_hazard::pin());
                }
            }
        }),
        row("dcas.read_ns", scale, || {
            let w = Box::new(DAtomic::new(8));
            move |n| {
                for _ in 0..n / PIN_CHUNK {
                    let g = lfc_hazard::pin();
                    for _ in 0..PIN_CHUNK {
                        black_box(black_box(&*w).read(&g));
                    }
                }
            }
        }),
        row("dcas.commit_k2_ns", scale, commit_probe::<2>),
        row("dcas.commit_k4_ns", scale, commit_probe::<4>),
    ]
}
