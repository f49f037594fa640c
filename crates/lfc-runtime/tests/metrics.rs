//! The per-thread counter registry: exact sums across thread exits, counts
//! that survive a block changing owner, bumps from thread teardown, and
//! per-thread deltas that sibling threads cannot disturb.

use lfc_runtime::metrics::{self, Counter};
use lfc_runtime::{active_threads, on_thread_exit};
use std::sync::{Barrier, Mutex, PoisonError};

/// The tests share the process-wide totals (and, for the hand-over test,
/// the order in which blocks are claimed): run them one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Nothing in this crate's library bumps it, so only these tests move it.
const C: Counter = Counter::ElimPairs;

#[test]
fn sum_is_exact_while_threads_live_and_after_they_exit() {
    let _s = serial();
    const THREADS: usize = 4;
    const BUMPS: u64 = 10_000;
    let before = metrics::total(C);
    let active = active_threads();
    let bumped = Barrier::new(THREADS + 1);
    let read = Barrier::new(THREADS + 1);
    let (live_sum, live_active) = std::thread::scope(|sc| {
        for _ in 0..THREADS {
            sc.spawn(|| {
                for _ in 0..BUMPS {
                    metrics::bump(C);
                }
                bumped.wait();
                read.wait();
            });
        }
        bumped.wait();
        let live = (metrics::total(C), active_threads());
        read.wait();
        live
    });
    assert_eq!(live_sum, before + THREADS as u64 * BUMPS);
    // Counting claims a block, never a runtime id.
    assert_eq!(live_active, active);
    assert_eq!(metrics::total(C), before + THREADS as u64 * BUMPS);
}

#[test]
fn a_block_keeps_its_counts_when_a_new_thread_takes_it_over() {
    let _s = serial();
    let before = metrics::total(C);
    let first = std::thread::spawn(|| {
        metrics::local().add(C, 100);
        metrics::local().snapshot()
    })
    .join()
    .expect("first owner");
    // Spawned strictly after the first owner exited, with nothing else
    // claiming in between: the lowest free block is the one it released.
    let (inherited, after_bumps) = std::thread::spawn(|| {
        let inherited = metrics::local().snapshot();
        metrics::local().add(C, 5);
        (inherited, metrics::local().snapshot())
    })
    .join()
    .expect("second owner");
    assert_eq!(inherited, first, "the new owner starts from the old counts");
    assert_eq!(
        after_bumps.structures.elim_pairs,
        first.structures.elim_pairs + 5
    );
    assert_eq!(metrics::total(C), before + 105);
}

#[test]
fn bumps_from_thread_teardown_are_counted() {
    struct BumpOnDrop;
    impl Drop for BumpOnDrop {
        fn drop(&mut self) {
            metrics::local().add(C, 5);
        }
    }
    thread_local! {
        static LATE: BumpOnDrop = const { BumpOnDrop };
    }
    let _s = serial();
    let before = metrics::total(C);
    std::thread::spawn(|| {
        // Touched first, so its destructor may run after the registry's
        // own teardown: those bumps must land on the shared fallback.
        LATE.with(|_| ());
        metrics::bump(C);
        on_thread_exit(Box::new(|| metrics::local().add(C, 7)));
    })
    .join()
    .expect("exiting thread");
    assert_eq!(metrics::total(C), before + 1 + 7 + 5);
}

#[test]
fn a_sibling_never_shows_in_this_threads_delta() {
    let _s = serial();
    let before = metrics::local().snapshot();
    let bumped = Barrier::new(2);
    std::thread::scope(|sc| {
        sc.spawn(|| {
            metrics::local().add(C, 1_000);
            bumped.wait();
        });
        bumped.wait();
        metrics::local().add(C, 3);
    });
    let after = metrics::local().snapshot();
    assert_eq!(
        after.structures.elim_pairs - before.structures.elim_pairs,
        3
    );
}
