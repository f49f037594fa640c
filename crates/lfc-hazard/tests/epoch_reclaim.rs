//! Unified-reclamation tests: epoch-batched protection, its interaction
//! with hazard slots, and the multi-thread traverse-while-retiring stress
//! (`--ignored stress`, run release-mode by CI).

use lfc_hazard::{advance_epoch, epoch_now, flush, min_active_epoch, pin, pin_op, retire, slot};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Flush until `cond` holds or the deadline passes (epoch reclamation is
/// deferred while any reader — including sibling tests — is pinned).
fn flush_until(cond: impl Fn() -> bool) -> bool {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !cond() && std::time::Instant::now() < deadline {
        flush();
        std::thread::yield_now();
    }
    cond()
}

macro_rules! counted_reclaimer {
    ($counter:ident, $reclaim:ident) => {
        static $counter: AtomicUsize = AtomicUsize::new(0);
        unsafe fn $reclaim(p: *mut u8) {
            drop(unsafe { Box::from_raw(p as *mut u64) });
            $counter.fetch_add(1, Ordering::SeqCst);
        }
    };
}

#[test]
fn op_guard_publishes_and_clears_epoch() {
    let _g = pin_op();
    // Our entry epoch is at most the global epoch read after entering. The
    // minimum over all readers is compared against that, not against an
    // earlier minimum: a sibling test's lower epoch may exit in between.
    let own = epoch_now();
    let m = min_active_epoch().expect("our own epoch must be visible");
    assert!((1..=own).contains(&m));
    // Nested entries share the outermost epoch.
    let inner = pin_op();
    assert!(min_active_epoch().unwrap() <= own);
    drop(inner);
    assert!(
        min_active_epoch().is_some(),
        "outermost epoch survives nested exit"
    );
}

#[test]
fn retire_under_own_epoch_is_deferred() {
    counted_reclaimer!(DROPS, reclaim);
    let p = Box::into_raw(Box::new(5u64)) as *mut u8;
    let addr = p as usize;
    {
        let _g = pin_op();
        unsafe { retire(p, reclaim) };
        // Our own epoch pins the record (it is tagged at our generation or
        // later): no number of flushes may free it while we are pinned.
        for _ in 0..4 {
            flush();
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 0);
        // Read through the pointer: must still be alive.
        assert_eq!(unsafe { *(addr as *const u64) }, 5);
    }
    assert!(
        flush_until(|| DROPS.load(Ordering::SeqCst) == 1),
        "retiree must be reclaimed once the epoch exits"
    );
}

/// The PR 3 acceptance property: a block whose only protection is an
/// ENTRY/HELP hazard slot is never freed by an epoch-bin sweep, no matter
/// how far the global epoch advances past every quiesced reader.
#[test]
fn entry_hazard_blocks_epoch_sweep() {
    counted_reclaimer!(DROPS, reclaim);
    let g = pin();
    let p = Box::into_raw(Box::new(0xC0FFEEu64)) as *mut u8;
    let addr = p as usize;
    // Promote as the composition engine does at capture time (no epoch
    // active afterwards — the hazard is the block's only protection).
    g.promote(slot::ENTRY0, addr);
    unsafe { retire(p, reclaim) };
    for _ in 0..5 {
        advance_epoch();
        flush();
    }
    // Epochs have advanced far beyond every (non-existent) reader; the
    // hazard alone must have kept the block.
    assert_eq!(DROPS.load(Ordering::SeqCst), 0);
    assert_eq!(unsafe { *(addr as *const u64) }, 0xC0FFEE);
    g.clear(slot::ENTRY0);
    assert!(
        flush_until(|| DROPS.load(Ordering::SeqCst) == 1),
        "cleared hazard must allow reclamation"
    );
}

#[test]
fn forced_advance_is_monotonic() {
    let e0 = lfc_hazard::epoch_now();
    let e1 = advance_epoch();
    assert!(e1 > e0);
    assert!(lfc_hazard::epoch_now() >= e1);
}

/// Threads traverse a shared pool of boxes through `pin_op` epochs while a
/// writer continuously swaps in replacements and retires the old blocks.
/// Every retired block must (a) stay readable and untorn while any reader
/// can hold it, and (b) be dropped once the threads quiesce and scans run.
#[test]
#[ignore = "stress: run with --release -- --ignored stress"]
fn stress_traversal_while_retiring() {
    const READERS: usize = 3;
    const SWAPS: usize = 40_000;
    const SLOTS: usize = 16;

    static STRESS_DROPS: AtomicUsize = AtomicUsize::new(0);
    unsafe fn reclaim_pair(p: *mut u8) {
        drop(unsafe { Box::from_raw(p as *mut (u64, u64)) });
        STRESS_DROPS.fetch_add(1, Ordering::SeqCst);
    }
    fn pair_box(v: u64) -> usize {
        // Invariant readers check: .1 is always !.0.
        Box::into_raw(Box::new((v, !v))) as usize
    }

    let created = AtomicUsize::new(SLOTS);
    let slots: Vec<AtomicUsize> = (0..SLOTS)
        .map(|i| AtomicUsize::new(pair_box(i as u64)))
        .collect();
    let stop = AtomicUsize::new(0);

    std::thread::scope(|sc| {
        for _ in 0..READERS {
            let slots = &slots;
            let stop = &stop;
            sc.spawn(move || {
                while stop.load(Ordering::Relaxed) == 0 {
                    let _g = pin_op();
                    for s in slots {
                        let p = s.load(Ordering::Acquire) as *const (u64, u64);
                        // Safety: the block was reachable inside our epoch;
                        // the unified domain must keep it alive.
                        let a = unsafe { (*p).0 };
                        let b = unsafe { (*p).1 };
                        assert_eq!(b, !a, "torn or reclaimed block observed");
                    }
                }
            });
        }
        {
            let slots = &slots;
            let created = &created;
            let stop = &stop;
            sc.spawn(move || {
                for i in 0..SWAPS {
                    let idx = i % SLOTS;
                    let fresh = pair_box((SLOTS + i) as u64);
                    created.fetch_add(1, Ordering::Relaxed);
                    let old = slots[idx].swap(fresh, Ordering::AcqRel);
                    // Safety: `old` is unlinked (no new traversal can load
                    // it from the slot) and freed exactly once here.
                    unsafe { retire(old as *mut u8, reclaim_pair) };
                }
                stop.store(1, Ordering::Relaxed);
            });
        }
    });

    // Tear down the survivors.
    for s in &slots {
        unsafe { retire(s.load(Ordering::Relaxed) as *mut u8, reclaim_pair) };
    }
    let total = created.load(Ordering::Relaxed);
    assert!(
        flush_until(|| STRESS_DROPS.load(Ordering::SeqCst) == total),
        "every retired block must drop after flush: {}/{}",
        STRESS_DROPS.load(Ordering::SeqCst),
        total
    );
}
