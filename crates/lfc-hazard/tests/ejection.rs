//! Edge cases of the PR 6 ejection ladder (EJ mark → zombie promotion →
//! birth-partitioned divert), exercised straight against the hazard domain:
//!
//! * the full R1→Z→divert flow against a genuinely parked reader,
//! * the eject-then-exit race (owner exits instead of restarting — the
//!   exit store doubles as the acknowledgement),
//! * nested `pin_op` under ejection (only the outermost restarts),
//! * detaching a thread whose slot went through ejection,
//! * a single-threaded Miri-safe smoke of the self-ejection path.
//!
//! Every test mutates the process-global stall policy, so they serialize
//! on a mutex and restore `StallPolicy::DEFAULT` before releasing it.

use lfc_hazard::{
    advance_epoch, birth_era, configure_stall_policy, ejection_stats, flush, pin_op, retire_with,
    RetireInfo, StallPolicy,
};
use lfc_runtime::metrics::{self, Counter};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static LOCK: Mutex<()> = Mutex::new(());

/// Zero budgets (any garbage is pressure), one-era stall and grace.
const AGGRESSIVE: StallPolicy = StallPolicy {
    stall_eras: 1,
    grace_eras: 1,
    max_retired_bytes: 0,
    max_retired_count: 0,
};

/// Policy guard: configures on entry, restores DEFAULT on drop (also on
/// panic, so a failing test cannot leak the aggressive policy).
struct Aggressive;
impl Aggressive {
    fn new() -> Self {
        configure_stall_policy(AGGRESSIVE);
        Aggressive
    }
}
impl Drop for Aggressive {
    fn drop(&mut self) {
        configure_stall_policy(StallPolicy::DEFAULT);
    }
}

static DIVERTS: AtomicUsize = AtomicUsize::new(0);
static RECLAIMS: AtomicUsize = AtomicUsize::new(0);

unsafe fn divert_block(p: *mut u8) {
    // No drop glue on u64: freeing the block is all a divert may do.
    drop(unsafe { Box::from_raw(p as *mut u64) });
    DIVERTS.fetch_add(1, Ordering::SeqCst);
}

unsafe fn reclaim_block(p: *mut u8) {
    drop(unsafe { Box::from_raw(p as *mut u64) });
    RECLAIMS.fetch_add(1, Ordering::SeqCst);
}

/// Retire a fresh block with a known birth and a divert route.
fn retire_probe() {
    let p = Box::into_raw(Box::new(0u64)) as *mut u8;
    // Safety: freed exactly once, via the domain.
    unsafe {
        retire_with(
            p,
            reclaim_block,
            RetireInfo {
                bytes: 8,
                birth: birth_era(),
                divert: Some(divert_block),
            },
        )
    };
}

fn spin_until(deadline_secs: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(deadline_secs);
    while !cond() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// Full ladder against a parked reader: the stalled thread is EJ-marked,
/// zombie-promoted, and the garbage it pins is *diverted* (freed without
/// drop glue) rather than retained; the reader then restarts cleanly.
#[test]
#[cfg_attr(miri, ignore = "multi-thread park loops; Miri runs the smoke")]
fn parked_reader_is_ejected_and_garbage_diverted() {
    let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let entered = AtomicBool::new(false);
    let release = AtomicBool::new(false);
    let restarted = AtomicBool::new(false);

    std::thread::scope(|sc| {
        sc.spawn(|| {
            let mut g = pin_op();
            entered.store(true, Ordering::SeqCst);
            // Park mid-"traversal" (no pointers held across the park).
            while !release.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            assert!(g.ejected(), "scan must have marked the parked slot");
            assert!(g.repin_if_ejected(), "outermost op must restart");
            assert!(!g.ejected(), "fresh era is unmarked");
            restarted.store(true, Ordering::SeqCst);
        });

        assert!(spin_until(30, || entered.load(Ordering::SeqCst)));
        let _pol = Aggressive::new();
        let (ej0, z0) = ejection_stats();
        let d0 = metrics::total(Counter::Diverted);
        // Garbage retired while the reader's epoch covers it: only the
        // zombie partition (divert) can free it before the reader exits.
        retire_probe();
        assert!(
            spin_until(30, || {
                advance_epoch();
                flush();
                metrics::total(Counter::Diverted) > d0
            }),
            "zombie-pinned divertable garbage must be diverted"
        );
        let (ej1, z1) = ejection_stats();
        assert!(ej1 > ej0, "parked slot must be EJ-marked");
        assert!(z1 > z0, "EJ slot past grace must be zombie-promoted");

        release.store(true, Ordering::SeqCst);
    });
    assert!(restarted.load(Ordering::SeqCst));
}

/// Eject-then-exit race: the owner finishes its operation instead of
/// restarting. The exit store (0) clobbers the mark — an implicit
/// acknowledgement — and the next entry starts from a clean slot.
#[test]
#[cfg_attr(miri, ignore = "multi-thread park loops; Miri runs the smoke")]
fn ejected_owner_may_exit_instead_of_restarting() {
    let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let entered = AtomicBool::new(false);
    let release = AtomicBool::new(false);

    std::thread::scope(|sc| {
        sc.spawn(|| {
            {
                let g = pin_op();
                entered.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                assert!(g.ejected());
                // Drop without repin: exit is the acknowledgement.
            }
            // Re-entry after an exit-ACK must be clean.
            let mut g = pin_op();
            assert!(!g.ejected(), "exit must clear the mark");
            assert!(!g.repin_if_ejected());
        });

        assert!(spin_until(30, || entered.load(Ordering::SeqCst)));
        let _pol = Aggressive::new();
        let (ej0, _) = ejection_stats();
        retire_probe();
        assert!(
            spin_until(30, || {
                advance_epoch();
                flush();
                ejection_stats().0 > ej0
            }),
            "parked slot must be EJ-marked"
        );
        release.store(true, Ordering::SeqCst);
    });
    // With every reader gone the probe drains through the normal path
    // (reclaim or an earlier divert — either way it is freed).
    assert!(spin_until(30, || {
        advance_epoch();
        flush();
        lfc_hazard::pending_retired() == 0
    }));
}

/// Detach-while-ejected: a thread rides the ladder, acknowledges by exit,
/// then detaches its tid. A successor thread reusing the slot must start
/// unmarked.
#[test]
#[cfg_attr(miri, ignore = "multi-thread park loops; Miri runs the smoke")]
fn detach_after_ejection_leaves_clean_slot() {
    let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let entered = AtomicBool::new(false);
    let release = AtomicBool::new(false);

    std::thread::scope(|sc| {
        sc.spawn(|| {
            {
                let g = pin_op();
                entered.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                assert!(g.ejected());
            }
            // Slot is 0 (exit-ACK); hand the tid back for reuse.
            lfc_runtime::detach_thread();
        });

        assert!(spin_until(30, || entered.load(Ordering::SeqCst)));
        let _pol = Aggressive::new();
        let (ej0, _) = ejection_stats();
        retire_probe();
        assert!(
            spin_until(30, || {
                advance_epoch();
                flush();
                ejection_stats().0 > ej0
            }),
            "parked slot must be EJ-marked"
        );
        release.store(true, Ordering::SeqCst);
    });

    // A fresh thread (possibly reusing the detached tid) starts clean.
    std::thread::scope(|sc| {
        sc.spawn(|| {
            let mut g = pin_op();
            assert!(!g.ejected(), "reused slot must start unmarked");
            assert!(!g.repin_if_ejected());
        });
    });
}

/// Single-threaded smoke (Miri-safe): self-ejection through our own scans,
/// nested guard refusal, and the outermost restart.
#[test]
fn nested_pin_op_defers_restart_to_outermost() {
    let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _pol = Aggressive::new();

    let mut outer = pin_op();
    {
        let mut inner = pin_op();
        retire_probe();
        // Our own scans observe our own lagging slot.
        for _ in 0..6 {
            advance_epoch();
            flush();
        }
        assert!(inner.ejected(), "slot mark visible through any guard");
        assert!(
            !inner.repin_if_ejected(),
            "nested op must not restart (depth 2)"
        );
        assert!(inner.ejected(), "refusal must not acknowledge");
    }
    assert!(outer.ejected());
    assert!(outer.repin_if_ejected(), "outermost op restarts");
    assert!(!outer.ejected());
    drop(outer);

    // Domain drains once no reader is left.
    assert!(spin_until(30, || {
        advance_epoch();
        flush();
        lfc_hazard::pending_retired() == 0
    }));
}
