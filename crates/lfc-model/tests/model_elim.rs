//! Bounded-exhaustive model checking of the Treiber stack's elimination
//! exchanger: a pusher and a popper race with the exchanger forced in
//! front of the `top` CAS.
//!
//! Requires `RUSTFLAGS="--cfg lfc_model"`; compiles to nothing otherwise.
//! The forced-elimination scenario flips a process-global toggle, so the
//! file serializes itself through a mutex.
#![cfg(lfc_model)]

use lfc_linear::{check_linearizable, render_history, Cont, PairOp, PairSpec, Recorder};
use lfc_model::{explore, ExploreOpts, MemoryMode};
use lfc_structures::TreiberStack;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes the scenarios in this file (they flip process-global
/// toggles) and restores every toggle on drop, even on panic.
struct Toggles {
    _lock: MutexGuard<'static, ()>,
}

impl Toggles {
    fn take() -> Toggles {
        static LOCK: Mutex<()> = Mutex::new(());
        let lock = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        Toggles { _lock: lock }
    }
}

impl Drop for Toggles {
    fn drop(&mut self) {
        lfc_structures::model_toggles::FORCE_ELIM.store(false, Ordering::SeqCst);
    }
}

fn opts(bound: u32) -> ExploreOpts {
    ExploreOpts {
        preemption_bound: bound,
        step_budget: 200_000,
        max_executions: 60_000,
        memory: MemoryMode::Interleaving,
    }
}

#[test]
fn dfs_elimination_exchange_is_linearizable() {
    // A pusher and two pops race on one stack with the exchanger forced
    // in front of the `top` CAS, so claim/withdraw/claim-lost races are
    // explored directly. Every recorded history must linearize against a
    // LIFO spec, and the element must surface exactly once.
    let _t = Toggles::take();
    lfc_structures::model_toggles::FORCE_ELIM.store(true, Ordering::SeqCst);
    let spec = PairSpec {
        a: Cont::Lifo,
        b: Cont::Fifo, // unused side of the pair spec
    };
    let report = explore(opts(2), move || {
        let s = Arc::new(TreiberStack::<u32>::new());
        let rec = Arc::new(Recorder::<PairOp>::new());
        let (s1, r1) = (s.clone(), rec.clone());
        let pusher = lfc_model::thread::spawn(move || {
            r1.record(|| {
                s1.push(7);
                PairOp::InsA(7)
            });
        });
        let (s2, r2) = (s.clone(), rec.clone());
        let popper = lfc_model::thread::spawn(move || {
            r2.record(|| PairOp::RemA(s2.pop()));
        });
        pusher.join();
        popper.join();
        rec.record(|| PairOp::RemA(s.pop()));
        let rec = Arc::try_unwrap(rec).unwrap_or_else(|_| panic!("sole recorder owner"));
        let h = rec.finish();
        assert!(
            check_linearizable(&spec, &h).is_linearizable(),
            "elimination broke LIFO:\n{}",
            render_history(&h)
        );
    });
    report.assert_ok();
    assert!(report.executions > 10, "exchanger must branch");
}
