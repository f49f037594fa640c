//! Deterministic coverage of the unified k-entry commit
//! (`lfc_dcas::engine::commit_entries`) across its three regimes.
//!
//! This file intentionally holds **one** test function: integration tests
//! in one binary run on a thread pool, and a sibling test's `pin()` would
//! register a second thread and disable the solo regime. With a single
//! test, the solo branch is guaranteed taken for the first phase, and the
//! spawned-thread phase guarantees the published K=2 (DCAS) and K>2 (CASN)
//! dispatches — all asserted against the same all-or-nothing contract.

use lfc_dcas::{commit_entries, CasnEntry, CasnResult, DAtomic, MAX_ENTRIES};
use lfc_hazard::pin;
use lfc_runtime::metrics;

fn entry(w: &DAtomic, old: usize, new: usize) -> CasnEntry {
    CasnEntry {
        ptr: w,
        old,
        new,
        hp: 0,
    }
}

fn commit(entries: &[CasnEntry], g: &lfc_hazard::Guard) -> CasnResult {
    // Safety: every entry in this file is built by `entry` from a `&DAtomic`
    // that outlives the call, over pairwise-distinct words.
    unsafe { commit_entries(entries, g) }
}

#[test]
fn unified_commit_covers_solo_dcas_and_casn_regimes() {
    let g = pin();
    assert_eq!(
        lfc_runtime::active_threads(),
        1,
        "this binary must contain exactly this one test"
    );

    // --- Phase 1: solo regime, every supported width. ---
    for k in 2..=MAX_ENTRIES {
        let words: Vec<DAtomic> = (0..k).map(|i| DAtomic::new(i * 8)).collect();
        let ok: Vec<CasnEntry> = words
            .iter()
            .enumerate()
            .map(|(i, w)| entry(w, i * 8, i * 8 + 8))
            .collect();
        assert_eq!(commit(&ok, &g), CasnResult::Success);
        for (i, w) in words.iter().enumerate() {
            assert_eq!(w.read(&g), i * 8 + 8, "k={k}: every word swung");
        }

        // Last-entry mismatch: the whole prefix must be rolled back and the
        // failing index reported (the generalized FIRSTFAILED/SECONDFAILED).
        let bad: Vec<CasnEntry> = words
            .iter()
            .enumerate()
            .map(|(i, w)| {
                if i == k - 1 {
                    entry(w, 0xBAD0, 1 << 4)
                } else {
                    entry(w, i * 8 + 8, i * 8 + 16)
                }
            })
            .collect();
        assert_eq!(commit(&bad, &g), CasnResult::FailedAt(k - 1));
        for (i, w) in words.iter().enumerate() {
            assert_eq!(w.read(&g), i * 8 + 8, "k={k}: nothing left changed");
        }
    }
    // Solo commits build no descriptors at all.
    let e = metrics::snapshot().engine;
    assert_eq!(
        e.casn_pool_hits + e.casn_pool_misses,
        0,
        "the solo regime must never allocate a CASN descriptor"
    );

    // --- Phase 2: a second registered thread forces the published paths. ---
    let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
    let blocker = std::thread::spawn(move || {
        let _g = pin();
        ready_tx.send(()).unwrap();
        stop_rx.recv().ok();
    });
    ready_rx.recv().unwrap();
    assert!(lfc_runtime::active_threads() > 1, "solo regime disabled");

    // K=2 dispatch: the paper's DCAS protocol, with the failing index
    // translated from FIRSTFAILED/SECONDFAILED.
    let a = DAtomic::new(0);
    let b = DAtomic::new(8);
    assert_eq!(
        commit(&[entry(&a, 0, 16), entry(&b, 8, 24)], &g),
        CasnResult::Success
    );
    assert_eq!((a.read(&g), b.read(&g)), (16, 24));
    assert_eq!(
        commit(&[entry(&a, 0xBAD0, 1 << 4), entry(&b, 24, 32)], &g),
        CasnResult::FailedAt(0)
    );
    assert_eq!(
        commit(&[entry(&a, 16, 32), entry(&b, 0xBAD0, 1 << 4)], &g),
        CasnResult::FailedAt(1)
    );
    assert_eq!((a.read(&g), b.read(&g)), (16, 24), "nothing left changed");

    // K=3 dispatch: the CASN protocol, now pooled — steady-state commits
    // must recycle descriptors instead of falling through to `lfc-alloc`.
    let words: Vec<DAtomic> = (0..3).map(|i| DAtomic::new(i * 8)).collect();
    let e0 = metrics::snapshot().engine;
    for round in 0..60usize {
        let es: Vec<CasnEntry> = words
            .iter()
            .enumerate()
            .map(|(i, w)| entry(w, i * 8 + round * 8, i * 8 + round * 8 + 8))
            .collect();
        assert_eq!(commit(&es, &g), CasnResult::Success);
        // Retired descriptors come back through the hazard domain; a flush
        // per iteration makes the recycling deterministic for the assert.
        lfc_hazard::flush();
    }
    let e = metrics::snapshot().engine;
    assert!(
        e.casn_pool_hits > 0 && e.rdcss_pool_hits > 0,
        "steady-state CASN commits must reuse pooled descriptors (casn hits {}, rdcss hits {})",
        e.casn_pool_hits,
        e.rdcss_pool_hits
    );
    let misses =
        e.casn_pool_misses + e.rdcss_pool_misses - e0.casn_pool_misses - e0.rdcss_pool_misses;
    assert!(
        misses <= 16,
        "steady-state misses must be bounded by the warmup burst, got {misses}"
    );

    stop_tx.send(()).unwrap();
    blocker.join().unwrap();
}
