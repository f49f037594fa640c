//! OOM-graceful allocation (PR 8 tentpole, part c): with allocation-failure
//! injection armed at every named site, no operation aborts the process —
//! every failure surfaces as `Err(AllocError)` from a `try_` entry point
//! (with the caller's element handed back where one was consumed), and the
//! hash map degrades to no-resize instead of failing at all.
//!
//! The named sites exercised here: `dcas.desc`, `dcas.casn`, `dcas.rdcss`
//! (commit descriptors), `structures.node`, `structures.header` (object
//! allocations), `map.grow` / `map.segment` / `map.dummy` (directory growth degrade),
//! and the allocator-level `alloc.block` beneath them all.

use lockfree_compose::fault::{arm_site, disarm, fired_total, Schedule};
use lockfree_compose::{
    move_one, try_move_keyed, try_move_one, try_move_to_all, try_swap, LfHashMap, MoveOutcome,
    MsQueue, TreiberStack,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};

/// The fault registry is process-global; serialize the tests sharing it.
static SERIAL: Mutex<()> = Mutex::new(());

/// Commit descriptors are only allocated outside the solo regime: keep a
/// second registered thread alive around `f` so the multi-thread protocol
/// (and with it the fallible allocation paths) actually runs.
fn with_peer<R>(f: impl FnOnce() -> R) -> R {
    // Stop the peer from a drop guard: if `f` panics, `thread::scope`
    // joins the peer *before* resuming the unwind, which would deadlock
    // against a plain store placed after `f()`.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let stop = AtomicBool::new(false);
    let registered = Barrier::new(2);
    std::thread::scope(|sc| {
        sc.spawn(|| {
            // Shielded peer: registers a tid (defeating the solo regime)
            // without tripping any armed site itself.
            lockfree_compose::fault::shield_thread(true);
            let _g = lockfree_compose::hazard::pin();
            registered.wait();
            while !stop.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        });
        let _stop_guard = StopOnDrop(&stop);
        // The body must not start in the solo regime: wait until the peer
        // holds its tid.
        registered.wait();
        f()
    })
}

#[test]
fn composition_try_ops_surface_alloc_errors() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    disarm();
    let q: MsQueue<u64> = MsQueue::new();
    let q2: MsQueue<u64> = MsQueue::new();
    let s: TreiberStack<u64> = TreiberStack::new();
    let s2: TreiberStack<u64> = TreiberStack::new();
    let m: LfHashMap<u64, u64> = LfHashMap::new();
    let m2: LfHashMap<u64, u64> = LfHashMap::new();
    q.enqueue(1);
    // Both swap sides non-empty queues: a stack's insert and remove share
    // the top word, so stack↔anything swaps are `WouldAlias` by design and
    // never reach the commit whose allocation we want to starve.
    q2.enqueue(2);
    m.insert(7, 70);

    with_peer(|| {
        let before = fired_total();
        arm_site("dcas.desc", Schedule::Always);
        arm_site("dcas.casn", Schedule::Always);
        assert!(
            try_move_one(&q, &s).is_err(),
            "2-entry commit needs a DCAS desc"
        );
        assert!(try_move_keyed(&m, &7, &m2).is_err());
        assert!(
            try_swap(&q, &q2).is_err(),
            "4-entry swap commit needs a CASN desc"
        );
        // Fan-out beyond 2 entries goes through CASN.
        assert!(try_move_to_all(&q, &[&s, &s2]).is_err());
        assert!(
            fired_total() >= before + 4,
            "every Err came from an injection"
        );
        disarm();

        // Nothing moved, nothing was lost, and the same calls now succeed.
        assert_eq!(try_move_one(&q, &s), Ok(MoveOutcome::Moved));
        assert_eq!(try_move_keyed(&m, &7, &m2), Ok(MoveOutcome::Moved));
        assert_eq!(s.pop(), Some(1));
        assert_eq!(m2.get(&7), Some(70));
    });
}

#[test]
fn rdcss_exhaustion_fails_casn_commits_gracefully() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    disarm();
    let q: MsQueue<u64> = MsQueue::new();
    let a: TreiberStack<u64> = TreiberStack::new();
    let b: TreiberStack<u64> = TreiberStack::new();
    q.enqueue(5);

    with_peer(|| {
        // The CASN descriptor itself allocates, but every entry install
        // also needs an RDCSS descriptor: starve only those. Nth (not
        // Always) keeps concurrent best-effort helpers from livelocking
        // the owner's read loop — the documented schedule for this site.
        arm_site("dcas.rdcss", Schedule::Nth(1));
        let r = try_move_to_all(&q, &[&a, &b]);
        disarm();
        assert!(r.is_err(), "owner's first RDCSS allocation failed");
        assert_eq!(
            q.dequeue(),
            Some(5),
            "aborted commit left the source intact"
        );
        assert!(a.is_empty() && b.is_empty());
    });
}

#[test]
fn structure_try_ops_hand_the_element_back() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    disarm();
    let q: MsQueue<String> = MsQueue::new();
    let s: TreiberStack<String> = TreiberStack::new();
    let m: LfHashMap<u64, String> = LfHashMap::new();

    arm_site("structures.node", Schedule::Always);
    let (v, _) = s.try_push("stack".into()).expect_err("node starved");
    assert_eq!(v, "stack", "element handed back");
    let (v, _) = q.try_enqueue("queue".into()).expect_err("node starved");
    assert_eq!(v, "queue");
    let ((k, v), _) = m.try_insert(3, "map".into()).expect_err("node starved");
    assert_eq!((k, v.as_str()), (3, "map"));
    disarm();

    assert!(s.try_push("stack".into()).is_ok());
    assert!(q.try_enqueue("queue".into()).is_ok());
    assert_eq!(m.try_insert(3, "map".into()), Ok(true));
    assert_eq!(s.pop().as_deref(), Some("stack"));
    assert_eq!(q.dequeue().as_deref(), Some("queue"));
    assert_eq!(m.get(&3).as_deref(), Some("map"));
}

#[test]
fn constructors_fail_fallibly() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    disarm();
    arm_site("structures.header", Schedule::Always);
    assert!(TreiberStack::<u64>::try_new().is_err());
    assert!(MsQueue::<u64>::try_new().is_err());
    disarm();
    assert!(TreiberStack::<u64>::try_new().is_ok());
    assert!(MsQueue::<u64>::try_new().is_ok());
}

#[test]
fn map_degrades_to_no_resize_under_pressure() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    disarm();
    let m: LfHashMap<u64, u64> = LfHashMap::with_buckets(2);

    // Growth starved at every layer: the doubling CAS, the directory
    // segments, and the bucket dummies. Inserts must keep succeeding —
    // the map just runs at a higher load factor on coarser chains.
    arm_site("map.grow", Schedule::Always);
    arm_site("map.segment", Schedule::Always);
    arm_site("map.dummy", Schedule::Always);
    for k in 0..500u64 {
        assert!(m.insert(k, !k), "insert {k} under growth pressure");
    }
    assert_eq!(m.capacity(), 2, "no doubling happened under pressure");
    for k in 0..500u64 {
        assert_eq!(m.get(&k), Some(!k));
    }
    assert_eq!(m.count(), 500);
    disarm();

    // Pressure lifts: the very next inserts re-trigger the heuristic and
    // the directory heals (dummies thread in lazily on first touch).
    for k in 500..1_200u64 {
        assert!(m.insert(k, !k));
    }
    assert!(m.capacity() > 2, "growth resumed after disarm");
    for k in 0..1_200u64 {
        assert_eq!(m.get(&k), Some(!k), "key {k} after degrade + regrow");
    }
}

#[test]
fn allocator_level_failures_stay_fallible() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    disarm();
    let s: TreiberStack<u64> = TreiberStack::new();
    let q: MsQueue<u64> = MsQueue::new();
    q.enqueue(2);

    // Below every named site sits `alloc.block` in lfc-alloc itself; the
    // try_ paths must propagate it as the same AllocError.
    arm_site("alloc.block", Schedule::Always);
    assert!(s.try_push(1).is_err());
    disarm();
    assert!(s.try_push(1).is_ok());

    // And the infallible API never noticed any of this.
    assert_eq!(move_one(&q, &s), MoveOutcome::Moved);
    assert_eq!(s.pop(), Some(2));
}
