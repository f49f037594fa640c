//! Integration tests for the claim-pattern group-commit front-end (PR 7):
//! exactly-once execution, conservation under contention, adaptivity
//! plumbing, and outcome encoding.

use lfc_core::batch::{self, decode_move, decode_swap, encode_move, encode_swap};
use lfc_core::compose::SwapOutcome;
use lfc_core::{BatchGate, MoveKeyedOp, MoveOneOp, MoveOutcome, SwapOp};
use lfc_runtime::metrics::{self, Counter};
use lfc_structures::{LfHashMap, MsQueue};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

#[test]
fn encoding_round_trips_and_stays_raw() {
    for o in [
        MoveOutcome::Moved,
        MoveOutcome::SourceEmpty,
        MoveOutcome::TargetRejected,
        MoveOutcome::WouldAlias,
    ] {
        let w = encode_move(o);
        assert_ne!(w, batch::FLAG_PENDING);
        // Low three bits clear: kind bits say "raw word", user mark unset.
        assert_eq!(w & 0b111, 0);
        assert_eq!(decode_move(w), o);
    }
    for o in [
        SwapOutcome::Swapped,
        SwapOutcome::FirstEmpty,
        SwapOutcome::SecondEmpty,
        SwapOutcome::Rejected,
        SwapOutcome::WouldAlias,
    ] {
        let w = encode_swap(o);
        assert_ne!(w, batch::FLAG_PENDING);
        assert_eq!(w & 0b111, 0);
        assert_eq!(decode_swap(w), o);
    }
}

#[test]
#[should_panic(expected = "not an encoded MoveOutcome")]
fn cross_decoding_panics() {
    let _ = decode_move(encode_swap(SwapOutcome::Swapped));
}

#[test]
fn solo_submits_run_every_shape() {
    let a: LfHashMap<u64, String> = LfHashMap::new();
    let b: LfHashMap<u64, String> = LfHashMap::new();
    a.insert(1, "one".into());

    let gate = BatchGate::new();
    let w = gate.submit(MoveKeyedOp::new(&a, 1u64, &b));
    assert_eq!(decode_move(w), MoveOutcome::Moved);
    assert!(!a.contains(&1) && b.contains(&1));

    // Key now absent from the (new) source.
    let w = gate.submit(MoveKeyedOp::new(&a, 1u64, &b));
    assert_eq!(decode_move(w), MoveOutcome::SourceEmpty);

    // Duplicate key in the target rejects.
    a.insert(1, "again".into());
    let w = gate.submit(MoveKeyedOp::new(&a, 1u64, &b));
    assert_eq!(decode_move(w), MoveOutcome::TargetRejected);
    assert!(a.contains(&1) && b.contains(&1));
}

#[test]
fn batched_path_matches_direct_semantics() {
    // Forcing every submit through the claim list must not change any
    // outcome.
    let q1: MsQueue<u64> = MsQueue::new();
    let q2: MsQueue<u64> = MsQueue::new();
    q1.enqueue(7);
    q1.enqueue(8);
    q2.enqueue(70);

    let gate = BatchGate::always_batched();
    let w = gate.submit(SwapOp::new(&q1, &q2));
    // swap removed 7 from q1 and 70 from q2, crossing them over; 8 was
    // already queued ahead of the swapped-in 70.
    assert_eq!(decode_swap(w), SwapOutcome::Swapped);
    assert_eq!(q1.dequeue(), Some(8));
    assert_eq!(q1.dequeue(), Some(70));
    assert_eq!(q2.dequeue(), Some(7));

    q1.enqueue(99);
    let move_gate = BatchGate::always_batched();
    let before = metrics::total(Counter::BatchBatched);
    let w = move_gate.submit(MoveOneOp::new(&q1, &q2));
    assert_eq!(decode_move(w), MoveOutcome::Moved);
    assert_eq!(q2.dequeue(), Some(99));
    assert!(metrics::total(Counter::BatchBatched) > before);
}

#[test]
fn contended_moves_conserve_elements() {
    // Threads shuttle tokens between two queues through one gate; every
    // submit executes exactly once, so the token count is conserved and
    // per-thread move tallies add up.
    const THREADS: usize = 4;
    const OPS: usize = 300;
    const TOKENS: u64 = 8;

    let a: MsQueue<u64> = MsQueue::new();
    let b: MsQueue<u64> = MsQueue::new();
    for t in 0..TOKENS {
        a.enqueue(t);
    }
    let gate: BatchGate<MoveOneOp<'_, u64, MsQueue<u64>, MsQueue<u64>>> =
        BatchGate::always_batched();
    let barrier = Barrier::new(THREADS);
    let moved = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for i in 0..THREADS {
            let (a, b, gate, barrier, moved) = (&a, &b, &gate, &barrier, &moved);
            s.spawn(move || {
                barrier.wait();
                for k in 0..OPS {
                    let (src, dst): (&MsQueue<u64>, &MsQueue<u64>) =
                        if (i + k) % 2 == 0 { (a, b) } else { (b, a) };
                    match decode_move(gate.submit(MoveOneOp::new(src, dst))) {
                        MoveOutcome::Moved => {
                            moved.fetch_add(1, Ordering::Relaxed);
                        }
                        MoveOutcome::SourceEmpty => {}
                        o => panic!("unexpected outcome {o:?}"),
                    }
                }
            });
        }
    });

    let mut count = 0;
    while a.dequeue().is_some() || b.dequeue().is_some() {
        count += 1;
    }
    assert_eq!(count, TOKENS as usize, "tokens created or destroyed");
    assert!(moved.load(Ordering::Relaxed) > 0);
}

#[test]
fn adaptive_gate_stays_direct_when_uncontended() {
    let a: LfHashMap<u64, u64> = LfHashMap::new();
    let b: LfHashMap<u64, u64> = LfHashMap::new();
    let gate = BatchGate::new();
    let direct_before = metrics::total(Counter::BatchDirect);
    for k in 0..50u64 {
        a.insert(k, k);
        let w = gate.submit(MoveKeyedOp::new(&a, k, &b));
        assert_eq!(decode_move(w), MoveOutcome::Moved);
    }
    // Solo: every submit should have completed on the direct path.
    assert!(metrics::total(Counter::BatchDirect) >= direct_before + 50);
}
