//! Forced-stall adversary (PR 6 acceptance): one reader parks *forever*
//! inside an operation epoch while writers churn retire-heavy operations.
//! Without the ejection ladder every retired node tags at or above the
//! parked reader's entry era and is retained — garbage grows with the
//! churn rate (hundreds of MiB/s in release). With the ladder the reader
//! is ejected and zombified once the byte budget is exceeded, divertable
//! garbage is partitioned out, and the retired set stays bounded.
//!
//! Ignored by default (multi-second wall clock); CI's nightly stall job
//! runs `cargo test --release -- --ignored stall` and archives the
//! `stall-series:` sample lines this test prints.

use lfc_hazard::{configure_stall_policy, ejection_stats, retired_bytes, StallPolicy};
use lfc_runtime::metrics::{self, Counter};
use lfc_structures::TreiberStack;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const WRITERS: usize = 4;
const CHURN_SECS: u64 = 2;
const SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// Budget: eject once a parked reader pins more than 1 MiB / 16Ki records.
const POLICY: StallPolicy = StallPolicy {
    stall_eras: 16,
    grace_eras: 16,
    max_retired_bytes: 1 << 20,
    max_retired_count: 16 * 1024,
};

/// The asserted ceiling on the observed retired-set high-water mark. Slack
/// over the policy budget covers scan latency (garbage keeps arriving
/// between the budget being crossed and the zombie partition freeing it)
/// — but it is orders of magnitude below the unbounded-growth rate.
const BOUND_BYTES: usize = 64 << 20;

#[test]
#[ignore = "stall adversary: run with --release -- --ignored stall"]
fn stall_parked_reader_keeps_garbage_bounded() {
    configure_stall_policy(POLICY);
    let stop = AtomicBool::new(false);
    let parked = AtomicBool::new(false);

    let mut series: Vec<(u128, usize)> = Vec::new();
    let (ej0, z0) = ejection_stats();
    let d0 = metrics::total(Counter::Diverted);

    std::thread::scope(|sc| {
        // The stalled reader: enters an operation epoch "mid-traversal"
        // and never comes back until the test ends.
        sc.spawn(|| {
            let mut g = lfc_hazard::pin_op();
            parked.store(true, Ordering::SeqCst);
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            // On resume the structure idiom restarts the operation; by
            // then the scans must have ejected this slot.
            assert!(g.ejected(), "a stalled-past-budget reader must be marked");
            assert!(g.repin_if_ejected(), "resumed reader restarts cleanly");
        });

        while !parked.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }

        // Retire-heavy churn: every pop retires a node the parked reader's
        // era would pin forever.
        for w in 0..WRITERS {
            let stop = &stop;
            sc.spawn(move || {
                let s: TreiberStack<u64> = TreiberStack::new();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..64 {
                        s.push(w as u64 ^ i);
                        i = i.wrapping_add(1);
                    }
                    for _ in 0..64 {
                        let _ = s.pop();
                    }
                }
            });
        }

        // Sample the retired-set size for the whole churn window.
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(CHURN_SECS) {
            series.push((t0.elapsed().as_millis(), retired_bytes()));
            std::thread::sleep(SAMPLE_EVERY);
        }
        stop.store(true, Ordering::SeqCst);
    });

    configure_stall_policy(StallPolicy::DEFAULT);

    // CI artifact: the full series, one line per sample.
    for (ms, bytes) in &series {
        println!("stall-series: t_ms={ms} retired_bytes={bytes}");
    }
    let peak = series.iter().map(|&(_, b)| b).max().unwrap_or(0);
    let (ej1, z1) = ejection_stats();
    let d1 = metrics::total(Counter::Diverted);
    println!(
        "stall-summary: peak_retired_bytes={peak} bound={BOUND_BYTES} \
         ejections={} zombies={} diverted={}",
        ej1 - ej0,
        z1 - z0,
        d1 - d0
    );

    assert!(ej1 > ej0, "the parked reader must have been ejected");
    assert!(z1 > z0, "the ejected reader must have been zombie-promoted");
    assert!(
        d1 > d0,
        "zombie-pinned node garbage must have been diverted"
    );
    assert!(
        peak <= BOUND_BYTES,
        "retired-set high-water {peak} exceeded the stall bound {BOUND_BYTES}"
    );
}
