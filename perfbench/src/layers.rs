//! The one adapter over the layers' public counter readouts. Every counter
//! the benchmark reports is read here, so a change to how the layers
//! expose their counters has exactly one place to repoint.
//!
//! All reads are process-wide loads; none of them registers the calling
//! thread with the runtime, so the timekeeping thread can take snapshots
//! without changing the active-thread count.

use lfc_ledger::Ledger;

#[derive(Clone, Copy, Default, Debug)]
pub struct Snapshot {
    pub alloc_fresh: u64,
    pub alloc_recycled: u64,
    pub retired: u64,
    pub scans: u64,
    pub ejections: u64,
    pub desc_hits: u64,
    pub desc_misses: u64,
    pub casn_hits: u64,
    pub casn_misses: u64,
    pub help_runs: u64,
    pub helped_completions: u64,
    pub elim_pairs: u64,
    pub faults_fired: u64,
    pub active_threads: u64,
    pub shed: u64,
    pub overloaded: u64,
    pub alloc_errors: u64,
}

/// Read every counter; `ledger` adds the service's refusal counters.
pub fn snapshot(ledger: Option<&Ledger>) -> Snapshot {
    let a = lfc_alloc::stats();
    let (retired, _reclaimed) = lfc_hazard::stats();
    let h = ledger.map(|l| l.health().stats());
    Snapshot {
        alloc_fresh: a.fresh as u64,
        alloc_recycled: a.recycled as u64,
        retired: retired as u64,
        scans: lfc_hazard::scan_count() as u64,
        ejections: lfc_hazard::ejection_stats().0 as u64,
        desc_hits: lfc_dcas::counters::desc_pool_hits() as u64,
        desc_misses: lfc_dcas::counters::desc_pool_misses() as u64,
        casn_hits: lfc_dcas::kcas::counters::casn_pool_hits() as u64,
        casn_misses: lfc_dcas::kcas::counters::casn_pool_misses() as u64,
        help_runs: lfc_dcas::counters::help_runs() as u64,
        helped_completions: lfc_dcas::helped_completions() as u64,
        elim_pairs: lfc_structures::elim::counters::eliminated_pairs(),
        faults_fired: lfc_runtime::fault::fired_total(),
        active_threads: lfc_runtime::active_threads() as u64,
        shed: h.as_ref().map_or(0, |h| h.shed_total),
        overloaded: h.as_ref().map_or(0, |h| h.overloaded_total),
        alloc_errors: h.as_ref().map_or(0, |h| h.alloc_errors_total),
    }
}

/// Bytes retired and not yet reclaimed, right now.
pub fn retired_bytes() -> u64 {
    lfc_hazard::retired_bytes() as u64
}

/// Peak resident set of this process in MB, from `getrusage`.
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs;
    // `ru_maxrss` (KiB) is the first long.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut r = Rusage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `r` is a writable `struct rusage` of the size the C library
    // expects on 64-bit Linux; RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut r) };
    if rc == 0 {
        r.longs[0] as f64 / 1024.0
    } else {
        0.0
    }
}
