//! The closed-loop harness: exactly two worker threads, each issuing its
//! next operation as soon as the previous one returns; the calling thread
//! only keeps time and reads the layers' counters.
//!
//! Steadiness measures (see README.md for what each one bought):
//! * both workers register with the runtime and drain the retired backlog
//!   left by set-up before a barrier, so the window never starts or ends
//!   in the solo regime and never pays for set-up's garbage;
//! * a warm-up runs the real workload before the window opens;
//! * throughput is read from many short sub-windows and reported at their
//!   90th percentile, so stalls from outside the process (another tenant
//!   on the host, a preempted worker) move the slow sub-windows, not the
//!   result; see [`Window::ops_per_s`].

use crate::layers::{self, Snapshot};
use crate::rec::{Clock, Rec};
use lfc_ledger::Ledger;
use lfc_runtime::CachePadded;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub const WORKERS: usize = 2;
/// Quantile of the sub-window rates that [`Window::ops_per_s`] reports.
const SUB_RATE_Q: f64 = 0.9;

const WARMUP: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

#[derive(Default)]
struct Progress {
    ops: AtomicU64,
    local_ns: AtomicU64,
}

/// A worker's view of the harness.
pub struct Ctl<'a> {
    pub w: usize,
    pub clock: &'a Clock,
    phase: &'a AtomicU8,
    progress: &'a Progress,
}

impl Ctl<'_> {
    /// Whether to issue another operation. Opens the worker's window the
    /// first time it sees the measurement phase (restarting the clock of
    /// the next operation, `start`, so it does not carry the reset), and
    /// publishes its progress for the sub-window tallies.
    #[inline]
    pub fn running(&self, rec: &mut Rec, start: &mut u64) -> bool {
        match self.phase.load(Ordering::Relaxed) {
            WARMUP => true,
            MEASURE => {
                if !rec.measuring {
                    rec.start_window();
                    *start = self.clock.now();
                }
                self.progress.ops.store(rec.ops, Ordering::Relaxed);
                self.progress
                    .local_ns
                    .store(rec.local_ns, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

#[derive(Clone, Copy)]
pub struct DriveCfg {
    pub warmup: Duration,
    pub window: Duration,
    /// Length of one sub-window; the window holds as many as fit, at
    /// least one.
    pub sub: Duration,
    pub trace: bool,
}

pub struct Sub {
    pub secs: f64,
    pub ops: u64,
    /// Mean local work per worker in this sub-window.
    pub local_s: f64,
}

pub struct Window {
    pub secs: f64,
    pub subs: Vec<Sub>,
    pub open: Snapshot,
    pub close: Snapshot,
    /// Highest retired-bytes reading, sampled every 5 ms (traced runs).
    pub retired_bytes_hwm: u64,
    pub recs: Vec<Rec>,
}

impl Window {
    pub fn ops(&self) -> u64 {
        self.recs.iter().map(|r| r.ops).sum()
    }

    pub fn failed(&self) -> u64 {
        self.recs.iter().map(|r| r.failed + r.warm_failed).sum()
    }

    /// Operations per second of synchronization time (wall time minus
    /// mean local work), one rate per sub-window.
    pub fn sub_rates(&self) -> Vec<f64> {
        self.subs
            .iter()
            .map(|s| s.ops as f64 / (s.secs - s.local_s).max(1e-9))
            .collect()
    }

    /// The 90th percentile of the sub-window rates. Stalls from outside
    /// the process (a descheduled worker, another tenant) slow some
    /// sub-windows, and a high percentile leaves those out; the median
    /// moved by up to 23% beside an on/off busy loop, this by at most 8%
    /// (README.md). A change that slows every operation moves it like the
    /// mean, and a cost that recurs within every sub-window (a `ledger`
    /// audit every 50 ms in 250 ms sub-windows) counts in it too.
    pub fn ops_per_s(&self) -> f64 {
        crate::quantile(self.sub_rates(), SUB_RATE_Q)
    }

    pub fn latency(&self) -> crate::hist::Hist {
        let mut h = crate::hist::Hist::default();
        for r in &self.recs {
            h.merge(&r.lat);
        }
        h
    }
}

/// Run `body` on [`WORKERS`] threads through warm-up and one measurement
/// window. Worker `w` gets `states[w]` and hands it back with its record.
pub fn drive<S, F>(
    cfg: &DriveCfg,
    ledger: Option<&Ledger>,
    states: Vec<S>,
    body: F,
) -> (Window, Vec<S>)
where
    S: Send,
    F: Fn(&Ctl, &mut Rec, &mut S) + Sync,
{
    assert_eq!(states.len(), WORKERS);
    let clock = Clock::default();
    let phase = AtomicU8::new(WARMUP);
    let progress: Vec<CachePadded<Progress>> = (0..WORKERS)
        .map(|_| CachePadded::new(Progress::default()))
        .collect();
    let ready = Barrier::new(WORKERS + 1);
    let done = Barrier::new(WORKERS + 1);
    std::thread::scope(|sc| {
        let handles: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(w, mut st)| {
                let (clock, phase, progress) = (&clock, &phase, &*progress[w]);
                let (ready, done, body) = (&ready, &done, &body);
                sc.spawn(move || {
                    let mut rec = Rec::new(cfg.trace);
                    let _ = lfc_hazard::pin();
                    lfc_hazard::flush();
                    ready.wait();
                    let ctl = Ctl {
                        w,
                        clock,
                        phase,
                        progress,
                    };
                    body(&ctl, &mut rec, &mut st);
                    // Stay registered until the closing snapshot is taken.
                    done.wait();
                    (rec, st)
                })
            })
            .collect();
        ready.wait();
        std::thread::sleep(cfg.warmup);
        let open = layers::snapshot(ledger);
        let t_open = Instant::now();
        phase.store(MEASURE, Ordering::Release);
        let n = (cfg.window.as_nanos() / cfg.sub.as_nanos().max(1)).max(1) as u32;
        let mut subs = Vec::with_capacity(n as usize);
        let mut hwm = 0;
        let (mut prev_t, mut prev_ops, mut prev_local) = (t_open, 0u64, 0u64);
        for k in 1..=n {
            let due = t_open + cfg.window * k / n;
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                std::thread::sleep((due - now).min(Duration::from_millis(5)));
                if cfg.trace {
                    hwm = hwm.max(layers::retired_bytes());
                }
            }
            let now = Instant::now();
            let ops: u64 = progress.iter().map(|p| p.ops.load(Ordering::Relaxed)).sum();
            let local: u64 = progress
                .iter()
                .map(|p| p.local_ns.load(Ordering::Relaxed))
                .sum();
            subs.push(Sub {
                secs: (now - prev_t).as_secs_f64(),
                ops: ops - prev_ops,
                local_s: (local - prev_local) as f64 / WORKERS as f64 / 1e9,
            });
            (prev_t, prev_ops, prev_local) = (now, ops, local);
        }
        phase.store(STOP, Ordering::Release);
        let secs = t_open.elapsed().as_secs_f64();
        let close = layers::snapshot(ledger);
        done.wait();
        let (recs, states) = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .unzip();
        let win = Window {
            secs,
            subs,
            open,
            close,
            retired_bytes_hwm: hwm,
            recs,
        };
        (win, states)
    })
}

/// Run `f` on a short-lived thread. Set-up, gates and teardown run this
/// way so the timekeeping thread never registers with the runtime and the
/// probe's one-thread rows really run alone.
pub fn on_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|sc| sc.spawn(f).join().expect("helper thread panicked"))
}
