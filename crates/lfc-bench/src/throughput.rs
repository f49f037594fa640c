//! Multi-thread closed-loop throughput harness (PR 7, tentpole a).
//!
//! Every number the repo tracked before this PR was a single-thread
//! median; this module measures the thing the paper is actually about —
//! composed lock-free operations under contention. N worker threads run a
//! closed loop (next op issued as soon as the last returns) against a
//! shared structure set for a fixed duration; per-op latencies go into
//! per-thread [`Hist`]s merged at the end, so a run reports both ops/sec
//! and p50/p99/p999.
//!
//! Workloads:
//! * `ReadMostly` — 90 % `LfHashMap::get`, 10 % composed `move_keyed`
//!   between two maps;
//! * `MoveHeavy` — 100 % composed `move_keyed` shuttling keys between two
//!   maps (the commit-bound regime);
//! * `Mixed` — 50 % get, 20 % insert/remove, 30 % move;
//! * `StackPushPop` — plain push/pop on one hot `TreiberStack` (the
//!   elimination regime);
//! * `SkipMix` — 40 % `LfSkipMap::get`, 20 % ordered `range` scans, 20 %
//!   insert/remove, 20 % composed `move_keyed` between two skip maps
//!   (PR 9: kernel traversals + tower churn + range walks under load).
//!
//! Key choice is `Uniform` or `Zipfian` (s ≈ 0.99, YCSB-style) over a
//! configurable key space; a small space plus Zipf skew concentrates the
//! load on a few hot buckets.
//!
//! On a host with fewer cores than threads the run is *oversubscribed* —
//! deliberately so: preempted readers exercise the PR 6 ejection ladder,
//! and each worker samples `lfc_hazard::retired_bytes()` so the run
//! records the reclamation high-water mark alongside the throughput.

use crate::hist::Hist;
use crate::json::Json;
use lfc_core::move_keyed;
use lfc_runtime::{metrics, SmallRng};
use lfc_structures::{LfHashMap, LfSkipMap, TreiberStack};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// What the worker threads do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TpWorkload {
    /// 90 % map reads, 10 % composed moves.
    ReadMostly,
    /// 100 % composed moves between two maps.
    MoveHeavy,
    /// 50 % reads, 20 % plain insert/remove, 30 % composed moves.
    Mixed,
    /// Plain push/pop on one hot Treiber stack.
    StackPushPop,
    /// Skip-list mix (PR 9): 40 % get, 20 % 64-key `range`, 20 % plain
    /// insert/remove, 20 % composed moves between two `LfSkipMap`s.
    SkipMix,
}

/// Key-pick distribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Skew {
    /// Uniform over the key space.
    Uniform,
    /// Zipfian, s ≈ 0.99: a handful of keys take most of the traffic.
    Zipfian,
}

/// One throughput run's configuration.
#[derive(Clone, Copy, Debug)]
pub struct TpCfg {
    /// Workload shape.
    pub workload: TpWorkload,
    /// Worker threads (may exceed the core count — that's the point).
    pub threads: usize,
    /// Key-pick skew (ignored by `StackPushPop`).
    pub skew: Skew,
    /// Wall-clock measurement window.
    pub duration_ms: u64,
    /// Keys shuttled between the two maps (ignored by `StackPushPop`).
    pub key_space: u64,
    /// RNG seed (deterministic key sequences per thread).
    pub seed: u64,
}

impl TpCfg {
    /// Canonical curve name, e.g. `move_heavy/zipf`.
    pub fn name(&self) -> String {
        let w = match self.workload {
            TpWorkload::ReadMostly => "read_mostly",
            TpWorkload::MoveHeavy => "move_heavy",
            TpWorkload::Mixed => "mixed",
            TpWorkload::StackPushPop => "stack_push_pop",
            TpWorkload::SkipMix => "skip_mix",
        };
        if self.workload == TpWorkload::StackPushPop {
            w.to_string()
        } else {
            let s = match self.skew {
                Skew::Uniform => "uniform",
                Skew::Zipfian => "zipf",
            };
            format!("{w}/{s}")
        }
    }
}

/// One throughput run's results.
#[derive(Clone, Debug)]
pub struct TpResult {
    /// `TpCfg::name()`.
    pub name: String,
    /// Worker threads.
    pub threads: usize,
    /// Total completed operations.
    pub ops: u64,
    /// Measured wall time.
    pub elapsed_ns: u64,
    /// Latency quantiles (ns) over every op from every thread.
    pub p50_ns: u64,
    /// 99th percentile (ns).
    pub p99_ns: u64,
    /// 99.9th percentile (ns).
    pub p999_ns: u64,
    /// Fewest ops any single thread completed (a starvation canary: a
    /// lock-free harness must not let one thread finish with ~0).
    pub min_thread_ops: u64,
    /// High-water mark of `lfc_hazard::retired_bytes()` sampled during
    /// the run (PR 6 regression net under real load).
    pub retired_hwm: u64,
    /// Whether threads exceeded the cores available to the process.
    pub oversubscribed: bool,
    /// Push/pop pairs cancelled in the elimination exchanger.
    pub elim_pairs: u64,
}

impl TpResult {
    /// Operations per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// The JSON block recorded in `BENCH_results.json` scaling curves.
    pub fn to_value(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str(self.name.clone())),
            ("threads".into(), Json::int(self.threads as u64)),
            ("ops".into(), Json::int(self.ops)),
            (
                "ops_per_sec".into(),
                Json::Num((self.ops_per_sec() * 10.0).round() / 10.0),
            ),
            ("p50_ns".into(), Json::int(self.p50_ns)),
            ("p99_ns".into(), Json::int(self.p99_ns)),
            ("p999_ns".into(), Json::int(self.p999_ns)),
            ("min_thread_ops".into(), Json::int(self.min_thread_ops)),
            ("retired_bytes_hwm".into(), Json::int(self.retired_hwm)),
            ("oversubscribed".into(), Json::Bool(self.oversubscribed)),
            ("elim_pairs".into(), Json::int(self.elim_pairs)),
        ])
    }
}

/// Cores available to this process (1 on the CI PR container).
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Zipfian sampler over ranks `0..n`: precomputed CDF + binary search.
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Build the CDF for `n` ranks with exponent `s`.
    pub fn new(n: u64, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for p in &mut cdf {
            *p /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draw a rank in `0..n` (rank 0 is the hottest).
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        let r = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&r).expect("cdf has no NaNs"))
        {
            Ok(i) | Err(i) => (i as u64).min(self.cdf.len() as u64 - 1),
        }
    }
}

enum KeyPick {
    Uniform(u64),
    Zipf(ZipfSampler),
}

impl KeyPick {
    fn new(skew: Skew, n: u64) -> Self {
        match skew {
            Skew::Uniform => KeyPick::Uniform(n),
            Skew::Zipfian => KeyPick::Zipf(ZipfSampler::new(n, 0.99)),
        }
    }

    fn pick(&self, rng: &mut SmallRng) -> u64 {
        match self {
            KeyPick::Uniform(n) => rng.below(*n),
            KeyPick::Zipf(z) => z.sample(rng),
        }
    }
}

/// How often a worker samples the reclamation high-water mark.
const HWM_SAMPLE_MASK: u64 = 0x1FF; // every 512 ops

struct WorkerOut {
    hist: Hist,
    ops: u64,
}

/// Run one throughput configuration to completion.
pub fn run_throughput(cfg: &TpCfg) -> TpResult {
    let oversubscribed = cfg.threads > cores();
    let before = metrics::snapshot();

    let (outs, elapsed_ns, hwm) = match cfg.workload {
        TpWorkload::StackPushPop => run_stack(cfg),
        TpWorkload::SkipMix => run_skip(cfg),
        _ => run_maps(cfg),
    };
    let after = metrics::snapshot();

    let mut hist = Hist::new();
    let mut ops = 0u64;
    let mut min_thread_ops = u64::MAX;
    for o in &outs {
        hist.merge(&o.hist);
        ops += o.ops;
        min_thread_ops = min_thread_ops.min(o.ops);
    }
    TpResult {
        name: cfg.name(),
        threads: cfg.threads,
        ops,
        elapsed_ns,
        p50_ns: hist.quantile(0.50),
        p99_ns: hist.quantile(0.99),
        p999_ns: hist.quantile(0.999),
        min_thread_ops: if min_thread_ops == u64::MAX {
            0
        } else {
            min_thread_ops
        },
        retired_hwm: hwm,
        oversubscribed,
        elim_pairs: after.structures.elim_pairs - before.structures.elim_pairs,
    }
}

/// The shared measurement loop: workers run `op` until the stop flag
/// flips, recording per-op latency and sampling the reclamation HWM.
fn drive<F>(threads: usize, duration_ms: u64, per_thread: F) -> (Vec<WorkerOut>, u64, u64)
where
    F: Fn(usize, &AtomicBool, &AtomicU64) -> WorkerOut + Sync,
{
    let stop = AtomicBool::new(false);
    let hwm = AtomicU64::new(0);
    let barrier = Barrier::new(threads + 1);
    let mut outs = Vec::with_capacity(threads);
    let mut elapsed_ns = 0u64;
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let (stop, hwm, barrier, per_thread) = (&stop, &hwm, &barrier, &per_thread);
            handles.push(s.spawn(move || {
                barrier.wait();
                per_thread(t, stop, hwm)
            }));
        }
        barrier.wait();
        let t0 = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(duration_ms));
        stop.store(true, Ordering::Release);
        elapsed_ns = t0.elapsed().as_nanos() as u64;
        for h in handles {
            outs.push(h.join().expect("worker panicked"));
        }
    });
    let hwm = hwm.load(Ordering::Relaxed);
    (outs, elapsed_ns, hwm)
}

fn note_op(hist: &mut Hist, ops: &mut u64, hwm: &AtomicU64, t0: Instant) {
    hist.record(t0.elapsed().as_nanos() as u64);
    *ops += 1;
    if *ops & HWM_SAMPLE_MASK == 0 {
        hwm.fetch_max(lfc_hazard::retired_bytes() as u64, Ordering::Relaxed);
    }
}

fn run_maps(cfg: &TpCfg) -> (Vec<WorkerOut>, u64, u64) {
    let a: LfHashMap<u64, u64> = LfHashMap::new();
    let b: LfHashMap<u64, u64> = LfHashMap::new();
    for k in 0..cfg.key_space {
        a.insert(k, k);
    }
    let keys = KeyPick::new(cfg.skew, cfg.key_space);
    let workload = cfg.workload;
    let seed = cfg.seed;

    drive(cfg.threads, cfg.duration_ms, |t, stop, hwm| {
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut hist = Hist::new();
        let mut ops = 0u64;
        let do_move = |key: u64, fwd: bool| {
            let (src, dst) = if fwd { (&a, &b) } else { (&b, &a) };
            move_keyed(src, &key, dst)
        };
        while !stop.load(Ordering::Acquire) {
            let key = keys.pick(&mut rng);
            let roll = rng.below(100);
            let fwd = rng.next_u64() & 1 == 0;
            let t0 = Instant::now();
            match workload {
                TpWorkload::MoveHeavy => {
                    let _ = do_move(key, fwd);
                }
                TpWorkload::ReadMostly => {
                    if roll < 90 {
                        let m = if fwd { &a } else { &b };
                        let _ = m.get(&key);
                    } else {
                        let _ = do_move(key, fwd);
                    }
                }
                TpWorkload::Mixed => {
                    if roll < 50 {
                        let m = if fwd { &a } else { &b };
                        let _ = m.get(&key);
                    } else if roll < 70 {
                        let m = if fwd { &a } else { &b };
                        if roll & 1 == 0 {
                            let _ = m.insert(key, key);
                        } else {
                            let _ = m.remove(&key);
                        }
                    } else {
                        let _ = do_move(key, fwd);
                    }
                }
                TpWorkload::StackPushPop | TpWorkload::SkipMix => {
                    unreachable!("handled by run_stack / run_skip")
                }
            }
            note_op(&mut hist, &mut ops, hwm, t0);
        }
        WorkerOut { hist, ops }
    })
}

fn run_skip(cfg: &TpCfg) -> (Vec<WorkerOut>, u64, u64) {
    let a: LfSkipMap<u64, u64> = LfSkipMap::new();
    let b: LfSkipMap<u64, u64> = LfSkipMap::new();
    for k in 0..cfg.key_space {
        a.insert(k, k);
    }
    let keys = KeyPick::new(cfg.skew, cfg.key_space);
    // Range windows stay well inside the key space so every scan walks
    // real chain (empty windows would measure nothing).
    let window = (cfg.key_space / 16).max(4);
    let seed = cfg.seed;

    drive(cfg.threads, cfg.duration_ms, |t, stop, hwm| {
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut hist = Hist::new();
        let mut ops = 0u64;
        let do_move = |key: u64, fwd: bool| {
            let (src, dst) = if fwd { (&a, &b) } else { (&b, &a) };
            move_keyed(src, &key, dst)
        };
        while !stop.load(Ordering::Acquire) {
            let key = keys.pick(&mut rng);
            let roll = rng.below(100);
            let fwd = rng.next_u64() & 1 == 0;
            let t0 = Instant::now();
            if roll < 40 {
                let m = if fwd { &a } else { &b };
                let _ = m.get(&key);
            } else if roll < 60 {
                let m = if fwd { &a } else { &b };
                let lo = key.saturating_sub(window / 2);
                let _ = m.range(lo..lo + window);
            } else if roll < 80 {
                let m = if fwd { &a } else { &b };
                if roll & 1 == 0 {
                    let _ = m.insert(key, key);
                } else {
                    let _ = m.remove(&key);
                }
            } else {
                let _ = do_move(key, fwd);
            }
            note_op(&mut hist, &mut ops, hwm, t0);
        }
        WorkerOut { hist, ops }
    })
}

fn run_stack(cfg: &TpCfg) -> (Vec<WorkerOut>, u64, u64) {
    let stack: TreiberStack<u64> = TreiberStack::new();
    for v in 0..64 {
        stack.push(v);
    }
    let seed = cfg.seed;
    drive(cfg.threads, cfg.duration_ms, |t, stop, hwm| {
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut hist = Hist::new();
        let mut ops = 0u64;
        while !stop.load(Ordering::Acquire) {
            let push = rng.next_u64() & 1 == 0;
            let t0 = Instant::now();
            if push {
                stack.push(ops);
            } else {
                let _ = stack.pop();
            }
            note_op(&mut hist, &mut ops, hwm, t0);
        }
        WorkerOut { hist, ops }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = ZipfSampler::new(100, 0.99);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0u64; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Rank 0 must dominate the tail decisively.
        assert!(
            counts[0] > counts[50] * 5,
            "{} vs {}",
            counts[0],
            counts[50]
        );
        assert!(counts.iter().sum::<u64>() == 20_000);
    }

    #[test]
    fn tiny_run_completes_each_workload() {
        for workload in [
            TpWorkload::ReadMostly,
            TpWorkload::MoveHeavy,
            TpWorkload::Mixed,
            TpWorkload::StackPushPop,
            TpWorkload::SkipMix,
        ] {
            // Retried: on an oversubscribed test runner (2 harness
            // threads + the rest of this binary's tests sharing one
            // core) a 30 ms window can starve a thread through OS
            // scheduling alone. Persistent starvation across attempts
            // is the real signal.
            let mut r = None;
            for _ in 0..3 {
                let attempt = run_throughput(&TpCfg {
                    workload,
                    threads: 2,
                    skew: Skew::Zipfian,
                    duration_ms: 30,
                    key_space: 16,
                    seed: 42,
                });
                let done = attempt.ops > 0 && attempt.min_thread_ops > 0;
                r = Some(attempt);
                if done {
                    break;
                }
            }
            let r = r.unwrap();
            assert!(r.ops > 0, "{} did nothing", r.name);
            assert!(
                r.min_thread_ops > 0,
                "{} starved a thread on every attempt",
                r.name
            );
            assert!(r.p50_ns <= r.p99_ns && r.p99_ns <= r.p999_ns);
        }
    }
}
