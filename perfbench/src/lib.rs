//! The repository's benchmark: three closed-loop workloads on exactly two
//! worker threads, each checked for correctness, reported end to end
//! (untraced) and layer by layer (traced). See README.md for why each
//! workload exists and which layer metric should move which end-to-end
//! metric.

pub mod drive;
pub mod fig2;
pub mod gen;
pub mod hist;
pub mod layers;
pub mod ledger;
pub mod metrics;
pub mod probe;
pub mod read_mostly;
pub mod rec;

use drive::{drive, on_thread, Ctl, DriveCfg, Window, WORKERS};
use metrics::{Extras, Metrics, END_TO_END};
use rec::Rec;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    PaperFig2,
    ReadMostly,
    Ledger,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PaperFig2, Workload::ReadMostly, Workload::Ledger];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFig2 => "paper_fig2",
            Workload::ReadMostly => "read_mostly",
            Workload::Ledger => "ledger",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Sizes of one run. [`Scale::full`] is the benchmark; [`Scale::quick`]
/// shrinks every size so the tests can run all workloads in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub warmup: Duration,
    /// Length of the sub-windows the measurement window is split into.
    pub sub: Duration,
    /// Operation words per worker ring.
    pub ring: usize,
    /// Timed set-up batches and set-ups per batch, per workload;
    /// `setup_s` is the median of the batch means. A `paper_fig2` set-up
    /// takes tens of microseconds and a `ledger` one under a millisecond,
    /// so a batch repeats them back to back until it lasts tens of
    /// milliseconds and a short stall averages out.
    pub setup: [(usize, usize); 3],
    /// Keys of `read_mostly`.
    pub keys: usize,
    /// Accounts of `ledger`.
    pub accounts: usize,
    /// Window of each half of the lock-free/TTAS twin (traced runs).
    pub twin: Duration,
    /// Batch length of the layer probe (traced runs).
    pub probe_batch: Duration,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            warmup: Duration::from_secs(2),
            sub: Duration::from_millis(250),
            ring: 1 << 21,
            setup: [(11, 200), (7, 1), (11, 40)],
            keys: 1 << 20,
            accounts: 4096,
            twin: Duration::from_secs(2),
            probe_batch: Duration::from_millis(10),
        }
    }

    pub fn quick() -> Self {
        Scale {
            warmup: Duration::from_millis(50),
            sub: Duration::from_millis(25),
            ring: 1 << 12,
            setup: [(2, 2), (2, 1), (2, 2)],
            keys: 1 << 12,
            accounts: 256,
            twin: Duration::from_millis(100),
            probe_batch: Duration::from_millis(1),
        }
    }
}

pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    pub scale: Scale,
}

/// A run's result: the last line of the benchmark's output, plus
/// human-readable lines printed before it.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub lines: Vec<String>,
}

impl Report {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

pub fn run(p: &Params) -> Report {
    match p.workload {
        Workload::PaperFig2 => fig2::run(p),
        Workload::ReadMostly => read_mostly::run(p),
        Workload::Ledger => ledger::run(p),
    }
}

/// Correctness gates checked after a run. Each failed gate fails the run
/// and counts as one failed operation.
#[derive(Default)]
pub struct Gates {
    pub checked: u64,
    pub failures: Vec<String>,
}

impl Gates {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One workload: its objects, its worker loop and its gates.
pub trait Bench: Sync {
    type Objs: Send + Sync;
    /// Per-worker tallies that live across windows, for the gates.
    type Tally: Send + Sync + Default;

    /// Build the objects and load the prefill (this is what `setup_s` times).
    fn setup(&self) -> Self::Objs;
    /// One worker's closed loop, until `ctl` stops it.
    fn work(&self, o: &Self::Objs, ctl: &Ctl, rec: &mut Rec, t: &mut Self::Tally);
    /// Check the objects against every worker's tallies.
    fn gates(&self, o: &Self::Objs, tallies: &[Self::Tally], g: &mut Gates);
    fn ledger<'a>(&self, _o: &'a Self::Objs) -> Option<&'a lfc_ledger::Ledger> {
        None
    }
}

pub fn median(v: Vec<f64>) -> f64 {
    quantile(v, 0.5)
}

/// The `q` quantile of `v`, linearly interpolated between the two nearest
/// ranks (0 for an empty `v`).
pub fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let k = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (i, f) = (k.floor() as usize, k.fract());
    match v.get(i + 1) {
        Some(next) => v[i] + (next - v[i]) * f,
        None => v[i],
    }
}

/// Set `b` up in `setup.0` timed batches of `setup.1` set-ups (once in a
/// traced run), keeping the last; run the untraced window and — in a
/// traced run — the traced window, check the gates, and report.
pub fn run_bench<B: Bench>(b: &B, p: &Params, setup: (usize, usize)) -> Report {
    let faults_before = layers::snapshot(None).faults_fired;
    let (batches, per_batch) = if p.trace {
        (1, 1)
    } else {
        (setup.0.max(1), setup.1.max(1))
    };
    let (objs, setup_means) = on_thread(|| {
        let mut means = Vec::with_capacity(batches);
        let mut kept = None;
        for _ in 0..batches {
            let mut total = 0.0;
            for _ in 0..per_batch {
                // Reclaim the previous set-up before timing the next, so
                // every set-up starts from the same allocator state.
                drop(kept.take());
                lfc_hazard::flush();
                let t = Instant::now();
                let o = b.setup();
                total += t.elapsed().as_secs_f64();
                kept = Some(o);
            }
            means.push(total / per_batch as f64);
        }
        lfc_hazard::flush();
        (kept.expect("at least one set-up"), means)
    });
    let cfg = DriveCfg {
        warmup: p.scale.warmup,
        window: p.window,
        sub: p.scale.sub,
        trace: false,
    };
    let body = |ctl: &Ctl, rec: &mut Rec, t: &mut B::Tally| b.work(&objs, ctl, rec, t);
    let tallies = (0..WORKERS).map(|_| B::Tally::default()).collect();
    let (uw, tallies) = drive(&cfg, b.ledger(&objs), tallies, body);
    let (tw, tallies) = if p.trace {
        let tcfg = DriveCfg { trace: true, ..cfg };
        let (w, t) = drive(&tcfg, b.ledger(&objs), tallies, body);
        (Some(w), t)
    } else {
        (None, tallies)
    };
    let mut gates = on_thread(|| {
        let mut g = Gates::default();
        b.gates(&objs, &tallies, &mut g);
        g
    });
    on_thread(move || drop(objs));
    let fired = layers::snapshot(None).faults_fired - faults_before;
    gates.check(fired == 0, || format!("{fired} fault sites fired"));

    let mut lines = vec![format!(
        "perfbench workload={} seed={} window={}s trace={} workers={WORKERS} cpus={}",
        p.workload.name(),
        p.seed,
        p.window.as_secs_f64(),
        p.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )];
    let windows = std::iter::once(&uw).chain(tw.as_ref());
    let (ops, failed_ops) = windows.fold((0, 0), |(o, f), w| (o + w.ops(), f + w.failed()));
    let attempted = ops + gates.checked;
    let failed = failed_ops + gates.failures.len() as u64;
    let correct = failed == 0;

    let lat = uw.latency();
    let mut e2e = Metrics::new(END_TO_END);
    e2e.set("ops_per_s", uw.ops_per_s());
    e2e.set("p50_ns", lat.p50());
    e2e.set("p99_ns", lat.p99());
    e2e.set("setup_s", median(setup_means.clone()));
    for (n, u, v) in e2e.iter() {
        let note = match n {
            "p50_ns" | "p99_ns" => format!("  ({} samples)", lat.count()),
            "setup_s" => format!(
                "  (median of {batches} batch means of {per_batch} set-ups: {})",
                setup_means
                    .iter()
                    .map(|m| format!("{m:.4e}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            _ => String::new(),
        };
        lines.push(format!("  {n:<14} {v:>16.6} {u}{note}"));
    }
    let rates = uw.sub_rates();
    lines.push(format!(
        "  sub-window ops/s over {} x {} ms: min {:.0}, median {:.0}, max {:.0}",
        rates.len(),
        p.scale.sub.as_millis(),
        quantile(rates.clone(), 0.0),
        median(rates.clone()),
        quantile(rates, 1.0),
    ));
    lines.push(format!(
        "  {:<14} {:>16} frac  ({failed} failed of {attempted} attempted)",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64
    ));
    for f in &gates.failures {
        lines.push(format!("  GATE FAILED: {f}"));
    }
    lines.push(format!("  gates: {} checked", gates.checked));
    lines.push(format!("  peak RSS: {:.1} MB", layers::peak_rss_mb()));

    let metrics = match &tw {
        None => e2e,
        Some(tw) => {
            if let Err(e) = write_trace(p, tw) {
                lines.push(format!("  trace file not written: {e}"));
            }
            // The probe and the twin do not depend on the workload, so
            // only the `paper_fig2` run measures them; the others report 0.
            let (probe, twin) = if p.workload == Workload::PaperFig2 {
                (probe::run(&p.scale), fig2::twin(p))
            } else {
                (Vec::new(), (0.0, 0.0))
            };
            let x = Extras {
                probe: &probe,
                twin,
                peak_rss_mb: layers::peak_rss_mb(),
            };
            let m = metrics::per_layer(&uw, tw, &x);
            for (n, u, v) in m.iter() {
                lines.push(format!("  {n:<36} {v:>16.3} {u}"));
            }
            m
        }
    };
    Report {
        correct,
        attempted,
        failed,
        metrics,
        lines,
    }
}

/// Write the traced window's buffered spans as CSV under the build
/// directory (`$CARGO_TARGET_DIR`, else this package's `target`).
fn write_trace(p: &Params, w: &Window) -> std::io::Result<()> {
    use std::io::Write;
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR")
            .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/target").into()),
    )
    .join("perfbench-trace");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.csv", p.workload.name(), p.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "worker,span,name,op,parent,start_ns,end_ns")?;
    for (w, t) in w.recs.iter().enumerate() {
        if let Some(t) = t.tr.as_deref() {
            t.write_csv(w, &mut out)?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::{median, quantile};

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(v.clone(), 0.0), 1.0);
        assert_eq!(quantile(v.clone(), 1.0), 4.0);
        assert_eq!(median(v.clone()), 2.5);
        assert!((quantile(v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(Vec::new(), 0.9), 0.0);
    }
}
