//! Metric names, units and their computation. The two lists below are the
//! ones `BENCHMARK.json` declares; the benchmark's tests check that every
//! run emits exactly these names with these units.

use crate::drive::{Window, WORKERS};
use crate::hist::Hist;
use crate::probe::ProbeRow;
use crate::rec::{Name, SpanStat, Tracer, LAYERS, NAMES};

pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("p50_ns", "ns"),
    ("p99_ns", "ns"),
    ("setup_s", "s"),
];

pub const PER_LAYER: &[(&str, &str)] = &[
    ("ledger.migrate.calls", "count"),
    ("ledger.migrate.p50_ns", "ns"),
    ("ledger.migrate.p99_ns", "ns"),
    ("ledger.settle.calls", "count"),
    ("ledger.settle.p50_ns", "ns"),
    ("ledger.settle.p99_ns", "ns"),
    ("ledger.shift.calls", "count"),
    ("ledger.shift.p50_ns", "ns"),
    ("ledger.shift.p99_ns", "ns"),
    ("ledger.balance.calls", "count"),
    ("ledger.balance.p50_ns", "ns"),
    ("ledger.balance.p99_ns", "ns"),
    ("ledger.churn.calls", "count"),
    ("ledger.churn.p50_ns", "ns"),
    ("ledger.churn.p99_ns", "ns"),
    ("ledger.busy_frac", "frac"),
    ("ledger.audit.p50_us", "us"),
    ("ledger.audit.stalled_ops", "count"),
    ("ledger.audit.stalled_p50_ns", "ns"),
    ("ledger.raced_frac", "frac"),
    ("ledger.shed", "count"),
    ("ledger.overloaded", "count"),
    ("ledger.alloc_errors", "count"),
    ("core.move_one.p50_ns", "ns"),
    ("core.move_one.p99_ns", "ns"),
    ("core.move_one.moved_frac", "frac"),
    ("core.move_keyed.p50_ns", "ns"),
    ("core.move_keyed.p99_ns", "ns"),
    ("core.move_keyed.moved_frac", "frac"),
    ("structures.queue_op.p50_ns", "ns"),
    ("structures.stack_op.p50_ns", "ns"),
    ("structures.get.p50_ns", "ns"),
    ("structures.get.p99_ns", "ns"),
    ("structures.get.hit_frac", "frac"),
    ("structures.elim_pairs_per_kop", "1/kop"),
    ("structures.locked.ops_per_s", "1/s"),
    ("structures.lf_over_locked", "ratio"),
    ("dcas.desc_pool_hit_frac", "frac"),
    ("dcas.casn_pool_hit_frac", "frac"),
    ("dcas.help_runs_per_kop", "1/kop"),
    ("dcas.helped_completions_per_kop", "1/kop"),
    ("hazard.retired_per_op", "1/op"),
    ("hazard.scans_per_kop", "1/kop"),
    ("hazard.retired_bytes_hwm", "bytes"),
    ("hazard.ejections", "count"),
    ("alloc.recycled_frac", "frac"),
    ("alloc.fresh_per_kop", "1/kop"),
    ("alloc.peak_rss_mb", "MB"),
    ("runtime.active_threads.open", "count"),
    ("runtime.active_threads.close", "count"),
    ("alloc.block_roundtrip_ns.t1", "ns"),
    ("alloc.block_roundtrip_ns.t2", "ns"),
    ("hazard.pin_ns.t1", "ns"),
    ("hazard.pin_ns.t2", "ns"),
    ("dcas.read_ns.t1", "ns"),
    ("dcas.read_ns.t2", "ns"),
    ("dcas.commit_k2_ns.t1", "ns"),
    ("dcas.commit_k2_ns.t2", "ns"),
    ("dcas.commit_k4_ns.t1", "ns"),
    ("dcas.commit_k4_ns.t2", "ns"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
    ("trace.spans_dropped", "count"),
    ("trace.self_frac.bench", "frac"),
    ("trace.self_frac.structures", "frac"),
    ("trace.self_frac.core", "frac"),
    ("trace.self_frac.ledger", "frac"),
];

/// Values for one of the two lists, in list order.
pub struct Metrics {
    spec: &'static [(&'static str, &'static str)],
    vals: Vec<f64>,
}

impl Metrics {
    pub fn new(spec: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            spec,
            vals: vec![0.0; spec.len()],
        }
    }

    pub fn set(&mut self, name: &str, v: f64) {
        let i = self
            .spec
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        // A ratio over an empty denominator reads 0 rather than NaN, which
        // JSON cannot carry.
        self.vals[i] = if v.is_finite() { v } else { 0.0 };
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.spec.iter().position(|(n, _)| *n == name)?;
        Some(self.vals[i])
    }

    /// (name, unit, value) in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.spec
            .iter()
            .zip(&self.vals)
            .map(|(&(n, u), &v)| (n, u, v))
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Span statistics of both workers, merged per name.
fn merged(w: &Window) -> Vec<SpanStat> {
    let mut out = vec![SpanStat::default(); NAMES];
    for t in w.recs.iter().filter_map(|r| r.tr.as_deref()) {
        for (o, s) in out.iter_mut().zip(&t.stats) {
            o.calls += s.calls;
            o.useful += s.useful;
            o.wasted += s.wasted;
            o.self_ns += s.self_ns;
            o.hist.merge(&s.hist);
        }
    }
    out
}

fn tracers(w: &Window) -> impl Iterator<Item = &Tracer> {
    w.recs.iter().filter_map(|r| r.tr.as_deref())
}

/// Everything a traced run measured, beyond its two windows.
pub struct Extras<'a> {
    pub probe: &'a [ProbeRow],
    /// (lock-free, TTAS) operations per second of the Fig 2 twin; zeros
    /// when the run did not measure it (the ratio then reads 0 too).
    pub twin: (f64, f64),
    pub peak_rss_mb: f64,
}

/// The per-layer list, from the traced window `tw` (and the untraced
/// window `uw` of the same run, for the tracing overhead).
pub fn per_layer(uw: &Window, tw: &Window, x: &Extras) -> Metrics {
    let mut m = Metrics::new(PER_LAYER);
    let st = merged(tw);
    let stat = |n: Name| &st[n as usize];
    let hist_of = |ns: &[Name]| {
        let mut h = Hist::default();
        for &n in ns {
            h.merge(&stat(n).hist);
        }
        h
    };
    let window_ns = tw.secs * 1e9 * WORKERS as f64;

    for (key, names) in [
        ("migrate", &[Name::Migrate][..]),
        ("settle", &[Name::Settle]),
        ("shift", &[Name::Promote, Name::Demote]),
        ("balance", &[Name::Balance]),
        ("churn", &[Name::Churn]),
    ] {
        let h = hist_of(names);
        m.set(&format!("ledger.{key}.calls"), h.count() as f64);
        m.set(&format!("ledger.{key}.p50_ns"), h.p50());
        m.set(&format!("ledger.{key}.p99_ns"), h.p99());
    }
    let layer_self = |layer| -> u64 {
        st.iter()
            .enumerate()
            .filter(|(i, _)| Name::ALL[*i].layer() == layer)
            .map(|(_, s)| s.self_ns)
            .sum()
    };
    m.set(
        "ledger.busy_frac",
        layer_self(crate::rec::Layer::Ledger) as f64 / window_ns,
    );
    m.set("ledger.audit.p50_us", stat(Name::Audit).hist.p50() / 1e3);
    let mut stalled = Hist::default();
    for t in tracers(tw) {
        stalled.merge(&t.stalled);
    }
    m.set("ledger.audit.stalled_ops", stalled.count() as f64);
    m.set("ledger.audit.stalled_p50_ns", stalled.p50());
    let ledger_calls = [
        Name::Migrate,
        Name::Settle,
        Name::Promote,
        Name::Demote,
        Name::Balance,
        Name::Close,
        Name::Open,
    ];
    let wasted: u64 = ledger_calls.iter().map(|&n| stat(n).wasted).sum();
    let calls: u64 = ledger_calls.iter().map(|&n| stat(n).calls).sum();
    m.set("ledger.raced_frac", ratio(wasted, calls));
    let (o, c) = (&tw.open, &tw.close);
    m.set("ledger.shed", (c.shed - o.shed) as f64);
    m.set("ledger.overloaded", (c.overloaded - o.overloaded) as f64);
    m.set(
        "ledger.alloc_errors",
        (c.alloc_errors - o.alloc_errors) as f64,
    );

    for (key, n) in [("move_one", Name::MoveOne), ("move_keyed", Name::MoveKeyed)] {
        let s = stat(n);
        m.set(&format!("core.{key}.p50_ns"), s.hist.p50());
        m.set(&format!("core.{key}.p99_ns"), s.hist.p99());
        m.set(&format!("core.{key}.moved_frac"), ratio(s.useful, s.calls));
    }

    m.set(
        "structures.queue_op.p50_ns",
        hist_of(&[Name::Enqueue, Name::Dequeue]).p50(),
    );
    m.set(
        "structures.stack_op.p50_ns",
        hist_of(&[Name::Push, Name::Pop]).p50(),
    );
    let g = stat(Name::Get);
    m.set("structures.get.p50_ns", g.hist.p50());
    m.set("structures.get.p99_ns", g.hist.p99());
    m.set("structures.get.hit_frac", ratio(g.useful, g.calls));
    let kops = tw.ops() as f64 / 1e3;
    m.set(
        "structures.elim_pairs_per_kop",
        (c.elim_pairs - o.elim_pairs) as f64 / kops,
    );
    m.set("structures.locked.ops_per_s", x.twin.1);
    m.set("structures.lf_over_locked", x.twin.0 / x.twin.1);

    m.set(
        "dcas.desc_pool_hit_frac",
        ratio(
            c.desc_hits - o.desc_hits,
            c.desc_hits - o.desc_hits + c.desc_misses - o.desc_misses,
        ),
    );
    m.set(
        "dcas.casn_pool_hit_frac",
        ratio(
            c.casn_hits - o.casn_hits,
            c.casn_hits - o.casn_hits + c.casn_misses - o.casn_misses,
        ),
    );
    m.set(
        "dcas.help_runs_per_kop",
        (c.help_runs - o.help_runs) as f64 / kops,
    );
    m.set(
        "dcas.helped_completions_per_kop",
        (c.helped_completions - o.helped_completions) as f64 / kops,
    );

    m.set(
        "hazard.retired_per_op",
        ratio(c.retired - o.retired, tw.ops()),
    );
    m.set("hazard.scans_per_kop", (c.scans - o.scans) as f64 / kops);
    m.set("hazard.retired_bytes_hwm", tw.retired_bytes_hwm as f64);
    m.set("hazard.ejections", (c.ejections - o.ejections) as f64);

    let (fresh, recycled) = (
        c.alloc_fresh - o.alloc_fresh,
        c.alloc_recycled - o.alloc_recycled,
    );
    m.set("alloc.recycled_frac", ratio(recycled, recycled + fresh));
    m.set("alloc.fresh_per_kop", fresh as f64 / kops);
    m.set("alloc.peak_rss_mb", x.peak_rss_mb);
    m.set("runtime.active_threads.open", o.active_threads as f64);
    m.set("runtime.active_threads.close", c.active_threads as f64);

    for row in x.probe {
        m.set(&format!("{}.t1", row.name), row.t1_ns);
        m.set(&format!("{}.t2", row.name), row.t2_ns);
    }

    let (traced, untraced) = (tw.ops_per_s(), uw.ops_per_s());
    m.set("trace.ops_per_s", traced);
    m.set("trace.untraced_ops_per_s", untraced);
    m.set("trace.overhead_frac", 1.0 - traced / untraced);
    m.set(
        "trace.spans",
        tracers(tw).map(|t| t.spans()).sum::<usize>() as f64,
    );
    m.set(
        "trace.spans_dropped",
        tracers(tw).map(|t| t.dropped).sum::<u64>() as f64,
    );
    let top: u64 = tracers(tw).map(|t| t.top_ns).sum();
    m.set("trace.self_frac.bench", 1.0 - top as f64 / window_ns);
    for (layer, key) in LAYERS {
        m.set(
            &format!("trace.self_frac.{key}"),
            layer_self(layer) as f64 / window_ns,
        );
    }
    m
}
