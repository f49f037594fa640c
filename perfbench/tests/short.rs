//! Short-mode checks of the benchmark itself: every workload runs, passes
//! its gates and emits exactly the declared metrics with their units; and
//! each workload's gate catches a corrupted conservation input.

use perfbench::fig2::{self, Fig2};
use perfbench::ledger::{check_audit, LedgerMix};
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::read_mostly::{check_maps, value_of, ReadMostly};
use perfbench::{run, Bench, Gates, Params, Scale, Workload};
use std::sync::Mutex;
use std::time::Duration;

/// The runtime's thread registry and counters are process-wide: run the
/// tests one at a time so a traced run's readings are its own.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// (name, unit) pairs of one list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let start = text.find(&format!("\"{list}\"")).expect("list present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present");
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("string closes");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn as_owned(spec: &[(&str, &str)]) -> Vec<(String, String)> {
    spec.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn declared_metrics_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), as_owned(END_TO_END));
    assert_eq!(declared("per_layer"), as_owned(PER_LAYER));
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let _s = serial();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let p = Params {
                workload,
                seed: 11,
                window: Duration::from_millis(200),
                trace,
                scale: Scale::quick(),
            };
            let r = run(&p);
            let what = format!("{workload:?} trace={trace}");
            assert!(r.correct, "{what}: {:#?}", r.lines);
            assert_eq!(r.failed, 0, "{what}");
            assert!(r.attempted > 0, "{what}");
            let spec = if trace { PER_LAYER } else { END_TO_END };
            let got: Vec<(String, String)> = r
                .metrics
                .iter()
                .map(|(n, u, _)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(got, as_owned(spec), "{what}");
            assert!(r.metrics.iter().all(|(_, _, v)| v.is_finite()), "{what}");
            let json = r.to_json();
            for (n, u) in spec {
                let entry = format!("\"{n}\": {{\"value\": ");
                assert!(json.contains(&entry), "{what}: {n} missing");
                assert!(json.contains(&format!("\"unit\": \"{u}\"")), "{what}");
            }
            if !trace {
                for n in ["ops_per_s", "p50_ns", "p99_ns", "setup_s"] {
                    let v = r.metrics.get(n).expect("declared");
                    assert!(v > 0.0, "{what}: {n} = {v}");
                }
            } else {
                let v = r
                    .metrics
                    .get("runtime.active_threads.open")
                    .expect("declared");
                assert_eq!(v, 2.0, "{what}: both workers registered before the window");
            }
        }
    }
}

#[test]
fn fig2_gate_catches_an_element_added_behind_its_back() {
    let _s = serial();
    let b = Fig2::new(5, 64, fig2::lock_free);
    let tallies = [fig2::Tally::default(), fig2::Tally::default()];
    let clean = b.setup();
    let mut g = Gates::default();
    b.gates(&clean, &tallies, &mut g);
    assert!(g.failures.is_empty(), "{:?}", g.failures);

    let corrupt = b.setup();
    corrupt.s.push(7);
    let mut g = Gates::default();
    b.gates(&corrupt, &tallies, &mut g);
    assert!(
        !g.failures.is_empty(),
        "an unaccounted element must fail the gate"
    );
}

#[test]
fn read_mostly_gate_catches_a_key_in_both_maps() {
    let _s = serial();
    let keys = 256;
    let b = ReadMostly::new(5, keys, 64);
    let maps = b.setup();
    let mut g = Gates::default();
    check_maps(&maps, keys, &mut g);
    assert!(g.failures.is_empty(), "{:?}", g.failures);

    let k = 17u64;
    let other = usize::from(maps[0].get(&k).is_some());
    assert!(maps[other].insert(k, value_of(k)));
    let mut g = Gates::default();
    check_maps(&maps, keys, &mut g);
    assert!(
        !g.failures.is_empty(),
        "a duplicated key must fail the gate"
    );
}

#[test]
fn ledger_gate_catches_unconserved_or_extra_tokens() {
    let _s = serial();
    let accounts = 64;
    let b = LedgerMix::new(5, accounts, 64);
    let o = b.setup();
    let report = o.ledger.quiesced_audit();
    let mut g = Gates::default();
    check_audit(&report, accounts, &mut g);
    assert!(g.failures.is_empty(), "{:?}", g.failures);

    let mut forged = report.clone();
    forged.account_tokens += 1;
    let mut g = Gates::default();
    check_audit(&forged, accounts, &mut g);
    assert!(
        !g.failures.is_empty(),
        "a token from nowhere must fail the gate"
    );

    o.ledger.fund_lane(0, 5).expect("fund");
    o.ledger.open(5).expect("open");
    let mut g = Gates::default();
    check_audit(&o.ledger.quiesced_audit(), accounts, &mut g);
    assert_eq!(
        g.failures.len(),
        2,
        "extra account and voucher: {:?}",
        g.failures
    );
}
