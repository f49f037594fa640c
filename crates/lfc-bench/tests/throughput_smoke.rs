//! Smoke-level run of the PR 7 throughput harness: a deliberately
//! oversubscribed closed-loop workload (threads = cores + 1) must complete
//! on any host, starve no worker, and — the PR 6 regression net — keep the
//! reclamation high-water mark sampled during the run under the installed
//! stall-policy byte budget: a preempted reader must never let garbage
//! accumulate past the point where the ejection ladder takes over.

use lfc_bench::throughput::{cores, run_throughput, Skew, TpCfg, TpWorkload};

#[test]
fn oversubscribed_run_completes_within_garbage_budget() {
    let r = run_throughput(&TpCfg {
        workload: TpWorkload::MoveHeavy,
        threads: cores() + 1,
        skew: Skew::Zipfian,
        duration_ms: 80,
        key_space: 32,
        seed: 0x5E0C,
    });
    assert!(r.oversubscribed, "threads = cores + 1 must oversubscribe");
    assert!(r.ops > 0, "{} did no work", r.name);
    assert!(
        r.min_thread_ops > 0,
        "{}: a worker was starved outright",
        r.name
    );
    assert!(r.p50_ns <= r.p99_ns && r.p99_ns <= r.p999_ns);
    let budget = lfc_hazard::stall_policy().max_retired_bytes as u64;
    assert!(
        r.retired_hwm < budget,
        "{}: retired high-water {} exceeded the stall-policy budget {}",
        r.name,
        r.retired_hwm,
        budget
    );
}

#[test]
fn stack_workload_runs_without_starving() {
    let r = run_throughput(&TpCfg {
        workload: TpWorkload::StackPushPop,
        threads: cores() + 1,
        skew: Skew::Uniform,
        duration_ms: 50,
        key_space: 1,
        seed: 0x57AC,
    });
    assert!(r.ops > 0 && r.min_thread_ops > 0, "{} starved", r.name);
}
