//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (the end-to-end list untraced, the per-layer list traced).
//! Exits 1 if a correctness gate or an operation failed, 2 on bad usage.

use perfbench::{run, Params, Scale, Workload};
use std::time::Duration;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <paper_fig2|read_mostly|ledger> --seed <n> --seconds <1..=60> --trace <0|1>"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(val)
                        .unwrap_or_else(|| usage(&format!("unknown workload {val}"))),
                )
            }
            "--seed" => seed = Some(val.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    val.parse::<u64>()
                        .ok()
                        .filter(|s| (1..=60).contains(s))
                        .unwrap_or_else(|| usage("--seconds must be 1..=60")),
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                })
            }
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    let p = Params {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        window: Duration::from_secs(seconds.unwrap_or_else(|| usage("--seconds is required"))),
        trace: trace.unwrap_or(false),
        scale: Scale::full(),
    };
    let report = run(&p);
    for l in &report.lines {
        println!("{l}");
    }
    println!("{}", report.to_json());
    if !report.correct {
        std::process::exit(1);
    }
}
