//! `hatdb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a report (every metric with its unit and the counts it rests
//! on, then every correctness check) and, as the last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. Exits nonzero when a correctness check fails.

use hatdb_perfbench::bench::{self, Plan};
use hatdb_perfbench::workloads;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: hatdb-perfbench --workload <{}> --seed <u64> --seconds <f64> --trace <0|1>",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = std::collections::BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                opts.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return usage(&format!("unexpected arguments {pair:?}")),
        }
    }
    let Some(workload) = opts.get("workload").and_then(|n| workloads::by_name(n)) else {
        return usage("missing or unknown --workload");
    };
    let Some(seed) = opts.get("seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("missing or invalid --seed");
    };
    let Some(seconds) = opts.get("seconds").and_then(|s| s.parse::<f64>().ok()) else {
        return usage("missing or invalid --seconds");
    };
    let trace = match opts.get("trace").map(String::as_str) {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return usage(&format!("--trace must be 0 or 1, got {other}")),
    };

    // One CPU for every thread: the threaded runtime's four threads
    // would otherwise share the vCPUs however the scheduler places them
    // (a round trip between cores costs differently than on one core),
    // and the simulator does not migrate between caches.
    match hatdb_perfbench::measure::pin_to_one_cpu() {
        Some(cpu) => println!("pinned to cpu {cpu}"),
        None => println!("could not pin to one cpu"),
    }
    println!("workload {}: {}", workload.name, workload.describe());
    println!(
        "seed {seed}, {seconds} s measured, {}",
        if trace { "traced" } else { "untraced" }
    );
    let out = bench::run(&workload, seed, &Plan::full(seconds), trace);
    println!("metrics:");
    for line in out.metrics.report_lines() {
        println!("{line}");
    }
    println!(
        "attempted {} txns, failed {} (failed_frac {})",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for note in &out.notes {
        println!("{note}");
    }
    let mut summary = std::collections::BTreeMap::<&str, (usize, usize)>::new();
    for c in &out.gate.checks {
        let e = summary.entry(c.name).or_default();
        e.0 += c.ok as usize;
        e.1 += 1;
    }
    println!("correctness gate:");
    for (name, (ok, n)) in &summary {
        println!("  {name:<30} {ok}/{n} passed");
    }
    if let Some(c) = out.gate.checks.iter().find(|c| c.name == "determinism_pin") {
        println!("  e.g. {}", c.detail);
    }
    let correct = out.gate.ok() && out.attempted > 0;
    if let Some(f) = out.gate.first_failure() {
        println!("  FAILED {}: {}", f.name, f.detail);
    }
    println!(
        "{}",
        out.metrics.json(correct, out.attempted.max(1), out.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
