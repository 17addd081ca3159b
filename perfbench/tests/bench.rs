//! The benchmark's own tests: a tiny-scale run of each workload emits
//! every metric `BENCHMARK.json` names exactly once with a unit, traced
//! self times account for the traced wall time, and the gate's
//! comparisons reject mismatched inputs.

use bytes::Bytes;
use hat_core::{ClusterSpec, DeploymentBuilder, ProtocolKind, Timestamp};
use hat_storage::{DurableStore, Key, Record, SharedRecord, Store, SyncPolicy};
use hatdb_perfbench::bench::{self, Outcome, Plan, LAYERS};
use hatdb_perfbench::{gate, workloads};
use std::collections::BTreeMap;

fn tiny_plan() -> Plan {
    Plan {
        seconds: 0.05,
        setups_per_episode: 2,
        history: hat_sim::SimDuration::from_millis(100),
        history_txns: 20,
        span_cap: 10_000,
    }
}

/// Metric names of one `BENCHMARK.json` section, in file order.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section closes");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

fn run(name: &str, trace: bool) -> Outcome {
    let w = workloads::by_name(name).unwrap().tiny();
    let out = bench::run(&w, 7, &tiny_plan(), trace);
    assert!(out.gate.ok(), "{name}: {:?}", out.gate.first_failure());
    assert!(out.attempted > 0, "{name}: no transactions");
    out
}

fn assert_emits_exactly(out: &Outcome, expected: &[String], what: &str) {
    let got: Vec<&str> = out.metrics.list.iter().map(|m| m.name.as_str()).collect();
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for n in &got {
        *counts.entry(n).or_default() += 1;
    }
    for name in expected {
        assert_eq!(
            counts.get(name.as_str()),
            Some(&1),
            "{what}: {name} not emitted once"
        );
    }
    assert_eq!(
        got.len(),
        expected.len(),
        "{what}: unexpected metrics in {got:?}"
    );
    for m in &out.metrics.list {
        assert!(!m.unit.is_empty() && m.value.is_finite(), "{what}: {m:?}");
    }
    let line = out.metrics.json(true, out.attempted, out.failed);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
}

#[test]
fn every_workload_emits_every_metric_once() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!(e2e.contains(&"setup_s".to_string()));
    for name in workloads::NAMES {
        let out = run(name, false);
        assert_emits_exactly(&out, &e2e, name);
        for m in &out.metrics.list {
            assert!(m.value > 0.0, "{name}: end-to-end {} is 0", m.name);
        }
        let traced = run(name, true);
        assert_emits_exactly(&traced, &layers, name);
    }
}

#[test]
fn traced_self_times_sum_to_traced_wall() {
    for name in workloads::NAMES {
        let out = run(name, true);
        let get = |n: &str| out.metrics.get(n).unwrap_or_else(|| panic!("{name}: {n}"));
        let attributed: f64 = LAYERS.iter().map(|l| get(&format!("{l}.self_frac"))).sum();
        let rest = get("trace.unattributed_frac");
        assert!(
            (attributed + rest - 1.0).abs() < 1e-9,
            "{name}: {attributed} + {rest}"
        );
        assert!((0.0..0.25).contains(&rest), "{name}: unattributed {rest}");
        assert!(get("trace.spans") > 0.0, "{name}: no spans");
    }
}

#[test]
fn traced_episode_is_pinned_to_untraced() {
    let out = run("hot-lan-durable", true);
    let pins: Vec<_> = out
        .gate
        .checks
        .iter()
        .filter(|c| c.name == "determinism_pin")
        .collect();
    assert!(!pins.is_empty() && pins.iter().all(|c| c.ok), "{pins:?}");
}

fn record(seq: u64, value: &str) -> SharedRecord {
    std::sync::Arc::new(Record::new(
        Timestamp::new(seq, 1),
        Bytes::from(value.to_string()),
    ))
}

#[test]
fn convergence_comparison_rejects_a_mismatch() {
    let front = DeploymentBuilder::new(ProtocolKind::RampFast)
        .clusters(ClusterSpec::single_dc(2, 1))
        .build();
    let layout = front.layout();
    let key = Key::from("user00000001");
    let replicas = layout.replicas(&key);
    let stamps = |seq| BTreeMap::from([(key.clone(), Timestamp::new(seq, 1))]);
    let agree = vec![(replicas[0], stamps(3)), (replicas[1], stamps(3))];
    assert_eq!(gate::compare_replicas(layout, &agree), Ok(1));
    let differ = vec![(replicas[0], stamps(3)), (replicas[1], stamps(2))];
    assert!(gate::compare_replicas(layout, &differ).is_err());
    let missing = vec![(replicas[0], stamps(3)), (replicas[1], BTreeMap::new())];
    assert!(gate::compare_replicas(layout, &missing).is_err());
}

#[test]
fn recovery_comparison_rejects_a_mismatch() {
    let dir = std::path::Path::new(hatdb_perfbench::OUT_DIR)
        .join("scratch")
        .join(format!("recovery-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = dir.join("server-0");
    let mut store = DurableStore::open(&server, SyncPolicy::Never).unwrap();
    store.put(Key::from("a"), record(1, "x")).unwrap();
    store.put(Key::from("b"), record(2, "y")).unwrap();
    let live = store.all_versions();
    drop(store);

    assert!(gate::recover_and_compare(&dir, &[(0, live.clone())]).is_ok());
    let mut wrong_value = live.clone();
    wrong_value[1].1 = record(2, "z");
    assert!(gate::recover_and_compare(&dir, &[(0, wrong_value)]).is_err());
    let mut extra = live.clone();
    extra.push((Key::from("c"), record(3, "w")));
    assert!(gate::recover_and_compare(&dir, &[(0, extra)]).is_err());
    assert!(gate::compare_versions(0, &live, &live[..1]).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}
