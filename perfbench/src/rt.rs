//! The threaded-runtime workload: one interactive session driven from
//! the benchmark's thread, YCSB transactions generated from the seed,
//! every operation a real round trip over the runtime's channels.

use crate::gate::{self, Gate};
use crate::layers::write_bytes;
use crate::measure::process_cpu;
use crate::spans::Recorder;
use crate::workloads::Workload;
use hat_core::client::TxnSource;
use hat_core::{ClientMetrics, Frontend, HatError, Node, Op, ServerStats, Session, TxnSpec};
use hat_runtime::{BuildThreaded, RuntimeConfig, RuntimeFrontend};
use hat_workloads::YcsbSource;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-transaction timings, µs, as the caller sees them.
#[derive(Debug, Clone, Default)]
pub struct OpTimes {
    /// Whole transactions, begin → commit acknowledged.
    pub txn: Vec<f64>,
    /// Item reads.
    pub get: Vec<f64>,
    /// Writes.
    pub put: Vec<f64>,
    /// Commit round (closure end → commit acknowledged).
    pub commit: Vec<f64>,
}

/// What one episode measured: a fresh deployment, a warm-up, then a
/// measured window of a fixed number of transactions.
#[derive(Debug, Clone, Default)]
pub struct RtEpisode {
    /// Deployment built, node threads spawned, session opened.
    pub setup: Duration,
    /// Wall time of the measured window.
    pub wall: Duration,
    /// Process CPU time of the measured window (all threads).
    pub cpu: Duration,
    /// Transactions committed in the window.
    pub committed: u64,
    /// Transactions that failed in the window (unavailable, aborted,
    /// indeterminate).
    pub failed: u64,
    /// Value bytes in every committed write, warm-up included.
    pub user_bytes: u64,
    /// Caller-side timings in the window.
    pub times: OpTimes,
    /// Engine-hook time (protocol + storage) that overlapped the
    /// window's transactions, ns (traced episodes only).
    pub hook_ns_in_txns: u64,
    /// Client counters at shutdown.
    pub metrics: ClientMetrics,
    /// Server counters at shutdown.
    pub stats: ServerStats,
    /// Bytes of every version the replicas hold at shutdown.
    pub stored_bytes: u64,
    /// Versions and keys over all replicas at shutdown.
    pub versions: (u64, u64),
    /// hat-trace / hat-obs events recorded during the window.
    pub instrumentation_events: (u64, u64),
    /// Peak resident memory of the process up to the end of the window,
    /// MB.
    pub peak_rss_mb: f64,
    /// Correctness checks.
    pub gate: Gate,
}

fn runtime_config(seed: u64) -> RuntimeConfig {
    RuntimeConfig {
        latency_scale: 0.0,
        seed,
        op_deadline: Some(Duration::from_secs(5)),
    }
}

/// Builds the deployment and opens the session: the set-up cost.
fn start(
    w: &Workload,
    seed: u64,
    record_history: bool,
    rec: Option<&Arc<Recorder>>,
) -> (RuntimeFrontend, Session, Duration) {
    let t0 = Instant::now();
    let mut front = w
        .builder(seed, record_history, rec)
        .sessions_per_cluster(1)
        .build_threaded(runtime_config(seed));
    let session = front.open_session(w.session);
    (front, session, t0.elapsed())
}

fn key_str(key: &[u8]) -> &str {
    std::str::from_utf8(key).expect("YCSB keys are ASCII")
}

/// Runs one transaction plan; returns its timings when it committed.
fn run_txn(
    front: &mut RuntimeFrontend,
    session: &Session,
    spec: &TxnSpec,
    times: &mut OpTimes,
    rec: Option<&Arc<Recorder>>,
) -> Result<(), HatError> {
    let t0 = Instant::now();
    let mut body_end = t0;
    let (mut gets, mut puts) = (Vec::new(), Vec::new());
    let out = front.try_txn(session, |t| {
        for op in &spec.ops {
            let s = Instant::now();
            match op {
                Op::Read(k) => {
                    let span = rec.map(|r| r.open(("runtime", "get"), 0));
                    t.get_bytes(key_str(k))?;
                    if let (Some(r), Some(span)) = (rec, span) {
                        r.close(span);
                    }
                    gets.push(s.elapsed().as_secs_f64() * 1e6);
                }
                Op::Write(k, v) => {
                    let span = rec.map(|r| r.open(("runtime", "put"), 0));
                    t.put_bytes(key_str(k), v.clone())?;
                    if let (Some(r), Some(span)) = (rec, span) {
                        r.close(span);
                    }
                    puts.push(s.elapsed().as_secs_f64() * 1e6);
                }
                Op::PredicateRead(_) => unreachable!("YCSB issues no scans"),
            }
        }
        body_end = Instant::now();
        Ok(())
    });
    if out.is_ok() {
        let end = Instant::now();
        times.txn.push((end - t0).as_secs_f64() * 1e6);
        times.commit.push((end - body_end).as_secs_f64() * 1e6);
        times.get.extend(gets);
        times.put.extend(puts);
    }
    out
}

/// Builds the deployment, opens the session and shuts it down: the
/// set-up cost alone.
pub fn setup_only(w: &Workload, seed: u64) -> Duration {
    let (front, _session, setup) = start(w, seed, false, None);
    drop(front);
    setup
}

/// Runs one episode: `warmup` unmeasured transactions, then `txns`
/// measured ones, then the gate. With `rec`, engines are
/// [`TimedEngine`]s and the measured transactions are `runtime` spans.
pub fn episode(
    w: &Workload,
    seed: u64,
    txns: usize,
    warmup: usize,
    rec: Option<&Arc<Recorder>>,
) -> RtEpisode {
    let mut out = RtEpisode::default();
    if let Some(r) = rec {
        r.set_enabled(false);
    }
    let (mut front, session, setup) = start(w, seed, false, rec);
    out.setup = setup;
    let mut src = YcsbSource::new(w.ycsb.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = OpTimes::default();
    for _ in 0..warmup {
        let spec = src.next_txn(&mut rng).expect("unbounded source");
        if run_txn(&mut front, &session, &spec, &mut scratch, None).is_ok() {
            out.user_bytes += write_bytes(&spec);
        }
    }

    let trace0 = hat_core::events_recorded_total();
    let obs0 = hat_obs::obs_recorded_total();
    if let Some(r) = rec {
        r.set_enabled(true);
    }
    let cpu0 = process_cpu();
    let w0 = Instant::now();
    for _ in 0..txns {
        let spec = match rec {
            Some(r) => r.time(("workload", "next_txn"), 0, || src.next_txn(&mut rng)),
            None => src.next_txn(&mut rng),
        }
        .expect("unbounded source");
        let hooks0 = rec.map(|r| r.layer_total_ns("protocol")).unwrap_or(0);
        let span = rec.map(|r| r.open(("runtime", "txn"), 0));
        let result = run_txn(&mut front, &session, &spec, &mut out.times, rec);
        if let (Some(r), Some(span)) = (rec, span) {
            r.close(span);
            out.hook_ns_in_txns += r.layer_total_ns("protocol") - hooks0;
        }
        match result {
            Ok(()) => {
                out.committed += 1;
                out.user_bytes += write_bytes(&spec);
            }
            Err(_) => out.failed += 1,
        }
    }
    out.wall = w0.elapsed();
    out.cpu = process_cpu() - cpu0;
    out.peak_rss_mb = crate::measure::peak_rss_mb();
    if let Some(r) = rec {
        r.set_enabled(false);
    }
    out.instrumentation_events = (
        hat_core::events_recorded_total() - trace0,
        hat_obs::obs_recorded_total() - obs0,
    );

    front.quiesce();
    let layout = front.layout().clone();
    let (nodes, metrics, _records) = front.shutdown();
    let servers: Vec<&hat_core::Server> = nodes.iter().filter_map(Node::as_server).collect();
    out.stored_bytes = servers
        .iter()
        .flat_map(|s| s.store().all_versions())
        .map(|(k, r)| (k.len() + r.encoded_len()) as u64)
        .sum();
    out.versions = servers.iter().fold((0, 0), |(v, k), s| {
        (
            v + s.store().version_count() as u64,
            k + s.store().key_count() as u64,
        )
    });
    for s in &servers {
        out.stats.merge(&s.stats);
    }
    let gate = &mut out.gate;
    gate.instrumentation_silent(out.instrumentation_events);
    gate.no_unrepaired_reads(metrics.unrepaired_reads);
    gate.no_required_misses(servers.iter().map(|s| s.mav_required_misses()).sum());
    let replicas: Vec<_> = servers
        .iter()
        .map(|s| (s.node_id(), gate::latest_stamps(s.store())))
        .collect();
    gate.converged(gate::compare_replicas(&layout, &replicas), 1);
    out.metrics = metrics;
    out
}

/// Records the history of a short run of `w`'s deployment, session as
/// measured.
pub fn history_records(w: &Workload, seed: u64, txns: usize) -> Vec<hat_core::TxnRecord> {
    let (mut front, session, _) = start(w, seed, true, None);
    let mut src = YcsbSource::new(w.ycsb.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = OpTimes::default();
    for _ in 0..txns {
        let spec = src.next_txn(&mut rng).expect("unbounded source");
        let _ = run_txn(&mut front, &session, &spec, &mut scratch, None);
    }
    front.quiesce();
    front.take_records()
}
