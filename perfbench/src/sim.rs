//! Simulator workloads: one episode builds a fresh deployment, runs the
//! closed loop for the workload's simulated length (the measured
//! window), then stops the clients, quiesces and runs the correctness
//! gate.

use crate::gate::{self, Gate};
use crate::layers::{Hosted, Probe, Source};
use crate::measure::process_cpu;
use crate::spans::Recorder;
use crate::workloads::Workload;
use hat_core::client::TxnSource;
use hat_core::{
    ClientMetrics, ClusterLayout, DeploymentBuilder, Node, ServerStats, SystemConfig, TxnRecord,
};
use hat_sim::Engine;
use hat_storage::SyncPolicy;
use hat_workloads::YcsbSource;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one episode measured.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Engine seed.
    pub seed: u64,
    /// Building the deployment (stores opened) up to the first event.
    pub setup: Duration,
    /// Wall time of the measured window.
    pub wall: Duration,
    /// Process CPU time of the measured window.
    pub cpu: Duration,
    /// Simulated seconds in the window.
    pub sim_secs: f64,
    /// Client counters at the end of the window.
    pub metrics: ClientMetrics,
    /// Server counters at the end of the window.
    pub stats: ServerStats,
    /// Value bytes in the writes clients issued.
    pub user_bytes: u64,
    /// Bytes the replicas hold at the end of the window: WAL bytes for
    /// durable stores, encoded versions for volatile ones.
    pub stored_bytes: u64,
    /// Versions and distinct keys over all replicas at window end.
    pub versions: (u64, u64),
    /// hat-trace and hat-obs events recorded during the window.
    pub instrumentation_events: (u64, u64),
    /// Quiesce durations (`SystemConfig::quiesce_duration`) run before
    /// the replicas agreed.
    pub quiesce_rounds: u32,
    /// Peak resident memory of the process up to the end of the window,
    /// MB.
    pub peak_rss_mb: f64,
    /// Correctness checks run after the window.
    pub gate: Gate,
}

/// Most quiesce durations the gate waits for replicas to converge.
pub const MAX_QUIESCE_ROUNDS: u32 = 5;

/// A fresh scratch directory for durable stores, inside the benchmark's
/// output directory (unique per process and call).
pub fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    Path::new(crate::OUT_DIR)
        .join("scratch")
        .join(format!("{}-{n}-{tag}", std::process::id()))
}

fn builder(
    w: &Workload,
    seed: u64,
    record_history: bool,
    drivers: Vec<Box<dyn TxnSource>>,
    dir: Option<&Path>,
    rec: Option<&Arc<Recorder>>,
) -> DeploymentBuilder {
    let b = w.builder(seed, record_history, rec).drivers(drivers);
    match dir {
        Some(dir) => b.durable(dir, SyncPolicy::Never),
        None => b,
    }
}

struct Deployment<A: Hosted> {
    engine: Engine<A>,
    layout: Arc<ClusterLayout>,
    config: Arc<SystemConfig>,
}

impl<A: Hosted> Deployment<A> {
    fn servers(&self) -> impl Iterator<Item = &hat_core::Server> {
        self.layout
            .servers
            .iter()
            .flatten()
            .filter_map(|&s| self.engine.actor(s).node().as_server())
    }

    fn client_metrics(&self) -> ClientMetrics {
        let mut m = ClientMetrics::default();
        for &c in &self.layout.clients {
            m.merge(&self.engine.actor(c).node().as_client().unwrap().metrics);
        }
        m
    }

    fn server_stats(&self) -> ServerStats {
        let mut s = ServerStats::default();
        for srv in self.servers() {
            s.merge(&srv.stats);
        }
        s
    }

    fn take_records(&mut self) -> Vec<TxnRecord> {
        let mut all = Vec::new();
        for &c in &self.layout.clients.clone() {
            let client = self.engine.actor_mut(c).node_mut().as_client_mut().unwrap();
            all.extend(client.take_records());
        }
        all
    }
}

/// Builds a deployment whose nodes are wrapped by `wrap`.
fn deploy<A: Hosted>(b: DeploymentBuilder, wrap: impl Fn(Node) -> A) -> Deployment<A> {
    let (cfg, topology, nodes, layout, config, _trace, _obs) = b.build_parts();
    let actors = nodes.into_iter().map(wrap).collect();
    Deployment {
        engine: Engine::new(cfg, topology, actors),
        layout,
        config,
    }
}

fn sources(
    w: &Workload,
    stop: &Arc<AtomicBool>,
    user_bytes: &Arc<AtomicU64>,
    rec: Option<&Arc<Recorder>>,
) -> Vec<Box<dyn TxnSource>> {
    (0..w.clients)
        .map(|_| {
            Box::new(Source::new(
                YcsbSource::new(w.ycsb.clone()),
                Arc::clone(stop),
                Arc::clone(user_bytes),
                rec.cloned(),
            )) as Box<dyn TxnSource>
        })
        .collect()
}

/// Builds the workload's deployment and drops it: the set-up cost alone.
pub fn setup_only(w: &Workload, seed: u64, tag: &str) -> Duration {
    let stop = Arc::new(AtomicBool::new(false));
    let user_bytes = Arc::new(AtomicU64::new(0));
    let dir = w.durable.then(|| scratch_dir(tag));
    let t0 = Instant::now();
    let d = deploy(
        builder(
            w,
            seed,
            false,
            sources(w, &stop, &user_bytes, None),
            dir.as_deref(),
            None,
        ),
        |n| n,
    );
    let setup = t0.elapsed();
    drop(d);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    setup
}

/// Runs one episode. With `rec`, every node is a [`Probe`], every engine
/// a [`TimedEngine`], and the window is one `sim.run` root span.
pub fn episode(w: &Workload, seed: u64, rec: Option<&Arc<Recorder>>) -> Episode {
    match rec {
        None => run_episode(w, seed, None, |n| n),
        Some(r) => {
            let r2 = Arc::clone(r);
            run_episode(w, seed, Some(r), move |n| Probe::new(n, Arc::clone(&r2)))
        }
    }
}

fn run_episode<A: Hosted>(
    w: &Workload,
    seed: u64,
    rec: Option<&Arc<Recorder>>,
    wrap: impl Fn(Node) -> A,
) -> Episode {
    let stop = Arc::new(AtomicBool::new(false));
    let user_bytes = Arc::new(AtomicU64::new(0));
    let tag = format!("{}-{seed}-{}", w.name, rec.is_some() as u8);
    let dir = w.durable.then(|| scratch_dir(&tag));

    if let Some(r) = rec {
        r.set_enabled(false);
    }
    let t0 = Instant::now();
    let b = builder(
        w,
        seed,
        false,
        sources(w, &stop, &user_bytes, rec),
        dir.as_deref(),
        rec,
    );
    let mut d = deploy(b, wrap);
    let setup = t0.elapsed();

    let trace0 = hat_core::events_recorded_total();
    let obs0 = hat_obs::obs_recorded_total();
    let cpu0 = process_cpu();
    let w0 = Instant::now();
    match rec {
        Some(r) => {
            r.set_enabled(true);
            r.time(("sim", "run"), 0, || d.engine.run_for(w.episode));
            r.set_enabled(false);
        }
        None => d.engine.run_for(w.episode),
    }
    let wall = w0.elapsed();
    let cpu = process_cpu() - cpu0;
    let peak_rss_mb = crate::measure::peak_rss_mb();
    let instrumentation_events = (
        hat_core::events_recorded_total() - trace0,
        hat_obs::obs_recorded_total() - obs0,
    );

    let metrics = d.client_metrics();
    let stats = d.server_stats();
    let stored_bytes = d
        .servers()
        .map(|s| {
            if w.durable {
                s.store().wal_bytes()
            } else {
                s.store()
                    .all_versions()
                    .iter()
                    .map(|(k, r)| (k.len() + r.encoded_len()) as u64)
                    .sum()
            }
        })
        .sum();
    let versions = d.servers().fold((0, 0), |(v, k), s| {
        (
            v + s.store().version_count() as u64,
            k + s.store().key_count() as u64,
        )
    });
    let user_bytes_now = user_bytes.load(Ordering::Relaxed);

    // Gate: stop the loop, let replication settle, then check.
    stop.store(true, Ordering::Relaxed);
    let quiesce = d.config.quiesce_duration();
    d.engine.run_for(quiesce);
    let mut quiesce_rounds = 1;
    let mut gate = Gate::default();
    gate.instrumentation_silent(instrumentation_events);
    if d.layout.num_clusters() > 1 {
        // Convergence must hold within MAX_QUIESCE_ROUNDS of the
        // deployment's own quiesce duration; the rounds it took are
        // reported, so a slow drain shows without failing the run.
        let mut converged = Err(String::new());
        while quiesce_rounds <= MAX_QUIESCE_ROUNDS {
            let replicas: Vec<_> = d
                .servers()
                .map(|s| (s.node_id(), gate::latest_stamps(s.store())))
                .collect();
            converged = gate::compare_replicas(&d.layout, &replicas);
            if converged.is_ok() || quiesce_rounds == MAX_QUIESCE_ROUNDS {
                break;
            }
            d.engine.run_for(quiesce);
            quiesce_rounds += 1;
        }
        gate.converged(converged, quiesce_rounds);
    }
    let settled = d.client_metrics();
    gate.no_unrepaired_reads(settled.unrepaired_reads);
    gate.no_required_misses(d.servers().map(|s| s.mav_required_misses()).sum());
    if let Some(dir) = &dir {
        let live: Vec<_> = d
            .servers()
            .map(|s| (s.node_id(), s.store().all_versions()))
            .collect();
        drop(d);
        gate.recovered(gate::recover_and_compare(dir, &live));
        let _ = std::fs::remove_dir_all(dir);
    }

    Episode {
        seed,
        setup,
        wall,
        cpu,
        sim_secs: w.episode.as_micros() as f64 / 1e6,
        metrics,
        stats,
        user_bytes: user_bytes_now,
        stored_bytes,
        versions,
        instrumentation_events,
        quiesce_rounds,
        peak_rss_mb,
        gate,
    }
}

/// Records the history of a short closed-loop run of `w`'s deployment,
/// sessions as measured.
pub fn history_records(w: &Workload, seed: u64, length: hat_sim::SimDuration) -> Vec<TxnRecord> {
    let stop = Arc::new(AtomicBool::new(false));
    let user_bytes = Arc::new(AtomicU64::new(0));
    let dir = w.durable.then(|| scratch_dir(&format!("history-{seed}")));
    let b = builder(
        w,
        seed,
        true,
        sources(w, &stop, &user_bytes, None),
        dir.as_deref(),
        None,
    );
    let mut d = deploy(b, |n| n);
    d.engine.run_for(length);
    stop.store(true, Ordering::Relaxed);
    let quiesce = d.config.quiesce_duration();
    d.engine.run_for(quiesce);
    let records = d.take_records();
    drop(d);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    records
}
