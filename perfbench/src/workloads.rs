//! The benchmark's workloads. Every workload is a closed loop (§6.3):
//! each client waits for its reply before it sends again.

use crate::layers::TimedEngine;
use crate::spans::Recorder;
use hat_core::{
    engine_for, ClusterSpec, DeploymentBuilder, ProtocolEngine, ProtocolKind, ServiceModel,
    SessionLevel, SessionOptions, SystemConfig,
};
use hat_sim::SimDuration;
use hat_workloads::{KeyDist, YcsbConfig};
use std::sync::Arc;

/// Which executor runs the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The deterministic discrete-event simulator, one thread.
    Sim,
    /// The threaded runtime: one OS thread per node, real channels.
    Threaded,
}

/// One workload's full configuration.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name given on the command line.
    pub name: &'static str,
    /// Executor.
    pub backend: Backend,
    /// Isolation engine.
    pub protocol: ProtocolKind,
    /// Clusters and servers per cluster.
    pub spec: ClusterSpec,
    /// Closed-loop clients (sessions).
    pub clients: usize,
    /// Keys, distribution, value size, ops per transaction and mix.
    pub ycsb: YcsbConfig,
    /// Session guarantees and routing.
    pub session: SessionOptions,
    /// WAL-backed `DurableStore` (flush policy `SyncPolicy::Never`)
    /// instead of the volatile `MemStore`.
    pub durable: bool,
    /// Modelled server service times.
    pub service: ServiceModel,
    /// Simulated length of one measured episode (sim backends). CPU per
    /// commit depends on it, so it is part of the definition.
    pub episode: SimDuration,
    /// Measured transactions per episode, after `warmup_txns` unmeasured
    /// ones (threaded backend).
    pub episode_txns: usize,
    /// Unmeasured transactions at the start of a threaded episode.
    pub warmup_txns: usize,
}

/// Names of every workload, in the order they are documented.
pub const NAMES: [&str; 3] = ["ycsb-wan", "hot-lan-durable", "threaded-rt"];

/// The workload called `name`, at full scale.
pub fn by_name(name: &str) -> Option<Workload> {
    let paper_ycsb = YcsbConfig::default(); // 100k keys uniform, 1 KB, 8 ops, 50/50
    Some(match name {
        // §6.3: RAMP-Fast over Virginia + Oregon, 2 servers each.
        "ycsb-wan" => Workload {
            name: "ycsb-wan",
            backend: Backend::Sim,
            protocol: ProtocolKind::RampFast,
            spec: ClusterSpec::va_or(2),
            clients: 64,
            ycsb: paper_ycsb,
            session: SessionOptions::default(),
            durable: false,
            service: ServiceModel::default(),
            episode: SimDuration::from_secs(4),
            episode_txns: 0,
            warmup_txns: 0,
        },
        // Hot keys on one LAN cluster, read-mostly MAV, WAL-backed
        // stores. Sessions are sticky without client caches: item-cut,
        // monotonic and causal sessions over MAV fail the history check
        // (perfbench/README.md, "Known defects the benchmark found").
        "hot-lan-durable" => Workload {
            name: "hot-lan-durable",
            backend: Backend::Sim,
            protocol: ProtocolKind::Mav,
            spec: ClusterSpec::single_dc(1, 4),
            clients: 32,
            ycsb: YcsbConfig {
                num_keys: 10_000,
                dist: KeyDist::zipfian(10_000, 0.99),
                read_proportion: 0.95,
                ..YcsbConfig::default()
            },
            session: SessionOptions {
                level: SessionLevel::None,
                sticky: true,
            },
            durable: true,
            service: ServiceModel::default(),
            episode: SimDuration::from_secs(5),
            episode_txns: 0,
            warmup_txns: 0,
        },
        // One interactive session on the threaded runtime, no modelled
        // latency or service time: every microsecond is the code's own.
        "threaded-rt" => Workload {
            name: "threaded-rt",
            backend: Backend::Threaded,
            protocol: ProtocolKind::RampFast,
            spec: ClusterSpec::single_dc(2, 1),
            clients: 1,
            ycsb: paper_ycsb,
            session: SessionOptions::default(),
            durable: false,
            service: ServiceModel::zero(),
            episode: SimDuration::ZERO,
            episode_txns: 4000,
            warmup_txns: 300,
        },
        _ => return None,
    })
}

impl Workload {
    /// A tiny version of the workload for the benchmark's own tests:
    /// same engine, deployment and mix, far fewer keys and clients and
    /// a short episode.
    pub fn tiny(mut self) -> Self {
        // A zipfian keeps its skew: its ranks hash into the fewer keys.
        self.ycsb.num_keys = 200;
        self.ycsb.value_size = 64;
        self.clients = self.clients.min(8);
        self.episode = SimDuration::from_millis(self.episode.as_micros() / 1000 / 10);
        self.episode_txns /= 20;
        self.warmup_txns /= 20;
        self
    }

    /// The workload's deployment as both executors build it: engine,
    /// clusters, service model and default sessions. With `rec`, every
    /// server's engine is a [`TimedEngine`] reporting to it.
    pub fn builder(
        &self,
        seed: u64,
        record_history: bool,
        rec: Option<&Arc<Recorder>>,
    ) -> DeploymentBuilder {
        let mut sys = SystemConfig::new(self.protocol);
        sys.service = self.service.clone();
        sys.record_history = record_history;
        let mut b = DeploymentBuilder::new(self.protocol)
            .seed(seed)
            .clusters(self.spec.clone())
            .config(sys)
            .default_session(self.session);
        if let Some(rec) = rec {
            let rec = Arc::clone(rec);
            let kind = self.protocol;
            b = b.engine_factory(move || {
                Box::new(TimedEngine::new(engine_for(kind), Arc::clone(&rec)))
                    as Box<dyn ProtocolEngine>
            });
        }
        b
    }

    /// One line per configuration knob, for the run report.
    pub fn describe(&self) -> String {
        let dist = match &self.ycsb.dist {
            KeyDist::Uniform => "uniform".to_string(),
            zipfian => format!("{zipfian:?}"),
        };
        format!(
            "engine={} backend={:?} clusters={} servers/cluster={} clients={} keys={} dist={} \
             value={}B ops/txn={} reads={:.0}% session={:?} store={} episode={} service={}",
            self.protocol.label(),
            self.backend,
            self.spec.clusters.len(),
            self.spec.clusters[0].1,
            self.clients,
            self.ycsb.num_keys,
            dist,
            self.ycsb.value_size,
            self.ycsb.ops_per_txn,
            self.ycsb.read_proportion * 100.0,
            self.session,
            if self.durable {
                "DurableStore(SyncPolicy::Never)"
            } else {
                "MemStore"
            },
            match self.backend {
                Backend::Sim => format!("{}ms", self.episode.as_micros() / 1000),
                Backend::Threaded => {
                    format!("{}txns+{}warmup", self.episode_txns, self.warmup_txns)
                }
            },
            if self.service.write_us == 0.0 {
                "zero"
            } else {
                "default"
            },
        )
    }
}
