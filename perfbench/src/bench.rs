//! One benchmark run: end-to-end metrics (untraced) or per-layer
//! metrics (traced), plus the correctness gate.

use crate::gate::Gate;
use crate::measure::{
    highest_supported, hist_highest_supported, hist_pctl, median, pctl, ratio, Pctl,
};
use crate::report::Metrics;
use crate::rt::{self, OpTimes, RtEpisode};
use crate::sim::{self, Episode};
use crate::spans::{self_ns_by_layer, Name, NameTotals, Recorder};
use crate::workloads::{Backend, Workload};
use hat_core::{ClientMetrics, ServerStats};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Run-length knobs (the command line fixes them; tests shrink them).
#[derive(Debug, Clone)]
pub struct Plan {
    /// Measured seconds (sim: summed episode windows; threaded: the
    /// window).
    pub seconds: f64,
    /// Extra set-ups measured per episode run, after the last one.
    pub setups_per_episode: usize,
    /// Simulated length of the history-recording run.
    pub history: hat_sim::SimDuration,
    /// Transactions in the threaded history-recording run.
    pub history_txns: usize,
    /// Spans kept in memory by a traced run.
    pub span_cap: usize,
}

impl Plan {
    /// The command-line plan for `seconds` of measurement.
    pub fn full(seconds: f64) -> Self {
        Plan {
            seconds,
            setups_per_episode: SETUPS_PER_EPISODE,
            history: hat_sim::SimDuration::from_secs(1),
            history_txns: 300,
            span_cap: 250_000,
        }
    }
}

/// Set-ups measured per untraced episode, besides its own. They run
/// right after it, so they meet the host as it was then, and after the
/// first episode's peak memory was read.
pub const SETUPS_PER_EPISODE: usize = 40;

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Reported metrics.
    pub metrics: Metrics,
    /// Correctness checks.
    pub gate: Gate,
    /// Transactions attempted in the measured windows.
    pub attempted: u64,
    /// Of those, failed ones (external aborts, unavailable,
    /// indeterminate).
    pub failed: u64,
    /// Free-form report lines.
    pub notes: Vec<String>,
}

/// Seed of episode `i` of a run seeded `seed` (splitmix64).
pub fn episode_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs workload `w`.
pub fn run(w: &Workload, seed: u64, plan: &Plan, trace: bool) -> Outcome {
    let mut out = match (w.backend, trace) {
        (Backend::Sim, false) => sim_end_to_end(w, seed, plan),
        (Backend::Sim, true) => sim_layers(w, seed, plan),
        (Backend::Threaded, false) => rt_end_to_end(w, seed, plan),
        (Backend::Threaded, true) => rt_layers(w, seed, plan),
    };
    let records = match w.backend {
        Backend::Sim => sim::history_records(w, seed, plan.history),
        Backend::Threaded => rt::history_records(w, seed, plan.history_txns),
    };
    out.gate.history(w.protocol, records);
    out
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn pctl_basis(p: &Pctl) -> String {
    format!("p{} of n={} ({} beyond)", p.q * 100.0, p.n, p.beyond)
}

/// Runs episodes (`episode(i)` runs the `i`-th, returning it and its
/// measured window) until `plan.seconds` of window have elapsed.
fn episodes<E>(plan: &Plan, mut episode: impl FnMut(u64) -> (E, Duration)) -> Vec<E> {
    let (mut eps, mut measured) = (Vec::new(), 0.0);
    while measured < plan.seconds || eps.is_empty() {
        let (e, window) = episode(eps.len() as u64);
        measured += secs(window);
        eps.push(e);
    }
    eps
}

/// Set-up times of the `plan.setups_per_episode` deployments built after
/// episode `i` (`setup(seed)` builds and drops one deployment, returning
/// its set-up time).
fn measure_setups(plan: &Plan, seed: u64, i: u64, setup: impl Fn(u64) -> Duration) -> Vec<f64> {
    let n = plan.setups_per_episode as u64;
    (0..n)
        .map(|j| secs(setup(episode_seed(seed, 1000 + i * n + j))))
        .collect()
}

/// What every untraced episode reports, whichever executor ran it.
struct Measured {
    /// The episode's own set-up and those measured after it.
    setups: Vec<f64>,
    wall: Duration,
    cpu: Duration,
    committed: u64,
    attempted: u64,
    failed: u64,
    user_bytes: u64,
    stored_bytes: u64,
    peak_rss_mb: f64,
}

/// Folds untraced episodes into the end-to-end metrics. `sim_secs` is
/// the simulated length of all windows, `None` on the wall clock; `p50`
/// and `tail` are commit latencies in that clock.
///
/// Wall-clock and CPU figures, set-up time included, are means over the
/// [`BEST_EPISODES`] fastest episodes.
fn end_to_end(
    out: &mut Outcome,
    eps: &[Measured],
    sim_secs: Option<f64>,
    (p50, tail): (Pctl, Pctl),
    stored: &str,
) {
    let n = eps.len();
    let (mut committed, mut stored_bytes, mut user) = (0u64, 0u64, 0u64);
    for e in eps {
        committed += e.committed;
        stored_bytes += e.stored_bytes;
        user += e.user_bytes;
        out.attempted += e.attempted;
        out.failed += e.failed;
    }
    let per_episode = |f: &dyn Fn(&Measured) -> f64| -> Vec<f64> { eps.iter().map(f).collect() };
    let best = format!("mean of the best {} of {n} episodes", n.min(BEST_EPISODES));
    let m = &mut out.metrics;
    m.add(
        "setup_s",
        best_mean(per_episode(&|e| median(&e.setups)), Better::Lower),
        "s",
        format!(
            "median of {} set-ups per episode, {best}",
            eps[0].setups.len()
        ),
    );
    let fastest_tps = best_mean(
        per_episode(&|e| e.committed as f64 / secs(e.wall)),
        Better::Higher,
    );
    m.add(
        "commits_per_s",
        fastest_tps,
        "txn/s",
        format!("{best}, {committed} commits in all"),
    );
    m.add(
        "cpu_us_per_commit",
        best_mean(
            per_episode(&|e| secs(e.cpu) * 1e6 / e.committed as f64),
            Better::Lower,
        ),
        "us",
        format!("{best}, all threads"),
    );
    let (clock, clock_tps, tps_basis, pctl_of) = match sim_secs {
        Some(s) => (
            "simulated",
            committed as f64 / s,
            format!("{committed} commits / {s} simulated s"),
            String::new(),
        ),
        None => (
            "wall",
            fastest_tps,
            format!("{best}, as commits_per_s"),
            format!(" per episode, {best}"),
        ),
    };
    m.add("clock_tps", clock_tps, "txn/s", tps_basis);
    m.add(
        "commit_p50_ms",
        p50.value,
        "ms",
        format!("{clock}, {}{pctl_of}", pctl_basis(&p50)),
    );
    m.add(
        "commit_tail_ms",
        tail.value,
        "ms",
        format!("{clock}, {}{pctl_of}", pctl_basis(&tail)),
    );
    m.add(
        "stored_bytes_per_user_byte",
        ratio(stored_bytes as f64, user as f64),
        "ratio",
        format!("{stored_bytes} {stored} bytes / {user} value bytes written"),
    );
    // Later episodes start from whatever the earlier ones left resident
    // (on threaded-rt 3 MB grows to about 21 MB over 12 episodes), so
    // only the first episode's peak is one deployment's own.
    m.add(
        "peak_rss_mb",
        eps[0].peak_rss_mb,
        "MB",
        "VmHWM at the end of the first episode's window: one deployment in a fresh process".into(),
    );
}

fn sim_end_to_end(w: &Workload, seed: u64, plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let eps = episodes(plan, |i| {
        let e = sim::episode(w, episode_seed(seed, i), None);
        let setups = measure_setups(plan, seed, i, |s| sim::setup_only(w, s, "setup"));
        let window = e.wall;
        ((e, setups), window)
    });
    let mut lat = hat_obs::Histogram::for_latency_ms();
    let mut sim_secs = 0.0;
    let measured: Vec<Measured> = eps
        .iter()
        .map(|(e, setups)| {
            lat.merge(&e.metrics.txn_latency_ms);
            sim_secs += e.sim_secs;
            out.gate.absorb(e.gate.clone());
            let m = &e.metrics;
            Measured {
                setups: std::iter::once(secs(e.setup))
                    .chain(setups.iter().copied())
                    .collect(),
                wall: e.wall,
                cpu: e.cpu,
                committed: m.committed,
                attempted: m.committed + m.aborted_external + m.aborted_internal,
                failed: m.aborted_external,
                user_bytes: e.user_bytes,
                stored_bytes: e.stored_bytes,
                peak_rss_mb: e.peak_rss_mb,
            }
        })
        .collect();
    let pctls = (
        hist_pctl(&lat, 0.5),
        hist_highest_supported(&lat, &[0.5, 0.9, 0.99]),
    );
    let stored = if w.durable { "WAL" } else { "stored version" };
    end_to_end(&mut out, &measured, Some(sim_secs), pctls, stored);
    out
}

/// Runs untraced/traced episode pairs with the same seed: the traced
/// one must reproduce the untraced one exactly; its spans give the
/// per-layer split.
fn sim_layers(w: &Workload, seed: u64, plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let rec = Arc::new(Recorder::new(plan.span_cap));
    let pairs = episodes(plan, |i| {
        let s = episode_seed(seed, i);
        let plain = sim::episode(w, s, None);
        let probed = sim::episode(w, s, Some(&rec));
        let window = plain.wall + probed.wall;
        ((s, plain, probed), window)
    });
    let (mut plain_cpu, mut traced_cpu) = (0.0, 0.0);
    for (s, plain, probed) in &pairs {
        let same_metrics = format!("{:?}", plain.metrics) == format!("{:?}", probed.metrics);
        let same_stats = format!("{:?}", plain.stats) == format!("{:?}", probed.stats);
        let p = probed.metrics.commit_percentiles();
        out.gate.pinned(
            same_metrics && same_stats,
            format!(
                "seed {s:#x}: {} vs {} commits, p50 {} / p99 {} ms, client metrics {}, \
                 server stats {}",
                plain.metrics.committed,
                probed.metrics.committed,
                p.p50,
                p.p99,
                if same_metrics { "equal" } else { "DIFFER" },
                if same_stats { "equal" } else { "DIFFER" },
            ),
        );
        plain_cpu += secs(plain.cpu);
        traced_cpu += secs(probed.cpu);
        out.gate.absorb(plain.gate.clone());
        out.gate.absorb(probed.gate.clone());
    }
    let traced: Vec<&Episode> = pairs.iter().map(|(_, _, probed)| probed).collect();

    let mut input = LayerInput {
        totals: rec.totals(),
        overhead: traced_cpu / plain_cpu - 1.0,
        ..LayerInput::default()
    };
    for e in traced.iter().copied() {
        input.wall_ns += e.wall.as_nanos() as u64;
        input.commits += e.metrics.committed;
        input.metrics.merge(&e.metrics);
        input.stats.merge(&e.stats);
        input.user_bytes += e.user_bytes;
        input.stored.0 += e.versions.0;
        input.stored.1 += e.versions.1;
        if w.durable {
            input.wal_bytes += e.stored_bytes;
        }
        input.quiesce_rounds += e.quiesce_rounds as u64;
        input.instrumentation.0 += e.instrumentation_events.0;
        input.instrumentation.1 += e.instrumentation_events.1;
        out.attempted +=
            e.metrics.committed + e.metrics.aborted_external + e.metrics.aborted_internal;
        out.failed += e.metrics.aborted_external;
    }
    input.episodes = traced.len() as u64;
    input.replay_s = out.gate.replay.map(secs).unwrap_or(0.0);
    input.self_ns = self_ns_by_layer(&input.totals);
    input.value_size = w.ycsb.value_size as u64;
    layer_metrics(&mut out.metrics, &input);
    write_spans(&rec, w, seed, &mut out);
    out
}

fn write_spans(rec: &Recorder, w: &Workload, seed: u64, out: &mut Outcome) {
    let path = std::path::Path::new(crate::OUT_DIR).join(format!("spans-{}-{seed}.tsv", w.name));
    let (kept, dropped) = rec.span_counts();
    match rec.write_tsv(&path) {
        Ok(()) => out.notes.push(format!(
            "spans: {kept} written to {} ({dropped} over the in-memory cap, counted in totals only)",
            path.display()
        )),
        Err(e) => out.notes.push(format!("spans: could not write {}: {e}", path.display())),
    }
}

fn rt_end_to_end(w: &Workload, seed: u64, plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let eps = episodes(plan, |i| {
        let e = rt::episode(
            w,
            episode_seed(seed, i),
            w.episode_txns,
            w.warmup_txns,
            None,
        );
        let setups = measure_setups(plan, seed, i, |s| rt::setup_only(w, s));
        let window = e.wall;
        ((e, setups), window)
    });
    let measured: Vec<Measured> = eps
        .iter()
        .map(|(e, setups)| {
            out.gate.absorb(e.gate.clone());
            Measured {
                setups: std::iter::once(secs(e.setup))
                    .chain(setups.iter().copied())
                    .collect(),
                wall: e.wall,
                cpu: e.cpu,
                committed: e.committed,
                attempted: e.committed + e.failed,
                failed: e.failed,
                user_bytes: e.user_bytes,
                stored_bytes: e.stored_bytes,
                peak_rss_mb: e.peak_rss_mb,
            }
        })
        .collect();
    // Latencies, like the other wall-clock figures, come from the
    // least-disturbed episodes: each percentile of each episode's own
    // transactions, averaged over the episodes where it was lowest.
    let txn_ms: Vec<Vec<f64>> = eps
        .iter()
        .map(|(e, _)| {
            let mut ms: Vec<f64> = e.times.txn.iter().map(|us| us / 1000.0).collect();
            ms.sort_by(f64::total_cmp);
            ms
        })
        .collect();
    let best_pctl = |q: &dyn Fn(&[f64]) -> Pctl| {
        let per_episode: Vec<Pctl> = txn_ms.iter().map(|ms| q(ms)).collect();
        let value = best_mean(per_episode.iter().map(|p| p.value).collect(), Better::Lower);
        let n = per_episode.iter().map(|p| p.n).min().expect("an episode");
        let beyond = per_episode
            .iter()
            .map(|p| p.beyond)
            .min()
            .expect("an episode");
        Pctl {
            value,
            n,
            beyond,
            ..per_episode[0]
        }
    };
    let pctls = (
        best_pctl(&|ms| pctl(ms, 0.5)),
        best_pctl(&|ms| highest_supported(ms, RT_TAIL)),
    );
    end_to_end(&mut out, &measured, None, pctls, "stored version");
    out
}

/// Episodes a wall-clock or CPU figure is averaged over.
///
/// Every episode does the same kind of work on a fresh deployment, and
/// a busy neighbour on a shared host only ever slows one down. On a
/// 2-vCPU VM whose host changed speed for seconds at a time, the median
/// episode of eight 20 s `hot-lan-durable` runs ranged from 43k to 57k
/// txn/s, an interquartile spread of 0.25 of the median; the mean of the
/// three fastest spread by 0.06. On `ycsb-wan` episodes differ by seed
/// too: one that committed 11% fewer transactions than its run's others
/// cost less than half as much CPU per commit, so the single fastest
/// episode is often a lucky seed. Over ten 20 s `ycsb-wan` runs, the
/// fastest episode's throughput spread by 0.24, the median's by 0.24
/// and the mean of the three fastest by 0.16.
const BEST_EPISODES: usize = 3;

/// Which way a figure improves.
#[derive(Clone, Copy)]
enum Better {
    Lower,
    Higher,
}

/// Mean of the [`BEST_EPISODES`] best of `xs` (all of them when fewer).
fn best_mean(mut xs: Vec<f64>, better: Better) -> f64 {
    xs.sort_by(f64::total_cmp);
    if let Better::Higher = better {
        xs.reverse();
    }
    let k = xs.len().min(BEST_EPISODES);
    xs[..k].iter().sum::<f64>() / k as f64
}

/// Percentiles the threaded workload's tail metric may report, highest
/// last. p99 of the threaded round trip swings by 2× between runs on a
/// shared 2-vCPU machine, so the tail reported there is p90.
const RT_TAIL: &[f64] = &[0.5, 0.9];

/// Runs untraced/traced episode pairs with the same seed. Threads make
/// the schedule nondeterministic, so there is no pin; the untraced
/// episodes give the tracing overhead.
fn rt_layers(w: &Workload, seed: u64, plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let rec = Arc::new(Recorder::new(plan.span_cap));
    let pairs = episodes(plan, |i| {
        let s = episode_seed(seed, i);
        let plain = rt::episode(w, s, w.episode_txns, w.warmup_txns, None);
        let probed = rt::episode(w, s, w.episode_txns, w.warmup_txns, Some(&rec));
        let window = plain.wall + probed.wall;
        ((plain, probed), window)
    });
    let (mut plain_cpu, mut traced_cpu) = ((0.0, 0u64), (0.0, 0u64));
    for (plain, probed) in &pairs {
        plain_cpu = (plain_cpu.0 + secs(plain.cpu), plain_cpu.1 + plain.committed);
        traced_cpu = (
            traced_cpu.0 + secs(probed.cpu),
            traced_cpu.1 + probed.committed,
        );
        out.gate.absorb(plain.gate.clone());
        out.gate.absorb(probed.gate.clone());
    }
    let traced: Vec<&RtEpisode> = pairs.iter().map(|(_, probed)| probed).collect();
    let mut input = LayerInput {
        totals: rec.totals(),
        overhead: ratio(traced_cpu.0, traced_cpu.1 as f64) / ratio(plain_cpu.0, plain_cpu.1 as f64)
            - 1.0,
        episodes: traced.len() as u64,
        quiesce_rounds: traced.len() as u64,
        value_size: w.ycsb.value_size as u64,
        ..LayerInput::default()
    };
    let mut times = OpTimes::default();
    let mut hook_overlap = 0u64;
    for e in traced.iter().copied() {
        input.wall_ns += e.wall.as_nanos() as u64;
        input.commits += e.committed;
        input.metrics.merge(&e.metrics);
        input.stats.merge(&e.stats);
        input.user_bytes += e.user_bytes;
        input.stored.0 += e.versions.0;
        input.stored.1 += e.versions.1;
        input.instrumentation.0 += e.instrumentation_events.0;
        input.instrumentation.1 += e.instrumentation_events.1;
        hook_overlap += e.hook_ns_in_txns;
        times.get.extend(&e.times.get);
        times.put.extend(&e.times.put);
        times.commit.extend(&e.times.commit);
        out.attempted += e.committed + e.failed;
        out.failed += e.failed;
    }
    // Client and server counters cover the warm-up too, so their ratios
    // use the client's own commit count; span counts use the window's.
    // Only the benchmark's thread has a single timeline: the window is
    // the workload draws, the transactions, and the loop between them.
    // Engine hooks run on server threads; the part of them that
    // overlapped a transaction is charged to protocol/storage and the
    // rest of the transaction to the runtime.
    let total = |name: Name| input.totals.get(&name).map(|t| t.total_ns).unwrap_or(0);
    let txn_ns = total(("runtime", "txn"));
    let workload_ns = total(("workload", "next_txn"));
    let hooks = self_ns_by_layer(&input.totals);
    let (p_self, s_self) = (
        *hooks.get("protocol").unwrap_or(&0),
        *hooks.get("storage").unwrap_or(&0),
    );
    let overlap = hook_overlap.min(txn_ns);
    let storage_in = (overlap as f64 * ratio(s_self as f64, (p_self + s_self) as f64)) as u64;
    input.self_ns = BTreeMap::from([
        ("workload", workload_ns),
        ("runtime", txn_ns - overlap),
        ("protocol", overlap - storage_in),
        ("storage", storage_in),
    ]);
    let ops = (times.get.len() + times.put.len() + times.commit.len()) as u64;
    input.runtime = Some(RuntimeInput {
        get: sorted(&times.get),
        put: sorted(&times.put),
        commit: sorted(&times.commit),
        self_us_per_op: ratio((txn_ns - overlap) as f64 / 1000.0, ops as f64),
        ops,
    });
    layer_metrics(&mut out.metrics, &input);
    write_spans(&rec, w, seed, &mut out);
    out
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Client messages with per-label timings (the labels that occur on the
/// benchmark's workloads).
pub const CLIENT_MSGS: [&str; 3] = ["GetResp", "PutResp", "CommitBatchResp"];
/// Server messages with per-label timings.
pub const SERVER_MSGS: [&str; 5] = ["Get", "Put", "CommitBatch", "Notify", "NotifySummary"];
/// Engine hooks with per-hook timings.
pub const HOOKS: [&str; 7] = [
    "read",
    "read_version",
    "apply_client_write",
    "apply_replicated_write",
    "on_commit_mark",
    "on_notify",
    "on_anti_entropy_tick",
];
/// Store calls with per-call timings.
pub const STORE_OPS: [&str; 5] = ["put", "latest", "get_at", "exact", "latest_at_or_above"];
/// Layers, in report order; their `self_frac` plus
/// `trace.unattributed_frac` sum to 1.
pub const LAYERS: [&str; 8] = [
    "workload",
    "client",
    "server",
    "protocol",
    "replication",
    "storage",
    "sim",
    "runtime",
];

#[derive(Debug, Clone, Default)]
struct RuntimeInput {
    get: Vec<f64>,
    put: Vec<f64>,
    commit: Vec<f64>,
    self_us_per_op: f64,
    ops: u64,
}

#[derive(Debug, Clone, Default)]
struct LayerInput {
    totals: BTreeMap<Name, NameTotals>,
    /// Commits in the traced windows (the base of span-count ratios).
    commits: u64,
    self_ns: BTreeMap<&'static str, u64>,
    wall_ns: u64,
    overhead: f64,
    metrics: ClientMetrics,
    stats: ServerStats,
    user_bytes: u64,
    value_size: u64,
    wal_bytes: u64,
    replay_s: f64,
    stored: (u64, u64),
    instrumentation: (u64, u64),
    episodes: u64,
    quiesce_rounds: u64,
    runtime: Option<RuntimeInput>,
}

impl LayerInput {
    fn get(&self, layer: &'static str, call: &'static str) -> NameTotals {
        self.totals.get(&(layer, call)).copied().unwrap_or_default()
    }
}

/// Mean ns per call of one span name.
fn mean_ns(t: NameTotals) -> f64 {
    ratio(t.total_ns as f64, t.calls as f64)
}

fn layer_metrics(m: &mut Metrics, x: &LayerInput) {
    let commits = x.commits as f64;
    let wall = x.wall_ns as f64;
    let attributed: u64 = LAYERS
        .iter()
        .map(|l| x.self_ns.get(l).copied().unwrap_or(0))
        .sum();
    let calls: u64 = x.totals.values().map(|t| t.calls).sum();

    m.add(
        "trace.overhead_frac",
        x.overhead,
        "ratio",
        "traced / untraced CPU per commit - 1".into(),
    );
    m.add(
        "trace.unattributed_frac",
        ratio(wall - attributed as f64, wall),
        "ratio",
        format!("({wall} - {attributed}) / {wall} ns of traced wall"),
    );
    m.add(
        "trace.spans",
        calls as f64,
        "count",
        "spans closed in the traced windows".into(),
    );
    m.add(
        "trace.events_recorded_delta",
        x.instrumentation.0 as f64,
        "count",
        "hat-trace events_recorded_total() during timed windows".into(),
    );
    m.add(
        "obs.recorded_delta",
        x.instrumentation.1 as f64,
        "count",
        "hat-obs obs_recorded_total() during timed windows".into(),
    );
    for layer in LAYERS {
        let ns = x.self_ns.get(layer).copied().unwrap_or(0) as f64;
        m.ratio(format!("{layer}.self_frac"), ns, wall, "ratio");
    }

    let draws = x.get("workload", "next_txn");
    m.ratio(
        "workload.ns_per_txn",
        draws.total_ns as f64,
        draws.calls as f64,
        "ns",
    );

    let self_of = |l: &str| x.self_ns.get(l).copied().unwrap_or(0) as f64;
    m.ratio("client.ns_per_commit", self_of("client"), commits, "ns");
    for label in CLIENT_MSGS {
        m.add(
            format!("client.ns_per_msg.{label}"),
            mean_ns(x.get("client", label)),
            "ns",
            format!("{} calls", x.get("client", label).calls),
        );
    }
    let timer = x.get("client", "timer");
    m.add(
        "client.ns_per_timer",
        mean_ns(timer),
        "ns",
        format!("{} calls", timer.calls),
    );
    let cm = &x.metrics;
    m.ratio(
        "client.msg_rounds_per_commit",
        cm.msg_rounds as f64,
        cm.committed as f64,
        "ratio",
    );
    m.ratio(
        "client.repair_rounds_per_read",
        cm.repair_rounds as f64,
        cm.get_latency_ms.count() as f64,
        "ratio",
    );
    m.ratio(
        "client.retries_per_round",
        cm.retries as f64,
        cm.msg_rounds as f64,
        "ratio",
    );

    m.ratio("server.ns_per_commit", self_of("server"), commits, "ns");
    for label in SERVER_MSGS {
        m.add(
            format!("server.ns_per_msg.{label}"),
            mean_ns(x.get("server", label)),
            "ns",
            format!("{} calls", x.get("server", label).calls),
        );
    }

    for hook in HOOKS {
        let t = x.get("protocol", hook);
        m.add(
            format!("protocol.ns.{hook}"),
            mean_ns(t),
            "ns",
            format!("{} calls, incl. the store calls they make", t.calls),
        );
        m.ratio(
            format!("protocol.calls_per_commit.{hook}"),
            t.calls as f64,
            commits,
            "ratio",
        );
    }

    let tick = x.get("replication", "tick");
    m.add(
        "replication.tick_ns",
        ratio(tick.self_ns as f64, tick.calls as f64),
        "ns",
        format!("self time over {} anti-entropy ticks", tick.calls),
    );
    let apply = x.get("replication", "Replicate");
    m.add(
        "replication.apply_ns",
        mean_ns(apply),
        "ns",
        format!("{} batches", apply.calls),
    );
    let delta = x.get("replication", "ReplicateDelta");
    m.add(
        "replication.delta_apply_ns",
        mean_ns(delta),
        "ns",
        format!("{} batches", delta.calls),
    );
    m.ratio(
        "replication.delta_batches",
        x.stats.catchup_batches as f64,
        x.episodes as f64,
        "count",
    );
    let user_writes = ratio(x.user_bytes as f64, x.value_size as f64);
    m.ratio(
        "replication.records_per_user_write",
        x.stats.replication_records as f64,
        user_writes,
        "ratio",
    );
    m.ratio(
        "replication.bytes_per_user_byte",
        x.stats.replication_bytes as f64,
        x.user_bytes as f64,
        "ratio",
    );
    m.ratio(
        "replication.quiesce_rounds",
        x.quiesce_rounds as f64,
        x.episodes as f64,
        "count",
    );
    let inclusive: u64 = x
        .totals
        .iter()
        .filter(|(n, _)| n.0 == "replication")
        .map(|(_, t)| t.total_ns)
        .sum();
    m.ratio(
        "replication.inclusive_frac",
        inclusive as f64,
        wall,
        "ratio",
    );

    let mut store_calls = 0;
    for op in STORE_OPS {
        let t = x.get("storage", op);
        m.add(
            format!("storage.ns.{op}"),
            mean_ns(t),
            "ns",
            format!("{} calls", t.calls),
        );
    }
    for (n, t) in &x.totals {
        if n.0 == "storage" {
            store_calls += t.calls;
        }
    }
    m.ratio(
        "storage.ops_per_commit",
        store_calls as f64,
        commits,
        "ratio",
    );
    m.ratio(
        "storage.versions_per_key",
        x.stored.0 as f64,
        x.stored.1 as f64,
        "ratio",
    );

    m.ratio(
        "wal.bytes_per_user_byte",
        x.wal_bytes as f64,
        x.user_bytes as f64,
        "ratio",
    );
    m.add(
        "wal.replay_s",
        x.replay_s,
        "s",
        "DurableStore::open of every server in the gate (0: volatile store)".into(),
    );

    let events: u64 = x
        .totals
        .iter()
        .filter(|(n, _)| matches!(n.0, "client" | "server" | "replication"))
        .map(|(_, t)| t.calls)
        .sum();
    m.ratio("sim.events_per_commit", events as f64, commits, "ratio");
    m.ratio("sim.ns_per_event", self_of("sim"), events as f64, "ns");

    let rt = x.runtime.clone().unwrap_or_default();
    for (op, xs) in [("get", &rt.get), ("put", &rt.put), ("commit", &rt.commit)] {
        let (v, basis) = if xs.is_empty() {
            (0.0, "no samples".to_string())
        } else {
            let p = pctl(xs, 0.5);
            (p.value, pctl_basis(&p))
        };
        m.add(format!("runtime.op_us.{op}"), v, "us", basis);
        m.add(
            format!("runtime.op_n.{op}"),
            xs.len() as f64,
            "count",
            "samples".into(),
        );
    }
    m.add(
        "runtime.self_us_per_op",
        rt.self_us_per_op,
        "us",
        format!(
            "round trips minus overlapping engine hooks, over {} ops",
            rt.ops
        ),
    );
}
