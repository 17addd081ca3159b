//! The correctness gate: checks run after every measured window. A run
//! whose gate fails reports `"correct": false` and exits nonzero.

use hat_core::{ClusterLayout, ProtocolKind, Timestamp, TxnRecord};
use hat_history::Phenomenon;
use hat_sim::NodeId;
use hat_storage::{DurableStore, Key, SharedRecord, Store, SyncPolicy};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// One check's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// What was compared, or what broke.
    pub detail: String,
}

/// Outcomes of the checks run so far.
#[derive(Debug, Clone, Default)]
pub struct Gate {
    /// Every check, in the order run.
    pub checks: Vec<Check>,
    /// Time `DurableStore::open` took to replay every server's WAL.
    pub replay: Option<Duration>,
}

impl Gate {
    fn push(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    /// True when every check held.
    pub fn ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Folds another gate's checks into this one.
    pub fn absorb(&mut self, other: Gate) {
        self.checks.extend(other.checks);
        if other.replay.is_some() {
            self.replay = other.replay;
        }
    }

    /// The first failed check, if any.
    pub fn first_failure(&self) -> Option<&Check> {
        self.checks.iter().find(|c| !c.ok)
    }

    /// The traced episode reproduced the untraced one exactly.
    pub fn pinned(&mut self, ok: bool, detail: String) {
        self.push("determinism_pin", ok, detail);
    }

    /// hat-trace and hat-obs recorded nothing during the timed window.
    pub fn instrumentation_silent(&mut self, (trace, obs): (u64, u64)) {
        self.push(
            "instrumentation_silent",
            trace == 0 && obs == 0,
            format!("events_recorded_total +{trace}, obs_recorded_total +{obs}"),
        );
    }

    /// No RAMP read gave up its fracture repair.
    pub fn no_unrepaired_reads(&mut self, n: u64) {
        self.push("unrepaired_reads", n == 0, format!("{n} unrepaired reads"));
    }

    /// No MAV read missed its `required` bound.
    pub fn no_required_misses(&mut self, n: u64) {
        self.push(
            "mav_required_misses",
            n == 0,
            format!("{n} required misses"),
        );
    }

    /// Replicas of every key agree on its latest stamp after `rounds`
    /// quiesce durations.
    pub fn converged(&mut self, result: Result<usize, String>, rounds: u32) {
        match result {
            Ok(keys) => self.push(
                "replicas_converged",
                true,
                format!("{keys} keys agree after {rounds} quiesce round(s)"),
            ),
            Err(e) => self.push(
                "replicas_converged",
                false,
                format!("{e} after {rounds} quiesce round(s)"),
            ),
        }
    }

    /// Reopened durable stores hold exactly what the live ones held.
    pub fn recovered(&mut self, result: Result<(usize, Duration), String>) {
        match result {
            Ok((versions, replay)) => {
                self.replay = Some(replay);
                self.push(
                    "wal_recovery_exact",
                    true,
                    format!("{versions} versions recovered"),
                )
            }
            Err(e) => self.push("wal_recovery_exact", false, e),
        }
    }

    /// A history recorded under the workload's own session options
    /// holds the engine's advertised isolation level (the level
    /// `hat_nemesis::advertised_level` names).
    pub fn history(&mut self, protocol: ProtocolKind, records: Vec<TxnRecord>) {
        let committed = records.iter().filter(|r| r.committed()).count();
        let (n, detail) = check_history(protocol, records);
        self.push(
            "history_at_advertised_level",
            n == 0 && committed > 0,
            detail,
        );
    }
}

/// Checks `records` at `protocol`'s advertised level: violation count
/// and a one-line summary.
///
/// hat-history's OTV check counts a transaction's read of its own
/// buffered write as observing itself, so a later read of a key the
/// same transaction writes afterwards is flagged. OTV (Definition 26)
/// is about *another* transaction vanishing; those self-observations
/// (both transactions of the violation equal) are not counted, and the
/// summary says how many were dropped.
fn check_history(protocol: ProtocolKind, records: Vec<TxnRecord>) -> (usize, String) {
    let level = hat_nemesis::advertised_level(protocol);
    let report = hat_history::check(records, level);
    let (own, real): (Vec<_>, Vec<_>) = report.violations.iter().partition(|v| {
        v.phenomenon == Phenomenon::Otv && v.txns.len() == 2 && v.txns[0] == v.txns[1]
    });
    let detail = format!(
        "{level:?}: {} txns checked, {} violations ({} OTV self-observations not counted){}",
        report.txns_checked,
        real.len(),
        own.len(),
        real.first()
            .map(|v| format!(", first: {v}"))
            .unwrap_or_default()
    );
    (real.len(), detail)
}

/// Latest stamp per key in `store`.
pub fn latest_stamps(store: &dyn Store) -> BTreeMap<Key, Timestamp> {
    let mut out: BTreeMap<Key, Timestamp> = BTreeMap::new();
    for (key, rec) in store.all_versions() {
        let e = out.entry(key).or_insert(rec.stamp);
        if rec.stamp > *e {
            *e = rec.stamp;
        }
    }
    out
}

/// Checks that every key's replicas (one per cluster, placed by
/// `layout`) hold the same latest stamp. Returns the number of keys
/// compared, or the first disagreement.
pub fn compare_replicas(
    layout: &ClusterLayout,
    replicas: &[(NodeId, BTreeMap<Key, Timestamp>)],
) -> Result<usize, String> {
    let by_node: BTreeMap<NodeId, &BTreeMap<Key, Timestamp>> =
        replicas.iter().map(|(n, m)| (*n, m)).collect();
    let mut keys: Vec<&Key> = replicas.iter().flat_map(|(_, m)| m.keys()).collect();
    keys.sort();
    keys.dedup();
    for key in &keys {
        let stamps: Vec<(NodeId, Option<Timestamp>)> = layout
            .replicas(key)
            .into_iter()
            .map(|n| (n, by_node.get(&n).and_then(|m| m.get(*key)).copied()))
            .collect();
        if stamps.windows(2).any(|w| w[0].1 != w[1].1) {
            return Err(format!(
                "key {} diverged across replicas: {stamps:?}",
                String::from_utf8_lossy(key)
            ));
        }
    }
    Ok(keys.len())
}

/// Reopens each server's durable store under `dir` (the deployment must
/// have been dropped) and compares every recovered version with what
/// the live store held. Returns the versions compared and the total
/// replay time.
pub fn recover_and_compare(
    dir: &Path,
    live: &[(NodeId, Vec<(Key, SharedRecord)>)],
) -> Result<(usize, Duration), String> {
    let mut replay = Duration::ZERO;
    let mut versions = 0;
    for (id, expected) in live {
        let t0 = Instant::now();
        let store = DurableStore::open(dir.join(format!("server-{id}")), SyncPolicy::Never)
            .map_err(|e| format!("server {id}: reopen failed: {e}"))?;
        replay += t0.elapsed();
        compare_versions(*id, expected, &store.all_versions())?;
        versions += expected.len();
    }
    Ok((versions, replay))
}

/// Compares two version lists (key order) exactly: key, stamp and value.
pub fn compare_versions(
    id: NodeId,
    expected: &[(Key, SharedRecord)],
    got: &[(Key, SharedRecord)],
) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "server {id}: {} versions live, {} recovered",
            expected.len(),
            got.len()
        ));
    }
    for ((ek, er), (gk, gr)) in expected.iter().zip(got) {
        if ek != gk || er.stamp != gr.stamp || er.value != gr.value {
            return Err(format!(
                "server {id}: key {} live {:?} recovered {} {:?}",
                String::from_utf8_lossy(ek),
                er.stamp,
                String::from_utf8_lossy(gk),
                gr.stamp
            ));
        }
    }
    Ok(())
}
