//! Timing wrappers around each layer's public surface. Nothing here
//! changes what a layer does: every wrapper forwards the call unchanged
//! and records a span around it when it holds a [`Recorder`].
//!
//! * [`Probe`] — a `hat_sim::Actor` around `hat_core::Node`: the
//!   `client`, `server`, `replication` and (by subtraction) `sim` layers.
//! * [`TimedEngine`] — a `ProtocolEngine` decorator around
//!   `engine_for(kind)`, handing the inner engine a [`TimedStore`] in its
//!   `ServerView`: the `protocol` and `storage` layers.
//! * [`Source`] — a `TxnSource` wrapper: the `workload` layer. It also
//!   counts the value bytes clients write and lets the benchmark stop
//!   the closed loop before it quiesces the deployment.

use crate::spans::{Name, Recorder};
use hat_core::client::TxnSource;
use hat_core::protocol::twopl::Grant;
use hat_core::protocol::{ProtocolEngine, ServerView, VersionAnswer};
use hat_core::{Msg, Node, Op, ServiceModel, Timestamp, TxnSpec, VersionReq};
use hat_sim::{Actor, Ctx, NodeId, SimDuration, TimerId};
use hat_storage::{Key, Record, SharedRecord, Store, VersionStamp};
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Packs a transaction stamp into a span's txn id.
pub fn txn_id(ts: Timestamp) -> u64 {
    (ts.seq << 32) ^ ts.writer as u64
}

/// The transaction stamp a message carries, if it serves one.
pub fn msg_txn(msg: &Msg) -> Option<Timestamp> {
    match msg {
        Msg::Get { txn, .. }
        | Msg::Scan { txn, .. }
        | Msg::Put { txn, .. }
        | Msg::GetTs { txn, .. }
        | Msg::GetVersion { txn, .. }
        | Msg::Commit { txn, .. }
        | Msg::CommitBatch { txn, .. }
        | Msg::Lock { txn, .. }
        | Msg::Unlock { txn, .. }
        | Msg::LockCheck { txn, .. }
        | Msg::GetResp { txn, .. }
        | Msg::ScanResp { txn, .. }
        | Msg::GetTsResp { txn, .. }
        | Msg::GetVersionResp { txn, .. }
        | Msg::PutResp { txn, .. }
        | Msg::CommitBatchResp { txn, .. }
        | Msg::LockResp { txn, .. }
        | Msg::LockCheckResp { txn, .. } => Some(*txn),
        Msg::Notify { ts, .. } | Msg::NotifySummary { ts, .. } => Some(*ts),
        _ => None,
    }
}

/// Server-side messages that belong to the replication layer
/// (anti-entropy gossip and its acknowledgements).
pub fn is_replication(label: &str) -> bool {
    matches!(label, "Replicate" | "ReplicateDelta" | "ReplicateAck")
}

/// Access to the [`Node`] inside an actor, so the same episode code runs
/// over bare nodes (untraced) and [`Probe`]s (traced).
pub trait Hosted: Actor<Msg = Msg> {
    /// The node.
    fn node(&self) -> &Node;
    /// The node, mutably.
    fn node_mut(&mut self) -> &mut Node;
}

impl Hosted for Node {
    fn node(&self) -> &Node {
        self
    }
    fn node_mut(&mut self) -> &mut Node {
        self
    }
}

/// A node whose callbacks are timed.
pub struct Probe {
    node: Node,
    rec: Arc<Recorder>,
}

impl Probe {
    /// Wraps `node`.
    pub fn new(node: Node, rec: Arc<Recorder>) -> Self {
        Probe { node, rec }
    }

    fn layer(&self) -> &'static str {
        match self.node {
            Node::Server(_) => "server",
            Node::Client(_) => "client",
        }
    }
}

impl Hosted for Probe {
    fn node(&self) -> &Node {
        &self.node
    }
    fn node_mut(&mut self) -> &mut Node {
        &mut self.node
    }
}

impl Actor for Probe {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let t = self.rec.open((self.layer(), "start"), 0);
        self.node.on_start(ctx);
        self.rec.close(t);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        let label = msg.label();
        let layer = match self.layer() {
            "server" if is_replication(label) => "replication",
            l => l,
        };
        let txn = msg_txn(&msg).map(txn_id).unwrap_or(0);
        let t = self.rec.open((layer, label), txn);
        self.node.on_message(ctx, from, msg);
        self.rec.close(t);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, timer: TimerId) {
        // A server's only periodic timer is the anti-entropy tick.
        let name: Name = match self.node {
            Node::Server(_) => ("replication", "tick"),
            Node::Client(_) => ("client", "timer"),
        };
        let t = self.rec.open(name, 0);
        self.node.on_timer(ctx, timer);
        self.rec.close(t);
    }
}

/// A [`Store`] whose reads and writes are timed as `storage` spans.
pub struct TimedStore<'a> {
    inner: &'a mut dyn Store,
    rec: &'a Recorder,
}

impl TimedStore<'_> {
    fn time<R>(&self, call: &'static str, f: impl FnOnce() -> R) -> R {
        self.rec.time(("storage", call), 0, f)
    }
}

impl Store for TimedStore<'_> {
    fn put(&mut self, key: Key, record: SharedRecord) -> hat_storage::error::Result<bool> {
        let t = self.rec.open(("storage", "put"), 0);
        let out = self.inner.put(key, record);
        self.rec.close(t);
        out
    }
    fn latest(&self, key: &[u8]) -> Option<SharedRecord> {
        self.time("latest", || self.inner.latest(key))
    }
    fn latest_at_or_below(&self, key: &[u8], bound: VersionStamp) -> Option<SharedRecord> {
        self.time("latest_at_or_below", || {
            self.inner.latest_at_or_below(key, bound)
        })
    }
    fn latest_at_or_above(&self, key: &[u8], bound: VersionStamp) -> Option<SharedRecord> {
        self.time("latest_at_or_above", || {
            self.inner.latest_at_or_above(key, bound)
        })
    }
    fn exact(&self, key: &[u8], stamp: VersionStamp) -> Option<SharedRecord> {
        self.time("exact", || self.inner.exact(key, stamp))
    }
    fn get_at(&self, key: &[u8], stamp: VersionStamp) -> Option<SharedRecord> {
        self.time("get_at", || self.inner.get_at(key, stamp))
    }
    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Key, SharedRecord)> {
        self.time("scan", || self.inner.scan_prefix(prefix))
    }
    fn scan_prefix_at_or_below(
        &self,
        prefix: &[u8],
        bound: VersionStamp,
    ) -> Vec<(Key, SharedRecord)> {
        self.time("scan", || self.inner.scan_prefix_at_or_below(prefix, bound))
    }
    fn gc_below(&mut self, bound: VersionStamp) -> usize {
        let t = self.rec.open(("storage", "gc"), 0);
        let out = self.inner.gc_below(bound);
        self.rec.close(t);
        out
    }
    fn key_count(&self) -> usize {
        self.inner.key_count()
    }
    fn version_count(&self) -> usize {
        self.inner.version_count()
    }
    fn sync(&mut self) -> hat_storage::error::Result<()> {
        let t = self.rec.open(("storage", "sync"), 0);
        let out = self.inner.sync();
        self.rec.close(t);
        out
    }
    fn all_versions(&self) -> Vec<(Key, SharedRecord)> {
        self.inner.all_versions()
    }
    fn recovered_records(&self) -> u64 {
        self.inner.recovered_records()
    }
    fn wal_bytes(&self) -> u64 {
        self.inner.wal_bytes()
    }
}

/// A [`ProtocolEngine`] whose hooks are timed as `protocol` spans, with
/// the store they see swapped for a [`TimedStore`].
#[derive(Debug)]
pub struct TimedEngine {
    inner: Box<dyn ProtocolEngine>,
    rec: Arc<Recorder>,
}

impl TimedEngine {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn ProtocolEngine>, rec: Arc<Recorder>) -> Self {
        TimedEngine { inner, rec }
    }

    /// Runs `hook` inside a `protocol.<call>` span, over a view whose
    /// store is timed.
    fn hook<R>(
        &mut self,
        call: &'static str,
        txn: u64,
        view: &mut ServerView<'_>,
        hook: impl FnOnce(&mut dyn ProtocolEngine, &mut ServerView<'_>) -> R,
    ) -> R {
        let rec = Arc::clone(&self.rec);
        let t = rec.open(("protocol", call), txn);
        let mut store = TimedStore {
            inner: &mut *view.store,
            rec: &rec,
        };
        let mut timed = ServerView {
            store: &mut store,
            repl: &mut *view.repl,
            layout: view.layout,
            config: view.config,
            cluster: view.cluster,
        };
        let out = hook(self.inner.as_mut(), &mut timed);
        rec.close(t);
        out
    }
}

impl ProtocolEngine for TimedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn read(
        &mut self,
        view: &mut ServerView<'_>,
        key: &Key,
        required: Timestamp,
    ) -> Option<SharedRecord> {
        self.hook("read", 0, view, |e, v| e.read(v, key, required))
    }

    fn write_cost(&self, service: &ServiceModel, record: &Record) -> SimDuration {
        self.inner.write_cost(service, record)
    }

    fn read_ts(&mut self, view: &mut ServerView<'_>, key: &Key) -> Timestamp {
        self.hook("read_ts", 0, view, |e, v| e.read_ts(v, key))
    }

    fn read_version(
        &mut self,
        view: &mut ServerView<'_>,
        from: NodeId,
        txn: Timestamp,
        op: u32,
        key: &Key,
        req: &VersionReq,
    ) -> VersionAnswer {
        self.hook("read_version", txn_id(txn), view, |e, v| {
            e.read_version(v, from, txn, op, key, req)
        })
    }

    fn on_commit_mark(
        &mut self,
        view: &mut ServerView<'_>,
        ctx: &mut Ctx<'_, Msg>,
        key: Key,
        ts: Timestamp,
    ) {
        self.hook("on_commit_mark", txn_id(ts), view, |e, v| {
            e.on_commit_mark(v, ctx, key, ts)
        })
    }

    fn apply_client_write(
        &mut self,
        view: &mut ServerView<'_>,
        ctx: &mut Ctx<'_, Msg>,
        key: Key,
        record: SharedRecord,
    ) {
        let txn = txn_id(record.stamp);
        self.hook("apply_client_write", txn, view, |e, v| {
            e.apply_client_write(v, ctx, key, record)
        })
    }

    fn apply_replicated_write(
        &mut self,
        view: &mut ServerView<'_>,
        ctx: &mut Ctx<'_, Msg>,
        key: Key,
        record: SharedRecord,
    ) {
        self.hook("apply_replicated_write", 0, view, |e, v| {
            e.apply_replicated_write(v, ctx, key, record)
        })
    }

    fn on_notify(
        &mut self,
        view: &mut ServerView<'_>,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        ts: Timestamp,
        key: Key,
    ) {
        self.hook("on_notify", txn_id(ts), view, |e, v| {
            e.on_notify(v, ctx, from, ts, key)
        })
    }

    fn write_admissible(&self, txn: Timestamp, key: &Key) -> bool {
        self.inner.write_admissible(txn, key)
    }

    fn lock_valid(&self, txn: Timestamp, key: &Key) -> bool {
        self.inner.lock_valid(txn, key)
    }

    fn on_notify_summary(
        &mut self,
        view: &mut ServerView<'_>,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        ts: Timestamp,
        acks: Vec<(NodeId, Key)>,
    ) {
        self.hook("on_notify_summary", txn_id(ts), view, |e, v| {
            e.on_notify_summary(v, ctx, from, ts, acks)
        })
    }

    fn on_lock(
        &mut self,
        view: &mut ServerView<'_>,
        client: NodeId,
        txn: Timestamp,
        op: u32,
        key: Key,
        exclusive: bool,
    ) -> Vec<Grant> {
        self.hook("on_lock", txn_id(txn), view, |e, v| {
            e.on_lock(v, client, txn, op, key, exclusive)
        })
    }

    fn on_unlock(
        &mut self,
        view: &mut ServerView<'_>,
        txn: Timestamp,
        keys: Vec<Key>,
    ) -> Vec<Grant> {
        self.hook("on_unlock", txn_id(txn), view, |e, v| {
            e.on_unlock(v, txn, keys)
        })
    }

    fn on_anti_entropy_tick(&mut self, view: &mut ServerView<'_>, ctx: &mut Ctx<'_, Msg>) {
        self.hook("on_anti_entropy_tick", 0, view, |e, v| {
            e.on_anti_entropy_tick(v, ctx)
        })
    }

    fn required_misses(&self) -> u64 {
        self.inner.required_misses()
    }
}

/// Closed-loop transaction source: the YCSB generator, with a stop
/// switch, a count of value bytes written, and (traced) a `workload`
/// span around each draw.
pub struct Source {
    inner: hat_workloads::YcsbSource,
    stop: Arc<AtomicBool>,
    user_bytes: Arc<AtomicU64>,
    rec: Option<Arc<Recorder>>,
}

impl Source {
    /// Wraps `inner`; `stop` ends the loop, `user_bytes` accumulates
    /// the value bytes of every write handed out.
    pub fn new(
        inner: hat_workloads::YcsbSource,
        stop: Arc<AtomicBool>,
        user_bytes: Arc<AtomicU64>,
        rec: Option<Arc<Recorder>>,
    ) -> Self {
        Source {
            inner,
            stop,
            user_bytes,
            rec,
        }
    }
}

/// Value bytes written by a transaction plan.
pub fn write_bytes(spec: &TxnSpec) -> u64 {
    spec.ops
        .iter()
        .map(|op| match op {
            Op::Write(_, v) => v.len() as u64,
            _ => 0,
        })
        .sum()
}

impl TxnSource for Source {
    fn next_txn(&mut self, rng: &mut StdRng) -> Option<TxnSpec> {
        if self.stop.load(Ordering::Relaxed) {
            return None;
        }
        let spec = match &self.rec {
            Some(rec) => rec.time(("workload", "next_txn"), 0, || self.inner.next_txn(rng)),
            None => self.inner.next_txn(rng),
        }?;
        self.user_bytes
            .fetch_add(write_bytes(&spec), Ordering::Relaxed);
        Some(spec)
    }
}
