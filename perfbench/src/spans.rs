//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: its `(layer, detail)` name,
//! start and end (ns since the recorder's epoch), the span that was open
//! on the same thread when it began (its parent), and the transaction
//! stamp it works for (inherited from the parent when the call itself
//! carries none), so every span of one transaction shares an id.
//!
//! Self time is a span's duration minus the time its children cover.
//! Per-name totals are folded online; the spans themselves are kept in
//! memory (up to a cap) and written out once the run has ended.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A span name: the layer it belongs to and what was called.
pub type Name = (&'static str, &'static str);

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// 1-based span id (0 is "no span").
    pub id: u32,
    /// Id of the enclosing span on the same thread (0 for a root).
    pub parent: u32,
    /// Layer and call.
    pub name: Name,
    /// Start, ns since the recorder epoch.
    pub start_ns: u64,
    /// End, ns since the recorder epoch.
    pub end_ns: u64,
    /// Transaction stamp `(seq << 32) ^ writer` the span works for, 0
    /// when it serves no single transaction (timers, gossip).
    pub txn: u64,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans closed.
    pub calls: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus children), ns.
    pub self_ns: u64,
}

struct Open {
    id: u32,
    parent: u32,
    name: Name,
    start_ns: u64,
    child_ns: u64,
    txn: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    dropped: u64,
    totals: BTreeMap<Name, NameTotals>,
}

/// Records spans from any thread. Open/close pairs nest per thread.
pub struct Recorder {
    epoch: Instant,
    cap: usize,
    enabled: AtomicBool,
    next_id: AtomicU32,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Recorder")
    }
}

/// Token returned by [`Recorder::open`]; pass it back to close.
#[must_use]
pub struct Token(u32);

impl Recorder {
    /// A recorder keeping at most `cap` spans in memory (totals keep
    /// counting past the cap).
    pub fn new(cap: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            cap,
            enabled: AtomicBool::new(true),
            next_id: AtomicU32::new(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts or stops recording. Spans opened while stopped are not
    /// recorded; spans already open still close normally.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Opens a span named `name` for transaction `txn` (0 = inherit).
    pub fn open(&self, name: Name, txn: u64) -> Token {
        if !self.enabled.load(Ordering::Relaxed) {
            return Token(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            let (parent, txn) = match s.last() {
                Some(p) => (p.id, if txn == 0 { p.txn } else { txn }),
                None => (0, txn),
            };
            s.push(Open {
                id,
                parent,
                name,
                start_ns,
                child_ns: 0,
                txn,
            });
        });
        Token(id)
    }

    /// Closes the innermost open span on this thread, returning its
    /// duration in ns.
    pub fn close(&self, token: Token) -> u64 {
        if token.0 == 0 {
            return 0;
        }
        let end_ns = self.now_ns();
        let open = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let open = s.pop().expect("close without open");
            assert_eq!(open.id, token.0, "spans must nest");
            if let Some(parent) = s.last_mut() {
                parent.child_ns += end_ns - open.start_ns;
            }
            open
        });
        let dur = end_ns - open.start_ns;
        let mut inner = self.inner.lock().unwrap();
        let t = inner.totals.entry(open.name).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if inner.spans.len() < self.cap {
            inner.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                txn: open.txn,
            });
        } else {
            inner.dropped += 1;
        }
        dur
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&self, name: Name, txn: u64, f: impl FnOnce() -> R) -> R {
        let t = self.open(name, txn);
        let out = f();
        self.close(t);
        out
    }

    /// Per-name totals so far.
    pub fn totals(&self) -> BTreeMap<Name, NameTotals> {
        self.inner.lock().unwrap().totals.clone()
    }

    /// Summed duration of every span of `layer`, ns.
    pub fn layer_total_ns(&self, layer: &str) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner
            .totals
            .iter()
            .filter(|(n, _)| n.0 == layer)
            .map(|(_, t)| t.total_ns)
            .sum()
    }

    /// Spans kept, and how many were not kept because of the cap.
    pub fn span_counts(&self) -> (usize, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.spans.len(), inner.dropped)
    }

    /// Writes the kept spans as tab-separated lines
    /// (`id parent layer.call start_ns end_ns txn`).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let inner = self.inner.lock().unwrap();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\ttxn")?;
        for s in &inner.spans {
            writeln!(
                out,
                "{}\t{}\t{}.{}\t{}\t{}\t{:x}",
                s.id, s.parent, s.name.0, s.name.1, s.start_ns, s.end_ns, s.txn
            )?;
        }
        out.flush()
    }
}

/// Sums self time per layer (the first half of each span name).
pub fn self_ns_by_layer(totals: &BTreeMap<Name, NameTotals>) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (name, t) in totals {
        *out.entry(name.0).or_insert(0) += t.self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_root() {
        let rec = Recorder::new(16);
        let root = rec.open(("sim", "run"), 0);
        let a = rec.open(("server", "Get"), 7);
        let b = rec.open(("protocol", "read"), 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.close(b);
        rec.close(a);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let wall = rec.close(root);
        let totals = rec.totals();
        let layers = self_ns_by_layer(&totals);
        let sum: u64 = layers.values().sum();
        assert_eq!(sum, wall, "self times telescope to the root duration");
        assert!(layers["protocol"] >= 2_000_000);
        let inner = rec.inner.lock().unwrap();
        let read = inner.spans.iter().find(|s| s.name.1 == "read").unwrap();
        assert_eq!(read.txn, 7, "txn id is inherited from the parent");
        assert_eq!(read.parent, 2);
    }
}
