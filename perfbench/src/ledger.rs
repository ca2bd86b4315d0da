//! In-memory span store of the traced run: spans with parents, self
//! time (duration minus children), per-name reduction, and Chrome trace
//! export.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Ledger`].
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Grouping tag (stream class for per-stream calls, layer otherwise).
    pub cat: &'static str,
    /// Lane the span ran on (0 = driver thread).
    pub tid: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub parent: Option<SpanId>,
    /// Summed duration of the span's children, including children that
    /// were aggregated without being stored (per-kernel spans past the
    /// export window).
    pub child_ns: u64,
    /// Threads the span's children may run on: 1 for sequential calls,
    /// the pool width for `run_dag`, whose children (kernels) run on
    /// every worker at once.
    pub width: u32,
}

impl Span {
    /// Duration times width, minus the children. For a sequential span
    /// this is the plain self time; for `run_dag` it is the pool's
    /// dispatch overhead in worker-time.
    #[must_use]
    pub fn self_ns(&self) -> i128 {
        i128::from(self.dur_ns) * i128::from(self.width) - i128::from(self.child_ns)
    }
}

/// Spans of one traced pass, relative to a common epoch.
pub struct Ledger {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Ledger {
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Ledger {
            epoch,
            spans: Vec::new(),
        }
    }

    #[must_use]
    pub fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Ledger::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        cat: &'static str,
        parent: Option<SpanId>,
    ) -> SpanId {
        let start_ns = self.ns_since_epoch(Instant::now());
        self.spans.push(Span {
            name,
            cat,
            tid: 0,
            start_ns,
            dur_ns: 0,
            parent,
            child_ns: 0,
            width: 1,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now and charges its duration to its parent.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end = self.ns_since_epoch(Instant::now());
        let span = &mut self.spans[id];
        span.dur_ns = end.saturating_sub(span.start_ns);
        let (dur, parent) = (span.dur_ns, span.parent);
        if let Some(p) = parent {
            self.spans[p].child_ns += dur;
        }
        dur
    }

    /// Records an already-measured child span (a kernel timed on a pool
    /// worker) and charges it to its parent.
    pub fn push_child(&mut self, span: Span) {
        if let Some(p) = span.parent {
            self.spans[p].child_ns += span.dur_ns;
        }
        self.spans.push(span);
    }

    /// Charges child time to `parent` without storing the child span.
    pub fn charge(&mut self, parent: SpanId, ns: u64) {
        self.spans[parent].child_ns += ns;
    }

    /// Per `(name, cat)`: call count, summed duration, summed self time.
    #[must_use]
    pub fn reduce(&self) -> BTreeMap<(&'static str, &'static str), Reduced> {
        let mut out: BTreeMap<(&'static str, &'static str), Reduced> = BTreeMap::new();
        for s in &self.spans {
            let r = out.entry((s.name, s.cat)).or_default();
            r.calls += 1;
            r.total_ns += u128::from(s.dur_ns);
            r.self_ns += s.self_ns();
        }
        out
    }

    /// Appends the spans as Chrome trace events under process `pid`.
    pub fn chrome_events(&self, pid: u32, out: &mut Vec<String>) {
        for s in &self.spans {
            out.push(chrome_event(
                s.name, s.cat, pid, s.tid, s.start_ns, s.dur_ns,
            ));
        }
    }
}

/// Aggregate of all spans with one `(name, cat)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reduced {
    pub calls: u64,
    pub total_ns: u128,
    pub self_ns: i128,
}

/// One complete (`"ph": "X"`) Chrome trace event.
#[must_use]
pub fn chrome_event(
    name: &str,
    cat: &str,
    pid: u32,
    tid: u32,
    start_ns: u64,
    dur_ns: u64,
) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3}}}",
        start_ns as f64 / 1e3,
        dur_ns as f64 / 1e3
    );
    s
}

/// A Chrome trace JSON document from pre-rendered events.
#[must_use]
pub fn chrome_trace(events: &[String]) -> String {
    let mut s = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    s.push_str(&events.join(",\n"));
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut l = Ledger::new(Instant::now());
        let root = l.open("tick", "serve", None);
        let child = l.open("commit", "x", Some(root));
        l.close(child);
        l.close(root);
        let tick = l.spans[root];
        assert_eq!(tick.child_ns, l.spans[child].dur_ns);
        assert_eq!(tick.self_ns(), i128::from(tick.dur_ns - tick.child_ns));
        let r = l.reduce();
        assert_eq!(r[&("tick", "serve")].calls, 1);
    }

    #[test]
    fn wide_spans_count_worker_time() {
        let mut l = Ledger::new(Instant::now());
        let id = l.open("run_dag", "pool", None);
        l.close(id);
        l.spans[id].dur_ns = 100;
        l.spans[id].width = 2;
        l.charge(id, 150);
        assert_eq!(l.spans[id].self_ns(), 50);
    }
}
