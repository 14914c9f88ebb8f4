//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into the
//! library (no instrumentation inside any crate), kept in memory and
//! written out once, as JSON lines, when the run ends.  A span's self time
//! is its duration minus the part of its interval covered by its children.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Identifier of a recorded span (its index in the recorder).
pub type SpanId = usize;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Small per-process id of the thread that ran the span.
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items covered by the span (members, closures, sites, …).
    pub count: u64,
    /// Named counters recorded at the same boundary.
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn counter(&self, key: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
thread_local! {
    static THREAD: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Small stable id of the calling thread (std's `ThreadId` has no stable
/// integer form).
pub fn thread_id() -> u64 {
    THREAD.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

/// The span store of one run; all times are relative to its epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.at(Instant::now())
    }

    /// An instant as nanoseconds since the epoch.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span that ends when [`Tracer::close`] is called.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.push(Span {
            name,
            parent,
            thread: thread_id(),
            start_ns: now,
            end_ns: now,
            count: 0,
            counters: Vec::new(),
        })
    }

    /// Close an open span, recording its work count and counters.
    pub fn close(&mut self, id: SpanId, count: u64, counters: &[(&'static str, f64)]) {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.count = count;
        span.counters.extend_from_slice(counters);
    }

    /// Time `f` as a span with `count` work items.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        count: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id, count, &[]);
        out
    }

    /// Record a span from instants taken around a call on this thread.
    pub fn push_interval(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        (start, end): (Instant, Instant),
        count: u64,
        counters: &[(&'static str, f64)],
    ) -> SpanId {
        self.push(Span {
            name,
            parent,
            thread: thread_id(),
            start_ns: self.at(start),
            end_ns: self.at(end),
            count,
            counters: counters.to_vec(),
        })
    }

    /// Record a span measured elsewhere (e.g. on a worker thread).
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span as one JSON line, tagged with workload and run id.
    pub fn to_jsonl(&self, workload: &str, run_id: &str) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"workload\":\"{workload}\",\"run\":\"{run_id}\",\"id\":{id},\"parent\":{parent},\
                 \"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"count\":{}",
                s.name, s.thread, s.start_ns, s.end_ns, selfs[id], s.count
            );
            for (k, v) in &s.counters {
                let _ = write!(out, ",\"{k}\":{}", crate::report::json_number(*v));
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the parent), so overlapping parallel children are
/// not subtracted twice.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(lo, hi) in kids.iter() {
                cur = match cur {
                    Some((a, b)) if lo <= b => Some((a, b.max(hi))),
                    Some((a, b)) => {
                        covered += b - a;
                        Some((lo, hi))
                    }
                    None => Some((lo, hi)),
                };
            }
            if let Some((a, b)) = cur {
                covered += b - a;
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            thread: 0,
            start_ns: start,
            end_ns: end,
            count: 1,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0, 100),
            // Two overlapping parallel children cover [10, 50).
            span("a", Some(0), 10, 40),
            span("b", Some(0), 20, 50),
            // A disjoint child covers [60, 70).
            span("c", Some(0), 60, 70),
            // A grandchild does not count against the root.
            span("d", Some(3), 62, 68),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs, vec![50, 30, 30, 4, 6]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("root", None, 10, 20), span("late", Some(0), 15, 40)];
        assert_eq!(self_times_ns(&spans), vec![5, 25]);
    }
}
