//! Spans recorded by the benchmark around calls into each layer.
//!
//! The program under test is not instrumented: a span is opened by the
//! trace bin before it calls a layer's public function and closed when
//! the call returns. Spans stay in memory and are written out once, when
//! the traced run ends.

use crate::json::Json;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `core.search.rank`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 while open.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request share this identifier.
    pub request: u64,
}

impl Span {
    /// The span's length.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty log whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes a span.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span; returns its result and the span's length
    /// in microseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        (out, self.spans[id].duration_ns() as f64 / 1e3)
    }

    /// Records an interval with given endpoints.
    #[cfg(test)]
    fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Every span, in the order opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every closed span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns != 0)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// A span's self time: its duration minus the part of its interval
    /// that its direct children cover. Children that overlap each other
    /// are counted once, and a child reaching outside its parent counts
    /// only for the part inside.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let parent = &self.spans[id];
        let mut covered: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(start, end)| end > start)
            .collect();
        covered.sort_unstable();
        let mut busy = 0u64;
        let mut reach = parent.start_ns;
        for (start, end) in covered {
            if end > reach {
                busy += end - start.max(reach);
                reach = end;
            }
        }
        parent.duration_ns() - busy
    }

    /// The log as a JSON array (name, start, end, parent, request).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Int(s.start_ns)),
                        ("end_ns", Json::Int(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        ),
                        ("request", Json::Int(s.request)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let mut t = Tracer::new();
        let root = t.record("request", None, 1, 0, 1000);
        let child = t.record("search", Some(root), 1, 100, 600);
        // A grandchild is its parent's business, not the root's.
        t.record("analyze", Some(child), 1, 200, 300);
        t.record("encode", Some(root), 1, 700, 800);
        assert_eq!(t.self_ns(root), 1000 - 500 - 100);
        assert_eq!(t.self_ns(child), 500 - 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let mut t = Tracer::new();
        let root = t.record("request", None, 7, 0, 1000);
        // Two workers busy at the same time: 100..500 and 300..700
        // cover 600 ns between them, not 800.
        t.record("worker", Some(root), 7, 100, 500);
        t.record("worker", Some(root), 7, 300, 700);
        // Fully inside another child: adds nothing.
        t.record("worker", Some(root), 7, 350, 450);
        // Reaches past the parent's end: only 900..1000 counts.
        t.record("flush", Some(root), 7, 900, 1400);
        assert_eq!(t.self_ns(root), 1000 - 600 - 100);
    }

    #[test]
    fn spans_of_other_parents_and_requests_do_not_count() {
        let mut t = Tracer::new();
        let a = t.record("request", None, 1, 0, 100);
        let b = t.record("request", None, 2, 0, 100);
        t.record("work", Some(b), 2, 10, 90);
        assert_eq!(t.self_ns(a), 100);
        assert_eq!(t.self_ns(b), 20);
        assert_eq!(t.durations_us("request"), vec![0.1, 0.1]);
    }

    #[test]
    fn timed_closures_nest_and_serialise() {
        let mut t = Tracer::new();
        let root = t.open("outer", None, 3);
        let (got, us) = t.time("inner", Some(root), 3, || 41 + 1);
        t.close(root);
        assert_eq!(got, 42);
        assert_eq!(us, t.spans()[1].duration_ns() as f64 / 1e3);
        let spans = t.spans();
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let doc = t.to_json();
        assert_eq!(doc.items().len(), 2);
        assert_eq!(doc.items()[1].get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(doc.items()[0].get("parent"), Some(&Json::Null));
    }
}
