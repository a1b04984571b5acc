//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded from the benchmark's own thread around calls into
//! the layers' public functions: `{name, start, end, parent,
//! request_id}`. Nothing is written until [`Tracer::write_json`] at the
//! end of the run. A disabled tracer runs the same closures without
//! reading the clock, which is how the untraced reference wall time of
//! the same replay is measured.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `cpu.prep`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (the served replay's requests only).
    pub request_id: Option<u64>,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recording tracer.
    pub fn recording() -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::recording()
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_req(name, None, f)
    }

    /// Runs `f` inside a span tagged with a request id.
    pub fn span_req<T>(
        &mut self,
        name: &'static str,
        request_id: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request_id,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the
    /// durations of its direct children, summed by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end - s.start) - children;
        }
        out
    }

    /// Total (inclusive) time per span name.
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// The spans as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut s = String::with_capacity(64 * self.spans.len() + 64);
        s.push_str("{\"schema\": \"perfbench-spans/v1\", \"spans\": [\n");
        for (i, span) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                s,
                "{}{{\"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {}, \"request_id\": {}}}",
                if i == 0 { "" } else { ",\n" },
                span.name,
                span.start,
                span.end,
                opt(span.parent.map(|p| p as u64)),
                opt(span.request_id),
            );
        }
        s.push_str("\n]}\n");
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut t = Tracer::recording();
        t.span("root", |t| {
            t.span("a", |t| {
                t.span("b", |_| std::hint::black_box((0..1000).sum::<u64>()));
            });
            t.span_req("b", Some(3), |_| ());
        });
        let root = t.total("root");
        let selfs = t.self_times();
        assert_eq!(selfs.values().sum::<u64>(), root);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[3].request_id, Some(3));
        assert_eq!(selfs["b"], t.total("b"));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
