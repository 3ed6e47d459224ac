//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded from the benchmark's own code around each call into a
//! layer: name, start, end and parent, under the cell seed as the shared id.
//! They stay in memory until the run ends. A layer's self time is its span's
//! duration minus the time its child spans cover; on one thread children
//! never overlap, so that is the sum of the children's durations.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, `<crate>.<operation>`.
    pub name: &'static str,
    /// Shared id of the spans of one cell (the cell seed).
    pub id: u64,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started (equal to `start_ns` while
    /// the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Handle of an open span.
#[must_use = "a span must be closed with `Tracer::exit`"]
pub struct Open(Option<usize>);

/// The span recorder. A disabled recorder records nothing, so the same
/// replay code runs traced and untraced.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    id: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            id: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Sets the id stamped on the spans opened from now on.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            id: self.id,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes a span (spans close innermost first).
    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let popped = self.stack.pop();
        assert_eq!(popped, Some(index), "spans must close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in seconds per span name, summed over all spans.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{index},\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name, span.id, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.enter("a.outer");
        let inner = tracer.enter("b.inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        tracer.exit(inner);
        tracer.exit(outer);
        let own = tracer.self_seconds();
        assert!(own["b.inner"] >= 0.005);
        assert!(own["a.outer"] < own["b.inner"]);
        assert_eq!(tracer.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let value = tracer.span("a.outer", || 7);
        assert_eq!(value, 7);
        assert!(tracer.spans().is_empty());
    }
}
