//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer's public functions; nothing inside the crates under test is
//! instrumented. Every span has a name, a start, an end and a parent, and
//! the spans of one benchmark operation share an op id. Spans stay in
//! memory until the run ends and are then written out as JSON.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub op: u64,
    pub round: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records nested spans; `span` calls nest by the call stack.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    round: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            round: 0,
        }
    }
}

impl Tracer {
    /// Starts a new operation: later spans carry this op id and round.
    pub fn begin_op(&mut self, op: u64, round: u64) {
        debug_assert!(self.stack.is_empty(), "op started inside an open span");
        self.op = op;
        self.round = round;
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span of the current op.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op: self.op,
            round: self.round,
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records an already-timed span (e.g. measured on a pool worker),
    /// under `parent` or, if `None`, under the innermost open span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let ns = |i: Instant| i.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            op: self.op,
            round: self.round,
            name,
            parent: parent.or_else(|| self.stack.last().copied()),
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that
    /// its direct children cover (children never overlap: one client).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
            .collect()
    }

    /// Self seconds per `(round, span name)`.
    pub fn self_seconds_by_round(&self) -> BTreeMap<(u64, &'static str), f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry((s.round, s.name)).or_insert(0.0) += ns as f64 * 1e-9;
        }
        out
    }

    /// Total (inclusive) seconds of every span named `name` in `round`.
    pub fn total_seconds(&self, round: u64, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.round == round && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self.self_times_ns();
        let spans: Vec<serde_json::Value> = self
            .spans
            .iter()
            .zip(self_ns)
            .enumerate()
            .map(|(i, (s, self_ns))| {
                serde_json::json!({
                    "id": i as u64,
                    "op": s.op,
                    "round": s.round,
                    "name": s.name,
                    "parent": s.parent.map_or(serde_json::Value::Null, |p| (p as u64).into()),
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "self_ns": self_ns,
                })
            })
            .collect();
        let doc = serde_json::json!({ "spans": spans });
        std::fs::write(path, serde_json::to_string(&doc).expect("infallible"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.begin_op(1, 0);
        t.span("outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let self_ns = t.self_times_ns();
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].op, s[1].op);
        let outer_total = s[0].end_ns - s[0].start_ns;
        assert_eq!(self_ns[0], outer_total - (s[1].end_ns - s[1].start_ns));
        assert!(self_ns[1] >= 5_000_000);
    }
}
