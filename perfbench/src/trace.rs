//! Spans around the benchmark's own calls into each layer.
//!
//! Every timed call goes through [`Tracer::enter`]/[`Tracer::exit`], traced
//! run or not — `exit` returns the elapsed nanoseconds either way, so the
//! untraced and the traced run time the same code and differ only in
//! whether the span is kept. Kept spans stay in memory as
//! `{name, start_ns, end_ns, parent}` and are written out once, after the
//! measurement, by [`Tracer::write_jsonl`]. No span lives inside the
//! program under test; that is a later change.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One finished (or still open: `end_ns == 0`) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// Handle returned by [`Tracer::enter`]; give it back to [`Tracer::exit`].
#[must_use]
pub struct Open {
    started: Instant,
    index: Option<usize>,
}

pub struct Tracer {
    keep: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// `keep = false` times calls without recording spans (the untraced run).
    pub fn new(keep: bool) -> Self {
        Tracer { keep, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn is_keeping(&self) -> bool {
        self.keep
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.keep.then(|| {
            let start_ns = started.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span { name, start_ns, end_ns: 0, parent: self.stack.last().copied() });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { started, index }
    }

    /// Close the span; returns its duration in nanoseconds.
    pub fn exit(&mut self, open: Open) -> u64 {
        let ended = Instant::now();
        if let Some(i) = open.index {
            assert_eq!(self.stack.pop(), Some(i), "spans must close innermost first");
            self.spans[i].end_ns = ended.duration_since(self.origin).as_nanos() as u64;
        }
        ended.duration_since(open.started).as_nanos() as u64
    }

    /// Time one call: `(result, elapsed ns)`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let open = self.enter(name);
        let r = f();
        (r, self.exit(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total ns, self ns)`.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let own = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own_ns) in self.spans.iter().zip(own) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += own_ns;
        }
        out
    }

    /// Append every span as one JSON line to `path` (parents as indices
    /// into this run's span list).
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"workload\":\"{}\"}}",
                s.name, s.start_ns, s.end_ns, parent, workload
            )?;
        }
        w.flush()
    }
}

/// A span's self time: its duration minus the part of it its direct
/// children cover. Spans come from one thread and close innermost first,
/// so siblings never overlap and the cover is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let inside = s.end_ns.min(spans[p].end_ns) - s.start_ns.max(spans[p].start_ns);
            own[p] = own[p].saturating_sub(inside);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("step", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn tracer_nests_by_open_span_and_times_when_not_keeping() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        let (v, ns) = t.time("inner", || 7);
        assert_eq!(v, 7);
        let outer_ns = t.exit(outer);
        assert!(outer_ns >= ns);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        let totals = t.totals();
        assert_eq!(totals["outer"].0, 1);
        assert_eq!(totals["outer"].2, totals["outer"].1 - totals["inner"].1);

        let mut off = Tracer::new(false);
        let (_, ns) = off.time("x", || std::hint::black_box(1 + 1));
        assert!(ns < 1_000_000_000);
        assert!(off.spans().is_empty());
    }
}
