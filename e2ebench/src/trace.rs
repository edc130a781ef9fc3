//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's calls into each layer's
//! public functions — name, start, end, parent span and op id — kept in
//! memory, and written out as JSON lines when the run ends. A layer's
//! self time is its span minus the time its child spans cover. With
//! tracing off every call is a no-op, so the untraced run pays nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NONE: usize = usize::MAX;

#[derive(Clone, Debug)]
struct Span {
    name: String,
    op: u64,
    parent: usize,
    start_ns: u64,
    end_ns: u64,
}

/// A handle to an open span (`enter` → `exit`).
#[derive(Clone, Copy, Debug)]
#[must_use]
pub struct SpanId(usize);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<(String, u64, f64)>,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op. `origin` is the
    /// shared zero of all tracers whose spans get merged.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// An empty recorder with the same switch and origin, for another
    /// thread; merge it back with [`absorb`](Tracer::absorb).
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.on, self.origin)
    }

    /// Starts the next op: later spans and counts carry its id, which
    /// must be unique among the tracers that get merged.
    pub fn begin_op(&mut self, id: u64) {
        self.op = id;
    }

    pub fn enter(&mut self, name: impl Into<String>) -> SpanId {
        if !self.on {
            return SpanId(NONE);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            op: self.op,
            parent: self.open.last().copied().unwrap_or(NONE),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        SpanId(idx)
    }

    pub fn exit(&mut self, id: SpanId) {
        if id.0 == NONE {
            return;
        }
        let now = self.now_ns();
        self.spans[id.0].end_ns = now;
        if let Some(pos) = self.open.iter().rposition(|&i| i == id.0) {
            self.open.truncate(pos);
        }
    }

    /// Times `f` as one span with no children.
    pub fn time<R>(&mut self, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
        let span = self.enter(name);
        let out = f();
        self.exit(span);
        out
    }

    /// Records a count (or a derived per-op figure) at this boundary.
    pub fn count(&mut self, name: impl Into<String>, value: f64) {
        if self.on {
            self.counts.push((name.into(), self.op, value));
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Moves another tracer's spans and counts into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += offset;
            }
            s
        }));
        self.counts.extend(other.counts);
    }

    /// Self time in ms of every closed span, grouped by span name.
    pub fn self_times_ms(&self) -> BTreeMap<String, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            if s.end_ns == 0 {
                continue;
            }
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(child);
            out.entry(s.name.clone())
                .or_default()
                .push(own as f64 / 1e6);
        }
        out
    }

    /// Every recorded count, grouped by name.
    pub fn counts(&self) -> BTreeMap<String, Vec<f64>> {
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (name, _, v) in &self.counts {
            out.entry(name.clone()).or_default().push(*v);
        }
        out
    }

    /// Writes one JSON object per span and per count.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        for (name, op, v) in &self.counts {
            writeln!(out, "{{\"count\":\"{name}\",\"op\":{op},\"value\":{v}}}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.begin_op(1);
        let outer = t.enter("outer");
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.exit(outer);
        let times = t.self_times_ms();
        assert!(times["inner"][0] >= 20.0);
        assert!(times["outer"][0] < times["inner"][0]);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.enter("x");
        t.exit(s);
        t.count("c", 1.0);
        assert!(t.self_times_ms().is_empty());
        assert!(t.counts().is_empty());
    }
}
