//! Spans recorded from the benchmark's own files around calls into each
//! layer's public functions. Kept in memory; written out when the
//! workload ends. A layer's self time is its span minus the part its
//! child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

#[derive(Debug)]
pub struct Span {
    /// Spans of one replayed operation share this.
    pub trace_id: u64,
    pub span_id: u64,
    /// `span_id` of the enclosing span; 0 for a root.
    pub parent: u64,
    /// `crate.module` of the code the span brackets.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Indices into `spans` of the currently open spans, innermost last.
    open: Vec<usize>,
    trace_id: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace_id: 0,
        }
    }

    /// Starts the next replayed operation: later spans carry a new
    /// `trace_id`.
    pub fn next_trace(&mut self) {
        self.trace_id += 1;
    }

    /// Runs `f` inside a span of `layer`, nested under whichever span is
    /// open on this recorder.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().map_or(0, |&p| self.spans[p].span_id);
        self.spans.push(Span {
            trace_id: self.trace_id,
            span_id: idx as u64 + 1,
            parent,
            layer,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Runs `f` `n` times under one span of `layer` and returns the mean
    /// nanoseconds per call — for calls too short to bracket one by one,
    /// where two clock reads per call would drown them.
    pub fn timed<E>(
        &mut self,
        layer: &'static str,
        n: usize,
        mut f: impl FnMut() -> Result<(), E>,
    ) -> Result<f64, E> {
        let at = self.spans.len();
        self.span(layer, |_| (0..n).try_for_each(|_| f()))?;
        let s = &self.spans[at];
        Ok((s.end_ns - s.start_ns) as f64 / n.max(1) as f64)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, nanoseconds: duration minus its direct
    /// children's durations (children never overlap: one thread records).
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != 0 {
                let p = s.parent as usize - 1;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Total self time and span count per layer.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut by = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = by.entry(s.layer).or_insert((0u64, 0u64));
            e.0 += own;
            e.1 += 1;
        }
        by
    }

    /// Summed self time of `layer`'s spans in microseconds (0 if none).
    pub fn total_self_us(&self, layer: &str) -> f64 {
        self.self_by_layer()
            .get(layer)
            .map_or(0.0, |&(ns, _)| ns as f64 / 1e3)
    }

    /// Mean self time of `layer`'s spans in microseconds (0 if none).
    pub fn mean_self_us(&self, layer: &str) -> f64 {
        self.self_by_layer()
            .get(layer)
            .map_or(0.0, |&(ns, n)| ns as f64 / n.max(1) as f64 / 1e3)
    }

    /// Whether every parent's children fit inside it — the consistency the
    /// self times rest on.
    pub fn consistent(&self) -> bool {
        let mut child_sum = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                let p = &self.spans[s.parent as usize - 1];
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                    return false;
                }
                child_sum[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_sum)
            .all(|(s, c)| c <= s.end_ns - s.start_ns)
    }

    /// The span file: every span, then per-layer self-time totals.
    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("trace_id".into(), Value::UInt(s.trace_id)),
                    ("span_id".into(), Value::UInt(s.span_id)),
                    ("parent".into(), Value::UInt(s.parent)),
                    ("layer".into(), Value::Str(s.layer.to_string())),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                ])
            })
            .collect();
        let layers = self
            .self_by_layer()
            .into_iter()
            .map(|(layer, (ns, n))| {
                (
                    layer.to_string(),
                    Value::Map(vec![
                        ("self_ns".into(), Value::UInt(ns)),
                        ("spans".into(), Value::UInt(n)),
                    ]),
                )
            })
            .collect();
        Value::Map(vec![
            ("workload".into(), Value::Str(workload.to_string())),
            ("consistent".into(), Value::Bool(self.consistent())),
            ("self_time_by_layer".into(), Value::Map(layers)),
            ("spans".into(), Value::Seq(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut r = Recorder::new();
        r.next_trace();
        r.span("outer", |r| {
            r.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            r.span("inner", |_| ());
        });
        assert!(r.consistent());
        let by = r.self_by_layer();
        let (outer_ns, outer_n) = by["outer"];
        let (inner_ns, inner_n) = by["inner"];
        assert_eq!((outer_n, inner_n), (1, 2));
        let outer = &r.spans()[0];
        assert_eq!(outer_ns + inner_ns, outer.end_ns - outer.start_ns);
        assert!(inner_ns >= 2_000_000);
        assert_eq!(r.spans()[1].parent, outer.span_id);
        assert_eq!(r.spans()[1].trace_id, 1);
    }
}
