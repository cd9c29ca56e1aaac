//! Harness spans: one record per call into a layer, kept in memory and
//! written out as Chrome trace events when the benchmark ends.
//!
//! The same `enter`/`exit` pair is the harness's stopwatch, so a traced
//! run and an untraced run execute the same timing code; with recording
//! off the pair costs two clock reads and stores nothing.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// One closed span. `trace` is shared by the spans of one direct run or
/// one served job; `parent` indexes into the recorder's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub trace: u64,
    pub parent: Option<usize>,
}

/// Token of an open span, handed back to [`Spans::exit`].
#[must_use]
pub struct Open {
    start: Instant,
    slot: Option<usize>,
}

pub struct Spans {
    epoch: Instant,
    recording: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    trace: u64,
}

impl Spans {
    /// A stopwatch that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A stopwatch that keeps every span.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(recording: bool) -> Self {
        Spans {
            epoch: Instant::now(),
            recording,
            spans: Vec::new(),
            stack: Vec::new(),
            trace: 0,
        }
    }

    /// Starts a new trace: later spans carry a fresh identifier.
    pub fn next_trace(&mut self) -> u64 {
        self.trace += 1;
        self.trace
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = self.recording.then(|| {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: 0,
                trace: self.trace,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, slot }
    }

    /// Closes the span and returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(slot) = open.slot {
            self.spans[slot].end_ns = self.ns(end);
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(slot), "spans close innermost first");
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Records a span measured elsewhere (a served job's phases, taken
    /// from the client's clock and the server's own timings). Returns
    /// its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        seconds: f64,
        trace: u64,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.recording {
            return None;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + (seconds.max(0.0) * 1e9) as u64,
            trace,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name in seconds: each span's duration minus
    /// the part of it its direct children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                child_ns[p] += hi.saturating_sub(lo);
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Chrome trace-event JSON ("X" complete events, microseconds). The
    /// trace identifier is the event's `tid`, so one run or job is one
    /// row in the viewer; `args` carries the parent span's index.
    pub fn chrome_trace(&self) -> Value {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("ph", Value::str("X")),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(s.trace as f64)),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Value::obj([
                            ("span", Value::Num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::obj([("traceEvents", Value::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut s = Spans::on();
        let t0 = Instant::now();
        let root = s.record("job", t0, 10e-3, 1, None);
        s.record("queued", t0, 3e-3, 1, root);
        s.record("run", t0 + Duration::from_millis(3), 6e-3, 1, root);
        let own = s.self_seconds();
        assert!((own["job"] - 1e-3).abs() < 1e-9, "{own:?}");
        assert!((own["queued"] - 3e-3).abs() < 1e-9);
        assert!((own["run"] - 6e-3).abs() < 1e-9);
    }

    #[test]
    fn nesting_sets_parents_and_off_records_nothing() {
        let mut s = Spans::on();
        s.next_trace();
        let outer = s.enter("run");
        let inner = s.enter("graph_build");
        assert!(s.exit(inner) >= 0.0);
        s.exit(outer);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert_eq!(s.spans()[1].trace, 1);
        let events = s.chrome_trace();
        assert_eq!(
            events.get("traceEvents").unwrap().as_arr().unwrap().len(),
            2
        );

        let mut off = Spans::off();
        let o = off.enter("run");
        assert!(off.exit(o) >= 0.0);
        assert!(off.spans().is_empty());
    }
}
