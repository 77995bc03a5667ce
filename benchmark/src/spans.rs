//! Benchmark-owned spans around calls into the program's layers.
//!
//! Spans stay in memory and are written once, as Chrome trace-event JSON,
//! when the traced pass ends. Spans inside the program are a later
//! change; these are recorded from outside, at each layer boundary.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share an identifier.
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span log with one clock epoch.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span from explicit endpoints; returns its index, for use
    /// as a child's `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request_id: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request_id,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span and hand back its result and duration in seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request_id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.record(name, start, end, parent, request_id);
        (out, (end - start).as_secs_f64())
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children are not counted twice).
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
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total self time per span name, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): complete `X`
/// events, one lane (`tid`) per request id.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{}}}}}",
            s.name,
            s.request_id,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            i,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 10, 30, Some(0)),   // sibling 1
            span("compute", 40, 90, Some(0)), // sibling 2
            span("kernel", 50, 70, Some(2)),  // nested in compute
            span("overlap", 25, 45, Some(0)), // overlaps both siblings
            span("leaky", 95, 120, Some(0)),  // child outliving its parent
        ];
        let own = self_times_ns(&spans);
        // request: 100 − |[10,90] ∪ [95,100]| = 100 − 85 = 15.
        assert_eq!(own[0], 15);
        assert_eq!(own[1], 20);
        // compute: 50 − its only child (20).
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 20);
        let by_name = self_ms_by_name(&spans);
        assert!((by_name["request"] - 15e-6).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_is_json_with_one_event_per_span() {
        let spans = vec![
            span("a", 1_000, 3_000, None),
            span("b", 1_500, 2_000, Some(0)),
        ];
        let text = chrome_trace(&spans);
        let v = serde_json::from_str(&text).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(|n| n.as_str()), Some("b"));
        assert_eq!(events[0].get("dur").and_then(|d| d.as_f64()), Some(2.0));
    }
}
