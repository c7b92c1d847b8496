//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans stay in memory while the run measures and are written once at
//! the end as Chrome trace-event JSON — the format
//! `QueryResult::trace_chrome_json` produces, so both open in Perfetto or
//! `chrome://tracing`. One request id groups the spans of one request
//! and becomes the event's `tid`, so each request gets its own track.

use crate::json::quote;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// True when the span's position was inferred from a duration the
    /// service reported rather than observed by the client.
    pub inferred: bool,
}

/// An in-memory span recorder. Disabled recorders keep nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    inner: Mutex<TracerInner>,
}

struct TracerInner {
    next_id: u64,
    next_request: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            inner: Mutex::new(TracerInner {
                next_id: 1,
                next_request: 1,
                spans: Vec::new(),
            }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh request id.
    pub fn request_id(&self) -> u64 {
        let mut inner = self.inner.lock().expect("tracer lock poisoned");
        let id = inner.next_request;
        inner.next_request += 1;
        id
    }

    /// Record a span between two instants; returns its id (0 when
    /// disabled).
    pub fn record(
        &self,
        request: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
        inferred: bool,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let start = start.saturating_duration_since(self.epoch);
        let end = end.saturating_duration_since(self.epoch);
        let mut inner = self.inner.lock().expect("tracer lock poisoned");
        let id = inner.next_id;
        inner.next_id += 1;
        inner.spans.push(Span {
            id,
            parent,
            request,
            name,
            start,
            end: end.max(start),
            inferred,
        });
        id
    }

    /// Time `f` as one span and return its result.
    pub fn time<T>(
        &self,
        request: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(request, parent, name, start, end, false);
        (out, end - start)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .lock()
            .expect("tracer lock poisoned")
            .spans
            .clone()
    }

    /// All spans as Chrome trace-event JSON.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"span_id\":{},\"parent\":{},\"request\":{},\"inferred\":{}}}}}",
                quote(s.name),
                quote(layer),
                s.start.as_micros(),
                (s.end - s.start).as_micros(),
                s.request,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                s.inferred
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`: the part of
/// a parent span that some child covers.
pub fn covered(lo: Duration, hi: Duration, intervals: &[(Duration, Duration)]) -> Duration {
    let mut clipped: Vec<(Duration, Duration)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort();
    let mut total = Duration::ZERO;
    let mut cur: Option<(Duration, Duration)> = None;
    for (a, b) in clipped {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let iv = [(ms(0), ms(5)), (ms(3), ms(8)), (ms(20), ms(40))];
        assert_eq!(covered(ms(2), ms(30), &iv), ms(6 + 10));
        assert_eq!(covered(ms(9), ms(19), &iv), ms(0));
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let t = Tracer::new(true);
        let r = t.request_id();
        let now = Instant::now();
        let root = t.record(r, None, "client.request", now, now + ms(3), false);
        t.record(r, Some(root), "core.compile", now, now + ms(1), true);
        let doc = crate::json::parse(&t.chrome_json()).unwrap();
        let events = doc.get("traceEvents").as_array();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].path("args.parent").as_i64(), Some(root as i64));
        assert_eq!(events[0].get("dur").as_i64(), Some(3000));
        assert!(Tracer::new(false)
            .chrome_json()
            .contains("\"traceEvents\":[]"));
    }
}
