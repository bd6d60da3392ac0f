//! In-memory spans around the calls into each layer, their self-time
//! arithmetic, and the Chrome trace-event export.
//!
//! All spans are recorded from the benchmark's side of the public API; spans
//! inside the program are a later change (ROADMAP item 3).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Json;

static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds on the process-wide clock every latency and span is read from.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Seconds between two [`now_ns`] readings.
pub fn secs(from_ns: u64, to_ns: u64) -> f64 {
    to_ns.saturating_sub(from_ns) as f64 * 1e-9
}

/// One call into a layer. `parent` is the span that caused it (0 = none);
/// spans of one request share `request`, the id of its root span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        secs(self.start_ns, self.end_ns)
    }
}

/// A per-thread span buffer, preallocated so recording never allocates in a
/// timed section. A disabled recorder runs the wrapped call and nothing else.
pub struct Recorder {
    spans: Vec<Span>,
    enabled: bool,
    /// Spans that did not fit the preallocated buffer.
    pub dropped: u64,
}

impl Recorder {
    pub const CAPACITY: usize = 1 << 16;

    pub fn new(enabled: bool) -> Self {
        Recorder {
            spans: Vec::with_capacity(if enabled { Self::CAPACITY } else { 0 }),
            enabled,
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves the id of a span whose children are recorded before it closes.
    pub fn open(&self) -> u32 {
        if self.enabled {
            NEXT_ID.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a finished span under an id from [`Recorder::open`].
    pub fn close(
        &mut self,
        id: u32,
        parent: u32,
        request: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.open();
        let start = now_ns();
        let out = f();
        self.close(id, parent, request, name, start, now_ns());
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, by id: its duration minus the part of its
/// interval that its child spans cover (children are clipped to the parent
/// and overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Durations in seconds of every span called `name`.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_s)
        .collect()
}

/// The spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
/// complete (`"ph": "X"`) event per span, one track per request.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            Json::object([
                ("name", Json::from(s.name)),
                ("ph", Json::from("X")),
                ("ts", Json::Number(s.start_ns as f64 / 1e3)),
                ("dur", Json::Number((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Number(1.0)),
                ("tid", Json::Number(f64::from(s.request))),
                (
                    "args",
                    Json::object([
                        ("id", Json::Number(f64::from(s.id))),
                        ("parent", Json::Number(f64::from(s.parent))),
                        ("request", Json::Number(f64::from(s.request))),
                        ("start_ns", Json::Number(s.start_ns as f64)),
                        ("end_ns", Json::Number(s.end_ns as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::object([("traceEvents", Json::Array(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 40, 90),
            span(4, 3, 50, 60),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[&1], 100 - 20 - 50);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 50 - 10);
        assert_eq!(own[&4], 10);
        // Self times of a request's spans add up to the root's duration.
        assert_eq!(own.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(1, 0, 100, 200),
            span(2, 1, 90, 150),  // starts before the parent
            span(3, 1, 140, 180), // overlaps its sibling
            span(4, 1, 190, 260), // ends after the parent
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[&1], 100 - 50 - 30 - 10);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.open(), 0);
        assert_eq!(rec.span("x", 0, 0, || 7), 7);
        rec.close(0, 0, 0, "x", 0, 1);
        assert!(rec.into_spans().is_empty());
    }

    #[test]
    fn recorder_links_children_to_their_request() {
        let mut rec = Recorder::new(true);
        let req = rec.open();
        let start = now_ns();
        rec.span("child", req, req, || ());
        rec.close(req, 0, req, "request", start, now_ns());
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "child");
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[0].request, spans[1].id);
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    }
}
