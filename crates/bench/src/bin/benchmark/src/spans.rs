//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (the program itself gains no spans); the legalizer's own phase tree
//! is imported from the `Profile` it already fills. Everything stays in
//! memory until the run ends and is then written once as a Chrome
//! `trace_event` file and a per-layer summary.

use flow3d_obs::{Json, Profile, TracePhase};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: String,
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Shared by every span of one request or job.
    pub req: u64,
    /// Timeline the span ran on (one per client thread).
    pub tid: u32,
}

/// Records spans against one epoch shared by every thread of a run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tid: u32,
    spans: Vec<SpanRecord>,
}

impl Recorder {
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Self {
            epoch,
            tid,
            spans: Vec::new(),
        }
    }

    /// Records a measured interval and returns its index, for use as a
    /// parent.
    pub fn push(
        &mut self,
        name: &str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(SpanRecord {
            name: name.to_string(),
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent,
            req,
            tid: self.tid,
        });
        self.spans.len() - 1
    }

    /// Imports the phase events of a tracing `profile` under span
    /// `parent`, shifted onto this recorder's epoch. The events carry no
    /// parent links, so nesting is rebuilt from time containment, which
    /// is exact for the single-threaded engines the benchmark runs.
    pub fn import_profile(&mut self, profile: &Profile, parent: usize) {
        let Some(profile_epoch) = profile.tracing_epoch() else {
            return;
        };
        let shift = profile_epoch.saturating_duration_since(self.epoch);
        let req = self.spans[parent].req;
        let mut events: Vec<_> = profile
            .trace_events()
            .iter()
            .filter(|e| e.phase == TracePhase::Complete)
            .collect();
        events.sort_by_key(|e| (e.start, Reverse(e.duration)));
        let mut open = vec![parent];
        for e in events {
            let (start, end) = (shift + e.start, shift + e.start + e.duration);
            while open.len() > 1 && self.spans[open[open.len() - 1]].end < end {
                open.pop();
            }
            self.spans.push(SpanRecord {
                name: format!("core.{}", e.name),
                start,
                end,
                parent: open.last().copied(),
                req,
                tid: self.tid,
            });
            open.push(self.spans.len() - 1);
        }
    }

    pub fn into_spans(self) -> Vec<SpanRecord> {
        self.spans
    }
}

/// Appends another recorder's spans, re-pointing their parent links.
pub fn append(all: &mut Vec<SpanRecord>, more: Vec<SpanRecord>) {
    let offset = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Renders spans as a Chrome `trace_event` document. Each span carries
/// its request id and parent span name in `args`.
pub fn chrome_trace(process: &str, spans: &[SpanRecord]) -> String {
    let us = |d: Duration| Json::num(d.as_secs_f64() * 1e6);
    let mut events = vec![Json::Obj(vec![
        ("ph".into(), Json::Str("M".into())),
        ("pid".into(), Json::num(1.0)),
        ("name".into(), Json::Str("process_name".into())),
        (
            "args".into(),
            Json::Obj(vec![("name".into(), Json::Str(process.into()))]),
        ),
    ])];
    for s in spans {
        let parent = s
            .parent
            .map_or(Json::Null, |p| Json::Str(spans[p].name.clone()));
        events.push(Json::Obj(vec![
            ("ph".into(), Json::Str("X".into())),
            ("pid".into(), Json::num(1.0)),
            ("tid".into(), Json::num(f64::from(s.tid))),
            ("ts".into(), us(s.start)),
            ("dur".into(), us(s.end - s.start)),
            ("name".into(), Json::Str(s.name.clone())),
            (
                "args".into(),
                Json::Obj(vec![
                    ("req".into(), Json::num(s.req as f64)),
                    ("parent".into(), parent),
                ]),
            ),
        ]));
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ])
    .to_string()
}

/// Per-span-name totals: `(count, total seconds, self seconds)`, where
/// self time is a span's duration minus the part of it that its direct
/// children cover.
pub fn layer_totals(spans: &[SpanRecord]) -> BTreeMap<String, (usize, f64, f64)> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut totals: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let total = (s.end - s.start).as_secs_f64();
        let covered = covered(kids, s.start, s.end).as_secs_f64();
        let entry = totals.entry(s.name.clone()).or_default();
        entry.0 += 1;
        entry.1 += total;
        entry.2 += (total - covered).max(0.0);
    }
    totals
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(Duration, Duration)], lo: Duration, hi: Duration) -> Duration {
    intervals.sort();
    let mut sum = Duration::ZERO;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            sum += b - a;
            reach = b;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ms: u64, end_ms: u64, parent: Option<usize>) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
            parent,
            req: 7,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a: union is 10..60
            span("c", 90, 120, Some(0)), // clipped to the parent's end
        ];
        let t = layer_totals(&spans);
        let (n, total, own) = t["job"];
        assert_eq!(n, 1);
        assert!((total - 0.100).abs() < 1e-12);
        assert!(
            (own - 0.040).abs() < 1e-12,
            "self = 100 - 50 - 10 ms, got {own}"
        );
        assert!((t["a"].2 - 0.030).abs() < 1e-12);
    }

    #[test]
    fn chrome_export_carries_request_and_parent() {
        let spans = vec![span("job", 0, 100, None), span("io", 1, 2, Some(0))];
        let doc = Json::parse(&chrome_trace("bench", &spans)).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 3);
        let io = &events[2];
        assert_eq!(io.get("name").and_then(Json::as_str), Some("io"));
        let args = io.get("args").unwrap();
        assert_eq!(args.get("req").and_then(Json::as_u64), Some(7));
        assert_eq!(args.get("parent").and_then(Json::as_str), Some("job"));
        assert_eq!(io.get("dur").and_then(Json::as_f64), Some(1000.0));
    }

    #[test]
    fn imported_profile_phases_nest_by_time() {
        let epoch = Instant::now();
        let mut r = Recorder::new(epoch, 3);
        let mut p = Profile::new();
        p.enable_tracing();
        p.begin("legalize");
        p.begin("flow_pass");
        p.end("flow_pass");
        p.begin("placerow");
        p.end("placerow");
        p.end("legalize");
        let job = r.push("job", 5, None, epoch, Instant::now());
        r.import_profile(&p, job);
        let spans = r.into_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["job", "core.legalize", "core.flow_pass", "core.placerow"]
        );
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(1));
        assert!(spans.iter().all(|s| s.req == 5 && s.tid == 3));
    }
}
