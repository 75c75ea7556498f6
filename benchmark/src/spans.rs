//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each product crate; nothing inside the product is instrumented. They
//! stay in memory and are written as a Chrome trace when the run ends,
//! never while a timer runs. A disabled recorder reads no clock, so the
//! untraced passes pay one branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `crate.stage`, e.g. `compile.load`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The operation (kernel run or job) this span belongs to.
    pub op_id: u64,
}

/// In-memory span sink.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op_id: u64,
}

impl Recorder {
    /// A recorder that records.
    pub fn enabled() -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
        }
    }

    /// A recorder that only runs the closures it is handed.
    pub fn disabled() -> Self {
        Recorder { enabled: false, ..Recorder::enabled() }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded from now on belong to operation `op_id`.
    pub fn set_op(&mut self, op_id: u64) {
        self.op_id = op_id;
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, op_id: self.op_id });
        self.stack.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        let out = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.stack.pop();
        out
    }

    /// Everything recorded.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self times in milliseconds, grouped by span name.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        by_name.entry(s.name).or_default().push(ns as f64 / 1e6);
    }
    by_name
}

/// Chrome-trace (`chrome://tracing`, Perfetto) rendering: one complete
/// event per span, one track per workload.
pub fn chrome_trace(tracks: &[(&str, &[Span])]) -> String {
    let mut events = Vec::new();
    for (tid, (track, spans)) in tracks.iter().enumerate() {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{track}\"}}}}"
        ));
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"op_id\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op_id
            ));
        }
    }
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op_id: 0 }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),  // overlaps a on [30, 50)
            span("c", 90, 120, Some(0)), // clipped to the parent's end
            span("a.inner", 20, 30, Some(1)),
        ];
        // op: 100 - |[10,70) ∪ [90,100)| = 100 - 70 = 30.
        assert_eq!(self_times(&spans), vec![30, 30, 40, 30, 10]);
    }

    #[test]
    fn recorder_nests_and_tags_operations() {
        let mut rec = Recorder::enabled();
        rec.set_op(7);
        let v = rec.span("outer", |r| r.span("inner", |_| 42));
        assert_eq!(v, 42);
        let s = rec.into_spans();
        assert_eq!((s[0].name, s[0].parent, s[0].op_id), ("outer", None, 7));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(chrome_trace(&[("w", &s)]).contains("\"name\":\"inner\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::disabled();
        assert_eq!(rec.span("x", |r| r.span("y", |_| 1)), 1);
        assert!(rec.into_spans().is_empty());
    }
}
