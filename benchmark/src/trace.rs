//! The timing harness: every call into a layer goes through
//! [`Harness::time`], which always yields the call's wall time and, when
//! recording, also keeps an in-memory span (name, start, end, parent,
//! iteration id). Spans are written out once, at exit, as Chrome trace
//! events.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Phase or probe name.
    pub name: &'static str,
    /// Start, in ns since the harness was created.
    pub start_ns: u64,
    /// End, in ns since the harness was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration the span belongs to (spans of one iteration share it).
    pub iter: u32,
}

/// Times calls, accumulates per-iteration phase walls, and records spans.
#[derive(Debug)]
pub struct Harness {
    origin: Instant,
    /// Record spans for the calls made now (toggled per iteration by a
    /// traced run so traced and untraced iterations alternate).
    pub recording: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    iter: u32,
    current: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Harness {
    /// A harness with recording off whose span timestamps count from
    /// `origin`, so several harnesses of one process share a timeline.
    pub fn with_origin(origin: Instant) -> Self {
        Harness {
            origin,
            recording: false,
            spans: Vec::new(),
            stack: Vec::new(),
            iter: 0,
            current: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Runs `f`, returning its result and wall time in seconds. The time
    /// is added to the current iteration's total for `name`; a workload
    /// with several cases therefore gets one sample per phase per
    /// iteration, the sum over its cases.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Harness) -> R) -> (R, f64) {
        let slot = self.recording.then(|| {
            let parent = self.stack.last().copied();
            self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, iter: self.iter });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        let secs = (end - start).as_secs_f64();
        if let Some(idx) = slot {
            self.stack.pop();
            self.spans[idx].start_ns = (start - self.origin).as_nanos() as u64;
            self.spans[idx].end_ns = (end - self.origin).as_nanos() as u64;
        }
        *self.current.entry(name).or_insert(0.0) += secs;
        (out, secs)
    }

    /// Closes the current iteration: its per-phase totals become one
    /// sample each when `keep` is set (the warm-up passes `false`).
    pub fn end_iteration(&mut self, keep: bool) {
        let current = std::mem::take(&mut self.current);
        if keep {
            for (name, secs) in current {
                self.samples.entry(name).or_default().push(secs);
            }
        }
        self.iter += 1;
    }

    /// Samples (seconds per iteration) kept for `name`; empty if the
    /// phase never ran.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<i128> =
            self.spans.iter().map(|s| i128::from(s.end_ns) - i128::from(s.start_ns)).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= i128::from(s.end_ns) - i128::from(s.start_ns);
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0.0) += ns.max(0) as f64 / 1e9;
        }
        by_name
    }
}

/// The spans of `harnesses` as one Chrome trace (`chrome://tracing`,
/// Perfetto): a complete event per span, microsecond timestamps, one
/// thread row per harness. `parent` is the id of the enclosing span.
pub fn chrome_trace(harnesses: &[&Harness]) -> Json {
    let mut events = Vec::new();
    for (row, h) in harnesses.iter().enumerate() {
        let first_id = events.len();
        for (i, s) in h.spans.iter().enumerate() {
            events.push(Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num((row + 1) as f64)),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num((first_id + i) as f64)),
                        ("iter", Json::Num(f64::from(s.iter))),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num((first_id + p) as f64)),
                        ),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                    ]),
                ),
            ]));
        }
    }
    Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::str("ms"))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn phase_walls_sum_per_iteration_and_warmup_is_dropped() {
        let mut h = Harness::with_origin(Instant::now());
        h.time("base", |_| spin(200));
        h.end_iteration(false);
        for _ in 0..3 {
            h.time("base", |_| spin(200));
            h.time("base", |_| spin(200));
            h.end_iteration(true);
        }
        assert_eq!(h.samples("base").len(), 3);
        assert!(h.samples("base").iter().all(|&s| s >= 400e-6));
        assert!(h.samples("never").is_empty());
        assert!(h.spans().is_empty(), "recording is off by default");
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut h = Harness::with_origin(Instant::now());
        h.recording = true;
        h.time("iter", |h| {
            h.time("base", |_| spin(300));
            h.time("ff", |_| spin(300));
            spin(100);
        });
        h.end_iteration(true);
        let spans = h.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.iter == 0 && s.end_ns >= s.start_ns));
        let own = h.self_times();
        let total = h.samples("iter")[0];
        assert!(own["iter"] < total - 500e-6, "children are subtracted");
        assert!(own["base"] >= 300e-6);
        let trace = chrome_trace(&[&h]);
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].get("args").and_then(|a| a.get("parent")), Some(&Json::Num(0.0)));
        assert!(Json::parse(&trace.render()).is_ok());
    }
}
