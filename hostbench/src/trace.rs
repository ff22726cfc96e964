//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a layer's public API. A span's layer is the part of its name
//! before the first `.` (`sim.run` belongs to `sim`). Spans of one cell or
//! one job share an `id`. Nothing is written while the run measures; the
//! caller serializes the spans with [`Tracer::to_json`] once it ends.

use std::collections::BTreeMap;
use std::time::Instant;

use ggpu_sim::json::JsonWriter;

/// One closed span; times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, for example `serve.submit`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The cell index or job index the span worked for.
    pub id: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; every call is a no-op when disabled, so the
/// untraced path pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, closed with [`Tracer::exit`].
#[derive(Debug)]
#[must_use = "a span must be closed with Tracer::exit"]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off between spans.
    ///
    /// # Panics
    ///
    /// Panics if a span is open: its children would be lost.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracer toggled inside an open span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` for `id`, nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Close `span`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order.
    pub fn exit(&mut self, span: Open) {
        let Some(idx) = span.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name, id);
        let out = f();
        self.exit(span);
        out
    }

    /// Every closed span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Serialize the spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_arr();
        for s in &self.spans {
            w.begin_obj()
                .str("name", s.name)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns)
                .opt_u64("parent", s.parent.map(|p| p as u64))
                .u64("id", s.id)
                .end_obj();
        }
        w.end_arr();
        w.finish()
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children. Children never overlap (the benchmark is sequential),
/// so self times are non-negative and a root's subtree sums to the root.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Self time summed per layer, in seconds.
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += ns as f64 / 1e9;
    }
    out
}

/// Total duration of every span named `name`, in seconds.
pub(crate) fn total_seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum()
}

/// Duration of every span named `name`, in ns, in recording order.
pub(crate) fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Relative gap between the summed self times of every span and the
/// independently measured wall time the root spans covered.
pub fn telescope_error(spans: &[Span], measured_wall_s: f64) -> f64 {
    let self_sum: f64 = self_times_ns(spans).iter().map(|&ns| ns as f64 / 1e9).sum();
    if measured_wall_s <= 0.0 {
        return if self_sum == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (self_sum - measured_wall_s).abs() / measured_wall_s
}
