//! In-memory span recorder and the order statistics every workload
//! reports.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! crates' public functions — nothing inside the crates is instrumented.
//! A span's self time is its duration minus the durations of its direct
//! children; the spans are written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    op: u64,
}

/// Spans of one run, kept in memory until [`Tracer::write_jsonl`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    pub fn duration_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id];
        s.end_ns - s.start_ns
    }

    /// Sum of direct-child durations per span.
    fn child_ns(&self) -> Vec<u64> {
        let mut sums = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                sums[p] += s.end_ns - s.start_ns;
            }
        }
        sums
    }

    /// Durations (ms) of every span named `name`, one per occurrence.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self times (ms) of every span named `name`: duration minus the
    /// durations of its direct children.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let child = self.child_ns();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(child[i]) as f64 / 1e6)
            .collect()
    }

    /// Total duration (ms) of the spans named `name` under each parent
    /// span, in parent order — per-op sums of chunked stages.
    pub fn per_parent_ms(&self, name: &str) -> Vec<f64> {
        let mut out: Vec<(SpanId, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let Some(p) = s.parent else { continue };
            let ms = (s.end_ns - s.start_ns) as f64 / 1e6;
            match out.last_mut() {
                Some((last, sum)) if *last == p => *sum += ms,
                _ => out.push((p, ms)),
            }
        }
        out.into_iter().map(|(_, ms)| ms).collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let child = self.child_ns();
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                (s.end_ns - s.start_ns).saturating_sub(child[i])
            );
        }
        std::fs::write(path, text)
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (`q = 0.5` is the median). `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.begin("op", None, 0);
        t.time("child", Some(root), 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let total = t.durations_ms("op")[0];
        let own = t.self_ms("op")[0];
        let child = t.durations_ms("child")[0];
        assert!((total - own - child).abs() < 1e-9);
        assert_eq!(t.per_parent_ms("child"), vec![child]);
    }
}
