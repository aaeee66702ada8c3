//! Statistics, spans and host diagnostics shared by every workload.
//!
//! Timings are gated on the **median** of a run's many units. The best
//! decile is reported beside it but not gated: on a host whose fast
//! phases cover a tenth of some runs and none of others, it moves more
//! between runs than the median does (perfbench/README.md).

use std::time::Instant;

/// Sorted copy of `xs` (NaN-free by construction: all inputs are times,
/// rates or ratios of positive counts).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    v
}

/// The value at rank `⌊q·(n−1)⌋` of the sorted sample (nearest rank,
/// no interpolation, so it is always a value that was measured).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let v = sorted(xs);
    v[((v.len() - 1) as f64 * q).floor() as usize]
}

/// Median (nearest rank).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Best decile of a lower-is-better sample: its 10th percentile.
pub fn best_low(xs: &[f64]) -> f64 {
    quantile(xs, 0.1)
}

/// Percentile `p` (0–100) of latencies by nearest rank: the smallest
/// value with at least `p`% of the sample at or below it.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    ccmm::watch::peak_rss_kb() as f64 / 1024.0
}

/// Host-speed probe: a fixed dependent integer loop timed in ~50 ms
/// chunks. Returns the chunk times in seconds. Diagnostic only — it
/// tells a slow host phase from a regression, and is never a metric.
pub fn host_probe(chunks: usize) -> Vec<f64> {
    (0..chunks)
        .map(|i| {
            let t = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ i as u64;
            for _ in 0..22_000_000u32 {
                x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(0x1234_5678_9abc_def1);
                x ^= x >> 29;
            }
            std::hint::black_box(x);
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// One recorded interval: the benchmark's own span around a public call.
struct Span {
    /// Layer or call name.
    name: &'static str,
    /// Start, microseconds since the recorder's epoch.
    start_us: f64,
    /// End, microseconds since the recorder's epoch.
    end_us: f64,
    /// Index of the enclosing span in the same recorder, if any.
    parent: Option<usize>,
    /// Unit (or request) id the span belongs to.
    id: u64,
}

impl Span {
    /// Duration in seconds.
    fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// In-memory span recorder for one thread. Spans nest through
/// [`Spans::time`]; nothing is written until [`Spans::to_jsonl`]. A
/// recorder that is off still times [`Spans::time`] calls (units need
/// their wall time) but keeps no spans.
pub struct Spans {
    epoch: Instant,
    on: bool,
    /// Every recorded span, in open order.
    spans: Vec<Span>,
    open: Vec<usize>,
    thread: usize,
    /// Recorders of other threads, kept for the trace file.
    adopted: Vec<Spans>,
}

impl Spans {
    /// A recorder whose timestamps count from `epoch`; `thread` tags its
    /// lines in the trace file.
    pub fn new(epoch: Instant, thread: usize, on: bool) -> Self {
        Spans { epoch, on, spans: Vec::new(), open: Vec::new(), thread, adopted: Vec::new() }
    }

    /// A recorder that keeps nothing.
    pub fn off() -> Self {
        Spans::new(Instant::now(), 0, false)
    }

    /// A fresh recorder sharing this one's epoch and on/off state.
    pub fn fork(&self, thread: usize) -> Self {
        Spans::new(self.epoch, thread, self.on)
    }

    /// Keeps another thread's recorder for the trace file.
    pub fn adopt(&mut self, other: Spans) {
        if other.on {
            self.adopted.push(other);
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children. Returns `f`'s value and the span's duration in
    /// seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        if !self.on {
            let t = Instant::now();
            let out = f(self);
            return (out, t.elapsed().as_secs_f64());
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_us: self.now_us(), end_us: 0.0, parent, id });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_us = self.now_us();
        (out, self.spans[idx].secs())
    }

    /// Self time (duration minus direct children) of every recorded
    /// span, in seconds, in open order.
    pub fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Total self time of the spans called `name` with id `id`.
    pub fn self_secs_of(&self, own: &[f64], name: &str, id: u64) -> f64 {
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name && s.id == id)
            .map(|(_, t)| t)
            .sum()
    }

    /// The trace file lines: one JSON object per span.
    pub fn to_jsonl(&self, out: &mut String) {
        use std::fmt::Write;
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"thread\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"id\":{}}}",
                self.thread, s.name, s.start_us, s.end_us, s.id
            );
        }
        for other in &self.adopted {
            other.to_jsonl(out);
        }
    }
}

/// A JSON number with all its digits (`{:?}` keeps full f64 precision).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON array of numbers.
pub fn nums(xs: &[f64]) -> String {
    format!("[{}]", xs.iter().map(|&x| num(x)).collect::<Vec<_>>().join(","))
}

/// A JSON string literal (benchmark-controlled text: escapes quotes and
/// backslashes only).
pub fn text(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(best_low(&xs), 2.0);
        assert_eq!(median(&xs), 10.0);
        let lat: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&lat, 50.0), 500.0);
        assert_eq!(percentile(&lat, 99.0), 990.0);
    }
}
