//! Prometheus histograms with a process-wide registry, and the one
//! text-exposition writer every `/metrics` line goes through.
//!
//! [`Histogram::observe`] is lock-free (atomic bucket counters, a CAS
//! loop for the sum) and histograms are **always on** — unlike spans
//! they do not depend on the tracing flag, because a histogram bump is a
//! handful of atomics and serving dashboards need them unconditionally.
//!
//! Families registered here render in exposition format via [`render`]
//! (with `# HELP`/`# TYPE` headers, cumulative `_bucket{le=...}` lines,
//! `_sum` and `_count`); the serve crate appends this to `/metrics`.
//! Its own counter and gauge families are written through the same
//! [`Exposition`], so a family's header is emitted once and every label
//! value is escaped in one place.

use std::collections::VecDeque;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Default buckets for phase latencies, in seconds (100 µs – 10 s).
pub const DURATION_BUCKETS: &[f64] = &[
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

/// Buckets for micro-batch sizes (members per fused batch).
pub const BATCH_SIZE_BUCKETS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Buckets for batch occupancy (`batch_size / max_batch`, in (0, 1]).
pub const OCCUPANCY_BUCKETS: &[f64] = &[0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0];

/// A fixed-bucket histogram. Buckets store *non-cumulative* counts
/// internally (one atomic add per observe) and render cumulatively.
#[derive(Debug)]
pub struct Histogram {
    /// Ascending upper bounds; one extra internal bucket catches
    /// observations above the last bound (`+Inf`).
    upper: Box<[f64]>,
    counts: Box<[AtomicU64]>,
    /// Sum of observed values, stored as f64 bits (CAS loop).
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(upper: &[f64]) -> Self {
        assert!(!upper.is_empty(), "histogram needs at least one bucket");
        assert!(
            upper.windows(2).all(|w| w[0] < w[1]),
            "histogram buckets must be strictly increasing"
        );
        let counts = (0..upper.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Self {
            upper: upper.into(),
            counts,
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .upper
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.upper.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Record a duration in seconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Write this histogram's samples (cumulative buckets, `_sum`,
    /// `_count`) into the current family. `extra_label` is emitted
    /// before `le` on bucket lines. The `+Inf` bucket and `_count` come
    /// from one snapshot, so they are always equal even under concurrent
    /// observes.
    fn render_into(&self, w: &mut Exposition<'_>, extra_label: Option<(&str, &str)>) {
        let snapshot: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let bounds = self.upper.iter().map(f64::to_string);
        let bounds: Vec<String> = bounds.chain(["+Inf".to_string()]).collect();
        let mut labels: Vec<(&str, &str)> = extra_label.into_iter().collect();
        let mut cumulative = 0u64;
        for (count, le) in snapshot.iter().zip(&bounds) {
            cumulative += count;
            labels.push(("le", le));
            w.series("_bucket", &labels, cumulative as f64);
            labels.pop();
        }
        w.series("_sum", &labels, self.sum());
        w.series("_count", &labels, cumulative as f64);
    }
}

/// Family kinds of the text exposition format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone count since process start (`_total`).
    Counter,
    /// A value that can go up and down.
    Gauge,
    /// Client-side quantiles (`{quantile="0.99"}`).
    Summary,
    /// Cumulative `_bucket{le}` counts plus `_sum` / `_count`.
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Summary => "summary",
            Kind::Histogram => "histogram",
        }
    }
}

/// Prometheus text-exposition writer over a caller-owned buffer: declare
/// a family with [`Exposition::family`], then write its samples.
pub struct Exposition<'a> {
    out: &'a mut String,
    name: &'static str,
    /// `(help, kind)` of the current family while its header is unwritten.
    header: Option<(&'static str, Kind)>,
}

impl<'a> Exposition<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        Self {
            out,
            name: "",
            header: None,
        }
    }

    /// Declare the family the following samples belong to. Its `# HELP` /
    /// `# TYPE` header is written once, with the first sample — a family
    /// with no samples renders nothing.
    pub fn family(&mut self, name: &'static str, help: &'static str, kind: Kind) {
        self.name = name;
        self.header = Some((help, kind));
    }

    /// One sample of the current family.
    pub fn sample(&mut self, labels: &[(&str, &str)], value: f64) {
        self.series("", labels, value);
    }

    /// One sample of the series `<family><suffix>` (`_bucket`, `_sum`,
    /// `_count`). Label values are escaped here and nowhere else; `f64`'s
    /// `Display` prints integral values without a fractional part and
    /// never in exponent form, which is what the format wants.
    pub fn series(&mut self, suffix: &str, labels: &[(&str, &str)], value: f64) {
        let name = self.name;
        if let Some((help, kind)) = self.header.take() {
            let kind = kind.as_str();
            let _ = write!(self.out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
        }
        let _ = write!(self.out, "{name}{suffix}");
        for (i, (key, value)) in labels.iter().enumerate() {
            let open = if i == 0 { '{' } else { ',' };
            let _ = write!(self.out, "{open}{key}=\"{}\"", escape_label(value));
        }
        if !labels.is_empty() {
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {value}");
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Ceil-based nearest-rank quantile (rank `⌈p·n⌉`, 1-indexed) over a
/// bounded sample ring: the smallest sample covering the requested
/// fraction, for any ring length; 0 when the ring is empty. Feeds the
/// `/metrics` latency summary and the engine's queue-wait p99 (the
/// brownout watermark input); pinned by the `quantile` unit test.
pub fn quantile(ring: &VecDeque<f64>, p: f64) -> f64 {
    if ring.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = ring.iter().copied().collect();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One registered series: its `(label name, label value)` pair
/// (`None` = unlabelled) and the histogram behind it.
type Series = (Option<(&'static str, String)>, Arc<Histogram>);

struct Family {
    name: &'static str,
    help: &'static str,
    series: Vec<Series>,
}

fn registry() -> &'static Mutex<Vec<Family>> {
    static REG: OnceLock<Mutex<Vec<Family>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

/// Get or create the unlabelled histogram `name`. Buckets and help text
/// are fixed by the first caller; later calls reuse the existing series.
pub fn histogram(name: &'static str, help: &'static str, buckets: &[f64]) -> Arc<Histogram> {
    series(name, help, None, buckets)
}

/// Get or create the series of histogram family `name` with label
/// `label_name="label_value"` (e.g. `phase="encoder"`).
pub fn labeled_histogram(
    name: &'static str,
    help: &'static str,
    label_name: &'static str,
    label_value: &str,
    buckets: &[f64],
) -> Arc<Histogram> {
    series(name, help, Some((label_name, label_value)), buckets)
}

fn series(
    name: &'static str,
    help: &'static str,
    label: Option<(&'static str, &str)>,
    buckets: &[f64],
) -> Arc<Histogram> {
    let mut reg = registry().lock().unwrap();
    let family = match reg.iter_mut().find(|f| f.name == name) {
        Some(f) => f,
        None => {
            reg.push(Family {
                name,
                help,
                series: Vec::new(),
            });
            reg.last_mut().expect("just pushed")
        }
    };
    let wanted = label.map(|(k, v)| (k, v.to_string()));
    if let Some((_, h)) = family.series.iter().find(|(l, _)| *l == wanted) {
        return Arc::clone(h);
    }
    let h = Arc::new(Histogram::new(buckets));
    family.series.push((wanted, Arc::clone(&h)));
    Arc::clone(&h)
}

/// The per-phase latency series `rntrajrec_phase_seconds{phase=...}`
/// (shared buckets, seconds). Call sites cache the returned `Arc`.
pub fn phase_seconds(phase: &'static str) -> Arc<Histogram> {
    labeled_histogram(
        "rntrajrec_phase_seconds",
        "Time spent per request-lifecycle phase, in seconds.",
        "phase",
        phase,
        DURATION_BUCKETS,
    )
}

/// The fused micro-batch size histogram `rntrajrec_batch_size`.
pub fn batch_size() -> Arc<Histogram> {
    histogram(
        "rntrajrec_batch_size",
        "Members per fused micro-batch.",
        BATCH_SIZE_BUCKETS,
    )
}

/// The streaming-serving latency KPI
/// `rntrajrec_time_to_first_step_seconds`: submit → first decoded step
/// delivered (what continuous batching optimises, vs. full-response
/// latency for closed batches).
pub fn time_to_first_step() -> Arc<Histogram> {
    histogram(
        "rntrajrec_time_to_first_step_seconds",
        "Submit-to-first-decoded-step latency, in seconds.",
        DURATION_BUCKETS,
    )
}

/// The batch occupancy histogram `rntrajrec_batch_occupancy`
/// (`batch_size / max_batch`).
pub fn batch_occupancy() -> Arc<Histogram> {
    histogram(
        "rntrajrec_batch_occupancy",
        "Fused batch size as a fraction of the configured max batch.",
        OCCUPANCY_BUCKETS,
    )
}

/// Render every registered histogram family in Prometheus text
/// exposition format (`# HELP`, `# TYPE histogram`, samples).
pub fn render() -> String {
    let mut out = String::new();
    render_into(&mut out);
    out
}

/// [`render`], appending to an existing buffer.
pub fn render_into(out: &mut String) {
    let mut w = Exposition::new(out);
    for family in registry().lock().unwrap().iter() {
        w.family(family.name, family.help, Kind::Histogram);
        for (label, h) in &family.series {
            let extra = label.as_ref().map(|(k, v)| (*k, v.as_str()));
            h.render_into(&mut w, extra);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::quantile;

    fn quantiles_of(samples: &[f64]) -> (f64, f64) {
        let ring = samples.iter().copied().collect();
        (quantile(&ring, 0.50), quantile(&ring, 0.99))
    }

    /// Ceil-based nearest rank over rings with known contents: rank
    /// `⌈p·n⌉` (1-indexed), consistent across ring sizes. The old
    /// `round((n-1)·p)` estimator diverged from nearest rank depending
    /// on the ring length: at p99 a 67-sample ring picked rank 66
    /// (`round(66·0.99) = 65`, under-reporting the tail) while 8-, 10-
    /// and 50-sample rings picked the max; at p50 every even-length ring
    /// rounded half away from zero to rank `n/2 + 1` (e.g. rank 6 of
    /// 10).
    #[test]
    fn quantiles_use_ceil_nearest_rank() {
        // Ring of 50: 1.0..=50.0. p99 rank = ceil(49.5) = 50 → 50.0;
        // p50 rank = ceil(25.0) = 25 → 25.0.
        let ring50: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        assert_eq!(quantiles_of(&ring50), (25.0, 50.0));

        // Ring of 10: p99 rank = ceil(9.9) = 10 → 10.0; p50 rank =
        // ceil(5.0) = 5 → 5.0 (the old estimator returned 6.0 here).
        let ring10: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(quantiles_of(&ring10), (5.0, 10.0));

        // Ring of 8: p99 rank = ceil(7.92) = 8 → 8.0; p50 rank = 4.
        let ring8: Vec<f64> = (1..=8).map(|i| i as f64).collect();
        assert_eq!(quantiles_of(&ring8), (4.0, 8.0));

        // Ring of 67: p99 rank = ceil(66.33) = 67 → 67.0 — the case the
        // old estimator under-reported (rank 66 → 66.0); p50 rank = 34.
        let ring67: Vec<f64> = (1..=67).map(|i| i as f64).collect();
        assert_eq!(quantiles_of(&ring67), (34.0, 67.0));

        // Singleton and empty edge cases.
        assert_eq!(quantiles_of(&[7.25]), (7.25, 7.25));
        assert_eq!(quantiles_of(&[]), (0.0, 0.0));

        // Order of arrival must not matter (the ring is sorted on read).
        let mut shuffled = ring10.clone();
        shuffled.reverse();
        shuffled.swap(2, 7);
        assert_eq!(quantiles_of(&shuffled), (5.0, 10.0));
    }
}
