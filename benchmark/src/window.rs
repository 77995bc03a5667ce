//! One measured window: drive the workload's traffic shape at a target,
//! sample the target's CPU at the segment boundaries, then check every
//! answer and reduce the samples to per-segment metric values.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::adapter::Engine;
use crate::check::{self, Verdict};
use crate::corpus;
use crate::load::{self, Sample, Transport};
use crate::prep::Prepared;
use crate::proc;
use crate::spec::{self, Shape};
use crate::stats::{self, Segmented};

/// Where the traffic goes.
#[derive(Clone, Copy)]
pub enum Via<'a> {
    Http(SocketAddr),
    /// In-process engines, one per city of the workload.
    InProcess(&'a [Engine]),
}

pub struct Window {
    pub samples: Vec<Sample>,
    /// Segment boundaries: one instant more than there are segments, the
    /// first one at or just after the end of warm-up. These are the
    /// instants the CPU counter was read at, so a segment's CPU, length
    /// and requests line up exactly.
    pub bounds: Vec<Instant>,
    /// CPU milliseconds of the target process at each boundary.
    pub cpu_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Share of the machine's CPU time the hypervisor stole during the
    /// measured window, percent (`None` where the kernel does not say).
    pub host_steal_pct: Option<f64>,
}

/// Reads the target's CPU counter at the segment boundaries. In a closed
/// loop a boundary falls on a completion — the first one a segment's length or
/// more after the previous boundary — so every segment holds a whole
/// number of requests (and, where the engine delivers a fused batch at
/// once, of batches) and nothing is split across two segments. The open
/// loop's boundaries are the planned instants its arrival counts are
/// conditioned on.
struct Sampler {
    pid: Option<u32>,
    segment: Duration,
    state: Mutex<SamplerState>,
}

struct SamplerState {
    /// No boundary before this instant (the end of warm-up, then
    /// `segment` after each boundary).
    next_at: Instant,
    taken: Vec<(Instant, f64)>,
    error: Option<String>,
}

impl Sampler {
    fn new(pid: Option<u32>, first_at: Instant, segment: Duration) -> Self {
        Self {
            pid,
            segment,
            state: Mutex::new(SamplerState {
                next_at: first_at,
                taken: Vec::new(),
                error: None,
            }),
        }
    }

    /// A request completed at `now`.
    fn completed(&self, now: Instant) {
        let mut st = self.state.lock().expect("sampler");
        if now >= st.next_at {
            st.next_at = now + self.segment;
            Self::take(&mut st, self.pid, now);
        }
    }

    fn take(st: &mut SamplerState, pid: Option<u32>, at: Instant) {
        match proc::cpu_ms(pid) {
            Ok(cpu) => st.taken.push((at, cpu)),
            Err(e) => st.error = Some(e),
        }
    }

    fn boundary(&self, at: Instant) {
        Self::take(&mut self.state.lock().expect("sampler"), self.pid, at);
    }

    fn finish(self) -> Result<(Vec<Instant>, Vec<f64>), String> {
        let st = self.state.into_inner().expect("sampler");
        match st.error {
            Some(e) => Err(e),
            None if st.taken.len() < 2 => Err("the window held no whole segment".into()),
            None => Ok(st.taken.into_iter().unzip()),
        }
    }
}

/// Run warm-up plus `seconds` of measured traffic. `pid` is the process
/// whose CPU and memory are charged (`None`: this process).
pub fn drive(
    p: &Prepared,
    via: Via<'_>,
    warmup_s: f64,
    seconds: f64,
    pid: Option<u32>,
) -> Result<Window, String> {
    let segments = spec::segments(p.workload, seconds);
    let seg = seconds / segments as f64;
    let epoch = Instant::now() + Duration::from_millis(20);
    let measured_from = epoch + Duration::from_secs_f64(warmup_s);
    let stop_at = measured_from + Duration::from_secs_f64(seconds);
    let sampler = Sampler::new(pid, measured_from, Duration::from_secs_f64(seg));

    let transport = || -> Box<dyn Transport + '_> {
        match (via, p.workload.shape) {
            (Via::Http(addr), Shape::ClosedNewConn) => Box::new(load::HttpNewConn(addr)),
            (Via::Http(addr), Shape::ClosedKeepAlive) => Box::new(load::HttpKeepAlive::new(addr)),
            (Via::Http(addr), _) => Box::new(load::HttpStream(addr)),
            (Via::InProcess(engines), _) => Box::new(load::InProcess {
                engines,
                inputs: &p.inputs,
                stream: p.streams(),
            }),
        }
    };

    let steal_before = proc::host_steal();
    let samples = match (p.workload.shape, via) {
        (Shape::BulkWindow { outstanding }, Via::InProcess(engines)) => {
            proc::sleep_until(epoch);
            load::bulk_window(
                &p.cities[0],
                &engines[0],
                &p.requests,
                &p.order,
                outstanding,
                stop_at,
                &|item, answer, now| {
                    sampler.completed(now);
                    judge(p, item, answer)
                },
            )
        }
        (Shape::BulkWindow { .. }, Via::Http(_)) => {
            unreachable!("the bulk workload has no HTTP form")
        }
        (Shape::OpenStream { rate_rps }, _) => {
            // Warm-up and each segment hold a fixed count of arrivals.
            let mut spans = vec![(0.0, warmup_s)];
            spans.extend((0..segments).map(|k| (warmup_s + seg * k as f64, seg)));
            let per_source = rate_rps / spec::OPEN_SOURCES as f64;
            let schedules: Vec<Vec<f64>> = (0..spec::OPEN_SOURCES)
                .map(|src| corpus::poisson_schedule(p.seed, src, per_source, &spans))
                .collect();
            std::thread::scope(|s| {
                let driver =
                    s.spawn(|| load::open_loop(&transport, &p.items, &p.order, &schedules, epoch));
                for k in 0..=segments {
                    let at = measured_from + Duration::from_secs_f64(seg * k as f64);
                    proc::sleep_until(at);
                    sampler.boundary(Instant::now());
                }
                driver.join().expect("load driver panicked")
            })
        }
        _ => {
            proc::sleep_until(epoch);
            let each = (0..spec::CLOSED_CLIENTS).map(|_| transport()).collect();
            load::closed_loop(each, &p.items, &p.order, stop_at, &|now| {
                sampler.completed(now)
            })
        }
    };
    let steal_after = proc::host_steal();
    let (bounds, cpu_ms) = sampler.finish()?;
    Ok(Window {
        samples,
        bounds,
        cpu_ms,
        peak_rss_mb: proc::peak_rss_mb(pid)?,
        host_steal_pct: match (steal_before, steal_after) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                Some((s1 - s0) as f64 / (t1 - t0) as f64 * 100.0)
            }
            _ => None,
        },
    })
}

/// The `engine.*` timings of a window, milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineRows {
    pub submit_ms: f64,
    pub queue_wait_ms: f64,
    pub compute_ms: f64,
    /// Completion inside the engine → result in the caller's hands.
    pub delivery_ms: f64,
}

/// A window reduced to numbers.
pub struct Summary {
    pub attempted: u64,
    /// Failed, refused or wrong.
    pub failed: u64,
    /// Answers that arrived and were wrong. Any at all fails the run.
    pub wrong: u64,
    pub first_problem: Option<String>,
    /// Every end-to-end metric but `setup_s`, with its segment spread.
    pub metrics: BTreeMap<&'static str, Segmented>,
    /// CPU the target process used per correct response, in the segment
    /// where that read lowest (`server.cpu_ms_per_request`).
    pub cpu_ms_per_request: f64,
    /// p95 latency in the segment where it read lowest
    /// (`budget.e2e_p95_ms`).
    pub recover_p95_ms: f64,
    /// Printed, not compared.
    pub reported: BTreeMap<&'static str, f64>,
    /// Open-loop hygiene (always true for closed loops).
    pub valid: bool,
    /// Pooled over the window, correct answers only, seconds.
    pub latencies: Vec<f64>,
    pub step_gaps: Vec<f64>,
    pub connects: Vec<f64>,
    pub first_bytes: Vec<f64>,
    /// The engine's own account of a request (in-process windows only):
    /// the median of each time in the segment where it read lowest, so
    /// the layer rows and the end-to-end p50 they explain are taken the
    /// same way.
    pub engine: EngineRows,
    pub batch_sizes: Vec<f64>,
}

/// Check one answer against its trip's reference.
pub fn judge(p: &Prepared, item: usize, answer: &load::Answer) -> Verdict {
    check::check(answer, &p.expected[item])
}

pub fn summarise(p: &Prepared, w: &Window) -> Summary {
    let segments = w.bounds.len() - 1;
    let open = matches!(p.workload.shape, Shape::OpenStream { .. });
    let limit_s = p.workload.limit_ms / 1000.0;
    let seg_of = |s: &Sample| {
        // Open-loop requests belong to the segment they were due in;
        // closed-loop ones to the segment they completed in, the
        // completion a boundary fell on being the last of its segment.
        let at = s.counted_at;
        (0..segments).find(|&k| {
            if open {
                at >= w.bounds[k] && at < w.bounds[k + 1]
            } else {
                at > w.bounds[k] && at <= w.bounds[k + 1]
            }
        })
    };

    let mut per_seg: Vec<Vec<&Sample>> = vec![Vec::new(); segments];
    let mut sum = Summary {
        attempted: 0,
        failed: 0,
        wrong: 0,
        first_problem: None,
        metrics: BTreeMap::new(),
        cpu_ms_per_request: f64::NAN,
        recover_p95_ms: f64::NAN,
        reported: BTreeMap::new(),
        valid: true,
        latencies: Vec::new(),
        step_gaps: Vec::new(),
        connects: Vec::new(),
        first_bytes: Vec::new(),
        engine: EngineRows::default(),
        batch_sizes: Vec::new(),
    };
    let mut within = 0u64;
    let mut lags = Vec::new();
    for s in &w.samples {
        let Some(k) = seg_of(s) else { continue };
        sum.attempted += 1;
        lags.push(s.lag.as_secs_f64());
        let batch_size = match judge(p, s.item, &s.call.answer) {
            Verdict::Correct { batch_size } => batch_size,
            Verdict::Wrong(why) => {
                sum.wrong += 1;
                sum.failed += 1;
                sum.first_problem
                    .get_or_insert(format!("trip {}: wrong answer: {why}", s.item));
                continue;
            }
            Verdict::Failed(why) => {
                sum.failed += 1;
                sum.first_problem
                    .get_or_insert(format!("trip {}: failed: {why}", s.item));
                continue;
            }
        };
        // Correct, however slow: a late answer stays in the percentiles and
        // the throughput, and shows in `within_limit_ratio`.
        let judged = if open {
            s.first_point_s()
        } else {
            s.latency_s()
        };
        sum.latencies.push(s.latency_s());
        sum.first_bytes
            .push((s.call.first_byte - s.call.started).as_secs_f64());
        if let Some(c) = s.call.connected {
            sum.connects.push((c - s.call.started).as_secs_f64());
        }
        sum.step_gaps
            .extend(s.call.steps.windows(2).map(|p| (p[1] - p[0]).as_secs_f64()));
        sum.batch_sizes.extend(batch_size.map(|b| b as f64));
        within += u64::from(judged <= limit_s);
        per_seg[k].push(s);
    }

    let seg_s: Vec<f64> = (0..segments)
        .map(|k| (w.bounds[k + 1] - w.bounds[k]).as_secs_f64())
        .collect();
    // A segment the host all but paused holds a few lucky requests; its
    // percentiles mean nothing, so latencies are read only from segments
    // with at least half the usual count.
    let counts: Vec<f64> = per_seg.iter().map(|ss| ss.len() as f64).collect();
    let usual = stats::median(&counts);
    let per = |higher: bool, f: &dyn Fn(usize, &[&Sample]) -> f64| -> Segmented {
        let values: Vec<f64> = (0..segments).map(|k| f(k, &per_seg[k])).collect();
        stats::best_segment(&values, higher)
    };
    let latency = |f: &dyn Fn(&Sample) -> f64, q: f64| -> Segmented {
        per(false, &|_, ss| {
            if (ss.len() as f64) < usual / 2.0 {
                return f64::NAN;
            }
            let ms: Vec<f64> = ss.iter().map(|s| f(s) * 1e3).collect();
            stats::percentile(&ms, q)
        })
    };
    let m = &mut sum.metrics;
    m.insert("recover_p50_ms", latency(&Sample::latency_s, 0.50));
    m.insert("ttfs_p50_ms", latency(&Sample::first_point_s, 0.50));
    m.insert(
        "throughput_rps",
        per(true, &|k, ss| ss.len() as f64 / seg_s[k]),
    );
    m.insert(
        "peak_rss_mb",
        Segmented {
            value: w.peak_rss_mb,
            spread: 0.0,
        },
    );
    // The tails, taken the same way but not compared: under a busy
    // neighbour they stretch by twice what the medians do.
    sum.recover_p95_ms = latency(&Sample::latency_s, 0.95).value;
    let ttfs_p95_ms = latency(&Sample::first_point_s, 0.95).value;

    let engine = |f: &dyn Fn(&load::EngineTimes) -> f64| -> f64 {
        latency(&|s| s.call.engine.as_ref().map_or(f64::NAN, f), 0.50).value
    };
    sum.engine = EngineRows {
        submit_ms: engine(&|e| e.submit_s),
        queue_wait_ms: engine(&|e| e.queue_wait_s),
        compute_ms: engine(&|e| e.compute_s),
        delivery_ms: engine(&|e| (e.latency_s - e.queue_wait_s - e.compute_s).max(0.0)),
    };
    sum.cpu_ms_per_request = per(false, &|k, ss| {
        (w.cpu_ms[k + 1] - w.cpu_ms[k]) / ss.len() as f64
    })
    .value;

    let r = &mut sum.reported;
    r.insert("cpu_ms_per_request", sum.cpu_ms_per_request);
    r.insert("recover_p95_ms", sum.recover_p95_ms);
    r.insert("ttfs_p95_ms", ttfs_p95_ms);
    let all_lat: Vec<f64> = sum.latencies.iter().map(|s| s * 1e3).collect();
    r.insert("samples", sum.attempted as f64);
    r.extend(w.host_steal_pct.map(|pct| ("host_steal_pct", pct)));
    r.insert(
        "within_limit_ratio",
        within as f64 / sum.attempted.max(1) as f64,
    );
    // The whole window, neighbours and all: what a user saw during this run.
    r.insert("window_p50_ms", stats::percentile(&all_lat, 0.50));
    r.insert("window_p95_ms", stats::percentile(&all_lat, 0.95));
    r.insert(
        "window_throughput_rps",
        all_lat.len() as f64 / (w.bounds[segments] - w.bounds[0]).as_secs_f64(),
    );
    let points: usize = per_seg
        .iter()
        .flatten()
        .map(|s| p.items[s.item].trip.target_len)
        .sum();
    r.insert(
        "window_points_per_s",
        points as f64 / (w.bounds[segments] - w.bounds[0]).as_secs_f64(),
    );
    if stats::supports_percentile(all_lat.len(), 0.99) {
        r.insert("recover_p99_ms", stats::percentile(&all_lat, 0.99));
    }
    if !sum.batch_sizes.is_empty() {
        r.insert("served_batch_size_mean", stats::mean(&sum.batch_sizes));
    }
    if let Shape::OpenStream { rate_rps } = p.workload.shape {
        let lag_p95_ms = stats::percentile(&lags, 0.95) * 1e3;
        let end = w.bounds[segments];
        let backlog = w
            .samples
            .iter()
            .filter(|s| s.origin < end && s.call.done > end)
            .count();
        r.insert("gen_lag_p95_ms", lag_p95_ms);
        r.insert("backlog_at_end", backlog as f64);
        // An open loop holds rate × latency requests in flight (Little's
        // law), so the backlog that signals a growing queue is the one the
        // latency limit itself could not explain, plus one per source.
        let steady = spec::OPEN_SOURCES as f64 + rate_rps * limit_s;
        sum.valid = lag_p95_ms <= spec::MAX_GEN_LAG_P95_MS && backlog as f64 <= steady;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Closed-loop boundaries fall on completions, never closer together
    /// than a segment, and never before the end of warm-up.
    #[test]
    fn boundaries_fall_on_completions() {
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let sampler = Sampler::new(None, ms(100), Duration::from_millis(50));
        for done in [40, 90, 104, 120, 153, 154, 160, 230, 260, 281] {
            sampler.completed(ms(done));
        }
        let (bounds, cpu_ms) = sampler.finish().expect("this process has a CPU counter");
        assert_eq!(bounds, [ms(104), ms(154), ms(230), ms(281)]);
        assert_eq!(cpu_ms.len(), bounds.len());
    }

    #[test]
    fn a_window_without_a_whole_segment_is_an_error() {
        let t0 = Instant::now();
        let sampler = Sampler::new(None, t0, Duration::from_millis(50));
        sampler.completed(t0 + Duration::from_millis(1));
        assert!(sampler.finish().is_err());
    }
}
