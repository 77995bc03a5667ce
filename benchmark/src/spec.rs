//! What the benchmark measures: the four workloads, the end-to-end
//! metrics with their regression bounds, and the per-layer metrics with
//! the end-to-end metric and workload each is predicted to move.
//! `BENCHMARK.json` at the repo root repeats the names, units, directions
//! and bounds; a unit test keeps the two in step.

/// One packed city a workload serves (`pack_city --blocks N --dim D`).
#[derive(Debug, Clone, Copy)]
pub struct ShardSpec {
    pub city: &'static str,
    pub blocks: usize,
    pub dim: usize,
    pub origin_x: f64,
}

/// How requests reach the program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Closed loop over HTTP, a new TCP connection per request.
    ClosedNewConn,
    /// Closed loop over HTTP on persistent keep-alive connections.
    ClosedKeepAlive,
    /// Open loop: independent Poisson sources, `rate_rps` in total, a new
    /// connection per request, `POST /v2/recover/stream`.
    OpenStream { rate_rps: f64 },
    /// In-process library path: one submitter thread keeps `outstanding`
    /// submissions in flight.
    BulkWindow { outstanding: usize },
}

impl Shape {
    pub fn is_http(self) -> bool {
        !matches!(self, Shape::BulkWindow { .. })
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub shards: &'static [ShardSpec],
    /// Recovered lengths `l_ρ`; more than one value means mixed.
    pub target_lens: &'static [usize],
    /// Input downsampling (ϵτ = k·ϵρ); more than one value alternates (or
    /// is mixed, for the bulk workload).
    pub downsamples: &'static [usize],
    /// The latency limit `within_limit_ratio` is counted against (for the
    /// streaming workload, on time to first step). A correct answer past it
    /// is not a failed operation: on a shared host a hypervisor pause puts
    /// a handful of requests past any limit, a different handful each run.
    pub limit_ms: f64,
    /// Length of the segments the measured window is cut into; see
    /// [`segments`]. Long enough to hold some fifty requests, so that a
    /// segment's percentiles mean something: half a second, or two and a
    /// half at the open loop's 40 requests a second.
    pub segment_s: f64,
}

/// Distinct trips per workload corpus. The program has no per-request
/// cache today, so the size is recorded but not varied.
pub const CORPUS_TRIPS: usize = 256;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "interactive_short",
        why: "Tiny model, new connection per request, two shards: accept, parse, route, extract, flush wait and JSON are nearly all of the latency; a kernel change predicts no move.",
        shape: Shape::ClosedNewConn,
        shards: &[
            ShardSpec { city: "alpha", blocks: 4, dim: 16, origin_x: 0.0 },
            ShardSpec { city: "beta", blocks: 4, dim: 16, origin_x: 50_000.0 },
        ],
        target_lens: &[17],
        downsamples: &[8],
        limit_ms: 100.0,
        segment_s: 0.5,
    },
    Workload {
        name: "city_long_keepalive",
        why: "City-scale |V|, 129-step recovery at the paper's two input rates on a keep-alive connection: encoder, decoder and kernels dominate; an acceptor or flush-delay fix predicts no move.",
        shape: Shape::ClosedKeepAlive,
        shards: &[ShardSpec { city: "metro", blocks: 14, dim: 64, origin_x: 0.0 }],
        target_lens: &[129],
        downsamples: &[8, 16],
        limit_ms: 250.0,
        segment_s: 0.5,
    },
    Workload {
        name: "stream_open_loop",
        why: "Open-loop Poisson arrivals on the streaming route: the same decoder used per step with chunked writes and mid-decode admission, so a gain for whole responses that costs streams shows.",
        shape: Shape::OpenStream { rate_rps: 40.0 },
        shards: &[ShardSpec { city: "midtown", blocks: 8, dim: 32, origin_x: 0.0 }],
        target_lens: &[65],
        downsamples: &[8],
        limit_ms: 200.0,
        segment_s: 2.5,
    },
    Workload {
        name: "bulk_backfill",
        why: "In-process archive backfill, 32 submissions outstanding, ragged lengths: the only workload that decodes fused batches; http, wire and shard do no work, so a front-end change predicts no move.",
        shape: Shape::BulkWindow { outstanding: 32 },
        shards: &[ShardSpec { city: "archive", blocks: 8, dim: 32, origin_x: 0.0 }],
        target_lens: &[33, 65, 129],
        downsamples: &[8, 16],
        limit_ms: 2000.0,
        segment_s: 0.5,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Closed-loop client threads. One: the driver's machine gives the
/// benchmark two cores of a shared host, and a single sequential chain
/// (client → server → client) keeps at most one of them busy, so a busy
/// neighbour has a core to take that is not ours. Two clients against
/// the server's two workers saturated both cores, and whether the two
/// requests fused into one B=2 batch or ran side by side changed from run
/// to run.
pub const CLOSED_CLIENTS: usize = 1;
/// Independent Poisson sources of the open loop.
pub const OPEN_SOURCES: usize = 2;

// ----- protocol constants ---------------------------------------------------

/// `run_seconds` of the manifest: the measured window of one run.
pub const RUN_SECONDS: u64 = 25;
/// The one command, and the directory that holds the benchmark.
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
pub const PATHS: [&str; 1] = ["benchmark"];

/// Discarded warm-up before the measured window, seconds.
pub const WARMUP_S: f64 = 2.0;
/// The measured window is cut into segments of the workload's
/// `segment_s`, and a metric's value is its value in the segment where it
/// read best. The host is shared: for seconds at a time a neighbour slows
/// CPU-bound work by a third, so a median over the window follows the
/// neighbour (it moved by 25 % between runs of the same code) while the
/// best segment is the program on a quiet machine (5 %).
pub fn segments(w: &Workload, seconds: f64) -> usize {
    ((seconds / w.segment_s).round() as usize).max(3)
}

/// Server boots (or in-process engine starts) per run; `setup_s` is their
/// median.
pub const SETUP_BOOTS: usize = 9;
/// Requests in the in-process layer walk.
pub const WALK_REQUESTS: usize = 128;
/// Open-loop hygiene: generator lag p95 above this marks the run invalid.
pub const MAX_GEN_LAG_P95_MS: f64 = 10.0;

// ----- metrics --------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub definition: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25,
        definition: "spawn serve_http --artifact … → first 200 from /healthz (bulk_backfill: Artifact::read_from + instantiate + RecoveryEngine::start); median of the run's boots" },
    EndToEnd { name: "recover_p50_ms", unit: "ms", better: Lower, bound: 0.25,
        definition: "send (closed loop) or due time (open loop) → last byte of a correct response; p50 of the window's best segment" },
    EndToEnd { name: "ttfs_p50_ms", unit: "ms", better: Lower, bound: 0.25,
        definition: "send or due time → first recovered point readable by the client: the first step event on the streaming route, the first body byte of a whole response, delivery of the result in-process" },
    EndToEnd { name: "throughput_rps", unit: "req/s", better: Higher, bound: 0.25,
        definition: "correct responses ÷ segment length, in the window's best segment" },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.15,
        definition: "server VmHWM at window end (own process for bulk_backfill)" },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this number should shift.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const M_HTTP: &str = "recover_p50_ms on interactive_short; ttfs_p50_ms on stream_open_loop; none on city_long_keepalive beyond overhead_keepalive";
const M_WIRE: &str = "recover_p50_ms on interactive_short; server.cpu_ms_per_request on city_long_keepalive (129-point bodies); http.stream_step_gap_p95_ms on stream_open_loop";
const M_SHARD: &str = "recover_p50_ms on interactive_short (the only two-shard workload; single-shard bypass elsewhere)";
const M_FEAT: &str = "recover_p50_ms on interactive_short; throughput_rps on bulk_backfill (runs on the one submitter thread)";
const M_ENGINE: &str = "queue_wait → recover_p50_ms on interactive_short; batch_size_mean → throughput_rps on bulk_backfill; admitted_ratio → ttfs_p50_ms on stream_open_loop";
const M_SERVICE: &str = "throughput_rps on bulk_backfill; recover_p50_ms on city_long_keepalive";
const M_ENC: &str = "recover_p50_ms and server.cpu_ms_per_request on city_long_keepalive; throughput_rps on bulk_backfill; ttfs_p50_ms on stream_open_loop (first step waits for the encoder); ≈ none on interactive_short";
const M_DEC: &str = "http.stream_step_gap_p95_ms on stream_open_loop; recover_p50_ms on city_long_keepalive; throughput_rps on bulk_backfill";
const M_GRID: &str =
    "artifact.pack_ms (offline); not setup_s while the cache ships inside the artifact";
const M_ART: &str = "setup_s on every workload, most on city_long_keepalive; peak_rss_mb";
const M_KERN: &str =
    "server.cpu_ms_per_request and recover_p50_ms on city_long_keepalive; throughput_rps on bulk_backfill";
const M_SERVER: &str = "cross-check of the outside numbers against the operators' own /metrics";
const M_BUDGET: &str =
    "the budget that adds up: unexplained_ms is the number the next PRs drive down";
const M_OBS: &str = "recover_p50_ms on every workload if tracing stays on by default";

pub const PER_LAYER: [PerLayer; 75] = [
    // http: client spans of the traced pass, and sequential probes against
    // the in-process engine on the same inputs and engine config.
    pl("http.connect_us", "us", Lower, M_HTTP),
    pl("http.first_byte_ms", "ms", Lower, M_HTTP),
    pl("http.overhead_new_conn_ms", "ms", Lower, M_HTTP),
    pl("http.overhead_keepalive_ms", "ms", Lower, M_HTTP),
    pl("http.accept_wait_ms", "ms", Lower, M_HTTP),
    pl("http.stream_step_gap_p95_ms", "ms", Lower, "the streaming client's own tail: p95 over consecutive step-event arrival gaps, stream_open_loop only"),
    pl("http.responses_5xx", "count", Lower, M_HTTP),
    pl("http.shed", "count", Lower, M_HTTP),
    pl("wire.parse_us", "us", Lower, M_WIRE),
    pl("wire.serialize_us", "us", Lower, M_WIRE),
    pl("wire.step_event_us", "us", Lower, M_WIRE),
    pl("wire.request_bytes", "bytes", Lower, M_WIRE),
    pl("wire.response_bytes", "bytes", Lower, M_WIRE),
    pl("wire.allocs_per_request", "count", Lower, M_WIRE),
    pl("shard.resolve_ns", "ns", Lower, M_SHARD),
    pl("shard.route_errors", "count", Lower, M_SHARD),
    pl("features.extract_us", "us", Lower, M_FEAT),
    pl("features.us_per_point", "us", Lower, M_FEAT),
    pl("features.subgraph_nodes_per_point", "nodes", Lower, M_FEAT),
    pl("features.allocs_per_request", "count", Lower, M_FEAT),
    pl("engine.submit_us", "us", Lower, M_ENGINE),
    pl("engine.queue_wait_ms", "ms", Lower, M_ENGINE),
    pl("engine.compute_ms", "ms", Lower, M_ENGINE),
    pl("engine.delivery_us", "us", Lower, M_ENGINE),
    pl("engine.batch_size_mean", "count", Higher, M_ENGINE),
    pl("engine.flush_deadline_ratio", "ratio", Lower, M_ENGINE),
    pl("engine.admitted_ratio", "ratio", Higher, M_ENGINE),
    pl("engine.rejected", "count", Lower, M_ENGINE),
    pl("engine.stream_lagged", "count", Lower, M_ENGINE),
    pl("engine.brownout_shifts", "count", Lower, M_ENGINE),
    pl("service.recover_ms_b1", "ms", Lower, M_SERVICE),
    pl("service.recover_ms_b8", "ms", Lower, M_SERVICE),
    pl("service.fusion_speedup_b8", "ratio", Higher, M_SERVICE),
    pl("encoder.ms_per_request_b1", "ms", Lower, M_ENC),
    pl("encoder.ms_per_request_b8", "ms", Lower, M_ENC),
    pl("encoder.us_per_point_b1", "us", Lower, M_ENC),
    pl("encoder.matmuls_per_batch_b8", "count", Lower, M_ENC),
    pl("encoder.flops_per_request", "flops", Lower, M_ENC),
    pl("encoder.allocs_per_request", "count", Lower, M_ENC),
    pl("encoder.alloc_bytes_per_request", "bytes", Lower, M_ENC),
    pl("decoder.us_per_step_b1", "us", Lower, M_DEC),
    pl("decoder.us_per_step_b8", "us", Lower, M_DEC),
    pl("decoder.stream_us_per_step_b8", "us", Lower, M_DEC),
    pl("decoder.matmuls_per_step_b8", "count", Lower, M_DEC),
    pl("decoder.head_flops_per_step", "flops", Lower, M_DEC),
    pl("decoder.mask_skip_ratio", "ratio", Higher, M_DEC),
    pl("decoder.allocs_per_step", "count", Lower, M_DEC),
    pl("decoder.alloc_bytes_per_step", "bytes", Lower, M_DEC),
    pl("gridgnn.precompute_ms", "ms", Lower, M_GRID),
    pl("gridgnn.matmuls", "count", Lower, M_GRID),
    pl("artifact.pack_ms", "ms", Lower, M_ART),
    pl("artifact.read_ms", "ms", Lower, M_ART),
    pl("artifact.instantiate_ms", "ms", Lower, M_ART),
    pl("artifact.bytes", "bytes", Lower, M_ART),
    pl("kernels.matmul_head_us", "us", Lower, M_KERN),
    pl("kernels.masked_head_us", "us", Lower, M_KERN),
    pl("kernels.attention_us", "us", Lower, M_KERN),
    pl("kernels.layer_norm_us", "us", Lower, M_KERN),
    pl("kernels.segmented_norm_us", "us", Lower, M_KERN),
    pl("kernels.gat_us", "us", Lower, M_KERN),
    pl("kernels.head_bytes_moved", "bytes", Lower, M_KERN),
    pl("server.phase_queue_wait_ms", "ms", Lower, M_SERVER),
    pl("server.phase_compute_ms", "ms", Lower, M_SERVER),
    pl("server.phase_encoder_ms", "ms", Lower, M_SERVER),
    pl("server.phase_decoder_ms", "ms", Lower, M_SERVER),
    pl("server.phase_serialize_ms", "ms", Lower, M_SERVER),
    pl("server.ttfs_ms", "ms", Lower, M_SERVER),
    pl("server.cpu_ms_per_request", "ms", Lower, "the cost side of throughput_rps, most on city_long_keepalive and bulk_backfill; not an end-to-end metric because on this shared host it moves by 10 % between runs of the same code"),
    pl("budget.e2e_p50_ms", "ms", Lower, M_BUDGET),
    pl("budget.e2e_p95_ms", "ms", Lower, "the tail beside the median the budget explains; not an end-to-end metric because under a busy neighbour it stretches by 30 %, past any bound the contract allows"),
    pl("budget.explained_ms", "ms", Lower, M_BUDGET),
    pl("budget.unexplained_ms", "ms", Lower, M_BUDGET),
    pl("budget.frontend_share", "ratio", Lower, M_BUDGET),
    pl("budget.model_share", "ratio", Higher, M_BUDGET),
    pl("obs.trace_overhead_pct", "%", Lower, M_OBS),
];

/// `BENCHMARK.json`, rendered from the tables above
/// (`rnbench --print-manifest > BENCHMARK.json`).
pub fn manifest_json() -> String {
    use crate::report::{num, obj, text as s, uint};
    use serde_json::Value;
    let list = |items: &[&str]| Value::Array(items.iter().map(|i| s(i)).collect());
    let manifest = obj(vec![
        ("command", list(&COMMAND)),
        ("paths", list(&PATHS)),
        ("run_seconds", uint(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&manifest).expect("manifest serializes")
}

/// The three tables of the README, as markdown: every workload and every
/// metric by name, with its unit and what it is for.
pub fn describe() -> String {
    // A literal `|` (as in |V|) would end a markdown table cell.
    let cell = |s: &str| s.replace('|', "\\|");
    let mut out = String::from("| workload | why |\n|---|---|\n");
    for w in &WORKLOADS {
        out.push_str(&format!("| `{}` | {} |\n", w.name, cell(w.why)));
    }
    out.push_str(
        "\n| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            cell(m.definition)
        ));
    }
    out.push_str("\n| per-layer metric | unit | better | moves |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            cell(m.moves)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is the contract later PRs are held to; it must say
    /// exactly what this table says.
    #[test]
    fn manifest_matches_the_registry() {
        let text = include_str!("../../BENCHMARK.json");
        assert_eq!(
            text.trim_end(),
            manifest_json(),
            "regenerate with --print-manifest"
        );
        let v = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| v.get(key).and_then(|x| x.as_array()).expect(key).to_vec();
        let s = |x: &serde_json::Value, key: &str| {
            x.get(key).and_then(|s| s.as_str()).expect(key).to_string()
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(s(got, "name"), want.name);
            assert_eq!(s(got, "why"), want.why);
            assert!(want.why.len() <= 200 && !want.why.contains('\n'));
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(s(got, "name"), want.name);
            assert_eq!(s(got, "unit"), want.unit);
            assert_eq!(s(got, "better"), want.better.as_str());
            assert_eq!(got.get("bound").and_then(|b| b.as_f64()), Some(want.bound));
            assert!(want.bound <= 0.25);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(s(got, "name"), want.name);
            assert_eq!(s(got, "unit"), want.unit);
            assert_eq!(s(got, "better"), want.better.as_str());
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(crate::report::name_ok(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
