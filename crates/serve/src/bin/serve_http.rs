//! `serve_http` — the standalone HTTP serving front-end.
//!
//! Boots one or more city shards, starts a micro-batching
//! [`RecoveryEngine`](rntrajrec_serve::RecoveryEngine) per shard plus the
//! HTTP/1.1 server over a
//! [`ShardRouter`], and serves until `SIGTERM`/`SIGINT`, then drains
//! gracefully (listener stops accepting, in-flight requests and queued
//! batches finish) and exits 0.
//!
//! Every shard boots from a versioned model artifact (see
//! `rntrajrec-artifact` / the `pack_city` tool) through
//! [`CityShard::from_artifact`], the loader hot reload shares:
//!
//! * `--artifact PATH` (repeatable) — each file is one city shard;
//!   requests route by bounding box, and `SIGHUP` rescans every artifact
//!   path for a zero-downtime reload (as does `POST /admin/reload` per
//!   shard);
//! * no `--artifact` — the default city (4 × 4 blocks, d = 16, seed 7,
//!   50 m grid) is packed in memory and served as the single shard
//!   `"default"`, model version `in-process`.
//!
//! ```bash
//! cargo run --release -p rntrajrec-serve --bin serve_http -- --addr 127.0.0.1:8080
//! # In another shell:
//! curl -s localhost:8080/healthz
//! curl -s localhost:8080/v1/example | curl -s -X POST --data-binary @- localhost:8080/v1/recover
//! curl -s localhost:8080/metrics
//! ```
//!
//! Weights are untrained (startup in milliseconds, latency identical to a
//! trained model); recovery *quality* needs trained weights — see
//! `examples/serve_city.rs` for the train-then-serve flow.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rntrajrec_artifact::{pack_fresh, Artifact};
use rntrajrec_roadnet::CityConfig;
use rntrajrec_serve::{
    BrownoutConfig, CityShard, EngineConfig, HttpConfig, HttpServer, ShardRouter,
};

/// The default city, packed in memory when no `--artifact` is given:
/// blocks per side, model hidden size and weight seed.
const DEFAULT_BLOCKS: usize = 4;
const DEFAULT_DIM: usize = 16;
const DEFAULT_SEED: u64 = 7;

/// Set by the signal handler; polled by the main loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);
/// Set by `SIGHUP`; the main loop rescans every shard's artifact path.
static RELOAD: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    unsafe extern "C" fn on_signal(sig: i32) {
        // Async-signal-safe: a single relaxed store.
        if sig == 1 {
            RELOAD.store(true, Ordering::Relaxed);
        } else {
            SHUTDOWN.store(true, Ordering::Relaxed);
        }
    }
    unsafe extern "C" {
        /// C library `signal(2)`; always linked, no crate needed.
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGHUP: i32 = 1;
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as unsafe extern "C" fn(i32);
    unsafe {
        signal(SIGTERM, handler as usize);
        signal(SIGINT, handler as usize);
        signal(SIGHUP, handler as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

struct Args {
    addr: String,
    queue_capacity: Option<usize>,
    deadline_ms: u64,
    max_batch: usize,
    max_delay_ms: u64,
    workers: usize,
    conn_workers: usize,
    trace: bool,
    trace_out: Option<String>,
    batch_timeout_ms: Option<u64>,
    brownout: bool,
    /// City shards to load from packed artifacts; empty = the default
    /// city packed in memory.
    artifacts: Vec<String>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".to_string(),
            queue_capacity: Some(64),
            deadline_ms: 5000,
            max_batch: 8,
            max_delay_ms: 2,
            workers: 2,
            conn_workers: 4,
            trace: true,
            trace_out: None,
            batch_timeout_ms: Some(30_000),
            brownout: true,
            artifacts: Vec::new(),
        }
    }
}

const USAGE: &str = "serve_http — RNTrajRec HTTP serving front-end

USAGE: serve_http [OPTIONS]

OPTIONS:
    --addr HOST:PORT        bind address (default 127.0.0.1:8080; port 0 = ephemeral)
    --queue-capacity N|none admission bound on the engine queue (default 64;
                            0 sheds every request, none = unbounded)
    --deadline-ms N         per-request completion budget -> 503 (default 5000)
    --max-batch N           micro-batch flush size (default 8)
    --max-delay-ms N        how long a busy engine may hold a partial micro-batch
                            open (default 2); an idle engine flushes at once
    --workers N             engine worker threads (default 2)
    --conn-workers N        HTTP connection-handler threads (default 4)
    --artifact PATH         load a packed city artifact as a shard (repeatable;
                            requests route by bounding box, SIGHUP reloads all;
                            none = the default 4x4-block city packed in memory)
    --no-trace              disable request-lifecycle span recording (on by default)
    --trace-out PATH        dump a Chrome trace-event JSON of recorded spans on exit
    --batch-timeout-ms N|none  watchdog budget per batch -> affected members 503
                            (default 30000; none disables the watchdog)
    --no-brownout           disable load-watermark shedding (brownout)
    --help                  print this help

ENVIRONMENT:
    CHAOS_FAULTS            deterministic fault injection spec, e.g.
                            'engine.worker=panic@0.01;http.write=delay:50@0.1'
                            (points: http.accept http.read http.parse
                            engine.submit engine.batch engine.worker
                            kernel.dispatch http.write)
    CHAOS_SEED              RNG seed for exact fault replay (default 0)
    NN_BACKEND              kernel backend: scalar | avx2 | auto (default auto;
                            avx2 falls back to scalar on hosts without AVX2+FMA);
                            kernels run on the caller's thread, so each engine
                            worker computes on one core
    NN_QUANT_HEAD           1 | true | int8 serves the int8 segment head
                            (default: the f32 sparse head)
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        // Flags that take no value must short-circuit before the value
        // fetch below.
        if flag == "--no-trace" {
            args.trace = false;
            continue;
        }
        if flag == "--no-brownout" {
            args.brownout = false;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let parse_usize = |v: &str| {
            v.parse::<usize>()
                .map_err(|_| format!("bad value for {flag}: {v}"))
        };
        let parse_u64 = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("bad value for {flag}: {v}"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value,
            "--queue-capacity" => {
                args.queue_capacity = if value == "none" {
                    None
                } else {
                    Some(parse_usize(&value)?)
                }
            }
            "--deadline-ms" => args.deadline_ms = parse_u64(&value)?,
            "--max-batch" => args.max_batch = parse_usize(&value)?.max(1),
            "--max-delay-ms" => args.max_delay_ms = parse_u64(&value)?,
            "--workers" => args.workers = parse_usize(&value)?.max(1),
            "--conn-workers" => args.conn_workers = parse_usize(&value)?.max(1),
            "--artifact" => args.artifacts.push(value),
            "--trace-out" => args.trace_out = Some(value),
            "--batch-timeout-ms" => {
                args.batch_timeout_ms = if value == "none" {
                    None
                } else {
                    Some(parse_u64(&value)?.max(1))
                }
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    install_signal_handlers();
    rntrajrec_obs::set_enabled(args.trace);

    // Deterministic fault injection, armed from the environment only —
    // never by default. One relaxed atomic load per point when disarmed.
    match rntrajrec_chaos::configure_from_env() {
        Ok(true) => {
            let points: Vec<String> = rntrajrec_chaos::snapshot()
                .iter()
                .map(|p| {
                    let cap = p.limit.map_or(String::new(), |n| format!("x{n}"));
                    format!("{}={}@{}{cap}", p.point, p.kind, p.prob)
                })
                .collect();
            eprintln!(
                "CHAOS ARMED: seed={} points=[{}] — faults will be injected deliberately",
                rntrajrec_chaos::seed(),
                points.join(", "),
            );
        }
        Ok(false) => {}
        Err(e) => {
            eprintln!("error: bad CHAOS_FAULTS: {e}");
            return ExitCode::from(2);
        }
    }

    let engine_config = EngineConfig {
        max_batch: args.max_batch,
        max_delay: Duration::from_millis(args.max_delay_ms),
        workers: args.workers,
        queue_capacity: args.queue_capacity,
        batch_timeout: args.batch_timeout_ms.map(Duration::from_millis),
        brownout: args.brownout.then_some(BrownoutConfig),
        ..EngineConfig::default()
    };

    let booted = if args.artifacts.is_empty() {
        eprintln!(
            "packing the default city ({DEFAULT_BLOCKS}x{DEFAULT_BLOCKS} blocks) + RNTrajRec(d={DEFAULT_DIM}, seed={DEFAULT_SEED}) in memory..."
        );
        let city = CityConfig {
            blocks_x: DEFAULT_BLOCKS,
            blocks_y: DEFAULT_BLOCKS,
            ..CityConfig::tiny()
        };
        let artifact = pack_fresh(
            "default",
            "in-process",
            &city,
            50.0,
            DEFAULT_DIM,
            DEFAULT_SEED,
        );
        open_shard(&artifact, None, &engine_config).map(|shard| vec![shard])
    } else {
        args.artifacts
            .iter()
            .map(|path| {
                let artifact = Artifact::read_from(Path::new(path))
                    .map_err(|e| format!("cannot load artifact {path}: {e}"))?;
                open_shard(&artifact, Some(path), &engine_config)
            })
            .collect()
    };
    let shards = match booted {
        Ok(shards) => shards,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let router = Arc::new(ShardRouter::new(shards));
    println!(
        "kernels: backend={} segment_head={}",
        rntrajrec_nn::kernels::backend::active_name(),
        router.shards()[0].engine().stats().segment_head,
    );
    for shard in router.shards() {
        let b = shard.bbox();
        println!(
            "shard '{}': bbox [{:.0}, {:.0}] x [{:.0}, {:.0}] m, model_version={}",
            shard.name(),
            b.min_x,
            b.max_x,
            b.min_y,
            b.max_y,
            shard.info().model_version,
        );
    }

    let server = match HttpServer::start_router(
        Arc::clone(&router),
        HttpConfig {
            addr: args.addr.clone(),
            connection_workers: args.conn_workers,
            deadline: Duration::from_millis(args.deadline_ms),
            ..HttpConfig::default()
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: failed to bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };

    println!("listening on http://{}", server.local_addr());
    println!(
        "admission: queue_capacity={:?} deadline={}ms; engine: max_batch={} max_delay={}ms workers={}",
        args.queue_capacity,
        args.deadline_ms,
        args.max_batch,
        args.max_delay_ms,
        args.workers,
    );
    println!(
        "resilience: self-healing workers, watchdog={} brownout={}",
        match args.batch_timeout_ms {
            Some(ms) => format!("{ms}ms"),
            None => "off".to_string(),
        },
        if args.brownout { "on" } else { "off" },
    );

    while !SHUTDOWN.load(Ordering::Relaxed) {
        if RELOAD.swap(false, Ordering::Relaxed) {
            // SIGHUP: re-read every shard that was booted from an artifact.
            // A failed reload leaves that shard's old model serving.
            for shard in router.shards() {
                let Some(path) = shard.info().artifact_path else {
                    eprintln!(
                        "reload: shard '{}' has no artifact path, skipping",
                        shard.name()
                    );
                    continue;
                };
                match shard.reload_from_artifact(&path) {
                    Ok(r) => eprintln!(
                        "reload: shard '{}' now model_version={} git_sha={} (reload #{})",
                        r.city, r.model_version, r.git_sha, r.reloads
                    ),
                    Err(e) => eprintln!(
                        "reload: shard '{}' refused ({e}); old model still serving",
                        shard.name()
                    ),
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    eprintln!("signal received: draining (listener closed, in-flight batches finish)...");
    server.shutdown();
    // The server handle is gone, so this is the last router reference:
    // drain each shard's engine explicitly and report the post-drain
    // counters (requests still queued at SIGTERM are served and must show
    // in the totals).
    let shards = match Arc::try_unwrap(router) {
        Ok(router) => router.into_shards(),
        Err(_) => Vec::new(),
    };
    let mut total = (0u64, 0u64, 0u64, 0u64);
    for shard in shards {
        let name = shard.name().to_string();
        let stats = match Arc::try_unwrap(shard.into_engine()) {
            Ok(engine) => engine.drain(),
            Err(engine) => engine.stats(),
        };
        eprintln!(
            "drained '{}': {} served / {} rejected / {} failed over {} sessions ({:.2} members each, admissions included)",
            name, stats.completed, stats.rejected, stats.failed, stats.batches, stats.mean_batch
        );
        total.0 += stats.completed;
        total.1 += stats.rejected;
        total.2 += stats.failed;
        total.3 += stats.batches;
    }
    eprintln!(
        "drained: {} served / {} rejected / {} failed over {} sessions",
        total.0, total.1, total.2, total.3
    );

    if let Some(path) = &args.trace_out {
        let trace = rntrajrec_obs::chrome_trace(&rntrajrec_obs::drain());
        match std::fs::write(path, &trace) {
            Ok(()) => eprintln!("trace written to {path} ({} bytes)", trace.len()),
            Err(e) => {
                eprintln!("error: failed to write trace to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Open one shard through the artifact loader and log where it came from
/// (`path: None` — packed in memory).
fn open_shard(
    artifact: &Artifact,
    path: Option<&str>,
    config: &EngineConfig,
) -> Result<CityShard, String> {
    let source = path.unwrap_or("memory");
    let shard = CityShard::from_artifact(artifact, path.map(PathBuf::from), config.clone())
        .map_err(|e| format!("artifact {source} cannot serve: {e}"))?;
    let info = shard.info();
    eprintln!(
        "loaded shard '{}' from {source}: model_version={} git_sha={} ({} segments)",
        shard.name(),
        info.model_version,
        info.git_sha,
        shard.ctx().net().num_segments(),
    );
    Ok(shard)
}
