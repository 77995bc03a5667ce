//! `rnbench` — the repo benchmark.
//!
//! ```text
//! rnbench --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON line last
//! rnbench --all        [--seed N] [--seconds S]              every workload, both passes
//! rnbench --selfcheck  [--seed N] [--seconds S]              two sets, same code: noise vs bounds
//! rnbench --write-golden                                     refresh benchmark/golden (seed 0)
//! rnbench --check-result FILE                                validate an --all result file
//! rnbench --print-manifest                                   BENCHMARK.json, from the registry
//! rnbench --describe                                         the workload and metric tables, as markdown
//! ```
//!
//! Run it through `benchmark/run.sh`, which first builds this binary and
//! the real `serve_http` and `pack_city` it drives. It claims no gain: it
//! is the instrument later claims are measured with.

mod adapter;
mod alloc;
mod check;
mod client;
mod corpus;
mod load;
mod prep;
mod proc;
mod report;
mod server;
mod spans;
mod spec;
mod stats;
mod walk;
mod window;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde_json::Value;

use adapter::{City, Engine, EngineProfile};
use client::Scrape;
use load::Transport;
use prep::{Dirs, Prepared};
use report::{num, obj, text, uint};
use spec::{Shape, Workload, END_TO_END, PER_LAYER, SETUP_BOOTS, WARMUP_S, WORKLOADS};
use stats::{median, percentile, Segmented};
use window::{Summary, Via};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Trips in the connection-mode probes of the traced pass (each sent over
/// a new connection, a kept-alive one and in-process) behind the
/// `http.overhead_*` numbers.
const PROBE_REQUESTS: usize = 64;
/// Client requests of the traced window kept in the Chrome trace.
const TRACE_REQUESTS: usize = 1000;

enum Mode {
    One {
        workload: &'static Workload,
        trace: bool,
    },
    All,
    SelfCheck,
    WriteGolden,
    CheckResult(PathBuf),
    PrintManifest,
    Describe,
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut trace = false;
    let mut mode = None;
    let mut seed = 0;
    let mut seconds = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(spec::workload(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            // `--window-s` is the issue's name for the same thing.
            "--seconds" | "--window-s" => {
                seconds = Some(value()?.parse::<f64>().map_err(|_| "bad --seconds")?)
            }
            "--trace" => trace = value()? == "1",
            "--all" => mode = Some(Mode::All),
            "--selfcheck" => mode = Some(Mode::SelfCheck),
            "--write-golden" => mode = Some(Mode::WriteGolden),
            "--check-result" => mode = Some(Mode::CheckResult(PathBuf::from(value()?))),
            "--print-manifest" => mode = Some(Mode::PrintManifest),
            "--describe" => mode = Some(Mode::Describe),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let mode = match (mode, workload) {
        (Some(m), _) => m,
        (None, Some(workload)) => Mode::One { workload, trace },
        (None, None) => return Err("give --workload NAME, --all or --selfcheck".into()),
    };
    let seconds = match seconds {
        Some(s) if s >= 1.0 => s,
        Some(_) => return Err("--seconds must be at least 1".into()),
        None => spec::RUN_SECONDS as f64,
    };
    Ok(Args {
        mode,
        seed,
        seconds,
    })
}

fn manifest() -> Result<Value, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

// ----- the end-to-end pass -----------------------------------------------------

struct EndToEndRun {
    summary: Summary,
    /// Every end-to-end metric, `setup_s` included.
    metrics: BTreeMap<&'static str, Segmented>,
    kernel_backend: String,
}

/// The in-process set-up the bulk workload pays: read the artifact,
/// instantiate it, start the engine.
fn library_setup(p: &Prepared) -> Result<(f64, City, Engine), String> {
    let started = Instant::now();
    let city = City::load(&p.artifacts[0])?;
    let engine = Engine::start(&city, EngineProfile::Library);
    Ok((started.elapsed().as_secs_f64(), city, engine))
}

/// Discarded warm-up ahead of a window: `WARMUP_S`, less for the short
/// windows of the smoke run.
fn warmup(window_s: f64) -> f64 {
    WARMUP_S.min(window_s / 3.0)
}

fn run_end_to_end(p: &Prepared, dirs: &Dirs, seconds: f64) -> Result<EndToEndRun, String> {
    let mut setups = Vec::with_capacity(SETUP_BOOTS);
    let (window, kernel_backend) = if p.workload.shape.is_http() {
        let log = dirs.out.join(p.workload.name).join("server.log");
        let mut server = None;
        for _ in 0..SETUP_BOOTS {
            // Stop the previous boot before the next: one server at a time.
            drop(server.take());
            let booted = server::boot(dirs, p, false, &log)?;
            setups.push(booted.setup_s);
            server = Some(booted);
        }
        let mut server = server.expect("SETUP_BOOTS >= 1");
        let window = window::drive(
            p,
            Via::Http(server.addr),
            warmup(seconds),
            seconds,
            Some(server.pid()),
        )?;
        if !server.alive() {
            return Err(format!(
                "serve_http died during the window; see {}",
                log.display()
            ));
        }
        (window, server.kernel_backend.clone())
    } else {
        let mut last = None;
        for _ in 0..SETUP_BOOTS {
            drop(last.take());
            let (setup_s, city, engine) = library_setup(p)?;
            setups.push(setup_s);
            last = Some((city, engine));
        }
        let (_city, engine) = last.expect("SETUP_BOOTS >= 1");
        let engines = [engine];
        let window = window::drive(p, Via::InProcess(&engines), warmup(seconds), seconds, None)?;
        (window, engines[0].counters().kernel_backend)
    };
    let summary = window::summarise(p, &window);
    let mut metrics = summary.metrics.clone();
    metrics.insert(
        "setup_s",
        Segmented {
            value: median(&setups),
            spread: stats::spread(&setups),
        },
    );
    Ok(EndToEndRun {
        summary,
        metrics,
        kernel_backend,
    })
}

// ----- the traced pass -----------------------------------------------------------

struct TracedRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    problem: Option<String>,
    metrics: BTreeMap<&'static str, f64>,
    trace_path: PathBuf,
    walked: usize,
}

/// The connection-mode probes, one request at a time. First every trip
/// over a new connection each — back to back, as the closed loop sends
/// them, because what a new connection waits for is the acceptor's next
/// 10 ms poll and that depends on when the previous request ended. Then
/// every trip over a kept-alive connection and straight into an
/// in-process engine, the two calls of a trip one after the other: they
/// run within tens of milliseconds of each other, so their difference is
/// free of both the trip's own cost and the host's mood, which a median of
/// 64 here minus a median of 64 a second later was not.
#[derive(Default)]
struct Probes {
    /// Latencies of the correct answers, milliseconds.
    new_conn: Vec<f64>,
    keepalive: Vec<f64>,
    direct: Vec<f64>,
    /// Per trip: keep-alive − in-process.
    keepalive_over_direct: Vec<f64>,
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl Probes {
    /// One call; its latency if the answer was correct.
    fn call(&mut self, p: &Prepared, t: &mut dyn Transport, i: usize) -> Option<f64> {
        let call = t.call(i, &p.items[i]);
        self.attempted += 1;
        match window::judge(p, i, &call.answer) {
            check::Verdict::Correct { .. } => {
                return Some((call.done - call.started).as_secs_f64() * 1e3)
            }
            check::Verdict::Failed(_) => {}
            check::Verdict::Wrong(_) => self.wrong += 1,
        }
        self.failed += 1;
        None
    }
}

fn connection_probes(p: &Prepared, addr: std::net::SocketAddr, engines: &[Engine]) -> Probes {
    let mut probes = Probes::default();
    let trips = || p.order.iter().take(PROBE_REQUESTS).copied();
    let mut new_conn = load::HttpNewConn(addr);
    for i in trips() {
        if let Some(ms) = probes.call(p, &mut new_conn, i) {
            probes.new_conn.push(ms);
        }
    }
    let mut keepalive = load::HttpKeepAlive::new(addr);
    let mut direct = load::InProcess {
        engines,
        inputs: &p.inputs,
        stream: false,
    };
    for i in trips() {
        let kept = probes.call(p, &mut keepalive, i);
        let straight = probes.call(p, &mut direct, i);
        if let (Some(kept), Some(straight)) = (kept, straight) {
            probes.keepalive.push(kept);
            probes.direct.push(straight);
            probes.keepalive_over_direct.push(kept - straight);
        }
    }
    probes
}

/// Mean of a `/metrics` histogram over the interval between two scrapes, ms.
fn phase_ms(before: &Scrape, after: &Scrape, family: &str, label: &str) -> f64 {
    let d = |suffix: &str| {
        let name = format!("{family}_{suffix}");
        after.sum(&name, label) - before.sum(&name, label)
    };
    let count = d("count");
    if count > 0.0 {
        d("sum") / count * 1e3
    } else {
        0.0
    }
}

fn server_rows(m: &mut BTreeMap<&'static str, f64>, before: &Scrape, after: &Scrape) {
    const PHASE: &str = "rntrajrec_phase_seconds";
    for (name, phase) in [
        ("server.phase_queue_wait_ms", "queue_wait"),
        ("server.phase_compute_ms", "compute"),
        ("server.phase_encoder_ms", "encoder"),
        ("server.phase_decoder_ms", "decoder"),
        ("server.phase_serialize_ms", "serialize"),
    ] {
        m.insert(
            name,
            phase_ms(before, after, PHASE, &format!("phase=\"{phase}\"")),
        );
    }
    m.insert(
        "server.ttfs_ms",
        phase_ms(before, after, "rntrajrec_time_to_first_step_seconds", ""),
    );
    let d = |name: &str, label: &str| after.sum(name, label) - before.sum(name, label);
    m.insert(
        "http.responses_5xx",
        d("rntrajrec_http_responses_total", "class=\"5xx\""),
    );
    m.insert("http.shed", d("rntrajrec_http_shed_total", ""));
}

/// The `engine.*` rows: the engine's own per-request timings from a
/// window of in-process traffic, and its counters over that window.
fn engine_rows(m: &mut BTreeMap<&'static str, f64>, s: &Summary, engines: &[Engine]) {
    let e = &s.engine;
    m.insert("engine.submit_us", e.submit_ms * 1e3);
    m.insert("engine.queue_wait_ms", e.queue_wait_ms);
    m.insert("engine.compute_ms", e.compute_ms);
    m.insert("engine.delivery_us", e.delivery_ms * 1e3);
    let c: Vec<adapter::EngineCounters> = engines.iter().map(Engine::counters).collect();
    let total = |f: &dyn Fn(&adapter::EngineCounters) -> f64| c.iter().map(f).sum::<f64>();
    let batches = total(&|c| c.batches as f64).max(1.0);
    let requests = total(&|c| c.requests as f64).max(1.0);
    m.insert(
        "engine.batch_size_mean",
        total(&|c| c.mean_batch * c.batches as f64) / batches,
    );
    m.insert(
        "engine.flush_deadline_ratio",
        total(&|c| c.flushed_deadline as f64) / batches,
    );
    m.insert(
        "engine.admitted_ratio",
        total(&|c| c.admitted as f64) / requests,
    );
    m.insert("engine.rejected", total(&|c| c.rejected as f64));
    m.insert("engine.stream_lagged", total(&|c| c.stream_lagged as f64));
    m.insert(
        "engine.brownout_shifts",
        total(&|c| c.brownout_shifts as f64),
    );
}

/// Client-side spans of one window, rebuilt from its timestamps.
fn client_spans(rec: &mut spans::Recorder, w: &window::Window) {
    for (k, s) in w.samples.iter().take(TRACE_REQUESTS).enumerate() {
        let c = &s.call;
        let rid = 1_000_000 + k as u64;
        let root = rec.record("http.request", s.origin.min(c.started), c.done, None, rid);
        let sent_from = c.connected.unwrap_or(c.started);
        if let Some(connected) = c.connected {
            rec.record("http.connect", c.started, connected, Some(root), rid);
        }
        rec.record("http.write", sent_from, c.written, Some(root), rid);
        rec.record(
            "http.wait_first_byte",
            c.written,
            c.first_byte,
            Some(root),
            rid,
        );
        rec.record("http.body", c.first_byte, c.done, Some(root), rid);
    }
}

fn run_traced(p: &Prepared, dirs: &Dirs, seconds: f64) -> Result<TracedRun, String> {
    let w = p.workload;
    let http = w.shape.is_http();
    // Two windows, the engine alone and the layer walk share the run's
    // `--seconds`, so a traced run costs no more than an end-to-end one.
    let part = seconds / 4.0;
    let warm = warmup(part);
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    let mut rec = spans::Recorder::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut wrong = 0;
    let mut problem: Option<String> = None;
    let mut absorb = |s: &Summary| {
        attempted += s.attempted;
        failed += s.failed;
        wrong += s.wrong;
        if problem.is_none() {
            problem.clone_from(&s.first_problem);
        }
    };

    // (a) Untraced: the workload's own traffic, then the connection-mode
    // probes. This is what the budget explains.
    // (b) Traced: the same traffic with the program's tracing on; the
    // difference is the tracing overhead, and `/metrics` gives `server.*`.
    let (plain, traced);
    let mut probes = Probes::default();
    let server_engines = || -> Vec<Engine> {
        p.cities
            .iter()
            .map(|c| Engine::start(c, EngineProfile::Server))
            .collect()
    };
    if http {
        let log = dirs.out.join(w.name).join("server.log");
        let mut server = server::boot(dirs, p, false, &log)?;
        let win = window::drive(p, Via::Http(server.addr), warm, part, Some(server.pid()))?;
        plain = window::summarise(p, &win);
        probes = connection_probes(p, server.addr, &server_engines());
        if !server.alive() {
            return Err(format!("serve_http died; see {}", log.display()));
        }
        drop(server);

        let mut server = server::boot(dirs, p, true, &log)?;
        let before = Scrape::fetch(server.addr)?;
        let win = window::drive(p, Via::Http(server.addr), warm, part, Some(server.pid()))?;
        let after = Scrape::fetch(server.addr)?;
        if !server.alive() {
            return Err(format!("traced serve_http died; see {}", log.display()));
        }
        drop(server);
        traced = window::summarise(p, &win);
        server_rows(&mut m, &before, &after);
        client_spans(&mut rec, &win);

        // The engine alone, same configuration, same traffic shape.
        let engines = server_engines();
        let win = window::drive(p, Via::InProcess(&engines), warm, part / 2.0, None)?;
        let alone = window::summarise(p, &win);
        engine_rows(&mut m, &alone, &engines);
        absorb(&alone);
    } else {
        let (_, _city, engine) = library_setup(p)?;
        let engines = [engine];
        let win = window::drive(p, Via::InProcess(&engines), warm, part, None)?;
        plain = window::summarise(p, &win);
        engine_rows(&mut m, &plain, &engines);
        drop(engines);

        adapter::set_tracing(true);
        let (_, _city, engine) = library_setup(p)?;
        let engines = [engine];
        let before = Scrape::parse(&adapter::render_histograms());
        let win = window::drive(p, Via::InProcess(&engines), warm, part, None);
        adapter::set_tracing(false);
        let after = Scrape::parse(&adapter::render_histograms());
        traced = window::summarise(p, &win?);
        server_rows(&mut m, &before, &after);
    }
    absorb(&plain);
    absorb(&traced);
    attempted += probes.attempted;
    failed += probes.failed;
    wrong += probes.wrong;

    let walked = walk::layer_walk(
        p,
        &server_engines(),
        &mut rec,
        Duration::from_secs_f64(part),
        &mut m,
    )?;

    m.insert("server.cpu_ms_per_request", plain.cpu_ms_per_request);
    // p50 of each window's best segment, as in the end-to-end pass.
    let p50 = |s: &Summary| s.metrics["recover_p50_ms"].value;
    let e2e = p50(&plain);
    if http {
        let new_conn = median(&probes.new_conn);
        m.insert(
            "http.overhead_new_conn_ms",
            new_conn - median(&probes.direct),
        );
        m.insert(
            "http.overhead_keepalive_ms",
            median(&probes.keepalive_over_direct),
        );
        m.insert("http.accept_wait_ms", new_conn - median(&probes.keepalive));
        m.insert("http.first_byte_ms", median(&plain.first_bytes) * 1e3);
        if !plain.connects.is_empty() {
            m.insert("http.connect_us", median(&plain.connects) * 1e6);
        }
        if !plain.step_gaps.is_empty() {
            m.insert(
                "http.stream_step_gap_p95_ms",
                percentile(&plain.step_gaps, 0.95) * 1e3,
            );
        }
    }
    // The budget: the blocking-path layer medians against the end-to-end
    // median. A keep-alive connection pays no connect after its first
    // request, so connect counts only where every request opens one.
    let connect_ms = if matches!(w.shape, Shape::ClosedKeepAlive) {
        0.0
    } else {
        m["http.connect_us"] / 1e3
    };
    let model_ms = m["engine.compute_ms"];
    let explained = connect_ms
        + (m["wire.parse_us"] + m["features.extract_us"] + m["wire.serialize_us"]) / 1e3
        + m["shard.resolve_ns"] / 1e6
        + m["engine.queue_wait_ms"]
        + model_ms;
    m.insert("budget.e2e_p50_ms", e2e);
    m.insert("budget.e2e_p95_ms", plain.recover_p95_ms);
    m.insert("budget.explained_ms", explained);
    m.insert("budget.unexplained_ms", e2e - explained);
    m.insert(
        "budget.frontend_share",
        (e2e - m["engine.queue_wait_ms"] - model_ms) / e2e,
    );
    m.insert("budget.model_share", model_ms / e2e);
    m.insert("obs.trace_overhead_pct", (p50(&traced) - e2e) / e2e * 100.0);

    let trace_path = dirs.out.join(format!("trace.{}.json", w.name));
    std::fs::write(&trace_path, spans::chrome_trace(&rec.spans))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    eprintln!("self time by span (ms, whole traced pass):");
    for (name, ms) in spans::self_ms_by_name(&rec.spans) {
        eprintln!("  {name:<36} {ms:>12.3}");
    }
    Ok(TracedRun {
        correct: wrong == 0,
        attempted,
        failed,
        problem,
        metrics: m,
        trace_path,
        walked,
    })
}

// ----- output --------------------------------------------------------------------

fn e2e_names() -> Vec<&'static str> {
    END_TO_END.iter().map(|m| m.name).collect()
}

fn layer_names() -> Vec<&'static str> {
    PER_LAYER.iter().map(|m| m.name).collect()
}

fn protocol_value(args: &Args) -> Value {
    obj(vec![
        ("seed", uint(args.seed)),
        ("seconds", num(args.seconds)),
        ("warmup_s", num(WARMUP_S)),
        ("setup_boots", uint(SETUP_BOOTS as u64)),
        ("closed_loop_clients", uint(spec::CLOSED_CLIENTS as u64)),
        ("open_loop_sources", uint(spec::OPEN_SOURCES as u64)),
        (
            "available_parallelism",
            uint(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
        ),
        ("corpus_trips", uint(spec::CORPUS_TRIPS as u64)),
        (
            "server_flags",
            text(&format!(
                "--workers {} --conn-workers {} --max-batch {} --max-delay-ms {} --queue-capacity {} (--no-trace end to end); NN_THREADS=1",
                adapter::SERVER_WORKERS,
                adapter::SERVER_CONN_WORKERS,
                adapter::SERVER_MAX_BATCH,
                adapter::SERVER_MAX_DELAY_MS,
                adapter::SERVER_QUEUE_CAPACITY
            )),
        ),
    ])
}

fn e2e_values(run: &EndToEndRun) -> BTreeMap<&'static str, f64> {
    run.metrics.iter().map(|(k, v)| (*k, v.value)).collect()
}

/// `reported`: printed, never compared.
fn reported_value(p: &Prepared, run: &EndToEndRun) -> Value {
    let mut pairs: Vec<(String, Value)> = run
        .summary
        .reported
        .iter()
        .map(|(k, v)| (k.to_string(), num(*v)))
        .collect();
    pairs.push(("valid".into(), Value::Bool(run.summary.valid)));
    pairs.push(("kernel_backend".into(), text(&run.kernel_backend)));
    pairs.push((
        "golden_agreement".into(),
        p.golden_agreement.map_or(Value::Null, num),
    ));
    pairs.push((
        "spread".into(),
        Value::Object(
            run.metrics
                .iter()
                .map(|(k, v)| (k.to_string(), num(v.spread)))
                .collect(),
        ),
    ));
    if let Some(problem) = &run.summary.first_problem {
        pairs.push(("first_problem".into(), text(problem)));
    }
    Value::Object(pairs)
}

fn print_table(title: &str, names: &[&'static str], values: &BTreeMap<&'static str, f64>) {
    println!("{title}");
    for n in names {
        if let Some(v) = values.get(n) {
            println!("  {n:<34} {v:>16.4} {}", report::unit_of(n));
        }
    }
}

fn all_finite(names: &[&'static str], values: &BTreeMap<&'static str, f64>) -> bool {
    names
        .iter()
        .all(|n| values.get(n).is_some_and(|v| v.is_finite()))
}

fn run_one(args: &Args, w: &'static Workload, trace: bool, dirs: &Dirs) -> Result<bool, String> {
    let started = Instant::now();
    let p = prep::prepare(w, args.seed, dirs)?;
    eprintln!(
        "{}: prepared in {:.2} s",
        w.name,
        started.elapsed().as_secs_f64()
    );
    if trace {
        let run = run_traced(&p, dirs, args.seconds)?;
        print_table(
            &format!("{} per-layer (seed {}):", w.name, args.seed),
            &layer_names(),
            &run.metrics,
        );
        println!(
            "reported {}",
            serde_json::to_string(&obj(vec![
                ("trace", text(&run.trace_path.to_string_lossy())),
                ("walk_requests", uint(run.walked as u64)),
                (
                    "first_problem",
                    run.problem.as_deref().map_or(Value::Null, text)
                ),
            ]))
            .expect("serializes")
        );
        let ok = run.correct && all_finite(&layer_names(), &run.metrics);
        println!(
            "{}",
            report::contract_line(
                ok,
                run.attempted,
                run.failed,
                report::metrics_value(&layer_names(), &run.metrics)
            )
        );
        Ok(ok)
    } else {
        let run = run_end_to_end(&p, dirs, args.seconds)?;
        let values = e2e_values(&run);
        print_table(
            &format!("{} end-to-end (seed {}):", w.name, args.seed),
            &e2e_names(),
            &values,
        );
        println!(
            "reported {}",
            serde_json::to_string(&reported_value(&p, &run)).expect("serializes")
        );
        if !run.summary.valid {
            eprintln!(
                "{}: INVALID RUN — the open-loop generator could not keep its schedule",
                w.name
            );
        }
        let ok = run.summary.wrong == 0 && all_finite(&e2e_names(), &values);
        println!(
            "{}",
            report::contract_line(
                ok,
                run.summary.attempted,
                run.summary.failed,
                report::metrics_value(&e2e_names(), &values)
            )
        );
        Ok(ok)
    }
}

/// Every workload, both passes, one result file; the summary ends with
/// `"claim": null`.
fn run_all(args: &Args, dirs: &Dirs) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut all_ok = true;
    for w in &WORKLOADS {
        let p = prep::prepare(w, args.seed, dirs)?;
        let e2e = run_end_to_end(&p, dirs, args.seconds)?;
        let traced = run_traced(&p, dirs, args.seconds)?;
        let values = e2e_values(&e2e);
        print_table(&format!("{} end-to-end:", w.name), &e2e_names(), &values);
        print_table(
            &format!("{} per-layer:", w.name),
            &layer_names(),
            &traced.metrics,
        );
        let correct = e2e.summary.wrong == 0 && traced.correct;
        println!(
            "{}: correct={} valid={} attempted={} succeeded={} failed={}",
            w.name,
            correct,
            e2e.summary.valid,
            e2e.summary.attempted,
            e2e.summary.attempted - e2e.summary.failed,
            e2e.summary.failed
        );
        all_ok &= correct && e2e.summary.valid;
        workloads.push((
            w.name,
            obj(vec![
                ("why", text(w.why)),
                ("correct", Value::Bool(correct)),
                ("valid", Value::Bool(e2e.summary.valid)),
                ("attempted", uint(e2e.summary.attempted)),
                (
                    "succeeded",
                    uint(e2e.summary.attempted - e2e.summary.failed),
                ),
                ("failed", uint(e2e.summary.failed)),
                ("end_to_end", report::metrics_value(&e2e_names(), &values)),
                (
                    "per_layer",
                    report::metrics_value(&layer_names(), &traced.metrics),
                ),
                ("reported", reported_value(&p, &e2e)),
                ("trace", text(&traced.trace_path.to_string_lossy())),
                ("walk_requests", uint(traced.walked as u64)),
            ]),
        ));
    }
    let summary = obj(vec![
        ("workloads", uint(WORKLOADS.len() as u64)),
        ("all_correct_and_valid", Value::Bool(all_ok)),
        ("claim", Value::Null),
    ]);
    let result = obj(vec![
        ("protocol", protocol_value(args)),
        ("workloads", obj(workloads)),
        ("summary", summary.clone()),
    ]);
    let path = dirs.out.join("result.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&result).expect("serializes"),
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result written to {}", path.display());
    println!("{}", serde_json::to_string(&summary).expect("serializes"));
    Ok(all_ok)
}

/// Two full end-to-end sets, same code, same seed: the difference is the
/// benchmark's own noise, which must sit inside every bound.
fn run_selfcheck(args: &Args, dirs: &Dirs) -> Result<bool, String> {
    let mut ok = true;
    for w in &WORKLOADS {
        let p = prep::prepare(w, args.seed, dirs)?;
        let first = run_end_to_end(&p, dirs, args.seconds)?;
        let second = run_end_to_end(&p, dirs, args.seconds)?;
        for run in [&first, &second] {
            ok &= run.summary.wrong == 0 && run.summary.valid;
        }
        println!("{}:", w.name);
        println!(
            "  {:<22} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}",
            "metric", "first", "second", "diff", "bound", "spread1", "spread2"
        );
        for def in &END_TO_END {
            let (a, b) = (first.metrics[def.name], second.metrics[def.name]);
            let diff = (b.value - a.value).abs() / a.value.abs();
            let within = diff <= def.bound;
            ok &= within;
            println!(
                "  {:<22} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}% {:>7.1}% {:>7.1}% {}",
                def.name,
                a.value,
                b.value,
                diff * 100.0,
                def.bound * 100.0,
                a.spread * 100.0,
                b.spread * 100.0,
                if within { "" } else { "EXCEEDS BOUND" }
            );
        }
    }
    Ok(ok)
}

fn write_golden(dirs: &Dirs) -> Result<bool, String> {
    std::fs::create_dir_all(&dirs.golden).map_err(|e| e.to_string())?;
    for w in &WORKLOADS {
        let p = prep::prepare(w, 0, dirs)?;
        let path = Prepared::golden_path(dirs, w);
        std::fs::write(&path, p.render_golden()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(true)
}

fn run(args: &Args) -> Result<bool, String> {
    match args.mode {
        Mode::PrintManifest => {
            println!("{}", spec::manifest_json());
            return Ok(true);
        }
        Mode::Describe => {
            print!("{}", spec::describe());
            return Ok(true);
        }
        _ => {}
    }
    if let Mode::CheckResult(path) = &args.mode {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let result = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        report::check_result(&manifest()?, &result)?;
        println!("{} agrees with BENCHMARK.json", path.display());
        return Ok(true);
    }
    let dirs = Dirs::locate()?;
    match &args.mode {
        Mode::One { workload, trace } => run_one(args, workload, *trace, &dirs),
        Mode::All => run_all(args, &dirs),
        Mode::SelfCheck => run_selfcheck(args, &dirs),
        Mode::WriteGolden => write_golden(&dirs),
        Mode::CheckResult(_) | Mode::PrintManifest | Mode::Describe => {
            unreachable!("handled above")
        }
    }
}

fn main() -> ExitCode {
    // Before any thread exists: the environment the program's knobs read.
    adapter::pin_environment();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rnbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rnbench: {e}");
            ExitCode::FAILURE
        }
    }
}
