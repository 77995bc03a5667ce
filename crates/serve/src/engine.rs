//! The micro-batching recovery engine.
//!
//! Requests are appended to a shared queue; worker threads pop *batches*.
//! The flush rule is work-conserving: while **no session is in flight**
//! a worker takes whatever is queued at once — a lone request costs what
//! the model costs, nothing is gained by holding it. While a session *is*
//! in flight (the only evidence that more arrivals are coming, and that
//! mid-decode admission may absorb them) a batch flushes as soon as it
//! reaches [`EngineConfig::max_batch`] requests, or when its oldest
//! request has waited [`EngineConfig::max_delay`] (size bounds scheduling
//! overhead under load, the deadline bounds what batching may cost a
//! request). [`EngineStats`] counts each cause on its own
//! (`flushed_idle` / `flushed_full` / `flushed_deadline`).
//!
//! Each flushed batch is recovered through the **fully fused inference
//! path** against the shared read-only [`ServingModel`]: one stacked
//! encoder pass for the whole batch (every Linear/attention projection is
//! a single `[ΣL, d]` matmul; RNTrajRec's GraphNorm — whose *batch*
//! statistics are why naive cross-request fusion would change results —
//! keeps its statistics scoped per member through segmented kernels), then
//! the fused decoder runs one `[B, ·]` matmul per head per step instead of
//! `B` separate `[1, ·]` products. Every fused kernel keeps the member's
//! own per-element accumulation order, so batched results remain
//! **bit-identical** to sequential per-request inference regardless of
//! batch composition, worker count, or arrival order — property-tested in
//! this crate and in `rntrajrec-models/tests/batch_decode_parity.rs`.
//!
//! # A session, state by state
//!
//! A flushed batch becomes one `Session` on its worker. The worker owns
//! the decode loop — it steps a [`rntrajrec_models::DecodeState`] — and
//! exactly one party answers each member, through the one `deliver`
//! function; a session's members are answered by whoever takes its
//! registration (the *claim*) out of the worker's slot:
//!
//! | state | what happens | who may answer the members |
//! |---|---|---|
//! | queued | waiting in the queue | nobody yet |
//! | open | registered in the claim slot, `engine.worker` chaos point | the worker (an injected error fails the batch, an injected panic is caught by its loop); the supervisor (stalled past the watchdog budget) |
//! | decoding | encode the batch, then per tick: take newcomers from the queue (encode, admit), retire members whose handle is gone, tick, fan the steps out to streaming sinks | the worker's loop, if a panic escapes the session; the supervisor (watchdog); newcomers join the claim. The session itself answers just the newcomers it *refuses* at the gate — already abandoned — which never joined |
//! | isolating | only after a panic in the fused pass: each member whose handle is still held again, alone, through `ServingModel::recover_caught` — nobody admitted, nothing streamed, a re-run once started not cut by a dropped handle, and none of it in the `encoder` / `decoder` phase histograms — so only the bad one fails | as in decoding |
//! | closed | compute is over: in-flight gauge lowered, claim taken back | the worker answers every member; if the supervisor got to the claim first, it already has, and the results are dropped |
//!
//! # Self-healing
//!
//! Workers heal in place. A panic the session's own isolation does not
//! absorb — an injected `engine.batch` / `engine.worker` fault, or a bug
//! in the bookkeeping around the decode — unwinds to the worker's loop
//! (lowering the in-flight gauge on the way), which answers the session's
//! members with typed errors through the claim slot, counts it in
//! [`EngineStats::worker_restarts`] and takes the next batch; no thread
//! dies. Every lock the worker holds recovers from poisoning, so a caught
//! panic cannot turn into a hot loop.
//!
//! A dedicated supervisor thread, every 10 ms:
//!
//! - **watches for hung batches**: when [`EngineConfig::batch_timeout`]
//!   is set, a batch computing past the budget has its members failed
//!   with typed timeout errors (the HTTP layer maps these to `503`)
//!   instead of wedging their clients forever,
//! - **drives brownout**: a [`BrownoutController`] watching queue depth
//!   and queue-wait p99 switches the engine between `normal` and `shed`,
//!   where new submissions are refused with [`EngineError::Brownout`].
//!   Brownout never touches a request it admitted: the segment head and
//!   the batching knobs are the configured ones in both states,
//! - samples the **drain rate** (completions/sec) that the HTTP layer
//!   turns into adaptive `Retry-After` values.
//!
//! The engine keeps no deadline of its own: a caller that stops waiting
//! drops its [`RecoveryHandle`], and the member is cut out of the fused
//! batch between steps through the decoder's state-compaction path
//! (survivors bit-identical), counted in
//! [`EngineStats::abandoned_cancelled`]. The HTTP layer drops the handle
//! when its budget runs out. [`Recovered::timed_out`] marks only the
//! watchdog's failures.
//!
//! Chaos fault points ([`rntrajrec_chaos`]): `engine.submit` (admission),
//! `engine.batch` (batch assembly), `engine.worker` (per batch, outside
//! the session's panic isolation — the healing test surface).

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rntrajrec_models::{BatchMember, DecodeState, InferOutput, SampleInput, StepOut};
use rntrajrec_obs::metrics::{self, Histogram};

use crate::brownout::{mode_name, BrownoutConfig, BrownoutController};
use crate::service::{panic_message, RecoveredPath};
use crate::ServingModel;

/// Micro-batching knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Flush a batch as soon as it holds this many requests.
    pub max_batch: usize,
    /// How long a partial batch may be held open *while the engine is
    /// busy*: with a session in flight, a non-empty batch flushes once its
    /// oldest request is this old. An idle engine never waits — it
    /// flushes whatever is queued at once, whatever this is set to.
    pub max_delay: Duration,
    /// Worker threads executing batches.
    pub workers: usize,
    /// Ignored: kernels run on the caller's thread, so a worker uses
    /// exactly one. The field stays only while `benchmark/src/adapter.rs`
    /// still names it.
    pub threads_per_worker: usize,
    /// Admission bound on the waiting queue: [`RecoveryEngine::submit`]
    /// rejects with [`EngineError::Overloaded`] once this many requests
    /// are already waiting (requests being *executed* in a flushed batch
    /// no longer count). `None` keeps the queue unbounded — the
    /// pre-admission-control behaviour. `Some(0)` sheds every request
    /// (useful for drain/maintenance modes and for deterministically
    /// exercising the rejection path).
    pub queue_capacity: Option<usize>,
    /// Watchdog budget for one batch's fused compute: a batch still
    /// running after this long has its members failed with typed timeout
    /// errors (`503` at the HTTP layer) so a stalled kernel cannot wedge
    /// clients forever. `None` disables the watchdog.
    pub batch_timeout: Option<Duration>,
    /// `Some` runs the brownout controller, its depth watermarks derived
    /// from [`EngineConfig::queue_capacity`] (see [`crate::brownout`]);
    /// `None` disables it (`shed` can still be forced via
    /// [`RecoveryEngine::set_brownout_override`]).
    pub brownout: Option<BrownoutConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(2, |n| n.get().min(8));
        Self {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            workers,
            threads_per_worker: 0,
            queue_capacity: None,
            batch_timeout: None,
            brownout: None,
        }
    }
}

/// Bound on each streaming submission's step-event queue. A consumer that
/// falls this many undelivered [`StepUpdate`]s behind the decode loop is
/// degraded to summary-only — its step sink is closed (the terminal
/// [`Recovered`] still arrives) and [`EngineStats::stream_lagged`] counts
/// it — instead of buffering without bound inside the engine.
const STREAM_QUEUE: usize = 256;
/// Supervisor cadence: watchdog scans, drain-rate sampling and brownout
/// ticks all run at this interval.
const SUPERVISE_EVERY: Duration = Duration::from_millis(10);

/// Per-submission options for [`RecoveryEngine::submit`] — the one
/// submission entry point. Build with the fluent setters:
///
/// ```ignore
/// let handle = engine.submit(input, SubmitOptions::new().stream())?;
/// ```
///
/// There is no deadline option: a caller that stops waiting drops the
/// handle, which cancels the request.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Observability request id ([`rntrajrec_obs::next_request_id`]),
    /// minted by the caller at the protocol edge so engine spans join the
    /// caller's span tree. When `None` and tracing is enabled, the engine
    /// mints one so its spans stay attributable.
    pub trace: Option<rntrajrec_obs::RequestId>,
    /// Open a streaming sink: the handle's [`RecoveryHandle::steps`] /
    /// [`RecoveryHandle::next_step`] yield one [`StepUpdate`] per decoded
    /// step, before the terminal [`Recovered`].
    pub stream: bool,
}

impl SubmitOptions {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn trace(mut self, trace: Option<rntrajrec_obs::RequestId>) -> Self {
        self.trace = trace;
        self
    }

    pub fn stream(mut self) -> Self {
        self.stream = true;
        self
    }
}

/// Typed submission failure: the engine refused a request rather than
/// queueing it. Surfaced so callers (the HTTP layer maps these to `429`/
/// `503`) can shed load instead of growing the queue — and with it tail
/// latency — without bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The waiting queue is at [`EngineConfig::queue_capacity`].
    Overloaded {
        /// Requests waiting when the submission was refused.
        queue_depth: usize,
        /// The configured bound.
        capacity: usize,
    },
    /// Brownout is at `shed`: the engine is
    /// protecting itself and refuses new work until pressure drops.
    Brownout,
    /// A chaos fault point injected an admission error
    /// (`engine.submit`); only occurs with faults armed.
    FaultInjected {
        /// The fault point that fired.
        point: &'static str,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Overloaded {
                queue_depth,
                capacity,
            } => write!(
                f,
                "engine overloaded: {queue_depth} requests waiting (capacity {capacity})"
            ),
            EngineError::Brownout => {
                write!(f, "engine shedding load: brownout ladder at 'shed'")
            }
            EngineError::FaultInjected { point } => {
                write!(f, "chaos: injected error at {point}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// One completed recovery.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// Submission id (monotonically increasing per engine).
    pub id: u64,
    /// Predicted `(segment, moving-rate)` per target step. Empty when
    /// [`Recovered::error`] is set.
    pub path: Vec<(usize, f32)>,
    /// `Some(message)` if recovery failed for this request (a malformed
    /// input, a crashed worker, a timeout); the engine itself stays up.
    pub error: Option<String>,
    /// The failure was a *time* failure: the watchdog killed its hung
    /// batch. The HTTP layer maps these to `503` (retryable) rather than
    /// `500`.
    pub timed_out: bool,
    /// Members of the decode session this request was answered from,
    /// admissions included: the flushed batch plus everyone admitted into
    /// it before this answer went out.
    pub batch_size: usize,
    /// Submit-to-completion latency
    /// (≈ [`Recovered::queue_wait`] + [`Recovered::compute`] + delivery).
    pub latency: Duration,
    /// Time spent waiting in the queue: submit → batch flush.
    pub queue_wait: Duration,
    /// Time spent in fused inference: batch flush → results ready.
    /// Shared by the whole batch (one fused pass serves every member).
    pub compute: Duration,
}

/// One decoded step of an in-flight streamed recovery, delivered through
/// [`RecoveryHandle::steps`] / [`RecoveryHandle::next_step`] as the fused
/// decoder produces it (requires [`SubmitOptions::stream`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepUpdate {
    /// Submission id (matches [`RecoveryHandle::id`]).
    pub id: u64,
    /// 0-based step index within this request's recovery; strictly
    /// monotonic per request.
    pub step: usize,
    /// Predicted road segment for this step.
    pub segment: usize,
    /// Predicted moving rate for this step.
    pub rate: f32,
    /// Log-probability of the chosen segment under the masked head.
    pub logprob: f32,
}

/// Outcome of one bounded wait for the next streamed step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepWait {
    /// A decoded step arrived.
    Step(StepUpdate),
    /// The stream is over (or the submission was not streaming): no more
    /// steps will arrive; the terminal [`Recovered`] is ready or imminent
    /// — collect it with [`RecoveryHandle::poll`] / [`RecoveryHandle::wait`].
    Finished,
    /// Nothing arrived within the timeout; the request is still decoding.
    TimedOut,
}

/// Handle to an in-flight request.
///
/// **Dropping the handle cancels the request** — the only way to: an
/// abandoned member still queued is failed at admission, and one already
/// decoding inside a fused batch is cancelled between steps through the
/// state-compaction path that retires finished members (survivors
/// bit-identical) — the engine does not decode results nobody will read.
#[derive(Debug)]
pub struct RecoveryHandle {
    id: u64,
    rx: mpsc::Receiver<Recovered>,
    /// Step sink (present when submitted with [`SubmitOptions::stream`]).
    steps: Option<mpsc::Receiver<StepUpdate>>,
    /// Result cached by a successful [`RecoveryHandle::poll`].
    done: Option<Recovered>,
    /// Shared with the engine; set on drop to request cancellation.
    abandoned: Arc<AtomicBool>,
}

impl RecoveryHandle {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Non-blocking, non-consuming completion check: `Some` once the
    /// terminal result is in, caching it so later `poll`/`wait` calls
    /// return the same result without touching the channel.
    pub fn poll(&mut self) -> Option<&Recovered> {
        if self.done.is_none() {
            match self.rx.try_recv() {
                Ok(r) => self.done = Some(r),
                Err(mpsc::TryRecvError::Empty) => {}
                Err(mpsc::TryRecvError::Disconnected) => {
                    panic!("recovery engine dropped before completing request")
                }
            }
        }
        self.done.as_ref()
    }

    /// Block until the recovery completes (a trivial wrapper over the
    /// polling machinery: cached result or one blocking receive).
    pub fn wait(mut self) -> Recovered {
        if let Some(r) = self.done.take() {
            return r;
        }
        self.rx
            .recv()
            .expect("recovery engine dropped before completing request")
    }

    /// Block at most `timeout` for the result. On timeout the handle is
    /// returned so the caller can keep waiting — or drop it, which
    /// cancels the request mid-decode (see the type docs). The HTTP
    /// layer waits out its per-request budget this way, mapping a
    /// timeout to `503`.
    // The Err variant IS the handle, returned to the caller on purpose;
    // boxing it would push an allocation onto every deadline miss.
    #[allow(clippy::result_large_err)]
    pub fn wait_timeout(mut self, timeout: Duration) -> Result<Recovered, RecoveryHandle> {
        if let Some(r) = self.done.take() {
            return Ok(r);
        }
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Ok(r),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(self),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                panic!("recovery engine dropped before completing request")
            }
        }
    }

    /// Wait at most `timeout` for the next streamed step. Returns
    /// [`StepWait::Finished`] immediately for non-streaming submissions.
    pub fn next_step(&self, timeout: Duration) -> StepWait {
        let Some(rx) = &self.steps else {
            return StepWait::Finished;
        };
        match rx.recv_timeout(timeout) {
            Ok(s) => StepWait::Step(s),
            Err(mpsc::RecvTimeoutError::Timeout) => StepWait::TimedOut,
            Err(mpsc::RecvTimeoutError::Disconnected) => StepWait::Finished,
        }
    }

    /// Blocking iterator over the streamed steps; ends when the decode
    /// finishes (empty for non-streaming submissions). Steps per request
    /// arrive in strictly increasing `step` order.
    pub fn steps(&self) -> Steps<'_> {
        Steps {
            rx: self.steps.as_ref(),
        }
    }
}

impl Drop for RecoveryHandle {
    fn drop(&mut self) {
        // Request mid-decode cancellation for whoever stops listening:
        // the session's retire step and admission gate read this flag.
        // Harmless after completion (nothing reads it).
        self.abandoned.store(true, Ordering::Relaxed);
    }
}

/// Blocking step iterator for a streamed recovery
/// (see [`RecoveryHandle::steps`]).
#[derive(Debug)]
pub struct Steps<'a> {
    rx: Option<&'a mpsc::Receiver<StepUpdate>>,
}

impl Iterator for Steps<'_> {
    type Item = StepUpdate;

    fn next(&mut self) -> Option<StepUpdate> {
        self.rx.and_then(|rx| rx.recv().ok())
    }
}

/// Aggregate engine counters (snapshot).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    pub requests: u64,
    pub completed: u64,
    /// Requests that completed with an error ([`Recovered::error`]):
    /// inference panics, worker crashes, watchdog timeouts, dropped
    /// handles.
    pub failed: u64,
    /// Submissions refused by admission control
    /// ([`EngineError::Overloaded`] or [`EngineError::Brownout`]).
    pub rejected: u64,
    pub batches: u64,
    /// Batches flushed because they reached `max_batch`.
    pub flushed_full: u64,
    /// Partial batches flushed because their oldest request had waited
    /// `max_delay` (or by shutdown drain): held open behind a session in
    /// flight, or already that old when a worker came back for them.
    pub flushed_deadline: u64,
    /// Partial batches flushed at once because no session was in flight
    /// (the idle-engine rule: nothing to wait for).
    pub flushed_idle: u64,
    /// Mean members per decode session, admissions included: every
    /// flushed batch member plus every request admitted mid-decode,
    /// over the sessions opened (`batches`). Not the width a session
    /// fuses at, which admission and retirement keep changing.
    pub mean_batch: f64,
    /// Mean per-request queue wait (submit → batch flush), milliseconds.
    pub mean_queue_wait_ms: f64,
    /// Mean per-request compute (batch flush → results ready), ms.
    pub mean_compute_ms: f64,
    /// Panics that escaped a session, each caught by its worker's loop
    /// (which answered the session's members and kept serving).
    pub worker_restarts: u64,
    /// Hung batches killed by the watchdog (each fails its members).
    pub watchdog_timeouts: u64,
    /// Requests spliced into an already-decoding batch between steps
    /// (continuous batching) instead of waiting for the next flush.
    pub admitted: u64,
    /// Requests cancelled because their [`RecoveryHandle`] was dropped
    /// before completion — at the admission gate, between decode steps or
    /// instead of a re-run.
    pub abandoned_cancelled: u64,
    /// Brownout transitions (into or out of `shed`) since start.
    pub brownout_shifts: u64,
    /// Streaming consumers degraded to summary-only because they fell 256
    /// undelivered steps behind the decode loop (the terminal result still
    /// arrives).
    pub stream_lagged: u64,
    /// Models hot-swapped into the live engine
    /// ([`RecoveryEngine::swap_model`]).
    pub model_swaps: u64,
    /// Active brownout mode name (`normal` or `shed`).
    pub brownout_mode: String,
    /// Recent completion rate (requests/sec) sampled by the supervisor;
    /// the numerator of adaptive `Retry-After`.
    pub drain_rate_per_sec: f64,
    /// Recent queue-wait p99 (ms) — the latency watermark the brownout
    /// controller watches.
    pub queue_wait_p99_ms: f64,
    /// Active kernel backend (`rntrajrec_nn::kernels::backend::active_name`):
    /// `"scalar"` or `"avx2"`.
    pub kernel_backend: String,
    /// Decoder segment head new sessions decode with: `"sparse"`, or
    /// `"int8"` when the model serves the int8 head (`NN_QUANT_HEAD=1`).
    /// Brownout never changes it.
    pub segment_head: String,
}

/// What answering a request takes. Its session's claim slot holds a
/// clone, so the members can be answered for a panicked or hung session.
#[derive(Clone)]
struct Reply {
    id: u64,
    enqueued: Instant,
    /// When the request left the queue — flushed into a batch, or taken by
    /// a running session's admission gate: the boundary between its queue
    /// wait and its compute. `enqueued` while it is still queued.
    taken: Instant,
    tx: mpsc::Sender<Recovered>,
}

/// A request from submit to delivery: first waiting in the queue, then a
/// member of one decode session.
struct Pending {
    reply: Reply,
    /// Observability request id (present when the submitter traced the
    /// request, or tracing was enabled at submit).
    trace: Option<rntrajrec_obs::RequestId>,
    input: SampleInput,
    /// Per-step sink for streaming submissions (bounded; a full queue
    /// degrades the member to summary-only instead of blocking decode).
    step_tx: Option<mpsc::SyncSender<StepUpdate>>,
    /// Set by [`RecoveryHandle`]'s drop: nobody will read a path.
    abandoned: Arc<AtomicBool>,
}

impl Pending {
    /// Its handle is gone: it should not be decoded (any further).
    fn abandoned(&self) -> bool {
        self.abandoned.load(Ordering::Relaxed)
    }
}

/// Why a request ends without a path.
#[derive(Clone)]
enum Failure {
    /// Its [`RecoveryHandle`] was dropped — seen at the admission gate,
    /// before one of its decode steps, or instead of its re-run.
    Abandoned,
    /// Inference panicked on it, a panic escaped its session, or a chaos
    /// point injected an error.
    Error(String),
    /// The watchdog gave up on its session.
    Hung(String),
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
    flushed_full: AtomicU64,
    flushed_deadline: AtomicU64,
    flushed_idle: AtomicU64,
    batched_requests: AtomicU64,
    in_flight_batches: AtomicUsize,
    worker_restarts: AtomicU64,
    watchdog_timeouts: AtomicU64,
    admitted: AtomicU64,
    abandoned_cancelled: AtomicU64,
    brownout_shifts: AtomicU64,
    /// Streaming consumers degraded to summary-only because their step
    /// queue filled ([`STREAM_QUEUE`]).
    stream_lagged: AtomicU64,
    /// Models installed over a live engine ([`RecoveryEngine::swap_model`]).
    model_swaps: AtomicU64,
    /// Σ queue wait across completed requests, nanoseconds.
    queue_wait_ns: AtomicU64,
    /// Σ compute across completed requests, nanoseconds.
    compute_ns: AtomicU64,
}

/// A session's registration in its worker's claim slot: what the
/// supervisor needs to answer every member on the worker's behalf.
struct InFlight {
    /// Watchdog clock: session open, restarted by every admission.
    started: Instant,
    batch_size: usize,
    members: Vec<Reply>,
}

/// One worker's claim slot. The worker registers its batch here before
/// computing and claims it back before delivering; the supervisor's
/// watchdog — or the worker's own loop, after a panic — can take it
/// instead, in which case exactly one side delivers.
#[derive(Default)]
struct WorkerSlot {
    inflight: Mutex<Option<InFlight>>,
}

/// Hot-swappable model slot: the engine's one indirection between "a
/// worker is about to run a batch" and "which weights it runs on".
///
/// Workers read the slot **once per decode session**, at batch assembly —
/// so a swap takes effect on the next batch, while in-flight batches
/// finish on the weights they started with (their `Arc` keeps the old
/// model alive; no drain, no pause). Zero-downtime reload is this slot
/// plus the artifact loader above it.
pub struct ModelSlot {
    inner: Mutex<Arc<ServingModel>>,
}

impl ModelSlot {
    fn new(model: Arc<ServingModel>) -> Self {
        Self {
            inner: Mutex::new(model),
        }
    }

    /// The model new batches will run on.
    pub fn current(&self) -> Arc<ServingModel> {
        Arc::clone(&self.inner.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Install `model` for all future batches; returns the one it
    /// replaced (which in-flight batches may still be running on).
    fn swap(&self, model: Arc<ServingModel>) -> Arc<ServingModel> {
        std::mem::replace(
            &mut *self.inner.lock().unwrap_or_else(|e| e.into_inner()),
            model,
        )
    }
}

struct Shared {
    model: ModelSlot,
    queue: Mutex<VecDeque<Pending>>,
    cond: Condvar,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    counters: Counters,
    max_batch: usize,
    max_delay: Duration,
    queue_capacity: Option<usize>,
    batch_timeout: Option<Duration>,
    /// Active brownout level (0 normal, 1 shed).
    brownout_level: AtomicU8,
    /// Manual brownout override (ops/maintenance knob and test hook);
    /// `AUTO_LEVEL` defers to the controller.
    brownout_override: AtomicU8,
    /// Recent queue-wait samples (ms), ring-buffered for the p99 the
    /// brownout controller watches.
    queue_wait_ring: Mutex<VecDeque<f64>>,
    /// f64 bits: completions/sec over the supervisor's sample window.
    drain_rate_bits: AtomicU64,
    /// f64 bits: queue-wait p99 ms over the ring.
    queue_wait_p99_bits: AtomicU64,
}

const AUTO_LEVEL: u8 = u8::MAX;
const QUEUE_WAIT_RING_CAP: usize = 512;
/// Drain-rate window: this many supervisor ticks of (time, completed)
/// samples.
const DRAIN_SAMPLES: usize = 100;

impl Shared {
    fn level(&self) -> u8 {
        self.brownout_level.load(Ordering::Relaxed)
    }

    /// The queue, whoever panicked while holding it: its contents stay
    /// valid (every critical section only pushes or drains whole requests).
    fn queue(&self) -> MutexGuard<'_, VecDeque<Pending>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enter or leave `shed`, counting the shift. Idempotent per level.
    fn set_level(&self, level: u8) {
        if self.brownout_level.swap(level, Ordering::Relaxed) != level {
            self.counters
                .brownout_shifts
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The one way a request ends: build its terminal [`Recovered`],
    /// account for it — `completed`, `failed` and the cause counter, its
    /// own queue wait and compute into the sums behind
    /// [`EngineStats::mean_queue_wait_ms`] / `mean_compute_ms`, the
    /// `queue_wait` phase histogram and the brownout controller's ring —
    /// and send it. `done` is when its compute ended; `batch_size` the size
    /// of the session it ends in. Callers hold the right to answer: the
    /// claim taken out of the worker's slot, or a request that never joined
    /// a session.
    fn deliver(
        &self,
        reply: &Reply,
        outcome: Result<RecoveredPath, Failure>,
        batch_size: usize,
        done: Instant,
    ) {
        let c = &self.counters;
        c.completed.fetch_add(1, Ordering::Relaxed);
        let (path, error, timed_out) = match outcome {
            Ok(path) => (path, None, false),
            Err(failure) => {
                c.failed.fetch_add(1, Ordering::Relaxed);
                let (error, timed_out) = match failure {
                    Failure::Abandoned => {
                        c.abandoned_cancelled.fetch_add(1, Ordering::Relaxed);
                        ("request abandoned; cancelled".to_string(), false)
                    }
                    Failure::Error(msg) => (msg, false),
                    Failure::Hung(msg) => (msg, true),
                };
                (Vec::new(), Some(error), timed_out)
            }
        };
        let queue_wait = reply.taken.saturating_duration_since(reply.enqueued);
        let compute = done.saturating_duration_since(reply.taken);
        c.queue_wait_ns
            .fetch_add(queue_wait.as_nanos() as u64, Ordering::Relaxed);
        c.compute_ns
            .fetch_add(compute.as_nanos() as u64, Ordering::Relaxed);
        meters().queue_wait.observe_duration(queue_wait);
        {
            let mut ring = self
                .queue_wait_ring
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if ring.len() == QUEUE_WAIT_RING_CAP {
                ring.pop_front();
            }
            ring.push_back(queue_wait.as_secs_f64() * 1e3);
        }
        let _ = reply.tx.send(Recovered {
            id: reply.id,
            path,
            error,
            timed_out,
            batch_size,
            latency: reply.enqueued.elapsed(),
            queue_wait,
            compute,
        });
    }

    /// Answer every member of a worker's in-flight session with `failure`,
    /// if one is registered. Returns whether there was one. Exactly-once
    /// delivery: whoever takes the `InFlight` out of the slot owns
    /// delivery.
    fn fail_inflight(&self, slot: &WorkerSlot, failure: Failure) -> bool {
        let taken = slot
            .inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        let Some(flight) = taken else {
            return false;
        };
        let now = Instant::now();
        for reply in &flight.members {
            self.deliver(reply, Err(failure.clone()), flight.batch_size, now);
        }
        true
    }
}

/// The histograms the engine feeds (process-global series, resolved once).
struct Meters {
    queue_wait: Arc<Histogram>,
    compute: Arc<Histogram>,
    encoder: Arc<Histogram>,
    decoder: Arc<Histogram>,
    batch_size: Arc<Histogram>,
    batch_occupancy: Arc<Histogram>,
    ttfs: Arc<Histogram>,
}

fn meters() -> &'static Meters {
    static METERS: OnceLock<Meters> = OnceLock::new();
    METERS.get_or_init(|| Meters {
        queue_wait: metrics::phase_seconds("queue_wait"),
        compute: metrics::phase_seconds("compute"),
        encoder: metrics::phase_seconds("encoder"),
        decoder: metrics::phase_seconds("decoder"),
        batch_size: metrics::batch_size(),
        batch_occupancy: metrics::batch_occupancy(),
        ttfs: metrics::time_to_first_step(),
    })
}

/// The multi-threaded online recovery engine.
pub struct RecoveryEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl RecoveryEngine {
    /// Start `config.workers` threads over a shared model, plus the
    /// supervisor thread that runs the batch watchdog, samples the drain
    /// rate and drives brownout.
    pub fn start(model: Arc<ServingModel>, config: EngineConfig) -> Self {
        assert!(config.max_batch >= 1, "max_batch must be >= 1");
        assert!(config.workers >= 1, "workers must be >= 1");
        let shared = Arc::new(Shared {
            model: ModelSlot::new(model),
            queue: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            counters: Counters::default(),
            max_batch: config.max_batch,
            max_delay: config.max_delay,
            queue_capacity: config.queue_capacity,
            batch_timeout: config.batch_timeout,
            brownout_level: AtomicU8::new(0),
            brownout_override: AtomicU8::new(AUTO_LEVEL),
            queue_wait_ring: Mutex::new(VecDeque::with_capacity(QUEUE_WAIT_RING_CAP)),
            drain_rate_bits: AtomicU64::new(0f64.to_bits()),
            queue_wait_p99_bits: AtomicU64::new(0f64.to_bits()),
        });
        let slots: Vec<Arc<WorkerSlot>> = (0..config.workers).map(|_| Arc::default()).collect();
        let workers: Vec<JoinHandle<()>> = (slots.iter().enumerate())
            .map(|(i, slot)| spawn_worker(&shared, slot, i))
            .collect();
        let controller = config
            .brownout
            .map(|_| BrownoutController::new(config.queue_capacity));
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("rntrajrec-supervisor".into())
                .spawn(move || supervisor_loop(&shared, &slots, controller))
                .expect("spawn engine supervisor")
        };
        Self {
            shared,
            workers,
            supervisor: Some(supervisor),
        }
    }

    /// Enqueue a request; returns immediately with a waitable handle, or
    /// [`EngineError::Overloaded`] when the queue is at
    /// [`EngineConfig::queue_capacity`] — the typed load-shedding path
    /// (never blocks, never drops silently). Everything per-submission —
    /// trace id, streaming — rides in [`SubmitOptions`]; the queue itself
    /// is FIFO.
    ///
    /// Dropping the handle cancels the request, between decode steps if
    /// it is already decoding (survivors bit-identical). With
    /// [`SubmitOptions::stream`], each decoded step is delivered through
    /// the handle before the terminal result.
    pub fn submit(
        &self,
        input: SampleInput,
        opts: SubmitOptions,
    ) -> Result<RecoveryHandle, EngineError> {
        rntrajrec_chaos::point("engine.submit")
            .map_err(|f| EngineError::FaultInjected { point: f.point })?;
        if self.shared.level() > 0 {
            self.shared
                .counters
                .rejected
                .fetch_add(1, Ordering::Relaxed);
            return Err(EngineError::Brownout);
        }
        // When tracing is on, untraced submitters still get a request id
        // so engine-side spans (queue.wait, batch.assemble, the fused
        // passes) are attributable; there is just no HTTP-side tree.
        let trace = opts
            .trace
            .or_else(|| rntrajrec_obs::enabled().then(rntrajrec_obs::next_request_id));
        let (tx, rx) = mpsc::channel();
        let (step_tx, step_rx) = if opts.stream {
            // Bounded: a consumer that stops draining steps fills this
            // and is degraded to summary-only (see `Session::fan_out`),
            // so one slow stream cannot grow engine memory or stall the
            // fused batch.
            let (s_tx, s_rx) = mpsc::sync_channel(STREAM_QUEUE);
            (Some(s_tx), Some(s_rx))
        } else {
            (None, None)
        };
        let abandoned = Arc::new(AtomicBool::new(false));
        let id = {
            let mut q = self.shared.queue();
            if let Some(cap) = self.shared.queue_capacity {
                if q.len() >= cap {
                    let depth = q.len();
                    drop(q);
                    self.shared
                        .counters
                        .rejected
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(EngineError::Overloaded {
                        queue_depth: depth,
                        capacity: cap,
                    });
                }
            }
            let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
            self.shared
                .counters
                .requests
                .fetch_add(1, Ordering::Relaxed);
            let enqueued = Instant::now();
            q.push_back(Pending {
                reply: Reply {
                    id,
                    enqueued,
                    taken: enqueued,
                    tx,
                },
                trace,
                input,
                step_tx,
                abandoned: Arc::clone(&abandoned),
            });
            id
        };
        self.shared.cond.notify_one();
        Ok(RecoveryHandle {
            id,
            rx,
            steps: step_rx,
            done: None,
            abandoned,
        })
    }

    /// Convenience: submit and block for the result.
    ///
    /// # Panics
    /// Panics when a configured [`EngineConfig::queue_capacity`] is
    /// saturated — admission-aware callers must use
    /// [`RecoveryEngine::submit`] and shed load on
    /// [`EngineError::Overloaded`]. With the default unbounded queue this
    /// never panics.
    pub fn recover(&self, input: SampleInput) -> Recovered {
        self.submit(input, SubmitOptions::default())
            .expect("engine saturated: use submit with a bounded queue")
            .wait()
    }

    /// Snapshot of the engine counters.
    pub fn stats(&self) -> EngineStats {
        let c = &self.shared.counters;
        let batches = c.batches.load(Ordering::Relaxed);
        let batched = c.batched_requests.load(Ordering::Relaxed);
        let completed = c.completed.load(Ordering::Relaxed);
        EngineStats {
            requests: c.requests.load(Ordering::Relaxed),
            completed,
            failed: c.failed.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            batches,
            flushed_full: c.flushed_full.load(Ordering::Relaxed),
            flushed_deadline: c.flushed_deadline.load(Ordering::Relaxed),
            flushed_idle: c.flushed_idle.load(Ordering::Relaxed),
            mean_batch: if batches == 0 {
                0.0
            } else {
                batched as f64 / batches as f64
            },
            mean_queue_wait_ms: if completed == 0 {
                0.0
            } else {
                c.queue_wait_ns.load(Ordering::Relaxed) as f64 / completed as f64 / 1e6
            },
            mean_compute_ms: if completed == 0 {
                0.0
            } else {
                c.compute_ns.load(Ordering::Relaxed) as f64 / completed as f64 / 1e6
            },
            worker_restarts: c.worker_restarts.load(Ordering::Relaxed),
            watchdog_timeouts: c.watchdog_timeouts.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            abandoned_cancelled: c.abandoned_cancelled.load(Ordering::Relaxed),
            brownout_shifts: c.brownout_shifts.load(Ordering::Relaxed),
            stream_lagged: c.stream_lagged.load(Ordering::Relaxed),
            model_swaps: c.model_swaps.load(Ordering::Relaxed),
            brownout_mode: mode_name(self.shared.level()).to_string(),
            drain_rate_per_sec: self.drain_rate_per_sec(),
            queue_wait_p99_ms: self.queue_wait_p99_ms(),
            kernel_backend: rntrajrec_nn::kernels::backend::active_name().to_string(),
            segment_head: self.shared.model.current().head_name().to_string(),
        }
    }

    /// Requests currently waiting in the queue (not yet flushed into a
    /// batch). A live gauge for `/metrics` and capacity planning.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue().len()
    }

    /// Micro-batches currently executing on worker threads.
    pub fn in_flight_batches(&self) -> usize {
        self.shared
            .counters
            .in_flight_batches
            .load(Ordering::Relaxed)
    }

    /// The configured admission bound (`None`: unbounded).
    pub fn queue_capacity(&self) -> Option<usize> {
        self.shared.queue_capacity
    }

    /// Active brownout level (0 = normal, 1 = shed).
    pub fn brownout_level(&self) -> u8 {
        self.shared.level()
    }

    /// Active brownout mode name, as exported on `/metrics`.
    pub fn brownout_mode(&self) -> &'static str {
        mode_name(self.shared.level())
    }

    /// Force brownout to a level (ops/maintenance knob: `Some(1)` drains
    /// by shedding all new work; also the deterministic test hook; higher
    /// levels clamp to 1). `None` returns control to the load-watermark
    /// controller. Applies immediately.
    pub fn set_brownout_override(&self, level: Option<u8>) {
        let v = level.map_or(AUTO_LEVEL, |l| l.min(1));
        self.shared.brownout_override.store(v, Ordering::Relaxed);
        if v != AUTO_LEVEL {
            self.shared.set_level(v);
        }
    }

    /// Recent completion rate (requests/sec), sampled by the supervisor
    /// over its tick window. The denominator of adaptive `Retry-After`.
    pub fn drain_rate_per_sec(&self) -> f64 {
        f64::from_bits(self.shared.drain_rate_bits.load(Ordering::Relaxed))
    }

    /// Recent queue-wait p99 (ms), over the last
    /// `QUEUE_WAIT_RING_CAP`-request (512) window.
    pub fn queue_wait_p99_ms(&self) -> f64 {
        f64::from_bits(self.shared.queue_wait_p99_bits.load(Ordering::Relaxed))
    }

    /// The model new batches will run on (e.g. for direct single-request
    /// comparison). In-flight batches may still be on a previously
    /// swapped-out model.
    pub fn model(&self) -> Arc<ServingModel> {
        self.shared.model.current()
    }

    /// Zero-downtime hot swap: install `model` for all batches assembled
    /// from now on and return the model it replaced. In-flight batches
    /// finish on the weights they started with (their cloned `Arc` keeps
    /// the old model alive) — nothing is drained, paused, or failed; the
    /// queue, counters, brownout state, and streams all carry over.
    pub fn swap_model(&self, model: Arc<ServingModel>) -> Arc<ServingModel> {
        let old = self.shared.model.swap(model);
        self.shared
            .counters
            .model_swaps
            .fetch_add(1, Ordering::Relaxed);
        old
    }

    /// Graceful stop with a final report: signals shutdown, lets workers
    /// drain the remaining queue, joins them and the supervisor, and
    /// returns the counter snapshot *after* the drain — so requests still
    /// queued at shutdown are included. (Dropping the engine drains
    /// identically but offers no post-drain stats.)
    pub fn drain(mut self) -> EngineStats {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        // Flip the flag under the queue lock: a worker in `take_batch` that
        // read it unset holds that lock until it waits on `cond`, so the
        // notify below cannot fall between its read and its wait — where
        // it would be lost, the worker would sleep on and this join hang.
        {
            let _queue = self.shared.queue();
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.cond.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // The queue is drained: wake the supervisor so it sees that now
        // rather than a tick later.
        if let Some(s) = self.supervisor.take() {
            s.thread().unpark();
            let _ = s.join();
        }
    }
}

impl Drop for RecoveryEngine {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn spawn_worker(shared: &Arc<Shared>, slot: &Arc<WorkerSlot>, index: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let slot = Arc::clone(slot);
    std::thread::Builder::new()
        .name(format!("rntrajrec-serve-{index}"))
        .spawn(move || worker_loop(&shared, &slot))
        .expect("spawn serve worker")
}

/// The supervisor: fails hung batches past [`EngineConfig::batch_timeout`],
/// samples the drain rate, and drives brownout. Exits once
/// shutdown is signalled and the workers have drained the queue.
fn supervisor_loop(
    shared: &Shared,
    slots: &[Arc<WorkerSlot>],
    mut controller: Option<BrownoutController>,
) {
    let mut drain_samples: VecDeque<(Instant, u64)> = VecDeque::with_capacity(DRAIN_SAMPLES);
    loop {
        // Nothing queued and nothing in flight (the gauge is raised under
        // the queue lock): no session can start or is left to watch.
        let drained = shared.shutdown.load(Ordering::SeqCst) && {
            let q = shared.queue();
            q.is_empty() && shared.counters.in_flight_batches.load(Ordering::Relaxed) == 0
        };

        // (1) Watchdog: fail batches computing past the budget. Only the
        // affected requests get errors (typed, 503 at the HTTP layer);
        // the queue and the other workers keep flowing. The worker is
        // *not* killed — if it was merely slow it will find its claim
        // slot empty and skip delivery.
        if let Some(timeout) = shared.batch_timeout {
            for slot in slots {
                let hung = slot
                    .inflight
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .as_ref()
                    .is_some_and(|f| f.started.elapsed() >= timeout);
                if hung
                    && shared.fail_inflight(
                        slot,
                        Failure::Hung(format!(
                            "watchdog: batch exceeded {} ms compute budget",
                            timeout.as_millis()
                        )),
                    )
                {
                    shared
                        .counters
                        .watchdog_timeouts
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        // (2) Drain rate: completions/sec over the sample window.
        let completed = shared.counters.completed.load(Ordering::Relaxed);
        drain_samples.push_back((Instant::now(), completed));
        while drain_samples.len() > DRAIN_SAMPLES {
            drain_samples.pop_front();
        }
        if let (Some(&(t0, c0)), Some(&(t1, c1))) = (drain_samples.front(), drain_samples.back()) {
            let dt = t1.saturating_duration_since(t0).as_secs_f64();
            let rate = if dt > 0.0 { (c1 - c0) as f64 / dt } else { 0.0 };
            shared
                .drain_rate_bits
                .store(rate.to_bits(), Ordering::Relaxed);
        }

        // (3) Brownout: p99 over the queue-wait ring, then one controller
        // tick; a manual override preempts the controller.
        let p99 = {
            let ring = shared
                .queue_wait_ring
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            rntrajrec_obs::metrics::quantile(&ring, 0.99)
        };
        shared
            .queue_wait_p99_bits
            .store(p99.to_bits(), Ordering::Relaxed);
        let overridden = shared.brownout_override.load(Ordering::Relaxed);
        let level = if overridden != AUTO_LEVEL {
            overridden
        } else if let Some(ctl) = controller.as_mut() {
            let depth = shared.queue().len();
            ctl.observe(depth, p99)
        } else {
            0
        };
        shared.set_level(level);

        if drained {
            break;
        }
        std::thread::park_timeout(SUPERVISE_EVERY);
    }
}

/// Pop one micro-batch (blocking) or `None` on shutdown with an empty
/// queue. Every member leaves stamped with the flush instant
/// ([`Reply::taken`]) — the boundary between its queue wait and the
/// batch's compute. The batch comes with its share of the in-flight gauge.
fn take_batch(shared: &Shared) -> Option<(Vec<Pending>, Flight<'_>)> {
    // Fault point *before* the queue lock: an injected panic here loses
    // no requests (the queue is untouched); a delay models slow batch
    // assembly.
    rntrajrec_chaos::point_infallible("engine.batch");
    let mut q = shared.queue();
    let cause = loop {
        if q.len() >= shared.max_batch {
            break &shared.counters.flushed_full;
        }
        let draining = shared.shutdown.load(Ordering::SeqCst);
        match q.front() {
            Some(oldest) => {
                let age = oldest.reply.enqueued.elapsed();
                if draining || age >= shared.max_delay {
                    break &shared.counters.flushed_deadline; // or shutdown drain
                }
                // Work-conserving: with no session in flight nothing
                // suggests more arrivals are coming, and there is no
                // decode for them to be admitted into — holding the batch
                // open would only add `max_delay` to a lone request. The
                // gauge is raised below under this same lock, so two idle
                // workers cannot both see zero for one burst.
                if shared.counters.in_flight_batches.load(Ordering::Relaxed) == 0 {
                    break &shared.counters.flushed_idle;
                }
                q = (shared.cond.wait_timeout(q, shared.max_delay - age))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
            None => {
                if draining {
                    return None;
                }
                q = shared.cond.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        }
    };
    let take = q.len().min(shared.max_batch);
    let mut batch: Vec<Pending> = q.drain(..take).collect();
    // The session is in flight from the moment its batch leaves the queue.
    let flight = Flight::raise(&shared.counters.in_flight_batches);
    let leftovers = !q.is_empty();
    drop(q);
    if leftovers {
        // More work remains and no submit may come to notify for it:
        // wake another worker rather than leaving the leftovers to wait
        // behind this batch's inference.
        shared.cond.notify_one();
    }
    cause.fetch_add(1, Ordering::Relaxed);
    shared.counters.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .counters
        .batched_requests
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    let taken = Instant::now();
    for p in &mut batch {
        p.reply.taken = taken;
    }
    if rntrajrec_obs::enabled() {
        // Per-member queue.wait spans (endpoints measured across threads:
        // submit on the HTTP worker, flush here) and one batch.assemble
        // span covering oldest-enqueue → flush for all traced members.
        let taken_ns = rntrajrec_obs::instant_ns(taken);
        let mut members: Vec<rntrajrec_obs::RequestId> = Vec::new();
        let mut oldest_ns = taken_ns;
        for p in &batch {
            if let Some(req) = p.trace {
                let enq_ns = rntrajrec_obs::instant_ns(p.reply.enqueued);
                rntrajrec_obs::record("queue.wait", &[req], enq_ns, taken_ns);
                oldest_ns = oldest_ns.min(enq_ns);
                members.push(req);
            }
        }
        if !members.is_empty() {
            rntrajrec_obs::record("batch.assemble", &members, oldest_ns, taken_ns);
        }
    }
    Some((batch, flight))
}

/// A session's share of the in-flight gauge: raised when its batch leaves
/// the queue, lowered exactly once when dropped — at close, before any
/// member is answered, or while a panic unwinds out of the session.
struct Flight<'e>(&'e AtomicUsize);

impl<'e> Flight<'e> {
    fn raise(gauge: &'e AtomicUsize) -> Self {
        gauge.fetch_add(1, Ordering::Relaxed);
        Self(gauge)
    }
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Serve batches until shutdown has drained the queue. A panic that
/// escapes a session is caught here: the session's members are answered
/// through the claim slot and the worker takes the next batch.
fn worker_loop(shared: &Shared, slot: &WorkerSlot) {
    loop {
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (batch, flight) = take_batch(shared)?;
            if let Some(session) = Session::open(shared, slot, batch, flight) {
                session.run();
            }
            Some(())
        }));
        match served {
            Ok(Some(())) => {}
            Ok(None) => return,
            Err(payload) => {
                shared
                    .counters
                    .worker_restarts
                    .fetch_add(1, Ordering::Relaxed);
                let msg = panic_message(payload);
                shared.fail_inflight(
                    slot,
                    Failure::Error(format!("worker crashed mid-batch: {msg}")),
                );
            }
        }
    }
}

/// How one member of a session ends.
type Outcome = Result<RecoveredPath, Failure>;

/// One decode session on one worker: a flushed batch, plus whoever the
/// admission gate takes while it decodes (continuous batching). The worker
/// returns to [`take_batch`] only when every member has finished or been
/// cut. States and who may answer the members are in the module docs.
struct Session<'e> {
    shared: &'e Shared,
    slot: &'e WorkerSlot,
    /// The hot-swap slot, read once at open: every pass of this session —
    /// the fused decode, mid-decode admissions, the re-runs — runs on
    /// these weights even if an operator installs a new model meanwhile
    /// (the `Arc` keeps a swapped-out model alive until its last session
    /// ends).
    model: Arc<ServingModel>,
    /// This session's share of the in-flight gauge.
    flight: Flight<'e>,
    /// The flushed batch, then everyone admitted since — the
    /// [`DecodeState`]'s member order. Inputs stay here, owned, for the
    /// re-runs.
    members: Vec<Pending>,
    /// Admission waves so far (the `k` of the `decoder.admit[k]` span).
    admissions: u32,
}

impl<'e> Session<'e> {
    /// Register `batch` in the worker's claim slot and pass the
    /// `engine.worker` chaos point. `None` when the point injected an
    /// error (the batch has been answered with it).
    fn open(
        shared: &'e Shared,
        slot: &'e WorkerSlot,
        batch: Vec<Pending>,
        flight: Flight<'e>,
    ) -> Option<Self> {
        let size = batch.len();
        meters().batch_size.observe(size as f64);
        meters()
            .batch_occupancy
            .observe(size as f64 / shared.max_batch as f64);
        // Register *before* any fallible work: from here on, if a panic
        // escapes the session or it stalls, the worker's loop or the
        // watchdog can answer exactly these members. Admitted members join
        // the registration.
        *slot.inflight.lock().unwrap_or_else(|e| e.into_inner()) = Some(InFlight {
            started: Instant::now(),
            batch_size: size,
            members: batch.iter().map(|m| m.reply.clone()).collect(),
        });
        // The `engine.worker` fault point sits *outside* the session's
        // panic isolation on purpose: an injected panic unwinds to the
        // worker's loop — the healing path under test. An injected delay
        // stalls the registered batch — the watchdog path. An injected
        // error fails the batch with typed errors.
        if let Err(fault) = rntrajrec_chaos::point("engine.worker") {
            drop(flight);
            shared.fail_inflight(slot, Failure::Error(fault.to_string()));
            return None;
        }
        Some(Self {
            shared,
            slot,
            model: shared.model.current(),
            flight,
            members: batch,
            admissions: 0,
        })
    }

    /// Decode everyone — fused, open to admission; after a panic in that
    /// pass (e.g. an input built against a different road network tripping
    /// a shape assert) each member whose handle is still held alone,
    /// through the model's caught closed pass, so only the bad one fails —
    /// then close.
    fn run(mut self) {
        let traces: Vec<rntrajrec_obs::RequestId> =
            self.members.iter().filter_map(|m| m.trace).collect();
        let outcomes = {
            // Attribute every span and kernel event of the session to the
            // flushed batch's traced members. The scope must drop
            // (flushing this thread's span buffer to the global store)
            // *before* results are delivered, so a client that answers
            // immediately already sees its batch spans in `/debug/trace`.
            let _scope = rntrajrec_obs::request_scope(&traces);
            // Members admitted before a panic stay in `self.members`.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.decode_loop()))
                .unwrap_or_else(|_panic| {
                    (self.members.iter())
                        .map(|m| {
                            if m.abandoned() {
                                return Err(Failure::Abandoned);
                            }
                            self.model.recover_caught(&m.input).map_err(Failure::Error)
                        })
                        .collect()
                })
        };
        self.close(outcomes);
    }

    /// The decode loop, owned here: encode → admit → { take newcomers,
    /// encode, admit → retire → tick → fan steps out } → finish. Every
    /// member decodes, fused, with whoever the admission gate adds. One
    /// outcome per member, in member order. Results are bit-identical to
    /// per-request inference whatever the batch composition or admission
    /// timing.
    fn decode_loop(&mut self) -> Vec<Outcome> {
        let model = Arc::clone(&self.model);
        let mut state = model.decode_state();
        // Time inside `state` (splice, retire, tick): the `decoder` phase.
        // The encoder passes of mid-decode admissions are not in it.
        let mut decoding = Duration::ZERO;
        let encs = {
            let _span = rntrajrec_obs::span("encoder.fused");
            self.encode(0..self.members.len())
        };
        let _span = rntrajrec_obs::span("decoder.fused");
        decoding += self.splice(&mut state, 0..self.members.len(), &encs);
        // Which members the retire step cut.
        let mut cut = vec![false; self.members.len()];
        loop {
            let from = self.members.len();
            self.take_newcomers(state.live());
            if self.members.len() > from {
                // One span per admission wave, over the newcomers'
                // fused encoder pass and their splice.
                let _span = rntrajrec_obs::span_indexed("decoder.admit", self.admissions);
                self.admissions += 1;
                let encs = self.encode(from..self.members.len());
                decoding += self.splice(&mut state, from..self.members.len(), &encs);
                cut.resize(self.members.len(), false);
            }
            if state.live() == 0 {
                break;
            }
            // A dropped handle retires the member before its step runs
            // (survivors bit-identical).
            let now = Instant::now();
            state.retire(|i, _step| {
                cut[i] = self.members[i].abandoned();
                cut[i]
            });
            let steps = state.tick(|_, _| None);
            decoding += now.elapsed();
            for step in steps {
                self.fan_out(step);
            }
        }
        meters().decoder.observe_duration(decoding);
        let (paths, _) = state.finish();
        paths
            .into_iter()
            .zip(cut)
            .map(|(path, cut)| {
                if cut {
                    Err(Failure::Abandoned)
                } else {
                    Ok(path)
                }
            })
            .collect()
    }

    /// One stacked encoder pass over `members[who]`, observed as the
    /// `encoder` phase.
    fn encode(&self, who: Range<usize>) -> Vec<InferOutput> {
        let inputs: Vec<&SampleInput> = self.members[who].iter().map(|m| &m.input).collect();
        let started = Instant::now();
        let encs = self.model.encode(&inputs);
        meters().encoder.observe_duration(started.elapsed());
        encs
    }

    /// Admit `members[who]`, encoded as `encs`, into the decode; returns
    /// the time it took.
    fn splice(
        &self,
        state: &mut DecodeState<'_>,
        who: Range<usize>,
        encs: &[InferOutput],
    ) -> Duration {
        let wave: Vec<BatchMember> = encs
            .iter()
            .zip(&self.members[who])
            .map(|(enc, m)| BatchMember::new(enc, &m.input))
            .collect();
        let started = Instant::now();
        state.admit(&wave);
        started.elapsed()
    }

    /// The admission gate, between ticks: move waiting requests into this
    /// session while it has room for them beside its `live` members. A
    /// newcomer whose handle is already gone is answered here and never
    /// costs an encoder pass.
    fn take_newcomers(&mut self, live: usize) {
        let shared = self.shared;
        let room = shared.max_batch.saturating_sub(live);
        if room == 0 {
            return;
        }
        // Claim-slot guard: if the watchdog already answered this session,
        // the right to deliver is gone — stop growing it.
        let mut claim = self.slot.inflight.lock().unwrap_or_else(|e| e.into_inner());
        let Some(flight) = claim.as_mut() else {
            return;
        };
        let newcomers: Vec<Pending> = {
            let mut q = shared.queue();
            let take = q.len().min(room);
            q.drain(..take).collect()
        };
        if newcomers.is_empty() {
            return;
        }
        let now = Instant::now();
        let now_ns = rntrajrec_obs::enabled().then(|| rntrajrec_obs::instant_ns(now));
        let before = self.members.len();
        for mut p in newcomers {
            p.reply.taken = now;
            if p.abandoned() {
                shared.deliver(&p.reply, Err(Failure::Abandoned), self.members.len(), now);
                continue;
            }
            shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
            shared
                .counters
                .batched_requests
                .fetch_add(1, Ordering::Relaxed);
            if let (Some(now_ns), Some(req)) = (now_ns, p.trace) {
                let enq_ns = rntrajrec_obs::instant_ns(p.reply.enqueued);
                rntrajrec_obs::record("queue.wait", &[req], enq_ns, now_ns);
            }
            flight.members.push(p.reply.clone());
            self.members.push(p);
        }
        if self.members.len() > before {
            // Admission is progress: restart the watchdog budget so a
            // long-lived continuously-fed session is not mistaken for a
            // hung batch. A genuinely stalled kernel stops reaching this
            // gate, so the watchdog still fires for it.
            flight.started = Instant::now();
            flight.batch_size = self.members.len();
        }
    }

    /// Hand one decoded step to its member: time-to-first-step on step 0,
    /// then the streaming sink, if it has one. The sink is bounded: a
    /// consumer [`STREAM_QUEUE`] undelivered steps behind is degraded to
    /// summary-only — its sink is closed here (ending its step stream; the
    /// terminal result still arrives) rather than letting one slow reader
    /// block the whole fused batch or buffer without bound.
    fn fan_out(&mut self, step: &StepOut) {
        let m = &mut self.members[step.member];
        if step.step == 0 {
            meters()
                .ttfs
                .observe(m.reply.enqueued.elapsed().as_secs_f64());
        }
        let Some(step_tx) = &m.step_tx else {
            return;
        };
        let update = StepUpdate {
            id: m.reply.id,
            step: step.step,
            segment: step.segment,
            rate: step.rate,
            logprob: step.logprob,
        };
        match step_tx.try_send(update) {
            Ok(()) => {}
            Err(mpsc::TrySendError::Full(_)) => {
                self.shared
                    .counters
                    .stream_lagged
                    .fetch_add(1, Ordering::Relaxed);
                m.step_tx = None;
            }
            // Receiver already gone (handle dropped its step iterator or
            // the connection died): stop producing for it.
            Err(mpsc::TrySendError::Disconnected(_)) => m.step_tx = None,
        }
    }

    /// Compute is over: lower the in-flight gauge, take the claim back
    /// and answer every member.
    fn close(self, outcomes: Vec<Outcome>) {
        let done = Instant::now();
        // Lower the gauge before delivering: a client unblocked by a
        // delivery must see it already back at zero.
        drop(self.flight);
        // If the watchdog answered the session while it was computing,
        // delivery (and its counters) already happened — drop the results.
        if self
            .slot
            .inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .is_none()
        {
            return;
        }
        let flushed = self.members[0].reply.taken;
        meters()
            .compute
            .observe_duration(done.saturating_duration_since(flushed));
        let size = self.members.len();
        for (m, outcome) in self.members.iter().zip(outcomes) {
            self.shared.deliver(&m.reply, outcome, size, done);
        }
    }
}
