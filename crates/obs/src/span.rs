//! The span recorder: thread-local span stacks feeding per-thread
//! buffers, flushed into one bounded global store when a root span
//! closes. See the crate docs for the span model.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Identifies one HTTP request across every layer it touches. Minted at
/// HTTP accept with [`next_request_id`]; `0` never names a real request.
pub type RequestId = u64;

/// Name of the synthetic root span recorded once per traced request; a
/// request is *complete* (eligible for [`completed_requests`] and the
/// Chrome export) once a span with this name carries its id.
pub const ROOT_SPAN: &str = "request";

/// Tracing master switch. Spans/kernel events are recorded only while
/// enabled; flipping it is safe at any time (spans opened while enabled
/// still close correctly after it is cleared).
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

/// Completed spans a thread batches locally before flushing; bounds how
/// stale the global store can be while a deep tree is still open.
const FLUSH_AT: usize = 64;

/// Default bound on the global store (oldest spans evicted beyond it).
const DEFAULT_CAPACITY: usize = 1 << 16;

/// Enable or disable span recording process-wide (default: disabled).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether span recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Mint a fresh, process-unique request id (monotone from 1).
pub fn next_request_id() -> RequestId {
    NEXT_REQUEST.fetch_add(1, Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (the first clock use).
/// Monotonic: taken from [`Instant`], never wall time.
#[inline]
pub fn now_ns() -> u64 {
    instant_ns(Instant::now())
}

/// Convert an [`Instant`] captured elsewhere (e.g. an engine enqueue
/// timestamp) to trace-epoch nanoseconds. Instants before the epoch
/// saturate to 0.
#[inline]
pub fn instant_ns(t: Instant) -> u64 {
    t.checked_duration_since(epoch())
        .map_or(0, |d| d.as_nanos() as u64)
}

/// One completed span. `requests` lists every request the span worked
/// for — per-request phases carry one id, fused-batch spans carry all
/// member ids, and spans outside any request scope carry none.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Process-unique span id (monotone from 1).
    pub id: u64,
    /// Enclosing span's id on the same thread, or 0 for a root.
    pub parent: u64,
    /// Phase name (`"encoder.fused"`, `"decoder.step"`, ...).
    pub name: &'static str,
    /// Per-iteration index (decoder step number); `None` elsewhere.
    pub index: Option<u32>,
    /// Requests this span is attributed to.
    pub requests: Vec<RequestId>,
    /// Start, in trace-epoch nanoseconds.
    pub start_ns: u64,
    /// End, in trace-epoch nanoseconds (`>= start_ns`).
    pub end_ns: u64,
    /// Synthetic id of the recording thread (see `thread_names`).
    pub thread: u64,
    /// Matmul kernel invocations attributed to this span (innermost
    /// enclosing span only — parents do not double-count children).
    pub matmuls: u64,
    /// Estimated floating-point operations for those matmuls.
    pub flops: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct ActiveSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    index: Option<u32>,
    requests: Vec<RequestId>,
    start_ns: u64,
    matmuls: u64,
    flops: u64,
}

struct ThreadCtx {
    thread_id: u64,
    requests: Vec<RequestId>,
    stack: Vec<ActiveSpan>,
    buffer: Vec<SpanRecord>,
}

impl ThreadCtx {
    fn new() -> Self {
        let thread_id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map(|n| n.to_string())
            .unwrap_or_else(|| format!("thread-{thread_id}"));
        thread_registry().lock().unwrap().push((thread_id, name));
        Self {
            thread_id,
            requests: Vec::new(),
            stack: Vec::new(),
            buffer: Vec::new(),
        }
    }
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = RefCell::new(ThreadCtx::new());
}

fn thread_registry() -> &'static Mutex<Vec<(u64, String)>> {
    static REG: OnceLock<Mutex<Vec<(u64, String)>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

/// Snapshot of `(synthetic thread id, thread name)` for every thread that
/// has recorded a span (used by the Chrome exporter's metadata events).
pub fn thread_names() -> Vec<(u64, String)> {
    thread_registry().lock().unwrap().clone()
}

struct Store {
    spans: VecDeque<SpanRecord>,
    capacity: usize,
    dropped: u64,
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| {
        Mutex::new(Store {
            spans: VecDeque::new(),
            capacity: DEFAULT_CAPACITY,
            dropped: 0,
        })
    })
}

fn flush_buffer(buffer: &mut Vec<SpanRecord>) {
    if buffer.is_empty() {
        return;
    }
    let mut store = store().lock().unwrap();
    for span in buffer.drain(..) {
        if store.spans.len() >= store.capacity {
            store.spans.pop_front();
            store.dropped += 1;
        }
        store.spans.push_back(span);
    }
}

/// RAII guard for one span; the span closes (and is buffered for the
/// store) when the guard drops. A no-op (zero allocation) when tracing
/// is disabled.
#[must_use = "the span closes when this guard drops"]
pub struct SpanGuard {
    /// Span id, or 0 when recording was disabled at open.
    id: u64,
}

/// Open a span named `name` on the current thread, nested under the
/// innermost open span and attributed to the active [`request_scope`]'s
/// request ids.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    open_span(name, None)
}

/// [`span`], tagged with a per-iteration index (e.g. the decoder step
/// number, rendered as `decoder.step[i]` in the Chrome export).
#[inline]
pub fn span_indexed(name: &'static str, index: u32) -> SpanGuard {
    open_span(name, Some(index))
}

fn open_span(name: &'static str, index: Option<u32>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { id: 0 };
    }
    let start_ns = now_ns();
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let _ = CTX.try_with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        let parent = ctx.stack.last().map_or(0, |s| s.id);
        let requests = ctx.requests.clone();
        ctx.stack.push(ActiveSpan {
            id,
            parent,
            name,
            index,
            requests,
            start_ns,
            matmuls: 0,
            flops: 0,
        });
    });
    SpanGuard { id }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        let _ = CTX.try_with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            // RAII makes drops LIFO; if a guard leaked (mem::forget),
            // close everything above it so the stack cannot wedge.
            while let Some(active) = ctx.stack.pop() {
                let done = active.id == self.id;
                let record = SpanRecord {
                    id: active.id,
                    parent: active.parent,
                    name: active.name,
                    index: active.index,
                    requests: active.requests,
                    start_ns: active.start_ns,
                    end_ns,
                    thread: ctx.thread_id,
                    matmuls: active.matmuls,
                    flops: active.flops,
                };
                ctx.buffer.push(record);
                if done {
                    break;
                }
            }
            if ctx.buffer.len() >= FLUSH_AT || (ctx.stack.is_empty() && ctx.requests.is_empty()) {
                flush_buffer(&mut ctx.buffer);
            }
        });
    }
}

/// RAII guard from [`request_scope`]; restores the previous request
/// attribution and flushes this thread's buffered spans on drop.
#[must_use = "attribution reverts when this guard drops"]
pub struct RequestScope {
    prev: Vec<RequestId>,
    armed: bool,
}

/// Attribute every span and kernel event recorded on this thread to
/// `requests` until the returned guard drops. Engine workers wrap each
/// fused batch in one scope carrying all member ids; the guard's drop
/// flushes the thread buffer, so batch spans are globally visible
/// *before* results are delivered if the scope is dropped first.
pub fn request_scope(requests: &[RequestId]) -> RequestScope {
    if !enabled() {
        return RequestScope {
            prev: Vec::new(),
            armed: false,
        };
    }
    let prev = CTX
        .try_with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            std::mem::replace(&mut ctx.requests, requests.to_vec())
        })
        .unwrap_or_default();
    RequestScope { prev, armed: true }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let prev = std::mem::take(&mut self.prev);
        let _ = CTX.try_with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            ctx.requests = prev;
            flush_buffer(&mut ctx.buffer);
        });
    }
}

/// Record a span whose endpoints were measured elsewhere (possibly on
/// another thread), e.g. `queue.wait` between an HTTP worker's enqueue
/// and an engine worker's batch take. Attributed to `requests` when
/// non-empty, else to the thread's active request scope. Flushes
/// immediately when no span is open on this thread.
pub fn record(name: &'static str, requests: &[RequestId], start_ns: u64, end_ns: u64) {
    if !enabled() {
        return;
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let _ = CTX.try_with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        let requests = if requests.is_empty() {
            ctx.requests.clone()
        } else {
            requests.to_vec()
        };
        let record = SpanRecord {
            id,
            parent: ctx.stack.last().map_or(0, |s| s.id),
            name,
            index: None,
            requests,
            start_ns,
            end_ns: end_ns.max(start_ns),
            thread: ctx.thread_id,
            matmuls: 0,
            flops: 0,
        };
        ctx.buffer.push(record);
        if ctx.buffer.len() >= FLUSH_AT || ctx.stack.is_empty() {
            flush_buffer(&mut ctx.buffer);
        }
    });
}

/// Attribute `matmuls` kernel invocations (`flops` estimated floating
/// point ops) to the innermost open span on this thread. Called by
/// `nn::kernels` on the *caller* thread at kernel entry — the thread
/// pool only distributes inner chunks, so attribution is exact. A single
/// relaxed load when tracing is disabled; a no-op with no open span.
#[inline]
pub fn kernel_event(matmuls: u64, flops: u64) {
    if !enabled() {
        return;
    }
    let _ = CTX.try_with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        if let Some(top) = ctx.stack.last_mut() {
            top.matmuls += matmuls;
            top.flops += flops;
        }
    });
}

/// Remove and return every span in the global store (oldest first).
pub fn drain() -> Vec<SpanRecord> {
    let mut store = store().lock().unwrap();
    store.spans.drain(..).collect()
}

/// Spans for the most recent `last` *completed* requests (those whose
/// [`ROOT_SPAN`] has reached the store), newest request ids last. Every
/// span attributed to any selected request is returned once, even when
/// shared with unselected requests.
pub fn completed_requests(last: usize) -> Vec<SpanRecord> {
    let store = store().lock().unwrap();
    let mut roots: Vec<RequestId> = store
        .spans
        .iter()
        .filter(|s| s.name == ROOT_SPAN)
        .flat_map(|s| s.requests.iter().copied())
        .collect();
    roots.sort_unstable();
    roots.dedup();
    if roots.len() > last {
        let cut = roots.len() - last;
        roots.drain(..cut);
    }
    store
        .spans
        .iter()
        .filter(|s| s.requests.iter().any(|r| roots.binary_search(r).is_ok()))
        .cloned()
        .collect()
}

/// Number of spans currently held in the global store.
pub fn stored_spans() -> usize {
    store().lock().unwrap().spans.len()
}

/// Spans evicted from the store because it was at capacity.
pub fn dropped_spans() -> u64 {
    store().lock().unwrap().dropped
}

/// Clear the global store (spans and the dropped counter). Buffered
/// spans on other threads are unaffected. Intended for tests/benches.
pub fn clear() {
    let mut store = store().lock().unwrap();
    store.spans.clear();
    store.dropped = 0;
}

/// Resize the global store bound; evicts oldest spans immediately if the
/// new capacity is smaller than the current population.
pub fn set_capacity(capacity: usize) {
    let mut store = store().lock().unwrap();
    store.capacity = capacity.max(1);
    while store.spans.len() > store.capacity {
        store.spans.pop_front();
        store.dropped += 1;
    }
}
