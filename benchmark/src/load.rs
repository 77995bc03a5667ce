//! Load generation: transports (how one request reaches the program) and
//! drivers (closed loop, open loop, bulk window). Drivers only collect
//! raw answers and timestamps; answers are checked after the window so
//! the generator stays light next to the server it shares cores with.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::adapter::{Engine, Finished, Input, Request};
use crate::client::{self, Conn, Exchange};
use crate::corpus::Item;
use crate::proc::sleep_until;

/// What came back, unchecked.
#[derive(Debug)]
pub enum Answer {
    /// A buffered HTTP response.
    Whole { status: u16, body: Vec<u8> },
    /// A chunked HTTP response; `ends` are the chunk end offsets in `body`.
    Stream {
        status: u16,
        body: Vec<u8>,
        ends: Vec<usize>,
    },
    /// An in-process result.
    Direct(Finished),
    /// An in-process result already checked where it was received, its
    /// path dropped (the bulk driver, whose memory would otherwise grow
    /// with its own throughput and blur `peak_rss_mb`).
    Judged(crate::check::Verdict),
    /// The request never got an answer.
    Failed(String),
}

/// The engine's own account of an in-process request.
#[derive(Debug, Clone, Copy)]
pub struct EngineTimes {
    pub submit_s: f64,
    pub queue_wait_s: f64,
    pub compute_s: f64,
    pub latency_s: f64,
}

/// One call through a transport, in instants.
#[derive(Debug)]
pub struct Call {
    pub started: Instant,
    pub connected: Option<Instant>,
    pub written: Instant,
    pub first_byte: Instant,
    /// First recovered point readable by the caller.
    pub first_point: Instant,
    pub done: Instant,
    /// Arrival of each streamed step event.
    pub steps: Vec<Instant>,
    pub answer: Answer,
    pub engine: Option<EngineTimes>,
}

impl Call {
    fn failed(started: Instant, why: String) -> Self {
        let now = Instant::now();
        Self {
            started,
            connected: None,
            written: now,
            first_byte: now,
            first_point: now,
            done: now,
            steps: Vec::new(),
            answer: Answer::Failed(why),
            engine: None,
        }
    }

    fn from_exchange(started: Instant, ex: Exchange, streamed: bool) -> Self {
        let (answer, steps, first_point) = if streamed && !ex.chunks.is_empty() {
            // Every chunk but the last is a step event; the last is the
            // terminal summary (the checker verifies both).
            let arrivals: Vec<Instant> = ex.chunks.iter().map(|c| c.1).collect();
            let steps = arrivals[..arrivals.len() - 1].to_vec();
            (
                Answer::Stream {
                    status: ex.status,
                    body: ex.body,
                    ends: ex.chunks.iter().map(|c| c.0).collect(),
                },
                steps,
                arrivals[0],
            )
        } else {
            (
                Answer::Whole {
                    status: ex.status,
                    body: ex.body,
                },
                Vec::new(),
                ex.first_body_at,
            )
        };
        Self {
            started,
            connected: ex.connected_at,
            written: ex.written_at,
            first_byte: ex.first_byte_at,
            first_point,
            done: ex.done_at,
            steps,
            answer,
            engine: None,
        }
    }
}

/// How one request reaches the program.
pub trait Transport: Send {
    fn call(&mut self, index: usize, item: &Item) -> Call;
}

/// `POST /v1/recover` on a new TCP connection per request.
pub struct HttpNewConn(pub SocketAddr);

impl Transport for HttpNewConn {
    fn call(&mut self, _: usize, item: &Item) -> Call {
        let started = Instant::now();
        match client::one_shot(self.0, "POST", "/v1/recover", &item.trip.body_v1) {
            Ok(ex) => Call::from_exchange(started, ex, false),
            Err(e) => Call::failed(started, e.to_string()),
        }
    }
}

/// `POST /v1/recover` on one persistent connection.
pub struct HttpKeepAlive {
    addr: SocketAddr,
    conn: Option<Conn>,
}

impl HttpKeepAlive {
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, conn: None }
    }
}

impl Transport for HttpKeepAlive {
    fn call(&mut self, _: usize, item: &Item) -> Call {
        let started = Instant::now();
        let result = match self.conn.take() {
            Some(c) => Ok(c),
            None => Conn::open(self.addr),
        }
        .and_then(|mut c| {
            let ex = c.request("POST", "/v1/recover", &item.trip.body_v1, true)?;
            Ok((c, ex))
        });
        match result {
            Ok((c, ex)) => {
                self.conn = Some(c);
                Call::from_exchange(started, ex, false)
            }
            // The broken connection is dropped; the next call reconnects.
            Err(e) => Call::failed(started, e.to_string()),
        }
    }
}

/// `POST /v2/recover/stream` on a new TCP connection per request.
pub struct HttpStream(pub SocketAddr);

impl Transport for HttpStream {
    fn call(&mut self, _: usize, item: &Item) -> Call {
        let started = Instant::now();
        match client::one_shot(self.0, "POST", "/v2/recover/stream", &item.trip.body_stream) {
            Ok(ex) => Call::from_exchange(started, ex, true),
            Err(e) => Call::failed(started, e.to_string()),
        }
    }
}

/// Straight into in-process engines (one per city), bypassing HTTP, wire
/// and shard: the baseline the `http.overhead_*` numbers subtract, and
/// the source of the `engine.*` numbers.
pub struct InProcess<'a> {
    pub engines: &'a [Engine],
    /// Extracted inputs, parallel to the corpus.
    pub inputs: &'a [Input],
    pub stream: bool,
}

impl Transport for InProcess<'_> {
    fn call(&mut self, index: usize, item: &Item) -> Call {
        let input = self.inputs[index].clone();
        let started = Instant::now();
        let pending = match self.engines[item.city].submit(input, self.stream) {
            Ok(p) => p,
            Err(e) => return Call::failed(started, e),
        };
        let submitted = Instant::now();
        let mut steps = Vec::new();
        if self.stream {
            pending.drain_steps(|_, _, _| steps.push(Instant::now()));
        }
        let finished = pending.finish();
        let done = Instant::now();
        Call {
            started,
            connected: None,
            written: submitted,
            first_byte: steps.first().copied().unwrap_or(done),
            first_point: steps.first().copied().unwrap_or(done),
            done,
            steps,
            engine: Some(EngineTimes {
                submit_s: (submitted - started).as_secs_f64(),
                queue_wait_s: finished.queue_wait_s,
                compute_s: finished.compute_s,
                latency_s: finished.latency_s,
            }),
            answer: Answer::Direct(finished),
        }
    }
}

/// One measured request: the call, which trip it carried, and the instant
/// latency is counted from (send time, or due time in an open loop).
#[derive(Debug)]
pub struct Sample {
    pub item: usize,
    pub origin: Instant,
    /// How late the generator started the request (open loop only).
    pub lag: Duration,
    /// The instant that places the request in a segment: when the driver
    /// saw it complete (closed loops), or when it was due (open loop).
    pub counted_at: Instant,
    pub call: Call,
}

impl Sample {
    pub fn latency_s(&self) -> f64 {
        (self.call.done - self.origin).as_secs_f64()
    }

    pub fn first_point_s(&self) -> f64 {
        (self.call.first_point - self.origin).as_secs_f64()
    }
}

/// Closed loop: each transport's thread sends its next request only after
/// the previous one completed, until `stop_at`. Trips are taken from
/// `order` through one shared cursor. `completed` is told when each call
/// returned, before the next is sent.
pub fn closed_loop(
    transports: Vec<Box<dyn Transport + '_>>,
    items: &[Item],
    order: &[usize],
    stop_at: Instant,
    completed: &(dyn Fn(Instant) + Sync),
) -> Vec<Sample> {
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = transports
            .into_iter()
            .map(|mut t| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut out = Vec::new();
                    while Instant::now() < stop_at {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        let item = order[k % order.len()];
                        let call = t.call(item, &items[item]);
                        completed(call.done);
                        out.push(Sample {
                            item,
                            origin: call.started,
                            lag: Duration::ZERO,
                            counted_at: call.done,
                            call,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Open loop: source `s` fires at `epoch + schedules[s][j]` whether or not
/// earlier answers are back. Each request runs on a thread of its own, so
/// a slow answer never delays the next send and the queue can grow.
/// Latency is timed from the *due* instant, so whatever delay a stall
/// imposes — in the server's queue or in the generator — is charged to
/// every request that was due during it; the generator's own share is
/// reported as lag.
pub fn open_loop<'a>(
    connect: &(dyn Fn() -> Box<dyn Transport + 'a> + Sync),
    items: &[Item],
    order: &[usize],
    schedules: &[Vec<f64>],
    epoch: Instant,
) -> Vec<Sample> {
    let sources = schedules.len();
    let out = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for (src, schedule) in schedules.iter().enumerate() {
            let out = &out;
            s.spawn(move || {
                for (j, &due_s) in schedule.iter().enumerate() {
                    let due = epoch + Duration::from_secs_f64(due_s);
                    sleep_until(due);
                    let item = order[(j * sources + src) % order.len()];
                    s.spawn(move || {
                        let call = connect().call(item, &items[item]);
                        let sample = Sample {
                            item,
                            origin: due,
                            lag: call.started.saturating_duration_since(due),
                            counted_at: due,
                            call,
                        };
                        out.lock().expect("no sender panicked").push(sample);
                    });
                }
            });
        }
    });
    out.into_inner().expect("no sender panicked")
}

/// The bulk path: one submitter thread runs feature extraction then
/// `submit`, keeping `outstanding` submissions in flight until `stop_at`.
/// A request's latency is its extraction time plus the engine's own
/// submit-to-completion latency, so it does not depend on the order the
/// submitter happens to collect results in. `collect` checks each result
/// where it is received and is told when that was.
pub fn bulk_window(
    city: &crate::adapter::City,
    engine: &Engine,
    requests: &[Request],
    order: &[usize],
    outstanding: usize,
    stop_at: Instant,
    collect: &dyn Fn(usize, &Answer, Instant) -> crate::check::Verdict,
) -> Vec<Sample> {
    struct InFlight {
        item: usize,
        started: Instant,
        submit_s: f64,
        submitted: Instant,
        pending: crate::adapter::Pending,
    }
    let mut window: std::collections::VecDeque<InFlight> = Default::default();
    let mut out = Vec::new();
    let mut k = 0;
    loop {
        let open = Instant::now() < stop_at;
        while open && window.len() < outstanding {
            let item = order[k % order.len()];
            k += 1;
            let started = Instant::now();
            let mut extracted = started;
            let submitted_or = city.extract(&requests[item]).and_then(|input| {
                extracted = Instant::now();
                engine.submit(input, false)
            });
            match submitted_or {
                Ok(pending) => {
                    let submitted = Instant::now();
                    window.push_back(InFlight {
                        item,
                        started,
                        submit_s: (submitted - extracted).as_secs_f64(),
                        submitted,
                        pending,
                    })
                }
                Err(e) => out.push(Sample {
                    item,
                    origin: started,
                    lag: Duration::ZERO,
                    counted_at: Instant::now(),
                    call: Call::failed(started, e),
                }),
            }
        }
        let Some(f) = window.pop_front() else {
            break;
        };
        let finished = f.pending.finish();
        let done = f.submitted + Duration::from_secs_f64(finished.latency_s);
        // Results are collected oldest first, so this instant, unlike
        // `done`, never runs backwards.
        let collected = Instant::now();
        let times = EngineTimes {
            submit_s: f.submit_s,
            queue_wait_s: finished.queue_wait_s,
            compute_s: finished.compute_s,
            latency_s: finished.latency_s,
        };
        let verdict = collect(f.item, &Answer::Direct(finished), collected);
        out.push(Sample {
            item: f.item,
            origin: f.started,
            lag: Duration::ZERO,
            counted_at: collected,
            call: Call {
                started: f.started,
                connected: None,
                written: f.submitted,
                first_byte: done,
                first_point: done,
                done,
                steps: Vec::new(),
                engine: Some(times),
                answer: Answer::Judged(verdict),
            },
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::Trip;

    fn dummy_items(n: usize) -> Vec<Item> {
        (0..n)
            .map(|_| Item {
                city: 0,
                trip: Trip {
                    body_v1: String::new(),
                    body_stream: String::new(),
                    target_len: 1,
                },
            })
            .collect()
    }

    /// A fake single-threaded server: serves one request at a time in
    /// 1 ms, except that one request stalls it.
    struct FakeServer {
        served: std::sync::Mutex<usize>,
        stall_on: usize,
        stall: Duration,
    }

    struct Stalling<'a>(&'a FakeServer);

    impl Transport for Stalling<'_> {
        fn call(&mut self, _: usize, _: &Item) -> Call {
            let started = Instant::now();
            {
                let mut served = self.0.served.lock().expect("fake server");
                let pause = if *served == self.0.stall_on {
                    self.0.stall
                } else {
                    Duration::from_millis(1)
                };
                *served += 1;
                std::thread::sleep(pause);
            }
            let mut call = Call::failed(started, String::new());
            call.answer = Answer::Whole {
                status: 200,
                body: Vec::new(),
            };
            call
        }
    }

    fn fake_server(stall_on: usize, stall_ms: u64) -> FakeServer {
        FakeServer {
            served: std::sync::Mutex::new(0),
            stall_on,
            stall: Duration::from_millis(stall_ms),
        }
    }

    /// The open-loop contract: a single 150 ms stall must show up in the
    /// latency of *every* request that was due while it lasted (they queue
    /// behind it), not in one request — and as generator lag.
    #[test]
    fn a_stall_inflates_every_request_due_during_it() {
        let items = dummy_items(4);
        let order: Vec<usize> = (0..4).collect();
        // One request every 10 ms for 400 ms; request 10 stalls 150 ms.
        let schedule: Vec<f64> = (0..40).map(|j| j as f64 * 0.010).collect();
        let epoch = Instant::now() + Duration::from_millis(5);
        let server = fake_server(10, 150);
        let mut samples = open_loop(
            &|| Box::new(Stalling(&server)),
            &items,
            &order,
            &[schedule],
            epoch,
        );
        samples.sort_by_key(|s| s.origin);
        assert_eq!(samples.len(), 40);
        let slow: Vec<usize> = (0..40)
            .filter(|&j| samples[j].latency_s() > 0.020)
            .collect();
        // Due at 100..250 ms: request 10 itself and the ~14 queued behind it.
        assert!(slow.len() >= 10, "only {slow:?} were inflated");
        assert!(slow.iter().all(|j| (10..30).contains(j)), "{slow:?}");
        // The queue drains: latencies fall back by the end.
        assert!(samples[39].latency_s() < 0.020);
        // The generator itself did not fall behind: sends stayed on
        // schedule while answers were late (median, so that one hiccup of
        // the test machine does not fail the test).
        let mut lags: Vec<Duration> = samples.iter().map(|s| s.lag).collect();
        lags.sort();
        assert!(lags[lags.len() / 2] < Duration::from_millis(20));
    }

    #[test]
    fn closed_loop_stops_at_the_deadline_and_cycles_the_order() {
        let items = dummy_items(3);
        let order = vec![2, 0, 1];
        let stop_at = Instant::now() + Duration::from_millis(60);
        let (a, b) = (fake_server(usize::MAX, 0), fake_server(usize::MAX, 0));
        let samples = closed_loop(
            vec![Box::new(Stalling(&a)), Box::new(Stalling(&b))],
            &items,
            &order,
            stop_at,
            &|_| {},
        );
        assert!(samples.len() >= 20, "two clients at ~1 ms per call");
        assert!(samples.iter().all(|s| s.call.started < stop_at));
        let count = |i| samples.iter().filter(|s| s.item == i).count() as i64;
        assert!((count(0) - count(1)).abs() <= 2 && (count(1) - count(2)).abs() <= 2);
    }
}
