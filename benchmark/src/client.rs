//! A minimal HTTP/1.1 client that timestamps what a caller of the server
//! can observe: connect, request written, first response byte, every
//! chunk of a streamed body, last byte.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// No exchange in any workload takes seconds; a stuck socket must fail
/// the request, not hang the run.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One request/response, as the client saw it.
#[derive(Debug)]
pub struct Exchange {
    pub status: u16,
    /// When `connect` returned, for a connection opened for this request.
    pub connected_at: Option<Instant>,
    pub written_at: Instant,
    pub first_byte_at: Instant,
    /// Arrival of the first body byte.
    pub first_body_at: Instant,
    pub done_at: Instant,
    /// The body; for a chunked response, the chunks joined.
    pub body: Vec<u8>,
    /// For a chunked response: each chunk's end offset in `body` and the
    /// instant the read that completed it returned.
    pub chunks: Vec<(usize, Instant)>,
}

pub struct Conn {
    stream: TcpStream,
    connected_at: Option<Instant>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        let connected_at = Some(Instant::now());
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Self {
            stream,
            connected_at,
        })
    }

    /// Send one request and read its whole response. `keep_alive` asks the
    /// server to keep the connection for the next call.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        keep_alive: bool,
    ) -> io::Result<Exchange> {
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: {}\r\n",
            if keep_alive { "keep-alive" } else { "close" }
        );
        if !body.is_empty() {
            req.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        req.push_str("\r\n");
        req.push_str(body);
        // One write: head and body leave in the same segment.
        self.stream.write_all(req.as_bytes())?;
        let written_at = Instant::now();
        let mut ex = read_response(&mut self.stream, written_at)?;
        ex.connected_at = self.connected_at.take();
        Ok(ex)
    }
}

/// Open a connection, send one request with `Connection: close`.
pub fn one_shot(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Exchange> {
    Conn::open(addr)?.request(method, path, body, false)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn find(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    haystack[from.min(haystack.len())..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// Incremental response reader: every `read` is followed by a timestamp,
/// and whatever became complete in that read is stamped with it.
fn read_response(stream: &mut TcpStream, written_at: Instant) -> io::Result<Exchange> {
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 16 * 1024];
    let mut first_byte_at = None;
    let mut first_body_at = None;
    // Parsed head: (status, body start, content length or chunked).
    let mut head: Option<(u16, usize, Option<usize>)> = None;
    let mut body = Vec::new();
    let mut chunks = Vec::new();
    let mut cursor = 0; // chunked mode: next unparsed offset in `buf`
    loop {
        let n = stream.read(&mut chunk)?;
        let now = Instant::now();
        if n == 0 {
            return Err(bad("connection closed mid-response"));
        }
        first_byte_at.get_or_insert(now);
        buf.extend_from_slice(&chunk[..n]);
        if head.is_none() {
            let Some(end) = find(&buf, b"\r\n\r\n", 0) else {
                continue;
            };
            let text = std::str::from_utf8(&buf[..end]).map_err(|_| bad("non-UTF-8 head"))?;
            let mut lines = text.split("\r\n");
            let status: u16 = lines
                .next()
                .and_then(|l| l.split(' ').nth(1))
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("malformed status line"))?;
            let mut length = Some(0);
            for line in lines {
                let Some((name, value)) = line.split_once(':') else {
                    continue;
                };
                match name.to_ascii_lowercase().as_str() {
                    "content-length" => {
                        length = Some(value.trim().parse().map_err(|_| bad("bad length"))?)
                    }
                    "transfer-encoding" if value.to_ascii_lowercase().contains("chunked") => {
                        length = None
                    }
                    _ => {}
                }
            }
            head = Some((status, end + 4, length));
            cursor = end + 4;
        }
        let (status, body_start, length) = head.expect("set above");
        if buf.len() > body_start {
            first_body_at.get_or_insert(now);
        }
        let done = match length {
            Some(len) => {
                if buf.len() >= body_start + len {
                    body = buf[body_start..body_start + len].to_vec();
                    true
                } else {
                    false
                }
            }
            None => loop {
                // `<hex size>\r\n<data>\r\n`, size 0 ends the body.
                let Some(eol) = find(&buf, b"\r\n", cursor) else {
                    break false;
                };
                let size_text =
                    std::str::from_utf8(&buf[cursor..eol]).map_err(|_| bad("bad chunk size"))?;
                let size = usize::from_str_radix(size_text.trim(), 16)
                    .map_err(|_| bad("bad chunk size"))?;
                let data = eol + 2;
                if buf.len() < data + size + 2 {
                    break false;
                }
                cursor = data + size + 2;
                if size == 0 {
                    break true;
                }
                body.extend_from_slice(&buf[data..data + size]);
                chunks.push((body.len(), now));
            },
        };
        if done {
            return Ok(Exchange {
                status,
                connected_at: None,
                written_at,
                first_byte_at: first_byte_at.expect("read at least one byte"),
                first_body_at: first_body_at.unwrap_or(now),
                done_at: now,
                body,
                chunks,
            });
        }
    }
}

/// Poll `GET /healthz` until it answers 200; the instant it did.
pub fn wait_healthy(addr: SocketAddr, give_up: Instant) -> Result<Instant, String> {
    loop {
        if let Ok(ex) = one_shot(addr, "GET", "/healthz", "") {
            if ex.status == 200 {
                return Ok(ex.done_at);
            }
        }
        if Instant::now() >= give_up {
            return Err(format!("{addr} never became healthy"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A Prometheus text exposition, flattened: series (name plus label set,
/// verbatim) → value.
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Self {
        Self(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (series, value) = l.rsplit_once(' ')?;
                    Some((series.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    pub fn fetch(addr: SocketAddr) -> Result<Self, String> {
        let ex = one_shot(addr, "GET", "/metrics", "").map_err(|e| format!("/metrics: {e}"))?;
        if ex.status != 200 {
            return Err(format!("/metrics answered {}", ex.status));
        }
        Ok(Self::parse(&String::from_utf8_lossy(&ex.body)))
    }

    /// Sum of every series of family `name` whose label set contains
    /// `label` (empty matches all) — per-city series add up.
    pub fn sum(&self, name: &str, label: &str) -> f64 {
        self.0
            .iter()
            .filter(|(series, _)| {
                let family = series.split('{').next().unwrap_or(series);
                family == name && series.contains(label)
            })
            .map(|(_, v)| v)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection fake server that writes `parts` with a pause
    /// between them.
    fn serve_once(parts: Vec<&'static [u8]>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let mut sink = [0u8; 1024];
            let _ = s.read(&mut sink);
            for p in parts {
                s.write_all(p).expect("write");
                s.flush().expect("flush");
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        addr
    }

    #[test]
    fn reads_a_content_length_body_split_across_segments() {
        let addr = serve_once(vec![
            b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\nConnection: close\r\n\r\n",
            b"01234",
            b"56789",
        ]);
        let ex = one_shot(addr, "POST", "/x", "{}").expect("exchange");
        assert_eq!(ex.status, 200);
        assert_eq!(ex.body, b"0123456789");
        assert!(ex.chunks.is_empty());
        assert!(ex.connected_at.is_some());
        assert!(ex.first_byte_at < ex.first_body_at && ex.first_body_at < ex.done_at);
    }

    #[test]
    fn stamps_each_chunk_of_a_streamed_body() {
        let addr = serve_once(vec![
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"4\r\none\n\r\n4\r\ntwo\n\r\n",
            b"6\r\nthree\n\r\n",
            b"0\r\n\r\n",
        ]);
        let ex = one_shot(addr, "POST", "/x", "{}").expect("exchange");
        assert_eq!(ex.body, b"one\ntwo\nthree\n");
        let ends: Vec<usize> = ex.chunks.iter().map(|c| c.0).collect();
        assert_eq!(ends, [4, 8, 14]);
        // Two chunks in one segment share a timestamp; the next is later.
        assert_eq!(ex.chunks[0].1, ex.chunks[1].1);
        assert!(ex.chunks[2].1 > ex.chunks[1].1);
        assert!(ex.first_body_at <= ex.chunks[0].1);
    }

    #[test]
    fn scrape_sums_series_across_label_sets() {
        let s = Scrape::parse(
            "# HELP x y\n# TYPE x counter\n\
             rntrajrec_engine_batches_total{city=\"alpha\"} 3\n\
             rntrajrec_engine_batches_total{city=\"beta\"} 4\n\
             rntrajrec_phase_seconds_sum{phase=\"encoder\"} 0.25\n\
             rntrajrec_phase_seconds_sum{phase=\"decoder\"} 0.5\n\
             rntrajrec_phase_seconds_count{phase=\"encoder\"} 10\n",
        );
        assert_eq!(s.sum("rntrajrec_engine_batches_total", ""), 7.0);
        assert_eq!(
            s.sum("rntrajrec_phase_seconds_sum", "phase=\"encoder\""),
            0.25
        );
        assert_eq!(
            s.sum("rntrajrec_phase_seconds", ""),
            0.0,
            "family names match whole"
        );
        assert_eq!(s.sum("missing", ""), 0.0);
    }
}
