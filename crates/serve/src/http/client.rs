//! A deliberately tiny blocking HTTP/1.1 client — one connection per
//! request, `Connection: close` — for the integration tests, the
//! benchmark's network-overhead measurement, and the example. Not a
//! general client.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl HttpResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// `GET` a path.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<HttpResponse> {
    request(addr, "GET", path, None)
}

/// `POST` a JSON body.
pub fn post_json(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<HttpResponse> {
    request(addr, "POST", path, Some(body))
}

/// `POST` to a streaming route (`/v2/recover/stream`), invoking
/// `on_line` for each NDJSON event line **as it arrives** — before
/// the stream completes — so callers can timestamp the first step.
/// The returned body is the de-chunked NDJSON text; non-chunked
/// (error) responses return as-is without calling `on_line`.
pub fn post_stream(
    addr: SocketAddr,
    path: &str,
    body: &str,
    on_line: impl FnMut(&str),
) -> std::io::Result<HttpResponse> {
    exchange(addr, "POST", path, body, on_line)
}

/// Issue one request on a fresh connection.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<HttpResponse> {
    exchange(addr, method, path, body.unwrap_or(""), |_| {})
}

/// Send one request on a fresh connection and read its response as it
/// arrives: a chunked body is de-chunked incrementally, one NDJSON line
/// at a time through `on_line`; any other body is read to the end.
fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    mut on_line: impl FnMut(&str),
) -> std::io::Result<HttpResponse> {
    let err = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(req.as_bytes())?;

    let mut buf: Vec<u8> = Vec::new();
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if read_more(&mut stream, &mut buf)? == 0 {
            return Err(err("connection closed before response headers"));
        }
    };
    let (status, headers) = parse_head(&buf[..header_end])?;
    let chunked = headers.iter().any(|(n, v)| {
        n.eq_ignore_ascii_case("transfer-encoding") && v.to_ascii_lowercase().contains("chunked")
    });
    let mut rest: Vec<u8> = buf.split_off(header_end + 4);
    if !chunked {
        while read_more(&mut stream, &mut rest)? != 0 {}
        let body = String::from_utf8(rest).map_err(|_| err("non-UTF-8 body"))?;
        return Ok(HttpResponse {
            status,
            headers,
            body,
        });
    }
    let mut body_out = String::new();
    let mut pending = String::new();
    loop {
        let size_end = loop {
            if let Some(pos) = rest.windows(2).position(|w| w == b"\r\n") {
                break pos;
            }
            if read_more(&mut stream, &mut rest)? == 0 {
                return Err(err("connection closed mid chunk-size line"));
            }
        };
        let size_str =
            std::str::from_utf8(&rest[..size_end]).map_err(|_| err("non-UTF-8 chunk-size line"))?;
        let size = usize::from_str_radix(size_str.split(';').next().unwrap_or_default().trim(), 16)
            .map_err(|_| err("malformed chunk size"))?;
        rest.drain(..size_end + 2);
        if size == 0 {
            break;
        }
        while rest.len() < size + 2 {
            if read_more(&mut stream, &mut rest)? == 0 {
                return Err(err("connection closed mid chunk"));
            }
        }
        pending.push_str(std::str::from_utf8(&rest[..size]).map_err(|_| err("non-UTF-8 chunk"))?);
        rest.drain(..size + 2);
        while let Some(nl) = pending.find('\n') {
            let line: String = pending.drain(..=nl).collect();
            let line = line.trim_end();
            if !line.is_empty() {
                on_line(line);
                body_out.push_str(line);
                body_out.push('\n');
            }
        }
    }
    Ok(HttpResponse {
        status,
        headers,
        body: body_out,
    })
}

fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<usize> {
    let mut tmp = [0u8; 4096];
    loop {
        match stream.read(&mut tmp) {
            Ok(n) => {
                buf.extend_from_slice(&tmp[..n]);
                return Ok(n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

fn parse_head(head: &[u8]) -> std::io::Result<(u16, Vec<(String, String)>)> {
    let err = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let head = std::str::from_utf8(head).map_err(|_| err("non-UTF-8 headers"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| err("empty response"))?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| err("malformed status line"))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        .collect();
    Ok((status, headers))
}
