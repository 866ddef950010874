//! Minimal HTTP/1.1 on a blocking `TcpStream`: just enough of the
//! protocol for the job API — request line + headers + `Content-Length`
//! bodies in (`Transfer-Encoding` and disagreeing lengths are a 400),
//! fixed or chunked responses out, pipelined requests answered in order. No TLS, no compression, no HTTP/2; curl and any
//! standard client speak this subset.
//!
//! Every message goes out in one `write`: a fixed response's head and
//! body, a chunk's size line, payload and CRLF, and the terminator are
//! each built in one buffer first. The socket runs with `TCP_NODELAY`,
//! so a message written in parts would leave as several segments and
//! wake the client once per part. The writers take any [`Write`], which
//! is how the tests hold the bytes and the write count.
//!
//! Hard limits protect the server from hostile peers: headers are
//! capped at [`MAX_HEAD_BYTES`], bodies at the caller's `max_body`, and
//! both sides run under socket read/write timeouts set by the
//! connection handler.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Upper bound on the request line + headers, bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Connection closed before a complete request arrived (clean EOF
    /// between keep-alive requests surfaces as `Eof` with no bytes).
    Eof,
    /// Socket error (including read timeouts).
    Io(std::io::Error),
    /// The peer sent something that is not HTTP/1.x, or exceeded a
    /// limit. The string is safe to echo in a 400 body.
    Malformed(&'static str),
    /// The declared body exceeds the configured cap; respond 413.
    BodyTooLarge,
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// One parsed request. Header names are lowercased; the query string is
/// split into `key=value` pairs without percent-decoding (the API uses
/// only unreserved characters in queries).
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub query: Vec<(String, String)>,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body).map_err(|_| HttpError::Malformed("body is not UTF-8"))
    }
}

/// Reads one request. Blocks until a full head (and declared body)
/// arrives, the socket times out, or a limit trips.
///
/// `buf` is the connection's read buffer and belongs to the caller for
/// the connection's whole life: parsing starts from whatever it already
/// holds, and bytes that arrived behind this request's declared body —
/// the start of a pipelined next request — are left in it for the next
/// call instead of being dropped. It never holds more than one
/// incomplete head plus one read's worth of surplus.
pub fn read_request(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    max_body: usize,
) -> Result<Request, HttpError> {
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::Malformed("request head too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return if buf.is_empty() {
                Err(HttpError::Eof)
            } else {
                Err(HttpError::Malformed("connection closed mid-request"))
            };
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::Malformed("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(HttpError::Malformed("missing method"))?
        .to_string();
    let target = parts
        .next()
        .ok_or(HttpError::Malformed("missing request target"))?;
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("malformed header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let (path, query) = split_target(target);

    // A body this parser cannot frame must be refused, not guessed at:
    // every byte behind the length it settles on is kept as the start of
    // the next request, so a wrong guess turns the rest of the body into
    // a request line.
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::Malformed(
            "transfer-encoding is not supported; send content-length",
        ));
    }
    let mut content_length = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        let n = v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed("bad content-length"))?;
        if content_length.replace(n).is_some_and(|first| first != n) {
            return Err(HttpError::Malformed("conflicting content-length headers"));
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge);
    }

    // Take this request's bytes out of the buffer. What stays is the
    // surplus: nothing unless the peer pipelines, and draining a whole
    // buffer moves no byte.
    let body_start = head_end + 4;
    let buffered = (buf.len() - body_start).min(content_length);
    let mut body = buf[body_start..body_start + buffered].to_vec();
    buf.drain(..body_start + buffered);
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-body"));
        }
        let take = n.min(content_length - body.len());
        body.extend_from_slice(&chunk[..take]);
        buf.extend_from_slice(&chunk[take..n]);
    }

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, query)) => (
            path.to_string(),
            query
                .split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (kv.to_string(), String::new()),
                })
                .collect(),
        ),
    }
}

/// A response with a fixed body.
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// Emitted as a `Retry-After` header (seconds) when present — the
    /// contract of every 429/503 this server sends.
    pub retry_after_secs: Option<u64>,
}

impl Response {
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after_secs: None,
        }
    }

    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into_bytes(),
            retry_after_secs: None,
        }
    }

    pub fn with_retry_after(mut self, secs: u64) -> Self {
        self.retry_after_secs = Some(secs);
        self
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Writes a fixed-length response, head and body in one `write_all`
/// from one buffer sized for both.
pub fn write_response(
    stream: &mut impl Write,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    // The head's fixed text, the status and the length come to well
    // under 160 bytes. Writing into a `Vec` cannot fail.
    let mut message = Vec::with_capacity(160 + resp.content_type.len() + resp.body.len());
    let _ = write!(
        message,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    if let Some(secs) = resp.retry_after_secs {
        let _ = write!(message, "Retry-After: {secs}\r\n");
    }
    let connection: &[u8] = if keep_alive {
        b"Connection: keep-alive\r\n\r\n"
    } else {
        b"Connection: close\r\n\r\n"
    };
    message.extend_from_slice(connection);
    message.extend_from_slice(&resp.body);
    stream.write_all(&message)?;
    stream.flush()
}

/// Starts a chunked (streaming) 200 response. Follow with
/// [`write_chunk`] per payload and [`finish_chunks`] to terminate. The
/// connection always closes after a stream.
pub fn start_chunked(stream: &mut impl Write, content_type: &str) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Writes one chunk — size line, payload and closing CRLF in one
/// `write_all`. A write error means the client went away — the caller
/// stops streaming.
pub fn write_chunk(stream: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    // A size line of at most 16 hex digits and two CRLFs.
    let mut chunk = Vec::with_capacity(payload.len() + 20);
    let _ = write!(chunk, "{:x}\r\n", payload.len());
    chunk.extend_from_slice(payload);
    chunk.extend_from_slice(b"\r\n");
    stream.write_all(&chunk)?;
    stream.flush()
}

/// Terminates a chunked response.
pub fn finish_chunks(stream: &mut impl Write) -> std::io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_target_into_path_and_query() {
        let (path, query) = split_target("/jobs/7?stream=1&format=json&flag");
        assert_eq!(path, "/jobs/7");
        assert_eq!(
            query,
            vec![
                ("stream".to_string(), "1".to_string()),
                ("format".to_string(), "json".to_string()),
                ("flag".to_string(), String::new()),
            ]
        );
        assert_eq!(split_target("/metrics").0, "/metrics");
    }

    /// A writer that records the bytes and counts the calls that hand it
    /// bytes (`write` and `write_all` alike).
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The bytes of a response as the two-write writer sent them: the
    /// head formatted on its own, then the body.
    fn head_then_body(resp: &Response, keep_alive: bool) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            resp.status,
            reason(resp.status),
            resp.content_type,
            resp.body.len()
        );
        if let Some(secs) = resp.retry_after_secs {
            head.push_str(&format!("Retry-After: {secs}\r\n"));
        }
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n\r\n"
        } else {
            "Connection: close\r\n\r\n"
        });
        let mut out = head.into_bytes();
        out.extend_from_slice(&resp.body);
        out
    }

    #[test]
    fn a_response_is_one_write_of_the_head_then_body_bytes() {
        let bodies = [
            Response::json(200, r#"{"state":"completed"}"#.to_string()),
            Response::json(202, r#"{"job":7}"#.to_string()),
            Response::json(400, r#"{"error":"bad"}"#.to_string()),
            Response::json(404, String::new()),
            Response::json(405, "x".to_string()),
            Response::json(413, "y".repeat(300)),
            Response::json(429, r#"{"error":"quota"}"#.to_string()).with_retry_after(2),
            Response::json(503, r#"{"error":"full"}"#.to_string()).with_retry_after(1),
            Response::json(500, "z".repeat(70_000)),
            Response::text(200, "ok\n".to_string()),
        ];
        for resp in &bodies {
            for keep_alive in [true, false] {
                let mut out = CountingWriter::default();
                write_response(&mut out, resp, keep_alive).unwrap();
                assert_eq!(out.writes, 1, "{} keep_alive={keep_alive}", resp.status);
                assert_eq!(
                    out.bytes,
                    head_then_body(resp, keep_alive),
                    "{} keep_alive={keep_alive}",
                    resp.status
                );
            }
        }
    }

    #[test]
    fn a_chunk_is_one_write_of_size_line_payload_and_crlf() {
        for payload in [&b""[..], b"{}\n", &[b'a'; 4096]] {
            let mut out = CountingWriter::default();
            write_chunk(&mut out, payload).unwrap();
            assert_eq!(out.writes, 1);
            let mut expected = format!("{:x}\r\n", payload.len()).into_bytes();
            expected.extend_from_slice(payload);
            expected.extend_from_slice(b"\r\n");
            assert_eq!(out.bytes, expected);
        }
        let mut out = CountingWriter::default();
        finish_chunks(&mut out).unwrap();
        assert_eq!((out.writes, &out.bytes[..]), (1, &b"0\r\n\r\n"[..]));
    }

    #[test]
    fn finds_head_boundary() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }
}
