//! The benchmark's own HTTP/1.1 client: one keep-alive connection,
//! blocking, `Content-Length` replies only — the subset `nmcs-serve`
//! speaks on its job routes. Kept here (not borrowed from the program
//! under test) so a change to the server's parser cannot hide behind a
//! matching change in the client.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Replies larger than this are refused (the job API's bodies are a few
/// hundred bytes; `/metrics` a few tens of KiB).
const MAX_REPLY_BYTES: usize = 4 * 1024 * 1024;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    pub body: String,
}

impl Reply {
    /// Any non-2xx reply (429 and 503 included) counts as a failed
    /// operation.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

#[derive(Debug, PartialEq, Eq)]
pub enum ReplyError {
    BadStatusLine,
    /// Without a length the end of a keep-alive reply is unknowable.
    MissingContentLength,
    BadContentLength,
    TooLarge,
    NotUtf8,
}

/// Parses one reply from the front of `buf`. `Ok(None)` means more
/// bytes are needed (a reply may arrive split at any byte); on success
/// returns the reply and how many bytes it consumed, so bytes of a
/// following reply stay in the buffer.
pub fn parse_reply(buf: &[u8]) -> Result<Option<(Reply, usize)>, ReplyError> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return if buf.len() > MAX_REPLY_BYTES {
            Err(ReplyError::TooLarge)
        } else {
            Ok(None)
        };
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| ReplyError::NotUtf8)?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or(ReplyError::BadStatusLine)?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().ok_or(ReplyError::BadStatusLine)?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReplyError::BadStatusLine);
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .filter(|s| (100..600).contains(s))
        .ok_or(ReplyError::BadStatusLine)?;
    let length = lines
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .ok_or(ReplyError::MissingContentLength)?
        .1
        .trim()
        .parse::<usize>()
        .map_err(|_| ReplyError::BadContentLength)?;
    if length > MAX_REPLY_BYTES {
        return Err(ReplyError::TooLarge);
    }
    let body_start = head_end + 4;
    let Some(body) = buf.get(body_start..body_start + length) else {
        return Ok(None);
    };
    let body = std::str::from_utf8(body)
        .map_err(|_| ReplyError::NotUtf8)?
        .to_string();
    Ok(Some((Reply { status, body }, body_start + length)))
}

pub struct Client {
    stream: TcpStream,
    /// Bytes read but not yet consumed by a parsed reply.
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged server fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Sends one request and blocks for its reply (closed loop: the next
    /// request is not sent until this one is answered).
    pub fn request(&mut self, method: &str, target: &str, body: &str) -> io::Result<Reply> {
        let mut msg = format!(
            "{method} {target} HTTP/1.1\r\nHost: ledger\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        msg.push_str(body);
        self.stream.write_all(msg.as_bytes())?;
        let mut chunk = [0u8; 4096];
        loop {
            match parse_reply(&self.buf) {
                Ok(Some((reply, used))) => {
                    self.buf.drain(..used);
                    return Ok(reply);
                }
                Ok(None) => {}
                Err(e) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad reply: {e:?}"),
                    ))
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    pub fn get(&mut self, target: &str) -> io::Result<Reply> {
        self.request("GET", target, "")
    }

    pub fn post(&mut self, target: &str, body: &str) -> io::Result<Reply> {
        self.request("POST", target, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &[u8] =
        b"HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\nContent-Length: 9\r\nConnection: keep-alive\r\n\r\n{\"job\":7}";

    #[test]
    fn parses_a_complete_reply() {
        let (reply, used) = parse_reply(OK).unwrap().unwrap();
        assert_eq!(reply.status, 202);
        assert_eq!(reply.body, "{\"job\":7}");
        assert_eq!(used, OK.len());
        assert!(reply.is_success());
    }

    #[test]
    fn every_split_point_asks_for_more_bytes_then_parses() {
        // The server writes head and body separately, so a reply can be
        // cut anywhere; no prefix may parse, error, or lose bytes.
        for cut in 0..OK.len() {
            assert_eq!(parse_reply(&OK[..cut]), Ok(None), "cut at {cut}");
        }
        assert!(parse_reply(OK).unwrap().is_some());
    }

    #[test]
    fn leaves_a_pipelined_second_reply_in_the_buffer() {
        let mut two = OK.to_vec();
        two.extend_from_slice(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok");
        let (first, used) = parse_reply(&two).unwrap().unwrap();
        assert_eq!(first.status, 202);
        let (second, used2) = parse_reply(&two[used..]).unwrap().unwrap();
        assert_eq!((second.status, second.body.as_str()), (200, "ok"));
        assert_eq!(used + used2, two.len());
    }

    #[test]
    fn missing_content_length_is_an_error_not_a_hang() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nhello";
        assert_eq!(parse_reply(raw), Err(ReplyError::MissingContentLength));
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: many\r\n\r\n";
        assert_eq!(parse_reply(raw), Err(ReplyError::BadContentLength));
    }

    #[test]
    fn non_2xx_replies_parse_and_count_as_failed() {
        for (status, reason) in [
            (429, "Too Many Requests"),
            (503, "Service Unavailable"),
            (404, "Not Found"),
        ] {
            let raw = format!(
                "HTTP/1.1 {status} {reason}\r\nRetry-After: 1\r\nContent-Length: 2\r\n\r\n{{}}"
            );
            let (reply, _) = parse_reply(raw.as_bytes()).unwrap().unwrap();
            assert_eq!(reply.status, status);
            assert!(!reply.is_success());
        }
    }

    #[test]
    fn garbage_status_lines_are_rejected() {
        assert_eq!(
            parse_reply(b"SPDY/9 200 OK\r\n\r\n"),
            Err(ReplyError::BadStatusLine)
        );
        assert_eq!(
            parse_reply(b"HTTP/1.1 abc OK\r\n\r\n"),
            Err(ReplyError::BadStatusLine)
        );
        assert_eq!(
            parse_reply(b"HTTP/1.1 99 Low\r\n\r\n"),
            Err(ReplyError::BadStatusLine)
        );
    }
}
