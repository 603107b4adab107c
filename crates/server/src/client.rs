//! The client half of the wire protocol: one HTTP/1.1 request written and
//! one response read back, so the framing [`crate::http`] writes is parsed
//! in one place (for the live-TCP tests, the `tetris serve` binary test and
//! the connection-stress bench).
//!
//! The functions are generic over [`Read`]/[`Write`], so unit tests feed
//! them bytes from memory. Reads take one byte at a time, so nothing past
//! one response or chunk is consumed and a keep-alive socket stays usable.
//! The reader is strict: a status line without a numeric status, a head
//! longer than [`MAX_HEAD`], a non-chunked body without `Content-Length`,
//! a bad chunk size and a chunk not followed by CRLF are `InvalidData`
//! errors.

use crate::json::{self, Value};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Cap on a response's status line plus headers, bytes.
pub const MAX_HEAD: usize = 64 << 10;

/// How long one read, and one [`await_job`], may take: four times the
/// server's default long-poll park.
const TIMEOUT: Duration = Duration::from_secs(120);

/// A response's status line and headers.
#[derive(Debug, Clone)]
pub struct Head {
    /// The status code.
    pub status: u16,
    /// The raw head, from the status line through the blank line.
    pub text: String,
    /// When the head's first byte arrived: the latency anchor.
    pub first_byte: Instant,
}

impl Head {
    /// The trimmed value of header `name`, matched case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.text.lines().skip(1).find_map(|line| {
            let (key, value) = line.split_once(':')?;
            key.eq_ignore_ascii_case(name).then(|| value.trim())
        })
    }

    /// Whether the body arrives as chunked frames ([`read_chunk`]).
    pub fn is_chunked(&self) -> bool {
        self.header("Transfer-Encoding") == Some("chunked")
    }
}

/// One `Content-Length` response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status line and headers.
    pub head: Head,
    /// The body.
    pub body: String,
}

fn bad(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Parses a JSON body or stream frame; the error quotes the text.
pub fn json(text: &str) -> io::Result<Value> {
    json::parse(text).map_err(|e| bad(format!("{e} in {text}")))
}

/// Connects to `addr`, with a two-minute timeout on every read.
pub fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    Ok(stream)
}

/// Writes one request with a `Content-Length` body, asking the server to
/// keep the connection open or to close it after the response.
pub fn write_request<W: Write>(
    w: &mut W,
    method: &str,
    path: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: tetris\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        body.len()
    );
    w.write_all(request.as_bytes())
}

fn read_byte<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut byte = [0u8; 1];
    r.read_exact(&mut byte)?;
    Ok(byte[0])
}

/// Reads one response head, up to and including its blank line.
pub fn read_head<R: Read>(r: &mut R) -> io::Result<Head> {
    let mut head = vec![read_byte(r)?];
    let first_byte = Instant::now();
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= MAX_HEAD {
            return Err(bad(format!("response head over {MAX_HEAD} bytes")));
        }
        head.push(read_byte(r)?);
    }
    let text = String::from_utf8(head).map_err(|_| bad("response head is not UTF-8"))?;
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split(' ').next()?.parse().ok())
        .ok_or_else(|| bad(format!("no numeric status in {text:?}")))?;
    Ok(Head {
        status,
        text,
        first_byte,
    })
}

/// Reads the `Content-Length` body that follows `head`.
pub fn read_body<R: Read>(r: &mut R, head: &Head) -> io::Result<String> {
    let length = head.header("Content-Length").and_then(|v| v.parse().ok());
    let length = length.ok_or_else(|| bad(format!("no Content-Length in {:?}", head.text)))?;
    let mut body = vec![0u8; length];
    r.read_exact(&mut body)?;
    String::from_utf8(body).map_err(|_| bad("response body is not UTF-8"))
}

/// Decodes one chunked frame; `None` on the terminating zero-length chunk.
pub fn read_chunk<R: Read>(r: &mut R) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    // A chunk-size line is at most 16 hex digits and its CRLF.
    while !line.ends_with(b"\r\n") && line.len() < 18 {
        line.push(read_byte(r)?);
    }
    let size = std::str::from_utf8(line.strip_suffix(b"\r\n").unwrap_or_default())
        .ok()
        .and_then(|hex| usize::from_str_radix(hex, 16).ok())
        .ok_or_else(|| bad(format!("bad chunk-size line {line:?}")))?;
    let mut frame = vec![0u8; size + 2];
    r.read_exact(&mut frame)?;
    if frame.split_off(size) != b"\r\n" {
        return Err(bad("chunk not followed by CRLF"));
    }
    let frame = String::from_utf8(frame).map_err(|_| bad("chunk is not UTF-8"))?;
    Ok((size > 0).then_some(frame))
}

/// Writes one request on an open socket and reads its whole
/// `Content-Length` response.
pub fn round_trip<S: Read + Write>(
    stream: &mut S,
    method: &str,
    path: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<Response> {
    write_request(stream, method, path, body, keep_alive)?;
    let head = read_head(stream)?;
    let body = read_body(stream, &head)?;
    Ok(Response { head, body })
}

/// One request on a fresh `Connection: close` socket.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> io::Result<Response> {
    round_trip(&mut connect(addr)?, method, path, body, false)
}

/// Long-polls `GET /job/<id>?wait=1` on `stream` until the job's record is
/// done, and returns it. A park that times out answers the pending record
/// and is asked again; any status but `200` is an error.
pub fn await_job<S: Read + Write>(stream: &mut S, id: u64) -> io::Result<Value> {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let response = round_trip(stream, "GET", &format!("/job/{id}?wait=1"), "", true)?;
        if response.head.status != 200 {
            return Err(bad(format!("job {id}: {}", response.head.text)));
        }
        let record = json(&response.body)?;
        if record.get("status").and_then(Value::as_str) == Some("done") {
            return Ok(record);
        }
        if Instant::now() > deadline {
            return Err(io::Error::new(io::ErrorKind::TimedOut, response.body));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INVALID: Result<(), io::ErrorKind> = Err(io::ErrorKind::InvalidData);

    /// Reads one whole response (head and `Content-Length` body) off `wire`.
    fn read(wire: &mut &[u8]) -> Result<(u16, String), io::ErrorKind> {
        let head = read_head(wire).map_err(|e| e.kind())?;
        let body = read_body(wire, &head).map_err(|e| e.kind())?;
        Ok((head.status, body))
    }

    #[test]
    fn content_length_bodies_are_read_one_response_at_a_time() {
        let mut wire = &b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n{ \"a\": 1 }\n\
                          HTTP/1.1 503 Service Unavailable\r\ncontent-length: 2\r\n\r\n{}"[..];
        let (status, body) = read(&mut wire).expect("first response");
        assert_eq!(status, 200);
        assert_eq!(json(&body).expect("json").get("a"), Some(&Value::Num(1.0)));
        assert_eq!(read(&mut wire), Ok((503, "{}".to_string())));
        assert!(wire.is_empty(), "nothing past the second response is read");
    }

    #[test]
    fn two_chunked_frames_and_the_terminator_are_read() {
        let mut wire = &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                          5\r\nhello\r\nb\r\n{ \"id\": 2 }\r\n0\r\n\r\nnext"[..];
        assert!(read_head(&mut wire).expect("head").is_chunked());
        assert_eq!(
            read_chunk(&mut wire).expect("frame").as_deref(),
            Some("hello")
        );
        let frame = read_chunk(&mut wire).expect("frame").expect("not the end");
        assert_eq!(
            json(&frame).expect("json").get("id"),
            Some(&Value::Num(2.0))
        );
        assert_eq!(read_chunk(&mut wire).expect("terminator"), None);
        assert_eq!(wire, b"next", "the socket stays usable after the stream");
    }

    #[test]
    fn malformed_responses_are_errors() {
        let head_error = |wire: &[u8]| read(&mut &wire[..]).map(drop);
        let chunk_error = |wire: &[u8]| read_chunk(&mut &wire[..]).map(drop).map_err(|e| e.kind());
        assert_eq!(
            head_error(b"HTTP/1.1 200 OK\r\n\r\n{}"),
            INVALID,
            "no Content-Length"
        );
        assert_eq!(
            head_error(b"HTTP/1.1 OK\r\nContent-Length: 0\r\n\r\n"),
            INVALID
        );
        assert_eq!(head_error(b"\r\nContent-Length: 0\r\n\r\n"), INVALID);
        let mut oversized = b"HTTP/1.1 200 OK\r\nX: ".to_vec();
        oversized.resize(MAX_HEAD + 8, b'a');
        oversized.extend_from_slice(b"\r\n\r\n");
        assert_eq!(head_error(&oversized), INVALID, "head over the cap");
        assert_eq!(
            chunk_error(b"5\r\nhelloXY"),
            INVALID,
            "no CRLF after a frame"
        );
        assert_eq!(
            chunk_error(b"0\r\nXY"),
            INVALID,
            "no CRLF after the terminator"
        );
        assert_eq!(chunk_error(b"zz\r\nhi\r\n"), INVALID, "size is not hex");
        assert_eq!(
            chunk_error(b"5\nhello\r\n"),
            INVALID,
            "size line ends in LF"
        );
    }
}
