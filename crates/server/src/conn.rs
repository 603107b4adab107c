//! Per-connection HTTP/1.1 state machines for the nonblocking front-end.
//!
//! The reactor owns raw nonblocking sockets, so requests arrive in
//! arbitrary fragments and responses drain in arbitrary fragments. This
//! module holds the two halves of a connection's protocol state, both pure
//! buffer machines with no I/O of their own (which keeps them unit-testable
//! byte-at-a-time):
//!
//! * [`RequestParser`] — accumulates read bytes and yields complete
//!   [`Request`]s: incremental head scan for the `\r\n\r\n` terminator,
//!   then `Content-Length` body framing, bounded by `MAX_HEAD` and
//!   `MAX_BODY`, with chunked request bodies refused and each violation
//!   answered by a fixed error string. Bytes past one request stay
//!   buffered for the next (pipelining-safe).
//! * [`WriteBuf`] — a queue of response bytes drained opportunistically on
//!   `POLLOUT`; handles short writes and `WouldBlock` so a slow reader
//!   never blocks the reactor thread.

use std::collections::VecDeque;
use std::io::Write;

/// Request bodies above this size are rejected with `413` — compile
/// requests are names, not payloads.
pub const MAX_BODY: usize = 1 << 20;

/// Cap on the request line + headers, bytes. Bounds memory against a
/// client streaming an endless header.
pub const MAX_HEAD: usize = 16 << 10;

/// A parsed request: method, path, query string, body and whether the
/// client wants the connection kept open afterwards.
#[derive(Debug, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method token (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// The request path, query string stripped.
    pub path: String,
    /// The raw query string (empty when absent).
    pub query: String,
    /// The request body (`Content-Length` framed).
    pub body: Vec<u8>,
    /// Whether the connection stays open after the response (HTTP/1.1
    /// default, overridable by the `Connection` header either way).
    pub keep_alive: bool,
}

/// A malformed or oversized request, with the message the error response
/// carries. `"body too large"` maps to `413`, everything else to `400`.
pub type BadRequest = &'static str;

/// Incremental request reader: push read fragments in, pull complete
/// requests out.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Parsed head waiting for its body: `(request, body_len, body_start)`
    /// where `body_start` is the offset of the body in `buf`.
    pending: Option<(Request, usize)>,
}

impl RequestParser {
    /// A parser with empty buffers.
    pub fn new() -> Self {
        RequestParser::default()
    }

    /// Whether a request is partially buffered (bytes read but no complete
    /// request yet) — a connection closing in this state died mid-request.
    pub fn mid_request(&self) -> bool {
        !self.buf.is_empty() || self.pending.is_some()
    }

    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Tries to complete one request from the buffered bytes.
    ///
    /// `Ok(None)` means more bytes are needed; `Err` means the connection
    /// is unsalvageable (answer with the error, then close). After
    /// `Ok(Some(_))`, call again — a pipelining client may have buffered
    /// the next request already.
    pub fn next_request(&mut self) -> Result<Option<Request>, BadRequest> {
        if self.pending.is_none() {
            let Some(head_end) = find_head_end(&self.buf) else {
                if self.buf.len() > MAX_HEAD {
                    return Err("header section too large");
                }
                return Ok(None);
            };
            if head_end > MAX_HEAD {
                return Err("header section too large");
            }
            let head = std::str::from_utf8(&self.buf[..head_end])
                .map_err(|_| "unreadable header")?
                .to_string();
            let (request, content_length) = parse_head(&head)?;
            if content_length > MAX_BODY {
                return Err("body too large");
            }
            self.buf.drain(..head_end + 4);
            self.pending = Some((request, content_length));
        }
        let (_, body_len) = self.pending.as_ref().expect("pending head");
        if self.buf.len() < *body_len {
            return Ok(None);
        }
        let (mut request, body_len) = self.pending.take().expect("pending head");
        request.body = self.buf.drain(..body_len).collect();
        Ok(Some(request))
    }
}

/// Offset of the `\r\n\r\n` head terminator, if buffered.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parses a complete head (request line + headers, no terminator) into a
/// body-less [`Request`] plus the declared `Content-Length`.
fn parse_head(head: &str) -> Result<(Request, usize), BadRequest> {
    let mut lines = head.split("\r\n");
    let line = lines.next().ok_or("missing request line")?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("missing method")?.to_string();
    let target = parts.next().ok_or("missing path")?.to_string();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    // Keep-alive is the HTTP/1.1 default; anything else (1.0, or an
    // unparseable version) defaults to close.
    let mut keep_alive = parts.next() == Some("HTTP/1.1");

    let mut content_length = 0usize;
    for header in lines {
        if let Some((k, v)) = header.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().map_err(|_| "bad content-length")?;
            } else if k.eq_ignore_ascii_case("connection") {
                // The Connection header is a token list; `close` anywhere
                // in it wins over everything, an explicit `keep-alive`
                // opts a 1.0 client in.
                let has = |t: &str| v.split(',').any(|tok| tok.trim().eq_ignore_ascii_case(t));
                if has("close") {
                    keep_alive = false;
                } else if has("keep-alive") {
                    keep_alive = true;
                }
            } else if k.eq_ignore_ascii_case("transfer-encoding") {
                // Only Content-Length framing is supported. A chunked
                // body left on the socket would desync the keep-alive
                // loop (the chunks would parse as the next request), so
                // reject it and close.
                return Err("transfer-encoding not supported");
            }
        }
    }
    Ok((
        Request {
            method,
            path,
            query,
            body: Vec::new(),
            keep_alive,
        },
        content_length,
    ))
}

/// Queued response bytes awaiting socket writability. Responses are pushed
/// whole; the reactor drains whatever the socket accepts on each `POLLOUT`.
#[derive(Debug, Default)]
pub struct WriteBuf {
    queue: VecDeque<Vec<u8>>,
    /// Bytes of `queue[0]` already written.
    offset: usize,
}

impl WriteBuf {
    /// An empty write queue.
    pub fn new() -> Self {
        WriteBuf::default()
    }

    /// Queues a complete response (or stream frame) for draining.
    pub fn push(&mut self, bytes: Vec<u8>) {
        if !bytes.is_empty() {
            self.queue.push_back(bytes);
        }
    }

    /// Whether everything queued has been written.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Writes as much as the sink accepts. Returns `Ok(true)` when the
    /// queue fully drained, `Ok(false)` when the sink would block (partial
    /// progress kept), and the error on any real failure.
    pub fn drain_into(&mut self, w: &mut impl Write) -> std::io::Result<bool> {
        while let Some(front) = self.queue.front() {
            match w.write(&front[self.offset..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.offset += n;
                    if self.offset == front.len() {
                        self.queue.pop_front();
                        self.offset = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REQ: &str = "POST /batch?x=1 HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello";

    #[test]
    fn byte_at_a_time_delivery_completes_exactly_once() {
        let mut p = RequestParser::new();
        let bytes = REQ.as_bytes();
        let mut got = None;
        for (i, b) in bytes.iter().enumerate() {
            p.push(std::slice::from_ref(b));
            match p.next_request().expect("never malformed") {
                Some(r) => {
                    assert_eq!(i, bytes.len() - 1, "complete only on the last byte");
                    got = Some(r);
                }
                None => assert!(i < bytes.len() - 1 || got.is_some()),
            }
        }
        let r = got.expect("one request");
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/batch");
        assert_eq!(r.query, "x=1");
        assert_eq!(r.body, b"hello");
        assert!(r.keep_alive, "1.1 defaults to keep-alive");
        assert!(!p.mid_request(), "buffer fully consumed");
        assert!(p.next_request().expect("empty is fine").is_none());
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let mut p = RequestParser::new();
        let two = format!("{REQ}GET /stats HTTP/1.1\r\n\r\n");
        p.push(two.as_bytes());
        let a = p.next_request().unwrap().expect("first");
        assert_eq!(a.path, "/batch");
        let b = p.next_request().unwrap().expect("second");
        assert_eq!(b.path, "/stats");
        assert_eq!(b.method, "GET");
        assert!(p.next_request().unwrap().is_none());
    }

    #[test]
    fn connection_header_tokens_override_the_default() {
        let mut p = RequestParser::new();
        p.push(b"GET / HTTP/1.1\r\nConnection: close, TE\r\n\r\n");
        assert!(!p.next_request().unwrap().expect("req").keep_alive);
        p.push(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(p.next_request().unwrap().expect("req").keep_alive);
        p.push(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!p.next_request().unwrap().expect("req").keep_alive);
    }

    #[test]
    fn protocol_violations_error_with_fixed_messages() {
        let mut p = RequestParser::new();
        p.push(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert_eq!(p.next_request(), Err("transfer-encoding not supported"));

        let mut p = RequestParser::new();
        p.push(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n");
        assert_eq!(p.next_request(), Err("bad content-length"));

        let mut p = RequestParser::new();
        p.push(
            format!(
                "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY + 1
            )
            .as_bytes(),
        );
        assert_eq!(p.next_request(), Err("body too large"));

        // An endless header never completes and trips the head bound.
        let mut p = RequestParser::new();
        p.push(b"GET / HTTP/1.1\r\n");
        p.push(&vec![b'a'; MAX_HEAD + 16]);
        assert_eq!(p.next_request(), Err("header section too large"));
    }

    #[test]
    fn mid_request_state_is_visible() {
        let mut p = RequestParser::new();
        assert!(!p.mid_request());
        p.push(b"GET / HT");
        assert!(p.next_request().unwrap().is_none());
        assert!(p.mid_request(), "closing now means a truncated request");
    }

    /// A sink accepting at most one byte per call, optionally blocking
    /// every other call — the slowest possible reader.
    struct TrickleSink {
        written: Vec<u8>,
        calls: usize,
    }

    impl Write for TrickleSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.written.push(buf[0]);
            Ok(1)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buf_survives_short_writes_and_would_block() {
        let mut wb = WriteBuf::new();
        wb.push(b"hello ".to_vec());
        wb.push(b"world".to_vec());
        let mut sink = TrickleSink {
            written: Vec::new(),
            calls: 0,
        };
        let mut rounds = 0;
        while !wb.drain_into(&mut sink).expect("no real errors") {
            rounds += 1;
            assert!(rounds < 100, "must terminate");
        }
        assert_eq!(sink.written, b"hello world");
        assert!(wb.is_empty());
        assert!(rounds > 0, "the trickle sink must have pushed back");
    }
}
