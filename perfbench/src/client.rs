//! A minimal keep-alive HTTP/1.1 client and a reader for the server's job
//! records.
//!
//! Every response is returned as a list of timestamped frames: one frame
//! for a `Content-Length` body, one per chunk for a chunked stream, so a
//! streamed batch's per-job arrival times are visible to the caller.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest the client waits on a read before giving up on the server.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One response: status, frames with their arrival instants, the instant
/// the last byte arrived and the bytes read off the wire.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body frames in arrival order.
    pub frames: Vec<(Instant, String)>,
    /// When the last byte of the response arrived.
    pub done: Instant,
    /// Head plus body bytes.
    pub bytes: usize,
}

impl Response {
    /// The body of a `Content-Length` response (its only frame).
    pub fn text(&self) -> &str {
        self.frames.first().map_or("", |(_, f)| f.as_str())
    }
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Conn {
    /// Connects to `addr`.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 << 10),
            start: 0,
        })
    }

    /// Sends one request and reads its whole response. Returns the
    /// instant the request was written, and the response.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> io::Result<(Instant, Response)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(body.as_bytes());
        let sent = Instant::now();
        self.stream.write_all(&bytes)?;
        Ok((sent, self.recv()?))
    }

    /// Reads one response.
    fn recv(&mut self) -> io::Result<Response> {
        let head_len = loop {
            if let Some(at) = find(&self.buf[self.start..], b"\r\n\r\n") {
                break at + 4;
            }
            self.fill()?;
        };
        let head =
            String::from_utf8_lossy(&self.buf[self.start..self.start + head_len]).into_owned();
        self.start += head_len;
        let mut bytes = head_len;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let header = |name: &str| {
            head.lines().find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.trim()
                    .eq_ignore_ascii_case(name)
                    .then(|| v.trim().to_string())
            })
        };
        let mut frames = Vec::new();
        if header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
            loop {
                let line = self.line()?;
                bytes += line.len() + 2;
                let size =
                    usize::from_str_radix(line.trim(), 16).map_err(|_| bad("bad chunk size"))?;
                let data = self.take(size + 2)?;
                bytes += size + 2;
                if size == 0 {
                    break;
                }
                let text =
                    String::from_utf8(data[..size].to_vec()).map_err(|_| bad("non-UTF-8 chunk"))?;
                frames.push((Instant::now(), text));
            }
        } else {
            let len: usize = header("content-length")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad("no content-length"))?;
            let data = self.take(len)?;
            bytes += len;
            let text = String::from_utf8(data).map_err(|_| bad("non-UTF-8 body"))?;
            frames.push((Instant::now(), text));
        }
        Ok(Response {
            status,
            frames,
            done: Instant::now(),
            bytes,
        })
    }

    /// Reads more bytes into the buffer.
    fn fill(&mut self) -> io::Result<()> {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        let old = self.buf.len();
        self.buf.resize(old + (64 << 10), 0);
        let n = self.stream.read(&mut self.buf[old..]);
        let n = match n {
            Ok(n) => n,
            Err(e) => {
                self.buf.truncate(old);
                return Err(e);
            }
        };
        self.buf.truncate(old + n);
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(())
    }

    /// Takes exactly `n` buffered bytes, reading as needed.
    fn take(&mut self, n: usize) -> io::Result<Vec<u8>> {
        while self.buf.len() - self.start < n {
            self.fill()?;
        }
        let out = self.buf[self.start..self.start + n].to_vec();
        self.start += n;
        Ok(out)
    }

    /// Takes one CRLF-terminated line (without the CRLF).
    fn line(&mut self) -> io::Result<String> {
        loop {
            if let Some(at) = find(&self.buf[self.start..], b"\r\n") {
                let line =
                    String::from_utf8_lossy(&self.buf[self.start..self.start + at]).into_owned();
                self.start += at + 2;
                return Ok(line);
            }
            self.fill()?;
        }
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// The raw value of a top-level `"key": value` field of a server record:
/// the characters of a string (which never holds an escaped quote for the
/// fields read here), the inside of an array, or a bare token.
pub fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let rest = &body[body.find(&pat)? + pat.len()..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|end| &s[..end]);
    }
    if let Some(s) = rest.strip_prefix('[') {
        return s.find(']').map(|end| &s[..end]);
    }
    let end = rest.find([',', ' ', '}', '\n'])?;
    Some(&rest[..end])
}

/// The byte offset of the quote closing a JSON string whose contents
/// start `text`.
fn string_end(text: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(i),
            _ => i += 1,
        }
    }
    None
}

/// A comma-separated list of integers, as inside `[…]`.
pub fn int_list(raw: &str) -> Option<Vec<u64>> {
    raw.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse().ok())
        .collect()
}

/// The `job_ids` of a batch acknowledgment.
pub fn job_ids(body: &str) -> Option<Vec<u64>> {
    int_list(field(body, "job_ids")?)
}

/// The parts of one `GET /job/<id>` record the benchmark checks and sums.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Server job id.
    pub id: u64,
    /// Whether the record carries a job `error`.
    pub error: bool,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// `stats_digest`.
    pub digest: u64,
    /// Final CNOT-equivalent count.
    pub cnots: u64,
    /// Critical-path depth.
    pub depth: u64,
    /// Critical-path duration in `dt`.
    pub duration: u64,
    /// SWAPs in the final circuit.
    pub swaps: u64,
    /// Physical qubits of the resident region, for region jobs.
    pub region: Option<Vec<usize>>,
    /// Whether an OpenQASM body is embedded.
    pub qasm: bool,
}

impl Record {
    /// Parses a completed job record; `None` for pending or malformed ones.
    pub fn parse(body: &str) -> Option<Record> {
        // Cut an embedded QASM string (megabytes for the large molecules)
        // out once, so the field lookups scan only the record's metadata.
        let (meta, qasm) = match body.find("\"qasm\": \"") {
            Some(at) => {
                let text = &body[at + 9..];
                let end = string_end(text)?;
                let meta = format!("{}{}", &body[..at], &text[end + 1..]);
                (meta, text.starts_with("OPENQASM"))
            }
            None => (body.to_string(), false),
        };
        let meta = meta.as_str();
        if field(meta, "status")? != "done" {
            return None;
        }
        let num = |key: &str| field(meta, key)?.parse::<u64>().ok();
        Some(Record {
            id: num("id")?,
            error: meta.contains("\"error\": "),
            cached: field(meta, "cached")? == "true",
            digest: u64::from_str_radix(field(meta, "stats_digest")?, 16).ok()?,
            cnots: num("cnots")?,
            depth: num("depth")?,
            duration: num("duration")?,
            swaps: num("swaps")?,
            region: field(meta, "region")
                .and_then(int_list)
                .map(|q| q.into_iter().map(|x| x as usize).collect()),
            qasm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_job_record() {
        let body = "{ \"id\": 7, \"status\": \"done\", \"name\": \"UCC-10\", \"compiler\": \"Tetris\", \
                    \"cache_key\": \"00000000000000ff\", \"cached\": true, \"qasm\": \"OPENQASM 2.0;\\ninclude \\\"qelib1.inc\\\";\", \
                    \"region\": [3, 4, 5], \"engine_seconds\": 0.001, \"stats_digest\": \"0000000000000abc\", \
                    \"gates\": 10, \"cnots\": 4, \"swaps\": 1, \"depth\": 9, \"duration\": 1200, \"cancel_ratio\": 0.5 }\n";
        let r = Record::parse(body).expect("record");
        assert_eq!(r.id, 7);
        assert!(r.cached && r.qasm && !r.error);
        assert_eq!(r.digest, 0xabc);
        assert_eq!((r.cnots, r.depth, r.duration, r.swaps), (4, 9, 1200, 1));
        assert_eq!(r.region, Some(vec![3, 4, 5]));
        assert_eq!(job_ids("{ \"job_ids\": [1, 2, 3] }\n"), Some(vec![1, 2, 3]));
        assert!(Record::parse("{ \"id\": 1, \"name\": \"x\", \"status\": \"pending\" }").is_none());
    }
}
