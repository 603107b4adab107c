//! The nonblocking `poll(2)` reactor front-end.
//!
//! One thread owns every socket: the listener, a wakeup pipe, and every
//! accepted connection, all nonblocking, all multiplexed through
//! [`crate::poll::poll_fds`]. Each connection is a pair of pure state
//! machines from [`crate::conn`] — an incremental request parser fed on
//! `POLLIN` and a response write queue drained on `POLLOUT` — so a slow
//! or hostile client costs a buffer, never a thread.
//!
//! Job completions arrive from engine threads via [`crate::notify`]: the
//! sink queues the finished id and writes one byte to the wakeup pipe,
//! `poll` returns, and the reactor answers every long-poll parked on that
//! id and appends a chunked frame to every stream awaiting it. Because
//! parks are registered and notifications drained on the same thread, a
//! completion can never slip between "table checked, job pending" and
//! "park registered" — the notification is simply processed on the next
//! loop turn.
//!
//! Timers ride the `poll` timeout: long-poll deadlines (answered with the
//! usual pending record), keep-alive idle closes, and the amortized
//! job-table TTL sweep ([`AppState::sweep`] on a tick instead of an
//! O(table) scan per request).
//!
//! Graceful drain ([`crate::http::ServerHandle::shutdown`]): the listener
//! is dropped (new connects are refused), every connection is marked
//! close-after-write, in-flight responses, long-polls and streams run to
//! completion, and the loop exits once the last socket closes (or the
//! drain deadline, one [`SOCKET_TIMEOUT`], expires).

use crate::conn::{Request, RequestParser, WriteBuf};
use crate::http::{
    chunk_frame, error_body, job_frame, job_ids_body, job_response, record_http, render_response,
    render_stream_head, route, route_label, AppState, Outcome, Payload, SOCKET_TIMEOUT, STREAM_END,
};
use crate::poll::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read-buffer size per `POLLIN` drain round.
const READ_CHUNK: usize = 16 << 10;

/// Runs the reactor on the calling thread. Returns only after a graceful
/// drain completes.
pub(crate) fn run(listener: TcpListener, state: Arc<AppState>) {
    let (wake_rx, wake_tx) = UnixStream::pair().expect("wakeup pipe");
    wake_rx.set_nonblocking(true).expect("nonblocking wake rx");
    wake_tx.set_nonblocking(true).expect("nonblocking wake tx");
    state.notifier.activate(wake_tx);
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    let sweep_interval = state.sweep_interval();
    Reactor {
        listener: Some(listener),
        wake_rx,
        state,
        conns: Vec::new(),
        next_sweep: Instant::now() + sweep_interval,
        sweep_interval,
        draining: false,
        drain_deadline: None,
    }
    .run()
}

/// What a connection is currently doing, beyond draining its write queue.
enum Mode {
    /// Between requests (or mid-parse of the next one).
    Idle,
    /// Parked on `GET /job/<id>?wait=1` until the job completes or the
    /// deadline passes — either way answered with [`job_response`].
    LongPoll {
        id: u64,
        deadline: Instant,
        with_qasm: bool,
        with_trace: bool,
        keep_alive: bool,
        started: Instant,
    },
    /// Mid-stream on `POST /batch {"stream": true}`: one chunked frame
    /// per remaining id, then the terminating chunk.
    Streaming {
        pending: Vec<u64>,
        keep_alive: bool,
        started: Instant,
    },
}

/// One accepted connection.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    out: WriteBuf,
    mode: Mode,
    /// Close once the write queue drains (protocol error, `Connection:
    /// close`, client EOF, or server drain).
    close_after_write: bool,
    /// The client sent EOF; no further requests will arrive.
    read_closed: bool,
    /// Last byte received — the keep-alive idle clock.
    last_activity: Instant,
}

/// What an fd in the poll set maps back to.
#[derive(Clone, Copy)]
enum Target {
    Wake,
    Listener,
    Conn(usize),
}

/// A timer decision for one connection (computed before acting so the
/// borrow of the connection ends first).
enum Due {
    Nothing,
    LongPollTimeout,
    IdleClose,
}

struct Reactor {
    /// `None` once draining — new connects are refused by the closed port.
    listener: Option<TcpListener>,
    /// Read end of the wakeup pipe (write end lives in the notifier).
    wake_rx: UnixStream,
    state: Arc<AppState>,
    /// Connection slab; freed slots are reused.
    conns: Vec<Option<Conn>>,
    next_sweep: Instant,
    sweep_interval: Duration,
    draining: bool,
    drain_deadline: Option<Instant>,
}

impl Reactor {
    fn run(mut self) {
        loop {
            if self.state.notifier.shutdown_requested() {
                self.begin_drain();
            }
            if self.draining {
                if self.conns.iter().all(Option::is_none) {
                    break;
                }
                if let Some(d) = self.drain_deadline {
                    if Instant::now() >= d {
                        break;
                    }
                }
            }
            let timeout = self.poll_timeout();
            let (mut fds, targets) = self.build_fds();
            if poll_fds(&mut fds, Some(timeout)).is_err() {
                // Transient poll failure: fall through — timers still run
                // and the next loop rebuilds the set.
                continue;
            }
            if fds[0].has(POLLIN) {
                self.drain_wake();
            }
            // Drain completions every turn (cheap when empty): a byte lost
            // to a full pipe must not strand a queued event.
            self.process_notifications();
            for (i, target) in targets.iter().enumerate() {
                let fd = fds[i];
                match *target {
                    Target::Wake => {}
                    Target::Listener => {
                        if fd.has(POLLIN) {
                            self.accept_ready();
                        }
                    }
                    Target::Conn(slot) => {
                        if self.conns[slot].is_none() {
                            continue;
                        }
                        if fd.has(POLLNVAL) {
                            self.close_conn(slot);
                            continue;
                        }
                        // POLLHUP/POLLERR surface through read (EOF or a
                        // real error), which also collects any final bytes.
                        if fd.has(POLLIN | POLLHUP | POLLERR) {
                            self.conn_readable(slot);
                        }
                        if self.conns[slot].is_some() && fd.has(POLLOUT) {
                            self.flush(slot);
                        }
                    }
                }
            }
            self.expire_timers();
        }
    }

    /// The poll timeout: the soonest of the sweep tick, any long-poll
    /// deadline, any keep-alive idle deadline, and the drain deadline.
    fn poll_timeout(&self) -> Duration {
        let mut deadline = self.next_sweep;
        for conn in self.conns.iter().flatten() {
            match &conn.mode {
                Mode::LongPoll { deadline: d, .. } => deadline = deadline.min(*d),
                Mode::Idle if conn.out.is_empty() => {
                    deadline = deadline.min(conn.last_activity + SOCKET_TIMEOUT)
                }
                _ => {}
            }
        }
        if let Some(d) = self.drain_deadline {
            deadline = deadline.min(d);
        }
        deadline.saturating_duration_since(Instant::now())
    }

    /// Rebuilds the poll set from live fds. Index 0 is always the wakeup
    /// pipe; connections request `POLLOUT` only while bytes are queued.
    fn build_fds(&self) -> (Vec<PollFd>, Vec<Target>) {
        let mut fds = vec![PollFd::new(self.wake_rx.as_raw_fd(), POLLIN)];
        let mut targets = vec![Target::Wake];
        if let Some(listener) = &self.listener {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
            targets.push(Target::Listener);
        }
        for (slot, conn) in self.conns.iter().enumerate() {
            let Some(conn) = conn else { continue };
            let mut events = POLLIN;
            if !conn.out.is_empty() {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            targets.push(Target::Conn(slot));
        }
        (fds, targets)
    }

    /// Empties the wakeup pipe (the queued events carry the information;
    /// the bytes only break the poll).
    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Answers every park and stream awaiting a completed job.
    fn process_notifications(&mut self) {
        for id in self.state.notifier.take_events() {
            for slot in 0..self.conns.len() {
                enum Hit {
                    Park,
                    Frame,
                }
                let hit = match self.conns[slot].as_ref().map(|c| &c.mode) {
                    Some(Mode::LongPoll { id: want, .. }) if *want == id => Hit::Park,
                    Some(Mode::Streaming { pending, .. }) if pending.contains(&id) => Hit::Frame,
                    _ => continue,
                };
                match hit {
                    Hit::Park => self.complete_longpoll(slot),
                    Hit::Frame => self.push_frame(slot, id),
                }
            }
        }
    }

    /// Accepts until the listener would block; connections past the cap
    /// are answered `503` and closed (accept-then-shed, so the client gets
    /// an answer instead of a SYN queue timeout).
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.state.accepted_total.fetch_add(1, Ordering::Relaxed);
                    let live = self.conns.iter().filter(|c| c.is_some()).count();
                    if live >= self.state.config.max_connections {
                        self.state.shed_connections.fetch_add(1, Ordering::Relaxed);
                        record_http("other", 503, 0.0);
                        let bytes = render_response(
                            503,
                            &Payload::Json(error_body("server at capacity: too many connections")),
                            false,
                        );
                        // Best effort into a fresh socket buffer; a client
                        // we cannot even tell to back off is just dropped.
                        let _ = stream.set_nonblocking(true);
                        let _ = (&stream).write(&bytes);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.state.connections.fetch_add(1, Ordering::AcqRel);
                    let conn = Conn {
                        stream,
                        parser: RequestParser::new(),
                        out: WriteBuf::new(),
                        mode: Mode::Idle,
                        close_after_write: false,
                        read_closed: false,
                        last_activity: Instant::now(),
                    };
                    match self.conns.iter().position(Option::is_none) {
                        Some(slot) => self.conns[slot] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Reads until the socket would block, feeding the parser, then
    /// dispatches every complete request buffered so far.
    fn conn_readable(&mut self, slot: usize) {
        let mut buf = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.parser.push(&buf[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot);
                    return;
                }
            }
        }
        self.process_requests(slot);
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.read_closed {
            // No more requests will ever arrive; whatever is in flight
            // (response drain, park, stream) finishes, then the socket
            // closes. EOF mid-request is answered `400` before closing.
            conn.close_after_write = true;
            if matches!(conn.mode, Mode::Idle) && conn.parser.mid_request() && conn.out.is_empty() {
                record_http("other", 400, 0.0);
                conn.parser = RequestParser::new();
                conn.out.push(render_response(
                    400,
                    &Payload::Json(error_body("connection closed mid-request")),
                    false,
                ));
            }
            self.flush(slot);
        }
    }

    /// Dispatches every complete buffered request, stopping when the
    /// connection parks (long-poll/stream — later pipelined requests stay
    /// buffered until it returns to idle) or turns unsalvageable.
    fn process_requests(&mut self, slot: usize) {
        loop {
            let step = {
                let Some(conn) = self.conns[slot].as_mut() else {
                    return;
                };
                if !matches!(conn.mode, Mode::Idle) || conn.close_after_write {
                    break;
                }
                conn.parser.next_request()
            };
            match step {
                Ok(Some(request)) => self.dispatch(slot, request),
                Ok(None) => break,
                Err(e) => {
                    let code = if e == "body too large" { 413 } else { 400 };
                    record_http("other", code, 0.0);
                    let bytes = render_response(code, &Payload::Json(error_body(e)), false);
                    let conn = self.conns[slot].as_mut().expect("live conn");
                    conn.out.push(bytes);
                    conn.close_after_write = true;
                    break;
                }
            }
        }
        self.flush(slot);
    }

    /// Routes one request and applies its outcome to the connection.
    fn dispatch(&mut self, slot: usize, request: Request) {
        let keep_alive = request.keep_alive;
        let label = route_label(&request.path);
        let inflight = tetris_obs::global().gauge("tetris_http_inflight", &[]);
        inflight.inc();
        let started = Instant::now();
        let outcome = route(&request, &self.state);
        let Some(conn) = self.conns[slot].as_mut() else {
            inflight.dec();
            return;
        };
        match outcome {
            Outcome::Ready(code, payload) => {
                record_http(label, code, started.elapsed().as_secs_f64());
                inflight.dec();
                conn.out.push(render_response(code, &payload, keep_alive));
                if !keep_alive {
                    conn.close_after_write = true;
                }
            }
            // Parked outcomes keep their in-flight gauge slot until the
            // final bytes are queued; metrics record then, so the latency
            // histogram sees the true wall including the park.
            Outcome::LongPoll {
                id,
                wait,
                with_qasm,
                with_trace,
            } => {
                self.state.longpoll_waiters.fetch_add(1, Ordering::Relaxed);
                conn.mode = Mode::LongPoll {
                    id,
                    deadline: started + wait,
                    with_qasm,
                    with_trace,
                    keep_alive,
                    started,
                };
            }
            Outcome::Stream(ids) => {
                conn.out.push(render_stream_head(keep_alive));
                conn.out.push(chunk_frame(&job_ids_body(&ids)));
                conn.mode = Mode::Streaming {
                    pending: ids,
                    keep_alive,
                    started,
                };
            }
        }
    }

    /// Answers a parked long-poll with the job's current state — the done
    /// record on wakeup, the pending record on timeout — and resumes any
    /// pipelined requests buffered behind the park.
    fn complete_longpoll(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let Mode::LongPoll {
            id,
            with_qasm,
            with_trace,
            keep_alive,
            started,
            ..
        } = std::mem::replace(&mut conn.mode, Mode::Idle)
        else {
            return;
        };
        let (code, payload) = job_response(&self.state, id, with_qasm, with_trace);
        self.state.longpoll_waiters.fetch_sub(1, Ordering::Relaxed);
        record_http("/job", code, started.elapsed().as_secs_f64());
        tetris_obs::global()
            .gauge("tetris_http_inflight", &[])
            .dec();
        conn.out.push(render_response(code, &payload, keep_alive));
        if !keep_alive {
            conn.close_after_write = true;
        }
        self.process_requests(slot);
    }

    /// Appends one completed job's frame to a stream; the last frame is
    /// followed by the terminating chunk and the connection returns to
    /// idle (keep-alive preserved).
    fn push_frame(&mut self, slot: usize, id: u64) {
        let frame = job_frame(&self.state, id);
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let Mode::Streaming {
            pending,
            keep_alive,
            started,
        } = &mut conn.mode
        else {
            return;
        };
        pending.retain(|x| *x != id);
        let finished = pending.is_empty();
        let (keep_alive, started) = (*keep_alive, *started);
        conn.out.push(chunk_frame(&frame));
        if finished {
            conn.out.push(STREAM_END.to_vec());
            record_http("/batch", 200, started.elapsed().as_secs_f64());
            tetris_obs::global()
                .gauge("tetris_http_inflight", &[])
                .dec();
            conn.mode = Mode::Idle;
            if !keep_alive {
                conn.close_after_write = true;
            }
            self.process_requests(slot);
        } else {
            self.flush(slot);
        }
    }

    /// Drains queued bytes into the socket; closes the connection once
    /// everything owed has been written and nothing more can come.
    fn flush(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.out.drain_into(&mut conn.stream).is_err() {
            self.close_conn(slot);
            return;
        }
        let conn = self.conns[slot].as_ref().expect("live conn");
        if conn.out.is_empty() && matches!(conn.mode, Mode::Idle) && conn.close_after_write {
            self.close_conn(slot);
        }
    }

    /// Fires due timers: the amortized TTL sweep, long-poll timeouts, and
    /// keep-alive idle closes.
    fn expire_timers(&mut self) {
        let now = Instant::now();
        if now >= self.next_sweep {
            self.state.sweep();
            self.next_sweep = now + self.sweep_interval;
        }
        for slot in 0..self.conns.len() {
            let due = match self.conns[slot].as_ref() {
                None => Due::Nothing,
                Some(conn) => match &conn.mode {
                    Mode::LongPoll { deadline, .. } if now >= *deadline => Due::LongPollTimeout,
                    Mode::Idle
                        if conn.out.is_empty()
                            && now.duration_since(conn.last_activity) >= SOCKET_TIMEOUT =>
                    {
                        Due::IdleClose
                    }
                    _ => Due::Nothing,
                },
            };
            match due {
                Due::Nothing => {}
                Due::LongPollTimeout => self.complete_longpoll(slot),
                Due::IdleClose => self.close_conn(slot),
            }
        }
    }

    /// Drops a connection and settles its accounting.
    fn close_conn(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        self.state.connections.fetch_sub(1, Ordering::AcqRel);
        match conn.mode {
            Mode::Idle => {}
            Mode::LongPoll { .. } => {
                self.state.longpoll_waiters.fetch_sub(1, Ordering::Relaxed);
                tetris_obs::global()
                    .gauge("tetris_http_inflight", &[])
                    .dec();
            }
            Mode::Streaming { .. } => {
                tetris_obs::global()
                    .gauge("tetris_http_inflight", &[])
                    .dec();
            }
        }
    }

    /// Starts a graceful drain: stop accepting (the dropped listener
    /// refuses new connects), let everything in flight finish, close each
    /// socket as it settles. [`Reactor::run`] exits when the last one
    /// goes, or at the drain deadline.
    fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + SOCKET_TIMEOUT);
        self.listener = None;
        for slot in 0..self.conns.len() {
            let close_now = match self.conns[slot].as_mut() {
                None => false,
                Some(conn) => {
                    conn.close_after_write = true;
                    matches!(conn.mode, Mode::Idle)
                        && conn.out.is_empty()
                        && !conn.parser.mid_request()
                }
            };
            if close_now {
                self.close_conn(slot);
            }
        }
    }
}
