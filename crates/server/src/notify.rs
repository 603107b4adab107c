//! Completion notifications: engine → reactor.
//!
//! Worker sinks finish jobs on pool threads; the reactor sleeps in
//! `poll(2)`. A [`Notifier`] bridges the two: completions land in a
//! mutexed queue and a single byte is written to the reactor's wakeup
//! pipe (one end of a nonblocking `UnixStream` pair), so the reactor
//! returns from `poll` immediately, drains the queue, and pushes
//! responses to long-polling and streaming clients. Jobs are only ever
//! submitted through a running reactor, so every queued event has a
//! drainer.

use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// A cloneable handle for pushing job-completion events (and the shutdown
/// signal) into the reactor.
#[derive(Debug, Clone)]
pub struct Notifier {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    /// Completed job ids awaiting reactor processing.
    events: Mutex<Vec<u64>>,
    /// Set once by [`Notifier::shutdown`]; the reactor drains and exits.
    shutdown: AtomicBool,
    /// The write end of the reactor's wakeup pipe.
    wake: Mutex<Option<UnixStream>>,
}

impl Default for Notifier {
    fn default() -> Self {
        Notifier::new()
    }
}

impl Notifier {
    /// A notifier with no reactor attached yet: events queue without a
    /// wakeup until the reactor installs its pipe on start.
    pub fn new() -> Self {
        Notifier {
            inner: Arc::new(Inner {
                events: Mutex::new(Vec::new()),
                shutdown: AtomicBool::new(false),
                wake: Mutex::new(None),
            }),
        }
    }

    /// Attaches the reactor: each event from now on queues a wakeup byte
    /// on `wake_tx` (which must be nonblocking).
    pub(crate) fn activate(&self, wake_tx: UnixStream) {
        *self.inner.wake.lock().expect("wake lock") = Some(wake_tx);
    }

    /// Announces one finished job. Called from engine sink threads.
    pub fn job_done(&self, id: u64) {
        self.inner.events.lock().expect("event queue lock").push(id);
        self.wake();
    }

    /// Requests a graceful drain: the reactor stops accepting, finishes
    /// in-flight responses, and exits its loop.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.wake();
    }

    /// Whether a shutdown has been requested.
    pub(crate) fn shutdown_requested(&self) -> bool {
        self.inner.shutdown.load(Ordering::Acquire)
    }

    /// Drains and returns all queued completion events.
    pub(crate) fn take_events(&self) -> Vec<u64> {
        std::mem::take(&mut *self.inner.events.lock().expect("event queue lock"))
    }

    /// Writes one wakeup byte; a full pipe means a wakeup is already
    /// pending, so `WouldBlock` (and any other failure) is ignored.
    fn wake(&self) {
        if let Some(s) = &*self.inner.wake.lock().expect("wake lock") {
            let _ = (&*s).write(&[1]);
        }
    }
}
