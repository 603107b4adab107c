//! A thin `poll(2)` shim.
//!
//! The workspace builds with no external crates, so readiness comes from
//! declaring libc's `poll` symbol directly (the C library is already
//! linked into every std binary on unix) over `std::os::fd` raw
//! descriptors. Level-triggered `poll` is all the reactor needs: the fd
//! set is rebuilt each loop from live connections, so there is no
//! registration state to keep in sync the way epoll would require, and a
//! few hundred descriptors per scan is well inside its comfort zone.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_ulong};

/// Readable data (or a peer close, which reads as EOF).
pub const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// Error condition (revents only).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (revents only).
pub const POLLHUP: i16 = 0x010;
/// Invalid descriptor (revents only).
pub const POLLNVAL: i16 = 0x020;

/// One entry of the poll set — layout-compatible with C's `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The descriptor to watch.
    pub fd: RawFd,
    /// Requested events (`POLLIN` / `POLLOUT`).
    pub events: i16,
    /// Returned events, filled by [`poll`].
    pub revents: i16,
}

impl PollFd {
    /// A poll entry watching `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether any of `mask`'s bits came back in `revents`.
    pub fn has(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Blocks until an fd in `fds` is ready or `timeout` elapses (`None` =
/// forever). Returns the number of ready entries (0 on timeout); `EINTR`
/// is retried internally. `revents` is updated in place.
pub fn poll_fds(fds: &mut [PollFd], timeout: Option<std::time::Duration>) -> io::Result<usize> {
    let timeout_ms: c_int = match timeout {
        // poll's granularity is a millisecond; round up so a 0.4 ms
        // deadline does not spin at timeout 0.
        Some(d) => d
            .as_millis()
            .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
            .min(c_int::MAX as u128) as c_int,
        None => -1,
    };
    loop {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn poll_reports_readability_and_timeouts() {
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        // Nothing written yet: a short poll times out with zero ready.
        let n = poll_fds(&mut fds, Some(std::time::Duration::from_millis(5))).expect("poll");
        assert_eq!(n, 0);
        assert!(!fds[0].has(POLLIN));
        // One byte in flight: readable immediately.
        a.write_all(&[1]).expect("write");
        let n = poll_fds(&mut fds, Some(std::time::Duration::from_millis(1000))).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].has(POLLIN));
        // A fresh socket is writable without waiting.
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLOUT)];
        let n = poll_fds(&mut fds, Some(std::time::Duration::from_millis(1000))).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].has(POLLOUT));
    }
}
