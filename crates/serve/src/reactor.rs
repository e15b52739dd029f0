//! Readiness polling for the keep-alive reactor, std-only.
//!
//! The reactor thread owns the listener and every live connection and
//! must sleep until *either* a socket is ready for it *or* another
//! thread (worker, shutdown) has work for it. The first half is OS readiness —
//! on Linux this module declares `poll(2)` directly (one foreign
//! function, no crate dependency; the workspace's no-external-deps rule
//! is about packages, not about talking to the platform libc that std
//! itself links). The second half is the classic self-pipe trick: a
//! nonblocking [`UnixStream`] pair whose read end sits in the poll set,
//! so a one-byte write from any thread makes `poll` return immediately.
//!
//! On non-Linux unix the module degrades to a bounded sleep-scan: the
//! caller gets "every connection might be ready" back after a short
//! nap and probes each nonblocking socket itself. Correct, just not as
//! sharp — the serving benchmarks gate on the Linux path.

use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// What a connection wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or closed/errored).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Readable-only interest (the common idle-connection case).
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };

    /// Readable + writable (a connection with a pending write buffer).
    pub const READ_WRITE: Interest = Interest {
        read: true,
        write: true,
    };
}

#[cfg(target_os = "linux")]
mod sys {
    use super::*;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
    }

    /// Blocks until at least one fd is ready or `timeout` elapses.
    /// Returns the indices of entries with *any* returned event —
    /// readiness, hangup, or error all mean "go service this fd".
    pub fn wait(
        entries: &[(RawFd, Interest)],
        timeout: Option<Duration>,
    ) -> io::Result<Vec<usize>> {
        let mut fds: Vec<PollFd> = entries
            .iter()
            .map(|&(fd, interest)| {
                let mut events = 0i16;
                if interest.read {
                    events |= POLLIN;
                }
                if interest.write {
                    events |= POLLOUT;
                }
                PollFd {
                    fd,
                    events,
                    revents: 0,
                }
            })
            .collect();
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 100µs deadline is not a busy loop, and
            // saturate far-future deadlines into "a long poll".
            Some(d) => i32::try_from(d.as_millis().saturating_add(1)).unwrap_or(i32::MAX),
        };
        loop {
            // SAFETY: `fds` outlives the call and `nfds` matches its
            // length; poll(2) only writes the `revents` fields.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
            if rc >= 0 {
                return Ok(fds
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.revents != 0)
                    .map(|(i, _)| i)
                    .collect());
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::*;

    /// Portable fallback: nap briefly, then report every fd as
    /// possibly-ready. Callers probe nonblocking sockets and treat
    /// `WouldBlock` as "not actually ready", so this is merely slower,
    /// never wrong.
    pub fn wait(
        entries: &[(RawFd, Interest)],
        timeout: Option<Duration>,
    ) -> io::Result<Vec<usize>> {
        let nap = timeout
            .unwrap_or(Duration::from_millis(1))
            .min(Duration::from_millis(1));
        std::thread::sleep(nap);
        Ok((0..entries.len()).collect())
    }
}

/// Blocks until a registered fd is ready or `timeout` elapses; returns
/// the ready indices into `entries` (possibly empty on timeout).
///
/// # Errors
///
/// Propagates the underlying `poll(2)` failure (`EINTR` is retried
/// internally). The fallback path never fails.
pub fn wait(entries: &[(RawFd, Interest)], timeout: Option<Duration>) -> io::Result<Vec<usize>> {
    sys::wait(entries, timeout)
}

/// The write end of the reactor's self-pipe. Cloneable and shareable;
/// any thread may [`Waker::wake`] to pop the reactor out of `poll`.
#[derive(Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Nudges the reactor. Never blocks: a full pipe already guarantees
    /// a pending wakeup, so `WouldBlock` (and any other error — the
    /// reactor exiting first closes the read end) is ignored.
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1]);
    }
}

/// The read end of the self-pipe, owned by the reactor and polled
/// alongside the connection sockets.
pub struct WakeReceiver {
    rx: UnixStream,
}

impl WakeReceiver {
    /// The fd to include in the poll set (read interest).
    pub fn raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Swallows every pending wake byte so the next `poll` sleeps.
    pub fn drain(&mut self) {
        let mut sink = [0u8; 64];
        while matches!(self.rx.read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// Creates a connected nonblocking waker pair.
///
/// # Errors
///
/// Returns the OS error if the socketpair cannot be created or made
/// nonblocking.
pub fn wake_pair() -> io::Result<(Waker, WakeReceiver)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx: Arc::new(tx) }, WakeReceiver { rx }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn waker_pops_a_blocked_poll() {
        let (waker, mut rx) = wake_pair().unwrap();
        let entries = [(rx.raw_fd(), Interest::READ)];
        // Nothing pending: a short poll times out empty (linux) or
        // reports possibly-ready (fallback) — either way it returns.
        let _ = wait(&entries, Some(Duration::from_millis(5))).unwrap();
        // A wake from another thread lands promptly.
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
            waker
        });
        let start = Instant::now();
        loop {
            let ready = wait(&entries, Some(Duration::from_millis(200))).unwrap();
            if !ready.is_empty() {
                break;
            }
            assert!(
                start.elapsed() < Duration::from_secs(2),
                "wake never landed"
            );
        }
        let waker = t.join().unwrap();
        rx.drain();
        // Drained: wakes coalesce, and repeated wakes never block.
        for _ in 0..10_000 {
            waker.wake();
        }
        rx.drain();
    }

    #[test]
    fn timeout_poll_with_no_fds_returns_empty() {
        let ready = wait(&[], Some(Duration::from_millis(2))).unwrap();
        assert!(ready.is_empty());
    }
}
