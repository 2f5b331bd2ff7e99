//! The two socket calls `std` does not offer: a `send` that returns instead
//! of blocking, without switching the whole socket to non-blocking mode, and
//! a `poll` on one socket for both directions.
//!
//! `TcpStream::set_nonblocking` would not do: it sets the flag on the open
//! file description, which every clone of the stream shares, so the
//! thread reading the other half would stop blocking too.
//!
//! The flag values and the `poll` signature are Linux's, so the crate
//! builds on Linux only.

use std::ffi::{c_int, c_short, c_ulong};
use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;

// The C library's wrappers (std links it).
extern "C" {
    fn send(fd: c_int, buf: *const u8, len: usize, flags: c_int) -> isize;
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

const MSG_DONTWAIT: c_int = 0x40;
const MSG_NOSIGNAL: c_int = 0x4000;
const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;
const POLLERR: c_short = 0x8;
const POLLHUP: c_short = 0x10;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// Sends as much of `buf` as the socket takes now: `Ok(0)` when it takes
/// nothing. A peer that has gone is an error, never a `SIGPIPE`.
pub(crate) fn send_now(sock: &TcpStream, buf: &[u8]) -> io::Result<usize> {
    loop {
        // SAFETY: `buf` is a live slice of `buf.len()` readable bytes and the
        // descriptor belongs to `sock`, which outlives the call.
        let n = unsafe {
            send(
                sock.as_raw_fd(),
                buf.as_ptr(),
                buf.len(),
                MSG_DONTWAIT | MSG_NOSIGNAL,
            )
        };
        if let Ok(n) = usize::try_from(n) {
            return Ok(n);
        }
        let e = io::Error::last_os_error();
        match e.kind() {
            io::ErrorKind::WouldBlock => return Ok(0),
            io::ErrorKind::Interrupted => continue,
            _ => return Err(e),
        }
    }
}

/// What [`wait_ready`] found.
pub(crate) struct Ready {
    /// A read would not block: bytes, end of stream or an error wait.
    pub readable: bool,
    /// A send would take bytes (or fail at once).
    pub writable: bool,
}

/// Blocks until `sock` is writable or readable.
pub(crate) fn wait_ready(sock: &TcpStream) -> io::Result<Ready> {
    let mut fd = PollFd {
        fd: sock.as_raw_fd(),
        events: POLLIN | POLLOUT,
        revents: 0,
    };
    loop {
        // SAFETY: `fd` is one live, writable pollfd.
        if unsafe { poll(&mut fd, 1, -1) } >= 0 {
            let gone = fd.revents & (POLLERR | POLLHUP) != 0;
            return Ok(Ready {
                readable: fd.revents & POLLIN != 0 || gone,
                writable: fd.revents & POLLOUT != 0 || gone,
            });
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}
