//! `poll(2)`, declared by hand: no libc crate exists offline and `std`
//! already links the symbol. One of the two `unsafe` blocks in the
//! workspace's non-test source lives here, behind the safe [`poll_fds`]
//! (the other is SHA-256's call into its SHA-extensions body).
#![allow(unsafe_code)]

use std::io::{Error, ErrorKind};
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_short};

/// Readable, or a pending connection on a listener.
pub(crate) const POLLIN: c_short = 0x001;

/// `struct pollfd`. `revents` also carries `POLLERR` / `POLLHUP` /
/// `POLLNVAL`, which the kernel reports whether or not they were asked for.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct PollFd {
    pub(crate) fd: RawFd,
    pub(crate) events: c_short,
    pub(crate) revents: c_short,
}

#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Waits up to `timeout_ms` (0 returns at once) for any of `fds` to become
/// ready, fills in every `revents` and returns how many are nonzero.
pub(crate) fn poll_fds(fds: &mut [PollFd], timeout_ms: c_int) -> usize {
    loop {
        // SAFETY: the pointer and length describe one live, exclusively
        // borrowed slice of `#[repr(C)]` structs laid out as `struct pollfd`;
        // the kernel writes nothing but their `revents`.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
        if let Ok(ready) = usize::try_from(n) {
            return ready;
        }
        let err = Error::last_os_error();
        assert!(err.kind() == ErrorKind::Interrupted, "poll(2): {err}");
    }
}
