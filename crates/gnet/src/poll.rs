//! Readiness polling for shard loops.
//!
//! Each shard owns one [`Poller`]: an `epoll` instance on Linux
//! (reached through raw syscalls — the workspace links no libc
//! wrapper crates), or nothing elsewhere, in which case the shard
//! falls back to scanning its clients. Registrations are
//! level-triggered. Writes are attempted every cycle, so write
//! readiness is asked for only while a client's output queue holds
//! bytes a short write left behind ([`Poller::watch_writes`]): a
//! blocked shard then retries the flush when the peer drains, and is
//! not woken by sockets that are merely writable.
//!
//! A [`Waker`] (an `eventfd`) registered in the same poller lets other
//! threads end a blocking wait: a connection handed to the shard, a
//! batch pushed into its inbox, or shutdown.
//!
//! Simulated connections (`netsim` shaped links) have no descriptor;
//! they advertise readiness through `StreamConn::readable_hint`, and
//! the shard scans those regardless of the poller.

/// Readiness interest registration and waiting, level-triggered.
#[derive(Debug)]
pub struct Poller {
    #[cfg_attr(
        not(all(target_os = "linux", target_arch = "x86_64")),
        allow(dead_code)
    )]
    epfd: i32,
}

/// An `eventfd` counter another thread writes to wake a [`Poller`]
/// wait it is registered in. Level-triggered: it stays readable until
/// [`Waker::drain`] resets it, so a wake written before the wait
/// begins is not lost.
#[derive(Debug)]
pub struct Waker {
    #[cfg_attr(
        not(all(target_os = "linux", target_arch = "x86_64")),
        allow(dead_code)
    )]
    fd: i32,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    const SYS_READ: i64 = 0;
    const SYS_WRITE: i64 = 1;
    const SYS_CLOSE: i64 = 3;
    const SYS_EVENTFD2: i64 = 290;
    const SYS_EPOLL_WAIT: i64 = 232;
    const SYS_EPOLL_CTL: i64 = 233;
    const SYS_EPOLL_CREATE1: i64 = 291;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    const EFD_NONBLOCK: i64 = 0o4000;
    const EFD_CLOEXEC: i64 = 0o2000000;

    /// Kernel `struct epoll_event` on x86_64 is packed to 12 bytes.
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[inline]
    unsafe fn syscall4(n: i64, a: i64, b: i64, c: i64, d: i64) -> i64 {
        let ret: i64;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    pub fn epoll_create1() -> i64 {
        unsafe { syscall4(SYS_EPOLL_CREATE1, 0, 0, 0, 0) }
    }

    pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: Option<&mut EpollEvent>) -> i64 {
        let ptr = event.map_or(0i64, |e| e as *mut EpollEvent as i64);
        unsafe { syscall4(SYS_EPOLL_CTL, epfd as i64, op as i64, fd as i64, ptr) }
    }

    pub fn epoll_wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> i64 {
        unsafe {
            syscall4(
                SYS_EPOLL_WAIT,
                epfd as i64,
                events.as_mut_ptr() as i64,
                events.len() as i64,
                timeout_ms as i64,
            )
        }
    }

    pub fn eventfd() -> i64 {
        // SAFETY: eventfd2 takes no pointers; it only allocates a
        // descriptor, which the caller owns and closes.
        unsafe { syscall4(SYS_EVENTFD2, 0, EFD_NONBLOCK | EFD_CLOEXEC, 0, 0) }
    }

    pub fn write_u64(fd: i32, value: u64) -> i64 {
        let bytes = value.to_ne_bytes();
        // SAFETY: the kernel reads exactly 8 bytes from `bytes`, which
        // lives on this stack frame for the whole call.
        unsafe { syscall4(SYS_WRITE, fd as i64, bytes.as_ptr() as i64, 8, 0) }
    }

    pub fn read_u64(fd: i32) -> i64 {
        let mut bytes = [0u8; 8];
        // SAFETY: the kernel writes at most 8 bytes into `bytes`, which
        // lives on this stack frame for the whole call.
        unsafe { syscall4(SYS_READ, fd as i64, bytes.as_mut_ptr() as i64, 8, 0) }
    }

    pub fn close(fd: i32) {
        unsafe {
            syscall4(SYS_CLOSE, fd as i64, 0, 0, 0);
        }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
impl Poller {
    /// Creates an epoll instance; `None` when the kernel refuses.
    pub fn new() -> Option<Poller> {
        let fd = sys::epoll_create1();
        if fd < 0 {
            return None;
        }
        Some(Poller { epfd: fd as i32 })
    }

    /// Registers `fd` for level-triggered read readiness, tagged with
    /// `token`. Returns false when the kernel refuses (the caller
    /// falls back to scanning that connection).
    pub fn add(&self, fd: i32, token: u64) -> bool {
        let mut ev = sys::EpollEvent {
            events: READ_EVENTS,
            data: token,
        };
        sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, Some(&mut ev)) == 0
    }

    /// Adds (`on`) or removes write readiness for a registered `fd`;
    /// read readiness stays. Returns false when the kernel refuses.
    pub fn watch_writes(&self, fd: i32, token: u64, on: bool) -> bool {
        let mut ev = sys::EpollEvent {
            events: if on {
                READ_EVENTS | sys::EPOLLOUT
            } else {
                READ_EVENTS
            },
            data: token,
        };
        sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, Some(&mut ev)) == 0
    }

    /// Unregisters `fd`. Safe to call for never-registered fds.
    pub fn del(&self, fd: i32) {
        sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, None);
    }

    /// Registers `waker` so a wake ends a wait with `token` ready.
    pub fn add_waker(&self, waker: &Waker, token: u64) -> bool {
        self.add(waker.fd, token)
    }

    /// Waits up to `timeout_ms` (0 = non-blocking, negative = until an
    /// event) and appends ready tokens to `ready`. Returns the number
    /// of events.
    pub fn wait(&self, ready: &mut Vec<u64>, timeout_ms: i32) -> usize {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 128];
        let n = sys::epoll_wait(self.epfd, &mut events, timeout_ms);
        if n <= 0 {
            return 0;
        }
        let n = n as usize;
        for ev in &events[..n] {
            ready.push(ev.data);
        }
        n
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const READ_EVENTS: u32 = sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
impl Drop for Poller {
    fn drop(&mut self) {
        sys::close(self.epfd);
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
impl Waker {
    /// Creates a non-blocking `eventfd`; `None` when the kernel
    /// refuses.
    pub fn new() -> Option<Waker> {
        let fd = sys::eventfd();
        if fd < 0 {
            return None;
        }
        Some(Waker { fd: fd as i32 })
    }

    /// Makes the waker readable, ending any wait it is registered in.
    /// Never blocks: a counter at its limit is already readable.
    pub fn wake(&self) {
        sys::write_u64(self.fd, 1);
    }

    /// Resets the waker after a wait reported it.
    pub fn drain(&self) {
        sys::read_u64(self.fd);
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
impl Drop for Waker {
    fn drop(&mut self) {
        sys::close(self.fd);
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
impl Poller {
    /// No kernel poller on this platform; shards scan instead.
    pub fn new() -> Option<Poller> {
        None
    }

    /// Unreachable (`new` never returns a Poller here).
    pub fn add(&self, _fd: i32, _token: u64) -> bool {
        false
    }

    /// Unreachable (`new` never returns a Poller here).
    pub fn del(&self, _fd: i32) {}

    /// Unreachable (`new` never returns a Poller here).
    pub fn watch_writes(&self, _fd: i32, _token: u64, _on: bool) -> bool {
        false
    }

    /// Unreachable (`new` never returns a Poller here).
    pub fn add_waker(&self, _waker: &Waker, _token: u64) -> bool {
        false
    }

    /// Unreachable (`new` never returns a Poller here).
    pub fn wait(&self, _ready: &mut Vec<u64>, _timeout_ms: i32) -> usize {
        0
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
impl Waker {
    /// No `eventfd` on this platform; waits there are bounded instead.
    pub fn new() -> Option<Waker> {
        None
    }

    /// Unreachable (`new` never returns a Waker here).
    pub fn wake(&self) {}

    /// Unreachable (`new` never returns a Waker here).
    pub fn drain(&self) {}
}

#[cfg(all(test, target_os = "linux", target_arch = "x86_64"))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn epoll_reports_readable_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let poller = Poller::new().expect("epoll available on linux");
        assert!(poller.add(rx.as_raw_fd(), 42));

        let mut ready = Vec::new();
        assert_eq!(poller.wait(&mut ready, 0), 0, "idle socket: no events");

        tx.write_all(b"ping\n").unwrap();
        tx.flush().unwrap();
        let mut ready = Vec::new();
        let mut waited = 0;
        while poller.wait(&mut ready, 100) == 0 && waited < 20 {
            waited += 1;
        }
        assert_eq!(ready, vec![42]);

        // Level-triggered: still ready until drained.
        let mut ready2 = Vec::new();
        assert!(poller.wait(&mut ready2, 0) > 0);

        poller.del(rx.as_raw_fd());
        let mut ready3 = Vec::new();
        assert_eq!(poller.wait(&mut ready3, 0), 0, "deleted fd: no events");
    }

    #[test]
    fn hup_wakes_the_poller() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        assert!(poller.add(rx.as_raw_fd(), 7));
        drop(tx);
        let mut ready = Vec::new();
        let mut waited = 0;
        while poller.wait(&mut ready, 100) == 0 && waited < 20 {
            waited += 1;
        }
        assert_eq!(ready, vec![7], "peer close surfaces as readiness");
    }

    #[test]
    fn waker_ends_an_unbounded_wait_and_drains() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        let waker = std::sync::Arc::new(Waker::new().expect("eventfd available on linux"));
        assert!(poller.add_waker(&waker, 9));
        let mut ready = Vec::new();
        assert_eq!(poller.wait(&mut ready, 0), 0, "fresh waker: no events");

        let (p, w) = (
            std::sync::Arc::clone(&poller),
            std::sync::Arc::clone(&waker),
        );
        let blocked = std::thread::spawn(move || {
            let mut ready = Vec::new();
            p.wait(&mut ready, -1);
            w.drain();
            ready
        });
        waker.wake();
        assert_eq!(blocked.join().unwrap(), vec![9]);
        let mut ready = Vec::new();
        assert_eq!(poller.wait(&mut ready, 0), 0, "drained waker: no events");

        // A wake that lands before the wait is kept for it.
        waker.wake();
        waker.wake();
        assert_eq!(poller.wait(&mut ready, -1), 1);
        waker.drain();
        ready.clear();
        assert_eq!(poller.wait(&mut ready, 0), 0, "one drain resets both wakes");
    }

    #[test]
    fn write_interest_reports_a_writable_socket_until_removed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        let poller = Poller::new().unwrap();
        assert!(poller.add(rx.as_raw_fd(), 3));
        let mut ready = Vec::new();
        assert_eq!(poller.wait(&mut ready, 0), 0, "read interest only");
        assert!(poller.watch_writes(rx.as_raw_fd(), 3, true));
        assert_eq!(
            poller.wait(&mut ready, 0),
            1,
            "empty send buffer is writable"
        );
        assert_eq!(ready, vec![3]);
        assert!(poller.watch_writes(rx.as_raw_fd(), 3, false));
        ready.clear();
        assert_eq!(poller.wait(&mut ready, 0), 0, "write interest removed");
    }
}
