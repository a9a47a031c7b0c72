//! Readiness polling: a thin, zero-dependency wrapper over `epoll(7)`
//! on Linux and `poll(2)` on other Unix, plus a cross-thread [`Waker`].
//!
//! The event loop registers every socket once with an explicit
//! [`Interest`] and updates it only on transitions (output buffered →
//! want writable; pipeline cap reached → stop wanting readable). Both
//! backends are level-triggered, which is why interest management is
//! explicit: a level-triggered fd with a full output buffer would spin
//! the loop if writable interest were left armed while there is nothing
//! to write, and a paused connection would spin on readable. Handlers
//! therefore always read/write to `WouldBlock`, and the loop clears the
//! corresponding interest the moment it stops consuming a readiness
//! state.
//!
//! Only the syscalls themselves are raw `extern "C"` bindings (matching
//! the repo's `signal(2)` idiom in `server.rs`); sockets stay ordinary
//! `std::net` types and the waker is a nonblocking `UnixStream` pair,
//! so no descriptor lifetime management leaves the standard library
//! except the epoll instance itself.

#![allow(unsafe_code)]

use std::io;
#[cfg(unix)]
use std::os::fd::RawFd;

/// Which readiness states a registration cares about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes (or EOF) to read.
    pub readable: bool,
    /// Wake when the fd can accept writes.
    pub writable: bool,
}

impl Interest {
    /// Readable only — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: usize,
    /// Bytes (or EOF) are available to read.
    pub readable: bool,
    /// The fd can accept writes.
    pub writable: bool,
    /// The peer hung up or the fd errored; the connection is done for
    /// regardless of interest.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
pub use linux::Poller;
#[cfg(all(unix, not(target_os = "linux")))]
pub use posix::Poller;

#[cfg(target_os = "linux")]
mod linux {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;

    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0x80000;

    // The kernel ABI packs this struct on x86-64 (and only there).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn mask(interest: Interest) -> u32 {
        // EPOLLRDHUP rides with readable interest only: a half-closed
        // peer is a persistent level-triggered condition, so arming it
        // while reads are paused would spin the loop.
        let mut m = 0;
        if interest.readable {
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    /// An `epoll(7)` instance.
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        /// Create the epoll instance (close-on-exec).
        pub fn new() -> io::Result<Poller> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller { epfd })
        }

        /// Register `fd` under `token` with the given interest.
        pub fn add(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token as u64,
            };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) }).map(|_| ())
        }

        /// Change the interest of an already registered `fd`.
        pub fn modify(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token as u64,
            };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_MOD, fd, &mut ev) }).map(|_| ())
        }

        /// Remove `fd` from the set. Dropping the fd also removes it;
        /// this exists for connections that close while their token is
        /// being recycled.
        pub fn remove(&self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
        }

        /// Wait up to `timeout_ms` (-1 blocks) and append readiness
        /// events to `out`. Returns the number of events delivered.
        pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            // Readiness left over is reported again by the next wait
            // (level-triggered), so a small batch loses nothing and
            // keeps the buffer zeroed on every wait cheap.
            const CAPACITY: usize = 128;
            let mut raw = [EpollEvent { events: 0, data: 0 }; CAPACITY];
            // EINTR yields an empty batch so the caller re-checks
            // shutdown before waiting again.
            let n = match cvt(unsafe {
                epoll_wait(self.epfd, raw.as_mut_ptr(), CAPACITY as i32, timeout_ms)
            }) {
                Ok(n) => n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for ev in &raw[..n] {
                // Copy out of the (possibly packed) struct first.
                let events = ev.events;
                let data = ev.data;
                out.push(Event {
                    token: data as usize,
                    readable: events & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: events & EPOLLOUT != 0,
                    hangup: events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod posix {
    use super::{Event, Interest};
    use std::cell::RefCell;
    use std::io;
    use std::os::fd::RawFd;

    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    const POLLERR: i16 = 0x8;
    const POLLHUP: i16 = 0x10;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: usize, timeout: i32) -> i32;
    }

    /// A `poll(2)`-backed fallback with the same surface as the epoll
    /// poller. O(registered fds) per wait — fine for the fallback tier.
    pub struct Poller {
        entries: RefCell<Vec<(RawFd, usize, Interest)>>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                entries: RefCell::new(Vec::new()),
            })
        }

        pub fn add(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.entries.borrow_mut().push((fd, token, interest));
            Ok(())
        }

        pub fn modify(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            let mut entries = self.entries.borrow_mut();
            match entries.iter_mut().find(|(f, _, _)| *f == fd) {
                Some(entry) => {
                    *entry = (fd, token, interest);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn remove(&self, fd: RawFd) -> io::Result<()> {
            self.entries.borrow_mut().retain(|(f, _, _)| *f != fd);
            Ok(())
        }

        pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            let entries = self.entries.borrow().clone();
            let mut fds: Vec<PollFd> = entries
                .iter()
                .map(|(fd, _, interest)| PollFd {
                    fd: *fd,
                    events: if interest.readable { POLLIN } else { 0 }
                        | if interest.writable { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len(), timeout_ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(e);
            }
            let mut delivered = 0usize;
            for (slot, (_, token, _)) in fds.iter().zip(entries.iter()) {
                if slot.revents == 0 {
                    continue;
                }
                delivered += 1;
                out.push(Event {
                    token: *token,
                    readable: slot.revents & (POLLIN | POLLHUP) != 0,
                    writable: slot.revents & POLLOUT != 0,
                    hangup: slot.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(delivered)
        }
    }
}

/// Wakes a [`Poller::wait`] from another thread: a nonblocking
/// `UnixStream` pair whose read end sits in the poll set. `wake` writes
/// one byte (a full pipe means a wake is already pending — that is
/// success); the loop `drain`s on delivery so the next wake edges again.
#[cfg(unix)]
pub struct Waker {
    read_half: std::os::unix::net::UnixStream,
    write_half: std::os::unix::net::UnixStream,
}

#[cfg(unix)]
impl Waker {
    /// Build the pair; both halves nonblocking.
    pub fn new() -> io::Result<Waker> {
        let (read_half, write_half) = std::os::unix::net::UnixStream::pair()?;
        read_half.set_nonblocking(true)?;
        write_half.set_nonblocking(true)?;
        Ok(Waker {
            read_half,
            write_half,
        })
    }

    /// The fd to register (readable interest) in the poll set.
    pub fn fd(&self) -> RawFd {
        use std::os::fd::AsRawFd;
        self.read_half.as_raw_fd()
    }

    /// Signal the loop. Callable from any thread; never blocks.
    pub fn wake(&self) {
        use std::io::Write;
        match (&self.write_half).write(&[1u8]) {
            Ok(_) => {}
            // Buffer full: a wake is already pending, nothing to do.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(_) => {}
        }
    }

    /// Consume pending wake bytes so the fd goes quiet again.
    pub fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 256];
        while let Ok(n) = (&self.read_half).read(&mut buf) {
            if n == 0 {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn reports_readable_when_bytes_arrive() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing pending yet.
        poller.wait(&mut events, 0).unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));

        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        events.clear();
        let mut seen = false;
        for _ in 0..100 {
            poller.wait(&mut events, 100).unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                seen = true;
                break;
            }
        }
        assert!(seen, "readable event never delivered");
        let mut buf = [0u8; 8];
        let n = (&server).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
    }

    #[test]
    fn writable_interest_is_togglable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 3, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(!events.iter().any(|e| e.token == 3 && e.writable));

        // An idle socket is immediately writable once we ask.
        poller
            .modify(
                server.as_raw_fd(),
                3,
                Interest {
                    readable: true,
                    writable: true,
                },
            )
            .unwrap();
        events.clear();
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.writable));
    }

    #[test]
    fn waker_wakes_and_drains() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.add(waker.fd(), 99, Interest::READ).unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty());

        waker.wake();
        waker.wake(); // coalesces
        events.clear();
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 99 && e.readable));

        waker.drain();
        events.clear();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "drained waker should be quiet");
    }

    #[test]
    fn hangup_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 5, Interest::READ).unwrap();
        drop(client);

        let mut events = Vec::new();
        let mut hung = false;
        for _ in 0..100 {
            poller.wait(&mut events, 100).unwrap();
            if events
                .iter()
                .any(|e| e.token == 5 && (e.hangup || e.readable))
            {
                hung = true;
                break;
            }
        }
        assert!(hung, "peer close never surfaced");
    }
}
