//! Offline shim of the `mio` crate: a thin, safe wrapper around Linux epoll.
//!
//! This workspace builds with no network access, so instead of the real
//! `mio` this crate hand-rolls the small subset of its API that
//! `doppel_service`'s reactor front-end needs: [`Poll`] / [`Registry`] for
//! readiness registration, [`Events`] / [`Event`] for the wait results,
//! [`Token`] to name registrations, [`Interest`] to pick directions, and an
//! eventfd-backed [`Waker`] for cross-thread wakeups.
//!
//! The syscall layer is declared directly against the C library (which every
//! Linux Rust binary already links) — no external crate is required. All
//! registrations are level-triggered, matching the reactor's
//! "drain-until-`WouldBlock`" structure; the waker's eventfd is the one
//! edge-triggered registration, so it never needs draining.

#[cfg(not(target_os = "linux"))]
compile_error!("the mio shim is Linux-only (epoll); gate reactor use on target_os = \"linux\"");

use std::io;
use std::os::raw::{c_int, c_long, c_uint, c_void};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ------------------------------------------------------------- syscall layer

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int)
        -> c_int;
    fn syscall(num: c_long, ...) -> c_long;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const ENOSYS: i32 = 38;
const EPERM: i32 = 1;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;

/// `epoll_pwait2(2)` (Linux 5.11): `epoll_wait` with a nanosecond timeout.
/// The number is the same on every architecture; libc wrappers are too recent
/// to rely on, so it goes through `syscall(2)`.
const SYS_EPOLL_PWAIT2: c_long = 441;

/// The kernel's `struct __kernel_timespec` (64-bit fields everywhere).
#[repr(C)]
struct KernelTimespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Set once `epoll_pwait2` answered `ENOSYS` (old kernel) or `EPERM` (a
/// seccomp profile that predates it); timeouts then round up to whole
/// milliseconds through `epoll_wait`.
static NO_PWAIT2: AtomicBool = AtomicBool::new(false);

const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// The kernel's `struct epoll_event`. On x86-64 the kernel ABI packs it;
/// other architectures use natural alignment (glibc's `__EPOLL_PACKED`).
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

// ---------------------------------------------------------------- public API

/// Names one registration; echoed back in every [`Event`] for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

/// Which readiness directions a registration asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest(u32);

impl Interest {
    /// Readable readiness (includes peer hang-up, so a closed connection
    /// surfaces as a readable event whose `read` returns 0).
    pub const READABLE: Interest = Interest(EPOLLIN | EPOLLRDHUP);
    /// Writable readiness.
    pub const WRITABLE: Interest = Interest(EPOLLOUT);

    /// Combines two interests (mio's name for this; `|` also works).
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// True when this interest includes readable readiness.
    pub fn is_readable(&self) -> bool {
        self.0 & EPOLLIN != 0
    }

    /// True when this interest includes writable readiness.
    pub fn is_writable(&self) -> bool {
        self.0 & EPOLLOUT != 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        self.add(rhs)
    }
}

/// Owns the epoll file descriptor; closed exactly once on drop.
#[derive(Debug)]
struct EpollFd(RawFd);

impl Drop for EpollFd {
    fn drop(&mut self) {
        unsafe { close(self.0) };
    }
}

/// A handle for (de)registering event sources; cheaply cloneable so set-up
/// code (and [`Waker`]) can hold one independently of the [`Poll`] loop.
#[derive(Clone, Debug)]
pub struct Registry {
    ep: Arc<EpollFd>,
}

impl Registry {
    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: Token) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token.0 as u64 };
        cvt(unsafe { epoll_ctl(self.ep.0, op, fd, &mut ev) }).map(|_| ())
    }

    /// Starts delivering `interest` events for `source` under `token`
    /// (level-triggered).
    pub fn register(
        &self,
        source: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, source.as_raw_fd(), interest.0, token)
    }

    /// Replaces the interest set of an existing registration.
    pub fn reregister(
        &self,
        source: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, source.as_raw_fd(), interest.0, token)
    }

    /// Stops delivering events for `source`.
    pub fn deregister(&self, source: &impl AsRawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, source.as_raw_fd(), 0, Token(0))
    }
}

/// The event loop core: an epoll instance to wait on.
#[derive(Debug)]
pub struct Poll {
    registry: Registry,
}

impl Poll {
    /// Creates a fresh epoll instance.
    pub fn new() -> io::Result<Poll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poll { registry: Registry { ep: Arc::new(EpollFd(fd)) } })
    }

    /// The registration handle for this poll instance.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Blocks until at least one registered source is ready or `timeout`
    /// elapses (`None` waits indefinitely), filling `events`. A signal
    /// interruption returns with an empty event set rather than an error.
    ///
    /// A timeout with a sub-millisecond part is honoured to the nanosecond
    /// through `epoll_pwait2` where the kernel has it (a loop that must pass
    /// a safepoint every 200 µs cannot afford `epoll_wait`'s millisecond
    /// granularity); elsewhere it rounds up to whole milliseconds.
    pub fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        events.len = 0;
        let n = match timeout {
            Some(t) if t.subsec_nanos() % 1_000_000 != 0 && !NO_PWAIT2.load(Ordering::Relaxed) => {
                let n = self.wait_nanos(events, t);
                let errno = io::Error::last_os_error().raw_os_error();
                if n < 0 && matches!(errno, Some(ENOSYS | EPERM)) {
                    NO_PWAIT2.store(true, Ordering::Relaxed);
                    self.wait_millis(events, timeout)
                } else {
                    n
                }
            }
            _ => self.wait_millis(events, timeout),
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        events.len = n as usize;
        Ok(())
    }
}

impl Poll {
    fn wait_nanos(&self, events: &mut Events, timeout: Duration) -> c_int {
        let ts = KernelTimespec {
            tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `events.buf` is a live allocation of `buf.len()` events the
        // kernel may fill, `ts` outlives the call, and a null signal mask
        // (size ignored) leaves the thread's mask alone.
        unsafe {
            syscall(
                SYS_EPOLL_PWAIT2,
                self.registry.ep.0,
                events.buf.as_mut_ptr(),
                events.buf.len() as c_int,
                std::ptr::addr_of!(ts),
                std::ptr::null::<c_void>(),
                0usize,
            ) as c_int
        }
    }

    fn wait_millis(&self, events: &mut Events, timeout: Option<Duration>) -> c_int {
        let timeout_ms: c_int = match timeout {
            // Round up so a 1 µs timeout still sleeps rather than spins.
            Some(t) => {
                let ms = t.as_millis() + u128::from(t.subsec_nanos() % 1_000_000 != 0);
                ms.min(i32::MAX as u128) as c_int
            }
            None => -1,
        };
        // SAFETY: as above; the kernel fills at most `buf.len()` events.
        unsafe {
            epoll_wait(
                self.registry.ep.0,
                events.buf.as_mut_ptr(),
                events.buf.len() as c_int,
                timeout_ms,
            )
        }
    }
}

/// A buffer of readiness events filled by [`Poll::poll`].
pub struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    /// Creates a buffer that can carry up to `capacity` events per poll.
    pub fn with_capacity(capacity: usize) -> Events {
        Events { buf: vec![EpollEvent { events: 0, data: 0 }; capacity.max(1)], len: 0 }
    }

    /// True when the last poll returned no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the events of the last poll.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|raw| Event { events: raw.events, token: raw.data })
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = Event;
    type IntoIter = Box<dyn Iterator<Item = Event> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// One readiness event.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    events: u32,
    token: u64,
}

impl Event {
    /// The token the source was registered under.
    pub fn token(&self) -> Token {
        Token(self.token as usize)
    }

    /// Readable — includes error and hang-up conditions, so the handler's
    /// `read` call observes the failure/EOF itself.
    pub fn is_readable(&self) -> bool {
        self.events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0
    }

    /// Writable.
    pub fn is_writable(&self) -> bool {
        self.events & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0
    }

    /// An error condition was signalled for the source.
    pub fn is_error(&self) -> bool {
        self.events & EPOLLERR != 0
    }
}

/// Wakes a [`Poll`] from any thread: an edge-triggered eventfd registration
/// that fires the given token. Never needs draining — each `wake` edge is a
/// fresh event, and the counter cannot realistically overflow.
#[derive(Debug)]
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Creates a waker delivering `token` to `registry`'s poll loop.
    pub fn new(registry: &Registry, token: Token) -> io::Result<Waker> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        let mut ev = EpollEvent { events: EPOLLIN | EPOLLET, data: token.0 as u64 };
        if let Err(e) = cvt(unsafe { epoll_ctl(registry.ep.0, EPOLL_CTL_ADD, fd, &mut ev) }) {
            unsafe { close(fd) };
            return Err(e);
        }
        Ok(Waker { fd })
    }

    /// Makes the next (or current) poll return with this waker's token.
    pub fn wake(&self) -> io::Result<()> {
        let one: u64 = 1;
        let ret =
            unsafe { write(self.fd, std::ptr::addr_of!(one).cast::<c_void>(), 8) };
        if ret < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

// Raw fds are just integers; sending them across threads is sound, and every
// operation here is a single syscall the kernel serialises.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};

    const LISTENER: Token = Token(1);
    const CLIENT: Token = Token(2);
    const WAKE: Token = Token(3);

    #[test]
    fn listener_becomes_readable_on_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut poll = Poll::new().unwrap();
        poll.registry().register(&listener, LISTENER, Interest::READABLE).unwrap();

        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty(), "no events before a connection arrives");

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
        let tokens: Vec<Token> = events.iter().map(|e| e.token()).collect();
        assert!(tokens.contains(&LISTENER), "connect must make the listener readable");
        assert!(events.iter().all(|e| !e.is_error()));
    }

    #[test]
    fn stream_readiness_tracks_interest_and_reregister() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();

        let mut poll = Poll::new().unwrap();
        poll.registry().register(&client, CLIENT, Interest::READABLE).unwrap();

        // Nothing to read yet.
        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty());

        // Adding WRITABLE reports immediately (fresh socket, empty buffer).
        poll.registry()
            .reregister(&client, CLIENT, Interest::READABLE | Interest::WRITABLE)
            .unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token() == CLIENT && e.is_writable()));

        // Incoming bytes report readable.
        poll.registry().reregister(&client, CLIENT, Interest::READABLE).unwrap();
        server_side.write_all(b"x").unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token() == CLIENT && e.is_readable()));

        // After deregistering, the same condition reports nothing.
        poll.registry().deregister(&client).unwrap();
        poll.poll(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn waker_wakes_from_another_thread() {
        let mut poll = Poll::new().unwrap();
        let waker = Arc::new(Waker::new(poll.registry(), WAKE).unwrap());

        let remote = Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            remote.wake().unwrap();
        });

        let mut events = Events::with_capacity(4);
        poll.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token() == WAKE && e.is_readable()));
        handle.join().unwrap();

        // Repeated wakes keep producing events (edge per write).
        waker.wake().unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token() == WAKE));
    }

    #[test]
    fn sub_millisecond_timeouts_do_not_round_up_to_a_millisecond() {
        let mut poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(4);
        let start = std::time::Instant::now();
        for _ in 0..20 {
            poll.poll(&mut events, Some(Duration::from_micros(200))).unwrap();
            assert!(events.is_empty());
        }
        let per_wait = start.elapsed() / 20;
        assert!(per_wait >= Duration::from_micros(200), "a timeout must still sleep: {per_wait:?}");
        if !NO_PWAIT2.load(Ordering::Relaxed) {
            // 200 us plus timer slack and scheduling, well under 1 ms each.
            assert!(per_wait < Duration::from_micros(900), "rounded up: {per_wait:?}");
        }
    }

    #[test]
    fn interest_combinators() {
        let rw = Interest::READABLE | Interest::WRITABLE;
        assert!(rw.is_readable() && rw.is_writable());
        assert!(!Interest::WRITABLE.is_readable());
        assert!(!Interest::READABLE.is_writable());
    }
}
