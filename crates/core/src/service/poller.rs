//! Readiness-driven socket serving: a `mio`-style [`Poller`] over
//! nonblocking sockets, plus the event-loop harness both TCP fronts (the
//! node front in [`proto`](super::proto) and the cluster router in
//! [`cluster`](super::cluster)) run their connections on.
//!
//! One thread owns every connection of a front: sockets are nonblocking,
//! readiness comes from the kernel through `poll(2)` (declared against
//! the libc std already links), partial lines and frame bytes are
//! buffered per connection, and `--poll-interval` survives only as the
//! *timer granularity*: the loop sleeps in the kernel until a socket
//! turns ready or the tick elapses, never spinning.
//!
//! The connection cap is enforced deterministically at accept time — the
//! over-cap client reads `err: busy` and an immediate close, and a
//! departed predecessor's slot is free before the next accept runs.
//!
//! Off Unix there is no readiness facility: [`Poller::new`] fails with
//! [`io::ErrorKind::Unsupported`], which the fronts and the load
//! generator return as a setup error. The crate still compiles there.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// The Poller
// ---------------------------------------------------------------------------

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the file descriptor was registered under.
    pub token: u64,
    /// The descriptor has bytes to read — or an error/hangup condition
    /// that a read will surface (EOF, `ECONNRESET`), which is why
    /// error-ish readiness is folded into `readable`.
    pub readable: bool,
    /// The descriptor can accept more bytes.
    pub writable: bool,
}

/// Readiness interest for one registered descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when readable.
    pub read: bool,
    /// Wake when writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

/// A level-triggered readiness selector over raw file descriptors,
/// backed by `poll(2)`. Register sockets under a caller token, then
/// [`Poller::wait`] blocks in the kernel until one turns ready or the
/// timeout lapses.
#[derive(Debug)]
pub struct Poller {
    backend: PollerBackend,
}

impl Poller {
    /// Opens the platform selector.
    ///
    /// # Errors
    ///
    /// The platform has no readiness facility (non-Unix):
    /// [`io::ErrorKind::Unsupported`].
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            backend: PollerBackend::new()?,
        })
    }

    /// Registers `fd` under `token` with the given interest.
    ///
    /// # Errors
    ///
    /// `fd` is already registered ([`io::ErrorKind::AlreadyExists`]).
    pub fn add(&mut self, fd: RawFdT, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.add(fd, token, interest)
    }

    /// Changes the token and interest set of an already-registered
    /// descriptor.
    ///
    /// # Errors
    ///
    /// The descriptor is not registered ([`io::ErrorKind::NotFound`]).
    pub fn modify(&mut self, fd: RawFdT, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.modify(fd, token, interest)
    }

    /// Deregisters a descriptor. Must be called *before* the socket is
    /// closed.
    ///
    /// # Errors
    ///
    /// The descriptor is not registered ([`io::ErrorKind::NotFound`]).
    pub fn remove(&mut self, fd: RawFdT) -> io::Result<()> {
        self.backend.remove(fd)
    }

    /// Blocks until at least one registered descriptor is ready or
    /// `timeout` elapses, appending events to `events` (cleared first).
    ///
    /// # Errors
    ///
    /// The kernel wait itself failed (`EINTR` is retried internally).
    pub fn wait(&mut self, events: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
        events.clear();
        self.backend.wait(events, timeout)
    }
}

/// The raw-descriptor type registrations use (`i32` everywhere Unix).
pub type RawFdT = i32;

// --- Unix: poll(2) through the libc std already links ---------------------

#[cfg(unix)]
mod sys {
    use super::{Interest, PollEvent, RawFdT};
    use std::io;
    use std::time::Duration;

    /// The C `struct pollfd`.
    #[repr(C)]
    #[derive(Debug)]
    struct PollFd {
        fd: RawFdT,
        events: i16,
        revents: i16,
    }

    /// The C `nfds_t`: `unsigned long` in glibc, musl and illumos (32
    /// bits on 32-bit targets), `unsigned int` on the BSDs, macOS and
    /// Android.
    #[cfg(any(target_os = "linux", target_os = "illumos", target_os = "solaris"))]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "illumos", target_os = "solaris")))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    fn event_bits(interest: Interest) -> i16 {
        (if interest.read { POLLIN } else { 0 }) | (if interest.write { POLLOUT } else { 0 })
    }

    fn not_registered() -> io::Error {
        io::Error::new(io::ErrorKind::NotFound, "fd not registered")
    }

    /// A sub-millisecond tick still sleeps (1 ms) rather than spinning.
    fn timeout_ms(timeout: Duration) -> i32 {
        timeout.as_millis().clamp(1, i32::MAX as u128) as i32
    }

    #[derive(Debug)]
    pub(super) struct PollerBackend {
        /// The array `poll(2)` reads as is, in registration order
        /// (removal swaps the last entry in).
        fds: Vec<PollFd>,
        /// `tokens[i]` is the token `fds[i]` is registered under.
        tokens: Vec<u64>,
    }

    impl PollerBackend {
        pub(super) fn new() -> io::Result<Self> {
            Ok(Self {
                fds: Vec::new(),
                tokens: Vec::new(),
            })
        }

        fn position(&self, fd: RawFdT) -> Option<usize> {
            self.fds.iter().position(|p| p.fd == fd)
        }

        pub(super) fn add(&mut self, fd: RawFdT, token: u64, interest: Interest) -> io::Result<()> {
            if self.position(fd).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            self.fds.push(PollFd {
                fd,
                events: event_bits(interest),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        pub(super) fn modify(
            &mut self,
            fd: RawFdT,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            let at = self.position(fd).ok_or_else(not_registered)?;
            self.fds[at].events = event_bits(interest);
            self.tokens[at] = token;
            Ok(())
        }

        pub(super) fn remove(&mut self, fd: RawFdT) -> io::Result<()> {
            let at = self.position(fd).ok_or_else(not_registered)?;
            self.fds.swap_remove(at);
            self.tokens.swap_remove(at);
            Ok(())
        }

        pub(super) fn wait(
            &mut self,
            events: &mut Vec<PollEvent>,
            timeout: Duration,
        ) -> io::Result<()> {
            let n = loop {
                // SAFETY: `fds` is a live, exclusively borrowed array of
                // `repr(C)` pollfds and `nfds` is its exact length.
                let ret = unsafe {
                    poll(
                        self.fds.as_mut_ptr(),
                        self.fds.len() as Nfds,
                        timeout_ms(timeout),
                    )
                };
                if ret >= 0 {
                    break ret;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            if n > 0 {
                for (pfd, &token) in self.fds.iter().zip(&self.tokens) {
                    let bits = pfd.revents;
                    if bits != 0 {
                        events.push(PollEvent {
                            token,
                            // Error/hangup conditions surface through a
                            // read (0 bytes / ECONNRESET), so fold them in.
                            readable: bits & (POLLIN | POLLERR | POLLHUP) != 0,
                            writable: bits & (POLLOUT | POLLERR | POLLHUP) != 0,
                        });
                    }
                }
            }
            Ok(())
        }
    }
}

// --- Anywhere else: no poller, so no TCP serving ---------------------------

#[cfg(not(unix))]
mod sys {
    use super::{Interest, PollEvent, RawFdT};
    use std::io;
    use std::time::Duration;

    #[derive(Debug)]
    pub(super) struct PollerBackend;

    impl PollerBackend {
        pub(super) fn new() -> io::Result<Self> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "no readiness facility on this platform",
            ))
        }

        pub(super) fn add(&mut self, _: RawFdT, _: u64, _: Interest) -> io::Result<()> {
            unreachable!("PollerBackend::new never succeeds here")
        }

        pub(super) fn modify(&mut self, _: RawFdT, _: u64, _: Interest) -> io::Result<()> {
            unreachable!("PollerBackend::new never succeeds here")
        }

        pub(super) fn remove(&mut self, _: RawFdT) -> io::Result<()> {
            unreachable!("PollerBackend::new never succeeds here")
        }

        pub(super) fn wait(&mut self, _: &mut Vec<PollEvent>, _: Duration) -> io::Result<()> {
            unreachable!("PollerBackend::new never succeeds here")
        }
    }
}

use sys::PollerBackend;

/// The raw descriptor of a socket, as [`Poller::add`] wants it. Only
/// reachable where a poller exists (on non-Unix [`Poller::new`] fails
/// before any registration is attempted).
#[cfg(unix)]
pub fn raw_fd(sock: &impl std::os::unix::io::AsRawFd) -> RawFdT {
    sock.as_raw_fd()
}

/// See the Unix variant; never reached without a poller.
#[cfg(not(unix))]
pub fn raw_fd<T>(_sock: &T) -> RawFdT {
    unreachable!("the event loop never runs without a poller")
}

// ---------------------------------------------------------------------------
// The shared event-loop harness
// ---------------------------------------------------------------------------

/// What a dispatched line asks the loop to do with its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dispatch {
    /// Keep the session going.
    Continue,
    /// Flush buffered output, then close this connection (`quit`, EOF).
    Close,
    /// Flip the server-wide stop flag, then close this connection
    /// (`shutdown`).
    Shutdown,
}

/// Protocol-facing knobs the loop enforces; both fronts map their config
/// structs onto this.
#[derive(Debug, Clone)]
pub(crate) struct LoopConfig {
    /// Greeting written when a connection opens.
    pub banner: String,
    /// Close a connection after this long without a complete command.
    pub idle_timeout: Option<Duration>,
    /// Connections beyond this read `err: busy` and an immediate close.
    pub max_connections: usize,
    /// Timer granularity: the kernel wait's upper bound, which bounds
    /// how stale idle-deadline and stop-flag checks can be.
    pub tick: Duration,
}

/// In-band farewell when another session shuts the server down.
const STOPPING: &[u8] = b"err: server shutting down\n";
/// In-band farewell when the idle deadline fires.
const IDLE: &[u8] = "err: idle timeout — closing connection\n".as_bytes();
/// Deterministic over-cap rejection.
const BUSY: &[u8] = b"err: busy\n";

/// How long after stop the loop keeps draining unflushed farewells
/// before abandoning slow clients.
const DRAIN_GRACE: Duration = Duration::from_secs(1);

/// Reads drained per connection per readiness event before yielding to
/// fellow connections (level-triggered readiness re-fires if bytes
/// remain, so fairness costs nothing).
const READ_BURST: usize = 16;

struct Conn<H> {
    stream: TcpStream,
    handler: H,
    in_buf: Vec<u8>,
    out: Vec<u8>,
    /// Bytes of `out` already written.
    sent: usize,
    /// Read side finished (EOF seen).
    eof: bool,
    /// Stop reading; close once `out` drains.
    closing: bool,
    /// Last moment this connection either delivered bytes or finished a
    /// command — the idle clock (dispatch time is never billed as
    /// idleness).
    last_activity: Instant,
    /// The interest set currently registered with the poller.
    registered: Interest,
}

impl<H> Conn<H> {
    fn pending(&self) -> usize {
        self.out.len() - self.sent
    }

    fn wanted(&self) -> Interest {
        Interest {
            read: !self.closing && !self.eof,
            write: self.pending() > 0,
        }
    }
}

/// Runs one front's whole TCP life on the calling thread: accepts,
/// reads, dispatches complete lines through a per-connection handler
/// minted by `new_handler`, writes buffered responses, and enforces the
/// idle deadline, the connection cap, and the stop flag. Returns when
/// `stop` is set (in-band `shutdown` sets it from a dispatch) and every
/// farewell has drained, or when the listener itself dies.
pub(crate) fn run_event_loop<H, F>(
    mut poller: Poller,
    listener: &TcpListener,
    config: &LoopConfig,
    stop: &AtomicBool,
    mut new_handler: F,
) where
    H: FnMut(&str, &mut Vec<u8>) -> io::Result<Dispatch>,
    F: FnMut() -> H,
{
    const LISTENER: u64 = u64::MAX;
    let mut conns: HashMap<u64, Conn<H>> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut events: Vec<PollEvent> = Vec::new();
    let mut listening = poller
        .add(raw_fd(listener), LISTENER, Interest::READ)
        .is_ok();
    if !listening {
        return;
    }
    let mut announced = false;
    let mut drain_deadline: Option<Instant> = None;
    loop {
        let stopping = stop.load(Ordering::SeqCst);
        if stopping && !announced {
            // Buffered complete lines still run, then every surviving
            // session hears why it's closing.
            announced = true;
            drain_deadline = Some(Instant::now() + DRAIN_GRACE);
            if listening {
                let _ = poller.remove(raw_fd(listener));
                listening = false;
            }
            let mut dead = Vec::new();
            for (&token, conn) in conns.iter_mut() {
                drain_lines(conn, stop);
                if !conn.closing {
                    conn.out.extend_from_slice(STOPPING);
                    conn.closing = true;
                }
                if !flush_and_update(&mut poller, token, conn) {
                    dead.push(token);
                }
            }
            for token in dead {
                close_conn(&mut poller, &mut conns, token);
            }
        }
        if stopping {
            let expired = drain_deadline.is_some_and(|d| Instant::now() >= d);
            if conns.is_empty() || expired {
                break;
            }
        }
        if poller.wait(&mut events, config.tick).is_err() {
            break;
        }
        for &ev in &events {
            if ev.token == LISTENER {
                if !stopping {
                    accept_burst(
                        &mut poller,
                        listener,
                        config,
                        &mut conns,
                        &mut next_token,
                        &mut new_handler,
                    );
                }
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else {
                continue;
            };
            let mut alive = true;
            if ev.readable && !conn.closing && !conn.eof {
                alive = read_burst(conn);
                if alive {
                    drain_lines(conn, stop);
                }
            }
            if alive {
                alive = flush_and_update(&mut poller, ev.token, conn);
            }
            if !alive {
                close_conn(&mut poller, &mut conns, ev.token);
            } else if stop.load(Ordering::SeqCst) && !stopping {
                // A dispatch just asked for shutdown: restart the loop
                // so the announce pass runs before further I/O.
                break;
            }
        }
        // Timer pass: idle deadlines, at tick granularity.
        if let Some(limit) = config.idle_timeout {
            let now = Instant::now();
            let mut dead = Vec::new();
            for (&token, conn) in conns.iter_mut() {
                if !conn.closing && now.duration_since(conn.last_activity) >= limit {
                    conn.out.extend_from_slice(IDLE);
                    conn.closing = true;
                    if !flush_and_update(&mut poller, token, conn) {
                        dead.push(token);
                    }
                }
            }
            for token in dead {
                close_conn(&mut poller, &mut conns, token);
            }
        }
    }
}

/// Accepts until the listener would block. Over-cap connections read
/// `err: busy` and are dropped on the spot — the cap check and the
/// close both happen on this thread, so rejection is deterministic.
fn accept_burst<H, F>(
    poller: &mut Poller,
    listener: &TcpListener,
    config: &LoopConfig,
    conns: &mut HashMap<u64, Conn<H>>,
    next_token: &mut u64,
    new_handler: &mut F,
) where
    H: FnMut(&str, &mut Vec<u8>) -> io::Result<Dispatch>,
    F: FnMut() -> H,
{
    loop {
        match listener.accept() {
            Ok((mut stream, _)) => {
                if conns.len() >= config.max_connections {
                    let _ = stream.write_all(BUSY);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                let token = *next_token;
                *next_token += 1;
                let mut out = Vec::with_capacity(config.banner.len() + 1);
                out.extend_from_slice(config.banner.as_bytes());
                out.push(b'\n');
                let mut conn = Conn {
                    stream,
                    handler: new_handler(),
                    in_buf: Vec::new(),
                    out,
                    sent: 0,
                    eof: false,
                    closing: false,
                    last_activity: Instant::now(),
                    registered: Interest {
                        read: false,
                        write: false,
                    },
                };
                if try_write(&mut conn) {
                    let interest = conn.wanted();
                    if poller.add(raw_fd(&conn.stream), token, interest).is_ok() {
                        conn.registered = interest;
                        conns.insert(token, conn);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // A broken listener cannot serve anyone; the wait loop keeps
            // existing sessions alive until they finish.
            Err(_) => return,
        }
    }
}

/// Reads up to [`READ_BURST`] chunks. Returns `false` when the
/// connection died (hard error).
fn read_burst<H>(conn: &mut Conn<H>) -> bool {
    let mut chunk = [0u8; 4096];
    for _ in 0..READ_BURST {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                return true;
            }
            Ok(n) => {
                conn.in_buf.extend_from_slice(&chunk[..n]);
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Dispatches every complete buffered line (and, at EOF, the trailing
/// unterminated line — matching `BufRead::lines` on the stdio front).
/// Pipelined input after `quit`/`shutdown` is discarded.
fn drain_lines<H>(conn: &mut Conn<H>, stop: &AtomicBool)
where
    H: FnMut(&str, &mut Vec<u8>) -> io::Result<Dispatch>,
{
    while !conn.closing {
        let line = match conn.in_buf.iter().position(|b| *b == b'\n') {
            Some(pos) => {
                let mut line: Vec<u8> = conn.in_buf.drain(..=pos).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                line
            }
            None if conn.eof && !conn.in_buf.is_empty() => std::mem::take(&mut conn.in_buf),
            None => break,
        };
        let text = String::from_utf8_lossy(&line).into_owned();
        match (conn.handler)(&text, &mut conn.out) {
            Ok(Dispatch::Continue) => {}
            Ok(Dispatch::Close) => conn.closing = true,
            Ok(Dispatch::Shutdown) => {
                stop.store(true, Ordering::SeqCst);
                conn.closing = true;
            }
            // Output is buffered, so an Err is a codec-internal
            // failure rather than a socket error — close the session.
            Err(_) => conn.closing = true,
        }
        // Command execution is never billed as idleness.
        conn.last_activity = Instant::now();
    }
    if conn.eof && conn.in_buf.is_empty() {
        conn.closing = true;
    }
}

/// Greedily writes pending output. Returns `false` when the connection
/// died mid-write.
fn try_write<H>(conn: &mut Conn<H>) -> bool {
    while conn.pending() > 0 {
        match conn.stream.write(&conn.out[conn.sent..]) {
            Ok(0) => return false,
            Ok(n) => conn.sent += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    // Fully drained: reclaim the buffer.
    conn.out.clear();
    conn.sent = 0;
    true
}

/// Flushes, then settles the connection's fate: `false` means remove it
/// (dead, or closing with everything sent); `true` keeps it registered
/// with its current interest.
fn flush_and_update<H>(poller: &mut Poller, token: u64, conn: &mut Conn<H>) -> bool {
    if !try_write(conn) {
        return false;
    }
    if conn.closing && conn.pending() == 0 {
        return false;
    }
    let wanted = conn.wanted();
    if wanted != conn.registered && poller.modify(raw_fd(&conn.stream), token, wanted).is_ok() {
        conn.registered = wanted;
    }
    true
}

fn close_conn<H>(poller: &mut Poller, conns: &mut HashMap<u64, Conn<H>>, token: u64) {
    if let Some(conn) = conns.remove(&token) {
        let _ = poller.remove(raw_fd(&conn.stream));
        // Dropping the stream closes the socket; pooled backend
        // connections a handler owns drop with it.
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    const WAIT: Duration = Duration::from_secs(2);

    /// A connected loopback pair: (our end, the peer).
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (ours, _) = listener.accept().unwrap();
        (ours, peer)
    }

    /// Waits until `token` fires (or the budget runs out) and returns its
    /// event.
    fn wait_for(poller: &mut Poller, token: u64) -> Option<PollEvent> {
        let deadline = Instant::now() + WAIT;
        let mut events = Vec::new();
        while Instant::now() < deadline {
            poller.wait(&mut events, Duration::from_millis(50)).unwrap();
            if let Some(ev) = events.iter().find(|e| e.token == token) {
                return Some(*ev);
            }
        }
        None
    }

    #[test]
    fn duplicate_add_is_already_exists() {
        let (ours, _peer) = pair();
        let mut poller = Poller::new().unwrap();
        poller.add(raw_fd(&ours), 1, Interest::READ).unwrap();
        let err = poller.add(raw_fd(&ours), 2, Interest::READ).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
    }

    #[test]
    fn unregistered_fd_is_not_found() {
        let (ours, _peer) = pair();
        let mut poller = Poller::new().unwrap();
        let err = poller.modify(raw_fd(&ours), 1, Interest::READ).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let err = poller.remove(raw_fd(&ours)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn loopback_readiness_follows_the_peer() {
        let (mut ours, mut peer) = pair();
        let mut poller = Poller::new().unwrap();
        let both = Interest {
            read: true,
            write: true,
        };
        poller.add(raw_fd(&ours), 7, both).unwrap();
        let ev = wait_for(&mut poller, 7).expect("a fresh socket is writable");
        assert!(ev.writable && !ev.readable, "{ev:?}");

        // `modify` moves the descriptor to a new token, too.
        poller.modify(raw_fd(&ours), 8, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(20)).unwrap();
        assert!(events.is_empty(), "nothing to read yet: {events:?}");

        peer.write_all(b"ping\n").unwrap();
        let ev = wait_for(&mut poller, 8).expect("readable after the peer writes");
        assert!(ev.readable && !ev.writable, "{ev:?}");
        let mut buf = [0u8; 16];
        assert_eq!(ours.read(&mut buf).unwrap(), 5);

        drop(peer);
        let ev = wait_for(&mut poller, 8).expect("readable after the peer closes");
        assert!(ev.readable, "{ev:?}");
        assert_eq!(ours.read(&mut buf).unwrap(), 0, "the hangup reads as EOF");

        // Both directions shut: the hangup wakes a write-only
        // registration as readable, so the owner reads and sees the EOF.
        ours.shutdown(std::net::Shutdown::Write).unwrap();
        let write_only = Interest {
            read: false,
            write: true,
        };
        poller.modify(raw_fd(&ours), 8, write_only).unwrap();
        let ev = wait_for(&mut poller, 8).expect("a hung-up socket fires");
        assert!(ev.readable, "hangup folds into readable: {ev:?}");
    }

    #[test]
    fn remove_then_readd_works() {
        let (ours, mut peer) = pair();
        let mut poller = Poller::new().unwrap();
        poller.add(raw_fd(&ours), 1, Interest::READ).unwrap();
        poller.remove(raw_fd(&ours)).unwrap();
        peer.write_all(b"x").unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(20)).unwrap();
        assert!(events.is_empty(), "a removed fd never fires: {events:?}");

        poller.add(raw_fd(&ours), 2, Interest::READ).unwrap();
        let ev = wait_for(&mut poller, 2).expect("re-added fd fires under its new token");
        assert!(ev.readable, "{ev:?}");
    }
}
