//! The harness's own open-loop load generator: one thread, at most two
//! connections, non-blocking sockets multiplexed with `ppoll(2)`.
//!
//! Request `k` is due at `start + k / rate` and goes out on connection
//! `k % conns` as soon as it is due, whether or not earlier responses have
//! arrived (requests pipeline). Each connection walks the mix in turn, as
//! `cpistack loadgen` does, so a two-command mix alternates 1:1. Latency is
//! timed from the due slot, so a slow server shows up as latency instead of
//! silently lowering the offered rate. How late each send was (`late`) and
//! how many requests were still outstanding when the schedule ended
//! (`backlog`) are reported, so an overloaded generator is flagged rather
//! than measured as closed-loop. A request that falls due on a connection
//! the server has closed is counted as `dropped`, never skipped.
//!
//! Every response is compared byte for byte with the reference rendered
//! in-process for its command.

use crate::report::{SplitMix, Timespec};
use crate::trace::{Open, Tracer};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Hard cap on connections: the benchmark box has two cores.
pub const MAX_CONNS: usize = 2;

/// One command of a request mix and the exact bytes it must answer with.
#[derive(Debug, Clone)]
pub struct Command {
    pub line: String,
    pub reference: Vec<u8>,
}

/// One open-loop campaign.
#[derive(Debug, Clone)]
pub struct Load<'a> {
    pub addr: SocketAddr,
    pub conns: usize,
    /// Aggregate offered rate, requests per second.
    pub rate: f64,
    pub duration: Duration,
    pub mix: &'a [Command],
    /// Picks the command each connection starts its turn through the mix
    /// at, when the connections open.
    pub seed: u64,
    /// Stop sending once this many requests are outstanding (an overloaded
    /// ladder step); `None` sends the whole schedule.
    pub give_up_backlog: Option<usize>,
    /// Ends the schedule early once set (requests in flight still drain).
    pub stop: Option<&'a AtomicBool>,
}

/// What one campaign saw.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Latency of each completed request, from its due time, ms.
    pub latency_ms: Vec<f64>,
    /// How late each send was, ms.
    pub late_ms: Vec<f64>,
    pub sent: usize,
    pub completed: usize,
    /// Responses that differed from their reference.
    pub mismatched: usize,
    /// Requests still outstanding (unsent or unanswered) when the last one
    /// fell due.
    pub backlog: usize,
    /// Sending stopped early because the backlog passed the give-up mark.
    pub gave_up: bool,
    /// Requests sent but never answered (connection error or drain timeout).
    pub lost: usize,
    /// Requests that fell due on a connection the server had closed.
    pub dropped: usize,
    /// Completed requests per second over the schedule plus drain.
    pub throughput: f64,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Waits until a socket is ready or `timeout` passes.
fn wait(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, correctly laid-out pollfd array of the given
    // length, `ts` outlives the call and a null sigmask is allowed.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

struct InFlight {
    command: usize,
    due: Instant,
    sent: Instant,
    trace: u64,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    inflight: VecDeque<InFlight>,
    dead: bool,
    /// Index into the mix of this connection's next command.
    turn: usize,
}

/// Opens a protocol connection and consumes its banner line.
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut byte = [0u8; 1];
    loop {
        if stream.read(&mut byte)? == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        if byte[0] == b'\n' {
            return Ok(stream);
        }
    }
}

/// Length of the first complete response in `buf`, if there is one: lines
/// up to `ok` or `err: …`, with `frame stacks <n>` lines followed by `n`
/// raw bytes.
pub fn response_len(buf: &[u8]) -> Option<usize> {
    let mut pos = 0;
    loop {
        let end = pos + buf[pos..].iter().position(|&b| b == b'\n')?;
        let line = &buf[pos..end];
        pos = end + 1;
        if let Some(n) = line.strip_prefix(b"frame stacks ") {
            let n: usize = std::str::from_utf8(n).ok()?.trim().parse().ok()?;
            if buf.len() < pos + n {
                return None;
            }
            pos += n;
        } else if line == b"ok" || line.starts_with(b"err: ") {
            return Some(pos);
        }
    }
}

/// Open connections that campaigns run on. Kept across the windows of a
/// phase, so a window measures serving rather than connection set-up.
pub struct Clients {
    conns: Vec<Conn>,
}

impl Clients {
    /// Opens `load.conns` connections (at most `MAX_CONNS`) to `load.addr`;
    /// `load.seed` picks where each starts its turn through the mix.
    pub fn open(load: &Load<'_>) -> std::io::Result<Self> {
        let mut rng = SplitMix(load.seed);
        let conns = (0..load.conns.clamp(1, MAX_CONNS))
            .map(|_| {
                let stream = connect(load.addr)?;
                stream.set_nonblocking(true)?;
                Ok(Conn {
                    stream,
                    out: Vec::new(),
                    inbuf: Vec::new(),
                    inflight: VecDeque::new(),
                    dead: false,
                    turn: (rng.next() % 1024) as usize,
                })
            })
            .collect::<std::io::Result<_>>()?;
        Ok(Self { conns })
    }

    /// Drives one open-loop campaign to completion on these connections.
    /// Only the schedule fields of `load` are read (rate, duration, mix,
    /// give-up mark, stop flag).
    pub fn run(&mut self, load: &Load<'_>, tracer: &Tracer, parent: Option<&Open>) -> Outcome {
        let out = drive(&mut self.conns, load, tracer, parent);
        // A connection still owing answers would hand them to the next
        // campaign; retire it instead.
        for conn in &mut self.conns {
            if !conn.inflight.is_empty() {
                conn.inflight.clear();
                conn.dead = true;
            }
        }
        out
    }
}

/// Opens fresh connections and drives one open-loop campaign on them.
pub fn run(load: &Load<'_>, tracer: &Tracer, parent: Option<&Open>) -> std::io::Result<Outcome> {
    Ok(Clients::open(load)?.run(load, tracer, parent))
}

fn drive(conns: &mut [Conn], load: &Load<'_>, tracer: &Tracer, parent: Option<&Open>) -> Outcome {
    let mut total = ((load.rate * load.duration.as_secs_f64()).round() as usize).max(1);
    let interval = 1.0 / load.rate;
    let mut out = Outcome::default();
    let start = Instant::now() + Duration::from_millis(2);
    let due_of = |k: usize| start + Duration::from_secs_f64(k as f64 * interval);
    let mut drain_deadline = due_of(total) + Duration::from_secs(5);
    let mut next = 0usize;
    let mut backlog_taken = false;
    let mut buf = vec![0u8; 64 * 1024];
    let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len());

    loop {
        let now = Instant::now();
        if next < total && load.stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            total = next;
            drain_deadline = now + Duration::from_secs(5);
        }
        // Send everything that has fallen due.
        while next < total && !out.gave_up && due_of(next) <= now {
            let c = next % conns.len();
            let due = due_of(next);
            let conn = &mut conns[c];
            if conn.dead {
                out.dropped += 1;
            } else {
                let command = conn.turn % load.mix.len();
                conn.turn += 1;
                conn.out
                    .extend_from_slice(load.mix[command].line.as_bytes());
                conn.out.push(b'\n');
                conn.inflight.push_back(InFlight {
                    command,
                    due,
                    sent: now,
                    trace: tracer.id(),
                });
                out.sent += 1;
                out.late_ms
                    .push(now.duration_since(due).as_secs_f64() * 1e3);
            }
            next += 1;
            if let Some(limit) = load.give_up_backlog {
                if out.sent - out.completed > limit {
                    out.gave_up = true;
                }
            }
        }
        if !backlog_taken && (next == total || out.gave_up) {
            backlog_taken = true;
            out.backlog = (total - next) + (out.sent - out.completed) + out.dropped;
        }
        // Flush pending writes.
        for conn in conns.iter_mut().filter(|c| !c.dead && !c.out.is_empty()) {
            match conn.stream.write(&conn.out) {
                Ok(n) => {
                    conn.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => conn.dead = true,
            }
        }
        let outstanding: usize = conns
            .iter()
            .filter(|c| !c.dead)
            .map(|c| c.inflight.len())
            .sum();
        if (next == total || out.gave_up) && outstanding == 0 {
            break;
        }
        if now >= drain_deadline {
            break;
        }
        let timeout = if next < total && !out.gave_up {
            due_of(next).saturating_duration_since(now)
        } else {
            drain_deadline.saturating_duration_since(now)
        };
        fds.clear();
        for conn in conns.iter() {
            let mut events = POLLIN;
            if !conn.out.is_empty() {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd: if conn.dead {
                    -1
                } else {
                    conn.stream.as_raw_fd()
                },
                events,
                revents: 0,
            });
        }
        wait(&mut fds, timeout);
        // Read whatever arrived and retire complete responses.
        for (i, conn) in conns.iter_mut().enumerate() {
            if conn.dead || fds[i].revents == 0 {
                continue;
            }
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => conn.inbuf.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            let done = Instant::now();
            let mut consumed = 0;
            while let Some(len) = response_len(&conn.inbuf[consumed..]) {
                let Some(req) = conn.inflight.pop_front() else {
                    out.mismatched += 1;
                    consumed += len;
                    continue;
                };
                let body = &conn.inbuf[consumed..consumed + len];
                if body != load.mix[req.command].reference.as_slice() {
                    out.mismatched += 1;
                }
                consumed += len;
                out.completed += 1;
                out.latency_ms
                    .push(done.duration_since(req.due).as_secs_f64() * 1e3);
                if tracer.enabled() {
                    let parent_span = parent.map_or(0, |p| p.span);
                    let request = tracer.id();
                    tracer.record_with(
                        request,
                        req.trace,
                        parent_span,
                        "gen.request",
                        req.due,
                        done,
                    );
                    tracer.record_with(
                        tracer.id(),
                        req.trace,
                        request,
                        "gen.queue",
                        req.due,
                        req.sent,
                    );
                    tracer.record_with(tracer.id(), req.trace, request, "gen.rtt", req.sent, done);
                }
            }
            conn.inbuf.drain(..consumed);
        }
    }
    let end = Instant::now();
    out.lost = out.sent - out.completed;
    out.throughput = out.completed as f64 / end.duration_since(start).as_secs_f64().max(1e-9);
    out
}

/// One synchronous request/response on an open connection (blocking
/// socket), returning the raw response bytes.
pub fn roundtrip(
    stream: &mut TcpStream,
    line: &str,
    scratch: &mut Vec<u8>,
) -> std::io::Result<Vec<u8>> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    scratch.clear();
    let mut buf = [0u8; 16 * 1024];
    loop {
        if let Some(len) = response_len(scratch) {
            let body = scratch[..len].to_vec();
            scratch.drain(..len);
            return Ok(body);
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        scratch.extend_from_slice(&buf[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A server that answers `ok` to every line, closing connection `i`
    /// after `limits[i]` answers. Joining it yields each connection's lines.
    fn closing_server(
        limits: Vec<usize>,
    ) -> (SocketAddr, std::thread::JoinHandle<Vec<Vec<String>>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let handles: Vec<_> = limits
                .into_iter()
                .map(|limit| {
                    let (mut stream, _) = listener.accept().unwrap();
                    std::thread::spawn(move || {
                        stream.write_all(b"banner\n").unwrap();
                        let mut reader = BufReader::new(stream.try_clone().unwrap());
                        let mut lines = Vec::new();
                        for _ in 0..limit {
                            let mut line = String::new();
                            if reader.read_line(&mut line).unwrap_or(0) == 0
                                || stream.write_all(b"ok\n").is_err()
                            {
                                break;
                            }
                            lines.push(line);
                        }
                        lines
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        (addr, server)
    }

    #[test]
    fn requests_due_on_a_closed_connection_are_dropped_not_skipped() {
        // The first connection closes after three answers, mid-window.
        let (addr, server) = closing_server(vec![3, usize::MAX]);
        let mix = [Command {
            line: "stack".into(),
            reference: b"ok\n".to_vec(),
        }];
        let load = Load {
            addr,
            conns: 2,
            rate: 200.0,
            duration: Duration::from_millis(200),
            mix: &mix,
            seed: 1,
            give_up_backlog: None,
            stop: None,
        };
        let o = run(&load, &Tracer::new(false), None).unwrap();
        server.join().unwrap();
        assert_eq!(
            o.sent + o.dropped,
            40,
            "every scheduled request is accounted for"
        );
        assert!(o.dropped > 0, "requests after the close are dropped: {o:?}");
        assert_eq!(o.completed + o.lost, o.sent);
        assert_eq!(o.mismatched, 0);
        assert!(
            o.completed >= 20 + 3 - 1,
            "the open connection kept serving: {o:?}"
        );
    }

    #[test]
    fn each_connection_alternates_through_the_mix() {
        let (addr, server) = closing_server(vec![usize::MAX, usize::MAX]);
        let mix = [
            Command {
                line: "stack".into(),
                reference: b"ok\n".to_vec(),
            },
            Command {
                line: "binstack".into(),
                reference: b"ok\n".to_vec(),
            },
        ];
        let load = Load {
            addr,
            conns: 2,
            rate: 400.0,
            duration: Duration::from_millis(100),
            mix: &mix,
            seed: 7,
            give_up_backlog: None,
            stop: None,
        };
        let o = run(&load, &Tracer::new(false), None).unwrap();
        let lines = server.join().unwrap();
        assert_eq!((o.sent, o.completed, o.dropped), (40, 40, 0));
        for conn in &lines {
            assert_eq!(conn.len(), 20);
            assert!(conn.windows(2).all(|w| w[0] != w[1]), "{conn:?}");
        }
    }

    #[test]
    fn clients_keep_their_connections_across_campaigns() {
        let (addr, server) = closing_server(vec![usize::MAX, usize::MAX]);
        let mix = [
            Command {
                line: "stack".into(),
                reference: b"ok\n".to_vec(),
            },
            Command {
                line: "binstack".into(),
                reference: b"ok\n".to_vec(),
            },
        ];
        let load = Load {
            addr,
            conns: 2,
            rate: 400.0,
            duration: Duration::from_millis(50),
            mix: &mix,
            seed: 3,
            give_up_backlog: None,
            stop: None,
        };
        let mut clients = Clients::open(&load).unwrap();
        for _ in 0..3 {
            let o = clients.run(&load, &Tracer::new(false), None);
            assert_eq!((o.sent, o.completed, o.dropped), (20, 20, 0));
        }
        drop(clients);
        // Both server connections saw every campaign, still alternating.
        let lines = server.join().unwrap();
        for conn in &lines {
            assert_eq!(conn.len(), 30);
            assert!(conn.windows(2).all(|w| w[0] != w[1]), "{conn:?}");
        }
    }

    #[test]
    fn response_framing() {
        assert_eq!(response_len(b"stack a 1\nok\nrest"), Some(13));
        assert_eq!(response_len(b"stack a 1\n"), None);
        assert_eq!(response_len(b"err: nope\n"), Some(10));
        let mut framed = b"frame stacks 4\n".to_vec();
        framed.extend_from_slice(b"ok\n\n");
        framed.extend_from_slice(b"ok\n");
        assert_eq!(response_len(&framed), Some(framed.len()));
        assert_eq!(response_len(&framed[..17]), None);
    }
}
