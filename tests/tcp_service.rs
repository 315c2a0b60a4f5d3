//! The TCP front under concurrency: N threads × M connections against
//! one served campaign must produce byte-identical stack output to a
//! sequential in-process `Workbench::fit()` run under a fixed seed —
//! the PR 2 in-process concurrency guarantee, now over a socket. Also
//! covers the binary stack framing, the idle timeout (including one
//! firing mid-partial-line), the deterministic `--max-conns` rejection,
//! and graceful shutdown.

use cpistack::model::{FitOptions, MicroarchParams};
use cpistack::service::proto::{
    self, decode_stack_frame, read_frame, TcpServerConfig, FRAME_KIND_STACKS,
};
use cpistack::service::{CpiService, ServiceConfig};
use cpistack::sim::machine::MachineConfig;
use cpistack::workbench::Grouping;
use cpistack::{CsvSource, SimSource, Workbench};
use pmu::{MachineId, Suite};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Core 2 constants as the protocol's `machine` command states them.
const ARCH: [f64; 5] = [4.0, 14.0, 19.0, 169.0, 30.0];

/// Writes the fixed-seed counter CSV every party fits from.
fn counters_csv(dir: &std::path::Path) -> String {
    std::fs::create_dir_all(dir).expect("temp dir");
    let records = SimSource::new()
        .suite(
            cpistack::workloads::suites::cpu2000()
                .into_iter()
                .take(12)
                .collect(),
        )
        .uops(3_000)
        .seed(42)
        .collect_config(&MachineConfig::core2());
    let path = dir.join("campaign.csv");
    std::fs::write(&path, pmu::csv::to_csv(&records)).expect("write csv");
    path.to_string_lossy().into_owned()
}

/// The sequential ground truth: the same CSV through `Workbench::fit()`,
/// stacks formatted exactly as the protocol's `stack` lines.
fn sequential_stack_lines(csv: &str) -> String {
    let fitted = Workbench::new()
        .arch(MicroarchParams::new(
            ARCH[0], ARCH[1], ARCH[2], ARCH[3], ARCH[4],
        ))
        .source(CsvSource::from_path(csv).expect("csv source"))
        .grouping(Grouping::MachineSuite)
        .fit_options(FitOptions::quick())
        .collect()
        .expect("collect")
        .fit()
        .expect("fit");
    let group = fitted
        .group(MachineId::Core2, Suite::Cpu2000)
        .expect("core2 group");
    group
        .stacks()
        .into_iter()
        .map(|(benchmark, stack)| format!("stack {benchmark} {stack}\n"))
        .collect()
}

/// Opens a connection, sends `script`, and returns everything the server
/// wrote until it closed the connection.
fn tcp_session(addr: std::net::SocketAddr, script: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(script.as_bytes()).expect("send script");
    let mut transcript = Vec::new();
    stream
        .read_to_end(&mut transcript)
        .expect("read transcript");
    transcript
}

#[test]
fn concurrent_tcp_clients_match_sequential_workbench_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("cpistack_tcp_test_{}", std::process::id()));
    let csv = counters_csv(&dir);
    let expected = sequential_stack_lines(&csv);

    let config = ServiceConfig::new().with_workers(3).with_cache_capacity(8);
    let service = CpiService::start(config.clone());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = proto::serve_tcp(
        listener,
        proto::SessionSpec::open(service.client(), FitOptions::quick()),
        TcpServerConfig::new(proto::banner(&config, true))
            .with_poll_interval(Duration::from_millis(2)),
    )
    .expect("tcp front starts");
    let addr = server.local_addr();

    // One setup connection registers the machine and ingests the CSV.
    let setup = tcp_session(
        addr,
        &format!("machine core2 4 14 19 169 30\ningest {csv}\nquit\n"),
    );
    let setup = String::from_utf8(setup).expect("utf8");
    assert!(setup.contains("ingested 12 records"), "{setup}");
    assert!(!setup.contains("err:"), "{setup}");

    // N threads × M connections each, all requesting the same stacks.
    const THREADS: usize = 4;
    const CONNECTIONS_PER_THREAD: usize = 3;
    let transcripts: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(move || {
                    (0..CONNECTIONS_PER_THREAD)
                        .map(|_| tcp_session(addr, "stack core2 cpu2000\nquit\n"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(transcripts.len(), THREADS * CONNECTIONS_PER_THREAD);

    // Every transcript is byte-identical: banner, expected stack block
    // (byte-for-byte the sequential Workbench output), ok, ok.
    let reference = &transcripts[0];
    let reference_text = String::from_utf8(reference.clone()).expect("utf8");
    let stack_block: String = reference_text
        .lines()
        .filter(|l| l.starts_with("stack "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        stack_block, expected,
        "socket-served stacks must equal the sequential Workbench run"
    );
    for transcript in &transcripts {
        assert_eq!(
            transcript, reference,
            "every concurrent client sees identical bytes"
        );
    }

    // The model fitted exactly once for all 12 connections.
    let stats = service.client().stats().expect("stats");
    assert_eq!(
        stats.fits, 1,
        "one regression served all concurrent clients"
    );

    server.shutdown();
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn binary_framing_round_trips_over_the_socket() {
    let dir = std::env::temp_dir().join(format!("cpistack_tcp_bin_{}", std::process::id()));
    let csv = counters_csv(&dir);
    let expected = sequential_stack_lines(&csv);

    let config = ServiceConfig::new().with_workers(2);
    let service = CpiService::start(config.clone());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = proto::serve_tcp(
        listener,
        proto::SessionSpec::open(service.client(), FitOptions::quick()),
        TcpServerConfig::new(proto::banner(&config, true))
            .with_poll_interval(Duration::from_millis(2)),
    )
    .expect("tcp front starts");

    let transcript = tcp_session(
        server.local_addr(),
        &format!("machine core2 4 14 19 169 30\ningest {csv}\nbinstack core2 cpu2000\nquit\n"),
    );
    // Walk the line-oriented part up to the frame announcement.
    let marker = b"frame stacks ";
    let pos = transcript
        .windows(marker.len())
        .position(|w| w == marker)
        .expect("frame announcement");
    let line_end = pos + transcript[pos..].iter().position(|b| *b == b'\n').unwrap();
    let announced: usize = std::str::from_utf8(&transcript[pos + marker.len()..line_end])
        .unwrap()
        .parse()
        .expect("announced frame length");
    let frame = &transcript[line_end + 1..line_end + 1 + announced];
    let (kind, payload) = read_frame(&mut &frame[..]).expect("frame validates");
    assert_eq!(kind, FRAME_KIND_STACKS);
    let stacks = decode_stack_frame(&payload).expect("payload decodes");
    let as_lines: String = stacks
        .iter()
        .map(|(benchmark, stack)| format!("stack {benchmark} {stack}\n"))
        .collect();
    assert_eq!(
        as_lines, expected,
        "binary-framed stacks must carry the same values as the line protocol"
    );
    // The terminator still arrives after the frame.
    assert!(transcript[line_end + 1 + announced..].starts_with(b"ok\n"));

    server.shutdown();
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The connection cap is deterministic: with `max_connections = 2` and
/// two admitted sessions held open, the third connection reads exactly
/// `err: busy\n` — no banner — and an immediate EOF. Closing an admitted
/// session frees its slot.
#[test]
fn over_cap_connections_read_busy_and_are_closed_immediately() {
    let config = ServiceConfig::new().with_workers(1);
    let service = CpiService::start(config.clone());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = proto::serve_tcp(
        listener,
        proto::SessionSpec::open(service.client(), FitOptions::quick()),
        TcpServerConfig::new(proto::banner(&config, true))
            .with_poll_interval(Duration::from_millis(2))
            .with_max_connections(2),
    )
    .expect("tcp front starts");
    let addr = server.local_addr();
    let banner = format!("{}\n", proto::banner(&config, true));

    // Admit two sessions and hold them open; reading each banner proves
    // the server has registered the connection, so the cap is fully
    // occupied before the third connect.
    let mut held: Vec<TcpStream> = (0..2)
        .map(|i| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut buf = vec![0u8; banner.len()];
            stream.read_exact(&mut buf).expect("banner");
            assert_eq!(buf, banner.as_bytes(), "connection {i}");
            stream
        })
        .collect();

    // The third connection is rejected in-band and closed at once.
    let mut over = TcpStream::connect(addr).expect("connect over cap");
    let mut rejection = Vec::new();
    over.read_to_end(&mut rejection).expect("read rejection");
    assert_eq!(
        rejection, b"err: busy\n",
        "over-cap rejection must be exactly `err: busy` then EOF"
    );

    // Quitting an admitted session frees its slot for a newcomer.
    let mut first = held.remove(0);
    first.write_all(b"quit\n").expect("quit");
    let mut drained = Vec::new();
    first.read_to_end(&mut drained).expect("drain to EOF");
    let mut fresh = TcpStream::connect(addr).expect("connect after slot freed");
    let mut buf = vec![0u8; banner.len()];
    fresh.read_exact(&mut buf).expect("banner after slot freed");
    assert_eq!(buf, banner.as_bytes());

    server.shutdown();
    service.shutdown();
    drop(held);
}

/// The idle timer fires even when the client has sent part of a line:
/// a dangling `sta` (no newline) must never execute, and the server
/// still hangs up in-band after the deadline.
#[test]
fn idle_timeout_fires_mid_partial_line_without_executing_it() {
    let config = ServiceConfig::new().with_workers(1);
    let service = CpiService::start(config.clone());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = proto::serve_tcp(
        listener,
        proto::SessionSpec::open(service.client(), FitOptions::quick()),
        TcpServerConfig::new(proto::banner(&config, true))
            .with_idle_timeout(Some(Duration::from_millis(250)))
            .with_poll_interval(Duration::from_millis(2)),
    )
    .expect("tcp front starts");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // Half a `stats` command, never completed with a newline.
    stream.write_all(b"sta").expect("partial line");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read until close");
    assert!(
        text.ends_with("err: idle timeout — closing connection\n"),
        "partial line must still hit the idle deadline: {text}"
    );
    // The fragment never executed: no response line besides the banner
    // and the timeout notice.
    assert_eq!(text.lines().count(), 2, "banner + timeout only: {text}");
    assert!(!text.contains("ok"), "{text}");

    server.shutdown();
    service.shutdown();
}

#[test]
fn idle_connections_are_closed_and_shutdown_is_graceful() {
    let config = ServiceConfig::new().with_workers(1);
    let service = CpiService::start(config.clone());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = proto::serve_tcp(
        listener,
        proto::SessionSpec::open(service.client(), FitOptions::quick()),
        TcpServerConfig::new(proto::banner(&config, true))
            .with_idle_timeout(Some(Duration::from_millis(250)))
            .with_poll_interval(Duration::from_millis(2)),
    )
    .expect("tcp front starts");
    let addr = server.local_addr();

    // Say nothing: the server must hang up on us with an in-band reason.
    let mut idle = TcpStream::connect(addr).expect("connect");
    let mut text = String::new();
    idle.read_to_string(&mut text).expect("read until close");
    assert!(text.contains("err: idle timeout"), "{text}");

    // The in-band `shutdown` command stops the whole server...
    let farewell = tcp_session(addr, "shutdown\n");
    assert!(String::from_utf8_lossy(&farewell).ends_with("ok\n"));
    server.wait();
    // ...after which new connections are refused (the listener is gone).
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener still accepting"
    );
    service.shutdown();
}
