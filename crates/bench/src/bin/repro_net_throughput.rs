//! Socket throughput and latency on the C10K ladder.
//!
//! Figure 10 proper (`repro_fig10`) is a discrete-event simulation of
//! proxy scaling on the paper's 1999 hardware. This binary measures the
//! reproduction's *actual* wire path — the `dvm-reactor` epoll server —
//! at each rung of a concurrency ladder that ends at ten thousand
//! simultaneous connections.
//!
//! The workload isolates the network core: a 4 KiB payload is planted in
//! the shard cache with `PEER_PUT`, then every connection issues
//! `PEER_GET` probes answered straight from cache — no rewrite, no
//! execution, just accept, frame, and move bytes. The client side is a
//! single nonblocking epoll driver (built on `dvm_reactor::Poller`), so
//! client thread scheduling never bottlenecks the server, and every open
//! connection genuinely has a request in flight. The driver runs as a
//! re-exec of this binary (`--__drive`): client and server ends each get
//! their own `RLIMIT_NOFILE` budget, which is what lets the top rung
//! reach a full ten thousand connections under a 20 k per-process fd
//! cap.
//!
//! Wall time includes the connect phase deliberately: standing up ten
//! thousand connections is part of what the top rung measures. The
//! driver opens connections in small batches between polls, so replies
//! to early probes are read (and their send→reply latency timed) while
//! later connections are still being opened.
//!
//! ```text
//! cargo run --release -p dvm-bench --bin repro_net_throughput -- --quick --json
//! ```
//!
//! `--json` writes `BENCH_net.json` with the ladder's top rung as
//! `req_per_s_c10k` (gated) and `p99_us_c10k` (reported; too noisy to
//! gate). Numbers are wall-clock and machine-dependent; the gate
//! compares against a baseline from the same reference container.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use dvm_bench::{emit_json, Json, Table};
use dvm_core::{CostModel, Organization, ServiceConfig};
use dvm_net::{Frame, FrameAssembler, ServerConfig};
use dvm_reactor::Poller;
use dvm_security::Policy;
use dvm_workload::corpus;

const PAYLOAD_LEN: usize = 4 << 10;
const PAYLOAD_URL: &str = "dvm://bench/C10kBlob.class";
/// Connections the driver opens between two polls of its event loop.
const CONNECT_BATCH: usize = 64;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--__drive") {
        return drive_child(&args[pos + 1..]);
    }
    let quick = args.iter().any(|a| a == "--quick");

    // The server ends live in this process (one fd per connection); the
    // client ends live in the re-exec'd driver with a budget of its own.
    let fd_limit = dvm_reactor::sys::raise_nofile_limit(25_000).unwrap_or(1024);
    let c10k = ((fd_limit.saturating_sub(1_000)) as usize).min(10_000);

    let ladder: &[(usize, u32)] = if quick {
        &[(64, 4), (512, 4)]
    } else {
        &[(64, 8), (512, 8), (2048, 8)]
    };

    // A tiny org: the workload never leaves the cache, but the server
    // stack is the real one (signing on, full filter pipeline behind it).
    let applets: Vec<_> = corpus(42).into_iter().take(2).collect();
    let classes: Vec<_> = applets
        .iter()
        .flat_map(|a| a.classes.iter().cloned())
        .collect();
    let mut services = ServiceConfig::dvm();
    services.signing = true;
    let org = Organization::new(
        &classes,
        Policy::parse(dvm_security::policy::example_policy()).unwrap(),
        services,
        CostModel::default(),
    )
    .unwrap();

    println!(
        "cache-probe throughput and latency \
         ({PAYLOAD_LEN}-byte replies, fd limit {fd_limit}, c10k rung = {c10k} conns)\n"
    );

    let mut t = Table::new(&[
        "Conns",
        "Req/conn",
        "Requests",
        "MB moved",
        "Wall (ms)",
        "MB/s",
        "req/s",
        "p99 (us)",
    ]);
    let mut top = None;
    for (conns, per_conn) in ladder.iter().copied().chain([(c10k, 1)]) {
        // Rungs of 2048+ connections run three times, reporting the
        // fastest run's rate and the median p99: mass connect is at the
        // scheduler's mercy on a loaded box.
        let reps = if conns >= 2048 { 3 } else { 1 };
        let mut runs: Vec<Run> = (0..reps)
            .map(|_| run_level(&org, conns, per_conn))
            .collect();
        runs.sort_by(|a, b| a.p99_us.total_cmp(&b.p99_us));
        let p99_us = runs[runs.len() / 2].p99_us;
        let mut run = runs
            .into_iter()
            .max_by(|a, b| a.req_per_s().total_cmp(&b.req_per_s()))
            .unwrap();
        run.p99_us = p99_us;
        t.row(&[
            conns.to_string(),
            per_conn.to_string(),
            run.requests.to_string(),
            format!("{:.1}", run.bytes as f64 / 1e6),
            format!("{:.1}", run.wall_s * 1e3),
            format!("{:.1}", run.bytes as f64 / 1e6 / run.wall_s),
            format!("{:.0}", run.req_per_s()),
            format!("{:.0}", run.p99_us),
        ]);
        top = Some(run);
    }
    t.print();

    let top = top.unwrap();
    let req_per_s_c10k = top.req_per_s();
    println!(
        "\nC10K rung: {req_per_s_c10k:.0} req/s at {c10k} conns, p99 {:.0} us",
        top.p99_us
    );

    emit_json(
        "net",
        &[("ladder", &t)],
        &[
            ("quick", Json::Bool(quick)),
            ("payload_bytes", Json::Num(PAYLOAD_LEN as f64)),
            ("c10k_conns", Json::Num(c10k as f64)),
            ("req_per_s_c10k", Json::Num(req_per_s_c10k)),
            ("p99_us_c10k", Json::Num(top.p99_us)),
        ],
    );
}

struct Run {
    requests: u64,
    bytes: u64,
    wall_s: f64,
    p99_us: f64,
}

impl Run {
    fn req_per_s(&self) -> f64 {
        self.requests as f64 / self.wall_s
    }
}

/// One ladder rung: a fresh server, `conns` connections each completing
/// `per_conn` cache probes, driven by the epoll client. Wall time spans
/// connect-to-last-reply.
fn run_level(org: &Organization, conns: usize, per_conn: u32) -> Run {
    let server = org
        .serve_with(
            "127.0.0.1:0",
            ServerConfig {
                max_connections: conns + 64,
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
    let addr = server.addr();

    // Plant the payload on the cache's disk tier; every probe after this
    // is a pure cache hit.
    let payload = vec![0x5A_u8; PAYLOAD_LEN];
    {
        let mut warm = TcpStream::connect(addr).unwrap();
        warm.write_all(
            &Frame::PeerPut {
                url: PAYLOAD_URL.to_owned(),
                bytes: payload.clone(),
            }
            .encode(),
        )
        .unwrap();
        warm.write_all(
            &Frame::PeerGet {
                request_id: 0,
                url: PAYLOAD_URL.to_owned(),
            }
            .encode(),
        )
        .unwrap();
        // Round-trip before measuring so the PUT has certainly landed.
        let mut prefix = [0u8; 4];
        warm.read_exact(&mut prefix).unwrap();
        let mut body = vec![0u8; u32::from_be_bytes(prefix) as usize];
        warm.read_exact(&mut body).unwrap();
        assert!(matches!(
            Frame::decode_body(&body).unwrap(),
            Frame::CodeResponse { .. }
        ));
    }

    let exe = std::env::current_exe().unwrap();
    let out = std::process::Command::new(exe)
        .args([
            "--__drive",
            &addr.to_string(),
            &conns.to_string(),
            &per_conn.to_string(),
        ])
        .output()
        .expect("spawn driver child");
    assert!(
        out.status.success(),
        "driver child failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8(out.stdout).unwrap();
    let field = |key: &str| -> f64 {
        report
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("driver child said {report:?}, no {key}"))
            .parse()
            .unwrap()
    };
    let run = Run {
        requests: field("requests") as u64,
        bytes: field("bytes") as u64,
        wall_s: field("wall_s").max(1e-9),
        p99_us: field("p99_us"),
    };

    let stats = server.shutdown();
    assert_eq!(stats.errors, 0, "server reported protocol errors");
    run
}

/// `--__drive <addr> <conns> <per_conn>`: the re-exec'd client half.
/// Times connect-to-last-reply itself (spawn overhead stays outside the
/// window) and reports on stdout.
fn drive_child(args: &[String]) {
    let addr: std::net::SocketAddr = args[0].parse().unwrap();
    let conns: usize = args[1].parse().unwrap();
    let per_conn: u32 = args[2].parse().unwrap();
    dvm_reactor::sys::raise_nofile_limit(25_000).unwrap();
    let req = Frame::PeerGet {
        request_id: 1,
        url: PAYLOAD_URL.to_owned(),
    }
    .encode();
    let started = Instant::now();
    let (bytes, mut latencies_us) = drive(addr, conns, per_conn, &req, PAYLOAD_LEN);
    let wall_s = started.elapsed().as_secs_f64();
    let requests = latencies_us.len();
    latencies_us.sort_unstable();
    let p99_us = latencies_us[(latencies_us.len() * 99).div_ceil(100) - 1];
    println!("requests={requests} bytes={bytes} wall_s={wall_s} p99_us={p99_us}");
}

struct ClientConn {
    stream: TcpStream,
    asm: FrameAssembler,
    out: Vec<u8>,
    out_pos: usize,
    want_write: bool,
    remaining: u32,
    /// When the in-flight probe was queued.
    sent: Instant,
}

/// Nonblocking client: connects `conns` sockets, keeps one probe in
/// flight on every socket until each has completed `per_conn`
/// request/reply round-trips, and returns (payload bytes,
/// per-request send→reply latencies in µs).
fn drive(
    addr: std::net::SocketAddr,
    conns: usize,
    per_conn: u32,
    req: &[u8],
    payload_len: usize,
) -> (u64, Vec<u64>) {
    let poller = Poller::new().unwrap();
    let mut slots: Vec<Option<ClientConn>> = Vec::with_capacity(conns);
    let mut latencies_us = Vec::with_capacity(conns * per_conn as usize);
    let mut bytes = 0u64;
    let mut open = 0usize;
    let mut events = Vec::new();
    let mut buf = vec![0u8; 64 << 10];
    while open > 0 || slots.len() < conns {
        // Open the next batch, then poll without blocking while any
        // connections remain to be opened.
        for _ in 0..CONNECT_BATCH.min(conns - slots.len()) {
            let i = slots.len();
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).ok();
            stream.set_nonblocking(true).unwrap();
            poller
                .add(stream.as_raw_fd(), i as u64, true, false)
                .unwrap();
            let mut conn = ClientConn {
                stream,
                asm: FrameAssembler::default(),
                out: req.to_vec(),
                out_pos: 0,
                want_write: false,
                remaining: per_conn,
                sent: Instant::now(),
            };
            flush(&poller, i as u64, &mut conn);
            slots.push(Some(conn));
            open += 1;
        }
        let timeout = (slots.len() < conns).then_some(Duration::ZERO);
        poller.wait(&mut events, timeout).unwrap();
        for ev in events.drain(..) {
            let idx = ev.token as usize;
            let Some(conn) = slots[idx].as_mut() else {
                continue;
            };
            if ev.writable {
                flush(&poller, ev.token, conn);
            }
            if !(ev.readable || ev.hangup) {
                continue;
            }
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => panic!(
                        "server closed conn {idx} with {} replies pending",
                        conn.remaining
                    ),
                    Ok(n) => conn.asm.push(&buf[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => panic!("read on conn {idx}: {e}"),
                }
            }
            while let Ok(Some(frame)) = conn.asm.next_frame() {
                match frame {
                    Frame::CodeResponse { bytes: b, .. } => {
                        assert_eq!(b.len(), payload_len);
                        latencies_us.push(conn.sent.elapsed().as_micros() as u64);
                        bytes += b.len() as u64;
                    }
                    other => panic!("conn {idx}: unexpected reply {other:?}"),
                }
                conn.remaining -= 1;
                if conn.remaining > 0 {
                    conn.out.extend_from_slice(req);
                    conn.sent = Instant::now();
                    flush(&poller, ev.token, conn);
                }
            }
            if conn.remaining == 0 {
                poller.remove(conn.stream.as_raw_fd());
                slots[idx] = None;
                open -= 1;
            }
        }
    }
    (bytes, latencies_us)
}

/// Writes as much of `conn.out` as the socket accepts, arming write
/// interest only while a partial write is outstanding.
fn flush(poller: &Poller, token: u64, conn: &mut ClientConn) {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("write: {e}"),
        }
    }
    if conn.out_pos == conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    }
    let want = !conn.out.is_empty();
    if want != conn.want_write {
        conn.want_write = want;
        poller
            .modify(conn.stream.as_raw_fd(), token, true, want)
            .unwrap();
    }
}
