//! `ChaosLink`: a byte-level TCP man-in-the-middle that injects a seeded
//! [`ChaosSchedule`] into a live connection.
//!
//! The link binds its own loopback socket; clients connect to it instead
//! of the real server, and every accepted connection is paired with an
//! upstream connection to the protected address. Two pump threads per
//! connection shuttle bytes, reassembling the wire protocol's
//! `u32 len | body` frames so faults land on *frame* boundaries — the
//! same unit the schedule grammar talks about. Fault decisions come from
//! a [`FaultState`] stream keyed by `(seed, connection, direction)`, so
//! a link replayed with the same seed against the same traffic places
//! every fault identically, regardless of thread scheduling.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::schedule::{ChaosFault, ChaosSchedule, Dir, FaultState};

/// How long a pump blocks in `read` before re-checking for shutdown.
const POLL: Duration = Duration::from_millis(50);
/// Upstream connect budget; a dead upstream looks like a refused
/// connection to the client within this bound.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);
/// Cap on the retained fault-event log.
const MAX_EVENTS: usize = 10_000;

/// One injected fault, as recorded in the link's event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// 0-based connection index on this link.
    pub conn: u64,
    /// Direction the faulted frame was travelling.
    pub dir: Dir,
    /// 1-based frame index on that `(conn, dir)` stream.
    pub frame: u64,
    /// Stable fault name (see [`ChaosFault::name`]).
    pub kind: &'static str,
}

/// Counters and the bounded fault log for one link.
#[derive(Debug, Clone, Default)]
pub struct LinkStats {
    /// Connections accepted (whether or not upstream was reachable).
    pub connections: u64,
    /// Frames forwarded intact (post-fault frames that still went out).
    pub frames_forwarded: u64,
    /// Bytes written toward either end, including truncated partials.
    pub bytes_forwarded: u64,
    /// Faults injected, by fault name.
    pub faults: BTreeMap<&'static str, u64>,
    /// The first `MAX_EVENTS` injected faults, in injection order per
    /// stream (cross-stream order is scheduling-dependent; compare as a
    /// set when asserting determinism).
    pub events: Vec<FaultEvent>,
}

impl LinkStats {
    /// Total faults injected across all kinds.
    pub fn faults_total(&self) -> u64 {
        self.faults.values().sum()
    }
}

#[derive(Default)]
struct StatsInner {
    connections: AtomicU64,
    frames_forwarded: AtomicU64,
    bytes_forwarded: AtomicU64,
    faults: Mutex<BTreeMap<&'static str, u64>>,
    events: Mutex<Vec<FaultEvent>>,
}

impl StatsInner {
    fn record_fault(&self, conn: u64, dir: Dir, frame: u64, kind: &'static str) {
        *self.faults.lock().entry(kind).or_insert(0) += 1;
        let mut events = self.events.lock();
        if events.len() < MAX_EVENTS {
            events.push(FaultEvent {
                conn,
                dir,
                frame,
                kind,
            });
        }
    }

    fn snapshot(&self) -> LinkStats {
        LinkStats {
            connections: self.connections.load(Ordering::Relaxed),
            frames_forwarded: self.frames_forwarded.load(Ordering::Relaxed),
            bytes_forwarded: self.bytes_forwarded.load(Ordering::Relaxed),
            faults: self.faults.lock().clone(),
            events: self.events.lock().clone(),
        }
    }
}

/// A running chaos interposer. Dropping it without calling
/// [`ChaosLink::shutdown`] leaks the accept thread for the process
/// lifetime; tests should shut down explicitly.
pub struct ChaosLink {
    addr: SocketAddr,
    running: Arc<AtomicBool>,
    stats: Arc<StatsInner>,
    accept_thread: Option<JoinHandle<()>>,
    pumps: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for ChaosLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosLink")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ChaosLink {
    /// Binds `127.0.0.1:0` and starts interposing between connecting
    /// clients and `upstream` under `schedule`, seeded by `seed`.
    pub fn start(
        upstream: SocketAddr,
        schedule: ChaosSchedule,
        seed: u64,
    ) -> std::io::Result<ChaosLink> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let running = Arc::new(AtomicBool::new(true));
        let stats = Arc::new(StatsInner::default());
        let pumps: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_thread = {
            let running = running.clone();
            let stats = stats.clone();
            let pumps = pumps.clone();
            std::thread::Builder::new()
                .name("chaos-accept".into())
                .spawn(move || {
                    let conn_counter = AtomicU64::new(0);
                    while running.load(Ordering::SeqCst) {
                        let (client, _) = match listener.accept() {
                            Ok(pair) => pair,
                            Err(_) => break,
                        };
                        if !running.load(Ordering::SeqCst) {
                            break;
                        }
                        let conn = conn_counter.fetch_add(1, Ordering::SeqCst);
                        stats.connections.fetch_add(1, Ordering::Relaxed);
                        let server = match TcpStream::connect_timeout(&upstream, CONNECT_TIMEOUT) {
                            Ok(s) => s,
                            // Upstream gone: the client observes an
                            // immediate close, i.e. a transport error.
                            Err(_) => continue,
                        };
                        spawn_pumps(
                            &pumps, conn, client, server, &schedule, seed, &running, &stats,
                        );
                    }
                })
                .expect("spawn chaos accept thread")
        };

        Ok(ChaosLink {
            addr,
            running,
            stats,
            accept_thread: Some(accept_thread),
            pumps,
        })
    }

    /// The address clients should connect to instead of the upstream.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A consistent snapshot of the link's counters and fault log.
    pub fn stats(&self) -> LinkStats {
        self.stats.snapshot()
    }

    /// Stops accepting, tears down every pump, and returns final stats.
    pub fn shutdown(mut self) -> LinkStats {
        self.running.store(false, Ordering::SeqCst);
        // Unblock the accept loop.
        let _ = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let handles: Vec<_> = std::mem::take(&mut *self.pumps.lock());
        for h in handles {
            let _ = h.join();
        }
        self.stats.snapshot()
    }
}

#[allow(clippy::too_many_arguments)]
fn spawn_pumps(
    pumps: &Mutex<Vec<JoinHandle<()>>>,
    conn: u64,
    client: TcpStream,
    server: TcpStream,
    schedule: &ChaosSchedule,
    seed: u64,
    running: &Arc<AtomicBool>,
    stats: &Arc<StatsInner>,
) {
    let spawn_dir = |dir: Dir, src: &TcpStream, dst: &TcpStream| {
        let (Ok(src), Ok(dst)) = (src.try_clone(), dst.try_clone()) else {
            return None;
        };
        let state = FaultState::new(schedule, seed, conn, dir);
        let running = running.clone();
        let stats = stats.clone();
        std::thread::Builder::new()
            .name(format!("chaos-pump-{conn}"))
            .spawn(move || pump(src, dst, state, conn, dir, &running, &stats))
            .ok()
    };
    let mut guard = pumps.lock();
    if let Some(h) = spawn_dir(Dir::ToServer, &client, &server) {
        guard.push(h);
    }
    if let Some(h) = spawn_dir(Dir::ToClient, &server, &client) {
        guard.push(h);
    }
}

/// Shuttles one direction of one connection, frame by frame, applying
/// the stream's fault decisions. Returns when the stream ends, a
/// terminal fault fires, or the link shuts down.
fn pump(
    src: TcpStream,
    dst: TcpStream,
    mut state: FaultState,
    conn: u64,
    dir: Dir,
    running: &AtomicBool,
    stats: &StatsInner,
) {
    let _ = src.set_read_timeout(Some(POLL));
    let mut src = src;
    let mut dst = dst;
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 8192];
    let mut frame_idx: u64 = 0;

    loop {
        if !running.load(Ordering::SeqCst) {
            let _ = src.shutdown(Shutdown::Both);
            let _ = dst.shutdown(Shutdown::Both);
            return;
        }
        match src.read(&mut tmp) {
            // Clean EOF: propagate the half-close downstream. Any bytes
            // short of a full frame are dropped — that *is* truncation,
            // and downstream sees it as such.
            Ok(0) => {
                let _ = dst.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                let _ = dst.shutdown(Shutdown::Both);
                return;
            }
        }

        while let Some(total) = complete_frame_len(&buf) {
            let mut frame: Vec<u8> = buf.drain(..total).collect();
            frame_idx += 1;
            let faults = state.decide(frame_idx);
            for fault in faults {
                stats.record_fault(conn, dir, frame_idx, fault.name());
                match fault {
                    ChaosFault::Delay(ms) | ChaosFault::Stall(ms) => {
                        sleep_poll(Duration::from_millis(ms), running);
                    }
                    ChaosFault::Throttle(bps) => {
                        let secs = frame.len() as f64 / bps as f64;
                        sleep_poll(Duration::from_secs_f64(secs.min(5.0)), running);
                    }
                    ChaosFault::Corrupt => {
                        let off = corrupt_offset(&mut state, frame.len());
                        frame[off] ^= 0xFF;
                    }
                    ChaosFault::Truncate(n) => {
                        let cut = n.clamp(1, frame.len().saturating_sub(1).max(1));
                        if dst.write_all(&frame[..cut]).is_ok() {
                            let _ = dst.flush();
                            stats
                                .bytes_forwarded
                                .fetch_add(cut as u64, Ordering::Relaxed);
                        }
                        let _ = src.shutdown(Shutdown::Both);
                        let _ = dst.shutdown(Shutdown::Both);
                        return;
                    }
                    ChaosFault::Reset => {
                        let _ = src.shutdown(Shutdown::Both);
                        let _ = dst.shutdown(Shutdown::Both);
                        return;
                    }
                    ChaosFault::HalfClose => {
                        if dst.write_all(&frame).is_ok() {
                            let _ = dst.flush();
                            stats
                                .bytes_forwarded
                                .fetch_add(frame.len() as u64, Ordering::Relaxed);
                        }
                        let _ = dst.shutdown(Shutdown::Write);
                        return;
                    }
                }
            }
            if dst.write_all(&frame).is_err() {
                let _ = src.shutdown(Shutdown::Both);
                return;
            }
            let _ = dst.flush();
            stats.frames_forwarded.fetch_add(1, Ordering::Relaxed);
            stats
                .bytes_forwarded
                .fetch_add(frame.len() as u64, Ordering::Relaxed);
        }
    }
}

/// Length (prefix + body) of the first complete frame in `buf`, if any.
fn complete_frame_len(buf: &[u8]) -> Option<usize> {
    if buf.len() < 4 {
        return None;
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    let total = 4 + len;
    (buf.len() >= total).then_some(total)
}

/// A deterministic corruption offset. Never inside the 4-byte length
/// prefix (that would desync framing rather than corrupt a payload);
/// for frames with a meaningful body, biased ≥ 32 bytes in, so the flip
/// hits class bytes and exercises signature verification instead of the
/// frame grammar's field headers.
fn corrupt_offset(state: &mut FaultState, frame_len: usize) -> usize {
    debug_assert!(frame_len >= 5, "frames carry at least a tag byte");
    let body = frame_len - 4;
    if body > 64 {
        4 + 32 + state.draw_below((body - 32) as u64) as usize
    } else {
        4 + state.draw_below(body as u64) as usize
    }
}

/// Sleeps `total` in [`POLL`]-sized slices, bailing early on shutdown.
fn sleep_poll(total: Duration, running: &AtomicBool) {
    let mut left = total;
    while !left.is_zero() {
        if !running.load(Ordering::SeqCst) {
            return;
        }
        let step = left.min(POLL);
        std::thread::sleep(step);
        left -= step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ChaosSchedule;

    /// A minimal upstream: accepts one connection, echoes every frame
    /// back verbatim until EOF or error.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let Ok((mut conn, _)) = listener.accept() else {
                return;
            };
            let mut buf = Vec::new();
            let mut tmp = [0u8; 4096];
            loop {
                match conn.read(&mut tmp) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => buf.extend_from_slice(&tmp[..n]),
                }
                while let Some(total) = complete_frame_len(&buf) {
                    let frame: Vec<u8> = buf.drain(..total).collect();
                    if conn.write_all(&frame).is_err() {
                        return;
                    }
                }
            }
        });
        (addr, handle)
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_be_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    }

    fn read_frame(conn: &mut TcpStream) -> Option<Vec<u8>> {
        let mut prefix = [0u8; 4];
        conn.read_exact(&mut prefix).ok()?;
        let len = u32::from_be_bytes(prefix) as usize;
        let mut body = vec![0u8; len];
        conn.read_exact(&mut body).ok()?;
        Some(body)
    }

    #[test]
    fn passes_frames_through_unmodified_without_a_schedule() {
        let (upstream, server) = echo_server();
        let link = ChaosLink::start(upstream, ChaosSchedule::default(), 1).unwrap();

        let mut conn = TcpStream::connect(link.addr()).unwrap();
        for i in 0..5u8 {
            let payload = vec![i; 16 + i as usize];
            conn.write_all(&frame(&payload)).unwrap();
            assert_eq!(read_frame(&mut conn).unwrap(), payload);
        }
        drop(conn);
        let stats = link.shutdown();
        server.join().unwrap();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.frames_forwarded, 10, "5 frames each way");
        assert_eq!(stats.faults_total(), 0);
    }

    #[test]
    fn corrupts_exactly_the_scheduled_frame() {
        let (upstream, server) = echo_server();
        // Corrupt the 2nd client→server frame only.
        let schedule = ChaosSchedule::parse(">corrupt@once2").unwrap();
        let link = ChaosLink::start(upstream, schedule, 7).unwrap();

        let mut conn = TcpStream::connect(link.addr()).unwrap();
        let payload = vec![0xABu8; 100];
        for i in 1..=3u64 {
            conn.write_all(&frame(&payload)).unwrap();
            let echoed = read_frame(&mut conn).unwrap();
            let diffs = echoed.iter().zip(&payload).filter(|(a, b)| a != b).count();
            if i == 2 {
                assert_eq!(diffs, 1, "frame 2 must have exactly one flipped byte");
            } else {
                assert_eq!(diffs, 0, "frame {i} must be intact");
            }
        }
        drop(conn);
        let stats = link.shutdown();
        server.join().unwrap();
        assert_eq!(
            stats.events,
            vec![FaultEvent {
                conn: 0,
                dir: Dir::ToServer,
                frame: 2,
                kind: "corrupt"
            }]
        );
    }

    #[test]
    fn reset_drops_the_connection_mid_stream() {
        let (upstream, server) = echo_server();
        let schedule = ChaosSchedule::parse(">reset@once2").unwrap();
        let link = ChaosLink::start(upstream, schedule, 7).unwrap();

        let mut conn = TcpStream::connect(link.addr()).unwrap();
        conn.write_all(&frame(b"first")).unwrap();
        assert_eq!(read_frame(&mut conn).unwrap(), b"first");
        conn.write_all(&frame(b"second")).unwrap();
        // The second frame is discarded and both sides are torn down:
        // the next read observes EOF or a reset.
        assert!(read_frame(&mut conn).is_none());

        let stats = link.shutdown();
        server.join().unwrap();
        assert_eq!(stats.faults.get("reset"), Some(&1));
        assert_eq!(stats.frames_forwarded, 2, "first frame, both directions");
    }

    #[test]
    fn same_seed_places_identical_faults_at_runtime() {
        let run = |seed: u64| -> Vec<FaultEvent> {
            let (upstream, server) = echo_server();
            let schedule = ChaosSchedule::parse(">corrupt@p0.4").unwrap();
            let link = ChaosLink::start(upstream, schedule, seed).unwrap();
            let mut conn = TcpStream::connect(link.addr()).unwrap();
            for _ in 0..20 {
                conn.write_all(&frame(&[0u8; 80])).unwrap();
                read_frame(&mut conn).unwrap();
            }
            drop(conn);
            let stats = link.shutdown();
            server.join().unwrap();
            stats.events
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed, same traffic, same fault placement");
        assert!(!a.is_empty(), "p0.4 over 20 frames should fire");
        let c = run(43);
        assert_ne!(a, c, "a different seed must move the faults");
    }
}
