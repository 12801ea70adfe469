//! `dvm-reactor`: a from-scratch nonblocking event loop for the DVM's
//! network trust boundary (C10K and beyond on one loop thread).
//!
//! A thread-per-connection server spends a thread's stack and a
//! scheduler slot per client, and its read timeouts turn ten thousand
//! mostly-idle connections into a permanent poll storm. This crate
//! serves them with the classic reactor architecture instead, built
//! directly on raw `epoll`/`eventfd`/`accept4` syscalls ([`sys`]) with
//! no external dependencies:
//!
//! - **One loop thread** owns every connection: accepts, reads, frame
//!   segmentation, and writes all happen on it, so connection state
//!   needs no locks.
//! - **Readiness-driven frame state machines**: bytes accumulate in a
//!   per-connection read buffer; the [`Handler`] tells the loop where
//!   frame boundaries fall ([`Handler::frame_boundary`]) and receives
//!   exactly-complete frames ([`Handler::on_frame`]). Hostile chunk
//!   boundaries (one byte at a time, frames split mid-prefix) never
//!   change what the handler sees.
//! - **Write coalescing**: replies append to a per-connection output
//!   buffer and flush in one batched pass; a partial write arms
//!   `EPOLLOUT` and the flush resumes when the socket drains.
//! - **Backpressure, not just shedding**: when a connection's output
//!   buffer crosses `write_buf_limit`, the loop stops polling its
//!   `EPOLLIN` until the peer drains half the backlog — a slow reader
//!   throttles itself instead of ballooning server memory.
//! - **Bounded worker pool + wake queue**: request *execution* (the
//!   rewrite pipeline, store I/O) must not block the loop, so handlers
//!   defer it ([`Io::defer`]) to a fixed pool; completed [`JobOutput`]s
//!   queue back and an `eventfd` wakes the loop to deliver them —
//!   ownership of the connection never leaves the loop thread.
//! - **Idle reaping**: with an `idle_deadline` configured, connections
//!   with no read/write progress (slowloris: one byte then silence) are
//!   closed by a periodic sweep — they hold a slot entry and a buffer,
//!   never a thread.
//!
//! Connection identity is a generation-tagged token
//! (`generation << 32 | slot`), so a stale completion or readiness
//! event for a recycled slot is recognized and dropped.

pub mod poll;
pub mod sys;

pub use poll::{Event, Poller, Waker};

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token reserved for the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token reserved for the completion-queue waker.
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// Loop tuning knobs.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Connections served concurrently. Arrivals beyond the limit are
    /// still accepted (so they can be told why), flagged `overloaded`
    /// in [`Handler::on_open`], and expected to be closed by the
    /// handler after one reply.
    pub max_connections: usize,
    /// Worker threads executing deferred jobs; `0` picks
    /// `max(2, available_parallelism)`.
    pub workers: usize,
    /// Unprocessed input a connection may buffer *while a deferred job
    /// is in flight* before the loop stops reading from it. (A single
    /// frame may exceed this: the protocol's own frame-length bound is
    /// the cap in that case.)
    pub read_buf_limit: usize,
    /// Buffered output bytes beyond which the connection is
    /// backpressured: `EPOLLIN` is dropped until the peer drains the
    /// backlog below half this limit.
    pub write_buf_limit: usize,
    /// Reap connections with no read/write progress for this long.
    /// `None` disables reaping (long-idle audit channels stay up).
    pub idle_deadline: Option<Duration>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_connections: 64,
            workers: 0,
            read_buf_limit: 64 << 10,
            write_buf_limit: 256 << 10,
            idle_deadline: None,
        }
    }
}

/// Where the next frame boundary falls in a connection's buffered
/// input, as judged by [`Handler::frame_boundary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Boundary {
    /// No complete frame yet; keep reading.
    NeedMore,
    /// The first `n` buffered bytes form one complete frame.
    Frame(usize),
    /// The buffered prefix can never become a legal frame (bad length,
    /// garbage framing). The connection is drained and closed after
    /// [`Handler::on_violation`] gets a chance to reply.
    Violation(String),
}

/// Why a connection left the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The peer closed (EOF) or reset.
    PeerClosed,
    /// The handler asked ([`Io::close`]/[`Io::close_after_flush`] or
    /// [`JobOutput::kill`]).
    HandlerClosed,
    /// [`Boundary::Violation`] — unparseable input.
    Violation,
    /// No progress within the configured `idle_deadline`.
    IdleExpired,
    /// A read or write failed.
    IoError,
    /// The reactor shut down.
    Shutdown,
}

/// What a deferred job hands back to the loop for its connection.
#[derive(Debug, Default)]
pub struct JobOutput {
    /// Bytes to queue on the connection's output buffer.
    pub bytes: Vec<u8>,
    /// Close immediately, discarding any unflushed output (after
    /// `bytes`, which are still queued first — leave it empty for a
    /// true abrupt drop).
    pub kill: bool,
}

impl JobOutput {
    /// Queue `bytes` and keep serving.
    pub fn reply(bytes: Vec<u8>) -> JobOutput {
        JobOutput { bytes, kill: false }
    }

    /// Abruptly drop the connection without replying.
    pub fn kill() -> JobOutput {
        JobOutput {
            bytes: Vec::new(),
            kill: true,
        }
    }
}

type Job = Box<dyn FnOnce() -> JobOutput + Send + 'static>;

/// The loop's API surface handed to [`Handler::on_frame`]: queue
/// output, defer blocking work, request closes. All effects apply when
/// the callback returns — nothing blocks.
pub struct Io<'a> {
    out: &'a mut OutState,
    jobs: &'a mut Vec<(u64, Job)>,
    token: u64,
}

impl Io<'_> {
    /// This connection's identity token.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Queues bytes on the connection's output buffer (coalesced with
    /// everything else queued this iteration; flushed in one pass).
    pub fn send(&mut self, bytes: &[u8]) {
        self.out.wbuf.extend_from_slice(bytes);
    }

    /// Hands blocking work to the worker pool. The connection stops
    /// consuming frames until the job's [`JobOutput`] is delivered back
    /// by the wake queue — at most one deferred job per connection at a
    /// time, which is also what keeps responses in request order.
    pub fn defer(&mut self, job: impl FnOnce() -> JobOutput + Send + 'static) {
        debug_assert!(
            !self.out.inflight,
            "one deferred job per connection at a time"
        );
        self.out.inflight = true;
        self.jobs.push((self.token, Box::new(job)));
    }

    /// Flush everything queued, then close.
    pub fn close_after_flush(&mut self) {
        self.out.draining = true;
    }

    /// Close immediately, discarding unflushed output.
    pub fn close(&mut self) {
        self.out.kill = true;
    }
}

/// The protocol living on top of the loop. One handler serves every
/// connection; per-connection protocol state lives in `Handler::Conn`.
///
/// All callbacks run on the loop thread except none — deferred jobs run
/// on the pool but are plain closures, not handler methods.
pub trait Handler: Send + Sync + 'static {
    /// Per-connection protocol state, owned by the loop.
    type Conn: Send + 'static;

    /// A connection arrived. `overloaded` is set when the serving limit
    /// was already reached — the handler should answer its first frame
    /// with a rejection and close.
    fn on_open(&self, token: u64, overloaded: bool) -> Self::Conn;

    /// Judges where the first frame boundary falls in `buf` (never
    /// empty). Must be pure w.r.t. the bytes: the same prefix always
    /// gets the same answer regardless of how reads were chunked.
    fn frame_boundary(&self, buf: &[u8]) -> Boundary;

    /// Raw bytes arrived off a socket (for byte-level accounting).
    fn on_data(&self, n: usize) {
        let _ = n;
    }

    /// One complete frame, exactly as delimited by `frame_boundary`.
    fn on_frame(&self, io: &mut Io<'_>, conn: &mut Self::Conn, frame: &[u8]);

    /// The connection's input can never parse ([`Boundary::Violation`]).
    /// May queue a final reply; the connection drains and closes after.
    fn on_violation(&self, io: &mut Io<'_>, conn: &mut Self::Conn, detail: &str) {
        let _ = (io, conn, detail);
    }

    /// The connection left the loop (its state is handed back).
    fn on_close(&self, token: u64, conn: Self::Conn, reason: CloseReason) {
        let _ = (token, conn, reason);
    }
}

/// Loop-level instrumentation hooks; all default to no-ops.
pub trait ReactorObserver: Send + Sync + 'static {
    /// One `epoll_wait` returned, reporting `events` ready fds.
    fn loop_iteration(&self, events: usize) {
        let _ = events;
    }
    /// A connection opened (`+1`) or closed (`-1`).
    fn conn_delta(&self, delta: i64) {
        let _ = delta;
    }
    /// A connection crossed its write-buffer limit and stopped being
    /// polled for input.
    fn backpressure_stall(&self) {}
    /// Latency from a worker finishing a job to the loop picking its
    /// completion up.
    fn wakeup_ns(&self, ns: u64) {
        let _ = ns;
    }
}

/// The do-nothing observer.
pub struct NullObserver;

impl ReactorObserver for NullObserver {}

#[derive(Default)]
struct OutState {
    wbuf: Vec<u8>,
    wpos: usize,
    inflight: bool,
    draining: bool,
    kill: bool,
}

impl OutState {
    fn pending(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

struct Conn<C> {
    stream: TcpStream,
    fd: RawFd,
    token: u64,
    user: C,
    rbuf: Vec<u8>,
    rpos: usize,
    out: OutState,
    /// Read interest dropped because of write backpressure.
    paused: bool,
    want_read: bool,
    want_write: bool,
    last_activity: Instant,
    overloaded: bool,
    close_reason: Option<CloseReason>,
}

struct Completion {
    token: u64,
    out: JobOutput,
    finished: Instant,
}

struct Completions {
    queue: Mutex<Vec<Completion>>,
    waker: Arc<Waker>,
}

struct PoolShared {
    /// `(job queue, open)` — `open: false` tells workers to exit.
    queue: Mutex<(VecDeque<(u64, Job)>, bool)>,
    cv: Condvar,
}

fn worker_main(pool: Arc<PoolShared>, completions: Arc<Completions>) {
    loop {
        let next = {
            let mut guard = pool.queue.lock().unwrap();
            loop {
                if let Some(job) = guard.0.pop_front() {
                    break Some(job);
                }
                if !guard.1 {
                    break None;
                }
                guard = pool.cv.wait(guard).unwrap();
            }
        };
        let Some((token, job)) = next else { return };
        // A panicking job must not take the worker (and its connection's
        // liveness) down with it: the connection is dropped instead.
        let out = catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|_| JobOutput::kill());
        completions.queue.lock().unwrap().push(Completion {
            token,
            out,
            finished: Instant::now(),
        });
        completions.waker.wake();
    }
}

struct LoopState<H: Handler> {
    poller: Poller,
    listener: TcpListener,
    handler: Arc<H>,
    config: ReactorConfig,
    observer: Arc<dyn ReactorObserver>,
    running: Arc<AtomicBool>,
    conns: Vec<Option<Conn<H::Conn>>>,
    free: Vec<usize>,
    gens: Vec<u32>,
    /// Connections holding a serving slot (excludes overloaded ones).
    serving: usize,
    open_conns: usize,
    pending_jobs: Vec<(u64, Job)>,
    pool: Arc<PoolShared>,
    completions: Arc<Completions>,
    scratch: Vec<u8>,
    last_sweep: Instant,
}

enum ReadStep {
    Progress,
    Stop,
    Closed,
}

impl<H: Handler> LoopState<H> {
    fn run(mut self, workers: Vec<JoinHandle<()>>) {
        let mut events: Vec<Event> = Vec::new();
        while self.running.load(Ordering::SeqCst) {
            let timeout = self.wait_timeout();
            if self.poller.wait(&mut events, timeout).is_err() {
                continue;
            }
            self.observer.loop_iteration(events.len());
            let batch = std::mem::take(&mut events);
            for ev in &batch {
                match ev.token {
                    TOKEN_LISTENER => self.accept_burst(),
                    TOKEN_WAKER => self.completions.waker.drain(),
                    token => self.on_ready(token, *ev),
                }
            }
            events = batch;
            self.drain_completions();
            self.sweep_idle();
        }
        self.teardown(workers);
    }

    fn wait_timeout(&self) -> Option<Duration> {
        match self.config.idle_deadline {
            // Sweep granularity: a quarter deadline keeps reap latency
            // under ~1.25x the configured deadline.
            Some(d) if self.open_conns > 0 => {
                Some((d / 4).clamp(Duration::from_millis(5), Duration::from_millis(250)))
            }
            _ => Some(Duration::from_millis(500)),
        }
    }

    fn resolve(&self, token: u64) -> Option<usize> {
        let idx = (token & u64::from(u32::MAX)) as usize;
        match self.conns.get(idx) {
            Some(Some(c)) if c.token == token => Some(idx),
            _ => None,
        }
    }

    fn slot_cap(&self) -> usize {
        // Headroom above the serving limit so over-limit arrivals can be
        // *told* they are shed (typed rejection) instead of vanishing.
        self.config.max_connections + (self.config.max_connections / 4).max(64)
    }

    fn accept_burst(&mut self) {
        loop {
            match sys::accept_nonblocking(self.listener.as_raw_fd()) {
                sys::Accepted::Conn(fd) => {
                    let stream = unsafe { TcpStream::from_raw_fd(fd) };
                    if self.open_conns >= self.slot_cap() {
                        // Hard shed beyond even the rejection margin.
                        drop(stream);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let idx = match self.free.pop() {
                        Some(i) => i,
                        None => {
                            self.conns.push(None);
                            self.gens.push(0);
                            self.conns.len() - 1
                        }
                    };
                    let token = (u64::from(self.gens[idx]) << 32) | idx as u64;
                    if self.poller.add(fd, token, true, false).is_err() {
                        self.free.push(idx);
                        continue;
                    }
                    let overloaded = self.serving >= self.config.max_connections;
                    if !overloaded {
                        self.serving += 1;
                    }
                    self.open_conns += 1;
                    let user = self.handler.on_open(token, overloaded);
                    self.conns[idx] = Some(Conn {
                        stream,
                        fd,
                        token,
                        user,
                        rbuf: Vec::new(),
                        rpos: 0,
                        out: OutState::default(),
                        paused: false,
                        want_read: true,
                        want_write: false,
                        last_activity: Instant::now(),
                        overloaded,
                        close_reason: None,
                    });
                    self.observer.conn_delta(1);
                }
                sys::Accepted::Empty => break,
                sys::Accepted::Retry => continue,
                sys::Accepted::FdExhausted => {
                    // Back off briefly instead of spinning on a full fd
                    // table (level-triggered epoll re-reports arrivals).
                    std::thread::sleep(Duration::from_millis(5));
                    break;
                }
                sys::Accepted::Err(_) => break,
            }
        }
    }

    fn on_ready(&mut self, token: u64, ev: Event) {
        let Some(idx) = self.resolve(token) else {
            return;
        };
        if ev.writable {
            self.flush_writes(idx);
        }
        if (ev.readable || ev.hangup) && !self.read_some(idx) {
            return; // connection closed during read
        }
        // Run the frame machine even on a pure-writable event: a drain
        // may have dropped output pressure below the limit, unblocking
        // frames that were already buffered (no further EPOLLIN will
        // announce those).
        self.pump(idx);
    }

    /// Alternates the frame machine with flushes until no further
    /// progress: a flush that drains the backlog below the write limit
    /// re-admits buffered frames the amplification guard deferred, so a
    /// pipelined burst can't strand unprocessed input that no future
    /// readiness event would announce.
    fn pump(&mut self, idx: usize) {
        loop {
            let Some(before) = self.conns[idx].as_ref().map(|c| c.rbuf.len() - c.rpos) else {
                return;
            };
            if before == 0 {
                break;
            }
            self.process_frames(idx);
            self.submit_jobs();
            self.flush_writes(idx);
            let Some(after) = self.conns[idx].as_ref().map(|c| c.rbuf.len() - c.rpos) else {
                return;
            };
            if after == before {
                break;
            }
        }
        self.after_io(idx);
    }

    fn submit_jobs(&mut self) {
        if !self.pending_jobs.is_empty() {
            let jobs = self.pending_jobs.len();
            let mut guard = self.pool.queue.lock().unwrap();
            guard.0.extend(self.pending_jobs.drain(..));
            drop(guard);
            // One wake-up per job: a worker drains the queue before it
            // waits again, so waking every idle worker for one job only
            // buys lock contention.
            for _ in 0..jobs {
                self.pool.cv.notify_one();
            }
        }
    }

    /// Pulls socket bytes into the connection's read buffer, bounded per
    /// event for fairness (level-triggered epoll re-reports leftovers).
    /// Returns false when the connection closed.
    fn read_some(&mut self, idx: usize) -> bool {
        for _ in 0..8 {
            let step = {
                let (conns, scratch) = (&mut self.conns, &mut self.scratch);
                let Some(conn) = conns[idx].as_mut() else {
                    return false;
                };
                if conn.paused
                    || conn.out.draining
                    || conn.out.kill
                    || (conn.out.inflight
                        && conn.rbuf.len() - conn.rpos >= self.config.read_buf_limit)
                {
                    ReadStep::Stop
                } else {
                    match conn.stream.read(&mut scratch[..]) {
                        Ok(0) => ReadStep::Closed,
                        Ok(n) => {
                            conn.rbuf.extend_from_slice(&scratch[..n]);
                            conn.last_activity = Instant::now();
                            self.handler.on_data(n);
                            ReadStep::Progress
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => ReadStep::Stop,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => ReadStep::Progress,
                        Err(_) => ReadStep::Closed,
                    }
                }
            };
            match step {
                ReadStep::Progress => continue,
                ReadStep::Stop => return true,
                ReadStep::Closed => {
                    self.close_conn(idx, CloseReason::PeerClosed);
                    return false;
                }
            }
        }
        true
    }

    /// Consumes every complete frame in the read buffer, stopping at a
    /// partial frame, a deferred job, or a close request.
    fn process_frames(&mut self, idx: usize) {
        loop {
            let LoopState {
                conns,
                pending_jobs,
                handler,
                config,
                ..
            } = self;
            let Some(conn) = conns[idx].as_mut() else {
                return;
            };
            if conn.out.inflight || conn.out.draining || conn.out.kill {
                break;
            }
            // Write-amplification guard: stop turning buffered requests
            // into replies once the output backlog crosses the limit —
            // otherwise a pipelined burst of small requests with large
            // inline replies balloons `wbuf` unboundedly in one pass.
            // The writable path re-enters this machine as the peer
            // drains.
            if conn.out.pending() >= config.write_buf_limit {
                break;
            }
            if conn.rpos >= conn.rbuf.len() {
                break;
            }
            match handler.frame_boundary(&conn.rbuf[conn.rpos..]) {
                Boundary::NeedMore => break,
                Boundary::Frame(n) => {
                    let avail = conn.rbuf.len() - conn.rpos;
                    if n == 0 || n > avail {
                        debug_assert!(false, "frame_boundary broke its contract");
                        break;
                    }
                    let Conn {
                        rbuf,
                        rpos,
                        user,
                        out,
                        token,
                        last_activity,
                        ..
                    } = conn;
                    let frame = &rbuf[*rpos..*rpos + n];
                    let mut io = Io {
                        out,
                        jobs: pending_jobs,
                        token: *token,
                    };
                    handler.on_frame(&mut io, user, frame);
                    *rpos += n;
                    *last_activity = Instant::now();
                }
                Boundary::Violation(detail) => {
                    let Conn {
                        user,
                        out,
                        token,
                        close_reason,
                        ..
                    } = conn;
                    let mut io = Io {
                        out,
                        jobs: pending_jobs,
                        token: *token,
                    };
                    handler.on_violation(&mut io, user, &detail);
                    out.draining = true;
                    close_reason.get_or_insert(CloseReason::Violation);
                    break;
                }
            }
        }
        // Compact once per pass (amortizes the memmove over every frame
        // consumed this round).
        if let Some(conn) = self.conns[idx].as_mut() {
            if conn.rpos > 0 {
                conn.rbuf.drain(..conn.rpos);
                conn.rpos = 0;
            }
        }
    }

    /// Submits deferred jobs, flushes coalesced output, and settles the
    /// connection's fate/interest set.
    fn after_io(&mut self, idx: usize) {
        self.submit_jobs();
        self.flush_writes(idx);
        self.finalize(idx);
    }

    fn flush_writes(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            if conn.out.pending() == 0 {
                if !conn.out.wbuf.is_empty() {
                    conn.out.wbuf.clear();
                    conn.out.wpos = 0;
                }
                return;
            }
            match conn.stream.write(&conn.out.wbuf[conn.out.wpos..]) {
                Ok(0) => {
                    conn.out.kill = true;
                    conn.close_reason.get_or_insert(CloseReason::IoError);
                    return;
                }
                Ok(n) => {
                    conn.out.wpos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.out.kill = true;
                    conn.close_reason.get_or_insert(CloseReason::IoError);
                    return;
                }
            }
        }
    }

    fn finalize(&mut self, idx: usize) {
        let (kill, drained) = {
            let Some(conn) = self.conns[idx].as_ref() else {
                return;
            };
            (
                conn.out.kill,
                conn.out.draining && conn.out.pending() == 0 && !conn.out.inflight,
            )
        };
        if kill || drained {
            self.close_conn(idx, CloseReason::HandlerClosed);
            return;
        }
        let LoopState {
            conns,
            poller,
            observer,
            config,
            ..
        } = self;
        let Some(conn) = conns[idx].as_mut() else {
            return;
        };
        let pending = conn.out.pending();
        if !conn.paused && pending >= config.write_buf_limit {
            conn.paused = true;
            observer.backpressure_stall();
        } else if conn.paused && pending <= config.write_buf_limit / 2 {
            conn.paused = false;
        }
        let rbuf_backlog =
            conn.out.inflight && (conn.rbuf.len() - conn.rpos) >= config.read_buf_limit;
        let want_read = !conn.paused && !conn.out.draining && !rbuf_backlog;
        let want_write = pending > 0;
        if (want_read != conn.want_read || want_write != conn.want_write)
            && poller
                .modify(conn.fd, conn.token, want_read, want_write)
                .is_ok()
        {
            conn.want_read = want_read;
            conn.want_write = want_write;
        }
    }

    fn drain_completions(&mut self) {
        let completed: Vec<Completion> = {
            let mut guard = self.completions.queue.lock().unwrap();
            if guard.is_empty() {
                return;
            }
            std::mem::take(&mut *guard)
        };
        let now = Instant::now();
        for c in completed {
            self.observer
                .wakeup_ns(now.saturating_duration_since(c.finished).as_nanos() as u64);
            let Some(idx) = self.resolve(c.token) else {
                continue; // connection died while its job ran
            };
            {
                let conn = self.conns[idx].as_mut().unwrap();
                conn.out.inflight = false;
                if !c.out.bytes.is_empty() {
                    conn.out.wbuf.extend_from_slice(&c.out.bytes);
                }
                if c.out.kill {
                    conn.out.kill = true;
                }
                conn.last_activity = now;
            }
            // Pipelined frames that queued behind the job are unblocked.
            self.pump(idx);
        }
    }

    fn sweep_idle(&mut self) {
        let Some(deadline) = self.config.idle_deadline else {
            return;
        };
        let now = Instant::now();
        if now.saturating_duration_since(self.last_sweep) < deadline / 4 {
            return;
        }
        self.last_sweep = now;
        for idx in 0..self.conns.len() {
            let expired = match &self.conns[idx] {
                // A connection whose job is still executing is working,
                // not idle, however long the job takes.
                Some(c) => {
                    !c.out.inflight && now.saturating_duration_since(c.last_activity) >= deadline
                }
                None => false,
            };
            if expired {
                self.close_conn(idx, CloseReason::IdleExpired);
            }
        }
    }

    fn close_conn(&mut self, idx: usize, fallback: CloseReason) {
        let Some(conn) = self.conns[idx].take() else {
            return;
        };
        self.poller.remove(conn.fd);
        if !conn.overloaded {
            self.serving -= 1;
        }
        self.open_conns -= 1;
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx);
        self.observer.conn_delta(-1);
        let reason = conn.close_reason.unwrap_or(fallback);
        self.handler.on_close(conn.token, conn.user, reason);
        // `conn.stream` drops here, closing the fd; the kernel delivers
        // whatever it already buffered, then FIN.
    }

    fn teardown(mut self, workers: Vec<JoinHandle<()>>) {
        for idx in 0..self.conns.len() {
            self.close_conn(idx, CloseReason::Shutdown);
        }
        {
            let mut guard = self.pool.queue.lock().unwrap();
            guard.1 = false;
            guard.0.clear();
        }
        self.pool.cv.notify_all();
        for w in workers {
            let _ = w.join();
        }
    }
}

/// A running reactor: the loop thread plus its worker pool. Dropping
/// (or [`Reactor::shutdown`]) stops the loop, closes every connection
/// with [`CloseReason::Shutdown`], and joins all threads.
pub struct Reactor {
    running: Arc<AtomicBool>,
    waker: Arc<Waker>,
    thread: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor").field("addr", &self.addr).finish()
    }
}

impl Reactor {
    /// Takes ownership of a bound listener and starts serving `handler`
    /// on a dedicated loop thread.
    pub fn start<H: Handler>(
        listener: TcpListener,
        handler: Arc<H>,
        config: ReactorConfig,
        observer: Arc<dyn ReactorObserver>,
    ) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        // std binds with a 128-deep accept queue; a connect flood deeper
        // than that costs each overflowing peer a SYN retransmit. Ask
        // for the connection limit (the kernel clamps to somaxconn).
        let _ = sys::deepen_backlog(
            listener.as_raw_fd(),
            config.max_connections.clamp(128, 65_535) as i32,
        );
        let addr = listener.local_addr()?;
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new()?);
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
        poller.add(waker.as_raw_fd(), TOKEN_WAKER, true, false)?;
        let completions = Arc::new(Completions {
            queue: Mutex::new(Vec::new()),
            waker: waker.clone(),
        });
        let pool = Arc::new(PoolShared {
            queue: Mutex::new((VecDeque::new(), true)),
            cv: Condvar::new(),
        });
        let worker_count = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .max(2)
        } else {
            config.workers
        };
        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let p = pool.clone();
            let c = completions.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("dvm-reactor-worker-{i}"))
                    .spawn(move || worker_main(p, c))?,
            );
        }
        let running = Arc::new(AtomicBool::new(true));
        let state = LoopState {
            poller,
            listener,
            handler,
            config,
            observer,
            running: running.clone(),
            conns: Vec::new(),
            free: Vec::new(),
            gens: Vec::new(),
            serving: 0,
            open_conns: 0,
            pending_jobs: Vec::new(),
            pool,
            completions,
            scratch: vec![0u8; 16 << 10],
            last_sweep: Instant::now(),
        };
        let thread = std::thread::Builder::new()
            .name("dvm-reactor".into())
            .spawn(move || state.run(workers))?;
        Ok(Reactor {
            running,
            waker,
            thread: Some(thread),
            addr,
        })
    }

    /// The listener's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the loop, closes every connection, joins every thread.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if !self.running.swap(false, Ordering::SeqCst) {
            return;
        }
        self.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Test protocol: `[len: u8][payload; len]`. Payloads starting with
    /// `b'D'` are echoed reversed via the worker pool; anything else is
    /// echoed inline from the loop thread. A zero length is a framing
    /// violation.
    struct Echo {
        closes: Mutex<Vec<(u64, CloseReason)>>,
        opens: Mutex<Vec<(u64, bool)>>,
    }

    impl Echo {
        fn new() -> Arc<Echo> {
            Arc::new(Echo {
                closes: Mutex::new(Vec::new()),
                opens: Mutex::new(Vec::new()),
            })
        }
    }

    struct EchoConn {
        overloaded: bool,
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut f = vec![payload.len() as u8];
        f.extend_from_slice(payload);
        f
    }

    impl Handler for Echo {
        type Conn = EchoConn;

        fn on_open(&self, token: u64, overloaded: bool) -> EchoConn {
            self.opens.lock().unwrap().push((token, overloaded));
            EchoConn { overloaded }
        }

        fn frame_boundary(&self, buf: &[u8]) -> Boundary {
            let len = buf[0] as usize;
            if len == 0 {
                return Boundary::Violation("zero-length frame".into());
            }
            if buf.len() < 1 + len {
                Boundary::NeedMore
            } else {
                Boundary::Frame(1 + len)
            }
        }

        fn on_frame(&self, io: &mut Io<'_>, conn: &mut EchoConn, f: &[u8]) {
            if conn.overloaded {
                io.send(&frame(b"BUSY"));
                io.close_after_flush();
                return;
            }
            let payload = f[1..].to_vec();
            if payload[0] == b'D' {
                io.defer(move || {
                    let mut rev = payload.clone();
                    rev.reverse();
                    JobOutput::reply(frame(&rev))
                });
            } else if payload[0] == b'M' {
                // Burst: many frames queued inline to trip backpressure.
                for _ in 0..4000 {
                    io.send(&frame(&[b'x'; 100]));
                }
            } else {
                io.send(&frame(&payload));
            }
        }

        fn on_violation(&self, io: &mut Io<'_>, _conn: &mut EchoConn, _detail: &str) {
            io.send(&frame(b"BAD"));
        }

        fn on_close(&self, token: u64, _conn: EchoConn, reason: CloseReason) {
            self.closes.lock().unwrap().push((token, reason));
        }
    }

    #[derive(Default)]
    struct CountingObserver {
        iterations: AtomicU64,
        stalls: AtomicU64,
        conns: Mutex<i64>,
        wakeups: AtomicU64,
    }

    impl ReactorObserver for CountingObserver {
        fn loop_iteration(&self, _events: usize) {
            self.iterations.fetch_add(1, Ordering::Relaxed);
        }
        fn conn_delta(&self, delta: i64) {
            *self.conns.lock().unwrap() += delta;
        }
        fn backpressure_stall(&self) {
            self.stalls.fetch_add(1, Ordering::Relaxed);
        }
        fn wakeup_ns(&self, _ns: u64) {
            self.wakeups.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn start_echo(config: ReactorConfig) -> (Reactor, Arc<Echo>, Arc<CountingObserver>) {
        let handler = Echo::new();
        let observer = Arc::new(CountingObserver::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let reactor = Reactor::start(listener, handler.clone(), config, observer.clone()).unwrap();
        (reactor, handler, observer)
    }

    fn read_frame(stream: &mut impl Read) -> Option<Vec<u8>> {
        let mut len = [0u8; 1];
        if stream.read_exact(&mut len).is_err() {
            return None;
        }
        let mut payload = vec![0u8; len[0] as usize];
        stream.read_exact(&mut payload).ok()?;
        Some(payload)
    }

    #[test]
    fn inline_echo_survives_hostile_chunking() {
        let (reactor, _, _) = start_echo(ReactorConfig::default());
        let mut c = TcpStream::connect(reactor.addr()).unwrap();
        // Two frames, delivered one byte at a time.
        let wire = [frame(b"hello"), frame(b"world")].concat();
        for b in wire {
            c.write_all(&[b]).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(read_frame(&mut c).unwrap(), b"hello");
        assert_eq!(read_frame(&mut c).unwrap(), b"world");
        reactor.shutdown();
    }

    #[test]
    fn deferred_jobs_complete_back_onto_the_loop_in_order() {
        let (reactor, _, observer) = start_echo(ReactorConfig::default());
        let mut c = TcpStream::connect(reactor.addr()).unwrap();
        // Pipeline: deferred, inline, deferred — replies must come back
        // in request order because the connection stalls frame
        // consumption while a job is in flight.
        let wire = [frame(b"Dabc"), frame(b"mid"), frame(b"Dxyz")].concat();
        c.write_all(&wire).unwrap();
        assert_eq!(read_frame(&mut c).unwrap(), b"cbaD");
        assert_eq!(read_frame(&mut c).unwrap(), b"mid");
        assert_eq!(read_frame(&mut c).unwrap(), b"zyxD");
        assert!(observer.wakeups.load(Ordering::Relaxed) >= 2);
        reactor.shutdown();
    }

    #[test]
    fn violation_gets_a_final_reply_before_the_close() {
        let (reactor, handler, _) = start_echo(ReactorConfig::default());
        let mut c = TcpStream::connect(reactor.addr()).unwrap();
        c.write_all(&[0u8]).unwrap(); // zero-length frame: violation
        assert_eq!(read_frame(&mut c).unwrap(), b"BAD");
        assert!(read_frame(&mut c).is_none()); // EOF after drain
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let closes = handler.closes.lock().unwrap();
            if !closes.is_empty() {
                assert_eq!(closes[0].1, CloseReason::Violation);
                break;
            }
            drop(closes);
            assert!(Instant::now() < deadline, "close not recorded");
            std::thread::sleep(Duration::from_millis(5));
        }
        reactor.shutdown();
    }

    #[test]
    fn overloaded_connections_are_flagged_and_rejected() {
        let (reactor, handler, _) = start_echo(ReactorConfig {
            max_connections: 1,
            ..ReactorConfig::default()
        });
        let mut first = TcpStream::connect(reactor.addr()).unwrap();
        first.write_all(&frame(b"one")).unwrap();
        assert_eq!(read_frame(&mut first).unwrap(), b"one");
        let mut second = TcpStream::connect(reactor.addr()).unwrap();
        second.write_all(&frame(b"two")).unwrap();
        assert_eq!(read_frame(&mut second).unwrap(), b"BUSY");
        assert!(read_frame(&mut second).is_none());
        // The first connection still works after the rejection.
        first.write_all(&frame(b"again")).unwrap();
        assert_eq!(read_frame(&mut first).unwrap(), b"again");
        let opens = handler.opens.lock().unwrap().clone();
        assert_eq!(opens.iter().filter(|(_, o)| *o).count(), 1);
        reactor.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped_by_deadline() {
        let (reactor, handler, observer) = start_echo(ReactorConfig {
            idle_deadline: Some(Duration::from_millis(100)),
            ..ReactorConfig::default()
        });
        let mut c = TcpStream::connect(reactor.addr()).unwrap();
        // One byte of a frame, then silence: the classic slowloris.
        c.write_all(&[5u8]).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(c.read(&mut buf).unwrap(), 0, "expected reaping EOF");
        let closes = handler.closes.lock().unwrap().clone();
        assert_eq!(closes.len(), 1);
        assert_eq!(closes[0].1, CloseReason::IdleExpired);
        assert_eq!(*observer.conns.lock().unwrap(), 0);
        reactor.shutdown();
    }

    #[test]
    fn backpressure_pauses_reads_and_resumes_after_drain() {
        let (reactor, _, observer) = start_echo(ReactorConfig {
            write_buf_limit: 1024,
            ..ReactorConfig::default()
        });
        let mut c = TcpStream::connect(reactor.addr()).unwrap();
        // Ask for 50 bursts of 400KB (20MB total) without reading any of
        // it: far beyond what the kernel's loopback buffers can absorb,
        // so the server's write buffer must cross the 1KB limit and
        // stall the connection's read interest.
        const BURSTS: usize = 50;
        for _ in 0..BURSTS {
            c.write_all(&frame(b"M")).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while observer.stalls.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "no backpressure stall observed");
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut reader = std::io::BufReader::with_capacity(1 << 20, c.try_clone().unwrap());
        let mut got = 0usize;
        while got < BURSTS * 4000 {
            let f = read_frame(&mut reader).expect("burst frame");
            assert_eq!(f.len(), 100);
            got += 1;
        }
        // Reads resumed after the drain: a fresh echo still answers.
        c.write_all(&frame(b"after")).unwrap();
        assert_eq!(read_frame(&mut reader).unwrap(), b"after");
        reactor.shutdown();
    }

    #[test]
    fn shutdown_closes_live_connections_and_joins() {
        let (reactor, handler, _) = start_echo(ReactorConfig::default());
        let mut c = TcpStream::connect(reactor.addr()).unwrap();
        c.write_all(&frame(b"up")).unwrap();
        assert_eq!(read_frame(&mut c).unwrap(), b"up");
        reactor.shutdown();
        let closes = handler.closes.lock().unwrap().clone();
        assert_eq!(closes.len(), 1);
        assert_eq!(closes[0].1, CloseReason::Shutdown);
        assert!(read_frame(&mut c).is_none());
    }
}
