//! The client side of the wire: `NetClassProvider` and `RemoteConsole`.
//!
//! `NetClassProvider` implements `dvm_jvm::ClassProvider` over a live
//! TCP connection to a [`crate::ProxyServer`], with connect/read
//! timeouts, bounded retries with exponential backoff, and signature
//! verification on receipt — so a `DvmClient` runs against an
//! in-process proxy or a socket with one constructor change.
//!
//! `RemoteConsole` is the audit side: a second connection streaming
//! `AUDIT_EVENT` frames to the console in batches, fire-and-forget with a
//! single reconnect attempt, since audit delivery must never block
//! execution.

use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dvm_jvm::ClassProvider;
use dvm_monitor::{AuditSink, AuditSpool, EventKind, SiteId};
use dvm_proxy::{ServedFrom, SignatureCheck, Signer};
use dvm_telemetry::events::decode_events;
use dvm_telemetry::{
    Counter, Histogram, JournalEvent, Registry, SpanId, StatsReport, Telemetry, TraceContext,
    TraceId,
};

use crate::frame::{kind_from_u8, kind_to_u8, ErrorCode, Frame, FrameError, Hello};

/// Client networking knobs.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Deadline for establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Deadline for reading one response.
    pub read_timeout: Duration,
    /// Deadline for writing one request.
    pub write_timeout: Duration,
    /// Total attempts per fetch (first try plus retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub backoff_base: Duration,
    /// Cap on the per-retry backoff.
    pub backoff_max: Duration,
    /// Seed for the deterministic backoff jitter. Each provider mixes
    /// this with a hash of its user name, so a fleet of clients kicked
    /// off by the same fault retries decorrelated rather than in
    /// lockstep — yet any given (seed, user) pair replays identically.
    pub jitter_seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_attempts: 4,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(200),
            jitter_seed: 0,
        }
    }
}

impl NetConfig {
    fn backoff_for(&self, retry: u32) -> Duration {
        let exp = self.backoff_base.saturating_mul(1u32 << retry.min(16));
        exp.min(self.backoff_max)
    }
}

/// FNV-1a over `bytes`: mixes the user name into the jitter seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A client-side failure.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (connect, read, or write).
    Io(std::io::ErrorKind, String),
    /// The connection died mid-frame: part of a response arrived and the
    /// stream then closed. Distinct from a clean close (`Io`) because it
    /// proves a message was cut in half — retryable, but never
    /// confusable with an orderly EOF.
    Truncated {
        /// Bytes of the frame that arrived before the cut.
        got: usize,
        /// Declared frame size, when the length prefix survived.
        expected: Option<usize>,
    },
    /// The peer sent bytes that do not parse as a frame.
    Frame(FrameError),
    /// The peer sent a well-formed frame that violates the protocol
    /// state machine (e.g. a response for a different request).
    Protocol(String),
    /// The server answered with a typed error frame.
    Remote {
        /// Failure category.
        code: ErrorCode,
        /// Server-side detail.
        message: String,
    },
    /// The payload's keyed signature did not verify.
    BadSignature,
    /// All attempts exhausted; wraps the last error.
    Exhausted(Box<NetError>),
}

impl NetError {
    /// True when the failure came from the transport (socket errors and
    /// mid-frame truncations) rather than from what the peer said.
    pub fn is_transport(&self) -> bool {
        match self {
            NetError::Io(..) | NetError::Truncated { .. } => true,
            NetError::Frame(e) => e.is_transport(),
            _ => false,
        }
    }

    /// True when the server rejected the connection or request because
    /// it is at capacity — retryable here (with backoff), and the signal
    /// a cluster client uses to fail over to another shard immediately.
    pub fn is_overload(&self) -> bool {
        match self {
            NetError::Remote { code, .. } => *code == ErrorCode::Overloaded,
            NetError::Exhausted(inner) => inner.is_overload(),
            _ => false,
        }
    }

    /// True when the *stream itself* can no longer be trusted: the peer's
    /// bytes failed to parse, violated the protocol state machine, or
    /// carried an invalid signature. Any of these means the connection is
    /// desynchronized or the link corrupted what crossed it — the only
    /// safe response is to discard the connection and retry on a fresh
    /// one, where signature verification again gates what is delivered.
    pub fn is_integrity(&self) -> bool {
        match self {
            NetError::BadSignature | NetError::Protocol(_) => true,
            NetError::Frame(e) => !e.is_transport(),
            _ => false,
        }
    }

    /// True for failures worth retrying on the *same* endpoint:
    /// transport errors, typed overload rejections, and integrity
    /// failures (corrupted or desynchronized streams, retried on a
    /// fresh connection).
    pub fn is_retryable(&self) -> bool {
        self.is_transport() || self.is_overload() || self.is_integrity()
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(kind, e) => write!(f, "transport ({kind:?}): {e}"),
            NetError::Truncated { got, expected } => match expected {
                Some(want) => write!(f, "response truncated mid-frame: {got} of {want} bytes"),
                None => write!(
                    f,
                    "response truncated inside the length prefix: {got} bytes"
                ),
            },
            NetError::Frame(e) => write!(f, "{e}"),
            NetError::Protocol(d) => write!(f, "protocol violation: {d}"),
            NetError::Remote { code, message } => write!(f, "server error {code:?}: {message}"),
            NetError::BadSignature => write!(f, "signature verification failed"),
            NetError::Exhausted(e) => write!(f, "retries exhausted: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::Io(e.kind(), e.to_string())
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> NetError {
        match e {
            FrameError::Truncated { got, expected } => NetError::Truncated { got, expected },
            other => NetError::Frame(other),
        }
    }
}

/// One successful code transfer, as observed by the client.
#[derive(Debug, Clone)]
pub struct NetTransfer {
    /// The URL that was fetched.
    pub url: String,
    /// Payload size after signature removal.
    pub bytes: usize,
    /// Which proxy tier satisfied the request.
    pub served_from: ServedFrom,
    /// Simulated proxy processing time in nanoseconds.
    pub processing_ns: u64,
    /// The `ir://` cache key for this payload's compiled-IR package
    /// (derived from the signed bytes as served; `None` for `ir://`
    /// fetches themselves).
    pub ir_key: Option<String>,
}

dvm_telemetry::counters! {
    /// Registered handles behind [`NetClientStats`]; `register` on a
    /// provider's plane reads the same counts as its `stats()`.
    pub struct NetClientCounters;
    /// Client-side transfer counts, read from the provider's telemetry
    /// plane. Their scope is the plane's: every provider sharing it
    /// (the per-shard connections of one cluster client) counts here.
    pub struct NetClientStats {
        /// Fetches attempted (one per `fetch` or `fetch_attempt` call).
        requests = "net.client.requests",
        /// Individual retry attempts after a transport failure.
        retries = "net.client.retries",
        /// Fresh connections established (first connect included).
        reconnects = "net.client.reconnects",
        /// Payloads whose signature failed to verify.
        signature_failures = "net.client.signature_failures",
        /// Payload bytes received (after signature removal).
        bytes_received = "net.client.bytes_received",
    }
}

/// A provider's telemetry handles, resolved once at construction.
struct NetClientMetrics {
    counters: NetClientCounters,
    backoff_ns: Arc<Counter>,
    overloads: Arc<Counter>,
    exhausted: Arc<Counter>,
    ir_requests: Arc<Counter>,
    ir_fetches: Arc<Counter>,
    fetch_ns: Arc<Histogram>,
}

impl NetClientMetrics {
    fn register(r: &Registry) -> NetClientMetrics {
        NetClientMetrics {
            counters: NetClientCounters::register(r),
            backoff_ns: r.counter("net.client.backoff_ns"),
            overloads: r.counter("net.client.overloads"),
            exhausted: r.counter("net.client.exhausted"),
            ir_requests: r.counter("net.client.ir_requests"),
            ir_fetches: r.counter("net.client.ir_fetches"),
            fetch_ns: r.histogram("net.client.fetch_ns"),
        }
    }
}

struct Conn {
    stream: TcpStream,
    session: u64,
}

/// The first address `addr` resolves to.
fn resolve(addr: impl ToSocketAddrs) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "no address resolved")
    })
}

/// A stream connected to `addr` with `config`'s timeouts and no Nagle
/// delay.
fn open_stream(addr: &SocketAddr, config: &NetConfig) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(addr, config.connect_timeout)?;
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// Connects to `addr` and performs the `HELLO`/`WELCOME` handshake; a
/// typed `ERROR` answer (an overloaded server) is [`NetError::Remote`].
fn handshake(addr: &SocketAddr, config: &NetConfig, hello: &Hello) -> Result<Conn, NetError> {
    let mut stream = open_stream(addr, config)?;
    Frame::Hello(hello.clone()).write_to(&mut stream)?;
    match Frame::read_from(&mut stream)? {
        Frame::Welcome { session } => Ok(Conn { stream, session }),
        Frame::Error { code, message, .. } => Err(NetError::Remote { code, message }),
        other => Err(NetError::Protocol(format!(
            "expected WELCOME, got {other:?}"
        ))),
    }
}

/// Observer invoked once per successful transfer.
pub type TransferHook = Box<dyn FnMut(&NetTransfer) + Send>;

/// Observer invoked with each fetched compiled-IR package: the class
/// name and the verified IR payload. Installed by `DvmClient`, which
/// decodes and installs the package into its VM's execution tier.
pub type IrHook = Box<dyn FnMut(&str, &[u8]) + Send>;

/// A `ClassProvider` fetching rewritten classes over TCP.
pub struct NetClassProvider {
    addr: SocketAddr,
    hello: Hello,
    config: NetConfig,
    signer: Option<Signer>,
    conn: Option<Conn>,
    next_request: u32,
    hook: Option<TransferHook>,
    ir_hook: Option<IrHook>,
    jitter: StdRng,
    telemetry: Arc<Telemetry>,
    metrics: NetClientMetrics,
}

impl std::fmt::Debug for NetClassProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClassProvider")
            .field("addr", &self.addr)
            .field("user", &self.hello.user)
            .field("connected", &self.conn.is_some())
            .finish()
    }
}

impl NetClassProvider {
    /// Creates a provider for the server at `addr`; the connection is
    /// established lazily on first use.
    ///
    /// `signer` holds the organization's key: when present, every
    /// payload must carry a valid signature or the fetch fails with
    /// [`NetError::BadSignature`].
    ///
    /// The provider counts on a plane of its own, `client:<user>`;
    /// [`NetClassProvider::new_on`] is the same provider on a caller's
    /// plane.
    pub fn new(
        addr: impl ToSocketAddrs,
        hello: Hello,
        signer: Option<Signer>,
        config: NetConfig,
    ) -> std::io::Result<NetClassProvider> {
        let telemetry = Arc::new(Telemetry::new(&format!("client:{}", hello.user)));
        NetClassProvider::new_on(addr, hello, signer, config, telemetry)
    }

    /// [`NetClassProvider::new`] counting on `telemetry` (a cluster
    /// client passes its one plane to every per-shard provider, so the
    /// client side reports as one node).
    pub fn new_on(
        addr: impl ToSocketAddrs,
        hello: Hello,
        signer: Option<Signer>,
        config: NetConfig,
        telemetry: Arc<Telemetry>,
    ) -> std::io::Result<NetClassProvider> {
        let addr = resolve(addr)?;
        let jitter = StdRng::seed_from_u64(config.jitter_seed ^ fnv1a(hello.user.as_bytes()));
        Ok(NetClassProvider {
            addr,
            hello,
            config,
            signer,
            conn: None,
            next_request: 1,
            hook: None,
            ir_hook: None,
            jitter,
            metrics: NetClientMetrics::register(telemetry.registry()),
            telemetry,
        })
    }

    /// This provider's telemetry plane (traces root here; counters for
    /// requests, retries, and backoffs land here).
    pub fn telemetry(&self) -> Arc<Telemetry> {
        self.telemetry.clone()
    }

    /// The deterministic jittered backoff before retry number `retry`:
    /// uniform in `[d/2, d]` where `d` is the capped exponential delay,
    /// drawn from this provider's seeded generator. Jitter breaks the
    /// lockstep a shared fault would otherwise impose on every client
    /// retrying with identical exponential schedules.
    fn jittered_backoff(&mut self, retry: u32) -> Duration {
        let full = self.config.backoff_for(retry);
        let ns = full.as_nanos() as u64;
        if ns == 0 {
            return full;
        }
        let low = ns / 2;
        Duration::from_nanos(low + self.jitter.gen_range(0..=(ns - low)))
    }

    /// Installs an observer called once per successful transfer (used by
    /// `DvmClient` to account network costs).
    pub fn set_transfer_hook(&mut self, hook: TransferHook) {
        self.hook = Some(hook);
    }

    /// Enables the optimizing-tier side channel: after every class
    /// fetch, the provider also requests the class's `ir://` package and
    /// feeds the verified payload to `hook`. A proxy without an IR
    /// producer answers `NOT_FOUND`, which is silently tolerated — the
    /// class simply stays on the interpreter tier.
    pub fn set_ir_hook(&mut self, hook: IrHook) {
        self.ir_hook = Some(hook);
    }

    /// The counts on this provider's plane.
    pub fn stats(&self) -> NetClientStats {
        self.metrics.counters.view()
    }

    /// The session id from the most recent handshake, if connected.
    pub fn session(&self) -> Option<u64> {
        self.conn.as_ref().map(|c| c.session)
    }

    /// Sends an orderly `BYE` and closes the connection.
    pub fn close(&mut self) {
        if let Some(mut conn) = self.conn.take() {
            let _ = Frame::Bye.write_to(&mut conn.stream);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    fn connect(&mut self) -> Result<(), NetError> {
        self.conn = Some(handshake(&self.addr, &self.config, &self.hello)?);
        self.metrics.counters.reconnects.inc();
        Ok(())
    }

    /// Fetches `url` through the proxy, retrying transport failures and
    /// typed overload rejections with jittered exponential backoff, and
    /// returns the verified payload.
    ///
    /// Every fetch is the root of a fresh distributed trace: a
    /// `client.fetch` span is recorded here and its context rides the
    /// `CODE_REQUEST` so the server's spans stitch under it.
    pub fn fetch(&mut self, url: &str) -> Result<(Vec<u8>, NetTransfer), NetError> {
        self.metrics.counters.requests.inc();
        let trace = TraceId::generate();
        let root = SpanId::generate();
        let recorder = self.telemetry.recorder();
        let start = recorder.now_ns();
        let ctx = TraceContext {
            trace,
            parent: root,
        };
        let result = self.fetch_with_retries(url, Some(ctx));
        let recorder = self.telemetry.recorder();
        let duration = recorder.now_ns().saturating_sub(start);
        recorder.record_span(trace, root, SpanId::NONE, "client.fetch", start, duration);
        self.metrics.fetch_ns.record(duration);
        result
    }

    fn fetch_with_retries(
        &mut self,
        url: &str,
        trace: Option<TraceContext>,
    ) -> Result<(Vec<u8>, NetTransfer), NetError> {
        let mut last: Option<NetError> = None;
        for retry in 0..self.config.max_attempts.max(1) {
            if retry > 0 {
                self.metrics.counters.retries.inc();
                let delay = self.jittered_backoff(retry - 1);
                self.metrics.backoff_ns.add(delay.as_nanos() as u64);
                std::thread::sleep(delay);
            }
            match self.fetch_once(url, trace) {
                Ok(ok) => return Ok(ok),
                Err(e) if e.is_retryable() => {
                    // The connection is suspect (dropped, or the server
                    // turned us away at the door); rebuild it next try.
                    self.conn = None;
                    if e.is_overload() {
                        self.metrics.overloads.inc();
                    }
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        self.metrics.exhausted.inc();
        Err(NetError::Exhausted(Box::new(
            last.unwrap_or(NetError::Protocol("no attempts made".into())),
        )))
    }

    /// One fetch attempt, no retries and no backoff: the building block
    /// a cluster client uses so a retryable failure (transport drop or
    /// typed overload) triggers immediate failover to another shard
    /// instead of a same-endpoint retry loop. The suspect connection is
    /// discarded so a later attempt reconnects cleanly.
    pub fn fetch_attempt(&mut self, url: &str) -> Result<(Vec<u8>, NetTransfer), NetError> {
        self.fetch_attempt_traced(url, None)
    }

    /// [`NetClassProvider::fetch_attempt`] carrying an existing trace
    /// context (the cluster client roots the trace itself so failover
    /// hops across shards stay in one trace).
    pub fn fetch_attempt_traced(
        &mut self,
        url: &str,
        trace: Option<TraceContext>,
    ) -> Result<(Vec<u8>, NetTransfer), NetError> {
        self.metrics.counters.requests.inc();
        match self.fetch_once(url, trace) {
            Ok(ok) => Ok(ok),
            Err(e) => {
                if e.is_retryable() {
                    self.conn = None;
                }
                Err(e)
            }
        }
    }

    fn fetch_once(
        &mut self,
        url: &str,
        trace: Option<TraceContext>,
    ) -> Result<(Vec<u8>, NetTransfer), NetError> {
        if self.conn.is_none() {
            self.connect()?;
        }
        let request_id = self.next_request;
        self.next_request = self.next_request.wrapping_add(1).max(1);
        let native_format = self.hello.native_format.clone();
        let conn = self.conn.as_mut().expect("connected above");
        Frame::CodeRequest {
            request_id,
            session: conn.session,
            url: url.to_owned(),
            native_format,
            trace,
        }
        .write_to(&mut conn.stream)?;
        match Frame::read_from(&mut conn.stream)? {
            Frame::CodeResponse {
                request_id: rid,
                served_from,
                processing_ns,
                mut bytes,
            } => {
                if rid != request_id {
                    return Err(NetError::Protocol(format!(
                        "response id {rid} for request {request_id}"
                    )));
                }
                // Derive the compiled-IR key from the bytes exactly as
                // served (signature included) — the same digest the
                // proxy keyed the package under at rewrite time.
                let ir_key = if url.starts_with(dvm_proxy::IR_SCHEME) {
                    None
                } else {
                    Some(dvm_proxy::ir_key(&bytes))
                };
                // A valid signature is a suffix: cut it off the decoded
                // buffer rather than copying the payload out.
                if let Some(signer) = &self.signer {
                    let (SignatureCheck::Valid, Some(payload)) = signer.detach(&bytes) else {
                        self.metrics.counters.signature_failures.inc();
                        return Err(NetError::BadSignature);
                    };
                    let len = payload.len();
                    bytes.truncate(len);
                }
                self.metrics.counters.bytes_received.add(bytes.len() as u64);
                let transfer = NetTransfer {
                    url: url.to_owned(),
                    bytes: bytes.len(),
                    served_from,
                    processing_ns,
                    ir_key,
                };
                if let Some(hook) = &mut self.hook {
                    hook(&transfer);
                }
                Ok((bytes, transfer))
            }
            Frame::Error {
                request_id: rid,
                code,
                message,
            } => {
                if rid != 0 && rid != request_id {
                    return Err(NetError::Protocol(format!(
                        "error for request {rid}, expected {request_id}"
                    )));
                }
                Err(NetError::Remote { code, message })
            }
            other => Err(NetError::Protocol(format!(
                "expected CODE_RESPONSE, got {other:?}"
            ))),
        }
    }
}

impl ClassProvider for NetClassProvider {
    fn load(&mut self, name: &str) -> Option<Vec<u8>> {
        let url = format!("class://{name}");
        let (bytes, transfer) = self.fetch(&url).ok()?;
        if self.ir_hook.is_some() {
            if let Some(key) = transfer.ir_key.clone() {
                self.metrics.ir_requests.inc();
                if let Ok((ir, _)) = self.fetch(&key) {
                    self.metrics.ir_fetches.inc();
                    if let Some(hook) = &mut self.ir_hook {
                        hook(name, &ir);
                    }
                }
            }
        }
        Some(bytes)
    }
}

/// Pulls a live server's telemetry over the stats plane: a `stats://`
/// read (`stats://?spans=1` with `include_spans`), decoded as a
/// `StatsReport`.
///
/// Any client of the wire protocol can do this against any
/// `ProxyServer` — it is how the fleet console and the cluster's
/// aggregation observe shards they did not start.
pub fn fetch_stats(
    addr: impl ToSocketAddrs,
    config: NetConfig,
    include_spans: bool,
) -> Result<StatsReport, NetError> {
    let url = if include_spans {
        "stats://?spans=1"
    } else {
        "stats://"
    };
    let report = read_plane(addr, &config, url.into())?;
    StatsReport::decode(&report)
        .map_err(|e| NetError::Protocol(format!("undecodable stats report: {e}")))
}

/// One request over a throwaway connection — how the observability
/// planes and ring pulls talk to a server: send `request`, read one
/// response, `BYE`. No `HELLO`: the server answers a `CODE_REQUEST` and
/// a `RING_UPDATE` without one, so a poller opens no console session. A
/// typed `ERROR` answer is [`NetError::Remote`].
pub fn request_once(
    addr: impl ToSocketAddrs,
    config: &NetConfig,
    request: Frame,
) -> Result<Frame, NetError> {
    let mut stream = open_stream(&resolve(addr)?, config)?;
    request.write_to(&mut stream)?;
    let reply = Frame::read_from(&mut stream)?;
    let _ = Frame::Bye.write_to(&mut stream);
    let _ = stream.shutdown(std::net::Shutdown::Both);
    match reply {
        Frame::Error { code, message, .. } => Err(NetError::Remote { code, message }),
        reply => Ok(reply),
    }
}

/// Reads one of a server's planes: a `CODE_REQUEST` for a plane `url`
/// over [`request_once`], returning the `CODE_RESPONSE` bytes.
fn read_plane(
    addr: impl ToSocketAddrs,
    config: &NetConfig,
    url: String,
) -> Result<Vec<u8>, NetError> {
    let request = Frame::CodeRequest {
        request_id: 1,
        session: 0,
        url,
        native_format: String::new(),
        trace: None,
    };
    match request_once(addr, config, request)? {
        Frame::CodeResponse {
            request_id: 1,
            bytes,
            ..
        } => Ok(bytes),
        other => Err(NetError::Protocol(format!(
            "expected CODE_RESPONSE 1, got {other:?}"
        ))),
    }
}

/// Scrapes a server's Prometheus-text metrics exposition over the wire
/// protocol (a `metrics://` read).
pub fn fetch_metrics_text(addr: impl ToSocketAddrs, config: NetConfig) -> Result<String, NetError> {
    String::from_utf8(read_plane(addr, &config, "metrics://".into())?)
        .map_err(|_| NetError::Protocol("exposition is not UTF-8".into()))
}

/// Tails a server's event journal with an `events://?after=N&max=M`
/// read: events with `seq > after_seq` (at most `max`, and at most
/// 1 024), plus the cursor to pass next time — the last event's `seq`,
/// or `after_seq` for an empty page. An unchanged cursor with no events
/// means the tail is caught up.
pub fn fetch_events(
    addr: impl ToSocketAddrs,
    config: NetConfig,
    after_seq: u64,
    max: u32,
) -> Result<(Vec<JournalEvent>, u64), NetError> {
    let url = format!("events://?after={after_seq}&max={max}");
    let events = decode_events(&read_plane(addr, &config, url)?)
        .map_err(|e| NetError::Protocol(format!("undecodable event batch: {e}")))?;
    let next_seq = events.last().map_or(after_seq, |e| e.seq);
    Ok((events, next_seq))
}

impl Drop for NetClassProvider {
    fn drop(&mut self) {
        self.close();
    }
}

/// Bytes of encoded `AUDIT_EVENT` frames a [`RemoteConsole`] buffers
/// before writing them (about 900 events), well under the server's
/// 64 KiB read-buffer limit.
const AUDIT_BATCH_BYTES: usize = 16 << 10;

/// Longest the oldest buffered audit event waits for its write; checked
/// each time another event is recorded.
const AUDIT_BATCH_DEADLINE: Duration = Duration::from_millis(2);

/// Encoded size of one `AUDIT_EVENT` frame (length prefix, tag, session,
/// site, kind). Every frame in a batch has this size, so the bytes a
/// failed write got out say exactly how many events it delivered.
const AUDIT_FRAME_LEN: usize = 18;

/// The events encoded in `frames`, a run of whole `AUDIT_EVENT` frames.
fn audit_events(frames: &[u8]) -> Vec<(SiteId, EventKind)> {
    frames
        .chunks_exact(AUDIT_FRAME_LEN)
        .filter_map(|frame| match Frame::decode(frame) {
            Ok((Frame::AuditEvent { site, kind, .. }, _)) => {
                Some((SiteId(site), kind_from_u8(kind)?))
            }
            _ => None,
        })
        .collect()
}

/// An [`AuditSink`] streaming events to the console over its own
/// connection.
///
/// Events are encoded into a buffer and written in one batch when it
/// holds 16 KiB, when its oldest event is older than 2 ms (checked as
/// the next one is recorded), on [`AuditSink::flush`] (which a
/// `DvmClient` calls before every class fetch and when a run returns),
/// and on [`RemoteConsole::close`] or drop. Each batch write counts into
/// `audit_batches_total`.
///
/// Delivery is fire-and-forget: a failed write triggers one reconnect
/// attempt and otherwise increments [`RemoteConsole::dropped`], because
/// auditing must never stall the mutator. Drops are *not* silent: each
/// one counts into the `audit_dropped_total` telemetry counter, and the
/// first failure on any given connection is logged to stderr so an
/// operator learns the audit trail has a hole without grepping metrics.
pub struct RemoteConsole {
    addr: SocketAddr,
    hello: Hello,
    config: NetConfig,
    conn: Option<Conn>,
    /// Encoded `AUDIT_EVENT` frames not yet written, oldest first.
    batch: Vec<u8>,
    /// When the oldest event in `batch` was recorded.
    batch_since: Instant,
    sent: u64,
    dropped: u64,
    /// Events diverted to the durable spool instead of being dropped.
    spooled: u64,
    /// Spooled events later delivered by a replay.
    replayed: u64,
    spool: Option<AuditSpool>,
    telemetry: Arc<Telemetry>,
    metrics: ConsoleMetrics,
    /// True once this connection's first delivery failure was logged
    /// (reset on reconnect, so each connection logs at most once).
    failure_logged: bool,
}

/// A console's `audit_*_total` handles, resolved once at connect.
struct ConsoleMetrics {
    batches: Arc<Counter>,
    dropped: Arc<Counter>,
    spooled: Arc<Counter>,
    replayed: Arc<Counter>,
}

impl std::fmt::Debug for RemoteConsole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteConsole")
            .field("addr", &self.addr)
            .field("sent", &self.sent)
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl RemoteConsole {
    /// Connects an audit channel to the server at `addr`, performing the
    /// handshake immediately so the session exists before any event.
    /// The console counts on a plane of its own, `audit:<user>`;
    /// [`RemoteConsole::connect_on`] is the same connect on a caller's
    /// plane.
    pub fn connect(
        addr: impl ToSocketAddrs,
        hello: Hello,
        config: NetConfig,
    ) -> Result<RemoteConsole, NetError> {
        let telemetry = Arc::new(Telemetry::new(&format!("audit:{}", hello.user)));
        RemoteConsole::connect_on(addr, hello, config, telemetry)
    }

    /// [`RemoteConsole::connect`] counting on `telemetry` (a DVM client
    /// passes its provider's plane, so audit drops land beside its
    /// fetch metrics).
    pub fn connect_on(
        addr: impl ToSocketAddrs,
        hello: Hello,
        config: NetConfig,
        telemetry: Arc<Telemetry>,
    ) -> Result<RemoteConsole, NetError> {
        let addr = resolve(addr)?;
        let r = telemetry.registry();
        let metrics = ConsoleMetrics {
            batches: r.counter("audit_batches_total"),
            dropped: r.counter("audit_dropped_total"),
            spooled: r.counter("audit_spooled_total"),
            replayed: r.counter("audit_replayed_total"),
        };
        let mut console = RemoteConsole {
            addr,
            hello,
            config,
            conn: None,
            batch: Vec::with_capacity(AUDIT_BATCH_BYTES + AUDIT_FRAME_LEN),
            batch_since: Instant::now(),
            sent: 0,
            dropped: 0,
            spooled: 0,
            replayed: 0,
            spool: None,
            telemetry,
            metrics,
            failure_logged: false,
        };
        console.reconnect()?;
        Ok(console)
    }

    /// This console's telemetry plane (`audit_dropped_total` and
    /// `audit_batches_total` live here).
    pub fn telemetry(&self) -> Arc<Telemetry> {
        self.telemetry.clone()
    }

    fn reconnect(&mut self) -> Result<(), NetError> {
        self.conn = Some(handshake(&self.addr, &self.config, &self.hello)?);
        self.failure_logged = false;
        Ok(())
    }

    /// The audit session id, if connected.
    pub fn session(&self) -> Option<u64> {
        self.conn.as_ref().map(|c| c.session)
    }

    /// Events whose whole frame the kernel accepted on the socket. Events
    /// still buffered are not counted yet: [`RemoteConsole::close`] first
    /// for a final tally.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Events abandoned after a failed write and reconnect.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Attaches a durable spool: from now on, events that fail to reach
    /// the console are persisted (in order) instead of dropped, and
    /// replayed — still in order — once the console answers again.
    /// Replayed events carry the session id of the connection that
    /// delivers them, not the one that failed; the console's log keys
    /// events by site, so ordering is what matters.
    pub fn set_spool(&mut self, spool: AuditSpool) {
        self.spool = Some(spool);
    }

    /// Events diverted into the spool so far.
    pub fn spooled(&self) -> u64 {
        self.spooled
    }

    /// Spooled events later delivered by a replay.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Events currently waiting in the spool.
    pub fn spool_backlog(&self) -> usize {
        self.spool.as_ref().map_or(0, |s| s.len())
    }

    /// Drains the spool through the current connection, oldest first,
    /// stopping at the first failed send. Returns how many delivered.
    fn drain_spool(&mut self) -> u64 {
        let Some(mut spool) = self.spool.take() else {
            return 0;
        };
        let delivered = spool
            .replay(|site, kind| self.try_send(site, kind))
            .unwrap_or(0);
        self.spool = Some(spool);
        if delivered > 0 {
            self.sent += delivered;
            self.replayed += delivered;
            self.metrics.replayed.add(delivered);
        }
        delivered
    }

    /// Spools `site`/`kind`, or reports `false` when there is no spool
    /// (or the spool itself fails) so the caller counts a drop.
    fn spool_event(&mut self, site: SiteId, kind: EventKind) -> bool {
        let pushed = match &mut self.spool {
            Some(spool) => spool.push(site, kind).is_ok(),
            None => false,
        };
        if pushed {
            self.spooled += 1;
            self.metrics.spooled.inc();
        }
        pushed
    }

    /// Writes the buffered events, then sends an orderly `BYE` and closes
    /// the channel.
    pub fn close(&mut self) {
        self.write_batch();
        if let Some(mut conn) = self.conn.take() {
            let _ = Frame::Bye.write_to(&mut conn.stream);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Writes the buffered events. Events whose frame the kernel accepted
    /// whole count as sent; after a failure the rest get one reconnect
    /// (behind any spool backlog), and what still did not go out is
    /// spooled or dropped. A delivered frame is never written twice.
    fn write_batch(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let mut done = self.write_frames(0);
        if done < self.batch.len() && self.reconnect().is_ok() {
            self.drain_spool();
            if self.spool_backlog() == 0 {
                // The rest were stamped with the dead connection's
                // session (or none); deliver them under the new one.
                let session = self.session().unwrap_or(0);
                let rest = audit_events(&self.batch[done..]);
                self.batch.truncate(done);
                for (site, kind) in rest {
                    Frame::AuditEvent {
                        session,
                        site: site.0,
                        kind: kind_to_u8(kind),
                    }
                    .encode_into(&mut self.batch);
                }
                done = self.write_frames(done);
            }
        }
        if done < self.batch.len() {
            self.spill(done);
        }
        self.batch.clear();
    }

    /// One write loop over `batch[from..]` (`from` is a frame boundary).
    /// Returns where the first frame the kernel did not accept whole
    /// starts; a cut frame cannot be finished on this stream, so the
    /// connection is then discarded and the peer drops the partial frame
    /// with it.
    fn write_frames(&mut self, from: usize) -> usize {
        let Some(conn) = self.conn.as_mut() else {
            return from;
        };
        self.metrics.batches.inc();
        let mut written = from;
        while written < self.batch.len() {
            match conn.stream.write(&self.batch[written..]) {
                Ok(0) => break,
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        let whole = (written - from) / AUDIT_FRAME_LEN;
        self.sent += whole as u64;
        let done = from + whole * AUDIT_FRAME_LEN;
        if done < self.batch.len() {
            self.conn = None;
        }
        done
    }

    /// Spools — or, with no spool attached, drops — the events in
    /// `batch[from..]`. Neither is silent: both are counted where the
    /// stats plane can see them, and the first failure per connection
    /// reaches stderr.
    fn spill(&mut self, from: usize) {
        let mut dropped = 0;
        for (site, kind) in audit_events(&self.batch[from..]) {
            if self.spool_event(site, kind) {
                if !self.failure_logged {
                    self.failure_logged = true;
                    eprintln!(
                        "dvm-net: console {} unreachable; audit events are spooling durably \
                         (site {}); they replay in order on reconnect",
                        self.addr, site.0
                    );
                }
                continue;
            }
            dropped += 1;
            if !self.failure_logged {
                self.failure_logged = true;
                eprintln!(
                    "dvm-net: audit event dropped (site {}, console {} unreachable); \
                     further drops on this connection are counted silently",
                    site.0, self.addr
                );
            }
        }
        if dropped > 0 {
            self.dropped += dropped;
            self.metrics.dropped.add(dropped);
        }
    }

    fn try_send(&mut self, site: SiteId, kind: EventKind) -> bool {
        let Some(conn) = self.conn.as_mut() else {
            return false;
        };
        let frame = Frame::AuditEvent {
            session: conn.session,
            site: site.0,
            kind: kind_to_u8(kind),
        };
        if frame.write_to(&mut conn.stream).is_err() {
            self.conn = None;
            return false;
        }
        true
    }
}

impl AuditSink for RemoteConsole {
    fn record(&mut self, site: SiteId, kind: EventKind) {
        // A backlog means earlier events are still queued; this event
        // must not overtake them. Try to drain first, and if anything
        // is still queued afterwards, append behind it.
        if self.spool_backlog() > 0 {
            if self.conn.is_none() {
                let _ = self.reconnect();
            }
            self.drain_spool();
            if self.spool_backlog() > 0 && self.spool_event(site, kind) {
                return;
            }
        }
        let now = Instant::now();
        if self.batch.is_empty() {
            self.batch_since = now;
        }
        Frame::AuditEvent {
            session: self.session().unwrap_or(0),
            site: site.0,
            kind: kind_to_u8(kind),
        }
        .encode_into(&mut self.batch);
        if self.batch.len() >= AUDIT_BATCH_BYTES || now - self.batch_since >= AUDIT_BATCH_DEADLINE {
            self.write_batch();
        }
    }

    /// Delivers the spool backlog, then the buffered events behind it.
    fn flush(&mut self) {
        if self.spool_backlog() > 0 && (self.conn.is_some() || self.reconnect().is_ok()) {
            self.drain_spool();
        }
        self.write_batch();
    }
}

impl Drop for RemoteConsole {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn provider(user: &str, seed: u64) -> NetClassProvider {
        let hello = Hello {
            user: user.to_owned(),
            ..Hello::default()
        };
        let config = NetConfig {
            jitter_seed: seed,
            ..NetConfig::default()
        };
        // 127.0.0.1:1 never answers; the connection is lazy, so a
        // provider can be built without a live server.
        NetClassProvider::new("127.0.0.1:1", hello, None, config).unwrap()
    }

    #[test]
    fn audit_drops_are_counted_not_silent() {
        // A one-shot console: handshakes once, then disappears.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            match Frame::read_from(&mut s).unwrap() {
                Frame::Hello(_) => {}
                other => panic!("expected HELLO, got {other:?}"),
            }
            Frame::Welcome { session: 7 }.write_to(&mut s).unwrap();
            s
        });
        let mut console =
            RemoteConsole::connect(addr, Hello::default(), NetConfig::default()).unwrap();
        assert_eq!(console.session(), Some(7));
        drop(server.join().unwrap()); // server stream AND listener gone

        // TCP death is detected lazily: early sends may land in the
        // socket buffer. Keep recording until the failed send (and the
        // failed reconnect behind it) registers as a drop.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while console.dropped() == 0 && std::time::Instant::now() < deadline {
            console.record(SiteId(1), EventKind::Enter);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(console.dropped() >= 1, "drop never registered");
        let snap = console.telemetry().registry().snapshot();
        assert_eq!(
            snap.counters.get("audit_dropped_total").copied(),
            Some(console.dropped()),
            "counter disagrees with the console's own accounting"
        );
    }

    #[test]
    fn spooled_audit_events_replay_in_order_on_a_new_console() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dvm-net-spool-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // Life 1: a console that handshakes and vanishes. Events spool.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = Frame::read_from(&mut s).unwrap(); // HELLO
            Frame::Welcome { session: 7 }.write_to(&mut s).unwrap();
            s
        });
        let mut console =
            RemoteConsole::connect(addr, Hello::default(), NetConfig::default()).unwrap();
        console.set_spool(AuditSpool::open(&dir).unwrap());
        drop(server.join().unwrap()); // stream AND listener gone

        // TCP death registers lazily; early sends may land in the
        // socket buffer. Spool three *known* events once it has.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while console.spooled() == 0 && std::time::Instant::now() < deadline {
            console.record(SiteId(0), EventKind::Enter);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(console.spooled() >= 1, "spooling never engaged");
        assert_eq!(console.dropped(), 0, "a spooled event is not a drop");
        for site in [101, 102, 103] {
            console.record(SiteId(site), EventKind::Event);
        }
        let backlog = console.spool_backlog();
        assert!(backlog >= 3);
        let snap = console.telemetry().registry().snapshot();
        assert_eq!(
            snap.counters.get("audit_spooled_total").copied(),
            Some(console.spooled())
        );
        drop(console); // SIGKILL-equivalent: the spool is on disk

        // Life 2: a live console at a fresh address; the recovered
        // spool must drain into it oldest-first.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr2 = listener.local_addr().unwrap();
        let collector = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = Frame::read_from(&mut s).unwrap(); // HELLO
            Frame::Welcome { session: 8 }.write_to(&mut s).unwrap();
            let mut sites = Vec::new();
            while let Ok(frame) = Frame::read_from(&mut s) {
                match frame {
                    Frame::AuditEvent { site, .. } => sites.push(site),
                    Frame::Bye => break,
                    _ => {}
                }
            }
            sites
        });
        let mut console =
            RemoteConsole::connect(addr2, Hello::default(), NetConfig::default()).unwrap();
        console.set_spool(AuditSpool::open(&dir).unwrap());
        assert_eq!(console.spool_backlog(), backlog, "spool survived the kill");
        console.flush();
        assert_eq!(console.spool_backlog(), 0, "flush drained the spool");
        assert_eq!(console.replayed(), backlog as u64);
        console.close();
        let sites = collector.join().unwrap();
        // Everything replayed, in order, with our three markers as the
        // most recent events.
        assert_eq!(sites.len(), backlog);
        assert_eq!(&sites[sites.len() - 3..], &[101, 102, 103]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Accepts one console connection and answers its HELLO.
    fn accept_console(listener: &std::net::TcpListener, session: u64) -> TcpStream {
        let (mut s, _) = listener.accept().unwrap();
        match Frame::read_from(&mut s).unwrap() {
            Frame::Hello(_) => {}
            other => panic!("expected HELLO, got {other:?}"),
        }
        Frame::Welcome { session }.write_to(&mut s).unwrap();
        s
    }

    /// `(session, site)` of every audit event on `s` until BYE or EOF.
    fn collect_events(s: &mut TcpStream) -> Vec<(u64, i32)> {
        let mut events = Vec::new();
        while let Ok(frame) = Frame::read_from(s) {
            match frame {
                Frame::AuditEvent { session, site, .. } => events.push((session, site)),
                Frame::Bye => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        events
    }

    #[test]
    fn audit_frame_len_matches_the_codec() {
        let frame = Frame::AuditEvent {
            session: u64::MAX,
            site: -1,
            kind: 2,
        };
        assert_eq!(frame.encode().len(), AUDIT_FRAME_LEN);
    }

    #[test]
    fn back_to_back_events_arrive_in_order_in_a_few_writes() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || collect_events(&mut accept_console(&listener, 7)));
        let mut console =
            RemoteConsole::connect(addr, Hello::default(), NetConfig::default()).unwrap();
        const N: usize = 1000;
        for site in 0..N as i32 {
            console.record(SiteId(site), EventKind::Enter);
        }
        console.close();
        assert_eq!(console.sent(), N as u64);
        let events = server.join().unwrap();
        assert_eq!(events, (0..N as i32).map(|s| (7, s)).collect::<Vec<_>>());
        let writes = console
            .telemetry()
            .registry()
            .snapshot()
            .counter("audit_batches_total");
        let bound = (N * AUDIT_FRAME_LEN).div_ceil(AUDIT_BATCH_BYTES) as u64 + 2;
        assert!(
            writes <= bound,
            "{writes} writes for {N} events, bound {bound}"
        );
        assert!(writes as f64 / console.sent() as f64 <= 0.1);
    }

    #[test]
    fn a_peer_dying_mid_batch_loses_no_count_and_duplicates_nothing() {
        // Life 1 reads part of the first batch and hangs up with the
        // rest unread; life 2 takes the console's one reconnect.
        const READ_BEFORE_CUT: usize = 300;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (cut_tx, cut_rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            let mut s = accept_console(&listener, 1);
            let mut events = Vec::new();
            while events.len() < READ_BEFORE_CUT {
                match Frame::read_from(&mut s).unwrap() {
                    Frame::AuditEvent { session, site, .. } => events.push((session, site)),
                    other => panic!("unexpected {other:?}"),
                }
            }
            drop(s);
            cut_tx.send(()).unwrap();
            events.extend(collect_events(&mut accept_console(&listener, 2)));
            events
        });
        let mut console =
            RemoteConsole::connect(addr, Hello::default(), NetConfig::default()).unwrap();
        let mut recorded = 0;
        let mut record = |console: &mut RemoteConsole, n: i32| {
            for _ in 0..n {
                console.record(SiteId(recorded), EventKind::Enter);
                recorded += 1;
            }
            console.flush();
        };
        record(&mut console, 1000);
        cut_rx.recv().unwrap();
        // The dead stream surfaces on some later write; then the rest of
        // that batch goes out on the new connection.
        let deadline = Instant::now() + Duration::from_secs(5);
        while console.session() != Some(2) && Instant::now() < deadline {
            record(&mut console, 100);
        }
        assert_eq!(console.session(), Some(2), "the console never reconnected");
        record(&mut console, 100);
        console.close();
        let recorded = recorded as u64;

        assert_eq!(
            console.sent() + console.spooled() + console.dropped(),
            recorded
        );
        let events = server.join().unwrap();
        let sites: Vec<i32> = events.iter().map(|&(_, site)| site).collect();
        assert!(
            sites.windows(2).all(|w| w[0] < w[1]),
            "a site arrived twice or out of order"
        );
        assert!(events.len() as u64 <= console.sent());
        assert_eq!(&sites[..READ_BEFORE_CUT], &(0..300).collect::<Vec<_>>()[..]);
        let after: Vec<_> = events[READ_BEFORE_CUT..].iter().collect();
        assert!(!after.is_empty() && after.iter().all(|&&(session, _)| session == 2));
        assert_eq!(sites.last(), Some(&(recorded as i32 - 1)));
    }

    #[test]
    fn jitter_is_deterministic_per_user_and_bounded() {
        let schedule = |user: &str, seed: u64| -> Vec<Duration> {
            let mut p = provider(user, seed);
            (0..6).map(|r| p.jittered_backoff(r)).collect()
        };
        // Same (seed, user): identical replay.
        assert_eq!(schedule("alice", 7), schedule("alice", 7));
        // Different users (or seeds) decorrelate.
        assert_ne!(schedule("alice", 7), schedule("bob", 7));
        assert_ne!(schedule("alice", 7), schedule("alice", 8));
        // Every delay stays within [d/2, d] of the exponential schedule.
        let mut p = provider("carol", 42);
        let config = p.config;
        for r in 0..8 {
            let d = config.backoff_for(r);
            let j = p.jittered_backoff(r);
            assert!(
                j >= d / 2 && j <= d,
                "retry {r}: {j:?} outside [{:?}, {d:?}]",
                d / 2
            );
        }
    }

    #[test]
    fn overload_errors_are_retryable_but_not_transport() {
        let e = NetError::Remote {
            code: ErrorCode::Overloaded,
            message: "full".into(),
        };
        assert!(e.is_overload());
        assert!(e.is_retryable());
        assert!(!e.is_transport());
        let wrapped = NetError::Exhausted(Box::new(e));
        assert!(wrapped.is_overload());
        let not = NetError::Remote {
            code: ErrorCode::NotFound,
            message: "nope".into(),
        };
        assert!(!not.is_retryable());
    }

    #[test]
    fn integrity_failures_are_retryable_but_not_transport() {
        // A corrupted or desynchronized stream: retry on a fresh
        // connection, where verification gates delivery again.
        for e in [
            NetError::BadSignature,
            NetError::Protocol("response id 9 for request 3".into()),
            NetError::Frame(FrameError::Malformed("trailing bytes".into())),
            NetError::Frame(FrameError::UnknownTag(0x7F)),
            NetError::Frame(FrameError::BadLength(u32::MAX as u64)),
        ] {
            assert!(e.is_integrity(), "{e}");
            assert!(e.is_retryable(), "{e}");
            assert!(!e.is_transport(), "{e}");
        }
        // Mid-frame truncation is transport-class, not integrity.
        let t = NetError::Truncated {
            got: 7,
            expected: Some(64),
        };
        assert!(t.is_transport() && t.is_retryable() && !t.is_integrity());
        // Typed remote answers are neither.
        let remote = NetError::Remote {
            code: ErrorCode::Filter,
            message: "rejected".into(),
        };
        assert!(!remote.is_integrity() && !remote.is_retryable());
    }
}
