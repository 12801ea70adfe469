//! The DVM wire protocol: length-prefixed binary frames.
//!
//! Layout on the wire (all integers big-endian):
//!
//! ```text
//! +----------------+---------+------------------+
//! | len: u32       | tag: u8 | payload          |
//! +----------------+---------+------------------+
//! ```
//!
//! `len` counts the tag byte plus the payload and is bounded by
//! [`MAX_FRAME_LEN`]; a violated bound, an unknown tag, or a payload that
//! does not parse to its declared end is a [`FrameError`] — never a
//! panic. Strings are `u16`-length-prefixed UTF-8; byte blobs are
//! `u32`-length-prefixed.
//!
//! The protocol is deliberately from scratch in pure std: building the
//! substrate rather than importing it is this reproduction's style, and
//! the frame grammar is small enough to verify exhaustively (see the
//! round-trip property tests).

use std::io::{self, Read, Write};

use dvm_monitor::EventKind;
use dvm_proxy::ServedFrom;
use dvm_telemetry::{SpanId, TraceContext, TraceId};

/// Upper bound on `len` (tag + payload): 16 MiB, comfortably above the
/// largest signed applet while rejecting nonsense lengths early.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Frame tags (the `u8` after the length prefix).
mod tag {
    pub const HELLO: u8 = 0x01;
    pub const WELCOME: u8 = 0x02;
    pub const CODE_REQUEST: u8 = 0x03;
    pub const CODE_RESPONSE: u8 = 0x04;
    pub const ERROR: u8 = 0x05;
    pub const AUDIT_EVENT: u8 = 0x06;
    pub const BYE: u8 = 0x07;
    pub const PEER_GET: u8 = 0x08;
    pub const PEER_PUT: u8 = 0x09;
    pub const STATS_REQUEST: u8 = 0x0A;
    pub const STATS_RESPONSE: u8 = 0x0B;
    pub const RING_UPDATE: u8 = 0x0C;
    pub const MIGRATE_BEGIN: u8 = 0x0D;
    pub const MIGRATE_CHUNK: u8 = 0x0E;
    pub const MIGRATE_END: u8 = 0x0F;
    pub const METRICS_SCRAPE: u8 = 0x10;
    pub const METRICS_TEXT: u8 = 0x11;
    pub const EVENTS_REQUEST: u8 = 0x12;
    pub const EVENTS_RESPONSE: u8 = 0x13;
}

/// Typed error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The origin has no such resource.
    NotFound,
    /// The resource is not a parseable class file.
    Parse,
    /// A static-service filter rejected the class.
    Filter,
    /// The peer sent a frame this endpoint cannot understand.
    Malformed,
    /// The server is at its connection or load limit.
    Overloaded,
    /// Any other server-side failure.
    Internal,
    /// A `PEER_GET` probe found nothing in this shard's cache (not a
    /// client-visible failure: the asking shard falls back to its own
    /// rewrite).
    CacheMiss,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::NotFound => 0,
            ErrorCode::Parse => 1,
            ErrorCode::Filter => 2,
            ErrorCode::Malformed => 3,
            ErrorCode::Overloaded => 4,
            ErrorCode::Internal => 5,
            ErrorCode::CacheMiss => 6,
        }
    }

    fn from_u8(b: u8) -> Result<ErrorCode, FrameError> {
        Ok(match b {
            0 => ErrorCode::NotFound,
            1 => ErrorCode::Parse,
            2 => ErrorCode::Filter,
            3 => ErrorCode::Malformed,
            4 => ErrorCode::Overloaded,
            5 => ErrorCode::Internal,
            6 => ErrorCode::CacheMiss,
            other => {
                dvm_fuzz::cov!("frame.error_code.bad");
                return Err(FrameError::malformed(format!("error code {other}")));
            }
        })
    }
}

/// Wire encoding of an audit [`EventKind`]: 0 = Enter, 1 = Exit,
/// 2 = Event.
pub fn kind_to_u8(kind: EventKind) -> u8 {
    match kind {
        EventKind::Enter => 0,
        EventKind::Exit => 1,
        EventKind::Event => 2,
    }
}

/// Inverse of [`kind_to_u8`]; `None` for bytes outside the mapping.
pub fn kind_from_u8(b: u8) -> Option<EventKind> {
    match b {
        0 => Some(EventKind::Enter),
        1 => Some(EventKind::Exit),
        2 => Some(EventKind::Event),
        _ => None,
    }
}

/// The client handshake payload: who is connecting and what native
/// format it wants (the §3.3 handshake, on the wire).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Hello {
    /// User credentials (authenticated upstream).
    pub user: String,
    /// Principal the fetched code will run as.
    pub principal: String,
    /// Hardware description, e.g. `"x86/200MHz/64MB"`.
    pub hardware: String,
    /// Native code format, recorded by the console; the network
    /// compiler ships one portable IR regardless.
    pub native_format: String,
    /// JVM implementation version string.
    pub jvm_version: String,
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: open a session.
    Hello(Hello),
    /// Server → client: session granted.
    Welcome {
        /// Monitoring session id assigned by the console.
        session: u64,
    },
    /// Client → server: fetch (and rewrite) the code at `url`.
    CodeRequest {
        /// Client-chosen id echoed in the response.
        request_id: u32,
        /// Session from the handshake.
        session: u64,
        /// Resource URL.
        url: String,
        /// Native-format descriptor (ahead-of-time compilation hint).
        native_format: String,
        /// Distributed-trace context: present when the client wants the
        /// server's spans stitched into its trace. Optional on the wire
        /// (a flag byte), so untraced requests cost two extra bytes.
        trace: Option<TraceContext>,
    },
    /// Server → client: the rewritten (and possibly signed) bytes.
    CodeResponse {
        /// Echo of the request id.
        request_id: u32,
        /// Which proxy tier satisfied the request.
        served_from: ServedFrom,
        /// Simulated proxy processing time in nanoseconds.
        processing_ns: u64,
        /// Class bytes, signature attached when the proxy signs.
        bytes: Vec<u8>,
    },
    /// Server → client: typed failure (`request_id` zero when the error
    /// is not tied to one request).
    Error {
        /// Echo of the request id, or zero.
        request_id: u32,
        /// Failure category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Client → server: one monitor event for the console's audit log.
    AuditEvent {
        /// Session from the handshake.
        session: u64,
        /// Instrumentation site.
        site: i32,
        /// Event kind: 0 enter, 1 exit, 2 generic.
        kind: u8,
    },
    /// Shard → shard: probe the receiving shard's rewrite cache for
    /// `url` (the cluster cache-fill protocol; answered with
    /// `CODE_RESPONSE` on a hit, `ERROR`/`CacheMiss` on a miss).
    PeerGet {
        /// Sender-chosen id echoed in the response.
        request_id: u32,
        /// Resource URL being probed.
        url: String,
    },
    /// Shard → shard: offer freshly rewritten (signed) bytes to the
    /// url's home shard. Fire-and-forget; never answered.
    PeerPut {
        /// Resource URL the bytes rewrite.
        url: String,
        /// The signed rewrite output.
        bytes: Vec<u8>,
    },
    /// Any client → server: pull the server's live telemetry (the stats
    /// plane). Answered with `STATS_RESPONSE`.
    StatsRequest {
        /// Sender-chosen id echoed in the response.
        request_id: u32,
        /// When false, the server omits the span dump (metrics only) —
        /// cheap enough to poll.
        include_spans: bool,
    },
    /// Server → client: the serialized `dvm_telemetry::StatsReport` for
    /// this server's node. Opaque bytes at the frame layer so the wire
    /// protocol does not re-state the report grammar.
    StatsResponse {
        /// Echo of the request id.
        request_id: u32,
        /// `StatsReport::encode()` output.
        report: Vec<u8>,
    },
    /// Either direction: membership epoch exchange. A client (or peer
    /// shard) sends the epoch it is routing with and an empty `ring`;
    /// the server answers with the same tag carrying its current epoch
    /// and — when the asker is behind — the encoded ring snapshot
    /// (`dvm_cluster::RingSnapshot` bytes, opaque at this layer). An
    /// up-to-date asker gets the epoch back with `ring` empty.
    RingUpdate {
        /// Sender's current epoch (request) or the server's (response).
        epoch: u64,
        /// Encoded ring snapshot; empty when no update is needed or
        /// when asking.
        ring: Vec<u8>,
    },
    /// Shard → shard: start (or resume) pulling the keys the *sending*
    /// shard now owns out of the receiving shard's cache. Answered with
    /// a stream of `MIGRATE_CHUNK` frames and one `MIGRATE_END`.
    MigrateBegin {
        /// Sender-chosen id echoed on every chunk and the end marker.
        request_id: u32,
        /// The epoch whose remap plan justifies this transfer; the
        /// source rejects epochs it has not reached.
        epoch: u64,
        /// The requesting (target) shard id — the source streams only
        /// keys this shard owns under its current ring.
        shard: u32,
        /// Exclusive lower bound for resumption after a cut stream:
        /// empty to start from the beginning, else the last key already
        /// ingested.
        resume_from: String,
    },
    /// Shard → shard: one migrated cache entry. The wire format carries
    /// an MD5 digest of `bytes` that `encode` computes and `decode`
    /// re-checks — a corrupted value surfaces as a typed
    /// [`FrameError::Malformed`] at the frame layer, before ingest.
    MigrateChunk {
        /// Echo of the `MIGRATE_BEGIN` request id.
        request_id: u32,
        /// Zero-based chunk sequence number within this transfer.
        seq: u32,
        /// The cache key (resource URL).
        url: String,
        /// The signed cached value.
        bytes: Vec<u8>,
    },
    /// Shard → shard: the migration stream is done (or was cut short by
    /// the source with `complete: false`, telling the target to resume).
    MigrateEnd {
        /// Echo of the `MIGRATE_BEGIN` request id.
        request_id: u32,
        /// Chunks sent in this stream.
        total: u32,
        /// True when every owned key at or after `resume_from` was
        /// sent; false when the source truncated the batch (the target
        /// re-issues `MIGRATE_BEGIN` with the last key it saw).
        complete: bool,
    },
    /// Client → server: ask for the Prometheus-text metrics exposition
    /// (the same body the HTTP `GET /metrics` listener serves), so wire
    /// tooling can scrape a shard without a second port.
    MetricsScrape {
        /// Sender-chosen id echoed in the response.
        request_id: u32,
    },
    /// Server → client: the exposition text. Opaque bytes at the frame
    /// layer — the frame grammar does not re-state the text format.
    MetricsText {
        /// Echo of the request id.
        request_id: u32,
        /// UTF-8 Prometheus-text exposition.
        text: Vec<u8>,
    },
    /// Client → server: tail the server's event journal with a cursor.
    EventsRequest {
        /// Sender-chosen id echoed in the response.
        request_id: u32,
        /// Return only events with sequence numbers beyond this (0 for
        /// everything retained).
        after_seq: u64,
        /// Upper bound on events returned.
        max: u32,
    },
    /// Server → client: one page of journal events. The payload is the
    /// `dvm_telemetry::events` batch encoding, opaque at this layer
    /// (the same pattern as [`Frame::StatsResponse`]).
    EventsResponse {
        /// Echo of the request id.
        request_id: u32,
        /// Cursor to pass as `after_seq` next time (the last sequence
        /// in this page, or the echoed cursor when the page is empty).
        next_seq: u64,
        /// `dvm_telemetry::events::encode_events()` output.
        events: Vec<u8>,
    },
    /// Either direction: orderly shutdown of the connection.
    Bye,
}

/// A frame that could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Length prefix outside `1..=MAX_FRAME_LEN`.
    BadLength(u64),
    /// Unknown frame tag.
    UnknownTag(u8),
    /// Payload failed structural validation.
    Malformed(String),
    /// The stream ended *inside* a frame: some of the length prefix or
    /// body arrived and then the connection closed. Distinct from
    /// [`FrameError::Io`] with a clean EOF between frames — a truncation
    /// means the peer (or the link) died mid-message, and whatever was
    /// received must not be mistaken for a complete answer.
    Truncated {
        /// Bytes of the frame that did arrive (prefix included).
        got: usize,
        /// Bytes the frame declared (prefix included), when the length
        /// prefix itself arrived intact; `None` when the cut fell inside
        /// the prefix.
        expected: Option<usize>,
    },
    /// The underlying transport failed (includes clean EOF between
    /// frames).
    Io(io::ErrorKind, String),
}

impl FrameError {
    fn malformed(detail: impl Into<String>) -> FrameError {
        FrameError::Malformed(detail.into())
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadLength(n) => write!(f, "frame length {n} out of bounds"),
            FrameError::UnknownTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            FrameError::Malformed(d) => write!(f, "malformed frame: {d}"),
            FrameError::Truncated { got, expected } => match expected {
                Some(want) => write!(f, "frame truncated mid-stream: {got} of {want} bytes"),
                None => write!(f, "frame truncated inside the length prefix: {got} bytes"),
            },
            FrameError::Io(kind, e) => write!(f, "transport ({kind:?}): {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e.kind(), e.to_string())
    }
}

impl FrameError {
    /// True when the failure came from the transport rather than the
    /// frame grammar — the class of error a client may retry. A mid-frame
    /// truncation is transport-class: the message was cut by the link,
    /// not malformed by the sender.
    pub fn is_transport(&self) -> bool {
        matches!(self, FrameError::Io(..) | FrameError::Truncated { .. })
    }
}

fn served_from_to_u8(s: ServedFrom) -> u8 {
    match s {
        ServedFrom::Rewritten => 0,
        ServedFrom::MemoryCache => 1,
        ServedFrom::DiskCache => 2,
        ServedFrom::Peer => 3,
    }
}

fn served_from_from_u8(b: u8) -> Result<ServedFrom, FrameError> {
    Ok(match b {
        0 => ServedFrom::Rewritten,
        1 => ServedFrom::MemoryCache,
        2 => ServedFrom::DiskCache,
        3 => ServedFrom::Peer,
        other => {
            dvm_fuzz::cov!("frame.served_from.bad");
            return Err(FrameError::malformed(format!("served-from tier {other}")));
        }
    })
}

// ---- payload encoding helpers ----------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize, "string field too long");
    put_u16(out, s.len().min(u16::MAX as usize) as u16);
    out.extend_from_slice(&s.as_bytes()[..s.len().min(u16::MAX as usize)]);
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Bounds-checked payload cursor.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                dvm_fuzz::cov!("frame.cursor.short");
                FrameError::malformed("payload truncated")
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i32(&mut self) -> Result<i32, FrameError> {
        Ok(i32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, FrameError> {
        let len = self.u16()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| {
            dvm_fuzz::cov!("frame.cursor.utf8");
            FrameError::malformed("invalid UTF-8")
        })
    }

    fn bytes(&mut self) -> Result<Vec<u8>, FrameError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn finish(&self) -> Result<(), FrameError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            dvm_fuzz::cov!("frame.cursor.trailing");
            Err(FrameError::malformed("trailing bytes after payload"))
        }
    }
}

impl Frame {
    /// Serializes the frame, length prefix included.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the frame, length prefix included, to `out`: a batch of
    /// frames builds up in one buffer with no allocation per frame.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; 4]);
        let body = &mut *out;
        match self {
            Frame::Hello(h) => {
                body.push(tag::HELLO);
                put_str(body, &h.user);
                put_str(body, &h.principal);
                put_str(body, &h.hardware);
                put_str(body, &h.native_format);
                put_str(body, &h.jvm_version);
            }
            Frame::Welcome { session } => {
                body.push(tag::WELCOME);
                put_u64(body, *session);
            }
            Frame::CodeRequest {
                request_id,
                session,
                url,
                native_format,
                trace,
            } => {
                body.push(tag::CODE_REQUEST);
                put_u32(body, *request_id);
                put_u64(body, *session);
                put_str(body, url);
                put_str(body, native_format);
                match trace {
                    Some(t) => {
                        body.push(1);
                        put_u64(body, t.trace.0);
                        put_u64(body, t.parent.0);
                    }
                    None => body.push(0),
                }
            }
            Frame::CodeResponse {
                request_id,
                served_from,
                processing_ns,
                bytes,
            } => {
                body.push(tag::CODE_RESPONSE);
                put_u32(body, *request_id);
                body.push(served_from_to_u8(*served_from));
                put_u64(body, *processing_ns);
                put_bytes(body, bytes);
            }
            Frame::Error {
                request_id,
                code,
                message,
            } => {
                body.push(tag::ERROR);
                put_u32(body, *request_id);
                body.push(code.to_u8());
                put_str(body, message);
            }
            Frame::AuditEvent {
                session,
                site,
                kind,
            } => {
                body.push(tag::AUDIT_EVENT);
                put_u64(body, *session);
                body.extend_from_slice(&site.to_be_bytes());
                body.push(*kind);
            }
            Frame::PeerGet { request_id, url } => {
                body.push(tag::PEER_GET);
                put_u32(body, *request_id);
                put_str(body, url);
            }
            Frame::PeerPut { url, bytes } => {
                body.push(tag::PEER_PUT);
                put_str(body, url);
                put_bytes(body, bytes);
            }
            Frame::StatsRequest {
                request_id,
                include_spans,
            } => {
                body.push(tag::STATS_REQUEST);
                put_u32(body, *request_id);
                body.push(u8::from(*include_spans));
            }
            Frame::StatsResponse { request_id, report } => {
                body.push(tag::STATS_RESPONSE);
                put_u32(body, *request_id);
                put_bytes(body, report);
            }
            Frame::RingUpdate { epoch, ring } => {
                body.push(tag::RING_UPDATE);
                put_u64(body, *epoch);
                put_bytes(body, ring);
            }
            Frame::MigrateBegin {
                request_id,
                epoch,
                shard,
                resume_from,
            } => {
                body.push(tag::MIGRATE_BEGIN);
                put_u32(body, *request_id);
                put_u64(body, *epoch);
                put_u32(body, *shard);
                put_str(body, resume_from);
            }
            Frame::MigrateChunk {
                request_id,
                seq,
                url,
                bytes,
            } => {
                body.push(tag::MIGRATE_CHUNK);
                put_u32(body, *request_id);
                put_u32(body, *seq);
                put_str(body, url);
                body.extend_from_slice(&dvm_proxy::md5::md5(bytes));
                put_bytes(body, bytes);
            }
            Frame::MigrateEnd {
                request_id,
                total,
                complete,
            } => {
                body.push(tag::MIGRATE_END);
                put_u32(body, *request_id);
                put_u32(body, *total);
                body.push(u8::from(*complete));
            }
            Frame::MetricsScrape { request_id } => {
                body.push(tag::METRICS_SCRAPE);
                put_u32(body, *request_id);
            }
            Frame::MetricsText { request_id, text } => {
                body.push(tag::METRICS_TEXT);
                put_u32(body, *request_id);
                put_bytes(body, text);
            }
            Frame::EventsRequest {
                request_id,
                after_seq,
                max,
            } => {
                body.push(tag::EVENTS_REQUEST);
                put_u32(body, *request_id);
                put_u64(body, *after_seq);
                put_u32(body, *max);
            }
            Frame::EventsResponse {
                request_id,
                next_seq,
                events,
            } => {
                body.push(tag::EVENTS_RESPONSE);
                put_u32(body, *request_id);
                put_u64(body, *next_seq);
                put_bytes(body, events);
            }
            Frame::Bye => body.push(tag::BYE),
        }
        let len = out.len() - start - 4;
        debug_assert!(len <= MAX_FRAME_LEN);
        out[start..start + 4].copy_from_slice(&(len as u32).to_be_bytes());
    }

    /// Decodes one frame body (tag + payload, the length prefix already
    /// consumed and validated).
    pub fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
        let mut c = Cursor::new(body);
        let frame = match c.u8()? {
            tag::HELLO => {
                dvm_fuzz::cov!("frame.tag.hello");
                Frame::Hello(Hello {
                    user: c.string()?,
                    principal: c.string()?,
                    hardware: c.string()?,
                    native_format: c.string()?,
                    jvm_version: c.string()?,
                })
            }
            tag::WELCOME => {
                dvm_fuzz::cov!("frame.tag.welcome");
                Frame::Welcome { session: c.u64()? }
            }
            tag::CODE_REQUEST => {
                dvm_fuzz::cov!("frame.tag.code_request");
                let request_id = c.u32()?;
                let session = c.u64()?;
                let url = c.string()?;
                let native_format = c.string()?;
                let trace = match c.u8()? {
                    0 => None,
                    1 => {
                        dvm_fuzz::cov!("frame.code_request.traced");
                        Some(TraceContext {
                            trace: TraceId(c.u64()?),
                            parent: SpanId(c.u64()?),
                        })
                    }
                    other => {
                        dvm_fuzz::cov!("frame.code_request.bad_flag");
                        return Err(FrameError::malformed(format!("trace flag {other}")));
                    }
                };
                Frame::CodeRequest {
                    request_id,
                    session,
                    url,
                    native_format,
                    trace,
                }
            }
            tag::CODE_RESPONSE => {
                dvm_fuzz::cov!("frame.tag.code_response");
                Frame::CodeResponse {
                    request_id: c.u32()?,
                    served_from: served_from_from_u8(c.u8()?)?,
                    processing_ns: c.u64()?,
                    bytes: c.bytes()?,
                }
            }
            tag::ERROR => {
                dvm_fuzz::cov!("frame.tag.error");
                Frame::Error {
                    request_id: c.u32()?,
                    code: ErrorCode::from_u8(c.u8()?)?,
                    message: c.string()?,
                }
            }
            tag::AUDIT_EVENT => {
                dvm_fuzz::cov!("frame.tag.audit_event");
                let session = c.u64()?;
                let site = c.i32()?;
                let kind = c.u8()?;
                if kind > 2 {
                    dvm_fuzz::cov!("frame.audit.bad_kind");
                    return Err(FrameError::malformed(format!("audit kind {kind}")));
                }
                Frame::AuditEvent {
                    session,
                    site,
                    kind,
                }
            }
            tag::PEER_GET => {
                dvm_fuzz::cov!("frame.tag.peer_get");
                Frame::PeerGet {
                    request_id: c.u32()?,
                    url: c.string()?,
                }
            }
            tag::PEER_PUT => {
                dvm_fuzz::cov!("frame.tag.peer_put");
                Frame::PeerPut {
                    url: c.string()?,
                    bytes: c.bytes()?,
                }
            }
            tag::STATS_REQUEST => {
                dvm_fuzz::cov!("frame.tag.stats_request");
                let request_id = c.u32()?;
                let include_spans = match c.u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        dvm_fuzz::cov!("frame.stats.bad_flag");
                        return Err(FrameError::malformed(format!("stats flag {other}")));
                    }
                };
                Frame::StatsRequest {
                    request_id,
                    include_spans,
                }
            }
            tag::STATS_RESPONSE => {
                dvm_fuzz::cov!("frame.tag.stats_response");
                Frame::StatsResponse {
                    request_id: c.u32()?,
                    report: c.bytes()?,
                }
            }
            tag::RING_UPDATE => {
                dvm_fuzz::cov!("frame.tag.ring_update");
                Frame::RingUpdate {
                    epoch: c.u64()?,
                    ring: c.bytes()?,
                }
            }
            tag::MIGRATE_BEGIN => {
                dvm_fuzz::cov!("frame.tag.migrate_begin");
                Frame::MigrateBegin {
                    request_id: c.u32()?,
                    epoch: c.u64()?,
                    shard: c.u32()?,
                    resume_from: c.string()?,
                }
            }
            tag::MIGRATE_CHUNK => {
                dvm_fuzz::cov!("frame.tag.migrate_chunk");
                let request_id = c.u32()?;
                let seq = c.u32()?;
                let url = c.string()?;
                let digest: [u8; 16] = c.take(16)?.try_into().unwrap();
                let bytes = c.bytes()?;
                if dvm_proxy::md5::md5(&bytes) != digest {
                    dvm_fuzz::cov!("frame.migrate.digest_mismatch");
                    return Err(FrameError::malformed(format!(
                        "migrate chunk digest mismatch for {url}"
                    )));
                }
                dvm_fuzz::cov!("frame.migrate.digest_ok");
                Frame::MigrateChunk {
                    request_id,
                    seq,
                    url,
                    bytes,
                }
            }
            tag::MIGRATE_END => {
                dvm_fuzz::cov!("frame.tag.migrate_end");
                let request_id = c.u32()?;
                let total = c.u32()?;
                let complete = match c.u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        dvm_fuzz::cov!("frame.migrate_end.bad_flag");
                        return Err(FrameError::malformed(format!("end flag {other}")));
                    }
                };
                Frame::MigrateEnd {
                    request_id,
                    total,
                    complete,
                }
            }
            tag::METRICS_SCRAPE => {
                dvm_fuzz::cov!("frame.tag.metrics_scrape");
                Frame::MetricsScrape {
                    request_id: c.u32()?,
                }
            }
            tag::METRICS_TEXT => {
                dvm_fuzz::cov!("frame.tag.metrics_text");
                Frame::MetricsText {
                    request_id: c.u32()?,
                    text: c.bytes()?,
                }
            }
            tag::EVENTS_REQUEST => {
                dvm_fuzz::cov!("frame.tag.events_request");
                Frame::EventsRequest {
                    request_id: c.u32()?,
                    after_seq: c.u64()?,
                    max: c.u32()?,
                }
            }
            tag::EVENTS_RESPONSE => {
                dvm_fuzz::cov!("frame.tag.events_response");
                Frame::EventsResponse {
                    request_id: c.u32()?,
                    next_seq: c.u64()?,
                    events: c.bytes()?,
                }
            }
            tag::BYE => {
                dvm_fuzz::cov!("frame.tag.bye");
                Frame::Bye
            }
            other => {
                dvm_fuzz::cov!("frame.tag.unknown");
                return Err(FrameError::UnknownTag(other));
            }
        };
        c.finish()?;
        dvm_fuzz::cov!("frame.decode.ok");
        Ok(frame)
    }

    /// Decodes one frame from a complete encoded buffer (prefix
    /// included), returning the frame and the bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
        if buf.len() < 4 {
            dvm_fuzz::cov!("frame.decode.short_prefix");
            return Err(FrameError::malformed("short length prefix"));
        }
        let len = u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            dvm_fuzz::cov!("frame.decode.bad_length");
            return Err(FrameError::BadLength(len as u64));
        }
        if buf.len() < 4 + len {
            dvm_fuzz::cov!("frame.decode.truncated");
            return Err(FrameError::malformed("payload truncated"));
        }
        Ok((Frame::decode_body(&buf[4..4 + len])?, 4 + len))
    }

    /// Attempts to decode one frame from the front of a growing buffer.
    ///
    /// Returns `Ok(None)` when more bytes are needed (the streaming case
    /// a buffered reader polls), `Ok(Some((frame, consumed)))` when a
    /// full frame is present, and an error only for actual protocol
    /// violations.
    pub fn try_decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
        if buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(FrameError::BadLength(len as u64));
        }
        if buf.len() < 4 + len {
            return Ok(None);
        }
        Ok(Some((Frame::decode_body(&buf[4..4 + len])?, 4 + len)))
    }

    /// Writes the frame to a stream.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), FrameError> {
        w.write_all(&self.encode())?;
        Ok(())
    }

    /// Reads one frame from a stream, enforcing the length bound before
    /// allocating.
    ///
    /// A stream that ends *between* frames (zero bytes of the next
    /// frame read) is a clean EOF and surfaces as [`FrameError::Io`];
    /// a stream that ends after delivering part of a frame surfaces as
    /// [`FrameError::Truncated`], so callers can tell a peer that hung
    /// up from a link that cut a message in half.
    pub fn read_from(r: &mut impl Read) -> Result<Frame, FrameError> {
        let mut prefix = [0u8; 4];
        match fill(r, &mut prefix)? {
            0 => {
                return Err(FrameError::Io(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed".into(),
                ))
            }
            4 => {}
            got => {
                return Err(FrameError::Truncated {
                    got,
                    expected: None,
                })
            }
        }
        let len = u32::from_be_bytes(prefix) as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(FrameError::BadLength(len as u64));
        }
        let mut body = vec![0u8; len];
        let got = fill(r, &mut body)?;
        if got < len {
            return Err(FrameError::Truncated {
                got: 4 + got,
                expected: Some(4 + len),
            });
        }
        Frame::decode_body(&body)
    }
}

/// Reads until `buf` is full or EOF, returning the bytes read. Unlike
/// `read_exact`, a short read is reported with its exact count instead
/// of an opaque `UnexpectedEof`, which is what lets [`Frame::read_from`]
/// tell clean EOF (0 bytes) from mid-frame truncation (some bytes).
fn fill(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello(Hello {
                user: "alice".into(),
                principal: "applets".into(),
                hardware: "x86/200MHz/64MB".into(),
                native_format: "x86".into(),
                jvm_version: "dvm-repro-0.1".into(),
            }),
            Frame::Welcome { session: 42 },
            Frame::CodeRequest {
                request_id: 7,
                session: 42,
                url: "class://demo/App".into(),
                native_format: "x86".into(),
                trace: None,
            },
            Frame::CodeRequest {
                request_id: 8,
                session: 42,
                url: "class://demo/App".into(),
                native_format: "x86".into(),
                trace: Some(TraceContext {
                    trace: TraceId(0xDEAD_BEEF),
                    parent: SpanId(0x1234),
                }),
            },
            Frame::CodeResponse {
                request_id: 7,
                served_from: ServedFrom::MemoryCache,
                processing_ns: 123_456,
                bytes: vec![0xCA, 0xFE, 0xBA, 0xBE],
            },
            Frame::Error {
                request_id: 7,
                code: ErrorCode::NotFound,
                message: "no such class".into(),
            },
            Frame::AuditEvent {
                session: 42,
                site: -3,
                kind: 1,
            },
            Frame::PeerGet {
                request_id: 9,
                url: "class://demo/App".into(),
            },
            Frame::PeerPut {
                url: "class://demo/App".into(),
                bytes: vec![0xCA, 0xFE, 0xBA, 0xBE, 0x00],
            },
            Frame::Error {
                request_id: 9,
                code: ErrorCode::CacheMiss,
                message: String::new(),
            },
            Frame::CodeResponse {
                request_id: 9,
                served_from: ServedFrom::Peer,
                processing_ns: 0,
                bytes: vec![1],
            },
            Frame::StatsRequest {
                request_id: 11,
                include_spans: true,
            },
            Frame::StatsRequest {
                request_id: 12,
                include_spans: false,
            },
            Frame::StatsResponse {
                request_id: 11,
                report: vec![1, 0, 0, 0, 0, 0],
            },
            Frame::RingUpdate {
                epoch: 3,
                ring: vec![0x44, 0x56, 0x4D, 0x52, 1],
            },
            Frame::RingUpdate {
                epoch: 0,
                ring: Vec::new(),
            },
            Frame::MigrateBegin {
                request_id: 21,
                epoch: 3,
                shard: 5,
                resume_from: String::new(),
            },
            Frame::MigrateBegin {
                request_id: 22,
                epoch: 3,
                shard: 5,
                resume_from: "class://demo/App".into(),
            },
            Frame::MigrateChunk {
                request_id: 21,
                seq: 0,
                url: "class://demo/App".into(),
                bytes: vec![0xCA, 0xFE, 0xBA, 0xBE, 7, 7],
            },
            Frame::MigrateEnd {
                request_id: 21,
                total: 1,
                complete: true,
            },
            Frame::MigrateEnd {
                request_id: 22,
                total: 0,
                complete: false,
            },
            Frame::MetricsScrape { request_id: 31 },
            Frame::MetricsText {
                request_id: 31,
                text: b"# TYPE dvm_proxy_requests counter\ndvm_proxy_requests 7\n".to_vec(),
            },
            Frame::MetricsText {
                request_id: 32,
                text: Vec::new(),
            },
            Frame::EventsRequest {
                request_id: 33,
                after_seq: 0,
                max: 64,
            },
            Frame::EventsRequest {
                request_id: 34,
                after_seq: u64::MAX,
                max: 0,
            },
            Frame::EventsResponse {
                request_id: 33,
                next_seq: 12,
                events: vec![1, 0, 0, 0, 0],
            },
            Frame::EventsResponse {
                request_id: 34,
                next_seq: 0,
                events: Vec::new(),
            },
            Frame::Bye,
        ]
    }

    #[test]
    fn frames_round_trip() {
        for frame in sample_frames() {
            let encoded = frame.encode();
            let (decoded, consumed) = Frame::decode(&encoded).unwrap();
            assert_eq!(consumed, encoded.len());
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn stream_round_trip() {
        let mut wire = Vec::new();
        for frame in sample_frames() {
            frame.write_to(&mut wire).unwrap();
        }
        let mut r = &wire[..];
        for frame in sample_frames() {
            assert_eq!(Frame::read_from(&mut r).unwrap(), frame);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn encode_into_appends_exactly_what_encode_returns() {
        let mut batch = vec![0xAB];
        let mut expected = vec![0xAB];
        for frame in sample_frames() {
            frame.encode_into(&mut batch);
            expected.extend(frame.encode());
        }
        assert_eq!(batch, expected);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        for frame in sample_frames() {
            let encoded = frame.encode();
            for cut in 0..encoded.len() {
                assert!(Frame::decode(&encoded[..cut]).is_err(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn clean_eof_and_mid_frame_truncation_are_distinct() {
        // Zero bytes: the peer hung up between frames.
        let mut empty: &[u8] = &[];
        assert!(matches!(
            Frame::read_from(&mut empty),
            Err(FrameError::Io(io::ErrorKind::UnexpectedEof, _))
        ));
        // Any strict prefix of a real frame: the link died mid-message.
        let encoded = Frame::Welcome { session: 9 }.encode();
        for cut in 1..encoded.len() {
            let mut r = &encoded[..cut];
            match Frame::read_from(&mut r) {
                Err(FrameError::Truncated { got, expected }) => {
                    assert_eq!(got, cut, "cut at {cut}");
                    if cut >= 4 {
                        assert_eq!(expected, Some(encoded.len()));
                    } else {
                        assert_eq!(expected, None);
                    }
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
        assert!(FrameError::Truncated {
            got: 1,
            expected: None
        }
        .is_transport());
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.push(0x01);
        assert!(matches!(Frame::decode(&buf), Err(FrameError::BadLength(_))));
        let mut r = &buf[..];
        assert!(matches!(
            Frame::read_from(&mut r),
            Err(FrameError::BadLength(_))
        ));
    }

    #[test]
    fn zero_length_rejected() {
        let buf = 0u32.to_be_bytes().to_vec();
        assert!(matches!(Frame::decode(&buf), Err(FrameError::BadLength(0))));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.push(0x7F);
        assert!(matches!(
            Frame::decode(&buf),
            Err(FrameError::UnknownTag(0x7F))
        ));
    }

    #[test]
    fn trailing_garbage_in_payload_rejected() {
        let mut encoded = Frame::Bye.encode();
        // Grow the payload without updating the tag's grammar.
        encoded.splice(0..4, 3u32.to_be_bytes());
        encoded.extend_from_slice(&[0xAA, 0xBB]);
        assert!(matches!(
            Frame::decode(&encoded),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn migrate_chunk_digest_is_verified_on_decode() {
        let frame = Frame::MigrateChunk {
            request_id: 1,
            seq: 0,
            url: "class://demo/App".into(),
            bytes: vec![1, 2, 3, 4],
        };
        let mut encoded = frame.encode();
        // Flip one payload byte (the last value byte): the digest no
        // longer matches and decode must reject with a typed error.
        let last = encoded.len() - 1;
        encoded[last] ^= 0xFF;
        assert!(matches!(
            Frame::decode(&encoded),
            Err(FrameError::Malformed(_))
        ));
        // Flip a digest byte instead: same typed rejection.
        let mut encoded = frame.encode();
        let digest_at = encoded.len() - 24; // 16-byte digest sits before the u32 len + 4 value bytes
        encoded[digest_at] ^= 0xFF;
        assert!(matches!(
            Frame::decode(&encoded),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        // CodeRequest with a string field containing invalid UTF-8.
        let mut body = vec![super::tag::CODE_REQUEST];
        body.extend_from_slice(&7u32.to_be_bytes());
        body.extend_from_slice(&1u64.to_be_bytes());
        body.extend_from_slice(&2u16.to_be_bytes());
        body.extend_from_slice(&[0xFF, 0xFE]);
        body.extend_from_slice(&0u16.to_be_bytes());
        assert!(matches!(
            Frame::decode_body(&body),
            Err(FrameError::Malformed(_))
        ));
    }
}
