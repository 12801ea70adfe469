//! Server protocol logic, kept apart from socket I/O.
//!
//! The reactor glue (`reactor_server`) funnels every decoded frame
//! through [`handle_frame`], which owns the request/response semantics
//! — stats, fault-plan decisions, membership and migration answers —
//! and stays ignorant of sockets. The one frame that can do real work,
//! `CODE_REQUEST`, comes back as [`Flow::Execute`]: the reactor first
//! tries [`serve_inline`], which answers a plane read (`stats://`,
//! `metrics://`, `events://`) or a memory-tier hit on the loop thread,
//! and otherwise runs [`execute_plan`] on its worker pool. All of them
//! close their bookkeeping through one `ServeScope`, so every path
//! counts and traces a request identically.

use std::sync::atomic::Ordering;

use dvm_monitor::{ClientDescription, SessionId, SiteId};
use dvm_proxy::{CacheTier, ProxyError, RequestContext, ServedFrom, ServedResponse};
use dvm_telemetry::{SpanId, TraceContext};

use crate::frame::{kind_from_u8, ErrorCode, Frame, Hello};
use crate::server::{Inner, MIGRATE_BATCH};

/// What the connection must do after a frame is handled. Replies queued
/// in the `replies` buffer are sent regardless; `Flow` says what
/// happens next.
#[derive(Debug)]
pub(crate) enum Flow {
    /// Keep serving this connection.
    Continue,
    /// Flush queued replies, then close cleanly.
    Close,
    /// Drop the connection abruptly, without flushing.
    Kill,
    /// Serve a code request: [`serve_inline`] on a memory-tier hit,
    /// otherwise [`execute_plan`] (blocking work) off the loop.
    Execute(ExecPlan),
}

/// A `CODE_REQUEST` lifted out of the frame loop: everything
/// [`execute_plan`] needs, owned, so it can move to a worker thread.
#[derive(Debug)]
pub(crate) struct ExecPlan {
    pub request_id: u32,
    pub url: String,
    pub trace: Option<TraceContext>,
    /// Client identity captured from the connection's handshake.
    pub client: String,
    pub principal: String,
}

/// Per-connection protocol state.
#[derive(Debug, Default)]
pub(crate) struct ConnProto {
    /// The handshake, once one arrived (identity for later requests).
    pub hello: Option<Hello>,
}

/// Handles one client frame: updates stats, queues reply frames, and
/// reports the resulting control flow. Pure protocol — no socket I/O.
pub(crate) fn handle_frame(
    inner: &Inner,
    proto: &mut ConnProto,
    frame: Frame,
    replies: &mut Vec<Frame>,
) -> Flow {
    let counters = &inner.metrics.counters;
    counters.frames_in.inc();
    match frame {
        Frame::Hello(h) => {
            let session = match &inner.console {
                Some(console) => {
                    console
                        .lock()
                        .handshake(ClientDescription {
                            user: h.user.clone(),
                            hardware: h.hardware.clone(),
                            native_format: h.native_format.clone(),
                            jvm_version: h.jvm_version.clone(),
                        })
                        .0
                }
                None => inner.anon_sessions.fetch_add(1, Ordering::SeqCst),
            };
            proto.hello = Some(h);
            replies.push(Frame::Welcome { session });
            Flow::Continue
        }
        Frame::CodeRequest {
            request_id,
            url,
            trace,
            ..
        } => {
            counters.requests.inc();
            if let Some(plan) = &inner.config.fault {
                let seq = inner.request_counter.fetch_add(1, Ordering::SeqCst) + 1;
                if plan.drops(seq) {
                    counters.faults_injected.inc();
                    return Flow::Kill;
                }
            }
            Flow::Execute(ExecPlan {
                request_id,
                url,
                trace,
                client: proto
                    .hello
                    .as_ref()
                    .map(|h| h.user.clone())
                    .unwrap_or_default(),
                principal: proto
                    .hello
                    .as_ref()
                    .map(|h| h.principal.clone())
                    .unwrap_or_default(),
            })
        }
        Frame::AuditEvent {
            session,
            site,
            kind,
        } => {
            // Console ingest: the wire form of the client-resident audit
            // service component reporting upstream.
            if let (Some(console), Some(kind)) = (&inner.console, kind_from_u8(kind)) {
                console
                    .lock()
                    .record(SessionId(session), SiteId(site), kind);
                counters.audit_events.inc();
            }
            Flow::Continue
        }
        Frame::PeerGet { request_id, url } => {
            // Cache-fill probe from a peer shard: answer from the local
            // cache only — a peer probe must never trigger a rewrite
            // here (the asking shard owns that fallback).
            counters.peer_gets.inc();
            let reply = match inner.proxy.cache_peek(&url) {
                Some((bytes, tier)) => {
                    counters.peer_hits.inc();
                    Frame::CodeResponse {
                        request_id,
                        served_from: match tier {
                            CacheTier::Memory => ServedFrom::MemoryCache,
                            CacheTier::Disk => ServedFrom::DiskCache,
                        },
                        processing_ns: 0,
                        bytes: bytes.to_vec(),
                    }
                }
                None => Frame::Error {
                    request_id,
                    code: ErrorCode::CacheMiss,
                    message: String::new(),
                },
            };
            replies.push(reply);
            Flow::Continue
        }
        Frame::PeerPut { url, bytes } => {
            // Unsolicited offer from the shard that just rewrote the url
            // we own: land it on the disk tier so it cannot evict our
            // hot set, and send nothing back.
            counters.peer_puts.inc();
            inner.proxy.cache_fill(&url, bytes, CacheTier::Disk);
            Flow::Continue
        }
        Frame::RingUpdate { epoch, .. } => {
            // Epoch exchange: an asker behind the published epoch gets
            // the full snapshot; an up-to-date one gets just our epoch
            // back (cheap enough to poll).
            counters.ring_updates.inc();
            let view = inner.membership.lock().clone();
            let (our_epoch, ring) = match view {
                Some(v) => {
                    let e = v.epoch();
                    if epoch < e {
                        (e, v.snapshot().to_vec())
                    } else {
                        (e, Vec::new())
                    }
                }
                None => (0, Vec::new()),
            };
            replies.push(Frame::RingUpdate {
                epoch: our_epoch,
                ring,
            });
            Flow::Continue
        }
        Frame::MigrateBegin {
            request_id,
            epoch,
            shard,
            resume_from,
        } => {
            // Live cache migration, source side: stream the keys `shard`
            // now owns out of our cache in bounded batches. The exporter
            // owns ring/ownership logic; refusals (no exporter, epoch
            // mismatch) are typed errors, and a truncated batch ends
            // with `complete: false` so the target resumes from the last
            // key it saw.
            let exporter = inner.exporter.lock().clone();
            let batch = match &exporter {
                Some(x) => x.export(shard, epoch, &resume_from, MIGRATE_BATCH),
                None => Err("no migration exporter installed".into()),
            };
            match batch {
                Ok(batch) => {
                    counters.migrate_streams.inc();
                    let total = batch.entries.len() as u32;
                    for (seq, (url, bytes)) in batch.entries.into_iter().enumerate() {
                        replies.push(Frame::MigrateChunk {
                            request_id,
                            seq: seq as u32,
                            url,
                            bytes,
                        });
                        counters.migrate_chunks_out.inc();
                    }
                    replies.push(Frame::MigrateEnd {
                        request_id,
                        total,
                        complete: batch.complete,
                    });
                }
                Err(msg) => {
                    counters.migrate_rejects.inc();
                    replies.push(Frame::Error {
                        request_id,
                        code: ErrorCode::Internal,
                        message: msg,
                    });
                }
            }
            Flow::Continue
        }
        Frame::Bye => Flow::Close,
        Frame::Welcome { .. }
        | Frame::CodeResponse { .. }
        | Frame::Error { .. }
        | Frame::MigrateChunk { .. }
        | Frame::MigrateEnd { .. } => {
            // Server-to-client frames arriving at the server.
            counters.malformed.inc();
            replies.push(Frame::Error {
                request_id: 0,
                code: ErrorCode::Malformed,
                message: "unexpected frame direction".into(),
            });
            Flow::Close
        }
    }
}

/// Serves one `CODE_REQUEST` through the proxy pipeline and returns the
/// encoded reply. This is the blocking half — rewrite pipeline, store
/// I/O — and must run off the reactor loop. Out-metrics for the
/// returned bytes are counted here.
pub(crate) fn execute_plan(inner: &Inner, plan: ExecPlan) -> Vec<u8> {
    let scope = ServeScope::begin(inner, plan.trace);
    let ctx = RequestContext {
        client: plan.client,
        principal: plan.principal,
        url: plan.url.clone(),
        trace: scope.child_trace(),
    };
    let result = inner.proxy.handle_request_detailed(&plan.url, &ctx);
    let reply = scope.finish(inner, proxy_reply(plan.request_id, result));
    inner.encode_counted(&reply)
}

/// Answers a `CODE_REQUEST` that needs no blocking work, on the reactor
/// loop with no pool hop: a plane read (see [`read_plane`]) or a hit in
/// the proxy's memory tier. `None` (a miss, a contended cache, a
/// disk-only entry, caching off) means nothing was counted and the plan
/// goes to [`execute_plan`] as usual.
pub(crate) fn serve_inline(inner: &Inner, plan: &ExecPlan) -> Option<Frame> {
    let scope = ServeScope::begin(inner, plan.trace);
    if let Some(reply) = read_plane(inner, plan.request_id, &plan.url) {
        return Some(scope.finish(inner, reply));
    }
    let hit = inner
        .proxy
        .try_serve_memory(&plan.url, scope.child_trace())?;
    Some(scope.finish(inner, proxy_reply(plan.request_id, Ok(hit))))
}

/// Most journal events one `events://` page returns, whatever `max`
/// asks for.
const EVENTS_PAGE_MAX: usize = 1024;

/// Answers a control-plane read: a `CODE_REQUEST` whose URL names one
/// of this node's planes, never the proxy. Exactly four forms exist —
/// `stats://` and `stats://?spans=1` (an encoded `StatsReport`, without
/// or with the span window), `metrics://` (the exposition text) and
/// `events://?after=N&max=M` (an `encode_events` page) — and each is
/// a `CODE_RESPONSE` with `served_from: MemoryCache` (rendered from
/// this node's memory) and `processing_ns: 0` (the proxy did no work).
/// Anything else under these schemes is `ERROR(Malformed)`;
/// `metrics://` without a metrics source is `ERROR(Internal)`. Reading
/// a plane is itself counted, so pollers are visible in what they poll.
///
/// `None` for every other URL: the class path pays one `split_once` on
/// the borrowed URL and a scheme compare, no allocation and no lock.
fn read_plane(inner: &Inner, request_id: u32, url: &str) -> Option<Frame> {
    const MALFORMED: (ErrorCode, &str) = (
        ErrorCode::Malformed,
        "plane URL is not stats://, stats://?spans=1, metrics:// or events://?after=N&max=M",
    );
    let (scheme, rest) = url.split_once("://")?;
    let counters = &inner.metrics.counters;
    let bytes = match (scheme, rest) {
        ("stats", "" | "?spans=1") => {
            counters.stats_requests.inc();
            let report = if rest.is_empty() {
                inner.telemetry.report_metrics_only()
            } else {
                inner.telemetry.report()
            };
            Ok(report.encode())
        }
        ("metrics", "") => {
            counters.scrape_requests.inc();
            let source = inner.scrape.lock().clone();
            source
                .map(|s| s.render_metrics().into_bytes())
                .ok_or((ErrorCode::Internal, "no metrics source installed"))
        }
        ("events", query) => match events_query(query) {
            Some((after, max)) => {
                counters.events_requests.inc();
                let page = inner
                    .telemetry
                    .journal()
                    .events_after(after, (max as usize).min(EVENTS_PAGE_MAX));
                Ok(dvm_telemetry::events::encode_events(&page))
            }
            None => Err(MALFORMED),
        },
        ("stats" | "metrics", _) => Err(MALFORMED),
        _ => return None,
    };
    Some(match bytes {
        Ok(bytes) => Frame::CodeResponse {
            request_id,
            served_from: ServedFrom::MemoryCache,
            processing_ns: 0,
            bytes,
        },
        Err((code, message)) => Frame::Error {
            request_id,
            code,
            message: message.into(),
        },
    })
}

/// `?after=N&max=M`, both plain decimal that fits its field (`u64`,
/// `u32`); anything else — a missing, repeated or reordered key, a
/// sign, an overflow — is `None`.
fn events_query(query: &str) -> Option<(u64, u32)> {
    fn decimal<T: std::str::FromStr>(s: &str) -> Option<T> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        s.parse().ok()
    }
    let (after, max) = query.strip_prefix("?after=")?.split_once("&max=")?;
    Some((decimal(after)?, decimal(max)?))
}

/// The proxy's answer as a reply frame.
fn proxy_reply(request_id: u32, result: Result<ServedResponse, ProxyError>) -> Frame {
    match result {
        Ok(response) => Frame::CodeResponse {
            request_id,
            served_from: response.served_from,
            processing_ns: response.processing_ns,
            bytes: response.bytes.to_vec(),
        },
        Err(e) => {
            let code = match &e {
                ProxyError::NotFound(_) => ErrorCode::NotFound,
                ProxyError::Parse(_) => ErrorCode::Parse,
                ProxyError::Filter(_) => ErrorCode::Filter,
            };
            Frame::Error {
                request_id,
                code,
                message: e.to_string(),
            }
        }
    }
}

/// The server-side bookkeeping of one `CODE_REQUEST`, shared by the
/// inline and the deferred path and by plane reads:
/// `responses`/`errors`, the `net.server.serve_ns` record and, for a
/// traced request, a "shard.serve" span covering the whole handling.
struct ServeScope {
    start: u64,
    /// `(caller's context, this span's id)`: the id is allocated up
    /// front so the proxy's spans parent under it.
    span: Option<(TraceContext, SpanId)>,
}

impl ServeScope {
    fn begin(inner: &Inner, trace: Option<TraceContext>) -> ServeScope {
        ServeScope {
            start: inner.telemetry.recorder().now_ns(),
            span: trace.map(|t| (t, SpanId::generate())),
        }
    }

    /// The trace context the proxy's spans parent under.
    fn child_trace(&self) -> Option<TraceContext> {
        self.span.map(|(t, id)| TraceContext {
            trace: t.trace,
            parent: id,
        })
    }

    /// Counts the reply (`CODE_RESPONSE` or `ERROR`) and closes the
    /// bookkeeping.
    fn finish(self, inner: &Inner, reply: Frame) -> Frame {
        match reply {
            Frame::CodeResponse { .. } => inner.metrics.counters.responses.inc(),
            _ => inner.metrics.counters.errors.inc(),
        }
        let recorder = inner.telemetry.recorder();
        let duration = recorder.now_ns().saturating_sub(self.start);
        inner.metrics.serve_ns.record(duration);
        if let Some((t, id)) = self.span {
            recorder.record_span(t.trace, id, t.parent, "shard.serve", self.start, duration);
        }
        reply
    }
}
