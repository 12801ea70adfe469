//! `ProxyServer`'s protocol on the `dvm-reactor` event loop.
//!
//! [`NetHandler`] is the glue between the loop's byte-level callbacks
//! and the socket-free protocol ([`crate::protocol`]): frame boundaries
//! come from [`crate::assembler::peek_frame`], decoded frames go
//! through `handle_frame`. A `CODE_REQUEST` that hits the proxy's
//! memory tier is answered right here on the loop thread — a refcount
//! bump and an encode, cheaper than the two thread wake-ups a pool hop
//! costs. Anything that may block (a miss that rewrites, a disk-tier
//! read, a contended cache) is deferred to the reactor's worker pool,
//! so ten thousand idle connections cost buffers, not threads.
//!
//! A connection beyond `max_connections` is still accepted, its first
//! complete frame is read, and it gets a typed `Overloaded` error before
//! the close — the rejection is never lost to a reset racing the
//! client's write.

use std::sync::Arc;

use dvm_reactor::{Boundary, CloseReason, Io, JobOutput, ReactorObserver};

use crate::assembler::peek_frame;
use crate::frame::{ErrorCode, Frame};
use crate::protocol::{execute_plan, handle_frame, serve_inline, ConnProto, Flow};
use crate::server::Inner;

/// Per-connection state on the reactor: protocol state plus the
/// overload latch.
#[derive(Debug, Default)]
pub(crate) struct RConn {
    proto: ConnProto,
    /// Accepted beyond the serving limit: reply `Overloaded` to the
    /// first frame, then drain and close.
    overloaded: bool,
    /// The overload rejection has been queued (ignore further frames
    /// that race the close).
    rejected: bool,
}

/// The `dvm-net` protocol as a reactor [`dvm_reactor::Handler`].
pub(crate) struct NetHandler {
    pub(crate) inner: Arc<Inner>,
}

impl NetHandler {
    fn send_frame(&self, io: &mut Io<'_>, frame: &Frame) {
        let encoded = self.inner.encode_counted(frame);
        io.send(&encoded);
    }
}

impl dvm_reactor::Handler for NetHandler {
    type Conn = RConn;

    fn on_open(&self, _token: u64, overloaded: bool) -> RConn {
        let metrics = &self.inner.metrics;
        if overloaded {
            metrics.counters.overload_rejects.inc();
        } else {
            metrics.counters.connections.inc();
            metrics.live_connections.add(1);
        }
        RConn {
            proto: ConnProto::default(),
            overloaded,
            rejected: false,
        }
    }

    fn frame_boundary(&self, buf: &[u8]) -> Boundary {
        match peek_frame(buf) {
            Ok(None) => Boundary::NeedMore,
            Ok(Some(n)) => Boundary::Frame(n),
            Err(e) => Boundary::Violation(e.to_string()),
        }
    }

    fn on_data(&self, n: usize) {
        self.inner.metrics.counters.bytes_in.add(n as u64);
    }

    fn on_frame(&self, io: &mut Io<'_>, conn: &mut RConn, frame: &[u8]) {
        if conn.overloaded {
            // At-capacity arrival: answer its opening frame with the
            // typed rejection, then drain out and close.
            if !conn.rejected {
                conn.rejected = true;
                self.send_frame(
                    io,
                    &Frame::Error {
                        request_id: 0,
                        code: ErrorCode::Overloaded,
                        message: "server at connection capacity".into(),
                    },
                );
                io.close_after_flush();
            }
            return;
        }
        // `frame` is exactly one length-delimited frame (prefix
        // included), as judged by `peek_frame`; the body can still be
        // semantically malformed (unknown tag, truncated payload).
        let decoded = match Frame::decode_body(&frame[4..]) {
            Ok(f) => f,
            Err(e) => {
                self.inner.metrics.counters.malformed.inc();
                self.send_frame(
                    io,
                    &Frame::Error {
                        request_id: 0,
                        code: ErrorCode::Malformed,
                        message: e.to_string(),
                    },
                );
                io.close_after_flush();
                return;
            }
        };
        let mut replies = Vec::new();
        let flow = handle_frame(&self.inner, &mut conn.proto, decoded, &mut replies);
        for f in &replies {
            self.send_frame(io, f);
        }
        match flow {
            Flow::Continue => {}
            Flow::Close => io.close_after_flush(),
            Flow::Kill => io.close(),
            Flow::Execute(plan) => {
                // A memory hit is answered inline. It cannot overtake a
                // deferred request on this connection: the loop stops
                // handing us its frames while a job is in flight.
                if let Some(reply) = serve_inline(&self.inner, &plan) {
                    self.send_frame(io, &reply);
                    return;
                }
                // The blocking step — rewrite pipeline, store I/O —
                // runs on the pool; the loop stops consuming this
                // connection's frames until the output is delivered
                // back, which preserves response order.
                let inner = self.inner.clone();
                io.defer(move || JobOutput::reply(execute_plan(&inner, plan)));
            }
        }
    }

    fn on_violation(&self, io: &mut Io<'_>, _conn: &mut RConn, detail: &str) {
        // Framing violation (bad length prefix): the same typed answer
        // an undecodable frame body gets.
        self.inner.metrics.counters.malformed.inc();
        self.send_frame(
            io,
            &Frame::Error {
                request_id: 0,
                code: ErrorCode::Malformed,
                message: detail.into(),
            },
        );
    }

    fn on_close(&self, _token: u64, conn: RConn, reason: CloseReason) {
        if !conn.overloaded {
            self.inner.metrics.live_connections.add(-1);
        }
        if reason == CloseReason::IdleExpired {
            self.inner.metrics.counters.idle_reaped.inc();
        }
    }
}

/// Loop instrumentation wired into the node's telemetry plane — the
/// reactor's health is scrapeable and journaled like every other
/// subsystem.
impl ReactorObserver for Inner {
    fn loop_iteration(&self, events: usize) {
        self.metrics.counters.loop_iterations.inc();
        self.metrics.counters.loop_events.add(events as u64);
    }

    fn conn_delta(&self, delta: i64) {
        self.metrics.conns_open.add(delta);
    }

    fn backpressure_stall(&self) {
        self.metrics.counters.backpressure_stalls.inc();
    }

    fn wakeup_ns(&self, ns: u64) {
        self.metrics.wakeup_ns.record(ns);
    }
}
