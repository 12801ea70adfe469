//! `dvm-net`: the DVM's network substrate — a real wire protocol and TCP
//! proxy server.
//!
//! The paper places every static service behind a proxy *at the network
//! trust boundary*; until this crate, the reproduction ran the proxy
//! in-process and only simulated transfer timing with `dvm-netsim`. Here
//! the boundary becomes an actual socket:
//!
//! - [`frame`] — a from-scratch length-prefixed binary protocol
//!   (`CODE_REQUEST`/`CODE_RESPONSE`, typed error frames, and
//!   `AUDIT_EVENT` frames streaming monitor events to the console),
//!   encoded in pure std. A node's stats, metrics and journal are read
//!   as `stats://`, `metrics://` and `events://` URLs on
//!   `CODE_REQUEST`, like any other resource;
//! - [`server`] — [`ProxyServer`], a TCP server on the `dvm-reactor`
//!   epoll loop (one thread owns every connection and answers cache
//!   hits, a small worker pool runs the requests that may block,
//!   arrivals past the connection limit get a typed
//!   `Overloaded` rejection), wrapping the existing `dvm_proxy::Proxy`
//!   filter pipeline, cache, and signer;
//! - [`client`] — [`NetClassProvider`], a `ClassProvider` connector with
//!   connect/read timeouts, bounded retries with exponential backoff, and
//!   signature verification on receipt, plus [`RemoteConsole`], an audit
//!   sink that streams events to the server over the same protocol.
//!
//! Real sockets and `dvm-netsim` coexist deliberately: sockets move the
//! bytes, while the simulated cost model continues to price them for
//! machine-independent experiment output.

pub mod assembler;
pub mod client;
pub mod frame;
pub(crate) mod protocol;
pub(crate) mod reactor_server;
pub mod server;

pub use assembler::{peek_frame, FrameAssembler};
pub use client::{
    fetch_events, fetch_metrics_text, fetch_stats, request_once, IrHook, NetClassProvider,
    NetClientCounters, NetClientStats, NetConfig, NetError, NetTransfer, RemoteConsole,
};
pub use frame::{kind_from_u8, kind_to_u8, ErrorCode, Frame, FrameError, Hello, MAX_FRAME_LEN};
pub use server::{
    FaultPlan, MembershipView, MigrateBatch, MigrateExporter, ProxyServer, ServerConfig,
    ServerStats, MIGRATE_BATCH,
};
