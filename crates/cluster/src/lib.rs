//! `dvm-cluster`: the organization's proxy, sharded.
//!
//! The paper's architecture funnels every client through one
//! organization proxy — a single chokepoint for rewriting, caching, and
//! signing. This crate scales that proxy out into N shards that act as
//! one logical service:
//!
//! - [`ring`] — a from-scratch seeded consistent-hash ring with virtual
//!   nodes. Routing is a pure function of `(seed, shard set, vnodes)`,
//!   so clients and shards agree on every URL's *home shard* with zero
//!   coordination traffic, and removing a shard remaps only that
//!   shard's keys.
//! - [`cluster`] — [`ProxyCluster`], which binds one
//!   [`dvm_net::ProxyServer`] per shard and wires the shards together.
//! - [`client`] — [`ClusterClassProvider`], a `ClassProvider` that
//!   resolves the ring and *fails over*: a transport drop or typed
//!   `Overloaded` rejection moves immediately to the next replica, and
//!   persistently failing shards are quarantined behind the circuit
//!   breaker in [`health`] (closed → open → half-open probe).
//! - [`stats`] — the pull side of the stats plane:
//!   [`collect_fleet_stats`] reads every shard's `stats://` over the
//!   wire (session-less, like ring pulls) and merges the answers into
//!   one fleet-wide metrics snapshot, tolerating dead shards.
//! - [`peer`] — peer cache-fill over the wire protocol's
//!   `PEER_GET`/`PEER_PUT` frames: on a local rewrite-cache miss a
//!   shard asks the URL's home shard for its cached copy before paying
//!   the full rewrite cost, and pushes classes it rewrites on others'
//!   behalf back to their home. Strictly fail-open.
//!
//! Everything rides the existing substrate: shards are unmodified
//! `dvm_proxy::Proxy` pipelines behind `dvm_net` sockets, signatures
//! verify end-to-end regardless of which shard (or whose cache) served
//! the bytes, and all shards report into one `AdminConsole`.

pub mod client;
pub mod cluster;
pub mod health;
pub mod peer;
pub mod ring;
pub mod snapshot;
pub mod stats;

pub use client::{
    ClusterClassProvider, ClusterClientConfig, ClusterClientStats, ClusterError, TransferHook,
};
pub use cluster::{ClusterOptions, ProxyCluster};
pub use health::{HealthConfig, HealthTracker};
pub use peer::{ClusterPeer, PeerLink};
pub use ring::{HashRing, RemapPlan, SegmentMove};
pub use snapshot::{RingSnapshot, SnapshotError};
pub use stats::{collect_fleet_stats, FleetStats, ShardReport};
