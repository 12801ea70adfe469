//! Fleet-wide stats collection over the wire.
//!
//! [`collect_fleet_stats`] is the pull side of the stats plane: it reads
//! each shard's `stats://` and merges the per-shard metrics into one
//! fleet-wide snapshot. Unreachable shards are reported as such rather
//! than failing the whole collection — an operator asking "how is the
//! cluster doing" most needs an answer when part of it is down.

use std::net::SocketAddr;

use dvm_net::{fetch_stats, NetConfig};
use dvm_telemetry::{MetricsSnapshot, StatsReport};

/// One shard's answer to a stats pull.
#[derive(Debug)]
pub struct ShardReport {
    /// The shard's ring id.
    pub shard: u32,
    /// The shard's address, as given to the collector.
    pub addr: SocketAddr,
    /// Its report, when the pull succeeded.
    pub report: Option<StatsReport>,
    /// The failure rendered for display, when it did not.
    pub error: Option<String>,
}

impl ShardReport {
    /// True when this shard answered the pull.
    pub fn reachable(&self) -> bool {
        self.report.is_some()
    }
}

/// Every shard's report plus the fleet-wide merge.
#[derive(Debug)]
pub struct FleetStats {
    /// Per-shard outcomes, indexed like the input address list.
    pub shards: Vec<ShardReport>,
    /// All reachable shards' metrics merged into one snapshot.
    pub merged: MetricsSnapshot,
}

impl FleetStats {
    /// How many shards answered.
    pub fn reachable(&self) -> usize {
        self.shards.iter().filter(|s| s.reachable()).count()
    }
}

/// Pulls a [`StatsReport`] from every address (serially — the
/// collector is an operator tool, not a hot path) and merges the
/// reachable ones; the list index doubles as the shard id.
/// `include_spans` asks each shard for its span window too; leave it
/// off for cheap periodic polling.
pub fn collect_fleet_stats(
    addrs: &[SocketAddr],
    config: NetConfig,
    include_spans: bool,
) -> FleetStats {
    let shards: Vec<ShardReport> = addrs
        .iter()
        .enumerate()
        .map(|(i, &addr)| {
            let (report, error) = match fetch_stats(addr, config, include_spans) {
                Ok(report) => (Some(report), None),
                Err(e) => (None, Some(e.to_string())),
            };
            ShardReport {
                shard: i as u32,
                addr,
                report,
                error,
            }
        })
        .collect();
    let merged = StatsReport::merge_metrics(shards.iter().filter_map(|s| s.report.as_ref()));
    FleetStats { shards, merged }
}
