//! `dvm-chaos`: a deterministic fault-injection harness for the DVM's
//! network plane.
//!
//! The paper's proxy architecture puts every service behind the
//! network; this crate is how the reproduction earns the right to claim
//! the stack *survives* the network. Three pieces:
//!
//! - [`schedule`] — a seeded, scripted fault schedule with a textual
//!   grammar (`"<corrupt@p0.05 reset@n40 stall:200ms@once3"`). Every
//!   probabilistic decision draws from a [`dvm_netsim::SimRng`] stream
//!   derived from `(seed, connection, direction)`, so a schedule's fault
//!   placement is a pure function of one `u64` — replayable by pasting
//!   a seed, never by rerunning and hoping.
//! - [`link`] — [`ChaosLink`], a byte-level TCP man-in-the-middle that
//!   reassembles wire frames and injects the schedule: connection
//!   resets, half-closes, stalls, bounded delays, byte corruption,
//!   mid-frame truncation, bandwidth throttling.
//! - [`runner`] — [`ChaosRunner`], which drives M concurrent clients
//!   against a K-shard [`dvm_cluster::ProxyCluster`] through per-shard
//!   links (plus scheduled shard kills) and then checks named
//!   invariants: delivered payloads byte-match a fault-free oracle,
//!   every failure is a typed error, audit events are conserved,
//!   telemetry counters conserve, and circuit-breaker transition
//!   counters describe a realizable history. A failing run prints one
//!   `CHAOS REPLAY:` line with everything needed to reproduce it.
//!   [`ChaosRunner::run_restart`] extends the harness across a process
//!   lifetime: a faulted life over persistent shards, an unflushed
//!   "crash", and a warm second life checked against two more
//!   invariants (`warm-restart-serves-without-re-rewrite`,
//!   `no-post-recovery-corruption`).
//!
//! The in-server [`dvm_net::FaultPlan`] and this crate compose: the
//! plan drops connections *inside* the server, the link injects faults
//! *on the wire*, and the same invariants must hold under both.

pub mod brownout;
pub mod link;
pub mod runner;
pub mod scale;
pub mod schedule;

pub use brownout::{BrownoutConfig, BrownoutReport};
pub use link::{ChaosLink, FaultEvent, LinkStats};
pub use runner::{
    oracle_payloads, ChaosReport, ChaosRunner, RestartReport, RunnerConfig, ShardKill, Violation,
};
pub use scale::{run_scale, ScaleConfig, ScaleReport};
pub use schedule::{
    ChaosFault, ChaosRule, ChaosSchedule, Dir, FaultState, ParseError, Placement, Trigger,
};
