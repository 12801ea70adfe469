//! Per-shard circuit breaker: quarantine unhealthy shards, probe them
//! half-open.
//!
//! A shard that keeps failing wastes every client's connect timeout on
//! each request it appears in the failover order for. The tracker moves
//! such a shard through the classic breaker states: *closed* (healthy,
//! requests flow), *open* (quarantined — skipped outright until the
//! quarantine expires), and *half-open* (exactly one probe request is
//! admitted; its outcome closes the circuit again or re-arms the
//! quarantine). Time comes from a caller-supplied clock only through
//! `Instant::now()` at the call sites, so the tracker itself stays a
//! pure state machine over the instants it is handed.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dvm_telemetry::{Counter, Gauge, GaugeMode, JournalKind, Registry, Telemetry};

/// Breaker tuning.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Consecutive failures (while closed) that open the circuit.
    pub failure_threshold: u32,
    /// How long an opened circuit refuses traffic before admitting a
    /// half-open probe.
    pub quarantine: Duration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            failure_threshold: 2,
            quarantine: Duration::from_millis(500),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum State {
    /// Healthy; counts consecutive failures toward the threshold.
    Closed { failures: u32 },
    /// Quarantined until the deadline.
    Open { until: Instant },
    /// One probe is in flight; the next record_* call resolves it.
    Probing,
}

/// Pre-registered handles for breaker state-transition telemetry.
#[derive(Debug, Clone)]
struct BreakerMetrics {
    /// Circuits armed (closed/half-open → open).
    opened: Arc<Counter>,
    /// Expired quarantines admitting a half-open probe (incl. forced).
    half_open: Arc<Counter>,
    /// Circuits closing again after a successful probe.
    closed: Arc<Counter>,
    /// Circuits currently open (quarantining a shard).
    open_now: Arc<Gauge>,
}

impl BreakerMetrics {
    fn register(registry: &Registry) -> BreakerMetrics {
        BreakerMetrics {
            opened: registry.counter("cluster.breaker.opened"),
            half_open: registry.counter("cluster.breaker.half_open"),
            closed: registry.counter("cluster.breaker.closed"),
            // Point-in-time view of the *same* shards from every
            // observer: fleet merges take the worst case, not the sum.
            open_now: registry.gauge_with_mode("cluster.breaker.open_now", GaugeMode::Max),
        }
    }
}

/// Tracks one circuit breaker per shard id.
#[derive(Debug)]
pub struct HealthTracker {
    config: HealthConfig,
    states: HashMap<u32, State>,
    metrics: BreakerMetrics,
    telemetry: Arc<Telemetry>,
}

impl HealthTracker {
    /// Creates a tracker on `telemetry`; every shard starts closed
    /// (healthy). Transitions count into `cluster.breaker.*` and are
    /// journaled as [`JournalKind::BreakerTransition`] events.
    pub fn new(config: HealthConfig, telemetry: Arc<Telemetry>) -> HealthTracker {
        HealthTracker {
            config,
            states: HashMap::new(),
            metrics: BreakerMetrics::register(telemetry.registry()),
            telemetry,
        }
    }

    /// Moves `shard` to `next`, counting and journaling the transition.
    fn transition(&mut self, shard: u32, next: State) {
        fn kind(s: State) -> u8 {
            match s {
                State::Closed { .. } => 0,
                State::Open { .. } => 1,
                State::Probing => 2,
            }
        }
        let prev = self.states.insert(shard, next);
        // Unknown shards start closed, so None→Closed is not a change.
        let prev_kind = kind(prev.unwrap_or(State::Closed { failures: 0 }));
        if prev_kind != kind(next) {
            self.telemetry.record_event(JournalKind::BreakerTransition {
                shard,
                state: kind(next),
            });
        }
        let m = &self.metrics;
        let was_open = matches!(prev, Some(State::Open { .. }));
        match next {
            State::Open { .. } if !was_open => {
                m.opened.inc();
                m.open_now.add(1);
            }
            State::Probing => {
                if was_open {
                    m.open_now.add(-1);
                }
                if !matches!(prev, Some(State::Probing)) {
                    m.half_open.inc();
                }
            }
            State::Closed { .. } => {
                if was_open {
                    m.open_now.add(-1);
                }
                if matches!(prev, Some(State::Open { .. }) | Some(State::Probing)) {
                    m.closed.inc();
                }
            }
            _ => {}
        }
    }

    /// Whether a request may be sent to `shard` right now. An expired
    /// quarantine admits exactly one half-open probe; further calls
    /// refuse until that probe's outcome is recorded.
    pub fn allow(&mut self, shard: u32) -> bool {
        match self.states.get(&shard).copied() {
            None | Some(State::Closed { .. }) => true,
            Some(State::Open { until }) => {
                if Instant::now() >= until {
                    self.transition(shard, State::Probing);
                    true
                } else {
                    false
                }
            }
            Some(State::Probing) => false,
        }
    }

    /// Forces `shard` into the half-open probing state regardless of its
    /// quarantine deadline — the desperation path when every shard is
    /// quarantined and the client must try *something*.
    pub fn force_probe(&mut self, shard: u32) {
        self.transition(shard, State::Probing);
    }

    /// Records a successful request: the circuit closes and the failure
    /// count resets.
    pub fn record_success(&mut self, shard: u32) {
        self.transition(shard, State::Closed { failures: 0 });
    }

    /// Records a failed request: a failed probe (or crossing the
    /// threshold while closed) opens the circuit for one quarantine
    /// period.
    pub fn record_failure(&mut self, shard: u32) {
        let next = match self.states.get(&shard).copied() {
            Some(State::Probing) | Some(State::Open { .. }) => State::Open {
                until: Instant::now() + self.config.quarantine,
            },
            Some(State::Closed { failures }) => {
                let failures = failures + 1;
                if failures >= self.config.failure_threshold.max(1) {
                    State::Open {
                        until: Instant::now() + self.config.quarantine,
                    }
                } else {
                    State::Closed { failures }
                }
            }
            None => {
                if self.config.failure_threshold.max(1) == 1 {
                    State::Open {
                        until: Instant::now() + self.config.quarantine,
                    }
                } else {
                    State::Closed { failures: 1 }
                }
            }
        };
        self.transition(shard, next);
    }

    /// True while `shard`'s circuit is open and its quarantine has not
    /// yet expired.
    pub fn is_quarantined(&self, shard: u32) -> bool {
        matches!(
            self.states.get(&shard),
            Some(State::Open { until }) if Instant::now() < *until
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(threshold: u32, quarantine_ms: u64) -> HealthTracker {
        tracker_on(threshold, quarantine_ms, Arc::new(Telemetry::new("client")))
    }

    fn tracker_on(threshold: u32, quarantine_ms: u64, telemetry: Arc<Telemetry>) -> HealthTracker {
        let config = HealthConfig {
            failure_threshold: threshold,
            quarantine: Duration::from_millis(quarantine_ms),
        };
        HealthTracker::new(config, telemetry)
    }

    #[test]
    fn threshold_failures_open_the_circuit() {
        let mut t = tracker(2, 10_000);
        assert!(t.allow(0));
        t.record_failure(0);
        assert!(t.allow(0), "one failure is below the threshold");
        t.record_failure(0);
        assert!(!t.allow(0), "threshold reached: quarantined");
        assert!(t.is_quarantined(0));
    }

    #[test]
    fn success_resets_the_failure_count() {
        let mut t = tracker(2, 10_000);
        t.record_failure(0);
        t.record_success(0);
        t.record_failure(0);
        assert!(t.allow(0), "count restarted after a success");
    }

    #[test]
    fn expired_quarantine_admits_exactly_one_probe() {
        let mut t = tracker(1, 0); // zero quarantine: expires immediately
        t.record_failure(0);
        assert!(t.allow(0), "half-open probe admitted");
        assert!(!t.allow(0), "second request refused while probing");
        t.record_failure(0);
        // Failed probe re-armed the (zero-length) quarantine.
        assert!(t.allow(0), "next probe admitted after re-quarantine");
        t.record_success(0);
        assert!(t.allow(0), "successful probe closes the circuit");
        assert!(t.allow(0));
    }

    #[test]
    fn shards_are_independent() {
        let mut t = tracker(1, 10_000);
        t.record_failure(3);
        assert!(!t.allow(3));
        assert!(t.allow(4));
    }

    #[test]
    fn breaker_transitions_are_counted() {
        let telemetry = Arc::new(Telemetry::new("client"));
        let registry = telemetry.registry();
        let mut t = tracker_on(1, 0, telemetry.clone()); // zero quarantine: expires immediately
        t.record_failure(0); // closed -> open
        let snap = registry.snapshot();
        assert_eq!(snap.counters["cluster.breaker.opened"], 1);
        assert_eq!(snap.gauges["cluster.breaker.open_now"], 1);
        assert!(t.allow(0)); // open -> half-open probe
        t.record_failure(0); // probe failed -> open again
        assert!(t.allow(0)); // open -> half-open probe
        t.record_success(0); // probe ok -> closed
        let snap = registry.snapshot();
        assert_eq!(snap.counters["cluster.breaker.opened"], 2);
        assert_eq!(snap.counters["cluster.breaker.half_open"], 2);
        assert_eq!(snap.counters["cluster.breaker.closed"], 1);
        assert_eq!(snap.gauges["cluster.breaker.open_now"], 0);
    }

    #[test]
    fn breaker_transitions_are_journaled() {
        let telemetry = Arc::new(Telemetry::new("client"));
        let mut t = tracker_on(1, 0, telemetry.clone());
        t.record_failure(2); // closed -> open
        assert!(t.allow(2)); // open -> probing
        t.record_success(2); // probing -> closed
        t.record_success(2); // closed -> closed: no event
        let states: Vec<(u32, u8)> = telemetry
            .journal()
            .events_after(0, 100)
            .into_iter()
            .filter_map(|e| match e.kind {
                JournalKind::BreakerTransition { shard, state } => Some((shard, state)),
                _ => None,
            })
            .collect();
        assert_eq!(states, vec![(2, 1), (2, 2), (2, 0)]);
    }

    #[test]
    fn force_probe_overrides_quarantine() {
        let mut t = tracker(1, 10_000);
        t.record_failure(0);
        assert!(!t.allow(0));
        t.force_probe(0);
        t.record_success(0);
        assert!(t.allow(0));
    }
}
