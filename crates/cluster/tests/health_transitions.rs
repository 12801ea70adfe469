//! Exhaustive transition-table test for the circuit breaker.
//!
//! The breaker has four reachable situations — closed (with a failure
//! count), open with an unexpired quarantine, open with an expired
//! quarantine, and half-open probing (reached by expiry or by the
//! desperation `force_probe` path) — and four events: `allow`,
//! `record_success`, `record_failure`, `force_probe`. This test drives
//! every (state, event) pair and asserts both the observable behavior
//! (admission, quarantine flag) and the transition counters the
//! telemetry plane records, so the chaos runner's breaker-consistency
//! invariant rests on a fully pinned state machine.

use std::sync::Arc;
use std::time::Duration;

use dvm_cluster::{HealthConfig, HealthTracker};
use dvm_telemetry::Telemetry;

const SHARD: u32 = 0;
const LONG: u64 = 60_000; // quarantine that cannot expire within the test
const ZERO: u64 = 0; // quarantine that is expired the moment it is set

/// One scripted step: an event applied to the tracker plus the
/// assertions that pin its outcome.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `record_success(SHARD)`.
    Success,
    /// `record_failure(SHARD)`.
    Failure,
    /// `allow(SHARD)` must return this.
    Allow(bool),
    /// `force_probe(SHARD)`.
    ForceProbe,
    /// `is_quarantined(SHARD)` must return this.
    Quarantined(bool),
}

/// Expected cumulative transition counters at the end of a script.
#[derive(Debug, Clone, Copy)]
struct Metrics {
    opened: u64,
    half_open: u64,
    closed: u64,
    open_now: i64,
}

fn run(name: &str, threshold: u32, quarantine_ms: u64, script: &[Step], expect: Metrics) {
    let telemetry = Arc::new(Telemetry::new("client"));
    let config = HealthConfig {
        failure_threshold: threshold,
        quarantine: Duration::from_millis(quarantine_ms),
    };
    let mut t = HealthTracker::new(config, telemetry.clone());
    for (i, step) in script.iter().enumerate() {
        match step {
            Step::Success => t.record_success(SHARD),
            Step::Failure => t.record_failure(SHARD),
            Step::ForceProbe => t.force_probe(SHARD),
            Step::Allow(want) => {
                let got = t.allow(SHARD);
                assert_eq!(got, *want, "{name}: step {i} allow() = {got}");
            }
            Step::Quarantined(want) => {
                let got = t.is_quarantined(SHARD);
                assert_eq!(got, *want, "{name}: step {i} is_quarantined() = {got}");
            }
        }
    }
    let snap = telemetry.registry().snapshot();
    assert_eq!(
        snap.counter("cluster.breaker.opened"),
        expect.opened,
        "{name}: opened"
    );
    assert_eq!(
        snap.counter("cluster.breaker.half_open"),
        expect.half_open,
        "{name}: half_open"
    );
    assert_eq!(
        snap.counter("cluster.breaker.closed"),
        expect.closed,
        "{name}: closed"
    );
    assert_eq!(
        snap.gauge("cluster.breaker.open_now"),
        expect.open_now,
        "{name}: open_now"
    );
}

use Step::*;

#[test]
fn from_fresh() {
    // A shard with no history admits everything and records nothing.
    run(
        "fresh+allow",
        2,
        LONG,
        &[Quarantined(false), Allow(true), Allow(true)],
        Metrics {
            opened: 0,
            half_open: 0,
            closed: 0,
            open_now: 0,
        },
    );
    // A success on a fresh shard is a no-op transition (closed→closed).
    run(
        "fresh+success",
        2,
        LONG,
        &[Success, Allow(true)],
        Metrics {
            opened: 0,
            half_open: 0,
            closed: 0,
            open_now: 0,
        },
    );
    // One failure below the threshold leaves the circuit closed.
    run(
        "fresh+failure-below-threshold",
        2,
        LONG,
        &[Failure, Quarantined(false), Allow(true)],
        Metrics {
            opened: 0,
            half_open: 0,
            closed: 0,
            open_now: 0,
        },
    );
    // Threshold one: the very first failure opens the circuit.
    run(
        "fresh+failure-threshold-1",
        1,
        LONG,
        &[Failure, Quarantined(true), Allow(false)],
        Metrics {
            opened: 1,
            half_open: 0,
            closed: 0,
            open_now: 1,
        },
    );
    // Forcing a probe on a fresh shard goes straight to half-open.
    run(
        "fresh+force-probe",
        2,
        LONG,
        &[ForceProbe, Allow(false)],
        Metrics {
            opened: 0,
            half_open: 1,
            closed: 0,
            open_now: 0,
        },
    );
}

#[test]
fn from_closed_counting_failures() {
    // Failures accumulate; a success resets the count.
    run(
        "closed+success-resets",
        2,
        LONG,
        &[Failure, Success, Failure, Allow(true), Quarantined(false)],
        Metrics {
            opened: 0,
            half_open: 0,
            closed: 0,
            open_now: 0,
        },
    );
    // Reaching the threshold opens the circuit exactly once.
    run(
        "closed+failure-crosses-threshold",
        2,
        LONG,
        &[Failure, Failure, Quarantined(true), Allow(false)],
        Metrics {
            opened: 1,
            half_open: 0,
            closed: 0,
            open_now: 1,
        },
    );
    run(
        "closed+threshold-3",
        3,
        LONG,
        &[Failure, Failure, Allow(true), Failure, Allow(false)],
        Metrics {
            opened: 1,
            half_open: 0,
            closed: 0,
            open_now: 1,
        },
    );
}

#[test]
fn from_open_unexpired() {
    // Admission is refused for the whole quarantine.
    run(
        "open+allow-refused",
        2,
        LONG,
        &[
            Failure,
            Failure,
            Allow(false),
            Allow(false),
            Quarantined(true),
        ],
        Metrics {
            opened: 1,
            half_open: 0,
            closed: 0,
            open_now: 1,
        },
    );
    // A success (e.g. an in-flight request completing late) closes the
    // circuit directly: open → closed, no half-open in between.
    run(
        "open+success-closes",
        2,
        LONG,
        &[Failure, Failure, Success, Quarantined(false), Allow(true)],
        Metrics {
            opened: 1,
            half_open: 0,
            closed: 1,
            open_now: 0,
        },
    );
    // A further failure re-arms the quarantine without re-counting the
    // open transition (the circuit was already open).
    run(
        "open+failure-rearms",
        2,
        LONG,
        &[Failure, Failure, Failure, Quarantined(true), Allow(false)],
        Metrics {
            opened: 1,
            half_open: 0,
            closed: 0,
            open_now: 1,
        },
    );
    // The desperation path: force_probe overrides the deadline, admits
    // nothing extra itself (probing refuses), and counts a half-open.
    run(
        "open+force-probe",
        2,
        LONG,
        &[
            Failure,
            Failure,
            ForceProbe,
            Allow(false),
            Quarantined(false),
        ],
        Metrics {
            opened: 1,
            half_open: 1,
            closed: 0,
            open_now: 0,
        },
    );
}

#[test]
fn from_open_expired() {
    // An expired quarantine admits exactly one half-open probe.
    run(
        "expired+allow-admits-one-probe",
        2,
        ZERO,
        &[Failure, Failure, Allow(true), Allow(false), Allow(false)],
        Metrics {
            opened: 1,
            half_open: 1,
            closed: 0,
            open_now: 0,
        },
    );
    // is_quarantined is deadline-aware: an expired open circuit no
    // longer reports as quarantined even before anyone probes.
    run(
        "expired+not-quarantined",
        2,
        ZERO,
        &[Failure, Failure, Quarantined(false)],
        Metrics {
            opened: 1,
            half_open: 0,
            closed: 0,
            open_now: 1,
        },
    );
}

#[test]
fn from_probing() {
    // A successful probe closes the circuit and re-admits traffic.
    run(
        "probing+success-closes",
        2,
        ZERO,
        &[
            Failure,
            Failure,
            Allow(true),
            Success,
            Allow(true),
            Allow(true),
        ],
        Metrics {
            opened: 1,
            half_open: 1,
            closed: 1,
            open_now: 0,
        },
    );
    // A failed probe re-opens: a second full open/half-open cycle shows
    // up in the counters.
    run(
        "probing+failure-reopens",
        2,
        ZERO,
        &[
            Failure,
            Failure,
            Allow(true),
            Failure,
            Allow(true),
            Success,
            Allow(true),
        ],
        Metrics {
            opened: 2,
            half_open: 2,
            closed: 1,
            open_now: 0,
        },
    );
    // Probing refuses further admissions until the probe resolves.
    run(
        "probing+allow-refused",
        2,
        ZERO,
        &[
            Failure,
            Failure,
            Allow(true),
            Allow(false),
            Quarantined(false),
        ],
        Metrics {
            opened: 1,
            half_open: 1,
            closed: 0,
            open_now: 0,
        },
    );
    // force_probe while already probing is idempotent: no second
    // half-open is counted.
    run(
        "probing+force-probe-idempotent",
        2,
        LONG,
        &[Failure, Failure, ForceProbe, ForceProbe, Allow(false)],
        Metrics {
            opened: 1,
            half_open: 1,
            closed: 0,
            open_now: 0,
        },
    );
}

#[test]
fn long_histories_keep_the_ledger_consistent() {
    // Several full cycles: the breaker-consistency inequality the chaos
    // runner asserts (opened - open_now <= half_open + closed) must hold
    // at every point; here it is checked exactly at the end of a long
    // mixed history.
    run(
        "three-full-cycles",
        2,
        ZERO,
        &[
            Failure,
            Failure,     // open #1
            Allow(true), // half-open #1
            Failure,     // reopen: open #2
            Allow(true), // half-open #2
            Success,     // closed #1
            Failure,
            Failure,     // open #3
            Allow(true), // half-open #3
            Success,     // closed #2
            Allow(true),
        ],
        Metrics {
            opened: 3,
            half_open: 3,
            closed: 2,
            open_now: 0,
        },
    );
    // Ending while still open: the gauge stays up and the inequality
    // still balances (opened 2, exits = half_open 1 + closed 1 = 2... of
    // which one circuit remains open).
    run(
        "ends-open",
        2,
        ZERO,
        &[
            Failure,
            Failure,     // open #1
            Allow(true), // half-open #1
            Success,     // closed #1
            Failure,
            Failure,            // open #2 — and stop here
            Quarantined(false), // zero quarantine: already expired
        ],
        Metrics {
            opened: 2,
            half_open: 1,
            closed: 1,
            open_now: 1,
        },
    );
}
