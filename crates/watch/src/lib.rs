//! `dvm-watch`: continuous observability for a DVM fleet.
//!
//! `dvm-telemetry` answers "what are the totals right now?";
//! this crate answers the operator's actual questions — *how fast is it
//! moving, is it meeting its objectives, and what happened?* — with
//! four pieces layered on the registry:
//!
//! - [`series`] — a deterministic [`Sampler`] that diffs registry
//!   snapshots into bounded per-interval rings (rates, gauge history,
//!   windowed histogram deltas);
//! - [`slo`] — declared [`Objective`]s evaluated with multi-window
//!   burn rates through an ok → warning → firing → resolved state
//!   machine;
//! - [`expo`] — a from-scratch Prometheus-text exposition of all of
//!   it, served as a `metrics://` read on the wire protocol and by a
//!   no-deps HTTP/1.0 `GET /metrics` listener ([`http`]);
//! - [`spool`] — durable continuation of the telemetry event journal
//!   through `dvm-store`, so cursor tails survive restarts.
//!
//! The heart is [`Watch`]: attach one to a `Telemetry` plane, declare
//! objectives, and call [`Watch::tick_at`] on a clock — explicitly in
//! tests (deterministic replay), or via the background [`WatchDriver`]
//! in production.

pub mod expo;
pub mod http;
pub mod series;
pub mod slo;
pub mod spool;

pub use http::{http_get, MetricsHttp};
pub use series::Sampler;
pub use slo::{Alert, AlertState, Objective, ObjectiveKind};
pub use spool::StoreSpool;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use dvm_telemetry::{JournalKind, Telemetry};

/// Tuning for a [`Watch`].
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Sampling interval for the background driver, nanoseconds.
    pub interval_ns: u64,
    /// Points retained per metric series.
    pub series_capacity: usize,
    /// Declared SLO objectives.
    pub objectives: Vec<Objective>,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            interval_ns: 1_000_000_000,
            series_capacity: 512,
            objectives: Vec::new(),
        }
    }
}

struct WatchInner {
    sampler: Sampler,
    alerts: Vec<Alert>,
}

/// One node's continuous-observability plane: a sampler, its alert
/// state machines, and the exposition over both.
pub struct Watch {
    telemetry: Arc<Telemetry>,
    inner: Mutex<WatchInner>,
}

impl std::fmt::Debug for Watch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watch")
            .field("node", &self.telemetry.node())
            .finish()
    }
}

impl Watch {
    /// Creates a watch over `telemetry` with `config`'s objectives.
    pub fn new(telemetry: Arc<Telemetry>, config: WatchConfig) -> Arc<Watch> {
        Arc::new(Watch {
            telemetry,
            inner: Mutex::new(WatchInner {
                sampler: Sampler::new(config.series_capacity),
                alerts: config.objectives.into_iter().map(Alert::new).collect(),
            }),
        })
    }

    /// The telemetry plane this watch samples.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// One deterministic tick at `now_ns`: snapshot the registry, feed
    /// the sampler, evaluate every objective, and journal any alert
    /// transitions. This is the *entire* periodic work — the driver
    /// just calls it on a wall clock.
    pub fn tick_at(&self, now_ns: u64) {
        let snapshot = self.telemetry.registry().snapshot();
        let mut transitions = Vec::new();
        {
            let mut inner = self.inner.lock();
            inner.sampler.tick(now_ns, snapshot);
            let WatchInner { sampler, alerts } = &mut *inner;
            for alert in alerts.iter_mut() {
                if let Some((from, to)) = alert.evaluate(sampler, now_ns) {
                    transitions.push(JournalKind::AlertTransition {
                        objective: alert.objective.name.clone(),
                        from: from.as_u8(),
                        to: to.as_u8(),
                    });
                }
            }
        }
        // Journal outside the sampler lock: spools may hit disk.
        for kind in transitions {
            self.telemetry.journal().record(now_ns, kind);
        }
    }

    /// Current alert states (objective name, state, fast burn, slow
    /// burn).
    pub fn alerts(&self) -> Vec<Alert> {
        self.inner.lock().alerts.clone()
    }

    /// Events per second for a counter over `window_ns`, ending at the
    /// last tick.
    pub fn rate(&self, counter: &str, window_ns: u64) -> f64 {
        let inner = self.inner.lock();
        let now = inner.sampler.last_tick_ns();
        inner.sampler.window_rate(counter, window_ns, now)
    }

    /// Windowed quantile for a histogram, ending at the last tick.
    pub fn quantile(&self, histogram: &str, q: f64, window_ns: u64) -> u64 {
        let inner = self.inner.lock();
        let now = inner.sampler.last_tick_ns();
        inner.sampler.window_quantile(histogram, q, window_ns, now)
    }

    /// Renders the Prometheus-text exposition: raw cumulative metrics,
    /// recent per-counter rates (over the last ~minute of samples), and
    /// alert states.
    pub fn render(&self) -> String {
        let snapshot = self.telemetry.registry().snapshot();
        let inner = self.inner.lock();
        let now = inner.sampler.last_tick_ns();
        let window = 60_000_000_000;
        let rates: Vec<(String, f64)> = inner
            .sampler
            .counter_names()
            .into_iter()
            .map(|name| {
                let r = inner.sampler.window_rate(&name, window, now);
                (name, r)
            })
            .collect();
        expo::render(self.telemetry.node(), &snapshot, &rates, &inner.alerts)
    }
}

impl dvm_telemetry::MetricsSource for Watch {
    fn render_metrics(&self) -> String {
        self.render()
    }
}

/// Background ticker: samples a [`Watch`] every `interval_ns` on the
/// flight recorder's monotonic clock until shutdown.
pub struct WatchDriver {
    running: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WatchDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WatchDriver").finish()
    }
}

impl WatchDriver {
    /// Starts ticking `watch` every `interval_ns`.
    pub fn start(watch: Arc<Watch>, interval_ns: u64) -> WatchDriver {
        let running = Arc::new(AtomicBool::new(true));
        let flag = running.clone();
        let handle = std::thread::Builder::new()
            .name("dvm-watch".into())
            .spawn(move || {
                let interval = Duration::from_nanos(interval_ns.max(1_000_000));
                while flag.load(Ordering::SeqCst) {
                    watch.tick_at(watch.telemetry().recorder().now_ns());
                    std::thread::sleep(interval);
                }
            })
            .expect("spawn watch driver");
        WatchDriver {
            running,
            handle: Some(handle),
        }
    }

    /// Stops the ticker and joins the thread.
    pub fn shutdown(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for WatchDriver {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn ticks_drive_alerts_into_the_journal() {
        let telemetry = Arc::new(Telemetry::new("shard0"));
        let errors = telemetry.registry().counter("proxy.errors");
        let total = telemetry.registry().counter("proxy.requests");
        let mut config = WatchConfig::default();
        config.objectives.push(Objective::error_ratio(
            "error-ratio",
            "proxy.errors",
            "proxy.requests",
            0.001,
            2 * SEC,
            6 * SEC,
        ));
        let watch = Watch::new(telemetry.clone(), config);

        watch.tick_at(0);
        let mut now = 0;
        for _ in 0..3 {
            now += SEC;
            total.add(100);
            watch.tick_at(now);
        }
        assert_eq!(watch.alerts()[0].state, AlertState::Ok);
        for _ in 0..6 {
            now += SEC;
            errors.add(40);
            total.add(100);
            watch.tick_at(now);
        }
        assert_eq!(watch.alerts()[0].state, AlertState::Firing);
        for _ in 0..12 {
            now += SEC;
            total.add(100);
            watch.tick_at(now);
        }
        assert_eq!(watch.alerts()[0].state, AlertState::Ok);

        // The journal saw the full lifecycle, in order.
        let events = telemetry.journal().events_after(0, 100);
        let states: Vec<(u8, u8)> = events
            .iter()
            .filter_map(|e| match &e.kind {
                JournalKind::AlertTransition { from, to, .. } => Some((*from, *to)),
                _ => None,
            })
            .collect();
        use dvm_telemetry::events::{ALERT_FIRING, ALERT_OK, ALERT_RESOLVED};
        assert!(
            states.contains(&(ALERT_OK, ALERT_FIRING))
                || states.iter().any(|&(_, to)| to == ALERT_FIRING)
        );
        assert!(states.contains(&(ALERT_FIRING, ALERT_RESOLVED)));
        assert!(states.contains(&(ALERT_RESOLVED, ALERT_OK)));

        // And the exposition reflects the final state.
        let text = watch.render();
        assert!(text.contains("dvm_alert_state"));
        assert!(text.contains("objective=\"error-ratio\"} 0"));
    }

    #[test]
    fn rates_and_quantiles_are_queryable() {
        let telemetry = Arc::new(Telemetry::new("n"));
        let c = telemetry.registry().counter("reqs");
        let h = telemetry.registry().histogram("lat");
        let watch = Watch::new(telemetry, WatchConfig::default());
        watch.tick_at(0);
        c.add(50);
        for _ in 0..50 {
            h.record(10_000);
        }
        watch.tick_at(SEC);
        assert!((watch.rate("reqs", SEC) - 50.0).abs() < 1e-9);
        let p99 = watch.quantile("lat", 0.99, SEC);
        assert!((9_000..=11_000).contains(&p99), "p99 {p99}");
    }
}
