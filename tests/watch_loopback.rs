//! Continuous-observability acceptance over real sockets: a live
//! 3-shard cluster with per-shard watches must serve a parseable
//! `/metrics` exposition (HTTP and wire) that agrees with a
//! `stats://` read, an induced brownout must walk an SLO alert through
//! ok → firing → resolved visibly in both the event journal and the
//! scrape, and a killed-and-restarted shard's journal cursor tail must
//! resume without gaps.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dvm_repro::cluster::{ClusterClassProvider, ClusterClientConfig, ClusterOptions};
use dvm_repro::core::{CostModel, Organization, ServiceConfig};
use dvm_repro::net::{fetch_events, fetch_metrics_text, fetch_stats, Hello, NetConfig};
use dvm_repro::proxy::Signer;
use dvm_repro::security::Policy;
use dvm_repro::telemetry::{JournalKind, Telemetry};
use dvm_repro::watch::{expo, http_get, Objective, Watch, WatchConfig};
use dvm_repro::workload::{corpus, Applet};

const SEC: u64 = 1_000_000_000;

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dvm-watch-loopback-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn small_applets(seed: u64, n: usize) -> Vec<Applet> {
    let mut applets = corpus(seed);
    applets.sort_by_key(|a| {
        a.classes
            .iter()
            .map(|c| c.clone().to_bytes().unwrap().len())
            .sum::<usize>()
    });
    applets.truncate(n);
    applets
}

fn org_over(applets: &[Applet]) -> Organization {
    let classes: Vec<_> = applets
        .iter()
        .flat_map(|a| a.classes.iter().cloned())
        .collect();
    let mut services = ServiceConfig::dvm();
    services.signing = true;
    Organization::new(
        &classes,
        Policy::parse(dvm_repro::security::policy::example_policy()).unwrap(),
        services,
        CostModel::default(),
    )
    .unwrap()
}

fn hello(user: &str) -> Hello {
    Hello {
        user: user.to_owned(),
        principal: "applets".to_owned(),
        hardware: "x86/200MHz/64MB".to_owned(),
        native_format: "x86".to_owned(),
        jvm_version: "dvm-repro-0.1".to_owned(),
    }
}

fn class_urls(applets: &[Applet]) -> Vec<String> {
    applets
        .iter()
        .flat_map(|a| a.classes.iter())
        .map(|c| format!("class://{}", c.name().unwrap()))
        .collect()
}

fn watched_options() -> ClusterOptions {
    ClusterOptions {
        seed: 3,
        watch: Some(WatchConfig::default()),
        metrics_http: true,
        ..ClusterOptions::default()
    }
}

/// Pulls one sample value out of parsed exposition text.
fn sample(samples: &[(String, String, f64)], name: &str) -> Option<f64> {
    samples
        .iter()
        .find(|(n, _, _)| n == name)
        .map(|(_, _, v)| *v)
}

/// `GET /metrics` over HTTP and a `metrics://` read over the wire both
/// return parseable exposition whose proxy counters agree with what a
/// `stats://` read reports for the same shard.
#[test]
fn scrape_agrees_with_stats_request_on_every_shard() {
    let applets = small_applets(17, 3);
    let org = org_over(&applets);
    let urls = class_urls(&applets);
    let cluster = org.serve_cluster_with(3, watched_options()).unwrap();

    // Traffic first, so the counters have something to say.
    let mut provider = ClusterClassProvider::new(
        cluster.addrs().to_vec(),
        cluster.ring().clone(),
        hello("scrape"),
        Some(Signer::new(b"dvm-org-key")),
        ClusterClientConfig::default(),
    );
    for _ in 0..3 {
        for url in &urls {
            provider.fetch(url).unwrap();
        }
    }
    provider.close();

    for i in 0..cluster.len() {
        let http_addr = cluster.metrics_addr(i).expect("metrics_http bound");
        let body = http_get(http_addr, "/metrics").unwrap();
        let samples = expo::parse(&body).unwrap_or_else(|e| panic!("shard {i} scrape: {e}"));
        assert!(!samples.is_empty(), "shard {i} served an empty exposition");
        assert!(
            body.contains(&format!("node=\"shard{i}\"")),
            "shard {i} scrape is not labelled with its node"
        );

        // The wire-protocol scrape and the HTTP one render the same plane.
        let wire = fetch_metrics_text(cluster.addrs()[i], NetConfig::default()).unwrap();
        let wire_samples = expo::parse(&wire).unwrap();

        // Proxy-level counters only move on class requests, so a scrape
        // taken after the traffic stopped must agree exactly with
        // `stats://` read right after it.
        let report = fetch_stats(cluster.addrs()[i], NetConfig::default(), false).unwrap();
        for counter in ["proxy.requests", "proxy.rewrites", "proxy.cache.miss"] {
            let expected = report.metrics.counters.get(counter).copied().unwrap_or(0) as f64;
            let scraped = sample(&samples, &expo::sanitize(counter))
                .unwrap_or_else(|| panic!("shard {i} scrape lacks {counter}"));
            assert_eq!(
                scraped, expected,
                "shard {i}: scrape of {counter} disagrees with stats://"
            );
            let wired = sample(&wire_samples, &expo::sanitize(counter)).unwrap();
            assert_eq!(
                wired, expected,
                "shard {i}: wire scrape of {counter} disagrees with stats://"
            );
        }
    }
    cluster.shutdown();
}

/// An induced brownout (every shard killed under live traffic) drives
/// the error-ratio SLO through ok → firing → resolved, and every stage
/// is visible both in the event journal and in the rendered scrape.
#[test]
fn brownout_lifecycle_is_visible_in_journal_and_scrape() {
    let applets = small_applets(23, 2);
    let org = org_over(&applets);
    let urls = class_urls(&applets);
    let mut cluster = org.serve_cluster_with(3, watched_options()).unwrap();

    // The observer: a client-side watch over this test's own fetch
    // counters, ticked on a synthetic one-second clock so the alert
    // walk is deterministic.
    let telemetry = Arc::new(Telemetry::new("observer"));
    let errors = telemetry.registry().counter("fetch.errors");
    let total = telemetry.registry().counter("fetch.total");
    let watch = Watch::new(
        telemetry.clone(),
        WatchConfig {
            objectives: vec![Objective::error_ratio(
                "fetch-error-ratio",
                "fetch.errors",
                "fetch.total",
                0.1,
                2 * SEC,
                6 * SEC,
            )],
            ..WatchConfig::default()
        },
    );

    let fast = ClusterClientConfig {
        net: NetConfig {
            connect_timeout: std::time::Duration::from_millis(250),
            ..NetConfig::default()
        },
        rounds: 1,
        ..ClusterClientConfig::default()
    };
    let mut provider = ClusterClassProvider::new(
        cluster.addrs().to_vec(),
        cluster.ring().clone(),
        hello("brownout"),
        Some(Signer::new(b"dvm-org-key")),
        fast,
    );
    let mut now = 0u64;
    watch.tick_at(now);
    let batch = |provider: &mut ClusterClassProvider, n: usize, now: &mut u64| {
        for _ in 0..n {
            for url in &urls {
                total.inc();
                if provider.fetch(url).is_err() {
                    errors.inc();
                }
            }
            *now += SEC;
            watch.tick_at(*now);
        }
    };

    batch(&mut provider, 3, &mut now);
    assert!(
        watch
            .render()
            .contains("objective=\"fetch-error-ratio\"} 0"),
        "alert not ok while healthy"
    );

    for i in 0..cluster.len() {
        cluster.kill_shard(i);
    }
    batch(&mut provider, 6, &mut now);
    provider.close();
    let firing_scrape = watch.render();
    assert!(
        firing_scrape
            .contains("dvm_alert_state{node=\"observer\",objective=\"fetch-error-ratio\"} 2"),
        "scrape does not show the alert firing:\n{firing_scrape}"
    );

    for i in 0..cluster.len() {
        cluster.restart_shard(i).unwrap();
    }
    let mut provider = ClusterClassProvider::new(
        cluster.addrs().to_vec(),
        cluster.ring().clone(),
        hello("brownout"),
        Some(Signer::new(b"dvm-org-key")),
        fast,
    );
    batch(&mut provider, 12, &mut now);
    provider.close();
    let resolved_scrape = watch.render();
    assert!(
        resolved_scrape.contains("objective=\"fetch-error-ratio\"} 0"),
        "scrape does not show the alert back at ok:\n{resolved_scrape}"
    );

    // The journal holds the whole walk, in order.
    use dvm_repro::telemetry::events::{ALERT_FIRING, ALERT_OK, ALERT_RESOLVED};
    let transitions: Vec<(u8, u8)> = telemetry
        .journal()
        .events_after(0, 1000)
        .into_iter()
        .filter_map(|e| match e.kind {
            JournalKind::AlertTransition { from, to, .. } => Some((from, to)),
            _ => None,
        })
        .collect();
    assert!(
        transitions.iter().any(|&(_, to)| to == ALERT_FIRING),
        "journal never saw the alert fire: {transitions:?}"
    );
    assert!(
        transitions.contains(&(ALERT_FIRING, ALERT_RESOLVED)),
        "journal never saw firing → resolved: {transitions:?}"
    );
    assert!(
        transitions.contains(&(ALERT_RESOLVED, ALERT_OK)),
        "journal never saw resolved → ok: {transitions:?}"
    );

    cluster.shutdown();
}

/// A journal tail (`events://` reads with a cursor) against a persistent
/// shard resumes after a kill-and-restart with strictly increasing
/// sequence numbers and no gaps or duplicates.
#[test]
fn journal_cursor_tail_resumes_across_a_restart_without_gaps() {
    let applets = small_applets(31, 1);
    let org = org_over(&applets);
    let dir = TempDir::new();
    let mut opts = watched_options();
    opts.metrics_http = false;
    let mut cluster = org
        .serve_cluster_persistent(3, opts, dir.0.clone())
        .unwrap();

    let shard_telemetry = cluster.shard_telemetry(0).unwrap();
    for i in 0..5 {
        shard_telemetry.record_event(JournalKind::Note {
            text: format!("first-life-{i}"),
        });
    }

    // First tail page over the wire.
    let (page1, cursor) = fetch_events(cluster.addrs()[0], NetConfig::default(), 0, 1024).unwrap();
    assert!(page1.len() >= 5, "expected the five notes, got {page1:?}");

    // Kill and restart the shard; its journal is spooled through the
    // persistent store, and the restarted server answers on a new port.
    cluster.kill_shard(0);
    cluster.restart_shard(0).unwrap();
    for i in 0..5 {
        shard_telemetry.record_event(JournalKind::Note {
            text: format!("second-life-{i}"),
        });
    }

    let (page2, cursor2) =
        fetch_events(cluster.addrs()[0], NetConfig::default(), cursor, 1024).unwrap();
    assert!(
        !page2.is_empty(),
        "tail from cursor {cursor} saw nothing after the restart"
    );

    // Stitched together, the two pages are one gapless, duplicate-free,
    // strictly increasing sequence.
    let seqs: Vec<u64> = page1.iter().chain(page2.iter()).map(|e| e.seq).collect();
    for pair in seqs.windows(2) {
        assert_eq!(
            pair[1],
            pair[0] + 1,
            "journal tail gapped or duplicated: {seqs:?}"
        );
    }
    assert!(cursor2 > cursor, "cursor did not advance");
    let second_life: Vec<&str> = page2
        .iter()
        .filter_map(|e| match &e.kind {
            JournalKind::Note { text } => Some(text.as_str()),
            _ => None,
        })
        .collect();
    assert!(
        second_life.contains(&"second-life-0"),
        "post-restart events missing from the tail: {second_life:?}"
    );

    cluster.shutdown();
}

/// Pollers open no console session: plane reads and ring pulls are
/// session-less `CODE_REQUEST`s and `RING_UPDATE`s, so polling a fleet
/// leaves the console's session table exactly where it was.
#[test]
fn plane_reads_and_ring_pulls_open_no_console_session() {
    let applets = small_applets(37, 1);
    let org = org_over(&applets);
    let cluster = org.serve_cluster_with(2, watched_options()).unwrap();
    let mut provider = ClusterClassProvider::new(
        cluster.addrs().to_vec(),
        cluster.ring().clone(),
        hello("poller"),
        Some(Signer::new(b"dvm-org-key")),
        ClusterClientConfig::default(),
    );
    let ring_updates = || -> u64 {
        (0..cluster.len())
            .map(|i| cluster.shard_stats(i).map_or(0, |s| s.ring_updates))
            .sum()
    };
    let (sessions, pulls) = (org.console.lock().session_count(), ring_updates());

    let addr = cluster.addrs()[0];
    for _ in 0..200 {
        fetch_stats(addr, NetConfig::default(), false).unwrap();
    }
    for _ in 0..50 {
        fetch_metrics_text(addr, NetConfig::default()).unwrap();
    }
    for _ in 0..50 {
        fetch_events(addr, NetConfig::default(), 0, 16).unwrap();
    }
    assert!(!provider.sync_ring(), "the client's ring is current");
    assert_eq!(ring_updates(), pulls + 1, "sync_ring pulled no ring");

    assert_eq!(org.console.lock().session_count(), sessions);
    cluster.shutdown();
}
