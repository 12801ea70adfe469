//! Fleet health console: the stats and watch planes end to end.
//!
//! Stands up a three-shard `ProxyCluster` with per-shard watches,
//! drives a fleet of DVM clients through it, then plays operator:
//! reads every shard's `stats://` over the wire, renders a fleet
//! health table (per-shard requests, cache tiers, wire traffic,
//! latency quantiles), prints one distributed trace as a span tree,
//! runs a few top-style live refreshes off the time-series plane
//! (windowed rates, p99, SLO burn, alert state), kills a shard, pulls
//! again to show the collector marking it unreachable while the merged
//! view keeps answering, and finally tails the survivors' event
//! journals — operator annotations included — with `events://` reads.
//! Every read is a session-less `CODE_REQUEST` for a plane URL.
//!
//! ```sh
//! cargo run --release --example stats_console
//! ```

use std::time::Duration;

use dvm_cluster::{collect_fleet_stats, ClusterOptions, FleetStats};
use dvm_core::{CostModel, Organization, ServiceConfig};
use dvm_net::{fetch_events, NetConfig};
use dvm_security::Policy;
use dvm_telemetry::{JournalKind, Span, SpanId};
use dvm_watch::{http_get, Objective, WatchConfig};
use dvm_workload::corpus;

const SEC: u64 = 1_000_000_000;

/// One histogram quantile rendered in microseconds.
fn quantile_us(report: &dvm_telemetry::StatsReport, name: &str, q: f64) -> String {
    match report.metrics.histograms.get(name) {
        Some(h) if h.count > 0 => format!("{:.0}", h.quantile(q) as f64 / 1_000.0),
        _ => "-".into(),
    }
}

fn counter(report: &dvm_telemetry::StatsReport, name: &str) -> u64 {
    report.metrics.counters.get(name).copied().unwrap_or(0)
}

fn health_table(fleet: &FleetStats) {
    println!(
        "{:<8} {:<11} {:>8} {:>7} {:>7} {:>9} {:>10} {:>9} {:>9}",
        "shard",
        "status",
        "requests",
        "mem-hit",
        "rewrite",
        "frames-in",
        "frames-out",
        "p50(us)",
        "p99(us)"
    );
    println!("{}", "-".repeat(88));
    for (i, shard) in fleet.shards.iter().enumerate() {
        match &shard.report {
            Some(r) => println!(
                "{:<8} {:<11} {:>8} {:>7} {:>7} {:>9} {:>10} {:>9} {:>9}",
                format!("{} ({})", i, r.node),
                "up",
                counter(r, "proxy.requests"),
                counter(r, "proxy.cache.hit.memory"),
                counter(r, "proxy.rewrites"),
                counter(r, "net.server.frames_in"),
                counter(r, "net.server.frames_out"),
                quantile_us(r, "net.server.serve_ns", 0.5),
                quantile_us(r, "net.server.serve_ns", 0.99),
            ),
            None => println!(
                "{:<8} {:<11} {}",
                i,
                "UNREACHABLE",
                shard.error.as_deref().unwrap_or("?")
            ),
        }
    }
    println!(
        "fleet:   {} shards up; merged: {} requests, {} rewrites, {} cache hits (mem+disk)\n",
        fleet.reachable(),
        fleet.merged.counters.get("proxy.requests").unwrap_or(&0),
        fleet.merged.counters.get("proxy.rewrites").unwrap_or(&0),
        fleet
            .merged
            .counters
            .get("proxy.cache.hit.memory")
            .unwrap_or(&0)
            + fleet
                .merged
                .counters
                .get("proxy.cache.hit.disk")
                .unwrap_or(&0),
    );
}

/// Prints `span` and its descendants as an indented tree.
fn print_tree(spans: &[Span], parent: SpanId, depth: usize) {
    let mut children: Vec<&Span> = spans.iter().filter(|s| s.parent == parent).collect();
    children.sort_by_key(|s| s.start_ns);
    for s in children {
        println!(
            "{:indent$}{:<28} [{}] {:.1}us",
            "",
            s.name,
            s.node,
            s.duration_ns as f64 / 1_000.0,
            indent = depth * 2
        );
        print_tree(spans, s.id, depth + 1);
    }
}

fn main() {
    let mut applets = corpus(7);
    applets.truncate(4);
    let classes: Vec<_> = applets
        .iter()
        .flat_map(|a| a.classes.iter().cloned())
        .collect();
    let mut services = ServiceConfig::dvm();
    services.signing = true;
    let org = Organization::new(
        &classes,
        Policy::parse(dvm_security::policy::example_policy()).unwrap(),
        services,
        CostModel::default(),
    )
    .unwrap();

    // Per-shard watches: a 100 ms sampler, one latency SLO (serve p99
    // under 2 ms — tight enough that the cold-start rewrite burst
    // visibly fires the alert in the live view), and an HTTP /metrics
    // listener per shard.
    let mut cluster = org
        .serve_cluster_with(
            3,
            ClusterOptions {
                watch: Some(WatchConfig {
                    interval_ns: 100_000_000,
                    objectives: vec![Objective::latency_p99(
                        "serve-p99",
                        "net.server.serve_ns",
                        2_000_000,
                        2 * SEC,
                        6 * SEC,
                    )],
                    ..WatchConfig::default()
                }),
                metrics_http: true,
                ..ClusterOptions::default()
            },
        )
        .unwrap();
    println!("cluster of {} shards up\n", cluster.len());

    // Drive a fleet through the cluster; keep one client's telemetry so
    // the console can show a trace rooted at the client.
    let mut clients: Vec<_> = (0..4)
        .map(|i| {
            org.cluster_client(&cluster, &format!("user{i}"), "applets")
                .unwrap()
        })
        .collect();
    for (i, client) in clients.iter_mut().enumerate() {
        client
            .run_main(&applets[i % applets.len()].main_class)
            .unwrap();
    }

    println!("-- fleet health (read from stats://?spans=1) --");
    let fleet = collect_fleet_stats(cluster.addrs(), NetConfig::default(), true);
    health_table(&fleet);

    // One distributed trace: the client's root span plus whatever the
    // shards recorded under the same trace id.
    let client_telemetry = clients[0].telemetry();
    let client_spans = client_telemetry.recorder().dump();
    if let Some(root) = client_spans.iter().find(|s| s.name == "cluster.fetch") {
        let mut spans: Vec<Span> = client_spans
            .iter()
            .filter(|s| s.trace == root.trace)
            .cloned()
            .collect();
        for shard in &fleet.shards {
            if let Some(r) = &shard.report {
                spans.extend(r.spans.iter().filter(|s| s.trace == root.trace).cloned());
            }
        }
        println!("-- one trace ({} spans) --", spans.len());
        print_tree(&spans, SpanId::NONE, 0);
        println!();
    }

    // The live view: three top-style refreshes off the time-series
    // plane — windowed rates and quantiles from each shard's sampler,
    // SLO burn and alert state from its objective — while traffic runs.
    println!("-- live watch (3 refreshes, 2s window) --");
    for frame in 0..3 {
        for (i, client) in clients.iter_mut().enumerate() {
            client
                .run_main(&applets[(frame + i) % applets.len()].main_class)
                .unwrap();
        }
        std::thread::sleep(Duration::from_millis(250));
        println!(
            "{:<8} {:>8} {:>9} {:>10} {:>10} {:>9}",
            "shard", "req/s", "p99(us)", "burn-fast", "burn-slow", "alert"
        );
        for i in 0..cluster.len() {
            let Some(watch) = cluster.watch(i) else {
                continue;
            };
            let alert = &watch.alerts()[0];
            println!(
                "{:<8} {:>8.1} {:>9.0} {:>10.2} {:>10.2} {:>9}",
                i,
                watch.rate("proxy.requests", 2 * SEC),
                watch.quantile("net.server.serve_ns", 0.99, 2 * SEC) as f64 / 1_000.0,
                alert.fast_burn,
                alert.slow_burn,
                alert.state.label(),
            );
        }
        println!();
    }

    // The same plane, as an external scraper sees it.
    if let Some(addr) = cluster.metrics_addr(0) {
        let body = http_get(addr, "/metrics").unwrap();
        println!("-- GET http://{addr}/metrics (first lines) --");
        for line in body.lines().take(8) {
            println!("{line}");
        }
        println!("...\n");
    }

    // Operator's bad day: a shard dies. Fresh clients (cold VM class
    // caches, so they really fetch) fail over to the survivors; the
    // collector says which shard is gone. The annotation goes into the
    // survivors' journals so the tail below shows when and why.
    for i in [0, 2] {
        if let Some(t) = cluster.shard_telemetry(i) {
            t.record_event(JournalKind::Note {
                text: "operator: killing shard 1 for the demo".into(),
            });
        }
    }
    cluster.kill_shard(1).unwrap();
    for (i, a) in applets.iter().enumerate() {
        let mut late = org
            .cluster_client(&cluster, &format!("late{i}"), "applets")
            .unwrap();
        late.run_main(&a.main_class).unwrap();
        clients.push(late);
    }
    println!("-- after killing shard 1 --");
    let fleet = collect_fleet_stats(
        cluster.addrs(),
        NetConfig {
            connect_timeout: std::time::Duration::from_millis(300),
            ..NetConfig::default()
        },
        false,
    );
    health_table(&fleet);

    // The client-side breaker state is part of the same plane.
    let report = clients.last().unwrap().telemetry().report();
    println!(
        "late client: {} fetches, {} failovers, breaker opened {} time(s), {} circuit(s) open now",
        counter(&report, "cluster.requests"),
        counter(&report, "cluster.failovers"),
        counter(&report, "cluster.breaker.opened"),
        report
            .metrics
            .gauges
            .get("cluster.breaker.open_now")
            .copied()
            .unwrap_or(0),
    );

    // Tail the survivors' structured event journals over the wire: the
    // operator annotation plus whatever the watch plane recorded.
    println!("\n-- journal tail (events://?after=0&max=32) --");
    for i in [0usize, 2] {
        let (events, next) = fetch_events(cluster.addrs()[i], NetConfig::default(), 0, 32).unwrap();
        for e in &events {
            println!(
                "shard {i}  seq {:>3}  {:>9.3}s  {:<13} {:?}",
                e.seq,
                e.at_ns as f64 / 1e9,
                e.kind.label(),
                e.kind,
            );
        }
        println!("shard {i}: {} event(s), cursor now {next}", events.len());
    }
    cluster.shutdown();
}
