//! Continuous observability: what the watch plane costs the data plane.
//!
//! `dvm-watch` promises that sampling, SLO evaluation, and the export
//! plane are cheap enough to leave on in production: the sampler runs
//! on its own thread against lock-free counter snapshots, and a scrape
//! is a render over already-collected rings, never a walk of the hot
//! path. This bench measures both promises against a live 3-shard
//! cluster:
//!
//! 1. **sampler overhead** — warm-fetch p50 with no watch attached vs
//!    with a deliberately aggressive 25 ms sampler (40× the default
//!    rate) plus one SLO objective per shard; the acceptance bar is
//!    ≤ 2% on the fetch hot path;
//! 2. **scrape latency** — `GET /metrics` over HTTP and
//!    a `metrics://` read over the wire, p50/p99 per scrape, each body
//!    parsed back through `expo::parse` so a malformed exposition
//!    fails the bench rather than the consumer.
//!
//! `--quick` shrinks passes/scrapes (CI smoke); `--json` additionally
//! writes `BENCH_watch.json` with `sampler_overhead_pct` and
//! `scrape_p99_us` as the scalars `repro_gate` reads.

use std::time::Instant;

use dvm_bench::{Json, Table};
use dvm_cluster::{ClusterClassProvider, ClusterClientConfig, ClusterOptions, ProxyCluster};
use dvm_core::{CostModel, Organization, ServiceConfig};
use dvm_net::{fetch_metrics_text, Hello, NetConfig};
use dvm_proxy::Signer;
use dvm_security::Policy;
use dvm_watch::{expo, http_get, Objective, WatchConfig};
use dvm_workload::corpus;

const SEED: u64 = 0x000B_5E21;
const SEC: u64 = 1_000_000_000;

fn hello(user: &str) -> Hello {
    Hello {
        user: user.to_owned(),
        principal: "applets".to_owned(),
        hardware: "x86/200MHz/64MB".to_owned(),
        native_format: "x86".to_owned(),
        jvm_version: "dvm-repro-0.1".to_owned(),
    }
}

fn build_org(applet_count: usize) -> (Organization, Vec<String>) {
    // Smallest applets first: the bench measures the observability
    // plane's drag on the cache-hit path, not the rewrite pipeline.
    let mut applets = corpus(29);
    applets.sort_by_key(|a| {
        a.classes
            .iter()
            .map(|c| c.clone().to_bytes().unwrap().len())
            .sum::<usize>()
    });
    applets.truncate(applet_count);
    let classes: Vec<_> = applets
        .iter()
        .flat_map(|a| a.classes.iter().cloned())
        .collect();
    let urls: Vec<String> = classes
        .iter()
        .map(|c| format!("class://{}", c.name().unwrap()))
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
    (org, urls)
}

fn provider_for(cluster: &ProxyCluster) -> ClusterClassProvider {
    ClusterClassProvider::new(
        cluster.addrs().to_vec(),
        cluster.ring().clone(),
        hello("watch-bench"),
        Some(Signer::new(b"dvm-org-key")),
        ClusterClientConfig::default(),
    )
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (applet_count, passes, scrapes) = if quick { (2, 60, 60) } else { (3, 200, 200) };

    let (org, urls) = build_org(applet_count);
    println!(
        "continuous observability: sampler drag and scrape latency ({} urls, {} passes, {} scrapes{})",
        urls.len(),
        passes,
        scrapes,
        if quick { ", --quick" } else { "" }
    );
    println!("(real sockets; the watched cluster samples every 25 ms — 40x the default rate)\n");

    // --- phases 1+2: the fetch hot path, bare vs watched -----------------
    // Both clusters are live at once and the timed fetches interleave
    // fetch-by-fetch, so machine drift (frequency scaling, background
    // load) lands on both sides of the comparison equally. The watched
    // side carries one SLO objective per shard so alert evaluation is
    // part of the bill.
    let bare = org
        .serve_cluster_with(
            3,
            ClusterOptions {
                seed: SEED,
                ..ClusterOptions::default()
            },
        )
        .unwrap();
    let watch_config = WatchConfig {
        interval_ns: 25_000_000,
        objectives: vec![Objective::error_ratio(
            "proxy-miss-ratio",
            "proxy.cache.miss",
            "proxy.requests",
            0.99,
            2 * SEC,
            6 * SEC,
        )],
        ..WatchConfig::default()
    };
    let watched = org
        .serve_cluster_with(
            3,
            ClusterOptions {
                seed: SEED,
                watch: Some(watch_config),
                metrics_http: true,
                ..ClusterOptions::default()
            },
        )
        .unwrap();

    let mut bare_provider = provider_for(&bare);
    let mut watched_provider = provider_for(&watched);
    for url in &urls {
        bare_provider.fetch(url).expect("warmup fetch");
        watched_provider.fetch(url).expect("warmup fetch");
    }
    let mut bare_ns: Vec<u64> = Vec::with_capacity(passes * urls.len());
    let mut watched_ns: Vec<u64> = Vec::with_capacity(passes * urls.len());
    for _ in 0..passes {
        for url in &urls {
            let t = Instant::now();
            bare_provider.fetch(url).expect("timed fetch");
            bare_ns.push(t.elapsed().as_nanos() as u64);
            let t = Instant::now();
            watched_provider.fetch(url).expect("timed fetch");
            watched_ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    bare_provider.close();
    watched_provider.close();
    bare.shutdown();
    bare_ns.sort_unstable();
    watched_ns.sort_unstable();

    // Medians, not totals: a handful of scheduler hiccups should not
    // decide a 2% verdict over thousands of ~40 µs fetches.
    let bare_p50 = percentile(&bare_ns, 0.50);
    let watched_p50 = percentile(&watched_ns, 0.50);
    let overhead_pct = ((watched_p50 as f64 - bare_p50 as f64) / bare_p50 as f64 * 100.0).max(0.0);

    // --- phase 3: scrape latency against the still-warm cluster ---------
    let http_addr = watched.metrics_addr(0).expect("metrics_http bound");
    let mut http_ns: Vec<u64> = Vec::with_capacity(scrapes);
    let mut body = String::new();
    for _ in 0..scrapes {
        let t = Instant::now();
        body = http_get(http_addr, "/metrics").expect("http scrape");
        http_ns.push(t.elapsed().as_nanos() as u64);
    }
    let samples = expo::parse(&body).expect("exposition parses");
    assert!(!samples.is_empty(), "scrape served an empty exposition");

    let mut wire_ns: Vec<u64> = Vec::with_capacity(scrapes);
    let mut wire = String::new();
    for _ in 0..scrapes {
        let t = Instant::now();
        wire = fetch_metrics_text(watched.addrs()[0], NetConfig::default()).expect("wire scrape");
        wire_ns.push(t.elapsed().as_nanos() as u64);
    }
    expo::parse(&wire).expect("wire exposition parses");
    watched.shutdown();
    http_ns.sort_unstable();
    wire_ns.sort_unstable();

    let mut t = Table::new(&["Path", "Samples", "p50 (us)", "p99 (us)"]);
    t.row(&[
        "fetch, no watch".into(),
        bare_ns.len().to_string(),
        format!("{:.1}", bare_p50 as f64 / 1e3),
        format!("{:.1}", percentile(&bare_ns, 0.99) as f64 / 1e3),
    ]);
    t.row(&[
        "fetch, 25 ms sampler".into(),
        watched_ns.len().to_string(),
        format!("{:.1}", watched_p50 as f64 / 1e3),
        format!("{:.1}", percentile(&watched_ns, 0.99) as f64 / 1e3),
    ]);
    t.row(&[
        "GET /metrics".into(),
        http_ns.len().to_string(),
        format!("{:.1}", percentile(&http_ns, 0.50) as f64 / 1e3),
        format!("{:.1}", percentile(&http_ns, 0.99) as f64 / 1e3),
    ]);
    t.row(&[
        "metrics:// (wire)".into(),
        wire_ns.len().to_string(),
        format!("{:.1}", percentile(&wire_ns, 0.50) as f64 / 1e3),
        format!("{:.1}", percentile(&wire_ns, 0.99) as f64 / 1e3),
    ]);
    t.print();
    println!(
        "\nsampler overhead on the fetch hot path: {overhead_pct:.2}% (p50 {bare_p50} → {watched_p50} ns)"
    );

    let scrape_p99_us = percentile(&http_ns, 0.99) as f64 / 1e3;
    dvm_bench::emit_json(
        "watch",
        &[("latency", &t)],
        &[
            ("seed", Json::Num(SEED as f64)),
            ("fetches", Json::Num(bare_ns.len() as f64)),
            ("sampler_interval_ms", Json::Num(25.0)),
            ("sampler_overhead_pct", Json::Num(overhead_pct)),
            (
                "scrape_p50_us",
                Json::Num(percentile(&http_ns, 0.50) as f64 / 1e3),
            ),
            ("scrape_p99_us", Json::Num(scrape_p99_us)),
            (
                "wire_scrape_p99_us",
                Json::Num(percentile(&wire_ns, 0.99) as f64 / 1e3),
            ),
            ("exposition_samples", Json::Num(samples.len() as f64)),
        ],
    );

    assert!(
        overhead_pct <= 2.0,
        "sampler overhead {overhead_pct:.2}% > 2% on the fetch hot path"
    );
    println!("all watch invariants held");
}
