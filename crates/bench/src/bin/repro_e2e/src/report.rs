//! From measurements to named metrics, and the lines the run prints.

use std::fmt::Write as _;

use crate::corpus::Iterations;
use crate::replay::Replayed;
use crate::run::{across_rounds, pass_minsn_per_s, pass_walls_ms, round_median_ratio, Measured};
use crate::spec::{Workload, END_TO_END, LOAD_MODEL, PER_LAYER};
use crate::stats::{fast_quartile, median, Better};
use crate::sys;

/// A named value with its unit and better direction, in table order.
pub type Metrics = Vec<(&'static str, f64, &'static str, Better)>;

/// The end-to-end metrics, from the untraced rounds: per-round values
/// reduced to their fast-side quartile across rounds.
pub fn end_to_end(m: &Measured) -> Metrics {
    END_TO_END
        .iter()
        .map(|e| {
            let value = match e.name {
                "setup_s" => m.setup_s,
                "peak_rss_mb" => m.peak_rss_mb,
                "ops_per_s" => across_rounds(&m.rounds, e.better, |r| r.ops_per_s()),
                "cpu_us_per_op" => across_rounds(&m.rounds, e.better, |r| {
                    r.cpu_us as f64 / (r.ops - r.failed).max(1) as f64
                }),
                "p50_us" => across_rounds(&m.rounds, e.better, |r| r.p50_us),
                "p99_us" => across_rounds(&m.rounds, e.better, |r| r.p99_us),
                other => unreachable!("no end-to-end metric named {other}"),
            };
            (e.name, value, e.unit, e.better)
        })
        .collect()
}

/// Every per-layer metric: counts from the run's registries (per timed
/// round), call timings from the layer replay.
pub fn per_layer(m: &Measured, r: &Replayed) -> Metrics {
    let rounds = (m.rounds.len() + m.traced_rounds.len()).max(1) as f64;
    let ops: f64 = m
        .rounds
        .iter()
        .chain(&m.traced_rounds)
        .map(|x| x.ops as f64)
        .sum::<f64>()
        .max(1.0);
    let server = |name: &str| m.server.get(name) / rounds;
    let client = |name: &str| m.client.get(name) / rounds;
    let untraced = across_rounds(&m.rounds, Better::Higher, |x| x.ops_per_s());
    let traced = across_rounds(&m.traced_rounds, Better::Higher, |x| x.ops_per_s());
    let launch_ms = fast_quartile(&pass_walls_ms(&m.passes, Iterations::Launch), Better::Lower);
    let launch_classes = median(
        &m.passes
            .iter()
            .filter(|p| p.iterations == Iterations::Launch)
            .map(|p| p.apps.iter().map(|a| a.classes as f64).sum())
            .collect::<Vec<f64>>(),
    );
    // The blocking steps an outside caller can time, against what the
    // untraced run saw: an op is a routed fetch plus, on a miss, the
    // rewrite; a launch is its classes fetched, parsed and linked.
    let p50 = across_rounds(&m.rounds, Better::Lower, |x| x.p50_us);
    let accounted = match m.workload {
        Workload::ColdRewrite => (r.get("cluster.fetch_us") + r.get("proxy.handle_miss_us")) / p50,
        Workload::WarmFetch => r.get("cluster.fetch_us") / p50,
        Workload::DiskChurn => {
            (r.get("cluster.fetch_us") - r.get("proxy.handle_hit_us")
                + r.get("proxy.handle_disk_us"))
                / p50
        }
        Workload::ClientRun => {
            launch_classes * (r.get("cluster.fetch_us") + r.get("classfile.parse_us"))
                / (launch_ms * 1e3)
        }
    };
    let reactor_iters = server("reactor.loop_iterations").max(1.0);
    let wakeup = m
        .final_snapshot
        .histograms
        .get("reactor.wakeup_ns")
        .map_or(0.0, |h| h.quantile(0.5) as f64 / 1e3);
    let value = |name: &str| match name {
        "monitor.sites" => r.get(name),
        "compiler.cache_hits" => r.get(name),
        "proxy.rewrites" => server("proxy.rewrites"),
        "proxy.hit_memory" => server("proxy.cache.hit.memory"),
        "proxy.hit_disk" => server("proxy.cache.hit.disk"),
        "proxy.miss" => server("proxy.cache.miss"),
        "proxy.peer_fills" => server("proxy.peer.fills"),
        "store.open_ms" => m.store_open_ms,
        "store.appends" | "store.reads" | "store.fsyncs" | "store.compactions" => server(name),
        "net.bytes_out_per_op" => m.server.get("net.server.bytes_out") / ops,
        "net.frames_in_per_op" => m.server.get("net.server.frames_in") / ops,
        "net.client_retries" => client("net.client.retries"),
        "reactor.wakeup_p50_us" => wakeup,
        "reactor.events_per_iter" => server("reactor.events_total") / reactor_iters,
        "reactor.backpressure_stalls" => server("reactor.backpressure_stalls_total"),
        "cluster.failovers" | "cluster.non_home_serves" => client(name),
        "core.launch_ms" => launch_ms,
        "core.launch_class_us" => launch_ms * 1e3 / launch_classes.max(1.0),
        "jvm.minsn_per_s" => fast_quartile(&pass_minsn_per_s(&m.passes), Better::Higher),
        "core.ir_installs" => client("client.ir_installs"),
        "harness.round_median_ratio" => round_median_ratio(&m.rounds),
        "harness.unaccounted_ratio" => 1.0 - accounted,
        "harness.trace_overhead_ratio" => traced / untraced,
        "harness.clients" => m.threads as f64,
        // Everything else is a timing the replay took.
        other => r.get(other),
    };
    PER_LAYER
        .iter()
        .map(|l| (l.name, value(l.name), l.unit, l.better))
        .collect()
}

/// A JSON number with all the digits measured (finite by construction;
/// a non-finite value would mean a metric had no samples).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The run's context, printed before the result line.
pub fn run_line(m: &Measured, seed: u64, seconds: f64, trace: bool) -> String {
    format!(
        "{{\"run\": {{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"nproc\": {}, \"clients\": {}, \"shards\": {}, \"rounds\": {}, \
         \"traced_rounds\": {}, \"ops_per_round\": {}, \"loopback\": true, \
         \"sequence_hash\": \"{:016x}\", \"load_model\": \"{LOAD_MODEL}\", \
         \"why\": \"{}\"}}}}",
        m.workload.name(),
        sys::nproc(),
        m.threads,
        crate::site::SHARDS,
        m.rounds.len(),
        m.traced_rounds.len(),
        m.ops_per_round,
        m.sequence_hash,
        m.workload.why(),
    )
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(m: &Measured, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        correct(m),
        m.attempted,
        m.failed
    );
    for (i, (name, value, unit, _)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        );
    }
    out.push_str("}}");
    out
}

/// Correct means no op failed and no identity or byte check was breached.
pub fn correct(m: &Measured) -> bool {
    m.failed == 0 && m.breaches.is_empty()
}

/// A table for people, on standard error.
pub fn print_table(title: &str, metrics: &Metrics) {
    eprintln!("{title}");
    for (name, value, unit, better) in metrics {
        eprintln!(
            "  {name:<32} {value:>16.4} {unit:<6} ({} is better)",
            better.as_str()
        );
    }
}
