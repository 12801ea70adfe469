//! The benchmark's contract: workloads, end-to-end metrics with their
//! bounds, and per-layer metrics. `BENCHMARK.json` at the repository
//! root states the same tables; a unit test keeps the two in step.

use crate::stats::Better;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdRewrite,
    WarmFetch,
    DiskChurn,
    ClientRun,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdRewrite,
        Workload::WarmFetch,
        Workload::DiskChurn,
        Workload::ClientRun,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdRewrite => "cold_rewrite",
            Workload::WarmFetch => "warm_fetch",
            Workload::DiskChurn => "disk_churn",
            Workload::ClientRun => "client_run",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one line (`BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdRewrite => {
                "every op is the first request for a class: the rewrite pipeline the shared proxy pays once does ~95% of the work"
            }
            Workload::WarmFetch => {
                "every op is a memory-tier hit with Zipf popularity: frame codec, reactor, serve-path locks and signature check are the whole cost"
            }
            Workload::DiskChurn => {
                "a restarted cluster serves a working set 2x its memory tier: disk-tier reads beside misses that rewrite and append to the store"
            }
            Workload::ClientRun => {
                "fresh DvmClients launch and run the five Figure-5 apps against a warm cluster: fetch, verify, link, then the interpreter"
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Layers are the crates on the request path. `*_us` values are medians
/// of harness-side spans around the named public call; counts are
/// registry or `stats()` deltas over the timed rounds, per round.
pub const PER_LAYER: [PerLayer; 57] = [
    layer("classfile.parse_us", "us", Lower),
    layer("classfile.write_us", "us", Lower),
    layer("classfile.parse_mb_per_s", "MB/s", Higher),
    layer("verifier.verify_us", "us", Lower),
    layer("security.rewrite_us", "us", Lower),
    layer("monitor.audit_us", "us", Lower),
    layer("monitor.sites", "count", Lower),
    layer("exec.compile_us", "us", Lower),
    layer("exec.encode_us", "us", Lower),
    layer("exec.decode_us", "us", Lower),
    layer("exec.ir_bytes_per_class_byte", "ratio", Lower),
    layer("compiler.produce_us", "us", Lower),
    layer("compiler.cache_hits", "count", Higher),
    layer("proxy.handle_miss_us", "us", Lower),
    layer("proxy.handle_hit_us", "us", Lower),
    layer("proxy.handle_disk_us", "us", Lower),
    layer("proxy.sign_us", "us", Lower),
    layer("proxy.verify_sig_us", "us", Lower),
    layer("proxy.md5_mb_per_s", "MB/s", Higher),
    layer("proxy.rewrites", "count", Lower),
    layer("proxy.hit_memory", "count", Higher),
    layer("proxy.hit_disk", "count", Lower),
    layer("proxy.miss", "count", Lower),
    layer("proxy.peer_fills", "count", Lower),
    layer("proxy.accounted_ratio", "ratio", Higher),
    layer("store.put_us", "us", Lower),
    layer("store.get_us", "us", Lower),
    layer("store.open_ms", "ms", Lower),
    layer("store.appends", "count", Lower),
    layer("store.reads", "count", Lower),
    layer("store.fsyncs", "count", Lower),
    layer("store.compactions", "count", Lower),
    layer("net.encode_us", "us", Lower),
    layer("net.decode_us", "us", Lower),
    layer("net.roundtrip_us", "us", Lower),
    layer("net.bytes_out_per_op", "B", Lower),
    layer("net.frames_in_per_op", "count", Lower),
    layer("net.client_retries", "count", Lower),
    layer("reactor.wakeup_p50_us", "us", Lower),
    layer("reactor.events_per_iter", "count", Higher),
    layer("reactor.backpressure_stalls", "count", Lower),
    layer("cluster.fetch_us", "us", Lower),
    layer("cluster.route_ns", "ns", Lower),
    layer("cluster.failovers", "count", Lower),
    layer("cluster.non_home_serves", "count", Lower),
    layer("core.launch_ms", "ms", Lower),
    layer("core.launch_class_us", "us", Lower),
    layer("core.ir_installs", "count", Higher),
    layer("jvm.minsn_per_s", "1e6/s", Higher),
    layer("jvm.interp_minsn_per_s", "1e6/s", Higher),
    layer("jvm.ir_minsn_per_s", "1e6/s", Higher),
    layer("jvm.ir_dispatch_share", "ratio", Higher),
    layer("harness.round_median_ratio", "ratio", Higher),
    layer("harness.unaccounted_ratio", "ratio", Lower),
    layer("harness.trace_overhead_ratio", "ratio", Higher),
    layer("harness.clients", "count", Higher),
    layer("harness.check_us", "us", Lower),
];

/// Why the loop is closed and what the figures cover; printed with
/// every result.
pub const LOAD_MODEL: &str = "closed loop: each driver thread owns one blocking client and sends \
its next request only when the previous reply is verified; server, clients and harness share one \
process and traffic crosses the loopback interface only";

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn benchmark_json_states_the_same_tables() {
        let json = benchmark_json();
        for w in Workload::ALL {
            let row = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why());
            assert!(json.contains(&row), "workload row missing: {row}");
            assert!(w.why().len() <= 200);
        }
        for m in END_TO_END {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(json.contains(&row), "end-to-end row missing: {row}");
            assert!(m.bound <= 0.25);
        }
        for m in PER_LAYER {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(json.contains(&row), "per-layer row missing: {row}");
        }
        let rows = json.matches("{\"name\": ").count();
        assert_eq!(
            rows,
            Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert_eq!(Workload::parse("warm_fetch"), Some(Workload::WarmFetch));
        assert_eq!(Workload::parse("nope"), None);
    }
}
