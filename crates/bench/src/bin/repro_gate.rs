//! The perf regression gate (ROADMAP item 5b): one binary that reads
//! every `BENCH_*.json` a CI run produced, compares the gated scalar
//! against its committed `BENCH_*.baseline.json`, and fails the build
//! on a >15% regression — replacing the per-bench inline scripts that
//! used to live in the workflow file.
//!
//! The gate table below is the single source of truth for what is
//! gated and how:
//!
//! * **higher-is-better** scalars (speedups, hit rates) fail when the
//!   current value drops below `baseline × (1 − tolerance)`;
//! * **lower-is-better** scalars (latencies) fail when the current
//!   value rises above `baseline × (1 + tolerance)`, except below an
//!   absolute noise floor where run-to-run jitter outweighs any real
//!   signal;
//! * **ceilings** are absolute acceptance bars that hold regardless of
//!   the baseline (the sampler-overhead ≤ 2% contract).
//!
//! Exit status is the verdict: 0 when every gate passes, 1 otherwise,
//! with a table of every comparison either way.

use std::process::ExitCode;

use dvm_bench::{Json, Table};

/// Which direction of drift counts as a regression.
#[derive(Clone, Copy, PartialEq)]
enum Better {
    Higher,
    Lower,
}

struct Gate {
    /// `BENCH_<bench>.json` / `BENCH_<bench>.baseline.json`.
    bench: &'static str,
    /// Top-level scalar key inside both files.
    metric: &'static str,
    better: Better,
    /// Relative drift allowed against the baseline; `None` disables the
    /// baseline comparison (the gate is ceiling-only).
    tolerance: Option<f64>,
    /// Absolute bar the current value must stay under, baseline or not.
    ceiling: Option<f64>,
    /// Lower-is-better only: values at or under this pass outright —
    /// loopback latencies this small are jitter, not regressions.
    noise_floor: Option<f64>,
}

const DEFAULT_TOLERANCE: f64 = 0.15;

const GATES: &[Gate] = &[
    Gate {
        bench: "exec",
        metric: "overall_speedup",
        better: Better::Higher,
        tolerance: Some(DEFAULT_TOLERANCE),
        ceiling: None,
        noise_floor: None,
    },
    Gate {
        bench: "membership",
        metric: "warm_hit_rate",
        better: Better::Higher,
        tolerance: Some(DEFAULT_TOLERANCE),
        ceiling: None,
        noise_floor: None,
    },
    Gate {
        // Distinct probe edges the quick fuzzing session covers; a
        // probe-threading or seed-corpus regression drops it well
        // before it costs a missed bug.
        bench: "fuzz",
        metric: "edges_total",
        better: Better::Higher,
        tolerance: Some(DEFAULT_TOLERANCE),
        ceiling: None,
        noise_floor: None,
    },
    Gate {
        // Request rate at the C10K rung. Wide tolerance: the rung is
        // ten thousand connects on a shared box, noisy even at
        // best-of-3, and the real signal (the event loop collapsing
        // toward a thread per connection, ~10x slower) is far larger.
        // The rung's `p99_us_c10k` is reported but not gated: on a
        // 2-core box quick runs read anywhere from 1.4 to 71 ms.
        bench: "net",
        metric: "req_per_s_c10k",
        better: Better::Higher,
        tolerance: Some(0.5),
        ceiling: None,
        noise_floor: None,
    },
    Gate {
        bench: "watch",
        metric: "sampler_overhead_pct",
        better: Better::Lower,
        tolerance: None,
        ceiling: Some(2.0),
        noise_floor: None,
    },
    Gate {
        bench: "watch",
        metric: "scrape_p99_us",
        better: Better::Lower,
        tolerance: Some(DEFAULT_TOLERANCE),
        ceiling: None,
        noise_floor: Some(5_000.0),
    },
];

/// Reads one scalar out of a `BENCH_*.json` file.
fn scalar(path: &str, key: &str) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e} (run the bench first)"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    json.get(key)
        .and_then(Json::num)
        .ok_or_else(|| format!("{path}: no numeric {key:?}"))
}

fn main() -> ExitCode {
    let mut t = Table::new(&["Bench", "Metric", "Baseline", "Current", "Limit", "Verdict"]);
    let mut failures = 0usize;

    for gate in GATES {
        let current = match scalar(&format!("BENCH_{}.json", gate.bench), gate.metric) {
            Ok(v) => v,
            Err(e) => {
                failures += 1;
                t.row(&[
                    gate.bench.into(),
                    gate.metric.into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("FAIL: {e}"),
                ]);
                continue;
            }
        };

        let mut limits: Vec<String> = Vec::new();
        let mut verdicts: Vec<String> = Vec::new();
        let mut baseline_cell = "-".to_owned();

        if let Some(ceiling) = gate.ceiling {
            limits.push(format!("<= {ceiling}"));
            if current > ceiling {
                verdicts.push(format!("over the {ceiling} ceiling"));
            }
        }

        if let Some(tolerance) = gate.tolerance {
            match scalar(&format!("BENCH_{}.baseline.json", gate.bench), gate.metric) {
                Err(e) => verdicts.push(e),
                Ok(baseline) => {
                    baseline_cell = format!("{baseline:.3}");
                    match gate.better {
                        Better::Higher => {
                            let floor = baseline * (1.0 - tolerance);
                            limits.push(format!(">= {floor:.3}"));
                            if current < floor {
                                verdicts.push(format!(
                                    "regressed more than {:.0}% (< {floor:.3})",
                                    tolerance * 100.0
                                ));
                            }
                        }
                        Better::Lower => {
                            let limit = baseline * (1.0 + tolerance);
                            limits.push(format!("<= {limit:.3}"));
                            let in_noise = gate.noise_floor.is_some_and(|f| current <= f);
                            if current > limit && !in_noise {
                                verdicts.push(format!(
                                    "regressed more than {:.0}% (> {limit:.3})",
                                    tolerance * 100.0
                                ));
                            }
                        }
                    }
                }
            }
        }

        let failed = !verdicts.is_empty();
        failures += usize::from(failed);
        t.row(&[
            gate.bench.into(),
            gate.metric.into(),
            baseline_cell,
            format!("{current:.3}"),
            limits.join(", "),
            if failed {
                format!("FAIL: {}", verdicts.join("; "))
            } else {
                "ok".into()
            },
        ]);
    }

    t.print();
    if failures > 0 {
        eprintln!("\n{failures} perf gate(s) failed");
        ExitCode::FAILURE
    } else {
        println!("\nall perf gates passed");
        ExitCode::SUCCESS
    }
}
