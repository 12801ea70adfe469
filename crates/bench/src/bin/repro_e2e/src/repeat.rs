//! `--repeat K`: the workload K times in fresh child processes, one
//! seed each, and for every end-to-end metric the values, their spread
//! and PASS/FAIL against the metric's bound — the repeatability check
//! the benchmark's bounds were set with.

use std::process::Command;

use crate::run::Args;
use crate::spec::END_TO_END;
use crate::stats::{median, quantile};

/// The number after `"<name>": {"value": ` in a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

pub fn repeat(args: &Args, times: usize) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let mut lines = Vec::with_capacity(times);
    for k in 0..times as u64 {
        let output = Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &(args.seed + k).to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"])
            .output()
            .map_err(|e| format!("starting run {k}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or_default().to_owned();
        if !output.status.success() || !line.contains("\"correct\": true") {
            return Err(format!(
                "run {k} failed ({}): {line}\n{}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        eprintln!("run {k} (seed {}) done", args.seed + k);
        lines.push(line);
    }
    let mut all_pass = true;
    println!("{} x{times}, seeds {}..", args.workload.name(), args.seed);
    for metric in END_TO_END {
        let values: Vec<f64> = lines
            .iter()
            .map(|l| {
                metric_value(l, metric.name)
                    .ok_or_else(|| format!("no {} in a result line", metric.name))
            })
            .collect::<Result<_, _>>()?;
        let mid = median(&values);
        // The driver's rule: interquartile distance as a share of the
        // median. Set-up time is exempt from it.
        let iqr = (quantile(&values, 0.75) - quantile(&values, 0.25)) / mid;
        let range = values.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
            - values.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        let pass = iqr <= metric.bound || metric.name == "setup_s";
        all_pass &= pass;
        println!(
            "{:<14} median {mid:>12.4} {:<6} iqr/median {iqr:.4} range/median {:.4} bound {} {} {values:?}",
            metric.name,
            metric.unit,
            range / mid,
            metric.bound,
            if pass { "PASS" } else { "FAIL" },
        );
    }
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_value_reads_a_result_line() {
        let line = r#"{"correct": true, "attempted": 9, "failed": 0, "metrics": {"setup_s": {"value": 2.5, "unit": "s"}, "p50_us": {"value": 101.25, "unit": "us"}}}"#;
        assert_eq!(metric_value(line, "setup_s"), Some(2.5));
        assert_eq!(metric_value(line, "p50_us"), Some(101.25));
        assert_eq!(metric_value(line, "p99_us"), None);
    }
}
