//! `repro_e2e`: a repeatable wall-clock benchmark of the DVM request
//! path, end to end and layer by layer. See the README beside
//! `Cargo.toml` for the workloads, the metrics and how to read a trace.

mod clients;
mod corpus;
mod drive;
mod repeat;
mod replay;
mod report;
mod requests;
mod run;
mod site;
mod spec;
mod stats;
mod sys;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use run::{Args, Measured};
use spec::Workload;

const USAGE: &str = "usage: repro_e2e --workload <cold_rewrite|warm_fetch|disk_churn|client_run> \
[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] [--selfcheck] [--repeat K]";

enum Mode {
    Run,
    SelfCheck,
    Repeat(usize),
}

fn parse(argv: &[String]) -> Result<(Args, Mode), String> {
    let mut args = Args {
        workload: Workload::WarmFetch,
        seed: 1,
        seconds: 18.0,
        trace: false,
        trace_out: None,
        rounds: None,
    };
    let mut workload = None;
    let mut mode = Mode::Run;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("no workload named {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--selfcheck" => mode = Mode::SelfCheck,
            "--repeat" => {
                mode = Mode::Repeat(value()?.parse().map_err(|e| format!("--repeat: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    args.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok((args, mode))
}

/// Runs the workload and prints its lines; the result line goes last.
fn run_once(args: &Args, process_start: Instant) -> Result<bool, String> {
    let m = run::run(args, process_start)?;
    let metrics = match &m.replayed {
        Some(replayed) => report::per_layer(&m, replayed),
        None => report::end_to_end(&m),
    };
    let per_round: Vec<f64> = m.rounds.iter().map(|r| r.ops_per_s().round()).collect();
    eprintln!("ops_per_s of each untraced round: {per_round:?}");
    for breach in &m.breaches {
        eprintln!("breach: {breach}");
    }
    report::print_table(
        &format!("{} (seed {})", m.workload.name(), args.seed),
        &metrics,
    );
    if let (Some(path), Some(tracer)) = (&args.trace_out, &m.spans) {
        std::fs::write(path, trace::render(tracer.spans()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!(
        "{}",
        report::run_line(&m, args.seed, args.seconds, args.trace)
    );
    println!("{}", report::result_line(&m, &metrics));
    Ok(report::correct(&m))
}

/// Same seed twice: the op sequence and every counter that does not
/// depend on thread interleaving (which tier a hit came from, how many
/// frames peer offers and audit events took) must come out identical.
fn self_check(args: &Args) -> Result<bool, String> {
    let fixed = Args {
        rounds: Some(2),
        trace: false,
        trace_out: None,
        ..*args
    };
    let fingerprint = |m: &Measured| {
        let counters: Vec<f64> = [
            "proxy.requests",
            "proxy.rewrites",
            "proxy.cache.miss",
            "exec.ir.compiles",
            "exec.ir.served",
        ]
        .iter()
        .map(|c| m.server.get(c))
        .chain([m.client.get("cluster.requests")])
        .collect();
        (m.sequence_hash, m.attempted, m.failed, counters)
    };
    let first = run::run(&fixed, Instant::now())?;
    let second = run::run(&fixed, Instant::now())?;
    let (a, b) = (fingerprint(&first), fingerprint(&second));
    let same = a == b && report::correct(&first) && report::correct(&second);
    println!(
        "selfcheck {} seed {}: {} ({a:?} vs {b:?})",
        args.workload.name(),
        args.seed,
        if same { "PASS" } else { "FAIL" }
    );
    Ok(same)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&argv).and_then(|(args, mode)| match mode {
        Mode::Run => run_once(&args, process_start),
        Mode::SelfCheck => self_check(&args),
        Mode::Repeat(times) => repeat::repeat(&args, times),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("repro_e2e: {message}");
            ExitCode::from(2)
        }
    }
}
