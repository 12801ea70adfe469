//! Optimizing execution tier: stock interpreter vs proxy-compiled IR.
//!
//! For every Figure-5 application the workload runs twice end-to-end —
//! once on a stock organization (exec tier disabled, everything
//! interpreted) and once on a tiered organization whose proxy compiles
//! rewritten classes to register IR that clients install and execute.
//! The table reports client CPU cycles for both, the speedup, and the
//! tier mix; a second table breaks down compile cost cold (first
//! client, proxy lowers every class) vs warm (second client, every IR
//! package served from the proxy cache). Pass `--quick` for a fast run
//! and `--json` to write `BENCH_exec.json`.

use dvm_bench::{runners, ExperimentScale, Json, Table};
use dvm_core::{CostModel, Organization, ServiceConfig};
use dvm_jvm::Completion;
use dvm_workload::figure5_apps;

struct AppRun {
    stock_cycles: u64,
    tiered_cycles: u64,
    ir_invocations: u64,
    interp_invocations: u64,
    cold_compile_cycles: u64,
    cold_compilations: u64,
    warm_ir_served: u64,
    warm_new_compile_cycles: u64,
}

fn run_app(app: &dvm_workload::GeneratedApp) -> AppRun {
    let mut stock_config = ServiceConfig::dvm();
    stock_config.exec_tier = false;

    let stock_org = Organization::new(
        &app.classes,
        runners::experiment_policy(),
        stock_config,
        CostModel::default(),
    )
    .expect("organization builds");
    let mut stock = stock_org.client("stock", "applets").expect("client builds");
    let sr = stock.run_main(&app.main_class).expect("runs");
    assert!(matches!(sr.completion, Completion::Normal(_)), "{sr:?}");
    assert_eq!(stock.vm.exec.stats.ir_invocations, 0);

    let tiered_org = Organization::new(
        &app.classes,
        runners::experiment_policy(),
        ServiceConfig::dvm(),
        CostModel::default(),
    )
    .expect("organization builds");
    let mut cold = tiered_org.client("cold", "applets").expect("client builds");
    let cr = cold.run_main(&app.main_class).expect("runs");
    assert!(matches!(cr.completion, Completion::Normal(_)), "{cr:?}");
    let cold_proxy = tiered_org.proxy.stats();

    let mut warm = tiered_org.client("warm", "applets").expect("client builds");
    let wr = warm.run_main(&app.main_class).expect("runs");
    assert!(matches!(wr.completion, Completion::Normal(_)), "{wr:?}");
    let warm_proxy = tiered_org.proxy.stats();

    AppRun {
        stock_cycles: stock.vm.stats.cycles,
        tiered_cycles: cold.vm.stats.cycles,
        ir_invocations: cold.vm.exec.stats.ir_invocations,
        interp_invocations: cold.vm.exec.stats.interp_invocations,
        cold_compile_cycles: cold_proxy.ir_compile_cycles,
        cold_compilations: cold_proxy.ir_compiles,
        warm_ir_served: warm_proxy.ir_served - cold_proxy.ir_served,
        warm_new_compile_cycles: warm_proxy.ir_compile_cycles - cold_proxy.ir_compile_cycles,
    }
}

fn main() {
    let scale = ExperimentScale::from_args();
    println!("Optimizing execution tier: client CPU cycles, interpreter vs IR\n");

    let mut perf = Table::new(&[
        "App",
        "Interp cycles",
        "IR cycles",
        "Speedup",
        "IR calls",
        "Interp calls",
    ]);
    let mut compile = Table::new(&[
        "App",
        "Cold compiles",
        "Cold compile cycles",
        "Warm IR served",
        "Warm compile cycles",
    ]);

    let mut stock_total = 0u64;
    let mut tiered_total = 0u64;
    for spec in figure5_apps() {
        let app = runners::generate_scaled(&spec, scale);
        let r = run_app(&app);
        stock_total += r.stock_cycles;
        tiered_total += r.tiered_cycles;
        perf.row(&[
            spec.name.clone(),
            r.stock_cycles.to_string(),
            r.tiered_cycles.to_string(),
            format!("{:.2}x", r.stock_cycles as f64 / r.tiered_cycles as f64),
            r.ir_invocations.to_string(),
            r.interp_invocations.to_string(),
        ]);
        compile.row(&[
            spec.name.clone(),
            r.cold_compilations.to_string(),
            r.cold_compile_cycles.to_string(),
            r.warm_ir_served.to_string(),
            r.warm_new_compile_cycles.to_string(),
        ]);
    }
    perf.print();
    println!("\nCompile cost, cold (first client) vs warm (cached IR):\n");
    compile.print();

    let speedup = stock_total as f64 / tiered_total as f64;
    println!(
        "\nOverall: {stock_total} interpreter cycles vs {tiered_total} on the IR tier \
         ({speedup:.2}x speedup; warm clients recompile nothing)."
    );
    dvm_bench::emit_json(
        "exec",
        &[("performance", &perf), ("compile_cost", &compile)],
        &[
            ("overall_speedup", Json::Num(speedup)),
            ("stock_cycles", Json::Num(stock_total as f64)),
            ("tiered_cycles", Json::Num(tiered_total as f64)),
        ],
    );
}
