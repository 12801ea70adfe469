//! Mobile code over low-bandwidth links: the §5 repartitioning service.
//!
//! Profiles a graphical application's first execution, splits cold
//! methods into on-demand overflow classes, proves the split program
//! computes the same result, and compares startup times over links from
//! 28.8 Kb/s wireless to 1 MB/s.
//!
//! ```sh
//! cargo run --release --example mobile_code
//! ```

use dvm_bytecode::RewriteUnit;
use dvm_jvm::{Completion, MapProvider, Vm};
use dvm_monitor::{ProfileMode, SiteTable};
use dvm_netsim::presets;
use dvm_optimizer::{repartition_app, startup_time, ColdPolicy, Strategy};
use dvm_workload::{figure11_apps, generate, Disposition};

fn main() {
    // The smallest §5 app (animatedui), execution-scaled for a quick demo.
    let spec = figure11_apps().pop().unwrap().scaled(1, 20);
    let app = generate(&spec);
    println!(
        "application    : {} ({} classes, {} KB)",
        spec.name,
        app.classes.len(),
        app.total_bytes() / 1024
    );

    // 1. Profile the first execution with the monitoring service's
    //    instrumentation (first-use graph).
    let mut sites = SiteTable::new();
    let mut provider = MapProvider::new();
    for cf in &app.classes {
        let mut unit = RewriteUnit::new(cf.clone());
        dvm_monitor::profile_class(&mut unit, &mut sites, ProfileMode::Method).unwrap();
        provider.insert_class(&mut unit.finish().unwrap()).unwrap();
    }
    struct Collector(std::sync::Arc<std::sync::Mutex<dvm_monitor::ProfileCollector>>);
    impl dvm_jvm::DynamicServices for Collector {
        fn profile_count(&mut self, site: i32) {
            self.0.lock().unwrap().count(dvm_monitor::SiteId(site));
        }
        fn first_use(&mut self, site: i32) {
            self.0.lock().unwrap().first_use(dvm_monitor::SiteId(site));
        }
    }
    let profile = std::sync::Arc::new(std::sync::Mutex::new(dvm_monitor::ProfileCollector::new()));
    let mut vm =
        Vm::with_services(Box::new(provider), Box::new(Collector(profile.clone()))).unwrap();
    let baseline_out = match vm.run_main(&app.main_class).unwrap() {
        Completion::Normal(_) => vm.stdout.clone(),
        Completion::Exception(e) => panic!("profiling run failed: {:?}", vm.exception_message(e)),
    };
    let profile = profile.lock().unwrap().clone();
    println!(
        "profiled       : {} methods used (first-use graph)",
        profile.first_use_order().len()
    );

    // 2. Repartition: never-used methods move to overflow classes.
    let (split_classes, stats) =
        repartition_app(&app.classes, &sites, &profile, ColdPolicy::NeverUsed).unwrap();
    println!(
        "repartitioned  : {} methods moved out of {} classes ({} overflow classes)",
        stats.methods_moved,
        stats.classes_split,
        split_classes.len() - app.classes.len()
    );

    // 3. The split program computes the same answer.
    let mut provider = MapProvider::new();
    for cf in &split_classes {
        let mut cf = cf.clone();
        provider.insert_class(&mut cf).unwrap();
    }
    let mut vm = Vm::new(Box::new(provider)).unwrap();
    match vm.run_main(&app.main_class).unwrap() {
        Completion::Normal(_) => assert_eq!(vm.stdout, baseline_out, "results must match"),
        Completion::Exception(e) => panic!("split run failed: {:?}", vm.exception_message(e)),
    }
    println!("verified       : split program prints {baseline_out:?} (identical)");

    // 4. Startup-time comparison across links (the Figure 11/12 model).
    let truth_profile = {
        // Transfer profile from ground truth (validated against the real
        // profile by the test suite).
        use dvm_optimizer::{AppProfile, ClassProfile, MethodProfile};
        let mut classes = Vec::new();
        for cf in &app.classes {
            let mut cf2 = cf.clone();
            let name = cf2.name().unwrap().to_owned();
            let total = cf2.to_bytes().unwrap().len() as u64;
            let mut methods = Vec::new();
            let mut mbytes = 0;
            for m in &cf.methods {
                let mname = m.name(&cf.pool).unwrap().to_owned();
                let size = m.code().map(|c| c.code.len() as u64 + 40).unwrap_or(16);
                mbytes += size;
                let d = app
                    .truth
                    .iter()
                    .find(|(c, mm, _)| c == &name && mm == &mname)
                    .map(|(_, _, d)| *d)
                    .unwrap_or(Disposition::Core);
                methods.push(MethodProfile {
                    name: mname,
                    size,
                    used_at_startup: matches!(d, Disposition::Startup | Disposition::Core),
                    used_ever: d != Disposition::Dead,
                });
            }
            classes.push(ClassProfile {
                name,
                methods,
                overhead_bytes: total.saturating_sub(mbytes),
            });
        }
        AppProfile {
            name: spec.name.clone(),
            classes,
        }
    };

    println!("\nstartup time by link (class-lazy vs repartitioned):");
    for (label, link) in [
        ("28.8 Kb/s wireless", presets::wireless_28_8kbps()),
        ("56 Kb/s modem", presets::sweep_link(7_000)),
        ("128 Kb/s ISDN", presets::sweep_link(16_000)),
        ("1 Mb/s", presets::sweep_link(125_000)),
    ] {
        let lazy = startup_time(&truth_profile, Strategy::LazyClass, &link);
        let opt = startup_time(&truth_profile, Strategy::Repartitioned, &link);
        let imp = (lazy.as_secs_f64() - opt.as_secs_f64()) / lazy.as_secs_f64() * 100.0;
        println!("  {label:<20} {lazy:>12} -> {opt:>12}  ({imp:.0}% faster)");
    }
}
