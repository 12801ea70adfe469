//! The client half: fresh `DvmClient`s (JVMs) that launch and run the
//! five Figure-5 applications against the cluster, checked against a
//! `MonolithicClient` reference run of the same applications.

use std::collections::BTreeMap;
use std::time::Instant;

use dvm_core::{CostModel, MonolithicClient};

use crate::corpus::{App, Corpus, Iterations};
use crate::drive::{drive, Driven};
use crate::site::Site;
use crate::trace::Tracer;

/// What a correct run of one application prints and executes.
#[derive(Debug, Clone)]
pub struct Reference {
    /// `System.out` of the monolithic run: the application's checksum.
    stdout: Vec<String>,
    /// Instructions the untransformed application executes. A DVM run
    /// executes these plus the service calls the rewriters injected, so
    /// its own count is pinned by the first DVM run (`dvm_instructions`).
    monolithic_instructions: u64,
    dvm_instructions: std::sync::OnceLock<u64>,
}

/// Reference runs for the launch-scaled then the run-scaled generation.
pub struct References {
    launch: Vec<Reference>,
    run: Vec<Reference>,
}

impl References {
    /// Runs all ten client applications on the monolithic VM.
    pub fn compute(corpus: &Corpus) -> References {
        let mut all: Vec<Reference> = corpus
            .client_sources
            .iter()
            .map(|app| {
                let mut vm = MonolithicClient::new(&app.classes, CostModel::default())
                    .expect("monolithic client links the generated classes");
                let report = vm
                    .run_main(&app.main_class)
                    .expect("generated application runs on the monolithic VM");
                assert!(report.exception.is_none(), "reference run threw");
                Reference {
                    stdout: vm.vm.stdout.clone(),
                    monolithic_instructions: report.instructions,
                    dvm_instructions: std::sync::OnceLock::new(),
                }
            })
            .collect();
        let run = all.split_off(5);
        References { launch: all, run }
    }

    fn of(&self, iterations: Iterations) -> &[Reference] {
        match iterations {
            Iterations::Launch => &self.launch,
            Iterations::Run => &self.run,
        }
    }
}

/// One application launched (and run) by one client: one op.
#[derive(Debug, Clone, Copy)]
pub struct AppRun {
    pub latency_ns: Option<u64>,
    pub instructions: u64,
    pub classes: u64,
}

/// One fresh client taking the five applications to exit.
#[derive(Debug, Clone)]
pub struct Pass {
    pub iterations: Iterations,
    /// Client creation through the fifth exit, client closed.
    pub wall_ns: u64,
    pub apps: Vec<AppRun>,
    /// The client's own registry when it finished (`cluster.*`,
    /// `net.client.*`, `client.ir_installs`).
    pub counters: BTreeMap<String, u64>,
}

impl Pass {
    pub fn failed(&self) -> usize {
        self.apps.iter().filter(|a| a.latency_ns.is_none()).count()
    }
}

/// Creates a client, runs the applications' `main`s to exit in the
/// given `order`, and checks every run against its reference: same
/// output, and an instruction count that never changes from one DVM run
/// to the next.
pub fn client_pass(
    site: &Site,
    apps: &[App],
    references: &References,
    iterations: Iterations,
    order: &[u32],
    user: &str,
    mut tracer: Option<(&mut Tracer, u64)>,
) -> Pass {
    let t0 = Instant::now();
    let mut runs = Vec::with_capacity(apps.len());
    let mut counters = BTreeMap::new();
    match site.client(user) {
        Ok(mut client) => {
            let created = Instant::now();
            if let Some((tr, op)) = &mut tracer {
                tr.record(*op, None, "core.client_create", t0, created);
            }
            let mut executed = 0;
            let mut transferred = 0;
            for (i, &which) in order.iter().enumerate() {
                let app = &apps[which as usize];
                let reference = &references.of(iterations)[which as usize];
                let printed = client.vm.stdout.len();
                let a0 = Instant::now();
                let report = client.run_main(&app.main_class);
                let a1 = Instant::now();
                if let Some((tr, op)) = &mut tracer {
                    tr.record(*op + 1 + i as u64, None, "op", a0, a1);
                }
                let (ok, instructions, classes) = match &report {
                    Ok(r) => {
                        let instructions = r.instructions - executed;
                        let classes = r.transfers.len() as u64 - transferred;
                        executed = r.instructions;
                        transferred = r.transfers.len() as u64;
                        let ok = r.exception.is_none()
                            && client.vm.stdout[printed..] == reference.stdout[..]
                            && instructions >= reference.monolithic_instructions
                            && *reference.dvm_instructions.get_or_init(|| instructions)
                                == instructions;
                        (ok, instructions, classes)
                    }
                    Err(_) => (false, 0, 0),
                };
                runs.push(AppRun {
                    latency_ns: ok.then(|| (a1 - a0).as_nanos() as u64),
                    instructions,
                    classes,
                });
            }
            counters = client.telemetry().registry().snapshot().counters;
            // Dropping the client closes its shard and console
            // connections; that is part of what a launch costs.
        }
        Err(_) => runs.resize(
            apps.len(),
            AppRun {
                latency_ns: None,
                instructions: 0,
                classes: 0,
            },
        ),
    }
    Pass {
        iterations,
        wall_ns: t0.elapsed().as_nanos() as u64,
        apps: runs,
        counters,
    }
}

/// One round of client passes: every driver thread runs
/// `launch_passes` launch passes then `run_passes` run passes, each
/// with a fresh client taking the applications in `order`. Returns each
/// thread's passes.
#[allow(clippy::too_many_arguments)]
pub fn client_round(
    site: &Site,
    corpus: &Corpus,
    references: &References,
    threads: usize,
    (launch_passes, run_passes): (usize, usize),
    order: &[u32],
    round_no: u64,
    trace_epoch: Option<Instant>,
) -> Driven<Vec<Pass>> {
    drive(vec![(); threads], trace_epoch, |t, (), mut tracer| {
        (0..launch_passes + run_passes)
            .map(|p| {
                let (iterations, apps) = if p < launch_passes {
                    (Iterations::Launch, &corpus.launch_apps)
                } else {
                    (Iterations::Run, &corpus.run_apps)
                };
                let op = round_no << 40 | (t as u64) << 32 | (p as u64) << 8;
                client_pass(
                    site,
                    apps,
                    references,
                    iterations,
                    order,
                    &format!("jvm-{round_no}-{t}-{p}"),
                    tracer.as_mut().map(|tr| (&mut **tr, op)),
                )
            })
            .collect()
    })
}
