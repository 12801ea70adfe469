//! One run = one workload: set-up, an untimed warm-up round, timed
//! rounds of fixed work, the correctness sweep, and (traced) the layer
//! replay.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dvm_cluster::ClusterClassProvider;
use dvm_telemetry::MetricsSnapshot;

use crate::clients::{client_round, Pass, References};
use crate::corpus::{Corpus, Iterations};
use crate::replay::{replay, Replayed};
use crate::requests::{close, deal, populate, providers, run_round, Outcome, Target};
use crate::site::{DataDir, Site};
use crate::spec::Workload;
use crate::stats::{fast_quartile, median, percentile, Better, Rng, Zipf};
use crate::sys;
use crate::trace::Tracer;

/// Timed rounds per run: at least `MIN_ROUNDS` so the quartiles exist,
/// at most `MAX_ROUNDS` so `disk_churn`'s second life stays under the
/// site-id ceiling (see the README), and otherwise as many as fit in
/// `--seconds`. Rounds are kept short (about a second) so a run holds
/// many: every round starts fresh driver threads, which the scheduler
/// places anew, and placement moves a round's speed by a tenth.
pub const MIN_ROUNDS: usize = 4;
pub const MAX_ROUNDS: usize = 24;

/// `cold_rewrite`: generations fetched once per round. Three keep a
/// round above 1 000 ops (ten samples beyond its p99) and under two
/// seconds.
const COLD_GENERATIONS: usize = 3;
/// `warm_fetch`: Zipf draws per round over one resident generation.
const WARM_OPS: usize = 12_500;
/// `disk_churn`: first lives, generations each populates, ops per round
/// of the second life, and how many ops share one never-seen URL.
const DISK_LIVES: usize = 2;
const DISK_GENERATIONS_PER_LIFE: usize = 5;
const DISK_OPS: usize = 5_000;
const DISK_FRESH_ONE_IN: usize = 64;
/// `client_run`: launch and run passes per driver thread per round.
const CLIENT_PASSES: (usize, usize) = (2, 1);

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    /// Fixed round count (`--selfcheck`); otherwise `--seconds` decides.
    pub rounds: Option<usize>,
}

/// One timed round, reduced to what the metrics need.
#[derive(Debug, Clone)]
pub struct RoundSample {
    pub ops: usize,
    pub failed: usize,
    pub wall_s: f64,
    pub cpu_us: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Peak resident set of the process when the round ended.
    pub peak_rss_mb: f64,
}

impl RoundSample {
    fn new(latencies_ns: &mut [u64], ops: usize, wall_s: f64, cpu_us: u64) -> RoundSample {
        latencies_ns.sort_unstable();
        RoundSample {
            ops,
            failed: ops - latencies_ns.len(),
            wall_s,
            cpu_us,
            p50_us: percentile(latencies_ns, 50.0) / 1e3,
            p99_us: percentile(latencies_ns, 99.0) / 1e3,
            peak_rss_mb: sys::usage().peak_rss_mb,
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        (self.ops - self.failed) as f64 / self.wall_s
    }
}

/// Signed counter totals over the timed rounds: server-side registries
/// merged across shards, and client-side ones across clients.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts(BTreeMap<String, i128>);

impl Counts {
    fn add(&mut self, snapshot: &BTreeMap<String, u64>, sign: i128) {
        for (name, value) in snapshot {
            *self.0.entry(name.clone()).or_default() += sign * *value as i128;
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0) as f64
    }
}

/// Everything a run measured; `report.rs` turns it into metrics.
pub struct Measured {
    pub workload: Workload,
    pub threads: usize,
    pub setup_s: f64,
    pub rounds: Vec<RoundSample>,
    pub traced_rounds: Vec<RoundSample>,
    pub ops_per_round: usize,
    /// Every client pass of the timed rounds (`client_run` only).
    pub passes: Vec<Pass>,
    pub server: Counts,
    pub client: Counts,
    /// The last site's merged registry when the timed rounds ended.
    pub final_snapshot: MetricsSnapshot,
    pub peak_rss_mb: f64,
    pub attempted: usize,
    pub failed: usize,
    /// Breaches of the exact-count identities and the byte checks.
    pub breaches: Vec<String>,
    /// FNV of the op sequence (targets in plan order, round by round).
    pub sequence_hash: u64,
    pub spans: Option<Tracer>,
    pub store_open_ms: f64,
    /// The layer replay's values, on a traced run.
    pub replayed: Option<Replayed>,
}

struct Scenario<'a> {
    workload: Workload,
    threads: usize,
    corpus: &'a Corpus,
    /// `client_run`: what each application must print and execute.
    references: Option<References>,
    rng: Rng,
    site: Option<Site>,
    providers: Vec<ClusterClassProvider>,
    targets: Vec<Target>,
    /// Indices of `targets` a round draws its hits (or its cold fetches) from.
    pool: Vec<u32>,
    /// `disk_churn`: never-requested class targets, consumed from the end.
    fresh: Vec<u32>,
    zipf: Option<Zipf>,
    first_hash: Vec<Option<u64>>,
    server: Counts,
    client: Counts,
    passes: Vec<Pass>,
    breaches: Vec<String>,
    sequence_hash: u64,
    fresh_requested: usize,
    distinct_cold: usize,
    _data: Option<DataDir>,
    store_open_ms: f64,
}

fn fail(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

impl<'a> Scenario<'a> {
    fn set_up(
        workload: Workload,
        threads: usize,
        corpus: &'a Corpus,
        rng: Rng,
    ) -> Result<Scenario<'a>, String> {
        let mut s = Scenario {
            workload,
            threads,
            corpus,
            references: None,
            rng,
            site: None,
            providers: Vec::new(),
            targets: Vec::new(),
            pool: Vec::new(),
            fresh: Vec::new(),
            zipf: None,
            first_hash: Vec::new(),
            server: Counts::default(),
            client: Counts::default(),
            passes: Vec::new(),
            breaches: Vec::new(),
            sequence_hash: 0xcbf2_9ce4_8422_2325,
            fresh_requested: 0,
            distinct_cold: 0,
            _data: None,
            store_open_ms: 0.0,
        };
        match workload {
            Workload::ColdRewrite => {
                s.targets = corpus
                    .class_urls(0..COLD_GENERATIONS)
                    .iter()
                    .map(|u| Target::class(u))
                    .collect();
                s.pool = (0..s.targets.len() as u32).collect();
            }
            Workload::WarmFetch => {
                let site = Site::start(corpus, None).map_err(|e| fail("starting cluster", e))?;
                s.targets = populate(&site, &corpus.class_urls(0..1), threads)?;
                // Popularity rank -> target. The ranking is the same for
                // every seed (the seed makes the draws): which payload
                // sizes are popular is part of the workload, not noise.
                s.pool = (0..s.targets.len() as u32).collect();
                Rng::new(0x5A1F).shuffle(&mut s.pool);
                s.zipf = Some(Zipf::new(s.pool.len()));
                s.providers = providers(&site, threads, "warm");
                s.site = Some(site);
            }
            Workload::DiskChurn => {
                let data = DataDir::create("cluster").map_err(|e| fail("creating data dir", e))?;
                let populated = DISK_LIVES * DISK_GENERATIONS_PER_LIFE;
                for life in 0..DISK_LIVES {
                    let site = Site::start(corpus, Some(&data.0))
                        .map_err(|e| fail("starting a first life", e))?;
                    let g = life * DISK_GENERATIONS_PER_LIFE;
                    let urls = corpus.class_urls(g..g + DISK_GENERATIONS_PER_LIFE);
                    let mut targets = populate(&site, &urls, threads)?;
                    s.targets.append(&mut targets);
                    site.flush();
                    site.stop();
                }
                s.pool = (0..s.targets.len() as u32).collect();
                let first_fresh = s.targets.len() as u32;
                let fresh_urls = corpus.class_urls(populated..corpus_generations(workload));
                s.targets
                    .extend(fresh_urls.iter().map(|u| Target::class(u)));
                s.fresh = (first_fresh..s.targets.len() as u32).collect();
                s.rng.shuffle(&mut s.fresh);
                // Starting the second life is three `Store::open`
                // recoveries of what the first lives left (and three
                // listeners bound, about a millisecond).
                let t0 = Instant::now();
                let site = Site::start(corpus, Some(&data.0))
                    .map_err(|e| fail("starting the second life", e))?;
                s.store_open_ms = t0.elapsed().as_secs_f64() * 1e3;
                s.providers = providers(&site, threads, "disk");
                s.site = Some(site);
                s._data = Some(data);
            }
            Workload::ClientRun => {
                let site = Site::start(corpus, None).map_err(|e| fail("starting cluster", e))?;
                populate(&site, &corpus.client_urls(), threads)?;
                s.references = Some(References::compute(corpus));
                s.site = Some(site);
            }
        }
        s.first_hash = vec![None; s.targets.len()];
        Ok(s)
    }

    /// The ops of the next round, in issue order.
    fn plan(&mut self) -> Vec<u32> {
        match self.workload {
            Workload::ColdRewrite => {
                let mut ops = self.pool.clone();
                self.rng.shuffle(&mut ops);
                ops
            }
            Workload::WarmFetch => {
                let zipf = self.zipf.as_ref().expect("warm_fetch has a popularity law");
                (0..WARM_OPS)
                    .map(|_| self.pool[zipf.sample(&mut self.rng)])
                    .collect()
            }
            Workload::DiskChurn => {
                let fresh = DISK_OPS / DISK_FRESH_ONE_IN;
                let mut ops: Vec<u32> = (0..DISK_OPS - fresh)
                    .map(|_| self.pool[self.rng.below(self.pool.len())])
                    .collect();
                for _ in 0..fresh {
                    ops.push(self.fresh.pop().expect("enough fresh classes generated"));
                }
                self.rng.shuffle(&mut ops);
                ops
            }
            // The order each of the round's clients launches the five
            // applications in.
            Workload::ClientRun => {
                let mut order: Vec<u32> = (0..self.corpus.run_apps.len() as u32).collect();
                self.rng.shuffle(&mut order);
                order
            }
        }
    }

    /// Runs one round (untimed work around a timed core) and returns
    /// its sample. `counted` is false for the warm-up round, whose
    /// counters and passes are dropped.
    fn round(
        &mut self,
        round_no: u64,
        counted: bool,
        trace_epoch: Option<Instant>,
        spans: &mut Option<Tracer>,
    ) -> Result<RoundSample, String> {
        let ops = self.plan();
        for &op in &ops {
            self.sequence_hash =
                (self.sequence_hash ^ op as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        if self.workload == Workload::ClientRun {
            return Ok(self.client_round(&ops, round_no, counted, trace_epoch, spans));
        }
        let cold = self.workload == Workload::ColdRewrite;
        if cold {
            // A fresh organization and cluster per round, so every op is
            // a first request; the old one is stopped first so sockets
            // and threads do not pile up across rounds.
            if let Some(old) = self.site.take() {
                old.stop();
            }
            let site = Site::start(self.corpus, None).map_err(|e| fail("starting cluster", e))?;
            self.providers = providers(&site, self.threads, "cold");
            self.site = Some(site);
        }
        let site = self.site.as_ref().expect("site started");
        let before = (!cold).then(|| (site.counters(), client_counters(&self.providers)));
        let plan = deal(&ops, self.threads);
        let driven = run_round(
            &mut self.providers,
            &self.targets,
            &plan,
            cold,
            trace_epoch,
            round_no,
        );
        if counted {
            let after = (site.counters(), client_counters(&self.providers));
            self.server.add(&after.0.counters, 1);
            self.client.add(&after.1, 1);
            if let Some(before) = before {
                self.server.add(&before.0.counters, -1);
                self.client.add(&before.1, -1);
            }
            if self.workload == Workload::DiskChurn {
                self.fresh_requested += DISK_OPS / DISK_FRESH_ONE_IN;
            }
            if cold {
                self.distinct_cold += ops.len();
            }
        }
        if cold {
            close(&mut self.providers);
        }
        if let (Some(all), Some(tr)) = (spans.as_mut(), driven.tracer) {
            all.absorb(tr);
        }
        let mut latencies = Vec::with_capacity(ops.len());
        for outcome in driven.results.iter().flatten() {
            if let Some(ns) = self.check(outcome) {
                latencies.push(ns);
            }
        }
        Ok(RoundSample::new(
            &mut latencies,
            ops.len(),
            driven.wall_s,
            driven.cpu_us,
        ))
    }

    /// The out-of-loop half of an op's correctness check; returns the
    /// latency of an op that passed.
    fn check(&mut self, outcome: &Outcome) -> Option<u64> {
        let latency = outcome.latency_ns?;
        let target = &self.targets[outcome.target as usize];
        if let Some(payload) = &outcome.payload {
            // cold_rewrite keeps every payload: each is a distinct class.
            if !target.names(payload) {
                self.breaches
                    .push(format!("{} does not hold its class", target.url));
                return None;
            }
        }
        match self.first_hash[outcome.target as usize] {
            None => self.first_hash[outcome.target as usize] = Some(outcome.hash),
            // A fresh cluster per round renumbers audit sites, so cold
            // rewrites of one URL differ across rounds by design.
            Some(first) if first != outcome.hash && self.workload != Workload::ColdRewrite => {
                self.breaches
                    .push(format!("{} changed between requests", target.url));
                return None;
            }
            Some(_) => {}
        }
        Some(latency)
    }

    fn client_round(
        &mut self,
        order: &[u32],
        round_no: u64,
        counted: bool,
        trace_epoch: Option<Instant>,
        spans: &mut Option<Tracer>,
    ) -> RoundSample {
        let site = self.site.as_ref().expect("site started");
        let before = site.counters();
        let driven = client_round(
            site,
            self.corpus,
            self.references.as_ref().expect("client_run has references"),
            self.threads,
            CLIENT_PASSES,
            order,
            round_no,
            trace_epoch,
        );
        if let (Some(all), Some(tr)) = (spans.as_mut(), driven.tracer) {
            all.absorb(tr);
        }
        let passes: Vec<Pass> = driven.results.into_iter().flatten().collect();
        let ops: usize = passes.iter().map(|p| p.apps.len()).sum();
        let mut latencies: Vec<u64> = passes
            .iter()
            .flat_map(|p| p.apps.iter().filter_map(|a| a.latency_ns))
            .collect();
        if counted {
            self.server.add(&site.counters().counters, 1);
            self.server.add(&before.counters, -1);
            for p in &passes {
                self.client.add(&p.counters, 1);
            }
            self.passes.extend(passes);
        }
        RoundSample::new(&mut latencies, ops, driven.wall_s, driven.cpu_us)
    }

    /// After the timed section: every URL the run touched is fetched
    /// once more and must still hash to the first bytes seen, parse, and
    /// name its class. In-loop hashes tie every other reply to this one.
    fn sweep(&mut self) -> (usize, usize) {
        if matches!(self.workload, Workload::ColdRewrite | Workload::ClientRun) {
            return (0, 0);
        }
        let touched: Vec<u32> = (0..self.targets.len() as u32)
            .filter(|&t| self.first_hash[t as usize].is_some())
            .collect();
        let mut failed = 0;
        for chunk in touched.chunks(2_000) {
            let plan = deal(chunk, self.threads);
            let driven = run_round(&mut self.providers, &self.targets, &plan, true, None, 0);
            for outcome in driven.results.iter().flatten() {
                let target = &self.targets[outcome.target as usize];
                let same = self.first_hash[outcome.target as usize] == Some(outcome.hash);
                let named = outcome.payload.as_ref().is_some_and(|p| target.names(p));
                if !(same && named) {
                    failed += 1;
                    self.breaches
                        .push(format!("{} failed the closing sweep", target.url));
                }
            }
        }
        (touched.len(), failed)
    }

    /// The exact-count identities of the workload.
    fn identities(&mut self) {
        let server = |n: &str| self.server.get(n);
        let mut expect = |what: &str, got: f64, want: f64| {
            if got != want {
                self.breaches
                    .push(format!("{what}: counted {got}, expected {want}"));
            }
        };
        let rewrites = server("proxy.rewrites");
        match self.workload {
            Workload::ColdRewrite => expect(
                "proxy.rewrites == distinct URLs",
                rewrites,
                self.distinct_cold as f64,
            ),
            Workload::DiskChurn => expect(
                "proxy.rewrites == fresh URLs",
                rewrites,
                self.fresh_requested as f64,
            ),
            Workload::WarmFetch | Workload::ClientRun => {
                expect("proxy.rewrites on a warm cluster", rewrites, 0.0);
                expect(
                    "proxy.cache.miss on a warm cluster",
                    server("proxy.cache.miss"),
                    0.0,
                );
            }
        }
        if self.workload != Workload::DiskChurn {
            for name in [
                "store.appends",
                "store.reads",
                "store.fsyncs",
                "store.compactions",
            ] {
                expect(name, server(name), 0.0);
            }
        }
        expect(
            "cluster.failovers",
            self.client.get("cluster.failovers"),
            0.0,
        );
        expect(
            "cluster.non_home_serves",
            self.client.get("cluster.non_home_serves"),
            0.0,
        );
    }
}

/// Request generations a workload's corpus needs.
fn corpus_generations(workload: Workload) -> usize {
    match workload {
        Workload::ColdRewrite => COLD_GENERATIONS,
        Workload::WarmFetch => 1,
        Workload::DiskChurn => {
            // One warm-up round and MAX_ROUNDS timed ones.
            let fresh = (MAX_ROUNDS + 1) * (DISK_OPS / DISK_FRESH_ONE_IN);
            DISK_LIVES * DISK_GENERATIONS_PER_LIFE
                + fresh.div_ceil(crate::corpus::CLASSES_PER_GENERATION)
        }
        Workload::ClientRun => 0,
    }
}

fn client_counters(providers: &[ClusterClassProvider]) -> BTreeMap<String, u64> {
    let mut total = MetricsSnapshot::default();
    for p in providers {
        total.merge(&p.telemetry().registry().snapshot());
    }
    total.counters
}

/// Runs `args.workload` once. `process_start` is when `main` began.
pub fn run(args: &Args, process_start: Instant) -> Result<Measured, String> {
    let threads = sys::nproc().min(4);
    let corpus = Corpus::generate(corpus_generations(args.workload), threads);
    let mut s = Scenario::set_up(args.workload, threads, &corpus, Rng::new(args.seed))?;
    let mut spans = None;
    s.round(0, false, None, &mut spans)?;

    // With a traced half, the untraced rounds, the traced rounds and the
    // layer replay each get a third of `--seconds`.
    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 3.0
    } else {
        args.seconds
    });
    // disk_churn generates fresh classes for MAX_ROUNDS timed rounds in
    // all, so a traced run splits that allowance between its halves.
    let (min_rounds, max_rounds) = match args.rounds {
        Some(fixed) => (fixed, fixed),
        None if args.trace => (MIN_ROUNDS, MAX_ROUNDS / 2),
        None => (MIN_ROUNDS, MAX_ROUNDS),
    };
    let setup_s = process_start.elapsed().as_secs_f64();
    let timed = |s: &mut Scenario, traced: bool, spans: &mut Option<Tracer>, first: u64| {
        let started = Instant::now();
        let mut rounds = Vec::new();
        while rounds.len() < max_rounds && (rounds.len() < min_rounds || started.elapsed() < budget)
        {
            let epoch = traced.then_some(process_start);
            rounds.push(s.round(first + rounds.len() as u64, true, epoch, spans)?);
        }
        Ok::<_, String>(rounds)
    };
    let rounds = timed(&mut s, false, &mut spans, 1)?;
    let mut traced_rounds = Vec::new();
    if args.trace {
        spans = Some(Tracer::new(process_start));
        traced_rounds = timed(&mut s, true, &mut spans, 100)?;
    }
    let final_snapshot = s.site.as_ref().expect("site started").counters();

    let replayed = match &mut spans {
        Some(tracer) => {
            // Sample the class URLs the rounds asked for; client_run asks
            // through its JVMs, for the client generations.
            let mut urls: Vec<String> = (s.first_hash.iter().zip(&s.targets))
                .filter(|(h, t)| h.is_some() && t.url.starts_with("class://"))
                .map(|(_, t)| t.url.clone())
                .collect();
            if urls.is_empty() {
                urls = corpus.client_urls();
            }
            let site = s.site.as_ref().expect("site started");
            Some(replay(
                args.workload,
                &corpus,
                site,
                &urls,
                args.seed,
                tracer,
            )?)
        }
        None => None,
    };
    let (swept, sweep_failed) = s.sweep();
    s.identities();
    close(&mut s.providers);
    if let Some(site) = s.site.take() {
        site.stop();
    }

    // Read after a fixed amount of work: the proxy's audit trail grows
    // with every op served, so a later reading would depend on how many
    // rounds the machine fitted into `--seconds`.
    let peak_rss_mb = rounds[MIN_ROUNDS.min(rounds.len()) - 1].peak_rss_mb;
    let all = || rounds.iter().chain(&traced_rounds);
    Ok(Measured {
        workload: args.workload,
        threads,
        setup_s,
        ops_per_round: rounds.first().map_or(0, |r| r.ops),
        attempted: all().map(|r| r.ops).sum::<usize>() + swept,
        failed: all().map(|r| r.failed).sum::<usize>() + sweep_failed,
        rounds,
        traced_rounds,
        passes: s.passes,
        server: s.server,
        client: s.client,
        final_snapshot,
        peak_rss_mb,
        breaches: s.breaches,
        sequence_hash: s.sequence_hash,
        spans,
        store_open_ms: s.store_open_ms,
        replayed,
    })
}

/// The run's value for a per-round metric.
pub fn across_rounds(
    rounds: &[RoundSample],
    better: Better,
    value: impl Fn(&RoundSample) -> f64,
) -> f64 {
    fast_quartile(&rounds.iter().map(value).collect::<Vec<_>>(), better)
}

/// Median across rounds ÷ fast-side quartile, for `ops_per_s`: close to
/// 1 when rounds agree, lower when a change makes them bimodal.
pub fn round_median_ratio(rounds: &[RoundSample]) -> f64 {
    let rates: Vec<f64> = rounds.iter().map(RoundSample::ops_per_s).collect();
    median(&rates) / fast_quartile(&rates, Better::Higher)
}

/// Wall milliseconds of each fully successful pass of one kind.
pub fn pass_walls_ms(passes: &[Pass], iterations: Iterations) -> Vec<f64> {
    passes
        .iter()
        .filter(|p| p.iterations == iterations && p.failed() == 0)
        .map(|p| p.wall_ns as f64 / 1e6)
        .collect()
}

/// Million instructions per wall second of each successful run pass.
pub fn pass_minsn_per_s(passes: &[Pass]) -> Vec<f64> {
    passes
        .iter()
        .filter(|p| p.iterations == Iterations::Run && p.failed() == 0)
        .map(|p| {
            let instructions: u64 = p.apps.iter().map(|a| a.instructions).sum();
            instructions as f64 / 1e6 / (p.wall_ns as f64 / 1e9)
        })
        .collect()
}
