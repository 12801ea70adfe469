//! The class corpus: the Figure-5 inventory (five applications, 405
//! classes, 1.53 MB) replicated into *generations* by renaming and
//! re-seeding each `AppSpec`, so a workload can ask for as many
//! distinct, realistic classes as it needs.

use std::sync::Arc;

use dvm_proxy::{CodeOrigin, MapOrigin};
use dvm_workload::{figure5_apps, generate, AppSpec, GeneratedApp};

/// Classes in one generation of the Figure-5 inventory.
pub const CLASSES_PER_GENERATION: usize = 405;

/// How a generation's applications are scaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Iterations {
    /// Every iteration count is 1: running `main` is the pure class-load
    /// path (fetch, verify, link, reach exit).
    Launch,
    /// `AppSpec::scaled(1, 2000)`: a few million instructions per pass.
    Run,
}

/// One application of a generation, as a client launches it.
#[derive(Debug, Clone)]
pub struct App {
    pub main_class: String,
    /// `class://` URLs of every class, main first.
    pub urls: Vec<String>,
}

/// The five specs of generation `tag` (`jlex` becomes `jlex<tag>`).
fn specs(tag: &str, generation: u64, iterations: Iterations) -> Vec<AppSpec> {
    figure5_apps()
        .into_iter()
        .map(|mut spec| {
            spec.name = format!("{}{tag}", spec.name);
            spec.seed = spec
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(generation);
            match iterations {
                Iterations::Launch => spec.scaled(1, i32::MAX),
                Iterations::Run => spec.scaled(1, 2000),
            }
        })
        .collect()
}

/// Every class the run can ask for, served by one shared origin, plus
/// the name tables the workloads index into.
pub struct Corpus {
    origin: Arc<MapOrigin>,
    /// Generated generations in request order: `generations[g]` holds
    /// that generation's five applications.
    generations: Vec<Vec<App>>,
    /// The launch-scaled and run-scaled client generations, and the
    /// generated classes of both (the monolithic reference runs them).
    pub launch_apps: Vec<App>,
    pub run_apps: Vec<App>,
    pub client_sources: Vec<GeneratedApp>,
}

impl Corpus {
    /// Generates `generations` request generations (`g0`, `g1`, …) plus
    /// the two client generations, spreading the generation work over
    /// `threads` threads.
    pub fn generate(generations: usize, threads: usize) -> Corpus {
        let mut jobs: Vec<AppSpec> = Vec::new();
        for g in 0..generations {
            jobs.extend(specs(&format!("g{g}"), g as u64, Iterations::Run));
        }
        jobs.extend(specs("launch", 1 << 32, Iterations::Launch));
        jobs.extend(specs("run", 1 << 33, Iterations::Run));

        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut built: Vec<(usize, GeneratedApp)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads.max(1))
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(spec) = jobs.get(i) else { break };
                            mine.push((i, generate(spec)));
                        }
                        mine
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("generator thread panicked"))
                .collect()
        });
        built.sort_by_key(|(i, _)| *i);

        let mut origin = MapOrigin::new();
        let mut apps = Vec::with_capacity(built.len());
        for (_, app) in &built {
            let mut urls = Vec::with_capacity(app.classes.len());
            for (name, bytes) in app.serialize().expect("generated classes serialize") {
                let url = format!("class://{name}");
                origin.insert(&url, bytes);
                urls.push(url);
            }
            apps.push(App {
                main_class: app.main_class.clone(),
                urls,
            });
        }
        let run_apps = apps.split_off(apps.len() - 5);
        let launch_apps = apps.split_off(apps.len() - 5);
        let client_sources = built
            .split_off(built.len() - 10)
            .into_iter()
            .map(|(_, app)| app)
            .collect();
        Corpus {
            origin: Arc::new(origin),
            generations: apps.chunks(5).map(<[App]>::to_vec).collect(),
            launch_apps,
            run_apps,
            client_sources,
        }
    }

    /// A handle on the shared origin for one more `Organization`.
    pub fn origin(&self) -> Box<dyn CodeOrigin> {
        Box::new(self.origin.clone())
    }

    /// The untransformed bytes behind `url`.
    pub fn original(&self, url: &str) -> Arc<[u8]> {
        self.origin
            .fetch(url)
            .unwrap_or_else(|| panic!("{url} is not in the corpus"))
    }

    /// Class URLs of generations `range`, in generation order.
    pub fn class_urls(&self, range: std::ops::Range<usize>) -> Vec<String> {
        self.generations[range]
            .iter()
            .flatten()
            .flat_map(|app| app.urls.iter().cloned())
            .collect()
    }

    /// Class URLs of both client generations.
    pub fn client_urls(&self) -> Vec<String> {
        self.launch_apps
            .iter()
            .chain(&self.run_apps)
            .flat_map(|app| app.urls.iter().cloned())
            .collect()
    }
}

/// The class an URL names (`class://app/jlexg0/C3` → `app/jlexg0/C3`).
pub fn class_of(url: &str) -> &str {
    url.strip_prefix("class://").unwrap_or(url)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_are_renamed_copies_of_the_inventory() {
        let corpus = Corpus::generate(1, 2);
        let urls = corpus.class_urls(0..1);
        assert_eq!(urls.len(), CLASSES_PER_GENERATION);
        assert_eq!(urls[0], "class://app/jlexg0/Main");
        assert_eq!(corpus.client_urls().len(), 2 * CLASSES_PER_GENERATION);
        assert_eq!(corpus.launch_apps[2].main_class, "app/pizzalaunch/Main");
        assert_eq!(corpus.run_apps[4].urls.len(), 35);
        assert_eq!(corpus.client_sources.len(), 10);
        assert!(corpus.original(&urls[7]).len() > 100);
        assert_eq!(class_of(&urls[0]), "app/jlexg0/Main");
    }
}
