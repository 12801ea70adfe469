//! A from-scratch coverage-guided fuzzer in the spirit of libFuzzer,
//! built for the five untrusted-input surfaces of the DVM proxy: the
//! classfile parser, the bytecode verifier, the wire-frame decoder, the
//! DVMX exec-package decoder, and store segment recovery.
//!
//! The paper's proxy is the trust boundary of the whole system — it
//! parses and instruments code on behalf of every client — so a panic
//! in any decoder is a fleet-wide availability bug. This crate turns
//! the hand-curated hostile-bytes corpora under `tests/corpus/` into
//! the starting population of a mutation-based search guided by
//! hand-planted edge-coverage probes:
//!
//! * [`cov`](mod@cov) — the probe side: a [`cov!`] macro that target
//!   crates plant at decode branches, recording edges (probe-pair
//!   transitions) into a fixed global map. Feature-gated: without the
//!   `probes` feature every probe compiles to an empty inlined function.
//! * [`rng`] — a tiny deterministic SplitMix64 generator; every run is
//!   a pure function of its seed.
//! * [`mutate`] — the seeded mutation engine: bit/byte flips, chunk
//!   insert/delete/duplicate, corpus splices, length-field havoc, and
//!   dictionary tokens harvested from frame tags and magic bytes.
//! * [`corpus`] — the shared `.hex` corpus format: `#` comments,
//!   store-style `# expect…:` annotations, load/store helpers used by
//!   the fuzzer and by the property-test corpus replays alike.
//! * [`fuzzer`] — the driver: corpus admission on new coverage
//!   features, periodic corpus minimization, crash deduplication by
//!   coverage signature, and input minimization, with every finding
//!   replayable from a printed `FUZZ REPLAY:` line.
//!
//! The binary lives in `dvm-bench` (`repro_fuzz`), which owns the
//! per-target harnesses; this crate deliberately depends on nothing so
//! the probe macro can be used from every layer of the workspace.

pub mod corpus;
pub mod cov;
pub mod fuzzer;
pub mod mutate;
pub mod rng;

pub use corpus::CorpusEntry;
pub use fuzzer::{Crash, FuzzConfig, FuzzReport, Fuzzer};
pub use mutate::Mutator;
pub use rng::FuzzRng;
