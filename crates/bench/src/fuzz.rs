//! Per-target fuzzing harnesses for `repro_fuzz` (DESIGN.md §5h).
//!
//! The untrusted-input surfaces of the proxy — the wire-frame decoder,
//! the incremental frame assembler (the reactor's byte-arrival state
//! machine), the classfile parser, the bytecode verifier, the DVMX
//! exec-package decoder, and store segment recovery — each get one
//! [`FuzzTarget`]: a closure that feeds arbitrary bytes to the decoder
//! (any `Err` is a correct rejection; only a panic is a finding), a
//! seed population drawn from the committed `tests/corpus/` entries
//! plus freshly *encoded valid* inputs (so the search starts on the
//! accept path, not just the reject paths the hostile corpora pin),
//! and a dictionary of the magic bytes and tag values the grammar
//! keys on.
//!
//! The targets are data, not policy: `repro_fuzz` owns iteration
//! budgets and reporting, and the `fuzz_replay` integration test
//! replays every committed corpus entry through the same closures.

use std::path::{Path, PathBuf};

use dvm_classfile::ClassFile;
use dvm_fuzz::corpus as fuzz_corpus;
use dvm_net::{ErrorCode, Frame, FrameAssembler, Hello};
use dvm_proxy::ServedFrom;
use dvm_store::{Store, StoreConfig};
use dvm_verifier::{MapEnvironment, StaticVerifier};

/// Names of the six fuzzed surfaces, in reporting order.
pub const TARGET_NAMES: [&str; 6] = [
    "frame",
    "assembler",
    "classfile",
    "verifier",
    "exec",
    "store",
];

/// The closure feeding one input to a target's decoder.
pub type TargetFn = Box<dyn FnMut(&[u8])>;

/// One fuzzable decoder surface.
pub struct FuzzTarget {
    /// Short name used by `--target`, replay lines, and reports.
    pub name: &'static str,
    /// Seed-corpus directory (may not exist for young targets).
    pub corpus_dir: PathBuf,
    /// Magic bytes and tag values stamped in by the dictionary pass.
    pub dict: Vec<Vec<u8>>,
    /// Initial population: corpus entries plus valid encodings.
    pub seeds: Vec<Vec<u8>>,
    /// Feeds one input to the decoder; panics are findings.
    pub run: TargetFn,
    /// Full-session iteration budget (quick mode divides this down).
    pub default_iters: u64,
}

/// Root of the committed hostile-input corpora, resolved relative to
/// this crate so binaries and tests agree regardless of working
/// directory.
pub fn corpus_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// Bytes of every `*.hex` entry under `dir`; empty when the directory
/// does not exist yet (a target with no committed corpus).
fn corpus_seeds(dir: &Path) -> Vec<Vec<u8>> {
    if !dir.is_dir() {
        return Vec::new();
    }
    fuzz_corpus::load_dir(dir)
        .into_iter()
        .map(|e| e.bytes)
        .collect()
}

/// A small pool of classfile byte images from the deterministic
/// workload generator — the valid-input seeds for the classfile,
/// verifier, and exec targets.
fn workload_class_bytes() -> Vec<Vec<u8>> {
    static CACHE: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
    CACHE
        .get_or_init(|| {
            let mut out = Vec::new();
            for applet in dvm_workload::corpus(7).into_iter().take(2) {
                for cf in applet.classes.into_iter().take(2) {
                    let mut cf = cf;
                    if let Ok(bytes) = cf.to_bytes() {
                        out.push(bytes);
                    }
                }
            }
            out
        })
        .clone()
}

/// The wire-frame decoder: both the length-prefixed stream entry point
/// and the body decoder, so mutations past the 4-byte prefix hurdle
/// still reach the per-tag grammar.
fn frame_target() -> FuzzTarget {
    let mut seeds = corpus_seeds(&corpus_root());
    for frame in sample_frames() {
        let enc = frame.encode();
        // Body-only variant: `decode_body` sees these directly.
        seeds.push(enc[4..].to_vec());
        seeds.push(enc);
    }
    let mut dict: Vec<Vec<u8>> = (0x01u8..=0x13).map(|t| vec![t]).collect();
    dict.push(b"http://origin/App.class".to_vec());
    dict.push(vec![0x00, 0x00, 0x00, 0x01]);
    FuzzTarget {
        name: "frame",
        corpus_dir: corpus_root(),
        dict,
        seeds,
        run: Box::new(|input: &[u8]| {
            let _ = Frame::decode(input);
            let _ = Frame::decode_body(input);
        }),
        default_iters: 60_000,
    }
}

/// The incremental frame assembler, checked for *chunk-partition
/// equivalence*: the input's first byte seeds a deterministic partition
/// of the remaining bytes into hostile chunks (1–13 bytes each), and
/// feeding those chunks through [`FrameAssembler`] must yield exactly
/// the frames — and the same terminal error — as a one-shot
/// `Frame::try_decode` pass over the whole buffer. Short reads must
/// re-buffer, never re-parse; the `assert_eq!`s turn any divergence
/// into a panic, i.e. a finding. This is the reactor's byte-arrival
/// state machine, fuzzed the way a hostile network delivers bytes.
fn assembler_target() -> FuzzTarget {
    // Reuse the hostile frame corpus: each entry's first byte becomes
    // the partition spec and the rest the stream, so every pinned
    // reject path is also partition-tested. Fresh seeds cover the
    // accept path with pipelined multi-frame streams.
    let mut seeds = corpus_seeds(&corpus_root());
    for spec in [0u8, 3, 11] {
        let mut stream = vec![spec];
        for frame in sample_frames().into_iter().take(6) {
            stream.extend(frame.encode());
        }
        seeds.push(stream);
    }
    let mut dict: Vec<Vec<u8>> = (0x01u8..=0x13).map(|t| vec![t]).collect();
    dict.push(vec![0x00, 0x00, 0x00, 0x01]);
    dict.push(vec![0x00, 0x00, 0x00, 0x00]);
    FuzzTarget {
        name: "assembler",
        corpus_dir: corpus_root(),
        dict,
        seeds,
        run: Box::new(|input: &[u8]| {
            let Some((&spec, stream)) = input.split_first() else {
                return;
            };
            // Reference: one-shot decode over the whole buffer.
            let mut rest = stream;
            let mut want = Vec::new();
            let mut want_err = None;
            loop {
                match Frame::try_decode(rest) {
                    Ok(Some((frame, consumed))) => {
                        want.push(frame);
                        rest = &rest[consumed..];
                    }
                    Ok(None) => break,
                    Err(e) => {
                        want_err = Some(e);
                        break;
                    }
                }
            }
            // Same bytes, hostile arrival: chunk sizes are a pure
            // function of (spec, chunk index).
            let mut asm = FrameAssembler::new();
            let mut got = Vec::new();
            let mut got_err = None;
            let mut pos = 0usize;
            let mut i = 0usize;
            'feed: while pos < stream.len() {
                let size = (spec as usize)
                    .wrapping_mul(31)
                    .wrapping_add(i.wrapping_mul(17))
                    % 13
                    + 1;
                let end = (pos + size).min(stream.len());
                asm.push(&stream[pos..end]);
                pos = end;
                i += 1;
                loop {
                    match asm.next_frame() {
                        Ok(Some(frame)) => got.push(frame),
                        Ok(None) => break,
                        Err(e) => {
                            got_err = Some(e);
                            break 'feed;
                        }
                    }
                }
            }
            assert_eq!(got, want, "chunked frames diverged from one-shot decode");
            assert_eq!(got_err, want_err, "chunked error diverged from one-shot");
        }),
        default_iters: 40_000,
    }
}

/// One valid frame per variant, so the seed corpus covers the whole
/// accept grammar (the hostile corpus pins the reject paths).
fn sample_frames() -> Vec<Frame> {
    let mut frames = vec![
        Frame::Hello(Hello {
            user: "alice".into(),
            principal: "applet".into(),
            hardware: "x86/200MHz/64MB".into(),
            native_format: "x86".into(),
            jvm_version: "1.1.6".into(),
        }),
        Frame::Welcome { session: 7 },
        Frame::CodeRequest {
            request_id: 1,
            session: 7,
            url: "http://origin/App.class".into(),
            native_format: "x86".into(),
            trace: None,
        },
        Frame::CodeResponse {
            request_id: 1,
            served_from: ServedFrom::Rewritten,
            processing_ns: 1234,
            bytes: vec![0xCA, 0xFE, 0xBA, 0xBE],
        },
        Frame::Error {
            request_id: 0,
            code: ErrorCode::Parse,
            message: "bad class".into(),
        },
        Frame::AuditEvent {
            session: 7,
            site: 3,
            kind: 1,
        },
        Frame::PeerGet {
            request_id: 2,
            url: "http://origin/App.class".into(),
        },
        Frame::PeerPut {
            url: "http://origin/App.class".into(),
            bytes: vec![1, 2, 3],
        },
        Frame::RingUpdate {
            epoch: 4,
            ring: vec![],
        },
        Frame::MigrateBegin {
            request_id: 5,
            epoch: 4,
            shard: 1,
            resume_from: String::new(),
        },
        Frame::MigrateChunk {
            request_id: 5,
            seq: 0,
            url: "http://origin/App.class".into(),
            bytes: vec![9, 9, 9],
        },
        Frame::MigrateEnd {
            request_id: 5,
            total: 1,
            complete: true,
        },
        Frame::Bye,
    ];
    // The node's planes are read as URLs on CODE_REQUEST.
    for (request_id, url) in (3..).zip([
        "stats://",
        "stats://?spans=1",
        "metrics://",
        "events://?after=0&max=16",
    ]) {
        frames.push(Frame::CodeRequest {
            request_id,
            session: 0,
            url: url.into(),
            native_format: String::new(),
            trace: None,
        });
    }
    frames
}

/// Dictionary shared by the classfile and verifier targets: the magic,
/// a plausible version, constant-pool tags, and the attribute names
/// and descriptors the parser compares against.
fn classfile_dict() -> Vec<Vec<u8>> {
    let mut dict: Vec<Vec<u8>> = vec![
        vec![0xCA, 0xFE, 0xBA, 0xBE],
        vec![0x00, 0x03, 0x00, 0x2D],
        b"Code".to_vec(),
        b"ConstantValue".to_vec(),
        b"Exceptions".to_vec(),
        b"SourceFile".to_vec(),
        b"Synthetic".to_vec(),
        b"Deprecated".to_vec(),
        b"()V".to_vec(),
        b"java/lang/Object".to_vec(),
    ];
    for tag in [1u8, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12] {
        dict.push(vec![tag]);
    }
    dict
}

/// The classfile parser on raw bytes.
fn classfile_target() -> FuzzTarget {
    let dir = corpus_root().join("classfile");
    let mut seeds = corpus_seeds(&dir);
    seeds.extend(workload_class_bytes());
    seeds.push(vec![0xCA, 0xFE, 0xBA, 0xBE]);
    FuzzTarget {
        name: "classfile",
        corpus_dir: dir,
        dict: classfile_dict(),
        seeds,
        run: Box::new(|input: &[u8]| {
            let _ = ClassFile::parse(input);
        }),
        default_iters: 25_000,
    }
}

/// Parse-then-verify: inputs that survive the parser exercise all
/// three verifier phases (the paper's proxy runs exactly this chain on
/// every fetched class).
fn verifier_target() -> FuzzTarget {
    let dir = corpus_root().join("classfile");
    let mut seeds = corpus_seeds(&dir);
    seeds.extend(workload_class_bytes());
    let verifier = StaticVerifier::new(MapEnvironment::with_bootstrap());
    FuzzTarget {
        name: "verifier",
        corpus_dir: dir,
        dict: classfile_dict(),
        seeds,
        run: Box::new(move |input: &[u8]| {
            if let Ok(cf) = ClassFile::parse(input) {
                let _ = verifier.verify(cf);
            }
        }),
        default_iters: 12_000,
    }
}

/// The DVMX exec-package decoder.
fn exec_target() -> FuzzTarget {
    let dir = corpus_root().join("exec");
    let mut seeds = corpus_seeds(&dir);
    // Valid packages: compile workload classes to register IR and
    // encode them, so the search starts inside the accept grammar.
    for bytes in workload_class_bytes() {
        if let Ok(cf) = ClassFile::parse(&bytes) {
            if let Ok((ir, _stats)) = dvm_exec::compile_class(&cf) {
                seeds.push(dvm_exec::encode(&ir));
            }
        }
    }
    let mut dict: Vec<Vec<u8>> = vec![b"DVMX".to_vec(), vec![0x01]];
    for tag in [1u8, 15, 16, 22, 33] {
        dict.push(vec![tag]);
    }
    FuzzTarget {
        name: "exec",
        corpus_dir: dir,
        dict,
        seeds,
        run: Box::new(|input: &[u8]| {
            let _ = dvm_exec::decode(input);
        }),
        default_iters: 40_000,
    }
}

/// Store segment recovery: each execution materializes the input as
/// segment 0 of a scratch directory and opens the store, driving the
/// header check, record walk, and torn-tail truncation.
fn store_target() -> FuzzTarget {
    let dir = corpus_root().join("store");
    let mut seeds = corpus_seeds(&dir);
    seeds.push(valid_segment_image());
    let scratch = std::env::temp_dir().join(format!("dvm-fuzz-store-{}", std::process::id()));
    FuzzTarget {
        name: "store",
        corpus_dir: dir,
        dict: vec![b"DVMSTOR1".to_vec(), vec![0xC7], vec![0x01], vec![0x02]],
        seeds,
        run: Box::new(move |input: &[u8]| {
            // Recovery mutates the directory (deletes/truncates bad
            // segments, opens a fresh one), so every execution gets a
            // clean slate for determinism.
            let _ = std::fs::remove_dir_all(&scratch);
            std::fs::create_dir_all(&scratch).expect("create scratch dir");
            std::fs::write(scratch.join(format!("{:016x}.seg", 0)), input)
                .expect("write scratch segment");
            let _ = Store::open(&scratch, StoreConfig::default());
        }),
        default_iters: 4_000,
    }
}

/// A healthy segment image: puts, a delete, and a flush through the
/// real writer, then the raw file bytes.
fn valid_segment_image() -> Vec<u8> {
    static CACHE: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    CACHE.get_or_init(build_segment_image).clone()
}

fn build_segment_image() -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("dvm-fuzz-seed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create seed dir");
    let seg;
    {
        let mut store = Store::open(&dir, StoreConfig::default()).expect("open seed store");
        store.put("alpha", b"one").expect("put");
        store.put("beta", b"two").expect("put");
        store.put("gamma", b"three").expect("put");
        store.delete("beta").expect("delete");
        store.flush().expect("flush");
        seg = std::fs::read(dir.join(format!("{:016x}.seg", 0))).expect("read seed segment");
    }
    let _ = std::fs::remove_dir_all(&dir);
    seg
}

/// Builds one target by name.
pub fn target(name: &str) -> Option<FuzzTarget> {
    match name {
        "frame" => Some(frame_target()),
        "assembler" => Some(assembler_target()),
        "classfile" => Some(classfile_target()),
        "verifier" => Some(verifier_target()),
        "exec" => Some(exec_target()),
        "store" => Some(store_target()),
        _ => None,
    }
}

/// All six targets in reporting order.
pub fn all_targets() -> Vec<FuzzTarget> {
    TARGET_NAMES
        .iter()
        .map(|n| target(n).expect("known target"))
        .collect()
}
