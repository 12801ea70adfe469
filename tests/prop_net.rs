//! Property-based tests for the dvm-net wire protocol: every frame that
//! is encoded decodes back identically, and truncated, oversized, or
//! garbage inputs are rejected without panicking — plus a deterministic
//! replay of the hostile-bytes corpus in `tests/corpus/`, and hostile
//! plane URLs (`stats://`, `metrics://`, `events://`) sent to a live
//! server.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use dvm_repro::core::{CostModel, Organization, ServiceConfig};
use dvm_repro::net::{
    request_once, ErrorCode, Frame, FrameError, Hello, NetConfig, NetError, MAX_FRAME_LEN,
};
use dvm_repro::proxy::ServedFrom;
use dvm_repro::telemetry::{SpanId, TraceContext, TraceId};

fn arb_string() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9/$_.:-]{0,40}"
}

fn arb_served_from() -> impl Strategy<Value = ServedFrom> {
    prop_oneof![
        Just(ServedFrom::Rewritten),
        Just(ServedFrom::MemoryCache),
        Just(ServedFrom::DiskCache),
        Just(ServedFrom::Peer),
    ]
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::NotFound),
        Just(ErrorCode::Parse),
        Just(ErrorCode::Filter),
        Just(ErrorCode::Malformed),
        Just(ErrorCode::Overloaded),
        Just(ErrorCode::Internal),
        Just(ErrorCode::CacheMiss),
    ]
}

fn arb_trace() -> impl Strategy<Value = Option<TraceContext>> {
    prop_oneof![
        Just(None),
        (1u64..u64::MAX, 1u64..u64::MAX).prop_map(|(trace, parent)| Some(TraceContext {
            trace: TraceId(trace),
            parent: SpanId(parent),
        })),
    ]
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (
            arb_string(),
            arb_string(),
            arb_string(),
            arb_string(),
            arb_string()
        )
            .prop_map(|(user, principal, hardware, native_format, jvm_version)| {
                Frame::Hello(Hello {
                    user,
                    principal,
                    hardware,
                    native_format,
                    jvm_version,
                })
            }),
        any::<u64>().prop_map(|session| Frame::Welcome { session }),
        (
            any::<u32>(),
            any::<u64>(),
            arb_string(),
            arb_string(),
            arb_trace()
        )
            .prop_map(|(request_id, session, url, native_format, trace)| {
                Frame::CodeRequest {
                    request_id,
                    session,
                    url,
                    native_format,
                    trace,
                }
            }),
        (
            any::<u32>(),
            arb_served_from(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..2048)
        )
            .prop_map(|(request_id, served_from, processing_ns, bytes)| {
                Frame::CodeResponse {
                    request_id,
                    served_from,
                    processing_ns,
                    bytes,
                }
            }),
        (any::<u32>(), arb_error_code(), arb_string()).prop_map(|(request_id, code, message)| {
            Frame::Error {
                request_id,
                code,
                message,
            }
        }),
        (any::<u64>(), any::<i32>(), 0u8..3).prop_map(|(session, site, kind)| {
            Frame::AuditEvent {
                session,
                site,
                kind,
            }
        }),
        (any::<u32>(), arb_string())
            .prop_map(|(request_id, url)| Frame::PeerGet { request_id, url }),
        (
            arb_string(),
            proptest::collection::vec(any::<u8>(), 0..2048)
        )
            .prop_map(|(url, bytes)| Frame::PeerPut { url, bytes }),
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..512))
            .prop_map(|(epoch, ring)| Frame::RingUpdate { epoch, ring }),
        (any::<u32>(), any::<u64>(), any::<u32>(), arb_string()).prop_map(
            |(request_id, epoch, shard, resume_from)| Frame::MigrateBegin {
                request_id,
                epoch,
                shard,
                resume_from,
            }
        ),
        (
            any::<u32>(),
            any::<u32>(),
            arb_string(),
            proptest::collection::vec(any::<u8>(), 0..2048)
        )
            .prop_map(|(request_id, seq, url, bytes)| Frame::MigrateChunk {
                request_id,
                seq,
                url,
                bytes,
            }),
        (any::<u32>(), any::<u32>(), any::<bool>()).prop_map(|(request_id, total, complete)| {
            Frame::MigrateEnd {
                request_id,
                total,
                complete,
            }
        }),
        Just(Frame::Bye),
    ]
}

/// A server over an empty organization with no metrics source, started
/// once for every case; it lives as long as the test process.
fn plane_server() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let org = Organization::new(
            &[],
            dvm_repro::security::Policy::parse(dvm_repro::security::policy::example_policy())
                .unwrap(),
            ServiceConfig::dvm(),
            CostModel::default(),
        )
        .unwrap();
        Box::leak(Box::new(org.serve("127.0.0.1:0").unwrap())).addr()
    })
}

/// Text after a plane scheme: anything; the events query with numbers
/// on both sides of their fields' bounds; or something near the query
/// grammar (known keys, digits, signs, repeats).
fn arb_plane_suffix() -> impl Strategy<Value = String> {
    prop_oneof![
        "\\PC{0,40}",
        "\\?after=[0-9]{1,21}&max=[0-9]{1,11}",
        "(\\?(after|max|spans)=[0-9+]{0,12}(&(after|max|spans)=[0-9+]{0,12}){0,2})?",
    ]
}

proptest! {
    /// Whatever follows a plane scheme, the server's URL parser answers
    /// with a typed reply — plane bytes for the four forms, `Malformed`
    /// for the rest, `Internal` for `metrics://` without a source — and
    /// never panics: a panic would take the loop thread, and with it
    /// every later case.
    #[test]
    fn plane_urls_with_any_suffix_get_a_typed_answer(
        scheme in prop_oneof![Just("stats://"), Just("metrics://"), Just("events://")],
        suffix in arb_plane_suffix(),
    ) {
        let request = Frame::CodeRequest {
            request_id: 1,
            session: 0,
            url: format!("{scheme}{suffix}"),
            native_format: String::new(),
            trace: None,
        };
        match request_once(plane_server(), &NetConfig::default(), request) {
            Ok(Frame::CodeResponse { request_id: 1, .. })
            | Err(NetError::Remote { code: ErrorCode::Malformed | ErrorCode::Internal, .. }) => {}
            other => prop_assert!(false, "{scheme}{suffix}: {other:?}"),
        }
    }

    /// Encode → decode is the identity, consuming exactly the encoding.
    #[test]
    fn frame_round_trips(frame in arb_frame()) {
        let encoded = frame.encode();
        let (decoded, consumed) = Frame::decode(&encoded).unwrap();
        prop_assert_eq!(&decoded, &frame);
        prop_assert_eq!(consumed, encoded.len());
        // The streaming decoder agrees.
        let (streamed, n) = Frame::try_decode(&encoded).unwrap().unwrap();
        prop_assert_eq!(&streamed, &frame);
        prop_assert_eq!(n, encoded.len());
    }

    /// Every strict prefix of an encoding is incomplete, not a panic: the
    /// strict decoder errors, the streaming decoder asks for more bytes.
    #[test]
    fn truncation_is_rejected(frame in arb_frame(), cut in any::<u16>()) {
        let encoded = frame.encode();
        let cut = cut as usize % encoded.len();
        let prefix = &encoded[..cut];
        prop_assert!(Frame::decode(prefix).is_err());
        prop_assert!(matches!(Frame::try_decode(prefix), Ok(None)));
    }

    /// Arbitrary bytes never panic either decoder.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        let _ = Frame::decode(&bytes);
        let _ = Frame::try_decode(&bytes);
    }

    /// A length prefix beyond the bound is rejected before any
    /// allocation, whatever follows it.
    #[test]
    fn oversized_lengths_are_rejected(
        extra in 1u32..1000,
        tail in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let len = (MAX_FRAME_LEN as u32).saturating_add(extra);
        let mut buf = len.to_be_bytes().to_vec();
        buf.extend_from_slice(&tail);
        prop_assert!(matches!(Frame::decode(&buf), Err(FrameError::BadLength(_))));
        prop_assert!(matches!(Frame::try_decode(&buf), Err(FrameError::BadLength(_))));
    }

    /// Trailing bytes after a complete frame are left unconsumed.
    #[test]
    fn trailing_bytes_are_not_consumed(frame in arb_frame(), tail in proptest::collection::vec(any::<u8>(), 0..64)) {
        let encoded = frame.encode();
        let mut buf = encoded.clone();
        buf.extend_from_slice(&tail);
        let (decoded, consumed) = Frame::decode(&buf).unwrap();
        prop_assert_eq!(decoded, frame);
        prop_assert_eq!(consumed, encoded.len());
    }
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Replays every hostile input in `tests/corpus/` against both
/// decoders through the shared `dvm_fuzz::corpus` loader. Each must be
/// rejected with a typed `FrameError` by the strict decoder — never
/// accepted, never a panic. Each entry's `# expect:` annotation states
/// what the streaming decoder may do: `reject` means it too must
/// error, `incomplete` means it may answer `Ok(None)` (still waiting
/// for bytes the wire cut off — the connection-level reader later
/// converts that to `FrameError::Truncated`).
#[test]
fn corpus_inputs_are_rejected_without_panicking() {
    let entries = dvm_repro::fuzz::corpus::load_dir(corpus_dir());
    assert!(
        entries.len() >= 10,
        "corpus shrank to {} entries",
        entries.len()
    );
    for entry in &entries {
        let name = &entry.name;
        let bytes = &entry.bytes;
        let expect = entry
            .annotation("expect")
            .unwrap_or_else(|| panic!("{name}: missing '# expect:' annotation"));

        let strict = Frame::decode(bytes);
        assert!(
            strict.is_err(),
            "{name}: strict decoder accepted hostile bytes: {strict:?}"
        );

        match Frame::try_decode(bytes) {
            Err(_) => {}
            Ok(None) => {
                assert_eq!(
                    expect, "incomplete",
                    "{name}: streaming decoder withheld judgment on a complete frame"
                );
                // Cross-check the annotation: `Ok(None)` is only
                // legitimate when fewer bytes exist than the prefix
                // declares.
                let declared = if bytes.len() >= 4 {
                    4 + u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize
                } else {
                    usize::MAX
                };
                assert!(
                    bytes.len() < declared,
                    "{name}: annotated incomplete but the frame is complete"
                );
            }
            Ok(Some((frame, _))) => {
                panic!("{name}: streaming decoder accepted hostile bytes as {frame:?}")
            }
        }
    }
}

/// Writes the corpus through the shared `dvm_fuzz::corpus` renderer.
/// Each entry is one hostile wire input with a `# expect:` annotation —
/// `reject` (both decoders must error) or `incomplete` (the streaming
/// decoder may answer `Ok(None)` for bytes cut short of their declared
/// frame). Run with `-- --ignored` after a grammar change, then review
/// the diff — an entry that stops being rejected is a decoder break,
/// not a refresh.
#[test]
#[ignore = "regenerates tests/corpus/*.hex"]
fn regenerate_net_corpus() {
    let dir = corpus_dir();

    fn u16be(v: u16) -> [u8; 2] {
        v.to_be_bytes()
    }
    fn u32be(v: u32) -> [u8; 4] {
        v.to_be_bytes()
    }
    fn u64be(v: u64) -> [u8; 8] {
        v.to_be_bytes()
    }
    /// Body framed with a correct length prefix.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = u32be(body.len() as u32).to_vec();
        out.extend_from_slice(body);
        out
    }
    /// Body framed with a deliberately wrong declared length.
    fn framed_as(declared: u32, body: &[u8]) -> Vec<u8> {
        let mut out = u32be(declared).to_vec();
        out.extend_from_slice(body);
        out
    }
    fn cat(parts: &[&[u8]]) -> Vec<u8> {
        parts.concat()
    }

    let dump = |name: &str, note: &str, expect: &str, bytes: &[u8]| {
        dvm_repro::fuzz::corpus::write_entry(&dir, name, note, &[("expect", expect)], bytes);
    };

    dump(
        "audit-bad-kind.hex",
        "AUDIT_EVENT with event kind 0x07 (only 0..=2 exist).\n\
         Expect FrameError::Malformed (\"audit kind 7\").",
        "reject",
        &framed(&cat(&[&[0x06], &u64be(42), &u32be(7), &[0x07]])),
    );
    dump(
        "bye-trailing-bytes.hex",
        "BYE followed by two junk bytes inside the declared body. A frame\n\
         must consume its whole body exactly. Expect FrameError::Malformed\n\
         (\"trailing bytes after payload\").",
        "reject",
        &framed(&[0x07, 0xAA, 0xBB]),
    );
    dump(
        "code-request-bad-trace-flag.hex",
        "CODE_REQUEST whose trace-presence flag is 0x02 (only 0 and 1 are\n\
         legal). Expect FrameError::Malformed (\"trace flag 2\").",
        "reject",
        &framed(&cat(&[
            &[0x03],
            &u32be(1),
            &u64be(0),
            &u16be(1),
            b"A",
            &u16be(0),
            &[0x02],
        ])),
    );
    dump(
        "code-response-bad-tier.hex",
        "CODE_RESPONSE with served-from tier 0x09 (only 0..=3 exist). This\n\
         is exactly what a single flipped byte in the tier field looks like.\n\
         Expect FrameError::Malformed (\"served-from tier 9\").",
        "reject",
        &framed(&cat(&[&[0x04], &u32be(1), &[0x09], &u64be(0), &u32be(0)])),
    );
    dump(
        "code-response-bytes-overrun.hex",
        "CODE_RESPONSE declaring a ~4 GiB class-bytes blob inside an\n\
         18-byte body: a length-field corruption that must not drive an\n\
         allocation or an out-of-bounds read. Expect FrameError::Malformed.",
        "reject",
        &framed(&cat(&[
            &[0x04],
            &u32be(1),
            &[0x00],
            &u64be(0),
            &u32be(0xFFFF_FFF0),
        ])),
    );
    dump(
        "hello-bad-utf8.hex",
        "HELLO whose user field contains invalid UTF-8 (FF FE), remaining\n\
         four string fields empty. Expect FrameError::Malformed\n\
         (\"invalid UTF-8\").",
        "reject",
        &framed(&cat(&[
            &[0x01],
            &u16be(2),
            &[0xFF, 0xFE],
            &u16be(0),
            &u16be(0),
            &u16be(0),
            &u16be(0),
        ])),
    );
    dump(
        "hello-string-overrun.hex",
        "HELLO whose user string claims 0xFFFF bytes but the body holds two.\n\
         The cursor must bounds-check, not read past the buffer.\n\
         Expect FrameError::Malformed (\"payload truncated\").",
        "reject",
        &framed(&cat(&[&[0x01], &u16be(0xFFFF), b"AA"])),
    );
    dump(
        "migrate-chunk-bytes-overrun.hex",
        "A MIGRATE_CHUNK carrying an oversized length field (~4 GiB claimed\n\
         inside a 40-byte declared body) — a corruption that must not drive\n\
         an allocation or out-of-bounds read. Expect FrameError::Malformed.",
        "reject",
        &framed_as(
            0x28,
            &cat(&[
                &[0x0E],
                &u32be(1),
                &u32be(0),
                &u32be(9),
                b"class://a",
                &[
                    0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xAA, 0xBB, 0xCC,
                    0xDD, 0xEE, 0xFF,
                ],
                &u32be(0xFFFF_FFF0),
                b"AB",
            ]),
        ),
    );
    dump(
        "migrate-chunk-digest-mismatch.hex",
        "A MIGRATE_CHUNK whose MD5 digest field does not match its value\n\
         bytes — a corrupted (or tampered) migration payload. The decoder\n\
         re-hashes on ingest and must reject with FrameError::Malformed\n\
         rather than admit the bytes into a cache.",
        "reject",
        &framed(&cat(&[
            &[0x0E],
            &u32be(1),
            &u32be(0),
            &u32be(9),
            b"class://a",
            &[0u8; 16],
            &u32be(2),
            b"AB",
        ])),
    );
    dump(
        "migrate-chunk-truncated.hex",
        "A MIGRATE_CHUNK cut mid-transfer: the frame declares a 64-byte body\n\
         but the stream dies 8 bytes in — the shape a killed migration\n\
         source leaves on the wire. The strict decoder errors; the streaming\n\
         decoder may answer Ok(None) pending bytes that will never come (the\n\
         puller's resumption loop turns that into a reconnect).",
        "incomplete",
        &framed_as(0x40, &cat(&[&[0x0E], &u32be(1), &[0x00, 0x00, 0x00]])),
    );
    dump(
        "migrate-end-bad-flag.hex",
        "A MIGRATE_END whose `complete` flag is 7: booleans on the wire are\n\
         0 or 1, anything else is FrameError::Malformed (a decoder that\n\
         treats nonzero as true would mask corruption).",
        "reject",
        &framed(&cat(&[&[0x0F], &u32be(1), &u32be(64), &[0x07]])),
    );
    dump(
        "oversized-length.hex",
        "Length prefix 0xFFFFFFFF, far beyond MAX_FRAME_LEN. Must be\n\
         rejected before any allocation is attempted. Expect\n\
         FrameError::BadLength.",
        "reject",
        &[0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x02, 0x03, 0x04],
    );
    dump(
        "ring-update-epoch-truncated.hex",
        "A RING_UPDATE whose body ends inside the epoch field: the length\n\
         prefix says 4 body bytes, so after the tag only 3 of the epoch's 8\n\
         bytes exist. A complete frame with a bad epoch encoding must be a\n\
         typed error from both decoders, never a stall or a panic.",
        "reject",
        &framed(&[0x0C, 0x00, 0x00, 0x00]),
    );
    dump(
        "retired-tag-stats-request.hex",
        "A well-formed STATS_REQUEST (tag 0x0A, request id 1, spans flag 1)\n\
         from before the node's planes became URLs on CODE_REQUEST. The\n\
         tag is retired and never reused. Expect FrameError::UnknownTag(0x0A).",
        "reject",
        &framed(&cat(&[&[0x0A], &u32be(1), &[0x01]])),
    );
    dump(
        "truncated-body.hex",
        "A frame declaring 32 body bytes, cut after 5 — the shape a\n\
         ChaosLink `trunc:` fault writes on the wire. The strict decoder\n\
         errors; the streaming decoder may answer Ok(None) pending more\n\
         bytes that will never come (the connection-level reader turns that\n\
         into FrameError::Truncated).",
        "incomplete",
        &framed_as(0x20, &[0x04, 0x00, 0x00, 0x00, 0x01]),
    );
    dump(
        "truncated-prefix.hex",
        "Two bytes of a four-byte length prefix: the cut fell inside the\n\
         prefix itself. The strict decoder errors; the streaming decoder may\n\
         answer Ok(None) — it cannot yet know a frame exists.",
        "incomplete",
        &[0x00, 0x00],
    );
    dump(
        "unknown-tag.hex",
        "A well-formed one-byte body whose tag (0xFF) names no frame kind.\n\
         Expect FrameError::UnknownTag(0xFF).",
        "reject",
        &framed(&[0xFF]),
    );
    dump(
        "zero-length.hex",
        "A frame declaring a zero-byte body: no room for even a tag.\n\
         Expect FrameError::BadLength(0).",
        "reject",
        &framed(&[]),
    );
}
