//! Incremental frame assembly: the streaming side of the wire codec.
//!
//! A TCP stream delivers the frame grammar in arbitrary chunks — a
//! length prefix split across two reads, three pipelined frames in one
//! read, one byte at a time from a hostile peer. This module owns the
//! *byte-arrival* state machine:
//!
//! - [`peek_frame`] is the pure boundary judgment (no state): given a
//!   buffered prefix, is a whole frame present, is more input needed, or
//!   can this prefix never frame? The server's reactor calls it directly
//!   against its per-connection read buffer.
//! - [`FrameAssembler`] wraps it with a buffer for push-style callers
//!   (benchmark clients, tests, the fuzzer): feed
//!   chunks with [`FrameAssembler::push`], pull decoded frames with
//!   [`FrameAssembler::next_frame`].
//!
//! The invariant the fuzzer hammers (`repro_fuzz --target assembler`):
//! for the same byte sequence, *no* chunk partition may change the
//! decoded frame sequence or the terminal error. Short reads are
//! re-buffered, never misparsed.
//!
//! `cov!` probes mark the state transitions so coverage-guided fuzzing
//! can tell a split prefix from a split body from a clean boundary.

use crate::frame::{Frame, FrameError, MAX_FRAME_LEN};

/// Judges the first frame boundary in `buf`: `Ok(None)` when more bytes
/// are needed, `Ok(Some(n))` when the first `n` bytes (prefix included)
/// form one complete frame, and [`FrameError::BadLength`] when the
/// prefix can never frame. Pure: the answer depends only on the bytes,
/// never on how they arrived.
pub fn peek_frame(buf: &[u8]) -> Result<Option<usize>, FrameError> {
    if buf.len() < 4 {
        dvm_fuzz::cov!("asm.prefix.partial");
        return Ok(None);
    }
    let len = u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        dvm_fuzz::cov!("asm.prefix.bad_length");
        return Err(FrameError::BadLength(len as u64));
    }
    if buf.len() < 4 + len {
        dvm_fuzz::cov!("asm.body.partial");
        return Ok(None);
    }
    dvm_fuzz::cov!("asm.frame.complete");
    Ok(Some(4 + len))
}

/// Push-style incremental frame decoder. Once a framing or payload
/// violation is observed the assembler is dead: the stream has lost
/// sync and every later pull re-reports the original error.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    dead: Option<FrameError>,
}

impl FrameAssembler {
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Feeds one chunk of stream bytes, however the transport cut them.
    pub fn push(&mut self, chunk: &[u8]) {
        if chunk.is_empty() {
            dvm_fuzz::cov!("asm.chunk.empty");
            return;
        }
        if self.buf.is_empty() {
            dvm_fuzz::cov!("asm.chunk.at_boundary");
        } else {
            dvm_fuzz::cov!("asm.chunk.mid_frame");
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Pulls the next complete frame: `Ok(None)` until enough bytes have
    /// arrived, then each buffered frame in arrival order.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if let Some(e) = &self.dead {
            dvm_fuzz::cov!("asm.dead.reuse");
            return Err(e.clone());
        }
        match peek_frame(&self.buf) {
            Ok(None) => Ok(None),
            Ok(Some(n)) => match Frame::decode_body(&self.buf[4..n]) {
                Ok(frame) => {
                    self.buf.drain(..n);
                    if self.buf.len() >= 4 {
                        dvm_fuzz::cov!("asm.frame.pipelined_backlog");
                    }
                    Ok(Some(frame))
                }
                Err(e) => {
                    dvm_fuzz::cov!("asm.body.malformed");
                    self.dead = Some(e.clone());
                    Err(e)
                }
            },
            Err(e) => {
                dvm_fuzz::cov!("asm.framing.violation");
                self.dead = Some(e.clone());
                Err(e)
            }
        }
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether a violation has killed the stream.
    pub fn is_dead(&self) -> bool {
        self.dead.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Hello;

    fn wire(frames: &[Frame]) -> Vec<u8> {
        frames.iter().flat_map(|f| f.encode()).collect()
    }

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Hello(Hello {
                user: "alice".into(),
                ..Hello::default()
            }),
            Frame::Welcome { session: 7 },
            Frame::Bye,
        ]
    }

    /// Reference decode: one-shot `try_decode` over the whole buffer.
    fn one_shot(mut buf: &[u8]) -> (Vec<Frame>, Option<FrameError>) {
        let mut frames = Vec::new();
        loop {
            match Frame::try_decode(buf) {
                Ok(Some((f, n))) => {
                    frames.push(f);
                    buf = &buf[n..];
                }
                Ok(None) => return (frames, None),
                Err(e) => return (frames, Some(e)),
            }
        }
    }

    #[test]
    fn every_chunk_partition_yields_the_same_frames() {
        let bytes = wire(&samples());
        for chunk_size in 1..=bytes.len() {
            let mut asm = FrameAssembler::new();
            let mut got = Vec::new();
            for chunk in bytes.chunks(chunk_size) {
                asm.push(chunk);
                while let Some(f) = asm.next_frame().unwrap() {
                    got.push(f);
                }
            }
            assert_eq!(got, samples(), "chunk size {chunk_size}");
            assert_eq!(asm.buffered(), 0);
        }
    }

    #[test]
    fn partition_equivalence_holds_for_violations_too() {
        // A good frame, then a zero-length prefix (framing violation).
        let mut bytes = wire(&samples()[..1]);
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        let (reference, reference_err) = one_shot(&bytes);
        for chunk_size in 1..=bytes.len() {
            let mut asm = FrameAssembler::new();
            let mut got = Vec::new();
            let mut err = None;
            'feed: for chunk in bytes.chunks(chunk_size) {
                asm.push(chunk);
                loop {
                    match asm.next_frame() {
                        Ok(Some(f)) => got.push(f),
                        Ok(None) => break,
                        Err(e) => {
                            err = Some(e);
                            break 'feed;
                        }
                    }
                }
            }
            assert_eq!(got, reference, "chunk size {chunk_size}");
            assert_eq!(err, reference_err, "chunk size {chunk_size}");
            assert!(asm.is_dead());
            // A dead assembler keeps reporting the violation.
            assert_eq!(
                asm.next_frame().unwrap_err(),
                reference_err.clone().unwrap()
            );
        }
    }

    #[test]
    fn peek_is_pure_and_bounds_checked() {
        assert_eq!(peek_frame(&[]).unwrap(), None);
        assert_eq!(peek_frame(&[0, 0, 0]).unwrap(), None);
        assert!(matches!(
            peek_frame(&[0, 0, 0, 0]),
            Err(FrameError::BadLength(0))
        ));
        assert!(matches!(
            peek_frame(&[0xFF; 8]),
            Err(FrameError::BadLength(_))
        ));
        let encoded = Frame::Bye.encode();
        assert_eq!(peek_frame(&encoded).unwrap(), Some(encoded.len()));
        assert_eq!(peek_frame(&encoded[..encoded.len() - 1]).unwrap(), None);
    }
}
