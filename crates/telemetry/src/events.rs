//! The structured event journal: a bounded, sequenced ring of typed
//! cluster events.
//!
//! Metrics say *how much*; the journal says *what happened*. Breaker
//! transitions, ring epoch changes, migrations, store compactions, and
//! SLO alert transitions are each recorded as one [`JournalEvent`] with
//! a strictly increasing sequence number, so a remote console can tail
//! the cluster's history with a cursor (`events_after`) and never see a
//! gap it can't detect.
//!
//! The journal lives here — below every other DVM crate — for the same
//! reason the registry does: the store must be able to *record*
//! compaction events even though durable spooling of the journal is
//! implemented *on top of* the store (in `dvm-watch`). The
//! [`JournalSpool`] trait inverts that dependency: `dvm-watch` installs
//! a store-backed spool, and the journal forwards every event to it and
//! consults it for sequences that have already fallen off the in-memory
//! ring.

use std::collections::VecDeque;

use parking_lot::Mutex;

/// Default in-memory ring capacity.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// Alert lifecycle states, shared between the journal encoding and
/// `dvm-watch`'s state machine so transitions serialize stably.
pub const ALERT_OK: u8 = 0;
/// Fast window burning, slow window not yet.
pub const ALERT_WARNING: u8 = 1;
/// Both windows burning: page somebody.
pub const ALERT_FIRING: u8 = 2;
/// Was firing, burn has subsided; one evaluation later it returns to ok.
pub const ALERT_RESOLVED: u8 = 3;

/// What happened. Variants mirror the instrumentation sites that emit
/// them; every variant has a stable wire tag (see `encode_into`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalKind {
    /// A health-tracker circuit breaker changed state for `shard`
    /// (`state`: 0 = closed, 1 = open, 2 = probing).
    BreakerTransition { shard: u32, state: u8 },
    /// The consistent-hash ring advanced to `epoch`.
    RingEpoch { epoch: u64 },
    /// A cache migration toward `shard` began.
    MigrationBegun { shard: u32 },
    /// A cache migration toward `shard` finished after moving `entries`.
    MigrationCompleted { shard: u32, entries: u64 },
    /// The store rewrote its log, keeping `live` records and reclaiming
    /// `reclaimed` bytes.
    StoreCompaction { live: u64, reclaimed: u64 },
    /// An SLO alert for `objective` moved `from` → `to` (the `ALERT_*`
    /// constants).
    AlertTransition { objective: String, from: u8, to: u8 },
    /// Free-form operational note.
    Note { text: String },
}

impl JournalKind {
    /// Short stable label for rendering (console, exposition).
    pub fn label(&self) -> &'static str {
        match self {
            JournalKind::BreakerTransition { .. } => "breaker",
            JournalKind::RingEpoch { .. } => "ring-epoch",
            JournalKind::MigrationBegun { .. } => "migrate-begin",
            JournalKind::MigrationCompleted { .. } => "migrate-end",
            JournalKind::StoreCompaction { .. } => "compaction",
            JournalKind::AlertTransition { .. } => "alert",
            JournalKind::Note { .. } => "note",
        }
    }
}

/// One journal entry: a sequence number unique and strictly increasing
/// per node, the recorder's clock, the node name, and the typed kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEvent {
    /// Strictly increasing per-node sequence number (starts at 1).
    pub seq: u64,
    /// Recorder timestamp, nanoseconds on the node's monotonic clock.
    pub at_ns: u64,
    /// Node that recorded the event.
    pub node: String,
    /// What happened.
    pub kind: JournalKind,
}

/// Durable continuation of the in-memory ring, installed by a higher
/// layer (`dvm-watch` backs it with `dvm-store`). `append` is called
/// for every recorded event while the journal's lock is *not* held;
/// `events_after` serves cursors older than the ring's tail.
pub trait JournalSpool: Send + Sync {
    /// Persists one event.
    fn append(&self, event: &JournalEvent);
    /// Events with `seq > after`, oldest first, at most `max`.
    fn events_after(&self, after: u64, max: usize) -> Vec<JournalEvent>;
    /// Largest persisted sequence number (0 when empty).
    fn last_seq(&self) -> u64;
}

struct JournalInner {
    next_seq: u64,
    ring: VecDeque<JournalEvent>,
}

/// The bounded event ring. Recording takes one short mutex (the same
/// discipline as the span [`crate::FlightRecorder`]); eviction counts
/// into `dropped` so a reader can tell retention loss from silence.
pub struct EventJournal {
    node: Mutex<String>,
    capacity: usize,
    inner: Mutex<JournalInner>,
    dropped: std::sync::atomic::AtomicU64,
    spool: Mutex<Option<std::sync::Arc<dyn JournalSpool>>>,
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("EventJournal")
            .field("next_seq", &inner.next_seq)
            .field("len", &inner.ring.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl EventJournal {
    /// Creates an empty journal retaining up to `capacity` events.
    pub fn new(capacity: usize) -> EventJournal {
        EventJournal {
            node: Mutex::new(String::new()),
            capacity: capacity.max(1),
            inner: Mutex::new(JournalInner {
                next_seq: 1,
                ring: VecDeque::new(),
            }),
            dropped: std::sync::atomic::AtomicU64::new(0),
            spool: Mutex::new(None),
        }
    }

    /// Sets the node name stamped on subsequent events.
    pub fn set_node(&self, node: &str) {
        *self.node.lock() = node.to_owned();
    }

    /// Installs a durable spool. If the spool already holds events (a
    /// restarted node reopening its log), sequence numbering resumes
    /// *after* the largest persisted sequence so a tailing cursor sees
    /// no regression and no gap.
    pub fn set_spool(&self, spool: std::sync::Arc<dyn JournalSpool>) {
        let last = spool.last_seq();
        {
            let mut inner = self.inner.lock();
            if inner.next_seq <= last {
                inner.next_seq = last + 1;
            }
        }
        *self.spool.lock() = Some(spool);
    }

    /// Records one event at time `at_ns`, returning its sequence number.
    pub fn record(&self, at_ns: u64, kind: JournalKind) -> u64 {
        let node = self.node.lock().clone();
        let (event, evicted) = {
            let mut inner = self.inner.lock();
            let seq = inner.next_seq;
            inner.next_seq += 1;
            let event = JournalEvent {
                seq,
                at_ns,
                node,
                kind,
            };
            inner.ring.push_back(event.clone());
            let evicted = if inner.ring.len() > self.capacity {
                inner.ring.pop_front();
                true
            } else {
                false
            };
            (event, evicted)
        };
        if evicted {
            self.dropped
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        if let Some(spool) = self.spool.lock().clone() {
            spool.append(&event);
        }
        event.seq
    }

    /// Events evicted from the ring so far. A reader holding a cursor
    /// older than `oldest_seq` without a spool installed has lost data.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Sequence number the next event will receive.
    pub fn next_seq(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// Events with `seq > after`, oldest first, at most `max`. When the
    /// cursor predates the ring's oldest entry and a spool is installed,
    /// the missing prefix is read back from the spool, so a tail that
    /// spans a restart (or ring eviction) stays gap-free.
    pub fn events_after(&self, after: u64, max: usize) -> Vec<JournalEvent> {
        if max == 0 {
            return Vec::new();
        }
        let (mut out, ring_oldest) = {
            let inner = self.inner.lock();
            let oldest = inner.ring.front().map(|e| e.seq).unwrap_or(u64::MAX);
            let out: Vec<JournalEvent> = inner
                .ring
                .iter()
                .filter(|e| e.seq > after)
                .take(max)
                .cloned()
                .collect();
            (out, oldest)
        };
        if after + 1 < ring_oldest {
            if let Some(spool) = self.spool.lock().clone() {
                let mut prefix = spool.events_after(after, max);
                prefix.retain(|e| e.seq < ring_oldest);
                if !prefix.is_empty() {
                    prefix.extend(out);
                    prefix.truncate(max);
                    out = prefix;
                }
            }
        }
        out
    }

    /// The newest `max` events, oldest first (console rendering).
    pub fn tail(&self, max: usize) -> Vec<JournalEvent> {
        let inner = self.inner.lock();
        let skip = inner.ring.len().saturating_sub(max);
        inner.ring.iter().skip(skip).cloned().collect()
    }
}

impl Default for EventJournal {
    fn default() -> Self {
        EventJournal::new(DEFAULT_JOURNAL_CAPACITY)
    }
}

// ---------------------------------------------------------------------
// Wire encoding for event batches (the bytes of an `events://` read).
// Same length-prefixed pure-std style as `report.rs`: big-endian
// integers, u16-length strings, explicit bounds checks everywhere.
// ---------------------------------------------------------------------

/// Batch encoding version.
const BATCH_VERSION: u8 = 1;

/// Decoding failures for event batches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// Unknown batch version byte.
    Version(u8),
    /// Structurally invalid bytes.
    Malformed(&'static str),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Version(v) => write!(f, "unknown event batch version {v}"),
            JournalError::Malformed(what) => write!(f, "malformed event batch: {what}"),
        }
    }
}

impl std::error::Error for JournalError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    out.extend_from_slice(&(len as u16).to_be_bytes());
    out.extend_from_slice(&bytes[..len]);
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], JournalError> {
        if self.buf.len() - self.pos < n {
            return Err(JournalError::Malformed("truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, JournalError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, JournalError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, JournalError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, JournalError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, JournalError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| JournalError::Malformed("bad utf-8"))
    }

    /// Guards a declared element count against the bytes that remain.
    fn count(&mut self, min_bytes: usize) -> Result<usize, JournalError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bytes) > self.buf.len() - self.pos {
            return Err(JournalError::Malformed("count exceeds buffer"));
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), JournalError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(JournalError::Malformed("trailing bytes"))
        }
    }
}

fn encode_event(out: &mut Vec<u8>, e: &JournalEvent) {
    put_u64(out, e.seq);
    put_u64(out, e.at_ns);
    put_str(out, &e.node);
    match &e.kind {
        JournalKind::BreakerTransition { shard, state } => {
            out.push(0);
            put_u32(out, *shard);
            out.push(*state);
        }
        JournalKind::RingEpoch { epoch } => {
            out.push(1);
            put_u64(out, *epoch);
        }
        JournalKind::MigrationBegun { shard } => {
            out.push(2);
            put_u32(out, *shard);
        }
        JournalKind::MigrationCompleted { shard, entries } => {
            out.push(3);
            put_u32(out, *shard);
            put_u64(out, *entries);
        }
        JournalKind::StoreCompaction { live, reclaimed } => {
            out.push(4);
            put_u64(out, *live);
            put_u64(out, *reclaimed);
        }
        JournalKind::AlertTransition {
            objective,
            from,
            to,
        } => {
            out.push(5);
            put_str(out, objective);
            out.push(*from);
            out.push(*to);
        }
        JournalKind::Note { text } => {
            out.push(6);
            put_str(out, text);
        }
    }
}

fn decode_event(c: &mut Cursor<'_>) -> Result<JournalEvent, JournalError> {
    let seq = c.u64()?;
    let at_ns = c.u64()?;
    let node = c.string()?;
    let kind = match c.u8()? {
        0 => {
            let shard = c.u32()?;
            let state = c.u8()?;
            if state > 2 {
                return Err(JournalError::Malformed("breaker state out of range"));
            }
            JournalKind::BreakerTransition { shard, state }
        }
        1 => JournalKind::RingEpoch { epoch: c.u64()? },
        2 => JournalKind::MigrationBegun { shard: c.u32()? },
        3 => JournalKind::MigrationCompleted {
            shard: c.u32()?,
            entries: c.u64()?,
        },
        4 => JournalKind::StoreCompaction {
            live: c.u64()?,
            reclaimed: c.u64()?,
        },
        5 => {
            let objective = c.string()?;
            let from = c.u8()?;
            let to = c.u8()?;
            if from > ALERT_RESOLVED || to > ALERT_RESOLVED {
                return Err(JournalError::Malformed("alert state out of range"));
            }
            JournalKind::AlertTransition {
                objective,
                from,
                to,
            }
        }
        6 => JournalKind::Note { text: c.string()? },
        _ => return Err(JournalError::Malformed("unknown event kind")),
    };
    Ok(JournalEvent {
        seq,
        at_ns,
        node,
        kind,
    })
}

/// Serializes a batch of events (the answer to an `events://` read).
pub fn encode_events(events: &[JournalEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + events.len() * 32);
    out.push(BATCH_VERSION);
    put_u32(&mut out, events.len() as u32);
    for e in events {
        encode_event(&mut out, e);
    }
    out
}

/// Parses a batch of events, rejecting hostile counts, truncation, and
/// trailing garbage.
pub fn decode_events(bytes: &[u8]) -> Result<Vec<JournalEvent>, JournalError> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    let version = c.u8()?;
    if version != BATCH_VERSION {
        return Err(JournalError::Version(version));
    }
    // Smallest event: seq(8) + at_ns(8) + node len(2) + tag(1) + one
    // more byte of kind payload.
    let n = c.count(19)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(decode_event(&mut c)?);
    }
    c.finish()?;
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample_kinds() -> Vec<JournalKind> {
        vec![
            JournalKind::BreakerTransition { shard: 2, state: 1 },
            JournalKind::RingEpoch { epoch: 7 },
            JournalKind::MigrationBegun { shard: 3 },
            JournalKind::MigrationCompleted {
                shard: 3,
                entries: 41,
            },
            JournalKind::StoreCompaction {
                live: 100,
                reclaimed: 4096,
            },
            JournalKind::AlertTransition {
                objective: "error-ratio".into(),
                from: ALERT_OK,
                to: ALERT_FIRING,
            },
            JournalKind::Note {
                text: "operator note".into(),
            },
        ]
    }

    #[test]
    fn sequences_increase_and_batches_round_trip() {
        let j = EventJournal::new(64);
        j.set_node("shard0");
        let mut last = 0;
        for (i, kind) in sample_kinds().into_iter().enumerate() {
            let seq = j.record(i as u64 * 10, kind);
            assert!(seq > last);
            last = seq;
        }
        let events = j.events_after(0, 100);
        assert_eq!(events.len(), 7);
        let bytes = encode_events(&events);
        let back = decode_events(&bytes).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn cursor_tail_is_exact() {
        let j = EventJournal::new(64);
        for i in 0..10u64 {
            j.record(i, JournalKind::RingEpoch { epoch: i });
        }
        let first = j.events_after(0, 4);
        assert_eq!(
            first.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        let rest = j.events_after(first.last().unwrap().seq, 100);
        assert_eq!(
            rest.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (5..=10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn eviction_counts_dropped() {
        let j = EventJournal::new(4);
        for i in 0..10u64 {
            j.record(i, JournalKind::RingEpoch { epoch: i });
        }
        assert_eq!(j.dropped(), 6);
        let events = j.events_after(0, 100);
        assert_eq!(events.first().unwrap().seq, 7);
    }

    struct MemSpool(Mutex<Vec<JournalEvent>>);

    impl JournalSpool for MemSpool {
        fn append(&self, event: &JournalEvent) {
            self.0.lock().push(event.clone());
        }
        fn events_after(&self, after: u64, max: usize) -> Vec<JournalEvent> {
            self.0
                .lock()
                .iter()
                .filter(|e| e.seq > after)
                .take(max)
                .cloned()
                .collect()
        }
        fn last_seq(&self) -> u64 {
            self.0.lock().last().map(|e| e.seq).unwrap_or(0)
        }
    }

    #[test]
    fn spool_backfills_evicted_prefix_and_resumes_seq() {
        let spool = Arc::new(MemSpool(Mutex::new(Vec::new())));
        let j = EventJournal::new(3);
        j.set_spool(spool.clone());
        for i in 0..8u64 {
            j.record(i, JournalKind::RingEpoch { epoch: i });
        }
        // Ring holds 6..8; cursor 0 must still see 1..8 via the spool.
        let events = j.events_after(0, 100);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (1..=8).collect::<Vec<_>>()
        );
        // A "restarted" journal over the same spool continues numbering.
        let j2 = EventJournal::new(3);
        j2.set_spool(spool);
        let seq = j2.record(
            99,
            JournalKind::Note {
                text: "back".into(),
            },
        );
        assert_eq!(seq, 9);
        let resumed = j2.events_after(4, 100);
        assert_eq!(
            resumed.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (5..=9).collect::<Vec<_>>()
        );
    }

    #[test]
    fn hostile_batches_are_rejected() {
        assert!(decode_events(&[]).is_err());
        assert!(decode_events(&[9]).is_err()); // unknown version
                                               // Hostile count: claims 4 billion events in 8 bytes.
        let mut b = vec![BATCH_VERSION];
        b.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(decode_events(&b).is_err());
        // Trailing garbage after a valid batch.
        let mut ok = encode_events(&[JournalEvent {
            seq: 1,
            at_ns: 2,
            node: "n".into(),
            kind: JournalKind::RingEpoch { epoch: 3 },
        }]);
        let valid = ok.clone();
        assert!(decode_events(&valid).is_ok());
        ok.push(0);
        assert!(decode_events(&ok).is_err());
        // Truncation at every cut is an error, never a panic.
        for cut in 0..valid.len() {
            assert!(decode_events(&valid[..cut]).is_err());
        }
    }
}
