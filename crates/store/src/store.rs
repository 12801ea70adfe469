//! The store proper: segmented append-only log + in-memory index.
//!
//! Single-writer by construction: every method takes `&mut self`, and
//! the one process that owns the data directory owns the `Store`. The
//! DVM wraps it in the same mutex that already serializes the rewrite
//! cache, so the discipline costs nothing extra.
//!
//! ## Recovery
//!
//! [`Store::open`] scans segment files in id order and replays every
//! committed record into the index. The first defective record — short
//! header, overrunning length, CRC mismatch, missing commit marker,
//! malformed body — ends the committed prefix: the segment is truncated
//! at that offset and **all later segments are deleted**, so the store
//! never resurrects a record written after a torn one (that would
//! reorder history). A defective segment *header* drops that whole
//! segment the same way.
//!
//! ## Durability
//!
//! Appends go through `write_all` immediately; [`Durability`] only
//! controls when `fsync` is issued. `Always` syncs every append,
//! `Batch(n)` every `n` appends, `Never` leaves it to the OS. An
//! in-process crash (the SIGKILL-equivalent the tests use) loses
//! nothing that `write_all` returned for; a machine crash loses at most
//! the unsynced tail, which recovery then truncates cleanly.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dvm_telemetry::{SpanId, Telemetry, TraceId};

use crate::record::{
    encode_record, encode_segment_header, parse_record, parse_segment_header, KIND_PUT,
    KIND_TOMBSTONE, SEGMENT_HEADER_LEN,
};

/// When appends are flushed to the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// `fsync` after every append. Slowest, loses nothing.
    Always,
    /// `fsync` every `n` appends (and on [`Store::flush`]/segment roll).
    Batch(u32),
    /// Never `fsync`; the OS decides. Survives process death, not power loss.
    Never,
}

impl Default for Durability {
    fn default() -> Durability {
        Durability::Batch(16)
    }
}

/// Tuning knobs for a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Roll to a fresh segment once the active one reaches this size.
    pub segment_max_bytes: u64,
    /// Fsync policy for appends.
    pub durability: Durability,
    /// Auto-compact when `dead / (live + dead)` reaches this ratio…
    pub compact_min_dead_ratio: f64,
    /// …and the log holds at least this many bytes (so tiny stores
    /// don't churn).
    pub compact_min_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            segment_max_bytes: 4 << 20,
            durability: Durability::default(),
            compact_min_dead_ratio: 0.5,
            compact_min_bytes: 1 << 20,
        }
    }
}

/// Store failures. Corruption found on *open* never errors — recovery
/// truncates it away; `Corrupt` is reserved for invariant breaks that
/// recovery cannot express (none today — reads degrade to misses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    Io(std::io::ErrorKind, String),
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(kind, detail) => write!(f, "store io error ({kind:?}): {detail}"),
            StoreError::Corrupt(detail) => write!(f, "store corruption: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e.kind(), e.to_string())
    }
}

dvm_telemetry::counters! {
    /// Registered handles behind [`StoreStats`].
    struct StoreCounters;
    /// A store's counts, read from the telemetry plane it was opened on
    /// — the only place they live. Their scope is that plane's: a store
    /// from [`Store::open`] has a plane of its own, so its counts start
    /// at its open; a store opened on a longer-lived plane (a proxy's,
    /// through [`Store::open_on`]) adds to what that plane already
    /// holds, so `recovered_records` sums every open on it.
    pub struct StoreStats {
        /// Records appended (puts + tombstones).
        appends = "store.appends",
        /// `fsync` calls issued.
        fsyncs = "store.fsyncs",
        /// Committed records replayed by recovery.
        recovered_records = "store.recovered_records",
        /// Bytes discarded by recovery (torn tails + dropped segments).
        truncated_bytes = "store.truncated_bytes",
        /// Compaction passes completed.
        compactions = "store.compactions",
        /// Value reads served from disk.
        reads = "store.reads",
        /// Reads that failed re-verification and were degraded to misses.
        read_corruptions = "store.read_corruptions",
    }
    gauges {
        /// Live segment files.
        segments = "store.segments",
        /// Keys currently live in the index.
        live_records = "store.live_records",
        /// Framed bytes owed to superseded records and tombstones.
        dead_bytes = "store.dead_bytes",
    }
}

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    segment: u64,
    offset: u64,
    total_len: u32,
}

struct Segment {
    file: File,
    path: PathBuf,
    len: u64,
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("{id:016x}.seg"))
}

/// One page of a key-ordered export: the `(key, value)` pairs plus a
/// flag that is `true` when the requested range is exhausted.
pub type ExportPage = (Vec<(String, Vec<u8>)>, bool);

/// A crash-safe, log-structured key→bytes store. See the module docs
/// for the on-disk format and recovery rules.
pub struct Store {
    dir: PathBuf,
    config: StoreConfig,
    index: HashMap<String, IndexEntry>,
    segments: BTreeMap<u64, Segment>,
    active: u64,
    appends_since_sync: u32,
    live_bytes: u64,
    dead_bytes: u64,
    counters: StoreCounters,
    telemetry: Arc<Telemetry>,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("keys", &self.index.len())
            .field("segments", &self.segments.len())
            .finish()
    }
}

impl Store {
    /// Opens (creating if needed) the store rooted at `dir`, replaying
    /// every committed record and truncating any torn tail. The store
    /// counts on a telemetry plane of its own; [`Store::open_on`] is
    /// the same open on a caller's plane.
    pub fn open(dir: impl AsRef<Path>, config: StoreConfig) -> Result<Store, StoreError> {
        Store::open_on(dir, config, Arc::new(Telemetry::new("store")))
    }

    /// [`Store::open`] counting on `telemetry` from the first record
    /// recovery replays: `store.*` counters and gauges, and the
    /// `store.open` and `store.compact` spans.
    pub fn open_on(
        dir: impl AsRef<Path>,
        config: StoreConfig,
        telemetry: Arc<Telemetry>,
    ) -> Result<Store, StoreError> {
        let started = telemetry.recorder().now_ns();
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;

        let mut ids = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(hex) = name.strip_suffix(".seg") {
                if let Ok(id) = u64::from_str_radix(hex, 16) {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();

        let mut store = Store {
            dir,
            config,
            index: HashMap::new(),
            segments: BTreeMap::new(),
            active: 0,
            appends_since_sync: 0,
            live_bytes: 0,
            dead_bytes: 0,
            counters: StoreCounters::register(telemetry.registry()),
            telemetry,
        };
        store.recover(&ids)?;

        // Reopen (or create) the active segment for appends.
        match store.segments.keys().next_back().copied() {
            Some(last) if store.segments[&last].len < store.config.segment_max_bytes => {
                store.active = last;
            }
            Some(last) => {
                store.create_segment(last + 1)?;
            }
            None => {
                store.create_segment(0)?;
            }
        }
        store.refresh_gauges();
        store.record_span("store.open", started);
        Ok(store)
    }

    /// Replays segments `ids` (sorted ascending) into the index,
    /// truncating at the first defect and deleting everything after it.
    fn recover(&mut self, ids: &[u64]) -> Result<(), StoreError> {
        for (pos, &id) in ids.iter().enumerate() {
            let path = segment_path(&self.dir, id);
            let buf = fs::read(&path)?;
            let header_ok = parse_segment_header(&buf) == Some(id);
            if !header_ok {
                dvm_fuzz::cov!("store.recover.bad_header");
                // Nothing in this segment is trustworthy; it and every
                // later segment leave the committed prefix.
                self.counters.truncated_bytes.add(buf.len() as u64);
                fs::remove_file(&path)?;
                self.drop_trailing_segments(&ids[pos + 1..])?;
                return Ok(());
            }
            let mut offset = SEGMENT_HEADER_LEN;
            let mut torn = false;
            while offset < buf.len() {
                match parse_record(&buf, offset) {
                    Some(rec) => {
                        dvm_fuzz::cov!("store.recover.record");
                        self.counters.recovered_records.inc();
                        let entry = IndexEntry {
                            segment: id,
                            offset: offset as u64,
                            total_len: rec.total_len as u32,
                        };
                        match rec.kind {
                            KIND_PUT => {
                                if let Some(old) = self.index.insert(rec.key, entry) {
                                    self.live_bytes -= old.total_len as u64;
                                    self.dead_bytes += old.total_len as u64;
                                }
                                self.live_bytes += rec.total_len as u64;
                            }
                            _ => {
                                if let Some(old) = self.index.remove(&rec.key) {
                                    self.live_bytes -= old.total_len as u64;
                                    self.dead_bytes += old.total_len as u64;
                                }
                                self.dead_bytes += rec.total_len as u64;
                            }
                        }
                        offset += rec.total_len;
                    }
                    None => {
                        dvm_fuzz::cov!("store.recover.torn");
                        // Torn tail: truncate here, drop later segments.
                        self.counters
                            .truncated_bytes
                            .add((buf.len() - offset) as u64);
                        let f = OpenOptions::new().write(true).open(&path)?;
                        f.set_len(offset as u64)?;
                        f.sync_all()?;
                        self.counters.fsyncs.inc();
                        torn = true;
                        break;
                    }
                }
            }
            let final_len = if torn {
                offset as u64
            } else {
                buf.len() as u64
            };
            let file = OpenOptions::new().read(true).append(true).open(&path)?;
            self.segments.insert(
                id,
                Segment {
                    file,
                    path,
                    len: final_len,
                },
            );
            if torn {
                self.drop_trailing_segments(&ids[pos + 1..])?;
                return Ok(());
            }
        }
        Ok(())
    }

    fn drop_trailing_segments(&mut self, ids: &[u64]) -> Result<(), StoreError> {
        for &id in ids {
            let path = segment_path(&self.dir, id);
            if let Ok(meta) = fs::metadata(&path) {
                self.counters.truncated_bytes.add(meta.len());
            }
            fs::remove_file(&path)?;
        }
        if !ids.is_empty() {
            self.sync_dir()?;
        }
        Ok(())
    }

    fn create_segment(&mut self, id: u64) -> Result<(), StoreError> {
        let path = segment_path(&self.dir, id);
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create_new(true)
            .open(&path)?;
        file.write_all(&encode_segment_header(id))?;
        self.segments.insert(
            id,
            Segment {
                file,
                path,
                len: SEGMENT_HEADER_LEN as u64,
            },
        );
        self.active = id;
        self.sync_dir()?;
        Ok(())
    }

    fn sync_dir(&mut self) -> Result<(), StoreError> {
        File::open(&self.dir)?.sync_all()?;
        self.counters.fsyncs.inc();
        Ok(())
    }

    fn refresh_gauges(&self) {
        self.counters.segments.set(self.segments.len() as i64);
        self.counters.live_records.set(self.index.len() as i64);
        self.counters.dead_bytes.set(self.dead_bytes as i64);
    }

    /// Records a root span `name` that began at `start` (recorder ns).
    fn record_span(&self, name: &str, start: u64) {
        let rec = self.telemetry.recorder();
        let duration = rec.now_ns().saturating_sub(start);
        rec.record_span(
            TraceId::generate(),
            SpanId::generate(),
            SpanId::NONE,
            name,
            start,
            duration,
        );
    }

    /// Appends `key → value`. The previous value (if any) becomes dead
    /// weight until compaction.
    pub fn put(&mut self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        let rec = encode_record(KIND_PUT, key, value);
        let entry = self.append(&rec)?;
        if let Some(old) = self.index.insert(key.to_owned(), entry) {
            self.live_bytes -= old.total_len as u64;
            self.dead_bytes += old.total_len as u64;
        }
        self.live_bytes += rec.len() as u64;
        self.after_append()?;
        Ok(())
    }

    /// Deletes `key`, appending a tombstone so the delete survives
    /// restart. Returns whether the key was present.
    pub fn delete(&mut self, key: &str) -> Result<bool, StoreError> {
        let Some(old) = self.index.remove(key) else {
            return Ok(false);
        };
        let rec = encode_record(KIND_TOMBSTONE, key, b"");
        self.append(&rec)?;
        self.live_bytes -= old.total_len as u64;
        self.dead_bytes += old.total_len as u64 + rec.len() as u64;
        self.after_append()?;
        Ok(true)
    }

    fn append(&mut self, rec: &[u8]) -> Result<IndexEntry, StoreError> {
        let entry = self.append_uncounted(rec)?;
        self.counters.appends.inc();
        match self.config.durability {
            Durability::Always => self.sync_active()?,
            Durability::Batch(n) => {
                self.appends_since_sync += 1;
                if self.appends_since_sync >= n.max(1) {
                    self.sync_active()?;
                }
            }
            Durability::Never => {}
        }
        Ok(entry)
    }

    /// Post-append housekeeping: segment roll and auto-compaction.
    fn after_append(&mut self) -> Result<(), StoreError> {
        if self.segments[&self.active].len >= self.config.segment_max_bytes {
            self.sync_active()?;
            self.create_segment(self.active + 1)?;
        }
        let total = self.live_bytes + self.dead_bytes;
        if total >= self.config.compact_min_bytes
            && self.dead_bytes as f64 >= total as f64 * self.config.compact_min_dead_ratio
        {
            self.compact()?;
        }
        self.refresh_gauges();
        Ok(())
    }

    fn sync_active(&mut self) -> Result<(), StoreError> {
        let seg = self.segments.get_mut(&self.active).expect("active segment");
        seg.file.sync_all()?;
        self.appends_since_sync = 0;
        self.counters.fsyncs.inc();
        Ok(())
    }

    /// Forces everything appended so far to the platter.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.sync_active()
    }

    /// Reads the value for `key`, re-verifying the record's CRC and
    /// commit marker. A record that no longer verifies is dropped from
    /// the index and reported as a miss (never served corrupt).
    pub fn get(&mut self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        let Some(entry) = self.index.get(key).copied() else {
            return Ok(None);
        };
        self.counters.reads.inc();
        match self.read_entry(key, entry)? {
            Some(value) => Ok(Some(value)),
            None => {
                self.counters.read_corruptions.inc();
                if let Some(old) = self.index.remove(key) {
                    self.live_bytes -= old.total_len as u64;
                    self.dead_bytes += old.total_len as u64;
                    self.refresh_gauges();
                }
                Ok(None)
            }
        }
    }

    /// Reads and fully re-validates one framed record; `None` when it
    /// no longer parses or the key does not match the index.
    fn read_entry(&mut self, key: &str, entry: IndexEntry) -> Result<Option<Vec<u8>>, StoreError> {
        let Some(seg) = self.segments.get_mut(&entry.segment) else {
            return Ok(None);
        };
        let mut buf = vec![0u8; entry.total_len as usize];
        seg.file.seek(SeekFrom::Start(entry.offset))?;
        if seg.file.read_exact(&mut buf).is_err() {
            return Ok(None);
        }
        match parse_record(&buf, 0) {
            Some(rec) if rec.key == key && rec.total_len == buf.len() => Ok(Some(
                buf[rec.value_start..rec.value_start + rec.value_len].to_vec(),
            )),
            _ => Ok(None),
        }
    }

    /// Whether `key` is live (index only; no disk access).
    pub fn contains(&self, key: &str) -> bool {
        self.index.contains_key(key)
    }

    /// Live key count.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// All live keys, sorted (the audit spool replays in this order).
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.index.keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Up to `max` live `(key, value)` pairs in ascending key order,
    /// strictly after `after` (empty string = from the first key), each
    /// value re-validated like [`Store::get`] — records that no longer
    /// verify are skipped, not served. The second return is `true` when
    /// the range is exhausted. This is the source side of live cache
    /// migration: resumable (the caller passes back the last key it
    /// ingested) and bounded (never pins more than `max` values).
    pub fn export_after(&mut self, after: &str, max: usize) -> Result<ExportPage, StoreError> {
        let keys: Vec<String> = {
            let mut keys: Vec<&String> = self.index.keys().filter(|k| k.as_str() > after).collect();
            keys.sort();
            keys.into_iter().cloned().collect()
        };
        let complete = keys.len() <= max;
        let mut out = Vec::with_capacity(keys.len().min(max));
        for key in keys.into_iter().take(max) {
            if let Some(value) = self.get(&key)? {
                out.push((key, value));
            }
        }
        Ok((out, complete))
    }

    /// Rewrites every live record into fresh segments and deletes the
    /// old files. Crash-safe: new segments are written and synced
    /// before any old file is unlinked, and recovery replays in id
    /// order, so a crash at any point yields either the old view or
    /// the new one — never a mix that loses a key.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        let started = self.telemetry.recorder().now_ns();
        let reclaimable = self.dead_bytes;
        let mut live: Vec<(String, IndexEntry)> =
            self.index.iter().map(|(k, e)| (k.clone(), *e)).collect();
        live.sort_by(|a, b| a.0.cmp(&b.0));

        let mut values = Vec::with_capacity(live.len());
        for (key, entry) in &live {
            match self.read_entry(key, *entry)? {
                Some(v) => values.push((key.clone(), v)),
                None => self.counters.read_corruptions.inc(),
            }
        }

        let old_ids: Vec<u64> = self.segments.keys().copied().collect();
        let next = old_ids.last().map_or(0, |last| last + 1);

        self.index.clear();
        self.live_bytes = 0;
        self.dead_bytes = 0;
        self.create_segment(next)?;
        for (key, value) in &values {
            let rec = encode_record(KIND_PUT, key, value);
            if self.segments[&self.active].len + rec.len() as u64 > self.config.segment_max_bytes
                && self.segments[&self.active].len > SEGMENT_HEADER_LEN as u64
            {
                self.sync_active()?;
                self.create_segment(self.active + 1)?;
            }
            let entry = self.append_uncounted(&rec)?;
            self.index.insert(key.clone(), entry);
            self.live_bytes += rec.len() as u64;
        }
        self.sync_active()?;
        for id in old_ids {
            let seg = self.segments.remove(&id).expect("old segment present");
            fs::remove_file(&seg.path)?;
        }
        self.sync_dir()?;
        self.counters.compactions.inc();
        self.refresh_gauges();
        self.record_span("store.compact", started);
        self.telemetry
            .record_event(dvm_telemetry::JournalKind::StoreCompaction {
                live: self.index.len() as u64,
                reclaimed: reclaimable,
            });
        Ok(())
    }

    /// Writes `rec` to the active segment without counting it or
    /// applying the durability policy (compaction syncs explicitly at
    /// its own barriers).
    fn append_uncounted(&mut self, rec: &[u8]) -> Result<IndexEntry, StoreError> {
        let id = self.active;
        let seg = self.segments.get_mut(&id).expect("active segment exists");
        let offset = seg.len;
        seg.file.write_all(rec)?;
        seg.len += rec.len() as u64;
        Ok(IndexEntry {
            segment: id,
            offset,
            total_len: rec.len() as u32,
        })
    }

    /// This store's counts, read from its telemetry plane.
    pub fn stats(&self) -> StoreStats {
        self.counters.view()
    }

    /// The data directory this store owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configuration the store was opened with.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }
}
