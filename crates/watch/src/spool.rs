//! Durable journal spooling through `dvm-store`.
//!
//! The in-memory [`EventJournal`](dvm_telemetry::EventJournal) ring
//! forgets: eviction and restarts both lose history. [`StoreSpool`]
//! implements the journal's [`JournalSpool`] trait over a crash-safe
//! log-structured [`Store`]: every event is appended under a
//! zero-padded sequence key (`evt/00000000000000000042`), so
//! lexicographic key order *is* sequence order, `events_after` is a
//! sorted-key scan, and a restarted node recovers its largest persisted
//! sequence to keep numbering — and tailing cursors — gap-free across
//! the restart.

use std::path::Path;

use parking_lot::Mutex;

use dvm_store::{Store, StoreConfig};
use dvm_telemetry::events::{decode_events, encode_events};
use dvm_telemetry::{JournalEvent, JournalSpool};

/// Key prefix for journal events inside the spool store.
const KEY_PREFIX: &str = "evt/";

fn event_key(seq: u64) -> String {
    format!("{KEY_PREFIX}{seq:020}")
}

fn key_seq(key: &str) -> Option<u64> {
    key.strip_prefix(KEY_PREFIX)?.parse().ok()
}

/// A [`JournalSpool`] backed by a dedicated [`Store`] directory.
pub struct StoreSpool {
    store: Mutex<Store>,
}

impl std::fmt::Debug for StoreSpool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreSpool").finish()
    }
}

impl StoreSpool {
    /// Opens (or creates) the spool at `dir`, replaying any existing
    /// log. Batched durability: the store groups fsyncs, and a crash
    /// loses at most the unsynced tail — the journal ring still holds
    /// recent events, so the overlap covers the gap in practice.
    pub fn open(dir: impl AsRef<Path>) -> Result<StoreSpool, dvm_store::StoreError> {
        let store = Store::open(dir, StoreConfig::default())?;
        Ok(StoreSpool {
            store: Mutex::new(store),
        })
    }

    /// Events persisted so far.
    pub fn len(&self) -> usize {
        self.store.lock().len()
    }

    /// True when no events have been persisted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl JournalSpool for StoreSpool {
    fn append(&self, event: &JournalEvent) {
        let bytes = encode_events(std::slice::from_ref(event));
        // Spooling is best-effort: a full disk must not take the
        // serving path down with it.
        let _ = self.store.lock().put(&event_key(event.seq), &bytes);
    }

    fn events_after(&self, after: u64, max: usize) -> Vec<JournalEvent> {
        let mut store = self.store.lock();
        let mut keys: Vec<String> = store
            .keys()
            .into_iter()
            .filter(|k| key_seq(k).is_some_and(|seq| seq > after))
            .collect();
        keys.sort();
        keys.truncate(max);
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            if let Ok(Some(bytes)) = store.get(&key) {
                if let Ok(batch) = decode_events(&bytes) {
                    out.extend(batch);
                }
            }
        }
        out
    }

    fn last_seq(&self) -> u64 {
        self.store
            .lock()
            .keys()
            .into_iter()
            .filter_map(|k| key_seq(&k))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_telemetry::{EventJournal, JournalKind};
    use std::sync::Arc;

    #[test]
    fn spooled_journal_survives_a_restart_without_seq_gaps() {
        let dir = std::env::temp_dir().join(format!("dvm-spool-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        {
            let journal = EventJournal::new(4);
            journal.set_node("shard0");
            journal.set_spool(Arc::new(StoreSpool::open(&dir).unwrap()));
            for epoch in 0..6u64 {
                journal.record(epoch, JournalKind::RingEpoch { epoch });
            }
        }
        // "Restart": a new journal over the same directory continues
        // numbering, and a cursor from before the restart reads the
        // persisted prefix, then the live tail — no gap, no duplicate.
        let journal = EventJournal::new(4);
        journal.set_node("shard0");
        journal.set_spool(Arc::new(StoreSpool::open(&dir).unwrap()));
        journal.record(100, JournalKind::Note { text: "up".into() });
        let seqs: Vec<u64> = journal.events_after(2, 100).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (3..=7).collect::<Vec<_>>());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
