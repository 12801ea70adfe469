//! `dvm-store`: a crash-safe, log-structured persistent store.
//!
//! The paper's proxy is organized around a shared rewrite cache and an
//! audit trail to a remote administration console (§3, §4.1.2); both
//! need state that outlives the proxy process. This crate is the
//! persistence layer under them: a from-scratch, single-writer,
//! key→bytes store in the log-structured tradition —
//!
//! - **append-only segment files** of length-prefixed records, each
//!   CRC32-checked and sealed by a commit marker ([`record`]);
//! - **recovery by scan**: [`Store::open`] replays committed records
//!   into an in-memory index and truncates the first torn write it
//!   meets, so a crash mid-append costs at most the uncommitted tail;
//! - **tombstone deletes** and **size-triggered compaction** into
//!   fresh segments, so dead weight is reclaimed without ever updating
//!   a byte in place;
//! - **fsync batching** under a configurable [`Durability`] policy.
//!
//! Everything is `std` + `parking_lot` only; the CRC is written here
//! ([`crc`]), not imported. Upstack, the proxy's `RewriteCache` disk
//! tier and the monitor's audit spool are both thin layers over
//! [`Store`].

pub mod crc;
pub mod record;
mod store;

pub use crc::crc32;
pub use store::{Durability, ExportPage, Store, StoreConfig, StoreError, StoreStats};

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use dvm_telemetry::Telemetry;

    /// A unique, self-cleaning temp dir per test.
    pub(crate) struct TempDir(pub PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> TempDir {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("dvm-store-{tag}-{}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn open(dir: &TempDir) -> Store {
        Store::open(&dir.0, StoreConfig::default()).unwrap()
    }

    #[test]
    fn put_get_delete_round_trip() {
        let tmp = TempDir::new("basic");
        let mut s = open(&tmp);
        assert_eq!(s.get("k").unwrap(), None);
        s.put("k", b"v1").unwrap();
        assert_eq!(s.get("k").unwrap().as_deref(), Some(&b"v1"[..]));
        s.put("k", b"v2").unwrap();
        assert_eq!(s.get("k").unwrap().as_deref(), Some(&b"v2"[..]));
        assert!(s.delete("k").unwrap());
        assert!(!s.delete("k").unwrap());
        assert_eq!(s.get("k").unwrap(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn reopen_recovers_puts_and_tombstones() {
        let tmp = TempDir::new("reopen");
        {
            let mut s = open(&tmp);
            s.put("a", b"alpha").unwrap();
            s.put("b", b"beta").unwrap();
            s.put("a", b"alpha2").unwrap();
            s.delete("b").unwrap();
            s.put("c", b"gamma").unwrap();
            // No flush: write_all alone must survive a process drop.
        }
        let mut s = open(&tmp);
        assert_eq!(s.stats().recovered_records, 5);
        assert_eq!(s.stats().truncated_bytes, 0);
        assert_eq!(s.get("a").unwrap().as_deref(), Some(&b"alpha2"[..]));
        assert_eq!(s.get("b").unwrap(), None);
        assert_eq!(s.get("c").unwrap().as_deref(), Some(&b"gamma"[..]));
        assert_eq!(s.keys(), vec!["a".to_string(), "c".to_string()]);
    }

    #[test]
    fn torn_tail_is_truncated_to_the_committed_prefix() {
        let tmp = TempDir::new("torn");
        {
            let mut s = open(&tmp);
            s.put("good", b"committed").unwrap();
        }
        // Simulate a torn write: append half a record to the segment.
        let seg = fs::read_dir(&tmp.0)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "seg"))
            .unwrap();
        let full = record::encode_record(record::KIND_PUT, "half", b"never committed");
        let mut bytes = fs::read(&seg).unwrap();
        let committed_len = bytes.len();
        bytes.extend_from_slice(&full[..full.len() / 2]);
        fs::write(&seg, &bytes).unwrap();

        let mut s = open(&tmp);
        assert_eq!(s.stats().recovered_records, 1);
        assert_eq!(s.stats().truncated_bytes, (full.len() / 2) as u64);
        assert_eq!(s.get("good").unwrap().as_deref(), Some(&b"committed"[..]));
        assert_eq!(s.get("half").unwrap(), None);
        assert_eq!(fs::metadata(&seg).unwrap().len(), committed_len as u64);
        // And the truncated store keeps working.
        s.put("after", b"recovery").unwrap();
        drop(s);
        let mut s = open(&tmp);
        assert_eq!(s.get("after").unwrap().as_deref(), Some(&b"recovery"[..]));
    }

    #[test]
    fn segments_roll_at_the_size_cap_and_reads_span_them() {
        let tmp = TempDir::new("roll");
        let cfg = StoreConfig {
            segment_max_bytes: 256,
            compact_min_bytes: u64::MAX, // disable auto-compaction
            ..StoreConfig::default()
        };
        let mut s = Store::open(&tmp.0, cfg.clone()).unwrap();
        for i in 0..32 {
            s.put(&format!("key{i:02}"), &[i as u8; 40]).unwrap();
        }
        assert!(s.stats().segments > 1, "expected a segment roll");
        for i in 0..32 {
            assert_eq!(
                s.get(&format!("key{i:02}")).unwrap().as_deref(),
                Some(&[i as u8; 40][..])
            );
        }
        drop(s);
        let mut s = Store::open(&tmp.0, cfg).unwrap();
        assert_eq!(s.len(), 32);
        assert_eq!(s.get("key31").unwrap().as_deref(), Some(&[31u8; 40][..]));
    }

    #[test]
    fn compaction_drops_dead_weight_and_preserves_live_data() {
        let tmp = TempDir::new("compact");
        let cfg = StoreConfig {
            segment_max_bytes: 512,
            compact_min_bytes: u64::MAX,
            ..StoreConfig::default()
        };
        let mut s = Store::open(&tmp.0, cfg.clone()).unwrap();
        for round in 0..8 {
            for i in 0..8 {
                s.put(&format!("k{i}"), &[round as u8; 64]).unwrap();
            }
        }
        s.delete("k7").unwrap();
        let before = s.stats();
        assert!(before.dead_bytes > 0);
        s.compact().unwrap();
        let after = s.stats();
        assert_eq!(after.compactions, 1);
        assert_eq!(after.dead_bytes, 0);
        assert!(after.segments < before.segments);
        assert_eq!(s.len(), 7);
        for i in 0..7 {
            assert_eq!(
                s.get(&format!("k{i}")).unwrap().as_deref(),
                Some(&[7u8; 64][..])
            );
        }
        // A reopen after compaction sees exactly the live set.
        drop(s);
        let mut s = Store::open(&tmp.0, cfg).unwrap();
        assert_eq!(s.len(), 7);
        assert_eq!(s.get("k0").unwrap().as_deref(), Some(&[7u8; 64][..]));
        assert_eq!(s.get("k7").unwrap(), None);
    }

    #[test]
    fn auto_compaction_triggers_on_dead_ratio() {
        let tmp = TempDir::new("autocompact");
        let cfg = StoreConfig {
            segment_max_bytes: 1 << 20,
            compact_min_bytes: 2_000,
            compact_min_dead_ratio: 0.5,
            ..StoreConfig::default()
        };
        let mut s = Store::open(&tmp.0, cfg).unwrap();
        for _ in 0..64 {
            s.put("same-key", &[0xAB; 64]).unwrap();
        }
        assert!(
            s.stats().compactions >= 1,
            "rewriting one key should compact"
        );
        assert_eq!(s.get("same-key").unwrap().as_deref(), Some(&[0xAB; 64][..]));
    }

    #[test]
    fn durability_always_syncs_every_append() {
        let tmp = TempDir::new("durable");
        let cfg = StoreConfig {
            durability: Durability::Always,
            ..StoreConfig::default()
        };
        let mut s = Store::open(&tmp.0, cfg).unwrap();
        let base = s.stats().fsyncs;
        s.put("a", b"1").unwrap();
        s.put("b", b"2").unwrap();
        assert_eq!(s.stats().fsyncs, base + 2);
    }

    #[test]
    fn durability_batch_syncs_every_n_appends() {
        let tmp = TempDir::new("batch");
        let cfg = StoreConfig {
            durability: Durability::Batch(4),
            ..StoreConfig::default()
        };
        let mut s = Store::open(&tmp.0, cfg).unwrap();
        let base = s.stats().fsyncs;
        for i in 0..7 {
            s.put(&format!("k{i}"), b"v").unwrap();
        }
        assert_eq!(s.stats().fsyncs, base + 1, "7 appends at Batch(4) = 1 sync");
        s.flush().unwrap();
        assert_eq!(s.stats().fsyncs, base + 2);
    }

    #[test]
    fn flipped_bit_on_disk_degrades_to_a_miss_not_a_wrong_value() {
        let tmp = TempDir::new("bitrot");
        let mut s = open(&tmp);
        s.put("victim", b"precious payload bytes").unwrap();
        s.flush().unwrap();
        // Flip one bit inside the stored value, behind the store's back.
        let seg = fs::read_dir(&tmp.0)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "seg"))
            .unwrap();
        let mut bytes = fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 5] ^= 0x10;
        fs::write(&seg, &bytes).unwrap();
        drop(s);
        // A fresh open truncates it away entirely…
        let mut s = open(&tmp);
        assert_eq!(s.get("victim").unwrap(), None);
        drop(s);
        // …and a *live* store that reads a rotted record degrades to a
        // miss (read-path re-verification).
        let tmp = TempDir::new("bitrot-live");
        let mut s = open(&tmp);
        s.put("victim", b"precious payload bytes").unwrap();
        s.flush().unwrap();
        let seg = fs::read_dir(&tmp.0)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "seg"))
            .unwrap();
        let mut bytes = fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 5] ^= 0x10;
        fs::write(&seg, &bytes).unwrap();
        assert_eq!(s.get("victim").unwrap(), None);
        assert_eq!(s.stats().read_corruptions, 1);
    }

    #[test]
    fn open_on_counts_on_the_given_plane_from_recovery() {
        let tmp = TempDir::new("telemetry");
        open(&tmp).put("early", b"first life").unwrap();
        let t = Arc::new(Telemetry::new("store-test"));
        let mut s = Store::open_on(&tmp.0, StoreConfig::default(), t.clone()).unwrap();
        s.put("late", b"second life").unwrap();
        let snap = t.registry().snapshot();
        assert_eq!(snap.counter("store.recovered_records"), 1);
        assert_eq!(snap.counter("store.appends"), 1);
        assert_eq!(snap.gauge("store.live_records"), 2);
        assert_eq!(s.stats().live_records, 2);
        s.compact().unwrap();
        let spans: Vec<String> = t.recorder().dump().into_iter().map(|sp| sp.name).collect();
        assert!(spans.iter().any(|n| n == "store.open"), "{spans:?}");
        assert!(spans.iter().any(|n| n == "store.compact"), "{spans:?}");
        assert_eq!(s.stats().compactions, 1);
    }

    #[test]
    fn export_after_pages_the_key_space_in_order() {
        let tmp = TempDir::new("export");
        let mut s = open(&tmp);
        for i in 0..10 {
            s.put(&format!("k{i}"), &[i as u8; 8]).unwrap();
        }
        // First page from the start.
        let (page, complete) = s.export_after("", 4).unwrap();
        assert!(!complete);
        let keys: Vec<&str> = page.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["k0", "k1", "k2", "k3"]);
        assert_eq!(page[2].1, vec![2u8; 8]);
        // Resume strictly after the last key seen.
        let (page, complete) = s.export_after("k3", 100).unwrap();
        assert!(complete);
        assert_eq!(page.len(), 6);
        assert_eq!(page[0].0, "k4");
        assert_eq!(page[5].0, "k9");
        // Past the end: empty and complete.
        let (page, complete) = s.export_after("k9", 4).unwrap();
        assert!(page.is_empty());
        assert!(complete);
        // Exactly max remaining counts as complete.
        let (page, complete) = s.export_after("k7", 2).unwrap();
        assert_eq!(page.len(), 2);
        assert!(complete);
    }

    #[test]
    fn empty_dir_and_double_open_are_fine() {
        let tmp = TempDir::new("empty");
        {
            let s = open(&tmp);
            assert!(s.is_empty());
            assert_eq!(s.stats().segments, 1);
        }
        let s = open(&tmp);
        assert!(s.is_empty());
    }

    #[test]
    fn corrupt_segment_header_drops_that_segment_and_later_ones() {
        let tmp = TempDir::new("badheader");
        let cfg = StoreConfig {
            segment_max_bytes: 200,
            compact_min_bytes: u64::MAX,
            ..StoreConfig::default()
        };
        {
            let mut s = Store::open(&tmp.0, cfg.clone()).unwrap();
            for i in 0..12 {
                s.put(&format!("k{i:02}"), &[i as u8; 50]).unwrap();
            }
            assert!(s.stats().segments >= 3);
        }
        // Corrupt the magic of the *second* segment.
        let mut segs: Vec<PathBuf> = fs::read_dir(&tmp.0)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "seg"))
            .collect();
        segs.sort();
        let mut bytes = fs::read(&segs[1]).unwrap();
        bytes[0] = b'X';
        fs::write(&segs[1], &bytes).unwrap();

        let s = Store::open(&tmp.0, cfg).unwrap();
        // Only records from segment 0 survive; the bad segment and all
        // later ones are gone from disk.
        let remaining: Vec<PathBuf> = fs::read_dir(&tmp.0)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "seg"))
            .collect();
        assert!(remaining.iter().all(|p| !segs[2..].contains(p)));
        assert!(s.stats().truncated_bytes > 0);
        for key in s.keys() {
            assert!(key.starts_with('k'));
        }
    }
}
