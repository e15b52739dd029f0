//! The on-disk half of the plan cache.
//!
//! One file per key (`<key-hex>.json`) under a flat directory, written
//! atomically (temp file + rename) so a crashed or concurrent writer
//! can never leave a half-written record for a reader to trip over.
//! Unreadable or undecodable files are treated as misses — a corrupted
//! cache degrades to recompilation, never to an error.

use crate::PlanKey;
use flashfuser_core::codec::{decode_record, encode_record, PlanRecord};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process;
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory of persisted plan records, one JSON file per key.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
}

impl DiskStore {
    /// Opens (creating if necessary) the store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be
    /// created.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<DiskStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(DiskStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: &PlanKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.file_stem()))
    }

    /// Loads the record for `key`, or `None` when absent/corrupt (a
    /// corrupt file is a miss by design — see module docs).
    pub fn load(&self, key: &PlanKey) -> Option<PlanRecord> {
        let text = fs::read_to_string(self.path_for(key)).ok()?;
        decode_record(&text).ok()
    }

    /// Persists the record for `key` atomically.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the temp write or rename
    /// fails.
    pub fn save(&self, key: &PlanKey, record: &PlanRecord) -> io::Result<()> {
        // Globally unique temp name (pid + process-wide counter) so
        // concurrent writers of one key — other processes *or* other
        // threads of this one — never interleave writes on the same
        // temp file. The rename is atomic, so readers only ever see a
        // complete record; whichever writer renames last wins (records
        // for one key can differ only in name metadata).
        static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
        let final_path = self.path_for(key);
        let tmp_path = self.dir.join(format!(
            ".{}.{}.{}.tmp",
            key.file_stem(),
            process::id(),
            WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp_path, encode_record(record))?;
        fs::rename(&tmp_path, &final_path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashfuser_core::{MachineDescriptor, SearchConfig, SearchEngine};
    use flashfuser_graph::ChainSpec;
    use flashfuser_tensor::Activation;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "flashfuser-store-test-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record() -> PlanRecord {
        let chain = ChainSpec::standard_ffn(128, 512, 256, 256, Activation::Relu).named("st");
        let engine = SearchEngine::new(MachineDescriptor::h100_sxm());
        let result = engine.search(&chain, &SearchConfig::default()).unwrap();
        PlanRecord {
            plan: result.best().analysis.plan().clone(),
            seconds: 3.25e-6,
            global_bytes: 11,
            dsm_bytes: 22,
            feasible: result.stats().eligible,
        }
    }

    #[test]
    fn save_load_round_trip() {
        let dir = temp_dir("roundtrip");
        let store = DiskStore::open(&dir).unwrap();
        let key = PlanKey::new(1, 2, 3);
        assert!(store.load(&key).is_none());
        let r = record();
        store.save(&key, &r).unwrap();
        assert_eq!(store.load(&key).unwrap(), r);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_file_is_a_miss() {
        let dir = temp_dir("corrupt");
        let store = DiskStore::open(&dir).unwrap();
        let key = PlanKey::new(9, 9, 9);
        fs::write(store.dir().join(format!("{}.json", key.file_stem())), "]]").unwrap();
        assert!(store.load(&key).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn distinct_keys_distinct_files() {
        let dir = temp_dir("keys");
        let store = DiskStore::open(&dir).unwrap();
        let r = record();
        store.save(&PlanKey::new(1, 0, 0), &r).unwrap();
        store.save(&PlanKey::new(2, 0, 0), &r).unwrap();
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
