//! Durable per-trial feature store: the learned predictors' training
//! data, persisted next to the trial ledger.
//!
//! Every trial the harness executes yields a [`TrialFeatures`] record
//! (dynamic-op mix, taint-spread trajectory, comm-graph position — see
//! `resilim_core::features`). The store appends them as JSONL under
//! `--store DIR/features/`, keyed exactly like the ledger
//! (`CampaignSpec::ledger_key` + seed + trial index), so the same
//! machinery that shards, merges, and resumes trial outcomes applies to
//! features verbatim:
//!
//! * **Shard**: each shard's process appends to its own file; merging a
//!   store directory reassembles the full campaign's training set.
//! * **Resume**: a resumed trial is *not* re-extracted — its features
//!   were persisted by the run that executed it, and the lenient loader
//!   picks them up from the files named for the campaign's key (every
//!   pid's), without reading the rest of the store.
//! * **Merge and training**: [`FeatureStore::load_strict`] and
//!   [`FeatureStore::load_all`] scan every `*.jsonl` file, so a
//!   duplicate or forged record is caught wherever it sits.
//! * **Determinism**: records are appended in reorder-buffer delivery
//!   order, so the file contents for a given `(spec, seed)` are
//!   byte-identical across worker counts, batch sizes, and one-shot vs
//!   daemon execution.
//!
//! Corruption tolerance mirrors [`crate::ledger::TrialLedger`]: every
//! line parses independently; a truncated tail, interleaved garbage, a
//! stale schema version, a foreign-campaign record, or (for resume) a
//! record in a file not named for its key each degrade to "that trial's
//! features were never stored".

use crate::jsonl_files;
use parking_lot::Mutex;
use resilim_core::{TrialFeatures, FEATURE_SCHEMA_VERSION};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Records appended between fsyncs (same cadence as the ledger).
const SYNC_BATCH: usize = 64;

/// File-name stem of feature files (`features-<fnv64(key)>-<pid>.jsonl`).
const FILE_STEM: &str = "features";

/// One durable feature record (one JSONL line).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FeatureRecord {
    /// Feature-schema version ([`FEATURE_SCHEMA_VERSION`]). Stale
    /// versions are skipped on load, never migrated.
    v: u32,
    /// The campaign's ledger key (same identity as the trial ledger).
    key: String,
    /// Campaign seed (folded into `key`; explicit for self-description).
    seed: u64,
    /// Trial index within the campaign.
    trial: usize,
    /// The trial's extracted features.
    features: TrialFeatures,
}

/// Append-only, crash-tolerant per-trial feature store for one campaign.
///
/// Each process appends to its own file
/// (`features-<fnv64(key)>-<pid>.jsonl`) so concurrent shards sharing a
/// store directory never interleave partial lines. Resume
/// ([`FeatureStore::load`]) reads the files named for the key, from every
/// pid; merge and training scan every `*.jsonl` file. All loaders filter
/// by `(version, key, seed)`.
pub struct FeatureStore {
    key: String,
    seed: u64,
    writer: Mutex<Writer>,
}

struct Writer {
    /// Unbuffered: each batch is built as one string and goes out in
    /// one `write_all`, so a buffer would only add a copy.
    file: File,
    /// Appends since the last fsync.
    unsynced: usize,
}

impl FeatureStore {
    /// Open (creating the directory and this process's append file if
    /// needed) the feature store for one campaign key.
    pub fn open(dir: impl AsRef<Path>, key: &str, seed: u64) -> std::io::Result<FeatureStore> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(Self::file_name(key)))?;
        Ok(FeatureStore {
            key: key.to_string(),
            seed,
            writer: Mutex::new(Writer { file, unsynced: 0 }),
        })
    }

    /// This process's append-file name for `key`.
    pub fn file_name(key: &str) -> String {
        jsonl_files::file_name(FILE_STEM, key)
    }

    /// Append a batch of trials' features with one writer lock and one
    /// `write`. Same best-effort durability contract as
    /// the ledger: flushed to the OS immediately, fsynced every
    /// `SYNC_BATCH` records, IO errors swallowed (a full disk degrades
    /// the training set, it must not kill the campaign).
    pub fn append_batch(&self, records: &[(usize, TrialFeatures)]) {
        if records.is_empty() {
            return;
        }
        let mut lines = String::new();
        for &(trial, features) in records {
            let rec = FeatureRecord {
                v: FEATURE_SCHEMA_VERSION,
                key: self.key.clone(),
                seed: self.seed,
                trial,
                features,
            };
            let Ok(line) = serde_json::to_string(&rec) else {
                continue;
            };
            lines.push_str(&line);
            lines.push('\n');
        }
        let mut w = self.writer.lock();
        if w.file.write_all(lines.as_bytes()).is_err() {
            return;
        }
        w.unsynced += records.len();
        if w.unsynced >= SYNC_BATCH {
            let _ = w.file.sync_data();
            w.unsynced = 0;
        }
    }

    /// Fsync any appends not yet synced (also done on drop).
    pub fn sync(&self) {
        let mut w = self.writer.lock();
        if w.unsynced > 0 {
            let _ = w.file.sync_data();
            w.unsynced = 0;
        }
    }

    /// Load every valid record for `(key, seed)` from the feature files
    /// named for `key` under `dir` (every pid's): trial index →
    /// features. Tolerates a missing directory, unreadable files,
    /// truncated/corrupt lines, stale schema versions, and
    /// foreign-campaign records — each degrades to "not stored". Files
    /// in other names are not read. Files scan in name order; later
    /// records win.
    pub fn load(dir: impl AsRef<Path>, key: &str, seed: u64) -> HashMap<usize, TrialFeatures> {
        let paths = jsonl_files::keyed_files(dir.as_ref(), FILE_STEM, key);
        Self::scan(&paths)
            .into_iter()
            .filter(|(rec, _)| rec.key == key && rec.seed == seed)
            .map(|(rec, _)| (rec.trial, rec.features))
            .collect()
    }

    /// Load *every* campaign's records under `dir`, keyed by
    /// `(ledger key, seed, trial)` — the training-set loader for
    /// `resilim model`, which learns across all deployments a store
    /// holds. Same corruption tolerance as [`FeatureStore::load`].
    pub fn load_all(dir: impl AsRef<Path>) -> Vec<TrialFeatures> {
        let mut keyed: HashMap<(String, u64, usize), TrialFeatures> = HashMap::new();
        for (rec, _) in Self::scan(&jsonl_files::all_files(dir.as_ref())) {
            keyed.insert((rec.key, rec.seed, rec.trial), rec.features);
        }
        let mut entries: Vec<_> = keyed.into_iter().collect();
        // Deterministic training order regardless of hash-map iteration.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.into_iter().map(|(_, f)| f).collect()
    }

    /// Like [`FeatureStore::load`], but for *merging*: duplicate trial
    /// records and identity mismatches are hard errors, exactly as in
    /// [`crate::ledger::TrialLedger::load_strict`] (an overlapping-shard
    /// misconfiguration must not silently double-count training rows).
    pub fn load_strict(
        dir: impl AsRef<Path>,
        key: &str,
        seed: u64,
    ) -> Result<HashMap<usize, TrialFeatures>, String> {
        let mut out = HashMap::new();
        for (rec, path) in Self::scan(&jsonl_files::all_files(dir.as_ref())) {
            if rec.key != key {
                continue;
            }
            if rec.seed != seed {
                return Err(format!(
                    "feature store {}: record for trial {} matches campaign key \
                     but carries seed {} (expected {}) — deployment identity \
                     mismatch, refusing to merge",
                    path.display(),
                    rec.trial,
                    rec.seed,
                    seed,
                ));
            }
            if out.insert(rec.trial, rec.features).is_some() {
                return Err(format!(
                    "feature store {}: duplicate record for trial {} — the same \
                     shard ran twice into this store, or feature files from \
                     separate runs were mixed; refusing to merge",
                    path.display(),
                    rec.trial,
                ));
            }
        }
        Ok(out)
    }

    /// Every parseable current-version record in `paths`, with its
    /// source path, in the given order; stale schema versions are
    /// skipped, never migrated.
    fn scan(paths: &[PathBuf]) -> Vec<(FeatureRecord, &Path)> {
        let mut records = jsonl_files::read_records::<FeatureRecord>(paths);
        records.retain(|(rec, _)| rec.v == FEATURE_SCHEMA_VERSION);
        records
    }
}

impl Drop for FeatureStore {
    fn drop(&mut self) {
        self.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilim_core::OutcomeKind;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("resilim-features-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn feat(label: OutcomeKind, total_ops: u64) -> TrialFeatures {
        TrialFeatures::quiet(label, 4, total_ops, [1.0, 0.0, 0.0, 0.0, 0.0])
    }

    /// The file another process would append `key`'s records to.
    fn other_pid_file(key: &str) -> String {
        FeatureStore::file_name(key).replace(&format!("-{}.", std::process::id()), "-zzz.")
    }

    #[test]
    fn appends_roundtrip_and_filter_by_key() {
        let dir = temp_dir("roundtrip");
        let store = FeatureStore::open(&dir, "k1", 7).unwrap();
        store.append_batch(&[(0, feat(OutcomeKind::Success, 10))]);
        store.append_batch(&[(2, feat(OutcomeKind::Sdc, 20))]);
        store.sync();
        let other = FeatureStore::open(&dir, "k2", 7).unwrap();
        other.append_batch(&[(0, feat(OutcomeKind::Failure, 30))]);
        other.sync();

        let k1 = FeatureStore::load(&dir, "k1", 7);
        assert_eq!(k1.len(), 2);
        assert_eq!(k1[&0], feat(OutcomeKind::Success, 10));
        assert_eq!(k1[&2], feat(OutcomeKind::Sdc, 20));
        assert_eq!(FeatureStore::load(&dir, "k2", 7).len(), 1);
        assert!(FeatureStore::load(&dir, "k1", 8).is_empty());
        // The cross-campaign training loader sees everything once.
        assert_eq!(FeatureStore::load_all(&dir).len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The satellite requirement: a run killed mid-append leaves a
    /// truncated final line; the loader must recover every complete
    /// record and treat the torn one as never stored.
    #[test]
    fn truncated_last_line_recovers_complete_records() {
        let dir = temp_dir("truncated");
        let store = FeatureStore::open(&dir, "k", 1).unwrap();
        store.append_batch(&[
            (0, feat(OutcomeKind::Success, 10)),
            (1, feat(OutcomeKind::Sdc, 20)),
            (2, feat(OutcomeKind::Failure, 30)),
        ]);
        drop(store);
        // Tear the file mid-way through the last record, as a crash or
        // power loss during the final append would.
        let path = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let raw = std::fs::read_to_string(&path).unwrap();
        let keep = raw.len() - raw.lines().last().unwrap().len() / 2;
        std::fs::write(&path, &raw[..keep]).unwrap();

        let map = FeatureStore::load(&dir, "k", 1);
        assert_eq!(map.len(), 2, "complete records survive: {map:?}");
        assert!(map.contains_key(&0));
        assert!(map.contains_key(&1));
        assert!(!map.contains_key(&2), "torn record degrades to missing");
        // Strict load tolerates the same corruption (it is not a
        // duplicate or an identity mismatch).
        assert_eq!(FeatureStore::load_strict(&dir, "k", 1).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_lines_and_stale_versions_are_skipped() {
        let dir = temp_dir("corrupt");
        let store = FeatureStore::open(&dir, "k", 1).unwrap();
        store.append_batch(&[(0, feat(OutcomeKind::Success, 10))]);
        drop(store);
        let good = serde_json::to_string(&FeatureRecord {
            v: 999,
            key: "k".into(),
            seed: 1,
            trial: 5,
            features: feat(OutcomeKind::Sdc, 50),
        })
        .unwrap();
        std::fs::write(
            dir.join(other_pid_file("k")),
            format!("not json at all\n{good}\n"),
        )
        .unwrap();
        let map = FeatureStore::load(&dir, "k", 1);
        assert_eq!(map.len(), 1, "{map:?}");
        assert!(!map.contains_key(&5), "stale-version record ignored");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_loads_empty() {
        let dir = temp_dir("missing");
        assert!(FeatureStore::load(&dir, "k", 0).is_empty());
        assert!(FeatureStore::load_all(&dir).is_empty());
        assert!(FeatureStore::load_strict(&dir, "k", 0).unwrap().is_empty());
    }

    #[test]
    fn strict_load_rejects_duplicates_and_forged_seeds() {
        let dir = temp_dir("strict");
        let store = FeatureStore::open(&dir, "k", 1).unwrap();
        store.append_batch(&[(0, feat(OutcomeKind::Success, 10))]);
        drop(store);
        let path = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let line = std::fs::read_to_string(&path).unwrap();
        // Duplicate trial in a second file → refuse to merge.
        std::fs::write(dir.join(other_pid_file("k")), &line).unwrap();
        let err = FeatureStore::load_strict(&dir, "k", 1).unwrap_err();
        assert!(err.contains("duplicate record for trial 0"), "{err}");
        // Forged seed wearing our key → identity mismatch.
        let forged = line
            .replace("\"seed\":1", "\"seed\":2")
            .replace("\"trial\":0", "\"trial\":7");
        std::fs::write(dir.join(other_pid_file("k")), forged).unwrap();
        let err = FeatureStore::load_strict(&dir, "k", 1).unwrap_err();
        assert!(err.contains("identity"), "{err}");
        // Lenient load skips the foreign-seed record entirely.
        assert_eq!(FeatureStore::load(&dir, "k", 1).len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_reads_every_pid_file_of_its_key() {
        let dir = temp_dir("two-pids");
        let store = FeatureStore::open(&dir, "k", 1).unwrap();
        store.append_batch(&[(0, feat(OutcomeKind::Success, 10))]);
        drop(store);
        let line = std::fs::read_to_string(dir.join(FeatureStore::file_name("k")))
            .unwrap()
            .replace("\"trial\":0", "\"trial\":1");
        std::fs::write(dir.join(other_pid_file("k")), line).unwrap();
        let map = FeatureStore::load(&dir, "k", 1);
        assert_eq!(map.len(), 2, "{map:?}");
        assert_eq!(FeatureStore::load_strict(&dir, "k", 1).unwrap(), map);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_named_record_is_merged_but_not_resumed() {
        let dir = temp_dir("foreign-name");
        let store = FeatureStore::open(&dir, "k", 1).unwrap();
        store.append_batch(&[(0, feat(OutcomeKind::Success, 10))]);
        drop(store);
        let line = std::fs::read_to_string(dir.join(FeatureStore::file_name("k")))
            .unwrap()
            .replace("\"trial\":0", "\"trial\":1");
        std::fs::write(dir.join("features-zzz.jsonl"), &line).unwrap();
        let resumed = FeatureStore::load(&dir, "k", 1);
        assert_eq!(resumed.keys().collect::<Vec<_>>(), [&0]);
        assert_eq!(FeatureStore::load_strict(&dir, "k", 1).unwrap().len(), 2);
        assert_eq!(FeatureStore::load_all(&dir).len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn another_keys_corrupt_file_leaves_resume_unchanged() {
        let dir = temp_dir("other-corrupt");
        let store = FeatureStore::open(&dir, "k", 1).unwrap();
        store.append_batch(&[
            (0, feat(OutcomeKind::Success, 10)),
            (1, feat(OutcomeKind::Sdc, 20)),
        ]);
        drop(store);
        let before = FeatureStore::load(&dir, "k", 1);
        std::fs::write(dir.join(other_pid_file("other")), "garbage\n{\"v\":1,\"ke").unwrap();
        std::fs::write(
            dir.join(FeatureStore::file_name("other")),
            [0xff, 0xfe, b'\n'],
        )
        .unwrap();
        assert_eq!(FeatureStore::load(&dir, "k", 1), before);
        assert_eq!(FeatureStore::load_strict(&dir, "k", 1).unwrap(), before);
        assert_eq!(FeatureStore::load_all(&dir).len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
