//! Durable per-trial campaign ledger: crash-tolerant resume, shardable
//! execution, and bounded retry policy.
//!
//! A campaign of `n` trials used to be all-or-nothing: a crash, OOM
//! kill, or CI timeout at trial `n-1` threw every result away. The
//! ledger makes each completed trial durable the moment it finishes: an
//! append-only JSONL file under `--store DIR/ledger/`, one record per
//! trial keyed by `(campaign ledger key, seed, trial index)`, flushed
//! per record and fsynced in batches.
//!
//! Three features ride on it:
//!
//! * **Resume** (`--resume`): already-ledgered trials are skipped and
//!   their recorded outcomes re-aggregated — bitwise identical to an
//!   uninterrupted run, because a trial is fully determined by
//!   `(spec, seed, trial index)` and [`TestOutcome`] is integral data
//!   (no floats to re-round).
//! * **Sharding** (`--shard i/N`, [`Shard`]): a deterministic partition
//!   of the trial index space (`trial % N == i`), so `N` independent
//!   processes or CI jobs each run a disjoint slice. Their ledgers —
//!   merged in one directory — reassemble into the complete campaign
//!   via `resilim merge`.
//! * **Retry** ([`RetryPolicy`]): a wedged trial (watchdog deadline
//!   trip) is retried with exponential backoff; after the budget is
//!   exhausted it is recorded as a `Hang` outcome instead of wedging
//!   the campaign.
//!
//! Resume and merge read the store differently. Resume
//! ([`TrialLedger::load`]) reads only the campaign's own files,
//! `trials-<fnv64(key)>-<pid>.jsonl` from any pid, so its cost follows
//! the campaign and not the store. Merge ([`TrialLedger::load_strict`])
//! scans every `*.jsonl` file, so a duplicate or forged record is
//! caught wherever it sits.
//!
//! Corruption tolerance mirrors the golden cache: every line is parsed
//! independently, and a truncated tail, interleaved garbage, a
//! stale-version record, a record for a different campaign key, or a
//! record in a file not named for its key all degrade to "that trial
//! was never ledgered" — resume re-runs exactly the affected trials and
//! the merged result still equals a fresh run.

use crate::jsonl_files;
use parking_lot::Mutex;
use resilim_inject::TestOutcome;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Version stamp of the on-disk trial record. Bump whenever the record
/// layout *or trial semantics* change; stale-version records are
/// skipped on load (the affected trials re-run), never migrated.
pub const LEDGER_VERSION: u32 = 1;

/// Records appended between fsyncs. Each append is flushed to the OS
/// immediately (survives a process crash); the batch fsync bounds what
/// a power loss can cost.
const SYNC_BATCH: usize = 64;

/// File-name stem of ledger files (`trials-<fnv64(key)>-<pid>.jsonl`).
const FILE_STEM: &str = "trials";

/// One durable trial record (one JSONL line).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TrialRecord {
    /// Record-format version ([`LEDGER_VERSION`]).
    v: u32,
    /// The campaign's ledger key (deployment identity minus the trial
    /// count, so shards and differently-sized runs share records).
    key: String,
    /// Campaign seed (also folded into `key`; kept explicit so records
    /// are self-describing to external consumers).
    seed: u64,
    /// Trial index within the campaign.
    trial: usize,
    /// The trial's outcome.
    outcome: TestOutcome,
    /// Watchdog retries this trial needed (0 = first attempt stuck).
    attempts: u32,
}

/// A deterministic `1/N` partition of the trial index space.
///
/// Shard `i/N` owns exactly the trials with `trial % N == i`: every
/// trial belongs to exactly one shard, the partition is independent of
/// execution order and machine, and N round-robin slices have near-equal
/// size, so CI matrix jobs finish together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's index, `0 <= index < count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// Parse the CLI spelling `i/N`.
    pub fn parse(s: &str) -> Result<Shard, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("--shard wants i/N, got '{s}'"))?;
        let index: usize = i
            .trim()
            .parse()
            .map_err(|e| format!("--shard index: {e}"))?;
        let count: usize = n
            .trim()
            .parse()
            .map_err(|e| format!("--shard count: {e}"))?;
        if count == 0 {
            return Err("--shard count must be >= 1".into());
        }
        if index >= count {
            return Err(format!("--shard index {index} out of range for /{count}"));
        }
        Ok(Shard { index, count })
    }

    /// Whether this shard runs `trial`.
    pub fn owns(&self, trial: usize) -> bool {
        trial % self.count == self.index
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Bounded retry with exponential backoff for wedged (watchdog-tripped)
/// trials.
///
/// Deterministic in-simulation crashes and hangs are *final* outcomes —
/// re-running them would reproduce them bitwise — so the policy applies
/// only to trials the wall-clock watchdog killed, which signal external
/// interference (machine load, a wedged worker) rather than the fault
/// under study. After `max_retries` the trial is recorded as a `Hang`.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = record the trip directly).
    pub max_retries: u32,
    /// Backoff before retry 1; doubles per retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// Same backoff schedule, different retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> RetryPolicy {
        self.max_retries = max_retries;
        self
    }

    /// Backoff before retry `attempt` (0-based): `base * 2^attempt`,
    /// capped at [`RetryPolicy::max_backoff`].
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }
}

/// Append-only, crash-tolerant per-trial ledger for one campaign.
///
/// Each process appends to its own file
/// (`trials-<fnv64(key)>-<pid>.jsonl`) so concurrent shards sharing a
/// store directory never interleave partial lines. Resume
/// ([`TrialLedger::load`]) reads the files named for the key, from every
/// pid; merge ([`TrialLedger::load_strict`]) scans every `*.jsonl` file.
/// Both filter by `(version, key, seed)`.
pub struct TrialLedger {
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

impl TrialLedger {
    /// Open (creating the directory and this process's append file if
    /// needed) the ledger for one campaign key.
    pub fn open(dir: impl AsRef<Path>, key: &str, seed: u64) -> std::io::Result<TrialLedger> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(Self::file_name(key)))?;
        Ok(TrialLedger {
            key: key.to_string(),
            seed,
            writer: Mutex::new(Writer { file, unsynced: 0 }),
        })
    }

    /// This process's append-file name for `key`.
    pub fn file_name(key: &str) -> String {
        jsonl_files::file_name(FILE_STEM, key)
    }

    /// Append one completed trial. Best-effort durability: the line is
    /// flushed to the OS immediately (a crashed *process* loses
    /// nothing) and fsynced every `SYNC_BATCH` appends (bounding what
    /// a power loss can cost); IO errors are swallowed — a full disk
    /// must not kill the campaign, it only degrades resumability.
    pub fn append(&self, trial: usize, outcome: &TestOutcome, attempts: u32) {
        self.append_batch(&[(trial, *outcome, attempts)]);
    }

    /// Append a batch of completed trials with one writer lock and one
    /// `write` — the amortized form batched admission
    /// uses. Durability bound is unchanged: the whole batch reaches the
    /// OS before this returns, and the `SYNC_BATCH` fsync cadence
    /// counts individual records, not calls.
    pub fn append_batch(&self, records: &[(usize, TestOutcome, u32)]) {
        if records.is_empty() {
            return;
        }
        let mut lines = String::new();
        for &(trial, outcome, attempts) in records {
            let rec = TrialRecord {
                v: LEDGER_VERSION,
                key: self.key.clone(),
                seed: self.seed,
                trial,
                outcome,
                attempts,
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

    /// Load every valid record for `(key, seed)` from the ledger files
    /// named for `key` under `dir` (every pid's): trial index → outcome.
    /// Tolerates a missing directory, unreadable files,
    /// truncated/corrupt lines, stale versions, and foreign-campaign
    /// records — each degrades to "not ledgered". Files in other names
    /// are not read, so a record outside its campaign's files is never
    /// resumed (its trial re-runs deterministically). Files are scanned
    /// in name order and later records win (re-runs of a trial are
    /// deterministic, so this is cosmetic).
    pub fn load(dir: impl AsRef<Path>, key: &str, seed: u64) -> HashMap<usize, TestOutcome> {
        let paths = jsonl_files::keyed_files(dir.as_ref(), FILE_STEM, key);
        Self::scan(&paths)
            .into_iter()
            .filter(|(rec, _)| rec.key == key && rec.seed == seed)
            .map(|(rec, _)| (rec.trial, rec.outcome))
            .collect()
    }

    /// Like [`TrialLedger::load`], but for *merging*: it scans every
    /// `*.jsonl` file under `dir`, whatever its name, and adversarial
    /// conditions that resume can shrug off are hard errors here.
    ///
    /// * **Duplicate trial records** (two valid records for the same
    ///   `(key, seed, trial)`) error out. Legitimate flows never produce
    ///   them — resume skips already-ledgered trials and shards are
    ///   disjoint — so a duplicate means the same shard ran twice into
    ///   one directory, or ledgers from separate runs were mixed.
    ///   Silently deduping would let an overlapping-shard
    ///   misconfiguration double-count a slice of the campaign.
    /// * **Identity mismatches** — a record whose `key` matches but
    ///   whose explicit `seed` field does not — error out. The seed is
    ///   folded into the key, so the two can only disagree on a forged
    ///   or corrupted record; adopting it would merge a trial from a
    ///   different deployment.
    ///
    /// Unparseable lines, stale versions, and foreign-key records are
    /// still skipped (corruption tolerance is unchanged — those degrade
    /// to "never ledgered" and the merge reports the missing trials).
    pub fn load_strict(
        dir: impl AsRef<Path>,
        key: &str,
        seed: u64,
    ) -> Result<HashMap<usize, TestOutcome>, String> {
        let mut out = HashMap::new();
        for (rec, path) in Self::scan(&jsonl_files::all_files(dir.as_ref())) {
            if rec.key != key {
                continue; // different campaign
            }
            if rec.seed != seed {
                return Err(format!(
                    "ledger {}: record for trial {} matches campaign key but \
                     carries seed {} (expected {}) — deployment identity \
                     mismatch, refusing to merge",
                    path.display(),
                    rec.trial,
                    rec.seed,
                    seed,
                ));
            }
            if out.insert(rec.trial, rec.outcome).is_some() {
                return Err(format!(
                    "ledger {}: duplicate record for trial {} — the same \
                     shard ran twice into this store, or ledgers from \
                     separate runs were mixed; refusing to merge (re-run \
                     the shard with --resume into a clean directory)",
                    path.display(),
                    rec.trial,
                ));
            }
        }
        Ok(out)
    }

    /// Every parseable current-version record in `paths`, with its
    /// source path, in the given order; stale versions are skipped,
    /// never migrated.
    fn scan(paths: &[PathBuf]) -> Vec<(TrialRecord, &Path)> {
        let mut records = jsonl_files::read_records::<TrialRecord>(paths);
        records.retain(|(rec, _)| rec.v == LEDGER_VERSION);
        records
    }
}

impl Drop for TrialLedger {
    fn drop(&mut self) {
        self.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilim_inject::FailureKind;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("resilim-ledger-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The file another process would append `key`'s records to.
    fn other_pid_file(key: &str) -> String {
        TrialLedger::file_name(key).replace(&format!("-{}.", std::process::id()), "-zzz.")
    }

    #[test]
    fn appends_roundtrip_and_filter_by_key() {
        let dir = temp_dir("roundtrip");
        let ledger = TrialLedger::open(&dir, "k1", 7).unwrap();
        ledger.append(0, &TestOutcome::success(true, 1, 1), 0);
        ledger.append(2, &TestOutcome::sdc(3, 1), 1);
        ledger.sync();
        let other = TrialLedger::open(&dir, "k2", 7).unwrap();
        other.append(0, &TestOutcome::failure(FailureKind::Crash, 0, 0), 0);
        other.sync();

        let k1 = TrialLedger::load(&dir, "k1", 7);
        assert_eq!(k1.len(), 2);
        assert_eq!(k1[&0], TestOutcome::success(true, 1, 1));
        assert_eq!(k1[&2], TestOutcome::sdc(3, 1));
        // Different key and different seed see none of k1's records.
        assert_eq!(TrialLedger::load(&dir, "k2", 7).len(), 1);
        assert!(TrialLedger::load(&dir, "k1", 8).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_lines_and_stale_versions_are_skipped() {
        let dir = temp_dir("corrupt");
        let ledger = TrialLedger::open(&dir, "k", 1).unwrap();
        ledger.append(0, &TestOutcome::success(true, 1, 1), 0);
        ledger.append(1, &TestOutcome::sdc(2, 1), 0);
        drop(ledger);
        // Interleave garbage, a stale-version record, and a truncated
        // final line into a second ledger file.
        std::fs::write(
            dir.join(other_pid_file("k")),
            concat!(
                "not json at all\n",
                "{\"v\":999,\"key\":\"k\",\"seed\":1,\"trial\":5,\"outcome\":",
                "{\"kind\":\"Sdc\",\"failure\":null,\"masked\":false,",
                "\"contaminated_ranks\":1,\"injections_fired\":1},\"attempts\":0}\n",
                "{\"v\":1,\"key\":\"k\",\"seed\":1,\"trial\":3,\"outc"
            ),
        )
        .unwrap();
        let map = TrialLedger::load(&dir, "k", 1);
        assert_eq!(map.len(), 2, "{map:?}");
        assert!(
            !map.contains_key(&5),
            "stale-version record must be ignored"
        );
        assert!(!map.contains_key(&3), "truncated record must be ignored");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_loads_empty() {
        let dir = temp_dir("missing");
        assert!(TrialLedger::load(&dir, "k", 0).is_empty());
        assert!(TrialLedger::load_strict(&dir, "k", 0).unwrap().is_empty());
    }

    #[test]
    fn strict_load_rejects_duplicate_trials() {
        let dir = temp_dir("strict-dup");
        let ledger = TrialLedger::open(&dir, "k", 1).unwrap();
        ledger.append(0, &TestOutcome::success(true, 1, 1), 0);
        ledger.append(1, &TestOutcome::sdc(2, 1), 0);
        drop(ledger);
        // A well-formed record for trial 1 lands in a *second* file, as
        // if the same shard ran twice into one store directory.
        let line = std::fs::read_to_string(
            std::fs::read_dir(&dir)
                .unwrap()
                .next()
                .unwrap()
                .unwrap()
                .path(),
        )
        .unwrap()
        .lines()
        .nth(1)
        .unwrap()
        .to_string();
        std::fs::write(dir.join(other_pid_file("k")), format!("{line}\n")).unwrap();
        // Lenient load dedupes (resume semantics)…
        assert_eq!(TrialLedger::load(&dir, "k", 1).len(), 2);
        // …but the merge path must fail loudly.
        let err = TrialLedger::load_strict(&dir, "k", 1).unwrap_err();
        assert!(err.contains("duplicate record for trial 1"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strict_load_rejects_identity_mismatch() {
        let dir = temp_dir("strict-seed");
        let ledger = TrialLedger::open(&dir, "k", 1).unwrap();
        ledger.append(0, &TestOutcome::success(true, 1, 1), 0);
        drop(ledger);
        // Forge a record whose key matches but whose seed field does
        // not: the seed is folded into the key, so this can only be a
        // corrupted or foreign record wearing our key.
        let path = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let forged = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"seed\":1", "\"seed\":2")
            .replace("\"trial\":0", "\"trial\":7");
        std::fs::write(dir.join(other_pid_file("k")), forged).unwrap();
        // Lenient load silently skips it (different campaign)…
        assert_eq!(TrialLedger::load(&dir, "k", 1).len(), 1);
        // …strict load refuses to merge.
        let err = TrialLedger::load_strict(&dir, "k", 1).unwrap_err();
        assert!(err.contains("identity"), "{err}");
        assert!(err.contains("seed 2"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strict_load_still_tolerates_corruption() {
        let dir = temp_dir("strict-corrupt");
        let ledger = TrialLedger::open(&dir, "k", 1).unwrap();
        ledger.append(0, &TestOutcome::success(true, 1, 1), 0);
        drop(ledger);
        std::fs::write(
            dir.join("trials-zzz.jsonl"),
            "garbage\n{\"v\":999,\"key\":\"k\",\"seed\":1,\"trial\":5,\"outcome\":\
             {\"kind\":\"Sdc\",\"failure\":null,\"masked\":false,\
             \"contaminated_ranks\":1,\"injections_fired\":1},\"attempts\":0}\n",
        )
        .unwrap();
        let map = TrialLedger::load_strict(&dir, "k", 1).unwrap();
        assert_eq!(map.len(), 1, "corrupt + stale lines skipped, not fatal");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_reads_every_pid_file_of_its_key() {
        let dir = temp_dir("two-pids");
        let ledger = TrialLedger::open(&dir, "k", 1).unwrap();
        ledger.append(0, &TestOutcome::success(true, 1, 1), 0);
        drop(ledger);
        // A second process's shard of the same campaign.
        let line = std::fs::read_to_string(dir.join(TrialLedger::file_name("k")))
            .unwrap()
            .replace("\"trial\":0", "\"trial\":1");
        std::fs::write(dir.join(other_pid_file("k")), line).unwrap();
        let map = TrialLedger::load(&dir, "k", 1);
        assert_eq!(map.len(), 2, "{map:?}");
        assert_eq!(TrialLedger::load_strict(&dir, "k", 1).unwrap(), map);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_named_record_is_merged_but_not_resumed() {
        let dir = temp_dir("foreign-name");
        let ledger = TrialLedger::open(&dir, "k", 1).unwrap();
        ledger.append(0, &TestOutcome::success(true, 1, 1), 0);
        drop(ledger);
        // A valid record for trial 1 of key `k`, in a file named for no
        // key: resume does not look there, merge does.
        let line = std::fs::read_to_string(dir.join(TrialLedger::file_name("k")))
            .unwrap()
            .replace("\"trial\":0", "\"trial\":1");
        std::fs::write(dir.join("trials-zzz.jsonl"), &line).unwrap();
        // The same record in another key's file is equally invisible.
        std::fs::write(dir.join(other_pid_file("other")), &line).unwrap();
        let resumed = TrialLedger::load(&dir, "k", 1);
        assert_eq!(resumed.keys().collect::<Vec<_>>(), [&0]);
        // Both stray copies are seen by merge, which rejects the second
        // as a duplicate of the first.
        let err = TrialLedger::load_strict(&dir, "k", 1).unwrap_err();
        assert!(err.contains("duplicate record for trial 1"), "{err}");
        std::fs::remove_file(dir.join(other_pid_file("other"))).unwrap();
        assert_eq!(TrialLedger::load_strict(&dir, "k", 1).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn another_keys_corrupt_file_leaves_resume_unchanged() {
        let dir = temp_dir("other-corrupt");
        let ledger = TrialLedger::open(&dir, "k", 1).unwrap();
        ledger.append(0, &TestOutcome::success(true, 1, 1), 0);
        ledger.append(1, &TestOutcome::sdc(2, 1), 0);
        drop(ledger);
        let before = TrialLedger::load(&dir, "k", 1);
        std::fs::write(dir.join(other_pid_file("other")), "garbage\n{\"v\":1,\"ke").unwrap();
        std::fs::write(
            dir.join(TrialLedger::file_name("other")),
            [0xff, 0xfe, b'\n'],
        )
        .unwrap();
        assert_eq!(TrialLedger::load(&dir, "k", 1), before);
        assert_eq!(TrialLedger::load_strict(&dir, "k", 1).unwrap(), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_partition_is_total_and_disjoint() {
        for count in 1..=5usize {
            for trial in 0..40usize {
                let owners: Vec<usize> = (0..count)
                    .filter(|&i| Shard { index: i, count }.owns(trial))
                    .collect();
                assert_eq!(owners.len(), 1, "trial {trial} of /{count}: {owners:?}");
                assert_eq!(owners[0], trial % count);
            }
        }
    }

    #[test]
    fn shard_parses_and_rejects() {
        assert_eq!(Shard::parse("0/3").unwrap(), Shard { index: 0, count: 3 });
        assert_eq!(Shard::parse("2/3").unwrap().to_string(), "2/3");
        assert!(Shard::parse("3/3").is_err());
        assert!(Shard::parse("0/0").is_err());
        assert!(Shard::parse("1").is_err());
        assert!(Shard::parse("a/b").is_err());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(300),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(50));
        assert_eq!(p.backoff(1), Duration::from_millis(100));
        assert_eq!(p.backoff(2), Duration::from_millis(200));
        assert_eq!(p.backoff(3), Duration::from_millis(300), "capped");
        assert_eq!(p.backoff(63), Duration::from_millis(300), "no overflow");
    }
}
