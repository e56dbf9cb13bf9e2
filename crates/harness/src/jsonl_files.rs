//! Naming, listing and reading of the per-process JSONL append files
//! behind the trial ledger and the feature store.
//!
//! Each process appends one campaign's records to its own file,
//! `<stem>-<fnv64(key)>-<pid>.jsonl`. The name makes two listings
//! cheap to tell apart:
//!
//! * **keyed** ([`keyed_files`]) — the files named for one campaign
//!   key, from any number of pids. Resume reads only these, so its cost
//!   follows the campaign's own size, not the size of the store.
//! * **full** ([`all_files`]) — every `*.jsonl` file. Merging and
//!   training read these, so a duplicate or forged record is caught
//!   whatever file it sits in.
//!
//! Both listings are in file-name order, so later files win
//! deterministically wherever a loader lets records overwrite.
//! [`read_records`] parses either listing line by line.

use serde::Deserialize;
use std::path::{Path, PathBuf};

/// This process's append-file name for `key` under `stem`.
pub(crate) fn file_name(stem: &str, key: &str) -> String {
    format!("{}{}.jsonl", key_prefix(stem, key), std::process::id())
}

/// The files under `dir` named for `key` under `stem`, from every pid,
/// in name order. A missing or unreadable directory lists nothing.
pub(crate) fn keyed_files(dir: &Path, stem: &str, key: &str) -> Vec<PathBuf> {
    let prefix = key_prefix(stem, key);
    list(dir, |name| name.starts_with(&prefix))
}

/// Every `*.jsonl` file under `dir`, in name order. A missing or
/// unreadable directory lists nothing.
pub(crate) fn all_files(dir: &Path) -> Vec<PathBuf> {
    list(dir, |_| true)
}

/// Every line of `paths` that parses as a `T`, with its source file, in
/// order. Unreadable files and unparseable lines (a truncated tail,
/// interleaved garbage, a foreign format) are skipped, so every loader
/// shares one corruption-tolerance policy.
pub(crate) fn read_records<T: Deserialize>(paths: &[PathBuf]) -> Vec<(T, &Path)> {
    let mut out = Vec::new();
    for path in paths {
        let Ok(raw) = std::fs::read_to_string(path) else {
            continue;
        };
        out.extend(
            raw.lines()
                .filter_map(|line| serde_json::from_str(line).ok())
                .map(|rec| (rec, path.as_path())),
        );
    }
    out
}

fn key_prefix(stem: &str, key: &str) -> String {
    format!("{stem}-{:016x}-", crate::golden::fnv64(&[key.as_bytes()]))
}

fn list(dir: &Path, keep: impl Fn(&str) -> bool) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(&keep))
        .collect();
    paths.sort();
    paths
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_listing_takes_every_pid_and_nothing_else() {
        let dir = std::env::temp_dir().join(format!("resilim-jsonl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mine = key_prefix("trials", "k");
        let theirs = key_prefix("trials", "other");
        for name in [
            format!("{mine}20.jsonl"),
            format!("{mine}3.jsonl"),
            format!("{mine}4.txt"),
            format!("{theirs}3.jsonl"),
            key_prefix("features", "k") + "3.jsonl",
            "trials-zzz-dup.jsonl".to_string(),
        ] {
            std::fs::write(dir.join(name), "").unwrap();
        }
        let names = |paths: Vec<PathBuf>| -> Vec<String> {
            paths
                .iter()
                .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names(keyed_files(&dir, "trials", "k")),
            [format!("{mine}20.jsonl"), format!("{mine}3.jsonl")]
        );
        assert_eq!(all_files(&dir).len(), 5, "the .txt file is not listed");
        assert_eq!(
            file_name("trials", "k"),
            format!("{mine}{}.jsonl", std::process::id())
        );
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(keyed_files(&dir, "trials", "k").is_empty());
        assert!(all_files(&dir).is_empty());
    }
}
