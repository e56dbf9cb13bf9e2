//! Store determinism: the per-trial feature shard and ledger shard a
//! campaign writes under `--store DIR/{features,ledger}/` must be
//! **bitwise identical** no matter how the trials were scheduled — jobs
//! ∈ {1, 4, auto} × batch ∈ {1, 7, 64}, one-shot runner or
//! daemon-served. Both ride the same reorder buffer as outcomes, so any
//! scheduling-dependent byte is a pipeline bug.

use resilim_apps::App;
use resilim_harness::{CampaignRunner, CampaignSpec, ErrorSpec, FeatureStore};
use resilim_serve::{CampaignState, Scheduler};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("resilim-featdet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec() -> CampaignSpec {
    CampaignSpec::new(App::Cg.default_spec(), 2, ErrorSpec::OneParallel, 24, 5)
}

/// The single shard a run produced in a store directory, as raw bytes.
fn shard_bytes(store_dir: &Path) -> Vec<u8> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(store_dir)
        .expect("store dir exists")
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 1, "one shard per single-process run");
    std::fs::read(&files[0]).unwrap()
}

#[test]
fn features_are_bitwise_identical_across_schedules() {
    let s = spec();
    let mut reference: Option<(Vec<u8>, Vec<u8>)> = None;
    for (name, jobs) in [
        ("jobs=1", Some(1)),
        ("jobs=4", Some(4)),
        ("jobs=auto", None),
    ] {
        for batch in [1usize, 7, 64] {
            let dir = temp_dir(&format!("{name}-b{batch}"));
            let runner = match jobs {
                Some(k) => CampaignRunner::new().with_test_parallelism(k),
                None => CampaignRunner::new().with_auto_parallelism(),
            };
            let runner = runner
                .with_feature_dir(dir.join("features"))
                .with_ledger_dir(dir.join("ledger"))
                .with_trial_batch(batch);
            let result = runner.run_uncached(&s);
            assert_eq!(result.features.len(), s.tests, "{name} batch={batch}");
            let bytes = shard_bytes(&dir.join("features"));
            let ledger = shard_bytes(&dir.join("ledger"));
            assert!(!bytes.is_empty(), "{name} batch={batch} wrote nothing");
            assert!(!ledger.is_empty(), "{name} batch={batch} ledgered nothing");
            match &reference {
                None => reference = Some((bytes, ledger)),
                Some((want, want_ledger)) => {
                    assert_eq!(&bytes, want, "{name} batch={batch} shard diverges");
                    assert_eq!(&ledger, want_ledger, "{name} batch={batch} ledger diverges");
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let (reference, reference_ledger) = reference.unwrap();

    // Daemon-served over a shared pool, batched claims: same bytes.
    let dir = temp_dir("serve");
    let sched = Scheduler::new(
        CampaignRunner::new()
            .with_trial_batch(7)
            .with_feature_dir(dir.join("features"))
            .with_ledger_dir(dir.join("ledger"))
            .with_resume(true),
        4,
    );
    let (id, deduped) = sched.submit(&s).unwrap();
    assert!(!deduped);
    assert_eq!(
        sched.wait(id, Duration::from_secs(120)),
        Some(CampaignState::Done)
    );
    sched.shutdown();
    let served = shard_bytes(&dir.join("features"));
    assert_eq!(served, reference, "daemon-served shard diverges");
    let served_ledger = shard_bytes(&dir.join("ledger"));
    assert_eq!(
        served_ledger, reference_ledger,
        "daemon-served ledger diverges"
    );

    // And the loader reads back exactly one record per trial.
    let loaded = FeatureStore::load_all(dir.join("features"));
    assert_eq!(loaded.len(), s.tests);
    let _ = std::fs::remove_dir_all(&dir);
}
