//! Determinism bar for the execution engine: campaign statistics must be
//! bitwise identical across `jobs=1`, fixed `jobs=k`, and `jobs=auto`,
//! for every `ErrorSpec` variant, and across warm vs cold golden caches.

use resilim_apps::App;
use resilim_harness::{CampaignRunner, CampaignSpec, ErrorSpec};

fn assert_identical(
    a: &resilim_harness::CampaignResult,
    b: &resilim_harness::CampaignResult,
    label: &str,
) {
    assert_eq!(a.outcomes, b.outcomes, "{label}: outcomes diverged");
    assert_eq!(a.fi, b.fi, "{label}: fi diverged");
    assert_eq!(a.prop.counts, b.prop.counts, "{label}: prop diverged");
    assert_eq!(a.by_contam, b.by_contam, "{label}: by_contam diverged");
    assert_eq!(
        a.uncontaminated, b.uncontaminated,
        "{label}: uncontaminated diverged"
    );
}

#[test]
fn auto_parallelism_matches_sequential_for_every_error_spec() {
    // (app, procs, pattern): one deployment per ErrorSpec variant.
    let deployments = [
        (App::Lu, 2, ErrorSpec::OneParallel),
        (App::Cg, 1, ErrorSpec::SerialErrors(3)),
        (App::Ft, 4, ErrorSpec::OneParallelUnique),
        (App::Lu, 2, ErrorSpec::OneParallelMultiBit(2)),
    ];
    for (app, procs, errors) in deployments {
        let spec = CampaignSpec::new(app.default_spec(), procs, errors, 14, 4242);
        let label = format!("{app:?} p={procs} {errors:?}");
        let sequential = CampaignRunner::new().run_uncached(&spec);
        let fixed = CampaignRunner::new()
            .with_test_parallelism(4)
            .run_uncached(&spec);
        let auto = CampaignRunner::new()
            .with_auto_parallelism()
            .run_uncached(&spec);
        assert_identical(&sequential, &fixed, &format!("{label} jobs=4"));
        assert_identical(&sequential, &auto, &format!("{label} jobs=auto"));
    }
}

#[test]
fn auto_parallelism_resolves_per_deployment() {
    let runner = CampaignRunner::new().with_auto_parallelism();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One rank per world: one worker per core, never more.
    assert_eq!(runner.effective_parallelism(1), cores);
    // Every world size resolves within [1, cores] and never grows with
    // the world; a 1-core host runs everything sequentially.
    let mut sizes = vec![1, 2, 4, 8, 16, 64, cores * 4, cores * 64];
    sizes.sort_unstable();
    let mut previous = cores;
    for procs in sizes {
        let k = runner.effective_parallelism(procs);
        assert!((1..=cores).contains(&k), "p={procs} on {cores} cores: {k}");
        assert!(
            k <= previous,
            "p={procs} on {cores} cores: {k} > {previous}"
        );
        if cores == 1 {
            assert_eq!(k, 1, "p={procs} on a 1-core host");
        }
        previous = k;
    }
    // Worlds far wider than the host (p=64 on 2 cores) stay at 1 worker;
    // a p=4 world on any multi-core host uses more than one.
    assert_eq!(runner.effective_parallelism(cores * 64), 1);
    if cores >= 2 {
        assert!(runner.effective_parallelism(4) > 1, "p=4 on {cores} cores");
    }
    let fixed = CampaignRunner::new().with_test_parallelism(3);
    assert_eq!(fixed.effective_parallelism(1), 3);
    assert_eq!(fixed.effective_parallelism(64), 3);
}

#[test]
fn warm_golden_cache_does_not_change_results() {
    let dir = std::env::temp_dir().join(format!("resilim-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = CampaignSpec::new(App::Cg.default_spec(), 2, ErrorSpec::OneParallel, 10, 77);

    let memory_only = CampaignRunner::new().run_uncached(&spec);
    // Cold disk cache: measures and persists.
    let cold = CampaignRunner::new()
        .with_golden_dir(&dir)
        .run_uncached(&spec);
    // Warm disk cache in a fresh runner: loads the persisted profile.
    let warm_runner = CampaignRunner::new().with_golden_dir(&dir);
    let warm = warm_runner.run_uncached(&spec);
    assert_identical(&memory_only, &cold, "cold golden disk cache");
    assert_identical(&memory_only, &warm, "warm golden disk cache");
    // The warm runner really did load from disk (one cached entry, no
    // second file written).
    assert_eq!(warm_runner.golden().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_same_key_campaigns_share_one_run() {
    // Single-flight: hammer one key from several threads; all callers
    // must get the same Arc (one execution), matching the sequential run.
    let runner = CampaignRunner::new();
    let spec = CampaignSpec::new(App::Lu.default_spec(), 2, ErrorSpec::OneParallel, 8, 99);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4).map(|_| scope.spawn(|| runner.run(&spec))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &results[1..] {
        assert!(
            std::sync::Arc::ptr_eq(&results[0], r),
            "concurrent callers must share one campaign execution"
        );
    }
    let oracle = CampaignRunner::new().run_uncached(&spec);
    assert_identical(&results[0], &oracle, "single-flight campaign");
}
