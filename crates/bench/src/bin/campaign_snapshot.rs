//! Trial-throughput snapshot: runs a fixed CG p=4 deployment at `jobs=1`
//! and `jobs=auto` and writes the trials/sec numbers as JSON
//! (`BENCH_campaign.json` at the repo root seeds the perf trajectory;
//! the CI bench-smoke step regenerates one per build).
//!
//! The two runs are also asserted bitwise identical, so every snapshot
//! doubles as a determinism check of the parallel execution engine.
//!
//! With `--baseline FILE` the snapshot doubles as a regression gate: it
//! compares the fresh `jobs=1` throughput against the baseline's and
//! exits non-zero when the fresh number falls more than `--tolerance`
//! (default 0.35 — CI runners are noisy) below it. The baseline may be
//! a flat snapshot or a multi-entry file (`{"entries": [...]}` with the
//! newest last) recording before/after measurements across PRs.
//!
//! `--require-speedup` additionally fails the run when the host has
//! more than one core but `jobs=auto` is not faster than `jobs=1` —
//! the multi-core scaling demonstration, enforced on CI runners
//! because single-core hosts cannot measure it. It also fails when
//! `jobs=auto` resolves to a single worker on such a host: that run
//! would compare `jobs=1` against itself and pass or fail on noise.
//!
//! ```text
//! campaign_snapshot [--tests N] [--out FILE] [--baseline FILE] [--tolerance T]
//!                   [--require-speedup]
//! ```

use resilim_apps::App;
use resilim_harness::{CampaignResult, CampaignRunner, CampaignSpec, ErrorSpec};
use std::time::Instant;

fn measure(runner: &CampaignRunner, spec: &CampaignSpec) -> (f64, CampaignResult) {
    // Warm the golden store first: the snapshot times trial execution,
    // not the one-off profiling run.
    runner.golden().get(&spec.spec, spec.procs);
    let start = Instant::now();
    let result = runner.run_uncached(spec);
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (spec.tests as f64 / secs, result)
}

/// The baseline's `trials_per_sec_jobs1`, read from a previous snapshot —
/// either a flat one or the newest entry of a multi-entry baseline file.
fn baseline_tps(path: &str) -> f64 {
    let raw = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--baseline {path}: {e}"));
    let snapshot: serde_json::Value =
        serde_json::from_str(&raw).unwrap_or_else(|e| panic!("--baseline {path}: {e}"));
    snapshot
        .get("trials_per_sec_jobs1")
        .or_else(|| {
            snapshot
                .get("entries")
                .and_then(|e| e.as_array())
                .and_then(|e| e.last())
                .and_then(|e| e.get("trials_per_sec_jobs1"))
        })
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("--baseline {path}: no trials_per_sec_jobs1 number"))
}

fn main() {
    let mut tests = 200usize;
    let mut out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut tolerance = 0.35f64;
    let mut require_speedup = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match flag.as_str() {
            "--tests" => tests = value("--tests").parse().expect("--tests: integer"),
            "--out" => out = Some(value("--out")),
            "--baseline" => baseline = Some(value("--baseline")),
            "--tolerance" => tolerance = value("--tolerance").parse().expect("--tolerance: number"),
            "--require-speedup" => require_speedup = true,
            other => panic!(
                "unknown flag '{other}' \
                 (campaign_snapshot [--tests N] [--out FILE] [--baseline FILE] [--tolerance T] \
                 [--require-speedup])"
            ),
        }
    }
    assert!(
        (0.0..1.0).contains(&tolerance),
        "--tolerance must be in [0, 1)"
    );

    let procs = 4usize;
    let spec = CampaignSpec::new(
        App::Cg.default_spec(),
        procs,
        ErrorSpec::OneParallel,
        tests,
        2018,
    );
    let sequential = CampaignRunner::new();
    let auto = CampaignRunner::new().with_auto_parallelism();
    let jobs_auto = auto.effective_parallelism(procs);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    eprintln!("campaign_snapshot: cg p={procs} tests={tests} (host cores: {host_cores})");
    let (tps_jobs1, r1) = measure(&sequential, &spec);
    eprintln!("  jobs=1:    {tps_jobs1:.2} trials/sec");
    let (tps_auto, r2) = measure(&auto, &spec);
    eprintln!("  jobs=auto ({jobs_auto}): {tps_auto:.2} trials/sec");

    assert_eq!(
        r1.outcomes, r2.outcomes,
        "jobs=auto diverged from jobs=1 — determinism bug"
    );

    if let Some(path) = &baseline {
        let base = baseline_tps(path);
        let floor = base * (1.0 - tolerance);
        eprintln!(
            "  baseline jobs=1: {base:.2} trials/sec (floor {floor:.2} at tolerance {tolerance})"
        );
        if tps_jobs1 < floor {
            eprintln!(
                "regression: fresh jobs=1 throughput {tps_jobs1:.2} < {floor:.2} \
                 ({:.0}% below baseline {base:.2})",
                100.0 * (1.0 - tps_jobs1 / base)
            );
            std::process::exit(1);
        }
    }

    if require_speedup {
        if host_cores <= 1 {
            eprintln!("  --require-speedup: single-core host, nothing to demonstrate");
        } else if jobs_auto <= 1 {
            eprintln!(
                "--require-speedup: jobs=auto resolved to {jobs_auto} worker on a \
                 {host_cores}-core host, so jobs=auto and jobs=1 are the same run \
                 and no speedup can be demonstrated"
            );
            std::process::exit(1);
        } else if tps_auto <= tps_jobs1 {
            eprintln!(
                "no multi-core speedup: jobs=auto ({jobs_auto}) ran {tps_auto:.2} trials/sec \
                 vs {tps_jobs1:.2} at jobs=1 on a {host_cores}-core host"
            );
            std::process::exit(1);
        } else {
            eprintln!(
                "  speedup_auto_vs_jobs1 = {:.2} on {host_cores} cores",
                tps_auto / tps_jobs1
            );
        }
    }

    let snapshot = serde_json::json!({
        "bench": "campaign_throughput",
        "app": "cg",
        "procs": procs,
        "tests": tests,
        "errors": "OneParallel",
        "seed": 2018,
        "host_cores": host_cores,
        "jobs_auto_resolved": jobs_auto,
        "trials_per_sec_jobs1": tps_jobs1,
        "trials_per_sec_jobs_auto": tps_auto,
        "speedup_auto_vs_jobs1": tps_auto / tps_jobs1.max(1e-9),
    });
    let body = serde_json::to_string_pretty(&snapshot).expect("serialize snapshot");
    match out {
        Some(path) => {
            std::fs::write(&path, format!("{body}\n")).expect("write snapshot");
            eprintln!("wrote {path}");
        }
        None => println!("{body}"),
    }
}
