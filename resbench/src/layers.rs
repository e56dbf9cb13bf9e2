//! Turning repetitions and spans into the named metrics: the end-to-end
//! set of an untraced run and the per-layer set of a traced one. A
//! per-layer metric a workload does not exercise reads 0 (README.md
//! lists which).

use crate::campaigns::Store;
use crate::probes::Probes;
use crate::stats::{median, Summary};
use crate::tracer::{Tally, Tracer, CONSUME_SPANS};
use crate::{sysinfo, Metric, Rep, Workload};
use resilim_apps::App;
use resilim_obs::{Counter, Hist, MetricsSnapshot};
use std::path::Path;

/// The collective latency histograms whose sum is
/// `simmpi.collective_ns_per_trial`.
const COLLECTIVES: [Hist; 9] = [
    Hist::BarrierNs,
    Hist::BcastNs,
    Hist::ReduceNs,
    Hist::AllreduceNs,
    Hist::GatherNs,
    Hist::AllgatherNs,
    Hist::AlltoallvNs,
    Hist::ScatterNs,
    Hist::SendrecvNs,
];

/// Add a measured phase's obs counter deltas to the tracer.
pub fn absorb_obs(tr: &Tracer, d: &MetricsSnapshot) {
    tr.count(
        "obs.ops",
        d.counter(Counter::OpsCommon) + d.counter(Counter::OpsParallelUnique),
    );
    tr.count("obs.fired", d.counter(Counter::InjectionsFired));
    tr.count("obs.msgs", d.counter(Counter::MsgsSent));
    tr.count("obs.bytes", d.counter(Counter::BytesSent));
    tr.count(
        "obs.retries",
        d.counter(Counter::TrialRetries) + d.counter(Counter::TrialDeadlineTrips),
    );
    tr.count("obs.dedup", d.counter(Counter::ServeDedupHits));
    tr.count("obs.worker_busy_ns", d.counter(Counter::WorkerBusyNanos));
    // Log2 buckets: bucket i ≥ 1 holds [2^(i-1), 2^i); its geometric
    // midpoint stands in for each observation (an estimate).
    let mut ns = 0.0;
    for h in COLLECTIVES {
        for (i, &n) in d.hist(h).iter().enumerate().skip(1) {
            ns += n as f64 * 2f64.powi(i as i32 - 1) * std::f64::consts::SQRT_2;
        }
    }
    tr.count("obs.collective_ns", ns as u64);
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    })
}

/// Record the bytes a store holds for `trials` trials.
pub fn note_store_bytes(tr: &Tracer, store: &Store, trials: u64) {
    tr.count("ledger.bytes", dir_bytes(&store.ledger));
    tr.count("features.bytes", dir_bytes(&store.features));
    tr.count("store.trials", trials);
}

/// The `q` quantile of `samples`, or a single 0 for a layer the
/// workload does not exercise.
fn quantile_or_zero(samples: &[f64], q: f64) -> Summary {
    if samples.is_empty() {
        Summary::single(0.0)
    } else {
        Summary::of(samples, q)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The median over repetitions of each repetition's `q` quantile of
/// campaign latency. Repetitions repeat the same campaigns, so a quantile
/// pooled over them sits on the edge of one campaign's cluster of
/// repeats; per repetition it does not. `n` and `beyond` count the
/// campaigns of all repetitions and those above the reported value.
fn campaign_quantile(reps: &[Rep], q: f64) -> Summary {
    let per_rep: Vec<f64> = reps
        .iter()
        .map(|r| Summary::of(&r.campaign_ms, q).value)
        .collect();
    let mut s = Summary::of(&per_rep, 0.5);
    let pooled: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.campaign_ms.iter().copied())
        .collect();
    s.q = q;
    s.n = pooled.len();
    s.beyond = pooled.iter().filter(|&&ms| ms > s.value).count();
    s
}

/// The end-to-end metrics of an untraced run; `setups` holds every
/// set-up time measured, the repetitions' included.
pub fn end_to_end(reps: &[Rep], setups: &[f64]) -> Vec<Metric> {
    let per = |f: &dyn Fn(&Rep) -> f64| Summary::of(&reps.iter().map(f).collect::<Vec<_>>(), 0.5);
    vec![
        Metric::new("setup_s", "s", Summary::of(setups, 0.5)),
        Metric::new("wall_s", "s", per(&|r| r.wall.as_secs_f64())),
        Metric::new(
            "trials_per_s",
            "1/s",
            per(&|r| ratio(r.trials as f64, r.wall.as_secs_f64())),
        ),
        Metric::new(
            "cpu_s_per_ktrial",
            "s",
            per(&|r| ratio(r.cpu_s * 1000.0, r.trials as f64)),
        ),
        Metric::new(
            "peak_rss_mb",
            "MiB",
            Summary::single(sysinfo::peak_rss_mib()),
        ),
        Metric::new("campaign_p50_ms", "ms", campaign_quantile(reps, 0.5)),
        Metric::new("campaign_p90_ms", "ms", campaign_quantile(reps, 0.9)),
        Metric::new(
            "campaigns_per_s",
            "1/s",
            per(&|r| ratio(r.campaign_ms.len() as f64, r.wall.as_secs_f64())),
        ),
    ]
}

pub fn per_layer(
    w: Workload,
    tr: &Tracer,
    tally: &Tally,
    plain: &[Rep],
    traced: &[Rep],
    probes: &Probes,
) -> Vec<Metric> {
    let serve = w == Workload::ServeMixed;
    let reps = traced.len() as f64;
    let trials = traced.iter().map(|r| r.trials).sum::<u64>() as f64;
    let per_trial = |v: f64| Summary::single(ratio(v, trials));
    let per_rep = |v: f64| Summary::single(ratio(v, reps));
    let total = |name: &str| tr.total_s(name);
    let count = |name: &str| tr.counted(name) as f64;
    let samples = |key: &str| tr.samples(key);

    // Trial latencies: timed around `run_trial` here, or taken from the
    // daemon's trial events when it runs them.
    let trial_us = |app: Option<&str>| -> Vec<f64> {
        if serve {
            tally
                .trial_us
                .iter()
                .filter(|(a, _)| app.is_none_or(|app| a == app))
                .map(|&(_, us)| us)
                .collect()
        } else {
            samples(&app.map_or("trial_us".to_string(), |a| format!("trial_us.{a}")))
        }
    };
    let all_trials = trial_us(None);
    let mean_trial_ns = ratio(
        all_trials.iter().sum::<f64>() * 1e3,
        all_trials.len() as f64,
    );

    let mut m = vec![
        Metric::new(
            "golden.profile_ms",
            "ms",
            per_rep(total("golden.get_masked") * 1e3),
        ),
        Metric::new(
            "golden.disk_hits",
            "count",
            per_rep(tally.golden_disk_hits as f64),
        ),
        Metric::new(
            "campaign.trial_us_p50",
            "us",
            quantile_or_zero(&all_trials, 0.5),
        ),
        Metric::new(
            "campaign.trial_us_p90",
            "us",
            quantile_or_zero(&all_trials, 0.9),
        ),
    ];
    for app in App::ALL {
        m.push(Metric::new(
            format!("campaign.{}.trial_us_p50", app.name()),
            "us",
            quantile_or_zero(&trial_us(Some(app.name())), 0.5),
        ));
    }
    let (jobs, util) = if serve {
        let workers = ratio(count("serve.workers"), reps);
        let wall_ns = total("serve.fresh_phase") * 1e9 * workers;
        (workers, ratio(count("obs.worker_busy_ns"), wall_ns))
    } else {
        let jobs = samples("campaign.jobs").into_iter().fold(0.0, f64::max);
        (
            jobs,
            ratio(total("campaign.run_trial"), total("campaign.worker_wall")),
        )
    };
    let consumers: f64 = CONSUME_SPANS.iter().map(|s| total(s)).sum();
    let (ledger_append, features_append) = if serve {
        let replayed = count("store.replayed");
        (
            ratio(total("ledger.replay_append") * 1e6, replayed),
            ratio(total("features.replay_append") * 1e6, replayed),
        )
    } else {
        (
            ratio(
                (total("ledger.consume") + total("ledger.finish")) * 1e6,
                trials,
            ),
            ratio(
                (total("features.consume") + total("features.finish")) * 1e6,
                trials,
            ),
        )
    };
    let ops_per_trial = ratio(count("obs.ops"), trials);
    let cpu = total("proc.user") + total("proc.sys");
    let plain_wall = median(
        &plain
            .iter()
            .map(|r| r.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let traced_wall = median(
        &traced
            .iter()
            .map(|r| r.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let ms = |v: Vec<f64>| v.into_iter().map(|us| us / 1e3).collect::<Vec<_>>();
    m.extend([
        Metric::new("campaign.jobs", "count", Summary::single(jobs)),
        Metric::new("campaign.worker_util", "ratio", Summary::single(util)),
        Metric::new(
            "campaign.retries",
            "count",
            Summary::single(count("obs.retries")),
        ),
        Metric::new(
            "stream.push_us_per_trial",
            "us",
            per_trial((total("stream.push_batch") - consumers).max(0.0) * 1e6),
        ),
        Metric::new(
            "ledger.append_us_per_trial",
            "us",
            Summary::single(ledger_append),
        ),
        Metric::new(
            "features.append_us_per_trial",
            "us",
            Summary::single(features_append),
        ),
        Metric::new(
            "ledger.bytes_per_trial",
            "B",
            Summary::single(ratio(count("ledger.bytes"), count("store.trials"))),
        ),
        Metric::new(
            "features.bytes_per_trial",
            "B",
            Summary::single(ratio(count("features.bytes"), count("store.trials"))),
        ),
        Metric::new(
            "ledger.resume_load_ms",
            "ms",
            per_rep((total("ledger.load") + total("features.load")) * 1e3),
        ),
        Metric::new(
            "simmpi.msgs_per_trial",
            "count",
            per_trial(count("obs.msgs")),
        ),
        Metric::new("simmpi.bytes_per_trial", "B", per_trial(count("obs.bytes"))),
        Metric::new(
            "simmpi.collective_ns_per_trial",
            "ns",
            per_trial(count("obs.collective_ns")),
        ),
        Metric::new("simmpi.allreduce_us_p50", "us", probes.allreduce_us.clone()),
        Metric::new("simmpi.barrier_us_p50", "us", probes.barrier_us.clone()),
        Metric::new("simmpi.sendrecv_us_p50", "us", probes.sendrecv_us.clone()),
        Metric::new("simmpi.dispatch_us_p50", "us", probes.dispatch_us.clone()),
        Metric::new(
            "proc.sys_frac",
            "ratio",
            Summary::single(ratio(total("proc.sys"), cpu)),
        ),
        Metric::new(
            "proc.ctx_switches_per_trial",
            "count",
            per_trial(count("proc.ctx")),
        ),
        Metric::new(
            "inject.ops_per_trial",
            "count",
            Summary::single(ops_per_trial),
        ),
        Metric::new("inject.ns_per_op", "ns", probes.inject_ns_per_op.clone()),
        Metric::new(
            "inject.fired_per_trial",
            "count",
            per_trial(count("obs.fired")),
        ),
    ]);
    for (app, s) in &probes.serial_run_ms {
        m.push(Metric::new(
            format!("apps.{app}.serial_run_ms"),
            "ms",
            s.clone(),
        ));
    }
    m.extend([
        Metric::new(
            "apps.compute_frac",
            "ratio",
            Summary::single(ratio(
                ops_per_trial * probes.inject_ns_per_op.value,
                mean_trial_ns,
            )),
        ),
        Metric::new(
            "core.eq8_us",
            "us",
            quantile_or_zero(&samples("core.eq8_us"), 0.5),
        ),
        Metric::new(
            "core.fit_logistic_ms",
            "ms",
            quantile_or_zero(&ms(samples("core.fit_logistic_us")), 0.5),
        ),
        Metric::new(
            "core.fit_stumps_ms",
            "ms",
            quantile_or_zero(&ms(samples("core.fit_stumps_us")), 0.5),
        ),
        Metric::new(
            "serve.submit_rtt_us_p50",
            "us",
            quantile_or_zero(&samples("serve.submit_rtt_us"), 0.5),
        ),
        Metric::new(
            "serve.admit_wait_ms_p50",
            "ms",
            quantile_or_zero(&samples("serve.admit_wait_ms"), 0.5),
        ),
        Metric::new("serve.dedup_hits", "count", per_rep(count("obs.dedup"))),
        Metric::new(
            "serve.restart_ms",
            "ms",
            quantile_or_zero(&samples("serve.restart_ms"), 0.5),
        ),
        Metric::new(
            "trace.overhead_frac",
            "ratio",
            Summary::single(ratio(traced_wall, plain_wall) - 1.0),
        ),
    ]);
    m
}
