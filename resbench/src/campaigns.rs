//! One campaign, run either through the library's own entry point or —
//! in a traced run — decomposed into the calls the library makes, each
//! timed from here: executor set-up, every `run_trial`, every
//! `push_batch`, and each consumer of the trial pipeline.

use crate::tracer::{Timed, Tracer};
use resilim_core::{FiResult, PropagationProfile, TrialFeatures};
use resilim_harness::campaign::{FeatureConsumer, LedgerConsumer, ObsTrialConsumer};
use resilim_harness::{
    CampaignAccumulator, CampaignResult, CampaignRunner, CampaignSpec, FeatureStore, TrialConsumer,
    TrialLedger, TrialPipeline,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A durable store's ledger and feature directories (the CLI's
/// `--store DIR` layout).
pub struct Store {
    pub ledger: PathBuf,
    pub features: PathBuf,
}

impl Store {
    pub fn under(dir: &Path) -> Store {
        Store {
            ledger: dir.join("ledger"),
            features: dir.join("features"),
        }
    }
}

/// The aggregates of one finished campaign.
pub struct Ran {
    pub fi: FiResult,
    pub prop: PropagationProfile,
    pub by_contam: Vec<FiResult>,
    /// Per-trial feature records in trial order.
    pub features: Vec<TrialFeatures>,
    /// Trials executed by this process.
    pub trials: u64,
    /// Submit-to-result latency, milliseconds.
    pub ms: f64,
}

impl Ran {
    pub fn of(result: &CampaignResult, ms: f64) -> Ran {
        Ran {
            fi: result.fi,
            prop: result.prop.clone(),
            by_contam: result.by_contam.clone(),
            features: result.features.clone(),
            trials: result.outcomes.len() as u64,
            ms,
        }
    }
}

/// The library path: `CampaignRunner::run_uncached`.
pub fn run_plain(runner: &CampaignRunner, spec: &CampaignSpec) -> Ran {
    let start = Instant::now();
    let result = runner.run_uncached(spec);
    Ran::of(&result, start.elapsed().as_secs_f64() * 1e3)
}

/// The traced path: the same steps `run_uncached` takes (executor,
/// store open, workers claiming trials, in-order pipeline, consumers),
/// driven and timed from here. Its aggregates must equal the library
/// path's bit for bit; the digest check holds it to that.
pub fn run_traced(
    runner: &CampaignRunner,
    spec: &CampaignSpec,
    store: Option<&Store>,
    tr: &Tracer,
) -> Result<Ran, String> {
    let start = Instant::now();
    let exec = tr.time("campaign.trial_executor", || runner.trial_executor(spec));
    let key = spec.ledger_key();
    let (ledger, features) = match store {
        Some(s) => tr.time("store.open", || -> Result<_, String> {
            let ledger = TrialLedger::open(&s.ledger, &key, spec.seed)
                .map_err(|e| format!("ledger open: {e}"))?;
            let features = FeatureStore::open(&s.features, &key, spec.seed)
                .map_err(|e| format!("feature store open: {e}"))?;
            Ok((Some(ledger), Some(features)))
        })?,
        None => (None, None),
    };
    let app = spec.spec.app().name();
    let app_key = format!("trial_us.{app}");

    let mut acc = Timed::new(
        CampaignAccumulator::new(spec.procs, spec.stop),
        tr,
        "accumulator.consume",
        "accumulator.finish",
    );
    let mut ledger_sink = Timed::new(
        LedgerConsumer::new(ledger.as_ref()).with_batch(runner.trial_batch()),
        tr,
        "ledger.consume",
        "ledger.finish",
    );
    let mut feature_sink = Timed::new(
        FeatureConsumer::new(features.as_ref()).with_batch(runner.trial_batch()),
        tr,
        "features.consume",
        "features.finish",
    );
    let mut obs_sink = Timed::new(
        ObsTrialConsumer::new(exec.campaign_id()),
        tr,
        "obs.consume",
        "obs.finish",
    );
    {
        let consumers: Vec<&mut dyn TrialConsumer> =
            vec![&mut acc, &mut ledger_sink, &mut feature_sink, &mut obs_sink];
        let pipeline = Mutex::new(TrialPipeline::new((0..spec.tests).collect(), consumers));
        let workers = runner
            .effective_parallelism(spec.procs)
            .min(spec.tests.max(1));
        let next = AtomicUsize::new(0);
        let worker = || loop {
            let test = next.fetch_add(1, Ordering::Relaxed);
            if test >= spec.tests {
                break;
            }
            let t = Instant::now();
            let rec = exec.run_trial(test);
            let d = t.elapsed();
            tr.add("campaign.run_trial", d);
            let us = d.as_secs_f64() * 1e6;
            tr.sample("trial_us", us);
            tr.sample(&app_key, us);
            if rec.attempts > 1 {
                tr.count("campaign.retries", u64::from(rec.attempts - 1));
            }
            let mut p = pipeline.lock().expect("pipeline lock");
            tr.time("stream.push_batch", || p.push_batch([rec]));
        };
        let region = Instant::now();
        if workers <= 1 {
            worker();
        } else {
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(worker);
                }
            });
        }
        tr.add("campaign.worker_wall", region.elapsed() * workers as u32);
        tr.sample("campaign.jobs", workers as f64);
        let mut p = pipeline.into_inner().expect("pipeline lock");
        tr.time("stream.finish", || p.finish());
        if !p.is_drained() {
            return Err(format!("{key}: pipeline not drained"));
        }
    }
    let (outcomes, features, fi, prop, by_contam, _) = acc.inner.into_parts();
    Ok(Ran {
        fi,
        prop,
        by_contam,
        features,
        trials: outcomes.len() as u64,
        ms: start.elapsed().as_secs_f64() * 1e3,
    })
}
