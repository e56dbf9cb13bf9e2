//! `predict64`: time to a Fig-5 prediction for all six applications —
//! p = 64 predicted from serial multi-error campaigns plus one s = 4
//! campaign (and its parallel-unique companion where that share
//! matters), then Eq. 8 and the two learned predictors, on a fresh
//! durable store each repetition.

use crate::campaigns::{run_traced, Ran, Store};
use crate::digest::{pooled_failures, Digests};
use crate::tracer::{timed, Tracer};
use crate::{derive_seed, fresh_dir, Clock, Rep, Scale};
use resilim_apps::App;
use resilim_core::{sample_cases, LogisticModel, ModelInputs, PaperEq8, SamplePoints, StumpsModel};
use resilim_harness::experiments::{build_inputs, ExperimentConfig};
use resilim_harness::{CampaignRunner, CampaignSpec, ErrorSpec, FeatureStore, TrialLedger};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Target and small scale of Figure 5.
pub const P: usize = 64;
pub const S: usize = 4;
/// The parallel-unique share below which the Eq. 1 second term is
/// dropped, as the prediction experiment does (Observation 2).
const UNIQUE_SHARE_CUTOFF: f64 = 0.005;

fn tests(scale: Scale) -> usize {
    match scale {
        Scale::Full => 100,
        Scale::Tiny => 4,
    }
}

/// One application's campaigns in a fixed order: the serial cases
/// (`sample_cases(64, 4) ∪ 1..=4`, ascending), the small-scale
/// campaign, then the parallel-unique one when its share counts.
fn campaign_specs(app: App, cfg: &ExperimentConfig, unique_share: f64) -> Vec<CampaignSpec> {
    let mut cases = sample_cases(P, S, SamplePoints::default());
    cases.extend(1..=S);
    cases.sort_unstable();
    cases.dedup();
    let mut specs: Vec<CampaignSpec> = cases
        .into_iter()
        .map(|x| cfg.campaign(app.default_spec(), 1, ErrorSpec::SerialErrors(x)))
        .collect();
    specs.push(cfg.campaign(app.default_spec(), S, ErrorSpec::OneParallel));
    if unique_share > UNIQUE_SHARE_CUTOFF {
        specs.push(cfg.campaign(app.default_spec(), S, ErrorSpec::OneParallelUnique));
    }
    specs
}

/// The model inputs `build_inputs` assembles, from the same campaigns.
fn model_inputs(specs: &[CampaignSpec], rans: &[Ran], unique_share: f64) -> ModelInputs {
    let mut serial = BTreeMap::new();
    let mut small = None;
    let mut fi_unique = None;
    for (spec, ran) in specs.iter().zip(rans) {
        match spec.errors {
            ErrorSpec::SerialErrors(x) => {
                serial.insert(x, ran.fi);
            }
            ErrorSpec::OneParallel => small = Some(ran),
            _ => fi_unique = Some(ran.fi),
        }
    }
    let small = small.expect("the small-scale campaign is always run");
    ModelInputs {
        p: P,
        s: S,
        strategy: SamplePoints::default(),
        serial,
        small_prop: small.prop.clone(),
        small_by_contam: small
            .by_contam
            .iter()
            .map(|fi| (fi.total() > 0).then_some(*fi))
            .collect(),
        unique_share: if fi_unique.is_some() {
            unique_share
        } else {
            0.0
        },
        fi_unique,
        alpha_threshold: 0.20,
    }
}

/// Time `f` in microseconds into the `key` samples when tracing.
fn sampled<T>(tr: Option<&Tracer>, key: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    if let Some(tr) = tr {
        tr.sample(key, start.elapsed().as_secs_f64() * 1e6);
    }
    out
}

pub fn rep(scale: Scale, seed: u64, tr: Option<&Tracer>, dir: &Path, setup_only: bool) -> Rep {
    let mut rep = Rep::default();
    let cfg = ExperimentConfig {
        tests: tests(scale),
        seed: derive_seed(seed, 1),
        ..Default::default()
    };

    let setup = Instant::now();
    rep.op(fresh_dir(dir));
    let store = Store::under(dir);
    let runner = CampaignRunner::new()
        .with_auto_parallelism()
        .with_golden_dir(dir.join("golden"))
        .with_ledger_dir(&store.ledger)
        .with_feature_dir(&store.features);
    for app in App::ALL {
        for procs in [1, S, P] {
            timed(tr, "golden.get_masked", || {
                runner.golden().get(&app.default_spec(), procs)
            });
        }
    }
    rep.setup = setup.elapsed();
    if setup_only {
        return rep;
    }

    let clock = Clock::start(tr);
    let mut digest = Digests::default();
    let mut all_specs = Vec::new();
    for app in App::ALL {
        let unique_share = runner.golden().get(&app.default_spec(), P).unique_share();
        let specs = campaign_specs(app, &cfg, unique_share);
        let (inputs, rans) = match tr {
            None => {
                let inputs = build_inputs(&runner, &cfg, app, P, S, SamplePoints::default());
                // Every campaign is in the runner's cache now.
                let rans: Vec<Ran> = specs
                    .iter()
                    .map(|s| {
                        let r = runner.run(s);
                        Ran::of(&r, r.wall.as_secs_f64() * 1e3)
                    })
                    .collect();
                rep.attempted += rans.len() as u64;
                (inputs, rans)
            }
            Some(tr) => {
                let mut rans = Vec::new();
                for spec in &specs {
                    rans.extend(rep.op(run_traced(&runner, spec, Some(&store), tr)));
                }
                if rans.len() != specs.len() {
                    continue;
                }
                (model_inputs(&specs, &rans, unique_share), rans)
            }
        };
        for ran in &rans {
            digest.campaign(&ran.fi, &ran.prop, &ran.by_contam);
            rep.trials += ran.trials;
            rep.campaign_ms.push(ran.ms);
        }
        let pooled = PaperEq8::new(pooled_failures(&inputs)).predict();
        let pred = sampled(tr, "core.eq8_us", || PaperEq8::new(inputs).predict());
        digest.rates(&pooled.rates, &pred.rates);

        let features: Vec<_> = rans
            .iter()
            .flat_map(|r| r.features.iter().copied())
            .collect();
        // The fits are timed and must succeed, but stay out of the
        // digest: the feature records of failing parallel trials are not
        // deterministic (README.md, known defects).
        let logistic = sampled(tr, "core.fit_logistic_us", || LogisticModel::fit(&features));
        rep.op(logistic.map_err(|e| format!("{app} logistic fit: {e}")));
        let stumps = sampled(tr, "core.fit_stumps_us", || StumpsModel::fit(&features));
        rep.op(stumps.map_err(|e| format!("{app} stumps fit: {e}")));
        all_specs.extend(specs);
    }
    (rep.wall, rep.cpu_s) = clock.stop(tr);
    (rep.digest, rep.full_digest) = digest.hex();

    // Outside the measured phase: the store must hold every trial. A
    // traced run also times what a resume of each campaign loads.
    let stored = FeatureStore::load_all(&store.features).len() as u64;
    rep.op(if stored == rep.trials {
        Ok(())
    } else {
        Err(format!("{stored} of {} feature records stored", rep.trials))
    });
    if let Some(tr) = tr {
        for spec in &all_specs {
            let key = spec.ledger_key();
            let outcomes = tr.time("ledger.load", || {
                TrialLedger::load(&store.ledger, &key, spec.seed).len()
            });
            let features = tr.time("features.load", || {
                FeatureStore::load(&store.features, &key, spec.seed).len()
            });
            rep.op(if outcomes == spec.tests && features == spec.tests {
                Ok(())
            } else {
                Err(format!(
                    "{key}: {outcomes} outcomes and {features} feature records of {} stored",
                    spec.tests
                ))
            });
        }
        crate::layers::note_store_bytes(tr, &store, rep.trials);
    }
    rep
}
