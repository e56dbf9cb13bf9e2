//! One campaign's lifecycle, shared by the one-shot
//! [`CampaignRunner`] and the `resilim serve` scheduler: open the
//! store, seed resumed trials, deliver completed trials in owned-index
//! order to the sinks, and seal the result. The caller decides only
//! who runs the pending trials and when.

use super::aggregate::{CampaignAccumulator, FeatureConsumer, LedgerConsumer, ObsTrialConsumer};
use super::runner::{CampaignRunner, TrialExecutor};
use super::spec::{CampaignResult, CampaignSpec, ErrorSpec};
use super::stream::{TrialConsumer, TrialPipeline, TrialRecord};
use crate::features::FeatureStore;
use crate::ledger::TrialLedger;
use resilim_obs as obs;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The sinks every delivered record reaches, in this order.
struct Sinks {
    acc: CampaignAccumulator,
    ledger: LedgerConsumer,
    features: FeatureConsumer,
    obs: ObsTrialConsumer,
    /// Freshly executed records delivered so far (excludes resumed).
    fresh: usize,
}

impl TrialConsumer for Sinks {
    fn consume(&mut self, rec: &TrialRecord) -> bool {
        self.fresh += usize::from(!rec.resumed);
        // `|`, not `||`: every sink sees the record.
        self.acc.consume(rec)
            | self.ledger.consume(rec)
            | self.features.consume(rec)
            | self.obs.consume(rec)
    }

    /// Write out what the store sinks buffered and fsync it; safe to
    /// repeat.
    fn finish(&mut self) {
        self.ledger.finish();
        self.features.finish();
    }
}

/// One live campaign: its [`TrialExecutor`], its open store, and the
/// in-order pipeline into the aggregation, ledger, feature and obs
/// sinks.
///
/// [`CampaignSession::open`] takes everything but the trial execution
/// from the runner's configuration: store directories, resume, shard
/// and admission batch. The caller runs [`CampaignSession::pending`]
/// trials through the executor on any threads, hands the records to
/// [`CampaignSession::push`] in any order, and seals the campaign with
/// [`CampaignSession::finish`] once [`CampaignSession::is_done`].
pub struct CampaignSession {
    exec: Arc<TrialExecutor>,
    pipeline: TrialPipeline<Sinks>,
    /// Trials this process delivers: the shard's slice of `0..tests`.
    owned: usize,
    /// Owned trials neither resumed nor yet run, ascending.
    pending: Vec<usize>,
    metrics_before: obs::MetricsSnapshot,
    started: Instant,
}

impl CampaignSession {
    /// Profile (or fetch) the golden run, open the spec's ledger and
    /// feature store, and seed the trials a resumed store already holds
    /// — they may satisfy the stop rule before any fresh trial runs.
    /// Fails with the directory it could not open.
    pub fn open(runner: &CampaignRunner, spec: &CampaignSpec) -> io::Result<CampaignSession> {
        if let ErrorSpec::SerialErrors(_) = spec.errors {
            assert_eq!(spec.procs, 1, "SerialErrors campaigns run serially");
        }
        let metrics_before = obs::MetricsSnapshot::capture();
        let exec = Arc::new(runner.trial_executor(spec));
        let started = Instant::now();
        let key = spec.ledger_key();
        let ledger = open_in(runner.ledger_dir.as_deref(), |d| {
            TrialLedger::open(d, &key, spec.seed)
        })?;
        let features = open_in(runner.feature_dir.as_deref(), |d| {
            FeatureStore::open(d, &key, spec.seed)
        })?;
        let (resumed, resumed_features) = match (&runner.ledger_dir, runner.resume) {
            (Some(dir), true) => (
                TrialLedger::load(dir, &key, spec.seed),
                // Resumed trials' features were persisted by the run
                // that executed them: reload them so the result still
                // carries a full training set.
                match &runner.feature_dir {
                    Some(dir) => FeatureStore::load(dir, &key, spec.seed),
                    None => HashMap::new(),
                },
            ),
            _ => (HashMap::new(), HashMap::new()),
        };
        // Records are keyed by trial index and delivered in owned
        // order, so any partition/skip/completion-order combination
        // aggregates bitwise identically.
        let owned: Vec<usize> = (0..spec.tests)
            .filter(|&t| runner.shard.is_none_or(|s| s.owns(t)))
            .collect();
        let mut pending = Vec::new();
        let mut seeded = Vec::new();
        for &t in &owned {
            match resumed.get(&t) {
                Some(&outcome) => seeded.push(TrialRecord {
                    index: t,
                    outcome,
                    attempts: 0,
                    resumed: true,
                    latency_us: 0,
                    features: resumed_features.get(&t).copied(),
                }),
                None => pending.push(t),
            }
        }
        let sinks = Sinks {
            acc: CampaignAccumulator::new(spec.procs, spec.stop),
            ledger: LedgerConsumer::new(ledger).with_batch(runner.trial_batch),
            features: FeatureConsumer::new(features).with_batch(runner.trial_batch),
            obs: ObsTrialConsumer::new(exec.campaign_id()),
            fresh: 0,
        };
        let owned_len = owned.len();
        let mut pipeline = TrialPipeline::new(owned, sinks);
        pipeline.push_batch(seeded);
        Ok(CampaignSession {
            exec,
            pipeline,
            owned: owned_len,
            pending,
            metrics_before,
            started,
        })
    }

    /// Count the resumed and shard-skipped trials and emit
    /// `CampaignStart`: the campaign is now live. A caller that opened
    /// a session it then discards (a lost dedup race) never calls this.
    pub fn start(&self) {
        let spec = self.exec.spec();
        obs::count(
            obs::Counter::ShardTrialsSkipped,
            (spec.tests - self.owned) as u64,
        );
        obs::count(
            obs::Counter::TrialsResumed,
            (self.owned - self.pending.len()) as u64,
        );
        if obs::enabled() {
            obs::emit(&obs::Event::CampaignStart {
                campaign: self.exec.campaign_id(),
                app: spec.spec.app().name().to_string(),
                procs: spec.procs,
                tests: spec.tests,
                errors: format!("{:?}", spec.errors),
            });
        }
    }

    /// The executor every pending trial runs through.
    pub fn executor(&self) -> &Arc<TrialExecutor> {
        &self.exec
    }

    /// Owned trials the store did not hold, ascending: what the caller
    /// must run.
    pub fn pending(&self) -> &[usize] {
        &self.pending
    }

    /// Accept completed records (any order) and deliver everything that
    /// became in-order. Returns whether the campaign has stopped early;
    /// records pushed after that are dropped undelivered.
    pub fn push(&mut self, records: impl IntoIterator<Item = TrialRecord>) -> bool {
        self.pipeline.push_batch(records);
        self.pipeline.stopped()
    }

    /// Records delivered in order so far, resumed ones included.
    pub fn delivered(&self) -> usize {
        self.pipeline.delivered()
    }

    /// Freshly executed records delivered in order so far.
    pub fn fresh_delivered(&self) -> usize {
        self.pipeline.consumer().fresh
    }

    /// Whether the delivered prefix is final: stopped, or every owned
    /// trial delivered.
    pub fn is_done(&self) -> bool {
        self.pipeline.stopped() || self.pipeline.is_drained()
    }

    /// Write every delivered record the store sinks still buffer and
    /// fsync the store, leaving the session open (cancel and drain).
    pub fn flush(&mut self) {
        self.pipeline.finish();
    }

    /// Seal a done campaign: flush the store, count and report an early
    /// stop, emit `CampaignEnd`, and fold the sinks into the result.
    pub fn finish(mut self) -> CampaignResult {
        self.pipeline.finish();
        assert!(self.is_done(), "every owned trial resumed or ran");
        let delivered = self.pipeline.delivered();
        let stopped_early = self.pipeline.stopped();
        let campaign = self.exec.campaign_id();
        let spec = self.exec.spec();
        if stopped_early {
            obs::count(obs::Counter::CampaignsStoppedEarly, 1);
            obs::count(
                obs::Counter::TrialsSavedByStopping,
                (self.owned - delivered) as u64,
            );
            if obs::enabled() {
                obs::emit(&obs::Event::CampaignEarlyStop {
                    campaign,
                    at_trial: delivered,
                    planned: spec.tests,
                });
            }
        }
        let wall = self.started.elapsed();
        if obs::enabled() {
            obs::emit(&obs::Event::CampaignEnd {
                campaign,
                wall_us: obs::as_micros(wall),
                trials: delivered,
            });
        }
        let (outcomes, features, fi, prop, by_contam, uncontaminated) =
            self.pipeline.into_consumer().acc.into_parts();
        CampaignResult {
            procs: spec.procs,
            fi,
            prop,
            by_contam,
            uncontaminated,
            outcomes,
            features,
            stopped_early,
            wall,
            golden: Arc::clone(self.exec.golden()),
            metrics: obs::MetricsSnapshot::capture().delta(&self.metrics_before),
        }
    }
}

/// Open a store in `dir` when one is configured, naming the directory
/// in the error.
fn open_in<T>(
    dir: Option<&Path>,
    open: impl FnOnce(&Path) -> io::Result<T>,
) -> io::Result<Option<T>> {
    dir.map(|dir| {
        open(dir).map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", dir.display())))
    })
    .transpose()
}
