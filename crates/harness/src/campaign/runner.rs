//! The campaign runner: caching, parallel trial execution, durability
//! (ledger/resume/shard/watchdog), and the streaming pipeline that
//! turns completed trials into a [`CampaignResult`].

use super::aggregate::{
    aggregate_outcomes, CampaignAccumulator, FeatureConsumer, LedgerConsumer, ObsTrialConsumer,
};
use super::exec;
use super::spec::{CampaignResult, CampaignSpec, ErrorSpec};
use super::stream::{TrialConsumer, TrialPipeline, TrialRecord};
use crate::features::FeatureStore;
use crate::golden::{Flights, GoldenRun, GoldenStore};
use crate::ledger::{RetryPolicy, Shard, TrialLedger};
use parking_lot::Mutex;
use resilim_apps::AppOutput;
use resilim_inject::{FailureKind, TestOutcome};
use resilim_obs as obs;
use resilim_simmpi::{ExecBackend, PooledBackend, ReplicatedBackend, SpawnedBackend};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many fault-injection tests a runner executes concurrently.
#[derive(Debug, Clone, Copy)]
enum Parallelism {
    /// Exactly `k` worker threads (1 = sequential).
    Fixed(usize),
    /// [`auto_worker_count`] of the host's cores, resolved per campaign
    /// (a p=64 deployment needs fewer test workers than p=1).
    Auto,
}

/// Rank threads `--jobs auto` budgets per core. Rank threads spend most
/// of a trial blocked on messages, so one core keeps several of them
/// busy: on a 2-core host CG p=4 runs 1.3–1.6× faster at two workers
/// than at one.
const RANK_THREADS_PER_CORE: usize = 4;

/// The worker count `--jobs auto` resolves to on a host with `cores`
/// logical CPUs for a `procs`-rank deployment.
///
/// Each worker runs a whole world of `procs` rank threads, so the
/// fan-out is the rank-thread budget divided by the world size:
/// `clamp(RANK_THREADS_PER_CORE * cores / procs, 1, cores)`. The clamps
/// keep two properties. A 1-core host always gets exactly 1 worker, so
/// the runner takes its sequential path and pays no claim-counter or
/// pipeline-lock overhead for parallelism the host cannot deliver (the
/// `--jobs auto` pessimization recorded in BENCH_campaign.json). And
/// wide worlds on small hosts stay at 1 worker (p=64 below 32 cores):
/// a second concurrent 64-rank world doubles the live rank threads and
/// message buffers. On a 2-core host it raised the `truth64` benchmark's
/// peak RSS by ~70% and cut its wall time by under 5%.
pub fn auto_worker_count(cores: usize, procs: usize) -> usize {
    let cores = cores.max(1);
    (RANK_THREADS_PER_CORE * cores / procs.max(1)).clamp(1, cores)
}

/// Runs campaigns, caching both golden runs and whole campaign results
/// (experiment pipelines share many deployments — e.g. every Figure 8
/// sweep reuses the serial sample campaigns it has in common).
pub struct CampaignRunner {
    golden: GoldenStore,
    cache: Mutex<HashMap<String, Arc<CampaignResult>>>,
    /// In-flight campaigns, single-flight per key (see
    /// [`GoldenStore::get_masked`] for the pattern).
    flights: Flights<String, CampaignResult>,
    parallelism: Parallelism,
    /// Durable per-trial ledger directory (`--store DIR/ledger`).
    ledger_dir: Option<PathBuf>,
    /// Durable per-trial feature-store directory
    /// (`--store DIR/features`).
    feature_dir: Option<PathBuf>,
    /// Skip trials already present in the ledger (`--resume`).
    resume: bool,
    /// Deterministic trial partition this runner executes (`--shard`).
    shard: Option<Shard>,
    /// Wall-clock watchdog per trial; `None` disables the watchdog.
    trial_deadline: Option<Duration>,
    /// Retry budget/backoff for watchdog-tripped trials.
    retry: RetryPolicy,
    /// Spawn fresh rank threads per trial instead of using the global
    /// [`resilim_simmpi::WorldPool`] (differential backend for
    /// `resilim check`'s replay-identity oracle).
    spawn_per_trial: bool,
    /// Trials admitted/committed per pipeline transaction (`--batch`).
    trial_batch: usize,
}

impl Default for CampaignRunner {
    fn default() -> Self {
        CampaignRunner::new()
    }
}

impl CampaignRunner {
    /// Fresh runner with empty caches, running tests sequentially.
    pub fn new() -> CampaignRunner {
        CampaignRunner {
            golden: GoldenStore::new(),
            cache: Mutex::new(HashMap::new()),
            flights: Mutex::new(HashMap::new()),
            parallelism: Parallelism::Fixed(1),
            ledger_dir: None,
            feature_dir: None,
            resume: false,
            shard: None,
            trial_deadline: None,
            retry: RetryPolicy::default(),
            spawn_per_trial: false,
            trial_batch: 1,
        }
    }

    /// Run up to `k` fault-injection tests concurrently (each test already
    /// runs `procs` rank threads; [`auto_worker_count`] is the default
    /// choice). Results are bitwise identical to a
    /// sequential run: every test's randomness is derived from its index.
    pub fn with_test_parallelism(mut self, k: usize) -> CampaignRunner {
        self.parallelism = Parallelism::Fixed(k.max(1));
        self
    }

    /// Scale test parallelism to the host automatically:
    /// [`auto_worker_count`] of `available_parallelism()`, per campaign.
    /// Same bitwise-determinism guarantee as
    /// [`CampaignRunner::with_test_parallelism`].
    pub fn with_auto_parallelism(mut self) -> CampaignRunner {
        self.parallelism = Parallelism::Auto;
        self
    }

    /// Persist golden runs under `dir` so later processes skip
    /// re-profiling (the CLI wires `--store DIR` to `DIR/golden`).
    pub fn with_golden_dir(mut self, dir: impl Into<std::path::PathBuf>) -> CampaignRunner {
        self.golden = std::mem::take(&mut self.golden).with_disk_dir(dir);
        self
    }

    /// Record every completed trial durably under `dir` (the CLI wires
    /// `--store DIR` to `DIR/ledger`). See [`crate::ledger`].
    pub fn with_ledger_dir(mut self, dir: impl Into<PathBuf>) -> CampaignRunner {
        self.ledger_dir = Some(dir.into());
        self
    }

    /// Persist every freshly executed trial's
    /// [`TrialFeatures`](resilim_core::TrialFeatures) under
    /// `dir` (the CLI wires `--store DIR` to `DIR/features`) — the
    /// learned predictors' training data, keyed exactly like the
    /// ledger. See [`crate::features`].
    pub fn with_feature_dir(mut self, dir: impl Into<PathBuf>) -> CampaignRunner {
        self.feature_dir = Some(dir.into());
        self
    }

    /// Reload already-ledgered trials instead of re-running them.
    /// Results are bitwise identical to an uninterrupted run.
    pub fn with_resume(mut self, resume: bool) -> CampaignRunner {
        self.resume = resume;
        self
    }

    /// Run only the trials `shard` owns (`trial % N == i`). Shard
    /// results are *partial*: they cover the owned trials only and are
    /// never published in the whole-campaign cache; merge the shards'
    /// ledgers with [`CampaignRunner::merged_from_ledger`].
    pub fn with_shard(mut self, shard: Shard) -> CampaignRunner {
        self.shard = Some(shard);
        self
    }

    /// The shard this runner executes, when one is configured.
    pub fn shard(&self) -> Option<Shard> {
        self.shard
    }

    /// Arm the per-trial wall-clock watchdog: a trial still running
    /// after `deadline` has its fabric poisoned and is retried under
    /// the runner's [`RetryPolicy`]. Pick a deadline generously above
    /// the slowest legitimate trial — a trip on a healthy trial would
    /// (after retries) record a `Hang` a fresh run would not.
    pub fn with_trial_deadline(mut self, deadline: Duration) -> CampaignRunner {
        self.trial_deadline = Some(deadline);
        self
    }

    /// Replace the watchdog retry policy (budget + backoff).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> CampaignRunner {
        self.retry = retry;
        self
    }

    /// Execute each trial on freshly spawned rank threads
    /// ([`resilim_simmpi::SpawnedBackend`]) instead of the
    /// process-global pool ([`resilim_simmpi::PooledBackend`]).
    /// Semantically identical — both backends share the same per-rank
    /// execution path — and therefore bitwise identical in outcome,
    /// which is exactly what `resilim check`'s replay-identity oracle
    /// asserts. Incompatible with the trial watchdog (the spawned
    /// backend has no deadline plumbing); enabling both panics at
    /// campaign time.
    pub fn with_spawn_per_trial(mut self) -> CampaignRunner {
        self.spawn_per_trial = true;
        self
    }

    /// Admit and commit trials in batches of `batch` (default 1):
    /// workers claim `batch` contiguous pending positions per shared
    /// counter bump and push all their completions under one pipeline
    /// lock, and the ledger consumer buffers `batch` records per
    /// write+flush. Aggregates are bitwise identical at every batch
    /// size — the reorder buffer still delivers strictly in owned-index
    /// order and an adaptive stop still freezes the same prefix (a
    /// batch only means up to `batch - 1` extra trials may *execute*
    /// past the stop before it is noticed; their records are dropped
    /// undelivered, exactly like late completions under parallelism).
    pub fn with_trial_batch(mut self, batch: usize) -> CampaignRunner {
        self.trial_batch = batch.max(1);
        self
    }

    /// The configured admission batch size.
    pub fn trial_batch(&self) -> usize {
        self.trial_batch
    }

    /// The worker count a campaign at `procs` ranks would use.
    pub fn effective_parallelism(&self, procs: usize) -> usize {
        match self.parallelism {
            Parallelism::Fixed(k) => k,
            Parallelism::Auto => {
                let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                auto_worker_count(cores, procs)
            }
        }
    }

    /// The golden-run store.
    pub fn golden(&self) -> &GoldenStore {
        &self.golden
    }

    /// The [`ExecBackend`] this runner's configuration selects, wrapped
    /// with TeaMPI-style replica payload comparison when the spec asks
    /// for it (`--replicate`).
    fn exec_backend(&self, replicate: bool) -> Box<dyn ExecBackend<AppOutput>> {
        let base: Box<dyn ExecBackend<AppOutput>> = if self.spawn_per_trial {
            assert!(
                self.trial_deadline.is_none(),
                "spawn-per-trial backend has no watchdog plumbing"
            );
            Box::new(SpawnedBackend)
        } else {
            Box::new(PooledBackend::with_deadline(self.trial_deadline))
        };
        if replicate {
            Box::new(ReplicatedBackend::new(base))
        } else {
            base
        }
    }

    /// Run (or fetch from cache) a campaign. Concurrent callers with the
    /// same spec are deduplicated: one runs the campaign, the rest wait
    /// for its result (fig8/table2 fan-out shares serial sub-campaigns).
    pub fn run(&self, spec: &CampaignSpec) -> Arc<CampaignResult> {
        if self.shard.is_some() {
            // A shard's result covers only its owned trials; publishing
            // it under the whole-campaign key would poison the cache.
            note_campaign_lookup(false);
            return Arc::new(self.run_uncached(spec));
        }
        let key = spec.cache_key();
        if let Some(hit) = self.cache.lock().get(&key) {
            note_campaign_lookup(true);
            return Arc::clone(hit);
        }
        let flight = Arc::clone(self.flights.lock().entry(key.clone()).or_default());
        let mut slot = flight.lock();
        if let Some(result) = slot.as_ref() {
            note_campaign_lookup(true);
            return Arc::clone(result);
        }
        if let Some(hit) = self.cache.lock().get(&key) {
            // Published between our cache miss and flight acquisition.
            note_campaign_lookup(true);
            return Arc::clone(hit);
        }
        note_campaign_lookup(false);
        let result = Arc::new(self.run_uncached(spec));
        self.cache.lock().insert(key.clone(), Arc::clone(&result));
        *slot = Some(Arc::clone(&result));
        drop(slot);
        self.flights.lock().remove(&key);
        result
    }

    /// Run a campaign without touching the campaign cache (golden runs are
    /// still cached). Used by benches that time campaign execution.
    ///
    /// Completed trials flow as [`TrialRecord`] events through a
    /// [`TrialPipeline`]: a reorder buffer delivers them in trial-index
    /// order to the aggregation, ledger, and obs consumers, so every
    /// statistic is a pure fold of the in-order stream regardless of
    /// worker count — and an adaptive [`CampaignSpec::stop`] rule stops
    /// the campaign at a deterministic trial.
    pub fn run_uncached(&self, spec: &CampaignSpec) -> CampaignResult {
        if let ErrorSpec::SerialErrors(_) = spec.errors {
            assert_eq!(spec.procs, 1, "SerialErrors campaigns run serially");
        }
        let metrics_before = obs::MetricsSnapshot::capture();
        let campaign_id = obs::next_campaign_id();
        if obs::enabled() {
            obs::emit(&obs::Event::CampaignStart {
                campaign: campaign_id,
                app: spec.spec.app().name().to_string(),
                procs: spec.procs,
                tests: spec.tests,
                errors: format!("{:?}", spec.errors),
            });
        }
        let executor = TrialExecutor {
            spec: spec.clone(),
            golden: self.golden.get_masked(&spec.spec, spec.procs, spec.op_mask),
            backend: self.exec_backend(spec.replicate),
            retry: self.retry,
            campaign_id,
        };
        let golden = Arc::clone(&executor.golden);

        let start = Instant::now();
        // The trials this process executes: the shard's slice of the
        // index space (everything without a shard), minus whatever the
        // ledger already holds when resuming. Records are keyed by
        // trial index and delivered in owned order, so any
        // partition/skip/completion-order combination aggregates
        // bitwise identically.
        let owned: Vec<usize> = (0..spec.tests)
            .filter(|&t| self.shard.is_none_or(|s| s.owns(t)))
            .collect();
        if self.shard.is_some() {
            obs::count(
                obs::Counter::ShardTrialsSkipped,
                (spec.tests - owned.len()) as u64,
            );
        }
        let ledger_key = spec.ledger_key();
        let ledger = self
            .ledger_dir
            .as_ref()
            .and_then(|dir| TrialLedger::open(dir, &ledger_key, spec.seed).ok());
        let feature_store = self
            .feature_dir
            .as_ref()
            .and_then(|dir| FeatureStore::open(dir, &ledger_key, spec.seed).ok());
        let mut resumed: HashMap<usize, TestOutcome> = match (&self.ledger_dir, self.resume) {
            (Some(dir), true) => TrialLedger::load(dir, &ledger_key, spec.seed),
            _ => HashMap::new(),
        };
        resumed.retain(|&t, _| t < spec.tests);
        // Resumed trials' features were persisted by the run that
        // executed them: reload them so the in-memory result still
        // carries a full training set, without re-appending them (the
        // feature consumer skips resumed records).
        let resumed_features = match (&self.feature_dir, self.resume) {
            (Some(dir), true) => FeatureStore::load(dir, &ledger_key, spec.seed),
            _ => HashMap::new(),
        };
        let pending: Vec<usize> = owned
            .iter()
            .copied()
            .filter(|t| !resumed.contains_key(t))
            .collect();
        obs::count(
            obs::Counter::TrialsResumed,
            (owned.len() - pending.len()) as u64,
        );

        let mut aggregator = CampaignAccumulator::new(spec.procs, spec.stop);
        let mut ledger_sink = LedgerConsumer::new(ledger.as_ref()).with_batch(self.trial_batch);
        let mut feature_sink =
            FeatureConsumer::new(feature_store.as_ref()).with_batch(self.trial_batch);
        let mut obs_sink = ObsTrialConsumer::new(campaign_id);
        let (stopped_early, delivered) = {
            let consumers: Vec<&mut dyn TrialConsumer> = vec![
                &mut aggregator,
                &mut ledger_sink,
                &mut feature_sink,
                &mut obs_sink,
            ];
            let mut pipeline = TrialPipeline::new(owned.clone(), consumers);
            // Seed resumed records first: they may satisfy the stop rule
            // before any fresh trial runs.
            for &t in &owned {
                if let Some(outcome) = resumed.get(&t) {
                    pipeline.push(TrialRecord {
                        index: t,
                        outcome: *outcome,
                        attempts: 0,
                        resumed: true,
                        latency_us: 0,
                        features: resumed_features.get(&t).copied(),
                    });
                }
            }

            let workers = self
                .effective_parallelism(spec.procs)
                .min(pending.len().max(1));
            // Worker-region timer: spans exactly the trial-execution
            // region (not golden profiling, not aggregation), so
            // `WorkerBusyNanos / WorkerWallNanos` is a true utilization.
            let worker_region = Instant::now();
            let batch = self.trial_batch;
            let pipeline = Mutex::new(pipeline);
            if workers <= 1 {
                let mut pos = 0;
                while pos < pending.len() {
                    if pipeline.lock().stopped() {
                        break;
                    }
                    let chunk = &pending[pos..(pos + batch).min(pending.len())];
                    pos += chunk.len();
                    let mut recs = Vec::with_capacity(chunk.len());
                    for &test in chunk {
                        let busy = obs::timer();
                        recs.push(executor.run_trial(test));
                        note_worker_busy(busy);
                    }
                    pipeline.lock().push_batch(recs);
                }
            } else {
                // Workers pull contiguous chunks of `batch` pending
                // positions from a shared counter and push their
                // completions into the pipeline under one lock, which
                // reorders them; a stop request stops workers from
                // claiming more.
                let next = AtomicUsize::new(0);
                let stop_flag = AtomicBool::new(pipeline.lock().stopped());
                std::thread::scope(|scope| {
                    for _ in 0..workers {
                        scope.spawn(|| loop {
                            if stop_flag.load(Ordering::Relaxed) {
                                break;
                            }
                            let pos = next.fetch_add(batch, Ordering::Relaxed);
                            if pos >= pending.len() {
                                break;
                            }
                            let chunk = &pending[pos..(pos + batch).min(pending.len())];
                            let mut recs = Vec::with_capacity(chunk.len());
                            for &test in chunk {
                                let busy = obs::timer();
                                recs.push(executor.run_trial(test));
                                note_worker_busy(busy);
                            }
                            let mut p = pipeline.lock();
                            p.push_batch(recs);
                            if p.stopped() {
                                stop_flag.store(true, Ordering::Relaxed);
                            }
                        });
                    }
                });
            }
            if obs::enabled() {
                obs::count(
                    obs::Counter::WorkerWallNanos,
                    (worker_region.elapsed().as_nanos().min(u64::MAX as u128) as u64)
                        .saturating_mul(workers as u64),
                );
            }
            let mut pipeline = pipeline.into_inner();
            pipeline.finish();
            assert!(
                pipeline.stopped() || pipeline.is_drained(),
                "every owned trial resumed or ran"
            );
            (pipeline.stopped(), pipeline.delivered())
        };
        if stopped_early {
            obs::count(obs::Counter::CampaignsStoppedEarly, 1);
            obs::count(
                obs::Counter::TrialsSavedByStopping,
                (owned.len() - delivered) as u64,
            );
            if obs::enabled() {
                obs::emit(&obs::Event::CampaignEarlyStop {
                    campaign: campaign_id,
                    at_trial: delivered,
                    planned: spec.tests,
                });
            }
        }
        let wall = start.elapsed();

        if obs::enabled() {
            obs::emit(&obs::Event::CampaignEnd {
                campaign: campaign_id,
                wall_us: obs::as_micros(wall),
                trials: delivered,
            });
        }
        let (outcomes, features, fi, prop, by_contam, uncontaminated) = aggregator.into_parts();
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
            golden,
            metrics: obs::MetricsSnapshot::capture().delta(&metrics_before),
        }
    }

    /// Package this runner's execution configuration for one campaign
    /// as a standalone [`TrialExecutor`]: the golden run is profiled
    /// (or fetched) up front, then any thread may call
    /// [`TrialExecutor::run_trial`] for any trial index — the seam a
    /// multi-campaign scheduler (`resilim serve`) interleaves trials
    /// of many campaigns through, sharing this runner's golden store
    /// and the process-global world pool.
    pub fn trial_executor(&self, spec: &CampaignSpec) -> TrialExecutor {
        TrialExecutor {
            spec: spec.clone(),
            golden: self.golden.get_masked(&spec.spec, spec.procs, spec.op_mask),
            backend: self.exec_backend(spec.replicate),
            retry: self.retry,
            campaign_id: obs::next_campaign_id(),
        }
    }

    /// Assemble a whole-campaign [`CampaignResult`] purely from the
    /// ledger — the `resilim merge` path after N shards each ran their
    /// partition into a shared (or artifact-collected) ledger directory.
    ///
    /// Fails if any trial index in `0..spec.tests` is missing; the
    /// aggregation over the recorded outcomes is the same fold the live
    /// path streams through, so a merged result is bitwise identical to
    /// a single-process run of the same deployment.
    pub fn merged_from_ledger(&self, spec: &CampaignSpec) -> Result<CampaignResult, String> {
        let dir = self
            .ledger_dir
            .as_ref()
            .ok_or("merge needs a ledger directory (--store DIR)")?;
        let metrics_before = obs::MetricsSnapshot::capture();
        let start = Instant::now();
        let mut records = TrialLedger::load_strict(dir, &spec.ledger_key(), spec.seed)?;
        records.retain(|&t, _| t < spec.tests);
        let missing: Vec<usize> = (0..spec.tests)
            .filter(|t| !records.contains_key(t))
            .collect();
        if !missing.is_empty() {
            return Err(format!(
                "ledger incomplete: {}/{} trials missing (e.g. trial {})",
                missing.len(),
                spec.tests,
                missing[0]
            ));
        }
        let golden = self.golden.get_masked(&spec.spec, spec.procs, spec.op_mask);
        let outcomes: Vec<TestOutcome> = (0..spec.tests).map(|t| records[&t]).collect();
        // Feature shards merge alongside the ledger (lenient loader:
        // trials whose features were lost to corruption are simply
        // absent from the merged training set — unlike outcomes, the
        // aggregate statistics do not depend on them).
        let features = match &self.feature_dir {
            Some(dir) => {
                let stored = FeatureStore::load(dir, &spec.ledger_key(), spec.seed);
                (0..spec.tests)
                    .filter_map(|t| stored.get(&t).copied())
                    .collect()
            }
            None => Vec::new(),
        };
        let (fi, prop, by_contam, uncontaminated) = aggregate_outcomes(spec.procs, &outcomes);
        Ok(CampaignResult {
            procs: spec.procs,
            fi,
            prop,
            by_contam,
            uncontaminated,
            outcomes,
            features,
            stopped_early: false,
            wall: start.elapsed(),
            golden,
            metrics: obs::MetricsSnapshot::capture().delta(&metrics_before),
        })
    }
}

/// Everything needed to execute any single trial of one campaign, on
/// any thread: the spec, the profiled golden run, the configured
/// [`ExecBackend`], and the watchdog retry policy.
///
/// [`CampaignRunner::run_uncached`] builds one per campaign and its
/// workers share it; [`CampaignRunner::trial_executor`] hands the same
/// object to external schedulers (the `resilim serve` daemon) so
/// multi-campaign execution reuses the exact per-trial path — bitwise
/// identity with the one-shot runner is by construction, not by test.
pub struct TrialExecutor {
    spec: CampaignSpec,
    golden: Arc<GoldenRun>,
    backend: Box<dyn ExecBackend<AppOutput>>,
    retry: RetryPolicy,
    campaign_id: u64,
}

impl TrialExecutor {
    /// The campaign this executor runs trials of.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// The golden run trials classify against.
    pub fn golden(&self) -> &Arc<GoldenRun> {
        &self.golden
    }

    /// The process-unique campaign id trial events are tagged with.
    pub fn campaign_id(&self) -> u64 {
        self.campaign_id
    }

    /// Run one test durably: the trial span (latency histogram, trial
    /// counter) and the watchdog retry loop, packaged as the
    /// [`TrialRecord`] event the pipeline consumes (the ledger append
    /// and the structured trial event happen in the in-order consumers).
    ///
    /// Only *watchdog* trips are retried: a deterministic in-simulation
    /// crash or hang is the trial's real outcome and would reproduce
    /// identically, so it is recorded first try. A trial that keeps
    /// tripping the deadline after the retry budget is recorded as a
    /// [`FailureKind::Hang`] rather than wedging the campaign.
    pub fn run_trial(&self, test: usize) -> TrialRecord {
        let t = obs::timer();
        let mut attempt: u32 = 0;
        let (outcome, features) = loop {
            let (outcome, tripped, features) = exec::execute_trial(
                &self.spec,
                &self.golden,
                self.golden.op_cap(),
                test,
                self.backend.as_ref(),
            );
            if !tripped {
                break (outcome, features);
            }
            obs::count(obs::Counter::TrialDeadlineTrips, 1);
            if attempt < self.retry.max_retries {
                attempt += 1;
                obs::count(obs::Counter::TrialRetries, 1);
                obs::emit(&obs::Event::TrialRetry {
                    campaign: self.campaign_id,
                    test,
                    attempt,
                });
                std::thread::sleep(self.retry.backoff(attempt - 1));
                continue;
            }
            // Retry budget exhausted: record the wedge as a hang so the
            // campaign terminates with a classified outcome (keeping any
            // detection the doomed run still managed to report). The
            // feature label follows the reclassification.
            let outcome = TestOutcome::failure(
                FailureKind::Hang,
                outcome.contaminated_ranks,
                outcome.injections_fired,
            )
            .with_detected(outcome.detected);
            let mut features = features;
            features.label = outcome.kind.index() as u8;
            break (outcome, features);
        };
        obs::count(obs::Counter::TrialsRun, 1);
        let latency_us = match t {
            Some(t) => {
                let latency_us = obs::as_micros(t.elapsed());
                obs::observe(obs::Hist::TrialLatencyUs, latency_us);
                latency_us
            }
            None => 0,
        };
        TrialRecord {
            index: test,
            outcome,
            attempts: attempt + 1,
            resumed: false,
            latency_us,
            features: Some(features),
        }
    }
}

/// Record a campaign-cache lookup (hit = an Arc'd result was reused).
fn note_campaign_lookup(hit: bool) {
    obs::count(
        if hit {
            obs::Counter::CampaignCacheHits
        } else {
            obs::Counter::CampaignCacheMisses
        },
        1,
    );
    obs::emit(&obs::Event::CacheLookup {
        cache: "campaign",
        hit,
    });
}

/// Add one trial's execution time to `WorkerBusyNanos`.
fn note_worker_busy(busy: Option<Instant>) {
    if let Some(busy) = busy {
        obs::count(
            obs::Counter::WorkerBusyNanos,
            busy.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilim_apps::App;
    use resilim_core::{OutcomeKind, StopRule};

    fn campaign(app: App, procs: usize, errors: ErrorSpec, tests: usize) -> CampaignSpec {
        CampaignSpec::new(app.default_spec(), procs, errors, tests, 42)
    }

    /// The `--jobs auto` rule's properties: exactly 1 worker on every
    /// 1-core host (the pessimization BENCH_campaign.json recorded at
    /// 0.90× vs `jobs=1`), never more workers than cores, and p=64 kept
    /// at 1 worker on small hosts (peak RSS) while p=4 on 2 cores uses
    /// both cores.
    #[test]
    fn auto_worker_count_follows_the_rank_thread_budget() {
        for procs in [0, 1, 2, 3, 4, 8, 16, 64, 1024] {
            assert_eq!(auto_worker_count(1, procs), 1, "1 core, p={procs}");
            assert_eq!(auto_worker_count(0, procs), 1, "0 cores, p={procs}");
            for cores in [2, 3, 4, 8, 16, 64, 256] {
                let k = auto_worker_count(cores, procs);
                assert!((1..=cores).contains(&k), "{cores} cores, p={procs}: {k}");
            }
        }
        assert_eq!(auto_worker_count(2, 64), 1);
        assert_eq!(auto_worker_count(16, 64), 1);
        assert_eq!(auto_worker_count(2, 4), 2);
        assert_eq!(auto_worker_count(4, 4), 4);
        assert_eq!(auto_worker_count(8, 4), 8);
        assert_eq!(auto_worker_count(64, 4), 64);
        assert_eq!(auto_worker_count(4, 1), 4);
        // Degenerate procs never divides by zero.
        assert_eq!(auto_worker_count(8, 0), 8);
    }

    /// Every non-default fault model runs end-to-end through the
    /// campaign path and produces causally-consistent, model-shaped
    /// outcomes.
    #[test]
    fn fault_models_run_end_to_end() {
        use resilim_inject::{FailureKind, FaultModelSpec};
        let runner = CampaignRunner::new();
        let base = campaign(App::Lu, 2, ErrorSpec::OneParallel, 12);

        // DUE: a fired fault halts its rank; the trial is a detected
        // Due failure, never silent corruption.
        let due = runner.run_uncached(&base.clone().with_fault_model(FaultModelSpec::Due));
        assert!(due.due_count() > 0, "12 trials with no firing fault");
        for o in &due.outcomes {
            assert!(o.is_causally_consistent());
            if o.injections_fired > 0 {
                assert_eq!(o.failure, Some(FailureKind::Due));
                assert!(o.detected);
            }
        }
        assert_eq!(due.detection_coverage(), Some(1.0));

        // Burst: runs to completion under the op-targeting path.
        let burst = runner.run_uncached(&base.clone().with_fault_model(FaultModelSpec::Burst(3)));
        assert_eq!(burst.outcomes.len(), 12);
        assert!(burst.outcomes.iter().all(|o| o.is_causally_consistent()));

        // Msg: the wire fault fires on every trial (the targeted message
        // is always sent in a deterministic app) and contaminates.
        let msg = runner.run_uncached(&base.clone().with_fault_model(FaultModelSpec::Msg));
        assert!(msg.outcomes.iter().all(|o| o.injections_fired > 0));
        assert!(msg.outcomes.iter().any(|o| o.contaminated_ranks > 0));
        assert!(msg.outcomes.iter().all(|o| o.is_causally_consistent()));

        // Replication: wire corruption crosses a compare point, so
        // contaminated msg-model trials are overwhelmingly detected.
        // Coverage may fall short of 1.0: the compare uses the campaign's
        // significance threshold θ, and a low-order-bit flip can slip
        // under it at the compare point yet amplify into contamination
        // downstream — exactly the blind spot tolerance-based comparison
        // has in real replicated MPI.
        let repl = runner.run_uncached(
            &base
                .with_fault_model(FaultModelSpec::Msg)
                .with_replication(true),
        );
        let coverage = repl
            .detection_coverage()
            .expect("contaminated trials exist");
        assert!(coverage >= 0.5, "implausibly low coverage {coverage}");
        // Detection observes, never perturbs: outcome classes match the
        // unreplicated run bitwise.
        for (r, m) in repl.outcomes.iter().zip(msg.outcomes.iter()) {
            assert_eq!(r.with_detected(false), m.with_detected(false));
        }
    }

    #[test]
    fn trial_executor_matches_runner_path() {
        let runner = CampaignRunner::new();
        let spec = campaign(App::Lu, 2, ErrorSpec::OneParallel, 10);
        let result = runner.run_uncached(&spec);
        let executor = runner.trial_executor(&spec);
        for (i, expected) in result.outcomes.iter().enumerate() {
            let rec = executor.run_trial(i);
            assert_eq!(rec.index, i);
            assert_eq!(rec.outcome, *expected, "trial {i} diverges");
            assert!(!rec.resumed);
        }
    }

    #[test]
    fn serial_campaign_basics() {
        let runner = CampaignRunner::new();
        let result = runner.run(&campaign(App::Cg, 1, ErrorSpec::SerialErrors(1), 30));
        assert_eq!(result.fi.total(), 30);
        assert_eq!(result.outcomes.len(), 30);
        assert!(!result.stopped_early, "fixed mode never stops early");
        // Every test fired exactly its planned single error.
        assert!(result.outcomes.iter().all(|o| o.injections_fired == 1));
        // Single-rank: everything contaminates exactly one rank.
        assert_eq!(result.prop.counts[0], 30);
        // Single-bit flips in FP ops should not kill every run.
        assert!(result.fi.success_rate() > 0.2, "{:?}", result.fi);
    }

    #[test]
    fn parallel_campaign_spreads_contamination() {
        let runner = CampaignRunner::new();
        let result = runner.run(&campaign(App::Cg, 4, ErrorSpec::OneParallel, 40));
        assert_eq!(result.fi.total(), 40);
        let total: u64 = result.prop.counts.iter().sum();
        assert_eq!(total, 40);
        // CG reductions spread surviving errors to every rank: expect both
        // single-rank (absorbed) and all-rank (propagated) cases.
        assert!(result.prop.counts[0] > 0, "{:?}", result.prop.counts);
        assert!(result.prop.counts[3] > 0, "{:?}", result.prop.counts);
    }

    #[test]
    fn campaigns_are_reproducible() {
        let runner = CampaignRunner::new();
        let spec = campaign(App::Lu, 2, ErrorSpec::OneParallel, 15);
        let a = runner.run_uncached(&spec);
        let b = runner.run_uncached(&spec);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.fi, b.fi);
    }

    #[test]
    fn campaign_cache_hits() {
        let runner = CampaignRunner::new();
        let spec = campaign(App::Lu, 2, ErrorSpec::OneParallel, 10);
        let a = runner.run(&spec);
        let b = runner.run(&spec);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn multi_error_serial_campaign() {
        let runner = CampaignRunner::new();
        let result = runner.run(&campaign(App::Cg, 1, ErrorSpec::SerialErrors(8), 20));
        // Later errors can land in skipped code after corruption, but most
        // tests should fire several of the 8 planned errors.
        assert!(result.outcomes.iter().all(|o| o.injections_fired >= 1));
        assert!(result.outcomes.iter().any(|o| o.injections_fired == 8));
        // More errors -> lower success rate than 1-error campaigns.
        let one = runner.run(&campaign(App::Cg, 1, ErrorSpec::SerialErrors(1), 20));
        assert!(result.fi.success_rate() <= one.fi.success_rate() + 0.2);
    }

    #[test]
    fn parallel_unique_campaign_targets_unique_region() {
        let runner = CampaignRunner::new();
        // FT's four-step twiddle scaling is the parallel-unique region.
        let result = runner.run(&campaign(App::Ft, 4, ErrorSpec::OneParallelUnique, 15));
        assert_eq!(result.fi.total(), 15);
        assert!(result.outcomes.iter().all(|o| o.injections_fired == 1));
    }

    #[test]
    fn spawn_per_trial_backend_matches_pooled() {
        let spec = campaign(App::Lu, 2, ErrorSpec::OneParallel, 12);
        let pooled = CampaignRunner::new().run_uncached(&spec);
        let spawned = CampaignRunner::new()
            .with_spawn_per_trial()
            .run_uncached(&spec);
        assert_eq!(pooled.outcomes, spawned.outcomes);
        assert_eq!(pooled.fi, spawned.fi);
        assert_eq!(pooled.prop.counts, spawned.prop.counts);
    }

    #[test]
    fn parallel_test_execution_matches_sequential() {
        let spec = campaign(App::Lu, 2, ErrorSpec::OneParallel, 24);
        let sequential = CampaignRunner::new().run_uncached(&spec);
        let parallel = CampaignRunner::new()
            .with_test_parallelism(4)
            .run_uncached(&spec);
        assert_eq!(sequential.outcomes, parallel.outcomes);
        assert_eq!(sequential.fi, parallel.fi);
        assert_eq!(sequential.prop.counts, parallel.prop.counts);
    }

    #[test]
    fn masked_campaign_targets_other_kinds() {
        use resilim_inject::OpMask;
        let runner = CampaignRunner::new();
        let mut spec = campaign(App::Cg, 1, ErrorSpec::SerialErrors(1), 15);
        spec.op_mask = OpMask::DIV;
        let result = runner.run(&spec);
        // Every test fired exactly one fault, in a division.
        assert!(result.outcomes.iter().all(|o| o.injections_fired == 1));
        assert_eq!(result.fi.total(), 15);
        // The golden profile used for the index space was mask-specific:
        // far fewer divisions than adds/muls in CG.
        let div_golden = runner
            .golden()
            .get_masked(&App::Cg.default_spec(), 1, OpMask::DIV);
        let default_golden = runner.golden().get(&App::Cg.default_spec(), 1);
        assert!(div_golden.injectable_total() * 10 < default_golden.injectable_total());
        assert!(div_golden.injectable_total() > 0);
    }

    #[test]
    fn by_contam_partitions_fi() {
        let runner = CampaignRunner::new();
        let result = runner.run(&campaign(App::Cg, 4, ErrorSpec::OneParallel, 30));
        let total: u64 = result.by_contam.iter().map(|fi| fi.total()).sum();
        assert_eq!(total + result.uncontaminated.total(), result.fi.total());
        let success: u64 = result
            .by_contam
            .iter()
            .chain(std::iter::once(&result.uncontaminated))
            .map(|fi| fi.counts[OutcomeKind::Success.index()])
            .sum();
        assert_eq!(success, result.fi.counts[OutcomeKind::Success.index()]);
    }

    #[test]
    fn uncontaminated_tests_stay_out_of_by_contam() {
        // Regression: contaminated_ranks == 0 used to be folded into the
        // x=1 bucket by `clamp(1, procs)`, skewing its conditional rates.
        let outcomes = vec![
            TestOutcome::success(true, 0, 0), // fault never fired
            TestOutcome::success(true, 1, 1), // absorbed on one rank
            TestOutcome::sdc(1, 1),           // corrupted one rank
            TestOutcome::sdc(4, 1),           // spread to all ranks
            TestOutcome::sdc(9, 1),           // over-count clamps to procs
        ];
        let (fi, prop, by_contam, uncontaminated) = aggregate_outcomes(4, &outcomes);
        assert_eq!(fi.total(), 5);
        assert_eq!(uncontaminated.total(), 1);
        assert_eq!(uncontaminated.counts[OutcomeKind::Success.index()], 1);
        // x=1 bucket holds only the genuinely single-rank tests.
        assert_eq!(by_contam[0].total(), 2);
        assert_eq!(by_contam[3].total(), 2);
        assert_eq!(by_contam[1].total() + by_contam[2].total(), 0);
        // The propagation histogram keeps its historical 1..=p clamp.
        assert_eq!(prop.counts.iter().sum::<u64>(), 5);
    }

    #[test]
    fn adaptive_campaign_stops_early_and_is_a_prefix_of_fixed() {
        let fixed_spec = campaign(App::Cg, 1, ErrorSpec::SerialErrors(1), 80);
        let fixed = CampaignRunner::new().run_uncached(&fixed_spec);
        let rule = StopRule::new(0.25).with_min_tests(10);
        let adaptive = CampaignRunner::new().run_uncached(&fixed_spec.clone().with_stop(rule));
        assert!(adaptive.stopped_early, "a loose rule must stop before 80");
        let n = adaptive.outcomes.len();
        assert!((10..80).contains(&n), "stopped at {n}");
        // Adaptive results are exactly the in-order prefix of the fixed
        // campaign: same trials, same seeds, same classifications.
        assert_eq!(adaptive.outcomes[..], fixed.outcomes[..n]);
        assert!(rule.satisfied(&adaptive.fi));
        // The trial before the stop did not satisfy the rule (the stop
        // fires at the *first* satisfying prefix).
        let (prev_fi, ..) = aggregate_outcomes(1, &fixed.outcomes[..n - 1]);
        assert!(!rule.satisfied(&prev_fi));
    }

    #[test]
    fn adaptive_campaign_is_deterministic_across_worker_counts() {
        let spec = campaign(App::Lu, 2, ErrorSpec::OneParallel, 60)
            .with_stop(StopRule::new(0.3).with_min_tests(8));
        let sequential = CampaignRunner::new().run_uncached(&spec);
        let parallel = CampaignRunner::new()
            .with_test_parallelism(4)
            .run_uncached(&spec);
        assert_eq!(sequential.outcomes, parallel.outcomes);
        assert_eq!(sequential.fi, parallel.fi);
        assert_eq!(sequential.stopped_early, parallel.stopped_early);
        assert_eq!(
            sequential.prop.counts, parallel.prop.counts,
            "the delivered prefix is timing-independent"
        );
    }

    #[test]
    fn adaptive_and_fixed_campaigns_cache_separately() {
        let runner = CampaignRunner::new();
        let fixed_spec = campaign(App::Lu, 2, ErrorSpec::OneParallel, 20);
        let adaptive_spec = fixed_spec
            .clone()
            .with_stop(StopRule::new(0.45).with_min_tests(4));
        let fixed = runner.run(&fixed_spec);
        let adaptive = runner.run(&adaptive_spec);
        assert!(!Arc::ptr_eq(&fixed, &adaptive), "distinct cache keys");
        assert!(Arc::ptr_eq(&adaptive, &runner.run(&adaptive_spec)));
    }
}
