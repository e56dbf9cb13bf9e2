//! The multi-campaign trial scheduler: fair-share admission of many
//! concurrent campaigns' trials over one shared worker pool.
//!
//! ## Architecture
//!
//! A fixed set of worker threads pulls *single trials* from a registry
//! of active campaigns. Admission is round-robin across campaigns with
//! two per-campaign brakes:
//!
//! * **fair share** — a campaign may hold at most
//!   `max(1, workers / active_campaigns)` trials in flight, so a
//!   10 000-trial campaign cannot starve a 50-trial one submitted
//!   after it; when only one campaign has work it gets every worker.
//! * **reorder window** — a campaign may run at most
//!   [`REORDER_WINDOW`] trials ahead of its in-order delivery cursor,
//!   bounding the reorder buffer (and keeping adaptive-stop campaigns
//!   from racing far past their stopping point).
//!
//! ## Determinism
//!
//! Each campaign's completed trials flow through its own
//! [`ReorderBuffer`] into the same consumers the one-shot
//! [`CampaignRunner`] wires ([`CampaignAccumulator`], ledger append,
//! obs trial events), and each trial is executed by the
//! [`TrialExecutor`] the runner itself builds — so a campaign's final
//! aggregate is bitwise identical to a solo `resilim campaign` run of
//! the same spec, no matter how many other campaigns it shared the
//! pool with or in what order the workers interleaved them.

use parking_lot::{Condvar, Mutex};
use resilim_harness::campaign::{ObsTrialConsumer, ReorderBuffer};
use resilim_harness::{
    CampaignAccumulator, CampaignResult, CampaignRunner, CampaignSpec, CampaignSummary,
    FeatureStore, TrialConsumer, TrialExecutor, TrialLedger, TrialRecord,
};
use resilim_obs as obs;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How many trials a campaign may run ahead of its in-order delivery
/// cursor. Bounds per-campaign reorder-buffer memory and the number of
/// wasted trials after an adaptive stop fires.
pub const REORDER_WINDOW: usize = 64;

/// A campaign's lifecycle state in the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignState {
    /// Trials are pending or in flight.
    Running,
    /// All trials delivered (or an adaptive stop fired); the summary
    /// is final.
    Done,
    /// A client cancelled the campaign before completion.
    Cancelled,
}

impl CampaignState {
    /// The wire spelling (`running`/`done`/`cancelled`).
    pub fn as_str(self) -> &'static str {
        match self {
            CampaignState::Running => "running",
            CampaignState::Done => "done",
            CampaignState::Cancelled => "cancelled",
        }
    }
}

/// One event on a campaign's watch stream.
#[derive(Debug, Clone)]
pub enum WatchEvent {
    /// `done` of `total` trials delivered so far.
    Progress {
        /// Trials delivered in order.
        done: usize,
        /// Trial ceiling.
        total: usize,
    },
    /// The campaign reached a terminal state.
    Terminal {
        /// Final state (never [`CampaignState::Running`]).
        state: CampaignState,
        /// The final aggregates ([`CampaignState::Done`] only).
        summary: Option<CampaignSummary>,
    },
}

/// One registered campaign.
struct Entry {
    spec: CampaignSpec,
    exec: Arc<TrialExecutor>,
    /// Trial indices this daemon must still execute (not resumed).
    pending: Vec<usize>,
    /// Position in `pending` of the next trial to claim.
    next: usize,
    /// Claimed trials whose records have not come back yet.
    in_flight: usize,
    /// Freshly executed records delivered in order (excludes resumed).
    delivered_fresh: usize,
    buffer: ReorderBuffer,
    /// `Some` while running; taken at finalization.
    acc: Option<CampaignAccumulator>,
    ledger: Option<TrialLedger>,
    /// Per-trial feature persistence (`<store>/features`), when durable.
    feature_store: Option<FeatureStore>,
    obs_sink: ObsTrialConsumer,
    /// An adaptive stop rule fired; the delivered prefix is final.
    stopped: bool,
    state: CampaignState,
    summary: Option<CampaignSummary>,
    watchers: Vec<mpsc::Sender<WatchEvent>>,
    started: Instant,
    metrics_before: obs::MetricsSnapshot,
}

impl Entry {
    fn id(&self) -> u64 {
        self.exec.campaign_id()
    }

    /// Whether the scheduler may admit another trial of this campaign.
    fn claimable(&self, fair_share: usize) -> bool {
        self.state == CampaignState::Running
            && !self.stopped
            && self.next < self.pending.len()
            && self.in_flight < fair_share
            // in_flight + parked-out-of-order records; see module doc.
            && self.next - self.delivered_fresh < REORDER_WINDOW
    }

    /// Whether this campaign still has admissible work (for the fair
    /// share's active-campaign count).
    fn has_work(&self) -> bool {
        self.state == CampaignState::Running && !self.stopped && self.next < self.pending.len()
    }

    /// Push one completed record and deliver everything that became
    /// in-order; finalize if the campaign reached its end.
    fn deliver(&mut self, rec: TrialRecord) {
        self.deliver_batch(std::iter::once(rec));
    }

    /// Push a batch of completed records (one registry-lock hold) and
    /// deliver everything that became in-order; finalize if the
    /// campaign reached its end. Delivery order — and therefore every
    /// aggregate and the adaptive stop position — is identical to
    /// delivering the records one at a time.
    fn deliver_batch(&mut self, records: impl IntoIterator<Item = TrialRecord>) {
        if self.state != CampaignState::Running || self.stopped {
            // A late record of a cancelled or already-stopped campaign:
            // dropped, exactly like the one-shot pipeline after a stop.
            return;
        }
        for rec in records {
            self.buffer.push(rec);
        }
        // Ledger and feature-store appends for this delivery are
        // batched into one write each (order within the batch is the
        // delivery order, so the file contents are identical to
        // unbatched appends).
        let mut fresh = Vec::new();
        let mut fresh_features = Vec::new();
        while !self.stopped {
            let Some(ready) = self.buffer.pop_ready() else {
                break;
            };
            let stop = self.acc.as_mut().expect("running campaign").consume(&ready);
            if !ready.resumed {
                if self.ledger.is_some() {
                    fresh.push((ready.index, ready.outcome, ready.attempts));
                }
                if self.feature_store.is_some() {
                    if let Some(features) = ready.features {
                        fresh_features.push((ready.index, features));
                    }
                }
                self.obs_sink.consume(&ready);
                self.delivered_fresh += 1;
            }
            let progress = WatchEvent::Progress {
                done: self.buffer.delivered(),
                total: self.spec.tests,
            };
            self.watchers.retain(|w| w.send(progress.clone()).is_ok());
            if stop {
                self.stopped = true;
            }
        }
        if let Some(ledger) = &self.ledger {
            ledger.append_batch(&fresh);
        }
        if let Some(store) = &self.feature_store {
            store.append_batch(&fresh_features);
        }
        if self.stopped || self.buffer.is_drained() {
            self.finalize();
        }
    }

    /// Seal the campaign: fold the accumulator into the final summary
    /// via the same [`CampaignResult`] → [`CampaignSummary`] path the
    /// CLI takes, flush the ledger, and notify watchers.
    fn finalize(&mut self) {
        debug_assert_eq!(self.state, CampaignState::Running);
        let delivered = self.buffer.delivered();
        if self.stopped {
            obs::count(obs::Counter::CampaignsStoppedEarly, 1);
            obs::count(
                obs::Counter::TrialsSavedByStopping,
                (self.spec.tests - delivered) as u64,
            );
            if obs::enabled() {
                obs::emit(&obs::Event::CampaignEarlyStop {
                    campaign: self.id(),
                    at_trial: delivered,
                    planned: self.spec.tests,
                });
            }
        }
        let (outcomes, features, fi, prop, by_contam, uncontaminated) =
            self.acc.take().expect("finalize once").into_parts();
        let result = CampaignResult {
            procs: self.spec.procs,
            fi,
            prop,
            by_contam,
            uncontaminated,
            outcomes,
            features,
            stopped_early: self.stopped,
            wall: self.started.elapsed(),
            golden: Arc::clone(self.exec.golden()),
            metrics: obs::MetricsSnapshot::capture().delta(&self.metrics_before),
        };
        self.summary = Some(CampaignSummary::of(&self.spec, &result));
        self.state = CampaignState::Done;
        self.close_store();
        obs::count(obs::Counter::ServeCampaignsDone, 1);
        obs::gauge_add(obs::Gauge::ServeActiveCampaigns, -1);
        if obs::enabled() {
            obs::emit(&obs::Event::CampaignEnd {
                campaign: self.id(),
                wall_us: obs::as_micros(self.started.elapsed()),
                trials: delivered,
            });
            obs::emit(&obs::Event::ServeCampaignDone {
                id: self.id(),
                trials: delivered,
                state: "done",
            });
        }
        let terminal = WatchEvent::Terminal {
            state: CampaignState::Done,
            summary: self.summary.clone(),
        };
        self.watchers.retain(|w| w.send(terminal.clone()).is_ok());
        self.watchers.clear();
    }

    /// Close the campaign's ledger and feature files (dropping a writer
    /// syncs it). Called on reaching a terminal state, after which
    /// nothing is appended, so a finished campaign kept in the registry
    /// holds no open file and no write state.
    fn close_store(&mut self) {
        self.ledger = None;
        self.feature_store = None;
    }

    fn status(&self) -> crate::protocol::CampaignStatus {
        crate::protocol::CampaignStatus {
            id: self.id(),
            app: self.spec.spec.app().name().to_string(),
            procs: self.spec.procs,
            errors: self.spec.errors.cli_name(),
            tests: self.spec.tests,
            seed: self.spec.seed,
            state: self.state.as_str().to_string(),
            done: self.buffer.delivered(),
            total: self.spec.tests,
        }
    }
}

/// Registry of campaigns plus the round-robin admission cursor.
struct State {
    entries: BTreeMap<u64, Entry>,
    /// Aggregation identity ([`CampaignSpec::cache_key`]) → campaign
    /// id, for idempotent submission.
    by_key: HashMap<String, u64>,
    /// Id of the campaign the last claim was admitted from.
    rr_last: u64,
}

struct Shared {
    runner: CampaignRunner,
    state: Mutex<State>,
    cv: Condvar,
    /// Workers stop claiming new trials once set; in-flight trials
    /// still complete and deliver (graceful drain).
    shutdown: AtomicBool,
    workers: usize,
    /// Trials a worker claims (and later delivers) per admission.
    batch: usize,
    /// Ledger directory (`<store>/ledger`), when durable.
    ledger_dir: Option<PathBuf>,
    /// Feature-store directory (`<store>/features`), when durable.
    feature_dir: Option<PathBuf>,
}

impl Shared {
    /// Claim the next admissible `(campaign, trials)` batch, round-robin
    /// across campaigns starting after the last admitted one. Up to
    /// [`Shared::batch`] consecutive trials of one campaign are claimed
    /// at once (still bounded by the fair share and the reorder
    /// window), amortizing the registry lock and admission bookkeeping
    /// per trial.
    fn claim(&self, st: &mut State) -> Option<(u64, Arc<TrialExecutor>, Vec<usize>)> {
        let active = st.entries.values().filter(|e| e.has_work()).count();
        if active == 0 {
            return None;
        }
        let fair_share = (self.workers / active).max(1);
        // Two passes: ids strictly after the cursor, then the wrap.
        let ids: Vec<u64> = st
            .entries
            .range(st.rr_last + 1..)
            .map(|(&id, _)| id)
            .chain(st.entries.range(..=st.rr_last).map(|(&id, _)| id))
            .collect();
        for id in ids {
            let entry = st.entries.get_mut(&id).expect("listed id");
            let mut tests = Vec::new();
            while tests.len() < self.batch && entry.claimable(fair_share) {
                tests.push(entry.pending[entry.next]);
                entry.next += 1;
                entry.in_flight += 1;
            }
            if !tests.is_empty() {
                st.rr_last = id;
                return Some((id, Arc::clone(&entry.exec), tests));
            }
        }
        None
    }
}

/// The campaign scheduler: a shared [`CampaignRunner`] (golden cache +
/// world pool), a worker pool, and the campaign registry. Socket-free —
/// the daemon layers the wire protocol on top, and tests drive it
/// directly.
pub struct Scheduler {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Start `workers` trial workers over `runner`. With a `store`
    /// directory, every campaign is ledgered under `<store>/ledger`
    /// and submissions resume whatever the ledger already holds.
    /// Admission batch size comes from the runner
    /// ([`CampaignRunner::with_trial_batch`]); batching is
    /// observationally invisible (see `Entry::deliver_batch`).
    pub fn new(runner: CampaignRunner, workers: usize, store: Option<PathBuf>) -> Scheduler {
        let workers = workers.max(1);
        let batch = runner.trial_batch();
        let shared = Arc::new(Shared {
            runner,
            state: Mutex::new(State {
                entries: BTreeMap::new(),
                by_key: HashMap::new(),
                rr_last: 0,
            }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers,
            batch,
            ledger_dir: store.as_ref().map(|dir| dir.join("ledger")),
            feature_dir: store.map(|dir| dir.join("features")),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Scheduler {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// The golden-cache-sharing runner (e.g. to pre-warm goldens).
    pub fn runner(&self) -> &CampaignRunner {
        &self.shared.runner
    }

    /// Register a campaign. Returns `(id, deduped)`: a spec whose
    /// aggregation identity matches an already-registered campaign
    /// (running *or* finished) joins it instead of running again.
    /// With a store, trials the ledger already holds are resumed, so
    /// resubmitting a completed deployment to a fresh daemon finishes
    /// without executing a single trial.
    pub fn submit(&self, spec: &CampaignSpec) -> Result<(u64, bool), String> {
        obs::count(obs::Counter::ServeSubmits, 1);
        let key = spec.cache_key();
        if let Some(id) = self.try_dedup(&key, spec) {
            return Ok((id, true));
        }
        // Golden profiling (or cache load) happens outside the registry
        // lock; concurrent identical submissions single-flight inside
        // the golden store and collapse at registration below.
        let exec = Arc::new(self.shared.runner.trial_executor(spec));
        let metrics_before = obs::MetricsSnapshot::capture();
        let (ledger, mut resumed) = match &self.shared.ledger_dir {
            Some(dir) => (
                TrialLedger::open(dir, &spec.ledger_key(), spec.seed).ok(),
                TrialLedger::load(dir, &spec.ledger_key(), spec.seed),
            ),
            None => (None, HashMap::new()),
        };
        resumed.retain(|&t, _| t < spec.tests);
        let (feature_store, resumed_features) = match &self.shared.feature_dir {
            Some(dir) => (
                FeatureStore::open(dir, &spec.ledger_key(), spec.seed).ok(),
                FeatureStore::load(dir, &spec.ledger_key(), spec.seed),
            ),
            None => (None, HashMap::new()),
        };
        let owned: Vec<usize> = (0..spec.tests).collect();
        let pending: Vec<usize> = owned
            .iter()
            .copied()
            .filter(|t| !resumed.contains_key(t))
            .collect();

        let mut st = self.shared.state.lock();
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return Err("daemon is shutting down".into());
        }
        if let Some(&id) = st.by_key.get(&key) {
            drop(st);
            obs::count(obs::Counter::ServeDedupHits, 1);
            self.note_submit(id, spec, true);
            return Ok((id, true));
        }
        let id = exec.campaign_id();
        obs::count(
            obs::Counter::TrialsResumed,
            (owned.len() - pending.len()) as u64,
        );
        obs::gauge_add(obs::Gauge::ServeActiveCampaigns, 1);
        self.note_submit(id, spec, false);
        if obs::enabled() {
            obs::emit(&obs::Event::CampaignStart {
                campaign: id,
                app: spec.spec.app().name().to_string(),
                procs: spec.procs,
                tests: spec.tests,
                errors: format!("{:?}", spec.errors),
            });
        }
        let mut entry = Entry {
            spec: spec.clone(),
            exec,
            pending,
            next: 0,
            in_flight: 0,
            delivered_fresh: 0,
            buffer: ReorderBuffer::new(owned.clone()),
            acc: Some(CampaignAccumulator::new(spec.procs, spec.stop)),
            ledger,
            feature_store,
            obs_sink: ObsTrialConsumer::new(id),
            stopped: false,
            state: CampaignState::Running,
            summary: None,
            watchers: Vec::new(),
            started: Instant::now(),
            metrics_before,
        };
        // Seed the ledger's records first: they may complete (or
        // adaptively stop) the campaign before any worker runs.
        for &t in &owned {
            if let Some(outcome) = resumed.get(&t) {
                entry.deliver(TrialRecord {
                    index: t,
                    outcome: *outcome,
                    attempts: 0,
                    resumed: true,
                    latency_us: 0,
                    features: resumed_features.get(&t).copied(),
                });
            }
        }
        st.by_key.insert(key, id);
        st.entries.insert(id, entry);
        self.shared.cv.notify_all();
        Ok((id, false))
    }

    /// First-pass dedup check (fast path, registry lock only).
    fn try_dedup(&self, key: &str, spec: &CampaignSpec) -> Option<u64> {
        let st = self.shared.state.lock();
        let id = *st.by_key.get(key)?;
        drop(st);
        obs::count(obs::Counter::ServeDedupHits, 1);
        self.note_submit(id, spec, true);
        Some(id)
    }

    fn note_submit(&self, id: u64, spec: &CampaignSpec, deduped: bool) {
        if obs::enabled() {
            obs::emit(&obs::Event::ServeSubmit {
                id,
                app: spec.spec.app().name().to_string(),
                procs: spec.procs,
                tests: spec.tests,
                deduped,
            });
        }
    }

    /// One campaign's status.
    pub fn status(&self, id: u64) -> Option<crate::protocol::CampaignStatus> {
        self.shared.state.lock().entries.get(&id).map(Entry::status)
    }

    /// The spec campaign `id` was registered with (for journaling).
    pub fn submitted_spec(&self, id: u64) -> Option<CampaignSpec> {
        self.shared
            .state
            .lock()
            .entries
            .get(&id)
            .map(|e| e.spec.clone())
    }

    /// A finished campaign's final aggregates.
    pub fn summary(&self, id: u64) -> Option<CampaignSummary> {
        self.shared
            .state
            .lock()
            .entries
            .get(&id)
            .and_then(|e| e.summary.clone())
    }

    /// Every known campaign's status, in id order.
    pub fn list(&self) -> Vec<crate::protocol::CampaignStatus> {
        self.shared
            .state
            .lock()
            .entries
            .values()
            .map(Entry::status)
            .collect()
    }

    /// Cancel a running campaign. Returns `false` for unknown ids;
    /// cancelling an already-terminal campaign is a no-op `true`.
    /// In-flight trials finish harmlessly (their records are dropped);
    /// the ledger keeps everything delivered so far, so a later
    /// resubmission resumes instead of starting over.
    pub fn cancel(&self, id: u64) -> bool {
        let mut st = self.shared.state.lock();
        let Some(entry) = st.entries.get_mut(&id) else {
            return false;
        };
        if entry.state != CampaignState::Running {
            return true;
        }
        entry.state = CampaignState::Cancelled;
        entry.close_store();
        obs::count(obs::Counter::ServeCampaignsCancelled, 1);
        obs::gauge_add(obs::Gauge::ServeActiveCampaigns, -1);
        if obs::enabled() {
            obs::emit(&obs::Event::ServeCampaignDone {
                id,
                trials: entry.buffer.delivered(),
                state: "cancelled",
            });
        }
        let terminal = WatchEvent::Terminal {
            state: CampaignState::Cancelled,
            summary: None,
        };
        entry.watchers.retain(|w| w.send(terminal.clone()).is_ok());
        entry.watchers.clear();
        self.shared.cv.notify_all();
        true
    }

    /// Subscribe to a campaign's progress stream. A campaign already
    /// in a terminal state yields its terminal event immediately.
    pub fn watch(&self, id: u64) -> Option<mpsc::Receiver<WatchEvent>> {
        let (tx, rx) = mpsc::channel();
        let mut st = self.shared.state.lock();
        let entry = st.entries.get_mut(&id)?;
        if entry.state == CampaignState::Running {
            entry.watchers.push(tx);
        } else {
            let _ = tx.send(WatchEvent::Terminal {
                state: entry.state,
                summary: entry.summary.clone(),
            });
        }
        Some(rx)
    }

    /// Block until campaign `id` reaches a terminal state (or `timeout`
    /// passes). Returns the state reached, `None` for unknown ids or
    /// on timeout.
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<CampaignState> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock();
        loop {
            match st.entries.get(&id) {
                None => return None,
                Some(e) if e.state != CampaignState::Running => return Some(e.state),
                Some(_) => {
                    if self.shared.cv.wait_until(&mut st, deadline).timed_out() {
                        return None;
                    }
                }
            }
        }
    }

    /// Graceful drain: stop admitting trials, let in-flight trials
    /// finish and deliver, flush every running campaign's ledger, and
    /// join the workers. Idempotent.
    pub fn shutdown(&self) {
        {
            // Flag + wakeup under the registry lock, so a worker cannot
            // check the flag and then sleep through the notification.
            let _st = self.shared.state.lock();
            self.shared.shutdown.store(true, Ordering::Relaxed);
            self.shared.cv.notify_all();
        }
        for handle in self.handles.lock().drain(..) {
            let _ = handle.join();
        }
        let st = self.shared.state.lock();
        for entry in st.entries.values() {
            if entry.state == CampaignState::Running {
                if let Some(ledger) = &entry.ledger {
                    ledger.sync();
                }
                if let Some(store) = &entry.feature_store {
                    store.sync();
                }
            }
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: claim a batch of trials, run them outside the lock,
/// deliver the records under one lock hold, repeat — across *all*
/// campaigns, interleaved.
fn worker_loop(shared: &Shared) {
    loop {
        let claim = {
            let mut st = shared.state.lock();
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    break None;
                }
                if let Some(claim) = shared.claim(&mut st) {
                    break Some(claim);
                }
                shared.cv.wait(&mut st);
            }
        };
        let Some((id, exec, tests)) = claim else {
            return;
        };
        let mut recs = Vec::with_capacity(tests.len());
        for test in &tests {
            let busy = obs::timer();
            recs.push(exec.run_trial(*test));
            if let Some(busy) = busy {
                obs::count(
                    obs::Counter::WorkerBusyNanos,
                    busy.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                );
            }
        }
        let mut st = shared.state.lock();
        if let Some(entry) = st.entries.get_mut(&id) {
            entry.in_flight -= tests.len();
            entry.deliver_batch(recs);
        }
        // A freed slot (or a finished campaign) may unblock peers.
        shared.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilim_apps::App;
    use resilim_harness::ErrorSpec;

    fn spec(app: App, procs: usize, tests: usize, seed: u64) -> CampaignSpec {
        CampaignSpec::new(
            app.default_spec(),
            procs,
            ErrorSpec::OneParallel,
            tests,
            seed,
        )
    }

    fn wait_done(s: &Scheduler, id: u64) -> CampaignState {
        s.wait(id, Duration::from_secs(60)).expect("terminal state")
    }

    /// Summaries are bitwise-comparable except for the wall-clock field.
    fn assert_same_measurement(a: &CampaignSummary, b: &CampaignSummary) {
        let mut b = b.clone();
        b.wall_secs = a.wall_secs;
        assert_eq!(*a, b);
    }

    #[test]
    fn single_campaign_matches_solo_run() {
        let s = spec(App::Lu, 2, 12, 3);
        let solo = CampaignSummary::of(&s, &CampaignRunner::new().run_uncached(&s));
        let sched = Scheduler::new(CampaignRunner::new(), 3, None);
        let (id, deduped) = sched.submit(&s).unwrap();
        assert!(!deduped);
        assert_eq!(wait_done(&sched, id), CampaignState::Done);
        assert_same_measurement(&sched.summary(id).unwrap(), &solo);
    }

    #[test]
    fn resubmission_joins_the_existing_campaign() {
        let sched = Scheduler::new(CampaignRunner::new(), 2, None);
        let (a, first) = sched.submit(&spec(App::Cg, 1, 8, 5)).unwrap();
        let (b, second) = sched.submit(&spec(App::Cg, 1, 8, 5)).unwrap();
        assert!(!first);
        assert!(second);
        assert_eq!(a, b);
        // Still deduped after completion.
        wait_done(&sched, a);
        let (c, third) = sched.submit(&spec(App::Cg, 1, 8, 5)).unwrap();
        assert!(third);
        assert_eq!(a, c);
        // A different seed is a different campaign.
        let (d, fourth) = sched.submit(&spec(App::Cg, 1, 8, 6)).unwrap();
        assert!(!fourth);
        assert_ne!(a, d);
    }

    #[test]
    fn adaptive_stop_matches_solo_run() {
        let adaptive =
            spec(App::Lu, 2, 60, 9).with_stop(resilim_core::StopRule::new(0.3).with_min_tests(8));
        let result = CampaignRunner::new().run_uncached(&adaptive);
        assert!(result.stopped_early);
        let solo = CampaignSummary::of(&adaptive, &result);
        let sched = Scheduler::new(CampaignRunner::new(), 4, None);
        let (id, _) = sched.submit(&adaptive).unwrap();
        assert_eq!(wait_done(&sched, id), CampaignState::Done);
        assert_same_measurement(&sched.summary(id).unwrap(), &solo);
    }

    #[test]
    fn watch_streams_progress_then_terminal() {
        let sched = Scheduler::new(CampaignRunner::new(), 2, None);
        let (id, _) = sched.submit(&spec(App::Lu, 2, 10, 11)).unwrap();
        let rx = sched.watch(id).expect("known id");
        let mut last_done = 0;
        loop {
            match rx.recv_timeout(Duration::from_secs(60)).expect("event") {
                WatchEvent::Progress { done, total } => {
                    assert!(done >= last_done, "monotone progress");
                    assert_eq!(total, 10);
                    last_done = done;
                }
                WatchEvent::Terminal { state, summary } => {
                    assert_eq!(state, CampaignState::Done);
                    assert_eq!(summary.unwrap().tests, 10);
                    break;
                }
            }
        }
        // Watching a finished campaign yields the terminal event.
        let rx = sched.watch(id).unwrap();
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            WatchEvent::Terminal { state, .. } => assert_eq!(state, CampaignState::Done),
            other => panic!("expected terminal, got {other:?}"),
        }
        assert!(sched.watch(9_999_999).is_none());
    }

    #[test]
    fn shutdown_refuses_new_submissions() {
        let sched = Scheduler::new(CampaignRunner::new(), 1, None);
        sched.shutdown();
        assert!(sched.submit(&spec(App::Cg, 1, 4, 1)).is_err());
    }
}
