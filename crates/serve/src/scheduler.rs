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
//! Each campaign is a [`CampaignSession`], the same one the one-shot
//! [`CampaignRunner`] drives: it opens the store, seeds resumed trials,
//! and delivers completed trials in owned-index order to the
//! aggregation, ledger, feature and obs sinks. The scheduler only
//! decides which worker runs which pending trial when. So a campaign's
//! final aggregate and store bytes are identical to a solo
//! `resilim campaign` run of the same spec, no matter how many other
//! campaigns it shared the pool with or in what order the workers
//! interleaved them.

use parking_lot::{Condvar, Mutex};
use resilim_harness::{
    CampaignRunner, CampaignSession, CampaignSpec, CampaignSummary, TrialExecutor, TrialRecord,
};
use resilim_obs as obs;
use std::collections::{BTreeMap, HashMap};
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
    id: u64,
    spec: CampaignSpec,
    /// `Some` while running; finished into the summary, or flushed and
    /// dropped on cancel.
    session: Option<CampaignSession>,
    /// Position in the session's pending list of the next trial to
    /// claim.
    next: usize,
    /// Claimed trials whose records have not come back yet.
    in_flight: usize,
    /// Trials delivered in order so far (resumed included).
    done: usize,
    state: CampaignState,
    summary: Option<CampaignSummary>,
    watchers: Vec<mpsc::Sender<WatchEvent>>,
}

impl Entry {
    /// Whether this campaign still has trials to admit (for the fair
    /// share's active-campaign count).
    fn has_work(&self) -> bool {
        self.session
            .as_ref()
            .is_some_and(|s| self.next < s.pending().len())
    }

    /// Claim up to `batch` consecutive pending trials, bounded by the
    /// fair share and the reorder window, with the executor to run them.
    fn claim(
        &mut self,
        fair_share: usize,
        batch: usize,
    ) -> Option<(Arc<TrialExecutor>, Vec<usize>)> {
        let session = self.session.as_ref()?;
        let mut tests = Vec::new();
        while tests.len() < batch
            && self.next < session.pending().len()
            && self.in_flight < fair_share
            // in_flight + parked-out-of-order records; see module doc.
            && self.next - session.fresh_delivered() < REORDER_WINDOW
        {
            tests.push(session.pending()[self.next]);
            self.next += 1;
            self.in_flight += 1;
        }
        (!tests.is_empty()).then(|| (Arc::clone(session.executor()), tests))
    }

    /// Push completed records into the session (one registry-lock
    /// hold), send one `Progress` per record that became in-order, and
    /// finalize once the campaign is done. A late record of a cancelled
    /// campaign is dropped, exactly like the one-shot pipeline after a
    /// stop.
    fn deliver(&mut self, records: Vec<TrialRecord>) {
        let Some(session) = &mut self.session else {
            return;
        };
        session.push(records);
        while self.done < session.delivered() {
            self.done += 1;
            let progress = WatchEvent::Progress {
                done: self.done,
                total: self.spec.tests,
            };
            self.watchers.retain(|w| w.send(progress.clone()).is_ok());
        }
        if session.is_done() {
            self.finalize();
        }
    }

    /// Seal the campaign: finish the session into the same
    /// [`CampaignResult`](resilim_harness::CampaignResult) →
    /// [`CampaignSummary`] path the CLI takes (closing its store), and
    /// notify watchers.
    fn finalize(&mut self) {
        let result = self.session.take().expect("finalize once").finish();
        self.summary = Some(CampaignSummary::of(&self.spec, &result));
        self.state = CampaignState::Done;
        obs::count(obs::Counter::ServeCampaignsDone, 1);
        obs::gauge_add(obs::Gauge::ServeActiveCampaigns, -1);
        if obs::enabled() {
            obs::emit(&obs::Event::ServeCampaignDone {
                id: self.id,
                trials: self.done,
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

    fn status(&self) -> crate::protocol::CampaignStatus {
        crate::protocol::CampaignStatus {
            id: self.id,
            app: self.spec.spec.app().name().to_string(),
            procs: self.spec.procs,
            errors: self.spec.errors.cli_name(),
            tests: self.spec.tests,
            seed: self.spec.seed,
            state: self.state.as_str().to_string(),
            done: self.done,
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
}

impl Shared {
    /// Claim the next admissible `(campaign, trials)` batch, round-robin
    /// across campaigns starting after the last admitted one. Up to the
    /// runner's trial batch of one campaign's trials are claimed at once
    /// (still bounded by the fair share and the reorder window),
    /// amortizing the registry lock and admission bookkeeping per trial.
    fn claim(&self, st: &mut State) -> Option<(u64, Arc<TrialExecutor>, Vec<usize>)> {
        let active = st.entries.values().filter(|e| e.has_work()).count();
        if active == 0 {
            return None;
        }
        let fair_share = (self.workers / active).max(1);
        let batch = self.runner.trial_batch();
        // Two passes: ids strictly after the cursor, then the wrap.
        let ids: Vec<u64> = st
            .entries
            .range(st.rr_last + 1..)
            .map(|(&id, _)| id)
            .chain(st.entries.range(..=st.rr_last).map(|(&id, _)| id))
            .collect();
        for id in ids {
            let entry = st.entries.get_mut(&id).expect("listed id");
            if let Some((exec, tests)) = entry.claim(fair_share, batch) {
                st.rr_last = id;
                return Some((id, exec, tests));
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
    /// Start `workers` trial workers over `runner`. The runner's store
    /// directories, resume flag and admission batch
    /// ([`CampaignRunner::with_trial_batch`]) apply to every campaign,
    /// exactly as they do to a one-shot run.
    pub fn new(runner: CampaignRunner, workers: usize) -> Scheduler {
        let workers = workers.max(1);
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
    /// With a resuming store, trials the ledger already holds are
    /// resumed, so resubmitting a completed deployment to a fresh
    /// daemon finishes without executing a single trial. Fails if the
    /// campaign's store cannot be opened.
    pub fn submit(&self, spec: &CampaignSpec) -> Result<(u64, bool), String> {
        obs::count(obs::Counter::ServeSubmits, 1);
        let key = spec.cache_key();
        let registered = self.shared.state.lock().by_key.get(&key).copied();
        if let Some(id) = registered {
            return Ok(self.join(id, spec));
        }
        // Golden profiling (or cache load) and the resume load happen
        // outside the registry lock; concurrent identical submissions
        // single-flight inside the golden store and collapse at
        // registration below.
        let session = CampaignSession::open(&self.shared.runner, spec)
            .map_err(|e| format!("campaign store: {e}"))?;

        let mut st = self.shared.state.lock();
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return Err("daemon is shutting down".into());
        }
        if let Some(&id) = st.by_key.get(&key) {
            drop(st);
            return Ok(self.join(id, spec));
        }
        let id = session.executor().campaign_id();
        obs::gauge_add(obs::Gauge::ServeActiveCampaigns, 1);
        self.note_submit(id, spec, false);
        session.start();
        let mut entry = Entry {
            id,
            spec: spec.clone(),
            next: 0,
            in_flight: 0,
            // Resumed records seeded at open may already have completed
            // (or adaptively stopped) the campaign.
            done: session.delivered(),
            state: CampaignState::Running,
            summary: None,
            watchers: Vec::new(),
            session: Some(session),
        };
        if entry.session.as_ref().is_some_and(CampaignSession::is_done) {
            entry.finalize();
        }
        st.by_key.insert(key, id);
        st.entries.insert(id, entry);
        self.shared.cv.notify_all();
        Ok((id, false))
    }

    /// Answer a submission that joins the registered campaign `id`.
    fn join(&self, id: u64, spec: &CampaignSpec) -> (u64, bool) {
        obs::count(obs::Counter::ServeDedupHits, 1);
        self.note_submit(id, spec, true);
        (id, true)
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
        if let Some(mut session) = entry.session.take() {
            session.flush();
        }
        obs::count(obs::Counter::ServeCampaignsCancelled, 1);
        obs::gauge_add(obs::Gauge::ServeActiveCampaigns, -1);
        if obs::enabled() {
            obs::emit(&obs::Event::ServeCampaignDone {
                id,
                trials: entry.done,
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
        let mut st = self.shared.state.lock();
        for session in st.entries.values_mut().filter_map(|e| e.session.as_mut()) {
            session.flush();
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
        let recs = exec.run_batch(&tests);
        let mut st = shared.state.lock();
        if let Some(entry) = st.entries.get_mut(&id) {
            entry.in_flight -= tests.len();
            entry.deliver(recs);
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
        let sched = Scheduler::new(CampaignRunner::new(), 3);
        let (id, deduped) = sched.submit(&s).unwrap();
        assert!(!deduped);
        assert_eq!(wait_done(&sched, id), CampaignState::Done);
        assert_same_measurement(&sched.summary(id).unwrap(), &solo);
    }

    #[test]
    fn resubmission_joins_the_existing_campaign() {
        let sched = Scheduler::new(CampaignRunner::new(), 2);
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
        let sched = Scheduler::new(CampaignRunner::new(), 4);
        let (id, _) = sched.submit(&adaptive).unwrap();
        assert_eq!(wait_done(&sched, id), CampaignState::Done);
        assert_same_measurement(&sched.summary(id).unwrap(), &solo);
    }

    #[test]
    fn watch_streams_progress_then_terminal() {
        let sched = Scheduler::new(CampaignRunner::new(), 2);
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
    fn unopenable_store_fails_the_submission() {
        let file = std::env::temp_dir().join(format!("resilim-sched-file-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let sched = Scheduler::new(CampaignRunner::new().with_ledger_dir(&file), 1);
        let err = sched.submit(&spec(App::Cg, 1, 4, 1)).unwrap_err();
        let _ = std::fs::remove_file(&file);
        assert!(err.contains(&file.display().to_string()), "{err}");
        assert!(sched.list().is_empty(), "nothing registered");
    }

    #[test]
    fn shutdown_refuses_new_submissions() {
        let sched = Scheduler::new(CampaignRunner::new(), 1);
        sched.shutdown();
        assert!(sched.submit(&spec(App::Cg, 1, 4, 1)).is_err());
    }
}
