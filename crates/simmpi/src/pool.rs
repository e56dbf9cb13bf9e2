//! A persistent pool of rank worker threads.
//!
//! Fault-injection campaigns run thousands of short trials; spawning
//! `procs` fresh OS threads per trial dominates small-problem wall time.
//! [`WorldPool`] keeps rank workers alive across trials and hands a batch
//! of rank bodies to them per run, with scoped-thread semantics: borrows
//! from the caller's stack are allowed because [`WorldPool::scope_run`]
//! does not return until every job has finished (or unwound).
//!
//! Robustness: a job that panics (a crashed trial, a hang-guard trip, a
//! rank failing on a poisoned fabric) unwinds into a `catch_unwind`
//! backstop inside the worker loop, so the worker thread survives and is
//! checked back in for the next trial. The pool never blocks waiting for
//! an idle worker — it spawns instead — so a run of `n` ranks always has
//! `n` workers running concurrently, which blocking collectives require.

use parking_lot::{Condvar, Mutex};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::OnceLock;

/// A lifetime-erased job. Soundness: jobs are only transmuted from
/// `'env` closures inside [`WorldPool::scope_run`], which waits for all
/// of them before returning, so the erased borrows never dangle.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Worker {
    tx: Sender<Job>,
}

/// Counts job completions so `scope_run` can wait for exactly the jobs it
/// dispatched — including on the unwind path, where waiting is what makes
/// the lifetime erasure sound.
///
/// The waiter records its target under the lock, so only the arrival that
/// reaches it notifies: `scope_run` wakes once per world, not once per
/// rank. The notify happens under the lock, so the waiter cannot return
/// (and free the latch on its stack) before the arriving thread is done
/// touching it.
struct Latch {
    state: Mutex<LatchState>,
    changed: Condvar,
}

struct LatchState {
    arrived: usize,
    /// The arrival count a blocked `wait_for` needs, if one is blocked.
    target: Option<usize>,
}

impl Latch {
    fn new() -> Latch {
        Latch {
            state: Mutex::new(LatchState {
                arrived: 0,
                target: None,
            }),
            changed: Condvar::new(),
        }
    }

    fn arrive(&self) {
        let mut s = self.state.lock();
        s.arrived += 1;
        if s.target == Some(s.arrived) {
            self.changed.notify_one();
        }
    }

    fn wait_for(&self, target: usize) {
        let mut s = self.state.lock();
        while s.arrived < target {
            s.target = Some(target);
            self.changed.wait(&mut s);
        }
        s.target = None;
    }
}

/// Arrives at the latch when dropped — on normal completion *and* when
/// the job unwinds, and even if an unsent job is destroyed unrun.
struct ArriveOnDrop<'a>(&'a Latch);

impl Drop for ArriveOnDrop<'_> {
    fn drop(&mut self) {
        self.0.arrive();
    }
}

/// Waits (on drop) for every job dispatched so far, so a panic partway
/// through dispatch still joins the jobs already in flight before any
/// borrowed state unwinds away.
struct WaitDispatched<'a> {
    latch: &'a Latch,
    sent: usize,
}

impl Drop for WaitDispatched<'_> {
    fn drop(&mut self) {
        self.latch.wait_for(self.sent);
    }
}

/// A reusable pool of rank worker threads (see module docs).
pub struct WorldPool {
    idle: Mutex<Vec<Worker>>,
    spawned: AtomicUsize,
    dispatched: AtomicUsize,
}

impl Default for WorldPool {
    fn default() -> Self {
        WorldPool::new()
    }
}

impl WorldPool {
    /// An empty pool; workers are spawned on demand and kept forever.
    pub fn new() -> WorldPool {
        WorldPool {
            idle: Mutex::new(Vec::new()),
            spawned: AtomicUsize::new(0),
            dispatched: AtomicUsize::new(0),
        }
    }

    /// The process-wide pool used by
    /// [`World::run_with_ctx`](crate::World::run_with_ctx).
    pub fn global() -> &'static WorldPool {
        static GLOBAL: OnceLock<WorldPool> = OnceLock::new();
        GLOBAL.get_or_init(WorldPool::new)
    }

    /// Total worker threads ever spawned by this pool. A campaign that
    /// reuses workers keeps this at the high-water concurrency mark
    /// instead of `trials * procs`.
    pub fn threads_spawned(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Workers currently checked in and waiting for work.
    pub fn idle_threads(&self) -> usize {
        self.idle.lock().len()
    }

    /// Total jobs ever dispatched through this pool.
    pub fn jobs_dispatched(&self) -> usize {
        self.dispatched.load(Ordering::Relaxed)
    }

    fn spawn_worker(&self) -> Worker {
        let (tx, rx) = channel::<Job>();
        let id = self.spawned.fetch_add(1, Ordering::Relaxed);
        std::thread::Builder::new()
            .name(format!("rank-worker-{id}"))
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    // Backstop only: rank bodies already run under their
                    // own catch_unwind. This keeps the worker alive even
                    // if result-delivery machinery itself panics.
                    let _ = panic::catch_unwind(AssertUnwindSafe(job));
                }
            })
            .expect("spawn rank worker");
        Worker { tx }
    }

    fn checkout(&self) -> Worker {
        match self.idle.lock().pop() {
            Some(w) => w,
            None => self.spawn_worker(),
        }
    }

    /// Run every job on its own worker thread, concurrently, and return
    /// once all of them have finished. Jobs may borrow from the caller's
    /// environment (`'env`), exactly like `std::thread::scope`.
    pub fn scope_run<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if jobs.is_empty() {
            return;
        }
        let latch = Latch::new();
        let mut join = WaitDispatched {
            latch: &latch,
            sent: 0,
        };
        let mut leased: Vec<Worker> = Vec::with_capacity(jobs.len());
        for job in jobs {
            let done = ArriveOnDrop(&latch);
            let wrapped: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let _done = done;
                job();
            });
            // SAFETY: `wrapped` may borrow from `'env` and from this
            // stack frame (the latch). It is never invoked or dropped
            // after `scope_run` returns: the `WaitDispatched` guard waits
            // for the job's `ArriveOnDrop` — which fires when the job
            // completes, unwinds, or is destroyed unrun — before this
            // frame is left, on both the normal and the panic path.
            let wrapped: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(wrapped) };
            let worker = self.checkout();
            let worker = match worker.tx.send(wrapped) {
                Ok(()) => worker,
                // The checked-out worker died (its thread panicked outside
                // the backstop or the process is winding down channels);
                // replace it.
                Err(err) => {
                    let fresh = self.spawn_worker();
                    fresh
                        .tx
                        .send(err.0)
                        .expect("freshly spawned worker accepts a job");
                    fresh
                }
            };
            leased.push(worker);
            join.sent += 1;
            self.dispatched.fetch_add(1, Ordering::Relaxed);
        }
        drop(join); // blocks until every dispatched job has arrived
        self.idle.lock().append(&mut leased);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_jobs_concurrently_and_reuses_workers() {
        let pool = WorldPool::new();
        for round in 0..3 {
            let sum = AtomicU64::new(0);
            let barrier = std::sync::Barrier::new(4);
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4u64)
                .map(|i| {
                    let sum = &sum;
                    let barrier = &barrier;
                    Box::new(move || {
                        // All four jobs must be live at once to pass the
                        // barrier — proves distinct concurrent workers.
                        barrier.wait();
                        sum.fetch_add(i + 1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.scope_run(jobs);
            assert_eq!(sum.load(Ordering::Relaxed), 10, "round {round}");
        }
        assert_eq!(pool.threads_spawned(), 4, "workers reused across rounds");
        assert_eq!(pool.idle_threads(), 4);
        assert_eq!(pool.jobs_dispatched(), 12);
    }

    #[test]
    fn panicking_job_leaves_pool_reusable() {
        crate::world::install_quiet_hook();
        let pool = WorldPool::new();
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
            Box::new(|| {
                crate::world::QUIET_PANICS.with(|q| q.set(true));
                panic!("job panic")
            }),
            Box::new(|| {}),
        ];
        pool.scope_run(jobs);
        let ran = AtomicU64::new(0);
        pool.scope_run(vec![Box::new(|| {
            ran.fetch_add(1, Ordering::Relaxed);
        }) as Box<dyn FnOnce() + Send + '_>]);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert_eq!(pool.threads_spawned(), 2);
    }

    #[test]
    fn empty_run_is_a_no_op() {
        let pool = WorldPool::new();
        pool.scope_run(Vec::new());
        assert_eq!(pool.threads_spawned(), 0);
    }
}
