//! `serve_mixed`: an in-process `serve::Daemon` with a durable store,
//! driven over its unix socket by two closed-loop clients submitting
//! small campaigns (six applications rotating, p ∈ {2, 4}). The daemon
//! is then restarted on the same store and a slice of the specs is
//! resubmitted: those answers come from ledger and feature resume
//! (reads), not from execution (writes).

use crate::campaigns::Store;
use crate::digest::Digests;
use crate::tracer::{timed, Tracer};
use crate::{derive_seed, fresh_dir, sysinfo, Clock, Rep, Scale};
use resilim_apps::App;
use resilim_harness::{CampaignSpec, CampaignSummary, ErrorSpec, FeatureStore, TrialLedger};
use resilim_serve::{Client, Daemon, ServeConfig, SubmitSpec};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Closed-loop client connections (the benchmark host's core count at
/// most, per the load rule in README.md).
const CLIENTS: usize = 2;
const PROCS: [usize; 2] = [2, 4];

/// `(campaigns, trials per campaign, campaigns resubmitted after the
/// restart)`.
fn size(scale: Scale) -> (usize, usize, usize) {
    match scale {
        Scale::Full => (108, 8, 24),
        Scale::Tiny => (12, 3, 4),
    }
}

fn specs(scale: Scale, seed: u64) -> Vec<CampaignSpec> {
    let (n, tests, _) = size(scale);
    (0..n)
        .map(|i| {
            let app = App::ALL[i % App::ALL.len()];
            let procs = PROCS[(i / App::ALL.len()) % PROCS.len()];
            CampaignSpec::new(
                app.default_spec(),
                procs,
                ErrorSpec::OneParallel,
                tests,
                derive_seed(seed, 100 + i as u64),
            )
        })
        .collect()
}

/// One client answer: the summary, submit-to-done milliseconds, and
/// whether the daemon deduplicated the submission.
struct Answer {
    summary: CampaignSummary,
    ms: f64,
    deduped: bool,
}

/// Submit every spec through `CLIENTS` closed-loop connections (each
/// waits for its campaign to finish before submitting the next).
fn drive(
    socket: &Path,
    specs: &[CampaignSpec],
    tr: Option<&Tracer>,
) -> (Vec<Option<Answer>>, Vec<String>) {
    let next = AtomicUsize::new(0);
    let answers: Mutex<Vec<Option<Answer>>> = Mutex::new(specs.iter().map(|_| None).collect());
    let errors = Mutex::new(Vec::new());
    let client_loop = || -> Result<(), String> {
        let mut client = timed(tr, "serve.connect", || Client::connect(socket))?;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(spec) = specs.get(i) else {
                return Ok(());
            };
            let start = Instant::now();
            let (id, deduped) = client.submit(SubmitSpec::of_campaign(spec))?;
            let ack = Instant::now();
            let mut first_progress = None;
            let (_, summary) = client.watch(id, |_, _| {
                first_progress.get_or_insert_with(Instant::now);
            })?;
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if let Some(tr) = tr {
                tr.sample("serve.submit_rtt_us", (ack - start).as_secs_f64() * 1e6);
                if let Some(p) = first_progress {
                    tr.sample("serve.admit_wait_ms", (p - ack).as_secs_f64() * 1e3);
                }
            }
            let summary = summary.ok_or(format!("campaign {id} finished without a summary"))?;
            answers.lock().expect("answers lock")[i] = Some(Answer {
                summary,
                ms,
                deduped,
            });
        }
    };
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                if let Err(e) = client_loop() {
                    errors
                        .lock()
                        .expect("errors lock")
                        .push(format!("client: {e}"));
                }
            });
        }
    });
    (
        answers.into_inner().expect("answers lock"),
        errors.into_inner().expect("errors lock"),
    )
}

fn same_counts(a: &CampaignSummary, b: &CampaignSummary) -> bool {
    a.fi == b.fi && a.prop == b.prop && a.by_contam == b.by_contam
}

pub fn rep(scale: Scale, seed: u64, tr: Option<&Tracer>, dir: &Path, setup_only: bool) -> Rep {
    let mut rep = Rep::default();
    let specs = specs(scale, seed);
    let (_, _, slice) = size(scale);
    let config = ServeConfig {
        socket: dir.join("daemon.sock"),
        store: Some(dir.join("store")),
        workers: sysinfo::cores(),
        batch: 1,
    };

    let setup = Instant::now();
    rep.op(fresh_dir(dir));
    let Some(daemon) = rep.op(Daemon::spawn(config.clone())) else {
        return rep;
    };
    for app in App::ALL {
        for procs in PROCS {
            timed(tr, "golden.get_masked", || {
                daemon
                    .scheduler()
                    .runner()
                    .golden()
                    .get(&app.default_spec(), procs)
            });
        }
    }
    rep.setup = setup.elapsed();
    if setup_only {
        daemon.stop();
        return rep;
    }

    let clock = Clock::start(tr);
    let fresh_start = Instant::now();
    let (fresh, errors) = drive(&config.socket, &specs, tr);
    if let Some(tr) = tr {
        tr.add("serve.fresh_phase", fresh_start.elapsed());
    }
    rep.errors.extend(errors);
    daemon.stop();
    let restart = Instant::now();
    let restarted = rep.op(Daemon::spawn(config.clone()));
    if let Some(tr) = tr {
        tr.sample("serve.restart_ms", restart.elapsed().as_secs_f64() * 1e3);
    }
    let (resumed, errors) = drive(&config.socket, &specs[..slice], tr);
    (rep.wall, rep.cpu_s) = clock.stop(tr);
    rep.errors.extend(errors);
    if let Some(daemon) = restarted {
        daemon.stop();
    }

    let mut digest = Digests::default();
    for (spec, answer) in specs.iter().zip(&fresh) {
        rep.attempted += 1;
        let Some(a) = answer else {
            rep.errors.push(format!("{}: no answer", spec.ledger_key()));
            continue;
        };
        digest.campaign(&a.summary.fi, &a.summary.prop, &a.summary.by_contam);
        rep.trials += a.summary.tests as u64;
        rep.campaign_ms.push(a.ms);
    }
    for (i, answer) in resumed.iter().enumerate() {
        rep.attempted += 1;
        match (answer, &fresh[i]) {
            (Some(again), Some(first)) if same_counts(&again.summary, &first.summary) => {
                // Not a failed operation (the answer is right), but a
                // known defect made visible: see README.md.
                if !again.deduped {
                    rep.not_deduped += 1;
                }
            }
            _ => rep
                .errors
                .push(format!("resubmission {i} differs from its first answer")),
        }
    }
    (rep.digest, rep.full_digest) = digest.hex();

    if let Some(tr) = tr {
        tr.count("serve.workers", config.workers as u64);
        let store = Store::under(&dir.join("store"));
        replay_store(tr, &store, &specs);
        crate::layers::note_store_bytes(tr, &store, rep.trials);
    }
    rep
}

/// Outside the measured phase: the resume reads the restart performed
/// (`TrialLedger::load` + `FeatureStore::load` per campaign), and the
/// daemon's per-record appends replayed into a scratch store with the
/// same calls (one `append_batch` per delivered record, one `sync` per
/// campaign) so their cost per trial can be timed from here.
fn replay_store(tr: &Tracer, store: &Store, specs: &[CampaignSpec]) {
    let scratch = Store {
        ledger: store.ledger.with_file_name("replay-ledger"),
        features: store.features.with_file_name("replay-features"),
    };
    for spec in specs {
        let key = spec.ledger_key();
        let outcomes = tr.time("ledger.load", || {
            TrialLedger::load(&store.ledger, &key, spec.seed)
        });
        let features = tr.time("features.load", || {
            FeatureStore::load(&store.features, &key, spec.seed)
        });
        let mut outcomes: Vec<_> = outcomes.into_iter().collect();
        outcomes.sort_by_key(|&(t, _)| t);
        let mut features: Vec<_> = features.into_iter().collect();
        features.sort_by_key(|&(t, _)| t);
        tr.count("store.replayed", outcomes.len() as u64);
        if let Ok(ledger) = TrialLedger::open(&scratch.ledger, &key, spec.seed) {
            tr.time("ledger.replay_append", || {
                for &(t, o) in &outcomes {
                    ledger.append_batch(&[(t, o, 1)]);
                }
                ledger.sync();
            });
        }
        if let Ok(fstore) = FeatureStore::open(&scratch.features, &key, spec.seed) {
            tr.time("features.replay_append", || {
                for &rec in &features {
                    fstore.append_batch(&[rec]);
                }
                fstore.sync();
            });
        }
    }
}
