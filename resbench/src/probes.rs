//! Microprobes, run only in a traced run and after its repetitions (so
//! they never touch the end-to-end numbers): the per-op cost of the
//! injection hook, p = 64 collective and dispatch latencies, and each
//! application's fault-free serial run. Each probe warms up first.

use crate::stats::Summary;
use crate::Scale;
use resilim_apps::App;
use resilim_inject::{ctx, RankCtx, Tf64};
use resilim_simmpi::{Comm, ReduceOp, World, WorldPool};
use std::hint::black_box;
use std::time::Instant;

/// Scale of the simmpi probes (the `truth64` deployment's).
const PROBE_RANKS: usize = 64;

pub struct Probes {
    pub inject_ns_per_op: Summary,
    pub allreduce_us: Summary,
    pub barrier_us: Summary,
    pub sendrecv_us: Summary,
    pub dispatch_us: Summary,
    pub serial_run_ms: Vec<(&'static str, Summary)>,
}

/// `(warm-up, timed)` iterations.
fn iters(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (20, 200),
        Scale::Tiny => (2, 10),
    }
}

/// Spawn the world pool's rank threads before anything is timed.
pub fn warm_pool() {
    World::new(PROBE_RANKS).run(|_| ());
}

/// Nanoseconds per tracked op (a mul+add chain) with a rank context
/// installed and no injection pending.
fn inject_ns_per_op(scale: Scale) -> Vec<f64> {
    let (warm, timed) = iters(scale);
    let pairs: u64 = 50_000;
    ctx::install(RankCtx::profiling(0));
    let mut samples = Vec::with_capacity(timed);
    for i in 0..warm + timed {
        let start = Instant::now();
        let mut acc = Tf64::ZERO;
        for k in 0..black_box(pairs) {
            acc = acc * 0.999 + (k as f64);
        }
        black_box(acc.value());
        if i >= warm {
            samples.push(start.elapsed().as_secs_f64() * 1e9 / (2 * pairs) as f64);
        }
    }
    ctx::take();
    samples
}

/// Per-call latency of `op` seen by rank 0 of a p = 64 world.
fn collective_us(scale: Scale, op: fn(&Comm)) -> Vec<f64> {
    let (warm, timed) = iters(scale);
    World::new(PROBE_RANKS)
        .run(move |comm| {
            let mut samples = Vec::with_capacity(timed);
            for i in 0..warm + timed {
                let start = Instant::now();
                op(comm);
                if i >= warm {
                    samples.push(start.elapsed().as_secs_f64() * 1e6);
                }
            }
            samples
        })
        .into_iter()
        .find(|r| r.rank == 0)
        .and_then(|r| r.result.ok())
        .unwrap_or_default()
}

/// Latency of dispatching an empty body to a p = 64 world on the pool.
fn dispatch_us(scale: Scale) -> Vec<f64> {
    let (warm, timed) = iters(scale);
    let world = World::new(PROBE_RANKS);
    let mut samples = Vec::with_capacity(timed);
    for i in 0..warm + timed {
        let start = Instant::now();
        black_box(world.run_pooled(WorldPool::global(), |_| None, |_| ()));
        if i >= warm {
            samples.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    samples
}

/// Fault-free p = 1 runs of one application's default problem, ms.
fn serial_run_ms(scale: Scale, app: App) -> Vec<f64> {
    let timed = match scale {
        Scale::Full => 5,
        Scale::Tiny => 1,
    };
    let world = World::new(1);
    let spec = app.default_spec();
    (0..=timed)
        .map(|_| {
            let start = Instant::now();
            black_box(world.run(|comm| spec.run_rank(comm)));
            start.elapsed().as_secs_f64() * 1e3
        })
        .skip(1)
        .collect()
}

pub fn run(scale: Scale) -> Probes {
    let median = |v: Vec<f64>| Summary::of(&v, 0.5);
    Probes {
        inject_ns_per_op: median(inject_ns_per_op(scale)),
        allreduce_us: median(collective_us(scale, |c| {
            black_box(c.allreduce_scalar(ReduceOp::Sum, Tf64::new(1.0)));
        })),
        barrier_us: median(collective_us(scale, |c| c.barrier())),
        sendrecv_us: median(collective_us(scale, |c| {
            let (r, p) = (c.rank(), c.size());
            black_box(c.sendrecv((r + 1) % p, (r + p - 1) % p, 7, &[Tf64::new(1.0)]));
        })),
        dispatch_us: median(dispatch_us(scale)),
        serial_run_ms: App::ALL
            .into_iter()
            .map(|app| (app.name(), median(serial_run_ms(scale, app))))
            .collect(),
    }
}
