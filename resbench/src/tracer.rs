//! The benchmark's own spans: timers around the calls it makes into each
//! layer's public functions, kept in memory until the run ends. Nothing
//! inside the program is instrumented beyond its existing obs counters.

use resilim_harness::{TrialConsumer, TrialRecord};
use resilim_obs as obs;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Default)]
struct Data {
    /// Total time spent in each timed call site.
    totals: BTreeMap<&'static str, Duration>,
    /// Distributions, one sample per call (microseconds unless the key
    /// says otherwise).
    samples: BTreeMap<String, Vec<f64>>,
    counts: BTreeMap<&'static str, u64>,
}

/// Span store shared by every thread of a traced run.
#[derive(Default)]
pub struct Tracer {
    data: Mutex<Data>,
}

impl Tracer {
    fn data(&self) -> std::sync::MutexGuard<'_, Data> {
        self.data
            .lock()
            .expect("tracer lock poisoned by a panicking thread")
    }

    /// Run `f`, adding its duration to the `name` total.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed());
        out
    }

    pub fn add(&self, name: &'static str, d: Duration) {
        *self.data().totals.entry(name).or_default() += d;
    }

    pub fn sample(&self, key: &str, value: f64) {
        let mut data = self.data();
        match data.samples.get_mut(key) {
            Some(v) => v.push(value),
            None => {
                data.samples.insert(key.to_string(), vec![value]);
            }
        }
    }

    pub fn count(&self, name: &'static str, n: u64) {
        *self.data().counts.entry(name).or_default() += n;
    }

    /// Total seconds spent in `name` (0 when never timed).
    pub fn total_s(&self, name: &str) -> f64 {
        self.data()
            .totals
            .get(name)
            .map_or(0.0, Duration::as_secs_f64)
    }

    pub fn samples(&self, key: &str) -> Vec<f64> {
        self.data().samples.get(key).cloned().unwrap_or_default()
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.data().counts.get(name).copied().unwrap_or(0)
    }
}

/// Run `f`, timing it under `name` when tracing.
pub fn timed<T>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(tr) => tr.time(name, f),
        None => f(),
    }
}

/// Times one [`TrialConsumer`]'s `consume` and `finish` calls separately,
/// so the pipeline's self time can be told apart from its consumers'.
pub struct Timed<'t, C> {
    pub inner: C,
    tracer: &'t Tracer,
    consume: &'static str,
    finish: &'static str,
}

impl<'t, C> Timed<'t, C> {
    pub fn new(inner: C, tracer: &'t Tracer, consume: &'static str, finish: &'static str) -> Self {
        Timed {
            inner,
            tracer,
            consume,
            finish,
        }
    }
}

impl<C: TrialConsumer> TrialConsumer for Timed<'_, C> {
    fn consume(&mut self, rec: &TrialRecord) -> bool {
        let start = Instant::now();
        let stop = self.inner.consume(rec);
        self.tracer.add(self.consume, start.elapsed());
        stop
    }

    fn finish(&mut self) {
        let start = Instant::now();
        self.inner.finish();
        self.tracer.add(self.finish, start.elapsed());
    }
}

/// The consume-side span names of every consumer wrapper; their sum is
/// subtracted from `push_batch` time to get the pipeline's self time.
pub const CONSUME_SPANS: [&str; 4] = [
    "accumulator.consume",
    "ledger.consume",
    "features.consume",
    "obs.consume",
];

/// Obs event sink that keeps only what the benchmark reads from the
/// daemon it cannot time directly: per-trial latencies by application
/// and golden-cache disk hits.
#[derive(Default)]
pub struct EventTally {
    inner: Mutex<Tally>,
}

#[derive(Default)]
pub struct Tally {
    app_of_campaign: BTreeMap<u64, String>,
    /// `(application, trial latency in microseconds)`.
    pub trial_us: Vec<(String, f64)>,
    pub golden_disk_hits: u64,
}

impl EventTally {
    /// Register a fresh tally as an obs sink.
    pub fn install() -> Arc<EventTally> {
        let tally = Arc::new(EventTally::default());
        obs::add_sink(Arc::clone(&tally) as Arc<dyn obs::EventSink>);
        tally
    }

    pub fn take(&self) -> Tally {
        std::mem::take(&mut *self.inner.lock().expect("tally lock"))
    }
}

impl obs::EventSink for EventTally {
    fn event(&self, event: &obs::Event) {
        let mut t = self.inner.lock().expect("tally lock");
        match event {
            obs::Event::CampaignStart { campaign, app, .. } => {
                t.app_of_campaign.insert(*campaign, app.clone());
            }
            obs::Event::Trial {
                campaign,
                latency_us,
                ..
            } => {
                let app = t.app_of_campaign.get(campaign).cloned().unwrap_or_default();
                t.trial_us.push((app, *latency_us as f64));
            }
            obs::Event::CacheLookup {
                cache: "golden-disk",
                hit: true,
            } => t.golden_disk_hits += 1,
            _ => {}
        }
    }
}
