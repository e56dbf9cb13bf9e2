//! Process-global counters and log-bucketed histograms.
//!
//! Everything here is lock-free (`Relaxed` atomics) and gated on
//! [`crate::enabled`]: a disabled recorder costs one predictable branch.
//! Values are observations only — nothing in the campaign pipeline reads
//! them back, so enabling metrics cannot alter a campaign statistic.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// Monotonic event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Faults that actually fired (reached their target dynamic op).
    InjectionsFired,
    /// Rank contamination transitions (a rank first becoming tainted).
    TaintBorn,
    /// Injectable ops executed in the common region (flushed per rank).
    OpsCommon,
    /// Injectable ops executed in the parallel-unique region.
    OpsParallelUnique,
    /// Point-to-point + collective messages sent through the fabric.
    MsgsSent,
    /// Messages received.
    MsgsRecvd,
    /// Approximate payload bytes sent (8 per tracked f64).
    BytesSent,
    /// Tainted f64 elements observed in received payloads.
    TaintedElemsRecvd,
    /// Times a receive found no matching message and blocked on its
    /// mailbox (each wake-up that finds nothing and blocks again counts
    /// once more).
    RecvWaits,
    /// Injection hang-guard trips (op budget exceeded).
    HangGuardTrips,
    /// Golden-run cache hits.
    GoldenCacheHits,
    /// Golden-run cache misses (a fault-free execution was run).
    GoldenCacheMisses,
    /// Campaign-level result cache hits.
    CampaignCacheHits,
    /// Campaign-level result cache misses.
    CampaignCacheMisses,
    /// Fault-injection trials executed.
    TrialsRun,
    /// Nanoseconds campaign workers spent executing trials.
    WorkerBusyNanos,
    /// Nanoseconds of wall-clock × worker-count while a parallel
    /// campaign section was open (busy/wall = utilization).
    WorkerWallNanos,
    /// Trials skipped because their ledgered outcome was reloaded
    /// (`--resume`).
    TrialsResumed,
    /// Watchdog-tripped trials that were retried.
    TrialRetries,
    /// Trial-watchdog deadline trips (wall clock exceeded).
    TrialDeadlineTrips,
    /// Trials excluded by the shard filter (`--shard i/N`).
    ShardTrialsSkipped,
    /// Campaigns an adaptive stop rule ended before their trial ceiling.
    CampaignsStoppedEarly,
    /// Planned trials never delivered because a stop rule fired first
    /// (the adaptive-stopping saving, in trials).
    TrialsSavedByStopping,
    /// Differential-check cases executed (`resilim check`).
    CheckCasesRun,
    /// Differential-check oracle violations detected.
    CheckViolations,
    /// Shrink attempts made while minimizing a failing check case.
    CheckShrinkAttempts,
    /// Campaign submissions accepted by the service daemon
    /// (`resilim serve`), including deduplicated resubmissions.
    ServeSubmits,
    /// Submissions answered from an already-registered campaign with
    /// the same identity (idempotent resubmission).
    ServeDedupHits,
    /// Campaigns the service daemon ran to completion.
    ServeCampaignsDone,
    /// Campaigns cancelled by a client before completion.
    ServeCampaignsCancelled,
    /// Message-payload faults applied on the wire (`--fault-model msg`).
    MsgFaultsFired,
    /// Ranks killed by a detected-uncorrectable error
    /// (`--fault-model due`).
    DueKills,
    /// Replica payload comparisons that flagged a divergence
    /// (`--replicate` detection events, one per rank per trial).
    ReplicaDetections,
}

impl Counter {
    /// Every counter, in stable report order.
    pub const ALL: [Counter; 33] = [
        Counter::InjectionsFired,
        Counter::TaintBorn,
        Counter::OpsCommon,
        Counter::OpsParallelUnique,
        Counter::MsgsSent,
        Counter::MsgsRecvd,
        Counter::BytesSent,
        Counter::TaintedElemsRecvd,
        Counter::RecvWaits,
        Counter::HangGuardTrips,
        Counter::GoldenCacheHits,
        Counter::GoldenCacheMisses,
        Counter::CampaignCacheHits,
        Counter::CampaignCacheMisses,
        Counter::TrialsRun,
        Counter::WorkerBusyNanos,
        Counter::WorkerWallNanos,
        Counter::TrialsResumed,
        Counter::TrialRetries,
        Counter::TrialDeadlineTrips,
        Counter::ShardTrialsSkipped,
        Counter::CampaignsStoppedEarly,
        Counter::TrialsSavedByStopping,
        Counter::CheckCasesRun,
        Counter::CheckViolations,
        Counter::CheckShrinkAttempts,
        Counter::ServeSubmits,
        Counter::ServeDedupHits,
        Counter::ServeCampaignsDone,
        Counter::ServeCampaignsCancelled,
        Counter::MsgFaultsFired,
        Counter::DueKills,
        Counter::ReplicaDetections,
    ];

    /// Stable snake_case name (used in reports and traces).
    pub fn name(self) -> &'static str {
        match self {
            Counter::InjectionsFired => "injections_fired",
            Counter::TaintBorn => "taint_born",
            Counter::OpsCommon => "ops_common",
            Counter::OpsParallelUnique => "ops_parallel_unique",
            Counter::MsgsSent => "msgs_sent",
            Counter::MsgsRecvd => "msgs_recvd",
            Counter::BytesSent => "bytes_sent",
            Counter::TaintedElemsRecvd => "tainted_elems_recvd",
            Counter::RecvWaits => "recv_waits",
            Counter::HangGuardTrips => "hang_guard_trips",
            Counter::GoldenCacheHits => "golden_cache_hits",
            Counter::GoldenCacheMisses => "golden_cache_misses",
            Counter::CampaignCacheHits => "campaign_cache_hits",
            Counter::CampaignCacheMisses => "campaign_cache_misses",
            Counter::TrialsRun => "trials_run",
            Counter::WorkerBusyNanos => "worker_busy_nanos",
            Counter::WorkerWallNanos => "worker_wall_nanos",
            Counter::TrialsResumed => "trials_resumed",
            Counter::TrialRetries => "trial_retries",
            Counter::TrialDeadlineTrips => "trial_deadline_trips",
            Counter::ShardTrialsSkipped => "shard_trials_skipped",
            Counter::CampaignsStoppedEarly => "campaigns_stopped_early",
            Counter::TrialsSavedByStopping => "trials_saved_by_stopping",
            Counter::CheckCasesRun => "check_cases_run",
            Counter::CheckViolations => "check_violations",
            Counter::CheckShrinkAttempts => "check_shrink_attempts",
            Counter::ServeSubmits => "serve_submits",
            Counter::ServeDedupHits => "serve_dedup_hits",
            Counter::ServeCampaignsDone => "serve_campaigns_done",
            Counter::ServeCampaignsCancelled => "serve_campaigns_cancelled",
            Counter::MsgFaultsFired => "msg_faults_fired",
            Counter::DueKills => "due_kills",
            Counter::ReplicaDetections => "replica_detections",
        }
    }
}

/// Point-in-time level gauges (counters go up; gauges go up *and*
/// down). The only consumer so far is the service daemon's
/// active-campaign level; kept in the same recorder so `--metrics`
/// reports and tests read them uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Campaigns currently registered and not yet finished in a
    /// `resilim serve` daemon.
    ServeActiveCampaigns,
}

impl Gauge {
    /// Every gauge, in stable report order.
    pub const ALL: [Gauge; 1] = [Gauge::ServeActiveCampaigns];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::ServeActiveCampaigns => "serve_active_campaigns",
        }
    }
}

const NUM_GAUGES: usize = Gauge::ALL.len();

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_I64: AtomicI64 = AtomicI64::new(0);

static GAUGES: [AtomicI64; NUM_GAUGES] = [ZERO_I64; NUM_GAUGES];

/// Move a gauge by `delta` (negative = down). Unlike counters, gauges
/// are *state*, not observations: they track live service levels and
/// are therefore recorded even while the event recorder is disabled —
/// a daemon that enables tracing mid-flight must not see a skewed
/// level.
#[inline]
pub fn gauge_add(g: Gauge, delta: i64) {
    GAUGES[g as usize].fetch_add(delta, Ordering::Relaxed);
}

/// A gauge's current level.
#[inline]
pub fn gauge(g: Gauge) -> i64 {
    GAUGES[g as usize].load(Ordering::Relaxed)
}

/// Log₂-bucketed histograms (bucket `i ≥ 1` covers `[2^(i−1), 2^i)`;
/// bucket 0 holds zeros).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Wall-clock latency of one fault-injection trial, microseconds.
    TrialLatencyUs,
    /// Injectable ops executed by one rank in one trial.
    OpsPerRank,
    /// Latency of `barrier`, nanoseconds.
    BarrierNs,
    /// Latency of `bcast`, nanoseconds.
    BcastNs,
    /// Latency of `reduce`, nanoseconds.
    ReduceNs,
    /// Latency of `allreduce` (vector and scalar), nanoseconds.
    AllreduceNs,
    /// Latency of `gather`, nanoseconds.
    GatherNs,
    /// Latency of `allgather`, nanoseconds.
    AllgatherNs,
    /// Latency of `alltoallv`, nanoseconds.
    AlltoallvNs,
    /// Latency of `scatter`, nanoseconds.
    ScatterNs,
    /// Latency of `sendrecv`, nanoseconds.
    SendrecvNs,
}

/// Number of buckets per histogram: zeros + one per power of two.
pub const HIST_BUCKETS: usize = 65;

impl Hist {
    /// Every histogram, in stable report order.
    pub const ALL: [Hist; 11] = [
        Hist::TrialLatencyUs,
        Hist::OpsPerRank,
        Hist::BarrierNs,
        Hist::BcastNs,
        Hist::ReduceNs,
        Hist::AllreduceNs,
        Hist::GatherNs,
        Hist::AllgatherNs,
        Hist::AlltoallvNs,
        Hist::ScatterNs,
        Hist::SendrecvNs,
    ];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Hist::TrialLatencyUs => "trial_latency_us",
            Hist::OpsPerRank => "ops_per_rank",
            Hist::BarrierNs => "barrier_ns",
            Hist::BcastNs => "bcast_ns",
            Hist::ReduceNs => "reduce_ns",
            Hist::AllreduceNs => "allreduce_ns",
            Hist::GatherNs => "gather_ns",
            Hist::AllgatherNs => "allgather_ns",
            Hist::AlltoallvNs => "alltoallv_ns",
            Hist::ScatterNs => "scatter_ns",
            Hist::SendrecvNs => "sendrecv_ns",
        }
    }
}

const NUM_COUNTERS: usize = Counter::ALL.len();
const NUM_HISTS: usize = Hist::ALL.len();

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_ROW: [AtomicU64; HIST_BUCKETS] = [ZERO; HIST_BUCKETS];

static COUNTERS: [AtomicU64; NUM_COUNTERS] = [ZERO; NUM_COUNTERS];
static HISTS: [[AtomicU64; HIST_BUCKETS]; NUM_HISTS] = [ZERO_ROW; NUM_HISTS];

/// Add `n` to a counter. No-op while the recorder is disabled.
#[inline]
pub fn count(c: Counter, n: u64) {
    if crate::enabled() {
        COUNTERS[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Record one observation into a histogram. No-op while disabled.
#[inline]
pub fn observe(h: Hist, value: u64) {
    if crate::enabled() {
        let bucket = (64 - value.leading_zeros()) as usize;
        HISTS[h as usize][bucket].fetch_add(1, Ordering::Relaxed);
    }
}

/// Start a span timer; `None` while disabled, so the disabled path never
/// touches the clock.
#[inline]
pub fn timer() -> Option<Instant> {
    if crate::enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Record a span's elapsed time in nanoseconds.
#[inline]
pub fn observe_elapsed_ns(h: Hist, start: Option<Instant>) {
    if let Some(start) = start {
        observe(h, start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
}

/// RAII span: records elapsed nanoseconds into its histogram when
/// dropped. Created while the recorder is disabled it never touches the
/// clock and its drop is free.
pub struct Span {
    hist: Hist,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        observe_elapsed_ns(self.hist, self.start.take());
    }
}

/// Start a drop-timed span for `h`.
#[inline]
pub fn span(h: Hist) -> Span {
    Span {
        hist: h,
        start: timer(),
    }
}

/// Record a span's elapsed time in microseconds.
#[inline]
pub fn observe_elapsed_us(h: Hist, start: Option<Instant>) {
    if let Some(start) = start {
        observe(h, start.elapsed().as_micros().min(u64::MAX as u128) as u64);
    }
}

/// Point-in-time copy of every counter and histogram.
///
/// Metrics are process-global; a campaign's own contribution is the
/// [`delta`](MetricsSnapshot::delta) between a snapshot taken before it
/// started and one taken after it finished (exact when campaigns don't
/// overlap in one process).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: [u64; NUM_COUNTERS],
    hists: [[u64; HIST_BUCKETS]; NUM_HISTS],
}

impl Default for MetricsSnapshot {
    fn default() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: [0; NUM_COUNTERS],
            hists: [[0; HIST_BUCKETS]; NUM_HISTS],
        }
    }
}

impl MetricsSnapshot {
    /// Snapshot the current totals.
    pub fn capture() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (slot, counter) in snap.counters.iter_mut().zip(COUNTERS.iter()) {
            *slot = counter.load(Ordering::Relaxed);
        }
        for (row, src) in snap.hists.iter_mut().zip(HISTS.iter()) {
            for (slot, bucket) in row.iter_mut().zip(src.iter()) {
                *slot = bucket.load(Ordering::Relaxed);
            }
        }
        snap
    }

    /// Counters/buckets accumulated since `earlier` (saturating).
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (slot, prev) in out.counters.iter_mut().zip(earlier.counters.iter()) {
            *slot = slot.saturating_sub(*prev);
        }
        for (row, prev_row) in out.hists.iter_mut().zip(earlier.hists.iter()) {
            for (slot, prev) in row.iter_mut().zip(prev_row.iter()) {
                *slot = slot.saturating_sub(*prev);
            }
        }
        out
    }

    /// A counter's value.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// A histogram's buckets.
    pub fn hist(&self, h: Hist) -> &[u64; HIST_BUCKETS] {
        &self.hists[h as usize]
    }

    /// Observations recorded into a histogram.
    pub fn hist_total(&self, h: Hist) -> u64 {
        self.hists[h as usize].iter().sum()
    }

    /// Approximate `q`-quantile (`0 ≤ q ≤ 1`) of a histogram: the
    /// geometric bucket midpoint where the cumulative count crosses
    /// `q · total`. `None` when empty.
    pub fn percentile(&self, h: Hist, q: f64) -> Option<f64> {
        let buckets = &self.hists[h as usize];
        let total: u64 = buckets.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_mid(i));
            }
        }
        Some(bucket_mid(HIST_BUCKETS - 1))
    }

    /// Cache hit rate over both caches, `None` when no lookups happened.
    pub fn cache_hit_rate(&self, hits: Counter, misses: Counter) -> Option<f64> {
        let h = self.counter(hits);
        let m = self.counter(misses);
        if h + m == 0 {
            None
        } else {
            Some(h as f64 / (h + m) as f64)
        }
    }

    /// Human-readable aggregate report (the CLI's `--metrics` output).
    pub fn render(&self) -> String {
        let mut out = String::from("metrics\n");
        out.push_str("  counters:\n");
        for c in Counter::ALL {
            let v = self.counter(c);
            if v > 0 {
                out.push_str(&format!("    {:<24} {v}\n", c.name()));
            }
        }
        for (hits, misses, label) in [
            (
                Counter::GoldenCacheHits,
                Counter::GoldenCacheMisses,
                "golden cache",
            ),
            (
                Counter::CampaignCacheHits,
                Counter::CampaignCacheMisses,
                "campaign cache",
            ),
        ] {
            if let Some(rate) = self.cache_hit_rate(hits, misses) {
                out.push_str(&format!("  {label} hit rate: {:.1}%\n", rate * 100.0));
            }
        }
        let busy = self.counter(Counter::WorkerBusyNanos);
        let wall = self.counter(Counter::WorkerWallNanos);
        if wall > 0 {
            out.push_str(&format!(
                "  worker utilization: {:.1}%\n",
                100.0 * busy as f64 / wall as f64
            ));
        }
        out.push_str("  histograms (p50 / p90 / p99, log2-bucket midpoints):\n");
        for h in Hist::ALL {
            if self.hist_total(h) > 0 {
                let p = |q| {
                    self.percentile(h, q)
                        .map_or_else(|| "-".to_string(), |x| format!("{x:.0}"))
                };
                out.push_str(&format!(
                    "    {:<20} {} / {} / {}  (n={})\n",
                    h.name(),
                    p(0.5),
                    p(0.9),
                    p(0.99),
                    self.hist_total(h),
                ));
            }
        }
        out
    }
}

/// Per-measurement tolerance for comparing accumulated busy time against
/// accumulated wall time, in nanoseconds.
///
/// `WorkerBusyNanos` and `WorkerWallNanos` are built from *independent*
/// `Instant` reads: each trial's busy span and each parallel section's
/// wall span start and stop on different clock samples. On coarse-tick
/// platforms (and under clock slew between CPUs) every individual span
/// can over-count by up to one tick, so the invariant `busy ≤ wall` only
/// holds up to one tick per timed measurement. 1 ms comfortably exceeds
/// any tick granularity we run on (Linux CLOCK_MONOTONIC is ns-resolution
/// but Windows/macOS CI runners have been observed near 15 ms / 41 µs
/// scheduling jitter per sample — the bound is per *measurement*, so the
/// slack scales with how many spans were recorded, not with runtime).
pub const CLOCK_EPSILON_NS: u64 = 1_000_000;

/// Tolerant form of the `busy ≤ wall` worker-accounting invariant.
///
/// Returns `true` when `busy` does not exceed `wall` by more than
/// [`CLOCK_EPSILON_NS`] per timed measurement that contributed to the
/// two totals. Pass the number of busy spans recorded (e.g. the
/// `TrialsRun` delta); callers that cannot count spans may pass an upper
/// bound.
pub fn busy_within_wall(busy_ns: u64, wall_ns: u64, measurements: u64) -> bool {
    busy_ns <= wall_ns.saturating_add(measurements.saturating_mul(CLOCK_EPSILON_NS))
}

/// Midpoint of log₂ bucket `i` (0 for the zero bucket).
fn bucket_mid(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        1.5 * 2f64.powi(i as i32 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_stays_silent() {
        let _guard = crate::test_lock();
        crate::set_enabled(false);
        let before = MetricsSnapshot::capture();
        count(Counter::TrialsRun, 5);
        observe(Hist::TrialLatencyUs, 123);
        assert!(timer().is_none());
        let after = MetricsSnapshot::capture();
        assert_eq!(after.delta(&before).counter(Counter::TrialsRun), 0);
        assert_eq!(after.delta(&before).hist_total(Hist::TrialLatencyUs), 0);
    }

    #[test]
    fn counts_and_buckets_accumulate_when_enabled() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let before = MetricsSnapshot::capture();
        count(Counter::MsgsSent, 3);
        observe(Hist::OpsPerRank, 0); // bucket 0
        observe(Hist::OpsPerRank, 1); // bucket 1: [1, 2)
        observe(Hist::OpsPerRank, 1000); // bucket 10: [512, 1024)
        crate::set_enabled(false);
        let d = MetricsSnapshot::capture().delta(&before);
        assert_eq!(d.counter(Counter::MsgsSent), 3);
        assert_eq!(d.hist(Hist::OpsPerRank)[0], 1);
        assert_eq!(d.hist(Hist::OpsPerRank)[1], 1);
        assert_eq!(d.hist(Hist::OpsPerRank)[10], 1);
        assert_eq!(d.hist_total(Hist::OpsPerRank), 3);
    }

    #[test]
    fn busy_within_wall_allows_clock_granularity() {
        // Exact accounting passes.
        assert!(busy_within_wall(1_000, 1_000, 0));
        assert!(busy_within_wall(999, 1_000, 0));
        // Without slack, busy > wall fails even by 1 ns.
        assert!(!busy_within_wall(1_001, 1_000, 0));
        // One measurement buys one epsilon of slack …
        assert!(busy_within_wall(1_000 + CLOCK_EPSILON_NS, 1_000, 1));
        assert!(!busy_within_wall(1_001 + CLOCK_EPSILON_NS, 1_000, 1));
        // … and the slack scales linearly with measurement count.
        assert!(busy_within_wall(5 * CLOCK_EPSILON_NS, 0, 5));
        assert!(!busy_within_wall(5 * CLOCK_EPSILON_NS + 1, 0, 5));
        // Saturating arithmetic: huge measurement counts never wrap.
        assert!(busy_within_wall(u64::MAX, u64::MAX, u64::MAX));
    }

    #[test]
    fn percentiles_track_bucket_midpoints() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let before = MetricsSnapshot::capture();
        for _ in 0..90 {
            observe(Hist::TrialLatencyUs, 100); // bucket 7: [64, 128)
        }
        for _ in 0..10 {
            observe(Hist::TrialLatencyUs, 5000); // bucket 13: [4096, 8192)
        }
        crate::set_enabled(false);
        let d = MetricsSnapshot::capture().delta(&before);
        assert_eq!(d.percentile(Hist::TrialLatencyUs, 0.5), Some(96.0));
        assert_eq!(d.percentile(Hist::TrialLatencyUs, 0.99), Some(6144.0));
        assert_eq!(d.percentile(Hist::BarrierNs, 0.5), None);
        let report = d.render();
        assert!(report.contains("trial_latency_us"));
    }
}
