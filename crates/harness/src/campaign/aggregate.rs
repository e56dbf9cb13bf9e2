//! Built-in [`TrialConsumer`]s: online aggregation (with adaptive
//! stopping), ledger persistence, obs trial events, and convergence
//! plot series — plus the batch fold (`aggregate_outcomes`) the merge
//! path and the check oracles re-derive results with.

use super::stream::{TrialConsumer, TrialRecord};
use crate::features::FeatureStore;
use crate::ledger::TrialLedger;
use resilim_core::{FiAccumulator, FiResult, PropagationProfile, StopRule, TrialFeatures};
use resilim_inject::{OutcomeKind, TestOutcome};
use resilim_obs as obs;
use std::borrow::Borrow;

/// Aggregate per-test outcomes into the campaign statistics (batch
/// form; delegates to the same [`FiAccumulator`] the streaming path
/// folds with, so the two are identical by construction).
///
/// `by_contam[x-1]` summarizes the tests that contaminated exactly
/// `x ∈ [1, procs]` ranks (counts above `procs` clamp down). Tests with
/// `contaminated_ranks == 0` are returned separately: folding them into
/// the x=1 bucket (as this code once did via `clamp(1, procs)`) skews the
/// conditional success rate the model conditions on, because a test where
/// the fault never materialized is always a masked success.
pub fn aggregate_outcomes(
    procs: usize,
    outcomes: &[TestOutcome],
) -> (FiResult, PropagationProfile, Vec<FiResult>, FiResult) {
    let mut acc = FiAccumulator::new(procs);
    for outcome in outcomes {
        acc.record(outcome);
    }
    acc.into_parts()
}

/// The aggregation consumer: folds every delivered outcome into a
/// [`FiAccumulator`] and, when a [`StopRule`] is set, requests an early
/// stop at the first in-order trial where the rule is satisfied.
pub struct CampaignAccumulator {
    acc: FiAccumulator,
    outcomes: Vec<TestOutcome>,
    /// Feature records of freshly executed trials, in delivery order
    /// (resumed records carry none — theirs are in the feature store).
    features: Vec<TrialFeatures>,
    stop: Option<StopRule>,
    satisfied: bool,
}

impl CampaignAccumulator {
    /// Accumulator for a `procs`-rank deployment; `stop = None` never
    /// requests a stop (fixed-`tests` mode).
    pub fn new(procs: usize, stop: Option<StopRule>) -> CampaignAccumulator {
        CampaignAccumulator {
            acc: FiAccumulator::new(procs),
            outcomes: Vec::new(),
            features: Vec::new(),
            stop,
            satisfied: false,
        }
    }

    /// Whether the stop rule was satisfied.
    pub fn stopped(&self) -> bool {
        self.satisfied
    }

    /// Outcomes delivered so far, in trial-index order.
    pub fn outcomes(&self) -> &[TestOutcome] {
        &self.outcomes
    }

    /// Consume into `(outcomes, features, fi, prop, by_contam,
    /// uncontaminated)`.
    pub fn into_parts(
        self,
    ) -> (
        Vec<TestOutcome>,
        Vec<TrialFeatures>,
        FiResult,
        PropagationProfile,
        Vec<FiResult>,
        FiResult,
    ) {
        let (fi, prop, by_contam, uncontaminated) = self.acc.into_parts();
        (
            self.outcomes,
            self.features,
            fi,
            prop,
            by_contam,
            uncontaminated,
        )
    }
}

impl TrialConsumer for CampaignAccumulator {
    fn consume(&mut self, rec: &TrialRecord) -> bool {
        self.acc.record(&rec.outcome);
        self.outcomes.push(rec.outcome);
        if let Some(features) = rec.features {
            self.features.push(features);
        }
        if let Some(rule) = &self.stop {
            if !self.satisfied && rule.satisfied(self.acc.fi()) {
                self.satisfied = true;
                return true;
            }
        }
        false
    }
}

/// Ledger-persistence consumer: appends every freshly executed record
/// (resumed records are already in the ledger). Appends happen in
/// trial-index order, so a stopped campaign's ledger holds exactly the
/// delivered prefix plus whatever earlier runs recorded.
///
/// With a batch size above 1 ([`LedgerConsumer::with_batch`]) records
/// are buffered and written with one `write`+flush per batch — the
/// amortized form batched admission uses. The buffer is drained on
/// [`TrialConsumer::finish`], so a completed (or stopped) campaign's
/// ledger contents are identical at every batch size; only the
/// crash-durability lag grows (bounded by the batch).
///
/// `L` is the ledger itself (a campaign session owns its store) or a
/// reference to one.
pub struct LedgerConsumer<L = TrialLedger> {
    ledger: Option<L>,
    batch: usize,
    buffered: Vec<(usize, TestOutcome, u32)>,
}

impl<L: Borrow<TrialLedger>> LedgerConsumer<L> {
    /// Consumer appending to `ledger` (no-op when `None`), one write
    /// per record.
    pub fn new(ledger: Option<L>) -> LedgerConsumer<L> {
        LedgerConsumer {
            ledger,
            batch: 1,
            buffered: Vec::new(),
        }
    }

    /// Buffer up to `batch` records per ledger write (1 = unbuffered).
    pub fn with_batch(mut self, batch: usize) -> LedgerConsumer<L> {
        self.batch = batch.max(1);
        self
    }

    fn flush(&mut self) {
        if let Some(ledger) = &self.ledger {
            ledger.borrow().append_batch(&self.buffered);
        }
        self.buffered.clear();
    }
}

impl<L: Borrow<TrialLedger> + Send> TrialConsumer for LedgerConsumer<L> {
    fn consume(&mut self, rec: &TrialRecord) -> bool {
        if !rec.resumed && self.ledger.is_some() {
            self.buffered.push((rec.index, rec.outcome, rec.attempts));
            if self.buffered.len() >= self.batch {
                self.flush();
            }
        }
        false
    }

    fn finish(&mut self) {
        self.flush();
        if let Some(ledger) = &self.ledger {
            ledger.borrow().sync();
        }
    }
}

/// Feature-store consumer: persists every freshly executed record's
/// [`TrialFeatures`] (resumed records carry none — the run that
/// executed them already persisted theirs). Appends happen in
/// trial-index delivery order, so the stored `features.jsonl` contents
/// for a given `(spec, seed)` are byte-identical across worker counts,
/// batch sizes, and one-shot vs daemon execution.
///
/// Batching mirrors [`LedgerConsumer`]: records buffer up to `batch`
/// per write and drain on [`TrialConsumer::finish`], so batch size
/// changes durability lag, never file contents.
pub struct FeatureConsumer<S = FeatureStore> {
    store: Option<S>,
    batch: usize,
    buffered: Vec<(usize, TrialFeatures)>,
}

impl<S: Borrow<FeatureStore>> FeatureConsumer<S> {
    /// Consumer appending to `store` (no-op when `None`), one write per
    /// record.
    pub fn new(store: Option<S>) -> FeatureConsumer<S> {
        FeatureConsumer {
            store,
            batch: 1,
            buffered: Vec::new(),
        }
    }

    /// Buffer up to `batch` records per store write (1 = unbuffered).
    pub fn with_batch(mut self, batch: usize) -> FeatureConsumer<S> {
        self.batch = batch.max(1);
        self
    }

    fn flush(&mut self) {
        if let Some(store) = &self.store {
            store.borrow().append_batch(&self.buffered);
        }
        self.buffered.clear();
    }
}

impl<S: Borrow<FeatureStore> + Send> TrialConsumer for FeatureConsumer<S> {
    fn consume(&mut self, rec: &TrialRecord) -> bool {
        if let (Some(features), false, Some(_)) = (rec.features, rec.resumed, &self.store) {
            self.buffered.push((rec.index, features));
            if self.buffered.len() >= self.batch {
                self.flush();
            }
        }
        false
    }

    fn finish(&mut self) {
        self.flush();
        if let Some(store) = &self.store {
            store.borrow().sync();
        }
    }
}

/// Obs consumer: emits one structured `trial` event per freshly
/// executed record, in trial-index order (resumed trials were someone
/// else's events).
pub struct ObsTrialConsumer {
    campaign: u64,
}

impl ObsTrialConsumer {
    /// Consumer emitting under campaign id `campaign`.
    pub fn new(campaign: u64) -> ObsTrialConsumer {
        ObsTrialConsumer { campaign }
    }
}

impl TrialConsumer for ObsTrialConsumer {
    fn consume(&mut self, rec: &TrialRecord) -> bool {
        if !rec.resumed && obs::enabled() {
            obs::emit(&obs::Event::Trial {
                campaign: self.campaign,
                test: rec.index,
                kind: match rec.outcome.kind {
                    OutcomeKind::Success => "success",
                    OutcomeKind::Sdc => "sdc",
                    OutcomeKind::Failure => "failure",
                },
                masked: rec.outcome.masked,
                contaminated: rec.outcome.contaminated_ranks,
                fired: rec.outcome.injections_fired,
                latency_us: rec.latency_us,
            });
        }
        false
    }
}

/// Plot-series consumer: the running Wilson half-width (widest outcome
/// class) after every delivered trial — the convergence curve the
/// adaptive bench and figure tooling plot, built live instead of by
/// re-folding a finished result.
pub struct ConvergenceSeries {
    rule: StopRule,
    acc: FiAccumulator,
    points: Vec<(u64, f64)>,
}

impl ConvergenceSeries {
    /// Series at 95 % confidence for a `procs`-rank deployment.
    pub fn new(procs: usize) -> ConvergenceSeries {
        ConvergenceSeries {
            rule: StopRule::new(0.0),
            acc: FiAccumulator::new(procs),
            points: Vec::new(),
        }
    }

    /// `(trials so far, widest Wilson half-width)` per delivered trial.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }
}

impl TrialConsumer for ConvergenceSeries {
    fn consume(&mut self, rec: &TrialRecord) -> bool {
        self.acc.record(&rec.outcome);
        self.points
            .push((self.acc.total(), self.rule.widest_halfwidth(self.acc.fi())));
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(index: usize, outcome: TestOutcome) -> TrialRecord {
        TrialRecord {
            index,
            outcome,
            attempts: 1,
            resumed: false,
            latency_us: 0,
            features: Some(TrialFeatures::quiet(
                outcome.kind,
                4,
                100,
                [1.0, 0.0, 0.0, 0.0, 0.0],
            )),
        }
    }

    #[test]
    fn accumulator_consumer_matches_batch_aggregate() {
        let outcomes = vec![
            TestOutcome::success(true, 0, 0),
            TestOutcome::success(false, 2, 1),
            TestOutcome::sdc(4, 1),
            TestOutcome::sdc(9, 1),
        ];
        let mut acc = CampaignAccumulator::new(4, None);
        for (i, o) in outcomes.iter().enumerate() {
            assert!(!acc.consume(&rec(i, *o)));
        }
        let (streamed, features, fi, prop, by_contam, uncontaminated) = acc.into_parts();
        let (bfi, bprop, bby, bunc) = aggregate_outcomes(4, &outcomes);
        assert_eq!(streamed, outcomes);
        assert_eq!(features.len(), outcomes.len());
        assert_eq!(fi, bfi);
        assert_eq!(prop.counts, bprop.counts);
        assert_eq!(by_contam, bby);
        assert_eq!(uncontaminated, bunc);
    }

    #[test]
    fn accumulator_requests_stop_when_rule_satisfied() {
        let rule = StopRule::new(0.45).with_min_tests(5);
        let mut acc = CampaignAccumulator::new(1, Some(rule));
        let mut stopped_at = None;
        for i in 0..100 {
            if acc.consume(&rec(i, TestOutcome::success(true, 1, 1))) {
                stopped_at = Some(i);
                break;
            }
        }
        let at = stopped_at.expect("a uniform stream converges");
        assert!(acc.stopped());
        assert!(at >= 4, "min_tests floor ignored (stopped at {at})");
        assert!(at < 99, "rule never satisfied");
        assert_eq!(acc.outcomes().len(), at + 1);
    }

    #[test]
    fn convergence_series_is_monotone_for_uniform_streams() {
        let mut series = ConvergenceSeries::new(1);
        for i in 0..50 {
            series.consume(&rec(i, TestOutcome::success(true, 1, 1)));
        }
        let points = series.points();
        assert_eq!(points.len(), 50);
        assert!(points.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-12));
        assert_eq!(points[49].0, 50);
    }
}
