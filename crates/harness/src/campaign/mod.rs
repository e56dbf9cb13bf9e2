//! Fault-injection campaigns: many randomized tests of one deployment.
//!
//! A *deployment* (paper §2) fixes the application, the scale, and the
//! fault pattern; a *campaign* runs up to `tests` randomized
//! fault-injection tests of that deployment and summarizes them as a
//! [`resilim_core::FiResult`] plus a [`resilim_core::PropagationProfile`].
//!
//! Every test is fully determined by `(spec, seed, test_index)`: the
//! random draws (dynamic op index, bit position, operand) happen up front
//! into an [`resilim_inject::InjectionPlan`], so campaigns are
//! reproducible and individual tests can be replayed.
//!
//! The module is a pipeline of layers:
//!
//! * [`spec`] — the vocabulary: [`CampaignSpec`] (what to run, including
//!   the optional adaptive [`resilim_core::StopRule`]) and
//!   [`CampaignResult`].
//! * [`exec`](self) — one trial: plan → run on an
//!   [`resilim_simmpi::ExecBackend`] → classify (private).
//! * [`stream`] — completed trials flow as [`TrialRecord`] events
//!   through a deterministic reorder buffer into composable
//!   [`TrialConsumer`]s.
//! * [`aggregate`] — the built-in consumers: online aggregation with
//!   adaptive stopping, ledger persistence, obs trial events, and
//!   convergence plot series.
//! * [`session`] — [`CampaignSession`]: one campaign's store, resume,
//!   in-order delivery to the consumers, and result; the one-shot runner
//!   and the `resilim serve` scheduler both drive it.
//! * [`runner`] — [`CampaignRunner`]: configuration, caching, and the
//!   worker loop that drives a session.

pub mod aggregate;
mod exec;
pub mod runner;
pub mod session;
pub mod spec;
pub mod stream;

pub use aggregate::{
    aggregate_outcomes, CampaignAccumulator, ConvergenceSeries, FeatureConsumer, LedgerConsumer,
    ObsTrialConsumer,
};
pub use runner::{auto_worker_count, CampaignRunner, TrialExecutor};
pub use session::CampaignSession;
pub use spec::{
    validate_deployment, CampaignResult, CampaignSpec, ErrorSpec, DEFAULT_TAINT_THRESHOLD,
};
pub use stream::{ReorderBuffer, TrialConsumer, TrialPipeline, TrialRecord};
