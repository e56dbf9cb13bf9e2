//! The wire vocabulary: versioned JSON-lines requests and responses.
//!
//! Framing is one JSON object per `\n`-terminated line. Every request
//! carries a protocol version `v` and a string command discriminator
//! `cmd`; every response carries `v` and a string `kind`. Payload
//! fields are optional and flat — plain named structs rather than
//! tagged enums, so a hand-written `echo '{...}' | nc -U` request, a
//! jq consumer, and a future client with extra fields all interoperate
//! (unknown fields are ignored, missing optional fields read as null).

use resilim_apps::App;
use resilim_core::StopRule;
use resilim_harness::{CampaignSpec, CampaignSummary, ErrorSpec};
use resilim_inject::FaultModelSpec;
use serde::{Deserialize, Serialize};

/// Wire protocol version. Bump on incompatible changes; the daemon
/// rejects requests with a newer `v` than it speaks.
pub const PROTOCOL_VERSION: u32 = 1;

/// A campaign submission, in CLI vocabulary: the deployment fields the
/// `resilim campaign` command exposes, spelled the way its flags spell
/// them (`errors` is `par`/`ser:N`/`unique`/`multi:K`). Contamination
/// threshold and op mask are not carried — wire campaigns always use
/// the paper defaults, exactly like the CLI.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitSpec {
    /// Application name (`cg`, `ft`, ...).
    pub app: String,
    /// Rank count.
    pub procs: usize,
    /// Fault pattern, CLI spelling (see [`ErrorSpec::parse`]).
    pub errors: String,
    /// Trial count (the ceiling when a stop rule is set).
    pub tests: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Adaptive stopping: target Wilson half-width (`--ci`); absent =
    /// fixed `tests` trials.
    pub ci: Option<f64>,
    /// Minimum trials before adaptive stopping may fire
    /// (`--min-tests`); only meaningful with `ci`.
    pub min_tests: Option<u64>,
    /// Fault model, CLI spelling (`--fault-model`; see
    /// [`resilim_inject::FaultModelSpec::parse`]). Absent = the default
    /// single-bit flip, so pre-fault-model clients keep working.
    pub fault_model: Option<String>,
    /// Rank replication (`--replicate`). Absent reads as `false`.
    pub replicate: Option<bool>,
}

impl SubmitSpec {
    /// Validate and translate into the harness [`CampaignSpec`].
    pub fn to_campaign(&self) -> Result<CampaignSpec, String> {
        let app = App::parse(&self.app).ok_or(format!("unknown app '{}'", self.app))?;
        if self.procs == 0 {
            return Err("procs must be >= 1".into());
        }
        if self.procs > app.max_procs() {
            return Err(format!(
                "app '{}' supports at most {} ranks",
                self.app,
                app.max_procs()
            ));
        }
        if self.tests == 0 {
            return Err("tests must be >= 1".into());
        }
        let errors = ErrorSpec::parse(&self.errors, self.procs)?;
        let fault_model = match &self.fault_model {
            None => FaultModelSpec::default(),
            Some(name) => FaultModelSpec::parse(name)?,
        };
        resilim_harness::validate_deployment(app, self.procs, errors, fault_model)?;
        let mut spec = CampaignSpec::new(
            app.default_spec(),
            self.procs,
            errors,
            self.tests,
            self.seed,
        )
        .with_fault_model(fault_model)
        .with_replication(self.replicate.unwrap_or(false));
        if let Some(ci) = self.ci {
            if !ci.is_finite() || ci <= 0.0 || ci >= 0.5 {
                return Err("ci must be a half-width in (0, 0.5)".into());
            }
            let mut rule = StopRule::new(ci);
            if let Some(n) = self.min_tests {
                rule = rule.with_min_tests(n);
            }
            spec = spec.with_stop(rule);
        } else if self.min_tests.is_some() {
            return Err("min_tests needs ci".into());
        }
        Ok(spec)
    }

    /// The wire form of a harness spec (inverse of
    /// [`SubmitSpec::to_campaign`] for specs in the CLI vocabulary:
    /// default θ, default op mask, default z).
    pub fn of_campaign(spec: &CampaignSpec) -> SubmitSpec {
        SubmitSpec {
            app: spec.spec.app().name().to_string(),
            procs: spec.procs,
            errors: spec.errors.cli_name(),
            tests: spec.tests,
            seed: spec.seed,
            ci: spec.stop.map(|rule| rule.ci_halfwidth),
            min_tests: spec.stop.map(|rule| rule.min_tests),
            // Defaults read back as `None`, matching a submission that
            // never mentioned the fields (pre-fault-model clients).
            fault_model: (!spec.fault_model.is_default()).then(|| spec.fault_model.cli_name()),
            replicate: spec.replicate.then_some(true),
        }
    }
}

/// One client request (one JSON line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub v: u32,
    /// Command: `submit`, `status`, `watch`, `cancel`, `list`, or
    /// `shutdown`.
    pub cmd: String,
    /// The submission (`submit` only).
    pub spec: Option<SubmitSpec>,
    /// Target campaign id (`status`/`watch`/`cancel`).
    pub id: Option<u64>,
}

impl Request {
    fn cmd(cmd: &str) -> Request {
        Request {
            v: PROTOCOL_VERSION,
            cmd: cmd.to_string(),
            spec: None,
            id: None,
        }
    }

    /// Submit a campaign.
    pub fn submit(spec: SubmitSpec) -> Request {
        Request {
            spec: Some(spec),
            ..Request::cmd("submit")
        }
    }

    /// One-shot status of campaign `id`.
    pub fn status(id: u64) -> Request {
        Request {
            id: Some(id),
            ..Request::cmd("status")
        }
    }

    /// Stream progress of campaign `id` until it reaches a terminal
    /// state.
    pub fn watch(id: u64) -> Request {
        Request {
            id: Some(id),
            ..Request::cmd("watch")
        }
    }

    /// Cancel campaign `id`.
    pub fn cancel(id: u64) -> Request {
        Request {
            id: Some(id),
            ..Request::cmd("cancel")
        }
    }

    /// Status of every campaign the daemon knows.
    pub fn list() -> Request {
        Request::cmd("list")
    }

    /// Ask the daemon to drain and exit.
    pub fn shutdown() -> Request {
        Request::cmd("shutdown")
    }
}

/// One campaign's status line (the `status`/`list` payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignStatus {
    /// Daemon-assigned campaign id.
    pub id: u64,
    /// Application name.
    pub app: String,
    /// Rank count.
    pub procs: usize,
    /// Fault pattern, CLI spelling.
    pub errors: String,
    /// Trial ceiling.
    pub tests: usize,
    /// Campaign seed.
    pub seed: u64,
    /// `running`, `done`, or `cancelled`.
    pub state: String,
    /// Trials delivered (aggregated in order) so far.
    pub done: usize,
    /// Total trials planned (= `tests`).
    pub total: usize,
}

/// One daemon response (one JSON line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Protocol version.
    pub v: u32,
    /// Response kind: `submitted`, `status`, `progress`, `done`,
    /// `list`, `ok`, or `error`.
    pub kind: String,
    /// Campaign id the response concerns.
    pub id: Option<u64>,
    /// `submitted`: whether the submission joined an existing campaign.
    pub deduped: Option<bool>,
    /// `status`/`done`: the campaign's state string.
    pub state: Option<String>,
    /// `status`/`progress`: trials delivered so far.
    pub done: Option<usize>,
    /// `status`/`progress`: total trials planned.
    pub total: Option<usize>,
    /// `status`/`done` of a finished campaign: the final aggregates.
    pub summary: Option<CampaignSummary>,
    /// `list`: every campaign's status.
    pub campaigns: Option<Vec<CampaignStatus>>,
    /// `error`: what went wrong.
    pub message: Option<String>,
}

impl Response {
    fn kind(kind: &str) -> Response {
        Response {
            v: PROTOCOL_VERSION,
            kind: kind.to_string(),
            id: None,
            deduped: None,
            state: None,
            done: None,
            total: None,
            summary: None,
            campaigns: None,
            message: None,
        }
    }

    /// A submission was accepted (or deduplicated onto `id`).
    pub fn submitted(id: u64, deduped: bool) -> Response {
        Response {
            id: Some(id),
            deduped: Some(deduped),
            ..Response::kind("submitted")
        }
    }

    /// One campaign's status, with the final summary once terminal.
    pub fn status(status: CampaignStatus, summary: Option<CampaignSummary>) -> Response {
        Response {
            id: Some(status.id),
            state: Some(status.state.clone()),
            done: Some(status.done),
            total: Some(status.total),
            summary,
            ..Response::kind("status")
        }
    }

    /// A watch-stream progress tick.
    pub fn progress(id: u64, done: usize, total: usize) -> Response {
        Response {
            id: Some(id),
            done: Some(done),
            total: Some(total),
            ..Response::kind("progress")
        }
    }

    /// A watch-stream terminal line.
    pub fn done(id: u64, state: &str, summary: Option<CampaignSummary>) -> Response {
        Response {
            id: Some(id),
            state: Some(state.to_string()),
            summary,
            ..Response::kind("done")
        }
    }

    /// The full campaign listing.
    pub fn list(campaigns: Vec<CampaignStatus>) -> Response {
        Response {
            campaigns: Some(campaigns),
            ..Response::kind("list")
        }
    }

    /// A bare acknowledgement.
    pub fn ok() -> Response {
        Response::kind("ok")
    }

    /// A request-level failure.
    pub fn error(message: impl Into<String>) -> Response {
        Response {
            message: Some(message.into()),
            ..Response::kind("error")
        }
    }
}

/// Serialize `value` as one JSON line and flush it.
pub fn write_line<T: Serialize>(w: &mut impl std::io::Write, value: &T) -> std::io::Result<()> {
    let json = serde_json::to_string(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    w.write_all(json.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Parse one JSON line.
pub fn parse_line<T: Deserialize>(line: &str) -> Result<T, String> {
    serde_json::from_str(line.trim()).map_err(|e| format!("bad request: {e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SubmitSpec {
        SubmitSpec {
            app: "lu".into(),
            procs: 2,
            errors: "par".into(),
            tests: 10,
            seed: 7,
            ci: None,
            min_tests: None,
            fault_model: None,
            replicate: None,
        }
    }

    #[test]
    fn requests_round_trip_through_json() {
        for req in [
            Request::submit(spec()),
            Request::status(3),
            Request::watch(4),
            Request::cancel(5),
            Request::list(),
            Request::shutdown(),
        ] {
            let line = serde_json::to_string(&req).unwrap();
            let back: Request = parse_line(&line).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip_through_json() {
        let status = CampaignStatus {
            id: 9,
            app: "cg".into(),
            procs: 4,
            errors: "par".into(),
            tests: 50,
            seed: 1,
            state: "running".into(),
            done: 12,
            total: 50,
        };
        for resp in [
            Response::submitted(9, true),
            Response::status(status.clone(), None),
            Response::progress(9, 12, 50),
            Response::done(9, "done", None),
            Response::list(vec![status]),
            Response::ok(),
            Response::error("nope"),
        ] {
            let line = serde_json::to_string(&resp).unwrap();
            let back: Response = parse_line(&line).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn submit_spec_round_trips_through_campaign() {
        let mut wire = spec();
        wire.ci = Some(0.05);
        wire.min_tests = Some(20);
        let campaign = wire.to_campaign().unwrap();
        assert_eq!(campaign.procs, 2);
        assert_eq!(campaign.tests, 10);
        assert_eq!(campaign.stop.unwrap().min_tests, 20);
        assert_eq!(SubmitSpec::of_campaign(&campaign), wire);
    }

    #[test]
    fn submit_spec_validates() {
        let bad = |f: fn(&mut SubmitSpec)| {
            let mut s = spec();
            f(&mut s);
            s.to_campaign().unwrap_err()
        };
        assert!(bad(|s| s.app = "nope".into()).contains("unknown app"));
        assert!(bad(|s| s.procs = 0).contains("procs"));
        assert!(bad(|s| s.procs = 10_000).contains("at most"));
        assert!(bad(|s| s.tests = 0).contains("tests"));
        assert!(bad(|s| s.errors = "bogus".into()).contains("unknown"));
        assert!(bad(|s| s.ci = Some(0.9)).contains("half-width"));
        assert!(bad(|s| s.min_tests = Some(5)).contains("needs ci"));
        // ser:N requires a serial deployment, same as the CLI.
        assert!(bad(|s| s.errors = "ser:2".into()).contains("--scale 1"));
        // Fault-model combinations are rejected by the shared harness
        // validator, exactly like the CLI front end.
        assert!(bad(|s| s.fault_model = Some("bogus".into())).contains("unknown fault model"));
        assert!(bad(|s| {
            s.fault_model = Some("burst:3".into());
            s.errors = "unique".into();
        })
        .contains("errors=par"));
        assert!(bad(|s| {
            s.fault_model = Some("msg".into());
            s.procs = 1;
        })
        .contains(">= 2 ranks"));
        // An app with no parallel-unique computation cannot take
        // `unique` errors; the daemon says so instead of panicking.
        assert!(bad(|s| s.errors = "unique".into()).contains("lu at 2 rank(s) has none"));
    }

    #[test]
    fn submit_spec_carries_fault_model_and_replication() {
        let mut wire = spec();
        wire.fault_model = Some("due".into());
        wire.replicate = Some(true);
        let campaign = wire.to_campaign().unwrap();
        assert_eq!(campaign.fault_model, FaultModelSpec::Due);
        assert!(campaign.replicate);
        assert_eq!(SubmitSpec::of_campaign(&campaign), wire);

        // A baseline campaign reads back with both fields `None`, the
        // same shape a pre-fault-model client would have submitted.
        let baseline = SubmitSpec::of_campaign(&spec().to_campaign().unwrap());
        assert_eq!(baseline, spec());
    }

    #[test]
    fn missing_optional_fields_parse_as_none() {
        let line = r#"{"v":1,"cmd":"submit","spec":{"app":"cg","procs":1,"errors":"ser:1","tests":5,"seed":3}}"#;
        let req: Request = parse_line(line).unwrap();
        let spec = req.spec.unwrap();
        assert_eq!(spec.ci, None);
        assert_eq!(spec.min_tests, None);
        assert_eq!(spec.fault_model, None);
        assert_eq!(spec.replicate, None);
        assert!(spec.to_campaign().is_ok());
    }
}
