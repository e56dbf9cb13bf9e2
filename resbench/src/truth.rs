//! `truth64`: the measured ground truth of Figure 5 — one-error
//! `OneParallel` campaigns at p = 64 for all six applications, equal
//! trials each, `--jobs auto`, no store.

use crate::campaigns::{run_plain, run_traced};
use crate::digest::Digests;
use crate::tracer::{timed, Tracer};
use crate::{derive_seed, Clock, Rep, Scale};
use resilim_apps::App;
use resilim_harness::{CampaignRunner, CampaignSpec, ErrorSpec};
use std::path::Path;
use std::time::Instant;

pub const P: usize = 64;

fn tests(scale: Scale) -> usize {
    match scale {
        Scale::Full => 12,
        Scale::Tiny => 1,
    }
}

pub fn rep(scale: Scale, seed: u64, tr: Option<&Tracer>, _dir: &Path, setup_only: bool) -> Rep {
    let mut rep = Rep::default();
    let setup = Instant::now();
    let runner = CampaignRunner::new().with_auto_parallelism();
    for app in App::ALL {
        timed(tr, "golden.get_masked", || {
            runner.golden().get(&app.default_spec(), P)
        });
    }
    rep.setup = setup.elapsed();
    if setup_only {
        return rep;
    }

    let clock = Clock::start(tr);
    let mut digest = Digests::default();
    for app in App::ALL {
        let spec = CampaignSpec::new(
            app.default_spec(),
            P,
            ErrorSpec::OneParallel,
            tests(scale),
            derive_seed(seed, 2),
        );
        let ran = match tr {
            None => Some(run_plain(&runner, &spec)),
            Some(tr) => rep.op(run_traced(&runner, &spec, None, tr)),
        };
        if let Some(ran) = ran {
            digest.campaign(&ran.fi, &ran.prop, &ran.by_contam);
            rep.trials += ran.trials;
            rep.campaign_ms.push(ran.ms);
        }
    }
    if tr.is_none() {
        rep.attempted += App::ALL.len() as u64;
    }
    (rep.wall, rep.cpu_s) = clock.stop(tr);
    (rep.digest, rep.full_digest) = digest.hex();
    rep
}
