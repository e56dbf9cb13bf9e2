//! The aggregate digests: hashes of every campaign's outcome counts (and,
//! for predictions, the predicted rates' bits).
//!
//! Two are kept side by side. The *full* digest covers the specified
//! counts: `fi`, `prop` and `by_contam`, and the Eq. 8 rates. The *gated*
//! one leaves out a single thing: in which contamination bucket a Failure
//! trial of a multi-rank campaign lands. When a rank dies, how far the
//! taint travelled before the abort reached the other ranks depends on
//! thread scheduling (a known defect, README.md), so only that part of
//! the counts can differ between identical runs. The gated digest must
//! match across repetitions, traced and untraced, and the recorded
//! reference; a full-digest mismatch is reported, not failed.

use resilim_core::{FiResult, ModelInputs, OutcomeKind, PropagationProfile};

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn fi(&mut self, fi: &FiResult) {
        for c in fi.counts {
            self.word(c);
        }
        self.word(fi.masked);
    }

    /// One campaign's `fi`, `prop` and `by_contam` counts.
    pub fn campaign(&mut self, fi: &FiResult, prop: &PropagationProfile, by_contam: &[FiResult]) {
        self.fi(fi);
        self.word(prop.p as u64);
        for &c in &prop.counts {
            self.word(c);
        }
        for b in by_contam {
            self.fi(b);
        }
    }

    /// One campaign's counts without where its Failure trials landed
    /// among the contamination buckets: `fi` in full, and per bucket the
    /// Success and SDC counts, the masked count and the non-failure part
    /// of `prop`. A one-rank campaign has no such race and is hashed in
    /// full.
    pub fn campaign_gated(
        &mut self,
        fi: &FiResult,
        prop: &PropagationProfile,
        by_contam: &[FiResult],
    ) {
        if prop.p <= 1 {
            return self.campaign(fi, prop, by_contam);
        }
        self.fi(fi);
        self.word(prop.p as u64);
        for (b, &c) in prop.counts.iter().enumerate() {
            let failed = by_contam.get(b).map_or(0, |r| r.counts[FAILURE]);
            self.word(c.wrapping_sub(failed));
        }
        for b in by_contam {
            self.word(b.counts[OutcomeKind::Success.index()]);
            self.word(b.counts[OutcomeKind::Sdc.index()]);
            self.word(b.masked);
        }
    }

    /// The bits of predicted rates.
    pub fn rates(&mut self, rates: &[f64; 3]) {
        for r in rates {
            self.word(r.to_bits());
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

const FAILURE: usize = OutcomeKind::Failure.index();

/// The gated and the full digest of one repetition.
#[derive(Debug, Default)]
pub struct Digests {
    gate: Digest,
    full: Digest,
}

impl Digests {
    pub fn campaign(&mut self, fi: &FiResult, prop: &PropagationProfile, by_contam: &[FiResult]) {
        self.gate.campaign_gated(fi, prop, by_contam);
        self.full.campaign(fi, prop, by_contam);
    }

    /// The rates Eq. 8 predicts from `pooled_failures(inputs)` (gated)
    /// and from `inputs` (full).
    pub fn rates(&mut self, gated: &[f64; 3], full: &[f64; 3]) {
        self.gate.rates(gated);
        self.full.rates(full);
    }

    /// `(gated, full)` in hex.
    pub fn hex(&self) -> (String, String) {
        (self.gate.hex(), self.full.hex())
    }
}

/// `inputs` with every Failure trial of the small-scale campaign moved to
/// the one-rank bucket, so that Eq. 8 predicts from counts that do not
/// depend on abort timing. The gated digest holds these rates.
pub fn pooled_failures(inputs: &ModelInputs) -> ModelInputs {
    let mut pooled = inputs.clone();
    let mut moved = 0;
    for (b, bucket) in pooled.small_by_contam.iter_mut().enumerate() {
        if let Some(r) = bucket {
            let failed = r.counts[FAILURE];
            r.counts[FAILURE] = 0;
            pooled.small_prop.counts[b] -= failed;
            moved += failed;
            if r.total() == 0 {
                *bucket = None;
            }
        }
    }
    if moved > 0 {
        let first = pooled.small_by_contam[0].get_or_insert_with(FiResult::new);
        first.counts[FAILURE] += moved;
        pooled.small_prop.counts[0] += moved;
    }
    pooled
}

/// The reference digests recorded with the benchmark: one
/// `<workload> <seed> <digest>` line each.
const REFERENCE: &str = include_str!("../reference-digests.txt");

/// The recorded digest for `(workload, seed)`, if one was recorded.
pub fn reference(workload: &str, seed: u64) -> Option<&'static str> {
    reference_in(REFERENCE, workload, seed)
}

fn reference_in<'a>(table: &'a str, workload: &str, seed: u64) -> Option<&'a str> {
    table.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some(w), Some(s), Some(d)) if w == workload && s.parse() == Ok(seed) => Some(d),
            _ => None,
        }
    })
}

/// Compare a run's digest with a recorded reference; `Err` explains a
/// mismatch.
pub fn check(workload: &str, seed: u64, got: &str, expected: Option<&str>) -> Result<(), String> {
    match expected {
        Some(want) if want != got => Err(format!(
            "{workload} seed {seed}: digest {got} differs from the recorded reference {want}"
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perturbed_reference_fails_the_check() {
        let table = "predict64 2018 00000000000000aa\ntruth64 2018 00000000000000bb\n";
        let want = reference_in(table, "truth64", 2018);
        assert_eq!(want, Some("00000000000000bb"));
        assert!(check("truth64", 2018, "00000000000000bb", want).is_ok());
        // One flipped digit in the recorded reference must fail.
        let perturbed = table.replace("bb", "bc");
        let want = reference_in(&perturbed, "truth64", 2018);
        assert!(check("truth64", 2018, "00000000000000bb", want).is_err());
        // Another seed has no reference and is not compared.
        assert_eq!(reference_in(table, "truth64", 7), None);
    }

    #[test]
    fn digest_sees_every_count() {
        let fi = FiResult {
            counts: [3, 1, 0],
            masked: 2,
        };
        let prop = PropagationProfile {
            p: 2,
            counts: vec![3, 1],
        };
        let mut a = Digest::default();
        a.campaign(&fi, &prop, &[fi]);
        let mut bumped = prop.clone();
        bumped.counts[1] += 1;
        let mut b = Digest::default();
        b.campaign(&fi, &bumped, &[fi]);
        assert_ne!(a.hex(), b.hex());
        // Moving a Failure trial to another contamination bucket of a
        // multi-rank campaign changes the full digest only; moving a
        // Success trial changes both.
        let fail = FiResult {
            counts: [0, 0, 1],
            masked: 0,
        };
        let ok = FiResult {
            counts: [1, 0, 0],
            masked: 1,
        };
        let hex = |by_contam: &[FiResult]| {
            let prop = PropagationProfile {
                p: 2,
                counts: by_contam.iter().map(FiResult::total).collect(),
            };
            let mut d = Digests::default();
            d.campaign(&fi, &prop, by_contam);
            d.hex()
        };
        let base = hex(&[fail, ok]);
        let failure_moved = hex(&[
            FiResult::new(),
            FiResult {
                counts: [1, 0, 1],
                masked: 1,
            },
        ]);
        assert_eq!(failure_moved.0, base.0);
        assert_ne!(failure_moved.1, base.1);
        let success_moved = hex(&[
            FiResult {
                counts: [1, 0, 1],
                masked: 1,
            },
            FiResult::new(),
        ]);
        assert_ne!(success_moved.0, base.0);
        // Every recorded reference parses.
        for line in REFERENCE.lines().filter(|l| !l.trim().is_empty()) {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 3, "bad reference line {line:?}");
            assert!(f[1].parse::<u64>().is_ok() && f[2].len() == 16);
        }
    }

    #[test]
    fn pooled_failures_ignore_the_failure_buckets() {
        let inputs = |by_contam: [FiResult; 2]| ModelInputs {
            p: 8,
            s: 2,
            strategy: Default::default(),
            serial: Default::default(),
            small_prop: PropagationProfile {
                p: 2,
                counts: by_contam.iter().map(FiResult::total).collect(),
            },
            small_by_contam: by_contam
                .iter()
                .map(|r| (r.total() > 0).then_some(*r))
                .collect(),
            unique_share: 0.0,
            fi_unique: None,
            alpha_threshold: 0.2,
        };
        let a = pooled_failures(&inputs([
            FiResult {
                counts: [3, 1, 2],
                masked: 1,
            },
            FiResult {
                counts: [0, 2, 0],
                masked: 0,
            },
        ]));
        let b = pooled_failures(&inputs([
            FiResult {
                counts: [3, 1, 0],
                masked: 1,
            },
            FiResult {
                counts: [0, 2, 2],
                masked: 0,
            },
        ]));
        assert_eq!(a.small_prop, b.small_prop);
        assert_eq!(a.small_by_contam, b.small_by_contam);
        assert_eq!(a.small_prop.counts, vec![6, 2]);
    }
}
