//! Pins the output of the candidate-set expansion estimator on warm model
//! snapshots, bit for bit.
//!
//! Each digest covers, for one snapshot, every estimate at both candidate
//! budgets (`default` and `fast`) over three size ranges — the full range
//! (Theorems 3.15 / 4.16), the large-set range (Lemmas 3.6 / 4.11) and a
//! narrowed `[3, 40]` — as the witness size, boundary, ratio bits, family
//! and the number of candidates evaluated, plus the spectral ordering. The
//! estimator's evaluation strategy may change; the random draws it makes,
//! the order it evaluates candidates in and the floating-point results it
//! computes may not.

use churn_core::expansion::SizeRange;
use churn_core::{DynamicNetwork, ModelKind, Snapshot};
use churn_graph::expansion::{
    spectral_order, CandidateFamily, ExpansionConfig, ExpansionEstimator,
};
use churn_stochastic::rng::seeded_rng;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn family_code(family: CandidateFamily) -> u64 {
    match family {
        CandidateFamily::Component => 1,
        CandidateFamily::Singleton => 2,
        CandidateFamily::BfsBall => 3,
        CandidateFamily::SpectralSweep => 4,
        CandidateFamily::RandomSet => 5,
    }
}

/// A warm snapshot of `kind` at size `n` and degree `d`.
fn warm_snapshot(kind: ModelKind, n: usize, d: usize) -> (Snapshot, usize, bool) {
    let mut model = kind.build(n, d, 23).unwrap();
    model.warm_up();
    (
        model.snapshot(),
        model.degree_parameter(),
        model.has_streaming_churn(),
    )
}

fn digest(kind: ModelKind, n: usize, d: usize) -> u64 {
    let (snapshot, d, streaming) = warm_snapshot(kind, n, d);
    let mut h = Fnv::new();
    h.word(snapshot.len() as u64);
    let ranges = [
        SizeRange::Full,
        SizeRange::LargeSets,
        SizeRange::Custom { min: 3, max: 40 },
    ];
    let configs = [ExpansionConfig::default(), ExpansionConfig::fast()];
    for (c, config) in configs.iter().enumerate() {
        for (r, range) in ranges.iter().enumerate() {
            let (min, max) = range.bounds_for(snapshot.len(), d, streaming);
            let mut rng = seeded_rng(1000 + 10 * c as u64 + r as u64);
            let estimate =
                ExpansionEstimator::new(config.clone()).estimate(&snapshot, min, max, &mut rng);
            h.word(estimate.candidates_evaluated as u64);
            match estimate.worst {
                Some(w) => {
                    h.word(w.size as u64);
                    h.word(w.boundary as u64);
                    h.word(w.ratio.to_bits());
                    h.word(family_code(w.family));
                }
                None => h.word(u64::MAX),
            }
        }
        let mut rng = seeded_rng(2000 + c as u64);
        for v in spectral_order(&snapshot, config.spectral_iterations, &mut rng) {
            h.word(v as u64);
        }
    }
    h.0
}

/// Digests recorded with the push-per-vertex boundary sweep evaluating every
/// candidate family.
#[test]
fn expansion_estimates_are_pinned() {
    let pinned = [
        ("SDG", 257, 4, 0x3282_cae0_5ac0_09fe_u64),
        ("SDGR", 257, 4, 0x8e27_bdf3_93dd_f0ed),
        ("PDG", 257, 4, 0x2f26_3776_7030_2255),
        ("PDGR", 257, 4, 0x99ff_639f_6a18_cb87),
        ("SDG", 4096, 4, 0x2aee_8bec_723f_40b3),
        ("SDGR", 4096, 4, 0x1c21_c8a4_a2bd_dfb5),
        ("PDG", 4096, 4, 0x5805_f1eb_6557_031e),
        ("PDGR", 4096, 4, 0x0bbb_86a7_75c9_c436),
        ("SDG", 5000, 4, 0xe566_4f60_9357_9e05),
        ("SDGR", 5000, 4, 0x0fc6_fd64_6e6b_e17e),
        ("PDG", 5000, 4, 0x9df1_59a0_218f_c107),
        ("PDGR", 5000, 4, 0xd2fa_edb4_ddad_2cd0),
        // d = 2 without regeneration: many small components.
        ("SDG", 20_000, 2, 0x1d90_4235_aa1f_e7bd),
    ];
    let actual: Vec<(&str, usize, usize, u64)> = pinned
        .iter()
        .map(|&(label, n, d, _)| (label, n, d, digest(label.parse().unwrap(), n, d)))
        .collect();
    assert_eq!(actual, pinned, "expansion estimates moved");
}
