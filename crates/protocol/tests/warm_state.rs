//! Pins the warm (post-`warm_up`) state of every churn model at a size
//! where the slab no longer fits in the private caches, and checks that
//! birth times follow slab cells through recycling.
//!
//! The digests cover everything the churn hot path writes — member order,
//! identifiers, out-slot targets, in-request counts, birth times, the clock
//! and the churn-step counter — so a change to how graph mutations or birth
//! times are stored that shifts a single random draw, or reorders a single
//! write with an observable effect, fails here.

use churn_core::{ChurnSummary, DynamicNetwork, ModelKind};
use churn_graph::NodeId;
use churn_protocol::{ChurnDriver, RaesConfig, RaesModel};

const N: usize = 20_000;
const D: usize = 8;
const SEED: u64 = 11;

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

fn digest(model: &dyn DynamicNetwork) -> u64 {
    let graph = model.graph();
    let mut h = Fnv::new();
    h.word(graph.len() as u64);
    for &idx in graph.member_indices() {
        let id = graph.id_at(idx).expect("member cells are occupied");
        h.word(u64::from(idx));
        h.word(id.raw());
        for target in graph.out_slot_targets_at(idx) {
            h.word(target.map_or(u64::MAX, u64::from));
        }
        h.word(graph.in_request_count_at(idx).expect("member") as u64);
        h.word(model.birth_time(id).expect("alive node").to_bits());
    }
    h.word(model.time().to_bits());
    h.word(model.churn_steps());
    h.0
}

fn warm(label: &str) -> Box<dyn DynamicNetwork> {
    let mut model: Box<dyn DynamicNetwork> = match label {
        "RAES" => Box::new(RaesModel::new(RaesConfig::new(N, D).seed(SEED)).unwrap()),
        "RAES/poisson" => Box::new(
            RaesModel::new(RaesConfig::new(N, D).churn(ChurnDriver::Poisson).seed(SEED)).unwrap(),
        ),
        kind => Box::new(
            kind.parse::<ModelKind>()
                .unwrap()
                .build(N, D, SEED)
                .unwrap(),
        ),
    };
    model.warm_up();
    model
}

/// Digests recorded with per-cell graph mutations and hash-mapped birth
/// times. The churn hot path's storage and memory-access order may change;
/// the warm state it produces may not, by a single bit.
#[test]
fn warm_state_digests_are_pinned() {
    let pinned = [
        ("SDG", 0x8499_da8c_b847_b42a_u64),
        ("SDGR", 0x02d8_361e_523e_9272),
        ("PDG", 0x17e3_f3c8_9b65_8ea1),
        ("PDGR", 0x3845_4809_f7c3_62d5),
        ("RAES", 0x2b5f_a601_d667_767f),
        ("RAES/poisson", 0x7908_5158_a78a_a303),
    ];
    let actual: Vec<(&str, u64)> = pinned
        .iter()
        .map(|&(label, _)| (label, digest(warm(label).as_ref())))
        .collect();
    assert_eq!(actual, pinned, "warm-state digests moved");
}

/// Steps a warm model and checks the birth-time contract across every death
/// and every recycled slab cell; returns how many recycled cells were seen.
fn check_birth_times_through_recycling(model: &mut dyn DynamicNetwork, steps: usize) -> usize {
    let mut recycled = 0;
    for _ in 0..steps {
        let before = model.time();
        // Cell → (occupant, birth time) before the step.
        let cells: Vec<(u32, NodeId, f64)> = model
            .graph()
            .member_indices()
            .iter()
            .map(|&idx| {
                let id = model.graph().id_at(idx).unwrap();
                (idx, id, model.birth_time(id).unwrap())
            })
            .collect();
        let summary: ChurnSummary = model.advance_time_unit();
        let now = model.time();
        for &dead in &summary.deaths {
            assert_eq!(
                model.birth_time(dead),
                None,
                "dead {dead} keeps a birth time"
            );
        }
        for (idx, old_id, old_birth) in cells {
            let Some(new_id) = model.graph().id_at(idx) else {
                continue;
            };
            if new_id == old_id {
                assert_eq!(model.birth_time(new_id), Some(old_birth));
                continue;
            }
            recycled += 1;
            let birth = model.birth_time(new_id).expect("new occupant is alive");
            assert!(
                birth > before && birth <= now,
                "recycled cell {idx} reports {birth}, outside ({before}, {now}]"
            );
            assert_ne!(birth.to_bits(), old_birth.to_bits());
        }
        let graph = model.graph();
        for &idx in graph.member_indices() {
            let birth = model.birth_time(graph.id_at(idx).unwrap()).unwrap();
            assert!(birth <= now, "birth time {birth} after model time {now}");
        }
    }
    recycled
}

#[test]
fn birth_times_survive_cell_recycling() {
    const SMALL: usize = 300;
    let mut models: Vec<(&str, Box<dyn DynamicNetwork>)> = vec![
        ("PDG", Box::new(ModelKind::Pdg.build(SMALL, D, 3).unwrap())),
        (
            "PDGR",
            Box::new(ModelKind::Pdgr.build(SMALL, D, 4).unwrap()),
        ),
        (
            "RAES/poisson",
            Box::new(
                RaesModel::new(
                    RaesConfig::new(SMALL, D)
                        .churn(ChurnDriver::Poisson)
                        .seed(5),
                )
                .unwrap(),
            ),
        ),
        (
            "RAES/streaming",
            Box::new(RaesModel::new(RaesConfig::new(SMALL, D).seed(6)).unwrap()),
        ),
    ];
    for (label, model) in &mut models {
        model.warm_up();
        let recycled = check_birth_times_through_recycling(model.as_mut(), 200);
        assert!(
            recycled > 50,
            "{label}: only {recycled} recycled cells seen"
        );
    }
}
