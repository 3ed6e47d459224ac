//! Sharded-vs-sequential flooding determinism over every model kind.
//!
//! The contract of [`FloodingProcess`]'s sharded push/pull sweep is that it
//! is a pure wall-clock optimisation: for every dynamic network and every
//! thread budget, it produces exactly the informed set (and per-round
//! statistics) of the sequential sweep. This suite pins that contract over
//! all five `ModelKind`s — the four paper baselines plus the RAES protocol
//! model — and over RAES under Poisson churn and the p2p overlay, at thread
//! counts 1, 2, 4 and 8, with the sequential cutoff disabled so the sharded
//! code path genuinely runs. The reference is the same engine with the
//! cutoff at `usize::MAX`, i.e. the sequential sweep at every size.

use dynamic_churn_networks::core::flooding::{
    run_flooding, FloodingConfig, FloodingProcess, FloodingSource, FrontierDirection,
};
use dynamic_churn_networks::core::{DynamicNetwork, ModelKind};
use dynamic_churn_networks::p2p::{P2pConfig, P2pNetwork};
use dynamic_churn_networks::protocol::{ChurnDriver, RaesConfig, RaesModel};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The paper's four baselines, the protocol model under both churn drivers
/// and the p2p overlay.
const ALL_NETWORKS: [&str; 7] = ["SDG", "SDGR", "PDG", "PDGR", "RAES", "RAES/poisson", "P2P"];

fn build(label: &str, n: usize, d: usize, seed: u64) -> Box<dyn DynamicNetwork> {
    match label {
        "RAES" => Box::new(
            RaesModel::new(RaesConfig::new(n, d).seed(seed)).expect("valid RAES parameters"),
        ),
        "RAES/poisson" => Box::new(
            RaesModel::new(RaesConfig::new(n, d).churn(ChurnDriver::Poisson).seed(seed))
                .expect("valid RAES parameters"),
        ),
        "P2P" => Box::new(
            P2pNetwork::new(P2pConfig::new(n).target_outbound(d).seed(seed))
                .expect("valid overlay parameters"),
        ),
        kind => Box::new(
            kind.parse::<ModelKind>()
                .expect("a model kind")
                .build(n, d, seed)
                .expect("valid parameters"),
        ),
    }
}

/// Lock-step comparison: two identically seeded models, one driven by the
/// sequential sweep, one by the sharded sweep with the given thread budget.
/// Every round must agree on the stats *and* on the informed identifier set.
fn assert_engines_agree(kind: &str, threads: usize, n: usize, d: usize, seed: u64) {
    let mut seq_model = build(kind, n, d, seed);
    let mut par_model = build(kind, n, d, seed);
    seq_model.warm_up();
    par_model.warm_up();

    let mut seq = FloodingProcess::start(seq_model.as_mut(), FloodingSource::NextToJoin, 1)
        .with_sequential_cutoff(usize::MAX);
    let mut par = FloodingProcess::start(par_model.as_mut(), FloodingSource::NextToJoin, threads)
        .with_sequential_cutoff(0);
    assert_eq!(seq.source(), par.source(), "{kind}/{threads}t: same source");

    let mut saw_parallel_direction = false;
    for round in 0..80 {
        let seq_stats = seq.step(seq_model.as_mut());
        let par_stats = par.step(par_model.as_mut());
        saw_parallel_direction |= par.last_direction() != FrontierDirection::Sequential;
        assert_eq!(
            seq_stats, par_stats,
            "{kind}/{threads}t: round {round} stats diverged"
        );
        assert_eq!(
            seq.informed(),
            par.informed(),
            "{kind}/{threads}t: round {round} informed sets diverged"
        );
        if seq_stats.complete {
            break;
        }
    }
    if threads > 1 {
        assert!(
            saw_parallel_direction,
            "{kind}/{threads}t: cutoff 0 must exercise the sharded path"
        );
    }
}

#[test]
fn parallel_engine_matches_sequential_on_all_five_model_kinds() {
    for kind in ALL_NETWORKS {
        for threads in THREAD_COUNTS {
            // Regenerating kinds complete; static kinds exercise die-out and
            // partial coverage. Both trajectories must agree either way.
            assert_engines_agree(kind, threads, 256, 6, 0xF100D + threads as u64);
        }
    }
}

#[test]
fn run_flooding_records_are_identical_across_engines_and_thread_counts() {
    // (network, n, d): the small inputs run every network kind; the two
    // `n = 20 000` inputs sit above the default cutoff, so `run_flooding`
    // takes the sharded push/pull sweep even at one thread.
    let inputs = ALL_NETWORKS
        .iter()
        .map(|&kind| (kind, 200, 5))
        .chain([("SDGR", 20_000, 8), ("PDG", 20_000, 8)]);
    for (kind, n, d) in inputs {
        let config = FloodingConfig::with_max_rounds(120);
        let records = THREAD_COUNTS.map(|threads| {
            let mut model = build(kind, n, d, 7);
            model.warm_up();
            run_flooding(model.as_mut(), FloodingSource::NextToJoin, &config, threads)
        });
        for (record, threads) in records.iter().zip(THREAD_COUNTS) {
            assert_eq!(
                &records[0], record,
                "{kind}/n={n}/{threads}t: full flooding record diverged"
            );
        }
        // The run loop derives the outcome from the per-round stats, so the
        // sequential sweep must reproduce those, round for round.
        let mut model = build(kind, n, d, 7);
        model.warm_up();
        let mut reference = FloodingProcess::start(model.as_mut(), FloodingSource::NextToJoin, 1)
            .with_sequential_cutoff(usize::MAX);
        assert_eq!(records[0].source, reference.source(), "{kind}/n={n}");
        for stats in &records[0].rounds {
            assert_eq!(
                stats,
                &reference.step(model.as_mut()),
                "{kind}/n={n}: round {} diverged from the sequential sweep",
                stats.round
            );
        }
    }
}
