//! Churn-resilience study: how does the fraction of nodes a broadcast reaches
//! degrade (or not) as the out-degree `d` shrinks, with and without edge
//! regeneration?
//!
//! This is the workload the paper's introduction motivates: a peer-to-peer
//! system designer choosing between "connect once at join time" (SDG/PDG) and
//! "repair connections when neighbours leave" (SDGR/PDGR), and asking how many
//! connections per node are needed for broadcasts to keep reaching everyone.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example churn_resilience
//! ```

use dynamic_churn_networks::core::ModelKind;
use dynamic_churn_networks::sim::scenario::{
    run_scenario, FloodingSpec, Grid, Measurement, NetSpec, RoundBudget, RunOptions, Scenario,
};
use dynamic_churn_networks::sim::{Aggregate, Table};

fn main() {
    let n = 512;
    let trials = 8;
    let degrees = [1, 2, 3, 4, 6, 8, 12];
    println!("Churn resilience: broadcast coverage vs out-degree (n = {n}, {trials} trials)\n");

    let scenario = Scenario::new(
        "churn-resilience",
        "Broadcast coverage and isolation vs degree",
        Measurement::Flooding(FloodingSpec {
            budget: RoundBudget::Log2Times(6),
            record_isolation: true,
        }),
    )
    .nets([
        NetSpec::Baseline(ModelKind::Sdg),
        NetSpec::Baseline(ModelKind::Sdgr),
    ])
    .full_grid(Grid::new([n], degrees, trials))
    .base_seed(99);

    // The engine checkpoints every cell to `<dir>/churn-resilience.jsonl`;
    // a scratch directory keeps the example from touching the repository.
    let dir = std::env::temp_dir().join(format!("churn-resilience-{}", std::process::id()));
    let opts = RunOptions {
        dir: dir.clone(),
        ..RunOptions::default()
    };
    let records = run_scenario(&scenario, &opts)
        .expect("scenario runs")
        .records;
    std::fs::remove_dir_all(&dir).ok();

    let mut table = Table::new(
        scenario.title(),
        [
            "model",
            "d",
            "mean coverage",
            "completed runs",
            "mean isolated fraction",
        ],
    );
    for net in scenario.net_axis() {
        for d in degrees {
            let cells: Vec<_> = records
                .iter()
                .filter(|r| r.net == net.label() && r.d == d)
                .collect();
            let column = |metric: &str| -> Vec<f64> {
                cells.iter().filter_map(|r| r.metric(metric)).collect()
            };
            let coverage = Aggregate::from_values(&column("final_fraction"));
            let isolated = Aggregate::from_values(&column("isolated_fraction"));
            let completed = column("completed").iter().filter(|&&c| c == 1.0).count();
            table.push_row([
                net.label(),
                d.to_string(),
                coverage.display_with_ci(3),
                format!("{completed}/{}", cells.len()),
                format!("{:.4}", isolated.mean),
            ]);
        }
    }
    table.print();

    println!(
        "Reading guide: without regeneration (SDG) coverage saturates below 1 because a\n\
         constant fraction of nodes is isolated (Lemma 3.5), and the gap closes exponentially\n\
         in d (the 1 - e^{{-Omega(d)}} of Theorem 3.8). With regeneration (SDGR) even d = 3-4\n\
         already gives complete broadcasts round after round (Theorem 3.16)."
    );
}
