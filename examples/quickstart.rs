//! Quickstart: build each of the paper's four dynamic network models, run the
//! flooding process over them, and print Table-1-style side-by-side results.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dynamic_churn_networks::core::flooding::{run_flooding, FloodingConfig, FloodingSource};
use dynamic_churn_networks::core::{DynamicNetwork, ModelKind};
use dynamic_churn_networks::sim::Table;

fn main() {
    let n = 1_024;
    let d = 8;
    let seed = 2_026;

    println!("Dynamic random networks with node churn — quickstart");
    println!("n = {n}, d = {d}\n");

    let mut table = Table::new(
        "Flooding over the four models (Table 1 of the paper, qualitatively)",
        [
            "model",
            "edge regeneration",
            "informed fraction",
            "rounds simulated",
            "outcome",
        ],
    );

    for kind in ModelKind::ALL {
        let mut model = kind
            .build(n, d, seed)
            .expect("the quickstart parameters are valid");
        model.warm_up();

        let record = run_flooding(
            &mut model,
            FloodingSource::NextToJoin,
            &FloodingConfig::with_max_rounds(10 * (n as f64).log2().ceil() as u64),
            1,
        );

        table.push_row([
            kind.label().to_string(),
            if kind.edge_policy().regenerates() {
                "yes".to_string()
            } else {
                "no".to_string()
            },
            format!("{:.3}", record.final_fraction()),
            record.rounds_elapsed().to_string(),
            match &record.outcome {
                o if o.is_complete() => format!("completed in {} rounds", o.rounds().unwrap()),
                o if o.is_died_out() => "died out".to_string(),
                _ => "partial".to_string(),
            },
        ]);
    }

    table.print();
    println!(
        "Expected picture: the regeneration models (SDGR, PDGR) complete in O(log n) rounds,\n\
         the models without regeneration (SDG, PDG) inform most — but not all — nodes."
    );
}
