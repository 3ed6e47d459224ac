//! The four workloads: each is a registered scenario's measurement run on a
//! benchmark-chosen grid, with the benchmark seed folded into the base seed.

use churn_bench::scenarios::registry;
use churn_protocol::{RaesConfig, RaesModel};
use churn_sim::scenario::{AnyNet, CellSpec, Grid, GridPreset, NetSpec, Scenario};

/// One benchmark workload.
pub struct Workload {
    /// Workload name (the `--workload` argument).
    pub name: &'static str,
    /// Registered scenario whose measurement, net axis and fault axis run.
    pub source: &'static str,
    /// The source scenario's base seed; seed 0 runs exactly these cells.
    pub base_seed: u64,
    /// Network size of the benchmark grid.
    pub n: usize,
    /// Degree parameter of the benchmark grid.
    pub d: usize,
    /// Trials per grid point.
    pub trials: usize,
    /// FNV-1a digest of the checkpoint bytes at seed 0 (the bit-identity
    /// contract of the scenario engine).
    pub digest: u64,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "flood-sync",
        source: "raes-flooding",
        base_seed: 0xE11,
        n: 100_000,
        d: 8,
        trials: 1,
        digest: 0xc3a5_376b_4910_cf0c,
    },
    Workload {
        name: "flood-async",
        source: "async-flooding",
        base_seed: 0xE16,
        n: 16_384,
        d: 8,
        trials: 2,
        digest: 0x4f34_4bab_1eac_545b,
    },
    Workload {
        name: "raes-async-chaos",
        source: "crash-restart-raes",
        base_seed: 0xE17,
        n: 4_096,
        d: 8,
        trials: 6,
        digest: 0xcbc7_f47b_4020_7880,
    },
    Workload {
        name: "structure",
        source: "regen-expansion",
        base_seed: 0xE5,
        n: 4_096,
        d: 8,
        trials: 5,
        digest: 0x8d80_d6f3_73ba_0402,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The base seed for a benchmark seed: seed 0 keeps the source
    /// scenario's own base seed, so its cells coincide with recorded
    /// experiment cells.
    pub fn base_for(&self, seed: u64) -> u64 {
        if seed == 0 {
            self.base_seed
        } else {
            self.base_seed ^ churn_stochastic::rng::derive_seed(0x5EED, seed)
        }
    }

    /// The benchmark scenario: the registered scenario with its full grid
    /// replaced by the benchmark grid and its base seed by [`Self::base_for`].
    pub fn scenario(&self, seed: u64) -> Result<Scenario, String> {
        let registered = registry()
            .get(self.source)
            .cloned()
            .ok_or_else(|| format!("scenario {:?} is not registered", self.source))?;
        let scenario = registered
            .clone()
            .full_grid(Grid::new([self.n], [self.d], self.trials))
            .base_seed(self.base_seed);
        // The pinned base seed must still be the registered one: cell seeds
        // do not depend on the grid, so any cell of both scenarios agrees.
        let probe = scenario.cells(GridPreset::Full)[0];
        if registered.cell_seed(&probe) != scenario.cell_seed(&probe) {
            return Err(format!(
                "scenario {:?} no longer uses base seed {:#x}",
                self.source, self.base_seed
            ));
        }
        Ok(scenario.base_seed(self.base_for(seed)))
    }
}

/// Every cell of the benchmark grid with its seed, in record order.
pub fn cells(scenario: &Scenario) -> Vec<(CellSpec, u64)> {
    scenario
        .cells(GridPreset::Full)
        .into_iter()
        .map(|cell| (cell, scenario.cell_seed(&cell)))
        .collect()
}

/// Builds a cell's network through the public constructors, with the knobs
/// the scenario engine passes; not yet warm.
pub fn build_net(cell: &CellSpec, seed: u64) -> AnyNet {
    match cell.net {
        NetSpec::Baseline(kind) => AnyNet::Baseline(
            kind.build_with_victim(cell.n, cell.d, seed, cell.victim)
                .expect("registered scenarios are validated"),
        ),
        NetSpec::Raes(spec) => AnyNet::Raes(Box::new(
            RaesModel::new(
                RaesConfig::new(cell.n, cell.d)
                    .churn(spec.churn)
                    .saturation(spec.saturation)
                    .capacity_factor(spec.capacity)
                    .attempts_per_round(spec.attempts)
                    .adversary(spec.adversary)
                    .victim_policy(cell.victim)
                    .seed(seed),
            )
            .expect("registered scenarios are validated"),
        )),
        NetSpec::Static | NetSpec::P2p => unreachable!("no workload runs static or p2p nets"),
    }
}
