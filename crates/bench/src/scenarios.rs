//! The scenario registry: every experiment of this workspace as a
//! declarative `churn_sim::scenario::Scenario`.
//!
//! Each experiment is a ~15-line spec registered here and executed through
//! the single `exp` runner (`exp run <name>|--all [--smoke] [--resume]`).
//!
//! Grids: the **full** preset carries each experiment's laptop-scale
//! configuration (including the `n = 10⁶` rows, registered as separate
//! `*-1m` scenarios so they can be run — and resumed — independently); the
//! **smoke** preset is a tiny-`n` grid the whole registry finishes in
//! seconds, run by CI on every PR.

use churn_core::{ModelKind, VictimPolicy};
use churn_event::{BandwidthModel, CrashRestart, LatencyModel, LossModel, PartitionWindow};
use churn_protocol::{AdversaryModel, AttackKind, ChurnDriver, SaturationPolicy};
use churn_sim::scenario::{
    load_cell_records, load_load_records, load_series_records, run_scenario, scenario_load_path,
    scenario_output_path, scenario_series_path, AsyncFloodingSpec, AsyncRaesSpec, ExpansionSpec,
    FaultSpec, FloodingSpec, Grid, Measurement, NetSpec, RaesNet, RetryPolicy, RoundBudget,
    RunOptions, Scenario, ScenarioOutcome, ScenarioRegistry,
};

/// Builds the full registry. Scenario names are stable — they are the
/// checkpoint file names under `results/`.
#[must_use]
pub fn registry() -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    let baselines = [
        NetSpec::Baseline(ModelKind::Sdg),
        NetSpec::Baseline(ModelKind::Pdg),
        NetSpec::Baseline(ModelKind::Sdgr),
        NetSpec::Baseline(ModelKind::Pdgr),
    ];

    // E1 — isolated nodes without edge regeneration (Lemmas 3.5 / 4.10).
    registry.register(
        Scenario::new(
            "isolated-nodes",
            "E1 — isolated nodes without edge regeneration",
            Measurement::Isolation,
        )
        .reproduces("Table 1 (isolated-nodes cell); Lemmas 3.5 and 4.10")
        .nets(baselines)
        .full_grid(Grid::new([1_024, 4_096], [1, 2, 3, 4, 6], 10))
        .smoke_grid(Grid::new([96], [2], 2))
        .base_seed(0xE1),
    );
    registry.register(
        Scenario::new(
            "isolated-nodes-1m",
            "E1 — isolated nodes at n = 10^6 (no-regeneration models)",
            Measurement::Isolation,
        )
        .reproduces("Lemmas 3.5 / 4.10 at scale (churn-observe incremental census)")
        .nets([
            NetSpec::Baseline(ModelKind::Sdg),
            NetSpec::Baseline(ModelKind::Pdg),
        ])
        .full_grid(Grid::new([1_000_000], [2, 4], 1))
        .smoke_grid(Grid::new([128], [2], 1))
        .base_seed(0xE1),
    );

    // E2 — large-subset expansion without regeneration (Lemmas 3.6 / 4.11).
    registry.register(
        Scenario::new(
            "large-set-expansion",
            "E2 — large-subset expansion without edge regeneration",
            Measurement::Expansion(ExpansionSpec {
                initial_window_div: 16,
                samples: 1,
                interval_div: 16,
                large_sets: true,
                fast: false,
            }),
        )
        .reproduces("Table 1 (large-set expansion); Lemmas 3.6 and 4.11")
        .nets([
            NetSpec::Baseline(ModelKind::Sdg),
            NetSpec::Baseline(ModelKind::Pdg),
        ])
        .full_grid(Grid::new([1_024, 4_096], [20, 24, 32], 5))
        .smoke_grid(Grid::new([96], [8], 2))
        .base_seed(0xE2),
    );
    registry.register(
        Scenario::new(
            "large-set-expansion-1m",
            "E2 — large-subset expansion at n = 10^6",
            Measurement::Expansion(ExpansionSpec {
                initial_window_div: 16,
                samples: 1,
                interval_div: 16,
                large_sets: true,
                fast: true,
            }),
        )
        .reproduces("Lemmas 3.6 / 4.11 at scale (incremental boundary sweep)")
        .nets([
            NetSpec::Baseline(ModelKind::Sdg),
            NetSpec::Baseline(ModelKind::Pdg),
        ])
        .full_grid(Grid::new([1_000_000], [20], 1))
        .smoke_grid(Grid::new([128], [8], 1))
        .base_seed(0xE2),
    );

    // E3 — flooding failure without regeneration (Theorems 3.7 / 4.12).
    registry.register(
        Scenario::new(
            "flooding-failure",
            "E3 — flooding failure without edge regeneration",
            Measurement::ParallelFlooding(FloodingSpec {
                budget: RoundBudget::Log2Times(6),
                record_isolation: false,
            }),
        )
        .reproduces("Table 1 (flooding negative results); Theorems 3.7 and 4.12")
        .nets([
            NetSpec::Baseline(ModelKind::Sdg),
            NetSpec::Baseline(ModelKind::Pdg),
        ])
        .full_grid(Grid::new([1_024], [1, 2, 3, 4], 200))
        .smoke_grid(Grid::new([256], [1, 2], 3))
        .base_seed(0xE3),
    );
    registry.register(
        Scenario::new(
            "flooding-failure-1m",
            "E3 — no completion within O(log n) rounds at n = 10^6",
            Measurement::ParallelFlooding(FloodingSpec {
                budget: RoundBudget::Log2Times(6),
                record_isolation: false,
            }),
        )
        .reproduces("Theorems 3.7 / 4.12 at scale")
        .nets([
            NetSpec::Baseline(ModelKind::Sdg),
            NetSpec::Baseline(ModelKind::Pdg),
        ])
        .full_grid(Grid::new([1_000_000], [1, 4], 6))
        .smoke_grid(Grid::new([256], [1], 2))
        .base_seed(0xE3),
    );

    // E4 — partial flooding (Theorems 3.8 / 4.13).
    registry.register(
        Scenario::new(
            "partial-flooding",
            "E4 — partial flooding without edge regeneration",
            Measurement::PartialFlooding,
        )
        .reproduces("Table 1 (flooding positive results); Theorems 3.8 and 4.13")
        .nets([
            NetSpec::Baseline(ModelKind::Sdg),
            NetSpec::Baseline(ModelKind::Pdg),
        ])
        .full_grid(Grid::new([1_024, 4_096, 16_384], [8, 12, 16, 24], 12))
        .smoke_grid(Grid::new([256], [8], 2))
        .base_seed(0xE4),
    );

    // E5 — expansion with edge regeneration (Theorems 3.15 / 4.16).
    registry.register(
        Scenario::new(
            "regen-expansion",
            "E5 — snapshot expansion with edge regeneration",
            Measurement::Expansion(ExpansionSpec {
                initial_window_div: 0,
                samples: 3,
                interval_div: 8,
                large_sets: false,
                fast: false,
            }),
        )
        .reproduces("Table 1 (full-range expansion); Theorems 3.15 and 4.16")
        .nets([
            NetSpec::Baseline(ModelKind::Sdgr),
            NetSpec::Baseline(ModelKind::Pdgr),
        ])
        .full_grid(Grid::new([1_024, 4_096], [4, 8, 14, 21, 35], 5))
        .smoke_grid(Grid::new([96], [4], 1))
        .base_seed(0xE5),
    );

    // E5b — realized RAES graph tracked over time (protocol line of work).
    registry.register(
        Scenario::new(
            "raes-regen-tracking",
            "E5b — realized RAES graph tracked over time",
            Measurement::RaesTracking {
                samples: 8,
                interval_div: 4,
            },
        )
        .reproduces("RAES expansion-over-time (Becchetti et al.; Cruciani 2025)")
        .nets([
            NetSpec::raes_default(),
            NetSpec::Raes(RaesNet {
                saturation: SaturationPolicy::EvictOldest,
                ..RaesNet::default()
            }),
        ])
        .full_grid(Grid::new([4_096], [8], 1))
        .smoke_grid(Grid::new([128], [4], 1))
        .base_seed(0xE5AE),
    );

    // E6 — flooding-time scaling with regeneration (Theorems 3.16 / 4.20).
    registry.register(
        Scenario::new(
            "flooding-scaling",
            "E6 — flooding completion time with edge regeneration",
            Measurement::ParallelFlooding(FloodingSpec {
                budget: RoundBudget::EngineDefault,
                record_isolation: false,
            }),
        )
        .reproduces("Table 1 (flooding with regeneration); Theorems 3.16 and 4.20")
        .nets([
            NetSpec::Baseline(ModelKind::Sdgr),
            NetSpec::Baseline(ModelKind::Pdgr),
        ])
        .full_grid(Grid::new(
            [
                256, 512, 1_024, 2_048, 4_096, 8_192, 16_384, 65_536, 262_144, 1_048_576,
            ],
            [8, 21],
            6,
        ))
        .smoke_grid(Grid::new([64, 128, 256], [4], 2))
        .base_seed(0xE6),
    );

    // E7 — static d-out random graph baseline (Lemma B.1).
    registry.register(
        Scenario::new(
            "static-baseline",
            "E7 — static d-out random graph baseline",
            Measurement::StaticBaseline,
        )
        .reproduces("Lemma B.1 (appendix): the no-churn reference point")
        .nets([NetSpec::Static])
        .full_grid(Grid::new([1_024, 4_096, 16_384], [3, 4, 8], 8))
        .smoke_grid(Grid::new([256], [3, 8], 2))
        .base_seed(0xE7),
    );

    // E8 — Poisson churn demographics (Lemmas 4.4–4.8).
    registry.register(
        Scenario::new(
            "poisson-churn",
            "E8 — Poisson churn demographics",
            Measurement::PoissonDemographics {
                units: 1_500,
                smoke_units: 120,
            },
        )
        .reproduces("Lemmas 4.4, 4.6, 4.7 and 4.8 (the Poisson churn substrate)")
        .nets([NetSpec::Baseline(ModelKind::Pdg)])
        .full_grid(Grid::new([1_024, 4_096, 16_384], [2], 1))
        .smoke_grid(Grid::new([256], [2], 1))
        .base_seed(0xE8),
    );

    // E9 — onion-skin growth (Claim 3.10 / Lemma 3.9).
    registry.register(
        Scenario::new(
            "onion-skin",
            "E9 — onion-skin growth on realized SDG graphs",
            Measurement::OnionSkin,
        )
        .reproduces("Claim 3.10 and Lemma 3.9 (the device behind Theorem 3.8)")
        .nets([NetSpec::Baseline(ModelKind::Sdg)])
        .full_grid(Grid::new([16_384], [64, 128], 3))
        .smoke_grid(Grid::new([1_024], [16], 1))
        .base_seed(0xE9),
    );
    registry.register(
        Scenario::new(
            "onion-skin-1m",
            "E9 — onion-skin growth at n = 10^6",
            Measurement::OnionSkin,
        )
        .reproduces("Claim 3.10 / Lemma 3.9 at scale (dense-index construction)")
        .nets([NetSpec::Baseline(ModelKind::Sdg)])
        .full_grid(Grid::new([1_000_000], [64, 128], 1))
        .smoke_grid(Grid::new([2_048], [16], 1))
        .base_seed(0xE9),
    );

    // E10 — Bitcoin-like overlay (Sections 1.1 and 2).
    registry.register(
        Scenario::new(
            "p2p-overlay",
            "E10 — Bitcoin-like overlay under churn",
            Measurement::P2pPropagation {
                blocks: 6,
                smoke_blocks: 2,
            },
        )
        .reproduces("Sections 1.1 and 2 (the PDGR model's motivating application)")
        .nets([NetSpec::P2p])
        .full_grid(Grid::new([1_000, 2_000], [8], 1))
        .smoke_grid(Grid::new([300], [8], 1))
        .base_seed(0xE10),
    );

    // E11 — flooding over all five dynamic networks (protocol comparison).
    registry.register(
        Scenario::new(
            "raes-flooding",
            "E11 — flooding over RAES-maintained vs. paper topologies",
            Measurement::ParallelFlooding(FloodingSpec {
                budget: RoundBudget::Log2Times(8),
                record_isolation: true,
            }),
        )
        .reproduces("churn-protocol RAES vs. Table 1 baselines (Cruciani 2025)")
        .nets([
            NetSpec::Baseline(ModelKind::Sdg),
            NetSpec::Baseline(ModelKind::Sdgr),
            NetSpec::Baseline(ModelKind::Pdg),
            NetSpec::Baseline(ModelKind::Pdgr),
            NetSpec::raes_default(),
        ])
        .full_grid(Grid::new([100_000, 1_000_000], [8], 6))
        .smoke_grid(Grid::new([256], [8], 2))
        .base_seed(0xE11),
    );

    // E13 (new) — the RAES protocol axes under saturation: capacity factor,
    // saturation policy and the attempts-per-round knob as grid axes.
    registry.register(
        Scenario::new(
            "raes-saturation",
            "E13 — RAES saturation policies and the attempts-per-round knob",
            Measurement::ParallelFlooding(FloodingSpec {
                budget: RoundBudget::Log2Times(8),
                record_isolation: true,
            }),
        )
        .reproduces("Protocol behaviour at c = 1 (capacity = demand): repair latency vs. attempts")
        .nets([
            NetSpec::Raes(RaesNet {
                capacity: 1.0,
                ..RaesNet::default()
            }),
            NetSpec::Raes(RaesNet {
                capacity: 1.0,
                attempts: 2,
                ..RaesNet::default()
            }),
            NetSpec::Raes(RaesNet {
                capacity: 1.0,
                attempts: 4,
                ..RaesNet::default()
            }),
            NetSpec::Raes(RaesNet {
                capacity: 1.0,
                saturation: SaturationPolicy::EvictOldest,
                ..RaesNet::default()
            }),
            NetSpec::Raes(RaesNet {
                churn: ChurnDriver::Poisson,
                capacity: 1.0,
                attempts: 2,
                ..RaesNet::default()
            }),
        ])
        .full_grid(Grid::new([4_096, 16_384], [8], 4))
        .smoke_grid(Grid::new([128], [4], 1))
        .base_seed(0xE13),
    );

    // E14 — Byzantine protocol-level adversaries (churn-protocol behavior
    // layer). Same measurement and base seed as E11, so the f = 0 column
    // (plain `NetSpec::raes_default()`) shares its cell seeds with E11's
    // RAES rows and reproduces those flooding numbers bit for bit — the
    // zero-adversary anchor every degradation figure is read against.
    let byz_flooding = || {
        Measurement::ParallelFlooding(FloodingSpec {
            budget: RoundBudget::Log2Times(8),
            record_isolation: true,
        })
    };
    let uniform = |fraction: f64, attack: AttackKind| {
        NetSpec::Raes(RaesNet {
            adversary: AdversaryModel::Uniform { fraction, attack },
            ..RaesNet::default()
        })
    };
    let mut byz_nets = vec![NetSpec::raes_default()];
    for attack in [
        AttackKind::RefuseAll,
        AttackKind::AcceptThenDrop,
        AttackKind::CapSaturator,
        AttackKind::SilentOnFlood,
    ] {
        for fraction in [0.01, 0.05, 0.1, 0.2] {
            byz_nets.push(uniform(fraction, attack));
        }
    }
    registry.register(
        Scenario::new(
            "byzantine-raes",
            "E14 — RAES flooding under uniformly corrupted populations",
            byz_flooding(),
        )
        .reproduces("Degradation of E11's RAES rows under f ∈ {0, .01, .05, .1, .2} × attack kind")
        .nets(byz_nets)
        .full_grid(Grid::new([100_000], [8], 2))
        .smoke_grid(Grid::new([256], [8], 1))
        .base_seed(0xE11),
    );
    registry.register(
        Scenario::new(
            "byzantine-raes-1m",
            "E14 — uniformly corrupted RAES flooding at n = 10^6",
            byz_flooding(),
        )
        .reproduces(
            "E14 at scale; the f = 0 row is bit-identical to raes-flooding's 10^6 RAES cell",
        )
        .nets([
            NetSpec::raes_default(),
            uniform(0.05, AttackKind::RefuseAll),
            uniform(0.2, AttackKind::RefuseAll),
            uniform(0.05, AttackKind::CapSaturator),
            uniform(0.2, AttackKind::CapSaturator),
            uniform(0.2, AttackKind::SilentOnFlood),
        ])
        .full_grid(Grid::new([1_000_000], [8], 1))
        .smoke_grid(Grid::new([256], [8], 1))
        .base_seed(0xE11),
    );

    // E15 — structured adversaries: eclipse (targeted-neighborhood) and
    // join-flood cohorts, versus E14's uniform corruption.
    registry.register(
        Scenario::new(
            "byzantine-eclipse",
            "E15 — eclipse and join-flood adversaries on RAES",
            byz_flooding(),
        )
        .reproduces("Targeted-victim vs. cohort-arrival corruption (f = 0 row anchors to E11)")
        .nets([
            NetSpec::raes_default(),
            NetSpec::Raes(RaesNet {
                adversary: AdversaryModel::Eclipse {
                    fraction: 0.01,
                    attack: AttackKind::CapSaturator,
                },
                ..RaesNet::default()
            }),
            NetSpec::Raes(RaesNet {
                adversary: AdversaryModel::Eclipse {
                    fraction: 0.05,
                    attack: AttackKind::CapSaturator,
                },
                ..RaesNet::default()
            }),
            NetSpec::Raes(RaesNet {
                adversary: AdversaryModel::Eclipse {
                    fraction: 0.1,
                    attack: AttackKind::CapSaturator,
                },
                ..RaesNet::default()
            }),
            NetSpec::Raes(RaesNet {
                adversary: AdversaryModel::Eclipse {
                    fraction: 0.2,
                    attack: AttackKind::CapSaturator,
                },
                ..RaesNet::default()
            }),
            NetSpec::Raes(RaesNet {
                adversary: AdversaryModel::Eclipse {
                    fraction: 0.05,
                    attack: AttackKind::RefuseAll,
                },
                ..RaesNet::default()
            }),
            NetSpec::Raes(RaesNet {
                adversary: AdversaryModel::Eclipse {
                    fraction: 0.2,
                    attack: AttackKind::RefuseAll,
                },
                ..RaesNet::default()
            }),
            NetSpec::Raes(RaesNet {
                adversary: AdversaryModel::JoinFlood {
                    fraction: 0.05,
                    cohort: 8,
                    attack: AttackKind::SilentOnFlood,
                },
                ..RaesNet::default()
            }),
            NetSpec::Raes(RaesNet {
                adversary: AdversaryModel::JoinFlood {
                    fraction: 0.2,
                    cohort: 8,
                    attack: AttackKind::SilentOnFlood,
                },
                ..RaesNet::default()
            }),
            NetSpec::Raes(RaesNet {
                adversary: AdversaryModel::JoinFlood {
                    fraction: 0.2,
                    cohort: 16,
                    attack: AttackKind::CapSaturator,
                },
                ..RaesNet::default()
            }),
        ])
        .full_grid(Grid::new([100_000], [8], 2))
        .smoke_grid(Grid::new([256], [8], 1))
        .base_seed(0xE11),
    );
    registry.register(
        Scenario::new(
            "byzantine-eclipse-1m",
            "E15 — eclipse and join-flood adversaries at n = 10^6",
            byz_flooding(),
        )
        .reproduces("E15 at scale (f = 0 row anchors to raes-flooding's 10^6 RAES cell)")
        .nets([
            NetSpec::raes_default(),
            NetSpec::Raes(RaesNet {
                adversary: AdversaryModel::Eclipse {
                    fraction: 0.1,
                    attack: AttackKind::CapSaturator,
                },
                ..RaesNet::default()
            }),
            NetSpec::Raes(RaesNet {
                adversary: AdversaryModel::JoinFlood {
                    fraction: 0.1,
                    cohort: 8,
                    attack: AttackKind::SilentOnFlood,
                },
                ..RaesNet::default()
            }),
        ])
        .full_grid(Grid::new([1_000_000], [8], 1))
        .smoke_grid(Grid::new([256], [8], 1))
        .base_seed(0xE11),
    );

    // E12 — adversarial churn schedules (robustness beyond oblivious churn).
    registry.register(
        Scenario::new(
            "adversarial-churn",
            "E12 — adversarial death schedules",
            Measurement::Flooding(FloodingSpec {
                budget: RoundBudget::Fixed(200),
                record_isolation: true,
            }),
        )
        .reproduces("Adaptive vs. oblivious churn (RAES line of work); Theorem 4.20")
        .nets([
            NetSpec::Baseline(ModelKind::Pdg),
            NetSpec::Baseline(ModelKind::Pdgr),
        ])
        .victims([
            VictimPolicy::Uniform,
            VictimPolicy::OldestFirst,
            VictimPolicy::HighestDegree,
        ])
        .full_grid(Grid::new([512, 1_024], [4, 8], 6))
        .smoke_grid(Grid::new([128], [2], 1))
        .base_seed(0xE12),
    );
    registry.register(
        Scenario::new(
            "adversarial-churn-1m",
            "E12 — degree-targeted churn at n = 10^6 (bucketed victim index)",
            Measurement::Flooding(FloodingSpec {
                budget: RoundBudget::Fixed(200),
                record_isolation: true,
            }),
        )
        .reproduces("Adversarial grids at scale, enabled by the degree-bucketed victim index")
        .nets([NetSpec::Baseline(ModelKind::Pdgr)])
        .victims([VictimPolicy::Uniform, VictimPolicy::HighestDegree])
        .full_grid(Grid::new([1_000_000], [8], 1))
        .smoke_grid(Grid::new([256], [4], 1))
        .base_seed(0xE12),
    );

    // E16 — event-driven asynchronous flooding (churn-event): per-message
    // latency, per-node bandwidth, rounds emerge from the timing. The
    // relaxation of E6's synchronous-round assumption.
    registry.register(
        Scenario::new(
            "async-flooding",
            "E16 — asynchronous flooding with latency and bandwidth",
            Measurement::AsyncFlooding(AsyncFloodingSpec {
                latency: LatencyModel::Exponential { mean: 0.5 },
                bandwidth: BandwidthModel::drop_tail(32.0, 64),
                horizon: RoundBudget::Log2Times(6),
            }),
        )
        .reproduces(
            "Event-driven relaxation of E6: emergent rounds and completion time vs. \
             the synchronous flooding time",
        )
        .nets([
            NetSpec::Baseline(ModelKind::Sdgr),
            NetSpec::Baseline(ModelKind::Pdgr),
            NetSpec::raes_default(),
        ])
        .full_grid(Grid::new([1_024, 4_096, 16_384], [8], 5))
        .smoke_grid(Grid::new([128, 256], [4], 1))
        .base_seed(0xE16),
    );
    registry.register(
        Scenario::new(
            "async-flooding-1m",
            "E16 — asynchronous flooding at n = 10^6",
            Measurement::AsyncFlooding(AsyncFloodingSpec {
                latency: LatencyModel::Exponential { mean: 0.5 },
                bandwidth: BandwidthModel::drop_tail(32.0, 64),
                horizon: RoundBudget::Log2Times(6),
            }),
        )
        .reproduces("E16 at scale (one heap event per message delivery)")
        .nets([NetSpec::Baseline(ModelKind::Sdgr), NetSpec::raes_default()])
        .full_grid(Grid::new([1_000_000], [8], 1))
        .smoke_grid(Grid::new([256], [4], 1))
        .base_seed(0xE16),
    );

    // E17 — asynchronous RAES repair under message load: requests and
    // accepts queue behind flood traffic on the same egress links.
    registry.register(
        Scenario::new(
            "async-raes-load",
            "E17 — RAES repair under message load",
            Measurement::AsyncRaes(AsyncRaesSpec {
                latency: LatencyModel::Exponential { mean: 0.5 },
                bandwidth: BandwidthModel::delaying(32.0),
                horizon: RoundBudget::Log2Times(6),
                flood: true,
            }),
        )
        .reproduces(
            "Message-level RAES: repair-time percentiles with repair traffic \
             queueing behind a concurrent flood",
        )
        .nets([
            NetSpec::raes_default(),
            NetSpec::Raes(RaesNet {
                capacity: 1.0,
                ..RaesNet::default()
            }),
        ])
        .full_grid(Grid::new([1_024, 4_096, 16_384], [8], 5))
        .smoke_grid(Grid::new([128], [4], 1))
        .base_seed(0xE17),
    );
    registry.register(
        Scenario::new(
            "async-raes-load-1m",
            "E17 — message-level RAES repair at n = 10^6",
            Measurement::AsyncRaes(AsyncRaesSpec {
                latency: LatencyModel::Exponential { mean: 0.5 },
                bandwidth: BandwidthModel::delaying(32.0),
                horizon: RoundBudget::Log2Times(6),
                flood: true,
            }),
        )
        .reproduces("E17 at scale (initial wiring alone is ~8M request/reply messages)")
        .nets([NetSpec::raes_default()])
        .full_grid(Grid::new([1_000_000], [8], 1))
        .smoke_grid(Grid::new([128], [4], 1))
        .base_seed(0xE17),
    );

    // E18 — the chaos layer over E16's asynchronous flooding: i.i.d. link
    // loss swept from 0 to 30%. Same base seed and measurement spec as
    // async-flooding, so the loss-0 column shares its cell seeds with E16's
    // SDGR rows and reproduces those records bit for bit (the fault-axis
    // counterpart of the Byzantine f = 0 anchor).
    let e16_spec = || AsyncFloodingSpec {
        latency: LatencyModel::Exponential { mean: 0.5 },
        bandwidth: BandwidthModel::drop_tail(32.0, 64),
        horizon: RoundBudget::Log2Times(6),
    };
    let loss_axis = [
        FaultSpec::none(),
        FaultSpec::iid_loss(0.01),
        FaultSpec::iid_loss(0.05),
        FaultSpec::iid_loss(0.1),
        FaultSpec::iid_loss(0.3),
    ];
    registry.register(
        Scenario::new(
            "lossy-flooding",
            "E18 — asynchronous flooding under i.i.d. link loss",
            Measurement::AsyncFlooding(e16_spec()),
        )
        .reproduces(
            "Flood-completion degradation vs. link-loss rate; the loss-0 \
             column reproduces E16's SDGR rows bit for bit",
        )
        .nets([NetSpec::Baseline(ModelKind::Sdgr)])
        .faults(loss_axis)
        .full_grid(Grid::new([1_024, 4_096], [8], 3))
        .smoke_grid(Grid::new([128, 256], [4], 1))
        .base_seed(0xE16),
    );
    registry.register(
        Scenario::new(
            "lossy-flooding-1m",
            "E18 — lossy asynchronous flooding at n = 10^6",
            Measurement::AsyncFlooding(e16_spec()),
        )
        .reproduces("E18 at scale (per-link loss draws ride the fault substream)")
        .nets([NetSpec::Baseline(ModelKind::Sdgr)])
        .faults([FaultSpec::none(), FaultSpec::iid_loss(0.1)])
        .full_grid(Grid::new([1_000_000], [8], 1))
        .smoke_grid(Grid::new([256], [4], 1))
        .base_seed(0xE16),
    );

    // E19 — scheduled partition with pull anti-entropy healing: the flood
    // stalls at the source block's fraction during the window, then the
    // periodic pulls complete it after the heal. The per-block heal census
    // and end-of-run recovery census feed the time-to-reheal and
    // *_block_informed columns.
    // Onset at t = 0: the flood spreads in a handful of time units, so a
    // later onset would partition an already-informed population. Starting
    // partitioned makes the informed curve stall at the source block until
    // the heal, which is the recovery story the scenario measures.
    let partition = |blocks: u32| FaultSpec {
        partition: Some(PartitionWindow {
            start: 0.0,
            heal: 20.0,
            blocks,
        }),
        anti_entropy: Some(1.0),
        ..FaultSpec::none()
    };
    registry.register(
        Scenario::new(
            "partition-healing",
            "E19 — scheduled partition, pull anti-entropy healing",
            Measurement::AsyncFlooding(e16_spec()),
        )
        .reproduces(
            "Partition-healing recovery: informed fraction stalls at the \
             majority block during the window, anti-entropy completes the \
             flood post-heal; time-to-reheal and redundancy columns",
        )
        .nets([NetSpec::Baseline(ModelKind::Sdgr)])
        .faults([FaultSpec::none(), partition(2), partition(3)])
        .full_grid(Grid::new([1_024, 4_096], [8], 3))
        .smoke_grid(Grid::new([128], [4], 1))
        .base_seed(0xE16),
    );
    registry.register(
        Scenario::new(
            "partition-healing-1m",
            "E19 — partition healing at n = 10^6",
            Measurement::AsyncFlooding(e16_spec()),
        )
        .reproduces("E19 at scale (block membership is a pure id hash)")
        .nets([NetSpec::Baseline(ModelKind::Sdgr)])
        .faults([partition(2)])
        .full_grid(Grid::new([1_000_000], [8], 1))
        .smoke_grid(Grid::new([256], [4], 1))
        .base_seed(0xE16),
    );

    // E20 — RAES repair under 30% link loss plus crash–restart, with
    // bounded exponential-backoff retries: the run must terminate with every
    // repair either acknowledged or shed (retries_exhausted), never wedged.
    // Same base seed and spec as async-raes-load, so the fault-free column
    // reproduces E17's default-net rows bit for bit.
    let e17_spec = || AsyncRaesSpec {
        latency: LatencyModel::Exponential { mean: 0.5 },
        bandwidth: BandwidthModel::delaying(32.0),
        horizon: RoundBudget::Log2Times(6),
        flood: true,
    };
    let chaos_retry = RetryPolicy {
        factor: 2.0,
        jitter: 0.25,
        budget: 6,
    };
    let crashes = CrashRestart {
        rate: 0.002,
        downtime: LatencyModel::Fixed(4.0),
    };
    registry.register(
        Scenario::new(
            "crash-restart-raes",
            "E20 — RAES repair under loss and crash–restart",
            Measurement::AsyncRaes(e17_spec()),
        )
        .reproduces(
            "Graceful degradation of message-level RAES: crash–restart \
             re-repair and 30% link loss with bounded-backoff retries \
             (shed, counted, never wedged)",
        )
        .nets([NetSpec::raes_default()])
        .faults([
            FaultSpec::none(),
            FaultSpec {
                crash: Some(crashes),
                retry: Some(chaos_retry),
                ..FaultSpec::none()
            },
            FaultSpec {
                loss: LossModel::Iid { p: 0.3 },
                crash: Some(crashes),
                retry: Some(chaos_retry),
                ..FaultSpec::none()
            },
        ])
        .full_grid(Grid::new([1_024, 4_096], [8], 3))
        .smoke_grid(Grid::new([128], [4], 1))
        .base_seed(0xE17),
    );
    registry.register(
        Scenario::new(
            "crash-restart-raes-1m",
            "E20 — lossy crash–restart RAES at n = 10^6",
            Measurement::AsyncRaes(e17_spec()),
        )
        .reproduces("E20 at scale (retry budget bounds the retransmission volume)")
        .nets([NetSpec::raes_default()])
        .faults([FaultSpec {
            loss: LossModel::Iid { p: 0.3 },
            crash: Some(crashes),
            retry: Some(chaos_retry),
            ..FaultSpec::none()
        }])
        .full_grid(Grid::new([1_000_000], [8], 1))
        .smoke_grid(Grid::new([128], [4], 1))
        .base_seed(0xE17),
    );

    registry
}

/// Runs one scenario with the given options and prints its report (header,
/// cell/skip counts, per-point summary table).
///
/// # Panics
///
/// Panics when the scenario is unknown or the checkpoint file cannot be
/// written — both are fatal for a CLI run.
pub fn run_and_report(
    registry: &ScenarioRegistry,
    name: &str,
    opts: &RunOptions,
) -> ScenarioOutcome {
    let scenario = registry
        .get(name)
        .unwrap_or_else(|| panic!("unknown scenario {name:?} (try `exp list`)"));
    println!("## {}", scenario.title());
    println!();
    if !scenario.reproduced_artifact().is_empty() {
        println!(
            "Reproduces: {}  (preset: {})",
            scenario.reproduced_artifact(),
            opts.preset.label()
        );
        println!();
    }
    let outcome =
        run_scenario(scenario, opts).unwrap_or_else(|e| panic!("scenario {name:?} failed: {e}"));
    println!(
        "Cells: {} total, {} executed, {} resumed from checkpoint → {}",
        outcome.total,
        outcome.executed,
        outcome.skipped,
        outcome.path.display()
    );
    if !outcome.failures.is_empty() {
        println!(
            "FAILED cells: {} (recorded in the .failures.jsonl side file; \
             `--resume` retries exactly these)",
            outcome.failures.len()
        );
        for failure in &outcome.failures {
            println!(
                "  {} n={} d={} trial={} seed={}: {}",
                failure.net, failure.n, failure.d, failure.trial, failure.seed, failure.error
            );
        }
    }
    println!();
    let table = churn_analysis::summarize_cells(
        format!("{} — per-point means", scenario.name()),
        &outcome.records,
    );
    println!("{}", table.to_markdown());
    outcome
}

/// Regenerates the report for `name` from the stored checkpoint (and, when
/// present, the `.series.jsonl` and `.load.jsonl` side files) without
/// running any cell. The verdict tables are rebuilt by
/// `churn_analysis::scenario_report` from the on-disk records alone, so
/// `exp report` works on a machine that only has the `results/` directory.
/// The load file adds a wall-clock throughput table covering the cells the
/// last invocation actually executed — machine-dependent by design, so it
/// never feeds a verdict.
///
/// # Errors
///
/// Returns a human-readable message when the scenario is unknown, the
/// checkpoint is missing/unreadable, or it holds no cells yet.
pub fn report_from_disk(
    registry: &ScenarioRegistry,
    name: &str,
    opts: &RunOptions,
) -> Result<churn_analysis::ScenarioReport, String> {
    let scenario = registry
        .get(name)
        .ok_or_else(|| format!("unknown scenario {name:?} (try `exp list`)"))?;
    let path = scenario_output_path(scenario, opts);
    let records = load_cell_records(&path)
        .map_err(|e| format!("{}: {e} (run the scenario first)", path.display()))?;
    if records.is_empty() {
        return Err(format!(
            "{}: no stored cells yet (run the scenario first)",
            path.display()
        ));
    }
    let series_path = scenario_series_path(scenario, opts);
    let series = if series_path.exists() {
        load_series_records(&series_path).map_err(|e| format!("{}: {e}", series_path.display()))?
    } else {
        Vec::new()
    };
    let load_path = scenario_load_path(scenario, opts);
    let loads = if load_path.exists() {
        load_load_records(&load_path).map_err(|e| format!("{}: {e}", load_path.display()))?
    } else {
        Vec::new()
    };
    Ok(churn_analysis::scenario_report(
        name, &records, &series, &loads,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use churn_sim::scenario::GridPreset;

    #[test]
    fn registry_round_trips_names_and_validates_every_scenario() {
        let registry = registry();
        let names = registry.names();
        assert!(names.len() >= 20, "all legacy experiments are registered");
        for scenario in registry.scenarios() {
            // register() already validated; re-validate for the round trip
            // and pin the lookup.
            assert!(scenario.validate().is_ok(), "{}", scenario.name());
            assert_eq!(
                registry.get(scenario.name()).map(Scenario::name),
                Some(scenario.name())
            );
            // Every scenario has a non-empty smoke grid that is genuinely
            // small (CI runs the whole registry per PR).
            let smoke = scenario.cells(GridPreset::Smoke);
            assert!(!smoke.is_empty(), "{} has no smoke cells", scenario.name());
            assert!(
                smoke.iter().all(|c| c.n <= 2_048),
                "{} smoke grid must stay tiny",
                scenario.name()
            );
            // byzantine-raes carries the widest net axis (the f = 0 anchor
            // plus 4 fractions × 4 attack kinds = 17 nets).
            assert!(
                smoke.len() <= 24,
                "{} smoke grid must stay narrow",
                scenario.name()
            );
            let full = scenario.cells(GridPreset::Full);
            assert!(!full.is_empty(), "{} has no full cells", scenario.name());
            // Cell seeds are unique within a preset (they are the checkpoint
            // identity).
            for cells in [&smoke, &full] {
                let mut seeds: Vec<u64> = cells.iter().map(|c| scenario.cell_seed(c)).collect();
                seeds.sort_unstable();
                seeds.dedup();
                assert_eq!(seeds.len(), cells.len(), "{}", scenario.name());
            }
        }
        // The historical experiment set is covered.
        for name in [
            "isolated-nodes",
            "large-set-expansion",
            "flooding-failure",
            "partial-flooding",
            "regen-expansion",
            "raes-regen-tracking",
            "flooding-scaling",
            "static-baseline",
            "poisson-churn",
            "onion-skin",
            "p2p-overlay",
            "raes-flooding",
            "adversarial-churn",
            "byzantine-raes",
            "byzantine-raes-1m",
            "byzantine-eclipse",
            "byzantine-eclipse-1m",
            "async-flooding",
            "async-flooding-1m",
            "async-raes-load",
            "async-raes-load-1m",
            "lossy-flooding",
            "lossy-flooding-1m",
            "partition-healing",
            "partition-healing-1m",
            "crash-restart-raes",
            "crash-restart-raes-1m",
        ] {
            assert!(registry.get(name).is_some(), "missing scenario {name}");
        }
    }

    #[test]
    fn async_scenarios_carry_event_level_measurements() {
        let registry = registry();
        for (name, kind) in [
            ("async-flooding", "async-flooding"),
            ("async-flooding-1m", "async-flooding"),
            ("async-raes-load", "async-raes"),
            ("async-raes-load-1m", "async-raes"),
            ("lossy-flooding", "async-flooding"),
            ("lossy-flooding-1m", "async-flooding"),
            ("partition-healing", "async-flooding"),
            ("partition-healing-1m", "async-flooding"),
            ("crash-restart-raes", "async-raes"),
            ("crash-restart-raes-1m", "async-raes"),
        ] {
            let scenario = registry.get(name).unwrap();
            assert_eq!(scenario.measurement().kind(), kind, "{name}");
            // The nonzero-latency, finite-bandwidth regime is the point of
            // these scenarios — a zero-latency registration would collapse
            // them back into the synchronous engines.
            match scenario.measurement() {
                Measurement::AsyncFlooding(spec) => {
                    assert!(matches!(
                        spec.latency,
                        LatencyModel::Exponential { mean } if mean > 0.0
                    ));
                }
                Measurement::AsyncRaes(spec) => {
                    assert!(matches!(
                        spec.latency,
                        LatencyModel::Exponential { mean } if mean > 0.0
                    ));
                    assert!(spec.flood, "{name} must flood while repairing");
                }
                other => panic!("{name} has unexpected measurement {other:?}"),
            }
        }
    }

    #[test]
    fn chaos_fault_free_columns_share_their_cell_seeds_with_e16_e17() {
        // The fault-axis anchor: every chaos scenario's fault-free cells
        // must carry exactly the cell seeds of its E16 / E17 sibling (same
        // base seed, same net tag, same measurement spec), so their records
        // reproduce today's async numbers bit for bit — the event suite
        // separately pins that an empty `FaultPlan` is RNG-stream-identical
        // to no fault layer at all.
        let registry = registry();
        for (chaos_name, anchor_name) in [
            ("lossy-flooding", "async-flooding"),
            ("lossy-flooding-1m", "async-flooding-1m"),
            ("partition-healing", "async-flooding"),
            ("crash-restart-raes", "async-raes-load"),
        ] {
            let anchor = registry.get(anchor_name).unwrap();
            let chaos = registry.get(chaos_name).unwrap();
            assert_eq!(
                format!("{:?}", chaos.measurement()),
                format!("{:?}", anchor.measurement()),
                "{chaos_name} must measure exactly what {anchor_name} measures"
            );
            let anchor_seeds: std::collections::HashSet<u64> = anchor
                .cells(GridPreset::Full)
                .iter()
                .map(|c| anchor.cell_seed(c))
                .collect();
            let fault_free: Vec<_> = chaos
                .cells(GridPreset::Full)
                .into_iter()
                .filter(|c| c.fault.is_none())
                .collect();
            assert!(
                !fault_free.is_empty(),
                "{chaos_name} is missing its fault-free anchor column"
            );
            for cell in fault_free {
                assert!(
                    anchor_seeds.contains(&chaos.cell_seed(&cell)),
                    "{chaos_name} fault-free cell (net {}, n = {}, trial {}) \
                     must share an {anchor_name} seed",
                    cell.net.label(),
                    cell.n,
                    cell.trial
                );
            }
        }
    }

    #[test]
    fn byzantine_f0_columns_share_their_cell_seeds_with_raes_flooding() {
        // The zero-adversary anchor: every byzantine scenario's plain-RAES
        // cells must carry exactly the cell seeds of E11's RAES rows (same
        // base seed, same net seed tag, same measurement spec), so their
        // records reproduce today's flooding numbers bit for bit — the
        // protocol suite separately pins that a zero-fraction adversary is
        // RNG-stream-identical to no adversary at all.
        let registry = registry();
        let e11 = registry.get("raes-flooding").unwrap();
        let e11_seeds: std::collections::HashSet<u64> = e11
            .cells(GridPreset::Full)
            .iter()
            .filter(|c| c.net.label() == "RAES")
            .map(|c| e11.cell_seed(c))
            .collect();
        for name in [
            "byzantine-raes",
            "byzantine-raes-1m",
            "byzantine-eclipse",
            "byzantine-eclipse-1m",
        ] {
            let byz = registry.get(name).unwrap();
            assert_eq!(
                format!("{:?}", byz.measurement()),
                format!("{:?}", e11.measurement()),
                "{name} must measure exactly what E11 measures"
            );
            let f0: Vec<_> = byz
                .cells(GridPreset::Full)
                .into_iter()
                .filter(|c| c.net.label() == "RAES")
                .collect();
            assert!(!f0.is_empty(), "{name} is missing its f = 0 anchor column");
            for cell in f0 {
                assert!(
                    e11_seeds.contains(&byz.cell_seed(&cell)),
                    "{name} f = 0 cell (n = {}, trial {}) must share an E11 seed",
                    cell.n,
                    cell.trial
                );
            }
        }
    }
}
