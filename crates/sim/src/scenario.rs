//! The unified scenario engine: declarative experiment specs, one runner,
//! checkpoint/resume.
//!
//! A [`Scenario`] declares an experiment as data — the grid axes (network
//! spec × size × degree × victim policy × trial), one [`Measurement`], and a
//! full plus a smoke preset — instead of a bespoke binary with hand-rolled
//! sweep loops. [`run_scenario`] executes the grid's cells in parallel
//! batches (batch-level parallelism shares the pool with the sharded in-cell
//! engines), streams one JSON record per completed cell to
//! `results/<name>.jsonl`, and **checkpoints**: a cell
//! whose deterministic seed already appears in the output file is skipped on
//! the next run, so an interrupted grid resumes where it stopped and the
//! resumed file is bit-identical to an uninterrupted run.
//!
//! Cell identity is the deterministic per-cell seed ([`Scenario::cell_seed`]):
//! it is derived from the cell's *values* (network spec, `n`, `d`, victim
//! policy, trial index, scenario base seed), so adding a grid row never
//! re-seeds existing cells. The baseline model kinds and the default RAES
//! configuration keep the seeds of the pre-engine experiment binaries, so
//! recorded trajectories reproduce bit for bit (a literal seed table in this
//! module's tests and the golden-equivalence suite in `churn-bench` pin
//! this).
//!
//! [`ScenarioRegistry`] collects every registered scenario; the `exp` binary
//! in `churn-bench` is the single CLI over the registry
//! (`exp run <name>|--all [--smoke|--large] [--resume]`). An entry's
//! `n = 10⁶` rows are a nested scenario ([`Scenario::large`]) named
//! `<name>-1m`, run with `--large`.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use rayon::prelude::*;

use churn_core::driver::VictimPolicy;
use churn_core::{ModelKind, PoissonConfig, StreamingConfig};
use churn_event::{
    BandwidthModel, CrashRestart, FaultPlan, LatencyModel, LossModel, PartitionWindow,
};
use churn_p2p::P2pConfig;
use churn_protocol::{AdversaryModel, ChurnDriver, RaesConfig, SaturationPolicy};
use churn_stochastic::rng::derive_seed;
use churn_telemetry::PhaseProfiler;

use crate::minijson;

mod measure;

pub use measure::AnyNet;

// ---------------------------------------------------------------------------
// Network specs (the model axis of the grid)
// ---------------------------------------------------------------------------

/// Parameters of a RAES protocol network on the grid (the protocol's
/// scenario axes: churn driver, saturation policy, capacity factor and the
/// attempts-per-round knob).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaesNet {
    /// Churn process underneath the protocol.
    pub churn: ChurnDriver,
    /// Saturation policy at the in-degree cap.
    pub saturation: SaturationPolicy,
    /// In-degree capacity factor `c` (cap = `⌊c·d⌋`).
    pub capacity: f64,
    /// Repair contacts per pending request per round (≥ 1).
    pub attempts: usize,
    /// Byzantine adversary corrupting a fraction of spawns
    /// ([`AdversaryModel::None`] leaves the honest protocol bit-identical).
    pub adversary: AdversaryModel,
}

impl RaesNet {
    /// The protocol config of one cell: these knobs at size `n`, degree `d`
    /// and the cell's victim policy (seed left at its default).
    fn config(&self, n: usize, d: usize, victim: VictimPolicy) -> RaesConfig {
        RaesConfig::new(n, d)
            .churn(self.churn)
            .saturation(self.saturation)
            .capacity_factor(self.capacity)
            .attempts_per_round(self.attempts)
            .adversary(self.adversary)
            .victim_policy(victim)
    }
}

impl Default for RaesNet {
    fn default() -> Self {
        RaesNet {
            churn: ChurnDriver::Streaming,
            saturation: SaturationPolicy::RejectRetry,
            capacity: RaesConfig::DEFAULT_CAPACITY_FACTOR,
            attempts: 1,
            adversary: AdversaryModel::None,
        }
    }
}

/// One point on the scenario's network axis: which dynamic network a cell
/// builds. This generalises `ModelKind` to everything the workspace can
/// measure — the paper's four baselines, the RAES maintenance protocol with
/// its knobs, the static no-churn baseline and the Bitcoin-like overlay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetSpec {
    /// One of the paper's four models (built via `ModelKind::build_with_victim`).
    Baseline(ModelKind),
    /// The RAES maintenance protocol with explicit knobs.
    Raes(RaesNet),
    /// A static `d`-out random graph (no churn; Lemma B.1's baseline).
    Static,
    /// The Bitcoin-like `churn-p2p` overlay (`d` = target outbound, max
    /// inbound 125).
    P2p,
}

impl NetSpec {
    /// The default RAES network (streaming churn, reject-and-retry, `c` =
    /// 1.5, one attempt).
    #[must_use]
    pub fn raes_default() -> Self {
        NetSpec::Raes(RaesNet::default())
    }

    /// A short, stable label for reports and stored records, e.g. `SDGR`,
    /// `RAES`, `RAES+poisson+evict-oldest`, `RAES+c1+a4`, `STATIC`, `P2P`.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            NetSpec::Baseline(kind) => kind.label().to_string(),
            NetSpec::Raes(spec) => {
                let mut label = String::from("RAES");
                if spec.churn == ChurnDriver::Poisson {
                    label.push_str("+poisson");
                }
                if spec.saturation == SaturationPolicy::EvictOldest {
                    label.push_str("+evict-oldest");
                }
                if spec.capacity != RaesConfig::DEFAULT_CAPACITY_FACTOR {
                    label.push_str(&format!("+c{}", spec.capacity));
                }
                if spec.attempts != 1 {
                    label.push_str(&format!("+a{}", spec.attempts));
                }
                match spec.adversary {
                    AdversaryModel::None => {}
                    AdversaryModel::Uniform { fraction, attack } => {
                        label.push_str(&format!("+byz-{attack}-f{fraction}"));
                    }
                    AdversaryModel::Eclipse { fraction, attack } => {
                        label.push_str(&format!("+eclipse-{attack}-f{fraction}"));
                    }
                    AdversaryModel::JoinFlood {
                        fraction,
                        cohort,
                        attack,
                    } => {
                        label.push_str(&format!("+joinflood-{attack}-f{fraction}-k{cohort}"));
                    }
                }
                label
            }
            NetSpec::Static => "STATIC".to_string(),
            NetSpec::P2p => "P2P".to_string(),
        }
    }

    /// The seed tag of this network spec. Baseline kinds and the default
    /// RAES spec use the tags 1–5 of the pre-engine experiment binaries, so
    /// their recorded seeds survive; every non-default RAES knob mixes a
    /// further tag, and the two later net kinds get fresh tags.
    fn seed_tag(&self) -> u64 {
        match self {
            NetSpec::Baseline(kind) => match kind {
                ModelKind::Sdg => 1,
                ModelKind::Sdgr => 2,
                ModelKind::Pdg => 3,
                ModelKind::Pdgr => 4,
            },
            NetSpec::Raes(spec) => {
                let mut tag = 5;
                if spec.churn == ChurnDriver::Poisson {
                    tag = derive_seed(tag, 0x5AE5_0001);
                }
                if spec.saturation == SaturationPolicy::EvictOldest {
                    tag = derive_seed(tag, 0x5AE5_0002);
                }
                if spec.capacity != RaesConfig::DEFAULT_CAPACITY_FACTOR {
                    tag = derive_seed(tag, spec.capacity.to_bits());
                }
                if spec.attempts != 1 {
                    tag = derive_seed(tag, 0x5AE5_0100 ^ spec.attempts as u64);
                }
                // An active adversary mixes shape, attack and fraction; the
                // inactive default mixes nothing, keeping every recorded
                // honest-RAES cell seed exactly as before.
                // Shape constants live in disjoint low nibbles so
                // `shape ^ attack.seed_code()` (codes 1–4) never collides
                // across shapes.
                match spec.adversary {
                    AdversaryModel::None => {}
                    AdversaryModel::Uniform { fraction, attack } => {
                        tag = derive_seed(tag, 0xB12A_0010 ^ attack.seed_code());
                        tag = derive_seed(tag, fraction.to_bits());
                    }
                    AdversaryModel::Eclipse { fraction, attack } => {
                        tag = derive_seed(tag, 0xB12A_0020 ^ attack.seed_code());
                        tag = derive_seed(tag, fraction.to_bits());
                    }
                    AdversaryModel::JoinFlood {
                        fraction,
                        cohort,
                        attack,
                    } => {
                        tag = derive_seed(tag, 0xB12A_0030 ^ attack.seed_code());
                        tag = derive_seed(tag, fraction.to_bits());
                        tag = derive_seed(tag, u64::from(cohort));
                    }
                }
                tag
            }
            NetSpec::Static => 6,
            NetSpec::P2p => 7,
        }
    }

    /// Runs one grid point through the config validation of this net's
    /// model, so that every cell of a validated scenario builds.
    fn validate_point(&self, n: usize, d: usize, victim: VictimPolicy) -> Result<(), String> {
        let checked = match self {
            NetSpec::Baseline(kind) if kind.is_streaming() => StreamingConfig::new(n, d).validate(),
            NetSpec::Baseline(_) => PoissonConfig::with_expected_size(n, d).validate(),
            NetSpec::Raes(spec) => spec.config(n, d, victim).validate(),
            NetSpec::P2p => p2p_config(n, d).validate(),
            // The static d-out generator needs a second node to point at.
            NetSpec::Static if n < 2 || d == 0 => {
                return Err(format!(
                    "a static d-out graph needs n ≥ 2 and d ≥ 1, got n = {n}, d = {d}"
                ))
            }
            NetSpec::Static => Ok(()),
        };
        checked.map_err(|e| e.to_string())
    }
}

/// The overlay config of one `P2p` cell: `d` outbound, Bitcoin Core's 125
/// inbound (seed left at its default).
fn p2p_config(n: usize, d: usize) -> P2pConfig {
    P2pConfig::new(n).target_outbound(d).max_inbound(125)
}

impl std::fmt::Display for NetSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

// ---------------------------------------------------------------------------
// Measurements
// ---------------------------------------------------------------------------

/// The round budget of a flooding measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoundBudget {
    /// `factor · ⌈log₂ n⌉` rounds.
    Log2Times(u32),
    /// A fixed round cap.
    Fixed(u64),
    /// The flooding engine's default cap (4096 rounds).
    EngineDefault,
}

impl RoundBudget {
    fn resolve(self, n: usize) -> u64 {
        match self {
            RoundBudget::Log2Times(factor) => u64::from(factor) * (n as f64).log2().ceil() as u64,
            RoundBudget::Fixed(rounds) => rounds,
            RoundBudget::EngineDefault => {
                churn_core::flooding::FloodingConfig::default().max_rounds
            }
        }
    }
}

/// Knobs of the flooding measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloodingSpec {
    /// Round budget of the run.
    pub budget: RoundBudget,
    /// Also record the isolated fraction of the warm topology before the
    /// broadcast starts (the failure mode regeneration/RAES repairs).
    pub record_isolation: bool,
}

/// Knobs of the snapshot expansion measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpansionSpec {
    /// Churn the model `n / initial_window_div` rounds before the first
    /// sample; 0 = sample right after warm-up.
    pub initial_window_div: usize,
    /// Number of snapshots sampled per trial (the recorded value is the
    /// worst sample — the theorems quantify over *every* snapshot).
    pub samples: usize,
    /// Rounds between samples, as `n / interval_div` (ignored for a single
    /// sample).
    pub interval_div: usize,
    /// Also measure the large-set range (Lemmas 3.6 / 4.11) alongside the
    /// full range.
    pub large_sets: bool,
    /// Use the fast estimator budget (`ExpansionConfig::fast()`), as the
    /// `n = 10⁶` rows do.
    pub fast: bool,
}

/// Knobs of the event-driven asynchronous flooding measurement
/// (`churn-event`): per-message latency, per-node bandwidth, and the
/// simulated-time horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncFloodingSpec {
    /// Per-message latency model.
    pub latency: LatencyModel,
    /// Per-node bandwidth model (FIFO egress queues).
    pub bandwidth: BandwidthModel,
    /// Simulated-time horizon, resolved against `n` like a round budget
    /// (one churn round per unit of simulated time).
    pub horizon: RoundBudget,
}

/// Knobs of the event-driven asynchronous RAES load measurement: repair
/// requests and accepts are messages that queue behind flood traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncRaesSpec {
    /// Per-message latency model.
    pub latency: LatencyModel,
    /// Per-node bandwidth model, shared by repair and flood traffic.
    pub bandwidth: BandwidthModel,
    /// Simulated-time horizon (= churn rounds), resolved against `n`.
    pub horizon: RoundBudget,
    /// Inject a flood from the newest node a quarter into the horizon, so
    /// repair latency is measured *under load*.
    pub flood: bool,
}

/// The asynchronous RAES retry policy of one fault-axis point: exponential
/// backoff with optional jitter and a bounded retransmit budget. It rides
/// the *fault axis* rather than [`AsyncRaesSpec`] because a non-identity
/// policy changes even fault-free trajectories (baseline retransmits exist
/// whenever a reply outwaits the timeout, and jitter draws randomness) — on
/// the fault axis the `none` point keeps the recorded E17 cells bit-exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Exponential-backoff factor (`≥ 1`; the `k`-th retransmission waits
    /// `retry_timeout · factor^k`).
    pub factor: f64,
    /// Jitter fraction on each backoff timeout, in `[0, 1)`.
    pub jitter: f64,
    /// Retransmissions per repair before it is shed (graceful degradation).
    pub budget: u32,
}

impl RetryPolicy {
    /// The engine's identity policy: constant timeout, no jitter, unbounded
    /// budget — bit-identical to PR 7's fixed-timeout behaviour.
    pub const IDENTITY: RetryPolicy = RetryPolicy {
        factor: 1.0,
        jitter: 0.0,
        budget: u32::MAX,
    };
}

/// One point on a scenario's fault axis: a [`FaultPlan`] in `Copy` spec form
/// (at most one partition window) plus the optional RAES retry policy.
///
/// A spec whose every axis is inactive — including one with explicit zero
/// rates — resolves to [`FaultPlan::none`] and mixes *no* seed tag, so
/// fault-rate-0 rows of a fault scenario share their cell seeds (and hence
/// their records, bit for bit) with a fault-free sibling scenario on the
/// same base seed. This is the same anchor trick the Byzantine scenarios
/// use with the default RAES net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Per-link loss model (`Iid { p: 0.0 }` normalises to `None`).
    pub loss: LossModel,
    /// Duplication probability per delivered message.
    pub duplicate_p: f64,
    /// Reordering probability per delivered copy.
    pub reorder_p: f64,
    /// Maximum holding delay of a reordered copy.
    pub reorder_max: f64,
    /// At most one scheduled partition window.
    pub partition: Option<PartitionWindow>,
    /// Crash–restart process (rate 0 normalises to `None`).
    pub crash: Option<CrashRestart>,
    /// Anti-entropy pull period (async flooding only).
    pub anti_entropy: Option<f64>,
    /// RAES retry policy (async RAES only; `None` = identity).
    pub retry: Option<RetryPolicy>,
}

impl FaultSpec {
    /// The fault-free point of the axis — the default when a scenario never
    /// calls [`Scenario::faults`].
    #[must_use]
    pub fn none() -> Self {
        FaultSpec {
            loss: LossModel::None,
            duplicate_p: 0.0,
            reorder_p: 0.0,
            reorder_max: 0.0,
            partition: None,
            crash: None,
            anti_entropy: None,
            retry: None,
        }
    }

    /// An i.i.d.-loss-only spec (the `lossy-flooding` axis).
    #[must_use]
    pub fn iid_loss(p: f64) -> Self {
        FaultSpec {
            loss: LossModel::Iid { p },
            ..FaultSpec::none()
        }
    }

    /// Resolves the spec into the engine-layer [`FaultPlan`], normalising
    /// inactive axes (zero-rate loss and crash) away so explicit zero-rate
    /// specs resolve to exactly [`FaultPlan::none`].
    #[must_use]
    pub fn resolve(&self) -> FaultPlan {
        let loss = match self.loss {
            LossModel::Iid { p: 0.0 } => LossModel::None,
            other => other,
        };
        FaultPlan {
            loss,
            duplicate_p: self.duplicate_p,
            reorder_p: self.reorder_p,
            reorder_max: if self.reorder_p > 0.0 {
                self.reorder_max
            } else {
                0.0
            },
            partitions: self.partition.into_iter().collect(),
            crash: self.crash.filter(|c| c.rate > 0.0),
            anti_entropy: self.anti_entropy,
        }
    }

    /// `true` when the resolved plan is empty and the retry policy is the
    /// identity — the point whose cells are bit-identical to a fault-free
    /// sibling scenario.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.resolve().is_none() && self.effective_retry() == RetryPolicy::IDENTITY
    }

    /// The retry policy with `None` resolved to the identity.
    #[must_use]
    pub fn effective_retry(&self) -> RetryPolicy {
        self.retry.unwrap_or(RetryPolicy::IDENTITY)
    }

    /// Short label for records, reports and the `exp list` fault column:
    /// the resolved plan's label plus a `retry<budget>x<factor>j<jitter>`
    /// part when a non-identity retry policy is set.
    #[must_use]
    pub fn label(&self) -> String {
        let mut label = self.resolve().label();
        let retry = self.effective_retry();
        if retry != RetryPolicy::IDENTITY {
            let part = format!("retry{}x{}j{}", retry.budget, retry.factor, retry.jitter);
            if label == "none" {
                label = part;
            } else {
                label.push('+');
                label.push_str(&part);
            }
        }
        label
    }

    /// The seed tag a non-none spec mixes into the cell seed: a fold of the
    /// label bytes, so distinct fault points get distinct streams and equal
    /// specs written differently (e.g. `Iid { p: 0.0 }` vs. `None`) agree.
    fn seed_tag(&self) -> u64 {
        self.label()
            .bytes()
            .fold(0xFA17_0000_u64, |acc, b| derive_seed(acc, u64::from(b)))
    }

    /// Validates the resolved plan and the retry policy.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        self.resolve().validate()?;
        let retry = self.effective_retry();
        if !(retry.factor >= 1.0 && retry.factor.is_finite()) {
            return Err(format!("retry backoff factor {} must be ≥ 1", retry.factor));
        }
        if !(0.0..1.0).contains(&retry.jitter) {
            return Err(format!("retry jitter {} outside [0, 1)", retry.jitter));
        }
        if retry.budget == 0 {
            return Err("retry budget must be at least 1".to_string());
        }
        Ok(())
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

/// What one cell measures. Every variant runs against the cell's network
/// spec and returns a flat list of named scalar metrics — the record schema
/// is uniform across scenarios, so analysis tooling needs one loader.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Measurement {
    /// Flooding on one thread (`run_flooding(…, 1)`), recording the
    /// completion metrics only.
    Flooding(FloodingSpec),
    /// The same flooding engine on the cell's thread budget; after the run,
    /// the flood's own informed set gives the informed-alive overlap, and
    /// the *uninformed* population is classified structurally (isolated /
    /// below-`d` degree). The records do not depend on the thread count.
    ParallelFlooding(FloodingSpec),
    /// Partial-flooding coverage within the `O(log n / log d)` budget of
    /// Theorems 3.8 / 4.13.
    PartialFlooding,
    /// Isolated-now census plus the Lemma 3.5 / 4.10 lifetime-isolation
    /// follow-up over the change feed.
    Isolation,
    /// Vertex expansion of snapshots built at the sample points.
    Expansion(ExpansionSpec),
    /// RAES realized-graph tracking over time: per-round cap occupancy and
    /// isolation plus periodic full-range expansion (requires RAES nets).
    RaesTracking {
        /// Number of expansion samples.
        samples: u64,
        /// Rounds between samples, as `n / interval_div`.
        interval_div: usize,
    },
    /// Onion-skin replay (Claim 3.10 / Lemma 3.9; requires `Baseline(Sdg)`).
    OnionSkin,
    /// Poisson churn demographics (Lemmas 4.4–4.8; requires a Poisson
    /// baseline).
    PoissonDemographics {
        /// Unit-time observations after the settle-in window (full preset).
        units: u64,
        /// Observations on the smoke preset.
        smoke_units: u64,
    },
    /// Static `d`-out random graph baseline (Lemma B.1; requires
    /// [`NetSpec::Static`]).
    StaticBaseline,
    /// Overlay health and block propagation (requires [`NetSpec::P2p`]).
    P2pPropagation {
        /// Blocks propagated per cell (full preset).
        blocks: usize,
        /// Blocks on the smoke preset.
        smoke_blocks: usize,
    },
    /// Event-driven asynchronous flooding over a churning network: forward
    /// on message arrival, per-message latency, per-node bandwidth; rounds
    /// emerge from the timing. Runs on any dynamic net (baselines, RAES).
    AsyncFlooding(AsyncFloodingSpec),
    /// Event-driven asynchronous RAES repair under message load (requires a
    /// [`NetSpec::Raes`] net with streaming churn and no adversary; the
    /// saturation/attempts knobs do not apply to the message-level model).
    AsyncRaes(AsyncRaesSpec),
}

impl Measurement {
    /// Short kind label (shown by `exp list` next to each scenario).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Measurement::Flooding(_) => "flooding",
            Measurement::ParallelFlooding(_) => "parallel-flooding",
            Measurement::PartialFlooding => "partial-flooding",
            Measurement::Isolation => "isolation",
            Measurement::Expansion(_) => "expansion",
            Measurement::RaesTracking { .. } => "raes-tracking",
            Measurement::OnionSkin => "onion-skin",
            Measurement::PoissonDemographics { .. } => "poisson-demographics",
            Measurement::StaticBaseline => "static-baseline",
            Measurement::P2pPropagation { .. } => "p2p-propagation",
            Measurement::AsyncFlooding(_) => "async-flooding",
            Measurement::AsyncRaes(_) => "async-raes",
        }
    }

    /// Whether this measurement can emit a per-round time series
    /// ([`SeriesRecord`]) when the runner is invoked with
    /// [`RunOptions::series`]: the round-iterating measurements record one
    /// row per round (sync engines) or per unit of simulated time (async
    /// engines, via the scheduler's event trace). The scalar census
    /// measurements have no round structure to record.
    #[must_use]
    pub fn supports_series(&self) -> bool {
        matches!(
            self,
            Measurement::Flooding(_)
                | Measurement::ParallelFlooding(_)
                | Measurement::RaesTracking { .. }
                | Measurement::AsyncFlooding(_)
                | Measurement::AsyncRaes(_)
        )
    }
}

// ---------------------------------------------------------------------------
// Scenario spec
// ---------------------------------------------------------------------------

/// Which grid a scenario run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridPreset {
    /// The full grid recorded in the scenario (minutes per scenario).
    Full,
    /// The tiny-`n` smoke grid (seconds for the whole registry; CI runs
    /// `exp run --all --smoke` on every PR).
    Smoke,
}

impl GridPreset {
    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            GridPreset::Full => "full",
            GridPreset::Smoke => "smoke",
        }
    }
}

/// One preset's grid: sizes × degrees, with a trial count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    /// Network sizes.
    pub sizes: Vec<usize>,
    /// Degree parameters.
    pub degrees: Vec<usize>,
    /// Independent trials per point.
    pub trials: usize,
}

impl Grid {
    /// A grid from explicit axes (trials clamped to at least 1).
    #[must_use]
    pub fn new(
        sizes: impl IntoIterator<Item = usize>,
        degrees: impl IntoIterator<Item = usize>,
        trials: usize,
    ) -> Self {
        Grid {
            sizes: sizes.into_iter().collect(),
            degrees: degrees.into_iter().collect(),
            trials: trials.max(1),
        }
    }
}

/// One fully resolved grid cell (a single trial).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// The network spec.
    pub net: NetSpec,
    /// Network size.
    pub n: usize,
    /// Degree parameter.
    pub d: usize,
    /// Death-victim policy.
    pub victim: VictimPolicy,
    /// Fault-axis point (the default [`FaultSpec::none`] on scenarios
    /// without a fault axis).
    pub fault: FaultSpec,
    /// Trial index within the point.
    pub trial: usize,
}

/// A declarative experiment: grid axes plus one measurement. Built with a
/// consuming builder:
///
/// ```
/// use churn_core::ModelKind;
/// use churn_sim::scenario::{
///     FloodingSpec, Grid, Measurement, NetSpec, RoundBudget, Scenario,
/// };
///
/// let scenario = Scenario::new(
///     "demo-flooding",
///     "Flooding over the regeneration models",
///     Measurement::ParallelFlooding(FloodingSpec {
///         budget: RoundBudget::EngineDefault,
///         record_isolation: false,
///     }),
/// )
/// .nets([
///     NetSpec::Baseline(ModelKind::Sdgr),
///     NetSpec::Baseline(ModelKind::Pdgr),
/// ])
/// .full_grid(Grid::new([1024, 4096], [8], 5))
/// .smoke_grid(Grid::new([128], [4], 1))
/// .base_seed(0xE6);
/// assert_eq!(scenario.cells(churn_sim::scenario::GridPreset::Smoke).len(), 2);
/// ```
///
/// An entry's `n = 10⁶` rows are derived from the entry itself with
/// [`Scenario::large`] and run by `exp run <name> --large`.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: String,
    title: String,
    /// What the scenario reproduces (paper artifact / theorem), shown in the
    /// runner's report header.
    reproduces: String,
    nets: Vec<NetSpec>,
    victims: Vec<VictimPolicy>,
    faults: Vec<FaultSpec>,
    full: Grid,
    smoke: Grid,
    base_seed: u64,
    measurement: Measurement,
    /// The `n = 10⁶` rows ([`Scenario::large`]).
    large: Option<Box<Scenario>>,
}

impl Scenario {
    /// Creates a scenario with empty grids, one uniform-victim axis entry
    /// and base seed 0.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        title: impl Into<String>,
        measurement: Measurement,
    ) -> Self {
        Scenario {
            name: name.into(),
            title: title.into(),
            reproduces: String::new(),
            nets: Vec::new(),
            victims: vec![VictimPolicy::Uniform],
            faults: vec![FaultSpec::none()],
            full: Grid::new([], [], 1),
            smoke: Grid::new([], [], 1),
            base_seed: 0,
            measurement,
            large: None,
        }
    }

    /// Sets the network axis.
    #[must_use]
    pub fn nets(mut self, nets: impl IntoIterator<Item = NetSpec>) -> Self {
        self.nets = nets.into_iter().collect();
        self
    }

    /// Sets the victim-policy axis (default: uniform only).
    #[must_use]
    pub fn victims(mut self, victims: impl IntoIterator<Item = VictimPolicy>) -> Self {
        self.victims = victims.into_iter().collect();
        self
    }

    /// Sets the fault axis (default: the single fault-free point). Only the
    /// event-driven measurements accept non-none points — `validate` rejects
    /// a fault axis on round-driven measurements.
    #[must_use]
    pub fn faults(mut self, faults: impl IntoIterator<Item = FaultSpec>) -> Self {
        self.faults = faults.into_iter().collect();
        self
    }

    /// Sets the full-preset grid.
    #[must_use]
    pub fn full_grid(mut self, grid: Grid) -> Self {
        self.full = grid;
        self
    }

    /// Sets the smoke-preset grid (tiny `n`, so the whole registry smokes in
    /// seconds).
    #[must_use]
    pub fn smoke_grid(mut self, grid: Grid) -> Self {
        self.smoke = grid;
        self
    }

    /// Sets the base seed all cell seeds derive from.
    #[must_use]
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Replaces the measurement (for large rows that change a knob of the
    /// entry's measurement; `validate` keeps its kind).
    #[must_use]
    pub fn with_measurement(mut self, measurement: Measurement) -> Self {
        self.measurement = measurement;
        self
    }

    /// Derives the entry's `n = 10⁶` rows: `rows` receives a copy of the
    /// entry named `<name>-1m`, with no smoke grid, and overrides the axes the
    /// large rows change (`full_grid`, `nets`, `victims`, `faults`,
    /// `with_measurement`). The copy keeps the entry's base seed, so the
    /// rows' records, cell seeds and checkpoint file (`<name>-1m.jsonl`) are
    /// those of a separately registered `<name>-1m` scenario. Call it last:
    /// it copies the entry as built so far.
    #[must_use]
    pub fn large(mut self, rows: impl FnOnce(Scenario) -> Scenario) -> Self {
        let base = Scenario {
            name: format!("{}-1m", self.name),
            title: format!("{} at n = 10^6", self.title),
            smoke: Grid::new([], [], 1),
            large: None,
            ..self.clone()
        };
        self.large = Some(Box::new(rows(base)));
        self
    }

    /// Sets the reproduced paper artifact shown in report headers.
    #[must_use]
    pub fn reproduces(mut self, artifact: impl Into<String>) -> Self {
        self.reproduces = artifact.into();
        self
    }

    /// The scenario's registry name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The human-readable title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The reproduced paper artifact (empty when not set).
    #[must_use]
    pub fn reproduced_artifact(&self) -> &str {
        &self.reproduces
    }

    /// The measurement every cell runs.
    #[must_use]
    pub fn measurement(&self) -> &Measurement {
        &self.measurement
    }

    /// The entry's `n = 10⁶` rows, when it declares them
    /// ([`Scenario::large`]).
    #[must_use]
    pub fn large_rows(&self) -> Option<&Scenario> {
        self.large.as_deref()
    }

    /// The network axis.
    #[must_use]
    pub fn net_axis(&self) -> &[NetSpec] {
        &self.nets
    }

    /// The fault axis (a single [`FaultSpec::none`] on scenarios without
    /// one).
    #[must_use]
    pub fn fault_axis(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// `true` when any fault-axis point injects faults — the scenarios
    /// `exp list` shows a fault column for.
    #[must_use]
    pub fn has_fault_axis(&self) -> bool {
        self.faults.iter().any(|f| !f.is_none())
    }

    /// The grid of one preset.
    #[must_use]
    pub fn grid(&self, preset: GridPreset) -> &Grid {
        match preset {
            GridPreset::Full => &self.full,
            GridPreset::Smoke => &self.smoke,
        }
    }

    /// The cells of one preset, in deterministic order (net-major, then
    /// size, degree, victim, fault, trial) — also the order records are
    /// written in.
    #[must_use]
    pub fn cells(&self, preset: GridPreset) -> Vec<CellSpec> {
        let grid = self.grid(preset);
        let mut cells = Vec::new();
        for &net in &self.nets {
            for &n in &grid.sizes {
                for &d in &grid.degrees {
                    for &victim in &self.victims {
                        for &fault in &self.faults {
                            for trial in 0..grid.trials {
                                cells.push(CellSpec {
                                    net,
                                    n,
                                    d,
                                    victim,
                                    fault,
                                    trial,
                                });
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// The deterministic seed of one cell — the cell's *identity* in the
    /// checkpoint file. Depends only on the cell's values and the base seed
    /// (adding a grid row never re-seeds existing cells). Baseline nets and
    /// the default RAES net keep the seeds of the pre-engine experiment
    /// binaries, so their recorded trajectories reproduce.
    #[must_use]
    pub fn cell_seed(&self, cell: &CellSpec) -> u64 {
        let mut point_tag = derive_seed(
            derive_seed(cell.n as u64, cell.d as u64),
            cell.net.seed_tag(),
        );
        if cell.victim.is_adversarial() {
            point_tag = derive_seed(
                point_tag,
                match cell.victim {
                    VictimPolicy::Uniform => unreachable!("guarded by is_adversarial"),
                    VictimPolicy::OldestFirst => 0xAD_01,
                    VictimPolicy::HighestDegree => 0xAD_02,
                },
            );
        }
        // Like the adversary axis, an inactive fault point mixes nothing:
        // the `none` rows of a fault scenario share seeds (and records, bit
        // for bit) with a fault-free sibling on the same base seed.
        if !cell.fault.is_none() {
            point_tag = derive_seed(point_tag, cell.fault.seed_tag());
        }
        derive_seed(self.base_seed ^ point_tag, cell.trial as u64)
    }

    /// Validates that every `(net, victim, measurement)` combination is
    /// constructible, so authoring mistakes surface at registration instead
    /// of `n` cells into a grid.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid combination.
    pub fn validate(&self) -> Result<(), String> {
        if self.nets.is_empty() {
            return Err(format!("scenario {:?} has an empty net axis", self.name));
        }
        if self.victims.is_empty() {
            return Err(format!("scenario {:?} has an empty victim axis", self.name));
        }
        for &net in &self.nets {
            for &victim in &self.victims {
                let streaming_churn = match net {
                    NetSpec::Baseline(kind) => kind.is_streaming(),
                    NetSpec::Raes(spec) => spec.churn == ChurnDriver::Streaming,
                    NetSpec::Static | NetSpec::P2p => true,
                };
                if streaming_churn && victim == VictimPolicy::HighestDegree {
                    return Err(format!(
                        "scenario {:?}: net {} cannot run degree-targeted deaths \
                         (streaming churn has a fixed death schedule)",
                        self.name,
                        net.label()
                    ));
                }
                if matches!(net, NetSpec::Static | NetSpec::P2p) && victim != VictimPolicy::Uniform
                {
                    return Err(format!(
                        "scenario {:?}: net {} does not support victim policies",
                        self.name,
                        net.label()
                    ));
                }
                let compatible = match self.measurement {
                    Measurement::StaticBaseline => matches!(net, NetSpec::Static),
                    Measurement::P2pPropagation { .. } => matches!(net, NetSpec::P2p),
                    Measurement::RaesTracking { .. } => matches!(net, NetSpec::Raes(_)),
                    Measurement::AsyncRaes(_) => matches!(
                        net,
                        NetSpec::Raes(spec)
                            if spec.churn == ChurnDriver::Streaming
                                && !spec.adversary.is_active()
                    ),
                    Measurement::OnionSkin => {
                        matches!(net, NetSpec::Baseline(ModelKind::Sdg))
                    }
                    Measurement::PoissonDemographics { .. } => matches!(
                        net,
                        NetSpec::Baseline(ModelKind::Pdg) | NetSpec::Baseline(ModelKind::Pdgr)
                    ),
                    _ => !matches!(net, NetSpec::Static | NetSpec::P2p),
                };
                if !compatible {
                    return Err(format!(
                        "scenario {:?}: net {} is incompatible with measurement {:?}",
                        self.name,
                        net.label(),
                        self.measurement
                    ));
                }
                for grid in [&self.full, &self.smoke] {
                    for &n in &grid.sizes {
                        for &d in &grid.degrees {
                            net.validate_point(n, d, victim).map_err(|e| {
                                format!(
                                    "scenario {:?}: net {} at n = {n}, d = {d}: {e}",
                                    self.name,
                                    net.label()
                                )
                            })?;
                        }
                    }
                }
                if matches!(self.measurement, Measurement::AsyncRaes(_))
                    && victim != VictimPolicy::Uniform
                {
                    return Err(format!(
                        "scenario {:?}: the asynchronous RAES model drives its own \
                         streaming churn and supports only uniform victims",
                        self.name
                    ));
                }
            }
        }
        let async_models = match self.measurement {
            Measurement::AsyncFlooding(spec) => Some((spec.latency, spec.bandwidth)),
            Measurement::AsyncRaes(spec) => Some((spec.latency, spec.bandwidth)),
            _ => None,
        };
        if let Some((latency, bandwidth)) = async_models {
            latency
                .validate()
                .map_err(|e| format!("scenario {:?}: {e}", self.name))?;
            bandwidth
                .validate()
                .map_err(|e| format!("scenario {:?}: {e}", self.name))?;
        }
        if self.faults.is_empty() {
            return Err(format!("scenario {:?} has an empty fault axis", self.name));
        }
        for fault in &self.faults {
            fault
                .validate()
                .map_err(|e| format!("scenario {:?}: {e}", self.name))?;
            if fault.is_none() {
                continue;
            }
            match self.measurement {
                Measurement::AsyncFlooding(_) => {
                    if fault.retry.is_some() {
                        return Err(format!(
                            "scenario {:?}: fault point {} sets a retry policy, \
                             which only the async RAES measurement consumes",
                            self.name,
                            fault.label()
                        ));
                    }
                }
                Measurement::AsyncRaes(_) => {
                    if fault.anti_entropy.is_some() {
                        return Err(format!(
                            "scenario {:?}: fault point {} sets anti-entropy, \
                             which only the async flooding measurement consumes",
                            self.name,
                            fault.label()
                        ));
                    }
                }
                _ => {
                    return Err(format!(
                        "scenario {:?}: fault point {} on measurement {:?} \
                         (only the event-driven measurements inject faults)",
                        self.name,
                        fault.label(),
                        self.measurement
                    ));
                }
            }
        }
        if let Some(large) = &self.large {
            large.validate()?;
            // The large rows are the entry at another scale: same seed
            // stream, same kind of measurement.
            if large.base_seed != self.base_seed
                || large.measurement.kind() != self.measurement.kind()
            {
                return Err(format!(
                    "scenario {:?}: its large rows must keep base seed {:#x} and a {} \
                     measurement",
                    self.name,
                    self.base_seed,
                    self.measurement.kind()
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Records and their codec (the JSONL schema)
// ---------------------------------------------------------------------------

fn escape_json(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn format_value(value: f64) -> String {
    if value.is_finite() {
        let formatted = format!("{value}");
        // JSON has no distinct integer type, but serde_json prints whole f64s
        // with a trailing `.0`; match that so round-trips are byte-stable.
        if formatted.contains(['.', 'e', 'E']) {
            formatted
        } else {
            format!("{formatted}.0")
        }
    } else {
        // JSON cannot represent non-finite numbers; serde_json writes null.
        "null".to_owned()
    }
}

/// One record as one JSON object on one line, written key by key in call
/// order. Every record kind serialises through it, so escaping, the number
/// format and comma placement live here alone.
struct Line(String);

impl Line {
    fn new() -> Self {
        Line(String::with_capacity(256) + "{")
    }

    /// Writes `"key":`, after a comma unless an object just opened, and
    /// returns the buffer the value goes into.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.0.ends_with('{') {
            self.0.push(',');
        }
        escape_json(key, &mut self.0);
        self.0.push(':');
        &mut self.0
    }

    fn str(mut self, key: &str, value: &str) -> Self {
        escape_json(value, self.key(key));
        self
    }

    /// A string field that is left out entirely when `None`.
    fn opt_str(self, key: &str, value: Option<&str>) -> Self {
        match value {
            Some(value) => self.str(key, value),
            None => self,
        }
    }

    fn int(mut self, key: &str, value: u64) -> Self {
        self.key(key).push_str(&value.to_string());
        self
    }

    fn num(mut self, key: &str, value: f64) -> Self {
        self.key(key).push_str(&format_value(value));
        self
    }

    /// An ordered `{name: number}` object.
    fn numbers(mut self, key: &str, entries: &[(String, f64)]) -> Self {
        self.key(key).push('{');
        for (name, value) in entries {
            self = self.num(name, *value);
        }
        self.0.push('}');
        self
    }

    /// An ordered `{name: [number, …]}` object.
    fn columns(mut self, key: &str, columns: &[(String, Vec<f64>)]) -> Self {
        self.key(key).push('{');
        for (name, values) in columns {
            let values: Vec<String> = values.iter().map(|&value| format_value(value)).collect();
            self.key(name).push_str(&format!("[{}]", values.join(",")));
        }
        self.0.push('}');
        self
    }

    fn end(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// Opens a record's [`Line`] with the identity header every record kind
/// shares, in this order: `scenario, net, n, d, victim, [fault], trial,
/// seed`. The fault key is omitted when `None`, so fault-free lines keep
/// their pre-fault bytes.
macro_rules! header {
    ($record:expr, $fault:expr) => {
        Line::new()
            .str("scenario", &$record.scenario)
            .str("net", &$record.net)
            .int("n", $record.n as u64)
            .int("d", $record.d as u64)
            .str("victim", &$record.victim)
            .opt_str("fault", $fault)
            .int("trial", $record.trial as u64)
            .int("seed", $record.seed)
    };
}

/// One parsed record line, read field by field. Every record kind parses
/// through it, with one error message per expected type. JSON objects do
/// not order their keys, so `{name: …}` objects come back sorted by name.
struct Fields(minijson::Value);

impl Fields {
    fn parse(line: &str) -> Result<Self, String> {
        minijson::parse(line).map(Fields)
    }

    fn has(&self, key: &str) -> bool {
        self.0.get(key).is_some()
    }

    fn get(&self, key: &str) -> Result<&minijson::Value, String> {
        self.0
            .get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    fn read<T>(
        &self,
        key: &str,
        kind: &str,
        read: impl FnOnce(&minijson::Value) -> Option<T>,
    ) -> Result<T, String> {
        read(self.get(key)?).ok_or_else(|| format!("{key} must be {kind}"))
    }

    fn str(&self, key: &str) -> Result<String, String> {
        self.read(key, "a string", minijson::Value::as_string)
    }

    /// A string field that may be absent (written by [`Line::opt_str`]).
    fn opt_str(&self, key: &str) -> Result<Option<String>, String> {
        self.has(key).then(|| self.str(key)).transpose()
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.read(key, "an integer", minijson::Value::as_u64)
    }

    fn usize(&self, key: &str) -> Result<usize, String> {
        self.read(key, "an integer", minijson::Value::as_usize)
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        self.read(key, "a number", minijson::Value::as_f64)
    }

    fn numbers(&self, key: &str) -> Result<Vec<(String, f64)>, String> {
        self.entries(key, "a number", minijson::Value::as_f64)
    }

    fn columns(&self, key: &str) -> Result<Vec<(String, Vec<f64>)>, String> {
        self.entries(key, "an array of numbers", |value| {
            value
                .as_array()?
                .iter()
                .map(minijson::Value::as_f64)
                .collect()
        })
    }

    fn entries<T>(
        &self,
        key: &str,
        kind: &str,
        read: impl Fn(&minijson::Value) -> Option<T>,
    ) -> Result<Vec<(String, T)>, String> {
        let minijson::Value::Object(entries) = self.get(key)? else {
            return Err(format!("{key} must be an object"));
        };
        entries
            .iter()
            .map(|(name, value)| {
                let value = read(value).ok_or_else(|| format!("{key} {name:?} must be {kind}"))?;
                Ok((name.clone(), value))
            })
            .collect()
    }
}

/// Reads a JSONL record file as `(record, raw line)` pairs, skipping blank
/// lines; the resume path re-emits the raw bytes verbatim. With
/// `repair_tail` a torn last line (see [`load_cell_records`]) is dropped;
/// without it every line must parse. A malformed line before the last is
/// [`io::ErrorKind::InvalidData`] either way.
fn read_records<T>(
    path: &Path,
    parse: fn(&str) -> Result<T, String>,
    repair_tail: bool,
) -> io::Result<Vec<(T, String)>> {
    let data = fs::read(path)?;
    let mut out = Vec::new();
    let mut lines = data.split_inclusive(|&b| b == b'\n').enumerate().peekable();
    while let Some((k, line)) = lines.next() {
        let is_last = lines.peek().is_none();
        let complete = line.last() == Some(&b'\n');
        let text = std::str::from_utf8(line).map(|text| text.trim_end_matches(['\n', '\r']));
        if text.is_ok_and(|text| text.trim().is_empty()) {
            continue;
        }
        let parsed = text
            .map_err(|_| "invalid UTF-8".to_string())
            .and_then(|text| parse(text).map(|record| (record, text.to_string())));
        match parsed {
            Ok(record) if complete || !repair_tail => out.push(record),
            // A parseable tail without its newline is an interrupted write:
            // drop it, the cell re-runs.
            Ok(_) => break,
            Err(e) if repair_tail && is_last => {
                eprintln!(
                    "warning: {}: dropping corrupt trailing line ({e}); \
                     its cell re-runs on --resume",
                    path.display()
                );
                break;
            }
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}:{}: {e}", path.display(), k + 1),
                ));
            }
        }
    }
    Ok(out)
}

/// One completed cell: its identity plus the measured metrics, stored as one
/// JSON line in `results/<scenario>.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Scenario name.
    pub scenario: String,
    /// Network-spec label ([`NetSpec::label`]).
    pub net: String,
    /// Network size.
    pub n: usize,
    /// Degree parameter.
    pub d: usize,
    /// Victim-policy label.
    pub victim: String,
    /// Fault-axis label ([`FaultSpec::label`]); `None` on fault-free cells,
    /// whose serialised lines stay byte-identical to pre-fault records.
    pub fault: Option<String>,
    /// Trial index.
    pub trial: usize,
    /// The cell's deterministic seed — its checkpoint identity.
    pub seed: u64,
    /// Named scalar metrics, in measurement order.
    pub metrics: Vec<(String, f64)>,
}

impl CellRecord {
    /// A stable grouping key for reports: `(net, n, d, victim)`, with the
    /// fault label folded into the net column (`SDGR/loss0.1`) so fault
    /// points are never averaged together.
    #[must_use]
    pub fn group_key(&self) -> (String, usize, usize, String) {
        let net = match &self.fault {
            Some(fault) => format!("{}/{fault}", self.net),
            None => self.net.clone(),
        };
        (net, self.n, self.d, self.victim.clone())
    }

    /// Looks up one metric by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(metric, _)| metric == name)
            .map(|&(_, value)| value)
    }

    /// Serialises the record as one JSON line (no trailing newline). The
    /// encoding is deterministic — field order fixed, metrics in measurement
    /// order, numbers in `serde_json` format — so two runs of the same cells
    /// produce byte-identical files.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        header!(self, self.fault.as_deref())
            .numbers("metrics", &self.metrics)
            .end()
    }

    /// Parses a record from one JSON line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let f = Fields::parse(line)?;
        Ok(CellRecord {
            scenario: f.str("scenario")?,
            net: f.str("net")?,
            n: f.usize("n")?,
            d: f.usize("d")?,
            victim: f.str("victim")?,
            fault: f.opt_str("fault")?,
            trial: f.usize("trial")?,
            seed: f.u64("seed")?,
            metrics: f.numbers("metrics")?,
        })
    }
}

/// Loads every record of a scenario output file (one JSON object per line;
/// blank lines are skipped). A *trailing* partial or corrupt line — the
/// signature of a run killed mid-write (truncated record, torn bytes, even
/// invalid UTF-8) — is detected, logged to stderr and dropped, so a resumed
/// run simply re-executes that cell and the repaired file comes out
/// bit-identical to an uninterrupted run.
///
/// Note: JSON objects do not order their keys, so a *loaded* record's
/// metrics come back sorted by name; the on-disk bytes keep measurement
/// order.
///
/// # Errors
///
/// Returns any I/O error; a malformed complete line *followed by more data*
/// cannot be a torn trailing write and is reported as corruption.
pub fn load_cell_records(path: &Path) -> io::Result<Vec<CellRecord>> {
    read_records(path, CellRecord::from_json_line, true)
        .map(|lines| lines.into_iter().map(|(record, _)| record).collect())
}

// ---------------------------------------------------------------------------
// Per-round time series
// ---------------------------------------------------------------------------

/// The per-round time series of one cell, streamed to the
/// `.series.jsonl` side file when [`RunOptions::series`] is on.
///
/// The identity prefix (`scenario` … `seed`) matches the cell's
/// [`CellRecord`] in the main output file; `seed` is the deterministic join
/// key between the two. The series itself is column-oriented: named `f64`
/// arrays, all the same length (one entry per round, or per unit of
/// simulated time for the asynchronous measurements), with `NaN` encoding
/// as `null`.
///
/// Series records are deterministic — same cell, same seed, same bytes — and
/// never contain wall-clock values. The file follows the side-file
/// lifecycle: rewritten in cell order each series-enabled run, carried over
/// byte-verbatim for checkpointed cells on `--resume`, and removed by runs
/// with series recording off.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRecord {
    /// Scenario name.
    pub scenario: String,
    /// Network-spec label.
    pub net: String,
    /// Network size.
    pub n: usize,
    /// Degree parameter.
    pub d: usize,
    /// Victim-policy label.
    pub victim: String,
    /// Fault-axis label; `None` on fault-free cells (omitted from the line,
    /// mirroring [`CellRecord`]).
    pub fault: Option<String>,
    /// Trial index.
    pub trial: usize,
    /// The cell's deterministic seed — the join key to the main record.
    pub seed: u64,
    /// Named per-round columns, in measurement order; every array has
    /// [`Self::rounds`] entries.
    pub series: Vec<(String, Vec<f64>)>,
}

impl SeriesRecord {
    /// Number of rounds recorded (the length of every column).
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.series.first().map_or(0, |(_, v)| v.len())
    }

    /// The values of one named column.
    #[must_use]
    pub fn column(&self, name: &str) -> Option<&[f64]> {
        self.series
            .iter()
            .find(|(column, _)| column == name)
            .map(|(_, values)| values.as_slice())
    }

    /// Serialises the record as one JSON line (no trailing newline), in the
    /// same deterministic encoding as [`CellRecord::to_json_line`]; `NaN`
    /// (and any non-finite value) encodes as `null`.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        header!(self, self.fault.as_deref())
            .int("rounds", self.rounds() as u64)
            .columns("series", &self.series)
            .end()
    }

    /// Parses a record from one JSON line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field (including
    /// columns whose length disagrees with the recorded `rounds`).
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let f = Fields::parse(line)?;
        let rounds = f.usize("rounds")?;
        let series = f.columns("series")?;
        if let Some((column, values)) = series.iter().find(|(_, v)| v.len() != rounds) {
            return Err(format!(
                "series column {column:?} has {} entries, expected {rounds}",
                values.len()
            ));
        }
        Ok(SeriesRecord {
            scenario: f.str("scenario")?,
            net: f.str("net")?,
            n: f.usize("n")?,
            d: f.usize("d")?,
            victim: f.str("victim")?,
            fault: f.opt_str("fault")?,
            trial: f.usize("trial")?,
            seed: f.u64("seed")?,
            series,
        })
    }
}

/// Loads every series record of a `.series.jsonl` side file. Like
/// [`load_cell_records`], a torn *trailing* line (the signature of an
/// interrupted run) is dropped with a warning; interior corruption is an
/// error. Note that loaded records come back with their columns sorted by
/// name (JSON objects do not order keys); the on-disk bytes keep
/// measurement order.
///
/// # Errors
///
/// Returns any I/O error, or corruption before the last line.
pub fn load_series_records(path: &Path) -> io::Result<Vec<SeriesRecord>> {
    read_records(path, SeriesRecord::from_json_line, true)
        .map(|lines| lines.into_iter().map(|(record, _)| record).collect())
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The collection of registered scenarios the `exp` runner serves.
#[derive(Debug, Default)]
pub struct ScenarioRegistry {
    entries: Vec<Scenario>,
}

impl ScenarioRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a scenario, validating it first.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name (an entry's large rows count: they own
    /// the `<name>-1m` files) or an invalid spec, including large rows that
    /// change the entry's base seed or measurement kind — registration
    /// happens at startup, so authoring mistakes fail fast.
    pub fn register(&mut self, scenario: Scenario) {
        if let Err(e) = scenario.validate() {
            panic!("invalid scenario: {e}");
        }
        let taken: Vec<&str> = self
            .entries
            .iter()
            .flat_map(|entry| std::iter::once(entry).chain(entry.large_rows()))
            .map(Scenario::name)
            .collect();
        for name in std::iter::once(&scenario)
            .chain(scenario.large_rows())
            .map(Scenario::name)
        {
            assert!(!taken.contains(&name), "duplicate scenario name {name:?}");
        }
        self.entries.push(scenario);
    }

    /// Looks a scenario up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.entries.iter().find(|s| s.name() == name)
    }

    /// Every registered scenario, in registration order.
    #[must_use]
    pub fn scenarios(&self) -> &[Scenario] {
        &self.entries
    }

    /// The registered names, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(Scenario::name).collect()
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Per-cell thread budget of the scenario engine's batches: the pool
/// divided by the number of cells that will actually run concurrently, never
/// below 1. One big cell gets the whole machine; a grid wider than the
/// machine gets one thread per cell.
fn sweep_cell_threads(cells: usize) -> usize {
    let pool = rayon::current_num_threads().max(1);
    (pool / pool.min(cells.max(1))).max(1)
}

/// Options of one [`run_scenario`] invocation.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Which grid to run.
    pub preset: GridPreset,
    /// Resume from the existing output file (skip cells whose seed is
    /// already recorded) instead of starting fresh.
    pub resume: bool,
    /// Directory the `<name>.jsonl` / `<name>.smoke.jsonl` files live in.
    pub dir: PathBuf,
    /// Stop after executing this many *new* cells (used by the
    /// resume-determinism tests to simulate an interrupted run).
    pub limit: Option<usize>,
    /// Turn the telemetry layer on: measurements that support it (see
    /// [`Measurement::supports_series`]) stream a per-round [`SeriesRecord`]
    /// to the `.series.jsonl` side file, and a per-cell phase profiler is
    /// attached whose wall-clock breakdown lands in the `.load.jsonl`
    /// records. Off by default — with it off no subscriber is ever attached,
    /// the engines' hot paths pay one branch per emission site, and the
    /// main output file stays byte-identical either way (the telemetry
    /// layer observes, it never steers).
    pub series: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            preset: GridPreset::Full,
            resume: false,
            dir: PathBuf::from("results"),
            limit: None,
            series: false,
        }
    }
}

/// Summary of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Every record now present in the output file, in cell order.
    pub records: Vec<CellRecord>,
    /// Cells executed by this invocation.
    pub executed: usize,
    /// Cells skipped because the checkpoint already held them.
    pub skipped: usize,
    /// Total cells of the grid.
    pub total: usize,
    /// The output file.
    pub path: PathBuf,
    /// Cells that panicked this invocation (also recorded in the
    /// `.failures.jsonl` side file). The grid keeps running past them; a
    /// later `--resume` retries exactly these cells.
    pub failures: Vec<CellFailure>,
    /// Wall-clock throughput of the cells *executed this invocation* (also
    /// written to the non-checkpointed `.load.jsonl` side file; skipped
    /// checkpointed cells have no load record).
    pub loads: Vec<LoadRecord>,
}

/// A cell that panicked during execution. Failures never enter the main
/// checkpoint file (whose bytes stay bit-identical to a clean run); they are
/// appended to a `.failures.jsonl` side file and surfaced in
/// [`ScenarioOutcome::failures`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellFailure {
    /// Scenario name.
    pub scenario: String,
    /// Network label of the cell.
    pub net: String,
    /// Network size.
    pub n: usize,
    /// Degree parameter.
    pub d: usize,
    /// Victim policy label.
    pub victim: String,
    /// Trial index.
    pub trial: usize,
    /// The cell's seed (its checkpoint identity — resume retries it).
    pub seed: u64,
    /// The panic message.
    pub error: String,
}

impl CellFailure {
    /// Serialises the failure as one JSON line (same identity fields as
    /// [`CellRecord::to_json_line`], with the panic message in place of
    /// metrics).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        header!(self, None).str("error", &self.error).end()
    }
}

/// Per-cell wall-clock throughput, written to the non-checkpointed
/// `.load.jsonl` side file (one line per cell *executed this invocation*).
///
/// Wall-clock time is inherently nondeterministic, so it must never enter
/// the main checkpoint file (whose bytes are pinned bit-identical across
/// runs and resumes by the golden suite) — throughput lives here instead.
/// The work-unit column adapts to the measurement: event-driven cells
/// report events per second, round-driven cells rounds per second, and
/// anything else counts the cell itself.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadRecord {
    /// Scenario name.
    pub scenario: String,
    /// Network label of the cell.
    pub net: String,
    /// Network size.
    pub n: usize,
    /// Degree parameter.
    pub d: usize,
    /// Victim policy label.
    pub victim: String,
    /// Fault-axis label; `None` on fault-free cells (omitted from the line,
    /// mirroring [`CellRecord`]).
    pub fault: Option<String>,
    /// Trial index.
    pub trial: usize,
    /// The cell's seed.
    pub seed: u64,
    /// Wall-clock seconds the cell's measurement took.
    pub wall_s: f64,
    /// The throughput work unit (`events`, `rounds` or `cells`).
    pub unit: &'static str,
    /// Work units the cell performed.
    pub units: f64,
    /// Work units per wall-clock second.
    pub units_per_s: f64,
    /// Wall-clock seconds per engine phase (`churn`, `sweep`, `observe`,
    /// `snapshot`, `event-loop`, …), in first-appearance order. Empty unless
    /// the run attached the phase profiler ([`RunOptions::series`]). Spans
    /// nest (`raes-round` inside `churn`; `event-loop` around everything an
    /// async engine does), so entries break the cell's time down — they do
    /// not sum to `wall_s`.
    pub phases: Vec<(String, f64)>,
}

impl LoadRecord {
    /// Serialises the load record as one JSON line.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let line = header!(self, self.fault.as_deref())
            .num("wall_s", self.wall_s)
            .str("unit", self.unit)
            .num("units", self.units)
            .num("units_per_s", self.units_per_s);
        if self.phases.is_empty() {
            line.end()
        } else {
            line.numbers("phases", &self.phases).end()
        }
    }

    /// Parses a load record from one JSON line.
    ///
    /// As with [`CellRecord::from_json_line`], JSON objects do not order
    /// their keys, so a loaded record's phases come back sorted by name
    /// rather than in first-appearance order.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let f = Fields::parse(line)?;
        let unit = match f.str("unit")?.as_str() {
            "events" => "events",
            "rounds" => "rounds",
            "cells" => "cells",
            other => return Err(format!("unknown work unit {other:?}")),
        };
        Ok(LoadRecord {
            scenario: f.str("scenario")?,
            net: f.str("net")?,
            n: f.usize("n")?,
            d: f.usize("d")?,
            victim: f.str("victim")?,
            fault: f.opt_str("fault")?,
            trial: f.usize("trial")?,
            seed: f.u64("seed")?,
            wall_s: f.f64("wall_s")?,
            unit,
            units: f.f64("units")?,
            units_per_s: f.f64("units_per_s")?,
            phases: if f.has("phases") {
                f.numbers("phases")?
            } else {
                Vec::new()
            },
        })
    }
}

/// Loads every load record of a `.load.jsonl` side file (one JSON object
/// per line; blank lines are skipped). The file is re-created on every
/// invocation rather than checkpointed, so unlike [`load_cell_records`]
/// there is no torn-tail repair: any malformed line is an error.
///
/// # Errors
///
/// Returns any I/O error; malformed lines are reported as corruption.
pub fn load_load_records(path: &Path) -> io::Result<Vec<LoadRecord>> {
    read_records(path, LoadRecord::from_json_line, false)
        .map(|lines| lines.into_iter().map(|(record, _)| record).collect())
}

/// The throughput work unit of one cell, extracted from its metrics:
/// event-driven measurements count processed events, round-driven ones
/// flooding rounds; everything else counts the cell itself.
fn cell_work_units(metrics: &[(String, f64)]) -> (&'static str, f64) {
    for (name, unit) in [
        ("events_processed", "events"),
        ("flooding_rounds", "rounds"),
    ] {
        if let Some((_, value)) = metrics.iter().find(|(metric, _)| metric == name) {
            return (unit, *value);
        }
    }
    ("cells", 1.0)
}

/// One successfully executed cell, as handed from a batch worker to the
/// writer: the checkpoint record plus the side-file payloads (wall-clock,
/// optional pre-serialised series line, optional phase breakdown).
struct CellRun {
    record: CellRecord,
    wall_s: f64,
    series_line: Option<String>,
    phases: Vec<(String, f64)>,
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// `<dir>/<name>.<kind>` under the full preset, `<dir>/<name>.smoke.<kind>`
/// under the smoke preset.
fn scenario_file(scenario: &Scenario, opts: &RunOptions, kind: &str) -> PathBuf {
    let preset = match opts.preset {
        GridPreset::Full => "",
        GridPreset::Smoke => "smoke.",
    };
    opts.dir.join(format!("{}.{preset}{kind}", scenario.name()))
}

/// The output path of a scenario under the given options.
#[must_use]
pub fn scenario_output_path(scenario: &Scenario, opts: &RunOptions) -> PathBuf {
    scenario_file(scenario, opts, "jsonl")
}

/// The side file panicking cells are recorded to
/// (`<name>.failures.jsonl` / `<name>.smoke.failures.jsonl`).
#[must_use]
pub fn scenario_failures_path(scenario: &Scenario, opts: &RunOptions) -> PathBuf {
    scenario_file(scenario, opts, "failures.jsonl")
}

/// The side file per-cell wall-clock throughput is written to
/// (`<name>.load.jsonl` / `<name>.smoke.load.jsonl`). Re-created on every
/// invocation — wall-clock is not part of the deterministic checkpoint.
#[must_use]
pub fn scenario_load_path(scenario: &Scenario, opts: &RunOptions) -> PathBuf {
    scenario_file(scenario, opts, "load.jsonl")
}

/// The side file per-round time series are streamed to
/// (`<name>.series.jsonl` / `<name>.smoke.series.jsonl`). Written only by
/// series-enabled runs ([`RunOptions::series`]); a run with series off
/// removes a stale one. On `--resume` with series on, lines of checkpointed
/// cells carry over byte-verbatim and only re-executed cells re-emit.
#[must_use]
pub fn scenario_series_path(scenario: &Scenario, opts: &RunOptions) -> PathBuf {
    scenario_file(scenario, opts, "series.jsonl")
}

/// A side file that only this invocation's cells write (failures, load):
/// removed when the run starts, since a previous run's lines are stale
/// either way; created on its first line, so a run with nothing to record
/// leaves no file; flushed after every line.
struct SideFile {
    path: PathBuf,
    file: Option<fs::File>,
}

impl SideFile {
    fn reset(path: PathBuf) -> Self {
        let _ = fs::remove_file(&path);
        SideFile { path, file: None }
    }

    fn write_line(&mut self, line: &str) -> io::Result<()> {
        let file = match self.file.as_mut() {
            Some(file) => file,
            None => self.file.insert(fs::File::create(&self.path)?),
        };
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()
    }
}

/// Writes one cell's checkpoint line and, when the series file is open,
/// its series line: the series file advances in lockstep with the main
/// checkpoint. Not every cell has a series line — carried-over pre-series
/// checkpoints don't — so absence just skips.
fn write_cell(
    file: &mut fs::File,
    series_file: Option<&mut fs::File>,
    line: &str,
    series_line: Option<&String>,
) -> io::Result<()> {
    file.write_all(line.as_bytes())?;
    file.write_all(b"\n")?;
    if let (Some(side), Some(series_line)) = (series_file, series_line) {
        side.write_all(series_line.as_bytes())?;
        side.write_all(b"\n")?;
    }
    Ok(())
}

/// Runs a scenario's grid, streaming one JSON record per completed cell to
/// the scenario's output file.
///
/// Cells run in deterministic order, parallelised in batches (each
/// concurrently scheduled cell gets `pool / concurrent` threads for its
/// in-cell engines, so nested parallelism never oversubscribes). The output
/// file is written
/// strictly *in cell order*: after every batch the writer advances past
/// every cell whose line is available — records computed this run
/// serialised once, records carried over from a `--resume` checkpoint
/// copied byte-verbatim — and flushes. An interrupted run therefore leaves
/// a valid in-order prefix of the full output, and a `--resume` run
/// executes exactly the missing cells (including a cell dropped from a torn
/// trailing write and cells that panicked last time) and splices them into
/// their grid positions: because every cell's randomness derives from its
/// own seed and the engines are thread-count independent, the repaired file
/// is **bit-identical** to an uninterrupted run.
///
/// # Errors
///
/// Returns any I/O error from the checkpoint file.
pub fn run_scenario(scenario: &Scenario, opts: &RunOptions) -> io::Result<ScenarioOutcome> {
    let path = scenario_output_path(scenario, opts);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    // Every available line, keyed by cell seed: carried-over checkpoint
    // lines first (raw bytes, never re-serialised), freshly computed records
    // as batches complete.
    let mut lines: HashMap<u64, String> = if opts.resume && path.exists() {
        read_records(&path, CellRecord::from_json_line, true)?
            .into_iter()
            .map(|(record, raw)| (record.seed, raw))
            .collect()
    } else {
        HashMap::new()
    };

    let cells = scenario.cells(opts.preset);
    let total = cells.len();
    let all: Vec<(CellSpec, u64)> = cells
        .iter()
        .map(|&cell| (cell, scenario.cell_seed(&cell)))
        .collect();
    let mut todo: Vec<(CellSpec, u64)> = all
        .iter()
        .filter(|(_, seed)| !lines.contains_key(seed))
        .copied()
        .collect();
    let skipped = total - todo.len();
    if let Some(limit) = opts.limit {
        todo.truncate(limit);
    }

    // The checkpoint is rewritten in cell order every run; carried-over
    // lines only leave memory once they are written back, so an undisturbed
    // resume loses nothing.
    let mut file = fs::File::create(&path)?;

    // A resume retries exactly the failed cells, and wall-clock from a
    // previous run describes a different machine state.
    let mut failures_file = SideFile::reset(scenario_failures_path(scenario, opts));
    let mut failures: Vec<CellFailure> = Vec::new();
    let mut load_file = SideFile::reset(scenario_load_path(scenario, opts));
    let mut loads: Vec<LoadRecord> = Vec::new();

    // The series side file mirrors the main checkpoint's lifecycle when
    // series recording is on: carried-over lines are re-emitted byte-
    // verbatim in cell order, fresh cells append theirs. With series off the
    // file would go stale (re-executed cells could not refresh their lines),
    // so it is removed instead.
    let series_path = scenario_series_path(scenario, opts);
    let mut series_lines: HashMap<u64, String> = HashMap::new();
    let mut series_file: Option<fs::File> = None;
    if opts.series {
        if opts.resume && series_path.exists() {
            series_lines = read_records(&series_path, SeriesRecord::from_json_line, true)?
                .into_iter()
                .map(|(record, raw)| (record.seed, raw))
                .collect();
        }
        if scenario.measurement().supports_series() {
            series_file = Some(fs::File::create(&series_path)?);
        } else {
            let _ = fs::remove_file(&series_path);
        }
    } else {
        let _ = fs::remove_file(&series_path);
    }

    let pool = rayon::current_num_threads().max(1);
    let batch_size = (pool * 2).max(1);
    let mut executed = 0usize;
    // Write cursor over the full grid: advanced after every batch past every
    // cell whose line is available, stopping at the first cell that is still
    // pending (a later batch) or has no line at all (panicked, or cut by
    // `limit`).
    let mut cursor = 0usize;
    for batch in todo.chunks(batch_size) {
        let threads = sweep_cell_threads(batch.len());
        let batch_records: Vec<Result<CellRun, Box<CellFailure>>> = batch
            .par_iter()
            .map(|&(cell, seed)| {
                // A panicking cell must not take the grid down: it is caught,
                // recorded as a structured failure, and the batch (and every
                // later batch) keeps running. The closure only touches the
                // cell's own state, so unwind-safety holds.
                //
                // The phase profiler is thread-scoped: engine spans emit on
                // this worker thread only, so concurrently running cells
                // never observe each other. With series off nothing is
                // attached and the engines run their detached fast path.
                let profiler = opts
                    .series
                    .then(|| std::sync::Arc::new(PhaseProfiler::new()));
                let started = std::time::Instant::now();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // Fault-injection hook for the hardening smoke tests: a
                    // cell whose seed is listed panics deliberately.
                    if let Ok(inject) = std::env::var("CHURN_EXP_PANIC_SEED") {
                        if inject.split(',').any(|tok| tok.trim().parse() == Ok(seed)) {
                            panic!("injected panic for cell seed {seed} (CHURN_EXP_PANIC_SEED)");
                        }
                    }
                    let run = || {
                        measure::run_cell(
                            scenario.measurement(),
                            &cell,
                            seed,
                            threads,
                            opts.preset,
                            opts.series,
                        )
                    };
                    match &profiler {
                        Some(profiler) => {
                            churn_telemetry::subscriber::with_default(profiler.clone(), run)
                        }
                        None => run(),
                    }
                }));
                let wall_s = started.elapsed().as_secs_f64();
                match outcome {
                    Ok((metrics, series)) => {
                        let record = CellRecord {
                            scenario: scenario.name().to_string(),
                            net: cell.net.label(),
                            n: cell.n,
                            d: cell.d,
                            victim: cell.victim.label().to_string(),
                            fault: (!cell.fault.is_none()).then(|| cell.fault.label()),
                            trial: cell.trial,
                            seed,
                            metrics: metrics
                                .into_iter()
                                .map(|(metric, value)| (metric.to_string(), value))
                                .collect(),
                        };
                        // Serialise the series in the worker (it is pure CPU
                        // work on deterministic data); the writer thread only
                        // splices bytes.
                        let series_line = series.map(|series| {
                            SeriesRecord {
                                scenario: record.scenario.clone(),
                                net: record.net.clone(),
                                n: record.n,
                                d: record.d,
                                victim: record.victim.clone(),
                                fault: record.fault.clone(),
                                trial: record.trial,
                                seed,
                                series: series
                                    .columns()
                                    .iter()
                                    .map(|(column, values)| ((*column).to_string(), values.clone()))
                                    .collect(),
                            }
                            .to_json_line()
                        });
                        let phases = profiler.map_or_else(Vec::new, |profiler| {
                            profiler
                                .phases()
                                .into_iter()
                                .map(|(phase, seconds)| (phase.to_string(), seconds))
                                .collect()
                        });
                        Ok(CellRun {
                            record,
                            wall_s,
                            series_line,
                            phases,
                        })
                    }
                    Err(payload) => Err(Box::new(CellFailure {
                        scenario: scenario.name().to_string(),
                        net: cell.net.label(),
                        n: cell.n,
                        d: cell.d,
                        victim: cell.victim.label().to_string(),
                        trial: cell.trial,
                        seed,
                        error: panic_message(payload),
                    })),
                }
            })
            .collect();
        for result in batch_records {
            match result {
                Ok(run) => {
                    let record = run.record;
                    let wall_s = run.wall_s;
                    let (unit, units) = cell_work_units(&record.metrics);
                    let load = LoadRecord {
                        scenario: record.scenario.clone(),
                        net: record.net.clone(),
                        n: record.n,
                        d: record.d,
                        victim: record.victim.clone(),
                        fault: record.fault.clone(),
                        trial: record.trial,
                        seed: record.seed,
                        wall_s,
                        unit,
                        units,
                        units_per_s: if wall_s > 0.0 { units / wall_s } else { 0.0 },
                        phases: run.phases,
                    };
                    load_file.write_line(&load.to_json_line())?;
                    loads.push(load);
                    if let Some(series_line) = run.series_line {
                        series_lines.insert(record.seed, series_line);
                    }
                    lines.insert(record.seed, record.to_json_line());
                    executed += 1;
                }
                Err(failure) => {
                    failures_file.write_line(&failure.to_json_line())?;
                    failures.push(*failure);
                }
            }
        }
        while let Some((_, seed)) = all.get(cursor) {
            let Some(line) = lines.get(seed) else { break };
            write_cell(
                &mut file,
                series_file.as_mut(),
                line,
                series_lines.get(seed),
            )?;
            cursor += 1;
        }
        file.flush()?;
        if let Some(side) = series_file.as_mut() {
            side.flush()?;
        }
    }
    // Tail sweep: nothing is pending any more, so emit every remaining
    // available line. Cells past a panicked or limit-cut cell keep their
    // records; only the gap itself re-runs on --resume.
    for (_, seed) in &all[cursor..] {
        if let Some(line) = lines.get(seed) {
            write_cell(
                &mut file,
                series_file.as_mut(),
                line,
                series_lines.get(seed),
            )?;
        }
    }
    file.flush()?;
    if let Some(mut side) = series_file.take() {
        side.flush()?;
    }
    drop(file);

    // Report everything now in the file, in cell order (existing records
    // keep their position; a fresh run is already ordered).
    let records = load_cell_records(&path)?;
    Ok(ScenarioOutcome {
        records,
        executed,
        skipped,
        total,
        path,
        failures,
        loads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use churn_protocol::AttackKind;

    fn tiny_scenario() -> Scenario {
        Scenario::new(
            "test-flooding",
            "tiny flooding grid",
            Measurement::Flooding(FloodingSpec {
                budget: RoundBudget::Fixed(64),
                record_isolation: true,
            }),
        )
        .nets([NetSpec::Baseline(ModelKind::Sdgr), NetSpec::raes_default()])
        .full_grid(Grid::new([48, 64], [3], 2))
        .smoke_grid(Grid::new([32], [2], 1))
        .base_seed(0x7E57)
    }

    #[test]
    fn cells_enumerate_net_major_in_deterministic_order() {
        let s = tiny_scenario();
        let cells = s.cells(GridPreset::Full);
        assert_eq!(cells.len(), 8, "2 nets x 2 sizes x 1 degree x 2 trials");
        assert_eq!(cells[0].net, NetSpec::Baseline(ModelKind::Sdgr));
        assert_eq!((cells[0].n, cells[0].trial), (48, 0));
        assert_eq!((cells[1].n, cells[1].trial), (48, 1));
        assert_eq!(cells.last().unwrap().net, NetSpec::raes_default());
        assert_eq!(s.cells(GridPreset::Smoke).len(), 2);
    }

    #[test]
    fn cell_seeds_of_baseline_and_default_raes_nets_are_pinned() {
        // Literal seeds of the pre-engine experiment binaries: every recorded
        // trajectory of a baseline or default-RAES cell depends on them, so
        // the derivation must never drift. (n = 256, d = 4, trial 1, base
        // seed 0xE12; columns are the uniform, oldest-first and
        // highest-degree victim policies.)
        let victims = [
            VictimPolicy::Uniform,
            VictimPolicy::OldestFirst,
            VictimPolicy::HighestDegree,
        ];
        let table: [(NetSpec, [u64; 3]); 5] = [
            (
                NetSpec::Baseline(ModelKind::Sdg),
                [
                    9408347115066396762,
                    8318049194518899155,
                    12495110274473183719,
                ],
            ),
            (
                NetSpec::Baseline(ModelKind::Sdgr),
                [
                    5815353600894398679,
                    15776249637612791667,
                    7284544152706799286,
                ],
            ),
            (
                NetSpec::Baseline(ModelKind::Pdg),
                [
                    9535128174404400540,
                    4669485268548506706,
                    11182368313289434966,
                ],
            ),
            (
                NetSpec::Baseline(ModelKind::Pdgr),
                [
                    5911416491678202302,
                    13430087722000577295,
                    11782201207809271771,
                ],
            ),
            (
                NetSpec::raes_default(),
                [
                    10041283654596338740,
                    8616825705616495778,
                    18244775982799239348,
                ],
            ),
        ];
        let s = Scenario::new("seeds", "seed table", Measurement::Isolation).base_seed(0xE12);
        for (net, seeds) in table {
            for (victim, seed) in victims.into_iter().zip(seeds) {
                let cell = CellSpec {
                    net,
                    n: 256,
                    d: 4,
                    victim,
                    fault: FaultSpec::none(),
                    trial: 1,
                };
                assert_eq!(s.cell_seed(&cell), seed, "{net} {victim}");
            }
        }
    }

    #[test]
    fn thread_budget_splits_the_pool_between_levels() {
        let pool = rayon::current_num_threads().max(1);
        // One cell: the cell body gets the whole machine.
        assert_eq!(sweep_cell_threads(1), pool);
        // More cells than cores: one thread each, never zero.
        assert_eq!(sweep_cell_threads(10 * pool), 1);
        // In between: shares multiply back to at most the pool.
        for cells in 1..=2 * pool {
            let per_cell = sweep_cell_threads(cells);
            assert!(per_cell >= 1);
            assert!(per_cell * pool.min(cells) <= pool);
        }
    }

    #[test]
    fn escaped_strings_round_trip_through_the_json_reader() {
        let text = "quote \" backslash \\ newline \n tab \t bell \u{7} unicode Ω λ/µ";
        let mut json = String::new();
        escape_json(text, &mut json);
        assert!(!json.contains('\n'));
        assert_eq!(
            minijson::parse(&json).unwrap().as_string().as_deref(),
            Some(text)
        );
        assert_eq!(format_value(11.0), "11.0");
        assert_eq!(format_value(0.017), "0.017");
        assert_eq!(format_value(f64::NAN), "null");
    }

    #[test]
    fn crash_rates_above_one_per_node_fail_validation() {
        // Rates past 1 overflowed the crash-count draw (1e308) or spun a
        // tick through ~1e12 victims per alive node; both layers refuse them.
        for rate in [1.5, 1e12, 1e308] {
            let spec = FaultSpec {
                crash: Some(CrashRestart {
                    rate,
                    downtime: LatencyModel::Fixed(1.0),
                }),
                ..FaultSpec::none()
            };
            assert!(spec.resolve().validate().is_err(), "plan rate {rate}");
            assert!(spec.validate().is_err(), "spec rate {rate}");
        }
        let mut spec = FaultSpec::none();
        spec.crash = Some(CrashRestart {
            rate: 1.0,
            downtime: LatencyModel::Fixed(1.0),
        });
        spec.validate()
            .expect("one crash per node per unit time is allowed");
        // The downtime draws through the same latency constructors.
        spec.crash = Some(CrashRestart {
            rate: 1.0,
            downtime: LatencyModel::Exponential { mean: 1e-310 },
        });
        let err = spec.validate().unwrap_err();
        assert!(err.contains("invalid latency model"), "{err}");
    }

    #[test]
    fn non_default_raes_knobs_shift_the_seed() {
        let s = tiny_scenario();
        let base = CellSpec {
            net: NetSpec::raes_default(),
            n: 64,
            d: 3,
            victim: VictimPolicy::Uniform,
            fault: FaultSpec::none(),
            trial: 0,
        };
        let mut seen = vec![s.cell_seed(&base)];
        for net in [
            NetSpec::Raes(RaesNet {
                churn: ChurnDriver::Poisson,
                ..RaesNet::default()
            }),
            NetSpec::Raes(RaesNet {
                saturation: SaturationPolicy::EvictOldest,
                ..RaesNet::default()
            }),
            NetSpec::Raes(RaesNet {
                capacity: 1.0,
                ..RaesNet::default()
            }),
            NetSpec::Raes(RaesNet {
                attempts: 4,
                ..RaesNet::default()
            }),
            // Adversary axis: distinct shapes, attacks, fractions and
            // cohorts all get their own stream.
            NetSpec::Raes(RaesNet {
                adversary: AdversaryModel::Uniform {
                    fraction: 0.05,
                    attack: AttackKind::RefuseAll,
                },
                ..RaesNet::default()
            }),
            NetSpec::Raes(RaesNet {
                adversary: AdversaryModel::Uniform {
                    fraction: 0.1,
                    attack: AttackKind::RefuseAll,
                },
                ..RaesNet::default()
            }),
            NetSpec::Raes(RaesNet {
                adversary: AdversaryModel::Uniform {
                    fraction: 0.05,
                    attack: AttackKind::AcceptThenDrop,
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
                adversary: AdversaryModel::JoinFlood {
                    fraction: 0.05,
                    cohort: 4,
                    attack: AttackKind::RefuseAll,
                },
                ..RaesNet::default()
            }),
            NetSpec::Raes(RaesNet {
                adversary: AdversaryModel::JoinFlood {
                    fraction: 0.05,
                    cohort: 8,
                    attack: AttackKind::RefuseAll,
                },
                ..RaesNet::default()
            }),
        ] {
            let seed = s.cell_seed(&CellSpec { net, ..base });
            assert!(!seen.contains(&seed), "{net} must get its own seed stream");
            seen.push(seed);
        }
        // A fraction-0 adversary axis still shifts the *cell seed* (the spec
        // is non-default) while the model trajectory itself stays identical
        // to honest RAES given equal seeds — the stream-identity tests in
        // churn-protocol pin that half.
        let zero = s.cell_seed(&CellSpec {
            net: NetSpec::Raes(RaesNet {
                adversary: AdversaryModel::Uniform {
                    fraction: 0.0,
                    attack: AttackKind::RefuseAll,
                },
                ..RaesNet::default()
            }),
            ..base
        });
        assert_ne!(zero, s.cell_seed(&base));
    }

    #[test]
    fn net_labels_are_stable() {
        assert_eq!(NetSpec::Baseline(ModelKind::Sdgr).label(), "SDGR");
        assert_eq!(NetSpec::raes_default().label(), "RAES");
        assert_eq!(
            NetSpec::Raes(RaesNet {
                churn: ChurnDriver::Poisson,
                saturation: SaturationPolicy::EvictOldest,
                capacity: 1.0,
                attempts: 4,
                adversary: AdversaryModel::None,
            })
            .label(),
            "RAES+poisson+evict-oldest+c1+a4"
        );
        assert_eq!(
            NetSpec::Raes(RaesNet {
                adversary: AdversaryModel::Uniform {
                    fraction: 0.05,
                    attack: AttackKind::RefuseAll,
                },
                ..RaesNet::default()
            })
            .label(),
            "RAES+byz-refuse-f0.05"
        );
        assert_eq!(
            NetSpec::Raes(RaesNet {
                adversary: AdversaryModel::Eclipse {
                    fraction: 0.1,
                    attack: AttackKind::CapSaturator,
                },
                ..RaesNet::default()
            })
            .label(),
            "RAES+eclipse-cap-sat-f0.1"
        );
        assert_eq!(
            NetSpec::Raes(RaesNet {
                adversary: AdversaryModel::JoinFlood {
                    fraction: 0.2,
                    cohort: 8,
                    attack: AttackKind::SilentOnFlood,
                },
                ..RaesNet::default()
            })
            .label(),
            "RAES+joinflood-silent-f0.2-k8"
        );
        assert_eq!(NetSpec::Static.label(), "STATIC");
        assert_eq!(NetSpec::P2p.to_string(), "P2P");
    }

    #[test]
    fn validation_rejects_inconsistent_specs() {
        // Degree-targeted deaths on streaming churn.
        let bad = tiny_scenario().victims([VictimPolicy::HighestDegree]);
        assert!(bad.validate().is_err());
        // Measurement/net mismatches.
        let bad = Scenario::new("x", "x", Measurement::StaticBaseline)
            .nets([NetSpec::Baseline(ModelKind::Sdg)])
            .full_grid(Grid::new([32], [2], 1));
        assert!(bad.validate().is_err());
        let bad = Scenario::new("x", "x", Measurement::OnionSkin)
            .nets([NetSpec::Baseline(ModelKind::Pdg)])
            .full_grid(Grid::new([32], [2], 1));
        assert!(bad.validate().is_err());
        // The tiny scenario itself is fine.
        assert!(tiny_scenario().validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_grid_points() {
        // n = 1 or d = 0 on either preset would panic in every cell's build.
        let flooding = Measurement::Flooding(FloodingSpec {
            budget: RoundBudget::Fixed(8),
            record_isolation: false,
        });
        let p2p = Measurement::P2pPropagation {
            blocks: 1,
            smoke_blocks: 1,
        };
        let nets = [
            (flooding, NetSpec::Baseline(ModelKind::Sdgr)),
            (flooding, NetSpec::Baseline(ModelKind::Pdg)),
            (flooding, NetSpec::raes_default()),
            (Measurement::StaticBaseline, NetSpec::Static),
            (p2p, NetSpec::P2p),
        ];
        for (measurement, net) in nets {
            let scenario = |full: Grid, smoke: Grid| {
                Scenario::new("x", "x", measurement)
                    .nets([net])
                    .full_grid(full)
                    .smoke_grid(smoke)
            };
            let good = || Grid::new([32], [2], 1);
            assert!(scenario(good(), good()).validate().is_ok(), "{net}");
            for bad in [Grid::new([1], [2], 1), Grid::new([4], [0], 1)] {
                let err = scenario(bad.clone(), good()).validate().unwrap_err();
                assert!(err.contains(&net.label()), "{err}");
                assert!(scenario(good(), bad).validate().is_err(), "{net} smoke");
            }
        }
    }

    #[test]
    fn registry_rejects_duplicates_and_finds_by_name() {
        let mut registry = ScenarioRegistry::new();
        registry.register(tiny_scenario());
        assert!(registry.get("test-flooding").is_some());
        assert_eq!(registry.names(), vec!["test-flooding"]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            registry.register(tiny_scenario());
        }));
        assert!(result.is_err(), "duplicate registration must panic");
    }

    #[test]
    fn large_rows_copy_the_entry_under_the_1m_name() {
        let entry = tiny_scenario().large(|s| s.full_grid(Grid::new([96], [3], 1)));
        let large = entry.large_rows().unwrap();
        assert_eq!(large.name(), "test-flooding-1m");
        assert_eq!(large.measurement(), entry.measurement());
        assert_eq!(large.net_axis(), entry.net_axis());
        assert!(large.cells(GridPreset::Smoke).is_empty());
        // Same base seed: a large cell's seed is the one the entry would give
        // the same cell.
        for cell in large.cells(GridPreset::Full) {
            assert_eq!(large.cell_seed(&cell), entry.cell_seed(&cell));
        }
        let mut registry = ScenarioRegistry::new();
        registry.register(entry);
        assert!(registry.get("test-flooding-1m").is_none(), "not an entry");
        let twin = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            registry.register(Scenario {
                name: "test-flooding-1m".to_string(),
                ..tiny_scenario()
            });
        }));
        assert!(twin.is_err(), "an entry may not take a large-rows name");
    }

    #[test]
    fn register_rejects_large_rows_that_change_the_seed_or_measurement_kind() {
        let reseeded = tiny_scenario().large(|s| s.base_seed(0xE1));
        let remeasured = tiny_scenario().large(|s| s.with_measurement(Measurement::Isolation));
        // A knob of the same measurement kind is what large rows may change.
        let retuned = tiny_scenario().large(|s| {
            s.with_measurement(Measurement::Flooding(FloodingSpec {
                budget: RoundBudget::Fixed(8),
                record_isolation: false,
            }))
        });
        ScenarioRegistry::new().register(retuned);
        for (what, scenario) in [("seed", reseeded), ("kind", remeasured)] {
            let err = scenario.validate().unwrap_err();
            assert!(err.contains("large rows"), "{what}: {err}");
            let result = std::panic::catch_unwind(|| ScenarioRegistry::new().register(scenario));
            assert!(result.is_err(), "{what}: register must reject");
        }
    }

    #[test]
    fn cell_records_round_trip_through_json_lines() {
        let record = CellRecord {
            scenario: "demo".to_string(),
            net: "RAES+a4".to_string(),
            n: 256,
            d: 8,
            victim: "uniform".to_string(),
            fault: None,
            trial: 3,
            seed: u64::MAX,
            metrics: vec![
                ("flooding_rounds".to_string(), 6.0),
                ("completed".to_string(), 1.0),
                ("weird \"metric\"".to_string(), f64::NAN),
            ],
        };
        let line = record.to_json_line();
        assert!(!line.contains('\n'));
        let parsed = CellRecord::from_json_line(&line).unwrap();
        assert_eq!(parsed.scenario, record.scenario);
        assert_eq!(parsed.seed, u64::MAX);
        assert_eq!(parsed.metric("completed"), Some(1.0));
        assert!(parsed.metric("weird \"metric\"").unwrap().is_nan());
        assert_eq!(parsed.metric("missing"), None);
    }

    #[test]
    fn load_records_round_trip_through_json_lines() {
        let record = LoadRecord {
            scenario: "demo".to_string(),
            net: "SDGR".to_string(),
            n: 4096,
            d: 4,
            victim: "uniform".to_string(),
            fault: None,
            trial: 2,
            seed: 99,
            wall_s: 0.125,
            unit: "events",
            units: 50_000.0,
            units_per_s: 400_000.0,
            phases: vec![("event-loop".to_string(), 0.1), ("churn".to_string(), 0.02)],
        };
        let line = record.to_json_line();
        assert!(!line.contains('\n'));
        let parsed = LoadRecord::from_json_line(&line).unwrap();
        assert_eq!(parsed.scenario, record.scenario);
        assert_eq!(parsed.unit, "events");
        assert_eq!(parsed.wall_s.to_bits(), record.wall_s.to_bits());
        assert_eq!(parsed.units_per_s.to_bits(), record.units_per_s.to_bits());
        // JSON objects do not order keys: phases come back sorted by name.
        let mut expected = record.phases.clone();
        expected.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(parsed.phases, expected);

        // Without phases the key is omitted and parses back empty.
        let bare = LoadRecord {
            phases: Vec::new(),
            ..record.clone()
        };
        let bare_line = bare.to_json_line();
        assert!(!bare_line.contains("phases"));
        assert!(LoadRecord::from_json_line(&bare_line)
            .unwrap()
            .phases
            .is_empty());

        // Unknown work units are rejected, not silently leaked.
        let corrupt = bare_line.replace("\"events\"", "\"bogons\"");
        assert!(LoadRecord::from_json_line(&corrupt)
            .unwrap_err()
            .contains("bogons"));
    }

    /// Pins the exact bytes of every record kind: key order, escaping,
    /// number format, omitted optional keys and empty objects.
    #[test]
    fn every_record_kind_serialises_to_pinned_bytes() {
        let head =
            "\"scenario\":\"demo\",\"net\":\"SDGR\",\"n\":256,\"d\":8,\"victim\":\"uniform\"";
        let big = format!("1{}.0", "0".repeat(300));
        let cell = CellRecord {
            scenario: "demo".to_string(),
            net: "SDGR".to_string(),
            n: 256,
            d: 8,
            victim: "uniform".to_string(),
            fault: None,
            trial: 3,
            seed: u64::MAX,
            metrics: vec![
                ("flooding_rounds".to_string(), 6.0),
                ("a\"b\\c\nd\u{1}".to_string(), f64::NAN),
                ("big".to_string(), 1e300),
                ("frac".to_string(), 0.017),
            ],
        };
        assert_eq!(
            cell.to_json_line(),
            format!(
                "{{{head},\"trial\":3,\"seed\":18446744073709551615,\"metrics\":{{\
                 \"flooding_rounds\":6.0,\"a\\\"b\\\\c\\nd\\u0001\":null,\"big\":{big},\
                 \"frac\":0.017}}}}"
            )
        );
        let faulted = CellRecord {
            fault: Some("loss0.1".to_string()),
            metrics: Vec::new(),
            ..cell.clone()
        };
        assert_eq!(
            faulted.to_json_line(),
            format!(
                "{{{head},\"fault\":\"loss0.1\",\"trial\":3,\
                 \"seed\":18446744073709551615,\"metrics\":{{}}}}"
            )
        );

        let series = SeriesRecord {
            scenario: "demo".to_string(),
            net: "SDGR".to_string(),
            n: 256,
            d: 8,
            victim: "uniform".to_string(),
            fault: None,
            trial: 0,
            seed: 7,
            series: vec![
                ("informed".to_string(), vec![0.5, f64::NAN]),
                ("alive".to_string(), vec![250.0, 251.0]),
            ],
        };
        assert_eq!(
            series.to_json_line(),
            format!(
                "{{{head},\"trial\":0,\"seed\":7,\"rounds\":2,\"series\":{{\
                 \"informed\":[0.5,null],\"alive\":[250.0,251.0]}}}}"
            )
        );
        let empty = SeriesRecord {
            series: Vec::new(),
            ..series
        };
        assert_eq!(
            empty.to_json_line(),
            format!("{{{head},\"trial\":0,\"seed\":7,\"rounds\":0,\"series\":{{}}}}")
        );

        let load = LoadRecord {
            scenario: "demo".to_string(),
            net: "SDGR".to_string(),
            n: 256,
            d: 8,
            victim: "uniform".to_string(),
            fault: None,
            trial: 2,
            seed: 99,
            wall_s: 0.125,
            unit: "events",
            units: 50_000.0,
            units_per_s: 400_000.0,
            phases: vec![("event-loop".to_string(), 0.1), ("churn".to_string(), 0.02)],
        };
        let load_tail = "\"trial\":2,\"seed\":99,\"wall_s\":0.125,\"unit\":\"events\",\
                         \"units\":50000.0,\"units_per_s\":400000.0";
        assert_eq!(
            load.to_json_line(),
            format!("{{{head},{load_tail},\"phases\":{{\"event-loop\":0.1,\"churn\":0.02}}}}")
        );
        let bare = LoadRecord {
            phases: Vec::new(),
            ..load
        };
        assert_eq!(bare.to_json_line(), format!("{{{head},{load_tail}}}"));
        let faulted_load = LoadRecord {
            fault: Some("loss0.1".to_string()),
            ..bare
        };
        assert_eq!(
            faulted_load.to_json_line(),
            format!("{{{head},\"fault\":\"loss0.1\",{load_tail}}}")
        );

        let failure = CellFailure {
            scenario: "demo".to_string(),
            net: "SDGR".to_string(),
            n: 256,
            d: 8,
            victim: "uniform".to_string(),
            trial: 1,
            seed: 42,
            error: "boom\n  at step 2".to_string(),
        };
        assert_eq!(
            failure.to_json_line(),
            format!("{{{head},\"trial\":1,\"seed\":42,\"error\":\"boom\\n  at step 2\"}}")
        );
    }

    #[test]
    fn load_load_records_reads_the_side_file_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!("churn-load-side-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.load.jsonl");
        let record = LoadRecord {
            scenario: "x".into(),
            net: "SDG".into(),
            n: 8,
            d: 2,
            victim: "uniform".into(),
            fault: None,
            trial: 0,
            seed: 1,
            wall_s: 0.5,
            unit: "rounds",
            units: 12.0,
            units_per_s: 24.0,
            phases: Vec::new(),
        };
        fs::write(
            &path,
            format!("{}\n\n{}\n", record.to_json_line(), record.to_json_line()),
        )
        .unwrap();
        let loaded = load_load_records(&path).unwrap();
        assert_eq!(loaded.len(), 2, "blank lines are skipped");
        assert_eq!(loaded[0], record);

        // The file is strict, not torn-tail tolerant: a valid last line
        // without its newline is still a record.
        fs::write(
            &path,
            format!("{}\n{}", record.to_json_line(), record.to_json_line()),
        )
        .unwrap();
        assert_eq!(load_load_records(&path).unwrap().len(), 2);

        fs::write(&path, "{\"scenario\":\"x\",\"ne").unwrap();
        let err = load_load_records(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_scenario_checkpoints_and_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!("churn-scenario-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let scenario = tiny_scenario();

        // Uninterrupted reference run.
        let full_opts = RunOptions {
            preset: GridPreset::Full,
            dir: dir.join("reference"),
            ..RunOptions::default()
        };
        let reference = run_scenario(&scenario, &full_opts).unwrap();
        assert_eq!(reference.executed, reference.total);
        assert_eq!(reference.skipped, 0);
        let reference_bytes = fs::read(&reference.path).unwrap();

        // Interrupted run: stop after 3 cells, then resume.
        let interrupted_opts = RunOptions {
            preset: GridPreset::Full,
            dir: dir.join("resumed"),
            limit: Some(3),
            ..RunOptions::default()
        };
        let partial = run_scenario(&scenario, &interrupted_opts).unwrap();
        assert_eq!(partial.executed, 3);
        let resume_opts = RunOptions {
            resume: true,
            limit: None,
            ..interrupted_opts
        };
        let resumed = run_scenario(&scenario, &resume_opts).unwrap();
        assert_eq!(resumed.skipped, 3);
        assert_eq!(resumed.executed, resumed.total - 3);
        let resumed_bytes = fs::read(&resumed.path).unwrap();
        assert_eq!(
            resumed_bytes, reference_bytes,
            "interrupted-then-resumed output must be bit-identical"
        );

        // Resuming a complete file executes nothing and rewrites nothing.
        let idle = run_scenario(&scenario, &resume_opts).unwrap();
        assert_eq!(idle.executed, 0);
        assert_eq!(idle.skipped, idle.total);
        assert_eq!(fs::read(&idle.path).unwrap(), reference_bytes);

        // A non-resume run starts fresh and reproduces the same bytes.
        let fresh = run_scenario(
            &scenario,
            &RunOptions {
                resume: false,
                ..resume_opts
            },
        )
        .unwrap();
        assert_eq!(fresh.executed, fresh.total);
        assert_eq!(fs::read(&fresh.path).unwrap(), reference_bytes);

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_trailing_lines_are_dropped_on_load() {
        let dir =
            std::env::temp_dir().join(format!("churn-scenario-partial-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.jsonl");
        let record = CellRecord {
            scenario: "x".into(),
            net: "SDG".into(),
            n: 8,
            d: 2,
            victim: "uniform".into(),
            fault: None,
            trial: 0,
            seed: 1,
            metrics: vec![("m".into(), 1.0)],
        };
        fs::write(
            &path,
            format!("{}\n{{\"scenario\":\"x\",\"ne", record.to_json_line()),
        )
        .unwrap();
        let loaded = load_cell_records(&path).unwrap();
        assert_eq!(loaded, vec![record]);
        // A malformed line that is *not* the trailing partial write errors.
        fs::write(&path, "not json\n{}\n").unwrap();
        assert!(load_cell_records(&path).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn series_side_files_drop_a_torn_tail_and_reject_interior_corruption() {
        let dir = std::env::temp_dir().join(format!("churn-series-torn-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.series.jsonl");
        let record = SeriesRecord {
            scenario: "x".into(),
            net: "SDG".into(),
            n: 8,
            d: 2,
            victim: "uniform".into(),
            fault: None,
            trial: 0,
            seed: 1,
            series: vec![("alive".into(), vec![8.0, 7.0])],
        };
        let line = record.to_json_line();
        // A torn trailing write, whether it parses or not, is dropped.
        for tail in [&line[..line.len() - 4], line.as_str()] {
            fs::write(&path, format!("{line}\n{tail}")).unwrap();
            assert_eq!(load_series_records(&path).unwrap(), vec![record.clone()]);
        }
        // The same torn bytes before a complete line are corruption.
        fs::write(&path, format!("{}\n{line}\n", &line[..line.len() - 4])).unwrap();
        let err = load_series_records(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panicking_cells_are_recorded_and_resume_repairs_bit_identically() {
        let dir = std::env::temp_dir().join(format!("churn-scenario-panic-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // Distinct base seed: the injection env var matches cells by seed and
        // is process-global, so no other test's cells may share seeds.
        let scenario = tiny_scenario().base_seed(0xFA11);

        let ref_opts = RunOptions {
            preset: GridPreset::Full,
            dir: dir.join("reference"),
            ..RunOptions::default()
        };
        let reference = run_scenario(&scenario, &ref_opts).unwrap();
        assert!(reference.failures.is_empty());
        let reference_bytes = fs::read(&reference.path).unwrap();

        // Blow up one mid-grid cell; the rest of the grid must keep running.
        let cells = scenario.cells(GridPreset::Full);
        let victim_seed = scenario.cell_seed(&cells[1]);
        let opts = RunOptions {
            preset: GridPreset::Full,
            dir: dir.join("hurt"),
            ..RunOptions::default()
        };
        std::env::set_var("CHURN_EXP_PANIC_SEED", victim_seed.to_string());
        let hurt = run_scenario(&scenario, &opts).unwrap();
        std::env::remove_var("CHURN_EXP_PANIC_SEED");

        assert_eq!(hurt.failures.len(), 1);
        assert_eq!(hurt.failures[0].seed, victim_seed);
        assert!(hurt.failures[0].error.contains("injected panic"));
        assert_eq!(hurt.executed, hurt.total - 1);
        assert_eq!(hurt.records.len(), hurt.total - 1);
        let failures_path = scenario_failures_path(&scenario, &opts);
        let side = fs::read_to_string(&failures_path).unwrap();
        assert_eq!(side.lines().count(), 1);
        assert!(side.contains(&format!("\"seed\":{victim_seed}")));
        let parsed_failure: CellFailure = hurt.failures[0].clone();
        assert_eq!(parsed_failure.to_json_line(), side.lines().next().unwrap());

        // Resume (without injection) retries exactly the failed cell, splices
        // it into its grid position, and clears the stale failure record.
        let resumed = run_scenario(
            &scenario,
            &RunOptions {
                resume: true,
                ..opts
            },
        )
        .unwrap();
        assert_eq!(resumed.executed, 1);
        assert_eq!(resumed.skipped, resumed.total - 1);
        assert!(resumed.failures.is_empty());
        assert!(!failures_path.exists());
        assert_eq!(
            fs::read(&resumed.path).unwrap(),
            reference_bytes,
            "repaired file must be bit-identical to an uninterrupted run"
        );

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_trailing_writes_are_repaired_bit_identically_on_resume() {
        let dir = std::env::temp_dir().join(format!("churn-scenario-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let scenario = tiny_scenario().base_seed(0x7012);

        let opts = RunOptions {
            preset: GridPreset::Full,
            dir: dir.clone(),
            ..RunOptions::default()
        };
        let reference = run_scenario(&scenario, &opts).unwrap();
        let reference_bytes = fs::read(&reference.path).unwrap();
        let total = reference.total;

        // Torn write: the trailing record loses its newline and tail bytes.
        let mut data = reference_bytes.clone();
        data.truncate(data.len() - 10);
        fs::write(&reference.path, &data).unwrap();
        let loaded = load_cell_records(&reference.path).unwrap();
        assert_eq!(loaded.len(), total - 1, "torn trailing record is dropped");

        let resume_opts = RunOptions {
            resume: true,
            ..opts
        };
        let resumed = run_scenario(&scenario, &resume_opts).unwrap();
        assert_eq!(resumed.skipped, total - 1);
        assert_eq!(resumed.executed, 1);
        assert_eq!(
            fs::read(&resumed.path).unwrap(),
            reference_bytes,
            "file repaired across a torn write must be bit-identical"
        );

        // A corrupt *complete* trailing line (newline intact, JSON mangled)
        // is likewise dropped and repaired.
        let valid_prefix_len = reference_bytes
            .split_inclusive(|&b| b == b'\n')
            .take(total - 1)
            .map(<[u8]>::len)
            .sum::<usize>();
        let mut corrupt = reference_bytes[..valid_prefix_len].to_vec();
        corrupt.extend_from_slice(b"{\"scenario\":garbage}\n");
        fs::write(&reference.path, &corrupt).unwrap();
        assert_eq!(load_cell_records(&reference.path).unwrap().len(), total - 1);
        let repaired = run_scenario(&scenario, &resume_opts).unwrap();
        assert_eq!(repaired.executed, 1);
        assert_eq!(fs::read(&repaired.path).unwrap(), reference_bytes);

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn smoke_and_full_presets_write_separate_files() {
        let s = tiny_scenario();
        let opts = RunOptions::default();
        assert_eq!(
            scenario_output_path(&s, &opts),
            PathBuf::from("results/test-flooding.jsonl")
        );
        let smoke = RunOptions {
            preset: GridPreset::Smoke,
            ..opts
        };
        assert_eq!(
            scenario_output_path(&s, &smoke),
            PathBuf::from("results/test-flooding.smoke.jsonl")
        );
        assert_eq!(
            scenario_load_path(&s, &smoke),
            PathBuf::from("results/test-flooding.smoke.load.jsonl")
        );
    }

    #[test]
    fn load_side_file_covers_executed_cells_and_resets_per_invocation() {
        let dir = std::env::temp_dir().join(format!("churn-scenario-load-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let scenario = tiny_scenario().base_seed(0x10AD);
        let opts = RunOptions {
            preset: GridPreset::Full,
            dir: dir.clone(),
            ..RunOptions::default()
        };
        let outcome = run_scenario(&scenario, &opts).unwrap();
        assert_eq!(outcome.loads.len(), outcome.total);
        let load_path = scenario_load_path(&scenario, &opts);
        let side = fs::read_to_string(&load_path).unwrap();
        assert_eq!(side.lines().count(), outcome.total);
        for load in &outcome.loads {
            // Flooding cells report rounds-per-second throughput.
            assert_eq!(load.unit, "rounds");
            assert!(load.wall_s >= 0.0);
            assert!(load.units > 0.0);
            assert!(side.contains(&format!("\"seed\":{}", load.seed)));
        }
        // The main checkpoint stays free of wall-clock columns.
        let main = fs::read_to_string(&outcome.path).unwrap();
        assert!(!main.contains("wall_s"));

        // A fully checkpointed resume executes nothing: the stale load file
        // (another invocation's wall clock) is removed, not carried over.
        let resumed = run_scenario(
            &scenario,
            &RunOptions {
                resume: true,
                ..opts
            },
        )
        .unwrap();
        assert_eq!(resumed.executed, 0);
        assert!(resumed.loads.is_empty());
        assert!(!load_path.exists());

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn async_measurements_run_and_record_event_columns() {
        use churn_event::{BandwidthModel, LatencyModel};

        let dir = std::env::temp_dir().join(format!("churn-scenario-async-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let flooding = Scenario::new(
            "test-async-flooding",
            "async flooding smoke",
            Measurement::AsyncFlooding(AsyncFloodingSpec {
                latency: LatencyModel::Exponential { mean: 0.3 },
                bandwidth: BandwidthModel::drop_tail(8.0, 32),
                horizon: RoundBudget::Fixed(24),
            }),
        )
        .nets([NetSpec::Baseline(ModelKind::Sdgr), NetSpec::raes_default()])
        .full_grid(Grid::new([48], [3], 1))
        .base_seed(0xA51);
        flooding.validate().unwrap();

        let raes = Scenario::new(
            "test-async-raes",
            "async RAES load smoke",
            Measurement::AsyncRaes(AsyncRaesSpec {
                latency: LatencyModel::Fixed(0.1),
                bandwidth: BandwidthModel::delaying(16.0),
                horizon: RoundBudget::Fixed(32),
                flood: true,
            }),
        )
        .nets([NetSpec::raes_default()])
        .full_grid(Grid::new([48], [3], 1))
        .base_seed(0xA52);
        raes.validate().unwrap();

        let opts = RunOptions {
            preset: GridPreset::Full,
            dir: dir.clone(),
            ..RunOptions::default()
        };
        let flood_outcome = run_scenario(&flooding, &opts).unwrap();
        assert!(flood_outcome.failures.is_empty());
        for record in &flood_outcome.records {
            for column in [
                "events_processed",
                "messages_delivered",
                "messages_dropped",
                "p99_queue_delay",
                "emergent_rounds",
                "completion_time",
            ] {
                assert!(
                    record.metrics.iter().any(|(name, _)| name == column),
                    "missing {column} in async flooding record"
                );
            }
        }
        // Async cells report events-per-second throughput in the load file.
        assert!(flood_outcome.loads.iter().all(|l| l.unit == "events"));

        let raes_outcome = run_scenario(&raes, &opts).unwrap();
        assert!(raes_outcome.failures.is_empty());
        let record = &raes_outcome.records[0];
        for column in [
            "repairs_completed",
            "phantoms",
            "mean_repair_time",
            "p99_repair_time",
            "dangling_fraction",
            "flood_completion_time",
            "events_processed",
        ] {
            assert!(
                record.metrics.iter().any(|(name, _)| name == column),
                "missing {column} in async RAES record"
            );
        }
        let cap = record
            .metrics
            .iter()
            .find(|(name, _)| name == "in_degree_cap")
            .unwrap()
            .1;
        let max_in = record
            .metrics
            .iter()
            .find(|(name, _)| name == "max_in_degree")
            .unwrap()
            .1;
        assert!(max_in <= cap, "cap violated: {max_in} > {cap}");

        // Async runs checkpoint/resume bit-identically like every scenario.
        let bytes = fs::read(&flood_outcome.path).unwrap();
        let resumed = run_scenario(
            &flooding,
            &RunOptions {
                resume: true,
                ..opts
            },
        )
        .unwrap();
        assert_eq!(resumed.executed, 0);
        assert_eq!(fs::read(&resumed.path).unwrap(), bytes);

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn async_raes_rejects_incompatible_nets_and_victims() {
        use churn_event::{BandwidthModel, LatencyModel};

        let spec = AsyncRaesSpec {
            latency: LatencyModel::Fixed(0.1),
            bandwidth: BandwidthModel::unlimited(),
            horizon: RoundBudget::Fixed(16),
            flood: false,
        };
        // Baseline nets cannot run the message-level RAES model.
        let wrong_net = Scenario::new("bad", "t", Measurement::AsyncRaes(spec))
            .nets([NetSpec::Baseline(ModelKind::Sdgr)])
            .full_grid(Grid::new([32], [2], 1));
        assert!(wrong_net.validate().is_err());
        // Poisson-churn RAES nets are rejected (the async model streams).
        let poisson = Scenario::new("bad2", "t", Measurement::AsyncRaes(spec))
            .nets([NetSpec::Raes(RaesNet {
                churn: ChurnDriver::Poisson,
                ..RaesNet::default()
            })])
            .full_grid(Grid::new([32], [2], 1));
        assert!(poisson.validate().is_err());
        // Invalid latency parameters surface at registration.
        let bad_latency = Scenario::new(
            "bad3",
            "t",
            Measurement::AsyncFlooding(AsyncFloodingSpec {
                latency: LatencyModel::Uniform {
                    low: 2.0,
                    high: 1.0,
                },
                bandwidth: BandwidthModel::unlimited(),
                horizon: RoundBudget::Fixed(16),
            }),
        )
        .nets([NetSpec::Baseline(ModelKind::Sdgr)])
        .full_grid(Grid::new([32], [2], 1));
        assert!(bad_latency.validate().is_err());
        // A subnormal exponential mean passed `mean > 0` but overflowed the
        // rate `1/mean` and panicked in the first latency draw of a cell.
        let subnormal_mean = Scenario::new(
            "bad4",
            "t",
            Measurement::AsyncRaes(AsyncRaesSpec {
                latency: LatencyModel::Exponential { mean: 1e-310 },
                ..spec
            }),
        )
        .nets([NetSpec::raes_default()])
        .full_grid(Grid::new([32], [2], 1));
        let err = subnormal_mean.validate().unwrap_err();
        assert!(err.contains("invalid latency model"), "{err}");
    }
}
