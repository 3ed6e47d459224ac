//! Seeded, deterministic fault injection for the event-driven engines.
//!
//! A [`FaultPlan`] describes everything that can go wrong *underneath* a
//! protocol: per-link message faults (loss — i.i.d. or bursty —,
//! duplication, bounded reordering), scheduled network partitions enforced
//! at delivery time, and node crash–restart cycles distinct from churn
//! death. A [`FaultState`] executes the plan against one run.
//!
//! ## Determinism contract
//!
//! All fault randomness flows through a dedicated RNG substream
//! ([`FAULT_STREAM`]), so attaching the fault layer never perturbs the
//! latency or churn streams of a run. Stronger: every hook of a *disabled*
//! axis returns without touching the RNG at all — an empty plan
//! ([`FaultPlan::none`]) is stream-identical to running the PR 7 engines
//! with no fault layer, bit for bit (pinned by the golden suite against
//! recorded E16/E17 files).
//!
//! ## Semantics
//!
//! * **Loss / duplication / reordering** apply per message on the link
//!   `sender → receiver`, after the sender's egress queue accepted the
//!   message (a NIC that transmitted into a lossy wire). Bursty loss keeps
//!   one Gilbert–Elliott channel state per directed link.
//! * **Partitions** split the population into `blocks` groups by a
//!   deterministic hash of the node identifier (so nodes born mid-partition
//!   land in a block too) and drop any delivery crossing a block boundary
//!   while a window is active. Windows may nest or overlap; a message is
//!   blocked if *any* active window separates the endpoints.
//! * **Crash–restart** takes a node down without removing it from the
//!   graph: it keeps its identity and edges, loses its queued egress and
//!   in-flight protocol state, receives nothing while down, and rejoins
//!   after a downtime draw. Churn death of a down node wins: the node is
//!   simply gone when the restart fires.

use churn_graph::hashing::{IdHashMap, IdHashSet};

use churn_stochastic::rng::{derive_seed, substream_rng, SimRng};
use churn_stochastic::{GilbertElliott, GilbertElliottState, Poisson};
use rand::Rng;

use crate::latency::LatencyModel;

/// The RNG substream tag of the fault layer (disjoint from the flooding
/// latency stream `0x0A51_C0DE`).
pub const FAULT_STREAM: u64 = 0xFA17_5EED;

/// Salt for the deterministic partition block hash.
const PARTITION_SALT: u64 = 0x9A27_1710;

/// Per-link message-loss model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// No loss; consumes no randomness.
    None,
    /// Every message is lost independently with probability `p`.
    Iid {
        /// Loss probability per message.
        p: f64,
    },
    /// Bursty loss: one Gilbert–Elliott channel per directed link.
    Bursty(GilbertElliott),
}

/// One scheduled partition window: at `start` the alive population splits
/// into `blocks` groups (deterministic id hash); at `heal` the blocks merge
/// back. Enforced at delivery time, so messages already in flight when the
/// partition starts are cut too.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionWindow {
    /// Partition onset (inclusive).
    pub start: f64,
    /// Heal instant (exclusive: deliveries at `heal` go through).
    pub heal: f64,
    /// Number of blocks the population splits into (≥ 2).
    pub blocks: u32,
}

/// Crash–restart process: per unit of simulated time each alive node
/// crashes with intensity `rate` (crash counts are Poisson over the alive
/// population); a crashed node rejoins after a `downtime` draw.
///
/// The rate is per node per unit time and at most 1, so a tick draws on
/// average at most one crash per alive node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashRestart {
    /// Per-node crash intensity per unit of simulated time, in `[0, 1]`.
    pub rate: f64,
    /// Downtime distribution (re-using the latency model family).
    pub downtime: LatencyModel,
}

/// A complete, seeded fault schedule for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Per-link loss model.
    pub loss: LossModel,
    /// Probability a delivered message is duplicated (one extra copy).
    pub duplicate_p: f64,
    /// Probability a delivered copy is reordered (held back).
    pub reorder_p: f64,
    /// Maximum extra holding delay of a reordered copy (uniform on
    /// `(0, reorder_max]`); must be positive when `reorder_p > 0`.
    pub reorder_max: f64,
    /// Scheduled partition windows (may nest or overlap).
    pub partitions: Vec<PartitionWindow>,
    /// Crash–restart process, if any.
    pub crash: Option<CrashRestart>,
    /// Pull-based anti-entropy period for async flooding: every interval,
    /// each uninformed alive node pulls from one uniform alive partner.
    /// `None` disables the mechanism (and consumes no randomness).
    pub anti_entropy: Option<f64>,
}

impl FaultPlan {
    /// The empty plan: no faults, no recovery machinery, zero randomness —
    /// stream-identical to running an engine without the fault layer.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            loss: LossModel::None,
            duplicate_p: 0.0,
            reorder_p: 0.0,
            reorder_max: 0.0,
            partitions: Vec::new(),
            crash: None,
            anti_entropy: None,
        }
    }

    /// `true` when the plan injects nothing and schedules nothing.
    #[must_use]
    pub fn is_none(&self) -> bool {
        matches!(self.loss, LossModel::None)
            && self.duplicate_p == 0.0
            && self.reorder_p == 0.0
            && self.partitions.is_empty()
            && self.crash.is_none()
            && self.anti_entropy.is_none()
    }

    /// Checks every axis of the plan.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        let unit = |p: f64| (0.0..=1.0).contains(&p);
        match self.loss {
            LossModel::None | LossModel::Bursty(_) => {}
            LossModel::Iid { p } => {
                if !unit(p) {
                    return Err(format!("i.i.d. loss probability {p} outside [0, 1]"));
                }
            }
        }
        if !unit(self.duplicate_p) {
            return Err(format!(
                "duplication probability {} outside [0, 1]",
                self.duplicate_p
            ));
        }
        if !unit(self.reorder_p) {
            return Err(format!(
                "reordering probability {} outside [0, 1]",
                self.reorder_p
            ));
        }
        if self.reorder_p > 0.0 && !(self.reorder_max.is_finite() && self.reorder_max > 0.0) {
            return Err(format!(
                "reordering bound {} must be finite and positive",
                self.reorder_max
            ));
        }
        for window in &self.partitions {
            if !(window.start.is_finite() && window.heal.is_finite())
                || window.start < 0.0
                || window.heal <= window.start
            {
                return Err(format!(
                    "partition window {window:?} is not a valid interval"
                ));
            }
            if window.blocks < 2 {
                return Err(format!(
                    "partition window {window:?} needs at least 2 blocks"
                ));
            }
        }
        if let Some(crash) = &self.crash {
            if !unit(crash.rate) {
                return Err(format!(
                    "crash rate {} per node per unit time outside [0, 1]",
                    crash.rate
                ));
            }
            crash.downtime.validate()?;
        }
        if let Some(interval) = self.anti_entropy {
            if !(interval.is_finite() && interval > 0.0) {
                return Err(format!(
                    "anti-entropy interval {interval} must be finite and positive"
                ));
            }
        }
        Ok(())
    }

    /// Short label for bench ids, report headers and the scenario fault
    /// axis: `none`, `loss0.1`, `ge0.05-0.5`, `dup0.2`, `ro0.3/4`,
    /// `part2@8-24`, `crash0.01`, `ae1` — joined with `+`.
    #[must_use]
    pub fn label(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        match self.loss {
            LossModel::None => {}
            LossModel::Iid { p } => parts.push(format!("loss{p}")),
            LossModel::Bursty(chan) => {
                parts.push(format!("ge{}-{}", chan.p_gb(), chan.p_bg()));
            }
        }
        if self.duplicate_p > 0.0 {
            parts.push(format!("dup{}", self.duplicate_p));
        }
        if self.reorder_p > 0.0 {
            parts.push(format!("ro{}/{}", self.reorder_p, self.reorder_max));
        }
        for window in &self.partitions {
            parts.push(format!(
                "part{}@{}-{}",
                window.blocks, window.start, window.heal
            ));
        }
        if let Some(crash) = &self.crash {
            parts.push(format!("crash{}", crash.rate));
        }
        if let Some(interval) = self.anti_entropy {
            parts.push(format!("ae{interval}"));
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }

    /// The deterministic block of node `id` in partition window
    /// `window_idx` — a pure hash, so nodes born mid-partition are assigned
    /// consistently without any coordination or randomness.
    #[must_use]
    pub fn block_of(&self, window_idx: usize, id: u64) -> u32 {
        let window = &self.partitions[window_idx];
        (derive_seed(id, PARTITION_SALT ^ window_idx as u64) % u64::from(window.blocks)) as u32
    }
}

/// The runtime of a [`FaultPlan`] over one run: the dedicated RNG
/// substream, per-link burst-channel states, and the down set of the
/// crash–restart process.
#[derive(Debug)]
pub struct FaultState<'p> {
    plan: &'p FaultPlan,
    rng: SimRng,
    /// Gilbert–Elliott channel state per directed link `(sender, receiver)`.
    channels: IdHashMap<(u64, u64), GilbertElliottState>,
    /// Nodes currently crashed (down), by raw identifier.
    down: IdHashSet<u64>,
    /// Down intervals `[crash, restart)` per node; the last interval of a
    /// node still down (or crashed-then-dead) is open: `restart = ∞`. This
    /// is what makes "a crash loses queued egress" enforceable after the
    /// fact: a message whose departure instant falls inside a sender's down
    /// window never made it to the wire.
    down_windows: IdHashMap<u64, Vec<(f64, f64)>>,
    crashes: u64,
    restarts: u64,
}

impl<'p> FaultState<'p> {
    /// Binds a plan to a run seed. The RNG is the dedicated fault
    /// substream of `seed`; an empty plan never draws from it.
    #[must_use]
    pub fn new(plan: &'p FaultPlan, seed: u64) -> Self {
        FaultState {
            plan,
            rng: substream_rng(seed, FAULT_STREAM),
            channels: IdHashMap::default(),
            down: IdHashSet::default(),
            down_windows: IdHashMap::default(),
            crashes: 0,
            restarts: 0,
        }
    }

    /// The plan this state executes.
    #[must_use]
    pub fn plan(&self) -> &'p FaultPlan {
        self.plan
    }

    /// The fault substream (for draws that belong to the fault layer but
    /// need engine-side context, e.g. sampling a crash victim or an
    /// anti-entropy partner from the live graph).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Decides the fate of one message on the link `sender → receiver`:
    /// `0` = lost, `1` = delivered, `2` = duplicated (one extra copy).
    /// Disabled axes consume no randomness.
    pub fn copies(&mut self, sender: u64, receiver: u64) -> u32 {
        let lost = match self.plan.loss {
            LossModel::None => false,
            LossModel::Iid { p } => self.rng.gen::<f64>() < p,
            LossModel::Bursty(chan) => {
                let state = self
                    .channels
                    .entry((sender, receiver))
                    .or_insert_with(|| chan.initial_state());
                chan.step(state, &mut self.rng)
            }
        };
        if lost {
            return 0;
        }
        if self.plan.duplicate_p > 0.0 && self.rng.gen::<f64>() < self.plan.duplicate_p {
            2
        } else {
            1
        }
    }

    /// Extra holding delay of one delivered copy — `0.0` unless the
    /// reordering coin fires, in which case the copy is held back a uniform
    /// draw on `(0, reorder_max]`. Disabled reordering consumes no
    /// randomness.
    pub fn reorder_delay(&mut self) -> f64 {
        if self.plan.reorder_p > 0.0 && self.rng.gen::<f64>() < self.plan.reorder_p {
            let u: f64 = 1.0 - self.rng.gen::<f64>(); // (0, 1]
            u * self.plan.reorder_max
        } else {
            0.0
        }
    }

    /// `true` when a delivery from `sender` to `receiver` at time `now`
    /// crosses an active partition boundary. Pure — no randomness.
    #[must_use]
    pub fn blocked(&self, now: f64, sender: u64, receiver: u64) -> bool {
        self.plan.partitions.iter().enumerate().any(|(i, w)| {
            w.start <= now
                && now < w.heal
                && self.plan.block_of(i, sender) != self.plan.block_of(i, receiver)
        })
    }

    /// Number of crashes to inject this tick over an `alive`-node
    /// population: Poisson with mean `rate · alive`. Zero (and no draw)
    /// without a crash model.
    pub fn crash_count(&mut self, alive: usize) -> u64 {
        match &self.plan.crash {
            None => 0,
            Some(crash) if crash.rate == 0.0 || alive == 0 => 0,
            Some(crash) => Poisson::new(crash.rate * alive as f64)
                .expect("validated: crash rate lies in [0, 1]")
                .sample(&mut self.rng),
        }
    }

    /// Draws one downtime from the crash model.
    ///
    /// # Panics
    ///
    /// Panics when the plan has no crash model — callers only reach this
    /// after a positive [`Self::crash_count`].
    pub fn downtime(&mut self) -> f64 {
        let crash = self.plan.crash.as_ref().expect("crash model present");
        crash.downtime.sample(&mut self.rng)
    }

    /// Marks a node down at time `now`, opening a down window. Returns
    /// `false` (and changes nothing) when it was already down.
    pub fn mark_down(&mut self, id: u64, now: f64) -> bool {
        let newly = self.down.insert(id);
        if newly {
            self.crashes += 1;
            self.down_windows
                .entry(id)
                .or_default()
                .push((now, f64::INFINITY));
        }
        newly
    }

    /// Marks a node up again at time `now`, closing its open down window.
    /// Returns `false` when it was not down (e.g. churn killed it before
    /// the restart fired).
    pub fn mark_up(&mut self, id: u64, now: f64) -> bool {
        let was_down = self.down.remove(&id);
        if was_down {
            self.restarts += 1;
            if let Some(last) = self
                .down_windows
                .get_mut(&id)
                .and_then(|windows| windows.last_mut())
            {
                last.1 = now;
            }
        }
        was_down
    }

    /// Forgets a node entirely (churn death while down). Its open down
    /// window stays open — the node crashed and never came back, so every
    /// later departure from it is void.
    pub fn forget(&mut self, id: u64) {
        self.down.remove(&id);
    }

    /// `true` while the node is crashed.
    #[must_use]
    pub fn is_down(&self, id: u64) -> bool {
        self.down.contains(&id)
    }

    /// `true` when the node was down at time `t` — the queued-egress rule:
    /// a message whose departure instant falls inside the sender's down
    /// window was still queued at the crash and is void.
    #[must_use]
    pub fn was_down_at(&self, id: u64, t: f64) -> bool {
        self.down_windows
            .get(&id)
            .is_some_and(|windows| windows.iter().any(|&(start, end)| start <= t && t < end))
    }

    /// Total crashes injected so far.
    #[must_use]
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Total restarts completed so far.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.restarts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churn_stochastic::rng::seeded_rng;

    #[test]
    fn empty_plan_validates_and_consumes_no_randomness() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        plan.validate().unwrap();
        assert_eq!(plan.label(), "none");

        let mut state = FaultState::new(&plan, 7);
        let reference = substream_rng(7, FAULT_STREAM);
        for _ in 0..32 {
            assert_eq!(state.copies(1, 2), 1);
            assert_eq!(state.reorder_delay(), 0.0);
            assert!(!state.blocked(5.0, 1, 2));
            assert_eq!(state.crash_count(100), 0);
        }
        assert_eq!(*state.rng(), reference, "no draw may touch the substream");
    }

    #[test]
    fn validate_rejects_bad_axes() {
        let mut plan = FaultPlan::none();
        plan.duplicate_p = 1.5;
        assert!(plan.validate().is_err());

        let mut plan = FaultPlan::none();
        plan.reorder_p = 0.5; // reorder_max still 0
        assert!(plan.validate().is_err());

        let mut plan = FaultPlan::none();
        plan.partitions.push(PartitionWindow {
            start: 4.0,
            heal: 2.0,
            blocks: 2,
        });
        assert!(plan.validate().is_err());

        let mut plan = FaultPlan::none();
        plan.partitions.push(PartitionWindow {
            start: 2.0,
            heal: 4.0,
            blocks: 1,
        });
        assert!(plan.validate().is_err());

        for rate in [-0.1, 1.5, 1e12, 1e308, f64::NAN] {
            let mut plan = FaultPlan::none();
            plan.crash = Some(CrashRestart {
                rate,
                downtime: LatencyModel::Fixed(1.0),
            });
            assert!(plan.validate().is_err(), "crash rate {rate}");
        }

        let mut plan = FaultPlan::none();
        plan.anti_entropy = Some(0.0);
        assert!(plan.validate().is_err());
    }

    #[test]
    fn iid_loss_rate_is_respected() {
        let mut plan = FaultPlan::none();
        plan.loss = LossModel::Iid { p: 0.3 };
        plan.validate().unwrap();
        let mut state = FaultState::new(&plan, 11);
        let trials = 100_000;
        let lost = (0..trials).filter(|_| state.copies(1, 2) == 0).count();
        let rate = lost as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.01, "loss rate {rate}");
    }

    #[test]
    fn bursty_loss_keeps_independent_per_link_channels() {
        let chan = GilbertElliott::new(0.02, 0.2, 0.0, 1.0).unwrap();
        let mut plan = FaultPlan::none();
        plan.loss = LossModel::Bursty(chan);
        let mut state = FaultState::new(&plan, 13);
        // Alternating links still converge to the stationary loss, and the
        // channel map holds one state per directed link.
        let mut lost = 0usize;
        let trials = 60_000;
        for k in 0..trials {
            let link = (k % 3) as u64;
            if state.copies(link, link + 10) == 0 {
                lost += 1;
            }
        }
        assert_eq!(state.channels.len(), 3);
        let rate = lost as f64 / trials as f64;
        assert!((rate - chan.stationary_loss()).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn duplication_and_reordering_rates_are_respected() {
        let mut plan = FaultPlan::none();
        plan.duplicate_p = 0.25;
        plan.reorder_p = 0.5;
        plan.reorder_max = 4.0;
        plan.validate().unwrap();
        let mut state = FaultState::new(&plan, 17);
        let trials = 50_000;
        let dup = (0..trials).filter(|_| state.copies(1, 2) == 2).count();
        assert!((dup as f64 / trials as f64 - 0.25).abs() < 0.01);
        let mut held = 0usize;
        for _ in 0..trials {
            let delay = state.reorder_delay();
            assert!((0.0..=4.0).contains(&delay));
            if delay > 0.0 {
                held += 1;
            }
        }
        assert!((held as f64 / trials as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn partition_blocks_are_deterministic_and_enforced_in_window() {
        let mut plan = FaultPlan::none();
        plan.partitions.push(PartitionWindow {
            start: 8.0,
            heal: 24.0,
            blocks: 2,
        });
        plan.validate().unwrap();
        // Find two ids in different blocks and two in the same.
        let (mut cross, mut same) = (None, None);
        for id in 1..64u64 {
            if plan.block_of(0, id) != plan.block_of(0, 0) {
                cross.get_or_insert(id);
            } else if id != 0 {
                same.get_or_insert(id);
            }
        }
        let (cross, same) = (cross.unwrap(), same.unwrap());
        let state = FaultState::new(&plan, 19);
        assert!(!state.blocked(7.9, 0, cross), "before the window");
        assert!(state.blocked(8.0, 0, cross), "window start is inclusive");
        assert!(state.blocked(23.9, 0, cross));
        assert!(!state.blocked(24.0, 0, cross), "heal is exclusive");
        assert!(!state.blocked(12.0, 0, same), "same block never blocked");
        // Blocks are a pure function of the id: re-evaluation agrees.
        assert_eq!(plan.block_of(0, cross), plan.block_of(0, cross));
        // Both blocks are populated over a small id range.
        let ones: u32 = (0..64).map(|id| plan.block_of(0, id)).sum();
        assert!(ones > 8 && ones < 56, "hash splits ids across blocks");
    }

    #[test]
    fn crash_restart_bookkeeping_counts_transitions_once() {
        let mut plan = FaultPlan::none();
        plan.crash = Some(CrashRestart {
            rate: 0.01,
            downtime: LatencyModel::Fixed(2.0),
        });
        let mut state = FaultState::new(&plan, 23);
        assert!(state.mark_down(5, 10.0));
        assert!(!state.mark_down(5, 10.5), "double crash is a no-op");
        assert!(state.is_down(5));
        assert!(!state.is_down(4), "only the victim is down");
        assert!(state.mark_up(5, 12.0));
        assert!(!state.is_down(5));
        assert!(!state.mark_up(5, 12.5), "double restart is a no-op");
        assert_eq!((state.crashes(), state.restarts()), (1, 1));
        // The down window [10, 12) voids departures queued at the crash.
        assert!(!state.was_down_at(5, 9.9));
        assert!(state.was_down_at(5, 10.0));
        assert!(state.was_down_at(5, 11.9));
        assert!(!state.was_down_at(5, 12.0), "restart instant is up again");
        state.mark_down(6, 20.0);
        state.forget(6); // churn death while down
        assert!(!state.mark_up(6, 25.0), "forgotten node never restarts");
        assert_eq!(state.restarts(), 1);
        assert!(
            state.was_down_at(6, 1e9),
            "a crashed-then-dead node never departs anything again"
        );

        // Crash counts follow the Poisson mean.
        let mut total = 0u64;
        let ticks = 20_000;
        for _ in 0..ticks {
            total += state.crash_count(100);
        }
        let mean = total as f64 / ticks as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean crashes/tick {mean}");
        assert_eq!(state.crash_count(0), 0);
    }

    #[test]
    fn labels_compose_axes() {
        let mut plan = FaultPlan::none();
        plan.loss = LossModel::Iid { p: 0.1 };
        plan.duplicate_p = 0.2;
        plan.reorder_p = 0.3;
        plan.reorder_max = 4.0;
        plan.partitions.push(PartitionWindow {
            start: 8.0,
            heal: 24.0,
            blocks: 2,
        });
        plan.crash = Some(CrashRestart {
            rate: 0.01,
            downtime: LatencyModel::Fixed(2.0),
        });
        plan.anti_entropy = Some(1.0);
        assert_eq!(
            plan.label(),
            "loss0.1+dup0.2+ro0.3/4+part2@8-24+crash0.01+ae1"
        );
        let ge = GilbertElliott::new(0.05, 0.5, 0.0, 1.0).unwrap();
        let mut bursty = FaultPlan::none();
        bursty.loss = LossModel::Bursty(ge);
        assert_eq!(bursty.label(), "ge0.05-0.5");
    }

    #[test]
    fn same_seed_gives_identical_fault_streams() {
        let mut plan = FaultPlan::none();
        plan.loss = LossModel::Iid { p: 0.2 };
        plan.duplicate_p = 0.1;
        plan.reorder_p = 0.2;
        plan.reorder_max = 2.0;
        let mut a = FaultState::new(&plan, 29);
        let mut b = FaultState::new(&plan, 29);
        for k in 0..1000u64 {
            assert_eq!(a.copies(k, k + 1), b.copies(k, k + 1));
            assert_eq!(a.reorder_delay().to_bits(), b.reorder_delay().to_bits());
        }
        // And the fault stream is independent of the run's base RNG.
        let base = seeded_rng(29);
        assert_eq!(base, seeded_rng(29));
    }
}
