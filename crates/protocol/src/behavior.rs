//! Byzantine behavior layer: per-node protocol behaviors and the seeded
//! adversary model that assigns them at spawn.
//!
//! The paper's guarantees assume every node follows the protocol;
//! [`churn_core::VictimPolicy`] only attacks the churn *schedule*. This module
//! attacks the *protocol itself*: a configured [`AdversaryModel`] assigns each
//! newborn a [`Behavior`], and Byzantine behaviors hook the RAES
//! request/accept/reject and repair paths while honest nodes run the
//! completely unchanged code path. With [`AdversaryModel::None`] (or a
//! fraction of 0) the model is RNG-stream-identical to the un-adversarial
//! protocol: adversary decisions draw from a separate substream, and no
//! behavior tag is ever written, so every hot-path branch stays on its
//! existing arm.
//!
//! Behaviors are stored as one byte per slab cell
//! ([`churn_graph::DynamicGraph::set_tag_at`]); the low nibble carries the
//! flag bits shared with the flooding engines
//! ([`churn_core::flooding::TAG_BYZANTINE`],
//! [`churn_core::flooding::TAG_NO_FORWARD`]), the high nibble the behavior
//! discriminant.

use serde::{Deserialize, Serialize};

use churn_core::flooding::{TAG_BYZANTINE, TAG_NO_FORWARD};

/// The protocol behavior of one alive node, assigned at spawn and immutable
/// for its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Behavior {
    /// Follows the protocol (and forwards floods) exactly.
    #[default]
    Honest,
    /// Rejects every incoming connection request, regardless of its actual
    /// in-degree — exploits the accept/reject edge of the handshake: a
    /// refusal is indistinguishable from genuine saturation, so honest
    /// requesters burn retry rounds.
    RefuseAll,
    /// Accepts the handshake but never holds the in-link: the requester's
    /// slot is silently severed again, so the repair re-enters the queue
    /// every round and its latency grows without the requester ever seeing a
    /// rejection.
    AcceptThenDrop,
    /// Spends its own out-links saturating a chosen victim's `⌊c·d⌋`
    /// in-degree cap, so honest repair requests aimed at the victim bounce
    /// (or, under evict-oldest, shed honest links).
    CapSaturator,
    /// Protocol-honest on the repair path but silent on the flooding
    /// overlay: it becomes informed yet never forwards, poisoning the
    /// informed set around it.
    SilentOnFlood,
}

impl Behavior {
    /// The graph tag byte encoding this behavior (`0` for honest). Low
    /// nibble: flag bits shared with `churn_core::flooding`; high nibble:
    /// behavior discriminant.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            Behavior::Honest => 0,
            Behavior::RefuseAll => 0x10 | TAG_BYZANTINE,
            Behavior::AcceptThenDrop => 0x20 | TAG_BYZANTINE,
            Behavior::CapSaturator => 0x30 | TAG_BYZANTINE,
            Behavior::SilentOnFlood => 0x40 | TAG_BYZANTINE | TAG_NO_FORWARD,
        }
    }
}

/// Which Byzantine behavior an adversary model assigns to its nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackKind {
    /// Every corrupted node runs [`Behavior::RefuseAll`].
    RefuseAll,
    /// Every corrupted node runs [`Behavior::AcceptThenDrop`].
    AcceptThenDrop,
    /// Every corrupted node runs [`Behavior::CapSaturator`].
    CapSaturator,
    /// Every corrupted node runs [`Behavior::SilentOnFlood`].
    SilentOnFlood,
}

impl AttackKind {
    /// The behavior this attack assigns.
    #[must_use]
    pub fn behavior(self) -> Behavior {
        match self {
            AttackKind::RefuseAll => Behavior::RefuseAll,
            AttackKind::AcceptThenDrop => Behavior::AcceptThenDrop,
            AttackKind::CapSaturator => Behavior::CapSaturator,
            AttackKind::SilentOnFlood => Behavior::SilentOnFlood,
        }
    }

    /// Short label used in scenario net names and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::RefuseAll => "refuse",
            AttackKind::AcceptThenDrop => "accept-drop",
            AttackKind::CapSaturator => "cap-sat",
            AttackKind::SilentOnFlood => "silent",
        }
    }

    /// A stable code mixed into seed derivation (so distinct attacks on the
    /// same grid point get distinct cell seeds).
    #[must_use]
    pub fn seed_code(self) -> u64 {
        match self {
            AttackKind::RefuseAll => 1,
            AttackKind::AcceptThenDrop => 2,
            AttackKind::CapSaturator => 3,
            AttackKind::SilentOnFlood => 4,
        }
    }
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How Byzantine behaviors are assigned to newborn nodes. All randomness
/// draws from the model's dedicated adversary substream, never from the main
/// simulation stream — so the honest trajectory at fraction 0 is bit-for-bit
/// the trajectory of a model with no adversary at all.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdversaryModel {
    /// No adversary: no draws, no tags, the unchanged protocol.
    #[default]
    None,
    /// Each newborn is independently corrupted with probability `fraction`.
    Uniform {
        /// Corruption probability per spawn, in `[0, 1)`.
        fraction: f64,
        /// Behavior assigned to corrupted nodes.
        attack: AttackKind,
    },
    /// Like [`AdversaryModel::Uniform`], but every corrupted
    /// [`Behavior::CapSaturator`] presses one *shared* victim — the
    /// targeted-neighborhood (eclipse) shape, which concentrates the whole
    /// corrupted capacity budget on a single node. For attacks without a
    /// victim notion this degenerates to `Uniform`.
    Eclipse {
        /// Corruption probability per spawn, in `[0, 1)`.
        fraction: f64,
        /// Behavior assigned to corrupted nodes.
        attack: AttackKind,
    },
    /// Corrupted nodes arrive in bursts: once a corruption fires, the next
    /// `cohort - 1` spawns are corrupted too (a join-flood). The per-spawn
    /// firing probability is `fraction / cohort`, so the *long-run* corrupted
    /// fraction still approaches `fraction`.
    JoinFlood {
        /// Long-run corrupted fraction, in `[0, 1)`.
        fraction: f64,
        /// Burst length (at least 1; 1 degenerates to `Uniform`).
        cohort: u32,
        /// Behavior assigned to corrupted nodes.
        attack: AttackKind,
    },
}

impl AdversaryModel {
    /// The configured corrupted fraction (0 for [`AdversaryModel::None`]).
    #[must_use]
    pub fn fraction(&self) -> f64 {
        match *self {
            AdversaryModel::None => 0.0,
            AdversaryModel::Uniform { fraction, .. }
            | AdversaryModel::Eclipse { fraction, .. }
            | AdversaryModel::JoinFlood { fraction, .. } => fraction,
        }
    }

    /// The configured attack, when any.
    #[must_use]
    pub fn attack(&self) -> Option<AttackKind> {
        match *self {
            AdversaryModel::None => None,
            AdversaryModel::Uniform { attack, .. }
            | AdversaryModel::Eclipse { attack, .. }
            | AdversaryModel::JoinFlood { attack, .. } => Some(attack),
        }
    }

    /// `true` unless this is [`AdversaryModel::None`]. An *active* model with
    /// fraction 0 still draws from the adversary substream at every spawn but
    /// never corrupts — by construction that leaves the main stream, and
    /// hence the trajectory, untouched.
    #[must_use]
    pub fn is_active(&self) -> bool {
        !matches!(self, AdversaryModel::None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_round_trip_and_carry_the_flag_bits() {
        let mut tags = Vec::new();
        for behavior in [
            Behavior::Honest,
            Behavior::RefuseAll,
            Behavior::AcceptThenDrop,
            Behavior::CapSaturator,
            Behavior::SilentOnFlood,
        ] {
            assert!(!tags.contains(&behavior.tag()), "{behavior:?} shares a tag");
            tags.push(behavior.tag());
            if behavior != Behavior::Honest {
                assert_ne!(behavior.tag() & TAG_BYZANTINE, 0, "{behavior:?}");
            }
        }
        assert_ne!(Behavior::SilentOnFlood.tag() & TAG_NO_FORWARD, 0);
        assert_eq!(Behavior::RefuseAll.tag() & TAG_NO_FORWARD, 0);
    }

    #[test]
    fn attack_labels_and_codes_are_stable_and_distinct() {
        let kinds = [
            AttackKind::RefuseAll,
            AttackKind::AcceptThenDrop,
            AttackKind::CapSaturator,
            AttackKind::SilentOnFlood,
        ];
        assert_eq!(AttackKind::RefuseAll.to_string(), "refuse");
        assert_eq!(AttackKind::AcceptThenDrop.to_string(), "accept-drop");
        assert_eq!(AttackKind::CapSaturator.to_string(), "cap-sat");
        assert_eq!(AttackKind::SilentOnFlood.to_string(), "silent");
        let mut codes: Vec<u64> = kinds.iter().map(|k| k.seed_code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), kinds.len());
    }

    #[test]
    fn adversary_model_accessors() {
        assert!(!AdversaryModel::None.is_active());
        assert_eq!(AdversaryModel::None.fraction(), 0.0);
        assert_eq!(AdversaryModel::None.attack(), None);
        let uniform = AdversaryModel::Uniform {
            fraction: 0.1,
            attack: AttackKind::RefuseAll,
        };
        assert!(uniform.is_active());
        assert_eq!(uniform.fraction(), 0.1);
        assert_eq!(uniform.attack(), Some(AttackKind::RefuseAll));
        assert_eq!(AdversaryModel::default(), AdversaryModel::None);
    }
}
