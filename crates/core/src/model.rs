//! The common interface of the four dynamic network models.

use churn_graph::{DynamicGraph, NodeId, Snapshot};

use crate::{ChurnSummary, EdgePolicy, ModelKind};

/// Common interface of the streaming and Poisson dynamic network models.
///
/// The unit of time is the paper's message-transmission delay: one call to
/// [`advance_time_unit`](Self::advance_time_unit) advances a streaming model by
/// exactly one round (one birth, one death) and a Poisson model by one unit of
/// continuous time (a Poisson-distributed number of churn events). This is the
/// granularity at which the flooding processes of Definitions 3.3 and 4.2
/// observe the network.
///
/// Implementations also expose their underlying [`DynamicGraph`] so analyses
/// (expansion, isolation, onion-skin) can inspect the realized topology, and the
/// birth time of every alive node so age-based arguments can be replayed.
pub trait DynamicNetwork {
    /// The realized topology at the current instant.
    fn graph(&self) -> &DynamicGraph;

    /// Mutable access to the realized topology, for **observer plumbing
    /// only**: enabling [`churn_graph::GraphDelta`] recording
    /// ([`DynamicGraph::set_delta_recording`]) and draining recorded windows
    /// ([`DynamicGraph::take_delta_into`]) between rounds. Mutating the
    /// topology itself through this handle bypasses the model's round
    /// structure (queues, regeneration, repair sweeps) and can violate its
    /// invariants — drive models through
    /// [`Self::advance_time_unit`] and friends instead.
    fn graph_mut(&mut self) -> &mut DynamicGraph;

    /// The out-degree parameter `d` every joining node uses.
    fn degree_parameter(&self) -> usize;

    /// The expected (streaming: exact, after warm-up) network size `n`.
    fn expected_size(&self) -> usize;

    /// Whether the model regenerates edges on neighbour death.
    fn edge_policy(&self) -> EdgePolicy;

    /// Which of the paper's four models (SDG, SDGR, PDG, PDGR) this instance
    /// realises.
    fn model_kind(&self) -> ModelKind;

    /// Whether the model's churn process is the *streaming* one (every node
    /// lives exactly `n` rounds), as opposed to memoryless exponential
    /// lifetimes. Analyses whose constants depend on the churn process
    /// (isolation horizons, large-set expansion bounds) branch on this, not
    /// on [`Self::model_kind`] — kinds like `ModelKind::Raes` can run either
    /// churn process, so the kind alone does not determine it.
    fn has_streaming_churn(&self) -> bool {
        self.model_kind().is_streaming()
    }

    /// Current model time: the round index for streaming models, continuous time
    /// for Poisson models.
    fn time(&self) -> f64;

    /// Number of churn steps processed so far: the round index for streaming
    /// models, the jump-chain round `r` (Definition 4.5) for Poisson models.
    fn churn_steps(&self) -> u64;

    /// Birth time of an alive node (`None` for dead or unknown nodes), in the
    /// same unit as [`Self::time`].
    fn birth_time(&self, id: NodeId) -> Option<f64>;

    /// The most recently born node, if it is still alive.
    fn newest_node(&self) -> Option<NodeId>;

    /// Advances the model by one message-transmission time unit and reports the
    /// churn that happened in it.
    fn advance_time_unit(&mut self) -> ChurnSummary;

    /// Brings the model to its stationary regime (the "for every fixed `t > n`"
    /// / "`r ≥ 7 n log n`" preconditions of the paper's statements): streaming
    /// models run until round `2 n` (full size is reached at round `n`, but the
    /// edge structure only becomes stationary once deaths have been happening
    /// for a full lifetime), Poisson models until time `3 n`. A model that is
    /// already warm is left untouched.
    fn warm_up(&mut self);

    /// Returns `true` once the stationary-regime precondition holds.
    fn is_warm(&self) -> bool;

    /// A compact immutable snapshot of the current topology.
    fn snapshot(&self) -> Snapshot {
        Snapshot::of(self.graph())
    }

    /// Number of currently alive nodes.
    fn alive_count(&self) -> usize {
        self.graph().len()
    }

    /// Returns `true` when `id` is currently alive.
    fn contains(&self, id: NodeId) -> bool {
        self.graph().contains(id)
    }

    /// Identifiers of all alive nodes, sorted increasingly.
    fn alive_ids(&self) -> Vec<NodeId> {
        self.graph().sorted_node_ids()
    }

    /// Age of an alive node in model time units (`None` for dead nodes).
    fn age(&self, id: NodeId) -> Option<f64> {
        self.birth_time(id).map(|b| self.time() - b)
    }

    /// Advances the model by `units` message-transmission time units, merging
    /// the churn summaries.
    fn advance_time_units(&mut self, units: u64) -> ChurnSummary {
        let mut summary = ChurnSummary::new();
        for _ in 0..units {
            summary.absorb(self.advance_time_unit());
        }
        summary
    }
}
