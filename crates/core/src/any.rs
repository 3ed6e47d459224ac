//! Model-kind enumeration and a type-erased model wrapper for sweeps.

use churn_graph::{DynamicGraph, NodeId};

use crate::model::DynamicNetwork;
use crate::{
    ChurnSummary, EdgePolicy, PoissonConfig, PoissonModel, Result, StreamingConfig, StreamingModel,
};

/// The four dynamic network models of the paper (Table 1's columns × rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Streaming churn, no edge regeneration (Definition 3.4).
    Sdg,
    /// Streaming churn, edge regeneration (Definition 3.13).
    Sdgr,
    /// Poisson churn, no edge regeneration (Definition 4.9).
    Pdg,
    /// Poisson churn, edge regeneration (Definition 4.14).
    Pdgr,
}

impl ModelKind {
    /// The paper's four models, in the paper's presentation order.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::Sdg,
        ModelKind::Sdgr,
        ModelKind::Pdg,
        ModelKind::Pdgr,
    ];

    /// Returns `true` for the streaming-churn baseline models.
    #[must_use]
    pub fn is_streaming(self) -> bool {
        matches!(self, ModelKind::Sdg | ModelKind::Sdgr)
    }

    /// Returns `true` for the Poisson-churn baseline models.
    #[must_use]
    pub fn is_poisson(self) -> bool {
        matches!(self, ModelKind::Pdg | ModelKind::Pdgr)
    }

    /// The edge policy of the model.
    #[must_use]
    pub fn edge_policy(self) -> EdgePolicy {
        match self {
            ModelKind::Sdg | ModelKind::Pdg => EdgePolicy::Static,
            ModelKind::Sdgr | ModelKind::Pdgr => EdgePolicy::Regenerate,
        }
    }

    /// The acronym used throughout the paper (and this workspace's reports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::Sdg => "SDG",
            ModelKind::Sdgr => "SDGR",
            ModelKind::Pdg => "PDG",
            ModelKind::Pdgr => "PDGR",
        }
    }

    /// Builds a model of this kind with expected size `n`, degree `d` and the
    /// given seed. Poisson models use the paper's normalisation λ = 1, µ = 1/n.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn build(self, n: usize, d: usize, seed: u64) -> Result<AnyModel> {
        self.build_with_victim(n, d, seed, crate::driver::VictimPolicy::Uniform)
    }

    /// Like [`Self::build`], with an explicit death-victim policy.
    ///
    /// Streaming kinds accept [`VictimPolicy::OldestFirst`] as a no-op (their
    /// death schedule already is oldest-first, Definition 3.2) and reject
    /// [`VictimPolicy::HighestDegree`] — it would break the exact-lifetime
    /// law. Poisson kinds run any policy through the shared adversarial
    /// selectors in [`crate::driver`].
    ///
    /// [`VictimPolicy::OldestFirst`]: crate::driver::VictimPolicy::OldestFirst
    /// [`VictimPolicy::HighestDegree`]: crate::driver::VictimPolicy::HighestDegree
    ///
    /// # Errors
    ///
    /// As [`Self::build`], plus [`crate::ModelError::UnsupportedVictimPolicy`]
    /// for a streaming kind with degree-targeted deaths.
    pub fn build_with_victim(
        self,
        n: usize,
        d: usize,
        seed: u64,
        victim: crate::driver::VictimPolicy,
    ) -> Result<AnyModel> {
        use crate::driver::VictimPolicy;
        match self {
            ModelKind::Sdg | ModelKind::Sdgr => {
                if victim == VictimPolicy::HighestDegree {
                    return Err(crate::ModelError::UnsupportedVictimPolicy {
                        kind: self.label(),
                        policy: victim.label(),
                    });
                }
                let config = StreamingConfig::new(n, d)
                    .edge_policy(self.edge_policy())
                    .seed(seed);
                Ok(AnyModel::Streaming(StreamingModel::new(config)?))
            }
            ModelKind::Pdg | ModelKind::Pdgr => {
                let config = PoissonConfig::with_expected_size(n, d)
                    .edge_policy(self.edge_policy())
                    .seed(seed)
                    .victim_policy(victim);
                Ok(AnyModel::Poisson(PoissonModel::new(config)?))
            }
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for ModelKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "SDG" => Ok(ModelKind::Sdg),
            "SDGR" => Ok(ModelKind::Sdgr),
            "PDG" => Ok(ModelKind::Pdg),
            "PDGR" => Ok(ModelKind::Pdgr),
            other => Err(format!(
                "unknown model kind {other:?} (expected SDG, SDGR, PDG or PDGR)"
            )),
        }
    }
}

/// A type-erased dynamic network model, convenient for parameter sweeps that
/// iterate over [`ModelKind::ALL`].
#[derive(Debug, Clone)]
pub enum AnyModel {
    /// A streaming-churn model (SDG or SDGR).
    Streaming(StreamingModel),
    /// A Poisson-churn model (PDG or PDGR).
    Poisson(PoissonModel),
}

impl AnyModel {
    /// Which of the paper's four models this instance realises.
    #[must_use]
    pub fn kind(&self) -> ModelKind {
        match self {
            AnyModel::Streaming(m) => m.model_kind(),
            AnyModel::Poisson(m) => m.model_kind(),
        }
    }

    /// Borrows the inner streaming model, if this is one.
    #[must_use]
    pub fn as_streaming(&self) -> Option<&StreamingModel> {
        match self {
            AnyModel::Streaming(m) => Some(m),
            AnyModel::Poisson(_) => None,
        }
    }
}

macro_rules! delegate {
    ($self:ident, $m:ident => $body:expr) => {
        match $self {
            AnyModel::Streaming($m) => $body,
            AnyModel::Poisson($m) => $body,
        }
    };
}

impl DynamicNetwork for AnyModel {
    fn graph(&self) -> &DynamicGraph {
        delegate!(self, m => m.graph())
    }

    fn graph_mut(&mut self) -> &mut DynamicGraph {
        delegate!(self, m => m.graph_mut())
    }

    fn degree_parameter(&self) -> usize {
        delegate!(self, m => m.degree_parameter())
    }

    fn expected_size(&self) -> usize {
        delegate!(self, m => m.expected_size())
    }

    fn edge_policy(&self) -> EdgePolicy {
        delegate!(self, m => m.edge_policy())
    }

    fn has_streaming_churn(&self) -> bool {
        delegate!(self, m => m.has_streaming_churn())
    }

    fn time(&self) -> f64 {
        delegate!(self, m => m.time())
    }

    fn churn_steps(&self) -> u64 {
        delegate!(self, m => m.churn_steps())
    }

    fn birth_time(&self, id: NodeId) -> Option<f64> {
        delegate!(self, m => m.birth_time(id))
    }

    fn newest_node(&self) -> Option<NodeId> {
        delegate!(self, m => m.newest_node())
    }

    fn advance_time_unit(&mut self) -> ChurnSummary {
        delegate!(self, m => m.advance_time_unit())
    }

    fn warm_up(&mut self) {
        delegate!(self, m => m.warm_up())
    }

    fn is_warm(&self) -> bool {
        delegate!(self, m => m.is_warm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_parsing_round_trip() {
        for kind in ModelKind::ALL {
            let parsed: ModelKind = kind.label().parse().unwrap();
            assert_eq!(parsed, kind);
            assert_eq!(kind.to_string(), kind.label());
        }
        assert!("XYZ".parse::<ModelKind>().is_err());
        assert_eq!("sdgr".parse::<ModelKind>().unwrap(), ModelKind::Sdgr);
    }

    #[test]
    fn kind_properties_match_table_1() {
        assert!(ModelKind::Sdg.is_streaming() && !ModelKind::Sdg.edge_policy().regenerates());
        assert!(ModelKind::Sdgr.is_streaming() && ModelKind::Sdgr.edge_policy().regenerates());
        assert!(ModelKind::Pdg.is_poisson() && !ModelKind::Pdg.edge_policy().regenerates());
        assert!(ModelKind::Pdgr.is_poisson() && ModelKind::Pdgr.edge_policy().regenerates());
    }

    #[test]
    fn build_produces_the_right_variant() {
        for kind in ModelKind::ALL {
            let model = kind.build(64, 3, 7).unwrap();
            assert_eq!(model.kind(), kind);
            assert_eq!(model.expected_size(), 64);
            assert_eq!(model.degree_parameter(), 3);
            match kind {
                ModelKind::Sdg | ModelKind::Sdgr => {
                    assert!(model.as_streaming().is_some());
                }
                ModelKind::Pdg | ModelKind::Pdgr => {
                    assert!(model.as_streaming().is_none());
                }
            }
        }
    }

    #[test]
    fn build_rejects_invalid_parameters() {
        assert!(ModelKind::Sdg.build(1, 3, 0).is_err());
        assert!(ModelKind::Pdgr.build(100, 0, 0).is_err());
    }

    #[test]
    fn any_model_advances_like_the_inner_model() {
        let mut any = ModelKind::Sdgr.build(50, 3, 5).unwrap();
        any.warm_up();
        assert!(any.is_warm());
        assert_eq!(any.alive_count(), 50);
        let summary = any.advance_time_unit();
        assert_eq!(summary.births.len(), 1);
        assert_eq!(summary.deaths.len(), 1);

        let mut any = ModelKind::Pdg.build(100, 3, 5).unwrap();
        any.warm_up();
        assert!(any.is_warm());
        assert!(any.alive_count() > 0);
        assert!(any.time() >= 300.0);
    }
}
