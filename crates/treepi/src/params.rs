//! TreePi configuration (paper §4.1.3 heuristics and §6.1 settings). Every
//! field shapes the index; δ alone is stored and read by no query.

use mining::SigmaFn;

/// The paper's number of randomized partition runs δ per query (§5.1).
/// Persisted and validated in the index file, and ignored by queries: the
/// partition is a deterministic cover ([`crate::partition`]). Kept for the
/// ledger's replay until ROADMAP item 1.
#[derive(Clone, Copy, Debug)]
pub enum Delta {
    /// Fixed number of runs.
    Fixed(usize),
    /// δ = |q| (edge count of the query) — the paper's §6.1 choice.
    QuerySize,
}

/// Largest [`Delta::Fixed`] run count an index file may carry: no writer
/// asks for more than |q|, so a larger value can only be a forged one.
pub(crate) const MAX_FIXED_DELTA: usize = 1 << 16;

impl Delta {
    /// Kept for the ledger's replay until ROADMAP item 1: the run count for
    /// a query with `q_edges` edges.
    pub fn resolve(&self, q_edges: usize) -> usize {
        match *self {
            Delta::Fixed(n) => n.max(1),
            Delta::QuerySize => q_edges.max(1),
        }
    }
}

/// All TreePi parameters.
#[derive(Clone, Debug)]
pub struct TreePiParams {
    /// Feature-tree support threshold function σ(s) (Eq. 1).
    pub sigma: SigmaFn,
    /// Shrinking parameter γ (§4.1.2), typically 1..=3.
    pub gamma: f64,
    /// Partition runs per query (§5.1); the paper uses δ = |q|. Persisted,
    /// ignored by queries (see [`Delta`]).
    pub delta: Delta,
}

impl Default for TreePiParams {
    /// The paper's §6.1 configuration: α = 5, β = 2, η = 10, γ = 1.5,
    /// δ = |q|.
    fn default() -> Self {
        Self {
            sigma: SigmaFn::paper_default(),
            gamma: 1.5,
            delta: Delta::QuerySize,
        }
    }
}

impl TreePiParams {
    /// A small-η configuration for tests and quick experiments.
    pub fn quick() -> Self {
        Self {
            sigma: SigmaFn {
                alpha: 3,
                beta: 2.0,
                eta: 6,
            },
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_resolution() {
        assert_eq!(Delta::Fixed(5).resolve(20), 5);
        assert_eq!(Delta::Fixed(0).resolve(20), 1);
        assert_eq!(Delta::QuerySize.resolve(12), 12);
        assert_eq!(Delta::QuerySize.resolve(0), 1);
    }

    #[test]
    fn paper_defaults() {
        let p = TreePiParams::default();
        assert_eq!(p.sigma.alpha, 5);
        assert_eq!(p.sigma.eta, 10);
        assert!((p.gamma - 1.5).abs() < 1e-9);
        assert!(matches!(p.delta, Delta::QuerySize));
    }
}
