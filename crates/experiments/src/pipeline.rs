//! The paper's query pipeline and its ablations, put together from
//! treepi's public stage functions: Center Distance pruning (Algorithm 2)
//! between filter and verify — the paper's `|P'_q|` in Figures 10–11, the
//! γ sweep and `classes` — a filter set from the partition alone, and naive
//! VF2 verification. The served pipeline (walk → filter on the full `SF_q`
//! → anchored verify) has no options; this module is the variants' only
//! consumer. Every variant walks the query once, as the engine does: the
//! walk yields `TP_q` and both filter sets.

use graph_core::par::Pool;
use graph_core::Graph;
use treepi::prune::{center_prune_pool_obs, query_center_distances};
use treepi::verify::verify_all;
use treepi::{feature_tree_partition, PartitionRuns, QueryStats, TreePiIndex};

/// One pipeline variant: which stages replace or join the served ones.
#[derive(Clone, Copy, Debug, Default)]
pub struct Variant {
    /// Filter on `TP_q`'s features and those of `q`'s single edges, not on
    /// every indexed subtree of `q`.
    pub partition_sf: bool,
    /// Prune the filter's candidates by Center Distance Constraints
    /// (Algorithm 2) before verification.
    pub cdc: bool,
    /// Verify each candidate by VF2 of the whole query, as gIndex does,
    /// instead of the search anchored at the stored centers.
    pub vf2: bool,
}

impl Variant {
    /// The paper's pipeline: the served one with Algorithm 2 on.
    pub const PAPER: Variant = Variant {
        partition_sf: false,
        cdc: true,
        vf2: false,
    };
}

/// A query's candidate counts at each stage boundary.
#[derive(Clone, Copy, Debug, Default)]
pub struct Funnel {
    /// `|P_q|`: candidates after the filter.
    pub filtered: usize,
    /// `|P'_q|`: candidates verification tests — `filtered` unless the
    /// variant prunes.
    pub pruned: usize,
    /// `|D_q|`: the exact answers.
    pub answers: usize,
}

/// The served pipeline's funnel: it prunes nothing.
impl From<&QueryStats> for Funnel {
    fn from(s: &QueryStats) -> Funnel {
        Funnel {
            filtered: s.filtered as usize,
            pruned: s.filtered as usize,
            answers: s.answers as usize,
        }
    }
}

impl Funnel {
    /// `q` answered on `index` through `variant`'s stages. As in the served
    /// pipeline, a query that is itself a feature tree is answered by the
    /// feature's support set, and one with an edge that is no feature by
    /// nothing.
    pub fn of(index: &TreePiIndex, q: &Graph, variant: Variant) -> Funnel {
        if let Some(fid) = as_feature(index, q) {
            let support = &index.feature(fid).support;
            let n = support.iter().filter(|&&gid| index.is_active(gid)).count();
            return Funnel {
                filtered: n,
                pruned: n,
                answers: n,
            };
        }
        let PartitionRuns::Ok {
            min_partition: parts,
            sf,
            full_sf,
        } = feature_tree_partition(q, index)
        else {
            return Funnel::default();
        };
        let sf = if variant.partition_sf { sf } else { full_sf };
        let filtered = treepi::filter::filter(index, &sf);
        let pruned = if variant.cdc {
            let dq = query_center_distances(q, &parts);
            let off = obs::Shard::disabled();
            center_prune_pool_obs(index, q, &filtered, &parts, &dq, &Pool::new(1), 1, &off)
        } else {
            filtered.clone()
        };
        let answers = if variant.vf2 {
            pruned
                .iter()
                .filter(|&&gid| graph_core::is_subgraph_isomorphic(q, &index.db()[gid as usize]))
                .count()
        } else {
            verify_all(index, q, &pruned, &parts).len()
        };
        Funnel {
            filtered: filtered.len(),
            pruned: pruned.len(),
            answers,
        }
    }
}

/// The feature `q` is, if it is a tree the index stores.
fn as_feature(index: &TreePiIndex, q: &Graph) -> Option<treepi::FeatureId> {
    let tree = tree_core::Tree::from_graph(q.clone()).ok()?;
    index.feature_by_canon(&tree_core::canonical_string(&tree))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::graph_from;
    use treepi::TreePiParams;

    /// Every variant answers like the served pipeline, prunes no more than
    /// it filters, and only CDC prunes anything.
    #[test]
    fn variants_answer_like_the_served_pipeline() {
        let db = vec![
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1), (2, 3, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 1)]),
            graph_from(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]),
        ];
        let idx = TreePiIndex::build(db, TreePiParams::quick());
        let queries = [
            graph_from(&[0, 0], &[(0, 1, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]),
            graph_from(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]),
            graph_from(&[9, 9], &[(0, 1, 0)]),
        ];
        for (i, q) in queries.iter().enumerate() {
            let served = Funnel::from(&idx.query(q).stats);
            for bits in 0..8 {
                let v = Variant {
                    partition_sf: bits & 1 != 0,
                    cdc: bits & 2 != 0,
                    vf2: bits & 4 != 0,
                };
                let f = Funnel::of(&idx, q, v);
                assert_eq!(f.answers, served.answers, "query {i}, {v:?}");
                assert!(f.filtered >= f.pruned && f.pruned >= f.answers, "{f:?}");
                if !v.cdc {
                    assert_eq!(f.pruned, f.filtered, "query {i}, {v:?}");
                }
                if !v.partition_sf {
                    assert_eq!(f.filtered, served.filtered, "query {i}, {v:?}");
                }
            }
        }
    }
}
