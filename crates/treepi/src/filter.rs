//! Filtering by support-set intersection (paper Algorithm 1).
//!
//! `P_q = ⋂_{t ∈ SF_q} D_t`: a graph can only contain the query if it
//! contains every feature subtree of the query.

use crate::index::{FeatureId, TreePiIndex};
use graph_core::Graph;
use mining::{intersect_many, SupportSet};

/// Enumerate the indexed feature subtrees of `q` (paper §1: "we enumerate
/// the frequent subtrees in q and identify the graphs in the database which
/// contain those subtrees").
///
/// Every connected acyclic edge subset of `q` up to the index's η that is a
/// stored feature is found by the guided walk ([`crate::walk`]); the
/// distinct features form `SF_q`. Returns `None` if a single edge of `q` is
/// not a feature, which proves the support is empty (σ(1) = 1 indexes every
/// edge the database contains).
pub fn enumerate_query_features(index: &TreePiIndex, q: &Graph) -> Option<Vec<FeatureId>> {
    use crate::walk::{QueryFeatures, WalkCounts};
    let pool = graph_core::par::Pool::new(1);
    let found = QueryFeatures::walk(index, q, &pool, 1, &mut WalkCounts::default()).ok()?;
    Some(found.features())
}

/// Intersect the support sets of the given features (Algorithm 1). The
/// result is restricted to active graphs and sorted.
pub fn filter(index: &TreePiIndex, sf: &[FeatureId]) -> SupportSet {
    let sets: Vec<&[u32]> = sf
        .iter()
        .map(|&f| index.feature(f).support.as_slice())
        .collect();
    let mut pq = intersect_many(&sets, index.db().len());
    pq.retain(|&gid| index.is_active(gid));
    pq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TreePiParams;
    use graph_core::graph_from;
    use tree_core::canonical_string;

    fn index() -> TreePiIndex {
        let db = vec![
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 1)]),
        ];
        TreePiIndex::build(db, TreePiParams::quick())
    }

    fn fid_of(idx: &TreePiIndex, vlabels: &[u32], edges: &[(u32, u32, u32)]) -> FeatureId {
        let t = tree_core::tree_from(vlabels, edges);
        idx.feature_by_canon(&canonical_string(&t))
            .expect("feature")
    }

    #[test]
    fn empty_sf_yields_all_active() {
        let idx = index();
        assert_eq!(filter(&idx, &[]), vec![0, 1, 2]);
    }

    #[test]
    fn single_feature_yields_its_support() {
        let idx = index();
        // the 2-edge tree 1–0–1 (edge labels 0 and 1) only fits graph 2,
        // whose star has two distinct label-1 leaves
        let f = fid_of(&idx, &[1, 0, 1], &[(0, 1, 0), (1, 2, 1)]);
        assert_eq!(filter(&idx, &[f]), vec![2]);
    }

    #[test]
    fn intersection_of_two_features() {
        let idx = index();
        let aa = fid_of(&idx, &[0, 0], &[(0, 1, 0)]); // graphs 0,1,2
        let ab1 = fid_of(&idx, &[0, 1], &[(0, 1, 1)]); // graphs 0,2
        let got = filter(&idx, &[aa, ab1]);
        assert_eq!(got, vec![0, 2]);
    }

    #[test]
    fn filter_excludes_removed_graphs() {
        let mut idx = index();
        idx.remove(0);
        let aa = fid_of(&idx, &[0, 0], &[(0, 1, 0)]);
        assert_eq!(filter(&idx, &[aa]), vec![1, 2]);
    }
}
