//! TreePi over directed graph databases (paper §7.2).
//!
//! The paper: *"the existing graph mining methods should be extended to
//! mine frequent directed trees … the canonical forms of trees should also
//! be adjusted to keep the directions … In query processing phase, we need
//! not make any modification."*
//!
//! We realize the same semantics through the subdivision encoding of
//! [`graph_core::digraph`]: directed databases and queries are encoded
//! into undirected graphs whose midpoint vertices and `2ℓ / 2ℓ+1` edge
//! labels carry the directions, and the unmodified undirected engine does
//! the rest — mined features *are* directed trees (their encodings), and
//! query processing is untouched, exactly as §7.2 promises. Containment
//! answers coincide with directed subgraph isomorphism because the
//! encoding is a strong reduction (see the digraph module's tests).

use crate::index::TreePiIndex;
use crate::params::TreePiParams;
use crate::query::QueryResult;
use graph_core::digraph::DiGraph;

/// TreePi index over a directed graph database.
pub struct DirectedTreePiIndex {
    inner: TreePiIndex,
}

impl DirectedTreePiIndex {
    /// Build over a directed database. `params.sigma.eta` counts *encoded*
    /// edges: one directed arc costs two, so η should be roughly twice the
    /// intended directed-feature size.
    pub fn build(db: Vec<DiGraph>, params: TreePiParams) -> Self {
        let encoded = db.iter().map(|d| d.encode()).collect();
        Self {
            inner: TreePiIndex::build(encoded, params),
        }
    }

    /// The underlying undirected index (for statistics and inspection).
    pub fn inner(&self) -> &TreePiIndex {
        &self.inner
    }

    /// Answer a directed containment query: all database digraphs of which
    /// `q` is a directed subgraph.
    pub fn query(&self, q: &DiGraph) -> QueryResult {
        self.inner.query(&q.encode())
    }

    /// Insert a digraph (maintenance, §7.1 applied to §7.2).
    pub fn insert(&mut self, g: &DiGraph) -> u32 {
        self.inner.insert(g.encode())
    }

    /// Remove a digraph by id.
    pub fn remove(&mut self, gid: u32) -> bool {
        self.inner.remove(gid)
    }

    /// Number of active digraphs.
    pub fn active_count(&self) -> usize {
        self.inner.active_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::digraph::{digraph_from, is_sub_digraph_isomorphic, DiGraph};

    fn db() -> Vec<DiGraph> {
        vec![
            // chain a→b→c
            digraph_from(&[0, 1, 2], &[(0, 1, 0), (1, 2, 0)]),
            // reversed chain
            digraph_from(&[0, 1, 2], &[(1, 0, 0), (2, 1, 0)]),
            // diamond with a 2-cycle
            digraph_from(&[0, 1, 1, 2], &[(0, 1, 0), (0, 2, 0), (1, 3, 0), (3, 1, 0)]),
            // star out
            digraph_from(&[0, 1, 1], &[(0, 1, 0), (0, 2, 0)]),
        ]
    }

    fn oracle(db: &[DiGraph], q: &DiGraph) -> Vec<u32> {
        db.iter()
            .enumerate()
            .filter(|(_, g)| is_sub_digraph_isomorphic(q, g))
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn directed_queries_match_directed_oracle() {
        let database = db();
        let idx = DirectedTreePiIndex::build(database.clone(), TreePiParams::quick());
        let queries = [
            digraph_from(&[0, 1], &[(0, 1, 0)]),               // a→b
            digraph_from(&[1, 0], &[(0, 1, 0)]),               // b→a (reverse!)
            digraph_from(&[0, 1, 2], &[(0, 1, 0), (1, 2, 0)]), // chain
            digraph_from(&[1, 2], &[(0, 1, 0), (1, 0, 0)]),    // 2-cycle
            digraph_from(&[0, 1, 1], &[(0, 1, 0), (0, 2, 0)]), // out-star
        ];
        for (i, q) in queries.iter().enumerate() {
            let r = idx.query(q);
            assert_eq!(r.matches, oracle(&database, q), "directed query {i}");
        }
    }

    #[test]
    fn direction_distinguishes_answers() {
        // a→b is in graph 0 (and others); b→a pattern appears where arcs
        // run 1-label→0-label, i.e. graph 1.
        let database = db();
        let idx = DirectedTreePiIndex::build(database.clone(), TreePiParams::quick());
        let fwd = digraph_from(&[0, 1], &[(0, 1, 0)]);
        let bwd = digraph_from(&[1, 0], &[(0, 1, 0)]);
        let rf = idx.query(&fwd).matches;
        let rb = idx.query(&bwd).matches;
        assert_ne!(rf, rb, "direction must matter");
        assert_eq!(rf, oracle(&database, &fwd));
        assert_eq!(rb, oracle(&database, &bwd));
    }

    #[test]
    fn directed_maintenance() {
        let database = db();
        let mut idx = DirectedTreePiIndex::build(database.clone(), TreePiParams::quick());
        let extra = digraph_from(&[0, 1, 2], &[(0, 1, 0), (1, 2, 0), (0, 2, 0)]);
        let gid = idx.insert(&extra);
        let q = digraph_from(&[0, 2], &[(0, 1, 0)]); // a→c arc
        let r = idx.query(&q);
        assert!(r.matches.contains(&gid));
        idx.remove(gid);
        let r2 = idx.query(&q);
        assert!(!r2.matches.contains(&gid));
    }
}
