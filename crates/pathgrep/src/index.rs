//! The path index: per label path, the set of graphs containing it.
//!
//! Queries are answered GraphGrep-style: extract the query's label paths,
//! intersect their support sets, then verify candidates with naive
//! subgraph isomorphism. The paper's §1 critique — "the size of index path
//! set could increase drastically with the size of graph database" and
//! "paths … lose a large amount of structural information" — is exactly
//! what the comparison experiments show.

use crate::paths::{label_paths, PathKey};
use graph_core::Graph;
use mining::{intersect_many, SupportSet};
use rustc_hash::FxHashMap;
use std::time::{Duration, Instant};

/// Parameters of the path index.
#[derive(Clone, Copy, Debug)]
pub struct PathGrepParams {
    /// Maximum indexed path length in edges (GraphGrep's `lp`, typically 4).
    pub max_len: usize,
}

impl Default for PathGrepParams {
    fn default() -> Self {
        Self { max_len: 4 }
    }
}

/// Build statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct PBuildStats {
    /// Distinct label paths indexed (the "index size" for Figure 9-style
    /// comparisons).
    pub features: usize,
    /// Milliseconds spent building.
    pub t_build_ms: u128,
}

/// Per-query statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct PQueryStats {
    /// Paths extracted from the query.
    pub paths_used: usize,
    /// Candidates after filtering.
    pub filtered: usize,
    /// Exact answers.
    pub answers: usize,
    /// Filter time.
    pub t_filter: Duration,
    /// Verification time.
    pub t_verify: Duration,
}

impl PQueryStats {
    /// Total processing time.
    pub fn total(&self) -> Duration {
        self.t_filter + self.t_verify
    }
}

/// Result of a path-index query.
#[derive(Clone, Debug)]
pub struct PQueryResult {
    /// Sorted ids of graphs containing the query.
    pub matches: Vec<u32>,
    /// Stage statistics.
    pub stats: PQueryStats,
}

/// GraphGrep-style path index.
pub struct PathGrep {
    db: Vec<Graph>,
    supports: FxHashMap<PathKey, SupportSet>,
    params: PathGrepParams,
    stats: PBuildStats,
}

impl PathGrep {
    /// Index every label path up to `max_len` edges.
    pub fn build(db: Vec<Graph>, params: PathGrepParams) -> Self {
        let t = Instant::now();
        let mut supports: FxHashMap<PathKey, SupportSet> = FxHashMap::default();
        for (gid, g) in db.iter().enumerate() {
            for key in label_paths(g, params.max_len) {
                supports.entry(key).or_default().push(gid as u32);
            }
        }
        let stats = PBuildStats {
            features: supports.len(),
            t_build_ms: t.elapsed().as_millis(),
        };
        Self {
            db,
            supports,
            params,
            stats,
        }
    }

    /// The database.
    pub fn db(&self) -> &[Graph] {
        &self.db
    }

    /// Number of indexed paths.
    pub fn feature_count(&self) -> usize {
        self.stats.features
    }

    /// Build statistics.
    pub fn stats(&self) -> &PBuildStats {
        &self.stats
    }

    /// Candidate set: graphs containing every label path of the query.
    pub fn candidates(&self, q: &Graph) -> (SupportSet, PQueryStats) {
        let mut stats = PQueryStats::default();
        let t = Instant::now();
        let qpaths = label_paths(q, self.params.max_len);
        stats.paths_used = qpaths.len();
        let mut sets: Vec<&[u32]> = Vec::with_capacity(qpaths.len());
        let mut missing = false;
        for key in &qpaths {
            match self.supports.get(key) {
                Some(s) => sets.push(s),
                None => {
                    missing = true;
                    break;
                }
            }
        }
        let candidates = if missing {
            Vec::new()
        } else {
            intersect_many(&sets, self.db.len())
        };
        stats.filtered = candidates.len();
        stats.t_filter = t.elapsed();
        (candidates, stats)
    }

    /// Full query: filter then naive verification.
    pub fn query(&self, q: &Graph) -> PQueryResult {
        assert!(q.edge_count() > 0, "queries must have at least one edge");
        let (candidates, mut stats) = self.candidates(q);
        let t = Instant::now();
        let matches: Vec<u32> = candidates
            .into_iter()
            .filter(|&gid| graph_core::is_subgraph_isomorphic(q, &self.db[gid as usize]))
            .collect();
        stats.t_verify = t.elapsed();
        stats.answers = matches.len();
        PQueryResult { matches, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::graph_from;

    fn index() -> PathGrep {
        let db = vec![
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1), (2, 3, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 1)]),
            graph_from(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]),
        ];
        PathGrep::build(db, PathGrepParams::default())
    }

    fn oracle(idx: &PathGrep, q: &Graph) -> Vec<u32> {
        idx.db()
            .iter()
            .enumerate()
            .filter(|(_, g)| graph_core::is_subgraph_isomorphic(q, g))
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn query_matches_oracle() {
        let idx = index();
        let queries = [
            graph_from(&[0, 0], &[(0, 1, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]),
            graph_from(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]),
            graph_from(&[9, 9], &[(0, 1, 0)]),
        ];
        for (i, q) in queries.iter().enumerate() {
            let r = idx.query(q);
            assert_eq!(r.matches, oracle(&idx, q), "query {i}");
            assert!(r.stats.filtered >= r.stats.answers);
        }
    }

    #[test]
    fn candidates_contain_answers() {
        let idx = index();
        let q = graph_from(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]);
        let (cands, _) = idx.candidates(&q);
        for a in oracle(&idx, &q) {
            assert!(cands.contains(&a));
        }
    }

    #[test]
    fn paths_lose_structure() {
        // The paper's core argument: paths cannot distinguish branching
        // from chains. A star query and its path decomposition over a
        // chain-only database: the chain contains all the query's 2-edge
        // label paths but not the query.
        let chain = graph_from(
            &[1, 0, 1, 0, 1],
            &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 0)],
        );
        let idx = PathGrep::build(vec![chain], PathGrepParams { max_len: 2 });
        // star with three label-1 leaves on a label-0 hub
        let star = graph_from(&[0, 1, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 0)]);
        let (cands, _) = idx.candidates(&star);
        assert_eq!(cands, vec![0], "path filter cannot rule the chain out");
        let r = idx.query(&star);
        assert!(r.matches.is_empty(), "verification must reject it");
    }

    #[test]
    fn missing_path_short_circuits() {
        let idx = index();
        let q = graph_from(&[7, 7], &[(0, 1, 0)]);
        let r = idx.query(&q);
        assert!(r.matches.is_empty());
        assert_eq!(r.stats.filtered, 0);
    }

    #[test]
    fn build_stats() {
        let idx = index();
        assert!(idx.feature_count() > 0);
        assert_eq!(idx.stats().features, idx.feature_count());
    }
}
