//! Unweighted shortest-path distances.
//!
//! Center Distance Constraint pruning (paper §5.2.2) needs distances between
//! feature-tree centers inside candidate graphs. Distances here are hop
//! counts from breadth-first search; [`DistanceOracle`] caches one BFS per
//! source vertex so repeated pruning checks against the same graph stay
//! cheap.

use crate::graph::{Graph, VertexId};
use rustc_hash::FxHashMap;

/// Distance value for unreachable vertices.
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS distances from `src` to every vertex (hops; [`UNREACHABLE`] if
/// disconnected).
pub fn bfs_distances(g: &Graph, src: VertexId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.vertex_count()];
    let mut queue = std::collections::VecDeque::with_capacity(g.vertex_count());
    dist[src.idx()] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.idx()];
        for &(w, _) in g.neighbors(v) {
            if dist[w.idx()] == UNREACHABLE {
                dist[w.idx()] = dv + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// [`bfs_distances`] with the traversal tallied on `shard` as `graph.bfs`.
pub fn bfs_distances_obs(g: &Graph, src: VertexId, shard: &obs::Shard) -> Vec<u32> {
    shard.add("graph.bfs", 1);
    bfs_distances(g, src)
}

/// Shortest-path distance between two vertices, or [`UNREACHABLE`].
pub fn distance(g: &Graph, a: VertexId, b: VertexId) -> u32 {
    if a == b {
        return 0;
    }
    // Early-exit BFS from a.
    let mut dist = vec![UNREACHABLE; g.vertex_count()];
    let mut queue = std::collections::VecDeque::with_capacity(g.vertex_count());
    dist[a.idx()] = 0;
    queue.push_back(a);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.idx()];
        for &(w, _) in g.neighbors(v) {
            if dist[w.idx()] == UNREACHABLE {
                if w == b {
                    return dv + 1;
                }
                dist[w.idx()] = dv + 1;
                queue.push_back(w);
            }
        }
    }
    UNREACHABLE
}

/// Eccentricity of `v`: max distance to any reachable vertex.
pub fn eccentricity(g: &Graph, v: VertexId) -> u32 {
    bfs_distances(g, v)
        .into_iter()
        .filter(|&d| d != UNREACHABLE)
        .max()
        .unwrap_or(0)
}

/// Caches BFS rows per source vertex for one graph.
///
/// The pruning stage probes many (source, target) pairs against the same
/// candidate graph; each distinct source costs one BFS, after which lookups
/// are O(1).
pub struct DistanceOracle<'g> {
    g: &'g Graph,
    rows: FxHashMap<VertexId, Vec<u32>>,
    bfs_runs: u64,
}

impl<'g> DistanceOracle<'g> {
    /// New oracle over `g`.
    pub fn new(g: &'g Graph) -> Self {
        Self {
            g,
            rows: FxHashMap::default(),
            bfs_runs: 0,
        }
    }

    /// Distance from `a` to `b` (hops), computing and caching the BFS row
    /// for `a` on first use.
    pub fn dist(&mut self, a: VertexId, b: VertexId) -> u32 {
        if a == b {
            return 0;
        }
        // Reuse the row for `b` if we already have it (symmetry).
        if let Some(row) = self.rows.get(&b) {
            return row[a.idx()];
        }
        if !self.rows.contains_key(&a) {
            self.bfs_runs += 1;
            self.rows.insert(a, bfs_distances(self.g, a));
        }
        self.rows[&a][b.idx()]
    }

    /// Number of cached BFS rows (for tests / diagnostics).
    pub fn cached_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of BFS traversals this oracle has paid for — the work metric
    /// the `graph.bfs` counter reports. Equals [`Self::cached_rows`] today,
    /// but counts *traversals*, so it stays correct if rows are ever evicted.
    pub fn bfs_runs(&self) -> u64 {
        self.bfs_runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from;

    fn path5() -> Graph {
        // 0 - 1 - 2 - 3 - 4
        graph_from(&[0; 5], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 0)])
    }

    #[test]
    fn bfs_on_path() {
        let g = path5();
        assert_eq!(bfs_distances(&g, VertexId(0)), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, VertexId(2)), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn pairwise_distance() {
        let g = path5();
        assert_eq!(distance(&g, VertexId(0), VertexId(4)), 4);
        assert_eq!(distance(&g, VertexId(4), VertexId(0)), 4);
        assert_eq!(distance(&g, VertexId(2), VertexId(2)), 0);
    }

    #[test]
    fn unreachable_distance() {
        let g = graph_from(&[0, 0, 0], &[(0, 1, 0)]);
        assert_eq!(distance(&g, VertexId(0), VertexId(2)), UNREACHABLE);
        let d = bfs_distances(&g, VertexId(2));
        assert_eq!(d, vec![UNREACHABLE, UNREACHABLE, 0]);
    }

    #[test]
    fn eccentricity_of_path() {
        let g = path5();
        assert_eq!(eccentricity(&g, VertexId(0)), 4);
        assert_eq!(eccentricity(&g, VertexId(2)), 2);
    }

    #[test]
    fn cycle_distances() {
        let g = graph_from(
            &[0; 6],
            &[
                (0, 1, 0),
                (1, 2, 0),
                (2, 3, 0),
                (3, 4, 0),
                (4, 5, 0),
                (5, 0, 0),
            ],
        );
        assert_eq!(distance(&g, VertexId(0), VertexId(3)), 3);
        assert_eq!(distance(&g, VertexId(0), VertexId(5)), 1);
    }

    #[test]
    fn oracle_caches_and_is_symmetric() {
        let g = path5();
        let mut o = DistanceOracle::new(&g);
        assert_eq!(o.dist(VertexId(0), VertexId(3)), 3);
        assert_eq!(o.cached_rows(), 1);
        // symmetric lookup should reuse the cached row for 0
        assert_eq!(o.dist(VertexId(3), VertexId(0)), 3);
        assert_eq!(o.cached_rows(), 1);
        assert_eq!(o.dist(VertexId(1), VertexId(4)), 3);
        assert_eq!(o.cached_rows(), 2);
        assert_eq!(o.dist(VertexId(2), VertexId(2)), 0);
        assert_eq!(o.bfs_runs(), 2);
    }
}
