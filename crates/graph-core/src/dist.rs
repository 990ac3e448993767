//! Unweighted shortest-path distances.
//!
//! Center Distance Constraint pruning (paper §5.2.2) needs distances between
//! feature-tree centers inside candidate graphs. Distances here are hop
//! counts from breadth-first search; [`DistanceOracle`] caches one BFS per
//! source vertex so repeated pruning checks against the same graph stay
//! cheap, and keeps its buffers across graphs so one oracle serves a whole
//! run of candidates.

use crate::graph::{Graph, VertexId};

/// Distance value for unreachable vertices.
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS distances from `src` to every vertex (hops; [`UNREACHABLE`] if
/// disconnected).
pub fn bfs_distances(g: &Graph, src: VertexId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.vertex_count()];
    bfs_into(g, src, &mut dist, &mut Vec::with_capacity(g.vertex_count()));
    dist
}

/// Fill `dist` (all [`UNREACHABLE`] on entry, one entry per vertex) with
/// BFS distances from `src`; `queue` is scratch.
fn bfs_into(g: &Graph, src: VertexId, dist: &mut [u32], queue: &mut Vec<VertexId>) {
    queue.clear();
    dist[src.idx()] = 0;
    queue.push(src);
    let mut head = 0;
    while let Some(&v) = queue.get(head) {
        head += 1;
        let dv = dist[v.idx()];
        for &(w, _) in g.neighbors(v) {
            if dist[w.idx()] == UNREACHABLE {
                dist[w.idx()] = dv + 1;
                queue.push(w);
            }
        }
    }
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

/// Caches BFS rows per source vertex for one graph at a time.
///
/// The pruning stage probes many (source, target) pairs against the same
/// candidate graph; each distinct source costs one BFS, after which lookups
/// are O(1). Rows live back to back in one buffer, and [`Self::reset`]
/// moves the oracle to the next graph keeping every buffer, so a worker
/// pays for storage once per run of candidates instead of once per row.
pub struct DistanceOracle<'g> {
    g: &'g Graph,
    /// `slot[v]`: which row of `rows` holds the BFS from `v`, or `NO_ROW`.
    slot: Vec<u32>,
    /// Cached rows, `g.vertex_count()` entries each.
    rows: Vec<u32>,
    queue: Vec<VertexId>,
    bfs_runs: u64,
}

const NO_ROW: u32 = u32::MAX;

impl<'g> DistanceOracle<'g> {
    /// New oracle over `g`.
    pub fn new(g: &'g Graph) -> Self {
        let mut o = Self {
            g,
            slot: Vec::new(),
            rows: Vec::new(),
            queue: Vec::new(),
            bfs_runs: 0,
        };
        o.reset(g);
        o
    }

    /// Forget every row and the BFS count and serve `g` from now on; the
    /// buffers keep their capacity.
    pub fn reset(&mut self, g: &'g Graph) {
        self.g = g;
        self.slot.clear();
        self.slot.resize(g.vertex_count(), NO_ROW);
        self.rows.clear();
        self.bfs_runs = 0;
    }

    /// Distance from `a` to `b` (hops), computing and caching the BFS row
    /// for `a` on first use.
    pub fn dist(&mut self, a: VertexId, b: VertexId) -> u32 {
        if a == b {
            return 0;
        }
        let n = self.g.vertex_count();
        // Reuse the row for `b` if we already have it (symmetry).
        let sb = self.slot[b.idx()];
        if sb != NO_ROW {
            return self.rows[sb as usize * n + a.idx()];
        }
        if self.slot[a.idx()] == NO_ROW {
            self.bfs_runs += 1;
            let start = self.rows.len();
            self.slot[a.idx()] = (start / n) as u32;
            self.rows.resize(start + n, UNREACHABLE);
            bfs_into(self.g, a, &mut self.rows[start..], &mut self.queue);
        }
        self.rows[self.slot[a.idx()] as usize * n + b.idx()]
    }

    /// Number of cached BFS rows (for tests / diagnostics).
    pub fn cached_rows(&self) -> usize {
        self.rows.len() / self.g.vertex_count().max(1)
    }

    /// Number of BFS traversals this oracle has paid for since it was made
    /// or last [`reset`](Self::reset) — the work metric the `graph.bfs`
    /// counter reports.
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

    #[test]
    fn reset_oracle_answers_for_the_new_graph() {
        let (path, tri) = (
            path5(),
            graph_from(&[0; 3], &[(0, 1, 0), (1, 2, 0), (2, 0, 0)]),
        );
        let mut o = DistanceOracle::new(&path);
        assert_eq!(o.dist(VertexId(0), VertexId(2)), 2);
        o.reset(&tri);
        assert_eq!((o.cached_rows(), o.bfs_runs()), (0, 0));
        assert_eq!(o.dist(VertexId(0), VertexId(2)), 1);
        o.reset(&path);
        assert_eq!(o.dist(VertexId(4), VertexId(0)), 4);
        assert_eq!(o.dist(VertexId(1), VertexId(4)), 3, "row of 4 reused");
        assert_eq!(o.bfs_runs(), 1);
        let lone = graph_from(&[0, 0], &[]);
        o.reset(&lone);
        assert_eq!(o.dist(VertexId(0), VertexId(1)), UNREACHABLE);
    }
}
