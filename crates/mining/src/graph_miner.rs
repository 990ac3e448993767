//! Level-wise frequent **subgraph** mining — the substrate of the gIndex
//! baseline (Yan/Yu/Han, SIGMOD'04, as parameterized in the paper's §6.1).
//!
//! Same apriori skeleton as [`crate::tree_miner`], but patterns are general
//! connected graphs: a pattern grows either by a new leaf edge or by a
//! *closing* edge between two existing vertices, and deduplication needs
//! the exponential-worst-case [`graph_core::canonical_code`] instead of
//! polynomial tree canonical strings. This cost asymmetry is exactly the
//! paper's argument for tree features.

use crate::support::{intersect_many, SupportSet};
use crate::tree_miner::MiningStats;
use graph_core::{canonical_code, CanonCode, ELabel, Graph, GraphBuilder, VLabel};
use rustc_hash::{FxHashMap, FxHashSet};
use tree_core::Tree;

/// gIndex's size-increasing support function ψ(l) (§6.1): 1 below 4 edges,
/// `√(l / maxL) · Θ` above, capped at Θ.
#[derive(Clone, Copy, Debug)]
pub struct PsiFn {
    /// Maximum fragment edge size (`maxL`, paper value 10).
    pub max_l: usize,
    /// Maximum support (`Θ`, paper value 0.1·N), as an absolute count.
    pub theta: f64,
}

impl PsiFn {
    /// Paper setting for a database of `n` graphs: maxL = 10, Θ = 0.1·N.
    pub fn paper_default(n: usize) -> Self {
        Self {
            max_l: 10,
            theta: 0.1 * n as f64,
        }
    }

    /// Threshold for edge size `l`, or `None` beyond `maxL`.
    pub fn threshold(&self, l: usize) -> Option<u64> {
        if l == 0 || l > self.max_l {
            return None;
        }
        if l < 4 {
            Some(1)
        } else {
            let v = ((l as f64 / self.max_l as f64).sqrt() * self.theta).ceil();
            Some(v.max(1.0) as u64)
        }
    }
}

/// A mined frequent subgraph with its exact support set.
#[derive(Clone, Debug)]
pub struct MinedGraph {
    /// The pattern (connected).
    pub graph: Graph,
    /// Canonical code (index key).
    pub code: CanonCode,
    /// Sorted ids of database graphs containing the pattern.
    pub support: SupportSet,
}

impl MinedGraph {
    /// Edge size of the pattern.
    pub fn size(&self) -> usize {
        self.graph.edge_count()
    }
}

/// The candidate patterns one level may generate. A level reaching it is
/// discarded whole and mining stops with [`MiningStats::truncated`] set: a
/// guard against a ψ too loose for its database, not a bound on the feature
/// set, which ψ sets (§6.1). The supports a partial level would find are
/// exact, but which candidates it holds depends on the order the level
/// below is walked in; discarding it leaves exactly the levels below.
const MAX_CANDIDATES_PER_LEVEL: usize = 20_000_000;

fn copy_builder(g: &Graph) -> GraphBuilder {
    let mut b = GraphBuilder::with_capacity(g.vertex_count() + 1, g.edge_count() + 1);
    for v in g.vertices() {
        b.add_vertex(g.vlabel(v));
    }
    for e in g.edges() {
        b.add_edge(e.u, e.v, e.label).expect("copying a graph");
    }
    b
}

/// Codes of all connected one-edge-removed subgraphs of `g` (used for the
/// apriori check; removals that disconnect the pattern are skipped).
fn edge_removal_codes(g: &Graph) -> Vec<CanonCode> {
    let mut out = Vec::new();
    if g.edge_count() <= 1 {
        return out;
    }
    for skip in g.edge_ids() {
        let keep: Vec<graph_core::EdgeId> = g.edge_ids().filter(|&e| e != skip).collect();
        let sub = graph_core::edge_subgraph(g, &keep);
        // Removing an edge can strand an endpoint (degree-1): the edge
        // subgraph then simply omits it. Connectivity must still hold.
        if sub.graph.is_connected() && sub.graph.vertex_count() > 0 {
            out.push(canonical_code(&sub.graph));
        }
    }
    out
}

/// Mine all ψ-frequent connected subgraphs of `db`, in (size, code) order.
pub fn mine_frequent_subgraphs(db: &[Graph], psi: &PsiFn) -> (Vec<MinedGraph>, MiningStats) {
    mine_within(db, psi, MAX_CANDIDATES_PER_LEVEL)
}

/// [`mine_frequent_subgraphs`] with the per-level guard at `budget`
/// candidates, so that a test can reach it on a small database.
fn mine_within(db: &[Graph], psi: &PsiFn, budget: usize) -> (Vec<MinedGraph>, MiningStats) {
    let mut stats = MiningStats::default();

    // ---- Level 1 ----
    let mut level: FxHashMap<CanonCode, MinedGraph> = FxHashMap::default();
    for (gid, g) in db.iter().enumerate() {
        let mut seen_here: FxHashSet<CanonCode> = FxHashSet::default();
        for e in g.edges() {
            let p = Tree::single_edge(g.vlabel(e.u), e.label, g.vlabel(e.v)).into_graph();
            let code = canonical_code(&p);
            if !seen_here.insert(code.clone()) {
                continue;
            }
            level
                .entry(code.clone())
                .or_insert_with(|| MinedGraph {
                    graph: p,
                    code,
                    support: Vec::new(),
                })
                .support
                .push(gid as u32);
        }
    }
    let t1 = psi.threshold(1).expect("ψ(1) is finite") as usize;
    level.retain(|_, m| m.support.len() >= t1);

    // Extension alphabets.
    let mut leaf_triples: FxHashSet<(VLabel, ELabel, VLabel)> = FxHashSet::default();
    let mut elabels: FxHashSet<ELabel> = FxHashSet::default();
    for g in db {
        for e in g.edges() {
            let a = g.vlabel(e.u);
            let b = g.vlabel(e.v);
            leaf_triples.insert((a, e.label, b));
            leaf_triples.insert((b, e.label, a));
            elabels.insert(e.label);
        }
    }
    let mut leaf_triples: Vec<_> = leaf_triples.into_iter().collect();
    leaf_triples.sort_unstable();
    let mut elabels: Vec<_> = elabels.into_iter().collect();
    elabels.sort_unstable();

    let mut result: Vec<MinedGraph> = level.values().cloned().collect();
    stats.patterns = result.len();

    let mut size = 1usize;
    while size < psi.max_l {
        let Some(next_threshold) = psi.threshold(size + 1) else {
            break;
        };
        let next_threshold = next_threshold as usize;
        let mut candidates: FxHashMap<CanonCode, Graph> = FxHashMap::default();
        'outer: for m in level.values() {
            let g = &m.graph;
            // (a) leaf extensions
            for at in g.vertices() {
                let at_label = g.vlabel(at);
                for &(a, el, leaf) in leaf_triples.iter() {
                    if a != at_label {
                        continue;
                    }
                    let mut b = copy_builder(g);
                    let nv = b.add_vertex(leaf);
                    b.add_edge(at, nv, el).expect("fresh leaf");
                    let cand = b.build();
                    let code = canonical_code(&cand);
                    if candidates.contains_key(&code) {
                        continue;
                    }
                    candidates.insert(code, cand);
                    if candidates.len() >= budget {
                        stats.truncated = true;
                        break 'outer;
                    }
                }
            }
            // (b) closing edges
            for u in g.vertices() {
                for v in g.vertices() {
                    if v.0 <= u.0 || g.edge_between(u, v).is_some() {
                        continue;
                    }
                    for &el in &elabels {
                        if !leaf_triples.contains(&(g.vlabel(u), el, g.vlabel(v))) {
                            continue;
                        }
                        let mut b = copy_builder(g);
                        b.add_edge(u, v, el).expect("closing a non-edge");
                        let cand = b.build();
                        let code = canonical_code(&cand);
                        if candidates.contains_key(&code) {
                            continue;
                        }
                        candidates.insert(code, cand);
                        if candidates.len() >= budget {
                            stats.truncated = true;
                            break 'outer;
                        }
                    }
                }
            }
        }
        if stats.truncated {
            break; // the partial level is discarded
        }
        stats.candidates += candidates.len();

        let mut next_level: FxHashMap<CanonCode, MinedGraph> = FxHashMap::default();
        for (code, cand) in candidates {
            let subs = edge_removal_codes(&cand);
            let mut sub_supports: Vec<&[u32]> = Vec::with_capacity(subs.len());
            let mut pruned = false;
            for s in &subs {
                match level.get(s) {
                    Some(m) => sub_supports.push(&m.support),
                    None => {
                        pruned = true;
                        break;
                    }
                }
            }
            if pruned || sub_supports.is_empty() {
                continue;
            }
            let candidate_set = intersect_many(&sub_supports, db.len());
            if candidate_set.len() < next_threshold {
                continue;
            }
            let mut support: SupportSet = Vec::new();
            let remaining = candidate_set.len();
            for (i, &gid) in candidate_set.iter().enumerate() {
                if support.len() + (remaining - i) < next_threshold {
                    break;
                }
                if graph_core::is_subgraph_isomorphic(&cand, &db[gid as usize]) {
                    support.push(gid);
                }
            }
            if support.len() >= next_threshold {
                next_level.insert(
                    code.clone(),
                    MinedGraph {
                        graph: cand,
                        code,
                        support,
                    },
                );
            }
        }

        if next_level.is_empty() {
            break;
        }
        result.extend(next_level.values().cloned());
        stats.patterns = result.len();
        level = next_level;
        size += 1;
    }

    result.sort_by(|a, b| (a.size(), &a.code).cmp(&(b.size(), &b.code)));
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::graph_from;

    fn tiny_db() -> Vec<Graph> {
        vec![
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 1)]),
        ]
    }

    fn uniform_psi(max_l: usize) -> PsiFn {
        // theta so large that sqrt branch would demand too much; instead use
        // threshold 1 everywhere by keeping l < 4 … for tests with larger l
        // pick theta small.
        PsiFn { max_l, theta: 1.0 }
    }

    /// A guarded run keeps exactly the levels below the first level whose
    /// candidate count reaches the budget: it equals a run stopped at maxL
    /// just below that level, except that it is marked truncated.
    #[test]
    fn level_guard_keeps_the_levels_below_it() {
        use rand::SeedableRng;
        let db = datagen::generate_chem(
            &datagen::ChemParams::sized(8),
            &mut rand_chacha::ChaCha8Rng::seed_from_u64(7),
        );
        let max_l = 4;
        // ψ ≡ 1 whatever maxL, so a run stopped at maxL = l is a prefix.
        let run = |max_l: usize, budget: usize| {
            let (mined, stats) = mine_within(&db, &uniform_psi(max_l), budget);
            let mined: Vec<_> = mined.into_iter().map(|m| (m.code, m.support)).collect();
            (mined, stats)
        };
        let through: Vec<_> = (1..=max_l).map(|l| run(l, usize::MAX)).collect();
        let candidates: Vec<usize> = (2..=max_l)
            .map(|l| through[l - 1].1.candidates - through[l - 2].1.candidates)
            .collect();
        assert!(candidates.iter().all(|&n| n > 0), "every level is reached");
        let mut budgets: Vec<usize> = candidates.iter().flat_map(|&n| [n, n + 1]).collect();
        budgets.push(usize::MAX);
        for budget in budgets {
            let cut = (2..=max_l).find(|&l| candidates[l - 2] >= budget);
            let (mined, mut stats) = through[cut.map_or(max_l, |l| l - 1) - 1].clone();
            stats.truncated = cut.is_some();
            let got = run(max_l, budget);
            assert_eq!(got.1, stats, "budget {budget}");
            assert!(got.0 == mined, "budget {budget}");
        }
    }

    #[test]
    fn psi_paper_values() {
        let p = PsiFn::paper_default(10_000);
        assert_eq!(p.threshold(1), Some(1));
        assert_eq!(p.threshold(3), Some(1));
        // sqrt(4/10) * 1000 = 632.45… → 633
        assert_eq!(p.threshold(4), Some(633));
        assert_eq!(p.threshold(10), Some(1000));
        assert_eq!(p.threshold(11), None);
    }

    #[test]
    fn mines_cyclic_patterns() {
        let db = tiny_db();
        let (mined, _) = mine_frequent_subgraphs(&db, &uniform_psi(3));
        // the triangle of graph 0 must be found
        let has_triangle = mined
            .iter()
            .any(|m| m.size() == 3 && m.graph.vertex_count() == 3);
        assert!(has_triangle, "triangle pattern missing");
    }

    #[test]
    fn supports_are_exact() {
        let db = tiny_db();
        let (mined, _) = mine_frequent_subgraphs(&db, &uniform_psi(3));
        for m in &mined {
            let brute: Vec<u32> = db
                .iter()
                .enumerate()
                .filter(|(_, g)| graph_core::is_subgraph_isomorphic(&m.graph, g))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(m.support, brute, "wrong support for {:?}", m.graph);
        }
    }

    #[test]
    fn completeness_against_enumeration() {
        // Every connected subgraph (≤ max_l edges) of every graph is mined
        // when the threshold is 1.
        let db = tiny_db();
        let max_l = 3;
        let (mined, _) = mine_frequent_subgraphs(&db, &uniform_psi(max_l));
        let codes: FxHashSet<CanonCode> = mined.iter().map(|m| m.code.clone()).collect();
        for g in &db {
            let _ = graph_core::for_each_connected_edge_subset(g, max_l, |edges| {
                let sub = graph_core::edge_subgraph(g, edges);
                let code = canonical_code(&sub.graph);
                assert!(codes.contains(&code), "missing subgraph {:?}", sub.graph);
                std::ops::ControlFlow::Continue(true)
            });
        }
    }

    #[test]
    fn no_duplicate_patterns() {
        let db = tiny_db();
        let (mined, _) = mine_frequent_subgraphs(&db, &uniform_psi(3));
        let mut codes: Vec<&CanonCode> = mined.iter().map(|m| &m.code).collect();
        let n = codes.len();
        codes.sort();
        codes.dedup();
        assert_eq!(codes.len(), n);
    }

    #[test]
    fn trees_are_subset_of_graph_patterns() {
        use crate::support::SigmaFn;
        use crate::tree_miner::mine_frequent_trees;
        let db = tiny_db();
        let (trees, _) = mine_frequent_trees(
            &db,
            &SigmaFn {
                alpha: 3,
                beta: 1.0,
                eta: 3,
            },
            0.0,
        );
        let (graphs, _) = mine_frequent_subgraphs(&db, &uniform_psi(3));
        // every mined tree should appear among mined subgraphs (same support)
        for t in &trees {
            let code = canonical_code(t.canon.decode().graph());
            let m = graphs
                .iter()
                .find(|m| m.code == code)
                .expect("tree pattern must be mined as a subgraph too");
            assert_eq!(m.support, t.support);
        }
        // and there are strictly more graph patterns (the triangle)
        assert!(graphs.len() > trees.len());
    }
}
