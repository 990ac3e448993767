//! Two reference miners the occurrence-list miner is tested against, and a
//! reference of its shrinking step. All share no code with it: one miner
//! enumerates every subtree of every graph, the other generates candidates
//! level by level and counts support by subgraph-isomorphism tests. Each
//! returns the frequent trees as `(canonical string, support set)`, sorted;
//! [`shrink`] keeps those of such a list that the γ test keeps.

use graph_core::{ELabel, EdgeId, Graph, GraphBuilder, VLabel, VertexId};
use mining::{SigmaFn, SupportSet};
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::BTreeMap;
use tree_core::{canonical_string, CanonString, Tree};

/// Enumeration: every subtree edge subset of every graph up to η edges
/// (each exactly once), canonicalized, supports accumulated directly.
pub fn mine_enum(db: &[Graph], sigma: &SigmaFn) -> Vec<(CanonString, SupportSet)> {
    assert!(sigma.is_monotone(), "σ(s) must be non-decreasing");
    let mut patterns: BTreeMap<CanonString, (usize, SupportSet)> = BTreeMap::new();
    for (gid, g) in db.iter().enumerate() {
        let gid = gid as u32;
        let _ = graph_core::for_each_subtree_edge_subset(g, sigma.eta, |edges| {
            let sub = graph_core::edge_subgraph(g, edges);
            let tree = Tree::from_graph(sub.graph).expect("subtree enumeration yields trees");
            let (_, support) = patterns
                .entry(canonical_string(&tree))
                .or_insert((edges.len(), Vec::new()));
            if support.last() != Some(&gid) {
                support.push(gid);
            }
            std::ops::ControlFlow::<()>::Continue(())
        });
    }
    patterns
        .into_iter()
        .filter_map(|(canon, (size, support))| {
            let thr = sigma.threshold(size)? as usize;
            (support.len() >= thr).then_some((canon, support))
        })
        .collect()
}

/// The canonical strings of `t`'s leaf-removal subtrees: `t` without one
/// edge that ends in a leaf. None for a single edge.
pub fn leaf_removals(t: &Tree) -> Vec<CanonString> {
    let g = t.graph();
    if g.edge_count() <= 1 {
        return Vec::new();
    }
    g.edge_ids()
        .filter(|&e| {
            let e = g.edge(e);
            g.degree(e.u) == 1 || g.degree(e.v) == 1
        })
        .map(|leaf_edge| {
            let rest: Vec<EdgeId> = g.edge_ids().filter(|&e| e != leaf_edge).collect();
            let sub = graph_core::edge_subgraph(g, &rest);
            canonical_string(&Tree::from_graph(sub.graph).expect("a tree minus a leaf is a tree"))
        })
        .collect()
}

/// The ids in every one of `sets` (at least one), ascending.
fn intersect_all(sets: &[&SupportSet]) -> SupportSet {
    let (first, rest) = sets.split_first().expect("at least one set");
    first
        .iter()
        .filter(|gid| rest.iter().all(|s| s.contains(gid)))
        .copied()
        .collect()
}

/// The shrinking step (§4.1.2) over a list of frequent trees that holds
/// every subtree of each of them, such as [`mine_enum`]'s: keep every single
/// edge, and a larger tree `r` iff `|⋂ D_s| / |D_r| > gamma` over its
/// leaf-removal subtrees `s`. Sorted like the miners' output.
pub fn shrink(
    frequent: &[(CanonString, SupportSet)],
    gamma: f64,
) -> Vec<(CanonString, SupportSet)> {
    let supports: BTreeMap<&CanonString, &SupportSet> =
        frequent.iter().map(|(c, s)| (c, s)).collect();
    let mut kept: Vec<_> = frequent
        .iter()
        .filter(|(canon, support)| {
            let subs: Vec<&SupportSet> = leaf_removals(&canon.decode())
                .iter()
                .map(|c| supports[c])
                .collect();
            subs.is_empty() || intersect_all(&subs).len() as f64 / support.len() as f64 > gamma
        })
        .cloned()
        .collect();
    kept.sort();
    kept
}

/// Cheap per-graph summaries used to skip hopeless embedding tests.
struct GraphSummary {
    vlabel_counts: FxHashMap<VLabel, u32>,
    triple_counts: FxHashMap<(VLabel, ELabel, VLabel), u32>,
}

impl GraphSummary {
    fn new(g: &Graph) -> Self {
        let mut vlabel_counts = FxHashMap::default();
        for v in g.vertices() {
            *vlabel_counts.entry(g.vlabel(v)).or_insert(0) += 1;
        }
        let mut triple_counts = FxHashMap::default();
        for e in g.edges() {
            let a = g.vlabel(e.u);
            let b = g.vlabel(e.v);
            *triple_counts
                .entry((a.min(b), e.label, a.max(b)))
                .or_insert(0) += 1;
        }
        Self {
            vlabel_counts,
            triple_counts,
        }
    }

    fn may_contain(&self, p: &Graph) -> bool {
        let mut need_v: FxHashMap<VLabel, u32> = FxHashMap::default();
        for v in p.vertices() {
            *need_v.entry(p.vlabel(v)).or_insert(0) += 1;
        }
        for (l, n) in need_v {
            if self.vlabel_counts.get(&l).copied().unwrap_or(0) < n {
                return false;
            }
        }
        let mut need_e: FxHashMap<(VLabel, ELabel, VLabel), u32> = FxHashMap::default();
        for e in p.edges() {
            let a = p.vlabel(e.u);
            let b = p.vlabel(e.v);
            *need_e.entry((a.min(b), e.label, a.max(b))).or_insert(0) += 1;
        }
        for (t, n) in need_e {
            if self.triple_counts.get(&t).copied().unwrap_or(0) < n {
                return false;
            }
        }
        true
    }
}

/// `t` with a new leaf labeled `leaf` attached to vertex `at` via an edge
/// labeled `el`.
fn extend_with_leaf(t: &Tree, at: VertexId, el: ELabel, leaf: VLabel) -> Tree {
    let g = t.graph();
    let mut b = GraphBuilder::with_capacity(g.vertex_count() + 1, g.edge_count() + 1);
    for v in g.vertices() {
        b.add_vertex(g.vlabel(v));
    }
    for e in g.edges() {
        b.add_edge(e.u, e.v, e.label).expect("copying a tree");
    }
    let nv = b.add_vertex(leaf);
    b.add_edge(at, nv, el).expect("fresh leaf edge");
    Tree::from_graph(b.build()).expect("adding a leaf keeps a tree a tree")
}

/// Apriori: level s+1 candidates are the level-s trees extended by one leaf
/// edge from the globally observed `(attach label, edge label, leaf label)`
/// triples; a candidate survives if every leaf-removal subtree is frequent
/// (sound because σ is non-decreasing) and its exact support — embedding
/// tests over the intersection of those subtrees' supports — reaches σ(s+1).
pub fn mine_apriori(db: &[Graph], sigma: &SigmaFn) -> Vec<(CanonString, SupportSet)> {
    assert!(sigma.is_monotone(), "σ(s) must be non-decreasing");
    let summaries: Vec<GraphSummary> = db.iter().map(GraphSummary::new).collect();

    // ---- Level 1: single-edge trees by direct scan. ----
    let mut level: FxHashMap<CanonString, (Tree, SupportSet)> = FxHashMap::default();
    for (gid, g) in db.iter().enumerate() {
        let mut seen_here: FxHashSet<CanonString> = FxHashSet::default();
        for e in g.edges() {
            let t = Tree::single_edge(g.vlabel(e.u), e.label, g.vlabel(e.v));
            let canon = canonical_string(&t);
            if !seen_here.insert(canon.clone()) {
                continue;
            }
            level
                .entry(canon)
                .or_insert_with(|| (t, Vec::new()))
                .1
                .push(gid as u32);
        }
    }
    let t1 = sigma.threshold(1).expect("σ(1) must be finite") as usize;
    level.retain(|_, (_, support)| support.len() >= t1);

    // Global extension alphabet: (attach vertex label, edge label, leaf
    // vertex label), both directions of every observed edge.
    let mut triples: FxHashSet<(VLabel, ELabel, VLabel)> = FxHashSet::default();
    for g in db {
        for e in g.edges() {
            let a = g.vlabel(e.u);
            let b = g.vlabel(e.v);
            triples.insert((a, e.label, b));
            triples.insert((b, e.label, a));
        }
    }

    let frequent = |level: &FxHashMap<CanonString, (Tree, SupportSet)>| {
        level
            .iter()
            .map(|(canon, (_, support))| (canon.clone(), support.clone()))
            .collect::<Vec<_>>()
    };
    let mut result = frequent(&level);

    // ---- Levels 2..=eta ----
    for size in 1..sigma.eta {
        let Some(next_threshold) = sigma.threshold(size + 1) else {
            break;
        };
        let next_threshold = next_threshold as usize;
        let mut candidates: FxHashMap<CanonString, Tree> = FxHashMap::default();
        for (tree, _) in level.values() {
            let g = tree.graph();
            for at in g.vertices() {
                for &(a, el, leaf) in &triples {
                    if a == g.vlabel(at) {
                        let cand = extend_with_leaf(tree, at, el, leaf);
                        candidates.entry(canonical_string(&cand)).or_insert(cand);
                    }
                }
            }
        }

        let mut next_level: FxHashMap<CanonString, (Tree, SupportSet)> = FxHashMap::default();
        for (canon, cand) in candidates {
            // Apriori: all maximal proper subtrees must be frequent.
            let subs = leaf_removals(&cand);
            let Some(sub_supports) = subs
                .iter()
                .map(|s| level.get(s).map(|(_, support)| support))
                .collect::<Option<Vec<&SupportSet>>>()
            else {
                continue;
            };
            // Exact support by embedding tests.
            let support: SupportSet = intersect_all(&sub_supports)
                .into_iter()
                .filter(|&gid| {
                    summaries[gid as usize].may_contain(cand.graph())
                        && graph_core::is_subgraph_isomorphic(cand.graph(), &db[gid as usize])
                })
                .collect();
            if support.len() >= next_threshold {
                next_level.insert(canon, (cand, support));
            }
        }

        if next_level.is_empty() {
            break;
        }
        result.extend(frequent(&next_level));
        level = next_level;
    }
    result.sort();
    result
}
