//! The guided subtree walk: every occurrence of a stored feature in a graph.
//!
//! Two computations ask the same question — *which stored features occur
//! in this graph, and where* — the query's "enumerate the frequent subtrees
//! in q" (paper §1, §5.1) and §7.1's update of the posting lists when a
//! graph arrives. [`walk_features`] answers it once for both.
//!
//! The walk grows connected acyclic edge subsets by the seed-and-forbid
//! scheme of [`graph_core::for_each_subtree_edge_subset`], so each subset is
//! reached at most once, and along the way every ancestor of a subset is a
//! subtree of it. A subset is therefore extended only while it may be a
//! *proper subtree of some stored feature* ([`TreePiIndex::may_grow`]): an
//! occurrence of a feature has nothing but such subsets above it, so none is
//! lost, and everywhere else the walk stops after one step instead of
//! enumerating every subtree up to η edges.
//!
//! Both "may it grow?" and "may it be a feature?" are put to the subset's
//! shape ([`crate::shape`]), which the walk keeps as edges come and go, two
//! vertex terms per edge. Only a subset whose shape may be a feature's is
//! canonically encoded; the exact directory lookup then confirms the hit or
//! drops it, and the encoder yields a hit's center.

use crate::index::{FeatureId, TreePiIndex};
use crate::shape::{edge_term, vertex_term};
use graph_core::{EdgeId, Graph, VertexId};
use tree_core::{Center, SubtreeEncoder};

/// What walks did: subsets visited, subsets canonically encoded, and
/// features found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct WalkCounts {
    pub(crate) probes: usize,
    pub(crate) encodes: usize,
    pub(crate) hits: usize,
}

/// One level of the walk: where the subset in `Walk::current` is in trying
/// its frontier, which is `Walk::frontier[start..]` while the level is the
/// deepest one.
struct Level {
    start: usize,
    next: usize,
}

struct Walk<'a, V> {
    index: &'a TreePiIndex,
    g: &'a Graph,
    visit: V,
    counts: &'a mut WalkCounts,
    enc: SubtreeEncoder,
    /// The subset, in the order it was grown, and its vertices likewise.
    current: Vec<EdgeId>,
    vertices: Vec<VertexId>,
    in_set: Vec<bool>,
    /// Per vertex of `g`: its degree in the subset (0 if it is not in it),
    /// and the wrapping sum of [`edge_term`] over its edges in the subset.
    degree: Vec<u32>,
    neighbours: Vec<u64>,
    /// The subset's shape: the wrapping sum of [`vertex_term`] over its
    /// vertices.
    shape: u64,
    /// Edges an enclosing level has already tried: subsets with them were
    /// reached there.
    excluded: Vec<bool>,
    frontier: Vec<EdgeId>,
    levels: Vec<Level>,
}

impl<V: FnMut(FeatureId, &[EdgeId], Center)> Walk<'_, V> {
    /// Add edge `e`, and whichever of its ends is new, to the subset.
    fn push(&mut self, e: EdgeId) {
        let edge = self.g.edge(e);
        self.current.push(e);
        self.in_set[e.idx()] = true;
        for (x, y) in [(edge.u, edge.v), (edge.v, edge.u)] {
            let label = self.g.vlabel(x);
            let (degree, sum) = (&mut self.degree[x.idx()], &mut self.neighbours[x.idx()]);
            if *degree == 0 {
                self.vertices.push(x);
            } else {
                self.shape = self.shape.wrapping_sub(vertex_term(label, *degree, *sum));
            }
            *degree += 1;
            *sum = sum.wrapping_add(edge_term(edge.label, self.g.vlabel(y)));
            self.shape = self.shape.wrapping_add(vertex_term(label, *degree, *sum));
        }
    }

    /// Undo the last [`Self::push`].
    fn pop(&mut self) {
        let e = self.current.pop().expect("a subset to shrink");
        let edge = self.g.edge(e);
        self.in_set[e.idx()] = false;
        let mut gone = 0;
        for (x, y) in [(edge.u, edge.v), (edge.v, edge.u)] {
            let label = self.g.vlabel(x);
            let (degree, sum) = (&mut self.degree[x.idx()], &mut self.neighbours[x.idx()]);
            self.shape = self.shape.wrapping_sub(vertex_term(label, *degree, *sum));
            *degree -= 1;
            *sum = sum.wrapping_sub(edge_term(edge.label, self.g.vlabel(y)));
            if *degree == 0 {
                gone += 1;
            } else {
                self.shape = self.shape.wrapping_add(vertex_term(label, *degree, *sum));
            }
        }
        // The ends the push added were the last vertices added.
        self.vertices.truncate(self.vertices.len() - gone);
    }

    /// Report the current subset if it is a feature. Returns whether it is
    /// one, and whether the subset may be grown.
    fn probe(&mut self) -> (bool, bool) {
        #[cfg(test)]
        assert_eq!(
            self.shape,
            tests::tree_invariant(self.g, &self.current),
            "the kept shape is the subset's own"
        );
        self.counts.probes += 1;
        let mut found = false;
        if self.index.may_be_feature(self.shape) {
            self.counts.encodes += 1;
            let in_set = &self.in_set;
            let from = self.g.edge(self.current[0]).u;
            let (tokens, center) = self.enc.encode(self.g, from, |e| in_set[e.idx()]);
            if let Some(fid) = self.index.feature_by_tokens(tokens) {
                self.counts.hits += 1;
                found = true;
                (self.visit)(fid, &self.current, center);
            }
        }
        let grows =
            self.current.len() < self.index.params().sigma.eta && self.index.may_grow(self.shape);
        (found, grows)
    }

    /// Open a level under the current subset: its frontier is every edge
    /// above the seed, not yet tried, with exactly one end in the subset.
    fn descend(&mut self, seed: EdgeId) {
        let start = self.frontier.len();
        for &v in &self.vertices {
            for &(w, e) in self.g.neighbors(v) {
                if e > seed && !self.excluded[e.idx()] && self.degree[w.idx()] == 0 {
                    self.frontier.push(e);
                }
            }
        }
        self.frontier[start..].sort_unstable();
        self.levels.push(Level { start, next: start });
    }

    /// Every subset rooted at `seed` (its smallest edge), `seed` itself
    /// already probed.
    fn grow_from(&mut self, seed: EdgeId) {
        self.push(seed);
        self.descend(seed);
        while let Some(level) = self.levels.last_mut() {
            if level.next == self.frontier.len() {
                // Every extension tried: forget the level and its last edge.
                for e in self.frontier.drain(level.start..) {
                    self.excluded[e.idx()] = false;
                }
                self.levels.pop();
                self.pop();
                continue;
            }
            // Take the next frontier edge; from here on this level (and all
            // below) leaves it alone.
            let e = self.frontier[level.next];
            level.next += 1;
            self.excluded[e.idx()] = true;
            // Exactly one end is in the subset, as when the frontier was
            // drawn: every branch below this level has been undone.
            let edge = self.g.edge(e);
            debug_assert!((self.degree[edge.u.idx()] == 0) != (self.degree[edge.v.idx()] == 0));
            self.push(e);
            if self.probe().1 {
                self.descend(seed);
            } else {
                self.pop();
            }
        }
    }
}

/// Call `visit(feature, edges, center)` for every connected acyclic edge
/// subset of `g` — up to the index's η edges — that is a stored feature:
/// `edges` in the order the walk added them, `center` the subset's center by
/// its id in `g`. Each subset is visited once, in no order a caller should
/// rely on. What the walk did is added to `counts`.
///
/// Stops with `Err(e)` at a single edge `e` of `g` that is not a feature
/// (σ(1) = 1 indexes every edge the database contains, so no database graph
/// contains `g`); all single edges are checked before anything is grown.
pub(crate) fn walk_features(
    index: &TreePiIndex,
    g: &Graph,
    counts: &mut WalkCounts,
    visit: impl FnMut(FeatureId, &[EdgeId], Center),
) -> Result<(), EdgeId> {
    let mut walk = Walk {
        index,
        g,
        visit,
        counts,
        enc: SubtreeEncoder::default(),
        current: Vec::new(),
        vertices: Vec::new(),
        in_set: vec![false; g.edge_count()],
        degree: vec![0; g.vertex_count()],
        neighbours: vec![0; g.vertex_count()],
        shape: 0,
        excluded: vec![false; g.edge_count()],
        frontier: Vec::new(),
        levels: Vec::new(),
    };
    let mut grows = Vec::with_capacity(g.edge_count());
    for e in g.edge_ids() {
        walk.push(e);
        let (found, may_grow) = walk.probe();
        walk.pop();
        if !found {
            return Err(e);
        }
        grows.push(may_grow);
    }
    for (seed, _) in g.edge_ids().zip(grows).filter(|&(_, grows)| grows) {
        walk.grow_from(seed);
    }
    Ok(())
}

/// One occurrence of a stored feature in the query: its edge set is
/// `QueryFeatures::edges[start..end]`.
struct Hit {
    start: usize,
    end: usize,
    feature: FeatureId,
    center: Center,
}

/// The occurrences of stored features in one query graph, largest first:
/// what `TP_q` is covered from ([`crate::partition`]) and `SF_q` is read off.
pub(crate) struct QueryFeatures {
    /// The occurrences' edge sets, each ascending, end to end.
    edges: Vec<EdgeId>,
    /// Descending by edge count, then ascending by edge set.
    hits: Vec<Hit>,
}

impl QueryFeatures {
    /// Walk `q`, adding what the walk did to `counts`. `Err` is an edge of
    /// `q` that is not a feature, which proves `q`'s support empty.
    pub(crate) fn walk(
        index: &TreePiIndex,
        q: &Graph,
        counts: &mut WalkCounts,
    ) -> Result<Self, EdgeId> {
        let (mut edges, mut hits) = (Vec::new(), Vec::new());
        walk_features(index, q, counts, |feature, subset, center| {
            let start = edges.len();
            edges.extend_from_slice(subset);
            edges[start..].sort_unstable();
            let end = edges.len();
            hits.push(Hit {
                start,
                end,
                feature,
                center,
            });
        })?;
        // The walk reaches each edge set once, so the order is total.
        hits.sort_unstable_by(|a, b| {
            let (ea, eb) = (&edges[a.start..a.end], &edges[b.start..b.end]);
            eb.len().cmp(&ea.len()).then_with(|| ea.cmp(eb))
        });
        Ok(Self { edges, hits })
    }

    /// Every occurrence as `(edge set ascending, feature, center by its id
    /// in q)`, the most edges first, ties ascending by edge set.
    pub(crate) fn hits(&self) -> impl Iterator<Item = (&[EdgeId], FeatureId, Center)> {
        self.hits
            .iter()
            .map(|h| (&self.edges[h.start..h.end], h.feature, h.center))
    }

    /// The distinct features occurring in `q`, ascending: `SF_q`.
    pub(crate) fn features(&self) -> Vec<FeatureId> {
        let mut sf: Vec<FeatureId> = self.hits.iter().map(|h| h.feature).collect();
        sf.sort_unstable();
        sf.dedup();
        sf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scan_support, TreePiParams};
    use graph_core::{ELabel, GraphBuilder, VLabel};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use std::ops::ControlFlow;
    use tree_core::{canonical_string, center_positions, CenterPos, Tree};

    /// One occurrence: ascending edge set, feature, center by its id in `g`.
    type Hit = (Vec<EdgeId>, FeatureId, Center);

    /// The shape of the tree `subset` spans in `g`, from scratch: its
    /// vertices, each with the edges of `subset` at it. Every probe of a
    /// walk under test holds the shape it kept to this.
    pub(super) fn tree_invariant(g: &Graph, subset: &[EdgeId]) -> u64 {
        let mut vertices: Vec<VertexId> = subset
            .iter()
            .flat_map(|&e| [g.edge(e).u, g.edge(e).v])
            .collect();
        vertices.sort_unstable();
        vertices.dedup();
        crate::shape::shape_of(g, vertices, |e| subset.contains(&e))
    }

    /// What the walk reports, ascending by edge set.
    fn walked(index: &TreePiIndex, g: &Graph) -> Result<Vec<Hit>, EdgeId> {
        let mut hits: Vec<Hit> = Vec::new();
        walk_features(
            index,
            g,
            &mut WalkCounts::default(),
            |fid, edges, center| {
                let mut edges = edges.to_vec();
                edges.sort_unstable();
                hits.push((edges, fid, center));
            },
        )?;
        hits.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(hits)
    }

    /// What a walk of `g` did.
    fn counted(index: &TreePiIndex, g: &Graph) -> WalkCounts {
        let mut counts = WalkCounts::default();
        let _ = walk_features(index, g, &mut counts, |_, _, _| {});
        counts
    }

    /// The same by exhaustion: every subtree of `g` up to η edges, extracted,
    /// canonicalised and looked up.
    fn exhaustive(index: &TreePiIndex, g: &Graph) -> Result<Vec<Hit>, EdgeId> {
        let mut hits: Vec<Hit> = Vec::new();
        let mut missing: Option<EdgeId> = None;
        let eta = index.params().sigma.eta;
        let _ = graph_core::for_each_subtree_edge_subset(g, eta, |edges| {
            let sub = graph_core::edge_subgraph(g, edges);
            let tree = Tree::from_graph(sub.graph.clone()).expect("a subtree");
            let center = match tree_core::center(&tree) {
                Center::Vertex(v) => Center::Vertex(sub.host_vertex(v)),
                Center::Edge(e) => Center::Edge(sub.host_edge(e)),
            };
            match index.feature_by_canon(&canonical_string(&tree)) {
                Some(fid) => {
                    let mut edges = edges.to_vec();
                    edges.sort_unstable();
                    hits.push((edges, fid, center));
                }
                // Seeds come in ascending order: the first is the smallest.
                None if edges.len() == 1 => drop(missing.get_or_insert(edges[0])),
                None => {}
            }
            ControlFlow::Continue(())
        });
        hits.sort_by(|a, b| a.0.cmp(&b.0));
        missing.map_or(Ok(hits), Err)
    }

    /// Walk ≡ exhaustion on `g`, and the table built from the walk holds
    /// the exhaustive list, centers included, largest occurrence first.
    fn assert_walk_exact(index: &TreePiIndex, g: &Graph, what: &str) {
        let want = exhaustive(index, g);
        assert_eq!(walked(index, g), want, "{what}");
        match (
            QueryFeatures::walk(index, g, &mut WalkCounts::default()),
            want,
        ) {
            (Ok(table), Ok(mut want)) => {
                let got: Vec<Hit> = table.hits().map(|(e, f, c)| (e.to_vec(), f, c)).collect();
                want.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then_with(|| a.0.cmp(&b.0)));
                assert_eq!(got, want, "{what}");
                let mut sf: Vec<FeatureId> = want.iter().map(|h| h.1).collect();
                sf.sort_unstable();
                sf.dedup();
                assert_eq!(table.features(), sf, "{what}");
            }
            (Err(e), Err(want)) => assert_eq!(e, want, "{what}"),
            _ => panic!("{what}: walk and exhaustion disagree on the missing edge"),
        }
    }

    /// A random connected labeled graph: random tree plus a few extra edges.
    fn arb_connected_graph(nmax: usize, vlabels: u32) -> impl Strategy<Value = Graph> {
        (2..=nmax).prop_flat_map(move |n| {
            let vl = proptest::collection::vec(0..vlabels, n);
            let parents = proptest::collection::vec((0usize..nmax, 0u32..2), n - 1);
            let extras = proptest::collection::vec((0usize..nmax, 0usize..nmax, 0u32..2), 0..3);
            (vl, parents, extras).prop_map(move |(vl, ps, ex)| {
                let mut b = GraphBuilder::new();
                for l in &vl {
                    b.add_vertex(VLabel(*l));
                }
                for (i, (p, el)) in ps.iter().enumerate() {
                    let (v, p) = (VertexId((i + 1) as u32), VertexId((p % (i + 1)) as u32));
                    b.add_edge(v, p, ELabel(*el)).expect("tree edge");
                }
                for (u, v, el) in ex {
                    let (u, v) = (VertexId((u % n) as u32), VertexId((v % n) as u32));
                    if u != v && !b.has_edge(u, v) {
                        let _ = b.add_edge(u, v, ELabel(el));
                    }
                }
                b.build()
            })
        })
    }

    fn arb_db(graphs: usize, nmax: usize) -> impl Strategy<Value = Vec<Graph>> {
        proptest::collection::vec(arb_connected_graph(nmax, 3), 2..=graphs)
    }

    /// Both parameter sets shrink by γ = 1.5, so the feature set is not
    /// downward closed: the walk has to step through trees the index dropped.
    fn both_params() -> [TreePiParams; 2] {
        [TreePiParams::quick(), TreePiParams::default()]
    }

    /// Molecules at the paper's parameters: features up to ten edges, many
    /// of their subtrees shrunk away, queries large enough that most of
    /// their subtrees are nowhere near a feature.
    #[test]
    fn walk_is_exact_on_molecules() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let db = datagen::generate_chem(&datagen::ChemParams::sized(40), &mut rng);
        let queries = datagen::extract_queries(&db, 14, 6, &mut rng);
        let idx = TreePiIndex::build(db, TreePiParams::default());
        // Some feature less one leaf is no feature: the set is not downward
        // closed, and the walk has to pass through what was shrunk away.
        let mut enc = SubtreeEncoder::default();
        let leafless_is_stored = |f: &crate::Feature| {
            let tree = f.tree();
            let g = tree.graph();
            let (stays, cut) = g.neighbors(tree.leaves()[0])[0];
            idx.feature_by_tokens(enc.encode(g, stays, |e| e != cut).0)
                .is_some()
        };
        let mut large = idx.features().iter().filter(|f| f.size() > 1);
        assert!(!large.all(leafless_is_stored), "precondition");
        // Some subset's shape passes the filter and is no feature: the
        // encode-and-drop path is taken.
        let dropped = |q: &Graph| {
            let c = counted(&idx, q);
            c.encodes > c.hits
        };
        assert!(queries.iter().any(dropped), "precondition");
        for q in &queries {
            assert_walk_exact(&idx, q, "molecule query");
        }
        assert_walk_exact(&idx, &idx.db()[3], "a whole molecule");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn walk_finds_exactly_the_stored_features(
            db in arb_db(8, 8),
            q in arb_connected_graph(9, 3),
        ) {
            for params in both_params() {
                let idx = TreePiIndex::build(db.clone(), params);
                assert_walk_exact(&idx, &q, "query");
                for g in &db {
                    assert_walk_exact(&idx, g, "database graph");
                }
                // The degenerate filter (every shape collides) encodes
                // everything, walks everywhere and finds the same.
                assert_walk_exact(&idx.with_colliding_shapes(), &q, "colliding");
            }
        }

        #[test]
        fn walk_stays_exact_across_maintenance_and_reload(
            db in arb_db(6, 7),
            extra in arb_connected_graph(7, 3),
            q in arb_connected_graph(8, 4),
        ) {
            for params in both_params() {
                let mut idx = TreePiIndex::build(db.clone(), params);
                // An insert carrying an edge label no graph had (and, in
                // `q`, a vertex label none has: the missing-edge path).
                let mut novel = GraphBuilder::new();
                let (a, b) = (novel.add_vertex(VLabel(0)), novel.add_vertex(VLabel(1)));
                let c = novel.add_vertex(VLabel(0));
                novel.add_edge(a, b, ELabel(9)).expect("fresh");
                novel.add_edge(b, c, ELabel(0)).expect("fresh");
                let novel = novel.build();
                idx.insert(extra.clone());
                let gid = idx.insert(novel.clone());
                for g in [&q, &extra, &novel] {
                    assert_walk_exact(&idx, g, "after inserts");
                }
                // Walk-fed postings are what a search of the graph finds.
                for (i, f) in idx.features().iter().enumerate() {
                    let got: Vec<CenterPos> =
                        idx.center_positions_of(FeatureId(i as u32), gid).collect();
                    prop_assert_eq!(got, center_positions(&f.tree(), &novel), "feature {}", i);
                }
                idx.remove(0);
                let remined = idx.remine_with_pool(&graph_core::par::Pool::new(1));
                let mut file = Vec::new();
                remined.save(&mut file).expect("in-memory write");
                let loaded = TreePiIndex::load(&mut file.as_slice()).expect("own file");
                prop_assert_eq!(loaded.memory_breakdown(), remined.memory_breakdown());
                for (idx, what) in [(&remined, "re-mined"), (&loaded, "loaded")] {
                    for g in [&q, &extra, &novel] {
                        assert_walk_exact(idx, g, what);
                    }
                }
            }
        }

        #[test]
        fn colliding_shapes_cost_no_answer(
            db in arb_db(6, 6),
            extra in arb_connected_graph(6, 3),
            q in arb_connected_graph(5, 3),
        ) {
            let mut exact = TreePiIndex::build(db, TreePiParams::quick());
            let mut idx = exact.clone().with_colliding_shapes();
            let gid = idx.insert(extra.clone());
            prop_assert_eq!(exact.insert(extra), gid);
            for (i, f) in exact.features().iter().enumerate() {
                let fid = FeatureId(i as u32);
                prop_assert_eq!(&idx.feature(fid).support, &f.support);
                prop_assert!(idx.center_positions_of(fid, gid).eq(exact.center_positions_of(fid, gid)));
            }
            let got = idx.query(&q);
            let want = exact.query(&q);
            prop_assert_eq!(&got.matches, &scan_support(&idx, &q));
            prop_assert_eq!(got.matches, want.matches);
            prop_assert_eq!(got.stats.partition_size, want.stats.partition_size);
            prop_assert_eq!(got.stats.sf_size, want.stats.sf_size);
        }

        /// Every probe holds the shape the walk kept to [`tree_invariant`]
        /// of its subset (the assertion is in `Walk::probe`). Under the
        /// filter that holds everything the walk probes — and encodes —
        /// every subtree up to η edges; under the index's own it probes no
        /// more, and finds the same.
        #[test]
        fn every_probe_keeps_the_subsets_shape(
            db in arb_db(6, 8),
            q in arb_connected_graph(9, 3),
        ) {
            for params in both_params() {
                let idx = TreePiIndex::build(db.clone(), params);
                let everything = idx.clone().with_colliding_shapes();
                for g in db.iter().chain([&q]) {
                    let mut subsets = 0;
                    let eta = idx.params().sigma.eta;
                    let _ = graph_core::for_each_subtree_edge_subset(g, eta, |_| {
                        subsets += 1;
                        ControlFlow::Continue(())
                    });
                    let (all, own) = (counted(&everything, g), counted(&idx, g));
                    // A missing edge stops both walks at the same probe.
                    if let Ok(hits) = exhaustive(&idx, g) {
                        prop_assert_eq!((all.probes, all.hits), (subsets, hits.len()));
                    }
                    prop_assert_eq!(all.encodes, all.probes);
                    prop_assert_eq!(own.hits, all.hits);
                    prop_assert!(own.probes <= all.probes);
                    prop_assert!(own.hits <= own.encodes && own.encodes <= own.probes);
                }
            }
        }
    }
}
