//! The guided subtree walk: every occurrence of a stored feature in a graph.
//!
//! Two computations ask the same question — *which stored features occur
//! in this graph, and where* — the query's "enumerate the frequent subtrees
//! in q" (paper §1, §5.1) and §7.1's update of the posting lists when a
//! graph arrives. [`walk_features`] answers it once for both.
//!
//! The walk grows connected acyclic edge subsets by the seed-and-forbid
//! scheme of the connected enumerator,
//! [`graph_core::for_each_connected_edge_subset`], taking only edges with
//! one end outside the subset, so each subset is reached at most once, and
//! along the way every ancestor of a subset is a subtree of it. A subset is
//! therefore extended only while it may be a *proper subtree of some stored
//! feature* ([`TreePiIndex::may_grow`]): an occurrence of a feature has
//! nothing but such subsets above it, so none is lost, and everywhere else
//! the walk stops after one step instead of enumerating every subtree up to
//! η edges.
//!
//! Both "may it grow?" and "may it be a feature?" are put to the subset's
//! shape ([`crate::shape`]), which the walk keeps as edges come and go, two
//! vertex terms per edge. Only a subset whose shape may be a feature's is
//! canonically encoded; the directory's hash lookup then confirms the hit
//! or drops it, and the encoder yields a hit's center.
//!
//! Every subset is reached from one *seed*, its smallest edge, and grows
//! only through edges above it, so the seeds are independent: once every
//! single edge has been checked, the seeds that may grow are handed out
//! one at a time, from an atomic cursor, to the seats of a [`Pool::run`]
//! job. Each seat collects its own occurrences and counts, and they are
//! merged; a query's are then put in one total order (most edges first,
//! then edge set) and the counts summed, so what the walk returns is the
//! same at any seat count. With one seat the job runs inline.

use crate::index::{FeatureId, TreePiIndex};
use crate::query::WALK_SPLIT_SEEDS;
use crate::shape::{edge_term, vertex_term};
use graph_core::par::Pool;
use graph_core::{EdgeId, Graph, VertexId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tree_core::{Center, SubtreeEncoder};

/// What walks did: subsets visited, subsets canonically encoded, and
/// features found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct WalkCounts {
    pub(crate) probes: usize,
    pub(crate) encodes: usize,
    pub(crate) hits: usize,
}

impl std::ops::AddAssign for WalkCounts {
    fn add_assign(&mut self, other: Self) {
        self.probes += other.probes;
        self.encodes += other.encodes;
        self.hits += other.hits;
    }
}

/// Where a walk puts the occurrences it finds.
pub(crate) trait Occurrences: Default + Send {
    /// Add the occurrence of `feature` on `subset` (in the order the walk
    /// grew it), centered at `center` by its id in the graph.
    fn push(&mut self, subset: &[EdgeId], feature: FeatureId, center: Center);
    /// Take over `other`'s occurrences, in no particular order.
    fn append(&mut self, other: Self);
}

/// §7.1 `insert`'s occurrences: (feature, center id), the center a vertex
/// or an edge id according to the feature's kind of center.
impl Occurrences for Vec<(FeatureId, u32)> {
    fn push(&mut self, _: &[EdgeId], feature: FeatureId, center: Center) {
        Vec::push(
            self,
            match center {
                Center::Vertex(v) => (feature, v.0),
                Center::Edge(e) => (feature, e.0),
            },
        );
    }

    fn append(&mut self, mut other: Self) {
        if self.is_empty() {
            *self = other;
        } else {
            Vec::append(self, &mut other);
        }
    }
}

/// One level of the walk: where the subset in `Walk::current` is in trying
/// its frontier, which is `Walk::frontier[start..]` while the level is the
/// deepest one.
struct Level {
    start: usize,
    next: usize,
}

/// One seat's walk: the state of the subset being grown, and what the
/// seat has found so far.
struct Walk<'a, O> {
    index: &'a TreePiIndex,
    g: &'a Graph,
    counts: WalkCounts,
    found: O,
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

impl<'a, O: Occurrences> Walk<'a, O> {
    fn new(index: &'a TreePiIndex, g: &'a Graph) -> Self {
        Self {
            index,
            g,
            counts: WalkCounts::default(),
            found: O::default(),
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
        }
    }

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
                self.found.push(&self.current, fid, center);
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

/// One occurrence of a stored feature in the query: its edge set is
/// `QueryFeatures::edges[start..end]`.
struct Hit {
    start: usize,
    end: usize,
    feature: FeatureId,
    center: Center,
}

/// The occurrences of stored features in one query graph, largest first:
/// what `TP_q` is covered from ([`crate::partition`]) and `SF_q` is read
/// off.
#[derive(Default)]
pub(crate) struct QueryFeatures {
    /// The occurrences' edge sets, each ascending, end to end.
    edges: Vec<EdgeId>,
    /// Descending by edge count, then ascending by edge set.
    hits: Vec<Hit>,
}

/// Every connected acyclic edge subset of `g` — up to the index's η edges
/// — that is a stored feature, with its center by its id in `g`, in no
/// order a caller should rely on. The seeds that may grow are shared out
/// over `seats` seats of `pool` when there are [`WALK_SPLIT_SEEDS`] of them
/// or more; which occurrences are found does not depend on it. What the
/// walk did is added to `counts`.
///
/// `Err(e)` is a single edge `e` of `g` that is not a feature (σ(1) = 1
/// indexes every edge the database contains, so no database graph
/// contains `g`); all single edges are checked, in id order, before
/// anything is grown.
pub(crate) fn walk_features<O: Occurrences>(
    index: &TreePiIndex,
    g: &Graph,
    pool: &Pool,
    seats: usize,
    counts: &mut WalkCounts,
) -> Result<O, EdgeId> {
    let mut first = Walk::<O>::new(index, g);
    let mut seeds = Vec::with_capacity(g.edge_count());
    for e in g.edge_ids() {
        first.push(e);
        let (found, grows) = first.probe();
        first.pop();
        if !found {
            *counts += first.counts;
            return Err(e);
        }
        if grows {
            seeds.push(e);
        }
    }
    let seats = if seeds.len() >= WALK_SPLIT_SEEDS {
        seats.clamp(1, seeds.len())
    } else {
        1
    };
    // The first seat to take a seed carries on with the walk that checked
    // the single edges; any other seat starts its own. A seat's finds are
    // merged when it has no seed left to take.
    let next = AtomicUsize::new(0);
    let first = Mutex::new(Some(first));
    let merged = Mutex::new((O::default(), WalkCounts::default()));
    let merge = |walk: Walk<O>| {
        let mut merged = merged.lock().expect("merged walks");
        merged.0.append(walk.found);
        merged.1 += walk.counts;
    };
    pool.run(seats, |_| {
        let mut walk = None;
        while let Some(&seed) = seeds.get(next.fetch_add(1, Ordering::Relaxed)) {
            walk.get_or_insert_with(|| {
                let first = first.lock().expect("first walk").take();
                first.unwrap_or_else(|| Walk::new(index, g))
            })
            .grow_from(seed);
        }
        if let Some(walk) = walk {
            merge(walk);
        }
    });
    if let Some(walk) = first.into_inner().expect("first walk") {
        merge(walk);
    }
    let (found, walked) = merged.into_inner().expect("merged walks");
    *counts += walked;
    Ok(found)
}

impl QueryFeatures {
    /// The occurrences of stored features in `q` ([`walk_features`]),
    /// largest first, the same at any seat count.
    pub(crate) fn walk(
        index: &TreePiIndex,
        q: &Graph,
        pool: &Pool,
        seats: usize,
        counts: &mut WalkCounts,
    ) -> Result<Self, EdgeId> {
        let mut found: Self = walk_features(index, q, pool, seats, counts)?;
        // The walk reaches each edge set once, so the order is total.
        let edges = &found.edges;
        found.hits.sort_unstable_by(|a, b| {
            let (ea, eb) = (&edges[a.start..a.end], &edges[b.start..b.end]);
            eb.len().cmp(&ea.len()).then_with(|| ea.cmp(eb))
        });
        Ok(found)
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

impl Occurrences for QueryFeatures {
    fn push(&mut self, subset: &[EdgeId], feature: FeatureId, center: Center) {
        let start = self.edges.len();
        self.edges.extend_from_slice(subset);
        self.edges[start..].sort_unstable();
        self.hits.push(Hit {
            start,
            end: self.edges.len(),
            feature,
            center,
        });
    }

    fn append(&mut self, mut other: Self) {
        if self.hits.is_empty() {
            *self = other;
            return;
        }
        let shift = self.edges.len();
        self.edges.append(&mut other.edges);
        self.hits.extend(other.hits.into_iter().map(|h| Hit {
            start: h.start + shift,
            end: h.end + shift,
            ..h
        }));
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

    /// What a walk of `g` on `seats` seats of `pool` returns — its hits in
    /// order, or the missing edge — and what it did.
    fn walk_on(
        index: &TreePiIndex,
        g: &Graph,
        pool: &Pool,
        seats: usize,
    ) -> (Result<Vec<Hit>, EdgeId>, WalkCounts) {
        let mut counts = WalkCounts::default();
        let found = QueryFeatures::walk(index, g, pool, seats, &mut counts);
        let hits = found.map(|f| f.hits().map(|(e, f, c)| (e.to_vec(), f, c)).collect());
        (hits, counts)
    }

    /// What a walk of `g` did.
    fn counted(index: &TreePiIndex, g: &Graph) -> WalkCounts {
        walk_on(index, g, &Pool::new(1), 1).1
    }

    /// How many edges of `g` the walk grows from: single edges whose
    /// shape may grow into a feature.
    fn growing_seeds(index: &TreePiIndex, g: &Graph) -> usize {
        let grows = |e: EdgeId| index.may_grow(tree_invariant(g, &[e]));
        let eta = index.params().sigma.eta;
        g.edge_ids().filter(|&e| eta > 1 && grows(e)).count()
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

    /// Walk ≡ exhaustion on `g`: the walk's hit list is the exhaustive
    /// list, centers included, largest occurrence first, and its features
    /// are the distinct ones of that list.
    fn assert_walk_exact(index: &TreePiIndex, g: &Graph, what: &str) {
        let mut want = exhaustive(index, g);
        if let Ok(want) = &mut want {
            want.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then_with(|| a.0.cmp(&b.0)));
        }
        let pool = Pool::new(1);
        assert_eq!(walk_on(index, g, &pool, 1).0, want, "{what}");
        if let (Ok(found), Ok(want)) = (
            QueryFeatures::walk(index, g, &pool, 1, &mut WalkCounts::default()),
            want,
        ) {
            let mut sf: Vec<FeatureId> = want.iter().map(|h| h.1).collect();
            sf.sort_unstable();
            sf.dedup();
            assert_eq!(found.features(), sf, "{what}");
        }
    }

    /// A walk split over 2 and 8 seats returns what one seat does: the
    /// hits in order with their centers, the counts, and the missing edge.
    fn assert_seat_invariant(index: &TreePiIndex, g: &Graph, what: &str) {
        let one = walk_on(index, g, &Pool::new(1), 1);
        for seats in [2, 8] {
            let pool = Pool::new(seats);
            assert_eq!(
                walk_on(index, g, &pool, seats),
                one,
                "{what}, {seats} seats"
            );
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

    /// `g` with one more vertex, labeled `label`, hung off vertex 0 by an
    /// edge labeled `elabel`.
    fn with_pendant(g: &Graph, label: u32, elabel: u32) -> Graph {
        let mut b = GraphBuilder::new();
        for v in g.vertices() {
            b.add_vertex(g.vlabel(v));
        }
        for e in g.edges() {
            b.add_edge(e.u, e.v, e.label).expect("a copied edge");
        }
        let x = b.add_vertex(VLabel(label));
        b.add_edge(VertexId(0), x, ELabel(elabel))
            .expect("a new vertex");
        b.build()
    }

    /// `graphs` side by side, over and over, until there are `edges` edges.
    fn side_by_side(graphs: &[Graph], edges: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let mut added = 0;
        for g in graphs.iter().cycle() {
            if added >= edges {
                break;
            }
            let ids: Vec<VertexId> = g.vertices().map(|v| b.add_vertex(g.vlabel(v))).collect();
            for e in g.edges() {
                b.add_edge(ids[e.u.idx()], ids[e.v.idx()], e.label)
                    .expect("a copied edge");
            }
            added += g.edge_count();
        }
        b.build()
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

    /// Split over seats, the walk of a molecule query returns what one
    /// seat's does, and so does that of a query with a bond no molecule
    /// has; some of the walks have seeds enough to be split.
    #[test]
    fn split_walk_equals_one_seat_on_molecules() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let db = datagen::generate_chem(&datagen::ChemParams::sized(40), &mut rng);
        let mut queries = datagen::extract_queries(&db, 16, 6, &mut rng);
        queries.extend(datagen::extract_queries(&db, 4, 4, &mut rng));
        let idx = TreePiIndex::build(db, TreePiParams::default());
        queries.push(with_pendant(&queries[0], 99, 0));
        queries.extend(idx.db()[..4].iter().cloned());
        let splits = |q: &&Graph| growing_seeds(&idx, q) >= WALK_SPLIT_SEEDS;
        assert!(queries.iter().filter(splits).count() >= 6, "precondition");
        for q in &queries {
            assert_seat_invariant(&idx, q, "molecule");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Split over seats, the walk of an arbitrary graph returns what
        /// one seat's does — also under the filter that holds everything,
        /// where every edge is a seed, so the database graphs side by side
        /// always split.
        #[test]
        fn split_walk_equals_one_seat(
            db in arb_db(8, 8),
            q in arb_connected_graph(12, 4),
        ) {
            let idx = TreePiIndex::build(db.clone(), TreePiParams::quick());
            let all = side_by_side(&db, 3 * WALK_SPLIT_SEEDS);
            let everything = idx.clone().with_colliding_shapes();
            prop_assert!(growing_seeds(&everything, &all) >= WALK_SPLIT_SEEDS);
            for index in [&idx, &everything] {
                for g in [&q, &all, &with_pendant(&all, 0, 7)] {
                    assert_seat_invariant(index, g, "arbitrary graph");
                }
            }
        }

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
