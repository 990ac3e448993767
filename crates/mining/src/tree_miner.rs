//! Level-wise frequent subtree mining (paper §4.1.3) with the shrinking
//! step (§4.1.2) taken inside it.
//!
//! "First, all the frequent trees according to the σ function are
//! discovered by any level wise edge-increasing graph mining method."
//!
//! The method here is occurrence-list pattern growth
//! ([`mine_frequent_trees_pool_obs`]):
//!
//! 1. level 1 = every distinct single-edge tree with **all** of its
//!    occurrences, one per host edge, from one database scan;
//! 2. level s+1 = every occurrence of a frequent level-s tree extended by
//!    one adjacent acyclic host edge larger than the child's other leaf
//!    edges — so each child occurrence is generated once, from its
//!    canonical parent, and none needs deduplicating — and grouped by
//!    canonical string, encoded once per extension kind, not per
//!    occurrence, by reading one of the kind's occurrences where it lies
//!    in its host graph (no tree is built);
//! 3. a pattern's support is the set of graphs its occurrences lie in, so
//!    no embedding test ever runs; patterns below σ(s+1) are dropped with
//!    their occurrences and never extended (sound because σ is
//!    non-decreasing).
//!
//! Shrinking judges a tree on its own support and on those of its
//! leaf-removal subtrees, which are all frequent trees of the level below —
//! the level the miner holds when it admits the tree. So the γ test runs
//! there, encoding each leaf removal from the same host occurrence, and only
//! a tree that passes it leaves the miner, as a [`MinedTree`] carrying its
//! center positions per supporting graph — the index's posting list
//! (§4.2.1), ready to store. Every frequent tree, kept or not, feeds the
//! next level.
//!
//! This is deliberately complete: with σ(s) = 1 for s ≤ α (the paper's
//! completeness requirement) *every* distinct subtree up to α edges is
//! found, and γ = 0 keeps them all. Nothing inside the miner cuts the
//! pattern set — the paper bounds it by the choice of σ — and the one guard,
//! a per-level instance budget, discards a whole level and says so in
//! [`MiningStats::truncated`].

use crate::support::{intersect_many, SigmaFn, SupportSet};
use graph_core::par::Pool;
use graph_core::{EdgeId, Graph, VertexId};
use rustc_hash::FxHashMap;
use smallvec::SmallVec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tree_core::{CanonString, Center, SubtreeEncoder};

/// A frequent tree the γ test kept, with its posting list: the exact
/// support set and, rank-aligned to it, where the tree's embeddings are
/// centered.
///
/// For the graph at rank `r` of `support` the center positions are
/// `positions[offsets[r - 1]..offsets[r]]` (from 0 for `r = 0`): ascending,
/// distinct ids of host vertices when the tree's center is a vertex, of host
/// edges when it is an edge. They are exhaustive — the miner visits every
/// occurrence of a frequent tree (see [`mine_frequent_trees_pool_obs`]), and
/// an occurrence's center is the image of the tree's center.
#[derive(Clone, Debug)]
pub struct MinedTree {
    /// Canonical string (index key); [`CanonString::decode`] gives the tree.
    pub canon: CanonString,
    /// Sorted ids of database graphs containing the pattern.
    pub support: SupportSet,
    /// End offset into `positions` per rank of `support`.
    pub offsets: Vec<u32>,
    /// Center position ids of all supporting graphs, in rank order.
    pub positions: Vec<u32>,
}

impl MinedTree {
    /// Edge size of the pattern.
    pub fn size(&self) -> usize {
        self.canon.edge_count()
    }
}

/// The instances one level may generate. The paper bounds the feature set
/// by choosing σ "until the feature tree set can fit in the memory"
/// (§4.1.3), not by cutting inside the miner; this guard only keeps a σ too
/// loose for its database from exhausting memory. A level whose instance
/// count reaches it is discarded whole — partial supports would be unsound
/// to filter on — and mining stops with [`MiningStats::truncated`] set.
const MAX_INSTANCES_PER_LEVEL: usize = 20_000_000;

/// Statistics of one mining run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MiningStats {
    /// Frequent patterns found (before the γ test), summed over levels.
    pub patterns: usize,
    /// Candidates generated (before support counting).
    pub candidates: usize,
    /// Whether a level reached the per-level guard and was discarded, so
    /// mining stopped early.
    pub truncated: bool,
}

/// Canonical tokens and center of the tree that `edges` (sorted host edge
/// ids of an occurrence: acyclic and connected) forms in `g`, less the edge
/// `skip` if one is given, read from `start`, a vertex the edges left reach.
/// The center is named by its id in `g`.
fn encode_in_host<'e>(
    enc: &'e mut SubtreeEncoder,
    g: &Graph,
    edges: &[u32],
    skip: Option<u32>,
    start: VertexId,
) -> (&'e [u32], Center) {
    enc.encode(g, start, |e| {
        Some(e.0) != skip && edges.binary_search(&e.0).is_ok()
    })
}

/// The leaves of the tree that `edges` forms in `g`, each with its edge, in
/// edge order: a single edge has two, a larger tree one per leaf edge.
/// Dropping a larger tree's leaf edge leaves a leaf-removal subtree, one of
/// its maximal proper subtrees.
fn leaves(g: &Graph, edges: &[u32]) -> SmallVec<[(VertexId, u32); 11]> {
    let ends: SmallVec<[(VertexId, u32); 20]> = edges
        .iter()
        .flat_map(|&e| {
            let edge = g.edge(EdgeId(e));
            [(edge.u, e), (edge.v, e)]
        })
        .collect();
    ends.iter()
        .filter(|(v, _)| ends.iter().filter(|(w, _)| w == v).count() == 1)
        .copied()
        .collect()
}

/// Run `f` on every item of `items` with one [`SubtreeEncoder`] per seat:
/// up to `workers` seats of `pool` take chunks of `items` off a shared
/// cursor, so each encoder's buffers grow once and are reused for every item
/// the seat takes.
fn for_each_encoding<T: Send>(
    pool: &Pool,
    workers: usize,
    shard: &obs::Shard,
    items: &mut [T],
    f: impl Fn(&mut SubtreeEncoder, &mut T) + Sync,
) {
    let chunk = items.len().div_ceil(workers * 8).max(1);
    let chunks: Vec<Mutex<&mut [T]>> = items.chunks_mut(chunk).map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    pool.fork_join_obs(workers.min(chunks.len()), shard, |_rank, _wshard| {
        let mut enc = SubtreeEncoder::default();
        while let Some(chunk) = chunks.get(next.fetch_add(1, Ordering::Relaxed)) {
            for item in chunk.lock().expect("a chunk").iter_mut() {
                f(&mut enc, item);
            }
        }
    });
}

/// Mine the σ-frequent subtrees of `db` that the γ test keeps:
/// [`mine_frequent_trees_pool_obs`] on a 1-seat pool with metrics disabled.
/// `tests/reference` keeps an enumeration miner and an apriori miner as
/// cross-checking oracles.
pub fn mine_frequent_trees(
    db: &[Graph],
    sigma: &SigmaFn,
    gamma: f64,
) -> (Vec<MinedTree>, MiningStats) {
    let pool = Pool::new(1);
    mine_frequent_trees_pool_obs(db, sigma, gamma, &pool, &obs::Shard::disabled())
}

/// Occurrence-list level-wise mining — the "level wise edge-increasing"
/// method the paper prescribes — with every parallel pass (the per-level
/// extension and encoding pass, the support unions, the γ test with
/// occurrence materialization) dispatched as seats on `pool`, so a
/// multi-level run reuses one set of worker threads and a caller can share
/// the pool with the rest of a build and with query serving. The passes run
/// *from inside* the level loop on whatever thread dispatched the build —
/// re-entrant dispatch is safe because the pool's dispatcher claims its own
/// job's seats.
///
/// Level s holds every frequent s-edge tree together with **all** of its
/// occurrence instances: `(graph, mapping)` pairs where the mapping embeds
/// a fixed *representative* numbering of the pattern's vertices. Level s+1
/// extends each instance by one adjacent acyclic host edge, but only from
/// the instance's *canonical parent*: the edge must be larger than every
/// other leaf edge of the child, so each (s+1)-edge instance is generated
/// exactly once, from the s-edge instance its largest leaf edge leaves, and
/// no instance needs deduplicating. The extension's identity is just
/// `(attach pattern vertex, edge label, leaf label)`, so every instance of
/// one (representative, extension kind) is an occurrence of the same
/// numbered child pattern. Its canonical string and center are therefore
/// computed **once per kind**, by encoding one of its instances in the host
/// graph ([`SubtreeEncoder::encode`] over the instance's edge set), and
/// shared by every instance — canonicalization cost scales with the number
/// of kinds, not the (much larger) number of instances, and no tree is
/// built. Supports fall out of the instance lists, so no embedding tests are
/// ever run. Instances of *infrequent* patterns are dropped and never
/// extended — with the σ(s) thresholds growing past α this prunes the
/// (combinatorially dominant) large-and-rare subtrees that plain
/// enumeration would still visit.
///
/// Shrinking (§4.1.2) happens as a frequent (s+1)-tree is admitted: its
/// support and its leaf-removal subtrees' supports, read from level s, decide
/// whether it is kept (see `gamma_keeps`; single edges always are). Each
/// leaf removal is encoded from one instance of the tree by leaving one leaf
/// edge out, and found in level s by its tokens. Only a kept tree gets
/// center columns and leaves as a [`MinedTree`]; every frequent tree's
/// instances feed level s+2, and only a kept tree's are materialized at the
/// last level. `gamma = 0.0` keeps every frequent tree.
///
/// Exactness: removing the largest leaf edge of an instance of a frequent
/// (s+1)-tree leaves an instance of a frequent s-tree (σ is non-decreasing),
/// which is present at level s, so every instance of a frequent tree is
/// generated, once, and its support is complete. An infrequent tree may be
/// reached through fewer instances, or not at all, but never more than
/// exist, so it stays infrequent. So are the center columns every
/// [`MinedTree`] carries complete: an embedding's image is one of the
/// pattern's instances, every isomorphism onto an instance maps the
/// pattern's center (unique by Theorem 1) onto the instance's, and the
/// columns are read off *all* instances of all representatives — the same
/// positions an exhaustive `tree_core::center_positions` search finds,
/// without the search.
///
/// Metrics on `shard`: a `mine.level{s}` span per level plus
/// `mine.level{s}.kinds` / `.candidates` / `.patterns` /
/// `.pruned_by_support` counters (extension kinds encoded, which at level 1
/// are the distinct labeled edges; the distinct candidate patterns they
/// form, which past level 1 are those reached through canonical parents;
/// survivors of the σ(s) filter; and the difference), and the run totals
/// `mine.candidates` (instances generated) and `mine.patterns` (frequent
/// patterns mined, as in [`MiningStats`]).
///
/// # Determinism contract
///
/// The output — kept patterns, support sets, center columns,
/// [`MiningStats`], and every counter — and every level's representatives
/// and instance lists are a pure function of `(db, sigma, gamma)`,
/// independent of the pool size and of scheduling. The construction:
///
/// - **Canonical parent.** Which instance generates a child depends only on
///   the child's host edge ids, so every instance comes from one place
///   whatever the seats do.
/// - **Per representative.** Seats take chunks of consecutive
///   representatives; a representative's extensions are sorted by
///   `(attach vertex, edge label, leaf label, parent occurrence, leaf)`,
///   so each extension kind is one run, in parent-occurrence order, and is
///   encoded from its first extension. Flattening the chunks in order gives
///   the kinds in `(pattern, representative, kind)` order whatever the
///   chunking, and every instance of a kind is an occurrence of the same
///   numbered child pattern, so the canonical string and center any one of
///   them gives are the kind's.
/// - **Grouping.** Kinds are grouped by canonical string with a hash map,
///   in kind order, so each pattern's representatives keep that order; a
///   pattern's support is the union of its kinds' graphs, and only the
///   frequent patterns are sorted by canonical string. Occurrence lists
///   are materialized only for patterns that are admitted, in
///   parent-occurrence order, which is graph order.
///
/// The one guard is deterministic too: a level is discarded whole when the
/// *total* count of instances it generates reaches `MAX_INSTANCES_PER_LEVEL`
/// (seats stop early once the shared count has reached it, purely as an
/// optimization, and a discarded level contributes nothing to counters), so
/// a guarded run keeps exactly the levels below it.
pub fn mine_frequent_trees_pool_obs(
    db: &[Graph],
    sigma: &SigmaFn,
    gamma: f64,
    pool: &Pool,
    shard: &obs::Shard,
) -> (Vec<MinedTree>, MiningStats) {
    mine_within(db, sigma, gamma, pool, shard, MAX_INSTANCES_PER_LEVEL)
}

/// [`mine_frequent_trees_pool_obs`] with the per-level guard at `budget`
/// instances, so that a test can reach it on a small database.
fn mine_within(
    db: &[Graph],
    sigma: &SigmaFn,
    gamma: f64,
    pool: &Pool,
    shard: &obs::Shard,
    budget: usize,
) -> (Vec<MinedTree>, MiningStats) {
    type Mapping = SmallVec<[u32; 11]>; // pattern vertex -> host vertex
    type EdgeSet = SmallVec<[u32; 10]>; // sorted host edge ids
    /// The center of a representative as its pattern vertices: one, or the
    /// two ends of the center edge (smaller first).
    type CenterVertices = (u32, Option<u32>);

    assert!(sigma.is_monotone(), "σ(s) must be non-decreasing");
    let mut stats = MiningStats::default();

    /// One instance of a representative in a host graph.
    struct Instance {
        gid: u32,
        mapping: Mapping,
        edges: EdgeSet,
    }
    /// A representative numbering of a pattern's vertices, with its center
    /// and its instances, occs sorted by gid. Several representatives
    /// (different numberings) can share one pattern.
    struct Rep {
        center: CenterVertices,
        occs: Vec<Instance>,
    }
    /// A frequent pattern of one level: its canonical string and support
    /// (what the next level's γ test reads) and its representatives.
    struct Pattern {
        canon: CanonString,
        support: SupportSet,
        reps: Vec<Rep>,
    }
    /// One extension of a parent occurrence by the host `edge` to a new
    /// `leaf` vertex, attached at pattern vertex `attach`. The child's
    /// mapping and edge set are the parent's plus `leaf` and `edge`, built
    /// only for patterns that are admitted. Ordered so that a
    /// representative's extension kinds are runs, in parent-occurrence
    /// order.
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Ext {
        attach: u32,
        elabel: u32,
        llabel: u32,
        /// Index into the parent representative's occurrence list.
        occ: u32,
        leaf: u32,
        edge: u32,
    }
    /// An extension kind of `rep`, a level's `(pattern, representative)`:
    /// its run of its chunk's extensions, the child's canonical tokens in
    /// its chunk's arena and the child's center.
    struct Kind {
        rep: (u32, u32),
        exts: std::ops::Range<usize>,
        tokens: std::ops::Range<usize>,
        center: CenterVertices,
    }
    /// A run of consecutive `(pattern, representative)` pairs of a level,
    /// with the extensions, kinds and canonical tokens they generate.
    struct Chunk {
        reps: std::ops::Range<usize>,
        exts: Vec<Ext>,
        kinds: Vec<Kind>,
        tokens: Vec<u32>,
    }
    /// The kinds of one canonical string, as `(chunk, kind)` in kind order,
    /// and their union support.
    struct Class {
        kinds: SmallVec<[(u32, u32); 2]>,
        support: SupportSet,
    }
    /// A pattern admitted at a level: its kinds (one per representative, in
    /// order) and, once the γ test keeps it, its [`MinedTree`].
    struct Admitted {
        pattern: Pattern,
        kinds: SmallVec<[(u32, u32); 2]>,
        mined: Option<MinedTree>,
    }

    /// `edges` with `edge` added, in order.
    fn with_edge(edges: &EdgeSet, edge: u32) -> EdgeSet {
        let mut out = edges.clone();
        let pos = out.partition_point(|&e| e < edge);
        out.insert(pos, edge);
        out
    }
    /// A kept pattern as the miner hands it over, with its center columns
    /// (see [`MinedTree`]) read off the instances of all its representatives,
    /// which are sorted by graph: one walk down the support, gathering each
    /// graph's run from every representative. Representatives number their
    /// vertices differently, so each carries its own center; an edge center
    /// lands on the host edge between the images of its two ends; many
    /// instances share a center, so a graph's ids are de-duplicated.
    fn mined_tree(db: &[Graph], p: &Pattern) -> MinedTree {
        let mut reps: SmallVec<[(CenterVertices, &[Instance]); 2]> = p
            .reps
            .iter()
            .map(|rep| (rep.center, &rep.occs[..]))
            .collect();
        let mut offsets = Vec::with_capacity(p.support.len());
        let mut positions = Vec::new();
        let mut ids: Vec<u32> = Vec::new();
        for &gid in &p.support {
            let g = &db[gid as usize];
            ids.clear();
            for ((u, v), occs) in reps.iter_mut() {
                let run = occs.iter().take_while(|o| o.gid == gid).count();
                ids.extend(occs[..run].iter().map(|o| match *v {
                    None => o.mapping[*u as usize],
                    Some(v) => {
                        let (hu, hv) = (o.mapping[*u as usize], o.mapping[v as usize]);
                        g.edge_between(VertexId(hu), VertexId(hv))
                            .expect("an instance maps tree edges onto host edges")
                            .0
                    }
                }));
                *occs = &occs[run..];
            }
            debug_assert!(!ids.is_empty(), "a supporting graph holds an instance");
            ids.sort_unstable();
            ids.dedup();
            positions.extend_from_slice(&ids);
            offsets.push(positions.len() as u32);
        }
        debug_assert!(reps.iter().all(|(_, occs)| occs.is_empty()));
        positions.shrink_to_fit();
        MinedTree {
            canon: p.canon.clone(),
            support: p.support.clone(),
            offsets,
            positions,
        }
    }
    /// The shrinking step's test (paper §4.1.2) for a tree `r` of two edges
    /// or more with `support` graphs: keep `r` iff `|⋂ᵢ D_rᵢ| / |D_r| > γ`
    /// over its leaf-removal (maximal proper) subtrees `rᵢ`, frequent trees
    /// that `below`, the level under `r` in canonical order, holds. The
    /// ratio is at least 1. `parent` is the support of one `rᵢ`, the
    /// pattern `r` was grown from: the intersection lies within it, which
    /// often settles the test before any subtree is encoded. Otherwise each
    /// `rᵢ` is encoded from `r`'s instance `edges` in `g`, leaving one leaf
    /// edge out.
    fn gamma_keeps(
        support: usize,
        parent: &[u32],
        below: &[Pattern],
        gamma: f64,
        enc: &mut SubtreeEncoder,
        g: &Graph,
        edges: &[u32],
    ) -> bool {
        let ratio = |common: usize| common as f64 / support as f64;
        if ratio(parent.len()) <= gamma {
            return false;
        }
        let sets: SmallVec<[&[u32]; 10]> = leaves(g, edges)
            .into_iter()
            .map(|(leaf, leaf_edge)| {
                let (tokens, _) = encode_in_host(
                    enc,
                    g,
                    edges,
                    Some(leaf_edge),
                    g.edge(EdgeId(leaf_edge)).other(leaf),
                );
                let i = below
                    .binary_search_by(|p| p.canon.tokens().cmp(tokens))
                    .expect("a frequent tree's subtrees are frequent one level down");
                below[i].support.as_slice()
            })
            .collect();
        ratio(intersect_many(&sets, usize::MAX).len()) > gamma
    }

    let workers = pool.parallelism().max(1);

    // ---- Level 1: single-edge patterns, one instance per host edge. ----
    // One scan in (gid, edge) order: instances and supports come out sorted.
    let level1_span = shard.span("mine.level1");
    let mut level: Vec<Pattern> = Vec::new();
    {
        // (smaller label, edge label, larger label) -> pattern, encoded once.
        let mut pattern_of: FxHashMap<(u32, u32, u32), usize> = FxHashMap::default();
        let mut enc = SubtreeEncoder::default();
        for (gid, g) in (0u32..).zip(db) {
            for e in g.edge_ids() {
                let edge = g.edge(e);
                let (lu, lv) = (g.vlabel(edge.u), g.vlabel(edge.v));
                // Orient the mapping to the representative (smaller label
                // first); a single edge is centered on itself.
                let mapping: Mapping = if lu <= lv {
                    smallvec::smallvec![edge.u.0, edge.v.0]
                } else {
                    smallvec::smallvec![edge.v.0, edge.u.0]
                };
                let triple = (lu.min(lv).0, edge.label.0, lu.max(lv).0);
                let p = *pattern_of.entry(triple).or_insert_with(|| {
                    let (tokens, _) = encode_in_host(&mut enc, g, &[e.0], None, edge.u);
                    level.push(Pattern {
                        canon: CanonString(tokens.to_vec()),
                        support: Vec::new(),
                        reps: vec![Rep {
                            center: (0, Some(1)),
                            occs: Vec::new(),
                        }],
                    });
                    level.len() - 1
                });
                let p = &mut level[p];
                if p.support.last() != Some(&gid) {
                    p.support.push(gid);
                }
                p.reps[0].occs.push(Instance {
                    gid,
                    mapping,
                    edges: smallvec::smallvec![e.0],
                });
            }
        }
    }
    // The frequent ones, in canon order.
    level.sort_unstable_by(|a, b| a.canon.cmp(&b.canon));
    let level1_candidates = level.len() as u64;
    let t1 = sigma.threshold(1).expect("σ(1) must be finite") as usize;
    level.retain(|p| p.support.len() >= t1);
    shard.add("mine.level1.kinds", level1_candidates);
    shard.add("mine.level1.candidates", level1_candidates);
    shard.add("mine.level1.patterns", level.len() as u64);
    shard.add(
        "mine.level1.pruned_by_support",
        level1_candidates - level.len() as u64,
    );
    // Frequent patterns mined so far, and the kept ones: every single edge.
    stats.patterns = level.len();
    let mut result: Vec<MinedTree> = level.iter().map(|p| mined_tree(db, p)).collect();
    drop(level1_span);

    let mut size = 1usize;
    while size < sigma.eta && !level.is_empty() {
        let Some(next_threshold) = sigma.threshold(size + 1) else {
            break;
        };
        let next_threshold = next_threshold as usize;
        let level_name = format!("mine.level{}", size + 1);
        let _level_span = shard.span(&level_name);
        let level_ref = &level;

        // ---- Per representative, in parallel: extend and encode. ----
        //
        // Chunks of consecutive representatives, of about equal instance
        // counts; each owns its extension records (flat, no heap per
        // record) and its token arena.
        let pairs: Vec<(u32, u32)> = (0u32..)
            .zip(level_ref)
            .flat_map(|(p, pattern)| (0u32..).zip(&pattern.reps).map(move |(r, _)| (p, r)))
            .collect();
        let rep = |(p, r): (u32, u32)| &level_ref[p as usize].reps[r as usize];
        let instances: usize = pairs.iter().map(|&pr| rep(pr).occs.len()).sum();
        let target = instances.div_ceil(workers * 16).max(1);
        let mut chunks: Vec<Chunk> = Vec::new();
        let (mut start, mut filled) = (0, 0);
        for (i, &pr) in pairs.iter().enumerate() {
            filled += rep(pr).occs.len();
            if filled >= target || i + 1 == pairs.len() {
                chunks.push(Chunk {
                    reps: start..i + 1,
                    exts: Vec::new(),
                    kinds: Vec::new(),
                    tokens: Vec::new(),
                });
                (start, filled) = (i + 1, 0);
            }
        }
        let generated = AtomicUsize::new(0);
        for_each_encoding(pool, workers, shard, &mut chunks, |enc, chunk| {
            let Chunk {
                reps,
                exts,
                kinds,
                tokens,
            } = chunk;
            for &pr in &pairs[reps.clone()] {
                if generated.load(Ordering::Relaxed) >= budget {
                    return; // the level is doomed
                }
                let occs = &rep(pr).occs;
                let first = exts.len();
                for (occ, o) in (0u32..).zip(occs) {
                    let g = &db[o.gid as usize];
                    let leaves = leaves(g, &o.edges);
                    for (attach, &hv) in (0u32..).zip(&o.mapping) {
                        // The child's other leaf edges are the parent's, less
                        // the one whose leaf is the attach vertex: the new
                        // edge must be larger than all of them.
                        let bar = leaves
                            .iter()
                            .filter(|&&(leaf, _)| leaf.0 != hv)
                            .map(|&(_, e)| e)
                            .max()
                            .expect("a tree keeps a leaf away from any one vertex");
                        for &(w, he) in g.neighbors(VertexId(hv)) {
                            if he.0 > bar && !o.mapping.contains(&w.0) {
                                exts.push(Ext {
                                    attach,
                                    elabel: g.edge(he).label.0,
                                    llabel: g.vlabel(w).0,
                                    occ,
                                    leaf: w.0,
                                    edge: he.0,
                                });
                            }
                        }
                    }
                }
                generated.fetch_add(exts.len() - first, Ordering::Relaxed);
                exts[first..].sort_unstable();
                // Each kind is a run; encode the child from its first
                // extension, where it lies in its host graph.
                let mut at = first;
                for run in exts[first..].chunk_by(|a, b| {
                    (a.attach, a.elabel, a.llabel) == (b.attach, b.elabel, b.llabel)
                }) {
                    let x = &run[0];
                    let parent = &occs[x.occ as usize];
                    let g = &db[parent.gid as usize];
                    let edges = with_edge(&parent.edges, x.edge);
                    let (child, center) = encode_in_host(enc, g, &edges, None, VertexId(x.leaf));
                    // The child's mapping is the parent's plus the leaf.
                    let vertex_of = |h: VertexId| {
                        parent
                            .mapping
                            .iter()
                            .chain([&x.leaf])
                            .position(|&m| m == h.0)
                            .expect("the center lies in the instance")
                            as u32
                    };
                    let center = match center {
                        Center::Vertex(v) => (vertex_of(v), None),
                        Center::Edge(e) => {
                            let e = g.edge(e);
                            let (a, b) = (vertex_of(e.u), vertex_of(e.v));
                            (a.min(b), Some(a.max(b)))
                        }
                    };
                    kinds.push(Kind {
                        rep: pr,
                        exts: at..at + run.len(),
                        tokens: tokens.len()..tokens.len() + child.len(),
                        center,
                    });
                    tokens.extend_from_slice(child);
                    at += run.len();
                }
            }
        });
        let generated = generated.into_inner();
        if generated >= budget {
            // A mid-level stop would leave supports under-counted, which is
            // unsound for filtering; discard the partial level entirely.
            stats.truncated = true;
            break;
        }
        stats.candidates += generated;
        let kind_at = |(c, k): (u32, u32)| {
            let chunk = &chunks[c as usize];
            (chunk, &chunk.kinds[k as usize])
        };
        let tokens_of = |ck| {
            let (chunk, kind) = kind_at(ck);
            &chunk.tokens[kind.tokens.clone()]
        };

        // Group kinds by canonical string, in kind order; a class's support
        // is the union of its kinds' graphs.
        let mut classes: Vec<Class> = Vec::new();
        let mut class_of: FxHashMap<&[u32], usize> = FxHashMap::default();
        for (c, chunk) in (0u32..).zip(&chunks) {
            for k in 0..chunk.kinds.len() as u32 {
                let next = classes.len();
                let i = *class_of.entry(tokens_of((c, k))).or_insert(next);
                if i == next {
                    classes.push(Class {
                        kinds: SmallVec::new(),
                        support: Vec::new(),
                    });
                }
                classes[i].kinds.push((c, k));
            }
        }
        drop(class_of);
        pool.for_each_mut(&mut classes, |class| {
            let mut last = None;
            class.support = class
                .kinds
                .iter()
                .flat_map(|&ck| {
                    let (chunk, kind) = kind_at(ck);
                    let occs = &rep(kind.rep).occs;
                    chunk.exts[kind.exts.clone()]
                        .iter()
                        .map(|x| occs[x.occ as usize].gid)
                })
                .filter(|&gid| last.replace(gid) != Some(gid))
                .collect();
            class.support.sort_unstable();
            class.support.dedup();
        });

        // Survivors of the support filter, in canon order, are admitted;
        // the pass below applies the γ test to them and materializes the
        // occurrences that are needed.
        let level_kinds: usize = chunks.iter().map(|c| c.kinds.len()).sum();
        let level_candidates = classes.len() as u64;
        classes.retain(|c| c.support.len() >= next_threshold);
        let level_patterns = classes.len();
        classes.sort_unstable_by(|a, b| tokens_of(a.kinds[0]).cmp(tokens_of(b.kinds[0])));
        let mut admitted: Vec<Admitted> = classes
            .into_iter()
            .map(|class| Admitted {
                pattern: Pattern {
                    canon: CanonString(tokens_of(class.kinds[0]).to_vec()),
                    support: class.support,
                    reps: class
                        .kinds
                        .iter()
                        .map(|&ck| Rep {
                            center: kind_at(ck).1.center,
                            occs: Vec::new(),
                        })
                        .collect(),
                },
                kinds: class.kinds,
                mined: None,
            })
            .collect();
        // Whether the admitted patterns are extended to the next level.
        let grow = size + 1 < sigma.eta && sigma.threshold(size + 2).is_some();

        // In parallel per admitted pattern: the γ test on the first instance
        // of its first kind, then its occurrence lists if they are needed —
        // to grow the next level or for its center columns — each child
        // built from its parent occurrence plus the new edge and leaf.
        for_each_encoding(pool, workers, shard, &mut admitted, |enc, adm| {
            let p = &mut adm.pattern;
            let (chunk, first) = kind_at(adm.kinds[0]);
            let x = &chunk.exts[first.exts.start];
            let parent = &rep(first.rep).occs[x.occ as usize];
            let g = &db[parent.gid as usize];
            let edges = with_edge(&parent.edges, x.edge);
            let keep = gamma_keeps(
                p.support.len(),
                &level_ref[first.rep.0 as usize].support,
                level_ref,
                gamma,
                enc,
                g,
                &edges,
            );
            if !(keep || grow) {
                return;
            }
            for (child, &ck) in p.reps.iter_mut().zip(&adm.kinds) {
                let (chunk, kind) = kind_at(ck);
                let occs = &rep(kind.rep).occs;
                child.occs = chunk.exts[kind.exts.clone()]
                    .iter()
                    .map(|x| {
                        let parent = &occs[x.occ as usize];
                        let mut mapping = parent.mapping.clone();
                        mapping.push(x.leaf);
                        Instance {
                            gid: parent.gid,
                            mapping,
                            edges: with_edge(&parent.edges, x.edge),
                        }
                    })
                    .collect();
            }
            if keep {
                adm.mined = Some(mined_tree(db, p));
            }
        });
        drop(chunks);
        result.extend(admitted.iter_mut().filter_map(|adm| adm.mined.take()));
        let next: Vec<Pattern> = admitted.into_iter().map(|adm| adm.pattern).collect();
        shard.add(&format!("{level_name}.kinds"), level_kinds as u64);
        shard.add(&format!("{level_name}.candidates"), level_candidates);
        shard.add(&format!("{level_name}.patterns"), level_patterns as u64);
        shard.add(
            &format!("{level_name}.pruned_by_support"),
            level_candidates - level_patterns as u64,
        );
        stats.patterns += next.len();
        if next.is_empty() {
            break;
        }
        level = next;
        size += 1;
    }

    shard.add("mine.candidates", stats.candidates as u64);
    shard.add("mine.patterns", stats.patterns as u64);
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::{graph_from, ELabel, VLabel};
    use tree_core::{canonical_string, Tree};

    /// The running-example-style database: simple labeled graphs.
    fn tiny_db() -> Vec<Graph> {
        vec![
            // triangle a-a-b with labels
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]),
            // path a-a-b
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            // star
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 1)]),
        ]
    }

    fn uniform_sigma(eta: usize) -> SigmaFn {
        SigmaFn {
            alpha: eta,
            beta: 1.0,
            eta,
        }
    }

    /// Every frequent tree: γ = 0 keeps them all.
    fn mine_all(db: &[Graph], sigma: &SigmaFn) -> (Vec<MinedTree>, MiningStats) {
        mine_frequent_trees(db, sigma, 0.0)
    }

    #[test]
    fn level1_counts_distinct_edges() {
        let db = tiny_db();
        let (mined, _) = mine_all(&db, &uniform_sigma(1));
        // Distinct single-edge trees: (0,0,0), (0,0,1), (0,1,1)
        assert_eq!(mined.len(), 3);
        for m in &mined {
            assert_eq!(m.size(), 1);
            assert!(!m.support.is_empty());
        }
        // (0-0 with edge 0) appears in all three graphs
        let aa = mined
            .iter()
            .find(|m| {
                let t = m.canon.decode();
                let g = t.graph();
                g.vlabel(VertexId(0)).0 == 0 && g.vlabel(VertexId(1)).0 == 0
            })
            .unwrap();
        assert_eq!(aa.support, vec![0, 1, 2]);
    }

    #[test]
    fn supports_are_exact() {
        let db = tiny_db();
        let (mined, _) = mine_all(&db, &uniform_sigma(3));
        for m in &mined {
            let brute: Vec<u32> = db
                .iter()
                .enumerate()
                .filter(|(_, g)| graph_core::is_subgraph_isomorphic(m.canon.decode().graph(), g))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(m.support, brute, "wrong support for {:?}", m.canon);
        }
    }

    #[test]
    fn mining_is_complete_at_threshold_one() {
        // Every subtree (up to eta edges) of every graph must be mined.
        let db = tiny_db();
        let eta = 3;
        let (mined, _) = mine_all(&db, &uniform_sigma(eta));
        let mined_canons: rustc_hash::FxHashSet<CanonString> =
            mined.iter().map(|m| m.canon.clone()).collect();
        for g in &db {
            let _ = graph_core::for_each_subtree_edge_subset(g, eta, |edges| {
                let sub = graph_core::edge_subgraph(g, edges);
                let t = Tree::from_graph(sub.graph).expect("subtree enumeration yields trees");
                let c = canonical_string(&t);
                assert!(mined_canons.contains(&c), "missing subtree {t:?}");
                std::ops::ControlFlow::Continue(())
            });
        }
    }

    #[test]
    fn threshold_filters_rare_patterns() {
        let db = tiny_db();
        let sigma3 = SigmaFn {
            alpha: 0,
            beta: 2.0,
            eta: 2,
        };
        // σ(1) = 1 + 2*1 - 0 = 3, σ(2) = 5
        assert_eq!(sigma3.threshold(1), Some(3));
        let (mined, _) = mine_all(&db, &sigma3);
        for m in &mined {
            assert!(m.support.len() >= 3);
        }
        // exactly the (0,0,l0) and (0,1,l0) edges appear in all 3 graphs
        assert_eq!(mined.len(), 2);
    }

    #[test]
    fn eta_caps_pattern_size() {
        let db = tiny_db();
        let (mined, _) = mine_all(&db, &uniform_sigma(2));
        assert!(mined.iter().all(|m| m.size() <= 2));
    }

    #[test]
    fn shrinking_removes_redundant_trees() {
        // Database where a 2-edge path's support equals the intersection of
        // its single-edge subtrees' supports → ratio 1 ≤ γ, removed.
        let db = vec![
            graph_from(&[0, 1, 2], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 1, 2], &[(0, 1, 0), (1, 2, 0)]),
        ];
        let (shrunk, stats) = mine_frequent_trees(&db, &uniform_sigma(2), 1.0);
        assert!(shrunk.len() < stats.patterns);
        assert_eq!(mine_all(&db, &uniform_sigma(2)).0.len(), stats.patterns);
        // All single-edge trees stay.
        assert!(shrunk.iter().all(|m| m.size() == 1));
    }

    #[test]
    fn shrinking_keeps_discriminative_trees() {
        // 0-1 and 1-2 edges both appear in g0 and g1, but the path 0-1-2
        // only in g0 → ratio 2/1 = 2 > γ=1.5, kept.
        let db = vec![
            graph_from(&[0, 1, 2], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 1, 2, 1], &[(0, 1, 0), (2, 3, 0)]),
        ];
        let (shrunk, _) = mine_frequent_trees(&db, &uniform_sigma(2), 1.5);
        assert!(
            shrunk.iter().any(|m| m.size() == 2),
            "discriminative 2-edge tree should survive"
        );
    }

    #[test]
    fn leaf_removals_of_path() {
        // The path 1 -0- 2 -1- 3 (edges 1 and 2) inside a host that goes on
        // at both ends and closes a cycle elsewhere.
        let g = graph_from(
            &[0, 1, 2, 3, 0],
            &[(0, 1, 0), (1, 2, 0), (2, 3, 1), (3, 4, 0), (4, 0, 0)],
        );
        let path = [1, 2];
        let mut enc = SubtreeEncoder::default();
        let subs: Vec<(u32, CanonString)> = leaves(&g, &path)
            .into_iter()
            .map(|(leaf, leaf_edge)| {
                let inner = g.edge(EdgeId(leaf_edge)).other(leaf);
                let (tokens, _) = encode_in_host(&mut enc, &g, &path, Some(leaf_edge), inner);
                (leaf_edge, CanonString(tokens.to_vec()))
            })
            .collect();
        assert_eq!(subs.len(), 2);
        // they are the 1-2 and 2-3 edges, distinct
        assert_ne!(subs[0].1, subs[1].1);
        let edge =
            |a, el, b| canonical_string(&Tree::single_edge(VLabel(a), ELabel(el), VLabel(b)));
        assert_eq!(subs, [(1, edge(2, 1, 3)), (2, edge(1, 0, 2))]);
    }

    #[test]
    fn stats_populated() {
        let db = tiny_db();
        let (_, stats) = mine_all(&db, &uniform_sigma(3));
        assert!(stats.patterns > 0);
        assert!(stats.candidates > 0);
        assert!(!stats.truncated);
    }

    #[test]
    fn obs_counters_match_stats() {
        let db = tiny_db();
        let shard = obs::Shard::detached(true);
        let (mined, stats) = mine_frequent_trees_pool_obs(
            &db,
            &uniform_sigma(3),
            0.0,
            &graph_core::par::Pool::new(1),
            &shard,
        );
        let set = shard.into_set();
        assert_eq!(set.counter("mine.patterns"), stats.patterns as u64);
        assert_eq!(set.counter("mine.candidates"), stats.candidates as u64);
        assert_eq!(set.counter("mine.level1.patterns"), 3);
        assert!(set.span("mine.level1").is_some());
        assert!(set.span("mine.level2").is_some());
        // Per-level pattern counts sum to the total.
        let per_level: u64 = (1..=3)
            .map(|s| set.counter(&format!("mine.level{s}.patterns")))
            .sum();
        assert_eq!(per_level, mined.len() as u64);
    }

    /// A guarded run keeps exactly the levels below the first level whose
    /// instance count reaches the budget: it equals a run stopped at η just
    /// below that level, output, [`MiningStats`] and counters, except that it
    /// is marked truncated — on 1, 2 and 8 seats.
    #[test]
    fn level_guard_keeps_the_levels_below_it() {
        use rand::SeedableRng;
        let db = datagen::generate_chem(
            &datagen::ChemParams::sized(30),
            &mut rand_chacha::ChaCha8Rng::seed_from_u64(7),
        );
        let sigma = SigmaFn {
            alpha: 3,
            beta: 2.0,
            eta: 6,
        };
        let run = |eta: usize, seats: usize, budget: usize| {
            let shard = obs::Shard::detached(true);
            let sigma = SigmaFn { eta, ..sigma };
            let (mined, stats) = mine_within(&db, &sigma, 1.5, &Pool::new(seats), &shard, budget);
            let mined: Vec<_> = mined
                .into_iter()
                .map(|m| (m.canon, m.support, m.offsets, m.positions))
                .collect();
            let set = shard.into_set();
            let counters: Vec<(String, u64)> =
                set.counters().map(|(k, v)| (k.to_string(), v)).collect();
            (mined, stats, counters)
        };
        // Runs stopped at η = s; the instances level s generates are the
        // difference of their candidate counts.
        let through: Vec<_> = (1..=sigma.eta).map(|eta| run(eta, 1, usize::MAX)).collect();
        let instances: Vec<usize> = (2..=sigma.eta)
            .map(|s| through[s - 1].1.candidates - through[s - 2].1.candidates)
            .collect();
        assert!(instances.iter().all(|&n| n > 0), "every level is reached");
        let mut budgets: Vec<usize> = instances.iter().flat_map(|&n| [n, n + 1]).collect();
        budgets.push(usize::MAX);
        for budget in budgets {
            let cut = (2..=sigma.eta).find(|&s| instances[s - 2] >= budget);
            let (mined, mut stats, counters) =
                through[cut.map_or(sigma.eta, |s| s - 1) - 1].clone();
            stats.truncated = cut.is_some();
            for seats in [1, 2, 8] {
                let got = run(sigma.eta, seats, budget);
                assert_eq!(got.1, stats, "budget {budget}, {seats} seats");
                assert!(got.0 == mined, "budget {budget}, {seats} seats");
                assert_eq!(got.2, counters, "budget {budget}, {seats} seats");
            }
        }
    }
}
