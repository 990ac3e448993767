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
//! 2. level s+1 = every occurrence of a growing level-s tree extended by
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
//! leaf-removal subtrees, which are frequent trees of the level below —
//! the level the miner holds when it admits the tree. So the γ test runs
//! there, encoding each leaf removal from the same host occurrence, and only
//! a tree that passes it leaves the miner, as a [`MinedTree`] carrying its
//! center positions per supporting graph — the index's posting list
//! (§4.2.1), ready to store.
//!
//! The same test bounds the growth. Let d be a tree of t edges that
//! contains a tree p of s < t edges. A leaf of d lies outside p, so one
//! leaf-removal subtree of d contains p, and the intersection the test
//! reads lies within D_p; and |D_d| ≥ σ(t) ≥ σ(s+1). So if
//! |D_p| / σ(s+1) ≤ γ, then |⋂ D_dᵢ| / |D_d| ≤ γ and d is not kept — both
//! as the same `f64` division, which is correctly rounded and so monotone.
//! A level-s pattern grows into level s+1 only if it passes this bound, and
//! only a growing pattern's occurrences are held. Every proper subtree of a
//! kept tree passes the bound by the same inequality, so a kept tree, its
//! leaf removals and all their occurrences are generated and its support,
//! test and columns are exact. A tree d that loses occurrences contains a
//! pattern that was not extended: the first on a lost occurrence's chain of
//! canonical parents. If that one lost occurrences too, repeat with it; the
//! descent ends at a pattern p, not extended, whose support is exact. Then
//! either p is infrequent, and so is d, or p fails the bound, and so does
//! d's test on the supports counted, which lie within the true ones. The
//! test answers "not kept" for a tree with a leaf removal the level below
//! does not hold.
//!
//! This is deliberately complete: with σ(s) = 1 for s ≤ α (the paper's
//! completeness requirement) *every* distinct subtree up to α edges is
//! found, and γ = 0 — under which the bound never fails — keeps them all.
//! Nothing inside the miner cuts the kept set — the paper bounds it by the
//! choice of σ — and the one guard, a per-level instance budget, discards a
//! whole level and says so in [`MiningStats::truncated`].

use crate::support::{intersect_many, SigmaFn, SupportSet};
use graph_core::par::Pool;
use graph_core::{EdgeId, Graph, VertexId};
use obs::{Counter, MineLevel, Span};
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
/// occurrence of a kept tree (see [`mine_frequent_trees_pool_obs`]), and
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
    /// Frequent patterns mined, summed over levels: the trees σ admits
    /// among those grown from patterns that pass the growth bound (see
    /// [`mine_frequent_trees_pool_obs`]) — every frequent tree at γ = 0, at
    /// most that many at any γ.
    pub patterns: usize,
    /// Candidates generated (before support counting).
    pub candidates: usize,
    /// Whether a level reached the per-level guard and was discarded, so
    /// mining stopped early.
    pub truncated: bool,
}

/// The center of a representative as its pattern vertices: one, or the
/// two ends of the center edge (smaller first).
type CenterVertices = (u32, Option<u32>);

/// A representative numbering of a pattern's vertices, with its center and
/// its instances. Several representatives (different numberings) can share
/// one pattern.
struct Rep {
    center: CenterVertices,
    /// The instance records, sorted by graph, each `2s + 2` words for a
    /// pattern of `s` edges: the graph, the host vertices of pattern
    /// vertices `0..=s`, then the sorted host edge ids (see [`parts`]).
    occs: Vec<u32>,
}

/// A pattern of one level: its canonical string and support (what the next
/// level's γ test reads) and its representatives.
struct Pattern {
    canon: CanonString,
    support: SupportSet,
    reps: Vec<Rep>,
}

/// An instance record's graph, mapping (pattern vertex -> host vertex) and
/// sorted host edge ids.
fn parts(rec: &[u32]) -> (u32, &[u32], &[u32]) {
    let s = rec.len() / 2 - 1;
    (rec[0], &rec[1..s + 2], &rec[s + 2..])
}

/// Instance `i` of records `stride` words long.
fn record(occs: &[u32], stride: usize, i: u32) -> &[u32] {
    &occs[i as usize * stride..][..stride]
}

/// Append to `out` the record of `parent` extended by the host `edge` to a
/// new `leaf`, which becomes the next pattern vertex.
fn push_child(out: &mut impl Extend<u32>, parent: &[u32], leaf: u32, edge: u32) {
    let (gid, mapping, edges) = parts(parent);
    let at = edges.partition_point(|&e| e < edge);
    out.extend([gid]);
    out.extend(mapping.iter().copied());
    out.extend([leaf]);
    out.extend(edges[..at].iter().copied());
    out.extend([edge]);
    out.extend(edges[at..].iter().copied());
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

/// A kept pattern as the miner hands it over, with its center columns (see
/// [`MinedTree`]) read off the instances of all its representatives, which
/// are sorted by graph: one walk down the support, gathering each graph's
/// run from every representative. Representatives number their vertices
/// differently, so each carries its own center; an edge center lands on the
/// host edge between the images of its two ends; many instances share a
/// center, so a graph's ids are de-duplicated.
fn mined_tree(db: &[Graph], p: &Pattern) -> MinedTree {
    let stride = 2 * p.canon.edge_count() + 2;
    let mut reps: SmallVec<[(CenterVertices, &[u32]); 2]> = p
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
            let run = occs
                .chunks_exact(stride)
                .take_while(|o| o[0] == gid)
                .count();
            let (here, rest) = occs.split_at(run * stride);
            ids.extend(here.chunks_exact(stride).map(|o| {
                let (_, mapping, _) = parts(o);
                match *v {
                    None => mapping[*u as usize],
                    Some(v) => {
                        let (hu, hv) = (mapping[*u as usize], mapping[v as usize]);
                        g.edge_between(VertexId(hu), VertexId(hv))
                            .expect("an instance maps tree edges onto host edges")
                            .0
                    }
                }
            }));
            *occs = rest;
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

/// The shrinking step's test (paper §4.1.2) for a tree `r` of two edges or
/// more with `support` graphs: keep `r` iff `|⋂ᵢ D_rᵢ| / |D_r| > γ` over
/// its leaf-removal (maximal proper) subtrees `rᵢ`, which `below`, the
/// growing patterns of the level under `r` in canonical order, must all
/// hold — if one is missing, `r` is not kept (see the module doc). The ratio
/// is at least 1. `parent` is the support of one `rᵢ`, the pattern `r` was
/// grown from: the intersection lies within it, which often settles the
/// test before any subtree is encoded. Otherwise each `rᵢ` is encoded from
/// `r`'s instance `edges` in `g`, leaving one leaf edge out.
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
    let mut sets: SmallVec<[&[u32]; 10]> = SmallVec::new();
    for (leaf, leaf_edge) in leaves(g, edges) {
        let inner = g.edge(EdgeId(leaf_edge)).other(leaf);
        let (tokens, _) = encode_in_host(enc, g, edges, Some(leaf_edge), inner);
        match below.binary_search_by(|p| p.canon.tokens().cmp(tokens)) {
            Ok(i) => sets.push(below[i].support.as_slice()),
            Err(_) => return false,
        }
    }
    ratio(intersect_many(&sets, usize::MAX).len()) > gamma
}

/// Run `f` on every item of `items` with one [`SubtreeEncoder`] per seat:
/// up to `workers` seats of `pool` take chunks of `items` off a shared
/// cursor, so each encoder's buffers grow once and are reused for every item
/// the seat takes. Every parallel pass of a level runs through it: the
/// extension pass, the class-support union (which needs no encoder) and the
/// admission pass.
fn for_each_encoding<T: Send>(
    pool: &Pool,
    workers: usize,
    items: &mut [T],
    f: impl Fn(&mut SubtreeEncoder, &mut T) + Sync,
) {
    let chunk = items.len().div_ceil(workers * 8).max(1);
    let chunks: Vec<Mutex<&mut [T]>> = items.chunks_mut(chunk).map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    pool.run(workers.min(chunks.len()), |_seat| {
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
/// Level s holds every frequent s-edge tree that passes the growth bound
/// `|D_p| / σ(s+1) > γ` (see the module doc) together with **all** of its
/// occurrence instances: `(graph, mapping)` pairs where the mapping embeds
/// a fixed *representative* numbering of the pattern's vertices, stored
/// flat, one record of `2s + 2` words per instance (graph, mapping, sorted
/// edge ids), in the style of Gaston's embedding lists (Nijssen & Kok
/// 2004). Level s+1 extends each instance by one adjacent acyclic host
/// edge, but only from the instance's *canonical parent*: the edge must be
/// larger than every other leaf edge of the child, so each (s+1)-edge
/// instance is generated exactly once, from the s-edge instance its largest
/// leaf edge leaves, and no instance needs deduplicating. The extension's
/// identity is just `(attach pattern vertex, edge label, leaf label)`, so
/// every instance of one (representative, extension kind) is an occurrence
/// of the same numbered child pattern. Its canonical string and center are
/// therefore computed **once per kind**, by encoding one of its instances in
/// the host graph ([`SubtreeEncoder::encode`] over the instance's edge set),
/// and shared by every instance — canonicalization cost scales with the
/// number of kinds, not the (much larger) number of instances, and no tree
/// is built. Supports fall out of the instance lists, so no embedding tests
/// are ever run. Instances of *infrequent* patterns are dropped and never
/// extended — with the σ(s) thresholds growing past α this prunes the
/// (combinatorially dominant) large-and-rare subtrees that plain
/// enumeration would still visit — and so are those of patterns that fail
/// the growth bound, which have no kept descendant.
///
/// Shrinking (§4.1.2) happens as a frequent (s+1)-tree is admitted: its
/// support and its leaf-removal subtrees' supports, read from level s, decide
/// whether it is kept (see `gamma_keeps`; single edges always are). Each
/// leaf removal is encoded from one instance of the tree by leaving one leaf
/// edge out, and found in level s by its tokens. A tree's instance records
/// are appended, each from its parent's record and the extension's leaf and
/// edge, only if it is kept or will grow; only a kept tree gets center
/// columns and leaves as a [`MinedTree`], and a kept tree that will not grow
/// frees its records right after. `gamma = 0.0` keeps and grows every
/// frequent tree.
///
/// Exactness: removing the largest leaf edge of an instance of a frequent
/// (s+1)-tree leaves an instance of a frequent s-tree (σ is non-decreasing);
/// if the (s+1)-tree is kept or grows, that s-tree passes the growth bound,
/// so it is present at level s with all its instances. So every instance of
/// a kept tree is generated, once, and its support is complete. Any other
/// tree may be reached through fewer instances, or not at all, but never
/// more than exist, and is never kept (see the module doc). So are the
/// center columns every [`MinedTree`] carries complete: an embedding's image
/// is one of the pattern's instances, every isomorphism onto an instance
/// maps the pattern's center (unique by Theorem 1) onto the instance's, and
/// the columns are read off *all* instances of all representatives — the
/// same positions an exhaustive `tree_core::center_positions` search finds,
/// without the search.
///
/// Metrics on `shard`: a `mine.level{s}` span per level plus
/// `mine.level{s}.kinds` / `.candidates` / `.patterns` /
/// `.pruned_by_support` / `.kept` / `.grown` counters (extension kinds
/// encoded, which at level 1 are the distinct labeled edges; the distinct
/// candidate patterns they form, which past level 1 are those reached
/// through canonical parents; survivors of the σ(s) filter and the
/// difference; the survivors the γ test kept; and those that passed the
/// growth bound and were extended into a level that was not discarded), and
/// the run totals `mine.candidates` (instances generated) and
/// `mine.patterns` (frequent patterns mined among those grown from
/// bound-passing parents, as in [`MiningStats::patterns`]).
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
///   are materialized only for patterns that are kept or grow, in
///   parent-occurrence order, which is graph order.
///
/// The one guard is deterministic too: a level is discarded whole when the
/// *total* count of instances it generates reaches `MAX_INSTANCES_PER_LEVEL`
/// (seats stop early once the shared count has reached it, purely as an
/// optimization, and a discarded level contributes nothing to counters, nor
/// to the `.grown` of the level below it), so a guarded run keeps exactly
/// the levels below it.
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
    assert!(sigma.is_monotone(), "σ(s) must be non-decreasing");
    let mut stats = MiningStats::default();

    /// One extension of a parent occurrence by the host `edge` to a new
    /// `leaf` vertex, attached at pattern vertex `attach`. The child's
    /// record is the parent's plus `leaf` and `edge`, built only for
    /// patterns that are kept or grow. Ordered so that a representative's
    /// extension kinds are runs, in parent-occurrence order.
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
    /// order), whether it grows and, once the γ test keeps it, its
    /// [`MinedTree`].
    struct Admitted {
        pattern: Pattern,
        kinds: SmallVec<[(u32, u32); 2]>,
        grows: bool,
        mined: Option<MinedTree>,
    }

    // The growth bound: whether a level-`s` pattern with `support` graphs
    // can have a kept descendant within η edges, as the same division the
    // γ test makes.
    let grows = |support: usize, s: usize| {
        s < sigma.eta
            && sigma
                .threshold(s + 1)
                .is_some_and(|t| support as f64 / t as f64 > gamma)
    };
    let workers = pool.parallelism().max(1);

    // ---- Level 1: single-edge patterns, one instance per host edge. ----
    // One scan in (gid, edge) order: instances and supports come out sorted.
    let level1_span = shard.span(Span::mine_level(1));
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
                let (a, b) = if lu <= lv {
                    (edge.u, edge.v)
                } else {
                    (edge.v, edge.u)
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
                p.reps[0].occs.extend_from_slice(&[gid, a.0, b.0, e.0]);
            }
        }
    }
    // The frequent ones, in canon order.
    level.sort_unstable_by(|a, b| a.canon.cmp(&b.canon));
    let level1_candidates = level.len() as u64;
    let t1 = sigma.threshold(1).expect("σ(1) must be finite") as usize;
    level.retain(|p| p.support.len() >= t1);
    shard.add(MineLevel::Kinds.at(1), level1_candidates);
    shard.add(MineLevel::Candidates.at(1), level1_candidates);
    shard.add(MineLevel::Patterns.at(1), level.len() as u64);
    shard.add(
        MineLevel::PrunedBySupport.at(1),
        level1_candidates - level.len() as u64,
    );
    shard.add(MineLevel::Kept.at(1), level.len() as u64);
    // Frequent patterns mined so far, and the kept ones: every single edge.
    stats.patterns = level.len();
    let mut result: Vec<MinedTree> = level.iter().map(|p| mined_tree(db, p)).collect();
    level.retain(|p| grows(p.support.len(), 1));
    drop(level1_span);

    // `level` holds the growing patterns of `size` edges.
    let mut size = 1usize;
    while !level.is_empty() {
        let next_threshold = sigma
            .threshold(size + 1)
            .expect("a pattern grows only into an indexed size")
            as usize;
        let stride = 2 * size + 2;
        let _level_span = shard.span(Span::mine_level(size + 1));
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
        let instances: usize = pairs.iter().map(|&pr| rep(pr).occs.len() / stride).sum();
        let target = instances.div_ceil(workers * 16).max(1);
        let mut chunks: Vec<Chunk> = Vec::new();
        let (mut start, mut filled) = (0, 0);
        for (i, &pr) in pairs.iter().enumerate() {
            filled += rep(pr).occs.len() / stride;
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
        for_each_encoding(pool, workers, &mut chunks, |enc, chunk| {
            let Chunk {
                reps,
                exts,
                kinds,
                tokens,
            } = chunk;
            let mut child = Vec::with_capacity(stride + 2);
            for &pr in &pairs[reps.clone()] {
                if generated.load(Ordering::Relaxed) >= budget {
                    return; // the level is doomed
                }
                let occs = &rep(pr).occs;
                let first = exts.len();
                for (occ, o) in (0u32..).zip(occs.chunks_exact(stride)) {
                    let (gid, mapping, edges) = parts(o);
                    let g = &db[gid as usize];
                    let leaves = leaves(g, edges);
                    for (attach, &hv) in (0u32..).zip(mapping) {
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
                            if he.0 > bar && !mapping.contains(&w.0) {
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
                    child.clear();
                    push_child(&mut child, record(occs, stride, x.occ), x.leaf, x.edge);
                    let (gid, mapping, edges) = parts(&child);
                    let g = &db[gid as usize];
                    let (code, center) = encode_in_host(enc, g, edges, None, VertexId(x.leaf));
                    let vertex_of = |h: VertexId| {
                        mapping
                            .iter()
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
                        tokens: tokens.len()..tokens.len() + code.len(),
                        center,
                    });
                    tokens.extend_from_slice(code);
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
        for_each_encoding(pool, workers, &mut classes, |_, class| {
            let mut last = None;
            class.support = class
                .kinds
                .iter()
                .flat_map(|&ck| {
                    let (chunk, kind) = kind_at(ck);
                    let occs = &rep(kind.rep).occs;
                    chunk.exts[kind.exts.clone()]
                        .iter()
                        .map(|x| occs[x.occ as usize * stride])
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
                grows: grows(class.support.len(), size + 1),
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

        // In parallel per admitted pattern: the γ test on the first instance
        // of its first kind, then its occurrence records if they are needed
        // — to grow the next level or for its center columns — each child
        // appended from its parent record plus the new leaf and edge.
        for_each_encoding(pool, workers, &mut admitted, |enc, adm| {
            let p = &mut adm.pattern;
            let (chunk, first) = kind_at(adm.kinds[0]);
            let x = &chunk.exts[first.exts.start];
            let mut instance: SmallVec<[u32; 24]> = SmallVec::new();
            let parent = record(&rep(first.rep).occs, stride, x.occ);
            push_child(&mut instance, parent, x.leaf, x.edge);
            let (gid, _, edges) = parts(&instance);
            let keep = gamma_keeps(
                p.support.len(),
                &level_ref[first.rep.0 as usize].support,
                level_ref,
                gamma,
                enc,
                &db[gid as usize],
                edges,
            );
            if !(keep || adm.grows) {
                return;
            }
            for (child, &ck) in p.reps.iter_mut().zip(&adm.kinds) {
                let (chunk, kind) = kind_at(ck);
                let occs = &rep(kind.rep).occs;
                let exts = &chunk.exts[kind.exts.clone()];
                child.occs.reserve_exact(exts.len() * (stride + 2));
                for x in exts {
                    push_child(&mut child.occs, record(occs, stride, x.occ), x.leaf, x.edge);
                }
            }
            if keep {
                adm.mined = Some(mined_tree(db, p));
                if !adm.grows {
                    p.reps = Vec::new();
                }
            }
        });
        drop(chunks);
        let before = result.len();
        result.extend(admitted.iter_mut().filter_map(|adm| adm.mined.take()));
        let level_kept = result.len() - before;
        let next: Vec<Pattern> = admitted
            .into_iter()
            .filter(|adm| adm.grows)
            .map(|adm| adm.pattern)
            .collect();
        shard.add(MineLevel::Grown.at(size), level.len() as u64);
        shard.add(MineLevel::Kinds.at(size + 1), level_kinds as u64);
        shard.add(MineLevel::Candidates.at(size + 1), level_candidates);
        shard.add(MineLevel::Patterns.at(size + 1), level_patterns as u64);
        shard.add(
            MineLevel::PrunedBySupport.at(size + 1),
            level_candidates - level_patterns as u64,
        );
        shard.add(MineLevel::Kept.at(size + 1), level_kept as u64);
        stats.patterns += level_patterns;
        level = next;
        size += 1;
    }
    // The last level kept was not extended, or its extension was discarded.
    shard.add(MineLevel::Grown.at(size), 0);

    shard.add(Counter::MINE_CANDIDATES, stats.candidates as u64);
    shard.add(Counter::MINE_PATTERNS, stats.patterns as u64);
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

    /// A tree with a leaf-removal subtree the level below does not hold is
    /// not kept: the growth bound left that subtree, or one of its own
    /// subtrees, unextended, so no kept tree can contain it.
    #[test]
    fn gamma_test_answers_not_kept_for_a_missing_subtree() {
        // The path 0 -0- 1 -0- 2 of graph 0; its first edge also lies in
        // graph 1, its second in graph 2.
        let g = graph_from(&[0, 1, 2], &[(0, 1, 0), (1, 2, 0)]);
        let keeps = |held: &[u32]| {
            let mut enc = SubtreeEncoder::default();
            let mut below: Vec<Pattern> = held
                .iter()
                .map(|&e| Pattern {
                    canon: CanonString(
                        encode_in_host(&mut enc, &g, &[e], None, VertexId(1))
                            .0
                            .to_vec(),
                    ),
                    support: vec![0, 1 + e],
                    reps: Vec::new(),
                })
                .collect();
            below.sort_unstable_by(|a, b| a.canon.cmp(&b.canon));
            gamma_keeps(1, &[0, 1], &below, 0.5, &mut enc, &g, &[0, 1])
        };
        assert!(keeps(&[0, 1]), "both subtrees held: ratio 1 > 0.5");
        assert!(!keeps(&[0]), "the second edge missing");
        assert!(!keeps(&[1]), "the first edge missing");
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
            .map(|s| set.counter(MineLevel::Patterns.at(s).name()))
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
            let counters: Vec<(Counter, u64)> = set.counters().collect();
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
