//! Index construction and maintenance (paper §4 "Database Preprocessing"
//! and §7.1 "Insert/Delete Maintenance").
//!
//! Construction mines the σ-frequent subtrees, shrinking them by γ as they
//! are found, and for every kept feature stores the **posting list** the
//! miner hands over:
//! its support set and, rank-aligned to it, its **center positions** in
//! every supporting graph — the location information that prior indexes had
//! to discard and that powers TreePi's pruning and verification.
//!
//! The posting layout (see [`Feature`]) is owned by this module: everything
//! else reads it through [`Feature::support`] and
//! [`TreePiIndex::center_positions_of`], and [`crate::persist`] moves the
//! columns in and out verbatim through [`Feature::columns`] /
//! [`Feature::from_columns`].
//!
//! Features are found by canonical string. The paper keeps a prefix tree
//! for that (§4.2.2); the only question ever asked here is exact match, so
//! the directory is an open-addressed hash table of feature ids, keyed by a
//! fixed hash of the strings the features already own
//! ([`TreePiIndex::feature_by_canon`]): one probe finds the slot, one token
//! compare confirms the hit, and no key is stored a second time.
//!
//! Beside the directory sits a Bloom filter of **shapes** ([`crate::shape`]):
//! the shape invariant of every stored feature, and of every proper subtree
//! of one (the features' downward closure). It is what lets [`crate::walk`]
//! look for features in a graph without enumerating the graph's subtrees,
//! and without encoding the subsets it passes through that are no feature
//! (see [`TreePiIndex::may_grow`] and [`TreePiIndex::may_be_feature`]).

use crate::params::TreePiParams;
use crate::shape::{shape_of, tree_shape, ShapeFilter, Tag};
use crate::sig::{self, VertexSig};
use graph_core::par::Pool;
use graph_core::{EdgeId, Graph, VertexId};
use mining::SupportSet;
use obs::{Counter, Gauge, Span};
use rustc_hash::FxHashSet;
use tree_core::{CanonString, CenterPos, SubtreeEncoder, Tree};

/// Identifier of a feature tree inside a [`TreePiIndex`]: its position in
/// [`TreePiIndex::features`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FeatureId(pub u32);

impl FeatureId {
    /// The id as a usize, for indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One indexed feature tree and its posting list (paper §4.2.1).
///
/// The support set *is* the key set of the center-location table, so the
/// two are one structure: `support` holds the sorted graph ids and the
/// private columns hold, for the graph at rank `r` of `support`, the
/// positions `positions[offsets[r - 1]..offsets[r]]` (from 0 for `r = 0`)
/// where an embedding of the tree is centered — vertex ids when the center
/// is a vertex, edge ids when it is an edge. Every supporting graph has at
/// least one position, so the offsets are strictly increasing.
#[derive(Clone, Debug)]
pub struct Feature {
    /// The tree, as its canonical string (the directory key). It names the
    /// kind of center and the size; [`Self::tree`] decodes it.
    pub canon: CanonString,
    /// Sorted ids of database graphs containing the tree.
    pub support: SupportSet,
    /// End offset into `positions` per rank of `support`.
    offsets: Vec<u32>,
    /// Center position ids of all supporting graphs, in rank order.
    positions: Vec<u32>,
}

impl Feature {
    /// A feature with an empty posting list.
    fn new(canon: CanonString) -> Self {
        Self {
            canon,
            support: Vec::new(),
            offsets: Vec::new(),
            positions: Vec::new(),
        }
    }

    /// A mined tree as a feature: the miner's posting list is the feature's.
    fn from_mined(m: mining::MinedTree) -> Self {
        let mut f = Self::new(m.canon);
        (f.support, f.offsets, f.positions) = (m.support, m.offsets, m.positions);
        f
    }

    /// Edge size of the feature.
    pub fn size(&self) -> usize {
        self.canon.edge_count()
    }

    /// The feature tree, decoded from its canonical string: its vertices in
    /// canonical order, not the miner's.
    pub fn tree(&self) -> Tree {
        self.canon.decode()
    }

    /// Center position ids of the graph at `rank` of `support`.
    fn positions_at(&self, rank: usize) -> &[u32] {
        let start = rank.checked_sub(1).map_or(0, |r| self.offsets[r]);
        &self.positions[start as usize..self.offsets[rank] as usize]
    }

    /// Append graph `gid` — larger than every id already listed — with its
    /// (non-empty, ascending) center positions: vertex or edge ids of the
    /// graph according to this feature's kind of center.
    fn push_graph(&mut self, gid: u32, pos: impl Iterator<Item = u32>) {
        debug_assert!(self.support.last().is_none_or(|&g| g < gid));
        let before = self.positions.len();
        self.support.push(gid);
        self.positions.extend(pos);
        debug_assert!(self.positions[before..].windows(2).all(|w| w[0] < w[1]));
        debug_assert!(self.positions.len() > before);
        let end = u32::try_from(self.positions.len()).expect("under 2^32 positions per feature");
        self.offsets.push(end);
    }

    /// Drop graph `gid` from the posting list, if listed.
    fn remove_graph(&mut self, gid: u32) {
        let Ok(r) = self.support.binary_search(&gid) else {
            return;
        };
        let n = self.positions_at(r).len();
        let end = self.offsets.remove(r) as usize;
        self.positions.drain(end - n..end);
        for o in &mut self.offsets[r..] {
            *o -= n as u32;
        }
        self.support.remove(r);
    }

    /// The position columns `(offsets, position ids)` behind `support`, for
    /// the writer. Ids are vertex or edge ids according to the tree's center.
    pub(crate) fn columns(&self) -> (&[u32], &[u32]) {
        (&self.offsets, &self.positions)
    }

    /// Rebuild a feature from stored columns over `db`, checking everything
    /// a query relies on: [`Self::postings_consistent`], and every position
    /// id inside its graph.
    pub(crate) fn from_columns(
        canon: CanonString,
        support: SupportSet,
        offsets: Vec<u32>,
        positions: Vec<u32>,
        db: &[Graph],
    ) -> Result<Self, &'static str> {
        let mut f = Self::new(canon);
        (f.support, f.offsets, f.positions) = (support, offsets, positions);
        if !f.postings_consistent(db.len()) {
            return Err("posting list columns are inconsistent");
        }
        let in_graph = |(r, &gid)| {
            let g: &Graph = &db[gid as usize];
            let n = if f.canon.is_bicentral() {
                g.edge_count()
            } else {
                g.vertex_count()
            };
            f.positions_at(r).iter().all(|&id| (id as usize) < n)
        };
        if !f.support.iter().enumerate().all(in_graph) {
            return Err("center position outside its graph");
        }
        Ok(f)
    }

    /// Supports strictly increasing and below `n_db`; offsets strictly
    /// increasing, one per supporting graph, the last covering `positions`.
    fn postings_consistent(&self, n_db: usize) -> bool {
        let mut end = 0u32;
        self.support.windows(2).all(|w| w[0] < w[1])
            && self.support.last().is_none_or(|&g| (g as usize) < n_db)
            && self.offsets.len() == self.support.len()
            && self
                .offsets
                .iter()
                .all(|&o| std::mem::replace(&mut end, o) < o)
            && end as usize == self.positions.len()
    }
}

/// Shape of an index: what was mined, and what the posting lists hold now.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Frequent trees the miner counted before shrinking: those σ admits
    /// among the trees grown from patterns that pass the γ growth bound
    /// ([`mining::MiningStats::patterns`]) — all of them at γ = 0, at most
    /// all of them otherwise.
    pub mined: usize,
    /// Features after shrinking (= index size, the paper's Figure 9 metric).
    pub features: usize,
    /// Total (feature, graph) center-position lists stored.
    pub center_entries: usize,
    /// Total stored center positions.
    pub center_positions: usize,
    /// Whether the miner's per-level guard discarded a level (see
    /// [`mining::MiningStats::truncated`]).
    pub truncated: bool,
}

/// The TreePi index over a graph database.
///
/// Graph ids are stable across insertions and deletions; a deleted slot
/// stays as an inactive, blank tombstone — an empty graph with no
/// signatures — so queries never return it (supports are updated on
/// delete) and it holds no memory. Every index keeps "inactive ⇒ blank":
/// [`Self::remove`] and [`Self::load`] write the blank, and
/// [`Self::remine_with_pool`] keeps it.
///
/// The serving layer publishes it behind an `Arc` (see [`crate::Engine`]):
/// readers pin a version, and §7.1 maintenance mutates the published
/// version in place when no reader holds it, or a clone of it when one
/// does — the index is `Clone` for that case.
///
/// Primary facts — what [`Self::save`] writes — are `params`, `db`,
/// `active`, each feature's tree and posting list, `mined`/`truncated` and
/// the epoch. The directory, the shape filter, `sigs` and the
/// [`Self::stats`] counters are functions of those and are recomputed when
/// a file is loaded. A feature's tree is kept as its canonical string, and
/// written decoded.
#[derive(Clone)]
pub struct TreePiIndex {
    db: Vec<Graph>,
    active: Vec<bool>,
    features: Vec<Feature>,
    /// The directory: every feature id once, hashed by `features[id].canon`.
    directory: Directory,
    /// The shapes of the stored features, tagged [`Tag::Feature`], and of
    /// every proper subtree (one edge or more) of one, tagged [`Tag::Grow`]:
    /// what [`Self::may_be_feature`] and [`Self::may_grow`] ask. A function
    /// of the features — §7.1 maintenance only ever adds single-edge
    /// features, which have no proper subtree, and sets their feature bits.
    /// If the proper subtrees were too many to derive ([`MAX_CLOSURE`]) the
    /// filter holds everything: the walk then encodes every subset and grows
    /// everything, the way an exhaustive enumeration would.
    shapes: ShapeFilter,
    /// sigs[graph id] = per-vertex neighborhood signatures (see
    /// [`crate::sig`]). Invariant: always equal to
    /// [`sig::graph_sigs`] of the stored payload — a pure function of
    /// `db[gid]`, maintained through build, §7.1 repairs, and re-mining.
    sigs: Vec<Vec<VertexSig>>,
    params: TreePiParams,
    /// Frequent trees mined before shrinking ([`BuildStats::mined`]), and
    /// whether the miner's per-level guard cut mining short (the two build
    /// facts [`Self::stats`] cannot recount).
    pub(crate) mined: usize,
    pub(crate) truncated: bool,
    /// Bumped by every successful [`Self::insert`] / [`Self::remove`]
    /// (§7.1 maintenance). Epoch-keyed caches of query answers compare
    /// this to decide whether their entries are still valid.
    pub(crate) maintenance_epoch: u64,
}

impl TreePiIndex {
    /// Build the index over `db` (paper §4: mine and shrink, with supports
    /// and center positions → assemble) on all available cores, metrics
    /// disabled.
    pub fn build(db: Vec<Graph>, params: TreePiParams) -> Self {
        Self::build_with_threads_obs(db, params, 0, &obs::Shard::disabled())
    }

    /// [`Self::build_with_pool_obs`] on a pool created for this one build:
    /// `threads` workers (`0` = available parallelism, `1` = fully
    /// sequential) shared by every stage.
    pub fn build_with_threads_obs(
        db: Vec<Graph>,
        params: TreePiParams,
        threads: usize,
        shard: &obs::Shard,
    ) -> Self {
        let pool = Pool::new(threads);
        Self::build_with_pool_obs(db, params, &pool, shard)
    }

    /// The general build, on a caller-owned worker pool: every stage
    /// (mining levels with their canonical-string passes and γ tests,
    /// signatures) dispatches onto `pool`, so one set of worker threads is
    /// reused across the whole build instead of re-spawning per stage.
    /// Shrinking and posting lists are not stages: the miner applies the γ
    /// test as it admits each frequent tree, and each kept tree's support
    /// set and center columns arrive from it and are moved into its
    /// [`Feature`].
    ///
    /// `shard` receives `build.mine` / `build.sigs` stage spans, the
    /// miner's per-level candidate and pruned-by-support counters
    /// (`mine.level{N}.*`, see [`mining::mine_frequent_trees_pool_obs`]),
    /// and final index-shape counters (`build.*`, with `build.mined` the
    /// frequent trees mined as in [`BuildStats::mined`] and `build.truncated`
    /// 1 if the miner's per-level guard cut the run short). Parallel
    /// passes record nothing themselves, and the miner's merge is
    /// canonical, so the built index and every counter are identical for
    /// any pool size.
    pub fn build_with_pool_obs(
        db: Vec<Graph>,
        params: TreePiParams,
        pool: &Pool,
        shard: &obs::Shard,
    ) -> Self {
        let mine_span = shard.span(Span::BUILD_MINE);
        let (kept, mstats) =
            mining::mine_frequent_trees_pool_obs(&db, &params.sigma, params.gamma, pool, shard);
        drop(mine_span);
        shard.add(Counter::BUILD_MINED, mstats.patterns as u64);
        shard.add(Counter::BUILD_FEATURES_KEPT, kept.len() as u64);
        shard.add(Counter::BUILD_TRUNCATED, mstats.truncated as u64);

        // A buffer of their own, sized exactly: `collect` would reuse the
        // miner's, whose capacity may exceed its length.
        let mut features = Vec::with_capacity(kept.len());
        features.extend(kept.into_iter().map(Feature::from_mined));
        // Per-vertex neighborhood signatures (see `crate::sig`): a pure
        // function of each graph, placed back in gid order, so the result
        // is identical at any pool size.
        let sigs_span = shard.span(Span::BUILD_SIGS);
        let sigs = pool.ordered_map(&db, sig::graph_sigs);
        drop(sigs_span);
        shard.add(
            Counter::BUILD_SIG_VERTICES,
            sigs.iter().map(|s| s.len() as u64).sum(),
        );

        let active = vec![true; db.len()];
        let mut idx = Self::assemble(params, db, active, features, sigs)
            .expect("mined canonical strings are distinct");
        debug_assert!(
            idx.postings_consistent(),
            "the miner's columns are posting lists"
        );
        (idx.mined, idx.truncated) = (mstats.patterns, mstats.truncated);
        let stats = idx.stats();
        shard.add(Counter::BUILD_FEATURES, stats.features as u64);
        shard.add(Counter::BUILD_CENTER_ENTRIES, stats.center_entries as u64);
        shard.add(
            Counter::BUILD_CENTER_POSITIONS,
            stats.center_positions as u64,
        );
        release_freed_heap();
        idx
    }

    /// Put an index together from its parts, deriving the directory and
    /// the shape filter from the features; `sigs` must be
    /// [`sig::graph_sigs`] of each `db` entry. Fails if two features share a
    /// canonical string. The mining facts and the epoch start at zero for
    /// the caller to set.
    pub(crate) fn assemble(
        params: TreePiParams,
        db: Vec<Graph>,
        active: Vec<bool>,
        features: Vec<Feature>,
        sigs: Vec<Vec<VertexSig>>,
    ) -> Result<Self, &'static str> {
        let directory = Directory::of(&features)?;
        let shapes = shape_filter(&features, MAX_CLOSURE);
        Ok(Self {
            db,
            active,
            features,
            directory,
            shapes,
            sigs,
            params,
            mined: 0,
            truncated: false,
            maintenance_epoch: 0,
        })
    }

    /// The database, including the blank slots of removed graphs (see
    /// [`Self::is_active`]).
    pub fn db(&self) -> &[Graph] {
        &self.db
    }

    /// Whether graph `gid` is still in the database.
    pub fn is_active(&self, gid: u32) -> bool {
        self.active.get(gid as usize).copied().unwrap_or(false)
    }

    /// Number of active graphs.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// The indexed features.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// Number of features (the paper's "index size", Figure 9).
    pub fn feature_count(&self) -> usize {
        self.features.len()
    }

    /// Configuration used to build the index.
    pub fn params(&self) -> &TreePiParams {
        &self.params
    }

    /// Index shape: the two mining facts recorded at build time plus
    /// counts of what the posting lists hold now.
    pub fn stats(&self) -> BuildStats {
        BuildStats {
            mined: self.mined,
            features: self.features.len(),
            center_entries: self.features.iter().map(|f| f.support.len()).sum(),
            center_positions: self.features.iter().map(|f| f.positions.len()).sum(),
            truncated: self.truncated,
        }
    }

    /// The maintenance epoch: starts at 0 and is bumped by every
    /// successful [`Self::insert`] / [`Self::remove`]. Any cache of query
    /// answers keyed on this value must drop its entries when the epoch
    /// changes — that is the invalidation contract the serving result
    /// cache relies on.
    pub fn maintenance_epoch(&self) -> u64 {
        self.maintenance_epoch
    }

    /// The feature whose canonical string is `canon`, if indexed.
    pub fn feature_by_canon(&self, canon: &CanonString) -> Option<FeatureId> {
        self.feature_by_tokens(canon.tokens())
    }

    /// [`Self::feature_by_canon`] for canonical tokens still in their
    /// encoder's buffer.
    pub(crate) fn feature_by_tokens(&self, tokens: &[u32]) -> Option<FeatureId> {
        self.directory.get(&self.features, tokens)
    }

    /// Can a tree with this shape be grown into a stored feature, i.e. may
    /// it be a proper subtree of one? Never `false` for a tree that is: a
    /// shared shape or a filter collision can only say `true` of a tree
    /// that is not, which costs the walk a wasted step and no answer.
    #[inline]
    pub(crate) fn may_grow(&self, shape: u64) -> bool {
        self.shapes.contains(Tag::Grow, shape)
    }

    /// May a tree with this shape be a stored feature? Never `false` for a
    /// tree that is; a `true` is confirmed by the exact directory lookup.
    #[inline]
    pub(crate) fn may_be_feature(&self, shape: u64) -> bool {
        self.shapes.contains(Tag::Feature, shape)
    }

    /// The feature with id `fid`.
    pub fn feature(&self, fid: FeatureId) -> &Feature {
        &self.features[fid.idx()]
    }

    /// Stored center positions of feature `fid` in graph `gid` (none if the
    /// graph does not support the feature), read off the id column.
    pub fn center_positions_of(
        &self,
        fid: FeatureId,
        gid: u32,
    ) -> impl Iterator<Item = CenterPos> + Clone + '_ {
        let f = &self.features[fid.idx()];
        let ids = match f.support.binary_search(&gid) {
            Ok(rank) => f.positions_at(rank),
            Err(_) => &[],
        };
        let on_edge = f.canon.is_bicentral();
        ids.iter().map(move |&id| {
            if on_edge {
                CenterPos::Edge(EdgeId(id))
            } else {
                CenterPos::Vertex(VertexId(id))
            }
        })
    }

    /// Per-vertex neighborhood signatures of graph `gid` (see
    /// [`crate::sig`]); empty for the blank slot of a removed graph.
    /// Indexing a gid ≥ `db.len()` panics, like `db()` would.
    pub fn vertex_sigs(&self, gid: u32) -> &[VertexSig] {
        &self.sigs[gid as usize]
    }

    /// Does every stored signature vector equal a fresh recompute from its
    /// graph payload? This is the invariant §7.1 maintenance and re-mining
    /// must preserve (and what lets index files leave signatures out);
    /// exposed for tests and debug assertions.
    pub fn sigs_consistent(&self) -> bool {
        self.sigs.len() == self.db.len()
            && self
                .db
                .iter()
                .zip(&self.sigs)
                .all(|(g, s)| sig::graph_sigs(g) == *s)
    }

    /// Does the directory hold every feature id once, in a table sized for
    /// the feature count, where [`Self::feature_by_canon`] finds each
    /// feature under its own id? Exposed for tests.
    pub fn directory_consistent(&self) -> bool {
        let slots = &self.directory.slots;
        let held = slots.iter().filter(|&&fid| fid != VACANT).count();
        slots.len() == Directory::slots_for(self.features.len())
            && held == self.features.len()
            && self
                .features
                .iter()
                .enumerate()
                .all(|(i, f)| self.feature_by_canon(&f.canon) == Some(FeatureId(i as u32)))
    }

    /// Is every posting list well formed — supports strictly increasing and
    /// inside the database, offsets strictly increasing with one end per
    /// supporting graph, so that [`Self::center_positions_of`]`(f, g)` is
    /// non-empty exactly when `g` supports `f`? The invariant build, §7.1
    /// maintenance and [`Self::load`] must all preserve; exposed for tests.
    pub fn postings_consistent(&self) -> bool {
        let n_db = self.db.len();
        self.features.iter().all(|f| f.postings_consistent(n_db))
    }

    /// Insert a graph (paper §7.1): "we simply update the support sets and
    /// center positions of the existing feature trees". Returns the new
    /// graph's id. The feature set itself is not re-mined — the serving
    /// layer's [`Self::remine_with_pool`] does that in the background
    /// after bulk changes — with one exception: any
    /// single-edge tree of `g` that is not yet indexed becomes a new
    /// feature, because query completeness (the `MissingFeature` empty-
    /// support proof and worst-case partitioning) relies on the σ(1) = 1
    /// invariant that *every* edge in the database is a feature.
    pub fn insert(&mut self, g: Graph) -> u32 {
        let gid = self.db.len() as u32;
        // Register novel single-edge trees as fresh (so far empty) features,
        // each added to the directory and its shape to the filter: after
        // this every edge of `g` is a feature, which is what the walk
        // expects of a graph. Each edge is encoded and looked up where it
        // lies; a novel one keeps the tokens as its string.
        let mut enc = SubtreeEncoder::default();
        for e in g.edge_ids() {
            let (u, v) = (g.edge(e).u, g.edge(e).v);
            let (tokens, _) = enc.encode(&g, u, |x| x == e);
            if self.feature_by_tokens(tokens).is_some() {
                continue;
            }
            let canon = CanonString(tokens.to_vec());
            self.features.push(Feature::new(canon));
            self.directory.add(&self.features);
            self.shapes
                .insert(Tag::Feature, shape_of(&g, [u, v], |x| x == e));
        }
        // Every occurrence of a feature in `g`, as (feature, center id), by
        // a walk on one seat: a center is a function of the occurrence, and
        // occurrences sharing one collapse. A feature's kind of center is
        // its occurrences'.
        let counts = &mut crate::walk::WalkCounts::default();
        let mut hits: Vec<(FeatureId, u32)> =
            crate::walk::walk_features(self, &g, &Pool::new(1), 1, counts)
                .expect("every edge of the graph is a feature by now");
        hits.sort_unstable();
        hits.dedup();
        for run in hits.chunk_by(|a, b| a.0 == b.0) {
            self.features[run[0].0.idx()].push_graph(gid, run.iter().map(|h| h.1));
        }
        self.sigs.push(sig::graph_sigs(&g));
        self.db.push(g);
        self.active.push(true);
        self.maintenance_epoch += 1;
        gid
    }

    /// Delete graph `gid` (paper §7.1): remove it from every feature's
    /// support set and center store, and free its payload — the slot keeps
    /// its id as a blank graph. Returns whether the graph was active.
    pub fn remove(&mut self, gid: u32) -> bool {
        if !self.is_active(gid) {
            return false;
        }
        let slot = gid as usize;
        self.active[slot] = false;
        self.db[slot] = blank_slot();
        self.sigs[slot] = Vec::new();
        for f in &mut self.features {
            f.remove_graph(gid);
        }
        self.maintenance_epoch += 1;
        true
    }

    /// Re-mine the feature set from the current active graphs (the paper's
    /// advice when "too many insert/delete operations" have accumulated)
    /// *without* renumbering graph ids: the blank slots of removed graphs
    /// participate in the mining database as empty graphs, so every support
    /// set and center table in the result uses the same positional gids as
    /// the source index and live traffic can keep resolving ids across a
    /// snapshot swap.
    ///
    /// Because σ(s) is an absolute threshold (Eq. 1, not a fraction of
    /// |D|), blank slots contribute nothing to any support set and the
    /// mined feature set equals a fresh [`Self::build`] over just the
    /// active graphs, modulo the gid embedding.
    ///
    /// The maintenance epoch carries over unchanged; the caller advances
    /// it when publishing the result (an epoch that moved backwards would
    /// break cache invalidation).
    pub fn remine_with_pool(&self, pool: &Pool) -> Self {
        let mut idx = Self::build_with_pool_obs(
            self.db.clone(),
            self.params.clone(),
            pool,
            &obs::Shard::disabled(),
        );
        idx.active = self.active.clone();
        idx.maintenance_epoch = self.maintenance_epoch;
        idx
    }

    /// The index as if every shape collided, which is how it stands when the
    /// closure is too large to derive: the walk encodes every subset and
    /// grows every subtree.
    #[cfg(test)]
    pub(crate) fn with_colliding_shapes(mut self) -> Self {
        self.shapes = ShapeFilter::everything();
        self
    }

    /// An index over zero graphs with no features — a placeholder used
    /// when moving the real index out of shared state (see
    /// [`crate::Engine::into_index`]).
    pub(crate) fn empty_like(params: TreePiParams) -> Self {
        Self::assemble(params, vec![], vec![], vec![], vec![]).expect("no features to collide")
    }

    /// Per-structure heap estimate of the whole index (database, feature
    /// strings, support sets, center tables, directory). Length-based, so the
    /// numbers are deterministic for a given index regardless of build
    /// history; recorded as `mem.index.*` gauges by
    /// [`Self::record_mem_gauges`]. Removed graphs are blank slots and
    /// weigh nothing.
    pub fn memory_breakdown(&self) -> IndexMemory {
        use std::mem::size_of;
        let db_bytes = self.active.len() * size_of::<bool>()
            + self.db.iter().map(Graph::heap_bytes).sum::<usize>();
        let features_bytes = self.features.iter().map(|f| f.canon.heap_bytes()).sum();
        let supports_bytes = self
            .features
            .iter()
            .map(|f| f.support.len() * size_of::<u32>())
            .sum();
        let centers_bytes = self
            .features
            .iter()
            .map(|f| (f.offsets.len() + f.positions.len()) * size_of::<u32>())
            .sum();
        let sigs_bytes = self.sigs.len() * size_of::<Vec<VertexSig>>()
            + self
                .sigs
                .iter()
                .map(|v| v.len() * size_of::<VertexSig>())
                .sum::<usize>();
        IndexMemory {
            db_bytes,
            features_bytes,
            supports_bytes,
            centers_bytes,
            sigs_bytes,
            trie_bytes: self.directory.slots.len() * size_of::<FeatureId>()
                + self.shapes.heap_bytes(),
        }
    }

    /// Total estimated heap bytes of the index (all parts of
    /// [`Self::memory_breakdown`]).
    pub fn heap_bytes(&self) -> usize {
        self.memory_breakdown().total()
    }

    /// Estimated memory footprint of the index *payload* in bytes
    /// (supports + center positions + directory) — the structures the paper's
    /// Figure 9 "index size" metric counts, excluding the database and the
    /// features' canonical strings. Used by the index-size experiments.
    pub fn memory_estimate(&self) -> usize {
        let m = self.memory_breakdown();
        m.supports_bytes + m.centers_bytes + m.trie_bytes
    }

    /// Record [`Self::memory_breakdown`] as `mem.index.*` gauges.
    pub fn record_mem_gauges(&self, registry: &obs::Registry) {
        let m = self.memory_breakdown();
        registry.set_gauge(Gauge::MEM_INDEX_BYTES, m.total() as u64);
        registry.set_gauge(Gauge::MEM_INDEX_DB_BYTES, m.db_bytes as u64);
        registry.set_gauge(Gauge::MEM_INDEX_FEATURES_BYTES, m.features_bytes as u64);
        registry.set_gauge(Gauge::MEM_INDEX_SUPPORTS_BYTES, m.supports_bytes as u64);
        registry.set_gauge(Gauge::MEM_INDEX_CENTERS_BYTES, m.centers_bytes as u64);
        registry.set_gauge(Gauge::MEM_INDEX_SIGS_BYTES, m.sigs_bytes as u64);
        registry.set_gauge(Gauge::MEM_INDEX_TRIE_BYTES, m.trie_bytes as u64);
    }
}

/// Per-structure heap estimate of a [`TreePiIndex`], from
/// [`TreePiIndex::memory_breakdown`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexMemory {
    /// The graph database (labels, edges, adjacency; a removed graph's
    /// blank slot holds none) plus the active flag vector.
    pub db_bytes: usize,
    /// The features' canonical strings, the one form each feature tree is
    /// kept in.
    pub features_bytes: usize,
    /// Per-feature support sets.
    pub supports_bytes: usize,
    /// Center-position columns (offsets and positions, per feature).
    pub centers_bytes: usize,
    /// Per-vertex neighborhood signatures ([`crate::sig`]).
    pub sigs_bytes: usize,
    /// The canonical-string directory, one 4-byte slot per feature and
    /// empty slots up to the least power of two at most three quarters
    /// full, and the shape filter, 12 bits per feature and per distinct
    /// proper subtree of one, in whole 8-byte words (the name predates both
    /// — a prefix trie used to stand here).
    pub trie_bytes: usize,
}

impl IndexMemory {
    /// Sum of all parts.
    pub fn total(&self) -> usize {
        self.db_bytes
            + self.features_bytes
            + self.supports_bytes
            + self.centers_bytes
            + self.sigs_bytes
            + self.trie_bytes
    }
}

/// What an empty slot of the [`Directory`] holds.
const VACANT: FeatureId = FeatureId(u32::MAX);

/// The canonical-string directory: an open-addressed table of feature ids
/// with linear probing, keyed by [`canon_hash`] of each feature's string.
/// The table has [`Directory::slots_for`] the feature count slots, so at
/// least a quarter of them are [`VACANT`] and every probe sequence ends. Its
/// layout is a function of the features in id order: build, load and §7.1
/// maintenance produce the same table for the same features.
#[derive(Clone)]
struct Directory {
    slots: Vec<FeatureId>,
}

impl Directory {
    /// The directory of `features`; fails if two share a canonical string.
    fn of(features: &[Feature]) -> Result<Self, &'static str> {
        let mut dir = Self {
            slots: vec![VACANT; Self::slots_for(features.len())],
        };
        for (i, f) in features.iter().enumerate() {
            let slot = dir
                .find(features, f.canon.tokens())
                .map_err(|_| "two features share a canonical string")?;
            dir.slots[slot] = FeatureId(i as u32);
        }
        Ok(dir)
    }

    /// Slots for `n` features: the least power of two that `n` fills to
    /// three quarters at most.
    fn slots_for(n: usize) -> usize {
        (4 * n).div_ceil(3).next_power_of_two()
    }

    /// The feature whose string is `tokens`, if held.
    fn get(&self, features: &[Feature], tokens: &[u32]) -> Option<FeatureId> {
        self.find(features, tokens).err()
    }

    /// `Err(fid)` if `tokens` is feature `fid`'s string, else `Ok` of the
    /// vacant slot that ends the probe sequence.
    fn find(&self, features: &[Feature], tokens: &[u32]) -> Result<usize, FeatureId> {
        let mask = self.slots.len() - 1;
        let mut slot = canon_hash(tokens) as usize & mask;
        loop {
            let fid = self.slots[slot];
            if fid == VACANT {
                return Ok(slot);
            }
            if features[fid.idx()].canon.tokens() == tokens {
                return Err(fid);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Hold the last of `features`, whose string no other one has; grows
    /// the table, rehashing every feature, when the count calls for it.
    fn add(&mut self, features: &[Feature]) {
        if self.slots.len() < Self::slots_for(features.len()) {
            *self = Self::of(features).expect("distinct canonical strings");
            return;
        }
        let last = features.last().expect("a feature to add");
        let slot = self
            .find(features, last.canon.tokens())
            .expect("a string not held yet");
        self.slots[slot] = FeatureId(features.len() as u32 - 1);
    }
}

/// A fixed hash of canonical tokens (FxHash's step, then a fold of the
/// high half into the low bits the table reads): the same on every run and
/// every machine, so a table's layout is too.
fn canon_hash(tokens: &[u32]) -> u64 {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let h = tokens.iter().fold(tokens.len() as u64, |h, &t| {
        (h.rotate_left(5) ^ u64::from(t)).wrapping_mul(K)
    });
    h ^ (h >> 32)
}

/// What the slot of a removed graph holds: the empty graph, which owns no
/// heap and has no signatures.
pub(crate) fn blank_slot() -> Graph {
    graph_core::GraphBuilder::new().build()
}

/// Hand the heap a finished build has freed back to the operating system,
/// and keep the large blocks of later allocations returnable.
///
/// Mining holds tens of megabytes of occurrence lists at its widest level
/// for an index well under one (56 MB live against 0.8 MB on a 200-molecule
/// database). glibc keeps such memory resident once freed — its trim
/// threshold rises with the largest blocks it has seen — and a secondary
/// arena never reuses it, so every later allocation of a serving process (or
/// of a benchmark's client threads) lands on top of a build's ghost, again
/// after each background re-mine. `malloc_trim` releases it.
///
/// Freeing a block glibc served with `mmap` also raises its `mmap`
/// threshold to that block's size (up to 32 MiB) for the rest of the
/// process, and a build frees many such blocks. Below the raised threshold
/// a growing vector is copied inside an arena at every doubling and the
/// old copies stay resident: a benchmark client's per-request log peaked
/// ≈ 30 MB higher for it. Pinning the threshold at glibc's starting value
/// keeps large blocks in `mmap`, where growth is `mremap` and a free
/// returns the pages (setting it also stops the raising). Elsewhere this
/// function is a no-op.
fn release_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        /// `M_MMAP_THRESHOLD` of `<malloc.h>`, and glibc's starting value.
        const M_MMAP_THRESHOLD: i32 = -3;
        const MMAP_THRESHOLD_BYTES: i32 = 128 * 1024;
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: both are functions of the C library this target links and
        // take no pointer. `malloc_trim` touches only memory the allocator
        // holds free (under each arena's own lock, so concurrent allocation
        // on other threads is fine); `mallopt` sets an allocator parameter
        // under the allocator's lock, a value glibc itself rewrites on frees
        // from any thread. Their results — whether anything was released,
        // whether the value was accepted — are not needed: either way the
        // heap stays valid.
        unsafe {
            malloc_trim(0);
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES);
        }
    }
}

/// Most distinct proper subtrees a feature set may have before deriving
/// them is given up (a 400 kB filter). Mined indexes stay far below: the
/// 1 425 features of a 200-molecule database have 977, 1 250 synthetic
/// graphs over 5 labels (8 992 features) about 6 300, and 10 000 of them,
/// the paper's largest Fig. 13(a) size (`treepi gen --synthetic 10000
/// --labels 5`: 1.75 M frequent trees, 25 846 features), about 21 300 — a
/// 70 664-byte filter. But a bushy 30-edge tree in a forged index file has
/// 2³⁰, and loading it must stay bounded.
const MAX_CLOSURE: usize = 1 << 18;

/// The shape filter of `features`: each feature's shape tagged
/// [`Tag::Feature`], each distinct proper subtree's tagged [`Tag::Grow`] —
/// or, past `cap` distinct proper subtrees, the filter that holds
/// everything. The trees are decoded for it, and dropped after.
fn shape_filter(features: &[Feature], cap: usize) -> ShapeFilter {
    let trees: Vec<Tree> = features.iter().map(Feature::tree).collect();
    let Some(closure) = derive_closure(&trees, cap) else {
        return ShapeFilter::everything();
    };
    let mut filter = ShapeFilter::with_keys(closure.len() + trees.len());
    for shape in closure {
        filter.insert(Tag::Grow, shape);
    }
    for t in &trees {
        filter.insert(Tag::Feature, tree_shape(t.graph()));
    }
    filter
}

/// The shapes of every distinct proper subtree with at least one edge of
/// any of `trees`, one per tree; `None` past `cap` of them.
///
/// Peels leaves: every proper subtree is some larger subtree less one leaf
/// edge, so each distinct tree met — told apart by its full canonical
/// string, a missed one would lose its whole downward cone — is expanded
/// once, whichever features it was met in.
fn derive_closure(trees: &[Tree], cap: usize) -> Option<Vec<u64>> {
    let mut enc = SubtreeEncoder::default();
    let mut seen: FxHashSet<Box<[u32]>> = FxHashSet::default();
    let mut shapes: Vec<u64> = Vec::new();
    // Subtrees still to peel: `(tree, start, len)` into `edges`.
    let mut edges: Vec<EdgeId> = Vec::new();
    let mut todo: Vec<(usize, usize, usize)> = Vec::new();
    let (mut in_set, mut degree): (Vec<bool>, Vec<u32>) = (Vec::new(), Vec::new());
    for (ti, t) in trees.iter().enumerate() {
        if t.edge_count() >= 2 {
            todo.push((ti, edges.len(), t.edge_count()));
            edges.extend(t.graph().edge_ids());
        }
    }
    let mut next = 0;
    while let Some(&(ti, start, len)) = todo.get(next) {
        next += 1;
        let g = trees[ti].graph();
        in_set.clear();
        in_set.resize(g.edge_count(), false);
        degree.clear();
        degree.resize(g.vertex_count(), 0);
        for &e in &edges[start..start + len] {
            in_set[e.idx()] = true;
            degree[g.edge(e).u.idx()] += 1;
            degree[g.edge(e).v.idx()] += 1;
        }
        for i in start..start + len {
            let leaf = edges[i];
            let edge = g.edge(leaf);
            // With two edges or more, at most one end of an edge is a leaf;
            // the other stays in the tree when the edge goes.
            let stays = match (degree[edge.u.idx()], degree[edge.v.idx()]) {
                (1, _) => edge.v,
                (_, 1) => edge.u,
                _ => continue,
            };
            in_set[leaf.idx()] = false;
            let (tokens, _) = enc.encode(g, stays, |e| in_set[e.idx()]);
            let novel = !seen.contains(tokens);
            if novel {
                if seen.len() == cap {
                    return None;
                }
                seen.insert(tokens.into());
                shapes.push(shape_of(g, g.vertices(), |e| in_set[e.idx()]));
            }
            in_set[leaf.idx()] = true;
            if novel && len > 2 {
                todo.push((ti, edges.len(), len - 1));
                edges.extend_from_within(start..i);
                edges.extend_from_within(i + 1..start + len);
            }
        }
    }
    Some(shapes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::graph_from;
    use tree_core::{canonical_string, center_positions};

    fn tiny_db() -> Vec<Graph> {
        vec![
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 1)]),
        ]
    }

    fn quick_index() -> TreePiIndex {
        TreePiIndex::build(tiny_db(), TreePiParams::quick())
    }

    fn trees(idx: &TreePiIndex) -> Vec<Tree> {
        idx.features().iter().map(Feature::tree).collect()
    }

    #[test]
    fn build_produces_features_with_centers() {
        let idx = quick_index();
        assert!(idx.feature_count() > 0);
        assert_eq!(idx.active_count(), 3);
        assert!(idx.postings_consistent());
        let mut centers = [false; 2];
        for (i, f) in idx.features().iter().enumerate() {
            assert!(!f.support.is_empty());
            let tree = f.tree();
            assert_eq!(f.canon.is_bicentral(), tree_core::center(&tree).is_edge());
            assert_eq!(f.size(), tree.edge_count());
            centers[f.canon.is_bicentral() as usize] = true;
            // The id column reads back as exactly the positions a fresh
            // search of the decoded tree finds, tagged by the feature's
            // kind of center.
            for &gid in &f.support {
                let found = center_positions(&tree, &idx.db()[gid as usize]);
                assert!(!found.is_empty(), "feature {i} has no centers in {gid}");
                assert!(idx.center_positions_of(FeatureId(i as u32), gid).eq(found));
            }
        }
        assert_eq!(centers, [true; 2], "both kinds of center are exercised");
    }

    /// The directory finds what a linear scan of the features finds, on
    /// every stored string and on near misses of each (its proper prefix,
    /// an extension, every one-token change): after a build, after §7.1
    /// inserts of novel edges have grown its table, and after a load. A
    /// grown table is the one a fresh directory of the same features is.
    #[test]
    fn directory_lookup_equals_a_linear_scan() {
        let assert_scan = |idx: &TreePiIndex, what: &str| {
            assert!(idx.directory_consistent(), "{what}");
            let scan = |t: &[u32]| {
                let at = idx.features().iter().position(|f| f.canon.tokens() == t);
                at.map(|i| FeatureId(i as u32))
            };
            for f in idx.features() {
                let t = f.canon.tokens();
                let mut near = vec![t.to_vec(), t[..t.len() - 1].to_vec(), [t, &t[..1]].concat()];
                near.extend((0..t.len()).map(|i| {
                    let mut p = t.to_vec();
                    p[i] ^= 1;
                    p
                }));
                for p in near {
                    assert_eq!(idx.feature_by_tokens(&p), scan(&p), "{what}: {p:?}");
                }
            }
        };
        let mut idx = quick_index();
        assert_scan(&idx, "built");
        let slots = idx.directory.slots.len();
        // Forty novel edges, one graph each, and a path of three more.
        for l in 0..40 {
            idx.insert(graph_from(&[10 + l, 11 + l], &[(0, 1, 3)]));
        }
        idx.insert(graph_from(
            &[7, 8, 9, 7],
            &[(0, 1, 4), (1, 2, 4), (2, 3, 4)],
        ));
        assert!(idx.directory.slots.len() >= 8 * slots, "the table grew");
        assert_scan(&idx, "grown");
        let fresh = Directory::of(idx.features()).expect("distinct strings");
        assert_eq!(idx.directory.slots, fresh.slots);
        let mut file = Vec::new();
        idx.save(&mut file).expect("in-memory write");
        let loaded = TreePiIndex::load(&mut file.as_slice()).expect("own file");
        assert_scan(&loaded, "loaded");
        assert_eq!(loaded.directory.slots, idx.directory.slots);
    }

    #[test]
    fn single_edge_features_cover_database() {
        // σ(1) = 1 ⟹ every distinct edge of every graph is a feature.
        let idx = quick_index();
        for g in idx.db() {
            for e in g.edges() {
                let t =
                    tree_core::tree_from(&[g.vlabel(e.u).0, g.vlabel(e.v).0], &[(0, 1, e.label.0)]);
                let c = canonical_string(&t);
                assert!(idx.feature_by_canon(&c).is_some(), "missing edge feature");
            }
        }
    }

    #[test]
    fn insert_updates_supports_and_centers() {
        let mut idx = quick_index();
        let g = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]); // same as db[1]
        let gid = idx.insert(g);
        assert_eq!(gid, 3);
        assert!(idx.is_active(gid));
        assert_eq!(idx.active_count(), 4);
        assert!(idx.postings_consistent());
        // every feature supported by db[1] must now also list gid
        for (i, f) in idx.features().iter().enumerate() {
            if f.support.contains(&1) {
                assert!(f.support.contains(&gid), "feature {i} missed the insert");
                let mut pos = idx.center_positions_of(FeatureId(i as u32), gid);
                assert!(pos.next().is_some());
            }
            // supports stay sorted
            let mut s = f.support.clone();
            s.sort_unstable();
            assert_eq!(s, f.support);
        }
    }

    #[test]
    fn insert_pins_supports_when_storage_is_not_size_ordered() {
        // First insert appends a novel single-edge feature (size 1) AFTER
        // the larger mined trees, so storage order is no longer
        // size-sorted...
        let mut idx = quick_index();
        let novel = graph_from(&[5, 6], &[(0, 1, 2)]);
        let g1 = idx.insert(novel.clone());
        let sizes: Vec<usize> = idx.features().iter().map(Feature::size).collect();
        assert!(
            sizes.windows(2).any(|w| w[0] > w[1]),
            "precondition: storage order must not be size-sorted ({sizes:?})"
        );
        // ...and a second insert must still update every matching feature
        // identically: supports sorted and complete, centers present —
        // including the tail-appended single-edge feature.
        let g2 = idx.insert(novel);
        assert!(idx.directory_consistent());
        for (i, f) in idx.features().iter().enumerate() {
            let mut sorted = f.support.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, f.support, "feature {i} support unsorted");
            assert_eq!(
                f.support.contains(&g1),
                f.support.contains(&g2),
                "feature {i}: identical graphs must have identical support"
            );
            for &gid in &f.support {
                let mut pos = idx.center_positions_of(FeatureId(i as u32), gid);
                assert!(pos.next().is_some(), "feature {i} lost centers for {gid}");
            }
        }
        let fid = idx
            .feature_by_canon(&canonical_string(&tree_core::tree_from(
                &[5, 6],
                &[(0, 1, 2)],
            )))
            .expect("novel edge became a feature");
        assert_eq!(idx.feature(fid).support, vec![g1, g2]);
    }

    #[test]
    fn maintenance_epoch_tracks_inserts_and_removes() {
        let mut idx = quick_index();
        assert_eq!(idx.maintenance_epoch(), 0);
        let gid = idx.insert(graph_from(&[0, 1], &[(0, 1, 0)]));
        assert_eq!(idx.maintenance_epoch(), 1);
        assert!(idx.remove(gid));
        assert_eq!(idx.maintenance_epoch(), 2);
        // No-op removes leave the epoch alone (nothing changed).
        assert!(!idx.remove(gid));
        assert_eq!(idx.maintenance_epoch(), 2);
    }

    #[test]
    fn removed_slot_is_blank_and_changes_nothing_else() {
        let mut idx = quick_index();
        let queries = [
            graph_from(&[0, 0], &[(0, 1, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]),
        ];
        let answers = |idx: &TreePiIndex| -> Vec<Vec<u32>> {
            queries.iter().map(|q| idx.query(q).matches).collect()
        };
        let before = idx.memory_breakdown();
        let removed_bytes = idx.db()[1].heap_bytes();
        let mut expected = answers(&idx);
        expected.iter_mut().for_each(|a| a.retain(|&g| g != 1));
        assert!(idx.remove(1));
        // The slot keeps its id and holds nothing.
        assert_eq!(idx.db().len(), 3);
        assert_eq!(idx.db()[1], blank_slot());
        assert!(idx.vertex_sigs(1).is_empty());
        assert!(idx.sigs_consistent() && idx.postings_consistent());
        let after = idx.memory_breakdown();
        assert_eq!(after.db_bytes, before.db_bytes - removed_bytes);
        assert_eq!(idx.heap_bytes(), after.total());
        // Answers are those of the graph gone, and a file round trip
        // changes neither them nor the file.
        assert_eq!(answers(&idx), expected);
        for q in &queries {
            assert_eq!(idx.query(q).matches, crate::scan_support(&idx, q));
        }
        let mut file = Vec::new();
        idx.save(&mut file).unwrap();
        let loaded = TreePiIndex::load(&mut file.as_slice()).unwrap();
        assert_eq!(loaded.db(), idx.db());
        assert_eq!(answers(&loaded), expected);
        let mut again = Vec::new();
        loaded.save(&mut again).unwrap();
        assert_eq!(again, file);
    }

    #[test]
    fn remove_clears_graph_everywhere() {
        let built = quick_index();
        let mut idx = built.clone();
        assert!(idx.remove(1));
        assert!(!idx.is_active(1));
        assert!(!idx.remove(1), "double remove must be a no-op");
        assert!(idx.postings_consistent());
        for (i, f) in idx.features().iter().enumerate() {
            let fid = FeatureId(i as u32);
            assert!(!f.support.contains(&1));
            assert!(idx.center_positions_of(fid, 1).next().is_none());
            // Dropping the middle graph leaves its neighbours' runs intact.
            for gid in [0, 2] {
                assert!(idx
                    .center_positions_of(fid, gid)
                    .eq(built.center_positions_of(fid, gid)));
            }
        }
    }

    #[test]
    fn remine_preserves_gids_and_matches_fresh_build() {
        let mut idx = quick_index();
        let extra = graph_from(&[1, 1], &[(0, 1, 1)]);
        let gid = idx.insert(extra.clone());
        idx.remove(0);
        let pool = graph_core::par::Pool::new(2);
        let remined = idx.remine_with_pool(&pool);
        // Gids survive: same slot count, tombstone stays dead, insert stays live.
        assert_eq!(remined.db().len(), idx.db().len());
        assert!(!remined.is_active(0));
        assert!(remined.is_active(gid));
        assert_eq!(remined.maintenance_epoch(), idx.maintenance_epoch());
        // The removed slot is blank in both, every other payload is kept.
        assert_eq!(remined.db(), idx.db());
        assert_eq!(remined.db()[0], blank_slot());
        // Feature set and supports equal a fresh build over the survivors,
        // modulo the gid embedding (fresh gid i ↔ remined gid i+1 here).
        let fresh = TreePiIndex::build(
            vec![tiny_db()[1].clone(), tiny_db()[2].clone(), extra],
            TreePiParams::quick(),
        );
        assert_eq!(remined.feature_count(), fresh.feature_count());
        let fresh_features: rustc_hash::FxHashMap<&CanonString, &Feature> =
            fresh.features().iter().map(|f| (&f.canon, f)).collect();
        for f in remined.features() {
            let fresh_f = fresh_features.get(&f.canon).expect("feature mined in both");
            let mapped: Vec<u32> = fresh_f.support.iter().map(|&g| g + 1).collect();
            assert_eq!(f.support, mapped, "support mismatch for {:?}", f.canon);
        }
    }

    #[test]
    fn insert_then_remove_is_identity_on_supports() {
        let mut idx = quick_index();
        let before: Vec<SupportSet> = idx.features().iter().map(|f| f.support.clone()).collect();
        let gid = idx.insert(graph_from(&[0, 1], &[(0, 1, 0)]));
        idx.remove(gid);
        let after: Vec<SupportSet> = idx.features().iter().map(|f| f.support.clone()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn memory_estimate_positive() {
        let idx = quick_index();
        assert!(idx.memory_estimate() > 0);
    }

    /// A feature weighs its canonical string and nothing more, also once
    /// §7.1 maintenance has added a novel single-edge feature.
    #[test]
    fn features_weigh_their_canonical_strings() {
        let strings = |idx: &TreePiIndex| -> usize {
            idx.features().iter().map(|f| f.canon.heap_bytes()).sum()
        };
        let mut idx = quick_index();
        assert_eq!(idx.memory_breakdown().features_bytes, strings(&idx));
        let before = idx.feature_count();
        idx.insert(graph_from(&[5, 6], &[(0, 1, 2)]));
        assert_eq!(idx.feature_count(), before + 1, "a novel edge");
        assert_eq!(idx.memory_breakdown().features_bytes, strings(&idx));
    }

    #[test]
    fn memory_breakdown_sums_and_feeds_gauges() {
        let idx = quick_index();
        let m = idx.memory_breakdown();
        assert!(m.db_bytes > 0);
        assert!(m.features_bytes > 0);
        assert!(m.supports_bytes > 0);
        assert!(m.centers_bytes > 0);
        assert!(m.trie_bytes > 0);
        assert!(m.sigs_bytes > 0);
        assert_eq!(
            m.total(),
            m.db_bytes
                + m.features_bytes
                + m.supports_bytes
                + m.centers_bytes
                + m.trie_bytes
                + m.sigs_bytes
        );
        assert_eq!(idx.heap_bytes(), m.total());
        assert_eq!(
            idx.memory_estimate(),
            m.supports_bytes + m.centers_bytes + m.trie_bytes
        );
        // Deterministic for the same build.
        assert_eq!(quick_index().memory_breakdown(), m);
        let r = obs::Registry::new();
        idx.record_mem_gauges(&r);
        let snap = r.snapshot();
        assert_eq!(
            snap.gauge(obs::Gauge::MEM_INDEX_BYTES.name()),
            Some(m.total() as u64)
        );
        assert_eq!(
            snap.gauge(obs::Gauge::MEM_INDEX_TRIE_BYTES.name()),
            Some(m.trie_bytes as u64)
        );
        // A power-of-two table of ids at most three quarters full, 12 bits
        // per feature and per distinct proper subtree of one, in whole
        // words.
        let closure = derive_closure(&trees(&idx), MAX_CLOSURE).expect("derived");
        let bits = 12 * (idx.feature_count() + closure.len());
        let slots = Directory::slots_for(idx.feature_count());
        assert!(slots.is_power_of_two() && 4 * idx.feature_count() <= 3 * slots);
        assert!(slots < 2 * (4 * idx.feature_count()).div_ceil(3));
        assert_eq!(m.trie_bytes, 4 * slots + 8 * bits.div_ceil(64));
    }

    /// By brute force: every proper subtree of a feature may grow, every
    /// feature may be one, before and after §7.1 maintenance (whose novel
    /// single-edge feature must be found too) — and the filter is no
    /// "everything".
    #[test]
    fn closure_is_every_proper_subtree_of_a_feature() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let chem = datagen::generate_chem(&datagen::ChemParams::sized(30), &mut rng);
        let mut molecules = TreePiIndex::build(chem, TreePiParams::default());
        let sound_and_sparse = |idx: &TreePiIndex| {
            let (grow, feature) = (0..1_000u64)
                .map(sig::splitmix64)
                .fold((0, 0), |(g, f), s| {
                    (g + idx.may_grow(s) as u32, f + idx.may_be_feature(s) as u32)
                });
            assert!(grow < 100 && feature < 100, "{grow} / {feature} of 1 000");
            for f in idx.features() {
                let tree = f.tree();
                let g = tree.graph();
                assert!(idx.may_be_feature(tree_shape(g)), "{:?}", f.canon);
                let proper = f.size() - 1;
                let _ = graph_core::for_each_subtree_edge_subset(g, proper, |edges| {
                    let shape = shape_of(g, g.vertices(), |e| edges.contains(&e));
                    assert!(idx.may_grow(shape), "{:?} less some edge", f.canon);
                    std::ops::ControlFlow::Continue(())
                });
            }
        };
        for idx in [&mut quick_index(), &mut molecules] {
            assert!(idx.features().iter().any(|f| f.size() > 1));
            sound_and_sparse(idx);
            let before = idx.feature_count();
            idx.insert(graph_from(&[0, 77, 0], &[(0, 1, 0), (1, 2, 5)]));
            assert_eq!(idx.feature_count(), before + 2, "two novel edges");
            idx.remove(0);
            sound_and_sparse(idx);
        }
    }

    #[test]
    fn a_closure_past_its_cap_is_given_up() {
        let idx = quick_index();
        let trees = trees(&idx);
        let n = derive_closure(&trees, MAX_CLOSURE).expect("derived").len();
        assert!(derive_closure(&trees, n).is_some());
        assert_eq!(derive_closure(&trees, n - 1), None);
        let everything = shape_filter(idx.features(), n - 1);
        let unheld = (0..u64::MAX).find(|&s| !idx.may_grow(s)).expect("a shape");
        assert!(everything.contains(Tag::Grow, unheld));
        assert!(idx.with_colliding_shapes().may_grow(unheld));
    }

    #[test]
    fn build_stats_recorded() {
        let idx = quick_index();
        let s = idx.stats();
        // The features own a buffer of their own size, not the miner's.
        assert_eq!(idx.features.capacity(), idx.features.len());
        assert!(s.mined >= s.features);
        assert!(s.features == idx.feature_count());
        assert!(s.center_entries > 0);
        assert!(s.center_positions >= s.center_entries);
        assert!(!s.truncated);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::params::TreePiParams;
    use graph_core::graph_from;

    #[test]
    fn parallel_build_equals_sequential() {
        let db = vec![
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 1)]),
            graph_from(&[1, 1, 0, 0], &[(0, 1, 1), (1, 2, 0), (2, 3, 0)]),
        ];
        let off = obs::Shard::disabled();
        let seq = TreePiIndex::build_with_threads_obs(db.clone(), TreePiParams::quick(), 1, &off);
        let par = TreePiIndex::build_with_threads_obs(db, TreePiParams::quick(), 4, &off);
        assert_eq!(seq.feature_count(), par.feature_count());
        for (a, b) in seq.features().iter().zip(par.features()) {
            assert_eq!(a.canon, b.canon);
            assert_eq!(a.support, b.support);
        }
        for i in 0..seq.feature_count() as u32 {
            for gid in 0..4 {
                assert!(seq
                    .center_positions_of(FeatureId(i), gid)
                    .eq(par.center_positions_of(FeatureId(i), gid)));
            }
        }
    }
}
