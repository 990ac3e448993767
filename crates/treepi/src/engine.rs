//! Parallel batch query engine on a persistent worker pool.
//!
//! [`Engine`] is the long-lived serving front: an index plus one
//! [`graph_core::par::Pool`] reused across every batch, each recorded into
//! its caller's metric shard ([`Engine::query_batch_pinned`]).
//!
//! The determinism contract (see DESIGN.md, "Parallel query engine"): a
//! query's result is a function of the query and the pinned snapshot
//! alone. The pipeline draws no random number, and its two parallel
//! stages are order-free: the walk puts the occurrences its seats find in
//! one total order and sums their counts, and verify chunks candidates
//! contiguously and concatenates chunk results in order. So batch results
//! are bit-identical for any pool size, including 1, by construction —
//! verified by unit tests here and in `walk.rs`, property tests in
//! `tests/prop.rs` and `tests/pool_prop.rs` (which also pin equality
//! against a plain sequential loop of single queries).
//!
//! Scheduling is work-stealing-lite: seats pull the next query index from
//! a shared atomic counter, so long-running queries don't stall a statically
//! assigned chunk. When the batch is smaller than the pool, leftover
//! workers (`intra > 1`) are instead spent *inside* queries: the walk
//! shares its growing seeds out over them (`WALK_SPLIT_SEEDS` or more, in
//! `query.rs`), and verification its candidates
//! ([`crate::query::INTRA_PAR_THRESHOLD`] or more) — those stages dispatch
//! re-entrantly into the same pool.

use crate::index::TreePiIndex;
use crate::query::QueryResult;
use graph_core::par::Pool;
use graph_core::Graph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Kept for the ledger's replay until ROADMAP item 1: the RNG stream the
/// engine once gave query `i` of a batch with `seed`. No query reads it.
///
/// The seed and index are mixed through splitmix64-style finalization so
/// neighboring queries get unrelated streams (plain `seed + i` would hand
/// query `i` of seed `s` the same stream as query `i+1` of seed `s-1`).
pub fn query_rng(seed: u64, i: usize) -> ChaCha8Rng {
    let mut z = seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    ChaCha8Rng::seed_from_u64(z ^ (z >> 31))
}

/// Kept for the ledger's replay until ROADMAP item 1: [`Engine::query_batch`]
/// and [`Engine::query_batch_obs`] take one and ignore it. The query
/// pipeline has no options.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryOptions;

/// One §7.1 maintenance operation: what [`Engine::insert`] /
/// [`Engine::remove`] apply, and what the re-mine journal replays.
#[derive(Clone)]
enum Op {
    Insert(Graph),
    Remove(u32),
}

impl Op {
    /// Apply to `index`; returns the id of the graph written.
    fn apply_to(self, index: &mut TreePiIndex) -> u32 {
        match self {
            Op::Insert(g) => index.insert(g),
            Op::Remove(gid) => {
                index.remove(gid);
                gid
            }
        }
    }
}

/// Write-side state guarded by one mutex: the `maint.*` totals, the
/// re-mine trigger and the background re-mine handshake.
struct MaintState {
    /// §7.1 ops applied.
    applied: u64,
    /// Background re-mines requested.
    remine_triggers: u64,
    /// Background re-mines published.
    remines_completed: u64,
    /// §7.1 ops applied since the last re-mine (trigger accumulator).
    repairs_since_mine: u64,
    /// Snapshot handed to the re-mine thread, not yet picked up.
    remine_request: Option<Arc<TreePiIndex>>,
    /// The re-mine thread is between pickup and publish.
    remine_inflight: bool,
    /// Ops applied while a re-mine was pending/in flight — replayed onto
    /// the re-mined index before it is published.
    journal: Vec<Op>,
    /// Completed re-mine reports awaiting [`Engine::drain_remine_reports`].
    completed: Vec<RemineReport>,
    /// Tells the re-mine thread to exit.
    shutdown: bool,
}

/// State shared between the engine handle and its re-mine thread.
struct EngineShared {
    /// The published snapshot. Readers pin it by cloning the `Arc` (the
    /// lock is held only for the pointer copy — never across a query).
    /// A write holds it for the op, which mutates the snapshot in place
    /// unless a pin makes it copy first; a re-mine installs a successor
    /// built off to the side.
    current: Mutex<Arc<TreePiIndex>>,
    pool: Pool,
    maint: Mutex<MaintState>,
    /// Signals the re-mine thread (new request / shutdown) and anyone in
    /// [`Engine::wait_remine_idle`] (request picked up / published).
    remine_cv: Condvar,
    /// Re-mine trigger: re-mine after this many applied §7.1 ops
    /// (`0` = never).
    remine_threshold: u64,
}

/// A completed background re-mine (see [`Engine::drain_remine_reports`]).
#[derive(Clone, Copy, Debug)]
pub struct RemineReport {
    /// Wall time of the re-mine build (excluding journal replay).
    pub duration: Duration,
    /// Feature count of the published index.
    pub features: usize,
    /// Epoch the re-mined snapshot was published under.
    pub epoch: u64,
    /// Ops applied concurrently with the re-mine and replayed onto it.
    pub replayed: usize,
}

/// A point-in-time copy of the engine's maintenance counters/gauges,
/// surfaced as `maint.*` metrics by the serving layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintStats {
    /// Ops applied by [`Engine::insert`] / [`Engine::remove`] (removes of
    /// inactive gids excluded).
    pub applied: u64,
    /// Total snapshot publications: one per applied op and one per
    /// published re-mine.
    pub snapshot_swaps: u64,
    /// Background re-mines triggered.
    pub remine_triggers: u64,
    /// Background re-mines published.
    pub remines_completed: u64,
    /// §7.1 ops applied since the last re-mine trigger (gauge).
    pub repairs_since_mine: u64,
}

/// A long-lived serving engine: a published snapshot of a [`TreePiIndex`]
/// plus one persistent worker [`Pool`] reused across every batch, so
/// serving pays thread spawn/join once per process instead of once per
/// batch. Results are bit-identical at any pool size, per the determinism
/// contract in this module's docs.
///
/// # Concurrent maintenance (§7.1 under load)
///
/// The index lives behind an `Arc<TreePiIndex>` under a mutex:
///
/// - **A pin is a fixed version.** [`Engine::query_batch`] pins the
///   current snapshot ([`Engine::pin`]) and runs the whole batch against
///   it; no later write changes what a held pin sees.
/// - **A write applies when it arrives.** [`Engine::insert`] /
///   [`Engine::remove`] apply their one op to the published snapshot under
///   the mutex and return once it is published: in place when no reader
///   holds the snapshot, which is the serving loop's case (it pins and
///   releases on one thread), and into a copy first when one does (a batch
///   on another thread, a pending re-mine, a caller's long-lived pin). A
///   `pin()` issued during a write waits for that one op; queries already
///   running never wait.
/// - **Staleness-triggered re-mine.** Applied §7.1 repairs accumulate;
///   past `remine_threshold` a background thread re-mines the feature set
///   from the current snapshot on the engine's own pool
///   ([`TreePiIndex::remine_with_pool`], gid-stable), replays ops that
///   landed meanwhile, and swaps the result in under a fresh epoch.
///   Queries keep dispatching
///   onto the same pool throughout — the pool's queue accepts concurrent
///   dispatchers, so the re-mine consumes idle seats rather than blocking
///   the batch path.
///
/// Every publication bumps [`TreePiIndex::maintenance_epoch`] past the
/// previous snapshot's, so epoch-keyed result caches (the `serve` crate)
/// keep invalidating correctly across both writes and re-mines.
pub struct Engine {
    shared: Arc<EngineShared>,
    remine_thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("parallelism", &self.shared.pool.parallelism())
            .field("remine_threshold", &self.shared.remine_threshold)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Wrap `index` with a pool of `threads` workers (`0` = available
    /// parallelism). The pool threads are spawned here and live until the
    /// engine is dropped. Background re-mining is disabled; see
    /// [`Engine::with_remine`].
    pub fn new(index: TreePiIndex, threads: usize) -> Self {
        Self::with_remine(index, threads, 0)
    }

    /// [`Engine::new`] with staleness-triggered background re-mining:
    /// after `remine_threshold` applied §7.1 ops (`0` = never), a
    /// dedicated thread re-mines the feature set on the engine's pool and
    /// swaps the result in (see the type-level docs).
    pub fn with_remine(index: TreePiIndex, threads: usize, remine_threshold: u64) -> Self {
        let shared = Arc::new(EngineShared {
            current: Mutex::new(Arc::new(index)),
            pool: Pool::new(threads),
            maint: Mutex::new(MaintState {
                applied: 0,
                remine_triggers: 0,
                remines_completed: 0,
                repairs_since_mine: 0,
                remine_request: None,
                remine_inflight: false,
                journal: Vec::new(),
                completed: Vec::new(),
                shutdown: false,
            }),
            remine_cv: Condvar::new(),
            remine_threshold,
        });
        let remine_thread = (remine_threshold > 0).then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("treepi-remine".into())
                .spawn(move || remine_loop(&shared))
                .expect("spawn re-mine thread")
        });
        Engine {
            shared,
            remine_thread,
        }
    }

    /// Pin the currently published snapshot. The returned `Arc` keeps that
    /// version alive and unchanged for as long as the caller holds it,
    /// regardless of later writes or re-mines — holding it makes the next
    /// write copy the index. Waits while a write is in progress.
    pub fn pin(&self) -> Arc<TreePiIndex> {
        self.shared.current.lock().expect("engine snapshot").clone()
    }

    /// Insert a graph ([`TreePiIndex::insert`], §7.1) into the published
    /// snapshot. Returns the new graph id; the op is visible to every
    /// [`Engine::pin`] issued after this returns, under a bumped epoch, so
    /// result caches keyed on [`Engine::epoch`] invalidate before the next
    /// request.
    pub fn insert(&self, g: Graph) -> u32 {
        self.apply(Op::Insert(g)).expect("an insert always applies")
    }

    /// Remove graph `gid` ([`TreePiIndex::remove`], §7.1) from the
    /// published snapshot. Returns whether the graph was active; an
    /// inactive or out-of-range gid changes nothing — no copy, no epoch
    /// bump, no swap.
    pub fn remove(&self, gid: u32) -> bool {
        self.apply(Op::Remove(gid)).is_some()
    }

    /// The one write path: apply `op` to the published snapshot under the
    /// maint and snapshot locks (in that order, as the re-mine publish
    /// takes them) through `Arc::make_mut`, journal it while a re-mine is
    /// requested or running, and request a re-mine once enough repairs
    /// have accumulated. Returns the id of the graph written, or `None`
    /// for a remove of an inactive gid.
    fn apply(&self, op: Op) -> Option<u32> {
        let shared = &*self.shared;
        let mut m = shared.maint.lock().expect("maint state");
        let mut current = shared.current.lock().expect("engine snapshot");
        if let Op::Remove(gid) = op {
            if !current.is_active(gid) {
                return None;
            }
        }
        if m.remine_request.is_some() || m.remine_inflight {
            m.journal.push(op.clone());
        }
        let gid = op.apply_to(Arc::make_mut(&mut current));
        m.applied += 1;
        m.repairs_since_mine += 1;
        if shared.remine_threshold > 0
            && m.repairs_since_mine >= shared.remine_threshold
            && m.remine_request.is_none()
            && !m.remine_inflight
        {
            m.remine_request = Some(Arc::clone(&current));
            m.repairs_since_mine = 0;
            m.remine_triggers += 1;
            shared.remine_cv.notify_all();
        }
        Some(gid)
    }

    /// The published snapshot's maintenance epoch — the cache-invalidation
    /// version number (see [`TreePiIndex::maintenance_epoch`]).
    pub fn epoch(&self) -> u64 {
        let current = self.shared.current.lock();
        current.expect("engine snapshot").maintenance_epoch()
    }

    /// A point-in-time copy of the `maint.*` counters and gauges.
    pub fn maint_stats(&self) -> MaintStats {
        let m = self.shared.maint.lock().expect("maint state");
        MaintStats {
            applied: m.applied,
            snapshot_swaps: m.applied + m.remines_completed,
            remine_triggers: m.remine_triggers,
            remines_completed: m.remines_completed,
            repairs_since_mine: m.repairs_since_mine,
        }
    }

    /// Drain reports of background re-mines published since the last
    /// drain (the serving layer turns them into `maint.remine` spans).
    pub fn drain_remine_reports(&self) -> Vec<RemineReport> {
        std::mem::take(&mut self.shared.maint.lock().expect("maint state").completed)
    }

    /// Block until no re-mine is requested or in flight. Test/teardown
    /// helper — the serving path never calls this.
    pub fn wait_remine_idle(&self) {
        let mut m = self.shared.maint.lock().expect("maint state");
        while m.remine_request.is_some() || m.remine_inflight {
            m = self.shared.remine_cv.wait(m).expect("maint state");
        }
    }

    /// Recover the index, dropping the pool: waits for any in-flight
    /// re-mine to publish, and unwraps the final snapshot.
    pub fn into_index(mut self) -> TreePiIndex {
        self.wait_remine_idle();
        self.stop_remine_thread();
        let placeholder = TreePiIndex::empty_like(self.pin().params().clone());
        let snapshot = {
            let mut cur = self.shared.current.lock().expect("engine snapshot");
            std::mem::replace(&mut *cur, Arc::new(placeholder))
        };
        drop(self);
        Arc::try_unwrap(snapshot).unwrap_or_else(|arc| (*arc).clone())
    }

    fn stop_remine_thread(&mut self) {
        if let Some(handle) = self.remine_thread.take() {
            self.shared.maint.lock().expect("maint state").shutdown = true;
            self.shared.remine_cv.notify_all();
            let _ = handle.join();
        }
    }

    /// The engine's worker pool (shared with index builds via
    /// [`TreePiIndex::build_with_pool_obs`] if desired).
    pub fn pool(&self) -> &Pool {
        &self.shared.pool
    }

    /// The pool's worker count.
    pub fn parallelism(&self) -> usize {
        self.shared.pool.parallelism()
    }

    /// Answer a batch of containment queries on the engine's pool against a
    /// pinned snapshot: [`Self::query_batch_pinned`] with metrics disabled.
    /// `_opts` and `_seed` are ignored: kept for the ledger's replay until
    /// ROADMAP item 1.
    pub fn query_batch(
        &self,
        queries: &[Graph],
        _opts: QueryOptions,
        _seed: u64,
    ) -> (Vec<QueryResult>, u64) {
        self.query_batch_pinned(queries, &obs::Shard::disabled())
    }

    /// [`Self::query_batch_pinned`] into a shard of `registry`, with an
    /// ignored `_opts` and `_seed`: kept for the ledger's replay until
    /// ROADMAP item 1.
    pub fn query_batch_obs(
        &self,
        queries: &[Graph],
        _opts: QueryOptions,
        _seed: u64,
        registry: &obs::Registry,
    ) -> (Vec<QueryResult>, u64) {
        let shard = registry.shard();
        let out = self.query_batch_pinned(queries, &shard);
        registry.absorb(shard);
        out
    }

    /// Answer a batch of containment queries against one pinned snapshot,
    /// returning per-query results in query order and the snapshot's epoch
    /// — the consistency witness used by the serving layer (cache
    /// admission) and the concurrency tests.
    ///
    /// The batch is one [`Pool::ordered_map`] whose seats return each
    /// result with its finish instant; this thread then records every query
    /// into `shard`, the caller's own
    /// ([`QueryStats::record_into`](crate::QueryStats::record_into)), the
    /// only recording. Those records are pure functions of the per-query
    /// outcomes, so their totals are bit-identical for any pool size.
    pub fn query_batch_pinned(
        &self,
        queries: &[Graph],
        shard: &obs::Shard,
    ) -> (Vec<QueryResult>, u64) {
        let snapshot = self.pin();
        let pool = &self.shared.pool;
        // Spend the pool across queries first; only when the batch can't
        // occupy it do queries get workers for their walk and verify.
        let intra = (pool.parallelism() / queries.len().max(1)).max(1);
        let results = pool.ordered_map(queries, |q| snapshot.query_with_pool(q, pool, intra));
        for (i, r) in results.iter().enumerate() {
            r.stats.record_into(shard, i as u64, r.finished);
        }
        (results, snapshot.maintenance_epoch())
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.stop_remine_thread();
    }
}

/// Body of the `treepi-remine` thread: wait for a snapshot request,
/// re-mine it on the shared pool (queries keep dispatching concurrently —
/// the pool queue accepts multiple dispatchers), replay ops applied in the
/// meantime, and publish under an epoch past the live one.
fn remine_loop(shared: &EngineShared) {
    loop {
        let snapshot = {
            let mut m = shared.maint.lock().expect("maint state");
            loop {
                if m.shutdown {
                    return;
                }
                if let Some(s) = m.remine_request.take() {
                    m.remine_inflight = true;
                    break s;
                }
                m = shared.remine_cv.wait(m).expect("maint state");
            }
        };
        let t0 = Instant::now();
        let remined = snapshot.remine_with_pool(&shared.pool);
        let duration = t0.elapsed();
        let mut m = shared.maint.lock().expect("maint state");
        let mut idx = remined;
        let replayed = m.journal.len();
        for op in m.journal.drain(..) {
            op.apply_to(&mut idx);
        }
        // Publish past the live epoch: replay bumps may still trail the
        // epochs the live applies reached, and caches require monotonicity.
        let mut cur = shared.current.lock().expect("engine snapshot");
        let epoch = cur.maintenance_epoch().max(idx.maintenance_epoch()) + 1;
        idx.maintenance_epoch = epoch;
        m.completed.push(RemineReport {
            duration,
            features: idx.feature_count(),
            epoch,
            replayed,
        });
        *cur = Arc::new(idx);
        drop(cur);
        m.remines_completed += 1;
        m.remine_inflight = false;
        shared.remine_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TreePiParams;
    use crate::verify::scan_support;
    use graph_core::graph_from;
    use std::sync::atomic::Ordering;

    fn index() -> TreePiIndex {
        let db = vec![
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1), (2, 3, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 1)]),
            graph_from(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]),
            graph_from(&[0, 1], &[(0, 1, 1)]),
        ];
        TreePiIndex::build(db, TreePiParams::quick())
    }

    /// One batch on an engine (and pool) created for the call, recorded
    /// into a shard of `registry`.
    fn batch(
        idx: &TreePiIndex,
        qs: &[Graph],
        threads: usize,
        registry: &obs::Registry,
    ) -> Vec<QueryResult> {
        let engine = Engine::new(idx.clone(), threads);
        let shard = registry.shard();
        let results = engine.query_batch_pinned(qs, &shard).0;
        registry.absorb(shard);
        results
    }

    fn queries() -> Vec<Graph> {
        vec![
            graph_from(&[0, 0], &[(0, 1, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]),
            graph_from(&[9, 9], &[(0, 1, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]),
        ]
    }

    #[test]
    fn batch_matches_oracle() {
        let idx = index();
        let qs = queries();
        let results = batch(&idx, &qs, 4, &obs::Registry::disabled());
        assert_eq!(results.len(), qs.len());
        for (q, r) in qs.iter().zip(&results) {
            assert_eq!(r.matches, scan_support(&idx, q));
        }
        let missing = results.iter().filter(|r| r.stats.missing_feature);
        assert_eq!(missing.count(), 1);
    }

    #[test]
    fn identical_across_thread_counts() {
        let idx = index();
        let qs = queries();
        let base = batch(&idx, &qs, 1, &obs::Registry::disabled());
        for threads in [2, 3, 8] {
            let r = batch(&idx, &qs, threads, &obs::Registry::disabled());
            assert_eq!(r.len(), base.len(), "threads {threads}");
            for (i, (a, b)) in base.iter().zip(&r).enumerate() {
                assert_eq!(
                    a.matches, b.matches,
                    "matches differ at query {i}, threads {threads}"
                );
                assert_eq!(
                    a.stats.filtered, b.stats.filtered,
                    "query {i}, threads {threads}"
                );
                assert_eq!(
                    a.stats.partition_size, b.stats.partition_size,
                    "query {i}, threads {threads}"
                );
                assert_eq!(
                    a.stats.missing_feature, b.stats.missing_feature,
                    "query {i}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn batch_equals_sequential_queries() {
        let idx = index();
        let qs = queries();
        let batch = batch(&idx, &qs, 8, &obs::Registry::disabled());
        for (i, q) in qs.iter().enumerate() {
            let seq = idx.query(q);
            assert_eq!(batch[i].matches, seq.matches, "query {i}");
            assert_eq!(batch[i].stats.filtered, seq.stats.filtered, "query {i}");
            assert_eq!(
                batch[i].stats.partition_size, seq.stats.partition_size,
                "query {i}"
            );
        }
    }

    /// No query reads the batch seed: two seeds, and 1, 2 or 8 workers,
    /// give the same results down to the partition, on molecule queries
    /// large enough to have many partitions.
    #[test]
    fn answers_and_stats_do_not_depend_on_the_seed() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let db = datagen::generate_chem(&datagen::ChemParams::sized(30), &mut rng);
        let qs: Vec<Graph> = [6, 12, 18]
            .into_iter()
            .flat_map(|m| datagen::extract_queries(&db, m, 4, &mut rng))
            .collect();
        let idx = TreePiIndex::build(db, TreePiParams::default());
        let key = |r: &QueryResult| {
            let s = &r.stats;
            let counts = (s.partition_size, s.sf_size, s.filtered);
            (r.matches.clone(), counts, (s.answers, s.missing_feature))
        };
        let mut base = None;
        for threads in [1usize, 2, 8] {
            let engine = Engine::new(idx.clone(), threads);
            for seed in [7, 2007] {
                let (r, _) = engine.query_batch(&qs, QueryOptions, seed);
                let got: Vec<_> = r.iter().map(key).collect();
                let want = base.get_or_insert_with(|| got.clone());
                assert_eq!(&got, want, "threads {threads}, seed {seed}");
            }
        }
    }

    #[test]
    fn empty_batch() {
        let idx = index();
        let reg = obs::Registry::new();
        assert!(batch(&idx, &[], 4, &reg).is_empty());
        assert_eq!(reg.drain().counter(obs::Counter::FUNNEL_QUERIES.name()), 0);
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert!(graph_core::par::resolve_threads(0) >= 1);
        assert_eq!(graph_core::par::resolve_threads(3), 3);
        let idx = index();
        let qs = queries();
        let r0 = batch(&idx, &qs, 0, &obs::Registry::disabled());
        let r1 = batch(&idx, &qs, 1, &obs::Registry::disabled());
        for (a, b) in r0.iter().zip(&r1) {
            assert_eq!(a.matches, b.matches);
        }
    }

    #[test]
    fn obs_funnel_reconciles_and_is_thread_invariant() {
        let idx = index();
        let qs = queries();
        let run = |threads: usize| {
            let reg = obs::Registry::new();
            let results = batch(&idx, &qs, threads, &reg);
            (results, reg.drain())
        };
        let (base_r, base_m) = run(1);
        // Counters reconcile exactly with the per-query stats.
        assert_eq!(
            base_m.counter(obs::Counter::FUNNEL_QUERIES.name()),
            qs.len() as u64
        );
        type Field = fn(&crate::QueryStats) -> u32;
        let fields: [(obs::Counter, Field); 7] = [
            (obs::Counter::FUNNEL_FILTERED, |s| s.filtered),
            (obs::Counter::FUNNEL_ANSWERS, |s| s.answers),
            (obs::Counter::FUNNEL_MISSING_FEATURE, |s| {
                u32::from(s.missing_feature)
            }),
            (obs::Counter::WALK_PROBES, |s| s.walk_probes),
            (obs::Counter::WALK_ENCODES, |s| s.walk_encodes),
            (obs::Counter::WALK_HITS, |s| s.walk_hits),
            (obs::Counter::VERIFY_TESTS, |s| s.verify_tests),
        ];
        for (id, field) in fields {
            let total: u64 = base_r.iter().map(|r| u64::from(field(&r.stats))).sum();
            assert_eq!(base_m.counter(id.name()), total, "{}", id.name());
        }
        // The `[9, 9]` query takes the missing-feature short-circuit.
        let missing = obs::Counter::FUNNEL_MISSING_FEATURE.name();
        assert_eq!(base_m.counter(missing), 1);
        // All three pipeline spans observed once per query.
        for id in obs::Span::PIPELINE {
            let span = base_m.span(id.name()).expect("pipeline span present");
            assert_eq!(span.count, qs.len() as u64, "{}", id.name());
        }
        // Every deterministic counter is bit-identical at any thread count.
        for threads in [2, 8] {
            let (_, m) = run(threads);
            assert_eq!(
                m.deterministic_counters(),
                base_m.deterministic_counters(),
                "threads={threads}"
            );
        }
    }

    /// The engine runs no Algorithm 2: a batch makes no CDC test and no
    /// distance-oracle BFS.
    #[test]
    fn batches_run_no_center_distance_pruning() {
        let idx = index();
        let reg = obs::Registry::new();
        let results = batch(&idx, &queries(), 2, &reg);
        assert!(results.iter().any(|r| r.stats.filtered > 0));
        let m = reg.drain();
        assert_eq!(m.counter(obs::Counter::PRUNE_CDC_TESTS.name()), 0);
        assert_eq!(m.counter(obs::Counter::GRAPH_BFS.name()), 0);
    }

    #[test]
    fn tracing_batch_emits_stage_timeline_per_query() {
        let idx = index();
        let qs = queries();
        for threads in [1usize, 3] {
            let reg = obs::Registry::with_tracing();
            batch(&idx, &qs, threads, &reg);
            let events = reg.drain_trace();
            // Every slice is a stage of one query, on the caller's lane.
            assert_eq!(events.len(), qs.len() * obs::Span::PIPELINE.len());
            assert!(events.iter().all(|e| e.lane == events[0].lane));
            // Each query contributes its three pipeline stages, tagged with
            // its batch position and laid end to end.
            for q in 0..qs.len() as u64 {
                let stages: Vec<_> = obs::Span::PIPELINE
                    .map(|span| {
                        let mut of = events
                            .iter()
                            .filter(|e| e.query == Some(q) && e.name == span.name());
                        let e = of.next().expect("stage traced");
                        assert!(of.next().is_none(), "{} twice for query {q}", span.name());
                        (e.start_ns, e.start_ns + e.dur_ns)
                    })
                    .into();
                for w in stages.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "query {q}, threads={threads}");
                }
            }
            // Metrics unaffected by tracing.
            let m = reg.drain();
            assert_eq!(
                m.counter(obs::Counter::FUNNEL_QUERIES.name()),
                qs.len() as u64
            );
        }
        // Non-tracing registry produces no events for the same batch.
        let reg = obs::Registry::new();
        batch(&idx, &qs, 2, &reg);
        assert!(reg.drain_trace().is_empty());
    }

    #[test]
    fn engine_reuses_pool_and_matches_transient_batches() {
        let idx = index();
        let qs = queries();
        let base = batch(&idx, &qs, 1, &obs::Registry::disabled());
        for threads in [1usize, 2, 8] {
            let engine = Engine::new(index(), threads);
            assert_eq!(engine.parallelism(), threads);
            // Several batches on the same pool: results stay identical.
            for _ in 0..3 {
                let (r, _) = engine.query_batch_pinned(&qs, &obs::Shard::disabled());
                assert_eq!(r.len(), base.len(), "threads {threads}");
                for (a, b) in base.iter().zip(&r) {
                    assert_eq!(a.matches, b.matches, "threads {threads}");
                    assert_eq!(a.stats.filtered, b.stats.filtered, "threads {threads}");
                }
            }
            let recovered = engine.into_index();
            assert_eq!(recovered.db().len(), index().db().len());
        }
    }

    #[test]
    fn engine_maintenance_bumps_epoch_and_changes_answers() {
        let engine = Engine::new(index(), 2);
        let q = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]);
        let (before, _) =
            engine.query_batch_pinned(std::slice::from_ref(&q), &obs::Shard::disabled());
        let e0 = engine.epoch();

        // A cache keyed on the epoch would hold `before`; the insert must
        // bump the epoch AND the fresh answer must include the new graph.
        let gid = engine.insert(graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]));
        assert!(engine.epoch() > e0, "insert must bump the epoch");
        let (after, _) =
            engine.query_batch_pinned(std::slice::from_ref(&q), &obs::Shard::disabled());
        assert!(after[0].matches.contains(&gid));
        assert_ne!(before[0].matches, after[0].matches);
        assert_eq!(after[0].matches, scan_support(&engine.pin(), &q));

        // Remove through the engine: epoch bumps again, answer reverts.
        let e1 = engine.epoch();
        assert!(engine.remove(gid));
        assert!(engine.epoch() > e1, "remove must bump the epoch");
        let (reverted, _) =
            engine.query_batch_pinned(std::slice::from_ref(&q), &obs::Shard::disabled());
        assert_eq!(reverted[0].matches, before[0].matches);
    }

    #[test]
    fn serving_path_insert_registers_novel_edge_feature() {
        // σ(1) = 1 under maintenance: a graph inserted through the running
        // engine whose edge (labels 7-7, edge label 3) exists nowhere in
        // the database must become queryable — the single-edge tree is
        // registered as a fresh feature, so the query is answered by real
        // support intersection, not a stale MissingFeature short-circuit.
        let engine = Engine::new(index(), 2);
        let q = graph_from(&[7, 7], &[(0, 1, 3)]);
        let (miss, _) =
            engine.query_batch_pinned(std::slice::from_ref(&q), &obs::Shard::disabled());
        assert!(miss[0].matches.is_empty());
        assert!(miss[0].stats.missing_feature, "edge unknown before insert");

        let gid = engine.insert(graph_from(&[7, 7, 0], &[(0, 1, 3), (1, 2, 0)]));
        let (hit, _) = engine.query_batch_pinned(std::slice::from_ref(&q), &obs::Shard::disabled());
        assert!(
            !hit[0].stats.missing_feature,
            "novel edge must be a feature after the insert"
        );
        assert_eq!(hit[0].matches, vec![gid]);
        assert_eq!(hit[0].matches, scan_support(&engine.pin(), &q));
    }

    #[test]
    fn signatures_stay_consistent_through_maintenance_and_remine() {
        // The sigs invariant (`sigs[gid] == sig::graph_sigs(&db[gid])`) must
        // survive every §7.1 maintenance path: inserts, removes, and a
        // background re-mine publishing mid-stream.
        let engine = Engine::with_remine(index(), 2, 3);
        assert!(engine.pin().sigs_consistent());
        let g1 = engine.insert(graph_from(&[0, 1, 2], &[(0, 1, 0), (1, 2, 1)]));
        let _g2 = engine.insert(graph_from(&[0, 0], &[(0, 1, 0)]));
        assert!(engine.pin().sigs_consistent(), "after inserts");
        assert!(engine.remove(g1));
        engine.insert(graph_from(&[1, 1, 1], &[(0, 1, 1), (1, 2, 1)]));
        assert!(engine.pin().sigs_consistent(), "after remove + insert");
        engine.wait_remine_idle();
        assert!(engine.pin().sigs_consistent(), "after background re-mine");
        assert!(engine.into_index().sigs_consistent());
    }

    /// With no pin held across it, a write mutates the published index
    /// itself: pins before and after are the same allocation, and every
    /// applied op counts as one swap. A remove of an inactive gid changes
    /// nothing, not even under a pin.
    #[test]
    fn apply_is_in_place_when_unpinned() {
        let q = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]);
        let g = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]);
        for threads in [1usize, 2, 8] {
            let engine = Engine::new(index(), threads);
            let first = Arc::as_ptr(&engine.pin());
            let gid = engine.insert(g.clone());
            assert!(engine.remove(0));
            assert_eq!(engine.insert(g.clone()), gid + 1, "gids are dense");
            assert!(engine.remove(gid));
            let after = engine.pin();
            assert_eq!(Arc::as_ptr(&after), first, "{threads} workers: copied");
            let stats = engine.maint_stats();
            assert_eq!((stats.applied, stats.snapshot_swaps), (4, 4));
            // Removing an inactive gid (already removed, or never
            // assigned) while a pin is held neither copies nor publishes.
            let epoch = after.maintenance_epoch();
            assert!(!engine.remove(gid), "second remove of {gid}");
            assert!(!engine.remove(u32::MAX));
            assert!(Arc::ptr_eq(&after, &engine.pin()), "{threads} workers");
            assert_eq!(engine.epoch(), epoch);
            assert_eq!(engine.maint_stats(), stats);
            let (r, _) =
                engine.query_batch_pinned(std::slice::from_ref(&q), &obs::Shard::disabled());
            assert_eq!(r[0].matches, scan_support(&after, &q));
            assert!(!after.is_active(0) && !after.is_active(gid));
            assert!(after.sigs_consistent() && after.postings_consistent());
            // A pin held across the next write makes it copy, and keeps its
            // own version.
            engine.insert(g.clone());
            assert!(!Arc::ptr_eq(&after, &engine.pin()));
            assert_eq!(after.maintenance_epoch(), epoch);
            assert_eq!(engine.epoch(), epoch + 1);
        }
    }

    /// Held and released pins alternate over inserts and removes: a held
    /// pin answers as it did when taken, however many applies follow, and
    /// every epoch's answers equal the scan oracle of that epoch.
    #[test]
    fn pinned_snapshot_is_immune_to_later_writes() {
        let q = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]);
        let g = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]);
        for threads in [1usize, 2, 8] {
            let engine = Engine::new(index(), threads);
            let mut held: Vec<(Arc<TreePiIndex>, Vec<u32>, usize)> = Vec::new();
            for step in 0..12 {
                let pin = engine.pin();
                let answer = scan_support(&pin, &q);
                let (r, _) =
                    engine.query_batch_pinned(std::slice::from_ref(&q), &obs::Shard::disabled());
                assert_eq!(r[0].matches, answer, "step {step}, {threads} workers");
                // Odd steps hold their pin across every later write, even
                // steps release it before this step's write.
                if step % 2 == 1 {
                    let active = pin.active_count();
                    held.push((pin, answer, active));
                } else {
                    drop(pin);
                }
                if step % 3 == 2 {
                    // The lowest active gid: base graphs and inserted copies
                    // alike, many of them answers to `q`.
                    let snap = engine.pin();
                    let gid = (0..snap.db().len() as u32).find(|&g| snap.is_active(g));
                    drop(snap);
                    assert!(engine.remove(gid.expect("an active graph")));
                } else {
                    let gid = engine.insert(g.clone());
                    for (pin, _, _) in &held {
                        assert!(!pin.is_active(gid));
                    }
                }
                for (i, (pin, answer, active)) in held.iter().enumerate() {
                    let what = format!("pin {i} after step {step}, {threads} workers");
                    assert_eq!(pin.active_count(), *active, "{what}");
                    assert_eq!(&scan_support(pin, &q), answer, "{what}");
                    assert_eq!(&pin.query(&q).matches, answer, "{what}");
                }
            }
            let epochs: Vec<u64> = held.iter().map(|(p, ..)| p.maintenance_epoch()).collect();
            assert!(epochs.windows(2).all(|w| w[0] < w[1]), "{epochs:?}");
        }
    }

    #[test]
    fn concurrent_batches_see_whole_epochs_under_churn() {
        use std::collections::HashMap;
        // Reader threads hammer pinned batches while this thread churns
        // the index; every batch must equal the scan oracle of exactly the
        // epoch it reports — never a torn mix of two versions.
        let engine = std::sync::Arc::new(Engine::new(index(), 2));
        let q = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let engine = std::sync::Arc::clone(&engine);
                let stop = std::sync::Arc::clone(&stop);
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut seen: Vec<(u64, Vec<u32>)> = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let (r, epoch) = engine
                            .query_batch_pinned(std::slice::from_ref(&q), &obs::Shard::disabled());
                        seen.push((epoch, r[0].matches.clone()));
                    }
                    seen
                })
            })
            .collect();

        let mut oracle: HashMap<u64, Vec<u32>> = HashMap::new();
        oracle.insert(engine.epoch(), scan_support(&engine.pin(), &q));
        let g = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]);
        let mut live: Vec<u32> = Vec::new();
        for round in 0..20 {
            if round % 3 == 2 {
                if let Some(gid) = live.pop() {
                    assert!(engine.remove(gid));
                }
            } else {
                live.push(engine.insert(g.clone()));
            }
            let snap = engine.pin();
            oracle.insert(snap.maintenance_epoch(), scan_support(&snap, &q));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            for (epoch, matches) in r.join().expect("reader") {
                let expected = oracle.get(&epoch).expect("epoch was published");
                assert_eq!(&matches, expected, "torn answer at epoch {epoch}");
            }
        }
    }

    #[test]
    fn background_remine_triggers_and_preserves_answers() {
        let engine = Engine::with_remine(index(), 2, 3);
        let q = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]);
        let g = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]);
        let a = engine.insert(g.clone());
        assert!(engine.remove(0));
        let b = engine.insert(g.clone()); // third applied op → trigger
        engine.wait_remine_idle();
        let stats = engine.maint_stats();
        assert_eq!(stats.remine_triggers, 1);
        assert_eq!(stats.remines_completed, 1);
        assert!(stats.snapshot_swaps >= 4, "three applied ops + one re-mine");
        let reports = engine.drain_remine_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].epoch, engine.epoch());
        assert!(engine.drain_remine_reports().is_empty(), "drained");
        // The re-mined snapshot answers exactly like the scan oracle and
        // keeps gids stable.
        let snap = engine.pin();
        assert!(!snap.is_active(0));
        assert!(snap.is_active(a) && snap.is_active(b));
        let (r, _) = engine.query_batch_pinned(std::slice::from_ref(&q), &obs::Shard::disabled());
        assert_eq!(r[0].matches, scan_support(&snap, &q));
        assert!(r[0].matches.contains(&a) && r[0].matches.contains(&b));
        // And it equals a fresh build over the survivors feature-for-feature
        // (gid-stable re-mine: supports keep original ids).
        let final_idx = engine.into_index();
        assert_eq!(final_idx.maintenance_epoch(), reports[0].epoch);
        for f in final_idx.features() {
            assert!(!f.support.contains(&0), "removed gid must not resurface");
        }
    }

    #[test]
    fn ops_during_remine_are_replayed_onto_the_result() {
        // Threshold 1: the first apply triggers a re-mine; ops applied
        // while it runs land in the journal and must survive the swap.
        for _ in 0..3 {
            let engine = Engine::with_remine(index(), 2, 1);
            let q = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]);
            let g = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]);
            let mut gids = Vec::new();
            for _ in 0..5 {
                gids.push(engine.insert(g.clone()));
            }
            assert!(engine.remove(gids[0]));
            engine.wait_remine_idle();
            let snap = engine.pin();
            let expected = scan_support(&snap, &q);
            for &gid in &gids[1..] {
                assert!(
                    expected.contains(&gid),
                    "journaled insert {gid} lost across re-mine swap"
                );
            }
            assert!(!expected.contains(&gids[0]));
            let (r, _) =
                engine.query_batch_pinned(std::slice::from_ref(&q), &obs::Shard::disabled());
            assert_eq!(r[0].matches, expected);
        }
    }

    #[test]
    fn distinct_queries_get_distinct_streams() {
        use rand::RngCore;
        let mut a = query_rng(1, 0);
        let mut b = query_rng(1, 1);
        let mut c = query_rng(2, 0);
        let (xa, xb, xc) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_ne!(xa, xb);
        assert_ne!(xa, xc);
        // and the obvious aliasing (seed+1, i) vs (seed, i+1) is avoided
        let mut d = query_rng(0, 1);
        let mut e = query_rng(1, 0);
        assert_ne!(d.next_u64(), e.next_u64());
    }
}
