//! The metric catalog: every metric the program records, declared once.
//!
//! A row gives a metric's id, its name (the JSON key; with `.` written `_`,
//! the Prometheus family), its place in the determinism contract and a line
//! of help. The rows generate the id types [`Counter`], [`Gauge`] and
//! [`Span`]; records take ids, so an undeclared name or the wrong kind does
//! not compile. The miner's per-level metrics are families indexed by
//! level, [`Span::mine_level`] and [`MineLevel::at`]. A row is `exempt` when
//! its totals depend on arrival timing (`serve.*`, `cache.*`, `loadgen.*`,
//! `maint.*`), and `det` when they are a pure function of the input,
//! bit-identical at any worker count. Nothing records how work was
//! scheduled: the worker pool records no metric, and a query's counts and
//! stage times are recorded once, from its `QueryStats`, by the batch seat
//! that ran it. The input is what the pipeline executed: in a served run
//! the `funnel.*`, `walk.*`, `verify.*` and `query.*` counts cover only the
//! queries that missed the result cache, so which requests repeat —
//! arrival timing again — moves them, while each executed query's share
//! stays fixed.

#[derive(Clone, Copy, Debug)]
struct Entry {
    name: &'static str,
    deterministic: bool,
    help: &'static str,
}

macro_rules! det {
    (det) => {
        true
    };
    (exempt) => {
        false
    };
}

/// One id type: a `const` per declared row, numbered by a private enum,
/// then the rows of its level family (`$fam`, all deterministic).
macro_rules! kind {
    ($(#[$doc:meta])* $ty:ident, $ids:ident, $rows:ident,
     [$($id:ident $name:literal $det:ident $help:literal;)*],
     [$($fam:expr, $fhelp:literal;)*]) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $ty(u16);

        #[allow(non_camel_case_types)]
        #[repr(u16)]
        enum $ids {
            $($id,)*
        }

        const $rows: &[Entry] = &[
            $(Entry { name: $name, deterministic: det!($det), help: $help },)*
            $(Entry { name: $fam, deterministic: true, help: $fhelp },)*
        ];

        impl $ty {
            $(
                #[doc = concat!("`", $name, "`: ", $help)]
                pub const $id: $ty = $ty($ids::$id as u16);
            )*
            pub(crate) const COUNT: usize = $rows.len();

            /// Every id of this kind, in table order.
            pub(crate) fn all() -> impl Iterator<Item = $ty> {
                (0..Self::COUNT as u16).map($ty)
            }

            /// The metric's name.
            pub fn name(self) -> &'static str {
                $rows[self.index()].name
            }

            /// One line saying what the metric measures.
            pub(crate) fn help(self) -> &'static str {
                $rows[self.index()].help
            }

            /// Whether the determinism contract covers the metric.
            pub fn is_deterministic(self) -> bool {
                $rows[self.index()].deterministic
            }

            /// The id named `name`, if the catalog declares one of this kind.
            pub(crate) fn from_name(name: &str) -> Option<$ty> {
                Self::all().find(|id| id.name() == name)
            }

            pub(crate) fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

/// The three tables, the level families spelled out for each of `levels`.
macro_rules! catalog {
    (levels $($s:literal)*;
     $(#[$cd:meta])* Counter { $($c:tt)* }
     $(#[$gd:meta])* Gauge { $($g:tt)* }
     $(#[$sd:meta])* Span { $($sp:tt)* }) => {
        kind!($(#[$cd])* Counter, CounterId, COUNTERS, [$($c)*], [$(
            concat!("mine.level", $s, ".kinds"), "Tree-miner extension kinds encoded at this level.";
            concat!("mine.level", $s, ".candidates"), "Distinct candidate patterns the level's kinds form.";
            concat!("mine.level", $s, ".patterns"), "Candidates at this level frequent under sigma(s).";
            concat!("mine.level", $s, ".pruned_by_support"), "Candidates at this level sigma(s) rejected.";
            concat!("mine.level", $s, ".kept"), "Frequent patterns at this level the gamma test kept.";
            concat!("mine.level", $s, ".grown"), "Frequent patterns at this level past the growth bound.";
        )*]);
        kind!($(#[$gd])* Gauge, GaugeId, GAUGES, [$($g)*], []);
        kind!($(#[$sd])* Span, SpanId, SPANS, [$($sp)*], [$(
            concat!("mine.level", $s), "Wall time of one tree-miner level.";
        )*]);
    };
}

catalog! {
    levels 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32;

    /// A counter: a monotonic event tally; merging adds.
    Counter {
        FUNNEL_QUERIES "funnel.queries" det "Queries processed.";
        FUNNEL_FILTERED "funnel.filtered" det "Candidates surviving the support filter (sum of |P_q|).";
        FUNNEL_ANSWERS "funnel.answers" det "Exact answers (sum of |D_q|).";
        FUNNEL_MISSING_FEATURE "funnel.missing_feature" det "Queries short-circuited by a missing feature.";
        FUNNEL_PARTITION_PARTS "funnel.partition_parts" det "Parts of the queries' covers TP_q.";
        FUNNEL_SF_FEATURES "funnel.sf_features" det "Features in the queries' SF_q.";
        WALK_PROBES "walk.probes" det "Query edge subsets the guided subtree walk visited.";
        WALK_ENCODES "walk.encodes" det "Visited subsets whose shape may be a feature's, canonically encoded.";
        WALK_HITS "walk.hits" det "Encoded subsets that are stored features.";
        VERIFY_TESTS "verify.tests" det "Candidates the anchored search tested.";
        VERIFY_CENTER_SIG_KILLS "verify.center_sig_kills" det "Candidates refused because a part had no signature-compatible stored center.";
        PRUNE_CDC_TESTS "prune.cdc_tests" det "Candidates tested by center-distance pruning (Algorithm 2).";
        PRUNE_CENTER_SIG_KILLS "prune.center_sig_kills" det "Candidates center-distance pruning refused for a part without a compatible center.";
        GRAPH_BFS "graph.bfs" det "Breadth-first searches center-distance pruning ran.";
        GRAPH_ISO_TESTS "graph.iso_tests" det "Full subgraph isomorphism tests paid.";
        GINDEX_ENUMERATED "gindex.enumerated" det "Query subgraphs gIndex enumerated (after frequent-prefix pruning).";
        GINDEX_FRAGMENTS_USED "gindex.fragments_used" det "Indexed fragments gIndex's filter intersected.";
        BUILD_MINED "build.mined" det "Frequent trees the miner grew.";
        BUILD_FEATURES_KEPT "build.features_kept" det "Frequent trees the gamma test kept as features.";
        BUILD_TRUNCATED "build.truncated" det "1 if the miner's per-level guard discarded a level.";
        BUILD_SIG_VERTICES "build.sig_vertices" det "Vertices given a neighborhood signature.";
        BUILD_FEATURES "build.features" det "Features in the built index.";
        BUILD_CENTER_ENTRIES "build.center_entries" det "(feature, graph) center lists in the built index.";
        BUILD_CENTER_POSITIONS "build.center_positions" det "Center positions stored in the built index.";
        MINE_CANDIDATES "mine.candidates" det "Candidate patterns the tree miner formed, over all levels.";
        MINE_PATTERNS "mine.patterns" det "Frequent patterns the tree miner found, over all levels.";
        SERVE_REQUESTS "serve.requests" exempt "Request frames decoded.";
        SERVE_QUERIES "serve.queries" exempt "Query requests (cache hits, queued and shed included).";
        SERVE_SHED "serve.shed" exempt "Queries refused with Busy: the admission queue was full.";
        SERVE_BATCHES "serve.batches" exempt "Micro-batches dispatched to the engine.";
        SERVE_BATCHED_QUERIES "serve.batched_queries" exempt "Queries executed inside micro-batches.";
        SERVE_ERRORS "serve.errors" exempt "Malformed frames and protocol errors answered with E.";
        SERVE_SLOW_CONSUMER_DROP "serve.slow_consumer_drop" exempt "Connections dropped because their write buffer hit the cap.";
        SERVE_SLOW_QUERIES "serve.slow_queries" exempt "Queries captured into the slow-query log.";
        SERVE_STATS "serve.stats" exempt "STATS snapshots served.";
        SERVE_PROTO_ERROR "serve.proto_error" exempt "Connections dropped for an oversized declared frame length.";
        SERVE_HTTP_REQUESTS "serve.http_requests" exempt "HTTP monitoring requests served.";
        SERVE_CONNS_REFUSED "serve.conns_refused" exempt "Accepted connections dropped at once: max_conns open, or socket setup failed.";
        SERVE_ACCESS_LOG_WRITE_ERRORS "serve.access_log.write_errors" exempt "Access-log records and flushes lost to write errors.";
        SERVE_LOOP_STALL_COUNT "serve.loop.stall_count" exempt "Event-loop iterations whose work exceeded the stall threshold.";
        CACHE_HIT "cache.hit" exempt "Queries answered from the result cache.";
        CACHE_MISS "cache.miss" exempt "Result-cache misses.";
        CACHE_EVICTIONS "cache.evictions" exempt "Cache entries evicted by capacity.";
        CACHE_INVALIDATIONS "cache.invalidations" exempt "Whole-cache invalidations by a new index epoch.";
        LOADGEN_OK "loadgen.ok" exempt "Load-generator requests answered with matches.";
        LOADGEN_BUSY "loadgen.busy" exempt "Load-generator requests answered Busy.";
        LOADGEN_ERRORS "loadgen.errors" exempt "Load-generator transport and protocol errors.";
        MAINT_APPLIED "maint.applied" exempt "Inserts and removes that changed the published index.";
        MAINT_SNAPSHOT_SWAPS "maint.snapshot_swaps" exempt "Snapshots published: applied ops plus re-mine swaps.";
        MAINT_REMINE_TRIGGERS "maint.remine_triggers" exempt "Background re-mines triggered by accumulated repairs.";
        MAINT_REMINES_COMPLETED "maint.remines_completed" exempt "Background re-mines completed and swapped in.";
    }

    /// A gauge: a level (bytes held, a peak, a size); setting overwrites,
    /// merging keeps the larger.
    Gauge {
        MEM_ALLOC_LIVE_BYTES "mem.alloc.live_bytes" det "Bytes live per the tracking allocator.";
        MEM_ALLOC_PEAK_BYTES "mem.alloc.peak_bytes" det "Peak live bytes per the tracking allocator.";
        MEM_ALLOC_TOTAL_BYTES "mem.alloc.total_bytes" det "Bytes ever allocated.";
        MEM_ALLOC_ALLOCATIONS "mem.alloc.allocations" det "Allocation calls.";
        MEM_INDEX_BYTES "mem.index.bytes" det "Estimated heap bytes of the TreePi index.";
        MEM_INDEX_DB_BYTES "mem.index.db_bytes" det "Heap bytes of the indexed graph database.";
        MEM_INDEX_FEATURES_BYTES "mem.index.features_bytes" det "Heap bytes of the features' canonical strings.";
        MEM_INDEX_SUPPORTS_BYTES "mem.index.supports_bytes" det "Heap bytes of the per-feature support sets.";
        MEM_INDEX_CENTERS_BYTES "mem.index.centers_bytes" det "Heap bytes of the center-position tables.";
        MEM_INDEX_SIGS_BYTES "mem.index.sigs_bytes" det "Heap bytes of the per-vertex neighborhood signatures.";
        MEM_INDEX_TRIE_BYTES "mem.index.trie_bytes" det "Heap bytes of the canonical-string hash directory (4 bytes per slot, a power of two at most 3/4 full) and the shape filter.";
        MEM_GINDEX_BYTES "mem.gindex.bytes" det "Estimated heap bytes of the gIndex baseline.";
        MEM_GINDEX_FRAGMENTS_BYTES "mem.gindex.fragments_bytes" det "Heap bytes of the gIndex fragments (graphs and codes).";
        MEM_GINDEX_LOOKUP_BYTES "mem.gindex.lookup_bytes" det "Heap bytes of the gIndex code-to-fragment map.";
        SERVE_LOOP_MAX_STALL_US "serve.loop.max_stall_us" exempt "Longest event-loop stall, in microseconds.";
        SERVE_QUEUE_PEAK "serve.queue_peak" exempt "Peak admission-queue depth.";
        SERVE_QUEUE_DEPTH "serve.queue_depth" exempt "Admission-queue depth when a live snapshot was taken.";
        CACHE_ENTRIES "cache.entries" exempt "Resident result-cache entries.";
        MAINT_REPAIRS_SINCE_MINE "maint.repairs_since_mine" exempt "Ops applied since the last re-mine trigger.";
    }

    /// A span: a latency histogram of wall times; merging adds.
    Span {
        QUERY_PARTITION "query.partition" det "Query partition stage: the walk, the cover TP_q and SF_q.";
        QUERY_FILTER "query.filter" det "Query filter stage: support-set intersection (Algorithm 1).";
        QUERY_VERIFY "query.verify" det "Verification stage: the anchored search (Algorithm 3).";
        QUERY_PARTITION_ENUMERATE "query.partition.enumerate" det "Within the partition stage: enumerating the query's indexed subtrees.";
        BUILD_MINE "build.mine" det "Mining the feature trees and their posting lists.";
        BUILD_SIGS "build.sigs" det "Computing the per-vertex neighborhood signatures.";
        SERVE_REQUEST "serve.request" exempt "Admission to response of one served query.";
        SERVE_BATCH_EXEC "serve.batch_exec" exempt "One engine micro-batch.";
        SERVE_QUEUE_WAIT "serve.queue_wait" exempt "Admission to dispatch in the bounded queue.";
        SERVE_BATCH_WAIT "serve.batch_wait" exempt "Batch residence minus the query's own execution.";
        SERVE_EXEC_SHARE "serve.exec_share" exempt "The query's own pipeline time inside its batch.";
        SERVE_WRITE_WAIT "serve.write_wait" exempt "Response enqueued to socket flushed.";
        LOADGEN_REQUEST "loadgen.request" exempt "Client-observed round trip of one load-generator request.";
        MAINT_APPLY "maint.apply" exempt "One applied insert or remove.";
        MAINT_REMINE "maint.remine" exempt "One background re-mine build.";
    }
}

/// The highest level the level families name: the miner's levels are its
/// tree sizes, at most η (10 by default). `treepi build` refuses an η above
/// this; a library build with a deeper η records its deeper levels here.
pub const MAX_LEVEL: usize = 32;

/// Level `s`'s place in a family.
fn level_slot(s: usize) -> usize {
    s.clamp(1, MAX_LEVEL) - 1
}

/// The tree miner's six per-level counters, `mine.level{s}.<field>`, in
/// the order of the catalog's level rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MineLevel {
    /// Extension kinds encoded.
    Kinds,
    /// Distinct candidate patterns the kinds form.
    Candidates,
    /// Candidates frequent under σ(s).
    Patterns,
    /// Candidates σ(s) rejected.
    PrunedBySupport,
    /// Frequent patterns the γ test kept as features.
    Kept,
    /// Frequent patterns past the growth bound, extended.
    Grown,
}

impl MineLevel {
    /// The counter `mine.level{s}.<field>`.
    pub fn at(self, s: usize) -> Counter {
        let first = Counter::COUNT - MAX_LEVEL * 6;
        Counter((first + level_slot(s) * 6 + self as usize) as u16)
    }
}

impl Span {
    /// The three query pipeline stages in funnel order.
    pub const PIPELINE: [Span; 3] = [
        Span::QUERY_PARTITION,
        Span::QUERY_FILTER,
        Span::QUERY_VERIFY,
    ];

    /// A served query's latency decomposition: queue, batch, execute, write.
    pub const DECOMPOSITION: [Span; 4] = [
        Span::SERVE_QUEUE_WAIT,
        Span::SERVE_BATCH_WAIT,
        Span::SERVE_EXEC_SHARE,
        Span::SERVE_WRITE_WAIT,
    ];

    /// The span `mine.level{s}`: the wall time of the miner's level `s`.
    pub fn mine_level(s: usize) -> Span {
        Span((Span::COUNT - MAX_LEVEL + level_slot(s)) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row of every kind.
    fn rows() -> impl Iterator<Item = Entry> {
        COUNTERS.iter().chain(GAUGES).chain(SPANS).copied()
    }

    #[test]
    fn names_are_unique_legal_prometheus_families() {
        let names: std::collections::BTreeSet<_> = rows().map(|e| e.name).collect();
        assert_eq!(names.len(), rows().count());
        for name in names {
            // `.` → `_` must give `[a-zA-Z_][a-zA-Z0-9_]*`.
            let fam = name.replace('.', "_");
            assert!(fam.starts_with(|c: char| c.is_ascii_alphabetic()), "{name}");
            assert!(fam.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
        }
        // A counter's family gets `_total` appended, never twice.
        assert!(COUNTERS.iter().all(|e| !e.name.ends_with("_total")));
        assert!(rows().all(|e| !e.help.is_empty() && !e.help.contains(['\n', '\\'])));
    }

    /// A metric is exempt exactly when it lies in an arrival-timing
    /// namespace.
    #[test]
    fn determinism_flags_follow_the_namespaces() {
        let exempt = ["serve.", "cache.", "loadgen.", "maint."];
        for e in rows() {
            let want = !exempt.iter().any(|p| e.name.starts_with(p));
            assert_eq!(e.deterministic, want, "{}", e.name);
        }
    }

    #[test]
    fn level_families_name_their_level() {
        assert_eq!(Span::mine_level(1).name(), "mine.level1");
        assert_eq!(Span::mine_level(10).name(), "mine.level10");
        assert_eq!(Span::mine_level(MAX_LEVEL).name(), "mine.level32");
        assert_eq!(MineLevel::Kinds.at(1).name(), "mine.level1.kinds");
        assert_eq!(MineLevel::Grown.at(2).name(), "mine.level2.grown");
        let last = MineLevel::PrunedBySupport.at(MAX_LEVEL);
        assert_eq!(last.name(), "mine.level32.pruned_by_support");
        assert_eq!(MineLevel::PrunedBySupport.at(MAX_LEVEL + 5), last);
        assert_eq!(
            Counter::from_name("mine.level7.kept"),
            Some(MineLevel::Kept.at(7))
        );
        assert_eq!(Counter::from_name("maint.queued"), None);
        assert_eq!(Gauge::from_name("funnel.queries"), None);
    }
}
