//! One function per paper figure. Each regenerates the figure's series at
//! the selected scale into a `Table`, whose `emit` prints it and writes its
//! CSV from the same cells.
//!
//! Quick scale is ~1:8 of the paper (database sizes, query counts, and the
//! low/high support split threshold all scale together), so the *shapes* —
//! who wins, by what factor, where curves cross — remain comparable.

use crate::common::*;
use crate::pipeline::{Funnel, Variant};
use datagen::{extract_queries, perturb_labels};
use gindex::{GIndex, GIndexParams};
use graph_core::Graph;
use obs::Counter;
use treepi::{Engine, TreePiIndex, TreePiParams};

/// Say on stderr when a `system` build over `n` graphs that `figure` times
/// was cut short by its miner's per-level guard: the figure then shows a
/// smaller index than its parameters define.
fn note_truncation(figure: &str, system: &str, truncated: bool, n: usize) {
    if truncated {
        eprintln!("{figure}: {system} mining truncated at N = {n}");
    }
}

/// Build both indexes over one database (timed) for `figure`.
fn build_both(figure: &str, db: &[Graph]) -> (TreePiIndex, f64, GIndex, f64) {
    let (tp, t_tp) = timed(|| TreePiIndex::build(db.to_vec(), TreePiParams::default()));
    note_truncation(figure, "TreePi", tp.stats().truncated, db.len());
    let (gi, t_gi) = timed(|| GIndex::build(db.to_vec(), GIndexParams::paper_default(db.len())));
    note_truncation(figure, "gIndex", gi.stats().truncated, db.len());
    (tp, ms(t_tp), gi, ms(t_gi))
}

/// `n` graphs of `dataset`: the AIDS surrogate for `chem`, else the
/// synthetic family with 5 vertex labels.
fn database(opts: &Opts, dataset: &str, n: usize) -> Vec<Graph> {
    match dataset {
        "chem" => chem_db(opts, n),
        _ => synthetic_db(opts, n, 5).0,
    }
}

/// Per-stage wall-time breakdown from one `obs` shard per system: one metered
/// batch run per system, printed as a table (total / mean / p95 per
/// pipeline stage) and written to `stages_{dataset}.csv`. gIndex reports
/// under the same span names; its partition row is zero by construction —
/// that empty cell *is* the comparison the paper makes.
fn stage_breakdown(opts: &Opts, dataset: &str, tp: &Engine, gi: &GIndex, queries: &[Graph]) {
    let tp_shard = obs::Shard::detached(true);
    let _ = tp.query_batch_pinned(queries, &tp_shard);
    let tp_m = tp_shard.into_set();
    let gi_shard = obs::Shard::detached(true);
    let _ = gi.query_batch_pool_obs(queries, tp.pool(), &gi_shard);
    let gi_m = gi_shard.into_set();
    println!(
        "-- stage breakdown over {} queries of size {} (obs spans, both systems) --",
        queries.len(),
        queries.first().map_or(0, |q| q.edge_count())
    );
    let mut table = Table::new(
        format!("stages_{dataset}.csv"),
        "stage,treepi_total_ms,treepi_mean_us,treepi_p50_us,treepi_p95_us,gindex_total_ms,gindex_mean_us,gindex_p50_us,gindex_p95_us",
    );
    for name in obs::Span::PIPELINE.map(obs::Span::name) {
        let mut cells = vec![name.to_string()];
        for m in [&tp_m, &gi_m] {
            let s = m.span(name).cloned().unwrap_or_default();
            cells.extend([
                format!("{:.3}", s.total_ns as f64 / 1e6),
                format!("{:.3}", s.mean_ns() as f64 / 1e3),
                format!("{:.3}", s.quantile_ns(0.50) as f64 / 1e3),
                format!("{:.3}", s.quantile_ns(0.95) as f64 / 1e3),
            ]);
        }
        table.row(cells);
    }
    println!(
        "   funnel: {} queries, |Pq| {} -> |Dq| {} (gIndex |Cq| {})",
        tp_m.counter(Counter::FUNNEL_QUERIES.name()),
        tp_m.counter(Counter::FUNNEL_FILTERED.name()),
        tp_m.counter(Counter::FUNNEL_ANSWERS.name()),
        gi_m.counter(Counter::FUNNEL_FILTERED.name()),
    );
    table.emit(opts);
}

/// Figures 9 and 12(a)/13(a): both indexes built over `dataset` at each
/// of the paper's database `sizes` (scaled), their feature counts and
/// build times written to `file`.
pub fn build_sweep(opts: &Opts, figure: &str, dataset: &str, sizes: &[usize], file: &str) {
    println!("== Figure {figure}: index size and construction time vs N ({dataset}) ==");
    let mut table = Table::new(
        file,
        "n,treepi_features,gindex_features,treepi_build_ms,gindex_build_ms",
    );
    for n in sizes.iter().map(|&n| opts.scale.n(n)) {
        let db = database(opts, dataset, n);
        let (tp, t_tp, gi, t_gi) = build_both(&format!("Figure {figure}"), &db);
        table.row(vec![
            n.to_string(),
            tp.feature_count().to_string(),
            gi.feature_count().to_string(),
            format!("{t_tp:.1}"),
            format!("{t_gi:.1}"),
        ]);
    }
    table.emit(opts);
}

/// Per-query measurements shared by Figures 10 and 11.
struct QueryPoint {
    m: usize,
    dq: usize,  // |D_q| (truth)
    cq: usize,  // |C_q| (gIndex candidates)
    ppq: usize, // |P'_q| (TreePi candidates after Algorithm 2)
}

fn measure_queries(
    opts: &Opts,
    db: &[Graph],
    tp: &TreePiIndex,
    gi: &GIndex,
    m_values: &[usize],
    per_size: usize,
    stage: &str,
) -> Vec<QueryPoint> {
    let mut rng = rng_for(opts, stage);
    let mut points = Vec::new();
    for &m in m_values {
        for q in extract_queries(db, m, per_size, &mut rng) {
            let f = Funnel::of(tp, &q, Variant::PAPER);
            let (cands, _) = gi.candidates(&q);
            points.push(QueryPoint {
                m,
                dq: f.answers,
                cq: cands.len(),
                ppq: f.pruned,
            });
        }
    }
    points
}

/// Figure 10: pruning performance (candidate-set size vs query edge size),
/// split into low- and high-support query groups.
pub fn fig10(opts: &Opts, group: Option<&str>) {
    println!("== Figure 10: pruning performance on Γ_10k (low/high support) ==");
    let n = opts.scale.n(10_000);
    // Paper threshold: support 50 on 10k graphs; keep the same fraction.
    let threshold = (50 * n).div_ceil(10_000);
    let db = chem_db(opts, n);
    let (tp, _, gi, _) = build_both("Figure 10", &db);
    let m_values = [4usize, 8, 12, 16, 20, 24];
    let per_size = opts.scale.queries(1000);
    let points = measure_queries(opts, &db, &tp, &gi, &m_values, per_size, "fig10");

    for (name, low) in [("low", true), ("high", false)] {
        if group.is_some_and(|g| g != name) {
            continue;
        }
        println!(
            "-- {name}-support queries (|Dq| {} {threshold}) --",
            if low { "<" } else { ">=" }
        );
        let mut table = Table::new(
            format!("fig10_{name}.csv"),
            "group,m,queries,gindex_cq,treepi_ppq,actual_dq",
        );
        for &m in &m_values {
            let sel: Vec<&QueryPoint> = points
                .iter()
                .filter(|p| p.m == m && ((p.dq < threshold) == low))
                .collect();
            if sel.is_empty() {
                continue;
            }
            let k = sel.len();
            let avg = |f: fn(&QueryPoint) -> usize| {
                sel.iter().map(|p| f(p)).sum::<usize>() as f64 / k as f64
            };
            table.row(vec![
                name.to_string(),
                m.to_string(),
                k.to_string(),
                format!("{:.2}", avg(|p| p.cq)),
                format!("{:.2}", avg(|p| p.ppq)),
                format!("{:.2}", avg(|p| p.dq)),
            ]);
        }
        table.emit(opts);
    }
}

/// Figure 11: prune effectiveness — candidate-set size as a function of the
/// actual support |Dq| (real dataset in (a), synthetic in (b)).
pub fn fig11(opts: &Opts, dataset: &str) {
    let (db, label) = match dataset {
        "chem" => (
            chem_db(opts, opts.scale.n(10_000)),
            "Γ_10k (AIDS surrogate)".to_string(),
        ),
        _ => synthetic_db(opts, opts.scale.n(8_000), 4),
    };
    println!("== Figure 11 ({dataset}): prune effectiveness on {label} ==");
    let (tp, _, gi, _) = build_both(&format!("Figure 11 ({dataset})"), &db);
    let m_values = [4usize, 8, 12, 16, 20];
    let per_size = opts.scale.queries(1000);
    let points = measure_queries(opts, &db, &tp, &gi, &m_values, per_size, "fig11");

    // Bucket by |Dq| (scaled from the paper's axis up to ~2000 at 10k).
    let n = db.len();
    let buckets: Vec<(usize, usize)> = [
        (1, 10),
        (10, 50),
        (50, 100),
        (100, 250),
        (250, 500),
        (500, 2000),
    ]
    .iter()
    .map(|&(a, b)| {
        (
            (a * n).div_ceil(10_000).max(1),
            (b * n).div_ceil(10_000).max(2),
        )
    })
    .collect();
    let mut table = Table::new(
        format!("fig11_{dataset}.csv"),
        "dq_lo,dq_hi,queries,avg_dq,gindex_cq,treepi_ppq",
    );
    for (lo, hi) in buckets {
        let sel: Vec<&QueryPoint> = points.iter().filter(|p| p.dq >= lo && p.dq < hi).collect();
        if sel.is_empty() {
            continue;
        }
        let k = sel.len();
        let avg =
            |f: fn(&QueryPoint) -> usize| sel.iter().map(|p| f(p)).sum::<usize>() as f64 / k as f64;
        table.row(vec![
            lo.to_string(),
            hi.to_string(),
            k.to_string(),
            format!("{:.2}", avg(|p| p.dq)),
            format!("{:.2}", avg(|p| p.cq)),
            format!("{:.2}", avg(|p| p.ppq)),
        ]);
    }
    table.emit(opts);
}

/// Build scaling: TreePi construction wall time vs worker threads on one
/// fixed database per dataset. Every run also checks that the built index
/// serializes to the same bytes as the 1-thread build — the speedup column
/// is only meaningful because the output is provably identical.
pub fn buildscale(opts: &Opts, dataset: &str) {
    println!("== build scaling: TreePi construction vs threads ({dataset}) ==");
    let n = opts.scale.n(4000);
    let db = database(opts, dataset, n);
    let mut table = Table::new(
        format!("build_scaling_{dataset}.csv"),
        "dataset,n,threads,build_ms,speedup,features",
    );
    let mut base_ms = 0.0f64;
    let mut base_bytes: Vec<u8> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (idx, t) = timed(|| {
            TreePiIndex::build_with_threads_obs(
                db.clone(),
                TreePiParams::default(),
                threads,
                &obs::Shard::disabled(),
            )
        });
        let t = ms(t);
        let mut bytes = Vec::new();
        idx.save(&mut bytes).expect("in-memory save");
        if threads == 1 {
            note_truncation(
                &format!("build scaling ({dataset})"),
                "TreePi",
                idx.stats().truncated,
                n,
            );
            base_ms = t;
            base_bytes = bytes;
        } else {
            assert!(
                bytes == base_bytes,
                "parallel build diverged at {threads} threads"
            );
        }
        table.row(vec![
            dataset.to_string(),
            n.to_string(),
            threads.to_string(),
            format!("{t:.1}"),
            format!("{:.3}", base_ms / t),
            idx.feature_count().to_string(),
        ]);
    }
    table.emit(opts);
}

/// Figures 12(b)/13(b): query processing time vs query edge size.
pub fn fig_query_time(opts: &Opts, dataset: &str) {
    let figure = if dataset == "chem" { "12(b)" } else { "13(b)" };
    println!("== Figure {figure}: query processing time ({dataset}) ==");
    let (n, m_values, paper_queries) = match dataset {
        "chem" => (6_000, vec![4, 8, 12, 16, 20, 24], 1000),
        _ => (8_000, vec![4, 8, 12, 16], 500),
    };
    let db = database(opts, dataset, opts.scale.n(n));
    let (tp, _, gi, _) = build_both(&format!("Figure {figure}"), &db);
    // The batch series runs on an engine at full available parallelism; the
    // sequential series reads the same index through its pinned snapshot.
    let engine = Engine::new(tp, 0);
    let tp = engine.pin();
    let per_size = opts.scale.queries(paper_queries);
    let mut rng = rng_for(opts, "figquery");
    let mut table = Table::new(
        format!("fig_query_{dataset}.csv"),
        "m,treepi_ms_per_query,treepi_par_ms_per_query,gindex_ms_per_query,speedup",
    );
    let mut breakdown_queries: Option<Vec<Graph>> = None;
    for &m in &m_values {
        let queries = extract_queries(&db, m, per_size, &mut rng);
        // The breakdown below runs on the largest query size, where the
        // per-stage split is most pronounced.
        breakdown_queries = Some(queries.clone());
        let (answers_tp, t_tp) = timed(|| {
            let answers = queries.iter().map(|q| tp.query(q).matches);
            answers.collect::<Vec<_>>()
        });
        let (answers_gi, t_gi) = timed(|| {
            let answers = queries.iter().map(|q| gi.query(q).matches);
            answers.collect::<Vec<_>>()
        });
        assert_eq!(answers_tp, answers_gi, "systems disagree at m={m}");
        // Parallel series: the batch engine at full available parallelism.
        let (answers_par, t_par) = timed(|| {
            let off = obs::Shard::disabled();
            let (results, _) = engine.query_batch_pinned(&queries, &off);
            results.into_iter().map(|r| r.matches).collect::<Vec<_>>()
        });
        assert_eq!(
            answers_tp, answers_par,
            "parallel engine disagrees at m={m}"
        );
        let k = queries.len() as f64;
        let (tp_ms, par_ms, gi_ms) = (ms(t_tp) / k, ms(t_par) / k, ms(t_gi) / k);
        table.row(vec![
            m.to_string(),
            format!("{tp_ms:.3}"),
            format!("{par_ms:.3}"),
            format!("{gi_ms:.3}"),
            format!("{:.2}", gi_ms / tp_ms),
        ]);
    }
    table.emit(opts);
    if let Some(queries) = &breakdown_queries {
        stage_breakdown(opts, dataset, &engine, &gi, queries);
    }
}

/// Ablations called out in DESIGN.md: contribution of each pipeline stage
/// and sensitivity to γ. Every pipeline configuration also runs on a near
/// miss of each query (one vertex label swapped, `datagen::perturb_labels`):
/// candidates that pass the filter but do not contain the query, the
/// traffic the anchored search's signature gate exists for.
pub fn ablate(opts: &Opts) {
    println!("== Ablations (not in the paper; DESIGN.md table `tab-ablate`) ==");
    let n = opts.scale.n(4_000);
    let db = chem_db(opts, n);
    let tp = TreePiIndex::build(db.clone(), TreePiParams::default());
    let per_size = opts.scale.queries(400);
    let mut rng = rng_for(opts, "ablate");
    let mut queries = extract_queries(&db, 8, per_size, &mut rng);
    queries.extend(extract_queries(&db, 16, per_size, &mut rng));
    let near_miss: Vec<Graph> = queries
        .iter()
        .map(|q| perturb_labels(q, &mut rng))
        .collect();

    // `None` is the served pipeline; the rest combine the stage functions.
    let configs: [(&str, Option<Variant>); 4] = [
        ("default", None),
        ("paper pipeline (CDC on)", Some(Variant::PAPER)),
        (
            "naive verification",
            Some(Variant {
                vf2: true,
                ..Variant::default()
            }),
        ),
        (
            "SF = partition only",
            Some(Variant {
                partition_sf: true,
                ..Variant::default()
            }),
        ),
    ];
    let mut table = Table::new(
        "ablate_pipeline.csv",
        "config,queries,avg_pq,avg_ppq,avg_dq,ms_per_query",
    );
    for (set, queries) in [("extracted", &queries), ("near miss", &near_miss)] {
        let mut reference: Option<Vec<usize>> = None;
        for &(name, variant) in &configs {
            let (funnels, t) = timed(|| {
                let funnel = |q| match variant {
                    None => Funnel::from(&tp.query(q).stats),
                    Some(v) => Funnel::of(&tp, q, v),
                };
                queries.iter().map(funnel).collect::<Vec<Funnel>>()
            });
            let answers: Vec<usize> = funnels.iter().map(|f| f.answers).collect();
            let k = queries.len() as f64;
            let avg = |f: fn(&Funnel) -> usize| funnels.iter().map(f).sum::<usize>() as f64 / k;
            table.row(vec![
                name.to_string(),
                set.to_string(),
                format!("{:.2}", avg(|f| f.filtered)),
                format!("{:.2}", avg(|f| f.pruned)),
                format!("{:.2}", avg(|f| f.answers)),
                format!("{:.3}", ms(t) / k),
            ]);
            match &reference {
                None => reference = Some(answers),
                Some(r) => assert_eq!(r, &answers, "ablation '{name}' changed {set} answers"),
            }
        }
    }
    table.emit(opts);

    // γ sweep: index size and filtering strength trade-off (§4.1.2).
    println!("-- shrinking parameter γ sweep --");
    let mut table = Table::new(
        "ablate_gamma.csv",
        "gamma,features,mem_kib,avg_ppq,build_ms",
    );
    for gamma in [0.5, 1.0, 1.5, 2.0, 3.0] {
        let params = TreePiParams {
            gamma,
            ..TreePiParams::default()
        };
        let (idx, t_build) = timed(|| TreePiIndex::build(db.clone(), params));
        let figure = format!("ablate (γ = {gamma})");
        note_truncation(&figure, "TreePi", idx.stats().truncated, db.len());
        let pruned: usize = queries
            .iter()
            .map(|q| Funnel::of(&idx, q, Variant::PAPER).pruned)
            .sum();
        table.row(vec![
            gamma.to_string(),
            idx.feature_count().to_string(),
            (idx.memory_estimate() / 1024).to_string(),
            format!("{:.2}", pruned as f64 / queries.len() as f64),
            format!("{:.1}", ms(t_build)),
        ]);
    }
    table.emit(opts);
}

/// Feature-class comparison (the paper's §1 argument in one table): paths
/// (GraphGrep) vs frequent subtrees (TreePi) vs frequent subgraphs
/// (gIndex) on the same database and query mix.
pub fn classes(opts: &Opts) {
    println!("== Feature classes: paths vs trees vs graphs ==");
    let n = opts.scale.n(4_000);
    let db = chem_db(opts, n);
    let (tp, t_tp) = timed(|| TreePiIndex::build(db.clone(), TreePiParams::default()));
    note_truncation("classes", "TreePi", tp.stats().truncated, n);
    let (gi, t_gi) = timed(|| GIndex::build(db.clone(), GIndexParams::paper_default(n)));
    note_truncation("classes", "gIndex", gi.stats().truncated, n);
    let (pg, t_pg) =
        timed(|| pathgrep::PathGrep::build(db.clone(), pathgrep::PathGrepParams::default()));
    println!(
        "index sizes: pathgrep {} paths ({:.1}s), treepi {} trees ({:.1}s), gindex {} graphs ({:.1}s)",
        pg.feature_count(),
        ms(t_pg) / 1e3,
        tp.feature_count(),
        ms(t_tp) / 1e3,
        gi.feature_count(),
        ms(t_gi) / 1e3,
    );
    let per_size = opts.scale.queries(300);
    let mut rng = rng_for(opts, "classes");
    let mut table = Table::new(
        "feature_classes.csv",
        "m,path_cand,tree_ppq,graph_cq,dq,path_ms,tree_ms,graph_ms",
    );
    for m in [4usize, 8, 12, 16] {
        let queries = extract_queries(&db, m, per_size, &mut rng);
        let (mut f_pg, mut f_tp, mut f_gi, mut dq) = (0usize, 0usize, 0usize, 0usize);
        let mut t_pgq = std::time::Duration::ZERO;
        let mut t_tpq = std::time::Duration::ZERO;
        let mut t_giq = std::time::Duration::ZERO;
        for q in &queries {
            let (r, t) = timed(|| pg.query(q));
            f_pg += r.stats.filtered;
            t_pgq += t;
            let answers = r.matches.len();
            // |P'q| after Algorithm 2; the timed served query runs without.
            f_tp += Funnel::of(&tp, q, Variant::PAPER).pruned;
            let (r, t) = timed(|| tp.query(q));
            t_tpq += t;
            assert_eq!(r.matches.len(), answers);
            let (r, t) = timed(|| gi.query(q));
            f_gi += r.stats.filtered;
            t_giq += t;
            assert_eq!(r.matches.len(), answers);
            dq += answers;
        }
        let k = queries.len() as f64;
        table.row(vec![
            m.to_string(),
            format!("{:.2}", f_pg as f64 / k),
            format!("{:.2}", f_tp as f64 / k),
            format!("{:.2}", f_gi as f64 / k),
            format!("{:.2}", dq as f64 / k),
            format!("{:.3}", ms(t_pgq) / k),
            format!("{:.3}", ms(t_tpq) / k),
            format!("{:.3}", ms(t_giq) / k),
        ]);
    }
    table.emit(opts);
}

/// Dataset summaries (the paper's §6 dataset descriptions, recomputed for
/// the surrogates actually used).
pub fn datasets(opts: &Opts) {
    println!("== Dataset statistics ==");
    let chem = chem_db(opts, opts.scale.n(10_000));
    let (syn4, name4) = synthetic_db(opts, opts.scale.n(8_000), 4);
    let (syn40, name40) = synthetic_db(opts, opts.scale.n(8_000), 40);
    let mut table = Table::new(
        "datasets.csv",
        "dataset,graphs,mean_v,mean_e,mean_degree,vlabels,elabels,tree_fraction,mean_cycles",
    );
    for (name, db) in [
        ("AIDS surrogate".to_string(), &chem),
        (name4, &syn4),
        (name40, &syn40),
    ] {
        let s = graph_core::db_stats(db);
        table.row(vec![
            name,
            s.graphs.to_string(),
            format!("{:.2}", s.mean_vertices),
            format!("{:.2}", s.mean_edges),
            format!("{:.3}", s.mean_degree),
            s.vertex_labels.to_string(),
            s.edge_labels.to_string(),
            format!("{:.3}", s.tree_fraction),
            format!("{:.3}", s.mean_cycles),
        ]);
    }
    table.emit(opts);
}
