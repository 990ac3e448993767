//! `treepi` — command-line interface to the TreePi graph index.
//!
//! Commands: `build`, `query`, `gquery` (the gIndex baseline), `stats` (of
//! an index file, or of a live server with `--addr`), `dbstats`, `gen`,
//! `scan` (the index-free baseline), `serve`, `loadgen` and `prom`.
//! [`COMMANDS`] lists each command's arguments and flags once: the usage
//! text (`treepi` without arguments) is printed from it, and a flag the
//! command does not list is an error naming the flag and the command,
//! before any file is read or socket bound. A value-taking flag given
//! last, or followed by another `--` flag, is an error naming it, never a
//! silent default.
//!
//! `--metrics out.json` enables the `obs` registry for the run and writes
//! the drained counters, `mem.*` gauges, and stage-span histograms as
//! stable JSON (schema `treepi.obs/v1`; see EXPERIMENTS.md). Without the
//! flag the pipeline runs with a disabled registry and records nothing —
//! except `serve`, whose registry is always on so the `STATS` admin op
//! (`treepi stats --addr`) can snapshot live metrics mid-load.
//!
//! `--trace out.json` (query, build) additionally collects a trace
//! timeline — per-query pipeline stages for `query`, build phases
//! (`build.mine` / `mine.levelN` / `build.sigs`) for
//! `build` — and writes it as Chrome trace-event JSON, loadable in
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! `--slow-query-us U` (serve) captures every query whose verify stage
//! takes at least `U` µs into a bounded forensics ring (counted under
//! `serve.slow_queries`); `--slow-log out.json` writes the captures as
//! Chrome trace events with the filter-funnel counters attached as args.
//!
//! `--http-addr HOST:PORT` (serve) opens the HTTP monitoring listener on
//! the same event loop: `GET /metrics` (live snapshot as Prometheus
//! text), `GET /healthz` (`ok` / `degraded` / `draining`), `GET /slowz`
//! (the current slow-query ring as Chrome trace JSON). Scraping
//! `/metrics` (or `treepi stats --addr`) at an interval is how a serve run's
//! levels are followed over time.
//! `--stall-threshold-us U` tunes the event-loop stall watchdog (default
//! 100000 µs; 0 disables it) and `--access-log out.jsonl` streams one
//! structured JSON record per request.
//!
//! `--remine-threshold N` (serve) re-mines the feature set on a
//! background thread after every N applied §7.1 insert/remove ops
//! (default 0 = never), swapping the rebuilt index in under a fresh
//! epoch while queries keep serving from pinned snapshots; progress is
//! visible as `maint.*` counters in STATS and `/metrics`.
//!
//! `prom` converts a saved `treepi.obs/v1` metrics file to the same
//! Prometheus text `/metrics` serves — useful for pushing one-shot build
//! or loadgen metrics through a pushgateway.
//!
//! Graph files use the gSpan transaction format (`t # i` / `v id label` /
//! `e u v label`); see `graph_core::io`.

use graph_core::io::{parse_graphs, write_graphs};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::process::ExitCode;
use treepi::{TreePiIndex, TreePiParams};

/// Count every (de)allocation of the process so `--metrics` runs can report
/// `mem.alloc.*` gauges. Compiled with the obs `off` feature, the wrapper
/// forwards straight to the system allocator without touching a counter.
#[global_allocator]
static ALLOC: obs::alloc::TrackingAlloc<std::alloc::System> =
    obs::alloc::TrackingAlloc::new(std::alloc::System);

/// Every command with its synopsis: the positional arguments, then each
/// flag it takes in brackets, followed by a placeholder when it takes a
/// value (the placeholder shows the default where there is one). The usage
/// text prints these lines and [`check_flags`] reads the flags from them.
const COMMANDS: [(&str, &str); 10] = [
    (
        "build",
        "<db.gspan> <index.tpi> [--alpha A] [--beta B] [--eta E] [--gamma G] \
         [--threads N] [--metrics out.json] [--trace out.json]",
    ),
    (
        "query",
        "<index.tpi> <queries.gspan> [--stats] [--threads N] [--metrics out.json] \
         [--trace out.json]",
    ),
    (
        "gquery",
        "<db.gspan> <queries.gspan> [--threads N] [--metrics out.json]",
    ),
    ("stats", "(<index.tpi> | --addr HOST:PORT)"),
    ("dbstats", "<db.gspan>"),
    (
        "gen",
        "<out.gspan> (--chem N | --synthetic N) [--labels 4] [--seed 2007]",
    ),
    ("scan", "<db.gspan> <queries.gspan> [--threads N]"),
    (
        "serve",
        "<index.tpi> [--addr 127.0.0.1:7878] [--threads N] [--max-batch 64] \
         [--queue-cap 1024] [--cache-cap 4096] [--max-requests 0] [--metrics out.json] \
         [--slow-query-us 0] [--slow-log out.json] [--http-addr HOST:PORT] \
         [--stall-threshold-us 100000] [--access-log out.jsonl] [--remine-threshold 0]",
    ),
    (
        "loadgen",
        "<addr> <queries.gspan> [--connections 4] [--requests 1000] [--rate R] \
         [--zipf 0.0] [--seed 42] [--shutdown] [--metrics out.json]",
    ),
    ("prom", "<metrics.json>"),
];

fn usage() {
    eprintln!("usage:");
    for (cmd, synopsis) in COMMANDS {
        eprintln!("  treepi {cmd:<7} {synopsis}");
    }
}

/// Refuse any `--` argument the command's synopsis does not list, any
/// listed value-taking flag without its value, and any argument beyond the
/// synopsis's `<…>` operands and the flags' values.
fn check_flags(cmd: &str, synopsis: &str, args: &[String]) -> Result<(), String> {
    let words: Vec<&str> = synopsis
        .split([' ', '[', ']', '(', ')', '|'])
        .filter(|w| !w.is_empty())
        .collect();
    let operands = words.iter().filter(|w| w.starts_with('<')).count();
    let (mut positional, mut rest) = (0, args.iter().skip(1));
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            positional += 1;
            if positional > operands {
                return Err(format!("unexpected argument {arg} for {cmd}"));
            }
            continue;
        }
        let Some(i) = words.iter().position(|w| w == arg) else {
            return Err(format!("unknown flag {arg} for {cmd}"));
        };
        if words.get(i + 1).is_some_and(|w| !w.starts_with("--")) {
            match rest.next() {
                Some(v) if !v.starts_with("--") => {}
                _ => return Err(format!("{arg} needs a value")),
            }
        }
    }
    Ok(())
}

/// The value of flag `name`, `None` when the flag is absent.
fn flag_value(args: &[String], name: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
        _ => Err(format!("{name} needs a value")),
    }
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag_value(args, name)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
    }
}

fn read_graphs_file(path: &str) -> Result<Vec<graph_core::Graph>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_graphs(&text).map_err(|e| format!("{path}: {e}"))
}

/// [`read_graphs_file`] for query files: the pipeline asserts that a query
/// has at least one edge, so reject edgeless graphs here, naming the query.
fn read_queries_file(path: &str) -> Result<Vec<graph_core::Graph>, String> {
    let queries = read_graphs_file(path)?;
    match queries.iter().position(|q| q.edge_count() == 0) {
        Some(i) => Err(format!("{path}: query {i} must contain at least one edge")),
        None => Ok(queries),
    }
}

/// A registry enabled only when `--metrics` or `--trace` was given, so the
/// pipeline's instrumented entry points cost one predicted branch otherwise.
/// Tracing implies metric collection (both ride the same shards).
fn metrics_registry(metrics_path: &Option<String>, trace_path: &Option<String>) -> obs::Registry {
    if trace_path.is_some() {
        obs::Registry::with_tracing()
    } else if metrics_path.is_some() {
        obs::Registry::new()
    } else {
        obs::Registry::disabled()
    }
}

/// Drain `registry` to `path` as `treepi.obs/v1` JSON.
fn write_metrics(registry: &obs::Registry, path: &str) -> Result<(), String> {
    let set = registry.drain();
    std::fs::write(path, set.render_json()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote metrics to {path}");
    Ok(())
}

/// Drain the trace timeline to `path` as Chrome trace-event JSON.
fn write_trace(registry: &obs::Registry, path: &str) -> Result<(), String> {
    let events = registry.drain_trace();
    std::fs::write(path, obs::trace::render_chrome_json(&events))
        .map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "wrote {} trace events to {path} (load in chrome://tracing or ui.perfetto.dev)",
        events.len()
    );
    Ok(())
}

/// The batch summary `query --stats` prints, read off the registry's
/// `funnel.*` counters and `query.*` stage spans: mean |P_q|, |D_q| and
/// parts per query, the filter's precision, the missing-feature
/// short-circuits, the mean time per query and each stage's p50/p95. A
/// precision over an empty funnel (no candidate at all) reads 1.0: an empty
/// candidate set admitted no false positive.
fn funnel_summary(m: &obs::MetricSet) -> String {
    use obs::{Counter, Span};
    use std::time::Duration;
    let count = |c: Counter| m.counter(c.name());
    let queries = count(Counter::FUNNEL_QUERIES);
    let mean = |c| count(c) as f64 / queries.max(1) as f64;
    let precision = match count(Counter::FUNNEL_FILTERED) {
        0 => 1.0,
        n => count(Counter::FUNNEL_ANSWERS) as f64 / n as f64,
    };
    let spans = Span::PIPELINE.map(|s| (s.name(), m.span(s.name()).cloned().unwrap_or_default()));
    let total_ns: u64 = spans.iter().map(|(_, s)| s.total_ns).sum();
    let mut out = format!(
        "{queries} queries: |Pq|={:.1} |Dq|={:.1} (filter precision {precision:.2})\n\
         time: mean {:.2?}; parts/query {:.1}; {} missing-feature short-circuits\n",
        mean(Counter::FUNNEL_FILTERED),
        mean(Counter::FUNNEL_ANSWERS),
        Duration::from_nanos(total_ns / queries.max(1)),
        mean(Counter::FUNNEL_PARTITION_PARTS),
        count(Counter::FUNNEL_MISSING_FEATURE),
    );
    for (name, s) in spans {
        out += &format!(
            "  {name:<15} p50 {:.2?} p95 {:.2?}\n",
            Duration::from_nanos(s.quantile_ns(0.50)),
            Duration::from_nanos(s.quantile_ns(0.95)),
        );
    }
    out
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().cloned().unwrap_or_default();
    if let Some((_, synopsis)) = COMMANDS.iter().find(|(c, _)| *c == cmd) {
        check_flags(&cmd, synopsis, &args)?;
    }
    match cmd.as_str() {
        "build" => {
            let (Some(db_path), Some(out_path)) = (args.get(1), args.get(2)) else {
                return Err("build needs <db.gspan> <index.tpi>".into());
            };
            let defaults = TreePiParams::default();
            let params = TreePiParams {
                sigma: mining::SigmaFn {
                    alpha: parse_flag(&args, "--alpha", defaults.sigma.alpha)?,
                    beta: parse_flag(&args, "--beta", defaults.sigma.beta)?,
                    eta: parse_flag(&args, "--eta", defaults.sigma.eta)?,
                },
                gamma: parse_flag(&args, "--gamma", defaults.gamma)?,
                ..defaults
            };
            // A single edge kept out of the index would leave the queries
            // holding it with no feature to filter on: they would find no
            // graph.
            let sigma = params.sigma;
            if sigma.threshold(1) != Some(1) {
                let s1 = sigma.threshold(1).map_or("+∞".into(), |t| t.to_string());
                return Err(format!(
                    "--alpha {} --beta {} --eta {} sets σ(1) = {s1}; the index is complete \
                     only with σ(1) = 1: use --alpha 1 or more, or --beta 0 with --eta 1 or more",
                    sigma.alpha, sigma.beta, sigma.eta
                ));
            }
            // The metric catalog names the miner's levels 1..=MAX_LEVEL only.
            if sigma.eta > obs::MAX_LEVEL {
                return Err(format!(
                    "--eta {} is above {}, the deepest mining level the metrics name",
                    sigma.eta,
                    obs::MAX_LEVEL
                ));
            }
            let db = read_graphs_file(db_path)?;
            let threads = parse_flag(&args, "--threads", 0usize)?;
            let metrics_path = flag_value(&args, "--metrics")?;
            let trace_path = flag_value(&args, "--trace")?;
            let registry = metrics_registry(&metrics_path, &trace_path);
            let t = std::time::Instant::now();
            let n = db.len();
            let index = {
                let pool = graph_core::par::Pool::new(threads);
                let shard = registry.shard();
                let index = TreePiIndex::build_with_pool_obs(db, params, &pool, &shard);
                registry.absorb(shard);
                index
            };
            let stats = index.stats();
            eprintln!(
                "indexed {n} graphs: {} features, {} center positions in {:.2?} (mining truncated: {})",
                stats.features,
                stats.center_positions,
                t.elapsed(),
                stats.truncated
            );
            let mut f = std::fs::File::create(out_path).map_err(|e| e.to_string())?;
            index.save(&mut f).map_err(|e| e.to_string())?;
            eprintln!("wrote {out_path}");
            if let Some(path) = &trace_path {
                write_trace(&registry, path)?;
            }
            if let Some(path) = &metrics_path {
                index.record_mem_gauges(&registry);
                obs::alloc::record_gauges(&registry);
                write_metrics(&registry, path)?;
            }
            Ok(())
        }
        "query" => {
            let (Some(idx_path), Some(q_path)) = (args.get(1), args.get(2)) else {
                return Err("query needs <index.tpi> <queries.gspan>".into());
            };
            let mut f = std::fs::File::open(idx_path).map_err(|e| e.to_string())?;
            let index = TreePiIndex::load(&mut f).map_err(|e| e.to_string())?;
            let queries = read_queries_file(q_path)?;
            // 0 = available parallelism (the default); results are
            // identical at any pool size (nothing on the query path is
            // random). The persistent worker pool is sized once here and
            // reused for the whole serving run.
            let threads = parse_flag(&args, "--threads", 0usize)?;
            let want_stats = args.iter().any(|a| a == "--stats");
            let metrics_path = flag_value(&args, "--metrics")?;
            let trace_path = flag_value(&args, "--trace")?;
            // `--stats` reads its summary off the registry `--metrics` writes.
            let registry = if want_stats && trace_path.is_none() {
                obs::Registry::new()
            } else {
                metrics_registry(&metrics_path, &trace_path)
            };
            let engine = treepi::Engine::new(index, threads);
            let shard = registry.shard();
            let (results, _) = engine.query_batch_pinned(&queries, &shard);
            registry.absorb(shard);
            let index = engine.into_index();
            for (i, (q, r)) in queries.iter().zip(&results).enumerate() {
                let ids: Vec<String> = r.matches.iter().map(|g| g.to_string()).collect();
                println!("q{i}: {}", ids.join(" "));
                if want_stats {
                    eprintln!(
                        "  |q|={} parts={} |SFq|={} |Pq|={} |Dq|={} time={:.2?}",
                        q.edge_count(),
                        r.stats.partition_size,
                        r.stats.sf_size,
                        r.stats.filtered,
                        r.stats.answers,
                        r.stats.total()
                    );
                }
            }
            if want_stats {
                eprint!("{}", funnel_summary(&registry.snapshot()));
            }
            if let Some(path) = &trace_path {
                write_trace(&registry, path)?;
            }
            if let Some(path) = &metrics_path {
                index.record_mem_gauges(&registry);
                obs::alloc::record_gauges(&registry);
                write_metrics(&registry, path)?;
            }
            Ok(())
        }
        "gquery" => {
            let (Some(db_path), Some(q_path)) = (args.get(1), args.get(2)) else {
                return Err("gquery needs <db.gspan> <queries.gspan>".into());
            };
            let db = read_graphs_file(db_path)?;
            let queries = read_queries_file(q_path)?;
            let threads = parse_flag(&args, "--threads", 0usize)?;
            let metrics_path = flag_value(&args, "--metrics")?;
            let n = db.len();
            let t = std::time::Instant::now();
            let index = gindex::GIndex::build(db, gindex::GIndexParams::paper_default(n));
            eprintln!(
                "gIndex over {n} graphs: {} fragments in {:.2?} (mining truncated: {})",
                index.fragments().len(),
                t.elapsed(),
                index.stats().truncated
            );
            let registry = metrics_registry(&metrics_path, &None);
            let pool = graph_core::par::Pool::new(threads);
            let shard = registry.shard();
            let results = index.query_batch_pool_obs(&queries, &pool, &shard);
            registry.absorb(shard);
            for (i, r) in results.iter().enumerate() {
                let ids: Vec<String> = r.matches.iter().map(|g| g.to_string()).collect();
                println!("q{i}: {}", ids.join(" "));
            }
            if let Some(path) = &metrics_path {
                index.record_mem_gauges(&registry);
                obs::alloc::record_gauges(&registry);
                write_metrics(&registry, path)?;
            }
            Ok(())
        }
        "dbstats" => {
            let Some(db_path) = args.get(1) else {
                return Err("dbstats needs <db.gspan>".into());
            };
            let db = read_graphs_file(db_path)?;
            let s = graph_core::db_stats(&db);
            println!("graphs:              {}", s.graphs);
            println!("mean vertices:       {:.2}", s.mean_vertices);
            println!("mean edges:          {:.2}", s.mean_edges);
            println!("max vertices:        {}", s.max_vertices);
            println!("max edges:           {}", s.max_edges);
            println!("mean degree:         {:.2}", s.mean_degree);
            println!("max degree:          {}", s.max_degree);
            println!("distinct v-labels:   {}", s.vertex_labels);
            println!("distinct e-labels:   {}", s.edge_labels);
            println!("tree fraction:       {:.2}", s.tree_fraction);
            println!("connected fraction:  {:.2}", s.connected_fraction);
            println!("mean cyclomatic no.: {:.2}", s.mean_cycles);
            let cap = 20usize;
            for (title, hist) in [
                (
                    "vertex label histogram",
                    graph_core::vertex_label_histogram(&db),
                ),
                (
                    "edge label histogram",
                    graph_core::edge_label_histogram(&db),
                ),
            ] {
                println!("{title}:");
                for &(label, count) in hist.iter().take(cap) {
                    println!("  {label:>6}: {count}");
                }
                if hist.len() > cap {
                    println!("  … and {} more labels", hist.len() - cap);
                }
            }
            Ok(())
        }
        "stats" => {
            // Live mode: fetch a `treepi.obs/v1` snapshot from a running
            // server via the STATS admin op and print it verbatim.
            if let Some(addr) = flag_value(&args, "--addr")? {
                let mut client =
                    serve::Client::connect_retry(&addr, std::time::Duration::from_secs(2))
                        .map_err(|e| format!("{addr}: {e}"))?;
                let resp = client.stats().map_err(|e| e.to_string())?;
                return match resp.body {
                    serve::ResponseBody::Stats(json) => {
                        print!("{json}");
                        Ok(())
                    }
                    other => Err(format!("unexpected response to STATS: {other:?}")),
                };
            }
            let Some(idx_path) = args.get(1) else {
                return Err("stats needs <index.tpi> or --addr HOST:PORT".into());
            };
            let mut f = std::fs::File::open(idx_path).map_err(|e| e.to_string())?;
            let index = TreePiIndex::load(&mut f).map_err(|e| e.to_string())?;
            let s = index.stats();
            println!("graphs:            {}", index.active_count());
            println!("features:          {}", index.feature_count());
            println!("mined (pre-shrink, grown under the γ bound): {}", s.mined);
            println!("mining truncated:  {}", s.truncated);
            println!("center entries:    {}", s.center_entries);
            println!("center positions:  {}", s.center_positions);
            println!("memory estimate:   {} KiB", index.memory_estimate() / 1024);
            let m = index.memory_breakdown();
            println!("heap breakdown:    {} KiB total", m.total() / 1024);
            println!("  database:        {} KiB", m.db_bytes / 1024);
            println!("  feature strings: {} KiB", m.features_bytes / 1024);
            println!("  support sets:    {} KiB", m.supports_bytes / 1024);
            println!("  center tables:   {} KiB", m.centers_bytes / 1024);
            println!("  signatures:      {} KiB", m.sigs_bytes / 1024);
            println!("  directory+shapes: {} KiB", m.trie_bytes / 1024);
            let p = index.params();
            println!(
                "params:            alpha={} beta={} eta={} gamma={}",
                p.sigma.alpha, p.sigma.beta, p.sigma.eta, p.gamma
            );
            let mut by_size = std::collections::BTreeMap::new();
            for f in index.features() {
                *by_size.entry(f.size()).or_insert(0usize) += 1;
            }
            for (size, count) in by_size {
                println!("  {size}-edge features: {count}");
            }
            Ok(())
        }
        "prom" => {
            // Offline conversion: re-render a saved `treepi.obs/v1` snapshot
            // (e.g. the file written by `serve --metrics`, or the STATS JSON
            // captured via `stats --addr`) in Prometheus text exposition
            // format, for backfilling dashboards from archived runs.
            let Some(path) = args.get(1) else {
                return Err("prom needs <metrics.json>".into());
            };
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let set = obs::json::parse_metric_set(&text).map_err(|e| format!("{path}: {e}"))?;
            print!("{}", obs::prom::render(&set));
            Ok(())
        }
        "gen" => {
            let Some(out_path) = args.get(1) else {
                return Err("gen needs <out.gspan>".into());
            };
            let seed = parse_flag(&args, "--seed", 2007u64)?;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let graphs = if let Some(n) = flag_value(&args, "--chem")? {
                let n: usize = n.parse().map_err(|_| "bad --chem count")?;
                datagen::generate_chem(&datagen::ChemParams::sized(n), &mut rng)
            } else if let Some(n) = flag_value(&args, "--synthetic")? {
                let n: usize = n.parse().map_err(|_| "bad --synthetic count")?;
                let labels: u32 = parse_flag(&args, "--labels", 4u32)?;
                datagen::generate_synthetic(
                    &datagen::SyntheticParams {
                        n_graphs: n,
                        seed_size: 10.0,
                        graph_size: 20.0,
                        seed_count: (n / 8).max(20),
                        vertex_labels: labels,
                        edge_labels: 2,
                    },
                    &mut rng,
                )
            } else {
                return Err("gen needs --chem N or --synthetic N".into());
            };
            std::fs::write(out_path, write_graphs(&graphs)).map_err(|e| e.to_string())?;
            eprintln!("wrote {} graphs to {out_path}", graphs.len());
            Ok(())
        }
        "serve" => {
            let Some(idx_path) = args.get(1) else {
                return Err("serve needs <index.tpi>".into());
            };
            let mut f = std::fs::File::open(idx_path).map_err(|e| e.to_string())?;
            let index = TreePiIndex::load(&mut f).map_err(|e| e.to_string())?;
            let addr = flag_value(&args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7878".into());
            let threads = parse_flag(&args, "--threads", 0usize)?;
            let stall_us = parse_flag(&args, "--stall-threshold-us", 100_000u64)?;
            let config = serve::ServeConfig {
                max_batch: parse_flag(&args, "--max-batch", 64usize)?,
                queue_cap: parse_flag(&args, "--queue-cap", 1024usize)?,
                cache_cap: parse_flag(&args, "--cache-cap", 4096usize)?,
                max_requests: parse_flag(&args, "--max-requests", 0u64)?,
                http_addr: flag_value(&args, "--http-addr")?,
                stall_threshold: (stall_us > 0).then(|| std::time::Duration::from_micros(stall_us)),
                ..serve::ServeConfig::default()
            };
            let metrics_path = flag_value(&args, "--metrics")?;
            let slow_us = parse_flag(&args, "--slow-query-us", 0u64)?;
            let slow_log_path = flag_value(&args, "--slow-log")?;
            let access_log_path = flag_value(&args, "--access-log")?;
            // Serving telemetry is always on (the STATS admin op must see
            // live counters even without --metrics); the flag only decides
            // whether the final snapshot is written to a file.
            let registry = obs::Registry::new();
            let mut telemetry = serve::ServeTelemetry {
                slow: serve::SlowQueryLog::new(
                    (slow_us > 0).then(|| std::time::Duration::from_micros(slow_us)),
                    serve::telemetry::SLOW_LOG_CAP,
                ),
                access: access_log_path
                    .as_deref()
                    .map(serve::AccessLog::create)
                    .transpose()
                    .map_err(|e| format!("--access-log: {e}"))?,
            };
            let remine_threshold = parse_flag(&args, "--remine-threshold", 0u64)?;
            let engine = treepi::Engine::with_remine(index, threads, remine_threshold);
            let server = serve::Server::bind(&addr, config).map_err(|e| format!("{addr}: {e}"))?;
            eprintln!(
                "serving {} graphs on {} ({} worker threads)",
                engine.pin().active_count(),
                server.local_addr().map_err(|e| e.to_string())?,
                engine.parallelism()
            );
            if let Some(http) = server.http_local_addr() {
                eprintln!("monitoring on http://{http} (/metrics /healthz /slowz)");
            }
            let report = server
                .run_with_telemetry(&engine, &registry, &mut telemetry)
                .map_err(|e| e.to_string())?;
            eprintln!("serve done: {report}");
            if let Some(access) = &telemetry.access {
                eprintln!(
                    "wrote {} access-log records to {} ({} write errors)",
                    access.lines(),
                    access_log_path.as_deref().unwrap_or("?"),
                    access.write_errors()
                );
            }
            if telemetry.slow.seen() > 0 {
                eprintln!(
                    "slow queries (verify ≥ {slow_us}us): {} seen, {} captured",
                    telemetry.slow.seen(),
                    telemetry.slow.len()
                );
            }
            if let Some(path) = &slow_log_path {
                std::fs::write(path, telemetry.slow.render_chrome_json())
                    .map_err(|e| format!("{path}: {e}"))?;
                eprintln!(
                    "wrote {} slow-query captures to {path}",
                    telemetry.slow.len()
                );
            }
            if let Some(path) = &metrics_path {
                engine.pin().record_mem_gauges(&registry);
                obs::alloc::record_gauges(&registry);
                write_metrics(&registry, path)?;
            }
            Ok(())
        }
        "loadgen" => {
            let (Some(addr), Some(q_path)) = (args.get(1), args.get(2)) else {
                return Err("loadgen needs <addr> <queries.gspan>".into());
            };
            let queries = read_graphs_file(q_path)?;
            let cfg = serve::LoadgenConfig {
                connections: parse_flag(&args, "--connections", 4usize)?,
                requests: parse_flag(&args, "--requests", 1000u64)?,
                rate: flag_value(&args, "--rate")?
                    .map(|v| v.parse().map_err(|_| format!("bad value for --rate: {v}")))
                    .transpose()?,
                zipf: parse_flag(&args, "--zipf", 0.0f64)?,
                seed: parse_flag(&args, "--seed", 42u64)?,
                shutdown: args.iter().any(|a| a == "--shutdown"),
                ..serve::LoadgenConfig::default()
            };
            let metrics_path = flag_value(&args, "--metrics")?;
            let registry = metrics_registry(&metrics_path, &None);
            let report =
                serve::loadgen::run(addr, &queries, &cfg, &registry).map_err(|e| e.to_string())?;
            println!("{report}");
            if let Some(path) = &metrics_path {
                write_metrics(&registry, path)?;
            }
            if report.ok == 0 {
                return Err("no successful responses".into());
            }
            Ok(())
        }
        "scan" => {
            let (Some(db_path), Some(q_path)) = (args.get(1), args.get(2)) else {
                return Err("scan needs <db.gspan> <queries.gspan>".into());
            };
            let db = read_graphs_file(db_path)?;
            let queries = read_queries_file(q_path)?;
            let threads = parse_flag(&args, "--threads", 0usize)?;
            let all = graph_core::par::Pool::new(threads).ordered_map(&queries, |q| {
                db.iter()
                    .enumerate()
                    .filter(|(_, g)| graph_core::is_subgraph_isomorphic(q, g))
                    .map(|(gid, _)| gid.to_string())
                    .collect::<Vec<String>>()
            });
            for (i, ids) in all.iter().enumerate() {
                println!("q{i}: {}", ids.join(" "));
            }
            Ok(())
        }
        _ => {
            usage();
            Err(String::new())
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty funnel reads precision 1.0, not NaN, and the means of an
    /// empty batch are 0.
    #[test]
    fn empty_funnel_summary_reads_precision_one() {
        let mut m = obs::MetricSet::new();
        let text = funnel_summary(&m);
        assert!(text.starts_with("0 queries: |Pq|=0.0 "), "{text}");
        assert!(text.contains("(filter precision 1.00)\n"), "{text}");
        m.add(obs::Counter::FUNNEL_QUERIES, 2);
        m.add(obs::Counter::FUNNEL_FILTERED, 4);
        m.add(obs::Counter::FUNNEL_ANSWERS, 1);
        let text = funnel_summary(&m);
        assert!(
            text.contains("|Pq|=2.0 |Dq|=0.5 (filter precision 0.25)"),
            "{text}"
        );
    }
}
