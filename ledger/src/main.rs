//! The TreePi performance ledger: one end-to-end benchmark, four
//! workloads, every layer attributed. See `README.md` beside `Cargo.toml`
//! for the metric catalogue and `BENCHMARK.json` at the repository root
//! for the names, units and bounds this binary is held to.
//!
//! ```text
//! ledger --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1]
//!        [--smoke] [--out <records.jsonl>]
//! ledger --compare <a.jsonl> <b.jsonl>
//! ```
//!
//! The last line of standard output is the run's result as one JSON
//! object; everything for people goes to standard error. A wrong answer,
//! a refused or failed request, or a layer that does not reconcile makes
//! the run incorrect and the exit code non-zero.

mod adapter;
mod compare;
mod direct;
mod driver;
mod report;
mod served;
mod setup;
mod stats;
mod trace;

use report::{Catalog, Outcome};
use setup::{Ctx, Sizes};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    flag(args, name).map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("bad value for {name}: {v}"))
    })
}

/// Scratch space beside the running binary: inside the build directory,
/// wherever that is, and so inside the checkout.
fn scratch_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().unwrap_or(&exe).join("ledger-tmp");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// What the numbers were measured on; they travel with every result.
fn host_facts(out: &mut Outcome, ctx: &Ctx, smoke: bool) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    out.note("host.nproc", nproc);
    out.note("host.profile", profile);
    out.note("host.rustc", rustc);
    out.note("fixed.threads", setup::THREADS);
    out.note("fixed.connections", setup::CONNS);
    out.note("fixed.db_graphs", ctx.sizes.db_graphs);
    out.note("fixed.smoke", smoke);
    out.note("run.seconds", ctx.seconds);
}

fn run(args: &[String]) -> Result<bool, String> {
    let catalog = Catalog::load()?;
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
            return Err("--compare needs <a.jsonl> <b.jsonl>".into());
        };
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        let (table, any_worse) = compare::compare(&catalog, &read(a)?, &read(b)?)?;
        print!("{table}");
        return Ok(!any_worse);
    }

    let names: Vec<&str> = catalog.workloads.iter().map(|w| w.0.as_str()).collect();
    let workload = flag(args, "--workload")
        .ok_or_else(|| format!("--workload is one of {}", names.join(", ")))?;
    let smoke = args.iter().any(|a| a == "--smoke");
    let default_seconds = if smoke { 1.0 } else { catalog.run_seconds };
    let ctx = Ctx {
        seed: parsed(args, "--seed", 1u64)?,
        seconds: parsed(args, "--seconds", default_seconds)?,
        traced: parsed(args, "--trace", 0u8)? != 0,
        sizes: Sizes::new(smoke),
        tmp: scratch_dir().map_err(|e| format!("scratch directory: {e}"))?,
    };
    if !(ctx.seconds > 0.0 && ctx.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", ctx.seconds));
    }

    let (mut out, spans, registry) = match workload {
        "query_small" => direct::run(&ctx, direct::Which::Small),
        "query_large" => direct::run(&ctx, direct::Which::Large),
        "serve_zipf" => served::run(&ctx, served::Which::Zipf),
        "serve_churn" => served::run(&ctx, served::Which::Churn),
        other => {
            return Err(format!(
                "unknown workload {other:?}: one of {}",
                names.join(", ")
            ))
        }
    }
    .map_err(|e| format!("{workload}: {e}"))?;
    host_facts(&mut out, &ctx, smoke);
    if ctx.traced {
        let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
        out.per_layer.set("client.failed_frac", failed_frac);
        let path = ctx.tmp.join(format!("trace-{workload}.json"));
        std::fs::write(&path, adapter::render_trace(&spans, &registry))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.note("trace.file", path.display());
        out.note("trace.harness_spans", spans.len());
    }

    eprintln!(
        "{workload} seed {} trace {}",
        ctx.seed,
        u8::from(ctx.traced)
    );
    report::print_table(&catalog, &out, ctx.traced);
    let result = report::result_json(&catalog, &out, ctx.traced)?;
    if let Some(path) = flag(args, "--out") {
        let record = report::record_json(workload, ctx.seed, ctx.traced, &result, &out);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{record}"))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{result}");
    Ok(out.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("ledger: {msg}");
            ExitCode::from(2)
        }
    }
}
