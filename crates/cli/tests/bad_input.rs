//! Bad command-line input must be an error at the CLI boundary: exit 1 with
//! a message naming what is wrong, never a panic and never a silent default.
//! A query file containing an edgeless graph (the pipeline asserts
//! `edge_count() > 0`) names the query; a value-taking flag given last, or
//! followed by another `--` flag, names the flag (`query … --metrics` once
//! exited 0 and wrote no file). A flag the command does not take names
//! the flag and the command (`query … --metric m.json` once exited 0 and
//! wrote nothing). An argument beyond the command's operands and its
//! flags' values names the argument and the command (`gen out --synthetic
//! 50 5` once ignored the `5`). Build parameters that set σ(1) above 1 name
//! `--alpha` and `--beta`: such an index misses single edges, and `--alpha
//! 0` once built one that answered database graphs with nothing. An `--eta`
//! above `obs::MAX_LEVEL` names the flag: the metrics name no deeper mining
//! level. A metrics file naming a metric the catalog does not declare (here the retired
//! `maint.queued`) names it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn treepi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_treepi"))
        .args(args)
        .output()
        .expect("run treepi")
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

#[test]
fn bad_input_is_an_error_not_a_panic() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bad_input");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (db, idx, q) = (
        dir.join("db.gspan"),
        dir.join("db.tpi"),
        dir.join("q.gspan"),
    );
    assert!(
        treepi(&["gen", path_str(&db), "--chem", "12", "--seed", "7"])
            .status
            .success()
    );
    assert!(treepi(&["build", path_str(&db), path_str(&idx)])
        .status
        .success());
    // Query 0 is fine; query 1 is a lone vertex.
    std::fs::write(&q, "t # 0\nv 0 0\nv 1 0\ne 0 1 0\nt # 1\nv 0 0\n").expect("write queries");
    let metrics = dir.join("retired.json");
    let retired = r#"{"schema": "treepi.obs/v1", "counters": {"maint.queued": 3}, "spans": {}}"#;
    std::fs::write(&metrics, retired).expect("write metrics");
    let (db, idx, q, metrics) = (
        path_str(&db),
        path_str(&idx),
        path_str(&q),
        path_str(&metrics),
    );

    let edgeless = format!("{q}: query 1 must contain at least one edge");
    for (args, expected) in [
        (vec!["query", idx, q], edgeless.as_str()),
        (vec!["gquery", db, q], &edgeless),
        (vec!["scan", db, q], &edgeless),
        (
            vec!["query", idx, db, "--metrics"],
            "--metrics needs a value",
        ),
        (
            vec!["query", idx, db, "--threads"],
            "--threads needs a value",
        ),
        (
            vec!["query", idx, db, "--metrics", "--stats"],
            "--metrics needs a value",
        ),
        (
            vec!["query", idx, q, "--metric", "m.json"],
            "unknown flag --metric for query",
        ),
        (
            vec!["build", db, idx, "--sample-interval-ms", "5"],
            "unknown flag --sample-interval-ms for build",
        ),
        (
            vec!["serve", idx, "--timeseries", "x"],
            "unknown flag --timeseries for serve",
        ),
        (
            vec!["gen", db, "--synthetic", "50", "5", "--seed", "3"],
            "unexpected argument 5 for gen",
        ),
        (
            vec!["stats", idx, "extra"],
            "unexpected argument extra for stats",
        ),
        (
            vec!["query", idx, q, db, "--stats"],
            &format!("unexpected argument {db} for query"),
        ),
        (vec!["build", db, idx, "--alpha"], "--alpha needs a value"),
        (
            vec!["build", db, idx, "--alpha", "0"],
            "--alpha 0 --beta 2 --eta 10 sets σ(1) = 3",
        ),
        (
            vec!["build", db, idx, "--alpha", "0", "--eta", "0"],
            "--alpha 0 --beta 2 --eta 0 sets σ(1) = +∞",
        ),
        (
            vec!["build", db, idx, "--eta", "33"],
            "--eta 33 is above 32",
        ),
        (
            vec!["prom", metrics],
            "counter \"maint.queued\" is not in the metric catalog",
        ),
    ] {
        let out = treepi(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    // α = 0 with β = 0 is σ ≡ 1 up to η: complete, so it builds.
    let out = treepi(&[
        "build", db, idx, "--alpha", "0", "--beta", "0", "--eta", "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
