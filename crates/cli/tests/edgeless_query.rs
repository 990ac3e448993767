//! `treepi query` / `treepi gquery` must reject a query file containing an
//! edgeless graph at the CLI boundary: exit 1 with a message naming the
//! query, never a panic out of the pipeline's `edge_count() > 0` assertion.

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
fn edgeless_query_is_an_error_not_a_panic() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("edgeless_query");
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

    for args in [
        ["query", path_str(&idx), path_str(&q)],
        ["gquery", path_str(&db), path_str(&q)],
    ] {
        let out = treepi(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{}: {stderr}", args[0]);
        let expected = format!("{}: query 1 must contain at least one edge", path_str(&q));
        assert!(stderr.contains(&expected), "{}: {stderr}", args[0]);
        assert!(!stderr.contains("panicked"), "{}: {stderr}", args[0]);
    }
}
