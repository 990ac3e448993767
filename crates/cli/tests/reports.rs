//! What the CLI prints about an index and a query batch adds up: the heap
//! breakdown of `treepi stats` sums to its total (the signatures were once
//! left out, 92 of 556 KiB on a 200-molecule index), and the batch summary
//! of `treepi query --stats` agrees with its per-query lines.

use std::path::PathBuf;
use std::process::{Command, Output};

fn treepi(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_treepi"))
        .args(args)
        .output()
        .expect("run treepi");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// `gen --chem 25 --seed 7` built into an index, and its first three
/// graphs as queries (each answers at least itself): the paths of the
/// database, the index and the queries, in a directory of their own.
fn fixture(name: &str) -> (String, String, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |f: &str| dir.join(f).to_str().expect("utf-8 temp path").to_owned();
    let (db, idx, q) = (path("db.gspan"), path("db.tpi"), path("q.gspan"));
    treepi(&["gen", &db, "--chem", "25", "--seed", "7"]);
    treepi(&["build", &db, &idx, "--threads", "2"]);
    let text = std::fs::read_to_string(&db).expect("read db");
    let end = text.find("t # 3").expect("a fourth graph");
    std::fs::write(&q, &text[..end]).expect("write queries");
    (db, idx, q)
}

/// The number in `text` right after `key`, up to the next space.
fn number_after(text: &str, key: &str) -> f64 {
    let at = text.find(key).unwrap_or_else(|| panic!("{key} in {text}")) + key.len();
    let rest = &text[at..];
    let end = rest.find(' ').unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|_| panic!("{key} in {text}"))
}

/// The KiB count a line of the heap breakdown prints.
fn kib(line: &str) -> f64 {
    let end = line.find(" KiB").unwrap_or_else(|| panic!("KiB in {line}"));
    let n = line[..end].rsplit(' ').next().expect("a number");
    n.parse().unwrap_or_else(|_| panic!("KiB in {line}"))
}

#[test]
fn stats_heap_parts_add_up_to_the_total() {
    let (_, idx, _) = fixture("stats_heap");
    let out = String::from_utf8(treepi(&["stats", &idx]).stdout).expect("utf-8");
    let mut lines = out
        .lines()
        .skip_while(|l| !l.starts_with("heap breakdown:"));
    let total = kib(lines.next().expect("a heap breakdown"));
    let parts: Vec<f64> = lines
        .take_while(|l| l.starts_with("  ") && l.ends_with(" KiB"))
        .map(kib)
        .collect();
    assert_eq!(parts.len(), 6, "{out}");
    // Each line rounds its bytes down to whole KiB, so the parts may sum to
    // less than the total by under one KiB each, never more.
    let sum: f64 = parts.iter().sum();
    assert!(sum <= total && total - sum < parts.len() as f64, "{out}");
}

#[test]
fn query_stats_summary_agrees_with_the_per_query_lines() {
    let (_, idx, q) = fixture("query_stats");
    let out = treepi(&["query", &idx, &q, "--stats", "--threads", "2"]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    let column = |key: &str| -> Vec<f64> {
        stderr
            .lines()
            .filter(|l| l.starts_with("  |q|="))
            .map(|l| number_after(l, key))
            .collect()
    };
    assert_eq!(column("|Dq|=").len(), 3, "{stderr}");
    assert_eq!(stdout.lines().count(), 3, "{stdout}");
    let summary = stderr
        .lines()
        .find(|l| l.contains(" queries: "))
        .unwrap_or_else(|| panic!("no summary in {stderr}"));
    assert!(summary.starts_with("3 queries: "), "{summary}");
    for key in ["|Pq|=", "|Dq|="] {
        let values = column(key);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert_eq!(number_after(summary, key), (mean * 10.0).round() / 10.0);
    }
    // The served pipeline has no prune stage to report.
    assert!(
        !stderr.contains("|P'q|") && !stderr.contains("prune"),
        "{stderr}"
    );
}
