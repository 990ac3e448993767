//! Regenerate the TreePi paper's evaluation (one subcommand per figure).
//!
//! ```text
//! experiments <subcommand> [--quick|--full] [--seed N] [--out DIR]
//!
//! subcommands:
//!   fig9     index size vs dataset size               (Figure 9)
//!   fig10    pruning, low/high support queries        (Figure 10a/10b)
//!            [--group low|high]
//!   fig11    prune effectiveness vs |Dq|              (Figure 11a/11b)
//!            [--dataset chem|synthetic]
//!   fig12a   construction time, real dataset          (Figure 12a)
//!   fig12b   query time, real dataset                 (Figure 12b)
//!   fig13a   construction time, synthetic             (Figure 13a)
//!   fig13b   query time, synthetic                    (Figure 13b)
//!   buildscale  construction time vs worker threads   (EXPERIMENTS.md)
//!            [--dataset chem|synthetic]
//!   ablate   pipeline-stage ablations + γ sweep       (DESIGN.md)
//!   classes  paths vs trees vs graphs comparison      (§1 argument)
//!   datasets dataset summary statistics               (§6 descriptions)
//!   all      everything above
//! ```
//!
//! `--quick` (default) scales the paper's sizes ~1:8; `--full` uses the
//! paper's sizes (slow). Each table is printed from the cells of the CSV it
//! writes to `--out` (default `results/`). A bad command line prints the
//! usage and exits 2 before any work is done.

mod common;
mod figs;
mod pipeline;

use common::{Opts, Scale};

/// Every subcommand, as the usage line lists them.
const COMMANDS: [&str; 12] = [
    "fig9",
    "fig10",
    "fig11",
    "fig12a",
    "fig12b",
    "fig13a",
    "fig13b",
    "buildscale",
    "ablate",
    "classes",
    "datasets",
    "all",
];

/// What `all` runs, in order, with the `--dataset` each run gets.
const ALL: [(&str, Option<&str>); 12] = [
    ("fig9", None),
    ("fig10", None),
    ("fig11", Some("chem")),
    ("fig11", Some("synthetic")),
    ("fig12a", None),
    ("fig12b", None),
    ("fig13a", None),
    ("fig13b", None),
    ("buildscale", Some("synthetic")),
    ("ablate", None),
    ("classes", None),
    ("datasets", None),
];

fn usage() -> ! {
    eprintln!(
        "usage: experiments <{}> [--quick|--full] [--seed N] [--out DIR] \
         [--group low|high] [--dataset chem|synthetic]",
        COMMANDS.join("|")
    );
    std::process::exit(2);
}

/// A command line that names a subcommand and only valid values.
#[derive(Debug, PartialEq)]
struct Args {
    cmd: &'static str,
    opts: Opts,
    group: Option<&'static str>,
    dataset: Option<&'static str>,
}

/// `value` if it is one of `allowed`.
fn one_of(value: &str, allowed: &[&'static str]) -> Option<&'static str> {
    allowed.iter().copied().find(|a| *a == value)
}

/// Parse the arguments after the program name. `None` means the usage is
/// printed and nothing is run: an unknown subcommand or flag, a flag
/// without its value, or a value outside the flag's set.
fn parse(args: &[String]) -> Option<Args> {
    let (cmd, rest) = args.split_first()?;
    let mut parsed = Args {
        cmd: one_of(cmd, &COMMANDS)?,
        opts: Opts::default(),
        group: None,
        dataset: None,
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => parsed.opts.scale = Scale::Quick,
            "--full" => parsed.opts.scale = Scale::Full,
            "--seed" => parsed.opts.seed = it.next()?.parse().ok()?,
            "--out" => parsed.opts.out = it.next()?.into(),
            "--group" => parsed.group = Some(one_of(it.next()?, &["low", "high"])?),
            "--dataset" => parsed.dataset = Some(one_of(it.next()?, &["chem", "synthetic"])?),
            _ => return None,
        }
    }
    Some(parsed)
}

fn run(cmd: &str, opts: &Opts, group: Option<&str>, dataset: Option<&str>) {
    // The paper-scale database sizes Figures 12(a) and 13(a) share.
    let construction = &[2000, 4000, 6000, 8000, 10_000];
    match cmd {
        "fig9" => {
            let sizes = &[1000, 2000, 4000, 8000, 16_000];
            figs::build_sweep(opts, "9", "chem", sizes, "fig9.csv")
        }
        "fig10" => figs::fig10(opts, group),
        "fig11" => figs::fig11(opts, dataset.unwrap_or("chem")),
        "fig12a" => {
            let file = "fig_construction_chem.csv";
            figs::build_sweep(opts, "12(a)", "chem", construction, file)
        }
        "fig12b" => figs::fig_query_time(opts, "chem"),
        "fig13a" => {
            let file = "fig_construction_synthetic.csv";
            figs::build_sweep(opts, "13(a)", "synthetic", construction, file)
        }
        "fig13b" => figs::fig_query_time(opts, "synthetic"),
        "buildscale" => figs::buildscale(opts, dataset.unwrap_or("synthetic")),
        "ablate" => figs::ablate(opts),
        "classes" => figs::classes(opts),
        "datasets" => figs::datasets(opts),
        "all" => {
            for (cmd, dataset) in ALL {
                run(cmd, opts, None, dataset);
            }
        }
        other => unreachable!("`parse` admits no command {other}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(Args {
        cmd,
        opts,
        group,
        dataset,
    }) = parse(&args)
    else {
        usage()
    };
    let t = std::time::Instant::now();
    run(cmd, &opts, group, dataset);
    println!("done in {:.1?}", t.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Option<Args> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn bad_values_and_missing_values_are_refused() {
        for line in [
            "",
            "fig14",
            "datasets --verbose",
            "buildscale --dataset nonsense",
            "fig11 --dataset nonsense",
            "fig10 --group nonsense",
            "fig10 --group",
            "fig11 --dataset",
            "buildscale --quick --dataset",
            "fig9 --seed",
            "fig9 --seed seven",
            "fig9 --out",
        ] {
            assert_eq!(parse_line(line), None, "accepted `{line}`");
        }
    }

    #[test]
    fn valid_lines_are_accepted() {
        let a = parse_line("datasets --quick --out /tmp/x").unwrap();
        assert_eq!(a.cmd, "datasets");
        assert_eq!(a.opts.out, std::path::PathBuf::from("/tmp/x"));
        assert_eq!(a.opts.scale, Scale::Quick);
        assert_eq!((a.group, a.dataset), (None, None));

        let a = parse_line("fig10 --group high --full --seed 7").unwrap();
        assert_eq!((a.cmd, a.group), ("fig10", Some("high")));
        assert_eq!((a.opts.scale, a.opts.seed), (Scale::Full, 7));
        assert_eq!(parse_line("fig10 --group low").unwrap().group, Some("low"));

        for (line, dataset) in [
            ("fig11 --dataset chem", "chem"),
            ("fig11 --dataset synthetic", "synthetic"),
            ("buildscale --dataset chem", "chem"),
        ] {
            assert_eq!(parse_line(line).unwrap().dataset, Some(dataset), "{line}");
        }
        for cmd in COMMANDS {
            assert_eq!(
                parse_line(cmd),
                Some(Args {
                    cmd,
                    opts: Opts::default(),
                    group: None,
                    dataset: None,
                })
            );
        }
    }

    #[test]
    fn all_runs_every_figure_command() {
        for cmd in COMMANDS.iter().filter(|c| **c != "all") {
            assert!(ALL.iter().any(|(c, _)| c == cmd), "`all` skips {cmd}");
        }
    }
}
