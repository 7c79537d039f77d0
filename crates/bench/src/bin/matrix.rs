//! Scenario-matrix runner: sweep the study pipeline over
//! scale × mechanism × churn × noise, write one JSON row per cell, and
//! enforce the grid invariants (churn monotonicity, noise-free
//! precision). Non-zero exit on any violation.
//!
//! ```text
//! cargo run --release --bin matrix                  # 16-cell Smoke grid
//! cargo run --release --bin matrix -- --full        # 32 cells (adds Small)
//! cargo run --release --bin matrix -- --engine      # same grid via churnlab-engine
//! cargo run --release --bin matrix -- --seed 9 --threads 4 --out grid.jsonl
//! cargo run --release --bin matrix -- --check grid.jsonl   # re-verify saved rows
//! cargo run --release --bin matrix -- --huge-smoke --budget-secs 900
//! ```
//!
//! `--huge-smoke` swaps the grid for the bounded-time Huge pair: the
//! ~62k-AS world with the full ~12k-VP fleet under the rotating
//! sampling schedule, trimmed period/corpus, fused sim→engine
//! streaming inside each cell. `--budget-secs N` fails the run (exit 1)
//! if the whole sweep exceeds the wall-clock budget — that is the CI
//! guard that the Huge tier stays inside its time box.

use churnlab_bench::argv::{self, unknown, Argv};
use churnlab_bench::matrix::{check_invariants, run_matrix, CellRow, MatrixConfig};
use std::io::Write;

struct Args {
    full: bool,
    engine: bool,
    huge_smoke: bool,
    seed: u64,
    threads: usize,
    budget_secs: Option<u64>,
    out: Option<String>,
    check: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        full: false,
        engine: false,
        huge_smoke: false,
        seed: 42,
        threads: 0,
        budget_secs: None,
        out: None,
        check: None,
    };
    let mut argv = Argv::from_env();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--full" => args.full = true,
            "--engine" => args.engine = true,
            "--huge-smoke" => args.huge_smoke = true,
            "--seed" => args.seed = argv.value("seed")?,
            "--threads" => args.threads = argv.value("thread count")?,
            "--budget-secs" => args.budget_secs = Some(argv.value("budget")?),
            "--out" => args.out = Some(argv.value("path")?),
            "--check" => args.check = Some(argv.value("path")?),
            "--help" | "-h" => {
                return Err(
                    "usage: matrix [--full] [--engine] [--huge-smoke] [--seed N] [--threads N] [--budget-secs N] [--out FILE] [--check FILE]"
                        .into(),
                )
            }
            other => return Err(unknown(other)),
        }
    }
    Ok(args)
}

/// Load previously written rows (one JSON object per line).
fn load_rows(path: &str) -> Vec<CellRow> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read grid file `{path}`: {e}");
        std::process::exit(2);
    });
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| {
            serde_json::from_str(l).unwrap_or_else(|e| {
                eprintln!("`{path}` line {}: not a matrix row: {e}", i + 1);
                std::process::exit(2);
            })
        })
        .collect()
}

fn main() {
    let args = argv::or_exit(parse_args());

    let start = std::time::Instant::now();
    let rows = match &args.check {
        Some(path) => {
            let rows = load_rows(path);
            eprintln!("matrix: re-checking {} saved cells from {path}", rows.len());
            rows
        }
        None => {
            let mut cfg = if args.huge_smoke {
                MatrixConfig::huge_smoke_grid(args.seed)
            } else if args.full {
                MatrixConfig::full_grid(args.seed)
            } else {
                MatrixConfig::default_grid(args.seed)
            };
            if args.huge_smoke {
                // The Huge pair parallelizes inside each cell (fused
                // generator workers); honor an explicit --threads only.
                if args.threads != 0 {
                    cfg.threads = args.threads;
                }
            } else {
                cfg.threads = args.threads;
                cfg.engine = args.engine;
            }
            eprintln!(
                "matrix: {} cells, seed {}{}",
                cfg.cells().len(),
                args.seed,
                if args.huge_smoke {
                    ", Huge smoke (fused engine, sampled fleet)"
                } else if args.engine {
                    ", sharded engine"
                } else {
                    ""
                }
            );
            run_matrix(&cfg)
        }
    };
    let elapsed = start.elapsed();

    // One JSON row per cell (skipped in --check mode: rows came from disk).
    if args.check.is_none() {
        let mut sink: Box<dyn Write> = match &args.out {
            Some(path) => Box::new(std::fs::File::create(path).expect("create output file")),
            None => Box::new(std::io::stdout().lock()),
        };
        for row in &rows {
            let line = serde_json::to_string(row).expect("row serializes");
            writeln!(sink, "{line}").expect("write row");
        }
    }

    // Summary table.
    eprintln!(
        "{:<42} {:>9} {:>6} {:>6} {:>6} {:>5} {:>5} {:>4} {:>7}",
        "cell", "meas", "cnfs", "loc", "solv%", "prec", "rec", "fp", "wall_ms"
    );
    for row in &rows {
        eprintln!(
            "{:<42} {:>9} {:>6} {:>6} {:>5.1}% {:>5.2} {:>5.2} {:>4} {:>7}",
            row.spec.label(),
            row.measurements,
            row.cnfs,
            row.localized_cnfs,
            row.solvable_frac * 100.0,
            row.precision,
            row.recall,
            row.false_positives,
            row.wall_ms
        );
    }
    for row in rows.iter().filter(|r| r.fleet > 0) {
        eprintln!(
            "matrix: {}: fleet {}, {} distinct VPs ran tests (floor {}), {} failed routes",
            row.spec.label(),
            row.fleet,
            row.sampled_vps,
            row.coverage_floor,
            row.failed
        );
    }
    eprintln!("matrix: {} cells in {elapsed:.2?}", rows.len());

    let violations = check_invariants(&rows);
    if violations.is_empty() {
        eprintln!("matrix: all invariants hold");
    } else {
        for v in &violations {
            eprintln!("INVARIANT VIOLATION: {v}");
        }
        std::process::exit(1);
    }

    if let Some(budget) = args.budget_secs {
        if elapsed.as_secs() > budget {
            eprintln!(
                "matrix: BUDGET EXCEEDED: {elapsed:.2?} > {budget}s wall-clock budget"
            );
            std::process::exit(1);
        }
        eprintln!("matrix: inside the {budget}s budget ({elapsed:.2?})");
    }
}
