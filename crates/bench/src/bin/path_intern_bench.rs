//! Path-interning microbench: duplicate-heavy `observe` through the
//! interned data plane vs the retained un-interned reference, written as
//! one JSON document so CI accumulates a perf trajectory next to
//! `BENCH_sat.json`.
//!
//! ```text
//! cargo run --release -p churnlab-bench --bin path_intern_bench                 # BENCH_intern.json shape on stdout
//! cargo run --release -p churnlab-bench --bin path_intern_bench -- --out BENCH_intern.json
//! cargo run --release -p churnlab-bench --bin path_intern_bench -- --repeats 5 --min-speedup 3
//! ```
//!
//! `--min-speedup X` turns the run into a gate: exit non-zero unless the
//! interned plane beats the un-interned reference by at least `X`× on
//! every mix. Both contenders run in the same process and the *ratio* is
//! gated, so the gate is machine-relative and always armed (the
//! `sat_core_bench --min-speedup` mould).

use churnlab_bench::argv::{self, unknown, Argv};
use churnlab_bench::gate::Gate;
use churnlab_bench::internbench::run_intern_bench;

struct Args {
    seed: u64,
    cap: u64,
    repeats: usize,
    min_speedup: Option<f64>,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { seed: 42, cap: 64, repeats: 3, min_speedup: None, out: None };
    let mut argv = Argv::from_env();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--seed" => args.seed = argv.value("seed")?,
            "--cap" => {
                args.cap = argv.value("cap")?;
                if args.cap < 2 {
                    return Err("--cap must be at least 2".into());
                }
            }
            "--repeats" => args.repeats = argv.value("repeat count")?,
            "--min-speedup" => args.min_speedup = Some(argv.value("speedup floor")?),
            "--out" => args.out = Some(argv.value("path")?),
            "--help" | "-h" => {
                return Err(
                    "usage: path_intern_bench [--seed N] [--cap N] [--repeats N] \
                     [--min-speedup X] [--out FILE]"
                        .into(),
                )
            }
            other => return Err(unknown(other)),
        }
    }
    Ok(args)
}

fn main() {
    let args = argv::or_exit(parse_args());

    eprintln!("path_intern_bench: cap {}, best of {}", args.cap, args.repeats);
    let report = run_intern_bench(args.seed, args.cap, args.repeats);

    let mut gate_failed = false;
    for row in &report.rows {
        eprintln!(
            "{:<13} {:>5} paths × {:>6} obs (dup {:>5.1}%)  un-interned {:>10.0} obs/s  \
             interned {:>10.0} obs/s  speedup {:>5.2}x",
            row.mix,
            row.distinct_paths,
            row.observations,
            row.duplicate_ratio * 100.0,
            row.reference_obs_per_sec,
            row.interned_obs_per_sec,
            row.speedup,
        );
        if let Some(floor) = args.min_speedup {
            if row.speedup < floor {
                eprintln!(
                    "path_intern_bench: FAIL — mix `{}` speedup {:.2}x is below the {floor}x floor",
                    row.mix, row.speedup
                );
                gate_failed = true;
            }
        }
    }

    Gate::new("path_intern_bench", None).write_report(args.out.as_deref(), &report, false);
    if gate_failed {
        std::process::exit(1);
    }
}
