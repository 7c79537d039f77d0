//! SAT-core throughput bench: censuses/sec through the watched-literal
//! core (cold vs warm context) and the full-rescan reference core, at the
//! Small and Medium instance mixes, written as one JSON document so CI
//! accumulates a perf trajectory next to `BENCH_engine.json`.
//!
//! ```text
//! cargo run --release -p churnlab-bench --bin sat_core_bench                 # BENCH_sat.json shape on stdout
//! cargo run --release -p churnlab-bench --bin sat_core_bench -- --out BENCH_sat.json
//! cargo run --release -p churnlab-bench --bin sat_core_bench -- --instances 5000 --repeats 5 --min-speedup 3
//! ```
//!
//! `--min-speedup X` turns the run into a gate: exit non-zero unless the
//! warm context beats the reference core by at least `X`× on every mix.

use churnlab_bench::argv::{self, unknown, Argv};
use churnlab_bench::gate::Gate;
use churnlab_bench::satbench::run_sat_bench;

struct Args {
    instances: usize,
    seed: u64,
    cap: u64,
    repeats: usize,
    min_speedup: Option<f64>,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        instances: 2000,
        seed: 42,
        cap: 64,
        repeats: 3,
        min_speedup: None,
        out: None,
    };
    let mut argv = Argv::from_env();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--instances" => {
                args.instances = argv.value("instance count")?;
                if args.instances == 0 {
                    return Err("--instances must be positive".into());
                }
            }
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
                    "usage: sat_core_bench [--instances N] [--seed N] [--cap N] [--repeats N] \
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

    eprintln!(
        "sat_core_bench: {} instances per mix, cap {}, best of {}",
        args.instances, args.cap, args.repeats
    );
    let report = run_sat_bench(args.instances, args.seed, args.cap, args.repeats);

    let mut gate_failed = false;
    for row in &report.rows {
        eprintln!(
            "{:<7} warm {:>10.0} census/s  cold {:>10.0}  reference {:>10.0}  \
             speedup warm {:>5.2}x cold {:>5.2}x",
            row.mix,
            row.warm_census_per_sec,
            row.cold_census_per_sec,
            row.reference_census_per_sec,
            row.speedup_warm_vs_reference,
            row.speedup_cold_vs_reference,
        );
        if let Some(floor) = args.min_speedup {
            if row.speedup_warm_vs_reference < floor {
                eprintln!(
                    "sat_core_bench: FAIL — mix `{}` warm speedup {:.2}x is below the {floor}x floor",
                    row.mix, row.speedup_warm_vs_reference
                );
                gate_failed = true;
            }
        }
    }

    Gate::new("sat_core_bench", None).write_report(args.out.as_deref(), &report, false);
    if gate_failed {
        std::process::exit(1);
    }
}
