//! Engine throughput bench: measurements/sec through the batch pipeline
//! vs the sharded engine at several shard counts, written as one JSON
//! document so CI accumulates a perf trajectory.
//!
//! ```text
//! cargo run --release -p churnlab-bench --bin engine_bench                 # smoke, BENCH_engine.json shape on stdout
//! cargo run --release -p churnlab-bench --bin engine_bench -- --out BENCH_engine.json
//! cargo run --release -p churnlab-bench --bin engine_bench -- --scale small --shards 1,2,4,8 --repeats 5
//! cargo run --release -p churnlab-bench --bin engine_bench -- --baseline BENCH_engine.json --out BENCH_engine.json
//! ```
//!
//! `--feeders 0` (the default) gives every row one feeder thread per
//! shard — the supply/demand-matched configuration the scaling gate
//! reasons about. A fixed positive count pins it instead.
//!
//! `--baseline`, `--require-gate`, `--update-baseline` and
//! `--assert-scaling` are the shared gates of [`churnlab_bench::gate`].
//! The gated ratio is speedup-vs-pipeline (the pipeline timed in the
//! same process is the machine-speed control), and the busy model's
//! critical path is the slowest shard plus the merge.
//!
//! `--assert-overhead` is a dedicated mode: the same workload through a
//! *stripped* engine (no metrics registry — zero atomic ops) and an
//! instrumented one, interleaved best-of-`--repeats` with alternating
//! order, at the highest `--shards` count. Both arms are measured on
//! the wall clock and on the engine's own busy attribution; the gate
//! arms on the on-CPU delta (the work instrumentation *adds*, immune to
//! other processes stealing the core) whenever the thread CPU clock
//! exists, wall clock otherwise (annotated). The run fails (exit 1) if
//! instrumentation costs more than `--max-overhead` (default 2%).
//!
//! `--metrics-out FILE` makes the run instrumented and keeps FILE
//! current with the registry's Prometheus text exposition (rewritten
//! every ~500ms by a scraper thread, final scrape at exit).
//! `--journal-out FILE` streams the run's JSONL event journal there —
//! engine events plus this binary's `gate_armed`/`gate_skipped`
//! outcomes.

use churnlab_bench::argv::{self, unknown, Argv};
use churnlab_bench::enginebench::{
    run_overhead, run_throughput, ThroughputHarness, ThroughputReport,
};
use churnlab_bench::gate::{self, Axis, Gate, DEFAULT_MIN_EFFICIENCY};
use churnlab_bench::obsbench::{BenchObs, MetricsWriter};
use churnlab_bench::{Bench, Scale};
use churnlab_obs::Journal;

/// Default `--max-overhead`: instrumentation may cost at most 2% of
/// stripped throughput.
const DEFAULT_MAX_OVERHEAD: f64 = 0.02;

/// The shard sweep, as gate messages name it.
const SHARDS: Axis = Axis {
    noun: "shard",
    flag: "--shards",
    workers: "shards",
    subject: "the engine",
    label: |n| format!("engine/{n}"),
    missing: |n| format!("engine/{n} (busy-time attribution missing from the build?)"),
};

struct Args {
    scale: Scale,
    seed: u64,
    shards: Vec<usize>,
    feeders: usize,
    repeats: usize,
    out: Option<String>,
    baseline: Option<String>,
    require_gate: bool,
    update_baseline: bool,
    assert_scaling: bool,
    min_efficiency: f64,
    assert_overhead: bool,
    max_overhead: f64,
    metrics_out: Option<String>,
    journal_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Smoke,
        seed: 42,
        shards: vec![1, 2, 4, 8],
        feeders: 0, // match shards per row
        repeats: 3,
        out: None,
        baseline: None,
        require_gate: false,
        update_baseline: false,
        assert_scaling: false,
        min_efficiency: DEFAULT_MIN_EFFICIENCY,
        assert_overhead: false,
        max_overhead: DEFAULT_MAX_OVERHEAD,
        metrics_out: None,
        journal_out: None,
    };
    let mut argv = Argv::from_env();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--scale" => args.scale = argv.value("scale")?,
            "--seed" => args.seed = argv.value("seed")?,
            "--shards" => args.shards = argv.counts("shard count")?,
            "--feeders" => args.feeders = argv.value("feeder count")?,
            "--repeats" => args.repeats = argv.value("repeat count")?,
            "--min-efficiency" => {
                args.min_efficiency = argv.value("efficiency")?;
                if !(args.min_efficiency > 0.0 && args.min_efficiency <= 1.0) {
                    return Err(format!("--min-efficiency {} outside (0, 1]", args.min_efficiency));
                }
            }
            "--max-overhead" => {
                args.max_overhead = argv.value("overhead")?;
                if args.max_overhead <= 0.0 {
                    return Err(format!("--max-overhead {} must be positive", args.max_overhead));
                }
            }
            "--out" => args.out = Some(argv.value("path")?),
            "--baseline" => args.baseline = Some(argv.value("path")?),
            "--metrics-out" => args.metrics_out = Some(argv.value("path")?),
            "--journal-out" => args.journal_out = Some(argv.value("path")?),
            "--require-gate" => args.require_gate = true,
            "--update-baseline" => args.update_baseline = true,
            "--assert-scaling" => args.assert_scaling = true,
            "--assert-overhead" => args.assert_overhead = true,
            "--help" | "-h" => {
                return Err(
                    "usage: engine_bench [--scale smoke|small|paper] [--seed N] \
                     [--shards 1,2,4,8] [--feeders N|0=match-shards] [--repeats N] \
                     [--out FILE] [--baseline FILE] [--require-gate] \
                     [--update-baseline] [--assert-scaling] [--min-efficiency X] \
                     [--assert-overhead] [--max-overhead X] \
                     [--metrics-out FILE] [--journal-out FILE]"
                        .into(),
                )
            }
            other => return Err(unknown(other)),
        }
    }
    if args.update_baseline {
        let default = "BENCH_engine.json";
        gate::update_baseline(args.require_gate, &mut args.baseline, &mut args.out, default)?;
    }
    if args.assert_overhead
        && (args.baseline.is_some() || args.assert_scaling || args.update_baseline)
    {
        return Err("--assert-overhead is a dedicated stripped-vs-instrumented mode; it \
             cannot combine with --baseline/--assert-scaling/--update-baseline"
            .into());
    }
    Ok(args)
}

fn main() {
    let args = argv::or_exit(parse_args());
    let baseline: Option<ThroughputReport> = gate::load_baseline(args.baseline.as_deref());

    // Observability sink: either output flag makes the run instrumented
    // (shared registry + optional journal across every engine built).
    let journal = args.journal_out.as_ref().map(|path| {
        Journal::to_file(std::path::Path::new(path))
            .unwrap_or_else(|e| panic!("create journal {path}: {e}"))
    });
    let sink = (args.metrics_out.is_some() || journal.is_some())
        .then(|| BenchObs::new(journal.clone()));
    let metrics_writer = args
        .metrics_out
        .as_ref()
        .zip(sink.as_ref())
        .map(|(path, s)| MetricsWriter::spawn(s.registry.clone(), path));
    let gate = Gate::new("engine_bench", journal.as_ref());
    // Once the engines are done: freeze the metrics file at the terminal
    // scrape and flush the run's journal events before gating begins
    // (gate events flush themselves).
    let finish_obs = || {
        if let Some(w) = metrics_writer {
            w.finish();
        }
        if let Some(j) = &journal {
            j.flush();
        }
    };

    let bench = Bench::assemble(args.scale, args.seed);
    let harness = ThroughputHarness::assemble(&bench);
    eprintln!(
        "engine_bench: {} measurements at scale {}, shard counts {:?}, feeders {}, best of {}",
        harness.measurements.len(),
        args.scale.label(),
        args.shards,
        if args.feeders == 0 { "match-shards".to_string() } else { args.feeders.to_string() },
        args.repeats,
    );

    if args.assert_overhead {
        // Dedicated mode: the stripped-vs-instrumented comparison is the
        // whole run — no pipeline control, no sweep, no baseline gate.
        let shards = *args.shards.iter().max().expect("shards validated non-empty");
        let report = run_overhead(
            &harness,
            args.scale.label(),
            shards,
            args.feeders,
            args.repeats,
            sink.as_ref(),
        );
        eprintln!(
            "engine_bench: overhead — wall: stripped {:.3}s vs instrumented {:.3}s \
             ({:+.2}%); on-CPU: {:.3}s vs {:.3}s ({:+.2}%) \
             ({} shard(s), {} feeder(s), best of {} × {} pass(es))",
            report.stripped_secs,
            report.instrumented_secs,
            report.overhead_frac * 100.0,
            report.stripped_cpu_secs,
            report.instrumented_cpu_secs,
            report.cpu_overhead_frac * 100.0,
            report.shards,
            report.feeders,
            report.repeats,
            report.passes,
        );
        gate.write_report(args.out.as_deref(), &report, false);
        // Gate on the added on-CPU work when the busy clock is
        // CPU-attributed: it measures exactly what the instrumentation
        // costs, where wall clock on a shared runner also measures every
        // other process. Without schedstat the busy figures are wall
        // intervals anyway, so fall back to the wall-clock delta.
        let basis = if report.cpu_attributed {
            report.cpu_overhead_frac
        } else {
            println!(
                "::warning::overhead gate: no thread CPU clock on this host — \
                 gating on wall clock, which folds in scheduler noise"
            );
            report.overhead_frac
        };
        // Noise can make the instrumented arm win; that is zero measured
        // overhead, not a speedup claim.
        let effective = basis.max(0.0);
        let pass = effective <= args.max_overhead;
        gate.armed(
            "overhead",
            &format!(
                "{} — {:.4} vs max {:.4} ({})",
                if pass { "pass" } else { "fail" },
                effective,
                args.max_overhead,
                if report.cpu_attributed { "on-CPU basis" } else { "wall basis" },
            ),
        );
        finish_obs();
        if !pass {
            gate.fail(&format!(
                "instrumentation overhead {:.2}% exceeds the {:.2}% budget",
                effective * 100.0,
                args.max_overhead * 100.0,
            ));
        }
        eprintln!(
            "engine_bench: overhead ok — {:.2}% within the {:.2}% budget",
            effective * 100.0,
            args.max_overhead * 100.0,
        );
        return;
    }

    let report = run_throughput(
        &harness,
        args.scale.label(),
        args.seed,
        &args.shards,
        args.feeders,
        args.repeats,
        sink.as_ref(),
    );

    finish_obs();

    eprintln!(
        "pipeline: {:>10.0} meas/s ({:.3}s)",
        report.pipeline_meas_per_sec, report.pipeline_secs
    );
    for row in &report.engine {
        let eff = |e: Option<f64>| match e {
            Some(e) => format!("{e:.2}"),
            None => "-".to_string(),
        };
        eprintln!(
            "engine/{:<2} {:>10.0} meas/s ({:.3}s) speedup {:>5.2}x eff wall {} model {}  \
             [direct {} resolve {} unsat-skip {} | dup {:.1}% distinct-paths {} intern-hit {:.1}%]",
            row.shards,
            row.meas_per_sec,
            row.secs,
            row.speedup_vs_pipeline,
            eff(row.wallclock_efficiency),
            eff(row.model_efficiency),
            row.stats.incremental.direct_updates,
            row.stats.incremental.resolves,
            row.stats.incremental.unsat_skips,
            row.duplicate_ratio * 100.0,
            row.distinct_paths,
            row.interner_hit_rate * 100.0,
        );
    }

    if args.assert_scaling {
        gate.assert_scaling(
            &SHARDS,
            &report.points(),
            report.available_cores,
            args.min_efficiency,
            false,
        );
    }

    gate.write_report(args.out.as_deref(), &report, args.update_baseline);

    // Ratios aren't comparable across workload scales; skip the gate
    // rather than fail a legitimate local run. CI runs a pinned lane
    // (taskset) against a 1-core baseline and an unpinned lane against
    // the efficiency gate.
    let armed = baseline.as_ref().is_some_and(|baseline| {
        let mismatch = (baseline.scale != report.scale).then(|| {
            (
                "baseline/run scale mismatch",
                format!(
                    "baseline scale `{}` != run scale `{}`; regression gate NOT armed",
                    baseline.scale, report.scale
                ),
            )
        });
        gate.regression(
            &SHARDS,
            mismatch,
            (baseline.available_cores, report.available_cores),
            &report.points(),
            &baseline.points(),
        )
    });
    gate.require(args.require_gate, armed, baseline.is_some());
}
