//! End-to-end campaign bench: measurements/sec through the fused
//! sim→engine path at several generator thread counts, against a serial
//! reference, written as one JSON document so CI accumulates a perf
//! trajectory for the whole wire (simulate + detect + route + solve).
//!
//! ```text
//! cargo run --release -p churnlab-bench --bin campaign_bench                # smoke, report on stdout
//! cargo run --release -p churnlab-bench --bin campaign_bench -- --out BENCH_campaign.json
//! cargo run --release -p churnlab-bench --bin campaign_bench -- --threads 1,2,4,8 --urls 64 --repeats 3
//! cargo run --release -p churnlab-bench --bin campaign_bench -- --baseline BENCH_campaign.json --require-gate
//! ```
//!
//! Every timed pass re-proves correctness: a fused row whose
//! `CanonicalReport` digest differs from the serial reference's aborts
//! the run before any report is written.
//!
//! `--urls N` overrides the corpus size (0 = the scale preset). The
//! parallel runner partitions work at URL granularity, so at 8 threads a
//! 16-URL smoke corpus measures partition skew, not scaling; 64 URLs
//! keeps the skew under ~12%.
//!
//! `--baseline`, `--require-gate`, `--update-baseline` and
//! `--assert-scaling` are the shared gates of [`churnlab_bench::gate`].
//! The gated ratio is the fused speedup-vs-serial (the serial pass timed
//! in the same process is the machine-speed control), and the busy
//! model's critical path is the slowest generator worker.

use churnlab_bench::argv::{self, unknown, Argv};
use churnlab_bench::campaignbench::{run_campaign_sweep, CampaignHarness, CampaignReport};
use churnlab_bench::gate::{self, Axis, Gate, DEFAULT_MIN_EFFICIENCY};
use churnlab_bench::{Bench, Scale};

/// The thread sweep, as gate messages name it.
const THREADS: Axis = Axis {
    noun: "thread",
    flag: "--threads",
    workers: "generator threads",
    subject: "the parallel runner",
    label: |t| format!("campaign/{t}t"),
    missing: |t| format!("{t} thread(s) (busy attribution missing?)"),
};

struct Args {
    scale: Scale,
    seed: u64,
    threads: Vec<usize>,
    shards: usize,
    repeats: usize,
    urls: usize,
    out: Option<String>,
    baseline: Option<String>,
    require_gate: bool,
    update_baseline: bool,
    assert_scaling: bool,
    min_efficiency: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Smoke,
        seed: 42,
        threads: vec![1, 2, 4, 8],
        shards: 2,
        repeats: 3,
        urls: 64, // see the header: decouple scaling from partition skew
        out: None,
        baseline: None,
        require_gate: false,
        update_baseline: false,
        assert_scaling: false,
        min_efficiency: DEFAULT_MIN_EFFICIENCY,
    };
    let mut argv = Argv::from_env();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--scale" => args.scale = argv.value("scale")?,
            "--seed" => args.seed = argv.value("seed")?,
            "--threads" => args.threads = argv.counts("thread count")?,
            "--shards" => {
                args.shards = argv.value("shard count")?;
                if args.shards == 0 {
                    return Err("--shards must be positive".into());
                }
            }
            "--repeats" => args.repeats = argv.value("repeat count")?,
            "--urls" => args.urls = argv.value("url count")?,
            "--min-efficiency" => {
                args.min_efficiency = argv.value("efficiency")?;
                if !(args.min_efficiency > 0.0 && args.min_efficiency <= 1.0) {
                    return Err(format!("--min-efficiency {} outside (0, 1]", args.min_efficiency));
                }
            }
            "--out" => args.out = Some(argv.value("path")?),
            "--baseline" => args.baseline = Some(argv.value("path")?),
            "--require-gate" => args.require_gate = true,
            "--update-baseline" => args.update_baseline = true,
            "--assert-scaling" => args.assert_scaling = true,
            "--help" | "-h" => {
                return Err(
                    "usage: campaign_bench [--scale smoke|small|paper] [--seed N] \
                     [--threads 1,2,4,8] [--shards N] [--repeats N] [--urls N|0=preset] \
                     [--out FILE] [--baseline FILE] [--require-gate] \
                     [--update-baseline] [--assert-scaling] [--min-efficiency X]"
                        .into(),
                )
            }
            other => return Err(unknown(other)),
        }
    }
    if args.update_baseline {
        let default = "BENCH_campaign.json";
        gate::update_baseline(args.require_gate, &mut args.baseline, &mut args.out, default)?;
    }
    Ok(args)
}

fn main() {
    let args = argv::or_exit(parse_args());
    let gate = Gate::new("campaign_bench", None);
    let baseline: Option<CampaignReport> = gate::load_baseline(args.baseline.as_deref());

    let bench = Bench::assemble(args.scale, args.seed);
    let harness = CampaignHarness::assemble(&bench, args.urls);
    eprintln!(
        "campaign_bench: scale {}, {} urls, thread counts {:?}, {} shard(s), best of {}",
        args.scale.label(),
        harness.platform.config().n_urls,
        args.threads,
        args.shards,
        args.repeats,
    );

    let report = run_campaign_sweep(
        &harness,
        args.scale.label(),
        args.seed,
        &args.threads,
        args.shards,
        args.repeats,
    );

    eprintln!(
        "serial:     {:>10.0} meas/s ({:.3}s, {} measurements, digest {})",
        report.serial_meas_per_sec, report.serial_secs, report.measurements, report.digest
    );
    for row in &report.rows {
        let eff = |e: Option<f64>| match e {
            Some(e) => format!("{e:.2}"),
            None => "-".to_string(),
        };
        eprintln!(
            "fused/{:<2}t  {:>10.0} meas/s ({:.3}s) speedup {:>5.2}x eff wall {} model {}  \
             [busy max {:.3}s total {:.3}s]",
            row.threads,
            row.meas_per_sec,
            row.secs,
            row.speedup_vs_serial,
            eff(row.wallclock_efficiency),
            eff(row.model_efficiency),
            row.busy_max_nanos as f64 / 1e9,
            row.busy_total_nanos as f64 / 1e9,
        );
    }

    if args.assert_scaling {
        gate.assert_scaling(
            &THREADS,
            &report.points(),
            report.available_cores,
            args.min_efficiency,
            !report.busy_cpu_attributed,
        );
    }

    gate.write_report(args.out.as_deref(), &report, args.update_baseline);

    let armed = baseline.as_ref().is_some_and(|baseline| {
        let mismatch = (baseline.scale != report.scale || baseline.urls != report.urls).then(|| {
            (
                "baseline/run workload mismatch",
                format!(
                    "baseline workload `{}/{} urls` != run `{}/{} urls`; regression gate NOT armed",
                    baseline.scale, baseline.urls, report.scale, report.urls
                ),
            )
        });
        gate.regression(
            &THREADS,
            mismatch,
            (baseline.available_cores, report.available_cores),
            &report.points(),
            &baseline.points(),
        )
    });
    gate.require(args.require_gate, armed, baseline.is_some());
}
