//! Replay front-end: export a simulated study to JSONL, then drive the
//! dump from disk through the sharded engine — the repo's first
//! disk-to-report path, and the template every real-data backend (OONI
//! dumps, CAIDA feeds) reuses.
//!
//! ```text
//! cargo run --release --bin replay -- --export dump.jsonl --scale small --seed 42
//! cargo run --release --bin replay -- --in dump.jsonl --shards 4 --feeders 4
//! cargo run --release --bin replay -- --in dump.jsonl --shards 4 --verify
//! ```
//!
//! `--export` streams a deterministic (scale, seed) study to JSONL in
//! constant memory and writes a `<FILE>.manifest.json` sidecar.
//! `--in` rebuilds the interpretation context from the manifest, replays
//! the dump through `feeders` parallel threads into an engine with
//! `shards` workers, prints the canonical-report digest plus throughput
//! (records/s and meas/s), and writes `BENCH_replay.json`.
//! `--verify` additionally re-runs the study in memory through the batch
//! pipeline and fails (exit 1) unless the replayed `CanonicalReport` is
//! byte-identical — the round-trip guarantee CI smokes on every push.
//! `--metrics-out FILE` instruments the replay: engine shard workers and
//! feeder threads publish live series, a scraper thread keeps FILE
//! current as Prometheus text (including `churnlab_rss_bytes`), and the
//! terminal scrape is embedded in `BENCH_replay.json` under `metrics`.
//!
//! The service-lifecycle flags turn the one-shot replay into a
//! kill-and-resume harness:
//!
//! ```text
//! replay --in dump.jsonl --feeders 1 --window-horizon 7 \
//!        --checkpoint ck.bin --checkpoint-every 100000
//! replay --in dump.jsonl --feeders 1 --window-horizon 7 \
//!        --resume ck.bin --expect-digest <hex>
//! ```
//!
//! `--window-horizon DAYS` retires (URL × window) groups once the
//! watermark passes them. `--checkpoint PATH --checkpoint-every N`
//! writes an atomic engine snapshot every N input lines;
//! `--halt-after-checkpoints N` then aborts the run mid-stream (the CI
//! crash stand-in). `--resume PATH` restores the snapshot, skips the
//! already-ingested prefix, and continues; `--expect-digest HEX` makes
//! the run fail unless the final canonical digest matches — together
//! they prove checkpoint → kill → restore → continue reproduces the
//! uninterrupted report byte for byte.

use churnlab_bench::argv::{self, unknown, Argv};
use churnlab_bench::gate::Gate;
use churnlab_bench::obsbench::MetricsWriter;
use churnlab_bench::replaybench::{replay_session, ReplayBenchReport, ReplaySession, ReplaySessionOutcome};
use churnlab_bench::{Bench, Scale};
use churnlab_core::pipeline::{Pipeline, PipelineConfig};
use churnlab_engine::{EngineConfig, EngineObs};
use churnlab_interop::{export_study, ReplayFormat, StudyManifest};
use churnlab_obs::Registry;
use churnlab_platform::Platform;
use std::io::BufReader;

struct Args {
    export: Option<String>,
    input: Option<String>,
    scale: Option<Scale>,
    seed: Option<u64>,
    shards: usize,
    feeders: usize,
    format: ReplayFormat,
    out: String,
    metrics_out: Option<String>,
    verify: bool,
    window_horizon: Option<u32>,
    checkpoint: Option<String>,
    checkpoint_every: Option<u64>,
    resume: Option<String>,
    halt_after_checkpoints: Option<u64>,
    expect_digest: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let mut args = Args {
        export: None,
        input: None,
        scale: None,
        seed: None,
        shards: 0,
        feeders: cores.min(4),
        format: ReplayFormat::Native,
        out: "BENCH_replay.json".to_string(),
        metrics_out: None,
        verify: false,
        window_horizon: None,
        checkpoint: None,
        checkpoint_every: None,
        resume: None,
        halt_after_checkpoints: None,
        expect_digest: None,
    };
    let mut argv = Argv::from_env();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--export" => args.export = Some(argv.value("path")?),
            "--in" => args.input = Some(argv.value("path")?),
            "--scale" => args.scale = Some(argv.value("scale")?),
            "--seed" => args.seed = Some(argv.value("seed")?),
            "--shards" => args.shards = argv.value("shard count")?,
            "--feeders" => {
                args.feeders = argv.value("feeder count")?;
                if args.feeders == 0 {
                    return Err("--feeders needs a positive count".into());
                }
            }
            "--format" => {
                let v: String = argv.value("format")?;
                args.format = ReplayFormat::parse(&v).ok_or(format!("bad format `{v}`"))?;
            }
            "--out" => args.out = argv.value("path")?,
            "--metrics-out" => args.metrics_out = Some(argv.value("path")?),
            "--verify" => args.verify = true,
            "--window-horizon" => args.window_horizon = Some(argv.value("horizon")?),
            "--checkpoint" => args.checkpoint = Some(argv.value("path")?),
            "--checkpoint-every" => {
                let n: u64 = argv.value("interval")?;
                if n == 0 {
                    return Err("--checkpoint-every needs a positive line count".into());
                }
                args.checkpoint_every = Some(n);
            }
            "--resume" => args.resume = Some(argv.value("path")?),
            "--halt-after-checkpoints" => args.halt_after_checkpoints = Some(argv.value("count")?),
            "--expect-digest" => args.expect_digest = Some(argv.value("digest")?),
            "--help" | "-h" => {
                return Err(
                    "usage: replay --export FILE [--scale smoke|small|paper] [--seed N]\n\
                     \x20      replay --in FILE [--shards N] [--feeders N] [--format native|ooni] \
                     [--out BENCH_replay.json] [--metrics-out FILE] [--verify]\n\
                     \x20             [--window-horizon DAYS] [--checkpoint FILE] \
                     [--checkpoint-every LINES]\n\
                     \x20             [--resume FILE] [--halt-after-checkpoints N] \
                     [--expect-digest HEX]"
                        .into(),
                )
            }
            other => return Err(unknown(other)),
        }
    }
    if args.export.is_some() == args.input.is_some() {
        return Err("exactly one of --export / --in is required (try --help)".into());
    }
    if args.checkpoint_every.is_some() && args.checkpoint.is_none() {
        return Err("--checkpoint-every needs --checkpoint PATH".into());
    }
    if args.checkpoint.is_some() && args.checkpoint_every.is_none() {
        // A path without a cadence gets a sane default rather than an
        // error: checkpoint every 500k lines.
        args.checkpoint_every = Some(500_000);
    }
    if args.halt_after_checkpoints.is_some() && args.checkpoint.is_none() {
        return Err("--halt-after-checkpoints needs --checkpoint PATH".into());
    }
    Ok(args)
}

fn export(path: &str, scale: Scale, seed: u64) {
    let bench = Bench::assemble(scale, seed);
    let platform = Platform::new(&bench.world, &bench.scenario, bench.platform_cfg.clone());
    let sim = bench.sim();
    let file = std::fs::File::create(path).expect("create dump file");
    let start = std::time::Instant::now();
    let (records, stats) =
        export_study(&platform, &sim, std::io::BufWriter::new(file)).expect("export study");
    let secs = start.elapsed().as_secs_f64();
    let manifest = StudyManifest {
        scale: scale.label().to_string(),
        seed,
        total_days: bench.platform_cfg.total_days,
        records,
    };
    let manifest_path = StudyManifest::path_for(path);
    std::fs::write(
        &manifest_path,
        format!("{}\n", serde_json::to_string(&manifest).expect("manifest serializes")),
    )
    .expect("write manifest");
    eprintln!(
        "replay: exported {records} records ({} measurements) to {path} in {secs:.2}s ({:.0} rec/s); manifest {manifest_path}",
        stats.measurements,
        records as f64 / secs.max(f64::EPSILON),
    );
}

fn ingest(args: &Args, path: &str) {
    let manifest_path = StudyManifest::path_for(path);
    let manifest: Option<StudyManifest> = std::fs::read_to_string(&manifest_path)
        .ok()
        .map(|text| serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {manifest_path}: {e}")));
    // Explicit flags win over the manifest, independently: `--seed 99`
    // next to a manifest keeps the manifest's scale but replays under
    // seed 99 (never silently ignored).
    let scale = args.scale.or_else(|| {
        manifest.as_ref().map(|m| {
            let unknown = |()| panic!("manifest names unknown scale `{}`", m.scale);
            m.scale.parse().unwrap_or_else(unknown)
        })
    });
    let seed = args.seed.or(manifest.as_ref().map(|m| m.seed));
    let (Some(scale), Some(seed)) = (scale, seed) else {
        eprintln!(
            "replay: no manifest at {manifest_path} — pass --scale and --seed to name the \
             study context explicitly"
        );
        std::process::exit(2);
    };

    let bench = Bench::assemble(scale, seed);
    let platform = Platform::new(&bench.world, &bench.scenario, bench.platform_cfg.clone());
    let cfg = PipelineConfig::paper(bench.platform_cfg.total_days);

    // One registry regardless of instrumentation: the end-of-run
    // `churnlab_stats_*` mirror always lands in it, and `--metrics-out`
    // additionally makes the engine publish its live series there (with
    // a scraper thread keeping the file current during the run).
    let registry = Registry::new();
    let (obs, writer) = match &args.metrics_out {
        Some(out) => (
            Some(EngineObs::new(registry.clone())),
            Some(MetricsWriter::spawn(registry.clone(), out)),
        ),
        None => (None, None),
    };

    let mut engine_cfg = EngineConfig::new(cfg.clone()).with_shards(args.shards);
    engine_cfg.window_horizon = args.window_horizon;
    let file = std::fs::File::open(path).unwrap_or_else(|e| panic!("open {path}: {e}"));
    let session = ReplaySession {
        engine_cfg,
        feeders: args.feeders,
        format: args.format,
        obs,
        resume_from: args.resume.as_deref(),
        checkpoint_to: args.checkpoint.as_deref(),
        checkpoint_every: args.checkpoint_every,
        halt_after_checkpoints: args.halt_after_checkpoints,
    };
    let outcome = match replay_session(
        BufReader::new(file),
        platform.measured_ip2as(),
        &bench.world.topology,
        session,
    )
    .expect("replay dump")
    {
        ReplaySessionOutcome::Finished(outcome) => outcome,
        ReplaySessionOutcome::Halted { checkpoints, cursor } => {
            if let Some(w) = writer {
                w.finish();
            }
            eprintln!(
                "replay: halted after {checkpoints} checkpoint(s) at line {cursor} — resume \
                 with --resume {}",
                args.checkpoint.as_deref().unwrap_or("<checkpoint>"),
            );
            return;
        }
    };

    outcome.engine_stats.record_into(&registry);
    outcome.report.stats.record_into(&registry);
    let metrics = registry.scrape();
    if let Some(w) = writer {
        w.finish();
    }

    let report =
        ReplayBenchReport::assemble(scale.label(), seed, outcome.engine_stats.shards, &outcome)
            .with_metrics(metrics.clone());
    eprintln!(
        "replay: {} lines → {} records → {} observations in {:.2}s ({:.0} rec/s, {:.0} meas/s) \
         [{} shard(s), {} feeder(s)]",
        report.lines,
        report.records_ok,
        outcome.engine_stats.observations,
        report.secs,
        report.records_per_sec,
        report.meas_per_sec,
        report.shards,
        report.feeders,
    );
    // The uniform stats line: every binary prints the same flat
    // `name{labels}: value` JSON instead of hand-formatted blocks.
    eprintln!("replay: stats {}", metrics.flat_json());
    eprintln!(
        "replay: canonical report {} — {} CNFs, {} identified censor(s)",
        report.report_digest,
        outcome.results.outcomes.len(),
        report.identified_censors,
    );

    let gate = Gate::new("replay", None);
    gate.write_report(Some(&args.out), &report, false);
    if let Some(out) = &args.metrics_out {
        eprintln!("replay: wrote {out}");
    }

    if let Some(expected) = &args.expect_digest {
        if !report.report_digest.eq_ignore_ascii_case(expected) {
            gate.fail(&format!(
                "canonical digest {} does not match expected {expected}",
                report.report_digest,
            ));
        }
        eprintln!("replay: digest matches expected {expected}");
    }

    if args.verify {
        // The round-trip guarantee, checked for real: re-simulate the
        // study in memory, run the batch pipeline over it, and demand the
        // replayed canonical report match byte for byte.
        let sim = bench.sim();
        let mut direct = Pipeline::new(&platform, cfg);
        platform.run(&sim, |m| direct.ingest(&m));
        let expected = direct.finish().canonical_report().to_json();
        let got = outcome.results.canonical_report().to_json();
        if got != expected {
            gate.fail(&format!(
                "replayed canonical report diverged from the direct run ({} vs {} bytes)",
                got.len(),
                expected.len(),
            ));
        }
        eprintln!("replay: verified — replayed report is byte-identical to the direct run");
    }
}

fn main() {
    let args = argv::or_exit(parse_args());
    if let Some(path) = &args.export {
        let scale = args.scale.unwrap_or(Scale::Smoke);
        let seed = args.seed.unwrap_or(42);
        export(path, scale, seed);
    } else if let Some(path) = &args.input {
        ingest(&args, path);
    }
}
