//! Long-haul streaming bench: loop a base study through the engine with
//! day-shifted timestamps until 100M+ measurements have streamed, with a
//! retirement horizon and periodic compaction — then assert the
//! process's resident-set size plateaued instead of growing with stream
//! length. The memory half of the "run forever" story, next to the
//! checkpoint/resume half the replay binary proves.
//!
//! ```text
//! cargo run --release --bin longhaul_bench -- --measurements 100000000 \
//!     --assert-plateau --out BENCH_longhaul.json
//! cargo run --release --bin longhaul_bench -- --measurements 2000000 \
//!     --assert-plateau --max-rss-mb 2048        # the CI smoke lane
//! ```
//!
//! Each loop replays the same simulated study shifted `base_days`
//! forward, so the day watermark advances forever while the working set
//! (live windows inside the horizon, distinct paths, distinct
//! destinations) stays fixed — exactly a deployment's shape, where the
//! measurement platform re-tests the same URL list day after day.
//! Retired cells are drained with [`Engine::compact`] once per loop (the
//! daemon's emit step) and RSS is sampled per loop from
//! `/proc/self/statm`.

use churnlab_bench::argv::{self, unknown, Argv};
use churnlab_bench::gate::Gate;
use churnlab_bench::longhaul::{judge_plateau, LonghaulReport};
use churnlab_bench::{Bench, Scale};
use churnlab_core::pipeline::PipelineConfig;
use churnlab_engine::{Engine, EngineConfig};
use churnlab_obs::rss_bytes;
use churnlab_platform::Platform;

struct Args {
    scale: Scale,
    seed: u64,
    measurements: u64,
    shards: usize,
    horizon: u32,
    out: String,
    assert_plateau: bool,
    max_growth: f64,
    max_rss_mb: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Smoke,
        seed: 42,
        measurements: 100_000_000,
        shards: 4,
        horizon: 7,
        out: "BENCH_longhaul.json".to_string(),
        assert_plateau: false,
        max_growth: 1.1,
        max_rss_mb: None,
    };
    let mut argv = Argv::from_env();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--scale" => args.scale = argv.value("scale")?,
            "--seed" => args.seed = argv.value("seed")?,
            "--measurements" => args.measurements = argv.value("count")?,
            "--shards" => args.shards = argv.value("shard count")?,
            "--horizon" => args.horizon = argv.value("horizon")?,
            "--out" => args.out = argv.value("path")?,
            "--assert-plateau" => args.assert_plateau = true,
            "--max-growth" => args.max_growth = argv.value("ratio")?,
            "--max-rss-mb" => args.max_rss_mb = Some(argv.value("size")?),
            "--help" | "-h" => {
                return Err(
                    "usage: longhaul_bench [--scale smoke|small|paper] [--seed N] \
                     [--measurements N] [--shards N] [--horizon DAYS] \
                     [--out BENCH_longhaul.json] [--assert-plateau] [--max-growth R] \
                     [--max-rss-mb N]"
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

    let bench = Bench::assemble(args.scale, args.seed);
    let platform = Platform::new(&bench.world, &bench.scenario, bench.platform_cfg.clone());
    let sim = bench.sim();
    let (mut base, _) = platform.run_collect(&sim);
    // Retirement rides the day watermark: stream each pass in day order,
    // the shape a live feed has.
    base.sort_by_key(|m| m.day);
    let per_loop = base.len() as u64;
    let base_days = bench.platform_cfg.total_days;
    let loops = args.measurements.div_ceil(per_loop).max(1);
    let total_days_u64 = u64::from(base_days) * loops;
    let total_days = u32::try_from(total_days_u64).unwrap_or_else(|_| {
        eprintln!("longhaul: {loops} loops x {base_days} days overflows the day clock");
        std::process::exit(2);
    });

    let cfg = PipelineConfig::paper(total_days);
    let mut engine_cfg = EngineConfig::new(cfg).with_shards(args.shards);
    engine_cfg = engine_cfg.with_window_horizon(args.horizon);
    let engine = Engine::with_context(platform.measured_ip2as(), &bench.world.topology, engine_cfg, None);

    eprintln!(
        "longhaul: {} loops x {} measurements = {} total over {} days \
         (horizon {} days, {} shard(s))",
        loops,
        per_loop,
        loops * per_loop,
        total_days,
        args.horizon,
        args.shards,
    );

    let start = std::time::Instant::now();
    let mut rss_samples: Vec<u64> = Vec::with_capacity(loops as usize);
    let mut outcomes_drained = 0u64;
    let progress_every = (loops / 20).max(1);
    for loop_i in 0..loops {
        let day_shift = u32::try_from(loop_i).expect("loops fit u32") * base_days;
        for m in &base {
            let mut m = m.clone();
            m.day += day_shift;
            engine.ingest_owned(m);
        }
        // The daemon's emit step: solve-once outcomes of retired windows
        // leave the engine; aggregates stay inside and stay exact.
        let compacted = engine.compact();
        outcomes_drained += compacted.outcomes.len() as u64;
        if let Some(rss) = rss_bytes() {
            rss_samples.push(rss);
        }
        if (loop_i + 1) % progress_every == 0 {
            let done = (loop_i + 1) * per_loop;
            let secs = start.elapsed().as_secs_f64();
            eprintln!(
                "longhaul: {done} measurements in {secs:.1}s ({:.0} meas/s), rss {} MiB",
                done as f64 / secs.max(f64::EPSILON),
                rss_samples.last().copied().unwrap_or(0) >> 20,
            );
        }
    }
    let (results, stats) = engine.finish_with_stats();
    let secs = start.elapsed().as_secs_f64();
    let measurements = loops * per_loop;

    let plateau = judge_plateau(&rss_samples);
    let report = LonghaulReport {
        scale: args.scale.label().to_string(),
        seed: args.seed,
        loops,
        measurements,
        observations: stats.observations,
        base_days,
        total_days,
        horizon: args.horizon,
        shards: stats.shards,
        secs,
        meas_per_sec: measurements as f64 / secs.max(f64::EPSILON),
        windows_retired: stats.retire.windows_retired,
        cells_retired: stats.retire.cells_retired,
        outcomes_drained,
        rss_samples: rss_samples.clone(),
        plateau,
    };
    eprintln!(
        "longhaul: {} measurements in {:.1}s ({:.0} meas/s); {} windows retired, \
         {} cells retired, {} outcomes drained, {} identified censor(s)",
        measurements,
        secs,
        report.meas_per_sec,
        report.windows_retired,
        report.cells_retired,
        outcomes_drained,
        results.identified_censors().len(),
    );
    if let Some(p) = &plateau {
        eprintln!(
            "longhaul: rss early max {} MiB, late max {} MiB, growth {:.3}x, peak {} MiB",
            p.early_max_bytes >> 20,
            p.late_max_bytes >> 20,
            p.growth_ratio,
            p.peak_bytes >> 20,
        );
    }
    Gate::new("longhaul", None).write_report(Some(&args.out), &report, false);

    let mut failed = false;
    if args.assert_plateau {
        match &plateau {
            Some(p) if p.growth_ratio <= args.max_growth => {
                eprintln!(
                    "longhaul: PLATEAU OK — final-quartile max {:.3}x early-quartile max \
                     (bound {:.2}x)",
                    p.growth_ratio, args.max_growth,
                );
            }
            Some(p) => {
                eprintln!(
                    "longhaul: FAIL — rss grew {:.3}x from early to final quartile \
                     (bound {:.2}x): the engine is not bounded",
                    p.growth_ratio, args.max_growth,
                );
                failed = true;
            }
            None => {
                eprintln!(
                    "longhaul: FAIL — --assert-plateau needs >= 8 rss samples, got {} \
                     (run more loops, or /proc/self/statm is unavailable)",
                    rss_samples.len(),
                );
                failed = true;
            }
        }
        if report.windows_retired == 0 {
            eprintln!("longhaul: FAIL — nothing retired; the horizon never engaged");
            failed = true;
        }
    }
    if let Some(cap_mb) = args.max_rss_mb {
        let peak = rss_samples.iter().copied().max().unwrap_or(0);
        if peak > cap_mb << 20 {
            eprintln!("longhaul: FAIL — peak rss {} MiB exceeds cap {cap_mb} MiB", peak >> 20);
            failed = true;
        } else {
            eprintln!("longhaul: rss cap OK — peak {} MiB <= {cap_mb} MiB", peak >> 20);
        }
    }
    if failed {
        std::process::exit(1);
    }
}
