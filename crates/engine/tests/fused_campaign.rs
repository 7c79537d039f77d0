//! Fused sim→engine campaigns are byte-identical to the serial path.
//!
//! The guarantee: `Platform::run_parallel` with an `Engine::feeder` per
//! generator worker produces a serialized
//! [`churnlab_core::report::CanonicalReport`] identical to a serial
//! `Platform::run` feeding the engine one measurement at a time —
//! across threads {1, 4} × shards {1, 4} × 3 seeds, with and without
//! the fleet-sampling schedule, and with identical platform-side stats.

mod common;

use churnlab_bgp::RoutingSim;
use churnlab_core::pipeline::PipelineConfig;
use churnlab_engine::{Engine, EngineConfig};
use churnlab_platform::{DatasetStats, ParallelRun, Platform};
use common::{study, Study};

/// The fused run: every generator worker streams into its own feeder.
fn run_fused(
    platform: &Platform<'_>,
    sim: &RoutingSim<'_>,
    engine: &Engine<'_>,
    threads: usize,
) -> ParallelRun {
    platform.run_parallel(sim, threads, |_| {
        let mut feeder = engine.feeder();
        move |m| feeder.ingest_owned(m)
    })
}

/// The campaign's serialized canonical report and stats: fused at
/// `threads` workers, or the serial `Platform::run` reference for `None`.
fn campaign(s: &Study, threads: Option<usize>, shards: usize) -> (String, DatasetStats) {
    let platform = s.platform();
    let sim = s.sim();
    let cfg = PipelineConfig::paper(platform.config().total_days);
    let engine = Engine::new(&platform, EngineConfig::new(cfg).with_shards(shards));
    let stats = match threads {
        None => platform.run(&sim, |m| engine.ingest_owned(m)),
        Some(threads) => run_fused(&platform, &sim, &engine, threads).stats,
    };
    let report = engine.finish().canonical_report();
    (serde_json::to_string(&report).expect("report serializes"), stats)
}

#[test]
fn fused_parallel_matches_serial_across_threads_shards_seeds() {
    for seed in [11u64, 12, 13] {
        let s = study(seed);
        let (serial_report, serial_stats) = campaign(&s, None, 0);
        for threads in [1usize, 4] {
            for shards in [1usize, 4] {
                let (report, stats) = campaign(&s, Some(threads), shards);
                assert_eq!(
                    report, serial_report,
                    "seed={seed} threads={threads} shards={shards}: report diverged"
                );
                assert_eq!(
                    stats, serial_stats,
                    "seed={seed} threads={threads} shards={shards}: stats diverged"
                );
            }
        }
    }
}

#[test]
fn fused_parallel_matches_serial_under_fleet_sampling() {
    let mut s = study(21);
    s.platform_cfg.fleet_sample = 7;
    s.platform_cfg.tests_per_pair_floor = 2;
    let (serial_report, serial_stats) = campaign(&s, None, 0);
    for threads in [1usize, 3] {
        let (report, stats) = campaign(&s, Some(threads), 4);
        assert_eq!(report, serial_report, "threads={threads}: sampled report diverged");
        assert_eq!(stats, serial_stats, "threads={threads}: sampled stats diverged");
    }
    // Sampling must actually have reduced the stream.
    let full = u64::from(s.platform_cfg.tests_per_pair)
        * (s.platform_cfg.n_vpn_vantage + s.platform_cfg.n_residential_vantage) as u64
        * s.platform_cfg.n_urls as u64;
    assert!(serial_stats.measurements < full, "sampling did not shrink the campaign");
}

#[test]
fn fused_busy_accounting_covers_every_worker() {
    let s = study(31);
    let platform = s.platform();
    let sim = s.sim();
    let cfg = PipelineConfig::paper(platform.config().total_days);
    let engine = Engine::new(&platform, EngineConfig::new(cfg).with_shards(2));
    let run = run_fused(&platform, &sim, &engine, 3);
    drop(engine.finish());
    assert_eq!(run.busy.per_worker_nanos.len(), 3);
    assert!(run.busy.total_nanos() > 0);
    assert!(run.busy.max_nanos() <= run.busy.total_nanos());
}
