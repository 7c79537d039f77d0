//! End-to-end campaign throughput: measurements/sec through the **fused**
//! sim→engine path (`Platform::run_parallel` feeding engine feeders) at several
//! generator thread counts, against a serial `Platform::run` reference.
//! Shared by the `campaign_bench` binary that writes `BENCH_campaign.json`
//! in CI.
//!
//! Where `enginebench` times the engine over a *pre-collected* campaign
//! (isolating tomography cost), this module times the whole wire:
//! simulation, anomaly detection, noise, channel hop, conversion, and
//! incremental solving — the number a deployed measurement platform
//! actually experiences. Correctness rides along: every row's
//! [`churnlab_core::report::CanonicalReport`] digest must equal the
//! serial reference's, so the sweep re-proves the parallel runner's
//! byte-equality claim at every thread count it times.
//!
//! Each row carries two **scaling efficiency** figures relative to the
//! 1-thread fused row:
//!
//! * `wallclock_efficiency` — `(meas/s at N threads) / (meas/s at 1) / N`,
//!   meaningful only when the machine has at least N cores;
//! * `model_efficiency` — `C_1 / (N × C_N)` over the runner's per-worker
//!   busy-time attribution (`C_k` = the slowest worker's busy nanos at
//!   `k` threads, minimized over repeats), which exposes a serialized
//!   runner (one worker doing all the generation) even on a box with
//!   fewer cores than workers.
//!
//! A flat thread curve — workers contending on a shared lock, or one
//! worker claiming the whole corpus — fails both.

use crate::gate::Point;
use crate::Bench;
use churnlab_core::pipeline::PipelineConfig;
use churnlab_engine::{Engine, EngineConfig};
use churnlab_platform::{CampaignBusy, Platform};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// An assembled study plus the fixed tomography config — the workload
/// every thread count is timed against. The platform and simulator are
/// built once; each timed pass builds a fresh engine and re-runs the
/// campaign through it.
pub struct CampaignHarness<'w> {
    /// The platform (vantage fleet, URL corpus, schedule).
    pub platform: Platform<'w>,
    /// The routing simulator (shared, read-only across workers).
    pub sim: churnlab_bgp::RoutingSim<'w>,
    /// Tomography configuration shared by all rows.
    pub cfg: PipelineConfig,
}

impl<'w> CampaignHarness<'w> {
    /// Assemble from a [`Bench`], optionally overriding the URL-corpus
    /// size (`urls > 0`). A bigger corpus keeps the parallel runner's
    /// URL-granularity work units small relative to a worker's share, so
    /// thread-count sweeps measure scaling rather than partition skew.
    pub fn assemble(bench: &'w Bench, urls: usize) -> CampaignHarness<'w> {
        let mut platform_cfg = bench.platform_cfg.clone();
        if urls > 0 {
            platform_cfg.n_urls = urls;
        }
        let platform = Platform::new(&bench.world, &bench.scenario, platform_cfg);
        let sim = bench.sim();
        let cfg = PipelineConfig::paper(platform.config().total_days);
        CampaignHarness { platform, sim, cfg }
    }

    /// Time one serial pass — `Platform::run` feeding a 1-shard engine
    /// measurement by measurement — returning seconds, the measurement
    /// count, and the canonical-report digest every fused row must match.
    pub fn time_serial(&self) -> (f64, u64, u64) {
        let start = Instant::now();
        let engine = Engine::new(&self.platform, EngineConfig::new(self.cfg.clone()));
        let stats = self.platform.run(&self.sim, |m| engine.ingest_owned(m));
        let digest = engine.finish().canonical_report().digest();
        (start.elapsed().as_secs_f64(), stats.measurements, digest)
    }

    /// Time one fused pass at `threads` generator workers over a
    /// `shards`-shard engine: seconds, digest, and the runner's
    /// per-worker busy attribution.
    pub fn time_fused(&self, threads: usize, shards: usize) -> (f64, u64, CampaignBusy) {
        let start = Instant::now();
        let engine =
            Engine::new(&self.platform, EngineConfig::new(self.cfg.clone()).with_shards(shards));
        let run = self.platform.run_parallel(&self.sim, threads, |_| {
            let mut feeder = engine.feeder();
            move |m| feeder.ingest_owned(m)
        });
        let digest = engine.finish().canonical_report().digest();
        (start.elapsed().as_secs_f64(), digest, run.busy)
    }
}

/// One fused timing row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignRow {
    /// Generator worker count.
    pub threads: usize,
    /// Engine shard count (fixed across the sweep).
    pub shards: usize,
    /// Best-of-repeats wall seconds (engine build + fused run + finish).
    pub secs: f64,
    /// Measurements generated and solved per second, end to end.
    pub meas_per_sec: f64,
    /// Ratio vs the serial reference's measurements/sec.
    pub speedup_vs_serial: f64,
    /// Wall-clock scaling efficiency vs the sweep's 1-thread row. Only
    /// meaningful when `available_cores >= threads`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub wallclock_efficiency: Option<f64>,
    /// Busy-time-model scaling efficiency vs the 1-thread row:
    /// `C_1 / (threads × C_N)`, `C_k` = slowest worker's busy nanos
    /// (minimized over repeats — the noise-floor estimator).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub model_efficiency: Option<f64>,
    /// Slowest worker's busy nanos in the best repeat.
    pub busy_max_nanos: u64,
    /// Sum of all workers' busy nanos in the best repeat.
    pub busy_total_nanos: u64,
    /// Every repeat's canonical-report digest equalled the serial
    /// reference's. Anything but `true` is a correctness bug, and
    /// [`run_campaign_sweep`] panics before writing such a row.
    pub digest_matches_serial: bool,
}

/// The full campaign throughput report (`BENCH_campaign.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Workload scale label.
    pub scale: String,
    /// Study seed.
    pub seed: u64,
    /// URL-corpus size the campaign ran over.
    pub urls: usize,
    /// Measurements per pass.
    pub measurements: u64,
    /// Cores visible to the process (context for the thread sweep).
    pub available_cores: usize,
    /// Whether worker busy time was per-thread on-CPU time rather than
    /// the wall-interval fallback (decides the gate's preferred basis).
    pub busy_cpu_attributed: bool,
    /// Serial reference best-of-repeats seconds.
    pub serial_secs: f64,
    /// Serial reference measurements/sec.
    pub serial_meas_per_sec: f64,
    /// The serial reference's canonical-report digest (hex).
    pub digest: String,
    /// One row per thread count.
    pub rows: Vec<CampaignRow>,
}

impl CampaignReport {
    /// The thread sweep as the gates read it.
    pub fn points(&self) -> Vec<Point> {
        self.rows
            .iter()
            .map(|r| Point {
                key: r.threads,
                speedup: r.speedup_vs_serial,
                wallclock_efficiency: r.wallclock_efficiency,
                model_efficiency: r.model_efficiency,
            })
            .collect()
    }
}

/// Run the sweep: best-of-`repeats` serial reference, then best-of-
/// `repeats` fused passes at each thread count, asserting digest
/// identity on **every** pass. Panics on a digest mismatch — a perf
/// report for a parallel runner that changed the answer is worse than
/// no report.
pub fn run_campaign_sweep(
    harness: &CampaignHarness<'_>,
    scale_label: &str,
    seed: u64,
    thread_counts: &[usize],
    shards: usize,
    repeats: usize,
) -> CampaignReport {
    let repeats = repeats.max(1);

    let serial: Vec<(f64, u64, u64)> = (0..repeats).map(|_| harness.time_serial()).collect();
    let n = serial[0].1;
    let digest = serial[0].2;
    let serial_secs = serial.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
    let serial_meas_per_sec = n as f64 / serial_secs;

    let mut rows = Vec::new();
    let mut min_crit = Vec::new(); // per-row noise-floor critical path
    let mut cpu_attributed = true;
    for &threads in thread_counts {
        let runs: Vec<(f64, u64, CampaignBusy)> =
            (0..repeats).map(|_| harness.time_fused(threads, shards)).collect();
        for (_, d, busy) in &runs {
            assert_eq!(
                *d, digest,
                "fused run at {threads} thread(s) diverged from the serial reference"
            );
            cpu_attributed &= busy.cpu_clock;
        }
        min_crit.push(runs.iter().map(|(_, _, b)| b.max_nanos()).min().expect("repeats >= 1"));
        // Keep the busy counters paired with the repeat they came from:
        // one coherent observation, not best wall glued to another
        // repeat's attribution.
        let (secs, _, busy) =
            runs.into_iter().min_by(|a, b| a.0.total_cmp(&b.0)).expect("repeats >= 1");
        let meas_per_sec = n as f64 / secs;
        rows.push(CampaignRow {
            threads,
            shards,
            secs,
            meas_per_sec,
            speedup_vs_serial: meas_per_sec / serial_meas_per_sec,
            wallclock_efficiency: None, // filled below, needs the 1-thread row
            model_efficiency: None,
            busy_max_nanos: busy.max_nanos(),
            busy_total_nanos: busy.total_nanos(),
            digest_matches_serial: true,
        });
    }

    // Efficiency is relative to the sweep's own 1-thread fused row.
    let base = rows
        .iter()
        .zip(&min_crit)
        .find(|(r, _)| r.threads == 1)
        .map(|(r, &c)| (r.meas_per_sec, c));
    if let Some((base_mps, base_crit)) = base {
        for (row, &crit) in rows.iter_mut().zip(&min_crit) {
            let n_threads = row.threads as f64;
            row.wallclock_efficiency = Some((row.meas_per_sec / base_mps) / n_threads);
            if base_crit > 0 && crit > 0 {
                row.model_efficiency = Some(base_crit as f64 / (n_threads * crit as f64));
            }
        }
    }

    CampaignReport {
        scale: scale_label.to_string(),
        seed,
        urls: harness.platform.config().n_urls,
        measurements: n,
        available_cores: std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1),
        busy_cpu_attributed: cpu_attributed,
        serial_secs,
        serial_meas_per_sec,
        digest: format!("{digest:016x}"),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    /// The sweep produces coherent rows: digests anchored to the serial
    /// reference, efficiency figures relative to the 1-thread row, busy
    /// attribution populated.
    #[test]
    fn sweep_is_coherent_and_digest_anchored() {
        let bench = Bench::assemble(Scale::Smoke, 17);
        let harness = CampaignHarness::assemble(&bench, 0);
        let report = run_campaign_sweep(&harness, "smoke", 17, &[1, 2], 2, 1);
        assert_eq!(report.rows.len(), 2);
        assert!(report.measurements > 0);
        assert_eq!(report.urls, bench.platform_cfg.n_urls);
        for row in &report.rows {
            assert!(row.digest_matches_serial);
            assert!(row.meas_per_sec > 0.0);
            assert!(row.busy_total_nanos >= row.busy_max_nanos);
            assert!(row.busy_max_nanos > 0);
        }
        let one = &report.rows[0];
        assert_eq!(one.threads, 1);
        assert!((one.wallclock_efficiency.unwrap() - 1.0).abs() < 1e-9);
        assert!((one.model_efficiency.unwrap() - 1.0).abs() < 1e-9);
        // The report round-trips (the regression gate reads it back).
        let json = serde_json::to_string(&report).expect("report serializes");
        let back: CampaignReport = serde_json::from_str(&json).expect("report parses");
        assert_eq!(back, report);
    }

    /// The URL override reshapes the corpus (and therefore the campaign).
    #[test]
    fn url_override_reshapes_corpus() {
        let bench = Bench::assemble(Scale::Smoke, 17);
        let harness = CampaignHarness::assemble(&bench, 24);
        assert_eq!(harness.platform.config().n_urls, 24);
    }
}
