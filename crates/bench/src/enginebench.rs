//! Engine throughput measurement: measurements/sec through the batch
//! [`Pipeline`] vs the sharded [`Engine`] at several shard counts, over
//! one pre-collected measurement campaign. Shared by the Criterion bench
//! (`benches/engine_bench.rs`) and the `engine_bench` binary that writes
//! `BENCH_engine.json` in CI.
//!
//! Besides wall-clock throughput, each row carries two **scaling
//! efficiency** figures relative to the 1-shard row:
//!
//! * `wallclock_efficiency` — `(meas/s at N shards) / (meas/s at 1) / N`,
//!   the real thing, meaningful only when the machine has at least N
//!   cores to run the shards on;
//! * `model_efficiency` — the same ratio computed over the engine's
//!   per-thread busy-time attribution (`critical path = max shard busy +
//!   merge`), which exposes a *serialized* engine (one thread doing all
//!   the work) even on a box with fewer cores than shards, where
//!   wall-clock cannot.
//!
//! A flat shard curve — the bug this module's gate exists to catch —
//! fails both: wall-clock efficiency at N shards lands near `1/N`, and
//! the busy-time model shows one shard's busy time not shrinking as N
//! grows.

use crate::gate::Point;
use crate::obsbench::BenchObs;
use crate::Bench;
use churnlab_core::pipeline::{Pipeline, PipelineConfig};
use churnlab_engine::{Engine, EngineConfig, EngineStats};
use churnlab_platform::{Measurement, Platform};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// An assembled platform plus its pre-collected measurement campaign —
/// the fixed workload every contender is timed against.
pub struct ThroughputHarness<'w> {
    /// The platform (IP-to-AS context for pipeline/engine construction).
    pub platform: Platform<'w>,
    /// The full campaign, in the runner's URL-grouped order.
    pub measurements: Vec<Measurement>,
    /// Tomography configuration shared by all contenders.
    pub cfg: PipelineConfig,
}

impl<'w> ThroughputHarness<'w> {
    /// Run the measurement campaign once and capture it.
    pub fn assemble(bench: &'w Bench) -> ThroughputHarness<'w> {
        let platform = Platform::new(&bench.world, &bench.scenario, bench.platform_cfg.clone());
        let sim = bench.sim();
        let (measurements, _) = platform.run_collect(&sim);
        let cfg = PipelineConfig::paper(bench.platform_cfg.total_days);
        ThroughputHarness { platform, measurements, cfg }
    }

    /// Time one batch-pipeline pass (ingest + finish), returning seconds.
    pub fn time_pipeline(&self) -> f64 {
        let start = Instant::now();
        let mut pipeline = Pipeline::new(&self.platform, self.cfg.clone());
        for m in &self.measurements {
            pipeline.ingest(m);
        }
        let results = pipeline.finish();
        let secs = start.elapsed().as_secs_f64();
        assert!(!results.outcomes.is_empty(), "pipeline produced no CNFs");
        secs
    }

    /// Time one engine pass with `shards` workers fed from `feeders`
    /// threads (ingest + finish), returning seconds and the engine's work
    /// counters. The per-feeder chunks are cloned *before* the clock
    /// starts: a deployed feeder owns its measurements (they arrive off
    /// the wire), so the copy is harness overhead, not engine work.
    ///
    /// With an observability sink the engine is *instrumented*,
    /// registering its series into the sink's shared registry; `None`
    /// is the *stripped* engine — the pair the overhead gate compares.
    pub fn time_engine(
        &self,
        shards: usize,
        feeders: usize,
        obs: Option<&BenchObs>,
    ) -> (f64, EngineStats) {
        let feeders = feeders.max(1);
        let chunks: Vec<Vec<Measurement>> = self
            .measurements
            .chunks(self.measurements.len().div_ceil(feeders))
            .map(<[Measurement]>::to_vec)
            .collect();
        let start = Instant::now();
        let cfg = EngineConfig::new(self.cfg.clone()).with_shards(shards);
        let engine = match obs {
            Some(sink) => Engine::new_with_obs(&self.platform, cfg, sink.engine_obs()),
            None => Engine::new(&self.platform, cfg),
        };
        std::thread::scope(|scope| {
            for chunk in chunks {
                let engine = &engine;
                scope.spawn(move || {
                    let mut feeder = engine.feeder();
                    for m in chunk {
                        feeder.ingest_owned(m);
                    }
                });
            }
        });
        let (results, stats) = engine.finish_with_stats();
        let secs = start.elapsed().as_secs_f64();
        assert!(!results.outcomes.is_empty(), "engine produced no CNFs");
        (secs, stats)
    }
}

/// One engine timing row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputRow {
    /// Shard worker count.
    pub shards: usize,
    /// Feeder thread count.
    pub feeders: usize,
    /// Best-of-repeats wall seconds.
    pub secs: f64,
    /// Measurements ingested per second.
    pub meas_per_sec: f64,
    /// Ratio vs the batch pipeline's measurements/sec.
    pub speedup_vs_pipeline: f64,
    /// Wall-clock scaling efficiency vs this sweep's 1-shard row:
    /// `(meas_per_sec / 1-shard meas_per_sec) / shards`. `None` when the
    /// sweep has no 1-shard row (and on pre-efficiency baseline files).
    /// Only meaningful when `available_cores >= shards`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub wallclock_efficiency: Option<f64>,
    /// Busy-time-model scaling efficiency vs the 1-shard row:
    /// `C_1 / (shards × C_N)` where `C_k` is the critical path at `k`
    /// shards (slowest shard's busy nanos + merge nanos). Core-count
    /// independent: catches a serialized engine even on a 1-core box.
    /// Each `C_k` is the lowest critical path across the repeats — the
    /// noise-floor estimator, same logic as best-of wall time — so it
    /// may come from a different repeat than the wall-clock-best one
    /// this row's `stats` were taken from.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub model_efficiency: Option<f64>,
    /// Fraction of per-cell observe decisions that were duplicates — the
    /// distinct-path sparsity the interner exploits. Defaults to 0 so
    /// pre-interning baseline files still parse (the gate compares
    /// speedup ratios, which those files have).
    #[serde(default)]
    pub duplicate_ratio: f64,
    /// Distinct paths interned, summed over shards.
    #[serde(default)]
    pub distinct_paths: u64,
    /// Fraction of measurement-level interner probes answered from the
    /// table (duplicates at measurement granularity).
    #[serde(default)]
    pub interner_hit_rate: f64,
    /// Incremental-solve effectiveness counters.
    pub stats: EngineStats,
}

/// The full throughput report (`BENCH_engine.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Workload scale label.
    pub scale: String,
    /// Study seed.
    pub seed: u64,
    /// Measurements in the campaign.
    pub measurements: u64,
    /// Cores visible to the process (context for the shard sweep).
    pub available_cores: usize,
    /// Batch pipeline best-of-repeats seconds.
    pub pipeline_secs: f64,
    /// Batch pipeline measurements/sec.
    pub pipeline_meas_per_sec: f64,
    /// One row per shard count.
    pub engine: Vec<ThroughputRow>,
}

impl ThroughputReport {
    /// The shard sweep as the gates read it.
    pub fn points(&self) -> Vec<Point> {
        self.engine
            .iter()
            .map(|r| Point {
                key: r.shards,
                speedup: r.speedup_vs_pipeline,
                wallclock_efficiency: r.wallclock_efficiency,
                model_efficiency: r.model_efficiency,
            })
            .collect()
    }
}

/// Resolve a feeder spec against a shard count: `0` means "one feeder
/// per shard" — the configuration the scaling gate reasons about (N
/// cores' worth of supply driving N shards).
pub fn resolve_feeders(spec: usize, shards: usize) -> usize {
    if spec == 0 {
        shards
    } else {
        spec
    }
}

/// Run the sweep: best-of-`repeats` timing for the pipeline and for the
/// engine at each shard count. `feeders` is a spec: `0` matches the
/// row's shard count, anything else is a fixed feeder count. Passing an
/// observability sink times *instrumented* engines (all repeats
/// accumulate into the sink's registry) — leave it `None` for timing
/// runs the regression gate will compare against stripped baselines.
pub fn run_throughput(
    harness: &ThroughputHarness<'_>,
    scale_label: &str,
    seed: u64,
    shard_counts: &[usize],
    feeders: usize,
    repeats: usize,
    obs: Option<&BenchObs>,
) -> ThroughputReport {
    let repeats = repeats.max(1);
    let n = harness.measurements.len() as u64;

    let pipeline_secs = (0..repeats)
        .map(|_| harness.time_pipeline())
        .fold(f64::INFINITY, f64::min);
    let pipeline_meas_per_sec = n as f64 / pipeline_secs;

    let mut engine = Vec::new();
    let mut min_crit = Vec::new(); // per-row noise-floor critical path
    for &shards in shard_counts {
        let row_feeders = resolve_feeders(feeders, shards);
        let runs: Vec<(f64, EngineStats)> =
            (0..repeats).map(|_| harness.time_engine(shards, row_feeders, obs)).collect();
        let crit = |s: &EngineStats| s.busy.shard_max_nanos + s.busy.merge_nanos;
        min_crit.push(runs.iter().map(|(_, s)| crit(s)).min().expect("repeats >= 1"));
        // Keep the stats paired with the repeat they came from: the
        // committed row must be one coherent observation, not the best
        // wall time glued to the last repeat's counters.
        let (secs, stats) = runs
            .into_iter()
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("repeats >= 1");
        let meas_per_sec = n as f64 / secs;
        engine.push(ThroughputRow {
            shards,
            feeders: row_feeders,
            secs,
            meas_per_sec,
            speedup_vs_pipeline: meas_per_sec / pipeline_meas_per_sec,
            wallclock_efficiency: None, // filled below, needs the 1-shard row
            model_efficiency: None,
            duplicate_ratio: stats.incremental.duplicate_ratio(),
            distinct_paths: stats.interner.distinct_paths,
            interner_hit_rate: stats.interner.hit_rate(),
            stats,
        });
    }

    // Efficiency is relative to the sweep's own 1-shard row.
    let base = engine
        .iter()
        .zip(&min_crit)
        .find(|(r, _)| r.shards == 1)
        .map(|(r, &c)| (r.meas_per_sec, c));
    if let Some((base_mps, base_crit)) = base {
        for (row, &crit) in engine.iter_mut().zip(&min_crit) {
            let n_shards = row.shards as f64;
            row.wallclock_efficiency = Some((row.meas_per_sec / base_mps) / n_shards);
            if base_crit > 0 && crit > 0 {
                row.model_efficiency =
                    Some(base_crit as f64 / (n_shards * crit as f64));
            }
        }
    }

    ThroughputReport {
        scale: scale_label.to_string(),
        seed,
        measurements: n,
        available_cores: std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1),
        pipeline_secs,
        pipeline_meas_per_sec,
        engine,
    }
}

/// What the instrumentation costs: the same workload through a stripped
/// engine (`obs: None` — zero atomic ops, one predictable branch per
/// site) and an instrumented one, interleaved best-of.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverheadReport {
    /// Workload scale label.
    pub scale: String,
    /// Shard worker count both arms ran at.
    pub shards: usize,
    /// Feeder thread count both arms ran at.
    pub feeders: usize,
    /// Repeats per arm (best-of).
    pub repeats: usize,
    /// Engine passes accumulated per repeat. Calibrated so each repeat
    /// gathers enough busy time (~1s) that fixed per-run jitter — cache
    /// state, interrupts, scheduler luck — sits well under the gate's
    /// budget even on tiny workloads.
    pub passes: usize,
    /// Measurements in the campaign (per pass).
    pub measurements: u64,
    /// Best stripped-engine seconds.
    pub stripped_secs: f64,
    /// Best instrumented-engine seconds.
    pub instrumented_secs: f64,
    /// `instrumented / stripped − 1`: the relative throughput cost of
    /// the metrics layer. Negative means noise dominated (the
    /// instrumented arm happened to win) — the gate treats that as zero
    /// overhead, not a speedup claim.
    pub overhead_frac: f64,
    /// Best stripped-arm on-CPU seconds (sum of shard busy + merge, the
    /// engine's own busy attribution).
    pub stripped_cpu_secs: f64,
    /// Best instrumented-arm on-CPU seconds.
    pub instrumented_cpu_secs: f64,
    /// `instrumented_cpu / stripped_cpu − 1`: the *work* the
    /// instrumentation adds. Immune to scheduler interference from
    /// other processes, so this is the gate's preferred basis whenever
    /// the busy clock is CPU-attributed.
    pub cpu_overhead_frac: f64,
    /// Whether the busy clock was the per-thread on-CPU time
    /// (`schedstat`) rather than the wall-interval fallback. When false
    /// the CPU figures above are really wall intervals and the gate
    /// falls back to `overhead_frac`.
    pub cpu_attributed: bool,
}

/// Measure instrumentation overhead at one (shards, feeders) point:
/// `repeats` interleaved stripped/instrumented pairs, best-of each arm
/// on both the wall clock and the engine's busy attribution, where each
/// repeat averages over enough engine passes (auto-calibrated) to push
/// per-run jitter below the gate's budget. Interleaving spreads thermal
/// and cache drift evenly over both arms, and the order within each
/// pair alternates so neither arm always runs second into a warm
/// allocator. Metrics go to `obs` when given (so `--metrics-out` can
/// expose the instrumented arm's registry), a throwaway sink otherwise.
pub fn run_overhead(
    harness: &ThroughputHarness<'_>,
    scale_label: &str,
    shards: usize,
    feeders: usize,
    repeats: usize,
    obs: Option<&BenchObs>,
) -> OverheadReport {
    let repeats = repeats.max(1);
    let feeders = resolve_feeders(feeders, shards);
    let throwaway = BenchObs::new(None);
    let sink = obs.unwrap_or(&throwaway);
    // The measured instrumented arm carries the sink's registry but
    // never its journal: journal events are per-window/per-cell, so at
    // gate scales their file I/O would swamp the per-measurement cost
    // the budget is about. A final unmeasured pass with the full sink
    // (below) still produces the journal artifact.
    let measured = BenchObs { registry: sink.registry.clone(), journal: None };
    let cpu_secs = |stats: &EngineStats| {
        (stats.busy.shard_total_nanos + stats.busy.merge_nanos) as f64 / 1e9
    };
    // Calibration pass (discarded): size the per-repeat pass count so
    // each repeat accumulates ~1s of busy time. A single smoke-scale
    // pass is ~15ms of work, where one mistimed interrupt already costs
    // percents; sums of many passes put the jitter floor well below a
    // 2% budget.
    let calib = harness.time_engine(shards, feeders, None);
    let est = cpu_secs(&calib.1).max(1e-4);
    let passes = ((1.0 / est).ceil() as usize).clamp(1, 100);
    let mut best_wall = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut best_cpu = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for i in 0..repeats {
        // [stripped, instrumented] sums. Arms interleave at *pass*
        // granularity — a stripped pass and an instrumented pass are
        // always neighbours in time — so slow drift (frequency, load
        // from co-tenants) biases both sums equally instead of whichever
        // arm's block hit the slow patch.
        let mut wall_sums = [0.0f64; 2];
        let mut cpu_sums = [0.0f64; 2];
        for p in 0..passes {
            let mut order = [0usize, 1usize];
            if (i + p) % 2 == 1 {
                order.reverse();
            }
            for a in order {
                let arm = if a == 0 { None } else { Some(&measured) };
                let (secs, stats) = harness.time_engine(shards, feeders, arm);
                wall_sums[a] += secs;
                cpu_sums[a] += cpu_secs(&stats);
            }
        }
        // Best of = the repeat with the *lowest overhead ratio*, each
        // ratio taken over one repeat's window (its arms shared the
        // environment). The true cost is systematic — present in every
        // repeat — while contamination spikes only inflate a ratio, so
        // the min estimates the cost from the cleanest window.
        let wall_ratio = wall_sums[1] / wall_sums[0];
        if wall_ratio < best_wall.0 {
            best_wall =
                (wall_ratio, wall_sums[0] / passes as f64, wall_sums[1] / passes as f64);
        }
        let cpu_ratio = cpu_sums[1] / cpu_sums[0];
        if cpu_ratio < best_cpu.0 {
            best_cpu = (cpu_ratio, cpu_sums[0] / passes as f64, cpu_sums[1] / passes as f64);
        }
    }
    if sink.journal.is_some() {
        // Unmeasured artifact pass: one fully-instrumented run so the
        // caller's journal carries a real event stream.
        let _ = harness.time_engine(shards, feeders, Some(sink));
    }
    OverheadReport {
        scale: scale_label.to_string(),
        shards,
        feeders,
        repeats,
        passes,
        measurements: harness.measurements.len() as u64,
        stripped_secs: best_wall.1,
        instrumented_secs: best_wall.2,
        overhead_frac: best_wall.0 - 1.0,
        stripped_cpu_secs: best_cpu.1,
        instrumented_cpu_secs: best_cpu.2,
        cpu_overhead_frac: best_cpu.0 - 1.0,
        cpu_attributed: churnlab_obs::thread_cpu_nanos().is_some(),
    }
}
