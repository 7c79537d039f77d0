//! Replay measurement: drive a JSONL dump through the sharded engine and
//! time the whole disk-to-report path (read + parse + ingest + solve +
//! merge). Shared by the `replay` binary (which writes
//! `BENCH_replay.json`) and the round-trip verification it runs in CI.

use churnlab_core::pipeline::PipelineResults;
use churnlab_engine::{Engine, EngineConfig, EngineObs, EngineStats};
use churnlab_interop::{
    replay_jsonl_resumable, ImportStats, ReplayFormat, ReplayReport, ResumeReplayOptions,
};
use churnlab_obs::Snapshot;
use churnlab_topology::{Ip2AsDb, Topology};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};
use std::time::Instant;

/// Everything one replay pass produced.
pub struct ReplayOutcome {
    /// The merged tomography results (identical to a direct in-memory
    /// run over the same records).
    pub results: PipelineResults,
    /// Line/import accounting from the replay bridge.
    pub report: ReplayReport,
    /// Engine-side work counters.
    pub engine_stats: EngineStats,
    /// Wall seconds for the full pass (read through finish).
    pub secs: f64,
}

/// One replay run's shape: engine construction (fresh or restored from
/// a checkpoint), feeder/format wiring, and the checkpoint cadence.
pub struct ReplaySession<'a> {
    /// Engine configuration — shard count, queue depth, retirement
    /// horizon. On resume this must match the checkpointing run's
    /// (restore refuses loudly otherwise).
    pub engine_cfg: EngineConfig,
    /// Feeder thread count. Digest-identical resume under a finite
    /// horizon requires 1 (watermark order); without a horizon any count
    /// reproduces the uninterrupted digest.
    pub feeders: usize,
    /// Record dialect of the replayed lines.
    pub format: ReplayFormat,
    /// Observability context for the engine, if instrumented.
    pub obs: Option<EngineObs>,
    /// Restore from this checkpoint file and continue past its cursor.
    pub resume_from: Option<&'a str>,
    /// Write periodic checkpoints to this path (atomically: tmp +
    /// rename, so a crash mid-write never corrupts the previous one).
    pub checkpoint_to: Option<&'a str>,
    /// Lines between checkpoints (needs `checkpoint_to`).
    pub checkpoint_every: Option<u64>,
    /// Stop after this many checkpoints without finishing the engine —
    /// the crash-injection hook the resume round-trip CI lane uses.
    pub halt_after_checkpoints: Option<u64>,
}

/// How a [`replay_session`] ended.
#[allow(clippy::large_enum_variant)] // one per run; size is irrelevant
pub enum ReplaySessionOutcome {
    /// The stream was fully ingested and merged into a report.
    Finished(ReplayOutcome),
    /// The run halted at `halt_after_checkpoints`; the engine was
    /// dropped un-finished and the last checkpoint carries the state.
    Halted {
        /// Checkpoints written before halting.
        checkpoints: u64,
        /// Input lines ingested (== the last checkpoint's cursor).
        cursor: u64,
    },
}

/// Replay a dump into an engine over the given interpretation context
/// and time it end to end: the one disk-to-report entry point, covering
/// the plain one-shot run (no resume/checkpoint options), periodic
/// checkpointing, and restore-and-continue.
pub fn replay_session<R: BufRead>(
    r: R,
    db: &Ip2AsDb,
    topo: &Topology,
    session: ReplaySession<'_>,
) -> std::io::Result<ReplaySessionOutcome> {
    let start = Instant::now();
    let mut opts = ResumeReplayOptions {
        checkpoint_every: session.checkpoint_every,
        halt_after_checkpoints: session.halt_after_checkpoints,
        ..ResumeReplayOptions::default()
    };
    let engine = match session.resume_from {
        Some(path) => {
            let file = std::fs::File::open(path)?;
            let restored = Engine::restore(
                db,
                topo,
                session.engine_cfg,
                &mut std::io::BufReader::new(file),
                session.obs,
            )
            .map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, format!("restore {path}: {e}"))
            })?;
            opts.skip_lines = restored.cursor;
            // The user blob is the import accounting at the cut; an
            // empty blob (foreign checkpoint) just restarts the counts.
            opts.prior = std::str::from_utf8(&restored.user)
                .ok()
                .and_then(|s| serde_json::from_str(s).ok())
                .unwrap_or_default();
            restored.engine
        }
        None => Engine::with_context(db, topo, session.engine_cfg, session.obs),
    };
    let outcome = replay_jsonl_resumable(
        r,
        &engine,
        session.feeders,
        session.format,
        &opts,
        |cursor, stats| match session.checkpoint_to {
            Some(path) => write_checkpoint(&engine, path, cursor, &stats),
            None => Ok(()),
        },
    )?;
    if outcome.halted {
        return Ok(ReplaySessionOutcome::Halted {
            checkpoints: outcome.checkpoints,
            cursor: outcome.report.lines,
        });
    }
    let (results, engine_stats) = engine.finish_with_stats();
    let secs = start.elapsed().as_secs_f64();
    Ok(ReplaySessionOutcome::Finished(ReplayOutcome {
        results,
        report: outcome.report,
        engine_stats,
        secs,
    }))
}

/// Write one checkpoint atomically: the engine state plus the import
/// accounting (as the user blob) land in `path.tmp`, fsynced, then
/// renamed over `path` — a crash mid-write leaves the previous
/// checkpoint intact.
fn write_checkpoint(
    engine: &Engine<'_>,
    path: &str,
    cursor: u64,
    stats: &ImportStats,
) -> std::io::Result<()> {
    let user = serde_json::to_string(stats).expect("import stats serialize").into_bytes();
    let tmp = format!("{path}.tmp");
    let mut w = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
    engine.checkpoint(cursor, &user, &mut w)?;
    w.flush()?;
    w.into_inner().expect("flushed").sync_all()?;
    std::fs::rename(&tmp, path)
}

/// The `BENCH_replay.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayBenchReport {
    /// Workload scale label (from the dump's manifest).
    pub scale: String,
    /// Study seed (from the dump's manifest).
    pub seed: u64,
    /// Record dialect replayed.
    pub format: String,
    /// Shard worker count.
    pub shards: usize,
    /// Feeder thread count.
    pub feeders: usize,
    /// Cores visible to the process.
    pub available_cores: usize,
    /// Lines read from the dump.
    pub lines: u64,
    /// Records that parsed and reached the engine.
    pub records_ok: u64,
    /// Wall seconds, read through finish.
    pub secs: f64,
    /// Lines per second through the full path.
    pub records_per_sec: f64,
    /// Parsed measurements per second through the full path.
    pub meas_per_sec: f64,
    /// Merged import accounting.
    pub import: ImportStats,
    /// Engine work counters.
    pub engine: EngineStats,
    /// Hex FNV-1a digest of the canonical report (equal digests ⇔
    /// byte-identical reports).
    pub report_digest: String,
    /// Identified censoring ASes.
    pub identified_censors: usize,
    /// Terminal metrics scrape — the uniform stats surface (live engine
    /// series when the replay was instrumented, plus the
    /// `churnlab_stats_*` mirror of the counters above). Absent on
    /// reports from before the observability layer.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub metrics: Option<Snapshot>,
}

impl ReplayBenchReport {
    /// Assemble from a finished replay pass.
    pub fn assemble(scale: &str, seed: u64, shards: usize, outcome: &ReplayOutcome) -> Self {
        let canonical = outcome.results.canonical_report();
        ReplayBenchReport {
            scale: scale.to_string(),
            seed,
            format: outcome.report.format.label().to_string(),
            shards,
            feeders: outcome.report.feeders,
            available_cores: std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1),
            lines: outcome.report.lines,
            records_ok: outcome.report.stats.ok,
            secs: outcome.secs,
            records_per_sec: outcome.report.lines as f64 / outcome.secs.max(f64::EPSILON),
            meas_per_sec: outcome.report.stats.ok as f64 / outcome.secs.max(f64::EPSILON),
            import: outcome.report.stats,
            engine: outcome.engine_stats,
            report_digest: format!("{:016x}", canonical.digest()),
            identified_censors: canonical.censor_findings.len(),
            metrics: None,
        }
    }

    /// Attach the run's terminal metrics scrape.
    pub fn with_metrics(mut self, metrics: Snapshot) -> Self {
        self.metrics = Some(metrics);
        self
    }
}
