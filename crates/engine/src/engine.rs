//! The sharded engine: ingestion routing, shard workers, report merging,
//! the window-retirement fold protocol, and checkpoint/restore.

use crate::ckpt::{self, Dec, Enc, RestoreError, MAGIC, VERSION};
use crate::incremental::IncrementalStats;
use crate::intern::InternStats;
use crate::obs::{EngineObs, ShardObs, PHASE_NANOS};
use crate::shard::{run_worker, CompactCut, Msg, ShardReport, ShardState, SolvedCell};
use churnlab_core::accumulate::FindingsAccumulator;
use churnlab_core::analyze::InstanceOutcome;
use churnlab_core::convert::ConversionStats;
use churnlab_core::pipeline::{ChurnMode, PipelineConfig, PipelineResults};
use churnlab_core::{ChurnAccumulator, RetiredChurn};
use churnlab_obs::{BusyStart, Registry};
use churnlab_platform::{Measurement, Platform};
use churnlab_sat::CtxStats;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Engine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// The tomography configuration (identical semantics to the batch
    /// [`churnlab_core::pipeline::Pipeline`]).
    pub pipeline: PipelineConfig,
    /// Shard worker count; `0` means one per available core.
    pub shards: usize,
    /// Bounded per-shard queue depth in messages (backpressure: sends
    /// block when a shard falls this far behind; a message is one direct
    /// ingest or one feeder chunk).
    pub queue_capacity: usize,
    /// Lateness horizon in days: a (URL × window) group retires — its
    /// cells solved once, its solver state freed — when the shard's
    /// high-water day passes `window end + horizon`. `None` (default)
    /// keeps every group live forever, reproducing pre-lifecycle results
    /// byte for byte. Defaults on deserialize so stored configs parse.
    #[serde(default)]
    pub window_horizon: Option<u32>,
}

impl EngineConfig {
    /// Default shard/queue sizing over a pipeline configuration.
    pub fn new(pipeline: PipelineConfig) -> Self {
        EngineConfig { pipeline, shards: 0, queue_capacity: 1024, window_horizon: None }
    }

    /// Override the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Set a window-retirement lateness horizon (days).
    pub fn with_window_horizon(mut self, days: u32) -> Self {
        self.window_horizon = Some(days);
        self
    }

    fn resolved_shards(&self) -> usize {
        if self.shards != 0 {
            return self.shards;
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

/// Per-thread busy-time attribution, nanoseconds. Shard workers account
/// every nanosecond they spend converting, solving, and building
/// reports; the merge accounts its own serial section. Together these
/// give the bench an Amdahl-style critical path (`max shard busy +
/// merge`) that exposes a serialized engine even on machines with fewer
/// cores than shards — the basis of the committed scaling-efficiency
/// gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineBusy {
    /// Sum of all shard workers' busy time — the run's total parallel
    /// work (grows slightly with shard count: per-shard interners
    /// re-intern paths that cross shards).
    pub shard_total_nanos: u64,
    /// The slowest shard worker's busy time — the parallel section's
    /// critical path. Flat scaling shows up here: a serialized engine
    /// has `max ≈ total`.
    pub shard_max_nanos: u64,
    /// Critical-path cost of the merge that produced this report: the
    /// merging thread's on-CPU time plus the slowest parallel
    /// accumulation worker (wall time where the CPU clock is
    /// unavailable). The serial section at the snapshot boundary.
    pub merge_nanos: u64,
}

/// Window-lifecycle counters, summed over shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetireStats {
    /// (URL × window) groups retired under the lateness horizon.
    pub windows_retired: u64,
    /// Cells solved at retirement time.
    pub cells_retired: u64,
    /// Observations dropped because their tomography window had already
    /// retired.
    pub late_dropped: u64,
    /// Churn samples dropped below the fold frontier.
    pub churn_late_dropped: u64,
}

/// Aggregate engine-side work counters (incremental-solve effectiveness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Shard workers used.
    pub shards: usize,
    /// Converted observations routed to shards.
    pub observations: u64,
    /// Per-instance incremental-solve counters, summed over shards.
    pub incremental: IncrementalStats,
    /// Path-interner counters, summed over shards (a path routed to two
    /// shards counts as distinct in each — distinctness is per shard).
    /// Describes the *ingest* stream: in the deferred
    /// [`churnlab_core::pipeline::ChurnMode::FirstPathOnly`] ablation,
    /// where ingestion buffers rather than interns, these stay zero.
    /// Defaults on deserialize so pre-interning stats blobs still parse.
    #[serde(default)]
    pub interner: InternStats,
    /// Busy-time attribution for this report's cut. Defaults on
    /// deserialize so pre-accounting stats blobs still parse.
    #[serde(default)]
    pub busy: EngineBusy,
    /// SAT-solver work counters, summed over the shards' warm contexts
    /// (propagations, backtracks, censuses, models). Defaults on
    /// deserialize so pre-solver-stats blobs still parse.
    #[serde(default)]
    pub sat: CtxStats,
    /// Window-lifecycle counters. Defaults on deserialize so
    /// pre-lifecycle stats blobs still parse.
    #[serde(default)]
    pub retire: RetireStats,
}

/// Mirror a `u64` counter value into an absolute gauge (gauges are
/// `i64`; values past `i64::MAX` saturate, which nothing real reaches).
fn stats_gauge(reg: &Registry, name: &str, help: &str, v: u64) {
    reg.gauge(name, help, &[]).set(v.min(i64::MAX as u64) as i64);
}

impl EngineStats {
    /// Mirror this stats block into `churnlab_stats_*` gauges on
    /// `registry` — the *uniform stats surface* the binaries publish
    /// instead of hand-formatted text blocks. Gauges, not counters, on
    /// purpose: these are absolute cumulative values from a finished
    /// cut, so re-recording after a later cut must overwrite, not add.
    /// The namespace is disjoint from the live `churnlab_*_total{shard}`
    /// series so the two never collide on metric kind.
    pub fn record_into(&self, registry: &Registry) {
        stats_gauge(registry, "churnlab_stats_shards", "shard workers used", self.shards as u64);
        stats_gauge(
            registry,
            "churnlab_stats_observations",
            "converted observations routed to shards",
            self.observations,
        );
        let inc = &self.incremental;
        stats_gauge(
            registry,
            "churnlab_stats_updates",
            "observations that changed an instance (post-dedup)",
            inc.updates,
        );
        stats_gauge(
            registry,
            "churnlab_stats_duplicates",
            "duplicate observations dropped by dedup",
            inc.duplicates,
        );
        stats_gauge(
            registry,
            "churnlab_stats_direct_updates",
            "updates resolved by a closed-form state transition",
            inc.direct_updates,
        );
        stats_gauge(
            registry,
            "churnlab_stats_unsat_skips",
            "updates skipped on already-unsat instances",
            inc.unsat_skips,
        );
        stats_gauge(
            registry,
            "churnlab_stats_resolves",
            "updates that ran a reduced-formula re-solve",
            inc.resolves,
        );
        self.interner.record_into(registry);
        stats_gauge(
            registry,
            "churnlab_stats_shard_total_nanos",
            "sum of shard workers' busy nanoseconds",
            self.busy.shard_total_nanos,
        );
        stats_gauge(
            registry,
            "churnlab_stats_shard_max_nanos",
            "slowest shard worker's busy nanoseconds",
            self.busy.shard_max_nanos,
        );
        stats_gauge(
            registry,
            "churnlab_stats_merge_nanos",
            "critical-path nanoseconds of the merge",
            self.busy.merge_nanos,
        );
        stats_gauge(
            registry,
            "churnlab_stats_sat_propagations",
            "SAT trail entries processed by unit propagation",
            self.sat.propagations,
        );
        stats_gauge(
            registry,
            "churnlab_stats_sat_backtracks",
            "SAT decision levels undone",
            self.sat.backtracks,
        );
        stats_gauge(
            registry,
            "churnlab_stats_sat_censuses",
            "SAT census queries answered",
            self.sat.censuses,
        );
        stats_gauge(
            registry,
            "churnlab_stats_sat_census_models",
            "models counted across all SAT censuses",
            self.sat.census_models,
        );
        stats_gauge(
            registry,
            "churnlab_stats_windows_retired",
            "(URL x window) groups retired under the lateness horizon",
            self.retire.windows_retired,
        );
        stats_gauge(
            registry,
            "churnlab_stats_cells_retired",
            "cells solved at retirement time",
            self.retire.cells_retired,
        );
        stats_gauge(
            registry,
            "churnlab_stats_late_dropped",
            "observations dropped for already-retired windows",
            self.retire.late_dropped,
        );
    }
}

/// The sharded, order-independent, incremental tomography engine.
///
/// Unlike the batch [`churnlab_core::pipeline::Pipeline`], the engine
/// accepts measurements in **any order** — there is no URL-grouping
/// contract — and keeps every (URL × window × anomaly) instance
/// incrementally solved as observations stream in. `ingest` routes the
/// *raw* measurement to a shard worker by `hash(url_id)` over a bounded
/// channel; conversion (the §3.1 elimination rules — the most expensive
/// per-measurement stage) runs **on the shard's thread**, so one
/// ingesting caller drives N shards' worth of conversion in parallel.
/// `&self` ingestion means any number of feeder threads can share one
/// engine.
///
/// [`Engine::snapshot`] merges per-shard reports into a
/// [`PipelineResults`] without stopping ingestion; [`Engine::finish`]
/// does the same and shuts the workers down. Reports are
/// `PipelineResults`-compatible, so everything downstream — reports,
/// validation, the matrix harness — works unchanged, and
/// [`churnlab_core::report::CanonicalReport`] serializations are
/// byte-identical to the batch pipeline's over the same measurement
/// set.
pub struct Engine<'c> {
    topo: &'c churnlab_topology::Topology,
    cfg: PipelineConfig,
    /// Window-retirement lateness horizon (see
    /// [`EngineConfig::window_horizon`]).
    horizon: Option<u32>,
    senders: Vec<SyncSender<Msg>>,
    /// Joined on shutdown, or eagerly by [`Engine::worker_died`] when a
    /// send fails — `Mutex` because `&self` senders may hit a dead
    /// worker concurrently and exactly one of them gets to join it.
    workers: Mutex<Vec<Option<JoinHandle<()>>>>,
    /// Engine-persistent retired state: what [`Engine::compact`] drained
    /// from the shards (findings, trivial counts) plus the globally
    /// folded churn tallies and fold frontier. Re-merged into every
    /// report, so draining retired cells never changes censor findings,
    /// leakage, churn distributions, or trivial accounting.
    retired: Mutex<EngineRetired>,
    /// Observability context; `None` is the stripped configuration the
    /// overhead gate baselines against (no registry, no atomics).
    obs: Option<Arc<EngineObs>>,
}

/// See [`Engine::retired`].
#[derive(Default)]
struct EngineRetired {
    churn: RetiredChurn,
    churn_frontier: u32,
    findings: FindingsAccumulator,
    trivial: u64,
}

/// Deterministic URL → shard routing: round robin over the id.
///
/// URL ids are dense corpus indices (the platform's corpus and the
/// interop importer both hand them out sequentially), so modulo is the
/// *balanced* partition — every shard owns the same number of URLs ±1.
/// The avalanche hash this replaces looked more principled but binned a
/// small dense id space binomially: at 60 URLs over 8 shards the
/// busiest shard drew ~40% more URLs than the mean, and that partition
/// skew — not any serialization — capped 8-shard scaling efficiency at
/// ~0.6× linear.
fn shard_of(url_id: u32, n_shards: usize) -> usize {
    (url_id as usize) % n_shards
}

/// Render a worker's panic payload for re-raising with shard context.
fn payload_msg(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// Cells below this total skip the scoped-thread fan-out at the merge
/// boundary: spawning per-shard merge threads costs more than resolving
/// a small report serially.
const PARALLEL_MERGE_MIN_CELLS: usize = 1024;

impl<'c> Engine<'c> {
    /// New engine over a platform (interpret the platform's measurements
    /// with the platform's own degraded IP-to-AS view).
    pub fn new(platform: &'c Platform<'c>, cfg: EngineConfig) -> Self {
        Self::with_context(platform.measured_ip2as(), &platform.world().topology, cfg, None)
    }

    /// [`Engine::new`] with an observability context (see
    /// [`Engine::with_context`]).
    pub fn new_with_obs(platform: &'c Platform<'c>, cfg: EngineConfig, obs: EngineObs) -> Self {
        Self::with_context(platform.measured_ip2as(), &platform.world().topology, cfg, Some(obs))
    }

    /// New engine over externally supplied context — the entry point for
    /// imported measurement records, mirroring
    /// [`churnlab_core::pipeline::Pipeline::with_context`]. The IP-to-AS
    /// database is cloned once into the shard workers (they convert on
    /// their own threads and outlive the borrow).
    ///
    /// With `obs`, shard workers publish live metrics (and journal
    /// events, when a journal is attached) through it. `None` is the
    /// *stripped* configuration — no registry, no atomic ops, one
    /// predictable branch per instrumentation site — which is what the
    /// bench's overhead gate compares the instrumented engine against.
    pub fn with_context(
        db: &churnlab_topology::Ip2AsDb,
        topo: &'c churnlab_topology::Topology,
        cfg: EngineConfig,
        obs: Option<EngineObs>,
    ) -> Self {
        let obs = obs.map(Arc::new);
        let n = cfg.resolved_shards().max(1);
        let states = (0..n)
            .map(|i| {
                let shard_obs = obs.as_ref().map(|o| ShardObs::new(o, i));
                ShardState::new(cfg.pipeline.clone(), cfg.window_horizon, shard_obs)
            })
            .collect();
        Self::spawn(db, topo, cfg, obs, states)
    }

    /// Spawn workers over pre-built shard states — shared by fresh
    /// construction and checkpoint restore, so both run the same worker.
    fn spawn(
        db: &churnlab_topology::Ip2AsDb,
        topo: &'c churnlab_topology::Topology,
        cfg: EngineConfig,
        obs: Option<Arc<EngineObs>>,
        states: Vec<ShardState>,
    ) -> Self {
        assert!(
            cfg.window_horizon.is_none() || cfg.pipeline.churn_mode != ChurnMode::FirstPathOnly,
            "window_horizon is incompatible with the FirstPathOnly ablation: \
             \"first path\" is only defined over the whole stream, so its \
             windows can never retire"
        );
        let db = Arc::new(db.clone());
        let mut senders = Vec::with_capacity(states.len());
        let mut workers = Vec::with_capacity(states.len());
        for (i, state) in states.into_iter().enumerate() {
            let (tx, rx) = sync_channel(cfg.queue_capacity.max(1));
            let worker_db = Arc::clone(&db);
            let handle = std::thread::Builder::new()
                .name(format!("churnlab-shard-{i}"))
                .spawn(move || run_worker(rx, state, worker_db))
                .expect("spawn shard worker");
            senders.push(tx);
            workers.push(Some(handle));
        }
        Engine {
            topo,
            cfg: cfg.pipeline,
            horizon: cfg.window_horizon,
            senders,
            workers: Mutex::new(workers),
            retired: Mutex::new(EngineRetired::default()),
            obs,
        }
    }

    /// The engine's observability context, if one was attached.
    pub fn obs(&self) -> Option<&EngineObs> {
        self.obs.as_deref()
    }

    /// Number of shard workers.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Send to a shard, turning a dead worker into a contextful panic
    /// instead of an unrelated `SendError` unwrap.
    pub(crate) fn send(&self, shard: usize, msg: Msg) {
        if self.senders[shard].send(msg).is_err() {
            self.worker_died(shard);
        }
    }

    /// A send or reply failed because shard `shard`'s worker is gone:
    /// join it and propagate its panic payload with shard context. A
    /// worker exiting without panicking while senders are live is a bug
    /// in its own right and panics too.
    #[cold]
    fn worker_died(&self, shard: usize) -> ! {
        let handle =
            self.workers.lock().unwrap_or_else(|e| e.into_inner())[shard].take();
        match handle.map(JoinHandle::join) {
            Some(Err(payload)) => {
                let msg = payload_msg(payload.as_ref());
                if let Some(obs) = &self.obs {
                    obs.worker_panic(shard, msg);
                }
                panic!("shard worker {shard} panicked: {msg}")
            }
            Some(Ok(())) => {
                panic!("shard worker {shard} exited with senders still live (engine bug)")
            }
            // Another thread already joined it and is propagating; this
            // thread still cannot make progress.
            None => panic!("shard worker {shard} is dead (joined elsewhere)"),
        }
    }

    /// Test instrumentation: make shard `shard`'s worker panic, so the
    /// worker-death propagation path can be exercised deterministically.
    /// Compiled only under the `test-instrumentation` feature; not part
    /// of the public API.
    #[cfg(feature = "test-instrumentation")]
    #[doc(hidden)]
    pub fn inject_worker_panic(&self, shard: usize) {
        // An Err means the worker is already gone, which is fine — the
        // next real send will propagate.
        let _ = self.senders[shard].send(Msg::Poison);
    }

    /// Ingest one measurement, in any order relative to any other. The
    /// raw measurement is routed to its URL's shard and converted (the
    /// §3.1 elimination rules) on the shard's own thread. Blocks only
    /// when that shard's bounded queue is full. Copies the measurement —
    /// callers that own theirs should prefer [`Engine::ingest_owned`].
    pub fn ingest(&self, m: &Measurement) {
        self.ingest_owned(m.clone());
    }

    /// [`Engine::ingest`] without the copy.
    pub fn ingest_owned(&self, m: Measurement) {
        let shard = shard_of(m.url_id, self.senders.len());
        self.send(shard, Msg::Raw(m));
    }

    /// A buffering ingest handle for one feeder thread: measurements
    /// accumulate locally and ship to shards in chunks, amortizing the
    /// channel synchronization that per-measurement `ingest` pays. Spawn
    /// one per feeder thread; buffered measurements reach the shards when
    /// a chunk fills, at [`Feeder::flush`], or on drop — flush (or drop)
    /// every feeder before `snapshot` if the snapshot must include its
    /// tail.
    pub fn feeder(&self) -> Feeder<'_, 'c> {
        Feeder {
            engine: self,
            buffers: vec![Vec::new(); self.senders.len()],
            chunk: Feeder::DEFAULT_CHUNK,
        }
    }

    /// Collect one report per shard. Each shard replies after draining
    /// everything enqueued before the request — a consistent cut per
    /// shard even while feeders keep ingesting.
    fn collect_reports(&self, fin: bool) -> Vec<ShardReport> {
        let mut pending = Vec::with_capacity(self.senders.len());
        for shard in 0..self.senders.len() {
            let (reply_tx, reply_rx) = sync_channel(1);
            self.send(shard, Msg::Report { reply: reply_tx, fin });
            pending.push(reply_rx);
        }
        pending
            .into_iter()
            .enumerate()
            .map(|(shard, rx)| match rx.recv() {
                Ok(report) => report,
                Err(_) => self.worker_died(shard),
            })
            .collect()
    }

    fn merge(&self, reports: Vec<ShardReport>) -> (PipelineResults, EngineStats) {
        // Critical-path accounting, same basis as the shard workers:
        // the merging thread's on-CPU time (immune to being descheduled
        // under core oversubscription) plus the slowest parallel
        // accumulation worker — what an unconstrained machine would
        // serially wait for. Wall time is the fallback.
        let start = BusyStart::now();
        let mut par_max_nanos = 0u64;
        let mut stats = EngineStats { shards: self.senders.len(), ..Default::default() };
        let mut conversion = ConversionStats::default();
        let mut churn = ChurnAccumulator::new();
        let mut trivial = 0u64;
        let mut total_cells = 0usize;
        // The global fold watermark: the *minimum* high-water day across
        // every shard. `None` if any shard has seen no data yet — then
        // no churn window can be proven globally closed.
        let mut min_hw = Some(u32::MAX);
        for r in &reports {
            stats.observations += r.observations;
            stats.incremental.merge(r.stats);
            stats.interner.merge(r.intern);
            stats.sat = stats.sat.merged(r.sat);
            stats.busy.shard_total_nanos += r.busy_nanos;
            stats.busy.shard_max_nanos = stats.busy.shard_max_nanos.max(r.busy_nanos);
            stats.retire.windows_retired += r.windows_retired;
            stats.retire.cells_retired += r.cells_retired;
            stats.retire.late_dropped += r.late_dropped;
            conversion.merge(r.conversion);
            trivial += r.trivial;
            total_cells += r.cells.len();
            min_hw = match (min_hw, r.high_water) {
                (Some(m), Some(h)) => Some(m.min(h)),
                _ => None,
            };
        }
        // Cells carry PathIds; each id is only meaningful against its own
        // shard's snapshot, so findings accumulate per shard — in
        // parallel for big reports (scoped threads: the topology is a
        // borrow) — and fan in through the order-independent
        // `FindingsAccumulator::merge`. This keeps the snapshot boundary
        // from serializing on one thread as shard counts grow.
        let topo = self.topo;
        let shard_acc = |r: &ShardReport| {
            let mut acc = FindingsAccumulator::new();
            for cell in &r.cells {
                acc.record(
                    &cell.outcome,
                    cell.censored_paths.iter().map(|id| r.paths.path(*id)),
                    topo,
                );
            }
            acc
        };
        let accs: Vec<FindingsAccumulator> =
            if total_cells >= PARALLEL_MERGE_MIN_CELLS && reports.len() > 1 {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = reports
                        .iter()
                        .map(|r| {
                            scope.spawn(|| {
                                let start = BusyStart::now();
                                let acc = shard_acc(r);
                                (acc, start.elapsed().0)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| {
                            let (acc, nanos) = h.join().expect("merge worker");
                            par_max_nanos = par_max_nanos.max(nanos);
                            acc
                        })
                        .collect()
                })
            } else {
                reports.iter().map(shard_acc).collect()
            };
        let mut acc = FindingsAccumulator::new();
        for a in accs {
            acc.merge(a);
        }
        let mut outcomes = Vec::with_capacity(total_cells);
        for r in reports {
            churn.merge(r.churn);
            acc.on_censored_path.extend(r.on_censored_path);
            outcomes.extend(r.cells.into_iter().map(|c: SolvedCell| c.outcome));
        }
        // One deterministic global order, whatever the shard layout.
        outcomes.sort_by_key(|o| o.key);
        stats.retire.churn_late_dropped = churn.late_dropped();
        // Fold in the engine's persistent retired state, then (with a
        // horizon configured and every shard reporting a watermark) fold
        // churn windows closed below the global watermark into it and
        // tell the shards to free their matching partials. The
        // adopt → fold → write-back happens under one lock hold, so
        // concurrent snapshots cannot interleave fold frontiers;
        // re-folding is additionally guarded by the accumulator's stale
        // check.
        let mut prune = None;
        {
            let mut ret = self.retired.lock().unwrap_or_else(|e| e.into_inner());
            churn.adopt_retired(&ret.churn, ret.churn_frontier);
            if self.horizon.is_some() {
                if let Some(hw) = min_hw {
                    churn.fold_closed(hw);
                    let (folded, frontier) = churn.retired_state();
                    ret.churn = folded.clone();
                    ret.churn_frontier = frontier;
                    prune = Some(hw);
                }
            }
            trivial += ret.trivial;
            acc.merge(ret.findings.clone());
        }
        if let Some(hw) = prune {
            for shard in 0..self.senders.len() {
                self.send(shard, Msg::PruneChurn(hw));
            }
        }
        let FindingsAccumulator { censor_findings, leakage, on_censored_path } = acc;
        stats.busy.merge_nanos = match start.elapsed() {
            // Caller CPU excludes the scoped workers (and the idle wait
            // joining them); add back the slowest worker's CPU.
            (cpu, true) => cpu + par_max_nanos,
            (wall, false) => wall,
        };
        if let Some(obs) = &self.obs {
            obs.registry()
                .counter(PHASE_NANOS.0, PHASE_NANOS.1, &[("phase", "merge")])
                .add(stats.busy.merge_nanos);
        }
        let results = PipelineResults {
            outcomes,
            conversion,
            censor_findings,
            leakage,
            churn,
            trivial_instances: trivial,
            on_censored_path,
            config: self.cfg.clone(),
        };
        (results, stats)
    }

    /// Merge a point-in-time report without stopping ingestion. The cut
    /// is per-shard consistent: everything enqueued before the call is
    /// included — and because conversion is shard state, the conversion
    /// counters agree exactly with the cut (a [`Feeder`]'s unflushed
    /// tail is excluded from both).
    pub fn snapshot(&self) -> PipelineResults {
        self.merge(self.collect_reports(false)).0
    }

    /// Drain every shard's retired outcomes — the daemon's memory
    /// reclamation step. The drained per-cell outcomes are returned
    /// (sorted by key) for the caller to emit or discard; their censor
    /// findings, leakage, observability horizon, trivial counts, and
    /// globally-closed churn windows fold into the engine's persistent
    /// retired state, so every aggregate in later reports stays exact —
    /// only the per-cell `outcomes` list of later reports no longer
    /// re-lists what was drained here.
    pub fn compact(&self) -> CompactReport {
        let mut pending = Vec::with_capacity(self.senders.len());
        for shard in 0..self.senders.len() {
            let (tx, rx) = sync_channel(1);
            self.send(shard, Msg::Compact { reply: tx });
            pending.push(rx);
        }
        let cuts: Vec<CompactCut> = pending
            .into_iter()
            .enumerate()
            .map(|(shard, rx)| match rx.recv() {
                Ok(cut) => cut,
                Err(_) => self.worker_died(shard),
            })
            .collect();
        let mut churn = ChurnAccumulator::new();
        let mut min_hw = Some(u32::MAX);
        let mut outcomes = Vec::new();
        let mut trivial = 0u64;
        let mut prune = None;
        {
            let mut ret = self.retired.lock().unwrap_or_else(|e| e.into_inner());
            for cut in cuts {
                let CompactCut { high_water, churn: shard_churn, cells, trivial: t, paths } = cut;
                min_hw = match (min_hw, high_water) {
                    (Some(m), Some(h)) => Some(m.min(h)),
                    _ => None,
                };
                churn.merge(shard_churn);
                trivial += t;
                ret.trivial += t;
                for cell in &cells {
                    ret.findings.record(
                        &cell.outcome,
                        cell.censored_paths.iter().map(|id| paths.path(*id)),
                        self.topo,
                    );
                }
                outcomes.extend(cells.into_iter().map(|c| c.outcome));
            }
            churn.adopt_retired(&ret.churn, ret.churn_frontier);
            if self.horizon.is_some() {
                if let Some(hw) = min_hw {
                    churn.fold_closed(hw);
                    let (folded, frontier) = churn.retired_state();
                    ret.churn = folded.clone();
                    ret.churn_frontier = frontier;
                    prune = Some(hw);
                }
            }
        }
        if let Some(hw) = prune {
            for shard in 0..self.senders.len() {
                self.send(shard, Msg::PruneChurn(hw));
            }
        }
        outcomes.sort_by_key(|o| o.key);
        CompactReport { outcomes, trivial }
    }

    /// Write a versioned binary checkpoint of the engine's full state:
    /// per-shard live groups, path tables, retired accumulators, and
    /// counters, plus the engine's own retired state. `cursor` is the
    /// caller's stream position and `user` an opaque caller blob (e.g.
    /// import counters); both come back verbatim from
    /// [`Engine::restore`]. The cut is per-shard consistent — everything
    /// enqueued before the call is included — so quiesce feeders (flush
    /// or [`Feeder::take_pending`]) first if the checkpoint must line up
    /// exactly with `cursor`. Checkpointing the same logical state twice
    /// produces byte-identical output.
    pub fn checkpoint<W: Write>(&self, cursor: u64, user: &[u8], w: &mut W) -> std::io::Result<()> {
        let mut pending = Vec::with_capacity(self.senders.len());
        for shard in 0..self.senders.len() {
            let (tx, rx) = sync_channel(1);
            self.send(shard, Msg::Checkpoint { reply: tx });
            pending.push(rx);
        }
        let blobs: Vec<Vec<u8>> = pending
            .into_iter()
            .enumerate()
            .map(|(shard, rx)| match rx.recv() {
                Ok(blob) => blob,
                Err(_) => self.worker_died(shard),
            })
            .collect();
        let mut e = Enc::default();
        e.buf.extend_from_slice(&MAGIC);
        e.u32(VERSION);
        e.u32(0); // reserved
        e.u64(cursor);
        e.bytes(user);
        e.str(&serde_json::to_string(&self.cfg).expect("pipeline config serializes"));
        e.u32(self.senders.len() as u32);
        e.opt_u32(self.horizon);
        {
            let ret = self.retired.lock().unwrap_or_else(|x| x.into_inner());
            ckpt::encode_retired_churn(&mut e, &ret.churn);
            e.u32(ret.churn_frontier);
            ckpt::encode_findings(&mut e, &ret.findings);
            e.u64(ret.trivial);
        }
        for blob in &blobs {
            e.bytes(blob);
            e.u64(ckpt::fnv64(blob));
        }
        w.write_all(&e.buf)
    }

    /// Restore an engine from a checkpoint written by
    /// [`Engine::checkpoint`]. The configuration must match the
    /// checkpointing engine's — same pipeline config, same shard count
    /// (path ids and URL routing are shard-local, so resharding a
    /// checkpoint is not defined), same horizon; `queue_capacity` is
    /// free. Returns the engine plus the stored cursor and user blob.
    /// Continuing the stream from `cursor` produces reports identical to
    /// an uninterrupted run's.
    ///
    /// With `obs` (see [`Engine::with_context`]), restored shards seed
    /// the `churnlab_windows_open` gauge from their live group count,
    /// but emit no journal events for pre-checkpoint history: a
    /// restored journal narrates the post-restore stream only.
    pub fn restore(
        db: &churnlab_topology::Ip2AsDb,
        topo: &'c churnlab_topology::Topology,
        cfg: EngineConfig,
        r: &mut impl Read,
        obs: Option<EngineObs>,
    ) -> Result<Restored<'c>, RestoreError> {
        fn c<T>(r: Result<T, String>) -> Result<T, RestoreError> {
            r.map_err(RestoreError::Corrupt)
        }
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes).map_err(RestoreError::Io)?;
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(RestoreError::Corrupt("bad magic — not a checkpoint".to_string()));
        }
        let mut d = Dec::new(&bytes[MAGIC.len()..]);
        let version = c(d.u32())?;
        if version != VERSION {
            return Err(RestoreError::Corrupt(format!(
                "unsupported checkpoint version {version} (expected {VERSION})"
            )));
        }
        let _reserved = c(d.u32())?;
        let cursor = c(d.u64())?;
        let user = c(d.bytes())?.to_vec();
        let stored_cfg = c(d.str())?;
        let our_cfg = serde_json::to_string(&cfg.pipeline).expect("pipeline config serializes");
        if stored_cfg != our_cfg {
            return Err(RestoreError::Mismatch(format!(
                "pipeline config differs from the checkpoint's: checkpoint {stored_cfg}, \
                 configured {our_cfg}"
            )));
        }
        let n_shards = c(d.u32())? as usize;
        let ours = cfg.resolved_shards().max(1);
        if n_shards != ours {
            return Err(RestoreError::Mismatch(format!(
                "checkpoint was taken with {n_shards} shards but the engine is configured \
                 for {ours}; path ids and URL routing are shard-local, so restore requires \
                 the same shard count"
            )));
        }
        let horizon = c(d.opt_u32())?;
        if horizon != cfg.window_horizon {
            return Err(RestoreError::Mismatch(format!(
                "checkpoint window horizon {horizon:?} differs from configured {:?}",
                cfg.window_horizon
            )));
        }
        let retired = EngineRetired {
            churn: c(ckpt::decode_retired_churn(&mut d))?,
            churn_frontier: c(d.u32())?,
            findings: c(ckpt::decode_findings(&mut d))?,
            trivial: c(d.u64())?,
        };
        let obs = obs.map(Arc::new);
        let mut states = Vec::with_capacity(n_shards);
        for shard in 0..n_shards {
            let blob = c(d.bytes())?;
            let checksum = c(d.u64())?;
            if ckpt::fnv64(blob) != checksum {
                return Err(RestoreError::Corrupt(format!("shard {shard} blob checksum mismatch")));
            }
            let shard_obs = obs.as_ref().map(|o| ShardObs::new(o, shard));
            let state = ShardState::decode(cfg.pipeline.clone(), horizon, shard_obs, blob)
                .map_err(|m| RestoreError::Corrupt(format!("shard {shard}: {m}")))?;
            states.push(state);
        }
        c(d.done())?;
        let engine = Self::spawn(db, topo, cfg, obs, states);
        *engine.retired.lock().unwrap_or_else(|e| e.into_inner()) = retired;
        Ok(Restored { engine, cursor, user })
    }

    /// Final report plus the engine-side work counters; shuts the shard
    /// workers down (propagating any worker panic with shard context).
    pub fn finish_with_stats(mut self) -> (PipelineResults, EngineStats) {
        let merged = self.merge(self.collect_reports(true));
        self.shutdown(true);
        merged
    }

    /// Final report; shuts the shard workers down.
    pub fn finish(self) -> PipelineResults {
        self.finish_with_stats().0
    }

    fn shutdown(&mut self, propagate: bool) {
        self.senders.clear(); // workers exit when the last sender drops
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        for (shard, slot) in workers.iter_mut().enumerate() {
            if let Some(handle) = slot.take() {
                if let Err(payload) = handle.join() {
                    let msg = payload_msg(payload.as_ref());
                    if let Some(obs) = &self.obs {
                        obs.worker_panic(shard, msg);
                    }
                    if propagate {
                        panic!("shard worker {shard} panicked: {msg}");
                    }
                }
            }
        }
    }
}

impl Drop for Engine<'_> {
    fn drop(&mut self) {
        // Propagate a worker panic out of a plain drop too — but never
        // while already unwinding (a double panic aborts).
        let unwinding = std::thread::panicking();
        self.shutdown(!unwinding);
    }
}

/// What [`Engine::compact`] drained: the per-cell outcomes of every
/// retired window (sorted by instance key) and the trivial-cell count
/// that retired alongside them. Aggregates derived from these cells
/// remain inside the engine and keep appearing in later reports.
#[derive(Debug, Clone, Default)]
pub struct CompactReport {
    /// Solved outcomes of the drained retired cells, sorted by key.
    pub outcomes: Vec<InstanceOutcome>,
    /// Trivial (all-clean) cells drained along with them.
    pub trivial: u64,
}

/// An engine resurrected by [`Engine::restore`], with the stream
/// position and caller blob stored at checkpoint time.
pub struct Restored<'c> {
    /// The restored engine, ready for further ingest.
    pub engine: Engine<'c>,
    /// Stream cursor passed to [`Engine::checkpoint`].
    pub cursor: u64,
    /// Opaque caller blob passed to [`Engine::checkpoint`].
    pub user: Vec<u8>,
}

/// A per-thread buffering ingest handle (see [`Engine::feeder`]). Holds
/// raw measurements — conversion happens shard-side — so its only
/// per-measurement work is a hash and a buffer push.
pub struct Feeder<'e, 'c> {
    engine: &'e Engine<'c>,
    buffers: Vec<Vec<Measurement>>,
    chunk: usize,
}

impl Feeder<'_, '_> {
    /// Default per-shard chunk size. Sized for throughput: feeding is so
    /// cheap post-routing that channel synchronization dominates it, so
    /// chunks are big; live vantage feeds that want short unflushed
    /// tails before snapshots can shrink this via [`Feeder::with_chunk`].
    pub const DEFAULT_CHUNK: usize = 512;

    /// Override the per-shard chunk size (measurements buffered before a
    /// channel send). Larger chunks amortize synchronization further at
    /// the cost of a longer unflushed tail before `snapshot`.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Ingest one measurement through this feeder's local buffers.
    /// Copies the measurement — callers that own theirs should prefer
    /// [`Feeder::ingest_owned`].
    pub fn ingest(&mut self, m: &Measurement) {
        self.ingest_owned(m.clone());
    }

    /// [`Feeder::ingest`] without the copy.
    pub fn ingest_owned(&mut self, m: Measurement) {
        let shard = shard_of(m.url_id, self.buffers.len());
        let buf = &mut self.buffers[shard];
        buf.push(m);
        if buf.len() >= self.chunk {
            let batch = std::mem::replace(buf, Vec::with_capacity(self.chunk));
            self.engine.send(shard, Msg::Batch(batch));
        }
    }

    /// Ship every buffered measurement to its shard.
    pub fn flush(&mut self) {
        for (shard, buf) in self.buffers.iter_mut().enumerate() {
            if !buf.is_empty() {
                let batch = std::mem::take(buf);
                self.engine.send(shard, Msg::Batch(batch));
            }
        }
    }

    /// Take the unflushed tail instead of shipping it — the checkpoint
    /// cut protocol: take the tail, checkpoint the engine with a cursor
    /// that excludes it, then re-ingest the tail (or drop it, if the
    /// stream will be replayed from the cursor).
    pub fn take_pending(&mut self) -> Vec<Measurement> {
        let mut out = Vec::new();
        for buf in &mut self.buffers {
            out.append(buf);
        }
        out
    }
}

impl Drop for Feeder<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Best-effort tail delivery while unwinding: a dead worker
            // must not turn one panic into an abort.
            for (shard, buf) in self.buffers.iter_mut().enumerate() {
                if !buf.is_empty() {
                    let batch = std::mem::take(buf);
                    let _ = self.engine.senders[shard].send(Msg::Batch(batch));
                }
            }
        } else {
            self.flush();
        }
    }
}
