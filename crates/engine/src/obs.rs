//! Engine-side observability: the handles shard workers and the merge
//! publish through.
//!
//! The engine itself stays obs-optional: constructed plainly it holds no
//! registry, takes no atomic ops, and emits nothing — that *stripped*
//! configuration is the baseline the bench's overhead gate compares
//! against. Constructed with [`EngineObs`]
//! ([`crate::Engine::with_context`]), each shard worker gets a
//! [`ShardObs`] of pre-registered handles:
//!
//! * `churnlab_measurements_total{shard}` — raw measurements routed in;
//! * `churnlab_observations_total{shard}` — conversions that survived
//!   the §3.1 elimination rules (one relaxed `fetch_add` per
//!   measurement — the only per-measurement instrumentation);
//! * `churnlab_phase_nanos_total{phase,shard}` — on-CPU time by phase
//!   (`convert` / `intern` at batch granularity, `resolve` per re-solve,
//!   plus the merge thread's `phase="merge"` series);
//! * `churnlab_windows_open{shard}` — live (URL × window) groups;
//! * `churnlab_resolve_nanos{shard}` — re-solve latency distribution
//!   (wall-timed: re-solves are rare enough that an `Instant` pair per
//!   call is noise).
//!
//! The optional [`Journal`] records the run's narrative — window
//! opened/closed, cell solved, worker panic — precisely enough that the
//! event stream *reconciles* with the final report (see the
//! `journal_reconcile` integration test).

use churnlab_bgp::TimeWindow;
use churnlab_core::analyze::InstanceOutcome;
use churnlab_obs::{Counter, Gauge, Histogram, Journal, Registry};

/// Names/help shared by every series the engine registers, so the shard
/// workers and the stats mirror agree on them.
pub(crate) const PHASE_NANOS: (&str, &str) =
    ("churnlab_phase_nanos_total", "on-CPU nanoseconds by phase");

/// Observability context for one [`crate::Engine`]: a metrics registry
/// plus an optional event journal. Cheap to construct; the engine clones
/// per-shard handles out of it at spawn time.
pub struct EngineObs {
    registry: Registry,
    journal: Option<Journal>,
}

impl EngineObs {
    /// Observability over `registry`, with no journal.
    pub fn new(registry: Registry) -> Self {
        EngineObs { registry, journal: None }
    }

    /// Attach an event journal.
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// The registry every engine series is registered in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The event journal, if one is attached.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Record a worker panic: journal event plus a counter, so the
    /// metrics surface shows it even when no journal is attached.
    pub(crate) fn worker_panic(&self, shard: usize, message: &str) {
        self.registry
            .counter("churnlab_worker_panics_total", "shard workers lost to panics", &[])
            .inc();
        if let Some(j) = &self.journal {
            j.emit_tagged(
                "worker_panic",
                &[("shard", shard as u64)],
                &[("message", message)],
            );
        }
    }
}

/// Per-shard observation handles, cloned out of an [`EngineObs`] before
/// the worker thread spawns. Everything here is pre-registered: the hot
/// path never touches the registry lock.
#[derive(Debug)]
pub(crate) struct ShardObs {
    shard: u64,
    journal: Option<Journal>,
    pub(crate) measurements: Counter,
    pub(crate) observations: Counter,
    pub(crate) phase_convert: Counter,
    pub(crate) phase_intern: Counter,
    pub(crate) windows_open: Gauge,
    pub(crate) resolve: ResolveObs,
}

impl ShardObs {
    /// Register shard `shard`'s series and clone out the handles.
    pub(crate) fn new(obs: &EngineObs, shard: usize) -> ShardObs {
        let reg = &obs.registry;
        let s = shard.to_string();
        let shard_label: &[(&str, &str)] = &[("shard", &s)];
        ShardObs {
            shard: shard as u64,
            journal: obs.journal.clone(),
            measurements: reg.counter(
                "churnlab_measurements_total",
                "raw measurements ingested, per shard",
                shard_label,
            ),
            observations: reg.counter(
                "churnlab_observations_total",
                "converted observations folded into shard state",
                shard_label,
            ),
            phase_convert: reg.counter(
                PHASE_NANOS.0,
                PHASE_NANOS.1,
                &[("phase", "convert"), ("shard", &s)],
            ),
            phase_intern: reg.counter(
                PHASE_NANOS.0,
                PHASE_NANOS.1,
                &[("phase", "intern"), ("shard", &s)],
            ),
            windows_open: reg.gauge(
                "churnlab_windows_open",
                "churn windows (URL x window groups) currently open",
                shard_label,
            ),
            resolve: ResolveObs {
                latency: reg.histogram(
                    "churnlab_resolve_nanos",
                    "incremental re-solve latency, nanoseconds",
                    shard_label,
                ),
                nanos: reg.counter(
                    PHASE_NANOS.0,
                    PHASE_NANOS.1,
                    &[("phase", "resolve"), ("shard", &s)],
                ),
            },
        }
    }

    /// A fresh (URL × window) group came into existence.
    pub(crate) fn window_opened(&self, url_id: u32, window: TimeWindow) {
        self.windows_open.add(1);
        if let Some(j) = &self.journal {
            j.emit_tagged(
                "window_opened",
                &[
                    ("shard", self.shard),
                    ("url_id", u64::from(url_id)),
                    ("window_index", u64::from(window.index)),
                ],
                &[("granularity", &format!("{:?}", window.granularity))],
            );
        }
    }

    /// A group reached the final report: its per-cell tallies are fixed.
    pub(crate) fn window_closed(
        &self,
        url_id: u32,
        window: TimeWindow,
        cells_reported: u64,
        cells_trivial: u64,
    ) {
        self.windows_open.add(-1);
        if let Some(j) = &self.journal {
            j.emit_tagged(
                "window_closed",
                &[
                    ("shard", self.shard),
                    ("url_id", u64::from(url_id)),
                    ("window_index", u64::from(window.index)),
                    ("cells_reported", cells_reported),
                    ("cells_trivial", cells_trivial),
                ],
                &[("granularity", &format!("{:?}", window.granularity))],
            );
        }
    }

    /// One analysed cell crossed into the final report.
    pub(crate) fn cell_solved(&self, outcome: &InstanceOutcome) {
        if let Some(j) = &self.journal {
            j.emit_tagged(
                "cell_solved",
                &[
                    ("shard", self.shard),
                    ("url_id", u64::from(outcome.key.url_id)),
                    ("window_index", u64::from(outcome.key.window.index)),
                    ("censors", outcome.censors.len() as u64),
                    ("potential_censors", outcome.potential_censors.len() as u64),
                ],
                &[
                    ("anomaly", &format!("{:?}", outcome.key.anomaly)),
                    ("solvability", &format!("{:?}", outcome.solvability)),
                ],
            );
        }
    }
}

/// Re-solve timing handles threaded into the worker's
/// [`crate::SolveScratch`], so `IncrementalInstance::resolve` can time
/// itself without knowing anything else about the shard.
#[derive(Debug, Clone)]
pub(crate) struct ResolveObs {
    pub(crate) latency: Histogram,
    pub(crate) nanos: Counter,
}
