//! The three workloads, each driven through the repository's public
//! functions only: `Platform::run_parallel`, `Engine::feeder` /
//! `snapshot` / `compact` / `checkpoint` / `finish_with_stats`,
//! `replay_jsonl` and `RoutingSim::cache_stats`.
//!
//! Every workload is a closed loop with one client. Between ingests the
//! client polls `Engine::snapshot` every `Poll::every` measurements and,
//! every `Poll::persist_every` snapshots, calls `Engine::compact` and
//! writes an `Engine::checkpoint` to a file. The batch workloads poll
//! rarely, like an operator watching a study; the service polls often,
//! like a daemon answering queries while it ingests.
//!
//! Thread budget: one generator worker or one replay feeder, plus one
//! engine shard.

use crate::clock::{process_cpu_ns, thread_cpu_ns};
use churnlab_bgp::RoutingSim;
use churnlab_core::analyze::InstanceOutcome;
use churnlab_core::pipeline::PipelineConfig;
use churnlab_engine::{Engine, EngineConfig, EngineObs, EngineStats, Feeder};
use churnlab_interop::{replay_jsonl, ImportStats, NativeRecord, ReplayFormat};
use churnlab_obs::Registry;
use churnlab_platform::{Measurement, ParallelRun, Platform};
use std::fs::OpenOptions;
use std::hint::black_box;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Generator workers in `campaign`.
pub const WORKERS: usize = 1;
/// Generator workers preparing the `replay` and `service` inputs,
/// untimed, while no engine runs.
pub const PREP_WORKERS: usize = 2;
/// Feeder threads in `replay`.
pub const FEEDERS: usize = 1;
/// Engine shards in every workload.
pub const SHARDS: usize = 1;
/// The service engine's window-retirement horizon, days.
pub const SERVICE_HORIZON: u32 = 7;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fused generator → engine → report.
    Campaign,
    /// The same study as native JSONL, replayed into the engine.
    Replay,
    /// The same study, day-sorted, fed by one thread into an engine with
    /// a retirement horizon, with frequent snapshots.
    Service,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "campaign" => Some(Workload::Campaign),
            "replay" => Some(Workload::Replay),
            "service" => Some(Workload::Service),
            _ => None,
        }
    }

    /// The workload name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::Replay => "replay",
            Workload::Service => "service",
        }
    }

    fn poll(self) -> Poll {
        match self {
            Workload::Campaign | Workload::Replay => Poll {
                every: 1024,
                persist_every: 4,
            },
            Workload::Service => Poll {
                every: 256,
                persist_every: 16,
            },
        }
    }

    /// Untraced passes over each study's input. `campaign` generates its
    /// input inside the pass. A prepared input is replayed more than
    /// once, since preparing it costs more than a pass over it (about 1.5
    /// passes in `replay`, 3 in `service`); more passes would cut the
    /// untimed share of a run, but measure fewer studies.
    pub fn passes(self) -> usize {
        match self {
            Workload::Campaign => 1,
            Workload::Replay => 2,
            Workload::Service => 4,
        }
    }

    fn horizon(self) -> Option<u32> {
        (self == Workload::Service).then_some(SERVICE_HORIZON)
    }
}

/// The client's query schedule, in measurements and snapshots.
#[derive(Debug, Clone, Copy)]
struct Poll {
    every: u64,
    persist_every: u64,
}

/// The study's one generator pass: the timed wire in `campaign`, the
/// untimed input preparation in `replay` and `service`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Generator {
    /// Worker on-CPU seconds (`CampaignBusy`).
    pub busy_s: f64,
    /// `busy_s` minus the worker's CPU inside its sink.
    pub self_s: f64,
    /// Tests run, failed routes included.
    pub tests_run: u64,
    /// Tests with no route.
    pub failed_routes: u64,
    /// Routing-tree cache hits and misses (trees computed).
    pub cache_hits: u64,
    /// Routing trees computed.
    pub cache_misses: u64,
}

impl Generator {
    /// The figures of one `run_parallel` pass whose workers spent
    /// `sink_ns` of their CPU inside the sink.
    fn new(run: &ParallelRun, sim: &RoutingSim<'_>, sink_ns: u64) -> Generator {
        let busy = secs(run.busy.total_nanos());
        let cache = sim.cache_stats();
        Generator {
            busy_s: busy,
            self_s: busy - secs(sink_ns),
            tests_run: run.stats.measurements,
            failed_routes: run.stats.failed,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
        }
    }
}

/// CPU seconds of one traced pass, by layer. Together with the
/// unattributed remainder they make up the pass's process CPU time
/// (`cost_map` in `main.rs` names each as a share).
#[derive(Debug, Clone, Copy, Default)]
pub struct Attribution {
    /// Generator worker CPU outside its sink (`campaign`).
    pub platform_self: f64,
    /// CPU inside `Feeder::ingest_owned` / `flush` on the client thread.
    pub sink: f64,
    /// The replay feeders' `feeder_parse` phase (parse and ingest).
    pub parse: f64,
    /// Client-thread CPU inside `replay_jsonl` (reading and dealing lines).
    pub deal: f64,
    /// Shard worker on-CPU time (`EngineBusy::shard_total_nanos`).
    pub shard: f64,
    /// Client-thread CPU inside `snapshot` and `finish_with_stats`.
    pub snapshot: f64,
    /// Client-thread CPU inside `compact`, `checkpoint` and the file write.
    pub persist: f64,
    /// `canonical_report()` + digest.
    pub report: f64,
}

/// Engine phase times from the `churnlab_phase_nanos_total` series.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// `convert`.
    pub convert_s: f64,
    /// `intern`.
    pub intern_s: f64,
    /// `resolve`.
    pub resolve_s: f64,
    /// `merge` (every snapshot and the final report).
    pub merge_s: f64,
    /// `feeder_parse` (replay feeders).
    pub parse_s: f64,
}

/// One timed pass of a workload over one study, input to final report.
#[derive(Debug, Default)]
pub struct Pass {
    /// Whether this pass ran with tracing on.
    pub traced: bool,
    /// Measurements that entered the engine.
    pub meas: u64,
    /// Wall seconds, input to digest.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// `CanonicalReport` digest (service: drained outcomes folded back).
    pub digest: u64,
    /// `Engine::snapshot` latencies.
    pub snapshot_ms: Vec<f64>,
    /// `Engine::checkpoint` latencies (into memory; the file write after
    /// it is not timed).
    pub checkpoint_ms: Vec<f64>,
    /// `Engine::compact` latencies.
    pub compact_ms: Vec<f64>,
    /// Checkpoint sizes.
    pub checkpoint_bytes: Vec<u64>,
    /// Operations attempted: measurements or lines offered, plus
    /// checkpoint writes.
    pub attempted: u64,
    /// Operations failed: malformed or rejected lines, late-dropped
    /// measurements, failed checkpoint writes.
    pub failed: u64,
    /// Engine counters from `finish_with_stats`.
    pub stats: EngineStats,
    /// Measurements converted to observations.
    pub converted: u64,
    /// Measurements offered to conversion.
    pub conversion_total: u64,
    /// Replay import accounting.
    pub import: ImportStats,
    /// Wall seconds inside `Feeder` calls on the client thread (traced).
    pub sink_wall_s: f64,
    /// CPU by layer (traced).
    pub cpu: Attribution,
    /// Engine phases (traced).
    pub phases: Phases,
    /// `canonical_report()` + digest, milliseconds.
    pub report_ms: f64,
    /// The generator pass, when it ran inside this pass (`campaign`).
    pub generator: Option<Generator>,
}

/// A workload's prepared input for one study.
pub enum Input {
    /// `campaign` generates its own input inside the timed pass.
    Generated,
    /// Native JSONL in memory, with the byte ranges of each poll-sized
    /// batch of lines.
    Jsonl {
        buf: Vec<u8>,
        batches: Vec<Range<usize>>,
    },
    /// The study's measurements, day-sorted.
    Stream(Vec<Measurement>),
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The client's snapshot/compact/checkpoint schedule and its record.
struct Operator<'e, 'c> {
    engine: &'e Engine<'c>,
    poll: Poll,
    ckpt_path: &'e Path,
    polls: u64,
    buf: Vec<u8>,
    snapshot_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    compact_ms: Vec<f64>,
    checkpoint_bytes: Vec<u64>,
    checkpoints: u64,
    checkpoint_failures: u64,
    drained: Vec<InstanceOutcome>,
    snapshot_cpu_ns: u64,
    persist_cpu_ns: u64,
}

impl<'e, 'c> Operator<'e, 'c> {
    fn new(engine: &'e Engine<'c>, poll: Poll, ckpt_path: &'e Path) -> Self {
        Operator {
            engine,
            poll,
            ckpt_path,
            polls: 0,
            buf: Vec::new(),
            snapshot_ms: Vec::new(),
            checkpoint_ms: Vec::new(),
            compact_ms: Vec::new(),
            checkpoint_bytes: Vec::new(),
            checkpoints: 0,
            checkpoint_failures: 0,
            drained: Vec::new(),
            snapshot_cpu_ns: 0,
            persist_cpu_ns: 0,
        }
    }

    /// One query; every `persist_every`-th also compacts and checkpoints.
    /// `cursor` is the stream position the checkpoint records.
    fn poll(&mut self, cursor: u64) {
        let c0 = thread_cpu_ns();
        let t0 = Instant::now();
        let snap = self.engine.snapshot();
        self.snapshot_ms.push(ms_since(t0));
        drop(black_box(snap));
        self.snapshot_cpu_ns += thread_cpu_ns() - c0;
        self.polls += 1;
        if self.polls.is_multiple_of(self.poll.persist_every) {
            self.persist(cursor);
        }
    }

    fn persist(&mut self, cursor: u64) {
        let c0 = thread_cpu_ns();
        let t0 = Instant::now();
        let compacted = self.engine.compact();
        self.compact_ms.push(ms_since(t0));
        self.drained.extend(compacted.outcomes);

        // The file write is not timed: its latency is the host's page
        // cache and disk, not the engine's. It overwrites the file in
        // place: truncating would free the file's blocks on every
        // checkpoint, which filesystems that flush replaced files or
        // discard freed blocks turn into disk I/O inside the pass. The
        // file is a sink that is never read back, so bytes left past a
        // shorter checkpoint do not matter.
        let t0 = Instant::now();
        self.buf.clear();
        let serialized = self.engine.checkpoint(cursor, &[], &mut self.buf);
        self.checkpoint_ms.push(ms_since(t0));
        let written = serialized.and_then(|()| {
            OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(self.ckpt_path)?
                .write_all_at(&self.buf, 0)
        });
        self.checkpoints += 1;
        match written {
            Ok(()) => self.checkpoint_bytes.push(self.buf.len() as u64),
            Err(e) => {
                self.checkpoint_failures += 1;
                eprintln!(
                    "perfbench: checkpoint to {} failed: {e}",
                    self.ckpt_path.display()
                );
            }
        }
        self.persist_cpu_ns += thread_cpu_ns() - c0;
    }
}

/// The client's ingest handle: a feeder plus the operator, timing the
/// feeder calls when traced.
struct Sink<'e, 'c> {
    feeder: Feeder<'e, 'c>,
    op: Operator<'e, 'c>,
    n: u64,
    traced: bool,
    wall_ns: u64,
    cpu_ns: u64,
}

impl<'e, 'c> Sink<'e, 'c> {
    fn new(engine: &'e Engine<'c>, poll: Poll, ckpt_path: &'e Path, traced: bool) -> Self {
        Sink {
            feeder: engine.feeder(),
            op: Operator::new(engine, poll, ckpt_path),
            n: 0,
            traced,
            wall_ns: 0,
            cpu_ns: 0,
        }
    }

    fn timed(&mut self, f: impl FnOnce(&mut Feeder<'e, 'c>)) {
        if self.traced {
            let c0 = thread_cpu_ns();
            let t0 = Instant::now();
            f(&mut self.feeder);
            self.wall_ns += t0.elapsed().as_nanos() as u64;
            self.cpu_ns += thread_cpu_ns() - c0;
        } else {
            f(&mut self.feeder);
        }
    }

    /// Ingest `ms` (never past the next poll) as one timed span, then
    /// poll if the stream reached a poll point.
    fn feed(&mut self, ms: impl Iterator<Item = Measurement>) {
        let mut n = 0;
        self.timed(|f| {
            for m in ms {
                f.ingest_owned(m);
                n += 1;
            }
        });
        self.n += n;
        if self.n.is_multiple_of(self.op.poll.every) {
            self.timed(Feeder::flush);
            self.op.poll(self.n);
        }
    }
}

fn new_engine<'c>(
    platform: &'c Platform<'c>,
    horizon: Option<u32>,
    registry: Option<&Registry>,
) -> Engine<'c> {
    let pipeline = PipelineConfig::paper(platform.config().total_days);
    let mut cfg = EngineConfig::new(pipeline).with_shards(SHARDS);
    if let Some(h) = horizon {
        cfg = cfg.with_window_horizon(h);
    }
    match registry {
        Some(r) => Engine::new_with_obs(platform, cfg, EngineObs::new(r.clone())),
        None => Engine::new(platform, cfg),
    }
}

fn phase_s(registry: &Registry, phase: &str) -> f64 {
    let snap = registry.scrape();
    let nanos: u64 = snap
        .samples
        .iter()
        .filter(|s| s.name == "churnlab_phase_nanos_total")
        .filter(|s| s.labels.iter().any(|(k, v)| k == "phase" && v == phase))
        .filter_map(|s| match s.value {
            churnlab_obs::snapshot::SampleValue::Counter(v) => Some(v),
            _ => None,
        })
        .sum();
    secs(nanos)
}

/// The study's measurements from one untimed generator pass on
/// `PREP_WORKERS` workers, in the serial run's order (each URL's stream,
/// identical whichever worker runs it, in corpus order), with the
/// workers' CPU inside the collecting sink timed.
fn collect(platform: &Platform<'_>, sim: &RoutingSim<'_>) -> (Vec<Measurement>, Generator) {
    let slots: Vec<Mutex<Vec<Measurement>>> = (0..platform.corpus().len())
        .map(|_| Mutex::new(Vec::new()))
        .collect();
    let sink_cpu = AtomicU64::new(0);
    let run = platform.run_parallel(sim, PREP_WORKERS, |_| {
        let (slots, sink_cpu) = (&slots, &sink_cpu);
        move |m: Measurement| {
            let c0 = thread_cpu_ns();
            slots[m.url_id as usize]
                .lock()
                .expect("collect slot lock")
                .push(m);
            sink_cpu.fetch_add(thread_cpu_ns() - c0, Ordering::Relaxed);
        }
    });
    let ms = slots
        .into_iter()
        .flat_map(|s| s.into_inner().expect("collect slot lock"))
        .collect();
    (ms, Generator::new(&run, sim, sink_cpu.into_inner()))
}

/// Build a workload's input for one study (untimed). `sim` must be
/// fresh: its tree cache is part of the generator pass being measured.
pub fn prepare(
    workload: Workload,
    platform: &Platform<'_>,
    sim: &RoutingSim<'_>,
) -> (Input, Option<Generator>) {
    match workload {
        Workload::Campaign => (Input::Generated, None),
        Workload::Replay => {
            let every = workload.poll().every as usize;
            let corpus = platform.corpus();
            let (ms, gen) = collect(platform, sim);
            let mut buf = Vec::new();
            let mut batches = Vec::new();
            for batch in ms.chunks(every) {
                let start = buf.len();
                for m in batch {
                    let rec = NativeRecord::from_measurement(m, &corpus.get(m.url_id).domain);
                    let line = serde_json::to_string(&rec).expect("NativeRecord serializes");
                    buf.extend_from_slice(line.as_bytes());
                    buf.push(b'\n');
                }
                batches.push(start..buf.len());
            }
            (Input::Jsonl { buf, batches }, Some(gen))
        }
        Workload::Service => {
            let (mut stream, gen) = collect(platform, sim);
            // Retirement rides the day watermark: a live feed arrives in
            // day order.
            stream.sort_by_key(|m| m.day);
            (Input::Stream(stream), Some(gen))
        }
    }
}

/// One timed pass of `workload` over a study. `sim` (fresh) is used by
/// `campaign` only; `input` comes from [`prepare`]. Traced passes attach
/// an `EngineObs` and time the client's calls by layer.
pub fn pass(
    workload: Workload,
    platform: &Platform<'_>,
    sim: &RoutingSim<'_>,
    input: &Input,
    traced: bool,
    ckpt_path: &Path,
) -> Result<Pass, String> {
    let registry = traced.then(Registry::new);
    let poll = workload.poll();
    let mut out = Pass {
        traced,
        ..Pass::default()
    };
    // The engine takes measurements by value; copy the stream before the
    // clock starts so every pass over it pays only for ingestion.
    let mut owned = match input {
        Input::Stream(stream) => Some(stream.clone()),
        _ => None,
    };

    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    let engine = new_engine(platform, workload.horizon(), registry.as_ref());
    let (op, offered) = match input {
        Input::Generated => {
            let sink = Mutex::new(Sink::new(&engine, poll, ckpt_path, traced));
            let run = platform.run_parallel(sim, WORKERS, |_| {
                let sink = &sink;
                move |m| {
                    sink.lock()
                        .expect("campaign sink lock")
                        .feed(std::iter::once(m))
                }
            });
            let mut sink = sink.into_inner().expect("campaign sink lock");
            // Everything so far ran on the worker; the tail flush below
            // runs on this thread, outside the worker's busy time.
            let worker_side = sink.cpu_ns + sink.op.snapshot_cpu_ns + sink.op.persist_cpu_ns;
            sink.timed(Feeder::flush);
            out.generator = Some(Generator::new(&run, sim, worker_side));
            out.meas = run.stats.measurements;
            out.cpu.sink = secs(sink.cpu_ns);
            out.sink_wall_s = secs(sink.wall_ns);
            (sink.op, run.stats.measurements)
        }
        Input::Jsonl { buf, batches } => {
            let mut op = Operator::new(&engine, poll, ckpt_path);
            let mut lines = 0u64;
            let mut deal_ns = 0u64;
            for range in batches {
                let c0 = thread_cpu_ns();
                let report =
                    replay_jsonl(&buf[range.clone()], &engine, FEEDERS, ReplayFormat::Native)
                        .map_err(|e| format!("replay_jsonl failed: {e}"))?;
                deal_ns += thread_cpu_ns() - c0;
                out.import.merge(report.stats);
                lines += report.lines;
                op.poll(lines);
            }
            out.meas = out.import.ok;
            out.failed += out.import.malformed + out.import.rejected;
            out.cpu.deal = secs(deal_ns);
            (op, lines)
        }
        Input::Stream(_) => {
            let mut stream = owned
                .take()
                .expect("stream copied before the pass")
                .into_iter();
            let n = stream.len() as u64;
            let mut sink = Sink::new(&engine, poll, ckpt_path, traced);
            while stream.len() > 0 {
                sink.feed(stream.by_ref().take(poll.every as usize));
            }
            sink.timed(Feeder::flush);
            out.meas = n;
            out.cpu.sink = secs(sink.cpu_ns);
            out.sink_wall_s = secs(sink.wall_ns);
            (sink.op, n)
        }
    };
    let Operator {
        snapshot_ms,
        checkpoint_ms,
        compact_ms,
        checkpoint_bytes,
        checkpoints,
        checkpoint_failures,
        drained,
        snapshot_cpu_ns,
        persist_cpu_ns,
        ..
    } = op;

    let c0 = thread_cpu_ns();
    let (mut results, stats) = engine.finish_with_stats();
    let finish_cpu_ns = thread_cpu_ns() - c0;
    let c0 = thread_cpu_ns();
    let t = Instant::now();
    // Outcomes drained by `compact` left the engine; fold them back so
    // the digest covers the whole study.
    results.outcomes.extend(drained);
    out.digest = results.canonical_report().digest();
    out.report_ms = ms_since(t);
    let report_cpu_ns = thread_cpu_ns() - c0;
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_s = secs(process_cpu_ns() - cpu0);

    out.attempted = offered + checkpoints;
    out.failed += checkpoint_failures + stats.retire.late_dropped;
    out.converted = results.conversion.converted;
    out.conversion_total =
        results.conversion.converted + results.conversion.discarded.iter().sum::<u64>();
    out.snapshot_ms = snapshot_ms;
    out.checkpoint_ms = checkpoint_ms;
    out.compact_ms = compact_ms;
    out.checkpoint_bytes = checkpoint_bytes;
    out.stats = stats;
    if let Some(registry) = &registry {
        out.phases = Phases {
            convert_s: phase_s(registry, "convert"),
            intern_s: phase_s(registry, "intern"),
            resolve_s: phase_s(registry, "resolve"),
            merge_s: phase_s(registry, "merge"),
            parse_s: phase_s(registry, "feeder_parse"),
        };
        out.cpu.platform_self = out.generator.map_or(0.0, |g| g.self_s);
        out.cpu.parse = out.phases.parse_s;
        out.cpu.shard = secs(stats.busy.shard_total_nanos);
        out.cpu.snapshot = secs(snapshot_cpu_ns + finish_cpu_ns);
        out.cpu.persist = secs(persist_cpu_ns);
        out.cpu.report = secs(report_cpu_ns);
    }
    Ok(out)
}
