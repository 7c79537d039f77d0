//! The repository benchmark. One command runs one workload for a fixed
//! time and prints its metrics; see `README.md` in this directory.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign|replay|service --seed N --seconds S --trace 0|1
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --record
//! ```
//!
//! The last line of standard output is the result object. The line
//! before it carries the run's provenance and sample counts. A study
//! whose `CanonicalReport` digest differs from its recorded reference
//! stops the run with exit code 1 before any result is printed.

mod clock;
mod study;
mod wire;

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::time::Instant;
use study::{SetupTimes, Size, BENCH};
use wire::{Generator, Pass, Workload};

/// The default seed, and the held-out seed a claim tuned on the default
/// is confirmed on.
const DEFAULT_SEED: u64 = 1;
const HELD_OUT_SEED: u64 = 7_919;

/// End-to-end metrics: every untraced run prints exactly these.
const END_TO_END: &[(&str, &str)] = &[
    ("meas_per_s", "1/s"),
    ("snapshot_p50_ms", "ms"),
    ("snapshot_p90_ms", "ms"),
    ("checkpoint_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: every traced run prints exactly these.
const PER_LAYER: &[(&str, &str)] = &[
    ("topology.generate_s", "s"),
    ("censor.scenario_s", "s"),
    ("bgp.sim_new_s", "s"),
    ("platform.new_s", "s"),
    ("platform.busy_s", "s"),
    ("platform.self_s", "s"),
    ("platform.tests_run", "count"),
    ("platform.failed_routes", "count"),
    ("bgp.tree_cache_hit_ratio", "ratio"),
    ("bgp.trees_computed", "count"),
    ("engine.shard_busy_s", "s"),
    ("engine.shard_max_busy_s", "s"),
    ("engine.shard_idle_frac", "frac"),
    ("engine.convert_s", "s"),
    ("engine.intern_s", "s"),
    ("engine.resolve_s", "s"),
    ("engine.merge_s", "s"),
    ("engine.compact_ms", "ms"),
    ("engine.checkpoint_bytes", "bytes"),
    ("engine.sink_frac", "frac"),
    ("engine.intern_hit_ratio", "ratio"),
    ("engine.duplicate_ratio", "ratio"),
    ("engine.direct_update_ratio", "ratio"),
    ("engine.unsat_skips", "count"),
    ("engine.resolves", "count"),
    ("engine.windows_retired", "count"),
    ("engine.cells_retired", "count"),
    ("engine.late_dropped", "count"),
    ("sat.censuses", "count"),
    ("sat.propagations", "count"),
    ("sat.backtracks", "count"),
    ("sat.census_models", "count"),
    ("core.conversion_rate", "ratio"),
    ("core.report_ms", "ms"),
    ("interop.malformed", "count"),
    ("interop.rejected", "count"),
    ("obs.wire_cpu_s", "s"),
    ("obs.trace_overhead_frac", "frac"),
    ("platform.self_share", "frac"),
    ("engine.sink_share", "frac"),
    ("interop.parse_share", "frac"),
    ("interop.deal_share", "frac"),
    ("engine.shard_share", "frac"),
    ("engine.snapshot_share", "frac"),
    ("engine.persist_share", "frac"),
    ("core.report_share", "frac"),
    ("obs.unattributed_share", "frac"),
];

/// What one invocation measures.
#[derive(Debug)]
struct Config {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
    /// Checkpoint file the service writes (inside the working tree).
    ckpt_path: PathBuf,
}

/// One study of a run: its set-up, its generator pass, and its timed
/// passes over the same input: untraced, or in traced runs alternately
/// untraced and traced.
struct StudyRun {
    id: u64,
    setup: SetupTimes,
    generator: Generator,
    passes: Vec<Pass>,
    /// The process's peak resident set while it set up, prepared and
    /// measured this study, from a trimmed heap.
    peak_rss_bytes: u64,
}

impl StudyRun {
    fn timed_s(&self) -> f64 {
        self.passes.iter().map(|p| p.wall_s).sum()
    }
}

/// Every pass of the run with tracing on (`true`) or off.
fn passes(studies: &[StudyRun], traced: bool) -> Vec<&Pass> {
    studies
        .iter()
        .flat_map(|s| &s.passes)
        .filter(|p| p.traced == traced)
        .collect()
}

/// Reference `CanonicalReport` digests, one per pool study. All three
/// workloads measure the same study, so all three must reproduce it:
/// the service's retired and drained outcomes fold back into the same
/// report.
struct Reference {
    size: String,
    digests: Vec<(u64, u64)>,
}

const REFERENCE_JSON: &str = include_str!("../reference.json");

impl Reference {
    fn load() -> Result<Reference, String> {
        let v: Value = serde_json::from_str(REFERENCE_JSON)
            .map_err(|e| format!("reference.json does not parse: {e:?}"))?;
        let size = field(&v, "size")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        let mut digests = Vec::new();
        for s in field(&v, "studies")
            .and_then(Value::as_array)
            .unwrap_or_default()
        {
            let id = field(s, "id").and_then(Value::as_u64);
            let digest = field(s, "digest")
                .and_then(Value::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok());
            match (id, digest) {
                (Some(id), Some(d)) => digests.push((id, d)),
                _ => return Err("reference.json has a malformed study entry".into()),
            }
        }
        Ok(Reference { size, digests })
    }

    fn expected(&self, size: &Size, id: u64) -> Option<u64> {
        if self.size != size.label {
            return None;
        }
        self.digests.iter().find(|s| s.0 == id).map(|s| s.1)
    }
}

fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// Run one study: set it up, prepare its input, and time
/// `Workload::passes` passes over it. Traced runs alternate untraced and
/// traced passes (at least one of each), starting with either in turn,
/// so neither is favoured by warm-up.
fn run_study(cfg: &Config, id: u64, order: usize) -> Result<StudyRun, String> {
    clock::reset_peak_rss().map_err(|e| format!("reset the peak resident set: {e}"))?;
    study::with_study(&cfg.size, id, |setup, study| {
        let (input, prepared) = wire::prepare(cfg.workload, &study.platform, &study.sim());
        let one = |traced| {
            wire::pass(
                cfg.workload,
                &study.platform,
                &study.sim(),
                &input,
                traced,
                &cfg.ckpt_path,
            )
        };
        let n = cfg.workload.passes();
        let n = if cfg.traced { n.max(2) } else { n };
        let passes = (0..n)
            .map(|i| one(cfg.traced && (i + order) % 2 == 1))
            .collect::<Result<Vec<_>, _>>()?;
        let generator = prepared
            .or_else(|| passes.iter().find(|p| p.traced).and_then(|p| p.generator))
            .or(passes[0].generator)
            .expect("every workload runs the generator once");
        Ok(StudyRun {
            id,
            setup,
            generator,
            passes,
            peak_rss_bytes: clock::peak_rss_bytes().unwrap_or(0),
        })
    })
}

/// Check every pass's digest against the study's recorded reference.
/// Sizes without references (the self-test's) require the passes to
/// agree with each other.
fn check(cfg: &Config, reference: &Reference, s: &StudyRun) -> Result<(), String> {
    let want = match reference.expected(&cfg.size, s.id) {
        Some(want) => want,
        None if cfg.size == BENCH => {
            return Err(format!(
                "no reference digest recorded for study {} (run --record)",
                s.id
            ))
        }
        None => s.passes[0].digest,
    };
    for p in &s.passes {
        if p.digest != want {
            return Err(format!(
                "{} study {} ({}): digest {:016x} != reference {want:016x}",
                cfg.workload.name(),
                s.id,
                if p.traced { "traced" } else { "untraced" },
                p.digest
            ));
        }
    }
    Ok(())
}

/// Run studies until the timed passes add up to `cfg.seconds` (at least
/// one study), checking each as it completes.
fn run(cfg: &Config) -> Result<Vec<StudyRun>, String> {
    let reference = Reference::load()?;
    if let Some(dir) = cfg.ckpt_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let mut studies = Vec::new();
    let mut timed = 0.0;
    for (k, id) in study::order(cfg.seed).enumerate() {
        let s = run_study(cfg, id, k)?;
        check(cfg, &reference, &s)?;
        timed += s.timed_s();
        studies.push(s);
        if timed >= cfg.seconds {
            break;
        }
    }
    let _ = std::fs::remove_file(&cfg.ckpt_path);
    Ok(studies)
}

/// Linear-interpolated quantile of unsorted samples (`q` in [0, 1]).
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics, from the untraced passes. Throughput is the
/// median over passes, so a burst of interference from outside the
/// process moves a few passes, not the figure.
fn end_to_end(studies: &[StudyRun]) -> Vec<(&'static str, f64)> {
    let passes = passes(studies, false);
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>());
    let snaps: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.snapshot_ms.iter().copied())
        .collect();
    let ckpts: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.checkpoint_ms.iter().copied())
        .collect();
    let per_study =
        |f: &dyn Fn(&StudyRun) -> f64| median(&studies.iter().map(f).collect::<Vec<_>>());
    vec![
        ("meas_per_s", per_pass(&|p| p.meas as f64 / p.wall_s)),
        ("snapshot_p50_ms", median(&snaps)),
        ("snapshot_p90_ms", quantile(&snaps, 0.9)),
        ("checkpoint_ms", median(&ckpts)),
        ("peak_rss_mb", per_study(&|s| s.peak_rss_bytes as f64 / 1e6)),
        ("setup_s", per_study(&|s| s.setup.total_s())),
    ]
}

/// The per-layer metrics, from the traced passes (and the generator
/// passes and set-ups of the same studies).
fn per_layer(studies: &[StudyRun]) -> Vec<(&'static str, f64)> {
    let traced = passes(studies, true);
    let gens: Vec<&Generator> = studies.iter().map(|s| &s.generator).collect();
    let med = |f: &dyn Fn(&SetupTimes) -> f64| {
        median(&studies.iter().map(|s| f(&s.setup)).collect::<Vec<_>>())
    };
    let sum = |f: &dyn Fn(&Pass) -> f64| traced.iter().map(|p| f(p)).sum::<f64>();
    let gsum = |f: &dyn Fn(&Generator) -> f64| gens.iter().map(|g| f(g)).sum::<f64>();
    let all = |f: &dyn Fn(&Pass) -> &[f64]| {
        traced
            .iter()
            .flat_map(|p| f(p).iter().copied())
            .collect::<Vec<f64>>()
    };
    let inc = |f: &dyn Fn(&churnlab_engine::IncrementalStats) -> u64| {
        sum(&|p| f(&p.stats.incremental) as f64)
    };

    let wall = sum(&|p| p.wall_s);
    let cpu = sum(&|p| p.cpu_s);
    let untraced_wall: f64 = passes(studies, false).iter().map(|p| p.wall_s).sum();
    let shard_busy = sum(&|p| secs(p.stats.busy.shard_total_nanos));
    let intern_hits = sum(&|p| p.stats.interner.hits as f64);
    let intern_total = intern_hits + sum(&|p| p.stats.interner.distinct_paths as f64);
    let updates = inc(&|s| s.updates);
    let duplicates = inc(&|s| s.duplicates);
    let hits = gsum(&|g| g.cache_hits as f64);
    let misses = gsum(&|g| g.cache_misses as f64);
    let bytes: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.checkpoint_bytes.iter().map(|&b| b as f64))
        .collect();

    let mut metrics = vec![
        ("topology.generate_s", med(&|t| t.generate_s)),
        ("censor.scenario_s", med(&|t| t.scenario_s)),
        ("bgp.sim_new_s", med(&|t| t.sim_new_s)),
        ("platform.new_s", med(&|t| t.platform_new_s)),
        ("platform.busy_s", gsum(&|g| g.busy_s)),
        ("platform.self_s", gsum(&|g| g.self_s)),
        ("platform.tests_run", gsum(&|g| g.tests_run as f64)),
        ("platform.failed_routes", gsum(&|g| g.failed_routes as f64)),
        ("bgp.tree_cache_hit_ratio", ratio(hits, hits + misses)),
        ("bgp.trees_computed", misses),
        ("engine.shard_busy_s", shard_busy),
        (
            "engine.shard_max_busy_s",
            sum(&|p| secs(p.stats.busy.shard_max_nanos)),
        ),
        (
            "engine.shard_idle_frac",
            1.0 - ratio(shard_busy, wire::SHARDS as f64 * wall),
        ),
        ("engine.convert_s", sum(&|p| p.phases.convert_s)),
        ("engine.intern_s", sum(&|p| p.phases.intern_s)),
        ("engine.resolve_s", sum(&|p| p.phases.resolve_s)),
        ("engine.merge_s", sum(&|p| p.phases.merge_s)),
        ("engine.compact_ms", median(&all(&|p| &p.compact_ms))),
        ("engine.checkpoint_bytes", median(&bytes)),
        ("engine.sink_frac", ratio(sum(&|p| p.sink_wall_s), wall)),
        ("engine.intern_hit_ratio", ratio(intern_hits, intern_total)),
        (
            "engine.duplicate_ratio",
            ratio(duplicates, updates + duplicates),
        ),
        (
            "engine.direct_update_ratio",
            ratio(inc(&|s| s.direct_updates), updates),
        ),
        ("engine.unsat_skips", inc(&|s| s.unsat_skips)),
        ("engine.resolves", inc(&|s| s.resolves)),
        (
            "engine.windows_retired",
            sum(&|p| p.stats.retire.windows_retired as f64),
        ),
        (
            "engine.cells_retired",
            sum(&|p| p.stats.retire.cells_retired as f64),
        ),
        (
            "engine.late_dropped",
            sum(&|p| p.stats.retire.late_dropped as f64),
        ),
        ("sat.censuses", sum(&|p| p.stats.sat.censuses as f64)),
        (
            "sat.propagations",
            sum(&|p| p.stats.sat.propagations as f64),
        ),
        ("sat.backtracks", sum(&|p| p.stats.sat.backtracks as f64)),
        (
            "sat.census_models",
            sum(&|p| p.stats.sat.census_models as f64),
        ),
        (
            "core.conversion_rate",
            ratio(
                sum(&|p| p.converted as f64),
                sum(&|p| p.conversion_total as f64),
            ),
        ),
        (
            "core.report_ms",
            median(&traced.iter().map(|p| p.report_ms).collect::<Vec<_>>()),
        ),
        ("interop.malformed", sum(&|p| p.import.malformed as f64)),
        ("interop.rejected", sum(&|p| p.import.rejected as f64)),
        ("obs.wire_cpu_s", cpu),
        ("obs.trace_overhead_frac", 1.0 - ratio(untraced_wall, wall)),
    ];
    let map = cost_map(&traced);
    let attributed: f64 = map.iter().map(|r| ratio(r.1, cpu)).sum();
    metrics.extend(map.into_iter().map(|(name, v)| (name, ratio(v, cpu))));
    metrics.push(("obs.unattributed_share", 1.0 - attributed));
    metrics
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn metric_object(values: &[(&str, f64)], units: &[(&str, &str)]) -> Value {
    Value::Object(
        values
            .iter()
            .map(|&(name, v)| {
                let unit = units
                    .iter()
                    .find(|u| u.0 == name)
                    .expect("metric has a unit")
                    .1;
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::F64(v)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The run's provenance and sample counts.
fn provenance(cfg: &Config, studies: &[StudyRun], elapsed_s: f64) -> Value {
    let s = |v: &str| Value::Str(v.to_string());
    let u = |v: u64| Value::U64(v);
    let untraced = passes(studies, false);
    let snapshots: usize = untraced.iter().map(|p| p.snapshot_ms.len()).sum();
    let checkpoints: usize = untraced.iter().map(|p| p.checkpoint_ms.len()).sum();
    let timed: f64 = studies.iter().map(StudyRun::timed_s).sum();
    Value::Object(vec![
        (
            "git_rev".into(),
            s(&command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "nproc".into(),
            u(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("cpu_model".into(), s(&cpu_model())),
        (
            "rustc".into(),
            s(&command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("workload".into(), s(cfg.workload.name())),
        ("seed".into(), u(cfg.seed)),
        ("trace".into(), Value::Bool(cfg.traced)),
        ("size".into(), s(cfg.size.label)),
        (
            "workers".into(),
            u(if cfg.workload == Workload::Campaign {
                wire::WORKERS as u64
            } else {
                0
            }),
        ),
        (
            "prep_workers".into(),
            u(if cfg.workload == Workload::Campaign {
                0
            } else {
                wire::PREP_WORKERS as u64
            }),
        ),
        (
            "feeders".into(),
            u(if cfg.workload == Workload::Replay {
                wire::FEEDERS as u64
            } else {
                0
            }),
        ),
        ("shards".into(), u(wire::SHARDS as u64)),
        ("seconds_requested".into(), Value::F64(cfg.seconds)),
        ("seconds_timed".into(), Value::F64(timed)),
        ("seconds_elapsed".into(), Value::F64(elapsed_s)),
        (
            "studies".into(),
            Value::Array(studies.iter().map(|s| u(s.id)).collect()),
        ),
        (
            "measurements".into(),
            u(untraced.iter().map(|p| p.meas).sum()),
        ),
        ("snapshot_samples".into(), u(snapshots as u64)),
        ("checkpoint_samples".into(), u(checkpoints as u64)),
    ])
}

/// The cost map of the traced passes: CPU seconds by layer, named by
/// the share metric each one becomes. With `obs.unattributed_share` the
/// shares sum to 1.
fn cost_map(traced: &[&Pass]) -> [(&'static str, f64); 8] {
    let sum = |f: &dyn Fn(&Pass) -> f64| traced.iter().map(|p| f(p)).sum::<f64>();
    [
        ("platform.self_share", sum(&|p| p.cpu.platform_self)),
        ("engine.sink_share", sum(&|p| p.cpu.sink)),
        ("interop.parse_share", sum(&|p| p.cpu.parse)),
        ("interop.deal_share", sum(&|p| p.cpu.deal)),
        ("engine.shard_share", sum(&|p| p.cpu.shard)),
        ("engine.snapshot_share", sum(&|p| p.cpu.snapshot)),
        ("engine.persist_share", sum(&|p| p.cpu.persist)),
        ("core.report_share", sum(&|p| p.cpu.report)),
    ]
}

/// Print the cost map in seconds on standard error.
fn print_cost_map(workload: Workload, studies: &[StudyRun]) {
    let traced = passes(studies, true);
    let cpu: f64 = traced.iter().map(|p| p.cpu_s).sum();
    eprintln!(
        "perfbench: {} cost map over {} traced passes: {cpu:.3} s of process CPU",
        workload.name(),
        traced.len()
    );
    let map = cost_map(&traced);
    let rest = cpu - map.iter().map(|r| r.1).sum::<f64>();
    for (name, v) in map.into_iter().chain([("obs.unattributed_share", rest)]) {
        let layer = name.trim_end_matches("_share");
        eprintln!("  {layer:<22} {v:>9.3} s {:>6.1}%", 100.0 * ratio(v, cpu));
    }
}

/// Record the reference digest of every pool study, requiring all
/// three workloads to agree on it.
fn record(ckpt_path: &Path) -> Result<(), String> {
    if let Some(dir) = ckpt_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let mut entries = Vec::new();
    for id in 0..study::POOL {
        let digests = [Workload::Campaign, Workload::Replay, Workload::Service].map(|workload| {
            study::with_study(&BENCH, id, |_, study| {
                let (input, _) = wire::prepare(workload, &study.platform, &study.sim());
                wire::pass(
                    workload,
                    &study.platform,
                    &study.sim(),
                    &input,
                    false,
                    ckpt_path,
                )
                .map(|p| p.digest)
            })
        });
        let [campaign, replay, service] = digests;
        let (campaign, replay, service) = (campaign?, replay?, service?);
        if replay != campaign || service != campaign {
            return Err(format!(
                "study {id}: campaign {campaign:016x}, replay {replay:016x}, service {service:016x} disagree"
            ));
        }
        eprintln!("perfbench: study {id}: digest {campaign:016x}");
        entries.push(format!(
            "    {{\"id\": {id}, \"digest\": \"{campaign:016x}\"}}"
        ));
    }
    let _ = std::fs::remove_file(ckpt_path);
    let text = format!(
        "{{\n  \"size\": \"{}\",\n  \"pool\": {},\n  \"studies\": [\n{}\n  ]\n}}\n",
        BENCH.label,
        study::POOL,
        entries.join(",\n")
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.json");
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload campaign|replay|service [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      perfbench --record\n\
         default seed {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED}"
    )
}

enum Mode {
    Run(Config),
    Record(PathBuf),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let ckpt_path = PathBuf::from(".bench_build/perfbench-work")
        .join(format!("checkpoint-{}.bin", std::process::id()));
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (DEFAULT_SEED, 10.0_f64, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v.parse().map_err(|_| format!("bad seconds `{v}`"))?;
                if !seconds.is_finite() || seconds < 0.0 {
                    return Err(format!("bad seconds `{v}`"));
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                };
            }
            "--record" => return Ok(Mode::Record(ckpt_path)),
            _ => return Err(format!("unknown argument `{arg}`\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    Ok(Mode::Run(Config {
        workload,
        seed,
        seconds,
        traced,
        size: BENCH,
        ckpt_path,
    }))
}

fn main() {
    if !clock::fix_mmap_threshold() {
        eprintln!("perfbench: cannot fix malloc's mmap threshold");
        std::process::exit(1);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(Mode::Run(cfg)) => cfg,
        Ok(Mode::Record(ckpt_path)) => {
            if let Err(e) = record(&ckpt_path) {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
            return;
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let t0 = Instant::now();
    let studies = match run(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: FAIL — {e}");
            std::process::exit(1);
        }
    };
    let (metrics, units) = if cfg.traced {
        print_cost_map(cfg.workload, &studies);
        (per_layer(&studies), PER_LAYER)
    } else {
        (end_to_end(&studies), END_TO_END)
    };
    for (name, v) in &metrics {
        let unit = units.iter().find(|u| u.0 == *name).map_or("", |u| u.1);
        eprintln!("  {name:<28} {v:>16.6} {unit}");
    }
    let all = studies.iter().flat_map(|s| &s.passes);
    let attempted: u64 = all.clone().map(|p| p.attempted).sum();
    let failed: u64 = all.map(|p| p.failed).sum();
    let detail = provenance(&cfg, &studies, t0.elapsed().as_secs_f64());
    println!(
        "{}",
        serde_json::to_string(&Value::Object(vec![("provenance".into(), detail)]))
            .expect("serializes")
    );
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(true)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), metric_object(&metrics, units)),
    ]);
    println!("{}", serde_json::to_string(&result).expect("serializes"));
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Workload; 3] = [Workload::Campaign, Workload::Replay, Workload::Service];

    /// Runs read the process-wide CPU clock and reset the process-wide
    /// peak resident set, so two runs must never overlap inside the test
    /// binary.
    static RUNS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn run_alone(cfg: &Config) -> Vec<StudyRun> {
        let _one_at_a_time = RUNS.lock().unwrap_or_else(|e| e.into_inner());
        run(cfg).expect("smoke run")
    }

    fn smoke(workload: Workload, traced: bool, tag: &str) -> Config {
        Config {
            workload,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            traced,
            size: study::SMOKE,
            ckpt_path: PathBuf::from(".bench_build/perfbench-work").join(format!(
                "test-{tag}-{}-{}.bin",
                workload.name(),
                std::process::id()
            )),
        }
    }

    fn names(v: &[(&str, f64)]) -> Vec<String> {
        v.iter().map(|m| m.0.to_string()).collect()
    }

    /// The metric tables here are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
        let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = field(&v, key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        field(m, k)
                            .and_then(Value::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key} differs from BENCHMARK.json");
        }
    }

    /// Every workload, traced and untraced, emits every named metric with
    /// a finite value; in the traced passes the attributed layer CPU plus
    /// the unattributed remainder is the pass's process CPU, with no
    /// layer counted twice.
    #[test]
    fn smoke_runs_emit_every_metric_and_attribute_busy_time() {
        for workload in ALL {
            let studies = run_alone(&smoke(workload, true, "emit"));
            let e2e = end_to_end(&studies);
            let layers = per_layer(&studies);
            assert_eq!(
                names(&e2e),
                names(&END_TO_END.iter().map(|m| (m.0, 0.0)).collect::<Vec<_>>())
            );
            assert_eq!(
                names(&layers),
                names(&PER_LAYER.iter().map(|m| (m.0, 0.0)).collect::<Vec<_>>())
            );
            for (name, v) in e2e.iter().chain(&layers) {
                assert!(v.is_finite(), "{}: {name} = {v}", workload.name());
            }
            for (name, v) in &e2e {
                assert!(*v > 0.0, "{}: end-to-end {name} = {v}", workload.name());
            }
            for s in &studies {
                let p = s.passes.iter().find(|p| p.traced).expect("traced twin");
                let attributed: f64 = cost_map(&[p]).iter().map(|r| r.1).sum();
                assert!(
                    attributed > 0.5 * p.cpu_s,
                    "{}: {attributed} of {}",
                    workload.name(),
                    p.cpu_s
                );
                assert!(
                    attributed <= p.cpu_s * 1.02 + 0.002,
                    "{}: layers {attributed} s exceed process CPU {} s",
                    workload.name(),
                    p.cpu_s
                );
            }
            let share_sum: f64 = layers
                .iter()
                .filter(|m| m.0.ends_with("_share"))
                .map(|m| m.1)
                .sum();
            assert!(
                (share_sum - 1.0).abs() < 1e-9,
                "{}: shares sum to {share_sum}",
                workload.name()
            );
        }
    }

    /// The three workloads reproduce one report for the same study.
    #[test]
    fn workloads_agree_on_the_study_digest() {
        let digests: Vec<u64> = ALL
            .iter()
            .map(|&w| run_alone(&smoke(w, false, "agree"))[0].passes[0].digest)
            .collect();
        assert_eq!(digests[0], digests[1], "replay differs from campaign");
        assert_eq!(digests[0], digests[2], "service differs from campaign");
    }

    #[test]
    fn reference_covers_the_pool() {
        let r = Reference::load().expect("reference parses");
        for id in 0..study::POOL {
            assert!(
                r.expected(&BENCH, id).is_some(),
                "study {id} has no reference digest"
            );
        }
    }

    /// The per-study peak resident set starts from the current one, not
    /// from what ran before.
    #[test]
    fn peak_rss_resets_to_the_current_resident_set() {
        let _one_at_a_time = RUNS.lock().unwrap_or_else(|e| e.into_inner());
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let before = clock::peak_rss_bytes().expect("Linux /proc");
        clock::reset_peak_rss().expect("writable /proc/self/clear_refs");
        let after = clock::peak_rss_bytes().expect("Linux /proc");
        assert!(after + (32 << 20) < before, "{after} not below {before}");
    }

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&v), 6.0);
        assert!((quantile(&v, 0.9) - 10.0).abs() < 1e-12);
        assert_eq!(quantile(&[2.0, 4.0], 0.5), 3.0);
    }

    #[test]
    fn arguments_are_checked() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&a("--workload nope")).is_err());
        assert!(parse_args(&a("--workload replay --trace 2")).is_err());
        assert!(parse_args(&a("--seed 3")).is_err());
        match parse_args(&a("--workload service --seed 9 --seconds 2 --trace 1")) {
            Ok(Mode::Run(c)) => {
                assert_eq!(
                    (c.workload, c.seed, c.seconds, c.traced),
                    (Workload::Service, 9, 2.0, true)
                )
            }
            _ => panic!("valid arguments rejected"),
        }
    }
}
