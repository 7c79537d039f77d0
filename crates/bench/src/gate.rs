//! The one gate module every sweep bench shares (`engine_bench` over
//! shard counts, `campaign_bench` over generator threads).
//!
//! * `--baseline FILE` — regression gate against a committed report:
//!   fail if the speedup against the bench's in-process control drops
//!   more than 20% below the baseline's for any sweep count both cover.
//!   A ratio is compared, not raw throughput, because machines differ.
//!   The baseline is read before `--out` is written, so both may name
//!   the same file. It arms only against a comparable baseline (same
//!   workload, same core count).
//! * `--require-gate` — a gate that did not arm fails the run. Without
//!   it, a skipped gate is still loud: a `::warning::` annotation on a
//!   GitHub runner (a silently skipped gate is how a flat shard curve
//!   once survived three PRs).
//! * `--update-baseline` — write the run as the new baseline (to
//!   `--baseline`, else `--out`, else the committed file) without arming
//!   the gate.
//! * `--assert-scaling` — efficiency at the sweep's top must reach
//!   `--min-efficiency` (default 0.7× linear), relative to the sweep's
//!   1-row: on the wall clock when the process has a core per worker,
//!   else on the core-count-independent busy-time model
//!   (`C_1 / (N × C_N)`, `C` = the critical path's busy nanos), loudly
//!   annotated. A serialized engine or runner fails everywhere.
//!
//! Gate failures exit 1; argument errors exit 2 (see [`crate::argv`]).

use churnlab_obs::Journal;
use serde::{Deserialize, Serialize};

/// Fraction of the baseline speedup a new run must retain.
const REGRESSION_FLOOR: f64 = 0.8;

/// Default `--min-efficiency`: ≥0.7× linear scaling at the top of the
/// sweep.
pub const DEFAULT_MIN_EFFICIENCY: f64 = 0.7;

/// The axis a bench sweeps (shards, generator threads), as its gate
/// messages name it.
pub struct Axis {
    /// Singular noun: `shard`, `thread`.
    pub noun: &'static str,
    /// The flag that sets the sweep: `--shards`, `--threads`.
    pub flag: &'static str,
    /// What N of them are called in the busy-model warning.
    pub workers: &'static str,
    /// What a flat curve says is serialized.
    pub subject: &'static str,
    /// A row's name in regression messages.
    pub label: fn(usize) -> String,
    /// The failure text when the top row lacks its efficiency figure.
    pub missing: fn(usize) -> String,
}

/// One sweep row, as the gates read it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// The swept count (shards, threads).
    pub key: usize,
    /// Speedup against the in-process control (pipeline, serial run).
    pub speedup: f64,
    /// Wall-clock scaling efficiency vs the 1-row.
    pub wallclock_efficiency: Option<f64>,
    /// Busy-time-model scaling efficiency vs the 1-row.
    pub model_efficiency: Option<f64>,
}

/// `--assert-scaling` trusts the wall clock only when the process has a
/// core for each of the `top` workers; otherwise the busy-time model.
fn wall_clock_basis(available_cores: usize, top: usize) -> bool {
    available_cores >= top
}

/// Every key both sweeps cover must keep at least [`REGRESSION_FLOOR`] of
/// the baseline's speedup. Returns the failure messages.
fn check_regression(axis: &Axis, run: &[Point], baseline: &[Point]) -> Vec<String> {
    let mut failures = Vec::new();
    for base in baseline {
        let Some(row) = run.iter().find(|r| r.key == base.key) else {
            continue;
        };
        let floor = base.speedup * REGRESSION_FLOOR;
        if row.speedup < floor {
            failures.push(format!(
                "{} speedup {:.2}x fell more than 20% below baseline {:.2}x (floor {:.2}x)",
                (axis.label)(row.key),
                row.speedup,
                base.speedup,
                floor,
            ));
        }
    }
    failures
}

/// The row `--assert-scaling` judges — the sweep's top — once the sweep
/// is shown to have a top above 1 and a 1-row to measure against.
fn scaling_top(axis: &Axis, rows: &[Point]) -> Result<Point, String> {
    let top = rows.iter().max_by_key(|r| r.key).copied().filter(|t| t.key > 1);
    let top = top.ok_or_else(|| format!("--assert-scaling needs a {} count above 1", axis.noun))?;
    if !rows.iter().any(|r| r.key == 1) {
        return Err(format!(
            "--assert-scaling needs a 1-{} row in {} (efficiency is measured relative to it)",
            axis.noun, axis.flag,
        ));
    }
    Ok(top)
}

/// `--update-baseline` makes the run the new baseline: `out` becomes
/// `--baseline`, else `--out`, else `default`, and `baseline` is
/// cleared so no regression gate arms. Refuses `--require-gate`
/// (nothing to gate against) and a `--baseline`/`--out` pair naming
/// different files.
pub fn update_baseline(
    require_gate: bool,
    baseline: &mut Option<String>,
    out: &mut Option<String>,
    default: &str,
) -> Result<(), String> {
    if require_gate {
        return Err("--update-baseline writes a fresh baseline; it cannot also \
             --require-gate against the file it replaces"
            .into());
    }
    if baseline.is_some() && out.is_some() && baseline != out {
        return Err("--update-baseline with both --baseline and --out pointing at \
             different files is ambiguous; name the target once"
            .into());
    }
    *out = Some(baseline.take().or(out.take()).unwrap_or_else(|| default.to_string()));
    Ok(())
}

/// Read a committed baseline report. Reading happens before the run
/// writes `--out`, so both flags may name the same file.
pub fn load_baseline<T: Deserialize>(path: Option<&str>) -> Option<T> {
    path.map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse baseline {path}: {e}"))
    })
}

/// A bench binary's gate reporter: names the tool in every message and
/// mirrors gate outcomes into the run's journal, when one is attached.
pub struct Gate<'a> {
    tool: &'static str,
    journal: Option<&'a Journal>,
}

impl<'a> Gate<'a> {
    /// Reporter for `tool` (the binary name).
    pub fn new(tool: &'static str, journal: Option<&'a Journal>) -> Gate<'a> {
        Gate { tool, journal }
    }

    /// A loud, annotation-grade warning: plain on a terminal, a surfaced
    /// `::warning::` annotation on a GitHub runner.
    pub fn warn(&self, msg: &str) {
        if std::env::var_os("GITHUB_ACTIONS").is_some() {
            println!("::warning title={} gate::{msg}", self.tool);
        }
        eprintln!("{}: WARNING — {msg}", self.tool);
    }

    /// Report a gate failure and exit 1.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: FAIL — {msg}", self.tool);
        std::process::exit(1);
    }

    /// Journal a gate that ran (pass or fail).
    pub fn armed(&self, gate: &str, detail: &str) {
        self.journal("gate_armed", gate, ("detail", detail));
    }

    /// Journal a gate that did not arm.
    pub fn skipped(&self, gate: &str, reason: &str) {
        self.journal("gate_skipped", gate, ("reason", reason));
    }

    fn journal(&self, event: &str, gate: &str, tag: (&str, &str)) {
        if let Some(j) = self.journal {
            j.emit_tagged(event, &[], &[("gate", gate), tag]);
            j.flush(); // gates may exit the process right after
        }
    }

    /// Write the report to `out` (stdout without one). `refreshed` says
    /// the file is a new baseline.
    pub fn write_report<T: Serialize>(&self, out: Option<&str>, report: &T, refreshed: bool) {
        let json = serde_json::to_string(report).expect("report serializes");
        let Some(path) = out else {
            println!("{json}");
            return;
        };
        std::fs::write(path, format!("{json}\n")).expect("write report");
        if refreshed {
            eprintln!(
                "{}: refreshed baseline {path} (gate not armed — this run is the new reference)",
                self.tool
            );
        } else {
            eprintln!("{}: wrote {path}", self.tool);
        }
    }

    /// The regression gate against a committed baseline. It arms only
    /// when the baseline is comparable: `workload_mismatch` carries the
    /// (journal reason, warning) when the workloads differ, and the core
    /// counts (`(baseline, run)`) must match — a speedup ratio depends on
    /// how many cores the workers spread over, so a 1-core baseline
    /// against an 8-core run would make the gate vacuous or spuriously
    /// red. Exits 1 on a regression; returns whether the gate armed.
    pub fn regression(
        &self,
        axis: &Axis,
        workload_mismatch: Option<(&str, String)>,
        cores: (usize, usize),
        run: &[Point],
        baseline: &[Point],
    ) -> bool {
        if let Some((reason, warning)) = workload_mismatch {
            self.skipped("regression", reason);
            self.warn(&warning);
            return false;
        }
        if cores.0 != cores.1 {
            self.skipped("regression", "baseline/run core-count mismatch");
            self.warn(&format!(
                "baseline has {} core(s), this run {}; regression gate NOT armed \
                 (pin the run to match, e.g. `taskset -c 0`, or refresh the baseline)",
                cores.0, cores.1
            ));
            return false;
        }
        let compared = baseline.iter().filter(|b| run.iter().any(|r| r.key == b.key)).count();
        let failures = check_regression(axis, run, baseline);
        for msg in &failures {
            eprintln!("{}: FAIL — {msg}", self.tool);
        }
        if !failures.is_empty() {
            self.armed("regression", &format!("fail — {} regression(s)", failures.len()));
            std::process::exit(1);
        }
        if compared == 0 {
            self.skipped("regression", &format!("no shared {} counts with baseline", axis.noun));
            self.warn(&format!(
                "baseline shares no {} counts with this run; regression gate NOT armed",
                axis.noun
            ));
            return false;
        }
        self.armed("regression", &format!("pass — {compared} {} count(s) compared", axis.noun));
        eprintln!(
            "{}: gate armed — within 20% of baseline speedups ({compared} {} count(s) compared)",
            self.tool, axis.noun,
        );
        true
    }

    /// `--require-gate`: fail unless a regression gate armed.
    pub fn require(&self, require_gate: bool, armed: bool, baseline_given: bool) {
        if require_gate && !armed {
            self.fail(&format!(
                "--require-gate set but no regression gate armed{}",
                if baseline_given { "" } else { " (no --baseline given)" },
            ));
        }
    }

    /// `--assert-scaling`: efficiency at the sweep's top must reach
    /// `min_efficiency` on whichever basis the machine can honestly
    /// measure (wall clock with a core per worker, else the busy model).
    /// `wall_busy` says busy attribution fell back to wall intervals.
    /// Exits 1 on failure.
    pub fn assert_scaling(
        &self,
        axis: &Axis,
        rows: &[Point],
        available_cores: usize,
        min_efficiency: f64,
        wall_busy: bool,
    ) {
        let top = scaling_top(axis, rows).unwrap_or_else(|msg| self.fail(&msg));
        let (basis, efficiency) = if wall_clock_basis(available_cores, top.key) {
            ("wall-clock", top.wallclock_efficiency)
        } else {
            self.warn(&format!(
                "scaling asserted on the busy-time model: {available_cores} core(s) cannot \
                 wall-clock {} {} (use an {}-core runner for the real curve)",
                top.key, axis.workers, top.key,
            ));
            if wall_busy {
                self.warn(
                    "busy attribution fell back to wall intervals (no thread CPU clock); \
                     the model basis folds in scheduler noise",
                );
            }
            ("busy-time model", top.model_efficiency)
        };
        let Some(efficiency) = efficiency else {
            self.fail(&format!("no {basis} efficiency for {}", (axis.missing)(top.key)));
        };
        if efficiency < min_efficiency {
            self.armed("scaling", &format!("fail — {basis} {efficiency:.2} < {min_efficiency:.2}"));
            self.fail(&format!(
                "{basis} scaling efficiency {efficiency:.2} at {} {}s is below the \
                 {min_efficiency:.2} floor (flat curve: {} is serialized somewhere)",
                top.key, axis.noun, axis.subject,
            ));
        }
        self.armed("scaling", &format!("pass — {basis} {efficiency:.2} >= {min_efficiency:.2}"));
        eprintln!(
            "{}: scaling ok — {basis} efficiency {efficiency:.2} at {} {}s \
             (floor {min_efficiency:.2}, {available_cores} core(s))",
            self.tool, top.key, axis.noun,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AXIS: Axis = Axis {
        noun: "shard",
        flag: "--shards",
        workers: "shards",
        subject: "the engine",
        label: |k| format!("engine/{k}"),
        missing: |k| format!("engine/{k}"),
    };

    fn point(key: usize, speedup: f64) -> Point {
        Point { key, speedup, wallclock_efficiency: None, model_efficiency: None }
    }

    #[test]
    fn regression_check_straddles_the_floor() {
        let baseline = [point(1, 2.0), point(4, 5.0)];
        // Floors are 1.6x and 4.0x.
        assert!(check_regression(&AXIS, &[point(1, 1.61), point(4, 4.01)], &baseline).is_empty());
        let failures = check_regression(&AXIS, &[point(1, 1.59), point(4, 4.01)], &baseline);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("engine/1 speedup 1.59x"), "{}", failures[0]);
        // Keys the run does not cover are not compared.
        assert!(check_regression(&AXIS, &[point(2, 0.1)], &baseline).is_empty());
    }

    #[test]
    fn basis_is_wall_clock_only_with_a_core_per_worker() {
        assert!(wall_clock_basis(8, 8));
        assert!(wall_clock_basis(16, 8));
        assert!(!wall_clock_basis(7, 8));
        assert!(!wall_clock_basis(1, 2));
    }

    #[test]
    fn scaling_needs_a_one_row_and_a_top_above_one() {
        let top = scaling_top(&AXIS, &[point(1, 1.0), point(8, 6.0), point(4, 3.5)]).unwrap();
        assert_eq!(top.key, 8);
        let err = scaling_top(&AXIS, &[point(2, 1.0), point(8, 6.0)]).unwrap_err();
        assert!(err.contains("needs a 1-shard row in --shards"), "{err}");
        let err = scaling_top(&AXIS, &[point(1, 1.0)]).unwrap_err();
        assert!(err.contains("needs a shard count above 1"), "{err}");
    }

    #[test]
    fn update_baseline_resolves_one_target_or_refuses() {
        let target = |require_gate: bool, b: Option<&str>, o: Option<&str>| {
            let (mut b, mut o) = (b.map(String::from), o.map(String::from));
            update_baseline(require_gate, &mut b, &mut o, "B.json")?;
            assert_eq!(b, None, "no baseline left to gate against");
            Ok::<_, String>(o.unwrap())
        };
        assert_eq!(target(false, None, None).unwrap(), "B.json");
        assert_eq!(target(false, Some("x.json"), None).unwrap(), "x.json");
        assert_eq!(target(false, None, Some("y.json")).unwrap(), "y.json");
        assert_eq!(target(false, Some("x.json"), Some("x.json")).unwrap(), "x.json");
        let err = target(false, Some("x.json"), Some("y.json")).unwrap_err();
        assert!(err.contains("ambiguous"), "{err}");
        let err = target(true, None, None).unwrap_err();
        assert!(err.contains("--require-gate"), "{err}");
    }
}
