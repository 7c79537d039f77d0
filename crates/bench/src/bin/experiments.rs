//! Regenerates every table and figure from the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! experiments [--scale smoke|small|paper] [--seed N] [--out DIR] \
//!             <table1|fig1a|fig1b|fig2|fig3|fig4|table2|table3|fig5|validate|all>
//! ```
//!
//! Each subcommand prints the paper-style rows/series and (when `--out` is
//! given) writes machine-readable JSON next to them.

use churnlab_bench::argv::{self, unknown, Argv};
use churnlab_bench::{Bench, Scale};
use churnlab_bgp::Granularity;
use churnlab_core::pipeline::{ChurnMode, PipelineResults};
use churnlab_core::report::CensorshipReport;
use churnlab_core::validate::validate;
use churnlab_platform::{AnomalyType, DatasetStats};
use serde_json::json;
use std::collections::HashSet;
use std::io::Write;

struct Args {
    scale: Scale,
    seed: u64,
    out: Option<String>,
    command: String,
}

/// One table or figure: print it, and write its JSON under `--out`.
type Experiment = fn(&Run, &Option<String>);

/// The subcommands, in the order `all` runs them.
const EXPERIMENTS: [(&str, Experiment); 10] = [
    ("table1", table1),
    ("fig1a", fig1a),
    ("fig1b", fig1b),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("table2", table2),
    ("table3", table3),
    ("fig5", fig5),
    ("validate", validation),
];

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { scale: Scale::Small, seed: 42, out: None, command: String::from("all") };
    let mut argv = Argv::from_env();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--scale" => args.scale = argv.value("scale")?,
            "--seed" => args.seed = argv.value("seed")?,
            "--out" => args.out = Some(argv.value("path")?),
            cmd if cmd == "all" || EXPERIMENTS.iter().any(|(name, _)| *name == cmd) => {
                args.command = arg
            }
            cmd if !cmd.starts_with('-') => return Err(format!("unknown command {cmd}")),
            other => return Err(unknown(other)),
        }
    }
    Ok(args)
}

fn write_json(out: &Option<String>, name: &str, value: &serde_json::Value) {
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).expect("create output dir");
        let path = format!("{dir}/{name}.json");
        let mut f = std::fs::File::create(&path).expect("create json");
        f.write_all(serde_json::to_string_pretty(value).expect("serialize").as_bytes())
            .expect("write json");
        eprintln!("  wrote {path}");
    }
}

struct Run {
    seed: u64,
    bench: Bench,
    dataset: DatasetStats,
    results: PipelineResults,
}

fn run_normal(args: &Args) -> Run {
    eprintln!("[experiments] assembling world (scale {:?}, seed {})…", args.scale, args.seed);
    let bench = Bench::assemble(args.scale, args.seed);
    eprintln!(
        "[experiments] world: {} ASes, {} links, {} countries; {} true censors",
        bench.world.topology.n_ases(),
        bench.world.topology.n_links(),
        bench.world.topology.countries().len(),
        bench.scenario.censoring_asns().len(),
    );
    eprintln!("[experiments] running measurement campaign + pipeline…");
    let t0 = std::time::Instant::now();
    let (dataset, results) = bench.run(bench.pipeline_cfg());
    eprintln!(
        "[experiments] {} measurements in {:.1}s",
        dataset.measurements,
        t0.elapsed().as_secs_f64()
    );
    Run { seed: args.seed, bench, dataset, results }
}

fn table1(run: &Run, out: &Option<String>) {
    println!("== Table 1: dataset characteristics ==");
    println!("{}", run.dataset.render_table1("simulated year (2016-05 ~ 2017-05)"));
    write_json(out, "table1", &serde_json::to_value(&run.dataset).expect("json"));
}

fn fig1a(run: &Run, out: &Option<String>) {
    println!("== Figure 1a: #solutions by CNF granularity ==");
    println!("{:<8} {:>8} {:>8} {:>8}", "gran", "0", "1", "2+");
    let mut rows = vec![];
    for g in Granularity::SUB_YEAR {
        let f = run.results.solvability_fractions(Some(g), None);
        println!("{:<8} {:>8.3} {:>8.3} {:>8.3}", g.label(), f[0], f[1], f[2]);
        rows.push(json!({"granularity": g.label(), "unsat": f[0], "unique": f[1], "multiple": f[2]}));
    }
    let overall = run.results.solvability_fractions(None, None);
    println!(
        "overall: {:.1}% unique, {:.1}% no-solution, {:.1}% multiple (paper: ~92% / <6% / ~3%)",
        overall[1] * 100.0,
        overall[0] * 100.0,
        overall[2] * 100.0
    );
    write_json(out, "fig1a", &json!({"rows": rows, "overall": {"unsat": overall[0], "unique": overall[1], "multiple": overall[2]}}));
}

fn fig1b(run: &Run, out: &Option<String>) {
    println!("== Figure 1b: #solutions by anomaly type ==");
    println!("{:<8} {:>8} {:>8} {:>8}", "anomaly", "0", "1", "2+");
    let mut rows = vec![];
    let mut order = AnomalyType::ALL.to_vec();
    order.sort_by_key(|a| a.label()); // paper legend order: block dns rst seq ttl
    for a in order {
        let f = run.results.solvability_fractions(None, Some(a));
        println!("{:<8} {:>8.3} {:>8.3} {:>8.3}", a.label(), f[0], f[1], f[2]);
        rows.push(json!({"anomaly": a.label(), "unsat": f[0], "unique": f[1], "multiple": f[2]}));
    }
    write_json(out, "fig1b", &json!({ "rows": rows }));
}

fn fig2(run: &Run, out: &Option<String>) {
    println!("== Figure 2: CDF of candidate-set reduction (2+-solution CNFs) ==");
    let values = run.results.reduction_values();
    if values.is_empty() {
        println!("(no multi-solution CNFs)");
        return;
    }
    let pct = |q: f64| values[(q * (values.len() - 1) as f64).round() as usize] * 100.0;
    println!("CNFs with 2+ solutions : {}", values.len());
    println!("mean reduction         : {:.1}%  (paper: 95.2%)", run.results.mean_reduction().unwrap_or(0.0) * 100.0);
    println!("median reduction       : {:.1}%  (paper: ~90% at CDF 0.5)", pct(0.5));
    let zero = values.iter().filter(|v| **v == 0.0).count() as f64 / values.len() as f64;
    println!("fraction eliminating 0 : {:.1}%  (paper: ~20%)", zero * 100.0);
    println!("cdf: percentile -> reduction");
    for q in [0.1f64, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
        println!("  p{:<3.0} -> {:>6.1}%", q * 100.0, pct(q));
    }
    write_json(out, "fig2", &json!({
        "n": values.len(),
        "mean": run.results.mean_reduction(),
        "zero_fraction": zero,
        "values": values,
    }));
}

fn fig3(run: &Run, out: &Option<String>) {
    println!("== Figure 3: distinct paths per (src,dst) pair over time windows ==");
    let dists = run.results.churn.distributions(&Granularity::ALL, run.bench.platform_cfg.total_days);
    println!("{:<8} {:>8} {:>8} {:>8} {:>8} {:>8}  {:>10}", "window", "1", "2", "3", "4", "5+", "churn%");
    let mut rows = vec![];
    for d in &dists {
        let total = d.total.max(1) as f64;
        let fr: Vec<f64> = d.buckets.iter().map(|b| *b as f64 / total).collect();
        println!(
            "{:<8} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}  {:>9.1}%",
            d.granularity.label(), fr[0], fr[1], fr[2], fr[3], fr[4],
            d.churn_fraction() * 100.0
        );
        rows.push(json!({
            "granularity": d.granularity.label(),
            "buckets": d.buckets,
            "total": d.total,
            "churn_fraction": d.churn_fraction(),
        }));
    }
    println!("(paper: 25% day, 30% week, 38% month, 67% year; 35% of pairs see 5+ paths/year)");
    let by_class = run.results.churn.churn_by_dest_class(
        &run.bench.world.topology,
        Granularity::Year,
        run.bench.platform_cfg.total_days,
    );
    println!("churn by destination class (year): {}",
        by_class.iter().map(|(c, f)| format!("{c}={:.0}%", f * 100.0)).collect::<Vec<_>>().join("  "));
    write_json(out, "fig3", &json!({"rows": rows, "by_dest_class": by_class.iter().map(|(c, f)| json!({"class": c.label(), "churn": f})).collect::<Vec<_>>()}));
}

fn fig4(run: &Run, out: &Option<String>) {
    println!("== Figure 4: #solutions without path churn (first-path-only ablation) ==");
    let mut cfg = run.bench.pipeline_cfg();
    cfg.churn_mode = ChurnMode::FirstPathOnly;
    let (_, ablated) = run.bench.run(cfg);
    println!("{:<10} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}", "gran", "0", "1", "2", "3", "4", "5+");
    let mut rows = vec![];
    for g in Granularity::SUB_YEAR {
        let f = ablated.bucket_fractions(Some(g));
        println!(
            "{:<10} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
            g.label(), f[0], f[1], f[2], f[3], f[4], f[5]
        );
        rows.push(json!({"granularity": g.label(), "buckets": f}));
    }
    let overall = ablated.bucket_fractions(None);
    let with_churn = run.results.bucket_fractions(None);
    println!(
        "5+-solution CNFs: {:.1}% without churn vs {:.1}% with churn (paper: ~80% vs <1%)",
        overall[5] * 100.0,
        with_churn[5] * 100.0
    );
    write_json(out, "fig4", &json!({"rows": rows, "overall_5plus": overall[5], "with_churn_5plus": with_churn[5], "seed": run.seed}));
}

fn table2(run: &Run, out: &Option<String>) {
    println!("== Table 2: regions with most censoring ASes ==");
    let report = CensorshipReport::assemble(&run.results, &run.bench.world.topology);
    print!("{}", report.render_table2(8));
    println!(
        "total: {} censoring ASes in {} countries (paper: 65 in 30)",
        report.n_censors, report.n_countries
    );
    write_json(out, "table2", &serde_json::to_value(&report.regions).expect("json"));
}

fn table3(run: &Run, out: &Option<String>) {
    println!("== Table 3: censoring ASes with the largest leaks ==");
    let report = CensorshipReport::assemble(&run.results, &run.bench.world.topology);
    print!("{}", report.render_table3(5));
    println!(
        "censors leaking to other ASes: {} ; to other countries: {} (paper: 32 ; 24)",
        report.leaking_to_ases, report.leaking_to_countries
    );
    write_json(out, "table3", &json!({
        "top": report.top_leakers.iter().map(|(a, c, n_as, n_c)| json!({
            "asn": a.0, "country": c, "leaks_as": n_as, "leaks_country": n_c
        })).collect::<Vec<_>>(),
        "leaking_to_ases": report.leaking_to_ases,
        "leaking_to_countries": report.leaking_to_countries,
    }));
}

fn fig5(run: &Run, out: &Option<String>) {
    println!("== Figure 5: flow of censorship (country-level leak edges) ==");
    let report = CensorshipReport::assemble(&run.results, &run.bench.world.topology);
    print!("{}", report.render_flow(15));
    write_json(out, "fig5", &serde_json::to_value(&report.country_flow).expect("json"));
}

fn validation(run: &Run, out: &Option<String>) {
    println!("== Ground-truth validation (simulation-only extra) ==");
    let identified: HashSet<_> = run.results.censor_findings.keys().copied().collect();
    let v = validate(&identified, &run.bench.scenario, &run.results.on_censored_path, |a| {
        run.bench.world.public_asn(a)
    });
    println!("identified censors      : {}", v.identified);
    println!("true positives          : {}", v.true_positives);
    println!("false positives         : {}", v.false_positives);
    println!("ground-truth censors    : {}", v.true_censors);
    println!("observable censors      : {}", v.observable_censors);
    println!("precision               : {:.3}", v.precision);
    println!("recall                  : {:.3}", v.recall);
    println!("observable recall       : {:.3}", v.observable_recall);
    println!(
        "conversion: {} converted, {:?} discarded by rule (rate {:.1}%)",
        run.results.conversion.converted,
        run.results.conversion.discarded,
        run.results.conversion.conversion_rate() * 100.0
    );
    write_json(out, "validation", &serde_json::to_value(&v).expect("json"));
}

fn main() {
    let args = argv::or_exit(parse_args());
    let run = run_normal(&args);
    println!();
    let selected =
        EXPERIMENTS.iter().filter(|(name, _)| args.command == "all" || *name == args.command);
    for (i, (_, experiment)) in selected.enumerate() {
        if i > 0 {
            println!();
        }
        experiment(&run, &args.out);
    }
}
