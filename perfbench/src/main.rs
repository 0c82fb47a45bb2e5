//! perfbench — the TCCluster simulator's end-to-end benchmark.
//!
//! ```text
//! perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--results FILE] [--smoke]
//! perfbench --compare A.jsonl B.jsonl
//! ```
//!
//! Without `--workload` every workload runs in turn. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones). `--results FILE` appends one record per workload with
//! every per-repetition sample, for `--compare`. Traced runs write their
//! spans to `out/trace-<workload>-seed<N>.json` in this package's
//! directory. See README.md for the workloads and metrics.

// The benchmark is the process's one legitimate reader of the wall clock.
#![allow(clippy::disallowed_methods)]

mod alloc;
mod compare;
mod json;
mod layers;
mod metrics;
mod run;
mod stats;
mod trace;
mod workload;

use metrics::Metric;
use run::{run, Opts, RunResult};
use std::io::Write as _;
use workload::{Workload, NAMES};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Default measuring time per run, in seconds (BENCHMARK.json's
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 5;
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

#[derive(Debug)]
struct Args {
    workloads: Vec<&'static str>,
    opts: Opts,
    smoke: bool,
    results: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        opts: Opts {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
        },
        smoke: false,
        results: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let name = NAMES.iter().find(|n| **n == v.as_str()).ok_or(format!(
                    "unknown workload {v:?} (one of {})",
                    NAMES.join(", ")
                ))?;
                args.workloads.push(name);
            }
            "--seed" => {
                args.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                args.opts.seconds = s;
            }
            "--trace" => {
                args.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                };
            }
            "--results" => args.results = Some(value()?.clone()),
            "--smoke" => args.smoke = true,
            "--compare" => {
                let a = value()?.clone();
                let b = value()?.clone();
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = NAMES.to_vec();
    }
    Ok(args)
}

fn metrics_json(metrics: &[Metric], prefix: &str) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&format!("{prefix}{}", m.name)),
                json::number(m.value),
                json::string(m.unit())
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

/// The record `--results` appends: identity, verdict, every metric and
/// every per-repetition sample.
fn results_record(r: &RunResult, trace: bool) -> String {
    let all: Vec<Metric> = r.end_to_end.iter().chain(&r.per_layer).cloned().collect();
    let samples = |v: &[f64]| {
        let items: Vec<String> = v.iter().map(|x| json::number(*x)).collect();
        format!("[{}]", items.join(", "))
    };
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {trace}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \"samples\": {{\"setup_s\": {}, \"run_s\": {}, \"peak_heap_mb\": {}}}}}",
        json::string(r.workload),
        r.seed,
        r.correct(),
        r.attempted,
        r.failed,
        all.iter()
            .map(|m| format!("{}: {}", json::string(m.name), json::number(m.value)))
            .collect::<Vec<_>>()
            .join(", "),
        samples(&r.setup_s),
        samples(&r.run_s),
        samples(&r.peak_heap_mb),
    )
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("  {title}:");
    for m in metrics {
        let better = metrics::decl(m.name).map_or("", |d| d.better.name());
        println!(
            "    {:<40} {:>18} {:<6} ({better} is better)",
            m.name,
            format!("{:.6}", m.value),
            m.unit()
        );
    }
}

fn report(r: &RunResult, args: &Args) -> std::io::Result<()> {
    let iqr = if r.run_s.is_empty() {
        0.0
    } else {
        stats::rel_iqr(&r.run_s) * 100.0
    };
    println!(
        "perfbench {} (seed {}): {} timed repetitions (run_s IQR {iqr:.1}%), setup from {} boots, host_cpus {}",
        r.workload,
        r.seed,
        r.run_s.len(),
        r.setup_s.len(),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    print_metrics("end-to-end", &r.end_to_end);
    if !r.per_layer.is_empty() {
        print_metrics("per-layer (traced run)", &r.per_layer);
    }
    match (r.digest, r.reference) {
        (Some(d), Some(want)) if d == want => {
            println!("  digest {d:#018x} matches the pinned reference")
        }
        (Some(d), Some(want)) => println!("  digest {d:#018x} != pinned {want:#018x}"),
        (Some(d), None) => println!("  digest {d:#018x} (no pinned reference; repetitions agree)"),
        (None, _) => println!("  no correct repetition"),
    }
    for p in &r.problems {
        println!("  FAILED: {p}");
    }
    if args.opts.trace {
        std::fs::create_dir_all(OUT_DIR)?;
        let path = format!("{OUT_DIR}/trace-{}-seed{}.json", r.workload, r.seed);
        std::fs::write(&path, r.tracer.to_json(r.workload, r.seed))?;
        println!("  trace file: {path}");
    }
    if let Some(path) = &args.results {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", results_record(r, args.opts.trace))?;
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        match compare::compare(a, b) {
            Ok(no_worse) => std::process::exit(if no_worse { 0 } else { 1 }),
            Err(e) => {
                eprintln!("perfbench --compare: {e}");
                std::process::exit(2);
            }
        }
    }

    let mut results = Vec::new();
    for name in &args.workloads {
        let wl = Workload::new(name, args.opts.seed, args.smoke).expect("validated name");
        let r = run(&wl, &args.opts);
        if let Err(e) = report(&r, &args) {
            eprintln!("perfbench: writing output: {e}");
            std::process::exit(2);
        }
        results.push(r);
    }

    // Thread count must not change results: the two mesh8 workloads agree.
    let digest_of = |n: &str| {
        results
            .iter()
            .find(|r| r.workload == n)
            .and_then(|r| r.digest)
    };
    let t1_vs_t2 = match (digest_of("mesh8_a2a_t1"), digest_of("mesh8_a2a_t2")) {
        (Some(a), Some(b)) if a != b => {
            println!("FAILED: mesh8_a2a_t1 digest {a:#018x} != mesh8_a2a_t2 digest {b:#018x}");
            false
        }
        _ => true,
    };
    let correct = t1_vs_t2 && results.iter().all(RunResult::correct);
    let attempted = results.iter().map(|r| r.attempted).sum();
    let failed = results.iter().map(|r| r.failed).sum::<u64>() + u64::from(!t1_vs_t2);
    let pick = |r: &RunResult| {
        if args.opts.trace {
            r.per_layer.clone()
        } else {
            r.end_to_end.clone()
        }
    };
    let metrics = if let [r] = results.as_slice() {
        metrics_json(&pick(r), "")
    } else {
        // Several workloads: each one's line first, then a summary whose
        // metric names carry the workload as a prefix.
        let mut parts = Vec::new();
        for r in &results {
            let own = metrics_json(&pick(r), "");
            println!("{}", result_line(r.correct(), r.attempted, r.failed, &own));
            let prefixed = metrics_json(&pick(r), &format!("{}.", r.workload));
            parts.push(prefixed[1..prefixed.len() - 1].to_string());
        }
        format!("{{{}}}", parts.join(", "))
    };
    println!("{}", result_line(correct, attempted, failed, &metrics));
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::metrics::{END_TO_END, PER_LAYER};

    fn smoke(name: &str, trace: bool) -> RunResult {
        let wl = Workload::new(name, DEFAULT_SEED, true).expect("known workload");
        let opts = Opts {
            seed: DEFAULT_SEED,
            seconds: 0.0,
            trace,
        };
        run(&wl, &opts)
    }

    #[test]
    fn smoke_digests_repeat_and_do_not_depend_on_threads() {
        let t1 = smoke("mesh8_a2a_t1", false);
        let again = smoke("mesh8_a2a_t1", false);
        let t2 = smoke("mesh8_a2a_t2", false);
        for r in [&t1, &again, &t2] {
            assert!(r.correct(), "{}: {:?}", r.workload, r.problems);
        }
        assert!(t1.digest.is_some());
        assert_eq!(t1.digest, again.digest, "two runs disagree");
        assert_eq!(t1.digest, t2.digest, "t1 and t2 disagree at 4x4");
    }

    fn declared(bench: &Value, section: &str) -> Vec<(String, String, String, Option<f64>)> {
        bench
            .get(section)
            .expect("section present")
            .as_arr()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn smoke_emits_exactly_what_benchmark_json_declares() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let bench = json::parse(&text).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = bench
            .get("workloads")
            .expect("workloads")
            .as_arr()
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(workloads, NAMES);
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.name().to_string(),
                    Some(d.bound),
                )
            })
            .collect();
        assert_eq!(declared(&bench, "end_to_end"), e2e);
        let layer: Vec<_> = PER_LAYER
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.name().to_string(),
                    None,
                )
            })
            .collect();
        assert_eq!(declared(&bench, "per_layer"), layer);

        for name in NAMES {
            let r = smoke(name, true);
            assert!(r.correct(), "{name}: {:?}", r.problems);
            let got: Vec<&str> = r.end_to_end.iter().map(|m| m.name).collect();
            assert_eq!(got, e2e.iter().map(|d| d.0.as_str()).collect::<Vec<_>>());
            let got: Vec<&str> = r.per_layer.iter().map(|m| m.name).collect();
            assert_eq!(got, layer.iter().map(|d| d.0.as_str()).collect::<Vec<_>>());
            for m in &r.end_to_end {
                assert!(m.value > 0.0, "{name}: {} reads {}", m.name, m.value);
            }
        }
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let parse = |s: &str| {
            let v: Vec<String> = s.split_whitespace().map(String::from).collect();
            parse_args(&v)
        };
        let a = parse("--workload paper_figs --seed 9 --seconds 3 --trace 1").expect("valid");
        assert_eq!(a.workloads, ["paper_figs"]);
        assert_eq!((a.opts.seed, a.opts.seconds, a.opts.trace), (9, 3.0, true));
        assert_eq!(parse("").expect("defaults").workloads, NAMES);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds -1",
            "--seed",
            "--frob",
        ] {
            assert!(parse(bad).is_err(), "{bad} accepted");
        }
    }
}
