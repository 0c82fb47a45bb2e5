//! Workspace automation. `cargo xtask lint` is the single entry point CI
//! and developers run before merging:
//!
//! 1. **forbid-unsafe** — every non-bench crate's `lib.rs` must carry
//!    `#![forbid(unsafe_code)]` (the bench crate is exempt: its counting
//!    global allocator needs `unsafe impl GlobalAlloc`).
//! 2. **tcc-analyze** — the seven AST-level passes (alloc-reachability,
//!    lock-order, time-arith, determinism, panic-freedom, epoch-phase,
//!    linear-resource; see `docs/static-analysis.md`). Hot functions
//!    carry `#[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]` in-place,
//!    resource-shaped functions carry `tcc_linear(kind)` over the
//!    `tcc_acquires`/`tcc_releases` anchors, the analyzer checks them
//!    *transitively* over the shared call graph (flow-sensitively over
//!    per-function CFGs for the linear pass), and baseline guards fail
//!    the gate if annotations are ever deleted instead of migrated — or
//!    if a pass goes blind (phase-rank, lock-site or linear-checked count
//!    collapse, required-crate coverage loss). The baselines are
//!    `tcc-analyze` constants, shared with its own workspace test.
//! 3. **clippy** — `cargo clippy --workspace --all-targets -- -D warnings`,
//!    which also promotes the `clippy.toml` disallowed-methods (wallclock
//!    reads outside the bench harness) to hard errors.
//!
//! Every run writes `LINT_report.json` (schema-stable, uploaded as a CI
//! artifact). `--no-clippy` skips step 3 (fast, no compilation); `--json`
//! prints the report to stdout instead of human-readable diagnostics;
//! `--quiet` suppresses per-diagnostic output and prints only the verdict;
//! `--timings` injects a wall clock into the analyzer so the report's
//! `timings_ms` carries per-pass durations and the run enforces
//! [`ANALYZE_BUDGET_MS`] (without the flag timings stay `null`, keeping
//! the committed report byte-stable).

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use tcc_analyze::{
    LOCK_SITES_FLOOR, NO_ALLOC_BASELINE, NO_PANIC_BASELINE, PHASE_RANKED_FLOOR, RESOURCE_BASELINE,
    RESOURCE_CRATES,
};

/// Wall-time budget for one full analyzer run (all passes plus the
/// shared call-graph build), enforced only under `--timings`. The run
/// takes well under a second on a laptop; the budget is a regression
/// tripwire, not a tight bound.
const ANALYZE_BUDGET_MS: u64 = 5_000;

/// Crates exempt from `#![forbid(unsafe_code)]`: bench installs a counting
/// `GlobalAlloc` for the zero-allocation regression tests.
const UNSAFE_EXEMPT: &[&str] = &["bench"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str);
    match cmd {
        Some("lint") => {
            let opts = Opts {
                clippy: !args.iter().any(|a| a == "--no-clippy"),
                json: args.iter().any(|a| a == "--json"),
                quiet: args.iter().any(|a| a == "--quiet"),
                timings: args.iter().any(|a| a == "--timings"),
            };
            lint(&opts)
        }
        _ => {
            eprintln!("usage: cargo xtask lint [--no-clippy] [--json] [--quiet] [--timings]");
            ExitCode::FAILURE
        }
    }
}

struct Opts {
    clippy: bool,
    json: bool,
    quiet: bool,
    timings: bool,
}

/// Monotonic nanoseconds since the first call, injected into the
/// analyzer as its [`tcc_analyze::PassClock`]. The analyzer crate cannot
/// read wall time itself (its own determinism pass and the workspace
/// clippy.toml ban `Instant::now`), so timing lives here, behind the
/// `--timings` flag, where the clippy exception is explicit.
#[allow(clippy::disallowed_methods)]
fn clock_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(Instant::now().duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

fn lint(opts: &Opts) -> ExitCode {
    let root = workspace_root();
    let mut failed = false;

    let unsafe_failures = check_forbid_unsafe(&root);
    if !unsafe_failures.is_empty() {
        for f in &unsafe_failures {
            eprintln!("xtask lint: {f}");
        }
        failed = true;
    }

    match run_analyzer(&root, opts) {
        Ok(clean) => failed |= !clean,
        Err(e) => {
            eprintln!("xtask lint: analyzer failed: {e}");
            failed = true;
        }
    }

    if failed {
        return ExitCode::FAILURE;
    }
    if !opts.json && !opts.quiet {
        println!("xtask lint: forbid-unsafe ok, tcc-analyze ok");
    }

    if opts.clippy {
        let status = Command::new(env!("CARGO"))
            .current_dir(&root)
            .args([
                "clippy",
                "--workspace",
                "--all-targets",
                "--",
                "-D",
                "warnings",
            ])
            .status()
            .expect("spawn cargo clippy");
        if !status.success() {
            eprintln!("xtask lint: clippy failed");
            return ExitCode::FAILURE;
        }
        if !opts.json && !opts.quiet {
            println!("xtask lint: clippy ok");
        }
    }
    if opts.quiet && !opts.json {
        println!("xtask lint: ok");
    }
    ExitCode::SUCCESS
}

/// Run the seven tcc-analyze passes, write `LINT_report.json` at the
/// workspace root, enforce the annotation baselines, the phase-rank,
/// lock-site and linear-checked floors, and (under `--timings`) the wall-time budget.
/// Returns Ok(clean).
fn run_analyzer(root: &Path, opts: &Opts) -> Result<bool, String> {
    let ws = tcc_analyze::Workspace::load_root(root).map_err(|e| e.to_string())?;
    let clock: Option<tcc_analyze::PassClock> = opts.timings.then_some(clock_ns);
    let mut report = tcc_analyze::run_all_timed(&ws, clock);
    // Record the enforced floors in the artifact itself, so a report can
    // be audited without this source file next to it.
    report.baselines = vec![
        ("no_alloc", NO_ALLOC_BASELINE),
        ("no_panic", NO_PANIC_BASELINE),
        ("phase_ranked", PHASE_RANKED_FLOOR),
        ("lock_sites", LOCK_SITES_FLOOR),
        ("linear_checked", RESOURCE_BASELINE),
    ];

    let json = report.to_json();
    std::fs::write(root.join("LINT_report.json"), &json)
        .map_err(|e| format!("write LINT_report.json: {e}"))?;
    if opts.json {
        print!("{json}");
    }

    let mut clean = report.clean();
    if !clean && !opts.json && !opts.quiet {
        for d in &report.diagnostics {
            eprintln!("xtask lint: {}", d.render());
        }
    }
    if report.no_alloc_annotations < NO_ALLOC_BASELINE {
        eprintln!(
            "xtask lint: tcc_no_alloc annotation count dropped below baseline \
             ({} < {NO_ALLOC_BASELINE}) — hot-path annotations must be migrated, \
             not deleted (docs/static-analysis.md)",
            report.no_alloc_annotations
        );
        clean = false;
    }
    if report.no_panic_annotations < NO_PANIC_BASELINE {
        eprintln!(
            "xtask lint: tcc_no_panic annotation count dropped below baseline \
             ({} < {NO_PANIC_BASELINE}) — hot-path annotations must be migrated, \
             not deleted (docs/static-analysis.md)",
            report.no_panic_annotations
        );
        clean = false;
    }
    if report.phase_ranked_functions < PHASE_RANKED_FLOOR {
        eprintln!(
            "xtask lint: epoch-phase pass ranked only {} in-scope function(s) \
             (< {PHASE_RANKED_FLOOR}) — the pass no longer recognises the engine's \
             phase machine, so its clean verdict is vacuous (docs/static-analysis.md)",
            report.phase_ranked_functions
        );
        clean = false;
    }
    if report.lock_sites < LOCK_SITES_FLOOR {
        eprintln!(
            "xtask lint: lock-order pass saw only {} in-scope lock site(s) \
             (< {LOCK_SITES_FLOOR}) — its scope no longer covers the code that \
             takes locks, so its clean verdict is vacuous (docs/static-analysis.md)",
            report.lock_sites
        );
        clean = false;
    }
    if report.linear_checked_functions < RESOURCE_BASELINE {
        eprintln!(
            "xtask lint: linear-resource pass checked only {} function(s) \
             (< {RESOURCE_BASELINE}) — `tcc_linear` annotations must be migrated, \
             not deleted (docs/static-analysis.md)",
            report.linear_checked_functions
        );
        clean = false;
    }
    for required in RESOURCE_CRATES {
        if !report.linear_crates.iter().any(|c| c == required) {
            eprintln!(
                "xtask lint: linear-resource pass no longer covers crate `{required}` — \
                 the paper's resource lifecycles span {RESOURCE_CRATES:?} and each must \
                 keep at least one checked function (docs/static-analysis.md)"
            );
            clean = false;
        }
    }
    if opts.timings {
        let total_ns: u64 = report.pass_nanos.iter().map(|&(_, ns)| ns).sum();
        let total_ms = total_ns / 1_000_000;
        if !opts.json && !opts.quiet {
            for (name, ns) in &report.pass_nanos {
                println!("xtask lint: timing {name}: {:.3} ms", *ns as f64 / 1.0e6);
            }
            println!("xtask lint: timing total: {total_ms} ms (budget {ANALYZE_BUDGET_MS} ms)");
        }
        if total_ms > ANALYZE_BUDGET_MS {
            eprintln!(
                "xtask lint: analyzer wall time {total_ms} ms exceeds the \
                 {ANALYZE_BUDGET_MS} ms budget — a pass regressed"
            );
            clean = false;
        }
    }
    if !clean && !opts.json {
        eprintln!(
            "xtask lint: tcc-analyze found {} diagnostic(s); see LINT_report.json",
            report.diagnostics.len()
        );
    }
    Ok(clean)
}

/// The workspace `cargo xtask` runs in: the nearest ancestor of the
/// current directory whose `Cargo.toml` declares `[workspace]`. Found at
/// run time, not from the compile-time manifest path, so a prebuilt
/// binary carried into a copy of the checkout lints the copy.
fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("read the current directory");
    cwd.ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|manifest| manifest.lines().any(|l| l.trim() == "[workspace]"))
        })
        .unwrap_or_else(|| panic!("no [workspace] Cargo.toml above {}", cwd.display()))
        .to_path_buf()
}

/// Every `crates/*/src/lib.rs` (bench exempt) must forbid unsafe code.
fn check_forbid_unsafe(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut entries: Vec<_> = std::fs::read_dir(&crates_dir)
        .expect("read crates/")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for dir in entries {
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        if UNSAFE_EXEMPT.contains(&name.as_str()) {
            continue;
        }
        let lib = dir.join("src/lib.rs");
        if !lib.is_file() {
            continue; // bin-only crate (xtask itself)
        }
        let text = std::fs::read_to_string(&lib).expect("read lib.rs");
        if !text.contains("#![forbid(unsafe_code)]") {
            out.push(format!(
                "{}: missing #![forbid(unsafe_code)]",
                lib.strip_prefix(root).unwrap().display()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_crates_forbid_unsafe() {
        let root = workspace_root();
        let failures = check_forbid_unsafe(&root);
        assert!(failures.is_empty(), "{failures:#?}");
    }

    #[test]
    fn analyzer_gate_is_clean_and_annotations_hold_the_baseline() {
        let root = workspace_root();
        let ws = tcc_analyze::Workspace::load_root(&root).expect("load workspace");
        let report = tcc_analyze::run_all(&ws);
        assert!(
            report.clean(),
            "{}",
            report
                .diagnostics
                .iter()
                .map(|d| d.render())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            report.no_alloc_annotations >= NO_ALLOC_BASELINE,
            "annotation count {} fell below the migrated baseline {NO_ALLOC_BASELINE}",
            report.no_alloc_annotations
        );
        assert!(
            report.no_panic_annotations >= NO_PANIC_BASELINE,
            "tcc_no_panic count {} fell below the baseline {NO_PANIC_BASELINE}",
            report.no_panic_annotations
        );
        assert!(
            report.phase_ranked_functions >= PHASE_RANKED_FLOOR,
            "epoch-phase pass ranked only {} functions (< {PHASE_RANKED_FLOOR})",
            report.phase_ranked_functions
        );
        assert!(
            report.lock_sites >= LOCK_SITES_FLOOR,
            "lock-order pass saw only {} lock sites (< {LOCK_SITES_FLOOR})",
            report.lock_sites
        );
        assert!(
            report.linear_checked_functions >= RESOURCE_BASELINE,
            "linear-resource pass checked only {} functions (< {RESOURCE_BASELINE})",
            report.linear_checked_functions
        );
        for required in RESOURCE_CRATES {
            assert!(
                report.linear_crates.iter().any(|c| c == required),
                "linear-resource coverage lost crate `{required}` (have {:?})",
                report.linear_crates
            );
        }
    }

    #[test]
    fn report_json_has_the_gate_keys() {
        let root = workspace_root();
        let ws = tcc_analyze::Workspace::load_root(&root).expect("load workspace");
        let json = tcc_analyze::run_all(&ws).to_json();
        for key in [
            "\"schema\": 4",
            "\"clean\"",
            "\"no_alloc_annotations\"",
            "\"annotations\"",
            "\"pass_counts\"",
            "\"panic-freedom\"",
            "\"epoch-phase\"",
            "\"linear-resource\"",
            "\"phase_ranked_functions\"",
            "\"lock_sites\"",
            "\"linear_checked_functions\"",
            "\"linear_crates\"",
            "\"timings_ms\": null",
            "\"baselines\"",
            "\"diagnostics\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }

    #[test]
    fn injected_clock_fills_per_pass_timings() {
        let root = workspace_root();
        let ws = tcc_analyze::Workspace::load_root(&root).expect("load workspace");
        let report = tcc_analyze::run_all_timed(&ws, Some(clock_ns));
        // One lap per pass plus the shared call-graph build.
        assert_eq!(
            report.pass_nanos.len(),
            tcc_analyze::report::PASSES.len() + 1
        );
        assert_eq!(report.pass_nanos[0].0, "callgraph");
        let json = report.to_json();
        assert!(!json.contains("\"timings_ms\": null"));
        assert!(json.contains("\"timings_ms\": {"));
    }
}
