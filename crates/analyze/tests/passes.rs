//! Fixture tests: every pass must (a) flag its fixture — each diagnostic
//! code in this suite is pinned by a file that exists to trip it — and
//! (b) find the real workspace clean. The legacy-scan regression test
//! additionally proves the analyzer is strictly stronger than the
//! substring scan it replaced.

use std::path::Path;
use tcc_analyze::{
    alloc, determinism, locks, panics, phase, resource, run_all, timearith, Workspace,
    LOCK_SITES_FLOOR, NO_ALLOC_BASELINE, NO_PANIC_BASELINE, PHASE_RANKED_FLOOR, RESOURCE_BASELINE,
    RESOURCE_CRATES,
};

const ALLOC_TRANSITIVE: &str = include_str!("fixtures/alloc_transitive.rs");
const ALLOC_STALE_OK: &str = include_str!("fixtures/alloc_stale_ok.rs");
const LOCK_CYCLE: &str = include_str!("fixtures/lock_cycle.rs");
const LOCK_CLEAN: &str = include_str!("fixtures/lock_clean.rs");
const TIME_OVERFLOW: &str = include_str!("fixtures/time_overflow.rs");
const NONDETERMINISM: &str = include_str!("fixtures/nondeterminism.rs");
const PHASE_PRODUCER: &str = include_str!("fixtures/phase_producer.rs");
const PHASE_MINIMA: &str = include_str!("fixtures/phase_minima.rs");
const PHASE_ESCAPE: &str = include_str!("fixtures/phase_escape.rs");
const PHASE_CLEAN: &str = include_str!("fixtures/phase_clean.rs");
const PANIC_REACHABLE: &str = include_str!("fixtures/panic_reachable.rs");
const PANIC_STALE_OK: &str = include_str!("fixtures/panic_stale_ok.rs");
const PANIC_CLEAN: &str = include_str!("fixtures/panic_clean.rs");
const RESOURCE_LEAK: &str = include_str!("fixtures/resource_leak.rs");
const RESOURCE_DOUBLE_RELEASE: &str = include_str!("fixtures/resource_double_release.rs");
const RESOURCE_USE_AFTER_RELEASE: &str = include_str!("fixtures/resource_use_after_release.rs");
const RESOURCE_STALE_OK: &str = include_str!("fixtures/resource_stale_ok.rs");
const RESOURCE_CLEAN: &str = include_str!("fixtures/resource_clean.rs");
const RESOURCE_DEDUP: &str = include_str!("fixtures/resource_dedup.rs");

fn ws(name: &str, src: &str) -> Workspace {
    Workspace::from_sources(&[(name, src)])
}

fn resource_run(name: &str, src: &str) -> Vec<tcc_analyze::report::Diagnostic> {
    resource::run(&ws(name, src))
}

#[test]
fn alloc_pass_catches_transitive_allocation() {
    let d = alloc::run(&ws("alloc_transitive.rs", ALLOC_TRANSITIVE));
    assert_eq!(d.len(), 1, "{d:#?}");
    assert_eq!(d[0].code, "alloc.transitive");
    assert_eq!(d[0].function, "SendQueue::issue");
    assert!(
        d[0].notes
            .iter()
            .any(|n| n.contains("SendQueue::issue -> SendQueue::stage")),
        "diagnostic must name the call path: {:#?}",
        d[0].notes
    );
}

#[test]
fn alloc_pass_flags_a_stale_escape_hatch() {
    let d = alloc::run(&ws("alloc_stale_ok.rs", ALLOC_STALE_OK));
    assert_eq!(d.len(), 1, "{d:#?}");
    assert_eq!(d[0].code, "alloc.stale-ok");
    assert_eq!(d[0].function, "Table::grow");
}

/// The scan `cargo xtask lint` ran before this crate existed: extract the
/// annotated function's body by brace counting, then substring-match
/// allocation patterns. Reproduced here byte-for-byte in miniature to pin
/// the regression: it finds NOTHING in a hot function that allocates
/// through a helper, while the call-graph pass does.
#[test]
fn legacy_substring_scan_misses_what_the_graph_pass_catches() {
    const ALLOC_PATTERNS: &[&str] = &[
        "Vec::new(",
        "vec![",
        "with_capacity(",
        ".to_vec(",
        "Box::new(",
        ".collect(",
        "format!(",
        ".to_string(",
        "String::new(",
        "String::from(",
    ];
    fn function_body<'a>(text: &'a str, func: &str) -> Option<&'a str> {
        let at = text.find(func)?;
        let open = at + text[at..].find('{')?;
        let mut depth = 0usize;
        for (i, ch) in text[open..].char_indices() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(&text[open..open + i + 1]);
                    }
                }
                _ => {}
            }
        }
        None
    }

    let body = function_body(ALLOC_TRANSITIVE, "fn issue").expect("hot fn present");
    let legacy_hits: Vec<&&str> = ALLOC_PATTERNS
        .iter()
        .filter(|p| {
            body.lines()
                .map(|l| l.split("//").next().unwrap_or(""))
                .any(|code| code.contains(**p))
        })
        .collect();
    assert!(
        legacy_hits.is_empty(),
        "the legacy scan must stay blind to the helper for this regression \
         test to mean anything, but it matched {legacy_hits:?}"
    );

    let d = alloc::run(&ws("alloc_transitive.rs", ALLOC_TRANSITIVE));
    assert_eq!(d.len(), 1, "the graph pass sees through the helper: {d:#?}");
    assert_eq!(d[0].code, "alloc.transitive");
}

#[test]
fn lock_pass_flags_the_pre_pr4_crossbar_cycle() {
    let d = locks::run(&ws("lock_cycle.rs", LOCK_CYCLE));
    assert!(!d.is_empty(), "reverse-order holds must cycle");
    assert!(d.iter().all(|x| x.code == "lock.cycle"), "{d:#?}");
    let rendered = format!("{d:#?}");
    assert!(
        rendered.contains("ports") && rendered.contains("directory"),
        "cycle report names both locks: {rendered}"
    );
}

#[test]
fn lock_pass_accepts_the_current_engine_discipline() {
    let d = locks::run(&ws("lock_clean.rs", LOCK_CLEAN));
    assert!(
        d.is_empty(),
        "temporary and block-scoped guards must not cycle: {d:#?}"
    );
}

#[test]
fn time_pass_flags_each_raw_operator_and_blesses_saturating_forms() {
    let d = timearith::run(&ws("time_overflow.rs", TIME_OVERFLOW));
    let codes: Vec<&str> = d.iter().map(|x| x.code.as_str()).collect();
    assert!(codes.contains(&"time.raw-add"), "{d:#?}");
    assert!(codes.contains(&"time.raw-mul"), "{d:#?}");
    assert!(codes.contains(&"time.raw-sub"), "{d:#?}");
    assert!(
        !d.iter().any(|x| x.function == "safe"),
        "saturating/min chains are blessed: {d:#?}"
    );
}

#[test]
fn determinism_pass_flags_wallclock_hash_iteration_and_entropy() {
    let d = determinism::run(&ws("nondeterminism.rs", NONDETERMINISM));
    let codes: Vec<&str> = d.iter().map(|x| x.code.as_str()).collect();
    assert!(codes.contains(&"det.wallclock"), "{d:#?}");
    assert!(codes.contains(&"det.hashmap-iter"), "{d:#?}");
    assert!(codes.contains(&"det.randomness"), "{d:#?}");
}

#[test]
fn phase_pass_flags_producer_work_after_the_barrier() {
    let d = phase::run(&ws("phase_producer.rs", PHASE_PRODUCER));
    assert_eq!(d.len(), 1, "{d:#?}");
    assert_eq!(d[0].code, "phase.producer-after-barrier");
    assert_eq!(d[0].function, "Worker::epoch");
    assert!(
        d[0].notes.iter().any(|n| n.contains("flush_mail")),
        "the note must name the producer-side helper: {:#?}",
        d[0].notes
    );
}

#[test]
fn phase_pass_flags_a_drain_after_horizon_minima() {
    let d = phase::run(&ws("phase_minima.rs", PHASE_MINIMA));
    assert_eq!(d.len(), 1, "{d:#?}");
    assert_eq!(d[0].code, "phase.drain-after-minima");
    assert_eq!(d[0].function, "Worker::epoch");
}

#[test]
fn phase_pass_flags_cross_shard_mutation_bypassing_the_mailbox() {
    let d = phase::run(&ws("phase_escape.rs", PHASE_ESCAPE));
    assert_eq!(d.len(), 1, "{d:#?}");
    assert_eq!(d[0].code, "phase.shard-escape");
    assert!(d[0].message.contains("shards[_]"), "{}", d[0].message);
}

#[test]
fn phase_pass_accepts_the_blessed_epoch_machine() {
    let d = phase::run(&ws("phase_clean.rs", PHASE_CLEAN));
    assert!(
        d.is_empty(),
        "correct order, neutral drivers, Option::take and setup wiring \
         must all stay quiet: {d:#?}"
    );
}

#[test]
fn panic_pass_sees_through_helpers_to_the_expect() {
    let d = panics::run(&ws("panic_reachable.rs", PANIC_REACHABLE));
    assert_eq!(d.len(), 1, "{d:#?}");
    assert_eq!(d[0].code, "panic.reachable");
    assert_eq!(d[0].function, "Decoder::hot_decode");
    assert!(
        d[0].notes
            .iter()
            .any(|n| n.contains("Decoder::hot_decode -> Decoder::step")),
        "diagnostic must name the call path: {:#?}",
        d[0].notes
    );
}

#[test]
fn panic_pass_flags_a_stale_escape_hatch() {
    let d = panics::run(&ws("panic_stale_ok.rs", PANIC_STALE_OK));
    assert_eq!(d.len(), 1, "{d:#?}");
    assert_eq!(d[0].code, "panic.stale-ok");
    assert_eq!(d[0].function, "Gate::admit");
}

#[test]
fn panic_pass_accepts_funnels_asserts_and_indexing() {
    let d = panics::run(&ws("panic_clean.rs", PANIC_CLEAN));
    assert!(
        d.is_empty(),
        "a reviewed funnel behind a no-panic fn, debug_assert! and \
         indexing are all blessed: {d:#?}"
    );
}

#[test]
fn resource_pass_flags_the_early_return_leak() {
    let d = resource_run("resource_leak.rs", RESOURCE_LEAK);
    assert_eq!(d.len(), 1, "{d:#?}");
    assert_eq!(d[0].code, "resource.leak");
    assert_eq!(d[0].function, "transmit");
    assert!(
        d[0].message.contains("credit"),
        "the leaked kind must be named: {}",
        d[0].message
    );
}

#[test]
fn resource_pass_flags_double_release() {
    let d = resource_run("resource_double_release.rs", RESOURCE_DOUBLE_RELEASE);
    assert_eq!(d.len(), 1, "{d:#?}");
    assert_eq!(d[0].code, "resource.double-release");
    assert_eq!(d[0].function, "respond_twice");
    assert!(d[0].message.contains("tag"), "{}", d[0].message);
}

#[test]
fn resource_pass_flags_use_after_release() {
    let d = resource_run("resource_use_after_release.rs", RESOURCE_USE_AFTER_RELEASE);
    assert_eq!(d.len(), 1, "{d:#?}");
    assert_eq!(d[0].code, "resource.use-after-release");
    assert_eq!(d[0].function, "replay");
    assert!(d[0].message.contains("handle"), "{}", d[0].message);
}

#[test]
fn resource_pass_flags_a_stale_transfer_ok() {
    let d = resource_run("resource_stale_ok.rs", RESOURCE_STALE_OK);
    assert_eq!(d.len(), 1, "{d:#?}");
    assert_eq!(d[0].code, "resource.stale-ok");
    assert_eq!(d[0].function, "roundtrip");
}

#[test]
fn resource_pass_accepts_the_paired_lifecycles() {
    let d = resource_run("resource_clean.rs", RESOURCE_CLEAN);
    assert!(
        d.is_empty(),
        "?-shifted acquires, a justified handoff, a net-releasing drain \
         loop and a properly paired handle are all blessed: {d:#?}"
    );
}

/// Satellite: diagnostics with identical (file, line, code) collapse to
/// one in `run_all`, while the raw pass still sees one per kind.
#[test]
fn identical_span_diagnostics_dedup_in_run_all() {
    let raw = resource_run("resource_dedup.rs", RESOURCE_DEDUP);
    let leaks = raw.iter().filter(|d| d.code == "resource.leak").count();
    assert_eq!(leaks, 2, "one leak per kind before dedup: {raw:#?}");

    let report = run_all(&ws("resource_dedup.rs", RESOURCE_DEDUP));
    let deduped = report.by_pass("linear-resource").count();
    assert_eq!(deduped, 1, "{:#?}", report.diagnostics);
}

/// Satellite: `LINT_report.json` is byte-stable — two runs over the same
/// sources serialize to identical bytes, both on the clean workspace and
/// on a fixture that produces diagnostics.
#[test]
fn report_json_is_byte_identical_across_runs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("analyze lives two levels below the workspace root");
    let w = Workspace::load_root(root).expect("load workspace sources");
    assert_eq!(run_all(&w).to_json(), run_all(&w).to_json());

    let dirty = ws("resource_dedup.rs", RESOURCE_DEDUP);
    let a = run_all(&dirty).to_json();
    let b = run_all(&dirty).to_json();
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

/// The real workspace passes every gate. This is the test that makes the
/// fixtures honest: the passes fire on the fixtures above and stay quiet
/// on ~90 production files, so they discriminate rather than spam.
#[test]
fn workspace_is_clean_under_all_seven_passes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("analyze lives two levels below the workspace root");
    let ws = Workspace::load_root(root).expect("load workspace sources");
    let report = run_all(&ws);
    assert!(
        report.clean(),
        "workspace must be diagnostic-free:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.no_alloc_annotations >= NO_ALLOC_BASELINE,
        "the annotated hot functions must keep their tcc_no_alloc \
         annotations ({NO_ALLOC_BASELINE}; found {})",
        report.no_alloc_annotations
    );
    assert!(
        report.no_panic_annotations >= NO_PANIC_BASELINE,
        "the hot path keeps its tcc_no_panic coverage ({NO_PANIC_BASELINE}; found {})",
        report.no_panic_annotations
    );
    assert!(
        report.phase_ranked_functions >= PHASE_RANKED_FLOOR,
        "the epoch-phase pass must rank the engine's worker loop and \
         its helpers — {} ranked functions means the anchors went blind",
        report.phase_ranked_functions
    );
    assert!(
        report.linear_checked_functions >= RESOURCE_BASELINE,
        "the linear-resource pass must keep walking the annotated \
         lifecycles ({RESOURCE_BASELINE}; found {})",
        report.linear_checked_functions
    );
    for required in RESOURCE_CRATES {
        assert!(
            report.linear_crates.iter().any(|c| c == required),
            "linear-resource coverage must span crate `{required}` (have {:?})",
            report.linear_crates
        );
    }
    assert!(report.files_scanned >= 80, "{}", report.files_scanned);
    // The batch ring's slot locks specifically: seen by the lock pass,
    // and clean.
    assert!(
        report.lock_sites >= LOCK_SITES_FLOOR,
        "the lock-order pass must see the workspace's lock sites (found {})",
        report.lock_sites
    );
    assert_eq!(report.by_pass("lock-order").count(), 0);
}
