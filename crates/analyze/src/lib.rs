//! `tcc-analyze` — AST-level static analysis for the TCCluster workspace.
//!
//! The workspace's correctness rests on invariants the type system cannot
//! see: hot paths must stay allocation-free *transitively*, the PDES
//! engine's mailbox locks must stay cycle-free, picosecond arithmetic
//! must not overflow silently, and simulation results must never depend
//! on wallclock, hash order or entropy. Substring scans (the previous
//! `cargo xtask lint` implementation) check none of this robustly: they
//! stop checking a function the moment it is renamed, and they cannot see
//! a hot function calling a helper that allocates.
//!
//! This crate parses every workspace crate with its own lexer and
//! item/expression parser ([`parse`]: functions with their parameters
//! and `let` bindings, struct fields, and the shared expression scans;
//! no rustc dependency — in the spirit of the vendored loom/rayon
//! shims), builds the intra-workspace call graph
//! **once** ([`callgraph`] — shared name resolution, generic fixpoint
//! propagation and path-finding BFS), builds intraprocedural CFGs on
//! demand ([`cfg`](mod@cfg) + the [`dataflow`] worklist solver), and runs seven
//! passes. `alloc-reachability` and `panic-freedom` are one checker
//! ([`obligation`]) configured twice; the path-sensitive passes
//! (`epoch-phase`, `linear-resource`) both run on the CFG solver.
//!
//! | pass | module | checks |
//! |---|---|---|
//! | `alloc-reachability` | [`alloc`] on [`obligation`] | `#[cfg_attr(lint, tcc_no_alloc)]` functions never *transitively* reach an allocating call |
//! | `lock-order` | [`locks`] | the may-hold-while-acquiring graph over `Mutex::lock` sites is acyclic |
//! | `time-arith` | [`timearith`] | raw `+`/`-`/`*` on picosecond-valued expressions use `checked_`/`saturating_` forms or a blessed newtype op |
//! | `determinism` | [`determinism`] | no wallclock, no `HashMap`/`HashSet` iteration, no entropy-seeded randomness in simulation code |
//! | `panic-freedom` | [`panics`] on [`obligation`] | `#[cfg_attr(lint, tcc_no_panic)]` functions never *transitively* reach `unwrap`/`expect`/`panic!`-family sites |
//! | `epoch-phase` | [`phase`] on [`cfg`](mod@cfg) + [`dataflow`] | on every path through a barrier interval, the engine's epoch machine keeps drain → minima → stage → publish order; it never bypasses the mailbox handoff |
//! | `linear-resource` | [`resource`] on [`cfg`](mod@cfg) + [`dataflow`] | `#[cfg_attr(lint, tcc_linear(kind))]` functions balance acquire/release anchors (credits, SrcTags, batches) on *every* CFG path |
//!
//! Escape hatches are explicit and auditable: `#[cfg_attr(lint,
//! tcc_alloc_ok)]` marks an amortized/cold allocation the reachability
//! pass may stop at (kept honest by `alloc.stale-ok`), `#[cfg_attr(lint,
//! tcc_panic_ok)]` a reviewed deliberate protocol panic (kept honest by
//! `panic.stale-ok`),
//! `#[cfg_attr(lint, tcc_transfer_ok)]` a reviewed ownership handoff
//! the resource pass may exit holding (kept honest by
//! `resource.stale-ok`), and a `// tcc-analyze: allow(<code>)` comment
//! on (or immediately above) a flagged line suppresses that one
//! diagnostic.
//! Every run produces a [`report::Report`], which `cargo xtask lint`
//! serialises to `LINT_report.json` (schema 3: per-pass counts,
//! baselines and optional per-pass timings, machine-diffable; the
//! diagnostics list is sorted and deduplicated, so serialisation is
//! byte-stable across runs). See `docs/static-analysis.md`.

#![forbid(unsafe_code)]

pub mod alloc;
pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod determinism;
pub mod lexer;
pub mod locks;
pub mod obligation;
pub mod panics;
pub mod parse;
pub mod phase;
pub mod report;
pub mod resource;
pub mod timearith;

use parse::{parse_file, FnDef, Parsed, SourceFile};
use report::Report;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

/// A loaded-and-parsed source tree the passes run over.
#[derive(Debug)]
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub fns: Vec<FnDef>,
    pub fields: Vec<parse::FieldDef>,
    /// Built by [`Workspace::from_sources`] (fixture tests): passes whose
    /// production scope is a file subset widen to every file.
    pub synthetic: bool,
    /// Crate dir-name → dir-names whose items that crate's code can see
    /// (itself plus transitive path dependencies, from the Cargo.tomls).
    /// Name-based call resolution must not cross into crates the caller
    /// cannot even import — `ht`'s `release` calling a `put` must never
    /// resolve to `middleware`'s `GlobalArray::put`. Empty for fixture
    /// workspaces (everything visible).
    pub crate_deps: BTreeMap<String, BTreeSet<String>>,
}

/// The number of `#[cfg_attr(lint, tcc_no_alloc)]` annotations the
/// workspace carries (21 when the old HOT_FUNCTIONS table was migrated
/// to in-place attributes; 33 after the mailbox/arena/ladder hot paths
/// were annotated; 40 after the flat fast lane and the auto queue
/// backend landed; 31 after the ladder, calendar and auto backends and
/// the non-generic `on_arrive` shim were deleted with their eight and
/// one annotated functions; 29 after the event arena's `park`/`take`
/// were deleted; 33 after the per-wire event lanes annotated
/// `LaneQueue::push_lane`/`pop_keyed_before` and the engine's
/// `Shard::push_arrival`/`pop_before`; still 33 after `pop_before` was
/// deleted and the engine's shared delivery tail `act_on_delivery` was
/// annotated). The count may only grow while
/// the code it covers stays: a drop means someone deleted an annotation
/// rather than migrating it.
pub const NO_ALLOC_BASELINE: usize = 33;

/// The number of `tcc_no_panic` annotations the workspace carries (31
/// when the panic-freedom pass landed: the no-alloc hot paths that are
/// also panic-checked plus the executive drivers; 39 after the
/// flat-lane dispatch, the sequential executive and the auto backend
/// were annotated; 29 after the ladder, calendar and auto backends (nine
/// annotated functions) and the `on_arrive` shim were deleted; 33 after
/// the same four lane push/pop functions as [`NO_ALLOC_BASELINE`]; still
/// 33 after the same `pop_before` → `act_on_delivery` swap).
/// Guarded like [`NO_ALLOC_BASELINE`]: the count may only grow.
pub const NO_PANIC_BASELINE: usize = 33;

/// The epoch-phase pass must keep ranking at least this many in-scope
/// engine functions (21 when the pass landed). A collapse below the
/// floor means the pass went blind (e.g. the anchor patterns no longer
/// match the engine's rings) and its clean verdict is vacuous.
pub const PHASE_RANKED_FLOOR: usize = 8;

/// The lock-order pass must keep seeing at least this many in-scope
/// lock sites (the `BatchRing` slot locks). Zero means the pass's scope
/// no longer covers the code that takes locks, so its clean verdict is
/// vacuous.
pub const LOCK_SITES_FLOOR: usize = 1;

/// The linear-resource pass must keep walking at least this many
/// `tcc_linear`-annotated functions (16 when the pass landed: the
/// credit, rxbuf, srctag, event-slot and batch lifecycles; 13 after
/// the event queue's slot arena went and its three queue methods lost
/// their `tcc_linear` annotations). Guarded like
/// [`PHASE_RANKED_FLOOR`]: a collapse means the annotations were deleted
/// or the pass stopped seeing them, making its verdict vacuous.
pub const RESOURCE_BASELINE: usize = 13;

/// Crates the linear-resource pass must keep covering (at least one
/// checked function each): the paper's resource lifecycles span the
/// wire protocol (ht), the shm transport (msglib) and the executive
/// (core).
pub const RESOURCE_CRATES: &[&str] = &["core", "ht", "msglib"];

/// Crates whose sources are loaded but exempt from the determinism and
/// alloc passes: the bench harness is the one legitimate wallclock (and
/// counting-allocator) consumer, and xtask only shells out to cargo.
pub const EXEMPT_CRATES: &[&str] = &["bench", "xtask"];

impl Workspace {
    /// Load every `crates/*/src/**/*.rs` plus the top-level `src/` of the
    /// workspace at `root`. `vendor/`, `tests/`, `examples/` and
    /// `benches/` trees are not loaded: vendored shims are API stand-ins,
    /// and test/bench code allocates freely by design (in-source
    /// `#[cfg(test)]` modules are parsed but marked `is_test`).
    pub fn load_root(root: &Path) -> io::Result<Workspace> {
        let mut sources = Vec::new();
        // (dir-name, package-name, dep package names) per manifest.
        let mut manifests: Vec<(String, String, Vec<String>)> = Vec::new();
        let crates_dir = root.join("crates");
        let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let crate_name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if let Ok(text) = std::fs::read_to_string(dir.join("Cargo.toml")) {
                let (pkg, deps) = manifest_pkgs(&text);
                manifests.push((crate_name.clone(), pkg.unwrap_or_default(), deps));
            }
            let src_dir = dir.join("src");
            if src_dir.is_dir() {
                collect_rs(&src_dir, &mut |path, text| {
                    sources.push((rel(root, path), crate_name.clone(), text));
                })?;
            }
        }
        let top_src = root.join("src");
        if top_src.is_dir() {
            if let Ok(text) = std::fs::read_to_string(root.join("Cargo.toml")) {
                let (pkg, deps) = manifest_pkgs(&text);
                manifests.push((
                    "tccluster-suite".to_string(),
                    pkg.unwrap_or_else(|| "tccluster-suite".to_string()),
                    deps,
                ));
            }
            collect_rs(&top_src, &mut |path, text| {
                sources.push((rel(root, path), "tccluster-suite".to_string(), text));
            })?;
        }
        sources.sort_by(|a, b| a.0.cmp(&b.0));
        let mut ws = Self::build(sources, false);
        ws.crate_deps = dep_closure(&manifests);
        Ok(ws)
    }

    /// Build a workspace from in-memory sources — the fixture-test entry
    /// point. Paths are arbitrary labels; crate name is `fixture`.
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        let owned = sources
            .iter()
            .map(|(p, s)| ((*p).to_string(), "fixture".to_string(), (*s).to_string()))
            .collect();
        Self::build(owned, true)
    }

    fn build(sources: Vec<(String, String, String)>, synthetic: bool) -> Workspace {
        let mut files = Vec::new();
        let mut fns = Vec::new();
        let mut fields = Vec::new();
        for (path, crate_name, text) in sources {
            let file = SourceFile::new(path, crate_name, &text);
            let idx = files.len();
            let Parsed { fns: f, fields: fd } = parse_file(idx, &file);
            fns.extend(f);
            fields.extend(fd);
            files.push(file);
        }
        Workspace {
            files,
            fns,
            fields,
            synthetic,
            crate_deps: BTreeMap::new(),
        }
    }

    pub fn file(&self, f: &FnDef) -> &SourceFile {
        &self.files[f.file]
    }

    /// Is this function part of an exempt crate or test-only code?
    pub fn exempt(&self, f: &FnDef) -> bool {
        f.is_test || EXEMPT_CRATES.contains(&self.files[f.file].crate_name.as_str())
    }

    /// May code in `from_crate` name items of `to_crate`? True within a
    /// crate, for fixture workspaces, and along (transitive) Cargo
    /// dependency edges.
    pub fn visible(&self, from_crate: &str, to_crate: &str) -> bool {
        if self.synthetic || from_crate == to_crate {
            return true;
        }
        match self.crate_deps.get(from_crate) {
            Some(seen) => seen.contains(to_crate),
            None => true,
        }
    }
}

/// Pull the `[package] name` and the candidate dependency package names
/// out of a manifest. Dependency detection is line-shaped (`pkg = {..}`,
/// `pkg.workspace = true`); non-package keys (`version`, `lto`, ...) are
/// harvested too but filtered out later against the real package list.
fn manifest_pkgs(text: &str) -> (Option<String>, Vec<String>) {
    let mut name = None;
    let mut deps = Vec::new();
    for line in text.lines() {
        let l = line.trim();
        if name.is_none() {
            if let Some(rest) = l.strip_prefix("name = \"") {
                if let Some(end) = rest.find('"') {
                    name = Some(rest[..end].to_string());
                }
            }
        }
        let head: String = l
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
            .collect();
        if !head.is_empty() {
            let rest = &l[head.len()..];
            if rest.starts_with(".workspace") || rest.trim_start().starts_with('=') {
                deps.push(head);
            }
        }
    }
    (name, deps)
}

/// Transitive closure of the path-dependency graph, keyed by crate dir
/// name (each crate sees itself).
fn dep_closure(manifests: &[(String, String, Vec<String>)]) -> BTreeMap<String, BTreeSet<String>> {
    let pkg_to_dir: BTreeMap<&str, &str> = manifests
        .iter()
        .map(|(dir, pkg, _)| (pkg.as_str(), dir.as_str()))
        .collect();
    let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (dir, _, deps) in manifests {
        let set: BTreeSet<String> = deps
            .iter()
            .filter_map(|d| pkg_to_dir.get(d.as_str()))
            .map(|d| d.to_string())
            .chain(std::iter::once(dir.clone()))
            .collect();
        out.insert(dir.clone(), set);
    }
    loop {
        let mut changed = false;
        let dirs: Vec<String> = out.keys().cloned().collect();
        for dir in &dirs {
            let reach: BTreeSet<String> = out[dir]
                .iter()
                .filter_map(|d| out.get(d))
                .flatten()
                .cloned()
                .collect();
            let mine = out.get_mut(dir).expect("seeded");
            let before = mine.len();
            mine.extend(reach);
            changed |= mine.len() != before;
        }
        if !changed {
            break;
        }
    }
    out
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn collect_rs(dir: &Path, sink: &mut dyn FnMut(&Path, String)) -> io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, sink)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&p)?;
            sink(&p, text);
        }
    }
    Ok(())
}

/// Run all seven passes over one shared call graph and assemble the
/// report. Equivalent to [`run_all_timed`] without a clock: the report's
/// `timings_ms` stays `null`, which keeps the committed
/// `LINT_report.json` byte-stable across runs.
pub fn run_all(ws: &Workspace) -> Report {
    run_all_timed(ws, None)
}

/// A monotonic nanosecond clock, injected by the caller. The analyzer
/// itself must not read wallclock (its own determinism pass — and the
/// workspace-wide clippy disallowed-methods list — ban it), so timing
/// lives behind a fn pointer xtask supplies from the one exempt crate.
pub type PassClock = fn() -> u64;

/// Run all seven passes; with a clock, record per-pass wall time (plus
/// the shared call-graph build) into the report's `pass_nanos`.
pub fn run_all_timed(ws: &Workspace, clock: Option<PassClock>) -> Report {
    let marker_count = |m: &str| ws.fns.iter().filter(|f| f.has_marker(m)).count();
    let mut report = Report {
        files_scanned: ws.files.len(),
        functions_indexed: ws.fns.len(),
        no_alloc_annotations: marker_count("tcc_no_alloc"),
        alloc_ok_annotations: marker_count("tcc_alloc_ok"),
        no_panic_annotations: marker_count("tcc_no_panic"),
        panic_ok_annotations: marker_count("tcc_panic_ok"),
        linear_annotations: marker_count("tcc_linear"),
        transfer_ok_annotations: marker_count("tcc_transfer_ok"),
        acquire_annotations: marker_count("tcc_acquires"),
        release_annotations: marker_count("tcc_releases"),
        ..Report::default()
    };
    let mut last = clock.map(|c| c());
    let mut lap = |report: &mut Report, name: &'static str| {
        if let (Some(c), Some(prev)) = (clock, last) {
            let t = c();
            report.pass_nanos.push((name, t.saturating_sub(prev)));
            last = Some(t);
        }
    };
    let cg = callgraph::CallGraph::build(ws);
    lap(&mut report, "callgraph");
    report.diagnostics.extend(alloc::run_with(ws, &cg));
    lap(&mut report, "alloc-reachability");
    let (lock_diags, lock_sites) = locks::run_with_stats(ws, &cg);
    report.diagnostics.extend(lock_diags);
    report.lock_sites = lock_sites;
    lap(&mut report, "lock-order");
    report.diagnostics.extend(timearith::run(ws));
    lap(&mut report, "time-arith");
    report.diagnostics.extend(determinism::run(ws));
    lap(&mut report, "determinism");
    report.diagnostics.extend(panics::run_with(ws, &cg));
    lap(&mut report, "panic-freedom");
    let (phase_diags, phase_ranked) = phase::run_with_stats(ws, &cg);
    report.diagnostics.extend(phase_diags);
    report.phase_ranked_functions = phase_ranked;
    lap(&mut report, "epoch-phase");
    let (res_diags, linear_checked, linear_crates) = resource::run_with_stats(ws, &cg);
    report.diagnostics.extend(res_diags);
    report.linear_checked_functions = linear_checked;
    report.linear_crates = linear_crates.into_iter().collect();
    lap(&mut report, "linear-resource");
    // Honour inline allow directives, then order for stable output, then
    // collapse exact duplicates (same file, line and code — e.g. two
    // resource kinds leaking at one exit): baseline counts must not
    // double-count shared anchors, and the serialised report must be
    // byte-identical across runs.
    report
        .diagnostics
        .retain(|d| !allowed(ws, &d.file, d.line, &d.code));
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, &a.code).cmp(&(&b.file, b.line, &b.code)));
    report
        .diagnostics
        .dedup_by(|a, b| a.file == b.file && a.line == b.line && a.code == b.code);
    report
}

fn allowed(ws: &Workspace, file: &str, line: u32, code: &str) -> bool {
    ws.files
        .iter()
        .find(|f| f.path == file)
        .is_some_and(|f| f.allowed(line, code))
}
