//! Pass 7: flow-sensitive linear-resource checking (`resource.*`).
//!
//! TCCluster's hot layers are built on *strictly paired* finite
//! resources: flow-control credits (`TxCredits::consume` / `release`,
//! the paper's fig. 3 flow layer), receive-buffer occupancy, the finite
//! SrcTag table (`TagTable::allocate` / `complete` — the paper forbids
//! remote loads precisely because tags are scarce) and mailbox batches
//! (`BatchRing::publish` / `take`). The runtime monitors in `tcc-verify`
//! check those pairings on the traces a workload happens to drive; this
//! pass proves them on the paths fault injection has *not* hit — the
//! early-return and error arms where leaks actually live.
//!
//! Mechanically it is the first client of the intraprocedural engines:
//! [`crate::cfg`] builds the block graph, [`crate::dataflow`] runs a
//! forward may-analysis whose fact is a saturating acquire/release
//! balance interval per resource kind plus a held/released state machine
//! per let-bound handle. Anchors are *declared in the source*, not
//! hard-coded: a function marked `#[cfg_attr(lint, tcc_acquires(kind))]`
//! or `#[cfg_attr(lint, tcc_releases(kind))]` is an anchor, and any call
//! the shared call graph resolves to it becomes an event. A call whose
//! result is propagated with `?` only commits its event on the success
//! path (validate-then-commit: `consume(&pkt)?` acquires nothing when it
//! errors).
//!
//! Checked functions opt in with `#[cfg_attr(lint, tcc_linear(kind,
//! ...))]`. Codes:
//!
//! * `resource.leak` — some path reaches a function exit (explicit
//!   `return`, `?` error edge, or fall-through) with an unreleased
//!   acquire;
//! * `resource.double-release` — a handle released again after every
//!   path to the site already released it;
//! * `resource.use-after-release` — a handle used after every path to
//!   the site released it;
//! * `resource.stale-ok` — the dual check keeping the escape hatch
//!   honest: `#[cfg_attr(lint, tcc_transfer_ok)]` (a reviewed ownership
//!   handoff, e.g. parking a handle and publishing it to a peer shard)
//!   on a function no path of which actually exits holding anything.

use crate::callgraph::CallGraph;
use crate::cfg::{self, Cfg};
use crate::dataflow::{self, Analysis};
use crate::lexer::{Tok, TokKind};
use crate::parse::{args_open, is_keyword, skip_balanced, FnDef};
use crate::report::Diagnostic;
use crate::Workspace;
use std::collections::{BTreeMap, BTreeSet};

/// Saturation bound for the anonymous balance interval: loops widen to
/// this instead of diverging, and any positive lower bound below it is
/// reported exactly.
const CAP: i8 = 8;

const HELD: u8 = 1;
const RELEASED: u8 = 2;

pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    run_with_stats(ws, &CallGraph::build(ws)).0
}

/// Run the pass and report the guard metrics: how many functions were
/// actually linear-checked and which crates they span. The xtask
/// `RESOURCE_BASELINE` gate fails if the count collapses (annotations
/// deleted instead of migrated) or the span shrinks.
pub fn run_with_stats(
    ws: &Workspace,
    cg: &CallGraph,
) -> (Vec<Diagnostic>, usize, BTreeSet<String>) {
    let mut out = Vec::new();
    let mut checked = 0usize;
    let mut crates = BTreeSet::new();

    // Anchor table: fn index -> declared (kind, is_acquire) pairs.
    let mut anchors: BTreeMap<usize, Vec<(String, bool)>> = BTreeMap::new();
    for (j, f) in ws.fns.iter().enumerate() {
        let mut v: Vec<(String, bool)> = marker_args(f, "tcc_acquires")
            .into_iter()
            .map(|k| (k, true))
            .collect();
        v.extend(
            marker_args(f, "tcc_releases")
                .into_iter()
                .map(|k| (k, false)),
        );
        if !v.is_empty() {
            anchors.insert(j, v);
        }
    }

    for &i in &cg.live {
        let f = &ws.fns[i];
        if ws.exempt(f) {
            continue;
        }
        let kinds = marker_args(f, "tcc_linear");
        let transfer_ok = f.has_marker("tcc_transfer_ok");
        if kinds.is_empty() {
            if transfer_ok {
                out.push(diag(
                    ws,
                    f,
                    "resource.stale-ok",
                    f.line,
                    "tcc_transfer_ok without a tcc_linear(kind) annotation has nothing to excuse"
                        .to_string(),
                    vec!["add tcc_linear(..) or drop the escape hatch".to_string()],
                ));
            }
            continue;
        }
        checked += 1;
        crates.insert(ws.file(f).crate_name.clone());

        let toks = &ws.file(f).toks;
        let body = f.body.expect("live fns have bodies");
        let graph = cfg::build(toks, body);
        let mut holding_exit = false;
        for kind in &kinds {
            holding_exit |= check_kind(
                ws,
                f,
                &graph,
                toks,
                body,
                kind,
                &cg.edges[i],
                &anchors,
                transfer_ok,
                &mut out,
            );
        }
        if transfer_ok && !holding_exit {
            out.push(diag(
                ws,
                f,
                "resource.stale-ok",
                f.line,
                format!(
                    "tcc_transfer_ok is stale: no path exits holding a `{}` resource",
                    kinds.join("`/`")
                ),
                vec!["every exit is balanced; drop the escape hatch".to_string()],
            ));
        }
    }
    (out, checked, crates)
}

/// One resource event, anchored to its effective token position.
#[derive(Debug, Clone)]
enum Ev {
    /// Anchor call that acquires; `Some(v)` when bound to a tracked var.
    Acquire(Option<usize>),
    /// Anchor call that releases; `Some(v)` when it consumes a tracked var.
    Release(Option<usize>, u32),
    /// A tracked var mentioned outside its binding or a release.
    Use(usize, u32),
    /// Rebinding / reassignment: the old handle value is gone.
    Kill(usize),
}

/// A tracked let-bound handle.
struct Var {
    name: String,
    line: u32,
    def_tok: usize,
}

/// The dataflow fact: a saturating `[lo, hi]` balance interval for
/// anonymous acquires plus a may-state bitmask per tracked var.
#[derive(Debug, Clone, PartialEq)]
struct Fact {
    lo: i8,
    hi: i8,
    vars: Vec<u8>,
}

impl Fact {
    fn apply(&mut self, ev: &Ev) {
        match ev {
            Ev::Acquire(None) => {
                self.lo = sat(i16::from(self.lo) + 1);
                self.hi = sat(i16::from(self.hi) + 1);
            }
            Ev::Acquire(Some(v)) => self.vars[*v] = HELD,
            Ev::Release(None, _) => {
                self.lo = sat(i16::from(self.lo) - 1);
                self.hi = sat(i16::from(self.hi) - 1);
            }
            Ev::Release(Some(v), _) => self.vars[*v] = RELEASED,
            Ev::Use(..) => {}
            Ev::Kill(v) => self.vars[*v] = 0,
        }
    }

    fn holds_anything(&self) -> bool {
        self.hi > 0 || self.vars.iter().any(|s| s & HELD != 0)
    }
}

fn sat(x: i16) -> i8 {
    x.clamp(i16::from(-CAP), i16::from(CAP)) as i8
}

struct ResFlow<'a> {
    events: &'a [Vec<Ev>],
    nvars: usize,
}

impl Analysis for ResFlow<'_> {
    type Fact = Fact;

    fn entry(&self) -> Fact {
        Fact {
            lo: 0,
            hi: 0,
            vars: vec![0; self.nvars],
        }
    }

    fn transfer(&self, block: usize, fact: &mut Fact) {
        for ev in &self.events[block] {
            fact.apply(ev);
        }
    }

    fn join(&self, into: &mut Fact, from: &Fact) -> bool {
        let mut changed = false;
        let lo = into.lo.min(from.lo);
        let hi = into.hi.max(from.hi);
        if lo != into.lo || hi != into.hi {
            into.lo = lo;
            into.hi = hi;
            changed = true;
        }
        for (a, b) in into.vars.iter_mut().zip(&from.vars) {
            let merged = *a | *b;
            if merged != *a {
                *a = merged;
                changed = true;
            }
        }
        changed
    }
}

/// Analyze one resource kind in one function. Returns whether any exit
/// path holds a resource (feeds the `stale-ok` dual check).
#[allow(clippy::too_many_arguments)]
fn check_kind(
    ws: &Workspace,
    f: &FnDef,
    graph: &Cfg,
    toks: &[Tok],
    body: (usize, usize),
    kind: &str,
    edges: &[crate::callgraph::CallEdge],
    anchors: &BTreeMap<usize, Vec<(String, bool)>>,
    transfer_ok: bool,
    out: &mut Vec<Diagnostic>,
) -> bool {
    // 1. Anchor sites of this kind, deduplicated by call token (method
    //    fan-out can resolve one site to several marked candidates).
    let mut sites: BTreeMap<usize, bool> = BTreeMap::new(); // name_tok -> acquire?
    for e in edges {
        let Some(marks) = anchors.get(&e.callee) else {
            continue;
        };
        for (k, acq) in marks {
            if k == kind {
                // An acquire mark wins over a same-site release mark:
                // over-approximating toward "held" is the safe direction.
                let slot = sites.entry(e.tok).or_insert(*acq);
                *slot |= *acq;
            }
        }
    }
    if sites.is_empty() {
        return false;
    }

    // 2. Tracked vars: acquires bound by a plain `let`.
    let mut vars: Vec<Var> = Vec::new();
    let var_id = |name: String, line: u32, def_tok: usize, vars: &mut Vec<Var>| -> usize {
        if let Some(v) = vars.iter().position(|v| v.name == name) {
            v
        } else {
            vars.push(Var {
                name,
                line,
                def_tok,
            });
            vars.len() - 1
        }
    };
    let mut events: BTreeMap<usize, Vec<Ev>> = BTreeMap::new();
    let mut release_arg_ranges: Vec<(usize, usize, usize)> = Vec::new(); // (open, close, event_tok)
    for (&name_tok, &acquire) in &sites {
        let (eff, args) = effective_site(toks, name_tok);
        if acquire {
            // `let _ = acquire()` and destructuring lets bind no name:
            // the acquire stays anonymous (counter mode).
            let bound = f.let_around(name_tok).and_then(|b| {
                let name = b.name.clone()?;
                Some(var_id(name, toks[name_tok].line, b.name_tok, &mut vars))
            });
            events.entry(eff).or_default().push(Ev::Acquire(bound));
        } else {
            if let Some((a, b)) = args {
                release_arg_ranges.push((a, b, eff));
            }
            events
                .entry(eff)
                .or_default()
                .push(Ev::Release(None, toks[name_tok].line));
        }
    }

    // 3. Uses / kills / release-arg resolution for tracked vars.
    let inner = (body.0 + 1, body.1.saturating_sub(1));
    for (t_idx, t) in toks
        .iter()
        .enumerate()
        .take(inner.1.min(toks.len()))
        .skip(inner.0)
    {
        if t.kind != TokKind::Ident || is_keyword(&t.text) {
            continue;
        }
        let Some(v) = vars.iter().position(|v| v.name == t.text) else {
            continue;
        };
        if vars[v].def_tok == t_idx {
            continue;
        }
        let prev = t_idx.checked_sub(1).map(|p| toks[p].text.as_str());
        if prev == Some(".") {
            continue; // field/method of some other receiver
        }
        // Inside a release anchor's argument list: that release consumes
        // this var rather than merely using it.
        if let Some(&(_, _, ev_tok)) = release_arg_ranges
            .iter()
            .find(|(a, b, _)| *a < t_idx && t_idx < *b)
        {
            if let Some(evs) = events.get_mut(&ev_tok) {
                for ev in evs.iter_mut() {
                    if let Ev::Release(slot @ None, _) = ev {
                        *slot = Some(v);
                    }
                }
            }
            continue;
        }
        let rebind = f.bindings.iter().any(|b| b.is_let && b.name_tok == t_idx);
        let assign = toks.get(t_idx + 1).is_some_and(|n| n.is("="));
        if rebind || assign {
            events.entry(t_idx).or_default().push(Ev::Kill(v));
        } else {
            events.entry(t_idx).or_default().push(Ev::Use(v, t.line));
        }
    }

    // 4. Per-block ordered event lists.
    let mut block_events: Vec<Vec<Ev>> = vec![Vec::new(); graph.blocks.len()];
    for (b, blk) in graph.blocks.iter().enumerate() {
        for &(a, e) in &blk.segs {
            for (_, evs) in events.range(a..e) {
                block_events[b].extend(evs.iter().cloned());
            }
        }
    }

    // 5. Solve, then re-walk reachable blocks to report.
    let flow = ResFlow {
        events: &block_events,
        nvars: vars.len(),
    };
    let facts = dataflow::solve(graph, &flow);
    let mut holding = false;
    let mut seen: BTreeSet<(u32, String)> = BTreeSet::new();
    for (b, entry) in facts.iter().enumerate() {
        let Some(entry) = entry else { continue };
        let mut fact = entry.clone();
        for ev in &block_events[b] {
            match ev {
                Ev::Release(Some(v), line)
                    if fact.vars[*v] == RELEASED && seen.insert((*line, format!("dr:{v}"))) =>
                {
                    out.push(diag(
                        ws,
                        f,
                        "resource.double-release",
                        *line,
                        format!(
                            "`{}` ({kind}) is already released on every path reaching \
                             this second release",
                            vars[*v].name
                        ),
                        vec![format!(
                            "first acquired at line {}; a handle is spent by its release",
                            vars[*v].line
                        )],
                    ));
                }
                Ev::Use(v, line)
                    if fact.vars[*v] == RELEASED && seen.insert((*line, format!("ua:{v}"))) =>
                {
                    out.push(diag(
                        ws,
                        f,
                        "resource.use-after-release",
                        *line,
                        format!(
                            "`{}` ({kind}) is used after every path reaching here \
                             released it",
                            vars[*v].name
                        ),
                        vec![format!("acquired at line {}", vars[*v].line)],
                    ));
                }
                _ => {}
            }
            fact.apply(ev);
        }
        for e in graph.exit_edges(b) {
            if transfer_ok {
                holding |= fact.holds_anything();
                continue;
            }
            for (v, state) in fact.vars.iter().enumerate() {
                if state & HELD != 0 && seen.insert((e.line, format!("lk:{v}"))) {
                    out.push(diag(
                        ws,
                        f,
                        "resource.leak",
                        e.line,
                        format!(
                            "`{}` ({kind}) acquired at line {} may still be held at this exit",
                            vars[v].name, vars[v].line
                        ),
                        vec![
                            "release it on every path, or mark a reviewed ownership handoff \
                             with #[cfg_attr(lint, tcc_transfer_ok)]"
                                .to_string(),
                        ],
                    ));
                }
            }
            if fact.hi > 0 && seen.insert((e.line, "lk:#".to_string())) {
                out.push(diag(
                    ws,
                    f,
                    "resource.leak",
                    e.line,
                    format!(
                        "unbalanced `{kind}` acquires: the balance may reach {} at this exit",
                        fact.hi
                    ),
                    vec![
                        "pair every acquire with a release on this path, or mark a reviewed \
                         ownership handoff with #[cfg_attr(lint, tcc_transfer_ok)]"
                            .to_string(),
                    ],
                ));
            }
        }
    }
    holding
}

/// Where an anchor call's event takes effect, plus its argument range.
///
/// `consume(&pkt)?` commits nothing on the error path — the event is
/// shifted past the `?`, landing in the success-path block the CFG
/// split off.
fn effective_site(toks: &[Tok], name_tok: usize) -> (usize, Option<(usize, usize)>) {
    let j = args_open(toks, name_tok);
    if !toks.get(j).is_some_and(|t| t.is("(")) {
        return (name_tok, None);
    }
    let close = skip_balanced(toks, j, "(", ")");
    if toks.get(close).is_some_and(|t| t.is("?")) {
        (
            (close + 1).min(toks.len().saturating_sub(1)),
            Some((j, close - 1)),
        )
    } else {
        (name_tok, Some((j, close - 1)))
    }
}

/// Arguments of `#[cfg_attr(lint, marker(a, b, ...))]` on `f`, in order.
pub fn marker_args(f: &FnDef, marker: &str) -> Vec<String> {
    let mut out = Vec::new();
    for a in &f.attrs {
        let parts: Vec<&str> = a.split_whitespace().collect();
        for (i, p) in parts.iter().enumerate() {
            if *p != marker || parts.get(i + 1) != Some(&"(") {
                continue;
            }
            for q in &parts[i + 2..] {
                match *q {
                    ")" => break,
                    "," => {}
                    id => out.push((*id).to_string()),
                }
            }
        }
    }
    out
}

fn diag(
    ws: &Workspace,
    f: &FnDef,
    code: &str,
    line: u32,
    message: String,
    notes: Vec<String>,
) -> Diagnostic {
    Diagnostic {
        pass: "linear-resource",
        code: code.to_string(),
        file: ws.file(f).path.clone(),
        line,
        function: f.display_name(),
        message,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(src: &str) -> Vec<Diagnostic> {
        run(&Workspace::from_sources(&[("fix.rs", src)]))
    }

    const ANCHORS: &str = "
        pub struct Pool { n: u32 }
        impl Pool {
            #[cfg_attr(lint, tcc_acquires(credit))]
            pub fn consume(&mut self) -> Result<(), ()> { self.n -= 1; Ok(()) }
            #[cfg_attr(lint, tcc_releases(credit))]
            pub fn release(&mut self) { self.n += 1; }
        }
    ";

    #[test]
    fn early_return_leak_is_flagged_on_the_exit_line_only() {
        let src = format!(
            "{ANCHORS}
            #[cfg_attr(lint, tcc_linear(credit))]
            fn leaky(p: &mut Pool, early: bool) -> Result<(), ()> {{
                p.consume()?;
                if early {{
                    return Err(());
                }}
                p.release();
                Ok(())
            }}"
        );
        let d = diags(&src);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].code, "resource.leak");
        // Anchored to the early return, not the balanced tail exit.
        assert!(d[0].message.contains("credit"));
    }

    #[test]
    fn question_mark_on_the_acquire_itself_is_not_a_leak() {
        let src = format!(
            "{ANCHORS}
            #[cfg_attr(lint, tcc_linear(credit))]
            fn guarded(p: &mut Pool) -> Result<(), ()> {{
                p.consume()?;
                p.release();
                Ok(())
            }}"
        );
        let d = diags(&src);
        assert!(d.is_empty(), "{d:#?}");
    }

    #[test]
    fn loop_leak_widens_and_reports() {
        let src = format!(
            "{ANCHORS}
            #[cfg_attr(lint, tcc_linear(credit))]
            fn pump(p: &mut Pool, n: u32) {{
                for _ in 0..n {{
                    let _ = p.consume();
                }}
            }}"
        );
        let d = diags(&src);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].code, "resource.leak");
    }

    #[test]
    fn transfer_ok_excuses_handoffs_and_stale_ok_keeps_it_honest() {
        let handoff = format!(
            "{ANCHORS}
            #[cfg_attr(lint, tcc_linear(credit), tcc_transfer_ok)]
            fn send(p: &mut Pool) {{
                let _ = p.consume();
            }}"
        );
        assert!(diags(&handoff).is_empty());

        let stale = format!(
            "{ANCHORS}
            #[cfg_attr(lint, tcc_linear(credit), tcc_transfer_ok)]
            fn balanced(p: &mut Pool) {{
                let _ = p.consume();
                p.release();
            }}"
        );
        let d = diags(&stale);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].code, "resource.stale-ok");
    }

    #[test]
    fn var_tracking_catches_double_release_and_use_after_release() {
        let src = "
            pub struct Slab { slots: Vec<u32> }
            impl Slab {
                #[cfg_attr(lint, tcc_acquires(slab_handle))]
                pub fn park(&mut self, x: u32) -> u32 { self.slots.push(x); 0 }
                #[cfg_attr(lint, tcc_releases(slab_handle))]
                pub fn take(&mut self, h: u32) -> u32 { self.slots[h as usize] }
            }
            #[cfg_attr(lint, tcc_linear(slab_handle))]
            fn double(a: &mut Slab) {
                let h = a.park(7);
                a.take(h);
                a.take(h);
            }
            #[cfg_attr(lint, tcc_linear(slab_handle))]
            fn stale_use(a: &mut Slab) -> u32 {
                let h = a.park(9);
                let v = a.take(h);
                v + h
            }
        ";
        let d = diags(src);
        let codes: Vec<&str> = d.iter().map(|d| d.code.as_str()).collect();
        assert!(codes.contains(&"resource.double-release"), "{d:#?}");
        assert!(codes.contains(&"resource.use-after-release"), "{d:#?}");
        assert!(!codes.contains(&"resource.leak"), "{d:#?}");
    }

    #[test]
    fn anchor_markers_parse_with_multiple_kinds() {
        let ws = Workspace::from_sources(&[(
            "fix.rs",
            "#[cfg_attr(lint, tcc_linear(credit, srctag))] fn f() {}",
        )]);
        assert_eq!(marker_args(&ws.fns[0], "tcc_linear"), ["credit", "srctag"]);
        assert!(marker_args(&ws.fns[0], "tcc_acquires").is_empty());
    }
}
