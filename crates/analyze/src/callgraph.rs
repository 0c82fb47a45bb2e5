//! The shared interprocedural engine.
//!
//! Before this module existed, `alloc.rs` and `locks.rs` each built their
//! own name index, resolved their own call sites and ran their own ad-hoc
//! reachability loop. Four passes half-reimplementing one call graph is
//! how the epoch-phase and panic-freedom passes would have doubled that
//! again, so the machinery lives here once:
//!
//! * [`CallGraph::build`] — one pass over every live (non-test, has-body)
//!   function: its raw [`CallSite`]s in body token order plus the resolved
//!   intra-workspace [`CallEdge`]s. Resolution is the same deliberate
//!   may-analysis the alloc pass shipped with: method names fan out to
//!   every workspace method of that name the caller's crate can import,
//!   except that `self.m()` inside `impl T` is `T::m` alone when `T`
//!   defines `m`; `Type::name` paths stay precise, externals resolve to
//!   nothing.
//! * [`CallGraph::propagate`] — generic backward fixpoint: callee
//!   summaries are joined into callers until nothing changes. The lock
//!   pass instantiates it with may-acquire sets, the phase pass with
//!   phase-rank bitmasks.
//! * [`CallGraph::find_path`] — forward BFS from a root to the first
//!   function satisfying a predicate, expanding only through functions a
//!   pass-supplied `enter` predicate admits (escape hatches like
//!   `tcc_alloc_ok` / `tcc_panic_ok` are boundaries, not edges). Returns
//!   the call chain for the diagnostic note.
//! * [`receiver_chain`] — the normalised receiver spelling (`self.`
//!   stripped, indices abstracted to `[_]`, argument lists to `(_)`) that
//!   the lock pass uses as a lock identity and the phase pass uses to
//!   tell `BatchRing::take` receivers from `Option::take` ones.

use crate::lexer::{Tok, TokKind};
use crate::parse::{call_sites, group_start, is_keyword, CallKind, CallSite, FnDef};
use crate::Workspace;
use std::collections::{HashMap, VecDeque};

/// One resolved intra-workspace call: `callee` indexes `ws.fns`.
#[derive(Debug, Clone, Copy)]
pub struct CallEdge {
    pub callee: usize,
    /// Line of the call site (for diagnostics).
    pub line: u32,
    /// Token index of the callee name (for ordering against other sites
    /// in the same body — exact, unlike the line-based anchoring the lock
    /// pass used before).
    pub tok: usize,
}

/// The workspace call graph, indexed parallel to `ws.fns`.
#[derive(Debug)]
pub struct CallGraph {
    /// Functions in the graph's domain: non-test, with a body. Exempt
    /// crates are *included* (the lock pass wants them); passes that do
    /// not apply there filter with their own predicates.
    pub live: Vec<usize>,
    /// Raw call sites per function, in body token order. Empty for
    /// functions outside `live`.
    pub sites: Vec<Vec<CallSite>>,
    /// Resolved workspace-internal edges per function, in site order.
    /// Self-edges are dropped (they never change reachability).
    pub edges: Vec<Vec<CallEdge>>,
}

impl CallGraph {
    /// Build the graph once; every pass shares it.
    pub fn build(ws: &Workspace) -> CallGraph {
        let live: Vec<usize> = (0..ws.fns.len())
            .filter(|&i| ws.fns[i].body.is_some() && !ws.fns[i].is_test)
            .collect();
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut by_qual_name: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        for &i in &live {
            let f = &ws.fns[i];
            by_name.entry(f.name.as_str()).or_default().push(i);
            if let Some(q) = &f.qual {
                by_qual_name
                    .entry((q.as_str(), f.name.as_str()))
                    .or_default()
                    .push(i);
            }
        }
        let mut sites: Vec<Vec<CallSite>> = (0..ws.fns.len()).map(|_| Vec::new()).collect();
        let mut edges: Vec<Vec<CallEdge>> = (0..ws.fns.len()).map(|_| Vec::new()).collect();
        for &i in &live {
            let f = &ws.fns[i];
            let toks = &ws.file(f).toks;
            let body = f.body.expect("live fns have bodies");
            let ss = call_sites(toks, body);
            for c in &ss {
                // `self.m()`: the receiver token sits just before the `.`.
                let on_self =
                    c.kind == CallKind::Method && c.tok >= 2 && toks[c.tok - 2].is("self");
                for succ in resolve(ws, f, on_self, c, &by_name, &by_qual_name) {
                    if succ != i {
                        edges[i].push(CallEdge {
                            callee: succ,
                            line: c.line,
                            tok: c.tok,
                        });
                    }
                }
            }
            sites[i] = ss;
        }
        CallGraph { live, sites, edges }
    }

    /// Backward fixpoint: for every edge `caller -> callee` whose callee
    /// `enter` admits, `join(caller_summary, callee_summary)` until no
    /// join reports a change. `join` must be monotone (only ever grow the
    /// summary) or this will not terminate.
    pub fn propagate<S>(
        &self,
        summaries: &mut [S],
        enter: impl Fn(usize) -> bool,
        join: impl Fn(&mut S, &S) -> bool,
    ) {
        loop {
            let mut changed = false;
            for &i in &self.live {
                for e in &self.edges[i] {
                    if !enter(e.callee) {
                        continue;
                    }
                    let (caller, callee) = index_pair(summaries, i, e.callee);
                    changed |= join(caller, callee);
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// BFS from `root` to the first function satisfying `target`,
    /// expanding only functions `enter` admits (the root included).
    /// Returns the chain `root .. target` of function indices, or `None`
    /// when no admitted path reaches a target.
    pub fn find_path(
        &self,
        root: usize,
        target: impl Fn(usize) -> bool,
        enter: impl Fn(usize) -> bool,
    ) -> Option<Vec<usize>> {
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut seen = vec![root];
        let mut q = VecDeque::from([root]);
        while let Some(n) = q.pop_front() {
            if target(n) {
                let mut chain = vec![n];
                let mut cur = n;
                while let Some(&p) = parent.get(&cur) {
                    chain.push(p);
                    cur = p;
                }
                chain.reverse();
                return Some(chain);
            }
            if !enter(n) {
                continue;
            }
            for e in &self.edges[n] {
                if !seen.contains(&e.callee) {
                    seen.push(e.callee);
                    parent.insert(e.callee, n);
                    q.push_back(e.callee);
                }
            }
        }
        None
    }
}

/// Disjoint `(&mut a, &b)` views into one slice. `a != b` is a caller
/// invariant (the graph drops self-edges).
fn index_pair<T>(s: &mut [T], a: usize, b: usize) -> (&mut T, &T) {
    if a < b {
        let (lo, hi) = s.split_at_mut(b);
        (&mut lo[a], &hi[0])
    } else {
        let (lo, hi) = s.split_at_mut(a);
        (&mut hi[0], &lo[b])
    }
}

/// Resolve a call site to candidate workspace functions (may-analysis:
/// over-approximate on ambiguity, empty for externals). Candidates in
/// crates the caller's crate cannot import are discarded — a name match
/// across an absent dependency edge is a collision, not a call.
///
/// A method call on `self` (`on_self`) inside `impl T` goes to `T`'s own
/// `m` when `T` defines one: Rust picks it over any other method of that
/// name. Inside a trait body `self` may be any implementor, so a default
/// method's `self.m()` still fans out.
fn resolve(
    ws: &Workspace,
    caller: &FnDef,
    on_self: bool,
    c: &CallSite,
    by_name: &HashMap<&str, Vec<usize>>,
    by_qual_name: &HashMap<(&str, &str), Vec<usize>>,
) -> Vec<usize> {
    let caller_crate = &ws.file(caller).crate_name;
    let caller_qual = caller.qual.as_deref();
    let importable = |i: &usize| ws.visible(caller_crate, &ws.files[ws.fns[*i].file].crate_name);
    // `Self::m`, and `self.m()` outside trait bodies: the caller's own impl.
    let own = || -> Vec<usize> {
        caller_qual
            .and_then(|q| by_qual_name.get(&(q, c.name.as_str())))
            .map(|v| v.iter().copied().filter(|i| importable(i)).collect())
            .unwrap_or_default()
    };
    match c.kind {
        CallKind::Macro => Vec::new(),
        CallKind::Method => {
            let mine = if on_self && !caller.in_trait {
                own()
            } else {
                Vec::new()
            };
            if !mine.is_empty() {
                return mine;
            }
            by_name
                .get(c.name.as_str())
                .map(|v| {
                    v.iter()
                        .copied()
                        .filter(|i| ws.fns[*i].qual.is_some() && importable(i))
                        .collect()
                })
                .unwrap_or_default()
        }
        CallKind::Path => match c.qual.as_deref() {
            Some("Self") => own(),
            Some(q) => {
                if let Some(v) = by_qual_name.get(&(q, c.name.as_str())) {
                    v.iter().copied().filter(|i| importable(i)).collect()
                } else if q.starts_with(char::is_lowercase) {
                    // Module path (`channel::serialization_ps`): free fns.
                    by_name
                        .get(c.name.as_str())
                        .map(|v| {
                            v.iter()
                                .copied()
                                .filter(|i| ws.fns[*i].qual.is_none() && importable(i))
                                .collect()
                        })
                        .unwrap_or_default()
                } else {
                    Vec::new() // external type (Vec, Bytes, ...)
                }
            }
            None => by_name
                .get(c.name.as_str())
                .map(|v| {
                    v.iter()
                        .copied()
                        .filter(|i| ws.fns[*i].qual.is_none() && importable(i))
                        .collect()
                })
                .unwrap_or_default(),
        },
    }
}

/// Normalised receiver chain of a method call: walk backwards from the
/// method name through `expr.field`, `expr[idx]` and `expr(args)` links,
/// abstracting indices to `[_]`, argument lists to `(_)` and stripping a
/// leading `self.` — so `self.inboxes[dst].0.lock()` and
/// `self.inboxes[src].0.lock()` share the spelling `inboxes[_].0`.
pub fn receiver_chain(toks: &[Tok], call_tok: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    // toks[call_tok] is the method name; toks[call_tok - 1] is `.`.
    let mut k = call_tok as isize - 2;
    while k >= 0 {
        let t = &toks[k as usize];
        match t.text.as_str() {
            "]" | ")" => {
                let (open, close, abs) = if t.text == "]" {
                    ("[", "]", "[_]")
                } else {
                    ("(", ")", "(_)")
                };
                k = group_start(toks, k as usize, open, close) as isize;
                parts.push(abs.to_string());
                k -= 1;
            }
            _ if (t.kind == TokKind::Ident && !is_keyword(&t.text) || t.text == "self")
                || t.kind == TokKind::Lit =>
            {
                parts.push(t.text.clone());
                if k >= 1 && toks[(k - 1) as usize].is(".") {
                    k -= 2;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    parts.reverse();
    if parts.first().is_some_and(|p| p == "self") {
        parts.remove(0);
    }
    let mut s = String::new();
    for p in &parts {
        if p == "[_]" || p == "(_)" {
            s.push_str(p);
        } else {
            if !s.is_empty() {
                s.push('.');
            }
            s.push_str(p);
        }
    }
    if s.is_empty() {
        s.push_str("<expr>");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::from_sources(&[("fix.rs", src)])
    }

    fn idx(ws: &Workspace, name: &str) -> usize {
        ws.fns.iter().position(|f| f.name == name).expect(name)
    }

    #[test]
    fn edges_resolve_methods_paths_and_skip_externals() {
        let w = ws("
            struct S;
            impl S {
                fn a(&self) { self.b(); helper(); Vec::new(); }
                fn b(&self) {}
            }
            fn helper() {}
        ");
        let cg = CallGraph::build(&w);
        let a = idx(&w, "a");
        let callees: Vec<&str> = cg.edges[a]
            .iter()
            .map(|e| w.fns[e.callee].name.as_str())
            .collect();
        assert_eq!(callees, ["b", "helper"], "Vec::new is external");
    }

    #[test]
    fn self_calls_in_a_trait_body_still_fan_out() {
        let w = ws("
            trait Step {
                fn run(&self) { self.step(); }
                fn step(&self) {}
            }
            impl Step for A { fn step(&self) {} }
        ");
        let cg = CallGraph::build(&w);
        let run = idx(&w, "run");
        let callees: Vec<String> = cg.edges[run]
            .iter()
            .map(|e| w.fns[e.callee].display_name())
            .collect();
        assert_eq!(
            callees,
            ["Step::step", "A::step"],
            "any implementor may be self"
        );
    }

    #[test]
    fn propagate_reaches_a_fixpoint_over_chains() {
        let w = ws("
            fn a() { b(); }
            fn b() { c(); }
            fn c() {}
        ");
        let cg = CallGraph::build(&w);
        // Summary: set of reachable function names, seeded with self.
        let mut sums: Vec<std::collections::BTreeSet<String>> = w
            .fns
            .iter()
            .map(|f| std::collections::BTreeSet::from([f.name.clone()]))
            .collect();
        cg.propagate(
            &mut sums,
            |_| true,
            |a, b| {
                let before = a.len();
                a.extend(b.iter().cloned());
                a.len() != before
            },
        );
        let a = idx(&w, "a");
        assert!(sums[a].contains("c"), "{:?}", sums[a]);
    }

    #[test]
    fn find_path_respects_the_enter_boundary() {
        let w = ws("
            fn root() { stop(); }
            fn stop() { bad(); }
            fn bad() {}
        ");
        let cg = CallGraph::build(&w);
        let (root, stop, bad) = (idx(&w, "root"), idx(&w, "stop"), idx(&w, "bad"));
        let hit = cg.find_path(root, |n| n == bad, |_| true);
        assert_eq!(hit, Some(vec![root, stop, bad]));
        let blocked = cg.find_path(root, |n| n == bad, |n| n != stop);
        assert_eq!(blocked, None, "boundary fns are not expanded");
    }

    #[test]
    fn receiver_chain_normalises_index_and_self() {
        let f = crate::parse::SourceFile::new(
            "t.rs".into(),
            "fixture".into(),
            "fn f(&self) { self.inboxes[dst].0.lock(); }",
        );
        let lock = f.toks.iter().position(|t| t.text == "lock").unwrap();
        assert_eq!(receiver_chain(&f.toks, lock), "inboxes[_].0");
    }
}
