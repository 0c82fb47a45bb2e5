//! Pass 3 — lock-order / deadlock detection.
//!
//! The sharded PDES engine hands cross-shard events over through
//! `BatchRing`s, whose slots are `Mutex`-guarded batches; an earlier
//! coherent crossbar deadlocked ≥4×4 meshes precisely because a sender
//! held its local port lock while acquiring the peer's. This pass makes
//! that class of bug a lint failure instead of a hung simulation:
//!
//! 1. Every `.lock()` / `.try_lock()` call in scope is extracted and given
//!    a *lock identity*: the normalised receiver chain (`self.` stripped,
//!    index expressions abstracted to `[_]`, call arguments to `(_)`), so
//!    `self.inboxes[dst].0.lock()` and `self.inboxes[src].0.lock()` are
//!    the same lock *class* `inboxes[_].0`.
//! 2. A guard's *hold range* is computed: a let-bound guard lives to the
//!    end of its enclosing block (or an explicit `drop(guard)`); a
//!    temporary (`x.lock().unwrap().push(..)`) lives to the end of its
//!    statement.
//! 3. Acquisitions inside a hold range add may-hold-while-acquiring
//!    edges; calls inside a hold range add edges to everything the callee
//!    may transitively acquire (the shared engine's fixpoint over the
//!    workspace call graph — [`crate::callgraph::CallGraph::propagate`]).
//! 4. Any cycle in the resulting graph — including a self-edge, i.e. two
//!    locks of the same class nested — is reported as `lock.cycle`.
//!
//! Two instances of one lock class acquired in a nested fashion count as
//! a cycle on purpose: without a global order between instances (shard
//! ids, port sides) that shape deadlocks exactly like an A/B-B/A pair.
//!
//! In production runs the scope is the concurrent core — `crates/core/
//! src/engine.rs`, `crates/fabric/` and the batch ring in
//! `crates/msglib/src/handoff.rs`; fixture workspaces are scanned whole.
//! The pass also counts the in-scope lock sites it saw: a count of zero
//! means the scope no longer covers the code that takes locks, and the
//! clean verdict is vacuous (`cargo xtask lint` fails on it).

use crate::callgraph::{receiver_chain, CallGraph};
use crate::lexer::Tok;
use crate::parse::{expr_end, CallKind, FnDef};
use crate::report::Diagnostic;
use crate::Workspace;
use std::collections::{BTreeMap, BTreeSet, HashMap};

const LOCK_METHODS: &[&str] = &["lock", "try_lock"];

/// One lock acquisition with its computed hold range.
struct Acq {
    id: String,
    /// Token index of the `lock` name.
    tok: usize,
    line: u32,
    /// Exclusive token bound while the guard may still be held.
    hold_end: usize,
}

/// Provenance of one may-hold-while-acquiring edge.
#[derive(Clone)]
struct Edge {
    file: String,
    line: u32,
    detail: String,
}

pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    run_with_stats(ws, &CallGraph::build(ws)).0
}

/// Run the pass and also report how many in-scope `.lock()` /
/// `.try_lock()` sites it built the graph from — the xtask guard uses the
/// count to detect the pass going blind.
pub fn run_with_stats(ws: &Workspace, cg: &CallGraph) -> (Vec<Diagnostic>, usize) {
    // Direct acquisitions + transitive may-acquire summaries (workspace
    // wide: a helper called from the engine still counts).
    let mut acqs: HashMap<usize, Vec<Acq>> = HashMap::new();
    let mut may: Vec<BTreeSet<String>> = vec![BTreeSet::new(); ws.fns.len()];
    for &i in &cg.live {
        let f = &ws.fns[i];
        let toks = &ws.file(f).toks;
        let mut here = Vec::new();
        for c in &cg.sites[i] {
            if c.kind == CallKind::Method && LOCK_METHODS.contains(&c.name.as_str()) {
                here.push(Acq {
                    id: receiver_chain(toks, c.tok),
                    tok: c.tok,
                    line: c.line,
                    hold_end: hold_end(f, toks, c.tok),
                });
            }
        }
        may[i] = here.iter().map(|a| a.id.clone()).collect();
        acqs.insert(i, here);
    }
    // Fixpoint: what may each function transitively acquire?
    cg.propagate(
        &mut may,
        |_| true,
        |caller, callee| {
            let before = caller.len();
            caller.extend(callee.iter().cloned());
            caller.len() != before
        },
    );

    // Build the may-hold-while-acquiring graph from in-scope functions.
    let mut graph: BTreeMap<String, BTreeMap<String, Edge>> = BTreeMap::new();
    let mut sites_in_scope = 0usize;
    for &i in &cg.live {
        let f = &ws.fns[i];
        if !in_scope(ws, &ws.file(f).path) {
            continue;
        }
        let file = ws.file(f).path.clone();
        let held = &acqs[&i];
        sites_in_scope += held.len();
        for a in held {
            for b in held {
                if b.tok > a.tok && b.tok < a.hold_end {
                    graph
                        .entry(a.id.clone())
                        .or_default()
                        .entry(b.id.clone())
                        .or_insert_with(|| Edge {
                            file: file.clone(),
                            line: b.line,
                            detail: format!(
                                "`{}` acquires `{}` at {}:{} while holding `{}` (acquired line {})",
                                f.display_name(),
                                b.id,
                                file,
                                b.line,
                                a.id,
                                a.line
                            ),
                        });
                }
            }
            for e in &cg.edges[i] {
                // The call must sit inside the hold range (exact: the
                // shared graph records the call's token index).
                if e.tok <= a.tok || e.tok >= a.hold_end {
                    continue;
                }
                for lk in &may[e.callee] {
                    graph
                        .entry(a.id.clone())
                        .or_default()
                        .entry(lk.clone())
                        .or_insert_with(|| Edge {
                            file: file.clone(),
                            line: e.line,
                            detail: format!(
                                "`{}` calls `{}` at {}:{} while holding `{}`; the callee may acquire `{}`",
                                f.display_name(),
                                ws.fns[e.callee].display_name(),
                                file,
                                e.line,
                                a.id,
                                lk
                            ),
                        });
                }
            }
        }
    }

    // Cycle detection: for each edge a -> b, is a reachable from b?
    let mut out = Vec::new();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for (a, succs) in &graph {
        for b in succs.keys() {
            let Some(path) = reach(&graph, b, a) else {
                continue;
            };
            // Cycle is a -> b -> ... -> a.
            let mut cycle = vec![a.clone()];
            cycle.extend(path);
            let mut canon = cycle.clone();
            canon.sort();
            canon.dedup();
            if !reported.insert(canon) {
                continue;
            }
            let edge = &succs[b];
            let mut notes: Vec<String> = Vec::new();
            for w in cycle.windows(2) {
                if let Some(e) = graph.get(&w[0]).and_then(|s| s.get(&w[1])) {
                    notes.push(e.detail.clone());
                }
            }
            notes.push(
                "impose a global acquisition order (or release before acquiring) \
                 to break the cycle"
                    .to_string(),
            );
            out.push(Diagnostic {
                pass: "lock-order",
                code: "lock.cycle".to_string(),
                file: edge.file.clone(),
                line: edge.line,
                function: String::new(),
                message: format!("lock-order cycle: {}", cycle.join(" -> ")),
                notes,
            });
        }
    }
    (out, sites_in_scope)
}

fn in_scope(ws: &Workspace, path: &str) -> bool {
    ws.synthetic
        || path == "crates/core/src/engine.rs"
        || path == "crates/msglib/src/handoff.rs"
        || path.starts_with("crates/fabric/src/")
}

/// Shortest path from `from` to `to` in the identity graph (BFS),
/// returned as the node list `from.. -> to` — or `None`. A self-edge is
/// the `from == to` case with an explicit edge, handled by the caller
/// having found `to` among `from`'s successors.
fn reach(
    graph: &BTreeMap<String, BTreeMap<String, Edge>>,
    from: &str,
    to: &str,
) -> Option<Vec<String>> {
    if from == to {
        return Some(vec![to.to_string()]);
    }
    let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(n) = queue.pop_front() {
        for s in graph.get(n).map(|m| m.keys()).into_iter().flatten() {
            if s == to {
                let mut path = vec![to.to_string(), n.to_string()];
                let mut cur = n;
                while let Some(&p) = parent.get(cur) {
                    path.push(p.to_string());
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            if !parent.contains_key(s.as_str()) && s != from {
                parent.insert(s, n);
                queue.push_back(s);
            }
        }
    }
    None
}

/// How long may the guard produced at `lock_tok` be held?
fn hold_end(f: &FnDef, toks: &[Tok], lock_tok: usize) -> usize {
    let bend = f.body.expect("live fns have bodies").1;
    let Some(binding) = f.let_around(lock_tok) else {
        // Temporary guard: dies at the end of the statement (or of the
        // enclosing argument list, whichever closes first).
        return expr_end(toks, lock_tok + 1, bend, false);
    };
    // Let-bound guard: held to the end of the enclosing block, or to an
    // explicit `drop(guard)`.
    let guard = binding.name.as_deref();
    let mut depth = 0i32;
    for k in lock_tok + 1..bend {
        match toks[k].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    return k;
                }
            }
            "drop"
                if toks.get(k + 1).is_some_and(|t| t.is("("))
                    && guard.is_some()
                    && toks.get(k + 2).map(|t| t.text.as_str()) == guard
                    && toks.get(k + 3).is_some_and(|t| t.is(")")) =>
            {
                return k;
            }
            _ => {}
        }
    }
    bend
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(src: &str) -> Vec<Diagnostic> {
        run(&Workspace::from_sources(&[("fix.rs", src)]))
    }

    #[test]
    fn ab_ba_cycle_is_flagged() {
        let d = diags(
            "
            fn forward(a: &Port, b: &Port) {
                let ga = a.east.lock().unwrap();
                let gb = b.west.lock().unwrap();
                drop(gb); drop(ga);
            }
            fn backward(a: &Port, b: &Port) {
                let gb = b.west.lock().unwrap();
                let ga = a.east.lock().unwrap();
                drop(ga); drop(gb);
            }
            ",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, "lock.cycle");
        assert!(d[0].message.contains("east"));
        assert!(d[0].message.contains("west"));
    }

    #[test]
    fn nested_same_class_is_a_self_cycle() {
        let d = diags(
            "
            fn hop(&self, src: usize, dst: usize) {
                let held = self.ports[src].lock().unwrap();
                let peer = self.ports[dst].lock().unwrap();
                drop(peer); drop(held);
            }
            ",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("ports[_]"));
    }

    #[test]
    fn temporary_guard_does_not_hold_across_statements() {
        let d = diags(
            "
            fn f(a: &M, b: &M) {
                a.x.lock().unwrap().push(1);
                b.y.lock().unwrap().push(2);
            }
            fn g(a: &M, b: &M) {
                b.y.lock().unwrap().push(1);
                a.x.lock().unwrap().push(2);
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn drop_releases_before_second_acquire() {
        let d = diags(
            "
            fn f(a: &M, b: &M) {
                let ga = a.x.lock().unwrap();
                drop(ga);
                let gb = b.y.lock().unwrap();
                drop(gb);
            }
            fn g(a: &M, b: &M) {
                let gb = b.y.lock().unwrap();
                drop(gb);
                let ga = a.x.lock().unwrap();
                drop(ga);
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn typed_guard_drop_releases() {
        let d = diags(
            "
            fn f(a: &M, b: &M) {
                let ga: MutexGuard<'_, u32> = a.x.lock().unwrap();
                drop(ga);
                let gb = b.y.lock().unwrap();
                drop(gb);
            }
            fn g(a: &M, b: &M) {
                let gb: MutexGuard<'_, u32> = b.y.lock().unwrap();
                drop(gb);
                let ga = a.x.lock().unwrap();
                drop(ga);
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn interprocedural_cycle_through_helper() {
        let d = diags(
            "
            impl Node {
                fn outer(&self) {
                    let g = self.east.lock().unwrap();
                    self.helper();
                    drop(g);
                }
                fn helper(&self) {
                    let g = self.west.lock().unwrap();
                    self.closer();
                    drop(g);
                }
                fn closer(&self) {
                    let g = self.east.lock().unwrap();
                    drop(g);
                }
            }
            ",
        );
        assert!(!d.is_empty(), "{d:?}");
        assert!(d[0].message.contains("east"));
    }
}
