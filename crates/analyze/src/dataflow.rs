//! Generic forward dataflow over [`crate::cfg`] graphs.
//!
//! This is the intraprocedural counterpart of the shared machinery in
//! [`crate::callgraph`]: one worklist solver every flow-sensitive pass
//! instantiates instead of re-implementing. A pass supplies an
//! [`Analysis`] — the entry fact, a per-block transfer function and a
//! lattice join — and gets back the fact at the *entry* of every block
//! (`None` for blocks no path reaches, e.g. code after a `return`).
//!
//! Two properties the callers rely on:
//!
//! * **Termination.** Facts only ever grow: a block is re-queued only
//!   when joining a predecessor's out-fact changed its entry fact, so as
//!   long as the fact lattice has finite height (the resource pass
//!   saturates its counters for exactly this reason) the loop stops.
//! * **Widening at loop heads.** Edges the CFG marks
//!   [`EdgeKind::Back`] join through
//!   [`Analysis::widen`] instead of [`Analysis::join`], so an analysis
//!   can accelerate convergence across iterations (the default widen *is*
//!   join, which is already finite for saturating lattices).
//!
//! The solver is deterministic: the worklist is seeded with the entry
//! block and drained FIFO, successors pushed in edge order, so two runs
//! over the same CFG produce identical fact tables — a requirement the
//! byte-stable `LINT_report.json` test enforces end to end.

use crate::cfg::{Cfg, EdgeKind};
use std::collections::VecDeque;

/// A forward dataflow problem over one CFG.
pub trait Analysis {
    type Fact: Clone + PartialEq;

    /// The fact holding at function entry.
    fn entry(&self) -> Self::Fact;

    /// Push `fact` through `block` (in-place), visiting the block's
    /// events in segment order.
    fn transfer(&self, block: usize, fact: &mut Self::Fact);

    /// Join `from` into `into` at a merge point; return whether `into`
    /// changed. Must be monotone (only ever grow `into`).
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool;

    /// Join applied across loop back-edges. Defaults to [`join`]; an
    /// analysis over an unbounded lattice overrides this to jump to a
    /// fixed point instead of crawling one iteration at a time.
    ///
    /// [`join`]: Analysis::join
    fn widen(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool {
        self.join(into, from)
    }
}

/// Solve `analysis` over `cfg`; returns the entry fact per block
/// (`None` = unreachable).
pub fn solve<A: Analysis>(cfg: &Cfg, analysis: &A) -> Vec<Option<A::Fact>> {
    let n = cfg.blocks.len();
    let mut facts: Vec<Option<A::Fact>> = vec![None; n];
    facts[cfg.entry] = Some(analysis.entry());
    let mut queued = vec![false; n];
    queued[cfg.entry] = true;
    let mut work = VecDeque::from([cfg.entry]);
    while let Some(b) = work.pop_front() {
        queued[b] = false;
        let mut out = facts[b].clone().expect("queued blocks have facts");
        analysis.transfer(b, &mut out);
        for e in &cfg.blocks[b].succs {
            let changed = match &mut facts[e.to] {
                slot @ None => {
                    *slot = Some(out.clone());
                    true
                }
                Some(f) if e.kind == EdgeKind::Back => analysis.widen(f, &out),
                Some(f) => analysis.join(f, &out),
            };
            if changed && !queued[e.to] {
                queued[e.to] = true;
                work.push_back(e.to);
            }
        }
    }
    facts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg;
    use crate::parse::{parse_file, SourceFile};

    /// Toy analysis: count `tick()` calls, saturating at 9, interval
    /// `[lo, hi]` joined by widening the bounds.
    struct TickCount<'a> {
        cfg: &'a Cfg,
        file: &'a SourceFile,
    }

    impl Analysis for TickCount<'_> {
        type Fact = (u8, u8);

        fn entry(&self) -> (u8, u8) {
            (0, 0)
        }

        fn transfer(&self, block: usize, fact: &mut (u8, u8)) {
            for &(a, b) in &self.cfg.blocks[block].segs {
                for t in &self.file.toks[a..b] {
                    if t.is_ident("tick") {
                        fact.0 = (fact.0 + 1).min(9);
                        fact.1 = (fact.1 + 1).min(9);
                    }
                }
            }
        }

        fn join(&self, into: &mut (u8, u8), from: &(u8, u8)) -> bool {
            let next = (into.0.min(from.0), into.1.max(from.1));
            let changed = next != *into;
            *into = next;
            changed
        }
    }

    fn run(src: &str) -> (Cfg, Vec<Option<(u8, u8)>>) {
        let f = SourceFile::new("t.rs".into(), "fixture".into(), src);
        let p = parse_file(0, &f);
        let c = cfg::build(&f.toks, p.fns[0].body.unwrap());
        let facts = solve(&c, &TickCount { cfg: &c, file: &f });
        (c, facts)
    }

    #[test]
    fn branches_join_to_an_interval() {
        let (c, facts) = run("fn f(x: bool) { if x { tick(); tick(); } else { tick(); } done(); }");
        // At exit: one tick on the else path, two on the then path.
        assert_eq!(facts[c.exit], Some((1, 2)));
    }

    #[test]
    fn loops_widen_to_saturation_and_terminate() {
        let (c, facts) = run("fn f(n: u32) { for _ in 0..n { tick(); } }");
        // Zero iterations possible (lo stays 0); the upper bound
        // saturates instead of diverging.
        let at_exit = facts[c.exit].expect("exit reachable");
        assert_eq!(at_exit.0, 0);
        assert_eq!(at_exit.1, 9);
    }

    #[test]
    fn unreachable_blocks_have_no_facts() {
        let (c, facts) = run("fn f() { return; tick(); }");
        // Some block holds the dead `tick()` and never got a fact.
        let dead: Vec<usize> = (0..c.blocks.len())
            .filter(|&b| facts[b].is_none() && !c.blocks[b].segs.is_empty())
            .collect();
        assert!(!dead.is_empty(), "code after return is unreachable");
        // The exit still sees the return path's fact.
        assert_eq!(facts[c.exit], Some((0, 0)));
    }
}
