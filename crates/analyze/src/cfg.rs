//! Intraprocedural control-flow graphs over the token stream.
//!
//! Interprocedural reachability over [`crate::callgraph`] and
//! token-order scans inside one body cannot see that an early `return`
//! skips a `release()` call, or that an `if` and its `else` never both
//! run. This module builds, per function body, a graph of *basic
//! blocks* — each block a
//! list of contiguous token ranges (`segs`) — connected by edges for the
//! constructs that actually bend control flow in this workspace:
//!
//! * `if` / `else if` / `else` chains and `if let` (branch + merge);
//! * `match` (scrutinee and arm patterns/guards stay in the dispatch
//!   block, every arm body gets its own block, all arms merge);
//! * `loop` / `while` / `while let` / `for`, with a back-edge to the
//!   head so [`crate::dataflow`] knows where to widen, and labelled
//!   `break` / `continue` resolved through a loop-context stack;
//! * the early exits the path-sensitive passes exist for: `return`,
//!   `?` (an edge to the exit block *and* a fall-through split), and
//!   implicit fall-off-the-end.
//!
//! Everything else — struct literals, closures, plain braces — is
//! carried as opaque tokens inside the current block. Macro invocations
//! keep their argument tokens in the block (so call sites inside
//! `assert!(ring.publish(..))` still anchor events) but are never
//! interpreted as control flow. Nested `fn` items are skipped entirely:
//! their bodies do not execute here.
//!
//! The builder is deliberately forgiving: on malformed input it degrades
//! to treating tokens as straight-line code, mirroring the lexer's
//! "never abort on code rustc accepts" rule.

use crate::lexer::{Tok, TokKind};
use crate::parse::{expr_end, find_depth0, head_end, header_split, skip_balanced};

/// Why an edge exists. The dataflow solver widens on `Back` and the
/// phase pass restarts its barrier interval at `Back` targets; the
/// resource pass reports leaks on the three exit kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Ordinary forward flow (branch taken, merge, loop entry).
    Flow,
    /// Loop back-edge (`}` of a loop body, `continue`).
    Back,
    /// Explicit `return`.
    Return,
    /// The error path of a `?` operator.
    Question,
    /// Falling off the end of the function body.
    Implicit,
}

/// One directed edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    pub to: usize,
    pub kind: EdgeKind,
    /// Source line of the token that created the edge (for diagnostics).
    pub line: u32,
}

/// A basic block: zero or more contiguous token ranges, executed in
/// order, then the successor edges.
#[derive(Debug, Default)]
pub struct Block {
    /// Absolute `[start, end)` ranges into the file's token vector.
    pub segs: Vec<(usize, usize)>,
    pub succs: Vec<Edge>,
}

/// The graph for one function body.
#[derive(Debug)]
pub struct Cfg {
    pub blocks: Vec<Block>,
    /// Always block 0.
    pub entry: usize,
    /// The virtual exit block (no segs, no succs); every `return`, `?`
    /// error path and implicit fall-off targets it.
    pub exit: usize,
}

impl Cfg {
    /// Edges of `block` that target the exit block.
    pub fn exit_edges(&self, block: usize) -> impl Iterator<Item = &Edge> {
        self.blocks[block]
            .succs
            .iter()
            .filter(|e| e.to == self.exit)
    }
}

/// Build the CFG for a body token range *including* its braces (the
/// `FnDef::body` convention).
pub fn build(toks: &[Tok], body: (usize, usize)) -> Cfg {
    let (open, end) = body;
    let lo = (open + 1).min(end);
    let hi = end.saturating_sub(1).max(lo);
    let mut b = Builder {
        toks,
        blocks: vec![Block::default(), Block::default()],
        loops: Vec::new(),
    };
    let last = b.walk(0, lo, hi);
    let line = b.line(hi.saturating_sub(1));
    b.edge(last, EXIT, EdgeKind::Implicit, line);
    Cfg {
        blocks: b.blocks,
        entry: 0,
        exit: EXIT,
    }
}

/// The virtual exit is always block 1 (created before any real block).
const EXIT: usize = 1;

struct LoopCtx {
    label: Option<String>,
    head: usize,
    after: usize,
}

struct Builder<'a> {
    toks: &'a [Tok],
    blocks: Vec<Block>,
    loops: Vec<LoopCtx>,
}

impl Builder<'_> {
    fn new_block(&mut self) -> usize {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize, kind: EdgeKind, line: u32) {
        self.blocks[from].succs.push(Edge { to, kind, line });
    }

    fn seg(&mut self, block: usize, a: usize, b: usize) {
        if a < b {
            self.blocks[block].segs.push((a, b));
        }
    }

    fn line(&self, i: usize) -> u32 {
        self.toks
            .get(i.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |t| t.line)
    }

    fn at(&self, i: usize, s: &str) -> bool {
        self.toks.get(i).is_some_and(|t| t.is(s))
    }

    /// Walk `toks[lo..hi)` starting in block `cur`; returns the block
    /// where flow falls off the end (possibly an unreachable block with
    /// no in-edges, after a diverging construct).
    fn walk(&mut self, mut cur: usize, lo: usize, hi: usize) -> usize {
        let hi = hi.min(self.toks.len()).max(lo);
        let mut i = lo;
        let mut seg = lo;
        while i < hi {
            let t = &self.toks[i];
            match (t.kind, t.text.as_str()) {
                // Macro invocation: keep the tokens, skip interpretation.
                (TokKind::Ident, _)
                    if self.at(i + 1, "!")
                        && self
                            .toks
                            .get(i + 2)
                            .is_some_and(|t| matches!(t.text.as_str(), "(" | "[" | "{")) =>
                {
                    let (l, r) = match self.toks[i + 2].text.as_str() {
                        "(" => ("(", ")"),
                        "[" => ("[", "]"),
                        _ => ("{", "}"),
                    };
                    i = skip_balanced(self.toks, i + 2, l, r).min(hi);
                }
                // Nested item: its body does not run here.
                (TokKind::Ident, "fn") => {
                    self.seg(cur, seg, i);
                    i = self.skip_fn_item(i, hi);
                    seg = i;
                }
                (TokKind::Ident, "if") => {
                    self.seg(cur, seg, i);
                    let (merge, next) = self.handle_if(cur, i, hi);
                    cur = merge;
                    i = next;
                    seg = i;
                }
                (TokKind::Ident, "match") => {
                    self.seg(cur, seg, i);
                    let (merge, next) = self.handle_match(cur, i, hi);
                    cur = merge;
                    i = next;
                    seg = i;
                }
                (TokKind::Ident, "loop" | "while" | "for") => {
                    self.seg(cur, seg, i);
                    let (after, next) = self.handle_loop(cur, i, hi, None);
                    cur = after;
                    i = next;
                    seg = i;
                }
                // `'label: loop` — capture the label for break/continue.
                (TokKind::Lifetime, _)
                    if self.at(i + 1, ":")
                        && self.toks.get(i + 2).is_some_and(|t| {
                            matches!(t.text.as_str(), "loop" | "while" | "for")
                        }) =>
                {
                    self.seg(cur, seg, i);
                    let label = Some(t.text.clone());
                    let (after, next) = self.handle_loop(cur, i + 2, hi, label);
                    cur = after;
                    i = next;
                    seg = i;
                }
                (TokKind::Ident, "return") => {
                    self.seg(cur, seg, i + 1);
                    let j = expr_end(self.toks, i + 1, hi, false);
                    cur = self.walk(cur, i + 1, j);
                    self.edge(cur, EXIT, EdgeKind::Return, t.line);
                    cur = self.new_block();
                    i = j;
                    seg = i;
                }
                (TokKind::Ident, "break") => {
                    self.seg(cur, seg, i + 1);
                    let line = t.line;
                    let mut j = i + 1;
                    let mut label = None;
                    if self.toks.get(j).map(|t| t.kind) == Some(TokKind::Lifetime) {
                        label = Some(self.toks[j].text.clone());
                        j += 1;
                    }
                    let k = expr_end(self.toks, j, hi, true);
                    cur = self.walk(cur, j, k);
                    if let Some(after) = self.loop_target(&label).map(|c| c.after) {
                        self.edge(cur, after, EdgeKind::Flow, line);
                    }
                    cur = self.new_block();
                    i = k;
                    seg = i;
                }
                (TokKind::Ident, "continue") => {
                    self.seg(cur, seg, i + 1);
                    let line = t.line;
                    let mut j = i + 1;
                    let mut label = None;
                    if self.toks.get(j).map(|t| t.kind) == Some(TokKind::Lifetime) {
                        label = Some(self.toks[j].text.clone());
                        j += 1;
                    }
                    if let Some(head) = self.loop_target(&label).map(|c| c.head) {
                        self.edge(cur, head, EdgeKind::Back, line);
                    }
                    cur = self.new_block();
                    i = j;
                    seg = i;
                }
                // `let ... else { diverge }`: a standalone `else` (one the
                // `if` handler did not consume) introduces a diverging
                // alternative block plus the normal continuation.
                (TokKind::Ident, "else") if self.at(i + 1, "{") => {
                    self.seg(cur, seg, i);
                    let bend = skip_balanced(self.toks, i + 1, "{", "}").min(hi.max(i + 2));
                    let alt = self.new_block();
                    self.edge(cur, alt, EdgeKind::Flow, t.line);
                    let aend = self.walk(alt, i + 2, bend.saturating_sub(1));
                    let cont = self.new_block();
                    self.edge(cur, cont, EdgeKind::Flow, t.line);
                    // The else body of let-else must diverge; if our walk
                    // did not prove it, merge conservatively.
                    self.edge(aend, cont, EdgeKind::Flow, t.line);
                    cur = cont;
                    i = bend;
                    seg = i;
                }
                (TokKind::Punct, "?") => {
                    self.seg(cur, seg, i + 1);
                    self.edge(cur, EXIT, EdgeKind::Question, t.line);
                    let next = self.new_block();
                    self.edge(cur, next, EdgeKind::Flow, t.line);
                    cur = next;
                    i += 1;
                    seg = i;
                }
                _ => i += 1,
            }
        }
        self.seg(cur, seg, hi);
        cur
    }

    /// Innermost loop, or the one carrying `label`.
    fn loop_target(&self, label: &Option<String>) -> Option<&LoopCtx> {
        match label {
            Some(l) => self
                .loops
                .iter()
                .rev()
                .find(|c| c.label.as_deref() == Some(l)),
            None => self.loops.last(),
        }
    }

    /// `fn name(..) -> T { .. }` nested inside a body: index past it.
    fn skip_fn_item(&self, i: usize, hi: usize) -> usize {
        let j = head_end(self.toks, i + 1, hi);
        if self.at(j, "{") {
            skip_balanced(self.toks, j, "{", "}").min(hi)
        } else {
            (j + 1).min(hi)
        }
    }

    /// `if` / `else if` / `else` chain starting at `i` (the `if` token).
    /// Conditions are walked (they can contain `?`); every branch gets a
    /// block; all branch ends merge. Returns (merge block, next index).
    fn handle_if(&mut self, mut cur: usize, mut i: usize, hi: usize) -> (usize, usize) {
        let mut ends: Vec<usize> = Vec::new();
        loop {
            let body_open = header_split(self.toks, i + 1, hi).1;
            if !self.at(body_open, "{") {
                // Malformed: degrade to straight-line tokens.
                self.seg(cur, i, (i + 1).min(hi));
                return (cur, (i + 1).min(hi));
            }
            cur = self.walk(cur, i + 1, body_open);
            let body_end = skip_balanced(self.toks, body_open, "{", "}").min(hi.max(body_open));
            let line = self.line(body_open);
            let then_blk = self.new_block();
            self.edge(cur, then_blk, EdgeKind::Flow, line);
            let then_end = self.walk(then_blk, body_open + 1, body_end.saturating_sub(1));
            ends.push(then_end);
            i = body_end;
            if i < hi && self.toks[i].is_ident("else") {
                if self.toks.get(i + 1).is_some_and(|t| t.is_ident("if")) {
                    // `else if`: the next condition is evaluated on the
                    // not-taken path; approximating it into `cur` only
                    // reorders events the pass already treats as "may".
                    i += 1;
                    continue;
                }
                if self.at(i + 1, "{") {
                    let e_end = skip_balanced(self.toks, i + 1, "{", "}").min(hi.max(i + 2));
                    let e_blk = self.new_block();
                    self.edge(cur, e_blk, EdgeKind::Flow, self.line(i));
                    let eend = self.walk(e_blk, i + 2, e_end.saturating_sub(1));
                    ends.push(eend);
                    i = e_end;
                    return (self.merge(ends, self.line(i.saturating_sub(1))), i);
                }
            }
            // No else: not-taken path falls through from the condition.
            ends.push(cur);
            return (self.merge(ends, self.line(i.saturating_sub(1))), i);
        }
    }

    fn merge(&mut self, ends: Vec<usize>, line: u32) -> usize {
        let m = self.new_block();
        for e in ends {
            self.edge(e, m, EdgeKind::Flow, line);
        }
        m
    }

    /// `match` starting at `i`. Scrutinee tokens are walked into `cur`;
    /// arm patterns and guards stay in `cur` (they are evaluated during
    /// dispatch); every arm body gets a block; all arms merge.
    fn handle_match(&mut self, mut cur: usize, i: usize, hi: usize) -> (usize, usize) {
        let body_open = header_split(self.toks, i + 1, hi).1;
        if !self.at(body_open, "{") {
            self.seg(cur, i, (i + 1).min(hi));
            return (cur, (i + 1).min(hi));
        }
        cur = self.walk(cur, i + 1, body_open);
        let body_end = skip_balanced(self.toks, body_open, "{", "}").min(hi.max(body_open));
        let inner_end = body_end.saturating_sub(1);
        let merge = self.new_block();
        let mut k = body_open + 1;
        let mut any_arm = false;
        while k < inner_end {
            // Pattern (+ optional guard) up to `=>` at depth zero.
            let pat_start = k;
            k = find_depth0(self.toks, k, inner_end, &["=>"]);
            if k >= inner_end {
                // Trailing junk after the last arm: keep it in the
                // dispatch block and stop.
                self.seg(cur, pat_start, inner_end);
                break;
            }
            self.seg(cur, pat_start, k);
            let line = self.line(k);
            k += 1; // past `=>`
            any_arm = true;
            let arm = self.new_block();
            self.edge(cur, arm, EdgeKind::Flow, line);
            let arm_end;
            if self.at(k, "{") {
                let aend = skip_balanced(self.toks, k, "{", "}").min(inner_end.max(k + 1));
                arm_end = self.walk(arm, k + 1, aend.saturating_sub(1));
                k = aend;
            } else {
                let e = expr_end(self.toks, k, inner_end, true);
                arm_end = self.walk(arm, k, e);
                k = e;
            }
            self.edge(
                arm_end,
                merge,
                EdgeKind::Flow,
                self.line(k.saturating_sub(1)),
            );
            if self.at(k, ",") {
                k += 1;
            }
        }
        if !any_arm {
            self.edge(cur, merge, EdgeKind::Flow, self.line(body_open));
        }
        (merge, body_end)
    }

    /// `loop` / `while` / `while let` / `for` starting at `i` (the
    /// keyword token). Returns (after block, next index).
    fn handle_loop(
        &mut self,
        cur: usize,
        i: usize,
        hi: usize,
        label: Option<String>,
    ) -> (usize, usize) {
        let kw = self.toks[i].text.clone();
        let body_open = if kw == "loop" {
            i + 1
        } else {
            header_split(self.toks, i + 1, hi).1
        };
        if !self.at(body_open, "{") {
            self.seg(cur, i, (i + 1).min(hi));
            return (cur, (i + 1).min(hi));
        }
        let line = self.line(i);
        let head = self.new_block();
        self.edge(cur, head, EdgeKind::Flow, line);
        // Condition / iterator tokens re-evaluate on every iteration, so
        // they live in the head (the back-edge target).
        let cond_end = if kw == "loop" {
            head
        } else {
            self.walk(head, i + 1, body_open)
        };
        let after = self.new_block();
        let body_end = skip_balanced(self.toks, body_open, "{", "}").min(hi.max(body_open));
        let body = self.new_block();
        self.edge(cond_end, body, EdgeKind::Flow, line);
        if kw != "loop" {
            // `loop` exits only through `break`.
            self.edge(cond_end, after, EdgeKind::Flow, line);
        }
        self.loops.push(LoopCtx { label, head, after });
        let bend = self.walk(body, body_open + 1, body_end.saturating_sub(1));
        self.loops.pop();
        self.edge(
            bend,
            head,
            EdgeKind::Back,
            self.line(body_end.saturating_sub(1)),
        );
        (after, body_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_file, SourceFile};

    fn cfg_of(src: &str) -> (SourceFile, Cfg) {
        let f = SourceFile::new("t.rs".into(), "fixture".into(), src);
        let p = parse_file(0, &f);
        let body = p.fns[0].body.expect("fixture fn has a body");
        let c = build(&f.toks, body);
        (f, c)
    }

    fn edges_of_kind(c: &Cfg, kind: EdgeKind) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (i, b) in c.blocks.iter().enumerate() {
            for e in &b.succs {
                if e.kind == kind {
                    out.push((i, e.to));
                }
            }
        }
        out
    }

    /// Space-joined text of a block's segments.
    fn block_text(f: &SourceFile, c: &Cfg, block: usize) -> String {
        let mut s = String::new();
        for &(a, b) in &c.blocks[block].segs {
            for t in &f.toks[a..b] {
                if !s.is_empty() {
                    s.push(' ');
                }
                s.push_str(&t.text);
            }
        }
        s
    }

    /// Block that carries `needle` somewhere in its segment text.
    fn block_containing(f: &SourceFile, c: &Cfg, needle: &str) -> usize {
        (0..c.blocks.len())
            .find(|&b| block_text(f, c, b).contains(needle))
            .unwrap_or_else(|| panic!("no block contains {needle:?}"))
    }

    #[test]
    fn question_mark_splits_the_block_and_edges_to_exit() {
        let (f, c) = cfg_of("fn f() -> Result<(), ()> { g()?; h(); Ok(()) }");
        let q = edges_of_kind(&c, EdgeKind::Question);
        assert_eq!(q.len(), 1, "one ? operator, one error edge");
        let (src, dst) = q[0];
        assert_eq!(dst, c.exit);
        // The error edge leaves the block holding `g ( )`, before `h`.
        assert!(block_text(&f, &c, src).contains("g ( )"));
        assert!(!block_text(&f, &c, src).contains("h"));
        // The success path continues into a separate block that reaches
        // the implicit exit.
        let cont = block_containing(&f, &c, "h ( )");
        assert_ne!(cont, src);
        assert_eq!(edges_of_kind(&c, EdgeKind::Implicit).len(), 1);
    }

    #[test]
    fn match_with_guards_keeps_guards_in_dispatch_and_merges_arms() {
        let (f, c) = cfg_of(
            "fn f(x: Option<u32>) -> u32 {
                match x {
                    Some(v) if v > 3 => big(v),
                    Some(v) => small(v),
                    None => 0,
                }
            }",
        );
        // Guard tokens are evaluated during dispatch, not in an arm.
        let dispatch = block_containing(&f, &c, "v > 3");
        assert!(block_text(&f, &c, dispatch).contains("None"));
        // Three arms: three Flow edges out of the dispatch block.
        let arm_edges: Vec<_> = c.blocks[dispatch]
            .succs
            .iter()
            .filter(|e| e.kind == EdgeKind::Flow)
            .collect();
        assert_eq!(arm_edges.len(), 3, "one edge per arm");
        // Every arm body lands in its own block, and all of them reach a
        // common merge block.
        let big = block_containing(&f, &c, "big ( v )");
        let small = block_containing(&f, &c, "small ( v )");
        assert_ne!(big, small);
        let target = |b: usize| c.blocks[b].succs.first().map(|e| e.to);
        assert_eq!(target(big), target(small), "arms merge");
    }

    #[test]
    fn loop_with_break_value_gets_a_back_edge_and_an_exit_path() {
        let (f, c) = cfg_of(
            "fn f() -> u32 {
                let mut i = 0;
                let v = loop {
                    i += 1;
                    if done(i) { break i * 2; }
                };
                use_it(v)
            }",
        );
        let back = edges_of_kind(&c, EdgeKind::Back);
        assert_eq!(back.len(), 1, "loop body wraps to the head");
        // The break value is evaluated in the block that jumps out.
        let brk = block_containing(&f, &c, "i * 2");
        let after = c.blocks[brk]
            .succs
            .iter()
            .find(|e| e.kind == EdgeKind::Flow)
            .expect("break edge")
            .to;
        // The after-loop block flows onward to the code using the value.
        let use_blk = block_containing(&f, &c, "use_it ( v )");
        let mut seen = vec![after];
        let mut stack = vec![after];
        let mut reaches = false;
        while let Some(b) = stack.pop() {
            if b == use_blk {
                reaches = true;
                break;
            }
            for e in &c.blocks[b].succs {
                if !seen.contains(&e.to) {
                    seen.push(e.to);
                    stack.push(e.to);
                }
            }
        }
        assert!(reaches, "break lands after the loop");
        // And the infinite loop has no direct head -> after edge.
        let head = back[0].1;
        assert!(
            c.blocks[head].succs.iter().all(|e| e.to != after),
            "a bare loop only exits through break"
        );
    }

    #[test]
    fn early_return_and_fallthrough_both_reach_exit() {
        let (f, c) = cfg_of(
            "fn f(x: u32) -> u32 {
                if x == 0 { return 7; }
                x + 1
            }",
        );
        assert_eq!(edges_of_kind(&c, EdgeKind::Return).len(), 1);
        assert_eq!(edges_of_kind(&c, EdgeKind::Implicit).len(), 1);
        // The return value tokens stay in the returning block.
        let ret = block_containing(&f, &c, "7");
        assert!(c.blocks[ret].succs.iter().any(|e| e.to == c.exit));
    }

    #[test]
    fn while_let_and_continue_share_the_loop_head() {
        let (_, c) = cfg_of(
            "fn f(it: &mut I) {
                while let Some(x) = it.next() {
                    if skip(x) { continue; }
                    handle(x);
                }
            }",
        );
        let back = edges_of_kind(&c, EdgeKind::Back);
        assert_eq!(back.len(), 2, "loop-end wrap plus continue");
        assert_eq!(back[0].1, back[1].1, "both target the same head");
    }

    #[test]
    fn let_else_divergence_still_yields_a_continuation() {
        let (f, c) = cfg_of(
            "fn f(o: Option<u32>) -> u32 {
                let Some(v) = o else { return 0; };
                v + 1
            }",
        );
        assert_eq!(edges_of_kind(&c, EdgeKind::Return).len(), 1);
        // The continuation sees the binding's uses.
        let cont = block_containing(&f, &c, "v + 1");
        assert!(c.blocks[cont].succs.iter().any(|e| e.to == c.exit));
    }

    #[test]
    fn macros_and_nested_fns_do_not_confuse_the_walker() {
        let (f, c) = cfg_of(
            "fn f() {
                assert!(matches!(x, Some(_) if true), \"msg {}\", 1);
                fn helper() { if a { b(); } }
                tail();
            }",
        );
        // The macro's tokens stay available (for anchor events) ...
        let blk = block_containing(&f, &c, "assert");
        // ... and the nested fn's `if` created no branch blocks: the
        // macro block flows straight to the implicit exit.
        assert!(block_text(&f, &c, blk).contains("tail ( )"));
        assert_eq!(edges_of_kind(&c, EdgeKind::Implicit).len(), 1);
        assert_eq!(c.blocks[blk].succs.len(), 1);
    }
}
