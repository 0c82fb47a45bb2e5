//! Pass 6 — epoch-phase protocol.
//!
//! The parallel engine's epoch loop is only safe because every worker
//! obeys one phase order inside a barrier interval:
//!
//! ```text
//! drain (BatchRing::take) -> horizon minima (peek_time) ->
//!     stage (outbox append) -> publish (BatchRing::publish) -> barrier B0
//! ```
//!
//! The SPSC mailbox handoff assumes producers publish strictly before B0
//! and consumers drain strictly before computing horizon minima; until
//! this pass, that discipline lived in comments and `debug_assert!`s.
//! Here it is machine-checked:
//!
//! 1. Call sites are classified into phase *ranks* by name + normalised
//!    receiver chain ([`crate::callgraph::receiver_chain`]): `take` on a
//!    ring-like receiver is rank 0, `peek_time` rank 1, a push onto an
//!    outbox/staging/inbox receiver rank 2, `publish` on a ring-like
//!    receiver rank 3. The chain requirement keeps `Option::take` and
//!    `Cell::take` from masquerading as mailbox drains.
//! 2. Rank sets propagate through the shared call graph (a function that
//!    calls `drain_mail` is consumer-side wherever it is called).
//! 3. Each in-scope function's body runs through [`crate::cfg::build`]
//!    and [`crate::dataflow::solve`]. The fact is the highest rank done
//!    so far in the current barrier interval, with the site that set it;
//!    arms join by maximum rank at a merge, and an early exit ends its
//!    path. A site whose lowest rank is below that fact is a protocol
//!    violation. A loop head (the target of a back edge) resets the
//!    interval: the epoch loop's back edge crosses B0, and a `for` or
//!    `while` loop exits through its head, so its body's ranks do not
//!    reach the code after it either. Sites whose rank set spans both
//!    consumer (0–1) and producer (2–3) work — complete epoch machines
//!    like `run_worker` — are neutral.
//! 4. Cross-shard *mutable* access that bypasses the handoff API — a
//!    mutating method call whose receiver chain starts at `shards[_]`
//!    inside a phase-ranked function — is `phase.shard-escape`.
//!
//! Production scope is `crates/core/src/engine.rs` (the only place the
//! epoch machine lives); fixture workspaces are scanned whole. Summaries
//! are still computed workspace-wide so helpers called from the engine
//! carry their ranks in.

use crate::callgraph::{receiver_chain, CallGraph};
use crate::cfg::{self, Cfg, EdgeKind};
use crate::dataflow::{self, Analysis};
use crate::parse::CallKind;
use crate::report::Diagnostic;
use crate::Workspace;
use std::collections::BTreeMap;

/// Human spellings for the four phase ranks.
const RANK_DESC: [&str; 4] = [
    "mailbox drain (`BatchRing::take`)",
    "horizon-minimum computation (`peek_time`)",
    "outbox staging append",
    "mailbox publish (`BatchRing::publish`)",
];

const CONSUMER_BITS: u8 = 0b0011; // drain, minima
const PRODUCER_BITS: u8 = 0b1100; // stage, publish

/// Mutating method names for the shard-escape check.
const MUTATORS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "insert",
    "remove",
    "extend",
    "extend_from_slice",
    "append",
    "clear",
    "drain",
    "take",
    "swap",
    "set",
    "store",
    "publish",
    "send",
    "schedule",
    "schedule_keyed",
];

pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    run_with_stats(ws, &CallGraph::build(ws)).0
}

/// Run the pass and also report how many in-scope functions carry a
/// phase rank — the xtask guard uses the count to detect the pass going
/// blind (an anchor rename silently unclassifying the epoch machine).
pub fn run_with_stats(ws: &Workspace, cg: &CallGraph) -> (Vec<Diagnostic>, usize) {
    // 1+2. Per-function rank bitmasks: direct anchors, then the shared
    // fixpoint over the call graph.
    let mut ranks: Vec<u8> = vec![0; ws.fns.len()];
    for &i in &cg.live {
        let toks = &ws.file(&ws.fns[i]).toks;
        for c in &cg.sites[i] {
            if let Some(r) = anchor_rank(toks, c) {
                ranks[i] |= 1 << r;
            }
        }
    }
    cg.propagate(
        &mut ranks,
        |_| true,
        |caller, callee| {
            let before = *caller;
            *caller |= *callee;
            *caller != before
        },
    );

    let mut out = Vec::new();
    let mut ranked_in_scope = 0usize;
    for &i in &cg.live {
        let f = &ws.fns[i];
        let path = &ws.file(f).path;
        if !in_scope(ws, path) {
            continue;
        }
        if ranks[i] != 0 {
            ranked_in_scope += 1;
        }
        let toks = &ws.file(f).toks;
        let body = f.body.expect("live fns have bodies");

        // 3. Merge anchors and callee summaries into one event per token
        // (a may-resolved site can contribute several edges at one token
        // — union the bits). Complete epoch machines are neutral.
        let mut events: BTreeMap<usize, Event> = BTreeMap::new();
        for c in &cg.sites[i] {
            if let Some(r) = anchor_rank(toks, c) {
                let e = events.entry(c.tok).or_default();
                e.bits |= 1 << r;
                e.line = c.line;
                e.desc = RANK_DESC[r as usize].to_string();
            }
        }
        for e in &cg.edges[i] {
            if ranks[e.callee] == 0 {
                continue;
            }
            let ev = events.entry(e.tok).or_default();
            ev.bits |= ranks[e.callee];
            ev.line = e.line;
            if ev.desc.is_empty() {
                ev.desc = format!("call to `{}`", ws.fns[e.callee].display_name());
            }
        }
        events.retain(|_, ev| ev.bits & CONSUMER_BITS == 0 || ev.bits & PRODUCER_BITS == 0);
        let graph = cfg::build(toks, body);
        let mut heads = vec![false; graph.blocks.len()];
        for e in graph.blocks.iter().flat_map(|b| &b.succs) {
            heads[e.to] |= e.kind == EdgeKind::Back;
        }
        let interval = Interval {
            graph: &graph,
            events: &events,
            heads,
        };
        for (b, entry) in dataflow::solve(&graph, &interval).into_iter().enumerate() {
            let Some(mut done) = entry else { continue };
            interval.walk(b, &mut done, |ev, lo, (hi, hi_tok)| {
                let (code, why) = if hi >= 2 {
                    (
                        "phase.producer-after-barrier",
                        "in the same barrier interval — the producer-side operation \
                         escapes into the post-barrier region",
                    )
                } else {
                    (
                        "phase.drain-after-minima",
                        "— shards must finish draining before horizon minima are computed",
                    )
                };
                let (lo, hi, by) = (
                    RANK_DESC[lo as usize],
                    RANK_DESC[hi as usize],
                    &events[&hi_tok],
                );
                out.push(Diagnostic {
                    pass: "epoch-phase",
                    code: code.to_string(),
                    file: path.clone(),
                    line: ev.line,
                    function: f.display_name(),
                    message: format!("{lo} follows {hi} {why}"),
                    notes: vec![
                        format!("{hi} at {path}:{} ({})", by.line, by.desc),
                        "epoch protocol order within one barrier interval: drain -> \
                         minima -> stage -> publish -> barrier B0 (docs/engine.md)"
                            .to_string(),
                    ],
                });
            });
        }

        // 4. Shard-escape: phase-ranked code mutating another shard's
        // state directly instead of going through the mailbox API.
        if ranks[i] != 0 {
            for c in &cg.sites[i] {
                if c.kind != CallKind::Method || !MUTATORS.contains(&c.name.as_str()) {
                    continue;
                }
                let chain = receiver_chain(toks, c.tok);
                if chain.starts_with("shards[_]") {
                    out.push(Diagnostic {
                        pass: "epoch-phase",
                        code: "phase.shard-escape".to_string(),
                        file: path.clone(),
                        line: c.line,
                        function: f.display_name(),
                        message: format!(
                            "cross-shard mutable access `{}.{}(..)` bypasses the \
                             mailbox handoff",
                            chain, c.name
                        ),
                        notes: vec!["phase-ranked code may only touch peer shards through \
                             BatchRing publish/take or the inbox mutex (docs/engine.md)"
                            .to_string()],
                    });
                }
            }
        }
    }
    (out, ranked_in_scope)
}

/// A ranked call site in one body: its rank bits, line and how to name it.
#[derive(Default)]
struct Event {
    bits: u8,
    line: u32,
    desc: String,
}

/// The dataflow fact: the highest rank done so far in the current
/// barrier interval and the token of the site that set it (`None` right
/// after a barrier).
type Done = Option<(u8, usize)>;

/// The epoch-order problem over one body's CFG.
struct Interval<'a> {
    graph: &'a Cfg,
    events: &'a BTreeMap<usize, Event>,
    /// Loop heads: back-edge targets, where the interval restarts.
    heads: Vec<bool>,
}

impl Interval<'_> {
    /// Push `done` through `block`; `flag(event, lowest rank, done)`
    /// fires for every event whose lowest rank precedes work already
    /// done in its interval.
    fn walk(&self, block: usize, done: &mut Done, mut flag: impl FnMut(&Event, u8, (u8, usize))) {
        if self.heads[block] {
            *done = None;
        }
        let segs = &self.graph.blocks[block].segs;
        for (&tok, ev) in segs.iter().flat_map(|&(a, b)| self.events.range(a..b)) {
            let lo = ev.bits.trailing_zeros() as u8;
            let top = 7 - ev.bits.leading_zeros() as u8;
            if let Some(d) = done.filter(|d| lo < d.0) {
                flag(ev, lo, d);
            }
            if done.is_none_or(|d| top > d.0) {
                *done = Some((top, tok));
            }
        }
    }
}

impl Analysis for Interval<'_> {
    type Fact = Done;

    fn entry(&self) -> Done {
        None
    }

    fn transfer(&self, block: usize, fact: &mut Done) {
        self.walk(block, fact, |_, _, _| {});
    }

    fn join(&self, into: &mut Done, from: &Done) -> bool {
        let grows = from.map(|d| d.0) > into.map(|d| d.0);
        if grows {
            *into = *from;
        }
        grows
    }
}

fn in_scope(ws: &Workspace, path: &str) -> bool {
    ws.synthetic || path == "crates/core/src/engine.rs"
}

/// Classify one call site as a phase anchor. Receiver-chain checks keep
/// name collisions out: `Option::take`, `Cell::take` and `Vec::push`
/// onto unrelated receivers carry no rank.
fn anchor_rank(toks: &[crate::lexer::Tok], c: &crate::parse::CallSite) -> Option<u8> {
    match (c.kind, c.name.as_str()) {
        (CallKind::Method | CallKind::Path, "peek_time") => Some(1),
        (CallKind::Method, "take") => ring_like(&receiver_chain(toks, c.tok)).then_some(0),
        (CallKind::Method, "publish") => ring_like(&receiver_chain(toks, c.tok)).then_some(3),
        (CallKind::Method, "push" | "push_back" | "extend" | "extend_from_slice" | "append") => {
            staging_like(&receiver_chain(toks, c.tok)).then_some(2)
        }
        _ => None,
    }
}

/// Does any segment of the receiver chain name a mailbox ring?
fn ring_like(chain: &str) -> bool {
    segments(chain).any(|seg| {
        seg == "ring" || seg == "rings" || seg.ends_with("_ring") || seg.ends_with("_rings")
    })
}

/// Does any segment name the outbox staging side of the mailbox?
fn staging_like(chain: &str) -> bool {
    segments(chain).any(|seg| {
        seg == "outbox"
            || seg == "outboxes"
            || seg.ends_with("_outbox")
            || seg == "staging"
            || seg == "inbox"
            || seg == "inboxes"
    })
}

fn segments(chain: &str) -> impl Iterator<Item = &str> {
    chain
        .split('.')
        .map(|seg| seg.trim_end_matches("[_]").trim_end_matches("(_)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(src: &str) -> Vec<Diagnostic> {
        run(&Workspace::from_sources(&[("fix.rs", src)]))
    }

    #[test]
    fn correct_epoch_order_is_clean() {
        let d = diags(
            "
            impl Worker {
                fn run(&mut self) {
                    loop {
                        self.ring.take(&mut self.scratch);
                        let h = self.queue.peek_time();
                        self.outbox.push(h);
                        self.ring.publish(&mut self.outbox);
                    }
                }
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn publish_before_drain_is_producer_after_barrier() {
        let d = diags(
            "
            impl Worker {
                fn bad(&mut self) {
                    self.ring.publish(&mut self.outbox);
                    self.ring.take(&mut self.scratch);
                }
            }
            ",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, "phase.producer-after-barrier");
    }

    #[test]
    fn drain_after_peek_is_drain_after_minima() {
        let d = diags(
            "
            impl Worker {
                fn bad(&mut self) {
                    let h = self.queue.peek_time();
                    self.ring.take(&mut self.scratch);
                    drop(h);
                }
            }
            ",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, "phase.drain-after-minima");
    }

    #[test]
    fn loop_back_edge_resets_the_interval() {
        let d = diags(
            "
            impl Worker {
                fn run(&mut self) {
                    for _ in 0..4 {
                        self.ring.take(&mut self.scratch);
                        self.ring.publish(&mut self.outbox);
                    }
                }
            }
            ",
        );
        assert!(d.is_empty(), "publish then loop-reset then take: {d:?}");
    }

    #[test]
    fn exclusive_if_else_arms_do_not_order_each_other() {
        let d = diags(
            "
            impl Worker {
                fn either(&mut self, produce: bool) {
                    if produce {
                        self.ring.publish(&mut self.outbox);
                    } else {
                        self.ring.take(&mut self.scratch);
                    }
                }
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn exclusive_match_arms_do_not_order_each_other() {
        let d = diags(
            "
            impl Worker {
                fn either(&mut self, side: Side) {
                    match side {
                        Side::Producer => self.ring.publish(&mut self.outbox),
                        Side::Consumer => self.ring.take(&mut self.scratch),
                    };
                }
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn an_early_return_ends_the_publishing_path() {
        let d = diags(
            "
            impl Worker {
                fn step(&mut self, last: bool) {
                    if last {
                        self.ring.publish(&mut self.outbox);
                        return;
                    }
                    self.ring.take(&mut self.scratch);
                }
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn a_one_armed_if_still_reaches_the_code_after_it() {
        let d = diags(
            "
            impl Worker {
                fn bad(&mut self, flush: bool) {
                    if flush {
                        self.ring.publish(&mut self.outbox);
                    }
                    self.ring.take(&mut self.scratch);
                }
            }
            ",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, "phase.producer-after-barrier");
    }

    #[test]
    fn break_leaves_a_loop_without_crossing_its_head() {
        let d = diags(
            "
            impl Worker {
                fn bad(&mut self) {
                    loop {
                        self.ring.publish(&mut self.outbox);
                        break;
                    }
                    self.ring.take(&mut self.scratch);
                }
            }
            ",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, "phase.producer-after-barrier");
    }

    #[test]
    fn a_for_loop_exits_through_its_head_which_resets_the_interval() {
        // The exit edge leaves from the loop head, which the pass models
        // as B0: the body's publish does not order the `take` after it.
        let d = diags(
            "
            impl Worker {
                fn run(&mut self, n: usize) {
                    for _ in 0..n {
                        self.ring.publish(&mut self.outbox);
                    }
                    self.ring.take(&mut self.scratch);
                }
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn complete_epoch_machines_are_neutral_at_call_sites() {
        let d = diags(
            "
            impl Worker {
                fn epoch(&mut self) {
                    self.ring.take(&mut self.scratch);
                    self.ring.publish(&mut self.outbox);
                }
                fn driver(&mut self) {
                    self.epoch();
                    self.epoch();
                }
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn option_take_is_not_a_drain() {
        let d = diags(
            "
            impl Worker {
                fn fine(&mut self) {
                    let h = self.queue.peek_time();
                    let v = self.slot.take();
                    drop((h, v));
                }
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn shard_escape_is_flagged_in_ranked_code() {
        let d = diags(
            "
            impl Worker {
                fn bad(&mut self, dst: usize) {
                    self.ring.take(&mut self.scratch);
                    self.shards[dst].queue.push(1);
                }
            }
            ",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, "phase.shard-escape");
    }

    #[test]
    fn unranked_setup_code_may_touch_shards() {
        let d = diags(
            "
            impl Engine {
                fn wire(&mut self, dst: usize) {
                    self.shards[dst].out_peers.push(1);
                }
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
