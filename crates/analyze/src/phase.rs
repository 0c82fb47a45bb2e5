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
//! 3. Each in-scope function's body is replayed in token order: a site
//!    whose lowest rank precedes the highest rank already performed in
//!    the same barrier interval is a protocol violation. Loop heads reset
//!    the interval (the back edge crosses B0 by construction). Sites
//!    whose rank set spans both consumer (0–1) and producer (2–3) work —
//!    complete epoch machines like `run_inline` — are neutral.
//! 4. Cross-shard *mutable* access that bypasses the handoff API — a
//!    mutating method call whose receiver chain starts at `shards[_]`
//!    inside a phase-ranked function — is `phase.shard-escape`.
//!
//! Production scope is `crates/core/src/engine.rs` (the only place the
//! epoch machine lives); fixture workspaces are scanned whole. Summaries
//! are still computed workspace-wide so helpers called from the engine
//! carry their ranks in.

use crate::callgraph::{receiver_chain, CallGraph};
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
    run_with(ws, &CallGraph::build(ws))
}

pub fn run_with(ws: &Workspace, cg: &CallGraph) -> Vec<Diagnostic> {
    run_with_stats(ws, cg).0
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

        // 3. Merge anchors and callee summaries into one token-ordered
        // event stream (a may-resolved site can contribute several
        // edges at one token — union the bits).
        #[derive(Default)]
        struct Event {
            bits: u8,
            line: u32,
            desc: String,
        }
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

        // Loop heads reset the barrier interval: the epoch loop's back
        // edge crosses B0, so order constraints do not span iterations.
        let resets: Vec<usize> = (body.0..body.1.min(toks.len()))
            .filter(|&k| matches!(toks[k].text.as_str(), "loop" | "while" | "for"))
            .collect();

        let mut next_reset = 0usize;
        let mut hi: i8 = -1;
        let mut hi_line = 0u32;
        let mut hi_desc = String::new();
        for (&tok, ev) in &events {
            while next_reset < resets.len() && resets[next_reset] < tok {
                hi = -1;
                next_reset += 1;
            }
            let consumer = ev.bits & CONSUMER_BITS != 0;
            let producer = ev.bits & PRODUCER_BITS != 0;
            if consumer && producer {
                continue; // complete epoch machine: neutral
            }
            let lo = ev.bits.trailing_zeros() as i8;
            let top = (0..4).rev().find(|r| ev.bits & (1 << r) != 0).unwrap_or(0) as i8;
            if lo < hi {
                let (code, message) = if hi >= 2 {
                    (
                        "phase.producer-after-barrier",
                        format!(
                            "{} follows {} in the same barrier interval — the \
                             producer-side operation escapes into the post-barrier region",
                            RANK_DESC[lo as usize], RANK_DESC[hi as usize]
                        ),
                    )
                } else {
                    (
                        "phase.drain-after-minima",
                        format!(
                            "{} follows {} — shards must finish draining before \
                             horizon minima are computed",
                            RANK_DESC[lo as usize], RANK_DESC[hi as usize]
                        ),
                    )
                };
                out.push(Diagnostic {
                    pass: "epoch-phase",
                    code: code.to_string(),
                    file: path.clone(),
                    line: ev.line,
                    function: f.display_name(),
                    notes: vec![
                        format!(
                            "{} at {}:{} ({})",
                            RANK_DESC[hi as usize], path, hi_line, hi_desc
                        ),
                        "epoch protocol order within one barrier interval: drain -> \
                         minima -> stage -> publish -> barrier B0 (docs/engine.md)"
                            .to_string(),
                    ],
                    message,
                });
            }
            if top > hi {
                hi = top;
                hi_line = ev.line;
                hi_desc = ev.desc.clone();
            }
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
