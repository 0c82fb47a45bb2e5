//! Pass 5 — panic-freedom.
//!
//! The determinism guarantee (bit-identical results across threads,
//! queue backends and mailbox kinds) dies silently if any hot-path
//! function can panic mid-epoch: one worker unwinds at a barrier, the
//! others hang, and the partial run looks like a scheduling bug. This
//! pass makes panic-reachability a lint failure for functions annotated
//! `#[cfg_attr(lint, tcc_no_panic)]` (seeded from the `tcc_no_alloc`
//! hot-path set), using the shared call graph from [`crate::callgraph`].
//!
//! A *panic site* is an explicit panicking construct: `.unwrap()` /
//! `.expect(..)` method calls, or the `panic!` / `unreachable!` / `todo!`
//! / `unimplemented!` macros. Two deliberate exclusions, reviewed here so
//! nobody re-litigates them per-diagnostic:
//!
//! * **`assert!` family** — an assert is a reviewed invariant check by
//!   construction (the author wrote the predicate and the message); the
//!   epoch protocol's own guard (`assert!(ring.publish(..))` in
//!   `publish_outboxes`) is exactly such a check and must stay.
//! * **Indexing / slice-length panics** — the hot path is index-heavy by
//!   design (`self.slots[h]`, `buf[1..9]`); flagging every `[]` would
//!   force blanket `tcc_panic_ok` annotations, the precise failure mode
//!   the escape hatch is meant to prevent. Bounds discipline is the
//!   type/test layer's job (miri + proptests), not this pass's.
//!
//! `#[cfg_attr(lint, tcc_panic_ok)]` marks a *reviewed* deliberate
//! protocol panic (the contended-slot panic in `handoff.rs`, the fatal
//! funnels): traversal stops there, and a justification comment is
//! expected at the site. To keep the escape hatch honest,
//! `panic.stale-ok` flags any `tcc_panic_ok` function that cannot
//! actually reach a panic site — a stale annotation is a reviewed hole
//! waiting for code to fill it.
//!
//! Traversal, diagnostics and the stale-ok check are the shared
//! [`crate::obligation`] checker's; this pass supplies the panic
//! classifier and its wording.

use crate::callgraph::CallGraph;
use crate::obligation::{self, Obligation};
use crate::parse::{CallKind, CallSite};
use crate::report::Diagnostic;
use crate::Workspace;

const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

const PANIC: Obligation = Obligation {
    pass: "panic-freedom",
    root: "tcc_no_panic",
    reviewed: "tcc_panic_ok",
    codes: ["panic.reachable", "panic.reachable", "panic.stale-ok"],
    direct: "no-panic function can panic",
    reaches: "no-panic function reaches a panic",
    stale: "tcc_panic_ok on a function that cannot panic (stale escape hatch)",
    hint: "restructure to a typed error or an invariant-carrying form; a \
           reviewed deliberate protocol panic can be exempted with \
           #[cfg_attr(lint, tcc_panic_ok)] + a justification comment — see \
           docs/static-analysis.md",
    classify: classify_panic,
};

pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    run_with(ws, &CallGraph::build(ws))
}

pub fn run_with(ws: &Workspace, cg: &CallGraph) -> Vec<Diagnostic> {
    obligation::check(ws, cg, &PANIC)
}

/// Is this call site itself an explicit panic construct?
fn classify_panic(c: &CallSite) -> Option<String> {
    match c.kind {
        CallKind::Macro if PANIC_MACROS.contains(&c.name.as_str()) => {
            Some(format!("`{}!` macro", c.name))
        }
        CallKind::Method if PANIC_METHODS.contains(&c.name.as_str()) => {
            Some(format!("`.{}()`", c.name))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(src: &str) -> Vec<Diagnostic> {
        run(&Workspace::from_sources(&[("fix.rs", src)]))
    }

    #[test]
    fn direct_unwrap_is_flagged() {
        let d = diags(
            "
            #[cfg_attr(lint, tcc_no_panic)]
            fn hot(x: Option<u32>) -> u32 { x.unwrap() }
            ",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, "panic.reachable");
        assert!(d[0].message.contains("unwrap"));
    }

    #[test]
    fn transitive_panic_through_helper_names_the_path() {
        let d = diags(
            "
            impl W {
                #[cfg_attr(lint, tcc_no_panic)]
                fn hot(&mut self) { self.step(); }
                fn step(&mut self) { self.deeper(); }
                fn deeper(&self) { panic!(\"boom\"); }
            }
            ",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, "panic.reachable");
        assert!(d[0]
            .notes
            .iter()
            .any(|n| n.contains("W::hot -> W::step -> W::deeper")));
    }

    #[test]
    fn self_call_resolves_to_the_enclosing_impl_only() {
        // Two impls define `settle`; only `Sim`'s panics. `Shard`'s own
        // `self.settle()` cannot reach it.
        let d = diags(
            "
            impl Sim {
                fn settle(&mut self) { panic!(\"not quiescent\"); }
            }
            impl Shard {
                #[cfg_attr(lint, tcc_no_panic)]
                fn hot(&mut self) { self.settle(); }
                fn settle(&mut self) { self.n += 1; }
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn panic_ok_is_a_boundary() {
        let d = diags(
            "
            impl W {
                #[cfg_attr(lint, tcc_no_panic)]
                fn hot(&self) { self.guard(); }
                // Deliberate protocol panic, reviewed.
                #[cfg_attr(lint, tcc_panic_ok)]
                fn guard(&self) { self.inner.try_lock().expect(\"contended\"); }
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn stale_panic_ok_is_flagged() {
        let d = diags(
            "
            #[cfg_attr(lint, tcc_panic_ok)]
            fn fine(x: u32) -> u32 { x.wrapping_add(1) }
            ",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, "panic.stale-ok");
    }

    #[test]
    fn panic_ok_reaching_a_panic_transitively_is_not_stale() {
        let d = diags(
            "
            impl W {
                #[cfg_attr(lint, tcc_panic_ok)]
                fn funnel_caller(&self) { self.funnel(); }
                #[cfg_attr(lint, tcc_panic_ok)]
                fn funnel(&self) -> ! { panic!(\"protocol violated\"); }
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn asserts_and_indexing_are_not_panic_sites() {
        let d = diags(
            "
            #[cfg_attr(lint, tcc_no_panic)]
            fn hot(buf: &[u8], n: usize) -> u8 {
                assert!(n < buf.len(), \"caller-checked\");
                buf[n]
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
