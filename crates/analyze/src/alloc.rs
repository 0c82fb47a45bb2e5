//! Pass 1 — alloc-reachability.
//!
//! Functions annotated `#[cfg_attr(lint, tcc_no_alloc)]` must not reach
//! an allocating call **transitively** through the intra-workspace call
//! graph. This closes the hole the old substring scan could not see: a
//! hot function whose own body is clean but which calls a local helper
//! that allocates.
//!
//! Allocation is recognised at the token level (the same constructs the
//! old scan matched, resolved properly instead of by substring):
//! `vec!`/`format!`, `Vec::new`, `*::with_capacity`, `Box::new`,
//! `String::new/from`, `Rc/Arc::new`, `.collect()`, `.to_vec()`,
//! `.to_string()`, `.to_owned()`.
//!
//! Call resolution, traversal, diagnostics and the stale-ok dual check
//! are the shared [`crate::obligation`] checker's; this pass contributes
//! only the allocation classifier and its wording.
//!
//! `#[cfg_attr(lint, tcc_alloc_ok)]` marks a function as a *reviewed*
//! allocation boundary (amortized growth, cold resize): traversal stops
//! there. Every use is counted in the report so un-reviewed escapes
//! cannot creep in silently, and `alloc.stale-ok` flags a `tcc_alloc_ok`
//! function that can no longer reach any allocation.

use crate::callgraph::CallGraph;
use crate::obligation::{self, Obligation};
use crate::parse::{CallKind, CallSite};
use crate::report::Diagnostic;
use crate::Workspace;

/// Method names that allocate regardless of receiver.
const ALLOC_METHODS: &[&str] = &[
    "collect",
    "to_vec",
    "to_string",
    "to_owned",
    "with_capacity",
];

/// `Qual::name` pairs that allocate. `*` quals below are handled
/// separately: any `with_capacity` allocates.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "from"),
    ("VecDeque", "new"),
    ("BinaryHeap", "new"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("Rc", "new"),
    ("Arc", "new"),
    ("HashMap", "new"),
    ("HashSet", "new"),
    ("BTreeMap", "new"),
    ("BTreeSet", "new"),
];

const ALLOC_MACROS: &[&str] = &["vec", "format"];

const ALLOC: Obligation = Obligation {
    pass: "alloc-reachability",
    root: "tcc_no_alloc",
    reviewed: "tcc_alloc_ok",
    codes: ["alloc.direct", "alloc.transitive", "alloc.stale-ok"],
    direct: "hot function allocates",
    reaches: "hot function reaches an allocation",
    stale: "tcc_alloc_ok on a function that cannot allocate (stale escape hatch)",
    hint: "a reviewed cold-path allocation can be exempted with \
           #[cfg_attr(lint, tcc_alloc_ok)] — see docs/static-analysis.md",
    classify: classify_alloc,
};

pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    run_with(ws, &CallGraph::build(ws))
}

pub fn run_with(ws: &Workspace, cg: &CallGraph) -> Vec<Diagnostic> {
    obligation::check(ws, cg, &ALLOC)
}

/// Is this call site itself an allocation?
fn classify_alloc(c: &CallSite) -> Option<String> {
    match c.kind {
        CallKind::Macro if ALLOC_MACROS.contains(&c.name.as_str()) => {
            Some(format!("`{}!` macro", c.name))
        }
        CallKind::Method if ALLOC_METHODS.contains(&c.name.as_str()) => {
            Some(format!("`.{}()`", c.name))
        }
        CallKind::Path => {
            if c.name == "with_capacity" {
                return Some("`with_capacity`".to_string());
            }
            let q = c.qual.as_deref()?;
            ALLOC_PATHS
                .iter()
                .find(|(pq, pn)| *pq == q && *pn == c.name)
                .map(|(pq, pn)| format!("`{pq}::{pn}`"))
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
    fn direct_allocation_is_flagged() {
        let d = diags(
            "
            #[cfg_attr(lint, tcc_no_alloc)]
            fn hot() { let v = Vec::with_capacity(4); drop(v); }
            ",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "alloc.direct");
    }

    #[test]
    fn transitive_allocation_through_helper() {
        let d = diags(
            "
            #[cfg_attr(lint, tcc_no_alloc)]
            fn hot() { stage(); }
            fn stage() { deeper(); }
            fn deeper() { let s = format!(\"x{}\", 1); drop(s); }
            ",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "alloc.transitive");
        assert!(d[0]
            .notes
            .iter()
            .any(|n| n.contains("hot -> stage -> deeper")));
    }

    #[test]
    fn alloc_ok_stops_traversal() {
        let d = diags(
            "
            #[cfg_attr(lint, tcc_no_alloc)]
            fn hot() { grow(); }
            #[cfg_attr(lint, tcc_alloc_ok)]
            fn grow() { let v = vec![0u8; 64]; drop(v); }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn method_resolution_reaches_impl_fns() {
        let d = diags(
            "
            struct S;
            impl S {
                #[cfg_attr(lint, tcc_no_alloc)]
                fn hot(&self) { self.helper(); }
                fn helper(&self) { let x: Vec<u32> = (0..4).collect(); drop(x); }
            }
            ",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, "alloc.transitive");
    }

    #[test]
    fn clean_hot_function_passes() {
        let d = diags(
            "
            #[cfg_attr(lint, tcc_no_alloc)]
            fn hot(buf: &mut [u8]) { for b in buf.iter_mut() { *b = 0; } step(); }
            fn step() {}
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn test_code_is_not_traversed() {
        let d = diags(
            "
            #[cfg_attr(lint, tcc_no_alloc)]
            fn hot() { helper(); }
            fn helper() {}
            #[cfg(test)]
            mod tests {
                fn helper() { let v = vec![1]; drop(v); }
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
