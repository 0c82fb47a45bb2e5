//! The reachability-obligation checker behind `alloc-reachability` and
//! `panic-freedom`.
//!
//! Both passes prove the same shape of property: a function carrying a
//! *root* marker (`tcc_no_alloc`, `tcc_no_panic`) must not reach a
//! forbidden call site — in its own body or through any callee — except
//! through a function carrying the *reviewed* marker (`tcc_alloc_ok`,
//! `tcc_panic_ok`), which is a traversal boundary. The dual check keeps
//! the escape hatch honest: a reviewed function that cannot reach any
//! site at all (boundaries included) is stale.
//!
//! A pass supplies an [`Obligation`] — markers, codes, wording and the
//! site classifier — and [`check`] does the rest over the shared
//! [`CallGraph`].

use crate::callgraph::CallGraph;
use crate::parse::CallSite;
use crate::report::Diagnostic;
use crate::Workspace;
use std::collections::HashMap;

/// One pass's configuration of the checker.
pub struct Obligation {
    pub pass: &'static str,
    /// Marker on functions that must not reach a site.
    pub root: &'static str,
    /// Marker on reviewed boundaries.
    pub reviewed: &'static str,
    /// Codes for a site in the root's own body, for one reached through a
    /// callee, and for a reviewed marker with no site behind it.
    pub codes: [&'static str; 3],
    /// Messages: `{direct} (site)`, `{reaches} through `callee``, stale.
    pub direct: &'static str,
    pub reaches: &'static str,
    pub stale: &'static str,
    /// Closing note on every reachability diagnostic.
    pub hint: &'static str,
    /// Describes a forbidden call site, or `None` for an innocent one.
    pub classify: fn(&CallSite) -> Option<String>,
}

/// Run `ob` over every live function of `ws`.
pub fn check(ws: &Workspace, cg: &CallGraph, ob: &Obligation) -> Vec<Diagnostic> {
    // Earliest direct site per live non-exempt function, reviewed ones
    // included: the stale check needs those.
    let direct: HashMap<usize, (String, u32)> = cg
        .live
        .iter()
        .filter(|&&i| !ws.exempt(&ws.fns[i]))
        .filter_map(|&i| {
            cg.sites[i]
                .iter()
                .find_map(|c| Some((i, ((ob.classify)(c)?, c.line))))
        })
        .collect();
    let reviewed = |i: usize| ws.fns[i].has_marker(ob.reviewed);
    let enter = |i: usize| !ws.exempt(&ws.fns[i]) && !reviewed(i);
    let target = |i: usize| direct.contains_key(&i) && !reviewed(i);

    let mut out = Vec::new();
    for &root in &cg.live {
        let f = &ws.fns[root];
        let diag = |code: &str, message: String, notes: Vec<String>| Diagnostic {
            pass: ob.pass,
            code: code.to_string(),
            file: ws.file(f).path.clone(),
            line: f.line,
            function: f.display_name(),
            message,
            notes,
        };
        if ws.exempt(f) {
            continue;
        } else if reviewed(root) {
            // Stale escape hatch: no site reachable through any
            // non-exempt code, other boundaries included.
            let any = |n: usize| direct.contains_key(&n);
            if cg
                .find_path(root, any, |n| !ws.exempt(&ws.fns[n]))
                .is_none()
            {
                let note = "remove the annotation — reviewed exemptions must cover a real, \
                            deliberate site";
                out.push(diag(
                    ob.codes[2],
                    ob.stale.to_string(),
                    vec![note.to_string()],
                ));
            }
            continue;
        } else if !f.has_marker(ob.root) {
            continue;
        }
        let Some(chain) = cg.find_path(root, target, enter) else {
            continue;
        };
        let bad = *chain.last().expect("chain holds at least the root");
        let ((what, line), bad_fn) = (&direct[&bad], &ws.fns[bad]);
        let (name, file) = (bad_fn.display_name(), &ws.file(bad_fn).path);
        let mut notes = vec![format!("{what} in `{name}` at {file}:{line}")];
        let (code, message) = if bad == root {
            (ob.codes[0], format!("{} ({what})", ob.direct))
        } else {
            let path: Vec<String> = chain.iter().map(|&i| ws.fns[i].display_name()).collect();
            notes.push(format!("call path: {}", path.join(" -> ")));
            (ob.codes[1], format!("{} through `{name}`", ob.reaches))
        };
        notes.push(ob.hint.to_string());
        out.push(diag(code, message, notes));
    }
    out
}
