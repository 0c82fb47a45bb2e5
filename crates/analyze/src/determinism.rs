//! Pass 5 — determinism bans.
//!
//! The simulator's contract is bit-identical results for identical
//! inputs — the parallel fabric's conformance suite and the replay
//! tooling both depend on it. Three things silently break that contract
//! and none of them is a type error:
//!
//! - **wallclock** (`Instant::now`, `SystemTime::now`, `thread::sleep`):
//!   real time leaking into simulated time. `clippy.toml` already bans
//!   the method calls workspace-wide; this pass keeps the ban inside the
//!   analyzer's single report and covers fixture code clippy never sees.
//! - **entropy-seeded randomness** (`thread_rng`, `from_entropy`,
//!   `rand::random`, `RandomState`): seeded generators (`from_seed`,
//!   `seed_from_u64`) are fine and are not flagged.
//! - **`HashMap`/`HashSet` iteration**: iteration order varies run to
//!   run. Keyed access (`get`, `insert`, `entry`, `remove`) is fine;
//!   `.iter()`, `.keys()`, `.values()`, `.drain()` and `for .. in &map`
//!   are flagged. Containers are found by declared type — struct fields,
//!   `let` annotations/initialisers and parameters — not by name.
//!
//! The bench harness and xtask (see [`crate::EXEMPT_CRATES`]) and all
//! test code are exempt: benches legitimately time things, proptest owns
//! its seeding, and tests may iterate freely.

use crate::lexer::{Tok, TokKind};
use crate::parse::{call_sites, header_split, type_head, CallKind, FnDef};
use crate::report::Diagnostic;
use crate::Workspace;
use std::collections::BTreeSet;

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];
const ENTROPY_CALLS: &[&str] = &["thread_rng", "from_entropy", "random"];

pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    // Hash-typed struct fields anywhere in the workspace.
    let hash_fields: BTreeSet<&str> = ws
        .fields
        .iter()
        .filter(|f| HASH_TYPES.contains(&f.ty.split(' ').next().unwrap_or("")))
        .map(|f| f.name.as_str())
        .collect();

    let mut out = Vec::new();
    for f in &ws.fns {
        if ws.exempt(f) {
            continue;
        }
        let Some(body) = f.body else { continue };
        let file = ws.file(f);
        let toks = &file.toks;
        let hash_names = hash_names(f, toks, &hash_fields);

        for c in call_sites(toks, body) {
            match c.kind {
                CallKind::Path => {
                    let q = c.qual.as_deref();
                    if c.name == "now" && matches!(q, Some("Instant") | Some("SystemTime")) {
                        out.push(diag(
                            "det.wallclock",
                            f,
                            file,
                            c.line,
                            format!("wallclock read `{}::now()` in simulation code", q.unwrap()),
                            "derive timing from SimTime; real time is bench-only",
                        ));
                    } else if c.name == "sleep" && q == Some("thread") {
                        out.push(diag(
                            "det.wallclock",
                            f,
                            file,
                            c.line,
                            "`thread::sleep` in simulation code".to_string(),
                            "model latency as simulated Duration, never host delay",
                        ));
                    } else if ENTROPY_CALLS.contains(&c.name.as_str())
                        || (c.name == "new" && q == Some("RandomState"))
                    {
                        out.push(diag(
                            "det.randomness",
                            f,
                            file,
                            c.line,
                            format!("entropy-seeded randomness (`{}`)", c.name),
                            "use a fixed seed (`from_seed`/`seed_from_u64`) so runs replay",
                        ));
                    }
                }
                CallKind::Method => {
                    if ENTROPY_CALLS.contains(&c.name.as_str()) {
                        out.push(diag(
                            "det.randomness",
                            f,
                            file,
                            c.line,
                            format!("entropy-seeded randomness (`.{}()`)", c.name),
                            "use a fixed seed (`from_seed`/`seed_from_u64`) so runs replay",
                        ));
                    } else if ITER_METHODS.contains(&c.name.as_str())
                        && receiver_is_hash(toks, c.tok, &hash_names)
                    {
                        out.push(diag(
                            "det.hashmap-iter",
                            f,
                            file,
                            c.line,
                            format!(
                                "`.{}()` on a HashMap/HashSet: iteration order is unstable",
                                c.name
                            ),
                            "use a BTreeMap/BTreeSet, or collect-and-sort before iterating",
                        ));
                    }
                }
                CallKind::Macro => {}
            }
        }

        // `for pat in <expr> {` iterating a hash container directly.
        for k in body.0..body.1.min(toks.len()) {
            if !toks[k].is_ident("for") {
                continue;
            }
            let (expr, open) = header_split(toks, k + 1, body.1);
            if let Some(line) = iterates_hash(&toks[expr..open], &hash_names) {
                out.push(diag(
                    "det.hashmap-iter",
                    f,
                    file,
                    line,
                    "`for` loop over a HashMap/HashSet: iteration order is unstable".to_string(),
                    "use a BTreeMap/BTreeSet, or collect-and-sort before iterating",
                ));
            }
        }
    }
    out
}

fn diag(
    code: &str,
    f: &FnDef,
    file: &crate::parse::SourceFile,
    line: u32,
    message: String,
    hint: &str,
) -> Diagnostic {
    Diagnostic {
        pass: "determinism",
        code: code.to_string(),
        file: file.path.clone(),
        line,
        function: f.display_name(),
        message,
        notes: vec![hint.to_string()],
    }
}

/// Hash-typed names visible in one function: struct fields,
/// parameters, and `let`s whose type or initializer names a hash type
/// (`let m: HashMap<..>`, `let s = HashSet::new()`).
fn hash_names<'a>(
    f: &'a FnDef,
    toks: &[Tok],
    hash_fields: &BTreeSet<&'a str>,
) -> BTreeSet<&'a str> {
    let is_hash =
        |(s, e): (usize, usize)| type_head(&toks[s..e]).is_some_and(|t| HASH_TYPES.contains(&t));
    let mentions_hash = |(s, e): (usize, usize)| {
        toks[s..e]
            .iter()
            .any(|t| HASH_TYPES.contains(&t.text.as_str()))
    };
    let params = f
        .params
        .iter()
        .filter(|p| is_hash(p.ty))
        .map(|p| p.name.as_str());
    let lets = f.bindings.iter().filter_map(|b| {
        let hashed = b.is_let && (b.ty.is_some_and(is_hash) || b.init.is_some_and(mentions_hash));
        b.name.as_deref().filter(|_| hashed)
    });
    hash_fields
        .iter()
        .copied()
        .chain(params)
        .chain(lets)
        .collect()
}

/// Is the receiver chain of the iter-method call at `tok` a known hash
/// container (last chain component before the method)?
fn receiver_is_hash(toks: &[Tok], tok: usize, hash_names: &BTreeSet<&str>) -> bool {
    // toks[tok] is the method name, toks[tok-1] the `.`.
    tok.checked_sub(2)
        .map(|k| &toks[k])
        .is_some_and(|t| t.kind == TokKind::Ident && hash_names.contains(t.text.as_str()))
}

/// Does a `for` loop's iterated expression consume a hash container
/// directly (`&map`, `self.map`) or through an iter method? Keyed access
/// (`map.get(..)`) is fine. Returns the line of the container name.
fn iterates_hash(expr: &[Tok], hash_names: &BTreeSet<&str>) -> Option<u32> {
    let hit = expr.iter().enumerate().find(|&(m, t)| {
        t.kind == TokKind::Ident
            && hash_names.contains(t.text.as_str())
            && expr.get(m + 1).is_none_or(|n| {
                n.is(".")
                    && expr
                        .get(m + 2)
                        .is_some_and(|n| ITER_METHODS.contains(&n.text.as_str()))
            })
    });
    hit.map(|(_, t)| t.line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(src: &str) -> Vec<Diagnostic> {
        run(&Workspace::from_sources(&[("fix.rs", src)]))
    }

    #[test]
    fn wallclock_is_flagged() {
        let d = diags("fn f() -> Instant { Instant::now() }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, "det.wallclock");
    }

    #[test]
    fn entropy_randomness_is_flagged_seeded_is_not() {
        let d = diags(
            "
            fn bad() { let mut rng = thread_rng(); rng.fill(&mut [0u8; 4]); }
            fn good() { let rng = StdRng::seed_from_u64(42); drop(rng); }
            ",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, "det.randomness");
        assert_eq!(d[0].function, "bad");
    }

    #[test]
    fn hashmap_iteration_is_flagged_keyed_access_is_not() {
        let d = diags(
            "
            struct T { index: HashMap<u64, u32> }
            impl T {
                fn bad(&self) -> u64 { self.index.keys().sum() }
                fn good(&self, k: u64) -> Option<&u32> { self.index.get(&k) }
            }
            ",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, "det.hashmap-iter");
        assert_eq!(d[0].function, "T::bad");
    }

    #[test]
    fn for_loop_over_map_is_flagged() {
        let d = diags(
            "
            fn f(map: &HashMap<u64, u32>) -> u64 {
                let mut sum = 0;
                for (k, v) in map {
                    sum += k + *v as u64;
                }
                sum
            }
            ",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, "det.hashmap-iter");
    }

    #[test]
    fn iteration_over_a_lifetime_borrowed_map_is_flagged() {
        let d = diags("fn f<'a>(m: &'a HashMap<u64, u32>) -> u64 { m.keys().sum() }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, "det.hashmap-iter");
    }

    #[test]
    fn vec_iteration_is_clean() {
        let d = diags(
            "
            fn f(v: &Vec<u64>) -> u64 {
                let mut sum = 0;
                for x in v.iter() { sum += x; }
                sum
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let d = diags(
            "
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { let x = Instant::now(); drop(x); }
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
