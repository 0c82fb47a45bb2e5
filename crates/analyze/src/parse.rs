//! Item-level parsing over the token stream: functions (with their
//! attributes, impl context and body token ranges), struct field types,
//! and expression-level helpers (call-site extraction) the passes share.
//!
//! This is deliberately not a full Rust parser. It tracks exactly the
//! structure the four passes need — which function a token belongs to,
//! what type an `impl` block targets, what a struct field's declared
//! type text is — and treats everything else as an opaque token soup.

use crate::lexer::{lex, Tok, TokKind};

/// One loaded source file: its tokens plus the `tcc-analyze: allow(..)`
/// directives harvested from comments before lexing dropped them.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Owning crate directory name (`core`, `fabric`, ...); the synthetic
    /// crate name `fixture` for sources injected by tests.
    pub crate_name: String,
    pub toks: Vec<Tok>,
    /// Lines carrying `tcc-analyze: allow(code)` — a diagnostic on that
    /// line or the next is suppressed.
    pub allows: Vec<(u32, String)>,
}

impl SourceFile {
    pub fn new(path: String, crate_name: String, src: &str) -> SourceFile {
        let mut allows = Vec::new();
        for (n, line) in src.lines().enumerate() {
            if let Some(at) = line.find("tcc-analyze: allow(") {
                let rest = &line[at + "tcc-analyze: allow(".len()..];
                if let Some(end) = rest.find(')') {
                    allows.push((n as u32 + 1, rest[..end].trim().to_string()));
                }
            }
        }
        SourceFile {
            path,
            crate_name,
            toks: lex(src),
            allows,
        }
    }

    /// Is a diagnostic with `code` at `line` suppressed by an allow
    /// directive on the same or the preceding line?
    pub fn allowed(&self, line: u32, code: &str) -> bool {
        self.allows
            .iter()
            .any(|(l, c)| (*l == line || l + 1 == line) && c == code)
    }
}

/// A parsed function definition.
#[derive(Debug)]
pub struct FnDef {
    /// Index into the workspace's file table.
    pub file: usize,
    pub name: String,
    /// The `impl`/`trait` target type name, if this is a method.
    pub qual: Option<String>,
    /// `qual` names a trait (a default or declared trait method), not an
    /// impl target.
    pub in_trait: bool,
    /// Raw text of each attribute on the fn, tokens space-joined
    /// (`cfg_attr ( lint , tcc_no_alloc )`).
    pub attrs: Vec<String>,
    /// Token range of the signature (after the name, up to the body).
    pub sig: (usize, usize),
    /// Token range of the body including braces; `None` for trait
    /// method declarations.
    pub body: Option<(usize, usize)>,
    pub line: u32,
    /// Inside a `#[cfg(test)]` module or carrying `#[test]`.
    pub is_test: bool,
}

impl FnDef {
    /// Does any attribute mention `marker` (e.g. `tcc_no_alloc`)?
    pub fn has_marker(&self, marker: &str) -> bool {
        self.attrs.iter().any(|a| a.contains(marker))
    }

    /// `Type::name` or bare `name` for free functions.
    pub fn display_name(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A struct field with its declared type text (tokens space-joined).
#[derive(Debug)]
pub struct FieldDef {
    pub owner: String,
    pub name: String,
    pub ty: String,
}

/// Everything parsed out of one file.
#[derive(Debug, Default)]
pub struct Parsed {
    pub fns: Vec<FnDef>,
    pub fields: Vec<FieldDef>,
}

/// Keywords that must never be mistaken for call names.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "fn",
    "pub", "mod", "use", "impl", "trait", "struct", "enum", "union", "type", "const", "static",
    "unsafe", "move", "ref", "mut", "as", "in", "where", "dyn", "async", "await", "crate", "super",
    "extern", "box",
];

pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

struct Scope {
    /// Brace depth *before* this scope's `{` opened.
    depth: usize,
    /// The impl/trait target type, if any.
    qual: Option<String>,
    is_trait: bool,
    is_test: bool,
}

/// Parse a file's token stream into function and field definitions.
pub fn parse_file(file_idx: usize, f: &SourceFile) -> Parsed {
    let toks = &f.toks;
    let mut out = Parsed::default();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut depth = 0usize;
    let mut pending_attrs: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => {
                depth += 1;
                i += 1;
            }
            (TokKind::Punct, "}") => {
                depth = depth.saturating_sub(1);
                while scopes.last().is_some_and(|s| s.depth >= depth) {
                    scopes.pop();
                }
                i += 1;
            }
            (TokKind::Punct, "#") => {
                // `#[attr]` collected; `#![inner]` skipped.
                let inner = toks.get(i + 1).is_some_and(|t| t.is("!"));
                let open = if inner { i + 2 } else { i + 1 };
                if toks.get(open).is_some_and(|t| t.is("[")) {
                    let end = skip_balanced(toks, open, "[", "]");
                    if !inner {
                        let text = join(&toks[open + 1..end.saturating_sub(1)]);
                        pending_attrs.push(text);
                    }
                    i = end;
                } else {
                    i += 1;
                }
            }
            (TokKind::Ident, "mod") => {
                let attrs = std::mem::take(&mut pending_attrs);
                let is_test = attrs
                    .iter()
                    .any(|a| a.contains("cfg") && a.contains("test"))
                    || scopes.last().is_some_and(|s| s.is_test);
                // `mod name { ... }` opens a scope; `mod name;` does not.
                let mut j = i + 1;
                while j < toks.len() && !toks[j].is("{") && !toks[j].is(";") {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.is("{")) {
                    scopes.push(Scope {
                        depth,
                        qual: None,
                        is_trait: false,
                        is_test,
                    });
                    depth += 1;
                }
                i = j + 1;
            }
            (TokKind::Ident, "impl") | (TokKind::Ident, "trait") => {
                let is_trait = t.text == "trait";
                pending_attrs.clear();
                // Collect header tokens up to the `{` (or `;` for a
                // declaration like `trait Foo: Bar;` — rare).
                let mut j = i + 1;
                while j < toks.len() && !toks[j].is("{") && !toks[j].is(";") {
                    j += 1;
                }
                let header = &toks[i + 1..j.min(toks.len())];
                let qual = if is_trait {
                    header
                        .iter()
                        .find(|t| t.kind == TokKind::Ident && !is_keyword(&t.text))
                        .map(|t| t.text.clone())
                } else {
                    impl_target(header)
                };
                if toks.get(j).is_some_and(|t| t.is("{")) {
                    let is_test = scopes.last().is_some_and(|s| s.is_test);
                    scopes.push(Scope {
                        depth,
                        qual,
                        is_trait,
                        is_test,
                    });
                    depth += 1;
                }
                i = j + 1;
            }
            (TokKind::Ident, "struct") => {
                pending_attrs.clear();
                i = parse_struct(toks, i, &mut out.fields);
            }
            (TokKind::Ident, "fn") => {
                let attrs = std::mem::take(&mut pending_attrs);
                let Some(name_tok) = toks.get(i + 1) else {
                    break;
                };
                let name = name_tok.text.clone();
                let line = name_tok.line;
                // Signature runs to the body `{` or a `;` (trait decl),
                // at paren/bracket depth zero.
                let mut j = i + 2;
                let mut pdepth = 0i32;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "(" | "[" => pdepth += 1,
                        ")" | "]" => pdepth -= 1,
                        "{" if pdepth == 0 => break,
                        ";" if pdepth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                let sig = (i + 2, j);
                let in_test_scope = scopes.iter().any(|s| s.is_test);
                let is_test =
                    in_test_scope || attrs.iter().any(|a| a == "test" || a.starts_with("test "));
                let owner = scopes.iter().rev().find(|s| s.qual.is_some());
                let qual = owner.and_then(|s| s.qual.clone());
                let in_trait = owner.is_some_and(|s| s.is_trait);
                if toks.get(j).is_some_and(|t| t.is("{")) {
                    let end = skip_balanced(toks, j, "{", "}");
                    out.fns.push(FnDef {
                        file: file_idx,
                        name,
                        qual,
                        in_trait,
                        attrs,
                        sig,
                        body: Some((j, end)),
                        line,
                        is_test,
                    });
                    // Do NOT skip the body: nested items inside it should
                    // still be parsed (they are rare but legal). Scopes
                    // and depth tracking handle the braces naturally.
                    i = j;
                } else {
                    out.fns.push(FnDef {
                        file: file_idx,
                        name,
                        qual,
                        in_trait,
                        attrs,
                        sig,
                        body: None,
                        line,
                        is_test,
                    });
                    i = j + 1;
                }
            }
            (TokKind::Ident, "use") => {
                pending_attrs.clear();
                while i < toks.len() && !toks[i].is(";") {
                    i += 1;
                }
                i += 1;
            }
            _ => {
                if t.kind != TokKind::Punct || t.text != "#" {
                    // An attribute applies only to the *next* item; any
                    // other significant token consumes it (statement
                    // attrs like `#[allow]` on a `let`).
                    if !pending_attrs.is_empty()
                        && !matches!(
                            t.text.as_str(),
                            "pub" | "(" | ")" | "crate" | "super" | "in"
                        )
                    {
                        pending_attrs.clear();
                    }
                }
                i += 1;
            }
        }
    }
    out
}

/// The target type name of an `impl` header: the last identifier at
/// angle-depth zero of the type part (after `for` if a trait impl),
/// skipping generics, references and the trailing `where` clause.
fn impl_target(header: &[Tok]) -> Option<String> {
    // Split off `where ...`.
    let mut end = header.len();
    let mut angle = 0i32;
    for (k, t) in header.iter().enumerate() {
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            ">>" => angle -= 2,
            "where" if angle <= 0 => {
                end = k;
                break;
            }
            _ => {}
        }
    }
    let header = &header[..end];
    // Find `for` at angle-depth zero (not `for<'a>` HRTB).
    let mut angle = 0i32;
    let mut ty_start = 0usize;
    for (k, t) in header.iter().enumerate() {
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            ">>" => angle -= 2,
            "for" if angle <= 0 && header.get(k + 1).map(|t| t.text.as_str()) != Some("<") => {
                ty_start = k + 1;
            }
            _ => {}
        }
    }
    let ty = &header[ty_start..];
    let mut angle = 0i32;
    let mut name = None;
    for t in ty {
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            ">>" => angle -= 2,
            _ if angle <= 0 && t.kind == TokKind::Ident && !is_keyword(&t.text) => {
                name = Some(t.text.clone());
            }
            _ => {}
        }
    }
    name
}

/// Parse `struct Name { field: Ty, .. }`; returns the index past the item.
fn parse_struct(toks: &[Tok], i: usize, fields: &mut Vec<FieldDef>) -> usize {
    let Some(name) = toks.get(i + 1).map(|t| t.text.clone()) else {
        return i + 1;
    };
    let mut j = i + 2;
    // Skip generics.
    if toks.get(j).is_some_and(|t| t.is("<")) {
        let mut angle = 0i32;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                _ => {}
            }
            j += 1;
            if angle <= 0 {
                break;
            }
        }
    }
    match toks.get(j).map(|t| t.text.as_str()) {
        Some("{") => {
            let end = skip_balanced(toks, j, "{", "}");
            let body = &toks[j + 1..end.saturating_sub(1)];
            // Split fields at top-level commas: `[attrs] [pub[(..)]] name : ty`.
            let mut k = 0usize;
            while k < body.len() {
                // Skip attributes and visibility.
                while k < body.len() {
                    if body[k].is("#") && body.get(k + 1).is_some_and(|t| t.is("[")) {
                        k = skip_balanced(body, k + 1, "[", "]");
                    } else if body[k].is_ident("pub") {
                        k += 1;
                        if body.get(k).is_some_and(|t| t.is("(")) {
                            k = skip_balanced(body, k, "(", ")");
                        }
                    } else {
                        break;
                    }
                }
                let Some(name_tok) = body.get(k) else { break };
                if name_tok.kind != TokKind::Ident || !body.get(k + 1).is_some_and(|t| t.is(":")) {
                    k += 1;
                    continue;
                }
                let fname = name_tok.text.clone();
                let mut t = k + 2;
                let ty_start = t;
                let mut nest = 0i32;
                while t < body.len() {
                    match body[t].text.as_str() {
                        "<" | "(" | "[" => nest += 1,
                        ">" | ")" | "]" => nest -= 1,
                        ">>" => nest -= 2,
                        "," if nest <= 0 => break,
                        _ => {}
                    }
                    t += 1;
                }
                fields.push(FieldDef {
                    owner: name.clone(),
                    name: fname,
                    ty: join(&body[ty_start..t]),
                });
                k = t + 1;
            }
            end
        }
        // Tuple struct or unit struct: no named fields.
        Some("(") => skip_balanced(toks, j, "(", ")"),
        _ => j + 1,
    }
}

/// Index just past the group opened by the delimiter at `open`.
pub fn skip_balanced(toks: &[Tok], open: usize, l: &str, r: &str) -> usize {
    debug_assert!(toks[open].is(l));
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is(l) {
            depth += 1;
        } else if toks[i].is(r) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Space-join token texts (for attribute/type snippets).
pub fn join(toks: &[Tok]) -> String {
    let mut s = String::new();
    for t in toks {
        if !s.is_empty() {
            s.push(' ');
        }
        s.push_str(&t.text);
    }
    s
}

/// How a call site was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(..)` or `path::foo(..)`.
    Path,
    /// `.foo(..)`.
    Method,
    /// `foo!(..)`.
    Macro,
}

/// One call site inside a function body.
#[derive(Debug)]
pub struct CallSite {
    pub kind: CallKind,
    pub name: String,
    /// The path segment immediately before the name (`Vec` in
    /// `Vec::new`, `channel` in `channel::serialization_ps`).
    pub qual: Option<String>,
    /// Token index of the name.
    pub tok: usize,
    pub line: u32,
}

/// Extract every call site in `toks[range]`. Indexes are absolute (into
/// the file's token vector).
pub fn call_sites(toks: &[Tok], range: (usize, usize)) -> Vec<CallSite> {
    let mut out = Vec::new();
    let (start, end) = range;
    let mut i = start;
    while i < end.min(toks.len()) {
        let t = &toks[i];
        if t.kind == TokKind::Ident && !is_keyword(&t.text) {
            let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
            let is_method = prev == Some(".");
            // Where would an argument list start? Allow a turbofish:
            // name ::<T,..> ( ... )
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is("::")) && toks.get(j + 1).is_some_and(|t| t.is("<"))
            {
                let mut angle = 0i32;
                j += 1;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        ">>" => angle -= 2,
                        _ => {}
                    }
                    j += 1;
                    if angle <= 0 {
                        break;
                    }
                }
            }
            if toks.get(j).is_some_and(|t| t.is("(")) {
                let qual = if !is_method && prev == Some("::") {
                    i.checked_sub(2).map(|q| toks[q].text.clone())
                } else {
                    None
                };
                // `fn name(` is a definition, not a call.
                if prev != Some("fn") {
                    out.push(CallSite {
                        kind: if is_method {
                            CallKind::Method
                        } else {
                            CallKind::Path
                        },
                        name: t.text.clone(),
                        qual,
                        tok: i,
                        line: t.line,
                    });
                }
            } else if toks.get(i + 1).is_some_and(|t| t.is("!"))
                && toks
                    .get(i + 2)
                    .is_some_and(|t| matches!(t.text.as_str(), "(" | "[" | "{"))
            {
                out.push(CallSite {
                    kind: CallKind::Macro,
                    name: t.text.clone(),
                    qual: None,
                    tok: i,
                    line: t.line,
                });
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(src: &str) -> (SourceFile, Parsed) {
        let f = SourceFile::new("test.rs".into(), "fixture".into(), src);
        let p = parse_file(0, &f);
        (f, p)
    }

    #[test]
    fn fns_get_impl_quals_and_attrs() {
        let src = "
            #[cfg_attr(lint, tcc_no_alloc)]
            pub fn free(x: u64) -> u64 { x }
            impl Foo {
                fn method(&self) {}
            }
            impl Display for Bar<T> {
                fn fmt(&self) {}
            }
        ";
        let (_, p) = parsed(src);
        let names: Vec<_> = p.fns.iter().map(|f| f.display_name()).collect();
        assert_eq!(names, ["free", "Foo::method", "Bar::fmt"]);
        assert!(p.fns[0].has_marker("tcc_no_alloc"));
        assert!(!p.fns[1].has_marker("tcc_no_alloc"));
    }

    #[test]
    fn cfg_test_modules_mark_fns() {
        let src = "
            fn live() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { live(); }
            }
        ";
        let (_, p) = parsed(src);
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test);
    }

    #[test]
    fn struct_fields_keep_type_text() {
        let src = "
            pub struct S {
                pub at: SimTime,
                map: HashMap<u64, Vec<u8>>,
                n: usize,
            }
        ";
        let (_, p) = parsed(src);
        let tys: Vec<_> = p
            .fields
            .iter()
            .map(|f| (f.name.as_str(), f.ty.as_str()))
            .collect();
        assert_eq!(tys[0], ("at", "SimTime"));
        assert!(tys[1].1.contains("HashMap"));
        assert_eq!(tys[2], ("n", "usize"));
    }

    #[test]
    fn call_sites_classify_path_method_macro() {
        let src = "fn f() { helper(); Vec::with_capacity(4); x.lock(); vec![1]; it.collect::<Vec<_>>(); }";
        let (f, p) = parsed(src);
        let body = p.fns[0].body.unwrap();
        let calls = call_sites(&f.toks, body);
        let sig: Vec<_> = calls
            .iter()
            .map(|c| (c.kind, c.name.as_str(), c.qual.as_deref()))
            .collect();
        assert!(sig.contains(&(CallKind::Path, "helper", None)));
        assert!(sig.contains(&(CallKind::Path, "with_capacity", Some("Vec"))));
        assert!(sig.contains(&(CallKind::Method, "lock", None)));
        assert!(sig.contains(&(CallKind::Macro, "vec", None)));
        assert!(sig.contains(&(CallKind::Method, "collect", None)));
    }

    #[test]
    fn nested_fns_are_found() {
        let src = "fn outer() { fn inner() { Vec::new(); } inner(); }";
        let (_, p) = parsed(src);
        let names: Vec<_> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
    }

    #[test]
    fn allow_directives_are_harvested() {
        let src = "fn f() {\n    // tcc-analyze: allow(det.wallclock)\n    now();\n}\n";
        let f = SourceFile::new("t.rs".into(), "fixture".into(), src);
        assert!(f.allowed(2, "det.wallclock"));
        assert!(f.allowed(3, "det.wallclock"));
        assert!(!f.allowed(4, "det.wallclock"));
        assert!(!f.allowed(3, "det.randomness"));
    }
}
