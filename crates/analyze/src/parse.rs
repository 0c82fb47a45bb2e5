//! Item-level parsing over the token stream: functions (with their
//! attributes, impl context, body token ranges, parameters and `let`
//! bindings), struct field types, and the expression-level helpers the
//! passes share (call sites, expression ends, type heads, control-flow
//! headers).
//!
//! This is deliberately not a full Rust parser. It tracks exactly the
//! structure the passes need — which function a token belongs to, what
//! type an `impl` block targets, what a struct field, parameter or `let`
//! declares — and treats everything else as an opaque token soup. A
//! pass that needs one more syntactic fact adds it here, so every pass
//! reads the code the same way.

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
    /// The typed parameters of the signature.
    pub params: Vec<Param>,
    /// The body's `let` statements and statement-level reassignments,
    /// in token order (nested blocks and closures included).
    pub bindings: Vec<Binding>,
}

/// A parameter `[mut] name: Ty` of a function signature.
#[derive(Debug)]
pub struct Param {
    pub name: String,
    /// Token range of the declared type.
    pub ty: (usize, usize),
}

/// A `let` statement, or a statement-level reassignment `name = expr;`.
#[derive(Debug)]
pub struct Binding {
    /// A `let` (otherwise a reassignment of an existing name).
    pub is_let: bool,
    /// The bound name, only for a plain `[mut] ident` pattern: `_`,
    /// tuple, struct and `let … else` patterns bind no tracked name.
    pub name: Option<String>,
    /// Token index of the pattern's first token (the name, if any).
    pub name_tok: usize,
    /// Token range of the type annotation.
    pub ty: Option<(usize, usize)>,
    /// Token range of the initializer (for `let … else`, through the
    /// else block).
    pub init: Option<(usize, usize)>,
    /// From `let` (or the assigned name) to the terminating `;`,
    /// exclusive.
    pub stmt: (usize, usize),
}

impl FnDef {
    /// Does any attribute mention `marker` (e.g. `tcc_no_alloc`)?
    pub fn has_marker(&self, marker: &str) -> bool {
        self.attrs.iter().any(|a| a.contains(marker))
    }

    /// The innermost `let` whose initializer contains token `tok`: the
    /// statement that binds the value of an expression at `tok`.
    pub fn let_around(&self, tok: usize) -> Option<&Binding> {
        self.bindings
            .iter()
            .rev()
            .find(|b| b.is_let && b.init.is_some_and(|(s, e)| s <= tok && tok < e))
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
                let j = head_end(toks, i + 1, toks.len());
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
                let j = head_end(toks, i + 1, toks.len());
                let header = &toks[i + 1..j];
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
                // Signature runs to the body `{` or a `;` (trait decl).
                let j = head_end(toks, i + 2, toks.len());
                let sig = (i + 2, j);
                let in_test_scope = scopes.iter().any(|s| s.is_test);
                let is_test =
                    in_test_scope || attrs.iter().any(|a| a == "test" || a.starts_with("test "));
                let owner = scopes.iter().rev().find(|s| s.qual.is_some());
                let body = toks
                    .get(j)
                    .is_some_and(|t| t.is("{"))
                    .then(|| (j, skip_balanced(toks, j, "{", "}")));
                out.fns.push(FnDef {
                    file: file_idx,
                    name,
                    qual: owner.and_then(|s| s.qual.clone()),
                    in_trait: owner.is_some_and(|s| s.is_trait),
                    attrs,
                    sig,
                    body,
                    line,
                    is_test,
                    params: params(toks, sig),
                    bindings: body.map(|b| bindings(toks, b)).unwrap_or_default(),
                });
                // Do NOT skip a body: nested items inside it should still
                // be parsed (they are rare but legal). Scopes and depth
                // tracking handle the braces naturally.
                i = if body.is_some() { j } else { j + 1 };
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
    let mut angle = 0i32;
    let mut name = None;
    for (k, t) in header.iter().enumerate() {
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            ">>" => angle -= 2,
            _ if angle > 0 => {}
            "where" => break,
            // `Trait for Type`: the target follows (`for<'a>` is a bound).
            "for" if header.get(k + 1).is_none_or(|n| !n.is("<")) => name = None,
            _ if t.kind == TokKind::Ident && !is_keyword(&t.text) => name = Some(t.text.clone()),
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
    if toks.get(j).is_some_and(|t| t.is("<")) {
        j = skip_angles(toks, j);
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
                let t = type_end(body, k + 2, body.len(), &[","]);
                fields.push(FieldDef {
                    owner: name.clone(),
                    name: name_tok.text.clone(),
                    ty: join(&body[k + 2..t]),
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

/// Index of the delimiter opening the group closed at `close` (the
/// backward twin of [`skip_balanced`]); 0 when unmatched.
pub(crate) fn group_start(toks: &[Tok], close: usize, l: &str, r: &str) -> usize {
    let mut depth = 0i32;
    for k in (0..=close).rev() {
        if toks[k].is(r) {
            depth += 1;
        } else if toks[k].is(l) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    0
}

/// Index just past the `<..>` group opened at `open` (`>>` closes two).
fn skip_angles(toks: &[Tok], open: usize) -> usize {
    let mut angle = 0i32;
    let mut j = open;
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
    j
}

/// Where the argument list of a call named at `name` would open: just
/// past the name, or past a turbofish (`collect::<Vec<_>>(`).
pub(crate) fn args_open(toks: &[Tok], name: usize) -> usize {
    let j = name + 1;
    if toks.get(j).is_some_and(|t| t.is("::")) && toks.get(j + 1).is_some_and(|t| t.is("<")) {
        skip_angles(toks, j + 1)
    } else {
        j
    }
}

/// End of a type starting at `start`: the first token in `stops` at
/// nesting depth zero (angle brackets count), or `end`.
fn type_end(toks: &[Tok], start: usize, end: usize, stops: &[&str]) -> usize {
    let mut nest = 0i32;
    let mut k = start;
    while k < end {
        match toks[k].text.as_str() {
            "<" | "(" | "[" => nest += 1,
            ">" | ")" | "]" => nest -= 1,
            ">>" => nest -= 2,
            s if nest <= 0 && stops.contains(&s) => break,
            _ => {}
        }
        k += 1;
    }
    k
}

/// Index of the first token in `stops` at or after `start` that is not
/// nested in a `()`/`[]`/`{}` group opened after `start`, or `hi`.
pub(crate) fn find_depth0(toks: &[Tok], start: usize, hi: usize, stops: &[&str]) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().take(hi).skip(start) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            s if depth <= 0 && stops.contains(&s) => return k,
            _ => {}
        }
    }
    hi
}

/// End of the expression starting at `start`: the index of its
/// terminating token — a depth-zero `;` (or `,` when `stop_comma`, as
/// after a match arm or an argument), the closing delimiter of the
/// enclosing group, or `hi`. A turbofish (`::<…>`) is skipped whole, so
/// the commas between its type arguments end nothing.
pub(crate) fn expr_end(toks: &[Tok], start: usize, hi: usize, stop_comma: bool) -> usize {
    let mut depth = 0i32;
    let mut j = start;
    while j < hi.min(toks.len()) {
        match toks[j].text.as_str() {
            "::" if toks.get(j + 1).is_some_and(|t| t.is("<")) => {
                j = skip_angles(toks, j + 1);
                continue;
            }
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            ";" if depth == 0 => return j,
            "," if depth == 0 && stop_comma => return j,
            _ => {}
        }
        j += 1;
    }
    hi
}

/// The first concrete type name of a type snippet, past `&`, `mut`,
/// `dyn`, `<` and lifetimes: `HashMap` for `&'a mut HashMap<K, V>`.
pub(crate) fn type_head(toks: &[Tok]) -> Option<&str> {
    for t in toks {
        match t.kind {
            TokKind::Punct if matches!(t.text.as_str(), "&" | "<") => continue,
            TokKind::Lifetime => continue,
            TokKind::Ident if matches!(t.text.as_str(), "mut" | "dyn") => continue,
            TokKind::Ident => return Some(&t.text),
            _ => return None,
        }
    }
    None
}

/// Split the header of an `if`/`match`/`while`/`for` whose keyword sits
/// just before `start` into the index where its expression starts (the
/// condition, scrutinee or iterated expression) and the index of the
/// body's `{` (`hi` when there is none). `if let PAT =` / `while let PAT
/// =` and `for PAT in` skip the pattern first (struct patterns may
/// contain `{`); after it, Rust's ban on struct literals in condition
/// position makes the first depth-zero `{` the body.
pub(crate) fn header_split(toks: &[Tok], start: usize, hi: usize) -> (usize, usize) {
    let hi = hi.min(toks.len());
    let past = |j: usize, sep: &str| (find_depth0(toks, j, hi, &[sep]) + 1).min(hi);
    let expr = if toks.get(start).is_some_and(|t| t.is_ident("let")) {
        past(start + 1, "=")
    } else if start
        .checked_sub(1)
        .is_some_and(|k| toks[k].is_ident("for"))
    {
        past(start, "in")
    } else {
        start
    };
    let open = head_end(toks, expr, hi);
    (
        expr,
        if toks.get(open).is_some_and(|t| t.is("{")) {
            open
        } else {
            hi
        },
    )
}

/// End of an item or control-flow head starting at `start`: the first
/// `{` or `;` outside parentheses and brackets, or `hi`.
pub(crate) fn head_end(toks: &[Tok], start: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().take(hi).skip(start) {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" | ";" if depth <= 0 => return j,
            _ => {}
        }
    }
    hi
}

/// The typed parameters of a signature `[<generics>] (p: T, ..) ...`.
fn params(toks: &[Tok], sig: (usize, usize)) -> Vec<Param> {
    let mut k = sig.0;
    if toks.get(k).is_some_and(|t| t.is("<")) {
        k = skip_angles(toks, k);
    }
    if k >= sig.1 || !toks[k].is("(") {
        return Vec::new();
    }
    let close = skip_balanced(toks, k, "(", ")").saturating_sub(1);
    let mut out = Vec::new();
    k += 1;
    while k < close {
        let end = type_end(toks, k, close, &[","]);
        let n = if toks[k].is_ident("mut") { k + 1 } else { k };
        if n + 1 < end && toks[n].kind == TokKind::Ident && toks[n + 1].is(":") {
            out.push(Param {
                name: toks[n].text.clone(),
                ty: (n + 2, end),
            });
        }
        k = end + 1;
    }
    out
}

/// The `let` statements and statement-level reassignments of a body
/// (token range including braces), in token order.
fn bindings(toks: &[Tok], body: (usize, usize)) -> Vec<Binding> {
    let hi = body.1.min(toks.len());
    let mut out = Vec::new();
    for i in body.0 + 1..hi {
        let t = &toks[i];
        let prev = toks[i - 1].text.as_str();
        if t.is_ident("let") && !matches!(prev, "if" | "while") {
            let p = if toks.get(i + 1).is_some_and(|t| t.is_ident("mut")) {
                i + 2
            } else {
                i + 1
            };
            let mut k = find_depth0(toks, p, hi, &[":", "=", ";"]);
            let plain = k == p + 1
                && toks[p].kind == TokKind::Ident
                && toks[p].text != "_"
                && !is_keyword(&toks[p].text);
            let mut ty = None;
            if toks.get(k).is_some_and(|t| t.is(":")) {
                let e = type_end(toks, k + 1, hi, &["=", ";"]);
                ty = Some((k + 1, e));
                k = e;
            }
            let mut init = None;
            if toks.get(k).is_some_and(|t| t.is("=")) {
                let e = expr_end(toks, k + 1, hi, false);
                init = Some((k + 1, e));
                k = e;
            }
            out.push(Binding {
                is_let: true,
                name: plain.then(|| toks[p].text.clone()),
                name_tok: p,
                ty,
                init,
                stmt: (i, k),
            });
        } else if t.kind == TokKind::Ident
            && !is_keyword(&t.text)
            && toks.get(i + 1).is_some_and(|n| n.is("="))
            && matches!(prev, ";" | "{" | "}")
        {
            let e = expr_end(toks, i + 2, hi, false);
            out.push(Binding {
                is_let: false,
                name: Some(t.text.clone()),
                name_tok: i,
                ty: None,
                init: Some((i + 2, e)),
                stmt: (i, e),
            });
        }
    }
    out
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
            if toks.get(args_open(toks, i)).is_some_and(|t| t.is("(")) {
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

    /// `(name, type text, initializer text)` of each `let` in the first fn.
    fn lets(src: &str) -> Vec<(Option<String>, Option<String>, Option<String>)> {
        let (f, p) = parsed(src);
        let text = |r: Option<(usize, usize)>| r.map(|(s, e)| join(&f.toks[s..e]));
        p.fns[0]
            .bindings
            .iter()
            .filter(|b| b.is_let)
            .map(|b| (b.name.clone(), text(b.ty), text(b.init)))
            .collect()
    }

    fn some(s: &str) -> Option<String> {
        Some(s.to_string())
    }

    #[test]
    fn plain_lets_bind_their_name_type_and_initializer() {
        let src = "fn f() { let x; let mut y: Vec<(u8, u8)> = g(1, 2); let z: T; }";
        let (f, p) = parsed(src);
        for b in &p.fns[0].bindings {
            assert!(f.toks[b.stmt.0].is("let") && f.toks[b.stmt.1].is(";"));
        }
        let l = lets(src);
        assert_eq!(l[0], (some("x"), None, None));
        assert_eq!(
            l[1],
            (some("y"), some("Vec < ( u8 , u8 ) >"), some("g ( 1 , 2 )"))
        );
        assert_eq!(l[2], (some("z"), some("T"), None));
    }

    #[test]
    fn patterns_bind_no_tracked_name() {
        let l = lets(
            "fn f() { let _ = e; let (a, b) = e; let S { a, .. } = e; let Some(x) = e else { return; }; }",
        );
        assert!(l.iter().all(|(name, _, _)| name.is_none()), "{l:?}");
        assert_eq!(l[0].2, some("e"));
        assert_eq!(l[3].2, some("e else { return ; }"));
    }

    #[test]
    fn a_long_typed_let_still_binds_the_call_inside_it() {
        let ty = vec!["u8"; 30].join(", ");
        let src = format!("fn f() {{ let x: ({ty}) = h(); }}");
        let (f, p) = parsed(&src);
        let h = f.toks.iter().position(|t| t.is("h")).unwrap();
        let b = p.fns[0].let_around(h).expect("h() is x's initializer");
        assert_eq!(b.name.as_deref(), Some("x"));
        assert!(b.ty.is_some_and(|(s, e)| e - s > 40));
    }

    #[test]
    fn params_and_reassignments_enter_the_table() {
        let (f, p) = parsed("fn f<'a, T>(mut m: &'a HashMap<u64, T>, &self) { lo = lo.min(x); }");
        let f0 = &p.fns[0];
        assert_eq!(f0.params.len(), 1);
        let (s, e) = f0.params[0].ty;
        assert_eq!(f0.params[0].name, "m");
        assert_eq!(type_head(&f.toks[s..e]), Some("HashMap"));
        let b = &f0.bindings[0];
        assert!(!b.is_let);
        assert_eq!(b.name.as_deref(), Some("lo"));
    }

    #[test]
    fn expr_end_skips_commas_inside_a_turbofish() {
        let src = "match x { 0 => v.iter().collect::<HashMap<u32, u32>>().len(), _ => 1, }";
        let f = SourceFile::new("t.rs".into(), "fixture".into(), src);
        let arm = f.toks.iter().position(|t| t.is("=>")).unwrap() + 1;
        let end = expr_end(&f.toks, arm, f.toks.len(), true);
        assert_eq!(
            join(&f.toks[arm..end]),
            "v . iter ( ) . collect :: < HashMap < u32 , u32 >> ( ) . len ( )"
        );
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
