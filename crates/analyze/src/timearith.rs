//! Pass 4 — time-arithmetic overflow hygiene.
//!
//! Simulated time is picoseconds in a `u64`; at that resolution the
//! counter holds ~213 days, so overflow is a real failure mode for long
//! runs and for the `SimTime::MAX` "never" sentinel. The rule: raw
//! `+`/`-`/`*` (and the compound-assign forms) on a picosecond-valued
//! expression must instead use `checked_`/`saturating_`/`wrapping_`
//! methods or go through a blessed newtype operator (`SimTime +
//! Duration`, whose impl is itself checked by this pass at the `.0`
//! level).
//!
//! What counts as a *raw picosecond value* (an operand that triggers a
//! diagnostic) is deliberately strict, so index/count arithmetic nearby
//! is not flagged:
//!
//! - `.picos()` call chains,
//! - `.0` on a time-typed base (a `SimTime`/`Duration` field, local,
//!   parameter, or `self` inside an `impl SimTime`/`impl Duration`),
//! - a bare local previously bound from such a value (`let lo =
//!   k.at.0;` taints `lo`), where `.min`/`.max` preserve the unit and
//!   any other method call — or a scale-destroying operator (`>>`, `<<`,
//!   `/`, `%`, bitwise masks) — launders it back to a plain integer.
//!
//! Additionally any bare arithmetic inside a `SimTime(..)`/`Duration(..)`
//! constructor argument is flagged (`Duration(ns * 1_000)`): the result
//! *becomes* picoseconds, so the scaling itself must be checked.
//!
//! Production scope is `crates/fabric/` and `crates/core/` — where time
//! values live; fixtures are scanned whole.

use crate::lexer::{Tok, TokKind};
use crate::parse::{
    call_sites, group_start, is_keyword, skip_balanced, type_head, CallKind, FnDef,
};
use crate::report::Diagnostic;
use crate::Workspace;
use std::collections::BTreeSet;

const TIME_TYPES: &[&str] = &["SimTime", "Duration"];
/// Methods that keep a raw picosecond value a picosecond value.
const PRESERVING: &[&str] = &["min", "max"];

pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    // Field names of time type anywhere in the workspace (`at: SimTime`).
    let time_fields: BTreeSet<&str> = ws
        .fields
        .iter()
        .filter(|f| TIME_TYPES.contains(&f.ty.split(' ').next().unwrap_or("")))
        .map(|f| f.name.as_str())
        .collect();

    let mut out = Vec::new();
    for f in &ws.fns {
        let file = ws.file(f);
        if f.is_test || !in_scope(ws, &file.path) {
            continue;
        }
        let Some(body) = f.body else { continue };
        let toks = &file.toks;
        let ctx = FnCtx::build(f, toks, &time_fields);
        scan_ops(f, toks, body, &ctx, &file.path, &mut out);
        scan_ctor_args(f, toks, body, &file.path, &mut out);
    }
    // Constructor-arg and operand rules can both fire on one op; dedupe.
    out.sort_by(|a, b| (&a.file, a.line, &a.code).cmp(&(&b.file, b.line, &b.code)));
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.code == b.code);
    out
}

fn in_scope(ws: &Workspace, path: &str) -> bool {
    ws.synthetic || path.starts_with("crates/fabric/src/") || path.starts_with("crates/core/src/")
}

/// Per-function typing context: which names hold time newtypes, which
/// plain idents are tainted with raw picosecond values.
struct FnCtx<'a> {
    time_fields: &'a BTreeSet<&'a str>,
    /// Locals/params declared as `SimTime`/`Duration` (newtype level).
    time_vars: BTreeSet<String>,
    /// `self` is time-typed (inside `impl SimTime`/`impl Duration`).
    self_is_time: bool,
    /// Plain integers carrying picosecond values.
    tainted: BTreeSet<String>,
}

impl<'a> FnCtx<'a> {
    /// Seed the context from the parse table: time-typed parameters and
    /// `let`s, then, in token order, the taint of every binding whose
    /// value is raw picoseconds (a plain reassignment such as `lo =
    /// lo.min(k.at.0)` taints like a `let`).
    fn build(f: &FnDef, toks: &[Tok], time_fields: &'a BTreeSet<&'a str>) -> FnCtx<'a> {
        let is_time = |(s, e): (usize, usize)| {
            type_head(&toks[s..e]).is_some_and(|t| TIME_TYPES.contains(&t))
        };
        let mut ctx = FnCtx {
            time_fields,
            time_vars: f
                .params
                .iter()
                .filter(|p| is_time(p.ty))
                .map(|p| p.name.clone())
                .collect(),
            self_is_time: f.qual.as_deref().is_some_and(|q| TIME_TYPES.contains(&q)),
            tainted: BTreeSet::new(),
        };
        for b in &f.bindings {
            let Some(name) = &b.name else { continue };
            if b.ty.is_some_and(is_time) {
                ctx.time_vars.insert(name.clone());
            }
            let Some((rs, re)) = b.init else { continue };
            if b.is_let && rhs_is_time_newtype(&toks[rs..re]) {
                ctx.time_vars.insert(name.clone());
            } else if ctx.rhs_is_raw(&toks[rs..re]) {
                ctx.tainted.insert(name.clone());
            }
        }
        ctx
    }

    /// Does this expression produce a raw picosecond value? Used for
    /// taint seeding: any raw source present, no scale-destroying
    /// binary operator at the top level.
    fn rhs_is_raw(&self, rhs: &[Tok]) -> bool {
        // Scale-destroying ops — and casts out of the u64 domain —
        // launder the whole binding.
        for (i, t) in rhs.iter().enumerate() {
            if matches!(t.text.as_str(), ">>" | "<<" | "/" | "%")
                || (matches!(t.text.as_str(), "&" | "|") && i > 0 && value_ending(&rhs[i - 1]))
            {
                return false;
            }
            if casts_out(rhs, i) {
                return false;
            }
        }
        (0..rhs.len()).any(|i| self.raw_source_at(rhs, i))
    }

    /// Is `name` a time-typed base, whose `.0` is a raw picosecond value?
    fn is_time_base(&self, name: &str) -> bool {
        (name == "self" && self.self_is_time)
            || self.time_vars.contains(name)
            || self.time_fields.contains(name)
    }

    /// Is there a raw picosecond source anchored at index `i`?
    fn raw_source_at(&self, toks: &[Tok], i: usize) -> bool {
        let t = &toks[i];
        // `.picos(` chain.
        if t.is_ident("picos")
            && i > 0
            && toks[i - 1].is(".")
            && toks.get(i + 1).is_some_and(|n| n.is("("))
        {
            return true;
        }
        // `.0` on a time-typed base.
        if t.kind == TokKind::Lit
            && t.text == "0"
            && i >= 2
            && toks[i - 1].is(".")
            && self.is_time_base(&toks[i - 2].text)
        {
            return true;
        }
        // A tainted plain ident, unless a non-preserving method call
        // launders it right away.
        if t.kind == TokKind::Ident && self.tainted.contains(&t.text) {
            if toks.get(i + 1).is_some_and(|n| n.is("."))
                && toks.get(i + 2).map(|n| n.kind) == Some(TokKind::Ident)
                && toks.get(i + 3).is_some_and(|n| n.is("("))
                && !PRESERVING.contains(&toks[i + 2].text.as_str())
            {
                return false;
            }
            return true;
        }
        false
    }

    /// Classify the operand ending just before token `op` (walking
    /// backwards): is it a raw picosecond value?
    fn left_is_raw(&self, toks: &[Tok], op: usize) -> bool {
        let Some(mut k) = op.checked_sub(1) else {
            return false;
        };
        loop {
            let t = &toks[k];
            match t.text.as_str() {
                ")" => {
                    // Method call or parenthesised group: find `(`.
                    k = group_start(toks, k, "(", ")");
                    // `name(..)` with a `.` before name → method call.
                    if k >= 2 && toks[k - 1].kind == TokKind::Ident && toks[k - 2].is(".") {
                        let m = toks[k - 1].text.as_str();
                        if m == "picos" {
                            return true;
                        }
                        if PRESERVING.contains(&m) {
                            // Unit preserved: classify the receiver.
                            if k < 3 {
                                return false;
                            }
                            k -= 3;
                            continue;
                        }
                        return false; // laundering method
                    }
                    return false; // parenthesised subexpression / call
                }
                _ if t.kind == TokKind::Lit => {
                    // `.0` tuple-field on a time base?
                    return t.text == "0"
                        && k >= 2
                        && toks[k - 1].is(".")
                        && self.is_time_base(&toks[k - 2].text);
                }
                _ if t.kind == TokKind::Ident && !is_keyword(&t.text) => {
                    return self.tainted.contains(&t.text);
                }
                _ => return false,
            }
        }
    }

    /// Classify the operand starting just after token `op` (walking
    /// forwards).
    fn right_is_raw(&self, toks: &[Tok], op: usize, end: usize) -> bool {
        let mut k = op + 1;
        if k >= end {
            return false;
        }
        // Leading unary borrow/deref/neg.
        while k < end && matches!(toks[k].text.as_str(), "&" | "*" | "-" | "mut") {
            k += 1;
        }
        if k >= end {
            return false;
        }
        let t = &toks[k];
        if t.kind == TokKind::Lit
            || t.text == "self"
            || (t.kind == TokKind::Ident && !is_keyword(&t.text))
        {
            // Walk the postfix chain forward; classify by its ending.
            let mut last_is_raw = if t.kind == TokKind::Ident {
                self.tainted.contains(&t.text)
            } else {
                false
            };
            let mut base_text = t.text.clone();
            let mut j = k + 1;
            loop {
                if toks.get(j).is_some_and(|n| n.is(".")) {
                    let Some(nxt) = toks.get(j + 1) else { break };
                    if nxt.kind == TokKind::Lit && nxt.text == "0" {
                        last_is_raw = self.is_time_base(&base_text);
                        base_text = String::new();
                        j += 2;
                        continue;
                    }
                    if nxt.kind == TokKind::Ident {
                        if toks.get(j + 2).is_some_and(|n| n.is("(")) {
                            // Method call: picos → raw; min/max preserve;
                            // anything else launders.
                            let m = nxt.text.as_str();
                            last_is_raw = m == "picos" || (PRESERVING.contains(&m) && last_is_raw);
                            let close = skip_balanced(toks, j + 2, "(", ")");
                            base_text = String::new();
                            j = close;
                            continue;
                        }
                        // Plain field access.
                        base_text = nxt.text.clone();
                        last_is_raw = false;
                        j += 2;
                        continue;
                    }
                    break;
                }
                break;
            }
            // An explicit cast out of the u64-picosecond domain (`picos()
            // as f64`, `dt as i128`) launders: floats don't overflow and
            // i128/u128 have 64 bits of headroom. Only `as u64`/`as
            // usize` keep the value raw.
            return last_is_raw && !casts_out(toks, j);
        }
        false
    }
}

/// Is `toks[i]` an `as` cast out of the u64 picosecond domain (anything
/// but `as u64`/`as usize`)?
fn casts_out(toks: &[Tok], i: usize) -> bool {
    toks.get(i).is_some_and(|t| t.is_ident("as"))
        && !matches!(
            toks.get(i + 1).map(|n| n.text.as_str()),
            Some("u64") | Some("usize")
        )
}

/// Does the RHS (re)construct a time newtype (`SimTime(..)`,
/// `Duration::from_nanos(..)`, a bare time-typed var copy)?
fn rhs_is_time_newtype(rhs: &[Tok]) -> bool {
    rhs.first()
        .is_some_and(|t| TIME_TYPES.contains(&t.text.as_str()))
}

/// Can this token end a value expression (making a following `+`/`-`/`*`
/// a binary operator, not a unary one)?
fn value_ending(t: &Tok) -> bool {
    matches!(t.kind, TokKind::Ident | TokKind::Lit) && !is_keyword(&t.text)
        || matches!(t.text.as_str(), ")" | "]" | "self")
}

fn op_code(op: &str) -> Option<&'static str> {
    match op {
        "+" | "+=" => Some("time.raw-add"),
        "-" | "-=" => Some("time.raw-sub"),
        "*" | "*=" => Some("time.raw-mul"),
        _ => None,
    }
}

fn op_hint(code: &str) -> &'static str {
    match code {
        "time.raw-add" => "use `saturating_add`/`checked_add` or the SimTime/Duration `+` impl",
        "time.raw-sub" => "use `saturating_sub`/`checked_sub` (keep the debug_assert for intent)",
        _ => "use `saturating_mul`/`checked_mul`",
    }
}

/// Flag raw binary arithmetic whose operands are picosecond-valued.
fn scan_ops(
    f: &FnDef,
    toks: &[Tok],
    body: (usize, usize),
    ctx: &FnCtx,
    path: &str,
    out: &mut Vec<Diagnostic>,
) {
    let (bs, be) = body;
    for i in bs..be.min(toks.len()) {
        let t = &toks[i];
        let Some(code) = op_code(t.text.as_str()) else {
            continue;
        };
        // Binary context only: previous token must end a value.
        if i == 0 || !value_ending(&toks[i - 1]) {
            continue;
        }
        let left = ctx.left_is_raw(toks, i);
        let right = ctx.right_is_raw(toks, i, be);
        if left || right {
            out.push(Diagnostic {
                pass: "time-arith",
                code: code.to_string(),
                file: path.to_string(),
                line: t.line,
                function: f.display_name(),
                message: format!("raw `{}` on a picosecond-valued expression", t.text),
                notes: vec![op_hint(code).to_string()],
            });
        }
    }
}

/// Flag bare arithmetic inside `SimTime(..)` / `Duration(..)` ctor args.
fn scan_ctor_args(
    f: &FnDef,
    toks: &[Tok],
    body: (usize, usize),
    path: &str,
    out: &mut Vec<Diagnostic>,
) {
    for c in call_sites(toks, body) {
        if c.kind != CallKind::Path || !TIME_TYPES.contains(&c.name.as_str()) {
            continue;
        }
        // `SimTime::MAX` etc. produce Path "sites" only when followed by
        // `(`; call_sites guarantees that. Walk the argument group.
        let open = c.tok + 1;
        if !toks.get(open).is_some_and(|t| t.is("(")) {
            continue;
        }
        let close = skip_balanced(toks, open, "(", ")");
        for k in open + 1..close.saturating_sub(1) {
            let Some(code) = op_code(toks[k].text.as_str()) else {
                continue;
            };
            if !value_ending(&toks[k - 1]) {
                continue;
            }
            out.push(Diagnostic {
                pass: "time-arith",
                code: code.to_string(),
                file: path.to_string(),
                line: toks[k].line,
                function: f.display_name(),
                message: format!(
                    "raw `{}` inside a `{}(..)` constructor argument (result becomes picoseconds)",
                    toks[k].text, c.name
                ),
                notes: vec![op_hint(code).to_string()],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(src: &str) -> Vec<Diagnostic> {
        run(&Workspace::from_sources(&[("fix.rs", src)]))
    }

    #[test]
    fn raw_add_on_tuple_field_in_time_impl() {
        let d = diags(
            "
            impl SimTime {
                fn advance(self, rhs: Duration) -> SimTime { SimTime(self.0 + rhs.0) }
            }
            ",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, "time.raw-add");
    }

    #[test]
    fn saturating_form_is_clean() {
        let d = diags(
            "
            impl SimTime {
                fn advance(self, rhs: Duration) -> SimTime {
                    SimTime(self.0.saturating_add(rhs.0))
                }
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn taint_flows_through_let_and_min() {
        let d = diags(
            "
            struct EventKey { at: SimTime }
            fn resize(keys: &[EventKey]) -> u64 {
                let mut lo = u64::MAX;
                let mut hi = 0u64;
                for k in keys.iter() {
                    lo = lo.min(k.at.0);
                    hi = hi.max(k.at.0);
                }
                let spread = hi - lo;
                2 * spread
            }
            ",
        );
        let codes: Vec<_> = d.iter().map(|x| x.code.as_str()).collect();
        assert!(codes.contains(&"time.raw-sub"), "{d:?}");
        assert!(codes.contains(&"time.raw-mul"), "{d:?}");
    }

    #[test]
    fn laundering_method_clears_taint() {
        let d = diags(
            "
            fn f(t: SimTime) -> u32 {
                let raw = t.0;
                let width = 63 - raw.leading_zeros();
                width + 1
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn index_arithmetic_is_not_flagged() {
        let d = diags(
            "
            struct EventKey { at: SimTime }
            fn bucket(k: &EventKey, shift: u32, nb: usize) -> usize {
                let day = (k.at.0 >> shift) as usize;
                day + 1 % nb
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn ctor_argument_scaling_is_flagged() {
        let d = diags(
            "
            fn from_nanos(ns: u64) -> Duration { Duration(ns * 1_000) }
            ",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, "time.raw-mul");
    }

    #[test]
    fn newtype_operator_use_is_blessed() {
        let d = diags(
            "
            fn schedule(now: SimTime, d: Duration) -> SimTime {
                now + d
            }
            ",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn picos_chain_is_raw() {
        let d = diags(
            "
            fn f(t: SimTime, d: u64) -> u64 { t.picos() + d }
            ",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, "time.raw-add");
    }
}
