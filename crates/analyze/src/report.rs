//! Structured diagnostics and the `LINT_report.json` emitter.
//!
//! The JSON schema is versioned (`"schema": 4`): tools downstream (CI
//! artifact consumers, the xtask gate) key off `clean`, `diagnostics[]`,
//! the per-pass counts and the annotation counters. Schema 2 added the
//! two interprocedural passes (`panic-freedom`, `epoch-phase`), the
//! `pass_counts`/`annotations`/`baselines` objects and the
//! `phase_ranked_functions` guard metric. Schema 3 adds the
//! `linear-resource` pass: its four annotation counters
//! (`tcc_linear`, `tcc_transfer_ok`, `tcc_acquires`, `tcc_releases`),
//! the `linear_checked_functions` / `linear_crates` guard metrics, and
//! `timings_ms` — per-pass wall time when the caller injects a clock
//! (`cargo xtask lint --timings`), JSON `null` otherwise so the
//! committed artifact stays byte-stable. `lock_sites` (the lock-order
//! pass's in-scope `.lock()`/`.try_lock()` count, a guard metric like
//! `phase_ranked_functions`) was added within schema 3. Schema 4 drops
//! the annotation counter of the epoch-phase escape hatch, which was
//! retired with its last carrier. The schema-1 flat counter keys are
//! retained so old diffs stay readable, and fields are only ever *added*
//! within a schema version; removing one bumps it.

use std::fmt::Write as _;

/// Every pass, in report order. `pass_counts` always carries all of
/// these (zeroes included) so reports from different commits diff
/// line-by-line.
pub const PASSES: [&str; 7] = [
    "alloc-reachability",
    "lock-order",
    "time-arith",
    "determinism",
    "panic-freedom",
    "epoch-phase",
    "linear-resource",
];

/// One finding of one pass, anchored to a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which pass produced this (one of [`PASSES`]).
    pub pass: &'static str,
    /// Stable machine code (`alloc.transitive`, `det.wallclock`,
    /// `panic.reachable`, `phase.shard-escape`, ...).
    pub code: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the anchor token.
    pub line: u32,
    /// Function the finding is inside (display name), if any.
    pub function: String,
    pub message: String,
    /// Supporting detail: call paths, cycle edges, related sites.
    pub notes: Vec<String>,
}

impl Diagnostic {
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}:{}: [{}] {} (in `{}`)",
            self.file, self.line, self.code, self.message, self.function
        );
        for n in &self.notes {
            s.push_str("\n    note: ");
            s.push_str(n);
        }
        s
    }
}

/// The full analyzer result for one run over a workspace.
#[derive(Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    /// Count of `tcc_no_alloc` annotations seen (the xtask baseline
    /// guard fails if this ever drops below the migrated count).
    pub no_alloc_annotations: usize,
    /// Count of `tcc_alloc_ok` escape hatches seen.
    pub alloc_ok_annotations: usize,
    /// Count of `tcc_no_panic` annotations seen (baseline-guarded like
    /// `tcc_no_alloc`).
    pub no_panic_annotations: usize,
    /// Count of `tcc_panic_ok` escape hatches seen (each must cover a
    /// real panic site — `panic.stale-ok` enforces it).
    pub panic_ok_annotations: usize,
    /// In-scope functions the epoch-phase pass assigned a rank to; the
    /// xtask guard fails if this collapses (the pass went blind).
    pub phase_ranked_functions: usize,
    /// In-scope `.lock()`/`.try_lock()` sites the lock-order pass built
    /// its graph from; the xtask guard fails if this drops to zero.
    pub lock_sites: usize,
    /// Count of `tcc_linear(..)` annotations seen (baseline-guarded:
    /// xtask fails if this drops below `RESOURCE_BASELINE`).
    pub linear_annotations: usize,
    /// Count of `tcc_transfer_ok` escape hatches seen (each must cover
    /// a real held-at-exit path — `resource.stale-ok` enforces it).
    pub transfer_ok_annotations: usize,
    /// Count of `tcc_acquires(..)` anchor annotations seen.
    pub acquire_annotations: usize,
    /// Count of `tcc_releases(..)` anchor annotations seen.
    pub release_annotations: usize,
    /// Functions the linear-resource pass actually walked (annotated,
    /// live, with a body); the xtask guard fails if this collapses.
    pub linear_checked_functions: usize,
    /// Crates containing at least one linear-checked function, sorted;
    /// the xtask guard asserts the required span
    /// ([`crate::RESOURCE_CRATES`]) stays covered.
    pub linear_crates: Vec<String>,
    /// Per-pass wall time in nanoseconds, in run order, when the caller
    /// injected a clock (`--timings`); empty otherwise, which serialises
    /// `timings_ms` as `null` so the committed report stays byte-stable.
    pub pass_nanos: Vec<(&'static str, u64)>,
    pub files_scanned: usize,
    pub functions_indexed: usize,
    /// Named baseline floors the caller enforces (xtask fills these in
    /// before serialising so the artifact records what was guarded).
    pub baselines: Vec<(&'static str, usize)>,
}

impl Report {
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Diagnostics produced by `pass`.
    pub fn by_pass<'a>(&'a self, pass: &'a str) -> impl Iterator<Item = &'a Diagnostic> + 'a {
        self.diagnostics.iter().filter(move |d| d.pass == pass)
    }

    /// Serialize to the stable `LINT_report.json` schema.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str("  \"schema\": 4,\n");
        s.push_str("  \"tool\": \"tcc-analyze\",\n");
        s.push_str("  \"passes\": [");
        for (i, p) in PASSES.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{p}\"");
        }
        s.push_str("],\n");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"functions_indexed\": {},", self.functions_indexed);
        // Schema-1 flat keys, kept for diffability of old artifacts.
        let _ = writeln!(
            s,
            "  \"no_alloc_annotations\": {},",
            self.no_alloc_annotations
        );
        let _ = writeln!(
            s,
            "  \"alloc_ok_annotations\": {},",
            self.alloc_ok_annotations
        );
        s.push_str("  \"annotations\": {\n");
        let _ = writeln!(s, "    \"tcc_no_alloc\": {},", self.no_alloc_annotations);
        let _ = writeln!(s, "    \"tcc_alloc_ok\": {},", self.alloc_ok_annotations);
        let _ = writeln!(s, "    \"tcc_no_panic\": {},", self.no_panic_annotations);
        let _ = writeln!(s, "    \"tcc_panic_ok\": {},", self.panic_ok_annotations);
        let _ = writeln!(s, "    \"tcc_linear\": {},", self.linear_annotations);
        let _ = writeln!(
            s,
            "    \"tcc_transfer_ok\": {},",
            self.transfer_ok_annotations
        );
        let _ = writeln!(s, "    \"tcc_acquires\": {},", self.acquire_annotations);
        let _ = writeln!(s, "    \"tcc_releases\": {}", self.release_annotations);
        s.push_str("  },\n");
        s.push_str("  \"pass_counts\": {\n");
        for (i, p) in PASSES.iter().enumerate() {
            let n = self.by_pass(p).count();
            let comma = if i + 1 < PASSES.len() { "," } else { "" };
            let _ = writeln!(s, "    \"{p}\": {n}{comma}");
        }
        s.push_str("  },\n");
        let _ = writeln!(
            s,
            "  \"phase_ranked_functions\": {},",
            self.phase_ranked_functions
        );
        let _ = writeln!(s, "  \"lock_sites\": {},", self.lock_sites);
        let _ = writeln!(
            s,
            "  \"linear_checked_functions\": {},",
            self.linear_checked_functions
        );
        s.push_str("  \"linear_crates\": [");
        for (i, c) in self.linear_crates.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\"", esc(c));
        }
        s.push_str("],\n");
        if self.pass_nanos.is_empty() {
            s.push_str("  \"timings_ms\": null,\n");
        } else {
            s.push_str("  \"timings_ms\": {");
            for (i, (name, ns)) in self.pass_nanos.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\n    \"{name}\": {:.3}", *ns as f64 / 1.0e6);
            }
            s.push_str("\n  },\n");
        }
        s.push_str("  \"baselines\": {");
        for (i, (name, floor)) in self.baselines.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n    \"{name}\": {floor}");
        }
        if !self.baselines.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n");
        let _ = writeln!(s, "  \"clean\": {},", self.clean());
        s.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            let _ = write!(s, "\"pass\": \"{}\", ", esc(d.pass));
            let _ = write!(s, "\"code\": \"{}\", ", esc(&d.code));
            let _ = write!(s, "\"file\": \"{}\", ", esc(&d.file));
            let _ = write!(s, "\"line\": {}, ", d.line);
            let _ = write!(s, "\"function\": \"{}\", ", esc(&d.function));
            let _ = write!(s, "\"message\": \"{}\", ", esc(&d.message));
            s.push_str("\"notes\": [");
            for (j, n) in d.notes.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{}\"", esc(n));
            }
            s.push_str("]}");
        }
        if !self.diagnostics.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

/// Minimal JSON string escaping.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_schema_stable() {
        let mut r = Report {
            no_alloc_annotations: 21,
            no_panic_annotations: 7,
            linear_annotations: 12,
            linear_checked_functions: 12,
            linear_crates: vec!["ht".into(), "msglib".into()],
            baselines: vec![("no_alloc", 21), ("no_panic", 7), ("linear_checked", 12)],
            ..Report::default()
        };
        r.diagnostics.push(Diagnostic {
            pass: "time-arith",
            code: "time.raw-add".into(),
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            function: "f".into(),
            message: "raw `+` on \"picosecond\" value".into(),
            notes: vec!["use saturating_add".into()],
        });
        let j = r.to_json();
        assert!(j.contains("\"schema\": 4"));
        assert!(j.contains("\"clean\": false"));
        assert!(j.contains("\"no_alloc_annotations\": 21"));
        assert!(j.contains("\"tcc_no_panic\": 7"));
        assert!(j.contains("\"tcc_linear\": 12"));
        assert!(j.contains("\"tcc_transfer_ok\": 0"));
        assert!(j.contains("\"time-arith\": 1"));
        assert!(j.contains("\"panic-freedom\": 0"));
        assert!(j.contains("\"linear-resource\": 0"));
        assert!(j.contains("\"no_panic\": 7"));
        assert!(j.contains("\"linear_checked\": 12"));
        assert!(j.contains("\"linear_crates\": [\"ht\", \"msglib\"]"));
        // No clock injected: timings stay null so the artifact is
        // byte-stable across runs.
        assert!(j.contains("\"timings_ms\": null"));
        assert!(j.contains("raw `+` on \\\"picosecond\\\" value"));
        // Keys the gate depends on must never disappear.
        for key in [
            "\"pass\"",
            "\"code\"",
            "\"file\"",
            "\"line\"",
            "\"function\"",
            "\"message\"",
            "\"notes\"",
            "\"pass_counts\"",
            "\"annotations\"",
            "\"baselines\"",
            "\"phase_ranked_functions\"",
            "\"linear_checked_functions\"",
        ] {
            assert!(j.contains(key), "missing {key}");
        }
    }

    #[test]
    fn timings_serialise_in_milliseconds_when_a_clock_ran() {
        let r = Report {
            pass_nanos: vec![("callgraph", 1_500_000), ("linear-resource", 250_000)],
            ..Report::default()
        };
        let j = r.to_json();
        assert!(j.contains("\"callgraph\": 1.500"));
        assert!(j.contains("\"linear-resource\": 0.250"));
        assert!(!j.contains("\"timings_ms\": null"));
    }

    #[test]
    fn every_pass_is_counted_even_at_zero() {
        let j = Report::default().to_json();
        for p in PASSES {
            assert!(j.contains(&format!("\"{p}\": 0")), "missing zero for {p}");
        }
    }

    #[test]
    fn empty_report_is_clean() {
        let r = Report::default();
        assert!(r.clean());
        assert!(r.to_json().contains("\"diagnostics\": []"));
    }
}
