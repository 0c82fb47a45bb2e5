//! Lightweight event tracing.
//!
//! The firmware boot sequence and the protocol state machines log their
//! transitions here so tests can assert on ordering ("force-ncHT happened
//! before the warm reset") and examples can print readable boot traces.

use crate::time::SimTime;
use core::fmt;

/// One trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub at: SimTime,
    /// Component that emitted the record, e.g. `"node0.nb"`.
    pub source: String,
    /// Free-form message.
    pub what: String,
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}] {:<16} {}",
            format!("{}", self.at),
            self.source,
            self.what
        )
    }
}

/// An append-only trace buffer.
#[derive(Debug, Default)]
pub struct Trace {
    records: Vec<Record>,
}

impl Trace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    pub fn log(&mut self, at: SimTime, source: impl Into<String>, what: impl Into<String>) {
        self.records.push(Record {
            at,
            source: source.into(),
            what: what.into(),
        });
    }

    /// All records whose message contains `needle`, in order. (Named
    /// `grep` rather than `find` so name-based call-graph resolution in
    /// tcc-analyze never confuses it with `Iterator::find`.)
    pub fn grep(&self, needle: &str) -> Vec<&Record> {
        self.records
            .iter()
            .filter(|r| r.what.contains(needle) || r.source.contains(needle))
            .collect()
    }

    /// Index of the first record whose message contains `needle`.
    pub fn position(&self, needle: &str) -> Option<usize> {
        self.records.iter().position(|r| r.what.contains(needle))
    }

    /// Assert helper: `a` was logged strictly before `b`.
    pub fn happened_before(&self, a: &str, b: &str) -> bool {
        match (self.position(a), self.position(b)) {
            (Some(i), Some(j)) => i < j,
            _ => false,
        }
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.records {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logs_in_order() {
        let mut t = Trace::new();
        t.log(SimTime(10), "a", "first");
        t.log(SimTime(20), "b", "second");
        assert_eq!(t.position("second"), Some(1));
        assert!(t.happened_before("first", "second"));
        assert!(!t.happened_before("second", "first"));
        assert!(!t.happened_before("first", "missing"));
    }

    #[test]
    fn find_filters_by_source_and_message() {
        let mut t = Trace::new();
        t.log(SimTime(1), "node0.nb", "route programmed");
        t.log(SimTime(2), "node1.nb", "route programmed");
        t.log(SimTime(3), "node0.core", "sfence");
        assert_eq!(t.grep("route").len(), 2);
        assert_eq!(t.grep("node0").len(), 2);
        assert_eq!(t.grep("sfence").len(), 1);
    }

    #[test]
    fn display_formats() {
        let mut t = Trace::new();
        t.log(SimTime(1_000), "fw", "cold reset");
        let s = format!("{t}");
        assert!(s.contains("cold reset"));
        assert!(s.contains("fw"));
    }
}
