//! Spans recorded from outside the simulator, around the public calls
//! into each layer. Spans stay in memory and are written to a trace file
//! when the run ends.

use crate::json;
use std::sync::OnceLock;
use std::time::Instant;

/// Monotonic nanoseconds since first use. Also the clock injected into
/// the engine's stage profile (`EngineOptions::profile_clock`).
pub fn mono_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Which traced repetition the span belongs to.
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. A disabled recorder keeps nothing and reads no clock,
/// so untraced repetitions can share code with traced ones.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    pub rep: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            ..Tracer::default()
        }
    }

    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            rep: self.rep,
            start_ns: mono_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = mono_ns();
    }

    /// Close every span still open, after a traced call panicked out of
    /// them, so later spans nest correctly.
    pub fn close_open(&mut self) {
        while let Some(id) = self.stack.pop() {
            self.spans[id].end_ns = mono_ns();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span `name` of repetition `rep`.
    pub fn find(&self, name: &str, rep: u32) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name && s.rep == rep)
    }

    /// Duration of span `name` in repetition `rep`, 0 when absent.
    pub fn dur_ns(&self, name: &str, rep: u32) -> u64 {
        self.find(name, rep).map_or(0, Span::dur_ns)
    }

    /// A span's duration minus the time its children cover. Children of
    /// one span run one after another on the caller's thread, so their
    /// durations never overlap.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns().saturating_sub(children)
    }

    /// Sum of self times over span `id` and all its descendants; equals
    /// the span's own duration up to clock rounding.
    pub fn subtree_self_ns(&self, id: usize) -> u64 {
        let mut total = self.self_ns(id);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == Some(id) {
                total += self.subtree_self_ns(i);
            }
        }
        total
    }

    /// The trace file: one JSON object with the run's identity and every
    /// span with its parent index and self time.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\n  \"workload\": {},\n  \"seed\": {seed},\n  \"clock\": \"monotonic ns since first read\",\n  \"spans\": [",
            json::string(workload)
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{}\n    {{\"id\": {i}, \"name\": {}, \"rep\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                if i == 0 { "" } else { "," },
                json::string(s.name),
                s.rep,
                s.start_ns,
                s.end_ns,
                self.self_ns(i),
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        let root = tr.open("root");
        let a = tr.open("a");
        tr.close(a);
        let b = tr.open("b");
        let c = tr.open("c");
        tr.close(c);
        tr.close(b);
        tr.close(root);
        let d = |i: usize| tr.spans()[i].dur_ns();
        assert_eq!(tr.self_ns(root), d(root) - d(a) - d(b));
        assert_eq!(tr.self_ns(b), d(b) - d(c));
        assert_eq!(tr.subtree_self_ns(root), d(root));
        assert_eq!(tr.spans()[c].parent, Some(b));
        let off = Tracer::new(false);
        assert!(off.spans().is_empty());
    }
}
