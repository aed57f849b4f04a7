//! In-memory spans recorded around every call the harness makes into a
//! layer. Spans live in memory during the run and are written out as
//! JSON lines when it ends; a disabled recorder reads no clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call: `[start_ns, end_ns)` on the recorder's clock, the
/// span that was open when it started, and the block it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub block: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::enter`]; `None` when recording is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The span recorder of one traced repetition.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    on: bool,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            on,
        }
    }

    /// Nanoseconds on the recorder's clock: the one clock a repetition
    /// times everything with, recording or not.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, block: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            block,
        });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes a span; spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(index), "spans close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part its direct
/// children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Share of the root span (index 0) covered by its descendants — the
/// time the harness spent inside calls into the program.
pub fn coverage(spans: &[Span]) -> f64 {
    let Some(root) = spans.first() else {
        return 0.0;
    };
    if root.duration_ns() == 0 {
        return 0.0;
    }
    1.0 - self_times_ns(spans)[0] as f64 / root.duration_ns() as f64
}

/// Total self time and call count per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let own = self_times_ns(spans);
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, own_ns) in spans.iter().zip(own) {
        let entry = totals.entry(span.name).or_default();
        entry.0 += own_ns;
        entry.1 += 1;
    }
    totals
}

/// The spans as JSON lines, `{name, start_ns, end_ns, parent, block}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for span in spans {
        let parent = span
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"block\":{}}}",
            span.name, span.start_ns, span.end_ns, parent, span.block
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            block: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("run", 0, 1000, None),
            span("commit", 100, 700, Some(0)),
            span("seal", 200, 300, Some(1)),
            span("ingest", 700, 900, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![200, 500, 100, 200]);
        assert!((coverage(&spans) - 0.8).abs() < 1e-12);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["commit"], (500, 1));
        assert_eq!(totals["run"], (200, 1));
    }

    #[test]
    fn coverage_of_empty_or_zero_length_runs_is_zero() {
        assert_eq!(coverage(&[]), 0.0);
        assert_eq!(coverage(&[span("run", 5, 5, None)]), 0.0);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(true);
        let root = rec.enter("run", 0);
        let inner = rec.enter("commit", 3);
        rec.exit(inner);
        rec.exit(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].block, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(to_jsonl(spans).lines().count() == 2);

        let mut off = Recorder::new(false);
        let open = off.enter("run", 0);
        off.exit(open);
        assert!(off.spans().is_empty());
    }
}
