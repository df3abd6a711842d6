//! In-memory span recording for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer of
//! the program (trace synthesis, platform construction, the engine run, the
//! metric fold) and around its own work (checks, probes). Spans are kept in
//! memory and written out once the run ends. A span's self time is its
//! duration minus the durations of its direct children, so the self times
//! of a tree add up to the duration of its root.

use std::io::Write;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer or benchmark step the span covers.
    pub name: &'static str,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin; equals `start_ns` while
    /// the span is open.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Spans::enter`]; pass it back to [`Spans::exit`].
/// `None` when recording is off.
pub type SpanToken = Option<usize>;

/// The span store of one benchmark run. All spans share `run_id`.
pub struct Spans {
    run_id: u64,
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder; `enabled` decides whether spans are kept.
    pub fn new(run_id: u64, enabled: bool) -> Self {
        Spans {
            run_id,
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans entered from now on.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// All spans recorded so far, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded so far; a later [`Spans::self_ns_by_name`]
    /// call can start from it to cover one pass only.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanToken {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes the span `token` opened. Spans close innermost first.
    pub fn exit(&mut self, token: SpanToken) {
        let Some(idx) = token else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Sums the self time of the spans recorded since `mark`, by name, in
    /// first-seen order.
    pub fn self_ns_by_name(&self, mark: usize) -> Vec<(&'static str, u64)> {
        let tail = &self.spans[mark..];
        let own = self_times_ns(tail, mark);
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (span, ns) in tail.iter().zip(own) {
            match out.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, total)) => *total += ns,
                None => out.push((span.name, ns)),
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        let own = self_times_ns(&self.spans, 0);
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"run\":\"{:016x}\",\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of each span in `spans`: its duration minus its direct
/// children's durations. `base` is the recorder index of `spans[0]`, so a
/// tail slice can be passed; parents before the slice are ignored.
pub fn self_times_ns(spans: &[Span], base: usize) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,50) ⊃ a1 [20,30); root ⊃ b [60,90)
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("a1", Some(1), 20, 30),
            span("b", Some(0), 60, 90),
        ];
        assert_eq!(self_times_ns(&spans, 0), vec![30, 30, 10, 30]);
    }

    #[test]
    fn self_times_add_up_to_the_root_duration() {
        let spans = [
            span("root", None, 5, 205),
            span("x", Some(0), 5, 105),
            span("y", Some(1), 10, 60),
            span("z", Some(1), 60, 100),
            span("w", Some(0), 150, 200),
        ];
        let own = self_times_ns(&spans, 0);
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());
    }

    #[test]
    fn tail_slices_ignore_parents_before_the_mark() {
        let spans = [
            span("outer", None, 0, 100),
            span("p", Some(0), 0, 50),
            span("c", Some(1), 10, 20),
        ];
        // Slice from index 1: "p" keeps its child subtracted, "outer" is gone.
        assert_eq!(self_times_ns(&spans[1..], 1), vec![40, 10]);
    }

    #[test]
    fn recorder_nests_and_sums_by_name() {
        let mut rec = Spans::new(7, true);
        let root = rec.enter("pass");
        for _ in 0..2 {
            let t = rec.enter("engine.run");
            std::hint::black_box((0..1000).sum::<u64>());
            rec.exit(t);
        }
        rec.exit(root);
        let by_name = rec.self_ns_by_name(0);
        assert_eq!(by_name.len(), 2);
        assert_eq!(by_name[0].0, "pass");
        assert_eq!(by_name[1].0, "engine.run");
        let total: u64 = by_name.iter().map(|(_, ns)| ns).sum();
        assert_eq!(total, rec.spans()[0].duration_ns());
        assert!(rec.spans().iter().skip(1).all(|s| s.parent == Some(0)));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Spans::new(1, false);
        let t = rec.enter("pass");
        assert!(t.is_none());
        rec.exit(t);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn jsonl_lines_carry_run_id_and_parent() {
        let mut rec = Spans::new(0xabc, true);
        let a = rec.enter("pass");
        let b = rec.enter("trace.synth");
        rec.exit(b);
        rec.exit(a);
        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"run\":\"0000000000000abc\""));
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"parent\":0"));
        assert!(lines[1].contains("\"name\":\"trace.synth\""));
    }
}
