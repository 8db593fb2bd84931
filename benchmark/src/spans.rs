//! The benchmark's own span recorder: spans are recorded around calls into
//! each layer's public functions, kept in memory, and written to one JSON
//! file when the run ends. Nothing inside the program under test changes.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The scan (or cycle) the span belongs to.
    pub scan_id: u64,
    /// Units of work done inside the span (observations, cells, queries, …).
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Time and work summed over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub spans: u64,
    pub ns: u64,
    /// `ns` minus the part covered by child spans.
    pub self_ns: u64,
    pub count: u64,
}

/// An in-memory span recorder. A disabled recorder reads no clock and stores
/// nothing, so the same code runs traced and untraced.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    scan_id: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            scan_id: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// How long after the recorder was made instant `t` was.
    pub fn offset_of(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.origin)
    }

    /// Sets the scan id stamped on spans opened from now on.
    pub fn set_scan(&mut self, scan_id: u64) {
        self.scan_id = scan_id;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.current();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            scan_id: self.scan_id,
            count: 0,
        });
    }

    /// Closes the innermost open span, which did `count` units of work;
    /// returns its index.
    pub fn exit(&mut self, count: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("exit without enter");
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.count = count;
        Some(index)
    }

    /// Adds a finished span whose time was measured elsewhere: a child of
    /// `parent` starting `offset` into it (work accumulated over many short
    /// calls, or a phase the engine timed itself), or a root span when
    /// `parent` is `None` and `offset` counts from the recorder's origin.
    pub fn add(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        offset: Duration,
        duration: Duration,
        count: u64,
    ) {
        if !self.enabled {
            return;
        }
        let base = parent.map_or(0, |p| self.spans[p].start_ns);
        let start_ns = base + offset.as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration.as_nanos() as u64,
            parent,
            scan_id: parent.map_or(self.scan_id, |p| self.spans[p].scan_id),
            count,
        });
    }

    /// The innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// For every span, the length of the part of it that its children cover
    /// (the union of their intervals, clipped to the span).
    pub fn covered_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                let start = span.start_ns.clamp(parent.start_ns, parent.end_ns);
                let end = span.end_ns.clamp(parent.start_ns, parent.end_ns);
                children[p].push((start, end));
            }
        }
        children
            .into_iter()
            .map(|mut intervals| {
                intervals.sort_unstable();
                let mut covered = 0;
                let mut reach = 0;
                for (start, end) in intervals {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                covered
            })
            .collect()
    }

    /// Time, self time and work per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let covered = self.covered_ns();
        let mut totals: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let total = totals.entry(span.name).or_default();
            total.spans += 1;
            total.ns += span.duration_ns();
            total.self_ns += span.duration_ns() - covered;
            total.count += span.count;
        }
        totals
    }

    /// Self time per unit of work of every `name` span that did any work.
    /// Unit costs are reported as the median of these, so that one stalled
    /// span (a first-touch page-fault storm, a descheduled thread) does not
    /// decide the figure the way it would in a ratio of sums.
    pub fn self_ns_per_count(&self, name: &str) -> Vec<f64> {
        let covered = self.covered_ns();
        self.spans
            .iter()
            .zip(covered)
            .filter(|(span, _)| span.name == name && span.count > 0)
            .map(|(span, covered)| (span.duration_ns() - covered) as f64 / span.count as f64)
            .collect()
    }

    /// The smallest share of any `name` span that its children cover; 1 when
    /// there is no such span.
    pub fn min_coverage(&self, name: &str) -> f64 {
        let covered = self.covered_ns();
        self.spans
            .iter()
            .zip(covered)
            .filter(|(span, _)| span.name == name && span.duration_ns() > 0)
            .map(|(span, covered)| covered as f64 / span.duration_ns() as f64)
            .fold(1.0, f64::min)
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{{header},\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"scan_id\":{},\"count\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.scan_id, s.count
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            scan_id: 0,
            count: 1,
        }
    }

    /// scan [0,100] > insert [10,60] > search [10,30]; scan > evict [60,70];
    /// scan > set [65,90] (overlapping evict by 5).
    fn nested() -> Recorder {
        let mut rec = Recorder::new(true);
        rec.spans = vec![
            span("scan", 0, 100, None),
            span("insert", 10, 60, Some(0)),
            span("search", 10, 30, Some(1)),
            span("evict", 60, 70, Some(0)),
            span("set", 65, 90, Some(0)),
        ];
        rec
    }

    #[test]
    fn self_time_is_span_minus_covered_children() {
        let rec = nested();
        assert_eq!(rec.covered_ns(), vec![80, 20, 0, 0, 0]);
        let totals = rec.totals();
        assert_eq!(totals["scan"].self_ns, 20);
        assert_eq!(totals["insert"].ns, 50);
        assert_eq!(totals["insert"].self_ns, 30);
        assert_eq!(totals["search"].self_ns, 20);
        assert_eq!(totals["set"].self_ns, 25);
        assert_eq!(rec.self_ns_per_count("insert"), vec![30.0]);
        assert!((rec.min_coverage("scan") - 0.8).abs() < 1e-12);
        assert_eq!(rec.min_coverage("absent"), 1.0);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let mut rec = Recorder::new(true);
        rec.spans = vec![span("scan", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(rec.covered_ns(), vec![5, 0]);
    }

    #[test]
    fn enter_exit_nest_and_disabled_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.set_scan(7);
        rec.enter("scan");
        rec.enter("insert");
        let parent = rec.current();
        rec.add(parent, "search", Duration::ZERO, Duration::from_nanos(5), 3);
        assert_eq!(rec.exit(11), Some(1));
        assert_eq!(rec.exit(1), Some(0));
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].start_ns, spans[1].start_ns);
        assert_eq!(spans[2].duration_ns(), 5);
        assert!(spans.iter().all(|s| s.scan_id == 7));
        assert_eq!(spans[1].count, 11);

        let mut off = Recorder::new(false);
        off.enter("scan");
        off.add(None, "x", Duration::ZERO, Duration::from_nanos(1), 0);
        assert_eq!(off.exit(1), None);
        assert!(off.spans().is_empty());
    }
}
