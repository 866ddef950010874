//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own files only (the program
//! under test is not instrumented): one span per call into a layer,
//! each naming the span that caused it. They stay in memory until the
//! run ends and are then written to `out/trace-<workload>.json`.
//! A disabled tracer reads no clock and stores nothing, so the untraced
//! pass pays one branch per call.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u64 = 0;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Operation index the span belongs to (spans of one op share it).
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span recorder of a run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

/// Handle of an open span; closing it stamps the end time.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>, u64);

impl Open {
    /// The span's id, to name it as a parent (`NO_PARENT` when tracing
    /// is off).
    pub fn id(self) -> u64 {
        self.1
    }
}

impl Tracer {
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    pub fn recording() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::disabled()
        }
    }

    pub fn open(&mut self, name: &'static str, parent: u64, op: u64) -> Open {
        if !self.enabled {
            return Open(None, NO_PARENT);
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns: start_ns,
        });
        Open(Some(self.spans.len() - 1), id)
    }

    pub fn close(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Times `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, op);
        let out = f();
        self.close(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Per span name: how many, total duration, and self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span's self time is its duration minus the part of that interval
/// its direct children cover (children clipped to the parent, their
/// overlaps counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.clamp(cursor, s.end_ns);
                let end = end.clamp(cursor, s.end_ns);
                covered += end - start;
                cursor = cursor.max(end);
            }
        }
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += duration;
        t.self_ns += duration - covered;
    }
    totals
}

/// Writes the trace file: the per-name summary first (what a reader
/// wants), then one line per span. Streamed, because a long pass
/// records hundreds of thousands of spans. Span and workload names are
/// the benchmark's own identifiers and need no JSON escaping.
pub fn write_json(workload: &str, spans: &[Span], out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "{{\"workload\":\"{workload}\",\"summary\":[")?;
    let totals = self_times(spans);
    for (i, (name, t)) in totals.iter().enumerate() {
        let comma = if i + 1 < totals.len() { "," } else { "" };
        writeln!(
            out,
            "{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}{comma}",
            t.count, t.total_ns, t.self_ns
        )?;
    }
    writeln!(out, "],\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"workload\":\"{workload}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}{comma}",
            s.id, s.parent, s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, NO_PARENT, "op", 0, 100),
            span(2, 1, "post", 10, 40),
            span(3, 1, "wait", 50, 90),
            span(4, 3, "parse", 60, 70),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"].total_ns, 100);
        assert_eq!(t["op"].self_ns, 30, "100 - (30 + 40)");
        assert_eq!(t["post"].self_ns, 30, "leaf: all self");
        assert_eq!(t["wait"].self_ns, 30, "40 - 10");
        assert_eq!(t["parse"].self_ns, 10);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = [
            span(1, NO_PARENT, "op", 100, 200),
            span(2, 1, "a", 110, 150),
            span(3, 1, "a", 140, 170), // overlaps the first child
            span(4, 1, "b", 190, 250), // overhangs the parent's end
        ];
        let t = self_times(&spans);
        // Covered: [110,170) = 60 plus [190,200) = 10.
        assert_eq!(t["op"].self_ns, 30);
        assert_eq!(t["a"].count, 2);
        assert_eq!(t["a"].total_ns, 70);
    }

    #[test]
    fn grandchildren_do_not_reduce_the_grandparent_twice() {
        let spans = [
            span(1, NO_PARENT, "op", 0, 50),
            span(2, 1, "child", 0, 50),
            span(3, 2, "grandchild", 10, 20),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"].self_ns, 0);
        assert_eq!(t["child"].self_ns, 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let o = t.open("op", NO_PARENT, 0);
        assert_eq!(o.id(), NO_PARENT);
        t.close(o);
        assert_eq!(t.span("x", NO_PARENT, 0, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn children_name_their_parent_and_ids_are_unique() {
        let mut t = Tracer::recording();
        let op = t.open("op", NO_PARENT, 3);
        let inner = t.open("inner", op.id(), 3);
        t.close(inner);
        t.close(op);
        t.span("op", NO_PARENT, 4, || ());
        let s = t.spans();
        assert_eq!(s[1].parent, s[0].id);
        assert!(s[0].end_ns >= s[1].end_ns);
        assert!(s[0].id != NO_PARENT && s[0].id != s[1].id && s[1].id != s[2].id);
    }

    #[test]
    fn trace_file_is_json_with_a_summary_and_every_span() {
        let spans = [
            span(1, NO_PARENT, "op", 0, 100),
            span(2, 1, "serve.post", 10, 40),
        ];
        let mut raw = Vec::new();
        write_json("serve-jobs", &spans, &mut raw).unwrap();
        let v: serde::Value = serde_json::from_str(std::str::from_utf8(&raw).unwrap()).unwrap();
        let rows = |key: &str| match v.get_field(key) {
            Some(serde::Value::Array(rows)) => rows.clone(),
            other => panic!("{key}: {other:?}"),
        };
        assert_eq!(rows("summary").len(), 2);
        let all = rows("spans");
        assert_eq!(all.len(), 2);
        for key in [
            "id", "parent", "name", "workload", "op", "start_ns", "end_ns",
        ] {
            assert!(all[1].get_field(key).is_some(), "{key}");
        }
        assert_eq!(all[1].get_field("parent"), Some(&serde::Value::U64(1)));
        // No spans at all is still a well-formed file.
        let mut raw = Vec::new();
        write_json("w", &[], &mut raw).unwrap();
        assert!(serde_json::from_str::<serde::Value>(std::str::from_utf8(&raw).unwrap()).is_ok());
    }
}
