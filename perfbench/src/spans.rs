//! Host-time spans recorded around the benchmark's calls into each layer.
//!
//! Spans are kept in memory and written out as JSONL when the run ends.
//! The run loop stores whole passes until [`SPAN_CAP`] spans are kept; every
//! call is timed whether or not its span is kept, so latency samples
//! never depend on the cap.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans after which no further pass is stored.
pub const SPAN_CAP: usize = 50_000;

/// One finished span on the host clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer the call enters (`swap`, `rdd`, `rack`, `bench`).
    pub layer: &'static str,
    /// Operation within the layer.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

/// An open span: its start and, when stored, its index.
#[must_use = "close the span with Recorder::exit"]
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

/// Collects spans for one run.
pub struct Recorder {
    origin: Instant,
    keep: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that stores spans when `keep` is set and only times
    /// calls otherwise.
    pub fn new(keep: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            keep,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Starts storing spans from now on (or stops, with `false`).
    pub fn set_keep(&mut self, keep: bool) {
        self.keep = keep;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> Open {
        let start = Instant::now();
        let index = if self.keep {
            let start_ns = start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                layer,
                name,
                parent: self.stack.last().copied(),
                start_ns,
                end_ns: start_ns,
            });
            let index = self.spans.len() - 1;
            self.stack.push(index);
            Some(index)
        } else {
            None
        };
        Open { start, index }
    }

    /// Closes `open` and returns its duration in ns.
    pub fn exit(&mut self, open: Open) -> u64 {
        let end = Instant::now();
        if let Some(index) = open.index {
            self.spans[index].end_ns = end.duration_since(self.origin).as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans close in LIFO order");
        }
        end.duration_since(open.start).as_nanos() as u64
    }

    /// Stored spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the stored spans as JSONL, one span per line with its
    /// self time.
    pub fn to_jsonl(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.layer, s.name, s.start_ns, s.end_ns, self_ns[i]
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover. Children may nest further or overlap one
/// another; overlapping children count the shared stretch once, and a
/// child running past its parent counts only inside the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for &(start, end) in kids.iter() {
                match run {
                    Some((rs, re)) if start <= re => run = Some((rs, re.max(end))),
                    Some((rs, re)) => {
                        covered += re - rs;
                        run = Some((start, end));
                    }
                    None => run = Some((start, end)),
                }
            }
            if let Some((rs, re)) = run {
                covered += re - rs;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0) += ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer: "t",
            name: "t",
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // 0: [0,100) ⊃ 1: [10,60) ⊃ 2: [20,30); 3: [70,80) under 0.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(1), 20, 30),
            span(Some(0), 70, 80),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 10, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Children [10,50) and [30,70) overlap on [30,50): union is 60.
        // A third child [90,130) runs past the parent's end at 100.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 50),
            span(Some(0), 30, 70),
            span(Some(0), 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
        // Identical and contained children add nothing further.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 20, 40),
            span(Some(0), 20, 40),
            span(Some(0), 25, 30),
        ];
        assert_eq!(self_times(&spans)[0], 80);
    }

    #[test]
    fn recorder_nests_spans() {
        let mut rec = Recorder::new(true);
        let outer = rec.enter("bench", "pass");
        let inner = rec.enter("swap", "access");
        let inner_ns = rec.exit(inner);
        let outer_ns = rec.exit(outer);
        assert!(outer_ns >= inner_ns);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        let by_layer = self_by_layer(rec.spans());
        assert_eq!(by_layer.len(), 2);
        assert!(rec.to_jsonl().lines().count() == 2);

        let mut off = Recorder::new(false);
        let open = off.enter("swap", "access");
        off.exit(open);
        assert!(off.spans().is_empty());
    }
}
