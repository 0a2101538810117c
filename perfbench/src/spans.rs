//! In-memory span recorder for the traced pass.
//!
//! Each span records a name, start, end, the span that caused it and a
//! run id (one study, one query batch, one `serve` cycle). Spans are
//! held in memory and written out once, when the workload ends. A
//! span's self time is its duration minus the part of that interval
//! its direct children cover.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub run: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(usize);

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    /// Starts a new run id for the spans that follow.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            run: self.run,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn exit(&mut self, open: Open) {
        let end = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0].end_ns = end;
    }

    /// Records a span that ran from `start` to `end` under `parent`, and
    /// returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            run: self.run,
            name,
            start_ns: at(start),
            end_ns: at(end),
        });
        id
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, index-aligned with [`Tracer::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.duration_ns().saturating_sub(covered_ns(kids)))
            .collect()
    }

    /// Self times (ms) of every span called `name`, in order.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// The span log as JSON: `{"spans":[{"id":..,"parent":..,...}]}`.
    pub fn to_json(&self) -> String {
        let selfs = self.self_times_ns();
        let rows: Vec<String> = self
            .spans
            .iter()
            .zip(selfs)
            .map(|(s, self_ns)| {
                format!(
                    "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.run,
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    self_ns
                )
            })
            .collect();
        format!("{{\"spans\":[\n{}\n]}}\n", rows.join(",\n"))
    }
}

/// Total length of the union of `intervals`.
fn covered_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps() {
        assert_eq!(covered_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(covered_ns(Vec::new()), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let outer = t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(outer);
        let selfs = t.self_times_ns();
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(selfs[0], spans[0].duration_ns() - spans[1].duration_ns());
        assert_eq!(selfs[1], spans[1].duration_ns());
        assert!(t.to_json().contains("\"name\":\"inner\""));
    }

    #[test]
    fn recorded_children_overlap_in_the_parent() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let ms = std::time::Duration::from_millis;
        let root = t.record("root", None, t0, t0 + ms(10));
        t.record("a", Some(root), t0 + ms(2), t0 + ms(6));
        t.record("b", Some(root), t0 + ms(4), t0 + ms(8));
        let selfs = t.self_times_ns();
        assert_eq!(t.spans()[2].parent, Some(root));
        assert_eq!(selfs[root], 4_000_000);
        assert_eq!((selfs[1], selfs[2]), (4_000_000, 4_000_000));
    }
}
