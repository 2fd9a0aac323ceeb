//! In-memory spans for the traced run, and the tap that timestamps the
//! solver's `SolveEvent` stream.
//!
//! All timing happens outside the solver: spans are opened and closed
//! around calls into the public API, and the layers inside one `solve`
//! call are cut out of it at the events the solver already emits
//! (`SolveStart`→`Simplify` is simplification, each `Restart`→`Reduce` is a
//! §8 reduction with its arena GC, the rest is search).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use berkmin::telemetry::json::Value;
use berkmin::SolveEvent;

/// One timed interval. Times are seconds since the trace origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A tree of spans, kept in memory until the run ends.
#[derive(Debug, Clone)]
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Opens a span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.at(Instant::now());
        self.push(name, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.at(Instant::now());
    }

    /// Records a span whose bounds were taken elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (s, e) = (self.at(start), self.at(end));
        self.push(name, parent, s, e)
    }

    fn push(&mut self, name: &'static str, parent: Option<usize>, start: f64, end: f64) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Self time of every span: its duration minus the durations of its
    /// direct children.
    pub fn self_times(&self) -> Vec<f64> {
        let mut times: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                times[p] -= span.duration();
            }
        }
        times
    }

    /// Total duration of the spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        // Folding from +0.0 keeps an empty total from printing as -0.
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .fold(0.0, |a, b| a + b)
    }

    /// Splits the `solve` span `solve` into `simplify`, `reduce` and
    /// `search` children from the events the solver emitted during it.
    pub fn split_solve(&mut self, solve: usize, events: &[(Instant, SolveEvent)]) {
        let (start, end) = (self.spans[solve].start, self.spans[solve].end);
        // Intervals not spent in search, in event order.
        let mut cuts: Vec<(&'static str, f64, f64)> = Vec::new();
        let mut open: Option<(&'static str, f64)> = None;
        for (t, event) in events {
            let t = self.at(*t);
            match event {
                SolveEvent::SolveStart { .. } => open = Some(("simplify", t)),
                SolveEvent::Restart { .. } => open = Some(("reduce", t)),
                SolveEvent::Simplify { .. } | SolveEvent::Reduce { .. } => {
                    let want = if matches!(event, SolveEvent::Simplify { .. }) {
                        "simplify"
                    } else {
                        "reduce"
                    };
                    if let Some((name, from)) = open.take() {
                        if name == want {
                            cuts.push((name, from, t));
                        }
                    }
                }
                _ => {}
            }
        }
        let mut cursor = start;
        for (name, from, to) in cuts {
            if from > cursor {
                self.push("search", Some(solve), cursor, from);
            }
            self.push(name, Some(solve), from, to);
            cursor = to;
        }
        if end > cursor {
            self.push("search", Some(solve), cursor, end);
        }
    }

    /// The spans as JSON lines (one object per span, ids unique within
    /// `phase`) for the results file.
    pub fn to_json_lines(&self, phase: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Value::Null, |p| Value::Int(p as u64));
            let line = Value::Object(vec![
                ("phase".into(), Value::Str(phase.into())),
                ("id".into(), Value::Int(id as u64)),
                ("parent".into(), parent),
                ("name".into(), Value::Str(s.name.into())),
                ("start_s".into(), Value::Num(s.start)),
                ("end_s".into(), Value::Num(s.end)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

/// Observer that timestamps the events the span splitter needs.
#[derive(Debug, Clone, Default)]
pub struct EventTap(Arc<Mutex<Vec<(Instant, SolveEvent)>>>);

impl EventTap {
    /// The observer to install with `SolverBuilder::on_event`.
    pub fn observer(&self) -> impl FnMut(&SolveEvent) + Send + 'static {
        let sink = Arc::clone(&self.0);
        move |event: &SolveEvent| {
            let now = Instant::now();
            if matches!(
                event,
                SolveEvent::SolveStart { .. }
                    | SolveEvent::Simplify { .. }
                    | SolveEvent::Restart { .. }
                    | SolveEvent::Reduce { .. }
            ) {
                sink.lock().expect("tap lock").push((now, event.clone()));
            }
        }
    }

    /// Takes the events recorded since the last drain.
    pub fn drain(&self) -> Vec<(Instant, SolveEvent)> {
        std::mem::take(&mut *self.0.lock().expect("tap lock"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Trace::new(Instant::now());
        let root = t.push("instance", None, 0.0, 10.0);
        let solve = t.push("solve", Some(root), 1.0, 8.0);
        t.push("search", Some(solve), 1.0, 6.0);
        t.push("parse", Some(root), 0.0, 1.0);
        let selfs = t.self_times();
        assert!((selfs[root] - 2.0).abs() < 1e-12); // 10 − 7 − 1
        assert!((selfs[solve] - 2.0).abs() < 1e-12); // 7 − 5
        assert!((t.total("instance") - 10.0).abs() < 1e-12);
    }

    #[test]
    fn solve_split_covers_the_whole_call() {
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let mut t = Trace::new(origin);
        let solve = t.record("solve", None, at(0), at(100));
        let start = SolveEvent::SolveStart {
            call: 1,
            num_vars: 1,
            num_clauses: 1,
            assumptions: 0,
        };
        let simplify = SolveEvent::Simplify {
            rounds: 1,
            subsumed: 0,
            strengthened: 0,
            eliminated: 0,
            resolvents: 0,
            clauses_before: 1,
            clauses_after: 1,
        };
        let restart = SolveEvent::Restart {
            restarts: 1,
            conflicts: 1,
        };
        let reduce = SolveEvent::Reduce {
            live_before: 2,
            live_after: 1,
            words_reclaimed: 3,
        };
        let events = vec![
            (at(2), start),
            (at(12), simplify),
            (at(50), restart),
            (at(60), reduce),
        ];
        t.split_solve(solve, &events);
        assert!((t.total("simplify") - 0.010).abs() < 1e-9);
        assert!((t.total("reduce") - 0.010).abs() < 1e-9);
        // 0–2, 12–50 and 60–100 ms.
        assert!((t.total("search") - 0.080).abs() < 1e-9);
        assert!(t.self_times()[solve].abs() < 1e-9);
    }
}
