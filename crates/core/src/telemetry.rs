//! Structured solver telemetry: typed solve events, an observer hook, and
//! machine-readable statistics snapshots.
//!
//! The paper's entire evaluation is built on instrumented counters (the
//! Table 3 skin-effect histogram, Table 8 decision counts, Table 9
//! database-size ratios); this module is the runtime half of that story —
//! a structured event stream a caller can tap while the search runs,
//! instead of scraping ad-hoc `c` lines off the CLI.
//!
//! Three pieces:
//!
//! * [`SolveEvent`] — the typed event vocabulary: solve-call begin/end
//!   (with per-call counter deltas), restarts, §8 database reductions,
//!   periodic progress ticks, clause-sharing traffic, and portfolio worker
//!   lifecycle. Portfolio workers' own events arrive wrapped in
//!   [`SolveEvent::Worker`] so one observer can demultiplex a whole race.
//! * [`SolveObserver`] — the observer hook. Any `FnMut(&SolveEvent)`
//!   closure qualifies. Attach via
//!   [`SolverBuilder::on_event`](crate::SolverBuilder::on_event),
//!   [`Solver::set_observer`](crate::Solver::set_observer), or
//!   [`SatEngine::set_observer`](crate::SatEngine::set_observer). With no
//!   observer attached every emission site is a single `Option` check —
//!   the search pays nothing.
//! * [`StatsSnapshot`] + the [`json`] module — a hand-rolled JSON
//!   serialization of a run's verdict, timing and [`Stats`] counters (the
//!   workspace is offline-shimmed, so no serde). The same module parses
//!   the emitted JSON back, which is how the test suite round-trips the
//!   CLI's `--stats-json` output against `engine.stats()`.

use crate::search::SolveStatus;
use crate::stats::Stats;

/// The decided-or-not outcome of a solve call, stripped of its payload
/// (model / failed core / stop reason) so it can be carried by value in
/// events and snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveVerdict {
    /// A model was found.
    Sat,
    /// Unsatisfiability was proven (absolutely or under the assumptions).
    Unsat,
    /// The run stopped without an answer (budget or callback).
    Unknown,
}

impl SolveVerdict {
    /// The canonical uppercase name — matches the CLI's `s` line.
    pub fn as_str(&self) -> &'static str {
        match self {
            SolveVerdict::Sat => "SAT",
            SolveVerdict::Unsat => "UNSAT",
            SolveVerdict::Unknown => "UNKNOWN",
        }
    }

    /// Parses the canonical uppercase name back.
    pub fn parse(s: &str) -> Option<SolveVerdict> {
        match s {
            "SAT" => Some(SolveVerdict::Sat),
            "UNSAT" => Some(SolveVerdict::Unsat),
            "UNKNOWN" => Some(SolveVerdict::Unknown),
            _ => None,
        }
    }
}

impl std::str::FromStr for SolveVerdict {
    type Err = String;

    fn from_str(s: &str) -> Result<SolveVerdict, String> {
        SolveVerdict::parse(s).ok_or_else(|| format!("unknown verdict {s:?}"))
    }
}

impl std::fmt::Display for SolveVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&SolveStatus> for SolveVerdict {
    fn from(status: &SolveStatus) -> Self {
        match status {
            SolveStatus::Sat(_) => SolveVerdict::Sat,
            SolveStatus::Unsat => SolveVerdict::Unsat,
            SolveStatus::Unknown(_) => SolveVerdict::Unknown,
        }
    }
}

/// One structured telemetry event.
///
/// Counter-carrying variants state explicitly whether the numbers are
/// *lifetime* totals (accumulated across solve calls, like [`Stats`]) or
/// *per-call* deltas.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveEvent {
    /// A solve call began (after the pending assumptions were consumed).
    SolveStart {
        /// 1-based index of this call on the engine (`stats().solve_calls`).
        call: u64,
        /// Variables known at call entry.
        num_vars: usize,
        /// Live clauses (original + learnt) at call entry.
        num_clauses: usize,
        /// Assumptions this call runs under.
        assumptions: usize,
    },
    /// The solve call ended. All counters are **per-call deltas**.
    SolveDone {
        /// How the call ended.
        verdict: SolveVerdict,
        /// Conflicts spent by this call.
        conflicts: u64,
        /// Decisions spent by this call.
        decisions: u64,
        /// Literals propagated by this call.
        propagations: u64,
        /// Restarts performed by this call.
        restarts: u64,
    },
    /// The preprocessor ran at solve entry (subsumption, self-subsuming
    /// resolution, bounded variable elimination). All counters are
    /// **per-run deltas** for this simplification, not lifetime totals.
    Simplify {
        /// Sweeps the run performed before reaching a fixpoint (or the
        /// configured round cap).
        rounds: u32,
        /// Clauses deleted by backward subsumption.
        subsumed: u64,
        /// Clauses strengthened by self-subsuming resolution.
        strengthened: u64,
        /// Variables dissolved by bounded variable elimination.
        eliminated: u64,
        /// Resolvent clauses added while eliminating variables.
        resolvents: u64,
        /// Live original clauses before the run.
        clauses_before: u64,
        /// Live original clauses after the run.
        clauses_after: u64,
    },
    /// The search abandoned its current tree (paper §1). Lifetime totals.
    Restart {
        /// Restarts performed so far (`stats().restarts`).
        restarts: u64,
        /// Conflicts encountered so far (`stats().conflicts`).
        conflicts: u64,
    },
    /// A §8 clause-database reduction ran (always directly after a
    /// restart).
    Reduce {
        /// Live clauses before the reduction.
        live_before: u64,
        /// Live clauses after the reduction.
        live_after: u64,
        /// Arena words reclaimed by the compacting collector this
        /// reduction.
        words_reclaimed: u64,
    },
    /// Periodic progress tick, emitted every
    /// [`SolverConfig::progress_every`](crate::SolverConfig::progress_every)
    /// conflicts of the current call.
    Progress {
        /// Lifetime conflict total at the tick.
        conflicts: u64,
        /// Current trail length (assigned literals).
        trail: usize,
        /// Variables queued in the decision heap (0 under
        /// [`ActivityIndex::NaiveScan`](crate::ActivityIndex::NaiveScan)).
        heap: usize,
        /// Live learnt clauses.
        learnt: usize,
        /// Average LBD ("glue") of all clauses learnt so far.
        avg_lbd: f64,
    },
    /// A learnt clause passed the share-export filter and was handed to
    /// the export callback.
    ShareExport {
        /// Length of the exported clause.
        len: usize,
        /// Its LBD at deduction time.
        lbd: u32,
    },
    /// Foreign clauses were integrated from the share-import source.
    ShareImport {
        /// Clauses integrated at this poll (post-filter, post-level-0
        /// simplification).
        count: u64,
    },
    /// The bounded share pool evicted entries past its capacity during the
    /// last portfolio race (sharing is best-effort; eviction costs reuse,
    /// never soundness).
    PoolEvicted {
        /// Entries evicted during the race.
        evicted: u64,
    },
    /// A portfolio worker began solving.
    WorkerStart {
        /// Worker index.
        worker: usize,
    },
    /// A portfolio worker finished (answered, was cancelled, or retired).
    WorkerDone {
        /// Worker index.
        worker: usize,
        /// How its run ended.
        verdict: SolveVerdict,
    },
    /// An event emitted *inside* a portfolio worker's solver, tagged with
    /// the worker's index. The portfolio serializes these through one
    /// mutex, so a threaded race delivers an interleaved but well-formed
    /// stream; in deterministic mode the order is reproducible.
    Worker {
        /// Worker index.
        worker: usize,
        /// The worker's own event (never itself a [`SolveEvent::Worker`]).
        event: Box<SolveEvent>,
    },
}

/// Receiver of [`SolveEvent`]s.
///
/// Implemented for every `FnMut(&SolveEvent)` closure, so the common case
/// needs no named type:
///
/// ```
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use berkmin::{SolveEvent, SolverBuilder};
/// use berkmin_cnf::Lit;
///
/// let events = Rc::new(RefCell::new(Vec::new()));
/// let tap = Rc::clone(&events);
/// let mut solver = SolverBuilder::new()
///     .on_event(move |e: &SolveEvent| tap.borrow_mut().push(e.clone()))
///     .clause([Lit::from_dimacs(1)])
///     .build();
/// assert!(solver.solve().is_sat());
/// assert!(matches!(events.borrow()[0], SolveEvent::SolveStart { .. }));
/// assert!(matches!(
///     events.borrow().last(),
///     Some(SolveEvent::SolveDone { .. })
/// ));
/// ```
pub trait SolveObserver {
    /// Called once per emitted event, synchronously, on the solving
    /// thread. Keep it cheap — the search blocks on it.
    fn on_event(&mut self, event: &SolveEvent);
}

impl<F: FnMut(&SolveEvent)> SolveObserver for F {
    fn on_event(&mut self, event: &SolveEvent) {
        self(event);
    }
}

/// A machine-readable record of one finished run: verdict, wall-clock
/// seconds, and the engine's [`Stats`] — what the CLI's `--stats-json`
/// writes and the test suite parses back.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// How the run ended.
    pub verdict: SolveVerdict,
    /// Wall-clock seconds the run took.
    pub seconds: f64,
    /// The engine's accumulated counters.
    pub stats: Stats,
}

impl StatsSnapshot {
    /// Captures a snapshot of `stats` under the given outcome.
    pub fn new(verdict: SolveVerdict, seconds: f64, stats: &Stats) -> Self {
        StatsSnapshot {
            verdict,
            seconds,
            stats: stats.clone(),
        }
    }

    /// The snapshot as a JSON value: `{"verdict": …, "seconds": …,
    /// "stats": {…}}` with the stats object per [`stats_to_json`].
    pub fn to_json(&self) -> json::Value {
        json::Value::object([
            (
                "verdict",
                json::Value::Str(self.verdict.as_str().to_string()),
            ),
            ("seconds", json::Value::Num(self.seconds)),
            ("stats", stats_to_json(&self.stats)),
        ])
    }

    /// Renders the snapshot as a JSON document.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Parses a snapshot back out of a JSON document. Unknown keys are
    /// ignored, so documents carrying extra fields (the CLI adds worker
    /// and pool sections) still parse.
    pub fn parse(input: &str) -> Result<StatsSnapshot, String> {
        let value = json::parse(input)?;
        let verdict = value
            .get("verdict")
            .and_then(|v| v.as_str())
            .and_then(SolveVerdict::parse)
            .ok_or("missing or malformed \"verdict\"")?;
        let seconds = value
            .get("seconds")
            .and_then(|v| v.as_f64())
            .ok_or("missing or malformed \"seconds\"")?;
        let stats = value
            .get("stats")
            .and_then(stats_from_json)
            .ok_or("missing or malformed \"stats\"")?;
        Ok(StatsSnapshot {
            verdict,
            seconds,
            stats,
        })
    }
}

/// Serializes every [`Stats`] counter as a JSON object: the scalar
/// counters in table order, then the skin-effect histogram as an array.
/// The decision log (a debugging artifact of
/// [`SolverConfig::record_decisions`](crate::SolverConfig::record_decisions),
/// empty in normal runs) is **not** serialized.
pub fn stats_to_json(stats: &Stats) -> json::Value {
    use json::Value::{Array, Int};
    let hist = Array(stats.top_distance_hist.iter().map(|&n| Int(n)).collect());
    let counters = stats.counters().into_iter().map(|(name, n)| (name, Int(n)));
    json::Value::object(counters.chain([("top_distance_hist", hist)]))
}

/// Parses a [`stats_to_json`] object back into a [`Stats`] block (the
/// decision log, which is not serialized, comes back empty). Returns
/// `None` on any missing or mistyped counter.
pub fn stats_from_json(value: &json::Value) -> Option<Stats> {
    let mut stats = Stats::new();
    for &(name, _) in Stats::COUNTERS {
        stats.set_counter(name, value.get(name)?.as_u64()?)?;
    }
    stats.top_distance_hist = value
        .get("top_distance_hist")?
        .as_array()?
        .iter()
        .map(|v| v.as_u64())
        .collect::<Option<Vec<u64>>>()?;
    Some(stats)
}

/// A minimal JSON value model, renderer and parser.
///
/// The workspace is offline-shimmed (no serde), so the telemetry layer
/// hand-rolls the little JSON it needs. The one deliberate refinement over
/// a toy model: integers get their own [`Value::Int`](json::Value::Int)
/// variant and are
/// parsed and rendered without ever passing through `f64`, so `u64`
/// counters round-trip **exactly** — the property the `--stats-json`
/// golden tests rely on.
pub mod json {
    /// A JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// A non-negative integer without fraction or exponent — kept
        /// exact (never routed through `f64`).
        Int(u64),
        /// Any other number.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Array(Vec<Value>),
        /// An object, with insertion order preserved.
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// An object from `(key, value)` pairs, in order.
        pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
            Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        }

        /// Object field lookup (`None` for non-objects / missing keys).
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The value as an exact unsigned integer.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Int(n) => Some(*n),
                _ => None,
            }
        }

        /// The value as a float (integers convert).
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Int(n) => Some(*n as f64),
                Value::Num(x) => Some(*x),
                _ => None,
            }
        }

        /// The value as a boolean.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// The value as a string slice.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The value as an array slice.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(items) => Some(items),
                _ => None,
            }
        }

        /// Renders the value as a compact JSON document.
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.render_into(&mut out);
            out
        }

        fn render_into(&self, out: &mut String) {
            match self {
                Value::Null => out.push_str("null"),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Int(n) => out.push_str(&n.to_string()),
                Value::Num(x) => {
                    if x.is_finite() {
                        // `{}` prints integral floats bare ("3"), which is
                        // still valid JSON; non-finite floats have no JSON
                        // spelling and degrade to null.
                        out.push_str(&format!("{x}"));
                    } else {
                        out.push_str("null");
                    }
                }
                Value::Str(s) => render_string(s, out),
                Value::Array(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        item.render_into(out);
                    }
                    out.push(']');
                }
                Value::Object(fields) => {
                    out.push('{');
                    for (i, (key, value)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        render_string(key, out);
                        out.push(':');
                        value.render_into(out);
                    }
                    out.push('}');
                }
            }
        }
    }

    fn render_string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Parses a JSON document. Rejects trailing garbage.
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while let Some(b) = self.bytes.get(self.pos) {
                if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
            }
        }

        fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(format!("malformed literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'n') => self.literal("null", Value::Null),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'"') => self.string().map(Value::Str),
                Some(b'[') => self.array(),
                Some(b'{') => self.object(),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => Err(format!("unexpected input at byte {}", self.pos)),
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| "non-UTF-8 number".to_string())?;
            // A plain non-negative integer stays exact; anything with a
            // sign, fraction or exponent goes through f64.
            if text.bytes().all(|b| b.is_ascii_digit()) {
                if let Ok(n) = text.parse::<u64>() {
                    return Ok(Value::Int(n));
                }
            }
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("malformed number at byte {start}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or("malformed \\u escape")?;
                                // Surrogate pairs are not needed for the
                                // telemetry output; lone surrogates map to
                                // the replacement character.
                                out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                                self.pos += 4;
                            }
                            _ => return Err("malformed escape".to_string()),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar, not one byte.
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| "non-UTF-8 string".to_string())?;
                        let c = rest.chars().next().unwrap();
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("malformed array at byte {}", self.pos)),
                }
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(format!("malformed object at byte {}", self.pos)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::Value;
    use super::*;

    #[test]
    fn verdict_names_round_trip() {
        for v in [
            SolveVerdict::Sat,
            SolveVerdict::Unsat,
            SolveVerdict::Unknown,
        ] {
            assert_eq!(SolveVerdict::parse(v.as_str()), Some(v));
        }
        assert_eq!(SolveVerdict::parse("sat"), None);
    }

    #[test]
    fn json_values_render_and_parse_back() {
        let value = Value::Object(vec![
            ("name".to_string(), Value::Str("a \"b\"\n\\c".to_string())),
            ("count".to_string(), Value::Int(u64::MAX)),
            ("ratio".to_string(), Value::Num(1.5)),
            ("flag".to_string(), Value::Bool(true)),
            ("nothing".to_string(), Value::Null),
            (
                "items".to_string(),
                Value::Array(vec![Value::Int(1), Value::Int(2)]),
            ),
        ]);
        let parsed = json::parse(&value.render()).unwrap();
        assert_eq!(parsed, value);
        // u64::MAX survived exactly — it would not fit in an f64.
        assert_eq!(parsed.get("count").and_then(|v| v.as_u64()), Some(u64::MAX));
    }

    #[test]
    fn json_parser_handles_whitespace_and_rejects_garbage() {
        let v = json::parse(" { \"a\" : [ 1 , 2.5 , \"x\" ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert!(json::parse("{} trailing").is_err());
        assert!(json::parse("{\"a\":}").is_err());
        assert!(json::parse("[1,]").is_err());
        assert!(json::parse("").is_err());
    }

    #[test]
    fn negative_and_exponent_numbers_parse_as_floats() {
        let v = json::parse("[-3, 1e2, 0.5]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_f64(), Some(-3.0));
        assert_eq!(items[0].as_u64(), None);
        assert_eq!(items[1].as_f64(), Some(100.0));
        assert_eq!(items[2].as_f64(), Some(0.5));
    }

    #[test]
    fn stats_round_trip_through_json_exactly() {
        let stats = Stats {
            decisions: 123,
            conflicts: u64::MAX - 7,
            propagations: 456,
            restarts: 3,
            reductions: 2,
            learnt_total: 40,
            lbd_sum: 100,
            lbd_max: 9,
            top_distance_hist: vec![5, 0, 2],
            pool_evicted: 11,
            pool_missed: 4,
            clauses_subsumed: 6,
            vars_eliminated: 2,
            ..Stats::new()
        };
        let parsed = stats_from_json(&stats_to_json(&stats)).unwrap();
        assert_eq!(parsed, stats);
    }

    #[test]
    fn stats_json_key_set_is_pinned() {
        // The `--stats-json` schema: adding, renaming or dropping a counter
        // row must be a deliberate change to this list.
        let mut want = [
            "decisions",
            "conflicts",
            "propagations",
            "restarts",
            "reductions",
            "learnt_total",
            "learnt_units",
            "learnt_lits_total",
            "deleted_clauses",
            "gc_runs",
            "gc_words_reclaimed",
            "max_live_clauses",
            "initial_clauses",
            "decisions_from_top_clause",
            "decisions_from_free_var",
            "top_distance_hist",
            "responsible_clauses",
            "solve_calls",
            "assumption_conflicts",
            "lbd_sum",
            "lbd_max",
            "clauses_exported",
            "clauses_imported",
            "pool_evicted",
            "pool_missed",
            "clauses_subsumed",
            "clauses_strengthened",
            "vars_eliminated",
            "elim_resolvents",
        ];
        let Value::Object(fields) = stats_to_json(&Stats::new()) else {
            unreachable!()
        };
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        want.sort_unstable();
        assert_eq!(keys, want);
    }

    #[test]
    fn snapshot_parses_its_own_rendering_and_tolerates_extras() {
        let snapshot = StatsSnapshot::new(
            SolveVerdict::Unsat,
            0.25,
            &Stats {
                conflicts: 17,
                ..Stats::new()
            },
        );
        let parsed = StatsSnapshot::parse(&snapshot.render()).unwrap();
        assert_eq!(parsed, snapshot);

        // Extra top-level keys (the CLI's worker/pool sections) are fine.
        let Value::Object(mut fields) = snapshot.to_json() else {
            unreachable!()
        };
        fields.push(("extra".to_string(), Value::Str("ignored".to_string())));
        let parsed = StatsSnapshot::parse(&Value::Object(fields).render()).unwrap();
        assert_eq!(parsed.stats.conflicts, 17);
    }

    #[test]
    fn closures_are_observers() {
        let mut seen = 0usize;
        {
            let mut obs = |_: &SolveEvent| seen += 1;
            obs.on_event(&SolveEvent::Restart {
                restarts: 1,
                conflicts: 550,
            });
            obs.on_event(&SolveEvent::WorkerStart { worker: 0 });
        }
        assert_eq!(seen, 2);
    }
}
