//! The benchmark's own host-time spans and small statistics helpers.
//!
//! Spans are recorded around each pass, each row and each microbenchmark
//! call, kept in memory, and written as one JSON file when the run ends.
//! Spans inside the program are not recorded.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are ns since the recorder's origin.
#[derive(Debug, Clone)]
struct Span {
    /// What ran.
    name: String,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// Start, ns since origin.
    start_ns: u64,
    /// End, ns since origin (0 while open).
    end_ns: u64,
}

/// An in-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose times count from `origin`.
    pub(crate) fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub(crate) fn open(&mut self, name: &str) {
        let span = Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span and returns its duration in ns.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub(crate) fn close(&mut self) -> u64 {
        let i = self.open.pop().expect("close without an open span");
        let end = self.now();
        self.spans[i].end_ns = end;
        end - self.spans[i].start_ns
    }

    /// Runs `f` inside a span named `name`.
    pub(crate) fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// The spans as a JSON array of `{name, parent, start_ns, end_ns}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                span.name, span.start_ns, span.end_ns
            );
            s.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push(']');
        s
    }
}

/// Median of `v` (mean of the middle two for even lengths; 0 if empty).
pub(crate) fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
