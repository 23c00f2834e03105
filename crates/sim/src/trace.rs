//! Optional event tracing: a timeline of component events for debugging
//! and for the experiment harness's trace dumps.
//!
//! Tracing is off by default and costs one branch per call site when
//! disabled. Components record `(time, category, kv, message)` rows; the
//! owner of the [`Sim`](crate::Sim) drains them with
//! [`TraceSink::take`]. Categories are a closed [`Category`] enum and
//! each event carries a structured key/value payload, so harnesses
//! filter and aggregate without string matching.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::time::Time;

/// The component that recorded a trace event.
///
/// A closed enum (not a string) so experiment harnesses can filter and
/// aggregate by equality instead of string matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Network-interface hardware/firmware (DU engine, AU snooper, IPT).
    Nic,
    /// Backplane routing and channels.
    Net,
    /// Node memory and memory bus.
    Mem,
    /// Shared-virtual-memory protocol layer.
    Svm,
    /// The VMMC library and cluster system software.
    Core,
    /// NX message-passing library.
    Nx,
    /// Stream sockets layer.
    Sockets,
    /// Application-level events.
    App,
    /// Tests, examples and everything else.
    Other,
}

impl Category {
    /// The lowercase label used in rendered timelines.
    pub fn as_str(&self) -> &'static str {
        match self {
            Category::Nic => "nic",
            Category::Net => "net",
            Category::Mem => "mem",
            Category::Svm => "svm",
            Category::Core => "core",
            Category::Nx => "nx",
            Category::Sockets => "sock",
            Category::App => "app",
            Category::Other => "other",
        }
    }
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One trace row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub at: Time,
    /// Recording component.
    pub category: Category,
    /// Structured payload: named numeric fields (node ids, byte counts,
    /// page numbers) the harness aggregates over.
    pub kv: Vec<(&'static str, u64)>,
    /// Human-readable description.
    pub message: String,
}

impl TraceEvent {
    /// Looks up a structured payload field by name.
    pub fn field(&self, key: &str) -> Option<u64> {
        self.kv.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

struct SinkInner {
    enabled: bool,
    events: VecDeque<TraceEvent>,
    /// Bound on retained events (oldest dropped beyond it).
    capacity: usize,
    dropped: u64,
}

/// A shared trace buffer. Cheap to clone.
#[derive(Clone)]
pub struct TraceSink {
    inner: Rc<RefCell<SinkInner>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("TraceSink")
            .field("enabled", &inner.enabled)
            .field("events", &inner.events.len())
            .field("dropped", &inner.dropped)
            .finish()
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink {
    /// Creates a disabled sink with the default capacity (64 K events).
    pub fn new() -> Self {
        TraceSink {
            inner: Rc::new(RefCell::new(SinkInner {
                enabled: false,
                events: VecDeque::new(),
                capacity: 64 * 1024,
                dropped: 0,
            })),
        }
    }

    /// Enables recording, optionally bounding the retained event count.
    pub fn enable(&self, capacity: Option<usize>) {
        let mut inner = self.inner.borrow_mut();
        inner.enabled = true;
        if let Some(c) = capacity {
            inner.capacity = c;
        }
    }

    /// Disables recording (already-recorded events are kept).
    pub fn disable(&self) {
        self.inner.borrow_mut().enabled = false;
    }

    /// `true` while recording. Call sites use this to skip formatting work.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.borrow().enabled
    }

    /// Records an event with no structured payload (no-op when disabled).
    pub fn record(&self, at: Time, category: Category, message: String) {
        self.record_kv(at, category, Vec::new(), message);
    }

    /// Records an event with a structured payload (no-op when disabled).
    ///
    /// Duplicate keys are collapsed in place, last write wins:
    /// [`TraceEvent::field`] is a first-match linear scan, so without this a
    /// repeated key would shadow its own latest value. First-occurrence
    /// order is kept so rendered timelines stay stable.
    pub fn record_kv(
        &self,
        at: Time,
        category: Category,
        mut kv: Vec<(&'static str, u64)>,
        message: String,
    ) {
        let mut inner = self.inner.borrow_mut();
        if !inner.enabled {
            return;
        }
        let mut kept = 0;
        for i in 0..kv.len() {
            let (k, v) = kv[i];
            match kv[..kept].iter_mut().find(|(dk, _)| *dk == k) {
                Some(slot) => slot.1 = v,
                None => {
                    kv[kept] = (k, v);
                    kept += 1;
                }
            }
        }
        kv.truncate(kept);
        if inner.events.len() >= inner.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(TraceEvent {
            at,
            category,
            kv,
            message,
        });
    }

    /// Takes all recorded events, leaving the sink empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.inner.borrow_mut().events).into()
    }

    /// Takes only the events of one category, leaving the rest recorded.
    pub fn take_category(&self, category: Category) -> Vec<TraceEvent> {
        let mut inner = self.inner.borrow_mut();
        let (hit, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut inner.events)
            .into_iter()
            .partition(|e| e.category == category);
        inner.events = keep.into();
        hit
    }

    /// Events dropped to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Renders events as a plain-text timeline.
    pub fn render(events: &[TraceEvent]) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for e in events {
            let _ = write!(
                out,
                "{:>14.3} us  {:<6} {}",
                crate::time::to_us(e.at),
                e.category,
                e.message
            );
            for (k, v) in &e.kv {
                let _ = write!(out, "  {k}={v}");
            }
            out.push('\n');
        }
        out
    }
}

/// Records into `sink` only if enabled, deferring message formatting.
///
/// An optional `[("key", value), ...]` payload before the format string
/// attaches structured fields:
///
/// ```
/// use shrimp_sim::{trace_event, Category, Sim};
/// let sim = Sim::new();
/// sim.trace().enable(None);
/// trace_event!(sim.trace(), sim.now(), Category::Other, "value = {}", 42);
/// trace_event!(
///     sim.trace(),
///     sim.now(),
///     Category::Nic,
///     [("len", 64u64)],
///     "packet out"
/// );
/// let events = sim.trace().take();
/// assert_eq!(events.len(), 2);
/// assert_eq!(events[1].field("len"), Some(64));
/// ```
#[macro_export]
macro_rules! trace_event {
    ($sink:expr, $at:expr, $cat:expr, [$(($k:expr, $v:expr)),* $(,)?], $($arg:tt)*) => {
        if $sink.enabled() {
            // Exact-capacity allocation: the payload length is known here at
            // the macro site, so the Vec never over- or re-allocates.
            let mut kv: ::std::vec::Vec<(&'static str, u64)> =
                ::std::vec::Vec::with_capacity(0usize $(+ { let _ = stringify!($k); 1 })*);
            $(kv.push(($k, $v as u64));)*
            $sink.record_kv($at, $cat, kv, format!($($arg)*));
        }
    };
    ($sink:expr, $at:expr, $cat:expr, $($arg:tt)*) => {
        if $sink.enabled() {
            $sink.record($at, $cat, format!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::new();
        sink.record(5, Category::Other, "hello".into());
        assert!(sink.take().is_empty());
    }

    #[test]
    fn enabled_sink_records_and_drains() {
        let sink = TraceSink::new();
        sink.enable(None);
        sink.record(1, Category::Nic, "one".into());
        sink.record(2, Category::Svm, "two".into());
        let ev = sink.take();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].message, "one");
        assert!(sink.take().is_empty());
        let text = TraceSink::render(&ev);
        assert!(text.contains("one") && text.contains("two"));
        assert!(text.contains("nic") && text.contains("svm"));
    }

    #[test]
    fn capacity_bound_drops_oldest() {
        let sink = TraceSink::new();
        sink.enable(Some(3));
        for i in 0..5 {
            sink.record(i, Category::Other, format!("e{i}"));
        }
        let ev = sink.take();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].message, "e2");
        assert_eq!(sink.dropped(), 2);
    }

    #[test]
    fn repeated_overflow_keeps_newest_in_order() {
        let sink = TraceSink::new();
        sink.enable(Some(100));
        for i in 0..10_000u64 {
            sink.record_kv(i, Category::Other, vec![("i", i)], String::new());
        }
        assert_eq!(sink.dropped(), 9_900);
        let ev = sink.take();
        let kept: Vec<u64> = ev.iter().map(|e| e.at).collect();
        assert_eq!(kept, (9_900..10_000).collect::<Vec<_>>());
        assert!(ev.iter().all(|e| e.field("i") == Some(e.at)));
        assert!(sink.take().is_empty());
    }

    #[test]
    fn kv_payload_is_queryable_and_rendered() {
        let sink = TraceSink::new();
        sink.enable(None);
        sink.record_kv(
            7,
            Category::Nic,
            vec![("node", 3), ("len", 4096)],
            "DU transfer".into(),
        );
        let ev = sink.take();
        assert_eq!(ev[0].field("len"), Some(4096));
        assert_eq!(ev[0].field("node"), Some(3));
        assert_eq!(ev[0].field("missing"), None);
        let text = TraceSink::render(&ev);
        assert!(text.contains("len=4096"), "{text}");
    }

    #[test]
    fn duplicate_kv_keys_collapse_last_write_wins() {
        let sink = TraceSink::new();
        sink.enable(None);
        sink.record_kv(
            1,
            Category::Nic,
            vec![
                ("node", 1),
                ("len", 10),
                ("node", 2),
                ("len", 20),
                ("dst", 3),
            ],
            "dup".into(),
        );
        let ev = sink.take();
        // One entry per key, first-occurrence order, latest value.
        assert_eq!(ev[0].kv, vec![("node", 2), ("len", 20), ("dst", 3)]);
        assert_eq!(ev[0].field("node"), Some(2));
        assert_eq!(ev[0].field("len"), Some(20));
    }

    #[test]
    fn macro_kv_payload_allocates_exact_capacity() {
        let sink = TraceSink::new();
        sink.enable(None);
        crate::trace_event!(
            &sink,
            1,
            Category::Nic,
            [("a", 1u64), ("b", 2u64), ("a", 3u64)],
            "macro dedupe"
        );
        let ev = sink.take();
        assert_eq!(ev[0].kv, vec![("a", 3), ("b", 2)]);
        // Capacity was reserved for the macro-site payload (3 pairs), and
        // dedupe only shrinks the length, never reallocates.
        assert!(ev[0].kv.capacity() <= 3);
    }

    #[test]
    fn take_category_partitions() {
        let sink = TraceSink::new();
        sink.enable(None);
        sink.record(1, Category::Nic, "a".into());
        sink.record(2, Category::Svm, "b".into());
        sink.record(3, Category::Nic, "c".into());
        let nic = sink.take_category(Category::Nic);
        assert_eq!(nic.len(), 2);
        let rest = sink.take();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].category, Category::Svm);
    }
}
