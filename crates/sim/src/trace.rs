//! Optional event tracing: a timeline of component events for debugging
//! and for the experiment harness's trace dumps.
//!
//! Tracing is off by default and costs one branch per call site when
//! disabled. Each call site declares its event once, as a static
//! [`TraceKind`] (name, [`Category`] and field keys), through
//! [`trace_event!`](crate::trace_event). A recorded [`TraceEvent`] is a
//! fixed-size `Copy` value: the time, the kind, the node and at most
//! [`MAX_FIELDS`] numeric field values. Recording allocates nothing per
//! event; text exists only at export ([`TraceSink::render`], the harness's
//! Chrome export), where the kind supplies the name and the keys. The owner
//! of the [`Sim`](crate::Sim) drains events with [`TraceSink::take`].

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

/// The most numeric fields one event carries besides its node.
pub const MAX_FIELDS: usize = 5;

/// What one trace call site records, declared once as a `static`.
#[derive(Debug, PartialEq, Eq)]
pub struct TraceKind {
    /// Short identifier with no spaces; the event name at export.
    pub name: &'static str,
    /// Recording component.
    pub category: Category,
    /// The names of the event's field values, in order.
    pub keys: &'static [&'static str],
}

impl TraceKind {
    /// Declares a kind. Panics unless the keys number at most
    /// [`MAX_FIELDS`], are distinct and leave out `node` (every event's own
    /// field); in a `static` initializer that panic is a compile error.
    pub const fn new(
        name: &'static str,
        category: Category,
        keys: &'static [&'static str],
    ) -> Self {
        assert!(
            keys.len() <= MAX_FIELDS,
            "a trace event has at most five fields"
        );
        let mut i = 0;
        while i < keys.len() {
            assert!(
                !str_eq(keys[i], "node"),
                "`node` is every trace event's own field"
            );
            let mut j = 0;
            while j < i {
                assert!(!str_eq(keys[i], keys[j]), "duplicate trace field key");
                j += 1;
            }
            i += 1;
        }
        TraceKind {
            name,
            category,
            keys,
        }
    }
}

const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// One trace row: 64 bytes, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub at: Time,
    /// The call site's kind: name, category and field keys.
    pub kind: &'static TraceKind,
    /// The node the event happened on.
    pub node: u64,
    values: [u64; MAX_FIELDS],
}

impl TraceEvent {
    /// Recording component.
    pub fn category(&self) -> Category {
        self.kind.category
    }

    /// The `(key, value)` fields in declaration order, `node` excluded.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.kind.keys.iter().copied().zip(self.values)
    }

    /// Looks up a field by key (`node` excluded).
    pub fn field(&self, key: &str) -> Option<u64> {
        self.fields().find(|&(k, _)| k == key).map(|(_, v)| v)
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

    /// `true` while recording.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.borrow().enabled
    }

    /// Records one event of `kind` (no-op when disabled); `values` line up
    /// with `kind.keys`. Call sites use [`trace_event!`](crate::trace_event).
    pub fn record(&self, at: Time, kind: &'static TraceKind, node: u64, values: &[u64]) {
        debug_assert_eq!(values.len(), kind.keys.len(), "{}: field count", kind.name);
        let mut inner = self.inner.borrow_mut();
        if !inner.enabled {
            return;
        }
        let mut event = TraceEvent {
            at,
            kind,
            node,
            values: [0; MAX_FIELDS],
        };
        event.values[..values.len()].copy_from_slice(values);
        if inner.events.len() >= inner.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
    }

    /// Takes all recorded events, leaving the sink empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.inner.borrow_mut().events).into()
    }

    /// Events dropped to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Renders events as a plain-text timeline: one `time category kind
    /// node=… k=v…` line each.
    pub fn render(events: &[TraceEvent]) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for e in events {
            let _ = write!(
                out,
                "{:>14.3} us  {:<6} {}  node={}",
                crate::time::to_us(e.at),
                e.category().as_str(),
                e.kind.name,
                e.node
            );
            for (k, v) in e.fields() {
                let _ = write!(out, "  {k}={v}");
            }
            out.push('\n');
        }
        out
    }
}

/// Records one event into `sink` if it is enabled.
///
/// The call names its kind and category, the event's `node`, and at most
/// [`MAX_FIELDS`] more numeric fields as `key = value`; the kind is a
/// `static` built once per call site, so a duplicate key or a sixth field
/// fails to compile.
///
/// ```
/// use shrimp_sim::{trace_event, Category, Sim};
/// let sim = Sim::new();
/// sim.trace().enable(None);
/// trace_event!(sim.trace(), sim.now(), Category::Nic, "packet_out", node = 3, len = 64);
/// let events = sim.trace().take();
/// assert_eq!(events[0].kind.name, "packet_out");
/// assert_eq!((events[0].node, events[0].field("len")), (3, Some(64)));
/// ```
///
/// ```compile_fail
/// # use shrimp_sim::{trace_event, Category, Sim};
/// # let sim = Sim::new();
/// trace_event!(sim.trace(), 0, Category::Nic, "dup", node = 0, len = 1, len = 2);
/// ```
#[macro_export]
macro_rules! trace_event {
    ($sink:expr, $at:expr, $cat:expr, $name:literal, node = $node:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $sink.enabled() {
            static KIND: $crate::trace::TraceKind =
                $crate::trace::TraceKind::new($name, $cat, &[$(stringify!($k)),*]);
            $sink.record($at, &KIND, $node as u64, &[$($v as u64),*]);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    static TICK: TraceKind = TraceKind::new("tick", Category::Other, &["i"]);

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::new();
        sink.record(5, &TICK, 0, &[1]);
        assert!(sink.take().is_empty());
    }

    #[test]
    fn enabled_sink_records_and_drains() {
        let sink = TraceSink::new();
        sink.enable(None);
        crate::trace_event!(&sink, 1, Category::Nic, "one", node = 0);
        crate::trace_event!(&sink, 2, Category::Svm, "two", node = 1);
        let ev = sink.take();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].kind.name, "one");
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
            sink.record(i, &TICK, 0, &[i]);
        }
        let ev = sink.take();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].field("i"), Some(2));
        assert_eq!(sink.dropped(), 2);
    }

    #[test]
    fn repeated_overflow_keeps_newest_in_order() {
        let sink = TraceSink::new();
        sink.enable(Some(100));
        for i in 0..10_000u64 {
            sink.record(i, &TICK, 0, &[i]);
        }
        assert_eq!(sink.dropped(), 9_900);
        let ev = sink.take();
        let kept: Vec<u64> = ev.iter().map(|e| e.at).collect();
        assert_eq!(kept, (9_900..10_000).collect::<Vec<_>>());
        assert!(ev.iter().all(|e| e.field("i") == Some(e.at)));
        assert!(sink.take().is_empty());
    }

    #[test]
    fn fields_are_queryable_and_rendered() {
        let sink = TraceSink::new();
        sink.enable(None);
        crate::trace_event!(
            &sink,
            7,
            Category::Nic,
            "du_transfer",
            node = 3,
            len = 4096,
            dst = 1
        );
        let ev = sink.take();
        assert_eq!(ev[0].node, 3);
        assert_eq!(ev[0].field("len"), Some(4096));
        assert_eq!(ev[0].field("missing"), None);
        let text = TraceSink::render(&ev);
        assert!(
            text.ends_with("nic    du_transfer  node=3  len=4096  dst=1\n"),
            "{text}"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate trace field key")]
    fn duplicate_keys_are_rejected() {
        let _ = TraceKind::new("dup", Category::Nic, &["len", "dst", "len"]);
    }

    #[test]
    #[should_panic(expected = "own field")]
    fn node_key_is_rejected() {
        let _ = TraceKind::new("dup", Category::Nic, &["node"]);
    }
}
