//! Chrome `trace_event` export: renders one run's [`Observation`] as a
//! JSON file loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! Layout follows the trace-viewer convention for a simulated cluster:
//! one **pid per node** (the event's `node`) and one **tid per
//! [`Category`]**, so the viewer shows a per-node process group with NIC /
//! network / SVM / VMMC timelines stacked inside it. Timestamps are the
//! simulator's picoseconds rendered as microseconds with six fractional
//! digits via integer math — no float formatting — so the file is
//! byte-identical across hosts.
//!
//! The metrics snapshot is embedded under a top-level `"metrics"` key
//! (trace viewers ignore unknown keys), making each trace file a
//! self-contained record of the run.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use shrimp_bench::Observation;
use shrimp_sim::metrics::MetricValue;
use shrimp_sim::{Category, Time};

use crate::json::escape;

/// The fixed thread id of a category. Stable across runs and releases so
/// saved traces stay comparable.
pub fn category_tid(category: Category) -> u64 {
    match category {
        Category::Nic => 1,
        Category::Net => 2,
        Category::Mem => 3,
        Category::Svm => 4,
        Category::Core => 5,
        Category::Nx => 6,
        Category::Sockets => 7,
        Category::App => 8,
        Category::Other => 9,
    }
}

/// Picoseconds as a Chrome `ts` literal: microseconds with a six-digit
/// fraction, formatted with integer arithmetic for cross-host stability.
fn ts_us(at: Time) -> String {
    format!("{}.{:06}", at / 1_000_000, at % 1_000_000)
}

/// Renders an observation as a Chrome trace document.
pub fn to_chrome_json(run_id: &str, obs: &Observation) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"displayTimeUnit\": \"ms\",");
    let _ = writeln!(out, "  \"runId\": \"{}\",", escape(run_id));
    let _ = writeln!(out, "  \"traceDropped\": {},", obs.trace_dropped);
    out.push_str("  \"traceEvents\": [\n");

    // Metadata first: name every process (node) and thread (category)
    // that appears, in deterministic order.
    let pids: BTreeSet<u64> = obs.events.iter().map(|e| e.node).collect();
    let threads: BTreeSet<(u64, Category)> =
        obs.events.iter().map(|e| (e.node, e.category())).collect();
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
    };
    for pid in &pids {
        sep(&mut out);
        let _ = write!(
            out,
            "    {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
             \"args\": {{\"name\": \"node {pid}\"}}}}"
        );
    }
    for (pid, cat) in &threads {
        sep(&mut out);
        let _ = write!(
            out,
            "    {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {}, \
             \"args\": {{\"name\": \"{}\"}}}}",
            category_tid(*cat),
            cat.as_str()
        );
    }

    // The timeline: one instant event per trace row, thread-scoped, named
    // by its kind, with the node and the fields as args.
    for e in &obs.events {
        sep(&mut out);
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \
             \"ts\": {}, \"pid\": {}, \"tid\": {}, \"args\": {{\"node\": {}",
            e.kind.name,
            e.category().as_str(),
            ts_us(e.at),
            e.node,
            category_tid(e.category()),
            e.node,
        );
        for (k, v) in e.fields() {
            let _ = write!(out, ", \"{k}\": {v}");
        }
        out.push_str("}}");
    }
    out.push_str("\n  ],\n");

    // The metrics snapshot, same shape as the sweep row entries.
    out.push_str("  \"metrics\": {");
    for (i, s) in obs.metrics.samples.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}/{}\": ", s.category.as_str(), s.name);
        match &s.value {
            MetricValue::Counter(v) => {
                let _ = write!(out, "{v}");
            }
            MetricValue::Gauge { last, max } => {
                let _ = write!(
                    out,
                    "{{\"kind\": \"gauge\", \"last\": {last}, \"max\": {max}}}"
                );
            }
            MetricValue::Histogram(h) => {
                let _ = write!(
                    out,
                    "{{\"kind\": \"histogram\", \"count\": {}, \"sum\": {}, \"min\": {}, \
                     \"max\": {}, \"buckets\": {:?}}}",
                    h.count, h.sum, h.min, h.max, h.buckets
                );
            }
        }
    }
    out.push_str("}\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use shrimp_core::NodeStats;
    use shrimp_sim::{trace_event, MetricsRegistry, TraceSink};
    use std::rc::Rc;

    fn sample_observation() -> Observation {
        let sink = TraceSink::new();
        sink.enable(None);
        trace_event!(
            &sink,
            1_500_000,
            Category::Nic,
            "du_out",
            node = 0,
            len = 64
        );
        trace_event!(
            &sink,
            2_750_001,
            Category::Net,
            "packet",
            node = 1,
            hops = 2
        );
        let m = MetricsRegistry::new();
        m.enable();
        let stats = Rc::new(NodeStats::default());
        stats.messages_sent.set(2);
        m.register(stats);
        m.observe(Category::Core, "send_latency_ps", 1_000_000);
        Observation {
            events: sink.take(),
            trace_dropped: 0,
            metrics: m.snapshot(),
        }
    }

    #[test]
    fn chrome_document_is_valid_and_shaped() {
        let text = to_chrome_json("fig3/test/p2", &sample_observation());
        let doc = json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 process_name + 2 thread_name + 2 instants.
        assert_eq!(events.len(), 6);
        let meta: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .collect();
        assert_eq!(meta.len(), 4);
        let instants: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("i"))
            .collect();
        assert_eq!(instants.len(), 2);
        // pid routes by the node; tid by category; name is the kind.
        assert_eq!(instants[0].get("pid").unwrap().as_u64(), Some(0));
        assert_eq!(instants[0].get("tid").unwrap().as_u64(), Some(1)); // nic
        assert_eq!(instants[1].get("pid").unwrap().as_u64(), Some(1));
        assert_eq!(instants[1].get("tid").unwrap().as_u64(), Some(2)); // net
        assert_eq!(instants[1].get("name").unwrap().as_str(), Some("packet"));
        let args = instants[1].get("args").unwrap();
        assert_eq!(args.get("node").unwrap().as_u64(), Some(1));
        assert_eq!(args.get("hops").unwrap().as_u64(), Some(2));
        // ts is integer-formatted microseconds: 1_500_000 ps = 1.5 us.
        assert!(text.contains("\"ts\": 1.500000"), "{text}");
        assert!(text.contains("\"ts\": 2.750001"), "{text}");
        // The metrics snapshot rides along.
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.get("core/messages_sent").unwrap().as_u64(), Some(2));
        let hist = metrics.get("core/send_latency_ps").unwrap();
        assert_eq!(hist.get("kind").unwrap().as_str(), Some("histogram"));
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn export_is_deterministic() {
        let a = to_chrome_json("id", &sample_observation());
        let b = to_chrome_json("id", &sample_observation());
        assert_eq!(a, b);
    }
}
