//! Observability integration tests: the metrics registry and trace export
//! must be complete when on (an observed fig3 row yields a Chrome trace
//! spanning several component timelines plus latency histograms in the
//! sweep row). That they are free when off is the smoke baseline's job:
//! unobserved rows must byte-match `results/baselines/smoke.json`.

use std::collections::BTreeSet;

use shrimp_bench::{matrix, RunSpec, Scale};
use shrimp_harness::runner::{RunResult, RunStatus};
use shrimp_harness::{chrome, json, sweep};

fn smoke_spec(id: &str) -> RunSpec {
    matrix(Scale::Smoke, 4)
        .into_iter()
        .find(|s| s.id() == id)
        .unwrap_or_else(|| panic!("{id} missing from smoke matrix"))
}

/// An observed fig3 SVM row must produce a Chrome trace whose timeline
/// spans at least four component categories (NIC, network, SVM, VMMC) and
/// a sweep row whose metrics block carries latency histograms alongside
/// the flat gated fields.
#[test]
fn observed_fig3_row_exports_multi_category_trace_and_histograms() {
    let spec = smoke_spec("fig3/radix-svm-aurc/p2/as-built");
    let (record, _perf, obs) = spec.execute_observed();
    assert_eq!(obs.trace_dropped, 0, "smoke row overflowed the trace sink");

    // The Chrome export: valid JSON, >= 4 distinct category timelines.
    let trace = chrome::to_chrome_json(&spec.id(), &obs);
    let doc = json::parse(&trace).expect("trace export is valid JSON");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let tids: BTreeSet<u64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("i"))
        .map(|e| e.get("tid").unwrap().as_u64().unwrap())
        .collect();
    assert!(
        tids.len() >= 4,
        "expected >= 4 category timelines, got tids {tids:?}"
    );

    // The sweep row: flat gated fields plus observed metrics, histograms
    // included.
    let result = RunResult {
        index: 0,
        spec: spec.clone(),
        status: RunStatus::Ok(record),
        perf: None,
        obs: Some(obs),
    };
    let text = sweep::to_json("smoke", &[result]);
    let doc = json::parse(&text).expect("sweep artifact is valid JSON");
    let rows = doc.get("rows").unwrap().as_arr().unwrap();
    let metrics = rows[0].get("metrics").unwrap();
    let json::Json::Obj(map) = metrics else {
        panic!("metrics is not an object")
    };
    assert!(
        metrics.get("elapsed_ns").and_then(|v| v.as_u64()).is_some(),
        "flat gated fields must survive observation"
    );
    let histograms: Vec<&String> = map
        .iter()
        .filter(|(_, v)| v.get("kind").and_then(|k| k.as_str()) == Some("histogram"))
        .map(|(k, _)| k)
        .collect();
    assert!(
        !histograms.is_empty(),
        "observed row carries no latency histograms: keys {:?}",
        map.keys().collect::<Vec<_>>()
    );
    assert!(
        histograms.iter().all(|k| k.contains('/')),
        "observed metric keys must be category-namespaced: {histograms:?}"
    );
}
