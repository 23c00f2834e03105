//! The benchmark's own tests: deterministic counts, the shard-window
//! split between the launch workloads, and the printed metric set.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use shrimp_perfbench::layers::Counts;
use shrimp_perfbench::workload::{execute_observed, Workload, DEFAULT_SEED};

/// One observed pass of `w`: its per-layer counts.
fn counts(w: Workload) -> Counts {
    let mut c = Counts::default();
    for row in w.rows(DEFAULT_SEED) {
        c.add(&row, &execute_observed(&row));
    }
    c
}

#[test]
fn counts_repeat_exactly_and_windows_split_by_shard_count() {
    for w in Workload::ALL {
        assert_eq!(counts(w), counts(w), "{} counts drifted", w.name());
    }
    let (one, two) = (counts(Workload::LaunchSh1), counts(Workload::LaunchSh2));
    assert_eq!(one.windows, 0, "one shard must run windowless");
    assert!(two.windows > 0, "two shards ran no windows");
    // Only the window counts may differ with the shard count.
    let windowless = |c: &Counts| Counts {
        windows: 0,
        windowed_events: 0,
        ..c.clone()
    };
    assert_eq!(windowless(&one), windowless(&two));
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        obj[at..at + obj[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// `(name, unit)` of every metric in a result line.
fn printed(line: &str) -> Vec<(String, String)> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    metrics
        .split("}, \"")
        .map(|m| {
            let name = m.trim_start_matches("\"metrics\": {\"");
            let name = &name[..name.find('"').expect("name ends")];
            let unit = &m[m.find("\"unit\": \"").expect("unit key") + 9..];
            (
                name.to_string(),
                unit[..unit.find('"').expect("unit ends")].to_string(),
            )
        })
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for w in Workload::ALL {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", w.name(), "--seconds", "0.1", "--trace", trace])
                .output()
                .expect("run the benchmark");
            assert!(out.status.success(), "{} --trace {trace} failed", w.name());
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true, "), "{last}");
            let mut got = printed(last);
            let mut want = declared(section);
            got.sort();
            want.sort();
            assert_eq!(got, want, "{} --trace {trace}", w.name());
        }
    }
}
