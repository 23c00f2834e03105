//! Host-side performance artifact (`results/perf.json`) and its generous
//! regression gate.
//!
//! Wall-clock is everything `sweep.json` must never contain: it varies by
//! machine, load, and build. So perf samples live in their own artifact
//! with their own baseline (`results/baselines/perf-<scale>.json`).
//!
//! The gate compares the **aggregate** sweep throughput (total simulator
//! events over total wall-clock) against the baseline with a deliberately
//! wide ±40% band. Per-run rows are recorded for trend-reading but never
//! gated: a smoke run lasts well under a millisecond, so its individual
//! wall-clock is dominated by scheduler noise and worker contention, while
//! the whole-sweep aggregate is stable run-to-run. The band exists to catch
//! order-of-magnitude hot-path regressions (an accidental `Mutex`, a
//! per-event allocation storm), not single-digit drift, which would flake
//! across CI hosts. Sweeps *faster* than the band never fail the gate; they
//! are reported so the baseline can be refreshed to raise the floor.

use std::fmt::Write as _;

use shrimp_bench::Shards;

use crate::json::{escape, Json};
use crate::runner::RunResult;

/// Schema tag written into every perf document. v2 adds the effective
/// `shards` count to every row and a `speedups` array with one entry per
/// shard-engine experiment group that carried a pinned scaling pair. The
/// per-row `windows` count came later; it is additive, so the tag stayed.
pub const SCHEMA: &str = "shrimp-perf-v2";

/// Relative band around the baseline's aggregate `events_per_sec`.
/// Only drops below the band fail; see the module docs for the rationale.
pub const TOLERANCE: f64 = 0.40;

/// Events per second as an integer, computed in 128-bit so huge runs
/// cannot overflow.
pub fn events_per_sec(events: u64, wall_ns: u64) -> u64 {
    if wall_ns == 0 {
        return 0;
    }
    ((events as u128 * 1_000_000_000) / wall_ns as u128) as u64
}

/// Sums the samples of completed runs into `(events, wall_ns)`.
fn totals(results: &[RunResult]) -> (u64, u64) {
    results
        .iter()
        .filter_map(|r| r.perf)
        .fold((0, 0), |(events, wall), p| {
            (events + p.events, wall + p.wall_ns)
        })
}

/// Serializes the perf samples of completed runs as the perf document.
/// Failed runs (panic/timeout) have no sample and are omitted — the sweep
/// gate already fails them. The `totals` object is what the gate reads.
pub fn to_json(scale: &str, results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(out, "  \"scale\": \"{}\",", escape(scale));
    let (events, wall_ns) = totals(results);
    let _ = writeln!(
        out,
        "  \"totals\": {{\"wall_ns\": {}, \"events\": {}, \"events_per_sec\": {}}},",
        wall_ns,
        events,
        events_per_sec(events, wall_ns),
    );
    let speedups = pinned_speedups(results);
    if !speedups.is_empty() {
        out.push_str("  \"speedups\": [\n");
        for (i, sp) in speedups.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"experiment\": \"{}\", \"base_id\": \"{}\", \"wide_id\": \"{}\", \
                 \"shards\": {}, \"base_events_per_sec\": {}, \"wide_events_per_sec\": {}, \
                 \"ratio\": {:.3}}}",
                escape(&sp.experiment),
                escape(&sp.base_id),
                escape(&sp.wide_id),
                sp.shards,
                sp.base,
                sp.wide,
                sp.ratio(),
            );
            out.push_str(if i + 1 < speedups.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
    }
    out.push_str("  \"rows\": [\n");
    let rows: Vec<_> = results.iter().filter_map(|r| Some((r, r.perf?))).collect();
    for (i, (r, p)) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"id\": \"{}\", \"wall_ns\": {}, \"events\": {}, \
             \"events_per_sec\": {}, \"peak_rss_bytes\": {}, \"shards\": {}, \"windows\": {}}}",
            escape(&r.spec.id()),
            p.wall_ns,
            p.events,
            events_per_sec(p.events, p.wall_ns),
            p.peak_rss_bytes,
            p.shards,
            p.windows,
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// A pinned shard-engine scaling comparison within one experiment group:
/// the 1-shard row against the widest `Shards::Fixed` row, by per-row
/// events/sec.
#[derive(Debug, Clone)]
pub struct Speedup {
    /// Experiment group the pair belongs to (`cluster`).
    pub experiment: String,
    /// Id of the single-shard row.
    pub base_id: String,
    /// Id of the widest pinned row.
    pub wide_id: String,
    /// Shard count of the widest pinned row.
    pub shards: usize,
    /// Events/sec of the single-shard row.
    pub base: u64,
    /// Events/sec of the widest pinned row.
    pub wide: u64,
}

impl Speedup {
    /// Throughput of the widest row relative to the single-shard row.
    pub fn ratio(&self) -> f64 {
        if self.base == 0 {
            return 0.0;
        }
        self.wide as f64 / self.base as f64
    }
}

/// The experiment groups whose matrices carry pinned `Shards::Fixed`
/// scaling pairs, in the order their speedups are reported.
const SHARD_ENGINE_EXPERIMENTS: [&str; 1] = ["cluster"];

/// Extracts every [`Speedup`] comparison from completed pinned
/// shard-engine rows — one per experiment group in
/// `SHARD_ENGINE_EXPERIMENTS` that carried both a `Fixed(1)` row and a
/// wider `Fixed(k)` row. In each pair the two rows execute the
/// byte-identical simulation (the workloads are shard-count invariant),
/// so their events/sec ratio isolates the conservative executor's
/// parallel efficiency — meaningful only when the sweep ran with
/// `--workers 1`, which CI's perf job does.
pub fn pinned_speedups(results: &[RunResult]) -> Vec<Speedup> {
    SHARD_ENGINE_EXPERIMENTS
        .iter()
        .filter_map(|&experiment| {
            let rows: Vec<(&RunResult, usize)> = results
                .iter()
                .filter_map(|r| match (r.spec.experiment, r.spec.shards, r.perf) {
                    (e, Shards::Fixed(k), Some(_)) if e == experiment => Some((r, k)),
                    _ => None,
                })
                .collect();
            let (base, _) = rows.iter().find(|&&(_, k)| k == 1)?;
            let (wide, shards) = rows
                .iter()
                .filter(|&&(_, k)| k > 1)
                .max_by_key(|&&(_, k)| k)?;
            let eps = |r: &RunResult| {
                let p = r.perf.expect("pinned rows were filtered on perf presence");
                events_per_sec(p.events, p.wall_ns)
            };
            Some(Speedup {
                experiment: experiment.to_string(),
                base_id: base.spec.id(),
                wide_id: wide.spec.id(),
                shards: *shards,
                base: eps(base),
                wide: eps(wide),
            })
        })
        .collect()
}

/// Outcome of the `--require-speedup` gate across every measured pair.
#[derive(Debug, Clone)]
pub struct SpeedupOutcome {
    /// The measured comparisons, one per shard-engine experiment group
    /// present in the sweep.
    pub speedups: Vec<Speedup>,
    /// Minimum acceptable ratio, applied to each pair.
    pub required: f64,
    /// Hardware threads available to this process.
    pub host_threads: usize,
}

impl SpeedupOutcome {
    /// `true` when the host cannot run this pair's shards in parallel,
    /// making a wall-clock speedup physically unmeasurable; the gate
    /// reports and passes that pair rather than failing on machine shape.
    fn pair_skipped(&self, s: &Speedup) -> bool {
        self.host_threads < s.shards
    }

    /// `true` when every measured pair was skipped for host shape.
    pub fn skipped(&self) -> bool {
        self.speedups.iter().all(|s| self.pair_skipped(s))
    }

    /// `true` when every non-skipped pair met the required ratio.
    pub fn passed(&self) -> bool {
        self.speedups
            .iter()
            .all(|s| self.pair_skipped(s) || s.ratio() >= self.required)
    }

    /// Renders the per-pair speedup-gate verdicts for humans.
    pub fn render(&self) -> String {
        let mut lines = Vec::with_capacity(self.speedups.len());
        for s in &self.speedups {
            if self.pair_skipped(s) {
                lines.push(format!(
                    "{} speedup gate SKIPPED: host has {} hardware thread(s) but \
                     {} uses {} shards — wall-clock speedup is not measurable here \
                     (measured {:.2}x, required \u{2265}{:.2}x)",
                    s.experiment,
                    self.host_threads,
                    s.wide_id,
                    s.shards,
                    s.ratio(),
                    self.required
                ));
                continue;
            }
            lines.push(format!(
                "{} speedup gate {}: {} at {} events/sec vs {} at {} events/sec \
                 — {:.2}x (required \u{2265}{:.2}x)",
                s.experiment,
                if s.ratio() >= self.required {
                    "PASSED"
                } else {
                    "FAILED"
                },
                s.wide_id,
                s.wide,
                s.base_id,
                s.base,
                s.ratio(),
                self.required
            ));
        }
        lines.join("\n")
    }
}

/// Gates every pinned shard-engine speedup pair the sweep carried: `Err`
/// when it carried none (the gate was requested but cannot measure).
pub fn check_speedup(
    results: &[RunResult],
    required: f64,
    host_threads: usize,
) -> Result<SpeedupOutcome, String> {
    let speedups = pinned_speedups(results);
    if speedups.is_empty() {
        return Err(
            "no completed pinned shard-engine rows (need a Fixed(1) and a wider Fixed(N) \
             row in the cluster group — run with --experiment cluster)"
                .to_string(),
        );
    }
    Ok(SpeedupOutcome {
        speedups,
        required,
        host_threads,
    })
}

/// Outcome of gating fresh perf samples against a perf baseline.
#[derive(Debug, Clone)]
pub struct PerfOutcome {
    /// Baseline aggregate events/sec.
    pub baseline: u64,
    /// Fresh aggregate events/sec.
    pub fresh: u64,
    /// Rows carried by the baseline document (informational).
    pub baseline_rows: usize,
    /// Rows sampled by this sweep.
    pub fresh_rows: usize,
}

impl PerfOutcome {
    /// The lowest aggregate throughput the gate accepts.
    pub fn floor(&self) -> u64 {
        (self.baseline as f64 * (1.0 - TOLERANCE)) as u64
    }

    /// `true` when aggregate throughput stayed above the floor.
    pub fn passed(&self) -> bool {
        self.fresh >= self.floor()
    }

    /// `true` when the sweep beat the baseline by more than the band —
    /// never a failure, but a sign the committed floor is stale.
    pub fn stale_floor(&self) -> bool {
        self.fresh as f64 > self.baseline as f64 * (1.0 + TOLERANCE)
    }

    /// Renders the perf-gate verdict for humans.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.passed() {
            let _ = write!(
                out,
                "perf gate PASSED: {} events/sec aggregate over {} run(s) \
                 (baseline {}, floor {} at \u{2212}{:.0}%)",
                self.fresh,
                self.fresh_rows,
                self.baseline,
                self.floor(),
                TOLERANCE * 100.0
            );
        } else {
            let _ = write!(
                out,
                "perf gate FAILED: {} events/sec aggregate over {} run(s) \
                 fell below the floor of {} (baseline {} \u{2212} {:.0}%)",
                self.fresh,
                self.fresh_rows,
                self.floor(),
                self.baseline,
                TOLERANCE * 100.0
            );
        }
        if self.stale_floor() {
            let _ = write!(
                out,
                "\nnote: aggregate beat the baseline by >{:.0}% — refresh \
                 results/baselines/perf-*.json to raise the floor",
                TOLERANCE * 100.0
            );
        }
        out
    }
}

/// Diffs fresh results against a parsed perf-baseline document. Only the
/// aggregate `events_per_sec` gates; per-row figures and `peak_rss_bytes`
/// are recorded for trend-reading, not gating.
pub fn check(baseline: &Json, results: &[RunResult]) -> Result<PerfOutcome, String> {
    let base_totals = baseline
        .get("totals")
        .ok_or("perf baseline has no \"totals\" object")?;
    let base = base_totals
        .get("events_per_sec")
        .and_then(|v| v.as_u64())
        .ok_or("perf baseline totals missing \"events_per_sec\"")?;
    let baseline_rows = baseline
        .get("rows")
        .and_then(|r| r.as_arr())
        .map(<[Json]>::len)
        .unwrap_or(0);
    let (events, wall_ns) = totals(results);
    Ok(PerfOutcome {
        baseline: base,
        fresh: events_per_sec(events, wall_ns),
        baseline_rows,
        fresh_rows: results.iter().filter(|r| r.perf.is_some()).count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::runner::RunStatus;
    use shrimp_bench::{App, PerfSample, RunSpec, Scale};

    fn result_with(events: u64, wall_ns: u64) -> RunResult {
        let spec = RunSpec::new("test", App::DfsSockets, 2, Scale::Smoke);
        let record = spec.execute();
        RunResult {
            index: 0,
            spec,
            status: RunStatus::Ok(record),
            perf: Some(PerfSample {
                wall_ns,
                events,
                peak_rss_bytes: 1 << 20,
                shards: 1,
                windows: 0,
            }),
            obs: None,
        }
    }

    #[test]
    fn document_has_the_promised_schema() {
        let results = vec![result_with(2_000, 1_000_000)];
        let text = to_json("smoke", &results);
        let doc = json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        for field in [
            "id",
            "wall_ns",
            "events",
            "events_per_sec",
            "peak_rss_bytes",
            "shards",
            "windows",
        ] {
            assert!(rows[0].get(field).is_some(), "row missing {field}");
        }
        assert_eq!(rows[0].get("shards").unwrap().as_u64(), Some(1));
        assert_eq!(rows[0].get("windows").unwrap().as_u64(), Some(0));
        // 2000 events in 1ms = 2M events/sec, in the row and the totals.
        assert_eq!(
            rows[0].get("events_per_sec").unwrap().as_u64(),
            Some(2_000_000)
        );
        let totals = doc.get("totals").unwrap();
        assert_eq!(totals.get("events").unwrap().as_u64(), Some(2_000));
        assert_eq!(
            totals.get("events_per_sec").unwrap().as_u64(),
            Some(2_000_000)
        );
    }

    #[test]
    fn failed_runs_are_omitted_from_rows_and_totals() {
        let mut failed = result_with(1_000, 1_000);
        failed.status = RunStatus::TimedOut;
        failed.perf = None;
        let text = to_json("smoke", &[failed, result_with(2_000, 1_000_000)]);
        let doc = json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("rows").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(
            doc.get("totals").unwrap().get("events").unwrap().as_u64(),
            Some(2_000)
        );
    }

    #[test]
    fn gate_tolerates_the_band_and_fails_beyond_it() {
        let baseline = json::parse(&to_json("smoke", &[result_with(1_000_000, 1_000_000_000)]))
            .expect("valid JSON");
        // 30% slower in aggregate: inside the band.
        let ok = check(&baseline, &[result_with(700_000, 1_000_000_000)]).unwrap();
        assert!(ok.passed(), "{}", ok.render());
        assert!(!ok.stale_floor());
        // 50% slower: regression.
        let slow = check(&baseline, &[result_with(500_000, 1_000_000_000)]).unwrap();
        assert!(!slow.passed());
        assert!(slow.render().contains("FAILED"));
        // 2x faster: passes, reported as a stale floor.
        let fast = check(&baseline, &[result_with(2_000_000, 1_000_000_000)]).unwrap();
        assert!(fast.passed());
        assert!(fast.stale_floor());
    }

    fn pinned_result(
        experiment: &'static str,
        app: App,
        index: usize,
        shards: Shards,
        events: u64,
        wall_ns: u64,
    ) -> RunResult {
        let spec = RunSpec::new(experiment, app, 16, Scale::Smoke).with_shards(shards);
        // A synthetic record is fine here: the speedup path reads only the
        // spec and the perf sample.
        let record = shrimp_bench::RunRecord {
            elapsed: 1,
            checksum: 1,
            messages: 0,
            notifications: 0,
            interrupts: 0,
            syscalls: 0,
            net_packets: 0,
            net_bytes: 0,
            recovery: None,
            kv: None,
        };
        RunResult {
            index,
            spec,
            status: RunStatus::Ok(record),
            perf: Some(PerfSample {
                wall_ns,
                events,
                peak_rss_bytes: 0,
                shards: match shards {
                    Shards::Fixed(k) => k,
                    Shards::Auto => 1,
                },
                windows: 0,
            }),
            obs: None,
        }
    }

    fn cluster_result(index: usize, shards: Shards, events: u64, wall_ns: u64) -> RunResult {
        pinned_result("cluster", App::ClusterNodes, index, shards, events, wall_ns)
    }

    #[test]
    fn speedup_compares_the_pinned_extremes() {
        let results = vec![
            cluster_result(0, Shards::Fixed(1), 1_000, 1_000_000),
            cluster_result(1, Shards::Fixed(2), 1_000, 700_000),
            cluster_result(2, Shards::Fixed(4), 1_000, 500_000),
            // Auto rows and other experiments never enter the comparison.
            cluster_result(3, Shards::Auto, 1_000, 1),
            result_with(9_999, 1),
        ];
        let speedups = pinned_speedups(&results);
        assert_eq!(speedups.len(), 1, "only the cluster group has a pair");
        let sp = &speedups[0];
        assert_eq!(sp.experiment, "cluster");
        assert_eq!(sp.shards, 4);
        assert!(sp.base_id.ends_with("/sh1") && sp.wide_id.ends_with("/sh4"));
        assert!((sp.ratio() - 2.0).abs() < 0.01, "ratio {}", sp.ratio());

        let ok = check_speedup(&results, 1.5, 4).unwrap();
        assert!(ok.passed() && !ok.skipped());
        assert!(ok.render().contains("PASSED"));
        let fail = check_speedup(&results, 2.5, 4).unwrap();
        assert!(!fail.passed());
        assert!(fail.render().contains("FAILED"));
        // One hardware thread cannot exhibit a 4-shard wall-clock speedup:
        // the gate reports and passes instead of failing on machine shape.
        let skip = check_speedup(&results, 2.5, 1).unwrap();
        assert!(skip.skipped() && skip.passed());
        assert!(skip.render().contains("SKIPPED"));

        // The perf document records the comparison.
        let text = to_json("smoke", &results);
        let doc = json::parse(&text).expect("valid JSON");
        let block = doc.get("speedups").expect("speedups array");
        let arr = block.as_arr().expect("array");
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("experiment").unwrap().as_str(), Some("cluster"));
        assert_eq!(arr[0].get("shards").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn speedup_gates_only_the_shard_engine_groups() {
        // A pinned kv pair scales 2.0x, cluster only 1.2x: the kv pair is
        // not a shard-engine scaling probe, so it neither enters the gate
        // nor hides the cluster pair's failure.
        let results = vec![
            pinned_result("kv", App::KvNodes, 0, Shards::Fixed(1), 1_000, 1_000_000),
            pinned_result("kv", App::KvNodes, 1, Shards::Fixed(4), 1_000, 500_000),
            cluster_result(2, Shards::Fixed(1), 1_200, 1_000_000),
            cluster_result(3, Shards::Fixed(4), 1_200, 833_000),
        ];
        let speedups = pinned_speedups(&results);
        assert_eq!(speedups.len(), 1);
        assert_eq!(speedups[0].experiment, "cluster");

        let ok = check_speedup(&results, 1.1, 4).unwrap();
        assert!(ok.passed());
        let fail = check_speedup(&results, 1.5, 4).unwrap();
        assert!(!fail.passed(), "the 1.2x cluster pair must fail a 1.5x bar");
        let render = fail.render();
        assert!(render.contains("cluster speedup gate FAILED"), "{render}");
        assert!(!render.contains("kv"), "{render}");
        // A 2-thread host skips the 4-shard pair and passes.
        let skip = check_speedup(&results, 1.5, 2).unwrap();
        assert!(skip.skipped() && skip.passed());

        let text = to_json("smoke", &results);
        let doc = json::parse(&text).expect("valid JSON");
        let arr = doc.get("speedups").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("experiment").unwrap().as_str(), Some("cluster"));
    }

    #[test]
    fn speedup_needs_both_pinned_rows() {
        let only_base = vec![cluster_result(0, Shards::Fixed(1), 1_000, 1_000)];
        assert!(pinned_speedups(&only_base).is_empty());
        assert!(check_speedup(&only_base, 1.5, 4).is_err());
        let text = to_json("smoke", &only_base);
        assert!(!text.contains("speedups"));
    }

    #[test]
    fn a_sweep_with_no_samples_fails_the_gate() {
        let baseline =
            json::parse(&to_json("smoke", &[result_with(1_000_000, 1_000)])).expect("valid JSON");
        let mut failed = result_with(0, 0);
        failed.status = RunStatus::TimedOut;
        failed.perf = None;
        let outcome = check(&baseline, &[failed]).unwrap();
        assert!(!outcome.passed(), "zero throughput must never pass");
        assert_eq!(outcome.fresh, 0);
    }
}
