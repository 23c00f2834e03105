//! Isolated host-time benchmark of the SHRIMP simulator.
//!
//! One process runs one [`Workload`]: a set-up pass, then untraced passes
//! for the requested time (end-to-end metrics), and with tracing on, two
//! observed passes plus one microbenchmark per layer (per-layer metrics).
//! Every record is checked; see [`workload::Checker`].

pub mod layers;
pub mod spans;
pub mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::time::{Duration, Instant};

use shrimp_bench::RunRecord;

use layers::{Costs, Counts};
use spans::{median, Spans};
use workload::{record_line, Checker, Row, Workload, DEFAULT_SEED};

/// Untraced passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// What one benchmark process runs.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed, given to every spec through `RunSpec::with_seed`.
    pub seed: u64,
    /// How long the untraced passes run, at least.
    pub seconds: f64,
    /// Whether to make the traced passes and the microbenchmarks.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// `true` for the metrics `BENCHMARK.json` declares; the result line
    /// carries exactly these.
    pub declared: bool,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Report {
    /// What ran.
    pub options: Options,
    /// Row executions attempted.
    pub attempted: u64,
    /// Row executions that panicked or failed a check.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// Untraced passes measured.
    pub passes: usize,
    /// Every metric, declared or not.
    pub metrics: Vec<Metric>,
    /// Predicted pass time from the cost model, in ms (traced runs).
    pub predicted_ms: Option<f64>,
    /// The spans the run recorded.
    pub spans: Spans,
}

impl Report {
    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result line: one JSON object with the declared metrics.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.declared)
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Counts row executions and failures.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    /// Counts one row execution; `err` describes its failure, if any.
    fn count(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    /// Runs one row execution in this process under `catch_unwind`
    /// inside a span, and checks its record. Returns the execution on
    /// success.
    fn run<T>(
        &mut self,
        spans: &mut Spans,
        checker: &mut Checker,
        row: &Row,
        exec: impl FnOnce() -> T,
        record: impl Fn(&T) -> RunRecord,
    ) -> Option<T> {
        spans.open(row.name);
        let out = catch_unwind(AssertUnwindSafe(exec)).map_err(panic_message);
        spans.close();
        let err = match &out {
            Ok(t) => checker.check(row.name, &record_line(row.name, &record(t))),
            Err(e) => Err(e.clone()),
        };
        let ok = err.is_ok();
        self.count(err.err().map(|e| format!("{}: {e}", row.name)));
        out.ok().filter(|_| ok)
    }
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    let msg = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("?");
    format!("panicked: {msg}")
}

/// A memory figure of this process from `/proc/self/status` in MiB —
/// `VmHWM` is the peak resident set, `VmRSS` the current one; 0 without
/// procfs.
fn status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One untraced pass, run in the calling process: the child side of
/// [`run`]. Returns the lines the child prints — `row <name> <wall_ns>
/// <record line>` or `fail <name> <message>` per row, then `pass <ns>`.
pub fn child_pass(workload: Workload, seed: u64) -> Vec<String> {
    let start = Instant::now();
    let mut lines: Vec<String> = workload
        .rows(seed)
        .iter()
        .map(|row| match catch_unwind(|| workload::execute(row)) {
            Ok((record, ns)) => format!("row {} {ns} {}", row.name, record_line(row.name, &record)),
            Err(panic) => format!("fail {} {}", row.name, panic_message(panic)),
        })
        .collect();
    lines.push(format!("pass {}", start.elapsed().as_nanos()));
    lines
}

/// Runs one untraced pass in a child process and checks its records.
/// Returns the pass time in ns and each row's time in ns.
fn spawn_pass(
    options: &Options,
    tally: &mut Tally,
    checker: &mut Checker,
) -> Option<(u64, Vec<(String, u64)>)> {
    let out = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--workload", options.workload.name(), "--pass"])
            .args(["--seed", &options.seed.to_string()])
            .output()
    });
    let stdout = match out {
        Ok(o) if o.status.success() => Ok(String::from_utf8_lossy(&o.stdout).into_owned()),
        Ok(o) => Err(format!("pass process failed: {}", o.status)),
        Err(e) => Err(format!("pass process not started: {e}")),
    };
    let stdout = match stdout {
        Ok(s) => s,
        Err(e) => {
            tally.count(Some(e));
            return None;
        }
    };
    let (mut pass_ns, mut rows) = (None, Vec::new());
    for line in stdout.lines() {
        let mut f = line.splitn(4, ' ');
        match (f.next(), f.next(), f.next(), f.next()) {
            (Some("row"), Some(name), Some(ns), Some(record)) => {
                let err = checker.check(name, record).err();
                tally.count(err.map(|e| format!("{name}: {e}")));
                rows.push((name.to_string(), ns.parse().unwrap_or(0)));
            }
            (Some("fail"), Some(name), msg, rest) => tally.count(Some(format!(
                "{name}: {} {}",
                msg.unwrap_or(""),
                rest.unwrap_or("")
            ))),
            (Some("pass"), Some(ns), None, None) => pass_ns = ns.parse().ok(),
            _ => {}
        }
    }
    Some((pass_ns?, rows))
}

/// Runs one workload process; `origin` is the process start.
pub fn run(options: Options, origin: Instant) -> Report {
    let rows = options.workload.rows(options.seed);
    let mut checker = Checker::new(options.seed, true);
    let mut spans = Spans::new(origin);
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    let mut push = |name: String, value: f64, unit: &'static str, declared: bool| {
        metrics.push(Metric {
            name,
            value,
            unit,
            declared,
        })
    };

    // Set-up: one checked pass in this process.
    spans.open("setup");
    for row in &rows {
        tally.run(
            &mut spans,
            &mut checker,
            row,
            || workload::execute(row),
            |o| o.0,
        );
    }
    spans.close();
    let setup_s = origin.elapsed().as_secs_f64();
    // Memory of one pass: runs that do not return their memory would
    // otherwise grow the peak with the pass count.
    let rss_mb = status_mb("VmHWM:");

    // Untraced passes, each in a fresh child process: how slow a pass
    // runs varies from process to process, so the median over passes
    // also averages over processes.
    let mut pass_s = Vec::new();
    let mut row_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let timed = Instant::now();
    let budget = Duration::from_secs_f64(options.seconds);
    while pass_s.len() < MIN_PASSES || timed.elapsed() < budget {
        spans.open("pass");
        let pass = spawn_pass(&options, &mut tally, &mut checker);
        spans.close();
        let Some((ns, row_ns)) = pass else { break };
        pass_s.push(ns as f64 / 1e9);
        for (name, ns) in row_ns {
            row_ms.entry(name).or_default().push(ns as f64 / 1e6);
        }
    }
    let passes = pass_s.len();
    let wall_s = median(&mut pass_s);
    let e2e = !options.trace;
    push("wall_s".into(), wall_s, "s", e2e);
    push("setup_s".into(), setup_s, "s", e2e);
    push("peak_rss_mb".into(), rss_mb, "MiB", e2e);
    for (name, ms) in &mut row_ms {
        push(format!("row.{name}.wall_ms"), median(ms), "ms", false);
    }

    let mut predicted_ms = None;
    if options.trace {
        predicted_ms = Some(traced_metrics(
            &rows,
            wall_s,
            options.seed,
            &mut tally,
            &mut spans,
            &mut checker,
            &mut push,
        ));
    }

    // Off the default seed nothing is committed to compare with, so the
    // launch rows must at least agree with their other shard count.
    if let Some(k) = options.workload.twin_shards() {
        if options.seed != DEFAULT_SEED {
            spans.open("twin");
            for row in rows.iter().map(|r| r.at_shards(k)) {
                tally.run(
                    &mut spans,
                    &mut checker,
                    &row,
                    || workload::execute(&row),
                    |o| o.0,
                );
            }
            spans.close();
        }
    }

    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    push("failed_frac".into(), failed_frac, "ratio", false);
    Report {
        options,
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        passes,
        metrics,
        predicted_ms,
        spans,
    }
}

/// The traced passes and the microbenchmarks; pushes the per-layer
/// metrics and returns the cost model's predicted pass time in ms.
fn traced_metrics(
    rows: &[Row],
    wall_s: f64,
    seed: u64,
    tally: &mut Tally,
    spans: &mut Spans,
    checker: &mut Checker,
    push: &mut impl FnMut(String, f64, &'static str, bool),
) -> f64 {
    // Two observed passes, whose counts must repeat exactly, each after
    // an untraced pass in this same process: the reference for the
    // tracing overhead, and for the memory a pass leaves behind.
    let (mut plain_s, mut grown_mb) = (Vec::new(), 0.0);
    let mut passes: Vec<(Counts, f64)> = Vec::new();
    for _ in 0..2 {
        let before = status_mb("VmRSS:");
        spans.open("pass");
        for row in rows {
            tally.run(spans, checker, row, || workload::execute(row), |o| o.0);
        }
        plain_s.push(spans.close() as f64 / 1e9);
        grown_mb += (status_mb("VmRSS:") - before).max(0.0);
        let mut counts = Counts::default();
        spans.open("traced-pass");
        for row in rows {
            if let Some(o) = tally.run(
                spans,
                checker,
                row,
                || workload::execute_observed(row),
                |o| o.record,
            ) {
                counts.add(row, &o);
            }
        }
        passes.push((counts, spans.close() as f64 / 1e9));
    }
    if passes[0].0 != passes[1].0 {
        tally.count(Some(format!(
            "per-layer counts differ between traced passes:\n  {:?}\n  {:?}",
            passes[0].0, passes[1].0
        )));
    }
    let mut traced_s: Vec<f64> = passes.iter().map(|p| p.1).collect();
    let traced_s = median(&mut traced_s);
    let plain_s = median(&mut plain_s);
    let c = passes.swap_remove(0).0;

    let app_kernels = layers::app_rows(&Workload::PaperP16.rows(seed));
    let k: Costs = layers::measure_costs(spans, &app_kernels);
    let est = layers::estimates(&c, &k, rows);
    let predicted_ms: f64 = est.iter().map(|e| e.1).sum();

    let mut count = |name: &str, v: u64| push(name.into(), v as f64, "count", true);
    count("sim.events", c.events);
    count("shard.windows", c.windows);
    count("net.packets", c.packets_contended + c.packets_decoupled);
    count("nic.du_transfers", c.du_transfers);
    count("nic.au_packets", c.au_packets);
    count("nic.fifo_threshold_interrupts", c.fifo_threshold_interrupts);
    count("vmmc.messages", c.messages);
    count("notify.notifications", c.notifications);
    count("notify.interrupts", c.interrupts);
    count("svm.read_faults", c.read_faults);
    count("svm.write_faults", c.write_faults);
    count("faults.injected", c.faults_injected);
    push("net.wire_bytes".into(), c.wire_bytes as f64, "bytes", true);
    push("nic.du_bytes".into(), c.du_bytes as f64, "bytes", true);
    push(
        "net.contention_wait_ps".into(),
        c.contention_wait_ps as f64,
        "sim-ps",
        true,
    );
    push(
        "faults.detection_latency_ps".into(),
        c.detection_latency_ps as f64,
        "sim-ps",
        true,
    );
    push(
        "shard.events_per_window".into(),
        c.windowed_events as f64 / c.windows.max(1) as f64,
        "events/window",
        true,
    );
    push(
        "sim.host_ns_per_event".into(),
        wall_s * 1e9 / c.events.max(1) as f64,
        "ns/event",
        true,
    );
    for (name, cost) in [
        ("sim.sleep_ns", k.sim_event),
        ("sim.queue_msg_ns", k.sim_queue),
        ("shard.window_ns", k.shard_window),
        ("net.send_contended_ns", k.net_contended),
        ("net.send_decoupled_ns", k.net_decoupled),
        ("nic.du_page_ns", k.nic_du_page),
        ("nic.au_store_ns", k.nic_au_store),
        ("vmmc.send_small_ns", k.vmmc_small),
        ("notify.dispatch_ns", k.notify),
        ("svm.fault_ns", k.svm_fault),
    ] {
        push(name.into(), cost.ns, "ns", true);
    }
    for (app, cost) in &k.apps {
        push(format!("apps.{app}.p1_ms"), cost.ns / 1e6, "ms", true);
    }
    // A layer whose count can be 0 on some workload has an estimate of
    // exactly 0 there, and so does `notify`, whose exclusive cost is near
    // 0; only the other layers are declared.
    for (layer, ms) in &est {
        let declared = matches!(*layer, "sim" | "net" | "nic" | "vmmc");
        push(format!("{layer}.est_ms"), *ms, "ms", declared);
    }
    push("model.predicted_ms".into(), predicted_ms, "ms", true);
    push(
        "model.explained_frac".into(),
        predicted_ms / (wall_s * 1e3),
        "ratio",
        true,
    );
    push("mem.growth_mb_per_pass".into(), grown_mb / 2.0, "MiB", true);
    push("trace.wall_s".into(), traced_s, "s", true);
    push(
        "trace.overhead_frac".into(),
        traced_s / plain_s - 1.0,
        "ratio",
        true,
    );
    predicted_ms
}
