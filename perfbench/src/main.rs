//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --all [--seed N] [--seconds S]
//! perfbench --write-expected
//! perfbench --workload <name> [--seed N] --pass
//! ```
//!
//! One workload per process. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics at `--trace 0` and the per-layer metrics at
//! `--trace 1`. `--all` runs every workload in its own child process at
//! both trace settings and prints a summary. The exit code is non-zero
//! when any row failed. `--pass` is the child side of a workload run: one
//! untraced pass, its row times and records printed for the parent.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use shrimp_perfbench::workload::{record_line, Checker, Workload, DEFAULT_SEED};
use shrimp_perfbench::{child_pass, run, Options, Report};

/// A run that has not ended by then is killed, with a non-zero exit.
const WATCHDOG: Duration = Duration::from_secs(175);

/// The same for one child pass, which ends well before its parent's
/// watchdog fires.
const PASS_WATCHDOG: Duration = Duration::from_secs(60);

const USAGE: &str = "usage: perfbench --workload <paper-p16|launch-sh1|launch-sh2> \
[--seed N] [--seconds S] [--trace 0|1]\n       perfbench --all [--seed N] [--seconds S]\n       \
perfbench --write-expected";

fn main() -> ExitCode {
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Mode::One(options)) => one(options, origin),
        Ok(Mode::Pass(options)) => {
            watchdog(PASS_WATCHDOG);
            for line in child_pass(options.workload, options.seed) {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Ok(Mode::All { seed, seconds }) => all(seed, seconds),
        Ok(Mode::WriteExpected) => write_expected(),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

enum Mode {
    One(Options),
    Pass(Options),
    All { seed: u64, seconds: f64 },
    WriteExpected,
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 20.0, false);
    let (mut all, mut write, mut pass) = (false, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--all" => all = true,
            "--write-expected" => write = true,
            "--pass" => pass = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    match (workload, all, write) {
        (Some(workload), false, false) => {
            let options = Options {
                workload,
                seed,
                seconds,
                trace,
            };
            Ok(if pass {
                Mode::Pass(options)
            } else {
                Mode::One(options)
            })
        }
        (None, true, false) => Ok(Mode::All { seed, seconds }),
        (None, false, true) => Ok(Mode::WriteExpected),
        _ => Err("give exactly one of --workload, --all, --write-expected".into()),
    }
}

/// Host threads available to this process.
fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Refuses a workload needing more threads than the host has: it would
/// time the OS scheduler, not the simulator.
fn measurable(w: Workload) -> Result<(), String> {
    let have = host_threads();
    if w.threads() > have {
        return Err(format!(
            "{}: not measurable on this host: needs {} threads, {} available",
            w.name(),
            w.threads(),
            have
        ));
    }
    Ok(())
}

fn one(options: Options, origin: Instant) -> ExitCode {
    if let Err(e) = measurable(options.workload) {
        println!("{e}");
        return ExitCode::from(3);
    }
    watchdog(WATCHDOG);
    let report = run(options, origin);
    print_report(&report);
    write_spans(&report);
    println!("{}", report.json());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Ends the process with exit code 4 once `limit` has passed.
fn watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: run exceeded {} s, aborting", limit.as_secs());
        std::process::exit(4);
    });
}

fn print_report(r: &Report) {
    let o = &r.options;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_threads={} passes={}",
        o.workload.name(),
        o.seed,
        o.seconds,
        u8::from(o.trace),
        host_threads(),
        r.passes
    );
    for m in &r.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    if let (Some(predicted), Some(wall)) = (r.predicted_ms, r.metric("wall_s")) {
        println!(
            "model {}: predicted {:.1} ms (sum of <layer>.est_ms) vs measured wall_s {:.4} s, explained_frac {:.3}",
            o.workload.name(),
            predicted,
            wall.value,
            predicted / (wall.value * 1e3)
        );
    }
    for e in &r.errors {
        println!("error {e}");
    }
}

/// Writes the run's spans beside the executable, inside the build
/// directory.
fn write_spans(r: &Report) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
    else {
        return;
    };
    let o = &r.options;
    let path = dir.join(format!(
        "spans-{}-s{}-t{}.json",
        o.workload.name(),
        o.seed,
        u8::from(o.trace)
    ));
    match std::fs::write(&path, r.spans.to_json()) {
        Ok(()) => println!("spans {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

/// Metric name to value and unit, as a child process printed them.
type Metrics = BTreeMap<String, (f64, String)>;

/// Runs every measurable workload in its own process, untraced then
/// traced, and prints a summary with the shard speedup.
fn all(seed: u64, seconds: f64) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut ok = true;
    let mut table: Vec<(Workload, Metrics)> = Vec::new();
    for w in Workload::ALL {
        if let Err(e) = measurable(w) {
            println!("{e}");
            continue;
        }
        let mut metrics = BTreeMap::new();
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn a workload process");
            let out = child.stdout.take().expect("piped stdout");
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                println!("  {line}");
                let f: Vec<&str> = line.split(' ').collect();
                if let ["metric", name, value, unit] = f[..] {
                    if let Ok(v) = value.parse::<f64>() {
                        // The untraced run's figures come first and win.
                        metrics
                            .entry(name.to_string())
                            .or_insert((v, unit.to_string()));
                    }
                }
            }
            ok &= child.wait().is_ok_and(|s| s.success());
        }
        table.push((w, metrics));
    }
    println!(
        "summary seed={seed} seconds={seconds} host_threads={}",
        host_threads()
    );
    for (w, m) in &table {
        let mut line = format!("  {:<11}", w.name());
        for name in ["wall_s", "setup_s", "peak_rss_mb", "failed_frac"] {
            if let Some((v, unit)) = m.get(name) {
                line.push_str(&format!("  {name}={v:.4} {unit}"));
            }
        }
        println!("{line}");
    }
    let wall = |w: Workload| {
        table
            .iter()
            .find(|(t, _)| *t == w)
            .and_then(|(_, m)| m.get("wall_s").map(|v| v.0))
    };
    if let (Some(sh1), Some(sh2)) = (wall(Workload::LaunchSh1), wall(Workload::LaunchSh2)) {
        println!(
            "  shard speedup (launch-sh1 wall_s / launch-sh2 wall_s) = {:.3}",
            sh1 / sh2
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Regenerates `expected.txt`: every row once at the default seed, the
/// launch rows at both shard counts (which must agree).
fn write_expected() -> ExitCode {
    let mut checker = Checker::new(DEFAULT_SEED, false);
    let mut lines = vec![
        "# Expected RunRecords of every benchmark row at workload seed 1.".to_string(),
        "# Regenerate with: perfbench --write-expected".to_string(),
    ];
    for w in Workload::ALL {
        for row in w.rows(DEFAULT_SEED) {
            let (record, _) = shrimp_perfbench::workload::execute(&row);
            let line = record_line(row.name, &record);
            if let Err(e) = checker.check(row.name, &line) {
                eprintln!("perfbench: {}: {e}", row.name);
                return ExitCode::FAILURE;
            }
            if !lines.contains(&line) {
                lines.push(line);
            }
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.txt");
    lines.push(String::new());
    match std::fs::write(path, lines.join("\n")) {
        Ok(()) => {
            println!("wrote {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: cannot write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
