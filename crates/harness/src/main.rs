//! The `shrimp-harness` CLI: run the experiment sweep, write
//! `results/sweep.json`, and gate against committed baselines — or, with
//! `--report`, render the paper's figures and tables from a saved sweep.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use shrimp_bench::{matrix, Scale};
use shrimp_harness::runner::{run_sweep_with_progress, RunnerOptions};
use shrimp_harness::{chrome, gate, json, perf, report, sweep};

const USAGE: &str = "\
shrimp-harness — parallel experiment sweep with baseline regression gating

USAGE:
  cargo run --release -p shrimp-harness -- [FLAGS]

FLAGS:
  --smoke             smallest problem sizes, 4 nodes (CI gate scale)
  --full              the paper's problem sizes, 16 nodes
                      (default without either flag: reduced bench sizes)
  --nodes <N>         override the matrix's maximum node count
  --workers <N>       worker threads (default: available parallelism)
  --shards <N>        shard count for launch() rows (cluster, chaos-cluster,
                      kv) without a pinned /shK id segment (default 1;
                      clamped to each row's node count). Artifacts and
                      baselines are byte-identical at every setting; only
                      wall-clock changes
  --require-speedup <X>
                      fail unless the widest pinned cluster row ran at
                      >= X times the events/sec of its single-shard twin
                      (measure with --workers 1); reported and skipped when
                      the host has fewer hardware threads than shards
  --filter <SUBSTR>   only run specs whose id contains SUBSTR
  --experiment <GRP>  only run specs of one experiment group (e.g. chaos);
                      with either, the gate compares only the baseline rows
                      the same selection keeps
  --timeout-secs <N>  per-run wall-clock timeout (default 600)
  --out <PATH>        sweep artifact path (default results/sweep.json)
  --baseline <PATH>   baseline to gate against
                      (default results/baselines/<scale>.json, if present)
  --write-baseline    write the baseline file(s) instead of gating (the
                      whole matrix only: refused with --filter/--experiment)
  --no-gate           skip the regression gate
  --perf              also write host wall-clock/events-per-sec samples to
                      results/perf.json and gate them (generous ±40% band)
                      against results/baselines/perf-<scale>.json if present;
                      one sample per configuration (rows that repeat an
                      earlier row's configuration reuse its run)
  --perf-out <PATH>   perf artifact path (default results/perf.json)
  --perf-baseline <PATH>
                      perf baseline to gate against
                      (default results/baselines/perf-<scale>.json)
  --trace-out <PATH>  run with tracing + metrics enabled and export each
                      run's timeline as Chrome trace_event JSON (open in
                      chrome://tracing or ui.perfetto.dev); with several
                      runs, PATH gains a per-run id suffix. Also embeds
                      observed metrics in the sweep rows, so combine with
                      --filter and don't gate the output against a
                      baseline recorded without it
  --list              print the matrix's run ids and exit
  --report <PATH>     run nothing: render §4.1-4.3, Fig 3, Fig 4, Tables
                      1-4, §4.5 and the ablation studies from the sweep
                      artifact at PATH and check the shape bands (none on
                      a smoke artifact)

EXIT STATUS:
  0  sweep completed, gate passed (or not applicable);
     --report: every band holds
  1  a run failed (panic/timeout) or the gate found a regression;
     --report: a band broke
  2  usage error; --report: the artifact is unreadable, or a row it
     needs is missing or failed";

struct Cli {
    scale: Scale,
    nodes: Option<usize>,
    workers: Option<usize>,
    shards: usize,
    require_speedup: Option<f64>,
    selection: gate::Selection,
    timeout: Duration,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: bool,
    no_gate: bool,
    perf: bool,
    perf_out: Option<PathBuf>,
    perf_baseline: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    list: bool,
    report: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        scale: Scale::Reduced,
        nodes: None,
        workers: None,
        shards: 1,
        require_speedup: None,
        selection: gate::Selection::default(),
        timeout: Duration::from_secs(600),
        out: None,
        baseline: None,
        write_baseline: false,
        no_gate: false,
        perf: false,
        perf_out: None,
        perf_baseline: None,
        trace_out: None,
        list: false,
        report: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(|v| v.to_string())
                .ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--smoke" => cli.scale = Scale::Smoke,
            "--full" => cli.scale = Scale::Full,
            "--nodes" => cli.nodes = Some(parse_num(&value("--nodes")?)?),
            "--workers" => cli.workers = Some(parse_num(&value("--workers")?)?),
            "--shards" => {
                cli.shards = parse_num(&value("--shards")?)?;
                if cli.shards == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
            }
            "--require-speedup" => {
                let v = value("--require-speedup")?;
                cli.require_speedup =
                    Some(v.parse().map_err(|_| format!("'{v}' is not a number"))?);
            }
            "--filter" => cli.selection.filter = Some(value("--filter")?),
            "--experiment" => cli.selection.experiment = Some(value("--experiment")?),
            "--timeout-secs" => {
                cli.timeout = Duration::from_secs(parse_num(&value("--timeout-secs")?)? as u64)
            }
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
            "--baseline" => cli.baseline = Some(PathBuf::from(value("--baseline")?)),
            "--write-baseline" => cli.write_baseline = true,
            "--no-gate" => cli.no_gate = true,
            "--perf" => cli.perf = true,
            "--perf-out" => cli.perf_out = Some(PathBuf::from(value("--perf-out")?)),
            "--perf-baseline" => cli.perf_baseline = Some(PathBuf::from(value("--perf-baseline")?)),
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--list" => cli.list = true,
            "--report" => cli.report = Some(PathBuf::from(value("--report")?)),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    // A baseline is the whole matrix; a subset written over it would turn
    // every unselected row into an uncovered one.
    if cli.write_baseline && !cli.selection.is_everything() {
        return Err(
            "--write-baseline writes the whole matrix; drop --filter/--experiment".to_string(),
        );
    }
    Ok(cli)
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("'{s}' is not a number"))
}

/// With several observed runs, `--trace-out results/trace.json` fans out to
/// `results/trace-<id>.json` per run, with the id's slashes flattened.
fn per_run_trace_path(base: &Path, id: &str) -> PathBuf {
    let sanitized = id.replace('/', "-");
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let ext = base.extension().and_then(|s| s.to_str()).unwrap_or("json");
    base.with_file_name(format!("{stem}-{sanitized}.{ext}"))
}

/// `results/` next to the workspace root when run under cargo, else CWD.
fn results_dir() -> PathBuf {
    let base = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| {
            Path::new(&d)
                .ancestors()
                .nth(2)
                .unwrap_or(Path::new(&d))
                .to_path_buf()
        })
        .unwrap_or_else(|_| PathBuf::from("."));
    base.join("results")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &cli.report {
        return match report::load(path) {
            Ok(r) => {
                print!("{}{}", r.text, r.render_bands());
                if r.broken().is_empty() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: --report {}: {e}", path.display());
                ExitCode::from(2)
            }
        };
    }

    let nodes = cli.nodes.unwrap_or_else(|| cli.scale.default_nodes());
    let mut specs = matrix(cli.scale, nodes);
    specs.retain(|s| cli.selection.keeps(s.experiment, &s.id()));
    if cli.list {
        for s in &specs {
            println!("{}", s.id());
        }
        return ExitCode::SUCCESS;
    }
    if specs.is_empty() {
        eprintln!("error: no runs match");
        return ExitCode::from(2);
    }

    let opts = RunnerOptions {
        workers: cli.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        }),
        timeout: cli.timeout,
        observe: cli.trace_out.is_some(),
        shards: cli.shards,
    };
    println!(
        "[shrimp-harness] {} runs at {} scale (max {} nodes) on {} workers, {}s timeout/run",
        specs.len(),
        cli.scale.label(),
        nodes,
        opts.workers.clamp(1, specs.len()),
        cli.timeout.as_secs(),
    );

    let total = specs.len();
    let done = std::sync::atomic::AtomicUsize::new(0);
    let results = run_sweep_with_progress(&specs, &opts, |r| {
        let n = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        println!("[{n:>3}/{total}] {:<8} {}", r.status.label(), r.spec.id());
    });

    let artifact = sweep::to_json(cli.scale.label(), &results);
    let out_path = cli
        .out
        .clone()
        .unwrap_or_else(|| results_dir().join("sweep.json"));
    if let Some(parent) = out_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&out_path, &artifact) {
        eprintln!("error: writing {}: {e}", out_path.display());
        return ExitCode::from(2);
    }
    print!("{}", sweep::render_table(&results));
    println!("\nwrote {}", out_path.display());

    if let Some(trace_path) = &cli.trace_out {
        let observed: Vec<_> = results.iter().filter(|r| r.obs.is_some()).collect();
        for r in &observed {
            let id = r.spec.id();
            let path = if observed.len() == 1 {
                trace_path.clone()
            } else {
                per_run_trace_path(trace_path, &id)
            };
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            let doc = chrome::to_chrome_json(&id, r.obs.as_ref().expect("observed run"));
            if let Err(e) = std::fs::write(&path, doc) {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!("wrote trace {}", path.display());
        }
        if observed.is_empty() {
            println!("no completed runs to trace");
        }
    }

    // The perf artifact is written beside — never inside — the sweep: it
    // holds host wall-clock, which must not contaminate the deterministic
    // file or its baselines.
    let perf_artifact = cli.perf.then(|| perf::to_json(cli.scale.label(), &results));
    if let Some(text) = &perf_artifact {
        let perf_path = cli
            .perf_out
            .clone()
            .unwrap_or_else(|| results_dir().join("perf.json"));
        if let Some(parent) = perf_path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&perf_path, text) {
            eprintln!("error: writing {}: {e}", perf_path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", perf_path.display());
    }

    let failed = results
        .iter()
        .filter(|r| r.status.record().is_none())
        .count();
    if failed > 0 {
        println!("{failed} run(s) failed (panic/timeout)");
    }

    let baseline_path = cli.baseline.clone().unwrap_or_else(|| {
        results_dir()
            .join("baselines")
            .join(format!("{}.json", cli.scale.label()))
    });
    let perf_baseline_path = cli.perf_baseline.clone().unwrap_or_else(|| {
        results_dir()
            .join("baselines")
            .join(format!("perf-{}.json", cli.scale.label()))
    });

    if cli.write_baseline {
        if let Some(parent) = baseline_path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&baseline_path, &artifact) {
            eprintln!("error: writing {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!("wrote baseline {}", baseline_path.display());
        if let Some(text) = &perf_artifact {
            if let Err(e) = std::fs::write(&perf_baseline_path, text) {
                eprintln!("error: writing {}: {e}", perf_baseline_path.display());
                return ExitCode::from(2);
            }
            println!("wrote perf baseline {}", perf_baseline_path.display());
        }
        return if failed > 0 {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    let mut gate_failed = false;
    if !cli.no_gate {
        match std::fs::read_to_string(&baseline_path) {
            Ok(text) => match json::parse(&text)
                .and_then(|doc| gate::check(&doc, &results, &cli.selection))
            {
                Ok(outcome) => {
                    println!("\n{}", outcome.render());
                    gate_failed = !outcome.passed();
                }
                Err(e) => {
                    eprintln!("error: baseline {}: {e}", baseline_path.display());
                    return ExitCode::from(2);
                }
            },
            Err(_) if cli.baseline.is_none() => {
                println!(
                    "\nno baseline at {} — skipping gate (--write-baseline to create one)",
                    baseline_path.display()
                );
            }
            Err(e) => {
                eprintln!("error: reading {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        }
    }

    if cli.perf && !cli.no_gate {
        match std::fs::read_to_string(&perf_baseline_path) {
            Ok(text) => match json::parse(&text).and_then(|doc| perf::check(&doc, &results)) {
                Ok(outcome) => {
                    println!("\n{}", outcome.render());
                    gate_failed = gate_failed || !outcome.passed();
                }
                Err(e) => {
                    eprintln!("error: perf baseline {}: {e}", perf_baseline_path.display());
                    return ExitCode::from(2);
                }
            },
            Err(_) if cli.perf_baseline.is_none() => {
                println!(
                    "\nno perf baseline at {} — skipping perf gate (--write-baseline to create one)",
                    perf_baseline_path.display()
                );
            }
            Err(e) => {
                eprintln!("error: reading {}: {e}", perf_baseline_path.display());
                return ExitCode::from(2);
            }
        }
    }

    // Explicitly requested, so it gates even under --no-gate (there is no
    // baseline involved — the comparison is within this very sweep).
    if let Some(required) = cli.require_speedup {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        match perf::check_speedup(&results, required, host) {
            Ok(outcome) => {
                println!("\n{}", outcome.render());
                gate_failed = gate_failed || !outcome.passed();
            }
            Err(e) => {
                eprintln!("error: --require-speedup: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if gate_failed || failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn write_baseline_refuses_a_selection() {
        assert!(parse(&["--smoke", "--write-baseline"]).is_ok());
        for narrowed in [["--experiment", "kv"], ["--filter", "p16"]] {
            let mut args = vec!["--smoke", "--write-baseline"];
            args.extend(narrowed);
            let err = parse(&args).err().expect("a narrowed baseline is refused");
            assert!(err.contains("--write-baseline"), "{err}");
        }
    }
}
