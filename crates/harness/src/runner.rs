//! Parallel sweep execution: work-stealing across `std::thread` workers,
//! with per-run wall-clock timeouts and panic isolation.
//!
//! Each run is an independent, deterministic single-threaded DES — the
//! matrix is embarrassingly parallel, so the runner only has to hand out
//! indices. Every run executes on its own freshly spawned thread so a
//! wedged simulation can be timed out (the worker abandons the thread and
//! moves on) and a panicking one is contained by `catch_unwind` and
//! reported as a failed row instead of killing the sweep.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::{Mutex, Once};
use std::thread;
use std::time::Duration;

use shrimp_bench::{Observation, PerfSample, RunRecord, RunSpec};

/// How one run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunStatus {
    /// Completed; metrics captured.
    Ok(RunRecord),
    /// The simulation panicked (message attached).
    Panicked(String),
    /// The run exceeded the wall-clock timeout and was abandoned.
    TimedOut,
}

impl RunStatus {
    /// Short machine-readable label (`"ok"`, `"panic"`, `"timeout"`).
    pub fn label(&self) -> &'static str {
        match self {
            RunStatus::Ok(_) => "ok",
            RunStatus::Panicked(_) => "panic",
            RunStatus::TimedOut => "timeout",
        }
    }

    /// The metrics, when the run completed.
    pub fn record(&self) -> Option<&RunRecord> {
        match self {
            RunStatus::Ok(r) => Some(r),
            _ => None,
        }
    }
}

/// One completed (or failed) run of the sweep.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Index of the spec in the input slice (rows are sorted by this, so
    /// output order is independent of worker interleaving).
    pub index: usize,
    /// The spec that ran.
    pub spec: RunSpec,
    /// How it ended.
    pub status: RunStatus,
    /// Host-side wall-clock/events sample for completed runs. Kept outside
    /// [`RunStatus`] (and outside `sweep.json`) so the deterministic artifact
    /// never sees host timing; `--perf` renders it into `results/perf.json`.
    pub perf: Option<PerfSample>,
    /// Trace timeline + metrics snapshot, present only when the sweep ran
    /// with [`RunnerOptions::observe`] (`--trace-out`). Deterministic
    /// simulated data; `sweep.json` embeds the metrics per row and the
    /// Chrome-trace exporter renders the timeline.
    pub obs: Option<Observation>,
}

/// Runner knobs.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Per-run wall-clock timeout.
    pub timeout: Duration,
    /// Record each run's trace timeline and metrics snapshot
    /// ([`RunResult::obs`]). Off by default: the unobserved path leaves the
    /// simulator's trace sink and metrics registry disabled, keeping
    /// `sweep.json` byte-identical to the committed baselines.
    pub observe: bool,
    /// Sweep-wide shard count for `launch()` rows whose spec says
    /// [`Shards::Auto`](shrimp_bench::Shards::Auto). Pinned rows and
    /// classic single-`Sim` rows ignore it, and every [`RunRecord`] is
    /// byte-identical at any setting — only wall-clock can change.
    pub shards: usize,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions {
            workers: thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            timeout: Duration::from_secs(600),
            observe: false,
            shards: 1,
        }
    }
}

/// Executes every spec and returns results sorted by spec index.
///
/// Work is sharded round-robin into one deque per worker; an idle worker
/// pops from its own deque front and steals from the back of the longest
/// other deque. Per-run wall-clock (used only for timeouts) never enters
/// the results, so the row set is identical for any worker count.
pub fn run_sweep(specs: &[RunSpec], opts: &RunnerOptions) -> Vec<RunResult> {
    run_sweep_with_progress(specs, opts, |_| {})
}

/// [`run_sweep`] with a per-completion callback (progress reporting).
/// The callback runs on worker threads and must not assume ordering.
pub fn run_sweep_with_progress<F>(
    specs: &[RunSpec],
    opts: &RunnerOptions,
    on_done: F,
) -> Vec<RunResult>
where
    F: Fn(&RunResult) + Send + Sync,
{
    if specs.is_empty() {
        return Vec::new();
    }
    let workers = opts.workers.clamp(1, specs.len());
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, _) in specs.iter().enumerate() {
        deques[i % workers].lock().unwrap().push_back(i);
    }

    let results: Mutex<Vec<RunResult>> = Mutex::new(Vec::with_capacity(specs.len()));
    let on_done = &on_done;
    let results_ref = &results;
    let deques = &deques;
    thread::scope(|scope| {
        for w in 0..workers {
            scope.spawn(move || {
                while let Some(index) = next_index(deques, w) {
                    let result = execute_isolated(index, specs[index].clone(), opts);
                    on_done(&result);
                    results_ref.lock().unwrap().push(result);
                }
            });
        }
    });

    let mut rows = results.into_inner().unwrap();
    rows.sort_by_key(|r| r.index);
    rows
}

/// Pops work for worker `w`: own deque first, then steal from the back of
/// the fullest other deque.
fn next_index(deques: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(i) = deques[w].lock().unwrap().pop_front() {
        return Some(i);
    }
    // Steal from whichever victim currently has the most queued work.
    let victim = (0..deques.len())
        .filter(|&v| v != w)
        .max_by_key(|&v| deques[v].lock().unwrap().len())?;
    deques[victim].lock().unwrap().pop_back()
}

/// Runs one spec on a dedicated thread, converting panics into
/// [`RunStatus::Panicked`] and over-long runs into [`RunStatus::TimedOut`]
/// (the run thread is abandoned; a detached thread cannot corrupt other
/// runs since every run owns its whole simulation).
fn execute_isolated(index: usize, spec: RunSpec, opts: &RunnerOptions) -> RunResult {
    let (tx, rx) = mpsc::channel();
    let (observe, shards) = (opts.observe, opts.shards);
    let run_spec = spec.clone();
    let handle = thread::Builder::new()
        .name(format!("run-{}", spec.id()))
        .spawn(move || {
            install_panic_location_hook();
            let outcome =
                std::panic::catch_unwind(AssertUnwindSafe(|| run_spec.run(shards, observe)));
            // The receiver may have given up (timeout); ignore send errors.
            let _ = tx.send(outcome.map_err(|payload| {
                let msg = panic_message(&*payload);
                match LAST_PANIC_LOCATION.with(|l| l.borrow_mut().take()) {
                    Some(loc) => format!("{msg} (at {loc})"),
                    None => msg,
                }
            }));
        })
        .expect("spawn run thread");
    let outcome = match rx.recv_timeout(opts.timeout) {
        Ok(outcome) => {
            let _ = handle.join();
            outcome.map_err(RunStatus::Panicked)
        }
        Err(_) => Err(RunStatus::TimedOut),
    };
    match outcome {
        Ok(out) => RunResult {
            index,
            spec,
            status: RunStatus::Ok(out.record),
            perf: Some(out.perf),
            obs: out.obs,
        },
        Err(status) => RunResult {
            index,
            spec,
            status,
            perf: None,
            obs: None,
        },
    }
}

thread_local! {
    /// `file:line` of the most recent panic on this thread; taken by the
    /// run thread to annotate its [`RunStatus::Panicked`] row.
    static LAST_PANIC_LOCATION: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Installs (once, process-wide) a panic hook that records the panic
/// location into [`LAST_PANIC_LOCATION`] before delegating to the previous
/// hook. Run threads are one-per-run, so a recorded location can only
/// belong to that thread's own run.
fn install_panic_location_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(loc) = info.location() {
                let s = format!("{}:{}", loc.file(), loc.line());
                LAST_PANIC_LOCATION.with(|l| *l.borrow_mut() = Some(s));
            }
            prev(info);
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_bench::{App, Scale, Variant};

    fn quick_specs(n: usize) -> Vec<RunSpec> {
        (0..n)
            .map(|i| RunSpec::new("test", App::DfsSockets, 2, Scale::Smoke).with_seed(i as u64 + 1))
            .collect()
    }

    #[test]
    fn all_specs_run_exactly_once_in_index_order() {
        let specs = quick_specs(5);
        let results = run_sweep(
            &specs,
            &RunnerOptions {
                workers: 3,
                ..RunnerOptions::default()
            },
        );
        assert_eq!(results.len(), 5);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.status.label(), "ok");
        }
    }

    #[test]
    fn a_panicking_run_is_reported_not_fatal() {
        // Variant::ForcedAu on an SVM app panics in RunSpec dispatch —
        // exactly the class of bug the isolation must contain.
        let mut specs = quick_specs(2);
        specs.insert(
            1,
            RunSpec::new("test", App::OceanSvm, 2, Scale::Smoke).with_variant(Variant::ForcedAu),
        );
        let results = run_sweep(
            &specs,
            &RunnerOptions {
                workers: 2,
                ..RunnerOptions::default()
            },
        );
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].status.label(), "ok");
        assert_eq!(results[1].status.label(), "panic");
        match &results[1].status {
            RunStatus::Panicked(msg) => {
                assert!(msg.contains("does not apply"), "got: {msg}");
                assert!(msg.contains("(at "), "panic location missing: {msg}");
            }
            s => panic!("expected panic status, got {s:?}"),
        }
        assert_eq!(results[2].status.label(), "ok");
    }

    #[test]
    fn an_overlong_run_times_out() {
        let specs = vec![RunSpec::new("test", App::OceanSvm, 2, Scale::Smoke)];
        let results = run_sweep(
            &specs,
            &RunnerOptions {
                workers: 1,
                timeout: Duration::from_millis(1),
                ..RunnerOptions::default()
            },
        );
        assert_eq!(results[0].status.label(), "timeout");
        assert!(results[0].status.record().is_none());
    }
}
