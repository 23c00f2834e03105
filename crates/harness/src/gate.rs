//! Baseline regression gate: diff a fresh sweep against committed golden
//! metrics.
//!
//! The simulation is deterministic, so at a fixed code revision every
//! metric matches its baseline exactly, and the gate allows no difference:
//! an intended model change regenerates the baseline with a stated reason
//! (`--write-baseline`). A baseline row whose run is missing
//! from the fresh sweep (or no longer completes) is a regression; fresh
//! rows with no baseline counterpart are reported but pass — they gate
//! once a refreshed baseline commits them. A sweep narrowed by
//! `--experiment`/`--filter` ([`Selection`]) is gated against the same
//! narrowing of the baseline, so one full baseline serves every subset.

use std::fmt;

use crate::json::Json;
use crate::runner::RunResult;

/// One detected regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Run id the regression is in.
    pub id: String,
    /// What regressed.
    pub kind: RegressionKind,
}

/// The ways a run can regress against its baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum RegressionKind {
    /// The run is in the baseline but absent from the fresh sweep.
    MissingRun,
    /// The run no longer completes (panic/timeout); label attached.
    Failed(String),
    /// A metric differs from its baseline value.
    Metric {
        /// Metric name.
        name: String,
        /// Committed value.
        baseline: u64,
        /// Fresh value.
        fresh: u64,
    },
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            RegressionKind::MissingRun => {
                write!(f, "{}: in baseline but missing from this sweep", self.id)
            }
            RegressionKind::Failed(label) => {
                write!(f, "{}: run no longer completes ({label})", self.id)
            }
            RegressionKind::Metric {
                name,
                baseline,
                fresh,
            } => write!(
                f,
                "{}: {name} changed (baseline {baseline}, now {fresh})",
                self.id
            ),
        }
    }
}

/// The `--experiment`/`--filter` row selection. The sweep runs only the
/// matrix rows it keeps and the gate compares only the baseline rows it
/// keeps.
#[derive(Debug, Clone, Default)]
pub struct Selection {
    /// Keep only rows of this experiment group.
    pub experiment: Option<String>,
    /// Keep only rows whose id contains this substring.
    pub filter: Option<String>,
}

impl Selection {
    /// `true` when the row `id` of group `experiment` is selected.
    pub fn keeps(&self, experiment: &str, id: &str) -> bool {
        self.experiment.as_deref().is_none_or(|g| g == experiment)
            && self.filter.as_deref().is_none_or(|f| id.contains(f))
    }

    /// `true` when no row is left out.
    pub fn is_everything(&self) -> bool {
        self.experiment.is_none() && self.filter.is_none()
    }
}

/// Outcome of gating one sweep against one baseline.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// Every regression found (empty: gate passes).
    pub regressions: Vec<Regression>,
    /// Baseline rows compared.
    pub compared: usize,
    /// Fresh run ids with no baseline counterpart (informational).
    pub uncovered: Vec<String>,
}

impl GateOutcome {
    /// `true` when nothing regressed.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Renders the gate verdict for humans.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.passed() {
            out.push_str(&format!(
                "gate PASSED: {} baseline rows identical",
                self.compared
            ));
        } else {
            out.push_str(&format!(
                "gate FAILED: {} regression(s) across {} compared rows\n",
                self.regressions.len(),
                self.compared
            ));
            for r in &self.regressions {
                out.push_str(&format!("  REGRESSION {r}\n"));
            }
        }
        if !self.uncovered.is_empty() {
            out.push_str(&format!(
                "\nnote: {} run(s) have no baseline yet (run --write-baseline to cover them)",
                self.uncovered.len()
            ));
        }
        out
    }
}

/// Diffs fresh `results` against the rows of a parsed `baseline` document
/// that `selection` keeps.
pub fn check(
    baseline: &Json,
    results: &[RunResult],
    selection: &Selection,
) -> Result<GateOutcome, String> {
    if let Some(schema) = baseline.get("schema").and_then(|v| v.as_str()) {
        if schema != crate::sweep::SCHEMA {
            return Err(format!(
                "unsupported baseline schema \"{schema}\" (expected \"{}\")",
                crate::sweep::SCHEMA
            ));
        }
    }
    let rows = baseline
        .get("rows")
        .and_then(|r| r.as_arr())
        .ok_or("baseline has no \"rows\" array")?;
    let mut outcome = GateOutcome::default();
    let mut covered: Vec<&str> = Vec::new();

    for row in rows {
        let id = row
            .get("id")
            .and_then(|v| v.as_str())
            .ok_or("baseline row missing \"id\"")?;
        let experiment = row
            .get("experiment")
            .and_then(|v| v.as_str())
            .ok_or("baseline row missing \"experiment\"")?;
        if !selection.keeps(experiment, id) {
            continue;
        }
        covered.push(id);
        outcome.compared += 1;
        let Some(fresh) = results.iter().find(|r| r.spec.id() == id) else {
            outcome.regressions.push(Regression {
                id: id.to_string(),
                kind: RegressionKind::MissingRun,
            });
            continue;
        };
        let Some(record) = fresh.status.record() else {
            outcome.regressions.push(Regression {
                id: id.to_string(),
                kind: RegressionKind::Failed(fresh.status.label().to_string()),
            });
            continue;
        };
        let Some(metrics) = row.get("metrics") else {
            // Baseline recorded a failed run; completing now is an upgrade.
            continue;
        };
        for (name, fresh_value) in record.fields() {
            let Some(base_value) = metrics.get(name).and_then(|v| v.as_u64()) else {
                continue; // metric added since the baseline was written
            };
            if base_value != fresh_value {
                outcome.regressions.push(Regression {
                    id: id.to_string(),
                    kind: RegressionKind::Metric {
                        name: name.to_string(),
                        baseline: base_value,
                        fresh: fresh_value,
                    },
                });
            }
        }
    }

    for r in results {
        let id = r.spec.id();
        if !covered.iter().any(|c| *c == id) {
            outcome.uncovered.push(id);
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::runner::RunStatus;
    use crate::sweep;
    use shrimp_bench::{App, RunSpec, Scale};

    const ALL: Selection = Selection {
        experiment: None,
        filter: None,
    };

    fn result_of(experiment: &'static str) -> RunResult {
        let spec = RunSpec::new(experiment, App::DfsSockets, 2, Scale::Smoke);
        let record = spec.execute();
        RunResult {
            index: 0,
            spec,
            status: RunStatus::Ok(record),
            perf: None,
            obs: None,
        }
    }

    fn one_result() -> Vec<RunResult> {
        vec![result_of("test")]
    }

    fn baseline_of(results: &[RunResult]) -> Json {
        json::parse(&sweep::to_json("smoke", results)).unwrap()
    }

    #[test]
    fn identical_metrics_pass() {
        let results = one_result();
        let baseline = baseline_of(&results);
        let outcome = check(&baseline, &results, &ALL).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.regressions);
        assert_eq!(outcome.compared, 1);
        assert!(outcome.uncovered.is_empty());
        // Any difference fails, however small: one simulated ps, one bit
        // of the answer.
        let mut moved = results.clone();
        if let RunStatus::Ok(r) = &mut moved[0].status {
            r.elapsed += 1;
            r.checksum ^= 1;
        }
        let outcome = check(&baseline, &moved, &ALL).unwrap();
        let changed: Vec<&str> = outcome
            .regressions
            .iter()
            .map(|r| match &r.kind {
                RegressionKind::Metric { name, .. } => name.as_str(),
                other => panic!("unexpected regression {other:?}"),
            })
            .collect();
        assert_eq!(changed, ["elapsed_ns", "checksum"]);
    }

    #[test]
    fn missing_and_failed_runs_are_regressions() {
        let results = one_result();
        let baseline = baseline_of(&results);
        let outcome = check(&baseline, &[], &ALL).unwrap();
        assert!(matches!(
            outcome.regressions[0].kind,
            RegressionKind::MissingRun
        ));
        let mut failed = results.clone();
        failed[0].status = RunStatus::TimedOut;
        let outcome = check(&baseline, &failed, &ALL).unwrap();
        assert!(matches!(
            &outcome.regressions[0].kind,
            RegressionKind::Failed(label) if label == "timeout"
        ));
    }

    #[test]
    fn gate_rejects_unknown_schemas() {
        let results = one_result();
        let v9 = json::parse("{\"schema\": \"shrimp-sweep-v9\", \"rows\": []}").unwrap();
        let err = check(&v9, &results, &ALL).unwrap_err();
        assert!(err.contains("shrimp-sweep-v9"), "{err}");
    }

    #[test]
    fn uncovered_fresh_rows_pass_but_are_reported() {
        let results = one_result();
        let baseline = json::parse(&format!(
            "{{\"schema\": \"{}\", \"rows\": []}}",
            sweep::SCHEMA
        ))
        .unwrap();
        let outcome = check(&baseline, &results, &ALL).unwrap();
        assert!(outcome.passed());
        assert_eq!(outcome.uncovered.len(), 1);
    }

    #[test]
    fn a_selection_gates_only_the_baseline_rows_it_keeps() {
        let results = vec![result_of("test"), result_of("other")];
        let baseline = baseline_of(&results);
        let test_only = Selection {
            experiment: Some("test".to_string()),
            filter: None,
        };
        // The unselected "other" row is neither compared nor missing.
        let outcome = check(&baseline, &results[..1], &test_only).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.regressions);
        assert_eq!(outcome.compared, 1);
        // The same narrowed sweep against the whole baseline misses a row.
        let outcome = check(&baseline, &results[..1], &ALL).unwrap();
        assert_eq!(outcome.regressions.len(), 1);
        assert_eq!(outcome.regressions[0].id, results[1].spec.id());
        // `--filter` narrows the baseline by id substring the same way.
        let by_id = Selection {
            experiment: None,
            filter: Some("other/".to_string()),
        };
        let outcome = check(&baseline, &results[1..], &by_id).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.regressions);
        assert_eq!(outcome.compared, 1);
    }

    #[test]
    fn a_selected_row_missing_from_the_sweep_is_still_a_regression() {
        let results = vec![result_of("test"), result_of("other")];
        let baseline = baseline_of(&results);
        let test_only = Selection {
            experiment: Some("test".to_string()),
            filter: None,
        };
        let outcome = check(&baseline, &results[1..], &test_only).unwrap();
        assert_eq!(outcome.compared, 1);
        assert_eq!(
            outcome.regressions,
            vec![Regression {
                id: results[0].spec.id(),
                kind: RegressionKind::MissingRun,
            }]
        );
        assert_eq!(outcome.uncovered, vec![results[1].spec.id()]);
    }
}
