//! Chaos-plane integration tests: the fault injector must be
//! deterministic (worker count cannot change the artifact) and
//! recoverable (no chaos run aborts, no fault changes an answer). That
//! disabled faults cost nothing is the smoke baseline's job: every
//! fault-free row must byte-match `results/baselines/smoke.json`.

use shrimp_bench::{matrix, Scale};
use shrimp_harness::runner::{run_sweep, RunStatus, RunnerOptions};
use shrimp_harness::sweep;

fn chaos_specs() -> Vec<shrimp_bench::RunSpec> {
    let mut specs = matrix(Scale::Smoke, 4);
    specs.retain(|s| s.experiment == "chaos");
    assert!(
        specs.len() >= 5,
        "smoke chaos group unexpectedly small: {}",
        specs.len()
    );
    specs
}

/// Same seed + same scenario ⇒ the sweep artifact is byte-identical no
/// matter how many workers raced through it, and every chaos run
/// completes: faults are absorbed by retransmission, never fatal.
#[test]
fn chaos_sweep_is_worker_count_invariant_with_zero_aborts() {
    let specs = chaos_specs();
    let opts = |workers| RunnerOptions {
        workers,
        ..RunnerOptions::default()
    };
    let serial = run_sweep(&specs, &opts(1));
    let racing = run_sweep(&specs, &opts(4));
    assert_eq!(
        sweep::to_json("smoke", &serial),
        sweep::to_json("smoke", &racing),
        "worker count leaked into the sweep artifact"
    );

    for r in &serial {
        let record = match &r.status {
            RunStatus::Ok(rec) => rec,
            other => panic!("{} aborted: {}", r.spec.id(), other.label()),
        };
        let rec = record
            .recovery
            .expect("chaos rows always carry recovery metrics");
        let s = r.spec.knobs.faults;
        let packet_faults =
            s.drop_pct > 0 || s.corrupt_pct > 0 || s.duplicate_pct > 0 || s.link.is_some();
        if packet_faults {
            assert!(
                rec.faults_injected > 0,
                "{}: scenario active but no faults fired",
                r.spec.id()
            );
        } else if !s.is_active() {
            // The control row proves the reliable path alone changes nothing.
            assert_eq!(rec.retransmits, 0, "{}: spurious retransmit", r.spec.id());
        }
    }

    // Transient faults must not change the computed answer: every chaos
    // run of the same app/scale agrees with the fault-free control row.
    let control = serial
        .iter()
        .find(|r| !r.spec.knobs.faults.is_active() && r.spec.knobs.reliability)
        .expect("chaos group has a fault-free control row");
    let expected = control.status.record().unwrap().checksum;
    for r in serial.iter().filter(|r| {
        r.spec.knobs.reliability
            && r.spec.app == control.spec.app
            && r.spec.nodes == control.spec.nodes
    }) {
        assert_eq!(
            r.status.record().unwrap().checksum,
            expected,
            "{}: faults corrupted the answer",
            r.spec.id()
        );
    }
}
