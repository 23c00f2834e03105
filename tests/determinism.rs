//! Cross-stack determinism golden test: a 4-node VMMC + NX workload whose
//! message sizes come from `rng_for("determinism", seed)` is replayed and
//! must be *event-for-event* identical — same trace timeline, same final
//! simulated time, same counter totals, same allreduce results. A second
//! seed must produce a different schedule, proving the comparison is not
//! vacuous.
//!
//! This is the contract the whole experiment harness rests on: `(workload,
//! seed)` fully determines the simulation, with no hidden host
//! nondeterminism (hash ordering, OS entropy, wall-clock) leaking in.

use shrimp::nx::NxConfig;
use shrimp::sim::rng::rng_for;
use shrimp::sim::trace::{Category, TraceSink};
use shrimp::vmmc::{Cluster, DesignConfig};

const NODES: usize = 4;
const ROUNDS: usize = 6;

/// One complete run: returns (trace timeline, final sim time, counter
/// totals, per-node allreduce results).
fn run(seed: u64) -> (String, u64, Vec<u64>, Vec<f64>) {
    let cluster = Cluster::builder(NODES)
        .config(DesignConfig::default())
        .build();
    // Large capacity so no event is dropped: the comparison must see the
    // complete schedule.
    cluster.sim().trace().enable(Some(1 << 20));
    let endpoints = shrimp::nx::create(&cluster, NxConfig::default());

    // The workload is a pure function of the rng_for stream: per-node
    // scripts of message sizes, drawn up front in a fixed order.
    let mut rng = rng_for("determinism", seed);
    let scripts: Vec<Vec<usize>> = (0..NODES)
        .map(|_| (0..ROUNDS).map(|_| rng.gen_range(1..1500usize)).collect())
        .collect();

    let mut handles = Vec::new();
    for (i, nx) in endpoints.into_iter().enumerate() {
        let script = scripts[i].clone();
        let sender = nx.clone();
        let dst = (i + 1) % NODES;
        let src = (i + NODES - 1) % NODES;
        // Sender task: ring neighbor exchange, sizes from the script.
        cluster.sim().spawn(async move {
            for (k, &n) in script.iter().enumerate() {
                let payload: Vec<u8> = (0..n).map(|j| ((i * 31 + k * 7 + j) % 256) as u8).collect();
                sender.csend(k as u32, &payload, dst).await;
            }
        });
        // Main task: drain the neighbor's messages, then join a collective.
        handles.push(cluster.sim().spawn(async move {
            let mut fingerprint = 0u64;
            for k in 0..ROUNDS {
                let m = nx.crecv(Some(k as u32), Some(src)).await;
                fingerprint = fingerprint
                    .wrapping_mul(0x100_0000_01b3)
                    .wrapping_add(m.data.len() as u64);
            }
            let sum = nx.gdsum((i + 1) as f64).await;
            (fingerprint, sum)
        }));
    }
    let (elapsed, outs) = cluster.run_until_complete(handles);

    let trace = TraceSink::render(&cluster.sim().trace().take());
    assert_eq!(
        cluster.sim().trace().dropped(),
        0,
        "trace capacity too small"
    );
    let snapshot = cluster.sim().metrics().snapshot();
    let counters = vec![
        snapshot.counter(Category::Core, "messages_sent"),
        snapshot.counter(Category::Core, "bytes_sent"),
        snapshot.counter(Category::Core, "interrupts_taken"),
        snapshot.counter(Category::Core, "notifications"),
        outs.iter().map(|(f, _)| *f).fold(0u64, u64::wrapping_add),
    ];
    let sums = outs.into_iter().map(|(_, s)| s).collect();
    (trace, elapsed, counters, sums)
}

#[test]
fn same_seed_replays_event_for_event() {
    let a = run(1);
    let b = run(1);
    assert_eq!(a.1, b.1, "final simulated time diverged");
    assert_eq!(a.2, b.2, "counter totals diverged");
    assert_eq!(a.3, b.3, "allreduce results diverged");
    // Event-for-event: the rendered timelines are byte-identical.
    assert!(!a.0.is_empty(), "trace was empty — comparison is vacuous");
    assert_eq!(a.0, b.0, "trace timelines diverged");
}

#[test]
fn different_seeds_schedule_differently() {
    let a = run(1);
    let b = run(2);
    // Different scripts must visibly change the schedule (sizes differ, so
    // at least byte counters and the timeline move).
    assert_ne!(a.0, b.0, "seed change did not alter the trace");
    assert_ne!(a.2[1], b.2[1], "seed change did not alter bytes sent");
}
