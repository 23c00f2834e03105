//! Shared virtual memory protocol face-off: run the same false-sharing
//! workload under HLRC, HLRC-AU and AURC and print the time breakdown —
//! a miniature of the paper's Figure 4 (left).
//!
//! Run with: `cargo run --release --example svm_protocols`

use shrimp::sim::{time, Category};
use shrimp::svm::{Protocol, Svm, SvmConfig};
use shrimp::vmmc::{Cluster, DesignConfig};

/// Every node writes a strided pattern across shared pages (write-write
/// false sharing), synchronizing with barriers — diff-heavy under HLRC,
/// nearly free under AURC.
fn run(protocol: Protocol) -> (u64, Vec<(String, f64)>) {
    let nodes = 8;
    let cluster = Cluster::builder(nodes)
        .config(DesignConfig::default())
        .build();
    let svm = Svm::create(&cluster, SvmConfig::new(protocol));
    let pages = 32;
    let region = svm.create_region(pages * 4096, |p| p % nodes);

    let mut handles = Vec::new();
    for i in 0..nodes {
        let node = svm.node(i);
        handles.push(cluster.sim().spawn(async move {
            for round in 0..6u32 {
                for pg in 0..pages {
                    // Each node hits a different stripe of every page.
                    let off = pg * 4096 + (node.me() * 256 + (round as usize) * 32) % 4096;
                    node.write_u32(region, off, round * 1000 + pg as u32).await;
                }
                node.vmmc().compute(time::us(500)).await;
                node.barrier().await;
            }
        }));
    }
    let (elapsed, _) = cluster.run_until_complete(handles);

    // Each category summed over the nodes, read from the counter snapshot.
    let counters = cluster.sim().metrics().snapshot();
    let total = elapsed * nodes as u64;
    let pct = |name| counters.counter(Category::Svm, name) as f64 / total as f64 * 100.0;
    (
        elapsed,
        vec![
            ("barrier".into(), pct("barrier_wait_ps")),
            ("release (diffs/fences)".into(), pct("release_time_ps")),
            ("faults/fetches".into(), pct("fault_time_ps")),
            ("lock".into(), pct("lock_wait_ps")),
        ],
    )
}

fn main() {
    println!("False-sharing workload on 8 nodes, three SVM protocols:\n");
    let base = run(Protocol::Hlrc).0;
    for protocol in [Protocol::Hlrc, Protocol::HlrcAu, Protocol::Aurc] {
        let (elapsed, breakdown) = run(protocol);
        println!(
            "{protocol:>8}: {:>8.2} ms  (x{:.2} vs HLRC)",
            time::to_secs(elapsed) * 1e3,
            elapsed as f64 / base as f64
        );
        for (name, pct) in breakdown {
            println!("          {name:<24} {pct:>5.1}%");
        }
    }
    println!(
        "\nAURC eliminates twins and diffs entirely — its release phase all\n\
         but vanishes, the paper's §4.2 result."
    );
}
