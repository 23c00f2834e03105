//! Every packet the mesh carries reaches a NIC exactly once.
//!
//! The law, read from one row's counter snapshot:
//!
//! ```text
//! nic/packets_received + nic/control_received
//!     == net/packets + net/loopback_packets + net/dups - net/drops
//! ```
//!
//! The left side is what the powered boards took in: data packets and
//! acks/nacks. The right side is what the backplane carried: mesh packets,
//! node-to-self sends, the fault plane's duplicates, less its drops. The
//! rows cover an all-loopback run and the reliable chaos rows that drop,
//! duplicate and corrupt packets and exchange acks and nacks.
//!
//! ```text
//! cargo test --release --offline -p shrimp-bench --test packet_conservation
//! ```

use shrimp_bench::spec::{matrix, Scale};
use shrimp_sim::Category;

const ROWS: [&str; 5] = [
    "table1/dfs-sockets-default/p1/as-built",
    "chaos/radix-vmmc-du/p4/rel",
    "chaos/radix-vmmc-du/p4/rel+drop5",
    "chaos/radix-vmmc-du/p4/rel+dup5",
    "chaos/radix-vmmc-du/p4/rel+corrupt5",
];

#[test]
fn packets_are_conserved_through_the_mesh_and_the_nic() {
    let specs = matrix(Scale::Smoke, Scale::Smoke.default_nodes());
    for id in ROWS {
        let spec = specs
            .iter()
            .find(|s| s.id() == id)
            .unwrap_or_else(|| panic!("no smoke row {id}"));
        let (_, _, observation) = spec.execute_observed();
        let count = |category, name| observation.metrics.counter(category, name);
        let received =
            count(Category::Nic, "packets_received") + count(Category::Nic, "control_received");
        let carried = count(Category::Net, "packets")
            + count(Category::Net, "loopback_packets")
            + count(Category::Net, "dups")
            - count(Category::Net, "drops");
        assert_eq!(
            received, carried,
            "{id}: the NICs took in {received} packets, the mesh carried {carried}"
        );
        assert!(carried > 0, "{id} carried no packet");
    }
}
