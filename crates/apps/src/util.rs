//! Shared application utilities: outcome summary, bulk-mechanism choice,
//! and a flag-based VMMC barrier (polling, no interrupts).

use shrimp_core::{Cluster, ProxyBuffer, Vmmc};
use shrimp_mem::{Vaddr, PAGE_SIZE};
use shrimp_sim::{Category, Time};

/// Which SHRIMP transfer mechanism an application version uses for bulk
/// data (the AU-vs-DU comparison of §4.2 / Figure 4 right).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// Automatic update: stores through AU bindings.
    AutomaticUpdate,
    /// Deliberate update: explicit user-level DMA transfers.
    DeliberateUpdate,
}

impl std::fmt::Display for Mechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Mechanism::AutomaticUpdate => "AU",
            Mechanism::DeliberateUpdate => "DU",
        })
    }
}

/// Summary of one application run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Simulated completion time of the application processes.
    pub elapsed: Time,
    /// Deterministic digest of the application's numerical output, used to
    /// cross-check AU/DU and protocol variants against each other.
    pub checksum: u64,
    /// Total VMMC messages sent (Table 3's "total messages").
    pub messages: u64,
    /// User-level notifications delivered (Table 3's "notifications").
    pub notifications: u64,
}

impl RunOutcome {
    /// Collects message counters from a cluster's counter snapshot after a
    /// run.
    pub fn collect(cluster: &Cluster, elapsed: Time, checksum: u64) -> Self {
        let counters = cluster.sim().metrics().snapshot();
        RunOutcome {
            elapsed,
            checksum,
            messages: counters.counter(Category::Core, "messages_sent"),
            notifications: counters.counter(Category::Core, "notifications"),
        }
    }
}

/// FNV-1a digest helper for output checksums.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A sense-reversing barrier built from raw VMMC primitives: arrivals are
/// deliberate-update writes into the master's flag array, releases are
/// writes into each node's release word, and everyone *polls* — zero
/// interrupts, the receive style of the paper's VMMC applications (§4.4).
pub struct VmmcBarrier {
    vm: Vmmc,
    me: usize,
    n: usize,
    epoch: std::cell::Cell<u32>,
    /// Local staging word for outgoing flag writes.
    staging: Vaddr,
    /// Master only: local arrival array (slot per node).
    arrivals: Vaddr,
    /// Master only: proxies to each node's release word.
    release_proxies: Vec<Option<ProxyBuffer>>,
    /// Non-master: proxy to the master's arrival array.
    arrival_proxy: Option<ProxyBuffer>,
    /// Local release word.
    release: Vaddr,
}

/// Builds a barrier group across all nodes of the cluster (master: node 0).
pub fn vmmc_barrier_group(cluster: &Cluster) -> Vec<VmmcBarrier> {
    let n = cluster.num_nodes();
    let vmmcs: Vec<Vmmc> = (0..n).map(|i| cluster.vmmc(i)).collect();
    // Master's arrival array.
    let arrivals = vmmcs[0].space().alloc(1);
    let arrivals_export = vmmcs[0].export(arrivals, PAGE_SIZE);
    // Each node's release word.
    let mut releases = Vec::with_capacity(n);
    let mut release_exports = Vec::with_capacity(n);
    for vm in &vmmcs {
        let r = vm.space().alloc(1);
        release_exports.push(vm.export(r, PAGE_SIZE));
        releases.push(r);
    }
    (0..n)
        .map(|me| VmmcBarrier {
            vm: vmmcs[me].clone(),
            me,
            n,
            epoch: std::cell::Cell::new(0),
            staging: vmmcs[me].space().alloc(1),
            arrivals,
            release_proxies: if me == 0 {
                (0..n)
                    .map(|i| {
                        if i == 0 {
                            None
                        } else {
                            Some(vmmcs[0].import(release_exports[i]))
                        }
                    })
                    .collect()
            } else {
                Vec::new()
            },
            arrival_proxy: if me == 0 {
                None
            } else {
                Some(vmmcs[me].import(arrivals_export))
            },
            release: releases[me],
        })
        .collect()
}

impl VmmcBarrier {
    /// Enters the barrier; returns when all nodes have entered.
    pub async fn wait(&self) {
        let epoch = self.epoch.get() + 1;
        self.epoch.set(epoch);
        if self.me == 0 {
            // Wait for everyone's arrival flag, then release them.
            for i in 1..self.n {
                let slot = self.arrivals.add(i as u64 * 4);
                self.vm.poll_u32(slot, |v| v >= epoch).await;
            }
            for i in 1..self.n {
                self.vm
                    .space()
                    .write_raw(self.staging, &epoch.to_le_bytes());
                let proxy = self.release_proxies[i].as_ref().unwrap();
                self.vm.send(self.staging, proxy, 0, 4).await;
            }
        } else {
            self.vm
                .space()
                .write_raw(self.staging, &epoch.to_le_bytes());
            let proxy = self.arrival_proxy.as_ref().unwrap();
            self.vm.send(self.staging, proxy, self.me * 4, 4).await;
            self.vm.poll_u32(self.release, |v| v >= epoch).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_core::DesignConfig;
    use shrimp_sim::time;

    #[test]
    fn vmmc_barrier_synchronizes() {
        let cluster = Cluster::builder(4).config(DesignConfig::default()).build();
        let barriers = vmmc_barrier_group(&cluster);
        let mut handles = Vec::new();
        for (i, b) in barriers.into_iter().enumerate() {
            let vm = cluster.vmmc(i);
            handles.push(cluster.sim().spawn(async move {
                let mut exits = Vec::new();
                for round in 0..3u64 {
                    vm.compute(time::us(10 * (i as u64 + 1) * (round + 1)))
                        .await;
                    let before = vm.sim().now();
                    b.wait().await;
                    exits.push((before, vm.sim().now()));
                }
                exits
            }));
        }
        let (_t, out) = cluster.run_until_complete(handles);
        for round in 0..3 {
            let last_arrival = out.iter().map(|v| v[round].0).max().unwrap();
            for v in &out {
                assert!(v[round].1 >= last_arrival, "left barrier early");
            }
        }
    }

    #[test]
    fn barrier_uses_no_notifications() {
        let cluster = Cluster::builder(3).config(DesignConfig::default()).build();
        let barriers = vmmc_barrier_group(&cluster);
        let handles = barriers
            .into_iter()
            .map(|b| cluster.sim().spawn(async move { b.wait().await }))
            .collect();
        cluster.run_until_complete(handles);
        let counters = cluster.sim().metrics().snapshot();
        assert_eq!(counters.counter(Category::Core, "notifications"), 0);
        assert!(counters.counter(Category::Core, "messages_sent") > 0);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(digest(b"abc"), digest(b"abc"));
        assert_ne!(digest(b"abc"), digest(b"abd"));
    }
}
