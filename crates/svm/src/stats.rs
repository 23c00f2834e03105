//! Per-node SVM time breakdown — the categories of Figure 4's stacked bars.

use std::cell::Cell;

use shrimp_sim::{Category, CounterSet, Time};

/// Counters and category timers maintained by one SVM node.
///
/// The four wall-time categories partition the application's elapsed time
/// together with computation (`elapsed - lock - barrier - release - fault`),
/// matching the paper's Computation / Communication / Lock / Barrier /
/// Overhead stack (communication ≈ `fault_time`, overhead ≈ diff/twin work
/// inside `release_time` and `fault_time`).
#[derive(Debug, Default)]
pub struct SvmStats {
    /// Wall time blocked acquiring locks.
    pub lock_wait: Cell<Time>,
    /// Wall time in barriers (excluding the release phase).
    pub barrier_wait: Cell<Time>,
    /// Wall time in releases: diff scans/sends, AU fences.
    pub release_time: Cell<Time>,
    /// Wall time in read/write faults: traps, twins, remote page fetches.
    pub fault_time: Cell<Time>,
    /// Read faults served, each by one remote page fetch.
    pub read_faults: Cell<u64>,
    /// Write faults served.
    pub write_faults: Cell<u64>,
    /// Diffs transmitted to homes.
    pub diffs_sent: Cell<u64>,
    /// Words modified across all transmitted diffs.
    pub diff_words: Cell<u64>,
    /// Write notices produced.
    pub notices_sent: Cell<u64>,
    /// AU fences performed (AURC).
    pub fences: Cell<u64>,
    /// Lock acquire operations.
    pub lock_ops: Cell<u64>,
    /// Barrier crossings.
    pub barriers: Cell<u64>,
}

impl CounterSet for SvmStats {
    const CATEGORY: Category = Category::Svm;

    fn for_each(&self, f: &mut dyn FnMut(&'static str, u64)) {
        f("lock_wait_ps", self.lock_wait.get());
        f("barrier_wait_ps", self.barrier_wait.get());
        f("release_time_ps", self.release_time.get());
        f("fault_time_ps", self.fault_time.get());
        f("read_faults", self.read_faults.get());
        f("write_faults", self.write_faults.get());
        f("diffs_sent", self.diffs_sent.get());
        f("diff_words", self.diff_words.get());
        f("notices_sent", self.notices_sent.get());
        f("fences", self.fences.get());
        f("lock_ops", self.lock_ops.get());
        f("barriers", self.barriers.get());
    }
}
