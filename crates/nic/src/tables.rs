//! The Outgoing and Incoming Page Tables.
//!
//! §2.3: the OPT keeps a one-to-one mapping between physical page numbers
//! and OPT entries, so a snooped write can index the OPT directly with its
//! page number. Imports for deliberate update also allocate OPT entries,
//! addressed through proxy indices; we keep both in one table with proxy
//! indices allocated from a high range (mirroring the single physical OPT
//! RAM of the real board).
//!
//! Proxy indices come from one contiguous allocator and an import maps
//! consecutive proxies to consecutive pages of one remote node, so the
//! proxy region is stored as sorted runs of such entries: one run per
//! import, not one slot per page. A directory over the runs, one `u32` per
//! 64 slots, turns a lookup into one read and a short forward scan. Only
//! the sparse physical-page entries live in a map.

use std::cell::RefCell;

use shrimp_net::NodeId;
use shrimp_sim::FastMap;

/// First OPT index used for proxy (import) entries, far above any physical
/// page number a node can own.
pub const PROXY_INDEX_BASE: u64 = 1 << 40;

/// One Outgoing Page Table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptEntry {
    /// Destination node of the mapped remote page.
    pub dst_node: NodeId,
    /// Destination physical page number.
    pub dst_page: u64,
    /// Automatic update enabled for this entry (snooped writes to the
    /// corresponding physical page become packets).
    pub au_enable: bool,
    /// Combining enabled for this binding (§4.5.1; per-page bit).
    pub combine: bool,
    /// Interrupt-request bit attached to automatic-update packets from this
    /// page (§2.3: the AU interrupt bit is stored in the OPT).
    pub interrupt: bool,
}

/// One Incoming Page Table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IptEntry {
    /// Packets to this page are accepted (the page is an exported,
    /// pinned receive-buffer page).
    pub accept: bool,
    /// Receiver-side interrupt-enable bit: an arriving packet interrupts the
    /// host iff this and the packet's header bit are both set (§2.3).
    pub interrupt_enable: bool,
    /// Which exported buffer this page belongs to; routes notifications.
    pub buffer_id: u32,
}

/// `len` proxy OPT entries at slots `first..first + len` (slot `i` is
/// index `PROXY_INDEX_BASE + i`): slot `first + k` maps `entry` with its
/// destination page advanced by `k`.
#[derive(Debug, Clone, Copy)]
struct ProxyRun {
    first: u64,
    len: u64,
    entry: OptEntry,
}

impl ProxyRun {
    fn end(&self) -> u64 {
        self.first + self.len
    }

    /// The entry at `k` slots past the run's first.
    fn entry_at(&self, k: u64) -> OptEntry {
        OptEntry {
            dst_page: self.entry.dst_page.wrapping_add(k),
            ..self.entry
        }
    }

    /// The run without its first `k` slots.
    fn skip(&self, k: u64) -> ProxyRun {
        ProxyRun {
            first: self.first + k,
            len: self.len - k,
            entry: self.entry_at(k),
        }
    }

    /// `next` starts where this run ends and continues its pages.
    fn continues_into(&self, next: &ProxyRun) -> bool {
        self.end() == next.first && self.entry_at(self.len) == next.entry
    }
}

/// Proxy slots per directory entry.
const BLOCK: u64 = 64;

/// The OPT entries at proxy indices.
#[derive(Debug, Default)]
struct ProxyRegion {
    /// Sorted, disjoint runs, no two neighbours of which could be one run.
    runs: Vec<ProxyRun>,
    /// Per block of [`BLOCK`] slots, up to the last run's end: the position
    /// of the first run ending past the block's start.
    dir: Vec<u32>,
    /// `dir` no longer matches `runs`; the next lookup rebuilds it.
    stale: bool,
}

impl ProxyRegion {
    /// Adds `run`, which starts at or past the last run's end, extending
    /// the last run when it continues into it. Every block the region newly
    /// reaches starts past all earlier runs' ends, so its directory entry
    /// is the last run.
    fn append(&mut self, run: ProxyRun) {
        match self.runs.last_mut().filter(|r| r.continues_into(&run)) {
            Some(last) => last.len += run.len,
            None => self.runs.push(run),
        }
        if !self.stale {
            let last = u32::try_from(self.runs.len() - 1).expect("too many proxy runs");
            let end = self.runs[last as usize].end();
            while (self.dir.len() as u64) * BLOCK < end {
                self.dir.push(last);
            }
        }
    }

    /// Recomputes the directory from the runs in one merged pass.
    fn rebuild(&mut self) {
        self.dir.clear();
        let end = self.runs.last().map_or(0, ProxyRun::end);
        let mut i = 0;
        for block in 0..end.div_ceil(BLOCK) {
            while self.runs[i].end() <= block * BLOCK {
                i += 1;
            }
            self.dir
                .push(u32::try_from(i).expect("too many proxy runs"));
        }
        self.stale = false;
    }

    /// The entry at `slot`: the directory names the first run that can
    /// hold it, and a short forward scan finds the run that does.
    fn get(&mut self, slot: u64) -> Option<OptEntry> {
        if self.stale {
            self.rebuild();
        }
        let from = *self.dir.get(usize::try_from(slot / BLOCK).ok()?)? as usize;
        self.runs[from..]
            .iter()
            .find(|r| r.end() > slot)
            .filter(|r| r.first <= slot)
            .map(|r| r.entry_at(slot - r.first))
    }
}

/// The two page tables of one NIC.
#[derive(Debug)]
pub struct PageTables {
    /// OPT entries at physical page numbers (below [`PROXY_INDEX_BASE`]).
    opt: RefCell<FastMap<u64, OptEntry>>,
    /// OPT entries at proxy indices.
    proxies: RefCell<ProxyRegion>,
    ipt: RefCell<FastMap<u64, IptEntry>>,
    next_proxy: RefCell<u64>,
}

impl Default for PageTables {
    fn default() -> Self {
        Self::new()
    }
}

/// The proxy slot of an OPT index; `None` for a physical page.
fn proxy_slot(index: u64) -> Option<u64> {
    index.checked_sub(PROXY_INDEX_BASE)
}

/// Position of the first run ending after `slot`.
fn run_at(runs: &[ProxyRun], slot: u64) -> usize {
    runs.partition_point(|r| r.end() <= slot)
}

/// Removes `slot` from the run holding it, splitting that run if `slot`
/// lies inside, and returns the position a run starting at `slot` takes.
fn remove_slot(runs: &mut Vec<ProxyRun>, slot: u64) -> usize {
    let i = run_at(runs, slot);
    let Some(&r) = runs.get(i).filter(|r| r.first <= slot) else {
        return i;
    };
    let head = slot - r.first;
    match (head, r.len - head - 1) {
        (0, 0) => {
            runs.remove(i);
            i
        }
        (0, _) => {
            runs[i] = r.skip(1);
            i
        }
        (_, tail) => {
            runs[i].len = head;
            if tail > 0 {
                runs.insert(i + 1, r.skip(head + 1));
            }
            i + 1
        }
    }
}

/// Joins the run at `i` with its successor if it continues into it.
fn merge_next(runs: &mut Vec<ProxyRun>, i: usize) {
    if runs
        .get(i + 1)
        .is_some_and(|next| runs[i].continues_into(next))
    {
        runs[i].len += runs[i + 1].len;
        runs.remove(i + 1);
    }
}

impl PageTables {
    /// Creates empty tables.
    pub fn new() -> Self {
        PageTables {
            opt: RefCell::new(FastMap::default()),
            proxies: RefCell::new(ProxyRegion::default()),
            ipt: RefCell::new(FastMap::default()),
            next_proxy: RefCell::new(PROXY_INDEX_BASE),
        }
    }

    /// Drops every OPT/IPT entry and rewinds the proxy allocator — the
    /// board's RAM after a power cycle. A restarted node re-running the same
    /// export/import sequence reallocates the same proxy indices.
    pub fn clear(&self) {
        self.opt.borrow_mut().clear();
        *self.proxies.borrow_mut() = ProxyRegion::default();
        self.ipt.borrow_mut().clear();
        *self.next_proxy.borrow_mut() = PROXY_INDEX_BASE;
    }

    /// Allocates `n` consecutive proxy OPT indices (for an import) and
    /// returns the first.
    pub fn alloc_proxy_range(&self, n: usize) -> u64 {
        let mut next = self.next_proxy.borrow_mut();
        let first = *next;
        *next += n as u64;
        first
    }

    /// Installs or replaces an OPT entry. A proxy entry that continues
    /// the run before it (next slot, next destination page, same node and
    /// flags) extends that run; any other splits the run it lands in.
    pub fn opt_set(&self, index: u64, entry: OptEntry) {
        match proxy_slot(index) {
            Some(slot) => {
                let region = &mut *self.proxies.borrow_mut();
                let run = ProxyRun {
                    first: slot,
                    len: 1,
                    entry,
                };
                // An import's pages in order: no run lies at or past `slot`.
                if region.runs.last().is_none_or(|r| r.end() <= slot) {
                    region.append(run);
                    return;
                }
                region.stale = true;
                let runs = &mut region.runs;
                let i = remove_slot(runs, slot);
                if i > 0 && runs[i - 1].continues_into(&run) {
                    runs[i - 1].len += 1;
                    merge_next(runs, i - 1);
                } else {
                    runs.insert(i, run);
                    merge_next(runs, i);
                }
            }
            None => {
                self.opt.borrow_mut().insert(index, entry);
            }
        }
    }

    /// Removes an OPT entry.
    pub fn opt_clear(&self, index: u64) {
        match proxy_slot(index) {
            Some(slot) => {
                let region = &mut *self.proxies.borrow_mut();
                region.stale = true;
                remove_slot(&mut region.runs, slot);
            }
            None => {
                self.opt.borrow_mut().remove(&index);
            }
        }
    }

    /// Looks up an OPT entry.
    pub fn opt_get(&self, index: u64) -> Option<OptEntry> {
        match proxy_slot(index) {
            Some(slot) => self.proxies.borrow_mut().get(slot),
            None => self.opt.borrow().get(&index).copied(),
        }
    }

    /// Installs or replaces an IPT entry.
    pub fn ipt_set(&self, page: u64, entry: IptEntry) {
        self.ipt.borrow_mut().insert(page, entry);
    }

    /// Looks up an IPT entry.
    pub fn ipt_get(&self, page: u64) -> Option<IptEntry> {
        self.ipt.borrow().get(&page).copied()
    }

    /// Flips the receiver-side interrupt-enable bit on every page of a
    /// buffer (used by notification enable/disable).
    pub fn ipt_set_interrupt_for_buffer(&self, buffer_id: u32, enable: bool) {
        for e in self.ipt.borrow_mut().values_mut() {
            if e.buffer_id == buffer_id {
                e.interrupt_enable = enable;
            }
        }
    }

    /// The next proxy index the allocator will hand out.
    pub fn next_proxy(&self) -> u64 {
        *self.next_proxy.borrow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(node: usize) -> OptEntry {
        OptEntry {
            dst_node: NodeId(node),
            dst_page: 42,
            au_enable: false,
            combine: false,
            interrupt: false,
        }
    }

    #[test]
    fn opt_set_get_clear() {
        let t = PageTables::new();
        assert_eq!(t.opt_get(3), None);
        t.opt_set(3, entry(1));
        assert_eq!(t.opt_get(3).unwrap().dst_node, NodeId(1));
        t.opt_clear(3);
        assert_eq!(t.opt_get(3), None);
    }

    #[test]
    fn proxy_ranges_are_disjoint_and_above_phys() {
        let t = PageTables::new();
        let a = t.alloc_proxy_range(4);
        let b = t.alloc_proxy_range(2);
        assert!(a >= PROXY_INDEX_BASE);
        assert_eq!(b, a + 4);
    }

    #[test]
    fn page_by_page_imports_are_held_as_one_run_each() {
        // A launch node at p256: one 16-page import per peer.
        let t = PageTables::new();
        for node in 0..255u64 {
            let base = t.alloc_proxy_range(16);
            for i in 0..16 {
                t.opt_set(
                    base + i,
                    OptEntry {
                        dst_page: 100 + i,
                        ..entry(node as usize)
                    },
                );
            }
        }
        let region = t.proxies.borrow();
        assert_eq!(region.runs.len(), 255);
        // The append path kept the directory current: one entry per block.
        assert!(!region.stale);
        assert_eq!(region.dir.len(), (255 * 16usize).div_ceil(BLOCK as usize));
        drop(region);
        assert_eq!(
            t.opt_get(PROXY_INDEX_BASE + 100).unwrap().dst_node,
            NodeId(6)
        );
        assert_eq!(t.opt_get(PROXY_INDEX_BASE + 255 * 16), None);
        for i in 0..255 * 16 {
            let e = t.opt_get(PROXY_INDEX_BASE + i).expect("mapped proxy");
            assert_eq!(e.dst_node, NodeId(i as usize / 16));
            assert_eq!(e.dst_page, 100 + i % 16);
        }
    }

    #[test]
    fn ipt_buffer_interrupt_toggle() {
        let t = PageTables::new();
        for p in 0..4 {
            t.ipt_set(
                p,
                IptEntry {
                    accept: true,
                    interrupt_enable: false,
                    buffer_id: (p % 2) as u32,
                },
            );
        }
        t.ipt_set_interrupt_for_buffer(0, true);
        assert!(t.ipt_get(0).unwrap().interrupt_enable);
        assert!(!t.ipt_get(1).unwrap().interrupt_enable);
        assert!(t.ipt_get(2).unwrap().interrupt_enable);
    }
}
