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
//! import, not one slot per page. Only the sparse physical-page entries
//! live in a map.

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

/// The two page tables of one NIC.
#[derive(Debug)]
pub struct PageTables {
    /// OPT entries at physical page numbers (below [`PROXY_INDEX_BASE`]).
    opt: RefCell<FastMap<u64, OptEntry>>,
    /// OPT entries at proxy indices: sorted, disjoint runs, no two
    /// neighbours of which could be one run.
    proxies: RefCell<Vec<ProxyRun>>,
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
            proxies: RefCell::new(Vec::new()),
            ipt: RefCell::new(FastMap::default()),
            next_proxy: RefCell::new(PROXY_INDEX_BASE),
        }
    }

    /// Drops every OPT/IPT entry and rewinds the proxy allocator — the
    /// board's RAM after a power cycle. A restarted node re-running the same
    /// export/import sequence reallocates the same proxy indices.
    pub fn clear(&self) {
        self.opt.borrow_mut().clear();
        self.proxies.borrow_mut().clear();
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
                let runs = &mut *self.proxies.borrow_mut();
                let run = ProxyRun {
                    first: slot,
                    len: 1,
                    entry,
                };
                // An import's next page: no run lies at or past `slot`.
                if let Some(last) = runs.last_mut().filter(|r| r.continues_into(&run)) {
                    last.len += 1;
                    return;
                }
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
                remove_slot(&mut self.proxies.borrow_mut(), slot);
            }
            None => {
                self.opt.borrow_mut().remove(&index);
            }
        }
    }

    /// Looks up an OPT entry.
    pub fn opt_get(&self, index: u64) -> Option<OptEntry> {
        match proxy_slot(index) {
            Some(slot) => {
                let runs = self.proxies.borrow();
                runs.get(run_at(&runs, slot))
                    .filter(|r| r.first <= slot)
                    .map(|r| r.entry_at(slot - r.first))
            }
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

    /// The next proxy index the allocator will hand out. Checkpoint restore
    /// verifies this against the captured value after replaying the
    /// import/export preamble.
    pub fn next_proxy(&self) -> u64 {
        *self.next_proxy.borrow()
    }

    /// Every OPT entry, sorted by index — the deterministic table image a
    /// checkpoint stores. Physical pages all sort below the proxy region,
    /// so the sorted map part is followed by the proxy runs, expanded.
    pub fn opt_entries(&self) -> Vec<(u64, OptEntry)> {
        let mut out: Vec<(u64, OptEntry)> =
            self.opt.borrow().iter().map(|(&i, &e)| (i, e)).collect();
        out.sort_unstable_by_key(|&(i, _)| i);
        for r in self.proxies.borrow().iter() {
            out.extend((0..r.len).map(|k| (PROXY_INDEX_BASE + r.first + k, r.entry_at(k))));
        }
        out
    }

    /// Every IPT entry, sorted by page — the deterministic table image a
    /// checkpoint stores.
    pub fn ipt_entries(&self) -> Vec<(u64, IptEntry)> {
        let mut out: Vec<(u64, IptEntry)> =
            self.ipt.borrow().iter().map(|(&p, &e)| (p, e)).collect();
        out.sort_unstable_by_key(|&(p, _)| p);
        out
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
        assert_eq!(t.proxies.borrow().len(), 255);
        let image = t.opt_entries();
        assert_eq!(image.len(), 255 * 16);
        assert_eq!(image[17].0, PROXY_INDEX_BASE + 17);
        assert_eq!(image[17].1.dst_node, NodeId(1));
        assert_eq!(image[17].1.dst_page, 101);
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
