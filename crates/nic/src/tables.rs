//! The Outgoing and Incoming Page Tables.
//!
//! §2.3: the OPT keeps a one-to-one mapping between physical page numbers
//! and OPT entries, so a snooped write can index the OPT directly with its
//! page number. Imports for deliberate update also allocate OPT entries,
//! addressed through proxy indices; we keep both in one table with proxy
//! indices allocated from a high range (mirroring the single physical OPT
//! RAM of the real board).
//!
//! Proxy indices come from one contiguous allocator, so that region is
//! stored densely, indexed by `index - PROXY_INDEX_BASE`; only the sparse
//! physical-page entries live in a map.

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

/// The two page tables of one NIC.
#[derive(Debug)]
pub struct PageTables {
    /// OPT entries at physical page numbers (below [`PROXY_INDEX_BASE`]).
    opt: RefCell<FastMap<u64, OptEntry>>,
    /// OPT entries at proxy indices, slot `i` holding `PROXY_INDEX_BASE + i`.
    proxies: RefCell<Vec<Option<OptEntry>>>,
    ipt: RefCell<FastMap<u64, IptEntry>>,
    next_proxy: RefCell<u64>,
}

impl Default for PageTables {
    fn default() -> Self {
        Self::new()
    }
}

/// The dense slot of a proxy OPT index; `None` for a physical page.
fn proxy_slot(index: u64) -> Option<usize> {
    index.checked_sub(PROXY_INDEX_BASE).map(|i| i as usize)
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

    /// Installs or replaces an OPT entry. A proxy index should come from
    /// [`alloc_proxy_range`](Self::alloc_proxy_range): the proxy region is
    /// stored densely up to the highest index ever set.
    pub fn opt_set(&self, index: u64, entry: OptEntry) {
        match proxy_slot(index) {
            Some(i) => {
                let mut proxies = self.proxies.borrow_mut();
                if proxies.len() <= i {
                    proxies.resize(i + 1, None);
                }
                proxies[i] = Some(entry);
            }
            None => {
                self.opt.borrow_mut().insert(index, entry);
            }
        }
    }

    /// Removes an OPT entry.
    pub fn opt_clear(&self, index: u64) {
        match proxy_slot(index) {
            Some(i) => {
                if let Some(slot) = self.proxies.borrow_mut().get_mut(i) {
                    *slot = None;
                }
            }
            None => {
                self.opt.borrow_mut().remove(&index);
            }
        }
    }

    /// Looks up an OPT entry.
    pub fn opt_get(&self, index: u64) -> Option<OptEntry> {
        match proxy_slot(index) {
            Some(i) => self.proxies.borrow().get(i).copied().flatten(),
            None => self.opt.borrow().get(&index).copied(),
        }
    }

    /// Installs or replaces an IPT entry.
    pub fn ipt_set(&self, page: u64, entry: IptEntry) {
        self.ipt.borrow_mut().insert(page, entry);
    }

    /// Removes an IPT entry.
    pub fn ipt_clear(&self, page: u64) {
        self.ipt.borrow_mut().remove(&page);
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
    /// so the sorted map part is followed by the proxy slots in order.
    pub fn opt_entries(&self) -> Vec<(u64, OptEntry)> {
        let mut out: Vec<(u64, OptEntry)> =
            self.opt.borrow().iter().map(|(&i, &e)| (i, e)).collect();
        out.sort_unstable_by_key(|&(i, _)| i);
        let proxies = self.proxies.borrow();
        out.extend(
            (PROXY_INDEX_BASE..)
                .zip(proxies.iter())
                .filter_map(|(i, e)| e.map(|e| (i, e))),
        );
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
    use shrimp_testkit::prop::*;
    use shrimp_testkit::{prop_assert_eq, props};
    use std::collections::BTreeMap;

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

    props! {
        cases = 64;

        /// Random OPT edits on physical pages and proxy indices, with power
        /// cycles in between, give the lookups and the sorted table image
        /// of an ordered reference map.
        fn opt_matches_ordered_reference(
            ops in vec_of(zip3(u8_in(0..16), u64_in(0..64), any_u8()), 1..200),
        ) {
            let t = PageTables::new();
            let mut model = BTreeMap::new();
            let index_of = |k: u64| {
                if k < 32 {
                    k + 1
                } else {
                    PROXY_INDEX_BASE + k - 32
                }
            };
            for &(op, k, node) in &ops {
                let index = index_of(k);
                match op {
                    0..=9 => {
                        t.opt_set(index, entry(node as usize));
                        model.insert(index, entry(node as usize));
                    }
                    10..=14 => {
                        t.opt_clear(index);
                        model.remove(&index);
                    }
                    _ => {
                        t.alloc_proxy_range(5);
                        t.clear();
                        model.clear();
                        prop_assert_eq!(t.next_proxy(), PROXY_INDEX_BASE);
                        prop_assert_eq!(t.alloc_proxy_range(2), PROXY_INDEX_BASE);
                    }
                }
                prop_assert_eq!(t.opt_get(index), model.get(&index).copied());
            }
            for k in 0..64 {
                prop_assert_eq!(t.opt_get(index_of(k)), model.get(&index_of(k)).copied());
            }
            let image: Vec<(u64, OptEntry)> = model.into_iter().collect();
            prop_assert_eq!(t.opt_entries(), image);
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
