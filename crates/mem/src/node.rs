//! Per-node physical memory with real byte contents, cache modes, pinning,
//! the NIC snoop hook, and per-page write watchers.

use std::cell::RefCell;
use std::rc::Rc;

use shrimp_sim::{FastMap, Gate};

use crate::addr::{page_chunks, Paddr, PAGE_SIZE};

/// Per-page caching policy of the Pentium nodes (§2.1). Automatic-update
/// bindings set bound pages to [`CacheMode::WriteThrough`] so every store is
/// visible on the memory bus for the NIC's snoop logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CacheMode {
    /// Default: stores stay in the cache until eviction; not snoopable.
    #[default]
    WriteBack,
    /// Every store goes to the memory bus; snoopable, slower stores.
    WriteThrough,
    /// No caching at all (used for proxy/IO pages).
    Uncached,
}

type SnoopFn = Box<dyn Fn(Paddr, &[u8])>;

struct NodeMemInner {
    pages: RefCell<FastMap<u64, Box<[u8; PAGE_SIZE]>>>,
    cache_modes: RefCell<FastMap<u64, CacheMode>>,
    pinned: RefCell<FastMap<u64, u32>>, // pin counts
    next_phys_page: RefCell<u64>,
    snoop: RefCell<Option<SnoopFn>>,
    write_gates: RefCell<FastMap<u64, Gate>>,
    any_write_gate: Gate,
}

/// One node's physical memory. Cheap to clone (shared handle).
///
/// All byte contents are real: data sent through the simulated NIC lands
/// here and can be compared against what the sender wrote.
#[derive(Clone)]
pub struct NodeMem {
    inner: Rc<NodeMemInner>,
}

impl Default for NodeMem {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for NodeMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeMem")
            .field("allocated_pages", &self.inner.pages.borrow().len())
            .finish()
    }
}

impl NodeMem {
    /// Creates an empty physical memory.
    pub fn new() -> Self {
        NodeMem {
            inner: Rc::new(NodeMemInner {
                pages: RefCell::new(FastMap::default()),
                cache_modes: RefCell::new(FastMap::default()),
                pinned: RefCell::new(FastMap::default()),
                next_phys_page: RefCell::new(1), // page 0 reserved (null)
                snoop: RefCell::new(None),
                write_gates: RefCell::new(FastMap::default()),
                any_write_gate: Gate::new(),
            }),
        }
    }

    /// Power-cycles the memory: every allocated page, cache-mode entry, and
    /// pin is lost and the allocator rewinds to page 1, so a restarted node
    /// that re-runs the same program reproduces the same physical pages.
    ///
    /// The snoop hook and write gates survive the reset — they model wiring
    /// (the Xpress-bus board, parked pollers on other tasks), not volatile
    /// contents.
    pub fn reset(&self) {
        self.inner.pages.borrow_mut().clear();
        self.inner.cache_modes.borrow_mut().clear();
        self.inner.pinned.borrow_mut().clear();
        *self.inner.next_phys_page.borrow_mut() = 1;
    }

    /// Allocates `npages` fresh, zeroed, contiguous physical pages and
    /// returns the first page number.
    pub fn alloc_pages(&self, npages: usize) -> u64 {
        let mut next = self.inner.next_phys_page.borrow_mut();
        let first = *next;
        *next += npages as u64;
        let mut pages = self.inner.pages.borrow_mut();
        for p in first..first + npages as u64 {
            pages.insert(p, Box::new([0u8; PAGE_SIZE]));
        }
        first
    }

    /// Number of allocated physical pages.
    pub fn allocated_pages(&self) -> usize {
        self.inner.pages.borrow().len()
    }

    /// The next physical page number the allocator will hand out.
    ///
    /// Checkpoint capture records this, and restore *verifies* it: a
    /// restored node re-runs its allocation preamble, so a cursor mismatch
    /// means the replayed layout diverged from the captured one.
    pub fn next_phys_page(&self) -> u64 {
        *self.inner.next_phys_page.borrow()
    }

    /// Every allocated page's number and contents, sorted by page number —
    /// the deterministic memory image a checkpoint stores.
    pub fn dump_pages(&self) -> Vec<(u64, Vec<u8>)> {
        let pages = self.inner.pages.borrow();
        let mut out: Vec<(u64, Vec<u8>)> =
            pages.iter().map(|(&p, data)| (p, data.to_vec())).collect();
        out.sort_unstable_by_key(|&(p, _)| p);
        out
    }

    fn with_page<R>(&self, page: u64, f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R) -> R {
        let mut pages = self.inner.pages.borrow_mut();
        let p = pages
            .get_mut(&page)
            .unwrap_or_else(|| panic!("access to unallocated physical page {page}"));
        f(p)
    }

    /// Reads `buf.len()` bytes starting at `addr` (may cross pages).
    ///
    /// # Panics
    ///
    /// Panics if any touched page is unallocated.
    pub fn read(&self, addr: Paddr, buf: &mut [u8]) {
        let mut done = 0;
        for (page, offset, len) in page_chunks(addr.0, buf.len()) {
            self.with_page(page, |p| {
                buf[done..done + len].copy_from_slice(&p[offset..offset + len]);
            });
            done += len;
        }
    }

    /// Writes bytes starting at `addr` without snooping or watcher
    /// notification — raw backdoor used for workload initialization.
    pub fn write_raw(&self, addr: Paddr, data: &[u8]) {
        let mut done = 0;
        for (page, offset, len) in page_chunks(addr.0, data.len()) {
            self.with_page(page, |p| {
                p[offset..offset + len].copy_from_slice(&data[done..done + len]);
            });
            done += len;
        }
    }

    /// A CPU store: writes memory and, if the page is
    /// [`CacheMode::WriteThrough`] or [`CacheMode::Uncached`], presents the
    /// write on the memory bus where the NIC snoop hook sees it (§2.3).
    pub fn cpu_store(&self, addr: Paddr, data: &[u8]) {
        self.write_raw(addr, data);
        let mut done = 0;
        for (page, offset, len) in page_chunks(addr.0, data.len()) {
            let mode = self.cache_mode_of(page);
            if mode != CacheMode::WriteBack {
                let snoop = self.inner.snoop.borrow();
                if let Some(snoop) = snoop.as_ref() {
                    snoop(Paddr::from_parts(page, offset), &data[done..done + len]);
                }
            }
            done += len;
        }
    }

    /// A device (incoming DMA) write: writes memory and wakes any processes
    /// watching the touched pages. Device writes are not snooped back out.
    pub fn dma_write(&self, addr: Paddr, data: &[u8]) {
        self.write_raw(addr, data);
        for (page, _, _) in page_chunks(addr.0, data.len()) {
            let gates = self.inner.write_gates.borrow();
            if let Some(g) = gates.get(&page) {
                g.notify();
            }
        }
        self.inner.any_write_gate.notify();
    }

    /// Gate notified on every [`NodeMem::dma_write`] to any page; receivers
    /// polling many buffers at once (e.g. NX receive-from-any) sleep on it.
    pub fn any_write_gate(&self) -> Gate {
        self.inner.any_write_gate.clone()
    }

    /// Gate notified on every [`NodeMem::dma_write`] touching `page`; pollers
    /// use it to sleep until the page may have changed.
    pub fn write_gate(&self, page: u64) -> Gate {
        self.inner
            .write_gates
            .borrow_mut()
            .entry(page)
            .or_default()
            .clone()
    }

    /// Installs the NIC snoop hook (the Xpress-bus board).
    pub fn set_snoop(&self, f: impl Fn(Paddr, &[u8]) + 'static) {
        *self.inner.snoop.borrow_mut() = Some(Box::new(f));
    }

    /// Sets the caching policy of a physical page.
    pub fn set_cache_mode(&self, page: u64, mode: CacheMode) {
        self.inner.cache_modes.borrow_mut().insert(page, mode);
    }

    /// Caching policy of a physical page (default [`CacheMode::WriteBack`]).
    pub fn cache_mode_of(&self, page: u64) -> CacheMode {
        self.inner
            .cache_modes
            .borrow()
            .get(&page)
            .copied()
            .unwrap_or_default()
    }

    /// Pins a page (prevents replacement; export pins receive-buffer pages).
    /// Pins nest.
    pub fn pin(&self, page: u64) {
        *self.inner.pinned.borrow_mut().entry(page).or_insert(0) += 1;
    }

    /// Releases one pin of a page.
    ///
    /// # Panics
    ///
    /// Panics if the page is not pinned.
    pub fn unpin(&self, page: u64) {
        let mut pinned = self.inner.pinned.borrow_mut();
        let c = pinned.get_mut(&page).expect("unpin of unpinned page");
        *c -= 1;
        if *c == 0 {
            pinned.remove(&page);
        }
    }

    /// `true` if the page is currently pinned.
    pub fn is_pinned(&self, page: u64) -> bool {
        self.inner.pinned.borrow().contains_key(&page)
    }

    // Typed helpers -------------------------------------------------------

    /// Reads a little-endian `u32` at `addr`.
    pub fn read_u32(&self, addr: Paddr) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: Paddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// CPU-stores a little-endian `u32` at `addr`.
    pub fn store_u32(&self, addr: Paddr, v: u32) {
        self.cpu_store(addr, &v.to_le_bytes());
    }

    /// CPU-stores a little-endian `u64` at `addr`.
    pub fn store_u64(&self, addr: Paddr, v: u64) {
        self.cpu_store(addr, &v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn alloc_zeroed_and_rw_roundtrip() {
        let m = NodeMem::new();
        let first = m.alloc_pages(2);
        let a = Paddr::from_parts(first, 4090); // crosses into second page
        let mut buf = [0u8; 12];
        m.read(a, &mut buf);
        assert_eq!(buf, [0u8; 12]);
        m.write_raw(a, b"hello world!");
        m.read(a, &mut buf);
        assert_eq!(&buf, b"hello world!");
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn unallocated_page_access_panics() {
        let m = NodeMem::new();
        let mut b = [0u8; 1];
        m.read(Paddr(123 << 12), &mut b);
    }

    #[test]
    fn snoop_sees_writethrough_stores_only() {
        let m = NodeMem::new();
        let p = m.alloc_pages(2);
        let seen: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        m.set_snoop(move |a, d| s.borrow_mut().push((a.0, d.len())));

        m.cpu_store(Paddr::from_parts(p, 0), &[1, 2, 3, 4]); // write-back: unseen
        m.set_cache_mode(p + 1, CacheMode::WriteThrough);
        m.cpu_store(Paddr::from_parts(p + 1, 8), &[9; 4]); // seen
        m.dma_write(Paddr::from_parts(p + 1, 16), &[7; 4]); // DMA: unseen

        let got = seen.borrow().clone();
        assert_eq!(got, vec![(Paddr::from_parts(p + 1, 8).0, 4)]);
    }

    #[test]
    fn snooped_store_crossing_pages_splits_by_mode() {
        let m = NodeMem::new();
        let p = m.alloc_pages(2);
        m.set_cache_mode(p, CacheMode::WriteThrough);
        // Second page stays write-back: only the first chunk is snooped.
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        m.set_snoop(move |a, d| s.borrow_mut().push((a.0, d.len())));
        let start = Paddr::from_parts(p, PAGE_SIZE - 8);
        m.cpu_store(start, &[0xAA; 16]);
        assert_eq!(seen.borrow().clone(), vec![(start.0, 8)]);
        // Both halves were still written.
        let mut buf = [0u8; 16];
        m.read(start, &mut buf);
        assert_eq!(buf, [0xAA; 16]);
    }

    #[test]
    fn pin_counts_nest() {
        let m = NodeMem::new();
        let p = m.alloc_pages(1);
        assert!(!m.is_pinned(p));
        m.pin(p);
        m.pin(p);
        m.unpin(p);
        assert!(m.is_pinned(p));
        m.unpin(p);
        assert!(!m.is_pinned(p));
    }

    #[test]
    fn reset_rewinds_the_allocator_and_keeps_the_snoop() {
        let m = NodeMem::new();
        let seen = Rc::new(RefCell::new(0usize));
        let s = seen.clone();
        m.set_snoop(move |_, _| *s.borrow_mut() += 1);
        let p = m.alloc_pages(2);
        m.set_cache_mode(p, CacheMode::WriteThrough);
        m.pin(p);
        m.reset();
        assert_eq!(m.allocated_pages(), 0);
        assert!(!m.is_pinned(p));
        // The rewound allocator hands back the same first page.
        assert_eq!(m.alloc_pages(2), p);
        // Snoop wiring survived: a write-through store is still seen.
        m.set_cache_mode(p, CacheMode::WriteThrough);
        m.cpu_store(Paddr::from_parts(p, 0), &[1]);
        assert_eq!(*seen.borrow(), 1);
    }

    #[test]
    fn typed_helpers_little_endian() {
        let m = NodeMem::new();
        let p = m.alloc_pages(1);
        let a = Paddr::from_parts(p, 16);
        m.store_u32(a, 0x0102_0304);
        assert_eq!(m.read_u32(a), 0x0102_0304);
        let mut b = [0u8; 4];
        m.read(a, &mut b);
        assert_eq!(b, [4, 3, 2, 1]);
        m.store_u64(a, u64::MAX - 1);
        assert_eq!(m.read_u64(a), u64::MAX - 1);
    }

    #[test]
    fn write_gate_notified_by_dma_only() {
        use shrimp_sim::Sim;
        let sim = Sim::new();
        let m = NodeMem::new();
        let p = m.alloc_pages(1);
        let gate = m.write_gate(p);
        let waiter = sim.spawn(async move {
            gate.wait().await;
        });
        let m2 = m.clone();
        sim.schedule(shrimp_sim::time::us(1), move || {
            m2.cpu_store(Paddr::from_parts(p, 0), &[1]); // must NOT wake
        });
        let m3 = m.clone();
        sim.schedule(shrimp_sim::time::us(2), move || {
            m3.dma_write(Paddr::from_parts(p, 0), &[2]); // wakes
        });
        sim.run();
        assert!(waiter.is_done());
    }
}
