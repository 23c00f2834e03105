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

/// One physical page: its bytes (boxed on the first write that is not all
/// zeros; a page never written reads as zeros), cache mode and pin count.
#[derive(Default)]
struct Frame {
    bytes: Option<Box<[u8; PAGE_SIZE]>>,
    mode: CacheMode,
    pins: u32,
}

struct NodeMemInner {
    /// Indexed by physical page number; index 0 is the reserved null page,
    /// and `frames.len()` is the allocator cursor.
    frames: RefCell<Vec<Frame>>,
    snoop: RefCell<Option<SnoopFn>>,
    write_gates: RefCell<FastMap<u64, Gate>>,
    any_write_gate: Gate,
}

/// One node's physical memory. Cheap to clone (shared handle).
///
/// All byte contents are real: data sent through the simulated NIC lands
/// here and can be compared against what the sender wrote. A page's 4 KiB
/// are allocated only when something non-zero is first written to it.
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
            .field("allocated_pages", &self.allocated_pages())
            .finish()
    }
}

impl NodeMem {
    /// Creates an empty physical memory.
    pub fn new() -> Self {
        NodeMem {
            inner: Rc::new(NodeMemInner {
                frames: RefCell::new(vec![Frame::default()]), // page 0 reserved (null)
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
        self.inner.frames.borrow_mut().truncate(1);
    }

    /// Allocates `npages` fresh, zeroed, contiguous physical pages and
    /// returns the first page number.
    pub fn alloc_pages(&self, npages: usize) -> u64 {
        let mut frames = self.inner.frames.borrow_mut();
        let first = frames.len();
        frames.resize_with(first + npages, Frame::default);
        first as u64
    }

    /// Number of allocated physical pages.
    pub fn allocated_pages(&self) -> usize {
        self.inner.frames.borrow().len() - 1
    }

    /// The next physical page number the allocator will hand out.
    pub fn next_phys_page(&self) -> u64 {
        self.inner.frames.borrow().len() as u64
    }

    fn with_frame<R>(&self, page: u64, f: impl FnOnce(&mut Frame) -> R) -> R {
        let mut frames = self.inner.frames.borrow_mut();
        let frame = match usize::try_from(page) {
            Ok(i) if i != 0 => frames.get_mut(i),
            _ => None,
        };
        f(frame.unwrap_or_else(|| panic!("access to unallocated physical page {page}")))
    }

    /// Reads `buf.len()` bytes starting at `addr` (may cross pages).
    ///
    /// # Panics
    ///
    /// Panics if any touched page is unallocated.
    pub fn read(&self, addr: Paddr, buf: &mut [u8]) {
        let mut done = 0;
        for (page, offset, len) in page_chunks(addr.0, buf.len()) {
            let out = &mut buf[done..done + len];
            self.with_frame(page, |frame| match &frame.bytes {
                Some(bytes) => out.copy_from_slice(&bytes[offset..offset + len]),
                None => out.fill(0),
            });
            done += len;
        }
    }

    /// Writes bytes starting at `addr` without snooping or watcher
    /// notification — raw backdoor used for workload initialization.
    ///
    /// Writing zeros into a page never written is a no-op: the page
    /// already reads as zeros, so its bytes stay unallocated.
    pub fn write_raw(&self, addr: Paddr, data: &[u8]) {
        let mut done = 0;
        for (page, offset, len) in page_chunks(addr.0, data.len()) {
            let src = &data[done..done + len];
            self.with_frame(page, |frame| {
                if frame.bytes.is_none() && src.iter().all(|&b| b == 0) {
                    return;
                }
                let bytes = frame
                    .bytes
                    .get_or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
                bytes[offset..offset + len].copy_from_slice(src);
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
    ///
    /// # Panics
    ///
    /// Panics if the page is unallocated.
    pub fn set_cache_mode(&self, page: u64, mode: CacheMode) {
        self.with_frame(page, |frame| frame.mode = mode);
    }

    /// Caching policy of a physical page (default [`CacheMode::WriteBack`],
    /// also for a page not allocated).
    pub fn cache_mode_of(&self, page: u64) -> CacheMode {
        self.frame_field(page, |frame| frame.mode)
    }

    /// Pins a page (prevents replacement; export pins receive-buffer pages).
    /// Pins nest.
    ///
    /// # Panics
    ///
    /// Panics if the page is unallocated.
    pub fn pin(&self, page: u64) {
        self.with_frame(page, |frame| frame.pins += 1);
    }

    /// Releases one pin of a page.
    ///
    /// # Panics
    ///
    /// Panics if the page is unallocated or not pinned.
    pub fn unpin(&self, page: u64) {
        self.with_frame(page, |frame| {
            frame.pins = frame.pins.checked_sub(1).expect("unpin of unpinned page");
        });
    }

    /// `true` if the page is currently pinned (`false` for a page not
    /// allocated).
    pub fn is_pinned(&self, page: u64) -> bool {
        self.frame_field(page, |frame| frame.pins > 0)
    }

    /// `f` of the page's frame, or of an empty frame if the page is not
    /// allocated.
    fn frame_field<R>(&self, page: u64, f: impl FnOnce(&Frame) -> R) -> R {
        let frames = self.inner.frames.borrow();
        match usize::try_from(page).ok().and_then(|i| frames.get(i)) {
            Some(frame) => f(frame),
            None => f(&Frame::default()),
        }
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
    #[should_panic(expected = "access to unallocated physical page 0")]
    fn null_page_access_panics() {
        let m = NodeMem::new();
        m.alloc_pages(1);
        m.write_raw(Paddr(0), &[1]);
    }

    #[test]
    #[should_panic(expected = "access to unallocated physical page 2")]
    fn pin_past_the_allocator_cursor_panics() {
        let m = NodeMem::new();
        m.alloc_pages(1);
        m.pin(m.next_phys_page());
    }

    #[test]
    #[should_panic(expected = "access to unallocated physical page")]
    fn cache_mode_of_a_freed_page_cannot_be_set() {
        let m = NodeMem::new();
        let p = m.alloc_pages(1);
        m.reset();
        assert_eq!(m.cache_mode_of(p), CacheMode::WriteBack);
        m.set_cache_mode(p, CacheMode::WriteThrough);
    }

    #[test]
    fn zero_write_into_an_unwritten_page_is_a_noop_that_still_snoops() {
        let m = NodeMem::new();
        let p = m.alloc_pages(1);
        let seen = Rc::new(RefCell::new(0usize));
        let s = seen.clone();
        m.set_snoop(move |_, _| *s.borrow_mut() += 1);
        m.set_cache_mode(p, CacheMode::WriteThrough);
        m.cpu_store(Paddr::from_parts(p, 8), &[0; 4]);
        assert_eq!(*seen.borrow(), 1);
        assert!(m.inner.frames.borrow()[p as usize].bytes.is_none());
        // Once written, zeros overwrite real bytes.
        m.write_raw(Paddr::from_parts(p, 8), &[7; 4]);
        m.write_raw(Paddr::from_parts(p, 9), &[0; 2]);
        assert_eq!(m.read_u32(Paddr::from_parts(p, 8)), 0x0700_0007);
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
