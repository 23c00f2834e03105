//! Per-process virtual address spaces.
//!
//! Applications address memory with [`Vaddr`]s; the network interface sees
//! only [`Paddr`]s. The VMMC library bridges the two by translating at
//! export/import/bind time — exactly the design challenge §1.1 describes.

use std::cell::RefCell;
use std::rc::Rc;

use shrimp_sim::FastMap;

use crate::addr::{page_chunks, Paddr, Vaddr};
use crate::node::NodeMem;

struct SpaceInner {
    mem: NodeMem,
    table: RefCell<FastMap<u64, u64>>, // virt page -> phys page
    next_virt_page: RefCell<u64>,
}

/// A process's virtual address space on one node. Cheap to clone.
#[derive(Clone)]
pub struct AddressSpace {
    inner: Rc<SpaceInner>,
}

impl std::fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AddressSpace")
            .field("mapped_pages", &self.inner.table.borrow().len())
            .finish()
    }
}

impl AddressSpace {
    /// Creates an empty address space over `mem`.
    pub fn new(mem: NodeMem) -> Self {
        AddressSpace {
            inner: Rc::new(SpaceInner {
                mem,
                table: RefCell::new(FastMap::default()),
                // Leave a guard gap at virtual 0.
                next_virt_page: RefCell::new(16),
            }),
        }
    }

    /// The node memory backing this space.
    pub fn mem(&self) -> &NodeMem {
        &self.inner.mem
    }

    /// Forgets every mapping and rewinds the virtual allocator, so a
    /// restarted process re-running the same allocation sequence reproduces
    /// the same virtual (and, after [`NodeMem::reset`], physical) pages.
    pub fn reset(&self) {
        self.inner.table.borrow_mut().clear();
        *self.inner.next_virt_page.borrow_mut() = 16;
    }

    /// Allocates and maps `npages` fresh pages of zeroed memory; returns the
    /// (page-aligned) base virtual address.
    pub fn alloc(&self, npages: usize) -> Vaddr {
        assert!(npages > 0, "alloc of zero pages");
        let vfirst = {
            let mut next = self.inner.next_virt_page.borrow_mut();
            let v = *next;
            *next += npages as u64;
            v
        };
        let pfirst = self.inner.mem.alloc_pages(npages);
        let mut table = self.inner.table.borrow_mut();
        for i in 0..npages as u64 {
            table.insert(vfirst + i, pfirst + i);
        }
        Vaddr::from_parts(vfirst, 0)
    }

    /// Translates a virtual address to its physical address.
    ///
    /// # Panics
    ///
    /// Panics on an unmapped virtual page (a "segfault" is a bug in the
    /// simulated software stack, not a modeled condition).
    pub fn translate(&self, v: Vaddr) -> Paddr {
        let table = self.inner.table.borrow();
        let phys = table
            .get(&v.page())
            .unwrap_or_else(|| panic!("unmapped virtual page {:#x}", v.page()));
        Paddr::from_parts(*phys, v.offset())
    }

    /// Physical page backing a virtual page.
    pub fn phys_page(&self, vpage: u64) -> u64 {
        *self
            .inner
            .table
            .borrow()
            .get(&vpage)
            .unwrap_or_else(|| panic!("unmapped virtual page {vpage:#x}"))
    }

    /// Reads across pages through the translation table.
    pub fn read(&self, v: Vaddr, buf: &mut [u8]) {
        let mut done = 0;
        for (vpage, offset, len) in page_chunks(v.0, buf.len()) {
            let pa = Paddr::from_parts(self.phys_page(vpage), offset);
            self.inner.mem.read(pa, &mut buf[done..done + len]);
            done += len;
        }
    }

    /// CPU-stores across pages through the translation table (snooped per
    /// page cache mode; see [`NodeMem::cpu_store`]).
    pub fn store(&self, v: Vaddr, data: &[u8]) {
        let mut done = 0;
        for (vpage, offset, len) in page_chunks(v.0, data.len()) {
            let pa = Paddr::from_parts(self.phys_page(vpage), offset);
            self.inner.mem.cpu_store(pa, &data[done..done + len]);
            done += len;
        }
    }

    /// Writes across pages without snoop/watchers (initialization backdoor).
    pub fn write_raw(&self, v: Vaddr, data: &[u8]) {
        let mut done = 0;
        for (vpage, offset, len) in page_chunks(v.0, data.len()) {
            let pa = Paddr::from_parts(self.phys_page(vpage), offset);
            self.inner.mem.write_raw(pa, &data[done..done + len]);
            done += len;
        }
    }

    /// Reads a `u32` via translation.
    pub fn read_u32(&self, v: Vaddr) -> u32 {
        let mut b = [0u8; 4];
        self.read(v, &mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a `u64` via translation.
    pub fn read_u64(&self, v: Vaddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(v, &mut b);
        u64::from_le_bytes(b)
    }

    /// CPU-stores a `u32` via translation.
    pub fn store_u32(&self, v: Vaddr, val: u32) {
        self.store(v, &val.to_le_bytes());
    }

    /// CPU-stores a `u64` via translation.
    pub fn store_u64(&self, v: Vaddr, val: u64) {
        self.store(v, &val.to_le_bytes());
    }

    /// Pins the physical pages under `[v, v+len)` (export-time pinning).
    pub fn pin_range(&self, v: Vaddr, len: usize) {
        for (vpage, _, _) in page_chunks(v.0, len) {
            self.inner.mem.pin(self.phys_page(vpage));
        }
    }

    /// Unpins the physical pages under `[v, v+len)`.
    pub fn unpin_range(&self, v: Vaddr, len: usize) {
        for (vpage, _, _) in page_chunks(v.0, len) {
            self.inner.mem.unpin(self.phys_page(vpage));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;

    #[test]
    fn alloc_translate_roundtrip() {
        let mem = NodeMem::new();
        let sp = AddressSpace::new(mem);
        let v = sp.alloc(3);
        assert!(v.is_page_aligned());
        let p0 = sp.translate(v);
        let p1 = sp.translate(v.add(PAGE_SIZE as u64));
        assert_eq!(p1.page(), p0.page() + 1);
        assert_eq!(sp.translate(v.add(5)).offset(), 5);
    }

    #[test]
    fn cross_page_read_write_through_translation() {
        let mem = NodeMem::new();
        let sp = AddressSpace::new(mem);
        let v = sp.alloc(2);
        let addr = v.add(PAGE_SIZE as u64 - 3);
        sp.store(addr, b"abcdef");
        let mut buf = [0u8; 6];
        sp.read(addr, &mut buf);
        assert_eq!(&buf, b"abcdef");
    }

    #[test]
    fn distinct_allocations_do_not_alias() {
        let mem = NodeMem::new();
        let sp = AddressSpace::new(mem);
        let a = sp.alloc(1);
        let b = sp.alloc(1);
        sp.store_u32(a, 1);
        sp.store_u32(b, 2);
        assert_eq!(sp.read_u32(a), 1);
        assert_eq!(sp.read_u32(b), 2);
    }

    #[test]
    fn two_spaces_over_one_mem_are_disjoint() {
        let mem = NodeMem::new();
        let sp1 = AddressSpace::new(mem.clone());
        let sp2 = AddressSpace::new(mem);
        let a = sp1.alloc(1);
        let b = sp2.alloc(1);
        // Same virtual page number, different physical pages.
        assert_eq!(a, b);
        assert_ne!(sp1.translate(a).page(), sp2.translate(b).page());
    }

    #[test]
    fn pin_range_pins_every_touched_page() {
        let mem = NodeMem::new();
        let sp = AddressSpace::new(mem.clone());
        let v = sp.alloc(3);
        sp.pin_range(v.add(100), PAGE_SIZE * 2); // touches pages 0,1,2
        for i in 0..3 {
            assert!(mem.is_pinned(sp.phys_page(v.page() + i)));
        }
        sp.unpin_range(v.add(100), PAGE_SIZE * 2);
        for i in 0..3 {
            assert!(!mem.is_pinned(sp.phys_page(v.page() + i)));
        }
    }

    #[test]
    fn reset_reproduces_the_allocation_sequence() {
        let mem = NodeMem::new();
        let sp = AddressSpace::new(mem.clone());
        let a = sp.alloc(2);
        let b = sp.alloc(1);
        let phys = (sp.translate(a).page(), sp.translate(b).page());
        sp.reset();
        mem.reset();
        let a2 = sp.alloc(2);
        let b2 = sp.alloc(1);
        assert_eq!((a, b), (a2, b2));
        assert_eq!(phys, (sp.translate(a2).page(), sp.translate(b2).page()));
    }

    #[test]
    #[should_panic(expected = "unmapped virtual page")]
    fn unmapped_translate_panics() {
        let sp = AddressSpace::new(NodeMem::new());
        sp.translate(Vaddr(0));
    }
}
