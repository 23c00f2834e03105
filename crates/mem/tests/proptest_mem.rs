//! Property tests for the memory system: reads and writes through the
//! address space behave exactly like a flat byte array, for arbitrary
//! access patterns; physical memory behaves exactly like eagerly zeroed
//! pages; page chunking partitions every range.
//!
//! Ported from proptest to `shrimp-testkit`. Mapping:
//! `ProptestConfig::with_cases(48)` → `cases = 48;`; tuple strategies →
//! `zip`; `prop::collection::vec(any::<u8>(), r)` → `vec_of(any_u8(),
//! r)`; `any::<bool>()` → `any_bool()`. Property intent and case counts
//! unchanged.

use std::cell::RefCell;
use std::rc::Rc;

use shrimp_mem::addr::page_chunks;
use shrimp_mem::{AddressSpace, CacheMode, NodeMem, Paddr, PAGE_SIZE};
use shrimp_testkit::prop::*;
use shrimp_testkit::{prop_assert, prop_assert_eq, props};

props! {
    cases = 48;

    /// An AddressSpace is observationally a flat byte array.
    fn space_matches_flat_model(
        ops in vec_of(
            zip(usize_in(0..3 * PAGE_SIZE), vec_of(any_u8(), 1..300)),
            1..20
        ),
    ) {
        let mem = NodeMem::new();
        let sp = AddressSpace::new(mem);
        let base = sp.alloc(4);
        let mut model = vec![0u8; 4 * PAGE_SIZE];
        for (off, data) in &ops {
            let off = *off.min(&(4 * PAGE_SIZE - data.len()));
            sp.store(base.add(off as u64), data);
            model[off..off + data.len()].copy_from_slice(data);
        }
        let mut got = vec![0u8; 4 * PAGE_SIZE];
        sp.read(base, &mut got);
        prop_assert_eq!(got, model);
    }

    /// page_chunks partitions `[addr, addr+len)` exactly: chunks are
    /// contiguous, within-page, and sum to len.
    fn page_chunks_partition(addr in u64_in(0..100_000), len in usize_in(0..50_000)) {
        let chunks: Vec<_> = page_chunks(addr, len).collect();
        let total: usize = chunks.iter().map(|c| c.2).sum();
        prop_assert_eq!(total, len);
        let mut cursor = addr;
        for (page, offset, clen) in &chunks {
            prop_assert_eq!(page * PAGE_SIZE as u64 + *offset as u64, cursor);
            prop_assert!(offset + clen <= PAGE_SIZE, "chunk crosses a page");
            prop_assert!(*clen > 0, "empty chunk");
            cursor += *clen as u64;
        }
    }

    /// Typed accessors agree with byte-level reads at any alignment.
    fn typed_accessors_consistent(off in usize_in(0..(PAGE_SIZE - 8)), v in any_u64()) {
        let mem = NodeMem::new();
        let sp = AddressSpace::new(mem);
        let base = sp.alloc(2);
        sp.store_u64(base.add(off as u64), v);
        let mut bytes = [0u8; 8];
        sp.read(base.add(off as u64), &mut bytes);
        prop_assert_eq!(u64::from_le_bytes(bytes), v);
        prop_assert_eq!(sp.read_u64(base.add(off as u64)), v);
        prop_assert_eq!(
            sp.read_u32(base.add(off as u64)) as u64,
            v & 0xFFFF_FFFF
        );
    }

    /// Pin counts balance for arbitrary pin/unpin interleavings.
    fn pin_unpin_balance(pattern in vec_of(any_bool(), 1..40)) {
        let mem = NodeMem::new();
        let p = mem.alloc_pages(1);
        let mut depth = 0u32;
        for pin in pattern {
            if pin {
                mem.pin(p);
                depth += 1;
            } else if depth > 0 {
                mem.unpin(p);
                depth -= 1;
            }
            prop_assert_eq!(mem.is_pinned(p), depth > 0);
        }
    }
}

/// One step of [`node_mem_matches_eager_model`]. Page and address fields
/// are raw draws, folded onto the pages allocated when the step runs.
#[derive(Debug, Clone)]
enum Op {
    Alloc(usize),
    WriteRaw(Span, Vec<u8>),
    CpuStore(Span, Vec<u8>),
    DmaWrite(Span, Vec<u8>),
    Read(Span, usize),
    SetCacheMode(u64, CacheMode),
    Pin(u64),
    Unpin(u64),
    Reset,
}

/// A raw access start: a page draw and an in-page offset.
type Span = (u64, usize);

/// Snoop hook calls: the address and the bytes presented on the bus.
type Snoops = Vec<(u64, Vec<u8>)>;

fn span() -> Gen<Span> {
    // Offsets near the page end make most accesses cross a page boundary.
    let offset = one_of(vec![
        usize_in(PAGE_SIZE - 64..PAGE_SIZE),
        usize_in(0..PAGE_SIZE),
    ]);
    zip(any_u64(), offset)
}

fn bytes() -> Gen<Vec<u8>> {
    // All-zero writes exercise the never-written page's no-op path.
    one_of(vec![vec_of(any_u8(), 1..600), vec_of(just(0u8), 1..600)])
}

fn op() -> Gen<Op> {
    let mode = select(vec![
        CacheMode::WriteBack,
        CacheMode::WriteThrough,
        CacheMode::Uncached,
    ]);
    let alloc = usize_in(1..4).map(Op::Alloc);
    let store = zip(span(), bytes()).map(|(s, d)| Op::CpuStore(s, d));
    let read = zip(span(), usize_in(1..600)).map(|(s, n)| Op::Read(s, n));
    let set_mode = zip(any_u64(), mode).map(|(p, m)| Op::SetCacheMode(p, m));
    // Listed twice: allocation, CPU stores, reads and mode changes, so most
    // sequences hold pages and snoop stores between the rarer resets.
    one_of(vec![
        alloc.clone(),
        alloc,
        zip(span(), bytes()).map(|(s, d)| Op::WriteRaw(s, d)),
        store.clone(),
        store,
        zip(span(), bytes()).map(|(s, d)| Op::DmaWrite(s, d)),
        read.clone(),
        read,
        set_mode.clone(),
        set_mode,
        any_u64().map(Op::Pin),
        any_u64().map(Op::Unpin),
        just(Op::Reset),
    ])
}

/// The eager reference: every allocated page's bytes, mode and pin count,
/// page `p` at index `p - 1`.
#[derive(Default)]
struct Model {
    pages: Vec<([u8; PAGE_SIZE], CacheMode, u32)>,
}

impl Model {
    /// The allocated page a raw draw folds onto, if any page is allocated.
    fn page(&self, draw: u64) -> Option<u64> {
        let n = self.pages.len() as u64;
        (n > 0).then(|| 1 + draw % n)
    }

    /// The physical address and clamped length of an access, if any page
    /// is allocated.
    fn access(&self, (draw, offset): Span, len: usize) -> Option<(u64, usize)> {
        let addr = self.page(draw)? * PAGE_SIZE as u64 + offset as u64;
        let end = (self.pages.len() as u64 + 1) * PAGE_SIZE as u64;
        Some((addr, len.min((end - addr) as usize)))
    }

    fn write(&mut self, addr: u64, data: &[u8]) {
        let mut done = 0;
        for (page, offset, len) in page_chunks(addr, data.len()) {
            let bytes = &mut self.pages[page as usize - 1].0;
            bytes[offset..offset + len].copy_from_slice(&data[done..done + len]);
            done += len;
        }
    }

    fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        for (page, offset, len) in page_chunks(addr, len) {
            out.extend_from_slice(&self.pages[page as usize - 1].0[offset..offset + len]);
        }
        out
    }

    /// The snoop calls a CPU store of `data` at `addr` makes.
    fn snoops(&self, addr: u64, data: &[u8]) -> Snoops {
        let mut out = Vec::new();
        let mut done = 0;
        for (page, offset, len) in page_chunks(addr, data.len()) {
            if self.pages[page as usize - 1].1 != CacheMode::WriteBack {
                let at = page * PAGE_SIZE as u64 + offset as u64;
                out.push((at, data[done..done + len].to_vec()));
            }
            done += len;
        }
        out
    }
}

props! {
    cases = 48;

    /// `NodeMem`, whose page bytes are allocated on first write, is
    /// observationally an eagerly zeroed page array: reads, every page's
    /// bytes, the allocator, modes, pins and snoop calls all agree after
    /// every step of a random operation sequence.
    fn node_mem_matches_eager_model(ops in vec_of(op(), 1..60)) {
        let mem = NodeMem::new();
        let snooped: Rc<RefCell<Snoops>> = Rc::default();
        let sink = snooped.clone();
        mem.set_snoop(move |a, d| sink.borrow_mut().push((a.0, d.to_vec())));
        let mut model = Model::default();
        let mut expect_snooped = Vec::new();
        for op in &ops {
            match op {
                Op::Alloc(n) => {
                    let first = mem.alloc_pages(*n);
                    prop_assert_eq!(first, model.pages.len() as u64 + 1);
                    let fresh = ([0; PAGE_SIZE], CacheMode::WriteBack, 0);
                    model.pages.resize(model.pages.len() + n, fresh);
                }
                Op::WriteRaw(s, d) | Op::CpuStore(s, d) | Op::DmaWrite(s, d) => {
                    let Some((addr, len)) = model.access(*s, d.len()) else { continue };
                    let data = &d[..len];
                    match op {
                        Op::WriteRaw(..) => mem.write_raw(Paddr(addr), data),
                        Op::CpuStore(..) => {
                            expect_snooped.extend(model.snoops(addr, data));
                            mem.cpu_store(Paddr(addr), data);
                        }
                        _ => mem.dma_write(Paddr(addr), data),
                    }
                    model.write(addr, data);
                }
                Op::Read(s, n) => {
                    let Some((addr, len)) = model.access(*s, *n) else { continue };
                    let mut got = vec![0xEE; len];
                    mem.read(Paddr(addr), &mut got);
                    prop_assert_eq!(got, model.read(addr, len), "read at {addr:#x}");
                }
                Op::SetCacheMode(draw, mode) => {
                    let Some(p) = model.page(*draw) else { continue };
                    mem.set_cache_mode(p, *mode);
                    model.pages[p as usize - 1].1 = *mode;
                }
                Op::Pin(draw) => {
                    let Some(p) = model.page(*draw) else { continue };
                    mem.pin(p);
                    model.pages[p as usize - 1].2 += 1;
                }
                Op::Unpin(draw) => {
                    let Some(p) = model.page(*draw) else { continue };
                    let pins = &mut model.pages[p as usize - 1].2;
                    if *pins > 0 {
                        mem.unpin(p);
                        *pins -= 1;
                    }
                }
                Op::Reset => {
                    mem.reset();
                    model.pages.clear();
                }
            }
            prop_assert_eq!(mem.allocated_pages(), model.pages.len());
            prop_assert_eq!(mem.next_phys_page(), model.pages.len() as u64 + 1);
            let mut page = [0xEE; PAGE_SIZE];
            for (i, (bytes, mode, pins)) in model.pages.iter().enumerate() {
                let p = i as u64 + 1;
                mem.read(Paddr::from_parts(p, 0), &mut page);
                prop_assert!(page == *bytes, "page {p} differs after {op:?}");
                prop_assert_eq!(mem.cache_mode_of(p), *mode, "mode of page {p}");
                prop_assert_eq!(mem.is_pinned(p), *pins > 0, "pin of page {p}");
            }
            prop_assert_eq!(&*snooped.borrow(), &expect_snooped);
        }
    }
}
