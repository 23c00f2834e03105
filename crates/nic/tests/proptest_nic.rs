//! Property tests for the network interface: arbitrary deliberate-update
//! transfer schedules and automatic-update store patterns deliver exactly
//! the written bytes, independent of combining and FIFO parameters; the
//! run-length OPT proxy region answers like a per-index map.
//!
//! Ported from proptest to `shrimp-testkit`. Mapping:
//! `ProptestConfig::with_cases(24)` → `cases = 24;`; 3-tuple strategies →
//! `zip3`; `prop::sample::select(vec![...])` → `select(vec![...])`;
//! `any::<u8>()`/`any::<bool>()` → `any_u8()`/`any_bool()`. Property
//! intent and case counts unchanged.

use shrimp_mem::{AddressSpace, CacheMode, MemBus, NodeMem, Paddr, PAGE_SIZE};
use shrimp_net::{Faultable, MeshConfig, Network, NodeId};
use shrimp_nic::tables::{PageTables, PROXY_INDEX_BASE};
use shrimp_nic::{DuRequest, IptEntry, Nic, NicConfig, OptEntry, Packet, ShrimpNetwork};
use shrimp_sim::Sim;
use shrimp_testkit::prop::*;
use shrimp_testkit::{prop_assert, prop_assert_eq, props};
use std::collections::BTreeMap;

struct Rig {
    sim: Sim,
    nics: Vec<Nic>,
    spaces: Vec<AddressSpace>,
}

fn rig(n: usize, cfg: NicConfig) -> Rig {
    let sim = Sim::new();
    let net: ShrimpNetwork = Network::new(sim.clone(), MeshConfig::shrimp_4x4(), n);
    let mut nics = Vec::new();
    let mut spaces = Vec::new();
    for i in 0..n {
        let mem = NodeMem::new();
        let nic = Nic::new(
            sim.clone(),
            NodeId(i),
            cfg.clone(),
            mem.clone(),
            MemBus::shrimp_default(),
            net.clone(),
        );
        nic.start();
        nics.push(nic);
        spaces.push(AddressSpace::new(mem));
    }
    Rig { sim, nics, spaces }
}

props! {
    cases = 24;

    /// A schedule of valid DU transfers lands exactly its bytes, whatever
    /// the interleaving and queue depth.
    fn du_schedule_delivers_exact_bytes(
        transfers in vec_of(
            zip3(usize_in(0..PAGE_SIZE), usize_in(1..PAGE_SIZE), any_u8()),
            1..12
        ),
        depth in usize_in(1..3),
    ) {
        let cfg = NicConfig {
            du_queue_depth: depth,
            ..NicConfig::default()
        };
        let r = rig(2, cfg);
        // Export 2 pages on node 1; import on node 0.
        let dst_v = r.spaces[1].alloc(2);
        let mut model = vec![0u8; 2 * PAGE_SIZE];
        for i in 0..2 {
            r.nics[1].ipt_set(
                r.spaces[1].translate(dst_v).page() + i,
                IptEntry { accept: true, interrupt_enable: false, buffer_id: 0 },
            );
        }
        let proxy = r.nics[0].alloc_proxy_range(2);
        for i in 0..2u64 {
            r.nics[0].opt_set(proxy + i, OptEntry {
                dst_node: NodeId(1),
                dst_page: r.spaces[1].translate(dst_v).page() + i,
                au_enable: false,
                combine: false,
                interrupt: false,
            });
        }
        let src_v = r.spaces[0].alloc(1);
        let src_pa = r.spaces[0].translate(src_v);

        // Issue transfers sequentially (in-order pairwise delivery makes
        // the last write win, same as the model).
        let nic = r.nics[0].clone();
        let space0 = r.spaces[0].clone();
        let reqs: Vec<(usize, usize, u8)> = transfers
            .iter()
            .map(|&(off, len, fill)| {
                let len = len.min(PAGE_SIZE - off).max(1);
                (off, len, fill)
            })
            .collect();
        for &(off, len, fill) in &reqs {
            model[off..off + len].fill(fill);
        }
        let reqs2 = reqs.clone();
        r.sim.spawn(async move {
            for (off, len, fill) in reqs2 {
                space0.write_raw(src_v, &vec![fill; len]);
                let done = nic
                    .deliberate_update(DuRequest {
                        src: src_pa,
                        proxy_index: proxy,
                        dst_offset: off,
                        len,
                        interrupt: false,
                        notify: false,
                        seq: 0,
                    })
                    .await
                    .expect("valid request");
                // Wait out each transfer so the shared staging page can be
                // refilled (the library-level discipline).
                done.wait().await;
            }
        });
        r.sim.run();
        for nic in &r.nics {
            nic.shutdown();
        }
        r.sim.run();

        let mut got = vec![0u8; 2 * PAGE_SIZE];
        r.spaces[1].mem().read(r.spaces[1].translate(dst_v), &mut got);
        prop_assert_eq!(&got[..PAGE_SIZE], &model[..PAGE_SIZE]);
    }

    /// AU store streams land exactly, independent of combining, sub-page
    /// size, and FIFO capacity.
    fn au_streams_land_exactly(
        stores in vec_of(zip(usize_in(0..PAGE_SIZE - 8), usize_in(1..8)), 1..30),
        combining in any_bool(),
        subpage in select(vec![64usize, 256, 4096]),
    ) {
        let cfg = NicConfig {
            combining,
            combine_subpage: subpage,
            ..NicConfig::default()
        };
        let r = rig(2, cfg);
        let dst_v = r.spaces[1].alloc(1);
        let dst_page = r.spaces[1].translate(dst_v).page();
        r.nics[1].ipt_set(dst_page, IptEntry {
            accept: true,
            interrupt_enable: false,
            buffer_id: 0,
        });
        let src_v = r.spaces[0].alloc(1);
        let src_page = r.spaces[0].translate(src_v).page();
        r.spaces[0].mem().set_cache_mode(src_page, CacheMode::WriteThrough);
        r.nics[0].opt_set(src_page, OptEntry {
            dst_node: NodeId(1),
            dst_page,
            au_enable: true,
            combine: true,
            interrupt: false,
        });

        let mut model = vec![0u8; PAGE_SIZE];
        for (i, &(off, len)) in stores.iter().enumerate() {
            let data = vec![(i % 251) as u8 + 1; len];
            model[off..off + len].copy_from_slice(&data);
            r.spaces[0].mem().cpu_store(Paddr::from_parts(src_page, off), &data);
        }
        r.nics[0].flush_au();
        r.sim.run();
        for nic in &r.nics {
            nic.shutdown();
        }
        r.sim.run();

        let mut got = vec![0u8; PAGE_SIZE];
        r.spaces[1].mem().read(Paddr::from_parts(dst_page, 0), &mut got);
        prop_assert_eq!(got, model);
        // Counter sanity: stores were all seen by the snoop path.
        prop_assert_eq!(r.nics[0].counters().au_stores.get(), stores.len() as u64);
    }
}

props! {
    cases = 128;

    /// The word-wise payload checksum verifies an untouched sealed packet
    /// and catches every in-flight corruption, whatever the payload length
    /// (ragged 8-byte tails and the empty payload included) and salt.
    fn checksum_detects_every_corruption(
        payload in vec_of(any_u8(), 0..PAGE_SIZE + 1),
        salts in vec_of(any_u64(), 1..16),
    ) {
        let sealed = Packet::data(NodeId(0), NodeId(1), payload, 0);
        prop_assert!(sealed.checksum_ok());
        for salt in salts {
            let mut damaged = sealed.clone();
            damaged.corrupt(salt);
            prop_assert!(!damaged.checksum_ok(), "salt {salt:#x} went undetected");
        }
    }
}

props! {
    cases = 96;

    /// Random imports (pages set in order and out of order), single-entry
    /// overwrites inside runs, clears that split runs, physical-page
    /// entries and power cycles leave the OPT, whose proxy region is held
    /// as runs, answering every lookup, the table image and the allocator
    /// exactly like a per-index map. Lookups run between every two
    /// mutations, inside an import too.
    fn opt_matches_per_index_model(
        ops in vec_of(zip3(u8_in(0..20), u64_in(0..48), u64_in(0..64)), 1..60),
    ) {
        let t = PageTables::new();
        let mut model: BTreeMap<u64, OptEntry> = BTreeMap::new();
        let mut next = PROXY_INDEX_BASE;
        let entry = |node: u64, page: u64| OptEntry {
            dst_node: NodeId((node % 3) as usize),
            dst_page: page,
            au_enable: node.is_multiple_of(5),
            combine: false,
            interrupt: node.is_multiple_of(7),
        };
        for &(op, a, b) in &ops {
            let index = PROXY_INDEX_BASE + a;
            match op {
                // An import: a fresh range, its pages set in order or
                // (op 3) back to front.
                0..=3 => {
                    let n = b % 17 + 1;
                    let base = t.alloc_proxy_range(n as usize);
                    prop_assert_eq!(base, next);
                    next += n;
                    let mut order: Vec<u64> = (0..n).collect();
                    if op == 3 {
                        order.reverse();
                    }
                    for i in order {
                        let e = entry(a, 1000 + a * 16 + i);
                        t.opt_set(base + i, e);
                        model.insert(base + i, e);
                        for j in base.saturating_sub(2)..base + n + 2 {
                            prop_assert_eq!(t.opt_get(j), model.get(&j).copied(), "index {:#x}", j);
                        }
                    }
                }
                // A single entry anywhere in the low slots. Neighbours
                // with the same node continue each other's pages, so only
                // the flags (bits of `b`) keep them apart.
                4..=6 => {
                    let e = OptEntry {
                        dst_node: NodeId((b % 2) as usize),
                        dst_page: 500 + a,
                        au_enable: b & 2 != 0,
                        combine: b & 4 != 0,
                        interrupt: b & 8 != 0,
                    };
                    t.opt_set(index, e);
                    model.insert(index, e);
                }
                // Rewrite an entry with itself, shifted by one page, or
                // with one flag flipped.
                7..=9 => {
                    if let Some(&e) = model.get(&index) {
                        let e = match b % 3 {
                            0 => e,
                            1 => OptEntry { dst_page: e.dst_page + 1, ..e },
                            _ => OptEntry { combine: !e.combine, ..e },
                        };
                        t.opt_set(index, e);
                        model.insert(index, e);
                    }
                }
                10..=14 => {
                    t.opt_clear(index);
                    model.remove(&index);
                }
                15..=16 => {
                    t.opt_set(a + 1, entry(b, b));
                    model.insert(a + 1, entry(b, b));
                }
                17..=18 => {
                    t.opt_clear(a + 1);
                    model.remove(&(a + 1));
                }
                _ => {
                    t.clear();
                    model.clear();
                    next = PROXY_INDEX_BASE;
                }
            }
            prop_assert_eq!(t.next_proxy(), next);
            let top = next.max(PROXY_INDEX_BASE + 48) + 2;
            for i in (0..50).chain(PROXY_INDEX_BASE..top) {
                prop_assert_eq!(t.opt_get(i), model.get(&i).copied(), "index {:#x}", i);
            }
            for (&i, &e) in &model {
                prop_assert_eq!(t.opt_get(i), Some(e), "index {:#x}", i);
            }
        }
    }
    /// A p256 launch node's OPT: 255 imports of 1–8 pages each, one per
    /// peer, so the proxy region spans many 64-slot directory blocks. Then
    /// clears that split a run or remove it whole, rewrites that split a
    /// run or rejoin one, further imports, and power cycles after which
    /// the node re-runs its imports, with random lookups between every two
    /// mutations and a sweep of every slot after a power cycle and at the
    /// end, all checked against a per-index model. A directory left stale
    /// by any of those mutations answers some lookup wrongly.
    fn opt_directory_matches_model_at_p256(
        sizes in vec_of(u64_in(1..9), 255..256),
        ops in vec_of(zip3(u8_in(0..16), any_u64(), vec_of(any_u64(), 4..5)), 1..80),
    ) {
        let t = PageTables::new();
        let mut model: BTreeMap<u64, OptEntry> = BTreeMap::new();
        // Each imported index's entry as imported, for rejoining rewrites.
        let mut imported: BTreeMap<u64, OptEntry> = BTreeMap::new();
        // Imported indices cleared or rewritten since: a restore rejoins.
        let mut changed: Vec<u64> = Vec::new();
        let import = |t: &PageTables,
                      model: &mut BTreeMap<u64, OptEntry>,
                      imported: &mut BTreeMap<u64, OptEntry>,
                      peer: usize,
                      pages: u64| {
            let base = t.alloc_proxy_range(pages as usize);
            for k in 0..pages {
                let e = OptEntry {
                    dst_node: NodeId(peer % 256),
                    dst_page: 100 + k,
                    au_enable: false,
                    combine: false,
                    interrupt: peer.is_multiple_of(3),
                };
                t.opt_set(base + k, e);
                model.insert(base + k, e);
                imported.insert(base + k, e);
            }
        };
        let import_all = |t: &PageTables,
                          model: &mut BTreeMap<u64, OptEntry>,
                          imported: &mut BTreeMap<u64, OptEntry>| {
            for (peer, &pages) in sizes.iter().enumerate() {
                import(t, model, imported, peer, pages);
            }
        };
        let sweep = |t: &PageTables, model: &BTreeMap<u64, OptEntry>| {
            (PROXY_INDEX_BASE..t.next_proxy() + 70)
                .find(|i| t.opt_get(*i) != model.get(i).copied())
        };
        import_all(&t, &mut model, &mut imported);
        prop_assert_eq!(sweep(&t, &model), None);
        for &(op, x, ref lookups) in &ops {
            let span = t.next_proxy() - PROXY_INDEX_BASE + 70;
            let index = PROXY_INDEX_BASE + x % span;
            match op {
                0..=5 => {
                    t.opt_clear(index);
                    model.remove(&index);
                    changed.push(index);
                }
                6..=8 if !changed.is_empty() => {
                    let back = changed.swap_remove((x % changed.len() as u64) as usize);
                    if let Some(&e) = imported.get(&back) {
                        t.opt_set(back, e);
                        model.insert(back, e);
                    }
                }
                9..=10 => {
                    if let Some(&e) = model.get(&index) {
                        let e = OptEntry { combine: !e.combine, ..e };
                        t.opt_set(index, e);
                        model.insert(index, e);
                        changed.push(index);
                    }
                }
                11 => import(&t, &mut model, &mut imported, (x % 255) as usize, x % 8 + 1),
                12 => {
                    t.clear();
                    model.clear();
                    imported.clear();
                    changed.clear();
                    import_all(&t, &mut model, &mut imported);
                    prop_assert_eq!(sweep(&t, &model), None, "after a power cycle");
                }
                _ => {}
            }
            let probes = [index.saturating_sub(1), index, index + 1];
            for i in probes.into_iter().chain(lookups.iter().map(|l| PROXY_INDEX_BASE + l % span)) {
                prop_assert_eq!(t.opt_get(i), model.get(&i).copied(), "index {:#x} after op {}", i, op);
            }
        }
        prop_assert_eq!(sweep(&t, &model), None);
        for (&i, &e) in &model {
            prop_assert_eq!(t.opt_get(i), Some(e), "index {:#x}", i);
        }
    }
}
