//! Property tests for the network interface: arbitrary deliberate-update
//! transfer schedules and automatic-update store patterns deliver exactly
//! the written bytes, independent of combining and FIFO parameters.
//!
//! Ported from proptest to `shrimp-testkit`. Mapping:
//! `ProptestConfig::with_cases(24)` → `cases = 24;`; 3-tuple strategies →
//! `zip3`; `prop::sample::select(vec![...])` → `select(vec![...])`;
//! `any::<u8>()`/`any::<bool>()` → `any_u8()`/`any_bool()`. Property
//! intent and case counts unchanged.

use shrimp_mem::{AddressSpace, CacheMode, MemBus, NodeMem, Paddr, PAGE_SIZE};
use shrimp_net::{Faultable, MeshConfig, Network, NodeId};
use shrimp_nic::{DuRequest, IptEntry, Nic, NicConfig, OptEntry, Packet, ShrimpNetwork};
use shrimp_sim::Sim;
use shrimp_testkit::prop::*;
use shrimp_testkit::{prop_assert, prop_assert_eq, props};

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
