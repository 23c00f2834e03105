//! Parallel radix sort — the paper's Radix-VMMC (native VMMC API, AU and DU
//! versions) and Radix-SVM (SPLASH-2 kernel on shared virtual memory).
//!
//! The sort is a real LSD radix sort: each pass histograms the keys by the
//! current digit, computes global rank offsets, and permutes keys to their
//! destinations. The permutation's "highly scattered and irregular" write
//! pattern (§3) is what makes Radix the showcase for automatic update:
//!
//! * **Radix-VMMC (AU)** writes keys *directly into remote destination
//!   arrays through automatic-update mappings* — no gather, no scatter, no
//!   explicit messages for the data (§3, §4.2).
//! * **Radix-VMMC (DU)** gathers each destination's keys into one large
//!   message per pair and scatters at the receiver.
//! * **Radix-SVM** writes through shared memory; at page granularity the
//!   scattered writes induce heavy write-write false sharing, which is why
//!   AURC beats HLRC by the paper's largest margin (Figure 4).

use shrimp_core::{Cluster, ProxyBuffer, Vmmc};
use shrimp_mem::{Vaddr, PAGE_SIZE};
use shrimp_sim::rng::rng_for;
use shrimp_svm::{Protocol, RegionId, Svm, SvmConfig, SvmNode};

use crate::util::{digest, vmmc_barrier_group, Mechanism, RunOutcome, VmmcBarrier};

/// Problem parameters for the radix sorts.
#[derive(Debug, Clone)]
pub struct RadixParams {
    /// Total keys across all nodes (must divide evenly by the node count).
    pub total_keys: usize,
    /// Number of sort passes ("iters" in Table 1); keys carry
    /// `iters * radix_bits` significant bits.
    pub iters: usize,
    /// log2 of the radix (SPLASH-2 default: 1024 buckets).
    pub radix_bits: u32,
    /// Workload seed.
    pub seed: u64,
}

impl RadixParams {
    /// The paper's problem size: 2 M keys, 3 iterations, radix 1024.
    pub fn paper() -> Self {
        RadixParams {
            total_keys: 2 * 1024 * 1024,
            iters: 3,
            radix_bits: 10,
            seed: 1,
        }
    }

    /// A small instance for tests.
    pub fn small() -> Self {
        RadixParams {
            total_keys: 4096,
            iters: 2,
            radix_bits: 6,
            seed: 7,
        }
    }

    fn radix(&self) -> usize {
        1 << self.radix_bits
    }

    fn key_mask(&self) -> u32 {
        let bits = (self.radix_bits as usize * self.iters).min(31) as u32;
        (1u32 << bits) - 1
    }
}

// Cost model (60 MHz Pentium): cycles per key for each phase, calibrated so
// the sequential run of the paper size lands near Table 1's 10.9 s (VMMC)
// and 14.3 s (SVM, which adds shared-memory access checks).
const HIST_CYCLES_PER_KEY: u64 = 35;
const PERM_CYCLES_PER_KEY: u64 = 70;
const GATHER_CYCLES_PER_KEY: u64 = 45;
const SCATTER_CYCLES_PER_KEY: u64 = 75;
const SVM_EXTRA_CYCLES_PER_KEY: u64 = 35;
const OFFSET_CYCLES_PER_ENTRY: u64 = 4;
/// Charge compute in batches of this many keys to bound event counts.
const CHARGE_BATCH: usize = 512;

fn generate_keys(params: &RadixParams, node: usize, k: usize) -> Vec<u32> {
    let mut rng = rng_for("radix", params.seed.wrapping_add(node as u64));
    let mask = params.key_mask();
    (0..k).map(|_| rng.gen_u32() & mask).collect()
}

fn checksum_sorted(all: &[u32]) -> u64 {
    let mut bytes = Vec::with_capacity(all.len() * 4);
    for k in all {
        bytes.extend_from_slice(&k.to_le_bytes());
    }
    digest(&bytes)
}

fn page_round(bytes: usize) -> usize {
    bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE
}

// ---------------------------------------------------------------------------
// VMMC version
// ---------------------------------------------------------------------------

struct VmmcNodeCtx {
    vm: Vmmc,
    barrier: VmmcBarrier,
    me: usize,
    n: usize,
    params: RadixParams,
    mech: Mechanism,
    k: usize,
    // Local regions.
    dst_base: Vaddr,
    counter_base: Vaddr,
    hist_inbox: Option<Vaddr>, // node 0 only
    du_inbox: Option<Vaddr>,
    du_slot_bytes: usize,
    du_cap_pairs: usize,
    staging: Vaddr,
    // Remote handles.
    hist_proxy: Option<ProxyBuffer>,
    offsets_base: Vaddr,
    offsets_proxies: Vec<Option<ProxyBuffer>>, // node 0 only
    au_images: Vec<Option<Vaddr>>,
    au_counter_images: Vec<Option<Vaddr>>,
    du_inbox_proxies: Vec<Option<ProxyBuffer>>,
}

/// Runs Radix-VMMC on the cluster with the chosen bulk mechanism and
/// verifies the result is globally sorted. Returns the run summary.
///
/// # Panics
///
/// Panics if the keys do not divide evenly among nodes, or if the sort is
/// incorrect (a bug in the communication stack).
pub fn run_radix_vmmc(cluster: &Cluster, params: &RadixParams, mech: Mechanism) -> RunOutcome {
    let n = cluster.num_nodes();
    assert_eq!(params.total_keys % n, 0, "keys must divide by node count");
    let k = params.total_keys / n;
    let radix = params.radix();
    let vmmcs: Vec<Vmmc> = (0..n).map(|i| cluster.vmmc(i)).collect();
    let barriers = vmmc_barrier_group(cluster);

    // Exports.
    let seg_bytes = page_round(k * 4);
    let hist_slot = page_round(radix * 4 + 8);
    let offs_bytes = page_round(n * radix * 4 + 8);
    let du_cap_pairs = 2 * k / n + 128;
    let du_slot_bytes = page_round(16 + du_cap_pairs * 8 + 8);

    let mut dst_bases = Vec::new();
    let mut dst_exports = Vec::new();
    let mut counter_bases = Vec::new();
    let mut counter_exports = Vec::new();
    let mut offsets_bases = Vec::new();
    let mut offsets_exports = Vec::new();
    let mut du_inboxes = Vec::new();
    let mut du_inbox_exports = Vec::new();
    for vm in &vmmcs {
        let dst = vm.space().alloc(seg_bytes / PAGE_SIZE);
        dst_exports.push(vm.export(dst, seg_bytes));
        dst_bases.push(dst);
        let c = vm.space().alloc(1);
        counter_exports.push(vm.export(c, PAGE_SIZE));
        counter_bases.push(c);
        let o = vm.space().alloc(offs_bytes / PAGE_SIZE);
        offsets_exports.push(vm.export(o, offs_bytes));
        offsets_bases.push(o);
        if mech == Mechanism::DeliberateUpdate {
            let inbox = vm.space().alloc(n * du_slot_bytes / PAGE_SIZE);
            du_inbox_exports.push(Some(vm.export(inbox, n * du_slot_bytes)));
            du_inboxes.push(Some(inbox));
        } else {
            du_inbox_exports.push(None);
            du_inboxes.push(None);
        }
    }
    let hist_inbox = vmmcs[0].space().alloc(n * hist_slot / PAGE_SIZE);
    let hist_export = vmmcs[0].export(hist_inbox, n * hist_slot);

    let mut handles = Vec::new();
    for (me, barrier) in barriers.into_iter().enumerate() {
        let vm = vmmcs[me].clone();
        let mut au_images = vec![None; n];
        let mut au_counter_images = vec![None; n];
        let mut du_inbox_proxies = vec![None; n];
        for dest in 0..n {
            if dest == me {
                continue;
            }
            match mech {
                Mechanism::AutomaticUpdate => {
                    let proxy = vm.import(dst_exports[dest]);
                    let img = vm.space().alloc(seg_bytes / PAGE_SIZE);
                    vm.bind(img, &proxy, 0, seg_bytes, true, false);
                    au_images[dest] = Some(img);
                    let cproxy = vm.import(counter_exports[dest]);
                    let cimg = vm.space().alloc(1);
                    vm.bind(cimg, &cproxy, 0, PAGE_SIZE, false, false);
                    au_counter_images[dest] = Some(cimg);
                }
                Mechanism::DeliberateUpdate => {
                    du_inbox_proxies[dest] = Some(vm.import(du_inbox_exports[dest].unwrap()));
                }
            }
        }
        let ctx = VmmcNodeCtx {
            barrier,
            me,
            n,
            params: params.clone(),
            mech,
            k,
            dst_base: dst_bases[me],
            counter_base: counter_bases[me],
            hist_inbox: if me == 0 { Some(hist_inbox) } else { None },
            du_inbox: du_inboxes[me],
            du_slot_bytes,
            du_cap_pairs,
            staging: vm
                .space()
                .alloc(page_round((n * radix * 4 + 8).max(du_slot_bytes)) / PAGE_SIZE),
            hist_proxy: if me == 0 {
                None
            } else {
                Some(vm.import(hist_export))
            },
            offsets_base: offsets_bases[me],
            offsets_proxies: if me == 0 {
                (0..n)
                    .map(|i| {
                        if i == 0 {
                            None
                        } else {
                            Some(vm.import(offsets_exports[i]))
                        }
                    })
                    .collect()
            } else {
                Vec::new()
            },
            au_images,
            au_counter_images,
            du_inbox_proxies,
            vm,
        };
        handles.push(cluster.sim().spawn(radix_vmmc_node(ctx)));
    }
    let (elapsed, _) = cluster.run_until_complete(handles);

    // Verification: assemble the final array and check it.
    let mut all = Vec::with_capacity(params.total_keys);
    for (me, vm) in vmmcs.iter().enumerate() {
        let mut seg = vec![0u8; k * 4];
        vm.space().read(dst_bases[me], &mut seg);
        for c in seg.chunks_exact(4) {
            all.push(u32::from_le_bytes(c.try_into().unwrap()));
        }
    }
    assert!(
        all.windows(2).all(|w| w[0] <= w[1]),
        "radix output not sorted"
    );
    let mut expected: Vec<u32> = (0..n).flat_map(|i| generate_keys(params, i, k)).collect();
    expected.sort_unstable();
    assert_eq!(all, expected, "radix output is not a permutation of input");
    RunOutcome::collect(cluster, elapsed, checksum_sorted(&all))
}

async fn radix_vmmc_node(ctx: VmmcNodeCtx) {
    let radix = ctx.params.radix();
    let bits = ctx.params.radix_bits;
    let k = ctx.k;
    let n = ctx.n;
    let vm = &ctx.vm;
    let mut src = generate_keys(&ctx.params, ctx.me, k);

    for pass in 0..ctx.params.iters {
        let epoch = pass as u32 + 1;
        let shift = bits * pass as u32;
        let mask = (radix - 1) as u32;
        ctx.barrier.wait().await;

        // Phase 1: local histogram (real counts + charged cycles).
        let mut hist = vec![0u32; radix];
        for key in &src {
            hist[((key >> shift) & mask) as usize] += 1;
        }
        vm.compute_cycles(k as u64 * HIST_CYCLES_PER_KEY).await;

        // Phase 2: histograms to node 0; offsets table back.
        let mut hist_bytes = Vec::with_capacity(radix * 4 + 8);
        for h in &hist {
            hist_bytes.extend_from_slice(&h.to_le_bytes());
        }
        hist_bytes.extend_from_slice(&(epoch as u64).to_le_bytes());
        if ctx.me == 0 {
            vm.space().write_raw(ctx.hist_inbox.unwrap(), &hist_bytes);
        } else {
            vm.space().write_raw(ctx.staging, &hist_bytes);
            let slot = ctx.me * page_round(radix * 4 + 8);
            vm.send(
                ctx.staging,
                ctx.hist_proxy.as_ref().unwrap(),
                slot,
                hist_bytes.len(),
            )
            .await;
        }
        if ctx.me == 0 {
            // Gather all histograms, compute per-node digit offsets.
            let inbox = ctx.hist_inbox.unwrap();
            let slot_bytes = page_round(radix * 4 + 8);
            let mut hists = vec![vec![0u32; radix]; n];
            for node in 0..n {
                let slot = inbox.add((node * slot_bytes) as u64);
                vm.poll_u64(slot.add(radix as u64 * 4), |v| v >= epoch as u64)
                    .await;
                let mut b = vec![0u8; radix * 4];
                vm.read(slot, &mut b);
                for (d, c) in b.chunks_exact(4).enumerate() {
                    hists[node][d] = u32::from_le_bytes(c.try_into().unwrap());
                }
            }
            // offs[node][digit] = digit base + sum of earlier nodes' counts.
            let mut offs = vec![0u32; n * radix];
            let mut base = 0u32;
            for d in 0..radix {
                let mut cum = base;
                for (node, h) in hists.iter().enumerate() {
                    offs[node * radix + d] = cum;
                    cum += h[d];
                }
                base = cum;
            }
            vm.compute_cycles((n * radix) as u64 * OFFSET_CYCLES_PER_ENTRY)
                .await;
            let mut table = Vec::with_capacity(n * radix * 4 + 8);
            for o in &offs {
                table.extend_from_slice(&o.to_le_bytes());
            }
            table.extend_from_slice(&(epoch as u64).to_le_bytes());
            vm.space().write_raw(ctx.offsets_base, &table);
            for dest in 1..n {
                vm.space().write_raw(ctx.staging, &table);
                vm.send(
                    ctx.staging,
                    ctx.offsets_proxies[dest].as_ref().unwrap(),
                    0,
                    table.len(),
                )
                .await;
            }
        }
        // Everyone: wait for the offsets table.
        vm.poll_u64(ctx.offsets_base.add((n * radix) as u64 * 4), |v| {
            v >= epoch as u64
        })
        .await;
        let mut offs = vec![0u32; radix];
        {
            let mut b = vec![0u8; radix * 4];
            vm.read(ctx.offsets_base.add((ctx.me * radix) as u64 * 4), &mut b);
            for (d, c) in b.chunks_exact(4).enumerate() {
                offs[d] = u32::from_le_bytes(c.try_into().unwrap());
            }
        }

        // Phase 3: permutation.
        match ctx.mech {
            Mechanism::AutomaticUpdate => {
                let mut since_charge = 0usize;
                for key in &src {
                    let d = ((key >> shift) & mask) as usize;
                    let g = offs[d] as usize;
                    offs[d] += 1;
                    let dest = g / k;
                    let off = ((g % k) * 4) as u64;
                    if dest == ctx.me {
                        vm.space()
                            .write_raw(ctx.dst_base.add(off), &key.to_le_bytes());
                    } else {
                        // The automatic-update write: local store propagates
                        // to the remote destination array as a side effect.
                        vm.store_u32(ctx.au_images[dest].as_ref().unwrap().add(off), *key)
                            .await;
                    }
                    since_charge += 1;
                    if since_charge == CHARGE_BATCH {
                        vm.compute_cycles(CHARGE_BATCH as u64 * PERM_CYCLES_PER_KEY)
                            .await;
                        since_charge = 0;
                    }
                }
                vm.compute_cycles(since_charge as u64 * PERM_CYCLES_PER_KEY)
                    .await;
                vm.flush_au();
                // AU completion: the counter word travels the ordered AU
                // stream behind the data.
                for dest in 0..n {
                    if dest == ctx.me {
                        continue;
                    }
                    let cimg = ctx.au_counter_images[dest].as_ref().unwrap();
                    vm.store_u32(cimg.add(ctx.me as u64 * 4), epoch).await;
                    vm.flush_au();
                }
                for sender in 0..n {
                    if sender == ctx.me {
                        continue;
                    }
                    vm.poll_u32(ctx.counter_base.add(sender as u64 * 4), |v| v >= epoch)
                        .await;
                }
            }
            Mechanism::DeliberateUpdate => {
                // Gather pairs per destination.
                let mut gather: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
                for key in &src {
                    let d = ((key >> shift) & mask) as usize;
                    let g = offs[d] as usize;
                    offs[d] += 1;
                    gather[g / k].push(((g % k) as u32, *key));
                }
                // Gather copies are only needed for keys leaving the node;
                // own keys are written in place.
                let remote_keys = (k - gather[ctx.me].len()) as u64;
                vm.compute_cycles(
                    k as u64 * PERM_CYCLES_PER_KEY + remote_keys * GATHER_CYCLES_PER_KEY,
                )
                .await;
                for (off, key) in &gather[ctx.me] {
                    vm.space()
                        .write_raw(ctx.dst_base.add(*off as u64 * 4), &key.to_le_bytes());
                }
                // One large message (pairs) + completion flag per peer.
                for dest in 0..n {
                    if dest == ctx.me {
                        continue;
                    }
                    let pairs = &gather[dest];
                    assert!(
                        pairs.len() <= ctx.du_cap_pairs,
                        "radix skew overflowed the DU inbox slot"
                    );
                    let mut msg = Vec::with_capacity(16 + pairs.len() * 8);
                    msg.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
                    msg.extend_from_slice(&[0u8; 4]);
                    for (off, key) in pairs {
                        msg.extend_from_slice(&off.to_le_bytes());
                        msg.extend_from_slice(&key.to_le_bytes());
                    }
                    vm.space().write_raw(ctx.staging, &msg);
                    let proxy = ctx.du_inbox_proxies[dest].as_ref().unwrap();
                    let slot = ctx.me * ctx.du_slot_bytes;
                    vm.send(ctx.staging, proxy, slot, msg.len()).await;
                    // Completion flag at the slot end (arrives after the
                    // data: deliberate-update packets stay ordered).
                    vm.space()
                        .write_raw(ctx.staging, &(epoch as u64).to_le_bytes());
                    vm.send(ctx.staging, proxy, slot + ctx.du_slot_bytes - 8, 8)
                        .await;
                }
                // Receive + scatter.
                let inbox = ctx.du_inbox.unwrap();
                for sender in 0..n {
                    if sender == ctx.me {
                        continue;
                    }
                    let slot = inbox.add((sender * ctx.du_slot_bytes) as u64);
                    vm.poll_u64(slot.add(ctx.du_slot_bytes as u64 - 8), |v| {
                        v >= epoch as u64
                    })
                    .await;
                    let count = vm.read_u32(slot) as usize;
                    let mut pairs = vec![0u8; count * 8];
                    vm.read(slot.add(8), &mut pairs);
                    vm.local_copy(count * 8).await;
                    for p in pairs.chunks_exact(8) {
                        let off = u32::from_le_bytes(p[0..4].try_into().unwrap());
                        let key = u32::from_le_bytes(p[4..8].try_into().unwrap());
                        vm.space()
                            .write_raw(ctx.dst_base.add(off as u64 * 4), &key.to_le_bytes());
                    }
                    vm.compute_cycles(count as u64 * SCATTER_CYCLES_PER_KEY)
                        .await;
                }
            }
        }
        ctx.barrier.wait().await;

        // Next pass sorts the destination segment this node now owns.
        if pass + 1 < ctx.params.iters {
            let mut seg = vec![0u8; k * 4];
            vm.read(ctx.dst_base, &mut seg);
            vm.local_copy(k * 4).await;
            for (i, c) in seg.chunks_exact(4).enumerate() {
                src[i] = u32::from_le_bytes(c.try_into().unwrap());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SVM version
// ---------------------------------------------------------------------------

/// Runs Radix-SVM under the given protocol; verifies the sort and returns
/// the run summary. The returned checksum equals [`run_radix_vmmc`]'s for
/// the same parameters (same keys, same sort).
pub fn run_radix_svm(cluster: &Cluster, protocol: Protocol, params: &RadixParams) -> RunOutcome {
    let n = cluster.num_nodes();
    assert_eq!(params.total_keys % n, 0, "keys must divide by node count");
    let k = params.total_keys / n;
    let radix = params.radix();
    let svm = Svm::create(cluster, SvmConfig::new(protocol));

    let seg_pages = page_round(k * 4) / PAGE_SIZE;
    let home_of_seg = move |p: usize| (p / seg_pages).min(n - 1);
    let array_a = svm.create_region(page_round(k * 4) * n, home_of_seg);
    let array_b = svm.create_region(page_round(k * 4) * n, home_of_seg);
    // One histogram page per node, homed there.
    assert!(radix * 4 <= PAGE_SIZE, "histogram must fit one page");
    let hist_region = svm.create_region(n * PAGE_SIZE, |p| p);

    // Initialize the source keys at their homes.
    for node in 0..n {
        let keys = generate_keys(params, node, k);
        let mut bytes = Vec::with_capacity(k * 4);
        for key in &keys {
            bytes.extend_from_slice(&key.to_le_bytes());
        }
        svm.init_write(array_a, node * page_round(k * 4), &bytes);
    }

    let mut handles = Vec::new();
    for me in 0..n {
        let node = svm.node(me);
        let params = params.clone();
        handles.push(cluster.sim().spawn(radix_svm_node(
            node,
            me,
            n,
            k,
            params,
            array_a,
            array_b,
            hist_region,
        )));
    }
    let (elapsed, _) = cluster.run_until_complete(handles);

    // Verify from the home copies.
    let final_region = if params.iters % 2 == 1 {
        array_b
    } else {
        array_a
    };
    let mut all = Vec::with_capacity(params.total_keys);
    for node in 0..n {
        let mut seg = vec![0u8; k * 4];
        svm.home_read(final_region, node * page_round(k * 4), &mut seg);
        for c in seg.chunks_exact(4) {
            all.push(u32::from_le_bytes(c.try_into().unwrap()));
        }
    }
    assert!(
        all.windows(2).all(|w| w[0] <= w[1]),
        "radix output not sorted"
    );
    let mut expected: Vec<u32> = (0..n).flat_map(|i| generate_keys(params, i, k)).collect();
    expected.sort_unstable();
    assert_eq!(all, expected, "radix output is not a permutation of input");
    RunOutcome::collect(cluster, elapsed, checksum_sorted(&all))
}

#[allow(clippy::too_many_arguments)]
async fn radix_svm_node(
    node: SvmNode,
    me: usize,
    n: usize,
    k: usize,
    params: RadixParams,
    array_a: RegionId,
    array_b: RegionId,
    hist_region: RegionId,
) {
    let radix = params.radix();
    let bits = params.radix_bits;
    let mask = (radix - 1) as u32;
    let seg_bytes = page_round(k * 4);
    let vm = node.vmmc().clone();

    for pass in 0..params.iters {
        let (src_r, dst_r) = if pass % 2 == 0 {
            (array_a, array_b)
        } else {
            (array_b, array_a)
        };
        let shift = bits * pass as u32;
        node.barrier().await;

        // Read own source segment (home-local after the first pass).
        let mut seg = vec![0u8; k * 4];
        node.read_bytes(src_r, me * seg_bytes, &mut seg).await;
        let src: Vec<u32> = seg
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();

        // Histogram, written to this node's page of the shared hist region.
        let mut hist = vec![0u32; radix];
        for key in &src {
            hist[((key >> shift) & mask) as usize] += 1;
        }
        vm.compute_cycles(k as u64 * (HIST_CYCLES_PER_KEY + SVM_EXTRA_CYCLES_PER_KEY / 2))
            .await;
        let mut hist_bytes = Vec::with_capacity(radix * 4);
        for h in &hist {
            hist_bytes.extend_from_slice(&h.to_le_bytes());
        }
        node.write_bytes(hist_region, me * PAGE_SIZE, &hist_bytes)
            .await;
        node.barrier().await;

        // Read everyone's histogram, compute own rank offsets.
        let mut offs = vec![0u32; radix];
        {
            let mut hists = vec![vec![0u32; radix]; n];
            for peer in 0..n {
                let mut b = vec![0u8; radix * 4];
                node.read_bytes(hist_region, peer * PAGE_SIZE, &mut b).await;
                for (d, c) in b.chunks_exact(4).enumerate() {
                    hists[peer][d] = u32::from_le_bytes(c.try_into().unwrap());
                }
            }
            let mut base = 0u32;
            for d in 0..radix {
                let mut cum = base;
                for (peer, h) in hists.iter().enumerate() {
                    if peer == me {
                        offs[d] = cum;
                    }
                    cum += h[d];
                }
                base = cum;
            }
            vm.compute_cycles((n * radix) as u64 * OFFSET_CYCLES_PER_ENTRY)
                .await;
        }
        node.barrier().await;

        // Permutation: scattered writes through shared memory — the
        // page-granularity false-sharing storm of §3.
        let mut since_charge = 0usize;
        for key in &src {
            let d = ((key >> shift) & mask) as usize;
            let g = offs[d] as usize;
            offs[d] += 1;
            let dest_node = g / k;
            let off = dest_node * seg_bytes + (g % k) * 4;
            node.write_u32(dst_r, off, *key).await;
            since_charge += 1;
            if since_charge == CHARGE_BATCH {
                vm.compute_cycles(
                    CHARGE_BATCH as u64 * (PERM_CYCLES_PER_KEY + SVM_EXTRA_CYCLES_PER_KEY),
                )
                .await;
                since_charge = 0;
            }
        }
        vm.compute_cycles(since_charge as u64 * (PERM_CYCLES_PER_KEY + SVM_EXTRA_CYCLES_PER_KEY))
            .await;
        node.barrier().await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_core::DesignConfig;

    #[test]
    fn vmmc_au_sorts_on_four_nodes() {
        let cluster = Cluster::builder(4).config(DesignConfig::default()).build();
        let out = run_radix_vmmc(&cluster, &RadixParams::small(), Mechanism::AutomaticUpdate);
        assert!(out.elapsed > 0);
        assert_eq!(out.notifications, 0, "VMMC radix polls, never notifies");
    }

    #[test]
    fn vmmc_du_sorts_and_matches_au_checksum() {
        let params = RadixParams::small();
        let au = {
            let cluster = Cluster::builder(4).config(DesignConfig::default()).build();
            run_radix_vmmc(&cluster, &params, Mechanism::AutomaticUpdate)
        };
        let du = {
            let cluster = Cluster::builder(4).config(DesignConfig::default()).build();
            run_radix_vmmc(&cluster, &params, Mechanism::DeliberateUpdate)
        };
        assert_eq!(au.checksum, du.checksum, "AU and DU sorted different data");
    }

    #[test]
    fn svm_sorts_under_all_protocols_and_matches_vmmc() {
        let params = RadixParams::small();
        let reference = {
            let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
            run_radix_vmmc(&cluster, &params, Mechanism::DeliberateUpdate)
        };
        for protocol in [Protocol::Hlrc, Protocol::HlrcAu, Protocol::Aurc] {
            let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
            let out = run_radix_svm(&cluster, protocol, &params);
            assert_eq!(
                out.checksum, reference.checksum,
                "protocol {protocol} sorted different data"
            );
            assert!(out.notifications > 0, "SVM must use notifications");
        }
    }

    #[test]
    fn single_node_runs_give_sequential_baseline() {
        let cluster = Cluster::builder(1).config(DesignConfig::default()).build();
        let out = run_radix_vmmc(&cluster, &RadixParams::small(), Mechanism::DeliberateUpdate);
        assert_eq!(out.messages, 0, "sequential run must not communicate");
        assert!(out.elapsed > 0);
    }
}
