//! Barnes — hierarchical N-body simulation (Barnes-Hut octree), in NX
//! message-passing and SVM versions.
//!
//! Real physics: bodies live in a 3-D octree rebuilt every step; forces are
//! evaluated with the Barnes-Hut opening criterion and integrated with
//! leapfrog. CPU cycles are charged per tree insertion and per body-cell
//! interaction (counted during the actual traversal).
//!
//! * **Barnes-NX** statically partitions bodies; each step all-gathers
//!   positions in small per-body messages — the fine-grained communication
//!   that, past eight nodes, invades the otherwise compute-only phase and
//!   limits speedup (§3).
//! * **Barnes-SVM** keeps bodies in shared memory: every node reads all
//!   positions (page faults pull them from their homes), claims work chunks
//!   from a lock-protected counter (dynamic load balancing — the source of
//!   the heavy lock/notification traffic of Table 3), and writes results
//!   back through the coherence protocol.
//!
//! Both versions produce **bit-identical** final positions for the same
//! parameters — asserted by the tests.

use shrimp_core::Cluster;
use shrimp_mem::PAGE_SIZE;
use shrimp_nx::{Nx, NxConfig};
use shrimp_sim::rng::rng_for;
use shrimp_svm::{Protocol, RegionId, Svm, SvmConfig, SvmNode};

use crate::util::{digest, Mechanism, RunOutcome};

/// Problem parameters for Barnes.
#[derive(Debug, Clone)]
pub struct BarnesParams {
    /// Number of bodies (paper: 16 K for SVM, 4 K for NX).
    pub bodies: usize,
    /// Time steps (paper: 20 iters for Barnes-NX).
    pub steps: usize,
    /// Barnes-Hut opening angle.
    pub theta: f64,
    /// Bodies per allgather message in the NX version (1 reproduces the
    /// paper's ~1 M-message fine-grained exchange).
    pub chunk_bodies: usize,
    /// Bodies per self-scheduled work chunk in the SVM version.
    pub work_chunk: usize,
    /// Workload seed.
    pub seed: u64,
}

impl BarnesParams {
    /// Barnes-NX paper size: 4 K bodies, 20 iterations.
    pub fn paper_nx() -> Self {
        BarnesParams {
            bodies: 4096,
            steps: 20,
            theta: 0.8,
            chunk_bodies: 1,
            work_chunk: 32,
            seed: 3,
        }
    }

    /// Barnes-SVM paper size: 16 K bodies.
    pub fn paper_svm() -> Self {
        BarnesParams {
            bodies: 16384,
            steps: 6,
            theta: 0.8,
            chunk_bodies: 1,
            work_chunk: 32,
            seed: 3,
        }
    }

    /// A small instance for tests.
    pub fn small() -> Self {
        BarnesParams {
            bodies: 128,
            steps: 2,
            theta: 0.9,
            chunk_bodies: 4,
            work_chunk: 8,
            seed: 3,
        }
    }
}

const DT: f64 = 0.025;
const EPS2: f64 = 0.05 * 0.05;
const TREE_CYCLES_PER_BODY: u64 = 300;
const FORCE_CYCLES_PER_INTERACTION: u64 = 55;
const INTEGRATE_CYCLES_PER_BODY: u64 = 45;
/// Bytes per body in the shared region (7 f64 + pad).
const BODY_BYTES: usize = 64;

/// One body: position, velocity, mass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Body {
    /// Position.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
    /// Mass.
    pub mass: f64,
}

/// Generates the full deterministic body set (cold uniform cube).
pub fn generate_bodies(params: &BarnesParams) -> Vec<Body> {
    let mut rng = rng_for("barnes", params.seed);
    (0..params.bodies)
        .map(|_| Body {
            pos: [
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ],
            vel: [0.0; 3],
            mass: 1.0 / params.bodies as f64,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Octree
// ---------------------------------------------------------------------------

struct OctNode {
    center: [f64; 3],
    half: f64,
    com: [f64; 3],
    mass: f64,
    /// Index of the first of 8 children, or -1 for a leaf.
    children: i32,
    /// Body index for a singleton leaf, or -1.
    body: i32,
}

/// A Barnes-Hut octree over a body set.
pub struct Octree {
    nodes: Vec<OctNode>,
}

impl Octree {
    /// Builds the tree (deterministic: insertion in body-index order).
    pub fn build(bodies: &[Body]) -> Octree {
        let mut half = 1.0e-9f64;
        for b in bodies {
            for d in 0..3 {
                half = half.max(b.pos[d].abs());
            }
        }
        half *= 1.0001;
        let mut tree = Octree {
            nodes: vec![OctNode {
                center: [0.0; 3],
                half,
                com: [0.0; 3],
                mass: 0.0,
                children: -1,
                body: -1,
            }],
        };
        for (i, b) in bodies.iter().enumerate() {
            tree.insert(0, i as i32, b, bodies);
        }
        tree.summarize(0, bodies);
        tree
    }

    fn octant(center: &[f64; 3], p: &[f64; 3]) -> usize {
        (usize::from(p[0] >= center[0]))
            | (usize::from(p[1] >= center[1]) << 1)
            | (usize::from(p[2] >= center[2]) << 2)
    }

    fn insert(&mut self, node: usize, bi: i32, b: &Body, bodies: &[Body]) {
        if self.nodes[node].children < 0 && self.nodes[node].body < 0 {
            // Empty leaf.
            self.nodes[node].body = bi;
            return;
        }
        if self.nodes[node].children < 0 {
            // Occupied leaf: split.
            let prev = self.nodes[node].body;
            self.nodes[node].body = -1;
            let first = self.nodes.len() as i32;
            let (center, half) = (self.nodes[node].center, self.nodes[node].half);
            for o in 0..8 {
                let h = half / 2.0;
                let c = [
                    center[0] + if o & 1 != 0 { h } else { -h },
                    center[1] + if o & 2 != 0 { h } else { -h },
                    center[2] + if o & 4 != 0 { h } else { -h },
                ];
                self.nodes.push(OctNode {
                    center: c,
                    half: h,
                    com: [0.0; 3],
                    mass: 0.0,
                    children: -1,
                    body: -1,
                });
            }
            self.nodes[node].children = first;
            let pb = &bodies[prev as usize];
            let o = Self::octant(&self.nodes[node].center, &pb.pos);
            self.insert(first as usize + o, prev, pb, bodies);
        }
        let first = self.nodes[node].children as usize;
        let o = Self::octant(&self.nodes[node].center, &b.pos);
        self.insert(first + o, bi, b, bodies);
    }

    fn summarize(&mut self, node: usize, bodies: &[Body]) {
        if self.nodes[node].children < 0 {
            if self.nodes[node].body >= 0 {
                let b = &bodies[self.nodes[node].body as usize];
                self.nodes[node].mass = b.mass;
                self.nodes[node].com = b.pos;
            }
            return;
        }
        let first = self.nodes[node].children as usize;
        let mut mass = 0.0;
        let mut com = [0.0f64; 3];
        for o in 0..8 {
            self.summarize(first + o, bodies);
            let c = &self.nodes[first + o];
            mass += c.mass;
            for d in 0..3 {
                com[d] += c.com[d] * c.mass;
            }
        }
        if mass > 0.0 {
            for c in &mut com {
                *c /= mass;
            }
        }
        self.nodes[node].mass = mass;
        self.nodes[node].com = com;
    }

    /// Computes the acceleration on body `bi`; returns `(accel,
    /// interaction_count)` — the count drives the cycle charge.
    pub fn force_on(&self, bi: usize, bodies: &[Body], theta: f64) -> ([f64; 3], u64) {
        let p = bodies[bi].pos;
        let mut acc = [0.0f64; 3];
        let mut interactions = 0u64;
        let mut stack = vec![0usize];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n];
            if node.mass == 0.0 {
                continue;
            }
            let dx = node.com[0] - p[0];
            let dy = node.com[1] - p[1];
            let dz = node.com[2] - p[2];
            let d2 = dx * dx + dy * dy + dz * dz + EPS2;
            let is_leaf = node.children < 0;
            if is_leaf {
                if node.body == bi as i32 {
                    continue;
                }
            } else {
                let s = 2.0 * node.half;
                if s * s >= theta * theta * d2 {
                    let first = node.children as usize;
                    for o in 0..8 {
                        stack.push(first + o);
                    }
                    continue;
                }
            }
            let inv = 1.0 / (d2 * d2.sqrt());
            let f = node.mass * inv;
            acc[0] += f * dx;
            acc[1] += f * dy;
            acc[2] += f * dz;
            interactions += 1;
        }
        (acc, interactions)
    }
}

/// One leapfrog step for a body given its acceleration.
pub fn integrate(b: &mut Body, acc: [f64; 3]) {
    for d in 0..3 {
        b.vel[d] += acc[d] * DT;
        b.pos[d] += b.vel[d] * DT;
    }
}

fn positions_checksum(bodies: &[Body]) -> u64 {
    let mut bytes = Vec::with_capacity(bodies.len() * 24);
    for b in bodies {
        for d in 0..3 {
            bytes.extend_from_slice(&b.pos[d].to_bits().to_le_bytes());
        }
    }
    digest(&bytes)
}

fn block_of(n: usize, p: usize, node: usize) -> (usize, usize) {
    let base = n / p;
    let extra = n % p;
    let start = node * base + node.min(extra);
    (start, start + base + usize::from(node < extra))
}

// ---------------------------------------------------------------------------
// NX version
// ---------------------------------------------------------------------------

/// Runs Barnes-NX with the chosen bulk mechanism; the checksum covers the
/// final body positions.
pub fn run_barnes_nx(cluster: &Cluster, params: &BarnesParams, mech: Mechanism) -> RunOutcome {
    let p = cluster.num_nodes();
    assert!(params.bodies >= p, "fewer bodies than nodes");
    let cfg = match mech {
        Mechanism::DeliberateUpdate => NxConfig::default(),
        Mechanism::AutomaticUpdate => NxConfig::automatic(),
    };
    let endpoints = shrimp_nx::create(cluster, cfg);
    let mut handles = Vec::new();
    for nx in endpoints {
        let params = params.clone();
        handles.push(cluster.sim().spawn(barnes_nx_node(nx, params)));
    }
    let (elapsed, blocks) = cluster.run_until_complete(handles);
    let mut all = generate_bodies(params);
    for (node, block) in blocks.iter().enumerate() {
        let (s, _e) = block_of(params.bodies, p, node);
        for (i, b) in block.iter().enumerate() {
            all[s + i] = *b;
        }
    }
    RunOutcome::collect(cluster, elapsed, positions_checksum(&all))
}

const T_BODIES: u32 = 0x0B00;

async fn barnes_nx_node(nx: Nx, params: BarnesParams) -> Vec<Body> {
    let p = nx.nprocs();
    let me = nx.me();
    let vm = nx.vmmc().clone();
    let mut all = generate_bodies(&params);
    let (s, e) = block_of(params.bodies, p, me);

    for step in 0..params.steps {
        let t = T_BODIES | (step as u32 & 0xFF);
        // Allgather positions in fine-grained chunks: each message carries
        // `chunk_bodies` (index, position, mass) records. Sending runs in a
        // helper process so receives drain concurrently — with everyone
        // sending a full block before receiving, small clusters would
        // deadlock on ring flow control.
        let msgs: Vec<Vec<u8>> = (s..e)
            .step_by(params.chunk_bodies)
            .map(|chunk_start| {
                let chunk_end = (chunk_start + params.chunk_bodies).min(e);
                let mut msg = Vec::with_capacity(8 + (chunk_end - chunk_start) * 32);
                msg.extend_from_slice(&(chunk_start as u32).to_le_bytes());
                msg.extend_from_slice(&((chunk_end - chunk_start) as u32).to_le_bytes());
                for b in &all[chunk_start..chunk_end] {
                    for d in 0..3 {
                        msg.extend_from_slice(&b.pos[d].to_bits().to_le_bytes());
                    }
                    msg.extend_from_slice(&b.mass.to_bits().to_le_bytes());
                }
                msg
            })
            .collect();
        let sender = {
            let nx = nx.clone();
            vm.sim().clone().spawn(async move {
                for msg in msgs {
                    for dest in 0..p {
                        if dest != me {
                            nx.csend(t, &msg, dest).await;
                        }
                    }
                }
            })
        };
        // Receive everyone else's chunks.
        let mut expected = 0usize;
        for node in 0..p {
            if node == me {
                continue;
            }
            let (a, b) = block_of(params.bodies, p, node);
            expected += (b - a).div_ceil(params.chunk_bodies);
        }
        for _ in 0..expected {
            let m = nx.crecv(Some(t), None).await;
            let start = u32::from_le_bytes(m.data[0..4].try_into().unwrap()) as usize;
            let count = u32::from_le_bytes(m.data[4..8].try_into().unwrap()) as usize;
            for i in 0..count {
                let at = 8 + i * 32;
                let mut pos = [0.0f64; 3];
                for d in 0..3 {
                    pos[d] = f64::from_bits(u64::from_le_bytes(
                        m.data[at + d * 8..at + d * 8 + 8].try_into().unwrap(),
                    ));
                }
                all[start + i].pos = pos;
                all[start + i].mass = f64::from_bits(u64::from_le_bytes(
                    m.data[at + 24..at + 32].try_into().unwrap(),
                ));
            }
        }
        sender.await;
        // Tree build + forces for the owned block + integration.
        let tree = Octree::build(&all);
        vm.compute_cycles(params.bodies as u64 * TREE_CYCLES_PER_BODY)
            .await;
        let mut interactions = 0u64;
        let mut accs = Vec::with_capacity(e - s);
        for bi in s..e {
            let (acc, count) = tree.force_on(bi, &all, params.theta);
            interactions += count;
            accs.push(acc);
        }
        vm.compute_cycles(interactions * FORCE_CYCLES_PER_INTERACTION)
            .await;
        for (bi, acc) in (s..e).zip(accs) {
            integrate(&mut all[bi], acc);
        }
        vm.compute_cycles((e - s) as u64 * INTEGRATE_CYCLES_PER_BODY)
            .await;
    }
    all[s..e].to_vec()
}

// ---------------------------------------------------------------------------
// SVM version
// ---------------------------------------------------------------------------

/// Runs Barnes-SVM under the given protocol; the checksum matches
/// [`run_barnes_nx`] for identical parameters.
pub fn run_barnes_svm(cluster: &Cluster, protocol: Protocol, params: &BarnesParams) -> RunOutcome {
    let p = cluster.num_nodes();
    assert!(params.bodies >= p, "fewer bodies than nodes");
    let svm = Svm::create(cluster, SvmConfig::new(protocol));
    let region_bytes = params.bodies * BODY_BYTES;
    let bodies_per_page = PAGE_SIZE / BODY_BYTES;
    let nbodies = params.bodies;
    let bodies_region = svm.create_region(region_bytes, move |pg| {
        let body = (pg * bodies_per_page).min(nbodies - 1);
        // Home = static owner of that body index.
        let mut owner = p - 1;
        for node in 0..p {
            let (a, b) = block_of(nbodies, p, node);
            if body >= a && body < b {
                owner = node;
                break;
            }
        }
        owner
    });
    // Work counter page (home 0), claimed under lock 0.
    let work_region = svm.create_region(PAGE_SIZE, |_| 0);

    // Initialize bodies at their homes.
    let init = generate_bodies(params);
    for (i, b) in init.iter().enumerate() {
        svm.init_write(bodies_region, i * BODY_BYTES, &body_bytes(b));
    }

    let mut handles = Vec::new();
    for me in 0..p {
        let node = svm.node(me);
        let params = params.clone();
        handles.push(cluster.sim().spawn(barnes_svm_node(
            node,
            params,
            bodies_region,
            work_region,
        )));
    }
    let (elapsed, _) = cluster.run_until_complete(handles);

    let mut bytes = vec![0u8; region_bytes];
    svm.home_read(bodies_region, 0, &mut bytes);
    let final_bodies: Vec<Body> = (0..params.bodies)
        .map(|i| bytes_body(&bytes[i * BODY_BYTES..(i + 1) * BODY_BYTES]))
        .collect();
    RunOutcome::collect(cluster, elapsed, positions_checksum(&final_bodies))
}

fn body_bytes(b: &Body) -> Vec<u8> {
    let mut out = Vec::with_capacity(BODY_BYTES);
    for d in 0..3 {
        out.extend_from_slice(&b.pos[d].to_bits().to_le_bytes());
    }
    for d in 0..3 {
        out.extend_from_slice(&b.vel[d].to_bits().to_le_bytes());
    }
    out.extend_from_slice(&b.mass.to_bits().to_le_bytes());
    out.resize(BODY_BYTES, 0);
    out
}

fn bytes_body(b: &[u8]) -> Body {
    let f = |i: usize| f64::from_bits(u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap()));
    Body {
        pos: [f(0), f(1), f(2)],
        vel: [f(3), f(4), f(5)],
        mass: f(6),
    }
}

async fn barnes_svm_node(
    node: SvmNode,
    params: BarnesParams,
    bodies_region: RegionId,
    work_region: RegionId,
) {
    let vm = node.vmmc().clone();
    let n = params.bodies;

    for step in 0..params.steps {
        // Read every body through shared memory (faults pull remote pages).
        let mut bytes = vec![0u8; n * BODY_BYTES];
        node.read_bytes(bodies_region, 0, &mut bytes).await;
        let all: Vec<Body> = (0..n)
            .map(|i| bytes_body(&bytes[i * BODY_BYTES..(i + 1) * BODY_BYTES]))
            .collect();
        let tree = Octree::build(&all);
        vm.compute_cycles(n as u64 * TREE_CYCLES_PER_BODY).await;
        // Everyone must finish snapshotting before anyone writes updates
        // (two-phase superstep, as in SPLASH-2 Barnes).
        node.barrier().await;

        // Self-scheduled chunks off the shared counter (lock-protected):
        // dynamic load balancing with the lock traffic of Table 3.
        let step_base = (step * n) as u32;
        let step_end = step_base + n as u32;
        loop {
            node.lock(0).await;
            let cur = node.read_u32(work_region, 0).await.max(step_base);
            let claim_end = (cur + params.work_chunk as u32).min(step_end);
            node.write_u32(work_region, 0, claim_end).await;
            node.unlock(0).await;
            if cur >= step_end {
                break;
            }
            let (s, e) = ((cur - step_base) as usize, (claim_end - step_base) as usize);
            let mut interactions = 0u64;
            for bi in s..e {
                let (acc, count) = tree.force_on(bi, &all, params.theta);
                interactions += count;
                let mut b = all[bi];
                integrate(&mut b, acc);
                node.write_bytes(bodies_region, bi * BODY_BYTES, &body_bytes(&b))
                    .await;
            }
            vm.compute_cycles(
                interactions * FORCE_CYCLES_PER_INTERACTION
                    + (e - s) as u64 * INTEGRATE_CYCLES_PER_BODY,
            )
            .await;
        }
        node.barrier().await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_core::DesignConfig;

    #[test]
    fn octree_force_approximates_direct_sum() {
        let params = BarnesParams::small();
        let bodies = generate_bodies(&params);
        let tree = Octree::build(&bodies);
        // theta=0 degenerates to exact pairwise summation.
        let (exact, count_exact) = tree.force_on(0, &bodies, 0.0);
        assert_eq!(count_exact, bodies.len() as u64 - 1);
        let (approx, count_approx) = tree.force_on(0, &bodies, 0.5);
        assert!(count_approx < count_exact, "opening criterion never fired");
        let mag = |v: [f64; 3]| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
        let err = mag([
            exact[0] - approx[0],
            exact[1] - approx[1],
            exact[2] - approx[2],
        ]) / mag(exact).max(1e-12);
        assert!(err < 0.05, "BH approximation error {err} too large");
    }

    #[test]
    fn nx_du_au_and_partitions_agree() {
        let params = BarnesParams::small();
        let mut checksums = Vec::new();
        for (nodes, mech) in [
            (2, Mechanism::DeliberateUpdate),
            (2, Mechanism::AutomaticUpdate),
            (4, Mechanism::DeliberateUpdate),
        ] {
            let cluster = Cluster::builder(nodes)
                .config(DesignConfig::default())
                .build();
            checksums.push(run_barnes_nx(&cluster, &params, mech).checksum);
        }
        assert!(
            checksums.windows(2).all(|w| w[0] == w[1]),
            "NX variants disagree: {checksums:?}"
        );
    }

    #[test]
    fn svm_matches_nx_bit_exactly() {
        let params = BarnesParams::small();
        let nx = {
            let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
            run_barnes_nx(&cluster, &params, Mechanism::DeliberateUpdate)
        };
        for protocol in [Protocol::Hlrc, Protocol::Aurc] {
            let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
            let out = run_barnes_svm(&cluster, protocol, &params);
            assert_eq!(out.checksum, nx.checksum, "SVM {protocol} diverged");
            assert!(out.notifications > 0, "SVM Barnes must use notifications");
        }
    }

    #[test]
    fn bodies_move() {
        let params = BarnesParams::small();
        let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
        let out = run_barnes_nx(&cluster, &params, Mechanism::DeliberateUpdate);
        let initial = positions_checksum(&generate_bodies(&params));
        assert_ne!(out.checksum, initial, "gravity did nothing");
    }
}
