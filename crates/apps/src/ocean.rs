//! Ocean — nearest-neighbor grid relaxation (SPLASH-2-style fluid solver
//! kernel), in NX message-passing and SVM versions.
//!
//! The computational core is a red-black Gauss-Seidel relaxation over an
//! `n x n` grid of `f64`: work is assigned by statically splitting the grid
//! into contiguous row blocks, and nearest-neighbor communication occurs
//! between processors owning adjacent blocks (§3). Red-black ordering makes
//! the update sequence independent of the partitioning, so the NX and SVM
//! versions (and the AU and DU transports) produce **bit-identical** grids —
//! asserted by the tests.

use shrimp_core::Cluster;
use shrimp_mem::PAGE_SIZE;
use shrimp_nx::{Nx, NxConfig};
use shrimp_svm::{Protocol, RegionId, Svm, SvmConfig, SvmNode};

use crate::util::{digest, Mechanism, RunOutcome};

/// Problem parameters for Ocean.
#[derive(Debug, Clone)]
pub struct OceanParams {
    /// Grid side (including fixed boundary): the paper uses 514 for
    /// Ocean-SVM and 258 for Ocean-NX.
    pub n: usize,
    /// Relaxation sweeps (each = red phase + black phase).
    pub sweeps: usize,
    /// Reduce the global error every this many sweeps.
    pub reduce_every: usize,
}

impl OceanParams {
    /// Ocean-SVM paper size: 514 x 514.
    pub fn paper_svm() -> Self {
        OceanParams {
            n: 514,
            sweeps: 160,
            reduce_every: 4,
        }
    }

    /// Ocean-NX paper size: 258 x 258.
    pub fn paper_nx() -> Self {
        OceanParams {
            n: 258,
            sweeps: 160,
            reduce_every: 4,
        }
    }

    /// A small instance for tests.
    pub fn small() -> Self {
        OceanParams {
            n: 34,
            sweeps: 6,
            reduce_every: 2,
        }
    }
}

/// Cycles per 5-point stencil cell update on the 60 MHz Pentium.
const CELL_CYCLES: u64 = 30;
/// Successive over-relaxation factor.
const OMEGA: f64 = 1.1;

/// Fixed boundary value (deterministic pattern).
fn boundary(i: usize, j: usize) -> f64 {
    ((i * 31 + j * 17) % 1024) as f64 / 1024.0
}

/// Contiguous interior-row partition: rows `1..n-1` split over `p` nodes.
/// Returns `(first_row, end_row)` for `node`.
fn rows_of(n: usize, p: usize, node: usize) -> (usize, usize) {
    let interior = n - 2;
    let base = interior / p;
    let extra = interior % p;
    let start = 1 + node * base + node.min(extra);
    let len = base + usize::from(node < extra);
    (start, start + len)
}

/// Node owning (responsible for relaxing) a global row; boundary rows
/// attach to the adjacent partition.
fn owner_of_row(n: usize, p: usize, row: usize) -> usize {
    if row == 0 {
        return 0;
    }
    if row >= n - 1 {
        return p - 1;
    }
    for node in 0..p {
        let (a, b) = rows_of(n, p, node);
        if row >= a && row < b {
            return node;
        }
    }
    p - 1
}

/// One red-black phase over local rows `[r0, r1)`; `row_offset + r` is the
/// global row of local row `r`. Returns `(updates, |delta| sum)`.
fn relax_rows<G: Fn(usize, usize) -> f64>(
    n: usize,
    r0: usize,
    r1: usize,
    row_offset: usize,
    color: usize,
    get: G,
) -> (Vec<(usize, usize, f64)>, f64) {
    let mut updates = Vec::new();
    let mut err = 0.0f64;
    for r in r0..r1 {
        let gr = row_offset + r;
        let c0 = if (1 + gr) % 2 == color { 1 } else { 2 };
        let mut c = c0;
        while c < n - 1 {
            let v = get(r, c);
            let avg = 0.25 * (get(r - 1, c) + get(r + 1, c) + get(r, c - 1) + get(r, c + 1));
            let nv = v + OMEGA * (avg - v);
            err += (nv - v).abs();
            updates.push((r, c, nv));
            c += 2;
        }
    }
    (updates, err)
}

fn grid_checksum(grid: &[f64]) -> u64 {
    let mut bytes = Vec::with_capacity(grid.len() * 8);
    for v in grid {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    digest(&bytes)
}

// ---------------------------------------------------------------------------
// NX version
// ---------------------------------------------------------------------------

const T_ROW_UP: u32 = 0x0C01;
const T_ROW_DOWN: u32 = 0x0C02;

/// Runs Ocean-NX with the chosen bulk mechanism; the checksum covers the
/// final grid.
pub fn run_ocean_nx(cluster: &Cluster, params: &OceanParams, mech: Mechanism) -> RunOutcome {
    let n = params.n;
    let p = cluster.num_nodes();
    assert!(n >= 4 && n - 2 >= p, "grid too small for node count");
    let cfg = match mech {
        Mechanism::DeliberateUpdate => NxConfig::default(),
        Mechanism::AutomaticUpdate => NxConfig::automatic(),
    };
    let endpoints = shrimp_nx::create(cluster, cfg);

    let mut handles = Vec::new();
    for nx in endpoints {
        let params = params.clone();
        handles.push(cluster.sim().spawn(ocean_nx_node(nx, params)));
    }
    let (elapsed, results) = cluster.run_until_complete(handles);

    // Assemble the global grid.
    let mut grid = vec![0.0f64; n * n];
    for i in 0..n {
        grid[i] = boundary(0, i);
        grid[(n - 1) * n + i] = boundary(n - 1, i);
        grid[i * n] = boundary(i, 0);
        grid[i * n + n - 1] = boundary(i, n - 1);
    }
    for (node, rows) in results.iter().enumerate() {
        let (r0, _) = rows_of(n, p, node);
        for (i, row) in rows.iter().enumerate() {
            grid[(r0 + i) * n..(r0 + i + 1) * n].copy_from_slice(row);
        }
    }
    RunOutcome::collect(cluster, elapsed, grid_checksum(&grid))
}

async fn ocean_nx_node(nx: Nx, params: OceanParams) -> Vec<Vec<f64>> {
    let n = params.n;
    let p = nx.nprocs();
    let me = nx.me();
    let vm = nx.vmmc().clone();
    let (r0, r1) = rows_of(n, p, me);
    let local_rows = r1 - r0;
    // Local view rows r0-1 ..= r1 (ghosts at both ends).
    let mut view = vec![vec![0.0f64; n]; local_rows + 2];
    for (i, row) in view.iter_mut().enumerate() {
        let gr = r0 - 1 + i;
        for (j, v) in row.iter_mut().enumerate() {
            *v = if gr == 0 || gr == n - 1 || j == 0 || j == n - 1 {
                boundary(gr, j)
            } else {
                0.0
            };
        }
    }
    let up = (me > 0).then(|| me - 1);
    let down = (me + 1 < p).then(|| me + 1);

    let row_bytes = |row: &[f64]| -> Vec<u8> {
        let mut b = Vec::with_capacity(row.len() * 8);
        for v in row {
            b.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        b
    };
    let bytes_row = |b: &[u8]| -> Vec<f64> {
        b.chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect()
    };

    for sweep in 0..params.sweeps {
        let mut sweep_err = 0.0f64;
        for color in 0..2 {
            // Nearest-neighbor edge-row exchange before each phase.
            if let Some(u) = up {
                nx.csend(T_ROW_UP, &row_bytes(&view[1]), u).await;
            }
            if let Some(d) = down {
                nx.csend(T_ROW_DOWN, &row_bytes(&view[local_rows]), d).await;
            }
            if let Some(u) = up {
                let m = nx.crecv(Some(T_ROW_DOWN), Some(u)).await;
                view[0] = bytes_row(&m.data);
            }
            if let Some(d) = down {
                let m = nx.crecv(Some(T_ROW_UP), Some(d)).await;
                view[local_rows + 1] = bytes_row(&m.data);
            }
            let (updates, err) = relax_rows(n, 1, local_rows + 1, r0 - 1, color, |r, c| view[r][c]);
            for (r, c, v) in updates {
                view[r][c] = v;
            }
            sweep_err += err;
            vm.compute_cycles((local_rows * (n - 2) / 2) as u64 * CELL_CYCLES)
                .await;
        }
        if sweep % params.reduce_every == 0 {
            let _total = nx.gdsum(sweep_err).await;
        }
    }
    view[1..=local_rows].to_vec()
}

// ---------------------------------------------------------------------------
// SVM version
// ---------------------------------------------------------------------------

/// Runs Ocean-SVM under the given protocol; the checksum matches
/// [`run_ocean_nx`] for identical parameters.
pub fn run_ocean_svm(cluster: &Cluster, protocol: Protocol, params: &OceanParams) -> RunOutcome {
    let n = params.n;
    let p = cluster.num_nodes();
    assert!(n >= 4 && n - 2 >= p, "grid too small for node count");
    let svm = Svm::create(cluster, SvmConfig::new(protocol));

    // Grid region: page homes follow the row partition.
    let grid_region = svm.create_region(n * n * 8, move |pg| {
        let row = ((pg * PAGE_SIZE) / (n * 8)).min(n - 1);
        owner_of_row(n, p, row)
    });
    // Error-reduction page on node 0.
    let err_region = svm.create_region(PAGE_SIZE, |_| 0);

    // Initialize boundary at the homes.
    for i in 0..n {
        for (r, c) in [(0, i), (n - 1, i), (i, 0), (i, n - 1)] {
            let v = boundary(r, c);
            svm.init_write(grid_region, (r * n + c) * 8, &v.to_bits().to_le_bytes());
        }
    }

    let mut handles = Vec::new();
    for me in 0..p {
        let node = svm.node(me);
        let params = params.clone();
        handles.push(
            cluster
                .sim()
                .spawn(ocean_svm_node(node, params, grid_region, err_region)),
        );
    }
    let (elapsed, _) = cluster.run_until_complete(handles);

    let mut bytes = vec![0u8; n * n * 8];
    svm.home_read(grid_region, 0, &mut bytes);
    let grid: Vec<f64> = bytes
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
        .collect();
    RunOutcome::collect(cluster, elapsed, grid_checksum(&grid))
}

async fn ocean_svm_node(node: SvmNode, params: OceanParams, grid: RegionId, err_region: RegionId) {
    let n = params.n;
    let p = node.nprocs();
    let me = node.me();
    let vm = node.vmmc().clone();
    let (r0, r1) = rows_of(n, p, me);

    for sweep in 0..params.sweeps {
        let mut sweep_err = 0.0f64;
        for color in 0..2 {
            // Load our rows plus ghost rows through shared memory; ghosts
            // fault in from the neighbors' homes after each invalidation.
            let mut rows: Vec<Vec<f64>> = Vec::with_capacity(r1 - r0 + 2);
            for r in (r0 - 1)..=r1 {
                let mut b = vec![0u8; n * 8];
                node.read_bytes(grid, r * n * 8, &mut b).await;
                rows.push(
                    b.chunks_exact(8)
                        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
                        .collect(),
                );
            }
            let (updates, err) = relax_rows(n, 1, r1 - r0 + 1, r0 - 1, color, |r, c| rows[r][c]);
            sweep_err += err;
            // Sparse stride-2 stores: the write pattern AURC carries without
            // diffing and combining cannot merge (§4.5.1).
            for (r, c, v) in &updates {
                let gr = r0 - 1 + r;
                node.write_f64(grid, (gr * n + c) * 8, *v).await;
            }
            vm.compute_cycles(((r1 - r0) * (n - 2) / 2) as u64 * CELL_CYCLES)
                .await;
            node.barrier().await;
        }
        if sweep % params.reduce_every == 0 {
            node.write_f64(err_region, me * 8, sweep_err).await;
            node.barrier().await;
            let mut total = 0.0;
            for i in 0..p {
                total += node.read_f64(err_region, i * 8).await;
            }
            let _ = total;
            node.barrier().await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_core::DesignConfig;

    #[test]
    fn nx_du_and_au_identical_grids() {
        let params = OceanParams::small();
        let du = {
            let cluster = Cluster::builder(4).config(DesignConfig::default()).build();
            run_ocean_nx(&cluster, &params, Mechanism::DeliberateUpdate)
        };
        let au = {
            let cluster = Cluster::builder(4).config(DesignConfig::default()).build();
            run_ocean_nx(&cluster, &params, Mechanism::AutomaticUpdate)
        };
        assert_eq!(du.checksum, au.checksum, "transport changed the physics");
        assert!(du.messages > 0);
    }

    #[test]
    fn nx_partition_count_does_not_change_result() {
        let params = OceanParams::small();
        let two = {
            let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
            run_ocean_nx(&cluster, &params, Mechanism::DeliberateUpdate)
        };
        let four = {
            let cluster = Cluster::builder(4).config(DesignConfig::default()).build();
            run_ocean_nx(&cluster, &params, Mechanism::DeliberateUpdate)
        };
        assert_eq!(two.checksum, four.checksum, "partitioning changed result");
    }

    #[test]
    fn svm_matches_nx_bit_exactly() {
        let params = OceanParams::small();
        let nx = {
            let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
            run_ocean_nx(&cluster, &params, Mechanism::DeliberateUpdate)
        };
        for protocol in [Protocol::Hlrc, Protocol::Aurc] {
            let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
            let svm = run_ocean_svm(&cluster, protocol, &params);
            assert_eq!(svm.checksum, nx.checksum, "SVM {protocol} diverged from NX");
        }
    }

    #[test]
    fn rows_partition_covers_interior() {
        for n in [10, 34, 258] {
            for p in [1, 2, 3, 4, 8] {
                if n - 2 < p {
                    continue;
                }
                let mut covered = Vec::new();
                for node in 0..p {
                    let (a, b) = rows_of(n, p, node);
                    covered.extend(a..b);
                }
                assert_eq!(covered, (1..n - 1).collect::<Vec<_>>(), "n={n} p={p}");
            }
        }
    }
}
