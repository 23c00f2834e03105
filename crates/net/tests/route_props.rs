//! Property tests for link-fault route-around: the BFS detour is a pure
//! function of `(geometry, src, dst, blocked links)`, so two independently
//! constructed networks — the situation at different shard counts, where
//! every shard builds its own `Network` and fault plane — must pick the
//! identical detour, and the detour must be a valid path that avoids the
//! failed link.

use shrimp_faults::{FaultPlane, FaultScenario, LinkFault};
use shrimp_net::{MeshConfig, Network, NodeId};
use shrimp_sim::Sim;
use shrimp_testkit::prop::*;
use shrimp_testkit::{prop_assert, prop_assert_eq, props};

/// The mesh-adjacent neighbors of router `r`, in the BFS's deterministic
/// order (x−1, x+1, y−1, y+1).
fn neighbors(cfg: &MeshConfig, r: usize) -> Vec<usize> {
    let (x, y) = (r % cfg.width, r / cfg.width);
    let mut out = Vec::new();
    if x > 0 {
        out.push(r - 1);
    }
    if x + 1 < cfg.width {
        out.push(r + 1);
    }
    if y > 0 {
        out.push(r - cfg.width);
    }
    if y + 1 < cfg.height {
        out.push(r + cfg.width);
    }
    out
}

props! {
    cases = 64;

    /// Random mesh, random permanently failed link, random endpoint pair:
    /// every fresh network with its own fault plane picks the same route,
    /// and the route is a valid detour.
    fn route_around_is_shard_invariant_and_valid(
        n in usize_in(2..26),
        link_pick in any_u64(),
        src_pick in any_u64(),
        dst_pick in any_u64(),
    ) {
        let cfg = MeshConfig::for_nodes(n);
        // A random failed link: a router and one of its mesh neighbors.
        let from = (link_pick % cfg.capacity() as u64) as usize;
        let nbs = neighbors(&cfg, from);
        let to = nbs[(link_pick >> 32) as usize % nbs.len()];
        let scenario = FaultScenario {
            link: Some(LinkFault {
                from: from as u8,
                to: to as u8,
                at_us: 0,
                down_us: 0,
            }),
            ..FaultScenario::none()
        };
        let src = NodeId((src_pick % n as u64) as usize);
        let dst = NodeId(((src.0 as u64 + 1 + dst_pick % (n as u64 - 1)) % n as u64) as usize);

        // Two independently built stacks, as two shards would build them:
        // each gets its own network and its own plane from the scenario.
        let routes: Vec<Option<Vec<usize>>> = (0..2)
            .map(|_| {
                let sim = Sim::new();
                let nw: Network<u64> = Network::new(sim, cfg.clone(), n);
                nw.route_avoiding(src, dst, &FaultPlane::per_entity(scenario))
            })
            .collect();
        prop_assert_eq!(
            &routes[0], &routes[1],
            "fresh networks disagreed on the detour"
        );

        match &routes[0] {
            None => {
                // A single failed link can only disconnect a 1-D mesh.
                prop_assert!(
                    cfg.width == 1 || cfg.height == 1,
                    "2-D mesh reported disconnection for one failed link"
                );
            }
            Some(path) => {
                prop_assert_eq!(*path.first().unwrap(), src.0, "route starts off src");
                prop_assert_eq!(*path.last().unwrap(), dst.0, "route ends off dst");
                for w in path.windows(2) {
                    prop_assert!(
                        neighbors(&cfg, w[0]).contains(&w[1]),
                        "route hop {} -> {} is not mesh-adjacent", w[0], w[1]
                    );
                    prop_assert!(
                        !((w[0] == from && w[1] == to) || (w[0] == to && w[1] == from)),
                        "route crosses the failed link {} -> {}", from, to
                    );
                }
                let mut seen = path.clone();
                seen.sort_unstable();
                seen.dedup();
                prop_assert_eq!(seen.len(), path.len(), "route revisits a router");
            }
        }
    }
}
