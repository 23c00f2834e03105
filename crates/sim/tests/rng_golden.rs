//! Seed-stability regression tests for [`shrimp_sim::rng::rng_for`].
//!
//! Every experiment's workload is a pure function of its `rng_for` stream,
//! so changing the generator or the seeding scheme silently changes every
//! experiment in the repository at once. These golden values pin the
//! streams: an RNG refactor that alters them must update this file
//! *deliberately* and note the cross-experiment impact in EXPERIMENTS.md.

use shrimp_sim::rng::{rng_for, rng_for_entity, OpenLoopArrivals, SimRng, ZipfSampler};

#[test]
fn fig3_seed1_first_draws_are_pinned() {
    let mut rng = rng_for("fig3", 1);
    let got: Vec<u64> = (0..8).map(|_| rng.gen_u64()).collect();
    assert_eq!(
        got,
        vec![
            0xd476_8a01_d53a_527e,
            0x976f_8380_b998_d3d4,
            0x4ef7_fec7_eeea_f263,
            0xd3d7_1fcb_7dea_4959,
            0xe12b_909e_e0c5_fe17,
            0x9ad0_1669_c26f_e04a,
            0xa754_0af3_18f0_f3b4,
            0x3fc3_8549_a561_5823,
        ],
        "rng_for(\"fig3\", 1) stream changed — every experiment reshuffles"
    );
}

#[test]
fn workload_streams_are_pinned() {
    // The two streams the Table 1 applications actually consume: Radix key
    // generation (node 0) and Barnes body generation.
    let mut radix = rng_for("radix", 1);
    assert_eq!(radix.gen_u64(), 0x348a_372f_9572_d317);
    assert_eq!(radix.gen_u64(), 0x8b26_6584_4956_6571);
    let mut barnes = rng_for("barnes", 3);
    assert_eq!(barnes.gen_u64(), 0x9e0e_5581_a640_558e);
    assert_eq!(barnes.gen_u64(), 0x825c_dd23_81bd_a6fa);
}

#[test]
fn streams_restart_identically_after_partial_consumption() {
    let mut a = rng_for("fig3", 1);
    let _ = (a.gen_u64(), a.gen_u64(), a.gen_u64());
    let mut b = rng_for("fig3", 1);
    assert_eq!(b.gen_u64(), 0xd476_8a01_d53a_527e);
}

#[test]
fn serialized_rng_state_is_pinned_and_resumes_byte_identically() {
    // `state` exposes a stream as its raw xoshiro state words; these pins
    // freeze both the state layout after partial consumption and the
    // resume semantics of `from_state`.
    let mut a = rng_for("fig3", 1);
    for _ in 0..3 {
        a.gen_u64();
    }
    assert_eq!(
        a.state(),
        [
            0xe53c_e2ec_1c92_5de2,
            0x4610_b340_9905_6dc2,
            0x7f72_d0ed_ece6_e166,
            0xca9a_0cf1_17e7_60e0,
        ],
        "rng_for(\"fig3\", 1) state after 3 draws changed — \
         its layout changed"
    );
    let mut b = SimRng::from_state(a.state());
    for _ in 0..8 {
        assert_eq!(a.gen_u64(), b.gen_u64(), "resumed stream diverged");
    }
    assert_eq!(a.state(), b.state(), "states diverged after resume");
}

#[test]
fn kv_workload_sampler_streams_are_pinned() {
    // The KV experiment group's load is a pure function of these two
    // streams: Zipf key popularity over the keyspace and the open-loop
    // arrival process. A sampler or RNG change that shifts them reshuffles
    // every kv sweep row, so the first draws are frozen here.
    let z = ZipfSampler::new(4096);
    let mut rng = rng_for("kv", 1);
    let ranks: Vec<usize> = (0..8).map(|_| z.sample(&mut rng)).collect();
    assert_eq!(
        ranks,
        vec![1492, 2522, 1, 112, 1525, 2, 0, 0],
        "ZipfSampler(4096) stream for rng_for(\"kv\", 1) changed — \
         every kv sweep row reshuffles"
    );
    let mut arr = OpenLoopArrivals::new(2_000_000, 0);
    let mut rng = rng_for("kv-load", 1);
    let times: Vec<u64> = (0..8).map(|_| arr.next(&mut rng)).collect();
    assert_eq!(
        times,
        vec![
            6_289_702, 6_398_067, 7_939_608, 8_904_379, 12_361_314, 13_385_039, 14_442_517,
            15_427_161,
        ],
        "OpenLoopArrivals(mean 2 us) stream for rng_for(\"kv-load\", 1) changed — \
         every kv sweep row reshuffles"
    );
}

#[test]
fn entity_streams_are_pinned() {
    // Per-entity streams are what the sharded fault plane derives on every
    // shard, so both the draws and the state words are frozen.
    let mut e = rng_for_entity("faults", 1, 7);
    assert_eq!(e.gen_u64(), 0x9412_9c9c_e7ff_dd2d);
    assert_eq!(e.gen_u64(), 0x307d_bb8a_c915_4acf);
    assert_eq!(
        e.state(),
        [
            0x9613_9d59_033e_f59e,
            0x47ed_dbc2_1274_6f7c,
            0xc7d4_add1_4343_61f9,
            0x07a2_f3b6_b21a_b702,
        ],
        "rng_for_entity(\"faults\", 1, 7) state after 2 draws changed"
    );
    assert_eq!(
        rng_for_entity("faults", 1, 8).gen_u64(),
        0xddb4_b161_274c_68e9,
        "adjacent entity stream changed"
    );
}
