#![allow(clippy::field_reassign_with_default)]
//! Cross-crate integration tests: drive the full stack — applications on
//! VMMC/NX/sockets/SVM over the NIC, buses, and mesh — and check system-wide
//! behaviors the unit tests cannot see.

use shrimp::apps::ocean::{run_ocean_nx, run_ocean_svm, OceanParams};
use shrimp::apps::radix::{run_radix_svm, run_radix_vmmc, RadixParams};
use shrimp::apps::Mechanism;
use shrimp::nx::{self, NxConfig};
use shrimp::sim::time;
use shrimp::sockets::SocketNet;
use shrimp::svm::{Protocol, Svm, SvmConfig};
use shrimp::vmmc::{Cluster, DesignConfig};

#[test]
fn sixteen_node_nx_all_to_all() {
    let cluster = Cluster::builder(16).config(DesignConfig::default()).build();
    let endpoints = nx::create(&cluster, NxConfig::default());
    let mut handles = Vec::new();
    for nxp in endpoints {
        handles.push(cluster.sim().spawn(async move {
            let me = nxp.me();
            let n = nxp.nprocs();
            for peer in 0..n {
                if peer != me {
                    nxp.csend(42, &[me as u8; 100], peer).await;
                }
            }
            let mut sum = 0u32;
            for _ in 0..n - 1 {
                let m = nxp.crecv(Some(42), None).await;
                assert_eq!(m.data, vec![m.src as u8; 100]);
                sum += m.src as u32;
            }
            nxp.gsync().await;
            sum
        }));
    }
    let (_, out) = cluster.run_until_complete(handles);
    for (me, sum) in out.iter().enumerate() {
        assert_eq!(*sum, (0..16).sum::<u32>() - me as u32);
    }
}

#[test]
fn sixteen_node_svm_coherence_under_all_protocols() {
    for protocol in [Protocol::Hlrc, Protocol::HlrcAu, Protocol::Aurc] {
        let cluster = Cluster::builder(16).config(DesignConfig::default()).build();
        let svm = Svm::create(&cluster, SvmConfig::new(protocol));
        let region = svm.create_region(16 * 4096, |p| p % 16);
        let mut handles = Vec::new();
        for i in 0..16 {
            let node = svm.node(i);
            handles.push(cluster.sim().spawn(async move {
                // Each node writes a word into every page, then everyone
                // reads everything back after the barrier.
                for pg in 0..16usize {
                    node.write_u32(region, pg * 4096 + node.me() * 4, (100 + node.me()) as u32)
                        .await;
                }
                node.barrier().await;
                let mut sum = 0u64;
                for pg in 0..16usize {
                    for w in 0..16usize {
                        sum += node.read_u32(region, pg * 4096 + w * 4).await as u64;
                    }
                }
                sum
            }));
        }
        let (_, out) = cluster.run_until_complete(handles);
        let expect: u64 = 16 * (100..116).sum::<u64>();
        for (i, &s) in out.iter().enumerate() {
            assert_eq!(s, expect, "{protocol}: node {i} read inconsistent data");
        }
    }
}

#[test]
fn sockets_pipeline_through_intermediate_node() {
    // 0 -> 1 -> 2 relay: two connections in a chain.
    let cluster = Cluster::builder(3).config(DesignConfig::default()).build();
    let net = SocketNet::new(&cluster);
    let l1 = net.listen(1, 100);
    let l2 = net.listen(2, 100);
    let c01 = net.connect_endpoints(0, 1, 100);
    let c12 = net.connect_endpoints(1, 2, 100);
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
    let expect = payload.clone();

    let h0 = cluster.sim().spawn(async move {
        c01.write(&payload).await;
        c01.shutdown().await;
    });
    let relay = cluster.sim().spawn(async move {
        let s = l1.accept().await;
        let mut buf = [0u8; 1500];
        loop {
            let n = s.read(&mut buf).await;
            if n == 0 {
                break;
            }
            c12.write(&buf[..n]).await;
        }
        c12.shutdown().await;
    });
    let sink = cluster.sim().spawn(async move {
        let s = l2.accept().await;
        let mut all = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            let n = s.read(&mut buf).await;
            if n == 0 {
                break;
            }
            all.extend_from_slice(&buf[..n]);
        }
        all
    });
    let _ = (h0, relay);
    let got = { cluster.run_until_complete(vec![sink]).1.remove(0) };
    assert_eq!(got, expect);
}

#[test]
fn design_knobs_change_time_but_never_results() {
    let params = RadixParams {
        total_keys: 8192,
        iters: 2,
        radix_bits: 8,
        seed: 5,
    };
    let base = run_radix_vmmc(
        &Cluster::builder(4).config(DesignConfig::default()).build(),
        &params,
        Mechanism::DeliberateUpdate,
    );
    // Syscall per send: slower, same answer.
    let mut cfg = DesignConfig::default();
    cfg.syscall_send = true;
    let sys = run_radix_vmmc(
        &Cluster::builder(4).config(cfg).build(),
        &params,
        Mechanism::DeliberateUpdate,
    );
    assert_eq!(sys.checksum, base.checksum);
    assert!(sys.elapsed > base.elapsed, "syscalls should cost time");
    // Interrupt per message: slower, same answer.
    let mut cfg = DesignConfig::default();
    cfg.nic.interrupt_per_message = true;
    let intr = run_radix_vmmc(
        &Cluster::builder(4).config(cfg).build(),
        &params,
        Mechanism::DeliberateUpdate,
    );
    assert_eq!(intr.checksum, base.checksum);
    assert!(intr.elapsed > base.elapsed, "interrupts should cost time");
}

#[test]
fn svm_protocols_identical_results_different_times() {
    let params = OceanParams {
        n: 34,
        sweeps: 4,
        reduce_every: 2,
    };
    let mut outs = Vec::new();
    for protocol in [Protocol::Hlrc, Protocol::HlrcAu, Protocol::Aurc] {
        let cluster = Cluster::builder(4).config(DesignConfig::default()).build();
        outs.push((protocol, run_ocean_svm(&cluster, protocol, &params)));
    }
    for w in outs.windows(2) {
        assert_eq!(
            w[0].1.checksum, w[1].1.checksum,
            "{} vs {} diverged",
            w[0].0, w[1].0
        );
    }
}

#[test]
fn nx_and_svm_and_transport_variants_agree_on_physics() {
    let params = OceanParams {
        n: 26,
        sweeps: 3,
        reduce_every: 1,
    };
    let nx_du = run_ocean_nx(
        &Cluster::builder(3).config(DesignConfig::default()).build(),
        &params,
        Mechanism::DeliberateUpdate,
    );
    let nx_au = run_ocean_nx(
        &Cluster::builder(3).config(DesignConfig::default()).build(),
        &params,
        Mechanism::AutomaticUpdate,
    );
    let svm = run_ocean_svm(
        &Cluster::builder(3).config(DesignConfig::default()).build(),
        Protocol::Aurc,
        &params,
    );
    assert_eq!(nx_du.checksum, nx_au.checksum);
    assert_eq!(nx_du.checksum, svm.checksum);
}

#[test]
fn whole_app_runs_are_deterministic() {
    let run = || {
        let cluster = Cluster::builder(8).config(DesignConfig::default()).build();
        let out = run_radix_svm(
            &cluster,
            Protocol::Aurc,
            &RadixParams {
                total_keys: 16384,
                iters: 2,
                radix_bits: 8,
                seed: 2,
            },
        );
        (out.elapsed, out.messages, out.notifications, out.checksum)
    };
    assert_eq!(run(), run());
}

#[test]
fn cpu_overlap_hides_idle_interrupts() {
    // A node that is blocked on communication absorbs interrupt handler
    // time for free; a computing node pays for it (§4.4's premise).
    let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
    let vm = cluster.vmmc(0);
    let cpu = cluster.cpu(0).clone();
    let h = cluster.sim().spawn(async move {
        // Phase 1: compute while handlers fire.
        vm.compute(time::ms(1)).await;
        let t1 = vm.sim().now();
        // Phase 2: idle wait while handlers fire.
        vm.sim().sleep(time::ms(1)).await;
        (t1, vm.sim().now())
    });
    for i in 0..10 {
        let cpu = cpu.clone();
        cluster
            .sim()
            .schedule(time::us(100 * (i + 1)), move || cpu.steal(time::us(20)));
    }
    for i in 0..10 {
        let cpu = cpu.clone();
        cluster
            .sim()
            .schedule(time::ms(1) + time::us(250 + 50 * i), move || {
                cpu.steal(time::us(20))
            });
    }
    let (_, out) = cluster.run_until_complete(vec![h]);
    let (t1, t2) = out[0];
    assert_eq!(
        t1,
        time::ms(1) + 10 * time::us(20),
        "compute must absorb steals"
    );
    // Wait, the second batch of steals happens while idle.
    assert_eq!(t2, t1 + time::ms(1), "idle steals must be free");
}

#[test]
fn trace_timeline_captures_hardware_and_protocol_events() {
    use shrimp::svm::{Protocol, Svm, SvmConfig};
    let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
    cluster.sim().trace().enable(None);
    let svm = Svm::create(&cluster, SvmConfig::new(Protocol::Hlrc));
    let region = svm.create_region(8192, |p| p % 2);
    let a = svm.node(0);
    let b = svm.node(1);
    let ha = cluster.sim().spawn(async move {
        a.write_u32(region, 4096 + 4, 9).await;
        a.barrier().await;
    });
    let hb = cluster.sim().spawn(async move {
        b.barrier().await;
        b.read_u32(region, 4096 + 4).await
    });
    cluster.run_until_complete(vec![ha]);
    assert_eq!(hb.try_take(), Some(9));
    let events = cluster.sim().trace().take();
    assert!(!events.is_empty(), "no trace events recorded");
    let cats: std::collections::HashSet<shrimp::sim::Category> =
        events.iter().map(|e| e.category()).collect();
    assert!(
        cats.contains(&shrimp::sim::Category::Nic),
        "no NIC events traced"
    );
    assert!(
        cats.contains(&shrimp::sim::Category::Svm),
        "no SVM events traced"
    );
    // Timeline is time-ordered.
    assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    let text = shrimp::sim::TraceSink::render(&events);
    assert!(text.contains("barrier"));
}
