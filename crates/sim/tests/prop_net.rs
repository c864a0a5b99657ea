//! Seeded-loop property tests for the network model and kernel messaging
//! invariants. (Formerly proptest; rewritten as deterministic PCG-driven
//! loops so the suite runs with zero external dependencies.)

use dlb_sim::{ActorId, CpuWork, NetConfig, NodeConfig, Pcg32, SimBuilder, SimDuration};

const CASES: usize = 16;

/// Per-(src,dst) FIFO holds for arbitrary message sizes, even when small
/// messages could physically overtake large ones.
#[test]
fn fifo_with_mixed_sizes() {
    let mut rng = Pcg32::new(0x51f0);
    for _ in 0..CASES {
        let n_msgs = rng.gen_index(1, 20);
        let sizes: Vec<u64> = (0..n_msgs).map(|_| rng.gen_range(1, 100_000)).collect();
        let n = sizes.len() as u64;
        let mut b = SimBuilder::<u64>::new().net(NetConfig {
            latency: SimDuration::from_micros(50),
            bandwidth: 1_000_000,
            send_cpu_per_msg: CpuWork::ZERO,
            send_cpu_per_byte_ns: 0,
            recv_cpu_per_msg: CpuWork::ZERO,
        });
        let n0 = b.add_node(NodeConfig::default());
        let n1 = b.add_node(NodeConfig::default());
        let dst = ActorId(1);
        b.spawn_mail(n0, "src", move |ctx| async move {
            for (i, sz) in sizes.iter().enumerate() {
                ctx.send(dst, i as u64, *sz).await;
            }
        });
        b.spawn_mail(n1, "dst", move |ctx| async move {
            for i in 0..n {
                let env = ctx.recv().await;
                assert_eq!(env.msg, i, "message overtook an earlier one");
            }
        });
        b.run();
    }
}

/// Transfer time is monotone in bytes and inversely monotone in bandwidth.
#[test]
fn transfer_time_monotone() {
    let mut rng = Pcg32::new(0x51f1);
    for _ in 0..256 {
        let bytes = rng.gen_range(0, 10_000_000);
        let extra = rng.gen_range(0, 10_000_000);
        let bw = rng.gen_range(1_000, 1_000_000_000);
        let slow = NetConfig {
            bandwidth: bw,
            ..NetConfig::default()
        };
        let fast = NetConfig {
            bandwidth: bw * 2,
            ..NetConfig::default()
        };
        assert!(slow.transfer_time(bytes + extra) >= slow.transfer_time(bytes));
        assert!(fast.transfer_time(bytes) <= slow.transfer_time(bytes));
    }
}

/// Messages between many pairs are all delivered exactly once
/// (conservation), regardless of topology and sizes.
#[test]
fn message_conservation() {
    let mut rng = Pcg32::new(0x51f2);
    for _ in 0..CASES {
        let n_actors = rng.gen_index(2, 6);
        let n_msgs = rng.gen_index(1, 30);
        let seed = rng.gen_range(0, 1000);
        let mut b = SimBuilder::<u32>::new();
        let nodes: Vec<_> = (0..n_actors)
            .map(|_| b.add_node(NodeConfig::default()))
            .collect();
        // Everyone sends a deterministic pseudo-random set of messages to
        // the next actor in the ring, then receives what its predecessor
        // sent.
        for (i, node) in nodes.into_iter().enumerate() {
            let next = ActorId((i + 1) % n_actors);
            b.spawn_mail(node, format!("a{i}"), move |ctx| async move {
                let mine = (seed as usize + i) % n_msgs + 1;
                let preds = (seed as usize + (i + n_actors - 1) % n_actors) % n_msgs + 1;
                for k in 0..mine {
                    ctx.send(next, k as u32, 64).await;
                }
                for _ in 0..preds {
                    ctx.recv().await;
                }
            });
        }
        let report = b.run();
        let sent: u64 = report.actors.iter().map(|a| a.msgs_sent).sum();
        let recv: u64 = report.actors.iter().map(|a| a.msgs_received).sum();
        assert_eq!(sent, recv);
    }
}
