//! The three kernel-throughput skeletons of `crates/bench/benches/kernel.rs`
//! — bare `dlb-sim` actors, no `dlb-core` — parametrised by width and round
//! count. The traced run measures them at the workload's width
//! (`sim.kernel.bare_*_ns`): what an event costs when the protocol above it
//! does nothing. Each runs its scenario and returns the operation count.

use dlb_sim::{ActorId, CpuWork, NetConfig, NodeConfig, SimBuilder, SimDuration};

/// `messages`, `wakeups`, `steps`, in the order of the `bare_*_ns` metrics.
pub const SKELETONS: [fn(usize, u64) -> u64; 3] = [messages, wakeups, steps];

/// Hub-and-spoke ping-pong: `width` spokes each complete `rounds` round
/// trips with a node-0 hub. One op = one message on the wire.
fn messages(width: usize, rounds: u64) -> u64 {
    let mut b = SimBuilder::<u64>::new().net(NetConfig::ideal());
    let hub_node = b.add_node(NodeConfig::default());
    let spoke_nodes: Vec<_> = (0..width)
        .map(|_| b.add_node(NodeConfig::default()))
        .collect();
    let total = width as u64 * rounds;
    b.spawn_mail(hub_node, "hub", move |ctx| async move {
        for _ in 0..total {
            let env = ctx.recv().await;
            ctx.send(ActorId(env.src), env.msg, 16).await;
        }
    });
    for (i, n) in spoke_nodes.into_iter().enumerate() {
        b.spawn_mail(n, format!("spoke{i}"), move |ctx| async move {
            for r in 0..rounds {
                ctx.send(ActorId(0), i as u64 ^ r, 16).await;
                ctx.recv().await;
            }
        });
    }
    b.run();
    2 * total
}

/// Timer-wheel stress: `width` actors each sleep `rounds` staggered
/// durations. One op = one timer insert + the wake that pops it.
fn wakeups(width: usize, rounds: u64) -> u64 {
    let mut b = SimBuilder::<()>::new().net(NetConfig::ideal());
    for i in 0..width {
        let n = b.add_node(NodeConfig::default());
        b.spawn_mail(n, format!("sleeper{i}"), move |ctx| async move {
            for k in 0..rounds {
                // Staggered periods spread entries across wheel levels.
                ctx.sleep(SimDuration::from_micros((i as u64 % 17) * 61 + k % 13 + 1))
                    .await;
            }
        });
    }
    b.run();
    width as u64 * rounds
}

/// State-machine stepping: `width` actors alternate a compute quantum with
/// a 1 µs nap, so every iteration parks and re-polls the future.
fn steps(width: usize, rounds: u64) -> u64 {
    let mut b = SimBuilder::<()>::new().net(NetConfig::ideal());
    for i in 0..width {
        let n = b.add_node(NodeConfig::default());
        b.spawn_mail(n, format!("stepper{i}"), move |ctx| async move {
            for _ in 0..rounds {
                ctx.advance_work(CpuWork::from_micros(i as u64 % 7 + 1))
                    .await;
                ctx.sleep(SimDuration::from_micros(1)).await;
            }
        });
    }
    b.run();
    2 * width as u64 * rounds
}
