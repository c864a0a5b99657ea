//! Diffusion (near-neighbour) load balancing.
//!
//! The paper's §6 describes diffusion models for tightly-coupled machines:
//! work starts distributed, and slaves shift units to a *neighbour* when
//! they detect a local imbalance — no global information, so load flattens
//! out one hop per exchange period (cf. Willebeek-LeMair & Reeves). We
//! implement a sender-initiated variant for single-invocation independent
//! loops: each slave periodically tells its neighbours its queue length;
//! a slave that learns a neighbour has materially less queued work pushes
//! half the difference toward it.
//!
//! A passive coordinator collects completion notices and final results (it
//! plays no part in balancing — unlike the paper's master).

use dlb_core::kernels::IndependentKernel;
use dlb_core::msg::UnitData;
use dlb_sim::{ActorId, NetConfig, NodeConfig, SimBuilder, SimDuration, SimReport, SimTime};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// Messages of the diffusion runtime.
#[derive(Clone, Debug)]
pub enum DiffMsg {
    /// Neighbour → neighbour: my current queue length.
    LoadInfo { qlen: u64 },
    /// Neighbour → neighbour: take these units.
    Work { units: Vec<(usize, UnitData)> },
    /// Slave → coordinator: I computed `delta` more units.
    Progress { delta: u64 },
    /// Coordinator → slave: all work done; send results and stop.
    Stop,
    /// Slave → coordinator: final owned results.
    Results { units: Vec<(usize, UnitData)> },
}

impl DiffMsg {
    fn wire_bytes(&self) -> u64 {
        match self {
            DiffMsg::LoadInfo { .. } | DiffMsg::Progress { .. } | DiffMsg::Stop => 32,
            DiffMsg::Work { units } | DiffMsg::Results { units } => {
                32 + units
                    .iter()
                    .map(|(_, d)| 32 + d.iter().map(|v| 8 * v.len() as u64).sum::<u64>())
                    .sum::<u64>()
            }
        }
    }
}

/// Policy knobs for the diffusion balancer.
#[derive(Clone, Copy, Debug)]
pub struct DiffusionConfig {
    /// Period between load-info exchanges.
    pub exchange_period: SimDuration,
    /// Minimum queue-length difference before work is pushed.
    pub threshold: u64,
}

impl Default for DiffusionConfig {
    fn default() -> Self {
        DiffusionConfig {
            exchange_period: SimDuration::from_millis(500),
            threshold: 2,
        }
    }
}

/// Outcome of a diffusion-balanced run.
#[derive(Debug)]
pub struct DiffReport {
    pub elapsed: SimDuration,
    pub result: Vec<UnitData>,
    pub sim: SimReport,
}

/// Run `kernel` (single invocation) with diffusion balancing.
pub fn run_diffusion(
    kernel: Arc<dyn IndependentKernel>,
    cfg: DiffusionConfig,
    slave_nodes: Vec<NodeConfig>,
    coordinator_node: NodeConfig,
    net: NetConfig,
) -> DiffReport {
    assert_eq!(
        kernel.invocations(),
        1,
        "diffusion baseline supports single-invocation loops"
    );
    let n_slaves = slave_nodes.len();
    assert!(n_slaves > 0);
    let n_units = kernel.n_units();

    let mut sim = SimBuilder::<DiffMsg>::new().net(net);
    let c_node = sim.add_node(coordinator_node);
    let s_nodes: Vec<_> = slave_nodes.into_iter().map(|nc| sim.add_node(nc)).collect();
    let coordinator = ActorId(0);
    let slave_ids: Vec<ActorId> = (1..=n_slaves).map(ActorId).collect();

    let outcome: Rc<RefCell<Vec<(usize, UnitData)>>> = Rc::default();

    {
        let outcome = Rc::clone(&outcome);
        let slave_ids = slave_ids.clone();
        sim.spawn_mail(c_node, "coordinator", move |ctx| async move {
            let mut done = 0u64;
            while done < n_units as u64 {
                match ctx.recv().await.msg {
                    DiffMsg::Progress { delta } => done += delta,
                    other => panic!("coordinator: unexpected {other:?}"),
                }
            }
            for &s in &slave_ids {
                ctx.send(s, DiffMsg::Stop, 32).await;
            }
            let mut results = Vec::with_capacity(n_units);
            let mut got = 0;
            while got < slave_ids.len() {
                match ctx.recv().await.msg {
                    DiffMsg::Results { units } => {
                        results.extend(units);
                        got += 1;
                    }
                    DiffMsg::Progress { .. } => {} // stale
                    other => panic!("coordinator gather: unexpected {other:?}"),
                }
            }
            *outcome.borrow_mut() = results;
        });
    }

    let ranges = dlb_core::block_ranges(n_units, n_slaves);
    for (i, node) in s_nodes.into_iter().enumerate() {
        let kernel = Arc::clone(&kernel);
        let slave_ids = slave_ids.clone();
        let range = ranges[i];
        sim.spawn_mail(node, format!("diff-slave{i}"), move |ctx| async move {
            let mut queue: VecDeque<(usize, UnitData)> = (range.0..range.1)
                .map(|id| (id, kernel.init_unit(id)))
                .collect();
            let mut finished: Vec<(usize, UnitData)> = Vec::new();
            let neighbors: Vec<ActorId> = [i.checked_sub(1), Some(i + 1)]
                .iter()
                .flatten()
                .filter(|&&j| j < slave_ids.len())
                .map(|&j| slave_ids[j])
                .collect();
            let mut next_exchange = ctx.now() + cfg.exchange_period;
            let mut progress_since = 0u64;
            // A message pulled out by a deadline wait, handled next round.
            let mut pending: Option<dlb_sim::Envelope<DiffMsg>> = None;
            loop {
                // Handle everything queued.
                while let Some(env) = match pending.take() {
                    Some(env) => Some(env),
                    None => ctx.try_recv().await,
                } {
                    match env.msg {
                        DiffMsg::LoadInfo { qlen } => {
                            let mine = queue.len() as u64;
                            if mine > qlen + cfg.threshold {
                                let give = ((mine - qlen) / 2) as usize;
                                let units: Vec<_> = queue.split_off(queue.len() - give).into();
                                let msg = DiffMsg::Work { units };
                                let bytes = msg.wire_bytes();
                                ctx.send(ActorId(env.src), msg, bytes).await;
                            }
                        }
                        DiffMsg::Work { units } => queue.extend(units),
                        DiffMsg::Stop => {
                            finished.extend(queue.drain(..));
                            let msg = DiffMsg::Results { units: finished };
                            let bytes = msg.wire_bytes();
                            ctx.send(coordinator, msg, bytes).await;
                            return;
                        }
                        other => panic!("diff slave: unexpected {other:?}"),
                    }
                }
                // Periodic exchange + progress report.
                if ctx.now() >= next_exchange {
                    for &nb in &neighbors {
                        ctx.send(
                            nb,
                            DiffMsg::LoadInfo {
                                qlen: queue.len() as u64,
                            },
                            32,
                        )
                        .await;
                    }
                    if progress_since > 0 {
                        ctx.send(
                            coordinator,
                            DiffMsg::Progress {
                                delta: progress_since,
                            },
                            32,
                        )
                        .await;
                        progress_since = 0;
                    }
                    next_exchange = ctx.now() + cfg.exchange_period;
                }
                // Compute one unit or wait for messages.
                if let Some((id, mut data)) = queue.pop_front() {
                    ctx.advance_work(kernel.unit_cost()).await;
                    kernel.compute(id, &mut data, 0);
                    finished.push((id, data));
                    progress_since += 1;
                } else {
                    if progress_since > 0 {
                        ctx.send(
                            coordinator,
                            DiffMsg::Progress {
                                delta: progress_since,
                            },
                            32,
                        )
                        .await;
                        progress_since = 0;
                    }
                    // Sleep until the next exchange or the next message,
                    // whichever comes first.
                    pending = ctx.recv_deadline(next_exchange).await;
                }
            }
        });
    }

    let sim_report = sim.run();
    let mut gathered = outcome.take();
    gathered.sort_by_key(|(id, _)| *id);
    assert_eq!(gathered.len(), n_units, "diffusion lost units");
    DiffReport {
        elapsed: sim_report.end_time - SimTime::ZERO,
        result: gathered.into_iter().map(|(_, d)| d).collect(),
        sim: sim_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_apps::{Calibration, MatMul};
    use dlb_sim::LoadModel;

    fn mm(n: usize) -> Arc<MatMul> {
        Arc::new(MatMul::new(n, 1, 9, &Calibration::new(0.005)))
    }

    #[test]
    fn computes_correct_result() {
        let kernel = mm(24);
        let report = run_diffusion(
            kernel.clone(),
            DiffusionConfig::default(),
            vec![NodeConfig::default(); 3],
            NodeConfig::default(),
            NetConfig::default(),
        );
        assert_eq!(MatMul::result_c(&report.result), kernel.sequential());
    }

    #[test]
    fn diffuses_away_from_loaded_node() {
        let kernel = mm(48);
        let run_with = |loaded: bool| {
            let mut nodes = vec![NodeConfig::default(); 4];
            if loaded {
                nodes[1] = NodeConfig::with_load(LoadModel::Constant(3));
            }
            let r = run_diffusion(
                kernel.clone(),
                DiffusionConfig::default(),
                nodes,
                NodeConfig::default(),
                NetConfig::default(),
            );
            assert_eq!(MatMul::result_c(&r.result), kernel.sequential());
            r.elapsed
        };
        let balanced = run_with(false);
        let loaded = run_with(true);
        // Losing 3/4 of one of four nodes costs 18.75% of capacity; without
        // balancing the run would take ~4x. Diffusion should stay well
        // under 2.5x.
        let ratio = loaded.as_secs_f64() / balanced.as_secs_f64();
        assert!(ratio < 2.5, "diffusion failed to adapt: {ratio}");
    }

    #[test]
    fn single_slave_degenerate() {
        let kernel = mm(8);
        let report = run_diffusion(
            kernel.clone(),
            DiffusionConfig::default(),
            vec![NodeConfig::default()],
            NodeConfig::default(),
            NetConfig::default(),
        );
        assert_eq!(MatMul::result_c(&report.result), kernel.sequential());
    }

    #[test]
    fn work_moves_only_between_neighbors() {
        // With the load on slave 3 (end of the chain), work must flow
        // through slave 2 — verify messages happened and result is right.
        let kernel = mm(32);
        let mut nodes = vec![NodeConfig::default(); 4];
        nodes[3] = NodeConfig::with_load(LoadModel::Constant(3));
        let report = run_diffusion(
            kernel.clone(),
            DiffusionConfig::default(),
            nodes,
            NodeConfig::default(),
            NetConfig::default(),
        );
        assert_eq!(MatMul::result_c(&report.result), kernel.sequential());
        // Every slave exchanged messages with someone.
        for a in &report.sim.actors[1..] {
            assert!(a.msgs_sent > 0);
        }
    }
}
