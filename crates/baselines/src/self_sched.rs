//! Central-queue self-scheduling on distributed memory.
//!
//! The paper's §6 contrasts its approach with the self-scheduling family
//! (central task queue, slaves pull chunks when idle). Those schemes were
//! designed for shared memory; on a network of workstations the queue is
//! remote, so *data ships with every chunk* — each chunk costs a request
//! round trip plus the unit data out and the results back. This module
//! implements that honestly so the comparison experiments can show where
//! the crossover lies.
//!
//! Only single-invocation independent loops are supported (repeated loops
//! would re-ship everything every pass — exactly the locality argument the
//! paper makes for keeping work distributed).

use crate::chunking::ChunkPolicy;
use dlb_core::kernels::IndependentKernel;
use dlb_core::msg::UnitData;
use dlb_sim::{
    ActorId, CpuWork, NetConfig, NodeConfig, SimBuilder, SimDuration, SimReport, SimTime,
};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Messages of the self-scheduling runtime.
#[derive(Clone, Debug)]
pub enum SsMsg {
    /// Slave → master: give me work.
    Request { slave: usize },
    /// Master → slave: a chunk of units (ids + data).
    Chunk { units: Vec<(usize, UnitData)> },
    /// Master → slave: the queue is empty; terminate.
    Empty,
    /// Slave → master: computed results.
    Results { units: Vec<(usize, UnitData)> },
}

fn unit_bytes(d: &UnitData) -> u64 {
    32 + d.iter().map(|v| 8 * v.len() as u64).sum::<u64>()
}

impl SsMsg {
    fn wire_bytes(&self) -> u64 {
        match self {
            SsMsg::Request { .. } | SsMsg::Empty => 32,
            SsMsg::Chunk { units } | SsMsg::Results { units } => {
                32 + units.iter().map(|(_, d)| unit_bytes(d)).sum::<u64>()
            }
        }
    }
}

/// Outcome of a self-scheduled run.
#[derive(Debug)]
pub struct SsReport {
    pub elapsed: SimDuration,
    /// Final unit data ordered by id.
    pub result: Vec<UnitData>,
    pub chunks_issued: u64,
    pub sim: SimReport,
}

/// Run `kernel` (single invocation) under central-queue self-scheduling
/// with the given chunk policy. `slave_nodes` configures the workers; the
/// master (queue holder) runs on `master_node`.
pub fn run_self_scheduled(
    kernel: Arc<dyn IndependentKernel>,
    policy: ChunkPolicy,
    slave_nodes: Vec<NodeConfig>,
    master_node: NodeConfig,
    net: NetConfig,
) -> SsReport {
    assert_eq!(
        kernel.invocations(),
        1,
        "self-scheduling baseline supports single-invocation loops"
    );
    let n_slaves = slave_nodes.len();
    assert!(n_slaves > 0);
    let n_units = kernel.n_units();

    let mut sim = SimBuilder::<SsMsg>::new().net(net);
    let m_node = sim.add_node(master_node);
    let s_nodes: Vec<_> = slave_nodes.into_iter().map(|nc| sim.add_node(nc)).collect();

    #[allow(clippy::type_complexity)]
    let outcome: Arc<Mutex<(Vec<(usize, UnitData)>, u64)>> = Arc::new(Mutex::new((Vec::new(), 0)));
    let master_id = ActorId(0);

    {
        let kernel = Arc::clone(&kernel);
        let outcome = Arc::clone(&outcome);
        let policy = policy.clone();
        sim.spawn_mail(m_node, "queue-master", move |ctx| async move {
            // Build the queue; charge a nominal setup cost.
            let mut queue: VecDeque<(usize, UnitData)> =
                (0..n_units).map(|i| (i, kernel.init_unit(i))).collect();
            ctx.advance_work(CpuWork::from_micros(10) * n_units as u64)
                .await;
            let mut state = policy.start(n_units as u64, n_slaves as u64);
            let mut done: Vec<(usize, UnitData)> = Vec::with_capacity(n_units);
            let mut active = n_slaves;
            while active > 0 {
                let env = ctx.recv().await;
                match env.msg {
                    SsMsg::Request { slave: _ } => {
                        let from = ActorId(env.src);
                        match state.next_chunk() {
                            Some(size) => {
                                let units: Vec<(usize, UnitData)> =
                                    queue.drain(..size as usize).collect();
                                let msg = SsMsg::Chunk { units };
                                let bytes = msg.wire_bytes();
                                ctx.send(from, msg, bytes).await;
                            }
                            None => {
                                ctx.send(from, SsMsg::Empty, 32).await;
                                active -= 1;
                            }
                        }
                    }
                    SsMsg::Results { units } => done.extend(units),
                    other => panic!("queue master: unexpected {other:?}"),
                }
            }
            // Wait for any result messages still in flight.
            while done.len() < n_units {
                match ctx.recv().await.msg {
                    SsMsg::Results { units } => done.extend(units),
                    other => panic!("queue master drain: unexpected {other:?}"),
                }
            }
            // Tolerate a poisoned lock: a panicking peer must not mask
            // the outcome this actor computed (the assert below still sees
            // whatever was gathered).
            let mut o = outcome.lock().unwrap_or_else(|p| p.into_inner());
            o.0 = done;
            o.1 = state.chunks_issued();
        });
    }

    for (i, node) in s_nodes.into_iter().enumerate() {
        let kernel = Arc::clone(&kernel);
        sim.spawn_mail(node, format!("ss-slave{i}"), move |ctx| async move {
            loop {
                ctx.send(master_id, SsMsg::Request { slave: i }, 32).await;
                let env = ctx.recv().await;
                match env.msg {
                    SsMsg::Chunk { mut units } => {
                        for (id, data) in &mut units {
                            ctx.advance_work(kernel.unit_cost()).await;
                            kernel.compute(*id, data, 0);
                        }
                        let msg = SsMsg::Results { units };
                        let bytes = msg.wire_bytes();
                        ctx.send(master_id, msg, bytes).await;
                    }
                    SsMsg::Empty => break,
                    other => panic!("ss slave: unexpected {other:?}"),
                }
            }
        });
    }

    let sim_report = sim.run();
    let mut o = outcome.lock().unwrap_or_else(|p| p.into_inner());
    let mut gathered = std::mem::take(&mut o.0);
    gathered.sort_by_key(|(id, _)| *id);
    assert_eq!(gathered.len(), n_units, "self-scheduling lost units");
    SsReport {
        elapsed: sim_report.end_time - SimTime::ZERO,
        result: gathered.into_iter().map(|(_, d)| d).collect(),
        chunks_issued: o.1,
        sim: sim_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_apps::{Calibration, MatMul};

    fn mm(n: usize) -> Arc<MatMul> {
        Arc::new(MatMul::new(n, 1, 3, &Calibration::new(0.01)))
    }

    #[test]
    fn computes_correct_result() {
        let kernel = mm(24);
        for policy in [
            ChunkPolicy::Fixed(3),
            ChunkPolicy::Gss,
            ChunkPolicy::Factoring,
            ChunkPolicy::trapezoid_default(24, 3),
        ] {
            let report = run_self_scheduled(
                kernel.clone(),
                policy.clone(),
                vec![NodeConfig::default(); 3],
                NodeConfig::default(),
                NetConfig::default(),
            );
            assert_eq!(
                MatMul::result_c(&report.result),
                kernel.sequential(),
                "{policy:?}"
            );
            assert!(report.chunks_issued >= 3, "{policy:?}");
        }
    }

    #[test]
    fn small_chunks_adapt_to_loaded_worker() {
        use dlb_sim::LoadModel;
        let kernel = mm(32);
        let run_with = |loaded: bool, policy: ChunkPolicy| {
            let mut nodes = vec![NodeConfig::default(); 4];
            if loaded {
                nodes[0] = NodeConfig::with_load(LoadModel::Constant(3));
            }
            run_self_scheduled(
                kernel.clone(),
                policy,
                nodes,
                NodeConfig::default(),
                NetConfig::default(),
            )
            .elapsed
        };
        // Small fixed chunks absorb the load: the slow worker just pulls
        // fewer of them.
        let balanced = run_with(false, ChunkPolicy::Fixed(2));
        let loaded = run_with(true, ChunkPolicy::Fixed(2));
        let ratio = loaded.as_secs_f64() / balanced.as_secs_f64();
        assert!(ratio < 2.0, "self-scheduling failed to adapt: {ratio}");
        // GSS's large early chunks are a known weakness when a *slow*
        // worker grabs one: ceil(n/p) units land on the loaded node.
        let gss_loaded = run_with(true, ChunkPolicy::Gss);
        assert!(
            gss_loaded.as_secs_f64() > loaded.as_secs_f64(),
            "expected GSS to suffer more than small fixed chunks"
        );
    }

    #[test]
    fn data_shipping_dominates_message_bytes() {
        let kernel = mm(16);
        let report = run_self_scheduled(
            kernel.clone(),
            ChunkPolicy::Fixed(1),
            vec![NodeConfig::default(); 2],
            NodeConfig::default(),
            NetConfig::default(),
        );
        let master_bytes = report.sim.actors[0].bytes_sent;
        // 16 units of 2 vectors x 16 f64 = ~256 bytes each minimum.
        assert!(master_bytes > 16 * 256, "bytes {master_bytes}");
    }

    #[test]
    #[should_panic(expected = "single-invocation")]
    fn repeated_loops_rejected() {
        let kernel = Arc::new(MatMul::new(8, 2, 0, &Calibration::new(0.01)));
        run_self_scheduled(
            kernel,
            ChunkPolicy::Gss,
            vec![NodeConfig::default()],
            NodeConfig::default(),
            NetConfig::default(),
        );
    }
}
