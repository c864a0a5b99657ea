//! Top-level driver: build the simulated cluster, wire master and slaves,
//! run, and collect a [`RunReport`].
//!
//! Two entry points: [`try_run`] returns `Result` and is the only way to
//! observe a fault-injected run's typed failure; [`run`] is the historical
//! panicking wrapper for fault-free callers.

use crate::balancer::{Balancer, BalancerConfig, InteractionMode};
use crate::engine_independent::IndependentStrategy;
use crate::engine_pipelined::PipelinedStrategy;
use crate::engine_shrinking::ShrinkingStrategy;
use crate::error::{FaultToleranceConfig, ProtocolError, RunError};
use crate::kernels::{IndependentKernel, PipelinedKernel, ShrinkingKernel};
use crate::master::{run_master, MasterOutcome, TakeoverKit, TimelineSample};
use crate::msg::{Msg, UnitData};
use crate::recovery::RecoveryStats;
use crate::session::replica::ELECTION_STAGGER;
use crate::session::slave::{run_slave, SlaveSpec};
use crate::slave_common::HOOK_CHECK_CPU;
use dlb_compiler::{grain_iterations, GrainPolicy, ParallelPlan, Pattern, DEFAULT_MAX_OVERHEAD};
use dlb_sim::{FaultPlan, NetConfig, NodeConfig, SimBuilder, SimDuration, SimReport, SimTime};
use std::sync::{Arc, Mutex};

/// The application to run: one kernel per compiler pattern.
#[derive(Clone)]
pub enum AppSpec {
    Independent(Arc<dyn IndependentKernel>),
    Pipelined(Arc<dyn PipelinedKernel>),
    Shrinking(Arc<dyn ShrinkingKernel>),
}

/// The one description of the program the master mimics (§4.1): every
/// per-pattern answer the driver, the master and the session need. Outside
/// this block only the slave-spawn site matches on the pattern.
impl AppSpec {
    fn pattern(&self) -> Pattern {
        match self {
            AppSpec::Independent(_) => Pattern::Independent,
            AppSpec::Pipelined(_) => Pattern::Pipelined,
            AppSpec::Shrinking(_) => Pattern::Shrinking,
        }
    }

    fn n_units(&self) -> usize {
        match self {
            AppSpec::Independent(k) => k.n_units(),
            AppSpec::Pipelined(k) => k.n_units(),
            AppSpec::Shrinking(k) => k.n_units(),
        }
    }

    /// Upper bound on the executions of the distributed loop: MM
    /// repetitions, SOR sweeps, LU steps.
    pub fn invocations(&self) -> u64 {
        match self {
            AppSpec::Independent(k) => k.invocations(),
            AppSpec::Pipelined(k) => k.sweeps(),
            AppSpec::Shrinking(k) => (k.n_units() as u64).saturating_sub(1),
        }
    }

    /// Work-unit completions invocation `inv` must report before it can
    /// settle. The pipelined engine counts column-rows; LU's active set
    /// shrinks by one column per step.
    pub fn expected_units(&self, inv: u64) -> u64 {
        match self {
            AppSpec::Independent(k) => k.n_units() as u64,
            AppSpec::Pipelined(k) => k.n_units() as u64 * (k.col_len() - 2) as u64,
            AppSpec::Shrinking(k) => k.n_units() as u64 - 1 - inv,
        }
    }

    /// Data-dependent WHILE termination (§4.1): asked with the invocation
    /// just settled and the reduced convergence metric; `true` ends the
    /// program before the [`Self::invocations`] upper bound.
    pub fn converged(&self, inv: u64, metric: f64) -> bool {
        match self {
            AppSpec::Independent(k) => k.converged(inv, metric),
            AppSpec::Pipelined(_) | AppSpec::Shrinking(_) => false,
        }
    }

    /// Unit `id` before any invocation ran, in the form it travels in: what
    /// a `Restore` or a speculation re-seeds (independent pattern), and the
    /// epoch-zero snapshot a rollback falls back on while no checkpoint is
    /// banked (pipelined / shrinking: the one column).
    pub fn initial_unit(&self, id: usize) -> UnitData {
        match self {
            AppSpec::Independent(k) => k.init_unit(id),
            AppSpec::Pipelined(k) => vec![k.init_unit(id)],
            AppSpec::Shrinking(k) => vec![k.init_unit(id)],
        }
    }

    /// Grain selection (§4.4) as `(block_rows, units_scale,
    /// units_per_hook)`: the pipelined row-block size from the cost model,
    /// the OS quantum, the pipeline depth and the equal startup blocks; how
    /// many reported work deltas make one allocation unit; and the expected
    /// allocation units of progress between two hook firings on a slave.
    /// The other two patterns hook once per unit.
    ///
    /// The automatic block is `min(B_q, max(⌊R / (P − 1)⌋, B_o))` for `R`
    /// interior rows on `P` slaves: the 1.5-quantum block `B_q`, capped at
    /// the largest block whose pipeline fill (`P − 1` blocks) is no longer
    /// than one sweep's body, but never below `B_o`, the block whose
    /// boundary exchange costs [`DEFAULT_MAX_OVERHEAD`] (the §4.2 hook
    /// rule's 1 %) of its compute. One slave has no fill and no cap.
    fn grain(
        &self,
        plan: &ParallelPlan,
        n_slaves: usize,
        quantum: SimDuration,
        net: &NetConfig,
    ) -> (u64, f64, f64) {
        let AppSpec::Pipelined(k) = self else {
            return (1, 1.0, 1.0);
        };
        let rows = (k.col_len() - 2) as u64;
        let local_cols = (k.n_units() / n_slaves).max(1) as u64;
        let per_row = k.elem_cost().dedicated_duration(1.0) * local_cols;
        let block = match plan.grain {
            GrainPolicy::FixedBlock { iterations } => iterations.clamp(1, rows),
            GrainPolicy::AutoBlock { quantum_factor } => {
                let by_quantum = grain_iterations(per_row, quantum, quantum_factor, rows);
                match n_slaves as u64 - 1 {
                    0 => by_quantum,
                    fill => by_quantum.min((rows / fill).max(overhead_floor(net, per_row))),
                }
            }
            GrainPolicy::Unit => 1,
        };
        // Work deltas are counted in column-rows, `rows` of which make one
        // column (the allocation unit); one hook per row block is
        // local_cols × block column-rows of progress.
        let per_hook = (k.n_units() as f64 / n_slaves as f64) * block as f64 / rows as f64;
        (block, rows as f64, per_hook)
    }
}

/// `B_o` of [`AppSpec::grain`]: the block, to the nearest row, whose fixed
/// per-block cost is [`DEFAULT_MAX_OVERHEAD`] of its compute. That cost is
/// one bare boundary message (send CPU, latency, wire time, receive CPU)
/// plus the hook check; the halo values' own bytes grow with the block as
/// its compute does, so a larger block cannot amortise them.
fn overhead_floor(net: &NetConfig, per_row: SimDuration) -> u64 {
    let bare = Msg::Boundary {
        sweep: 0,
        block: 0,
        col: 0,
        values: Vec::new(),
    }
    .wire_bytes();
    let cpu = net.send_cpu(bare) + net.recv_cpu_per_msg + HOOK_CHECK_CPU;
    let per_block = cpu.dedicated_duration(1.0) + net.latency + net.transfer_time(bare);
    let rows = per_block.as_secs_f64() / (DEFAULT_MAX_OVERHEAD * per_row.as_secs_f64());
    (rows.round() as u64).max(1)
}

/// Cluster + policy configuration for one run.
pub struct RunConfig {
    /// One node per slave (speed, quantum, competing load).
    pub slave_nodes: Vec<NodeConfig>,
    pub net: NetConfig,
    pub balancer: BalancerConfig,
    /// Record the master's balancing timeline (Fig. 9).
    pub record_timeline: bool,
    /// Deterministic fault injection. `Some` switches the runtime into
    /// fault mode: the fault-tolerant control loops run on both sides with
    /// the dynamic balancer live — in-flight moves survive drops,
    /// duplicates, and crashes of either endpoint through the sequenced
    /// transfer-window protocol. The pipelined interaction mode is forced
    /// (a synchronous hook must never block on a droppable Instructions
    /// message).
    pub fault_plan: Option<FaultPlan>,
    /// Timeouts and retry bounds used when `fault_plan` is set.
    pub fault_tolerance: FaultToleranceConfig,
    /// Record the kernel event trace into `RunReport::sim.trace` (the
    /// `dlb-lint --conform` input), the runtime's `NOTE` narration of its
    /// decisions included. Election messages are tagged via
    /// [`crate::msg::FailoverMsg::trace_tag`]; off by default — traces grow
    /// with every send.
    pub record_trace: bool,
    /// Latecomers: `(slave index, join time)` pairs. A listed slave starts
    /// with an empty assignment (its slot is carved out of the initial
    /// distribution), idles until the given instant, then joins the running
    /// pool via the [`Msg::Join`] handshake — the master admits it at the
    /// next barrier and re-scatters work onto it. Requires fault mode and
    /// `fault_tolerance.rejoin_attempts > 0`.
    pub late_joiners: Vec<(usize, SimTime)>,
    /// Scheduler worker-pool size override. `None` keeps the kernel default
    /// (`min(8, cores)`); `Some(0)` forces inline single-threaded polling.
    /// Pool size never changes results — only wall-clock time.
    pub worker_threads: Option<usize>,
    /// Event-budget override. `None` keeps the kernel default; a run that
    /// exceeds the budget panics with a livelock diagnosis, so tests and CI
    /// can bound runaway protocols instead of hanging.
    pub max_events: Option<u64>,
}

impl RunConfig {
    /// A homogeneous dedicated cluster of `n` reference-speed slaves.
    pub fn homogeneous(n: usize) -> RunConfig {
        RunConfig {
            slave_nodes: vec![NodeConfig::default(); n],
            net: NetConfig::default(),
            balancer: BalancerConfig::default(),
            record_timeline: false,
            fault_plan: None,
            fault_tolerance: FaultToleranceConfig::default(),
            record_trace: false,
            late_joiners: Vec::new(),
            worker_threads: None,
            max_events: None,
        }
    }
}

/// Everything measured in one run.
#[derive(Debug)]
pub struct RunReport {
    /// Total virtual time, including gather.
    pub elapsed: SimDuration,
    /// Virtual time until the last invocation settled (compute only).
    pub compute_time: SimDuration,
    /// Final unit data, ordered by unit id.
    pub result: Vec<UnitData>,
    pub timeline: Vec<TimelineSample>,
    pub stats: crate::balancer::BalancerStats,
    pub bounds: Option<crate::frequency::PeriodBounds>,
    /// Recovery actions taken; all-zero outside fault mode.
    pub recovery: RecoveryStats,
    pub sim: SimReport,
    pub n_slaves: usize,
}

impl RunReport {
    /// The paper's efficiency metric (§5.1):
    /// `seq_time / Σ_slaves (elapsed − competing_cpu)`.
    ///
    /// `seq_time` is the sequential execution time on one dedicated
    /// reference node. Only slave nodes count (nodes `1..=n_slaves`; node 0
    /// is the master).
    pub fn efficiency(&self, seq_time: SimDuration) -> f64 {
        let mut denom = 0.0;
        for i in 0..self.n_slaves {
            let node = dlb_sim::NodeId(i + 1);
            denom += self
                .sim
                .available_cpu(node)
                .as_secs_f64()
                .min(self.compute_time.as_secs_f64());
        }
        seq_time.as_secs_f64() / denom
    }

    /// Speedup relative to a sequential run.
    pub fn speedup(&self, seq_time: SimDuration) -> f64 {
        seq_time.as_secs_f64() / self.compute_time.as_secs_f64()
    }
}

/// Run `app` (compiled to `plan`) on the configured cluster.
///
/// Panicking wrapper around [`try_run`] for fault-free callers. Panics on
/// configuration mismatches and on any [`RunError`].
pub fn run(app: AppSpec, plan: &ParallelPlan, cfg: RunConfig) -> RunReport {
    try_run(app, plan, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Run `app` (compiled to `plan`) on the configured cluster.
///
/// The plan supplies the movement rule, grain policy, and per-unit movement
/// size estimate; the kernel supplies data and costs. Panics if the plan's
/// pattern does not match the kernel's (caller bug, not a runtime fault);
/// every runtime failure — including everything fault injection can
/// provoke — comes back as a boxed [`RunError`] carrying the partial
/// measurements.
pub fn try_run(
    app: AppSpec,
    plan: &ParallelPlan,
    cfg: RunConfig,
) -> Result<RunReport, Box<RunError>> {
    assert_eq!(
        plan.pattern,
        app.pattern(),
        "plan pattern does not match kernel"
    );
    let n_slaves = cfg.slave_nodes.len();
    assert!(n_slaves > 0, "need at least one slave");
    let n_units = app.n_units();
    assert!(n_units >= n_slaves, "fewer units than slaves");
    let fault_mode = cfg.fault_plan.is_some();
    if fault_mode {
        // Deputies check their election timer from heartbeat slices; a
        // slice coarser than the rank stagger would stand two of them in
        // the same slice, term after term.
        let heartbeat = cfg.fault_tolerance.slave_heartbeat;
        assert!(
            heartbeat <= ELECTION_STAGGER,
            "slave_heartbeat {heartbeat:?} exceeds the election stagger {ELECTION_STAGGER:?}"
        );
    }

    // Latecomer slots: carved out of the initial distribution, parked until
    // their join time, admitted mid-run through the elastic-membership
    // handshake.
    let late_at: Vec<Option<SimTime>> = {
        let mut v = vec![None; n_slaves];
        for &(i, at) in &cfg.late_joiners {
            assert!(i < n_slaves, "late joiner index {i} out of range");
            v[i] = Some(at);
        }
        v
    };
    if !cfg.late_joiners.is_empty() {
        assert!(fault_mode, "late joiners require fault mode");
        assert!(
            cfg.fault_tolerance.rejoin_attempts > 0,
            "late joiners require rejoin_attempts > 0"
        );
    }
    let active: Vec<usize> = (0..n_slaves).filter(|&i| late_at[i].is_none()).collect();
    assert!(
        !active.is_empty(),
        "need at least one slave present at start"
    );

    // Initial block distribution over the slaves present at start, equal as
    // in the paper (measured rates correct it, §3.2); late slots get an
    // empty range at the boundary they sit on.
    let active_ranges = block_ranges(n_units, active.len());
    let assignment: Vec<(usize, usize)> = {
        let mut out = Vec::with_capacity(n_slaves);
        let mut k = 0usize;
        let mut cursor = 0usize;
        for late in late_at.iter().take(n_slaves) {
            if late.is_none() {
                let r = active_ranges[k];
                k += 1;
                cursor = r.1;
                out.push(r);
            } else {
                out.push((cursor, cursor));
            }
        }
        out
    };
    let initial_owned: Vec<u64> = assignment.iter().map(|&(l, h)| (h - l) as u64).collect();

    // The OS quantum that sizes the grain (§4.4) and bounds the balancing
    // period (§4.3) is the slaves': the coarsest one any of them runs on.
    let quantum = cfg.slave_nodes.iter().map(|n| n.quantum).max();
    let quantum = quantum.expect("n_slaves > 0");
    let (block_rows, units_scale, units_per_hook) = app.grain(plan, n_slaves, quantum, &cfg.net);

    // Movement-time estimate per unit: wire + latency from the plan's size.
    let per_unit_move_est = {
        let xfer = cfg.net.transfer_time(plan.unit_bytes);
        cfg.net.latency + xfer
    };

    // Balancing stays live under fault injection: transfers ride the
    // sequenced per-channel windows and evictions fence every channel before
    // units are re-scattered, so movement and crash recovery compose. Only
    // the interaction mode is forced — a synchronous-mode hook blocking on a
    // droppable Instructions message could stall a healthy slave forever.
    let slave_mode = if fault_mode {
        InteractionMode::Pipelined
    } else {
        cfg.balancer.mode
    };
    // The pristine balancer, in the kit every reign starts from: the
    // master's, and in fault mode every slave's.
    let mut balancer = Balancer::new(
        cfg.balancer.clone(),
        initial_owned,
        quantum,
        per_unit_move_est,
        app.invocations(),
        units_per_hook,
    );
    balancer.set_units_scale(units_scale);
    // LU: late steps have fewer active columns than slaves.
    let min_per_slave = if plan.pattern == Pattern::Shrinking {
        0
    } else {
        1
    };
    balancer.set_placement(plan.movement, min_per_slave);

    let mut sim = SimBuilder::<Msg>::new()
        .net(cfg.net.clone())
        .trace_tag(|m: &Msg| match m {
            Msg::Failover(f) => f.trace_tag(),
            _ => None,
        })
        .record_trace(cfg.record_trace);
    if let Some(n) = cfg.max_events {
        sim = sim.max_events(n);
    }
    if let Some(n) = cfg.worker_threads {
        sim = sim.worker_threads(n);
    }
    if let Some(p) = &cfg.fault_plan {
        sim = sim.fault_plan(p.clone());
    }
    // The master runs on a dedicated reference node.
    let master_node = sim.add_node(NodeConfig::default());
    let slave_nodes: Vec<_> = cfg
        .slave_nodes
        .iter()
        .map(|nc| sim.add_node(nc.clone()))
        .collect();

    let outcome = Arc::new(Mutex::new(MasterOutcome::default()));
    // Spawn order fixes actor ids: master = 0, slaves = 1..=n.
    let master_id = dlb_sim::ActorId(0);
    let slave_ids: Vec<_> = (1..=n_slaves).map(dlb_sim::ActorId).collect();

    // In fault mode every slave carries the kit too: the election winner
    // uses it to rebuild the master role in place.
    let kit = Arc::new(TakeoverKit {
        balancer,
        app: app.clone(),
        record_timeline: cfg.record_timeline,
        ft: fault_mode.then(|| cfg.fault_tolerance.clone()),
        master: master_id,
        slaves: slave_ids,
        assignment,
        block_rows,
        outcome: Arc::clone(&outcome),
    });
    let takeover_kit = fault_mode.then(|| Arc::clone(&kit));
    let slave_ft = kit.ft.clone();
    sim.spawn_mail(master_node, "master", move |ctx| run_master(ctx, kit));

    for (i, node) in slave_nodes.into_iter().enumerate() {
        let spec = SlaveSpec {
            idx: i,
            master: master_id,
            mode: slave_mode,
            ft: slave_ft.clone(),
            takeover: takeover_kit.clone(),
            join_at: late_at[i],
        };
        let name = format!("slave{i}");
        // One shell for every slave; the pattern only picks the strategy.
        match &app {
            AppSpec::Independent(k) => {
                let k = Arc::clone(k);
                let make = move |spec: &_, start: &_| Ok(IndependentStrategy::new(k, spec, start));
                sim.spawn_mail(node, name, move |ctx| run_slave(spec, make, ctx));
            }
            AppSpec::Pipelined(k) => {
                let k = Arc::clone(k);
                let make = move |spec: &_, start: &_| PipelinedStrategy::new(k, spec, start);
                sim.spawn_mail(node, name, move |ctx| run_slave(spec, make, ctx));
            }
            AppSpec::Shrinking(k) => {
                let k = Arc::clone(k);
                let make = move |spec: &_, start: &_| Ok(ShrinkingStrategy::new(k, spec, start));
                sim.spawn_mail(node, name, move |ctx| run_slave(spec, make, ctx));
            }
        }
    }

    let sim_report = sim.run();
    let mut o = outcome.lock().unwrap_or_else(|p| p.into_inner());
    let elapsed = sim_report.end_time - SimTime::ZERO;
    let fail = |error: ProtocolError, o: &mut MasterOutcome, sim: SimReport| {
        Box::new(RunError {
            error,
            elapsed,
            stats: o.stats,
            recovery: o.recovery.clone(),
            timeline: std::mem::take(&mut o.timeline),
            sim,
        })
    };
    if let Some(err) = o.error.take() {
        return Err(fail(err, &mut o, sim_report));
    }
    if !o.completed {
        // The simulation drained without the master finishing: something
        // deadlocked in a way the failure detector did not see.
        return Err(fail(
            ProtocolError::Inconsistent {
                detail: "master never completed (simulation drained early)".to_string(),
            },
            &mut o,
            sim_report,
        ));
    }

    let mut gathered = std::mem::take(&mut o.result);
    gathered.sort_by_key(|(id, _)| *id);
    if gathered.len() != n_units || gathered.iter().enumerate().any(|(i, (id, _))| *id != i) {
        let detail = format!(
            "gather lost or duplicated units: got {} of {n_units}",
            gathered.len()
        );
        return Err(fail(
            ProtocolError::Inconsistent { detail },
            &mut o,
            sim_report,
        ));
    }
    let result = gathered.into_iter().map(|(_, d)| d).collect();

    Ok(RunReport {
        elapsed,
        compute_time: o.compute_done - SimTime::ZERO,
        result,
        timeline: std::mem::take(&mut o.timeline),
        stats: o.stats,
        bounds: o.bounds,
        recovery: o.recovery.clone(),
        sim: sim_report,
        n_slaves,
    })
}

/// Contiguous block distribution of `n` units over `p` slaves.
pub fn block_ranges(n: usize, p: usize) -> Vec<(usize, usize)> {
    let base = n / p;
    let rem = n % p;
    let mut out = Vec::with_capacity(p);
    let mut lo = 0;
    for i in 0..p {
        let len = base + usize::from(i < rem);
        out.push((lo, lo + len));
        lo += len;
    }
    debug_assert_eq!(lo, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_sim::CpuWork;

    /// The shape of a SOR grid, all `grain` reads of it.
    struct Grid {
        cols: usize,
        col_len: usize,
        elem: CpuWork,
    }

    impl PipelinedKernel for Grid {
        fn n_units(&self) -> usize {
            self.cols
        }
        fn col_len(&self) -> usize {
            self.col_len
        }
        fn sweeps(&self) -> u64 {
            1
        }
        fn init_unit(&self, _: usize) -> Vec<f64> {
            vec![0.0; self.col_len]
        }
        fn left_wall(&self) -> Vec<f64> {
            vec![0.0; self.col_len]
        }
        fn right_wall(&self) -> Vec<f64> {
            vec![0.0; self.col_len]
        }
        fn compute_block(&self, _: &mut [f64], _: &[f64], _: &[f64], _: std::ops::Range<usize>) {}
        fn elem_cost(&self) -> CpuWork {
            self.elem
        }
    }

    /// `(block_rows, blocks per sweep)` for an `n × n` SOR grid whose
    /// element costs `elem_us` on `slaves` slaves with the 100 ms quantum.
    fn block(n: usize, elem_us: u64, slaves: usize, grain: GrainPolicy) -> (u64, u64) {
        let app = AppSpec::Pipelined(Arc::new(Grid {
            cols: n - 2,
            col_len: n,
            elem: CpuWork::from_micros(elem_us),
        }));
        let mut plan = dlb_compiler::compile(&dlb_compiler::programs::sor(n as i64, 1)).unwrap();
        plan.grain = grain;
        let quantum = SimDuration::from_millis(100);
        let (rows, _, _) = app.grain(&plan, slaves, quantum, &NetConfig::default());
        (rows, (n as u64 - 2).div_ceil(rows))
    }

    const AUTO: GrainPolicy = GrainPolicy::AutoBlock {
        quantum_factor: 1.5,
    };

    /// Fig. 6 and the grain ablation (1998 rows, 8 slaves, 1.5 ms per
    /// row): the fill cap (285 rows) is above the 1.5-quantum block.
    #[test]
    fn paper_shape_keeps_the_quantum_block() {
        assert_eq!(block(2000, 6, 8, AUTO).0, 101);
    }

    /// The wide SOR cell (74 rows of 1.18 ms on 64 slaves): the whole
    /// column was one block; the fill cap (1 row) is lifted to the 1 %
    /// overhead floor, two blocks per sweep.
    #[test]
    fn deep_pipeline_splits_the_sweep_at_the_overhead_floor() {
        assert_eq!(block(76, 1184, 64, AUTO), (43, 2));
    }

    /// One slave has no pipeline to fill: the quantum block alone (12 ms
    /// rows), with neither the fill cap nor the floor.
    #[test]
    fn one_slave_is_uncapped() {
        assert_eq!(block(2000, 6, 1, AUTO), (13, 154));
    }

    /// A fixed block is the caller's, clamped to the column only.
    #[test]
    fn fixed_block_passes_through() {
        let fixed = |iterations| GrainPolicy::FixedBlock { iterations };
        assert_eq!(block(76, 1184, 64, fixed(70)).0, 70);
        assert_eq!(block(76, 1184, 64, fixed(999)).0, 74);
    }
}
