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
use crate::master::{
    run_master, MasterConfig, MasterFt, MasterOutcome, Recovery, TakeoverKit, TimelineSample,
};
use crate::msg::{Msg, UnitData};
use crate::recovery::RecoveryStats;
use crate::session::replica::ELECTION_STAGGER;
use crate::session::slave::{run_slave, SlaveSpec};
use dlb_compiler::{grain_iterations, GrainPolicy, ParallelPlan, Pattern};
use dlb_sim::{FaultPlan, NetConfig, NodeConfig, SimBuilder, SimDuration, SimReport, SimTime};
use std::sync::{Arc, Mutex};

/// The application to run: one kernel per compiler pattern.
#[derive(Clone)]
pub enum AppSpec {
    Independent(Arc<dyn IndependentKernel>),
    Pipelined(Arc<dyn PipelinedKernel>),
    Shrinking(Arc<dyn ShrinkingKernel>),
}

/// Which slave engine the runtime uses for a plan. Factored out of
/// [`try_run`]'s dispatch so static analysis (`dlb-analyze`'s agreement
/// check) can ask "which engine would actually run?" without running.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    Independent,
    Pipelined,
    Shrinking,
}

/// The engine [`try_run`] selects for `plan` — dispatch is purely on the
/// plan's pattern, and [`try_run`] asserts the kernel agrees.
pub fn engine_for(plan: &ParallelPlan) -> EngineKind {
    match plan.pattern {
        Pattern::Independent => EngineKind::Independent,
        Pattern::Pipelined => EngineKind::Pipelined,
        Pattern::Shrinking => EngineKind::Shrinking,
    }
}

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
}

/// How the initial block distribution is sized (§3.2 note: the paper
/// starts equal and lets measured rates correct it; speed-proportional
/// startup is a natural extension when relative speeds are known).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StartupDistribution {
    /// Equal block sizes (the paper's choice).
    #[default]
    Equal,
    /// Blocks proportional to configured node speeds.
    SpeedProportional,
}

/// Cluster + policy configuration for one run.
pub struct RunConfig {
    /// One node per slave (speed, quantum, competing load).
    pub slave_nodes: Vec<NodeConfig>,
    /// The master's node (dedicated by default).
    pub master_node: NodeConfig,
    pub net: NetConfig,
    pub balancer: BalancerConfig,
    /// Record the master's balancing timeline (Fig. 9).
    pub record_timeline: bool,
    /// Initial block sizing.
    pub startup: StartupDistribution,
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
    /// `dlb-lint --conform` input). Election messages are tagged via
    /// [`Msg::trace_tag`]; off by default — traces grow with every send.
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
            master_node: NodeConfig::default(),
            net: NetConfig::default(),
            balancer: BalancerConfig::default(),
            record_timeline: false,
            startup: StartupDistribution::Equal,
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

    // Initial block distribution over the slaves present at start; late
    // slots get an empty range at the boundary they sit on.
    let active_ranges: Vec<(usize, usize)> = match cfg.startup {
        StartupDistribution::Equal => block_ranges(n_units, active.len()),
        StartupDistribution::SpeedProportional => {
            let speeds: Vec<f64> = active.iter().map(|&i| cfg.slave_nodes[i].speed).collect();
            let shares = crate::alloc::proportional_allocation(n_units as u64, &speeds, 1);
            let mut lo = 0usize;
            shares
                .iter()
                .map(|&s| {
                    let r = (lo, lo + s as usize);
                    lo = r.1;
                    r
                })
                .collect()
        }
    };
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

    // Grain selection (§4.4): pipelined block size from the cost model, the
    // OS quantum, and the startup distribution.
    let quantum = cfg.master_node.quantum;
    let (block_rows, _nblocks, invocations, units_scale): (u64, u64, u64, f64) = match &app {
        AppSpec::Independent(k) => (1, 1, k.invocations(), 1.0),
        AppSpec::Pipelined(k) => {
            let rows = (k.col_len() - 2) as u64;
            let local_cols = (n_units / n_slaves).max(1) as u64;
            let per_row = k.elem_cost().dedicated_duration(1.0) * local_cols;
            let block = match plan.grain {
                GrainPolicy::FixedBlock { iterations } => iterations.clamp(1, rows),
                GrainPolicy::AutoBlock { quantum_factor } => {
                    grain_iterations(per_row, quantum, quantum_factor, rows)
                }
                GrainPolicy::Unit => 1,
            };
            let nblocks = rows.div_ceil(block);
            // Work deltas are counted in column-rows; `rows` of them make
            // one column (the allocation unit).
            (block, nblocks, k.sweeps(), rows as f64)
        }
        AppSpec::Shrinking(k) => (1, 1, (k.n_units() as u64).saturating_sub(1), 1.0),
    };

    // Movement-time estimate per unit: wire + latency from the plan's size.
    let per_unit_move_est = {
        let xfer = cfg.net.transfer_time(plan.unit_bytes);
        cfg.net.latency + xfer
    };

    let mut balancer_cfg = cfg.balancer.clone();
    balancer_cfg.movement = plan.movement;
    if matches!(app.pattern(), Pattern::Shrinking) {
        // LU: late steps have fewer active columns than slaves.
        balancer_cfg.min_per_slave = 0;
    }
    let slave_mode = if fault_mode {
        // Balancing stays live under fault injection: transfers ride the
        // sequenced per-channel windows and evictions fence every channel
        // before units are re-scattered, so movement and crash recovery
        // compose. Only the interaction mode is forced — a synchronous-mode
        // hook blocking on a droppable Instructions message could stall a
        // healthy slave forever.
        balancer_cfg.mode = InteractionMode::Pipelined;
        InteractionMode::Pipelined
    } else {
        cfg.balancer.mode
    };
    // Expected work units (in allocation units) between hook firings: one
    // hook per unit for the independent/shrinking engines, one hook per row
    // block (= local_cols / nblocks columns of progress) for the pipelined
    // engine.
    let units_per_hook = match &app {
        AppSpec::Pipelined(k) => {
            // One hook per row block: local_cols × block_rows column-rows,
            // i.e. local_cols × block_rows / rows allocation units.
            let rows = (k.col_len() - 2) as f64;
            (n_units as f64 / n_slaves as f64) * block_rows as f64 / rows
        }
        _ => 1.0,
    };
    // The whole master configuration is built by a factory so a promoted
    // deputy can rebuild the master role from scratch mid-run (the balancer
    // is not replicated — the new reign re-learns rates from the first
    // statuses it sees).
    let make_master_cfg: Arc<dyn Fn() -> MasterConfig + Send + Sync> = {
        let app = app.clone();
        let tol = cfg.fault_tolerance.clone();
        let record_timeline = cfg.record_timeline;
        Arc::new(move || {
            let mut balancer = Balancer::new(
                balancer_cfg.clone(),
                initial_owned.clone(),
                quantum,
                per_unit_move_est,
                invocations,
                units_per_hook,
            );
            balancer.set_units_scale(units_scale);

            // Expected completions per invocation.
            let expected_units: Box<dyn Fn(u64) -> u64 + Send + Sync> = match &app {
                AppSpec::Independent(_) => {
                    let n = n_units as u64;
                    Box::new(move |_| n)
                }
                AppSpec::Pipelined(k) => {
                    let n = n_units as u64;
                    let rows = (k.col_len() - 2) as u64;
                    Box::new(move |_| n * rows)
                }
                AppSpec::Shrinking(_) => {
                    let n = n_units as u64;
                    Box::new(move |k| n - 1 - k)
                }
            };
            let converged: Box<dyn Fn(u64, f64) -> bool + Send + Sync> = match &app {
                AppSpec::Independent(k) => {
                    let k = Arc::clone(k);
                    Box::new(move |inv, metric| k.converged(inv, metric))
                }
                _ => Box::new(|_, _| false),
            };
            // Fault mode wires the master's failure detector, and the
            // pattern picks its recovery policy: the independent pattern
            // gets the unit-reconstruction closures that enable in-place
            // recovery; pipelined/shrinking get the epoch-zero snapshot
            // closure that seeds checkpoint rollback.
            let ft = fault_mode.then(|| MasterFt {
                tolerance: tol.clone(),
                recovery: match &app {
                    AppSpec::Independent(k) => {
                        let (ki, kr) = (Arc::clone(k), Arc::clone(k));
                        Recovery::Rescatter {
                            init_unit: Box::new(move |id| ki.init_unit(id)),
                            recompute_unit: Box::new(move |id, invs| {
                                let mut d = kr.init_unit(id);
                                for i in 0..invs {
                                    kr.compute(id, &mut d, i);
                                }
                                d
                            }),
                        }
                    }
                    AppSpec::Pipelined(k) => {
                        let k = Arc::clone(k);
                        Recovery::Rollback {
                            checkpoint_init: Box::new(move |id| vec![k.init_unit(id)]),
                        }
                    }
                    AppSpec::Shrinking(k) => {
                        let k = Arc::clone(k);
                        Recovery::Rollback {
                            checkpoint_init: Box::new(move |id| vec![k.init_unit(id)]),
                        }
                    }
                },
            });
            MasterConfig {
                balancer,
                invocations,
                expected_units,
                units_per_hook: None,
                record_timeline,
                converged,
                ft,
            }
        })
    };

    let mut sim = SimBuilder::<Msg>::new()
        .net(cfg.net.clone())
        .trace_tag(|m: &Msg| m.trace_tag())
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
    let master_node = sim.add_node(cfg.master_node.clone());
    let slave_nodes: Vec<_> = cfg
        .slave_nodes
        .iter()
        .map(|nc| sim.add_node(nc.clone()))
        .collect();

    let outcome = Arc::new(Mutex::new(MasterOutcome::default()));
    // Spawn order fixes actor ids: master = 0, slaves = 1..=n.
    let master_id = dlb_sim::ActorId(0);
    let slave_ids: Vec<_> = (1..=n_slaves).map(dlb_sim::ActorId).collect();

    {
        let outcome = Arc::clone(&outcome);
        let slave_ids = slave_ids.clone();
        let assignment = assignment.clone();
        let master_cfg = make_master_cfg();
        sim.spawn_mail(master_node, "master", move |ctx| {
            run_master(ctx, master_cfg, slave_ids, assignment, block_rows, outcome)
        });
    }

    // In fault mode every slave carries the takeover kit: the election
    // winner uses it to rebuild the master role in place.
    let takeover_kit = fault_mode.then(|| {
        let make_cfg = Arc::clone(&make_master_cfg);
        Arc::new(TakeoverKit {
            make_cfg: Box::new(move || make_cfg()),
            master: master_id,
            slaves: slave_ids.clone(),
            assignment: assignment.clone(),
            block_rows,
            outcome: Arc::clone(&outcome),
        })
    });

    let slave_ft = fault_mode.then(|| cfg.fault_tolerance.clone());
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
