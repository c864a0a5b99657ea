//! Golden event streams for the fault-mode master and the slave runner.
//!
//! The chaos files assert bit-exact *results*; this file pins the *event
//! stream* of the same shapes, so a refactor of the master's control loop
//! cannot move a message without a diff here. One row per cell:
//! `(elapsed µs, sim.events_processed, sim.trace_hash, {recovery:?})`, the
//! last with its zero fields elided.
//! The matrix is {MM, SOR, LU} — the re-scatter and the rollback recovery
//! policies — × {armed and quiet; drop + dup + jitter + slave crash; a
//! frozen slave that thaws before suspicion; master crash mid-invocation,
//! mid-rollback, mid-transfer, twice, and (LU) inside a dead slave's
//! suspicion window; slave crash during the gather and
//! overlapping crashes; late join, partition → evict → heal → rejoin, and a
//! master crash with a join in flight}, at 4–16 slaves, each run at worker
//! pool sizes 0 and 8. The master is only armed in fault mode, so the
//! slave's *unarmed* path — and its first-release wait on a slow wire — get
//! rows of their own (`slave_rows`).
//!
//! A diff here means an event moved. Re-record (the failure message prints
//! paste-ready rows) only if the change meant it to.

use dlb::apps::{Calibration, Lu, MatMul, Sor};
use dlb::compiler::ParallelPlan;
use dlb::core::driver::{try_run, AppSpec, RunConfig, RunReport};
use dlb::core::kernels::IndependentKernel;
use dlb::core::msg::UnitData;
use dlb::core::InteractionMode;
use dlb::sim::{CpuWork, FaultPlan, LinkFaults, LoadModel, SimDuration, SimTime};
use std::sync::Arc;

/// Node 0 is the master; node `i + 1` is slave `i`.
const MASTER: usize = 0;

fn node(slave: usize) -> usize {
    slave + 1
}

/// A kernel, its plan, and its bit-exactness check against the sequential
/// reference.
#[derive(Clone)]
struct Prog {
    spec: AppSpec,
    plan: ParallelPlan,
    exact: Arc<dyn Fn(&RunReport) -> bool>,
}

impl Prog {
    fn mm(n: usize, reps: u64) -> Prog {
        let k = Arc::new(MatMul::new(n, reps, 7, &Calibration::new(0.05)));
        Prog {
            plan: dlb::compiler::compile(&k.program()).unwrap(),
            spec: AppSpec::Independent(k.clone()),
            exact: Arc::new(move |r| MatMul::result_c(&r.result) == k.sequential()),
        }
    }

    /// MM whose WHILE test ends the run after `stop` of `reps` repetitions.
    fn mm_stopping_after(n: usize, reps: u64, stop: u64) -> Prog {
        let cal = Calibration::new(0.05);
        let k = Arc::new(StopsEarly {
            mm: MatMul::new(n, reps, 7, &cal),
            stop,
        });
        let reference = MatMul::new(n, stop, 7, &cal).sequential();
        Prog {
            plan: dlb::compiler::compile(&k.mm.program()).unwrap(),
            spec: AppSpec::Independent(k),
            exact: Arc::new(move |r| MatMul::result_c(&r.result) == reference),
        }
    }

    fn sor(n: usize, sweeps: u64, mflops: f64) -> Prog {
        let k = Arc::new(Sor::new(n, sweeps, 7, &Calibration::new(mflops)));
        Prog {
            plan: dlb::compiler::compile(&k.program()).unwrap(),
            spec: AppSpec::Pipelined(k.clone()),
            exact: Arc::new(move |r| k.result_grid(&r.result) == k.sequential()),
        }
    }

    fn lu(n: usize) -> Prog {
        let k = Arc::new(Lu::new(n, 7, &Calibration::new(0.002)));
        Prog {
            plan: dlb::compiler::compile(&k.program()).unwrap(),
            spec: AppSpec::Shrinking(k.clone()),
            exact: Arc::new(move |r| Lu::result_cols(&r.result) == k.sequential()),
        }
    }

    fn run(&self, label: &str, cfg: RunConfig) -> RunReport {
        let report = try_run(self.spec.clone(), &self.plan, cfg)
            .unwrap_or_else(|e| panic!("{label}: {}", e.error));
        assert!((self.exact)(&report), "{label}: result must be exact");
        report
    }
}

struct StopsEarly {
    mm: MatMul,
    stop: u64,
}

impl IndependentKernel for StopsEarly {
    fn n_units(&self) -> usize {
        self.mm.n_units()
    }
    fn invocations(&self) -> u64 {
        self.mm.invocations()
    }
    fn init_unit(&self, idx: usize) -> UnitData {
        self.mm.init_unit(idx)
    }
    fn compute(&self, idx: usize, unit: &mut UnitData, invocation: u64) {
        self.mm.compute(idx, unit, invocation)
    }
    fn unit_cost(&self) -> CpuWork {
        self.mm.unit_cost()
    }
    fn converged(&self, invocation: u64, _metric: f64) -> bool {
        invocation + 1 >= self.stop
    }
}

/// The three kernels at one cluster width, named for the row labels. The
/// `long` variants leave barriers for re-admissions after a partition heals
/// (SOR needs none: its heal lands inside the ordinary run).
struct Apps {
    slaves: usize,
    apps: [(&'static str, Prog, Prog); 3],
}

impl Apps {
    /// `tests/chaos.rs` sizes.
    fn small() -> Apps {
        let (mm, sor, lu) = (Prog::mm(24, 3), Prog::sor(18, 4, 0.002), Prog::lu(20));
        Apps {
            slaves: 4,
            apps: [
                ("mm", mm.clone(), mm),
                ("sor", sor.clone(), sor),
                ("lu", lu.clone(), lu),
            ],
        }
    }

    /// `tests/chaos_{scale,failover,join}.rs` sizes.
    fn wide() -> Apps {
        let sor = Prog::sor(36, 4, 0.002);
        Apps {
            slaves: 16,
            apps: [
                ("mm", Prog::mm(32, 3), Prog::mm(32, 12)),
                ("sor", sor.clone(), sor),
                ("lu", Prog::lu(24), Prog::lu(40)),
            ],
        }
    }

    fn cfg(&self, pool: usize, plan: FaultPlan) -> RunConfig {
        let mut cfg = RunConfig::homogeneous(self.slaves);
        cfg.balancer.enabled = true;
        cfg.fault_plan = Some(plan);
        cfg.worker_threads = Some(pool);
        cfg
    }

    /// `tests/chaos_join.rs`: tolerances tightened so evictions, heals and
    /// rejoins fit inside a short run, elastic membership on.
    fn join_cfg(&self, pool: usize, plan: FaultPlan, windows_ms: [u64; 5]) -> RunConfig {
        let [suspicion, speculate_after, nudge, heartbeat, backoff] =
            windows_ms.map(SimDuration::from_millis);
        let mut cfg = self.cfg(pool, plan);
        let ft = &mut cfg.fault_tolerance;
        ft.suspicion = suspicion;
        ft.speculate_after = speculate_after;
        ft.nudge = nudge;
        ft.slave_heartbeat = heartbeat;
        ft.rejoin_attempts = 10;
        ft.rejoin_backoff = backoff;
        cfg
    }
}

/// `[suspicion, speculate_after, nudge, slave_heartbeat, rejoin_backoff]` in
/// ms: the join cells, the MM/LU partition cells (eviction, heal and rejoin
/// must all land inside a short run), and the SOR partition cell (its
/// compute chunks outlast a 500 ms suspicion window).
const JOIN_MS: [u64; 5] = [1000, 600, 300, 200, 300];
const PARTITION_MS: [u64; 5] = [500, 400, 200, 100, 200];
const SOR_PARTITION_MS: [u64; 5] = [2000, 1600, 800, 200, 400];

type Row = (String, u64, u64, u64, String);

/// `format!("{:?}", r.recovery)` minus the fields that are `0` or `None`
/// (three quarters of them in any one cell): nothing is lost, and a moved
/// counter stands out in the diff.
fn row(label: String, r: &RunReport) -> Row {
    let debug = format!("{:?}", r.recovery);
    let fields = debug
        .strip_prefix("RecoveryStats { ")
        .and_then(|d| d.strip_suffix(" }"))
        .expect("derived Debug of a struct");
    let nonzero: Vec<&str> = fields
        .split(", ")
        .filter(|f| !f.ends_with(": 0") && !f.ends_with(": None"))
        .collect();
    (
        label,
        r.elapsed.0,
        r.sim.events_processed,
        r.sim.trace_hash,
        nonzero.join(", "),
    )
}

/// Every cell of the matrix at one pool size, in table order.
fn matrix(pool: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    let small = Apps::small();
    let wide = Apps::wide();

    for (i, (name, app, _)) in small.apps.iter().enumerate() {
        let seed = 100 + i as u64;
        // Per-engine crash instant (µs) that lands mid-run.
        let at = [200_000, 300_000, 200_000][i];

        let label = format!("quiet4/{name}");
        let r = app.run(&label, small.cfg(pool, FaultPlan::new(seed)));
        rows.push(row(label, &r));

        let label = format!("wire_crash4/{name}");
        let plan = FaultPlan::new(seed + 10)
            .drop_all(0.05)
            .dup_all(0.02)
            .jitter_all(0.1, SimDuration::from_millis(20))
            .crash(node(1), SimTime(at));
        let r = app.run(&label, small.cfg(pool, plan));
        rows.push(row(label, &r));

        // Frozen past `speculate_after` (4 s), thawed before `suspicion`
        // (8 s): a speculation is launched and then cancelled.
        let label = format!("freeze4/{name}");
        let plan = FaultPlan::new(seed + 20).freeze(node(2), SimTime(at), SimTime(at + 6_000_000));
        let r = app.run(&label, small.cfg(pool, plan));
        rows.push(row(label, &r));
    }

    for (i, (name, app, long)) in wide.apps.iter().enumerate() {
        let seed = 200 + 10 * i as u64;
        let at = [200_000, 300_000, 200_000][i];

        let label = format!("master_mid_invocation/{name}");
        let plan = FaultPlan::new(seed).crash(MASTER, SimTime(at));
        let r = app.run(&label, wide.cfg(pool, plan));
        rows.push(row(label, &r));

        // The master is only frozen: a deputy is elected meanwhile, and the
        // thawed master must retire silently on the winner's `Promoted`.
        let label = format!("master_frozen_then_superseded/{name}");
        let plan = FaultPlan::new(seed).freeze(MASTER, SimTime(at), SimTime(at + 14_000_000));
        let r = app.run(&label, wide.cfg(pool, plan));
        rows.push(row(label, &r));

        // `tests/chaos_scale.rs` wire faults, one flavour per cell.
        let wire = [
            ("drop", FaultPlan::new(seed + 8).drop_all(0.05)),
            ("dup", FaultPlan::new(seed + 8).dup_all(0.05)),
            (
                "jitter",
                FaultPlan::new(seed + 8).jitter_all(0.2, SimDuration::from_millis(20)),
            ),
        ];
        for (fault, plan) in wire {
            let label = format!("{fault}16/{name}");
            let r = app.run(&label, wide.cfg(pool, plan));
            rows.push(row(label, &r));
        }

        // Probe runs pin the instant to aim the next fault at: a fault plan
        // is invisible until its first fault fires.
        let first = FaultPlan::new(seed + 1).crash(node(3), SimTime(at));
        let probe = app.run("probe", wide.cfg(pool, first.clone()));
        let death = probe
            .recovery
            .first_death
            .expect("probe declares a death")
            .0;

        // The master dies right after declaring the slave dead: with its
        // rollback (or its eviction fence) unacknowledged.
        let label = format!("master_mid_rollback/{name}");
        let plan = first.clone().crash(MASTER, SimTime(death + 300));
        let r = app.run(&label, wide.cfg(pool, plan));
        rows.push(row(label, &r));

        // The master dies inside the slave's suspicion window, before it
        // declares the death: the dead slave's fragments died with it, so
        // no invocation is complete among the survivors' and the successor
        // restarts from the initial data — every checkpoint the dead master
        // had banked is lost.
        if *name == "lu" {
            let label = "master_inside_suspicion/lu".to_string();
            let plan = first.clone().crash(MASTER, SimTime((at + death) / 2));
            let r = app.run(&label, wide.cfg(pool, plan));
            assert!(r.recovery.checkpoints_lost_to_stale_replica > 0, "{label}");
            rows.push(row(label, &r));
        }

        // A second slave dies with the recovery for the first in flight.
        let label = format!("overlapping_crashes/{name}");
        let plan = first.crash(node(9), SimTime(death + 300));
        let r = app.run(&label, wide.cfg(pool, plan));
        rows.push(row(label, &r));

        // Two slow slaves keep the balancer moving units; the master dies
        // just after its first decision, with migrations in flight.
        let slow = |plan| {
            let mut cfg = wide.cfg(pool, plan);
            cfg.slave_nodes[2].speed = 0.3;
            cfg.slave_nodes[9].speed = 0.3;
            cfg.record_timeline = true;
            cfg
        };
        let probe = app.run("probe", slow(FaultPlan::new(seed + 2)));
        let decided = probe.timeline.first().expect("a balancing decision").t.0;
        let label = format!("master_mid_transfer/{name}");
        let plan = FaultPlan::new(seed + 2).crash(MASTER, SimTime(decided + 200));
        let r = app.run(&label, slow(plan));
        rows.push(row(label, &r));

        // The election winner (deputy 0) dies mid-reign: second failover.
        let first = FaultPlan::new(seed + 3).crash(MASTER, SimTime(at));
        let probe = app.run("probe", wide.cfg(pool, first.clone()));
        let latency = probe.recovery.takeover_latency.expect("probe fails over");
        let mid_reign = (at + latency.0 + probe.elapsed.0) / 2;
        let label = format!("double_failover/{name}");
        let plan = first.crash(node(0), SimTime(mid_reign));
        let r = app.run(&label, wide.cfg(pool, plan));
        rows.push(row(label, &r));

        // A slave dies just after the master sends `Gather` — on a clean
        // wire, then on one that drops, duplicates and reorders.
        let probe = app.run("probe", wide.cfg(pool, FaultPlan::new(seed + 4)));
        let label = format!("crash_in_gather/{name}");
        let plan = FaultPlan::new(seed + 4).crash(node(4), SimTime(probe.compute_time.0 + 50));
        let r = app.run(&label, wide.cfg(pool, plan));
        rows.push(row(label, &r));

        let lossy = |plan: FaultPlan| {
            plan.drop_all(0.02)
                .dup_all(0.05)
                .jitter_all(0.2, SimDuration::from_millis(20))
        };
        let label = format!("crash_in_gather_lossy/{name}");
        let probe = app.run("probe", wide.cfg(pool, lossy(FaultPlan::new(seed + 4))));
        let plan =
            lossy(FaultPlan::new(seed + 4)).crash(node(4), SimTime(probe.compute_time.0 + 50));
        let r = app.run(&label, wide.cfg(pool, plan));
        rows.push(row(label, &r));

        let joiner = 5 + 2 * i;
        let label = format!("late_join/{name}");
        let mut cfg = wide.join_cfg(pool, FaultPlan::new(seed + 5), JOIN_MS);
        cfg.late_joiners = vec![(joiner, SimTime(at - 50_000))];
        let r = app.run(&label, cfg);
        rows.push(row(label, &r));

        let label = format!("master_crash_join_in_flight/{name}");
        let plan = FaultPlan::new(seed + 6).crash(MASTER, SimTime(at - 40_000));
        let mut cfg = wide.join_cfg(pool, plan, JOIN_MS);
        cfg.late_joiners = vec![(joiner, SimTime(at - 50_000))];
        let r = app.run(&label, cfg);
        rows.push(row(label, &r));

        // The same two shapes on the lossy wire: stale-epoch and
        // previous-life reports straggle in.
        let label = format!("late_join_lossy/{name}");
        let mut cfg = wide.join_cfg(pool, lossy(FaultPlan::new(seed + 5)), JOIN_MS);
        cfg.late_joiners = vec![(joiner, SimTime(at - 50_000))];
        let r = app.run(&label, cfg);
        rows.push(row(label, &r));

        let label = format!("master_crash_join_in_flight_lossy/{name}");
        let plan = lossy(FaultPlan::new(seed + 6)).crash(MASTER, SimTime(at - 40_000));
        let mut cfg = wide.join_cfg(pool, plan, JOIN_MS);
        cfg.late_joiners = vec![(joiner, SimTime(at - 50_000))];
        let r = app.run(&label, cfg);
        rows.push(row(label, &r));

        // Slaves 12..15 are cut off (the deputies stay with the master),
        // evicted by the quorum side, and rejoin after the heal.
        let minority: Vec<usize> = (12..16).map(node).collect();
        let (from, until, windows) = if *name == "sor" {
            (200_000, 3_000_000, SOR_PARTITION_MS)
        } else {
            (150_000, 1_200_000, PARTITION_MS)
        };
        let label = format!("partition_heal_rejoin/{name}");
        let plan = FaultPlan::new(seed + 7).partition(
            SimTime(from),
            SimTime(until),
            vec![minority.clone()],
        );
        let r = long.run(&label, wide.join_cfg(pool, plan.clone(), windows));
        rows.push(row(label, &r));

        let label = format!("crash_inside_partition/{name}");
        let plan = plan.crash(node(4), SimTime(400_000));
        let r = long.run(&label, wide.join_cfg(pool, plan, windows));
        rows.push(row(label, &r));

        let label = format!("partition_heal_rejoin_lossy/{name}");
        let plan = lossy(FaultPlan::new(seed + 7)).partition(
            SimTime(from),
            SimTime(until),
            vec![minority],
        );
        let r = long.run(&label, wide.join_cfg(pool, plan.clone(), windows));
        rows.push(row(label, &r));

        // The same cell with `speculate_after` at `suspicion`, which only
        // switches snapshot speculation off: slave 1 is evicted while a
        // complete checkpoint of the end state is banked, slave 6 loses the
        // `Rollback` onto it and answers the `Gather` from the partition it
        // replaced, one unit short. The gather must replay slave 6's window
        // and take the re-delivery; a master that waits instead keeps
        // pinging its deputies until the event budget runs out.
        if *name == "sor" {
            let label = "final_rollback_lost/sor".to_string();
            let [suspicion, _, nudge, heartbeat, backoff] = windows;
            let windows = [suspicion, suspicion, nudge, heartbeat, backoff];
            let mut cfg = wide.join_cfg(pool, plan, windows);
            cfg.max_events = Some(50_000);
            let r = long.run(&label, cfg);
            rows.push(row(label, &r));
        }
    }

    // Slave 1's sends to slave 5 are all lost, so slave 5 never hears the
    // broadcast of a pivot slave 1 owns. It asks a peer for it again; a
    // slave that waited instead would ping for one window, fall silent and
    // be evicted with no fault of its own.
    let label = "pivot_link_cut/lu".to_string();
    let cut = LinkFaults {
        drop_p: 1.0,
        ..Default::default()
    };
    let plan = FaultPlan::new(77).link(node(2), node(6), cut);
    let r = wide.apps[2].1.run(&label, wide.cfg(pool, plan));
    rows.push(row(label, &r));

    // Slaves 13..15 are cut off before their first report and evicted; the
    // master ends at 0.92 s, the partition heals at 2 s. Their `Evict` was
    // lost, so the minority learns the run is over from what the finished
    // master answers the first done report that gets through.
    let label = "heal_after_end/mm".to_string();
    let minority: Vec<usize> = (13..16).map(node).collect();
    let plan = FaultPlan::new(250).partition(SimTime(40_000), SimTime(2_000_000), vec![minority]);
    let r = wide.apps[0]
        .1
        .run(&label, wide.join_cfg(pool, plan, PARTITION_MS));
    assert_eq!(r.sim.deliveries_after_exit, 3, "{label}: one report each");
    rows.push(row(label, &r));

    // Data-dependent WHILE termination under the re-scatter policy (the
    // driver wires no convergence test for the other two engines): the run
    // stops after two of three repetitions, through a slave crash.
    let label = "converges_early4/mm".to_string();
    let plan = FaultPlan::new(130).crash(node(1), SimTime(200_000));
    let r = Prog::mm_stopping_after(24, 3, 2).run(&label, small.cfg(pool, plan));
    rows.push(row(label, &r));

    // Armed, quiet, and wide enough that a pipelined slave waiting on its
    // left neighbour "has never spoken" when the nudge timer fires: the
    // master re-sends it Start + InvocationStart with no fault anywhere.
    // Pins `start_resends` / `invocation_start_resends` by name.
    let label = format!("quiet{QUIET_SOR_SLAVES}/sor");
    let sor = Prog::sor(QUIET_SOR_SLAVES + 12, 3, 0.02 * 76.0 / 300.0);
    let mut cfg = RunConfig::homogeneous(QUIET_SOR_SLAVES);
    cfg.fault_plan = Some(FaultPlan::new(300));
    cfg.worker_threads = Some(pool);
    let r = sor.run(&label, cfg);
    assert!(r.recovery.start_resends > 0, "{label}: {:?}", r.recovery);
    assert!(!r.sim.fault.any(), "{label}: no fault fired");
    rows.push(row(label, &r));

    slave_rows(pool, &small, &wide, &mut rows);
    rows
}

/// Cells aimed at the *slave* runner rather than the master's fault loop:
/// the unarmed path every `results/*.txt` table rides (blocking receives,
/// no heartbeats), and the armed first-release wait under a wire slow
/// enough to reorder the start-up traffic.
fn slave_rows(pool: usize, small: &Apps, wide: &Apps, rows: &mut Vec<Row>) {
    // A competing task lands on slave 1 mid-run, so movement orders execute
    // and `TransferAck`s reach slaves already parked at the barrier.
    let plain = |slaves: usize, mode: InteractionMode, at_ms: u64| {
        let mut cfg = RunConfig::homogeneous(slaves);
        cfg.balancer.mode = mode;
        cfg.slave_nodes[1].load = LoadModel::Trace(vec![(SimTime(at_ms * 1000), 2)]);
        cfg.worker_threads = Some(pool);
        cfg
    };
    let modes = [
        ("sync", InteractionMode::Synchronous),
        ("pipe", InteractionMode::Pipelined),
    ];
    let mms = [(4, Prog::mm(24, 6)), (16, Prog::mm(64, 4))];
    for (slaves, mm) in &mms {
        for (tag, mode) in modes {
            let label = format!("plain_load{slaves}/mm/{tag}");
            let r = mm.run(&label, plain(*slaves, mode, 100));
            assert!(r.stats.units_moved > 0, "{label}: {:?}", r.stats);
            rows.push(row(label, &r));
        }
    }
    for (name, app, _) in &small.apps[1..] {
        let label = format!("plain_load4/{name}");
        let r = app.run(&label, plain(4, InteractionMode::Pipelined, 100));
        assert!(r.stats.units_moved > 0, "{label}: {:?}", r.stats);
        rows.push(row(label, &r));
    }

    // The master's WHILE test ends an unarmed run at a non-final barrier.
    let label = "plain_converges_early4/mm".to_string();
    let r =
        Prog::mm_stopping_after(24, 3, 2).run(&label, plain(4, InteractionMode::Pipelined, 100));
    rows.push(row(label, &r));

    // Armed MM on a wire that delays and duplicates half of everything by
    // up to 400 ms: start-up traffic (`Start`, the first `InvocationStart`,
    // early instructions) reaches the first-release wait out of step.
    for (slaves, mm) in [(4, &small.apps[0].1), (wide.slaves, &wide.apps[0].1)] {
        let label = format!("slow_wire{slaves}/mm");
        let plan = FaultPlan::new(140 + slaves as u64)
            .dup_all(0.5)
            .jitter_all(0.5, SimDuration::from_millis(400));
        let mut cfg = RunConfig::homogeneous(slaves);
        cfg.slave_nodes[1].speed = 0.3;
        cfg.fault_plan = Some(plan);
        cfg.worker_threads = Some(pool);
        let r = mm.run(&label, cfg);
        rows.push(row(label, &r));
    }

    // A `Gather` from a master that dies right after sending it, in flight
    // on a link slower than the election (per-pair FIFO cannot order it
    // against the *successor's* traffic). Every survivor holds its fragment
    // of the end state, so the successor collects them and restarts there:
    // the stale `Gather` reaches a slave at the final barrier and is
    // answered like the successor's own, with no second rollback. (Restored
    // onto an older barrier, the slave would have had to report it as a
    // protocol violation: `GatherData` carries no epoch to fence a reply.)
    let label = "stale_gather4/sor".to_string();
    let sor = &small.apps[1].1;
    let slow = |plan: FaultPlan| {
        let faults = LinkFaults {
            jitter_p: 1.0,
            max_jitter: SimDuration::from_secs(12),
            ..Default::default()
        };
        plan.link(MASTER, node(3), faults)
    };
    let probe = sor.run("probe", small.cfg(pool, slow(FaultPlan::new(4))));
    let plan = slow(FaultPlan::new(4)).crash(MASTER, SimTime(probe.compute_time.0 + 2000));
    let r = sor.run(&label, small.cfg(pool, plan));
    assert_eq!(r.recovery.rollbacks, 1, "{label}: the takeover's alone");
    rows.push(row(label, &r));
}

/// Narrowest quiet armed SOR cluster whose pipeline fill outlasts the
/// default nudge timer.
const QUIET_SOR_SLAVES: usize = 31;

#[test]
fn event_streams_match_the_recorded_constants() {
    for pool in [0, 8] {
        let rows = matrix(pool);
        let matches = rows.len() == GOLDEN.len()
            && rows.iter().zip(GOLDEN).all(|(r, g)| {
                (r.0.as_str(), r.1, r.2, r.3, r.4.as_str()) == (g.0, g.1, g.2, g.3, g.4)
            });
        if !matches {
            let mut table = String::new();
            for (i, r) in rows.iter().enumerate() {
                let moved = GOLDEN.get(i).is_none_or(|g| {
                    (r.0.as_str(), r.1, r.2, r.3, r.4.as_str()) != (g.0, g.1, g.2, g.3, g.4)
                });
                let mark = if moved { " // MOVED" } else { "" };
                table.push_str(&format!(
                    "    ({:?}, {}, {}, {:#018x}, {:?}),{mark}\n",
                    r.0, r.1, r.2, r.3, r.4
                ));
            }
            panic!("pool {pool}: the event stream moved; actual rows:\n{table}");
        }
    }
}

/// `(cell, elapsed µs, events processed, trace hash, recovery counters)`,
/// recorded at the commit before the two fault-mode loops were merged; the
/// `plain_*`, `slow_wire*` and `stale_gather*` rows at the commit before the independent
/// engine moved under the shared slave runner. Every `/sor` and `/lu` row was
/// re-recorded when replicas became scalars and a takeover began collecting
/// the survivors' fragments, and `master_inside_suspicion/lu` was first
/// recorded then (CHANGES.md lists before → after).
/// `final_rollback_lost/sor` was first recorded with the gather's replay of an
/// unacknowledged window; a master without it exhausts that row's event budget.
/// `pivot_link_cut/lu` was first recorded before a blocked slave asked a peer
/// for a lost pivot (15.760343 s, one healthy slave evicted), and re-recorded
/// with the 18 rows that change and its once-per-invocation race moved.
/// `heal_after_end/mm` was first recorded before a finished master answered
/// what reaches it with `Abort` (9.207958 s: the minority's 90 silent
/// heartbeats), and re-recorded with the 11 rows that answer moved.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64, u64, &str)] = &[
    ("quiet4/mm", 435544, 604, 0xfbad34e7133c8371, "replicas_published: 9, replication_bytes: 3780"),
    ("wire_crash4/mm", 13102864, 1010, 0x9183ca763fad2b69, "slaves_declared_dead: 1, first_death: Some(t=8.297802s), restore_resends: 3, start_resends: 1, invocation_start_resends: 1, gather_resends: 1, status_dups_ignored: 1, done_dups_ignored: 3, speculations_launched: 1, speculations_committed: 1, units_speculated: 6, speculations_computed: 1, replicas_published: 8, replication_bytes: 4720"),
    ("freeze4/mm", 6439238, 854, 0x0a4b8e281e32230d, "instr_resends: 1, invocation_start_resends: 1, done_dups_ignored: 1, speculations_launched: 1, speculations_cancelled: 1, speculations_computed: 1, replicas_published: 9, replication_bytes: 4500"),
    ("quiet4/sor", 2660925, 848, 0x1ce0e9bfbf8aac85, "checkpoints_banked: 3, checkpoints_sent: 16, replicas_published: 12, replication_bytes: 5280"),
    ("wire_crash4/sor", 25079613, 1549, 0xdaff7321b6191ef6, "slaves_declared_dead: 2, first_death: Some(t=8.014336s), start_resends: 9, invocation_start_resends: 9, checkpoints_banked: 3, rollbacks: 3, units_rolled_back: 48, speculations_launched: 2, speculations_committed: 2, units_speculated: 22, stale_epoch_dropped: 2, rollbacks_applied: 6, checkpoints_sent: 43, speculations_computed: 2, replicas_published: 13, replication_bytes: 7700"),
    ("freeze4/sor", 8646072, 1130, 0xfac543f552ef59f2, "start_resends: 6, invocation_start_resends: 6, checkpoints_banked: 3, speculations_launched: 1, speculations_committed: 1, units_speculated: 16, checkpoints_sent: 25, speculations_computed: 1, replicas_published: 12, replication_bytes: 6000"),
    ("quiet4/lu", 853816, 2762, 0xdf93aef120fea0c1, "checkpoints_banked: 18, checkpoints_sent: 96, replicas_published: 57, replication_bytes: 23940"),
    ("wire_crash4/lu", 17525714, 3286, 0x0536bbe5c11558c0, "slaves_declared_dead: 1, first_death: Some(t=8.243589s), instr_resends: 3, invocation_start_resends: 3, gather_resends: 1, done_dups_ignored: 4, checkpoints_banked: 16, rollbacks: 1, units_rolled_back: 20, speculations_launched: 1, speculations_committed: 1, units_speculated: 20, rollbacks_applied: 3, checkpoints_sent: 115, speculations_computed: 1, replicas_published: 40, replication_bytes: 18480"),
    ("freeze4/lu", 6880398, 3092, 0xf2d17b95ccc9de99, "instr_resends: 1, invocation_start_resends: 1, done_dups_ignored: 1, checkpoints_banked: 19, speculations_launched: 1, speculations_committed: 1, units_speculated: 5, checkpoints_sent: 113, speculations_computed: 1, replicas_published: 57, replication_bytes: 24660"),
    ("master_mid_invocation/mm", 8461536, 2544, 0x401aaad6390de8d7, "rollbacks: 1, units_rolled_back: 32, rollbacks_applied: 15, elections_held: 1, takeover_latency: Some(8.047046s), replicas_published: 7, replication_bytes: 3696"),
    ("master_frozen_then_superseded/mm", 14286200, 3389, 0x04c206459b300558, "rollbacks: 1, units_rolled_back: 32, rollbacks_applied: 15, elections_held: 1, takeover_latency: Some(8.047046s), replicas_published: 7, replication_bytes: 3696"),
    ("drop16/mm", 15288590, 2148, 0x55dbe3f09998c25f, "instr_resends: 4, start_resends: 1, invocation_start_resends: 5, gather_resends: 1, done_dups_ignored: 5, replicas_published: 9, replication_bytes: 5472"),
    ("dup16/mm", 322491, 1740, 0x97b1089860e7eb2d, "status_dups_ignored: 2, done_dups_ignored: 2, replicas_published: 9, replication_bytes: 4752"),
    ("jitter16/mm", 374360, 1727, 0xf3514e92540c0c29, "replicas_published: 9, replication_bytes: 4752"),
    ("master_mid_rollback/mm", 24184335, 4253, 0x999b24dbb84f4108, "slaves_declared_dead: 1, first_death: Some(t=24.157431s), restore_resends: 17, done_dups_ignored: 14, rollbacks: 1, units_rolled_back: 32, speculations_launched: 1, speculations_committed: 1, units_speculated: 2, rollbacks_applied: 14, speculations_computed: 1, elections_held: 1, takeover_latency: Some(8.002530s), replicas_published: 8, replication_bytes: 4864"),
    ("overlapping_crashes/mm", 15456566, 3812, 0xb82ce492ea77b273, "slaves_declared_dead: 2, first_death: Some(t=8.302646s), units_restored: 2, restore_resends: 32, done_dups_ignored: 28, speculations_launched: 1, speculations_committed: 1, units_speculated: 2, speculations_computed: 1, replicas_published: 9, replication_bytes: 6552"),
    ("master_mid_transfer/mm", 9212492, 2418, 0xbc0d77d6e1f9ff37, "done_dups_ignored: 1, rollbacks: 1, units_rolled_back: 32, rollbacks_applied: 15, elections_held: 1, takeover_latency: Some(8.044109s), replicas_published: 6, replication_bytes: 3248"),
    ("double_failover/mm", 18594779, 3359, 0x5639130218eb7dca, "rollbacks: 2, units_rolled_back: 64, rollbacks_applied: 28, elections_held: 2, takeover_latency: Some(10.085385s), replicas_published: 6, replication_bytes: 3168"),
    ("crash_in_gather/mm", 8324987, 1924, 0x4d0f9b0142a01b65, "slaves_declared_dead: 1, first_death: Some(t=8.324787s), units_recomputed: 2, gather_resends: 3, gathers_interrupted: 1, replicas_published: 9, replication_bytes: 5712"),
    ("crash_in_gather_lossy/mm", 10331743, 2135, 0xc039411f4f448e85, "slaves_declared_dead: 1, first_death: Some(t=10.330943s), units_recomputed: 2, gather_resends: 4, status_dups_ignored: 3, done_dups_ignored: 3, gather_dups_ignored: 3, gathers_interrupted: 1, replicas_published: 9, replication_bytes: 5952"),
    ("late_join/mm", 362559, 1692, 0xdf53f1ec7d972300, "rollbacks: 1, units_rolled_back: 32, joins_admitted: 1, join_snapshot_bytes: 1200, rollbacks_applied: 16, replicas_published: 9, replication_bytes: 4752"),
    ("master_crash_join_in_flight/mm", 8531039, 3990, 0x9469ebabc0e779a8, "rollbacks: 2, units_rolled_back: 64, joins_admitted: 1, join_snapshot_bytes: 1192, rollbacks_applied: 29, elections_held: 1, takeover_latency: Some(8.091372s), replicas_published: 7, replication_bytes: 3696"),
    ("late_join_lossy/mm", 1109733, 2293, 0xa86e6ebd042a06c0, "restore_resends: 2, start_resends: 1, invocation_start_resends: 1, status_dups_ignored: 12, rollbacks: 1, units_rolled_back: 32, joins_admitted: 1, join_snapshot_bytes: 1200, stale_epoch_dropped: 4, rollbacks_applied: 16, replicas_published: 9, replication_bytes: 4872"),
    ("master_crash_join_in_flight_lossy/mm", 9183677, 4338, 0x52649385a0afc272, "restore_resends: 2, status_dups_ignored: 6, gather_dups_ignored: 1, rollbacks: 2, units_rolled_back: 64, joins_admitted: 1, join_snapshot_bytes: 1192, stale_epoch_dropped: 2, rollbacks_applied: 29, elections_held: 1, takeover_latency: Some(8.103306s), replicas_published: 7, replication_bytes: 3696"),
    ("partition_heal_rejoin/mm", 1921166, 6312, 0x2d7ef04aa1cb41d3, "slaves_declared_dead: 4, first_death: Some(t=0.607051s), units_restored: 6, restore_resends: 15, instr_resends: 1, invocation_start_resends: 1, done_dups_ignored: 20, rollbacks: 1, units_rolled_back: 32, speculations_launched: 1, speculations_committed: 1, units_speculated: 2, joins_admitted: 4, rejoins_after_eviction: 4, join_snapshot_bytes: 4800, partitions_healed: 1, rollbacks_applied: 16, speculations_computed: 1, replicas_published: 36, replication_bytes: 19128"),
    ("crash_inside_partition/mm", 2226702, 6885, 0x603463684fc5f3d3, "slaves_declared_dead: 5, first_death: Some(t=0.607051s), units_restored: 8, restore_resends: 26, instr_resends: 1, invocation_start_resends: 1, done_dups_ignored: 30, rollbacks: 1, units_rolled_back: 32, speculations_launched: 1, speculations_committed: 1, units_speculated: 2, joins_admitted: 4, rejoins_after_eviction: 4, join_snapshot_bytes: 4768, partitions_healed: 1, rollbacks_applied: 15, speculations_computed: 1, replicas_published: 36, replication_bytes: 19248"),
    ("partition_heal_rejoin_lossy/mm", 3030077, 7116, 0xfb6ce24102f65492, "slaves_declared_dead: 4, first_death: Some(t=0.597431s), units_restored: 6, restore_resends: 19, instr_resends: 10, start_resends: 2, invocation_start_resends: 12, gather_resends: 1, status_dups_ignored: 13, done_dups_ignored: 31, gather_dups_ignored: 1, rollbacks: 1, units_rolled_back: 32, speculations_launched: 1, speculations_committed: 1, units_speculated: 2, joins_admitted: 4, rejoins_after_eviction: 4, join_snapshot_bytes: 4800, partitions_healed: 1, stale_epoch_dropped: 3, rollbacks_applied: 16, speculations_computed: 1, replicas_published: 36, replication_bytes: 19248"),
    ("master_mid_invocation/sor", 16174924, 4156, 0xba9ed2ae92e2189a, "restore_resends: 4, checkpoints_banked: 3, rollbacks: 1, units_rolled_back: 34, stale_epoch_dropped: 4, rollbacks_applied: 15, checkpoints_sent: 179, elections_held: 1, takeover_latency: Some(8.086125s), replicas_published: 6, replication_bytes: 3728"),
    ("master_frozen_then_superseded/sor", 26797880, 5631, 0xecceb26d6bfd49b8, "slaves_declared_dead: 1, first_death: Some(t=24.175220s), restore_resends: 9, gather_resends: 3, gathers_interrupted: 1, checkpoints_banked: 4, rollbacks: 2, units_rolled_back: 68, stale_epoch_dropped: 41, rollbacks_applied: 42, checkpoints_sent: 351, elections_held: 1, takeover_latency: Some(8.086125s), replicas_published: 7, replication_bytes: 5016"),
    ("drop16/sor", 56254061, 9417, 0x38cf4ba47dc1c5f3, "slaves_declared_dead: 4, first_death: Some(t=15.252935s), restore_resends: 488, start_resends: 164, invocation_start_resends: 164, checkpoints_banked: 4, rollbacks: 6, units_rolled_back: 204, speculations_launched: 6, speculations_committed: 6, units_speculated: 49, stale_epoch_dropped: 414, rollbacks_applied: 71, checkpoints_sent: 61, speculations_computed: 6, replicas_published: 13, replication_bytes: 11784"),
    ("dup16/sor", 10472091, 4065, 0x27996311a3abb02d, "start_resends: 4, invocation_start_resends: 4, status_dups_ignored: 7, checkpoints_banked: 3, checkpoints_sent: 104, replicas_published: 12, replication_bytes: 7536"),
    ("jitter16/sor", 52160313, 9162, 0xd89691e86f71e147, "slaves_declared_dead: 3, first_death: Some(t=17.771740s), restore_resends: 383, start_resends: 4, invocation_start_resends: 4, gather_dups_ignored: 11, checkpoints_banked: 4, rollbacks: 7, units_rolled_back: 238, speculations_launched: 2, speculations_committed: 2, units_speculated: 68, stale_epoch_dropped: 346, rollbacks_applied: 91, checkpoints_sent: 123, speculations_computed: 2, replicas_published: 27, replication_bytes: 20376"),
    ("master_mid_rollback/sor", 34494848, 5477, 0xa56e62c5564a731e, "slaves_declared_dead: 1, first_death: Some(t=24.031077s), restore_resends: 4, checkpoints_banked: 3, rollbacks: 1, units_rolled_back: 34, stale_epoch_dropped: 18, rollbacks_applied: 14, checkpoints_sent: 128, elections_held: 1, takeover_latency: Some(8.004202s), replicas_published: 8, replication_bytes: 5584"),
    ("overlapping_crashes/sor", 22495581, 5149, 0xa67f02bb19098314, "slaves_declared_dead: 2, first_death: Some(t=8.017993s), restore_resends: 4, start_resends: 64, invocation_start_resends: 64, checkpoints_banked: 3, rollbacks: 3, units_rolled_back: 102, speculations_launched: 2, speculations_committed: 2, units_speculated: 37, stale_epoch_dropped: 3, rollbacks_applied: 42, checkpoints_sent: 107, speculations_computed: 2, replicas_published: 15, replication_bytes: 10560"),
    ("master_mid_transfer/sor", 18633181, 4472, 0xd0211d7e82fe6579, "restore_resends: 8, checkpoints_banked: 3, rollbacks: 1, units_rolled_back: 34, transfer_resends: 1, transfer_dups_dropped: 1, stale_epoch_dropped: 8, rollbacks_applied: 15, checkpoints_sent: 176, elections_held: 1, takeover_latency: Some(8.085925s), replicas_published: 6, replication_bytes: 3968"),
    ("double_failover/sor", 24105813, 4680, 0x81be281bb5f86d07, "restore_resends: 9, checkpoints_banked: 3, rollbacks: 2, units_rolled_back: 68, stale_epoch_dropped: 9, rollbacks_applied: 28, checkpoints_sent: 275, elections_held: 2, takeover_latency: Some(10.005026s), replicas_published: 3, replication_bytes: 1824"),
    ("crash_in_gather/sor", 21097573, 5183, 0x9edeeefdece1167a, "slaves_declared_dead: 1, first_death: Some(t=18.473787s), restore_resends: 5, start_resends: 4, invocation_start_resends: 4, gather_resends: 3, gathers_interrupted: 1, checkpoints_banked: 3, rollbacks: 1, units_rolled_back: 34, stale_epoch_dropped: 5, rollbacks_applied: 15, checkpoints_sent: 215, replicas_published: 15, replication_bytes: 10320"),
    ("crash_in_gather_lossy/sor", 61691009, 10038, 0x09406b08ddaf00cf, "slaves_declared_dead: 3, first_death: Some(t=18.929769s), restore_resends: 587, start_resends: 4, invocation_start_resends: 4, status_dups_ignored: 1, gather_dups_ignored: 15, checkpoints_banked: 4, rollbacks: 7, units_rolled_back: 238, speculations_launched: 5, speculations_committed: 5, units_speculated: 46, stale_epoch_dropped: 510, rollbacks_applied: 91, checkpoints_sent: 163, speculations_computed: 5, replicas_published: 24, replication_bytes: 18552"),
    ("late_join/sor", 23600569, 42283, 0xbe375dcc87388c15, "slaves_declared_dead: 15, first_death: Some(t=1.810356s), restore_resends: 6089, start_resends: 56, invocation_start_resends: 56, done_dups_ignored: 28, gather_dups_ignored: 12, checkpoints_banked: 4, rollbacks: 30, units_rolled_back: 1020, speculations_launched: 15, speculations_committed: 1, speculations_cancelled: 10, units_speculated: 3, joins_admitted: 13, rejoins_after_eviction: 12, join_snapshot_bytes: 12048, partitions_healed: 9, stale_epoch_dropped: 5683, rollbacks_applied: 348, checkpoints_sent: 56, speculations_computed: 1, replicas_published: 41, replication_bytes: 23568"),
    ("master_crash_join_in_flight/sor", 27554311, 27423, 0xd687d2e9161119c1, "slaves_declared_dead: 13, first_death: Some(t=10.294265s), restore_resends: 3143, done_dups_ignored: 25, checkpoints_banked: 4, rollbacks: 24, units_rolled_back: 816, speculations_launched: 11, speculations_committed: 1, speculations_cancelled: 9, units_speculated: 3, joins_admitted: 11, rejoins_after_eviction: 10, join_snapshot_bytes: 9896, partitions_healed: 7, stale_epoch_dropped: 2549, rollbacks_applied: 235, checkpoints_sent: 323, speculations_computed: 1, elections_held: 1, takeover_latency: Some(8.099309s), replicas_published: 19, replication_bytes: 10912"),
    ("late_join_lossy/sor", 25414572, 34491, 0x2ea4d594f53562d9, "slaves_declared_dead: 16, first_death: Some(t=1.828645s), restore_resends: 4877, start_resends: 54, invocation_start_resends: 54, status_dups_ignored: 5, done_dups_ignored: 49, gather_dups_ignored: 11, checkpoints_banked: 4, rollbacks: 29, units_rolled_back: 986, speculations_launched: 15, speculations_committed: 4, speculations_cancelled: 7, units_speculated: 12, joins_admitted: 14, rejoins_after_eviction: 13, join_snapshot_bytes: 13088, partitions_healed: 8, stale_epoch_dropped: 4337, rollbacks_applied: 302, checkpoints_sent: 63, speculations_computed: 2, replicas_published: 37, replication_bytes: 21136"),
    ("master_crash_join_in_flight_lossy/sor", 30402319, 32459, 0x3379da510d333e69, "slaves_declared_dead: 13, first_death: Some(t=10.318771s), restore_resends: 3775, status_dups_ignored: 5, done_dups_ignored: 14, gather_dups_ignored: 11, checkpoints_banked: 4, rollbacks: 24, units_rolled_back: 816, speculations_launched: 7, speculations_committed: 1, speculations_cancelled: 2, units_speculated: 3, joins_admitted: 12, rejoins_after_eviction: 11, join_snapshot_bytes: 11504, partitions_healed: 8, stale_epoch_dropped: 3432, rollbacks_applied: 241, checkpoints_sent: 299, elections_held: 1, takeover_latency: Some(8.099309s), replicas_published: 18, replication_bytes: 10504"),
    ("partition_heal_rejoin/sor", 30007483, 11315, 0xdaeced1f2c23c74a, "slaves_declared_dead: 2, first_death: Some(t=2.016622s), restore_resends: 114, instr_resends: 2, start_resends: 37, invocation_start_resends: 39, done_dups_ignored: 4, checkpoints_banked: 3, rollbacks: 3, units_rolled_back: 102, speculations_launched: 4, speculations_committed: 4, units_speculated: 10, joins_admitted: 1, rejoins_after_eviction: 1, join_snapshot_bytes: 1040, partitions_healed: 1, stale_epoch_dropped: 111, rollbacks_applied: 40, checkpoints_sent: 443, speculations_computed: 3, replicas_published: 17, replication_bytes: 10736"),
    ("crash_inside_partition/sor", 30007483, 9602, 0xf5597038a8df44e4, "slaves_declared_dead: 3, first_death: Some(t=2.059375s), restore_resends: 61, instr_resends: 2, start_resends: 85, invocation_start_resends: 87, done_dups_ignored: 4, checkpoints_banked: 3, rollbacks: 5, units_rolled_back: 170, speculations_launched: 4, speculations_committed: 4, units_speculated: 10, joins_admitted: 1, rejoins_after_eviction: 1, join_snapshot_bytes: 1032, partitions_healed: 1, stale_epoch_dropped: 56, rollbacks_applied: 64, checkpoints_sent: 245, speculations_computed: 3, replicas_published: 20, replication_bytes: 12160"),
    ("partition_heal_rejoin_lossy/sor", 42984413, 37336, 0xd03ad464fa7dd406, "slaves_declared_dead: 10, first_death: Some(t=2.017641s), restore_resends: 3934, start_resends: 58, invocation_start_resends: 58, status_dups_ignored: 5, done_dups_ignored: 13, gather_dups_ignored: 17, checkpoints_banked: 4, rollbacks: 29, units_rolled_back: 986, speculations_launched: 7, speculations_committed: 4, units_speculated: 12, joins_admitted: 9, rejoins_after_eviction: 9, join_snapshot_bytes: 8744, partitions_healed: 9, stale_epoch_dropped: 3769, rollbacks_applied: 349, checkpoints_sent: 241, speculations_computed: 3, replicas_published: 51, replication_bytes: 31088"),
    ("final_rollback_lost/sor", 52608720, 34124, 0xcb9e751294576247, "slaves_declared_dead: 11, first_death: Some(t=2.010367s), restore_resends: 1345, start_resends: 31, invocation_start_resends: 31, status_dups_ignored: 10, gather_dups_ignored: 1, checkpoints_banked: 4, rollbacks: 24, units_rolled_back: 816, joins_admitted: 11, rejoins_after_eviction: 11, join_snapshot_bytes: 9080, partitions_healed: 10, stale_epoch_dropped: 1103, rollbacks_applied: 250, checkpoints_sent: 651, replicas_published: 51, replication_bytes: 32688"),
    ("master_mid_invocation/lu", 8750127, 10465, 0x945f0d7e87d799e0, "checkpoints_banked: 22, rollbacks: 1, units_rolled_back: 24, rollbacks_applied: 15, checkpoints_sent: 450, elections_held: 1, takeover_latency: Some(8.005222s), replicas_published: 47, replication_bytes: 24816"),
    ("master_frozen_then_superseded/lu", 14260673, 11759, 0x104260bac73ea88a, "checkpoints_banked: 22, rollbacks: 1, units_rolled_back: 24, rollbacks_applied: 15, checkpoints_sent: 450, elections_held: 1, takeover_latency: Some(8.005222s), replicas_published: 47, replication_bytes: 24816"),
    ("drop16/lu", 33514183, 14518, 0xb7dd296157856c46, "instr_resends: 43, start_resends: 2, invocation_start_resends: 45, done_dups_ignored: 50, checkpoints_banked: 19, checkpoints_sent: 698, replicas_published: 69, replication_bytes: 40392"),
    ("dup16/lu", 777185, 9986, 0x4fdf87d86b092d0d, "status_dups_ignored: 24, gather_dups_ignored: 2, checkpoints_banked: 22, checkpoints_sent: 368, replicas_published: 69, replication_bytes: 36432"),
    ("jitter16/lu", 1162262, 10360, 0x02cea3599e502276, "checkpoints_banked: 22, checkpoints_sent: 368, replicas_published: 69, replication_bytes: 36552"),
    ("master_mid_rollback/lu", 24984359, 13638, 0x30ce56de3d7425e2, "slaves_declared_dead: 1, first_death: Some(t=24.198424s), checkpoints_banked: 24, rollbacks: 1, units_rolled_back: 24, stale_epoch_dropped: 106, rollbacks_applied: 14, checkpoints_sent: 695, elections_held: 1, takeover_latency: Some(8.004162s), replicas_published: 55, replication_bytes: 29680, checkpoints_lost_to_stale_replica: 2"),
    ("master_inside_suspicion/lu", 21390549, 13080, 0x849f5fde9bf7acbc, "slaves_declared_dead: 1, first_death: Some(t=20.604614s), checkpoints_banked: 24, rollbacks: 1, units_rolled_back: 24, stale_epoch_dropped: 106, rollbacks_applied: 14, checkpoints_sent: 651, elections_held: 1, takeover_latency: Some(8.003861s), replicas_published: 55, replication_bytes: 29680, checkpoints_lost_to_stale_replica: 2"),
    ("overlapping_crashes/lu", 16720767, 11815, 0x7e471d83d38a6395, "slaves_declared_dead: 2, first_death: Some(t=8.188862s), restore_resends: 3, checkpoints_banked: 22, rollbacks: 2, units_rolled_back: 48, speculations_launched: 2, speculations_committed: 2, units_speculated: 4, stale_epoch_dropped: 4, rollbacks_applied: 28, checkpoints_sent: 522, speculations_computed: 2, replicas_published: 69, replication_bytes: 38352"),
    ("master_mid_transfer/lu", 9847491, 10174, 0xcfbeda50a4b64bb2, "checkpoints_banked: 22, rollbacks: 1, units_rolled_back: 24, rollbacks_applied: 15, checkpoints_sent: 457, elections_held: 1, takeover_latency: Some(8.004471s), replicas_published: 44, replication_bytes: 23312"),
    ("double_failover/lu", 18748156, 11792, 0xbe9195d45fc9ef95, "checkpoints_banked: 22, rollbacks: 2, units_rolled_back: 48, rollbacks_applied: 28, checkpoints_sent: 547, elections_held: 2, takeover_latency: Some(10.006031s), replicas_published: 33, replication_bytes: 17424"),
    ("crash_in_gather/lu", 8801863, 11671, 0xdb25a9f1260969a2, "slaves_declared_dead: 1, first_death: Some(t=8.773681s), gather_resends: 3, gathers_interrupted: 1, checkpoints_banked: 23, rollbacks: 1, units_rolled_back: 24, rollbacks_applied: 15, checkpoints_sent: 705, replicas_published: 72, replication_bytes: 38976"),
    ("crash_in_gather_lossy/lu", 28823922, 14335, 0x21332313131c879b, "slaves_declared_dead: 1, first_death: Some(t=26.750680s), instr_resends: 23, start_resends: 1, invocation_start_resends: 24, gather_resends: 5, status_dups_ignored: 24, done_dups_ignored: 24, gather_dups_ignored: 3, gathers_interrupted: 1, checkpoints_banked: 19, rollbacks: 1, units_rolled_back: 24, stale_epoch_dropped: 1, rollbacks_applied: 15, checkpoints_sent: 983, replicas_published: 72, replication_bytes: 41376"),
    ("late_join/lu", 827115, 11109, 0x8b4a85a5587e86f5, "checkpoints_banked: 22, rollbacks: 1, units_rolled_back: 24, joins_admitted: 1, join_snapshot_bytes: 360, rollbacks_applied: 16, checkpoints_sent: 381, replicas_published: 72, replication_bytes: 38016"),
    ("master_crash_join_in_flight/lu", 8777649, 13310, 0x7da52da0a0b61c6d, "checkpoints_banked: 22, rollbacks: 2, units_rolled_back: 48, joins_admitted: 1, join_snapshot_bytes: 552, stale_epoch_dropped: 10, rollbacks_applied: 29, checkpoints_sent: 890, elections_held: 1, takeover_latency: Some(8.018246s), replicas_published: 46, replication_bytes: 24288"),
    ("late_join_lossy/lu", 22790253, 28644, 0x2996a0664d8aac48, "restore_resends: 2, instr_resends: 27, invocation_start_resends: 27, status_dups_ignored: 25, done_dups_ignored: 28, gather_dups_ignored: 3, checkpoints_banked: 18, rollbacks: 2, units_rolled_back: 48, joins_admitted: 1, join_snapshot_bytes: 360, stale_epoch_dropped: 98, rollbacks_applied: 31, checkpoints_sent: 2000, replicas_published: 72, replication_bytes: 40656"),
    ("master_crash_join_in_flight_lossy/lu", 14820001, 16100, 0xe311f4114453e86a, "instr_resends: 27, invocation_start_resends: 27, gather_resends: 1, status_dups_ignored: 16, done_dups_ignored: 32, checkpoints_banked: 20, rollbacks: 1, units_rolled_back: 24, rollbacks_applied: 15, checkpoints_sent: 1064, elections_held: 1, takeover_latency: Some(8.052168s), replicas_published: 44, replication_bytes: 23552"),
    ("partition_heal_rejoin/lu", 4396765, 21186, 0x8a9d3ac06f7c561b, "slaves_declared_dead: 3, first_death: Some(t=0.618641s), restore_resends: 26, done_dups_ignored: 5, checkpoints_banked: 38, rollbacks: 6, units_rolled_back: 240, speculations_launched: 2, joins_admitted: 3, rejoins_after_eviction: 3, join_snapshot_bytes: 3408, partitions_healed: 3, stale_epoch_dropped: 44, rollbacks_applied: 78, checkpoints_sent: 827, replicas_published: 119, replication_bytes: 63232"),
    ("crash_inside_partition/lu", 5129093, 21188, 0x7cab9b5cb9557782, "slaves_declared_dead: 5, first_death: Some(t=0.618641s), restore_resends: 47, instr_resends: 3, invocation_start_resends: 3, done_dups_ignored: 10, checkpoints_banked: 38, rollbacks: 9, units_rolled_back: 360, speculations_launched: 3, joins_admitted: 4, rejoins_after_eviction: 4, join_snapshot_bytes: 4520, partitions_healed: 4, stale_epoch_dropped: 61, rollbacks_applied: 106, checkpoints_sent: 812, replicas_published: 118, replication_bytes: 62784"),
    ("partition_heal_rejoin_lossy/lu", 30003971, 28942, 0x253d9dbee6808bf5, "slaves_declared_dead: 7, first_death: Some(t=0.610509s), restore_resends: 102, instr_resends: 47, start_resends: 6, invocation_start_resends: 53, status_dups_ignored: 33, done_dups_ignored: 65, gather_dups_ignored: 1, checkpoints_banked: 34, rollbacks: 12, units_rolled_back: 480, speculations_launched: 6, speculations_committed: 1, units_speculated: 3, joins_admitted: 6, rejoins_after_eviction: 6, join_snapshot_bytes: 6768, partitions_healed: 5, stale_epoch_dropped: 130, rollbacks_applied: 133, checkpoints_sent: 1174, replicas_published: 126, replication_bytes: 67448"),
    ("pivot_link_cut/lu", 2766187, 10351, 0xf9bc24cb0be17b95, "instr_resends: 2, invocation_start_resends: 2, done_dups_ignored: 4, checkpoints_banked: 22, checkpoints_sent: 388, replicas_published: 69, replication_bytes: 36672"),
    ("heal_after_end/mm", 2093983, 2786, 0x302ec0336cfcb43d, "slaves_declared_dead: 3, first_death: Some(t=0.500065s), units_restored: 4, restore_resends: 13, instr_resends: 1, start_resends: 6, invocation_start_resends: 7, done_dups_ignored: 15, speculations_launched: 1, speculations_committed: 1, units_speculated: 2, speculations_computed: 1, replicas_published: 9, replication_bytes: 4752"),
    ("converges_early4/mm", 8298050, 796, 0xf4390f20a01ad864, "slaves_declared_dead: 1, first_death: Some(t=8.291074s), restore_resends: 3, done_dups_ignored: 3, speculations_launched: 1, speculations_committed: 1, units_speculated: 6, speculations_computed: 1, replicas_published: 6, replication_bytes: 3480"),
    ("quiet31/sor", 6053941, 5032, 0x21f3825f0feb418f, "start_resends: 1, invocation_start_resends: 1, checkpoints_banked: 2, checkpoints_sent: 123, replicas_published: 9, replication_bytes: 6687"),
    ("plain_load4/mm/sync", 1672999, 939, 0xdbcb800b21f443a6, ""),
    ("plain_load4/mm/pipe", 1643553, 929, 0xfeaa37cc3d83d307, ""),
    ("plain_load16/mm/sync", 5232675, 2401, 0x07b2bdd8f3958a48, ""),
    ("plain_load16/mm/pipe", 4666588, 2312, 0xb19ce50d862ebd22, ""),
    ("plain_load4/sor", 4000759, 752, 0x78328ebd12b86607, ""),
    ("plain_load4/lu", 1955089, 2251, 0x72e5b0551b9a565f, ""),
    ("plain_converges_early4/mm", 489319, 446, 0xbd6423d12f3f3977, ""),
    ("slow_wire4/mm", 3337926, 975, 0x3a061311ab6784c3, "status_dups_ignored: 21, done_dups_ignored: 2, gather_dups_ignored: 5, replicas_published: 9, replication_bytes: 4140"),
    ("slow_wire16/mm", 2841982, 2588, 0x56a485d04c4915d4, "status_dups_ignored: 60, done_dups_ignored: 1, gather_dups_ignored: 20, replicas_published: 9, replication_bytes: 4992"),
    ("stale_gather4/sor", 41194238, 2470, 0x1d15ed484f2fe406, "instr_resends: 6, start_resends: 2, invocation_start_resends: 10, done_dups_ignored: 16, checkpoints_banked: 4, rollbacks: 1, units_rolled_back: 16, rollbacks_applied: 3, checkpoints_sent: 71, elections_held: 1, takeover_latency: Some(8.002068s), replicas_published: 9, replication_bytes: 6180"),
];
