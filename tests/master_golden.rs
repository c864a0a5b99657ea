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
/// heartbeats), and re-recorded with the 11 rows that answer moved. Every
/// armed row was re-recorded when the master stopped publishing a replica
/// and a takeover began learning everything from the survivors' `Held`
/// answers; `final_rollback_lost/sor` and `wire_crash4/lu` then first ran
/// into the two repairs that came with it (CHANGES.md lists before → after).
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64, u64, &str)] = &[
    ("quiet4/mm", 434944, 577, 0x44f437b77443452b, ""),
    ("wire_crash4/mm", 11599399, 989, 0x646e91c4d16fcad5, "slaves_declared_dead: 1, first_death: Some(t=8.302867s), restore_resends: 3, instr_resends: 2, start_resends: 1, invocation_start_resends: 3, status_dups_ignored: 1, done_dups_ignored: 6, speculations_launched: 1, speculations_committed: 1, units_speculated: 6, speculations_computed: 1, replication_bytes: 1200"),
    ("freeze4/mm", 6439038, 827, 0x0005d888a4525db4, "instr_resends: 1, invocation_start_resends: 1, done_dups_ignored: 1, speculations_launched: 1, speculations_cancelled: 1, speculations_computed: 1, replication_bytes: 720"),
    ("quiet4/sor", 2660925, 812, 0x9cb244d0057e5215, "checkpoints_banked: 3, checkpoints_sent: 16, replication_bytes: 240"),
    ("wire_crash4/sor", 21081480, 945, 0x5990eca829a99f53, "slaves_declared_dead: 1, first_death: Some(t=8.029190s), start_resends: 9, invocation_start_resends: 9, checkpoints_banked: 3, rollbacks: 1, units_rolled_back: 16, speculations_launched: 1, speculations_committed: 1, units_speculated: 4, stale_epoch_dropped: 1, rollbacks_applied: 3, checkpoints_sent: 16, speculations_computed: 1, replication_bytes: 1040"),
    ("freeze4/sor", 8646072, 1094, 0x2ec985431cd5ecdd, "start_resends: 6, invocation_start_resends: 6, checkpoints_banked: 3, speculations_launched: 1, speculations_committed: 1, units_speculated: 16, checkpoints_sent: 25, speculations_computed: 1, replication_bytes: 960"),
    ("quiet4/lu", 852104, 2591, 0x859049747d4744e9, "checkpoints_banked: 18, checkpoints_sent: 96"),
    ("wire_crash4/lu", 15916399, 2831, 0xc361c43da745bedf, "slaves_declared_dead: 1, first_death: Some(t=8.222855s), restore_resends: 2, instr_resends: 1, invocation_start_resends: 1, status_dups_ignored: 1, done_dups_ignored: 1, gather_dups_ignored: 1, checkpoints_banked: 17, rollbacks: 1, units_rolled_back: 20, speculations_launched: 1, speculations_committed: 1, units_speculated: 20, stale_epoch_dropped: 4, rollbacks_applied: 3, checkpoints_sent: 100, speculations_computed: 1, replication_bytes: 1520"),
    ("freeze4/lu", 6850430, 2877, 0x4a8fd8aff693a589, "checkpoints_banked: 18, speculations_launched: 1, speculations_committed: 1, units_speculated: 5, checkpoints_sent: 112, speculations_computed: 1, replication_bytes: 720"),
    ("master_mid_invocation/mm", 8463335, 2562, 0x41b575c7cfce0119, "rollbacks: 1, units_rolled_back: 32, rollbacks_applied: 15, elections_held: 1, takeover_latency: Some(8.196209s)"),
    ("master_frozen_then_superseded/mm", 14282800, 3370, 0x31b51460182bb977, "rollbacks: 1, units_rolled_back: 32, rollbacks_applied: 15, elections_held: 1, takeover_latency: Some(8.196209s)"),
    ("drop16/mm", 16270012, 2138, 0x276fdcedc53ebe08, "instr_resends: 2, start_resends: 1, invocation_start_resends: 3, done_dups_ignored: 2, replication_bytes: 600"),
    ("dup16/mm", 321291, 1706, 0x11ed59476f29839b, "status_dups_ignored: 10, done_dups_ignored: 2"),
    ("jitter16/mm", 381198, 1694, 0xefc29b51b21663d6, ""),
    ("master_mid_rollback/mm", 24460118, 4138, 0xb74fa404a4873f11, "slaves_declared_dead: 1, first_death: Some(t=24.322677s), restore_resends: 13, rollbacks: 1, units_rolled_back: 32, stale_epoch_dropped: 119, rollbacks_applied: 14, elections_held: 1, takeover_latency: Some(8.002530s), replication_bytes: 640"),
    ("overlapping_crashes/mm", 15455966, 3785, 0x7d8a51af77229903, "slaves_declared_dead: 2, first_death: Some(t=8.302046s), units_restored: 2, restore_resends: 32, done_dups_ignored: 28, speculations_launched: 1, speculations_committed: 1, units_speculated: 2, speculations_computed: 1, replication_bytes: 1800"),
    ("master_mid_transfer/mm", 9213734, 2436, 0xaa2899f7c260e20b, "done_dups_ignored: 1, rollbacks: 1, units_rolled_back: 32, rollbacks_applied: 15, elections_held: 1, takeover_latency: Some(8.088487s), replication_bytes: 80"),
    ("double_failover/mm", 18597377, 3455, 0x8e6a79aa6de29378, "rollbacks: 2, units_rolled_back: 64, rollbacks_applied: 28, elections_held: 2, takeover_latency: Some(10.258291s)"),
    ("crash_in_gather/mm", 8324387, 1897, 0xd2a2b9f6f83dbf0f, "slaves_declared_dead: 1, first_death: Some(t=8.324187s), units_recomputed: 2, gather_resends: 3, gathers_interrupted: 1, replication_bytes: 960"),
    ("crash_in_gather_lossy/mm", 10319611, 2121, 0x3abb84daf88b5916, "slaves_declared_dead: 1, first_death: Some(t=10.318811s), units_recomputed: 2, gather_resends: 4, status_dups_ignored: 3, done_dups_ignored: 4, gather_dups_ignored: 4, gathers_interrupted: 1, replication_bytes: 1200"),
    ("late_join/mm", 361959, 1664, 0x81ecbd7814857af1, "rollbacks: 1, units_rolled_back: 32, joins_admitted: 1, join_snapshot_bytes: 1200, rollbacks_applied: 16"),
    ("master_crash_join_in_flight/mm", 8371824, 4138, 0x9d999df2047e25fd, "rollbacks: 2, units_rolled_back: 64, joins_admitted: 1, join_snapshot_bytes: 1192, stale_epoch_dropped: 13, rollbacks_applied: 29, elections_held: 1, takeover_latency: Some(8.062503s)"),
    ("late_join_lossy/mm", 1117910, 2266, 0x1566d5b65bd4d8a7, "restore_resends: 1, start_resends: 1, invocation_start_resends: 1, status_dups_ignored: 12, rollbacks: 1, units_rolled_back: 32, joins_admitted: 1, join_snapshot_bytes: 1200, stale_epoch_dropped: 3, rollbacks_applied: 16, replication_bytes: 120"),
    ("master_crash_join_in_flight_lossy/mm", 10085872, 5081, 0x1e9749bc21d88d99, "restore_resends: 26, status_dups_ignored: 7, rollbacks: 2, units_rolled_back: 64, joins_admitted: 1, join_snapshot_bytes: 1192, stale_epoch_dropped: 148, rollbacks_applied: 29, elections_held: 1, takeover_latency: Some(8.086121s), replication_bytes: 80"),
    ("partition_heal_rejoin/mm", 1918766, 6204, 0x7eb124c9eb2eaf0c, "slaves_declared_dead: 4, first_death: Some(t=0.606651s), units_restored: 6, restore_resends: 15, instr_resends: 1, invocation_start_resends: 1, done_dups_ignored: 20, rollbacks: 1, units_rolled_back: 32, speculations_launched: 1, speculations_committed: 1, units_speculated: 2, joins_admitted: 4, rejoins_after_eviction: 4, join_snapshot_bytes: 4800, partitions_healed: 1, rollbacks_applied: 16, speculations_computed: 1, replication_bytes: 120"),
    ("crash_inside_partition/mm", 2232502, 7046, 0xb54a8cbcd3fc5a4d, "slaves_declared_dead: 5, first_death: Some(t=0.606651s), units_restored: 8, restore_resends: 26, instr_resends: 1, invocation_start_resends: 1, done_dups_ignored: 30, rollbacks: 1, units_rolled_back: 32, speculations_launched: 1, speculations_committed: 1, units_speculated: 2, joins_admitted: 4, rejoins_after_eviction: 4, join_snapshot_bytes: 4768, partitions_healed: 1, stale_epoch_dropped: 1, rollbacks_applied: 15, speculations_computed: 1, replication_bytes: 240"),
    ("partition_heal_rejoin_lossy/mm", 2881580, 7319, 0x482fa15d4fdc9a0f, "slaves_declared_dead: 4, first_death: Some(t=0.601841s), units_restored: 6, restore_resends: 20, instr_resends: 9, start_resends: 2, invocation_start_resends: 11, gather_resends: 1, status_dups_ignored: 13, done_dups_ignored: 33, gather_dups_ignored: 3, rollbacks: 2, units_rolled_back: 64, speculations_launched: 1, speculations_committed: 1, units_speculated: 2, joins_admitted: 4, rejoins_after_eviction: 4, join_snapshot_bytes: 4776, partitions_healed: 2, transfer_dups_dropped: 2, stale_epoch_dropped: 11, rollbacks_applied: 31, speculations_computed: 1, replication_bytes: 240"),
    ("master_mid_invocation/sor", 16174724, 4117, 0xaf3c5e9cc992bd24, "restore_resends: 4, checkpoints_banked: 3, rollbacks: 1, units_rolled_back: 34, stale_epoch_dropped: 4, rollbacks_applied: 15, checkpoints_sent: 179, elections_held: 1, takeover_latency: Some(8.315480s), replication_bytes: 560"),
    ("master_frozen_then_superseded/sor", 26797680, 5579, 0x1a53c5d9af6ab919, "slaves_declared_dead: 1, first_death: Some(t=24.175020s), restore_resends: 9, gather_resends: 3, gathers_interrupted: 1, checkpoints_banked: 4, rollbacks: 2, units_rolled_back: 68, stale_epoch_dropped: 41, rollbacks_applied: 42, checkpoints_sent: 351, elections_held: 1, takeover_latency: Some(8.315480s), replication_bytes: 1320"),
    ("drop16/sor", 65243171, 8448, 0xd90811a7d5d767fb, "slaves_declared_dead: 4, first_death: Some(t=15.046349s), restore_resends: 162, start_resends: 224, invocation_start_resends: 224, gather_dups_ignored: 1, checkpoints_banked: 4, rollbacks: 5, units_rolled_back: 170, speculations_launched: 4, speculations_committed: 4, units_speculated: 105, stale_epoch_dropped: 145, rollbacks_applied: 59, checkpoints_sent: 158, speculations_computed: 4, replication_bytes: 4840"),
    ("dup16/sor", 10472091, 4006, 0xbea37f4cb2cb5da4, "start_resends: 4, invocation_start_resends: 4, status_dups_ignored: 3, checkpoints_banked: 3, checkpoints_sent: 104, replication_bytes: 1200"),
    ("jitter16/sor", 53846617, 9525, 0x972254f53cc97348, "slaves_declared_dead: 3, first_death: Some(t=17.699470s), restore_resends: 296, start_resends: 4, invocation_start_resends: 4, checkpoints_banked: 3, rollbacks: 6, units_rolled_back: 204, speculations_launched: 3, speculations_committed: 3, units_speculated: 40, stale_epoch_dropped: 243, rollbacks_applied: 78, checkpoints_sent: 204, speculations_computed: 3, replication_bytes: 5480"),
    ("master_mid_rollback/sor", 34494848, 5432, 0xad80fb4f656047f0, "slaves_declared_dead: 1, first_death: Some(t=24.031077s), restore_resends: 4, checkpoints_banked: 3, rollbacks: 1, units_rolled_back: 34, stale_epoch_dropped: 18, rollbacks_applied: 14, checkpoints_sent: 128, elections_held: 1, takeover_latency: Some(8.004202s), replication_bytes: 1360"),
    ("overlapping_crashes/sor", 22495376, 5088, 0xd35f88fbd3cf4bd5, "slaves_declared_dead: 2, first_death: Some(t=8.017993s), restore_resends: 4, start_resends: 64, invocation_start_resends: 64, checkpoints_banked: 3, rollbacks: 3, units_rolled_back: 102, speculations_launched: 2, speculations_committed: 2, units_speculated: 37, stale_epoch_dropped: 3, rollbacks_applied: 42, checkpoints_sent: 107, speculations_computed: 2, replication_bytes: 2640"),
    ("master_mid_transfer/sor", 18632981, 4433, 0x6bcbf960158e8247, "restore_resends: 8, checkpoints_banked: 3, rollbacks: 1, units_rolled_back: 34, transfer_resends: 1, transfer_dups_dropped: 1, stale_epoch_dropped: 8, rollbacks_applied: 15, checkpoints_sent: 176, elections_held: 1, takeover_latency: Some(8.315280s), replication_bytes: 800"),
    ("double_failover/sor", 24105613, 4657, 0x61190bd13989a852, "restore_resends: 9, checkpoints_banked: 3, rollbacks: 2, units_rolled_back: 68, stale_epoch_dropped: 9, rollbacks_applied: 28, checkpoints_sent: 275, elections_held: 2, takeover_latency: Some(10.005026s), replication_bytes: 240"),
    ("crash_in_gather/sor", 21097573, 5118, 0x8202efc382a5c00c, "slaves_declared_dead: 1, first_death: Some(t=18.473787s), restore_resends: 5, start_resends: 4, invocation_start_resends: 4, gather_resends: 3, gathers_interrupted: 1, checkpoints_banked: 3, rollbacks: 1, units_rolled_back: 34, stale_epoch_dropped: 5, rollbacks_applied: 15, checkpoints_sent: 215, replication_bytes: 2400"),
    ("crash_in_gather_lossy/sor", 57552807, 8652, 0x76977af25bdca2d7, "slaves_declared_dead: 3, first_death: Some(t=16.892103s), restore_resends: 535, start_resends: 4, invocation_start_resends: 4, status_dups_ignored: 1, gather_dups_ignored: 14, checkpoints_banked: 4, rollbacks: 6, units_rolled_back: 204, speculations_launched: 3, speculations_committed: 3, units_speculated: 102, stale_epoch_dropped: 504, rollbacks_applied: 77, checkpoints_sent: 93, speculations_computed: 3, replication_bytes: 5400"),
    ("late_join/sor", 23600969, 42215, 0xc9f42f075d2f59ea, "slaves_declared_dead: 15, first_death: Some(t=1.810356s), restore_resends: 6095, start_resends: 56, invocation_start_resends: 56, done_dups_ignored: 28, gather_dups_ignored: 12, checkpoints_banked: 4, rollbacks: 30, units_rolled_back: 1020, speculations_launched: 15, speculations_committed: 1, speculations_cancelled: 10, units_speculated: 3, joins_admitted: 13, rejoins_after_eviction: 12, join_snapshot_bytes: 12048, partitions_healed: 9, stale_epoch_dropped: 5683, rollbacks_applied: 348, checkpoints_sent: 56, speculations_computed: 1, replication_bytes: 1920"),
    ("master_crash_join_in_flight/sor", 27353899, 27309, 0x9cc9b6d76834d106, "slaves_declared_dead: 13, first_death: Some(t=10.093653s), restore_resends: 3148, done_dups_ignored: 25, checkpoints_banked: 4, rollbacks: 24, units_rolled_back: 816, speculations_launched: 11, speculations_committed: 1, speculations_cancelled: 9, units_speculated: 3, joins_admitted: 11, rejoins_after_eviction: 10, join_snapshot_bytes: 9896, partitions_healed: 7, stale_epoch_dropped: 2553, rollbacks_applied: 235, checkpoints_sent: 315, speculations_computed: 1, elections_held: 1, takeover_latency: Some(8.128252s), replication_bytes: 880"),
    ("late_join_lossy/sor", 24157443, 37345, 0x2033e84d43a0d26e, "slaves_declared_dead: 14, first_death: Some(t=1.823933s), restore_resends: 5731, start_resends: 58, invocation_start_resends: 58, status_dups_ignored: 6, done_dups_ignored: 39, gather_dups_ignored: 12, checkpoints_banked: 4, rollbacks: 28, units_rolled_back: 952, speculations_launched: 10, speculations_committed: 4, speculations_cancelled: 2, units_speculated: 12, joins_admitted: 13, rejoins_after_eviction: 12, join_snapshot_bytes: 11760, partitions_healed: 8, stale_epoch_dropped: 5080, rollbacks_applied: 311, checkpoints_sent: 44, speculations_computed: 1, replication_bytes: 1840"),
    ("master_crash_join_in_flight_lossy/sor", 49173305, 42248, 0x3b5590e3f855a683, "slaves_declared_dead: 17, first_death: Some(t=10.110241s), restore_resends: 5875, status_dups_ignored: 6, done_dups_ignored: 35, gather_dups_ignored: 31, gathers_interrupted: 2, checkpoints_banked: 5, rollbacks: 32, units_rolled_back: 1088, speculations_launched: 14, speculations_committed: 5, speculations_cancelled: 5, units_speculated: 15, gather_dup_units_dropped: 4, joins_admitted: 12, rejoins_after_eviction: 11, join_snapshot_bytes: 11464, partitions_healed: 10, stale_epoch_dropped: 13649, rollbacks_applied: 776, checkpoints_sent: 390, speculations_computed: 3, elections_held: 1, takeover_latency: Some(8.128451s), replication_bytes: 760"),
    ("partition_heal_rejoin/sor", 30007483, 11254, 0xfe13366ca558c6f9, "slaves_declared_dead: 2, first_death: Some(t=2.016622s), restore_resends: 116, instr_resends: 2, start_resends: 37, invocation_start_resends: 39, done_dups_ignored: 4, checkpoints_banked: 3, rollbacks: 3, units_rolled_back: 102, speculations_launched: 4, speculations_committed: 4, units_speculated: 10, joins_admitted: 1, rejoins_after_eviction: 1, join_snapshot_bytes: 1040, partitions_healed: 1, stale_epoch_dropped: 113, rollbacks_applied: 40, checkpoints_sent: 443, speculations_computed: 3, replication_bytes: 1760"),
    ("crash_inside_partition/sor", 30007483, 9533, 0x9b6c2ef73f700656, "slaves_declared_dead: 3, first_death: Some(t=2.059375s), restore_resends: 61, instr_resends: 2, start_resends: 85, invocation_start_resends: 87, done_dups_ignored: 4, checkpoints_banked: 3, rollbacks: 5, units_rolled_back: 170, speculations_launched: 4, speculations_committed: 4, units_speculated: 10, joins_admitted: 1, rejoins_after_eviction: 1, join_snapshot_bytes: 1032, partitions_healed: 1, stale_epoch_dropped: 56, rollbacks_applied: 64, checkpoints_sent: 244, speculations_computed: 3, replication_bytes: 1600"),
    ("partition_heal_rejoin_lossy/sor", 48688773, 34276, 0xe4e1dfe84c876b86, "slaves_declared_dead: 10, first_death: Some(t=2.001287s), restore_resends: 2378, start_resends: 60, invocation_start_resends: 60, status_dups_ignored: 4, done_dups_ignored: 9, gather_dups_ignored: 15, checkpoints_banked: 4, rollbacks: 29, units_rolled_back: 986, speculations_launched: 4, speculations_committed: 2, units_speculated: 6, joins_admitted: 9, rejoins_after_eviction: 9, join_snapshot_bytes: 7880, partitions_healed: 9, stale_epoch_dropped: 2129, rollbacks_applied: 328, checkpoints_sent: 303, speculations_computed: 1, replication_bytes: 4800"),
    ("final_rollback_lost/sor", 43161738, 28437, 0x041397e6a4313378, "slaves_declared_dead: 9, first_death: Some(t=2.001287s), restore_resends: 1206, start_resends: 29, invocation_start_resends: 29, status_dups_ignored: 4, checkpoints_banked: 3, rollbacks: 19, units_rolled_back: 646, joins_admitted: 8, rejoins_after_eviction: 8, join_snapshot_bytes: 6528, partitions_healed: 8, stale_epoch_dropped: 1126, rollbacks_applied: 212, checkpoints_sent: 554, replication_bytes: 4520"),
    ("master_mid_invocation/lu", 8747478, 10294, 0x2ac37051fd31698c, "checkpoints_banked: 22, rollbacks: 1, units_rolled_back: 24, rollbacks_applied: 15, checkpoints_sent: 450, elections_held: 1, takeover_latency: Some(8.182040s)"),
    ("master_frozen_then_superseded/lu", 14260463, 11559, 0xfa7b8495e83e8268, "slaves_declared_dead: 1, first_death: Some(t=14.201400s), checkpoints_banked: 3, rollbacks: 1, units_rolled_back: 24, replication_bytes: 120"),
    ("drop16/lu", 35545739, 14347, 0xb0e8edef2361fa62, "instr_resends: 41, start_resends: 2, invocation_start_resends: 43, gather_resends: 2, done_dups_ignored: 48, checkpoints_banked: 18, checkpoints_sent: 695, replication_bytes: 4200"),
    ("dup16/lu", 772717, 9730, 0xa833ff193b5272af, "status_dups_ignored: 20, checkpoints_banked: 22, checkpoints_sent: 368"),
    ("jitter16/lu", 1098109, 9999, 0xb5273f5466afa142, "checkpoints_banked: 22, checkpoints_sent: 368, replication_bytes: 120"),
    ("master_mid_rollback/lu", 24981889, 13442, 0xfa71adcabab35907, "slaves_declared_dead: 1, first_death: Some(t=24.196809s), checkpoints_banked: 24, rollbacks: 1, units_rolled_back: 24, stale_epoch_dropped: 106, rollbacks_applied: 14, checkpoints_sent: 695, elections_held: 1, takeover_latency: Some(8.004162s), replication_bytes: 640"),
    ("master_inside_suspicion/lu", 21388078, 12884, 0xf64137c6d25d8631, "slaves_declared_dead: 1, first_death: Some(t=20.602998s), checkpoints_banked: 24, rollbacks: 1, units_rolled_back: 24, stale_epoch_dropped: 106, rollbacks_applied: 14, checkpoints_sent: 651, elections_held: 1, takeover_latency: Some(8.003860s), replication_bytes: 640"),
    ("overlapping_crashes/lu", 16717467, 11573, 0xa4aa058bd2da470c, "slaves_declared_dead: 2, first_death: Some(t=8.187647s), restore_resends: 3, checkpoints_banked: 22, rollbacks: 2, units_rolled_back: 48, speculations_launched: 2, speculations_committed: 2, units_speculated: 4, stale_epoch_dropped: 4, rollbacks_applied: 28, checkpoints_sent: 522, speculations_computed: 2, replication_bytes: 1920"),
    ("master_mid_transfer/lu", 9845707, 10014, 0x0e5a650748f32c18, "checkpoints_banked: 22, rollbacks: 1, units_rolled_back: 24, rollbacks_applied: 15, checkpoints_sent: 457, elections_held: 1, takeover_latency: Some(8.034418s), replication_bytes: 80"),
    ("double_failover/lu", 18770855, 11897, 0x009bddf78242dc0c, "checkpoints_banked: 22, rollbacks: 2, units_rolled_back: 48, rollbacks_applied: 28, checkpoints_sent: 495, elections_held: 2, takeover_latency: Some(10.385043s)"),
    ("crash_in_gather/lu", 8797580, 11377, 0xf6879279cd30e6a9, "slaves_declared_dead: 1, first_death: Some(t=8.770013s), gather_resends: 3, gathers_interrupted: 1, checkpoints_banked: 23, rollbacks: 1, units_rolled_back: 24, rollbacks_applied: 15, checkpoints_sent: 705, replication_bytes: 960"),
    ("crash_in_gather_lossy/lu", 30872455, 14363, 0x4d0e603c4f4e0940, "slaves_declared_dead: 1, first_death: Some(t=28.805170s), instr_resends: 20, start_resends: 1, invocation_start_resends: 21, gather_resends: 5, status_dups_ignored: 22, done_dups_ignored: 24, gather_dups_ignored: 1, gathers_interrupted: 1, checkpoints_banked: 21, rollbacks: 1, units_rolled_back: 24, rollbacks_applied: 15, checkpoints_sent: 1049, replication_bytes: 3600"),
    ("late_join/lu", 823247, 10810, 0xe98be28f62f4c411, "checkpoints_banked: 22, rollbacks: 1, units_rolled_back: 24, joins_admitted: 1, join_snapshot_bytes: 360, rollbacks_applied: 16, checkpoints_sent: 381"),
    ("master_crash_join_in_flight/lu", 8775200, 13119, 0x87719e87be9f55fc, "checkpoints_banked: 22, rollbacks: 2, units_rolled_back: 48, joins_admitted: 1, join_snapshot_bytes: 552, stale_epoch_dropped: 10, rollbacks_applied: 29, checkpoints_sent: 890, elections_held: 1, takeover_latency: Some(8.143871s)"),
    ("late_join_lossy/lu", 6269851, 12907, 0x898d42a530034ede, "instr_resends: 12, invocation_start_resends: 12, gather_resends: 1, status_dups_ignored: 24, done_dups_ignored: 14, checkpoints_banked: 19, rollbacks: 1, units_rolled_back: 24, joins_admitted: 1, join_snapshot_bytes: 360, stale_epoch_dropped: 1, rollbacks_applied: 16, checkpoints_sent: 491, replication_bytes: 480"),
    ("master_crash_join_in_flight_lossy/lu", 13128222, 16741, 0x35739863f98bcf35, "instr_resends: 31, invocation_start_resends: 31, status_dups_ignored: 15, done_dups_ignored: 37, gather_dups_ignored: 1, checkpoints_banked: 18, rollbacks: 2, units_rolled_back: 48, joins_admitted: 1, join_snapshot_bytes: 552, stale_epoch_dropped: 5, rollbacks_applied: 29, checkpoints_sent: 1040, elections_held: 1, takeover_latency: Some(8.050967s), replication_bytes: 320"),
    ("partition_heal_rejoin/lu", 4247235, 20770, 0xe0cbdd8617daa293, "slaves_declared_dead: 3, first_death: Some(t=0.618441s), restore_resends: 20, instr_resends: 2, invocation_start_resends: 2, done_dups_ignored: 6, checkpoints_banked: 38, rollbacks: 6, units_rolled_back: 240, speculations_launched: 2, joins_admitted: 3, rejoins_after_eviction: 3, join_snapshot_bytes: 3408, partitions_healed: 3, stale_epoch_dropped: 19, rollbacks_applied: 84, checkpoints_sent: 808, replication_bytes: 400"),
    ("crash_inside_partition/lu", 5127902, 20736, 0x0d9b8bfadbc821ff, "slaves_declared_dead: 5, first_death: Some(t=0.618441s), restore_resends: 41, instr_resends: 2, invocation_start_resends: 2, done_dups_ignored: 9, checkpoints_banked: 38, rollbacks: 9, units_rolled_back: 360, speculations_launched: 3, joins_admitted: 4, rejoins_after_eviction: 4, join_snapshot_bytes: 4520, partitions_healed: 4, stale_epoch_dropped: 39, rollbacks_applied: 112, checkpoints_sent: 811, replication_bytes: 480"),
    ("partition_heal_rejoin_lossy/lu", 30003971, 24814, 0x24ae2df49728804d, "slaves_declared_dead: 3, first_death: Some(t=0.635127s), restore_resends: 25, instr_resends: 27, start_resends: 3, invocation_start_resends: 30, gather_resends: 1, status_dups_ignored: 31, done_dups_ignored: 33, gather_dups_ignored: 1, checkpoints_banked: 30, rollbacks: 5, units_rolled_back: 200, speculations_launched: 2, joins_admitted: 2, rejoins_after_eviction: 2, join_snapshot_bytes: 2264, partitions_healed: 2, stale_epoch_dropped: 31, rollbacks_applied: 68, checkpoints_sent: 1061, replication_bytes: 760"),
    ("pivot_link_cut/lu", 2762519, 10099, 0x4f5b951e81574e66, "instr_resends: 2, invocation_start_resends: 2, done_dups_ignored: 4, checkpoints_banked: 22, checkpoints_sent: 388, replication_bytes: 240"),
    ("heal_after_end/mm", 2093983, 2767, 0xbf88dbcc87653767, "slaves_declared_dead: 3, first_death: Some(t=0.501265s), units_restored: 4, restore_resends: 13, instr_resends: 1, start_resends: 6, invocation_start_resends: 7, done_dups_ignored: 15, speculations_launched: 1, speculations_committed: 1, units_speculated: 2, speculations_computed: 1"),
    ("converges_early4/mm", 8297650, 778, 0x972dca8c96279b31, "slaves_declared_dead: 1, first_death: Some(t=8.290674s), restore_resends: 3, done_dups_ignored: 3, speculations_launched: 1, speculations_committed: 1, units_speculated: 6, speculations_computed: 1, replication_bytes: 960"),
    ("quiet31/sor", 6053941, 4993, 0xaa2e72629b9d4486, "start_resends: 1, invocation_start_resends: 1, checkpoints_banked: 2, checkpoints_sent: 123, replication_bytes: 720"),
    ("plain_load4/mm/sync", 1672999, 939, 0xdbcb800b21f443a6, ""),
    ("plain_load4/mm/pipe", 1643553, 929, 0xfeaa37cc3d83d307, ""),
    ("plain_load16/mm/sync", 5232675, 2401, 0x07b2bdd8f3958a48, ""),
    ("plain_load16/mm/pipe", 4666588, 2312, 0xb19ce50d862ebd22, ""),
    ("plain_load4/sor", 4000759, 752, 0x78328ebd12b86607, ""),
    ("plain_load4/lu", 1955089, 2251, 0x72e5b0551b9a565f, ""),
    ("plain_converges_early4/mm", 489319, 446, 0xbd6423d12f3f3977, ""),
    ("slow_wire4/mm", 3639761, 992, 0x93798a6b469f0b89, "instr_resends: 2, invocation_start_resends: 2, status_dups_ignored: 21, done_dups_ignored: 8, gather_dups_ignored: 2, transfer_dups_dropped: 1, replication_bytes: 360"),
    ("slow_wire16/mm", 2952134, 2538, 0x6930b1ca9efeee14, "status_dups_ignored: 57, done_dups_ignored: 2, gather_dups_ignored: 16, replication_bytes: 240"),
    ("stale_gather4/sor", 41193588, 2432, 0x329b0dce96fee8c2, "instr_resends: 6, start_resends: 2, invocation_start_resends: 10, done_dups_ignored: 16, checkpoints_banked: 4, rollbacks: 1, units_rolled_back: 16, rollbacks_applied: 3, checkpoints_sent: 71, elections_held: 1, takeover_latency: Some(8.002067s), replication_bytes: 2400"),
];
