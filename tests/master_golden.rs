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
//! master crash with a join in flight}, at 4–16 slaves, each run once. The
//! master is only armed in fault mode, so the slave's *unarmed* path — and its first-release wait on a slow wire — get
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
    fn group(&self) -> usize {
        self.mm.group()
    }
    fn compute_group(&self, units: &mut [(usize, &mut UnitData)], invocation: u64) {
        self.mm.compute_group(units, invocation)
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

    fn cfg(&self, plan: FaultPlan) -> RunConfig {
        let mut cfg = RunConfig::homogeneous(self.slaves);
        cfg.balancer.enabled = true;
        cfg.fault_plan = Some(plan);
        cfg
    }

    /// `tests/chaos_join.rs`: tolerances tightened so evictions, heals and
    /// rejoins fit inside a short run, elastic membership on.
    fn join_cfg(&self, plan: FaultPlan, windows_ms: [u64; 5]) -> RunConfig {
        let [suspicion, speculate_after, nudge, heartbeat, backoff] =
            windows_ms.map(SimDuration::from_millis);
        let mut cfg = self.cfg(plan);
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

/// Every cell of the matrix, in table order.
fn matrix() -> Vec<Row> {
    let mut rows = Vec::new();
    let small = Apps::small();
    let wide = Apps::wide();

    for (i, (name, app, _)) in small.apps.iter().enumerate() {
        let seed = 100 + i as u64;
        // Per-engine crash instant (µs) that lands mid-run.
        let at = [200_000, 300_000, 200_000][i];

        let label = format!("quiet4/{name}");
        let r = app.run(&label, small.cfg(FaultPlan::new(seed)));
        rows.push(row(label, &r));

        let label = format!("wire_crash4/{name}");
        let plan = FaultPlan::new(seed + 10)
            .drop_all(0.05)
            .dup_all(0.02)
            .jitter_all(0.1, SimDuration::from_millis(20))
            .crash(node(1), SimTime(at));
        let r = app.run(&label, small.cfg(plan));
        rows.push(row(label, &r));

        // Frozen past `speculate_after` (4 s), thawed before `suspicion`
        // (8 s): a speculation is launched and then cancelled.
        let label = format!("freeze4/{name}");
        let plan = FaultPlan::new(seed + 20).freeze(node(2), SimTime(at), SimTime(at + 6_000_000));
        let r = app.run(&label, small.cfg(plan));
        rows.push(row(label, &r));
    }

    for (i, (name, app, long)) in wide.apps.iter().enumerate() {
        let seed = 200 + 10 * i as u64;
        let at = [200_000, 300_000, 200_000][i];

        let label = format!("master_mid_invocation/{name}");
        let plan = FaultPlan::new(seed).crash(MASTER, SimTime(at));
        let r = app.run(&label, wide.cfg(plan));
        rows.push(row(label, &r));

        // The master is only frozen: a deputy is elected meanwhile, and the
        // thawed master must retire silently on the winner's `Promoted`.
        let label = format!("master_frozen_then_superseded/{name}");
        let plan = FaultPlan::new(seed).freeze(MASTER, SimTime(at), SimTime(at + 14_000_000));
        let r = app.run(&label, wide.cfg(plan));
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
            let r = app.run(&label, wide.cfg(plan));
            rows.push(row(label, &r));
        }

        // Probe runs pin the instant to aim the next fault at: a fault plan
        // is invisible until its first fault fires.
        let first = FaultPlan::new(seed + 1).crash(node(3), SimTime(at));
        let probe = app.run("probe", wide.cfg(first.clone()));
        let death = probe
            .recovery
            .first_death
            .expect("probe declares a death")
            .0;

        // The master dies right after declaring the slave dead: with its
        // rollback (or its eviction fence) unacknowledged.
        let label = format!("master_mid_rollback/{name}");
        let plan = first.clone().crash(MASTER, SimTime(death + 300));
        let r = app.run(&label, wide.cfg(plan));
        rows.push(row(label, &r));

        // The master dies inside the slave's suspicion window, before it
        // declares the death: the dead slave's fragments died with it, so
        // no invocation is complete among the survivors' and the successor
        // restarts from the initial data — every checkpoint the dead master
        // had banked is lost.
        if *name == "lu" {
            let label = "master_inside_suspicion/lu".to_string();
            let plan = first.clone().crash(MASTER, SimTime((at + death) / 2));
            let r = app.run(&label, wide.cfg(plan));
            rows.push(row(label, &r));
        }

        // A second slave dies with the recovery for the first in flight.
        let label = format!("overlapping_crashes/{name}");
        let plan = first.crash(node(9), SimTime(death + 300));
        let r = app.run(&label, wide.cfg(plan));
        rows.push(row(label, &r));

        // Two slow slaves keep the balancer moving units; the master dies
        // just after its first decision, with migrations in flight.
        let slow = |plan| {
            let mut cfg = wide.cfg(plan);
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
        let probe = app.run("probe", wide.cfg(first.clone()));
        let latency = probe.recovery.takeover_latency.expect("probe fails over");
        let mid_reign = (at + latency.0 + probe.elapsed.0) / 2;
        let label = format!("double_failover/{name}");
        let plan = first.crash(node(0), SimTime(mid_reign));
        let r = app.run(&label, wide.cfg(plan));
        rows.push(row(label, &r));

        // A slave dies just after the master sends `Gather` — on a clean
        // wire, then on one that drops, duplicates and reorders.
        let probe = app.run("probe", wide.cfg(FaultPlan::new(seed + 4)));
        let label = format!("crash_in_gather/{name}");
        let plan = FaultPlan::new(seed + 4).crash(node(4), SimTime(probe.compute_time.0 + 50));
        let r = app.run(&label, wide.cfg(plan));
        rows.push(row(label, &r));

        let lossy = |plan: FaultPlan| {
            plan.drop_all(0.02)
                .dup_all(0.05)
                .jitter_all(0.2, SimDuration::from_millis(20))
        };
        let label = format!("crash_in_gather_lossy/{name}");
        let probe = app.run("probe", wide.cfg(lossy(FaultPlan::new(seed + 4))));
        let plan =
            lossy(FaultPlan::new(seed + 4)).crash(node(4), SimTime(probe.compute_time.0 + 50));
        let r = app.run(&label, wide.cfg(plan));
        rows.push(row(label, &r));

        let joiner = 5 + 2 * i;
        let label = format!("late_join/{name}");
        let mut cfg = wide.join_cfg(FaultPlan::new(seed + 5), JOIN_MS);
        cfg.late_joiners = vec![(joiner, SimTime(at - 50_000))];
        let r = app.run(&label, cfg);
        rows.push(row(label, &r));

        let label = format!("master_crash_join_in_flight/{name}");
        let plan = FaultPlan::new(seed + 6).crash(MASTER, SimTime(at - 40_000));
        let mut cfg = wide.join_cfg(plan, JOIN_MS);
        cfg.late_joiners = vec![(joiner, SimTime(at - 50_000))];
        let r = app.run(&label, cfg);
        rows.push(row(label, &r));

        // The same two shapes on the lossy wire: stale-epoch and
        // previous-life reports straggle in.
        let label = format!("late_join_lossy/{name}");
        let mut cfg = wide.join_cfg(lossy(FaultPlan::new(seed + 5)), JOIN_MS);
        cfg.late_joiners = vec![(joiner, SimTime(at - 50_000))];
        let r = app.run(&label, cfg);
        rows.push(row(label, &r));

        let label = format!("master_crash_join_in_flight_lossy/{name}");
        let plan = lossy(FaultPlan::new(seed + 6)).crash(MASTER, SimTime(at - 40_000));
        let mut cfg = wide.join_cfg(plan, JOIN_MS);
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
        let r = long.run(&label, wide.join_cfg(plan.clone(), windows));
        rows.push(row(label, &r));

        let label = format!("crash_inside_partition/{name}");
        let plan = plan.crash(node(4), SimTime(400_000));
        let r = long.run(&label, wide.join_cfg(plan, windows));
        rows.push(row(label, &r));

        let label = format!("partition_heal_rejoin_lossy/{name}");
        let plan = lossy(FaultPlan::new(seed + 7)).partition(
            SimTime(from),
            SimTime(until),
            vec![minority],
        );
        let r = long.run(&label, wide.join_cfg(plan.clone(), windows));
        rows.push(row(label, &r));

        // The same cell with `speculate_after` at `suspicion`, which only
        // switches snapshot speculation off. It was recorded when slave 6
        // lost the `Rollback` onto the end state and answered the `Gather`
        // one unit short, so the gather had to replay its window. Fault
        // draws and grain have moved since: every slave now delivers from
        // an acknowledged window here, and the stub pins in `master.rs`
        // (`the_re_delivery_after_the_replayed_rollback_completes_the_gather`
        // and its two neighbours) hold that repair. The budget stays: a
        // rollback gather that livelocks still fails the row in a second.
        if *name == "sor" {
            let label = "final_rollback_lost/sor".to_string();
            let [suspicion, _, nudge, heartbeat, backoff] = windows;
            let windows = [suspicion, suspicion, nudge, heartbeat, backoff];
            let mut cfg = wide.join_cfg(plan, windows);
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
    let r = wide.apps[2].1.run(&label, wide.cfg(plan));
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
        .run(&label, wide.join_cfg(plan, PARTITION_MS));
    assert_eq!(r.sim.deliveries_after_exit, 3, "{label}: one report each");
    rows.push(row(label, &r));

    // Data-dependent WHILE termination under the re-scatter policy (the
    // driver wires no convergence test for the other two engines): the run
    // stops after two of three repetitions, through a slave crash.
    let label = "converges_early4/mm".to_string();
    let plan = FaultPlan::new(130).crash(node(1), SimTime(200_000));
    let r = Prog::mm_stopping_after(24, 3, 2).run(&label, small.cfg(plan));
    rows.push(row(label, &r));

    // Armed, quiet, and wide enough that a pipelined slave waiting on its
    // left neighbour "has never spoken" when the nudge timer fires: the
    // master re-sends it Start + InvocationStart with no fault anywhere.
    // Pins `start_resends` / `invocation_start_resends` by name.
    let label = format!("quiet{QUIET_SOR_SLAVES}/sor");
    let sor = Prog::sor(QUIET_SOR_SLAVES + 12, 3, 0.02 * 76.0 / 300.0);
    let mut cfg = RunConfig::homogeneous(QUIET_SOR_SLAVES);
    cfg.fault_plan = Some(FaultPlan::new(300));
    let r = sor.run(&label, cfg);
    assert!(r.recovery.start_resends > 0, "{label}: {:?}", r.recovery);
    assert!(!r.sim.fault.any(), "{label}: no fault fired");
    rows.push(row(label, &r));

    slave_rows(&small, &wide, &mut rows);
    rows
}

/// Cells aimed at the *slave* runner rather than the master's fault loop:
/// the unarmed path every `results/*.txt` table rides (blocking receives,
/// no heartbeats), and the armed first-release wait under a wire slow
/// enough to reorder the start-up traffic.
fn slave_rows(small: &Apps, wide: &Apps, rows: &mut Vec<Row>) {
    // A competing task lands on slave 1 mid-run, so movement orders execute
    // and `TransferAck`s reach slaves already parked at the barrier.
    let plain = |slaves: usize, mode: InteractionMode, at_ms: u64| {
        let mut cfg = RunConfig::homogeneous(slaves);
        cfg.balancer.mode = mode;
        cfg.slave_nodes[1].load = LoadModel::Trace(vec![(SimTime(at_ms * 1000), 2)]);
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
    let probe = sor.run("probe", small.cfg(slow(FaultPlan::new(4))));
    let plan = slow(FaultPlan::new(4)).crash(MASTER, SimTime(probe.compute_time.0 + 2000));
    let r = sor.run(&label, small.cfg(plan));
    assert_eq!(r.recovery.rollbacks, 1, "{label}: the takeover's alone");
    rows.push(row(label, &r));
}

/// Narrowest quiet armed SOR cluster whose pipeline fill outlasts the
/// default nudge timer.
const QUIET_SOR_SLAVES: usize = 31;

#[test]
fn event_streams_match_the_recorded_constants() {
    let rows = matrix();
    let matches = rows.len() == GOLDEN.len()
        && rows
            .iter()
            .zip(GOLDEN)
            .all(|(r, g)| (r.0.as_str(), r.1, r.2, r.3, r.4.as_str()) == (g.0, g.1, g.2, g.3, g.4));
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
        panic!("the event stream moved; actual rows:\n{table}");
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
/// unacknowledged window; a master without it exhausted that row's event budget
/// (it no longer reaches that replay; see the cell).
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
/// Every `/sor` row was re-recorded when the §4.4 block was bounded by the
/// pipeline depth and a halo stayed queued across the barrier and the rescue
/// wait (CHANGES.md lists before → after); no `/mm` or `/lu` row moved.
/// Every row was re-recorded when a CPU charge stopped being a kernel event
/// (an actor runs ahead through its charges and parks only to interact):
/// the events and hashes moved, the elapsed µs and the recovery counters of
/// all 79 held (577 866 events in all before, 495 209 after).
/// 32 rows were re-recorded when the kernel's queues dropped their filing
/// key and every entry due at one instant began to pop in filing order
/// (CHANGES.md lists before → after): same-instant sends draw the fault RNG
/// in another order, so five lossy LU rows moved in elapsed µs, four in
/// recovery counters, and 495 209 events became 493 479.
/// 24 `/lu` rows were re-recorded when an LU slave stopped looking at its
/// mailbox before every column and began to look after a hook that fires
/// and once before a step ends (CHANGES.md lists before → after): a
/// `Rollback`, `Evict` or `PivotWanted` now waits for that look, so three
/// rows moved in elapsed µs, two in recovery counters, and 493 479 events
/// became 491 064.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64, u64, &str)] = &[
    ("quiet4/mm", 434944, 398, 0x1e4d7289989400c9, ""),
    ("wire_crash4/mm", 11599393, 780, 0x7ba7ea8063479902, "slaves_declared_dead: 1, first_death: Some(t=8.302861s), restore_resends: 3, instr_resends: 2, start_resends: 1, invocation_start_resends: 3, status_dups_ignored: 1, done_dups_ignored: 6, speculations_launched: 1, speculations_committed: 1, units_speculated: 6, checkpoints_sent: 1, speculations_computed: 1, replication_bytes: 1200"),
    ("freeze4/mm", 6438838, 610, 0x000bc1cf29cb4b23, "instr_resends: 1, invocation_start_resends: 1, done_dups_ignored: 1, speculations_launched: 1, speculations_cancelled: 1, checkpoints_sent: 1, speculations_computed: 1, replication_bytes: 720"),
    ("quiet4/sor", 1512323, 654, 0x02f469ab57876925, "checkpoints_banked: 3, checkpoints_sent: 16, replication_bytes: 120"),
    ("wire_crash4/sor", 24362873, 1121, 0x12489b9a4a54efeb, "slaves_declared_dead: 2, first_death: Some(t=8.394586s), status_dups_ignored: 1, gather_dups_ignored: 1, checkpoints_banked: 4, rollbacks: 2, units_rolled_back: 32, speculations_launched: 1, speculations_committed: 1, units_speculated: 6, rollbacks_applied: 4, checkpoints_sent: 18, speculations_computed: 1, replication_bytes: 2240"),
    ("freeze4/sor", 7507862, 855, 0x7c8ded39f5d1d045, "checkpoints_banked: 3, speculations_launched: 1, speculations_committed: 1, units_speculated: 16, checkpoints_sent: 25, speculations_computed: 1, replication_bytes: 840"),
    ("quiet4/lu", 852104, 1982, 0x536fae28dbc1764a, "checkpoints_banked: 18, checkpoints_sent: 96"),
    ("wire_crash4/lu", 15915801, 2241, 0x87ffd52327863247, "slaves_declared_dead: 1, first_death: Some(t=8.222855s), restore_resends: 2, instr_resends: 1, invocation_start_resends: 1, status_dups_ignored: 1, done_dups_ignored: 1, gather_dups_ignored: 1, checkpoints_banked: 17, rollbacks: 1, units_rolled_back: 20, speculations_launched: 1, speculations_committed: 1, units_speculated: 20, stale_epoch_dropped: 4, rollbacks_applied: 3, checkpoints_sent: 100, speculations_computed: 1, replication_bytes: 1520"),
    ("freeze4/lu", 6850430, 2243, 0xf661be3ff7de996d, "checkpoints_banked: 18, speculations_launched: 1, speculations_committed: 1, units_speculated: 5, checkpoints_sent: 112, speculations_computed: 1, replication_bytes: 720"),
    ("master_mid_invocation/mm", 8463335, 2027, 0x27a93b4a49e4625d, "rollbacks: 1, units_rolled_back: 32, rollbacks_applied: 15, elections_held: 1, takeover_latency: Some(8.196209s)"),
    ("master_frozen_then_superseded/mm", 14282800, 2714, 0x0378b4452ebed784, "rollbacks: 1, units_rolled_back: 32, rollbacks_applied: 15, elections_held: 1, takeover_latency: Some(8.196209s)"),
    ("drop16/mm", 16270012, 1718, 0xfa7226e372aa9af3, "instr_resends: 2, start_resends: 1, invocation_start_resends: 3, done_dups_ignored: 2, replication_bytes: 600"),
    ("dup16/mm", 321291, 1283, 0x6462b768f1a95e04, "status_dups_ignored: 10, done_dups_ignored: 2"),
    ("jitter16/mm", 381198, 1275, 0x0cea75389298a463, ""),
    ("master_mid_rollback/mm", 24460118, 3621, 0x00146086de82c135, "slaves_declared_dead: 1, first_death: Some(t=24.322677s), restore_resends: 13, rollbacks: 1, units_rolled_back: 32, stale_epoch_dropped: 119, rollbacks_applied: 14, elections_held: 1, takeover_latency: Some(8.002530s), replication_bytes: 640"),
    ("overlapping_crashes/mm", 15456034, 3276, 0xa252b4b332ba1fe6, "slaves_declared_dead: 2, first_death: Some(t=8.302046s), units_restored: 2, restore_resends: 32, done_dups_ignored: 28, speculations_launched: 1, speculations_committed: 1, units_speculated: 2, checkpoints_sent: 1, speculations_computed: 1, replication_bytes: 1800"),
    ("master_mid_transfer/mm", 9213734, 1961, 0x9d6277aea22f8815, "done_dups_ignored: 1, rollbacks: 1, units_rolled_back: 32, rollbacks_applied: 15, elections_held: 1, takeover_latency: Some(8.088487s), replication_bytes: 80"),
    ("double_failover/mm", 18597377, 2850, 0xa2ac10529925569f, "rollbacks: 2, units_rolled_back: 64, rollbacks_applied: 28, elections_held: 2, takeover_latency: Some(10.258291s)"),
    ("crash_in_gather/mm", 8324387, 1480, 0x4742e69707ffdd0a, "slaves_declared_dead: 1, first_death: Some(t=8.324187s), units_recomputed: 2, gather_resends: 3, gathers_interrupted: 1, replication_bytes: 960"),
    ("crash_in_gather_lossy/mm", 10319611, 1693, 0x576618eff79891ba, "slaves_declared_dead: 1, first_death: Some(t=10.318811s), units_recomputed: 2, gather_resends: 4, status_dups_ignored: 3, done_dups_ignored: 4, gather_dups_ignored: 4, gathers_interrupted: 1, replication_bytes: 1200"),
    ("late_join/mm", 361959, 1261, 0x6a7fcf990f9ad2fb, "rollbacks: 1, units_rolled_back: 32, joins_admitted: 1, join_snapshot_bytes: 1200, rollbacks_applied: 16"),
    ("master_crash_join_in_flight/mm", 8371824, 3554, 0xced6df6fe48508f0, "rollbacks: 2, units_rolled_back: 64, joins_admitted: 1, join_snapshot_bytes: 1192, stale_epoch_dropped: 13, rollbacks_applied: 29, elections_held: 1, takeover_latency: Some(8.062503s)"),
    ("late_join_lossy/mm", 1117910, 1782, 0xb7e3c795ad3db1dd, "restore_resends: 1, start_resends: 1, invocation_start_resends: 1, status_dups_ignored: 12, rollbacks: 1, units_rolled_back: 32, joins_admitted: 1, join_snapshot_bytes: 1200, stale_epoch_dropped: 3, rollbacks_applied: 16, replication_bytes: 120"),
    ("master_crash_join_in_flight_lossy/mm", 10085872, 4487, 0x913f1194cbde2218, "restore_resends: 26, status_dups_ignored: 7, rollbacks: 2, units_rolled_back: 64, joins_admitted: 1, join_snapshot_bytes: 1192, stale_epoch_dropped: 148, rollbacks_applied: 29, elections_held: 1, takeover_latency: Some(8.086121s), replication_bytes: 80"),
    ("partition_heal_rejoin/mm", 1917844, 5016, 0x3cfbb6aa139cdac1, "slaves_declared_dead: 4, first_death: Some(t=0.606651s), units_restored: 6, restore_resends: 15, instr_resends: 1, invocation_start_resends: 1, done_dups_ignored: 20, rollbacks: 1, units_rolled_back: 32, speculations_launched: 1, speculations_committed: 1, units_speculated: 2, joins_admitted: 4, rejoins_after_eviction: 4, join_snapshot_bytes: 4800, partitions_healed: 1, rollbacks_applied: 16, checkpoints_sent: 1, speculations_computed: 1, replication_bytes: 120"),
    ("crash_inside_partition/mm", 2231370, 5739, 0xb1fcc542666fe293, "slaves_declared_dead: 5, first_death: Some(t=0.606651s), units_restored: 8, restore_resends: 26, instr_resends: 1, invocation_start_resends: 1, done_dups_ignored: 30, rollbacks: 1, units_rolled_back: 32, speculations_launched: 1, speculations_committed: 1, units_speculated: 2, joins_admitted: 4, rejoins_after_eviction: 4, join_snapshot_bytes: 4768, partitions_healed: 1, stale_epoch_dropped: 1, rollbacks_applied: 15, checkpoints_sent: 1, speculations_computed: 1, replication_bytes: 240"),
    ("partition_heal_rejoin_lossy/mm", 2557798, 5609, 0x25c9923bce61bf99, "slaves_declared_dead: 4, first_death: Some(t=0.603643s), units_restored: 6, restore_resends: 17, instr_resends: 11, start_resends: 2, invocation_start_resends: 13, status_dups_ignored: 12, done_dups_ignored: 33, gather_dups_ignored: 3, rollbacks: 1, units_rolled_back: 32, speculations_launched: 1, speculations_committed: 1, units_speculated: 2, joins_admitted: 4, rejoins_after_eviction: 4, join_snapshot_bytes: 4800, partitions_healed: 1, stale_epoch_dropped: 5, rollbacks_applied: 16, checkpoints_sent: 1, speculations_computed: 1, replication_bytes: 240"),
    ("master_mid_invocation/sor", 11731831, 3588, 0xef22376ccca56032, "checkpoints_banked: 3, rollbacks: 1, units_rolled_back: 34, rollbacks_applied: 15, checkpoints_sent: 165, elections_held: 1, takeover_latency: Some(8.316503s), replication_bytes: 240"),
    ("master_frozen_then_superseded/sor", 14372117, 4077, 0xaa93d5dd7f3fa225, "slaves_declared_dead: 1, first_death: Some(t=14.301200s), rollbacks: 1, units_rolled_back: 34, replication_bytes: 120"),
    ("drop16/sor", 53714255, 7205, 0x3d90a416847250c6, "slaves_declared_dead: 4, first_death: Some(t=15.251674s), restore_resends: 114, start_resends: 234, invocation_start_resends: 234, gather_dups_ignored: 1, checkpoints_banked: 4, rollbacks: 4, units_rolled_back: 136, speculations_launched: 7, speculations_committed: 7, units_speculated: 114, stale_epoch_dropped: 93, rollbacks_applied: 48, checkpoints_sent: 88, speculations_computed: 7, replication_bytes: 4760"),
    ("dup16/sor", 4546745, 3272, 0x893c8221075f310b, "status_dups_ignored: 8, checkpoints_banked: 3, checkpoints_sent: 64, replication_bytes: 480"),
    ("jitter16/sor", 4727051, 3257, 0xa8e54d2ffa309bb5, "checkpoints_banked: 3, checkpoints_sent: 64, replication_bytes: 480"),
    ("master_mid_rollback/sor", 28742508, 4505, 0x6fc0f1bac3fc1d19, "slaves_declared_dead: 1, first_death: Some(t=24.203771s), checkpoints_banked: 3, rollbacks: 1, units_rolled_back: 34, stale_epoch_dropped: 26, rollbacks_applied: 14, checkpoints_sent: 102, elections_held: 1, takeover_latency: Some(8.004202s), replication_bytes: 880"),
    ("overlapping_crashes/sor", 18917625, 4014, 0x4bec24755453382e, "slaves_declared_dead: 2, first_death: Some(t=8.441287s), restore_resends: 27, checkpoints_banked: 3, rollbacks: 2, units_rolled_back: 68, speculations_launched: 2, speculations_committed: 2, units_speculated: 68, stale_epoch_dropped: 33, rollbacks_applied: 28, checkpoints_sent: 98, speculations_computed: 2, replication_bytes: 2160"),
    ("master_mid_transfer/sor", 13666089, 3808, 0xcefe3505cd27f097, "checkpoints_banked: 3, rollbacks: 1, units_rolled_back: 34, transfer_resends: 1, transfer_dups_dropped: 1, rollbacks_applied: 15, checkpoints_sent: 159, elections_held: 1, takeover_latency: Some(8.316106s), replication_bytes: 400"),
    ("double_failover/sor", 20918495, 4243, 0x6ea15a59b099bd2a, "checkpoints_banked: 3, rollbacks: 2, units_rolled_back: 68, rollbacks_applied: 28, checkpoints_sent: 280, elections_held: 2, takeover_latency: Some(10.438367s), replication_bytes: 120"),
    ("crash_in_gather/sor", 13690853, 4168, 0x6b85501480488f24, "slaves_declared_dead: 1, first_death: Some(t=12.548441s), gather_resends: 3, gathers_interrupted: 1, checkpoints_banked: 3, rollbacks: 1, units_rolled_back: 34, rollbacks_applied: 15, checkpoints_sent: 135, replication_bytes: 1560"),
    ("crash_in_gather_lossy/sor", 46579532, 7981, 0x2f08d7ffa1038ab5, "slaves_declared_dead: 3, first_death: Some(t=16.385696s), restore_resends: 93, status_dups_ignored: 3, gather_dups_ignored: 12, checkpoints_banked: 4, rollbacks: 3, units_rolled_back: 102, speculations_launched: 3, speculations_committed: 3, units_speculated: 102, stale_epoch_dropped: 81, rollbacks_applied: 39, checkpoints_sent: 328, speculations_computed: 3, replication_bytes: 5520"),
    ("late_join/sor", 5679454, 6003, 0xd25c8b83f0596a88, "restore_resends: 28, start_resends: 18, invocation_start_resends: 18, checkpoints_banked: 3, rollbacks: 1, units_rolled_back: 34, joins_admitted: 1, join_snapshot_bytes: 752, stale_epoch_dropped: 28, rollbacks_applied: 16, checkpoints_sent: 194, replication_bytes: 600"),
    ("master_crash_join_in_flight/sor", 11626011, 7325, 0x6158815c25e4a399, "restore_resends: 37, checkpoints_banked: 3, rollbacks: 2, units_rolled_back: 68, joins_admitted: 1, join_snapshot_bytes: 744, stale_epoch_dropped: 37, rollbacks_applied: 29, checkpoints_sent: 629, elections_held: 1, takeover_latency: Some(8.129275s), replication_bytes: 240"),
    ("late_join_lossy/sor", 24692386, 25623, 0x331067549109c338, "slaves_declared_dead: 14, first_death: Some(t=3.042671s), restore_resends: 3300, start_resends: 19, invocation_start_resends: 19, status_dups_ignored: 13, done_dups_ignored: 32, gather_dups_ignored: 11, checkpoints_banked: 4, rollbacks: 21, units_rolled_back: 714, speculations_launched: 9, speculations_committed: 1, speculations_cancelled: 7, units_speculated: 3, joins_admitted: 12, rejoins_after_eviction: 11, join_snapshot_bytes: 11296, partitions_healed: 6, stale_epoch_dropped: 3000, rollbacks_applied: 217, checkpoints_sent: 108, replication_bytes: 1640"),
    ("master_crash_join_in_flight_lossy/sor", 30779361, 28904, 0x71ad2cada9a36e97, "slaves_declared_dead: 12, first_death: Some(t=10.408746s), restore_resends: 3120, status_dups_ignored: 6, done_dups_ignored: 20, gather_dups_ignored: 11, checkpoints_banked: 4, rollbacks: 21, units_rolled_back: 714, speculations_launched: 7, speculations_committed: 2, speculations_cancelled: 4, units_speculated: 6, joins_admitted: 10, rejoins_after_eviction: 9, join_snapshot_bytes: 9136, partitions_healed: 7, stale_epoch_dropped: 2289, rollbacks_applied: 196, checkpoints_sent: 406, speculations_computed: 1, elections_held: 1, takeover_latency: Some(8.129075s), replication_bytes: 800"),
    ("partition_heal_rejoin/sor", 30007483, 7749, 0x436635524ae21cc7, "slaves_declared_dead: 2, first_death: Some(t=2.013953s), restore_resends: 85, start_resends: 20, invocation_start_resends: 20, done_dups_ignored: 2, checkpoints_banked: 3, rollbacks: 3, units_rolled_back: 102, speculations_launched: 4, speculations_committed: 3, units_speculated: 8, joins_admitted: 1, rejoins_after_eviction: 1, join_snapshot_bytes: 1040, partitions_healed: 1, stale_epoch_dropped: 79, rollbacks_applied: 40, checkpoints_sent: 264, speculations_computed: 3, replication_bytes: 1000"),
    ("crash_inside_partition/sor", 30007483, 6837, 0xab9aaf0648c91b31, "slaves_declared_dead: 3, first_death: Some(t=2.005797s), restore_resends: 92, start_resends: 23, invocation_start_resends: 23, done_dups_ignored: 2, checkpoints_banked: 3, rollbacks: 4, units_rolled_back: 136, speculations_launched: 4, speculations_committed: 3, units_speculated: 8, joins_admitted: 1, rejoins_after_eviction: 1, join_snapshot_bytes: 1032, partitions_healed: 1, stale_epoch_dropped: 87, rollbacks_applied: 50, checkpoints_sent: 182, speculations_computed: 3, replication_bytes: 1000"),
    ("partition_heal_rejoin_lossy/sor", 37853869, 23971, 0xc971036a55837394, "slaves_declared_dead: 11, first_death: Some(t=2.010920s), restore_resends: 1027, start_resends: 59, invocation_start_resends: 59, status_dups_ignored: 5, done_dups_ignored: 9, gather_dups_ignored: 2, checkpoints_banked: 4, rollbacks: 20, units_rolled_back: 680, speculations_launched: 6, speculations_committed: 4, units_speculated: 12, joins_admitted: 10, rejoins_after_eviction: 10, join_snapshot_bytes: 9456, partitions_healed: 9, stale_epoch_dropped: 938, rollbacks_applied: 226, checkpoints_sent: 558, speculations_computed: 2, replication_bytes: 3600"),
    ("final_rollback_lost/sor", 30019904, 17349, 0x130ed82a80f1b191, "slaves_declared_dead: 7, first_death: Some(t=2.010647s), restore_resends: 333, instr_resends: 1, start_resends: 22, invocation_start_resends: 23, gather_resends: 2, status_dups_ignored: 8, done_dups_ignored: 4, gather_dups_ignored: 1, checkpoints_banked: 3, rollbacks: 12, units_rolled_back: 408, joins_admitted: 5, rejoins_after_eviction: 5, join_snapshot_bytes: 4288, partitions_healed: 5, stale_epoch_dropped: 324, rollbacks_applied: 136, checkpoints_sent: 448, replication_bytes: 3160"),
    ("master_mid_invocation/lu", 8747478, 8831, 0xbbe23ebc8dcb86e7, "checkpoints_banked: 22, rollbacks: 1, units_rolled_back: 24, rollbacks_applied: 15, checkpoints_sent: 450, elections_held: 1, takeover_latency: Some(8.182040s)"),
    ("master_frozen_then_superseded/lu", 14260463, 10085, 0x848364f382d6c9b0, "slaves_declared_dead: 1, first_death: Some(t=14.201400s), checkpoints_banked: 3, rollbacks: 1, units_rolled_back: 24, replication_bytes: 120"),
    ("drop16/lu", 36575433, 12123, 0xf12433cad1588c5c, "instr_resends: 39, start_resends: 2, invocation_start_resends: 41, gather_resends: 4, done_dups_ignored: 48, checkpoints_banked: 16, checkpoints_sent: 626, replication_bytes: 3240"),
    ("dup16/lu", 772717, 8372, 0x1e2f066a22abf228, "status_dups_ignored: 20, checkpoints_banked: 22, checkpoints_sent: 368"),
    ("jitter16/lu", 1117623, 8673, 0x5c9b8c449e969f04, "checkpoints_banked: 22, checkpoints_sent: 368, replication_bytes: 120"),
    ("master_mid_rollback/lu", 24981889, 11702, 0x79f73818b6b9f352, "slaves_declared_dead: 1, first_death: Some(t=24.196809s), checkpoints_banked: 24, rollbacks: 1, units_rolled_back: 24, stale_epoch_dropped: 106, rollbacks_applied: 14, checkpoints_sent: 695, elections_held: 1, takeover_latency: Some(8.004162s), replication_bytes: 640"),
    ("master_inside_suspicion/lu", 21388078, 11148, 0x27c4ea1c79309d7b, "slaves_declared_dead: 1, first_death: Some(t=20.602998s), checkpoints_banked: 24, rollbacks: 1, units_rolled_back: 24, stale_epoch_dropped: 106, rollbacks_applied: 14, checkpoints_sent: 651, elections_held: 1, takeover_latency: Some(8.003860s), replication_bytes: 640"),
    ("overlapping_crashes/lu", 16717467, 10092, 0x1c6300cfa7506add, "slaves_declared_dead: 2, first_death: Some(t=8.187647s), restore_resends: 3, checkpoints_banked: 22, rollbacks: 2, units_rolled_back: 48, speculations_launched: 2, speculations_committed: 2, units_speculated: 4, stale_epoch_dropped: 4, rollbacks_applied: 28, checkpoints_sent: 522, speculations_computed: 2, replication_bytes: 1920"),
    ("master_mid_transfer/lu", 9845707, 8719, 0xbd59b42cd6bb0c12, "checkpoints_banked: 22, rollbacks: 1, units_rolled_back: 24, rollbacks_applied: 15, checkpoints_sent: 457, elections_held: 1, takeover_latency: Some(8.034418s), replication_bytes: 80"),
    ("double_failover/lu", 18770855, 10310, 0xd9d5fc884510d5e6, "checkpoints_banked: 22, rollbacks: 2, units_rolled_back: 48, rollbacks_applied: 28, checkpoints_sent: 495, elections_held: 2, takeover_latency: Some(10.385043s)"),
    ("crash_in_gather/lu", 8797580, 9973, 0x113bdca047a4a949, "slaves_declared_dead: 1, first_death: Some(t=8.770013s), gather_resends: 3, gathers_interrupted: 1, checkpoints_banked: 23, rollbacks: 1, units_rolled_back: 24, rollbacks_applied: 15, checkpoints_sent: 705, replication_bytes: 960"),
    ("crash_in_gather_lossy/lu", 30872455, 12922, 0x1307a51aa9a369d2, "slaves_declared_dead: 1, first_death: Some(t=28.805170s), instr_resends: 20, start_resends: 1, invocation_start_resends: 21, gather_resends: 5, status_dups_ignored: 22, done_dups_ignored: 24, gather_dups_ignored: 1, gathers_interrupted: 1, checkpoints_banked: 21, rollbacks: 1, units_rolled_back: 24, rollbacks_applied: 15, checkpoints_sent: 1049, replication_bytes: 3600"),
    ("late_join/lu", 823247, 9320, 0xe742cdeaa6534174, "checkpoints_banked: 22, rollbacks: 1, units_rolled_back: 24, joins_admitted: 1, join_snapshot_bytes: 360, rollbacks_applied: 16, checkpoints_sent: 381"),
    ("master_crash_join_in_flight/lu", 8795710, 11686, 0x5ff13e204bc0bf34, "checkpoints_banked: 22, rollbacks: 2, units_rolled_back: 48, joins_admitted: 1, join_snapshot_bytes: 552, stale_epoch_dropped: 10, rollbacks_applied: 29, checkpoints_sent: 890, elections_held: 1, takeover_latency: Some(8.143871s)"),
    ("late_join_lossy/lu", 6269851, 11493, 0xec97e11cf83e0901, "instr_resends: 12, invocation_start_resends: 12, gather_resends: 1, status_dups_ignored: 25, done_dups_ignored: 14, checkpoints_banked: 19, rollbacks: 1, units_rolled_back: 24, joins_admitted: 1, join_snapshot_bytes: 360, stale_epoch_dropped: 1, rollbacks_applied: 16, checkpoints_sent: 491, replication_bytes: 480"),
    ("master_crash_join_in_flight_lossy/lu", 14282443, 14321, 0x95f75fdd0ac4afda, "instr_resends: 27, invocation_start_resends: 27, gather_resends: 1, status_dups_ignored: 19, done_dups_ignored: 33, gather_dups_ignored: 3, checkpoints_banked: 20, rollbacks: 2, units_rolled_back: 48, joins_admitted: 1, join_snapshot_bytes: 552, stale_epoch_dropped: 7, rollbacks_applied: 29, checkpoints_sent: 1030, elections_held: 1, takeover_latency: Some(8.050967s), replication_bytes: 320"),
    ("partition_heal_rejoin/lu", 4323255, 17741, 0xb013ec7637cd1268, "slaves_declared_dead: 3, first_death: Some(t=0.618441s), restore_resends: 40, instr_resends: 2, invocation_start_resends: 2, done_dups_ignored: 5, checkpoints_banked: 38, rollbacks: 6, units_rolled_back: 240, speculations_launched: 2, joins_admitted: 3, rejoins_after_eviction: 3, join_snapshot_bytes: 3408, partitions_healed: 3, stale_epoch_dropped: 40, rollbacks_applied: 84, checkpoints_sent: 812, replication_bytes: 400"),
    ("crash_inside_partition/lu", 5203511, 17622, 0x16ca809580c97f1e, "slaves_declared_dead: 5, first_death: Some(t=0.618441s), restore_resends: 99, instr_resends: 2, invocation_start_resends: 2, done_dups_ignored: 8, checkpoints_banked: 38, rollbacks: 9, units_rolled_back: 360, speculations_launched: 3, joins_admitted: 4, rejoins_after_eviction: 4, join_snapshot_bytes: 4520, partitions_healed: 4, stale_epoch_dropped: 99, rollbacks_applied: 112, checkpoints_sent: 800, replication_bytes: 480"),
    ("partition_heal_rejoin_lossy/lu", 30011923, 21696, 0x25bd2dc56b4ff0c5, "slaves_declared_dead: 3, first_death: Some(t=0.635127s), restore_resends: 22, instr_resends: 44, start_resends: 3, invocation_start_resends: 47, gather_resends: 1, status_dups_ignored: 33, done_dups_ignored: 61, gather_dups_ignored: 1, checkpoints_banked: 30, rollbacks: 5, units_rolled_back: 200, speculations_launched: 2, joins_admitted: 2, rejoins_after_eviction: 2, join_snapshot_bytes: 2264, partitions_healed: 2, stale_epoch_dropped: 27, rollbacks_applied: 68, checkpoints_sent: 1084, replication_bytes: 760"),
    ("pivot_link_cut/lu", 2762519, 8738, 0xb720d51f5ab0870f, "instr_resends: 2, invocation_start_resends: 2, done_dups_ignored: 4, checkpoints_banked: 22, checkpoints_sent: 388, replication_bytes: 240"),
    ("heal_after_end/mm", 2093983, 2333, 0x589521b18a21a444, "slaves_declared_dead: 3, first_death: Some(t=0.501265s), units_restored: 4, restore_resends: 13, instr_resends: 1, start_resends: 6, invocation_start_resends: 7, done_dups_ignored: 15, speculations_launched: 1, speculations_committed: 1, units_speculated: 2, checkpoints_sent: 1, speculations_computed: 1"),
    ("converges_early4/mm", 8297673, 604, 0x1c07727ddd7bb11a, "slaves_declared_dead: 1, first_death: Some(t=8.290674s), restore_resends: 3, done_dups_ignored: 3, speculations_launched: 1, speculations_committed: 1, units_speculated: 6, checkpoints_sent: 1, speculations_computed: 1, replication_bytes: 960"),
    ("quiet31/sor", 6053941, 4211, 0x29fcd9377d764ec5, "start_resends: 1, invocation_start_resends: 1, checkpoints_banked: 2, checkpoints_sent: 123, replication_bytes: 720"),
    ("plain_load4/mm/sync", 1672999, 647, 0xa24823cca3215873, ""),
    ("plain_load4/mm/pipe", 1643553, 648, 0x6166375c4bfb2e54, ""),
    ("plain_load16/mm/sync", 5232675, 1677, 0x70489e8c62f509f9, ""),
    ("plain_load16/mm/pipe", 4666588, 1652, 0x372cbe79cfb76b1f, ""),
    ("plain_load4/sor", 3108096, 580, 0xc38b9451e5cd1187, ""),
    ("plain_load4/lu", 1955089, 1646, 0x674ead36df5abc29, ""),
    ("plain_converges_early4/mm", 489319, 304, 0x70ecb356099b4c7c, ""),
    ("slow_wire4/mm", 3639761, 783, 0x4ebf26e38e6d323a, "instr_resends: 2, invocation_start_resends: 2, status_dups_ignored: 21, done_dups_ignored: 8, gather_dups_ignored: 2, transfer_dups_dropped: 1, replication_bytes: 360"),
    ("slow_wire16/mm", 2890589, 2094, 0x1937b708deb19e80, "status_dups_ignored: 57, done_dups_ignored: 3, gather_dups_ignored: 17, replication_bytes: 240"),
    ("stale_gather4/sor", 40077926, 2209, 0xae6c5ec5ecfbc0c0, "instr_resends: 5, start_resends: 2, invocation_start_resends: 9, done_dups_ignored: 15, checkpoints_banked: 4, rollbacks: 1, units_rolled_back: 16, rollbacks_applied: 3, checkpoints_sent: 69, elections_held: 1, takeover_latency: Some(8.002067s), replication_bytes: 2400"),
];
