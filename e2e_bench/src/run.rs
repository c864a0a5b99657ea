//! Running one workload: passes, verification, the determinism self-check,
//! and the traced pass that attributes host time to layers.
//!
//! Load shape: a closed loop with one client. A pass runs the workload's
//! cells once, serially; the next pass starts when the previous one has
//! finished. One warm-up pass is discarded, then passes are timed until
//! `--seconds` have gone by; every one of them must repeat the warm-up's
//! trace hashes, counters and virtual times exactly (the determinism check).
//!
//! Host times are reported as *floors*: `wall_s` is each cell's fastest timed
//! run, summed over the cells (see [`Series::floor`] for why not the median),
//! `setup_s` the fastest set-up. Median and quartiles of the samples go to
//! the set file beside them.

use crate::host;
use crate::json::Value;
use crate::layers::{AppsMeter, Probes};
use crate::spans::Spans;
use crate::stats::{median, Quartiles};
use crate::workloads::{CellSpec, Kernel, Workload};
use dlb_core::driver::{try_run, RunReport};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

pub struct Options {
    pub seed: u64,
    /// Host seconds of timed passes (rounds, when traced).
    pub seconds: f64,
    pub trace: bool,
    /// Self-test: verify against a deliberately wrong reference.
    pub corrupt_reference: bool,
}

/// Fewest timed passes a floor or median is taken over.
const MIN_PASSES: usize = 3;

/// Set-ups timed back to back before each timed pass; `setup_s` is the
/// fastest of all of them, a floor like `wall_s`. A set-up is 0.15–6 ms of
/// allocation and copying, which the host's slow phases hit hardest: over two
/// sets of ten runs the median set-up spread by up to 44 % and moved by up to
/// 18 % from one set to the next, the lower quartile by 32 % and 6 %, the
/// fastest by 13 % and 1 %. Spreading the samples over the run gives every
/// quiet phase of the host a chance to be sampled.
const SETUP_REPS: usize = 5;

type Grid = Vec<Vec<f64>>;

/// Everything about one cell run that must repeat exactly: on the same
/// inputs, on any host, at any pool size.
#[derive(Clone, Debug, PartialEq)]
pub struct CellExact {
    pub counters: Vec<(&'static str, u64)>,
    pub trace_hash: u64,
    pub virt_elapsed_us: u64,
    pub efficiency: f64,
}

/// The exact counters of one run, under their per-layer metric names.
/// Additive over cells except `sim.kernel.max_batch` (a maximum).
fn exact_of(report: &RunReport, kernel: &Kernel) -> CellExact {
    let sim = &report.sim;
    let (sched, fault, rec, bal) = (&sim.sched, &sim.fault, &report.recovery, &report.stats);
    let sent: u64 = sim.actors.iter().map(|a| a.msgs_sent).sum();
    let bytes: u64 = sim.actors.iter().map(|a| a.bytes_sent).sum();
    // Actor 0 is the master (spawn order fixes ids).
    let master = sim.actors[0].msgs_sent + sim.actors[0].msgs_received;
    let counters = vec![
        ("sim.kernel.events", sim.events_processed),
        ("sim.kernel.polls", sched.polls),
        ("sim.kernel.wakeups", sched.wakeups),
        ("sim.kernel.stale_wakes", sched.stale_wakes),
        ("sim.kernel.batches", sched.batches),
        ("sim.kernel.max_batch", sched.max_batch as u64),
        ("core.msg.sent", sent),
        ("core.msg.bytes", bytes),
        ("core.msg.master_touched", master),
        ("core.balancer.statuses", bal.statuses),
        ("core.balancer.decisions", bal.decisions),
        ("core.balancer.moves_issued", bal.moves_issued),
        ("core.balancer.units_moved", bal.units_moved),
        ("core.balancer.cancelled_threshold", bal.cancelled_threshold),
        (
            "core.balancer.cancelled_profitability",
            bal.cancelled_profitability,
        ),
        ("core.session.checkpoints_banked", rec.checkpoints_banked),
        ("core.session.rollbacks", rec.rollbacks),
        ("core.session.units_rolled_back", rec.units_rolled_back),
        (
            "core.session.resends",
            rec.restore_resends
                + rec.instr_resends
                + rec.start_resends
                + rec.invocation_start_resends
                + rec.gather_resends
                + rec.transfer_resends,
        ),
        (
            "core.session.dups_ignored",
            rec.status_dups_ignored
                + rec.done_dups_ignored
                + rec.gather_dups_ignored
                + rec.transfer_dups_dropped,
        ),
        ("core.session.evictions", rec.slaves_declared_dead),
        ("core.session.joins_admitted", rec.joins_admitted),
        (
            "core.session.rejoins_after_eviction",
            rec.rejoins_after_eviction,
        ),
        ("core.session.replicas_published", rec.replicas_published),
        ("core.session.replication_bytes", rec.replication_bytes),
        ("core.session.join_snapshot_bytes", rec.join_snapshot_bytes),
        (
            "core.session.speculations_launched",
            rec.speculations_launched,
        ),
        (
            "core.session.speculations_committed",
            rec.speculations_committed,
        ),
        ("sim.fault.msgs_dropped", fault.msgs_dropped),
        ("sim.fault.partition_dropped", fault.partition_dropped),
        (
            "sim.fault.deliveries_to_crashed",
            fault.deliveries_to_crashed,
        ),
        ("sim.fault.crashed_nodes", fault.crashed_nodes.len() as u64),
    ];
    CellExact {
        counters,
        trace_hash: sim.trace_hash,
        virt_elapsed_us: report.elapsed.micros(),
        efficiency: report.efficiency(kernel.sequential_time()),
    }
}

/// Sum of the cells' counters (maximum for `max_batch`).
fn sum_counters(cells: &[&CellExact]) -> Vec<(&'static str, u64)> {
    let mut total = cells[0].counters.clone();
    for cell in &cells[1..] {
        for (t, c) in total.iter_mut().zip(&cell.counters) {
            debug_assert_eq!(t.0, c.0);
            t.1 = if t.0 == "sim.kernel.max_batch" {
                t.1.max(c.1)
            } else {
                t.1 + c.1
            };
        }
    }
    total
}

/// One cell of one pass.
struct CellRun {
    compile_s: f64,
    wall_s: f64,
    cpu_s: f64,
    ctx_switches: u64,
    pool_workers: usize,
    /// The exact record of a run that completed bit-exact, or why not.
    outcome: Result<CellExact, String>,
}

struct Pass {
    cells: Vec<CellRun>,
    /// `(calls, busy seconds)` of the apps meter, when the pass was traced.
    apps: (u64, f64),
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_s).sum()
    }
}

/// How a pass differs from the plain timed one.
struct PassMode<'a> {
    /// Span name of the pass.
    label: &'static str,
    workers: Option<usize>,
    /// Put the kernels behind timing decorators feeding this meter.
    meter: Option<&'a Arc<AppsMeter>>,
    /// Strip the fault plan (the `armed_over_plain` denominator); such a
    /// pass is not compared against the armed warm-up.
    plain: bool,
}

/// The timed pass polls inline, on the one thread of the kernel loop
/// (`worker_threads = Some(0)`), not on the program's default pool. On the
/// default pool the 1–2 % of batches that hold two or more polls are handed to
/// another thread and slept on, and what such a hand-off costs is the
/// hypervisor's to decide: a wake-up that has to bring a halted virtual CPU
/// back took 1.3–1.5x as long for 22 minutes on end — `wide_armed`'s fastest
/// pass of every one of ten 20 s runs at 0.36–0.43 s against 0.26–0.27 s in
/// the hours before and the minutes after — while the workloads that never
/// fill a batch (`compute_w4`, `rejoin_w16`) did not move by 2 %. No statistic
/// over a run sees through that, so the pool is measured as a layer (traced
/// run: `sim.pool.*`) and kept out of the end-to-end time.
const TIMED: PassMode<'static> = PassMode {
    label: "pass",
    workers: Some(0),
    meter: None,
    plain: false,
};

fn bit_exact(a: &Grid, b: &Grid) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

struct Harness<'a> {
    workload: &'a Workload,
    opt: &'a Options,
    references: Vec<Arc<Grid>>,
    spans: Spans,
    root: usize,
    attempted: u64,
    failed: u64,
}

impl Harness<'_> {
    fn fail(&mut self, what: &str) {
        self.failed += 1;
        println!("FAILED {}: {what}", self.workload.name);
    }

    fn run_cell(&mut self, idx: usize, spec: &CellSpec, mode: &PassMode, pass: usize) -> CellRun {
        let seed = self.opt.seed;
        let cell = self.spans.open(format!("cell:{}", spec.name), Some(pass));
        let (kernel, _) = self.spans.time("setup.build", Some(cell), || {
            Kernel::build(spec.problem, seed)
        });
        let (plan, compile_s) = self
            .spans
            .time("setup.compile", Some(cell), || kernel.compile());
        let spec = if mode.plain { spec.plain() } else { *spec };
        let cfg = spec.config(seed, mode.workers);
        let app = kernel.app_spec(mode.meter);

        let (cpu0, ctx0) = (host::cpu_s(), host::ctx_switches());
        let (result, wall_s) = self.spans.time("run", Some(cell), || {
            catch_unwind(AssertUnwindSafe(|| try_run(app, &plan, cfg)))
        });
        let (cpu_s, ctx_switches) = (host::cpu_s() - cpu0, host::ctx_switches() - ctx0);
        self.attempted += 1;

        let mut pool_workers = 0;
        let outcome = match result {
            Err(payload) => Err(format!("panicked: {}", panic_text(payload))),
            Ok(Err(e)) => Err(format!("run error: {}", e.error)),
            Ok(Ok(report)) => {
                pool_workers = report.sim.sched.pool_workers;
                let reference = self.references[idx].clone();
                let (same, _) = self.spans.time("verify.compare", Some(cell), || {
                    bit_exact(&kernel.result(&report), &reference)
                });
                if same {
                    Ok(exact_of(&report, &kernel))
                } else {
                    Err("result differs from the sequential reference".to_string())
                }
            }
        };
        self.spans.close(cell);
        if let Err(e) = &outcome {
            self.fail(&format!("cell {}: {e}", spec.name));
        }
        CellRun {
            compile_s,
            wall_s,
            cpu_s,
            ctx_switches,
            pool_workers,
            outcome,
        }
    }

    /// One set-up of the workload, nothing run: every cell's problem
    /// construction, `dlb_compiler::compile` and config build. Host seconds.
    fn time_setup(&self) -> f64 {
        let t0 = Instant::now();
        for spec in &self.workload.cells {
            let kernel = Kernel::build(spec.problem, self.opt.seed);
            black_box((
                kernel.compile(),
                spec.config(self.opt.seed, TIMED.workers),
                kernel.app_spec(None),
            ));
        }
        t0.elapsed().as_secs_f64()
    }

    fn run_pass(&mut self, mode: &PassMode) -> Pass {
        let pass = self.spans.open(mode.label, Some(self.root));
        let workload = self.workload;
        let cells = workload
            .cells
            .iter()
            .enumerate()
            .map(|(i, c)| self.run_cell(i, c, mode, pass))
            .collect();
        self.spans.close(pass);
        Pass {
            cells,
            apps: (0, 0.0),
        }
    }

    /// Every cell of `pass` must repeat `first` exactly; a difference is a
    /// failed run. `what` names the property being checked.
    fn check_same(&mut self, first: &Pass, pass: &Pass, what: &str) {
        for (spec, (a, b)) in self
            .workload
            .cells
            .iter()
            .zip(first.cells.iter().zip(&pass.cells))
        {
            let (Ok(a), Ok(b)) = (&a.outcome, &b.outcome) else {
                continue;
            };
            if a != b {
                self.fail(&format!("cell {}: {what}: {a:?} vs {b:?}", spec.name));
            }
        }
    }
}

/// Timed passes of one mode, with the figures taken over them.
#[derive(Default)]
struct Series {
    passes: Vec<Pass>,
}

impl Series {
    fn walls(&self) -> Vec<f64> {
        self.passes.iter().map(Pass::wall_s).collect()
    }
    /// Cell `i`'s fastest run over the passes.
    fn cell_floor(&self, i: usize) -> f64 {
        self.passes
            .iter()
            .map(|p| p.cells[i].wall_s)
            .fold(f64::INFINITY, f64::min)
    }
    /// Host seconds of one pass with the host's interference taken out: the
    /// sum over the cells of each cell's fastest run.
    ///
    /// The runs are deterministic, so all of a cell's runs do the same work;
    /// what differs between them is what the shared host adds — and it only
    /// ever adds. It adds in phases that last from a fraction of a second to
    /// minutes (same binary, same inputs, one thread: `events_w4` passes at
    /// 0.40 s for half a minute, then at 0.78 s for ten seconds), during
    /// which code that misses the core's own cache runs 1.3–2.5x slower while
    /// an arithmetic loop does not move. Over two sets of ten 20 s runs timed
    /// on the default pool the median pass spread (inter-quartile, of its
    /// median) by up to 20 % on the six workloads and moved by 6–16 % from one
    /// set to the next; the floor by up to 4.8 % and 1–3 %. A floor per cell
    /// needs a quiet 0.05–0.25 s per cell, not a whole quiet pass.
    fn floor(&self) -> f64 {
        let cells = self.passes.first().map_or(0, |p| p.cells.len());
        (0..cells).map(|i| self.cell_floor(i)).sum()
    }
    fn median_of(&self, f: impl Fn(&Pass) -> f64) -> f64 {
        median(&self.passes.iter().map(f).collect::<Vec<_>>())
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

pub struct WorkloadResult {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the contract line: end-to-end ones, or per-layer ones
    /// when traced.
    pub metrics: Vec<Metric>,
    /// Everything, for `--out`, `--compare` and `--check-counters`.
    pub detail: Value,
    pub spans: Value,
}

/// Metrics as the `{name: {value, unit}}` object of the result line.
pub fn metrics_json(ms: &[Metric]) -> Value {
    Value::obj(ms.iter().map(|m| {
        (
            m.name.clone(),
            Value::obj([
                ("value", Value::Num(m.value)),
                ("unit", Value::Str(m.unit.to_string())),
            ]),
        )
    }))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn run_workload(workload: &Workload, opt: &Options) -> WorkloadResult {
    let mut spans = Spans::new();
    let root = spans.open(format!("workload:{}", workload.name), None);

    // Sequential references, one per distinct problem.
    let ref_span = spans.open("verify.reference", Some(root));
    let mut references: Vec<Arc<Grid>> = Vec::new();
    for (i, cell) in workload.cells.iter().enumerate() {
        let known = workload.cells[..i]
            .iter()
            .position(|c| c.problem == cell.problem);
        references.push(match known {
            Some(j) => references[j].clone(),
            None => {
                let mut grid = Kernel::build(cell.problem, opt.seed).sequential();
                if opt.corrupt_reference {
                    grid[0][0] = f64::from_bits(grid[0][0].to_bits() ^ 1);
                }
                Arc::new(grid)
            }
        });
    }
    let seq_reference_s = spans.close(ref_span);

    let mut h = Harness {
        workload,
        opt,
        references,
        spans,
        root,
        attempted: 0,
        failed: 0,
    };

    // Warm-up, discarded from the timings. It is also the record every later
    // pass must repeat: identical trace hash, counters, virtual times, result.
    let warm = h.run_pass(&PassMode {
        label: "warmup",
        ..TIMED
    });

    let meter = Arc::new(AppsMeter::default());
    let (mut timed, mut traced, mut pooled, mut plain) = (
        Series::default(),
        Series::default(),
        Series::default(),
        Series::default(),
    );
    let mut setups = Vec::new();
    let armed = workload.name == "wide_armed";
    let t0 = Instant::now();
    while timed.passes.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < opt.seconds {
        setups.extend((0..SETUP_REPS).map(|_| h.time_setup()));
        // Every pass on the workload's own cells must repeat the warm-up
        // exactly — timed, behind timing decorators, and on the default pool
        // (pool size never changes trace hash, counters or virtual times).
        let pass = h.run_pass(&TIMED);
        h.check_same(&warm, &pass, "not deterministic");
        timed.passes.push(pass);
        if !opt.trace {
            continue;
        }
        let mut pass = h.run_pass(&PassMode {
            label: "pass.traced",
            meter: Some(&meter),
            ..TIMED
        });
        pass.apps = meter.take();
        h.check_same(&warm, &pass, "timing decorators changed the run");
        traced.passes.push(pass);
        let pass = h.run_pass(&PassMode {
            label: "pass.pool",
            workers: None,
            ..TIMED
        });
        h.check_same(&warm, &pass, "default pool changed the run");
        pooled.passes.push(pass);
        // wide_armed only: the same cells with the fault plan stripped.
        if armed {
            plain.passes.push(h.run_pass(&PassMode {
                label: "pass.plain",
                plain: true,
                ..TIMED
            }));
        }
    }
    let probes = opt.trace.then(|| {
        let (p, _) = h.spans.time("probes", Some(root), || {
            Probes::measure(workload.width(), workload.column_len())
        });
        p
    });
    h.spans.close(root);

    // ---- end-to-end ----
    let exact: Vec<&CellExact> = warm
        .cells
        .iter()
        .filter_map(|c| c.outcome.as_ref().ok())
        .collect();
    let all_ok = exact.len() == workload.cells.len();
    let virt_elapsed_s = exact.iter().map(|e| e.virt_elapsed_us).sum::<u64>() as f64 / 1e6;
    let virt_efficiency = ratio(exact.iter().map(|e| e.efficiency).sum(), exact.len() as f64);
    let wall_s = timed.floor();
    let wall_q = Quartiles::of(&timed.walls());
    let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);
    let setup_q = Quartiles::of(&setups);
    let peak_rss_mb = host::peak_rss_mb();

    let end_to_end = vec![
        metric("wall_s", wall_s, "s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
        metric("virt_elapsed_s", virt_elapsed_s, "virt_s"),
        metric("virt_efficiency", virt_efficiency, "ratio"),
    ];

    // ---- per cell ----
    let cell_wall = |i: usize| timed.cell_floor(i);
    let mut cells_json = Vec::new();
    for (i, spec) in workload.cells.iter().enumerate() {
        let Ok(e) = &warm.cells[i].outcome else {
            continue;
        };
        cells_json.push((
            spec.name,
            Value::obj([
                ("wall_s", Value::Num(cell_wall(i))),
                ("virt_elapsed_s", Value::Num(e.virt_elapsed_us as f64 / 1e6)),
                ("virt_efficiency", Value::Num(e.efficiency)),
                ("events", Value::Num(e.counters[0].1 as f64)),
            ]),
        ));
    }

    // ---- per layer ----
    let counters = if all_ok {
        sum_counters(&exact)
    } else {
        Vec::new()
    };
    let count = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v as f64)
    };
    let mut per_layer = Vec::new();
    if let (Some(probes), true) = (&probes, all_ok) {
        let wall = wall_s;
        // Shares of a traced pass are taken pass by pass, so that both sides
        // of a ratio saw the same host.
        let (apps_calls, apps_busy) = (
            traced.median_of(|p| p.apps.0 as f64),
            traced.median_of(|p| p.apps.1),
        );
        let apps_share = traced.median_of(|p| ratio(p.apps.1, p.wall_s()));
        let not_apps = traced.median_of(|p| (p.wall_s() - p.apps.1).max(0.0));
        let events = count("sim.kernel.events");
        // `/proc` counts CPU time in 10 ms ticks, coarse against one pass:
        // totals over the run.
        let cpu: f64 = pooled
            .passes
            .iter()
            .flat_map(|p| &p.cells)
            .map(|c| c.cpu_s)
            .sum();
        let ctx = pooled.median_of(|p| p.cells.iter().map(|c| c.ctx_switches as f64).sum());
        let pool_wall = pooled.floor();
        let pool_workers = pooled
            .passes
            .iter()
            .flat_map(|p| &p.cells)
            .map(|c| c.pool_workers)
            .max()
            .unwrap_or(0);
        let injected: u64 = workload.cells.iter().map(|c| c.fault.injected()).sum();
        let on_status_ns = probes.balancer_on_status_ns;
        let m = &mut per_layer;
        m.push(metric("apps.calls", apps_calls, "count"));
        m.push(metric("apps.busy_s", apps_busy, "s"));
        m.push(metric("apps.share", apps_share, "ratio"));
        m.push(metric("apps.seq_reference_s", seq_reference_s, "s"));
        for name in ["events", "polls", "wakeups", "stale_wakes"] {
            m.push(metric(
                format!("sim.kernel.{name}"),
                count(&format!("sim.kernel.{name}")),
                "count",
            ));
        }
        m.push(metric(
            "sim.kernel.stale_wake_ratio",
            ratio(count("sim.kernel.stale_wakes"), count("sim.kernel.polls")),
            "ratio",
        ));
        m.push(metric(
            "sim.kernel.batches",
            count("sim.kernel.batches"),
            "count",
        ));
        m.push(metric(
            "sim.kernel.polls_per_batch",
            ratio(count("sim.kernel.polls"), count("sim.kernel.batches")),
            "ratio",
        ));
        m.push(metric(
            "sim.kernel.max_batch",
            count("sim.kernel.max_batch"),
            "count",
        ));
        m.push(metric(
            "sim.kernel.events_per_s",
            ratio(events, wall),
            "1/s",
        ));
        m.push(metric(
            "sim.kernel.ns_per_event",
            ratio(not_apps * 1e9, events),
            "ns",
        ));
        m.push(metric("sim.kernel.bare_msg_ns", probes.bare_msg_ns, "ns"));
        m.push(metric("sim.kernel.bare_wake_ns", probes.bare_wake_ns, "ns"));
        m.push(metric("sim.kernel.bare_step_ns", probes.bare_step_ns, "ns"));
        m.push(metric("sim.pool.workers", pool_workers as f64, "count"));
        m.push(metric(
            "sim.pool.cpu_over_wall",
            ratio(cpu, pooled.walls().iter().sum()),
            "ratio",
        ));
        m.push(metric("sim.pool.pool_wall_s", pool_wall, "s"));
        m.push(metric(
            "sim.pool.speedup_over_inline",
            ratio(wall, pool_wall),
            "ratio",
        ));
        m.push(metric(
            "sim.pool.ctx_switches_per_kevent",
            ratio(ctx * 1e3, events),
            "ratio",
        ));
        m.push(metric("core.msg.sent", count("core.msg.sent"), "count"));
        m.push(metric("core.msg.bytes", count("core.msg.bytes"), "B"));
        m.push(metric(
            "core.msg.bytes_per_msg",
            ratio(count("core.msg.bytes"), count("core.msg.sent")),
            "B",
        ));
        m.push(metric(
            "core.msg.master_share",
            ratio(count("core.msg.master_touched"), count("core.msg.sent")),
            "ratio",
        ));
        m.push(metric(
            "core.msg.clone_ns_per_kib",
            probes.msg_clone_ns_per_kib,
            "ns",
        ));
        for name in [
            "statuses",
            "decisions",
            "moves_issued",
            "units_moved",
            "cancelled_threshold",
            "cancelled_profitability",
        ] {
            let name = format!("core.balancer.{name}");
            m.push(metric(name.clone(), count(&name), "count"));
        }
        m.push(metric(
            "core.balancer.move_ratio",
            ratio(
                count("core.balancer.moves_issued"),
                count("core.balancer.decisions"),
            ),
            "ratio",
        ));
        m.push(metric("core.balancer.on_status_ns", on_status_ns, "ns"));
        // The probe's statuses all reach a decision; statuses the balancer
        // drops early (short samples, nothing to move) cost less and are
        // left out.
        m.push(metric(
            "core.balancer.est_busy_s",
            on_status_ns * count("core.balancer.decisions") / 1e9,
            "s",
        ));
        for name in [
            "checkpoints_banked",
            "rollbacks",
            "units_rolled_back",
            "resends",
            "dups_ignored",
            "evictions",
            "joins_admitted",
            "rejoins_after_eviction",
            "replicas_published",
            "replication_bytes",
            "join_snapshot_bytes",
            "speculations_launched",
        ] {
            let name = format!("core.session.{name}");
            let unit = if name.ends_with("bytes") {
                "B"
            } else {
                "count"
            };
            m.push(metric(name.clone(), count(&name), unit));
        }
        m.push(metric(
            "core.session.spec_commit_ratio",
            ratio(
                count("core.session.speculations_committed"),
                count("core.session.speculations_launched"),
            ),
            "ratio",
        ));
        m.push(metric(
            "core.session.rollbacks_per_fault",
            ratio(count("core.session.rollbacks"), injected as f64),
            "ratio",
        ));
        // Defined on wide_armed only; zero elsewhere.
        let armed_over_plain = if armed {
            ratio(wall, plain.floor())
        } else {
            0.0
        };
        m.push(metric(
            "core.session.armed_over_plain",
            armed_over_plain,
            "ratio",
        ));
        m.push(metric(
            "core.protocol.sender_cycle_ns",
            probes.sender_cycle_ns,
            "ns",
        ));
        m.push(metric(
            "core.protocol.transfer_cycle_ns",
            probes.transfer_cycle_ns,
            "ns",
        ));
        for name in [
            "msgs_dropped",
            "partition_dropped",
            "deliveries_to_crashed",
            "crashed_nodes",
        ] {
            let name = format!("sim.fault.{name}");
            m.push(metric(name.clone(), count(&name), "count"));
        }
        m.push(metric(
            "compiler.compile_s",
            timed.median_of(|p| p.cells.iter().map(|c| c.compile_s).sum()),
            "s",
        ));
        // Per engine: the sum over the workload's cells of that engine (zero
        // when it has none); the detail file lists every cell by name.
        for engine in ["mm", "sor", "lu"] {
            let of_engine = |f: &dyn Fn(usize) -> f64| -> f64 {
                workload
                    .cells
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.problem.engine() == engine)
                    .map(|(i, _)| f(i))
                    .fold(0.0, |a, b| a + b)
            };
            m.push(metric(
                format!("cell.{engine}.wall_s"),
                of_engine(&cell_wall),
                "s",
            ));
            m.push(metric(
                format!("cell.{engine}.virt_elapsed_s"),
                of_engine(&|i| exact[i].virt_elapsed_us as f64 / 1e6),
                "virt_s",
            ));
            m.push(metric(
                format!("cell.{engine}.events"),
                of_engine(&|i| exact[i].counters[0].1 as f64),
                "count",
            ));
        }
        m.push(metric(
            "trace.overhead_pct",
            (ratio(traced.floor(), wall) - 1.0) * 100.0,
            "%",
        ));
    }

    // `value` is the metric as reported, a floor, and the quartiles are of the
    // samples it was taken from (pass times, set-up times). `spread` is how
    // far those samples leave the value in doubt, which `--compare` holds
    // against the allowance: the distance from the floor up to the lower
    // quartile (beyond the allowance, fewer than a quarter of the samples came
    // anywhere near the floor).
    let floor_json = |value: f64, q: &Quartiles, unit: &str| {
        Value::obj([
            ("value", Value::Num(value)),
            ("spread", Value::Num(q.q1 - value)),
            ("median", Value::Num(q.median)),
            ("q1", Value::Num(q.q1)),
            ("q3", Value::Num(q.q3)),
            ("n", Value::Num(q.n as f64)),
            ("unit", Value::Str(unit.to_string())),
        ])
    };
    let single = |v: f64, unit: &str| {
        Value::obj([
            ("value", Value::Num(v)),
            ("unit", Value::Str(unit.to_string())),
        ])
    };
    let mut detail =
        vec![
            ("attempted", Value::Num(h.attempted as f64)),
            ("failed", Value::Num(h.failed as f64)),
            (
                "fail_share",
                Value::Num(ratio(h.failed as f64, h.attempted as f64)),
            ),
            ("timed_passes", Value::Num(timed.passes.len() as f64)),
            (
                "end_to_end",
                Value::obj([
                    ("wall_s", floor_json(wall_s, &wall_q, "s")),
                    ("setup_s", floor_json(setup_s, &setup_q, "s")),
                    ("peak_rss_mb", single(peak_rss_mb, "MiB")),
                    ("virt_elapsed_s", single(virt_elapsed_s, "virt_s")),
                    ("virt_efficiency", single(virt_efficiency, "ratio")),
                ]),
            ),
            (
                "exact",
                Value::obj([
                    ("virt_elapsed_s", Value::Num(virt_elapsed_s)),
                    ("virt_efficiency", Value::Num(virt_efficiency)),
                    (
                        "counters",
                        Value::obj(counters.iter().map(|&(n, v)| (n, Value::Num(v as f64)))),
                    ),
                    (
                        "trace_hashes",
                        Value::obj(workload.cells.iter().zip(&warm.cells).filter_map(
                            |(spec, c)| {
                                let e = c.outcome.as_ref().ok()?;
                                Some((spec.name, Value::Str(format!("{:#018x}", e.trace_hash))))
                            },
                        )),
                    ),
                ]),
            ),
            ("cells", Value::obj(cells_json)),
        ];
    if opt.trace {
        detail.push(("per_layer", metrics_json(&per_layer)));
    }

    WorkloadResult {
        attempted: h.attempted,
        failed: h.failed,
        metrics: if opt.trace { per_layer } else { end_to_end },
        detail: Value::obj(detail),
        spans: h.spans.to_json(),
    }
}
