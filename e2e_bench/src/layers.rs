//! Per-layer probes of the traced run, all from outside the program: timing
//! decorators around the three kernel traits (the `apps` layer), and
//! stand-alone micro-measurements of the balancer, the protocol windows, a
//! broadcast `Msg` clone and the bare simulation kernel at the workload's
//! width.

use crate::skeletons::SKELETONS;
use dlb_core::kernels::{IndependentKernel, PipelinedKernel, ShrinkingKernel};
use dlb_core::msg::{Status, UnitData};
use dlb_core::{Balancer, BalancerConfig, Msg, SenderWindow, TransferWindow};
use dlb_sim::{CpuWork, SimDuration};
use std::hint::black_box;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls into `crates/apps` and the host time spent inside them, summed over
/// every kernel call of a pass — one aggregate, not a span per call (SOR makes
/// hundreds of thousands of sub-microsecond calls).
#[derive(Default)]
pub struct AppsMeter {
    // Relaxed: statistics that publish no other data; read after the run
    // has joined its pool.
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl AppsMeter {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        r
    }

    /// `(calls, busy seconds)` since the last take.
    pub fn take(&self) -> (u64, f64) {
        let calls = self.calls.swap(0, Ordering::Relaxed);
        let ns = self.busy_ns.swap(0, Ordering::Relaxed);
        (calls, ns as f64 / 1e9)
    }
}

/// A kernel behind a meter. Cost-model getters pass straight through; every
/// method that touches data is timed.
pub struct Timed<K> {
    inner: Arc<K>,
    meter: Arc<AppsMeter>,
}

impl<K> Timed<K> {
    pub fn new(inner: Arc<K>, meter: &Arc<AppsMeter>) -> Arc<Timed<K>> {
        Arc::new(Timed {
            inner,
            meter: meter.clone(),
        })
    }
}

impl<K: IndependentKernel> IndependentKernel for Timed<K> {
    fn n_units(&self) -> usize {
        self.inner.n_units()
    }
    fn invocations(&self) -> u64 {
        self.inner.invocations()
    }
    fn init_unit(&self, idx: usize) -> UnitData {
        self.meter.time(|| self.inner.init_unit(idx))
    }
    fn compute(&self, idx: usize, unit: &mut UnitData, invocation: u64) {
        self.meter
            .time(|| self.inner.compute(idx, unit, invocation))
    }
    fn unit_cost(&self) -> CpuWork {
        self.inner.unit_cost()
    }
    fn unit_cost_for(&self, idx: usize, invocation: u64) -> CpuWork {
        self.inner.unit_cost_for(idx, invocation)
    }
    fn local_metric(&self, idx: usize, unit: &UnitData) -> f64 {
        self.meter.time(|| self.inner.local_metric(idx, unit))
    }
    fn converged(&self, invocation: u64, metric: f64) -> bool {
        self.inner.converged(invocation, metric)
    }
}

impl<K: PipelinedKernel> PipelinedKernel for Timed<K> {
    fn n_units(&self) -> usize {
        self.inner.n_units()
    }
    fn col_len(&self) -> usize {
        self.inner.col_len()
    }
    fn sweeps(&self) -> u64 {
        self.inner.sweeps()
    }
    fn init_unit(&self, idx: usize) -> Vec<f64> {
        self.meter.time(|| self.inner.init_unit(idx))
    }
    fn left_wall(&self) -> Vec<f64> {
        self.meter.time(|| self.inner.left_wall())
    }
    fn right_wall(&self) -> Vec<f64> {
        self.meter.time(|| self.inner.right_wall())
    }
    fn compute_block(&self, col: &mut [f64], left: &[f64], right_old: &[f64], rows: Range<usize>) {
        self.meter
            .time(|| self.inner.compute_block(col, left, right_old, rows))
    }
    fn elem_cost(&self) -> CpuWork {
        self.inner.elem_cost()
    }
}

impl<K: ShrinkingKernel> ShrinkingKernel for Timed<K> {
    fn n_units(&self) -> usize {
        self.inner.n_units()
    }
    fn init_unit(&self, idx: usize) -> Vec<f64> {
        self.meter.time(|| self.inner.init_unit(idx))
    }
    fn pivot_payload(&self, k: usize, pivot_col: &[f64]) -> Vec<f64> {
        self.meter.time(|| self.inner.pivot_payload(k, pivot_col))
    }
    fn update(&self, j: usize, col: &mut [f64], pivot: &[f64], k: usize) {
        self.meter.time(|| self.inner.update(j, col, pivot, k))
    }
    fn step_cost(&self, k: usize) -> CpuWork {
        self.inner.step_cost(k)
    }
}

/// Host budget of each stand-alone probe. Seven probes run per traced run.
const PROBE_BUDGET: Duration = Duration::from_millis(60);

/// Nanoseconds per operation of `batch`, which performs `ops` operations per
/// call: one warm-up call, then calls until the probe budget is spent.
fn ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    batch();
    let t0 = Instant::now();
    let mut done = 0u64;
    while t0.elapsed() < PROBE_BUDGET {
        batch();
        done += ops;
    }
    t0.elapsed().as_nanos() as f64 / done as f64
}

/// Stand-alone micro-measurements at a workload's width and column length.
pub struct Probes {
    pub balancer_on_status_ns: f64,
    pub sender_cycle_ns: f64,
    pub transfer_cycle_ns: f64,
    pub msg_clone_ns_per_kib: f64,
    pub bare_msg_ns: f64,
    pub bare_wake_ns: f64,
    pub bare_step_ns: f64,
}

impl Probes {
    pub fn measure(width: usize, column_len: usize) -> Probes {
        let [bare_msg_ns, bare_wake_ns, bare_step_ns] = SKELETONS.map(|run| {
            // Enough rounds that per-run start-up (spawning `width` actors
            // and the pool) stays under a tenth of the measured time.
            let rounds = 200;
            ns_per_op(run(width, 1) * rounds, || {
                black_box(run(width, rounds));
            })
        });
        Probes {
            balancer_on_status_ns: balancer_on_status_ns(width),
            sender_cycle_ns: sender_cycle_ns(),
            transfer_cycle_ns: transfer_cycle_ns(),
            msg_clone_ns_per_kib: msg_clone_ns_per_kib(column_len),
            bare_msg_ns,
            bare_wake_ns,
            bare_step_ns,
        }
    }
}

/// One `Balancer::on_status` decision on a stand-alone balancer of `width`
/// slaves, slave 0 reporting half the others' rate (one loaded node).
fn balancer_on_status_ns(width: usize) -> f64 {
    let units = 8u64;
    let mut bal = Balancer::new(
        BalancerConfig::default(),
        vec![units; width],
        SimDuration::from_millis(100),
        SimDuration::from_millis(2),
        1_000_000,
        1.0,
    );
    // Built once: the probe times the decision, not the report's allocation.
    let mut statuses: Vec<Status> = (0..width)
        .map(|slave| Status {
            slave,
            invocation: 0,
            hook_seq: 0,
            units_done_delta: if slave == 0 { 50 } else { 100 },
            elapsed: SimDuration::from_secs(1),
            active_units: units,
            last_applied_seq: u64::MAX,
            epoch: 0,
            sent_to: vec![0; width],
            received_from: vec![0; width],
            move_cost_sample: None,
            interaction_cost_sample: None,
        })
        .collect();
    ns_per_op(width as u64, || {
        for status in &mut statuses {
            status.hook_seq += 1;
            black_box(bal.on_status(black_box(status)));
        }
    })
}

/// Sequenced messages per channel in the window probes. A run's channels
/// carry tens of messages each, and `AckTracker::watermark` re-walks the
/// applied set from 1 on every call, so a cycle's cost depends on the depth.
const CHANNEL_DEPTH: u64 = 32;

/// `SenderWindow`: allocate a sequence number, retain the payload, take the
/// acknowledgement — over the first `CHANNEL_DEPTH` messages of a channel.
fn sender_cycle_ns() -> f64 {
    ns_per_op(CHANNEL_DEPTH, || {
        let mut w = SenderWindow::<u64>::new();
        for _ in 0..CHANNEL_DEPTH {
            let seq = *w.send_with(|seq| seq);
            w.ack(black_box(seq));
        }
    })
}

/// `TransferWindow` pair: send on one side, accept on the other, return the
/// watermark — over the first `CHANNEL_DEPTH` transfers of a channel.
fn transfer_cycle_ns() -> f64 {
    ns_per_op(CHANNEL_DEPTH, || {
        let mut tx = TransferWindow::<u64>::new();
        let mut rx = TransferWindow::<u64>::new();
        for _ in 0..CHANNEL_DEPTH {
            let seq = *tx.send_with(|seq| seq).expect("channel stays open");
            black_box(rx.accept(seq));
            tx.ack(rx.recv_watermark());
        }
    })
}

/// Clone of a pivot-broadcast `Msg` carrying one column: what the kernel pays
/// per recipient of an all-slave broadcast, per KiB of payload.
fn msg_clone_ns_per_kib(column_len: usize) -> f64 {
    let msg = Msg::Pivot {
        step: 0,
        values: vec![1.0; column_len],
    };
    let kib = (column_len * 8) as f64 / 1024.0;
    ns_per_op(1_000, || {
        for _ in 0..1_000 {
            black_box(black_box(&msg).clone());
        }
    }) / kib
}
