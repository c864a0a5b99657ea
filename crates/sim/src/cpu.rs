//! Virtual CPU with a round-robin quantum scheduler.
//!
//! Each node runs the application process plus `k(t)` competing tasks (see
//! [`crate::load::LoadModel`]). The OS scheduler is round-robin with a fixed
//! time quantum `Q`: while `k` competing tasks are runnable, the application
//! receives one quantum out of every `k + 1`, i.e. it runs during the slot
//! `[0, Q)` of every cycle of length `(k+1)·Q`, with cycles anchored at the
//! start of the current constant-load segment.
//!
//! This quantum-granularity model (rather than a smooth `1/(k+1)` rate)
//! matters: the paper's §4.3 observes that measuring computation rates over
//! periods close to the scheduling quantum produces wild oscillations, and
//! its frequency-selection rule (period ≥ 5 quanta) exists precisely to
//! average those out. The slot model reproduces that phenomenon.

use crate::load::LoadModel;
use crate::time::{SimDuration, SimTime};
use crate::work::CpuWork;

/// Configuration of one simulated node.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Relative CPU speed (1.0 = reference node; the paper's environments are
    /// homogeneous but the balancer must handle heterogeneous speeds).
    pub speed: f64,
    /// OS scheduling time quantum (the paper assumes ~100 ms).
    pub quantum: SimDuration,
    /// Competing-load model for this node.
    pub load: LoadModel,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            speed: 1.0,
            quantum: SimDuration::from_millis(100),
            load: LoadModel::Dedicated,
        }
    }
}

impl NodeConfig {
    /// A dedicated node at the given relative speed.
    pub fn dedicated(speed: f64) -> Self {
        NodeConfig {
            speed,
            ..Default::default()
        }
    }

    /// A reference-speed node with the given load model.
    pub fn with_load(load: LoadModel) -> Self {
        NodeConfig {
            load,
            ..Default::default()
        }
    }
}

/// Result of advancing the application process on a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Advance {
    /// Virtual time at which the requested work completes.
    pub finish: SimTime,
    /// The work's duration on this node with nothing competing
    /// (`work.dedicated_duration(cfg.speed)`): the application CPU time the
    /// advance consumes, whatever the load stretches `finish` to.
    pub dedicated: SimDuration,
    /// Application CPU time consumed while competing tasks were runnable
    /// (used for `getrusage`-style accounting of competing CPU time).
    pub cpu_while_loaded: SimDuration,
}

/// One maximal constant-load segment: slot cycles are anchored at `anchor`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Segment {
    anchor: SimTime,
    /// Exclusive end; `None` means the segment extends forever.
    end: Option<SimTime>,
    tasks: u32,
}

fn segment_of(load: &LoadModel, t: SimTime) -> Segment {
    match load {
        LoadModel::Dedicated => Segment {
            anchor: SimTime::ZERO,
            end: None,
            tasks: 0,
        },
        LoadModel::Constant(k) => Segment {
            anchor: SimTime::ZERO,
            end: None,
            tasks: *k,
        },
        LoadModel::Oscillating {
            period,
            duty,
            tasks,
        } => {
            if duty.is_zero() || *tasks == 0 {
                return Segment {
                    anchor: SimTime::ZERO,
                    end: None,
                    tasks: 0,
                };
            }
            if duty == period {
                return Segment {
                    anchor: SimTime::ZERO,
                    end: None,
                    tasks: *tasks,
                };
            }
            let p = period.micros();
            let d = duty.micros();
            let phase = t.micros() % p;
            let cycle_start = t.micros() - phase;
            if phase < d {
                Segment {
                    anchor: SimTime(cycle_start),
                    end: Some(SimTime(cycle_start + d)),
                    tasks: *tasks,
                }
            } else {
                Segment {
                    anchor: SimTime(cycle_start + d),
                    end: Some(SimTime(cycle_start + p)),
                    tasks: 0,
                }
            }
        }
        LoadModel::Trace(points) => {
            let mut anchor = SimTime::ZERO;
            let mut tasks = 0u32;
            let mut end = None;
            for &(start, k) in points {
                if start <= t {
                    if k != tasks {
                        anchor = start;
                        tasks = k;
                    }
                } else {
                    if k != tasks {
                        end = Some(start);
                        break;
                    }
                    // a no-op entry: keep scanning
                }
            }
            Segment { anchor, end, tasks }
        }
    }
}

/// Our-slot CPU time available in `[anchor, anchor + z)` with cycle `c` and
/// slot width `q`.
#[inline]
fn slot_measure(z: u64, c: u64, q: u64) -> u64 {
    (z / c) * q + (z % c).min(q)
}

/// Our-slot CPU time available in `[t, e)` for a segment anchored at `anchor`.
fn slot_capacity(t: SimTime, e: SimTime, anchor: SimTime, tasks: u32, q: u64) -> u64 {
    debug_assert!(anchor <= t && t <= e);
    let c = (tasks as u64 + 1) * q;
    slot_measure(e.micros() - anchor.micros(), c, q)
        - slot_measure(t.micros() - anchor.micros(), c, q)
}

/// Finish time for consuming `need` slot-micros starting at `t`, assuming the
/// segment never ends. `need` must be > 0.
fn advance_unbounded(t: SimTime, need: u64, anchor: SimTime, tasks: u32, q: u64) -> SimTime {
    debug_assert!(need > 0);
    let c = (tasks as u64 + 1) * q;
    let mut t = t.micros();
    let mut pos = (t - anchor.micros()) % c;
    if pos >= q {
        // Currently in a competing task's slot: wait for our next slot.
        t += c - pos;
        pos = 0;
    }
    let first = (q - pos).min(need);
    if first == need {
        return SimTime(t + first);
    }
    // Finish the current slot, then consume full/partial later slots.
    let mut remaining = need - first;
    t += first + (c - q); // now at the start of the next slot
    let full = remaining / q;
    let rem = remaining % q;
    if rem > 0 {
        SimTime(t + full * c + rem)
    } else {
        remaining = 0;
        let _ = remaining;
        SimTime(t + (full - 1) * c + q)
    }
}

/// Advance the application process on a node: starting at `start`, consume
/// `work` of CPU, interleaved with competing tasks per the node's load model.
///
/// Returns the finish time and how much of the application's CPU time was
/// spent while the node was loaded (for competing-time accounting).
pub fn advance(cfg: &NodeConfig, start: SimTime, work: CpuWork) -> Advance {
    let q = cfg.quantum.micros();
    assert!(q > 0, "quantum must be positive");
    let dedicated = work.dedicated_duration(cfg.speed);
    let mut need = dedicated.micros();
    let mut t = start;
    let mut loaded = 0u64;
    while need > 0 {
        let seg = segment_of(&cfg.load, t);
        debug_assert!(seg.anchor <= t, "segment anchor after current time");
        if seg.tasks == 0 {
            match seg.end {
                None => {
                    t = SimTime(t.micros() + need);
                    need = 0;
                }
                Some(e) => {
                    let window = e.micros() - t.micros();
                    let take = window.min(need);
                    t = SimTime(t.micros() + take);
                    need -= take;
                    if need > 0 {
                        t = e;
                    }
                }
            }
        } else {
            match seg.end {
                None => {
                    let finish = advance_unbounded(t, need, seg.anchor, seg.tasks, q);
                    loaded += need;
                    need = 0;
                    t = finish;
                }
                Some(e) => {
                    let cap = slot_capacity(t, e, seg.anchor, seg.tasks, q);
                    if need <= cap && need > 0 {
                        let finish = advance_unbounded(t, need, seg.anchor, seg.tasks, q);
                        debug_assert!(finish <= e);
                        loaded += need;
                        need = 0;
                        t = finish;
                    } else {
                        loaded += cap;
                        need -= cap;
                        t = e;
                    }
                }
            }
        }
    }
    Advance {
        finish: t,
        dedicated,
        cpu_while_loaded: SimDuration::from_micros(loaded),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u64 = 100_000; // 100 ms in micros

    fn node(load: LoadModel) -> NodeConfig {
        NodeConfig {
            speed: 1.0,
            quantum: SimDuration::from_micros(Q),
            load,
        }
    }

    #[test]
    fn dedicated_is_identity() {
        let cfg = node(LoadModel::Dedicated);
        let a = advance(&cfg, SimTime(123), CpuWork::from_micros(456));
        assert_eq!(a.finish, SimTime(579));
        assert_eq!(a.cpu_while_loaded, SimDuration::ZERO);
    }

    #[test]
    fn speed_scales_duration() {
        let cfg = NodeConfig {
            speed: 2.0,
            ..node(LoadModel::Dedicated)
        };
        let a = advance(&cfg, SimTime::ZERO, CpuWork::from_micros(1_000));
        assert_eq!(a.finish, SimTime(500));
    }

    /// `dedicated` is the one `dedicated_duration` the advance computed -
    /// what `MailCtx::advance_work` charges as application CPU time - at any
    /// speed (rounded up to a whole microsecond) and under any load.
    #[test]
    fn advance_reports_the_dedicated_duration_it_used() {
        for speed in [1.0, 2.0, 0.7, 3.3] {
            for load in [LoadModel::Dedicated, LoadModel::Constant(2)] {
                let cfg = NodeConfig {
                    speed,
                    ..node(load)
                };
                for micros in [1, 999, 3 * Q + 1] {
                    let work = CpuWork::from_micros(micros);
                    let a = advance(&cfg, SimTime(17), work);
                    assert_eq!(a.dedicated, work.dedicated_duration(speed));
                    if matches!(cfg.load, LoadModel::Dedicated) {
                        assert_eq!(a.finish, SimTime(17) + a.dedicated);
                    }
                }
            }
        }
    }

    #[test]
    fn one_competing_task_halves_throughput() {
        // k=1: cycle 2Q, our slot [0, Q). Work of exactly 3Q starting at 0:
        // slots at [0,Q), [2Q,3Q), [4Q,5Q) -> finish at 5Q.
        let cfg = node(LoadModel::Constant(1));
        let a = advance(&cfg, SimTime::ZERO, CpuWork::from_micros(3 * Q));
        assert_eq!(a.finish, SimTime(5 * Q));
        assert_eq!(a.cpu_while_loaded.micros(), 3 * Q);
    }

    #[test]
    fn sub_quantum_work_in_our_slot() {
        let cfg = node(LoadModel::Constant(1));
        let a = advance(&cfg, SimTime(10), CpuWork::from_micros(100));
        assert_eq!(a.finish, SimTime(110));
    }

    #[test]
    fn starting_in_competing_slot_waits() {
        // k=1, start at Q (competing slot): our next slot starts at 2Q.
        let cfg = node(LoadModel::Constant(1));
        let a = advance(&cfg, SimTime(Q), CpuWork::from_micros(50));
        assert_eq!(a.finish, SimTime(2 * Q + 50));
    }

    #[test]
    fn exact_slot_multiple_ends_at_slot_end() {
        // k=2: cycle 3Q. Work = 2Q from t=0: slots [0,Q) and [3Q,4Q) -> finish 4Q
        // (not 4Q + skipped cycle).
        let cfg = node(LoadModel::Constant(2));
        let a = advance(&cfg, SimTime::ZERO, CpuWork::from_micros(2 * Q));
        assert_eq!(a.finish, SimTime(4 * Q));
    }

    #[test]
    fn throughput_ratio_converges() {
        // Large work with k=3 should take ~4x the dedicated time.
        let cfg = node(LoadModel::Constant(3));
        let w = CpuWork::from_micros(1000 * Q);
        let a = advance(&cfg, SimTime::ZERO, w);
        let ratio = a.finish.micros() as f64 / (1000 * Q) as f64;
        assert!((ratio - 4.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn oscillating_load_mixes_rates() {
        // 20s period, 10s loaded (k=1). Work of 15s CPU starting at 0:
        // loaded [0,10s): our process gets 5s of CPU; dedicated [10s,20s):
        // 10s more -> total 15s done exactly at t=20s... but at t=20s
        // the finish occurs at the end of the dedicated segment boundary.
        let cfg = node(LoadModel::Oscillating {
            period: SimDuration::from_secs(20),
            duty: SimDuration::from_secs(10),
            tasks: 1,
        });
        let a = advance(&cfg, SimTime::ZERO, CpuWork::from_secs_f64(15.0));
        assert_eq!(a.finish, SimTime(20_000_000));
        assert_eq!(a.cpu_while_loaded, SimDuration::from_secs(5));
    }

    #[test]
    fn trace_segments_respected() {
        // Loaded k=1 during [0, 1s), dedicated after.
        let m = LoadModel::Trace(vec![(SimTime::ZERO, 1), (SimTime(1_000_000), 0)]);
        let cfg = node(m);
        // 1s of CPU: 0.5s done in [0,1s) (half the slots), then 0.5s more
        // dedicated: finish at 1.5s.
        let a = advance(&cfg, SimTime::ZERO, CpuWork::from_secs_f64(1.0));
        assert_eq!(a.finish, SimTime(1_500_000));
        assert_eq!(a.cpu_while_loaded, SimDuration::from_micros(500_000));
    }

    #[test]
    fn zero_work_is_instant() {
        let cfg = node(LoadModel::Constant(5));
        let a = advance(&cfg, SimTime(77), CpuWork::ZERO);
        assert_eq!(a.finish, SimTime(77));
    }

    #[test]
    fn composition_property() {
        // advance(w1) then advance(w2) == advance(w1 + w2) for many splits.
        let cfg = node(LoadModel::Constant(2));
        let total = CpuWork::from_micros(7 * Q + 1234);
        let whole = advance(&cfg, SimTime(31), total);
        for split in [1u64, 50_000, Q, Q + 1, 3 * Q, 5 * Q + 17] {
            let first = advance(&cfg, SimTime(31), CpuWork::from_micros(split));
            let second = advance(
                &cfg,
                first.finish,
                CpuWork::from_micros(total.micros() - split),
            );
            assert_eq!(second.finish, whole.finish, "split at {split}");
            assert_eq!(
                first.cpu_while_loaded + second.cpu_while_loaded,
                whole.cpu_while_loaded
            );
        }
    }

    #[test]
    fn slot_capacity_matches_consumed() {
        let cfg = node(LoadModel::Constant(1));
        let start = SimTime(37);
        let w = CpuWork::from_micros(5 * Q + 999);
        let a = advance(&cfg, start, w);
        let cap = slot_capacity(start, a.finish, SimTime::ZERO, 1, Q);
        assert_eq!(cap, w.micros());
    }

    #[test]
    fn measurement_oscillation_near_quantum() {
        // The paper's §4.3 phenomenon: progress measured over windows close
        // to the quantum oscillates wildly under k=1, while windows of many
        // quanta are stable near 50%.
        // progress during [t, t+Q):
        let p = |t: u64| slot_capacity(SimTime(t), SimTime(t + Q), SimTime::ZERO, 1, Q);
        assert_eq!(p(0), Q); // our whole slot: looks like 100%
        assert_eq!(p(Q), 0); // competing slot: looks like 0%
        let long = slot_capacity(SimTime(0), SimTime(20 * Q), SimTime::ZERO, 1, Q);
        assert_eq!(long, 10 * Q); // exactly 50% over 10 cycles
    }
}
