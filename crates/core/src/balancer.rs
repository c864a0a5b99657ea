//! The central load balancer's decision engine (§3.2).
//!
//! This is the pure, deterministic core the master actor drives: it keeps
//! per-slave trend-filtered rates, computes rate-proportional target
//! distributions, applies the paper's two refinements against excessive
//! movement — the ≥10 % projected-improvement **threshold** and the
//! **profitability** comparison of movement cost against projected benefit
//! — and plans movement orders under the compiler-supplied restriction
//! (direct or adjacent-only). It never touches the network, so every policy
//! is unit-testable.

use crate::alloc::{
    plan_adjacent_shifts, plan_direct_moves, projected_time, proportional_allocation_into,
};
use crate::frequency::{CostAverage, FrequencyController, PeriodBounds};
use crate::msg::{Instructions, MoveOrder, Status};
use crate::rate::RateFilter;
use dlb_compiler::MovementRule;
use dlb_sim::SimDuration;
use std::collections::VecDeque;

/// How slaves interact with the master at hooks (§3.2, Fig. 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InteractionMode {
    /// Fig. 2b: the slave sends status and continues computing; the reply
    /// (based on the *previous* status) is applied at the next hook. Hides
    /// the master round-trip off the critical path.
    Pipelined,
    /// Fig. 2a: the slave blocks at the hook until instructions based on
    /// the status it just sent arrive.
    Synchronous,
}

/// Balancer policy knobs.
#[derive(Clone, Debug)]
pub struct BalancerConfig {
    /// Master switch: disabled = static distribution (the paper's
    /// "parallel execution without DLB" baseline).
    pub enabled: bool,
    pub mode: InteractionMode,
    /// Minimum projected execution-time reduction to act (paper: 10 %).
    pub threshold: f64,
    /// Enable the detailed profitability determination phase.
    pub profitability: bool,
}

/// Rate samples over computation windows shorter than this are ignored
/// (they are dominated by quantum and catch-up noise; cf. §4.3's 5-quanta
/// rule).
const MIN_SAMPLE: SimDuration = SimDuration::from_millis(100);

impl Default for BalancerConfig {
    fn default() -> Self {
        BalancerConfig {
            enabled: true,
            mode: InteractionMode::Pipelined,
            threshold: 0.10,
            profitability: true,
        }
    }
}

/// Counters for reporting and ablation experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BalancerStats {
    pub statuses: u64,
    pub decisions: u64,
    pub moves_issued: u64,
    pub units_moved: u64,
    pub skipped_balanced: u64,
    pub cancelled_threshold: u64,
    pub cancelled_profitability: u64,
}

/// What the balancer decided for one incoming status.
#[derive(Clone, Debug)]
pub struct Decision {
    pub instructions: Instructions,
    pub raw_rate: f64,
    pub adjusted_rate: f64,
    /// The balancer's post-decision view of the reporting slave's units.
    pub owned_after: u64,
}

/// The decision engine.
#[derive(Clone)]
pub struct Balancer {
    cfg: BalancerConfig,
    /// Movement restriction from the compiler.
    movement: MovementRule,
    /// Every slave keeps at least this many units (a pipelined slave with
    /// zero columns would break the boundary chain).
    min_per_slave: u64,
    n: usize,
    filters: Vec<RateFilter>,
    /// Last reported active units per slave (sender-accurate).
    reported: Vec<u64>,
    /// Evicted slaves: excluded from every allocation and adjacency
    /// computation, their pending entries cleared.
    dead: Vec<bool>,
    /// The live slaves in index order, and each slave's position in that
    /// list (`None` when dead); rebuilt when membership changes.
    alive: Vec<usize>,
    position: Vec<Option<usize>>,
    /// Decision scratch, `n` long and reused by every status: the first
    /// `alive.len()` entries hold the live slaves' rates, owned counts,
    /// target counts and `(remainder, slave)` order.
    rates: Vec<f64>,
    live_owned: Vec<u64>,
    target: Vec<u64>,
    order: Vec<(f64, usize)>,
    /// Rollback epoch stamped into every instruction (zero outside the
    /// checkpointed engines).
    epoch: u64,
    /// Transfers we ordered that the receiver has not yet acknowledged, as
    /// a FIFO per receiver of `(units, sender)`.
    pending_in: Vec<VecDeque<(u64, usize)>>,
    /// Orders issued whose sender has not yet confirmed applying them
    /// (by reporting `last_applied_seq`): `(instruction seq, units)`.
    pending_out: Vec<VecDeque<(u64, u64)>>,
    /// The channel ledger: `sent[a][b]` transfers slave `a` has sent
    /// toward `b`, `recv[b][a]` those from `a` applied at `b`, each the
    /// largest count any report has carried. Counters only grow, so a
    /// duplicated, reordered or stale report changes nothing.
    sent: Vec<Vec<u64>>,
    recv: Vec<Vec<u64>>,
    freq: FrequencyController,
    /// Measured per-unit movement time (seconds), exponentially averaged.
    per_unit_move_s: f64,
    move_samples: CostAverage,
    /// How many more times the distributed loop will run (benefit horizon).
    remaining_invocations: u64,
    /// Expected work units between consecutive hook instances on a slave.
    units_per_hook: f64,
    /// Sub-minimum measurement windows accumulate here until they amount
    /// to a usable sample (units, computation time).
    acc: Vec<(u64, SimDuration)>,
    /// Raw-rate divisor: done deltas are counted in sub-units (pipelined
    /// column-blocks), `units_scale` of which make one allocation unit.
    units_scale: f64,
    seq: u64,
    stats: BalancerStats,
}

impl Balancer {
    /// `initial_owned`: the initial block distribution. `per_unit_move_est`:
    /// compiler/network estimate of the time to move one unit, refined by
    /// measurements at run time.
    pub fn new(
        cfg: BalancerConfig,
        initial_owned: Vec<u64>,
        quantum: SimDuration,
        per_unit_move_est: SimDuration,
        remaining_invocations: u64,
        units_per_hook: f64,
    ) -> Balancer {
        let n = initial_owned.len();
        assert!(n > 0);
        Balancer {
            cfg,
            movement: MovementRule::Direct,
            min_per_slave: 1,
            n,
            filters: vec![RateFilter::default(); n],
            reported: initial_owned,
            dead: vec![false; n],
            alive: (0..n).collect(),
            position: (0..n).map(Some).collect(),
            rates: vec![0.0; n],
            live_owned: vec![0; n],
            target: vec![0; n],
            order: vec![(0.0, 0); n],
            epoch: 0,
            pending_in: vec![VecDeque::new(); n],
            pending_out: vec![VecDeque::new(); n],
            acc: vec![(0, SimDuration::ZERO); n],
            sent: vec![vec![0; n]; n],
            recv: vec![vec![0; n]; n],
            freq: FrequencyController::new(quantum),
            per_unit_move_s: per_unit_move_est.as_secs_f64(),
            move_samples: CostAverage::default(),
            remaining_invocations: remaining_invocations.max(1),
            units_per_hook,
            units_scale: 1.0,
            seq: 0,
            stats: BalancerStats::default(),
        }
    }

    /// Adjust the benefit horizon (called by the master at invocation
    /// boundaries).
    pub fn set_remaining_invocations(&mut self, r: u64) {
        self.remaining_invocations = r.max(1);
    }

    /// The named slave was evicted: drop it from every future allocation
    /// and clear its in-flight accounting (its channels are fenced; units
    /// in flight were re-owned by the survivors, which re-report).
    pub fn mark_dead(&mut self, s: usize) {
        if self.dead[s] {
            return;
        }
        self.dead[s] = true;
        self.relist_alive();
        self.reported[s] = 0;
        self.acc[s] = (0, SimDuration::ZERO);
        self.pending_in[s].clear();
        self.pending_out[s].clear();
        for q in &mut self.pending_in {
            q.retain(|&(_, src)| src != s);
        }
    }

    /// The named slave (re)joined: make it allocatable again with clean
    /// accounting. The caller follows up with [`Self::rebase`] (the
    /// admission re-scatter bumps the epoch), which installs the joiner's
    /// new ownership and zeroes the ledger, its channels included; until
    /// its first `Status` report the balancer sees it as rate-unknown,
    /// exactly like a slave at start-up.
    pub fn admit(&mut self, s: usize) {
        self.dead[s] = false;
        self.relist_alive();
        self.filters[s] = RateFilter::default();
        self.reported[s] = 0;
        self.acc[s] = (0, SimDuration::ZERO);
        self.pending_in[s].clear();
        self.pending_out[s].clear();
    }

    /// Rebuild the live list and the position table from `dead`.
    fn relist_alive(&mut self) {
        self.alive.clear();
        for (i, &dead) in self.dead.iter().enumerate() {
            self.position[i] = (!dead).then_some(self.alive.len());
            if !dead {
                self.alive.push(i);
            }
        }
    }

    /// Rollback: adopt a new epoch (stamped into every instruction so
    /// stale orders are discarded), discard all in-flight accounting, and
    /// install the post-rollback distribution. The ledger restarts from
    /// zero: the slaves reset their channels when they rebase onto the new
    /// epoch, and their reports from the old one are fenced before they
    /// reach the balancer.
    pub fn rebase(&mut self, epoch: u64, owned: Vec<u64>) {
        self.epoch = epoch;
        self.reported = owned;
        for q in &mut self.pending_in {
            q.clear();
        }
        for q in &mut self.pending_out {
            q.clear();
        }
        for row in self.sent.iter_mut().chain(&mut self.recv) {
            row.iter_mut().for_each(|v| *v = 0);
        }
        for a in &mut self.acc {
            *a = (0, SimDuration::ZERO);
        }
    }

    /// Set the raw-rate divisor: the pipelined engine counts done deltas in
    /// column-blocks, `nblocks` of which make one column (the allocation
    /// unit). Rates are then columns/second, commensurate with `active`.
    pub fn set_units_scale(&mut self, scale: f64) {
        assert!(scale > 0.0 && scale.is_finite());
        self.units_scale = scale;
    }

    /// Set what the plan and the pattern fix about placement: the compiler's
    /// movement restriction, and the per-slave floor (0 for the shrinking
    /// pattern, whose late steps have fewer active columns than slaves).
    pub(crate) fn set_placement(&mut self, movement: MovementRule, min_per_slave: u64) {
        self.movement = movement;
        self.min_per_slave = min_per_slave;
    }

    /// Record one master↔slave interaction cost sample.
    pub fn record_interaction(&mut self, d: SimDuration) {
        self.freq.record_interaction(d);
    }

    /// Current frequency bounds (for Fig. 4 reporting).
    pub fn period_bounds(&self) -> PeriodBounds {
        self.freq.bounds()
    }

    pub fn stats(&self) -> BalancerStats {
        self.stats
    }

    /// The balancer's current view of per-slave unit counts.
    pub fn owned_view(&self) -> Vec<u64> {
        (0..self.n).map(|i| self.owned(i)).collect()
    }

    fn owned(&self, i: usize) -> u64 {
        owned_of(self.reported[i], &self.pending_out[i], &self.pending_in[i])
    }

    /// Adjacent boundaries (`min(src, dst)` in live positions) that still
    /// have an unacknowledged transfer in flight. Issuing another order
    /// across such a boundary could cross an in-flight transfer in the
    /// opposite direction and tear the block distribution apart.
    fn busy_boundaries(&self) -> Vec<bool> {
        let mut busy = vec![false; self.alive.len().saturating_sub(1)];
        for (dst, q) in self.pending_in.iter().enumerate() {
            for &(_, src) in q {
                if let (Some(ps), Some(pd)) = (self.position[src], self.position[dst]) {
                    if ps + 1 == pd || pd + 1 == ps {
                        busy[ps.min(pd)] = true;
                    }
                }
            }
        }
        busy
    }

    /// Max-merge one slave's report of its channel counters into the
    /// ledger, and acknowledge as many of the orders toward it from each
    /// sender as that sender's `recv` entry grew. Per-sender matching
    /// matters: transfers from different senders to the same receiver are
    /// unordered, and popping the wrong entry would clear a busy boundary
    /// early.
    pub fn merge_channels(&mut self, slave: usize, sent_to: &[u64], received_from: &[u64]) {
        for (d, &s) in self.sent[slave].iter_mut().zip(sent_to) {
            *d = (*d).max(s);
        }
        for (sender, (d, &seen)) in self.recv[slave].iter_mut().zip(received_from).enumerate() {
            let grown = seen.saturating_sub(*d);
            *d += grown;
            for _ in 0..grown {
                let Some(pos) = self.pending_in[slave]
                    .iter()
                    .position(|&(_, src)| src == sender)
                else {
                    break;
                };
                self.pending_in[slave].remove(pos);
            }
        }
    }

    /// The invocation's transfers have all landed: no order is still
    /// unacknowledged, and `recv[b][a] >= sent[a][b]` for every pair of
    /// live slaves. Channels touching an evicted slave are exempt — the
    /// eviction protocol closes them and re-owns what was in flight. The
    /// master must not release the next invocation before this holds: a
    /// still-unexecuted order would otherwise fire after the barrier and
    /// tear the next invocation's bookkeeping apart.
    pub fn settled(&self) -> bool {
        let alive = &self.alive;
        self.outstanding_orders() == 0
            && alive
                .iter()
                .all(|&a| alive.iter().all(|&b| self.recv[b][a] >= self.sent[a][b]))
    }

    /// Slave `s` takes part in allocation: it is not evicted.
    pub(crate) fn is_live(&self, s: usize) -> bool {
        !self.dead[s]
    }

    /// Number of issued move orders whose transfer has not yet been
    /// acknowledged by the receiver.
    fn outstanding_orders(&self) -> usize {
        self.pending_in.iter().map(|q| q.len()).sum()
    }

    /// Process one status message and produce instructions for that slave.
    pub fn on_status(&mut self, s: &Status) -> Decision {
        assert!(s.slave < self.n, "unknown slave");
        self.stats.statuses += 1;
        self.merge_channels(s.slave, &s.sent_to, &s.received_from);
        // Orders the slave has applied are now reflected in its report.
        while let Some(&(seq, _)) = self.pending_out[s.slave].front() {
            if seq <= s.last_applied_seq {
                self.pending_out[s.slave].pop_front();
            } else {
                break;
            }
        }

        // Rate measurement + filtering. Individual windows can be shorter
        // than the scheduling quantum (catch-up bursts, bootstrap before
        // skip counts arrive); accumulate them until the sample spans at
        // least `MIN_SAMPLE` of computation, per §4.3's averaging rule.
        let (acc_units, acc_busy) = &mut self.acc[s.slave];
        *acc_units += s.units_done_delta;
        *acc_busy += s.elapsed;
        let (raw, adjusted) = if *acc_busy >= MIN_SAMPLE {
            let raw = *acc_units as f64 / (acc_busy.as_secs_f64() * self.units_scale);
            self.acc[s.slave] = (0, SimDuration::ZERO);
            (raw, self.filters[s.slave].update(raw))
        } else {
            let f = &self.filters[s.slave];
            (f.last_raw(), f.adjusted())
        };
        self.reported[s.slave] = s.active_units;

        // Cost measurements.
        if let Some(d) = s.interaction_cost_sample {
            self.freq.record_interaction(d);
        }
        if let Some((units, d)) = s.move_cost_sample {
            self.freq.record_movement(d);
            if units > 0 {
                let per = d.as_secs_f64() / units as f64;
                // Exponential refinement of the per-unit estimate.
                self.per_unit_move_s += 0.3 * (per - self.per_unit_move_s);
                self.move_samples.record(d);
            }
        }

        let moves = self.decide_moves(s.slave);
        let hooks_to_skip = self.freq.hooks_to_skip(adjusted, self.units_per_hook);
        self.seq += 1; // matches the seq recorded for pending_out entries
        Decision {
            instructions: Instructions {
                seq: self.seq,
                epoch: self.epoch,
                moves,
                hooks_to_skip,
            },
            raw_rate: raw,
            adjusted_rate: adjusted,
            owned_after: self.owned(s.slave),
        }
    }

    fn decide_moves(&mut self, reporting: usize) -> Vec<MoveOrder> {
        if !self.cfg.enabled || self.dead[reporting] {
            return Vec::new();
        }
        // Allocation runs over the *live* slaves only: evicted slaves are
        // compacted away, which also makes "adjacent" mean adjacent
        // surviving pipeline neighbours. One pass fills the scratch.
        let m = self.alive.len();
        if m < 2 {
            return Vec::new();
        }
        let mut total = 0u64;
        for (k, &i) in self.alive.iter().enumerate() {
            let filter = &self.filters[i];
            if !filter.is_initialized() {
                return Vec::new();
            }
            self.rates[k] = filter.adjusted();
            self.live_owned[k] =
                owned_of(self.reported[i], &self.pending_out[i], &self.pending_in[i]);
            total += self.live_owned[k];
        }
        self.stats.decisions += 1;
        if total == 0 {
            return Vec::new();
        }
        proportional_allocation_into(
            total,
            &self.rates[..m],
            self.min_per_slave,
            &mut self.target[..m],
            &mut self.order[..m],
        );
        let (rates, owned, target) = (&self.rates[..m], &self.live_owned[..m], &self.target[..m]);
        if target == owned {
            self.stats.skipped_balanced += 1;
            return Vec::new();
        }

        // Refinement 1: require >= threshold projected improvement.
        let t_cur = projected_time(owned, rates);
        let t_new = projected_time(target, rates);
        if !(t_cur.is_finite()) {
            // A stalled slave holding work: always act.
        } else if t_cur <= 0.0 || (t_cur - t_new) / t_cur < self.cfg.threshold {
            self.stats.cancelled_threshold += 1;
            return Vec::new();
        }

        // Refinement 2: profitability — movement must pay for itself over
        // the remaining invocations.
        let units_to_move: u64 = owned
            .iter()
            .zip(target)
            .map(|(&o, &t)| o.saturating_sub(t))
            .sum();
        if self.cfg.profitability && t_cur.is_finite() {
            let est_cost = units_to_move as f64 * self.per_unit_move_s;
            let benefit = (t_cur - t_new) * self.remaining_invocations as f64;
            if est_cost > benefit {
                self.stats.cancelled_profitability += 1;
                return Vec::new();
            }
        }

        let all_orders = match self.movement {
            MovementRule::Direct => plan_direct_moves(owned, target),
            MovementRule::AdjacentOnly => plan_adjacent_shifts(owned, target),
        };
        // Only the reporting slave gets its orders now; other slaves will be
        // re-planned when they report. Apply optimistic accounting so the
        // same move is not issued twice, and never issue across an adjacent
        // boundary that still has a transfer in flight (a crossing pair of
        // opposite-direction transfers would break block contiguity).
        let busy = self.busy_boundaries();
        let mut mine = Vec::new();
        for (from_c, order_c) in all_orders {
            let from = self.alive[from_c];
            if from != reporting {
                continue;
            }
            let to = self.alive[order_c.to];
            let adjacent = from_c + 1 == order_c.to || order_c.to + 1 == from_c;
            if adjacent && busy[from_c.min(order_c.to)] {
                continue;
            }
            let order = MoveOrder {
                to,
                count: order_c.count,
                edge: order_c.edge,
            };
            self.pending_out[reporting].push_back((self.seq + 1, order.count));
            self.pending_in[to].push_back((order.count, reporting));
            self.stats.moves_issued += 1;
            self.stats.units_moved += order.count;
            mine.push(order);
        }
        mine
    }
}

/// A slave's units as the balancer sees them: its last report, less the
/// orders it has not yet applied, plus the transfers still coming to it.
fn owned_of(reported: u64, out: &VecDeque<(u64, u64)>, incoming: &VecDeque<(u64, usize)>) -> u64 {
    let unapplied: u64 = out.iter().map(|&(_, u)| u).sum();
    let incoming: u64 = incoming.iter().map(|&(u, _)| u).sum();
    reported.saturating_sub(unapplied) + incoming
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_sim::SimDuration;

    fn status(slave: usize, done: u64, secs: f64, active: u64) -> Status {
        Status {
            slave,
            invocation: 0,
            hook_seq: 0,
            units_done_delta: done,
            elapsed: SimDuration::from_secs_f64(secs),
            active_units: active,
            last_applied_seq: u64::MAX, // tests: reports always current
            epoch: 0,
            sent_to: Vec::new(),
            received_from: Vec::new(),
            move_cost_sample: None,
            interaction_cost_sample: None,
        }
    }

    fn quantum() -> SimDuration {
        SimDuration::from_millis(100)
    }

    fn mk(cfg: BalancerConfig, owned: Vec<u64>) -> Balancer {
        Balancer::new(cfg, owned, quantum(), SimDuration::from_millis(10), 1, 1.0)
    }

    /// Warm all slaves with equal rates.
    fn warm(b: &mut Balancer, n: usize, units_each: u64) {
        for i in 0..n {
            let d = b.on_status(&status(i, 10, 1.0, units_each));
            assert!(d.instructions.moves.is_empty(), "no moves while warming");
        }
    }

    #[test]
    fn no_moves_when_balanced() {
        let mut b = mk(BalancerConfig::default(), vec![25; 4]);
        warm(&mut b, 4, 25);
        for i in 0..4 {
            let d = b.on_status(&status(i, 10, 1.0, 25));
            assert!(d.instructions.moves.is_empty());
        }
        assert!(b.stats().units_moved == 0);
    }

    #[test]
    fn slow_slave_sheds_work() {
        let mut b = mk(BalancerConfig::default(), vec![25; 4]);
        warm(&mut b, 4, 25);
        // Slave 0's rate collapses to half; persistent trend over a few
        // statuses so the filter follows.
        let mut moved = 0;
        for _ in 0..5 {
            let d = b.on_status(&status(0, 5, 1.0, 25 - moved));
            for m in &d.instructions.moves {
                assert_ne!(m.to, 0);
                moved += m.count;
            }
            for i in 1..4 {
                b.on_status(&status(i, 10, 1.0, 25));
            }
        }
        assert!(moved >= 3, "expected shedding, moved {moved}");
        // Final view: slave 0 below equal share.
        assert!(b.owned_view()[0] < 25);
    }

    #[test]
    fn threshold_blocks_small_imbalance() {
        let mut b = mk(BalancerConfig::default(), vec![25; 4]);
        warm(&mut b, 4, 25);
        // 10% slower: rebalancing would only shave ~6% off the projected
        // completion time -> below the 10% threshold, no move.
        for _ in 0..6 {
            let d = b.on_status(&status(0, 90, 10.0, 25));
            assert!(d.instructions.moves.is_empty(), "{:?}", d.instructions);
            for i in 1..4 {
                b.on_status(&status(i, 100, 10.0, 25));
            }
        }
        assert!(b.stats().cancelled_threshold > 0);
        assert_eq!(b.stats().units_moved, 0);
    }

    #[test]
    fn disabled_balancer_never_moves() {
        let cfg = BalancerConfig {
            enabled: false,
            ..Default::default()
        };
        let mut b = mk(cfg, vec![25; 4]);
        for _ in 0..3 {
            for i in 0..4 {
                let rate = if i == 0 { 1 } else { 100 };
                let d = b.on_status(&status(i, rate, 1.0, 25));
                assert!(d.instructions.moves.is_empty());
            }
        }
    }

    #[test]
    fn profitability_blocks_one_shot_gain() {
        // Movement very expensive, single invocation remaining, modest gain.
        let mut b = Balancer::new(
            BalancerConfig::default(),
            vec![25; 4],
            quantum(),
            SimDuration::from_secs(100), // 100 s per unit moved!
            1,
            1.0,
        );
        warm(&mut b, 4, 25);
        for _ in 0..4 {
            let d = b.on_status(&status(0, 5, 1.0, 25));
            assert!(d.instructions.moves.is_empty());
            for i in 1..4 {
                b.on_status(&status(i, 10, 1.0, 25));
            }
        }
        assert!(b.stats().cancelled_profitability > 0);
    }

    #[test]
    fn dead_slave_excluded_from_allocation() {
        let mut b = mk(BalancerConfig::default(), vec![25; 4]);
        warm(&mut b, 4, 25);
        b.mark_dead(3);
        // Slave 0 collapses; orders must never target the dead slave, and
        // the allocation rebalances among survivors only.
        let mut moved = 0;
        for _ in 0..5 {
            let d = b.on_status(&status(0, 5, 1.0, 25 - moved));
            for m in &d.instructions.moves {
                assert_ne!(m.to, 3, "move targeted a dead slave");
                assert_ne!(m.to, 0);
                moved += m.count;
            }
            for i in 1..3 {
                b.on_status(&status(i, 10, 1.0, 25));
            }
        }
        assert!(
            moved >= 3,
            "expected shedding among survivors, moved {moved}"
        );
        // A status from the dead slave itself yields no moves.
        let d = b.on_status(&status(3, 10, 1.0, 25));
        assert!(d.instructions.moves.is_empty());
    }

    #[test]
    fn profitability_allows_repeated_gain() {
        // Same expensive movement, but 1000 invocations remain: pays off.
        let mut b = Balancer::new(
            BalancerConfig::default(),
            vec![25; 4],
            quantum(),
            SimDuration::from_millis(100),
            1000,
            1.0,
        );
        warm(&mut b, 4, 25);
        let mut moved = 0;
        for _ in 0..5 {
            let d = b.on_status(&status(0, 5, 1.0, 25));
            moved += d.instructions.moves.iter().map(|m| m.count).sum::<u64>();
            for i in 1..4 {
                b.on_status(&status(i, 10, 1.0, 25));
            }
        }
        assert!(moved > 0);
    }

    #[test]
    fn adjacent_mode_only_moves_to_neighbors() {
        let mut b = mk(BalancerConfig::default(), vec![25; 4]);
        b.set_placement(MovementRule::AdjacentOnly, 1);
        warm(&mut b, 4, 25);
        for round in 0..6 {
            for i in 0..4 {
                let rate = if i == 0 { 4 } else { 10 };
                let d = b.on_status(&status(i, rate, 1.0, b.owned_view()[i]));
                for m in &d.instructions.moves {
                    assert!(
                        m.to + 1 == i || i + 1 == m.to,
                        "round {round}: slave {i} ordered to send to non-neighbor {}",
                        m.to
                    );
                }
            }
        }
    }

    #[test]
    fn optimistic_accounting_prevents_duplicate_orders() {
        let mut b = mk(BalancerConfig::default(), vec![25; 4]);
        warm(&mut b, 4, 25);
        // Slave 0 is slow; it reports twice in a row before anyone else's
        // counts change. Total ordered out of slave 0 must not exceed its
        // holdings or double-issue.
        let mut total_ordered = 0;
        for _ in 0..2 {
            let d = b.on_status(&status(0, 5, 1.0, 25 - total_ordered));
            total_ordered += d.instructions.moves.iter().map(|m| m.count).sum::<u64>();
        }
        assert!(total_ordered <= 25);
        // View stays conserved.
        assert_eq!(b.owned_view().iter().sum::<u64>(), 100);
    }

    #[test]
    fn transfer_acks_clear_pending() {
        let mut b = mk(BalancerConfig::default(), vec![25, 25]);
        warm(&mut b, 2, 25);
        // Force issues by making slave 0 slow; count the transfer messages.
        let mut sent_units = 0;
        let mut transfer_msgs = 0;
        for _ in 0..5 {
            let d = b.on_status(&status(0, 2, 1.0, 25 - sent_units));
            for m in &d.instructions.moves {
                sent_units += m.count;
                transfer_msgs += 1;
            }
            b.on_status(&status(1, 10, 1.0, 25));
        }
        assert!(sent_units > 0, "expected the balancer to shed work");
        // The view stays conserved while transfers are in flight...
        assert_eq!(b.owned_view().iter().sum::<u64>(), 50);
        // ...and after the receiver acknowledges all of them.
        let mut st = status(1, 10, 1.0, 25 + sent_units);
        st.received_from = vec![transfer_msgs, 0];
        b.on_status(&st);
        assert_eq!(b.owned_view().iter().sum::<u64>(), 50);
        assert_eq!(b.owned_view()[1], 25 + sent_units);
    }

    #[test]
    fn hooks_to_skip_scales_with_rate() {
        let mut b = mk(BalancerConfig::default(), vec![25; 4]);
        warm(&mut b, 4, 25);
        let slow = b.on_status(&status(0, 10, 1.0, 25));
        let fast = b.on_status(&status(1, 1000, 1.0, 25));
        assert!(fast.instructions.hooks_to_skip > slow.instructions.hooks_to_skip);
    }

    #[test]
    fn rates_exposed_in_decision() {
        let mut b = mk(BalancerConfig::default(), vec![10, 10]);
        let d = b.on_status(&status(0, 50, 2.0, 10));
        assert_eq!(d.raw_rate, 25.0);
        assert_eq!(d.adjusted_rate, 25.0); // first sample adopted
    }
}

#[cfg(test)]
mod tests_accounting {
    use super::*;
    use dlb_sim::SimDuration;

    fn status(slave: usize, done: u64, secs: f64, active: u64) -> Status {
        Status {
            slave,
            invocation: 0,
            hook_seq: 0,
            units_done_delta: done,
            elapsed: SimDuration::from_secs_f64(secs),
            active_units: active,
            last_applied_seq: u64::MAX,
            epoch: 0,
            sent_to: Vec::new(),
            received_from: Vec::new(),
            move_cost_sample: None,
            interaction_cost_sample: None,
        }
    }

    fn mk(owned: Vec<u64>) -> Balancer {
        Balancer::new(
            BalancerConfig::default(),
            owned,
            SimDuration::from_millis(100),
            SimDuration::from_millis(10),
            1,
            1.0,
        )
    }

    #[test]
    fn units_scale_divides_raw_rate() {
        let mut b = mk(vec![10, 10]);
        b.set_units_scale(10.0);
        let d = b.on_status(&status(0, 100, 1.0, 10));
        assert_eq!(d.raw_rate, 10.0); // 100 sub-units / (1 s * scale 10)
    }

    #[test]
    fn min_sample_window_ignored() {
        let mut b = mk(vec![10, 10]);
        b.on_status(&status(0, 100, 1.0, 10)); // raw 100
                                               // A 1 ms window with absurd implied rate must not move the filter.
        let d = b.on_status(&status(0, 50, 0.001, 10));
        assert_eq!(d.raw_rate, 100.0, "short window should reuse last raw");
    }

    #[test]
    fn stale_status_does_not_double_issue() {
        // After issuing an order, a status that has NOT yet applied it
        // (last_applied_seq older) must not make the balancer re-issue.
        let mut b = mk(vec![25, 25]);
        // Warm filters.
        b.on_status(&status(0, 10, 1.0, 25));
        b.on_status(&status(1, 10, 1.0, 25));
        // Slave 0 is slow; force an order.
        let mut first = None;
        for _ in 0..4 {
            let mut st = status(0, 3, 1.0, 25);
            st.last_applied_seq = 0; // nothing applied yet
            let d = b.on_status(&st);
            if !d.instructions.moves.is_empty() {
                first = Some(d.instructions.clone());
                break;
            }
            b.on_status(&status(1, 10, 1.0, 25));
        }
        let first = first.expect("an order should be issued");
        let moved: u64 = first.moves.iter().map(|m| m.count).sum();
        // Another stale status (active still 25, seq still 0): the pending
        // outbound order must be discounted, so no duplicate order.
        let mut st = status(0, 3, 1.0, 25);
        st.last_applied_seq = 0;
        let d2 = b.on_status(&st);
        let moved2: u64 = d2.instructions.moves.iter().map(|m| m.count).sum();
        assert!(
            moved2 < moved.max(2),
            "stale report re-issued {moved2} after {moved}"
        );
        assert_eq!(b.owned_view().iter().sum::<u64>(), 50);
    }

    #[test]
    fn outstanding_orders_tracked_until_receiver_ack() {
        let mut b = mk(vec![25, 25]);
        b.on_status(&status(0, 10, 1.0, 25));
        b.on_status(&status(1, 10, 1.0, 25));
        let mut issued = 0;
        for _ in 0..4 {
            let d = b.on_status(&status(0, 3, 1.0, b.owned_view()[0]));
            issued += d.instructions.moves.len();
            b.on_status(&status(1, 10, 1.0, 25));
            if issued > 0 {
                break;
            }
        }
        assert!(issued > 0);
        assert!(b.outstanding_orders() > 0);
        // Receiver acknowledges all transfers from slave 0.
        let mut st = status(1, 10, 1.0, 40);
        st.received_from = vec![issued as u64, 0];
        b.on_status(&st);
        assert_eq!(b.outstanding_orders(), 0);
    }

    #[test]
    fn watermarks_acked_with_nothing_pending_are_remembered() {
        let mut b = mk(vec![25, 25]);
        b.on_status(&status(0, 10, 1.0, 25));
        // Slave 1 reports three transfers from slave 0 the balancer never
        // ordered (say, from before a rebase): nothing is pending for it.
        let seen = |active| {
            let mut st = status(1, 10, 1.0, active);
            st.received_from = vec![3, 0];
            st
        };
        b.on_status(&seen(25));
        let mut issued = 0;
        for _ in 0..4 {
            let d = b.on_status(&status(0, 3, 1.0, b.owned_view()[0]));
            issued += d.instructions.moves.len() as u64;
            if issued > 0 {
                break;
            }
            b.on_status(&seen(25));
        }
        assert!(issued > 0);
        // The same watermark again acknowledges none of the new orders...
        b.on_status(&seen(25));
        assert_eq!(b.outstanding_orders() as u64, issued);
        // ...and the next ones acknowledge exactly them.
        let mut st = seen(25);
        st.received_from = vec![3 + issued, 0];
        b.on_status(&st);
        assert_eq!(b.outstanding_orders(), 0);
    }

    #[test]
    fn a_stale_report_acknowledges_nothing() {
        let mut b = mk(vec![25, 25]);
        b.on_status(&status(0, 10, 1.0, 25));
        // Slave 1 has applied three transfers from slave 0, none of them
        // ordered by this balancer.
        let seen = |received| {
            let mut st = status(1, 10, 1.0, 25);
            st.received_from = vec![received, 0];
            st
        };
        b.on_status(&seen(3));
        let mut issued = 0;
        for _ in 0..4 {
            let d = b.on_status(&status(0, 3, 1.0, b.owned_view()[0]));
            issued += d.instructions.moves.len();
            if issued > 0 {
                break;
            }
            b.on_status(&seen(3));
        }
        assert_eq!(issued, 1);
        // An `InvocationDone` sent before the last status arrives after it,
        // then the last status's counters come again: neither shows the
        // order's transfer, so the order stays outstanding.
        b.merge_channels(1, &[], &[2, 0]);
        b.on_status(&seen(3));
        assert_eq!(b.outstanding_orders(), 1);
        assert!(!b.settled());
    }

    #[test]
    fn period_bounds_reflect_samples() {
        let mut b = mk(vec![10, 10]);
        let mut st = status(0, 10, 1.0, 10);
        st.interaction_cost_sample = Some(SimDuration::from_millis(40));
        st.move_cost_sample = Some((5, SimDuration::from_secs(10)));
        b.on_status(&st);
        let bounds = b.period_bounds();
        assert_eq!(bounds.interaction_bound, SimDuration::from_millis(800));
        assert_eq!(bounds.movement_bound, SimDuration::from_secs(1));
        assert_eq!(bounds.target, SimDuration::from_secs(1));
    }
}

#[cfg(test)]
mod tests_stream {
    use super::*;
    use crate::msg::Edge;
    use dlb_sim::Pcg32;

    const N: usize = 64;

    /// FNV-1a over 64-bit words: a digest that is the same on any host and
    /// any toolchain.
    struct Fnv(u64);

    impl Fnv {
        fn word(&mut self, w: u64) {
            for b in w.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            }
        }
    }

    /// Hand every transfer in flight to its receiver, which acknowledges it
    /// in its next status.
    fn deliver(
        in_flight: &mut Vec<(usize, usize, u64)>,
        held: &mut [u64],
        received: &mut [Vec<u64>],
    ) {
        for (from, to, count) in in_flight.drain(..) {
            held[to] += count;
            received[to][from] += 1;
        }
    }

    /// Drive a 64-slave balancer through 40 rounds of statuses with
    /// drifting rates and a shrinking benefit horizon, transfers
    /// acknowledged through `received_from` (delivered at the end of the
    /// round when `late`, else at once), an eviction at round 12 and a
    /// readmission plus rebase at round 24; return a digest of every
    /// `Instructions` and of the final stats.
    fn stream_digest(
        movement: MovementRule,
        min_per_slave: u64,
        late: bool,
    ) -> (u64, BalancerStats) {
        let mut b = Balancer::new(
            BalancerConfig::default(),
            vec![16; N],
            SimDuration::from_millis(100),
            SimDuration::from_millis(5),
            40,
            1.0,
        );
        b.set_placement(movement, min_per_slave);
        let mut rng = Pcg32::new(0x5EED_0064);
        let mut held = vec![16u64; N];
        let mut received = vec![vec![0u64; N]; N];
        let mut applied = vec![0u64; N];
        let mut alive = [true; N];
        let mut base: Vec<f64> = (0..N).map(|_| 50.0 + rng.next_f64() * 100.0).collect();
        let mut in_flight: Vec<(usize, usize, u64)> = Vec::new();
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for round in 0..40u64 {
            // Transfers are all delivered by the end of a round, so the
            // membership changes below find nothing in flight.
            if round == 12 {
                // Evict slave 5: a re-range hands its units to slave 4.
                held[4] += held[5];
                held[5] = 0;
                alive[5] = false;
                b.mark_dead(5);
            }
            if round == 24 {
                // Readmit slave 5 and re-scatter equally in a new epoch.
                alive[5] = true;
                b.admit(5);
                let total: u64 = held.iter().sum();
                held = (0..N)
                    .map(|i| total / N as u64 + u64::from(i < (total % N as u64) as usize))
                    .collect();
                received = vec![vec![0; N]; N];
                b.rebase(1, held.clone());
            }
            b.set_remaining_invocations(40 - round);
            // Rates drift: a random walk per slave, with one slow block.
            for (i, r) in base.iter_mut().enumerate() {
                *r = (*r * (0.9 + 0.2 * rng.next_f64())).clamp(10.0, 400.0);
                if round == 8 && i % 9 == 0 {
                    *r /= 3.0;
                }
            }
            let start = rng.gen_index(0, N);
            for k in 0..N {
                let s = (start + k) % N;
                if !alive[s] {
                    continue;
                }
                let secs = 0.5 + rng.next_f64();
                let st = Status {
                    slave: s,
                    invocation: 0,
                    hook_seq: round,
                    units_done_delta: (base[s] * secs) as u64,
                    elapsed: SimDuration::from_secs_f64(secs),
                    active_units: held[s],
                    last_applied_seq: applied[s],
                    epoch: u64::from(round >= 24),
                    sent_to: Vec::new(),
                    received_from: received[s].clone(),
                    move_cost_sample: (round % 5 == 0)
                        .then(|| (4, SimDuration::from_millis(10 + round))),
                    interaction_cost_sample: (k % 7 == 0)
                        .then(|| SimDuration::from_millis(2 + (k as u64 % 5))),
                };
                let d = b.on_status(&st);
                let ins = &d.instructions;
                h.word(ins.seq);
                h.word(ins.epoch);
                h.word(ins.hooks_to_skip);
                h.word(ins.moves.len() as u64);
                for m in &ins.moves {
                    h.word(m.to as u64);
                    h.word(m.count);
                    h.word(matches!(m.edge, Edge::High) as u64);
                    let count = m.count.min(held[s]);
                    held[s] -= count;
                    in_flight.push((s, m.to, count));
                }
                h.word(d.owned_after);
                applied[s] = ins.seq;
                if !late {
                    deliver(&mut in_flight, &mut held, &mut received);
                }
            }
            deliver(&mut in_flight, &mut held, &mut received);
        }
        let st = b.stats();
        for w in [
            st.statuses,
            st.decisions,
            st.moves_issued,
            st.units_moved,
            st.skipped_balanced,
            st.cancelled_threshold,
            st.cancelled_profitability,
        ] {
            h.word(w);
        }
        (h.0, st)
    }

    /// The decision stream at 64 slaves under both movement rules, pinned
    /// bit for bit: a change to the allocation's float order, the
    /// refinements or the in-flight accounting moves it (ties are rare
    /// here; `prop_balancer`'s reference test holds the tie-break).
    /// AdjacentOnly delivers at once: delivered late, its clamped orders
    /// inflate the balancer's view of the receivers without bound.
    #[test]
    fn decision_stream_is_pinned() {
        let direct = stream_digest(MovementRule::Direct, 0, true);
        let adjacent = stream_digest(MovementRule::AdjacentOnly, 1, false);
        for (_, st) in [&direct, &adjacent] {
            assert!(
                st.moves_issued > 0 && st.cancelled_threshold > 0 && st.cancelled_profitability > 0,
                "{st:?}"
            );
        }
        assert_eq!(direct.0, 7_486_196_291_294_151_287, "{direct:?}");
        assert_eq!(adjacent.0, 9_683_552_128_279_107_632, "{adjacent:?}");
    }
}

#[cfg(test)]
mod tests_ledger {
    use super::*;
    use dlb_sim::Pcg32;

    /// The slaves as the balancer's orders leave them: what each holds, its
    /// channel counters (`sent[a][b]` transfers `a` sent toward `b`,
    /// `received[b][a]` those from `a` applied at `b`) and the transfers on
    /// the wire, `(due round, from, to, units)`, which land in order per
    /// channel.
    struct Slaves {
        held: Vec<u64>,
        sent: Vec<Vec<u64>>,
        received: Vec<Vec<u64>>,
        applied: Vec<u64>,
        wire: Vec<(u64, usize, usize, u64)>,
        last_due: Vec<Vec<u64>>,
    }

    impl Slaves {
        fn new(n: usize) -> Slaves {
            Slaves {
                held: vec![16; n],
                sent: vec![vec![0; n]; n],
                received: vec![vec![0; n]; n],
                applied: vec![0; n],
                wire: Vec::new(),
                last_due: vec![vec![0; n]; n],
            }
        }

        /// Slave `s`'s report as it stands now: the counters are a snapshot,
        /// however late the report is delivered.
        fn report(&self, s: usize, round: u64, rate: f64, secs: f64) -> Status {
            Status {
                slave: s,
                invocation: 0,
                hook_seq: round,
                units_done_delta: (rate * secs) as u64,
                elapsed: SimDuration::from_secs_f64(secs),
                active_units: self.held[s],
                last_applied_seq: self.applied[s],
                epoch: 0,
                sent_to: self.sent[s].clone(),
                received_from: self.received[s].clone(),
                move_cost_sample: None,
                interaction_cost_sample: None,
            }
        }

        /// Slave `s` executes its orders: each leaves as one transfer (of
        /// what it still holds, at most the count) that lands 0-3 rounds on.
        fn apply(&mut self, s: usize, ins: &Instructions, round: u64, rng: &mut Pcg32) {
            for m in &ins.moves {
                let count = m.count.min(self.held[s]);
                self.held[s] -= count;
                self.sent[s][m.to] += 1;
                let due = (round + rng.gen_range(0, 4)).max(self.last_due[s][m.to]);
                self.last_due[s][m.to] = due;
                self.wire.push((due, s, m.to, count));
            }
            self.applied[s] = self.applied[s].max(ins.seq);
        }

        fn land(&mut self, round: u64) {
            let (held, received) = (&mut self.held, &mut self.received);
            self.wire.retain(|&(due, from, to, count)| {
                if due > round {
                    return true;
                }
                held[to] += count;
                received[to][from] += 1;
                false
            });
        }
    }

    /// One run at width `n`: 20 rounds in which every slave reports once
    /// — a `Status` the balancer answers, or an `InvocationDone` it only
    /// merges — each report delivered 0-3 rounds after it was sent,
    /// reordered, and one in five delivered twice; then the wire drains
    /// and every slave reports once more. After every report, each order
    /// whose transfer is still on the wire is outstanding, so the balancer
    /// is not settled; once all have landed and been reported, it is.
    /// Returns the moves issued and the reports that carried a counter
    /// below one already delivered.
    fn ledger_run(
        rng: &mut Pcg32,
        n: usize,
        movement: MovementRule,
        min_per_slave: u64,
    ) -> (u64, u64) {
        let mut b = Balancer::new(
            BalancerConfig::default(),
            vec![16; n],
            SimDuration::from_millis(100),
            SimDuration::from_millis(5),
            40,
            1.0,
        );
        b.set_placement(movement, min_per_slave);
        let mut slaves = Slaves::new(n);
        let mut rate: Vec<f64> = (0..n).map(|_| 50.0 + rng.next_f64() * 100.0).collect();
        let mut queue: Vec<(u64, bool, Status)> = Vec::new();
        let mut newest = vec![vec![0u64; n]; n];
        let mut stale = 0;
        let mut round = 0;
        while round < 20 || !queue.is_empty() || !slaves.wire.is_empty() {
            if round < 20 {
                for r in &mut rate {
                    *r = (*r * (0.8 + 0.4 * rng.next_f64())).clamp(10.0, 400.0);
                }
                for (s, &r) in rate.iter().enumerate() {
                    let report = slaves.report(s, round, r, 0.5 + rng.next_f64());
                    let is_status = rng.chance(0.7);
                    let due = round + rng.gen_range(0, 4);
                    if rng.chance(0.2) {
                        queue.push((due + rng.gen_range(0, 4), is_status, report.clone()));
                    }
                    queue.push((due, is_status, report));
                }
            }
            let mut now;
            (now, queue) = std::mem::take(&mut queue)
                .into_iter()
                .partition(|r| r.0 <= round);
            for i in (1..now.len()).rev() {
                now.swap(i, rng.gen_index(0, i + 1));
            }
            for (_, is_status, st) in now {
                let s = st.slave;
                if st.received_from.iter().zip(&newest[s]).any(|(r, m)| r < m) {
                    stale += 1;
                }
                for (m, &r) in newest[s].iter_mut().zip(&st.received_from) {
                    *m = (*m).max(r);
                }
                if is_status {
                    let d = b.on_status(&st);
                    slaves.apply(s, &d.instructions, round, rng);
                } else {
                    b.merge_channels(s, &st.sent_to, &st.received_from);
                }
                let on_wire = slaves.wire.len();
                assert!(
                    b.outstanding_orders() >= on_wire,
                    "n {n}, {movement:?}, round {round}: {} orders outstanding, {on_wire} on the wire",
                    b.outstanding_orders()
                );
                assert!(
                    on_wire == 0 || !b.settled(),
                    "settled with {on_wire} transfers on the wire"
                );
            }
            slaves.land(round);
            round += 1;
        }
        for s in 0..n {
            b.merge_channels(s, &slaves.sent[s], &slaves.received[s]);
        }
        assert!(
            b.settled(),
            "n {n}, {movement:?}: unsettled after every transfer landed"
        );
        (b.stats().moves_issued, stale)
    }

    /// The ledger under late, reordered and duplicated reports, at widths
    /// 2-64 and under both movement rules: an order stays outstanding until
    /// its transfer has landed and a report says so.
    #[test]
    fn late_reports_never_settle_an_order_in_flight() {
        let mut rng = Pcg32::new(0x1ED6E5);
        for (movement, min_per_slave) in
            [(MovementRule::Direct, 0), (MovementRule::AdjacentOnly, 1)]
        {
            let (mut moves, mut stale) = (0, 0);
            for case in 0..8 {
                let n = match case {
                    0 => 2,
                    1 => 64,
                    _ => 2 + rng.gen_index(0, 63),
                };
                let (m, s) = ledger_run(&mut rng, n, movement, min_per_slave);
                moves += m;
                stale += s;
            }
            assert!(
                moves > 0 && stale > 0,
                "{movement:?}: {moves} moves, {stale} stale reports"
            );
        }
    }
}
