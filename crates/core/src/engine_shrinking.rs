//! Distribution strategy for shrinking distributed loops (LU-shaped
//! programs, §4.7).
//!
//! At step `k` the owner of column `k` finalizes it, broadcasts its pivot
//! payload to every other slave, and retires it — data slices with no
//! future work become *inactive* and are never moved by the balancer. All
//! slaves then update their active columns (`j > k`). Work movement is
//! direct (no carried dependences) and only ships active columns; a column
//! arriving one step behind is caught up with the retained pivot window.
//!
//! The slave's life cycle (first release, barrier, barrier checkpoints,
//! rollback, snapshot speculation, rescue, gather, election and rejoin)
//! lives in [`crate::session::slave`]; this module supplies the shrinking
//! [`DistributionStrategy`]: the pivot/update step body, active/retired
//! bookkeeping on rollback, and the sequential one-step snapshot advance
//! used to race a silent suspect.
//!
//! ## A pivot is never stale
//!
//! Pivot payloads are pure functions of step-start state, so pivot
//! broadcasts surviving from before a rollback are bit-identical to their
//! replayed versions; transfers and balancing instructions are
//! epoch-fenced, pivots are not. That is load-bearing, not a nicety: a
//! broadcast is sent once, and asked for again, and after a rollback the
//! first survivor to replay the resumed step broadcasts its pivot while
//! the master is still shipping the other survivors' `Rollback`s, so the
//! pivot routinely *overtakes the receiver's own rollback*. A receiver that
//! dropped it would have to ask a peer for it once per heartbeat. So
//! [`DistributionStrategy::restore`] keeps what is banked, and the receives
//! that run without a strategy leave pivots queued
//! ([`Msg::can_go_stale`]).
//!
//! ## A lost pivot is asked for again
//!
//! A broadcast lost on the wire has no sender to repeat it. The wait for
//! it asks a live peer with a [`Msg::PivotWanted`] in each silent
//! heartbeat slice (`SlaveCommon::wait`). No live peer passes the barrier
//! of step `k` before the asker reports step `k`, so every one of them
//! holds pivot `k` in its window, owns column `k` retired and rebuilds the
//! payload bit-identically, or is blocked on it too — and then answers from
//! its next drain, right after its own copy arrives. Answers go out as
//! ordinary [`Msg::Pivot`]s, from the barrier and from every drain.
//!
//! ## When a slave looks at its mailbox
//!
//! As in the paper's generated code, a slave talks to the run-time system
//! at a load-balancing hook, and a hook the master told it to skip does
//! nothing. A look is an interaction: a slave whose column updates ran its
//! clock ahead parks first, until the simulation reaches its instant. So
//! the update loop of step `k` looks (`drain_transfers`) at three points
//! only:
//!
//! - before its first column;
//! - right after each hook that *fires*: the slave has just sent its status
//!   and read its instructions, so it has caught up anyway;
//! - once more before the step ends, if it updated a column since its last
//!   look, and then scans for columns behind again.
//!
//! The last look is load-bearing: a column that arrives after the last
//! fired hook still needs step `k`'s update before the step's `fire`
//! reports it done, and the next step's pivot column may be that one.
//! Under fault mode a `Rollback`, `Evict` or `PivotWanted` that lands
//! mid-step waits for the next of these looks too.
//!
//! ## What a slave keeps
//!
//! *Pivots are a window, not a history* ([`Pivots`]). Every active column
//! is at most one step behind the step in progress (`restore` and
//! `incorporate` both say so), so as step `k` starts the payloads below
//! `k − 1` are dropped — keeping all of them is the whole matrix again on
//! every slave. One exception: a payload that *arrives* for a step already
//! below the one in progress is a duplicate or — the case above — a
//! re-broadcast from a peer that has been rolled back before us. It is
//! kept until the next `restore`, so pruning cannot re-open the race.
//!
//! *Retired columns are shared, not copied.* A retired column is final, so
//! it moves behind an `Arc` when it retires and every barrier checkpoint,
//! and every `restore` of an id below the resumed step, is a refcount on
//! that one allocation. Active columns change every step and are copied
//! per snapshot.

use crate::error::ProtocolError;
use crate::kernels::ShrinkingKernel;
use crate::msg::{column, Edge, MoveOrder, MovedUnit, Msg, SharedUnits, TransferMsg, UnitData};
use crate::session::slave::SlaveSpec;
use crate::session::strategy::{BarrierMsg, DistributionStrategy};
use crate::slave_common::{RollbackInfo, SlaveCommon, StartInfo, Wait};
use dlb_sim::MailCtx;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

struct SCol {
    data: Vec<f64>,
    /// Highest step whose update has been applied (-1 = none).
    updated_through: i64,
}

/// Pivot payloads by step: the window `k − 1 ..` while step `k` is in
/// progress, plus whatever arrived for a step already behind it (see the
/// module doc).
#[derive(Default)]
struct Pivots {
    /// The step in progress (the resumed one after a rollback).
    step: usize,
    banked: BTreeMap<usize, Vec<f64>>,
    /// Steps banked while a later one was in progress: exempt from
    /// [`Pivots::begin_step`]'s pruning until the next [`Pivots::rewind`].
    held: BTreeSet<usize>,
}

impl Pivots {
    /// Bank a broadcast (idempotent — pivot payloads are
    /// value-deterministic, so a duplicate or a pre-rollback straggler is
    /// the same bits).
    fn bank(&mut self, step: usize, values: Vec<f64>) {
        if step < self.step {
            self.held.insert(step);
        }
        self.banked.insert(step, values);
    }

    fn get(&self, step: usize) -> Option<&Vec<f64>> {
        self.banked.get(&step)
    }

    /// Step `k` starts: no column here is further behind than `k − 1`.
    fn begin_step(&mut self, k: usize) {
        self.step = k;
        let held = &self.held;
        self.banked.retain(|s, _| s + 1 >= k || held.contains(s));
    }

    /// A rollback resumes step `k`. It rewinds columns, never pivot values:
    /// everything banked stays (the resumed step's pivot may well be here
    /// already), and what was held for this moment is ordinary again.
    fn rewind(&mut self, k: usize) {
        self.step = k;
        self.held.clear();
    }
}

struct State {
    active: BTreeMap<usize, SCol>,
    /// Final columns, behind the `Arc` every later snapshot shares.
    retired: SharedUnits,
    pivots: Pivots,
    /// Every active column with an id below this is updated through the step
    /// in progress: where [`State::next_behind`] resumes its scan. Zero when
    /// a step starts or a rollback replaces the columns; [`incorporate`]
    /// lowers it to an arriving id.
    cursor: usize,
}

impl State {
    /// The lowest active column not yet updated through step `k`.
    fn next_behind(&mut self, k: usize) -> Option<usize> {
        let (&id, _) = self
            .active
            .range(self.cursor..)
            .find(|(_, c)| c.updated_through < k as i64)?;
        self.cursor = id;
        Some(id)
    }

    /// A copy of every active column, lowest id first.
    fn active_units(&self) -> impl Iterator<Item = (usize, UnitData)> + '_ {
        self.active
            .iter()
            .map(|(&id, c)| (id, vec![c.data.clone()]))
    }
}

/// The shrinking distribution pattern plugged into the slave runner.
pub struct ShrinkingStrategy {
    st: State,
    kernel: Arc<dyn ShrinkingKernel>,
}

impl ShrinkingStrategy {
    /// The strategy for the block of columns the `Start` message assigns to
    /// `spec.idx` (empty for a latecomer).
    pub fn new(
        kernel: Arc<dyn ShrinkingKernel>,
        spec: &SlaveSpec,
        (_, assignment, _): &StartInfo,
    ) -> ShrinkingStrategy {
        let range = assignment[spec.idx];
        let st = State {
            active: (range.0..range.1)
                .map(|i| {
                    (
                        i,
                        SCol {
                            data: kernel.init_unit(i),
                            updated_through: -1,
                        },
                    )
                })
                .collect(),
            retired: Vec::new(),
            pivots: Pivots::default(),
            cursor: 0,
        };
        ShrinkingStrategy { st, kernel }
    }
}

impl DistributionStrategy for ShrinkingStrategy {
    fn invocations(&self) -> u64 {
        (self.kernel.n_units() as u64).saturating_sub(1)
    }

    fn first_release_context(&self) -> &'static str {
        "first step start"
    }

    fn barrier_context(&self) -> &'static str {
        "step barrier"
    }

    async fn run_invocation(
        &mut self,
        ctx: &MailCtx<Msg>,
        common: &mut SlaveCommon,
        inv: u64,
    ) -> Result<(), ProtocolError> {
        let st = &mut self.st;
        let kernel = &*self.kernel;
        let k = inv as usize;
        step(ctx, common, st, kernel, k).await?;
        // Flush the final partial period (and execute any late moves)
        // before reporting the step done.
        drain_transfers(ctx, common, st, kernel, k).await?;
        let moves = common.fire(ctx, inv, st.active.len() as u64).await?;
        execute_moves(ctx, common, st, k, moves).await
    }

    async fn on_barrier_msg(
        &mut self,
        ctx: &MailCtx<Msg>,
        common: &mut SlaveCommon,
        inv: u64,
        msg: Msg,
    ) -> Result<BarrierMsg, ProtocolError> {
        let st = &mut self.st;
        let kernel = &*self.kernel;
        match msg {
            Msg::Transfer(t) => {
                let k = inv as usize;
                if common.accept_transfer(ctx, &t).await {
                    incorporate(common.idx, st, t, k)?;
                    // Arrivals may still need this step's update; the work
                    // counts toward this step, so flush it and execute any
                    // movement the reply orders.
                    while let Some(j) = st.next_behind(k) {
                        update_column(ctx, common, st, kernel, j, k).await?;
                    }
                    let active = st.active.len() as u64;
                    let moves = common.fire(ctx, inv, active).await?;
                    execute_moves(ctx, common, st, k, moves).await?;
                }
            }
            Msg::Instructions(instr) => {
                // Barrier-time moves keep the next step balanced.
                let moves = common.instructions_out_of_band(instr);
                if moves.is_empty() {
                    return Ok(BarrierMsg::Consumed);
                }
                execute_moves(ctx, common, st, inv as usize, moves).await?;
            }
            Msg::Pivot { step, values } => {
                // A pivot broadcast racing ahead of the release (or of our
                // own rollback); bank it.
                st.pivots.bank(step as usize, values);
                return Ok(BarrierMsg::Consumed);
            }
            Msg::PivotWanted { step, from } => {
                answer_pivot(ctx, common, st, kernel, step as usize, from).await;
                return Ok(BarrierMsg::Consumed);
            }
            other => return Ok(BarrierMsg::Pass(other)),
        }
        Ok(BarrierMsg::Refresh)
    }

    fn report(&self) -> (Vec<usize>, f64) {
        let mut owned: Vec<usize> = self.st.retired.iter().map(|(id, _)| *id).collect();
        owned.extend(self.st.active.keys().copied());
        (owned, 0.0)
    }

    /// Every column held here, retired ones first: a refcount per retired
    /// column, a copy per active one.
    fn checkpoint_units(&self) -> SharedUnits {
        let active = self.st.active_units().map(|(id, d)| (id, Arc::new(d)));
        self.st.retired.iter().cloned().chain(active).collect()
    }

    fn gather_units(&self) -> Result<Vec<(usize, UnitData)>, ProtocolError> {
        let retired = self.st.retired.iter().map(|(id, d)| (*id, (**d).clone()));
        Ok(retired.chain(self.st.active_units()).collect())
    }

    /// Ids below the resumed step are retired (their data is final and
    /// stays behind the snapshot's `Arc`), the rest are active and updated
    /// through the previous step. Banked pivots stay banked.
    fn restore(
        &mut self,
        _common: &mut SlaveCommon,
        rb: RollbackInfo,
    ) -> Result<u64, ProtocolError> {
        let st = &mut self.st;
        let k = rb.invocation;
        st.active.clear();
        st.retired.clear();
        st.pivots.rewind(k as usize);
        st.cursor = 0;
        for (id, d) in rb.units {
            if (id as u64) < k {
                st.retired.push((id, d));
            } else {
                st.active.insert(
                    id,
                    SCol {
                        data: column(Arc::unwrap_or_clone(d)),
                        updated_through: k as i64 - 1,
                    },
                );
            }
        }
        Ok(k)
    }

    /// Run step `invocation` over the whole banked matrix, sequentially and
    /// without any communication: finalize the pivot column's payload, then
    /// update every later column through the step — exactly the distributed
    /// dataflow, so the speculative state is bit-identical to what the
    /// suspect would have produced. Columns at or below the step are final
    /// in the snapshot and pass through unchanged.
    async fn speculate(
        &mut self,
        ctx: &MailCtx<Msg>,
        common: &mut SlaveCommon,
        _inv: u64,
        invocation: u64,
        units: SharedUnits,
    ) -> Result<SharedUnits, ProtocolError> {
        let kernel = &*self.kernel;
        let k = invocation as usize;
        let mut cols: Vec<(usize, Vec<f64>)> = units
            .into_iter()
            .map(|(id, d)| (id, column(Arc::unwrap_or_clone(d))))
            .collect();
        cols.sort_by_key(|(id, _)| *id);
        let payload = {
            let col_k = cols.iter().find(|(id, _)| *id == k).ok_or_else(|| {
                ProtocolError::Inconsistent {
                    detail: format!(
                        "slave {}: speculation snapshot missing pivot column {k}",
                        common.idx
                    ),
                }
            })?;
            kernel.pivot_payload(k, &col_k.1)
        };
        for (id, data) in cols.iter_mut() {
            if *id > k {
                ctx.advance_work(kernel.step_cost(k)).await;
                kernel.update(*id, data, &payload, k);
            }
        }
        Ok(cols
            .into_iter()
            .map(|(id, d)| (id, Arc::new(vec![d])))
            .collect())
    }
}

async fn step(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    st: &mut State,
    kernel: &dyn ShrinkingKernel,
    k: usize,
) -> Result<(), ProtocolError> {
    st.pivots.begin_step(k);
    // Pivot phase: the owner finalizes and broadcasts column k.
    if let Some(col) = st.active.remove(&k) {
        if col.updated_through != k as i64 - 1 {
            return Err(ProtocolError::Inconsistent {
                detail: format!(
                    "slave {}: pivot column {k} updated through {} at step {k}",
                    common.idx, col.updated_through
                ),
            });
        }
        let payload = kernel.pivot_payload(k, &col.data);
        for to in 0..common.slaves.len() {
            if to != common.idx && !common.dead[to] {
                let msg = Msg::Pivot {
                    step: k as u64,
                    values: payload.clone(),
                };
                common.send_slave(ctx, to, msg).await;
            }
        }
        st.pivots.bank(k, payload);
        st.retired.push((k, Arc::new(vec![col.data])));
    } else if st.pivots.get(k).is_none() {
        let want = k as u64;
        let env = common
            .recv_blocking(
                ctx,
                |m| matches!(m, Msg::Pivot { step, .. } if *step == want),
                Wait::for_pivot(want, ctx.now()),
            )
            .await?;
        if let Msg::Pivot { values, .. } = env.msg {
            st.pivots.bank(k, values);
        }
    }

    // Update phase: bring every active column through step k, lowest id
    // first, hooking after each column update. The mailbox is looked at
    // before the first column, after each hook that fires, and once more
    // if a column was updated since the last look (see the module doc).
    st.cursor = 0;
    drain_transfers(ctx, common, st, kernel, k).await?;
    let mut looked = true;
    loop {
        let Some(j) = st.next_behind(k) else {
            if looked {
                return Ok(());
            }
            drain_transfers(ctx, common, st, kernel, k).await?;
            looked = true;
            continue;
        };
        update_column(ctx, common, st, kernel, j, k).await?;
        let active = st.active.len() as u64;
        let moves = common.hook(ctx, k as u64, active).await?;
        execute_moves(ctx, common, st, k, moves).await?;
        looked = common.fired_last();
        if looked {
            drain_transfers(ctx, common, st, kernel, k).await?;
        }
    }
}

async fn update_column(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    st: &mut State,
    kernel: &dyn ShrinkingKernel,
    j: usize,
    k: usize,
) -> Result<(), ProtocolError> {
    let col = st.active.get_mut(&j).expect("column present");
    let from = (col.updated_through + 1) as usize;
    for kk in from..=k {
        let Some(pivot) = st.pivots.get(kk) else {
            // A caught-up column needs pivot history the protocol should
            // have delivered; its absence means a lost broadcast (or a
            // runtime bug) — either way the step cannot proceed.
            return Err(ProtocolError::MissingPivot {
                step: kk,
                column: j,
                slave: common.idx,
            });
        };
        common.compute(ctx, kernel.step_cost(kk)).await;
        kernel.update(j, &mut col.data, pivot, kk);
        col.updated_through = kk as i64;
        common.record_done(1);
    }
    Ok(())
}

async fn execute_moves(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    st: &mut State,
    k: usize,
    moves: Vec<MoveOrder>,
) -> Result<(), ProtocolError> {
    let detach = |order: &MoveOrder| {
        let take = (order.count as usize).min(st.active.len());
        let ids: Vec<usize> = match order.edge {
            Edge::High => st.active.keys().rev().take(take).copied().collect(),
            Edge::Low => st.active.keys().take(take).copied().collect(),
        };
        let units: Vec<MovedUnit> = ids
            .into_iter()
            .map(|id| {
                let c = st.active.remove(&id).expect("picked id");
                MovedUnit {
                    id,
                    done: c.updated_through >= k as i64,
                    updated_through: c.updated_through.max(0) as u64,
                    data: vec![c.data],
                    old: None,
                }
            })
            .collect();
        Ok((units, None))
    };
    common.execute_moves(ctx, moves, k as u64, 0, detach).await
}

/// Take the columns of a transfer accepted by slave `slave` during step `k`.
fn incorporate(
    slave: usize,
    st: &mut State,
    t: TransferMsg,
    k: usize,
) -> Result<(), ProtocolError> {
    for mu in t.units {
        if mu.id <= k {
            return Err(ProtocolError::Inconsistent {
                detail: format!("slave {slave}: inactive column {} moved", mu.id),
            });
        }
        st.cursor = st.cursor.min(mu.id);
        // The column's progress is the sender's, read off the transfer's
        // own step, not ours: a transfer tagged one step ahead or behind can
        // be accepted at step `k`. A done column is updated through the
        // tagged step; an undone one is exactly one step behind it —
        // per-step settlement guarantees that (which may be -1 at step 0
        // and is not representable in the wire field).
        let ut = t.invocation as i64 - i64::from(!mu.done);
        let prev = st.active.insert(
            mu.id,
            SCol {
                data: column(mu.data),
                updated_through: ut,
            },
        );
        if prev.is_some() {
            return Err(ProtocolError::Inconsistent {
                detail: format!("slave {slave}: column {} duplicated by move", mu.id),
            });
        }
    }
    Ok(())
}

/// Answer slave `from`'s [`Msg::PivotWanted`] for `step`: from the window,
/// or — when column `step` retired here — with the payload rebuilt from
/// it, bit-identical to the broadcast. A miss sends nothing.
async fn answer_pivot(
    ctx: &MailCtx<Msg>,
    common: &SlaveCommon,
    st: &State,
    kernel: &dyn ShrinkingKernel,
    step: usize,
    from: usize,
) {
    let retired = st.retired.iter().find(|(id, _)| *id == step);
    let values = match (st.pivots.get(step), retired) {
        (Some(values), _) => values.clone(),
        (None, Some((_, col))) => kernel.pivot_payload(step, &col[0]),
        (None, None) => return,
    };
    let msg = Msg::Pivot {
        step: step as u64,
        values,
    };
    common.send_slave(ctx, from, msg).await;
}

async fn drain_transfers(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    st: &mut State,
    kernel: &dyn ShrinkingKernel,
    k: usize,
) -> Result<(), ProtocolError> {
    common.drain_control(ctx).await?;
    while let Some(env) = ctx.try_recv_match(|m| matches!(m, Msg::Transfer(_))).await {
        if let Msg::Transfer(t) = env.msg {
            if common.accept_transfer(ctx, &t).await {
                incorporate(common.idx, st, t, k)?;
            }
        }
    }
    // Also bank any pivot broadcasts that raced ahead, or that a peer
    // rolled back before us has re-broadcast.
    while let Some(env) = ctx.try_recv_match(|m| matches!(m, Msg::Pivot { .. })).await {
        if let Msg::Pivot { step, values } = env.msg {
            st.pivots.bank(step as usize, values);
        }
    }
    if common.ft.is_some() {
        // Then answer the peers that asked for one, the asks that queued
        // while this slave was blocked on the same pivot included.
        let wanted = |m: &Msg| matches!(m, Msg::PivotWanted { .. });
        while let Some(env) = ctx.try_recv_match(wanted).await {
            if let Msg::PivotWanted { step, from } = env.msg {
                answer_pivot(ctx, common, st, kernel, step as usize, from).await;
            }
        }
        let shutdown = |m: &Msg| matches!(m, Msg::Abort | Msg::Evict);
        if let Some(env) = ctx.try_recv_match(shutdown).await {
            common.service(ctx, &env.msg).await?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::InteractionMode;
    use crate::msg::Instructions;
    use dlb_sim::{ActorId, CpuWork, NodeConfig, SimBuilder, SimDuration, SimTime};
    use std::sync::Mutex;

    /// Columns of one number; step `k` adds the pivot's to every later one.
    struct Adds(usize);

    impl ShrinkingKernel for Adds {
        fn n_units(&self) -> usize {
            self.0
        }
        fn init_unit(&self, idx: usize) -> Vec<f64> {
            vec![idx as f64 + 1.0]
        }
        fn pivot_payload(&self, _: usize, pivot_col: &[f64]) -> Vec<f64> {
            pivot_col.to_vec()
        }
        fn update(&self, _: usize, col: &mut [f64], pivot: &[f64], _: usize) {
            col[0] += pivot[0];
        }
        fn step_cost(&self, _: usize) -> CpuWork {
            CpuWork::from_micros(100)
        }
    }

    /// A lone slave holding columns `0..n`, nothing computed yet.
    fn lone(n: usize) -> (ShrinkingStrategy, SlaveCommon) {
        let (me, master) = (ActorId(0), ActorId(1));
        let spec = SlaveSpec {
            idx: 0,
            master,
            mode: InteractionMode::Pipelined,
            ft: None,
            takeover: None,
            join_at: None,
        };
        let start = (vec![me], vec![(0, n)], 1);
        let lu = ShrinkingStrategy::new(Arc::new(Adds(n)), &spec, &start);
        let common = SlaveCommon::new(0, master, start.0, spec.mode, None);
        (lu, common)
    }

    fn rollback(invocation: u64, units: SharedUnits) -> RollbackInfo {
        RollbackInfo {
            epoch: 1,
            invocation,
            survivors: vec![0],
            units,
        }
    }

    /// The race behind the rejoin flap: the first survivor to replay the
    /// resumed step broadcasts its pivot while the master is still shipping
    /// the others their `Rollback`, so the pivot is banked *before* the
    /// restore that needs it — and nobody sends it twice.
    #[test]
    fn restore_keeps_the_pivots_banked_at_or_after_the_resumed_step() {
        let (mut lu, mut common) = lone(6);
        lu.st.pivots.begin_step(4);
        // Parked at the barrier of step 4; a peer already rolled back to
        // step 3 re-broadcasts pivot 3, another racing ahead sends 5.
        lu.st.pivots.bank(3, vec![3.0]);
        lu.st.pivots.bank(5, vec![5.0]);
        let units = (0..6).map(|i| (i, Arc::new(vec![vec![0.0]]))).collect();
        assert_eq!(lu.restore(&mut common, rollback(3, units)).unwrap(), 3);
        assert_eq!(lu.st.pivots.get(3), Some(&vec![3.0]));
        assert_eq!(lu.st.pivots.get(5), Some(&vec![5.0]));
        // The replayed step finds its pivot without a receive.
        lu.st.pivots.begin_step(3);
        assert!(lu.st.pivots.get(3).is_some());
    }

    /// A payload for a step already behind the one in progress is a
    /// re-broadcast from a peer rolled back before us: the window must not
    /// prune it before our own rollback arrives.
    #[test]
    fn a_pivot_for_a_step_already_behind_survives_the_window_until_restore() {
        let mut p = Pivots::default();
        for k in 0..6 {
            p.begin_step(k);
            p.bank(k, vec![k as f64]);
        }
        assert_eq!(p.get(2), None, "step 2 left the window at step 4");
        p.bank(2, vec![2.0]);
        for k in 6..9 {
            p.begin_step(k);
            p.bank(k, vec![k as f64]);
            assert_eq!(p.get(2), Some(&vec![2.0]), "held through step {k}");
        }
        p.rewind(2);
        p.begin_step(2);
        assert_eq!(p.get(2), Some(&vec![2.0]), "there for the replay");
        // Ordinary again: it leaves the window like any other.
        p.begin_step(3);
        p.begin_step(4);
        assert_eq!(p.get(2), None);
        assert!(p.held.is_empty());
    }

    /// A peer's `PivotWanted` is answered from the window, or with the
    /// payload rebuilt from the retired column; a miss sends nothing.
    #[test]
    fn a_wanted_pivot_is_answered_from_the_window_or_a_retired_column() {
        let heard = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&heard);
        let mut sim = SimBuilder::<Msg>::new();
        let nodes = [(); 2].map(|()| sim.add_node(NodeConfig::default()));
        sim.spawn_mail(nodes[0], "slave0", move |ctx| async move {
            let (mut lu, mut common) = lone(6);
            common.slaves.push(ActorId(1));
            // Column 1 retired here; step 3 is in progress, its pivot in
            // the window; step 2's is nowhere.
            lu.st.retired.push((1, Arc::new(vec![vec![7.0]])));
            lu.st.pivots.begin_step(3);
            lu.st.pivots.bank(3, vec![3.0]);
            for step in [3, 1, 2] {
                let ask = Msg::PivotWanted { step, from: 1 };
                let took = lu.on_barrier_msg(&ctx, &mut common, 3, ask).await;
                assert!(matches!(took, Ok(BarrierMsg::Consumed)));
            }
        });
        sim.spawn_mail(nodes[1], "asker", move |ctx| async move {
            while let Some(env) = ctx.recv_deadline(dlb_sim::SimTime(1_000_000)).await {
                sink.lock().unwrap().push(env.msg);
            }
        });
        sim.run();
        let answers: Vec<(u64, Vec<f64>)> = heard
            .lock()
            .unwrap()
            .drain(..)
            .map(|m| match m {
                Msg::Pivot { step, values } => (step, values),
                m => panic!("{m:?}"),
            })
            .collect();
        assert_eq!(answers, [(3, vec![3.0]), (1, vec![7.0])]);
    }

    /// Run a lone slave through every step of an `n`-column problem inside
    /// a simulation (an inert master swallows its statuses) and return the
    /// barrier snapshot after each step, with the window's size at the time.
    fn snapshots_of_a_lone_run(n: usize) -> Vec<(SharedUnits, usize)> {
        let taken = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&taken);
        let mut sim = SimBuilder::<Msg>::new();
        let nodes = [(); 2].map(|()| sim.add_node(NodeConfig::default()));
        sim.spawn_mail(nodes[0], "slave0", move |ctx| async move {
            let (mut lu, mut common) = lone(n);
            for k in 0..lu.invocations() {
                lu.run_invocation(&ctx, &mut common, k).await.unwrap();
                let window = lu.st.pivots.banked.len();
                sink.lock().unwrap().push((lu.checkpoint_units(), window));
            }
        });
        sim.spawn_mail(nodes[1], "master", |ctx| async move {
            while ctx
                .recv_deadline(dlb_sim::SimTime(10_000_000))
                .await
                .is_some()
            {}
        });
        sim.run();
        let taken = taken.lock().unwrap();
        taken.clone()
    }

    #[test]
    fn the_pivot_window_holds_a_constant_number_of_payloads() {
        let steps = snapshots_of_a_lone_run(40);
        assert_eq!(steps.len(), 39);
        let widest = steps.iter().map(|(_, window)| *window).max();
        assert_eq!(widest, Some(2), "steps k - 1 and k, not all 39");
    }

    /// A retired column is final: the snapshot after it retires and every
    /// later one hold the same allocation, as does a restore of it. Active
    /// columns change every step and are copied.
    #[test]
    fn a_retired_column_is_one_allocation_across_snapshots_and_restore() {
        let steps = snapshots_of_a_lone_run(5);
        let unit = |step: usize, id: usize| {
            let (units, _) = &steps[step];
            &units.iter().find(|(i, _)| *i == id).expect("every id").1
        };
        // Column 0 retired in step 0, column 1 in step 1.
        assert!(Arc::ptr_eq(unit(0, 0), unit(1, 0)) && Arc::ptr_eq(unit(1, 0), unit(3, 0)));
        assert!(Arc::ptr_eq(unit(1, 1), unit(3, 1)));
        assert!(
            !Arc::ptr_eq(unit(0, 1), unit(1, 1)),
            "still active at step 0"
        );
        assert!(!Arc::ptr_eq(unit(1, 4), unit(2, 4)), "active throughout");
        // The values are the dataflow's: columns 1..=5, each step adding
        // the finished pivot (1, 3, 7, 15) to every later column.
        assert_eq!(**unit(3, 1), vec![vec![2.0 + 1.0]]);
        assert_eq!(**unit(3, 4), vec![vec![5.0 + 1.0 + 3.0 + 7.0 + 15.0]]);

        // Rolling back onto that snapshot at step 2 adopts columns 0 and 1
        // as they are; the next checkpoint hands out the same two again.
        let (mut lu, mut common) = lone(5);
        let (snapshot, _) = &steps[1];
        lu.restore(&mut common, rollback(2, snapshot.clone()))
            .unwrap();
        let again = lu.checkpoint_units();
        assert!(Arc::ptr_eq(&again[0].1, unit(1, 0)) && Arc::ptr_eq(&again[1].1, unit(1, 1)));
        assert!(!Arc::ptr_eq(&again[2].1, unit(1, 2)));
        assert_eq!(lu.report().0, [0, 1, 2, 3, 4]);
    }

    fn moved(id: usize, done: bool, k: usize) -> MovedUnit {
        MovedUnit {
            id,
            done,
            updated_through: k as u64,
            data: vec![vec![0.0]],
            old: None,
        }
    }

    /// The step loop's choice is "lowest active id not yet through step k"
    /// whatever the cursor has passed: a column that arrives mid-step below
    /// it is updated in the same step, before the higher ids still waiting.
    #[test]
    fn transfer_below_the_cursor_is_updated_in_the_same_step_in_id_order() {
        let k = 1;
        let behind = |id| {
            let col = SCol {
                data: vec![0.0],
                updated_through: k as i64 - 1,
            };
            (id, col)
        };
        let mut st = State {
            active: [2, 3, 6, 8].map(behind).into(),
            retired: Vec::new(),
            pivots: Pivots::default(),
            cursor: 0,
        };
        let mut order = Vec::new();
        let mut update_next = |st: &mut State| {
            let j = st.next_behind(k)?;
            st.active.get_mut(&j).expect("picked id").updated_through = k as i64;
            order.push(j);
            Some(j)
        };
        for want in [2, 3, 6] {
            assert_eq!(update_next(&mut st), Some(want));
        }
        // Arrives with the cursor at 6: 4 and 5 one step behind, 9 already
        // through step k, 10 behind.
        let t = TransferMsg {
            from: 1,
            seq: 0,
            epoch: 0,
            invocation: k as u64,
            effective_block: 0,
            units: vec![
                moved(5, false, k),
                moved(4, false, k),
                moved(9, true, k),
                moved(10, false, k),
            ],
            right_old: None,
        };
        incorporate(0, &mut st, t, k).unwrap();
        while update_next(&mut st).is_some() {}
        assert_eq!(order, [2, 3, 6, 4, 5, 8, 10]);
        assert!(st.active.values().all(|c| c.updated_through == k as i64));
    }

    /// A column accepted where no hook fires is still brought through the
    /// step it arrives in, before that step's `fire`: the step's last look
    /// takes it. Every hook of step 0 skips here, and column 1 — step 1's
    /// pivot column — lands from a peer mid-step, one step behind. Taken
    /// only by the drain before `fire`, it would be missing from step 0's
    /// status and start step 1 un-updated (`Inconsistent`).
    #[test]
    fn a_column_accepted_between_fired_hooks_is_updated_before_the_fire() {
        let n = 12;
        let (me, peer, master) = (ActorId(0), ActorId(1), ActorId(2));
        let done = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&done);
        let mut sim = SimBuilder::<Msg>::new();
        let nodes = [(); 3].map(|()| sim.add_node(NodeConfig::default()));
        sim.spawn_mail(nodes[0], "slave0", move |ctx| async move {
            let spec = SlaveSpec {
                idx: 0,
                master,
                mode: InteractionMode::Pipelined,
                ft: None,
                takeover: None,
                join_at: None,
            };
            let start = (vec![me, peer], vec![(0, n), (n, n)], 1);
            let mut lu = ShrinkingStrategy::new(Arc::new(Adds(n)), &spec, &start);
            let mut common = SlaveCommon::new(0, master, start.0, spec.mode, None);
            lu.st.active.remove(&1);
            let skip_all = Instructions {
                seq: 1,
                epoch: 0,
                moves: Vec::new(),
                hooks_to_skip: u64::MAX,
            };
            assert!(common.instructions_out_of_band(skip_all).is_empty());
            for k in 0..2 {
                lu.run_invocation(&ctx, &mut common, k).await.unwrap();
            }
            assert_eq!(lu.st.active[&2].data, [3.0 + 1.0 + 3.0]);
        });
        sim.spawn_mail(nodes[1], "peer", move |ctx| async move {
            // Lands a few columns into step 0's eleven 100 µs updates.
            ctx.sleep(SimDuration::from_micros(300)).await;
            let t = Msg::Transfer(TransferMsg {
                from: 1,
                seq: 1,
                epoch: 0,
                invocation: 0,
                effective_block: 0,
                units: vec![MovedUnit {
                    data: vec![vec![2.0]],
                    ..moved(1, false, 0)
                }],
                right_old: None,
            });
            let bytes = t.wire_bytes();
            ctx.send(me, t, bytes).await;
            while ctx.recv_deadline(SimTime(1_000_000)).await.is_some() {}
        });
        sim.spawn_mail(nodes[2], "master", move |ctx| async move {
            while let Some(env) = ctx.recv_deadline(SimTime(1_000_000)).await {
                if let Msg::Status(s) = env.msg {
                    sink.lock()
                        .unwrap()
                        .push((s.invocation, s.units_done_delta));
                }
            }
        });
        sim.run();
        // Columns 1..12 through step 0, then 2..12 through step 1.
        assert_eq!(*done.lock().unwrap(), [(0, 11), (1, 10)]);
    }

    /// A column's progress is read off the transfer's own step: accepted
    /// at step `k` from a sender at `tagged`, a done column is through
    /// `tagged` and an undone one through `tagged - 1`.
    fn progress_after(tagged: u64, k: usize) -> Vec<(usize, i64)> {
        let mut st = State {
            active: BTreeMap::new(),
            retired: Vec::new(),
            pivots: Pivots::default(),
            cursor: 0,
        };
        let t = TransferMsg {
            from: 1,
            seq: 0,
            epoch: 0,
            invocation: tagged,
            effective_block: 0,
            units: vec![
                moved(6, true, tagged as usize),
                moved(7, false, tagged as usize),
            ],
            right_old: None,
        };
        incorporate(0, &mut st, t, k).unwrap();
        st.active
            .iter()
            .map(|(&id, c)| (id, c.updated_through))
            .collect()
    }

    /// One step ahead: the done column already holds step `k + 1`'s update
    /// and must not be given it again; the undone one is through `k`.
    #[test]
    fn transfer_from_one_step_ahead_keeps_the_senders_progress() {
        let k = 3;
        assert_eq!(progress_after(k as u64 + 1, k), [(6, 4), (7, 3)]);
    }

    /// One step behind: the done column still needs step `k`, the undone
    /// one steps `k - 1` and `k`.
    #[test]
    fn transfer_from_one_step_behind_keeps_the_senders_progress() {
        let k = 3;
        assert_eq!(progress_after(k as u64 - 1, k), [(6, 2), (7, 1)]);
    }
}
