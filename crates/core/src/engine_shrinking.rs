//! Distribution strategy for shrinking distributed loops (LU-shaped
//! programs, §4.7).
//!
//! At step `k` the owner of column `k` finalizes it, broadcasts its pivot
//! payload to every other slave, and retires it — data slices with no
//! future work become *inactive* and are never moved by the balancer. All
//! slaves then update their active columns (`j > k`). Work movement is
//! direct (no carried dependences) and only ships active columns; a column
//! arriving one step behind is caught up with the retained pivot history.
//!
//! The slave's life cycle (first release, barrier, checkpoint cadence,
//! rollback, snapshot speculation, rescue, gather, election and rejoin)
//! lives in [`crate::session::slave`]; this module supplies the shrinking
//! [`DistributionStrategy`]: the pivot/update step body, active/retired
//! bookkeeping on rollback, and the sequential one-step snapshot advance
//! used to race a silent suspect. Pivot payloads
//! are pure functions of step-start state, so pivot broadcasts surviving
//! from before a rollback are bit-identical to their replayed versions;
//! transfers and balancing instructions are epoch-fenced.

use crate::error::ProtocolError;
use crate::kernels::ShrinkingKernel;
use crate::msg::{column, Edge, MoveOrder, MovedUnit, Msg, SharedUnits, TransferMsg, UnitData};
use crate::session::slave::SlaveSpec;
use crate::session::strategy::{BarrierMsg, DistributionStrategy};
use crate::slave_common::{RollbackInfo, SlaveCommon, StartInfo};
use dlb_sim::MailCtx;
use std::collections::BTreeMap;
use std::sync::Arc;

struct SCol {
    data: Vec<f64>,
    /// Highest step whose update has been applied (-1 = none).
    updated_through: i64,
}

struct State {
    active: BTreeMap<usize, SCol>,
    retired: Vec<(usize, Vec<f64>)>,
    pivots: Vec<Option<Vec<f64>>>,
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

    /// Every column held here, retired ones first.
    fn snapshot(&self) -> Vec<(usize, UnitData)> {
        let retired = self.retired.iter().map(|(id, d)| (*id, vec![d.clone()]));
        let active = self
            .active
            .iter()
            .map(|(&id, c)| (id, vec![c.data.clone()]));
        retired.chain(active).collect()
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
            pivots: vec![None; kernel.n_units()],
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

    fn recoverable(&self, e: &ProtocolError) -> bool {
        matches!(
            e,
            ProtocolError::Timeout { .. }
                | ProtocolError::MissingPivot { .. }
                | ProtocolError::Inconsistent { .. }
                | ProtocolError::UnexpectedMessage { .. }
        )
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
        inv: Option<u64>,
        msg: Msg,
    ) -> Result<BarrierMsg, ProtocolError> {
        let st = &mut self.st;
        let kernel = &*self.kernel;
        match (inv, msg) {
            (Some(inv), Msg::Transfer(t)) => {
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
            (Some(inv), Msg::Instructions(instr)) => {
                // Barrier-time moves keep the next step balanced.
                let moves = common.instructions_out_of_band(instr);
                if moves.is_empty() {
                    return Ok(BarrierMsg::Consumed);
                }
                execute_moves(ctx, common, st, inv as usize, moves).await?;
            }
            (Some(_), Msg::Pivot { step, values }) => {
                // A pivot broadcast racing ahead of the release; bank it
                // (idempotent — pivot payloads are value-deterministic).
                st.pivots[step as usize] = Some(values);
                return Ok(BarrierMsg::Consumed);
            }
            (_, other) => return Ok(BarrierMsg::Pass(other)),
        }
        Ok(BarrierMsg::Refresh)
    }

    fn report(&self) -> (Vec<usize>, f64) {
        let mut owned: Vec<usize> = self.st.retired.iter().map(|(id, _)| *id).collect();
        owned.extend(self.st.active.keys().copied());
        (owned, 0.0)
    }

    fn checkpoint_units(&self) -> SharedUnits {
        let shared = |(id, d)| (id, Arc::new(d));
        self.st.snapshot().into_iter().map(shared).collect()
    }

    fn gather_units(&self) -> Result<Vec<(usize, UnitData)>, ProtocolError> {
        Ok(self.st.snapshot())
    }

    /// Ids below the resumed step are retired (their data is final), the
    /// rest are active and updated through the previous step.
    fn restore(
        &mut self,
        _common: &mut SlaveCommon,
        rb: RollbackInfo,
    ) -> Result<u64, ProtocolError> {
        let st = &mut self.st;
        let n = self.kernel.n_units();
        let k = rb.invocation;
        st.active.clear();
        st.retired.clear();
        st.pivots = vec![None; n];
        st.cursor = 0;
        for (id, d) in rb.units {
            let data = column(Arc::unwrap_or_clone(d));
            if (id as u64) < k {
                st.retired.push((id, data));
            } else {
                st.active.insert(
                    id,
                    SCol {
                        data,
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
        _seq: u64,
        invocation: u64,
        units: SharedUnits,
    ) -> Result<Option<SharedUnits>, ProtocolError> {
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
        Ok(Some(
            cols.into_iter()
                .map(|(id, d)| (id, Arc::new(vec![d])))
                .collect(),
        ))
    }
}

async fn step(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    st: &mut State,
    kernel: &dyn ShrinkingKernel,
    k: usize,
) -> Result<(), ProtocolError> {
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
        st.pivots[k] = Some(payload);
        st.retired.push((k, col.data));
    } else if st.pivots[k].is_none() {
        let want = k as u64;
        let env = common
            .recv_blocking(
                ctx,
                |m| matches!(m, Msg::Pivot { step, .. } if *step == want),
                "pivot broadcast",
            )
            .await?;
        if let Msg::Pivot { values, .. } = env.msg {
            st.pivots[k] = Some(values);
        }
    }

    // Update phase: bring every active column through step k, lowest id
    // first, hooking after each column update.
    st.cursor = 0;
    loop {
        drain_transfers(ctx, common, st, kernel, k).await?;
        let Some(j) = st.next_behind(k) else { break };
        update_column(ctx, common, st, kernel, j, k).await?;
        let active = st.active.len() as u64;
        let moves = common.hook(ctx, k as u64, active).await?;
        execute_moves(ctx, common, st, k, moves).await?;
    }
    Ok(())
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
        let Some(pivot) = st.pivots[kk].as_ref() else {
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
        // `updated_through` is only meaningful when the column is done for
        // the tagged step (it is >= k >= 0). An undone column is exactly one
        // step behind — per-step settlement guarantees it was updated
        // through k-1 (which may be -1 at step 0 and is not representable
        // in the wire field).
        let ut = if mu.done {
            (mu.updated_through as i64).min(k as i64)
        } else {
            k as i64 - 1
        };
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

async fn drain_transfers(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    st: &mut State,
    kernel: &dyn ShrinkingKernel,
    k: usize,
) -> Result<(), ProtocolError> {
    let _ = kernel;
    common.drain_control(ctx).await?;
    while let Some(env) = ctx.try_recv_match(|m| matches!(m, Msg::Transfer(_))).await {
        if let Msg::Transfer(t) = env.msg {
            if common.accept_transfer(ctx, &t).await {
                incorporate(common.idx, st, t, k)?;
            }
        }
    }
    // Also bank any pivot broadcasts that raced ahead (idempotent under
    // duplicated deliveries; pivot payloads are value-deterministic, so
    // even pre-rollback stragglers are safe to bank).
    while let Some(env) = ctx.try_recv_match(|m| matches!(m, Msg::Pivot { .. })).await {
        if let Msg::Pivot { step, values } = env.msg {
            st.pivots[step as usize] = Some(values);
        }
    }
    if common.ft.is_some() {
        if let Some(env) = ctx
            .try_recv_match(|m| matches!(m, Msg::Abort | Msg::Evict))
            .await
        {
            return match env.msg {
                Msg::Abort => Err(ProtocolError::Aborted),
                _ => Err(ProtocolError::Evicted { slave: common.idx }),
            };
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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
            pivots: Vec::new(),
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
}
