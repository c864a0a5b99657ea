//! Distribution strategy for pipelined distributed loops (SOR-shaped
//! programs).
//!
//! Columns are block-distributed; each sweep updates all interior rows in
//! strip-mined blocks (§4.4). Within a block the slave computes its columns
//! left-to-right; the left halo of its first column arrives from the left
//! neighbour as a [`Msg::Boundary`] tagged `(sweep, block, column-id)`, the
//! right halo of its last column is the right neighbour's previous-sweep
//! first column (exchanged once per sweep as [`Msg::SweepOld`], §2.1's
//! "communication outside the loop").
//!
//! Work movement is adjacent-only and mid-sweep (§4.5): columns received
//! from the **left** are one or more pipeline phases *ahead* and are set
//! aside until the local phase catches up; columns received from the
//! **right** are *behind* and are caught up on arrival, using the
//! sweep-start snapshots carried in the transfer as their right halos. The
//! result is bit-identical to sequential execution no matter when moves
//! happen — the property tests in `tests/` rely on that.
//!
//! The slave's life cycle (first release, barrier, barrier checkpoints,
//! rollback, snapshot speculation, rescue, gather, election and rejoin)
//! lives in [`crate::session::slave`]; this module supplies the pipelined
//! [`DistributionStrategy`]: the sweep body, set-aside/catch-up transfer
//! integration, neighbour derivation on rollback, and the sequential
//! one-sweep snapshot advance used to race a silent suspect. Boundary and
//! sweep-old values are pure functions of sweep-start state, so messages
//! surviving from before a rollback are bit-identical to their replayed
//! versions and need no fencing; transfers and balancing instructions are
//! epoch-fenced.

use crate::error::ProtocolError;
use crate::kernels::PipelinedKernel;
use crate::msg::{column, Edge, MoveOrder, MovedUnit, Msg, SharedUnits, TransferMsg, UnitData};
use crate::session::slave::SlaveSpec;
use crate::session::strategy::{BarrierMsg, DistributionStrategy};
use crate::slave_common::{RollbackInfo, SlaveCommon, StartInfo, Wait};
use dlb_sim::MailCtx;
use std::ops::Range;
use std::sync::Arc;

/// One local column and its pipeline state.
struct PCol {
    /// Unit id (interior column index; global column id + 1).
    id: usize,
    data: Vec<f64>,
    /// Sweep-start snapshot (right halo for the column to the left).
    old: Vec<f64>,
    /// Blocks completed this sweep.
    phase: u64,
}

struct State {
    idx: usize,
    cols: Vec<PCol>,
    /// Transfers from the left whose effective phase is still ahead of us:
    /// `(effective_block, columns)`, incorporated when we reach that phase.
    set_aside: Vec<(u64, Vec<PCol>)>,
    /// Previous-sweep values of the column right of our last column.
    right_old: Vec<f64>,
    left_wall: Vec<f64>,
    right_wall: Vec<f64>,
    block_rows: u64,
    nblocks: u64,
    col_len: usize,
    /// Scratch full-length buffer holding the received left halo.
    left_halo: Vec<f64>,
    sweep: u64,
    /// Pipeline neighbours: the adjacent *live* slaves (by slave index),
    /// derived from the survivor list at start-up and on every rollback.
    left: Option<usize>,
    right: Option<usize>,
}

impl State {
    fn interior_rows(&self) -> usize {
        self.col_len - 2
    }

    fn rows_of_block(&self, b: u64) -> Range<usize> {
        let start = 1 + (b * self.block_rows) as usize;
        let end = (start + self.block_rows as usize).min(1 + self.interior_rows());
        start..end
    }

    fn first_id(&self) -> usize {
        self.cols.first().expect("nonempty").id
    }

    fn last_id(&self) -> usize {
        self.cols.last().expect("nonempty").id
    }

    fn active_units(&self) -> u64 {
        (self.cols.len() + self.set_aside.iter().map(|(_, v)| v.len()).sum::<usize>()) as u64
    }

    fn check_contiguous(&self) -> Result<(), ProtocolError> {
        for w in self.cols.windows(2) {
            if w[0].id + 1 != w[1].id {
                return Err(ProtocolError::Inconsistent {
                    detail: format!(
                        "slave {}: column block not contiguous ({} then {})",
                        self.idx, w[0].id, w[1].id
                    ),
                });
            }
        }
        Ok(())
    }

    fn snapshot(&self) -> Vec<(usize, UnitData)> {
        self.cols
            .iter()
            .map(|c| (c.id, vec![c.data.clone()]))
            .collect()
    }

    fn inconsistent(&self, detail: String) -> ProtocolError {
        ProtocolError::Inconsistent {
            detail: format!("slave {}: {detail}", self.idx),
        }
    }
}

/// The pipelined distribution pattern plugged into the slave runner.
pub struct PipelinedStrategy {
    st: State,
    kernel: Arc<dyn PipelinedKernel>,
}

impl PipelinedStrategy {
    /// The strategy for the block of columns the `Start` message assigns to
    /// `spec.idx`; only a latecomer may start with none.
    pub fn new(
        kernel: Arc<dyn PipelinedKernel>,
        spec: &SlaveSpec,
        (_, assignment, block_rows): &StartInfo,
    ) -> Result<PipelinedStrategy, ProtocolError> {
        // Pipeline neighbours skip deferred (latecomer) slots — an empty
        // range marks a slave that is not part of the pool yet.
        let live: Vec<usize> = assignment
            .iter()
            .enumerate()
            .filter(|(_, r)| r.0 < r.1)
            .map(|(i, _)| i)
            .collect();
        let pos = live.iter().position(|&s| s == spec.idx);
        let range = assignment[spec.idx];
        let col_len = kernel.col_len();
        let interior = (col_len - 2) as u64;
        let block_rows = (*block_rows).max(1);
        let st = State {
            idx: spec.idx,
            cols: (range.0..range.1)
                .map(|i| PCol {
                    id: i,
                    data: kernel.init_unit(i),
                    old: Vec::new(),
                    phase: 0,
                })
                .collect(),
            set_aside: Vec::new(),
            right_old: Vec::new(),
            left_wall: kernel.left_wall(),
            right_wall: kernel.right_wall(),
            block_rows,
            nblocks: interior.div_ceil(block_rows),
            col_len,
            left_halo: vec![0.0; col_len],
            sweep: 0,
            left: pos.and_then(|p| p.checked_sub(1)).map(|p| live[p]),
            right: pos.and_then(|p| live.get(p + 1).copied()),
        };
        if st.cols.is_empty() && spec.join_at.is_none() {
            return Err(st.inconsistent("started with zero columns".into()));
        }
        Ok(PipelinedStrategy { st, kernel })
    }
}

impl DistributionStrategy for PipelinedStrategy {
    fn invocations(&self) -> u64 {
        self.kernel.sweeps()
    }

    fn first_release_context(&self) -> &'static str {
        "first sweep start"
    }

    fn barrier_context(&self) -> &'static str {
        "sweep barrier"
    }

    async fn run_invocation(
        &mut self,
        ctx: &MailCtx<Msg>,
        common: &mut SlaveCommon,
        inv: u64,
    ) -> Result<(), ProtocolError> {
        let st = &mut self.st;
        st.sweep = inv;
        sweep_body(ctx, common, st, &*self.kernel).await?;
        // Sweep complete: absorb queued transfers (their catch-up work
        // counts toward this sweep), then flush status and execute any
        // sweep-end moves.
        let nblocks = st.nblocks;
        drain_transfers(ctx, common, st, &*self.kernel, nblocks).await?;
        let moves = common.fire(ctx, inv, st.active_units()).await?;
        execute_moves(ctx, common, st, moves, nblocks).await?;
        purge_stale(ctx, inv).await;
        Ok(())
    }

    async fn on_barrier_msg(
        &mut self,
        ctx: &MailCtx<Msg>,
        common: &mut SlaveCommon,
        inv: u64,
        msg: Msg,
    ) -> Result<BarrierMsg, ProtocolError> {
        let st = &mut self.st;
        let nblocks = st.nblocks;
        match msg {
            Msg::Transfer(t) => {
                // Catch-up work done while incorporating counts toward this
                // sweep: flush it, and execute any movement the reply orders.
                accept_transfer(ctx, common, st, &*self.kernel, t, nblocks).await?;
                let moves = common.fire(ctx, inv, st.active_units()).await?;
                execute_moves(ctx, common, st, moves, nblocks).await?;
            }
            Msg::Instructions(instr) => {
                // Barrier-time moves keep the next sweep balanced.
                let moves = common.instructions_out_of_band(instr);
                if moves.is_empty() {
                    return Ok(BarrierMsg::Consumed);
                }
                execute_moves(ctx, common, st, moves, nblocks).await?;
            }
            other => return Ok(BarrierMsg::Pass(other)),
        }
        Ok(BarrierMsg::Refresh)
    }

    fn report(&self) -> (Vec<usize>, f64) {
        (self.st.cols.iter().map(|c| c.id).collect(), 0.0)
    }

    fn checkpoint_units(&self) -> SharedUnits {
        let shared = |(id, d)| (id, Arc::new(d));
        self.st.snapshot().into_iter().map(shared).collect()
    }

    fn gather_units(&self) -> Result<Vec<(usize, UnitData)>, ProtocolError> {
        if !self.st.set_aside.is_empty() {
            return Err(self.st.inconsistent("set-aside columns at gather".into()));
        }
        Ok(self.st.snapshot())
    }

    /// Discard all engine state, install the re-partitioned columns, derive
    /// neighbours from the survivor list.
    fn restore(
        &mut self,
        common: &mut SlaveCommon,
        rb: RollbackInfo,
    ) -> Result<u64, ProtocolError> {
        let st = &mut self.st;
        let pos = rb
            .survivors
            .iter()
            .position(|&s| s == common.idx)
            .ok_or(ProtocolError::Evicted { slave: common.idx })?;
        st.left = pos.checked_sub(1).map(|p| rb.survivors[p]);
        st.right = rb.survivors.get(pos + 1).copied();
        let mut units = rb.units;
        units.sort_by_key(|(id, _)| *id);
        st.cols = units
            .into_iter()
            .map(|(id, d)| PCol {
                id,
                data: column(Arc::unwrap_or_clone(d)),
                old: Vec::new(),
                phase: 0,
            })
            .collect();
        if st.cols.is_empty() {
            return Err(st.inconsistent("rolled back to zero columns".into()));
        }
        st.check_contiguous()?;
        st.set_aside.clear();
        st.right_old = Vec::new();
        st.sweep = rb.invocation;
        Ok(rb.invocation)
    }

    /// Run sweep `invocation` over the whole banked grid, sequentially and
    /// without any communication: the left halo of the global first column
    /// is the wall, every other left halo is the *new* value of the column
    /// to the left (already updated this sweep), and every right halo is
    /// the sweep-start snapshot — exactly the distributed dataflow, so the
    /// speculative state is bit-identical to what the suspect would have
    /// produced.
    async fn speculate(
        &mut self,
        ctx: &MailCtx<Msg>,
        _common: &mut SlaveCommon,
        _inv: u64,
        _invocation: u64,
        units: SharedUnits,
    ) -> Result<SharedUnits, ProtocolError> {
        let st = &self.st;
        let kernel = &*self.kernel;
        let mut cols: Vec<(usize, Vec<f64>)> = units
            .into_iter()
            .map(|(id, d)| (id, column(Arc::unwrap_or_clone(d))))
            .collect();
        cols.sort_by_key(|(id, _)| *id);
        let olds: Vec<Vec<f64>> = cols.iter().map(|(_, d)| d.clone()).collect();
        for b in 0..st.nblocks {
            let rows = st.rows_of_block(b);
            let cost = kernel.elem_cost() * rows.len() as u64;
            for j in 0..cols.len() {
                ctx.advance_work(cost).await;
                let (left_part, rest) = cols.split_at_mut(j);
                let (me, _) = rest.split_first_mut().expect("j in range");
                let left: &[f64] = match left_part.last() {
                    Some((_, l)) => l,
                    None => &st.left_wall,
                };
                let right: &[f64] = match olds.get(j + 1) {
                    Some(o) => o,
                    None => &st.right_wall,
                };
                kernel.compute_block(&mut me.1, left, right, rows.clone());
            }
        }
        Ok(cols
            .into_iter()
            .map(|(id, d)| (id, Arc::new(vec![d])))
            .collect())
    }
}

async fn send_boundary(ctx: &MailCtx<Msg>, common: &SlaveCommon, st: &State, b: u64) {
    let Some(right) = st.right else {
        return;
    };
    let last = st.cols.last().expect("nonempty");
    let rows = st.rows_of_block(b);
    let msg = Msg::Boundary {
        sweep: st.sweep,
        block: b,
        col: last.id,
        values: last.data[rows].to_vec(),
    };
    common.send_slave(ctx, right, msg).await;
}

/// Fetch the left halo for block `b` into `st.left_halo`.
///
/// The wait must also service incoming [`Msg::Transfer`]s: if the left
/// neighbour has just shipped us its boundary columns (effective at this
/// very block), the halo we were waiting for *is inside the transfer* —
/// the columns become local, our first column changes, and we start
/// waiting for the neighbour's new last column instead. Blocking on the
/// boundary alone would deadlock with the transfer sitting in our own
/// mailbox.
async fn fetch_left_halo(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    st: &mut State,
    kernel: &dyn PipelinedKernel,
    b: u64,
) -> Result<(), ProtocolError> {
    loop {
        if st.left.is_none() {
            st.left_halo.copy_from_slice(&st.left_wall);
            return Ok(());
        }
        let want_col = st.first_id() - 1;
        let want_sweep = st.sweep;
        let env = common
            .recv_blocking(
                ctx,
                |m| {
                    matches!(m, Msg::Boundary { sweep, block, col, .. }
                    if *sweep == want_sweep && *block == b && *col == want_col)
                        || matches!(m, Msg::Transfer(_))
                },
                Wait::on_peer("left halo boundary", ctx.now()),
            )
            .await?;
        match env.msg {
            Msg::Boundary { values, .. } => {
                let rows = st.rows_of_block(b);
                if values.len() != rows.len() {
                    return Err(st.inconsistent(format!(
                        "boundary segment length {} != block height {}",
                        values.len(),
                        rows.len()
                    )));
                }
                st.left_halo[rows].copy_from_slice(&values);
                return Ok(());
            }
            Msg::Transfer(t) => {
                // We have completed `b` blocks at this point; a transfer
                // effective exactly here merges immediately and changes the
                // wanted halo column.
                accept_transfer(ctx, common, st, kernel, t, b).await?;
                incorporate_set_asides(st, b)?;
            }
            _ => unreachable!(),
        }
    }
}

/// Compute block `b` for columns `lo..` of `st.cols` (normally all of
/// them; catch-up uses a sub-range starting at the appended columns).
async fn compute_block_cols(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    st: &mut State,
    kernel: &dyn PipelinedKernel,
    b: u64,
    from_ci: usize,
    right_old_override: Option<&[f64]>,
) {
    let rows = st.rows_of_block(b);
    let cost = kernel.elem_cost() * rows.len() as u64;
    for ci in from_ci..st.cols.len() {
        common.compute(ctx, cost).await;
        let (left_part, rest) = st.cols.split_at_mut(ci);
        let (me, right_part) = rest.split_first_mut().expect("ci in range");
        let left: &[f64] = match left_part.last() {
            Some(l) => &l.data,
            None => &st.left_halo,
        };
        let right: &[f64] = match right_part.first() {
            Some(r) => &r.old,
            None => right_old_override.unwrap_or(if st.right_old.is_empty() {
                &st.right_wall
            } else {
                &st.right_old
            }),
        };
        kernel.compute_block(&mut me.data, left, right, rows.clone());
        me.phase = b + 1;
        // Work is counted in column-rows: blocks can have unequal heights
        // (the last block is a remainder), and uniform per-block counting
        // would skew sweep-end rate samples.
        common.record_done(rows.len() as u64);
    }
}

async fn sweep_body(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    st: &mut State,
    kernel: &dyn PipelinedKernel,
) -> Result<(), ProtocolError> {
    // Sweep start: snapshot old values, exchange halo columns (§2.1's
    // communication outside the distributed loop).
    for c in &mut st.cols {
        c.old = c.data.clone();
        c.phase = 0;
    }
    if let Some(left) = st.left {
        let msg = Msg::SweepOld {
            sweep: st.sweep,
            col: st.cols[0].id,
            values: st.cols[0].old.clone(),
        };
        common.send_slave(ctx, left, msg).await;
    }
    st.right_old = if st.right.is_none() {
        st.right_wall.clone()
    } else {
        let want = st.sweep;
        let want_col = st.last_id() + 1;
        let env = common.recv_blocking(
            ctx,
            |m| matches!(m, Msg::SweepOld { sweep, col, .. } if *sweep == want && *col == want_col),
            Wait::on_peer("right neighbour sweep-old column", ctx.now()),
        ).await?;
        match env.msg {
            Msg::SweepOld { values, .. } => values,
            _ => unreachable!(),
        }
    };

    for b in 0..st.nblocks {
        incorporate_set_asides(st, b)?;
        fetch_left_halo(ctx, common, st, kernel, b).await?;
        compute_block_cols(ctx, common, st, kernel, b, 0, None).await;
        send_boundary(ctx, common, st, b).await;
        let moves = common.hook(ctx, st.sweep, st.active_units()).await?;
        execute_moves(ctx, common, st, moves, b + 1).await?;
        drain_transfers(ctx, common, st, kernel, b + 1).await?;
    }
    incorporate_set_asides(st, st.nblocks)?;
    st.check_contiguous()
}

/// Prepend set-aside columns whose effective phase equals `phase`.
fn incorporate_set_asides(st: &mut State, phase: u64) -> Result<(), ProtocolError> {
    let mut i = 0;
    while i < st.set_aside.len() {
        if st.set_aside[i].0 == phase {
            let (_, mut cols) = st.set_aside.remove(i);
            let last = cols.last().expect("nonempty transfer");
            if last.id + 1 != st.first_id() {
                return Err(st.inconsistent(format!(
                    "set-aside columns ending at {} do not abut block starting at {}",
                    last.id,
                    st.first_id()
                )));
            }
            if let Some(c) = cols.iter().find(|c| c.phase != phase) {
                return Err(st.inconsistent(format!(
                    "set-aside column {} at phase {} incorporated at phase {phase}",
                    c.id, c.phase
                )));
            }
            cols.append(&mut st.cols);
            st.cols = cols;
        } else {
            i += 1;
        }
    }
    Ok(())
}

async fn execute_moves(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    st: &mut State,
    moves: Vec<MoveOrder>,
    phase: u64,
) -> Result<(), ProtocolError> {
    let (me, sweep) = (common.idx, st.sweep);
    let detach = |order: &MoveOrder| {
        let is_right = st.right == Some(order.to);
        let is_left = st.left == Some(order.to);
        if !is_right && !is_left {
            return Err(st.inconsistent(format!(
                "pipelined movement must target a pipeline neighbour (got {me} -> {})",
                order.to
            )));
        }
        // Columns still set aside cannot be re-moved, and while any are
        // pending our low edge is not the true boundary — shipping resident
        // low columns would leave a gap below them. Skip such orders (an
        // empty transfer keeps the accounting settled; the master will
        // re-plan).
        let take = if order.edge == Edge::Low && !st.set_aside.is_empty() {
            0
        } else {
            (order.count as usize).min(st.cols.len().saturating_sub(1))
        };
        let (units, right_old) = match order.edge {
            Edge::High => {
                if !is_right {
                    return Err(st.inconsistent(format!(
                        "high-edge move must target the right neighbour (got {})",
                        order.to
                    )));
                }
                let split = st.cols.len() - take;
                let moved: Vec<PCol> = st.cols.split_off(split);
                if let Some(first) = moved.first() {
                    // Our new right halo: the departing first column's
                    // sweep-start snapshot (we retain a copy).
                    st.right_old = first.old.clone();
                }
                (moved, None)
            }
            Edge::Low => {
                if !is_left {
                    return Err(st.inconsistent(format!(
                        "low-edge move must target the left neighbour (got {})",
                        order.to
                    )));
                }
                let moved: Vec<PCol> = st.cols.drain(0..take).collect();
                let ro = st.cols.first().map(|c| c.old.clone());
                (moved, ro)
            }
        };
        ctx.note(|| {
            let ids: Vec<_> = units.iter().map(|c| c.id).collect();
            let (n, to) = (units.len(), order.to);
            format!("move {n} cols {ids:?} -> slave{to} at phase {phase} sweep {sweep}")
        });
        if let Some(c) = units.iter().find(|c| c.phase != phase) {
            return Err(st.inconsistent(format!(
                "moved column {} at phase {} shipped at phase {phase}",
                c.id, c.phase
            )));
        }
        let moved_units: Vec<MovedUnit> = units
            .into_iter()
            .map(|c| MovedUnit {
                id: c.id,
                done: false,
                updated_through: c.phase,
                data: vec![c.data],
                old: Some(c.old),
            })
            .collect();
        Ok((moved_units, right_old))
    };
    common.execute_moves(ctx, moves, sweep, phase, detach).await
}

/// Process queued channel control traffic and transfers. `my_phase` is the
/// number of blocks we have completed this sweep.
async fn drain_transfers(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    st: &mut State,
    kernel: &dyn PipelinedKernel,
    my_phase: u64,
) -> Result<(), ProtocolError> {
    common.drain_control(ctx).await?;
    while let Some(env) = ctx.try_recv_match(|m| matches!(m, Msg::Transfer(_))).await {
        if let Msg::Transfer(t) = env.msg {
            accept_transfer(ctx, common, st, kernel, t, my_phase).await?;
        }
    }
    Ok(())
}

async fn accept_transfer(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    st: &mut State,
    kernel: &dyn PipelinedKernel,
    t: TransferMsg,
    my_phase: u64,
) -> Result<(), ProtocolError> {
    if !common.accept_transfer(ctx, &t).await {
        return Ok(()); // stale epoch, dead sender, or duplicate — fenced
    }
    ctx.note(|| {
        let ids: Vec<_> = t.units.iter().map(|u| u.id).collect();
        let (from, eff, sweep) = (t.from, t.effective_block, st.sweep);
        format!("accept transfer from {from} eff {eff} units {ids:?} (my_phase {my_phase}, sweep {sweep})")
    });
    let from_right = st.right == Some(t.from);
    let from_left = st.left == Some(t.from);
    if !from_right && !from_left {
        return Err(ProtocolError::NonNeighborTransfer {
            from: t.from,
            to: st.idx,
            sweep: st.sweep,
        });
    }
    if t.invocation != st.sweep {
        return Err(st.inconsistent(format!(
            "transfer for sweep {} accepted in sweep {}",
            t.invocation, st.sweep
        )));
    }
    let mut cols: Vec<PCol> = t
        .units
        .into_iter()
        .map(|mu| PCol {
            id: mu.id,
            data: column(mu.data),
            old: mu.old.unwrap_or_default(),
            phase: mu.updated_through,
        })
        .collect();
    if cols.is_empty() {
        return Ok(());
    }
    if from_right {
        // From the right: columns are behind; catch them up (§4.5).
        let eff = t.effective_block;
        if eff > my_phase {
            return Err(st.inconsistent(format!(
                "right transfer effective at phase {eff} ahead of local phase {my_phase}"
            )));
        }
        if cols.first().expect("nonempty").id != st.last_id() + 1 {
            return Err(st.inconsistent(format!(
                "right transfer starting at {} does not abut block ending at {}",
                cols.first().expect("nonempty").id,
                st.last_id()
            )));
        }
        let from_ci = st.cols.len();
        st.cols.append(&mut cols);
        let right_old = t.right_old.ok_or_else(|| {
            st.inconsistent("right transfer missing its right-halo snapshot".into())
        })?;
        for b in eff..my_phase {
            compute_block_cols(ctx, common, st, kernel, b, from_ci, Some(&right_old)).await;
            // The sender's remaining columns need our (new) last column's
            // values for the blocks we just caught up.
            send_boundary(ctx, common, st, b).await;
        }
        st.right_old = right_old;
    } else {
        // From the left: columns are ahead; set aside until we catch up.
        let eff = t.effective_block;
        if eff < my_phase {
            return Err(st.inconsistent(format!(
                "left transfer effective at phase {eff} behind local phase {my_phase}"
            )));
        }
        if eff == my_phase {
            let mut tmp = std::mem::take(&mut st.cols);
            cols.append(&mut tmp);
            st.cols = cols;
            st.check_contiguous()?;
        } else {
            st.set_aside.push((eff, cols));
        }
    }
    Ok(())
}

/// Drain now-useless messages of the finished sweep (boundaries made
/// redundant by mid-sweep moves). Halo values are pure functions of
/// sweep-start state, so any stragglers from before a rollback are
/// bit-identical to their replayed versions — no epoch fencing needed.
async fn purge_stale(ctx: &MailCtx<Msg>, sweep: u64) {
    while ctx
        .try_recv_match(|m| {
            matches!(m, Msg::Boundary { sweep: s, .. } if *s == sweep)
                || matches!(m, Msg::SweepOld { sweep: s, .. } if *s == sweep)
        })
        .await
        .is_some()
    {}
}
