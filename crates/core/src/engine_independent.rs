//! Slave engine for independent distributed loops (MM-shaped programs).
//!
//! Each invocation of the distributed loop computes every unit once. The
//! slave computes its local units in index order, firing the compiler-
//! placed hook after each unit. Work movement ships whole units (data +
//! done flag); moved units that were already computed this invocation are
//! not recomputed, and in-flight undone units keep the master's completion
//! count below the target so invocations never terminate early (§4.5).
//!
//! In fault mode this engine is *recoverable*: the master can re-scatter a
//! dead slave's units to survivors via [`Msg::Restore`]. The receiver
//! replays each restored unit's computation history (identical `compute`
//! calls in identical order), so the final gathered data is bit-for-bit the
//! same as a fault-free run. Work movement stays live under faults: every
//! transfer rides a sequenced per-peer channel (dedup + ack + re-send; see
//! [`crate::slave_common`]), units in flight to an evicted peer are
//! re-owned, and the master may race a silent suspect's units here
//! speculatively ([`Msg::Speculate`]) — the results are held aside until
//! the master commits or cancels them.
//!
//! The *master itself* may also die. Low-ranked slaves double as deputies
//! ([`crate::session::replica`]): they absorb the master's control-plane
//! replicas, watch its heartbeat, and elect a successor when it falls
//! silent. A promoted deputy leaves the worker pool (propagated here as
//! [`ProtocolError::Elected`]) and reboots the run as the new master via
//! [`crate::master::run_takeover`]; the survivors are rolled back to the
//! replicated invocation watermark with a [`Msg::Rollback`] — previously a
//! checkpointed-engine-only message — which this engine's restart loop
//! turns into a wholesale re-adoption of the re-scattered units.

use crate::balancer::InteractionMode;
use crate::error::{FaultToleranceConfig, ProtocolError};
use crate::kernels::IndependentKernel;
use crate::msg::{Edge, MoveOrder, MovedUnit, Msg, TransferMsg, UnitData};
use crate::slave_common::{recv_start, SlaveCommon};
use dlb_sim::{ActorId, CpuWork, MailCtx};
use std::collections::BTreeMap;
use std::sync::Arc;

struct Unit {
    data: UnitData,
    /// Invocation this unit was last computed in.
    done_in: Option<u64>,
}

/// Speculation buffers: results computed on the master's behalf for a
/// silent suspect, keyed by the `Speculate` sequence number, each unit's
/// data computed through the tagged invocation.
type SpecBuffers = BTreeMap<u64, (u64, Vec<(usize, UnitData)>)>;

/// Static configuration for one independent-engine slave.
pub struct IndependentSlave {
    pub idx: usize,
    pub master: ActorId,
    pub mode: InteractionMode,
    pub hook_check_cpu: CpuWork,
    pub kernel: Arc<dyn IndependentKernel>,
    pub ft: Option<FaultToleranceConfig>,
    /// Everything a promoted deputy needs to rebuild the master role
    /// (config factory, outcome slot, topology). `None` outside fault mode.
    pub takeover: Option<Arc<crate::master::TakeoverKit>>,
    /// Latecomer start time: when set, this slave starts with no units,
    /// idles until the given instant, then joins the running pool via the
    /// [`Msg::Join`] handshake.
    pub join_at: Option<dlb_sim::SimTime>,
}

impl IndependentSlave {
    /// Actor body. Never panics on protocol trouble: fatal errors are
    /// shipped to the master as [`Msg::SlaveError`].
    pub async fn run(self, ctx: MailCtx<Msg>) {
        let (idx, master) = (self.idx, self.master);
        match self.run_inner(&ctx).await {
            Ok(())
            | Err(ProtocolError::Aborted)
            | Err(ProtocolError::Evicted { .. })
            | Err(ProtocolError::JoinRefused { .. }) => {}
            Err(error) => {
                let msg = Msg::SlaveError { slave: idx, error };
                let bytes = msg.wire_bytes();
                ctx.send(master, msg, bytes).await;
            }
        }
    }

    async fn run_inner(self, ctx: &MailCtx<Msg>) -> Result<(), ProtocolError> {
        // Wait for the initial assignment.
        let (slaves, assignment, _block_rows) = recv_start(ctx, self.idx, self.ft.as_ref()).await?;
        let range = assignment[self.idx];
        let mut common = SlaveCommon::new(
            self.idx,
            self.master,
            slaves,
            self.mode,
            self.hook_check_cpu,
            self.ft.clone(),
            ctx.now(),
        );
        // Freshness for the election is the replicated invocation watermark:
        // this engine restarts from `recompute_unit`, not a held snapshot.
        common.enable_deputy(false, ctx.now());
        let kernel = self.kernel;
        let mut units: BTreeMap<usize, Unit> = (range.0..range.1)
            .map(|i| {
                (
                    i,
                    Unit {
                        data: kernel.init_unit(i),
                        done_in: None,
                    },
                )
            })
            .collect();
        let mut spec: SpecBuffers = BTreeMap::new();
        let mut start_inv = 0u64;
        let mut need_release = true;
        if let Some(at) = self.join_at {
            // Latecomer: the parked Start taught us the topology; idle to
            // the join instant, then announce. The admission rollback is
            // stashed by the handshake and adopted at the top of the loop.
            common.park_then_join(ctx, at).await?;
        }
        // Reboot loop: a rollback (master failover, or an admission after a
        // join) restarts the work loop at the rolled-back invocation with a
        // wholly re-scattered unit set; an election win turns this slave
        // into the new master; an eviction turns into a rejoin when the
        // fault config allows it.
        loop {
            let result = match common.pending_rollback.take() {
                Some(rb) if !rb.survivors.contains(&common.idx) => {
                    Err(ProtocolError::Evicted { slave: common.idx })
                }
                maybe_rb => {
                    if let Some(rb) = maybe_rb {
                        for s in 0..common.dead.len() {
                            if s == common.idx {
                                continue;
                            }
                            if !rb.survivors.contains(&s) {
                                common.peer_evicted(s);
                            } else if common.dead[s] {
                                // A rejoined peer comes back to life; clearing
                                // the flag lets the rebase below reopen its
                                // transfer channel at sequence zero.
                                common.dead[s] = false;
                            }
                        }
                        // The rollback re-scatters every unit from the
                        // master's replica: nothing reclaimed from closed
                        // channels (and no ownership report) survives it.
                        common.reclaimed.clear();
                        common.own_report_due.clear();
                        common.rebase_epoch(rb.epoch);
                        common.ckpt_stride = rb.ckpt_stride;
                        spec.clear();
                        units = rb
                            .units
                            .into_iter()
                            .map(|(id, data)| {
                                (
                                    id,
                                    Unit {
                                        data,
                                        done_in: None,
                                    },
                                )
                            })
                            .collect();
                        start_inv = rb.invocation;
                        // The Rollback doubles as the barrier release.
                        need_release = false;
                    }
                    work_loop(
                        ctx,
                        &mut common,
                        &mut units,
                        &mut spec,
                        &*kernel,
                        start_inv,
                        need_release,
                    )
                    .await
                }
            };
            match result {
                Err(ProtocolError::RolledBack) => {
                    debug_assert!(
                        common.pending_rollback.is_some(),
                        "RolledBack pairs with a stashed rollback"
                    );
                }
                Err(ProtocolError::Elected { .. }) => {
                    let seed = common
                        .takeover
                        .take()
                        .expect("Elected pairs with a stashed takeover seed");
                    let Some(kit) = self.takeover.as_deref() else {
                        return Err(ProtocolError::Inconsistent {
                            detail: format!(
                                "slave {} won an election without a takeover kit",
                                common.idx
                            ),
                        });
                    };
                    return crate::master::run_takeover(ctx, kit, seed, common.idx).await;
                }
                Err(ProtocolError::Evicted { .. })
                    if self.ft.as_ref().is_some_and(|ft| ft.rejoin_attempts > 0) =>
                {
                    // Eviction is no longer the end of the line: come back
                    // as a fresh incarnation and ask to be re-admitted. The
                    // rebuilt common starts with clean channel/epoch state;
                    // the old life's windows and clocks die with it.
                    let incarnation = common.incarnation + 1;
                    let (master, peers) = (common.master, common.slaves.clone());
                    common = SlaveCommon::new(
                        self.idx,
                        master,
                        peers,
                        self.mode,
                        self.hook_check_cpu,
                        self.ft.clone(),
                        ctx.now(),
                    );
                    common.incarnation = incarnation;
                    common.enable_deputy(false, ctx.now());
                    units.clear();
                    spec.clear();
                    common.join_handshake(ctx).await?;
                }
                r => return r,
            }
        }
    }
}

/// One life of the compute loop: from `start_inv` to the gather, or until a
/// failover rollback / election win unwinds it.
async fn work_loop(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    units: &mut BTreeMap<usize, Unit>,
    spec: &mut SpecBuffers,
    kernel: &dyn IndependentKernel,
    start_inv: u64,
    need_release: bool,
) -> Result<(), ProtocolError> {
    let invocations = kernel.invocations();
    let mut inv = start_inv;
    let mut metric = 0.0f64;
    if need_release {
        wait_invocation_start(ctx, common, units, spec, kernel).await?;
    }
    'outer: while inv < invocations {
        'compute: loop {
            // Opportunistically pull transfers (and restores) that are
            // already queued.
            drain_incoming(ctx, common, units, spec, kernel, inv).await?;
            let next = units
                .iter()
                .find(|(_, u)| u.done_in != Some(inv))
                .map(|(&id, _)| id);
            match next {
                Some(id) => {
                    common.compute(ctx, kernel.unit_cost_for(id, inv)).await;
                    let u = units.get_mut(&id).expect("unit present");
                    kernel.compute(id, &mut u.data, inv);
                    u.done_in = Some(inv);
                    metric += kernel.local_metric(id, &u.data);
                    common.record_done(1);
                    let active = active_units(units, inv, invocations);
                    let moves = common.hook(ctx, inv, active).await?;
                    execute_moves(ctx, common, units, inv, moves).await;
                }
                None => {
                    // Flush the final partial period, then go idle.
                    let active = active_units(units, inv, invocations);
                    let moves = common.fire(ctx, inv, active).await?;
                    execute_moves(ctx, common, units, inv, moves).await;
                    match idle_until_work_or_barrier(ctx, common, units, spec, kernel, inv, metric)
                        .await?
                    {
                        Idle::NewWork => {}
                        Idle::NextInvocation => break 'compute,
                        Idle::Gather => {
                            return reply_gather(ctx, common, units, inv).await;
                        }
                    }
                }
            }
        }
        inv += 1;
        metric = 0.0;
        if inv >= invocations {
            break 'outer;
        }
    }

    // Safety net: if the upper bound on invocations is reached without
    // the master converging earlier, wait for the gather here.
    let env = common
        .recv_blocking(ctx, |m| matches!(m, Msg::Gather), "final gather")
        .await?;
    debug_assert!(matches!(env.msg, Msg::Gather));
    reply_gather(ctx, common, units, invocations.saturating_sub(1)).await
}

fn active_units(units: &BTreeMap<usize, Unit>, inv: u64, invocations: u64) -> u64 {
    if inv + 1 < invocations {
        // Every unit will be recomputed next invocation.
        units.len() as u64
    } else {
        units.values().filter(|u| u.done_in != Some(inv)).count() as u64
    }
}

/// Apply a fresh transfer payload (the channel layer already deduplicated
/// and acknowledged it).
fn incorporate(
    common: &mut SlaveCommon,
    units: &mut BTreeMap<usize, Unit>,
    t: TransferMsg,
) -> Result<(), ProtocolError> {
    for mu in t.units {
        let done_in = if mu.done { Some(t.invocation) } else { None };
        let id = mu.id;
        let prev = units.insert(
            id,
            Unit {
                data: mu.data,
                done_in,
            },
        );
        if prev.is_some() {
            return Err(ProtocolError::Inconsistent {
                detail: format!("unit {id} moved to slave {} already owning it", common.idx),
            });
        }
    }
    Ok(())
}

/// Reintegrate units re-owned from channels closed by peer eviction, then
/// answer any pending ownership reports. Must run before the master can
/// treat this slave's ownership as settled — every drain point calls it.
async fn settle_evictions(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    units: &mut BTreeMap<usize, Unit>,
    inv: u64,
) -> Result<(), ProtocolError> {
    for mu in std::mem::take(&mut common.reclaimed) {
        let done_in = if mu.done { Some(inv) } else { None };
        let id = mu.id;
        if units
            .insert(
                id,
                Unit {
                    data: mu.data,
                    done_in,
                },
            )
            .is_some()
        {
            return Err(ProtocolError::Inconsistent {
                detail: format!(
                    "unit {id} re-owned by slave {} already owning it",
                    common.idx
                ),
            });
        }
    }
    for about in std::mem::take(&mut common.own_report_due) {
        let report = Msg::OwnReport {
            slave: common.idx,
            about,
            ids: units.keys().copied().collect(),
        };
        common.send_master(ctx, report).await;
    }
    Ok(())
}

/// Apply a `Restore`: adopt the units and replay their computation history
/// so their data matches what the dead owner would have held. Returns
/// whether the restore was fresh (not a duplicate).
async fn apply_restore(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    units: &mut BTreeMap<usize, Unit>,
    kernel: &dyn IndependentKernel,
    inv: u64,
    seq: u64,
    restored: Vec<(usize, UnitData)>,
) -> Result<bool, ProtocolError> {
    if !common.master_chan.fresh(seq) {
        return Ok(false); // duplicate delivery
    }
    let invocations = kernel.invocations();
    for (id, mut data) in restored {
        // Replay: identical compute calls in identical order reproduce the
        // dead slave's unit state bit-for-bit up to the current barrier.
        for i in 0..inv {
            common.compute(ctx, kernel.unit_cost_for(id, i)).await;
            kernel.compute(id, &mut data, i);
            // Heartbeat so a long replay does not trip the master's
            // suspicion timer (replayed units are not re-counted as done).
            let _ = common
                .hook(ctx, inv, active_units(units, inv, invocations))
                .await?;
        }
        if units
            .insert(
                id,
                Unit {
                    data,
                    done_in: None,
                },
            )
            .is_some()
        {
            return Err(ProtocolError::Inconsistent {
                detail: format!(
                    "unit {id} restored to slave {} already owning it",
                    common.idx
                ),
            });
        }
    }
    Ok(true)
}

/// Apply a `Speculate`: compute the suspect's units *through* the current
/// barrier into a side buffer; the master later commits or cancels it.
#[expect(clippy::too_many_arguments)]
async fn apply_speculate(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    units: &BTreeMap<usize, Unit>,
    spec: &mut SpecBuffers,
    kernel: &dyn IndependentKernel,
    inv: u64,
    seq: u64,
    invocation: u64,
    suspects: Vec<(usize, UnitData)>,
) -> Result<(), ProtocolError> {
    if !common.master_chan.fresh(seq) {
        return Ok(()); // duplicate delivery
    }
    let invocations = kernel.invocations();
    let mut computed = Vec::with_capacity(suspects.len());
    for (id, mut data) in suspects {
        for i in 0..=invocation {
            common.compute(ctx, kernel.unit_cost_for(id, i)).await;
            kernel.compute(id, &mut data, i);
            // Speculated units are not owned (yet): not counted done.
            let _ = common
                .hook(ctx, inv, active_units(units, inv, invocations))
                .await?;
        }
        computed.push((id, data));
    }
    common.fault_stats.speculations_computed += 1;
    spec.insert(seq, (invocation, computed));
    Ok(())
}

/// Handle the windowed master-channel messages (`Restore` / `Speculate` /
/// commit / cancel). Returns whether ownership may have changed (new local
/// work or new owned ids).
async fn apply_master_chan(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    units: &mut BTreeMap<usize, Unit>,
    spec: &mut SpecBuffers,
    kernel: &dyn IndependentKernel,
    inv: u64,
    msg: Msg,
) -> Result<bool, ProtocolError> {
    match msg {
        Msg::Restore {
            seq,
            units: restored,
            ..
        } => apply_restore(ctx, common, units, kernel, inv, seq, restored).await,
        Msg::Speculate {
            seq,
            invocation,
            units: suspects,
        } => {
            apply_speculate(
                ctx, common, units, spec, kernel, inv, seq, invocation, suspects,
            )
            .await?;
            Ok(false)
        }
        Msg::SpecCommit { seq, spec_seq, ids } => {
            if !ids.is_empty() && !spec.contains_key(&spec_seq) {
                // The Speculate this commit refers to has not arrived yet
                // (drop + out-of-order window replay). Leave the sequence
                // unacknowledged: the master re-sends the whole unacked
                // window in order, so the buffer arrives first eventually.
                return Ok(false);
            }
            if !common.master_chan.fresh(seq) {
                return Ok(false);
            }
            let mut changed = false;
            if let Some((computed_through, buffer)) = spec.remove(&spec_seq) {
                for (id, data) in buffer {
                    if !ids.contains(&id) {
                        continue; // owned elsewhere by now — discard
                    }
                    if units
                        .insert(
                            id,
                            Unit {
                                data,
                                done_in: Some(computed_through),
                            },
                        )
                        .is_some()
                    {
                        return Err(ProtocolError::Inconsistent {
                            detail: format!(
                                "speculated unit {id} committed to slave {} already owning it",
                                common.idx
                            ),
                        });
                    }
                    changed = true;
                }
            }
            Ok(changed)
        }
        Msg::SpecCancel { seq, spec_seq } => {
            if common.master_chan.fresh(seq) {
                spec.remove(&spec_seq);
            }
            Ok(false)
        }
        other => Err(common.unexpected("master channel", &other)),
    }
}

/// Drain already-queued transfers; in fault mode, also the windowed master
/// channel, transfer acks, peer evictions, and shutdown orders.
async fn drain_incoming(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    units: &mut BTreeMap<usize, Unit>,
    spec: &mut SpecBuffers,
    kernel: &dyn IndependentKernel,
    inv: u64,
) -> Result<(), ProtocolError> {
    let fault_mode = common.ft.is_some();
    let pred = |m: &Msg| {
        matches!(m, Msg::Transfer(_) | Msg::TransferAck { .. })
            || (fault_mode
                && matches!(
                    m,
                    Msg::Restore { .. }
                        | Msg::Speculate { .. }
                        | Msg::SpecCommit { .. }
                        | Msg::SpecCancel { .. }
                        | Msg::Evicted { .. }
                        | Msg::Abort
                        | Msg::Evict
                        | Msg::Rollback { .. }
                        | Msg::Replica(_)
                        | Msg::MasterPing { .. }
                        | Msg::Candidacy { .. }
                        | Msg::Vote { .. }
                        | Msg::Promoted { .. }
                ))
    };
    while let Some(env) = ctx.try_recv_match(pred).await {
        match env.msg {
            Msg::Transfer(t) => {
                if common.accept_transfer(ctx, &t).await {
                    incorporate(common, units, t)?;
                }
            }
            Msg::TransferAck {
                from,
                epoch,
                watermark,
            } => common.handle_transfer_ack(from, epoch, watermark),
            Msg::Evicted { slave } => common.peer_evicted(slave),
            Msg::Abort => return Err(ProtocolError::Aborted),
            Msg::Evict => return Err(ProtocolError::Evicted { slave: common.idx }),
            m @ (Msg::Restore { .. }
            | Msg::Speculate { .. }
            | Msg::SpecCommit { .. }
            | Msg::SpecCancel { .. }) => {
                apply_master_chan(ctx, common, units, spec, kernel, inv, m).await?;
            }
            m @ Msg::Rollback { .. } => {
                // A failover rollback: stash + unwind to the reboot loop.
                common.control(&m)?;
            }
            m @ (Msg::Replica(_)
            | Msg::MasterPing { .. }
            | Msg::Candidacy { .. }
            | Msg::Vote { .. }
            | Msg::Promoted { .. }) => {
                common.election(ctx, &m).await?;
            }
            _ => unreachable!(),
        }
    }
    settle_evictions(ctx, common, units, inv).await
}

async fn execute_moves(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    units: &mut BTreeMap<usize, Unit>,
    inv: u64,
    moves: Vec<MoveOrder>,
) {
    if moves.is_empty() {
        return;
    }
    let t0 = ctx.now();
    let mut total_moved = 0;
    for order in moves {
        if common.dead[order.to] {
            // Offer to an evicted slave: refused locally, units stay here.
            continue;
        }
        // Keep at least one unit (the balancer's min_per_slave mirror).
        let take = (order.count as usize).min(units.len().saturating_sub(1));
        let mut picked: Vec<usize> = Vec::with_capacity(take);
        // Prefer undone units (they still carry work this invocation); among
        // equals, take from the ordered edge.
        let mut candidates: Vec<(bool, usize)> = units
            .iter()
            .map(|(&id, u)| (u.done_in == Some(inv), id))
            .collect();
        candidates.sort_by_key(|&(done, id)| {
            let edge_key = match order.edge {
                Edge::High => usize::MAX - id,
                Edge::Low => id,
            };
            (done, edge_key)
        });
        picked.extend(candidates.into_iter().take(take).map(|(_, id)| id));
        let moved: Vec<MovedUnit> = picked
            .into_iter()
            .map(|id| {
                let u = units.remove(&id).expect("picked unit");
                MovedUnit {
                    id,
                    done: u.done_in == Some(inv),
                    updated_through: 0,
                    data: u.data,
                    old: None,
                }
            })
            .collect();
        total_moved += moved.len() as u64;
        let from = common.idx;
        // Always send the transfer — even empty — so the master's pending
        // accounting and the channel watermarks stay settled.
        common
            .send_transfer(ctx, order.to, |_| TransferMsg {
                from,
                seq: 0,
                epoch: 0,
                invocation: inv,
                effective_block: 0,
                units: moved,
                right_old: None,
            })
            .await;
    }
    common.move_cost_sample = Some((total_moved, ctx.now().saturating_since(t0)));
}

/// Outcome of idling at the end of an invocation.
enum Idle {
    /// A transfer or restore brought units that still need computing.
    NewWork,
    /// The barrier released the next invocation.
    NextInvocation,
    /// The master requested the final gather (final invocation only).
    Gather,
}

/// Idle at the end of an invocation: report done, then service messages
/// until new work arrives, the barrier releases the next invocation, or —
/// after the final invocation — the master requests the gather.
///
/// In fault mode the slave heartbeats: its `InvocationDone` (carrying the
/// master-channel watermark) is re-sent whenever nothing arrives for one
/// heartbeat period, bounded by `give_up_tries`; unacked transfers are
/// re-sent on the same trigger.
async fn idle_until_work_or_barrier(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    units: &mut BTreeMap<usize, Unit>,
    spec: &mut SpecBuffers,
    kernel: &dyn IndependentKernel,
    inv: u64,
    metric: f64,
) -> Result<Idle, ProtocolError> {
    let refresh_done =
        |common: &mut SlaveCommon, units: &BTreeMap<usize, Unit>| Msg::InvocationDone {
            slave: common.idx,
            invocation: inv,
            epoch: common.epoch,
            sent_to: common.sent_to_vec(),
            received_from: common.recv_watermarks(),
            metric,
            restore_seq: common.master_chan.watermark(),
            owned_ids: units.keys().copied().collect(),
            replica_inv: common.replica_inv(),
        };
    settle_evictions(ctx, common, units, inv).await?;
    let msg = refresh_done(common, units);
    common.send_master(ctx, msg).await;
    let ft = common.ft.clone();
    let mut silent = 0u32;
    loop {
        let env = match &ft {
            None => ctx.recv().await,
            Some(ft) => match ctx.recv_deadline(ctx.now() + ft.slave_heartbeat).await {
                Some(env) => {
                    silent = 0;
                    env
                }
                None => {
                    silent += 1;
                    if silent > ft.give_up_tries {
                        return Err(ProtocolError::Timeout {
                            who: crate::error::slave_who(common.idx),
                            waiting_for: "invocation barrier",
                            at: ctx.now(),
                        });
                    }
                    common.resend_stalled_transfers(ctx).await;
                    common.deputy_tick(ctx).await?;
                    let msg = refresh_done(common, units);
                    common.send_master(ctx, msg).await;
                    continue;
                }
            },
        };
        match env.msg {
            Msg::Transfer(t) => {
                if common.accept_transfer(ctx, &t).await {
                    incorporate(common, units, t)?;
                }
                let has_work = units.values().any(|u| u.done_in != Some(inv));
                if has_work {
                    return Ok(Idle::NewWork);
                }
                // Ownership changed (or a duplicate needed re-acking) but no
                // new work: refresh the master's counters so settlement can
                // complete.
                let msg = refresh_done(common, units);
                common.send_master(ctx, msg).await;
            }
            Msg::TransferAck {
                from,
                epoch,
                watermark,
            } => {
                common.handle_transfer_ack(from, epoch, watermark);
                let msg = refresh_done(common, units);
                common.send_master(ctx, msg).await;
            }
            Msg::Evicted { slave } => {
                common.peer_evicted(slave);
                settle_evictions(ctx, common, units, inv).await?;
                if units.values().any(|u| u.done_in != Some(inv)) {
                    return Ok(Idle::NewWork);
                }
                let msg = refresh_done(common, units);
                common.send_master(ctx, msg).await;
            }
            m @ (Msg::Restore { .. }
            | Msg::Speculate { .. }
            | Msg::SpecCommit { .. }
            | Msg::SpecCancel { .. }) => {
                let changed = apply_master_chan(ctx, common, units, spec, kernel, inv, m).await?;
                if changed && units.values().any(|u| u.done_in != Some(inv)) {
                    return Ok(Idle::NewWork);
                }
                // Duplicate (or no new work): refresh the watermark either
                // way so the master's settlement can observe it.
                let msg = refresh_done(common, units);
                common.send_master(ctx, msg).await;
            }
            Msg::Instructions(instr) => {
                // Late pipelined replies can still carry movement orders.
                // The master cannot settle until their transfers are
                // acknowledged, so executing them here is always safe —
                // but only through the shared epoch/sequence fences, or a
                // duplicated delivery would double-execute the moves.
                let moves = common.instructions_out_of_band(instr);
                if !moves.is_empty() {
                    execute_moves(ctx, common, units, inv, moves).await;
                    let msg = refresh_done(common, units);
                    common.send_master(ctx, msg).await;
                }
            }
            Msg::InvocationStart { invocation, .. } => {
                if invocation == inv + 1 {
                    return Ok(Idle::NextInvocation);
                }
                if ft.is_some() && invocation <= inv {
                    // Stale re-broadcast: the master has not yet seen our
                    // completion report; refresh it immediately.
                    let msg = refresh_done(common, units);
                    common.send_master(ctx, msg).await;
                    continue;
                }
                return Err(common.unexpected(
                    "idle barrier",
                    &Msg::InvocationStart {
                        invocation,
                        ckpt_stride: 1,
                    },
                ));
            }
            Msg::Gather => {
                // The master decides when the loop ends (fixed count or
                // data-dependent convergence, §4.1).
                return Ok(Idle::Gather);
            }
            Msg::Abort => return Err(ProtocolError::Aborted),
            Msg::Evict => return Err(ProtocolError::Evicted { slave: common.idx }),
            m @ Msg::Rollback { .. } => {
                // A failover rollback: stash + unwind to the reboot loop
                // (or ack a stale duplicate and keep idling).
                common.control(&m)?;
            }
            m @ (Msg::Replica(_)
            | Msg::MasterPing { .. }
            | Msg::Candidacy { .. }
            | Msg::Vote { .. }
            | Msg::Promoted { .. }) => {
                common.election(ctx, &m).await?;
            }
            Msg::Start { .. } | Msg::GatherAck if ft.is_some() => {} // duplicate deliveries
            other => return Err(common.unexpected("idle loop", &other)),
        }
    }
}

/// Invocation 0 needs an explicit release; later ones are consumed by
/// `idle_until_work_or_barrier`.
async fn wait_invocation_start(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    units: &mut BTreeMap<usize, Unit>,
    spec: &mut SpecBuffers,
    kernel: &dyn IndependentKernel,
) -> Result<(), ProtocolError> {
    loop {
        let env = common
            .recv_blocking(ctx, |_| true, "first invocation start")
            .await?;
        match env.msg {
            Msg::InvocationStart { invocation: 0, .. } => return Ok(()),
            Msg::Transfer(t) => {
                if common.accept_transfer(ctx, &t).await {
                    incorporate(common, units, t)?;
                }
            }
            m @ (Msg::Restore { .. }
            | Msg::Speculate { .. }
            | Msg::SpecCommit { .. }
            | Msg::SpecCancel { .. })
                if common.ft.is_some() =>
            {
                apply_master_chan(ctx, common, units, spec, kernel, 0, m).await?;
            }
            Msg::Instructions(_) => {}
            Msg::Start { .. } if common.ft.is_some() => {} // duplicate delivery
            other => return Err(common.unexpected("waiting for first invocation", &other)),
        }
        settle_evictions(ctx, common, units, 0).await?;
    }
}

/// Send the final gather payload; in fault mode, wait for the master's
/// acknowledgement (re-sending on duplicate `Gather` requests) so a dropped
/// `GatherData` cannot lose the result.
async fn reply_gather(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    units: &mut BTreeMap<usize, Unit>,
    inv: u64,
) -> Result<(), ProtocolError> {
    settle_evictions(ctx, common, units, inv).await?;
    let payload: Vec<(usize, UnitData)> =
        units.iter().map(|(&id, u)| (id, u.data.clone())).collect();
    let msg = Msg::GatherData {
        slave: common.idx,
        units: payload.clone(),
        fault_stats: common.fault_stats.clone(),
    };
    common.send_master(ctx, msg).await;
    let Some(ft) = common.ft.clone() else {
        return Ok(());
    };
    let mut tries = 0u32;
    loop {
        match ctx.recv_deadline(ctx.now() + ft.slave_heartbeat).await {
            None => {
                tries += 1;
                if tries > ft.gather_patience {
                    // Assume the data arrived and the ack was lost; the
                    // master recomputes locally if it really did not.
                    return Ok(());
                }
                // The master may die between our GatherData and its ack:
                // deputies keep the election live even here.
                common.deputy_tick(ctx).await?;
            }
            Some(env) => match env.msg {
                Msg::Gather => {
                    tries = 0;
                    let msg = Msg::GatherData {
                        slave: common.idx,
                        units: payload.clone(),
                        fault_stats: common.fault_stats.clone(),
                    };
                    common.send_master(ctx, msg).await;
                }
                Msg::GatherAck | Msg::Abort => return Ok(()),
                Msg::Evict => return Err(ProtocolError::Evicted { slave: common.idx }),
                m => {
                    // Election traffic and a takeover rollback (the new
                    // master restarting the final invocation) both unwind
                    // through the reboot loop; everything else is stale.
                    if !common.election(ctx, &m).await? {
                        common.control(&m)?;
                    }
                }
            },
        }
    }
}
