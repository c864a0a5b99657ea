//! The master process: central load balancer + program control (§3.1, §4.1).
//!
//! The master mimics the application's outer loop structure so that it
//! executes the same number of balancing phases as the slaves and the
//! program terminates properly: one *invocation* per execution of the
//! distributed loop (MM repetition, SOR sweep, LU step). Within an
//! invocation it answers every slave status with instructions from the
//! [`Balancer`], and it releases the next invocation only when every slave
//! is idle, every transfer channel has settled (`sent_to[a][b] ==
//! received_from[b][a]` for every live pair), and no movement order is
//! outstanding — so no unit can be lost, duplicated, or skipped.
//!
//! Three variants of the control loop exist:
//!
//! * **plain** — no fault plan; trouble is a typed error, never a panic.
//! * **recoverable** (independent pattern) — the master detects dead slaves
//!   by silence, evicts them, fences off their transfer channels via
//!   [`Msg::Evicted`] / [`Msg::OwnReport`], and re-scatters exactly the
//!   units no survivor reports. Before a suspect is formally evicted, its
//!   units may be speculatively re-executed on an idle survivor
//!   ([`Msg::Speculate`]); a commit adopts the results without replay.
//! * **checkpointed** (pipelined/shrinking patterns) — carried dependences
//!   make in-place recovery impossible, so slaves ship best-effort state
//!   checkpoints at invocation barriers and the master rolls the survivors
//!   back to the newest complete checkpoint ([`Msg::Rollback`]) instead of
//!   aborting. The estimated restart cost is folded into the balancer's
//!   move-profitability check, and a silent suspect's next invocation is
//!   raced on an idle survivor from the banked snapshot ([`Msg::Speculate`])
//!   so an eviction rolls back one invocation less.
//!
//! The structural state of both fault-mode loops — membership, epochs, the
//! checkpoint bank, speculation, eviction resolution — lives in
//! [`crate::session`]; this file is the protocol driver (receive arms,
//! timer sweeps, the gather). All master → slave recovery messages
//! (`Restore`, `Speculate`, `SpecCommit`, `SpecCancel`, `Rollback`) share
//! one per-destination [`SenderWindow`](crate::protocol::SenderWindow):
//! sequence-numbered, acknowledged via `InvocationDone::restore_seq`,
//! deduplicated by the receiver, re-sent on evidence of loss. The
//! transition rules are modelled and exhaustively checked in `dlb-analyze`
//! (restore + transfer models in [`crate::session::model`]).
//!
//! Both fault-mode loops also *replicate the control plane*: at each
//! invocation boundary the master publishes a [`ReplicaMsg`] (membership,
//! epoch, invocation watermark, newest complete checkpoint, cumulative
//! recovery counters) to the deputy slaves, and heartbeats them with
//! [`Msg::MasterPing`] between barriers. When the master crashes the
//! deputies elect a successor ([`crate::session::replica`]); the winner
//! re-enters these same loops through [`run_takeover`] with a
//! [`TakeoverSeed`], which seeds the session from the replica, fences the
//! new reign behind `term << 32` epochs, rolls the survivors back, and
//! resumes — bit-exact, because rollback state is value-deterministic. A
//! master that learns of a higher-term [`Msg::Promoted`] exits silently
//! with [`ProtocolError::Superseded`]: it writes no outcome and aborts
//! no one, because exactly one reign per term owns the run.

use crate::balancer::{Balancer, BalancerStats};
use crate::error::{FaultToleranceConfig, ProtocolError};
use crate::frequency::PeriodBounds;
use crate::msg::{Instructions, Msg, ReplicaMsg, UnitData};
use crate::protocol::SenderWindow;
use crate::recovery::RecoveryStats;
use crate::session::master::{
    cancel_spec, channels_settled, merge_max, resolve_evictions, send, CkSession, Eviction,
};
use crate::session::membership::Membership;
use crate::session::replica::TakeoverSeed;
use crate::session::speculation::RestartSpec;
use dlb_sim::{ActorId, CpuWork, MailCtx, SimTime};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// One row of the master's balancing log — the raw material for the
/// paper's Figure 9 (raw rate, adjusted rate, work assignment over time).
#[derive(Clone, Debug)]
pub struct TimelineSample {
    pub t: SimTime,
    pub slave: usize,
    pub invocation: u64,
    pub raw_rate: f64,
    pub adjusted_rate: f64,
    /// Units assigned to this slave after the decision.
    pub assigned: u64,
    pub hooks_to_skip: u64,
}

/// Everything the master hands back to the driver.
#[derive(Debug, Default)]
pub struct MasterOutcome {
    /// Gathered unit data, unordered (the driver sorts by id).
    pub result: Vec<(usize, UnitData)>,
    pub timeline: Vec<TimelineSample>,
    pub stats: BalancerStats,
    pub bounds: Option<PeriodBounds>,
    /// Virtual time when the last invocation settled (before gather).
    pub compute_done: SimTime,
    /// Recovery actions taken (all zero for fault-free runs).
    pub recovery: RecoveryStats,
    /// The typed failure, if the run did not complete.
    pub error: Option<ProtocolError>,
    /// All invocations settled and the gather completed.
    pub completed: bool,
}

/// Initial data of a unit, for re-scattering a dead slave's block.
pub type InitUnitFn = Box<dyn Fn(usize) -> UnitData + Send + Sync>;
/// Recompute a unit end-to-end (init + the given number of completed
/// invocations).
pub type RecomputeUnitFn = Box<dyn Fn(usize, u64) -> UnitData + Send + Sync>;

/// Fault-tolerance wiring for the master.
pub struct MasterFt {
    pub tolerance: FaultToleranceConfig,
    /// Independent pattern: selects the recoverable control loop.
    pub init_unit: Option<InitUnitFn>,
    /// Independent pattern: used when a slave dies during the final gather.
    pub recompute_unit: Option<RecomputeUnitFn>,
    /// Pipelined/shrinking patterns: initial unit data for the epoch-zero
    /// snapshot; selects the checkpointed control loop when `init_unit` is
    /// absent.
    pub checkpoint_init: Option<InitUnitFn>,
}

/// Everything a promoted deputy needs to rebuild the master role in place:
/// a factory for a fresh [`MasterConfig`] (balancer included — balancer
/// state is not replicated, it re-learns rates from the first statuses),
/// the run topology, and the shared outcome slot. Handed to every slave in
/// fault mode; used only by the election winner.
pub struct TakeoverKit {
    /// Rebuilds the master configuration from scratch.
    pub make_cfg: Box<dyn Fn() -> MasterConfig + Send + Sync>,
    /// The original master's actor id (fenced with `Promoted` on takeover
    /// in case it is merely slow, not dead).
    pub master: ActorId,
    pub slaves: Vec<ActorId>,
    pub assignment: Vec<(usize, usize)>,
    pub block_rows: u64,
    pub outcome: Arc<Mutex<MasterOutcome>>,
}

/// Master configuration.
pub struct MasterConfig {
    pub balancer: Balancer,
    pub invocations: u64,
    /// Expected work-unit completions per invocation (LU shrinks).
    pub expected_units: Box<dyn Fn(u64) -> u64 + Send + Sync>,
    /// Per-invocation expected units-per-hook override (LU's units shrink;
    /// `None` keeps the initial value).
    pub units_per_hook: Option<Box<dyn Fn(u64) -> f64 + Send + Sync>>,
    /// CPU charged on the master per status processed.
    pub decision_cpu: CpuWork,
    pub record_timeline: bool,
    /// Data-dependent WHILE termination (§4.1): called with the invocation
    /// just settled and the reduced convergence metric; `true` ends the
    /// program before the invocation upper bound.
    pub converged: Box<dyn Fn(u64, f64) -> bool + Send + Sync>,
    /// Fault-mode control loop; `None` selects the plain loop.
    pub ft: Option<MasterFt>,
}

/// Partial results threaded through the control loops so a failed run
/// still surfaces everything measured up to the failure.
#[derive(Default)]
struct Scratch {
    result: Vec<(usize, UnitData)>,
    timeline: Vec<TimelineSample>,
    compute_done: SimTime,
    recovery: RecoveryStats,
}

fn unexpected(context: &'static str, msg: &Msg) -> ProtocolError {
    ProtocolError::UnexpectedMessage {
        who: "master".to_string(),
        context,
        message: format!("{msg:?}").chars().take(120).collect(),
    }
}

/// Whether a slave-reported error is survivable by a checkpoint rollback
/// (the slave keeps running and waits for the `Rollback`) as opposed to a
/// failure of the slave itself.
fn slave_recoverable(e: &ProtocolError) -> bool {
    matches!(
        e,
        ProtocolError::Timeout { .. }
            | ProtocolError::MissingPivot { .. }
            | ProtocolError::NonNeighborTransfer { .. }
            | ProtocolError::Inconsistent { .. }
            | ProtocolError::UnexpectedMessage { .. }
    )
}

/// Master-side failover state: this reign's term, the deputy set, the
/// replica freshness each deputy has confirmed (piggybacked on
/// `InvocationDone::replica_inv`), and the heartbeat timer.
struct Failover {
    term: u64,
    deputies: usize,
    /// Replica freshness confirmed by each deputy.
    acked: Vec<u64>,
    next_ping: SimTime,
}

impl Failover {
    fn new(n: usize, term: u64, tol: &FaultToleranceConfig, now: SimTime) -> Failover {
        let deputies = tol.deputies.min(n);
        Failover {
            term,
            deputies,
            acked: vec![0; deputies],
            next_ping: now + tol.master_heartbeat,
        }
    }

    /// Record a deputy's piggybacked replica confirmation.
    fn note_ack(&mut self, slave: usize, replica_inv: u64) {
        if slave < self.deputies {
            self.acked[slave] = self.acked[slave].max(replica_inv);
        }
    }

    /// Heartbeat the live deputies so their election trigger stays quiet
    /// between barriers. Runs from every timer sweep; rate-limited to the
    /// configured cadence.
    async fn ping(
        &mut self,
        ctx: &MailCtx<Msg>,
        slaves: &[ActorId],
        alive: &[bool],
        tol: &FaultToleranceConfig,
        rec: &mut RecoveryStats,
    ) {
        let now = ctx.now();
        if now < self.next_ping {
            return;
        }
        self.next_ping = now + tol.master_heartbeat;
        let msg = Msg::MasterPing { term: self.term };
        for d in 0..self.deputies {
            if alive[d] {
                rec.replication_bytes += msg.wire_bytes();
                send(ctx, slaves[d], msg.clone()).await;
            }
        }
    }

    /// Publish a control-plane replica to every live deputy. The snapshot
    /// payload rides only to deputies whose confirmed freshness lags
    /// `fresh` — once a deputy acknowledges holding generation `fresh`,
    /// further publishes shrink to the cheap scalar core. A lost replica
    /// self-heals at the next cadence point (the lagging ack keeps the
    /// snapshot riding along).
    async fn publish(
        &mut self,
        ctx: &MailCtx<Msg>,
        slaves: &[ActorId],
        alive: &[bool],
        fresh: u64,
        make: impl Fn(bool) -> ReplicaMsg,
        rec: &mut RecoveryStats,
    ) {
        for d in 0..self.deputies {
            if !alive[d] {
                continue;
            }
            let with_snapshot = self.acked[d] < fresh;
            let msg = Msg::Replica(Box::new(make(with_snapshot)));
            rec.replicas_published += 1;
            rec.replication_bytes += msg.wire_bytes();
            send(ctx, slaves[d], msg).await;
        }
    }
}

/// The election winner's actor body: announce the new reign, then re-enter
/// the regular fault-mode control loop seeded from the replica. Writes the
/// shared outcome itself (the crashed master never will); returns `Ok` even
/// on a failed run — the failure is recorded in the outcome, exactly as
/// `run_master` records it — so the caller never ships a stray
/// `SlaveError` to a dead master.
pub async fn run_takeover(
    ctx: &MailCtx<Msg>,
    kit: &TakeoverKit,
    seed: TakeoverSeed,
    me: usize,
) -> Result<(), ProtocolError> {
    if crate::dlb_trace() {
        eprintln!(
            "[takeover t={}] slave {me} won term {} (replica inv {})",
            ctx.now(),
            seed.term,
            seed.replica.invocation
        );
    }
    let mut cfg = (kit.make_cfg)();
    let mut sc = Scratch {
        // Adopt the crashed master's cumulative counters so the final
        // report covers the whole run.
        recovery: seed.replica.recovery.clone(),
        ..Scratch::default()
    };
    sc.recovery.elections_held += 1;
    sc.recovery.takeover_latency = Some(ctx.now().saturating_since(seed.last_heard));
    let promoted = Msg::Promoted {
        term: seed.term,
        master_idx: me,
    };
    for (i, &s) in kit.slaves.iter().enumerate() {
        if i != me {
            send(ctx, s, promoted.clone()).await;
        }
    }
    // Fence the old master too, in case it is merely slow, not dead.
    send(ctx, kit.master, promoted.clone()).await;
    let ft = cfg.ft.take().expect("takeover requires fault mode");
    let res = if ft.init_unit.is_some() {
        run_recoverable(
            ctx,
            &mut cfg,
            &ft,
            &kit.slaves,
            &kit.assignment,
            kit.block_rows,
            &mut sc,
            Some((&seed, me)),
        )
        .await
    } else {
        run_checkpointed(
            ctx,
            &mut cfg,
            &ft,
            &kit.slaves,
            &kit.assignment,
            kit.block_rows,
            &mut sc,
            Some((&seed, me)),
        )
        .await
    };
    if matches!(res, Err(ProtocolError::Superseded { .. })) {
        // A still-newer reign owns the run (and the outcome) now.
        return Ok(());
    }
    if res.is_err() {
        for (i, &s) in kit.slaves.iter().enumerate() {
            if i != me {
                send(ctx, s, Msg::Abort).await;
            }
        }
    }
    let mut o = kit.outcome.lock().unwrap_or_else(|p| p.into_inner());
    o.result = std::mem::take(&mut sc.result);
    o.timeline = std::mem::take(&mut sc.timeline);
    o.stats = cfg.balancer.stats();
    o.bounds = Some(cfg.balancer.period_bounds());
    o.compute_done = sc.compute_done;
    o.recovery = sc.recovery;
    o.completed = res.is_ok();
    o.error = res.err();
    Ok(())
}

/// The master actor body. `slaves` in slave-index order; `assignment` is
/// the initial block distribution; the outcome lands in `out`.
pub async fn run_master(
    ctx: MailCtx<Msg>,
    mut cfg: MasterConfig,
    slaves: Vec<ActorId>,
    assignment: Vec<(usize, usize)>,
    block_rows: u64,
    out: Arc<Mutex<MasterOutcome>>,
) {
    let mut sc = Scratch::default();
    let ft = cfg.ft.take();
    let res = match &ft {
        None => run_plain(&ctx, &mut cfg, &slaves, &assignment, block_rows, &mut sc).await,
        Some(ft) if ft.init_unit.is_some() => {
            run_recoverable(
                &ctx,
                &mut cfg,
                ft,
                &slaves,
                &assignment,
                block_rows,
                &mut sc,
                None,
            )
            .await
        }
        Some(ft) => {
            run_checkpointed(
                &ctx,
                &mut cfg,
                ft,
                &slaves,
                &assignment,
                block_rows,
                &mut sc,
                None,
            )
            .await
        }
    };
    if matches!(res, Err(ProtocolError::Superseded { .. })) {
        // A promoted deputy owns the run now: it writes the outcome and it
        // commands the slaves. Aborting them or writing a failed outcome
        // here would sabotage the legitimate reign — exit silently.
        return;
    }
    if res.is_err() {
        // Release every slave from whatever it is blocked on. recv_blocking
        // always matches Abort, so this cannot deadlock even outside fault
        // mode.
        for &s in &slaves {
            send(&ctx, s, Msg::Abort).await;
        }
    }
    let mut o = out.lock().unwrap_or_else(|p| p.into_inner());
    o.result = std::mem::take(&mut sc.result);
    o.timeline = std::mem::take(&mut sc.timeline);
    o.stats = cfg.balancer.stats();
    o.bounds = Some(cfg.balancer.period_bounds());
    o.compute_done = sc.compute_done;
    o.recovery = sc.recovery;
    o.completed = res.is_ok();
    o.error = res.err();
}

/// Fault-free control loop. Structurally the original master; every
/// protocol violation is a typed error instead of a panic.
async fn run_plain(
    ctx: &MailCtx<Msg>,
    cfg: &mut MasterConfig,
    slaves: &[ActorId],
    assignment: &[(usize, usize)],
    block_rows: u64,
    sc: &mut Scratch,
) -> Result<(), ProtocolError> {
    let n = slaves.len();
    for &s in slaves {
        send(
            ctx,
            s,
            Msg::Start {
                slaves: slaves.to_vec(),
                assignment: assignment.to_vec(),
                block_rows,
            },
        )
        .await;
    }

    // Per-channel counters: sent[a][b] = transfers a allocated towards b,
    // recv[b][a] = contiguous transfers from a applied at b.
    let mut sent = vec![vec![0u64; n]; n];
    let mut recv = vec![vec![0u64; n]; n];
    let all_alive = vec![true; n];

    let mut inv = 0;
    while inv < cfg.invocations {
        cfg.balancer
            .set_remaining_invocations(cfg.invocations - inv);
        if let Some(uph) = &cfg.units_per_hook {
            cfg.balancer.set_units_per_hook(uph(inv));
        }
        for &s in slaves {
            send(
                ctx,
                s,
                Msg::InvocationStart {
                    invocation: inv,
                    ckpt_stride: 1,
                },
            )
            .await;
        }
        let expected = (cfg.expected_units)(inv);
        let mut done_sum = 0u64;
        let mut idle = vec![false; n];
        let mut metrics = vec![0.0f64; n];

        loop {
            // Settlement check.
            if idle.iter().all(|&b| b)
                && done_sum >= expected
                && channels_settled(&all_alive, &sent, &recv)
                && cfg.balancer.outstanding_orders() == 0
            {
                if done_sum != expected {
                    return Err(ProtocolError::Inconsistent {
                        detail: format!(
                            "invocation {inv}: {done_sum} units completed, expected {expected}"
                        ),
                    });
                }
                break;
            }
            let env = ctx.recv().await;
            if crate::dlb_trace() {
                eprintln!(
                    "[master t={} inv={inv}] got {:?} (done {done_sum}/{expected}, idle {idle:?})",
                    ctx.now(),
                    match &env.msg {
                        Msg::Status(s) => format!(
                            "Status(slave {}, delta {}, active {})",
                            s.slave, s.units_done_delta, s.active_units
                        ),
                        other => format!("{other:?}").chars().take(60).collect::<String>(),
                    }
                );
            }
            match env.msg {
                Msg::Status(st) => {
                    if st.invocation > inv {
                        return Err(unexpected("status from the future", &Msg::Status(st)));
                    }
                    if st.invocation == inv {
                        done_sum += st.units_done_delta;
                    }
                    merge_max(&mut sent[st.slave], &st.sent_to);
                    merge_max(&mut recv[st.slave], &st.received_from);
                    idle[st.slave] = false;
                    ctx.advance_work(cfg.decision_cpu).await;
                    let decision = cfg.balancer.on_status(&st);
                    if cfg.record_timeline {
                        sc.timeline.push(TimelineSample {
                            t: ctx.now(),
                            slave: st.slave,
                            invocation: inv,
                            raw_rate: decision.raw_rate,
                            adjusted_rate: decision.adjusted_rate,
                            assigned: decision.owned_after,
                            hooks_to_skip: decision.instructions.hooks_to_skip,
                        });
                    }
                    send(
                        ctx,
                        slaves[st.slave],
                        Msg::Instructions(decision.instructions),
                    )
                    .await;
                }
                Msg::InvocationDone {
                    slave,
                    invocation,
                    sent_to,
                    received_from,
                    metric,
                    ..
                } => {
                    if invocation > inv {
                        return Err(ProtocolError::Inconsistent {
                            detail: format!("InvocationDone for {invocation} while settling {inv}"),
                        });
                    }
                    // A refreshed report for an earlier invocation (sent
                    // after executing late balancing moves) can straggle
                    // into the next settlement; its channel counts still
                    // matter, its idle claim does not.
                    if invocation == inv {
                        idle[slave] = true;
                        metrics[slave] = metric;
                    }
                    merge_max(&mut sent[slave], &sent_to);
                    merge_max(&mut recv[slave], &received_from);
                    cfg.balancer.ack_transfers(slave, &received_from);
                }
                Msg::SlaveError { slave, error } => {
                    return Err(ProtocolError::SlaveFailed {
                        slave,
                        error: Box::new(error),
                    });
                }
                other => return Err(unexpected("invocation loop", &other)),
            }
        }
        let reduced: f64 = metrics.iter().sum();
        inv += 1;
        if (cfg.converged)(inv - 1, reduced) {
            break;
        }
    }

    sc.compute_done = ctx.now();

    // Gather results.
    for &s in slaves {
        send(ctx, s, Msg::Gather).await;
    }
    let mut got = vec![false; n];
    while !got.iter().all(|&g| g) {
        let env = ctx.recv().await;
        match env.msg {
            Msg::GatherData {
                slave,
                units,
                fault_stats,
            } => {
                if !got[slave] {
                    got[slave] = true;
                    sc.recovery.absorb(&fault_stats);
                    sc.result.extend(units);
                }
                // No GatherAck in plain mode: the slave exits right after
                // replying, so an ack would never be received (and message
                // conservation is promised without faults).
            }
            // Final statuses racing the gather are harmless.
            Msg::Status(_) | Msg::InvocationDone { .. } => {}
            Msg::SlaveError { slave, error } => {
                return Err(ProtocolError::SlaveFailed {
                    slave,
                    error: Box::new(error),
                });
            }
            other => return Err(unexpected("gather", &other)),
        }
    }
    Ok(())
}

/// Admit every queued joiner into a settled recoverable session: the exact
/// inverse of an eviction. Each joiner is readmitted with its announced
/// incarnation (fresh two-clock state, fresh sender window — the previous
/// life's contiguous-ack watermark died with it), the balancer's accounting
/// for its slot is zeroed, and the whole unit set is re-ranged over the
/// enlarged survivor set with a takeover-style windowed `Rollback` — which
/// doubles as the joiners' state transfer *and* the barrier release. The
/// epoch bump fences every pre-admission message (including the joiners'
/// previous-life traffic) as stale.
#[allow(clippy::too_many_arguments)]
async fn admit_recoverable(
    ctx: &MailCtx<Msg>,
    cfg: &mut MasterConfig,
    ft: &MasterFt,
    slaves: &[ActorId],
    n_units: usize,
    inv: u64,
    tol: &FaultToleranceConfig,
    memb: &mut Membership,
    deferred: &mut [bool],
    pending_joins: &mut Vec<(usize, u64)>,
    owned: &mut [BTreeSet<usize>],
    win: &mut [SenderWindow<Msg>],
    unacked_instr: &mut [Option<(u64, Instructions, u32)>],
    last_hook_seq: &mut [u64],
    sent: &mut [Vec<u64>],
    recv: &mut [Vec<u64>],
    cur_epoch: &mut u64,
    released: &mut bool,
    rec: &mut RecoveryStats,
) {
    let recompute = ft
        .recompute_unit
        .as_ref()
        .expect("recoverable loop needs recompute_unit");
    let joiners = std::mem::take(pending_joins);
    let mut joined: Vec<usize> = Vec::new();
    let mut rejoined_any = false;
    for &(j, jinc) in &joiners {
        if memb.alive[j] || jinc < memb.incarnation[j] {
            continue; // raced an earlier admission, or a newer life exists
        }
        memb.readmit(j, jinc, ctx.now(), tol.nudge);
        cfg.balancer.admit(j);
        win[j] = SenderWindow::new();
        unacked_instr[j] = None;
        last_hook_seq[j] = 0;
        rec.joins_admitted += 1;
        if deferred[j] {
            deferred[j] = false;
        } else {
            rec.rejoins_after_eviction += 1;
            rejoined_any = true;
        }
        joined.push(j);
    }
    if joined.is_empty() {
        return;
    }
    if rejoined_any {
        rec.partitions_healed += 1;
    }
    *cur_epoch += 1;
    let survivors = memb.survivors();
    let ranges = crate::driver::block_ranges(n_units, survivors.len());
    let mut counts = vec![0u64; slaves.len()];
    for o in owned.iter_mut() {
        o.clear();
    }
    for (k, &sv) in survivors.iter().enumerate() {
        let (lo, hi) = ranges[k];
        counts[sv] = (hi - lo) as u64;
        owned[sv] = (lo..hi).collect();
        let units: Vec<(usize, UnitData)> = (lo..hi).map(|u| (u, recompute(u, inv))).collect();
        let epoch = *cur_epoch;
        let survivors_c = survivors.clone();
        let msg = win[sv]
            .send_with(|seq| Msg::Rollback {
                seq,
                epoch,
                invocation: inv,
                survivors: survivors_c,
                ckpt_stride: 1,
                units,
            })
            .clone();
        if joined.contains(&sv) {
            rec.join_snapshot_bytes += msg.wire_bytes();
        }
        send(ctx, slaves[sv], msg).await;
    }
    rec.rollbacks += 1;
    rec.units_rolled_back += n_units as u64;
    cfg.balancer.rebase(*cur_epoch, counts);
    // The slaves reset their channels when they rebase onto the new epoch,
    // so the settlement matrices restart from zero; everything tracked
    // under the old epoch is void (stale reports are epoch-fenced before
    // they can re-merge old maxima).
    for row in sent.iter_mut().chain(recv.iter_mut()) {
        row.iter_mut().for_each(|v| *v = 0);
    }
    // The Rollback doubles as the barrier release for `inv`.
    *released = true;
}

/// Recoverable control loop (independent pattern): silence-based failure
/// detection, channel-fenced eviction, speculative re-execution, and unit
/// re-scattering — with the dynamic balancer live throughout.
#[allow(clippy::too_many_arguments)]
async fn run_recoverable(
    ctx: &MailCtx<Msg>,
    cfg: &mut MasterConfig,
    ft: &MasterFt,
    slaves: &[ActorId],
    assignment: &[(usize, usize)],
    block_rows: u64,
    sc: &mut Scratch,
    takeover: Option<(&TakeoverSeed, usize)>,
) -> Result<(), ProtocolError> {
    let n = slaves.len();
    let tol = ft.tolerance.clone();
    let init_unit = ft
        .init_unit
        .as_ref()
        .expect("recoverable loop needs init_unit");
    let n_units = assignment.iter().map(|&(_, hi)| hi).max().unwrap_or(0);

    let start_msg = |slaves: &[ActorId]| Msg::Start {
        slaves: slaves.to_vec(),
        assignment: assignment.to_vec(),
        block_rows,
    };

    // Liveness state (suspicion, nudge rate-limiting, barrier flags) lives
    // in the session membership table; re-sends are event-triggered where
    // possible, so a fault-free run never produces one.
    let mut memb = Membership::new(n, ctx.now(), tol.nudge);
    let mut last_hook_seq = vec![0u64; n];
    // Ownership as the master believes it: refreshed from every
    // InvocationDone (`owned_ids`) and authoritative OwnReports. With the
    // balancer live this map can lag a transfer in flight; the eviction
    // protocol never trusts it alone (see resolve_evictions).
    let mut owned: Vec<BTreeSet<usize>> = assignment
        .iter()
        .map(|&(lo, hi)| (lo..hi).collect())
        .collect();
    // One sender window per destination for all recovery messages
    // (Restore / Speculate / SpecCommit / SpecCancel), acknowledged via
    // InvocationDone::restore_seq. The transition rules live in
    // `protocol::SenderWindow`, where the model checker in `dlb-analyze`
    // exercises them exhaustively.
    let mut win: Vec<SenderWindow<Msg>> = vec![SenderWindow::new(); n];
    // Bounded instruction retry: (seq, message, re-sends so far), cleared
    // when a status acknowledges the sequence number.
    let mut unacked_instr: Vec<Option<(u64, Instructions, u32)>> = (0..n).map(|_| None).collect();
    // Per-channel transfer settlement matrices (monotone max-merged).
    let mut sent = vec![vec![0u64; n]; n];
    let mut recv = vec![vec![0u64; n]; n];
    let mut evictions: Vec<Eviction> = Vec::new();
    let mut spec: Option<RestartSpec> = None;
    let mut fo = Failover::new(n, takeover.map_or(0, |(s, _)| s.term), &tol, ctx.now());
    // Mid-run admission queue: (slave, incarnation) of joiners waiting for
    // the next settled barrier. Admission never races an open eviction —
    // settlement requires the eviction set to be empty.
    let mut pending_joins: Vec<(usize, u64)> = Vec::new();
    // Slots whose initial assignment is empty are *deferred*: reserved for
    // latecomers. They start evicted (no death counted, no channel fence
    // broadcast — peers simply never hear from them) and enter through the
    // same admission path as a rejoiner.
    let mut deferred: Vec<bool> = assignment.iter().map(|&(lo, hi)| lo >= hi).collect();

    let mut inv = 0;
    // Epoch in force: 0 for an original reign. A takeover fences its reign
    // behind `term << 32` so every pre-promotion epoch is strictly older.
    let mut cur_epoch = 0u64;
    let mut released = false;
    if let Some((seed, me)) = takeover {
        // Seed the session from the replica instead of broadcasting Start:
        // the survivors are mid-run. Evict the dead, evict ourselves (the
        // winner computes no units), and roll everyone back to the
        // replicated invocation watermark with recomputed unit state.
        let recompute = ft
            .recompute_unit
            .as_ref()
            .expect("recoverable loop needs recompute_unit");
        for (i, d) in deferred.iter_mut().enumerate().take(n) {
            if !seed.replica.alive[i] || i == me {
                memb.evict(i);
                cfg.balancer.mark_dead(i);
            }
            if seed.replica.alive[i] {
                // Admitted before the crash: a later rejoin is a rejoin,
                // not a first-time (deferred) admission.
                *d = false;
            }
        }
        // Incarnation fencing survives the failover: the replica carries
        // the admitted-life table, so a pre-crash zombie stays fenced.
        memb.incarnation.clone_from(&seed.replica.incarnations);
        let survivors = memb.survivors();
        if survivors.is_empty() {
            return Err(ProtocolError::AllSlavesDead);
        }
        inv = seed.replica.invocation;
        cur_epoch = (seed.term << 32) | 1;
        let ranges = crate::driver::block_ranges(n_units, survivors.len());
        let mut counts = vec![0u64; n];
        for o in owned.iter_mut() {
            o.clear();
        }
        for (k, &sv) in survivors.iter().enumerate() {
            let (lo, hi) = ranges[k];
            counts[sv] = (hi - lo) as u64;
            owned[sv] = (lo..hi).collect();
            // Recompute each unit through the completed invocations: the
            // state at the start of invocation `inv`, bit-identical to what
            // the survivors would have held.
            let units: Vec<(usize, UnitData)> = (lo..hi).map(|u| (u, recompute(u, inv))).collect();
            let epoch = cur_epoch;
            let survivors_c = survivors.clone();
            let msg = win[sv]
                .send_with(|seq| Msg::Rollback {
                    seq,
                    epoch,
                    invocation: inv,
                    survivors: survivors_c,
                    ckpt_stride: 1,
                    units,
                })
                .clone();
            send(ctx, slaves[sv], msg).await;
        }
        sc.recovery.rollbacks += 1;
        sc.recovery.units_rolled_back += n_units as u64;
        cfg.balancer.rebase(cur_epoch, counts);
        // The Rollback doubles as the barrier release for `inv`.
        released = true;
    } else {
        for (i, &d) in deferred.iter().enumerate().take(n) {
            if d {
                memb.evict(i);
                cfg.balancer.mark_dead(i);
            }
        }
        // Deferred slots get the Start too: it parks in their mailbox and
        // teaches the latecomer the topology when it wakes to join.
        for &s in slaves {
            send(ctx, s, start_msg(slaves)).await;
        }
    }

    'invocations: while inv < cfg.invocations {
        if !pending_joins.is_empty() {
            admit_recoverable(
                ctx,
                cfg,
                ft,
                slaves,
                n_units,
                inv,
                &tol,
                &mut memb,
                &mut deferred,
                &mut pending_joins,
                &mut owned,
                &mut win,
                &mut unacked_instr,
                &mut last_hook_seq,
                &mut sent,
                &mut recv,
                &mut cur_epoch,
                &mut released,
                &mut sc.recovery,
            )
            .await;
        }
        cfg.balancer
            .set_remaining_invocations(cfg.invocations - inv);
        if let Some(uph) = &cfg.units_per_hook {
            cfg.balancer.set_units_per_hook(uph(inv));
        }
        if released {
            released = false;
        } else {
            for (i, &s) in slaves.iter().enumerate() {
                if memb.alive[i] {
                    send(
                        ctx,
                        s,
                        Msg::InvocationStart {
                            invocation: inv,
                            ckpt_stride: 1,
                        },
                    )
                    .await;
                }
            }
        }
        // Publish the control-plane replica for this barrier: membership,
        // the invocation watermark a takeover can resume at, and the
        // cumulative counters. No snapshot — this loop restarts from
        // `recompute_unit`, so the watermark alone is the whole state.
        if inv % tol.replicate_every.max(1) == 0 {
            let term = fo.term;
            let rec_snap = sc.recovery.clone();
            let alive = &memb.alive;
            let incarnations = &memb.incarnation;
            fo.publish(
                ctx,
                slaves,
                alive,
                inv,
                |_| ReplicaMsg {
                    term,
                    epoch: cur_epoch,
                    invocation: inv,
                    ckpt_stride: 1,
                    alive: alive.clone(),
                    incarnations: incarnations.clone(),
                    fresh: inv,
                    snapshot: None,
                    best_banked: 0,
                    recovery: rec_snap.clone(),
                },
                &mut sc.recovery,
            )
            .await;
        }
        for s in 0..n {
            memb.done[s] = false;
        }
        let mut metrics = vec![0.0f64; n];

        loop {
            let all_settled = (0..n)
                .all(|s| !memb.alive[s] || (memb.done[s] && win[s].fully_acked()))
                && evictions.is_empty()
                && channels_settled(&memb.alive, &sent, &recv)
                && cfg.balancer.outstanding_orders() == 0;
            if all_settled {
                break;
            }
            if let Some(env) = ctx.recv_deadline(ctx.now() + tol.master_tick).await {
                match env.msg {
                    Msg::Status(st) => {
                        let s = st.slave;
                        if !memb.alive[s] {
                            continue; // evicted slave still talking
                        }
                        if st.epoch < cur_epoch {
                            // Pre-takeover traffic from a survivor that has
                            // not applied this reign's Rollback yet: proof of
                            // life (defer suspicion) but not of progress —
                            // only `ping`, so `unheard_for` keeps growing and
                            // the window re-send timer below fires.
                            memb.ping(s, ctx.now());
                            sc.recovery.stale_epoch_dropped += 1;
                            continue;
                        }
                        memb.heard(s, ctx.now());
                        if spec.as_ref().is_some_and(|sp| sp.suspect == s) {
                            cancel_spec(ctx, slaves, &mut win, &mut spec, &mut sc.recovery).await;
                        }
                        if st.invocation > inv {
                            return Err(unexpected("status from the future", &Msg::Status(st)));
                        }
                        if st.hook_seq <= last_hook_seq[s] {
                            sc.recovery.status_dups_ignored += 1;
                            continue;
                        }
                        last_hook_seq[s] = st.hook_seq;
                        // A status means the slave is computing again.
                        memb.done[s] = false;
                        if let Some((seq, _, _)) = &unacked_instr[s] {
                            // Ack lag alone is no evidence of loss: a slave
                            // pipelines instructions, so it runs a couple of
                            // sequence numbers behind even fault-free, and a
                            // dropped instruction is superseded by the next
                            // one anyway. Retry only fires for a slave stuck
                            // at a barrier (see the InvocationDone arm),
                            // where nothing can supersede.
                            if st.last_applied_seq >= *seq {
                                unacked_instr[s] = None;
                            }
                        }
                        merge_max(&mut sent[s], &st.sent_to);
                        merge_max(&mut recv[s], &st.received_from);
                        ctx.advance_work(cfg.decision_cpu).await;
                        let decision = cfg.balancer.on_status(&st);
                        if cfg.record_timeline {
                            sc.timeline.push(TimelineSample {
                                t: ctx.now(),
                                slave: s,
                                invocation: inv,
                                raw_rate: decision.raw_rate,
                                adjusted_rate: decision.adjusted_rate,
                                assigned: decision.owned_after,
                                hooks_to_skip: decision.instructions.hooks_to_skip,
                            });
                        }
                        unacked_instr[s] =
                            Some((decision.instructions.seq, decision.instructions.clone(), 0));
                        send(ctx, slaves[s], Msg::Instructions(decision.instructions)).await;
                    }
                    Msg::InvocationDone {
                        slave,
                        invocation,
                        epoch,
                        sent_to,
                        received_from,
                        metric,
                        restore_seq,
                        owned_ids,
                        replica_inv,
                    } => {
                        if !memb.alive[slave] {
                            // A non-member still reporting (its Evict was
                            // lost, e.g. dropped by a partition): repeat the
                            // verdict so it can exit — or rejoin as a fresh
                            // incarnation when elastic membership is on.
                            send(ctx, slaves[slave], Msg::Evict).await;
                            sc.recovery.done_dups_ignored += 1;
                            continue;
                        }
                        fo.note_ack(slave, replica_inv);
                        if epoch < cur_epoch {
                            // Pre-takeover barrier report: alive, not
                            // progress (see the Status arm). Its restore_seq
                            // acknowledges the crashed master's window, not
                            // ours — never ack.
                            memb.ping(slave, ctx.now());
                            sc.recovery.stale_epoch_dropped += 1;
                            continue;
                        }
                        memb.heard(slave, ctx.now());
                        if spec.as_ref().is_some_and(|sp| sp.suspect == slave) {
                            cancel_spec(ctx, slaves, &mut win, &mut spec, &mut sc.recovery).await;
                        }
                        win[slave].ack(restore_seq);
                        merge_max(&mut sent[slave], &sent_to);
                        merge_max(&mut recv[slave], &received_from);
                        cfg.balancer.ack_transfers(slave, &received_from);
                        if invocation == inv {
                            memb.done[slave] = true;
                            metrics[slave] = metric;
                            // Fresh report for the current barrier: adopt its
                            // ownership snapshot. (A duplicated older report
                            // is caught by the invocation comparison; a
                            // transfer still in flight at most doubles a
                            // unit, which the deterministic gather dedups.)
                            owned[slave] = owned_ids.iter().copied().collect();
                        } else if invocation < inv {
                            sc.recovery.done_dups_ignored += 1;
                            // A heartbeat from a slave stuck at the previous
                            // barrier: its release was lost. The heartbeat
                            // itself is the re-send trigger — the slave is
                            // chatty, so a silence timer would never fire.
                            if memb.nudge_due(slave, ctx.now(), tol.nudge) {
                                send(
                                    ctx,
                                    slaves[slave],
                                    Msg::InvocationStart {
                                        invocation: inv,
                                        ckpt_stride: 1,
                                    },
                                )
                                .await;
                                sc.recovery.invocation_start_resends += 1;
                                // A stuck slave cannot supersede a lost
                                // instruction with a newer one; replay the
                                // unacknowledged one (bounded).
                                if let Some((_, instr, tries)) = &mut unacked_instr[slave] {
                                    if *tries < tol.instr_retries {
                                        *tries += 1;
                                        sc.recovery.instr_resends += 1;
                                        send(ctx, slaves[slave], Msg::Instructions(instr.clone()))
                                            .await;
                                    }
                                }
                            }
                        } else {
                            return Err(ProtocolError::Inconsistent {
                                detail: format!(
                                    "InvocationDone for {invocation} while settling {inv}"
                                ),
                            });
                        }
                        // Done but missing windowed messages: they were lost
                        // in flight. Replay everything unacknowledged.
                        if memb.done[slave]
                            && !win[slave].fully_acked()
                            && memb.nudge_due(slave, ctx.now(), tol.nudge)
                        {
                            for (_, msg) in win[slave].unacked() {
                                send(ctx, slaves[slave], msg.clone()).await;
                                sc.recovery.restore_resends += 1;
                            }
                        }
                    }
                    Msg::OwnReport {
                        slave: v,
                        about,
                        ids,
                    } => {
                        if !memb.alive[v] {
                            continue;
                        }
                        memb.heard(v, ctx.now());
                        if spec.as_ref().is_some_and(|sp| sp.suspect == v) {
                            cancel_spec(ctx, slaves, &mut win, &mut spec, &mut sc.recovery).await;
                        }
                        let mut matched = false;
                        for ev in evictions.iter_mut() {
                            if ev.dead == about && ev.awaiting.remove(&v) {
                                matched = true;
                            }
                        }
                        if !matched {
                            // Late duplicate (its eviction already resolved):
                            // the ids are stale — never adopt them.
                            sc.recovery.done_dups_ignored += 1;
                            continue;
                        }
                        owned[v] = ids.into_iter().collect();
                        memb.done[v] = false;
                        if !evictions.is_empty() && evictions.iter().all(|e| e.awaiting.is_empty())
                        {
                            resolve_evictions(
                                ctx,
                                slaves,
                                n_units,
                                inv,
                                &mut memb,
                                &mut owned,
                                &mut win,
                                &mut evictions,
                                &mut spec,
                                init_unit,
                                &mut sc.recovery,
                            )
                            .await;
                        }
                    }
                    // A slave blocked on a peer (not the master) pings so
                    // the suspicion timer cannot mistake it for a crash.
                    // Pings are incarnation-stamped: a rejoined slot only
                    // credits its *current* life, so a zombie's leftover
                    // heartbeats cannot vouch for the new one (E111).
                    Msg::Alive { slave, incarnation } => {
                        if memb.alive[slave] && incarnation == memb.incarnation[slave] {
                            memb.ping(slave, ctx.now());
                            if spec.as_ref().is_some_and(|sp| sp.suspect == slave) {
                                cancel_spec(ctx, slaves, &mut win, &mut spec, &mut sc.recovery)
                                    .await;
                            }
                        } else if !memb.alive[slave] && incarnation >= memb.incarnation[slave] {
                            // The latest life of an evicted slot is still
                            // heartbeating — its Evict was lost. Repeat it so
                            // the slave can exit or rejoin. (Older
                            // incarnations are zombies; the Evict would reach
                            // the current life, so they get nothing.)
                            send(ctx, slaves[slave], Msg::Evict).await;
                        }
                    }
                    Msg::Join { slave, incarnation } => {
                        if tol.rejoin_attempts == 0 {
                            // Elastic membership is opt-in; without it every
                            // join is refused so the joiner cannot hot-loop.
                            send(ctx, slaves[slave], Msg::JoinRefuse { slave }).await;
                        } else if memb.alive[slave] {
                            // Already admitted: its admission Rollback (the
                            // handshake's exit signal) must have been lost.
                            // Replay the window; zombies (older incarnation)
                            // are ignored outright.
                            if incarnation == memb.incarnation[slave]
                                && memb.nudge_due(slave, ctx.now(), tol.nudge)
                            {
                                for (_, msg) in win[slave].unacked() {
                                    send(ctx, slaves[slave], msg.clone()).await;
                                    sc.recovery.restore_resends += 1;
                                }
                            }
                        } else if incarnation >= memb.incarnation[slave] {
                            // Queue for the next settled barrier; dedup on
                            // the newest announced life.
                            match pending_joins.iter_mut().find(|(s, _)| *s == slave) {
                                Some(p) => p.1 = p.1.max(incarnation),
                                None => pending_joins.push((slave, incarnation)),
                            }
                        }
                    }
                    Msg::SlaveError { slave, error } => {
                        if !memb.alive[slave] {
                            // A non-member's dying report (it wedged inside a
                            // partition we evicted it across): not fatal to
                            // the run — repeat the eviction verdict instead.
                            send(ctx, slaves[slave], Msg::Evict).await;
                            continue;
                        }
                        return Err(ProtocolError::SlaveFailed {
                            slave,
                            error: Box::new(error),
                        });
                    }
                    // A still-newer reign fenced us out: exit silently, it
                    // owns the run now. Stale or duplicate Promoted for our
                    // own (or an older) term is ignored.
                    Msg::Promoted { term, .. } => {
                        if term > fo.term {
                            return Err(ProtocolError::Superseded { term });
                        }
                    }
                    other => {
                        if takeover.is_some() {
                            // A promoted deputy still has a slave's address:
                            // stray peer traffic (late transfers/acks,
                            // election chatter, messages the crashed master
                            // had in flight) keeps arriving. All of it is
                            // pre-reign — tolerate silently.
                            continue;
                        }
                        return Err(unexpected("recoverable invocation loop", &other));
                    }
                }
            }

            // Timers: suspicion, speculation, and nudges for every live,
            // unsettled slave.
            let now = ctx.now();
            for s in 0..n {
                if !memb.alive[s] {
                    continue;
                }
                // A settled slave is exempt from suspicion — unless a
                // pending eviction is waiting on its OwnReport. A survivor
                // that dies *after* settling would otherwise stall the
                // eviction forever: nothing re-arms its timer, and the
                // awaiting set never drains.
                let awaited = evictions.iter().any(|ev| ev.awaiting.contains(&s));
                let settled_s = memb.done[s] && win[s].fully_acked() && !awaited;
                if settled_s {
                    continue;
                }
                let silent = memb.silent_for(s, now);
                if silent >= tol.suspicion {
                    // Declare dead, fence off its channels, and wait for the
                    // survivors' ownership reports before re-scattering.
                    memb.evict(s);
                    if crate::dlb_trace() {
                        eprintln!("[master t={now}] declaring slave {s} dead (inv {inv})");
                    }
                    sc.recovery.slaves_declared_dead += 1;
                    sc.recovery.first_death.get_or_insert(now);
                    send(ctx, slaves[s], Msg::Evict).await;
                    cfg.balancer.mark_dead(s);
                    // Its per-invocation metric no longer counts: survivors
                    // recompute its units and contribute their metric.
                    metrics[s] = 0.0;
                    unacked_instr[s] = None;
                    let dead_owned: Vec<usize> =
                        std::mem::take(&mut owned[s]).into_iter().collect();
                    if spec.as_ref().is_some_and(|sp| sp.executor == s) {
                        // The speculation died with its executor.
                        spec = None;
                    }
                    for ev in evictions.iter_mut() {
                        ev.awaiting.remove(&s);
                    }
                    let survivors = memb.survivors();
                    if survivors.is_empty() {
                        return Err(ProtocolError::AllSlavesDead);
                    }
                    for &v in &survivors {
                        send(ctx, slaves[v], Msg::Evicted { slave: s }).await;
                    }
                    evictions.push(Eviction {
                        dead: s,
                        awaiting: survivors.into_iter().collect(),
                        dead_owned,
                    });
                    continue;
                }
                if silent >= tol.speculate_after
                    && spec.is_none()
                    && evictions.is_empty()
                    && !owned[s].is_empty()
                {
                    // Suspicion is building: start recomputing the suspect's
                    // units on an idle, fully settled survivor so an eviction
                    // commits finished results instead of replaying.
                    if let Some(e) = (0..n)
                        .find(|&e| e != s && memb.alive[e] && memb.done[e] && win[e].fully_acked())
                    {
                        let ids: Vec<usize> = owned[s].iter().copied().collect();
                        let units: Vec<(usize, UnitData)> =
                            ids.iter().map(|&u| (u, init_unit(u))).collect();
                        let msg = win[e]
                            .send_with(|seq| Msg::Speculate {
                                seq,
                                invocation: inv,
                                units,
                            })
                            .clone();
                        send(ctx, slaves[e], msg).await;
                        let spec_seq = win[e].seq_sent();
                        spec = Some(RestartSpec {
                            suspect: s,
                            executor: e,
                            spec_seq,
                            ids,
                        });
                        sc.recovery.speculations_launched += 1;
                    }
                }
                if takeover.is_none() && !memb.heard_any[s] && memb.nudge_due(s, now, tol.nudge) {
                    // A slave that has never spoken a protocol message may
                    // have lost its Start or its first release; its `Alive`
                    // pings refresh the suspicion timer but carry no
                    // evidence of what it is missing, so re-send both on
                    // the nudge timer. Every other loss is event-triggered
                    // from the receive arms above: a slave missing a
                    // control message keeps heartbeating, and the
                    // heartbeat itself carries what it is missing. (Never
                    // under a takeover: the survivors are mid-run, and the
                    // reign's opening move is the Rollback, not a Start.)
                    send(ctx, slaves[s], start_msg(slaves)).await;
                    sc.recovery.start_resends += 1;
                    send(
                        ctx,
                        slaves[s],
                        Msg::InvocationStart {
                            invocation: inv,
                            ckpt_stride: 1,
                        },
                    )
                    .await;
                    sc.recovery.invocation_start_resends += 1;
                } else if !win[s].fully_acked()
                    && memb.unheard_for(s, now) >= tol.nudge
                    && memb.nudge_due(s, now, tol.nudge)
                {
                    // Windowed messages outstanding to a slave that has made
                    // no protocol progress (stale-epoch chatter counts only
                    // as `ping`): the window content was lost. Replay it —
                    // under a takeover, led by the Promoted announcement in
                    // case the slave never learned of the reign (it resets
                    // the slave's master-channel dedup so the replayed
                    // Rollback is fresh to it).
                    if let Some((seed, me)) = takeover {
                        send(
                            ctx,
                            slaves[s],
                            Msg::Promoted {
                                term: seed.term,
                                master_idx: me,
                            },
                        )
                        .await;
                    }
                    for (_, msg) in win[s].unacked() {
                        send(ctx, slaves[s], msg.clone()).await;
                        sc.recovery.restore_resends += 1;
                    }
                }
            }
            fo.ping(ctx, slaves, &memb.alive, &tol, &mut sc.recovery)
                .await;
            // A lost Evicted (or a lost OwnReport) stalls an eviction; the
            // awaiting survivors are re-notified on the nudge timer. The
            // slave-side dedup makes the re-broadcast idempotent.
            for ev in &evictions {
                for &v in &ev.awaiting {
                    if memb.nudge_due(v, now, tol.nudge) {
                        send(ctx, slaves[v], Msg::Evicted { slave: ev.dead }).await;
                        sc.recovery.restore_resends += 1;
                    }
                }
            }
            if !memb.any_alive() {
                return Err(ProtocolError::AllSlavesDead);
            }
        }
        let reduced: f64 = metrics.iter().sum();
        inv += 1;
        if (cfg.converged)(inv - 1, reduced) {
            break 'invocations;
        }
    }

    sc.compute_done = ctx.now();

    // Too late to admit once the run is gathering: refuse queued joiners so
    // their bounded handshake exits instead of retrying into silence.
    for (j, _) in pending_joins.drain(..) {
        send(ctx, slaves[j], Msg::JoinRefuse { slave: j }).await;
    }

    // Gather from the survivors; a slave dying here gets its units
    // recomputed locally from the retained initial data (safety net).
    let recompute = ft
        .recompute_unit
        .as_ref()
        .expect("recoverable loop needs recompute_unit");
    let mut seen: BTreeMap<usize, UnitData> = BTreeMap::new();
    let mut got = vec![false; n];
    let now0 = ctx.now();
    if crate::dlb_trace() {
        eprintln!(
            "[master t={now0}] recoverable gather begins, alive {:?}",
            memb.alive
        );
    }
    for (s, &slave_id) in slaves.iter().enumerate() {
        memb.rearm_nudge(s, now0, tol.nudge);
        memb.last_heard[s] = now0;
        if memb.alive[s] {
            send(ctx, slave_id, Msg::Gather).await;
        }
    }
    loop {
        if (0..n).all(|s| !memb.alive[s] || got[s]) {
            break;
        }
        if let Some(env) = ctx.recv_deadline(ctx.now() + tol.master_tick).await {
            match env.msg {
                Msg::GatherData {
                    slave,
                    units,
                    fault_stats,
                } => {
                    if !memb.alive[slave] {
                        sc.recovery.gather_dups_ignored += 1;
                        continue;
                    }
                    memb.last_heard[slave] = ctx.now();
                    send(ctx, slaves[slave], Msg::GatherAck).await;
                    if got[slave] {
                        sc.recovery.gather_dups_ignored += 1;
                        continue;
                    }
                    got[slave] = true;
                    sc.recovery.absorb(&fault_stats);
                    for (id, data) in units {
                        // A unit restored while its old owner's transfer was
                        // still in flight can briefly have two owners; both
                        // copies are deterministic and identical — keep the
                        // first.
                        match seen.entry(id) {
                            Entry::Vacant(e) => {
                                e.insert(data);
                            }
                            Entry::Occupied(_) => sc.recovery.gather_dup_units_dropped += 1,
                        }
                    }
                }
                // Final statuses and idle heartbeats racing the gather. A
                // heartbeat from a slave that owes us data means it never
                // received the Gather — the heartbeat is the re-send
                // trigger (it is chatty, so a silence timer never fires).
                Msg::Status(st) => {
                    let s = st.slave;
                    if memb.alive[s] {
                        memb.last_heard[s] = ctx.now();
                        if !got[s] && memb.nudge_due(s, ctx.now(), tol.nudge) {
                            send(ctx, slaves[s], Msg::Gather).await;
                            sc.recovery.gather_resends += 1;
                        }
                    }
                }
                Msg::InvocationDone {
                    slave,
                    restore_seq,
                    epoch,
                    ..
                } => {
                    if memb.alive[slave] {
                        memb.last_heard[slave] = ctx.now();
                        // A stale report (pre-takeover or a rejoiner's
                        // previous life) acknowledges an older window, not
                        // the one in force.
                        if epoch >= cur_epoch {
                            win[slave].ack(restore_seq);
                        }
                        if !got[slave] && memb.nudge_due(slave, ctx.now(), tol.nudge) {
                            send(ctx, slaves[slave], Msg::Gather).await;
                            sc.recovery.gather_resends += 1;
                        }
                    } else {
                        // Non-member still reporting: its Evict was lost.
                        send(ctx, slaves[slave], Msg::Evict).await;
                    }
                }
                // A duplicated Evicted delivery can make a survivor repeat
                // an old ownership report during the gather; it is only a
                // liveness signal here.
                Msg::OwnReport { slave, .. } => {
                    if memb.alive[slave] {
                        memb.last_heard[slave] = ctx.now();
                        if !got[slave] && memb.nudge_due(slave, ctx.now(), tol.nudge) {
                            send(ctx, slaves[slave], Msg::Gather).await;
                            sc.recovery.gather_resends += 1;
                        }
                    }
                }
                Msg::Alive { slave, incarnation } => {
                    if memb.alive[slave] && incarnation == memb.incarnation[slave] {
                        // Defers suspicion only; the timer sweep below still
                        // re-sends Gather on protocol silence.
                        memb.ping(slave, ctx.now());
                    } else if !memb.alive[slave] && incarnation >= memb.incarnation[slave] {
                        // Latest life of a non-member: repeat the lost Evict.
                        send(ctx, slaves[slave], Msg::Evict).await;
                    }
                }
                // The run is gathering: no more admissions this run.
                Msg::Join { slave, .. } => {
                    send(ctx, slaves[slave], Msg::JoinRefuse { slave }).await;
                }
                Msg::SlaveError { slave, error } => {
                    if !memb.alive[slave] {
                        send(ctx, slaves[slave], Msg::Evict).await;
                        continue;
                    }
                    return Err(ProtocolError::SlaveFailed {
                        slave,
                        error: Box::new(error),
                    });
                }
                Msg::Promoted { term, .. } => {
                    if term > fo.term {
                        return Err(ProtocolError::Superseded { term });
                    }
                }
                other => {
                    if takeover.is_some() {
                        continue; // stray pre-reign traffic (see above)
                    }
                    return Err(unexpected("recoverable gather", &other));
                }
            }
        }
        let now = ctx.now();
        for s in 0..n {
            if !memb.alive[s] || got[s] {
                continue;
            }
            let silent = memb.silent_for(s, now);
            if silent >= tol.suspicion {
                // Dead during the gather: the end-of-gather safety net
                // recomputes whatever no survivor delivered.
                memb.evict(s);
                sc.recovery.gathers_interrupted += 1;
                sc.recovery.slaves_declared_dead += 1;
                sc.recovery.first_death.get_or_insert(now);
                send(ctx, slaves[s], Msg::Evict).await;
                owned[s].clear();
            } else if memb.unheard_for(s, now) >= tol.nudge && memb.nudge_due(s, now, tol.nudge) {
                // Silent but not yet suspect: the slave may be waiting for
                // a GatherAck after its GatherData was lost (it waits
                // quietly, re-sending only on a duplicate Gather).
                send(ctx, slaves[s], Msg::Gather).await;
                sc.recovery.gather_resends += 1;
            }
        }
        // Keep the deputies' election trigger quiet through the gather.
        fo.ping(ctx, slaves, &memb.alive, &tol, &mut sc.recovery)
            .await;
    }
    // Safety net: any unit no survivor delivered is recomputed locally
    // from initial data (deterministic, so bit-identical to the lost copy).
    for u in 0..n_units {
        if let Entry::Vacant(e) = seen.entry(u) {
            e.insert(recompute(u, inv));
            sc.recovery.units_recomputed += 1;
        }
    }
    sc.result.extend(seen);
    Ok(())
}

/// Checkpointed control loop (pipelined/shrinking patterns): slaves ship
/// best-effort state checkpoints at invocation barriers; a death or an
/// unrecoverable protocol loss rolls the survivors back to the newest
/// complete checkpoint instead of aborting the run. Session state —
/// membership, epoch, bank, speculation, stride — lives in
/// [`CkSession`]; this function is the protocol driver.
#[allow(clippy::too_many_arguments)]
async fn run_checkpointed(
    ctx: &MailCtx<Msg>,
    cfg: &mut MasterConfig,
    ft: &MasterFt,
    slaves: &[ActorId],
    assignment: &[(usize, usize)],
    block_rows: u64,
    sc: &mut Scratch,
    takeover: Option<(&TakeoverSeed, usize)>,
) -> Result<(), ProtocolError> {
    let n = slaves.len();
    let tol = ft.tolerance.clone();
    let ck_init = ft
        .checkpoint_init
        .as_ref()
        .expect("checkpointed loop needs checkpoint_init");
    let n_units = assignment.iter().map(|&(_, hi)| hi).max().unwrap_or(0);

    let start_msg = |slaves: &[ActorId]| Msg::Start {
        slaves: slaves.to_vec(),
        assignment: assignment.to_vec(),
        block_rows,
    };

    let mut st = CkSession::new(ctx.now(), n, &tol);
    let mut fo = Failover::new(n, takeover.map_or(0, |(s, _)| s.term), &tol, ctx.now());
    // Window-acknowledgement floor: reports from epochs below the reign
    // floor acknowledge the *crashed* master's window, never ours.
    let reign = takeover.map_or(0, |(s, _)| s.term << 32);
    // Per-slave refinement of the floor: a rejoined slot's fresh window
    // must not be acknowledged by the previous life's in-flight reports,
    // so admission raises the slot's floor to the admission epoch (E112
    // guards the same boundary on the snapshot side).
    let mut join_epoch = vec![reign; n];
    // See the recoverable loop: queued joiners + latecomer slots.
    let mut pending_joins: Vec<(usize, u64)> = Vec::new();
    let mut deferred: Vec<bool> = assignment.iter().map(|&(lo, hi)| lo >= hi).collect();
    if let Some((seed, me)) = takeover {
        // Seed the session from the replica instead of broadcasting Start.
        // The reign's epochs live above `term << 32`, strictly newer than
        // anything the old master (or a previous reign) ever issued.
        st.epoch = seed.term << 32;
        for (i, d) in deferred.iter_mut().enumerate().take(n) {
            if !seed.replica.alive[i] || i == me {
                st.memb.evict(i);
                cfg.balancer.mark_dead(i);
            }
            if seed.replica.alive[i] {
                *d = false;
            }
        }
        // Incarnation fencing survives the failover (see the recoverable
        // takeover seeding).
        st.memb.incarnation.clone_from(&seed.replica.incarnations);
        if !st.memb.any_alive() {
            return Err(ProtocolError::AllSlavesDead);
        }
        if let Some((ck_inv, units)) = seed.replica.snapshot.clone() {
            st.bank.offer(ck_inv, units, n_units);
        }
        // How much further back the run restarts because our replica lagged
        // the old master's bank (0 = we resume from its newest checkpoint).
        sc.recovery.checkpoints_lost_to_stale_replica = seed
            .replica
            .best_banked
            .saturating_sub(st.bank.best_invocation().unwrap_or(0));
        // Roll the survivors back to the newest replicated checkpoint; the
        // Rollback doubles as the barrier release (`released`).
        st.rollback(
            ctx,
            slaves,
            &mut cfg.balancer,
            ck_init,
            n_units,
            &tol,
            &mut sc.recovery,
        )
        .await?;
    } else {
        for (i, &d) in deferred.iter().enumerate().take(n) {
            if d {
                st.memb.evict(i);
                cfg.balancer.mark_dead(i);
            }
        }
        // Deferred slots get the Start too: it parks in their mailbox and
        // teaches the latecomer the topology when it wakes to join.
        for &s in slaves {
            send(ctx, s, start_msg(slaves)).await;
        }
    }
    // Convergence can end the run early; a post-convergence rollback must
    // not run invocations the converged run never executed.
    let mut target = cfg.invocations;

    'run: loop {
        'invocations: while st.inv < target {
            if !pending_joins.is_empty() {
                // Admission barrier, checkpointed flavor: readmit the
                // joiners, then roll *everyone* back to the newest banked
                // checkpoint — the rollback's windowed broadcast is both
                // the joiners' state transfer and the barrier release,
                // and its epoch bump fences their previous lives.
                let joiners = std::mem::take(&mut pending_joins);
                let mut joined: Vec<usize> = Vec::new();
                let mut rejoined_any = false;
                for &(j, jinc) in &joiners {
                    if st.memb.alive[j] || jinc < st.memb.incarnation[j] {
                        continue;
                    }
                    st.memb.readmit(j, jinc, ctx.now(), tol.nudge);
                    cfg.balancer.admit(j);
                    st.win[j] = SenderWindow::new();
                    st.unacked_instr[j] = None;
                    st.last_hook_seq[j] = 0;
                    sc.recovery.joins_admitted += 1;
                    if deferred[j] {
                        deferred[j] = false;
                    } else {
                        sc.recovery.rejoins_after_eviction += 1;
                        rejoined_any = true;
                    }
                    joined.push(j);
                }
                if !joined.is_empty() {
                    if rejoined_any {
                        sc.recovery.partitions_healed += 1;
                    }
                    st.rollback(
                        ctx,
                        slaves,
                        &mut cfg.balancer,
                        ck_init,
                        n_units,
                        &tol,
                        &mut sc.recovery,
                    )
                    .await?;
                    for &j in &joined {
                        join_epoch[j] = st.epoch;
                        for (_, msg) in st.win[j].unacked() {
                            sc.recovery.join_snapshot_bytes += msg.wire_bytes();
                        }
                    }
                }
            }
            cfg.balancer.set_remaining_invocations(target - st.inv);
            if let Some(uph) = &cfg.units_per_hook {
                cfg.balancer.set_units_per_hook(uph(st.inv));
            }
            if st.released {
                // The Rollback message itself released this invocation.
                st.released = false;
            } else {
                for (i, &s) in slaves.iter().enumerate() {
                    if st.memb.alive[i] {
                        send(
                            ctx,
                            s,
                            Msg::InvocationStart {
                                invocation: st.inv,
                                ckpt_stride: st.ckpt_stride,
                            },
                        )
                        .await;
                    }
                }
            }
            // Publish the control-plane replica for this barrier. The
            // freshness a deputy can take over from is the newest complete
            // banked checkpoint; the snapshot payload rides only until the
            // deputy confirms holding it (`InvocationDone::replica_inv`).
            if st.inv.is_multiple_of(tol.replicate_every.max(1)) {
                let term = fo.term;
                let fresh = st.bank.best_invocation().unwrap_or(0);
                let (epoch, invocation, ckpt_stride) = (st.epoch, st.inv, st.ckpt_stride);
                let rec_snap = sc.recovery.clone();
                let (alive, bank) = (&st.memb.alive, &st.bank);
                let incarnations = &st.memb.incarnation;
                fo.publish(
                    ctx,
                    slaves,
                    alive,
                    fresh,
                    |with_snap| ReplicaMsg {
                        term,
                        epoch,
                        invocation,
                        ckpt_stride,
                        alive: alive.clone(),
                        incarnations: incarnations.clone(),
                        fresh,
                        snapshot: if with_snap {
                            bank.best_snapshot()
                        } else {
                            None
                        },
                        best_banked: fresh,
                        recovery: rec_snap.clone(),
                    },
                    &mut sc.recovery,
                )
                .await;
            }
            for s in 0..n {
                st.memb.done[s] = false;
                st.metrics[s] = 0.0;
            }
            st.inv_started = ctx.now();

            loop {
                if st.settled(&cfg.balancer) {
                    break;
                }
                if let Some(env) = ctx.recv_deadline(ctx.now() + tol.master_tick).await {
                    match env.msg {
                        Msg::Status(stm) => {
                            let s = stm.slave;
                            if !st.memb.alive[s] {
                                continue;
                            }
                            // Epoch fence: a pre-rollback status describes a
                            // distribution that no longer exists. It proves
                            // the slave is alive (defer suspicion with
                            // `ping`) but not that it made protocol progress
                            // — `unheard_for` keeps growing, so the window
                            // re-send timer still fires for its lost
                            // Rollback.
                            if stm.epoch < st.epoch {
                                st.memb.ping(s, ctx.now());
                                st.cancel_speculation_for(s, &mut sc.recovery);
                                sc.recovery.stale_epoch_dropped += 1;
                                continue;
                            }
                            st.memb.heard(s, ctx.now());
                            st.cancel_speculation_for(s, &mut sc.recovery);
                            if stm.epoch > st.epoch || stm.invocation > st.inv {
                                return Err(unexpected(
                                    "status from the future",
                                    &Msg::Status(stm),
                                ));
                            }
                            if stm.hook_seq <= st.last_hook_seq[s] {
                                sc.recovery.status_dups_ignored += 1;
                                continue;
                            }
                            st.last_hook_seq[s] = stm.hook_seq;
                            st.memb.done[s] = false;
                            if let Some((seq, _, _)) = &st.unacked_instr[s] {
                                if stm.last_applied_seq >= *seq {
                                    st.unacked_instr[s] = None;
                                }
                            }
                            merge_max(&mut st.sent[s], &stm.sent_to);
                            merge_max(&mut st.recv[s], &stm.received_from);
                            ctx.advance_work(cfg.decision_cpu).await;
                            let decision = cfg.balancer.on_status(&stm);
                            if cfg.record_timeline {
                                sc.timeline.push(TimelineSample {
                                    t: ctx.now(),
                                    slave: s,
                                    invocation: st.inv,
                                    raw_rate: decision.raw_rate,
                                    adjusted_rate: decision.adjusted_rate,
                                    assigned: decision.owned_after,
                                    hooks_to_skip: decision.instructions.hooks_to_skip,
                                });
                            }
                            st.unacked_instr[s] =
                                Some((decision.instructions.seq, decision.instructions.clone(), 0));
                            send(ctx, slaves[s], Msg::Instructions(decision.instructions)).await;
                        }
                        Msg::InvocationDone {
                            slave,
                            invocation,
                            epoch,
                            sent_to,
                            received_from,
                            metric,
                            restore_seq,
                            replica_inv,
                            ..
                        } => {
                            if !st.memb.alive[slave] {
                                // A non-member still reporting (its Evict was
                                // lost, e.g. dropped by a partition): repeat
                                // the verdict so it can exit — or rejoin as a
                                // fresh incarnation under elastic membership.
                                send(ctx, slaves[slave], Msg::Evict).await;
                                sc.recovery.done_dups_ignored += 1;
                                continue;
                            }
                            fo.note_ack(slave, replica_inv);
                            st.cancel_speculation_for(slave, &mut sc.recovery);
                            // Ack before the epoch fence: the master-channel
                            // watermark is not epoch-scoped within a reign,
                            // and a stale report still proves what the slave
                            // applied. Below the slot's floor the watermark
                            // belongs to an older window — the crashed
                            // master's (reign) or a previous life's (raised
                            // at admission) — never ack.
                            if epoch >= join_epoch[slave] {
                                st.win[slave].ack(restore_seq);
                            }
                            if epoch < st.epoch {
                                // Alive, but pre-rollback: see the Status
                                // arm.
                                st.memb.ping(slave, ctx.now());
                                sc.recovery.stale_epoch_dropped += 1;
                                continue;
                            }
                            st.memb.heard(slave, ctx.now());
                            if epoch > st.epoch {
                                return Err(ProtocolError::Inconsistent {
                                    detail: format!(
                                        "InvocationDone from epoch {epoch} while in {}",
                                        st.epoch
                                    ),
                                });
                            }
                            merge_max(&mut st.sent[slave], &sent_to);
                            merge_max(&mut st.recv[slave], &received_from);
                            cfg.balancer.ack_transfers(slave, &received_from);
                            if invocation == st.inv {
                                st.memb.done[slave] = true;
                                st.metrics[slave] = metric;
                            } else if invocation < st.inv {
                                sc.recovery.done_dups_ignored += 1;
                                if st.memb.nudge_due(slave, ctx.now(), tol.nudge) {
                                    send(
                                        ctx,
                                        slaves[slave],
                                        Msg::InvocationStart {
                                            invocation: st.inv,
                                            ckpt_stride: st.ckpt_stride,
                                        },
                                    )
                                    .await;
                                    sc.recovery.invocation_start_resends += 1;
                                    if let Some((_, instr, tries)) = &mut st.unacked_instr[slave] {
                                        if *tries < tol.instr_retries {
                                            *tries += 1;
                                            sc.recovery.instr_resends += 1;
                                            send(
                                                ctx,
                                                slaves[slave],
                                                Msg::Instructions(instr.clone()),
                                            )
                                            .await;
                                        }
                                    }
                                }
                            } else {
                                return Err(ProtocolError::Inconsistent {
                                    detail: format!(
                                        "InvocationDone for {invocation} while settling {}",
                                        st.inv
                                    ),
                                });
                            }
                            if st.memb.done[slave]
                                && !st.win[slave].fully_acked()
                                && st.memb.nudge_due(slave, ctx.now(), tol.nudge)
                            {
                                for (_, msg) in st.win[slave].unacked() {
                                    send(ctx, slaves[slave], msg.clone()).await;
                                    sc.recovery.restore_resends += 1;
                                }
                            }
                        }
                        Msg::Checkpoint {
                            slave,
                            invocation,
                            units,
                        } => {
                            if st.memb.alive[slave] {
                                st.memb.heard(slave, ctx.now());
                                st.cancel_speculation_for(slave, &mut sc.recovery);
                            }
                            // The speculative result banks like any other
                            // checkpoint; only the accounting differs.
                            st.note_speculative_checkpoint(
                                slave,
                                invocation,
                                units.len(),
                                &mut sc.recovery,
                            );
                            // Checkpoints carry no epoch on purpose: the
                            // state after k invocations is deterministic
                            // regardless of which distribution computed it,
                            // so contributions bank from any epoch.
                            if st.bank.offer(invocation, units, n_units) {
                                sc.recovery.checkpoints_banked += 1;
                            }
                        }
                        // A gather interrupted by a rollback can leave stale
                        // GatherData in flight; harmless here.
                        Msg::GatherData { .. } => {
                            sc.recovery.gather_dups_ignored += 1;
                        }
                        Msg::SlaveError { slave, error } => {
                            if !st.memb.alive[slave] {
                                // Repeat the lost eviction verdict; the slave
                                // exits or rejoins instead of wedging.
                                send(ctx, slaves[slave], Msg::Evict).await;
                                continue;
                            }
                            if !st.win[slave].fully_acked() {
                                // The error predates a rollback already in
                                // flight to this slave; the rollback will
                                // resolve it.
                                continue;
                            }
                            if !slave_recoverable(&error) {
                                // The slave itself failed: evict it, then
                                // roll the survivors back.
                                st.evict(ctx, slaves, &mut cfg.balancer, slave, &mut sc.recovery)
                                    .await;
                            }
                            // Either way the run restarts from the newest
                            // complete checkpoint; a recoverable slave
                            // parks quietly until its Rollback arrives.
                            st.rollback(
                                ctx,
                                slaves,
                                &mut cfg.balancer,
                                ck_init,
                                n_units,
                                &tol,
                                &mut sc.recovery,
                            )
                            .await?;
                            continue 'invocations;
                        }
                        // A slave blocked on a peer (a halo or pivot from a
                        // crashed neighbour) pings so the suspicion timer
                        // cannot mistake the stall for a second crash.
                        // Incarnation-stamped: a zombie's leftover pings
                        // cannot vouch for a rejoined life (E111).
                        Msg::Alive { slave, incarnation } => {
                            if st.memb.alive[slave] && incarnation == st.memb.incarnation[slave] {
                                st.memb.ping(slave, ctx.now());
                                st.cancel_speculation_for(slave, &mut sc.recovery);
                            } else if !st.memb.alive[slave]
                                && incarnation >= st.memb.incarnation[slave]
                            {
                                // Latest life of a non-member heartbeating:
                                // repeat the lost Evict so it can exit or
                                // rejoin.
                                send(ctx, slaves[slave], Msg::Evict).await;
                            }
                        }
                        Msg::Join { slave, incarnation } => {
                            if tol.rejoin_attempts == 0 {
                                send(ctx, slaves[slave], Msg::JoinRefuse { slave }).await;
                            } else if st.memb.alive[slave] {
                                // Admitted, but its admission Rollback was
                                // lost: replay the window (zombies ignored).
                                if incarnation == st.memb.incarnation[slave]
                                    && st.memb.nudge_due(slave, ctx.now(), tol.nudge)
                                {
                                    for (_, msg) in st.win[slave].unacked() {
                                        send(ctx, slaves[slave], msg.clone()).await;
                                        sc.recovery.restore_resends += 1;
                                    }
                                }
                            } else if incarnation >= st.memb.incarnation[slave] {
                                match pending_joins.iter_mut().find(|(s, _)| *s == slave) {
                                    Some(p) => p.1 = p.1.max(incarnation),
                                    None => pending_joins.push((slave, incarnation)),
                                }
                            }
                        }
                        // A still-newer reign fenced us out: exit silently,
                        // it owns the run now.
                        Msg::Promoted { term, .. } => {
                            if term > fo.term {
                                return Err(ProtocolError::Superseded { term });
                            }
                        }
                        other => {
                            if takeover.is_some() {
                                // Stray pre-reign traffic at a promoted
                                // deputy's slave address (late halos, acks,
                                // election chatter, the crashed master's
                                // in-flight sends): tolerate silently.
                                continue;
                            }
                            return Err(unexpected("checkpointed invocation loop", &other));
                        }
                    }
                }

                // Timers.
                let now = ctx.now();
                let mut suspect = None;
                for s in 0..n {
                    if !st.memb.alive[s] {
                        continue;
                    }
                    let settled_s = st.memb.done[s] && st.win[s].fully_acked();
                    let silent = st.memb.silent_for(s, now);
                    if !settled_s && silent >= tol.suspicion {
                        suspect = Some(s);
                        break;
                    }
                    if !settled_s && silent >= tol.speculate_after {
                        // Suspicion is building: race the suspect's next
                        // invocation on an idle survivor from the banked
                        // snapshot, so an eviction rolls back one
                        // invocation less.
                        st.speculate(ctx, slaves, ck_init, n_units, s, &mut sc.recovery)
                            .await;
                    }
                    // See the recoverable loop: a never-spoken slave's
                    // `Alive` pings refresh the suspicion timer but cannot
                    // name what it is missing, so silence is not required
                    // here — only the nudge timer.
                    if takeover.is_none()
                        && !st.memb.heard_any[s]
                        && st.memb.nudge_due(s, now, tol.nudge)
                    {
                        // (Never under a takeover: the survivors are
                        // mid-run, and the reign's opening move is the
                        // Rollback, not a Start.)
                        send(ctx, slaves[s], start_msg(slaves)).await;
                        sc.recovery.start_resends += 1;
                        send(
                            ctx,
                            slaves[s],
                            Msg::InvocationStart {
                                invocation: st.inv,
                                ckpt_stride: st.ckpt_stride,
                            },
                        )
                        .await;
                        sc.recovery.invocation_start_resends += 1;
                    } else if !st.win[s].fully_acked()
                        && st.memb.unheard_for(s, now) >= tol.nudge
                        && st.memb.nudge_due(s, now, tol.nudge)
                    {
                        // A slave that lost its Rollback cannot event-trigger
                        // the re-send — it is either parked silent, still
                        // pinging from a blocked wait, or chattering from a
                        // stale epoch — so the timer keys off *protocol*
                        // silence, which pings do not refresh. Under a
                        // takeover, lead with the Promoted announcement in
                        // case the slave never learned of the reign (it
                        // resets the slave's master-channel dedup so the
                        // replayed Rollback is fresh to it).
                        if let Some((seed, me)) = takeover {
                            send(
                                ctx,
                                slaves[s],
                                Msg::Promoted {
                                    term: seed.term,
                                    master_idx: me,
                                },
                            )
                            .await;
                        }
                        for (_, msg) in st.win[s].unacked() {
                            send(ctx, slaves[s], msg.clone()).await;
                            sc.recovery.restore_resends += 1;
                        }
                    }
                }
                fo.ping(ctx, slaves, &st.memb.alive, &tol, &mut sc.recovery)
                    .await;
                if let Some(s) = suspect {
                    st.evict(ctx, slaves, &mut cfg.balancer, s, &mut sc.recovery)
                        .await;
                    st.rollback(
                        ctx,
                        slaves,
                        &mut cfg.balancer,
                        ck_init,
                        n_units,
                        &tol,
                        &mut sc.recovery,
                    )
                    .await?;
                    continue 'invocations;
                }
                if !st.memb.any_alive() {
                    return Err(ProtocolError::AllSlavesDead);
                }
            }

            // Settled: fold the invocation wall time into the restart-cost
            // estimate (which also picks the checkpoint stride for the next
            // release) and advance.
            st.fold_invocation_time(ctx.now(), &tol);
            let reduced: f64 = st.metrics.iter().sum();
            st.inv += 1;
            if (cfg.converged)(st.inv - 1, reduced) {
                target = st.inv;
            }
        }

        sc.compute_done = ctx.now();

        // Too late to admit once the run is gathering: refuse queued
        // joiners so their bounded handshake exits.
        for (j, _) in pending_joins.drain(..) {
            send(ctx, slaves[j], Msg::JoinRefuse { slave: j }).await;
        }

        // Gather with *deferred* acknowledgement: slaves must stay resident
        // until the whole result is in hand, because a death mid-gather
        // forces a rollback and a redo — a slave released early could not
        // participate in it.
        let mut seen: BTreeMap<usize, UnitData> = BTreeMap::new();
        let mut got = vec![false; n];
        let now0 = ctx.now();
        for (s, &sl) in slaves.iter().enumerate() {
            st.memb.rearm_nudge(s, now0, tol.nudge);
            st.memb.last_heard[s] = now0;
            if st.memb.alive[s] {
                send(ctx, sl, Msg::Gather).await;
            }
        }
        loop {
            if seen.len() == n_units {
                for (s, &sl) in slaves.iter().enumerate() {
                    if st.memb.alive[s] {
                        send(ctx, sl, Msg::GatherAck).await;
                    }
                }
                sc.result.extend(seen);
                return Ok(());
            }
            if let Some(env) = ctx.recv_deadline(ctx.now() + tol.master_tick).await {
                match env.msg {
                    Msg::GatherData {
                        slave,
                        units,
                        fault_stats,
                    } => {
                        if !st.memb.alive[slave] {
                            sc.recovery.gather_dups_ignored += 1;
                            continue;
                        }
                        st.memb.last_heard[slave] = ctx.now();
                        if got[slave] {
                            sc.recovery.gather_dups_ignored += 1;
                            continue;
                        }
                        got[slave] = true;
                        sc.recovery.absorb(&fault_stats);
                        for (id, data) in units {
                            match seen.entry(id) {
                                Entry::Vacant(e) => {
                                    e.insert(data);
                                }
                                Entry::Occupied(_) => sc.recovery.gather_dup_units_dropped += 1,
                            }
                        }
                    }
                    Msg::Status(stm) => {
                        let s = stm.slave;
                        if st.memb.alive[s] {
                            st.memb.last_heard[s] = ctx.now();
                            if !got[s] && st.memb.nudge_due(s, ctx.now(), tol.nudge) {
                                send(ctx, slaves[s], Msg::Gather).await;
                                sc.recovery.gather_resends += 1;
                            }
                        }
                    }
                    Msg::InvocationDone {
                        slave,
                        restore_seq,
                        epoch,
                        ..
                    } => {
                        if st.memb.alive[slave] {
                            st.memb.last_heard[slave] = ctx.now();
                            // Same per-slot floor as the invocation loop: a
                            // previous life's report never acks this window.
                            if epoch >= join_epoch[slave] {
                                st.win[slave].ack(restore_seq);
                            }
                            if !got[slave] && st.memb.nudge_due(slave, ctx.now(), tol.nudge) {
                                send(ctx, slaves[slave], Msg::Gather).await;
                                sc.recovery.gather_resends += 1;
                            }
                        } else {
                            // Non-member still reporting: its Evict was lost.
                            send(ctx, slaves[slave], Msg::Evict).await;
                        }
                    }
                    // A late checkpoint racing the gather is only a
                    // liveness signal now.
                    Msg::Checkpoint { slave, .. } => {
                        if st.memb.alive[slave] {
                            st.memb.last_heard[slave] = ctx.now();
                        }
                    }
                    Msg::SlaveError { slave, error } => {
                        if !st.memb.alive[slave] {
                            send(ctx, slaves[slave], Msg::Evict).await;
                            continue;
                        }
                        if !st.win[slave].fully_acked() {
                            continue;
                        }
                        if !slave_recoverable(&error) {
                            st.evict(ctx, slaves, &mut cfg.balancer, slave, &mut sc.recovery)
                                .await;
                        }
                        st.rollback(
                            ctx,
                            slaves,
                            &mut cfg.balancer,
                            ck_init,
                            n_units,
                            &tol,
                            &mut sc.recovery,
                        )
                        .await?;
                        continue 'run;
                    }
                    Msg::Alive { slave, incarnation } => {
                        if st.memb.alive[slave] && incarnation == st.memb.incarnation[slave] {
                            // Defers suspicion only; the timer sweep below
                            // still re-sends Gather on protocol silence.
                            st.memb.ping(slave, ctx.now());
                        } else if !st.memb.alive[slave] && incarnation >= st.memb.incarnation[slave]
                        {
                            // Latest life of a non-member: repeat the lost
                            // Evict so it can exit (joins are refused here).
                            send(ctx, slaves[slave], Msg::Evict).await;
                        }
                    }
                    // The run is gathering: no more admissions this run.
                    Msg::Join { slave, .. } => {
                        send(ctx, slaves[slave], Msg::JoinRefuse { slave }).await;
                    }
                    Msg::Promoted { term, .. } => {
                        if term > fo.term {
                            return Err(ProtocolError::Superseded { term });
                        }
                    }
                    other => {
                        if takeover.is_some() {
                            continue; // stray pre-reign traffic (see above)
                        }
                        return Err(unexpected("checkpointed gather", &other));
                    }
                }
            }
            let now = ctx.now();
            let mut dead_in_gather = None;
            for s in 0..n {
                if !st.memb.alive[s] || got[s] {
                    continue;
                }
                let silent = st.memb.silent_for(s, now);
                if silent >= tol.suspicion {
                    dead_in_gather = Some(s);
                    break;
                }
                if st.memb.unheard_for(s, now) >= tol.nudge && st.memb.nudge_due(s, now, tol.nudge)
                {
                    if st.win[s].fully_acked() {
                        send(ctx, slaves[s], Msg::Gather).await;
                        sc.recovery.gather_resends += 1;
                    } else {
                        // A parked slave still waiting for its Rollback.
                        for (_, msg) in st.win[s].unacked() {
                            send(ctx, slaves[s], msg.clone()).await;
                            sc.recovery.restore_resends += 1;
                        }
                    }
                }
            }
            // Keep the deputies' election trigger quiet through the gather.
            fo.ping(ctx, slaves, &st.memb.alive, &tol, &mut sc.recovery)
                .await;
            if let Some(s) = dead_in_gather {
                // Death mid-gather: its un-gathered state is gone, so roll
                // the survivors back and redo from the newest checkpoint.
                sc.recovery.gathers_interrupted += 1;
                st.evict(ctx, slaves, &mut cfg.balancer, s, &mut sc.recovery)
                    .await;
                st.rollback(
                    ctx,
                    slaves,
                    &mut cfg.balancer,
                    ck_init,
                    n_units,
                    &tol,
                    &mut sc.recovery,
                )
                .await?;
                continue 'run;
            }
            if !st.memb.any_alive() {
                return Err(ProtocolError::AllSlavesDead);
            }
        }
    }
}
