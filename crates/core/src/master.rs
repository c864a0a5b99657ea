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
//! The master runs one of two loops:
//!
//! * **plain** (`run_plain`) — no fault plan; trouble is a typed error,
//!   never a panic. It stays a loop of its own: it is the only one that
//!   checks unit conservation (`done_sum == expected`), it blocks in
//!   `recv()` where the fault-mode driver ticks on `recv_deadline` (every
//!   tick is a wake event: `wide_armed` processes 298 087 events to
//!   `wide_plain`'s 217 220, 1.60× the wall-clock), and it backs every
//!   `results/*.txt` table — folding it in would move each of those traces
//!   or make every shared arm branch on "armed?".
//! * **fault mode** (`drive`) — one loop over one `Session`
//!   (`crate::session::master`): silence-based failure detection, epoch
//!   fencing, windowed recovery messages, speculation, elastic membership,
//!   the gather — with the dynamic balancer live throughout. Each pass
//!   receives once, dispatches one `match`, and runs one timer `sweep`;
//!   where it stands is a `Phase`, whose rows are the next table. How a
//!   loss is repaired is the session's `Policy`, which `Session::new`
//!   picks from the application's pattern:
//!   - `Policy::Rescatter` (independent pattern) — recover in place.
//!     The master evicts a silent slave, fences off its transfer channels
//!     via [`Msg::Evicted`] / [`Msg::OwnReport`], and re-scatters exactly
//!     the units no survivor reports. Before a suspect is formally evicted,
//!     its units may be speculatively re-executed on an idle survivor
//!     ([`Msg::Speculate`]); a commit adopts the results without replay.
//!   - `Policy::Rollback` (pipelined/shrinking patterns) — carried
//!     dependences make in-place recovery impossible, so slaves ship
//!     best-effort state checkpoints at invocation barriers and the master
//!     rolls the survivors back to the newest complete checkpoint
//!     ([`Msg::Rollback`]) instead of aborting. The estimated restart cost
//!     is folded into the balancer's move-profitability check, and a silent
//!     suspect's next invocation is raced on an idle survivor from the
//!     banked snapshot so an eviction rolls back one invocation less.
//!
//! ## The phases of the fault-mode loop
//!
//! `Release` is passed through, never waited in: it opens invocation
//! `inv` (admission, release broadcast, replica publish) or, past the last
//! one, starts the gather. Every re-range — a rollback suspect, a survivable
//! `SlaveError`, a death mid-gather, the end of a collection — sends the
//! loop back to it. The other three phases are waited in; these are their
//! rows, all taken in `sweep` except the first two columns:
//!
//! | phase | ends when | a live slave still owes (`Phase::owes`) | silence past `suspicion` | a nudge re-sends | settling only |
//! |-------|-----------|-------------------------|--------------------------|------------------|---------------|
//! | `Collect { held }` (a rollback takeover only) | every live survivor answered `Promoted` with `Held`: re-range onto the newest snapshot the fragments complete | its `Held` | evict, no re-range (its fragments died with it); a `SlaveError` is left to the collection's re-range, or to suspicion | `Promoted`, on the nudge timer alone | — |
//! | `Settle` | `Session::settled` | to settle | row 8: re-scatter evicts in place; rollback evicts the first suspect and re-ranges | an unacknowledged window, led by `Promoted` under a takeover | speculation (row 9), the never-spoken nudge, `Policy::renotify` |
//! | `Gather { seen, got }` | row 11 (`Policy::gathered`) | its units, and an acknowledgement of its window | row 8: re-scatter's bare eviction + `gathers_interrupted`, no `Evicted` broadcast; rollback as settling | `Gather` if the window is acknowledged, else an unled window replay | — |
//!
//! ## Where the two policies differ
//!
//! Everything not listed here is one code path. Each row is one or more
//! methods of `Policy` (`session/master.rs`), named in the table; `drive`,
//! `sweep`, `slave_error` and `Session` call the row and never test the
//! variant, and this table is the single place the two are contrasted.
//!
//! | # | point | `Policy::` | `Rescatter` | `Rollback` |
//! |---|-------|------------|-------------|------------|
//! | 1 | takeover seeding (`Session::open`) | `seed`, `bank_held` | resume at the replicated invocation watermark, every unit recomputed through it, at once; first epoch `(term << 32) \| 1` | bank the winner's own held fragments in an empty bank, collect every survivor's (`Phase::Collect`), roll back to the newest snapshot they complete — the initial data when none does — from `term << 32` (same first epoch) |
//! | 2 | unit state in a re-range (`Session::rerange`: takeover, admission, rollback) | `rerange_units`, `reranged` | `recompute(kernel, u, inv)`, each survivor's share adopted as its ownership; the survivors' unacknowledged instructions and their silence/nudge clocks are kept | newest banked snapshot; every unacknowledged instruction is dropped, survivors' clocks restart, a joiner's ack floor `join_epoch[j]` is raised to the admission epoch |
//! | 3 | replica freshness (`Session::publish_replica`) | `replica_fresh` | `fresh = inv`, nothing banked | `fresh` = `best_banked` = newest banked checkpoint; the replica carries no unit |
//! | 4 | `Status` / `InvocationDone` from a stale epoch; cancelling a speculation | `future_epoch`, `cancel_race` | never cancels a speculation; "from the future" checks the invocation only; cancel is a windowed `SpecCancel` | cancels it; `epoch >` the epoch in force is also "from the future" (`Status`) or `Inconsistent` (`InvocationDone`); cancel is master-local |
//! | 5 | window ack floor for `InvocationDone::restore_seq`, always applied *before* the epoch fence; ownership | `ack_floor`, `adopt_owned` | the epoch in force — a stale report never acks; `owned_ids` adopted | `join_epoch[slave]` — a stale report of this life still acks; `owned_ids` ignored |
//! | 6 | policy-own messages: every arm `drive` does not share | `own_msg` | `OwnReport` | `Checkpoint`, stray `GatherData`; the other policy's messages end in `UnexpectedMessage` naming the policy and the phase (silently tolerated under a takeover) |
//! | 7 | `SlaveError` from a member | `member_error` | fatal: `SlaveFailed` | once its window is acked: evict unless the error is survivable, roll back, restart the invocation |
//! | 8 | suspicion expires | `evict_in_place`, `fence`, `awaits`, `renotify` | evict inside the sweep (several per sweep, before the deputies are pinged), fence with `Evicted`, wait for `OwnReport`s — a slave one of them is awaited from is never "settled", awaiting survivors are re-notified on the nudge timer, and the barrier stays shut while an eviction is open | first suspect only, after the ping: evict, roll back, restart the invocation |
//! | 9 | speculation launch | `speculate` | suspect's units from initial data; not while an eviction is open, not for a slave that owns nothing | whole banked snapshot, advanced one invocation; not for a suspect that is done or already raced in this invocation, not past the invocation being settled |
//! | 10 | an invocation settles | `fold_invocation_time` | — | its wall time folds into the restart-cost EMA |
//! | 11 | gather | `gathered`, `ack_delivery` | ack each `GatherData` at once; done when every live slave delivered; a death is absorbed and the safety net recomputes whatever no survivor delivered | ack only when all `n_units` are in hand (a death or a survivable `SlaveError` rolls back and redoes the run from the checkpoint, which needs every slave resident) |
//!
//! Three points are one code path although they look policy-specific.
//! Ending the run on convergence lowers the target for both (re-scatter
//! never re-ranges out of the gather, so for it that simply ends the
//! invocations). A gather nudge to a slave with an unacknowledged window
//! replays the window for both. And a slave owes the gather until it has
//! delivered *and* acknowledged its window, where a repeat `GatherData`
//! merges whatever units it adds: under re-scatter every window is
//! acknowledged before the gather starts and a repeat adds nothing, but
//! under rollback a survivor that lost its `Rollback` onto the end state
//! delivers from the partition that `Rollback` replaced, and it reaches no
//! barrier to acknowledge the replay from — it re-delivers instead.
//!
//! All master → slave recovery messages (`Restore`, `Speculate`,
//! `SpecCommit`, `SpecCancel`, `Rollback`) share one per-destination
//! [`SenderWindow`](crate::protocol::SenderWindow): sequence-numbered,
//! acknowledged via `InvocationDone::restore_seq`, deduplicated by the
//! receiver, re-sent on evidence of loss. The transition rules are
//! modelled and exhaustively checked in `dlb-analyze` (restore + transfer
//! models in [`crate::session::model`]).
//!
//! The fault-mode driver also *replicates the control plane*: at each
//! invocation boundary the master publishes a [`ReplicaMsg`](crate::msg::ReplicaMsg)
//! (membership, epoch, invocation watermark, the newest complete
//! checkpoint's invocation, cumulative recovery counters — scalars only) to
//! the deputy slaves, and heartbeats them with [`FailoverMsg::MasterPing`]
//! between barriers. When the master crashes the deputies elect a successor
//! ([`crate::session::replica`]); the winner re-enters the same driver
//! through [`run_takeover`] with a [`TakeoverSeed`], which seeds the
//! session from the replica, fences the new reign behind `term << 32`
//! epochs, re-collects the checkpoint fragments the survivors hold
//! (rollback policy), re-ranges the survivors, and resumes — bit-exact,
//! because unit state is value-deterministic. A
//! master that learns of a higher-term [`FailoverMsg::Promoted`] — or, an
//! original reign that missed it, hears the successor's exit reply
//! [`Msg::Abort`] — exits silently with [`ProtocolError::Superseded`]: it
//! writes no outcome and aborts no one, because exactly one reign per term
//! owns the run.

use crate::balancer::{Balancer, BalancerStats};
use crate::driver::AppSpec;
use crate::error::{FaultToleranceConfig, ProtocolError};
use crate::frequency::PeriodBounds;
use crate::msg::{FailoverMsg, Instructions, Msg, Status, UnitData};
use crate::recovery::RecoveryStats;
use crate::session::master::{channels_settled, merge_max, send, Policy, Session};
use crate::session::membership::Life;
use crate::session::replica::TakeoverSeed;
use dlb_sim::{ActorId, CpuWork, MailCtx, SimDuration, SimTime};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// CPU charged on the master per status processed.
const DECISION_CPU: CpuWork = CpuWork::from_micros(200);
/// Fault mode: receive granularity — how often the master checks its timers.
pub(crate) const MASTER_TICK: SimDuration = SimDuration::from_millis(250);
/// Fault mode: maximum re-sends of one unacknowledged instruction message.
const INSTR_RETRIES: u32 = 3;

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

/// Everything the master hands back to the driver. Threaded through the
/// control loops as they run (`sc`), so a failed run still surfaces
/// everything measured up to the failure.
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

/// Everything a promoted deputy needs to rebuild the master role in place:
/// the master configuration as it was before the run (balancer state is
/// not replicated — the new reign re-learns rates from the first statuses
/// it sees), the run topology, and the shared outcome slot. Handed to
/// every slave in fault mode; used only by the election winner.
pub struct TakeoverKit {
    /// Cloned before the original master's balancer saw a status.
    pub cfg: MasterConfig,
    /// The original master's actor id (fenced with `Promoted` on takeover
    /// in case it is merely slow, not dead).
    pub master: ActorId,
    pub slaves: Vec<ActorId>,
    pub assignment: Vec<(usize, usize)>,
    pub block_rows: u64,
    pub outcome: Arc<Mutex<MasterOutcome>>,
}

/// Master configuration: plain data, so a takeover starts from a clone.
#[derive(Clone)]
pub struct MasterConfig {
    pub balancer: Balancer,
    /// The program whose outer loop the master mimics: invocation count,
    /// expected completions, convergence, and — in fault mode — the unit
    /// state recovery rebuilds from.
    pub app: AppSpec,
    pub record_timeline: bool,
    /// Fault-mode wiring; `None` selects the plain loop.
    pub ft: Option<FaultToleranceConfig>,
}

fn unexpected(context: &'static str, msg: &Msg) -> ProtocolError {
    ProtocolError::UnexpectedMessage {
        who: "master".to_string(),
        context,
        message: format!("{msg:?}").chars().take(120).collect(),
    }
}

/// The election winner's actor body: announce the new reign, then re-enter
/// the fault-mode driver seeded from the replica. Writes the shared outcome
/// itself (the crashed master never will); returns `Ok` even on a failed
/// run — the failure is recorded in the outcome, exactly as `run_master`
/// records it — so the caller never ships a stray `SlaveError` to a dead
/// master.
pub async fn run_takeover(
    ctx: &MailCtx<Msg>,
    kit: &TakeoverKit,
    seed: TakeoverSeed,
    me: usize,
) -> Result<(), ProtocolError> {
    ctx.note(|| {
        let (term, inv) = (seed.term, seed.replica.invocation);
        format!("slave {me} won term {term} (replica inv {inv})")
    });
    let mut cfg = kit.cfg.clone();
    let mut sc = MasterOutcome {
        // Adopt the crashed master's cumulative counters so the final
        // report covers the whole run.
        recovery: seed.replica.recovery.clone(),
        ..MasterOutcome::default()
    };
    sc.recovery.elections_held += 1;
    sc.recovery.takeover_latency = Some(ctx.now().saturating_since(seed.last_heard));
    let promoted = Msg::Failover(FailoverMsg::Promoted {
        term: seed.term,
        master_idx: me,
    });
    let others = || {
        let slaves = kit.slaves.iter().enumerate();
        slaves.filter(|&(i, _)| i != me).map(|(_, &s)| s)
    };
    for s in others() {
        send(ctx, s, promoted.clone()).await;
    }
    // Fence the old master too, in case it is merely slow, not dead.
    send(ctx, kit.master, promoted.clone()).await;
    let res = run_armed(
        ctx,
        &mut cfg,
        &kit.slaves,
        &kit.assignment,
        kit.block_rows,
        &mut sc,
        Some((&seed, me)),
    )
    .await;
    conclude(ctx, &cfg, sc, res, others(), &kit.outcome).await;
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
    let mut sc = MasterOutcome::default();
    let res = if cfg.ft.is_none() {
        run_plain(&ctx, &mut cfg, &slaves, &assignment, block_rows, &mut sc).await
    } else {
        run_armed(
            &ctx,
            &mut cfg,
            &slaves,
            &assignment,
            block_rows,
            &mut sc,
            None,
        )
        .await
    };
    conclude(&ctx, &cfg, sc, res, slaves.iter().copied(), &out).await;
}

/// End of a reign: release the slaves if the run failed, leave `Abort` as
/// the answer to whoever writes to the finished master, and write the
/// outcome. `abort` names the slaves to release — every blocked wait
/// receives `Abort`, so this cannot deadlock even outside fault mode. The
/// exit reply reaches the slaves `abort` cannot: an orphan whose `Evict` was
/// lost, a joiner whose `Join` lands after the end. Each stops one round trip
/// after its first message gets through, instead of waiting out its give-up
/// budget on a silent mailbox.
async fn conclude(
    ctx: &MailCtx<Msg>,
    cfg: &MasterConfig,
    mut sc: MasterOutcome,
    res: Result<(), ProtocolError>,
    abort: impl Iterator<Item = ActorId>,
    out: &Mutex<MasterOutcome>,
) {
    if matches!(res, Err(ProtocolError::Superseded { .. })) {
        // A promoted deputy owns the run now: it writes the outcome and it
        // commands the slaves. Aborting them or writing a failed outcome
        // here would sabotage the legitimate reign — exit silently.
        return;
    }
    if res.is_err() {
        for s in abort {
            send(ctx, s, Msg::Abort).await;
        }
    }
    ctx.exit_reply(Msg::Abort, Msg::Abort.wire_bytes());
    sc.stats = cfg.balancer.stats();
    sc.bounds = Some(cfg.balancer.period_bounds());
    sc.completed = res.is_ok();
    sc.error = res.err();
    *out.lock().unwrap_or_else(|p| p.into_inner()) = sc;
}

/// One balancing step, the same in every loop: charge the decision CPU, let
/// the balancer answer the status, log the timeline row. The caller sends
/// the instructions.
async fn decide(
    ctx: &MailCtx<Msg>,
    cfg: &mut MasterConfig,
    sc: &mut MasterOutcome,
    st: &Status,
    inv: u64,
) -> Instructions {
    ctx.advance_work(DECISION_CPU).await;
    let decision = cfg.balancer.on_status(st);
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
    decision.instructions
}

/// Fault-free control loop. Structurally the original master; every
/// protocol violation is a typed error instead of a panic.
async fn run_plain(
    ctx: &MailCtx<Msg>,
    cfg: &mut MasterConfig,
    slaves: &[ActorId],
    assignment: &[(usize, usize)],
    block_rows: u64,
    sc: &mut MasterOutcome,
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

    let invocations = cfg.app.invocations();
    let mut inv = 0;
    while inv < invocations {
        cfg.balancer.set_remaining_invocations(invocations - inv);
        for &s in slaves {
            send(ctx, s, Msg::InvocationStart { invocation: inv }).await;
        }
        let expected = cfg.app.expected_units(inv);
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
            ctx.note(|| {
                let got = match &env.msg {
                    Msg::Status(s) => format!(
                        "Status(slave {}, delta {}, active {})",
                        s.slave, s.units_done_delta, s.active_units
                    ),
                    other => format!("{other:?}").chars().take(60).collect(),
                };
                format!("inv={inv} got {got:?} (done {done_sum}/{expected}, idle {idle:?})")
            });
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
                    let instr = decide(ctx, cfg, sc, &st, inv).await;
                    send(ctx, slaves[st.slave], Msg::Instructions(instr)).await;
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
        if cfg.app.converged(inv - 1, reduced) {
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

/// A `SlaveError` arrived, settling or gathering. A non-member's dying
/// report (it wedged inside a partition we evicted it across) is not fatal
/// to the run: repeat the eviction verdict so the slave exits or rejoins
/// instead of wedging. A member's is the policy's ([`Policy::member_error`]):
/// fatal, or — once its window is acknowledged (an error that predates a
/// rollback already in flight is resolved by that rollback) — the slave is
/// evicted unless it survives the error, and the run restarts from the
/// newest complete checkpoint. `Ok(true)` means it did: the caller goes
/// back to [`Phase::Release`].
async fn slave_error(
    ctx: &MailCtx<Msg>,
    balancer: &mut Balancer,
    st: &mut Session,
    slave: usize,
    error: ProtocolError,
) -> Result<bool, ProtocolError> {
    if !st.memb.alive[slave] {
        send(ctx, st.slaves[slave], Msg::Evict).await;
        return Ok(false);
    }
    let survivable = st.policy.member_error(slave, error)?;
    if !st.win[slave].fully_acked() {
        return Ok(false);
    }
    if !survivable {
        let now = ctx.now();
        st.evict(ctx, balancer, slave, now).await?;
    }
    st.rerange(ctx, balancer, &[]).await?;
    Ok(true)
}

/// An `Alive` ping: a slave blocked on a peer (a halo or pivot from a
/// crashed neighbour — not the master) pings so the suspicion timer cannot
/// mistake the stall for a crash. Pings are incarnation-stamped: a rejoined
/// slot only credits its *current* life, so a zombie's leftover heartbeats
/// cannot vouch for the new one (E111). Returns whether the ping was
/// credited. When instead the latest life of an evicted slot is still
/// heartbeating, its `Evict` was lost: repeat it so the slave can exit or
/// rejoin. (Older incarnations are zombies; the `Evict` would reach the
/// current life, so they get nothing.)
async fn alive_ping(ctx: &MailCtx<Msg>, st: &mut Session, slave: usize, incarnation: u64) -> bool {
    let life = st.memb.life(slave, incarnation);
    match life {
        Life::Current => st.memb.ping(slave, ctx.now()),
        Life::Evicted => {
            send(ctx, st.slaves[slave], Msg::Evict).await;
        }
        Life::Stale => {}
    }
    life == Life::Current
}

/// A fault-mode reign from start (or takeover) to the gathered result:
/// build the session from the configuration's fault-tolerance wiring, run
/// [`drive`] over it, and surface the session's recovery counters whether
/// or not the run completed.
async fn run_armed(
    ctx: &MailCtx<Msg>,
    cfg: &mut MasterConfig,
    slaves: &[ActorId],
    assignment: &[(usize, usize)],
    block_rows: u64,
    sc: &mut MasterOutcome,
    takeover: Option<(&TakeoverSeed, usize)>,
) -> Result<(), ProtocolError> {
    let Some(tol) = cfg.ft.clone() else {
        return Err(ProtocolError::Inconsistent {
            detail: "fault-mode master without fault-tolerance wiring (MasterConfig::ft)"
                .to_string(),
        });
    };
    let term = takeover.map_or(0, |(seed, _)| seed.term);
    let rec = std::mem::take(&mut sc.recovery);
    let mut st = Session::new(ctx.now(), &cfg.app, tol, slaves, assignment, term, rec);
    let start = Msg::Start {
        slaves: slaves.to_vec(),
        assignment: assignment.to_vec(),
        block_rows,
    };
    let res = drive(ctx, cfg, &mut st, &start, sc, takeover).await;
    sc.recovery = st.rec;
    res
}

/// Where the fault-mode master's one loop stands (the phase rows in the
/// module doc).
enum Phase {
    /// A rollback takeover's first phase: collect the checkpoint fragments
    /// the survivors hold. Which slots answered `Promoted` with `Held`.
    Collect { held: Vec<bool> },
    /// Open invocation `st.inv` — or, past the last one, the gather.
    Release,
    /// Settle invocation `st.inv`.
    Settle,
    /// Collect the result: the units delivered so far, and who delivered.
    Gather {
        seen: BTreeMap<usize, UnitData>,
        got: Vec<bool>,
    },
}

impl Phase {
    /// Live slave `s` still owes this phase something: its held fragments;
    /// to settle; or to deliver its units and to acknowledge its window. A
    /// slave can deliver
    /// from a window it never acknowledged: one that lost its last
    /// `Rollback` answers the `Gather` from the partition that `Rollback`
    /// replaced, and one rolled back onto the final snapshot reaches no
    /// barrier to acknowledge it from. Owing, it is nudged with the window,
    /// and re-delivers once the replayed `Rollback` lands. (Under
    /// re-scatter every window is acknowledged before the gather starts.)
    fn owes(&self, st: &Session, s: usize) -> bool {
        match self {
            Phase::Collect { held } => !held[s],
            Phase::Gather { got, .. } => !got[s] || !st.win[s].fully_acked(),
            _ => !st.slave_settled(s),
        }
    }
}

/// The fault-mode control loop: silence-based failure detection, epoch
/// fencing, windowed recovery, speculation, elastic membership and the
/// gather, over one [`Session`] — one receive point, one [`sweep`], the
/// gather as the last [`Phase`]. Session state and its structural
/// transitions live in [`crate::session::master`]; this function is the
/// protocol driver. A `continue` skips the sweep. Re-sends are
/// event-triggered where an event exists; the one timer-driven repair that
/// fires with no fault anywhere is the sweep's never-spoken nudge.
async fn drive(
    ctx: &MailCtx<Msg>,
    cfg: &mut MasterConfig,
    st: &mut Session,
    start: &Msg,
    sc: &mut MasterOutcome,
    takeover: Option<(&TakeoverSeed, usize)>,
) -> Result<(), ProtocolError> {
    let n = st.slaves.len();
    let tol = st.tol.clone();
    let promoted = takeover.map(|(seed, me)| {
        Msg::Failover(FailoverMsg::Promoted {
            term: seed.term,
            master_idx: me,
        })
    });

    let mut phase = if st.open(ctx, &mut cfg.balancer, takeover).await? {
        Phase::Collect {
            held: vec![false; n],
        }
    } else {
        Phase::Release
    };
    if takeover.is_none() {
        // Deferred slots get the Start too: it parks in their mailbox and
        // teaches the latecomer the topology when it wakes to join.
        for &s in &st.slaves {
            send(ctx, s, start.clone()).await;
        }
    }
    // Convergence can end the run early; a post-convergence rollback must
    // not run invocations the converged run never executed.
    let mut target = cfg.app.invocations();
    loop {
        if let Phase::Collect { held } = &phase {
            if st.memb.survivors().iter().all(|&s| held[s]) {
                // Every survivor's fragments are banked: restart from the
                // newest snapshot they complete, and count how far that is
                // behind the dead master's bank.
                st.rerange(ctx, &mut cfg.balancer, &[]).await?;
                let banked = takeover.map_or(0, |(seed, _)| seed.replica.best_banked);
                st.rec.checkpoints_lost_to_stale_replica = banked.saturating_sub(st.inv);
                ctx.note(|| format!("collected; restarts at {}, banked {banked}", st.inv));
                phase = Phase::Release;
            }
        }
        if matches!(phase, Phase::Release) {
            phase = if st.inv < target {
                if !st.pending_joins.is_empty() {
                    st.admit(ctx, &mut cfg.balancer).await?;
                }
                cfg.balancer.set_remaining_invocations(target - st.inv);
                // Unless the Rollback message itself released this
                // invocation.
                if !std::mem::take(&mut st.released) {
                    for s in st.memb.survivors() {
                        send(ctx, st.slaves[s], st.release_msg()).await;
                    }
                }
                st.publish_replica(ctx).await;
                st.begin_invocation(ctx.now());
                Phase::Settle
            } else {
                sc.compute_done = ctx.now();
                // Too late to admit once the run is gathering: refuse queued
                // joiners so their bounded handshake exits instead of
                // retrying into silence.
                for (j, _) in st.pending_joins.drain(..) {
                    send(ctx, st.slaves[j], Msg::JoinRefuse { slave: j }).await;
                }
                // Gather from the survivors; when it is complete, and what
                // a death costs, is the policy's (`Policy::gathered`).
                let now = ctx.now();
                ctx.note(|| format!("gather begins, alive {:?}", st.memb.alive));
                for s in 0..n {
                    st.memb.rearm_nudge(s, now, tol.nudge);
                    st.memb.last_heard[s] = now;
                    if st.memb.alive[s] {
                        send(ctx, st.slaves[s], Msg::Gather).await;
                    }
                }
                let (seen, got) = (BTreeMap::new(), vec![false; n]);
                Phase::Gather { seen, got }
            };
        }
        if matches!(phase, Phase::Settle) && st.settled(&cfg.balancer) {
            let wall = ctx.now().saturating_since(st.inv_started);
            st.policy.fold_invocation_time(wall);
            let reduced: f64 = st.metrics.iter().sum();
            st.inv += 1;
            if cfg.app.converged(st.inv - 1, reduced) {
                target = st.inv;
            }
            phase = Phase::Release;
            continue;
        }
        if let Phase::Gather { seen, got } = &mut phase {
            if Policy::gathered(st, ctx, seen, got).await {
                sc.result.extend(std::mem::take(seen));
                return Ok(());
            }
        }
        let gathering = matches!(phase, Phase::Gather { .. });
        if let Some(env) = ctx.recv_deadline(ctx.now() + MASTER_TICK).await {
            match (env.msg, &mut phase) {
                // A final status racing the gather.
                (Msg::Status(stm), Phase::Gather { got, .. }) => {
                    st.nudge_gather(ctx, got, stm.slave).await;
                }
                (Msg::Status(stm), _) => {
                    let s = stm.slave;
                    // An evicted slave still talking, or a stale epoch.
                    if !st.memb.alive[s] || st.fenced(ctx, s, stm.epoch).await {
                        continue;
                    }
                    st.heard_from(ctx, s).await;
                    if st.policy.future_epoch(stm.epoch, st.epoch) || stm.invocation > st.inv {
                        return Err(unexpected("status from the future", &Msg::Status(stm)));
                    }
                    if stm.hook_seq <= st.last_hook_seq[s] {
                        st.rec.status_dups_ignored += 1;
                        continue;
                    }
                    st.last_hook_seq[s] = stm.hook_seq;
                    // A status means the slave is computing again.
                    st.memb.done[s] = false;
                    // Ack lag alone is no evidence of loss: a slave pipelines
                    // instructions, so it runs a couple of sequence numbers
                    // behind even fault-free, and a dropped instruction is
                    // superseded by the next one anyway. Retry only fires for
                    // a slave stuck at a barrier (see the InvocationDone
                    // arm), where nothing can supersede.
                    let applied = stm.last_applied_seq;
                    st.unacked_instr[s].take_if(|(seq, _, _)| applied >= *seq);
                    merge_max(&mut st.sent[s], &stm.sent_to);
                    merge_max(&mut st.recv[s], &stm.received_from);
                    let instr = decide(ctx, cfg, sc, &stm, st.inv).await;
                    st.unacked_instr[s] = Some((instr.seq, instr.clone(), 0));
                    send(ctx, st.slaves[s], Msg::Instructions(instr)).await;
                }
                (
                    Msg::InvocationDone {
                        slave,
                        restore_seq,
                        epoch,
                        ..
                    },
                    Phase::Gather { got, .. },
                ) => {
                    if st.memb.alive[slave] {
                        st.ack_report(slave, epoch, restore_seq);
                    } else {
                        // Non-member still reporting: its Evict was lost.
                        send(ctx, st.slaves[slave], Msg::Evict).await;
                    }
                    st.nudge_gather(ctx, got, slave).await;
                }
                (
                    Msg::InvocationDone {
                        slave,
                        invocation,
                        epoch,
                        sent_to,
                        received_from,
                        metric,
                        restore_seq,
                        owned_ids,
                    },
                    _,
                ) => {
                    if !st.memb.alive[slave] {
                        // A non-member still reporting (its Evict was lost,
                        // e.g. dropped by a partition): repeat the verdict so
                        // it can exit — or rejoin as a fresh incarnation when
                        // elastic membership is on.
                        send(ctx, st.slaves[slave], Msg::Evict).await;
                        st.rec.done_dups_ignored += 1;
                        continue;
                    }
                    st.ack_report(slave, epoch, restore_seq);
                    if st.fenced(ctx, slave, epoch).await {
                        continue;
                    }
                    st.heard_from(ctx, slave).await;
                    if st.policy.future_epoch(epoch, st.epoch) {
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
                        st.policy.adopt_owned(slave, owned_ids);
                    } else if invocation < st.inv {
                        st.rec.done_dups_ignored += 1;
                        // A heartbeat from a slave stuck at the previous
                        // barrier: its release was lost. The heartbeat itself
                        // is the re-send trigger — the slave is chatty, so a
                        // silence timer would never fire.
                        if st.memb.nudge_due(slave, ctx.now(), tol.nudge) {
                            send(ctx, st.slaves[slave], st.release_msg()).await;
                            st.rec.invocation_start_resends += 1;
                            // A stuck slave cannot supersede a lost
                            // instruction with a newer one; replay the
                            // unacknowledged one (bounded).
                            if let Some((_, instr, tries)) = &mut st.unacked_instr[slave] {
                                if *tries < INSTR_RETRIES {
                                    *tries += 1;
                                    st.rec.instr_resends += 1;
                                    let again = Msg::Instructions(instr.clone());
                                    send(ctx, st.slaves[slave], again).await;
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
                    // Done but missing windowed messages: they were lost in
                    // flight.
                    if st.memb.done[slave]
                        && !st.win[slave].fully_acked()
                        && st.memb.nudge_due(slave, ctx.now(), tol.nudge)
                    {
                        st.replay_window(ctx, slave).await;
                    }
                }
                (
                    Msg::GatherData {
                        slave,
                        units,
                        fault_stats,
                    },
                    Phase::Gather { seen, got },
                ) => {
                    if !st.memb.alive[slave] {
                        st.rec.gather_dups_ignored += 1;
                        continue;
                    }
                    st.memb.last_heard[slave] = ctx.now();
                    st.policy.ack_delivery(ctx, st.slaves[slave]).await;
                    // A repeat adds only what an earlier delivery from an
                    // outdated partition lacked (see `Phase::owes`).
                    let repeat = std::mem::replace(&mut got[slave], true);
                    if repeat {
                        st.rec.gather_dups_ignored += 1;
                    } else {
                        st.rec.absorb(&fault_stats);
                    }
                    for (id, data) in units {
                        // A unit restored while its old owner's transfer was
                        // still in flight can briefly have two owners; both
                        // copies are deterministic and identical — keep the
                        // first.
                        match seen.entry(id) {
                            Entry::Vacant(e) => {
                                e.insert(data);
                            }
                            Entry::Occupied(_) if !repeat => st.rec.gather_dup_units_dropped += 1,
                            Entry::Occupied(_) => {}
                        }
                    }
                    if repeat {
                        continue;
                    }
                }
                // Collecting, the collection's re-range rescues a wedged
                // survivor, and suspicion evicts one that died.
                (Msg::SlaveError { .. }, Phase::Collect { .. }) => continue,
                (Msg::SlaveError { slave, error }, _) => {
                    if slave_error(ctx, &mut cfg.balancer, st, slave, error).await? {
                        phase = Phase::Release;
                    }
                    continue;
                }
                // A credited ping defers suspicion; while settling it is a
                // sign of life like any other, and the race against this
                // slave is moot. (While gathering, the sweep still re-sends
                // the Gather on protocol silence.)
                (Msg::Alive { slave, incarnation }, _) => {
                    if alive_ping(ctx, st, slave, incarnation).await && !gathering {
                        Policy::cancel_race(st, ctx, slave, false).await;
                    }
                }
                (Msg::Join { slave, incarnation }, _) => {
                    let life = st.memb.life(slave, incarnation);
                    if tol.rejoin_attempts == 0 || gathering {
                        // Elastic membership is opt-in, and the gathering
                        // run admits no one: a refused joiner cannot
                        // hot-loop.
                        send(ctx, st.slaves[slave], Msg::JoinRefuse { slave }).await;
                    } else if life == Life::Current
                        && st.memb.nudge_due(slave, ctx.now(), tol.nudge)
                    {
                        // Already admitted: its admission Rollback (the
                        // handshake's exit signal) must have been lost.
                        st.replay_window(ctx, slave).await;
                    } else if life == Life::Evicted {
                        // Queue for the next settled barrier; dedup on the
                        // newest announced life.
                        match st.pending_joins.iter_mut().find(|(s, _)| *s == slave) {
                            Some(p) => p.1 = p.1.max(incarnation),
                            None => st.pending_joins.push((slave, incarnation)),
                        }
                    }
                    // A stale life — a zombie, or a newer life over a slot
                    // still counted alive — is ignored.
                }
                (Msg::Failover(FailoverMsg::Promoted { term, .. }), _) => st.fo.yield_to(term)?,
                // Only a finished reign's exit reply brings `Abort` to a
                // master: a successor elected while this reign was cut off
                // has ended the run, and its `Promoted` was lost. Yield as to
                // that `Promoted` (its term, not on the wire, is past ours)
                // rather than write a failed outcome over the successor's.
                // A takeover shrugs it off like any stray.
                (Msg::Abort, _) if takeover.is_none() => {
                    return Err(ProtocolError::Superseded {
                        term: st.fo.term + 1,
                    });
                }
                // A survivor's answer to our `Promoted`: its fragments bank
                // like checkpoints, in any phase. It moves no clock: every
                // receive point answers, so a slave wedged on a lost pivot
                // answers the nudge that replays its window, and must still
                // fall silent to suspicion.
                (Msg::Failover(FailoverMsg::Held { slave, fragments }), p) => {
                    if let Phase::Collect { held } = p {
                        held[slave] = true;
                    }
                    Policy::bank_held(st, slave, fragments);
                }
                // The rest is one policy's own (`OwnReport`, `Checkpoint`, a
                // stray `GatherData`), or a message no arm expects: in an
                // original reign, a protocol violation. A promoted deputy
                // still has a slave's address: stray peer traffic (late
                // transfers/halos/acks, election chatter, messages the
                // crashed master had in flight) keeps arriving, all of it
                // pre-reign — tolerated silently.
                (other, p) => {
                    let got = match p {
                        Phase::Gather { got, .. } => Some(&got[..]),
                        _ => None,
                    };
                    match Policy::own_msg(st, ctx, other, got).await {
                        Ok(true) => {}
                        Err((context, other)) if takeover.is_none() => {
                            return Err(unexpected(context, &other));
                        }
                        Ok(false) | Err(_) => continue,
                    }
                }
            }
        }
        if sweep(ctx, &mut cfg.balancer, st, &phase, start, promoted.as_ref()).await? {
            phase = Phase::Release;
        }
    }
}

/// The fault-mode master's one timer sweep, collecting, settling or
/// gathering. For every live slave that still [owes](Phase::owes) the
/// phase something: suspicion past `suspicion` of silence, else (settling)
/// speculation past `speculate_after`, then at most one nudge. Returns
/// whether the run re-ranged (the caller goes back to [`Phase::Release`]).
async fn sweep(
    ctx: &MailCtx<Msg>,
    balancer: &mut Balancer,
    st: &mut Session,
    phase: &Phase,
    start: &Msg,
    promoted: Option<&Msg>,
) -> Result<bool, ProtocolError> {
    let tol = st.tol.clone();
    let settling = matches!(phase, Phase::Settle);
    let gathering = matches!(phase, Phase::Gather { .. });
    let collecting = matches!(phase, Phase::Collect { .. });
    let now = ctx.now();
    let mut suspect = None;
    for s in 0..st.memb.n() {
        if !st.memb.alive[s] || !phase.owes(st, s) {
            continue;
        }
        let silent = st.memb.silent_for(s, now);
        if silent >= tol.suspicion {
            if !Policy::evict_in_place(st, ctx, balancer, s, settling, now).await? {
                suspect = Some(s);
                break;
            }
            continue;
        }
        if settling && silent >= tol.speculate_after {
            Policy::speculate(st, ctx, s).await;
        }
        if settling
            && promoted.is_none()
            && !st.memb.heard_any[s]
            && st.memb.nudge_due(s, now, tol.nudge)
        {
            // A slave that has never spoken a protocol message may have
            // lost its Start or its first release; its `Alive` pings
            // refresh the suspicion timer but carry no evidence of what it
            // is missing, so silence is not required here — re-send both on
            // the nudge timer. This also fires with no fault anywhere: a
            // pipelined slave still waiting for its left neighbour's first
            // boundary column has never spoken either (measured:
            // `start_resends` = 1 in the quiet 31-slave SOR cell of
            // `tests/master_golden.rs`, 30 in `wide_armed`'s 64-slave one —
            // idempotent at the slave, and a blocked-on-a-peer vs. dead
            // confusion a wait-for edge would remove). Every other loss is
            // event-triggered from the receive arms: a slave missing a
            // control message keeps heartbeating, and the heartbeat itself
            // carries what it is missing. (Never under a takeover: the
            // survivors are mid-run, and the reign's opening move is the
            // Rollback, not a Start.)
            send(ctx, st.slaves[s], start.clone()).await;
            st.rec.start_resends += 1;
            send(ctx, st.slaves[s], st.release_msg()).await;
            st.rec.invocation_start_resends += 1;
        } else if (collecting
            || ((!settling || !st.win[s].fully_acked())
                && st.memb.unheard_for(s, now) >= tol.nudge))
            && st.memb.nudge_due(s, now, tol.nudge)
        {
            // Collecting, a survivor still owes its `Held`: the `Promoted`
            // or the answer was lost, and it keeps chattering from its
            // barrier, so the nudge needs no silence. Otherwise, no protocol
            // progress for a nudge interval. Settling, windowed
            // messages are outstanding: the window content was lost. A
            // slave that lost its Rollback cannot event-trigger the re-send
            // — it is either parked silent, still pinging from a blocked
            // wait, or chattering from a stale epoch — so the timer keys off
            // *protocol* silence, which pings do not refresh. Under a
            // takeover, lead with the Promoted announcement in case the
            // slave never learned of the reign (it resets the slave's
            // master-channel dedup so the replayed Rollback is fresh to it,
            // and a collection's window is empty). Gathering, a slave with
            // its window acknowledged may be waiting for a GatherAck after
            // its GatherData was lost (it waits quietly, re-sending only on
            // a duplicate Gather); one without is parked, still waiting for
            // its Rollback.
            match (phase, promoted) {
                (Phase::Gather { .. }, _) if st.win[s].fully_acked() => {
                    st.resend_gather(ctx, s).await;
                }
                (Phase::Settle | Phase::Collect { .. }, Some(promoted)) => {
                    send(ctx, st.slaves[s], promoted.clone()).await;
                    st.replay_window(ctx, s).await;
                }
                _ => st.replay_window(ctx, s).await,
            }
        }
    }
    // Keeps the deputies' election trigger quiet, the gather included.
    st.ping_deputies(ctx).await;
    if let Some(s) = suspect {
        // A loss that re-ranges: evict the first suspect and restart from
        // the newest complete checkpoint — mid-gather too, as its
        // un-gathered state is gone. Collecting, its fragments died with
        // it, and the collection re-ranges once the rest have answered.
        if gathering {
            st.rec.gathers_interrupted += 1;
        }
        let now = ctx.now();
        st.evict(ctx, balancer, s, now).await?;
        if collecting {
            return Ok(false);
        }
        st.rerange(ctx, balancer, &[]).await?;
        return Ok(true);
    }
    if settling {
        Policy::renotify(st, ctx, now).await;
        // Every other way to lose the last slave ends in an eviction or a
        // re-range that reports it; this is a run whose every slot was
        // deferred. (A gather that lost all its slaves to re-scatter's
        // bare evictions completes from the safety net.)
        if !st.memb.any_alive() {
            return Err(ProtocolError::AllSlavesDead);
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::BalancerConfig;
    use crate::kernels::tests::{Cols, Doubler};
    use crate::msg::SharedUnits;
    use crate::recovery::SlaveFaultStats;
    use crate::session::replica::DeputyState;
    use dlb_sim::{NodeConfig, SimBuilder, SimDuration};
    use std::ops::Range;

    /// A one-slave, one-unit master configuration with no fault wiring.
    fn plain_cfg() -> MasterConfig {
        MasterConfig {
            balancer: Balancer::new(
                BalancerConfig::default(),
                vec![1],
                SimDuration::from_millis(100),
                SimDuration::from_millis(1),
                1,
                1.0,
            ),
            app: AppSpec::Independent(Arc::new(Doubler { n: 1, reps: 1 })),
            record_timeline: false,
            ft: None,
        }
    }

    /// `MasterConfig::ft` is an `Option`, so a takeover kit whose
    /// configuration carries no fault-mode wiring is representable. It must
    /// end as a typed error in the outcome, not as a panic inside the
    /// winner's actor.
    #[test]
    fn takeover_without_fault_wiring_is_a_typed_error() {
        let outcome = Arc::new(Mutex::new(MasterOutcome::default()));
        let kit = TakeoverKit {
            cfg: plain_cfg(),
            master: ActorId(0),
            slaves: vec![ActorId(0)],
            assignment: vec![(0, 1)],
            block_rows: 1,
            outcome: Arc::clone(&outcome),
        };
        let mut sim = SimBuilder::<Msg>::new();
        let node = sim.add_node(NodeConfig::default());
        sim.spawn_mail(node, "winner", move |ctx| async move {
            let seed = DeputyState::new(0, 1, 1, ctx.now()).seed(1, Vec::new());
            run_takeover(&ctx, &kit, seed, 0).await.unwrap();
        });
        sim.run();
        let o = outcome.lock().unwrap();
        assert!(!o.completed);
        let typed = matches!(o.error, Some(ProtocolError::Inconsistent { .. }));
        assert!(typed, "{:?}", o.error);
    }

    /// What a takeover kit holds: a clone taken before the run shares no
    /// balancer state with the original, so a promoted deputy starts from
    /// the configuration as built however far the first reign got.
    #[test]
    fn a_config_cloned_before_the_run_stays_pristine() {
        let mut cfg = plain_cfg();
        let kit_cfg = cfg.clone();
        let st = Status {
            slave: 0,
            invocation: 0,
            hook_seq: 1,
            units_done_delta: 1,
            elapsed: SimDuration::from_secs(1),
            active_units: 1,
            last_applied_seq: 0,
            epoch: 0,
            sent_to: Vec::new(),
            received_from: Vec::new(),
            move_cost_sample: None,
            interaction_cost_sample: None,
        };
        for _ in 0..3 {
            cfg.balancer.on_status(&st);
        }
        assert_eq!(cfg.balancer.stats().statuses, 3);
        assert_eq!(kit_cfg.balancer.stats(), BalancerStats::default());
    }

    /// Which messages make the stub slave send its stray first.
    type Trigger = fn(&Msg) -> bool;

    /// The snapshot states a `Cols` slot held: units `ids` at each
    /// invocation.
    type Holding = [(u64, Range<usize>)];

    fn fragments(holding: &Holding) -> Vec<(u64, SharedUnits)> {
        let units = |ids: &Range<usize>| ids.clone().map(|u| (u, Arc::new(col(u).1))).collect();
        holding
            .iter()
            .map(|(inv, ids)| (*inv, units(ids)))
            .collect()
    }

    /// The seed of deputy 0, elected in term 1, whose replica says the dead
    /// master had banked invocation `best_banked`, and which held `holding`.
    fn seed(best_banked: u64, holding: &Holding) -> TakeoverSeed {
        let mut deputy = DeputyState::new(0, 2, 2, SimTime::ZERO);
        (deputy.replica.fresh, deputy.replica.best_banked) = (best_banked, best_banked);
        deputy.seed(1, fragments(holding))
    }

    /// The seed of a deputy that never absorbed a replica nor held a state.
    fn empty_seed() -> TakeoverSeed {
        seed(0, &[])
    }

    /// Slot `me`'s answer to a `Promoted`: what it held.
    fn held(me: usize, holding: &Holding) -> Msg {
        Msg::Failover(FailoverMsg::Held {
            slave: me,
            fragments: fragments(holding),
        })
    }

    /// `Cols` unit `u`, which no invocation changes.
    fn col(u: usize) -> (usize, UnitData) {
        (u, vec![vec![u as f64]])
    }

    /// A `GatherData` from slot `me`.
    fn data(me: usize, units: Vec<(usize, UnitData)>, fault_stats: SlaveFaultStats) -> Msg {
        Msg::GatherData {
            slave: me,
            units,
            fault_stats,
        }
    }

    /// Slot `me`'s done report for `invocation`.
    fn done(me: usize, invocation: u64, epoch: u64, restore_seq: u64, owned: Vec<usize>) -> Msg {
        Msg::InvocationDone {
            slave: me,
            invocation,
            epoch,
            sent_to: vec![0; 2],
            received_from: vec![0; 2],
            metric: 0.0,
            restore_seq,
            owned_ids: owned,
        }
    }

    /// A fault-mode reign under `tol` over a four-unit `app` on two slots
    /// split as `assignment`, actor 0 its master. Each slot that holds
    /// units runs `stub(ctx, slot)` — slot 1 as actor 1, slot 0 as actor 2
    /// — unless it is the winner of a takeover from `seed`. A master that
    /// never ends the run exhausts the event budget.
    fn reign<F, Fut>(
        tol: FaultToleranceConfig,
        app: AppSpec,
        seed: Option<TakeoverSeed>,
        assignment: [(usize, usize); 2],
        stub: F,
    ) -> MasterOutcome
    where
        F: Fn(MailCtx<Msg>, usize) -> Fut + Clone + Send + 'static,
        Fut: std::future::Future<Output = ()> + Send + 'static,
    {
        let master = ActorId(0);
        let slot0 = if seed.is_some() { master } else { ActorId(2) };
        let (slaves, (lo, hi)) = (vec![slot0, ActorId(1)], assignment[0]);
        let assignment = assignment.to_vec();
        let cfg = MasterConfig {
            balancer: Balancer::new(
                BalancerConfig::default(),
                vec![2; 2],
                SimDuration::from_millis(100),
                SimDuration::from_millis(1),
                1,
                1.0,
            ),
            app,
            record_timeline: false,
            ft: Some(tol),
        };
        let outcome = Arc::new(Mutex::new(MasterOutcome::default()));
        let out = Arc::clone(&outcome);
        let mut sim = SimBuilder::<Msg>::new().max_events(20_000);
        let nodes = [(); 3].map(|()| sim.add_node(NodeConfig::default()));
        if let Some(seed) = seed {
            let kit = TakeoverKit {
                cfg,
                master: ActorId(2),
                slaves,
                assignment,
                block_rows: 1,
                outcome: out,
            };
            sim.spawn_mail(nodes[0], "winner", move |ctx| async move {
                run_takeover(&ctx, &kit, seed, 0).await.unwrap();
            });
        } else {
            sim.spawn_mail(nodes[0], "master", move |ctx| {
                run_master(ctx, cfg, slaves, assignment, 1, out)
            });
        }
        let stub0 = (slot0 != master && lo < hi).then(|| stub.clone());
        sim.spawn_mail(nodes[1], "stub1", move |ctx| stub(ctx, 1));
        sim.spawn_mail(nodes[2], "slot0", move |ctx| async move {
            match stub0 {
                Some(stub) => stub(ctx, 0).await,
                None => ctx.sleep(SimDuration::from_secs(3_600)).await,
            }
        });
        sim.run();
        let mut o = outcome.lock().unwrap();
        std::mem::take(&mut *o)
    }

    /// [`reign`] with slot 1 holding every unit in an original reign (slot
    /// 0 deferred), units 2 and 3 under a takeover. The stub answers each
    /// release with its done report, a `Promoted` with what it held
    /// (`holding`), and the `Gather` with every unit, as its last
    /// `Rollback` shipped them (else `[u]`) — after a stray `MasterPing`
    /// when the message that asked matches `stray_on`.
    fn stray_run(
        app: AppSpec,
        seed: Option<TakeoverSeed>,
        stray_on: Trigger,
        holding: &Holding,
    ) -> MasterOutcome {
        let master = ActorId(0);
        let split = if seed.is_some() { (0, 2) } else { (0, 0) };
        let answer = held(1, holding);
        reign(
            Default::default(),
            app,
            seed,
            [split, (split.1, 4)],
            move |ctx, me| {
                let answer = answer.clone();
                async move {
                    let (mut epoch, mut restore_seq) = (0, 0);
                    let mut held: Vec<(usize, UnitData)> = (0..4).map(col).collect();
                    loop {
                        let msg = ctx.recv().await.msg;
                        if stray_on(&msg) {
                            let ping = FailoverMsg::MasterPing { term: 0 };
                            send(&ctx, master, Msg::Failover(ping)).await;
                        }
                        let reply = match msg {
                            Msg::Rollback {
                                seq,
                                epoch: e,
                                invocation,
                                units,
                                ..
                            } => {
                                (epoch, restore_seq) = (e, seq);
                                held = units.into_iter().map(|(u, d)| (u, (*d).clone())).collect();
                                invocation
                            }
                            Msg::InvocationStart { invocation, .. } => invocation,
                            Msg::Failover(FailoverMsg::Promoted { .. }) => {
                                send(&ctx, master, answer.clone()).await;
                                continue;
                            }
                            Msg::Gather => {
                                send(&ctx, master, data(me, held.clone(), Default::default()))
                                    .await;
                                continue;
                            }
                            Msg::GatherAck | Msg::Abort => return,
                            _ => continue,
                        };
                        let done = done(me, reply, epoch, restore_seq, Vec::new());
                        send(&ctx, master, done).await;
                    }
                }
            },
        )
    }

    /// A message no arm expects ends an original reign as
    /// `UnexpectedMessage`, naming the phase it arrived in and the policy
    /// in force; a promoted deputy's reign shrugs the same stray off and
    /// completes.
    #[test]
    fn a_stray_names_its_phase_and_policy_unless_the_reign_is_a_takeover() {
        let release: Trigger = |m| matches!(m, Msg::InvocationStart { .. } | Msg::Rollback { .. });
        let gather: Trigger = |m| matches!(m, Msg::Gather);
        let rescatter = || AppSpec::Independent(Arc::new(Doubler { n: 4, reps: 2 }));
        let rollback = || AppSpec::Shrinking(Arc::new(Cols));
        for (app, policy) in [
            (&rescatter as &dyn Fn() -> AppSpec, "recoverable"),
            (&rollback, "checkpointed"),
        ] {
            for (stray_on, phase) in [(release, "invocation loop"), (gather, "gather")] {
                let o = stray_run(app(), None, stray_on, &[]);
                let Some(ProtocolError::UnexpectedMessage { context, .. }) = o.error else {
                    panic!("{policy} {phase}: {:?}", o.error);
                };
                assert_eq!(context, format!("{policy} {phase}"));
                let o = stray_run(app(), Some(empty_seed()), stray_on, &[]);
                assert!(o.completed, "{policy} {phase}: {:?}", o.error);
            }
        }
    }

    /// An `Abort` reaching an original reign is a finished successor's
    /// exit reply: the reign yields, as to the `Promoted` it missed, and
    /// writes no outcome over the successor's.
    #[test]
    fn an_original_reign_yields_to_a_finished_successors_exit_reply() {
        let app = AppSpec::Independent(Arc::new(Doubler { n: 4, reps: 2 }));
        let o = reign(
            Default::default(),
            app,
            None,
            [(0, 0), (0, 4)],
            |ctx, _| async move {
                ctx.recv().await;
                send(&ctx, ActorId(0), Msg::Abort).await;
            },
        );
        assert!(!o.completed && o.error.is_none(), "{:?}", o.error);
    }

    /// A takeover restarts where the fragments it collects — the winner's
    /// own and slot 1's `Held` answer — complete a snapshot, against a dead
    /// master that had banked invocation 3. Both hold 3: nothing is lost.
    /// Slot 1 holds only 2: the newest complete snapshot is 2, one lost.
    /// Slot 1's fragment of 3 died with the master and no invocation is
    /// complete: the initial data, all three lost. Each run ends bit for
    /// bit (`Cols` never computes, so every snapshot is also the sequential
    /// result).
    #[test]
    fn a_takeover_restarts_where_the_collected_fragments_complete_a_snapshot() {
        let cases: [(&Holding, &Holding, u64); 3] = [
            (&[(3, 0..2)], &[(3, 2..4)], 0),
            (&[(2, 0..2), (3, 0..2)], &[(2, 2..4)], 1),
            (&[(3, 0..2)], &[(2, 2..4)], 3),
        ];
        for (winner, slot1, lost) in cases {
            let app = AppSpec::Shrinking(Arc::new(Cols));
            let o = stray_run(app, Some(seed(3, winner)), |_| false, slot1);
            assert!(o.completed, "{:?}", o.error);
            assert_eq!(o.recovery.checkpoints_lost_to_stale_replica, lost);
            let mut result = o.result;
            result.sort_by_key(|(id, _)| *id);
            assert_eq!(result, (0..4).map(col).collect::<Vec<_>>());
        }
    }

    /// The gather row's repair of a lost final `Rollback`. The winner and
    /// slot 1 hold the end state's fragments, so the takeover's `Rollback`
    /// to slot 1 lands the run in the gather at once. The stub loses that
    /// `Rollback` and answers the `Gather` from the partition it held
    /// before, units 2 and 3; the replayed `Rollback` lands on a slave at
    /// the final snapshot, which reaches no barrier to acknowledge it from
    /// and delivers at once. Returns the outcome and the kinds the stub
    /// heard, `Promoted` (answered with `Held`) left out.
    fn lost_final_rollback() -> (MasterOutcome, Vec<&'static str>) {
        let heard = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&heard);
        let app = AppSpec::Shrinking(Arc::new(Cols));
        let split = [(0, 2), (2, 4)];
        let o = reign(
            Default::default(),
            app,
            Some(seed(3, &[(3, 0..2)])),
            split,
            move |ctx, me| {
                let (master, log) = (ActorId(0), Arc::clone(&log));
                async move {
                    let mut lost = false;
                    loop {
                        let reply = match ctx.recv().await.msg {
                            Msg::Rollback { .. } if !lost => {
                                lost = true;
                                log.lock().unwrap().push("lost rollback");
                                continue;
                            }
                            Msg::Rollback { units, .. } => {
                                log.lock().unwrap().push("rollback");
                                units.into_iter().map(|(u, d)| (u, (*d).clone())).collect()
                            }
                            Msg::Gather => {
                                log.lock().unwrap().push("gather");
                                vec![col(2), col(3)]
                            }
                            Msg::GatherAck => return log.lock().unwrap().push("ack"),
                            Msg::Failover(FailoverMsg::Promoted { .. }) => {
                                send(&ctx, master, held(me, &[(3, 2..4)])).await;
                                continue;
                            }
                            _ => continue,
                        };
                        send(&ctx, master, data(me, reply, Default::default())).await;
                    }
                }
            },
        );
        let heard = heard.lock().unwrap().clone();
        (o, heard)
    }

    /// Under rollback a slave that delivered from a window it never
    /// acknowledged still owes the gather: the sweep replays its window
    /// (one `restore_resends`) instead of waiting for units nobody holds.
    #[test]
    fn a_delivery_from_an_unacknowledged_window_still_owes_its_window() {
        let (o, heard) = lost_final_rollback();
        assert_eq!(heard, ["lost rollback", "gather", "rollback", "ack"]);
        assert_eq!(o.recovery.restore_resends, 1);
    }

    /// The re-delivery after the replayed `Rollback` is a repeat from the
    /// same slot, and it completes the gather with the units the first one
    /// lacked: the whole end state, bit for bit.
    #[test]
    fn the_re_delivery_after_the_replayed_rollback_completes_the_gather() {
        let (o, _) = lost_final_rollback();
        assert!(o.completed, "{:?}", o.error);
        assert_eq!(o.recovery.gather_dups_ignored, 1);
        let mut result = o.result;
        result.sort_by_key(|(id, _)| *id);
        assert_eq!(result, (0..4).map(col).collect::<Vec<_>>());
    }

    /// Under re-scatter each delivery is acknowledged at once, a duplicate
    /// included, and a duplicate adds nothing: no unit twice, its fault
    /// counters not absorbed again. Slot 1 delivers twice; slot 0 a second
    /// later, so the gather is still open when the duplicate lands.
    #[test]
    fn a_rescatter_delivery_is_acked_at_once_and_a_duplicate_ignored() {
        let acks = Arc::new(Mutex::new(0));
        let count = Arc::clone(&acks);
        let app = AppSpec::Independent(Arc::new(Doubler { n: 4, reps: 1 }));
        let o = reign(
            Default::default(),
            app,
            None,
            [(0, 2), (2, 4)],
            move |ctx, me| {
                let count = Arc::clone(&count);
                async move {
                    let (master, mine) = (ActorId(0), 2 * me..2 * me + 2);
                    let stats = SlaveFaultStats {
                        transfer_resends: 1,
                        ..Default::default()
                    };
                    // Ten silent seconds: the run is over.
                    let quiet = || ctx.now() + SimDuration::from_secs(10);
                    while let Some(env) = ctx.recv_deadline(quiet()).await {
                        let invocation = match env.msg {
                            Msg::InvocationStart { invocation, .. } => invocation,
                            Msg::Gather => {
                                let (copies, after) = if me == 1 { (2, 0) } else { (1, 1) };
                                ctx.sleep(SimDuration::from_secs(after)).await;
                                for _ in 0..copies {
                                    let units = mine.clone().map(col).collect();
                                    send(&ctx, master, data(me, units, stats.clone())).await;
                                }
                                continue;
                            }
                            Msg::GatherAck if me == 1 => {
                                *count.lock().unwrap() += 1;
                                continue;
                            }
                            _ => continue,
                        };
                        let done = done(me, invocation, 0, 0, mine.clone().collect());
                        send(&ctx, master, done).await;
                    }
                }
            },
        );
        assert!(o.completed, "{:?}", o.error);
        assert_eq!(*acks.lock().unwrap(), 2, "each delivery acked at once");
        assert_eq!(o.recovery.gather_dups_ignored, 1);
        assert_eq!(o.recovery.transfer_resends, 2, "once per slot");
        assert_eq!(o.result.len(), 4);
    }

    /// A re-scatter run over slots that each compute their half and
    /// deliver it, rejoin enabled. Slot 1 reports at once and, three
    /// seconds later (its nudge interval past, slot 0 not yet reported), sends
    /// a `Join` stamped `join` when that is given. Returns the outcome and
    /// the kinds slot 1 heard.
    fn joining_run(join: Option<u64>) -> (MasterOutcome, Vec<&'static str>) {
        let heard = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&heard);
        let tol = FaultToleranceConfig {
            rejoin_attempts: 3,
            ..Default::default()
        };
        let app = AppSpec::Independent(Arc::new(Doubler { n: 4, reps: 1 }));
        let o = reign(tol, app, None, [(0, 2), (2, 4)], move |ctx, me| {
            let log = Arc::clone(&log);
            async move {
                let (master, mine) = (ActorId(0), 2 * me..2 * me + 2);
                let quiet = || ctx.now() + SimDuration::from_secs(10);
                while let Some(env) = ctx.recv_deadline(quiet()).await {
                    if me == 1 {
                        log.lock().unwrap().push(match &env.msg {
                            Msg::InvocationStart { .. } => "start",
                            Msg::Gather => "gather",
                            Msg::GatherAck => "ack",
                            Msg::JoinRefuse { .. } => "refuse",
                            Msg::Rollback { .. } => "rollback",
                            Msg::Evict => "evict",
                            _ => "other",
                        });
                    }
                    match env.msg {
                        Msg::InvocationStart { invocation, .. } => {
                            if me == 0 {
                                ctx.sleep(SimDuration::from_millis(3_500)).await;
                            }
                            let done = done(me, invocation, 0, 0, mine.clone().collect());
                            send(&ctx, master, done).await;
                            if me == 1 {
                                ctx.sleep(SimDuration::from_secs(3)).await;
                                if let Some(incarnation) = join {
                                    let slave = me;
                                    send(&ctx, master, Msg::Join { slave, incarnation }).await;
                                }
                            }
                        }
                        Msg::Gather => {
                            let units = mine.clone().map(col).collect();
                            send(&ctx, master, data(me, units, Default::default())).await;
                        }
                        _ => {}
                    }
                }
            }
        });
        let heard = heard.lock().unwrap().clone();
        (o, heard)
    }

    /// A newer life's `Join` for a slot the master still counts alive
    /// speaks for no life the master knows: it is neither replayed to nor
    /// queued for admission, and the run goes on as if it was never sent.
    #[test]
    fn a_newer_lifes_join_over_a_live_slot_is_ignored() {
        let (quiet, heard_quiet) = joining_run(None);
        let (o, heard) = joining_run(Some(1));
        assert!(o.completed, "{:?}", o.error);
        assert_eq!(heard, heard_quiet, "slot 1 hears nothing in reply");
        assert_eq!(o.recovery.joins_admitted, 0);
        assert_eq!(o.recovery, quiet.recovery);
    }
}
