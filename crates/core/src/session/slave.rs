//! The slave runner and the slave actor shell: the engine-independent half
//! of every slave, driven through a [`DistributionStrategy`].
//!
//! The paper generates one slave skeleton per program — compute a unit,
//! pass a hook, apply the master's instructions, idle at the invocation
//! barrier until released or gathered (§4.1–4.2) — and only the
//! work-movement routines differ by dependence structure (§4.5, Table 2).
//! [`run_slave`] is the actor body of every slave: it waits for `Start`,
//! builds the strategy from the assignment, and wraps the life cycle
//! around [`run`] — an election win turns the slave into the new master,
//! an eviction into a rejoin, anything else fatal into a `SlaveError`.
//! [`run`] owns the restart loop (run → gather → rollback → run again) and
//! the four places a slave blocks — the first release, the barrier, the
//! rescue after a reported wedge, the acknowledged gather reply — each a
//! row of the wait table in DESIGN.md §11, waited out in
//! [`SlaveCommon::wait`]; here is only what each does with a delivery. The
//! strategy supplies the dependence-structure specifics: the invocation
//! body, transfer integration, snapshot layout, and rollback restoration.
//!
//! ## Where the independent strategy differs
//!
//! Nothing here tests which strategy it serves. Each row is a trait item —
//! a method, or the `SNAPSHOTS` constant — whose default is the checkpointed
//! (pipelined, shrinking) behaviour, and this table is the single place the
//! two are contrasted.
//!
//! | # | point | independent | pipelined / shrinking |
//! |---|-------|-------------|-----------------------|
//! | a | rollback adoption (`restore`, after the shared fence in `apply_rollback`) | the unit map is replaced wholesale, nothing computed for any invocation | re-partitioned snapshot installed, neighbours / retired set re-derived |
//! | b | (retired) | — | — |
//! | c | (retired) | — | — |
//! | d | done report (`report`, and the `run_invocation` / `Refresh` contract) | carries the summed `local_metric`; re-owned units are reintegrated and `OwnReport`s sent first | metric 0 |
//! | e | barrier checkpoint (`SNAPSHOTS`, `checkpoint_units`) | none, ever: recovery is by re-scatter; a `Promoted` is answered with no fragments | shipped at every barrier, re-sent with every refreshed report; one snapshot per barrier state, rebuilt only after a `Refresh`. It and every installed `Rollback` are held (`SlaveCommon::hold`, the last two), and every `Promoted` of the adopted term is answered with them (`FailoverMsg::Held`, which also states the slave's life and invocation under both) |
//! | f | what refreshes the done report (`on_barrier_msg` → `Refresh`) | also every `TransferAck`, every `Evicted` (after re-owning, which may bring work), every `Restore`, and a stale `InvocationStart` in fault mode | `Transfer` and executed movement orders only; acks and evictions go through `SlaveCommon::control`, a stale release is dropped silently, a `Restore` is a protocol violation |
//! | g | `speculate` | the raced units advanced one invocation and shipped as a checkpoint for the next: the suspect's units from initial data, heartbeating | the same, for the banked snapshot |
//! | h | `Gather` (`may_end_after`) | ends the run at any barrier — the master's WHILE test decides (§4.1) | only at the last barrier; anywhere else it is a stray from a superseded master and a protocol violation |
//!
//! Three points are one code path for all three. A wedged slave — a
//! timeout, a missing pivot, torn state — is reported and rescued by a
//! re-range (`ProtocolError::survivable`, `rescue_wait`). The wait for the
//! first release takes only the release and instructions out of the
//! mailbox; everything else waits for the invocation it belongs to. And
//! rollback adoption fences the channels one way: `dead[]` is rewritten
//! from the survivor list and only the survivors' channels are reset. (The independent engine used to `close()` a non-survivor's
//! channel first; that only freed retained payloads — sends, accepts and
//! re-sends all gate on `dead[]`, and a rejoiner's channel is reset either
//! way.)

use crate::balancer::InteractionMode;
use crate::error::{FaultToleranceConfig, ProtocolError};
use crate::master::{run_takeover, TakeoverKit};
use crate::msg::{Msg, SharedUnits};
use crate::session::strategy::{BarrierMsg, DistributionStrategy};
use crate::slave_common::{recv_start, Blocked, RollbackInfo, SlaveCommon, StartInfo, Wait};
use dlb_sim::{ActorId, MailCtx, SimTime};
use std::rc::Rc;

/// Static configuration for one slave, whatever its engine.
pub struct SlaveSpec {
    pub idx: usize,
    pub master: ActorId,
    pub mode: InteractionMode,
    pub ft: Option<FaultToleranceConfig>,
    /// Everything a promoted deputy needs to rebuild the master role
    /// (pristine configuration, outcome slot, topology). `None` outside fault
    /// mode.
    pub takeover: Option<Rc<TakeoverKit>>,
    /// Latecomer start time: when set, this slave starts with no units,
    /// idles until the given instant, then joins the running pool via the
    /// [`Msg::Join`] handshake.
    pub join_at: Option<SimTime>,
}

impl SlaveSpec {
    /// The shared state of one life of this slave, strategy `S`'s: a
    /// pattern with snapshots holds them for a takeover (row e).
    fn common<S: DistributionStrategy>(
        &self,
        ctx: &MailCtx<Msg>,
        master: ActorId,
        slaves: Vec<ActorId>,
        incarnation: u64,
    ) -> SlaveCommon {
        let mut common = SlaveCommon::new(self.idx, master, slaves, self.mode, self.ft.clone());
        common.incarnation = incarnation;
        common.enable_deputy(ctx.now());
        common.held = S::SNAPSHOTS.then(Vec::new);
        common
    }
}

/// Actor body of every slave. Never panics on protocol trouble: fatal
/// errors are shipped as [`Msg::SlaveError`] to the master this slave last
/// adopted.
pub async fn run_slave<S: DistributionStrategy>(
    spec: SlaveSpec,
    make_strategy: impl FnOnce(&SlaveSpec, &StartInfo) -> Result<S, ProtocolError>,
    ctx: MailCtx<Msg>,
) {
    let mut master = spec.master;
    match slave_life(&spec, make_strategy, &ctx, &mut master).await {
        Ok(())
        | Err(ProtocolError::Aborted)
        | Err(ProtocolError::Evicted { .. })
        | Err(ProtocolError::JoinRefused { .. }) => {}
        Err(error) => {
            let msg = Msg::SlaveError {
                slave: spec.idx,
                error,
            };
            let bytes = msg.wire_bytes();
            ctx.send(master, msg, bytes).await;
        }
    }
}

/// The slave's lives, from `Start` to its end. `master` follows every
/// `Promoted` the slave adopts, so a fatal error after a failover reaches
/// the reign that replaced the dead one.
async fn slave_life<S: DistributionStrategy>(
    spec: &SlaveSpec,
    make_strategy: impl FnOnce(&SlaveSpec, &StartInfo) -> Result<S, ProtocolError>,
    ctx: &MailCtx<Msg>,
    master: &mut ActorId,
) -> Result<(), ProtocolError> {
    let start = recv_start(ctx, spec.idx, spec.ft.is_some()).await?;
    let mut strategy = make_strategy(spec, &start)?;
    let mut common = spec.common::<S>(ctx, spec.master, start.0, 0);
    if let Some(at) = spec.join_at {
        // Latecomer: the parked Start taught us the topology; idle to the
        // join instant, then announce. The admission rollback lands in
        // `pending_rollback` and is adopted by the runner.
        common.park_then_join(ctx, at).await?;
    }
    loop {
        let life = run(ctx, &mut common, &mut strategy).await;
        *master = common.master;
        match life {
            Err(ProtocolError::Elected { .. }) => {
                // This deputy won the master election: drop the slave role
                // and rebuild the master in place from what it knew.
                let missing = |what| ProtocolError::Inconsistent {
                    detail: format!("slave {}: elected with no takeover {what}", spec.idx),
                };
                let seed = common.takeover.take().ok_or_else(|| missing("seed"))?;
                let kit = spec.takeover.as_deref().ok_or_else(|| missing("kit"))?;
                let tol = spec.ft.clone().ok_or_else(|| missing("wiring"))?;
                return run_takeover(ctx, kit, tol, seed, spec.idx).await;
            }
            Err(ProtocolError::Evicted { .. })
                if spec.ft.as_ref().is_some_and(|ft| ft.rejoin_attempts > 0) =>
            {
                // Eviction is no longer the end of the line: come back
                // as a fresh incarnation and ask to be re-admitted. The
                // rebuilt common starts with clean channel/epoch state;
                // the old life's windows and clocks die with it.
                let (master, slaves) = (common.master, common.slaves.clone());
                let term = common.promoted_term;
                common = spec.common::<S>(ctx, master, slaves, common.incarnation + 1);
                common.promoted_term = term;
                common.join_handshake(ctx).await?;
            }
            r => return r,
        }
    }
}

/// Execute one life of the slave. Returns when the run completes (gather
/// acknowledged) or with a fatal error; recoverable trouble is reported to
/// the master and survived by rollback.
pub async fn run<S: DistributionStrategy>(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    strategy: &mut S,
) -> Result<(), ProtocolError> {
    let total = strategy.invocations();
    let mut start = 0u64;
    let mut need_release = true;
    loop {
        // A rejoiner arrives with the admission rollback already stashed by
        // the join handshake; every later pass adopts the one that unwound
        // the previous. Either way the rollback itself releases the resumed
        // invocation: no InvocationStart follows.
        if let Some(rb) = common.pending_rollback.take() {
            start = apply_rollback(common, strategy, rb)?;
            need_release = false;
        }
        // The gather reply lives *inside* the restart loop: a peer can die
        // while the master is collecting results, and the resulting
        // rollback must re-run the lost invocations on the survivors — so
        // a rollback arriving during the gather wait unwinds to here like
        // any other.
        let result = match run_invocations(ctx, common, strategy, start, total, need_release).await
        {
            Ok(()) => reply_gather(ctx, common, strategy).await,
            Err(e) => Err(e),
        };
        match result {
            Ok(()) => return Ok(()),
            Err(ProtocolError::RolledBack) => {}
            Err(e) if common.ft.is_some() && e.survivable() => {
                // Wedged (lost halo, torn protocol state): report and wait
                // to be re-ranged rather than dying — the master answers
                // a SlaveError with a rollback, not an eviction.
                let msg = Msg::SlaveError {
                    slave: common.idx,
                    error: e,
                };
                common.send_master(ctx, msg.clone()).await;
                rescue_wait(ctx, common, &msg).await?;
            }
            Err(e) => return Err(e),
        }
        if common.pending_rollback.is_none() {
            let idx = common.idx;
            return Err(ProtocolError::Inconsistent {
                detail: format!("slave {idx}: rollback unwound with no pending payload"),
            });
        }
    }
}

/// After shipping `report`, a `SlaveError`, wait for the master's rollback
/// (stashed in `pending_rollback`), an abort, or an eviction: the
/// [`Blocked::Wedged`] wait. Only what [`Msg::can_go_stale`] is received,
/// halos ([`Msg::is_halo`]) excepted (and, if the ladder does not consume
/// it, dropped as traffic of the torn epoch): a peer rescued before us may
/// already be replaying, and its pivot broadcast or halo stays queued for
/// our own replay. A `Gather` is evidence that
/// the report was lost — a master that heard it rolls back instead of
/// gathering — so it is answered with the report again; without that, the
/// master waits on our units while we wait on its rollback.
async fn rescue_wait(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    report: &Msg,
) -> Result<(), ProtocolError> {
    let mut wait = Wait::new(Blocked::Wedged, "rescue rollback", ctx.now());
    loop {
        if let Some(env) = common.wait(ctx, &mut wait, |_| false).await? {
            match common.service(ctx, &env.msg).await {
                Err(ProtocolError::RolledBack) => return Ok(()),
                Ok(false) if matches!(env.msg, Msg::Gather) => {
                    common.send_master(ctx, report.clone()).await;
                }
                serviced => {
                    serviced?;
                }
            }
        }
    }
}

/// Adopt a rollback: fence the shared channel state (epoch, transfer
/// dedup, report bookkeeping), then hand the snapshot to the strategy to
/// rebuild its own state. Returns the invocation to resume from.
fn apply_rollback<S: DistributionStrategy>(
    common: &mut SlaveCommon,
    strategy: &mut S,
    rb: RollbackInfo,
) -> Result<u64, ProtocolError> {
    if !rb.survivors.contains(&common.idx) {
        return Err(ProtocolError::Evicted { slave: common.idx });
    }
    for s in 0..common.dead.len() {
        common.dead[s] = !rb.survivors.contains(&s);
    }
    // The rollback re-partitions (or re-scatters) every unit from the
    // master's side: nothing reclaimed from closed channels, and no
    // ownership report, survives it.
    common.reclaimed.clear();
    common.own_report_due.clear();
    common.rebase_epoch(rb.epoch);
    common.invocation = rb.invocation;
    common.hold(rb.invocation, &rb.units);
    strategy.restore(common, rb)
}

async fn run_invocations<S: DistributionStrategy>(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    strategy: &mut S,
    start: u64,
    total: u64,
    need_release: bool,
) -> Result<(), ProtocolError> {
    if need_release {
        // Initial release: the end-of-invocation barrier consumes every
        // later InvocationStart. Everything else stays queued for the
        // invocation it belongs to.
        loop {
            let context = strategy.first_release_context();
            let pred = |m: &Msg| matches!(m, Msg::InvocationStart { .. } | Msg::Instructions(_));
            let wait = Wait::on_peer(context, ctx.now());
            match common.recv_blocking(ctx, pred, wait).await?.msg {
                Msg::InvocationStart { invocation: 0 } => break,
                // Orders that predate the release have nothing to move.
                Msg::Instructions(_) => {}
                m => return Err(common.unexpected(context, &m)),
            }
        }
    }

    for inv in start..total {
        common.invocation = inv;
        strategy.run_invocation(ctx, common, inv).await?;
        if barrier(ctx, common, strategy, inv, inv + 1 == total).await? == Released::Gather {
            break;
        }
    }
    Ok(())
}

async fn send_done<S: DistributionStrategy>(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    strategy: &S,
    inv: u64,
) {
    let (owned_ids, metric) = strategy.report();
    let msg = Msg::InvocationDone {
        slave: common.idx,
        invocation: inv,
        epoch: common.epoch,
        sent_to: common.sent_to_vec(),
        received_from: common.recv_watermarks(),
        metric,
        restore_seq: common.master_chan.watermark(),
        owned_ids,
    };
    common.send_master(ctx, msg).await;
}

/// Ship the barrier checkpoint — the state from which invocation `inv + 1`
/// starts — and hold it for a takeover. Best-effort: a dropped checkpoint
/// only means the master rolls back to an older complete snapshot.
/// `snapshot` is the barrier's copy of the live state: taken on first use,
/// shared by every re-send, and cleared by the caller whenever the state
/// moved.
async fn send_checkpoint<S: DistributionStrategy>(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    strategy: &S,
    inv: u64,
    snapshot: &mut Option<SharedUnits>,
) {
    if !S::SNAPSHOTS || common.ft.is_none() {
        return;
    }
    let units = snapshot
        .get_or_insert_with(|| strategy.checkpoint_units())
        .clone();
    common.hold(inv + 1, &units);
    let msg = Msg::Checkpoint {
        slave: common.idx,
        invocation: inv + 1,
        units,
    };
    common.fault_stats.checkpoints_sent += 1;
    common.send_master(ctx, msg).await;
}

/// How a barrier wait ended.
#[derive(PartialEq)]
enum Released {
    /// The master released the next invocation.
    Next,
    /// The master requested the gather: the run is over.
    Gather,
}

/// Park at the barrier of `inv`: report done, then service messages until
/// the master releases the next invocation or requests the gather — the
/// [`Blocked::AtBarrier`] wait. The strategy has first refusal of every
/// message, channel control included: one that refreshes its report on a
/// `TransferAck` must see it before the ladder consumes it. A halo
/// ([`Msg::is_halo`]) stays queued for the sweep it belongs to.
async fn barrier<S: DistributionStrategy>(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    strategy: &mut S,
    inv: u64,
    is_final: bool,
) -> Result<Released, ProtocolError> {
    let mut snapshot = None;
    send_done(ctx, common, strategy, inv).await;
    send_checkpoint(ctx, common, strategy, inv, &mut snapshot).await;
    let fault_mode = common.ft.is_some();
    let mut wait = Wait::new(Blocked::AtBarrier, strategy.barrier_context(), ctx.now());
    loop {
        let Some(env) = common.wait(ctx, &mut wait, |_| false).await? else {
            // Heartbeat: our done report (or the barrier release) may have
            // been lost; refresh it, and the checkpoint with it.
            send_done(ctx, common, strategy, inv).await;
            send_checkpoint(ctx, common, strategy, inv, &mut snapshot).await;
            continue;
        };
        let msg = match strategy.on_barrier_msg(ctx, common, inv, env.msg).await? {
            BarrierMsg::Pass(msg) => msg,
            BarrierMsg::Consumed => continue,
            BarrierMsg::Refresh => {
                // Ownership moved: the barrier's snapshot is stale.
                snapshot = None;
                send_done(ctx, common, strategy, inv).await;
                send_checkpoint(ctx, common, strategy, inv, &mut snapshot).await;
                continue;
            }
        };
        match msg {
            Msg::Speculate {
                seq,
                invocation,
                units,
            } if fault_mode => {
                // Race a silent suspect, and ship the result as a
                // checkpoint for `invocation + 1`: the master commits it
                // (banks it, or keeps it for the suspect's eviction) or
                // drops it — either way it is value-deterministic, so a
                // cancelled race leaves nothing to fence.
                if common.master_chan.fresh(seq) {
                    let units = strategy.speculate(ctx, common, inv, invocation, units);
                    let units = units.await?;
                    let msg = Msg::Checkpoint {
                        slave: common.idx,
                        invocation: invocation + 1,
                        units,
                    };
                    common.fault_stats.speculations_computed += 1;
                    common.fault_stats.checkpoints_sent += 1;
                    common.send_master(ctx, msg).await;
                }
                // The refreshed done report carries the new master-channel
                // watermark: the master's settlement waits for this ack.
                send_done(ctx, common, strategy, inv).await;
            }
            Msg::InvocationStart { invocation } if invocation == inv + 1 && !is_final => {
                return Ok(Released::Next);
            }
            // Stale duplicate of an earlier release.
            Msg::InvocationStart { invocation, .. } if fault_mode && invocation <= inv => {}
            Msg::Gather if strategy.may_end_after(inv) => return Ok(Released::Gather),
            Msg::Start { .. } | Msg::GatherAck if fault_mode => {} // duplicate deliveries
            // The ladder (a rollback unwinds from here), or a message the
            // protocol cannot accept at a barrier.
            m => {
                if !common.service(ctx, &m).await? {
                    return Err(common.unexpected(strategy.barrier_context(), &m));
                }
            }
        }
    }
}

/// The barrier consumed the Gather message; reply with the local units. In
/// fault mode, wait for the master's acknowledgement ([`Blocked::GatherAck`],
/// re-sending on duplicate `Gather` requests) so a dropped reply cannot lose
/// the result. A rollback can still unwind from here, so — as in
/// [`rescue_wait`] — what cannot go stale stays queued.
async fn reply_gather<S: DistributionStrategy>(
    ctx: &MailCtx<Msg>,
    common: &mut SlaveCommon,
    strategy: &S,
) -> Result<(), ProtocolError> {
    // One message in plain mode; fault mode keeps the payload, since it may
    // have to send it again.
    let data = |common: &SlaveCommon, units| Msg::GatherData {
        slave: common.idx,
        units,
        fault_stats: common.fault_stats.clone(),
    };
    let payload = strategy.gather_units()?;
    if common.ft.is_none() {
        common.send_master(ctx, data(common, payload)).await;
        return Ok(());
    }
    common.send_master(ctx, data(common, payload.clone())).await;
    let waiting = || Wait::new(Blocked::GatherAck, "gather acknowledgement", ctx.now());
    let mut wait = waiting();
    // Silence past the row's patience: assume the data arrived and the ack
    // was lost; the master recomputes locally if it really did not.
    while let Some(env) = common.wait(ctx, &mut wait, |_| false).await? {
        match env.msg {
            // Asked again: answer again, and start the wait over.
            Msg::Gather => {
                common.send_master(ctx, data(common, payload.clone())).await;
                wait = waiting();
            }
            // An abort ends a finished run quietly.
            Msg::GatherAck | Msg::Abort => break,
            // A re-gather request from a newly promoted master must reach
            // us at the new address, so promotions (and any election a
            // master death here triggers) are serviced. And a peer may have
            // died while the master was collecting results: the rollback
            // (or the transfer-ack bookkeeping that precedes it) unwinds
            // through the ladder so the restart loop re-runs the lost
            // invocations. Anything it hands back is stale traffic.
            m => {
                common.service(ctx, &m).await?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{FailoverMsg, UnitData};
    use crate::session::replica::DEPUTIES;
    use dlb_sim::{NodeConfig, SimBuilder, SimDuration};
    use std::cell::RefCell;
    use std::sync::Arc;

    /// The smallest strategy the runner accepts: three invocations that
    /// compute nothing, every barrier message passed back — except a stale
    /// release, which a snapshotting toy answers with a `Refresh`.
    struct Toy<const SNAPSHOTS: bool> {
        ends_anywhere: bool,
        /// Wedge (a survivable error) until a rollback rescues it; every
        /// invocation after that forwards to the master whatever it finds
        /// queued that cannot go stale.
        wedged: Option<bool>,
        /// Each invocation first waits for the pivot of step 0.
        pivots: bool,
    }

    impl<const SNAPSHOTS: bool> DistributionStrategy for Toy<SNAPSHOTS> {
        const SNAPSHOTS: bool = SNAPSHOTS;

        fn invocations(&self) -> u64 {
            3
        }
        fn first_release_context(&self) -> &'static str {
            "toy release"
        }
        fn barrier_context(&self) -> &'static str {
            "toy barrier"
        }
        async fn run_invocation(
            &mut self,
            ctx: &MailCtx<Msg>,
            common: &mut SlaveCommon,
            _: u64,
        ) -> Result<(), ProtocolError> {
            if self.wedged == Some(true) {
                return Err(ProtocolError::MissingPivot {
                    step: 0,
                    column: 0,
                    slave: common.idx,
                });
            }
            if self.pivots {
                let pivot = |m: &Msg| matches!(m, Msg::Pivot { .. });
                common
                    .recv_blocking(ctx, pivot, Wait::for_pivot(0, ctx.now()))
                    .await?;
            }
            while let Some(env) = ctx.try_recv_match(|m| !m.can_go_stale()).await {
                common.send_master(ctx, env.msg).await;
            }
            Ok(())
        }
        async fn on_barrier_msg(
            &mut self,
            _: &MailCtx<Msg>,
            _: &mut SlaveCommon,
            _: u64,
            msg: Msg,
        ) -> Result<BarrierMsg, ProtocolError> {
            match msg {
                Msg::InvocationStart { invocation: 0, .. } if SNAPSHOTS => Ok(BarrierMsg::Refresh),
                msg => Ok(BarrierMsg::Pass(msg)),
            }
        }
        fn report(&self) -> (Vec<usize>, f64) {
            (Vec::new(), 0.0)
        }
        fn may_end_after(&self, inv: u64) -> bool {
            self.ends_anywhere || inv == 2
        }
        fn checkpoint_units(&self) -> SharedUnits {
            assert!(SNAPSHOTS, "the runner asked a pattern without snapshots");
            vec![(0, Arc::new(vec![vec![1.0; 4]]))]
        }
        fn gather_units(&self) -> Result<Vec<(usize, UnitData)>, ProtocolError> {
            Ok(Vec::new())
        }
        fn restore(&mut self, _: &mut SlaveCommon, rb: RollbackInfo) -> Result<u64, ProtocolError> {
            assert!(self.wedged.is_some(), "only a wedged toy is rolled back");
            self.wedged = Some(false);
            Ok(rb.invocation)
        }
        async fn speculate(
            &mut self,
            _: &MailCtx<Msg>,
            _: &mut SlaveCommon,
            _: u64,
            _: u64,
            units: SharedUnits,
        ) -> Result<SharedUnits, ProtocolError> {
            Ok(units)
        }
    }

    /// How the slave under test is wired: its fault tolerance, and its rank
    /// among the `n` slaves of the `Start`.
    struct Shell {
        ft: Option<FaultToleranceConfig>,
        rank: usize,
        n: usize,
    }

    /// Run slave `rank` through the whole shell against an inert master
    /// stub that plays `Start`, then `script` (`(send time in ms,
    /// message)`), then `Abort` at `abort_ms`. Every other slot of the
    /// `Start` is a peer stub. Returns what the master stub was sent until
    /// then, and what the peer stubs were, by slot, in arrival order.
    fn against_stubs<const SNAPSHOTS: bool>(
        shell: Shell,
        toy: Toy<SNAPSHOTS>,
        script: Vec<(u64, Msg)>,
        abort_ms: u64,
    ) -> (Vec<Msg>, Vec<(usize, Msg)>) {
        let (master, end) = (ActorId(1), SimTime(abort_ms * 1000));
        let spec = SlaveSpec {
            idx: shell.rank,
            master,
            mode: InteractionMode::Pipelined,
            ft: shell.ft,
            takeover: None,
            join_at: None,
        };
        let mut sim = SimBuilder::<Msg>::new();
        // One node each: the slave, the master, and a peer per other slot.
        let nodes: Vec<_> = (0..=shell.n)
            .map(|_| sim.add_node(NodeConfig::default()))
            .collect();
        let make = move |_: &_, _: &_| Ok(toy);
        let slave = sim.spawn_mail(nodes[0], "slave", move |ctx| run_slave(spec, make, ctx));
        // The peers are spawned after the master, in slot order.
        let peers: Vec<usize> = (0..shell.n).filter(|&s| s != shell.rank).collect();
        let mut slaves = vec![slave; shell.n];
        for (i, &s) in peers.iter().enumerate() {
            slaves[s] = ActorId(2 + i);
        }
        let mut assignment = vec![(0, 0); shell.n];
        assignment[shell.rank] = (0, 1);
        let to_master = Rc::new(RefCell::new(Vec::new()));
        let to_peers = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&to_master);
        sim.spawn_mail(nodes[1], "master", move |ctx| async move {
            let start = Msg::Start {
                slaves,
                assignment,
                block_rows: 1,
            };
            let script = [(0, start)].into_iter().chain(script);
            for (at_ms, msg) in script.chain([(abort_ms, Msg::Abort)]) {
                while let Some(env) = ctx.recv_deadline(SimTime(at_ms * 1000)).await {
                    sink.borrow_mut().push(env.msg);
                }
                let bytes = msg.wire_bytes();
                ctx.send(slave, msg, bytes).await;
            }
        });
        for (&s, &node) in peers.iter().zip(&nodes[2..]) {
            let sink = Rc::clone(&to_peers);
            sim.spawn_mail(node, format!("peer{s}"), move |ctx| async move {
                while let Some(env) = ctx.recv_deadline(end).await {
                    sink.borrow_mut().push((s, env.msg));
                }
            });
        }
        sim.run();
        (to_master.take(), to_peers.take())
    }

    /// What the peer stubs heard, slots dropped.
    fn msgs(peers_heard: Vec<(usize, Msg)>) -> Vec<Msg> {
        peers_heard.into_iter().map(|(_, m)| m).collect()
    }

    /// [`against_stubs`] for a slave that never messages a peer: what the
    /// master stub heard.
    fn against_stub<const SNAPSHOTS: bool>(
        shell: Shell,
        toy: Toy<SNAPSHOTS>,
        script: Vec<(u64, Msg)>,
        abort_ms: u64,
    ) -> Vec<Msg> {
        let (heard, peer) = against_stubs(shell, toy, script, abort_ms);
        assert!(peer.is_empty(), "a peer was messaged: {peer:?}");
        heard
    }

    /// What the stub heard, by kind (a `SlaveError` by its error's kind).
    fn kinds(heard: &[Msg]) -> Vec<&'static str> {
        let kind = |m: &Msg| match m {
            Msg::InvocationDone { .. } => "done",
            Msg::Checkpoint { .. } => "ckpt",
            Msg::GatherData { .. } => "data",
            Msg::Pivot { .. } => "pivot",
            Msg::Alive { .. } => "alive",
            Msg::SlaveError { error, .. } => match error {
                ProtocolError::Timeout { .. } => "timeout",
                ProtocolError::UnexpectedMessage { .. } => "unexpected",
                ProtocolError::Inconsistent { .. } => "inconsistent",
                _ => "error",
            },
            _ => "other",
        };
        heard.iter().map(kind).collect()
    }

    /// The virtual minute after which the stub aborts most runs, in ms.
    const MINUTE: u64 = 60_000;

    /// No fault mode.
    const PLAIN: Shell = Shell {
        ft: None,
        rank: 0,
        n: 1,
    };

    /// Fault mode, with this slave as the lone deputy: it is rank 0 of one,
    /// and `DEPUTIES.min(1)` is 1.
    fn armed() -> Shell {
        Shell {
            ft: Some(FaultToleranceConfig::default()),
            ..PLAIN
        }
    }

    fn release(invocation: u64) -> Msg {
        Msg::InvocationStart { invocation }
    }

    const FINAL: Toy<false> = Toy {
        ends_anywhere: false,
        wedged: None,
        pivots: false,
    };
    const ANYWHERE: Toy<false> = Toy {
        ends_anywhere: true,
        wedged: None,
        pivots: false,
    };
    const SNAPSHOTTING: Toy<true> = Toy {
        ends_anywhere: true,
        wedged: None,
        pivots: false,
    };
    const PIVOTAL: Toy<false> = Toy {
        ends_anywhere: true,
        wedged: None,
        pivots: true,
    };
    const WEDGED: Toy<false> = Toy {
        ends_anywhere: true,
        wedged: Some(true),
        pivots: false,
    };

    fn rollback(invocation: u64, survivors: Vec<usize>) -> Msg {
        Msg::Rollback {
            seq: 1,
            epoch: 1,
            invocation,
            survivors,
            units: Vec::new(),
        }
    }

    #[test]
    fn rollback_that_omits_this_slave_evicts_it_before_restore() {
        let script = vec![(0, release(0)), (10, rollback(1, vec![1]))];
        let heard = against_stub(armed(), FINAL, script, MINUTE);
        // `Toy::restore` panics; eviction is a silent exit, not an error.
        assert_eq!(kinds(&heard), ["done"]);
    }

    /// A peer rolled back before us replays the resumed step and broadcasts
    /// its pivot while our own `Rollback` is still on the master's link. A
    /// wedged slave must not take it for the torn epoch's traffic: it is
    /// the only copy anyone will send.
    #[test]
    fn a_pivot_delivered_during_the_rescue_wait_is_there_after_the_rescue() {
        let pivot = Msg::Pivot {
            step: 0,
            values: vec![1.0; 4],
        };
        let stale = Msg::Instructions(Default::default());
        let rescue = [(10, pivot), (15, stale), (20, rollback(0, vec![0]))];
        let gather = [(30, Msg::Gather), (40, Msg::GatherAck)];
        let script = [(0, release(0))].into_iter().chain(rescue).chain(gather);
        let heard = against_stub(armed(), WEDGED, script.collect(), MINUTE);
        // The report of the wedge, then — rescued — the pivot the toy found
        // still queued; the stale instructions were dropped in the wait.
        assert_eq!(kinds(&heard), ["error", "pivot", "done", "data"]);
    }

    /// A wedged slave whose report was lost is asked for its result: it
    /// answers the `Gather` with the report again, not with silence, and is
    /// rescued by the rollback that answer brings.
    #[test]
    fn a_gather_reaching_a_wedged_slave_is_answered_with_its_report() {
        let rescue = [(10, Msg::Gather), (20, rollback(0, vec![0]))];
        let gather = [(30, Msg::Gather), (40, Msg::GatherAck)];
        let script = [(0, release(0))].into_iter().chain(rescue).chain(gather);
        let heard = against_stub(armed(), WEDGED, script.collect(), MINUTE);
        assert_eq!(kinds(&heard), ["error", "error", "done", "data"]);
    }

    #[test]
    fn gather_at_a_non_final_barrier_asks_the_strategy() {
        let script = || vec![(0, release(0)), (10, Msg::Gather)];
        let heard = against_stub(PLAIN, FINAL, script(), MINUTE);
        assert_eq!(kinds(&heard), ["done", "unexpected"]);
        let heard = against_stub(PLAIN, ANYWHERE, script(), MINUTE);
        assert_eq!(kinds(&heard), ["done", "data"]);
    }

    /// An error goes to the master this slave last adopted: after a
    /// failover that is the winner, not the reign it replaced, and so do
    /// the pings of the rescue wait that follows. A pattern without
    /// snapshots answers the `Promoted` too, with its life and invocation
    /// and no fragment.
    #[test]
    fn a_fatal_error_after_a_failover_goes_to_the_new_master() {
        let promoted = Msg::Failover(FailoverMsg::Promoted {
            term: 1,
            master_idx: 1,
        });
        let script = vec![(0, release(0)), (5, promoted), (10, Msg::Gather)];
        let (old, new) = against_stubs(Shell { n: 2, ..armed() }, FINAL, script, MINUTE);
        assert_eq!(kinds(&old), ["done"]);
        let new = msgs(new);
        let [Msg::Failover(answer), error, rescue @ ..] = &new[..] else {
            panic!("{new:?}");
        };
        let empty = FailoverMsg::Held {
            slave: 0,
            incarnation: 0,
            invocation: 0,
            fragments: Vec::new(),
        };
        assert_eq!(answer, &empty);
        assert_eq!(kinds(std::slice::from_ref(error)), ["unexpected"]);
        // The new master stays silent: the rescue wait vouches for the slave
        // in every silent slice, and the deputy stands for the next term
        // (a `Candidacy`) every ninth.
        let mut want = vec!["alive"; 7];
        (2..=8).for_each(|_| want.extend(["other"].into_iter().chain(["alive"; 8])));
        want.truncate(66);
        assert_eq!(kinds(rescue), want);
    }

    /// A snapshotting slave answers every `Promoted` of the term it adopted
    /// — the first and its repeat, not a stale one — with the snapshot
    /// states it holds: here the barrier checkpoint of invocation 0, the
    /// very storage it shipped.
    #[test]
    fn every_promotion_of_the_adopted_term_is_answered_with_the_held_states() {
        let promoted = |term| {
            Msg::Failover(FailoverMsg::Promoted {
                term,
                master_idx: 1,
            })
        };
        let reign = [(5, promoted(2)), (10, promoted(2)), (15, promoted(1))];
        let gather = [(20, Msg::Gather), (30, Msg::GatherAck)];
        let script = [(0, release(0))].into_iter().chain(reign).chain(gather);
        let shell = Shell { n: 2, ..armed() };
        let (old, new) = against_stubs(shell, SNAPSHOTTING, script.collect(), MINUTE);
        let new = msgs(new);
        let [Msg::InvocationDone { .. }, Msg::Checkpoint { units: shipped, .. }] = &old[..] else {
            panic!("{old:?}");
        };
        let held = |m: &Msg| match m {
            Msg::Failover(FailoverMsg::Held {
                slave: 0,
                fragments,
                ..
            }) => Some(fragments.clone()),
            _ => None,
        };
        let answers: Vec<_> = new.iter().filter_map(held).collect();
        assert_eq!(answers.len(), 2, "{new:?}");
        for fragments in answers {
            let [(1, units)] = &fragments[..] else {
                panic!("{fragments:?}");
            };
            assert!(Arc::ptr_eq(&units[0].1, &shipped[0].1));
        }
        assert_eq!(kinds(&new[2..]), ["data"]);
    }

    #[test]
    fn election_win_without_a_takeover_kit_is_one_typed_error() {
        // The master falls silent; the lone deputy heartbeats its done
        // report until it elects itself.
        let heard = against_stub(armed(), FINAL, vec![(0, release(0))], MINUTE);
        let mut kinds = kinds(&heard);
        kinds.retain(|k| *k != "done");
        assert_eq!(kinds, ["inconsistent"]);
    }

    #[test]
    fn stale_release_in_fault_mode_neither_releases_nor_errors() {
        let stale = [(0, release(0)), (10, release(0))];
        let gather = [(20, Msg::Gather), (30, Msg::GatherAck)];
        let heard = against_stub(
            armed(),
            ANYWHERE,
            stale.into_iter().chain(gather).collect(),
            MINUTE,
        );
        // Still parked after invocation 0 when the gather arrives.
        assert_eq!(kinds(&heard), ["done", "data"]);
    }

    #[test]
    fn a_strategy_without_snapshots_never_checkpoints() {
        let gather = [(3_500, Msg::Gather), (3_510, Msg::GatherAck)];
        let script = [(0, release(0))].into_iter().chain(gather).collect();
        let heard = against_stub(armed(), ANYWHERE, script, MINUTE);
        // One report and three heartbeat refreshes, no checkpoint with any.
        assert_eq!(kinds(&heard), ["done", "done", "done", "done", "data"]);
        let Some(Msg::GatherData { fault_stats, .. }) = heard.last() else {
            unreachable!();
        };
        assert_eq!(fault_stats.checkpoints_sent, 0);
    }

    /// The barrier's snapshot is one copy of the live state per barrier
    /// state: heartbeat re-sends share it, a `Refresh` retakes it.
    #[test]
    fn heartbeat_resends_share_one_snapshot_and_a_refresh_rebuilds_it() {
        let payloads = |script: Vec<(u64, Msg)>| -> Vec<Arc<UnitData>> {
            let gather = [(3_500, Msg::Gather), (3_510, Msg::GatherAck)];
            let script = [(0, release(0))].into_iter().chain(script).chain(gather);
            let heard = against_stub(armed(), SNAPSHOTTING, script.collect(), MINUTE);
            let unit = |m: &Msg| match m {
                Msg::Checkpoint { units, .. } => Some(Arc::clone(&units[0].1)),
                _ => None,
            };
            heard.iter().filter_map(unit).collect()
        };
        // The barrier report and three silent heartbeats: one payload.
        let quiet = payloads(Vec::new());
        assert_eq!(quiet.len(), 4);
        assert!(quiet.iter().all(|p| Arc::ptr_eq(p, &quiet[0])));
        // A stale release at 1.1 s makes the toy `Refresh` after the first
        // heartbeat: the two checkpoints before it share one payload, the
        // refreshed one and the two heartbeats after it another.
        let refreshed = payloads(vec![(1_100, release(0))]);
        assert_eq!(refreshed.len(), 5);
        assert!(Arc::ptr_eq(&refreshed[0], &refreshed[1]));
        assert!(!Arc::ptr_eq(&refreshed[1], &refreshed[2]));
        assert!(refreshed[2..].iter().all(|p| Arc::ptr_eq(p, &refreshed[2])));
    }
    // ---- the four blocked waits, pinned by what a silent master hears ----

    /// Fault mode with no deputy role (and so no election to end a silence
    /// early): the wait alone decides what a silent slice says. The slave
    /// is the first rank past the deputy set, and never messages the ranks
    /// below it.
    fn undeputised() -> Shell {
        Shell {
            rank: DEPUTIES,
            n: DEPUTIES + 1,
            ..armed()
        }
    }

    /// The lone deputy under a suspicion window longer than the 8 s of
    /// master silence it stands after.
    fn lone_deputy() -> Shell {
        let ft = FaultToleranceConfig {
            suspicion: SimDuration::from_secs(12),
            ..FaultToleranceConfig::default()
        };
        Shell {
            ft: Some(ft),
            ..PLAIN
        }
    }

    /// The `Timeout` a run ended in: what the slave was waiting for, and
    /// when it gave up in tenths of a virtual second (a send takes a
    /// millisecond or so, so slices drift by hundredths).
    fn timeout(heard: &[Msg]) -> (&'static str, u64) {
        match heard.last() {
            Some(Msg::SlaveError {
                error:
                    ProtocolError::Timeout {
                        waiting_for, at, ..
                    },
                ..
            }) => (waiting_for, (at.0 + 50_000) / 100_000),
            other => panic!("the run did not end in a timeout: {other:?}"),
        }
    }

    /// What `heard` holds up to its first `SlaveError`, that included, and
    /// what follows: the wait that failed, and the rescue wait.
    fn at_error(heard: &[Msg]) -> (&[Msg], &[Msg]) {
        let error = heard
            .iter()
            .position(|m| matches!(m, Msg::SlaveError { .. }));
        heard.split_at(error.expect("an error was reported") + 1)
    }

    /// `heard` is `prefix`, then `n` times `slice`, then `end`.
    #[track_caller]
    fn assert_heard(heard: &[Msg], prefix: &[&str], n: usize, slice: &[&str], end: &str) {
        let mut want = prefix.to_vec();
        (0..n).for_each(|_| want.extend(slice));
        want.push(end);
        assert_eq!(kinds(heard), want);
    }

    const PING: Msg = Msg::Failover(FailoverMsg::MasterPing { term: 0 });

    fn stale_instructions() -> Msg {
        Msg::Instructions(Default::default())
    }

    /// `recv_blocking`, as the armed wait for a first release that never
    /// comes: `Alive` in the silent slices of one suspicion window (8 s of
    /// 1 s slices: seven), then silence, then `Timeout` 30 s after the wait
    /// began — an absolute deadline, which clips the last slice. The
    /// timeout is reported, and the rescue wait pings in every silent slice
    /// until the stub aborts.
    #[test]
    fn a_peer_wait_pings_for_one_window_and_times_out_at_the_op_timeout() {
        let heard = against_stub(undeputised(), FINAL, vec![], MINUTE);
        let (wait, rescue) = at_error(&heard);
        assert_heard(wait, &[], 7, &["alive"], "timeout");
        assert_eq!(timeout(wait), ("toy release", 300));
        assert_eq!(kinds(rescue), ["alive"; 29]);
        // Any delivery restarts the slice, serviced control traffic
        // included: two pings 0.6 s apart push the later slices to x.2 s,
        // and only six of those end inside the window. Neither the window
        // nor the deadline moves with them.
        let pings = vec![(3_600, PING), (4_200, PING)];
        let heard = against_stub(undeputised(), FINAL, pings, MINUTE);
        let (wait, rescue) = at_error(&heard);
        assert_heard(wait, &[], 6, &["alive"], "timeout");
        assert_eq!(timeout(wait), ("toy release", 300));
        assert_eq!(kinds(rescue), ["alive"; 29]);
    }

    /// The same wait for a pivot knows whom it waits on: it asks nobody
    /// before its first silent slice, then one live peer per silent slice —
    /// the nearest lower slot first, one further each time, skipping the
    /// dead — past the window of `Alive`s, up to the deadline.
    #[test]
    fn a_pivot_wait_asks_a_rotating_live_peer_in_each_silent_slice() {
        let pivot = Msg::Pivot {
            step: 0,
            values: vec![1.0],
        };
        let gather = [(600, Msg::Gather), (700, Msg::GatherAck)];
        let script = [(0, release(0)), (500, pivot)].into_iter().chain(gather);
        let (heard, asked) = against_stubs(undeputised(), PIVOTAL, script.collect(), MINUTE);
        assert!(asked.is_empty(), "{asked:?}");
        assert_eq!(kinds(&heard), ["done", "data"]);

        // Slot 1 is evicted after it was asked.
        let script = vec![(0, release(0)), (2_500, Msg::Evicted { slave: 1 })];
        let (heard, asked) = against_stubs(undeputised(), PIVOTAL, script, MINUTE);
        let (wait, rescue) = at_error(&heard);
        assert_heard(wait, &[], 7, &["alive"], "timeout");
        assert_eq!(timeout(wait), ("pivot broadcast", 300));
        // Reported, the slave pings the master alone while it waits to be
        // rescued.
        assert_eq!(kinds(rescue), ["alive"; 29]);
        let to: Vec<usize> = asked
            .into_iter()
            .map(|(slot, m)| match m {
                Msg::PivotWanted { step: 0, from: 3 } => slot,
                m => panic!("{m:?}"),
            })
            .collect();
        // Two silent slices before the eviction, 27 after it; the 30th
        // ends the wait.
        let after = [2, 0].into_iter().cycle().take(27);
        assert_eq!(to, [2, 1].into_iter().chain(after).collect::<Vec<_>>());
    }

    /// `barrier`: the done report and the checkpoint once on arrival and
    /// once more per silent slice, `Timeout` at the 91st silent slice in a
    /// row. The timeout is reported, and the rescue wait that follows gives
    /// up 91 silent slices later.
    #[test]
    fn a_barrier_wait_reports_every_silent_slice_and_gives_up_after_ninety_in_a_row() {
        let heard = against_stub(
            undeputised(),
            SNAPSHOTTING,
            vec![(0, release(0))],
            4 * MINUTE,
        );
        let (wait, rescue) = at_error(&heard);
        assert_heard(wait, &[], 91, &["done", "ckpt"], "timeout");
        assert_eq!(timeout(wait), ("toy barrier", 910));
        assert_heard(rescue, &[], 90, &["alive"], "timeout");
        assert_eq!(timeout(rescue), ("rescue rollback", 910 + 911));
        // Any delivery resets the count and restarts the slice, one the
        // runner only services on the side included.
        let script = vec![(0, release(0)), (50_500, PING)];
        let heard = against_stub(undeputised(), SNAPSHOTTING, script, 4 * MINUTE);
        let (wait, rescue) = at_error(&heard);
        assert_heard(wait, &[], 51 + 90, &["done", "ckpt"], "timeout");
        assert_eq!(timeout(wait), ("toy barrier", 505 + 910));
        assert_heard(rescue, &[], 90, &["alive"], "timeout");
        assert_eq!(timeout(rescue), ("rescue rollback", 505 + 910 + 911));
    }

    /// `rescue_wait`: an `Alive` in every silent slice — no window bounds
    /// them — and `Timeout` at the 91st silent slice in all.
    #[test]
    fn a_wedged_slave_pings_every_silent_slice_and_counts_them_all() {
        let heard = against_stub(undeputised(), WEDGED, vec![(0, release(0))], 4 * MINUTE);
        assert_heard(&heard, &["error"], 90, &["alive"], "timeout");
        assert_eq!(timeout(&heard), ("rescue rollback", 910));
        // A delivery restarts the slice but not the count.
        let script = vec![(0, release(0)), (40_500, stale_instructions())];
        let heard = against_stub(undeputised(), WEDGED, script, 4 * MINUTE);
        assert_heard(&heard, &["error"], 90, &["alive"], "timeout");
        assert_eq!(timeout(&heard), ("rescue rollback", 915));
    }

    /// `reply_gather`: nothing is said while silent, and the run ends
    /// quietly at the 11th silent slice since the last `Gather` — each
    /// `Gather` is answered again and re-arms the patience, nothing else
    /// does.
    #[test]
    fn a_gather_reply_waits_ten_silent_slices_past_the_last_gather() {
        let replies = |last_gather_ms: u64| {
            let gathers = [10, 10_500, 21_000, last_gather_ms].map(|at| (at, Msg::Gather));
            let script = [(0, release(0)), (25_500, stale_instructions())];
            let mut script: Vec<_> = script.into_iter().chain(gathers).collect();
            script.sort_by_key(|(at, _)| *at);
            let heard = against_stub(undeputised(), ANYWHERE, script, MINUTE);
            let mut kinds = kinds(&heard);
            assert_eq!(kinds.remove(0), "done");
            assert!(kinds.iter().all(|k| *k == "data"), "{kinds:?}");
            kinds.len()
        };
        // The second and third `Gather` each come ten silent slices after
        // the one before and are answered. Four more have passed when the
        // stale instructions restart the slice at 25.5 s; the eleventh ends
        // at 32.5 s.
        assert_eq!(replies(32_000), 4);
        assert_eq!(replies(34_000), 3);
    }

    /// In every wait the deputy's election timer runs before the slave
    /// vouches for itself: the slice in which the lone deputy stands (8 s
    /// of master silence, inside the 12 s window) ends the slave's life
    /// with no `Alive` — and a deputy waiting for the gather
    /// acknowledgement stands before its patience runs out.
    #[test]
    fn a_silent_slice_ticks_the_election_before_it_says_anything() {
        let heard = against_stub(lone_deputy(), FINAL, vec![], MINUTE);
        assert_heard(&heard, &[], 7, &["alive"], "inconsistent");
        let heard = against_stub(lone_deputy(), WEDGED, vec![(0, release(0))], MINUTE);
        assert_heard(&heard, &["error"], 7, &["alive"], "inconsistent");
        let script = vec![(0, release(0)), (10, Msg::Gather)];
        let heard = against_stub(lone_deputy(), ANYWHERE, script, MINUTE);
        assert_heard(&heard, &["done", "data"], 0, &[], "inconsistent");
    }
}
