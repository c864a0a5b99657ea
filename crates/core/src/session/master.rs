//! Master-side session kernel: the state and transitions shared by both
//! fault-mode control loops (recoverable and checkpointed).
//!
//! `master.rs` drives the protocol — receive arms, timer sweeps, the
//! gather — but every structural transition lives here: membership and
//! eviction ([`Membership`]), the eviction fence and unit re-scatter
//! ([`Eviction`], [`resolve_evictions`]), speculation bookkeeping
//! ([`RestartSpec`], [`SnapshotSpec`]), and the checkpointed session
//! ([`CkSession`]) with its bank, epoch lifecycle, and rollback
//! orchestration.

use crate::balancer::Balancer;
use crate::error::{FaultToleranceConfig, ProtocolError};
use crate::master::InitUnitFn;
use crate::msg::{Instructions, Msg, UnitData};
use crate::protocol::SenderWindow;
use crate::recovery::{redistribute, RecoveryStats};
use crate::session::checkpoint::{checkpoint_stride, CheckpointBank};
use crate::session::membership::Membership;
use crate::session::speculation::{RestartSpec, SnapshotSpec};
use dlb_sim::{ActorId, MailCtx, SimDuration, SimTime};
use std::collections::BTreeSet;

/// Send with the model's wire-size accounting.
pub(crate) async fn send(ctx: &MailCtx<Msg>, to: ActorId, msg: Msg) {
    let bytes = msg.wire_bytes();
    ctx.send(to, msg, bytes).await;
}

/// Elementwise monotone merge of per-channel counters. Counters only grow,
/// so taking the max makes duplicated or reordered reports harmless.
pub(crate) fn merge_max(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = (*d).max(s);
    }
}

/// Every transfer channel between live slaves has settled: everything slave
/// `a` ever sent to slave `b` has been applied at `b`. Channels touching a
/// dead slave are exempt — they are closed by the eviction protocol, which
/// re-owns whatever was still in flight.
pub(crate) fn channels_settled(alive: &[bool], sent: &[Vec<u64>], recv: &[Vec<u64>]) -> bool {
    let n = alive.len();
    (0..n).all(|a| !alive[a] || (0..n).all(|b| !alive[b] || recv[b][a] >= sent[a][b]))
}

/// A pending eviction: the master re-scatters the dead slave's units only
/// after every survivor has fenced off its channels with the dead peer and
/// reported its authoritative ownership ([`Msg::OwnReport`]). Until then
/// in-flight transfers could resurrect units behind the master's back.
pub(crate) struct Eviction {
    pub dead: usize,
    /// Survivors whose `OwnReport` about `dead` is still outstanding.
    pub awaiting: BTreeSet<usize>,
    /// What the master believed the dead slave owned (for the re-own
    /// accounting; the OwnReports are the authority).
    pub dead_owned: Vec<usize>,
}

/// Cancel the in-flight restart speculation (the suspect proved alive).
pub(crate) async fn cancel_spec(
    ctx: &MailCtx<Msg>,
    slaves: &[ActorId],
    win: &mut [SenderWindow<Msg>],
    spec: &mut Option<RestartSpec>,
    rec: &mut RecoveryStats,
) {
    if let Some(sp) = spec.take() {
        let msg = win[sp.executor]
            .send_with(|seq| Msg::SpecCancel {
                seq,
                spec_seq: sp.spec_seq,
            })
            .clone();
        send(ctx, slaves[sp.executor], msg).await;
        rec.speculations_cancelled += 1;
    }
}

/// All pending evictions are fully reported: compute the set of units no
/// survivor owns (directly or in an unacknowledged master message still in
/// flight), adopt speculation results for whatever they cover, and
/// re-scatter the rest from initial data.
#[allow(clippy::too_many_arguments)]
pub(crate) async fn resolve_evictions(
    ctx: &MailCtx<Msg>,
    slaves: &[ActorId],
    n_units: usize,
    inv: u64,
    memb: &mut Membership,
    owned: &mut [BTreeSet<usize>],
    win: &mut [SenderWindow<Msg>],
    evictions: &mut Vec<Eviction>,
    spec: &mut Option<RestartSpec>,
    init_unit: &InitUnitFn,
    rec: &mut RecoveryStats,
) {
    let n = slaves.len();
    // Units accounted for: owned by a survivor, or inside an unacknowledged
    // Restore/SpecCommit payload (the owner's `owned_ids` cannot reflect
    // those yet — `restore_seq` and `owned_ids` travel atomically in
    // InvocationDone, so once the window is acked the report includes them).
    let mut assigned: BTreeSet<usize> = BTreeSet::new();
    for s in 0..n {
        if !memb.alive[s] {
            continue;
        }
        assigned.extend(owned[s].iter().copied());
        for (_, m) in win[s].unacked() {
            match m {
                Msg::Restore { units, .. } => {
                    assigned.extend(units.iter().map(|(id, _)| *id));
                }
                Msg::SpecCommit { ids, .. } => assigned.extend(ids.iter().copied()),
                _ => {}
            }
        }
    }
    // In-flight units the survivors re-owned by closing channels with the
    // dead peers (a proxy count: everything the dead slave was believed to
    // own that a survivor now accounts for).
    for ev in evictions.iter() {
        rec.units_reowned += ev
            .dead_owned
            .iter()
            .filter(|u| assigned.contains(u))
            .count() as u64;
    }
    let mut missing: Vec<usize> = (0..n_units).filter(|u| !assigned.contains(u)).collect();

    // Speculation first: if the suspect is among the dead, its units were
    // already recomputed on the executor — adopt them without replay.
    if spec.as_ref().is_some_and(|sp| !memb.alive[sp.suspect]) {
        let sp = spec.take().expect("checked above");
        let commit: Vec<usize> = missing
            .iter()
            .copied()
            .filter(|u| sp.ids.contains(u))
            .collect();
        if commit.is_empty() {
            let msg = win[sp.executor]
                .send_with(|seq| Msg::SpecCancel {
                    seq,
                    spec_seq: sp.spec_seq,
                })
                .clone();
            send(ctx, slaves[sp.executor], msg).await;
            rec.speculations_cancelled += 1;
        } else {
            missing.retain(|u| !commit.contains(u));
            owned[sp.executor].extend(commit.iter().copied());
            rec.units_speculated += commit.len() as u64;
            rec.speculations_committed += 1;
            memb.done[sp.executor] = false;
            let msg = win[sp.executor]
                .send_with(|seq| Msg::SpecCommit {
                    seq,
                    spec_seq: sp.spec_seq,
                    ids: commit,
                })
                .clone();
            send(ctx, slaves[sp.executor], msg).await;
        }
    }

    let survivors = memb.survivors();
    for (t, units) in redistribute(&missing, &survivors) {
        let payload: Vec<(usize, UnitData)> = units.iter().map(|&u| (u, init_unit(u))).collect();
        rec.units_restored += payload.len() as u64;
        owned[t].extend(units.iter().copied());
        memb.done[t] = false;
        let msg = win[t]
            .send_with(|seq| Msg::Restore {
                seq,
                invocation: inv,
                units: payload,
            })
            .clone();
        send(ctx, slaves[t], msg).await;
    }
    evictions.clear();
}

/// Mutable state of the checkpointed session: membership, epoch lifecycle,
/// the checkpoint bank, speculation, and the per-slave control windows.
/// `run_checkpointed` in `master.rs` drives it; the structural transitions
/// (eviction, rollback, speculation launch/commit/cancel, stride choice)
/// are methods here.
pub(crate) struct CkSession {
    pub memb: Membership,
    pub last_hook_seq: Vec<u64>,
    pub metrics: Vec<f64>,
    pub sent: Vec<Vec<u64>>,
    pub recv: Vec<Vec<u64>>,
    pub win: Vec<SenderWindow<Msg>>,
    pub unacked_instr: Vec<Option<(u64, Instructions, u32)>>,
    /// Current rollback epoch; all protocol state is fenced by it.
    pub epoch: u64,
    /// Invocation being settled.
    pub inv: u64,
    /// The current invocation was released by a `Rollback` (which doubles
    /// as the barrier release), so the head of the loop must not broadcast
    /// another `InvocationStart`.
    pub released: bool,
    /// Checkpoint fragments and the newest complete snapshot.
    pub bank: CheckpointBank,
    /// In-flight snapshot speculation, at most one.
    pub spec: Option<SnapshotSpec>,
    /// Checkpoint cadence currently in force (broadcast with each barrier
    /// release; always 1 when the adaptation is disabled).
    pub ckpt_stride: u64,
    /// Exponential moving average of the invocation wall time (seconds),
    /// for the restart-cost estimate fed to the balancer.
    pub ema_s: f64,
    pub inv_started: SimTime,
}

impl CkSession {
    pub fn new(now: SimTime, n: usize, tol: &FaultToleranceConfig) -> CkSession {
        CkSession {
            memb: Membership::new(n, now, tol.nudge),
            last_hook_seq: vec![0u64; n],
            metrics: vec![0.0; n],
            sent: vec![vec![0u64; n]; n],
            recv: vec![vec![0u64; n]; n],
            win: vec![SenderWindow::new(); n],
            unacked_instr: (0..n).map(|_| None).collect(),
            epoch: 0,
            inv: 0,
            released: false,
            bank: CheckpointBank::new(),
            spec: None,
            ckpt_stride: 1,
            ema_s: 0.0,
            inv_started: now,
        }
    }

    pub fn settled(&self, balancer: &Balancer) -> bool {
        let n = self.memb.n();
        (0..n).all(|s| !self.memb.alive[s] || (self.memb.done[s] && self.win[s].fully_acked()))
            && channels_settled(&self.memb.alive, &self.sent, &self.recv)
            && balancer.outstanding_orders() == 0
    }

    /// Fold a settled invocation's wall time into the EMA and pick the
    /// checkpoint stride for the next barrier release.
    pub fn fold_invocation_time(&mut self, now: SimTime, tol: &FaultToleranceConfig) {
        let dur = now.saturating_since(self.inv_started).as_secs_f64();
        self.ema_s = if self.ema_s == 0.0 {
            dur
        } else {
            0.5 * self.ema_s + 0.5 * dur
        };
        self.ckpt_stride = checkpoint_stride(tol.ckpt_max_skip, tol.ckpt_loss_budget, self.ema_s);
    }

    /// Declare a slave dead. The caller must follow up with `rollback` —
    /// pipelined/shrinking state cannot be recovered in place. A
    /// speculation involving the dead slave (as suspect or executor) is
    /// abandoned without ceremony: its checkpoint either already banked or
    /// never will.
    pub async fn evict(
        &mut self,
        ctx: &MailCtx<Msg>,
        slaves: &[ActorId],
        balancer: &mut Balancer,
        s: usize,
        rec: &mut RecoveryStats,
    ) {
        self.memb.evict(s);
        rec.slaves_declared_dead += 1;
        rec.first_death.get_or_insert(ctx.now());
        send(ctx, slaves[s], Msg::Evict).await;
        balancer.mark_dead(s);
        self.metrics[s] = 0.0;
        self.unacked_instr[s] = None;
        if self.spec.as_ref().is_some_and(|sp| sp.involves(s)) {
            self.spec = None;
        }
    }

    /// Roll the survivors back to the newest complete checkpoint (or the
    /// initial data when none was banked yet): bump the epoch, re-partition
    /// the snapshot contiguously over the survivors, and release the
    /// resumed invocation through the windowed `Rollback` itself. The
    /// estimated re-execution cost is handed to the balancer so marginal
    /// moves stop looking profitable while the run is catching up.
    #[allow(clippy::too_many_arguments)]
    pub async fn rollback(
        &mut self,
        ctx: &MailCtx<Msg>,
        slaves: &[ActorId],
        balancer: &mut Balancer,
        ck_init: &InitUnitFn,
        n_units: usize,
        tol: &FaultToleranceConfig,
        rec: &mut RecoveryStats,
    ) -> Result<(), ProtocolError> {
        let n = self.memb.n();
        let survivors = self.memb.survivors();
        if survivors.is_empty() {
            return Err(ProtocolError::AllSlavesDead);
        }
        let (ck_inv, snapshot) = self.bank.rollback_snapshot(n_units, &|id| ck_init(id));
        rec.rollbacks += 1;
        rec.units_rolled_back += snapshot.len() as u64;
        self.epoch += 1;
        self.spec = None;
        // Restart cost: invocations lost since the checkpoint (including
        // the partially-done one), priced at the running per-invocation
        // average. `ck_inv` can exceed `inv` when a complete checkpoint for
        // the *next* barrier arrived before this one settled — then nothing
        // is lost. (In that corner the convergence test for the skipped
        // settlement is never evaluated; acceptable for a WHILE loop, which
        // only ever runs a bounded number of extra invocations.)
        let lost_invs = (self.inv + 1).saturating_sub(ck_inv);
        balancer.set_restart_cost(SimDuration::from_secs_f64(self.ema_s * lost_invs as f64));
        self.ckpt_stride = checkpoint_stride(tol.ckpt_max_skip, tol.ckpt_loss_budget, self.ema_s);
        let ranges = crate::driver::block_ranges(n_units, survivors.len());
        let mut counts = vec![0u64; n];
        let epoch = self.epoch;
        let ckpt_stride = self.ckpt_stride;
        for (k, &sv) in survivors.iter().enumerate() {
            let (lo, hi) = ranges[k];
            counts[sv] = (hi - lo) as u64;
            let units: Vec<(usize, UnitData)> = snapshot[lo..hi].to_vec();
            let msg = self.win[sv]
                .send_with(|seq| Msg::Rollback {
                    seq,
                    epoch,
                    invocation: ck_inv,
                    survivors: survivors.clone(),
                    ckpt_stride,
                    units,
                })
                .clone();
            send(ctx, slaves[sv], msg).await;
        }
        balancer.rebase(self.epoch, counts);
        // Everything tracked under the old epoch is void: the slaves reset
        // their channels on rebase, so the settlement matrices restart from
        // zero, and old-epoch instructions must never be replayed.
        for row in self.sent.iter_mut().chain(self.recv.iter_mut()) {
            row.iter_mut().for_each(|v| *v = 0);
        }
        self.unacked_instr.iter_mut().for_each(|u| *u = None);
        self.inv = ck_inv;
        self.released = true;
        let now = ctx.now();
        for &sv in &survivors {
            self.memb.last_heard[sv] = now;
            self.memb.next_nudge[sv] = now + tol.nudge;
            self.memb.done[sv] = false;
        }
        Ok(())
    }

    /// Try to launch a snapshot speculation for the silent `suspect`: hand
    /// the banked snapshot to an idle, fully settled survivor, which
    /// advances it by one invocation and returns it as an ordinary
    /// checkpoint. If the suspect is then evicted, the rollback restarts
    /// one invocation further ahead; if it speaks, the race is cancelled
    /// master-side at zero wire cost.
    pub async fn speculate(
        &mut self,
        ctx: &MailCtx<Msg>,
        slaves: &[ActorId],
        ck_init: &InitUnitFn,
        n_units: usize,
        suspect: usize,
        rec: &mut RecoveryStats,
    ) {
        if self.spec.is_some() || self.memb.done[suspect] {
            return;
        }
        let (ck_inv, snapshot) = self.bank.rollback_snapshot(n_units, &|id| ck_init(id));
        // Speculating past the invocation being settled would race work the
        // run has not reached; the corner where a complete checkpoint for
        // the next barrier already banked needs no race at all.
        if ck_inv > self.inv {
            return;
        }
        let n = self.memb.n();
        let Some(e) = (0..n).find(|&e| {
            e != suspect && self.memb.alive[e] && self.memb.done[e] && self.win[e].fully_acked()
        }) else {
            return;
        };
        let msg = self.win[e]
            .send_with(|seq| Msg::Speculate {
                seq,
                invocation: ck_inv,
                units: snapshot,
            })
            .clone();
        send(ctx, slaves[e], msg).await;
        self.spec = Some(SnapshotSpec {
            suspect,
            executor: e,
            invocation: ck_inv,
        });
        rec.speculations_launched += 1;
    }

    /// The suspect spoke: cancel the in-flight snapshot speculation, if it
    /// was about `speaker`. Master-local — the executor's checkpoint, if it
    /// still arrives, banks as a redundant fragment.
    pub fn cancel_speculation_for(&mut self, speaker: usize, rec: &mut RecoveryStats) {
        if self
            .spec
            .as_ref()
            .is_some_and(|sp| sp.cancelled_by(speaker))
        {
            self.spec = None;
            rec.speculations_cancelled += 1;
        }
    }

    /// A checkpoint arrived: if it is the speculative result, account the
    /// commit. The caller banks the units normally either way.
    pub fn note_speculative_checkpoint(
        &mut self,
        slave: usize,
        invocation: u64,
        units: usize,
        rec: &mut RecoveryStats,
    ) {
        if self
            .spec
            .as_ref()
            .is_some_and(|sp| sp.committed_by(slave, invocation))
        {
            self.spec = None;
            rec.speculations_committed += 1;
            rec.units_speculated += units as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::{Balancer, BalancerConfig};
    use dlb_sim::{NodeConfig, SimBuilder};

    fn unit(v: f64) -> UnitData {
        vec![vec![v]]
    }

    fn balancer(n: usize) -> Balancer {
        Balancer::new(
            BalancerConfig {
                enabled: false,
                ..BalancerConfig::default()
            },
            vec![1; n],
            SimDuration::from_millis(100),
            SimDuration::from_millis(1),
            4,
            1.0,
        )
    }

    /// Run `body` inside a real master actor with `n` inert slave actors,
    /// so session methods can send on genuine `MailCtx` channels.
    fn in_actor<F, Fut>(n: usize, body: F)
    where
        F: FnOnce(MailCtx<Msg>, Vec<ActorId>) -> Fut + Send + 'static,
        Fut: std::future::Future<Output = ()> + Send + 'static,
    {
        let mut sim = SimBuilder::<Msg>::new();
        let master_node = sim.add_node(NodeConfig::default());
        let slave_nodes: Vec<_> = (0..n)
            .map(|_| sim.add_node(NodeConfig::default()))
            .collect();
        let slave_ids: Vec<ActorId> = slave_nodes
            .into_iter()
            .enumerate()
            .map(|(i, node)| sim.spawn_mail(node, format!("slave{i}"), |_ctx| async {}))
            .collect();
        sim.spawn_mail(master_node, "master", move |ctx| body(ctx, slave_ids));
        sim.run();
    }

    #[test]
    fn eviction_during_rollback_rolls_back_again_cleanly() {
        in_actor(3, |ctx, slaves| async move {
            let (ctx, slaves) = (&ctx, &slaves[..]);
            let tol = FaultToleranceConfig::default();
            let mut sess = CkSession::new(ctx.now(), 3, &tol);
            let mut bal = balancer(3);
            let mut rec = RecoveryStats::default();
            let ck_init: InitUnitFn = Box::new(|id| unit(id as f64));

            // Bank a complete checkpoint for invocation 2, then lose slave 0.
            sess.inv = 2;
            sess.sent[0][1] = 5;
            assert!(sess.bank.offer(
                2,
                (0..3).map(|id| (id, unit(id as f64 + 10.0))).collect(),
                3
            ));
            sess.evict(ctx, slaves, &mut bal, 0, &mut rec).await;
            sess.rollback(ctx, slaves, &mut bal, &ck_init, 3, &tol, &mut rec)
                .await
                .expect("two survivors remain");
            assert_eq!(sess.epoch, 1);
            assert_eq!(sess.inv, 2, "restart at the banked invocation");
            assert!(sess.released);
            assert_eq!(sess.win[1].unacked().count(), 1, "rollback is windowed");

            // A second slave dies while that rollback is still
            // unacknowledged: evict + rollback again. The second rollback
            // supersedes the first (higher epoch), the dead slaves get no
            // message, and the remaining survivor's window holds both
            // rollbacks until acked.
            sess.evict(ctx, slaves, &mut bal, 1, &mut rec).await;
            sess.rollback(ctx, slaves, &mut bal, &ck_init, 3, &tol, &mut rec)
                .await
                .expect("one survivor remains");
            assert_eq!(sess.epoch, 2);
            assert_eq!(rec.rollbacks, 2);
            assert_eq!(rec.slaves_declared_dead, 2);
            assert_eq!(sess.memb.survivors(), vec![2]);
            assert_eq!(sess.win[2].unacked().count(), 2);
            // Settlement matrices were voided.
            assert!(sess.sent.iter().flatten().all(|&v| v == 0));

            // Last survivor dies: nothing left to roll back onto.
            sess.evict(ctx, slaves, &mut bal, 2, &mut rec).await;
            assert_eq!(
                sess.rollback(ctx, slaves, &mut bal, &ck_init, 3, &tol, &mut rec)
                    .await,
                Err(ProtocolError::AllSlavesDead)
            );
        });
    }

    #[test]
    fn speculation_commits_via_banked_checkpoint_and_cancels_on_heartbeat() {
        in_actor(3, |ctx, slaves| async move {
            let (ctx, slaves) = (&ctx, &slaves[..]);
            let tol = FaultToleranceConfig::default();
            let mut sess = CkSession::new(ctx.now(), 3, &tol);
            let mut rec = RecoveryStats::default();
            let ck_init: InitUnitFn = Box::new(|id| unit(id as f64));

            // Slave 1 is parked done; slave 0 goes silent at invocation 0.
            sess.memb.done[1] = true;
            sess.speculate(ctx, slaves, &ck_init, 3, 0, &mut rec).await;
            assert_eq!(rec.speculations_launched, 1);
            let sp = sess.spec.clone().expect("speculation in flight");
            assert_eq!(sp.executor, 1);
            assert_eq!(sp.invocation, 0, "no checkpoint banked: seeds from init");
            assert_eq!(sess.win[1].unacked().count(), 1);

            // A second launch attempt is refused while one is in flight.
            sess.speculate(ctx, slaves, &ck_init, 3, 0, &mut rec).await;
            assert_eq!(rec.speculations_launched, 1);

            // The executor's speculative checkpoint arrives: commit.
            sess.note_speculative_checkpoint(1, 1, 3, &mut rec);
            assert_eq!(rec.speculations_committed, 1);
            assert_eq!(rec.units_speculated, 3);
            assert!(sess.spec.is_none());

            // The executor's refreshed done report acks the Speculate —
            // until then its window is not settled and no further
            // speculation may target it.
            sess.speculate(ctx, slaves, &ck_init, 3, 0, &mut rec).await;
            assert_eq!(rec.speculations_launched, 1, "executor not yet acked");
            let spec_seq = sess.win[1].seq_sent();
            sess.win[1].ack(spec_seq);

            // Second round: this time the suspect heartbeats first.
            sess.speculate(ctx, slaves, &ck_init, 3, 0, &mut rec).await;
            assert_eq!(rec.speculations_launched, 2);
            sess.cancel_speculation_for(0, &mut rec);
            assert_eq!(rec.speculations_cancelled, 1);
            assert!(sess.spec.is_none());
            // The executor's late checkpoint now commits nothing.
            sess.note_speculative_checkpoint(1, 1, 3, &mut rec);
            assert_eq!(rec.speculations_committed, 1);
        });
    }

    #[test]
    fn speculation_requires_an_idle_settled_executor() {
        in_actor(2, |ctx, slaves| async move {
            let (ctx, slaves) = (&ctx, &slaves[..]);
            let tol = FaultToleranceConfig::default();
            let mut sess = CkSession::new(ctx.now(), 2, &tol);
            let mut rec = RecoveryStats::default();
            let ck_init: InitUnitFn = Box::new(|id| unit(id as f64));
            // Nobody is done: no executor, no launch.
            sess.speculate(ctx, slaves, &ck_init, 2, 0, &mut rec).await;
            assert_eq!(rec.speculations_launched, 0);
            assert!(sess.spec.is_none());
            // The only candidate is the suspect itself.
            sess.memb.done[0] = true;
            sess.speculate(ctx, slaves, &ck_init, 2, 0, &mut rec).await;
            assert_eq!(rec.speculations_launched, 0);
        });
    }
}
