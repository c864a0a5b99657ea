//! Distribution strategy for independent distributed loops (MM-shaped
//! programs).
//!
//! Each invocation of the distributed loop computes every unit once. The
//! slave computes its local units in index order, firing the compiler-
//! placed hook after each unit. Work movement ships whole units (data +
//! done flag); moved units that were already computed this invocation are
//! not recomputed, and in-flight undone units keep the master's completion
//! count below the target so invocations never terminate early (§4.5).
//!
//! The slave's life cycle (first release, barrier heartbeats, rollback
//! adoption, gather reply, election and rejoin) lives in
//! [`crate::session::slave`]; this module supplies the independent
//! [`DistributionStrategy`]: the unit map, the per-invocation compute
//! loop, and what makes the pattern *recoverable by re-scatter* rather than
//! by checkpoint. The master can re-scatter a dead slave's units to
//! survivors via [`Msg::Restore`]; the receiver replays each restored
//! unit's computation history from the invocations it already holds
//! (identical `compute` calls in identical order), so the final gathered
//! data is bit-for-bit the same as a fault-free run. Work movement stays
//! live under faults: every transfer rides a sequenced per-peer channel
//! (dedup + ack + re-send; see [`crate::slave_common`]), units in flight to
//! an evicted peer are re-owned, and the master may race a silent
//! suspect's units here ([`Msg::Speculate`]): they are computed and shipped
//! back as a checkpoint, and if the suspect is evicted they return in a
//! `Restore` that holds them as done. A [`Msg::Rollback`] (master failover,
//! an admission after a join, the rescue of a wedged slave) re-scatters
//! every unit from the master's side, so adopting one is a wholesale
//! replacement of the map.
//! The runner's module doc tabulates where this strategy departs from the
//! checkpointed two.

use crate::error::ProtocolError;
use crate::kernels::IndependentKernel;
use crate::msg::{Edge, MoveOrder, MovedUnit, Msg, SharedUnits, TransferMsg, UnitData};
use crate::session::slave::SlaveSpec;
use crate::session::strategy::{BarrierMsg, DistributionStrategy};
use crate::slave_common::{RollbackInfo, SlaveCommon, StartInfo};
use dlb_sim::MailCtx;
use std::collections::BTreeMap;
use std::sync::Arc;

struct Unit {
    data: UnitData,
    /// Invocation this unit was last computed in.
    done_in: Option<u64>,
    /// `data` computed for the invocation named, ahead of its turn (with an
    /// earlier unit of the same kernel group); swapped in at that turn. A
    /// unit that leaves the map leaves this behind and ships `data`.
    ahead: Option<(u64, UnitData)>,
}

impl Unit {
    fn new(data: UnitData, done_in: Option<u64>) -> Unit {
        Unit {
            data,
            done_in,
            ahead: None,
        }
    }
}

/// A unit map in which nothing is computed for any invocation yet.
fn fresh(units: impl IntoIterator<Item = (usize, UnitData)>) -> BTreeMap<usize, Unit> {
    let unit = |(id, data)| (id, Unit::new(data, None));
    units.into_iter().map(unit).collect()
}

/// The independent distribution pattern plugged into the slave runner.
pub struct IndependentStrategy {
    kernel: Arc<dyn IndependentKernel>,
    units: BTreeMap<usize, Unit>,
    /// This invocation's share of the reduction the master's WHILE test
    /// reads: the summed `local_metric` of the units computed here.
    metric: f64,
}

impl IndependentStrategy {
    /// The strategy for the block of units the `Start` message assigns to
    /// `spec.idx` (empty for a latecomer).
    pub fn new(
        kernel: Arc<dyn IndependentKernel>,
        spec: &SlaveSpec,
        (_, assignment, _): &StartInfo,
    ) -> IndependentStrategy {
        let (lo, hi) = assignment[spec.idx];
        IndependentStrategy {
            units: fresh((lo..hi).map(|i| (i, kernel.init_unit(i)))),
            kernel,
            metric: 0.0,
        }
    }

    fn active_units(&self, inv: u64) -> u64 {
        if inv + 1 < self.kernel.invocations() {
            // Every unit will be recomputed next invocation.
            self.units.len() as u64
        } else {
            self.units
                .values()
                .filter(|u| u.done_in != Some(inv))
                .count() as u64
        }
    }

    /// Take ownership of unit `id`; `how` names the route it came by.
    fn own(
        &mut self,
        common: &SlaveCommon,
        how: &str,
        id: usize,
        data: UnitData,
        done_in: Option<u64>,
    ) -> Result<(), ProtocolError> {
        if self.units.insert(id, Unit::new(data, done_in)).is_some() {
            return Err(ProtocolError::Inconsistent {
                detail: format!("unit {id} {how} slave {} already owning it", common.idx),
            });
        }
        Ok(())
    }

    /// Apply a fresh transfer payload (the channel layer already deduplicated
    /// and acknowledged it).
    fn incorporate(&mut self, common: &SlaveCommon, t: TransferMsg) -> Result<(), ProtocolError> {
        for mu in t.units {
            let done_in = if mu.done { Some(t.invocation) } else { None };
            self.own(common, "moved to", mu.id, mu.data, done_in)?;
        }
        Ok(())
    }

    /// Reintegrate units re-owned from channels closed by peer eviction, then
    /// answer any pending ownership reports. Must run before the master can
    /// treat this slave's ownership as settled — every drain point calls it.
    async fn settle_evictions(
        &mut self,
        ctx: &MailCtx<Msg>,
        common: &mut SlaveCommon,
        inv: u64,
    ) -> Result<(), ProtocolError> {
        for mu in std::mem::take(&mut common.reclaimed) {
            let done_in = if mu.done { Some(inv) } else { None };
            self.own(common, "re-owned by", mu.id, mu.data, done_in)?;
        }
        for about in std::mem::take(&mut common.own_report_due) {
            let report = Msg::OwnReport {
                slave: common.idx,
                about,
                ids: self.units.keys().copied().collect(),
            };
            common.send_master(ctx, report).await;
        }
        Ok(())
    }

    /// Apply a `Restore` at the barrier of `inv` (or on the way to it):
    /// adopt the units, which already hold `held` invocations, and replay
    /// the rest of their computation history so their data matches what
    /// the dead owner would have held. Units that hold `inv + 1` — a race's
    /// result — are adopted as done in `inv`, with nothing to compute.
    /// Returns whether the restore was fresh (not a duplicate).
    async fn apply_restore(
        &mut self,
        ctx: &MailCtx<Msg>,
        common: &mut SlaveCommon,
        inv: u64,
        seq: u64,
        held: u64,
        restored: SharedUnits,
    ) -> Result<bool, ProtocolError> {
        if !common.master_chan.fresh(seq) {
            return Ok(false); // duplicate delivery
        }
        let done_in = (held > inv).then_some(inv);
        for (id, data) in restored {
            let mut data = Arc::unwrap_or_clone(data);
            // Replay: identical compute calls in identical order reproduce the
            // dead slave's unit state bit-for-bit up to the current barrier.
            for i in held..inv {
                common.compute(ctx, self.kernel.unit_cost_for(id, i)).await;
                self.kernel.compute(id, &mut data, i);
                // Heartbeat so a long replay does not trip the master's
                // suspicion timer (replayed units are not re-counted as done).
                let _ = common.hook(ctx, inv, self.active_units(inv)).await?;
            }
            self.own(common, "restored to", id, data, done_in)?;
        }
        Ok(true)
    }

    /// Drain already-queued transfers; in fault mode, also restores,
    /// transfer acks, peer evictions, and shutdown orders. A `Speculate`
    /// stays queued for the barrier: the master only races an idle slave.
    async fn drain_incoming(
        &mut self,
        ctx: &MailCtx<Msg>,
        common: &mut SlaveCommon,
        inv: u64,
    ) -> Result<(), ProtocolError> {
        let fault_mode = common.ft.is_some();
        let pred = |m: &Msg| {
            matches!(m, Msg::Transfer(_) | Msg::TransferAck { .. })
                || (fault_mode
                    && (m.is_channel_control()
                        || matches!(m, Msg::Restore { .. } | Msg::Abort | Msg::Evict)))
        };
        while let Some(env) = ctx.try_recv_match(pred).await {
            match env.msg {
                Msg::Transfer(t) => {
                    if common.accept_transfer(ctx, &t).await {
                        self.incorporate(common, t)?;
                    }
                }
                Msg::Restore {
                    seq,
                    invocation,
                    units,
                } => {
                    self.apply_restore(ctx, common, inv, seq, invocation, units)
                        .await?;
                }
                // Shutdown, acks, eviction notices, and a failover rollback
                // (stash + unwind to the runner's restart loop) or election
                // traffic.
                m => {
                    common.service(ctx, &m).await?;
                }
            }
        }
        self.settle_evictions(ctx, common, inv).await
    }

    async fn execute_moves(
        &mut self,
        ctx: &MailCtx<Msg>,
        common: &mut SlaveCommon,
        inv: u64,
        moves: Vec<MoveOrder>,
    ) -> Result<(), ProtocolError> {
        let units = &mut self.units;
        let detach = |order: &MoveOrder| {
            // Keep at least one unit (the balancer's min_per_slave mirror).
            let take = (order.count as usize).min(units.len().saturating_sub(1));
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
            let moved: Vec<MovedUnit> = candidates
                .into_iter()
                .take(take)
                .map(|(done, id)| {
                    let u = units.remove(&id).expect("picked unit");
                    MovedUnit {
                        id,
                        done,
                        updated_through: 0,
                        data: u.data,
                        old: None,
                    }
                })
                .collect();
            Ok((moved, None))
        };
        common.execute_moves(ctx, moves, inv, 0, detach).await
    }

    /// The per-invocation compute loop, run to exhaustion: every local unit
    /// not yet computed in `inv` is computed (pulling in whatever transfers
    /// and restores are already queued between units), then the final
    /// partial period is flushed. Also the catch-up when a barrier-time
    /// message brings units that still need `inv`.
    async fn compute_pending(
        &mut self,
        ctx: &MailCtx<Msg>,
        common: &mut SlaveCommon,
        inv: u64,
    ) -> Result<(), ProtocolError> {
        loop {
            self.drain_incoming(ctx, common, inv).await?;
            let next = self.units.iter().find(|(_, u)| u.done_in != Some(inv));
            let Some((&id, _)) = next else { break };
            common
                .compute(ctx, self.kernel.unit_cost_for(id, inv))
                .await;
            self.commit(id, inv);
            common.record_done(1);
            let moves = common.hook(ctx, inv, self.active_units(inv)).await?;
            self.execute_moves(ctx, common, inv, moves).await?;
        }
        let moves = common.fire(ctx, inv, self.active_units(inv)).await?;
        self.execute_moves(ctx, common, inv, moves).await?;
        self.settle_evictions(ctx, common, inv).await
    }

    /// Give undone unit `id` its result for `inv` and count it done: swap in
    /// what was computed ahead for it, or compute it now.
    fn commit(&mut self, id: usize, inv: u64) {
        let u = self.units.get_mut(&id).expect("unit `id` is mapped");
        match u.ahead.take() {
            Some((at, data)) if at == inv => u.data = data,
            _ => self.compute_group_from(id, inv),
        }
        let u = self.units.get_mut(&id).expect("unit `id` is mapped");
        u.done_in = Some(inv);
        self.metric += self.kernel.local_metric(id, &u.data);
    }

    /// Compute undone unit `id` for `inv` in place, in one kernel group with
    /// up to `group() - 1` of the next undone units in map order, each of
    /// those on a copy parked in its `ahead` slot until its own turn.
    fn compute_group_from(&mut self, id: usize, inv: u64) {
        let size = self.kernel.group();
        let mut undone = self
            .units
            .range_mut(id..)
            .filter(|(_, u)| u.done_in != Some(inv) && u.ahead.is_none());
        let (_, first) = undone.next().expect("unit `id` is undone");
        let mut group = Vec::with_capacity(size);
        group.push((id, &mut first.data));
        for (&next, u) in undone.take(size.saturating_sub(1)) {
            let (_, copy) = u.ahead.insert((inv, u.data.clone()));
            group.push((next, copy));
        }
        self.kernel.compute_group(&mut group, inv);
    }

    /// Barrier-time arrivals (a transfer, a restore, units re-owned from an
    /// evicted peer) may still need
    /// this invocation's computation; the refreshed done report must not
    /// claim them before they have it.
    async fn catch_up(
        &mut self,
        ctx: &MailCtx<Msg>,
        common: &mut SlaveCommon,
        inv: u64,
    ) -> Result<BarrierMsg, ProtocolError> {
        if self.units.values().any(|u| u.done_in != Some(inv)) {
            self.compute_pending(ctx, common, inv).await?;
        }
        Ok(BarrierMsg::Refresh)
    }
}

impl DistributionStrategy for IndependentStrategy {
    /// Recovery is by re-scatter from initial data: nothing is checkpointed.
    const SNAPSHOTS: bool = false;

    fn invocations(&self) -> u64 {
        self.kernel.invocations()
    }

    fn first_release_context(&self) -> &'static str {
        "first invocation start"
    }

    fn barrier_context(&self) -> &'static str {
        "invocation barrier"
    }

    async fn run_invocation(
        &mut self,
        ctx: &MailCtx<Msg>,
        common: &mut SlaveCommon,
        inv: u64,
    ) -> Result<(), ProtocolError> {
        self.metric = 0.0;
        self.compute_pending(ctx, common, inv).await
    }

    async fn on_barrier_msg(
        &mut self,
        ctx: &MailCtx<Msg>,
        common: &mut SlaveCommon,
        inv: u64,
        msg: Msg,
    ) -> Result<BarrierMsg, ProtocolError> {
        let fault_mode = common.ft.is_some();
        match msg {
            Msg::Transfer(t) => {
                if common.accept_transfer(ctx, &t).await {
                    self.incorporate(common, t)?;
                }
                // Even with no new work, ownership changed (or a duplicate
                // needed re-acking): the master's counters must see it so
                // settlement can complete.
                self.catch_up(ctx, common, inv).await
            }
            Msg::TransferAck {
                from,
                epoch,
                watermark,
            } => {
                common.handle_transfer_ack(from, epoch, watermark);
                Ok(BarrierMsg::Refresh)
            }
            Msg::Evicted { slave } => {
                common.peer_evicted(slave);
                self.settle_evictions(ctx, common, inv).await?;
                self.catch_up(ctx, common, inv).await
            }
            Msg::Restore {
                seq,
                invocation,
                units,
            } => {
                self.apply_restore(ctx, common, inv, seq, invocation, units)
                    .await?;
                // Duplicate or not, the refreshed report carries the
                // master-channel watermark the master's settlement waits for.
                self.catch_up(ctx, common, inv).await
            }
            Msg::Instructions(instr) => {
                // Late pipelined replies can still carry movement orders.
                let moves = common.instructions_out_of_band(instr);
                if moves.is_empty() {
                    return Ok(BarrierMsg::Consumed);
                }
                self.execute_moves(ctx, common, inv, moves).await?;
                Ok(BarrierMsg::Refresh)
            }
            // Stale re-broadcast: the master has not yet seen our
            // completion report; refresh it immediately.
            Msg::InvocationStart { invocation, .. } if fault_mode && invocation <= inv => {
                Ok(BarrierMsg::Refresh)
            }
            other => Ok(BarrierMsg::Pass(other)),
        }
    }

    fn report(&self) -> (Vec<usize>, f64) {
        (self.units.keys().copied().collect(), self.metric)
    }

    /// The master decides when the loop ends (fixed count or data-dependent
    /// convergence, §4.1): any barrier may be the last.
    fn may_end_after(&self, _inv: u64) -> bool {
        true
    }

    fn checkpoint_units(&self) -> SharedUnits {
        Vec::new() // never called: `SNAPSHOTS` is false
    }

    fn gather_units(&self) -> Result<Vec<(usize, UnitData)>, ProtocolError> {
        Ok(self
            .units
            .iter()
            .map(|(&id, u)| (id, u.data.clone()))
            .collect())
    }

    /// The rollback re-scatters every unit from the master's side: the map
    /// is replaced wholesale.
    fn restore(
        &mut self,
        _common: &mut SlaveCommon,
        rb: RollbackInfo,
    ) -> Result<u64, ProtocolError> {
        let adopt = |(id, d)| (id, Arc::unwrap_or_clone(d));
        self.units = fresh(rb.units.into_iter().map(adopt));
        Ok(rb.invocation)
    }

    /// Compute the suspect's units, shipped as initial data, *through*
    /// `invocation`.
    async fn speculate(
        &mut self,
        ctx: &MailCtx<Msg>,
        common: &mut SlaveCommon,
        inv: u64,
        invocation: u64,
        suspects: SharedUnits,
    ) -> Result<SharedUnits, ProtocolError> {
        let mut computed = Vec::with_capacity(suspects.len());
        for (id, data) in suspects {
            let mut data = Arc::unwrap_or_clone(data);
            for i in 0..=invocation {
                common.compute(ctx, self.kernel.unit_cost_for(id, i)).await;
                self.kernel.compute(id, &mut data, i);
                // Raced units are not owned: not counted done.
                let _ = common.hook(ctx, inv, self.active_units(inv)).await?;
            }
            computed.push((id, Arc::new(data)));
        }
        Ok(computed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::InteractionMode;
    use dlb_sim::{ActorId, CpuWork, NodeConfig, SimBuilder, SimTime};
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// Doubles a unit per invocation and counts the calls.
    struct Counted(AtomicU64);

    impl IndependentKernel for Counted {
        fn n_units(&self) -> usize {
            4
        }
        fn invocations(&self) -> u64 {
            4
        }
        fn init_unit(&self, idx: usize) -> UnitData {
            vec![vec![idx as f64]]
        }
        fn compute(&self, _: usize, unit: &mut UnitData, _: u64) {
            self.0.fetch_add(1, Ordering::Relaxed);
            unit[0][0] *= 2.0;
        }
        fn unit_cost(&self) -> CpuWork {
            CpuWork::from_micros(100)
        }
    }

    /// One slave's body in a [`cluster`].
    type Body = Box<dyn FnOnce(MailCtx<Msg>) -> Pin<Box<dyn Future<Output = ()>>>>;

    /// Run `bodies[i]` as slave `i` (actor `i`) beside a master (the next
    /// actor) that answers nothing; returns the units its statuses report
    /// done.
    fn cluster(bodies: Vec<Body>) -> u64 {
        let done = Arc::new(AtomicU64::new(0));
        let reported = Arc::clone(&done);
        let mut sim = SimBuilder::<Msg>::new();
        let nodes: Vec<_> = (0..=bodies.len())
            .map(|_| sim.add_node(NodeConfig::default()))
            .collect();
        for (i, body) in bodies.into_iter().enumerate() {
            sim.spawn_mail(nodes[i], format!("slave{i}"), body);
        }
        sim.spawn_mail(nodes[nodes.len() - 1], "master", |ctx| async move {
            while let Some(env) = ctx.recv_deadline(SimTime(10_000_000)).await {
                if let Msg::Status(s) = env.msg {
                    reported.fetch_add(s.units_done_delta, Ordering::Relaxed);
                }
            }
        });
        sim.run();
        done.load(Ordering::Relaxed)
    }

    /// Slave `idx` of a [`cluster`] whose `Start` assigns `assignment`.
    fn member(
        idx: usize,
        assignment: &[(usize, usize)],
        kernel: Arc<dyn IndependentKernel>,
    ) -> (IndependentStrategy, SlaveCommon) {
        let slaves: Vec<_> = (0..assignment.len()).map(ActorId).collect();
        let spec = SlaveSpec {
            idx,
            master: ActorId(assignment.len()),
            mode: InteractionMode::Pipelined,
            ft: None,
            takeover: None,
            join_at: None,
        };
        let start = (slaves.clone(), assignment.to_vec(), 1);
        let strategy = IndependentStrategy::new(kernel, &spec, &start);
        let common = SlaveCommon::new(idx, spec.master, slaves, spec.mode, None);
        (strategy, common)
    }

    /// A lone slave owning unit 0 applies a `Restore` of unit 1, holding
    /// `held` invocations, at the barrier of invocation 2. Returns the
    /// compute calls it made and what it then holds of unit 1: its value
    /// and the invocation it is done in.
    fn restored(held: u64, value: f64) -> (u64, f64, Option<u64>) {
        let out = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&out);
        cluster(vec![Box::new(move |ctx| {
            Box::pin(async move {
                let kernel = Arc::new(Counted(AtomicU64::new(0)));
                let (mut mm, mut common) = member(0, &[(0, 1)], kernel.clone());
                let units = vec![(1, Arc::new(vec![vec![value]]))];
                let fresh = mm.apply_restore(&ctx, &mut common, 2, 1, held, units);
                assert!(fresh.await.unwrap());
                let unit = &mm.units[&1];
                let calls = kernel.0.load(Ordering::Relaxed);
                *sink.lock().unwrap() = Some((calls, unit.data[0][0], unit.done_in));
            })
        })]);
        let out = out.lock().unwrap().take();
        out.expect("the slave applied the restore")
    }

    /// `Restore::invocation` says how many invocations the units hold: a
    /// race's result, holding the one past the barrier, is adopted as done
    /// with no compute call; initial data is replayed through the two
    /// invocations before the barrier and left for the barrier's own.
    #[test]
    fn a_restore_replays_only_the_invocations_its_units_lack() {
        assert_eq!(restored(3, 8.0), (0, 8.0, Some(2)));
        assert_eq!(restored(0, 1.0), (2, 4.0, None));
    }

    /// Nine units, computed a group of four at a time: logs each group and
    /// counts `compute` calls (a group is computed unit by unit, so the
    /// count includes every result computed ahead and then dropped).
    #[derive(Default)]
    struct Grouped {
        calls: AtomicU64,
        groups: Mutex<Vec<(u64, Vec<usize>)>>,
    }

    impl Grouped {
        fn calls(&self) -> u64 {
            self.calls.load(Ordering::Relaxed)
        }

        fn groups(&self) -> Vec<(u64, Vec<usize>)> {
            self.groups.lock().unwrap().clone()
        }
    }

    impl IndependentKernel for Grouped {
        fn n_units(&self) -> usize {
            9
        }
        fn invocations(&self) -> u64 {
            2
        }
        fn init_unit(&self, idx: usize) -> UnitData {
            vec![vec![idx as f64 + 1.0]]
        }
        fn compute(&self, _: usize, unit: &mut UnitData, inv: u64) {
            self.calls.fetch_add(1, Ordering::Relaxed);
            unit[0][0] = unit[0][0] * 3.0 + inv as f64;
        }
        fn unit_cost(&self) -> CpuWork {
            CpuWork::from_micros(100)
        }
        fn group(&self) -> usize {
            4
        }
        fn compute_group(&self, units: &mut [(usize, &mut UnitData)], inv: u64) {
            let ids = units.iter().map(|(id, _)| *id).collect();
            self.groups.lock().unwrap().push((inv, ids));
            for (id, unit) in units {
                self.compute(*id, unit, inv);
            }
        }
    }

    /// Unit `id` through invocations `0..invs`, one `compute` at a time.
    fn per_unit(id: usize, invs: u64) -> UnitData {
        let k = Grouped::default();
        let mut unit = k.init_unit(id);
        for inv in 0..invs {
            k.compute(id, &mut unit, inv);
        }
        unit
    }

    /// Each unit held, with its invocation done; nothing is left ahead.
    fn held(s: &IndependentStrategy) -> Vec<(usize, UnitData, Option<u64>)> {
        assert!(
            s.units.values().all(|u| u.ahead.is_none()),
            "an ahead slot is left"
        );
        let unit = |(&id, u): (&usize, &Unit)| (id, u.data.clone(), u.done_in);
        s.units.iter().map(unit).collect()
    }

    /// Whatever was held, as the per-unit path computes it through `inv`.
    fn exact(got: &[(usize, UnitData, Option<u64>)], inv: u64) -> bool {
        got.iter()
            .all(|(id, data, done)| *data == per_unit(*id, inv + 1) && *done == Some(inv))
    }

    /// Groups of four in map order; each unit is committed once per
    /// invocation (the statuses report 18 done for 9 units over 2), with the
    /// per-unit path's data, and nothing is computed twice.
    #[test]
    fn a_group_commits_each_unit_once_per_invocation() {
        let out = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&out);
        let done = cluster(vec![Box::new(move |ctx| {
            Box::pin(async move {
                let kernel = Arc::new(Grouped::default());
                let (mut s, mut common) = member(0, &[(0, 9)], kernel.clone());
                for inv in 0..2 {
                    s.run_invocation(&ctx, &mut common, inv).await.unwrap();
                }
                *sink.lock().unwrap() = Some((kernel.calls(), kernel.groups(), held(&s)));
            })
        })]);
        let (calls, groups, got) = out.lock().unwrap().take().expect("the slave ran");
        let want: Vec<_> = (0..2)
            .flat_map(|inv| [vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8]].map(|g| (inv, g)))
            .collect();
        assert_eq!(groups, want);
        assert_eq!((calls, done, got.len()), (18, 18, 9));
        assert!(exact(&got, 1));
    }

    /// An `Edge::Low` order after unit 0's group takes units 1 and 2,
    /// computed ahead but undone: they ship their un-advanced data and the
    /// receiver computes them exactly. The two dropped results are the
    /// only waste - 11 calls for 9 units.
    #[test]
    fn a_move_ships_units_computed_ahead_unadvanced() {
        let assignment = [(0, 8), (8, 9)];
        let out = Arc::new(Mutex::new([None, None]));
        let (sink0, sink1) = (Arc::clone(&out), Arc::clone(&out));
        cluster(vec![
            Box::new(move |ctx| {
                Box::pin(async move {
                    let kernel = Arc::new(Grouped::default());
                    let (mut s, mut common) = member(0, &assignment, kernel.clone());
                    s.commit(0, 0);
                    let order = MoveOrder {
                        to: 1,
                        count: 2,
                        edge: Edge::Low,
                    };
                    s.execute_moves(&ctx, &mut common, 0, vec![order])
                        .await
                        .unwrap();
                    s.compute_pending(&ctx, &mut common, 0).await.unwrap();
                    sink0.lock().unwrap()[0] = Some((kernel.calls(), kernel.groups(), held(&s)));
                })
            }),
            Box::new(move |ctx| {
                Box::pin(async move {
                    let kernel = Arc::new(Grouped::default());
                    let (mut s, mut common) = member(1, &assignment, kernel.clone());
                    let env = ctx.recv_match(|m| matches!(m, Msg::Transfer(_))).await;
                    let Msg::Transfer(t) = env.msg else {
                        unreachable!()
                    };
                    let shipped: Vec<_> = t.units.iter().map(|u| (u.id, u.done)).collect();
                    assert_eq!(shipped, [(1, false), (2, false)]);
                    assert!(t.units.iter().all(|u| u.data == per_unit(u.id, 0)));
                    assert!(common.accept_transfer(&ctx, &t).await);
                    s.incorporate(&common, t).unwrap();
                    s.compute_pending(&ctx, &mut common, 0).await.unwrap();
                    sink1.lock().unwrap()[1] = Some((kernel.calls(), kernel.groups(), held(&s)));
                })
            }),
        ]);
        let [sender, receiver] = out.lock().unwrap().clone().map(|o| o.expect("ran"));
        let (calls, groups, got) = sender;
        assert_eq!(groups, [(0, vec![0, 1, 2, 3]), (0, vec![4, 5, 6, 7])]);
        let ids: Vec<_> = got.iter().map(|(id, ..)| *id).collect();
        assert_eq!((calls, ids), (8, vec![0, 3, 4, 5, 6, 7]));
        assert!(exact(&got, 0));
        let (calls, groups, got) = receiver;
        assert_eq!((calls, groups), (3, vec![(0, vec![1, 2, 8])]));
        assert_eq!(got.len(), 3);
        assert!(exact(&got, 0));
    }

    /// A `Rollback` replaces the map: the three results computed ahead are
    /// dropped with it, and the invocation is computed again from the
    /// rolled-back data - 13 calls for 9 units.
    #[test]
    fn a_rollback_drops_every_ahead_slot() {
        let out = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&out);
        cluster(vec![Box::new(move |ctx| {
            Box::pin(async move {
                let kernel = Arc::new(Grouped::default());
                let (mut s, mut common) = member(0, &[(0, 9)], kernel.clone());
                s.commit(0, 0);
                assert_eq!(s.units.values().filter(|u| u.ahead.is_some()).count(), 3);
                let units = (0..9).map(|i| (i, Arc::new(per_unit(i, 0)))).collect();
                let rb = RollbackInfo {
                    epoch: 1,
                    invocation: 0,
                    survivors: vec![0],
                    units,
                };
                assert_eq!(s.restore(&mut common, rb).unwrap(), 0);
                assert!(held(&s).iter().all(|(_, _, done)| done.is_none()));
                s.compute_pending(&ctx, &mut common, 0).await.unwrap();
                *sink.lock().unwrap() = Some((kernel.calls(), kernel.groups().len(), held(&s)));
            })
        })]);
        let (calls, groups, got) = out.lock().unwrap().take().expect("the slave ran");
        assert_eq!((calls, groups, got.len()), (13, 4, 9));
        assert!(exact(&got, 0));
    }
}
