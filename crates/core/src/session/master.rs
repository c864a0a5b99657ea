//! Master-side session kernel: the state and transitions of a fault-mode
//! run.
//!
//! `master.rs` drives the protocol — receive arms, the timer sweep, the
//! gather — over one [`Session`], which owns everything a reign keeps: the
//! program and the reign's own balancer (a clone of the kit's pristine
//! one), the reign's term and the deputies' heartbeat
//! ([`Session::ping_deputies`]), and the per-slot window-acknowledgement
//! floors ([`Session::join_epoch`]) both policies share. Every structural
//! transition lives here: membership and eviction ([`Membership`],
//! [`Session::evict`]), admission ([`Session::admit`]), the windowed
//! re-range that is takeover seeding, admission and rollback at once
//! ([`Session::rerange`]), the race against a suspect ([`Policy::speculate`],
//! [`Session::cancel_race`]).
//!
//! Nothing here touches the kernel: every transition writes what it does —
//! CPU charges, sends, notes — into the master's [`Effects`], whose clock
//! stands in for the actor's, and the shell in `master.rs` applies them.
//!
//! What differs between recovering in place and rolling back to a
//! checkpoint is the [`Policy`]: the state only that policy keeps and, in
//! `impl Policy`, every decision that depends on it — the rows of the table
//! in `master.rs`'s module doc, each naming its method. A row that needs
//! only the policy's own state is a method; one that acts on the rest of
//! the session too is an associated function over it (`Policy::seed(st,
//! ..)`). Outside `impl Policy` only [`Session::new`], which builds it,
//! names a variant.

use crate::balancer::Balancer;
use crate::driver::AppSpec;
use crate::error::{FaultToleranceConfig, ProtocolError};
use crate::kernels::IndependentKernel;
use crate::master::TakeoverKit;
use crate::msg::{FailoverMsg, Instructions, Msg, SharedUnits, UnitData};
use crate::protocol::SenderWindow;
use crate::recovery::{redistribute, RecoveryStats};
use crate::session::checkpoint::CheckpointBank;
use crate::session::membership::{Life, Membership};
use crate::session::replica::DEPUTIES;
use crate::session::speculation::Race;
use dlb_sim::{advance, ActorId, CpuWork, NetConfig, NodeConfig, SimDuration, SimTime};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Master failover: how often the master pings its deputies when it has no
/// protocol traffic for them (the master-side analogue of `slave_heartbeat`;
/// defers the election trigger only).
pub(crate) const MASTER_HEARTBEAT: SimDuration = SimDuration::from_secs(1);

/// One effect of a master step.
#[derive(Clone, Debug)]
pub(crate) enum Effect {
    /// CPU charged on the master's node.
    Cpu(CpuWork),
    /// A send, with its wire size.
    Send(ActorId, Msg, u64),
    /// Narration for the trace, kept only while the run is traced.
    Note(String),
    /// The run's recovery counters so far, for the shared outcome slot a
    /// takeover seeds its own from. Instrumentation: no protocol decision
    /// reads it.
    Report(RecoveryStats),
}

/// What a master step does, in program order, for the shell in `master.rs`
/// to apply through the kernel — and the actor's clock meanwhile: each
/// charge moves [`Effects::now`] to where the actor's own clock will stand,
/// the node's [`advance`] of the work or of the net's `send_cpu`. Only a
/// freeze over a finish moves that clock further, and the next step starts
/// at the true time. One buffer serves a reign; the shell drains it after each
/// step.
#[derive(Clone, Debug)]
pub(crate) struct Effects {
    node: NodeConfig,
    net: NetConfig,
    traced: bool,
    now: SimTime,
    buf: Vec<Effect>,
}

impl Effects {
    pub fn new(node: NodeConfig, net: NetConfig, traced: bool, now: SimTime) -> Effects {
        let buf = Vec::new();
        Effects {
            node,
            net,
            traced,
            now,
            buf,
        }
    }

    /// The master's virtual time at this point of the step.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Start a step at `now`, where the kernel resumed the actor.
    pub fn at(&mut self, now: SimTime) {
        debug_assert!(self.buf.is_empty(), "a step starts on a drained buffer");
        self.now = now;
    }

    /// Charge `work` of CPU on the master's node.
    pub fn cpu(&mut self, work: CpuWork) {
        self.now = advance(&self.node, self.now, work).finish;
        self.buf.push(Effect::Cpu(work));
    }

    /// Send with the model's wire-size accounting; returns the size charged.
    pub fn send(&mut self, to: ActorId, msg: Msg) -> u64 {
        let bytes = msg.wire_bytes();
        self.now = advance(&self.node, self.now, self.net.send_cpu(bytes)).finish;
        self.buf.push(Effect::Send(to, msg, bytes));
        bytes
    }

    /// Send `make(seq)` on `win`, `to`'s recovery window, which retains it
    /// for re-sends until acknowledged. Returns its wire size.
    fn send_windowed(
        &mut self,
        to: ActorId,
        win: &mut SenderWindow<Msg>,
        make: impl FnOnce(u64) -> Msg,
    ) -> u64 {
        self.send(to, win.send_with(make).clone())
    }

    /// Narrate a decision: `text` runs only while the run is traced.
    pub fn note(&mut self, text: impl FnOnce() -> String) {
        if self.traced {
            #[cfg(test)]
            tests::NOTES_BUILT.with(|n| n.set(n.get() + 1));
            self.buf.push(Effect::Note(text()));
        }
    }

    /// Report the run's recovery counters so far.
    pub fn report(&mut self, rec: &RecoveryStats) {
        self.buf.push(Effect::Report(rec.clone()));
    }

    /// The step's effects in order, leaving the buffer empty.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Effect> {
        self.buf.drain(..)
    }
}

/// Unit `id` after `invs` completed invocations, recomputed from its initial
/// data: seeds a takeover or an admission under re-scatter, and backs the
/// gather's safety net. Value-deterministic, so bit-identical to the state
/// a survivor would have held.
pub(crate) fn recompute(kernel: &dyn IndependentKernel, id: usize, invs: u64) -> UnitData {
    let mut unit = kernel.init_unit(id);
    for inv in 0..invs {
        kernel.compute(id, &mut unit, inv);
    }
    unit
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

/// The recovery policy of a session together with the state only that
/// policy keeps. [`Session::new`] picks the variant from the application's
/// pattern; `impl Policy` answers every question whose answer depends on
/// it, one row of `master.rs`'s policy table at a time.
pub(crate) enum Policy {
    /// Independent pattern: recover in place. Dead slaves are fenced off
    /// with [`Msg::Evicted`] / [`Msg::OwnReport`] and exactly the units no
    /// survivor reports are re-scattered from initial data.
    Rescatter(RescatterState),
    /// Pipelined/shrinking patterns: carried dependences rule out in-place
    /// recovery, so slaves ship checkpoints at barriers and any loss rolls
    /// every survivor back to the newest complete one.
    Rollback(RollbackState),
}

/// What only [`Policy::Rescatter`] keeps.
pub(crate) struct RescatterState {
    /// Rebuilds unit state: `init_unit` seeds a `Restore` or a race,
    /// [`recompute`] everything that resumes mid-run.
    kernel: Arc<dyn IndependentKernel>,
    /// Ownership as the master believes it: refreshed from every
    /// InvocationDone (`owned_ids`) and authoritative OwnReports. With the
    /// balancer live this map can lag a transfer in flight; the eviction
    /// protocol never trusts it alone (see [`Policy::resolve_evictions`]).
    owned: Vec<BTreeSet<usize>>,
    evictions: Vec<Eviction>,
}

/// What only [`Policy::Rollback`] keeps.
pub(crate) struct RollbackState {
    /// Checkpoint fragments and the newest complete snapshot.
    bank: CheckpointBank,
    /// Per slave, the invocation it was last raced in: a suspect is raced
    /// at most once per invocation. The executor's own barrier fragment
    /// commits a race at once (ROADMAP 1(b)(iii)), so without this a
    /// suspect that stays silent is raced again on every sweep, each race
    /// on the next idle slave and each with its own copy of the grid.
    raced: Vec<Option<u64>>,
}

impl Policy {
    /// Row 1, takeover seeding: slave `slave` — a survivor's
    /// [`FailoverMsg::Held`] answer, or the winner's own seed — held
    /// `fragments`; each banks like a checkpoint. Re-scatter keeps no bank:
    /// it resumes where the answers' invocations say ([`recompute`]).
    pub fn bank_held(st: &mut Session, slave: usize, fragments: Vec<(u64, SharedUnits)>) {
        for (invocation, units) in fragments {
            Policy::on_checkpoint(st, slave, invocation, units);
        }
    }

    /// Row 2: what a re-range ships, `(invocation, units)`.
    /// Re-scatter recomputes each unit through the completed invocations
    /// (the state at the start of `inv`, bit-identical to what the
    /// survivors would have held) and stays at `inv`; the new ownership is
    /// adopted share by share ([`Policy::adopt_owned`]), and an open
    /// eviction is moot — every unit is re-ranged. Rollback ships the
    /// newest complete checkpoint (or the initial data when none was banked
    /// yet) and restarts there.
    fn rerange_units(st: &mut Session) -> (u64, SharedUnits) {
        match &mut st.policy {
            Policy::Rescatter(rs) => {
                rs.owned.iter_mut().for_each(BTreeSet::clear);
                rs.evictions.clear();
                let units = (0..st.n_units)
                    .map(|u| (u, Arc::new(recompute(rs.kernel.as_ref(), u, st.inv))))
                    .collect();
                (st.inv, units)
            }
            Policy::Rollback(rb) => rb
                .bank
                .rollback_snapshot(st.n_units, &|id| st.app.initial_unit(id)),
        }
    }

    /// Row 2, once the `Rollback`s are out at `now`: a rolled-back survivor
    /// restarts its wavefront — every unacknowledged instruction is of the
    /// old epoch and dropped, and its silence and nudge clocks restart. A
    /// re-scattered survivor keeps both, though it does not keep computing
    /// the same invocation: `IndependentStrategy::restore` replaces its
    /// unit map, and it recomputes the invocation from the units it was
    /// shipped. Measured: applying the reset under re-scatter too moves
    /// four `/mm` rows of `tests/master_golden.rs`
    /// (`master_crash_join_in_flight_lossy/mm` 10.09 -> 12.45 virtual s),
    /// so this row stays until a change measures otherwise.
    fn reranged(st: &mut Session, now: SimTime, survivors: &[usize]) {
        if let Policy::Rescatter(_) = st.policy {
            return;
        }
        st.unacked_instr.iter_mut().for_each(|u| *u = None);
        for &sv in survivors {
            st.memb.last_heard[sv] = now;
            st.memb.next_nudge[sv] = now + st.tol.nudge;
            st.memb.done[sv] = false;
        }
    }

    /// Row 5: `slave` owns `ids` — a fresh done report's ownership
    /// snapshot, or a re-range's share — as re-scatter's eviction protocol
    /// believes it (rollback keeps no ownership). A duplicated older report
    /// is caught by the caller's invocation comparison; a transfer still in
    /// flight at most doubles a unit, which the deterministic gather
    /// dedups.
    pub fn adopt_owned(&mut self, slave: usize, ids: impl IntoIterator<Item = usize>) {
        if let Policy::Rescatter(rs) = self {
            rs.owned[slave] = ids.into_iter().collect();
        }
    }

    /// Row 6: a message no shared arm of the loop takes — re-scatter's
    /// `OwnReport`, rollback's stray `GatherData` outside the gather, and
    /// under both a `Checkpoint`. `got` holds the gather's delivery flags
    /// while gathering. `Ok(false)` ends the pass without a sweep. Anything
    /// else is a stray, handed back with the context its error names: the
    /// policy in force and the phase.
    #[allow(clippy::result_large_err)] // a takeover drops many strays: no box each
    pub fn own_msg(
        st: &mut Session,
        fx: &mut Effects,
        msg: Msg,
        got: Option<&[bool]>,
    ) -> Result<bool, (&'static str, Msg)> {
        match (&st.policy, msg, got) {
            // A duplicated Evicted delivery can make a survivor repeat an
            // old ownership report during the gather; it is only a
            // liveness signal there.
            (Policy::Rescatter(_), Msg::OwnReport { slave, .. }, Some(got)) => {
                st.nudge_gather(fx, got, slave)
            }
            (Policy::Rescatter(_), Msg::OwnReport { slave, about, ids }, None) => {
                if !st.memb.alive[slave] {
                    return Ok(false);
                }
                st.heard_from(fx, slave);
                Policy::on_own_report(st, fx, slave, about, ids);
            }
            // A race's result under either policy, or a rollback barrier
            // fragment. A checkpoint carries no epoch, so it proves its
            // sender alive but not unstuck: a slave heartbeating from the
            // barrier a lost `Rollback` left it at must still trip the
            // window re-send, which keys off protocol silence. Racing the
            // gather, that is all it is.
            (
                _,
                Msg::Checkpoint {
                    slave,
                    invocation,
                    units,
                },
                got,
            ) => {
                if st.memb.alive[slave] {
                    st.memb.ping(slave, fx.now());
                }
                if got.is_none() {
                    Policy::on_checkpoint(st, slave, invocation, units);
                }
            }
            // A gather interrupted by a rollback can leave stale GatherData
            // in flight; harmless while settling.
            (Policy::Rollback(_), Msg::GatherData { .. }, None) => st.rec.gather_dups_ignored += 1,
            (policy, msg, _) => {
                let context = match (policy, got.is_some()) {
                    (Policy::Rescatter(_), false) => "recoverable invocation loop",
                    (Policy::Rescatter(_), true) => "recoverable gather",
                    (Policy::Rollback(_), false) => "checkpointed invocation loop",
                    (Policy::Rollback(_), true) => "checkpointed gather",
                };
                return Err((context, msg));
            }
        }
        Ok(true)
    }

    /// Row 6: a checkpoint arrived from `slave`. If it is the race's
    /// ([`Race::committed_by`]), rollback counts the commit and ends the
    /// race, and re-scatter keeps the raced units on it until the suspect's
    /// eviction ships them ([`Policy::resolve_evictions`]). Rollback banks
    /// every checkpoint either way. Checkpoints carry no epoch on purpose:
    /// the state after k invocations is deterministic regardless of which
    /// distribution computed it, so contributions bank from any epoch.
    fn on_checkpoint(st: &mut Session, slave: usize, invocation: u64, units: SharedUnits) {
        let committed = st.race.take_if(|r| r.committed_by(slave, invocation));
        match (&mut st.policy, committed) {
            (Policy::Rescatter(_), Some(race)) => {
                let result = Some(units);
                st.race = Some(Race { result, ..race });
            }
            (Policy::Rescatter(_), None) => {}
            (Policy::Rollback(rb), committed) => {
                if committed.is_some() {
                    st.rec.speculations_committed += 1;
                    st.rec.units_speculated += units.len() as u64;
                }
                if rb.bank.offer(invocation, units, st.n_units) {
                    st.rec.checkpoints_banked += 1;
                }
            }
        }
    }

    /// Row 8, in the sweep: live slave `s` owes the phase something and
    /// has been silent past `suspicion`. Re-scatter repairs the loss in
    /// place, right here — settling, [`Session::evict`]; gathering, a bare
    /// eviction with no `Evicted` broadcast (no channel is left to fence,
    /// and the end-of-gather safety net recomputes whatever no survivor
    /// delivered) — and returns `true`. Rollback returns `false`: the loss
    /// re-ranges the run, which the sweep does for its first suspect only,
    /// after the deputy ping.
    pub fn evict_in_place(
        st: &mut Session,
        fx: &mut Effects,
        s: usize,
        settling: bool,
        now: SimTime,
    ) -> Result<bool, ProtocolError> {
        if let Policy::Rollback(_) = st.policy {
            return Ok(false);
        }
        if settling {
            st.evict(fx, s, now)?;
        } else {
            st.rec.gathers_interrupted += 1;
            st.declare_dead(fx, s, now);
        }
        Ok(true)
    }

    /// Row 8: the policy's half of [`Session::evict`]. Rollback leaves the
    /// repair to the caller's re-range. Re-scatter fences the dead slave's
    /// channels off with `Evicted` and opens an eviction that re-scatters
    /// its units once every survivor has reported ownership.
    fn fence(st: &mut Session, fx: &mut Effects, s: usize) -> Result<(), ProtocolError> {
        let Policy::Rescatter(rs) = &mut st.policy else {
            return Ok(());
        };
        let dead_owned: Vec<usize> = std::mem::take(&mut rs.owned[s]).into_iter().collect();
        for ev in rs.evictions.iter_mut() {
            ev.awaiting.remove(&s);
        }
        let survivors = st.memb.survivors();
        if survivors.is_empty() {
            return Err(ProtocolError::AllSlavesDead);
        }
        for &v in &survivors {
            fx.send(st.slaves[v], Msg::Evicted { slave: s });
        }
        rs.evictions.push(Eviction {
            dead: s,
            awaiting: survivors.into_iter().collect(),
            dead_owned,
        });
        Ok(())
    }

    /// Row 8: an open eviction still awaits `s`'s `OwnReport`. Such a
    /// slave is never settled: a survivor that dies *after* settling would
    /// otherwise stall the eviction forever — nothing re-arms its suspicion
    /// timer, and the awaiting set never drains. (Never under rollback,
    /// which opens no eviction.)
    pub fn awaits(&self, s: usize) -> bool {
        matches!(self, Policy::Rescatter(rs) if rs.evictions.iter().any(|ev| ev.awaiting.contains(&s)))
    }

    /// Row 8, settling: a lost `Evicted` (or a lost `OwnReport`) stalls an
    /// eviction; the awaiting survivors are re-notified on the nudge timer.
    /// The slave-side dedup makes the re-broadcast idempotent.
    pub fn renotify(st: &mut Session, fx: &mut Effects, now: SimTime) {
        let Policy::Rescatter(rs) = &st.policy else {
            return;
        };
        for ev in &rs.evictions {
            for &v in &ev.awaiting {
                if st.memb.nudge_due(v, now, st.tol.nudge) {
                    fx.send(st.slaves[v], Msg::Evicted { slave: ev.dead });
                    st.rec.restore_resends += 1;
                }
            }
        }
    }

    /// Row 8: survivor `v`'s authoritative ownership report about evicted
    /// peer `about`. When the last one is in, the evictions resolve.
    fn on_own_report(st: &mut Session, fx: &mut Effects, v: usize, about: usize, ids: Vec<usize>) {
        let Policy::Rescatter(rs) = &mut st.policy else {
            return;
        };
        let mut matched = false;
        for ev in rs.evictions.iter_mut() {
            if ev.dead == about && ev.awaiting.remove(&v) {
                matched = true;
            }
        }
        if !matched {
            // Late duplicate (its eviction already resolved): the ids are
            // stale — never adopt them.
            st.rec.done_dups_ignored += 1;
            return;
        }
        rs.owned[v] = ids.into_iter().collect();
        st.memb.done[v] = false;
        if rs.evictions.iter().all(|e| e.awaiting.is_empty()) {
            Policy::resolve_evictions(st, fx);
        }
    }

    /// Row 8: all pending evictions are fully reported: compute the set of
    /// units no survivor owns (directly or in an unacknowledged `Restore`
    /// still in flight), hand the race's result back to its executor for
    /// whatever it covers, and re-scatter the rest from initial data.
    fn resolve_evictions(st: &mut Session, fx: &mut Effects) {
        let Policy::Rescatter(rs) = &mut st.policy else {
            return;
        };
        // Units accounted for: owned by a survivor, or inside an
        // unacknowledged Restore payload (the owner's `owned_ids` cannot
        // reflect those yet — `restore_seq` and `owned_ids` travel
        // atomically in InvocationDone, so once the window is acked the
        // report includes them).
        let mut assigned: BTreeSet<usize> = BTreeSet::new();
        for s in st.memb.survivors() {
            assigned.extend(rs.owned[s].iter().copied());
            for (_, m) in st.win[s].unacked() {
                if let Msg::Restore { units, .. } = m {
                    assigned.extend(units.iter().map(|(id, _)| *id));
                }
            }
        }
        // In-flight units the survivors re-owned by closing channels with
        // the dead peers (a proxy count: everything the dead slave was
        // believed to own that a survivor now accounts for).
        for ev in &rs.evictions {
            let reowned = ev.dead_owned.iter().filter(|u| assigned.contains(u));
            st.rec.units_reowned += reowned.count() as u64;
        }
        let mut missing: Vec<usize> = (0..st.n_units).filter(|u| !assigned.contains(u)).collect();

        // The race first: if the suspect is among the dead and its raced
        // units came back, they return to the executor already holding
        // `invocation + 1` invocations — adopted without replay. A race
        // with no result is cancelled.
        let mut restores: Vec<(usize, u64, SharedUnits)> = Vec::new();
        if let Some(race) = st.race.take_if(|r| !st.memb.alive[r.suspect]) {
            let mut raced = race.result.unwrap_or_default();
            raced.retain(|(u, _)| missing.contains(u));
            if raced.is_empty() {
                st.rec.speculations_cancelled += 1;
            } else {
                missing.retain(|u| raced.iter().all(|(r, _)| r != u));
                st.rec.units_speculated += raced.len() as u64;
                st.rec.speculations_committed += 1;
                restores.push((race.executor, race.invocation + 1, raced));
            }
        }
        for (t, units) in redistribute(&missing, &st.memb.survivors()) {
            let kernel = &rs.kernel;
            let payload = units.iter().map(|&u| (u, Arc::new(kernel.init_unit(u))));
            let payload: SharedUnits = payload.collect();
            st.rec.units_restored += payload.len() as u64;
            restores.push((t, 0, payload));
        }
        for (t, invocation, units) in restores {
            rs.owned[t].extend(units.iter().map(|(u, _)| *u));
            st.memb.done[t] = false;
            let restore = |seq| Msg::Restore {
                seq,
                invocation,
                units,
            };
            fx.send_windowed(st.slaves[t], &mut st.win[t], restore);
        }
        rs.evictions.clear();
    }

    /// Row 9: suspicion of `suspect` is building: race its work on an idle,
    /// fully settled survivor — never while a race is in flight, never for
    /// a suspect that is done (only its window lags). Re-scatter races the
    /// suspect's units from their initial state, so an eviction hands the
    /// executor finished results instead of replaying — never while an
    /// eviction is being resolved, never for a slave that owns nothing.
    /// Rollback races the banked snapshot, so an eviction rolls back one
    /// invocation less — never for a suspect already raced in this
    /// invocation ([`RollbackState::raced`]), never past the invocation
    /// being settled (that would race work the run has not reached; the
    /// corner where a complete checkpoint for the next barrier already
    /// banked needs no race at all). Both decide before they source
    /// anything: this runs on every sweep while a suspect is past
    /// `speculate_after`, and mostly finds nobody idle.
    pub fn speculate(st: &mut Session, fx: &mut Effects, suspect: usize) {
        let (memb, win) = (&st.memb, &st.win);
        if st.race.is_some() || memb.done[suspect] {
            return;
        }
        let idle = (0..memb.n())
            .find(|&e| e != suspect && memb.alive[e] && memb.done[e] && win[e].fully_acked());
        let Some(executor) = idle else {
            return;
        };
        let (invocation, units) = match &mut st.policy {
            Policy::Rescatter(rs) => {
                if !rs.evictions.is_empty() || rs.owned[suspect].is_empty() {
                    return;
                }
                let kernel = &rs.kernel;
                let units = rs.owned[suspect]
                    .iter()
                    .map(|&u| (u, Arc::new(kernel.init_unit(u))));
                (st.inv, units.collect())
            }
            Policy::Rollback(rb) => {
                let banked = rb.bank.best_invocation();
                if rb.raced[suspect] == Some(st.inv) || banked > Some(st.inv) {
                    return;
                }
                rb.raced[suspect] = Some(st.inv);
                rb.bank
                    .rollback_snapshot(st.n_units, &|id| st.app.initial_unit(id))
            }
        };
        st.race = Some(Race {
            suspect,
            executor,
            invocation,
            result: None,
        });
        let race = |seq| Msg::Speculate {
            seq,
            invocation,
            units,
        };
        fx.send_windowed(st.slaves[executor], &mut st.win[executor], race);
        st.rec.speculations_launched += 1;
    }

    /// Row 11, per delivery: re-scatter acknowledges each `GatherData` to
    /// `to` at once; rollback defers every acknowledgement to
    /// [`Policy::gathered`].
    pub fn ack_delivery(&self, fx: &mut Effects, to: ActorId) {
        if let Policy::Rescatter(_) = self {
            fx.send(to, Msg::GatherAck);
        }
    }

    /// Row 11: whether the gather, holding units `seen` from the slaves in
    /// `got`, is complete. Re-scatter: once every live slave delivered — a
    /// death was absorbed, and the safety net fills `seen` with whatever no
    /// survivor delivered, recomputed from initial data (deterministic, so
    /// bit-identical to the lost copy). Rollback: once every unit is in
    /// hand, and only then are the survivors released with `GatherAck`:
    /// each had to stay resident, because a death mid-gather rolls back and
    /// redoes the run, which a slave released early could not take part in.
    pub fn gathered(
        st: &mut Session,
        fx: &mut Effects,
        seen: &mut BTreeMap<usize, UnitData>,
        got: &[bool],
    ) -> bool {
        match &st.policy {
            Policy::Rescatter(rs) => {
                if (0..st.memb.n()).any(|s| st.memb.alive[s] && !got[s]) {
                    return false;
                }
                for u in 0..st.n_units {
                    if let Entry::Vacant(e) = seen.entry(u) {
                        e.insert(recompute(rs.kernel.as_ref(), u, st.inv));
                        st.rec.units_recomputed += 1;
                    }
                }
            }
            Policy::Rollback(_) => {
                if seen.len() < st.n_units {
                    return false;
                }
                for s in st.memb.survivors() {
                    fx.send(st.slaves[s], Msg::GatherAck);
                }
            }
        }
        true
    }
}

/// Mutable state of one fault-mode run: the program and its balancer,
/// membership, epoch lifecycle, the per-slave control windows, the race
/// against a suspect, the admission queue, the reign's term and deputy
/// heartbeat, the recovery counters, and the [`Policy`]. The fault-mode
/// master in `master.rs` owns exactly one.
pub(crate) struct Session {
    pub tol: FaultToleranceConfig,
    /// The program whose outer loop the master mimics; under rollback, the
    /// source of the epoch-zero snapshot ([`AppSpec::initial_unit`]).
    pub app: AppSpec,
    /// This reign's balancer, a clone of the pristine one in the kit.
    pub balancer: Balancer,
    pub slaves: Vec<ActorId>,
    pub n_units: usize,
    /// Liveness state (suspicion, nudge rate-limiting, barrier flags).
    pub memb: Membership,
    pub last_hook_seq: Vec<u64>,
    pub metrics: Vec<f64>,
    /// One sender window per destination for all recovery messages
    /// (Restore / Speculate / Rollback),
    /// acknowledged via InvocationDone::restore_seq. The transition rules
    /// live in `protocol::SenderWindow`, where the model checker in
    /// `dlb-analyze` exercises them exhaustively.
    pub win: Vec<SenderWindow<Msg>>,
    /// Bounded instruction retry: (seq, message, re-sends so far), cleared
    /// when a status acknowledges the sequence number.
    pub unacked_instr: Vec<Option<(u64, Instructions, u32)>>,
    /// Epoch in force; all protocol state is fenced by it. 0 for an
    /// original reign; a takeover fences its reign behind `term << 32` so
    /// every pre-promotion epoch is strictly older.
    pub epoch: u64,
    /// Per-slave window-acknowledgement floor: reports from epochs below
    /// it speak for an older window and acknowledge nothing. It starts at
    /// the reign floor (`term << 32`), below which reports acknowledge the
    /// *crashed* master's window, and admission raises a rejoined slot's
    /// floor to the admission epoch, so the previous life's in-flight
    /// reports cannot acknowledge its fresh window (E112 guards the same
    /// boundary on the snapshot side). Above it a stale report still
    /// proves what the slave applied: the master-channel watermark is not
    /// epoch-scoped within a reign.
    pub join_epoch: Vec<u64>,
    /// Invocation being settled.
    pub inv: u64,
    /// The race against a silent suspect in flight, at most one
    /// ([`Policy::speculate`]).
    pub race: Option<Race>,
    /// The current invocation was released by a `Rollback` (which doubles
    /// as the barrier release), so the head of the loop must not broadcast
    /// another `InvocationStart`.
    pub released: bool,
    /// Mid-run admission queue: (slave, incarnation) of joiners waiting for
    /// the next settled barrier. Admission never races an open eviction —
    /// settlement requires the eviction set to be empty.
    pub pending_joins: Vec<(usize, u64)>,
    /// Slots whose initial assignment is empty are *deferred*: reserved for
    /// latecomers. They start evicted (no death counted, no channel fence
    /// broadcast — peers simply never hear from them) and enter through the
    /// same admission path as a rejoiner.
    pub deferred: Vec<bool>,
    /// This reign's term (0 for the original), and when the deputies are
    /// pinged next.
    pub term: u64,
    next_ping: SimTime,
    /// Recovery actions taken so far (on takeover, seeded from the last
    /// counters the run reported).
    pub rec: RecoveryStats,
    pub policy: Policy,
}

impl Session {
    /// The session of a reign in `term` that opens at `now` from `kit`,
    /// counting on from the run's counters `rec`.
    pub fn new(
        now: SimTime,
        kit: &TakeoverKit,
        tol: FaultToleranceConfig,
        term: u64,
        rec: RecoveryStats,
    ) -> Session {
        let (app, assignment, n) = (&kit.app, &kit.assignment, kit.slaves.len());
        let policy = match app {
            AppSpec::Independent(kernel) => Policy::Rescatter(RescatterState {
                kernel: Arc::clone(kernel),
                owned: assignment
                    .iter()
                    .map(|&(lo, hi)| (lo..hi).collect())
                    .collect(),
                evictions: Vec::new(),
            }),
            AppSpec::Pipelined(_) | AppSpec::Shrinking(_) => Policy::Rollback(RollbackState {
                bank: CheckpointBank::new(),
                raced: vec![None; n],
            }),
        };
        Session {
            app: app.clone(),
            balancer: kit.balancer.clone(),
            slaves: kit.slaves.clone(),
            n_units: assignment.iter().map(|&(_, hi)| hi).max().unwrap_or(0),
            memb: Membership::new(n, now, tol.nudge),
            last_hook_seq: vec![0u64; n],
            metrics: vec![0.0; n],
            win: vec![SenderWindow::new(); n],
            unacked_instr: (0..n).map(|_| None).collect(),
            epoch: term << 32,
            join_epoch: vec![term << 32; n],
            inv: 0,
            race: None,
            released: false,
            pending_joins: Vec::new(),
            deferred: assignment.iter().map(|&(lo, hi)| lo >= hi).collect(),
            term,
            next_ping: now + MASTER_HEARTBEAT,
            rec,
            policy,
            tol,
        }
    }

    /// The barrier release for the invocation being settled.
    pub fn release_msg(&self) -> Msg {
        Msg::InvocationStart {
            invocation: self.inv,
        }
    }

    /// A live member's `InvocationDone`, taken before the epoch fence:
    /// below the slot's [floor](Session::join_epoch) it speaks for an older
    /// window — the crashed master's or a previous life's — and
    /// acknowledges nothing.
    pub fn ack_report(&mut self, slave: usize, epoch: u64, restore_seq: u64) {
        if epoch >= self.join_epoch[slave] {
            self.win[slave].ack(restore_seq);
        }
    }

    /// Slave `s` owes the current barrier nothing more: done, its window
    /// acknowledged, and no open eviction [awaits](Policy::awaits) it.
    pub fn slave_settled(&self, s: usize) -> bool {
        self.memb.done[s] && self.win[s].fully_acked() && !self.policy.awaits(s)
    }

    /// The invocation can be released: every live slave is settled (which
    /// rules out an open eviction — one always awaits a live slave's
    /// report) and every ordered transfer has landed
    /// ([`Balancer::settled`], over the balancer's own live set, which
    /// every eviction and admission keeps equal to the membership's).
    pub fn settled(&self) -> bool {
        let same = |s| self.balancer.is_live(s) == self.memb.alive[s];
        debug_assert!((0..self.memb.n()).all(same));
        (0..self.memb.n()).all(|s| !self.memb.alive[s] || self.slave_settled(s))
            && self.balancer.settled()
    }

    /// Heartbeat the live deputies so their election trigger stays quiet
    /// between barriers. Runs from every timer sweep; rate-limited to
    /// `MASTER_HEARTBEAT` (1 s).
    pub fn ping_deputies(&mut self, fx: &mut Effects) {
        let now = fx.now();
        if now < self.next_ping {
            return;
        }
        self.next_ping = now + MASTER_HEARTBEAT;
        let msg = Msg::Failover(FailoverMsg::MasterPing { term: self.term });
        for d in 0..DEPUTIES.min(self.memb.n()) {
            if self.memb.alive[d] {
                self.rec.replication_bytes += msg.wire_bytes();
                fx.send(self.slaves[d], msg.clone());
            }
        }
    }

    /// Replay everything unacknowledged in `s`'s window: it was lost in
    /// flight.
    pub fn replay_window(&mut self, fx: &mut Effects, s: usize) {
        for (_, msg) in self.win[s].unacked() {
            fx.send(self.slaves[s], msg.clone());
            self.rec.restore_resends += 1;
        }
    }

    /// Re-send the `Gather` to a slave that still owes its data.
    pub fn resend_gather(&mut self, fx: &mut Effects, s: usize) {
        fx.send(self.slaves[s], Msg::Gather);
        self.rec.gather_resends += 1;
    }

    /// Slave `s` spoke during the gather: if it is live, a sign of life. If
    /// it has not delivered it never received the `Gather` — what it sent
    /// is the re-send trigger (it is chatty, so a silence timer never
    /// fires), rate-limited by the nudge timer.
    pub fn nudge_gather(&mut self, fx: &mut Effects, got: &[bool], s: usize) {
        if !self.memb.alive[s] {
            return;
        }
        self.memb.last_heard[s] = fx.now();
        if !got[s] && self.memb.nudge_due(s, fx.now(), self.tol.nudge) {
            self.resend_gather(fx, s);
        }
    }

    /// Admit every queued joiner into a settled session: the exact inverse
    /// of an eviction. Each joiner is readmitted with its announced
    /// incarnation (fresh two-clock state, fresh sender window — the
    /// previous life's contiguous-ack watermark died with it), the
    /// balancer's accounting for its slot is zeroed, and the whole unit set
    /// is re-ranged over the enlarged survivor set — which doubles as the
    /// joiners' state transfer *and* the barrier release. The epoch bump
    /// fences every pre-admission message (including the joiners'
    /// previous-life traffic) as stale.
    pub fn admit(&mut self, fx: &mut Effects) -> Result<(), ProtocolError> {
        let mut joined: Vec<usize> = Vec::new();
        let mut rejoined_any = false;
        for (j, jinc) in std::mem::take(&mut self.pending_joins) {
            if self.memb.life(j, jinc) != Life::Evicted {
                continue; // raced an earlier admission, or a newer life exists
            }
            self.memb.readmit(j, jinc, fx.now(), self.tol.nudge);
            self.balancer.admit(j);
            self.win[j] = SenderWindow::new();
            self.unacked_instr[j] = None;
            self.last_hook_seq[j] = 0;
            self.rec.joins_admitted += 1;
            if self.deferred[j] {
                self.deferred[j] = false;
            } else {
                self.rec.rejoins_after_eviction += 1;
                rejoined_any = true;
            }
            joined.push(j);
        }
        if joined.is_empty() {
            return Ok(());
        }
        if rejoined_any {
            self.rec.partitions_healed += 1;
        }
        self.rerange(fx, &joined)
    }

    /// Re-range the whole unit set contiguously over the survivors under a
    /// new epoch: one windowed `Rollback` per survivor — state transfer,
    /// epoch fence and barrier release in one message — then
    /// `balancer.rebase`. This is takeover seeding, admission, rollback and
    /// the rescue of a wedged slave; it drops any race, and the policy
    /// decides what is shipped ([`Policy::rerange_units`]) and what the
    /// survivors keep ([`Policy::reranged`]). A `joined` slot's
    /// ack floor rises to the new epoch, and the bytes shipped to it are
    /// metered as join snapshots.
    pub fn rerange(&mut self, fx: &mut Effects, joined: &[usize]) -> Result<(), ProtocolError> {
        let n = self.memb.n();
        let survivors = self.memb.survivors();
        if survivors.is_empty() {
            return Err(ProtocolError::AllSlavesDead);
        }
        self.epoch += 1;
        self.race = None;
        let ranges = crate::driver::block_ranges(self.n_units, survivors.len());
        let (invocation, snapshot) = Policy::rerange_units(self);
        let mut counts = vec![0u64; n];
        let mut rest = snapshot.into_iter();
        let epoch = self.epoch;
        for (&sv, &(lo, hi)) in survivors.iter().zip(&ranges) {
            counts[sv] = (hi - lo) as u64;
            self.policy.adopt_owned(sv, lo..hi);
            let units: SharedUnits = rest.by_ref().take(hi - lo).collect();
            let survivors = survivors.clone();
            let rollback = |seq| Msg::Rollback {
                seq,
                epoch,
                invocation,
                survivors,
                units,
            };
            let bytes = fx.send_windowed(self.slaves[sv], &mut self.win[sv], rollback);
            if joined.contains(&sv) {
                self.join_epoch[sv] = epoch;
                self.rec.join_snapshot_bytes += bytes;
            }
        }
        self.rec.rollbacks += 1;
        self.rec.units_rolled_back += self.n_units as u64;
        self.balancer.rebase(self.epoch, counts);
        self.inv = invocation;
        self.released = true;
        Policy::reranged(self, fx.now(), &survivors);
        Ok(())
    }

    /// Declare slave `s` dead as of `now`, then [fence](Policy::fence) it
    /// as the policy says. A race dies with its executor. Under rollback
    /// the caller must follow up with [`Session::rerange`] —
    /// pipelined/shrinking state cannot be recovered in place.
    pub fn evict(&mut self, fx: &mut Effects, s: usize, now: SimTime) -> Result<(), ProtocolError> {
        self.retire(fx, s, now);
        self.race.take_if(|r| r.executor == s);
        Policy::fence(self, fx, s)
    }

    /// Declare slave `s` dead as of `now` and drop what the session kept
    /// for it, fencing nothing: what a collecting takeover does, whose
    /// re-range fences every slot it leaves out.
    pub fn retire(&mut self, fx: &mut Effects, s: usize, now: SimTime) {
        // Why the detector fired, and how far from settling the barrier was
        // when it did: the note that tells a dead slave from one waiting on
        // a peer.
        fx.note(|| {
            let unsettled = (0..self.memb.n())
                .filter(|&v| self.memb.alive[v] && !self.slave_settled(v))
                .count();
            format!(
                "declaring slave {s} dead (inv {}): silent_for {} unheard_for {} \
                 done {} window_acked {}; {unsettled} live slaves unsettled",
                self.inv,
                self.memb.silent_for(s, now),
                self.memb.unheard_for(s, now),
                self.memb.done[s],
                self.win[s].fully_acked(),
            )
        });
        self.declare_dead(fx, s, now);
        // Its per-invocation metric no longer counts: survivors recompute
        // its units and contribute their metric.
        self.metrics[s] = 0.0;
        self.unacked_instr[s] = None;
    }

    /// Slave `s` is dead as of `now`: out of the membership and the
    /// balancer's allocation, counted, and told so (it may only be cut off,
    /// and exit or rejoin).
    fn declare_dead(&mut self, fx: &mut Effects, s: usize, now: SimTime) {
        self.memb.evict(s);
        self.balancer.mark_dead(s);
        self.rec.slaves_declared_dead += 1;
        self.rec.first_death.get_or_insert(now);
        fx.send(self.slaves[s], Msg::Evict);
    }

    /// Member `s` spoke a protocol message: its silence ends, and so does a
    /// race against it.
    pub fn heard_from(&mut self, fx: &mut Effects, s: usize) {
        self.memb.heard(s, fx.now());
        self.cancel_race(s);
    }

    /// `speaker` spoke — any report, a stale one included — so a race
    /// against it is moot. The cancel is master-local: the executor's
    /// checkpoint, if it still arrives, commits nothing.
    pub fn cancel_race(&mut self, speaker: usize) {
        if self.race.take_if(|r| r.suspect == speaker).is_some() {
            self.rec.speculations_cancelled += 1;
        }
    }

    /// The epoch fence of member `s`'s `Status` / `InvocationDone` stamped
    /// `epoch`; returns whether the report is fenced off. A report from
    /// before the latest re-range (a rollback, an admission, this reign's
    /// takeover) describes a distribution that no longer exists. It proves
    /// the slave is alive (defer suspicion with `ping`, and end a race
    /// against it) but not that it made protocol progress — `unheard_for`
    /// keeps growing, so the window re-send timer still fires for its lost
    /// Rollback.
    pub fn fenced(&mut self, fx: &mut Effects, s: usize, epoch: u64) -> bool {
        if epoch >= self.epoch {
            return false;
        }
        self.memb.ping(s, fx.now());
        self.cancel_race(s);
        self.rec.stale_epoch_dropped += 1;
        true
    }

    /// Open the barrier for the next invocation.
    pub fn begin_invocation(&mut self) {
        self.memb.done.iter_mut().for_each(|d| *d = false);
        self.metrics.iter_mut().for_each(|m| *m = 0.0);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::balancer::{Balancer, BalancerConfig};
    use crate::kernels::tests::{Cols, Doubler};
    use std::cell::Cell;

    thread_local! {
        /// Note texts [`Effects::note`] built on this thread.
        pub(crate) static NOTES_BUILT: Cell<u32> = const { Cell::new(0) };
    }

    fn unit(v: f64) -> UnitData {
        vec![vec![v]]
    }

    /// A complete `n`-unit checkpoint (unit `id` holds `id + base`).
    fn checkpoint(n: usize, base: f64) -> SharedUnits {
        (0..n)
            .map(|id| (id, Arc::new(unit(id as f64 + base))))
            .collect()
    }

    /// Holders of each unit's storage, the caller's own handle included.
    fn refs(units: &SharedUnits) -> Vec<usize> {
        units.iter().map(|(_, d)| Arc::strong_count(d)).collect()
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

    /// The epoch-zero snapshot of unit `id` is `unit(id)`.
    fn rollback() -> AppSpec {
        AppSpec::Shrinking(Arc::new(Cols))
    }

    fn rescatter() -> AppSpec {
        AppSpec::Independent(Arc::new(Doubler { n: 4, reps: 4 }))
    }

    /// A fresh original-reign session over `n` slaves, one unit per
    /// slave, and its master's effect buffer. What the session sends stays
    /// in the buffer, so payload refcounts are exact.
    fn session(n: usize, app: AppSpec) -> (Session, Effects) {
        let kit = TakeoverKit {
            balancer: balancer(n),
            app,
            record_timeline: false,
            ft: Some(FaultToleranceConfig::default()),
            master: ActorId(0),
            slaves: (1..=n).map(ActorId).collect(),
            assignment: (0..n).map(|i| (i, i + 1)).collect(),
            block_rows: 1,
            outcome: Default::default(),
        };
        let (tol, rec) = (FaultToleranceConfig::default(), RecoveryStats::default());
        let sess = Session::new(SimTime::ZERO, &kit, tol, 0, rec);
        let fx = Effects::new(
            NodeConfig::default(),
            NetConfig::default(),
            false,
            SimTime::ZERO,
        );
        (sess, fx)
    }

    /// Bank a complete checkpoint for `inv` the way the receive arm does.
    fn bank(sess: &mut Session, inv: u64, units: SharedUnits) {
        let banked = sess.rec.checkpoints_banked;
        Policy::on_checkpoint(sess, 0, inv, units);
        assert_eq!(
            sess.rec.checkpoints_banked,
            banked + 1,
            "a new complete checkpoint"
        );
    }

    /// The invocation of every `Speculate` in executor `e`'s window.
    fn raced(sess: &Session, e: usize) -> Vec<u64> {
        let speculate = |(_, m): &(u64, Msg)| match m {
            Msg::Speculate { invocation, .. } => Some(*invocation),
            _ => None,
        };
        sess.win[e].unacked().filter_map(speculate).collect()
    }

    /// Every `Restore` in slave `s`'s window: how many invocations its
    /// units hold, and the units.
    fn restores(sess: &Session, s: usize) -> Vec<(u64, SharedUnits)> {
        let restore = |(_, m): &(u64, Msg)| match m {
            Msg::Restore {
                invocation, units, ..
            } => Some((*invocation, units.clone())),
            _ => None,
        };
        sess.win[s].unacked().filter_map(restore).collect()
    }

    /// The unit ids of every `Restore` in slave `s`'s window.
    fn restored(sess: &Session, s: usize) -> Vec<usize> {
        let ids = |(_, units): (u64, SharedUnits)| units.into_iter().map(|(id, _)| id);
        restores(sess, s).into_iter().flat_map(ids).collect()
    }

    #[test]
    fn eviction_during_rollback_rolls_back_again_cleanly() {
        let (mut sess, mut fx) = session(3, rollback());

        // Bank a complete checkpoint for invocation 2, then lose slave 0.
        // Slave 1 has reported five transfers toward slave 2 that slave 2
        // has not: the channel is open until the re-range voids the ledger.
        sess.inv = 2;
        sess.balancer.merge_channels(1, &[0, 0, 5], &[]);
        assert!(!sess.balancer.settled());
        bank(&mut sess, 2, checkpoint(3, 10.0));
        sess.evict(&mut fx, 0, SimTime::ZERO).unwrap();
        sess.rerange(&mut fx, &[]).expect("two survivors remain");
        assert!(sess.balancer.settled(), "the re-range voided the ledger");
        assert_eq!(sess.epoch, 1);
        assert_eq!(sess.inv, 2, "restart at the banked invocation");
        assert!(sess.released);
        assert_eq!(sess.win[1].unacked().count(), 1, "rollback is windowed");

        // A second slave dies while that rollback is still
        // unacknowledged: evict + rollback again. The second rollback
        // supersedes the first (higher epoch), the dead slaves get no
        // message, and the remaining survivor's window holds both
        // rollbacks until acked.
        sess.evict(&mut fx, 1, SimTime::ZERO).unwrap();
        sess.rerange(&mut fx, &[]).expect("one survivor remains");
        assert_eq!(sess.epoch, 2);
        assert_eq!(sess.rec.rollbacks, 2);
        assert_eq!(sess.rec.slaves_declared_dead, 2);
        assert_eq!(sess.memb.survivors(), vec![2]);
        assert_eq!(sess.win[2].unacked().count(), 2);

        // Last survivor dies: nothing left to roll back onto.
        sess.evict(&mut fx, 2, SimTime::ZERO).unwrap();
        assert_eq!(
            sess.rerange(&mut fx, &[]),
            Err(ProtocolError::AllSlavesDead)
        );
    }

    #[test]
    fn speculation_commits_via_banked_checkpoint_and_cancels_on_heartbeat() {
        let (mut sess, mut fx) = session(3, rollback());
        let ckpt = |v: f64| checkpoint(3, v);

        // Slave 1 is parked done; slave 0 goes silent at invocation 0.
        sess.memb.done[1] = true;
        Policy::speculate(&mut sess, &mut fx, 0);
        assert_eq!(sess.rec.speculations_launched, 1);
        assert_eq!(
            raced(&sess, 1),
            [0],
            "no checkpoint banked: seeds from init"
        );

        // A second launch attempt is refused while one is in flight.
        Policy::speculate(&mut sess, &mut fx, 0);
        assert_eq!(sess.rec.speculations_launched, 1);

        // The executor's speculative checkpoint arrives: commit.
        Policy::on_checkpoint(&mut sess, 1, 1, ckpt(1.0));
        assert_eq!(sess.rec.speculations_committed, 1);
        assert_eq!(sess.rec.units_speculated, 3);
        assert_eq!(sess.rec.checkpoints_banked, 1, "it banks like any other");
        // Committed once: a repeat of it is an ordinary fragment, and the
        // suspect's later heartbeat cancels nothing.
        Policy::on_checkpoint(&mut sess, 1, 1, ckpt(1.0));
        assert_eq!(sess.rec.speculations_committed, 1);
        sess.cancel_race(0);
        assert_eq!(
            sess.rec.speculations_cancelled, 0,
            "a commit beats a later heartbeat"
        );

        // The executor's refreshed done report acks the Speculate —
        // until then its window is not settled and no further
        // speculation may target it.
        sess.inv = 1;
        Policy::speculate(&mut sess, &mut fx, 0);
        assert_eq!(sess.rec.speculations_launched, 1, "executor not yet acked");
        let spec_seq = sess.win[1].seq_sent();
        sess.win[1].ack(spec_seq);

        // Second round: this time the suspect heartbeats first.
        Policy::speculate(&mut sess, &mut fx, 0);
        assert_eq!(sess.rec.speculations_launched, 2);
        sess.cancel_race(0);
        assert_eq!(sess.rec.speculations_cancelled, 1);
        // The executor's late checkpoint now commits nothing.
        Policy::on_checkpoint(&mut sess, 1, 2, ckpt(2.0));
        assert_eq!(sess.rec.speculations_committed, 1);
    }

    /// The executor's barrier fragment commits a race at once, so a suspect
    /// that stays silent would be raced again on every sweep, each time on
    /// the next idle slave: it is raced once per invocation instead.
    #[test]
    fn a_silent_suspect_is_raced_once_per_invocation() {
        let (mut sess, mut fx) = session(4, rollback());
        sess.memb.done[1] = true;
        sess.memb.done[2] = true;
        Policy::speculate(&mut sess, &mut fx, 0);
        assert_eq!(raced(&sess, 1), [0]);
        // Slave 1 reaches the barrier of invocation 0: its fragment of
        // the snapshot at 1 commits the race.
        Policy::on_checkpoint(&mut sess, 1, 1, checkpoint(1, 1.0));
        assert_eq!(sess.rec.speculations_committed, 1);
        // Slave 0 is still silent and slave 2 idle: no second race.
        Policy::speculate(&mut sess, &mut fx, 0);
        assert!(raced(&sess, 2).is_empty());
        // Another suspect is raced, once.
        Policy::speculate(&mut sess, &mut fx, 3);
        assert_eq!(raced(&sess, 2), [0]);
        sess.cancel_race(3);
        let spec_seq = sess.win[2].seq_sent();
        sess.win[2].ack(spec_seq);
        Policy::speculate(&mut sess, &mut fx, 3);
        assert_eq!(sess.rec.speculations_launched, 2);
        // The next invocation races slave 0 again.
        sess.inv = 1;
        Policy::speculate(&mut sess, &mut fx, 0);
        assert_eq!(raced(&sess, 2), [0]);
        assert_eq!(sess.rec.speculations_launched, 3);
    }

    #[test]
    fn speculation_requires_an_idle_settled_executor() {
        let (mut sess, mut fx) = session(2, rollback());
        // Nobody is done: no executor, no launch.
        Policy::speculate(&mut sess, &mut fx, 0);
        assert_eq!(sess.rec.speculations_launched, 0);
        assert!(raced(&sess, 1).is_empty());
        // The only candidate is the suspect itself.
        sess.memb.done[0] = true;
        Policy::speculate(&mut sess, &mut fx, 0);
        assert_eq!(sess.rec.speculations_launched, 0);
    }

    /// `speculate` runs on every timer sweep while a suspect is past
    /// `speculate_after`: every way it declines must decline before it
    /// sources a snapshot, and a launch must share the bank's storage.
    #[test]
    fn a_declined_speculation_sources_nothing_and_a_launch_shares_the_bank() {
        let (mut sess, mut fx) = session(3, rollback());
        let held = checkpoint(3, 10.0);
        bank(&mut sess, 2, held.clone());
        let banked = vec![2; 3]; // `held` and the bank
        sess.inv = 2;

        // No idle survivor.
        Policy::speculate(&mut sess, &mut fx, 0);
        assert_eq!(refs(&held), banked);
        // An executor is idle, but the bank is already past the
        // invocation being settled: nothing to race.
        sess.memb.done[1] = true;
        sess.inv = 1;
        Policy::speculate(&mut sess, &mut fx, 0);
        assert_eq!(refs(&held), banked);
        // The suspect itself is done; only its window lags.
        sess.inv = 2;
        sess.memb.done[0] = true;
        Policy::speculate(&mut sess, &mut fx, 0);
        assert_eq!(refs(&held), banked);
        assert_eq!(sess.rec.speculations_launched, 0);

        // A launch: the window's retained copy and the one on the wire
        // are two more holders of the same storage.
        sess.memb.done[0] = false;
        Policy::speculate(&mut sess, &mut fx, 0);
        assert_eq!(sess.rec.speculations_launched, 1);
        assert_eq!(refs(&held), vec![4; 3]);
        // One race at a time: declined while that one is in flight.
        Policy::speculate(&mut sess, &mut fx, 0);
        assert_eq!(sess.rec.speculations_launched, 1);
        assert_eq!(refs(&held), vec![4; 3]);
    }

    /// Window retention and replay are refcounts: `k` unacknowledged
    /// rollbacks, replayed, are `3k` more holders of the banked units and
    /// not one new unit.
    #[test]
    fn replaying_unacked_rollbacks_copies_no_unit() {
        let (mut sess, mut fx) = session(2, rollback());
        let held = checkpoint(2, 10.0);
        bank(&mut sess, 2, held.clone());
        sess.inv = 2;

        let k = 3;
        for _ in 0..k {
            sess.rerange(&mut fx, &[]).unwrap();
        }
        // `held`, the bank, and per rollback one retained + one sent.
        assert_eq!(refs(&held), vec![2 + 2 * k; 2]);
        for s in 0..2 {
            assert_eq!(sess.win[s].unacked().count(), k);
            sess.replay_window(&mut fx, s);
        }
        assert_eq!(sess.rec.restore_resends, 2 * k as u64);
        assert_eq!(refs(&held), vec![2 + 3 * k; 2]);
        for (win, (_, banked)) in sess.win.iter().zip(&held) {
            for (_, msg) in win.unacked() {
                let Msg::Rollback { units, .. } = msg else {
                    unreachable!("only rollbacks were windowed");
                };
                assert_eq!(units.len(), 1, "one unit per survivor");
                assert!(Arc::ptr_eq(&units[0].1, banked));
            }
        }
    }

    /// The `awaited` exemption: a survivor that dies *after* settling,
    /// while an eviction still waits for its OwnReport, stays suspectable;
    /// evicting it drains the first eviction's awaiting set and both
    /// resolve on the last survivor's reports. A late duplicate OwnReport
    /// after resolution is never adopted.
    #[test]
    fn settled_survivor_awaited_by_an_eviction_is_suspected_again() {
        let (mut sess, mut fx) = session(3, rescatter());
        for s in 0..3 {
            sess.memb.done[s] = true;
        }
        assert!(sess.slave_settled(1) && sess.slave_settled(2));

        sess.evict(&mut fx, 0, SimTime::ZERO).unwrap();
        assert!(!sess.settled(), "an open eviction keeps the barrier shut");
        assert!(sess.memb.done[2] && sess.win[2].fully_acked());
        assert!(
            !sess.slave_settled(2),
            "awaited: its timer must keep running"
        );

        Policy::on_own_report(&mut sess, &mut fx, 1, 0, vec![1]);
        assert!(sess.policy.awaits(2), "slave 2 has not reported");

        // Slave 2 never reports: the sweep suspects and evicts it too.
        sess.evict(&mut fx, 2, SimTime::ZERO).unwrap();
        assert!(sess.policy.awaits(1), "the second eviction awaits slave 1");
        Policy::on_own_report(&mut sess, &mut fx, 1, 2, vec![1]);
        assert!(!sess.policy.awaits(1), "both evictions resolved");
        assert_eq!(sess.rec.units_restored, 2);
        assert_eq!(restored(&sess, 1), [0, 2], "one Restore, windowed");
        assert!(!sess.memb.done[1], "the restored units reopen its barrier");

        // A duplicated delivery of an already-matched report: stale ids.
        // Adopting it would reopen the barrier.
        let dups = sess.rec.done_dups_ignored;
        sess.memb.done[1] = true;
        Policy::on_own_report(&mut sess, &mut fx, 1, 0, vec![]);
        assert_eq!(sess.rec.done_dups_ignored, dups + 1);
        assert!(sess.memb.done[1], "never adopted");
        assert_eq!(restored(&sess, 1), [0, 2], "nothing re-scattered");
    }

    /// Under re-scatter the race's checkpoint is kept on the race, and when
    /// the suspect is evicted it goes back to the executor in one `Restore`
    /// that says its units hold the invocation after the race's — the very
    /// storage the checkpoint brought. Without a checkpoint the race is
    /// cancelled and the suspect's unit goes out as initial data.
    #[test]
    fn a_raced_result_reaches_the_executor_and_a_missing_one_is_cancelled() {
        for arrives in [true, false] {
            let (mut sess, mut fx) = session(3, rescatter());
            sess.inv = 2;
            sess.memb.done[1] = true;
            Policy::speculate(&mut sess, &mut fx, 0);
            let race = sess.race.clone().expect("slave 1 races slave 0");
            assert_eq!((race.suspect, race.executor, race.invocation), (0, 1, 2));
            let raced: SharedUnits = vec![(0, Arc::new(unit(8.0)))];
            if arrives {
                // The executor's own barrier checkpoint would be for 2: not
                // the race's.
                Policy::on_checkpoint(&mut sess, 1, 2, checkpoint(1, 0.0));
                assert_eq!(sess.race.as_ref().unwrap().result, None);
                Policy::on_checkpoint(&mut sess, 1, 3, raced.clone());
                assert_eq!(
                    sess.rec.speculations_committed, 0,
                    "not before the eviction"
                );
            }
            let seq = sess.win[1].seq_sent();
            sess.win[1].ack(seq);
            sess.evict(&mut fx, 0, SimTime::ZERO).unwrap();
            Policy::on_own_report(&mut sess, &mut fx, 1, 0, vec![1]);
            Policy::on_own_report(&mut sess, &mut fx, 2, 0, vec![2]);
            assert_eq!(sess.race, None);
            let shipped: Vec<_> = (1..3).flat_map(|s| restores(&sess, s)).collect();
            let [(invocation, units)] = &shipped[..] else {
                panic!("{shipped:?}");
            };
            assert_eq!(units.len(), 1);
            if arrives {
                assert_eq!(restores(&sess, 1).len(), 1, "to the executor");
                assert_eq!(*invocation, 3);
                assert!(Arc::ptr_eq(&units[0].1, &raced[0].1));
                assert_eq!(sess.rec.speculations_committed, 1);
                assert_eq!(sess.rec.units_speculated, 1);
                assert_eq!(sess.rec.units_restored, 0);
            } else {
                assert_eq!((*invocation, &*units[0].1), (0, &unit(0.0)));
                assert_eq!(sess.rec.speculations_cancelled, 1);
                assert_eq!(sess.rec.units_restored, 1);
            }
        }
    }

    /// Under both policies a re-range drops the race in flight, and so does
    /// its executor's eviction. Any report from the suspect, a stale one
    /// included, cancels the race; the executor's traffic cancels nothing.
    #[test]
    fn a_race_is_dropped_with_a_rerange_or_its_executor_and_cancelled_by_its_suspect() {
        for recovery in [rescatter(), rollback()] {
            let (mut sess, mut fx) = session(3, recovery);
            let race = |sess: &mut Session, fx: &mut Effects, suspect: usize| {
                for s in 0..3 {
                    let seq = sess.win[s].seq_sent();
                    sess.win[s].ack(seq);
                }
                sess.memb.done[1] = true;
                Policy::speculate(sess, fx, suspect);
                assert_eq!(sess.race.as_ref().map(|r| r.executor), Some(1));
            };
            race(&mut sess, &mut fx, 0);
            sess.rerange(&mut fx, &[]).unwrap();
            assert_eq!(sess.race, None);
            assert_eq!(sess.rec.speculations_cancelled, 0, "dropped, not cancelled");
            // The executor speaks, in the epoch in force and from a stale one.
            race(&mut sess, &mut fx, 2);
            sess.heard_from(&mut fx, 1);
            assert!(sess.fenced(&mut fx, 1, sess.epoch - 1));
            assert!(sess.race.is_some());
            assert_eq!(sess.rec.speculations_cancelled, 0);
            // The suspect's stale report cancels it.
            assert!(sess.fenced(&mut fx, 2, sess.epoch - 1));
            assert_eq!(sess.race, None);
            assert_eq!(sess.rec.speculations_cancelled, 1);
            // A race dies with its executor (rollback races a suspect once
            // per invocation).
            sess.inv = 1;
            race(&mut sess, &mut fx, 2);
            sess.evict(&mut fx, 1, SimTime::ZERO).unwrap();
            assert_eq!(sess.race, None);
            assert_eq!(sess.rec.speculations_cancelled, 1, "dropped, not cancelled");
        }
    }

    /// The sequence numbers left in slave `s`'s window.
    fn unacked(sess: &Session, s: usize) -> Vec<u64> {
        sess.win[s].unacked().map(|(seq, _)| *seq).collect()
    }

    /// Both policies acknowledge a window from the slot's floor up, not
    /// from the epoch in force: a survivor's report stamped with the first
    /// of two re-ranges proves it applied that `Rollback`, and a rejoined
    /// slot's previous-life report, stamped below its admission epoch,
    /// acknowledges nothing of its fresh window.
    #[test]
    fn both_policies_share_the_per_slot_ack_floor() {
        for recovery in [rescatter(), rollback()] {
            let (mut sess, mut fx) = session(3, recovery);
            let e = sess.epoch;
            sess.rerange(&mut fx, &[]).unwrap();
            sess.rerange(&mut fx, &[]).unwrap();
            assert_eq!(sess.epoch, e + 2);
            assert_eq!(unacked(&sess, 0), [1, 2]);
            sess.ack_report(0, e + 1, 1);
            assert_eq!(unacked(&sess, 0), [2], "the report proves seq 1 applied");

            sess.evict(&mut fx, 1, SimTime::ZERO).unwrap();
            sess.pending_joins = vec![(1, 1)];
            sess.admit(&mut fx).unwrap();
            assert_eq!((sess.epoch, sess.join_epoch[1]), (e + 3, e + 3));
            assert_eq!(unacked(&sess, 1), [1], "a fresh window");
            sess.ack_report(1, e + 2, 1);
            assert_eq!(
                unacked(&sess, 1),
                [1],
                "a previous life acknowledges nothing"
            );
            sess.ack_report(1, e + 3, 1);
            assert!(unacked(&sess, 1).is_empty());
        }
    }

    /// Admission under either policy: a joiner announcing an incarnation
    /// older than the slot's is a zombie and stays out; one round that
    /// readmits several evicted slaves is one healed partition.
    #[test]
    fn admit_fences_older_incarnations_and_counts_one_heal_per_round() {
        for recovery in [rescatter(), rollback()] {
            let (mut sess, mut fx) = session(4, recovery);
            for s in 1..4 {
                sess.evict(&mut fx, s, SimTime::ZERO).unwrap();
            }
            sess.memb.incarnation[2] = 5;
            sess.pending_joins = vec![(1, 1), (2, 3), (3, 1)];
            sess.admit(&mut fx).unwrap();

            assert_eq!(sess.memb.survivors(), vec![0, 1, 3]);
            assert_eq!(sess.memb.incarnation[2], 5, "the zombie changed nothing");
            assert_eq!(sess.rec.joins_admitted, 2);
            assert_eq!(sess.rec.rejoins_after_eviction, 2);
            assert_eq!(sess.rec.partitions_healed, 1, "per round, not per joiner");
            assert!(sess.pending_joins.is_empty());
            assert!(sess.released, "the re-range releases the barrier");
            assert!(sess.rec.join_snapshot_bytes > 0);
            let floor = sess.epoch;
            assert_eq!(sess.join_epoch[1], floor, "a previous life never acks");

            // Nothing but the zombie queued: no re-range, no heal.
            sess.pending_joins = vec![(2, 4)];
            sess.admit(&mut fx).unwrap();
            assert_eq!(sess.epoch, floor);
            assert_eq!(sess.rec.partitions_healed, 1);
        }
    }
}
