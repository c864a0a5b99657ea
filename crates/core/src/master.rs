//! The master process: central load balancer + program control (§3.1, §4.1).
//!
//! The master mimics the application's outer loop structure so that it
//! executes the same number of balancing phases as the slaves and the
//! program terminates properly: one *invocation* per execution of the
//! distributed loop (MM repetition, SOR sweep, LU step). Within an
//! invocation it answers every slave status with instructions from the
//! [`Balancer`], and it releases the next invocation only when every slave
//! is idle, every transfer channel has settled (`recv[b][a] >= sent[a][b]`
//! for every live pair, in the balancer's channel ledger), and no movement
//! order is outstanding — so no unit can be lost, duplicated, or skipped.
//!
//! The master runs one of two controls, both step functions under one shell:
//!
//! * **plain** (`Plain`) — no fault plan; trouble is a typed error, never
//!   a panic. It is the only control that checks unit conservation
//!   (`done_sum == expected`), and it never ticks: the shell blocks in
//!   `recv()` for it where the fault-mode master waits on `recv_deadline`
//!   (every tick is a wake event: `wide_armed` processes 248 038 events to
//!   `wide_plain`'s 186 269, 1.5× the wall-clock). It backs every
//!   `results/*.txt` table, so it keeps a state of its own — `inv`,
//!   `expected`, `done_sum`, `idle`, `metrics` and the gather's `got` —
//!   rather than a `Session`: folding it into the fault-mode master would
//!   move each of those traces or make every shared arm branch on "armed?".
//! * **fault mode** (`Master`) — a step function over one `Session`
//!   (`crate::session::master`): silence-based failure detection, epoch
//!   fencing, windowed recovery messages, speculation, elastic membership,
//!   the gather — with the dynamic balancer live throughout. Each step
//!   takes one delivery or tick, dispatches one `match`, and runs one timer
//!   `sweep`; where it stands is a `Phase`, whose rows are the next table.
//!   How a loss is repaired is the session's `Policy`, which `Session::new`
//!   picks from the application's pattern:
//!   - `Policy::Rescatter` (independent pattern) — recover in place.
//!     The master evicts a silent slave, fences off its transfer channels
//!     via [`Msg::Evicted`] / [`Msg::OwnReport`], and re-scatters exactly
//!     the units no survivor reports. Before a suspect is formally evicted,
//!     its units may be raced on an idle survivor ([`Msg::Speculate`]);
//!     the result comes back as a [`Msg::Checkpoint`], and an eviction
//!     hands it back to the executor in a [`Msg::Restore`] that is adopted
//!     without replay.
//!   - `Policy::Rollback` (pipelined/shrinking patterns) — carried
//!     dependences make in-place recovery impossible, so slaves ship
//!     best-effort state checkpoints at invocation barriers and the master
//!     rolls the survivors back to the newest complete checkpoint
//!     ([`Msg::Rollback`]) instead of aborting. A silent suspect's next
//!     invocation is raced on an idle survivor from the banked snapshot,
//!     whose checkpoint banks like any other, so an eviction rolls back one
//!     invocation less.
//!
//!   Under both, a survivable `SlaveError` — a wedged slave — is rescued by
//!   a re-range.
//!
//! ## Two step functions and one shell
//!
//! `Master::new(kit, tol, takeover, fx)` opens a reign — an original one,
//! or with `takeover` the election winner's — and advances it to its first
//! receive; `Master::on(input, &mut fx)` takes one `Input` — a delivery,
//! or a tick with none — runs its receive arm and the `sweep`, advances
//! the phase to the next receive, and says whether the run ended. The
//! reign's one [`Session`] holds everything it keeps, the balancer (a
//! clone of the kit's pristine one) and the failover term included.
//! `Plain::new(kit, fx)` sends the `Start`s and the first release, and
//! `Plain::on` takes one delivery the same way: it settles invocation
//! `inv`, and its `advance` passes each settled one (conservation,
//! convergence, the next release or the gather) and ends a complete
//! gather. Both are a `Control`. No step takes a `MailCtx`: what a step
//! does goes into `Effects` — CPU charges, sends and notes, in order —
//! which carry the actor's clock, so `fx.now()` is where the actor's own
//! clock will stand. Only the shell (`shell`, `flush`) touches the
//! kernel: flush, receive (until the next `MASTER_TICK` in fault mode),
//! step, and at the end conclude — apply the effects through
//! `advance_work` / `send` / `note`, the charges, sends and notes of the
//! loops this replaced, in their order. So a recorded run of either
//! control replays step by step with no simulator. The one thing the
//! effect clock cannot see is a freeze over a charge's finish: the actor's
//! clock moves on to the thaw, and the master sees the late time at its
//! next step.
//!
//! ## The phases of the fault-mode master
//!
//! `Release` is passed through, never waited in: it opens invocation
//! `inv` (admission, release broadcast, the counters' report) or, past the last
//! one, starts the gather. Every re-range — a rollback suspect, a survivable
//! `SlaveError`, a death mid-gather, the end of a collection — sends the
//! loop back to it. The other three phases are waited in; these are their
//! rows, all taken in `sweep` except the first two columns:
//!
//! | phase | ends when | a live slave still owes (`Phase::owes`) | silence past `suspicion` | a nudge re-sends | settling only |
//! |-------|-----------|-------------------------|--------------------------|------------------|---------------|
//! | `Collect { held }` (a takeover only) | every live survivor answered `Promoted` with `Held`: re-range (row 1) | its `Held`; nothing from it is credited before | evict, no fence, no re-range (its fragments died with it); a `SlaveError` is left to the collection's re-range, or to suspicion | `Promoted`, on the nudge timer alone | — |
//! | `Settle` | `Session::settled` | to settle | row 8: re-scatter evicts in place; rollback evicts the first suspect and re-ranges | an unacknowledged window, led by `Promoted` under a takeover | speculation (row 9), the never-spoken nudge, `Policy::renotify` |
//! | `Gather { seen, got }` | row 11 (`Policy::gathered`) | its units, and an acknowledgement of its window | row 8: re-scatter's bare eviction + `gathers_interrupted`, no `Evicted` broadcast; rollback as settling | `Gather` if the window is acknowledged, else an unled window replay | — |
//!
//! ## Where the two policies differ
//!
//! Everything not listed here is one code path. Each row is one or more
//! methods of `Policy` (`session/master.rs`), named in the table; `Master`,
//! `sweep`, `slave_error` and `Session` call the row and never test the
//! variant, and this table is the single place the two are contrasted.
//!
//! | # | point | `Policy::` | `Rescatter` | `Rollback` |
//! |---|-------|------------|-------------|------------|
//! | 1 | takeover seeding (`Master::new`, then `Phase::Collect`, both policies) | `bank_held`, `rerange_units` | nothing banked; resume at the newest invocation the winner or any `Held` names, every unit recomputed through it | bank the winner's own fragments in an empty bank and every survivor's, roll back to the newest snapshot they complete — the initial data when none does; under both the first epoch is `(term << 32) \| 1` |
//! | 2 | unit state in a re-range (`Session::rerange`: takeover, admission, rollback, rescue) | `rerange_units`, `reranged` | `recompute(kernel, u, inv)`, each survivor's share adopted as its ownership, an open eviction dropped; the survivors' unacknowledged instructions and their silence/nudge clocks are kept (measured: resetting them too moves four `/mm` golden rows) | newest banked snapshot; every unacknowledged instruction is dropped, survivors' clocks restart |
//! | 3 | (retired) | — | — | — |
//! | 4 | (retired) | — | — | — |
//! | 5 | ownership in a done report | `adopt_owned` | `owned_ids` adopted | `owned_ids` ignored |
//! | 6 | policy-own messages: every arm `Master::deliver` does not share, and the one shared `Checkpoint` arm (`on_checkpoint`), which commits a race under both | `own_msg`, `on_checkpoint` | `OwnReport`; a race's checkpoint is kept on the race | stray `GatherData`; every checkpoint banks. The other policy's messages end in `UnexpectedMessage` naming the policy and the phase (silently tolerated under a takeover) |
//! | 7 | (retired) | — | — | — |
//! | 8 | suspicion expires | `evict_in_place`, `fence`, `awaits`, `renotify` | evict inside the sweep (several per sweep, before the deputies are pinged), fence with `Evicted`, wait for `OwnReport`s — a slave one of them is awaited from is never "settled", awaiting survivors are re-notified on the nudge timer, and the barrier stays shut while an eviction is open; the race's result goes back to its executor in a `Restore` | first suspect only, after the ping: evict, roll back, restart the invocation |
//! | 9 | what a race against a suspect that is not done races | `speculate` | the suspect's units from initial data; not while an eviction is open, not for a slave that owns nothing | the whole banked snapshot; not for a suspect already raced in this invocation, not past the invocation being settled |
//! | 10 | (retired) | — | — | — |
//! | 11 | gather | `gathered`, `ack_delivery` | ack each `GatherData` at once; done when every live slave delivered; a death is absorbed and the safety net recomputes whatever no survivor delivered | ack only when all `n_units` are in hand (a death or a survivable `SlaveError` rolls back and redoes the run from the checkpoint, which needs every slave resident) |
//!
//! Seven points are one code path although they look policy-specific.
//! A `Status` or `InvocationDone` stamped with an epoch past the one in
//! force is "from the future" (a typed error) under both: re-scatter never
//! sees one. A race is cancelled master-locally (`Session::cancel_race`) by
//! any report from its suspect, a stale one included; a checkpoint that
//! still arrives commits nothing. A member's `SlaveError` is answered by
//! `slave_error` alike: the survivors are re-ranged, the slave evicted
//! first unless it survives the error — except where row 8 evicts in place,
//! re-scatter's gather, which takes that bare eviction instead. A done report's `restore_seq` acknowledges the window from the
//! slot's floor `Session::join_epoch` up, always *before* the epoch fence:
//! the floor starts at the reign's `term << 32` and rises to the admission
//! epoch when the slot rejoins, so a stale report of this life still
//! proves what the slave applied, and a previous life's acknowledges
//! nothing. Ending the run on convergence lowers the target for both
//! (re-scatter never re-ranges out of the gather, so for it that simply
//! ends the invocations). A gather nudge to a slave with an unacknowledged
//! window replays the window for both. And a slave owes the gather until it has
//! delivered *and* acknowledged its window, where a repeat `GatherData`
//! merges whatever units it adds: under re-scatter every window is
//! acknowledged before the gather starts and a repeat adds nothing, but
//! under rollback a survivor that lost its `Rollback` onto the end state
//! delivers from the partition that `Rollback` replaced, and it reaches no
//! barrier to acknowledge the replay from — it re-delivers instead.
//!
//! All master → slave recovery messages (`Restore`, `Speculate`,
//! `Rollback`) share one per-destination
//! [`SenderWindow`](crate::protocol::SenderWindow): sequence-numbered,
//! acknowledged via `InvocationDone::restore_seq`, deduplicated by the
//! receiver, re-sent on evidence of loss. The transition rules are
//! modelled and exhaustively checked in `dlb-analyze` (restore + transfer
//! models in [`crate::session::model`]).
//!
//! The fault-mode master ships no state ahead of a crash: it only heartbeats
//! the deputy slaves with [`FailoverMsg::MasterPing`]. When it crashes the
//! deputies elect a successor ([`crate::session::replica`]); the winner
//! re-enters the same step function through [`run_takeover`] with a
//! [`TakeoverSeed`] — what it knows as a slave: its membership view, its
//! invocation, its fragments — fences the new reign behind `term << 32`
//! epochs, and collects from every survivor's [`FailoverMsg::Held`] answer
//! the rest: the slot's life (the incarnation on record), its invocation
//! (re-scatter resumes at the newest named) and its checkpoint fragments
//! (rollback restarts from the newest snapshot they complete). Then it
//! re-ranges the survivors and resumes — bit-exact, because unit state is
//! value-deterministic. The run-long recovery counters are instrumentation,
//! not state: each `Release` reports them into the run's shared outcome
//! slot (`TakeoverKit::outcome`), and a takeover counts on from there. A
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
use crate::session::master::{Effect, Effects, Policy, Session};
use crate::session::membership::Life;
use crate::session::replica::TakeoverSeed;
use dlb_sim::{ActorId, CpuWork, MailCtx, SimDuration, SimTime};
use std::cell::{RefCell, RefMut};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::rc::Rc;

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
/// controls as they step (`sc`), so a failed run still surfaces
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

/// Everything a reign starts from: the master configuration as it was
/// before the run (balancer state is not carried over — a promoted deputy
/// re-learns rates from the first statuses it sees), the run topology, and
/// the shared outcome slot. The master runs from it; in fault mode every
/// slave carries it, and the election winner rebuilds the master role from
/// it in place.
pub struct TakeoverKit {
    /// As built, before it saw a status: each reign runs a clone.
    pub balancer: Balancer,
    /// The program whose outer loop the master mimics: invocation count,
    /// expected completions, convergence, and — in fault mode — the unit
    /// state recovery rebuilds from.
    pub app: AppSpec,
    pub record_timeline: bool,
    /// Fault-mode wiring; `None` selects the plain control.
    pub ft: Option<FaultToleranceConfig>,
    /// The original master's actor id (fenced with `Promoted` on takeover
    /// in case it is merely slow, not dead).
    pub master: ActorId,
    /// In slave-index order.
    pub slaves: Vec<ActorId>,
    /// The initial block distribution.
    pub assignment: Vec<(usize, usize)>,
    pub block_rows: u64,
    pub outcome: Rc<RefCell<MasterOutcome>>,
}

fn unexpected(context: &'static str, msg: &Msg) -> ProtocolError {
    ProtocolError::UnexpectedMessage {
        who: "master".to_string(),
        context,
        message: format!("{msg:?}").chars().take(120).collect(),
    }
}

/// The election winner's actor body: announce the new reign, then re-enter
/// the fault-mode master under `tol`, the wiring the winner ran under as a
/// slave, from what it knows (`seed`). Writes the shared outcome itself
/// (the crashed master never will); returns `Ok` even on a failed run — the
/// failure is recorded in the outcome, exactly as `run_master` records it —
/// so the caller never ships a stray `SlaveError` to a dead master.
pub async fn run_takeover(
    ctx: &MailCtx<Msg>,
    kit: &TakeoverKit,
    tol: FaultToleranceConfig,
    seed: TakeoverSeed,
    me: usize,
) -> Result<(), ProtocolError> {
    shell(ctx, kit, |fx| Master::new(kit, tol, Some((seed, me)), fx)).await;
    Ok(())
}

/// The master actor body: the plain control without fault-tolerance
/// wiring, else an original fault-mode reign. The outcome lands in
/// `kit.outcome`.
pub async fn run_master(ctx: MailCtx<Msg>, kit: Rc<TakeoverKit>) {
    let Some(tol) = kit.ft.clone() else {
        return shell(&ctx, &kit, |fx| Plain::new(&kit, fx)).await;
    };
    shell(&ctx, &kit, |fx| Master::new(&kit, tol, None, fx)).await;
}

/// A master control as its shell drives it: opened into an effect buffer,
/// then one [`Input`] per step until a step ends the run.
trait Control {
    /// How long the shell waits for a delivery before it steps with a
    /// [`Input::Tick`]; `None` waits in `recv()`, so no tick — and no wake
    /// event of one — ever reaches the control.
    const TICK: Option<SimDuration>;

    /// Take `input`, then advance to the next receive; `Ok(true)` once the
    /// run completed.
    fn step(&mut self, input: Input, fx: &mut Effects) -> Result<bool, ProtocolError>;

    /// The balancer and the outcome so far, whether or not the run
    /// completed.
    fn finish(self) -> (Balancer, MasterOutcome);

    /// One step, as the shell takes it: `Some` once the run ended —
    /// completed, failed, or (fault mode) superseded.
    fn on(&mut self, input: Input, fx: &mut Effects) -> Option<Result<(), ProtocolError>> {
        ended(self.step(input, fx))
    }
}

/// The one shell around either control: open it with `open`, then flush
/// what the master did, receive — until the next tick, if the control
/// ticks — and step, until the opening or a step ends the run. Then
/// conclude: release the slaves if the run failed, leave `Abort` as the
/// answer to whoever writes to the finished master, and write the outcome.
/// Every slot but the reign's own actor (a winner's slot) is released —
/// every blocked wait receives `Abort`, so this cannot deadlock even
/// outside fault mode. The exit reply reaches the slaves the release
/// cannot: an orphan whose `Evict` was lost, a joiner whose `Join` lands
/// after the end. Each stops one round trip after its first message gets
/// through, instead of waiting out its give-up budget on a silent mailbox.
async fn shell<C: Control>(
    ctx: &MailCtx<Msg>,
    kit: &TakeoverKit,
    open: impl FnOnce(&mut Effects) -> (C, Option<Result<(), ProtocolError>>),
) {
    let (node, net) = ctx.costs();
    let mut fx = Effects::new(node.clone(), net.clone(), ctx.traced(), ctx.now());
    #[cfg(test)]
    let open = tests::logged(open, kit, ctx.now());
    let (mut control, mut end) = open(&mut fx);
    let res = loop {
        flush(ctx, &mut fx, kit).await;
        if let Some(res) = end {
            break res;
        }
        let env = match C::TICK {
            None => Some(ctx.recv().await),
            Some(tick) => ctx.recv_deadline(ctx.now() + tick).await,
        };
        let input = env.map_or(Input::Tick, |env| Input::Deliver(env.msg));
        fx.at(ctx.now());
        end = control.on(input, &mut fx);
    };
    if matches!(res, Err(ProtocolError::Superseded { .. })) {
        // A promoted deputy owns the run now: it writes the outcome and it
        // commands the slaves. Aborting them or writing a failed outcome
        // here would sabotage the legitimate reign — exit silently.
        return;
    }
    if res.is_err() {
        for &s in kit.slaves.iter().filter(|&&s| s != ctx.id()) {
            fx.send(s, Msg::Abort);
        }
    }
    flush(ctx, &mut fx, kit).await;
    ctx.exit_reply(Msg::Abort, Msg::Abort.wire_bytes());
    let (balancer, mut sc) = control.finish();
    sc.stats = balancer.stats();
    sc.bounds = Some(balancer.period_bounds());
    sc.completed = res.is_ok();
    sc.error = res.err();
    *kit.slot() = sc;
}

/// Apply a step's effects through the kernel, in order, leaving `fx`
/// empty for the next step. A report of the recovery counters goes into
/// the run's shared outcome slot, where a takeover finds it.
async fn flush(ctx: &MailCtx<Msg>, fx: &mut Effects, kit: &TakeoverKit) {
    for effect in fx.drain() {
        match effect {
            Effect::Cpu(work) => ctx.advance_work(work).await,
            Effect::Send(to, msg, bytes) => ctx.send(to, msg, bytes).await,
            Effect::Note(text) => ctx.note(|| text),
            Effect::Report(rec) => kit.slot().recovery = rec,
        }
    }
}

/// One balancing step, the same in both controls: charge the decision CPU,
/// let the balancer answer the status, log the timeline row into
/// `timeline` if the run records one. The caller sends the instructions.
fn decide(
    fx: &mut Effects,
    balancer: &mut Balancer,
    timeline: Option<&mut Vec<TimelineSample>>,
    st: &Status,
    inv: u64,
) -> Instructions {
    fx.cpu(DECISION_CPU);
    let decision = balancer.on_status(st);
    if let Some(timeline) = timeline {
        timeline.push(TimelineSample {
            t: fx.now(),
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

/// The fault-free control, structurally the original master, as a step
/// function: every protocol violation is a typed error instead of a
/// panic, and it is the one control that checks unit conservation
/// (`done_sum == expected`). It settles invocation `inv` until every slave
/// is idle, the units it expects are done and the balancer has settled,
/// then releases the next one or — past the last one, or converged —
/// gathers.
struct Plain<'k> {
    kit: &'k TakeoverKit,
    balancer: Balancer,
    sc: MasterOutcome,
    /// The invocation being settled, the units it must complete, and those
    /// reported done so far.
    inv: u64,
    expected: u64,
    done_sum: u64,
    /// Which slaves reported it done, with their convergence metrics.
    idle: Vec<bool>,
    metrics: Vec<f64>,
    /// Gathering: which slaves delivered their units.
    got: Option<Vec<bool>>,
}

impl<'k> Plain<'k> {
    /// Send every slave the `Start` and open the first invocation — or,
    /// with none to run, the gather. `Some` if the opening ended the run.
    fn new(kit: &'k TakeoverKit, fx: &mut Effects) -> (Self, Option<Result<(), ProtocolError>>) {
        fx.broadcast(&kit.slaves, kit.start());
        let mut plain = Plain {
            kit,
            balancer: kit.balancer.clone(),
            sc: MasterOutcome::default(),
            inv: 0,
            expected: 0,
            done_sum: 0,
            idle: vec![false; kit.slaves.len()],
            metrics: vec![0.0; kit.slaves.len()],
            got: None,
        };
        plain.release(fx, false);
        let end = ended(plain.advance(fx));
        (plain, end)
    }

    /// Pass each settled invocation — check that it completed exactly the
    /// units it expected, then release the next one or the gather — and end
    /// a complete gather (`Ok(true)`).
    fn advance(&mut self, fx: &mut Effects) -> Result<bool, ProtocolError> {
        loop {
            if let Some(got) = &self.got {
                return Ok(got.iter().all(|&g| g));
            }
            let (inv, done_sum, expected) = (self.inv, self.done_sum, self.expected);
            if !self.idle.iter().all(|&b| b) || done_sum < expected || !self.balancer.settled() {
                return Ok(false);
            }
            if done_sum != expected {
                let detail =
                    format!("invocation {inv}: {done_sum} units completed, expected {expected}");
                return Err(ProtocolError::Inconsistent { detail });
            }
            self.inv += 1;
            self.release(fx, self.kit.app.converged(inv, self.metrics.iter().sum()));
        }
    }

    /// Open invocation `inv` — or, past the last one or `converged`, the
    /// gather.
    fn release(&mut self, fx: &mut Effects, converged: bool) {
        let (app, slaves, inv) = (&self.kit.app, &self.kit.slaves, self.inv);
        if converged || inv >= app.invocations() {
            self.sc.compute_done = fx.now();
            fx.broadcast(slaves, Msg::Gather);
            self.got = Some(vec![false; slaves.len()]);
            return;
        }
        self.balancer
            .set_remaining_invocations(app.invocations() - inv);
        fx.broadcast(slaves, Msg::InvocationStart { invocation: inv });
        (self.expected, self.done_sum) = (app.expected_units(inv), 0);
        // Each slave's metric is written with its done report.
        self.idle.fill(false);
    }
}

impl Control for Plain<'_> {
    const TICK: Option<SimDuration> = None;

    /// One delivery (the shell never ticks a plain run).
    fn step(&mut self, input: Input, fx: &mut Effects) -> Result<bool, ProtocolError> {
        let Input::Deliver(msg) = input else {
            return Ok(false);
        };
        let (inv, done_sum, expected) = (self.inv, self.done_sum, self.expected);
        let Plain { idle, got, .. } = self;
        if got.is_none() {
            fx.note(|| {
                let got = match &msg {
                    Msg::Status(s) => format!(
                        "Status(slave {}, delta {}, active {})",
                        s.slave, s.units_done_delta, s.active_units
                    ),
                    other => format!("{other:?}").chars().take(60).collect(),
                };
                format!("inv={inv} got {got:?} (done {done_sum}/{expected}, idle {idle:?})")
            });
        }
        match (msg, got) {
            (Msg::SlaveError { slave, error }, _) => {
                let error = Box::new(error);
                return Err(ProtocolError::SlaveFailed { slave, error });
            }
            (Msg::Status(st), None) => {
                if st.invocation > inv {
                    return Err(unexpected("status from the future", &Msg::Status(st)));
                }
                if st.invocation == inv {
                    self.done_sum += st.units_done_delta;
                }
                self.idle[st.slave] = false;
                let timeline = self.kit.record_timeline.then_some(&mut self.sc.timeline);
                let instr = decide(fx, &mut self.balancer, timeline, &st, inv);
                fx.send(self.kit.slaves[st.slave], Msg::Instructions(instr));
            }
            (
                Msg::InvocationDone {
                    slave,
                    invocation,
                    sent_to,
                    received_from,
                    metric,
                    ..
                },
                None,
            ) => {
                if invocation > inv {
                    let detail = format!("InvocationDone for {invocation} while settling {inv}");
                    return Err(ProtocolError::Inconsistent { detail });
                }
                // A refreshed report for an earlier invocation (sent after
                // executing late balancing moves) can straggle into the
                // next settlement; its channel counts still matter, its
                // idle claim does not.
                if invocation == inv {
                    self.idle[slave] = true;
                    self.metrics[slave] = metric;
                }
                let balancer = &mut self.balancer;
                balancer.merge_channels(slave, &sent_to, &received_from);
            }
            (other, None) => return Err(unexpected("invocation loop", &other)),
            (
                Msg::GatherData {
                    slave,
                    units,
                    fault_stats,
                },
                Some(got),
            ) => {
                if !std::mem::replace(&mut got[slave], true) {
                    self.sc.recovery.absorb(&fault_stats);
                    self.sc.result.extend(units);
                }
                // No GatherAck in plain mode: the slave exits right after
                // replying, so an ack would never be received (and message
                // conservation is promised without faults).
            }
            // Final statuses racing the gather are harmless.
            (Msg::Status(_) | Msg::InvocationDone { .. }, Some(_)) => {}
            (other, Some(_)) => return Err(unexpected("gather", &other)),
        }
        self.advance(fx)
    }

    fn finish(self) -> (Balancer, MasterOutcome) {
        (self.balancer, self.sc)
    }
}

/// A `SlaveError` arrived, settling or gathering. A non-member's dying
/// report (it wedged inside a partition we evicted it across) is not fatal
/// to the run: repeat the eviction verdict so the slave exits or rejoins
/// instead of wedging. A member's error that predates a re-range still in
/// flight (a `Rollback` unacknowledged in its window) is resolved by that
/// re-range. Gathering, where suspicion evicts in place (row 8:
/// re-scatter), so does the error, and the gather's safety net recomputes
/// what the slave did not deliver: a re-range would release an invocation
/// past a converged target and wait on survivors that already exited.
/// Otherwise the slave is evicted unless it survives the error
/// ([`ProtocolError::survivable`]), and the survivors are re-ranged.
/// `Ok(true)` means they were: the caller goes back to [`Phase::Release`].
fn slave_error(
    fx: &mut Effects,
    st: &mut Session,
    slave: usize,
    error: &ProtocolError,
    gathering: bool,
) -> Result<bool, ProtocolError> {
    if !st.memb.alive[slave] {
        fx.send(st.slaves[slave], Msg::Evict);
        return Ok(false);
    }
    let rerange_in_flight = |(_, m): &(u64, Msg)| matches!(m, Msg::Rollback { .. });
    if st.win[slave].unacked().any(rerange_in_flight) {
        return Ok(false);
    }
    let now = fx.now();
    if gathering && Policy::evict_in_place(st, fx, slave, false, now)? {
        return Ok(false);
    }
    if !error.survivable() {
        st.evict(fx, slave, now)?;
    }
    st.rerange(fx, &[])?;
    Ok(true)
}

/// Where the fault-mode master stands (the phase rows in the module doc).
enum Phase {
    /// A takeover's first phase: collect what the survivors know — their
    /// lives, invocations and checkpoint fragments. Which slots answered
    /// `Promoted` with `Held`.
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

/// What the shell hands the fault-mode master: a delivery, or a tick on
/// which nothing arrived.
#[derive(Clone, Debug)]
enum Input {
    Deliver(Msg),
    Tick,
}

/// A step's result as the shell takes it: `Some` once the run ended.
fn ended(step: Result<bool, ProtocolError>) -> Option<Result<(), ProtocolError>> {
    step.map_or_else(|e| Some(Err(e)), |done| done.then_some(Ok(())))
}

/// The fault-mode master: silence-based failure detection, epoch fencing,
/// windowed recovery, speculation, elastic membership and the gather, over
/// one [`Session`], as a step function — one receive arm, one [`sweep`],
/// the gather as the last [`Phase`]. Session state and its structural
/// transitions live in [`crate::session::master`]. Re-sends are
/// event-triggered where an event exists; the one timer-driven repair that
/// fires with no fault anywhere is the sweep's never-spoken nudge.
struct Master {
    /// Log each decision's timeline row (`TakeoverKit::record_timeline`).
    record: bool,
    sc: MasterOutcome,
    st: Session,
    phase: Phase,
    /// Convergence can end the run early; a post-convergence rollback must
    /// not run invocations the converged run never executed.
    target: u64,
    /// How the reign announced itself: an original reign's `Start`, re-sent
    /// to a slave that never spoke, or a takeover's `Promoted`, which leads
    /// its nudges.
    announce: Msg,
    takeover: bool,
}

impl TakeoverKit {
    /// The run's shared outcome slot: the outcome a reign concludes with,
    /// and meanwhile the recovery counters the last reign reported.
    fn slot(&self) -> RefMut<'_, MasterOutcome> {
        self.outcome.borrow_mut()
    }

    /// An original reign's opening message.
    fn start(&self) -> Msg {
        Msg::Start {
            slaves: self.slaves.clone(),
            assignment: self.assignment.clone(),
            block_rows: self.block_rows,
        }
    }
}

impl Master {
    /// Open a reign and advance it to its first receive; `Some` if the
    /// opening moves already ended the run. An original reign evicts the
    /// deferred slots and broadcasts the `Start`. The election winner `me`'s
    /// reign from `seed` announces itself with `Promoted` to the other
    /// slots and to the old master (in case it is merely slow, not dead),
    /// evicts what the winner's own view says is gone — before the winner
    /// adopted any survivor list the `Start`'s membership is its view, so
    /// the slots reserved for latecomers are gone too — and the winner
    /// itself (it computes no units), and collects the survivors' `Held`
    /// answers, starting with its own fragments and invocation. Either
    /// counts on from the counters the run last reported (none before a
    /// takeover), so the final report covers the whole run.
    fn new(
        kit: &TakeoverKit,
        tol: FaultToleranceConfig,
        takeover: Option<(TakeoverSeed, usize)>,
        fx: &mut Effects,
    ) -> (Master, Option<Result<(), ProtocolError>>) {
        let mut rec = kit.slot().recovery.clone();
        let term = takeover.as_ref().map_or(0, |(seed, _)| seed.term);
        let announce = match &takeover {
            None => kit.start(),
            Some((seed, me)) => {
                let me = *me;
                fx.note(|| format!("slave {me} won term {term} (at inv {})", seed.invocation));
                rec.elections_held += 1;
                rec.takeover_latency = Some(fx.now().saturating_since(seed.last_heard));
                let promoted = Msg::Failover(FailoverMsg::Promoted {
                    term,
                    master_idx: me,
                });
                let others = kit.slaves.iter().enumerate().filter(|&(i, _)| i != me);
                for s in others.map(|(_, &s)| s).chain([kit.master]) {
                    fx.send(s, promoted.clone());
                }
                promoted
            }
        };
        let mut st = Session::new(fx.now(), kit, tol, term, rec);
        for i in 0..st.memb.n() {
            let gone = takeover.as_ref().map_or(st.deferred[i], |(seed, me)| {
                i == *me || seed.dead[i] || (seed.epoch == 0 && st.deferred[i])
            });
            if gone {
                st.memb.evict(i);
                st.balancer.mark_dead(i);
            }
            // Admitted before the crash: a later rejoin is a rejoin, not a
            // first-time (deferred) admission.
            st.deferred[i] &= gone;
        }
        let phase = match takeover {
            Some((seed, me)) => {
                st.inv = seed.invocation;
                Policy::bank_held(&mut st, me, seed.held);
                let held = vec![false; st.slaves.len()];
                Phase::Collect { held }
            }
            None => {
                // Deferred slots get the Start too: it parks in their mailbox
                // and teaches the latecomer the topology when it wakes to join.
                fx.broadcast(&st.slaves, announce.clone());
                Phase::Release
            }
        };
        let mut master = Master {
            target: st.app.invocations(),
            record: kit.record_timeline,
            sc: MasterOutcome::default(),
            st,
            takeover: matches!(phase, Phase::Collect { .. }),
            phase,
            announce,
        };
        let end = ended(master.advance(fx));
        (master, end)
    }

    /// Advance the phase up to the next receive: close a complete
    /// collection, open the next invocation or the gather, pass each
    /// settled invocation, and end a complete gather (`Ok(true)`).
    fn advance(&mut self, fx: &mut Effects) -> Result<bool, ProtocolError> {
        let Master { st, phase, .. } = self;
        let n = st.slaves.len();
        loop {
            if let Phase::Collect { held } = phase {
                if st.memb.survivors().iter().all(|&s| held[s]) {
                    // Every survivor answered: re-range from the newest
                    // invocation named (re-scatter) or the newest snapshot
                    // the banked fragments complete (rollback).
                    let newest = st.inv;
                    st.rerange(fx, &[])?;
                    fx.note(|| format!("collected; restarts at {}, newest named {newest}", st.inv));
                    *phase = Phase::Release;
                }
            }
            if matches!(phase, Phase::Release) {
                *phase = if st.inv < self.target {
                    if !st.pending_joins.is_empty() {
                        st.admit(fx)?;
                    }
                    st.balancer.set_remaining_invocations(self.target - st.inv);
                    // Unless the Rollback message itself released this
                    // invocation.
                    if !std::mem::take(&mut st.released) {
                        for s in st.memb.survivors() {
                            fx.send(st.slaves[s], st.release_msg());
                        }
                    }
                    fx.report(&st.rec);
                    st.begin_invocation();
                    Phase::Settle
                } else {
                    self.sc.compute_done = fx.now();
                    // Too late to admit once the run is gathering: refuse queued
                    // joiners so their bounded handshake exits instead of
                    // retrying into silence.
                    for (j, _) in st.pending_joins.drain(..) {
                        fx.send(st.slaves[j], Msg::JoinRefuse { slave: j });
                    }
                    // Gather from the survivors; when it is complete, and what
                    // a death costs, is the policy's (`Policy::gathered`).
                    let now = fx.now();
                    fx.note(|| format!("gather begins, alive {:?}", st.memb.alive));
                    for s in 0..n {
                        st.memb.rearm_nudge(s, now, st.tol.nudge);
                        st.memb.last_heard[s] = now;
                        if st.memb.alive[s] {
                            fx.send(st.slaves[s], Msg::Gather);
                        }
                    }
                    let (seen, got) = (BTreeMap::new(), vec![false; n]);
                    Phase::Gather { seen, got }
                };
            }
            if matches!(phase, Phase::Settle) && st.settled() {
                let reduced: f64 = st.metrics.iter().sum();
                st.inv += 1;
                if st.app.converged(st.inv - 1, reduced) {
                    self.target = st.inv;
                }
                *phase = Phase::Release;
                continue;
            }
            if let Phase::Gather { seen, got } = phase {
                if Policy::gathered(st, fx, seen, got) {
                    self.sc.result.extend(std::mem::take(seen));
                    return Ok(true);
                }
            }
            return Ok(false);
        }
    }

    /// The receive arms: one delivery, in the phase the master stands in.
    /// `Ok(false)` skips the sweep.
    fn deliver(&mut self, msg: Msg, fx: &mut Effects) -> Result<bool, ProtocolError> {
        let Master { st, phase, .. } = self;
        let (takeover, nudge) = (self.takeover, st.tol.nudge);
        let gathering = matches!(phase, Phase::Gather { .. });
        match (msg, &mut *phase) {
            // A final status racing the gather.
            (Msg::Status(stm), Phase::Gather { got, .. }) => {
                st.nudge_gather(fx, got, stm.slave);
            }
            (Msg::Status(stm), _) => {
                let s = stm.slave;
                // An evicted slave still talking, or a stale epoch.
                if !st.memb.alive[s] || st.fenced(fx, s, stm.epoch) {
                    return Ok(false);
                }
                st.heard_from(fx, s);
                if stm.epoch > st.epoch || stm.invocation > st.inv {
                    return Err(unexpected("status from the future", &Msg::Status(stm)));
                }
                if stm.hook_seq <= st.last_hook_seq[s] {
                    st.rec.status_dups_ignored += 1;
                    return Ok(false);
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
                let timeline = self.record.then_some(&mut self.sc.timeline);
                let instr = decide(fx, &mut st.balancer, timeline, &stm, st.inv);
                st.unacked_instr[s] = Some((instr.seq, instr.clone(), 0));
                fx.send(st.slaves[s], Msg::Instructions(instr));
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
                    fx.send(st.slaves[slave], Msg::Evict);
                }
                st.nudge_gather(fx, got, slave);
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
                    fx.send(st.slaves[slave], Msg::Evict);
                    st.rec.done_dups_ignored += 1;
                    return Ok(false);
                }
                st.ack_report(slave, epoch, restore_seq);
                if st.fenced(fx, slave, epoch) {
                    return Ok(false);
                }
                st.heard_from(fx, slave);
                if epoch > st.epoch {
                    let detail = format!("InvocationDone from epoch {epoch} while in {}", st.epoch);
                    return Err(ProtocolError::Inconsistent { detail });
                }
                st.balancer.merge_channels(slave, &sent_to, &received_from);
                let inv = st.inv;
                if invocation > inv {
                    let detail = format!("InvocationDone for {invocation} while settling {inv}");
                    return Err(ProtocolError::Inconsistent { detail });
                }
                if invocation == inv {
                    st.memb.done[slave] = true;
                    st.metrics[slave] = metric;
                    st.policy.adopt_owned(slave, owned_ids);
                } else {
                    st.rec.done_dups_ignored += 1;
                    // A heartbeat from a slave stuck at the previous
                    // barrier: its release was lost. The heartbeat itself
                    // is the re-send trigger — the slave is chatty, so a
                    // silence timer would never fire.
                    if st.memb.nudge_due(slave, fx.now(), nudge) {
                        fx.send(st.slaves[slave], st.release_msg());
                        st.rec.invocation_start_resends += 1;
                        // A stuck slave cannot supersede a lost
                        // instruction with a newer one; replay the
                        // unacknowledged one (bounded).
                        if let Some((_, instr, tries)) = &mut st.unacked_instr[slave] {
                            if *tries < INSTR_RETRIES {
                                *tries += 1;
                                st.rec.instr_resends += 1;
                                let again = Msg::Instructions(instr.clone());
                                fx.send(st.slaves[slave], again);
                            }
                        }
                    }
                }
                // Done but missing windowed messages: they were lost in
                // flight.
                if st.memb.done[slave]
                    && !st.win[slave].fully_acked()
                    && st.memb.nudge_due(slave, fx.now(), nudge)
                {
                    st.replay_window(fx, slave);
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
                    return Ok(false);
                }
                st.memb.last_heard[slave] = fx.now();
                st.policy.ack_delivery(fx, st.slaves[slave]);
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
                        Entry::Vacant(e) => _ = e.insert(data),
                        Entry::Occupied(_) if !repeat => st.rec.gather_dup_units_dropped += 1,
                        Entry::Occupied(_) => {}
                    }
                }
                if repeat {
                    return Ok(false);
                }
            }
            // Collecting, the collection's re-range rescues a wedged
            // survivor, and suspicion evicts one that died.
            (Msg::SlaveError { .. }, Phase::Collect { .. }) => return Ok(false),
            (Msg::SlaveError { slave, error }, _) => {
                if slave_error(fx, st, slave, &error, gathering)? {
                    *phase = Phase::Release;
                }
                return Ok(false);
            }
            // A slave blocked on a peer (a halo or pivot from a crashed
            // neighbour — not the master) pings so the suspicion timer
            // cannot mistake the stall for a crash. Pings are
            // incarnation-stamped: a rejoined slot only credits its
            // *current* life, so a zombie's leftover heartbeats cannot vouch
            // for the new one (E111). A credited ping defers suspicion;
            // while settling it is a sign of life like any other, and the
            // race against this slave is moot. (While gathering, the sweep
            // still re-sends the Gather on protocol silence.) When instead
            // the latest life of an evicted slot is still heartbeating, its
            // `Evict` was lost: repeat it so the slave can exit or rejoin.
            // (Older incarnations are zombies; the `Evict` would reach the
            // current life, so they get nothing.) Collecting, a slot's life
            // is on record only once its `Held` states it: nothing from it
            // is credited before.
            (Msg::Alive { slave, incarnation }, p) => {
                let stated = !matches!(p, Phase::Collect { held } if !held[slave]);
                match st.memb.life(slave, incarnation) {
                    Life::Current if stated => {
                        st.memb.ping(slave, fx.now());
                        if !gathering {
                            st.cancel_race(slave);
                        }
                    }
                    Life::Evicted if stated => _ = fx.send(st.slaves[slave], Msg::Evict),
                    _ => {}
                }
            }
            (Msg::Join { slave, incarnation }, _) => {
                let life = st.memb.life(slave, incarnation);
                if st.tol.rejoin_attempts == 0 || gathering {
                    // Elastic membership is opt-in, and the gathering
                    // run admits no one: a refused joiner cannot
                    // hot-loop.
                    fx.send(st.slaves[slave], Msg::JoinRefuse { slave });
                } else if life == Life::Current && st.memb.nudge_due(slave, fx.now(), nudge) {
                    // Already admitted: its admission Rollback (the
                    // handshake's exit signal) must have been lost.
                    st.replay_window(fx, slave);
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
            // A still-newer reign has fenced this one out: exit silently,
            // it owns the run now. A stale or duplicate announcement for
            // our own (or an older) term is ignored.
            (Msg::Failover(FailoverMsg::Promoted { term, .. }), _) if term > st.term => {
                return Err(ProtocolError::Superseded { term });
            }
            (Msg::Failover(FailoverMsg::Promoted { .. }), _) => {}
            // Only a finished reign's exit reply brings `Abort` to a
            // master: a successor elected while this reign was cut off
            // has ended the run, and its `Promoted` was lost. Yield as to
            // that `Promoted` (its term, not on the wire, is past ours)
            // rather than write a failed outcome over the successor's.
            // A takeover shrugs it off like any stray.
            (Msg::Abort, _) if !takeover => {
                return Err(ProtocolError::Superseded { term: st.term + 1 });
            }
            // A survivor's answer to our `Promoted`: the life it states is
            // the one on record, its fragments bank like checkpoints, in
            // any phase, and collecting, the newest invocation named is
            // where the run resumes. It moves no clock: every receive point
            // answers, so a slave wedged on a lost pivot answers the nudge
            // that replays its window, and must still fall silent to
            // suspicion.
            (
                Msg::Failover(FailoverMsg::Held {
                    slave,
                    incarnation,
                    invocation,
                    fragments,
                }),
                p,
            ) => {
                st.memb.state_life(slave, incarnation);
                if let Phase::Collect { held } = p {
                    held[slave] = true;
                    st.inv = st.inv.max(invocation);
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
                match Policy::own_msg(st, fx, other, got) {
                    Ok(true) => {}
                    Err((context, other)) if !takeover => {
                        return Err(unexpected(context, &other));
                    }
                    Ok(false) | Err(_) => return Ok(false),
                }
            }
        }
        Ok(true)
    }

    /// The fault-mode master's one timer sweep, collecting, settling or
    /// gathering. For every live slave that still [owes](Phase::owes) the
    /// phase something: suspicion past `suspicion` of silence, else (settling)
    /// speculation past `speculate_after`, then at most one nudge. Returns
    /// whether the run re-ranged (the caller goes back to [`Phase::Release`]).
    fn sweep(&mut self, fx: &mut Effects) -> Result<bool, ProtocolError> {
        let Master { st, phase, .. } = self;
        let tol = st.tol.clone();
        let settling = matches!(phase, Phase::Settle);
        let gathering = matches!(phase, Phase::Gather { .. });
        let collecting = matches!(phase, Phase::Collect { .. });
        let now = fx.now();
        let mut suspect = None;
        for s in 0..st.memb.n() {
            if !st.memb.alive[s] || !phase.owes(st, s) {
                continue;
            }
            let silent = st.memb.silent_for(s, now);
            if silent >= tol.suspicion {
                if collecting {
                    // Its fragments died with it, and the collection's
                    // re-range fences it off.
                    st.retire(fx, s, now);
                } else if !Policy::evict_in_place(st, fx, s, settling, now)? {
                    suspect = Some(s);
                    break;
                }
                continue;
            }
            if settling && silent >= tol.speculate_after {
                Policy::speculate(st, fx, s);
            }
            if settling
                && !self.takeover
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
                fx.send(st.slaves[s], self.announce.clone());
                st.rec.start_resends += 1;
                fx.send(st.slaves[s], st.release_msg());
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
                match (&*phase, self.takeover) {
                    (Phase::Gather { .. }, _) if st.win[s].fully_acked() => st.resend_gather(fx, s),
                    (Phase::Settle | Phase::Collect { .. }, true) => {
                        fx.send(st.slaves[s], self.announce.clone());
                        st.replay_window(fx, s);
                    }
                    _ => st.replay_window(fx, s),
                }
            }
        }
        // Keeps the deputies' election trigger quiet, the gather included.
        st.ping_deputies(fx);
        if let Some(s) = suspect {
            // A loss that re-ranges: evict the first suspect and restart from
            // the newest complete checkpoint — mid-gather too, as its
            // un-gathered state is gone.
            if gathering {
                st.rec.gathers_interrupted += 1;
            }
            let now = fx.now();
            st.evict(fx, s, now)?;
            st.rerange(fx, &[])?;
            return Ok(true);
        }
        if settling {
            Policy::renotify(st, fx, now);
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
}

impl Control for Master {
    const TICK: Option<SimDuration> = Some(MASTER_TICK);

    fn step(&mut self, input: Input, fx: &mut Effects) -> Result<bool, ProtocolError> {
        let timers = match input {
            Input::Deliver(msg) => self.deliver(msg, fx)?,
            Input::Tick => true,
        };
        if timers && self.sweep(fx)? {
            self.phase = Phase::Release;
        }
        self.advance(fx)
    }

    /// The session's recovery counters surfaced.
    fn finish(self) -> (Balancer, MasterOutcome) {
        let mut sc = self.sc;
        sc.recovery = self.st.rec;
        (self.st.balancer, sc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::BalancerConfig;
    use crate::kernels::tests::{Cols, Doubler};
    use crate::kernels::IndependentKernel;
    use crate::msg::SharedUnits;
    use crate::recovery::SlaveFaultStats;
    use crate::session::master::tests::NOTES_BUILT;
    use dlb_sim::{NetConfig, NodeConfig, SimBuilder, SimDuration};
    use std::cell::Cell;
    use std::ops::Range;
    use std::sync::Arc;

    /// The kit of a run of `app` on `slaves` split as `assignment`, its
    /// original master `master`, its balancer as built.
    fn kit(
        app: AppSpec,
        master: ActorId,
        slaves: Vec<ActorId>,
        assignment: Vec<(usize, usize)>,
    ) -> TakeoverKit {
        let balancer = Balancer::new(
            BalancerConfig::default(),
            vec![2; slaves.len()],
            SimDuration::from_millis(100),
            SimDuration::from_millis(1),
            1,
            1.0,
        );
        TakeoverKit {
            balancer,
            app,
            record_timeline: false,
            ft: Some(FaultToleranceConfig::default()),
            master,
            slaves,
            assignment,
            block_rows: 1,
            outcome: Default::default(),
        }
    }

    /// An effect buffer at time zero, traced or not.
    fn blank(traced: bool) -> Effects {
        let (node, net) = (NodeConfig::default(), NetConfig::default());
        Effects::new(node, net, traced, SimTime::ZERO)
    }

    /// Each reign balances with a clone of the kit's balancer, so however
    /// far the first reign got, a promoted deputy starts from the balancer
    /// as built.
    #[test]
    fn a_reign_leaves_the_kits_balancer_pristine() {
        let app = AppSpec::Independent(Arc::new(Doubler { n: 2, reps: 1 }));
        let kit = kit(
            app,
            ActorId(0),
            vec![ActorId(1), ActorId(2)],
            vec![(0, 1), (1, 2)],
        );
        let mut fx = blank(false);
        let (mut m, _) = Master::new(&kit, Default::default(), None, &mut fx);
        for hook_seq in 1..=3 {
            fx.drain();
            m.on(status(0, 0, hook_seq, 1), &mut fx);
        }
        let (balancer, _) = m.finish();
        assert_eq!(balancer.stats().statuses, 3);
        assert_eq!(kit.balancer.stats(), BalancerStats::default());
    }

    /// Slot `slave`'s `hook_seq`-th status in `invocation`, `delta` units
    /// done since its last, after a second's work on one unit.
    fn status(slave: usize, invocation: u64, hook_seq: u64, delta: u64) -> Input {
        Input::Deliver(Msg::Status(Status {
            slave,
            invocation,
            hook_seq,
            units_done_delta: delta,
            elapsed: SimDuration::from_secs(1),
            active_units: 1,
            last_applied_seq: 0,
            epoch: 0,
            sent_to: Vec::new(),
            received_from: Vec::new(),
            move_cost_sample: None,
            interaction_cost_sample: None,
        }))
    }

    /// A stub slave's send, with the model's wire size.
    async fn send(ctx: &MailCtx<Msg>, to: ActorId, msg: Msg) {
        let bytes = msg.wire_bytes();
        ctx.send(to, msg, bytes).await;
    }

    /// The destination and the kind of every send in `fx`, which is left
    /// empty.
    fn sends(fx: &mut Effects) -> Vec<(usize, String)> {
        let kind = |m: &Msg| {
            format!("{m:?}")
                .split([' ', '(', '{'])
                .next()
                .unwrap()
                .to_string()
        };
        let sent = fx.drain().filter_map(|e| match e {
            Effect::Send(to, m, _) => Some((to.0, kind(&m))),
            _ => None,
        });
        sent.collect()
    }

    /// The fault-mode master is a step function: a re-scatter run over two
    /// slots, driven by hand from its opening moves to the gathered result
    /// with no simulator at all. Untraced, no step builds a note; traced,
    /// the gather's note is among the effects.
    #[test]
    fn a_reign_steps_without_a_simulator_and_builds_no_untraced_note() {
        let pairs = |v: &[(usize, &str)]| -> Vec<(usize, String)> {
            v.iter().map(|&(to, k)| (to, k.to_string())).collect()
        };
        for traced in [false, true] {
            NOTES_BUILT.with(|n| n.set(0));
            let app = AppSpec::Independent(Arc::new(Doubler { n: 4, reps: 1 }));
            let kit = kit(
                app,
                ActorId(0),
                vec![ActorId(1), ActorId(2)],
                vec![(0, 2), (2, 4)],
            );
            let mut fx = blank(traced);
            let (mut m, end) = Master::new(&kit, Default::default(), None, &mut fx);
            assert!(end.is_none());
            let opening = [(1, "Start"), (2, "Start")];
            let release = [(1, "InvocationStart"), (2, "InvocationStart")];
            assert_eq!(sends(&mut fx), pairs(&[opening, release].concat()));
            let mut step = |input: Input, at: u64| {
                fx.at(SimTime(at));
                let end = m.on(input, &mut fx);
                (end, sends(&mut fx))
            };
            let done = |me, owned| Input::Deliver(done(me, 0, 0, 0, owned));
            assert_eq!(step(done(0, vec![0, 1]), 100_000), (None, vec![]));
            assert_eq!(step(Input::Tick, 200_000), (None, vec![]));
            let gather = pairs(&[(1, "Gather"), (2, "Gather")]);
            assert_eq!(step(done(1, vec![2, 3]), 300_000), (None, gather));
            let units = |ids: Range<usize>| ids.map(col).collect();
            let delivery = |me, ids| Input::Deliver(data(me, units(ids), Default::default()));
            let ack = |to| pairs(&[(to, "GatherAck")]);
            assert_eq!(step(delivery(0, 0..2), 400_000), (None, ack(1)));
            assert_eq!(step(delivery(1, 2..4), 500_000), (Some(Ok(())), ack(2)));
            let (_, outcome) = m.finish();
            assert_eq!(outcome.result.len(), 4);
            assert_eq!(NOTES_BUILT.with(Cell::get) > 0, traced, "traced {traced}");
        }
    }

    /// A plain run of `Doubler`'s four units on two slots, stepped by hand
    /// with no simulator: `inputs` in turn, after each slot reported two
    /// units done when `settle` (so one done report each then passes
    /// invocation 0 and opens the gather). The last step's end.
    fn plain_run(settle: bool, inputs: Vec<Input>) -> Option<Result<(), ProtocolError>> {
        let app = AppSpec::Independent(Arc::new(Doubler { n: 4, reps: 1 }));
        let kit = kit(
            app,
            ActorId(0),
            vec![ActorId(1), ActorId(2)],
            vec![(0, 2), (2, 4)],
        );
        let mut fx = blank(false);
        let (mut plain, end) = Plain::new(&kit, &mut fx);
        let opening = ["Start", "Start", "InvocationStart", "InvocationStart"];
        assert_eq!(
            sends(&mut fx).iter().map(|(_, k)| k).collect::<Vec<_>>(),
            opening
        );
        assert_eq!(end, None);
        let settled = [status(0, 0, 1, 2), status(1, 0, 1, 2)];
        let inputs = settle
            .then_some(settled)
            .into_iter()
            .flatten()
            .chain(inputs);
        let mut end = None;
        for input in inputs {
            assert_eq!(end, None, "the run ended before {input:?}");
            fx.drain();
            end = plain.on(input, &mut fx);
        }
        end
    }

    /// The error a plain run of `inputs` ends in.
    fn plain_error(settle: bool, inputs: Vec<Input>) -> ProtocolError {
        match plain_run(settle, inputs) {
            Some(Err(e)) => e,
            end => panic!("ended {end:?}, not in an error"),
        }
    }

    /// Deliver `msg`.
    fn deliver(msg: Msg) -> Input {
        Input::Deliver(msg)
    }

    /// The plain control completes by hand: both slots settle invocation 0,
    /// a final status races the gather, and the second delivery ends it.
    #[test]
    fn a_plain_run_steps_to_its_gathered_result() {
        let units = |ids: Range<usize>| ids.map(col).collect();
        let gathered = vec![
            deliver(done(0, 0, 0, 0, Vec::new())),
            deliver(done(1, 0, 0, 0, Vec::new())),
            status(0, 0, 2, 0),
            deliver(data(0, units(0..2), Default::default())),
            deliver(data(1, units(2..4), Default::default())),
        ];
        assert_eq!(plain_run(true, gathered), Some(Ok(())));
    }

    /// Each typed error of the plain control, settling and gathering.
    #[test]
    fn the_plain_control_ends_each_violation_in_its_typed_error() {
        let unexpected = |e: ProtocolError| match e {
            ProtocolError::UnexpectedMessage { context, .. } => context,
            e => panic!("{e:?} is no UnexpectedMessage"),
        };
        let inconsistent = |e: ProtocolError| match e {
            ProtocolError::Inconsistent { detail } => detail,
            e => panic!("{e:?} is no Inconsistent"),
        };
        let future = plain_error(false, vec![status(0, 1, 1, 1)]);
        assert_eq!(unexpected(future), "status from the future");
        let early = plain_error(false, vec![deliver(done(0, 1, 0, 0, Vec::new()))]);
        assert_eq!(inconsistent(early), "InvocationDone for 1 while settling 0");
        // Slot 1's status delivered twice: six units done of four.
        let twice = vec![
            status(1, 0, 1, 2),
            deliver(done(0, 0, 0, 0, Vec::new())),
            deliver(done(1, 0, 0, 0, Vec::new())),
        ];
        let detail = inconsistent(plain_error(true, twice));
        assert_eq!(detail, "invocation 0: 6 units completed, expected 4");
        let stray = plain_error(false, vec![deliver(Msg::Gather)]);
        assert_eq!(unexpected(stray), "invocation loop");
        let gathering = || {
            vec![
                deliver(done(0, 0, 0, 0, Vec::new())),
                deliver(done(1, 0, 0, 0, Vec::new())),
            ]
        };
        let stray = [gathering(), vec![deliver(Msg::GatherAck)]].concat();
        assert_eq!(unexpected(plain_error(true, stray)), "gather");
        let error = ProtocolError::AllSlavesDead;
        let failed = deliver(Msg::SlaveError { slave: 1, error });
        let expect = ProtocolError::SlaveFailed {
            slave: 1,
            error: Box::new(ProtocolError::AllSlavesDead),
        };
        let settling = plain_error(false, vec![failed.clone()]);
        assert_eq!(settling, expect, "settling");
        let gathering = plain_error(true, [gathering(), vec![failed]].concat());
        assert_eq!(gathering, expect, "gathering");
    }

    /// A plain run replays without a simulator: `try_run` runs each
    /// in-crate kernel — `Doubler` (independent) and `Cols` (shrinking) —
    /// on real slaves under the production shell, one slave five times
    /// slower than the other so that the balancer moves work (both are
    /// slow nodes: a rate is sampled only over 100 ms of work, more than
    /// `Cols` does on a reference node); the logged deliveries, replayed
    /// through a fresh `Plain`, make every step's logged effects.
    #[test]
    fn a_plain_run_replays_step_by_step() {
        use crate::driver::{try_run, RunConfig};
        use dlb_compiler::{compile, programs};
        let runs = [
            (
                AppSpec::Independent(Arc::new(Doubler { n: 24, reps: 3 })),
                programs::matmul(24, 3),
            ),
            (AppSpec::Shrinking(Arc::new(Cols)), programs::lu(4)),
        ];
        for (app, program) in runs {
            let plan = compile(&program).unwrap();
            let mut cfg = RunConfig::homogeneous(2);
            cfg.slave_nodes[0].speed = 0.1;
            cfg.slave_nodes[1].speed = 0.02;
            cfg.record_timeline = true;
            let (report, log) = recorded(|| try_run(app, &plan, cfg));
            let report = report.expect("the run completes");
            assert!(report.stats.moves_issued > 0, "{}", plan.program);
            let kit = log.kit.as_ref().expect("a logged plain run");
            assert!(kit.ft.is_none() && !log.steps.is_empty());
            replay(&log, Plain::new);
        }
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

    /// The seed of deputy 0 of `n` slots, elected in term 1 at invocation
    /// `invocation`, all slots alive in its view, which held `holding`.
    fn seed(n: usize, invocation: u64, holding: &Holding) -> TakeoverSeed {
        TakeoverSeed {
            term: 1,
            last_heard: SimTime::ZERO,
            dead: vec![false; n],
            epoch: 1,
            invocation,
            held: fragments(holding),
        }
    }

    /// The seed of a deputy of two slots that held no state.
    fn empty_seed() -> TakeoverSeed {
        seed(2, 0, &[])
    }

    /// Slot `me`'s answer to a `Promoted`, its first life at `invocation`:
    /// what it held.
    fn held(me: usize, invocation: u64, holding: &Holding) -> Msg {
        Msg::Failover(FailoverMsg::Held {
            slave: me,
            incarnation: 0,
            invocation,
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

    /// What the shell saw of one run: the kit it ran (its balancer as
    /// built), the effect buffer it opened with, the opening's effects, and
    /// each step's input, the clock it started at and its effects.
    #[derive(Default)]
    struct Log {
        kit: Option<TakeoverKit>,
        blank: Option<Effects>,
        opening: String,
        steps: Vec<(Input, SimTime, String)>,
    }

    impl Log {
        /// The shell opened a control of `kit` at `now`, into `fx`.
        fn open(&mut self, kit: &TakeoverKit, now: SimTime, fx: &Effects) {
            assert!(self.kit.is_none(), "one shell per recorded run");
            // The counters a takeover opens with, in a slot of its own.
            let recovery = kit.slot().recovery.clone();
            let outcome = MasterOutcome {
                recovery,
                ..Default::default()
            };
            self.kit = Some(TakeoverKit {
                balancer: kit.balancer.clone(),
                app: kit.app.clone(),
                ft: kit.ft.clone(),
                slaves: kit.slaves.clone(),
                assignment: kit.assignment.clone(),
                outcome: Rc::new(RefCell::new(outcome)),
                ..*kit
            });
            let mut blank = fx.clone();
            blank.drain();
            blank.at(now);
            (self.blank, self.opening) = (Some(blank), format!("{fx:?}"));
        }

        /// A step took `input` at `now` and left `fx`.
        fn step(&mut self, (input, now): (Input, SimTime), fx: &Effects) {
            self.steps.push((input, now, format!("{fx:?}")));
        }
    }

    /// A control under the log: the shell of a test build runs each
    /// control so, and its opening and every step's input, clock and
    /// effects go into this thread's log while a test keeps one.
    pub(super) struct Logged<C>(C);

    /// `open`, the shell's opener over `kit` at `now`, under the log.
    pub(super) fn logged<'k, C: Control>(
        open: impl FnOnce(&mut Effects) -> (C, Option<Result<(), ProtocolError>>) + 'k,
        kit: &'k TakeoverKit,
        now: SimTime,
    ) -> impl FnOnce(&mut Effects) -> (Logged<C>, Option<Result<(), ProtocolError>>) + 'k {
        move |fx| {
            let (control, end) = open(fx);
            record(|log| log.open(kit, now, fx));
            (Logged(control), end)
        }
    }

    impl<C: Control> Control for Logged<C> {
        const TICK: Option<SimDuration> = C::TICK;

        fn step(&mut self, input: Input, fx: &mut Effects) -> Result<bool, ProtocolError> {
            let logged = (input.clone(), fx.now());
            let step = self.0.step(input, fx);
            record(|log| log.step(logged, fx));
            step
        }

        fn finish(self) -> (Balancer, MasterOutcome) {
            self.0.finish()
        }
    }

    thread_local! {
        /// The shell's log of the run on this thread, while a test keeps one.
        static RECORDED: RefCell<Option<Log>> = const { RefCell::new(None) };
    }

    /// Write `write` into this thread's log, if a test keeps one.
    fn record(write: impl FnOnce(&mut Log)) {
        RECORDED.with_borrow_mut(|log| log.as_mut().map(write));
    }

    /// Run `run` with the shell logging: its result, and what it logged.
    fn recorded<T>(run: impl FnOnce() -> T) -> (T, Log) {
        RECORDED.set(Some(Log::default()));
        let out = run();
        (out, RECORDED.take().expect("a log"))
    }

    /// Feed a logged run's inputs to a fresh control that `open` opens on
    /// the logged kit: every step's effects are the logged ones.
    fn replay<'k, C: Control>(
        log: &'k Log,
        open: impl FnOnce(&'k TakeoverKit, &mut Effects) -> (C, Option<Result<(), ProtocolError>>),
    ) {
        let mut fx = log.blank.clone().expect("a recorded run");
        let (mut control, _) = open(log.kit.as_ref().unwrap(), &mut fx);
        assert_eq!(format!("{fx:?}"), log.opening, "the opening moves");
        for (i, (input, now, effects)) in log.steps.iter().enumerate() {
            fx.drain();
            fx.at(*now);
            control.on(input.clone(), &mut fx);
            assert_eq!(&format!("{fx:?}"), effects, "step {i}: {input:?}");
        }
    }

    /// A fault-mode reign under `tol` over a four-unit `app` on two slots
    /// split as `assignment`, actor 0 its master. Each slot that holds
    /// units runs `stub(ctx, slot)` — slot 1 as actor 1, slot 0 as actor 2
    /// — unless it is the winner of a takeover from `seed`. A master that
    /// never ends the run exhausts the event budget. The master runs under
    /// the production shell, and its logged inputs replay to the same
    /// effects.
    fn reign<F, Fut>(
        tol: FaultToleranceConfig,
        app: AppSpec,
        seed: Option<TakeoverSeed>,
        assignment: [(usize, usize); 2],
        stub: F,
    ) -> MasterOutcome
    where
        F: Fn(MailCtx<Msg>, usize) -> Fut + Clone + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let master = ActorId(0);
        let slot0 = if seed.is_some() { master } else { ActorId(2) };
        let (slaves, (lo, hi)) = (vec![slot0, ActorId(1)], assignment[0]);
        let assignment = assignment.to_vec();
        let mut kit = kit(app, ActorId(2), slaves, assignment);
        kit.ft = Some(tol.clone());
        let (kit, takeover) = (Rc::new(kit), seed.clone().map(|seed| (seed, 0)));
        let outcome = Rc::clone(&kit.outcome);
        let mut sim = SimBuilder::<Msg>::new().max_events(20_000);
        let nodes = [(); 3].map(|()| sim.add_node(NodeConfig::default()));
        let run_tol = tol.clone();
        sim.spawn_mail(nodes[0], "master", move |ctx| async move {
            match seed {
                Some(seed) => _ = run_takeover(&ctx, &kit, run_tol, seed, 0).await,
                None => run_master(ctx, kit).await,
            }
        });
        let stub0 = (slot0 != master && lo < hi).then(|| stub.clone());
        sim.spawn_mail(nodes[1], "stub1", move |ctx| stub(ctx, 1));
        sim.spawn_mail(nodes[2], "slot0", move |ctx| async move {
            match stub0 {
                Some(stub) => stub(ctx, 0).await,
                None => ctx.sleep(SimDuration::from_secs(3_600)).await,
            }
        });
        let (_, log) = recorded(|| sim.run());
        replay(&log, |kit, fx| Master::new(kit, tol, takeover, fx));
        outcome.take()
    }

    /// [`reign`] with slot 1 holding every unit in an original reign (slot
    /// 0 deferred), units 2 and 3 under a takeover. The stub answers each
    /// release with its done report, a `Promoted` with what it held
    /// (`holding`, at invocation 0), and the `Gather` with every unit, as
    /// its last `Rollback` shipped them (else `[u]`) — after a stray
    /// `MasterPing` when the message that asked matches `stray_on`. Returns
    /// the outcome and the invocations the stub was rolled back to.
    fn stray_run(
        app: AppSpec,
        seed: Option<TakeoverSeed>,
        stray_on: Trigger,
        holding: &Holding,
    ) -> (MasterOutcome, Vec<u64>) {
        let master = ActorId(0);
        let split = if seed.is_some() { (0, 2) } else { (0, 0) };
        let answer = held(1, 0, holding);
        let rolled = Rc::new(RefCell::new(Vec::new()));
        let log = Rc::clone(&rolled);
        let o = reign(
            Default::default(),
            app,
            seed,
            [split, (split.1, 4)],
            move |ctx, me| {
                let (answer, log) = (answer.clone(), Rc::clone(&log));
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
                                log.borrow_mut().push(invocation);
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
        );
        let rolled = rolled.take();
        (o, rolled)
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
                let (o, _) = stray_run(app(), None, stray_on, &[]);
                let Some(ProtocolError::UnexpectedMessage { context, .. }) = o.error else {
                    panic!("{policy} {phase}: {:?}", o.error);
                };
                assert_eq!(context, format!("{policy} {phase}"));
                let (o, _) = stray_run(app(), Some(empty_seed()), stray_on, &[]);
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
    /// own and slot 1's `Held` answer — complete a snapshot. Both hold 3:
    /// it restarts at 3. Slot 1 holds only 2: the newest complete snapshot
    /// is 2. Slot 1's fragment of 3 died with the master and no invocation
    /// is complete: the initial data. Each run ends bit for bit (`Cols`
    /// never computes, so every snapshot is also the sequential result).
    #[test]
    fn a_takeover_restarts_where_the_collected_fragments_complete_a_snapshot() {
        let cases: [(&Holding, &Holding, u64); 3] = [
            (&[(3, 0..2)], &[(3, 2..4)], 3),
            (&[(2, 0..2), (3, 0..2)], &[(2, 2..4)], 2),
            (&[(3, 0..2)], &[(2, 2..4)], 0),
        ];
        for (winner, slot1, restart) in cases {
            let app = AppSpec::Shrinking(Arc::new(Cols));
            let (o, rolled) = stray_run(app, Some(seed(2, 3, winner)), |_| false, slot1);
            assert!(o.completed, "{:?}", o.error);
            assert_eq!(rolled.first(), Some(&restart));
            let mut result = o.result;
            result.sort_by_key(|(id, _)| *id);
            assert_eq!(result, (0..4).map(col).collect::<Vec<_>>());
        }
    }

    /// A re-scatter takeover collects a `Held` from every survivor before it
    /// re-ranges anyone, and resumes at the newest invocation any answer
    /// names. The winner was at invocation 1; slot 1 answers, a second
    /// late, that it reached 2. Its one `Rollback` arrives after that
    /// answer, at invocation 2, every unit recomputed through the two
    /// invocations before it.
    #[test]
    fn a_rescatter_takeover_resumes_at_the_newest_invocation_any_held_names() {
        let heard = Rc::new(RefCell::new(Vec::new()));
        let log = Rc::clone(&heard);
        let app = AppSpec::Independent(Arc::new(Doubler { n: 4, reps: 3 }));
        let split = [(0, 2), (2, 4)];
        let o = reign(
            Default::default(),
            app,
            Some(seed(2, 1, &[])),
            split,
            move |ctx, me| {
                let log = Rc::clone(&log);
                async move {
                    let master = ActorId(0);
                    let (mut answered, mut epoch, mut restore_seq) = (None, 0, 0);
                    let mut mine: Vec<usize> = Vec::new();
                    let quiet = || ctx.now() + SimDuration::from_secs(10);
                    while let Some(env) = ctx.recv_deadline(quiet()).await {
                        let invocation = match env.msg {
                            Msg::Failover(FailoverMsg::Promoted { .. }) if answered.is_none() => {
                                ctx.sleep(SimDuration::from_secs(1)).await;
                                send(&ctx, master, held(me, 2, &[])).await;
                                answered = Some(ctx.now());
                                continue;
                            }
                            Msg::Rollback {
                                seq,
                                epoch: e,
                                invocation,
                                units,
                                ..
                            } => {
                                let later = answered.is_some_and(|t| ctx.now() > t);
                                let values: Vec<_> =
                                    units.iter().map(|(u, d)| (*u, d[0][0])).collect();
                                log.borrow_mut().push((later, invocation, values));
                                (epoch, restore_seq) = (e, seq);
                                mine = units.iter().map(|(u, _)| *u).collect();
                                invocation
                            }
                            Msg::InvocationStart { invocation } => invocation,
                            Msg::Gather => {
                                let units = mine.iter().map(|&u| col(u)).collect();
                                send(&ctx, master, data(me, units, Default::default())).await;
                                continue;
                            }
                            Msg::GatherAck | Msg::Abort => return,
                            _ => continue,
                        };
                        let done = done(me, invocation, epoch, restore_seq, mine.clone());
                        send(&ctx, master, done).await;
                    }
                }
            },
        );
        assert!(o.completed, "{:?}", o.error);
        let recomputed: Vec<_> = (0..4).map(|u| (u, 4.0 * u as f64)).collect();
        assert_eq!(*heard.borrow(), [(true, 2, recomputed)]);
    }

    /// Slot 1 of a re-scatter takeover pings once a second for twelve
    /// seconds: stamped 0 — the life a fresh table has on record — until it
    /// states life 1 in its `Held` six seconds in, and stamped `after` from
    /// then on. Returns when suspicion evicted it, which ends the run.
    fn pinging_run(after: u64) -> SimTime {
        let app = AppSpec::Independent(Arc::new(Doubler { n: 4, reps: 1 }));
        let split = [(0, 2), (2, 4)];
        let o = reign(
            Default::default(),
            app,
            Some(seed(2, 0, &[])),
            split,
            move |ctx, me| async move {
                let master = ActorId(0);
                let evicted = |m: &Msg| matches!(m, Msg::Evict | Msg::Abort);
                for t in 1..=12 {
                    while let Some(env) = ctx.recv_deadline(SimTime(t * 1_000_000)).await {
                        if evicted(&env.msg) {
                            return;
                        }
                    }
                    if t == 6 {
                        let life = FailoverMsg::Held {
                            slave: me,
                            incarnation: 1,
                            invocation: 0,
                            fragments: Vec::new(),
                        };
                        send(&ctx, master, Msg::Failover(life)).await;
                    }
                    let incarnation = if t < 6 { 0 } else { after };
                    send(
                        &ctx,
                        master,
                        Msg::Alive {
                            slave: me,
                            incarnation,
                        },
                    )
                    .await;
                }
                let verdict = || ctx.now() + SimDuration::from_secs(20);
                while let Some(env) = ctx.recv_deadline(verdict()).await {
                    if evicted(&env.msg) {
                        return;
                    }
                }
            },
        );
        assert!(
            matches!(o.error, Some(ProtocolError::AllSlavesDead)),
            "{:?}",
            o.error
        );
        o.recovery.first_death.expect("slot 1 evicted")
    }

    /// Collecting, nothing from a slot is credited before its `Held`
    /// states its life, and once stated, an older life is stale: suspicion
    /// runs from the takeover itself, and evicts the slot eight seconds in.
    /// The stated life's pings are credited: suspicion runs from the last
    /// of them, twelve seconds in.
    #[test]
    fn a_collecting_takeover_credits_no_life_before_its_held_states_one() {
        let stale = pinging_run(0);
        assert!(stale < SimTime(9_000_000), "{stale:?}");
        let current = pinging_run(1);
        assert!(current > SimTime(20_000_000), "{current:?}");
    }

    /// The gather row's repair of a lost final `Rollback`. The winner and
    /// slot 1 hold the end state's fragments, so the takeover's `Rollback`
    /// to slot 1 lands the run in the gather at once. The stub loses that
    /// `Rollback` and answers the `Gather` from the partition it held
    /// before, units 2 and 3; the replayed `Rollback` lands on a slave at
    /// the final snapshot, which reaches no barrier to acknowledge it from
    /// and delivers at once. With `heartbeat`, the stub also re-sends its
    /// stale barrier checkpoint every half second until the replay
    /// arrives. Returns the outcome and the kinds the stub heard,
    /// `Promoted` (answered with `Held`) left out.
    fn lost_final_rollback(heartbeat: bool) -> (MasterOutcome, Vec<&'static str>) {
        let heard = Rc::new(RefCell::new(Vec::new()));
        let log = Rc::clone(&heard);
        let app = AppSpec::Shrinking(Arc::new(Cols));
        let split = [(0, 2), (2, 4)];
        let o = reign(
            Default::default(),
            app,
            Some(seed(2, 3, &[(3, 0..2)])),
            split,
            move |ctx, me| {
                let (master, log) = (ActorId(0), Rc::clone(&log));
                async move {
                    let (mut lost, mut rolled) = (false, false);
                    let beat = SimDuration::from_millis(if heartbeat { 500 } else { 3_600_000 });
                    loop {
                        let Some(env) = ctx.recv_deadline(ctx.now() + beat).await else {
                            if lost && !rolled {
                                let (invocation, units) = fragments(&[(2, 2..4)]).remove(0);
                                let stale = Msg::Checkpoint {
                                    slave: me,
                                    invocation,
                                    units,
                                };
                                send(&ctx, master, stale).await;
                            }
                            continue;
                        };
                        let reply = match env.msg {
                            Msg::Rollback { .. } if !lost => {
                                lost = true;
                                log.borrow_mut().push("lost rollback");
                                continue;
                            }
                            Msg::Rollback { units, .. } => {
                                rolled = true;
                                log.borrow_mut().push("rollback");
                                units.into_iter().map(|(u, d)| (u, (*d).clone())).collect()
                            }
                            Msg::Gather => {
                                log.borrow_mut().push("gather");
                                vec![col(2), col(3)]
                            }
                            Msg::GatherAck => return log.borrow_mut().push("ack"),
                            Msg::Failover(FailoverMsg::Promoted { .. }) => {
                                send(&ctx, master, held(me, 3, &[(3, 2..4)])).await;
                                continue;
                            }
                            _ => continue,
                        };
                        send(&ctx, master, data(me, reply, Default::default())).await;
                    }
                }
            },
        );
        let heard = heard.take();
        (o, heard)
    }

    /// Under rollback a slave that delivered from a window it never
    /// acknowledged still owes the gather: the sweep replays its window
    /// (one `restore_resends`) instead of waiting for units nobody holds.
    #[test]
    fn a_delivery_from_an_unacknowledged_window_still_owes_its_window() {
        let (o, heard) = lost_final_rollback(false);
        assert_eq!(heard, ["lost rollback", "gather", "rollback", "ack"]);
        assert_eq!(o.recovery.restore_resends, 1);
    }

    /// A checkpoint carries no epoch: the stale one a slave heartbeats
    /// from the barrier its lost `Rollback` left it at proves it alive, not
    /// unstuck, and does not starve the window replay.
    #[test]
    fn a_stale_checkpoint_heartbeat_does_not_starve_the_window_replay() {
        let (o, heard) = lost_final_rollback(true);
        assert!(o.completed, "{:?}", o.error);
        assert_eq!(heard, ["lost rollback", "gather", "rollback", "ack"]);
        assert_eq!(o.recovery.restore_resends, 1);
    }

    /// The re-delivery after the replayed `Rollback` is a repeat from the
    /// same slot, and it completes the gather with the units the first one
    /// lacked: the whole end state, bit for bit.
    #[test]
    fn the_re_delivery_after_the_replayed_rollback_completes_the_gather() {
        let (o, _) = lost_final_rollback(false);
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
        let acks = Rc::new(RefCell::new(0));
        let count = Rc::clone(&acks);
        let app = AppSpec::Independent(Arc::new(Doubler { n: 4, reps: 1 }));
        let o = reign(
            Default::default(),
            app,
            None,
            [(0, 2), (2, 4)],
            move |ctx, me| {
                let count = Rc::clone(&count);
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
                                *count.borrow_mut() += 1;
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
        assert_eq!(*acks.borrow(), 2, "each delivery acked at once");
        assert_eq!(o.recovery.gather_dups_ignored, 1);
        assert_eq!(o.recovery.transfer_resends, 2, "once per slot");
        assert_eq!(o.result.len(), 4);
    }

    /// A re-scatter reign rescues a wedged slave as a rollback reign does:
    /// slot 1 answers the first release with a `Timeout`, its window
    /// acknowledged, and both slots are re-ranged at invocation 0 and run on
    /// to the gathered result.
    #[test]
    fn a_rescatter_reign_rescues_a_wedged_slave() {
        let rolled = Rc::new(RefCell::new(Vec::new()));
        let log = Rc::clone(&rolled);
        let app = AppSpec::Independent(Arc::new(Doubler { n: 4, reps: 2 }));
        let o = reign(
            Default::default(),
            app,
            None,
            [(0, 2), (2, 4)],
            move |ctx, me| {
                let log = Rc::clone(&log);
                async move {
                    let master = ActorId(0);
                    let (mut epoch, mut restore_seq, mut wedged) = (0, 0, me == 1);
                    let mut mine: Vec<usize> = (2 * me..2 * me + 2).collect();
                    let quiet = || ctx.now() + SimDuration::from_secs(10);
                    while let Some(env) = ctx.recv_deadline(quiet()).await {
                        let invocation = match env.msg {
                            Msg::InvocationStart { .. } if std::mem::take(&mut wedged) => {
                                let error = ProtocolError::Timeout {
                                    who: format!("slave {me}"),
                                    waiting_for: "a peer",
                                    at: ctx.now(),
                                };
                                send(&ctx, master, Msg::SlaveError { slave: me, error }).await;
                                continue;
                            }
                            Msg::InvocationStart { invocation } => invocation,
                            Msg::Rollback {
                                seq,
                                epoch: e,
                                invocation,
                                units,
                                ..
                            } => {
                                log.borrow_mut().push((me, invocation));
                                (epoch, restore_seq) = (e, seq);
                                mine = units.iter().map(|(u, _)| *u).collect();
                                invocation
                            }
                            Msg::Gather => {
                                let units = mine.iter().map(|&u| col(u)).collect();
                                send(&ctx, master, data(me, units, Default::default())).await;
                                continue;
                            }
                            Msg::GatherAck | Msg::Abort => return,
                            _ => continue,
                        };
                        let done = done(me, invocation, epoch, restore_seq, mine.clone());
                        send(&ctx, master, done).await;
                    }
                }
            },
        );
        assert!(o.completed, "{:?}", o.error);
        assert_eq!(o.recovery.rollbacks, 1);
        assert_eq!(o.recovery.slaves_declared_dead, 0);
        let mut rolled = rolled.take();
        rolled.sort();
        assert_eq!(rolled, [(0, 0), (1, 0)]);
        assert_eq!(o.result.len(), 4);
    }

    /// Slot `me`'s report that it wedged waiting on a peer.
    fn wedged(me: usize, at: u64) -> Input {
        let error = ProtocolError::Timeout {
            who: format!("slave {me}"),
            waiting_for: "a peer",
            at: SimTime(at),
        };
        Input::Deliver(Msg::SlaveError { slave: me, error })
    }

    /// A wedge is rescued while the slot's window still holds what
    /// re-scatter's recovery sent it — a race's `Speculate` and an
    /// eviction's `Restore`, both dropped unapplied by a wedged slave — as
    /// long as no `Rollback` is among them. Slot 1 never speaks and is
    /// evicted; slot 0, idle, is sent both and wedges.
    #[test]
    fn a_wedge_with_a_restore_unacknowledged_is_rescued() {
        let app = AppSpec::Independent(Arc::new(Doubler { n: 4, reps: 2 }));
        let kit = kit(
            app,
            ActorId(0),
            vec![ActorId(1), ActorId(2)],
            vec![(0, 2), (2, 4)],
        );
        let mut fx = blank(false);
        let (mut m, _) = Master::new(&kit, Default::default(), None, &mut fx);
        let mut step = |m: &mut Master, input: Input, at: u64| {
            fx.drain();
            fx.at(SimTime(at));
            let end = m.on(input, &mut fx);
            (end, sends(&mut fx))
        };
        let sent = |to: usize, kind: &str| (to, kind.to_string());
        let idle = Input::Deliver(done(0, 0, 0, 0, vec![0, 1]));
        step(&mut m, idle, 100_000);
        let (_, raced) = step(&mut m, Input::Tick, 4_050_000);
        assert!(raced.contains(&sent(1, "Speculate")), "{raced:?}");
        let (_, evicted) = step(&mut m, Input::Tick, 8_050_000);
        assert!(evicted.contains(&sent(1, "Evicted")), "{evicted:?}");
        let report = Msg::OwnReport {
            slave: 0,
            about: 1,
            ids: vec![0, 1],
        };
        let (_, restored) = step(&mut m, Input::Deliver(report), 8_060_000);
        assert!(restored.contains(&sent(1, "Restore")), "{restored:?}");
        let kinds = |m: &Master| -> Vec<String> {
            let kind = |(_, msg): &(u64, Msg)| format!("{msg:?}");
            let kinds = m.st.win[0].unacked().map(kind);
            kinds
                .map(|k| k.split(' ').next().unwrap().to_string())
                .collect()
        };
        assert_eq!(kinds(&m), ["Speculate", "Restore"]);
        let (end, rescued) = step(&mut m, wedged(0, 8_070_000), 8_070_000);
        assert_eq!((end, rescued), (None, vec![sent(1, "Rollback")]));
        assert_eq!(m.st.rec.rollbacks, 1);
        // A second report of the same wedge predates the re-range in flight.
        let (_, again) = step(&mut m, wedged(0, 8_080_000), 8_080_000);
        assert_eq!(again, []);
        assert_eq!(m.st.rec.rollbacks, 1);
    }

    /// Up to three invocations of `Doubler`'s doubling over four units,
    /// converged after the first.
    struct Converges;

    impl IndependentKernel for Converges {
        fn n_units(&self) -> usize {
            4
        }
        fn invocations(&self) -> u64 {
            3
        }
        fn init_unit(&self, idx: usize) -> UnitData {
            vec![vec![idx as f64]]
        }
        fn compute(&self, _idx: usize, unit: &mut UnitData, _invocation: u64) {
            unit[0][0] *= 2.0;
        }
        fn unit_cost(&self) -> CpuWork {
            CpuWork::from_millis(10)
        }
        fn converged(&self, _invocation: u64, _metric: f64) -> bool {
            true
        }
    }

    /// A member that wedges in the gather of a converged run is absorbed as
    /// re-scatter absorbs a death there: no re-range releases the converged
    /// invocation again, and the safety net recomputes, through the one
    /// invocation the run executed, what the slot never delivered.
    #[test]
    fn a_wedge_in_a_converged_gather_leaves_the_result_alone() {
        let app = AppSpec::Independent(Arc::new(Converges));
        let kit = kit(
            app,
            ActorId(0),
            vec![ActorId(1), ActorId(2)],
            vec![(0, 2), (2, 4)],
        );
        let mut fx = blank(false);
        let (mut m, _) = Master::new(&kit, Default::default(), None, &mut fx);
        let mut step = |input: Input, at: u64| {
            fx.drain();
            fx.at(SimTime(at));
            let end = m.on(input, &mut fx);
            (end, sends(&mut fx))
        };
        let sent = |to: usize, kind: &str| (to, kind.to_string());
        let done = |me, owned| Input::Deliver(done(me, 0, 0, 0, owned));
        step(done(0, vec![0, 1]), 100_000);
        let gather = vec![sent(1, "Gather"), sent(2, "Gather")];
        assert_eq!(step(done(1, vec![2, 3]), 200_000), (None, gather));
        let once = |u: usize| (u, vec![vec![2.0 * u as f64]]);
        let delivery = Input::Deliver(data(0, vec![once(0), once(1)], Default::default()));
        assert_eq!(step(delivery, 300_000), (None, vec![sent(1, "GatherAck")]));
        let end = step(wedged(1, 400_000), 400_000);
        assert_eq!(end, (Some(Ok(())), vec![sent(2, "Evict")]));
        let (_, o) = m.finish();
        assert_eq!(o.result, (0..4).map(once).collect::<Vec<_>>());
        assert_eq!(o.recovery.rollbacks, 0);
        assert_eq!(o.recovery.gathers_interrupted, 1);
        assert_eq!(o.recovery.units_recomputed, 2);
    }

    /// A re-scatter run over slots that each compute their half and
    /// deliver it, rejoin enabled. Slot 1 reports at once and, three
    /// seconds later (its nudge interval past, slot 0 not yet reported), sends
    /// a `Join` stamped `join` when that is given. Returns the outcome and
    /// the kinds slot 1 heard.
    fn joining_run(join: Option<u64>) -> (MasterOutcome, Vec<&'static str>) {
        let heard = Rc::new(RefCell::new(Vec::new()));
        let log = Rc::clone(&heard);
        let tol = FaultToleranceConfig {
            rejoin_attempts: 3,
            ..Default::default()
        };
        let app = AppSpec::Independent(Arc::new(Doubler { n: 4, reps: 1 }));
        let o = reign(tol, app, None, [(0, 2), (2, 4)], move |ctx, me| {
            let log = Rc::clone(&log);
            async move {
                let (master, mine) = (ActorId(0), 2 * me..2 * me + 2);
                let quiet = || ctx.now() + SimDuration::from_secs(10);
                while let Some(env) = ctx.recv_deadline(quiet()).await {
                    if me == 1 {
                        log.borrow_mut().push(match &env.msg {
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
        let heard = heard.take();
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
