//! The strategy interface between the slave runner
//! ([`crate::session::slave`]) and the per-dependence-structure engines.
//!
//! The runner owns everything that keeps a slave *alive* — the restart
//! loop, the first-release wait, the barrier protocol, barrier checkpoints,
//! speculation, rescue wait, gather reply. A [`DistributionStrategy`]
//! supplies only what differs between dependence structures (§4.5,
//! Table 2): how an invocation is computed, how mid-protocol transfers and
//! movement orders integrate, what a snapshot looks like (if the pattern
//! has one), and how to resume from a rollback. Where the independent
//! pattern deliberately departs from the two checkpointed ones, the
//! departure is a method here with the checkpointed behaviour as its
//! default; the runner's module doc lists them in one table.

use crate::error::ProtocolError;
use crate::msg::{Msg, SharedUnits, UnitData};
use crate::slave_common::{RollbackInfo, SlaveCommon};
use dlb_sim::MailCtx;

/// What a strategy did with a message it was offered while parked (see
/// [`DistributionStrategy::on_barrier_msg`]).
pub enum BarrierMsg {
    /// Not this strategy's: the runner applies its own arm (and reports a
    /// message it has none for as a protocol violation).
    Pass(Msg),
    /// Handled; nothing the master tracks changed.
    Consumed,
    /// Handled, and ownership, watermarks or the master-channel ack moved:
    /// the runner refreshes the done report (and the barrier checkpoint)
    /// so the master's settlement can observe it.
    Refresh,
}

/// One distribution pattern (independent units, pipelined sweeps, shrinking
/// steps) plugged into the slave runner.
///
/// Invariants the runner relies on:
///
/// * [`run_invocation`](DistributionStrategy::run_invocation) leaves the
///   strategy at the barrier of `inv`: all local work done, final hook
///   fired, pending movement executed, evictions settled. A
///   [`BarrierMsg::Refresh`] promises the same.
/// * [`checkpoint_units`](DistributionStrategy::checkpoint_units), when the
///   pattern [has one](DistributionStrategy::SNAPSHOTS), is the state from
///   which invocation `inv + 1` starts — value-deterministic, so snapshots
///   bank across epochs.
/// * [`speculate`](DistributionStrategy::speculate) is a *pure* function of
///   its units argument: it must not read or write the live units, move
///   work, or message peers — it races one invocation on one idle slave.
#[allow(async_fn_in_trait)] // used generically within the crate; Send is checked at spawn
pub trait DistributionStrategy {
    /// Whether this pattern ships barrier snapshots. `false`: it recovers
    /// by re-scatter, so no checkpoint is ever shipped and nothing is held
    /// for a takeover to collect. A constant of the pattern, so the runner
    /// knows before the first barrier whether a `Promoted` is owed an
    /// answer.
    const SNAPSHOTS: bool = true;

    /// Upper bound on the invocations (repetitions, sweeps, steps) the run
    /// executes.
    fn invocations(&self) -> u64;

    /// Wait context for the initial barrier release (timeout diagnostics).
    fn first_release_context(&self) -> &'static str;

    /// Wait context for the per-invocation barrier (timeout diagnostics).
    fn barrier_context(&self) -> &'static str;

    /// Compute invocation `inv` end to end: the loop body, the final
    /// transfer drain, the unconditional end-of-invocation hook firing,
    /// and any movement it ordered.
    async fn run_invocation(
        &mut self,
        ctx: &MailCtx<Msg>,
        common: &mut SlaveCommon,
        inv: u64,
    ) -> Result<(), ProtocolError>;

    /// First refusal on a message that arrived while parked at the barrier
    /// of `inv`. Transfers
    /// go through the shared dedup/epoch fences
    /// ([`SlaveCommon::accept_transfer`]), movement orders through
    /// [`SlaveCommon::instructions_out_of_band`] — the master cannot settle
    /// until their transfers are acknowledged, so executing them here is
    /// always safe, and the fences keep a duplicated delivery from
    /// double-executing them — followed by whatever the pattern needs
    /// (catch-up computation, hook firing, counter moves).
    async fn on_barrier_msg(
        &mut self,
        ctx: &MailCtx<Msg>,
        common: &mut SlaveCommon,
        inv: u64,
        msg: Msg,
    ) -> Result<BarrierMsg, ProtocolError>;

    /// This slave's part of `InvocationDone`: the unit ids it owns, and its
    /// share of the reduction the master's WHILE test reads (§4.1) — zero
    /// for a pattern that runs a fixed number of invocations.
    fn report(&self) -> (Vec<usize>, f64);

    /// May the master end the run at the barrier of `inv`? By default only
    /// at the last one: a `Gather` anywhere else is a stray from an earlier
    /// reign, and `GatherData` carries no epoch that could fence the reply.
    fn may_end_after(&self, inv: u64) -> bool {
        inv + 1 == self.invocations()
    }

    /// Snapshot of the local state at the current barrier — the state from
    /// which the next invocation starts: the one copy of the live state the
    /// runner takes per barrier state (re-sends share it). Never called
    /// when the pattern has no [`SNAPSHOTS`](DistributionStrategy::SNAPSHOTS).
    fn checkpoint_units(&self) -> SharedUnits;

    /// The final result payload. May fail when local state is torn (e.g.
    /// columns still set aside) — the runner then reports and parks for
    /// rescue like any other recoverable error.
    fn gather_units(&self) -> Result<Vec<(usize, UnitData)>, ProtocolError>;

    /// Adopt a rollback: rebuild engine state from the re-partitioned
    /// snapshot and the survivor list. The runner has already fenced the
    /// channels and rebased the epoch; this only installs the engine's own
    /// state. Returns the invocation to resume from.
    fn restore(&mut self, common: &mut SlaveCommon, rb: RollbackInfo)
        -> Result<u64, ProtocolError>;

    /// Race a silent suspect on the master's behalf (a `Speculate`, already
    /// deduplicated) while parked at the barrier of `inv`: return `units`
    /// as they stand after invocation `invocation`, for the runner to ship
    /// as a checkpoint for `invocation + 1`. A checkpointed pattern is
    /// handed the full-grid snapshot at `invocation` and advances it by one
    /// invocation; the independent one is handed the suspect's units as
    /// initial data and computes them through `invocation`. Either way
    /// sequentially and without communication. A checkpointed pattern
    /// charges the CPU directly ([`MailCtx::advance_work`]), so the raced
    /// work never distorts this slave's measured work rate; the independent
    /// one computes and hooks as for its own units, heartbeating the master
    /// through a long race.
    async fn speculate(
        &mut self,
        ctx: &MailCtx<Msg>,
        common: &mut SlaveCommon,
        inv: u64,
        invocation: u64,
        units: SharedUnits,
    ) -> Result<SharedUnits, ProtocolError>;
}
