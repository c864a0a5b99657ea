//! Model-checkable abstractions of the session kernel's reliable-delivery
//! and coordination sub-protocols, all four over one lossy network
//! ([`dlb_sim::lossy`]): master→survivor restore scatter
//! ([`RestoreModel`]), slave↔slave work migration ([`TransferModel`]), the
//! deputy election that replaces a crashed master ([`ElectionModel`]), and
//! the mid-run join/rejoin handshake ([`JoinModel`]).
//!
//! Each model steps the production type its runtime protocol runs on,
//! wrapped in an abstracted master/slaves/network system that
//! `dlb-analyze` exhaustively explores: the restore and transfer models the
//! [`SenderWindow`] / [`AckTracker`] / [`TransferWindow`] rules of
//! [`crate::protocol`] (for lost work, duplicate application, and
//! deadlock), the election model the deputies' [`Ballot`] (one vote per
//! term, the newest-replica freshness guard, majority quorum over the full
//! deputy set; no term may promote two masters) and, for a winner's restart
//! point, the master's `CheckpointBank`; the join model steps the verdict
//! every admission and liveness decision of the fault-mode master reads
//! (`crate::session::membership::Life`: which life of a slot a stamped
//! `Alive` or `Join` speaks for). Each model also ships deliberately broken
//! variants (acknowledge without dedup; a voter that
//! forgets which terms it voted in or ignores freshness; a winner that
//! restarts at its replica's freshness without checking the collected
//! fragments cover it; a master that credits zombie heartbeats or stale
//! checkpoint acks) whose counterexample the checker must find — the
//! E101/E104/E107/E108/E114/E111/E112 fixtures in `dlb-analyze`. A broken
//! variant rewrites the production type's input or state inside the model;
//! the production type has no flag for it.
//!
//! ## What a model supplies, and what the layer does with it
//!
//! A model implements [`dlb_sim::LossyProtocol`] and nothing else: the
//! wire enumeration, the drop/dup budget accounting, the lane-serialising
//! ample set and the class-sort canonicalizer are the layer's, and its
//! module doc carries the soundness argument for both reductions once.
//! That is what lets [`dlb_sim::explore_reduced`] check the models at the
//! widths the runtime actually runs (16 survivors / receivers / deputies /
//! slots — the `wide(n)` constructors, exhausted by the `lint-wide` CI job)
//! instead of toy configurations.
//!
//! | model | steps | wire | lane | locals | classes | signature | overrides |
//! |---|---|---|---|---|---|---|---|
//! | [`RestoreModel`] | [`SenderWindow`], [`AckTracker`] | [`SeqWire`] | survivor (`Data.to` / `Ack.from`) | `Scatter`, `Resend`, `Heartbeat` | equal scatter profile | window, tracker, holdings, wire — in unit coordinates | — |
//! | [`TransferModel`] | [`TransferWindow`] | [`SeqWire`] | receiver (`Data.to` / `Ack.from`) | `Offer`, `Resend`, `Heartbeat`, `Evict` | equal move profile and offered count | both channel ends, holdings, re-owned units, wire — in unit coordinates | `lead`: an in-flight ack goes first, alone |
//! | [`ElectionModel`] | [`Ballot`] | [`EWire`] | recipient (`to`) | `Stand`, `Win` | equal replica freshness | local state and wire involvement, plus relations to the ranked anchors | `representative`: the pass iterated to a fixpoint |
//! | [`JoinModel`] | `Life` | [`JWire`] | slot | `Suspect`, `Heartbeat`, `RejoinNudge`, `AdmitNudge` | all slots | master view, slave view, wire | — |
//!
//! Restore, transfer and join states hold no cross-peer references, so the
//! class sort is a perfect canonicalizer for them; election state does
//! (vote sets, message addressing), hence its override. The restore and
//! transfer models share their wire vocabulary (`seqack.rs`) but stay two
//! models: they wrap different production types, and checking those is
//! their point.
//!
//! [`SenderWindow`]: crate::protocol::SenderWindow
//! [`AckTracker`]: crate::protocol::AckTracker
//! [`TransferWindow`]: crate::protocol::TransferWindow
//! [`Ballot`]: crate::session::replica::Ballot

mod election;
mod join;
mod restore;
mod seqack;
mod transfer;

pub use election::{DeputyModel, EWire, ElectionLocal, ElectionModel, ElectionState};
pub use join::{JWire, JoinLocal, JoinModel, JoinPhase, JoinSlotMaster, JoinSlotSlave, JoinState};
pub use restore::{RestoreLocal, RestoreModel, RestoreState, SlaveModel};
pub use seqack::SeqWire;
pub use transfer::{ReceiverSlot, TransferLocal, TransferModel, TransferState};

#[cfg(test)]
mod tests;
