//! The session kernel: everything the master/slave runtime needs to keep a
//! distributed computation *alive* — membership, epochs, checkpoints,
//! speculation — factored out of the engines so each engine is only a
//! distribution strategy.
//!
//! Layering (bottom up):
//!
//! * [`crate::protocol`] — pure window types (sequence numbers, ack
//!   watermarks, transfer channels). No policy.
//! * `session` (this module) — the shared liveness/ownership substrate:
//!   - `membership`: the per-slave liveness table with suspicion timers,
//!     nudge scheduling, and eviction;
//!   - `checkpoint`: the checkpoint bank and rollback sourcing;
//!   - `speculation`: racing a suspect's work on an idle survivor,
//!     commit-or-cancel before suspicion expires;
//!   - `master`: the master-side `Session` tying those together with epoch
//!     fencing, per-slave control windows, admission and failover, plus
//!     the `Policy` (re-scatter in place vs. roll back to a checkpoint)
//!     that is all the two recovery modes differ in;
//!   - `slave`: the slave actor shell and the one slave runner (restart
//!     loop, first release, barrier protocol, gather reply) every engine
//!     runs under, driven through a `strategy::DistributionStrategy`;
//!   - [`replica`]: the deputy role — control-plane replica absorption,
//!     master-silence watch, and the epoch-fenced election state machine
//!     behind master failover;
//!   - [`model`]: model-checkable abstractions of the restore, transfer,
//!     and election sub-protocols, exhaustively explored by `dlb-analyze`.
//! * Engines (`engine_independent`, `engine_pipelined`,
//!   `engine_shrinking`) — per-dependence-structure strategies: hook
//!   placement, adjacency constraints, and the actual numerics.

pub(crate) mod checkpoint;
pub(crate) mod master;
pub(crate) mod membership;
pub mod model;
pub mod replica;
pub(crate) mod slave;
pub(crate) mod speculation;
pub(crate) mod strategy;
