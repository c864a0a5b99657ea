//! # dlb-analyze — static plan linter + protocol model checker
//!
//! The compiler (`dlb-compiler`) derives facts — dependence distances,
//! hook overheads, strip-mine bounds — and the runtime (`dlb-core`)
//! trusts them. This crate closes the loop with two pillars sharing one
//! structured-diagnostics framework ([`diag`]):
//!
//! * **[`passes`]** — the plan linter: re-derives the analysis from the IR
//!   and checks a [`ParallelPlan`](dlb_compiler::ParallelPlan) against it
//!   (owner-computes legality, adjacency of work movement under carried
//!   dependences, hook-overhead budget, strip-mine bounds).
//! * **[`model`]** — the protocol model checker: exhaustively explores the
//!   master/slave restore protocol, the slave↔slave work-migration
//!   (transfer-window) protocol (both built from `dlb-core`'s production
//!   [`SenderWindow`](dlb_core::SenderWindow)/[`AckTracker`](dlb_core::AckTracker)/
//!   [`TransferWindow`](dlb_core::TransferWindow) rules), the
//!   master-failover deputy election (stepping the deputies' production
//!   [`Ballot`](dlb_core::Ballot)), and the mid-run join/rejoin handshake
//!   (the master's production admission verdict with an ack-floored
//!   snapshot ship) for duplicate
//!   application, lost work, split-brain promotions, zombie-incarnation
//!   credit, stale-snapshot joins, and deadlock, with seeded-replayable
//!   counterexamples. Runtime-width instances are made tractable by
//!   symmetry and partial-order reduction ([`dlb_sim`]'s
//!   [`explore_reduced`](dlb_sim::explore_reduced)).
//! * **[`conform`]** — trace-conformance checking: replays a recorded
//!   kernel event trace (`dlb-lint --conform`) through the election model
//!   and reports any runtime action the model does not enable (E110).
//!
//! The `dlb-lint` binary runs every built-in program plus the protocol
//! models — including a deliberately broken split-brain election variant
//! that must yield a counterexample — and exits nonzero on any error or
//! missing counterexample: CI's merge gate.

#![forbid(unsafe_code)]

pub mod conform;
pub mod diag;
pub mod model;
pub mod passes;

pub use conform::{check_conformance, conform_election, Conformance, Divergence};
pub use diag::{Code, Diagnostic, Report, Severity};
pub use model::{
    check_election_protocol, check_election_protocol_with, check_join_protocol,
    check_join_protocol_with, check_protocol, check_protocol_with, check_transfer_protocol,
    check_transfer_protocol_with, CheckConfig,
};
pub use passes::{expected_pattern, lint, lint_builtins};
