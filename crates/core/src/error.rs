//! Typed runtime errors and fault-tolerance configuration.
//!
//! The runtime never panics on protocol trouble: masters and slaves return
//! [`ProtocolError`] values, slaves ship theirs to the master in
//! [`crate::msg::Msg::SlaveError`], and the driver surfaces everything as a
//! [`RunError`] carrying the partial measurements of the failed run.

use crate::balancer::BalancerStats;
use crate::master::{TimelineSample, MASTER_TICK};
use crate::recovery::RecoveryStats;
use crate::session::master::MASTER_HEARTBEAT;
use crate::session::replica::{DEPUTIES, ELECTION_STAGGER, MASTER_SUSPICION};
use crate::slave_common::OP_TIMEOUT;
use dlb_sim::{SimDuration, SimReport, SimTime};
use std::fmt;

/// A protocol-level failure in the master/slave runtime.
///
/// `Clone` because slave errors travel to the master inside a message.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtocolError {
    /// A message arrived that the receiver's protocol state cannot accept.
    UnexpectedMessage {
        /// Who was confused: `"master"` or `"slave N"`.
        who: String,
        /// What the receiver was doing.
        context: &'static str,
        /// Debug rendering of the offending message (truncated).
        message: String,
    },
    /// A blocking protocol step exceeded its deadline (fault mode only).
    Timeout {
        who: String,
        waiting_for: &'static str,
        at: SimTime,
    },
    /// Shrinking engine: an update needed a pivot that never arrived.
    MissingPivot {
        step: usize,
        column: usize,
        slave: usize,
    },
    /// Pipelined engine: a work transfer arrived from a non-adjacent slave.
    NonNeighborTransfer { from: usize, to: usize, sweep: u64 },
    /// Every slave was declared dead; nobody is left to run the program.
    AllSlavesDead,
    /// A slave reported a fatal error of its own.
    SlaveFailed {
        slave: usize,
        error: Box<ProtocolError>,
    },
    /// The master told this process to stop (propagated, not reported).
    Aborted,
    /// The master evicted this slave after (possibly false) suspicion.
    Evicted { slave: usize },
    /// This slave exhausted its rejoin budget: every `Msg::Join` attempt
    /// was refused, dropped, or outlived its backoff window. The slave
    /// exits silently, like an eviction it could not reverse.
    JoinRefused { slave: usize, attempts: u32 },
    /// Internal control flow, never surfaced to the driver: a
    /// [`crate::msg::Msg::Rollback`] arrived inside a blocking receive and
    /// the checkpointed engine must unwind to its restart loop to apply it
    /// (the payload is stashed in `SlaveCommon::pending_rollback`).
    RolledBack,
    /// Internal control flow, never surfaced to the driver: this slave won
    /// a master election and must unwind its engine to take over as master
    /// (the takeover seed is stashed in `SlaveCommon::takeover`).
    Elected { term: u64 },
    /// A newer master was elected while this master still believed it was
    /// in charge (it was frozen or cut off, not dead): it heard the newer
    /// reign's `Promoted`, or, that lost, its exit reply once it finished.
    /// The superseded master exits silently: no abort broadcast, no outcome
    /// write — the new master owns the run now.
    Superseded { term: u64 },
    /// Bookkeeping that must balance did not (lost/duplicated units, bad
    /// completion counts).
    Inconsistent { detail: String },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::UnexpectedMessage {
                who,
                context,
                message,
            } => {
                write!(f, "{who}: unexpected message at {context}: {message}")
            }
            ProtocolError::Timeout {
                who,
                waiting_for,
                at,
            } => {
                write!(f, "{who}: timed out at t={at} waiting for {waiting_for}")
            }
            ProtocolError::MissingPivot {
                step,
                column,
                slave,
            } => write!(
                f,
                "slave {slave}: missing pivot {step} while updating column {column}"
            ),
            ProtocolError::NonNeighborTransfer { from, to, sweep } => write!(
                f,
                "slave {to}: transfer from non-neighbor {from} in sweep {sweep}"
            ),
            ProtocolError::AllSlavesDead => write!(f, "all slaves declared dead"),
            ProtocolError::SlaveFailed { slave, error } => {
                write!(f, "slave {slave} failed: {error}")
            }
            ProtocolError::Aborted => write!(f, "aborted by master"),
            ProtocolError::Evicted { slave } => write!(f, "slave {slave} evicted"),
            ProtocolError::JoinRefused { slave, attempts } => {
                write!(f, "slave {slave}: join refused after {attempts} attempts")
            }
            ProtocolError::RolledBack => {
                write!(f, "rollback in progress (internal control flow)")
            }
            ProtocolError::Elected { term } => {
                write!(f, "elected master for term {term} (internal control flow)")
            }
            ProtocolError::Superseded { term } => {
                write!(f, "superseded by the master elected in term {term}")
            }
            ProtocolError::Inconsistent { detail } => {
                write!(f, "inconsistent bookkeeping: {detail}")
            }
        }
    }
}

impl ProtocolError {
    /// Approximate payload size when this error travels inside a
    /// [`crate::msg::Msg::SlaveError`]: the variant's actual fields, not a
    /// flat guess — long diagnostics must be charged to the network model.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            ProtocolError::UnexpectedMessage {
                who,
                context,
                message,
            } => (who.len() + context.len() + message.len()) as u64,
            ProtocolError::Timeout {
                who, waiting_for, ..
            } => 8 + (who.len() + waiting_for.len()) as u64,
            ProtocolError::MissingPivot { .. } => 24,
            ProtocolError::NonNeighborTransfer { .. } => 24,
            ProtocolError::AllSlavesDead => 0,
            ProtocolError::SlaveFailed { error, .. } => 8 + error.payload_bytes(),
            ProtocolError::Aborted | ProtocolError::RolledBack => 0,
            ProtocolError::Evicted { .. } => 8,
            ProtocolError::JoinRefused { .. } => 12,
            ProtocolError::Elected { .. } | ProtocolError::Superseded { .. } => 8,
            ProtocolError::Inconsistent { detail } => detail.len() as u64,
        }
    }

    /// Whether a wedged slave that hit this error reports it and waits to
    /// be re-ranged — it parks until the `Rollback` — as opposed to having
    /// failed itself. The slave runner and `Master`'s handling of a member's
    /// `SlaveError` both ask it, under both recovery policies.
    pub(crate) fn survivable(&self) -> bool {
        matches!(
            self,
            ProtocolError::Timeout { .. }
                | ProtocolError::MissingPivot { .. }
                | ProtocolError::NonNeighborTransfer { .. }
                | ProtocolError::Inconsistent { .. }
                | ProtocolError::UnexpectedMessage { .. }
        )
    }
}

impl std::error::Error for ProtocolError {}

/// `who` strings for error construction.
pub(crate) fn slave_who(idx: usize) -> String {
    format!("slave {idx}")
}

/// The windows and cadences of a fault-mode run that someone sets.
///
/// All durations are virtual time. The defaults suit the chaos tests (unit
/// compute times well under a second); `suspicion` must comfortably exceed
/// the longest stretch a healthy slave can go without sending anything —
/// roughly one unit compute plus the balancing period — or healthy slaves
/// get evicted. A value stays settable only when a caller outside tests and
/// examples varies it: the rest (the master's timer tick, the per-step
/// deadline, retry bounds, the failover election's windows and deputy set)
/// is a constant beside its consumer; DESIGN.md §8 tabulates both sets.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultToleranceConfig {
    /// Silence after which the master declares a slave dead.
    pub suspicion: SimDuration,
    /// Silence after which the master speculatively races the suspect's
    /// units on an idle survivor (independent engine; must be below
    /// `suspicion` to buy anything).
    pub speculate_after: SimDuration,
    /// Silence after which the master re-sends control messages
    /// (Start / InvocationStart / Restore / Gather).
    pub nudge: SimDuration,
    /// Idle-slave heartbeat: how often an idle slave re-sends its
    /// `InvocationDone`. The failover election's timer is checked from
    /// these slices, so [`try_run`](crate::driver::try_run) rejects a
    /// heartbeat coarser than the election stagger.
    pub slave_heartbeat: SimDuration,
    /// Elastic membership: how many times an evicted (or late-starting)
    /// slave re-sends `Msg::Join` before giving up with
    /// [`ProtocolError::JoinRefused`]. Zero disables rejoin entirely —
    /// eviction stays final and joiners never form (the default, matching
    /// the fail-stop model).
    pub rejoin_attempts: u32,
    /// Elastic membership: base delay between join attempts. Doubles each
    /// retry (with deterministic per-slave jitter) so refused joiners
    /// cannot hot-loop the master; capped at 8× the base.
    pub rejoin_backoff: SimDuration,
}

const DEFAULTS: FaultToleranceConfig = FaultToleranceConfig {
    suspicion: SimDuration::from_secs(8),
    speculate_after: SimDuration::from_secs(4),
    nudge: SimDuration::from_secs(2),
    slave_heartbeat: SimDuration::from_secs(1),
    rejoin_attempts: 0,
    rejoin_backoff: SimDuration::from_secs(2),
};

impl Default for FaultToleranceConfig {
    fn default() -> Self {
        DEFAULTS
    }
}

// How the defaults and the constants beside their consumers must be ordered
// (compared in microseconds).
const _: () = {
    let t = DEFAULTS;
    assert!(MASTER_TICK.0 < t.nudge.0);
    assert!(t.nudge.0 < t.suspicion.0);
    assert!(t.slave_heartbeat.0 < t.suspicion.0);
    assert!(t.speculate_after.0 < t.suspicion.0);
    assert!(t.suspicion.0 < OP_TIMEOUT.0);
    // Failover: the master's pings must outpace the election trigger by a
    // wide margin, the per-rank staggers must separate candidacies well
    // inside one suspicion window, and the whole election must finish long
    // before blocked slaves give up on the run.
    let staggers = ELECTION_STAGGER.0 * DEPUTIES as u64;
    assert!(MASTER_HEARTBEAT.0 * 4 <= MASTER_SUSPICION.0);
    assert!(staggers < MASTER_SUSPICION.0);
    assert!(
        t.slave_heartbeat.0 <= ELECTION_STAGGER.0,
        "a heartbeat slice coarser than the stagger cannot separate candidacies"
    );
    assert!(
        MASTER_SUSPICION.0 + staggers < OP_TIMEOUT.0,
        "an election must complete within one op timeout"
    );
    assert!(DEPUTIES >= 1);
    assert!(t.rejoin_attempts == 0, "rejoin is opt-in");
    assert!(
        t.rejoin_backoff.0 >= t.nudge.0,
        "joiners must not out-chatter the master's own nudge cadence"
    );
};

impl FaultToleranceConfig {
    /// The detector sized from one suspicion window `d`, for a cluster whose
    /// longest legitimate silence is not the default's: speculate at ⅝·d,
    /// nudge at ¼·d, heartbeat every ⅛·d (never faster than 300 ms) and
    /// space join attempts ¼·d apart (never closer than 500 ms). Every
    /// other setting keeps its default. `Default` itself is not an instance
    /// of this rule: it speculates at ½ of its 8 s.
    pub fn with_suspicion(d: SimDuration) -> Self {
        FaultToleranceConfig {
            suspicion: d,
            speculate_after: d * 5 / 8,
            nudge: d / 4,
            slave_heartbeat: (d / 8).max(SimDuration::from_millis(300)),
            rejoin_backoff: (d / 4).max(SimDuration::from_millis(500)),
            ..Self::default()
        }
    }
}

/// A failed run: the typed cause plus everything that was still measurable.
#[derive(Debug)]
pub struct RunError {
    pub error: ProtocolError,
    /// Total virtual time until the run stopped.
    pub elapsed: SimDuration,
    pub stats: BalancerStats,
    pub recovery: RecoveryStats,
    pub timeline: Vec<TimelineSample>,
    /// Full simulator report (fault counters, trace hash, per-node CPU).
    pub sim: SimReport,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run failed after {}: {}", self.elapsed, self.error)
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ProtocolError::MissingPivot {
            step: 3,
            column: 7,
            slave: 1,
        };
        assert!(e.to_string().contains("pivot 3"));
        let e = ProtocolError::SlaveFailed {
            slave: 2,
            error: Box::new(ProtocolError::Aborted),
        };
        assert!(e.to_string().contains("slave 2"));
    }

    #[test]
    fn payload_bytes_follow_the_variant() {
        assert_eq!(ProtocolError::Aborted.payload_bytes(), 0);
        let long = ProtocolError::Inconsistent {
            detail: "y".repeat(300),
        };
        assert_eq!(long.payload_bytes(), 300);
        let nested = ProtocolError::SlaveFailed {
            slave: 1,
            error: Box::new(long),
        };
        assert_eq!(nested.payload_bytes(), 308);
    }

    /// Every variant, and whether a rollback rescues a slave that hit it:
    /// wedges (lost messages, torn protocol state) yes; the slave's own
    /// death, verdicts and internal control flow no.
    #[test]
    fn survivable_errors_are_the_wedges() {
        let at = SimTime::ZERO;
        let who = || "slave 0".to_string();
        let all = [
            (
                ProtocolError::UnexpectedMessage {
                    who: who(),
                    context: "c",
                    message: who(),
                },
                true,
            ),
            (
                ProtocolError::Timeout {
                    who: who(),
                    waiting_for: "w",
                    at,
                },
                true,
            ),
            (
                ProtocolError::MissingPivot {
                    step: 0,
                    column: 1,
                    slave: 0,
                },
                true,
            ),
            (
                ProtocolError::NonNeighborTransfer {
                    from: 0,
                    to: 2,
                    sweep: 0,
                },
                true,
            ),
            (ProtocolError::Inconsistent { detail: who() }, true),
            (ProtocolError::AllSlavesDead, false),
            (
                ProtocolError::SlaveFailed {
                    slave: 0,
                    error: Box::new(ProtocolError::AllSlavesDead),
                },
                false,
            ),
            (ProtocolError::Aborted, false),
            (ProtocolError::Evicted { slave: 0 }, false),
            (
                ProtocolError::JoinRefused {
                    slave: 0,
                    attempts: 1,
                },
                false,
            ),
            (ProtocolError::RolledBack, false),
            (ProtocolError::Elected { term: 1 }, false),
            (ProtocolError::Superseded { term: 1 }, false),
        ];
        for (e, survivable) in all {
            assert_eq!(e.survivable(), survivable, "{e:?}");
        }
    }
}
