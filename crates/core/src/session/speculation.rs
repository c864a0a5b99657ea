//! Speculation bookkeeping: racing a silent slave's work on an idle
//! survivor before suspicion expires.
//!
//! Both recovery policies race the same way. The master sends the idle
//! executor a windowed `Speculate` with the units to race at `invocation`;
//! the executor computes one invocation of them, sequentially and without
//! communication, and ships the result as an ordinary `Msg::Checkpoint`
//! for `invocation + 1`, which is [`Race::committed_by`]. What the raced
//! units are, and what the master does with the checkpoint, is the policy's:
//!
//! * **Rollback** (pipelined and shrinking engines) races the whole banked
//!   snapshot and banks the checkpoint like any other — sound because
//!   snapshots are value-deterministic and carry no epoch — so an eviction
//!   rolls back one invocation less.
//! * **Re-scatter** (independent engine) races the suspect's units from
//!   their initial data and keeps the checkpoint on the race, in
//!   [`Race::result`]. When the suspect is evicted, the raced units go back
//!   to the executor in a `Restore` that says they already hold
//!   `invocation + 1` invocations, so they are adopted without replay.
//!
//! A cancel is master-local under both: the suspect spoke, the race is
//! dropped, and a checkpoint that still arrives is inert (rollback banks it
//! as a redundant fragment, re-scatter finds no race to store it on).
//!
//! At most one race is in flight at a time.

use crate::msg::SharedUnits;

/// The race in flight, at most one per session.
#[derive(Clone, Debug, PartialEq)]
pub struct Race {
    /// The silent slave whose work is raced.
    pub suspect: usize,
    /// The idle survivor computing it.
    pub executor: usize,
    /// The invocation the raced units start from: the checkpoint comes back
    /// for `invocation + 1`.
    pub invocation: u64,
    /// Re-scatter: the raced units, once the executor's checkpoint arrived.
    pub result: Option<SharedUnits>,
}

impl Race {
    /// A checkpoint from `slave` for `invocation` commits the race: any
    /// checkpoint from the executor for the invocation after the race's.
    /// Under re-scatter that is only the raced result. Under rollback it is
    /// also the executor's own barrier fragment for the same invocation,
    /// which it ships at its barrier and re-sends with every heartbeat —
    /// usually the first to arrive. A rollback commit therefore says the
    /// executor reached that barrier, not that the whole advanced grid is in
    /// hand: in the golden event-stream matrix, 202 of 302 commits carry
    /// fewer units than the grid. Ending the race there is load-bearing
    /// (ROADMAP 1(b)(iii)).
    pub fn committed_by(&self, slave: usize, invocation: u64) -> bool {
        slave == self.executor && invocation == self.invocation + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn race() -> Race {
        Race {
            suspect: 1,
            executor: 2,
            invocation: 5,
            result: None,
        }
    }

    #[test]
    fn commit_matches_only_the_executor_at_the_next_invocation() {
        let r = race();
        assert!(r.committed_by(2, 6));
        assert!(!r.committed_by(2, 5), "the raced start is not the result");
        assert!(!r.committed_by(2, 7));
        assert!(!r.committed_by(1, 6), "the suspect cannot commit the race");
        assert!(!r.committed_by(0, 6));
    }
}
