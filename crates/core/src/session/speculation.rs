//! Speculation bookkeeping: racing a silent slave's work on an idle
//! survivor before suspicion expires.
//!
//! Two flavours share the bookkeeping here:
//!
//! * **Restart speculation** ([`RestartSpec`], independent engine): the
//!   suspect's units are re-seeded from their initial state on an idle
//!   survivor; on eviction the speculative results are adopted with a
//!   `SpecCommit`, on a late heartbeat they are discarded with `SpecCancel`.
//! * **Snapshot speculation** ([`SnapshotSpec`], pipelined and shrinking
//!   engines): the executor advances the *whole banked snapshot* by one
//!   invocation and returns it as an ordinary `Msg::Checkpoint` — sound
//!   because snapshots are value-deterministic and carry no epoch. Commit
//!   is implicit (the checkpoint banks normally, and what counts as one is
//!   [`SnapshotSpec::committed_by`]); cancel is master-local
//!   (the suspect spoke, so the speculative checkpoint is simply a
//!   redundant fragment for an invocation the run will re-reach).
//!
//! At most one speculation is in flight at a time, and never while an
//! eviction is being resolved.

/// An in-flight restart speculation (independent engine).
#[derive(Clone, Debug)]
pub struct RestartSpec {
    /// The silent slave whose units are being raced.
    pub suspect: usize,
    /// The idle survivor computing them speculatively.
    pub executor: usize,
    /// Sequence number of the `Speculate` message on the executor's window
    /// (a matching `SpecCommit`/`SpecCancel` refers to this batch).
    pub spec_seq: u64,
    /// Unit ids being raced.
    pub ids: Vec<usize>,
}

/// An in-flight snapshot speculation (checkpointed engines).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotSpec {
    /// The silent slave that motivated the race.
    pub suspect: usize,
    /// The idle survivor advancing the banked snapshot.
    pub executor: usize,
    /// Invocation of the banked snapshot handed to the executor; the
    /// speculative checkpoint comes back for `invocation + 1`.
    pub invocation: u64,
}

impl SnapshotSpec {
    /// The suspect spoke: the race is moot, cancel master-side. (No wire
    /// message — an unwanted speculative checkpoint is inert, it banks as
    /// a redundant fragment.)
    pub fn cancelled_by(&self, speaker: usize) -> bool {
        speaker == self.suspect
    }

    /// A checkpoint from `slave` for `invocation` commits the race: any
    /// checkpoint from the executor for the invocation after the seed's.
    /// That is the advanced snapshot the race computes, but also the
    /// executor's own barrier fragment for the same invocation, which it
    /// ships at its barrier and re-sends with every heartbeat — usually the
    /// first to arrive. A commit therefore says the executor reached that
    /// barrier, not that the whole advanced grid is in hand: in the golden
    /// event-stream matrix, 202 of 302 commits carry fewer units than the
    /// grid. Ending the race there is load-bearing (ROADMAP 1(b)(iii)).
    pub fn committed_by(&self, slave: usize, invocation: u64) -> bool {
        slave == self.executor && invocation == self.invocation + 1
    }

    /// The race is dead if either party left the computation.
    pub fn involves(&self, slave: usize) -> bool {
        slave == self.suspect || slave == self.executor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SnapshotSpec {
        SnapshotSpec {
            suspect: 1,
            executor: 2,
            invocation: 5,
        }
    }

    #[test]
    fn commit_matches_only_the_executor_at_the_next_invocation() {
        let s = spec();
        assert!(s.committed_by(2, 6));
        assert!(!s.committed_by(2, 5), "the seed snapshot is not the result");
        assert!(!s.committed_by(2, 7));
        assert!(!s.committed_by(1, 6), "the suspect cannot commit the race");
        assert!(!s.committed_by(0, 6));
    }

    #[test]
    fn heartbeat_cancel_beats_a_later_commit() {
        // Race: the suspect heartbeats before the executor's speculative
        // checkpoint arrives. The cancel clears the slot, so the late
        // checkpoint is handled as an ordinary (redundant) fragment.
        let mut slot = Some(spec());
        let speaker = 1;
        if slot.as_ref().is_some_and(|s| s.cancelled_by(speaker)) {
            slot = None;
        }
        assert_eq!(slot, None);
        // The speculative checkpoint now finds no spec to commit.
        assert!(!slot.as_ref().is_some_and(|s| s.committed_by(2, 6)));
    }

    #[test]
    fn commit_beats_a_later_heartbeat() {
        // Race resolved the other way: the speculative checkpoint lands
        // first and commits; the suspect's late heartbeat cancels nothing.
        let mut slot = Some(spec());
        if slot.as_ref().is_some_and(|s| s.committed_by(2, 6)) {
            slot = None; // committed
        }
        assert_eq!(slot, None);
        assert!(!slot.as_ref().is_some_and(|s| s.cancelled_by(1)));
    }

    #[test]
    fn eviction_of_either_party_kills_the_race() {
        let s = spec();
        assert!(s.involves(1));
        assert!(s.involves(2));
        assert!(!s.involves(0));
    }

    #[test]
    fn unrelated_speakers_do_not_cancel() {
        let s = spec();
        assert!(!s.cancelled_by(0));
        assert!(!s.cancelled_by(2), "the executor's traffic is not a cancel");
        assert!(s.cancelled_by(1));
    }
}
