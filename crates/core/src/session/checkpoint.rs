//! The checkpoint bank: globally consistent snapshots and rollback
//! sourcing.
//!
//! Checkpointed engines snapshot their units at every barrier;
//! the master banks partial snapshots per invocation and promotes one to
//! *best* once every unit id is covered. A rollback restarts the run from
//! the best snapshot (or from the initial state when none is complete yet).
//! Snapshots carry **no epoch**: unit values at a given invocation are
//! deterministic, so a snapshot banked before an eviction is still valid
//! after it — this is also what makes speculation from the bank sound.
//! They are also **immutable and shared once complete**: the bank keeps the
//! `Arc`s its fragments arrived in, and every hand-out (rollback, snapshot
//! speculation) is a refcount on the same unit storage, never a copy (the
//! hop table in [`crate::msg`]). A takeover's successor starts from an
//! empty bank and offers it the fragments the survivors still hold.

use crate::msg::{SharedUnits, UnitData};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Master-side bank of checkpoint fragments, keyed by invocation.
#[derive(Clone, Debug, Default)]
pub struct CheckpointBank {
    /// Partial snapshots still being assembled: invocation → unit id → data.
    bank: BTreeMap<u64, BTreeMap<usize, Arc<UnitData>>>,
    /// The newest *complete* snapshot: every unit id present, ids ascending.
    best: Option<(u64, SharedUnits)>,
}

impl CheckpointBank {
    pub fn new() -> CheckpointBank {
        CheckpointBank::default()
    }

    /// True when the best complete snapshot already covers `invocation` —
    /// a fragment for it carries no new information.
    pub fn covered(&self, invocation: u64) -> bool {
        self.best.as_ref().is_some_and(|(b, _)| *b >= invocation)
    }

    /// Invocation of the best complete snapshot, if any.
    pub fn best_invocation(&self) -> Option<u64> {
        self.best.as_ref().map(|(b, _)| *b)
    }

    /// Bank a snapshot fragment from one slave. Returns `true` exactly when
    /// this fragment completed the snapshot for `invocation` (it was
    /// promoted to best and older fragments were discarded) — the caller
    /// counts `checkpoints_banked` on `true`.
    pub fn offer(&mut self, invocation: u64, units: SharedUnits, n_units: usize) -> bool {
        if self.covered(invocation) {
            return false;
        }
        let entry = self.bank.entry(invocation).or_default();
        for (id, data) in units {
            entry.insert(id, data);
        }
        if entry.len() == n_units {
            let full = self.bank.remove(&invocation).expect("entry just filled");
            self.best = Some((invocation, full.into_iter().collect()));
            self.bank.retain(|&i, _| i > invocation);
            true
        } else {
            false
        }
    }

    /// The restart point for a rollback (also the seed for speculation):
    /// the best complete snapshot, or the initial state (invocation 0) when
    /// none is complete yet. Unit ids ascend.
    pub fn rollback_snapshot(
        &self,
        n_units: usize,
        init: &dyn Fn(usize) -> UnitData,
    ) -> (u64, SharedUnits) {
        self.best
            .clone()
            .unwrap_or_else(|| (0, (0..n_units).map(|id| (id, Arc::new(init(id)))).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(v: f64) -> Arc<UnitData> {
        Arc::new(vec![vec![v]])
    }

    /// Every unit of `a` is the same allocation as its counterpart in `b`.
    fn same_storage(a: &SharedUnits, b: &SharedUnits) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|((ia, da), (ib, db))| ia == ib && Arc::ptr_eq(da, db))
    }

    #[test]
    fn fragments_assemble_into_a_complete_snapshot() {
        let mut b = CheckpointBank::new();
        assert!(!b.offer(1, vec![(0, unit(0.0)), (1, unit(1.0))], 3));
        assert_eq!(b.best_invocation(), None);
        assert!(b.offer(1, vec![(2, unit(2.0))], 3), "third id completes it");
        assert_eq!(b.best_invocation(), Some(1));
        assert!(b.covered(1));
        assert!(!b.covered(2));
    }

    #[test]
    fn promotion_discards_stale_fragments_and_dups_are_inert() {
        let mut b = CheckpointBank::new();
        b.offer(1, vec![(0, unit(0.0))], 2); // stays partial forever
        b.offer(2, vec![(0, unit(0.0)), (1, unit(1.0))], 2);
        assert_eq!(b.best_invocation(), Some(2));
        // A late fragment for a covered invocation must not regress best.
        assert!(!b.offer(1, vec![(1, unit(9.0))], 2));
        assert_eq!(b.best_invocation(), Some(2));
    }

    #[test]
    fn rollback_snapshot_falls_back_to_initial_state() {
        let b = CheckpointBank::new();
        let (inv, units) = b.rollback_snapshot(2, &|id| vec![vec![id as f64]]);
        assert_eq!(inv, 0);
        assert_eq!(units, vec![(0, unit(0.0)), (1, unit(1.0))]);

        let mut b = CheckpointBank::new();
        b.offer(3, vec![(1, unit(10.0)), (0, unit(20.0))], 2);
        let (inv, units) = b.rollback_snapshot(2, &|_| unreachable!());
        assert_eq!(inv, 3);
        assert_eq!(units, vec![(0, unit(20.0)), (1, unit(10.0))]);
    }

    #[test]
    fn a_complete_snapshot_is_handed_out_shared_and_never_rewritten() {
        let mut b = CheckpointBank::new();
        let fragment = vec![(1, unit(10.0)), (0, unit(20.0))];
        let sent = fragment.clone();
        assert!(b.offer(3, fragment, 2));
        // The bank kept the very allocations the fragment arrived in.
        let (_, first) = b.rollback_snapshot(2, &|_| unreachable!());
        assert!(Arc::ptr_eq(&first[0].1, &sent[1].1) && Arc::ptr_eq(&first[1].1, &sent[0].1));
        // Every hand-out is one more holder of them, beside the bank and
        // `sent`: `first`, `second`.
        let (_, second) = b.rollback_snapshot(2, &|_| unreachable!());
        assert!(same_storage(&first, &second));
        assert_eq!(Arc::strong_count(&first[0].1), 4);
        // A late fragment for a covered invocation is dropped whole: the
        // shared snapshot keeps its storage and its values.
        assert!(!b.offer(3, vec![(0, unit(-1.0))], 2));
        assert!(!b.offer(2, vec![(0, unit(-1.0)), (1, unit(-1.0))], 2));
        let (inv, after) = b.rollback_snapshot(2, &|_| unreachable!());
        assert_eq!(inv, 3);
        assert!(same_storage(&first, &after));
        assert_eq!(after, vec![(0, unit(20.0)), (1, unit(10.0))]);
    }
}
