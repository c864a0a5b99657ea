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
//! speculation, a deputy's replica) is a refcount on the same unit storage,
//! never a copy (the hop table in [`crate::msg`]).
//!
//! Sharing is also what makes a deputy's replica a *delta*: an `Arc` is
//! immutable, and one that survives from one best snapshot to the next came
//! from a holder that never rewrote the unit (transfers deep-copy, active
//! columns are re-wrapped at every barrier). So the bank stamps each unit
//! with the invocation of the first best snapshot that held its `Arc`, and
//! a deputy holding any best snapshot since a unit's stamp already holds
//! that unit's value ([`CheckpointBank::best_since`]).

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
    /// Per unit of `best`, by id: the invocation of the first best snapshot
    /// that held this unit's `Arc`.
    stamps: Vec<u64>,
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

    /// The best complete snapshot (ids ascending) cut down to what a holder
    /// of any best snapshot since invocation `since` lacks: the units
    /// stamped after `since`, or every unit for 0 — what a deputy whose ack
    /// is `since` is shipped. `None` until a snapshot completes.
    pub fn best_since(&self, since: u64) -> Option<(u64, SharedUnits)> {
        let (inv, units) = self.best.as_ref()?;
        let lacking = units.iter().zip(&self.stamps);
        let delta = lacking.filter(|&(_, &stamp)| since == 0 || stamp > since);
        Some((*inv, delta.map(|(unit, _)| unit.clone()).collect()))
    }

    /// Bank a snapshot fragment from one slave. Returns `true` exactly when
    /// this fragment completed the snapshot for `invocation` (it was
    /// promoted to best and older fragments were discarded) — the caller
    /// counts `checkpoints_banked` on `true`. On promotion a unit keeps its
    /// stamp when its `Arc` is the previous best's; otherwise it is stamped
    /// `invocation`.
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
            let full: SharedUnits = full.into_iter().collect();
            // Both snapshots are complete, so unit `id` sits at index `id`.
            let prev = self.best.as_ref().map(|(_, units)| units);
            self.stamps = full
                .iter()
                .map(|(id, data)| match prev {
                    Some(prev) if Arc::ptr_eq(&prev[*id].1, data) => self.stamps[*id],
                    _ => invocation,
                })
                .collect();
            self.best = Some((invocation, full));
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
pub(crate) mod tests {
    use super::*;

    fn unit(v: f64) -> Arc<UnitData> {
        Arc::new(vec![vec![v]])
    }

    /// Every unit of `a` is the same allocation as its counterpart in `b`.
    pub(crate) fn same_storage(a: &SharedUnits, b: &SharedUnits) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|((ia, da), (ib, db))| ia == ib && Arc::ptr_eq(da, db))
    }

    /// Four LU-like columns, unit `id` holding `[id]`.
    pub(crate) fn columns() -> SharedUnits {
        (0..4).map(|id| (id, unit(id as f64))).collect()
    }

    /// Bank the complete snapshot of invocation `inv`, shaped like a
    /// shrinking run's: the units below `retired` are retired and keep
    /// their `Arc`s from `cols`, the active rest are re-wrapped (equal
    /// values, new `Arc`s).
    pub(crate) fn bank_step(
        bank: &mut CheckpointBank,
        inv: u64,
        cols: &SharedUnits,
        retired: usize,
    ) {
        let units = cols.iter().map(|(id, d)| {
            let d = if *id < retired {
                Arc::clone(d)
            } else {
                Arc::new((**d).clone())
            };
            (*id, d)
        });
        assert!(bank.offer(inv, units.collect(), cols.len()));
    }

    #[test]
    fn a_stamp_survives_a_promotion_only_on_a_shared_arc() {
        let cols = columns();
        let mut b = CheckpointBank::new();
        assert_eq!(b.best_since(0), None, "nothing complete yet");
        // Unit 0 retires before the first best, unit 1 at invocation 2.
        for (inv, retired) in [(1, 1), (2, 2), (3, 2)] {
            bank_step(&mut b, inv, &cols, retired);
        }
        let ids = |since| {
            let (inv, units) = b.best_since(since).expect("complete");
            (inv, units.iter().map(|(id, _)| *id).collect::<Vec<_>>())
        };
        assert_eq!(ids(0), (3, vec![0, 1, 2, 3]), "0 asks for every unit");
        assert_eq!(ids(1), (3, vec![1, 2, 3]), "unit 0: one Arc since 1");
        // Units 2 and 3 hold equal values every time, in new `Arc`s: a
        // value compare would call them unchanged since 2, the bank does not.
        assert_eq!(ids(2), (3, vec![2, 3]), "unit 1: one Arc since 2");
        assert_eq!(ids(3), (3, vec![]), "a holder of the best lacks nothing");
        // A delta is the bank's own storage.
        let (_, best) = b.best_since(0).expect("complete");
        let (_, delta) = b.best_since(1).expect("complete");
        assert!(same_storage(&delta, &best[1..].to_vec()));
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
        // `sent`: `first`, `second`, `replica`.
        let (_, second) = b.rollback_snapshot(2, &|_| unreachable!());
        let (inv, replica) = b.best_since(0).expect("complete");
        assert_eq!(inv, 3);
        assert!(same_storage(&first, &second) && same_storage(&first, &replica));
        assert_eq!(Arc::strong_count(&first[0].1), 5);
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
