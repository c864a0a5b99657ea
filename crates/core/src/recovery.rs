//! Recovery bookkeeping for fault-mode runs.

use dlb_sim::{SimDuration, SimTime};

/// Counters describing every recovery action the master and slaves took
/// during a fault-mode run. All zero for a fault-free run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryStats {
    /// Slaves the master declared dead after `suspicion` of silence.
    pub slaves_declared_dead: u64,
    /// Virtual time of the first death declaration, if any.
    pub first_death: Option<SimTime>,
    /// Work units re-scattered from dead slaves to survivors.
    pub units_restored: u64,
    /// Work units the master recomputed locally because their owner died
    /// during the final gather.
    pub units_recomputed: u64,
    /// `Restore` messages re-sent because they went unacknowledged.
    pub restore_resends: u64,
    /// Balancer instruction messages re-sent.
    pub instr_resends: u64,
    /// `Start` messages re-sent to slaves that never spoke.
    pub start_resends: u64,
    /// `InvocationStart` barrier releases re-broadcast.
    pub invocation_start_resends: u64,
    /// `Gather` requests re-sent.
    pub gather_resends: u64,
    /// Duplicate `Status` reports discarded by hook-sequence dedup.
    pub status_dups_ignored: u64,
    /// Duplicate or stale `InvocationDone` reports discarded.
    pub done_dups_ignored: u64,
    /// Duplicate `GatherData` payloads discarded.
    pub gather_dups_ignored: u64,
    /// Gathers interrupted by a death: the master evicted the silent slave
    /// and (checkpointed engines) rolled the survivors back to redo the
    /// lost work before gathering again.
    pub gathers_interrupted: u64,
    // ---- crash-safe migration (all engines) ----
    /// Complete barrier checkpoints the master banked (checkpointed
    /// engines: pipelined / shrinking).
    pub checkpoints_banked: u64,
    /// Rollbacks the master initiated (each re-scatters a checkpoint over
    /// the survivors and restarts the invocation).
    pub rollbacks: u64,
    /// Work units re-scattered by rollbacks.
    pub units_rolled_back: u64,
    /// Speculative re-executions launched for silent suspects.
    pub speculations_launched: u64,
    /// Speculations committed. Re-scatter: the suspect was evicted and the
    /// race's result handed back to the executor, adopted without replay.
    /// Rollback: a checkpoint from the executor for the invocation after
    /// the race's arrived — often only its own barrier fragment, not the
    /// whole advanced snapshot (`Race::committed_by`).
    pub speculations_committed: u64,
    /// Speculations cancelled: the suspect spoke again, or under
    /// re-scatter it was evicted before the race's result arrived.
    pub speculations_cancelled: u64,
    /// Re-scatter: work units handed back from a race's result. Rollback:
    /// the units the committing checkpoint carried — the executor's own
    /// fragment when that is what matched.
    pub units_speculated: u64,
    /// In-flight transfer units re-owned by survivors when their peer was
    /// evicted mid-move.
    pub units_reowned: u64,
    /// Duplicate gather payload units discarded (a unit restored while a
    /// dead sender's transfer was still in flight can briefly have two
    /// owners; both copies are fully computed and identical by gather).
    pub gather_dup_units_dropped: u64,
    // ---- elastic membership ----
    /// Slaves admitted mid-run through the `Join` handshake (latecomers
    /// and rejoiners alike; each admission counts once).
    pub joins_admitted: u64,
    /// Admissions that readmitted a previously evicted slave (a heal after
    /// a false suspicion, crash restart, or network partition).
    pub rejoins_after_eviction: u64,
    /// Bytes of state the master shipped to joiners at admission (the
    /// windowed rollback/re-scatter that seeds the newcomer).
    pub join_snapshot_bytes: u64,
    /// Admission rounds that included at least one rejoining slave — each
    /// corresponds to a healed partition or recovered pool of nodes.
    pub partitions_healed: u64,
    // ---- slave-reported (folded in at gather) ----
    /// Transfer messages re-sent by slaves because they went unacked.
    pub transfer_resends: u64,
    /// Duplicate transfer deliveries discarded by sequence dedup.
    pub transfer_dups_dropped: u64,
    /// Messages discarded because they belonged to a pre-rollback epoch.
    pub stale_epoch_dropped: u64,
    /// Rollbacks applied by slaves (counts each slave separately).
    pub rollbacks_applied: u64,
    /// Checkpoints shipped by slaves: barrier snapshots, and races'
    /// results.
    pub checkpoints_sent: u64,
    /// Speculation requests computed by survivors.
    pub speculations_computed: u64,
    // ---- master failover ----
    /// Master elections held (a deputy reached quorum and took over).
    pub elections_held: u64,
    /// Virtual time from the winning deputy last hearing the old master to
    /// its promotion (the failover blackout), for the last election held.
    pub takeover_latency: Option<SimDuration>,
    /// Always 0: the master publishes no control-plane replica, a
    /// takeover learns what it needs from the survivors. Kept because the
    /// end-to-end benchmark reports it.
    pub replicas_published: u64,
    /// Bytes the master(s) spent keeping the deputies' election trigger
    /// quiet: the [`MasterPing`](crate::msg::FailoverMsg::MasterPing)s.
    pub replication_bytes: u64,
}

impl RecoveryStats {
    /// Whether any recovery *action* happened at all. The deputies' pings
    /// run in every fault-mode run, faults or not, so they are excluded.
    pub fn any(&self) -> bool {
        let routine = RecoveryStats {
            replication_bytes: self.replication_bytes,
            ..RecoveryStats::default()
        };
        self != &routine
    }

    /// Fold one slave's locally-counted fault statistics in (at gather).
    pub fn absorb(&mut self, s: &SlaveFaultStats) {
        self.transfer_resends += s.transfer_resends;
        self.transfer_dups_dropped += s.transfer_dups_dropped;
        self.stale_epoch_dropped += s.stale_epoch_dropped;
        self.rollbacks_applied += s.rollbacks_applied;
        self.checkpoints_sent += s.checkpoints_sent;
        self.speculations_computed += s.speculations_computed;
    }
}

/// Fault-protocol counters a slave accumulates locally and reports with its
/// `GatherData` (dead slaves' counters are lost with them, which is fine —
/// the numbers are diagnostics, not protocol state).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlaveFaultStats {
    /// Transfer messages re-sent because they went unacked.
    pub transfer_resends: u64,
    /// Duplicate transfer deliveries discarded by sequence dedup.
    pub transfer_dups_dropped: u64,
    /// Messages discarded for belonging to a pre-rollback epoch.
    pub stale_epoch_dropped: u64,
    /// Rollbacks this slave applied.
    pub rollbacks_applied: u64,
    /// Barrier checkpoints this slave shipped.
    pub checkpoints_sent: u64,
    /// Speculation requests this slave computed.
    pub speculations_computed: u64,
}

/// Round-robin a dead slave's work units over the surviving slaves.
///
/// Returns `(survivor_index, units)` pairs in survivor order; survivors that
/// receive nothing are omitted. Deterministic: unit order and survivor order
/// fully define the result.
pub fn redistribute(units: &[usize], survivors: &[usize]) -> Vec<(usize, Vec<usize>)> {
    if survivors.is_empty() || units.is_empty() {
        return Vec::new();
    }
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); survivors.len()];
    for (i, &u) in units.iter().enumerate() {
        buckets[i % survivors.len()].push(u);
    }
    survivors
        .iter()
        .zip(buckets)
        .filter(|(_, b)| !b.is_empty())
        .map(|(&s, b)| (s, b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redistribute_round_robin() {
        let out = redistribute(&[10, 11, 12, 13, 14], &[0, 2]);
        assert_eq!(out, vec![(0, vec![10, 12, 14]), (2, vec![11, 13])]);
    }

    #[test]
    fn redistribute_degenerate() {
        assert!(redistribute(&[], &[0, 1]).is_empty());
        assert!(redistribute(&[1, 2], &[]).is_empty());
        let out = redistribute(&[7], &[3]);
        assert_eq!(out, vec![(3, vec![7])]);
    }

    #[test]
    fn any_reflects_counters() {
        let mut r = RecoveryStats::default();
        assert!(!r.any());
        r.units_restored = 1;
        assert!(r.any());
    }
}
