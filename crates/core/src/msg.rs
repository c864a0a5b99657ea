//! The runtime's message vocabulary.
//!
//! One message enum covers all three execution engines (independent,
//! pipelined, shrinking). Messages carry *real application data* — moved
//! work units contain the actual array slices, boundary messages the actual
//! halo values — so the runtime's gather/scatter and pipeline catch-up
//! logic is exercised for real and results can be verified bit-for-bit
//! against sequential execution.
//!
//! ## Who copies a payload, and when
//!
//! What a payload costs the *modelled* cluster is [`Msg::wire_bytes`],
//! charged to the virtual network on every send. A host-side deep copy on
//! top of that is simulator overhead the virtual clock never sees, so the
//! snapshot plane — checkpoints, the master's bank, rollbacks, snapshot
//! speculation, restores, the fragments a slave holds for a takeover —
//! carries [`SharedUnits`]: each unit's data sits behind an `Arc`, is
//! immutable from the moment it is built, and every hop below hands out the
//! same allocation.
//!
//! | hop | before | now |
//! |-----|--------|-----|
//! | slave `checkpoint_units()` at a barrier | a fresh copy of the live state per `Checkpoint` sent, heartbeat re-sends included | **one copy per barrier state**: re-sends reuse it, only a `BarrierMsg::Refresh` rebuilds it |
//! | a *retired* LU column in that snapshot (`engine_shrinking.rs`) | copied out of the engine and re-wrapped at every barrier, like an active one | **behind its `Arc` from the step it retires**: every later checkpoint, and a `restore` of an id below the resumed step, is a refcount; `gather_units` makes the one copy |
//! | window retention (`send_with(..).clone()`), `replay_window`, the sim kernel's duplicate-fault `msg.clone()` | deep copy each | refcount |
//! | `CheckpointBank::offer` | move | move |
//! | `rollback_snapshot` for `rerange` and `speculate` | whole-snapshot deep copy each | refcount (`rerange`'s per-survivor split moves the same `Arc`s) |
//! | slave `control` stashing a `Rollback`, `SlaveCommon::hold` (the barrier snapshot, an installed `Rollback`), a `Held` reply, takeover seed, the successor's bank | deep copy each | refcount / move |
//! | **the receiver adopting units into mutable engine state** (`restore`, `speculate`, `apply_restore`) | move | **the one real copy** (`Arc::unwrap_or_clone`: free when every other holder has let go) |
//!
//! Deliberately owned, not shared: `TransferMsg` / `MovedUnit` (ownership
//! *moves* slave → slave and a transfer is a few units), the `Boundary` /
//! `SweepOld` / `Pivot` columns (built per send from live state), and
//! `GatherData` (one-shot, unique owner).
//!
//! ## The failover plane
//!
//! The master's pings, the election, the promotion and what a slave
//! answers it with are one nested type, [`FailoverMsg`] under
//! [`Msg::Failover`]: every slave receive point hands it whole to
//! `SlaveCommon::election`, and the master reads only its `Promoted` and
//! `Held`. Nothing of the master's state is shipped ahead of a crash: a
//! takeover learns what it needs from the survivors' `Held` answers. Its election variants are the only tagged
//! messages of the event trace, and the tag grammar lives beside them:
//! [`FailoverMsg::trace_tag`] writes it, [`FailoverMsg::from_tag`] reads it
//! back, and [`FailoverMsg::model_wire`] projects the message onto the
//! election model's wire, which is all `dlb-lint --conform` replays.

use crate::recovery::SlaveFaultStats;
use crate::session::model::EWire;
use dlb_sim::SimDuration;
use std::sync::Arc;

/// The per-unit application payload: one `Vec<f64>` per moved array (in the
/// order given by the compiler's `MovedArray` descriptors). For MM a unit is
/// `[a_row, c_row]`; for SOR `[b_column]`; for LU `[a_column]`.
pub type UnitData = Vec<Vec<f64>>;

/// A unit list of the snapshot plane: ids with shared, immutable payloads
/// (see the module doc's hop table). Cloning one copies no `f64`.
pub type SharedUnits = Vec<(usize, Arc<UnitData>)>;

/// The one array a column-structured unit (SOR, LU) carries; empty when
/// the payload is.
pub fn column(unit: UnitData) -> Vec<f64> {
    unit.into_iter().next().unwrap_or_default()
}

/// Which end of a slave's contiguous block a move takes units from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edge {
    /// Lowest-indexed units.
    Low,
    /// Highest-indexed units.
    High,
}

/// One work-movement order: the addressed slave sends `count` units to
/// slave `to`, taking them from the given `edge` of its local block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MoveOrder {
    pub to: usize,
    pub count: u64,
    pub edge: Edge,
}

/// Master → slave balancing instructions.
#[derive(Clone, Debug, Default)]
pub struct Instructions {
    /// Monotone sequence number (per slave).
    pub seq: u64,
    /// Rollback epoch these orders were computed in. Instructions from an
    /// earlier epoch reference a work distribution that no longer exists
    /// and are discarded wholesale (zero outside the checkpointed engines).
    pub epoch: u64,
    /// Outgoing work movements this slave must perform.
    pub moves: Vec<MoveOrder>,
    /// How many hook instances to skip before the next status exchange
    /// (§4.3: computed from the target balancing period and predicted
    /// computation rate).
    pub hooks_to_skip: u64,
}

/// Slave → master status, sent at load-balancing hooks.
#[derive(Clone, Debug)]
pub struct Status {
    pub slave: usize,
    /// Invocation (outer-loop iteration / sweep / step) the slave is in.
    pub invocation: u64,
    /// Monotone per-slave hook-firing counter. Lets the master discard
    /// duplicated status messages under fault injection.
    pub hook_seq: u64,
    /// Work units completed since the previous status message.
    pub units_done_delta: u64,
    /// Elapsed virtual time since the previous status message.
    pub elapsed: SimDuration,
    /// Units this slave owns that still have future work (§4.7).
    pub active_units: u64,
    /// Highest instruction sequence number this slave has applied. Lets the
    /// master tell whether `active_units` already reflects the orders it
    /// issued earlier (unapplied orders must still be discounted).
    pub last_applied_seq: u64,
    /// Rollback epoch this slave is operating in (checkpointed engines).
    /// The master discards reports from earlier epochs.
    pub epoch: u64,
    /// Per-destination transfer-channel sequence counter: `sent_to[d]` is
    /// the highest transfer sequence this slave has allocated on its
    /// channel to slave `d`.
    pub sent_to: Vec<u64>,
    /// Per-source transfer-channel watermark: `received_from[s]` is the
    /// largest `k` such that every transfer `1..=k` from slave `s` has been
    /// applied here. Per-sender resolution lets the master match
    /// acknowledgements to the orders it issued even when transfers from
    /// different senders race, and the pair of counters settles each
    /// channel exactly (`sent_to[a][b] == received_from[b][a]`).
    pub received_from: Vec<u64>,
    /// Measured elapsed cost of the most recent work movement as
    /// `(units_moved, elapsed)`, if any (feeds the frequency controller's
    /// movement-cost bound and the per-unit movement estimate).
    pub move_cost_sample: Option<(u64, SimDuration)>,
    /// Measured elapsed cost of the previous hook's master interaction
    /// (feeds the frequency controller's interaction-cost bound).
    pub interaction_cost_sample: Option<SimDuration>,
}

/// One moved work unit with its iteration state.
#[derive(Clone, Debug)]
pub struct MovedUnit {
    /// Global unit index.
    pub id: usize,
    /// Independent engine: already computed in the tagged invocation.
    pub done: bool,
    /// Shrinking engine: the unit has been updated through this step.
    /// Pipelined engine: blocks completed this sweep (the unit's phase).
    pub updated_through: u64,
    /// The application data (one vector per moved array).
    pub data: UnitData,
    /// Pipelined engine: sweep-start snapshot of the unit's values (needed
    /// as the right halo of its left neighbour).
    pub old: Option<Vec<f64>>,
}

/// Slave → slave work transfer.
#[derive(Clone, Debug)]
pub struct TransferMsg {
    pub from: usize,
    /// Monotone per-channel (sender → receiver pair) sequence number. The
    /// receiver deduplicates by it and acknowledges with a contiguous
    /// watermark ([`Msg::TransferAck`]); the sender retains the transfer
    /// until acknowledged and re-sends it on silence.
    pub seq: u64,
    /// Rollback epoch the transfer was sent in. A transfer from another
    /// epoch is discarded without counting: after a rollback the old
    /// distribution no longer exists.
    pub epoch: u64,
    /// Invocation / sweep / step this transfer belongs to.
    pub invocation: u64,
    /// Pipelined engine: the sender's phase when the move takes effect; the
    /// receiver incorporates the columns when its own phase reaches this
    /// value (set-aside) or catches them up if it is already past (§4.5).
    pub effective_block: u64,
    pub units: Vec<MovedUnit>,
    /// Pipelined engine, right-to-left moves: sweep-start values of the
    /// sender's new first column, which becomes the receiver's right halo.
    pub right_old: Option<Vec<f64>>,
}

/// The failover plane (see the module doc): what keeps a master in charge
/// when the first one dies, consumed whole by `SlaveCommon::election`.
#[derive(Clone, Debug, PartialEq)]
pub enum FailoverMsg {
    /// Master → deputies: pure liveness ping, the master-side analogue of
    /// [`Msg::Alive`]. Defers the deputies' election trigger.
    MasterPing { term: u64 },
    /// Deputy → deputies: the sender stands for master in `term`.
    Candidacy { term: u64, candidate: usize },
    /// Deputy → candidate: vote grant for `term`. A deputy votes at most
    /// once per term, which makes the election winner unique per term.
    Vote {
        term: u64,
        voter: usize,
        candidate: usize,
    },
    /// Election winner → everyone (slaves and the old master): slave
    /// `master_idx` is the master for `term`. Receivers redirect their
    /// master channel; a superseded master exits silently.
    Promoted { term: u64, master_idx: usize },
    /// Slave → new master, in answer to every `Promoted` of the term it
    /// adopted: what the slave knows. `incarnation` is its life, the one
    /// the new master puts on record for the slot; `invocation` the newest
    /// invocation it was released into or rolled back to, where a
    /// re-scatter takeover resumes; `fragments` the snapshot states it last
    /// held, `(invocation, units)`, from which a rollback takeover rebuilds
    /// its restart point (empty for a pattern without snapshots).
    Held {
        slave: usize,
        incarnation: u64,
        invocation: u64,
        fragments: Vec<(u64, SharedUnits)>,
    },
}

impl FailoverMsg {
    /// Stable trace tag for the event-trace format (`DLB_TRACE_EVENTS`,
    /// [`dlb_sim::SimBuilder::record_trace`]). Only the election messages
    /// are tagged; everything else traces untagged. The key=value grammar
    /// here is part of the trace format: changing it breaks recorded traces.
    pub fn trace_tag(&self) -> Option<String> {
        match self {
            Self::Candidacy { term, candidate } => {
                Some(format!("candidacy term={term} cand={candidate}"))
            }
            Self::Vote {
                term,
                voter,
                candidate,
            } => Some(format!("vote term={term} voter={voter} cand={candidate}")),
            Self::Promoted { term, master_idx } => {
                Some(format!("promoted term={term} winner={master_idx}"))
            }
            Self::MasterPing { .. } | Self::Held { .. } => None,
        }
    }

    /// The inverse of [`FailoverMsg::trace_tag`]. `Ok(None)` = not an
    /// election tag; `Err` = an election keyword with a malformed,
    /// non-numeric, unknown or missing field.
    pub fn from_tag(tag: &str) -> Result<Option<Self>, String> {
        let mut words = tag.split_whitespace();
        let kind = words.next().unwrap_or_default();
        if !matches!(kind, "candidacy" | "vote" | "promoted") {
            return Ok(None);
        }
        let mut fields = Vec::new();
        for kv in words {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| format!("malformed tag field {kv:?} in {tag:?}"))?;
            let n: u64 = v
                .parse()
                .map_err(|_| format!("non-numeric tag field {kv:?} in {tag:?}"))?;
            if !matches!(k, "term" | "cand" | "voter" | "winner") {
                return Err(format!("unknown tag field {kv:?} in {tag:?}"));
            }
            fields.push((k, n));
        }
        let field = |key: &str| match fields.iter().rev().find(|(k, _)| *k == key) {
            Some(&(_, n)) => Ok(n),
            None => Err(format!("tag missing {key}: {tag:?}")),
        };
        let term = field("term")?;
        Ok(Some(match kind {
            "candidacy" => Self::Candidacy {
                term,
                candidate: field("cand")? as usize,
            },
            "vote" => Self::Vote {
                term,
                voter: field("voter")? as usize,
                candidate: field("cand")? as usize,
            },
            _ => Self::Promoted {
                term,
                master_idx: field("winner")? as usize,
            },
        }))
    }

    /// This message as the election model's wire value on its way to
    /// deputy `to`; `None` for the pings and the answers the model
    /// abstracts away.
    pub fn model_wire(&self, to: usize) -> Option<EWire> {
        Some(match *self {
            Self::Candidacy { term, candidate } => EWire::Candidacy {
                to,
                term,
                candidate,
            },
            Self::Vote { term, voter, .. } => EWire::Vote { to, term, voter },
            Self::Promoted { term, master_idx } => EWire::Promoted {
                to,
                term,
                winner: master_idx,
            },
            Self::MasterPing { .. } | Self::Held { .. } => return None,
        })
    }
}

/// All runtime messages.
#[derive(Clone, Debug)]
pub enum Msg {
    // ---- master -> slaves ----
    /// Initial assignment: per-slave `[lo, hi)` unit ranges, the actor ids
    /// of all slaves (for direct slave↔slave sends), and the pipelined
    /// block size chosen at startup.
    Start {
        slaves: Vec<dlb_sim::ActorId>,
        assignment: Vec<(usize, usize)>,
        block_rows: u64,
    },
    Instructions(Instructions),
    /// Barrier release: begin the given invocation (sweep / step / rep).
    InvocationStart {
        invocation: u64,
    },
    /// Request final data; slaves answer with `GatherData` and terminate.
    Gather,
    // ---- slave -> master ----
    Status(Status),
    /// The slave has no local work left in `invocation`. `metric` is the
    /// slave's accumulated convergence contribution for this invocation
    /// (cumulative; the master keeps the latest value per slave).
    InvocationDone {
        slave: usize,
        invocation: u64,
        /// Rollback epoch (checkpointed engines; zero elsewhere).
        epoch: u64,
        /// Per-destination transfer sequence counters (see [`Status`]).
        sent_to: Vec<u64>,
        /// Per-source transfer watermarks (see [`Status`]).
        received_from: Vec<u64>,
        metric: f64,
        /// Master-channel acknowledgement watermark: the largest `k` such
        /// that this slave has applied every windowed master message
        /// (`Restore` / `Rollback` / `Speculate` / `SpecCommit` /
        /// `SpecCancel`) with sequence `1..=k`. Zero when none were ever
        /// addressed to it.
        restore_seq: u64,
        /// Unit ids this slave currently owns — the master's (possibly
        /// stale) ownership map, which seeds speculative re-execution when
        /// this slave later falls silent.
        owned_ids: Vec<usize>,
    },
    GatherData {
        slave: usize,
        units: Vec<(usize, UnitData)>,
        /// Slave-local fault-protocol counters, folded into
        /// [`crate::recovery::RecoveryStats`] at gather.
        fault_stats: SlaveFaultStats,
    },
    // ---- slave <-> slave ----
    Transfer(TransferMsg),
    /// Receiver → sender: contiguous applied watermark for the transfer
    /// channel `from → me`. Sent on every transfer delivery (fresh or
    /// duplicate), so a lost ack is repaired by the sender's re-send.
    TransferAck {
        /// The acknowledging slave (the transfer receiver).
        from: usize,
        /// Epoch the ack belongs to; stale-epoch acks are discarded.
        epoch: u64,
        /// Largest `k` such that transfers `1..=k` on this channel applied.
        watermark: u64,
    },
    /// Pipelined: new values of column `col` (the sender's last column)
    /// for one row block. Tagged with the column id so a receiver whose
    /// left neighbour changed mid-sweep never consumes stale halos.
    Boundary {
        sweep: u64,
        block: u64,
        col: usize,
        values: Vec<f64>,
    },
    /// Pipelined: sweep-start old values of the sender's first column
    /// (the receiver's right halo for the whole sweep). Tagged with the
    /// column id so a receiver whose right neighbour changed (movement or
    /// eviction) never adopts a halo for the wrong boundary.
    SweepOld {
        sweep: u64,
        col: usize,
        values: Vec<f64>,
    },
    /// Shrinking: the pivot unit's data for `step`, broadcast by its owner.
    Pivot {
        step: u64,
        values: Vec<f64>,
    },
    /// Shrinking, fault mode: slave `from` is blocked on the pivot of
    /// `step` and asks a peer for it again, once per silent heartbeat slice
    /// (a fault-free run sends none). A peer that holds it, in its window
    /// or as the retired column it rebuilds the payload from, answers with
    /// an ordinary [`Msg::Pivot`]; one that does not stays silent, and the
    /// next slice asks the next peer.
    PivotWanted {
        step: u64,
        from: usize,
    },
    // ---- fault-tolerance protocol ----
    /// Master → slave: adopt these units of a dead slave. `invocation` is the
    /// current barrier; the receiver replays each unit's computation up to it.
    /// `seq` is a monotone per-destination counter acknowledged via
    /// `InvocationDone::restore_seq`; unacknowledged restores are re-sent, and
    /// the receiver deduplicates by sequence number.
    Restore {
        seq: u64,
        invocation: u64,
        units: SharedUnits,
    },
    /// Master → slave: you were declared dead; terminate quietly. Protects a
    /// falsely-suspected slave from double-computing units that were already
    /// re-scattered to survivors.
    Evict,
    /// Master → survivors: the named peer was declared dead. Each survivor
    /// closes its transfer channels with the peer (re-owning in-flight
    /// units) and answers with an [`Msg::OwnReport`]; re-sent on the nudge
    /// timer until the report arrives.
    Evicted {
        slave: usize,
    },
    /// Survivor → master: authoritative unit ownership after fencing off
    /// the named dead peer. The master restores exactly the units no
    /// survivor reports.
    OwnReport {
        slave: usize,
        /// Which eviction this report answers.
        about: usize,
        ids: Vec<usize>,
    },
    /// Slave → master (checkpointed engines): full local state at the
    /// barrier that completed invocation `invocation - 1` — i.e. the state
    /// from which invocation `invocation` starts. Best-effort: a dropped
    /// checkpoint only means a deeper rollback.
    Checkpoint {
        slave: usize,
        invocation: u64,
        units: SharedUnits,
    },
    /// Master → slave (checkpointed engines): discard all engine state,
    /// adopt these units, and resume computing from invocation
    /// `invocation` in the given epoch with the given surviving peers.
    /// Windowed like `Restore` (acknowledged via
    /// `InvocationDone::restore_seq`).
    Rollback {
        seq: u64,
        epoch: u64,
        invocation: u64,
        /// Live slave indices, ascending — the receiver derives its
        /// pipeline neighbours from its position in this list.
        survivors: Vec<usize>,
        units: SharedUnits,
    },
    /// Master → idle survivor: speculatively re-execute a silent suspect's
    /// work, holding the results aside until the master commits or
    /// cancels. For the independent engine `units` are the suspect's units
    /// to recompute in `invocation`; for the checkpointed engines `units`
    /// are the full banked snapshot of invocation `invocation`, which the
    /// survivor advances by one invocation and returns as a
    /// [`Msg::Checkpoint`] for `invocation + 1`. Windowed like `Restore`.
    Speculate {
        seq: u64,
        invocation: u64,
        units: SharedUnits,
    },
    /// Master → survivor: the suspect was evicted — adopt the named units
    /// from the speculation buffer of `spec_seq` and drop the rest.
    SpecCommit {
        seq: u64,
        spec_seq: u64,
        ids: Vec<usize>,
    },
    /// Master → survivor: the suspect spoke again — drop the speculation
    /// buffer of `spec_seq` entirely.
    SpecCancel {
        seq: u64,
        spec_seq: u64,
    },
    /// Slave → master (fault mode): pure liveness ping. Sent while a slave
    /// is blocked waiting on a *peer* (e.g. a pipeline halo from a crashed
    /// neighbour) and therefore has no protocol message of its own to
    /// re-send. Refreshes the master's suspicion timer and cancels any
    /// speculation on the sender; carries no other state. `incarnation` is
    /// the sender's admission incarnation (see [`Msg::Join`]): the master
    /// credits the ping only when it matches its membership table, so a
    /// delayed or duplicated ping from a rejoiner's *earlier* life cannot
    /// keep the new life looking alive (zombie fencing).
    Alive {
        slave: usize,
        incarnation: u64,
    },
    // ---- elastic membership ----
    /// Slave → master: admission request — a newcomer joining mid-run, or a
    /// previously evicted slave rejoining after a heal. `incarnation` is
    /// the proposed admission incarnation (one past the joiner's previous
    /// life; newcomers propose 1). The master queues the request and admits
    /// at the next settled barrier with an epoch-bumping windowed
    /// re-scatter ([`Msg::Rollback`]); the Rollback doubles as the
    /// admission acknowledgement. Re-sent under the joiner's bounded
    /// backoff until admitted or refused.
    Join {
        slave: usize,
        incarnation: u64,
    },
    /// Master → joiner: the admission request was refused (the run is
    /// gathering, finished, or the proposal was stale). The joiner backs
    /// off and retries until its attempt budget runs out
    /// ([`crate::error::ProtocolError::JoinRefused`]).
    JoinRefuse {
        slave: usize,
    },
    /// Master → slaves: the run failed; terminate quietly.
    Abort,
    /// Slave → master: fatal protocol error; the run cannot continue.
    SlaveError {
        slave: usize,
        error: crate::error::ProtocolError,
    },
    /// Master → slave: your `GatherData` arrived; safe to terminate.
    GatherAck,
    /// Master failover: pings, election, promotion, the survivors' answers.
    Failover(FailoverMsg),
}

impl Msg {
    /// Channel control (transfer acks, peer evictions, rollbacks) and the
    /// failover plane: what every slave receive point services on the side,
    /// whatever it is waiting for, through `SlaveCommon::service`.
    pub(crate) fn is_channel_control(&self) -> bool {
        matches!(
            self,
            Msg::TransferAck { .. } | Msg::Evicted { .. } | Msg::Rollback { .. } | Msg::Failover(_)
        )
    }

    /// The windowed master → slave messages a strategy applies itself
    /// (`Rollback`, the fifth on that channel, is channel control).
    pub(crate) fn is_master_chan(&self) -> bool {
        matches!(
            self,
            Msg::Restore { .. }
                | Msg::Speculate { .. }
                | Msg::SpecCommit { .. }
                | Msg::SpecCancel { .. }
        )
    }

    /// Everything but a pivot broadcast. A pivot payload is a pure function
    /// of step-start state, so one sent before a rollback is bit-identical
    /// to its replay: it carries no epoch, is broadcast once (and sent again
    /// only to a peer that asks), and is never stale. A receive that runs
    /// with no strategy to bank it (the join handshake and the park before
    /// it, the rescue and gather-ack waits) takes only what can go stale and
    /// leaves the rest queued for the step that will ask for it. A
    /// [`Msg::PivotWanted`] can go stale: such a receive has nothing to
    /// answer it from, and the asker asks again on its next silent slice.
    pub(crate) fn can_go_stale(&self) -> bool {
        !matches!(self, Msg::Pivot { .. })
    }

    /// Approximate wire size in bytes, used to charge the network model.
    pub fn wire_bytes(&self) -> u64 {
        const HDR: u64 = 32;
        let f64s = |v: &Vec<f64>| 8 * v.len() as u64;
        let unit = |d: &UnitData| 8 + d.iter().map(f64s).sum::<u64>();
        let shared = |units: &SharedUnits| units.iter().map(|(_, d)| unit(d)).sum::<u64>();
        match self {
            Msg::Start { assignment, .. } => HDR + 16 * assignment.len() as u64,
            Msg::Instructions(i) => HDR + 24 * i.moves.len() as u64,
            Msg::InvocationStart { .. } => HDR + 8,
            Msg::Gather => HDR,
            Msg::InvocationDone {
                sent_to,
                received_from,
                owned_ids,
                ..
            } => HDR + 8 * (sent_to.len() + received_from.len() + owned_ids.len()) as u64,
            Msg::Status(st) => HDR + 64 + 8 * (st.sent_to.len() + st.received_from.len()) as u64,
            Msg::GatherData { units, .. } => {
                HDR + 48 + units.iter().map(|(_, d)| unit(d)).sum::<u64>()
            }
            Msg::Transfer(t) => {
                HDR + t.right_old.as_ref().map(f64s).unwrap_or(0)
                    + t.units
                        .iter()
                        .map(|u| {
                            24 + u.data.iter().map(f64s).sum::<u64>()
                                + u.old.as_ref().map(f64s).unwrap_or(0)
                        })
                        .sum::<u64>()
            }
            Msg::Boundary { values, .. }
            | Msg::SweepOld { values, .. }
            | Msg::Pivot { values, .. } => HDR + f64s(values),
            Msg::Restore { units, .. }
            | Msg::Checkpoint { units, .. }
            | Msg::Speculate { units, .. } => HDR + shared(units),
            Msg::Rollback {
                survivors, units, ..
            } => HDR + 8 * survivors.len() as u64 + shared(units),
            Msg::OwnReport { ids, .. } | Msg::SpecCommit { ids, .. } => HDR + 8 * ids.len() as u64,
            Msg::Evict
            | Msg::Evicted { .. }
            | Msg::Abort
            | Msg::GatherAck
            | Msg::TransferAck { .. }
            | Msg::SpecCancel { .. } => HDR,
            Msg::Alive { .. } | Msg::JoinRefuse { .. } => HDR + 8,
            Msg::Join { .. } | Msg::PivotWanted { .. } => HDR + 16,
            Msg::SlaveError { error, .. } => HDR + 8 + error.payload_bytes(),
            // Two scalars, then each fragment's invocation and units.
            Msg::Failover(FailoverMsg::Held { fragments, .. }) => {
                HDR + 16
                    + fragments
                        .iter()
                        .map(|(_, units)| 8 + shared(units))
                        .sum::<u64>()
            }
            Msg::Failover(FailoverMsg::MasterPing { .. }) => HDR + 8,
            Msg::Failover(FailoverMsg::Promoted { .. } | FailoverMsg::Candidacy { .. }) => HDR + 16,
            Msg::Failover(FailoverMsg::Vote { .. }) => HDR + 24,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_scale_with_payload() {
        let small = Msg::Boundary {
            sweep: 0,
            block: 0,
            col: 0,
            values: vec![0.0; 10],
        };
        let big = Msg::Boundary {
            sweep: 0,
            block: 0,
            col: 0,
            values: vec![0.0; 1000],
        };
        assert_eq!(small.wire_bytes(), 32 + 80);
        assert_eq!(big.wire_bytes(), 32 + 8000);
    }

    #[test]
    fn transfer_counts_all_unit_arrays() {
        let t = Msg::Transfer(TransferMsg {
            from: 0,
            seq: 1,
            epoch: 0,
            invocation: 0,
            effective_block: 0,
            units: vec![MovedUnit {
                id: 3,
                done: false,
                updated_through: 0,
                data: vec![vec![0.0; 100], vec![0.0; 100]],
                old: Some(vec![0.0; 100]),
            }],
            right_old: None,
        });
        assert_eq!(t.wire_bytes(), 32 + 24 + 3 * 800);
    }

    #[test]
    fn control_messages_are_small() {
        assert!(Msg::Gather.wire_bytes() < 64);
        assert!(
            Msg::Status(Status {
                slave: 0,
                invocation: 0,
                hook_seq: 0,
                units_done_delta: 0,
                elapsed: SimDuration::ZERO,
                active_units: 0,
                last_applied_seq: 0,
                epoch: 0,
                sent_to: Vec::new(),
                received_from: Vec::new(),
                move_cost_sample: None,
                interaction_cost_sample: None,
            })
            .wire_bytes()
                < 128
        );
    }

    #[test]
    fn slave_error_wire_cost_tracks_its_payload() {
        use crate::error::ProtocolError;
        // The old flat `HDR + 64` estimate undercounted long diagnostics;
        // the cost now follows the carried error's actual payload.
        let small = Msg::SlaveError {
            slave: 0,
            error: ProtocolError::Aborted,
        };
        let detail = "x".repeat(500);
        let big = Msg::SlaveError {
            slave: 0,
            error: ProtocolError::Inconsistent {
                detail: detail.clone(),
            },
        };
        assert!(small.wire_bytes() < 32 + 64);
        assert!(
            big.wire_bytes() >= 32 + detail.len() as u64,
            "long diagnostics must be charged: {}",
            big.wire_bytes()
        );
        let nested = Msg::SlaveError {
            slave: 0,
            error: ProtocolError::SlaveFailed {
                slave: 3,
                error: Box::new(ProtocolError::Inconsistent { detail }),
            },
        };
        assert!(nested.wire_bytes() > big.wire_bytes() - 32);
    }

    /// Slave 0's answer to a `Promoted`, first life at invocation 3: the
    /// snapshot states it holds.
    fn held(fragments: Vec<(u64, SharedUnits)>) -> Msg {
        Msg::Failover(FailoverMsg::Held {
            slave: 0,
            incarnation: 0,
            invocation: 3,
            fragments,
        })
    }

    /// The barrier release for `invocation`.
    fn release(invocation: u64) -> Msg {
        Msg::InvocationStart { invocation }
    }

    /// The control plane's prices, to the byte: they are what the virtual
    /// network charges, so every trace hash and virtual time rests on them.
    /// A `Held` reply is its two scalars and a word per fragment on top of
    /// the units it carries.
    #[test]
    fn control_plane_messages_cost_their_recorded_bytes() {
        let rollback = unit_carriers(&two_units()).swap_remove(3);
        assert!(matches!(rollback, Msg::Rollback { .. }));
        let costs = [
            release(3),
            rollback,
            held(Vec::new()),
            held(vec![(2, two_units()), (3, two_units())]),
        ]
        .map(|m| m.wire_bytes());
        assert_eq!(costs, [40, 2472, 48, 48 + 2 * (8 + 2416)]);
    }

    /// Two units of one and two arrays: 8 + 800 and 8 + 1600 wire bytes.
    fn two_units() -> SharedUnits {
        vec![
            (3, Arc::new(vec![vec![0.0; 100]])),
            (4, Arc::new(vec![vec![0.0; 100], vec![0.0; 100]])),
        ]
    }

    /// One message of every variant that carries [`SharedUnits`].
    fn unit_carriers(units: &SharedUnits) -> Vec<Msg> {
        let units = || units.clone();
        vec![
            Msg::Restore {
                seq: 1,
                invocation: 2,
                units: units(),
            },
            Msg::Checkpoint {
                slave: 0,
                invocation: 2,
                units: units(),
            },
            Msg::Speculate {
                seq: 1,
                invocation: 2,
                units: units(),
            },
            Msg::Rollback {
                seq: 1,
                epoch: 1,
                invocation: 2,
                survivors: vec![0, 1, 2],
                units: units(),
            },
            held(vec![(2, units())]),
        ]
    }

    #[test]
    fn shared_units_cost_the_wire_what_owned_ones_did() {
        // The virtual network is charged for the content, whoever holds it.
        let wire: Vec<u64> = unit_carriers(&two_units())
            .iter()
            .map(Msg::wire_bytes)
            .collect();
        let payload = (8 + 800) + (8 + 1600);
        assert_eq!(
            wire,
            [
                32 + payload,
                32 + payload,
                32 + payload,
                32 + 8 * 3 + payload,
                48 + 8 + payload,
            ]
        );
        // The owned list a gather carries prices a unit the same way.
        let owned = two_units()
            .into_iter()
            .map(|(id, d)| (id, Arc::unwrap_or_clone(d)))
            .collect();
        let gather = Msg::GatherData {
            slave: 0,
            units: owned,
            fault_stats: SlaveFaultStats::default(),
        };
        assert_eq!(gather.wire_bytes(), 32 + 48 + payload);
    }

    #[test]
    fn cloning_a_unit_carrier_shares_its_units() {
        let units = two_units();
        let carried = |m: &Msg| -> SharedUnits {
            match m {
                Msg::Restore { units, .. }
                | Msg::Checkpoint { units, .. }
                | Msg::Speculate { units, .. }
                | Msg::Rollback { units, .. } => units.clone(),
                Msg::Failover(FailoverMsg::Held { fragments, .. }) => fragments[0].1.clone(),
                other => unreachable!("{other:?} carries no shared units"),
            }
        };
        for msg in unit_carriers(&units) {
            // Window retention, a replay, a duplicate fault: all `clone`.
            let copy = msg.clone();
            for (mine, theirs) in units.iter().zip(carried(&copy)) {
                assert!(Arc::ptr_eq(&mine.1, &theirs.1), "{msg:?}");
            }
        }
        // `units` itself is the only holder left: nothing was copied aside.
        assert!(units.iter().all(|(_, d)| Arc::strong_count(d) == 1));
    }

    /// One message of each election variant: the three the trace tags.
    fn election() -> [FailoverMsg; 3] {
        [
            FailoverMsg::Candidacy {
                term: 1,
                candidate: 0,
            },
            FailoverMsg::Vote {
                term: 1,
                voter: 2,
                candidate: 0,
            },
            FailoverMsg::Promoted {
                term: 1,
                master_idx: 0,
            },
        ]
    }

    #[test]
    fn election_messages_are_small() {
        for m in [FailoverMsg::MasterPing { term: 1 }]
            .into_iter()
            .chain(election())
        {
            let m = Msg::Failover(m);
            assert!(m.wire_bytes() <= 64, "{m:?} must stay control-sized");
        }
    }

    /// The tag strings are the trace format: pinned, and read back whole.
    #[test]
    fn election_tags_round_trip_and_answers_are_untagged() {
        let tags = election().map(|m| m.trace_tag().expect("tagged"));
        assert_eq!(
            tags,
            [
                "candidacy term=1 cand=0",
                "vote term=1 voter=2 cand=0",
                "promoted term=1 winner=0",
            ]
        );
        for (m, tag) in election().into_iter().zip(&tags) {
            assert_eq!(FailoverMsg::from_tag(tag), Ok(Some(m)));
        }
        let Msg::Failover(answer) = held(Vec::new()) else {
            unreachable!("failover traffic")
        };
        assert_eq!(answer.trace_tag(), None);
        assert_eq!(FailoverMsg::MasterPing { term: 1 }.trace_tag(), None);
    }

    #[test]
    fn a_malformed_election_tag_is_an_error_and_a_foreign_one_no_tag() {
        for bad in [
            "vote term=1 voter=1 cand",
            "vote term=x voter=1 cand=0",
            "vote term=1 voter=1 cand=0 to=2",
            "candidacy cand=0",
            "candidacy term=1 cand=0 fresh=4",
            "vote term=1 voter=1",
            "promoted term=1",
        ] {
            assert!(FailoverMsg::from_tag(bad).is_err(), "{bad}");
        }
        for foreign in ["", "answer", "some-future-tag x=1"] {
            assert_eq!(FailoverMsg::from_tag(foreign), Ok(None), "{foreign}");
        }
    }

    /// The kernel's heap holds a `Msg` per in-flight message: nesting the
    /// failover plane made no entry larger (152 B before it, on 64-bit).
    #[test]
    fn a_msg_is_no_larger_than_before_the_failover_plane_nested() {
        assert_eq!(std::mem::size_of::<Msg>(), 152);
    }
}
