//! Shared slave-side machinery: hook bookkeeping, status exchange,
//! instruction application (§4.2, §3.2), and the sequenced slave↔slave
//! transfer channels that make work migration crash-safe.
//!
//! The compiler inserts *hooks* — conditional calls to this code — into the
//! generated loop nest. A hook usually just decrements a counter (we charge
//! a tiny CPU cost for the check); when it fires, the slave measures the
//! elapsed time and work since the last firing, sends a [`Status`], and —
//! depending on the interaction mode — either applies previously received
//! instructions (pipelined, Fig. 2b) or blocks for fresh ones
//! (synchronous, Fig. 2a).
//!
//! Work movement rides per-peer [`TransferWindow`] channels: every
//! outbound transfer gets a per-channel sequence number and is retained
//! until the receiver's [`Msg::TransferAck`] watermark covers it; inbound
//! transfers are deduplicated by sequence number. When a peer is evicted
//! the channel closes and the unacknowledged payloads are *re-owned* (they
//! surface in [`SlaveCommon::reclaimed`] for the engine to reintegrate).
//!
//! A blocked slave waits in one loop, [`SlaveCommon::wait`], and every
//! receive point ends in one ladder, [`SlaveCommon::service`]; what the four
//! waits do differently is the table at [`Blocked`] (DESIGN.md §11).

use crate::balancer::InteractionMode;
use crate::error::{slave_who, FaultToleranceConfig, ProtocolError};
use crate::msg::{
    FailoverMsg, Instructions, MoveOrder, MovedUnit, Msg, SharedUnits, Status, TransferMsg,
};
use crate::protocol::{AckTracker, TransferWindow};
use crate::recovery::SlaveFaultStats;
use crate::session::replica::{DeputyState, TakeoverSeed, DEPUTIES};
use dlb_sim::{ActorId, CpuWork, Envelope, MailCtx, SimDuration, SimTime};

/// CPU charged per hook check (the counter decrement of a skipped hook).
pub(crate) const HOOK_CHECK_CPU: CpuWork = CpuWork::from_micros(10);
/// Fault mode: deadline for any single blocking protocol step on a slave
/// (pipelined/shrinking waits, start-up).
pub(crate) const OP_TIMEOUT: SimDuration = SimDuration::from_secs(30);
/// Heartbeats an idle slave tolerates with no traffic at all before giving
/// up on the master.
const GIVE_UP_TRIES: u32 = 90;
/// Heartbeats a slave waits for a gather acknowledgement before assuming its
/// data arrived and exiting.
const GATHER_PATIENCE: u32 = 10;

/// Contents of the `Start` message: slave ids, initial block assignment,
/// and rows per block.
pub type StartInfo = (Vec<ActorId>, Vec<(usize, usize)>, u64);

/// A stashed [`Msg::Rollback`] payload, surfaced to the slave runner's
/// restart loop via [`ProtocolError::RolledBack`].
#[derive(Clone, Debug)]
pub struct RollbackInfo {
    pub epoch: u64,
    pub invocation: u64,
    pub survivors: Vec<usize>,
    pub units: SharedUnits,
}

/// What an engine detaches for one movement order: the units, and — for the
/// pipelined engine's right-to-left moves — the sweep-start values of the
/// sender's new first column ([`TransferMsg::right_old`]).
pub(crate) type Detached = (Vec<MovedUnit>, Option<Vec<f64>>);

/// Wait for the initial `Start` message (before a [`SlaveCommon`] exists).
pub async fn recv_start(
    ctx: &MailCtx<Msg>,
    idx: usize,
    fault_mode: bool,
) -> Result<StartInfo, ProtocolError> {
    let pred = |m: &Msg| matches!(m, Msg::Start { .. } | Msg::Abort | Msg::Evict);
    let env = if fault_mode {
        ctx.recv_match_deadline(pred, ctx.now() + OP_TIMEOUT)
            .await
            .ok_or_else(|| timed_out(idx, "start message", ctx.now()))?
    } else {
        ctx.recv_match(pred).await
    };
    match env.msg {
        Msg::Start {
            slaves,
            assignment,
            block_rows,
        } => Ok((slaves, assignment, block_rows)),
        Msg::Abort => Err(ProtocolError::Aborted),
        Msg::Evict => Err(ProtocolError::Evicted { slave: idx }),
        _ => unreachable!(),
    }
}

/// Deterministic jitter for join-retry backoff: slaves have no RNG stream
/// of their own (randomness is owned by the simulator's fault layer), so
/// the jitter is a hash of `(slave, attempt)` — distinct per slave and per
/// retry, identical across runs. Bounded to a quarter of the base backoff.
fn join_jitter(idx: usize, attempt: u32, base: SimDuration) -> SimDuration {
    let mut x = ((idx as u64) << 32) ^ (attempt as u64) ^ 0x9e37_79b9_7f4a_7c15;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    SimDuration::from_micros((x % 256) * (base.micros() / 4) / 256)
}

/// The one constructor of a slave-side wait's `Timeout`.
fn timed_out(idx: usize, waiting_for: &'static str, at: SimTime) -> ProtocolError {
    ProtocolError::Timeout {
        who: slave_who(idx),
        waiting_for,
        at,
    }
}

/// What a slave is blocked on: a row of the wait table below (with its
/// reasons, DESIGN.md §11).
pub(crate) enum Blocked {
    /// On a peer's (or the master's) message for one protocol step.
    OnPeer,
    /// At the invocation barrier, done report sent.
    AtBarrier,
    /// Wedged and reported, until the master's rollback.
    Wedged,
    /// Result shipped, until the master acknowledges it.
    GatherAck,
}

/// What a silent slice says to the master, last of all.
enum Says {
    /// [`Msg::Alive`], while inside one `suspicion` window of the wait's start.
    AliveForOneWindow,
    /// [`Msg::Alive`].
    Alive,
    /// Whatever the caller does with the `None` it is handed.
    CallersReport,
    Nothing,
}

/// When a wait ends for want of traffic (in a `Timeout`, but for `Quietly`).
enum GivesUp {
    /// This long after it began; the deadline also clips the last slice.
    At(SimDuration),
    /// After more than this many silent slices in a row.
    InARow(u32),
    /// After more than this many silent slices in all.
    InAll(u32),
    /// After more than this many silent slices in all, with `None`.
    Quietly(u32),
}

struct Row {
    /// What leaves the mailbox beside `Abort`, `Evict` and what `pred` asks for.
    receives: fn(&Msg) -> bool,
    says: Says,
    gives_up: GivesUp,
}

impl Blocked {
    #[rustfmt::skip]
    fn row(&self) -> Row {
        use {GivesUp::*, Says::*};
        match self {
            Blocked::OnPeer    => Row { receives: Msg::is_channel_control,                 says: AliveForOneWindow, gives_up: At(OP_TIMEOUT) },
            Blocked::AtBarrier => Row { receives: |m| !m.is_halo(),                        says: CallersReport,     gives_up: InARow(GIVE_UP_TRIES) },
            Blocked::Wedged    => Row { receives: |m| m.can_go_stale() && !m.is_halo(),    says: Alive,             gives_up: InAll(GIVE_UP_TRIES) },
            Blocked::GatherAck => Row { receives: Msg::can_go_stale,                       says: Nothing,           gives_up: Quietly(GATHER_PATIENCE) },
        }
    }
}

/// A blocked wait in progress: its row, the context its `Timeout` would
/// carry, when it began, and the silent slices counted against it.
pub(crate) struct Wait {
    on: Blocked,
    what: &'static str,
    since: SimTime,
    silent: u32,
    /// The wait-for edge, where the waiter knows it (ROADMAP 1(b)): the
    /// pivot step an `OnPeer` wait asks a peer for in each silent slice.
    pivot: Option<u64>,
}

impl Wait {
    pub(crate) fn new(on: Blocked, what: &'static str, since: SimTime) -> Wait {
        Wait {
            on,
            what,
            since,
            silent: 0,
            pivot: None,
        }
    }

    /// A [`Blocked::OnPeer`] wait for what `what` names.
    pub(crate) fn on_peer(what: &'static str, since: SimTime) -> Wait {
        Wait::new(Blocked::OnPeer, what, since)
    }

    /// The [`Blocked::OnPeer`] wait for the pivot of `step`, which asks a
    /// live peer for it in each silent slice.
    pub(crate) fn for_pivot(step: u64, since: SimTime) -> Wait {
        Wait {
            pivot: Some(step),
            ..Wait::on_peer("pivot broadcast", since)
        }
    }
}

/// Per-slave hook/interaction state.
pub struct SlaveCommon {
    /// This slave's index (0-based, slave order = unit order).
    pub idx: usize,
    /// This slave's admission incarnation: 0 for a first life admitted by
    /// the initial `Start`, bumped by each rejoin. Stamped into every
    /// [`Msg::Alive`] ping and the [`Msg::Join`] handshake so the master
    /// can fence traffic from an earlier life (zombie fencing).
    pub incarnation: u64,
    /// The master's actor id.
    pub master: ActorId,
    /// All slave actor ids, indexed by slave index.
    pub slaves: Vec<ActorId>,
    pub mode: InteractionMode,
    /// Fault-tolerance timeouts; `None` outside fault mode.
    pub ft: Option<FaultToleranceConfig>,
    /// Hooks to skip between firings (updated by instructions).
    skip: u64,
    since_fire: u64,
    /// Monotone count of hook firings (dedups duplicated statuses).
    hook_seq: u64,
    /// Work units completed since the last firing.
    pub done_delta: u64,
    /// Computation time (stretched by competing load) since the last
    /// firing. Rates are units per *computation* second (§4.2: the hook
    /// "measures the time spent in the computation") so that pipeline
    /// stalls and barrier waits do not masquerade as lost capacity.
    busy_delta: SimDuration,
    /// One sequenced transfer channel per peer (the own-index entry is
    /// never used).
    channels: Vec<TransferWindow<TransferMsg>>,
    /// Peers known to be evicted (their channels are closed).
    pub dead: Vec<bool>,
    /// Rollback epoch this slave operates in.
    pub epoch: u64,
    /// The newest invocation this slave was released into or rolled back
    /// to: what it tells a new master it has reached.
    pub invocation: u64,
    /// Receiver tracker for the windowed master → slave channel
    /// (`Restore` / `Rollback` / `Speculate` / commit / cancel); its
    /// watermark is reported as `InvocationDone::restore_seq`.
    pub master_chan: AckTracker,
    /// A rollback that arrived inside a blocking receive, waiting for the
    /// runner's restart loop (paired with [`ProtocolError::RolledBack`]).
    pub pending_rollback: Option<RollbackInfo>,
    /// Units re-owned from channels closed by peer eviction; the engine
    /// reintegrates these at its next drain point.
    pub reclaimed: Vec<MovedUnit>,
    /// Evictions still owed an [`Msg::OwnReport`] (answered by the engine
    /// once `reclaimed` has been reintegrated).
    pub own_report_due: Vec<usize>,
    /// Locally-counted fault-protocol statistics (shipped with gather).
    pub fault_stats: SlaveFaultStats,
    /// Per-channel acked watermark at the last stall re-send, gating
    /// re-sends to channels that made no progress since.
    resend_gate: Vec<u64>,
    /// Most recent work-movement cost sample, consumed by the next status.
    pub move_cost_sample: Option<(u64, SimDuration)>,
    interaction_cost_sample: Option<SimDuration>,
    last_instr_seq: u64,
    /// The deputy role, when this slave is one of the lowest-ranked
    /// `DEPUTIES` slaves in fault mode: master watch and election state.
    /// See [`SlaveCommon::enable_deputy`].
    pub deputy: Option<DeputyState>,
    /// The takeover seed, stashed when this deputy wins an election —
    /// paired with [`ProtocolError::Elected`] the way `pending_rollback`
    /// pairs with [`ProtocolError::RolledBack`].
    pub takeover: Option<TakeoverSeed>,
    /// The last two snapshot states this slave held, `(invocation, units)`
    /// ([`SlaveCommon::hold`]): the fragments it answers a new master's
    /// `Promoted` with. `None` for a pattern without snapshots, which
    /// answers with none.
    pub(crate) held: Option<Vec<(u64, SharedUnits)>>,
    /// Highest promotion term already applied (dedups `Promoted`
    /// re-broadcasts and fences out stale lower-term promotions). It
    /// outlives a life: a rejoiner already serves that reign.
    pub(crate) promoted_term: u64,
}

impl SlaveCommon {
    pub fn new(
        idx: usize,
        master: ActorId,
        slaves: Vec<ActorId>,
        mode: InteractionMode,
        ft: Option<FaultToleranceConfig>,
    ) -> SlaveCommon {
        let n = slaves.len();
        SlaveCommon {
            idx,
            incarnation: 0,
            master,
            slaves,
            mode,
            ft,
            skip: 0,
            since_fire: 0,
            hook_seq: 0,
            done_delta: 0,
            busy_delta: SimDuration::ZERO,
            channels: vec![TransferWindow::new(); n],
            dead: vec![false; n],
            epoch: 0,
            invocation: 0,
            master_chan: AckTracker::default(),
            pending_rollback: None,
            reclaimed: Vec::new(),
            own_report_due: Vec::new(),
            fault_stats: SlaveFaultStats::default(),
            resend_gate: vec![0; n],
            move_cost_sample: None,
            interaction_cost_sample: None,
            last_instr_seq: 0,
            deputy: None,
            takeover: None,
            held: None,
            promoted_term: 0,
        }
    }

    /// Take on the deputy role when this slave's rank is inside the deputy
    /// set (fault mode only).
    pub fn enable_deputy(&mut self, now: SimTime) {
        let nd = DEPUTIES.min(self.slaves.len());
        if self.ft.is_some() && self.idx < nd {
            self.deputy = Some(DeputyState::new(self.idx, nd, now));
        }
    }

    /// This deputy won `term`: what it takes over with is what it knows as
    /// a slave. Stashed in [`SlaveCommon::takeover`] for the runner.
    fn won(&mut self, term: u64, last_heard: SimTime) -> ProtocolError {
        self.takeover = Some(TakeoverSeed {
            term,
            last_heard,
            dead: self.dead.clone(),
            epoch: self.epoch,
            invocation: self.invocation,
            held: self.held.clone().unwrap_or_default(),
        });
        ProtocolError::Elected { term }
    }

    /// Hold the snapshot state `units` at `invocation` — a barrier
    /// checkpoint or an installed rollback, shared, not copied — for a
    /// takeover to collect: it replaces a state of the same invocation, and
    /// only the last two are kept.
    pub(crate) fn hold(&mut self, invocation: u64, units: &SharedUnits) {
        let Some(held) = self.held.as_mut() else {
            return;
        };
        held.retain(|(inv, _)| *inv != invocation);
        held.push((invocation, units.clone()));
        if held.len() > 2 {
            held.remove(0);
        }
    }

    /// Record completed work units (counted toward the next status delta).
    pub fn record_done(&mut self, units: u64) {
        self.done_delta += units;
    }

    /// Perform unit computation: advance the CPU and account the elapsed
    /// (load-stretched) time as computation time for rate measurement.
    pub async fn compute(&mut self, ctx: &MailCtx<Msg>, work: CpuWork) {
        let t0 = ctx.now();
        ctx.advance_work(work).await;
        self.busy_delta += ctx.now().saturating_since(t0);
    }

    /// Send a message to the master.
    pub async fn send_master(&self, ctx: &MailCtx<Msg>, msg: Msg) {
        let bytes = msg.wire_bytes();
        ctx.send(self.master, msg, bytes).await;
    }

    /// Send a message to another slave.
    pub async fn send_slave(&self, ctx: &MailCtx<Msg>, to: usize, msg: Msg) {
        let bytes = msg.wire_bytes();
        ctx.send(self.slaves[to], msg, bytes).await;
    }

    // ---- sequenced transfer channels -----------------------------------

    /// The counters a report carries for the master's channel ledger: per
    /// destination, the transfers sent (`sent_to`); per source, the
    /// contiguous transfers applied (`received_from`).
    pub fn channel_counts(&self) -> (Vec<u64>, Vec<u64>) {
        let sent_to = self.channels.iter().map(|c| c.seq_sent()).collect();
        let received_from = self.channels.iter().map(|c| c.recv_watermark()).collect();
        (sent_to, received_from)
    }

    /// Execute the master's movement orders: for each order to a live peer,
    /// `detach` takes the units (and, for the pipelined engine's
    /// right-to-left moves, the receiver's new right halo) out of the
    /// engine's state and they leave as one sequenced transfer stamped
    /// `invocation` / `effective_block`. An order is always answered, with
    /// an empty transfer if need be, so the master's pending accounting and
    /// the channel watermarks stay settled; an order to an evicted peer
    /// (planned before its death reached the master) is refused locally and
    /// the units stay here. The elapsed time is the next status's movement
    /// cost sample.
    pub(crate) async fn execute_moves(
        &mut self,
        ctx: &MailCtx<Msg>,
        moves: Vec<MoveOrder>,
        invocation: u64,
        effective_block: u64,
        mut detach: impl FnMut(&MoveOrder) -> Result<Detached, ProtocolError>,
    ) -> Result<(), ProtocolError> {
        if moves.is_empty() {
            return Ok(());
        }
        let t0 = ctx.now();
        let mut total = 0u64;
        for order in moves {
            if self.dead[order.to] {
                continue;
            }
            let (units, right_old) = detach(&order)?;
            total += units.len() as u64;
            self.send_transfer(ctx, order.to, invocation, effective_block, units, right_old)
                .await;
        }
        self.move_cost_sample = Some((total, ctx.now().saturating_since(t0)));
        Ok(())
    }

    /// Send a sequenced work transfer to the live peer `to`: the channel
    /// allocates the sequence number and retains the transfer until it is
    /// acknowledged.
    async fn send_transfer(
        &mut self,
        ctx: &MailCtx<Msg>,
        to: usize,
        invocation: u64,
        effective_block: u64,
        units: Vec<MovedUnit>,
        right_old: Option<Vec<f64>>,
    ) {
        let (from, epoch) = (self.idx, self.epoch);
        let t = self.channels[to]
            .send_with(|seq| TransferMsg {
                from,
                seq,
                epoch,
                invocation,
                effective_block,
                units,
                right_old,
            })
            .expect("a live peer's channel is open");
        let msg = Msg::Transfer(t.clone());
        self.send_slave(ctx, to, msg).await;
    }

    /// Accept an inbound transfer: epoch-fence, deduplicate by sequence
    /// number, and acknowledge. Returns `true` exactly when the caller
    /// must apply the payload.
    pub async fn accept_transfer(&mut self, ctx: &MailCtx<Msg>, t: &TransferMsg) -> bool {
        if t.epoch != self.epoch {
            self.fault_stats.stale_epoch_dropped += 1;
            return false;
        }
        if self.dead[t.from] {
            // Fenced: the sender was evicted and its units re-scattered;
            // applying this stale payload would duplicate them.
            self.fault_stats.stale_epoch_dropped += 1;
            return false;
        }
        let fresh = self.channels[t.from].accept(t.seq);
        if !fresh {
            self.fault_stats.transfer_dups_dropped += 1;
        }
        let ack = Msg::TransferAck {
            from: self.idx,
            epoch: self.epoch,
            watermark: self.channels[t.from].recv_watermark(),
        };
        self.send_slave(ctx, t.from, ack).await;
        fresh
    }

    /// Process a peer's transfer acknowledgement.
    pub fn handle_transfer_ack(&mut self, from: usize, epoch: u64, watermark: u64) {
        if epoch == self.epoch {
            self.channels[from].ack(watermark);
        }
    }

    /// Re-send every unacknowledged transfer on channels that made no ack
    /// progress since the last call. Called from heartbeat timers and hook
    /// firings — the progress gate keeps a busy ack path from being
    /// flooded with duplicates.
    async fn resend_stalled_transfers(&mut self, ctx: &MailCtx<Msg>) {
        for to in 0..self.channels.len() {
            if self.dead[to] || to == self.idx {
                continue;
            }
            let acked = self.channels[to].acked_watermark();
            let stalled =
                self.channels[to].unacked().next().is_some() && acked == self.resend_gate[to];
            self.resend_gate[to] = acked;
            if !stalled {
                continue;
            }
            let msgs: Vec<Msg> = self.channels[to]
                .unacked()
                .map(|(_, t)| Msg::Transfer(t.clone()))
                .collect();
            for m in msgs {
                self.fault_stats.transfer_resends += 1;
                self.send_slave(ctx, to, m).await;
            }
        }
    }

    /// The named peer was evicted: close both channel halves, re-own the
    /// in-flight payload units, and queue an ownership report.
    pub fn peer_evicted(&mut self, peer: usize) {
        if !self.dead[peer] {
            self.dead[peer] = true;
            for t in self.channels[peer].close() {
                self.reclaimed.extend(t.units);
            }
        }
        // A re-delivered Evicted means the master is still waiting for our
        // OwnReport (the first one was lost): owe it again. Deduplicate so
        // duplicated deliveries queue at most one report.
        if !self.own_report_due.contains(&peer) {
            self.own_report_due.push(peer);
        }
    }

    /// Reset every transfer channel and adopt a new epoch (rollback).
    pub fn rebase_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        for (i, c) in self.channels.iter_mut().enumerate() {
            if !self.dead[i] {
                c.reset();
            }
        }
        self.resend_gate = vec![0; self.channels.len()];
        self.fault_stats.rollbacks_applied += 1;
    }

    /// Handle a control message every receive point must service. Returns
    /// `true` if `msg` was consumed here; `Err(RolledBack)` when a fresh
    /// rollback was stashed for the engine's restart loop.
    fn control(&mut self, msg: &Msg) -> Result<bool, ProtocolError> {
        match msg {
            Msg::TransferAck {
                from,
                epoch,
                watermark,
            } => {
                self.handle_transfer_ack(*from, *epoch, *watermark);
                Ok(true)
            }
            Msg::Evicted { slave } => {
                self.peer_evicted(*slave);
                Ok(true)
            }
            Msg::Rollback {
                seq,
                epoch,
                invocation,
                survivors,
                units,
            } => {
                if *epoch <= self.epoch {
                    // A rollback we already applied (or that a newer one
                    // superseded) arriving late: acknowledge the sequence so
                    // the master's window can settle, but never re-apply —
                    // rebasing to a stale epoch would resurrect a dead
                    // distribution.
                    self.master_chan.fresh(*seq);
                    self.fault_stats.stale_epoch_dropped += 1;
                    return Ok(true);
                }
                if self.master_chan.fresh(*seq) {
                    self.pending_rollback = Some(RollbackInfo {
                        epoch: *epoch,
                        invocation: *invocation,
                        survivors: survivors.clone(),
                        units: units.clone(),
                    });
                    Err(ProtocolError::RolledBack)
                } else {
                    // Duplicate delivery of an applied rollback: the ack
                    // rides the next InvocationDone watermark.
                    Ok(true)
                }
            }
            _ => Ok(false),
        }
    }

    /// Handle a master-failover message (the master's pings, the election,
    /// a promotion, which every slave answers with what it knows).
    /// `Err(Elected)` when a vote completed this deputy's quorum (the
    /// takeover seed is stashed in [`SlaveCommon::takeover`]). Every
    /// receive point services these the way it services
    /// [`SlaveCommon::control`] traffic — an election must be able to
    /// proceed no matter what the electorate was doing when the master
    /// died.
    async fn election(
        &mut self,
        ctx: &MailCtx<Msg>,
        msg: &FailoverMsg,
    ) -> Result<(), ProtocolError> {
        match msg {
            FailoverMsg::MasterPing { term } => {
                if let Some(d) = self.deputy.as_mut() {
                    d.master_ping(*term, ctx.now());
                }
            }
            FailoverMsg::Candidacy { term, candidate } => {
                let replies = self
                    .deputy
                    .as_mut()
                    .map(|d| d.on_candidacy(*term, *candidate))
                    .unwrap_or_default();
                ctx.note(|| {
                    let verdict = if replies.is_empty() {
                        "refused"
                    } else {
                        "granted"
                    };
                    format!("candidacy term {term} from {candidate} -> {verdict}")
                });
                for (to, m) in replies {
                    self.send_slave(ctx, to, Msg::Failover(m)).await;
                }
            }
            FailoverMsg::Vote {
                term,
                voter,
                candidate,
            } => {
                if let Some(d) = self.deputy.as_mut() {
                    d.on_vote(*term, *voter, *candidate);
                    if let Some(t) = d.won() {
                        let heard = d.heard;
                        return Err(self.won(t, heard));
                    }
                }
            }
            FailoverMsg::Promoted { term, master_idx } => {
                if !self.adopt_master(ctx.now(), *term, *master_idx) {
                    return Ok(());
                }
                let reply = FailoverMsg::Held {
                    slave: self.idx,
                    incarnation: self.incarnation,
                    invocation: self.invocation,
                    fragments: self.held.clone().unwrap_or_default(),
                };
                self.send_master(ctx, Msg::Failover(reply)).await;
            }
            // Only a master is sent what a slave held.
            FailoverMsg::Held { .. } => {}
        }
        Ok(())
    }

    /// Deputy timer: stand for election when the master has been silent
    /// past this rank's staggered threshold. Runs in every silent
    /// heartbeat slice of [`SlaveCommon::wait`]; with a single
    /// deputy the stand itself reaches quorum and returns `Err(Elected)`.
    async fn deputy_tick(&mut self, ctx: &MailCtx<Msg>) -> Result<(), ProtocolError> {
        let Some(d) = self.deputy.as_mut() else {
            return Ok(());
        };
        let candidacies = d.tick(ctx.now());
        if !candidacies.is_empty() {
            ctx.note(|| format!("standing for term {}", d.ballot.term_seen));
        }
        if let Some(t) = d.won() {
            let heard = d.heard;
            return Err(self.won(t, heard));
        }
        for (to, m) in candidacies {
            self.send_slave(ctx, to, Msg::Failover(m)).await;
        }
        Ok(())
    }

    /// The `nth` silent slice of the wait for the pivot of `step` asks a
    /// live peer for it: the nearest lower index first, one live peer
    /// further per slice, wrapping round. Every live peer holds that pivot,
    /// can rebuild it, or is blocked on it too (DESIGN.md §11).
    async fn ask_for_pivot(&self, ctx: &MailCtx<Msg>, step: u64, nth: u32) {
        let (me, n) = (self.idx, self.slaves.len());
        let peers = || {
            (1..n)
                .map(move |d| (me + n - d) % n)
                .filter(|&p| !self.dead[p])
        };
        let live = peers().count().max(1);
        if let Some(to) = peers().nth((nth as usize - 1) % live) {
            let msg = Msg::PivotWanted {
                step,
                from: self.idx,
            };
            self.send_slave(ctx, to, msg).await;
        }
    }

    /// Apply a [`FailoverMsg::Promoted`]: repoint the master, drop the
    /// winner from the worker set (it stops computing), and reset the master
    /// control channel so the new master's windowed sends (which restart at
    /// sequence 1) are accepted. Idempotent per term; stale lower-term
    /// promotions are fenced out. The in-flight payloads of the winner's
    /// transfer channel are discarded, not re-owned: the takeover rollback
    /// re-scatters every unit from the checkpoint the survivors' held
    /// fragments complete, so nothing the winner held in flight survives
    /// anyway. Returns whether `term` is the adopted one — newly, or again:
    /// either way the new master is owed this slave's `Held` answer.
    fn adopt_master(&mut self, now: SimTime, term: u64, master_idx: usize) -> bool {
        if term <= self.promoted_term {
            return term == self.promoted_term;
        }
        self.promoted_term = term;
        self.master = self.slaves[master_idx];
        if master_idx != self.idx && !self.dead[master_idx] {
            self.dead[master_idx] = true;
            let _ = self.channels[master_idx].close();
        }
        self.master_chan = AckTracker::default();
        // The new master brings a new balancer whose instruction sequence
        // restarts at 1; without this reset its orders would be fenced out
        // as stale forever.
        self.last_instr_seq = 0;
        if let Some(d) = self.deputy.as_mut() {
            d.on_promoted(term, now);
        }
        true
    }

    /// The servicing ladder, the last arm of every slave receive point:
    /// `Abort` and `Evict` become their typed errors, failover and
    /// channel-control traffic is consumed — a fresh `Rollback` still
    /// unwinds as `RolledBack`, a won election as `Elected` — and anything
    /// else is handed back (`false`).
    pub(crate) async fn service(
        &mut self,
        ctx: &MailCtx<Msg>,
        msg: &Msg,
    ) -> Result<bool, ProtocolError> {
        match msg {
            Msg::Abort => Err(ProtocolError::Aborted),
            Msg::Evict => Err(ProtocolError::Evicted { slave: self.idx }),
            Msg::Failover(f) => self.election(ctx, f).await.map(|()| true),
            m => self.control(m),
        }
    }

    /// Non-blocking drain of what the ladder consumes. Engines call this
    /// from their transfer-drain loops.
    pub async fn drain_control(&mut self, ctx: &MailCtx<Msg>) -> Result<(), ProtocolError> {
        while let Some(env) = ctx.try_recv_match(Msg::is_channel_control).await {
            self.service(ctx, &env.msg).await?;
        }
        Ok(())
    }

    /// One slice of a blocked wait: the next delivery that `wait`'s row
    /// receives or `pred` asks for, or `None` when the silence is the
    /// caller's to answer — a barrier slice to re-report, a gather
    /// acknowledgement given up on. Plain mode loses nothing and says
    /// nothing: it blocks until a delivery. This is the one place a slice
    /// is computed, and it is computed from *now*: any delivery restarts it,
    /// serviced control traffic included (ROADMAP 1(b)(ii)).
    pub(crate) async fn wait(
        &mut self,
        ctx: &MailCtx<Msg>,
        wait: &mut Wait,
        mut pred: impl FnMut(&Msg) -> bool,
    ) -> Result<Option<Envelope<Msg>>, ProtocolError> {
        let row = wait.on.row();
        // A master-initiated shutdown is received whatever the wait is for,
        // so it can never deadlock a slave.
        let mut receives =
            |m: &Msg| pred(m) || matches!(m, Msg::Abort | Msg::Evict) || (row.receives)(m);
        let Some(ft) = self.ft.clone() else {
            return Ok(Some(ctx.recv_match(receives).await));
        };
        loop {
            let mut slice = ctx.now() + ft.slave_heartbeat;
            if let GivesUp::At(d) = row.gives_up {
                slice = slice.min(wait.since + d);
            }
            if let Some(env) = ctx.recv_match_deadline(&mut receives, slice).await {
                if let GivesUp::InARow(_) = row.gives_up {
                    wait.silent = 0;
                }
                return Ok(Some(env));
            }
            wait.silent += 1;
            match row.gives_up {
                GivesUp::At(d) if ctx.now() < wait.since + d => {}
                GivesUp::InARow(n) | GivesUp::InAll(n) | GivesUp::Quietly(n)
                    if wait.silent <= n => {}
                GivesUp::Quietly(_) => return Ok(None),
                _ => return Err(timed_out(self.idx, wait.what, ctx.now())),
            }
            // A long silence is evidence the ack path lost something, and
            // the master may be the casualty: a deputy must be able to stand.
            self.resend_stalled_transfers(ctx).await;
            self.deputy_tick(ctx).await?;
            if let Some(step) = wait.pivot {
                self.ask_for_pivot(ctx, step, wait.silent).await;
            }
            match row.says {
                Says::CallersReport => return Ok(None),
                Says::Nothing => continue,
                Says::AliveForOneWindow if ctx.now() >= wait.since + ft.suspicion => continue,
                Says::AliveForOneWindow | Says::Alive => {}
            }
            ctx.note(|| format!("ping while waiting for {}", wait.what));
            let (slave, incarnation) = (self.idx, self.incarnation);
            self.send_master(ctx, Msg::Alive { slave, incarnation })
                .await;
        }
    }

    /// Blocking receive for a protocol step: the [`Blocked::OnPeer`] wait
    /// `wait` for what `pred` asks for, with everything the ladder consumes
    /// serviced on the side. A wait [for a pivot](Wait::for_pivot) also asks
    /// a peer for it in each silent slice, until its `OP_TIMEOUT`.
    pub(crate) async fn recv_blocking(
        &mut self,
        ctx: &MailCtx<Msg>,
        mut pred: impl FnMut(&Msg) -> bool,
        mut wait: Wait,
    ) -> Result<Envelope<Msg>, ProtocolError> {
        loop {
            if let Some(env) = self.wait(ctx, &mut wait, &mut pred).await? {
                if !self.service(ctx, &env.msg).await? {
                    return Ok(env);
                }
            }
        }
    }

    /// The joiner's half of the elastic-membership handshake: announce this
    /// incarnation with [`Msg::Join`] and wait for the admission rollback,
    /// which doubles as the admission acknowledgement (stashed in
    /// [`SlaveCommon::pending_rollback`] on success, exactly as a mid-run
    /// rollback would be).
    ///
    /// Attempts are bounded by `rejoin_attempts` and spaced by exponential
    /// backoff (base `rejoin_backoff`, doubling per retry, capped at 8×)
    /// plus deterministic per-(slave, attempt) jitter, so a pool of
    /// refused joiners cannot hot-loop the master in lockstep. While
    /// waiting, stale traffic addressed to this slave's previous life —
    /// `Evict`, old transfers, instructions — is drained and discarded (it
    /// must not survive into the new life's mailbox); `Promoted` repoints
    /// the master and re-announces immediately; `Abort` ends the run.
    /// Exhaustion yields [`ProtocolError::JoinRefused`], which engines
    /// treat like an eviction: exit silently, never ship a `SlaveError`.
    ///
    /// What stays queued is what cannot go stale ([`Msg::can_go_stale`]):
    /// pivot broadcasts. The survivors get their admission `Rollback`s one
    /// after another down the master's link, and the first to replay the
    /// resumed step broadcasts its pivot at once, so at width that pivot
    /// reaches the joiner *before* the joiner's own `Rollback`. It is the
    /// only copy anyone will send; the resumed step takes it from the
    /// mailbox.
    pub async fn join_handshake(&mut self, ctx: &MailCtx<Msg>) -> Result<(), ProtocolError> {
        let ft = self.ft.clone().ok_or(ProtocolError::JoinRefused {
            slave: self.idx,
            attempts: 0,
        })?;
        let join = Msg::Join {
            slave: self.idx,
            incarnation: self.incarnation,
        };
        for attempt in 0..ft.rejoin_attempts {
            self.send_master(ctx, join.clone()).await;
            let backoff = ft.rejoin_backoff * (1u64 << attempt.min(3));
            let deadline = ctx.now() + backoff + join_jitter(self.idx, attempt, ft.rejoin_backoff);
            // Receive until the backoff expires: everything in the mailbox
            // that can go stale predates the admission (or is the
            // admission), so anything not handled below is previous-life
            // traffic and is dropped here.
            while let Some(env) = ctx.recv_match_deadline(Msg::can_go_stale, deadline).await {
                match &env.msg {
                    Msg::Abort => return Err(ProtocolError::Aborted),
                    Msg::JoinRefuse { .. } => break,
                    Msg::Failover(f @ FailoverMsg::Promoted { .. }) => {
                        self.election(ctx, f).await?;
                        self.send_master(ctx, join.clone()).await;
                    }
                    m @ Msg::Rollback { .. } => {
                        // Anything else is a stale epoch or duplicate —
                        // keep waiting.
                        if let Err(ProtocolError::RolledBack) = self.control(m) {
                            return Ok(());
                        }
                    }
                    _ => {
                        self.fault_stats.stale_epoch_dropped += 1;
                    }
                }
            }
        }
        Err(ProtocolError::JoinRefused {
            slave: self.idx,
            attempts: ft.rejoin_attempts,
        })
    }

    /// Latecomer entry: idle until `at` (discarding any traffic that
    /// predates this slave's existence in the pool and can go stale), then run
    /// [`join_handshake`](Self::join_handshake). Promotions are serviced
    /// while parked so the eventual announcement targets whichever master
    /// is current; `Abort` ends the run before it begins.
    pub async fn park_then_join(
        &mut self,
        ctx: &MailCtx<Msg>,
        at: SimTime,
    ) -> Result<(), ProtocolError> {
        while ctx.now() < at {
            let Some(env) = ctx.recv_match_deadline(Msg::can_go_stale, at).await else {
                break;
            };
            match &env.msg {
                Msg::Abort => return Err(ProtocolError::Aborted),
                Msg::Failover(f @ FailoverMsg::Promoted { .. }) => {
                    self.election(ctx, f).await?;
                }
                _ => {} // traffic of a pool we have not joined yet
            }
        }
        self.join_handshake(ctx).await
    }

    /// Build the typed error for a message the protocol cannot accept here.
    pub fn unexpected(&self, context: &'static str, msg: &Msg) -> ProtocolError {
        ProtocolError::UnexpectedMessage {
            who: slave_who(self.idx),
            context,
            message: format!("{msg:?}").chars().take(120).collect(),
        }
    }

    fn apply_instructions(&mut self, instr: Instructions, moves: &mut Vec<MoveOrder>) {
        // Instruction sequence numbers are globally monotone, so any
        // duplicate or stale replay (possible only under fault injection)
        // has `seq <= last_instr_seq` and must be ignored wholesale —
        // re-executing its moves would double-send work units. Orders from
        // an earlier rollback epoch reference a distribution that no longer
        // exists and are likewise discarded.
        if instr.epoch != self.epoch {
            self.fault_stats.stale_epoch_dropped += 1;
            return;
        }
        if instr.seq > self.last_instr_seq {
            self.last_instr_seq = instr.seq;
            self.skip = instr.hooks_to_skip;
            moves.extend(instr.moves);
        }
    }

    /// Apply an instruction message received *outside* a hook firing (idle
    /// loops, barrier waits). Routes through the same epoch and sequence
    /// fences as hook-applied instructions, so duplicated deliveries can
    /// never double-execute movement orders.
    pub fn instructions_out_of_band(&mut self, instr: Instructions) -> Vec<MoveOrder> {
        let mut moves = Vec::new();
        self.apply_instructions(instr, &mut moves);
        moves
    }

    /// The load-balancing hook. Returns movement orders to execute *now*
    /// (empty on skipped hooks). `active_units` is the paper's §4.7 notion:
    /// units owned by this slave that still have future work.
    pub async fn hook(
        &mut self,
        ctx: &MailCtx<Msg>,
        invocation: u64,
        active_units: u64,
    ) -> Result<Vec<MoveOrder>, ProtocolError> {
        ctx.advance_work(HOOK_CHECK_CPU).await;
        self.since_fire += 1;
        if self.since_fire <= self.skip {
            return Ok(Vec::new());
        }
        self.fire(ctx, invocation, active_units).await
    }

    /// Whether the last [`hook`](Self::hook) fired rather than skipped: a
    /// slave that fired has just talked to the master, so it has caught up.
    pub fn fired_last(&self) -> bool {
        self.since_fire == 0
    }

    /// Fire the hook unconditionally (used at invocation boundaries so the
    /// final partial period is always reported).
    pub async fn fire(
        &mut self,
        ctx: &MailCtx<Msg>,
        invocation: u64,
        active_units: u64,
    ) -> Result<Vec<MoveOrder>, ProtocolError> {
        self.since_fire = 0;
        self.hook_seq += 1;
        let t0 = ctx.now();
        let mut moves = Vec::new();
        if self.ft.is_some() {
            // Event-triggered repair: a hook firing is evidence of local
            // progress with no matching ack progress on a stalled channel.
            self.resend_stalled_transfers(ctx).await;
        }

        // The status must reflect the state *before* this hook applies any
        // queued instructions: `active_units` was measured before any moves
        // execute, so `last_applied_seq` must predate them too — otherwise
        // the master would treat the stale count as already discounted.
        let (sent_to, received_from) = self.channel_counts();
        let status = Status {
            slave: self.idx,
            invocation,
            hook_seq: self.hook_seq,
            units_done_delta: self.done_delta,
            elapsed: self.busy_delta,
            active_units,
            last_applied_seq: self.last_instr_seq,
            epoch: self.epoch,
            sent_to,
            received_from,
            move_cost_sample: self.move_cost_sample.take(),
            interaction_cost_sample: self.interaction_cost_sample.take(),
        };
        ctx.note(|| {
            let (delta, busy) = (self.done_delta, self.busy_delta);
            format!("fire inv={invocation} delta={delta} busy={busy} active={active_units}")
        });
        self.done_delta = 0;
        self.busy_delta = SimDuration::ZERO;
        self.send_master(ctx, Msg::Status(status)).await;

        if self.mode == InteractionMode::Pipelined {
            // Apply instructions that arrived since the last hook (they are
            // based on the status sent then — the pipelining of Fig. 2b).
            while let Some(env) = ctx
                .try_recv_match(|m| matches!(m, Msg::Instructions(_)))
                .await
            {
                if let Msg::Instructions(i) = env.msg {
                    self.apply_instructions(i, &mut moves);
                }
            }
        }

        if self.mode == InteractionMode::Synchronous {
            // Block for the instructions computed from the status we just
            // sent: the whole round trip sits on the critical path.
            let wait = Wait::on_peer("balancing instructions", ctx.now());
            let env = self
                .recv_blocking(ctx, |m| matches!(m, Msg::Instructions(_)), wait)
                .await?;
            if let Msg::Instructions(i) = env.msg {
                self.apply_instructions(i, &mut moves);
            }
        }

        self.interaction_cost_sample = Some(ctx.now().saturating_since(t0));
        Ok(moves)
    }
}
