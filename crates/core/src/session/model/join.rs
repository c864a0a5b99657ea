//! Mid-run join / rejoin — elastic membership ([`JoinModel`]).

use crate::session::membership::Life;
use dlb_sim::{LossyProtocol, Net};

/// A message in flight in the [`JoinModel`]'s network.
///
/// `Evict`, `Join`, and `Admit` carry the incarnation they speak for; the
/// runtime gets the same effect from the sim's per-(src, dst) FIFO channels
/// (a stale `Evict` is always drained by the join handshake before the
/// admission `Rollback` arrives), which the unordered model wire cannot
/// express — so the stamp makes the FIFO guarantee explicit. `Ack` carries
/// only an epoch: the runtime's checkpoint acknowledgements are *not*
/// incarnation-stamped, which is exactly why the master keeps a per-slot
/// `join_epoch` ack floor — the property the [`JoinModel`] checks.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JWire {
    /// Slave life `inc` → master: heartbeat ([`crate::msg::Msg::Alive`]).
    Alive { slot: usize, inc: u64 },
    /// Master → slot: eviction verdict for life `inc`
    /// ([`crate::msg::Msg::Evict`], including the self-healing re-reply
    /// to a non-member's traffic).
    Evict { slot: usize, inc: u64 },
    /// Slave life `inc` → master: admission request
    /// ([`crate::msg::Msg::Join`]).
    Join { slot: usize, inc: u64 },
    /// Master → slot: admission for life `inc`, shipping the snapshot of
    /// admission epoch `epoch` (the windowed `Rollback` that ends the
    /// join handshake).
    Admit { slot: usize, inc: u64, epoch: u64 },
    /// Slot → master: checkpoint acknowledgement stamped with the epoch
    /// the slave computes at — deliberately *not* incarnation-stamped,
    /// as in the runtime.
    Ack { slot: usize, epoch: u64 },
}

impl JWire {
    /// The slot the message speaks for (every variant carries one).
    pub fn slot(&self) -> usize {
        match *self {
            JWire::Alive { slot, .. }
            | JWire::Evict { slot, .. }
            | JWire::Join { slot, .. }
            | JWire::Admit { slot, .. }
            | JWire::Ack { slot, .. } => slot,
        }
    }

    /// The same message speaking for `slot`.
    fn for_slot(&self, to: usize) -> JWire {
        let mut m = self.clone();
        match &mut m {
            JWire::Alive { slot, .. }
            | JWire::Evict { slot, .. }
            | JWire::Join { slot, .. }
            | JWire::Admit { slot, .. }
            | JWire::Ack { slot, .. } => *slot = to,
        }
        m
    }
}

/// A local action of the [`JoinModel`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JoinLocal {
    /// The master's suspicion timer fires for live slot `s`: evict it
    /// (bounded budget).
    Suspect(usize),
    /// Slot `s` heartbeats while the master does not count its life
    /// current: re-send `Alive` until the verdict lands. Quiescent
    /// agreement disables it, keeping accepting states terminal.
    Heartbeat(usize),
    /// Slot `s`'s join retry timer fires: re-send the unanswered `Join`
    /// (the handshake's bounded backoff loop).
    RejoinNudge(usize),
    /// The master's nudge timer fires for slot `s`: re-send the
    /// unacknowledged admission window.
    AdmitNudge(usize),
}

/// Master-side view of one slot — the pure subset of
/// `crate::session::membership::Membership` plus the checkpointed
/// master's per-slave ack floor that decide join admission and fencing.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JoinSlotMaster {
    pub alive: bool,
    /// Latest admitted life of this slot.
    pub incarnation: u64,
    /// Admission epoch of the snapshot shipped at the latest admission —
    /// the ack floor (`join_epoch` in the checkpointed master).
    pub join_epoch: u64,
    /// Highest credited checkpoint-ack epoch.
    pub acked: u64,
}

impl JoinSlotMaster {
    /// Which life of this slot a message stamped `inc` speaks for: the
    /// runtime's verdict (`Membership::life`) over this view.
    fn life(&self, inc: u64) -> Life {
        Life::of(self.alive, self.incarnation, inc)
    }
}

/// Slave-side lifecycle of one slot.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JoinPhase {
    /// Computing from the snapshot of admission epoch `epoch`.
    Member { epoch: u64 },
    /// Evicted and handshaking a new life in.
    Joining,
    /// Evicted with the rejoin budget exhausted (the runtime's
    /// `JoinRefused` exit).
    Dead,
}

/// Slave-side view of one slot.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JoinSlotSlave {
    /// Current incarnation (previous lives are zombies).
    pub life: u64,
    pub phase: JoinPhase,
}

/// Full [`JoinModel`] state.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JoinState {
    pub master: Vec<JoinSlotMaster>,
    pub slaves: Vec<JoinSlotSlave>,
    pub net: Net<JWire>,
    /// Sticky first fencing violation, as `(detail)` — the E111/E112
    /// invariants read this.
    pub violated: Option<String>,
    pub evicts_used: u32,
    pub rejoins_used: u32,
}

/// The abstracted master/slots/network system around the elastic-membership
/// rules: epoch-fenced mid-run admission, bounded rejoin, and zombie
/// fencing.
///
/// Each slot starts as an admitted member. The master may evict it
/// (suspicion), the evicted life learns its verdict — possibly only
/// through the self-healing `Evict` re-reply after a heal — and its
/// successor life handshakes back in; the network may drop or duplicate a
/// bounded number of messages. Which life a heartbeat or `Join` speaks for
/// is the runtime's own verdict, `crate::session::membership::Life`. Two
/// production fences are switchable to deliberately broken variants:
///
/// * `fence_incarnation = false` judges a member's heartbeat as if stamped
///   with the table's own life — a zombie (pre-eviction life) can then
///   vouch for the slot after a newer life was admitted, the
///   **double-incarnation** bug (E111).
/// * `fence_epoch = false` credits checkpoint acks below the admission
///   ack floor — a pre-eviction checkpoint then counts as the rejoined
///   life's progress, the **stale-snapshot-join** bug (E112): a later
///   rollback would source state the new life never had.
#[derive(Clone, Debug)]
pub struct JoinModel {
    pub slots: usize,
    /// Total evictions allowed across all slots (bounds the life space).
    pub max_evicts: u32,
    /// Total rejoins allowed across all slots.
    pub max_rejoins: u32,
    pub max_drops: u32,
    pub max_dups: u32,
    /// True = the real protocol (a heartbeat is judged by its own stamp).
    pub fence_incarnation: bool,
    /// True = the real protocol (checkpoint acks credited only at or above
    /// the admission ack floor).
    pub fence_epoch: bool,
}

impl JoinModel {
    /// The standard checked configuration: two slots, two evictions and
    /// two rejoins (enough for an evict → rejoin → evict → rejoin chain on
    /// one slot, or one cycle on each), one drop and one duplication
    /// budget.
    pub fn standard() -> JoinModel {
        JoinModel {
            slots: 2,
            max_evicts: 2,
            max_rejoins: 2,
            max_drops: 1,
            max_dups: 1,
            fence_incarnation: true,
            fence_epoch: true,
        }
    }

    /// The broken variant without the incarnation fence: a zombie's
    /// heartbeat is credited to the slot after a newer life was admitted
    /// (E111).
    pub fn broken_double_incarnation() -> JoinModel {
        JoinModel {
            fence_incarnation: false,
            ..JoinModel::standard()
        }
    }

    /// The broken variant without the admission ack floor: a pre-eviction
    /// checkpoint ack is credited as the rejoined life's progress (E112).
    pub fn broken_stale_snapshot() -> JoinModel {
        JoinModel {
            fence_epoch: false,
            ..JoinModel::standard()
        }
    }

    /// A runtime-width instance: `n` identical slots (one symmetry class),
    /// the standard eviction/rejoin/fault budgets. This is what the
    /// `lint-wide` CI job checks at n = 16.
    pub fn wide(n: usize) -> JoinModel {
        JoinModel {
            slots: n,
            ..JoinModel::standard()
        }
    }

    /// Master and slave agree on slot `s` and nothing remains to settle.
    pub(super) fn slot_settled(&self, s: &JoinState, i: usize) -> bool {
        let (m, sl) = (&s.master[i], &s.slaves[i]);
        match sl.phase {
            JoinPhase::Member { epoch } => {
                m.life(sl.life) == Life::Current && epoch == m.join_epoch && m.acked >= epoch
            }
            JoinPhase::Joining => false,
            JoinPhase::Dead => !m.alive,
        }
    }
}

/// Permutation-invariant rendering of one slot's entire view of a
/// [`JoinState`]: master slot, slave slot, and the slot's wire messages.
/// Join state never crosses slots (budgets are slot-independent
/// counters), so equal signatures mean interchangeable slots.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
pub struct JoinSlotSig {
    master: JoinSlotMaster,
    slave: JoinSlotSlave,
    wire: Vec<JWire>,
}

impl LossyProtocol for JoinModel {
    type State = JoinState;
    type Wire = JWire;
    type Local = JoinLocal;
    type Sig = JoinSlotSig;

    fn start(&self) -> JoinState {
        let master = JoinSlotMaster {
            alive: true,
            incarnation: 1,
            join_epoch: 0,
            acked: 0,
        };
        let slave = JoinSlotSlave {
            life: 1,
            phase: JoinPhase::Member { epoch: 0 },
        };
        JoinState {
            master: vec![master; self.slots],
            slaves: vec![slave; self.slots],
            net: Net::default(),
            violated: None,
            evicts_used: 0,
            rejoins_used: 0,
        }
    }

    fn net(s: &JoinState) -> &Net<JWire> {
        &s.net
    }

    fn net_mut(s: &mut JoinState) -> &mut Net<JWire> {
        &mut s.net
    }

    fn budgets(&self) -> (u32, u32) {
        (self.max_drops, self.max_dups)
    }

    fn locals(&self, s: &JoinState) -> Vec<JoinLocal> {
        let mut out = Vec::new();
        let wire = &s.net.wire;
        for t in 0..self.slots {
            let (m, sl) = (&s.master[t], &s.slaves[t]);
            let (slot, inc) = (t, sl.life);
            if m.alive && s.evicts_used < self.max_evicts {
                out.push(JoinLocal::Suspect(t));
            }
            // Heartbeat while it carries news (the master disagrees): in
            // the runtime a slave heartbeats until settled, so the model
            // stops at agreement too — quiescent states stay terminal.
            if matches!(sl.phase, JoinPhase::Member { .. })
                && m.life(sl.life) != Life::Current
                && !wire.contains(&JWire::Alive { slot, inc })
            {
                out.push(JoinLocal::Heartbeat(t));
            }
            // Join retry: at most one copy in flight (the backoff timer
            // refires, so this loses no behaviours).
            if matches!(sl.phase, JoinPhase::Joining) && !wire.contains(&JWire::Join { slot, inc })
            {
                out.push(JoinLocal::RejoinNudge(t));
            }
            // Admission-window replay while unacknowledged.
            let (inc, epoch) = (m.incarnation, m.join_epoch);
            if m.alive && m.acked < epoch && !wire.contains(&JWire::Admit { slot, inc, epoch }) {
                out.push(JoinLocal::AdmitNudge(t));
            }
        }
        out
    }

    fn apply_local(&self, n: &mut JoinState, local: &JoinLocal) {
        match *local {
            JoinLocal::Suspect(slot) => {
                n.evicts_used += 1;
                let m = &mut n.master[slot];
                m.alive = false;
                let inc = m.incarnation;
                n.net.send(JWire::Evict { slot, inc });
            }
            JoinLocal::Heartbeat(slot) => {
                let inc = n.slaves[slot].life;
                n.net.send(JWire::Alive { slot, inc });
            }
            JoinLocal::RejoinNudge(slot) => {
                let inc = n.slaves[slot].life;
                n.net.send(JWire::Join { slot, inc });
            }
            JoinLocal::AdmitNudge(slot) => {
                let m = &n.master[slot];
                let (inc, epoch) = (m.incarnation, m.join_epoch);
                n.net.send(JWire::Admit { slot, inc, epoch });
            }
        }
    }

    fn deliver(&self, n: &mut JoinState, msg: JWire) {
        match msg {
            JWire::Alive { slot, inc } => {
                let m = &n.master[slot];
                // The broken variant stamps a member's heartbeat with the
                // table's own life.
                let unfenced = m.alive && !self.fence_incarnation;
                match m.life(if unfenced { m.incarnation } else { inc }) {
                    // A credited heartbeat only refreshes the suspicion
                    // timer. Credited to a life other than the member's:
                    // the double-incarnation violation.
                    Life::Current if inc != m.incarnation && n.violated.is_none() => {
                        n.violated = Some(format!(
                            "double incarnation: slot {slot} credited life {inc} while life {} \
                             is the member",
                            m.incarnation
                        ));
                    }
                    // Its Evict was lost (e.g. across a partition): the
                    // self-healing reply repeats the verdict.
                    Life::Evicted => n.net.send(JWire::Evict { slot, inc }),
                    _ => {}
                }
            }
            JWire::Join { slot, inc } => {
                let m = &mut n.master[slot];
                let life = m.life(inc);
                if life == Life::Evicted {
                    // Admit: fresh two-clock state, bumped admission epoch.
                    m.alive = true;
                    m.incarnation = inc;
                    m.join_epoch += 1;
                }
                if life != Life::Stale {
                    // The snapshot ships via the ack-gated window; for an
                    // admitted life the Admit must have been lost.
                    let epoch = m.join_epoch;
                    n.net.send(JWire::Admit { slot, inc, epoch });
                }
            }
            JWire::Ack { slot, epoch } => {
                let m = &mut n.master[slot];
                if m.alive && (epoch >= m.join_epoch || !self.fence_epoch) {
                    if epoch < m.join_epoch && n.violated.is_none() {
                        n.violated = Some(format!(
                            "stale snapshot: slot {slot} checkpoint ack for epoch {epoch} \
                             credited after admission shipped epoch {}",
                            m.join_epoch
                        ));
                    }
                    m.acked = m.acked.max(epoch);
                }
            }
            JWire::Evict { slot, inc } => {
                let sl = &mut n.slaves[slot];
                if sl.life == inc && !matches!(sl.phase, JoinPhase::Dead) {
                    if n.rejoins_used < self.max_rejoins {
                        n.rejoins_used += 1;
                        sl.life += 1;
                        sl.phase = JoinPhase::Joining;
                        let inc = sl.life;
                        n.net.send(JWire::Join { slot, inc });
                    } else {
                        sl.phase = JoinPhase::Dead;
                    }
                }
                // A verdict for another life is stale (FIFO in the
                // runtime): ignored.
            }
            JWire::Admit { slot, inc, epoch } => {
                let sl = &mut n.slaves[slot];
                if sl.life == inc && !matches!(sl.phase, JoinPhase::Dead) {
                    // Epoch-fenced like the runtime's rollback adoption: a
                    // duplicated older admission must not regress the
                    // member; an equal one re-acks (lost-ack replay).
                    let stale = matches!(sl.phase, JoinPhase::Member { epoch: e } if epoch < e);
                    if !stale {
                        sl.phase = JoinPhase::Member { epoch };
                        n.net.send(JWire::Ack { slot, epoch });
                    }
                }
            }
        }
    }

    fn invariant(&self, s: &JoinState) -> Option<String> {
        s.violated.clone()
    }

    fn quiescent(&self, s: &JoinState) -> bool {
        s.net.wire.is_empty() && (0..self.slots).all(|i| self.slot_settled(s, i))
    }

    /// A slot-`t` message touches only slot `t`'s master and slave views
    /// (the self-healing `Evict` reply and the re-ack it may insert stay in
    /// lane `t`).
    fn lane(&self, msg: &JWire) -> usize {
        msg.slot()
    }

    /// All slots are role-identical: one class, any permutation admissible.
    fn classes(&self, _: &JoinState) -> Vec<Vec<usize>> {
        vec![(0..self.slots).collect()]
    }

    fn signer<'a>(&'a self, s: &'a JoinState) -> impl Fn(usize) -> JoinSlotSig + 'a {
        move |t| {
            let on_slot = s.net.wire.iter().filter(|m| m.slot() == t);
            let mut wire: Vec<JWire> = on_slot.map(|m| m.for_slot(0)).collect();
            wire.sort();
            JoinSlotSig {
                master: s.master[t].clone(),
                slave: s.slaves[t].clone(),
                wire,
            }
        }
    }

    fn permute(&self, s: &JoinState, sigma: &[usize]) -> JoinState {
        let mut n = s.clone();
        for (t, &to) in sigma.iter().enumerate().take(self.slots) {
            n.master[to] = s.master[t].clone();
            n.slaves[to] = s.slaves[t].clone();
        }
        n.net.wire = s
            .net
            .wire
            .iter()
            .map(|m| m.for_slot(sigma[m.slot()]))
            .collect();
        n.net.wire.sort();
        n
    }
}
