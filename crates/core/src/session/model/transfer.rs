//! Slave ↔ slave work migration over the transfer channel
//! ([`TransferModel`]).

use super::seqack::{
    adopt, heartbeat, holding_sig, relabel_holding, relabel_wire, resend, unacked_sig, wire_sig,
    Coords, SeqWire, UnitCoord,
};
use crate::protocol::TransferWindow;
use dlb_sim::{classes_by, Lead, LossyProtocol, Net};
use std::collections::{BTreeMap, BTreeSet};

/// A local action of the [`TransferModel`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransferLocal {
    /// The balancer orders move `m`: the sender sheds its units onto the
    /// channel to receiver `m % receivers` (or keeps them, if that
    /// receiver was already evicted).
    Offer(usize),
    /// The sender's re-send trigger for the channel to receiver `r` fires:
    /// re-send everything unacknowledged that is not already in flight.
    Resend(usize),
    /// Receiver `r` re-acknowledges while the ack carries news.
    Heartbeat(usize),
    /// Receiver `r` fail-stops: the master evicts it, the sender closes
    /// that channel and re-owns in-flight units, and the master
    /// re-scatters whatever no survivor reports owning (bounded budget).
    Evict(usize),
}

/// One receiving slave's slot in the [`TransferModel`]: its channel
/// endpoint, held units (with apply counts), and whether it fail-stopped.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReceiverSlot {
    pub window: TransferWindow<Vec<usize>>,
    pub holding: BTreeMap<usize, u32>,
    pub evicted: bool,
}

/// Full [`TransferModel`] state: the sender's per-receiver channel
/// endpoints and unit set, every receiver slot, and the network.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransferState {
    /// Sender endpoints, one channel per receiver.
    pub senders: Vec<TransferWindow<Vec<usize>>>,
    pub sender_holding: BTreeMap<usize, u32>,
    pub receivers: Vec<ReceiverSlot>,
    pub net: Net<SeqWire>,
    pub offered: usize,
    pub evicts_used: u32,
}

/// The abstracted slave↔slave work-migration system around
/// [`TransferWindow`] — the runtime's MoveOrder execution path, minus
/// everything that does not affect unit safety.
///
/// The sender starts holding every unit; the balancer orders `moves`
/// (disjoint unit batches) shed to the `receivers` round-robin (move `m`
/// targets receiver `m % receivers`); the network may drop or duplicate a
/// bounded number of messages; and receivers may fail-stop
/// ([`TransferLocal::Evict`], bounded by `max_evicts`), upon which the
/// sender re-owns the units in flight to the dead peer and the master
/// re-scatters exactly the units no survivor reports. `dedup_transfers =
/// false` is the deliberately broken variant that applies transfer payloads
/// without sequence-number dedup — the checker must find the duplicate-unit
/// counterexample (`dlb-analyze` maps it to E104).
#[derive(Clone, Debug)]
pub struct TransferModel {
    /// Unit ids the sender starts with (receivers start empty).
    pub units: Vec<usize>,
    /// Number of receiving slaves; move `m` targets receiver
    /// `m % receivers`.
    pub receivers: usize,
    /// Unit batches shed to the receivers, in order (disjoint subsets of
    /// `units`).
    pub moves: Vec<Vec<usize>>,
    pub max_drops: u32,
    pub max_dups: u32,
    /// How many receivers may fail-stop mid-protocol.
    pub max_evicts: u32,
    /// True = the real protocol (receiver dedups by sequence number).
    pub dedup_transfers: bool,
}

impl TransferModel {
    /// The standard checked configuration: four units, one receiver, two
    /// move batches, one drop, one duplication, and one eviction budget.
    pub fn standard() -> TransferModel {
        TransferModel {
            units: vec![0, 1, 2, 3],
            receivers: 1,
            moves: vec![vec![0, 1], vec![2]],
            max_drops: 1,
            max_dups: 1,
            max_evicts: 1,
            dedup_transfers: true,
        }
    }

    /// The broken variant: transfer payloads applied without dedup.
    pub fn broken_no_dedup() -> TransferModel {
        TransferModel {
            dedup_transfers: false,
            ..TransferModel::standard()
        }
    }

    /// A runtime-width instance: `n` receivers, one single-unit move per
    /// receiver (fully symmetric), the standard fault budget. This is what
    /// the `lint-wide` CI job checks at n = 16.
    pub fn wide(n: usize) -> TransferModel {
        TransferModel {
            units: (0..n).collect(),
            receivers: n,
            moves: (0..n).map(|u| vec![u]).collect(),
            ..TransferModel::standard()
        }
    }

    /// unit id → (round, position in batch, destination receiver). Units
    /// in no move are fixed points of every relabeling.
    fn unit_coords(&self) -> Coords {
        let mut m = BTreeMap::new();
        for (mi, mv) in self.moves.iter().enumerate() {
            for (j, &u) in mv.iter().enumerate() {
                m.insert(u, (mi / self.receivers, j, mi % self.receivers));
            }
        }
        m
    }

    /// Receiver `r`'s static move profile: batch size per round. Receivers
    /// are only interchangeable when their profiles are equal.
    fn profile(&self, r: usize) -> Vec<usize> {
        (0..)
            .map_while(|k| self.moves.get(k * self.receivers + r).map(Vec::len))
            .collect()
    }

    /// How many of receiver `r`'s moves have been offered after `offered`
    /// total offers (offers go round-robin in move order).
    fn offers_done(&self, offered: usize, r: usize) -> usize {
        offered / self.receivers + usize::from(r < offered % self.receivers)
    }
}

/// Permutation-invariant rendering of one receiver's view of a
/// [`TransferState`] (unit ids replaced by `(round, position)` move
/// coordinates), including the slice of the sender's holdings that belongs
/// to this receiver's moves. Transfer state never crosses receivers, so
/// equal signatures mean interchangeable receivers.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
pub struct ReceiverSig {
    sender: (bool, u64, u64, Vec<(u64, Vec<UnitCoord>)>),
    window: TransferWindow<Vec<usize>>,
    holding: Vec<(UnitCoord, u32)>,
    reowned: Vec<(UnitCoord, u32)>,
    evicted: bool,
    wire: Vec<(u8, u64, Vec<UnitCoord>)>,
}

impl LossyProtocol for TransferModel {
    type State = TransferState;
    type Wire = SeqWire;
    type Local = TransferLocal;
    type Sig = ReceiverSig;

    fn start(&self) -> TransferState {
        let slot = ReceiverSlot {
            window: TransferWindow::new(),
            holding: BTreeMap::new(),
            evicted: false,
        };
        TransferState {
            senders: vec![TransferWindow::new(); self.receivers],
            sender_holding: self.units.iter().map(|&u| (u, 1)).collect(),
            receivers: vec![slot; self.receivers],
            net: Net::default(),
            offered: 0,
            evicts_used: 0,
        }
    }

    fn net(s: &TransferState) -> &Net<SeqWire> {
        &s.net
    }

    fn net_mut(s: &mut TransferState) -> &mut Net<SeqWire> {
        &mut s.net
    }

    fn budgets(&self) -> (u32, u32) {
        (self.max_drops, self.max_dups)
    }

    fn locals(&self, s: &TransferState) -> Vec<TransferLocal> {
        let mut out = Vec::new();
        if s.offered < self.moves.len() {
            out.push(TransferLocal::Offer(s.offered));
        }
        for r in (0..self.receivers).filter(|&r| !s.receivers[r].evicted) {
            if resend(&s.net, r, s.senders[r].unacked()).next().is_some() {
                out.push(TransferLocal::Resend(r));
            }
            let applied = s.receivers[r].window.recv_watermark();
            if heartbeat(&s.net, r, applied, s.senders[r].acked_watermark()).is_some() {
                out.push(TransferLocal::Heartbeat(r));
            }
            if s.evicts_used < self.max_evicts {
                out.push(TransferLocal::Evict(r));
            }
        }
        out
    }

    fn apply_local(&self, n: &mut TransferState, local: &TransferLocal) {
        match *local {
            TransferLocal::Offer(m) => {
                let r = m % self.receivers;
                n.offered += 1;
                // Offer to an evicted slave: refused locally, the sender
                // keeps the units.
                if !n.receivers[r].evicted {
                    let units = self.moves[m].clone();
                    for u in &units {
                        let gone = n.sender_holding.remove(u).is_some();
                        debug_assert!(gone, "move batches must be disjoint owned units");
                    }
                    let _ = n.senders[r].send_with(|_| units.clone());
                    let seq = n.senders[r].seq_sent();
                    n.net.send(SeqWire::Data { to: r, seq, units });
                }
            }
            TransferLocal::Resend(r) => {
                let msgs: Vec<SeqWire> = resend(&n.net, r, n.senders[r].unacked()).collect();
                for m in msgs {
                    n.net.send(m);
                }
            }
            TransferLocal::Heartbeat(r) => {
                let watermark = n.receivers[r].window.recv_watermark();
                n.net.send(SeqWire::Ack { from: r, watermark });
            }
            TransferLocal::Evict(r) => {
                n.receivers[r].evicted = true;
                n.evicts_used += 1;
                // The sender re-owns everything still unacknowledged on
                // its channel to the dead peer...
                for units in n.senders[r].close() {
                    adopt(&mut n.sender_holding, units);
                }
                // ...then the master re-scatters exactly the units no
                // survivor reports owning (the OwnReport fence). Survivors
                // report units they hold plus units still pending on their
                // live channels — the sender retains those for re-send, so
                // they are recoverable, not lost.
                let mut owned: BTreeSet<usize> = n.sender_holding.keys().copied().collect();
                for (r2, slot) in n.receivers.iter().enumerate() {
                    if slot.evicted {
                        continue;
                    }
                    owned.extend(slot.holding.keys().copied());
                    owned.extend(
                        n.senders[r2]
                            .unacked()
                            .flat_map(|(_, units)| units.iter().copied()),
                    );
                }
                let missing = self.units.iter().copied().filter(|u| !owned.contains(u));
                adopt(&mut n.sender_holding, missing);
            }
        }
    }

    fn deliver(&self, n: &mut TransferState, msg: SeqWire) {
        match msg {
            SeqWire::Data { to, seq, units } => {
                let slot = &mut n.receivers[to];
                if slot.evicted {
                    // Fail-stop: deliveries to a crashed node vanish.
                    return;
                }
                // Broken variant: acknowledge the sequence but apply
                // unconditionally.
                let fresh = slot.window.accept(seq) || !self.dedup_transfers;
                if fresh {
                    adopt(&mut slot.holding, units);
                }
                let watermark = slot.window.recv_watermark();
                n.net.send(SeqWire::Ack {
                    from: to,
                    watermark,
                });
            }
            SeqWire::Ack { from, watermark } => {
                n.senders[from].ack(watermark);
            }
        }
    }

    fn invariant(&self, s: &TransferState) -> Option<String> {
        for (unit, applies) in s.sender_holding.iter() {
            if *applies > 1 {
                return Some(format!(
                    "duplicate work unit {unit} applied {applies} times on sender"
                ));
            }
        }
        for (r, slot) in s.receivers.iter().enumerate() {
            for (unit, applies) in slot.holding.iter() {
                if *applies > 1 {
                    return Some(format!(
                        "duplicate work unit {unit} applied {applies} times on receiver {r}"
                    ));
                }
            }
        }
        // A unit held by two live owners at once is also a duplicate.
        let mut owners: BTreeMap<usize, String> = s
            .sender_holding
            .keys()
            .map(|&u| (u, "sender".to_string()))
            .collect();
        for (r, slot) in s.receivers.iter().enumerate() {
            if slot.evicted {
                continue;
            }
            for unit in slot.holding.keys() {
                if let Some(prev) = owners.insert(*unit, format!("receiver {r}")) {
                    return Some(format!(
                        "duplicate work unit {unit} held by both {prev} and receiver {r}"
                    ));
                }
            }
        }
        if self.quiescent(s) {
            let held = owners.len();
            if held != self.units.len() {
                return Some(format!(
                    "lost work unit: quiescent with {held} of {} units owned",
                    self.units.len()
                ));
            }
        }
        None
    }

    fn quiescent(&self, s: &TransferState) -> bool {
        s.offered == self.moves.len()
            && s.net.wire.is_empty()
            && (0..self.receivers).all(|r| s.receivers[r].evicted || s.senders[r].fully_acked())
    }

    /// A `Data` to `r` or an `Ack` from `r` touches only `senders[r]` /
    /// `receivers[r]` (and set-valued wire appends).
    fn lane(&self, msg: &SeqWire) -> usize {
        msg.lane()
    }

    /// The ack-first tier on top of the lane rule: while an ack is in
    /// flight, only its own wire steps (plus the locals, which race with it
    /// through the sender windows) expand now. An ack only advances one
    /// sender's contiguous watermark, so ack deliveries commute with
    /// everything but that sender's locals, and resolving them eagerly
    /// collapses the watermark-advance interleavings — the dominant blowup
    /// at width 16 (the lane rule alone leaves a 6.8 M-state space).
    fn lead(&self, wire: &[SeqWire]) -> Option<Lead> {
        match wire.iter().position(SeqWire::is_ack) {
            Some(ack) => Some(Lead::Only(ack)),
            None => (!wire.is_empty()).then_some(Lead::Lane(0)),
        }
    }

    /// Receivers with equal move profiles *and* equal offered counts (a
    /// partially-offered round distinguishes receivers before and after
    /// the boundary).
    fn classes(&self, s: &TransferState) -> Vec<Vec<usize>> {
        classes_by(self.receivers, |r| {
            (self.profile(r), self.offers_done(s.offered, r))
        })
    }

    fn signer<'a>(&'a self, s: &'a TransferState) -> impl Fn(usize) -> ReceiverSig + 'a {
        let coords = self.unit_coords();
        move |r| {
            let snd = &s.senders[r];
            let reowned = s
                .sender_holding
                .iter()
                .filter(|(u, _)| matches!(coords.get(u), Some(&(_, _, dest)) if dest == r));
            ReceiverSig {
                sender: (
                    snd.is_open(),
                    snd.seq_sent(),
                    snd.acked_watermark(),
                    unacked_sig(snd.unacked(), &coords),
                ),
                window: s.receivers[r].window.clone(),
                holding: holding_sig(s.receivers[r].holding.iter(), &coords),
                reowned: holding_sig(reowned, &coords),
                evicted: s.receivers[r].evicted,
                wire: wire_sig(&s.net.wire, r, &coords),
            }
        }
    }

    /// `sigma` must map every receiver to one in the same class for the
    /// state being permuted. Unit ids are renamed along move coordinates.
    fn permute(&self, s: &TransferState, sigma: &[usize]) -> TransferState {
        let coords = self.unit_coords();
        let pi = |u: usize| -> usize {
            match coords.get(&u) {
                Some(&(k, j, r)) => self.moves[k * self.receivers + sigma[r]][j],
                None => u,
            }
        };
        let mut n = s.clone();
        for (r, w) in s.senders.iter().enumerate() {
            let mut wnd = w.clone();
            wnd.map_payloads(|units| units.iter_mut().for_each(|u| *u = pi(*u)));
            n.senders[sigma[r]] = wnd;
        }
        for (r, slot) in s.receivers.iter().enumerate() {
            n.receivers[sigma[r]] = ReceiverSlot {
                window: slot.window.clone(),
                holding: relabel_holding(&slot.holding, pi),
                evicted: slot.evicted,
            };
        }
        n.sender_holding = relabel_holding(&s.sender_holding, pi);
        n.net.wire = relabel_wire(&s.net.wire, sigma, pi);
        n
    }
}
