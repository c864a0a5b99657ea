//! The sequence/ack lane: the wire vocabulary the restore and transfer
//! models share. Both ship sequence-numbered unit batches one way and a
//! contiguous applied watermark back; what differs is the production type
//! on each end ([`crate::protocol::SenderWindow`] + `AckTracker` vs
//! `TransferWindow`), which is why the two *models* stay two. Everything
//! that only looks at the wire — the re-send and re-acknowledge timers, and
//! the unit-coordinate renderings the symmetry reduction sorts by — is here
//! once.

use dlb_sim::Net;
use std::collections::BTreeMap;

/// A message in flight on a sequence/ack channel.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SeqWire {
    /// Sender → peer `to`: adopt these units (sequence-numbered — a
    /// master's `Restore` scatter or a slave's `Transfer` move).
    Data {
        to: usize,
        seq: u64,
        units: Vec<usize>,
    },
    /// Peer `from` → sender: contiguous applied watermark (carried by
    /// `InvocationDone::restore_seq` on the restore path in the real
    /// runtime).
    Ack { from: usize, watermark: u64 },
}

impl SeqWire {
    /// The peer whose channel this message travels on.
    pub fn lane(&self) -> usize {
        match self {
            SeqWire::Data { to, .. } => *to,
            SeqWire::Ack { from, .. } => *from,
        }
    }

    pub fn is_ack(&self) -> bool {
        matches!(self, SeqWire::Ack { .. })
    }
}

/// Count one more application of each of `units` (a count above one is a
/// duplicate application — double compute / double insert).
pub(super) fn adopt(holding: &mut BTreeMap<usize, u32>, units: impl IntoIterator<Item = usize>) {
    for u in units {
        *holding.entry(u).or_insert(0) += 1;
    }
}

/// What the sender's re-send timer for the channel to `to` would put in
/// flight: every unacknowledged batch that is not already there. At most
/// one copy of a pending message is in flight at a time (the timer refires,
/// so this loses no behaviours — it only bounds the wire occupancy).
pub(super) fn resend<'a>(
    net: &'a Net<SeqWire>,
    to: usize,
    unacked: impl Iterator<Item = &'a (u64, Vec<usize>)> + 'a,
) -> impl Iterator<Item = SeqWire> + 'a {
    unacked
        .map(move |(seq, units)| SeqWire::Data {
            to,
            seq: *seq,
            units: units.clone(),
        })
        .filter(|m| !net.wire.contains(m))
}

/// Peer `from`'s re-acknowledgement of `applied`, while it carries news
/// (the sender has only seen `acked` — the ack was lost) and is not already
/// in flight. In the runtime a slave re-sends `InvocationDone` until
/// released, and stops once settled — so the model stops at quiescence too,
/// which keeps quiescent states terminal for deadlock detection.
pub(super) fn heartbeat(
    net: &Net<SeqWire>,
    from: usize,
    applied: u64,
    acked: u64,
) -> Option<SeqWire> {
    let hb = SeqWire::Ack {
        from,
        watermark: applied,
    };
    (applied > acked && !net.wire.contains(&hb)).then_some(hb)
}

/// A unit's scatter coordinates minus the peer: `(round, ordinal within
/// the peer's batch)`. Invariant under admissible peer relabeling, so
/// signatures built over coordinates compare peers fairly.
pub(super) type UnitCoord = (usize, usize);

/// unit id → (round, batch ordinal, destination peer). Units a model never
/// ships are absent (fixed points of every relabeling).
pub(super) type Coords = BTreeMap<usize, (usize, usize, usize)>;

fn coord(coords: &Coords, u: usize) -> UnitCoord {
    let (round, ordinal, _) = coords[&u];
    (round, ordinal)
}

/// A sender window's retained batches, unit ids replaced by coordinates.
pub(super) fn unacked_sig<'a>(
    unacked: impl Iterator<Item = &'a (u64, Vec<usize>)>,
    coords: &Coords,
) -> Vec<(u64, Vec<UnitCoord>)> {
    unacked
        .map(|(seq, units)| (*seq, units.iter().map(|&u| coord(coords, u)).collect()))
        .collect()
}

/// Holdings (with apply counts), unit ids replaced by coordinates.
pub(super) fn holding_sig<'a>(
    holding: impl Iterator<Item = (&'a usize, &'a u32)>,
    coords: &Coords,
) -> Vec<(UnitCoord, u32)> {
    holding.map(|(u, c)| (coord(coords, *u), *c)).collect()
}

/// Peer `d`'s in-flight messages, peer index erased and unit ids replaced
/// by coordinates, sorted.
pub(super) fn wire_sig(
    wire: &[SeqWire],
    d: usize,
    coords: &Coords,
) -> Vec<(u8, u64, Vec<UnitCoord>)> {
    let mut sig: Vec<_> = wire
        .iter()
        .filter(|m| m.lane() == d)
        .map(|m| match m {
            SeqWire::Data { seq, units, .. } => {
                (0, *seq, units.iter().map(|&u| coord(coords, u)).collect())
            }
            SeqWire::Ack { watermark, .. } => (1, *watermark, Vec::new()),
        })
        .collect();
    sig.sort();
    sig
}

/// The wire with peers relabeled by `sigma` and unit ids by `pi`, re-sorted.
pub(super) fn relabel_wire(
    wire: &[SeqWire],
    sigma: &[usize],
    pi: impl Fn(usize) -> usize,
) -> Vec<SeqWire> {
    let mut out: Vec<SeqWire> = wire
        .iter()
        .map(|m| match m {
            SeqWire::Data { to, seq, units } => SeqWire::Data {
                to: sigma[*to],
                seq: *seq,
                units: units.iter().map(|&u| pi(u)).collect(),
            },
            SeqWire::Ack { from, watermark } => SeqWire::Ack {
                from: sigma[*from],
                watermark: *watermark,
            },
        })
        .collect();
    out.sort();
    out
}

/// Holdings with unit ids relabeled by `pi`.
pub(super) fn relabel_holding(
    holding: &BTreeMap<usize, u32>,
    pi: impl Fn(usize) -> usize,
) -> BTreeMap<usize, u32> {
    holding.iter().map(|(u, c)| (pi(*u), *c)).collect()
}
