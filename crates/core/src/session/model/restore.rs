//! Master → survivor restore scatter ([`RestoreModel`]).

use super::seqack::{
    adopt, heartbeat, holding_sig, relabel_holding, relabel_wire, resend, unacked_sig, wire_sig,
    Coords, SeqWire, UnitCoord,
};
use crate::protocol::{AckTracker, SenderWindow};
use crate::recovery::redistribute;
use dlb_sim::{classes_by, LossyProtocol, Net};
use std::collections::BTreeMap;

/// A local action of the [`RestoreModel`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreLocal {
    /// Master scatters wave `w` of dead units over the survivors.
    Scatter(usize),
    /// The master's nudge timer fires for survivor `s`: re-send everything
    /// unacknowledged that is not already in flight.
    Resend(usize),
    /// Survivor `s` heartbeats its current watermark (`InvocationDone`
    /// re-send in the real runtime), while the ack carries news.
    Heartbeat(usize),
}

/// Per-survivor receiver state in the model.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlaveModel {
    pub tracker: AckTracker,
    /// Units held, with how many times each was *applied* — a count above
    /// one is a duplicate application (double compute / double insert).
    pub holding: BTreeMap<usize, u32>,
}

/// Full model state: master windows, survivor trackers, and the network.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RestoreState {
    pub windows: Vec<SenderWindow<Vec<usize>>>,
    pub slaves: Vec<SlaveModel>,
    pub net: Net<SeqWire>,
    pub scattered_waves: usize,
}

/// The abstracted master/slaves/network system around the restore protocol.
///
/// The master scatters `waves` of dead-slave units over `survivors`
/// (round-robin, exactly as [`crate::recovery::redistribute`] does), the
/// network may drop or duplicate a bounded number of messages, and both
/// sides run the [`SenderWindow`]/[`AckTracker`] rules. `dedup_acks = false`
/// switches the receiver to a deliberately broken variant that acknowledges
/// without deduplicating — the model checker must find the duplicate-apply
/// counterexample (and does; see `dlb-analyze`).
#[derive(Clone, Debug)]
pub struct RestoreModel {
    pub survivors: usize,
    /// Unit ids scattered per wave (each wave is one eviction's re-scatter).
    pub waves: Vec<Vec<usize>>,
    pub max_drops: u32,
    pub max_dups: u32,
    /// True = the real protocol (receiver dedups by sequence number).
    pub dedup_acks: bool,
}

impl RestoreModel {
    /// The standard checked configuration: two survivors, one eviction wave
    /// of three units followed by a second single-unit wave, one drop and
    /// one duplication budget.
    pub fn standard() -> RestoreModel {
        RestoreModel {
            survivors: 2,
            waves: vec![vec![0, 1, 2], vec![3]],
            max_drops: 1,
            max_dups: 1,
            dedup_acks: true,
        }
    }

    /// The broken variant: acknowledgements without receiver dedup.
    pub fn broken_no_dedup() -> RestoreModel {
        RestoreModel {
            dedup_acks: false,
            ..RestoreModel::standard()
        }
    }

    /// A runtime-width instance: `n` survivors, one eviction wave of `n`
    /// units (one per survivor — fully symmetric), the standard fault
    /// budget. This is what the `lint-wide` CI job checks at n = 16.
    pub fn wide(n: usize) -> RestoreModel {
        RestoreModel {
            survivors: n,
            waves: vec![(0..n).collect()],
            ..RestoreModel::standard()
        }
    }

    fn all_units(&self) -> usize {
        self.waves.iter().map(|w| w.len()).sum()
    }

    /// Batch size survivor `s` receives in wave `w` under the round-robin
    /// redistribution (`waves[w][i]` goes to survivor `i % survivors`).
    fn batch_len(&self, w: usize, s: usize) -> usize {
        let len = self.waves[w].len();
        if len > s {
            (len - s).div_ceil(self.survivors)
        } else {
            0
        }
    }

    /// Per-survivor scatter profile (batch size per wave). Two survivors
    /// are interchangeable exactly when their profiles are equal: the
    /// scatter then sends them same-shaped batches with the same sequence
    /// numbers.
    fn profile(&self, s: usize) -> Vec<usize> {
        (0..self.waves.len())
            .map(|w| self.batch_len(w, s))
            .collect()
    }

    /// unit id → (wave, batch ordinal, destination survivor).
    fn unit_coords(&self) -> Coords {
        let mut m = BTreeMap::new();
        for (w, wave) in self.waves.iter().enumerate() {
            for (i, &u) in wave.iter().enumerate() {
                m.insert(u, (w, i / self.survivors, i % self.survivors));
            }
        }
        m
    }
}

/// Permutation-invariant rendering of one survivor's entire view of a
/// [`RestoreState`]: sender window, tracker, holdings, and wire messages,
/// with unit ids replaced by scatter coordinates. Restore state never
/// crosses survivors, so equal signatures mean interchangeable survivors.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
pub struct SurvivorSig {
    window: (u64, u64, Vec<(u64, Vec<UnitCoord>)>),
    tracker: AckTracker,
    holding: Vec<(UnitCoord, u32)>,
    wire: Vec<(u8, u64, Vec<UnitCoord>)>,
}

impl LossyProtocol for RestoreModel {
    type State = RestoreState;
    type Wire = SeqWire;
    type Local = RestoreLocal;
    type Sig = SurvivorSig;

    fn start(&self) -> RestoreState {
        RestoreState {
            windows: vec![SenderWindow::new(); self.survivors],
            slaves: vec![SlaveModel::default(); self.survivors],
            net: Net::default(),
            scattered_waves: 0,
        }
    }

    fn net(s: &RestoreState) -> &Net<SeqWire> {
        &s.net
    }

    fn net_mut(s: &mut RestoreState) -> &mut Net<SeqWire> {
        &mut s.net
    }

    fn budgets(&self) -> (u32, u32) {
        (self.max_drops, self.max_dups)
    }

    fn locals(&self, s: &RestoreState) -> Vec<RestoreLocal> {
        let mut out = Vec::new();
        if s.scattered_waves < self.waves.len() {
            out.push(RestoreLocal::Scatter(s.scattered_waves));
        }
        for t in 0..self.survivors {
            if resend(&s.net, t, s.windows[t].unacked()).next().is_some() {
                out.push(RestoreLocal::Resend(t));
            }
            let applied = s.slaves[t].tracker.watermark();
            if heartbeat(&s.net, t, applied, s.windows[t].watermark()).is_some() {
                out.push(RestoreLocal::Heartbeat(t));
            }
        }
        out
    }

    fn apply_local(&self, n: &mut RestoreState, local: &RestoreLocal) {
        match *local {
            RestoreLocal::Scatter(w) => {
                let survivors: Vec<usize> = (0..self.survivors).collect();
                for (t, units) in redistribute(&self.waves[w], &survivors) {
                    n.windows[t].send_with(|_| units.clone());
                    let seq = n.windows[t].seq_sent();
                    n.net.send(SeqWire::Data { to: t, seq, units });
                }
                n.scattered_waves += 1;
            }
            RestoreLocal::Resend(t) => {
                let msgs: Vec<SeqWire> = resend(&n.net, t, n.windows[t].unacked()).collect();
                for m in msgs {
                    n.net.send(m);
                }
            }
            RestoreLocal::Heartbeat(t) => {
                let watermark = n.slaves[t].tracker.watermark();
                n.net.send(SeqWire::Ack { from: t, watermark });
            }
        }
    }

    fn deliver(&self, n: &mut RestoreState, msg: SeqWire) {
        match msg {
            SeqWire::Data { to, seq, units } => {
                let slave = &mut n.slaves[to];
                // Broken variant: acknowledge the sequence but apply
                // unconditionally.
                let fresh = slave.tracker.fresh(seq) || !self.dedup_acks;
                if fresh {
                    adopt(&mut slave.holding, units);
                }
                let watermark = slave.tracker.watermark();
                n.net.send(SeqWire::Ack {
                    from: to,
                    watermark,
                });
            }
            SeqWire::Ack { from, watermark } => {
                n.windows[from].ack(watermark);
            }
        }
    }

    fn invariant(&self, s: &RestoreState) -> Option<String> {
        for (idx, slave) in s.slaves.iter().enumerate() {
            for (unit, applies) in &slave.holding {
                if *applies > 1 {
                    return Some(format!(
                        "unit {unit} applied {applies} times on survivor {idx} (duplicate apply)"
                    ));
                }
            }
        }
        // A unit held by two survivors at once is also a duplicate.
        let mut owners: BTreeMap<usize, usize> = BTreeMap::new();
        for (idx, slave) in s.slaves.iter().enumerate() {
            for unit in slave.holding.keys() {
                if let Some(prev) = owners.insert(*unit, idx) {
                    return Some(format!(
                        "unit {unit} held by survivors {prev} and {idx} simultaneously"
                    ));
                }
            }
        }
        if self.quiescent(s) {
            let held: usize = s.slaves.iter().map(|sl| sl.holding.len()).sum();
            if held != self.all_units() {
                return Some(format!(
                    "quiescent with {held} of {} units restored (lost work)",
                    self.all_units()
                ));
            }
        }
        None
    }

    fn quiescent(&self, s: &RestoreState) -> bool {
        s.scattered_waves == self.waves.len()
            && s.net.wire.is_empty()
            && s.windows.iter().all(|w| w.fully_acked())
    }

    /// A `Data` to `d` or an `Ack` from `d` touches only survivor `d`'s
    /// slot and its sender window.
    fn lane(&self, msg: &SeqWire) -> usize {
        msg.lane()
    }

    /// Equal-profile survivor classes, members ascending.
    fn classes(&self, _: &RestoreState) -> Vec<Vec<usize>> {
        classes_by(self.survivors, |s| self.profile(s))
    }

    fn signer<'a>(&'a self, s: &'a RestoreState) -> impl Fn(usize) -> SurvivorSig + 'a {
        let coords = self.unit_coords();
        move |d| {
            let w = &s.windows[d];
            SurvivorSig {
                window: (
                    w.seq_sent(),
                    w.watermark(),
                    unacked_sig(w.unacked(), &coords),
                ),
                tracker: s.slaves[d].tracker.clone(),
                holding: holding_sig(s.slaves[d].holding.iter(), &coords),
                wire: wire_sig(&s.net.wire, d, &coords),
            }
        }
    }

    /// `sigma` must map every survivor to one with an equal scatter
    /// profile. Unit ids are renamed along — unit `(wave, k)` of `d`'s
    /// batch becomes unit `(wave, k)` of `sigma[d]`'s batch.
    fn permute(&self, s: &RestoreState, sigma: &[usize]) -> RestoreState {
        let coords = self.unit_coords();
        let pi = |u: usize| -> usize {
            let (w, k, d) = coords[&u];
            self.waves[w][k * self.survivors + sigma[d]]
        };
        let mut n = s.clone();
        for (d, w) in s.windows.iter().enumerate() {
            let mut wnd = w.clone();
            wnd.map_payloads(|units| units.iter_mut().for_each(|u| *u = pi(*u)));
            n.windows[sigma[d]] = wnd;
        }
        for (d, sl) in s.slaves.iter().enumerate() {
            n.slaves[sigma[d]] = SlaveModel {
                tracker: sl.tracker.clone(),
                holding: relabel_holding(&sl.holding, pi),
            };
        }
        n.net.wire = relabel_wire(&s.net.wire, sigma, pi);
        n
    }
}
