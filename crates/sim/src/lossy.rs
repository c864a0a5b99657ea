//! One lossy network under every protocol model.
//!
//! The protocol models `dlb-analyze` checks (they live in `dlb-core`, next
//! to the rules they model) all run over the same network: any delivery
//! order, a bounded number of drops, a bounded number of duplicates. This
//! module is that network, written once. A model implements
//! [`LossyProtocol`] — its state, its messages, its *local* actions (a
//! timer firing, a deputy standing) and what a delivery does — and the
//! blanket impls below make it a [`TransitionSystem`] with the [`Ample`]
//! and [`Symmetric`] reductions that reach runtime widths.
//!
//! ## The wire is a set
//!
//! [`Net::wire`] holds *distinct* in-flight messages (idempotent network):
//! re-sending an identical message merges with the copy already in flight,
//! and duplicate delivery is [`Step::DeliverCopy`], which applies a message
//! without consuming it. This is the standard sound reduction for
//! drop/duplicate networks — it preserves every receiver-visible delivery
//! sequence while keeping the state space small enough to exhaust.
//!
//! ## The lane rule (partial-order reduction)
//!
//! Every message belongs to one *lane* ([`LossyProtocol::lane`]): a peer
//! such that delivering, duplicating or dropping the message touches only
//! that peer's slice of the state, plus set-valued wire appends (which
//! commute) and the monotone fault counters. Wire steps in *different*
//! lanes are therefore independent, and the ample set expands only the
//! lane of the leading message ([`LossyProtocol::lead`]: by default the
//! first in wire order). Steps in the *same* lane do conflict (the first
//! candidacy takes the vote) and all stay. Every [`Step::Local`] stays too:
//! locals race with deliveries through the state both touch, and dropping
//! them is exactly how an over-eager rule would miss the zero-budget resend
//! race (re-send while the acknowledgement is in flight, then deliver the
//! stale copy). Every step consumes a wire slot or a monotone
//! budget/lifecycle resource, so the transition graph is a DAG and the
//! ignoring (cycle) proviso is vacuous. The argument is not proved
//! mechanically: `crates/analyze/tests/model_pins.rs` holds reduced and
//! full exploration to the same verdict and diagnostic on every
//! configuration small enough to exhaust both ways, every deliberately
//! broken variant included. What a model owes the rule is its independence
//! claim — the doc comment on its `lane`.
//!
//! ## The class sort (symmetry reduction)
//!
//! A model names its interchangeability classes
//! ([`LossyProtocol::classes`]: index sets whose members it cannot tell
//! apart) and a label-free per-peer signature ([`LossyProtocol::signer`]).
//! [`class_sort`] sorts each class by signature and relabels through
//! [`LossyProtocol::permute`] — always a real admissible permutation, so
//! the representative stays in the orbit whatever the signature misses.
//! Where peers hold no references to each other the sort is a perfect
//! canonicalizer; a model whose state does cross-reference overrides
//! [`LossyProtocol::representative`] (the election iterates the same pass
//! to a fixpoint).

use crate::explore::TransitionSystem;
use crate::reduce::{Ample, Symmetric};

/// The network half of a model state: what is in flight, and how much of
/// the fault budget is spent.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Net<W> {
    /// In flight: a sorted set of distinct messages (idempotent network).
    pub wire: Vec<W>,
    pub drops_used: u32,
    pub dups_used: u32,
}

impl<W> Default for Net<W> {
    fn default() -> Net<W> {
        Net {
            wire: Vec::new(),
            drops_used: 0,
            dups_used: 0,
        }
    }
}

impl<W: Ord> Net<W> {
    /// Put `msg` in flight; a copy already in flight absorbs it.
    pub fn send(&mut self, msg: W) {
        if let Err(at) = self.wire.binary_search(&msg) {
            self.wire.insert(at, msg);
        }
    }
}

/// One enabled step of a [`LossyProtocol`]: the three things the network
/// can do to the `i`-th in-flight message, or a local action of the model.
/// `Debug` prints a local as itself (`Scatter(0)`, not `Local(Scatter(0))`),
/// so counterexample traces read as the protocol's own vocabulary.
#[derive(Clone, PartialEq, Eq)]
pub enum Step<L> {
    /// Deliver the `i`-th in-flight message (and consume it).
    Deliver(usize),
    /// The network delivers a duplicate of the `i`-th in-flight message:
    /// effects apply but the original stays in flight (bounded budget).
    DeliverCopy(usize),
    /// The network drops the `i`-th in-flight message (bounded budget).
    Drop(usize),
    /// A local action of the model (a timer, a decision).
    Local(L),
}

impl<L: std::fmt::Debug> std::fmt::Debug for Step<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Step::Deliver(i) => write!(f, "Deliver({i})"),
            Step::DeliverCopy(i) => write!(f, "DeliverCopy({i})"),
            Step::Drop(i) => write!(f, "Drop({i})"),
            Step::Local(l) => l.fmt(f),
        }
    }
}

/// Which in-flight message the ample set is built around.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lead {
    /// Expand the wire steps of every message in this message's lane.
    Lane(usize),
    /// Expand this message's own wire steps only: the model claims it
    /// commutes even with the rest of its lane.
    Only(usize),
}

/// A protocol over the lossy network: everything that is the model's own.
/// The blanket impls supply [`TransitionSystem`], [`Ample`] and
/// [`Symmetric`], so the model value itself is what
/// [`crate::explore_reduced`] takes.
pub trait LossyProtocol {
    type State: Clone + Ord;
    type Wire: Clone + Ord;
    type Local: Clone + std::fmt::Debug;
    /// Label-free per-peer signature the class sort orders by.
    type Sig: Ord;

    /// The single initial state (empty wire, nothing spent).
    fn start(&self) -> Self::State;
    fn net(s: &Self::State) -> &Net<Self::Wire>;
    fn net_mut(s: &mut Self::State) -> &mut Net<Self::Wire>;
    /// `(max_drops, max_dups)`: how many messages the network may drop and
    /// duplicate over a whole run.
    fn budgets(&self) -> (u32, u32);

    /// The local actions enabled in `s`.
    fn locals(&self, s: &Self::State) -> Vec<Self::Local>;
    fn apply_local(&self, s: &mut Self::State, local: &Self::Local);
    /// Receiver/sender effects of delivering `msg` (shared by
    /// [`Step::Deliver`] and [`Step::DeliverCopy`]; the layer has already
    /// consumed or kept the in-flight copy).
    fn deliver(&self, s: &mut Self::State, msg: Self::Wire);

    /// Safety invariants; `Some(description)` reports a violation.
    fn invariant(&self, s: &Self::State) -> Option<String>;
    /// Whether `s`, if terminal, is a legitimate end rather than a deadlock.
    fn quiescent(&self, s: &Self::State) -> bool;

    /// The peer whose slice of the state `msg`'s wire steps touch — the
    /// model's independence claim for the lane rule (module doc).
    fn lane(&self, msg: &Self::Wire) -> usize;
    /// The message the ample set is built around; `None` opts out (every
    /// enabled step expands). Default: the first message's whole lane.
    fn lead(&self, wire: &[Self::Wire]) -> Option<Lead> {
        (!wire.is_empty()).then_some(Lead::Lane(0))
    }

    /// Interchangeability classes for `s`: a partition of the peer indices,
    /// members ascending.
    fn classes(&self, s: &Self::State) -> Vec<Vec<usize>>;
    /// The signature function for `s` (built once per state, so a model can
    /// share its unit-coordinate table or anchor ranking across peers).
    fn signer<'a>(&'a self, s: &'a Self::State) -> impl Fn(usize) -> Self::Sig + 'a;
    /// Relabel peers by `sigma` (`sigma[d]` is `d`'s new index), which must
    /// map every peer into its own class; the result is exactly the state
    /// the model would have reached with the roles swapped.
    fn permute(&self, s: &Self::State, sigma: &[usize]) -> Self::State;
    /// The orbit representative [`Symmetric::canonical`] returns.
    fn representative(&self, s: &Self::State) -> Self::State {
        class_sort(self, s)
    }
}

/// Group the peers `0..n` by `key`: the usual way to build
/// [`LossyProtocol::classes`] (classes in key order, members ascending).
pub fn classes_by<K: Ord>(n: usize, key: impl Fn(usize) -> K) -> Vec<Vec<usize>> {
    let mut by_key: std::collections::BTreeMap<K, Vec<usize>> = Default::default();
    for peer in 0..n {
        by_key.entry(key(peer)).or_default().push(peer);
    }
    by_key.into_values().collect()
}

/// One class-sort pass: order every class by signature and relabel.
pub fn class_sort<P: LossyProtocol + ?Sized>(p: &P, s: &P::State) -> P::State {
    let classes = p.classes(s);
    let mut sigma: Vec<usize> = (0..classes.iter().map(Vec::len).sum()).collect();
    let mut moved = false;
    let sig = p.signer(s);
    for class in classes.iter().filter(|c| c.len() > 1) {
        let mut order = class.clone();
        order.sort_by_cached_key(|&d| sig(d));
        for (rank, &d) in order.iter().enumerate() {
            sigma[d] = class[rank];
            moved |= d != class[rank];
        }
    }
    if moved {
        p.permute(s, &sigma)
    } else {
        s.clone()
    }
}

impl<P: LossyProtocol> TransitionSystem for P {
    type State = <P as LossyProtocol>::State;
    type Action = Step<P::Local>;

    fn initial(&self) -> Self::State {
        self.start()
    }

    fn actions(&self, s: &Self::State) -> Vec<Self::Action> {
        let net = P::net(s);
        let (max_drops, max_dups) = self.budgets();
        let mut out = Vec::new();
        for i in 0..net.wire.len() {
            out.push(Step::Deliver(i));
            if net.drops_used < max_drops {
                out.push(Step::Drop(i));
            }
            if net.dups_used < max_dups {
                out.push(Step::DeliverCopy(i));
            }
        }
        out.extend(self.locals(s).into_iter().map(Step::Local));
        out
    }

    fn apply(&self, s: &Self::State, a: &Self::Action) -> Self::State {
        let mut n = s.clone();
        match a {
            Step::Deliver(i) => {
                let msg = P::net_mut(&mut n).wire.remove(*i);
                self.deliver(&mut n, msg);
            }
            Step::DeliverCopy(i) => {
                let net = P::net_mut(&mut n);
                net.dups_used += 1;
                let msg = net.wire[*i].clone();
                self.deliver(&mut n, msg);
            }
            Step::Drop(i) => {
                let net = P::net_mut(&mut n);
                net.wire.remove(*i);
                net.drops_used += 1;
            }
            Step::Local(local) => self.apply_local(&mut n, local),
        }
        n
    }

    fn violation(&self, s: &Self::State) -> Option<String> {
        self.invariant(s)
    }

    fn is_accepting(&self, s: &Self::State) -> bool {
        self.quiescent(s)
    }
}

impl<P: LossyProtocol> Ample for P {
    /// The lane rule (module doc). Never empty: the lead message's own
    /// `Deliver` is always enabled.
    fn ample(&self, s: &Self::State, enabled: Vec<Self::Action>) -> Vec<Self::Action> {
        let wire = &P::net(s).wire;
        let Some(lead) = self.lead(wire) else {
            return enabled;
        };
        let lead_lane = match lead {
            Lead::Lane(i) | Lead::Only(i) => self.lane(&wire[i]),
        };
        let keeps = |j: usize| match lead {
            Lead::Lane(_) => self.lane(&wire[j]) == lead_lane,
            Lead::Only(i) => j == i,
        };
        enabled
            .into_iter()
            .filter(|a| match a {
                Step::Deliver(j) | Step::DeliverCopy(j) | Step::Drop(j) => keeps(*j),
                Step::Local(_) => true,
            })
            .collect()
    }
}

impl<P: LossyProtocol> Symmetric for P {
    fn canonical(&self, s: &Self::State) -> Self::State {
        self.representative(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two peers; `Ping(p)` puts `p`'s next numbered message in flight (two
    /// each), a delivery counts it at `p`. One drop, one duplicate.
    struct Toy;

    #[derive(Clone, Debug, PartialEq)]
    struct Ping(usize);

    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct ToyState {
        sent: [u8; 2],
        got: [u8; 2],
        net: Net<(usize, u8)>,
    }

    impl LossyProtocol for Toy {
        type State = ToyState;
        type Wire = (usize, u8);
        type Local = Ping;
        type Sig = (u8, u8, Vec<u8>);

        fn start(&self) -> ToyState {
            ToyState {
                sent: [0; 2],
                got: [0; 2],
                net: Net::default(),
            }
        }
        fn net(s: &ToyState) -> &Net<(usize, u8)> {
            &s.net
        }
        fn net_mut(s: &mut ToyState) -> &mut Net<(usize, u8)> {
            &mut s.net
        }
        fn budgets(&self) -> (u32, u32) {
            (1, 1)
        }
        fn locals(&self, s: &ToyState) -> Vec<Ping> {
            (0..2).filter(|&p| s.sent[p] < 2).map(Ping).collect()
        }
        fn apply_local(&self, s: &mut ToyState, Ping(p): &Ping) {
            s.sent[*p] += 1;
            s.net.send((*p, s.sent[*p]));
        }
        fn deliver(&self, s: &mut ToyState, (p, _): (usize, u8)) {
            s.got[p] += 1;
        }
        fn invariant(&self, _: &ToyState) -> Option<String> {
            None
        }
        fn quiescent(&self, s: &ToyState) -> bool {
            s.net.wire.is_empty()
        }
        fn lane(&self, msg: &(usize, u8)) -> usize {
            msg.0
        }
        fn classes(&self, _: &ToyState) -> Vec<Vec<usize>> {
            vec![vec![0, 1]]
        }
        fn signer<'a>(&'a self, s: &'a ToyState) -> impl Fn(usize) -> Self::Sig + 'a {
            let on = |p| s.net.wire.iter().filter(move |m| m.0 == p).map(|m| m.1);
            move |p| (s.sent[p], s.got[p], on(p).collect())
        }
        fn permute(&self, s: &ToyState, sigma: &[usize]) -> ToyState {
            let mut n = s.clone();
            for (p, &to) in sigma.iter().enumerate() {
                n.sent[to] = s.sent[p];
                n.got[to] = s.got[p];
            }
            n.net.wire = s.net.wire.iter().map(|&(p, k)| (sigma[p], k)).collect();
            n.net.wire.sort();
            n
        }
    }

    fn step(s: &ToyState, a: Step<Ping>) -> ToyState {
        assert!(Toy.actions(s).contains(&a), "{a:?} must be enabled");
        Toy.apply(s, &a)
    }

    #[test]
    fn send_keeps_a_sorted_set() {
        let mut net = Net::default();
        for m in [(1, 1), (0, 2), (1, 1), (0, 1)] {
            net.send(m);
        }
        assert_eq!(net.wire, vec![(0, 1), (0, 2), (1, 1)]);
    }

    #[test]
    fn copies_and_drops_spend_their_budgets() {
        let s = step(&Toy.start(), Step::Local(Ping(0)));
        let copied = step(&s, Step::DeliverCopy(0));
        assert_eq!(copied.net.wire, s.net.wire, "a copy stays in flight");
        assert_eq!((copied.got[0], copied.net.dups_used), (1, 1));
        let acts = Toy.actions(&copied);
        assert!(!acts.contains(&Step::DeliverCopy(0)), "dup budget spent");
        let dropped = step(&copied, Step::Drop(0));
        assert!(dropped.net.wire.is_empty());
        assert_eq!((dropped.got[0], dropped.net.drops_used), (1, 1));
        let again = step(&dropped, Step::Local(Ping(1)));
        assert_eq!(
            Toy.actions(&again),
            vec![Step::Deliver(0), Step::Local(Ping(0)), Step::Local(Ping(1))],
            "both budgets spent: only delivery and the locals remain"
        );
        let delivered = step(&again, Step::Deliver(0));
        assert!(delivered.net.wire.is_empty(), "a delivery consumes");
        assert_eq!(delivered.got, [1, 1]);
    }

    #[test]
    fn lane_rule_keeps_the_lead_lane_and_every_local() {
        let mut s = Toy.start();
        for p in [1, 0, 1] {
            s = step(&s, Step::Local(Ping(p)));
        }
        assert_eq!(s.net.wire, vec![(0, 1), (1, 1), (1, 2)]);
        let ample = Toy.ample(&s, Toy.actions(&s));
        let shown: Vec<String> = ample.iter().map(|a| format!("{a:?}")).collect();
        assert_eq!(
            shown,
            ["Deliver(0)", "Drop(0)", "DeliverCopy(0)", "Ping(0)"],
            "lane 1's wire steps wait; the local stays and prints as itself"
        );
    }

    #[test]
    fn class_sort_erases_a_relabeling() {
        let mut s = Toy.start();
        for a in [Step::Local(Ping(1)), Step::Local(Ping(1)), Step::Deliver(0)] {
            s = step(&s, a);
        }
        let swapped = Toy.permute(&s, &[1, 0]);
        assert_ne!(s, swapped);
        assert_eq!(Toy.canonical(&s), Toy.canonical(&swapped));
    }
}
