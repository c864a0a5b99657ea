//! Deputy election after a master crash ([`ElectionModel`]).

use crate::msg::UnitData;
use crate::session::checkpoint::CheckpointBank;
use crate::session::replica::Ballot;
use dlb_sim::{class_sort, LossyProtocol, Net};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A message in flight in the [`ElectionModel`]'s network. Every variant
/// carries its recipient so delivery is well-defined under reordering. The
/// runtime's election messages project onto it through
/// [`FailoverMsg::model_wire`](crate::msg::FailoverMsg::model_wire).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EWire {
    /// Candidate → peer deputy: stand for `term` (the runtime's
    /// [`crate::msg::FailoverMsg::Candidacy`]).
    Candidacy {
        to: usize,
        term: u64,
        candidate: usize,
    },
    /// Voter → candidate: vote granted in `term`
    /// ([`crate::msg::FailoverMsg::Vote`]).
    Vote { to: usize, term: u64, voter: usize },
    /// Winner → peer deputy: takeover announcement
    /// ([`crate::msg::FailoverMsg::Promoted`]).
    Promoted { to: usize, term: u64, winner: usize },
}

impl EWire {
    /// `(kind, to, from, term)` — the message's identity. The kind is 0,
    /// 1, 2 for a candidacy, a vote, a promotion.
    pub fn parts(&self) -> (u8, usize, usize, u64) {
        match *self {
            EWire::Candidacy {
                to,
                term,
                candidate,
            } => (0, to, candidate, term),
            EWire::Vote { to, term, voter } => (1, to, voter, term),
            EWire::Promoted { to, term, winner } => (2, to, winner, term),
        }
    }

    /// The same message between the relabeled ends `sigma[to]`, `sigma[from]`.
    fn between(&self, sigma: &[usize]) -> EWire {
        let mut m = self.clone();
        match &mut m {
            EWire::Candidacy {
                to,
                candidate: from,
                ..
            }
            | EWire::Vote {
                to, voter: from, ..
            }
            | EWire::Promoted {
                to, winner: from, ..
            } => {
                *to = sigma[*to];
                *from = sigma[*from];
            }
        }
        m
    }

    /// `(candidate, peer)`: the candidate or winner the message is about,
    /// and the deputy on the other end of it.
    fn candidate_and_peer(&self) -> (usize, usize) {
        let (_, to, from, _) = self.parts();
        match self {
            EWire::Vote { .. } => (to, from),
            _ => (from, to),
        }
    }
}

/// A local action of the [`ElectionModel`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ElectionLocal {
    /// Deputy `d`'s master-silence timer fires: it stands in a fresh term
    /// (re-standing abandons any stalled candidacy, as the runtime's
    /// rate-limited retry does). Bounded by the stand budget.
    Stand(usize),
    /// Deputy `d`'s candidacy reached quorum: it promotes itself and
    /// announces the takeover.
    Win(usize),
}

/// Per-deputy election state in the model: the runtime's own [`Ballot`],
/// the state [`crate::session::replica::DeputyState`] decides votes with.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeputyModel {
    pub ballot: Ballot,
    /// This deputy won and became master; it takes no further part.
    pub promoted_self: bool,
}

/// Full [`ElectionModel`] state.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ElectionState {
    pub deps: Vec<DeputyModel>,
    pub net: Net<EWire>,
    /// Every promotion announced so far, as `(term, winner)` — the
    /// split-brain invariant reads this.
    pub promoted: Vec<(u64, usize)>,
    /// Set when a winner restarts from a snapshot that does not cover every
    /// unit: `(term, winner, restart invocation)`.
    pub torn: Option<(u64, usize, u64)>,
    pub stands_used: u32,
}

/// The abstracted deputy-set/network system around the production election
/// rules, [`Ballot`].
///
/// Every deputy suspects the master (it is dead in this model) and may
/// stand; the network may drop or duplicate a bounded number of messages;
/// each deputy's `Ballot` stands, votes, counts, wins and stands down as
/// the runtime's does: one vote per term, majority of the *full* deputy
/// set to win. No deputy holds state another lacks, so the deputies are
/// interchangeable. A winner restarts where the production
/// `CheckpointBank` puts it once offered the fixed fragment table — the
/// fragments every survivor answers any winner with — which is the newest
/// invocation the fragments complete, else the initial data, so every
/// winner restarts from a snapshot that covers every unit.
/// `one_vote_per_term = false` is the deliberately broken variant whose
/// voters forget which terms they voted in — the model checker must find
/// the two-winners-one-term counterexample (`dlb-analyze` maps it to
/// E107). `coverage_check = false` restarts a winner at the newest
/// invocation any fragment names, from whatever fragments name it, which
/// the table leaves a unit short (E114). Each rewrites the ballot's or the
/// bank's input or state around the production call; neither type has a
/// flag for them.
#[derive(Clone, Debug)]
pub struct ElectionModel {
    /// Size of the full deputy set (quorum denominator).
    pub deputies: usize,
    /// Total stands allowed across all deputies (bounds the term space).
    pub max_stands: u32,
    pub max_drops: u32,
    pub max_dups: u32,
    /// True = the real protocol (a voter spends its vote for the term).
    pub one_vote_per_term: bool,
    /// The checkpoint fragments the survivors hold when the master dies,
    /// `(invocation, unit ids)` of `units`: what any winner collects. One
    /// fragment of the newest invocation named died with the master.
    pub fragments: Vec<(u64, Vec<usize>)>,
    pub units: usize,
    /// True = the real protocol (restart where the collected fragments
    /// complete a snapshot).
    pub coverage_check: bool,
}

impl ElectionModel {
    /// The standard checked configuration: three deputies, three stands,
    /// one drop and one duplication budget. The survivors hold invocation
    /// 1 whole and half of 2: unit 1's fragment of 2 died with the master,
    /// so every takeover restarts at 1.
    pub fn standard() -> ElectionModel {
        ElectionModel {
            deputies: 3,
            max_stands: 3,
            max_drops: 1,
            max_dups: 1,
            one_vote_per_term: true,
            fragments: vec![(1, vec![0]), (1, vec![1]), (2, vec![0])],
            units: 2,
            coverage_check: true,
        }
    }

    /// The broken variant: voters forget which terms they voted in, so one
    /// term can promote two masters (split brain).
    pub fn broken_split_brain() -> ElectionModel {
        ElectionModel {
            one_vote_per_term: false,
            ..ElectionModel::standard()
        }
    }

    /// The broken variant that trusts the newest invocation named: a
    /// winner restarts there although a fragment of it died with the
    /// master.
    pub fn broken_trusts_newest() -> ElectionModel {
        ElectionModel {
            coverage_check: false,
            ..ElectionModel::standard()
        }
    }

    /// A runtime-width configuration: `n` deputies, two stands to keep the
    /// term space bounded. The one checkpoint named lost a fragment with
    /// the master: every takeover restarts from the initial data.
    pub fn wide(n: usize) -> ElectionModel {
        ElectionModel {
            deputies: n,
            max_stands: 2,
            fragments: vec![(1, vec![0])],
            ..ElectionModel::standard()
        }
    }

    /// Where a takeover restarts, and how many units that snapshot holds:
    /// what the production bank makes of the fragment table, or — trusting
    /// the newest invocation named — that invocation and the fragments
    /// that name it.
    fn restart(&self) -> (u64, usize) {
        let at = self
            .fragments
            .iter()
            .map(|(inv, _)| *inv)
            .max()
            .unwrap_or(0);
        if !self.coverage_check && at > 0 {
            let named = self.fragments.iter().filter(|(inv, _)| *inv == at);
            let held: BTreeSet<usize> = named.flat_map(|(_, ids)| ids.iter().copied()).collect();
            return (at, held.len());
        }
        let mut bank = CheckpointBank::new();
        for (inv, ids) in &self.fragments {
            let units = ids.iter().map(|&u| (u, Arc::new(UnitData::new())));
            bank.offer(*inv, units.collect(), self.units);
        }
        let (inv, snapshot) = bank.rollback_snapshot(self.units, &|_| UnitData::new());
        (inv, snapshot.len())
    }

    /// Every deputy but `d` — the recipients of `d`'s broadcasts.
    fn peers(&self, d: usize) -> impl Iterator<Item = usize> {
        (0..self.deputies).filter(move |&to| to != d)
    }

    fn deputy_sig(&self, s: &ElectionState, d: usize) -> DeputySig {
        let (dep, b) = (&s.deps[d], &s.deps[d].ballot);
        let mut wire_in = Vec::new();
        let mut wire_out = Vec::new();
        for m in &s.net.wire {
            let (kind, to, from, term) = m.parts();
            if to == d {
                wire_in.push((kind, term));
            }
            if from == d {
                wire_out.push((kind, term));
            }
        }
        wire_in.sort_unstable();
        wire_out.sort_unstable();
        DeputySig {
            term_seen: b.term_seen,
            voted_in: b.voted_in,
            standing: b.standing,
            promoted_self: dep.promoted_self,
            votes: b.votes.len(),
            wire_in,
            wire_out,
            promoted_terms: s
                .promoted
                .iter()
                .filter(|&&(_, w)| w == d)
                .map(|&(t, _)| t)
                .collect(),
        }
    }

    /// Deputies the rest of the state can point at: candidates, winners,
    /// and vote targets. Ranked by local signature so the ranking itself
    /// is label-free (ties keep index order — a dedup loss, never a
    /// soundness one).
    fn anchors(&self, s: &ElectionState) -> Vec<usize> {
        let mut out: Vec<usize> = (0..self.deputies)
            .filter(|&d| {
                s.deps[d].ballot.standing.is_some()
                    || s.deps[d].promoted_self
                    || s.promoted.iter().any(|&(_, w)| w == d)
                    || s.net.wire.iter().any(|m| m.candidate_and_peer().0 == d)
            })
            .collect();
        out.sort_by_cached_key(|&a| self.deputy_sig(s, a));
        out
    }

    /// How deputy `d` relates to anchor `a`, with labels erased: vote-set
    /// membership plus the terms of each directed in-flight message kind
    /// between them (candidacy `a → d`, vote `d → a`, promotion `a → d`).
    /// This is what [`DeputySig`] alone cannot express — *which* candidate
    /// a voter's references point at — and recovering it is what keeps
    /// orbit-equivalent wide states merging instead of multiplying through
    /// voter-membership patterns.
    fn relation(&self, s: &ElectionState, d: usize, a: usize) -> Relation {
        let mut terms: [Vec<u64>; 3] = Default::default();
        for m in s
            .net
            .wire
            .iter()
            .filter(|m| m.candidate_and_peer() == (a, d))
        {
            let (kind, _, _, term) = m.parts();
            terms[kind as usize].push(term);
        }
        (s.deps[a].ballot.votes.contains(&d), terms)
    }
}

/// Permutation-covariant summary of one deputy's situation: local election
/// state plus its wire involvement and promotion record, with peer indices
/// erased. Election state references other deputies (vote sets, message
/// addressing), so equal signatures do not guarantee interchangeability —
/// the sort is a canonicalization heuristic, never a soundness condition.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
pub struct DeputySig {
    term_seen: u64,
    voted_in: u64,
    standing: Option<u64>,
    promoted_self: bool,
    votes: usize,
    wire_in: Vec<(u8, u64)>,
    wire_out: Vec<(u8, u64)>,
    promoted_terms: Vec<u64>,
}

/// `(voted for the anchor, in-flight terms per message kind)` — see
/// [`ElectionModel::relation`].
type Relation = (bool, [Vec<u64>; 3]);

impl LossyProtocol for ElectionModel {
    type State = ElectionState;
    type Wire = EWire;
    type Local = ElectionLocal;
    /// Local signature extended with the relations to each anchor, in
    /// anchor-rank order.
    type Sig = (DeputySig, Vec<Relation>);

    fn start(&self) -> ElectionState {
        ElectionState {
            deps: vec![DeputyModel::default(); self.deputies],
            net: Net::default(),
            promoted: Vec::new(),
            torn: None,
            stands_used: 0,
        }
    }

    fn net(s: &ElectionState) -> &Net<EWire> {
        &s.net
    }

    fn net_mut(s: &mut ElectionState) -> &mut Net<EWire> {
        &mut s.net
    }

    fn budgets(&self) -> (u32, u32) {
        (self.max_drops, self.max_dups)
    }

    fn locals(&self, s: &ElectionState) -> Vec<ElectionLocal> {
        let mut out = Vec::new();
        for d in (0..self.deputies).filter(|&d| !s.deps[d].promoted_self) {
            if s.stands_used < self.max_stands {
                out.push(ElectionLocal::Stand(d));
            }
            if s.deps[d].ballot.won(self.deputies).is_some() {
                out.push(ElectionLocal::Win(d));
            }
        }
        out
    }

    fn apply_local(&self, n: &mut ElectionState, local: &ElectionLocal) {
        match *local {
            ElectionLocal::Stand(d) => {
                let term = n.deps[d].ballot.stand(d);
                n.stands_used += 1;
                for to in self.peers(d) {
                    n.net.send(EWire::Candidacy {
                        to,
                        term,
                        candidate: d,
                    });
                }
            }
            ElectionLocal::Win(d) => {
                let dep = &mut n.deps[d];
                let term = dep.ballot.won(self.deputies).expect("Win needs a quorum");
                let (restart, covered) = self.restart();
                if covered < self.units {
                    n.torn = Some((term, d, restart));
                }
                dep.promoted_self = true;
                dep.ballot.stand_down(term);
                n.promoted.push((term, d));
                n.promoted.sort_unstable();
                for to in self.peers(d) {
                    n.net.send(EWire::Promoted {
                        to,
                        term,
                        winner: d,
                    });
                }
            }
        }
    }

    fn deliver(&self, n: &mut ElectionState, msg: EWire) {
        match msg {
            EWire::Candidacy {
                to,
                term,
                candidate,
            } => {
                let dep = &mut n.deps[to];
                if dep.promoted_self {
                    dep.ballot.see(term);
                    return; // Now a master; election traffic is inert.
                }
                let granted = if self.one_vote_per_term {
                    dep.ballot.vote(term)
                } else {
                    // Broken variant (E107): the voter forgets the terms it
                    // voted in for the grant, then keeps the highest.
                    let kept = std::mem::take(&mut dep.ballot.voted_in);
                    let granted = dep.ballot.vote(term);
                    dep.ballot.voted_in = dep.ballot.voted_in.max(kept);
                    granted
                };
                if granted {
                    n.net.send(EWire::Vote {
                        to: candidate,
                        term,
                        voter: to,
                    });
                }
            }
            // A winner stood down when it won, so its ballot counts no vote.
            EWire::Vote { to, term, voter } => n.deps[to].ballot.count(term, voter),
            EWire::Promoted { to, term, .. } => n.deps[to].ballot.stand_down(term),
        }
    }

    fn invariant(&self, s: &ElectionState) -> Option<String> {
        for pair in s.promoted.windows(2) {
            if pair[0].0 == pair[1].0 && pair[0].1 != pair[1].1 {
                return Some(format!(
                    "split brain: deputies {} and {} both promoted in term {}",
                    pair[0].1, pair[1].1, pair[0].0
                ));
            }
        }
        if let Some((term, winner, at)) = s.torn {
            return Some(format!(
                "takeover by deputy {winner} in term {term} restarts at invocation {at} from a \
                 snapshot that does not cover every unit"
            ));
        }
        None
    }

    /// Bounded model: liveness (someone eventually wins) is out of scope;
    /// any drained-wire terminal state is a legitimate end.
    fn quiescent(&self, s: &ElectionState) -> bool {
        s.net.wire.is_empty()
    }

    /// A delivery touches only its recipient's local state (plus set-valued
    /// wire appends); deliveries to the *same* deputy do conflict — the
    /// first candidacy wins its vote.
    fn lane(&self, msg: &EWire) -> usize {
        msg.parts().1
    }

    /// One class: the model has no per-deputy parameter, so any
    /// relabeling of the deputies maps it onto itself.
    fn classes(&self, _: &ElectionState) -> Vec<Vec<usize>> {
        vec![(0..self.deputies).collect()]
    }

    fn signer<'a>(&'a self, s: &'a ElectionState) -> impl Fn(usize) -> Self::Sig + 'a {
        let anchors = self.anchors(s);
        move |d| {
            let relations = anchors.iter().map(|&a| self.relation(s, d, a)).collect();
            (self.deputy_sig(s, d), relations)
        }
    }

    /// `sigma` may be any permutation of the deputies.
    fn permute(&self, s: &ElectionState, sigma: &[usize]) -> ElectionState {
        let mut n = s.clone();
        for (d, dep) in s.deps.iter().enumerate() {
            n.deps[sigma[d]] = DeputyModel {
                ballot: dep.ballot.relabel(sigma),
                promoted_self: dep.promoted_self,
            };
        }
        n.net.wire = s.net.wire.iter().map(|m| m.between(sigma)).collect();
        n.net.wire.sort();
        n.promoted = s.promoted.iter().map(|&(t, w)| (t, sigma[w])).collect();
        n.promoted.sort_unstable();
        n.torn = s.torn.map(|(t, w, at)| (t, sigma[w], at));
        n
    }

    /// Iterate the class-sort pass to a deterministic representative.
    /// Relabeling can shuffle the anchor ranking, so a single pass is not
    /// always a fixpoint; iterating until the state repeats — and taking
    /// the least state of the final cycle — makes the result both stable
    /// (idempotent) and independent of the starting labels' incidental
    /// order. In practice the loop exits after one or two passes.
    fn representative(&self, s: &ElectionState) -> ElectionState {
        let mut seen: Vec<ElectionState> = vec![s.clone()];
        loop {
            let next = class_sort(self, seen.last().expect("nonempty"));
            if let Some(pos) = seen.iter().position(|t| *t == next) {
                return seen[pos..].iter().min().expect("nonempty").clone();
            }
            seen.push(next);
        }
    }
}
