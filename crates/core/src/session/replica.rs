//! Deputy-side master failover: replica absorption, master-silence watch,
//! and the epoch-fenced election state machine.
//!
//! The lowest-ranked `DEPUTIES` slaves each hold a [`DeputyState`]: a copy
//! of the master's control-plane replica ([`crate::msg::ReplicaMsg`]), a
//! one-row `Membership` table watching the *master's* liveness with the
//! same two-clock rules slaves are watched by, and a [`Ballot`] — the
//! election rules (terms, one vote per term, quorum counting). The model
//! checker's [`ElectionModel`](crate::session::model::ElectionModel) steps
//! the same `Ballot`, so the rules below exist once.
//!
//! The state machine is pure: every input returns the messages to send as
//! `(slave_index, FailoverMsg)` pairs and never touches an actor context,
//! so the whole election is unit-testable without a simulator.
//!
//! ## Election rules
//!
//! * A deputy **stands** when the master has shown no sign of life (neither
//!   protocol traffic nor [`FailoverMsg::MasterPing`]) for
//!   `MASTER_SUSPICION + rank × ELECTION_STAGGER` (8 s + rank × 2 s). The
//!   stagger makes the lowest live rank stand first, so the common case is
//!   a one-candidate election.
//! * Standing picks the term `term_seen + 1`, votes for itself, and
//!   broadcasts [`FailoverMsg::Candidacy`] to the other deputies.
//! * A deputy **grants** a vote iff the candidacy's term is newer than any
//!   term it already voted in (one vote per term — this is what makes two
//!   winners in one term impossible) *and* the candidate's replica is at
//!   least as fresh as its own (the newest-replica rule; ties go to the
//!   first candidacy to arrive, which the stagger biases toward the lowest
//!   rank).
//! * A candidate **wins** on a majority of the full deputy set (dead
//!   deputies count against the quorum, never for it). With one deputy the
//!   self-vote is the majority and the stand wins instantly.
//! * A candidacy that stalls (lost messages, dead voters) is retried after
//!   one more suspicion window *plus the rank stagger*, in a fresh term.
//!   Re-applying the stagger on every retry keeps the ranks separated even
//!   if a round dueled (two deputies standing in the same heartbeat slice,
//!   each refusing the other because its own vote for the term was spent) —
//!   without it, dueling candidates stay phase-locked forever. For the same
//!   reason the heartbeat slice that drives the election timer must not
//!   be coarser than the stagger (`try_run` rejects such a config).
//!
//! Exactly one winner can reach quorum in a given term; distinct terms may
//! each have a winner, and [`FailoverMsg::Promoted`] fencing resolves
//! that: the higher term supersedes the lower
//! ([`crate::error::ProtocolError::Superseded`]).

use crate::msg::{FailoverMsg, ReplicaMsg, SharedUnits};
use crate::recovery::RecoveryStats;
use crate::session::membership::Membership;
use dlb_sim::{SimDuration, SimTime};
use std::collections::BTreeSet;

/// Size of the deputy set: the lowest-ranked slaves (clamped to the slave
/// count) that hold a control-plane replica and may stand for election. An
/// election needs a majority of the set, so 3 tolerates one dead deputy.
pub(crate) const DEPUTIES: usize = 3;
/// Master silence (neither protocol traffic nor pings) after which the
/// rank-0 deputy stands for election.
pub(crate) const MASTER_SUSPICION: SimDuration = SimDuration::from_secs(8);
/// Extra silence per deputy rank before standing, so the lowest live rank
/// with a fresh replica wins without a vote split. The election timer is
/// checked from `slave_heartbeat` slices, so a heartbeat coarser than the
/// stagger cannot separate two deputies: their timer wakes would stand them
/// in the same slice, cross candidacies, and each refuse the other (both
/// spent their term's vote on themselves) term after term.
/// [`try_run`](crate::driver::try_run) therefore rejects
/// `slave_heartbeat > ELECTION_STAGGER`; equality is what the wide SOR
/// cells run at (16 s / 8 = 2 s) and separates the ranks by one slice.
pub(crate) const ELECTION_STAGGER: SimDuration = SimDuration::from_secs(2);

/// Everything the election winner needs to take over as master: carried out
/// of the engine unwind by `SlaveCommon::takeover`.
#[derive(Clone, Debug)]
pub struct TakeoverSeed {
    /// The term this deputy won; fences the takeover epoch.
    pub term: u64,
    /// The newest control-plane replica it holds.
    pub replica: ReplicaMsg,
    /// When it last heard the old master (either clock) — the start of the
    /// failover blackout, for `takeover_latency`.
    pub last_heard: SimTime,
    /// The snapshot states the winner itself held as a slave, `(invocation,
    /// units)`: the first fragments its successor bank is offered.
    pub held: Vec<(u64, SharedUnits)>,
}

/// One deputy's election state and the rules that move it: stand, grant a
/// vote, count one, win on a majority, stand down for a promotion. Pure —
/// no clock, no replica: callers pass their rank, the deputy-set size and
/// the freshness the grant rule compares. [`DeputyState`] wraps one for
/// the runtime; the election model holds one per deputy.
///
/// The field order is the model's state order, and `standing: None` orders
/// below every term.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ballot {
    /// Highest term seen anywhere (candidacies, votes, pings, promotions).
    pub term_seen: u64,
    /// Highest term this deputy has voted in (including for itself).
    pub(crate) voted_in: u64,
    /// `Some(term)` while standing as a candidate in `term`.
    pub(crate) standing: Option<u64>,
    /// Voters collected for the current candidacy (includes self).
    pub(crate) votes: BTreeSet<usize>,
}

impl Ballot {
    /// How many votes the current candidacy holds.
    pub fn tally(&self) -> usize {
        self.votes.len()
    }

    /// Learn of `term` from any message.
    pub fn see(&mut self, term: u64) {
        self.term_seen = self.term_seen.max(term);
    }

    /// Stand as deputy `me` in the term after every term seen, spending
    /// that term's vote on itself. Returns the term.
    pub fn stand(&mut self, me: usize) -> u64 {
        let term = self.term_seen + 1;
        self.term_seen = term;
        self.voted_in = term;
        self.standing = Some(term);
        self.votes = BTreeSet::from([me]);
        term
    }

    /// The grant rule: vote for a candidacy in `term` whose replica is
    /// `fresh` iff the term is newer than any voted in and `fresh` is at
    /// least `own`, the voter's freshness. A grant spends the term.
    pub fn vote(&mut self, term: u64, fresh: u64, own: u64) -> bool {
        self.see(term);
        let grant = term > self.voted_in && fresh >= own;
        if grant {
            self.voted_in = term;
        }
        grant
    }

    /// Count `voter`'s vote in `term`: only while standing in exactly that
    /// term (late votes for abandoned candidacies are inert).
    pub fn count(&mut self, term: u64, voter: usize) {
        self.see(term);
        if self.standing == Some(term) {
            self.votes.insert(voter);
        }
    }

    /// `Some(term)` when the candidacy holds a majority of the full set of
    /// `deputies` (dead deputies count against it, never for it).
    pub fn won(&self, deputies: usize) -> Option<u64> {
        self.standing.filter(|_| self.votes.len() > deputies / 2)
    }

    /// A master was promoted in `term`: drop any candidacy it outranks.
    pub fn stand_down(&mut self, term: u64) {
        self.see(term);
        if self.standing.is_some_and(|t| t <= term) {
            self.standing = None;
            self.votes.clear();
        }
    }

    /// The same ballot with every deputy `d` renamed `sigma[d]`.
    pub fn relabel(&self, sigma: &[usize]) -> Ballot {
        Ballot {
            votes: self.votes.iter().map(|&v| sigma[v]).collect(),
            ..self.clone()
        }
    }
}

/// The deputy role riding alongside a slave: replica storage, master watch,
/// and election state.
#[derive(Clone, Debug)]
pub struct DeputyState {
    /// This deputy's rank == its slave index (deputies are slaves
    /// `0..n_deputies`).
    pub idx: usize,
    /// Size of the full deputy set (quorum denominator).
    pub n_deputies: usize,
    /// One-row liveness table watching the master (index 0 = the master),
    /// under the same two-clock rules the master applies to slaves. Its
    /// nudge timer is never read: a deputy does not nudge the master.
    pub(crate) watch: Membership,
    /// Newest control-plane replica received (term-gated). Its `fresh` is
    /// this deputy's freshness, the scale the election compares.
    pub replica: ReplicaMsg,
    /// Terms, this deputy's vote, its candidacy.
    pub ballot: Ballot,
    /// Earliest instant a (re-)stand is allowed: rate-limits candidacies.
    next_stand_ok: SimTime,
}

impl DeputyState {
    pub fn new(idx: usize, n_deputies: usize, n_slaves: usize, now: SimTime) -> DeputyState {
        DeputyState {
            idx,
            n_deputies,
            watch: Membership::new(1, now, SimDuration::ZERO),
            replica: ReplicaMsg {
                term: 0,
                epoch: 0,
                invocation: 0,
                alive: vec![true; n_slaves],
                fresh: 0,
                best_banked: 0,
                recovery: RecoveryStats::default(),
                incarnations: vec![0; n_slaves],
            },
            ballot: Ballot::default(),
            next_stand_ok: now + MASTER_SUSPICION,
        }
    }

    /// Record protocol traffic from the master (replica, rollback, any
    /// control message): defers the election trigger.
    pub fn master_heard(&mut self, now: SimTime) {
        self.watch.heard(0, now);
    }

    /// Record a bare [`FailoverMsg::MasterPing`]: defers the election
    /// trigger on the ping clock only, mirroring how slave `Alive` pings
    /// defer suspicion without counting as protocol progress.
    pub fn master_ping(&mut self, term: u64, now: SimTime) {
        self.watch.ping(0, now);
        self.ballot.see(term);
    }

    /// Absorb a control-plane replica. Stale terms (an old master still
    /// flushing) are ignored; within the current term the newest message
    /// wins.
    pub fn absorb(&mut self, r: ReplicaMsg, now: SimTime) {
        if r.term < self.replica.term {
            return;
        }
        self.ballot.see(r.term);
        self.master_heard(now);
        self.replica = r;
    }

    /// Timer check: stand for election when the master has been silent past
    /// this rank's staggered threshold. Returns candidacy broadcasts (empty
    /// when not standing). Call [`Self::won`] afterwards — with one deputy
    /// the self-vote wins immediately.
    pub fn tick(&mut self, now: SimTime) -> Vec<(usize, FailoverMsg)> {
        let threshold = MASTER_SUSPICION + ELECTION_STAGGER * (self.idx as u64);
        if self.watch.silent_for(0, now) < threshold || now < self.next_stand_ok {
            return Vec::new();
        }
        let term = self.ballot.stand(self.idx);
        // The retry backoff re-applies the rank stagger: if a round ever
        // duels (two candidacies crossing on the wire, each refused because
        // the voter spent its term on itself), the retries separate by rank
        // again instead of staying phase-locked in dueling candidacies.
        self.next_stand_ok = now + threshold;
        let fresh = self.replica.fresh;
        (0..self.n_deputies)
            .filter(|&d| d != self.idx)
            .map(|d| {
                (
                    d,
                    FailoverMsg::Candidacy {
                        term,
                        candidate: self.idx,
                        fresh,
                    },
                )
            })
            .collect()
    }

    /// A peer deputy stood. Grant a vote iff the term is newer than any we
    /// voted in and the candidate's replica is at least as fresh as ours.
    pub fn on_candidacy(
        &mut self,
        term: u64,
        candidate: usize,
        fresh: u64,
    ) -> Vec<(usize, FailoverMsg)> {
        self.ballot.see(term);
        if candidate == self.idx || !self.ballot.vote(term, fresh, self.replica.fresh) {
            return Vec::new();
        }
        vec![(
            candidate,
            FailoverMsg::Vote {
                term,
                voter: self.idx,
                candidate,
            },
        )]
    }

    /// A vote arrived. Counted only while standing in exactly that term for
    /// exactly this deputy (late votes for abandoned candidacies are inert).
    pub fn on_vote(&mut self, term: u64, voter: usize, candidate: usize) {
        self.ballot.see(term);
        if candidate == self.idx {
            self.ballot.count(term, voter);
        }
    }

    /// `Some(term)` when the current candidacy has reached quorum.
    pub fn won(&self) -> Option<u64> {
        self.ballot.won(self.n_deputies)
    }

    /// A master was promoted in `term`. Stand down any candidacy it
    /// outranks and start watching the new master's clocks from now.
    pub fn on_promoted(&mut self, term: u64, now: SimTime) {
        self.ballot.stand_down(term);
        self.replica.term = self.replica.term.max(term);
        self.watch.heard(0, now);
    }

    /// Package the takeover seed after winning `term`, with the snapshot
    /// states this deputy `held` as a slave.
    pub fn seed(&self, term: u64, held: Vec<(u64, SharedUnits)>) -> TakeoverSeed {
        TakeoverSeed {
            term,
            replica: self.replica.clone(),
            last_heard: self.watch.last_heard[0].max(self.watch.last_ping[0]),
            held,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_sim::SimDuration;
    use std::sync::Arc;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn deputy(idx: usize, n: usize) -> DeputyState {
        DeputyState::new(idx, n, 16, t(0))
    }

    fn replica(term: u64, invocation: u64, fresh: u64) -> ReplicaMsg {
        ReplicaMsg {
            term,
            epoch: 0,
            invocation,
            alive: vec![true; 16],
            fresh,
            best_banked: fresh,
            recovery: RecoveryStats::default(),
            incarnations: vec![0; 16],
        }
    }

    #[test]
    fn stagger_orders_candidacies_by_rank() {
        let mut d0 = deputy(0, 3);
        let mut d1 = deputy(1, 3);
        // Rank 0 stands right at the suspicion threshold…
        assert!(d0.tick(t(7_999)).is_empty());
        let msgs = d0.tick(t(8_000));
        assert_eq!(msgs.len(), 2, "candidacy goes to the other two deputies");
        assert!(matches!(
            msgs[0],
            (
                1,
                FailoverMsg::Candidacy {
                    term: 1,
                    candidate: 0,
                    ..
                }
            )
        ));
        // …rank 1 must wait one extra stagger.
        assert!(d1.tick(t(9_999)).is_empty());
        assert!(!d1.tick(t(10_000)).is_empty());
    }

    #[test]
    fn master_pings_defer_the_stand_but_not_forever() {
        let mut d = deputy(0, 3);
        d.master_ping(0, t(6_000));
        assert!(d.tick(t(8_000)).is_empty(), "ping reset the clock");
        assert!(!d.tick(t(14_000)).is_empty(), "silence since the ping");
    }

    #[test]
    fn one_vote_per_term_and_staleness_guard() {
        let mut d = deputy(2, 3);
        d.absorb(replica(0, 5, 5), t(100));
        // A candidate with a staler replica is refused…
        assert!(d.on_candidacy(1, 0, 4).is_empty());
        // …a tie is granted (lowest rank stands first, so ties go to it)…
        let v = d.on_candidacy(1, 0, 5);
        assert!(matches!(
            v[0],
            (
                0,
                FailoverMsg::Vote {
                    term: 1,
                    voter: 2,
                    candidate: 0
                }
            )
        ));
        // …and the term is now spent, even for a fresher rival.
        assert!(d.on_candidacy(1, 1, 9).is_empty());
        assert!(!d.on_candidacy(2, 1, 9).is_empty(), "new term, new vote");
    }

    #[test]
    fn standing_consumes_own_vote_for_the_term() {
        let mut d = deputy(0, 3);
        let msgs = d.tick(t(8_000));
        assert_eq!(msgs.len(), 2);
        assert!(
            d.on_candidacy(1, 1, u64::MAX).is_empty(),
            "already voted for self"
        );
        assert!(!d.on_candidacy(2, 1, u64::MAX).is_empty());
    }

    #[test]
    fn quorum_counts_the_full_deputy_set() {
        let mut d = deputy(0, 3);
        d.tick(t(8_000));
        assert_eq!(d.won(), None, "self-vote alone is 1 of 3");
        d.on_vote(1, 5, 0); // vote for someone else's term? no: term 1, us
        assert_eq!(d.won(), Some(1), "2 of 3 is a majority");
        // A single-deputy set wins on the stand itself.
        let mut solo = deputy(0, 1);
        solo.tick(t(8_000));
        assert_eq!(solo.won(), Some(1));
    }

    #[test]
    fn late_votes_for_other_terms_or_candidates_are_inert() {
        let mut d = deputy(0, 3);
        d.tick(t(8_000));
        d.on_vote(2, 1, 0); // wrong term
        d.on_vote(1, 1, 2); // wrong candidate
        assert_eq!(d.won(), None);
    }

    #[test]
    fn dueling_retry_backoff_restores_rank_order() {
        let mut d1 = deputy(1, 3);
        let mut d2 = deputy(2, 3);
        // Rank 0 is dead and the survivors' timer wakes aligned: both stand
        // in the same heartbeat slice, candidacies cross on the wire, and
        // each refuses the other (its own vote for the term is spent).
        assert!(!d1.tick(t(12_000)).is_empty());
        assert!(!d2.tick(t(12_000)).is_empty());
        assert!(d1.on_candidacy(1, 2, 0).is_empty(), "vote spent on self");
        assert!(d2.on_candidacy(1, 1, 0).is_empty(), "vote spent on self");
        // The retry backoff re-applies the stagger: rank 1 re-stands a full
        // stagger before rank 2 is allowed to, so its fresh-term candidacy
        // lands while rank 2 is still rate-limited — and collects the vote.
        let retry = t(12_000) + MASTER_SUSPICION + ELECTION_STAGGER;
        assert!(!d1.tick(retry).is_empty(), "rank 1 re-stands first");
        assert!(d2.tick(retry).is_empty(), "rank 2 still rate-limited");
        let v = d2.on_candidacy(2, 1, 0);
        assert!(matches!(
            v[0],
            (
                1,
                FailoverMsg::Vote {
                    term: 2,
                    voter: 2,
                    candidate: 1
                }
            )
        ));
        d1.on_vote(2, 2, 1);
        assert_eq!(d1.won(), Some(2), "the duel breaks on the first retry");
    }

    #[test]
    fn restand_is_rate_limited_and_bumps_the_term() {
        let mut d = deputy(0, 3);
        assert!(!d.tick(t(8_000)).is_empty());
        assert!(d.tick(t(9_000)).is_empty(), "too soon to re-stand");
        let again = d.tick(t(16_000));
        assert!(matches!(again[0].1, FailoverMsg::Candidacy { term: 2, .. }));
    }

    /// A deputy's freshness is its replica's `fresh`, whatever the policy:
    /// the newest replica of the newest term sets it, a stale term none.
    #[test]
    fn absorb_is_term_gated_and_freshness_is_the_replicas() {
        let mut d = deputy(1, 3);
        d.absorb(replica(1, 4, 3), t(100));
        assert_eq!(d.replica.fresh, 3);
        d.absorb(replica(1, 6, 5), t(200));
        assert_eq!((d.replica.invocation, d.replica.fresh), (6, 5));
        // A stale-term replica is dropped wholesale.
        d.absorb(replica(0, 9, 9), t(300));
        assert_eq!((d.replica.invocation, d.replica.fresh), (6, 5));
        // A candidate as fresh as that is granted, a staler one refused.
        assert!(d.on_candidacy(2, 0, 4).is_empty());
        assert!(!d.on_candidacy(3, 0, 5).is_empty());
    }

    #[test]
    fn promotion_stands_down_outranked_candidacies_only() {
        let mut d = deputy(0, 3);
        d.tick(t(8_000)); // standing in term 1
        d.on_promoted(1, t(8_100));
        assert_eq!(d.won(), None, "stood down");
        assert!(d.tick(t(8_200)).is_empty(), "new master is live");
        // A *lower*-term promotion does not cancel a newer candidacy.
        let mut d = deputy(0, 3);
        d.ballot.see(4);
        d.tick(t(8_000)); // standing in term 5
        d.on_promoted(3, t(8_001));
        d.on_vote(5, 1, 0);
        assert_eq!(d.won(), Some(5));
    }

    #[test]
    fn seed_carries_the_replica_the_blackout_start_and_the_held_states() {
        let mut d = deputy(0, 3);
        d.absorb(replica(0, 4, 4), t(1_000));
        d.master_ping(0, t(2_000));
        let held = vec![(4, vec![(0, Arc::new(vec![vec![1.0]]))])];
        let seed = d.seed(3, held.clone());
        assert_eq!(seed.term, 3);
        assert_eq!(seed.replica.invocation, 4);
        assert_eq!(seed.last_heard, t(2_000), "later of the two clocks");
        // The held states travel uncopied.
        assert!(Arc::ptr_eq(&held[0].1[0].1, &seed.held[0].1[0].1));
    }
}
