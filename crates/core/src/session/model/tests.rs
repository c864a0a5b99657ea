use super::*;
use super::{ElectionLocal as E, JoinLocal as J, RestoreLocal as R, TransferLocal as T};
use dlb_sim::{LossyProtocol, Pcg32, Step, Symmetric, TransitionSystem};

#[test]
fn model_quiesces_on_the_happy_path() {
    let m = RestoreModel::standard();
    let mut s = m.initial();
    // Scatter both waves, then deliver everything FIFO until quiescent.
    while !m.is_accepting(&s) {
        let acts = m.actions(&s);
        let a = acts
            .iter()
            .find(|a| matches!(a, Step::Local(R::Scatter(_)) | Step::Deliver(_)))
            .expect("happy path always has a scatter or deliver");
        s = m.apply(&s, a);
        assert_eq!(m.violation(&s), None, "happy path must stay clean");
    }
    let held: usize = s.slaves.iter().map(|sl| sl.holding.len()).sum();
    assert_eq!(held, 4);
}

#[test]
fn broken_variant_double_applies_on_duplicate_delivery() {
    let m = RestoreModel::broken_no_dedup();
    let mut s = m.initial();
    s = m.apply(&s, &Step::Local(R::Scatter(0)));
    // Deliver a duplicate of the first restore, then the original.
    s = m.apply(&s, &Step::DeliverCopy(0));
    assert_eq!(m.violation(&s), None);
    s = m.apply(&s, &Step::Deliver(0));
    let v = m.violation(&s).expect("duplicate apply must be detected");
    assert!(v.contains("duplicate apply"), "{v}");
}

#[test]
fn dedup_variant_ignores_duplicate_delivery() {
    let m = RestoreModel::standard();
    let mut s = m.initial();
    s = m.apply(&s, &Step::Local(R::Scatter(0)));
    s = m.apply(&s, &Step::DeliverCopy(0));
    s = m.apply(&s, &Step::Deliver(0));
    assert_eq!(m.violation(&s), None, "dedup must absorb the duplicate");
}

#[test]
fn transfer_model_quiesces_on_the_happy_path() {
    let m = TransferModel::standard();
    let mut s = m.initial();
    while !m.is_accepting(&s) {
        let acts = m.actions(&s);
        let a = acts
            .iter()
            .find(|a| matches!(a, Step::Local(T::Offer(_)) | Step::Deliver(_)))
            .expect("happy path always has an offer or deliver");
        s = m.apply(&s, a);
        assert_eq!(m.violation(&s), None, "happy path must stay clean");
    }
    assert_eq!(s.sender_holding.len(), 1, "unit 3 stays at the sender");
    assert_eq!(s.receivers[0].holding.len(), 3);
}

#[test]
fn transfer_model_eviction_reowns_in_flight_units() {
    let m = TransferModel::standard();
    let mut s = m.initial();
    s = m.apply(&s, &Step::Local(T::Offer(0)));
    // The receiver crashes with the transfer still on the wire.
    s = m.apply(&s, &Step::Local(T::Evict(0)));
    assert_eq!(m.violation(&s), None);
    assert_eq!(
        s.sender_holding.len(),
        4,
        "sender re-owns the in-flight units"
    );
    // Offer 1 is refused locally; the stale transfer on the wire is
    // discarded at the dead node. No unit is lost or duplicated.
    s = m.apply(&s, &Step::Local(T::Offer(1)));
    s = m.apply(&s, &Step::Deliver(0));
    assert_eq!(m.violation(&s), None);
    assert!(m.is_accepting(&s));
}

#[test]
fn broken_transfer_variant_double_applies_on_duplicate_delivery() {
    let m = TransferModel::broken_no_dedup();
    let mut s = m.initial();
    s = m.apply(&s, &Step::Local(T::Offer(0)));
    s = m.apply(&s, &Step::DeliverCopy(0));
    assert_eq!(m.violation(&s), None);
    s = m.apply(&s, &Step::Deliver(0));
    let v = m.violation(&s).expect("duplicate apply must be detected");
    assert!(v.contains("duplicate work unit"), "{v}");
}

#[test]
fn election_single_candidate_wins_cleanly() {
    let m = ElectionModel::standard();
    let mut s = m.initial();
    s = m.apply(&s, &Step::Local(E::Stand(0)));
    while let Some(i) = s
        .net
        .wire
        .iter()
        .position(|w| matches!(w, EWire::Candidacy { .. }))
    {
        s = m.apply(&s, &Step::Deliver(i));
    }
    while let Some(i) = s
        .net
        .wire
        .iter()
        .position(|w| matches!(w, EWire::Vote { .. }))
    {
        s = m.apply(&s, &Step::Deliver(i));
    }
    assert!(
        m.actions(&s).contains(&Step::Local(E::Win(0))),
        "quorum reached"
    );
    s = m.apply(&s, &Step::Local(E::Win(0)));
    assert_eq!(m.violation(&s), None);
    assert_eq!(s.promoted, vec![(1, 0)]);
}

#[test]
fn election_one_vote_per_term_blocks_the_second_winner() {
    let m = ElectionModel::standard();
    let mut s = m.initial();
    // Deputies 0 and 1 both stand in term 1 (neither has heard the
    // other), and deputy 2 sees both candidacies.
    s = m.apply(&s, &Step::Local(E::Stand(0)));
    s = m.apply(&s, &Step::Local(E::Stand(1)));
    let to2: Vec<usize> = (0..s.net.wire.len())
        .filter(|&i| matches!(s.net.wire[i], EWire::Candidacy { to: 2, .. }))
        .collect();
    assert_eq!(to2.len(), 2);
    // Deliver both candidacies to deputy 2 (highest index first so the
    // removal indices stay valid): only ONE vote leaves.
    s = m.apply(&s, &Step::Deliver(to2[1]));
    s = m.apply(&s, &Step::Deliver(to2[0]));
    let votes = s
        .net
        .wire
        .iter()
        .filter(|w| matches!(w, EWire::Vote { voter: 2, .. }))
        .count();
    assert_eq!(votes, 1, "term 1 is spent after the first grant");
}

#[test]
fn broken_election_variant_promotes_two_masters_in_one_term() {
    let m = ElectionModel::broken_split_brain();
    let mut s = m.initial();
    s = m.apply(&s, &Step::Local(E::Stand(0)));
    s = m.apply(&s, &Step::Local(E::Stand(1)));
    // The forgetful voter (deputy 2) grants term 1 twice.
    while let Some(i) = s
        .net
        .wire
        .iter()
        .position(|w| matches!(w, EWire::Candidacy { to: 2, .. }))
    {
        s = m.apply(&s, &Step::Deliver(i));
    }
    while let Some(i) = s
        .net
        .wire
        .iter()
        .position(|w| matches!(w, EWire::Vote { .. }))
    {
        s = m.apply(&s, &Step::Deliver(i));
    }
    s = m.apply(&s, &Step::Local(E::Win(0)));
    assert_eq!(m.violation(&s), None, "one winner is still legal");
    s = m.apply(&s, &Step::Local(E::Win(1)));
    let v = m.violation(&s).expect("split brain must be detected");
    assert!(v.contains("split brain"), "{v}");
}

/// The fragments name invocation 2, one of whose two fragments died with
/// the master. A takeover falls back to invocation 1, which the survivors
/// hold whole; trusting the newest invocation named restarts at 2 a unit
/// short.
#[test]
fn a_winner_falls_back_where_the_newest_invocation_named_is_torn() {
    for (m, torn) in [
        (ElectionModel::standard(), None),
        (ElectionModel::broken_trusts_newest(), Some((1, 0, 2))),
    ] {
        let mut s = m.initial();
        s = m.apply(&s, &Step::Local(E::Stand(0)));
        while let Some(i) = s
            .net
            .wire
            .iter()
            .position(|w| !matches!(w, EWire::Promoted { .. }))
        {
            s = m.apply(&s, &Step::Deliver(i));
        }
        s = m.apply(&s, &Step::Local(E::Win(0)));
        assert_eq!(s.torn, torn);
        let v = m.violation(&s).unwrap_or_default();
        assert_eq!(
            v.contains("does not cover every unit"),
            torn.is_some(),
            "{v}"
        );
    }
}

// -- symmetry ----------------------------------------------------------------
// (Reduction soundness — reduced vs full exploration reaching the same
// verdict, code and pinned state counts on every small configuration and
// broken variant — lives in `crates/analyze/tests/model_pins.rs`.)

fn shuffle(rng: &mut Pcg32, v: &mut [usize]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_index(0, i + 1);
        v.swap(i, j);
    }
}

/// Random admissible relabeling: an independent shuffle of each class.
fn random_sigma(rng: &mut Pcg32, classes: &[Vec<usize>]) -> Vec<usize> {
    let mut sigma: Vec<usize> = (0..classes.iter().map(Vec::len).sum()).collect();
    for class in classes {
        let mut perm = class.clone();
        shuffle(rng, &mut perm);
        for (i, &d) in class.iter().enumerate() {
            sigma[d] = perm[i];
        }
    }
    sigma
}

/// 20 seeded walks × 40 steps: at every state, a random admissible
/// relabeling must canonicalize to the same representative. Holds for the
/// models whose class sort is a perfect canonicalizer (no cross-peer
/// references in the state).
fn assert_canonical_erases_relabeling<P>(m: &P, stream: u64)
where
    P: LossyProtocol,
    <P as LossyProtocol>::State: std::fmt::Debug,
{
    let mut rng = Pcg32::with_stream(0xD1B, stream);
    for walk in 0..20 {
        let mut s = m.start();
        for _ in 0..40 {
            let sigma = random_sigma(&mut rng, &m.classes(&s));
            let permuted = m.permute(&s, &sigma);
            assert_eq!(
                m.canonical(&s),
                m.canonical(&permuted),
                "walk {walk}: canonical must erase relabeling {sigma:?}"
            );
            let acts = m.actions(&s);
            if acts.is_empty() {
                break;
            }
            s = m.apply(&s, &acts[rng.gen_index(0, acts.len())]);
        }
    }
}

#[test]
fn canonical_is_permutation_invariant() {
    assert_canonical_erases_relabeling(&RestoreModel::wide(3), 1);
    assert_canonical_erases_relabeling(&TransferModel::wide(3), 2);
    assert_canonical_erases_relabeling(&JoinModel::wide(3), 4);
}

#[test]
fn election_canonical_is_sound_up_to_orbit() {
    // Election state holds cross-deputy references (vote sets, message
    // addressing), so the signature sort is a heuristic: canonical forms
    // of two relabelings may differ, but must stay in the same orbit,
    // and canonicalization must be idempotent. At three deputies the
    // orbit is small enough to check by enumerating all six relabelings.
    let m = ElectionModel::wide(3);
    let perms: Vec<Vec<usize>> = vec![
        vec![0, 1, 2],
        vec![0, 2, 1],
        vec![1, 0, 2],
        vec![1, 2, 0],
        vec![2, 0, 1],
        vec![2, 1, 0],
    ];
    let mut rng = Pcg32::with_stream(0xD1B, 3);
    for walk in 0..20 {
        let mut s = m.initial();
        for _ in 0..40 {
            let sigma = &perms[rng.gen_index(0, perms.len())];
            let ca = m.canonical(&s);
            let cb = m.canonical(&m.permute(&s, sigma));
            assert!(
                perms.iter().any(|p| m.permute(&ca, p) == cb),
                "walk {walk}: canonical left the orbit under {sigma:?}"
            );
            assert_eq!(m.canonical(&ca), ca, "canonical must be idempotent");
            let acts = m.actions(&s);
            if acts.is_empty() {
                break;
            }
            let a = acts[rng.gen_index(0, acts.len())].clone();
            s = m.apply(&s, &a);
        }
    }
}

/// Drive the join model through one eviction + rejoin by hand,
/// returning the state right after the new life was admitted, with the
/// old life's heartbeat still in flight.
fn evict_and_rejoin_with_zombie_alive(m: &JoinModel) -> JoinState {
    let mut s = m.initial();
    s = m.apply(&s, &Step::Local(J::Suspect(0))); // wire: Evict{0,1}
    s = m.apply(&s, &Step::Local(J::Heartbeat(0))); // wire: + Alive{0,1} (zombie-to-be)
    let evict = s
        .net
        .wire
        .iter()
        .position(|w| matches!(w, JWire::Evict { .. }))
        .unwrap();
    s = m.apply(&s, &Step::Deliver(evict)); // life 2 joins
    let join = s
        .net
        .wire
        .iter()
        .position(|w| matches!(w, JWire::Join { .. }))
        .unwrap();
    s = m.apply(&s, &Step::Deliver(join)); // admitted: epoch 1
    let admit = s
        .net
        .wire
        .iter()
        .position(|w| matches!(w, JWire::Admit { .. }))
        .unwrap();
    s = m.apply(&s, &Step::Deliver(admit)); // member at epoch 1
    assert!(s.master[0].alive);
    assert_eq!(s.master[0].incarnation, 2);
    assert_eq!(s.master[0].join_epoch, 1);
    assert_eq!(s.slaves[0].phase, JoinPhase::Member { epoch: 1 });
    s
}

#[test]
fn join_model_quiesces_after_evict_and_rejoin() {
    let m = JoinModel::standard();
    let mut s = evict_and_rejoin_with_zombie_alive(&m);
    // Drain the wire (the zombie Alive and the fresh Ack) FIFO-style.
    while !s.net.wire.is_empty() {
        s = m.apply(&s, &Step::Deliver(0));
        assert_eq!(m.violation(&s), None, "fenced model must stay clean");
    }
    assert!(m.is_accepting(&s), "settled after rejoin: {s:?}");
    assert_eq!(s.master[0].acked, 1);
}

#[test]
fn zombie_heartbeat_is_fenced_after_rejoin() {
    let m = JoinModel::standard();
    let mut s = evict_and_rejoin_with_zombie_alive(&m);
    let zombie = s
        .net
        .wire
        .iter()
        .position(|w| matches!(w, JWire::Alive { inc: 1, .. }))
        .unwrap();
    s = m.apply(&s, &Step::Deliver(zombie));
    assert_eq!(m.violation(&s), None, "incarnation fence must hold");
}

#[test]
fn broken_variant_credits_the_zombie_heartbeat() {
    let m = JoinModel::broken_double_incarnation();
    let mut s = evict_and_rejoin_with_zombie_alive(&m);
    let zombie = s
        .net
        .wire
        .iter()
        .position(|w| matches!(w, JWire::Alive { inc: 1, .. }))
        .unwrap();
    s = m.apply(&s, &Step::Deliver(zombie));
    let v = m.violation(&s).expect("zombie credit must be detected");
    assert!(v.contains("double incarnation"), "{v}");
}

#[test]
fn stale_checkpoint_ack_is_floored_after_readmission() {
    // Two admission cycles: the first life's Ack (epoch 1) is still in
    // flight when the second eviction and readmission raise the floor
    // to epoch 2.
    for (model, expect_violation) in [
        (JoinModel::standard(), false),
        (JoinModel::broken_stale_snapshot(), true),
    ] {
        let m = model;
        let mut s = evict_and_rejoin_with_zombie_alive(&m);
        // Don't deliver the epoch-1 Ack; evict life 2 and admit life 3.
        s = m.apply(&s, &Step::Local(J::Suspect(0)));
        let evict = s
            .net
            .wire
            .iter()
            .position(|w| matches!(w, JWire::Evict { inc: 2, .. }))
            .unwrap();
        s = m.apply(&s, &Step::Deliver(evict));
        let join = s
            .net
            .wire
            .iter()
            .position(|w| matches!(w, JWire::Join { inc: 3, .. }))
            .unwrap();
        s = m.apply(&s, &Step::Deliver(join));
        assert_eq!(s.master[0].join_epoch, 2);
        let stale = s
            .net
            .wire
            .iter()
            .position(|w| matches!(w, JWire::Ack { epoch: 1, .. }))
            .unwrap();
        s = m.apply(&s, &Step::Deliver(stale));
        match m.violation(&s) {
            Some(v) => {
                assert!(expect_violation, "fenced model flagged: {v}");
                assert!(v.contains("stale snapshot"), "{v}");
            }
            None => {
                assert!(!expect_violation, "broken model must flag the stale ack");
                assert_eq!(s.master[0].acked, 0, "floored ack must not be credited");
            }
        }
    }
}

#[test]
fn self_healing_evict_reply_recovers_a_lost_verdict() {
    // The Evict is dropped (partition): the slave's heartbeat must
    // regenerate the verdict, and the slot still rejoins and settles.
    let m = JoinModel::standard();
    let mut s = m.initial();
    s = m.apply(&s, &Step::Local(J::Suspect(0)));
    s = m.apply(&s, &Step::Drop(0)); // the Evict is lost
    assert!(s.net.wire.is_empty());
    s = m.apply(&s, &Step::Local(J::Heartbeat(0))); // slave still thinks it is a member
    s = m.apply(&s, &Step::Deliver(0)); // master re-replies Evict
    assert!(
        s.net
            .wire
            .iter()
            .any(|w| matches!(w, JWire::Evict { inc: 1, .. })),
        "self-healing reply must regenerate the verdict: {:?}",
        s.net.wire
    );
    while !s.net.wire.is_empty() {
        s = m.apply(&s, &Step::Deliver(0));
        assert_eq!(m.violation(&s), None);
    }
    assert!(m.is_accepting(&s), "must settle after the heal: {s:?}");
    assert_eq!(s.slaves[0].life, 2);
}

#[test]
fn rejoin_budget_exhaustion_parks_the_slot_dead() {
    let m = JoinModel {
        max_rejoins: 0,
        ..JoinModel::standard()
    };
    let mut s = m.initial();
    s = m.apply(&s, &Step::Local(J::Suspect(0)));
    s = m.apply(&s, &Step::Deliver(0));
    assert_eq!(s.slaves[0].phase, JoinPhase::Dead);
    assert!(
        m.slot_settled(&s, 0),
        "a dead slot with a dead master view is settled"
    );
}

#[test]
fn join_permute_roundtrips_and_canonical_is_stable() {
    let m = JoinModel::wide(3);
    let mut s = m.initial();
    s = m.apply(&s, &Step::Local(J::Suspect(2)));
    s = m.apply(&s, &Step::Local(J::Heartbeat(2)));
    // A 3-cycle and its inverse round-trip.
    let sigma = vec![1, 2, 0];
    let inv = vec![2, 0, 1];
    let p = m.permute(&s, &sigma);
    assert_eq!(m.permute(&p, &inv), s);
    // Canonicalization is permutation-invariant.
    assert_eq!(m.canonical(&s), m.canonical(&p));
}

/// A newer life's `Join` for a slot the master still counts alive speaks
/// for no life the master knows: delivered, it changes no state and sends
/// nothing. Once suspicion evicts the slot, the same `Join` is admitted.
#[test]
fn a_newer_lifes_join_waits_for_the_eviction_of_the_live_slot() {
    let m = JoinModel::standard();
    let join = JWire::Join { slot: 0, inc: 2 };
    let mut s = m.initial();
    s.net.send(join.clone());
    s = m.apply(&s, &Step::Deliver(0));
    assert_eq!(s, m.initial(), "ignored over a live slot");
    s = m.apply(&s, &Step::Local(J::Suspect(0)));
    s.net.send(join);
    let at = s
        .net
        .wire
        .iter()
        .position(|w| matches!(w, JWire::Join { .. }));
    s = m.apply(&s, &Step::Deliver(at.unwrap()));
    let master = &s.master[0];
    assert!(master.alive);
    assert_eq!((master.incarnation, master.join_epoch), (2, 1));
    let admit = JWire::Admit {
        slot: 0,
        inc: 2,
        epoch: 1,
    };
    assert!(s.net.wire.contains(&admit), "{:?}", s.net.wire);
}
