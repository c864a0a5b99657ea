//! Pinned verdicts and state counts of the four protocol models.
//!
//! The reductions' strength is otherwise unrecorded — a clean pass used to
//! drop every count, and agreement alone (`reduced <= full`) lets a
//! reduction get weaker without a test noticing. Every row here is exact:
//! an `Ok` configuration keeps its `(states, depth)` under full BFS and its
//! `(states, depth, expanded, pruned_actions)` under symmetry + ample-set
//! reduction with the exact visited set; a deliberately broken variant
//! keeps its verdict, its diagnostic code and the length of its (shallowest,
//! by BFS) counterexample, full and reduced. Full and reduced runs of one
//! row reaching the same verdict and code is the reduction-soundness check;
//! the numbers are the contract a refactor of the models or of the explorer
//! must hold. A row changes only when the protocol it models changes.

use dlb_analyze::{
    check_election_protocol_with, check_join_protocol_with, check_protocol_with,
    check_transfer_protocol_with, CheckConfig, Code, Report,
};
use dlb_core::{ElectionModel, JoinModel, RestoreModel, TransferModel};
use dlb_sim::{explore, explore_reduced, Ample, ReduceConfig, Symmetric, Verdict};

const MAX_DEPTH: usize = 64;
const MAX_STATES: usize = 2_000_000;

fn reduced_cfg() -> ReduceConfig {
    ReduceConfig {
        max_depth: MAX_DEPTH,
        max_states: MAX_STATES,
        fingerprint: false,
    }
}

/// An exhausted clean configuration: `full` is `(states, depth)` of the
/// unreduced BFS (`None` where that space is out of a debug test's reach),
/// `reduced` is `(states, depth, expanded, pruned_actions)`.
fn pin_ok<S>(
    name: &str,
    sys: &S,
    full: Option<(usize, usize)>,
    reduced: (usize, usize, usize, usize),
) where
    S: Symmetric + Ample,
    S::State: std::hash::Hash,
{
    if let Some(want) = full {
        let ex = explore(sys, MAX_DEPTH, MAX_STATES);
        assert!(!ex.truncated, "{name}: full run truncated");
        assert_eq!(ex.verdict, Verdict::Ok, "{name}: full verdict");
        assert_eq!((ex.states, ex.depth), want, "{name}: full (states, depth)");
    }
    let (ex, st) = explore_reduced(sys, &reduced_cfg());
    assert!(!ex.truncated, "{name}: reduced run truncated");
    assert_eq!(ex.verdict, Verdict::Ok, "{name}: reduced verdict");
    assert_eq!(
        (ex.states, ex.depth, st.expanded, st.pruned_actions),
        reduced,
        "{name}: reduced (states, depth, expanded, pruned_actions)"
    );
}

/// A broken variant: both explorers must find a violation, `check` must
/// map it to `code` with reduction on and off, and the counterexamples
/// keep their lengths `(full, reduced)`.
fn pin_broken<S>(
    name: &str,
    sys: &S,
    check: impl Fn(&S, CheckConfig) -> Report,
    code: Code,
    steps: (usize, usize),
) where
    S: Symmetric + Ample,
    S::State: std::hash::Hash,
{
    let full = explore(sys, MAX_DEPTH, MAX_STATES);
    let (red, _) = explore_reduced(sys, &reduced_cfg());
    assert_eq!(full.verdict, Verdict::Violation, "{name}: full verdict");
    assert_eq!(red.verdict, Verdict::Violation, "{name}: reduced verdict");
    let len = |ex: &dlb_sim::Exploration| ex.trace.as_ref().expect("counterexample").steps.len();
    assert_eq!(
        (len(&full), len(&red)),
        steps,
        "{name}: counterexample steps (full, reduced)"
    );
    for reduce in [false, true] {
        let cfg = CheckConfig {
            walks: 0,
            reduce,
            exact: true,
            ..CheckConfig::default()
        };
        let codes: Vec<Code> = check(sys, cfg).diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            vec![code],
            "{name}: diagnostic codes (reduce = {reduce})"
        );
    }
}

// One row per configuration. Clean rows: name, model, full (states, depth),
// reduced (states, depth, expanded, pruned_actions). Broken rows: name, model,
// checker, code, counterexample steps (full, reduced).

#[test]
#[rustfmt::skip]
fn restore_pins() {
    pin_ok("restore-standard", &RestoreModel::standard(), Some((2_317, 13)), (1_955, 13, 1_951, 3_466));
    pin_ok("restore-wide2", &RestoreModel::wide(2), Some((243, 11)), (121, 11, 117, 158));
    pin_ok("restore-wide4", &RestoreModel::wide(4), Some((13_387, 19)), (725, 19, 721, 3_182));
    pin_broken("restore-no-dedup", &RestoreModel::broken_no_dedup(), check_protocol_with, Code::E101, (3, 3));
    // The duplicate-apply race that needs no fault budget at all: deliver a
    // restore, re-send it while the acknowledgement is still in flight,
    // deliver the stale copy. An over-eager "deliver acks first" reduction
    // would prune exactly this interleaving — the ample sets must keep the
    // local re-send actions expanded.
    let race = RestoreModel { max_drops: 0, max_dups: 0, ..RestoreModel::broken_no_dedup() };
    pin_broken("restore-resend-race", &race, check_protocol_with, Code::E101, (4, 4));
}

#[test]
#[rustfmt::skip]
fn transfer_pins() {
    pin_ok("transfer-standard", &TransferModel::standard(), Some((674, 10)), (395, 9, 362, 325));
    pin_ok("transfer-wide2", &TransferModel::wide(2), Some((926, 13)), (463, 12, 449, 533));
    pin_ok("transfer-wide4", &TransferModel::wide(4), Some((91_314, 23)), (4_248, 20, 4_234, 11_915));
    pin_broken("transfer-no-dedup", &TransferModel::broken_no_dedup(), check_transfer_protocol_with, Code::E104, (3, 4));
}

#[test]
#[rustfmt::skip]
fn election_pins() {
    pin_ok("election-standard", &ElectionModel::standard(), Some((578_149, 20)), (57_536, 19, 57_194, 153_333));
    pin_ok("election-wide2", &ElectionModel::wide(2), Some((733, 11)), (238, 11, 214, 123));
    // 2.54 M states unreduced: the reduced run only.
    pin_ok("election-wide4", &ElectionModel::wide(4), None, (5_575, 22, 5_541, 20_119));
    pin_broken("election-split-brain", &ElectionModel::broken_split_brain(), check_election_protocol_with, Code::E107, (8, 10));
    pin_broken("election-fresh-blind", &ElectionModel::broken_fresh_blind(), check_election_protocol_with, Code::E108, (4, 5));
    // A winner that restarts at its replica's `fresh` although a fragment of
    // that invocation died with the master; the clean rows above step the
    // same fragment tables through the production bank and fall back.
    pin_broken("election-trusts-fresh", &ElectionModel::broken_trusts_fresh(), check_election_protocol_with, Code::E114, (4, 5));
    let trusting = ElectionModel { coverage_check: false, ..ElectionModel::wide(4) };
    pin_broken("election-wide4-trusts-fresh", &trusting, check_election_protocol_with, Code::E114, (6, 7));
}

#[test]
#[rustfmt::skip]
fn join_pins() {
    // Evictions and rejoins are global budgets of two, so at most two slots
    // ever leave the initial state: past width 2 the orbit count stops growing.
    pin_ok("join-standard", &JoinModel::standard(), Some((55_913, 24)), (27_841, 24, 27_831, 25_453));
    pin_ok("join-wide3", &JoinModel::wide(3), Some((108_142, 24)), (27_841, 24, 27_831, 25_453));
    // The width the `lint-wide` CI job checks: the reduced run only.
    pin_ok("join-wide16", &JoinModel::wide(16), None, (27_841, 24, 27_831, 25_453));
    pin_broken("join-double-incarnation", &JoinModel::broken_double_incarnation(), check_join_protocol_with, Code::E111, (5, 5));
    pin_broken("join-stale-snapshot", &JoinModel::broken_stale_snapshot(), check_join_protocol_with, Code::E112, (7, 7));
}
