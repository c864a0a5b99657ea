//! Pillar 2: the protocol model checker.
//!
//! Drives `dlb-sim`'s explicit-state explorer over `dlb-core`'s abstracted
//! protocol systems — built from the *production*
//! [`SenderWindow`]/[`AckTracker`]/[`TransferWindow`]/[`Ballot`] transition
//! rules and the master's admission verdict — and converts verdicts into
//! the shared diagnostics format.
//!
//! Four models, twelve safety properties (the distributed-self-scheduling
//! correctness conditions of Eleliemy & Ciorba and Zafari & Larsson):
//!
//! * [`RestoreModel`] — the master/survivors restore protocol:
//!   **no duplicate apply** ([`Code::E101`]), **no lost work**
//!   ([`Code::E102`]), **no deadlock** ([`Code::E103`]).
//! * [`TransferModel`] — the slave↔slave work-migration (MoveOrder)
//!   protocol, with drops, duplicates, re-sends, and a fail-stop receiver:
//!   **no duplicate unit** ([`Code::E104`]), **no lost unit**
//!   ([`Code::E105`]), **no transfer deadlock** ([`Code::E106`]).
//! * [`ElectionModel`] — the master-failover deputy election (one vote per
//!   term, majority quorum) and the winner's restart point: **at most one
//!   master per term** ([`Code::E107`]), **no takeover from a torn
//!   snapshot** ([`Code::E114`]), **no election deadlock** ([`Code::E109`]).
//! * [`JoinModel`] — the mid-run join/rejoin handshake (incarnation-fenced
//!   admission, ack-floored snapshot shipping): **no double-incarnation
//!   credit** ([`Code::E111`]), **no stale-snapshot join**
//!   ([`Code::E112`]), **no join deadlock** ([`Code::E113`]).
//!
//! After the exhaustive pass, seeded random walks probe deeper
//! interleavings; any counterexample replays from its seed.
//!
//! [`SenderWindow`]: dlb_core::SenderWindow
//! [`AckTracker`]: dlb_core::AckTracker
//! [`TransferWindow`]: dlb_core::TransferWindow
//! [`Ballot`]: dlb_core::Ballot

use crate::diag::{Code, Diagnostic, Report};
use dlb_compiler::Span;
use dlb_core::session::model::{ElectionModel, JoinModel, RestoreModel, TransferModel};
use dlb_sim::{
    explore, explore_reduced, random_walks, Ample, Exploration, ReduceConfig, ReduceStats,
    Symmetric, Verdict,
};

/// Bounds for the exhaustive and sampled exploration.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    pub max_depth: usize,
    pub max_states: usize,
    /// Seed for the post-exhaustive random walks (0 walks disables).
    pub seed: u64,
    pub walks: u32,
    pub walk_depth: usize,
    /// Explore with symmetry + partial-order reduction
    /// ([`dlb_sim::explore_reduced`]); this is what makes runtime widths
    /// (16 survivors / deputies) checkable. Soundness is continuously
    /// re-validated by reduced-vs-full agreement tests on small configs.
    pub reduce: bool,
    /// With `reduce`, keep the exact visited-state set instead of 64-bit
    /// fingerprints — immune to hash collisions, at several times the
    /// memory (the escape hatch documented in DESIGN.md §13).
    pub exact: bool,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig {
            max_depth: 64,
            max_states: 2_000_000,
            seed: 0xd1b,
            walks: 256,
            walk_depth: 200,
            reduce: true,
            exact: false,
        }
    }
}

/// Which diagnostic each class of verdict maps to — the restore, transfer,
/// and election models share the explorer but report distinct codes.
#[derive(Clone, Copy)]
struct CodeMap {
    /// Something existed twice (double apply / double owner / two masters):
    /// a violation no `lost` marker names.
    duplicate: Code,
    /// Something went missing or stale: `(marker, code)`, selected when the
    /// violation detail contains the marker.
    lost: &'static [(&'static str, Code)],
    deadlock: Code,
}

const RESTORE_CODES: CodeMap = CodeMap {
    duplicate: Code::E101,
    lost: &[("lost work", Code::E102)],
    deadlock: Code::E103,
};

const TRANSFER_CODES: CodeMap = CodeMap {
    duplicate: Code::E104,
    lost: &[("lost work", Code::E105)],
    deadlock: Code::E106,
};

const ELECTION_CODES: CodeMap = CodeMap {
    duplicate: Code::E107,
    lost: &[("does not cover every unit", Code::E114)],
    deadlock: Code::E109,
};

const JOIN_CODES: CodeMap = CodeMap {
    duplicate: Code::E111,
    lost: &[("stale snapshot", Code::E112)],
    deadlock: Code::E113,
};

fn push_exploration(
    span: Span,
    codes: CodeMap,
    ex: &Exploration,
    how: &str,
    extra_notes: Vec<String>,
    report: &mut Report,
) {
    let mut notes = vec![format!(
        "{how}: {} states, depth {}{}",
        ex.states,
        ex.depth,
        if ex.truncated { " (truncated)" } else { "" }
    )];
    notes.extend(extra_notes);
    if let Some(trace) = &ex.trace {
        if !trace.detail.is_empty() {
            notes.push(format!("violation: {}", trace.detail));
        }
        notes.push(format!("counterexample ({} steps):", trace.steps.len()));
        notes.extend(trace.steps.iter().map(|s| format!("  {s}")));
    }
    let (code, message) = match ex.verdict {
        Verdict::Ok if !ex.truncated => return,
        Verdict::Ok => (
            Code::W102,
            format!("{how} was truncated by its bounds; the Ok verdict is bounded, not exhaustive"),
        ),
        Verdict::Violation => {
            let detail = ex.trace.as_ref().map_or("", |t| t.detail.as_str());
            let lost = codes
                .lost
                .iter()
                .find(|(marker, _)| detail.contains(marker));
            let code = lost.map_or(codes.duplicate, |&(_, code)| code);
            (code, format!("{how} found a safety violation"))
        }
        Verdict::Deadlock => (
            codes.deadlock,
            format!("{how} reached a non-quiescent state with no enabled action"),
        ),
    };
    report.push(Diagnostic::new(code, span, message).with_notes(notes));
}

/// The one check body: explore `model` exhaustively (reduced or full, per
/// `cfg`), then — if still clean — run seeded random walks past the
/// exhaustive horizon. The report is named `{name}{tag}`; the protocol has
/// no loop-nest location, so the span encodes the model's `shape` as the
/// pseudo-program and the diagnostic names what was checked. An untruncated
/// clean pass records its tallies in [`Report::tally`].
fn check_model<S>(
    model: &S,
    name: &str,
    tag: &str,
    shape: String,
    codes: CodeMap,
    cfg: CheckConfig,
) -> Report
where
    S: Symmetric + Ample,
    S::State: std::hash::Hash,
{
    let mut report = Report::new(format!("{name}{tag}"));
    let span = Span::program(&format!("{name}({shape})"));
    let (ex, stats): (Exploration, Option<ReduceStats>) = if cfg.reduce {
        let (ex, stats) = explore_reduced(
            model,
            &ReduceConfig {
                max_depth: cfg.max_depth,
                max_states: cfg.max_states,
                fingerprint: !cfg.exact,
            },
        );
        (ex, Some(stats))
    } else {
        (explore(model, cfg.max_depth, cfg.max_states), None)
    };
    let (how, notes, pruned) = match &stats {
        Some(st) => (
            "reduced exhaustive exploration",
            vec![format!(
                "reduction: {} states expanded, {} actions pruned, visited set {} bytes",
                st.expanded, st.pruned_actions, st.visited_bytes
            )],
            format!(", {} actions pruned", st.pruned_actions),
        ),
        None => ("exhaustive exploration", Vec::new(), String::new()),
    };
    push_exploration(span.clone(), codes, &ex, how, notes, &mut report);
    if ex.ok() && !ex.truncated {
        report.tally = Some(format!("{} states, depth {}{pruned}", ex.states, ex.depth));
    }
    if !report.has_errors() && cfg.walks > 0 {
        let walked = random_walks(model, cfg.seed, cfg.walks, cfg.walk_depth);
        // Walks only add findings: a clean sample after a clean exhaustive
        // pass is the expected quiet outcome.
        if walked.verdict != Verdict::Ok {
            let how = format!("random walks (seed {:#x})", cfg.seed);
            push_exploration(span, codes, &walked, &how, Vec::new(), &mut report);
        }
    }
    report
}

/// Exhaustively check `model`, then (if still clean) run seeded random
/// walks past the exhaustive horizon.
pub fn check_protocol_with(m: &RestoreModel, cfg: CheckConfig) -> Report {
    let tag = if m.dedup_acks { "" } else { " (no dedup)" };
    let shape = format!(
        "survivors={}, waves={:?}, drops={}, dups={}, dedup={}",
        m.survivors, m.waves, m.max_drops, m.max_dups, m.dedup_acks
    );
    check_model(m, "restore-protocol", tag, shape, RESTORE_CODES, cfg)
}

/// Check the standard protocol configuration with default bounds — what
/// `dlb-lint` runs.
pub fn check_protocol() -> Report {
    check_protocol_with(&RestoreModel::standard(), CheckConfig::default())
}

/// Exhaustively check a work-migration (transfer-window) model, then run
/// seeded random walks past the exhaustive horizon. Duplicated units map
/// to [`Code::E104`], lost units to [`Code::E105`], a wedged migration to
/// [`Code::E106`].
pub fn check_transfer_protocol_with(m: &TransferModel, cfg: CheckConfig) -> Report {
    let tag = if m.dedup_transfers { "" } else { " (no dedup)" };
    let shape = format!(
        "units={}, receivers={}, moves={:?}, drops={}, dups={}, evicts={}, dedup={}",
        m.units.len(),
        m.receivers,
        m.moves,
        m.max_drops,
        m.max_dups,
        m.max_evicts,
        m.dedup_transfers
    );
    check_model(m, "transfer-protocol", tag, shape, TRANSFER_CODES, cfg)
}

/// Check the standard transfer-protocol configuration with default bounds
/// — what `dlb-lint` runs.
pub fn check_transfer_protocol() -> Report {
    check_transfer_protocol_with(&TransferModel::standard(), CheckConfig::default())
}

/// Exhaustively check a master-failover election model, then run seeded
/// random walks past the exhaustive horizon. Two masters promoted in one
/// term map to [`Code::E107`], a takeover restarting from a snapshot that
/// does not cover every unit to [`Code::E114`], a wedged election to
/// [`Code::E109`].
pub fn check_election_protocol_with(m: &ElectionModel, cfg: CheckConfig) -> Report {
    let tag = match (m.one_vote_per_term, m.coverage_check) {
        (true, true) => "",
        (false, _) => " (forgetful voters)",
        (_, false) => " (newest-trusting winners)",
    };
    let shape = format!(
        "deputies={}, stands={}, drops={}, dups={}, one_vote_per_term={}, coverage_check={}",
        m.deputies, m.max_stands, m.max_drops, m.max_dups, m.one_vote_per_term, m.coverage_check
    );
    check_model(m, "election-protocol", tag, shape, ELECTION_CODES, cfg)
}

/// Check the standard election configuration with default bounds — what
/// `dlb-lint` runs.
pub fn check_election_protocol() -> Report {
    check_election_protocol_with(&ElectionModel::standard(), CheckConfig::default())
}

/// Exhaustively check a mid-run join/rejoin model, then run seeded random
/// walks past the exhaustive horizon. A zombie incarnation credited after
/// a newer life was admitted maps to [`Code::E111`], a checkpoint ack
/// credited below the admission ack floor to [`Code::E112`], a wedged
/// join handshake to [`Code::E113`].
pub fn check_join_protocol_with(m: &JoinModel, cfg: CheckConfig) -> Report {
    let tag = match (m.fence_incarnation, m.fence_epoch) {
        (true, true) => "",
        (false, _) => " (no incarnation fence)",
        (_, false) => " (no ack floor)",
    };
    let shape = format!(
        "slots={}, evicts={}, rejoins={}, drops={}, dups={}, incarnation_fence={}, ack_floor={}",
        m.slots,
        m.max_evicts,
        m.max_rejoins,
        m.max_drops,
        m.max_dups,
        m.fence_incarnation,
        m.fence_epoch
    );
    check_model(m, "join-protocol", tag, shape, JOIN_CODES, cfg)
}

/// Check the standard join configuration with default bounds — what
/// `dlb-lint` runs.
pub fn check_join_protocol() -> Report {
    check_join_protocol_with(&JoinModel::standard(), CheckConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_protocol_is_clean_and_exhausted() {
        let report = check_protocol();
        assert!(!report.has_errors(), "{}", report.render());
        assert!(
            !report.has(Code::W102),
            "state space must be exhausted within bounds: {}",
            report.render()
        );
    }

    #[test]
    fn no_dedup_variant_double_applies() {
        let report = check_protocol_with(&RestoreModel::broken_no_dedup(), CheckConfig::default());
        assert!(report.has_errors(), "{}", report.render());
        assert!(report.has(Code::E101), "{}", report.render());
        // The counterexample trace must be present and replayable.
        let diag = report.errors().next().unwrap();
        assert!(
            diag.notes.iter().any(|n| n.contains("counterexample")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn lossy_network_without_resend_budget_still_converges() {
        // Sanity: with zero drop/dup budget the model is the happy path.
        let m = RestoreModel {
            max_drops: 0,
            max_dups: 0,
            ..RestoreModel::standard()
        };
        let report = check_protocol_with(&m, CheckConfig::default());
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn standard_transfer_protocol_is_clean_and_exhausted() {
        let report = check_transfer_protocol();
        assert!(!report.has_errors(), "{}", report.render());
        assert!(
            !report.has(Code::W102),
            "state space must be exhausted within bounds: {}",
            report.render()
        );
    }

    #[test]
    fn no_dedup_transfer_variant_duplicates_a_unit() {
        let report =
            check_transfer_protocol_with(&TransferModel::broken_no_dedup(), CheckConfig::default());
        assert!(report.has_errors(), "{}", report.render());
        assert!(report.has(Code::E104), "{}", report.render());
        // The counterexample trace must be present and replayable.
        let diag = report.errors().next().unwrap();
        assert!(
            diag.notes.iter().any(|n| n.contains("counterexample")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn standard_election_protocol_is_clean_and_exhausted() {
        let report = check_election_protocol();
        assert!(!report.has_errors(), "{}", report.render());
        assert!(
            !report.has(Code::W102),
            "state space must be exhausted within bounds: {}",
            report.render()
        );
    }

    #[test]
    fn split_brain_variant_promotes_two_masters() {
        let report = check_election_protocol_with(
            &ElectionModel::broken_split_brain(),
            CheckConfig::default(),
        );
        assert!(report.has_errors(), "{}", report.render());
        assert!(report.has(Code::E107), "{}", report.render());
        // The counterexample trace must be present and replayable.
        let diag = report.errors().next().unwrap();
        assert!(
            diag.notes.iter().any(|n| n.contains("counterexample")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn newest_trusting_variant_restarts_from_a_torn_snapshot() {
        for m in [
            ElectionModel::broken_trusts_newest(),
            ElectionModel {
                coverage_check: false,
                ..ElectionModel::wide(4)
            },
        ] {
            let report = check_election_protocol_with(&m, CheckConfig::default());
            assert!(report.has(Code::E114), "{}", report.render());
        }
    }

    #[test]
    fn standard_join_protocol_is_clean_and_exhausted() {
        let report = check_join_protocol();
        assert!(!report.has_errors(), "{}", report.render());
        assert!(
            !report.has(Code::W102),
            "state space must be exhausted within bounds: {}",
            report.render()
        );
    }

    #[test]
    fn unfenced_join_variant_credits_a_zombie_incarnation() {
        let report = check_join_protocol_with(
            &JoinModel::broken_double_incarnation(),
            CheckConfig::default(),
        );
        assert!(report.has_errors(), "{}", report.render());
        assert!(report.has(Code::E111), "{}", report.render());
        // The counterexample trace must be present and replayable.
        let diag = report.errors().next().unwrap();
        assert!(
            diag.notes.iter().any(|n| n.contains("counterexample")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn unfloored_join_variant_books_a_stale_snapshot() {
        let report =
            check_join_protocol_with(&JoinModel::broken_stale_snapshot(), CheckConfig::default());
        assert!(report.has_errors(), "{}", report.render());
        assert!(report.has(Code::E112), "{}", report.render());
    }

    #[test]
    fn transfer_happy_path_without_faults_is_clean() {
        let m = TransferModel {
            max_drops: 0,
            max_dups: 0,
            max_evicts: 0,
            ..TransferModel::standard()
        };
        let report = check_transfer_protocol_with(&m, CheckConfig::default());
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn wide_models_check_clean_and_exhausted_with_reductions() {
        // A mid-size slice of what the lint-wide CI job runs at width 16:
        // with reductions on, the wide instances must still exhaust (no
        // W102) — this is the whole point of the reduction machinery.
        let cfg = CheckConfig {
            walks: 0,
            ..CheckConfig::default()
        };
        for report in [
            check_protocol_with(&RestoreModel::wide(6), cfg),
            check_transfer_protocol_with(&TransferModel::wide(6), cfg),
            check_election_protocol_with(&ElectionModel::wide(6), cfg),
            check_join_protocol_with(&JoinModel::wide(6), cfg),
        ] {
            assert!(!report.has_errors(), "{}", report.render());
            assert!(
                !report.has(Code::W102),
                "wide model must exhaust under reduction: {}",
                report.render()
            );
        }
    }

    #[test]
    fn exact_mode_matches_fingerprint_mode() {
        // The collision escape hatch must not change outcomes on models
        // small enough to compare.
        let fp = CheckConfig {
            walks: 0,
            ..CheckConfig::default()
        };
        let exact = CheckConfig { exact: true, ..fp };
        let a = check_protocol_with(&RestoreModel::standard(), fp);
        let b = check_protocol_with(&RestoreModel::standard(), exact);
        assert_eq!(a.has_errors(), b.has_errors());
        assert_eq!(a.has(Code::W102), b.has(Code::W102));
    }
}
