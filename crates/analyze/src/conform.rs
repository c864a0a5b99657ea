//! Trace-conformance checking: replay a recorded runtime trace through the
//! election protocol model.
//!
//! The model checker proves properties of the *abstraction*; this pass
//! closes the remaining gap by checking that the *implementation* stays
//! inside it. A kernel event trace (recorded with
//! `RunConfig::record_trace`, or captured from `DLB_TRACE_EVENTS` stderr —
//! same format, [`dlb_sim::trace`]) carries a tag on every election
//! message. [`FailoverMsg::from_tag`] reads a tag back into the message,
//! and [`FailoverMsg::model_wire`] projects it onto the model's wire, so
//! the tag grammar is known only to `dlb-core`. Replaying the tagged
//! events through [`ElectionModel`] asks, event by event: *is the action
//! the runtime took enabled in the model here?* A deputy that stands in a
//! term the model would not assign, a vote the model's rules refuse to
//! grant, a self-promotion without a modeled quorum — each is a refinement
//! violation, reported as [`Code::E110`] with the conforming prefix so the
//! divergence point is replayable. The model's deputies hold the runtime's
//! own [`Ballot`](dlb_core::Ballot), so the stand and win checks below
//! read the rules the runtime runs, not a copy of them.
//!
//! The replay is deliberately strict about what it checks and lenient
//! about what it cannot know: untagged events pass through; messages to
//! actors outside the inferred deputy set are skipped (the runtime
//! broadcasts promotions cluster-wide, the model only to deputies);
//! duplicate deliveries of an already-replayed message are absorbed (the
//! network may duplicate, the model wire is a set). Drops need no
//! handling at all — a dropped message simply never has a `DELIVER` event.
//!
//! A capture may hold several runs, each under its own header (a process
//! that runs the kernel twice echoes two). Each run is replayed on its
//! own, from the model's initial state.
//!
//! Actor ↔ deputy mapping: the driver spawns the master as actor 0 and
//! slave `i` as actor `i + 1`; deputy indices in the tags are slave
//! indices.

use crate::diag::{Code, Diagnostic, Report};
use dlb_compiler::Span;
use dlb_core::msg::FailoverMsg;
use dlb_core::session::model::{ElectionLocal, ElectionModel, ElectionState};
use dlb_sim::{parse_runs, Step, TraceEvent, TraceKind, TransitionSystem};
use std::collections::BTreeSet;

/// What one conformance replay established.
#[derive(Clone, Debug, Default)]
pub struct Conformance {
    /// Total events in the trace.
    pub events: usize,
    /// Tagged election events replayed through the model.
    pub replayed: usize,
    /// Distinct `(term, candidate)` stands observed.
    pub stands: usize,
    /// Distinct `(term, winner)` promotions observed.
    pub wins: usize,
    /// Deputy-set size inferred from the candidacy traffic (the widest
    /// run's).
    pub deputies: usize,
    /// Runs replayed: header-delimited, each from the model's start.
    pub runs: usize,
    /// `None` = the trace conforms.
    pub divergence: Option<Divergence>,
}

impl Conformance {
    pub fn ok(&self) -> bool {
        self.divergence.is_none()
    }

    /// This capture followed by its next run: the counts add up, and the
    /// run's divergence is indexed past the events before it.
    fn then(self, run: Conformance) -> Conformance {
        Conformance {
            events: self.events + run.events,
            replayed: self.replayed + run.replayed,
            stands: self.stands + run.stands,
            wins: self.wins + run.wins,
            deputies: self.deputies.max(run.deputies),
            runs: self.runs + run.runs,
            divergence: run.divergence.map(|d| Divergence {
                at: self.events + d.at,
                ..d
            }),
        }
    }
}

/// The first point where the runtime left the model.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Index of the diverging event in the trace.
    pub at: usize,
    /// The diverging event, rendered as its trace line.
    pub event: String,
    pub why: String,
    /// The election events replayed successfully before the divergence —
    /// the conforming prefix that reproduces the model state.
    pub prefix: Vec<String>,
}

/// The election message a trace event sends (`true`) or delivers, with
/// the recipient actor; `Ok(None)` for every other event.
fn election_event(ev: &TraceEvent) -> Result<Option<(FailoverMsg, bool, usize)>, String> {
    let (tag, dst, send) = match &ev.kind {
        TraceKind::Send {
            dst, tag: Some(t), ..
        } => (t, *dst, true),
        TraceKind::Deliver {
            dst, tag: Some(t), ..
        } => (t, *dst, false),
        _ => return Ok(None),
    };
    Ok(FailoverMsg::from_tag(tag)?.map(|m| (m, send, dst)))
}

struct Replay {
    model: ElectionModel,
    state: ElectionState,
    /// [`parts`](dlb_core::session::model::EWire::parts) of every model
    /// message already delivered — re-sends and network duplicates of
    /// these are absorbed, not divergences.
    delivered: BTreeSet<(u8, usize, usize, u64)>,
    stands_seen: BTreeSet<(u64, usize)>,
    wins_seen: BTreeSet<(u64, usize)>,
    prefix: Vec<String>,
}

impl Replay {
    /// A runtime send (`send`) or delivery of `msg` to actor `dst`.
    fn step(&mut self, msg: &FailoverMsg, send: bool, dst: usize) -> Result<(), String> {
        match *msg {
            FailoverMsg::Candidacy {
                term, candidate, ..
            } if send => self.stand(term, candidate)?,
            FailoverMsg::Promoted { term, master_idx } if send => self.win(term, master_idx)?,
            _ => {}
        }
        // Actor id → deputy index; the master (actor 0) and out-of-set
        // slaves are not deputies, and messages to them are out of scope.
        let to = dst.checked_sub(1).filter(|d| *d < self.model.deputies);
        let Some(wire) = to.and_then(|to| msg.model_wire(to)) else {
            return Ok(());
        };
        let key = wire.parts();
        let in_flight = self.state.net.wire.iter().position(|m| m.parts() == key);
        match in_flight {
            Some(i) if !send => {
                self.state = self.model.apply(&self.state, &Step::Deliver(i));
                self.delivered.insert(key);
                Ok(())
            }
            Some(_) => Ok(()),
            // A re-send, or a network duplicate, of a delivered message.
            None if self.delivered.contains(&key) => Ok(()),
            None if send => Err(format!(
                "sent {wire:?}, but the model's voting rules never put it in flight"
            )),
            None => Err(format!("delivered {wire:?}, never sent in the model")),
        }
    }

    /// `cand`'s first candidacy in `term`: the model must let it stand.
    fn stand(&mut self, term: u64, cand: usize) -> Result<(), String> {
        if self.stands_seen.contains(&(term, cand)) {
            return Ok(());
        }
        let seen = self.state.deps[cand].ballot.term_seen;
        if term <= seen {
            return Err(format!(
                "deputy {cand} stood in term {term}, but it already saw term {seen} — \
                 re-standing in a spent term"
            ));
        }
        let stand = Step::Local(ElectionLocal::Stand(cand));
        if !self.model.actions(&self.state).contains(&stand) {
            return Err(format!(
                "deputy {cand} stood in term {term}, but Stand({cand}) is not enabled in \
                 the model"
            ));
        }
        // Standing in a term higher than the tagged traffic justifies is
        // fine: deputies also learn terms from an untagged channel (the
        // master's pings). Model that learning, then stand.
        self.state.deps[cand].ballot.see(term - 1);
        self.state = self.model.apply(&self.state, &stand);
        self.stands_seen.insert((term, cand));
        Ok(())
    }

    /// `winner`'s first promotion in `term`: the model must have its quorum.
    fn win(&mut self, term: u64, winner: usize) -> Result<(), String> {
        if self.wins_seen.contains(&(term, winner)) {
            return Ok(());
        }
        let ballot = &self.state.deps[winner].ballot;
        if ballot.won(self.model.deputies) != Some(term) {
            return Err(format!(
                "deputy {winner} promoted itself in term {term}, but the model has no \
                 quorum for it ({} vote(s) of {} deputies)",
                ballot.tally(),
                self.model.deputies
            ));
        }
        let win = Step::Local(ElectionLocal::Win(winner));
        self.state = self.model.apply(&self.state, &win);
        self.wins_seen.insert((term, winner));
        Ok(())
    }
}

/// Infer the election model a trace ran under: deputy-set size from the
/// candidacy fan-out (a candidate messages every other deputy), and a stand
/// budget covering every stand observed.
fn infer_model(events: &[TraceEvent]) -> Result<ElectionModel, String> {
    let mut deputies = 0;
    let mut stands = BTreeSet::new();
    for ev in events {
        let Some((msg, _, dst)) = election_event(ev)? else {
            continue;
        };
        let named = match msg {
            FailoverMsg::Candidacy { term, candidate } => {
                stands.insert((term, candidate));
                [Some(candidate), dst.checked_sub(1)]
            }
            FailoverMsg::Vote {
                voter, candidate, ..
            } => [Some(voter), Some(candidate)],
            FailoverMsg::Promoted { master_idx, .. } => [Some(master_idx), None],
            FailoverMsg::MasterPing { .. } | FailoverMsg::Held { .. } => [None, None],
        };
        deputies = named
            .into_iter()
            .flatten()
            .fold(deputies, |n, d| n.max(d + 1));
    }
    Ok(ElectionModel {
        deputies,
        max_stands: stands.len() as u32,
        max_drops: 0,
        max_dups: 0,
        ..ElectionModel::standard()
    })
}

/// Replay the election events of one parsed run through the model.
pub fn conform_election(events: &[TraceEvent]) -> Result<Conformance, String> {
    let model = infer_model(events)?;
    let deputies = model.deputies;
    let mut rp = Replay {
        state: model.initial(),
        model,
        delivered: BTreeSet::new(),
        stands_seen: BTreeSet::new(),
        wins_seen: BTreeSet::new(),
        prefix: Vec::new(),
    };
    let mut replayed = 0usize;
    let mut divergence = None;
    for (at, ev) in events.iter().enumerate() {
        let Some((msg, send, dst)) = election_event(ev)? else {
            continue;
        };
        replayed += 1;
        if let Err(why) = rp.step(&msg, send, dst) {
            divergence = Some(Divergence {
                at,
                event: ev.render(),
                why,
                prefix: rp.prefix,
            });
            break;
        }
        rp.prefix.push(ev.render());
    }
    Ok(Conformance {
        events: events.len(),
        replayed,
        stands: rp.stands_seen.len(),
        wins: rp.wins_seen.len(),
        deputies,
        runs: 1,
        divergence,
    })
}

/// Parse a trace and check conformance, as `dlb-lint --conform` does: each
/// run of the capture on its own, up to the first divergence. `Err` = the
/// text is not a well-formed trace; a divergence is not an `Err` but an
/// [`Code::E110`] diagnostic in the report. A clean report's tally lists
/// each run's counts.
pub fn check_conformance(text: &str) -> Result<(Report, Conformance), String> {
    let mut conf = Conformance::default();
    let mut tallies = Vec::new();
    for events in parse_runs(text)? {
        let run = conform_election(&events)?;
        tallies.push(format!(
            "run {}: {} events, {} replayed, {} deputies, {} stand(s), {} win(s)",
            conf.runs + 1,
            run.events,
            run.replayed,
            run.deputies,
            run.stands,
            run.wins
        ));
        conf = conf.then(run);
        if !conf.ok() {
            break;
        }
    }
    let mut report = Report::new("trace-conformance");
    report.tally = Some(tallies.join("; "));
    let span = Span::program(&format!(
        "trace-conformance(runs={}, events={}, deputies={}, stands={}, wins={})",
        conf.runs, conf.events, conf.deputies, conf.stands, conf.wins
    ));
    if let Some(div) = &conf.divergence {
        let mut notes = vec![
            format!("event {}: {}", div.at, div.event),
            format!("why: {}", div.why),
            format!("conforming prefix ({} election events):", div.prefix.len()),
        ];
        const SHOWN: usize = 12;
        if div.prefix.len() > SHOWN {
            notes.push(format!(
                "  (... {} earlier events)",
                div.prefix.len() - SHOWN
            ));
        }
        let skip = div.prefix.len().saturating_sub(SHOWN);
        notes.extend(div.prefix.iter().skip(skip).map(|l| format!("  {l}")));
        report.push(
            Diagnostic::new(
                Code::E110,
                span,
                "runtime election action is not enabled in the protocol model \
                 (refinement violation)",
            )
            .with_notes(notes),
        );
    }
    Ok((report, conf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_sim::{parse_trace, render_trace};

    /// Hand-built conforming trace: three deputies (actors 1-3), deputy 0
    /// stands in term 1, both peers vote, deputy 0 wins and announces.
    fn happy_lines() -> Vec<String> {
        vec![
            "EV 10 SEND 1 2 48 candidacy term=1 cand=0".into(),
            "EV 10 SEND 1 3 48 candidacy term=1 cand=0".into(),
            "EV 20 DELIVER 1 2 48 candidacy term=1 cand=0".into(),
            "EV 21 SEND 2 1 56 vote term=1 voter=1 cand=0".into(),
            "EV 25 DELIVER 1 3 48 candidacy term=1 cand=0".into(),
            "EV 26 SEND 3 1 56 vote term=1 voter=2 cand=0".into(),
            "EV 30 DELIVER 2 1 56 vote term=1 voter=1 cand=0".into(),
            "EV 31 DELIVER 3 1 56 vote term=1 voter=2 cand=0".into(),
            "EV 40 SEND 1 2 48 promoted term=1 winner=0".into(),
            "EV 40 SEND 1 3 48 promoted term=1 winner=0".into(),
            "EV 40 SEND 1 0 48 promoted term=1 winner=0".into(),
            "EV 50 DELIVER 1 2 48 promoted term=1 winner=0".into(),
        ]
    }

    fn text_of(lines: &[String]) -> String {
        format!("DLBTRACE 1\n{}\n", lines.join("\n"))
    }

    #[test]
    fn conforming_trace_passes() {
        let (report, conf) = check_conformance(&text_of(&happy_lines())).unwrap();
        assert!(!report.has_errors(), "{}", report.render());
        assert!(conf.ok());
        assert_eq!(conf.deputies, 3);
        assert_eq!(conf.stands, 1);
        assert_eq!(conf.wins, 1);
        assert_eq!(conf.replayed, 12);
    }

    #[test]
    fn mutated_vote_term_is_a_refinement_violation() {
        let mut lines = happy_lines();
        lines[3] = lines[3].replace("vote term=1", "vote term=8");
        let (report, conf) = check_conformance(&text_of(&lines)).unwrap();
        assert!(report.has(Code::E110), "{}", report.render());
        let div = conf.divergence.expect("must diverge");
        assert_eq!(div.at, 3);
        assert!(div.why.contains("voting rules"), "{}", div.why);
        assert_eq!(div.prefix.len(), 3, "prefix = the three conforming events");
    }

    #[test]
    fn premature_promotion_is_a_refinement_violation() {
        // Promotion before any vote delivery: no modeled quorum.
        let lines: Vec<String> = happy_lines()
            .into_iter()
            .take(2)
            .chain(["EV 15 SEND 1 2 48 promoted term=1 winner=0".to_string()])
            .collect();
        let (report, conf) = check_conformance(&text_of(&lines)).unwrap();
        assert!(report.has(Code::E110), "{}", report.render());
        assert!(
            conf.divergence.unwrap().why.contains("no quorum"),
            "should name the missing quorum"
        );
    }

    #[test]
    fn duplicate_delivery_is_absorbed() {
        let mut lines = happy_lines();
        lines.push("EV 60 DELIVER 1 2 48 promoted term=1 winner=0".into()); // network dup
        let (report, conf) = check_conformance(&text_of(&lines)).unwrap();
        assert!(!report.has_errors(), "{}", report.render());
        assert!(conf.ok());
    }

    #[test]
    fn resend_after_delivery_is_absorbed() {
        let mut lines = happy_lines();
        lines.push("EV 61 SEND 1 2 48 candidacy term=1 cand=0".into()); // retry
        let (_, conf) = check_conformance(&text_of(&lines)).unwrap();
        assert!(conf.ok());
    }

    #[test]
    fn untagged_and_foreign_events_pass_through() {
        let lines = vec![
            "EV 1 WAKE 4".to_string(),
            "EV 2 SEND 4 5 100".to_string(),
            "EV 3 SEND 4 5 100 some-future-tag x=1".to_string(),
            "EV 4 CRASH 0".to_string(),
        ];
        let (report, conf) = check_conformance(&text_of(&lines)).unwrap();
        assert!(!report.has_errors(), "{}", report.render());
        assert_eq!(conf.replayed, 0);
        assert_eq!(conf.deputies, 0);
    }

    #[test]
    fn malformed_election_tag_is_a_parse_error() {
        let lines = vec!["EV 1 SEND 1 2 56 vote term=x voter=1 cand=0".to_string()];
        assert!(check_conformance(&text_of(&lines)).is_err());
    }

    #[test]
    fn standing_in_a_later_term_is_out_of_band_learning() {
        // Terms learned from an untagged channel (pings): a first
        // stand at term 4 conforms even though no tagged traffic got there.
        let lines: Vec<String> = happy_lines()
            .iter()
            .map(|l| l.replace("term=1", "term=4"))
            .collect();
        let (report, conf) = check_conformance(&text_of(&lines)).unwrap();
        assert!(!report.has_errors(), "{}", report.render());
        assert!(conf.ok());
    }

    #[test]
    fn restanding_in_a_spent_term_is_a_refinement_violation() {
        // Deputy 1 saw term 1 (it voted in it), then stands in term 1
        // itself — term reuse, the raw material of split brain.
        let mut lines = happy_lines();
        lines.push("EV 70 SEND 2 3 48 candidacy term=1 cand=1".into());
        let (report, conf) = check_conformance(&text_of(&lines)).unwrap();
        assert!(report.has(Code::E110), "{}", report.render());
        assert!(
            conf.divergence.unwrap().why.contains("spent term"),
            "should name the term reuse"
        );
    }

    /// Two runs of one process, each under its own header: the second
    /// election replays from the model's start, not as re-sends of the first.
    #[test]
    fn each_run_of_a_capture_replays_on_its_own() {
        let happy = text_of(&happy_lines());
        let (report, conf) = check_conformance(&format!("{happy}{happy}")).unwrap();
        assert!(!report.has_errors(), "{}", report.render());
        assert_eq!((conf.runs, conf.stands, conf.wins), (2, 2, 2));
        assert_eq!((conf.events, conf.replayed, conf.deputies), (24, 24, 3));
        assert!(
            report.render().contains("; run 2: 12 events"),
            "{}",
            report.render()
        );

        // A divergence in the second run is indexed into the capture.
        let mut lines = happy_lines();
        lines[3] = lines[3].replace("vote term=1", "vote term=8");
        let (_, conf) = check_conformance(&format!("{happy}{}", text_of(&lines))).unwrap();
        assert_eq!(conf.divergence.expect("run 2 diverges").at, 12 + 3);
    }

    #[test]
    fn trace_round_trip_conforms() {
        // render → parse → conform, exercising the real format plumbing.
        let events = parse_trace(&text_of(&happy_lines())).unwrap();
        let again = parse_trace(&render_trace(&events)).unwrap();
        assert!(conform_election(&again).unwrap().ok());
    }
}
