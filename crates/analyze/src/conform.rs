//! Trace-conformance checking: replay a recorded runtime trace through the
//! election protocol model.
//!
//! The model checker proves properties of the *abstraction*; this pass
//! closes the remaining gap by checking that the *implementation* stays
//! inside it. A kernel event trace (recorded with
//! `RunConfig::record_trace`, or captured from `DLB_TRACE_EVENTS` stderr —
//! same format, [`dlb_sim::trace`]) carries a tag on every election
//! message. Replaying the tagged events through
//! [`ElectionModel`] asks, event by event: *is the action the runtime took
//! enabled in the model here?* A deputy that stands in a term the model
//! would not assign, a vote the model's rules refuse to grant, a
//! self-promotion without a modeled quorum — each is a refinement
//! violation, reported as [`Code::E110`] with the conforming prefix so the
//! divergence point is replayable.
//!
//! The replay is deliberately strict about what it checks and lenient
//! about what it cannot know: untagged events pass through; messages to
//! actors outside the inferred deputy set are skipped (the runtime
//! broadcasts promotions cluster-wide, the model only to deputies);
//! duplicate deliveries of an already-replayed message are absorbed (the
//! network may duplicate, the model wire is a set). Drops need no
//! handling at all — a dropped message simply never has a `DELIVER` event.
//!
//! Actor ↔ deputy mapping: the driver spawns the master as actor 0 and
//! slave `i` as actor `i + 1`; deputy indices in the tags are slave
//! indices.

use crate::diag::{Code, Diagnostic, Report};
use dlb_compiler::Span;
use dlb_core::session::model::{EWire, ElectionLocal, ElectionModel, ElectionState};
use dlb_sim::{parse_trace, Step, TraceEvent, TraceKind, TransitionSystem};
use std::collections::BTreeSet;

/// What one conformance replay established.
#[derive(Clone, Debug)]
pub struct Conformance {
    /// Total events in the trace.
    pub events: usize,
    /// Tagged election events replayed through the model.
    pub replayed: usize,
    /// Distinct `(term, candidate)` stands observed.
    pub stands: usize,
    /// Distinct `(term, winner)` promotions observed.
    pub wins: usize,
    /// Deputy-set size inferred from the candidacy traffic.
    pub deputies: usize,
    /// `None` = the trace conforms.
    pub divergence: Option<Divergence>,
}

impl Conformance {
    pub fn ok(&self) -> bool {
        self.divergence.is_none()
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

/// One parsed election tag (the `Msg::trace_tag` grammar).
enum ETag {
    Candidacy {
        term: u64,
        cand: usize,
    },
    Vote {
        term: u64,
        voter: usize,
        cand: usize,
    },
    Promoted {
        term: u64,
        winner: usize,
    },
}

/// Parse a trace tag. `Ok(None)` = not an election tag (ignored);
/// `Err` = an election keyword with a malformed body.
fn parse_tag(tag: &str) -> Result<Option<(ETag, u64)>, String> {
    let mut it = tag.split_whitespace();
    let Some(kw) = it.next() else {
        return Ok(None);
    };
    if !matches!(kw, "candidacy" | "vote" | "promoted") {
        return Ok(None);
    }
    let mut term = None;
    let mut cand = None;
    let mut voter = None;
    let mut winner = None;
    let mut fresh = 0u64;
    for kv in it {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("malformed tag field {kv:?} in {tag:?}"))?;
        let n: u64 = v
            .parse()
            .map_err(|_| format!("non-numeric tag field {kv:?} in {tag:?}"))?;
        match k {
            "term" => term = Some(n),
            "cand" => cand = Some(n as usize),
            "voter" => voter = Some(n as usize),
            "winner" => winner = Some(n as usize),
            "fresh" => fresh = n,
            _ => return Err(format!("unknown tag field {kv:?} in {tag:?}")),
        }
    }
    let term = term.ok_or_else(|| format!("tag missing term: {tag:?}"))?;
    let need = |o: Option<usize>, f: &str| o.ok_or_else(|| format!("tag missing {f}: {tag:?}"));
    let tag = match kw {
        "candidacy" => ETag::Candidacy {
            term,
            cand: need(cand, "cand")?,
        },
        "vote" => ETag::Vote {
            term,
            voter: need(voter, "voter")?,
            cand: need(cand, "cand")?,
        },
        _ => ETag::Promoted {
            term,
            winner: need(winner, "winner")?,
        },
    };
    Ok(Some((tag, fresh)))
}

/// Normalized identity of a model wire message, as [`EWire::parts`] renders
/// it: `(kind, to, from, term)` — `fresh` excluded, so a candidacy matches
/// even if the model's static freshness assignment differs from the
/// (time-varying) runtime value.
type WireKey = (u8, usize, usize, u64);

struct Replay {
    model: ElectionModel,
    state: ElectionState,
    /// Keys of every model message already delivered — re-sends and
    /// network duplicates of these are absorbed, not divergences.
    delivered: BTreeSet<WireKey>,
    stands_seen: BTreeSet<(u64, usize)>,
    wins_seen: BTreeSet<(u64, usize)>,
    prefix: Vec<String>,
}

impl Replay {
    fn wire_pos(&self, key: WireKey) -> Option<usize> {
        self.state.net.wire.iter().position(|m| m.parts() == key)
    }

    /// A runtime send of `key`: fine if the model has it in flight (or
    /// already delivered — a re-send), an error otherwise.
    fn expect_sent(&self, key: WireKey) -> Result<(), String> {
        if self.wire_pos(key).is_some() || self.delivered.contains(&key) {
            Ok(())
        } else {
            Err("message is neither in flight nor delivered in the model".into())
        }
    }

    /// A runtime delivery of `key`: consume the model's in-flight copy, or
    /// absorb it as a duplicate if already delivered.
    fn deliver(&mut self, key: WireKey) -> Result<(), String> {
        match self.wire_pos(key) {
            Some(i) => {
                self.state = self.model.apply(&self.state, &Step::Deliver(i));
                self.delivered.insert(key);
                Ok(())
            }
            None if self.delivered.contains(&key) => Ok(()), // network duplicate
            None => Err("delivered message was never sent in the model".into()),
        }
    }

    fn step(
        &mut self,
        ev: &TraceEvent,
        tag: &ETag,
        dir_send: bool,
        dst: usize,
    ) -> Result<(), String> {
        let n = self.model.deputies;
        // Actor id → deputy index; master (actor 0) and out-of-set slaves
        // are not deputies.
        let dep_of = |actor: usize| actor.checked_sub(1).filter(|d| *d < n);
        match (dir_send, tag) {
            (true, ETag::Candidacy { term, cand }) => {
                if !self.stands_seen.contains(&(*term, *cand)) {
                    let seen = self.state.deps[*cand].term_seen;
                    if *term <= seen {
                        return Err(format!(
                            "deputy {cand} stood in term {term}, but it already saw term \
                             {seen} — re-standing in a spent term"
                        ));
                    }
                    if !self
                        .model
                        .actions(&self.state)
                        .contains(&Step::Local(ElectionLocal::Stand(*cand)))
                    {
                        return Err(format!(
                            "deputy {cand} stood in term {term}, but Stand({cand}) is not \
                             enabled in the model"
                        ));
                    }
                    // Standing in a term higher than the tagged traffic
                    // justifies is fine: deputies also learn terms from
                    // untagged channels (master pings, replica messages).
                    // Model that learning, then stand.
                    self.state.deps[*cand].term_seen = term - 1;
                    self.state = self
                        .model
                        .apply(&self.state, &Step::Local(ElectionLocal::Stand(*cand)));
                    self.stands_seen.insert((*term, *cand));
                }
                match dep_of(dst) {
                    Some(to) => self.expect_sent((EWire::CANDIDACY, to, *cand, *term)),
                    None => Ok(()), // candidacy to a non-deputy: out of model scope
                }
            }
            (true, ETag::Vote { term, voter, cand }) => {
                // The teeth: the model must itself have granted this vote
                // (candidacy delivered, term unspent, freshness rule held).
                self.expect_sent((EWire::VOTE, *cand, *voter, *term))
                    .map_err(|_| {
                        format!(
                            "deputy {voter} granted term {term} to deputy {cand}, but the \
                         model's voting rules did not produce that vote"
                        )
                    })
            }
            (true, ETag::Promoted { term, winner }) => {
                if !self.wins_seen.contains(&(*term, *winner)) {
                    if !self
                        .model
                        .actions(&self.state)
                        .contains(&Step::Local(ElectionLocal::Win(*winner)))
                        || self.state.deps[*winner].standing != *term
                    {
                        let votes = self.state.deps[*winner].votes.len();
                        return Err(format!(
                            "deputy {winner} promoted itself in term {term}, but the model \
                             has no quorum for it ({votes} vote(s) of {} deputies)",
                            n
                        ));
                    }
                    self.state = self
                        .model
                        .apply(&self.state, &Step::Local(ElectionLocal::Win(*winner)));
                    self.wins_seen.insert((*term, *winner));
                }
                match dep_of(dst) {
                    Some(to) => self.expect_sent((EWire::PROMOTED, to, *winner, *term)),
                    None => Ok(()), // cluster-wide broadcast beyond the deputy set
                }
            }
            (false, ETag::Candidacy { term, cand }) => match dep_of(dst) {
                Some(to) => self.deliver((EWire::CANDIDACY, to, *cand, *term)),
                None => Ok(()),
            },
            (
                false,
                ETag::Vote {
                    term,
                    voter,
                    cand: _,
                },
            ) => match dep_of(dst) {
                Some(to) => self.deliver((EWire::VOTE, to, *voter, *term)),
                None => Ok(()),
            },
            (false, ETag::Promoted { term, winner }) => match dep_of(dst) {
                Some(to) => self.deliver((EWire::PROMOTED, to, *winner, *term)),
                None => Ok(()),
            },
        }
        .map(|()| self.prefix.push(ev.render()))
    }
}

/// Infer the election model a trace ran under: deputy-set size from the
/// candidacy fan-out (a candidate messages every other deputy), static
/// freshness from each candidate's first advertisement, and a stand budget
/// covering every stand observed.
fn infer_model(events: &[TraceEvent]) -> Result<ElectionModel, String> {
    let mut max_dep = None::<usize>;
    let mut fresh_of: Vec<(usize, u64)> = Vec::new();
    let mut stands = BTreeSet::new();
    let grow = |d: usize, max_dep: &mut Option<usize>| {
        *max_dep = Some(max_dep.map_or(d, |m: usize| m.max(d)));
    };
    for ev in events {
        let (tag, dst) = match &ev.kind {
            TraceKind::Send {
                dst, tag: Some(t), ..
            }
            | TraceKind::Deliver {
                dst, tag: Some(t), ..
            } => (t, *dst),
            _ => continue,
        };
        match parse_tag(tag)? {
            Some((ETag::Candidacy { term, cand }, fresh)) => {
                grow(cand, &mut max_dep);
                if dst >= 1 {
                    grow(dst - 1, &mut max_dep);
                }
                if !fresh_of.iter().any(|(c, _)| *c == cand) {
                    fresh_of.push((cand, fresh));
                }
                stands.insert((term, cand));
            }
            Some((ETag::Vote { voter, cand, .. }, _)) => {
                grow(voter, &mut max_dep);
                grow(cand, &mut max_dep);
            }
            Some((ETag::Promoted { winner, .. }, _)) => grow(winner, &mut max_dep),
            None => {}
        }
    }
    let deputies = max_dep.map_or(0, |m| m + 1);
    // Unobserved deputies keep freshness 0: they never refuse anyone, so
    // the model under-constrains rather than inventing refusals the
    // runtime's (unknown) replica states might not have made.
    let mut fresh = vec![0; deputies];
    for (c, f) in fresh_of {
        fresh[c] = f;
    }
    Ok(ElectionModel {
        deputies,
        fresh,
        max_stands: stands.len() as u32,
        max_drops: 0,
        max_dups: 0,
        one_vote_per_term: true,
        fresh_guard: true,
    })
}

/// Replay the election events of a parsed trace through the model.
pub fn conform_election(events: &[TraceEvent]) -> Result<Conformance, String> {
    let model = infer_model(events)?;
    let deputies = model.deputies;
    let state = model.initial();
    let mut rp = Replay {
        model,
        state,
        delivered: BTreeSet::new(),
        stands_seen: BTreeSet::new(),
        wins_seen: BTreeSet::new(),
        prefix: Vec::new(),
    };
    let mut replayed = 0usize;
    let mut divergence = None;
    for (at, ev) in events.iter().enumerate() {
        let (tag, dst, dir_send) = match &ev.kind {
            TraceKind::Send {
                dst, tag: Some(t), ..
            } => (t, *dst, true),
            TraceKind::Deliver {
                dst, tag: Some(t), ..
            } => (t, *dst, false),
            _ => continue,
        };
        let Some((etag, _)) = parse_tag(tag)? else {
            continue;
        };
        replayed += 1;
        if let Err(why) = rp.step(ev, &etag, dir_send, dst) {
            divergence = Some(Divergence {
                at,
                event: ev.render(),
                why,
                prefix: rp.prefix.clone(),
            });
            break;
        }
    }
    Ok(Conformance {
        events: events.len(),
        replayed,
        stands: rp.stands_seen.len(),
        wins: rp.wins_seen.len(),
        deputies,
        divergence,
    })
}

/// Parse a trace and check conformance, as `dlb-lint --conform` does.
/// `Err` = the text is not a well-formed trace; a divergence is not an
/// `Err` but an [`Code::E110`] diagnostic in the report.
pub fn check_conformance(text: &str) -> Result<(Report, Conformance), String> {
    let events = parse_trace(text)?;
    let conf = conform_election(&events)?;
    let mut report = Report::new("trace-conformance");
    let span = Span::program(&format!(
        "trace-conformance(events={}, deputies={}, stands={}, wins={})",
        conf.events, conf.deputies, conf.stands, conf.wins
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
    use dlb_sim::render_trace;

    /// Hand-built conforming trace: three deputies (actors 1-3), deputy 0
    /// stands in term 1, both peers vote, deputy 0 wins and announces.
    fn happy_lines() -> Vec<String> {
        vec![
            "EV 10 SEND 1 2 56 candidacy term=1 cand=0 fresh=5".into(),
            "EV 10 SEND 1 3 56 candidacy term=1 cand=0 fresh=5".into(),
            "EV 20 DELIVER 1 2 56 candidacy term=1 cand=0 fresh=5".into(),
            "EV 21 SEND 2 1 56 vote term=1 voter=1 cand=0".into(),
            "EV 25 DELIVER 1 3 56 candidacy term=1 cand=0 fresh=5".into(),
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
        lines.push("EV 61 SEND 1 2 56 candidacy term=1 cand=0 fresh=5".into()); // retry
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
        // Terms learned from untagged channels (pings, replicas): a first
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
        lines.push("EV 70 SEND 2 3 56 candidacy term=1 cand=1 fresh=5".into());
        let (report, conf) = check_conformance(&text_of(&lines)).unwrap();
        assert!(report.has(Code::E110), "{}", report.render());
        assert!(
            conf.divergence.unwrap().why.contains("spent term"),
            "should name the term reuse"
        );
    }

    #[test]
    fn trace_round_trip_conforms() {
        // render → parse → conform, exercising the real format plumbing.
        let events = parse_trace(&text_of(&happy_lines())).unwrap();
        let again = parse_trace(&render_trace(&events)).unwrap();
        assert!(conform_election(&again).unwrap().ok());
    }
}
