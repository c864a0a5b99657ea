//! Stable, machine-readable event-trace format for the kernel.
//!
//! The kernel can narrate its event loop two ways — echoed to stderr when
//! `DLB_TRACE_EVENTS` is set, or recorded into [`crate::SimReport`] via
//! [`crate::SimBuilder::record_trace`]. Both use this one line format, so
//! a captured stderr dump and a recorded trace are interchangeable inputs
//! to downstream tooling (notably `dlb-lint --conform`, which replays a
//! runtime trace through the protocol models):
//!
//! ```text
//! DLBTRACE 1
//! EV <time> SEND <src> <dst> <bytes> [tag...]
//! EV <time> DELIVER <src> <dst> <bytes> [tag...]
//! EV <time> WAKE <actor>
//! EV <time> CRASH <node>
//! EV <time> NOTE <actor> <text>
//! ```
//!
//! `SEND` is recorded when an actor hands a message to the network —
//! *before* any fault draw, so dropped messages still show their send.
//! `DELIVER` is the mailbox arrival. The optional `tag` is everything
//! after the fixed fields (it may contain spaces) and is produced by the
//! message tagger installed with [`crate::SimBuilder::trace_tag`];
//! untagged messages trace with no tag. `NOTE` is an actor's narration of
//! a decision ([`crate::MailCtx::note`]), in program order among that
//! poll's sends; its `text` is the rest of the line, kept verbatim. Notes
//! are not events: they move no hash, counter or clock. Times are integer
//! microseconds, actors/nodes are ids. The leading `DLBTRACE 1` header versions the
//! format; unknown lines are a parse error, not silently skipped.
//!
//! The header opens each *run*: the stderr echo prints it every time the
//! kernel starts, so a process that runs the kernel more than once leaves a
//! capture of several runs, which [`parse_runs`] splits at their headers.

use crate::time::SimTime;

/// The line that opens every run; its number versions the format.
pub const TRACE_HEADER: &str = "DLBTRACE 1";

/// One traced kernel event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub time: SimTime,
    pub kind: TraceKind,
}

/// What happened. `Send` and `Deliver` carry the optional message tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceKind {
    Send {
        src: usize,
        dst: usize,
        bytes: u64,
        tag: Option<String>,
    },
    Deliver {
        src: usize,
        dst: usize,
        bytes: u64,
        tag: Option<String>,
    },
    Wake {
        actor: usize,
    },
    Crash {
        node: usize,
    },
    Note {
        actor: usize,
        text: String,
    },
}

impl TraceEvent {
    /// Render as one stable `EV ...` line (no trailing newline).
    pub fn render(&self) -> String {
        let t = self.time.0;
        match &self.kind {
            TraceKind::Send {
                src,
                dst,
                bytes,
                tag,
            } => match tag {
                Some(tag) => format!("EV {t} SEND {src} {dst} {bytes} {tag}"),
                None => format!("EV {t} SEND {src} {dst} {bytes}"),
            },
            TraceKind::Deliver {
                src,
                dst,
                bytes,
                tag,
            } => match tag {
                Some(tag) => format!("EV {t} DELIVER {src} {dst} {bytes} {tag}"),
                None => format!("EV {t} DELIVER {src} {dst} {bytes}"),
            },
            TraceKind::Wake { actor } => format!("EV {t} WAKE {actor}"),
            TraceKind::Crash { node } => format!("EV {t} CRASH {node}"),
            TraceKind::Note { actor, text } => format!("EV {t} NOTE {actor} {text}"),
        }
    }

    /// Parse one `EV ...` line.
    pub fn parse(line: &str) -> Result<TraceEvent, String> {
        let mut it = line.split_whitespace();
        let bad = || format!("malformed trace line: {line:?}");
        if it.next() != Some("EV") {
            return Err(bad());
        }
        let time = SimTime(it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?);
        let kind = it.next().ok_or_else(bad)?;
        let num = |it: &mut std::str::SplitWhitespace| -> Result<usize, String> {
            it.next().ok_or_else(bad)?.parse().map_err(|_| bad())
        };
        let kind = match kind {
            "SEND" | "DELIVER" => {
                let src = num(&mut it)?;
                let dst = num(&mut it)?;
                let bytes = num(&mut it)? as u64;
                let rest: Vec<&str> = it.collect();
                let tag = (!rest.is_empty()).then(|| rest.join(" "));
                if kind == "SEND" {
                    TraceKind::Send {
                        src,
                        dst,
                        bytes,
                        tag,
                    }
                } else {
                    TraceKind::Deliver {
                        src,
                        dst,
                        bytes,
                        tag,
                    }
                }
            }
            "WAKE" => TraceKind::Wake {
                actor: num(&mut it)?,
            },
            "CRASH" => TraceKind::Crash {
                node: num(&mut it)?,
            },
            "NOTE" => TraceKind::Note {
                actor: num(&mut it)?,
                text: line.splitn(5, ' ').nth(4).unwrap_or_default().to_string(),
            },
            _ => return Err(bad()),
        };
        Ok(TraceEvent { time, kind })
    }
}

/// Render a full trace: header line plus one line per event.
pub fn render_trace(events: &[TraceEvent]) -> String {
    let mut out = format!("{TRACE_HEADER}\n");
    for ev in events {
        out.push_str(&ev.render());
        out.push('\n');
    }
    out
}

/// Parse a full trace: one run under one header (blank lines allowed).
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    match <[_; 1]>::try_from(parse_runs(text)?) {
        Ok([run]) => Ok(run),
        Err(runs) => Err(format!("{} runs where one trace was expected", runs.len())),
    }
}

/// Parse a capture of one or more runs, each under its own header (blank
/// lines allowed): the events of each run, in order.
pub fn parse_runs(text: &str) -> Result<Vec<Vec<TraceEvent>>, String> {
    let mut runs: Vec<Vec<TraceEvent>> = Vec::new();
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        if line == TRACE_HEADER {
            runs.push(Vec::new());
        } else if let Some(run) = runs.last_mut() {
            run.push(TraceEvent::parse(line)?);
        } else {
            return Err(format!("unsupported trace header: {line:?}"));
        }
    }
    if runs.is_empty() {
        return Err("empty trace".into());
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip() {
        let events = vec![
            TraceEvent {
                time: SimTime(0),
                kind: TraceKind::Wake { actor: 3 },
            },
            TraceEvent {
                time: SimTime(17),
                kind: TraceKind::Send {
                    src: 1,
                    dst: 2,
                    bytes: 56,
                    tag: Some("candidacy term=1 cand=0".into()),
                },
            },
            TraceEvent {
                time: SimTime(42),
                kind: TraceKind::Deliver {
                    src: 1,
                    dst: 2,
                    bytes: 56,
                    tag: None,
                },
            },
            TraceEvent {
                time: SimTime(99),
                kind: TraceKind::Crash { node: 0 },
            },
            TraceEvent {
                time: SimTime(99),
                kind: TraceKind::Note {
                    actor: 4,
                    text: "slave 3 won term 2 (at inv 5)".into(),
                },
            },
        ];
        let text = render_trace(&events);
        assert!(text.starts_with("DLBTRACE 1\n"), "{text}");
        assert_eq!(parse_trace(&text).unwrap(), events);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_trace("").is_err());
        assert!(parse_trace("DLBTRACE 9\nEV 0 WAKE 1\n").is_err());
        assert!(parse_trace("DLBTRACE 1\nEV zero WAKE 1\n").is_err());
        assert!(parse_trace("DLBTRACE 1\nEV 0 EXPLODE 1\n").is_err());
        assert!(TraceEvent::parse("EV 5 SEND 1").is_err());
        assert!(TraceEvent::parse("EV 5 NOTE master won").is_err());
        assert!(parse_trace("EV 0 WAKE 1\n").is_err(), "no header");
    }

    #[test]
    fn a_capture_splits_at_its_headers() {
        let text = "DLBTRACE 1\nEV 0 WAKE 1\nEV 5 CRASH 0\n\nDLBTRACE 1\nEV 0 WAKE 2\n";
        let runs = parse_runs(text).unwrap();
        assert_eq!(runs.iter().map(Vec::len).collect::<Vec<_>>(), [2, 1]);
        assert_eq!(runs[1][0].kind, TraceKind::Wake { actor: 2 });
        assert!(parse_trace(text).is_err(), "two runs are not one trace");
    }
}
