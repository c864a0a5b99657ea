//! End-to-end refinement check: record the kernel event trace of a
//! 16-slave chaos run whose master is crashed mid-flight, then replay the
//! election traffic through the protocol model — the library path behind
//! `dlb-lint --conform`. The recorded trace must conform, with the
//! winner's narration among its events; a mutated copy (one vote's term
//! bumped) must yield the DLB-E110 refinement violation.

use dlb::analyze::{check_conformance, Code};
use dlb::apps::{Calibration, MatMul};
use dlb::core::driver::{try_run, AppSpec, RunConfig};
use dlb::sim::{parse_trace, FaultPlan, SimTime, TraceKind};
use std::sync::Arc;

const SLAVES: usize = 16;

/// Node 0 is the master; node `i + 1` is slave `i`.
const MASTER_NODE: usize = 0;

/// Run the 16-slave matmul with the master crashed at 200 ms and the
/// event trace recorded; returns the rendered trace text.
fn recorded_chaos_trace() -> String {
    let k = Arc::new(MatMul::new(32, 3, 7, &Calibration::new(0.05)));
    let plan = dlb::compiler::compile(&k.program()).unwrap();
    let mut cfg = RunConfig::homogeneous(SLAVES);
    cfg.balancer.enabled = true;
    cfg.fault_plan = Some(FaultPlan::new(6001).crash(MASTER_NODE, SimTime(200_000)));
    cfg.record_trace = true;
    let report = try_run(AppSpec::Independent(k.clone()), &plan, cfg)
        .expect("the run must survive the master crash");
    assert!(
        report.recovery.elections_held >= 1,
        "the crash must force an election: {:?}",
        report.recovery
    );
    dlb::sim::render_trace(&report.sim.trace)
}

#[test]
fn chaos_trace_conforms_and_a_mutated_one_does_not() {
    let text = recorded_chaos_trace();
    assert!(
        parse_trace(&text).is_ok(),
        "recorded trace must round-trip the stable format"
    );

    // The genuine trace refines the model.
    let (report, conf) = check_conformance(&text).expect("well-formed trace");
    assert!(
        !report.has_errors(),
        "recorded election must conform:\n{}",
        report.render()
    );
    assert!(conf.ok());
    assert!(
        conf.stands >= 1 && conf.wins >= 1,
        "the failover must show up in the replay: {conf:?}"
    );
    assert!(
        conf.deputies >= 2,
        "candidacy fan-out must reveal the deputy set: {conf:?}"
    );

    // The winner narrates its win before it announces it: its `won term`
    // note precedes its first `promoted` send.
    let events = parse_trace(&text).unwrap();
    let (promoted, winner) = events
        .iter()
        .enumerate()
        .find_map(|(i, ev)| match &ev.kind {
            TraceKind::Send {
                src, tag: Some(t), ..
            } if t.starts_with("promoted ") => Some((i, *src)),
            _ => None,
        })
        .expect("a won election is announced");
    assert!(
        events[..promoted].iter().any(|ev| matches!(
            &ev.kind,
            TraceKind::Note { actor, text } if *actor == winner && text.contains(" won term ")
        )),
        "actor {winner} announces its win before noting it"
    );

    // Mutate one vote's term: the replayed vote is no longer one the
    // model's rules grant, and the divergence carries its prefix.
    let needle = "vote term=";
    let at = text.find(needle).expect("an election implies vote traffic");
    let mut mutated = text.clone();
    mutated.insert(at + needle.len(), '9');
    assert_ne!(mutated, text);
    let (report, conf) = check_conformance(&mutated).expect("still well-formed");
    assert!(
        report.has(Code::E110),
        "mutated vote must be a refinement violation:\n{}",
        report.render()
    );
    let div = conf.divergence.expect("divergence must be reported");
    assert!(
        div.event.contains("vote term=9"),
        "divergence must point at the mutated event: {div:?}"
    );
}
