//! The message stream of plain runs, pinned through the recorded trace
//! (`RunConfig::record_trace`): 16-slave SOR and LU cells with no fault
//! plan, their `SEND`, `DELIVER` and `CRASH` records hashed. `WAKE` lines
//! say how the kernel scheduled the actors, which is free to change while
//! every message still leaves and arrives at the same instant, and `NOTE`s
//! are narration; both are left out. Records that share an instant are
//! sorted first, so the pin holds what happened at each instant, not the
//! order the kernel stepped through that instant's events in.

use dlb::apps::{Calibration, Lu, Sor};
use dlb::core::driver::{try_run, AppSpec, RunConfig};
use dlb::sim::{TraceEvent, TraceKind};
use std::sync::Arc;

const SLAVES: usize = 16;

fn recorded(spec: AppSpec, plan: &dlb::compiler::ParallelPlan) -> Vec<TraceEvent> {
    let mut cfg = RunConfig::homogeneous(SLAVES);
    cfg.balancer.enabled = true;
    cfg.record_trace = true;
    try_run(spec, plan, cfg)
        .expect("a plain run completes")
        .sim
        .trace
}

/// FNV-1a over the `SEND`/`DELIVER`/`CRASH` lines, each instant's sorted,
/// and how many there were.
fn message_hash(trace: &[TraceEvent]) -> (usize, u64) {
    let mut lines: Vec<(u64, String)> = trace
        .iter()
        .filter(|ev| {
            matches!(
                ev.kind,
                TraceKind::Send { .. } | TraceKind::Deliver { .. } | TraceKind::Crash { .. }
            )
        })
        .map(|ev| (ev.time.0, ev.render()))
        .collect();
    // The trace is in time order, so a stable sort by line within each
    // instant is a sort of the whole by (time, line).
    lines.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (_, line) in &lines {
        for byte in line.bytes().chain([b'\n']) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    (lines.len(), hash)
}

#[test]
fn plain_sor_and_lu_message_records_are_pinned() {
    let sor = Arc::new(Sor::new(36, 4, 7, &Calibration::new(0.002)));
    let sor_plan = dlb::compiler::compile(&sor.program()).unwrap();
    let lu = Arc::new(Lu::new(24, 7, &Calibration::new(0.002)));
    let lu_plan = dlb::compiler::compile(&lu.program()).unwrap();
    let got = [
        (
            "sor",
            message_hash(&recorded(AppSpec::Pipelined(sor), &sor_plan)),
        ),
        (
            "lu",
            message_hash(&recorded(AppSpec::Shrinking(lu), &lu_plan)),
        ),
    ];
    for (name, (n, hash)) in got {
        println!("{name}: {n} records, {hash:#018x}");
    }
    // Recorded while every CPU charge was still a kernel event of its own;
    // an actor that runs ahead through its charges must not move them.
    assert_eq!(
        got,
        [
            ("sor", (1_400, 0x6072_c4cd_edd4_89a1)),
            ("lu", (4_058, 0xef4f_4b51_69f1_ec42)),
        ]
    );
}
