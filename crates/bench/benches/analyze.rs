//! Explorer-throughput benchmark for the protocol model checker: full
//! vs reduced exploration of the restore, transfer, election and join models
//! at the standard fixture size and at runtime widths.
//!
//! For each case it reports wall time, states visited, states/second, the
//! peak visited-set footprint, and — where both runs exist — the
//! reduction factor (full states / reduced states). Results are printed
//! as a table and written to `BENCH_analyze.json` in the working
//! directory (hand-rolled JSON; the container has no serde).
//!
//! Run with `cargo bench -p dlb-bench --bench analyze`. An optional
//! argument substring-filters the cases (e.g.
//! `cargo bench -p dlb-bench --bench analyze -- election`).

use dlb_core::{ElectionModel, JoinModel, RestoreModel, TransferModel};
use dlb_sim::{explore, explore_reduced, Ample, ReduceConfig, Symmetric, Verdict};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured exploration.
struct Case {
    name: String,
    mode: &'static str,
    states: usize,
    truncated: bool,
    verdict: &'static str,
    millis: f64,
    states_per_sec: f64,
    visited_bytes: usize,
    pruned_actions: usize,
    /// `full states / reduced states`, on the reduced row of a pair.
    reduction_factor: Option<f64>,
}

const MAX_DEPTH: usize = 256;
const MAX_STATES: usize = 30_000_000;

fn verdict_str(v: &Verdict) -> &'static str {
    match v {
        Verdict::Ok => "ok",
        Verdict::Violation => "violation",
        Verdict::Deadlock => "deadlock",
    }
}

fn run_full<S: Symmetric + Ample>(name: &str, sys: &S) -> Case
where
    S::State: std::hash::Hash,
{
    let t0 = Instant::now();
    let ex = explore(sys, MAX_DEPTH, MAX_STATES);
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    Case {
        name: name.to_string(),
        mode: "full",
        states: ex.states,
        truncated: ex.truncated,
        verdict: verdict_str(&ex.verdict),
        millis,
        states_per_sec: ex.states as f64 / (millis / 1e3),
        visited_bytes: 0,
        pruned_actions: 0,
        reduction_factor: None,
    }
}

fn run_reduced<S: Symmetric + Ample>(name: &str, sys: &S, full_states: Option<usize>) -> Case
where
    S::State: std::hash::Hash,
{
    let cfg = ReduceConfig {
        max_depth: MAX_DEPTH,
        max_states: MAX_STATES,
        fingerprint: true,
    };
    let t0 = Instant::now();
    let (ex, stats) = explore_reduced(sys, &cfg);
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    Case {
        name: name.to_string(),
        mode: "reduced",
        states: ex.states,
        truncated: ex.truncated,
        verdict: verdict_str(&ex.verdict),
        millis,
        states_per_sec: ex.states as f64 / (millis / 1e3),
        visited_bytes: stats.visited_bytes,
        pruned_actions: stats.pruned_actions,
        reduction_factor: full_states.map(|f| f as f64 / ex.states as f64),
    }
}

/// Measure one model at one width: full then reduced when `with_full`,
/// reduced only otherwise (runtime widths, where the full space is out of
/// reach by construction).
fn measure<S: Symmetric + Ample>(out: &mut Vec<Case>, name: &str, sys: &S, with_full: bool)
where
    S::State: std::hash::Hash,
{
    let full_states = if with_full {
        let c = run_full(name, sys);
        let states = c.states;
        report_line(&c);
        out.push(c);
        Some(states)
    } else {
        None
    };
    let c = run_reduced(name, sys, full_states);
    report_line(&c);
    out.push(c);
}

fn report_line(c: &Case) {
    println!(
        "{:<28} {:>8} {:>10} states {:>12.0} st/s {:>9.1} ms  {:>10} visited-bytes  verdict={}{}{}",
        c.name,
        c.mode,
        c.states,
        c.states_per_sec,
        c.millis,
        c.visited_bytes,
        c.verdict,
        if c.truncated { " (truncated)" } else { "" },
        match c.reduction_factor {
            Some(f) => format!("  reduction={f:.1}x"),
            None => String::new(),
        },
    );
}

fn json(cases: &[Case]) -> String {
    let mut s = String::from("{\n  \"bench\": \"analyze\",\n  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"mode\": \"{}\", \"states\": {}, \"truncated\": {}, \
             \"verdict\": \"{}\", \"millis\": {:.3}, \"states_per_sec\": {:.1}, \
             \"visited_bytes\": {}, \"pruned_actions\": {}, \"reduction_factor\": {}}}",
            c.name,
            c.mode,
            c.states,
            c.truncated,
            c.verdict,
            c.millis,
            c.states_per_sec,
            c.visited_bytes,
            c.pruned_actions,
            match c.reduction_factor {
                Some(f) => format!("{f:.3}"),
                None => "null".to_string(),
            },
        );
        s.push_str(if i + 1 < cases.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    // Cargo passes harness flags like `--bench`; the first bare argument
    // (if any) is our case filter.
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_default();
    let mut cases = Vec::new();
    let wanted = |name: &str| filter.is_empty() || name.contains(&filter);

    // Standard fixtures and small widths: full + reduced, so the table
    // carries honest reduction factors validated against the full space.
    if wanted("restore-standard") {
        measure(
            &mut cases,
            "restore-standard",
            &RestoreModel::standard(),
            true,
        );
    }
    if wanted("restore-wide4") {
        measure(&mut cases, "restore-wide4", &RestoreModel::wide(4), true);
    }
    if wanted("transfer-standard") {
        measure(
            &mut cases,
            "transfer-standard",
            &TransferModel::standard(),
            true,
        );
    }
    if wanted("transfer-wide4") {
        measure(&mut cases, "transfer-wide4", &TransferModel::wide(4), true);
    }
    if wanted("election-standard") {
        measure(
            &mut cases,
            "election-standard",
            &ElectionModel::standard(),
            true,
        );
    }
    if wanted("election-wide4") {
        measure(&mut cases, "election-wide4", &ElectionModel::wide(4), true);
    }

    if wanted("join-standard") {
        measure(&mut cases, "join-standard", &JoinModel::standard(), true);
    }
    if wanted("join-wide4") {
        measure(&mut cases, "join-wide4", &JoinModel::wide(4), true);
    }

    // Runtime widths: reduced only — the whole point of the reductions is
    // that the full space here is unreachable.
    if wanted("election-wide6") {
        measure(&mut cases, "election-wide6", &ElectionModel::wide(6), false);
    }
    if wanted("election-wide8") {
        measure(&mut cases, "election-wide8", &ElectionModel::wide(8), false);
    }
    if wanted("election-wide10") {
        measure(
            &mut cases,
            "election-wide10",
            &ElectionModel::wide(10),
            false,
        );
    }
    if wanted("restore-wide16") {
        measure(&mut cases, "restore-wide16", &RestoreModel::wide(16), false);
    }
    if wanted("transfer-wide16") {
        measure(
            &mut cases,
            "transfer-wide16",
            &TransferModel::wide(16),
            false,
        );
    }
    if wanted("election-wide16") {
        measure(
            &mut cases,
            "election-wide16",
            &ElectionModel::wide(16),
            false,
        );
    }

    if wanted("join-wide16") {
        measure(&mut cases, "join-wide16", &JoinModel::wide(16), false);
    }

    let path = "BENCH_analyze.json";
    std::fs::write(path, json(&cases)).expect("write BENCH_analyze.json");
    println!("wrote {path} ({} cases)", cases.len());
}
