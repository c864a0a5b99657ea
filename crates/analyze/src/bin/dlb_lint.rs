//! `dlb-lint`: run every built-in program through the plan linter, then
//! model-check the restore protocol, the work-migration (transfer window)
//! protocol, the master-failover election, and the mid-run join/rejoin
//! handshake. The election and join checkers are additionally
//! self-tested: deliberately broken variants (split-brain voters, an
//! unfenced zombie incarnation) must yield counterexamples, proving the
//! invariants have teeth. Prints each report and exits nonzero if any
//! error-severity diagnostic was produced (or an expected counterexample
//! was not).
//!
//! Flags scale the models to runtime widths and tune the exploration:
//!
//! ```text
//! dlb-lint [--width N] [--max-states N] [--max-depth N] [--walks N]
//!          [--seed N] [--no-reduce] [--exact] [--deny-truncation]
//! dlb-lint --conform FILE
//! ```
//!
//! `--conform FILE` switches to trace-conformance mode: parse a recorded
//! kernel event trace (see `dlb_sim::trace`; a `DLB_TRACE_EVENTS` stderr
//! capture of several runs is read as is) and replay each run's election
//! traffic through the protocol model, exiting nonzero on any refinement
//! violation (DLB-E110) or trace parse error.

use dlb_analyze::{
    check_conformance, check_election_protocol_with, check_join_protocol_with, check_protocol_with,
    check_transfer_protocol_with, lint_builtins, CheckConfig, Code, Report,
};
use dlb_core::{ElectionModel, JoinModel, RestoreModel, TransferModel};

const USAGE: &str = "\
usage: dlb-lint [options]
       dlb-lint --conform FILE

options:
  --width N          model-check runtime-width instances: N survivors
                     (restore), N receivers (transfer), N deputies
                     (election), N slots (join); default = the small
                     standard fixtures
  --max-states N     exploration state budget (default 2000000)
  --max-depth N      exploration depth bound (default 64)
  --walks N          post-exhaustive random walks, 0 disables (default 256)
  --seed N           seed for the random walks (default 0xd1b)
  --no-reduce        disable symmetry + partial-order reduction
  --exact            exact visited-state set instead of 64-bit fingerprints
  --deny-truncation  treat a truncated exploration (DLB-W102) as failure
  --conform FILE     replay a recorded event trace through the election
                     model; fail on divergence (DLB-E110)
  --help             print this help
";

struct Options {
    width: Option<usize>,
    cfg: CheckConfig,
    deny_truncation: bool,
    conform: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        width: None,
        cfg: CheckConfig::default(),
        deny_truncation: false,
        conform: None,
    };
    let mut args = std::env::args().skip(1);
    let value = |flag: &str, args: &mut dyn Iterator<Item = String>| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--width" => {
                let v = value("--width", &mut args)?;
                let n: usize = v.parse().map_err(|_| format!("bad --width {v:?}"))?;
                if n < 2 {
                    return Err("--width must be at least 2".into());
                }
                opts.width = Some(n);
            }
            "--max-states" => {
                let v = value("--max-states", &mut args)?;
                opts.cfg.max_states = v.parse().map_err(|_| format!("bad --max-states {v:?}"))?;
            }
            "--max-depth" => {
                let v = value("--max-depth", &mut args)?;
                opts.cfg.max_depth = v.parse().map_err(|_| format!("bad --max-depth {v:?}"))?;
            }
            "--walks" => {
                let v = value("--walks", &mut args)?;
                opts.cfg.walks = v.parse().map_err(|_| format!("bad --walks {v:?}"))?;
            }
            "--seed" => {
                let v = value("--seed", &mut args)?;
                opts.cfg.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--no-reduce" => opts.cfg.reduce = false,
            "--exact" => opts.cfg.exact = true,
            "--deny-truncation" => opts.deny_truncation = true,
            "--conform" => opts.conform = Some(value("--conform", &mut args)?),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// Conformance mode: parse + replay one trace file, report, exit.
fn run_conform(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dlb-lint: cannot read {path}: {e}");
            return 1;
        }
    };
    match check_conformance(&text) {
        Ok((report, conf)) => {
            print!("{}", report.render());
            if report.has_errors() {
                eprintln!("dlb-lint: trace diverges from the protocol model");
                1
            } else {
                println!(
                    "dlb-lint: trace conforms ({} run(s), {} events, {} replayed, {} deputies, \
                     {} stand(s), {} win(s))",
                    conf.runs, conf.events, conf.replayed, conf.deputies, conf.stands, conf.wins
                );
                0
            }
        }
        Err(e) => {
            eprintln!("dlb-lint: bad trace {path}: {e}");
            1
        }
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dlb-lint: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &opts.conform {
        std::process::exit(run_conform(path));
    }

    let (restore, transfer, election, join) = match opts.width {
        Some(n) => (
            RestoreModel::wide(n),
            TransferModel::wide(n),
            ElectionModel::wide(n),
            JoinModel::wide(n),
        ),
        None => (
            RestoreModel::standard(),
            TransferModel::standard(),
            ElectionModel::standard(),
            JoinModel::standard(),
        ),
    };

    let mut failed = false;
    let mut truncated = false;
    let consume = |report: &Report, failed: &mut bool, truncated: &mut bool| {
        print!("{}", report.render());
        *failed |= report.has_errors();
        *truncated |= report.has(Code::W102);
    };
    for report in lint_builtins() {
        consume(&report, &mut failed, &mut truncated);
    }
    for protocol in [
        check_protocol_with(&restore, opts.cfg),
        check_transfer_protocol_with(&transfer, opts.cfg),
        check_election_protocol_with(&election, opts.cfg),
        check_join_protocol_with(&join, opts.cfg),
    ] {
        consume(&protocol, &mut failed, &mut truncated);
    }
    // Negative fixtures: deliberately broken variants must be caught with
    // replayable counterexamples, or the checker has lost its teeth.
    // Checked at the small standard width where the bug is cheap to reach,
    // except the newest-trusting winner, which is checked at the run's
    // width: its counterexample is one quorum deep.
    let default = CheckConfig::default();
    let trusting = ElectionModel {
        coverage_check: false,
        ..election
    };
    for (report, code, name, found) in [
        (
            check_election_protocol_with(&ElectionModel::broken_split_brain(), default),
            Code::E107,
            "election-protocol (forgetful voters)",
            "split-brain",
        ),
        (
            check_election_protocol_with(&trusting, default),
            Code::E114,
            "election-protocol (newest-trusting winners)",
            "torn-restart",
        ),
        (
            check_join_protocol_with(&JoinModel::broken_double_incarnation(), default),
            Code::E111,
            "join-protocol (no incarnation fence)",
            "zombie-credit",
        ),
    ] {
        if report.has(code) {
            println!("{name}: {found} counterexample found, as expected");
        } else {
            eprintln!(
                "{name}: expected a {code} counterexample, got:\n{}",
                report.render()
            );
            failed = true;
        }
    }
    if truncated && opts.deny_truncation {
        eprintln!("dlb-lint: exploration truncated (DLB-W102) and --deny-truncation is set");
        failed = true;
    }
    if failed {
        eprintln!("dlb-lint: errors found");
        std::process::exit(1);
    }
    println!("dlb-lint: all checks passed");
}
