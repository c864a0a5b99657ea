//! The repo's end-to-end benchmark: six named workloads, end-to-end metrics
//! with fixed regression bounds, and a traced run that attributes host time
//! and exact counts to the repo's layers — all measured from outside, through
//! public API. See README.md beside this package for the names and their
//! reasons.
//!
//! ```text
//! end_to_end --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!            [--out DIR] [--check-counters FILE]
//! end_to_end                      # all six, each in its own child process
//! end_to_end --compare A.json B.json
//! ```
//!
//! The last line of standard output of a `--workload` run is one JSON object
//! with the keys `correct`, `attempted`, `failed`, `metrics`; the exit code is
//! non-zero when any run failed.

#![forbid(unsafe_code)]

mod host;
mod json;
mod layers;
mod run;
mod skeletons;
mod spans;
mod stats;
mod workloads;

use json::Value;
use run::{metrics_json, run_workload, Options, WorkloadResult};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::workloads;

/// End-to-end metrics for `--compare`: direction, the share of A's value by
/// which B may be worse before it counts as a regression, and an absolute
/// floor under that allowance.
///
/// The host-time shares are BENCHMARK.json's. `setup_s` is under a
/// millisecond on the wide workloads, where a quarter of it is timer noise:
/// hence the 10 ms floor. The virtual metrics repeat exactly for a seed, and
/// the two sets compared share one, so they keep ISSUE 11's tight 0.5 % (for
/// an efficiency, which is at most 1, never looser than the issue's 0.005
/// absolute); BENCHMARK.json allows them 2 % because the driver compares runs
/// at different seeds, across which LU at 4 slaves moves by 1.8 % of its
/// virtual time.
const END_TO_END: [(&str, Better, f64, f64); 5] = [
    ("wall_s", Better::Lower, 0.25, 0.0),
    ("setup_s", Better::Lower, 0.25, 0.010),
    ("peak_rss_mb", Better::Lower, 0.15, 0.0),
    ("virt_elapsed_s", Better::Lower, 0.005, 0.0),
    ("virt_efficiency", Better::Higher, 0.005, 0.0),
];

#[derive(Clone, Copy, PartialEq)]
enum Better {
    Lower,
    Higher,
}

struct Args {
    workload: Option<String>,
    opt: Options,
    out: Option<PathBuf>,
    check_counters: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    /// Internal: print the detail object on a `detail:` line (the parent of
    /// an all-workloads run collects it).
    detail: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        opt: Options {
            seed: 7,
            seconds: 20.0,
            trace: false,
            corrupt_reference: false,
        },
        out: None,
        check_counters: None,
        compare: None,
        detail: false,
    };
    let mut it = std::env::args().skip(1);
    fn value<T: std::str::FromStr>(
        it: &mut impl Iterator<Item = String>,
        flag: &str,
    ) -> Result<T, String> {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: cannot read '{v}'"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, &flag)?),
            "--seed" => args.opt.seed = value(&mut it, &flag)?,
            "--seconds" => args.opt.seconds = value::<u32>(&mut it, &flag)?.into(),
            "--trace" => {
                args.opt.trace = match value::<u8>(&mut it, &flag)? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => args.out = Some(value(&mut it, &flag)?),
            "--check-counters" => args.check_counters = Some(value(&mut it, &flag)?),
            "--compare" => args.compare = Some((value(&mut it, &flag)?, value(&mut it, &flag)?)),
            "--corrupt-reference" => args.opt.corrupt_reference = true,
            "--detail" => args.detail = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("end_to_end: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &args.compare {
        compare(a, b)
    } else if args.workload.is_some() {
        run_one(&args)
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("end_to_end: {e}");
            ExitCode::from(2)
        }
    }
}

/// Write the set file: a header naming what the numbers depend on, then
/// every workload's detail.
fn write_set(args: &Args, dir: &Path, results: Vec<(String, Value)>) -> Result<(), String> {
    let set = Value::obj([
        ("bench", Value::Str("end_to_end".into())),
        ("seed", Value::Num(args.opt.seed as f64)),
        ("seconds", Value::Num(args.opt.seconds)),
        ("traced", Value::Bool(args.opt.trace)),
        ("nproc", Value::Num(host::nproc() as f64)),
        ("workloads", Value::Obj(results)),
    ]);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("e2e.json");
    std::fs::write(&path, set.pretty(4)).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// One workload, in this process. Returns whether every run was correct.
fn run_one(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().expect("checked by caller");
    let all = workloads();
    let workload = all.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<_> = all.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (have: {})", names.join(", "))
    })?;
    let WorkloadResult {
        attempted,
        failed,
        metrics,
        detail,
        spans,
    } = run_workload(workload, &args.opt);

    println!("{name}: {}", workload.why);
    println!(
        "{name}: seed {}, polling inline on one of {} cores, {} timed passes",
        args.opt.seed,
        host::nproc(),
        detail
            .get("timed_passes")
            .and_then(Value::num)
            .unwrap_or(0.0),
    );
    for (metric, q) in detail
        .get("end_to_end")
        .map(Value::fields)
        .unwrap_or_default()
    {
        let f = |k: &str| q.get(k).and_then(Value::num);
        let unit = match q.get("unit") {
            Some(Value::Str(u)) => u.as_str(),
            _ => "",
        };
        print!("  {metric:<40} {:>14.6} {unit}", f("value").unwrap_or(0.0));
        if let (Some(q1), Some(median), Some(q3), Some(n)) = (f("q1"), f("median"), f("q3"), f("n"))
        {
            print!("   (samples: q1 {q1:.6}, median {median:.6}, q3 {q3:.6}, n {n})");
        }
        println!();
    }
    println!(
        "  {:<40} {:>14.6} ratio   ({failed} of {attempted} runs)",
        "fail_share",
        failed as f64 / attempted as f64
    );
    for (cell, v) in detail.get("cells").map(Value::fields).unwrap_or_default() {
        let f = |k: &str| v.get(k).and_then(Value::num).unwrap_or(0.0);
        println!(
            "  cell.{cell:<35} {:>14.6} s   virt {:.6} virt_s, {} events",
            f("wall_s"),
            f("virt_elapsed_s"),
            f("events")
        );
    }
    if args.opt.trace {
        for m in &metrics {
            println!("  {:<40} {:>14.6} {}", m.name, m.value, m.unit);
        }
    }

    let mut correct = failed == 0;
    if let Some(path) = &args.check_counters {
        correct &= check_counters(args, path, &[(name.to_string(), detail.clone())])?;
    }
    if let Some(dir) = &args.out {
        write_set(args, dir, vec![(name.to_string(), detail.clone())])?;
        if args.opt.trace {
            let path = dir.join(format!("spans.{name}.json"));
            std::fs::write(&path, spans.pretty(1))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    if args.detail {
        println!("detail: {}", detail.compact());
    }
    let line = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{}", line.compact());
    Ok(correct)
}

/// All six workloads, one child process each, one at a time: a workload's
/// `peak_rss_mb` is its own high-water mark and nothing else runs beside it.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    let mut correct = true;
    for workload in workloads() {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload.name, "--detail"])
            .args(["--seed", &args.opt.seed.to_string()])
            .args(["--seconds", &args.opt.seconds.to_string()])
            .args(["--trace", if args.opt.trace { "1" } else { "0" }]);
        if args.opt.corrupt_reference {
            cmd.arg("--corrupt-reference");
        }
        if let Some(dir) = &args.out {
            // The child writes its spans there, and a one-workload set file
            // that the full set below replaces.
            cmd.arg("--out").arg(dir);
        }
        let out = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start child for {}: {e}", workload.name))?;
        correct &= out.status.success();
        let text = String::from_utf8_lossy(&out.stdout);
        let mut detail = None;
        for line in text.lines() {
            match line.strip_prefix("detail: ") {
                Some(d) => detail = Some(json::parse(d)?),
                None if line.starts_with('{') || line.starts_with("wrote ") => {}
                None => println!("{line}"),
            }
        }
        match detail {
            Some(d) => results.push((workload.name.to_string(), d)),
            None => return Err(format!("child for {} printed no result", workload.name)),
        }
    }
    if let Some(path) = &args.check_counters {
        correct &= check_counters(args, path, &results)?;
    }
    if let Some(dir) = &args.out {
        write_set(args, dir, results)?;
    }
    println!(
        "{}",
        if correct {
            "all runs correct"
        } else {
            "SOME RUNS FAILED"
        }
    );
    Ok(correct)
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare the exact part (counts and virtual-time metrics) of the workloads
/// just run with a committed set. Host times are never looked at.
fn check_counters(args: &Args, path: &Path, results: &[(String, Value)]) -> Result<bool, String> {
    let base = read_json(path)?;
    let recorded = base.get("seed").and_then(Value::num);
    if recorded != Some(args.opt.seed as f64) {
        return Err(format!(
            "{}: recorded at seed {recorded:?}, this run uses {}; counters only compare on equal inputs",
            path.display(),
            args.opt.seed
        ));
    }
    let mut same = true;
    for (name, detail) in results {
        let Some(want) = base.path(&["workloads", name, "exact"]) else {
            println!("check-counters: {name}: no baseline entry");
            same = false;
            continue;
        };
        let have = detail.get("exact").ok_or("result without exact part")?;
        let mut diffs = Vec::new();
        diff_exact("", want, have, &mut diffs);
        if diffs.is_empty() {
            println!("check-counters: {name}: exact");
        } else {
            same = false;
            for d in diffs {
                println!("check-counters: {name}: {d}");
            }
        }
    }
    Ok(same)
}

fn diff_exact(prefix: &str, want: &Value, have: &Value, out: &mut Vec<String>) {
    match (want, have) {
        (Value::Obj(w), Value::Obj(_)) => {
            for (k, wv) in w {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}/{k}")
                };
                match have.get(k) {
                    Some(hv) => diff_exact(&key, wv, hv, out),
                    None => out.push(format!("{key}: missing (baseline {})", wv.compact())),
                }
            }
            for (k, hv) in have.fields() {
                if want.get(k).is_none() {
                    out.push(format!(
                        "{prefix}/{k}: new ({}), not in baseline",
                        hv.compact()
                    ));
                }
            }
        }
        _ if want == have => {}
        _ => out.push(format!(
            "{prefix}: baseline {} now {}",
            want.compact(),
            have.compact()
        )),
    }
}

/// Per workload × end-to-end metric: both values, the delta and what is
/// allowed (both as shares of A's value), and a verdict. `unresolved` when
/// either side's own spread (the set file's `spread`) exceeds the allowance —
/// then the runs cannot tell. `fail_share` (failed / attempted runs) is the sixth
/// metric, with bound 0.
fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (set_a, set_b) = (read_json(a)?, read_json(b)?);
    println!("A = {}\nB = {}", a.display(), b.display());
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "delta", "allowed"
    );
    let mut worse = false;
    let empty = Value::Obj(Vec::new());
    for (name, wa) in set_a.get("workloads").unwrap_or(&empty).fields() {
        let Some(wb) = set_b.path(&["workloads", name]) else {
            continue;
        };
        for (metric, better, bound, floor) in END_TO_END {
            // One side's value, and how far its samples leave it in doubt.
            let side = |w: &Value| {
                let q = w.path(&["end_to_end", metric])?;
                let f = |k: &str| q.get(k).and_then(Value::num);
                Some((f("value")?, f("spread").unwrap_or(0.0)))
            };
            let (Some((ma, spread_a)), Some((mb, spread_b))) = (side(wa), side(wb)) else {
                continue;
            };
            // Positive = B is worse than A.
            let worse_by = match better {
                Better::Lower => mb - ma,
                Better::Higher => ma - mb,
            };
            let allowed = (bound * ma.abs()).max(floor);
            let verdict = if spread_a.max(spread_b) > allowed {
                "unresolved"
            } else if worse_by > allowed {
                worse = true;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{name:<12} {metric:<16} {ma:>14.6} {mb:>14.6} {:>+8.2}% {:>6.2}%  {verdict}",
                worse_by / ma.abs() * 100.0,
                allowed / ma.abs() * 100.0
            );
        }
        let fail_share = |w: &Value| w.get("fail_share").and_then(Value::num).unwrap_or(0.0);
        let (fa, fb) = (fail_share(wa), fail_share(wb));
        let verdict = if fb > fa {
            worse = true;
            "worse"
        } else {
            "ok"
        };
        println!(
            "{name:<12} {:<16} {fa:>14.6} {fb:>14.6} {:>9} {:>6.2}%  {verdict}",
            "fail_share", "", 0.0
        );
    }
    Ok(!worse)
}
