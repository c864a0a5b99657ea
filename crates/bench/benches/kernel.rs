//! Kernel-throughput benchmark for the mailbox scheduler: host-side
//! messages/s, wakeups/s, and state-machine steps/s at runtime widths
//! 16, 64, and 256 actors, all polled by the kernel on one thread.
//!
//! Three workloads isolate the three hot paths:
//!
//! * `messages` — hub-and-spoke ping-pong: every op is a send landing in
//!   a peer mailbox plus the recv that drains it.
//! * `wakeups`  — sleeping actors only: every op is a push onto the wake
//!   heap and the wake that pops it.
//! * `steps`    — compute/sleep alternation: the charge runs the actor's
//!   own clock ahead without an event, and the nap parks its state machine
//!   once and polls it back to life, so a two-op iteration is one event.
//!
//! Results are printed as a table and written to `BENCH_kernel.json`
//! (hand-rolled JSON; the container has no serde). With
//! `--gate <baseline.json>` the run additionally compares each case's
//! deterministic counters (`polls`, `wakeups`, `events`) against the
//! committed baseline for exact equality and exits non-zero on any
//! difference — the CI merge gate for kernel work per op. ops/s is printed
//! as information only: it measures the host, not the code.
//!
//! Run with `cargo bench -p dlb-bench --bench kernel`.

use dlb_sim::{ActorId, CpuWork, NetConfig, NodeConfig, SimBuilder, SimDuration};
use std::fmt::Write as _;
use std::time::Instant;

const WIDTHS: [usize; 3] = [16, 64, 256];
/// Best-of-N timing to damp scheduler noise on shared runners.
const RUNS: usize = 3;

struct Case {
    name: &'static str,
    width: usize,
    ops: u64,
    millis: f64,
    ops_per_sec: f64,
    polls: u64,
    wakeups: u64,
    events: u64,
}

impl Case {
    fn key(&self) -> String {
        format!("{}/w{}", self.name, self.width)
    }

    fn counters(&self) -> Counters {
        [self.polls, self.wakeups, self.events]
    }
}

/// Hub-and-spoke ping-pong: `width` spokes each complete `rounds` round
/// trips with a node-0 hub. One op = one message on the wire.
fn bench_messages(width: usize) -> (u64, dlb_sim::SimReport) {
    let rounds: u64 = 1_000;
    let mut b = SimBuilder::<u64>::new().net(NetConfig::ideal());
    let hub_node = b.add_node(NodeConfig::default());
    let mut spoke_nodes = Vec::new();
    for _ in 0..width {
        spoke_nodes.push(b.add_node(NodeConfig::default()));
    }
    let total = width as u64 * rounds;
    b.spawn_mail(hub_node, "hub", move |ctx| async move {
        for _ in 0..total {
            let env = ctx.recv().await;
            ctx.send(ActorId(env.src), env.msg, 16).await;
        }
    });
    for (i, n) in spoke_nodes.into_iter().enumerate() {
        b.spawn_mail(n, format!("spoke{i}"), move |ctx| async move {
            for r in 0..rounds {
                ctx.send(ActorId(0), i as u64 ^ r, 16).await;
                ctx.recv().await;
            }
        });
    }
    (2 * total, b.run())
}

/// Wake-heap stress: `width` actors each sleep `naps` staggered
/// durations. One op = one wake-heap push + the wake that pops it.
fn bench_wakeups(width: usize) -> (u64, dlb_sim::SimReport) {
    let naps: u64 = 1_000;
    let mut b = SimBuilder::<()>::new().net(NetConfig::ideal());
    let mut ops = 0u64;
    for i in 0..width {
        let n = b.add_node(NodeConfig::default());
        b.spawn_mail(n, format!("sleeper{i}"), move |ctx| async move {
            for k in 0..naps {
                // 17 staggered periods: ~width/17 wakes due at each instant.
                ctx.sleep(SimDuration::from_micros((i as u64 % 17) * 61 + k % 13 + 1))
                    .await;
            }
        });
        ops += naps;
    }
    (ops, b.run())
}

/// State-machine stepping: `width` actors alternate a compute quantum
/// with a 1 µs nap, so every iteration parks and re-polls the future once.
fn bench_steps(width: usize) -> (u64, dlb_sim::SimReport) {
    let iters: u64 = 1_000;
    let mut b = SimBuilder::<()>::new().net(NetConfig::ideal());
    let mut ops = 0u64;
    for i in 0..width {
        let n = b.add_node(NodeConfig::default());
        b.spawn_mail(n, format!("stepper{i}"), move |ctx| async move {
            for _ in 0..iters {
                ctx.advance_work(CpuWork::from_micros(i as u64 % 7 + 1))
                    .await;
                ctx.sleep(SimDuration::from_micros(1)).await;
            }
        });
        ops += 2 * iters;
    }
    (ops, b.run())
}

fn measure(name: &'static str, width: usize, f: fn(usize) -> (u64, dlb_sim::SimReport)) -> Case {
    let mut best: Option<Case> = None;
    for _ in 0..RUNS {
        let t0 = Instant::now();
        let (ops, report) = f(width);
        let millis = t0.elapsed().as_secs_f64() * 1e3;
        let case = Case {
            name,
            width,
            ops,
            millis,
            ops_per_sec: ops as f64 / (millis / 1e3),
            polls: report.sched.polls,
            wakeups: report.sched.wakeups,
            events: report.events_processed,
        };
        if best.as_ref().is_none_or(|b| case.millis < b.millis) {
            best = Some(case);
        }
    }
    best.expect("RUNS > 0")
}

fn report_line(c: &Case) {
    println!(
        "{:<16} {:>10.0} ops/s {:>9.1} ms  {:>9} ops {:>9} polls {:>9} wakeups {:>9} events",
        c.key(),
        c.ops_per_sec,
        c.millis,
        c.ops,
        c.polls,
        c.wakeups,
        c.events,
    );
}

fn json(cases: &[Case]) -> String {
    let mut s = String::from("{\n  \"bench\": \"kernel\",\n  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"width\": {}, \"ops\": {}, \"millis\": {:.3}, \
             \"ops_per_sec\": {:.1}, \"polls\": {}, \"wakeups\": {}, \"events\": {}}}",
            c.name, c.width, c.ops, c.millis, c.ops_per_sec, c.polls, c.wakeups, c.events,
        );
        s.push_str(if i + 1 < cases.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// The gated counters of one case: `[polls, wakeups, events]`.
type Counters = [u64; 3];

/// Pull each case's key and gated counters back out of a baseline file this
/// binary wrote earlier. Format-coupled by design: it reads exactly what
/// [`json`] writes.
fn parse_baseline(text: &str) -> Vec<(String, Counters)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let (Some(name), Some(width)) = (field_str(line, "name"), field_num(line, "width")) else {
            continue;
        };
        let (Some(polls), Some(wakeups), Some(events)) = (
            field_num(line, "polls"),
            field_num(line, "wakeups"),
            field_num(line, "events"),
        ) else {
            continue;
        };
        out.push((format!("{name}/w{width}"), [polls, wakeups, events]));
    }
    out
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tail = line.split(&format!("\"{key}\": \"")).nth(1)?;
    tail.split('"').next()
}

fn field_num(line: &str, key: &str) -> Option<u64> {
    let tail = line.split(&format!("\"{key}\": ")).nth(1)?;
    tail.split([',', '}']).next()?.trim().parse().ok()
}

fn gate(cases: &[Case], baseline_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline = parse_baseline(&text);
    if baseline.is_empty() {
        return Err(format!("no cases parsed from baseline {baseline_path}"));
    }
    let mut failures = Vec::new();
    for c in cases {
        let key = c.key();
        let Some((_, base)) = baseline.iter().find(|(k, _)| *k == key) else {
            println!("gate: {key} has no baseline entry (new case, skipped)");
            continue;
        };
        let got = c.counters();
        let ok = got == *base;
        let verdict = if ok { "ok" } else { "FAIL" };
        println!("gate: {key:<16} polls/wakeups/events {got:?}  {verdict}");
        if !ok {
            failures.push(format!(
                "{key}: polls/wakeups/events {got:?} != baseline {base:?}"
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline = args
        .iter()
        .position(|a| a == "--gate")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let mut cases = Vec::new();
    for width in WIDTHS {
        cases.push(measure("messages", width, bench_messages));
        cases.push(measure("wakeups", width, bench_wakeups));
        cases.push(measure("steps", width, bench_steps));
    }
    for c in &cases {
        report_line(c);
    }

    let path = "BENCH_kernel.json";
    std::fs::write(path, json(&cases)).expect("write BENCH_kernel.json");
    println!("wrote {path} ({} cases)", cases.len());

    if let Some(baseline_path) = baseline {
        match gate(&cases, &baseline_path) {
            Ok(()) => println!("gate: all counters equal the baseline"),
            Err(msg) => {
                eprintln!("kernel bench counters moved:\n{msg}");
                std::process::exit(1);
            }
        }
    }
}
