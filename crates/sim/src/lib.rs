//! # dlb-sim — deterministic network-of-workstations simulator
//!
//! The substrate for reproducing Siegell & Steenkiste, *Automatic Generation
//! of Parallel Programs with Dynamic Load Balancing* (HPDC 1994). The paper
//! ran on the CMU Nectar system: Sun 4/330 workstations on a 100 MB/s
//! crossbar, shared with other users' tasks. This crate substitutes a
//! discrete-event simulation of that environment:
//!
//! * **Virtual time** ([`SimTime`], [`SimDuration`]) in integer microseconds.
//! * **Nodes** ([`NodeConfig`]) with a relative speed, an OS round-robin
//!   scheduler with a time quantum, and a competing-[`LoadModel`] — constant
//!   or oscillating background tasks, as in the paper's Figures 7–9.
//! * **A crossbar network** ([`NetConfig`]) with latency, bandwidth, FIFO
//!   per-pair delivery, and marshalling CPU costs.
//! * **Actors** — master and slave processes — written as `async` bodies
//!   against a [`MailCtx`] and polled by the [`SimBuilder`] kernel, which
//!   alone owns the clock and event queue and applies what each poll did in
//!   one fixed order, so every run is deterministic.
//!
//! Computation is charged in units of [`CpuWork`]; the quantum scheduler
//! stretches CPU work into elapsed time exactly as time-sharing does, which
//! reproduces the paper's measurement phenomena (rate oscillation when the
//! measurement period is close to the quantum, §4.3).
//!
//! ```
//! use dlb_sim::{CpuWork, LoadModel, NodeConfig, SimBuilder};
//!
//! let mut sim = SimBuilder::<&'static str>::new();
//! let n0 = sim.add_node(NodeConfig::default());
//! let n1 = sim.add_node(NodeConfig::with_load(LoadModel::Constant(1)));
//! let worker = sim.spawn_mail(n1, "worker", |ctx| async move {
//!     ctx.advance_work(CpuWork::from_secs_f64(1.0)).await; // shares CPU with 1 task
//!     let m = ctx.recv().await;
//!     assert_eq!(m.msg, "hello");
//! });
//! sim.spawn_mail(n0, "coordinator", move |ctx| async move {
//!     ctx.send(worker, "hello", 5).await;
//! });
//! let report = sim.run();
//! assert!(report.end_time.as_secs_f64() >= 1.0);
//! ```

#![forbid(unsafe_code)]

pub mod cpu;
pub mod explore;
pub mod fault;
pub mod kernel;
pub mod load;
pub mod lossy;
pub mod net;
pub mod reduce;
pub mod rng;
pub mod time;
pub mod trace;
pub mod work;

pub use cpu::{advance, Advance, NodeConfig};
pub use explore::{explore, random_walks, Exploration, TransitionSystem, Verdict};
pub use fault::{FaultPlan, FaultStats, LinkFaults, NodeFaults, Partition};
pub use kernel::{
    ActorId, ActorMetrics, MailCtx, NodeId, NodeMetrics, SchedStats, SimBuilder, SimReport,
};
pub use load::LoadModel;
pub use lossy::{class_sort, classes_by, Lead, LossyProtocol, Net, Step};
pub use net::{Envelope, NetConfig};
pub use reduce::{explore_reduced, fingerprint, Ample, ReduceConfig, ReduceStats, Symmetric};
pub use rng::Pcg32;
pub use time::{SimDuration, SimTime};
pub use trace::{parse_runs, parse_trace, render_trace, TraceEvent, TraceKind};
pub use work::CpuWork;
