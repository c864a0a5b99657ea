//! # dlb-core — run-time system with dynamic load balancing
//!
//! The primary contribution of Siegell & Steenkiste (HPDC 1994): a
//! master/slave run-time library that executes compiler-generated SPMD
//! programs on a network of workstations and **dynamically rebalances**
//! loop iterations as competing load comes and goes.
//!
//! * [`balancer`] — the central decision engine: trend-filtered rates
//!   ([`rate`]), rate-proportional allocation and movement planning
//!   ([`alloc`]), automatic frequency selection ([`frequency`]), the 10 %
//!   threshold and profitability refinements (§3.2).
//! * `master` — the master process: program control mimicking the
//!   application's loop structure (§4.1), status/instruction exchange
//!   (pipelined or synchronous, Fig. 2), invocation settlement, gather.
//! * Engines — compiler patterns from `dlb-compiler`, each a
//!   `session::strategy::DistributionStrategy` under the one slave runner
//!   (`session::slave`): `engine_independent` (MM), `engine_pipelined`
//!   (SOR, with set-aside/catch-up work movement, §4.5),
//!   `engine_shrinking` (LU, active/inactive slices, §4.7).
//! * [`driver`] — one-call execution: [`driver::run`] builds the simulated
//!   cluster, wires everything, and returns a [`driver::RunReport`] with
//!   timings, the paper's efficiency metric, the balancing timeline
//!   (Fig. 9), and the verified result data.
//!
//! ```
//! use dlb_core::driver::{run, AppSpec, RunConfig};
//! use dlb_core::kernels::IndependentKernel;
//! use dlb_sim::CpuWork;
//! use std::sync::Arc;
//!
//! struct Halve {
//!     n: usize,
//! }
//! impl IndependentKernel for Halve {
//!     fn n_units(&self) -> usize {
//!         self.n
//!     }
//!     fn invocations(&self) -> u64 {
//!         1
//!     }
//!     fn init_unit(&self, idx: usize) -> Vec<Vec<f64>> {
//!         vec![vec![idx as f64]]
//!     }
//!     fn compute(&self, _idx: usize, unit: &mut Vec<Vec<f64>>, _inv: u64) {
//!         unit[0][0] /= 2.0;
//!     }
//!     fn unit_cost(&self) -> CpuWork {
//!         CpuWork::from_millis(20)
//!     }
//! }
//!
//! let program = dlb_compiler::programs::matmul(16, 1); // stand-in plan
//! let plan = dlb_compiler::compile(&program).unwrap();
//! let report = run(
//!     AppSpec::Independent(Arc::new(Halve { n: 16 })),
//!     &plan,
//!     RunConfig::homogeneous(4),
//! );
//! assert_eq!(report.result[6][0][0], 3.0);
//! ```

#![forbid(unsafe_code)]

pub mod alloc;
pub mod balancer;
pub mod driver;
pub(crate) mod engine_independent;
pub(crate) mod engine_pipelined;
pub(crate) mod engine_shrinking;
pub mod error;
pub mod frequency;
pub mod kernels;
pub(crate) mod master;
pub mod msg;
pub mod protocol;
pub mod rate;
pub mod recovery;
pub mod session;
pub(crate) mod slave_common;

pub use balancer::{Balancer, BalancerConfig, BalancerStats, InteractionMode};
pub use driver::{block_ranges, run, try_run, AppSpec, RunConfig, RunReport};
pub use error::{FaultToleranceConfig, ProtocolError, RunError};
pub use frequency::{FrequencyController, PeriodBounds};
pub use kernels::{IndependentKernel, PipelinedKernel, ShrinkingKernel};
pub use master::TimelineSample;
pub use msg::{Edge, Instructions, MoveOrder, MovedUnit, Msg, Status, TransferMsg, UnitData};
pub use protocol::{AckTracker, SenderWindow, TransferWindow};
pub use rate::RateFilter;
pub use recovery::{RecoveryStats, SlaveFaultStats};
pub use session::model::{
    DeputyModel, EWire, ElectionLocal, ElectionModel, ElectionState, JWire, JoinLocal, JoinModel,
    JoinPhase, JoinSlotMaster, JoinSlotSlave, JoinState, ReceiverSlot, RestoreLocal, RestoreModel,
    RestoreState, SeqWire, TransferLocal, TransferModel, TransferState,
};
pub use session::replica::{Ballot, DeputyState, TakeoverSeed};
