//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes the ways a simulated cluster misbehaves:
//! per-link message **drop**, **duplication**, and **extra-delay jitter**
//! probabilities, plus node-level **crash** (fail-stop at a virtual time)
//! and **freeze** windows (the node is unresponsive for an interval, then
//! resumes where it left off — a long scheduling stall or GC pause).
//!
//! All randomness flows from a single seeded [`Pcg32`] owned by the kernel,
//! and every draw happens at a deterministic point in the event order, so
//! identical seed + identical plan ⇒ identical event trace (checked via
//! [`crate::SimReport::trace_hash`]).
//!
//! Semantics:
//! - **drop**: the message consumes CPU and link time at the sender as
//!   normal (the loss happens in the network), but no delivery event is
//!   scheduled.
//! - **duplicate**: a second copy arrives after the original. Both copies
//!   respect per-(src,dst) FIFO ordering.
//! - **jitter**: extra delay is added *before* the FIFO ordering clamp, so
//!   a jittered message delays everything behind it rather than being
//!   overtaken — per-pair FIFO is preserved (TCP-like behavior).
//! - **crash**: fail-stop. The node's actor never runs again and messages
//!   addressed to it are discarded (and counted).
//! - **freeze**: events targeting the node inside a window `[from, until)`
//!   are deferred to `until`, preserving their relative order.
//! - **partition**: the node set splits into groups for a window
//!   `[from, until)`; every message crossing a group boundary is dropped
//!   (deterministically — no RNG draw), then the network heals. Nodes not
//!   listed in any group stay in group 0.

use crate::rng::Pcg32;
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Per-link fault probabilities.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkFaults {
    /// Probability a message is silently lost.
    pub drop_p: f64,
    /// Probability a message is delivered twice.
    pub dup_p: f64,
    /// Probability a message suffers extra delay.
    pub jitter_p: f64,
    /// Maximum extra delay (uniform in `[0, max_jitter]`).
    pub max_jitter: SimDuration,
}

impl LinkFaults {
    pub fn is_quiet(&self) -> bool {
        self.drop_p <= 0.0 && self.dup_p <= 0.0 && self.jitter_p <= 0.0
    }
}

/// Node-level fault schedule.
#[derive(Clone, Debug, Default)]
pub struct NodeFaults {
    /// Fail-stop at this virtual time.
    pub crash_at: Option<SimTime>,
    /// Unresponsive windows `[from, until)`.
    pub freezes: Vec<(SimTime, SimTime)>,
}

impl NodeFaults {
    /// If `t` falls inside a freeze window, the time the node thaws
    /// (chained/overlapping windows are walked to a fixed point).
    pub(crate) fn thaw(&self, t: SimTime) -> Option<SimTime> {
        let mut cur = t;
        let mut moved = false;
        loop {
            let mut hit = false;
            for &(from, until) in &self.freezes {
                if cur >= from && cur < until {
                    cur = until;
                    hit = true;
                    moved = true;
                }
            }
            if !hit {
                break;
            }
        }
        moved.then_some(cur)
    }
}

/// A network partition window: for `[from, until)` the node set splits into
/// `groups` and every message crossing a group boundary is dropped. Nodes
/// not listed in any group form one implicit group of their own — so
/// `partition(from, until, vec![vec![3, 4]])` splits `{3, 4}` off from the
/// rest of the cluster (with `dlb-core`'s node layout the unlisted side
/// keeps the master at node 0).
#[derive(Clone, Debug)]
pub struct Partition {
    pub from: SimTime,
    pub until: SimTime,
    pub groups: Vec<Vec<usize>>,
}

impl Partition {
    /// Group index of `node`: listed groups are `1..`, the implicit
    /// remainder group is `0`.
    fn group_of(&self, node: usize) -> usize {
        self.groups
            .iter()
            .position(|g| g.contains(&node))
            .map_or(0, |i| i + 1)
    }

    /// Whether `src → dst` traffic is severed by this window at time `t`.
    pub fn severs(&self, src: usize, dst: usize, t: SimTime) -> bool {
        t >= self.from && t < self.until && self.group_of(src) != self.group_of(dst)
    }
}

/// A seeded, deterministic description of everything that goes wrong.
///
/// Node indices refer to simulation [`crate::NodeId`]s (spawn order). In
/// `dlb-core` runs the master is node 0 and slave *i* is node *i + 1*.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    default_link: LinkFaults,
    links: BTreeMap<(usize, usize), LinkFaults>,
    nodes: BTreeMap<usize, NodeFaults>,
    partitions: Vec<Partition>,
}

impl FaultPlan {
    /// An empty plan: nothing fails, but the run is tagged as fault-mode
    /// (protocol timeouts/retries enabled in consumers like `dlb-core`).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            default_link: LinkFaults::default(),
            links: BTreeMap::new(),
            nodes: BTreeMap::new(),
            partitions: Vec::new(),
        }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Drop each message on every link with probability `p`.
    pub fn drop_all(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.default_link.drop_p = p;
        self
    }

    /// Duplicate each message on every link with probability `p`.
    pub fn dup_all(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.default_link.dup_p = p;
        self
    }

    /// Add up to `max` extra delay to each message with probability `p`.
    pub fn jitter_all(mut self, p: f64, max: SimDuration) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.default_link.jitter_p = p;
        self.default_link.max_jitter = max;
        self
    }

    /// Override fault probabilities for the directed link `src → dst`
    /// (node indices).
    pub fn link(mut self, src: usize, dst: usize, faults: LinkFaults) -> Self {
        self.links.insert((src, dst), faults);
        self
    }

    /// Fail-stop `node` at virtual time `t`.
    pub fn crash(mut self, node: usize, t: SimTime) -> Self {
        self.nodes.entry(node).or_default().crash_at = Some(t);
        self
    }

    /// Freeze `node` for the window `[from, until)`.
    pub fn freeze(mut self, node: usize, from: SimTime, until: SimTime) -> Self {
        assert!(from < until, "freeze window must be non-empty");
        self.nodes
            .entry(node)
            .or_default()
            .freezes
            .push((from, until));
        self
    }

    /// Partition the node set into `groups` for the window `[from, until)`.
    /// All cross-group traffic in the window is dropped deterministically;
    /// at `until` the network heals. Nodes not listed in any group form one
    /// implicit group of their own, so a single listed group splits it off
    /// from the rest of the cluster. Windows may overlap (a message is
    /// dropped if *any* active window severs the link).
    pub fn partition(mut self, from: SimTime, until: SimTime, groups: Vec<Vec<usize>>) -> Self {
        assert!(from < until, "partition window must be non-empty");
        self.partitions.push(Partition {
            from,
            until,
            groups,
        });
        self
    }

    /// Whether an active partition window severs `src → dst` at time `t`.
    pub fn partitioned(&self, src: usize, dst: usize, t: SimTime) -> bool {
        self.partitions.iter().any(|p| p.severs(src, dst, t))
    }

    /// Effective faults for the directed link `src → dst`.
    pub fn link_faults(&self, src: usize, dst: usize) -> LinkFaults {
        self.links
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.default_link)
    }

    /// Scheduled crashes as `(node, time)` in node order.
    pub fn crashes(&self) -> Vec<(usize, SimTime)> {
        self.nodes
            .iter()
            .filter_map(|(&n, f)| f.crash_at.map(|t| (n, t)))
            .collect()
    }

    /// If `t` falls inside a freeze window of `node`, the time the node
    /// thaws (chained/overlapping windows are walked to a fixed point).
    pub fn thaw_time(&self, node: usize, t: SimTime) -> Option<SimTime> {
        self.nodes.get(&node)?.thaw(t)
    }

    /// `node`'s crash time and freeze windows (none if the plan names no
    /// fault of it).
    pub(crate) fn node_faults(&self, node: usize) -> NodeFaults {
        self.nodes.get(&node).cloned().unwrap_or_default()
    }
}

/// Counters for everything the fault layer did during a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages silently lost by link faults.
    pub msgs_dropped: u64,
    /// Extra copies delivered by duplication faults.
    pub msgs_duplicated: u64,
    /// Messages that suffered extra jitter delay.
    pub msgs_delayed: u64,
    /// Messages dropped because an active partition severed the link.
    pub partition_dropped: u64,
    /// Messages discarded because the destination node had crashed.
    pub deliveries_to_crashed: u64,
    /// Nodes that crashed, in crash order.
    pub crashed_nodes: Vec<usize>,
    /// Events deferred out of freeze windows.
    pub freeze_deferrals: u64,
}

impl FaultStats {
    pub fn any(&self) -> bool {
        self.msgs_dropped > 0
            || self.msgs_duplicated > 0
            || self.msgs_delayed > 0
            || self.partition_dropped > 0
            || self.deliveries_to_crashed > 0
            || !self.crashed_nodes.is_empty()
            || self.freeze_deferrals > 0
    }
}

/// Kernel-side runtime state for a plan: the plan plus its RNG and counters.
pub(crate) struct FaultRuntime {
    pub plan: FaultPlan,
    pub rng: Pcg32,
    pub stats: FaultStats,
}

impl FaultRuntime {
    pub fn new(plan: FaultPlan) -> FaultRuntime {
        let rng = Pcg32::with_stream(plan.seed(), 0xfa017);
        FaultRuntime {
            plan,
            rng,
            stats: FaultStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_overrides_default() {
        let plan = FaultPlan::new(1).drop_all(0.1).link(
            2,
            3,
            LinkFaults {
                drop_p: 0.5,
                ..Default::default()
            },
        );
        assert_eq!(plan.link_faults(0, 1).drop_p, 0.1);
        assert_eq!(plan.link_faults(2, 3).drop_p, 0.5);
    }

    #[test]
    fn thaw_walks_chained_windows() {
        let plan = FaultPlan::new(0)
            .freeze(1, SimTime(100), SimTime(200))
            .freeze(1, SimTime(200), SimTime(300));
        assert_eq!(plan.thaw_time(1, SimTime(150)), Some(SimTime(300)));
        assert_eq!(plan.thaw_time(1, SimTime(300)), None);
        assert_eq!(plan.thaw_time(0, SimTime(150)), None);
    }

    #[test]
    fn crashes_listed() {
        let plan = FaultPlan::new(0)
            .crash(3, SimTime(500))
            .crash(1, SimTime(100));
        assert_eq!(plan.crashes(), vec![(1, SimTime(100)), (3, SimTime(500))]);
    }

    #[test]
    fn partition_severs_cross_group_traffic_in_window_only() {
        // Nodes 3 and 4 split off; everyone else (incl. the unlisted
        // master at node 0) forms the implicit remainder group.
        let plan = FaultPlan::new(0).partition(SimTime(100), SimTime(200), vec![vec![3, 4]]);
        assert!(plan.partitioned(0, 3, SimTime(100)));
        assert!(plan.partitioned(3, 0, SimTime(199)));
        assert!(!plan.partitioned(3, 4, SimTime(150)), "same group");
        assert!(!plan.partitioned(0, 1, SimTime(150)), "same group");
        assert!(!plan.partitioned(0, 3, SimTime(99)), "before the window");
        assert!(!plan.partitioned(0, 3, SimTime(200)), "healed");
        // The explicit two-group spelling is equivalent.
        let plan2 = FaultPlan::new(0).partition(
            SimTime(100),
            SimTime(200),
            vec![vec![0, 1, 2], vec![3, 4]],
        );
        assert!(plan2.partitioned(0, 3, SimTime(150)));
        assert!(!plan2.partitioned(0, 1, SimTime(150)));
    }

    #[test]
    fn overlapping_partitions_compose() {
        let plan = FaultPlan::new(0)
            .partition(SimTime(100), SimTime(200), vec![vec![1, 2], vec![3]])
            .partition(SimTime(150), SimTime(300), vec![vec![1], vec![2]]);
        assert!(plan.partitioned(1, 3, SimTime(120)), "first window");
        assert!(plan.partitioned(1, 2, SimTime(250)), "second window");
        assert!(plan.partitioned(1, 2, SimTime(160)), "both active");
        assert!(
            !plan.partitioned(3, 4, SimTime(250)),
            "first healed; 3 and 4 share the second window's implicit group"
        );
    }

    #[test]
    fn freeze_duration_type_sane() {
        // max_jitter default is zero; quiet plan reports quiet links.
        let plan = FaultPlan::new(9);
        assert!(plan.link_faults(0, 1).is_quiet());
        assert_eq!(plan.link_faults(0, 1).max_jitter, SimDuration::ZERO);
    }
}
