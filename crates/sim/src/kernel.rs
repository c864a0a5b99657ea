//! Deterministic discrete-event kernel.
//!
//! Actors are `async` state machines. The kernel owns the event queue and
//! the virtual clock and runs one step per entry, on one thread: it pops
//! the earliest entry and handles it — a delivery fills a mailbox, a crash
//! retires a node's actor, and a live wake polls its actor, then applies
//! what that poll did before the next pop. So a simulation is a
//! deterministic sequential program: same inputs ⇒ same event order ⇒ same
//! results, regardless of host scheduling.
//!
//! An actor interacts with virtual time through its [`MailCtx`]:
//! [`MailCtx::advance_work`] charges CPU work to the node's quantum
//! scheduler, [`MailCtx::send`]/[`MailCtx::recv`] exchange messages over
//! the simulated network, and [`MailCtx::sleep`] waits for virtual time to
//! pass. A charge is no event: the node's cost model gives its finish, so
//! it only moves the actor's own clock, and the actor runs ahead of the
//! kernel through its own work. Every interaction — a send, a mailbox
//! look, a sleep, returning — *parks* the actor (an actor that is ahead
//! parks first at its own instant) and returns control to the kernel,
//! which advances the virtual clock to the next event. Events pop in
//! `(time, seq)` order: by due time, and those due at one instant in the
//! order the kernel filed them, a park's wake as it applies the poll that
//! parked.
//!
//! A [`crate::fault::FaultPlan`] attached via [`SimBuilder::fault_plan`]
//! injects message drops/duplicates/jitter and node crashes/freezes at
//! deterministic points in the event order; [`SimReport::trace_hash`] folds
//! every processed event into a hash so two runs can be compared for
//! trace equality.

use crate::cpu::{self, NodeConfig};
use crate::fault::{FaultPlan, FaultRuntime, FaultStats, NodeFaults};
use crate::net::{Envelope, NetConfig};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceKind, TRACE_HEADER};
use crate::work::CpuWork;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Identifies an actor within a simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActorId(pub usize);

/// Identifies a node (one CPU + its load model) within a simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

/// Per-actor message counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ActorMetrics {
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub msgs_received: u64,
    pub bytes_received: u64,
}

/// Per-node CPU accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeMetrics {
    /// Local CPU time consumed by the application actor (dedicated micros).
    pub app_cpu: SimDuration,
    /// Portion of `app_cpu` consumed while competing tasks were runnable.
    pub app_cpu_while_loaded: SimDuration,
}

/// Scheduler counters: how the actor scheduler executed the run. Purely
/// observational — none of these feed back into virtual time or the trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedStats {
    /// State-machine polls executed.
    pub polls: u64,
    /// Live wakes dispatched.
    pub wakeups: u64,
    /// Wakes popped whose park epoch had already moved on.
    pub stale_wakes: u64,
    /// Always equal to `polls`: the kernel polls one woken actor per step.
    /// Inert, and kept only because `e2e_bench/` still reads it for
    /// `sim.kernel.batches`; the next benchmark change deletes it.
    pub batches: u64,
    /// Always `min(polls, 1)`. Inert, kept for `e2e_bench/` like
    /// [`batches`](Self::batches).
    pub max_batch: usize,
    /// CPU charges: [`MailCtx::advance_work`] calls and the marshalling a
    /// send or receive charges. Each runs the node's CPU model on the
    /// actor's own clock and is no event.
    pub charges: u64,
    /// Parks of an actor its charges ran ahead of the kernel's clock: a
    /// catch-up at its own instant before it sends, looks at its mailbox or
    /// returns, or a sleep from that instant.
    pub catch_ups: u64,
    /// Always 0: the kernel polls every actor on its own thread. Inert, and
    /// kept only because `e2e_bench/` still reads it for `sim.pool.workers`;
    /// the next benchmark change deletes it with that metric.
    pub pool_workers: usize,
}

/// Everything measured during a run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Virtual time at which the last live actor finished.
    pub end_time: SimTime,
    pub actors: Vec<ActorMetrics>,
    pub nodes: Vec<NodeMetrics>,
    pub node_configs: Vec<NodeConfig>,
    pub events_processed: u64,
    /// What the fault layer did (all zeros when no plan was attached).
    pub fault: FaultStats,
    /// Deliveries to an actor that had already returned: dropped, not
    /// queued, and answered with its [exit reply](MailCtx::exit_reply) if it
    /// left one. Deliveries to a crashed node count in
    /// [`FaultStats::deliveries_to_crashed`] instead.
    pub deliveries_after_exit: u64,
    /// FNV-1a fold over every processed event `(time, kind, actors, bytes)`.
    /// Two runs with identical inputs (and identical fault plan + seed)
    /// produce identical hashes.
    pub trace_hash: u64,
    /// The recorded event trace ([`crate::trace`] format), empty unless
    /// [`SimBuilder::record_trace`] was enabled.
    pub trace: Vec<TraceEvent>,
    /// How the scheduler executed the run (polls, wakes, charges).
    pub sched: SchedStats,
}

impl SimReport {
    /// CPU time consumed by competing tasks on `node` over the whole run —
    /// the simulation's `getrusage` analog. Competing tasks are always
    /// hungry, so they consume every cycle the application does not use
    /// while the node is loaded.
    pub fn competing_cpu(&self, node: NodeId) -> SimDuration {
        let cfg = &self.node_configs[node.0];
        let loaded = cfg.load.loaded_integral(SimTime::ZERO, self.end_time);
        loaded.saturating_sub(self.nodes[node.0].app_cpu_while_loaded)
    }

    /// Available CPU time on `node` per the paper's efficiency formula:
    /// elapsed time minus CPU time spent on competing tasks.
    pub fn available_cpu(&self, node: NodeId) -> SimDuration {
        (self.end_time - SimTime::ZERO).saturating_sub(self.competing_cpu(node))
    }
}

/// The entries of the event queue that are not wakes: a delivery or a
/// crash fault. One waits in a slot of `Inner::pending`, which its [`Key`]
/// names, so the queue sifts 24-byte keys and never moves a message.
enum EventKind<M> {
    Deliver { dst: ActorId, env: Envelope<M> },
    Crash { node: NodeId },
}

/// One entry of the event queue. The derived order is `(time, seq)`: due
/// time, then the global sequence number drawn when the entry was filed,
/// which no two entries share. Entries due at one instant pop in filing
/// order. Every entry is filed by the kernel — a delivery as its
/// send is applied, a wake as the poll that parks for it is applied (a
/// catch-up and a sleep taken while ahead included), a deferred entry as a
/// freeze moves it — so that order is the event order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: SimTime,
    seq: u64,
    /// Below the actor count, the actor a wake is for; from it on, the
    /// actor count plus the `Inner::pending` slot of a delivery or crash.
    what: u32,
    /// A wake's park epoch, which must still be current for the wake to be
    /// live when it pops (0 for a slot).
    epoch: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ActorState {
    /// Parked, waiting for a Wake with the matching epoch (which wraps: a
    /// wake goes stale long before `u32::MAX` later parks).
    Waiting {
        epoch: u32,
        wake_on_msg: bool,
    },
    Done,
    /// The node fail-stopped; the actor never runs again.
    Crashed,
}

/// Message tagger for traced sends/deliveries: maps a message to the
/// stable tag rendered after the fixed `EV` fields (None = untagged).
type TagFn<M> = Box<dyn Fn(&M) -> Option<String>>;

/// Event narration: echo to stderr (`DLB_TRACE_EVENTS`), record into the
/// report ([`SimBuilder::record_trace`]), or both. Inactive = zero cost.
struct Tracer<M> {
    tag: Option<TagFn<M>>,
    echo: bool,
    record: bool,
    events: Vec<TraceEvent>,
    /// Notes made by actors that ran ahead, keyed by `(instant, order
    /// made)`: each enters the trace once the clock reaches its instant.
    ahead: BinaryHeap<Reverse<(SimTime, u64, usize, String)>>,
    notes: u64,
}

impl<M> Tracer<M> {
    fn active(&self) -> bool {
        self.echo || self.record
    }

    fn tag_of(&self, msg: &M) -> Option<String> {
        self.tag.as_ref().and_then(|f| f(msg))
    }

    fn emit(&mut self, time: SimTime, kind: TraceKind) {
        let ev = TraceEvent { time, kind };
        if self.echo {
            eprintln!("{}", ev.render());
        }
        if self.record {
            self.events.push(ev);
        }
    }

    /// Trace `actor`'s note made at its instant `at`: now if the clock
    /// `now` has reached it, else once it does.
    fn note(&mut self, now: SimTime, at: SimTime, actor: usize, text: String) {
        if at <= now {
            self.emit(at, TraceKind::Note { actor, text });
        } else {
            self.notes += 1;
            self.ahead.push(Reverse((at, self.notes, actor, text)));
        }
    }

    /// Trace the notes made ahead at instants before `t`.
    #[inline]
    fn notes_before(&mut self, t: SimTime) {
        while self.ahead.peek().is_some_and(|Reverse(n)| n.0 < t) {
            let Reverse((at, _, actor, text)) = self.ahead.pop().expect("peeked");
            self.emit(at, TraceKind::Note { actor, text });
        }
    }
}

struct Inner<M> {
    now: SimTime,
    seq: u64,
    /// The event queue: every wake (park, sleep, deadline, catch-up),
    /// delivery and crash fault, earliest `(time, seq)` first.
    queue: BinaryHeap<Reverse<Key>>,
    /// The deliveries and crashes the queue's keys name by slot, and the
    /// slots that popped, for the next ones filed.
    pending: Vec<Option<EventKind<M>>>,
    free: Vec<usize>,
    states: Vec<ActorState>,
    epochs: Vec<u32>,
    nodes: Vec<NodeConfig>,
    net: NetConfig,
    /// Per-sender time at which its outgoing link becomes free.
    link_free: Vec<SimTime>,
    /// Per ordered (src,dst) pair: latest arrival so far, for FIFO delivery.
    last_arrival: Vec<SimTime>,
    /// Node each actor runs on.
    actor_nodes: Vec<NodeId>,
    /// Actor on each node (if any).
    node_actor: Vec<Option<ActorId>>,
    /// Nodes that have fail-stopped.
    crashed_nodes: Vec<bool>,
    /// What each actor answers, once `Done`, to a message from a live
    /// sender ([`MailCtx::exit_reply`]): the message and its wire size.
    exit_replies: Vec<Option<(M, u64)>>,
    /// [`SimReport::deliveries_after_exit`].
    deliveries_after_exit: u64,
    actor_metrics: Vec<ActorMetrics>,
    events_processed: u64,
    max_events: u64,
    fault: Option<FaultRuntime>,
    trace_hash: u64,
    tracer: Tracer<M>,
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

impl<M> Inner<M> {
    /// File an entry due at `time` under the next global sequence number,
    /// so entries due at one instant pop in the order they were filed.
    fn file(&mut self, time: SimTime, what: u32, epoch: u32) {
        debug_assert!(time >= self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Key {
            time,
            seq,
            what,
            epoch,
        }));
    }

    /// File a delivery or crash into a free slot of `pending`.
    fn push_event(&mut self, time: SimTime, kind: EventKind<M>) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.pending[slot] = Some(kind);
                slot
            }
            None => {
                self.pending.push(Some(kind));
                self.pending.len() - 1
            }
        };
        let what =
            u32::try_from(self.states.len() + slot).expect("a key names its slot in 32 bits");
        self.file(time, what, 0);
    }

    /// Schedule a `Wake` for `actor` at `time`.
    fn schedule_wake(&mut self, time: SimTime, actor: ActorId, epoch: u32) {
        self.file(time, actor.0 as u32, epoch);
    }

    /// The `pending` slot `key` names, or `None` for a wake.
    fn slot(&self, key: Key) -> Option<usize> {
        (key.what as usize).checked_sub(self.states.len())
    }

    /// The thaw a wake or delivery is deferred to, if a freeze window holds
    /// its node at its due time. Only a fault plan looks in the slab.
    fn thaw(&self, key: Key, slot: Option<usize>) -> Option<SimTime> {
        let f = self.fault.as_ref()?;
        let actor = match slot {
            None => key.what as usize,
            Some(s) => match self.pending[s].as_ref()? {
                EventKind::Deliver { dst, .. } => dst.0,
                EventKind::Crash { .. } => return None,
            },
        };
        f.plan.thaw_time(self.actor_nodes[actor].0, key.time)
    }

    /// Event-processing bookkeeping shared by every pop: count it against
    /// the budget, advance the clock.
    fn meta_common(&mut self, time: SimTime) {
        self.events_processed += 1;
        assert!(
            self.events_processed <= self.max_events,
            "event budget exhausted ({} events): probable livelock",
            self.max_events
        );
        debug_assert!(time >= self.now, "time went backwards");
        self.now = self.now.max(time);
        self.tracer.notes_before(time);
    }

    fn process_wake_meta(&mut self, time: SimTime, actor: ActorId) {
        self.meta_common(time);
        self.hash_mix(time.0);
        self.hash_mix(1);
        self.hash_mix(actor.0 as u64);
        if self.tracer.active() {
            self.tracer.emit(time, TraceKind::Wake { actor: actor.0 });
        }
    }

    fn process_event_meta(&mut self, time: SimTime, kind: &EventKind<M>) {
        self.meta_common(time);
        self.hash_event(time, kind);
        if self.tracer.active() {
            let kind = match kind {
                EventKind::Deliver { dst, env } => TraceKind::Deliver {
                    src: env.src,
                    dst: dst.0,
                    bytes: env.bytes,
                    tag: self.tracer.tag_of(&env.msg),
                },
                EventKind::Crash { node } => TraceKind::Crash { node: node.0 },
            };
            self.tracer.emit(time, kind);
        }
    }

    fn pair_index(&self, src: ActorId, dst: ActorId) -> usize {
        src.0 * self.states.len() + dst.0
    }

    fn hash_mix(&mut self, v: u64) {
        self.trace_hash ^= v;
        self.trace_hash = self.trace_hash.wrapping_mul(FNV_PRIME);
    }

    fn hash_event(&mut self, time: SimTime, kind: &EventKind<M>) {
        self.hash_mix(time.0);
        match kind {
            EventKind::Deliver { dst, env } => {
                self.hash_mix(2);
                self.hash_mix(dst.0 as u64);
                self.hash_mix(env.src as u64);
                self.hash_mix(env.bytes);
            }
            EventKind::Crash { node } => {
                self.hash_mix(3);
                self.hash_mix(node.0 as u64);
            }
        }
    }
}

impl<M: Clone> Inner<M> {
    /// Hand a message (post-marshalling) to the network: link occupancy,
    /// fault draws, FIFO clamp, delivery scheduling. Called only while
    /// applying a poll's buffered sends or answering with an exit reply,
    /// both in event order, so the fault RNG is drawn in event order.
    fn enqueue_send(&mut self, src: ActorId, dst: ActorId, msg: M, bytes: u64) {
        let now = self.now;
        let start = now.max(self.link_free[src.0]);
        let xfer = self.net.transfer_time(bytes);
        self.link_free[src.0] = start + xfer;
        self.actor_metrics[src.0].msgs_sent += 1;
        self.actor_metrics[src.0].bytes_sent += bytes;

        // Trace the send before any fault draw: a dropped message still
        // shows its send, which is what trace-conformance replay needs to
        // see the sender's protocol action.
        if self.tracer.active() {
            let tag = self.tracer.tag_of(&msg);
            self.tracer.emit(
                now,
                TraceKind::Send {
                    src: src.0,
                    dst: dst.0,
                    bytes,
                    tag,
                },
            );
        }

        // Fault draws happen per send in event order, so the RNG stream is
        // a deterministic function of the message sequence.
        let mut extra = SimDuration::ZERO;
        let mut duplicate = false;
        let src_node = self.actor_nodes[src.0].0;
        let dst_node = self.actor_nodes[dst.0].0;
        if let Some(f) = self.fault.as_mut() {
            // Partition check first, and with no RNG draw: a severed link is
            // deterministic, so adding or removing a partition window does
            // not perturb the fault RNG stream of unrelated links.
            if f.plan.partitioned(src_node, dst_node, now) {
                f.stats.partition_dropped += 1;
                return;
            }
            let lf = f.plan.link_faults(src_node, dst_node);
            if !lf.is_quiet() {
                if f.rng.chance(lf.drop_p) {
                    // Lost in the network: the sender paid CPU and link time
                    // but no delivery is scheduled.
                    f.stats.msgs_dropped += 1;
                    return;
                }
                if lf.jitter_p > 0.0 && f.rng.chance(lf.jitter_p) {
                    extra = SimDuration(f.rng.gen_range(0, lf.max_jitter.0.max(1) + 1));
                    f.stats.msgs_delayed += 1;
                }
                if f.rng.chance(lf.dup_p) {
                    duplicate = true;
                    f.stats.msgs_duplicated += 1;
                }
            }
        }

        // Jitter is applied *before* the FIFO clamp: a delayed message holds
        // up everything behind it instead of being overtaken.
        let mut arrival = start + xfer + self.net.latency + extra;
        let pair = self.pair_index(src, dst);
        arrival = arrival.max(self.last_arrival[pair]);
        self.last_arrival[pair] = arrival;
        let copy = duplicate.then(|| msg.clone());
        let src = src.0;
        let env = Envelope { src, msg, bytes };
        self.push_event(arrival, EventKind::Deliver { dst, env });
        if let Some(msg) = copy {
            let dup_arrival = arrival + SimDuration(1);
            self.last_arrival[pair] = dup_arrival;
            let env = Envelope { src, msg, bytes };
            self.push_event(dup_arrival, EventKind::Deliver { dst, env });
        }
    }
}

// ---------------------------------------------------------------------------
// Mailbox actors: resumable state machines, not OS threads.
//
// An actor is an `async fn` driven by the kernel as a compiler-built state
// machine. It keeps its own clock (`ActorCell::now`): a CPU charge runs the
// node's cost model on that clock and moves it to the charge's finish without
// parking, so the actor runs ahead of the kernel through its own work. It
// parks only to interact — the send handoff, any mailbox look, a sleep, or
// returning — and an actor that is ahead first parks once more, at its own
// instant (a catch-up). Every park is one wake event and one seq draw, drawn
// as the kernel applies the poll, so an actor body determines its
// `(time, seq)` event stream — and therefore the trace hash — exactly.
//
// Ownership rule: one thread runs the whole simulation. The kernel owns
// `Inner` (clock, queue, metrics, fault RNG) as a plain value; during a poll
// an actor touches only its own `ActorCell`. All globally-ordered side
// effects — network sends, metrics — are buffered as `LocalEffect`s, and the
// park itself is left in the cell; the kernel applies them right after the
// poll, before it pops the next entry. A poll and the kernel never run at
// once, so the cell is split only by who writes what, when:
//
//   field       kernel, actor parked              actor, being polled
//   ----------  --------------------------------  ----------------------------
//   constants   -                                 reads
//   `now`       sets the poll's instant           reads; a charge sets its
//               before each poll                  finish
//   `ahead`     -                                 a charge sets it, a catch-up
//                                                 clears it
//   `tallies`   sums them once the run ends       adds per charge or catch-up
//   `park`      takes it after the poll           sets it
//   mailbox     push on deliver, clear on crash   scan + remove
//   effects     drain after the poll              push
// ---------------------------------------------------------------------------

/// A side effect buffered during a poll, applied by the kernel right after
/// it. Buffer order within one poll is program order.
enum LocalEffect<M> {
    /// Network handoff of an already-marshalled message.
    Send { dst: ActorId, msg: M, bytes: u64 },
    /// A message was taken from the mailbox (receive metrics).
    Recv { bytes: u64 },
    /// Narration for the trace ([`MailCtx::note`]) at the actor's instant
    /// `at`; buffered only while tracing is on. One made while the actor
    /// ran ahead enters the trace once the kernel's clock reaches `at`.
    Note { at: SimTime, text: String },
    /// What to answer once the actor has returned ([`MailCtx::exit_reply`]).
    ExitReply { msg: M, bytes: u64 },
}

/// How the actor wants to be resumed after this poll.
#[derive(Clone, Copy)]
struct ParkReq {
    wake_on_msg: bool,
    wake_at: Option<SimTime>,
}

/// What an actor's charges and catch-ups add up to ([`NodeMetrics`],
/// [`SchedStats::charges`], [`SchedStats::catch_ups`],
/// [`FaultStats::freeze_deferrals`]), summed by the kernel at the end.
#[derive(Clone, Copy, Default)]
struct Tallies {
    cpu: NodeMetrics,
    charges: u64,
    catch_ups: u64,
    freeze_deferrals: u64,
}

/// One actor's side of the kernel, shared between its `MailCtx` and the
/// kernel: what never changes after spawn, the clock, tallies and park a
/// poll leaves, and the [`ActorLocal`] the two hand each other.
struct ActorCell<M> {
    id: ActorId,
    node: NodeId,
    n_actors: usize,
    node_cfg: NodeConfig,
    /// The node's crash time and freeze windows, which a charge's finish
    /// and its accounting answer to.
    faults: NodeFaults,
    net: NetConfig,
    /// Whether the run is traced, so [`MailCtx::note`] buffers its text.
    traced: bool,
    /// The run's event budget, which also bounds this actor's charges: a
    /// CPU-only loop makes no event.
    max_events: u64,
    /// The actor's own clock: the instant it was polled at, moved on by the
    /// charges it has made since.
    now: Cell<SimTime>,
    /// Whether charges have run the actor's clock ahead of the kernel's
    /// since it was polled or last caught up.
    ahead: Cell<bool>,
    tallies: Cell<Tallies>,
    /// The park this poll requested, which the kernel takes after the poll.
    park: Cell<Option<ParkReq>>,
    local: RefCell<ActorLocal<M>>,
}

/// What the two sides hand each other: the kernel fills `mailbox` while the
/// actor is parked and empties `effects` after its poll; the actor does the
/// reverse while being polled.
struct ActorLocal<M> {
    mailbox: VecDeque<Envelope<M>>,
    effects: Vec<LocalEffect<M>>,
}

/// The one-poll park primitive: the first poll returns `Pending`; the kernel
/// applies the recorded request (epoch bump + wake schedule) and re-polls on
/// wake, where it completes. Built `parked`, it completes at once.
struct ParkOnce {
    parked: bool,
}

impl Future for ParkOnce {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.parked {
            return Poll::Ready(());
        }
        self.parked = true;
        Poll::Pending
    }
}

/// Handle an actor uses to interact with the simulation. Await only
/// futures returned by this context — foreign futures have no way to park
/// in virtual time, and the kernel treats a `Pending` without a park request
/// as a bug.
pub struct MailCtx<M: Clone + 'static> {
    cell: Rc<ActorCell<M>>,
}

impl<M: Clone + 'static> Clone for MailCtx<M> {
    fn clone(&self) -> Self {
        MailCtx {
            cell: Rc::clone(&self.cell),
        }
    }
}

impl<M: Clone + 'static> MailCtx<M> {
    /// Buffer `effect` for the kernel to apply after this poll.
    fn buffer(&self, effect: LocalEffect<M>) {
        self.cell.local.borrow_mut().effects.push(effect);
    }

    /// This actor's id (assigned in spawn order, starting at 0).
    pub fn id(&self) -> ActorId {
        self.cell.id
    }

    /// The node this actor runs on.
    pub fn node(&self) -> NodeId {
        self.cell.node
    }

    /// This actor's virtual time: the instant it was resumed at, plus the
    /// CPU it has charged since ([`advance_work`](Self::advance_work)).
    pub fn now(&self) -> SimTime {
        self.cell.now.get()
    }

    /// What this actor's charges cost, read-only: its node, whose CPU model
    /// [`cpu::advance`] turns [`advance_work`](Self::advance_work) into a
    /// finish time, and its net, whose [`NetConfig::send_cpu`] is what
    /// [`send`](Self::send) charges. An actor that buffers its effects keeps
    /// its own clock with them; only a freeze over a finish, which moves
    /// this actor's clock to the thaw, is beyond what those two can say.
    pub fn costs(&self) -> (&NodeConfig, &NetConfig) {
        (&self.cell.node_cfg, &self.cell.net)
    }

    /// Whether the run is traced, i.e. whether [`note`](Self::note) keeps
    /// its text.
    pub fn traced(&self) -> bool {
        self.cell.traced
    }

    /// Record how this poll wants to be resumed and return the future that
    /// hands control back.
    fn park(&self, wake_on_msg: bool, wake_at: Option<SimTime>) -> ParkOnce {
        let earlier = self.cell.park.replace(Some(ParkReq {
            wake_on_msg,
            wake_at,
        }));
        debug_assert!(earlier.is_none(), "double park in one poll");
        ParkOnce { parked: false }
    }

    /// Whether charges have run this actor ahead of the kernel's clock; if
    /// so, marks it caught up and counts a catch-up, for the caller is about
    /// to park at (or from) the actor's own instant.
    fn leave_ahead(&self) -> bool {
        let cell = &*self.cell;
        let ahead = cell.ahead.replace(false);
        if ahead {
            let mut t = cell.tallies.get();
            t.catch_ups += 1;
            cell.tallies.set(t);
        }
        ahead
    }

    /// If a charge has run this actor ahead of the kernel's clock, park
    /// until the kernel reaches the actor's: one wake at its own instant,
    /// filed as the kernel applies this poll. An actor that is not ahead
    /// gets a future that is ready at once.
    fn catch_up(&self) -> ParkOnce {
        if self.leave_ahead() {
            self.park(false, Some(self.now()))
        } else {
            ParkOnce { parked: true }
        }
    }

    /// Take the first queued message matching `pred`. A look, so the caller
    /// has caught up.
    fn take(&self, pred: &mut dyn FnMut(&M) -> bool) -> Option<Envelope<M>> {
        debug_assert!(!self.cell.ahead.get(), "a mailbox look catches up first");
        let mut local = self.cell.local.borrow_mut();
        let idx = local.mailbox.iter().position(|env| pred(&env.msg))?;
        let env = local.mailbox.remove(idx).expect("index valid");
        local.effects.push(LocalEffect::Recv { bytes: env.bytes });
        Some(env)
    }

    /// Narrate a decision into the event trace as `NOTE <actor> <text>` at
    /// this actor's [`now`](Self::now), in program order among its sends.
    /// A note is not an interaction: it parks nowhere, and one made while
    /// the actor is ahead enters the trace once the kernel's clock reaches
    /// its instant. `text` runs only while the run is traced; otherwise a
    /// note costs one flag load. The text is one line: the trace format
    /// ends a record at a newline.
    pub fn note(&self, text: impl FnOnce() -> String) {
        if self.cell.traced {
            let text = text();
            debug_assert!(!text.contains('\n'), "a note is one line: {text:?}");
            let at = self.now();
            self.buffer(LocalEffect::Note { at, text });
        }
    }

    /// Leave `msg` (`bytes` on the wire) as this actor's answer after it
    /// returns, the way a host answers for an exited process (a TCP reset,
    /// PVM's task-exit notice): every later delivery from a sender that has
    /// neither returned nor crashed is answered with one `msg`, sent from
    /// this actor's node like any other send — link latency, partitions and
    /// fault draws included. A crashed node answers nothing, and neither does
    /// an actor that left no reply. A second call replaces the first.
    pub fn exit_reply(&self, msg: M, bytes: u64) {
        self.buffer(LocalEffect::ExitReply { msg, bytes });
    }

    /// Consume `work` of CPU on this actor's node: the node's CPU model
    /// ([`cpu::advance`] — speed, quantum, competing load) gives the
    /// finish, a freeze window over the finish moves it to the thaw, and
    /// this actor's clock goes there. Nothing parks: the actor runs ahead
    /// of the kernel's clock until its next interaction, where it catches
    /// up. A charge that starts at or after the node's crash — the kernel
    /// would never have resumed the actor to make it — is not counted in
    /// the node's CPU time, unless it is the first since the actor was
    /// resumed.
    pub async fn advance_work(&self, work: CpuWork) {
        if work.is_zero() {
            return;
        }
        let cell = &*self.cell;
        let mut t = cell.tallies.get();
        t.charges += 1;
        assert!(
            t.charges <= cell.max_events,
            "event budget exhausted ({} events): probable livelock",
            cell.max_events
        );
        let start = self.now();
        let adv = cpu::advance(&cell.node_cfg, start, work);
        let thaw = cell.faults.thaw(adv.finish);
        let first = !cell.ahead.replace(true);
        if first || cell.faults.crash_at.is_none_or(|c| start < c) {
            t.cpu.app_cpu += adv.dedicated;
            t.cpu.app_cpu_while_loaded += adv.cpu_while_loaded;
            t.freeze_deferrals += thaw.is_some() as u64;
        }
        cell.tallies.set(t);
        cell.now.set(thaw.unwrap_or(adv.finish));
    }

    /// Wait for `d` of virtual time to pass without consuming CPU. The one
    /// park serves as a catch-up too: an actor that is ahead wakes `d` after
    /// its own instant.
    pub async fn sleep(&self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        self.leave_ahead();
        self.park(false, Some(self.now() + d)).await;
    }

    /// Send `msg` (`bytes` on the wire) to `dst`: charge marshalling CPU,
    /// catch up, then buffer the network handoff for the kernel to apply in
    /// order.
    pub async fn send(&self, dst: ActorId, msg: M, bytes: u64) {
        assert!(dst.0 < self.cell.n_actors, "send to unknown actor");
        self.advance_work(self.cell.net.send_cpu(bytes)).await;
        self.catch_up().await;
        self.buffer(LocalEffect::Send { dst, msg, bytes });
    }

    async fn charge_recv(&self) {
        self.advance_work(self.cell.net.recv_cpu_per_msg).await;
    }

    /// Receive the next message (FIFO per sender), blocking in virtual time.
    pub async fn recv(&self) -> Envelope<M> {
        self.recv_match(|_| true).await
    }

    /// Receive the first queued message matching `pred`, blocking until one
    /// arrives.
    pub async fn recv_match(&self, mut pred: impl FnMut(&M) -> bool) -> Envelope<M> {
        loop {
            self.catch_up().await;
            if let Some(env) = self.take(&mut pred) {
                self.charge_recv().await;
                return env;
            }
            self.park(true, None).await;
        }
    }

    /// Non-blocking receive of the first queued message matching `pred`.
    pub async fn try_recv_match(&self, mut pred: impl FnMut(&M) -> bool) -> Option<Envelope<M>> {
        self.catch_up().await;
        let got = self.take(&mut pred);
        if got.is_some() {
            self.charge_recv().await;
        }
        got
    }

    /// Non-blocking receive.
    pub async fn try_recv(&self) -> Option<Envelope<M>> {
        self.try_recv_match(|_| true).await
    }

    /// Receive a message matching `pred`, or return `None` once virtual time
    /// reaches `deadline`.
    pub async fn recv_match_deadline(
        &self,
        mut pred: impl FnMut(&M) -> bool,
        deadline: SimTime,
    ) -> Option<Envelope<M>> {
        loop {
            self.catch_up().await;
            if let Some(env) = self.take(&mut pred) {
                self.charge_recv().await;
                return Some(env);
            }
            if self.now() >= deadline {
                return None;
            }
            self.park(true, Some(deadline)).await;
        }
    }

    /// Receive any message or time out at `deadline`.
    pub async fn recv_deadline(&self, deadline: SimTime) -> Option<Envelope<M>> {
        self.recv_match_deadline(|_| true, deadline).await
    }
}

/// An actor's state machine, polled by the kernel.
type ActorFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Eagerly-constructed actor body: called once at spawn time to
/// build the state machine (an `async fn` body runs no user code until its
/// first poll, which the kernel issues at the t = 0 seed wake).
type MailFn<M> = Box<dyn FnOnce(MailCtx<M>) -> ActorFuture>;

/// Builder for a simulation: declare nodes, spawn actors, then [`SimBuilder::run`].
pub struct SimBuilder<M: Clone + 'static> {
    nodes: Vec<NodeConfig>,
    net: NetConfig,
    actors: Vec<(NodeId, String, MailFn<M>)>,
    node_used: Vec<bool>,
    max_events: u64,
    fault: Option<FaultPlan>,
    tag: Option<TagFn<M>>,
    record_trace: bool,
}

impl<M: Clone + 'static> Default for SimBuilder<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Clone + 'static> SimBuilder<M> {
    pub fn new() -> Self {
        SimBuilder {
            nodes: Vec::new(),
            net: NetConfig::default(),
            actors: Vec::new(),
            node_used: Vec::new(),
            max_events: 200_000_000,
            fault: None,
            tag: None,
            record_trace: false,
        }
    }

    /// Set the network model (default: [`NetConfig::default`]).
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Safety valve against runaway simulations (default 2·10⁸ events).
    pub fn max_events(mut self, n: u64) -> Self {
        self.max_events = n;
        self
    }

    /// Attach a deterministic fault plan.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Install a message tagger for the event trace: traced `SEND`/`DELIVER`
    /// lines carry `f(msg)` as their tag (None = untagged). Only consulted
    /// while tracing is active.
    pub fn trace_tag(mut self, f: impl Fn(&M) -> Option<String> + 'static) -> Self {
        self.tag = Some(Box::new(f));
        self
    }

    /// Record the event trace — the actors' [notes](MailCtx::note) among
    /// its events — into [`SimReport::trace`] (default off). The
    /// `DLB_TRACE_EVENTS` env var independently echoes the same lines to
    /// stderr, each run under its own header.
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self, cfg: NodeConfig) -> NodeId {
        self.nodes.push(cfg);
        self.node_used.push(false);
        NodeId(self.nodes.len() - 1)
    }

    fn claim_node(&mut self, node: NodeId) {
        assert!(node.0 < self.nodes.len(), "unknown node");
        assert!(
            !self.node_used[node.0],
            "node {} already has an actor; the CPU model supports one application process per node",
            node.0
        );
        self.node_used[node.0] = true;
    }

    /// Spawn an actor on `node`: an async state machine the kernel polls.
    /// Exactly one actor may run per node: the CPU model charges all of a
    /// node's application CPU to a single process.
    pub fn spawn_mail<F, Fut>(&mut self, node: NodeId, name: impl Into<String>, f: F) -> ActorId
    where
        F: FnOnce(MailCtx<M>) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        self.claim_node(node);
        let body: MailFn<M> = Box::new(move |ctx| {
            Box::pin(async move {
                f(ctx.clone()).await;
                // Returning is an interaction: an actor its charges ran
                // ahead ends at its own clock.
                ctx.catch_up().await;
            })
        });
        self.actors.push((node, name.into(), body));
        ActorId(self.actors.len() - 1)
    }

    /// Run the simulation to completion and return its report.
    ///
    /// Panics if an actor panics (the panic unwinds straight out of `run`),
    /// if the simulation deadlocks (all actors blocked with no pending
    /// events), or if the event budget is exhausted. Crashed nodes do not
    /// count as deadlocked or panicked: their actors are dropped quietly.
    pub fn run(self) -> SimReport {
        let n_actors = self.actors.len();
        assert!(n_actors > 0, "no actors spawned");
        assert!(
            n_actors <= u32::MAX as usize,
            "a wake names its actor in 32 bits"
        );
        let n_nodes = self.nodes.len();
        let actor_nodes: Vec<NodeId> = self.actors.iter().map(|(n, _, _)| *n).collect();
        let mut node_actor: Vec<Option<ActorId>> = vec![None; n_nodes];
        for (i, n) in actor_nodes.iter().enumerate() {
            node_actor[n.0] = Some(ActorId(i));
        }

        let tracer = Tracer {
            tag: self.tag,
            echo: std::env::var_os("DLB_TRACE_EVENTS").is_some(),
            record: self.record_trace,
            events: Vec::new(),
            ahead: BinaryHeap::new(),
            notes: 0,
        };
        let mut names: Vec<String> = Vec::with_capacity(n_actors);
        let mut futures: Vec<Option<ActorFuture>> = Vec::with_capacity(n_actors);
        let mut cells: Vec<Rc<ActorCell<M>>> = Vec::with_capacity(n_actors);
        for (i, (node, name, f)) in self.actors.into_iter().enumerate() {
            let cell = Rc::new(ActorCell {
                id: ActorId(i),
                node,
                n_actors,
                node_cfg: self.nodes[node.0].clone(),
                faults: self
                    .fault
                    .as_ref()
                    .map(|plan| plan.node_faults(node.0))
                    .unwrap_or_default(),
                net: self.net.clone(),
                traced: tracer.active(),
                max_events: self.max_events,
                now: Cell::new(SimTime::ZERO),
                ahead: Cell::new(false),
                tallies: Cell::default(),
                park: Cell::new(None),
                local: RefCell::new(ActorLocal {
                    mailbox: VecDeque::new(),
                    effects: Vec::new(),
                }),
            });
            // Building the future runs no user code (async bodies are
            // inert until polled); the t = 0 seed wake issues the first
            // poll.
            futures.push(Some(f(MailCtx {
                cell: Rc::clone(&cell),
            })));
            cells.push(cell);
            names.push(name);
        }

        // Actors reach it only through the effects they buffer in their
        // `ActorLocal`.
        let mut inner = Inner {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            pending: Vec::new(),
            free: Vec::new(),
            states: vec![
                ActorState::Waiting {
                    epoch: 0,
                    wake_on_msg: false
                };
                n_actors
            ],
            epochs: vec![0; n_actors],
            nodes: self.nodes,
            net: self.net,
            link_free: vec![SimTime::ZERO; n_actors],
            last_arrival: vec![SimTime::ZERO; n_actors * n_actors],
            actor_nodes,
            node_actor,
            crashed_nodes: vec![false; n_nodes],
            exit_replies: vec![None; n_actors],
            deliveries_after_exit: 0,
            actor_metrics: vec![ActorMetrics::default(); n_actors],
            events_processed: 0,
            max_events: self.max_events,
            fault: self.fault.map(FaultRuntime::new),
            trace_hash: FNV_OFFSET,
            tracer,
        };
        // The echo opens each run with its own header, so a process that
        // runs the kernel more than once leaves a capture of whole runs.
        if inner.tracer.echo {
            eprintln!("{TRACE_HEADER}");
        }
        // Seed: wake every actor at t = 0, in spawn order.
        for i in 0..n_actors {
            inner.schedule_wake(SimTime::ZERO, ActorId(i), 0);
        }
        // Schedule fail-stops.
        if let Some(f) = &inner.fault {
            let crashes = f.plan.crashes();
            for (node, t) in crashes {
                assert!(node < n_nodes, "fault plan crashes unknown node {node}");
                inner.push_event(t, EventKind::Crash { node: NodeId(node) });
            }
        }

        // The kernel never relies on `Waker`: wake-ups travel through
        // virtual-time events, so the waker handed to polls is inert.
        let mut cx = Context::from_waker(Waker::noop());
        let mut sched = SchedStats::default();

        // Actors neither `Done` nor `Crashed`.
        let mut live = n_actors;

        // Kernel loop, one step per entry: pop the earliest key and handle
        // it. Once every actor has finished (or crashed), stop without
        // draining stale events (e.g. deadline wakes scheduled past the end
        // of the run) so they cannot inflate `end_time`.
        while live > 0 {
            let Some(Reverse(key)) = inner.queue.pop() else {
                // Nothing pending with actors still blocked: a deadlock.
                let stuck: Vec<String> = inner
                    .states
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !matches!(s, ActorState::Done | ActorState::Crashed))
                    .map(|(i, s)| format!("{} ({:?})", names[i], s))
                    .collect();
                panic!(
                    "simulation deadlock at {}: no events pending but actors blocked: {}",
                    inner.now,
                    stuck.join(", ")
                );
            };
            let slot = inner.slot(key);
            // Freeze windows: a wake or delivery for a frozen node is
            // re-filed under its own key at the thaw, preserving order.
            if let Some(t) = inner.thaw(key, slot) {
                if let Some(f) = inner.fault.as_mut() {
                    f.stats.freeze_deferrals += 1;
                }
                inner.file(t, key.what, key.epoch);
                continue;
            }
            let Some(slot) = slot else {
                let a = key.what as usize;
                inner.process_wake_meta(key.time, ActorId(a));
                if !matches!(
                    inner.states[a],
                    ActorState::Waiting { epoch, .. } if epoch == key.epoch
                ) {
                    // Superseded park epoch (or finished or crashed actor):
                    // counted and hashed like any wake, no state touched.
                    sched.stale_wakes += 1;
                    continue;
                }
                sched.wakeups += 1;
                sched.polls += 1;

                // Poll the actor and apply what it buffered right after. An
                // actor panic unwinds from here straight out of `run`.
                cells[a].now.set(key.time);
                let future = futures[a].as_mut().expect("a waiting actor has its future");
                let ready = future.as_mut().poll(&mut cx).is_ready();
                let now = inner.now;
                inner.tracer.notes_before(SimTime(now.0 + 1));
                for eff in cells[a].local.borrow_mut().effects.drain(..) {
                    match eff {
                        LocalEffect::Send { dst, msg, bytes } => {
                            inner.enqueue_send(ActorId(a), dst, msg, bytes);
                        }
                        LocalEffect::Recv { bytes } => {
                            inner.actor_metrics[a].msgs_received += 1;
                            inner.actor_metrics[a].bytes_received += bytes;
                        }
                        LocalEffect::Note { at, text } => inner.tracer.note(now, at, a, text),
                        LocalEffect::ExitReply { msg, bytes } => {
                            inner.exit_replies[a] = Some((msg, bytes));
                        }
                    }
                }
                if ready {
                    inner.states[a] = ActorState::Done;
                    live -= 1;
                    // The state machine drops here.
                    futures[a] = None;
                    continue;
                }
                let park = cells[a].park.take().expect(
                    "actor returned Pending without parking: \
                     only dlb-sim futures may be awaited",
                );
                inner.epochs[a] = inner.epochs[a].wrapping_add(1);
                let epoch = inner.epochs[a];
                inner.states[a] = ActorState::Waiting {
                    epoch,
                    wake_on_msg: park.wake_on_msg,
                };
                if let Some(t) = park.wake_at {
                    inner.schedule_wake(t, ActorId(a), epoch);
                }
                continue;
            };
            let kind = inner.pending[slot].take().expect("a filed slot is full");
            inner.free.push(slot);
            inner.process_event_meta(key.time, &kind);
            match kind {
                EventKind::Deliver { dst, env } => {
                    if inner.crashed_nodes[inner.actor_nodes[dst.0].0] {
                        if let Some(f) = inner.fault.as_mut() {
                            f.stats.deliveries_to_crashed += 1;
                        }
                        continue;
                    }
                    if inner.states[dst.0] == ActorState::Done {
                        // Nobody reads this mailbox again. A finished sender
                        // gets no answer, so two finished actors that both
                        // left replies cannot ping-pong.
                        inner.deliveries_after_exit += 1;
                        let src_live = !matches!(
                            inner.states[env.src],
                            ActorState::Done | ActorState::Crashed
                        );
                        let reply = inner.exit_replies[dst.0].as_ref();
                        if let Some((reply, bytes)) = reply.filter(|_| src_live) {
                            let (reply, bytes) = (reply.clone(), *bytes);
                            inner.enqueue_send(dst, ActorId(env.src), reply, bytes);
                        }
                        continue;
                    }
                    cells[dst.0].local.borrow_mut().mailbox.push_back(env);
                    if let ActorState::Waiting {
                        epoch,
                        wake_on_msg: true,
                    } = inner.states[dst.0]
                    {
                        inner.schedule_wake(inner.now, dst, epoch);
                    }
                }
                EventKind::Crash { node } => {
                    inner.crashed_nodes[node.0] = true;
                    if let Some(f) = inner.fault.as_mut() {
                        f.stats.crashed_nodes.push(node.0);
                    }
                    if let Some(a) = inner.node_actor[node.0] {
                        if !matches!(inner.states[a.0], ActorState::Done | ActorState::Crashed) {
                            inner.states[a.0] = ActorState::Crashed;
                            live -= 1;
                        }
                        // Dropping the future drops the state machine;
                        // anything queued for it will never be read, and a
                        // note it made ahead, past the crash, was never made.
                        futures[a.0] = None;
                        inner.tracer.ahead.retain(|Reverse(n)| n.2 != a.0);
                        cells[a.0].local.borrow_mut().mailbox.clear();
                    }
                }
            }
        }
        sched.batches = sched.polls;
        sched.max_batch = sched.polls.min(1) as usize;

        // One actor per node: its CPU tallies are the node's.
        let mut nodes = vec![NodeMetrics::default(); n_nodes];
        let mut fault = inner.fault.map(|f| f.stats).unwrap_or_default();
        for c in &cells {
            let t = c.tallies.get();
            nodes[c.node.0] = t.cpu;
            sched.charges += t.charges;
            sched.catch_ups += t.catch_ups;
            fault.freeze_deferrals += t.freeze_deferrals;
        }

        SimReport {
            end_time: inner.now,
            actors: inner.actor_metrics,
            nodes,
            node_configs: inner.nodes,
            events_processed: inner.events_processed,
            fault,
            deliveries_after_exit: inner.deliveries_after_exit,
            trace_hash: inner.trace_hash,
            trace: inner.tracer.events,
            sched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, LinkFaults};
    use crate::load::LoadModel;
    use crate::trace::{parse_trace, render_trace};

    fn two_node_builder() -> (SimBuilder<u64>, NodeId, NodeId) {
        let mut b = SimBuilder::<u64>::new().net(NetConfig::ideal());
        let n0 = b.add_node(NodeConfig::default());
        let n1 = b.add_node(NodeConfig::default());
        (b, n0, n1)
    }

    #[test]
    fn ping_pong() {
        let (mut b, n0, n1) = two_node_builder();
        let a1 = ActorId(1);
        b.spawn_mail(n0, "ping", move |ctx| async move {
            ctx.send(a1, 42, 8).await;
            let reply = ctx.recv().await;
            assert_eq!(reply.msg, 43);
            assert_eq!(reply.src, 1);
        });
        b.spawn_mail(n1, "pong", move |ctx| async move {
            let m = ctx.recv().await;
            assert_eq!(m.msg, 42);
            ctx.send(ActorId(m.src), m.msg + 1, 8).await;
        });
        let report = b.run();
        assert_eq!(report.actors[0].msgs_sent, 1);
        assert_eq!(report.actors[0].msgs_received, 1);
        assert_eq!(report.actors[1].msgs_received, 1);
        assert!(!report.fault.any());
        assert!(report.sched.polls > 0);
    }

    #[test]
    fn record_trace_captures_sends_and_deliveries() {
        let (mut b, n0, n1) = two_node_builder();
        let a1 = ActorId(1);
        b = b
            .record_trace(true)
            .trace_tag(|m: &u64| (*m == 42).then(|| "answer".to_string()));
        b.spawn_mail(n0, "ping", move |ctx| async move {
            ctx.send(a1, 42, 8).await;
            let _ = ctx.recv().await;
        });
        b.spawn_mail(n1, "pong", move |ctx| async move {
            let m = ctx.recv().await;
            ctx.send(ActorId(m.src), m.msg + 1, 8).await;
        });
        let report = b.run();
        let sends: Vec<_> = report
            .trace
            .iter()
            .filter_map(|ev| match &ev.kind {
                TraceKind::Send { src, dst, tag, .. } => Some((*src, *dst, tag.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            sends,
            vec![(0, 1, Some("answer".to_string())), (1, 0, None)]
        );
        let delivers = report
            .trace
            .iter()
            .filter(|ev| matches!(ev.kind, TraceKind::Deliver { .. }))
            .count();
        assert_eq!(delivers, 2);
        // The trace round-trips through the stable text format.
        let text = crate::trace::render_trace(&report.trace);
        assert_eq!(crate::trace::parse_trace(&text).unwrap(), report.trace);
    }

    #[test]
    fn trace_off_by_default() {
        let (mut b, n0, n1) = two_node_builder();
        let a1 = ActorId(1);
        b.spawn_mail(n0, "src", move |ctx| async move {
            ctx.send(a1, 1, 8).await;
        });
        b.spawn_mail(n1, "dst", |ctx| async move {
            ctx.recv().await;
        });
        assert!(b.run().trace.is_empty());
    }

    #[test]
    fn advance_work_advances_time() {
        let mut b = SimBuilder::<()>::new().net(NetConfig::ideal());
        let n = b.add_node(NodeConfig::default());
        b.spawn_mail(n, "worker", |ctx| async move {
            assert_eq!(ctx.now(), SimTime::ZERO);
            ctx.advance_work(CpuWork::from_secs_f64(2.0)).await;
            assert_eq!(ctx.now(), SimTime(2_000_000));
        });
        let report = b.run();
        assert_eq!(report.end_time, SimTime(2_000_000));
        assert_eq!(report.nodes[0].app_cpu, SimDuration::from_secs(2));
    }

    #[test]
    fn competing_load_stretches_time() {
        let mut b = SimBuilder::<()>::new().net(NetConfig::ideal());
        let n = b.add_node(NodeConfig::with_load(LoadModel::Constant(1)));
        b.spawn_mail(n, "worker", |ctx| async move {
            ctx.advance_work(CpuWork::from_secs_f64(1.0)).await;
        });
        let report = b.run();
        // 1 s of CPU at 50% availability: finishes during slot at ~1.9s
        // (slots [0,.1) [.2,.3) ... 10 slots, last ends at 1.9s).
        assert_eq!(report.end_time, SimTime(1_900_000));
        assert_eq!(
            report.nodes[0].app_cpu_while_loaded,
            SimDuration::from_secs(1)
        );
        // Competing task got the rest.
        assert_eq!(
            report.competing_cpu(NodeId(0)),
            SimDuration::from_micros(900_000)
        );
    }

    #[test]
    fn sleep_passes_time_without_cpu() {
        let mut b = SimBuilder::<()>::new().net(NetConfig::ideal());
        let n = b.add_node(NodeConfig::default());
        b.spawn_mail(n, "sleeper", |ctx| async move {
            ctx.sleep(SimDuration::from_secs(5)).await;
            assert_eq!(ctx.now(), SimTime(5_000_000));
        });
        let report = b.run();
        assert_eq!(report.nodes[0].app_cpu, SimDuration::ZERO);
    }

    #[test]
    fn network_latency_and_bandwidth() {
        let mut b = SimBuilder::<u32>::new().net(NetConfig {
            latency: SimDuration::from_millis(1),
            bandwidth: 1_000_000, // 1 byte/us
            send_cpu_per_msg: CpuWork::ZERO,
            send_cpu_per_byte_ns: 0,
            recv_cpu_per_msg: CpuWork::ZERO,
        });
        let n0 = b.add_node(NodeConfig::default());
        let n1 = b.add_node(NodeConfig::default());
        let a1 = ActorId(1);
        b.spawn_mail(n0, "src", move |ctx| async move {
            ctx.send(a1, 7, 1000).await; // 1000 us transfer + 1000 us latency
        });
        b.spawn_mail(n1, "dst", |ctx| async move {
            let env = ctx.recv().await;
            assert_eq!(env.msg, 7);
            assert_eq!(ctx.now(), SimTime(2_000));
        });
        b.run();
    }

    #[test]
    fn fifo_per_pair() {
        let (mut b, n0, n1) = two_node_builder();
        let a1 = ActorId(1);
        b.spawn_mail(n0, "src", move |ctx| async move {
            for i in 0..10u64 {
                ctx.send(a1, i, 1).await;
            }
        });
        b.spawn_mail(n1, "dst", |ctx| async move {
            for i in 0..10u64 {
                assert_eq!(ctx.recv().await.msg, i);
            }
        });
        b.run();
    }

    #[test]
    fn selective_receive() {
        let (mut b, n0, n1) = two_node_builder();
        let a1 = ActorId(1);
        b.spawn_mail(n0, "src", move |ctx| async move {
            ctx.send(a1, 1, 1).await;
            ctx.send(a1, 2, 1).await;
            ctx.send(a1, 3, 1).await;
        });
        b.spawn_mail(n1, "dst", |ctx| async move {
            // Pull out-of-order by predicate; the rest stays queued.
            assert_eq!(ctx.recv_match(|&m| m == 2).await.msg, 2);
            assert_eq!(ctx.recv().await.msg, 1);
            assert_eq!(ctx.recv().await.msg, 3);
        });
        b.run();
    }

    #[test]
    fn recv_deadline_times_out() {
        let mut b = SimBuilder::<()>::new().net(NetConfig::ideal());
        let n = b.add_node(NodeConfig::default());
        b.spawn_mail(n, "waiter", |ctx| async move {
            let got = ctx.recv_deadline(SimTime(500)).await;
            assert!(got.is_none());
            assert_eq!(ctx.now(), SimTime(500));
            assert!(ctx.try_recv().await.is_none());
        });
        b.run();
    }

    #[test]
    fn recv_deadline_gets_message_first() {
        let (mut b, n0, n1) = two_node_builder();
        let a1 = ActorId(1);
        b.spawn_mail(n0, "src", move |ctx| async move {
            ctx.sleep(SimDuration::from_micros(100)).await;
            ctx.send(a1, 9, 1).await;
        });
        b.spawn_mail(n1, "dst", |ctx| async move {
            let got = ctx.recv_deadline(SimTime(1_000_000)).await;
            assert_eq!(got.unwrap().msg, 9);
            assert!(ctx.now() < SimTime(1_000_000));
        });
        b.run();
    }

    #[test]
    fn try_recv_nonblocking() {
        let mut b = SimBuilder::<u8>::new().net(NetConfig::ideal());
        let n = b.add_node(NodeConfig::default());
        b.spawn_mail(n, "solo", |ctx| async move {
            assert!(ctx.try_recv().await.is_none());
        });
        b.run();
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run_once = || {
            let mut b = SimBuilder::<u64>::new();
            let mut slaves = Vec::new();
            let master_node = b.add_node(NodeConfig::default());
            for i in 0..4 {
                let n = b.add_node(NodeConfig::with_load(if i == 0 {
                    LoadModel::Constant(1)
                } else {
                    LoadModel::Dedicated
                }));
                slaves.push(n);
            }
            let master = b.spawn_mail(master_node, "master", move |ctx| async move {
                for _ in 0..4 {
                    let env = ctx.recv().await;
                    ctx.send(ActorId(env.src), env.msg * 2, 16).await;
                }
            });
            for (i, n) in slaves.into_iter().enumerate() {
                b.spawn_mail(n, format!("slave{i}"), move |ctx| async move {
                    ctx.advance_work(CpuWork::from_millis(50 * (i as u64 + 1)))
                        .await;
                    ctx.send(master, i as u64, 16).await;
                    let env = ctx.recv().await;
                    assert_eq!(env.msg, i as u64 * 2);
                    ctx.advance_work(CpuWork::from_millis(10)).await;
                });
            }
            let r = b.run();
            (r.end_time, r.events_processed, r.trace_hash)
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn actor_panic_propagates() {
        let mut b = SimBuilder::<()>::new();
        let n = b.add_node(NodeConfig::default());
        b.spawn_mail(n, "bomb", |_ctx| async move { panic!("boom") });
        b.run();
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_detected() {
        let mut b = SimBuilder::<()>::new();
        let n = b.add_node(NodeConfig::default());
        b.spawn_mail(n, "hung", |ctx| async move {
            let _ = ctx.recv().await; // nobody will ever send
        });
        b.run();
    }

    #[test]
    #[should_panic(expected = "already has an actor")]
    fn one_actor_per_node() {
        let mut b = SimBuilder::<()>::new();
        let n = b.add_node(NodeConfig::default());
        b.spawn_mail(n, "a", |_| async {});
        b.spawn_mail(n, "b", |_| async {});
    }

    #[test]
    fn send_charges_cpu() {
        let mut b = SimBuilder::<()>::new().net(NetConfig {
            latency: SimDuration::ZERO,
            bandwidth: u64::MAX,
            send_cpu_per_msg: CpuWork::from_micros(500),
            send_cpu_per_byte_ns: 0,
            recv_cpu_per_msg: CpuWork::ZERO,
        });
        let n0 = b.add_node(NodeConfig::default());
        let n1 = b.add_node(NodeConfig::default());
        let a1 = ActorId(1);
        b.spawn_mail(n0, "src", move |ctx| async move {
            ctx.send(a1, (), 0).await;
            assert_eq!(ctx.now(), SimTime(500));
        });
        b.spawn_mail(n1, "dst", |ctx| async move {
            ctx.recv().await;
        });
        let report = b.run();
        assert_eq!(report.nodes[0].app_cpu, SimDuration::from_micros(500));
    }

    /// The clock an actor that buffers its own effects keeps: a charge
    /// resumes at exactly `cpu::advance(node, now, work).finish`, whether
    /// it is an `advance_work` of `work` or a `send` of `send_cpu(bytes)`,
    /// under constant and oscillating competing load. A freeze that covers
    /// the finish is the one exception: the wake waits for the thaw, so the
    /// actor resumes later than any pure advance can say. The ctx's
    /// [`costs`](MailCtx::costs) are the node and net it was built with.
    #[test]
    fn a_charge_resumes_where_cpu_advance_finishes_unless_a_freeze_covers_it() {
        let oscillating = LoadModel::Oscillating {
            period: SimDuration::from_millis(350),
            duty: SimDuration::from_millis(120),
            tasks: 3,
        };
        let run = |load: LoadModel, plan: Option<FaultPlan>| {
            let node = NodeConfig {
                speed: 0.7,
                ..NodeConfig::with_load(load)
            };
            let mut b = SimBuilder::<()>::new();
            if let Some(plan) = plan {
                b = b.fault_plan(plan);
            }
            let (n0, n1) = (b.add_node(node.clone()), b.add_node(NodeConfig::default()));
            let late = Rc::new(RefCell::new(Vec::new()));
            let log = Rc::clone(&late);
            b.spawn_mail(n0, "charger", move |ctx| async move {
                let net = NetConfig::default();
                let (own, own_net) = ctx.costs();
                assert_eq!((own.speed, &own.load), (node.speed, &node.load));
                assert_eq!(own_net.send_cpu(4_000), net.send_cpu(4_000));
                for (i, bytes) in [0u64, 8, 4_000, 123_456].into_iter().enumerate() {
                    let work = CpuWork::from_micros(37 + 45_000 * i as u64);
                    let want = cpu::advance(own, ctx.now(), work).finish;
                    ctx.advance_work(work).await;
                    log.borrow_mut().push(ctx.now().saturating_since(want));
                    let want = cpu::advance(own, ctx.now(), own_net.send_cpu(bytes)).finish;
                    ctx.send(ActorId(1), (), bytes).await;
                    log.borrow_mut().push(ctx.now().saturating_since(want));
                }
            });
            b.spawn_mail(n1, "sink", |ctx| async move {
                for _ in 0..4 {
                    ctx.recv().await;
                }
            });
            b.run();
            let late = late.borrow().clone();
            late
        };
        for load in [LoadModel::Constant(2), oscillating] {
            assert_eq!(run(load, None), [SimDuration::ZERO; 8]);
        }
        // The first charge, 37 µs of work at speed 0.7, finishes at 53 µs
        // on a dedicated node: a freeze over it defers the wake to 900 µs.
        let freeze = FaultPlan::new(0).freeze(0, SimTime(40), SimTime(900));
        let late = run(LoadModel::Dedicated, Some(freeze));
        assert_eq!(late[0], SimDuration::from_micros(900 - 53));
        assert!(late[1..].iter().all(|d| d.is_zero()), "{late:?}");
    }

    // --- run-ahead ---------------------------------------------------------

    /// The lines of `trace` that are not `DELIVER`s, rendered.
    fn lines_but_deliveries(trace: &[TraceEvent]) -> Vec<String> {
        trace
            .iter()
            .filter(|ev| !matches!(ev.kind, TraceKind::Deliver { .. }))
            .map(TraceEvent::render)
            .collect()
    }

    /// However many charges precede a send, the `SEND` is stamped where the
    /// last one finishes, and the sender parks once for it: its events are
    /// the t = 0 seed wake and that one catch-up.
    #[test]
    fn k_charges_then_a_send_make_one_wake_at_the_send_instant() {
        for k in 1..=4u64 {
            let (mut b, n0, n1) = two_node_builder();
            b = b.record_trace(true);
            b.spawn_mail(n0, "charger", move |ctx| async move {
                for _ in 0..k {
                    ctx.advance_work(CpuWork::from_micros(100)).await;
                }
                assert_eq!(ctx.now(), SimTime(100 * k));
                ctx.send(ActorId(1), k, 8).await;
            });
            b.spawn_mail(n1, "sink", |ctx| async move {
                ctx.recv().await;
            });
            let r = b.run();
            let t = 100 * k;
            assert_eq!(
                lines_but_deliveries(&r.trace),
                [
                    "EV 0 WAKE 0".to_string(),
                    "EV 0 WAKE 1".to_string(),
                    format!("EV {t} WAKE 0"),
                    format!("EV {t} SEND 0 1 8"),
                    format!("EV {t} WAKE 1"),
                ],
                "{k} charges"
            );
            assert_eq!((r.sched.charges, r.sched.catch_ups), (k, 1));
            assert_eq!(r.nodes[0].app_cpu, SimDuration::from_micros(t));
        }
    }

    /// A note made while its actor is ahead keeps the instant it was made
    /// at, and enters the trace once the clock reaches that instant: the
    /// trace stays in time order, and the note is no event.
    #[test]
    fn a_note_keeps_the_instant_it_was_made() {
        let run = |traced: bool| {
            let (mut b, n0, n1) = two_node_builder();
            b = b.record_trace(traced);
            b.spawn_mail(n0, "runner", |ctx| async move {
                ctx.advance_work(CpuWork::from_micros(100)).await;
                ctx.note(|| "ran 100".into());
                ctx.advance_work(CpuWork::from_micros(50)).await;
                ctx.send(ActorId(1), 1, 8).await;
            });
            b.spawn_mail(n1, "sink", |ctx| async move {
                ctx.sleep(SimDuration::from_micros(120)).await;
                ctx.note(|| "slept 120".into());
                ctx.recv().await;
            });
            b.run()
        };
        let r = run(true);
        assert_eq!(
            lines_but_deliveries(&r.trace),
            [
                "EV 0 WAKE 0",
                "EV 0 WAKE 1",
                "EV 100 NOTE 0 ran 100",
                "EV 120 WAKE 1",
                "EV 120 NOTE 1 slept 120",
                "EV 150 WAKE 0",
                "EV 150 SEND 0 1 8",
                "EV 150 WAKE 1",
            ]
        );
        let quiet = run(false);
        assert_eq!(
            (r.events_processed, r.trace_hash),
            (quiet.events_processed, quiet.trace_hash)
        );
    }

    /// A crash while an actor is ahead: the charges it made before the
    /// crash instant count, those from it on were never made, and its
    /// catch-up pops stale, so it never sends. Charges start at 0, 100, …,
    /// 400 µs; the node crashes at 250 µs.
    #[test]
    fn a_crash_while_ahead_drops_the_catch_up_and_the_cpu_charged_after_it() {
        let (mut b, n0, n1) = two_node_builder();
        b = b.record_trace(true);
        b.spawn_mail(n0, "runner", |ctx| async move {
            for _ in 0..5 {
                ctx.advance_work(CpuWork::from_micros(100)).await;
            }
            ctx.note(|| "never traced".into());
            ctx.send(ActorId(1), 1, 8).await;
        });
        b.spawn_mail(n1, "sink", |ctx| async move {
            assert!(ctx.recv_deadline(SimTime(1_000)).await.is_none());
        });
        let r = b.fault_plan(FaultPlan::new(0).crash(0, SimTime(250))).run();
        assert_eq!(r.nodes[0].app_cpu, SimDuration::from_micros(300));
        assert_eq!(r.actors[0].msgs_sent, 0);
        assert_eq!((r.sched.charges, r.sched.catch_ups), (5, 1));
        assert_eq!(r.sched.stale_wakes, 1, "the catch-up at 500 µs");
        assert_eq!(r.end_time, SimTime(1_000));
        assert_eq!(
            lines_but_deliveries(&r.trace),
            [
                "EV 0 WAKE 0",
                "EV 0 WAKE 1",
                "EV 250 CRASH 0",
                "EV 500 WAKE 0",
                "EV 1000 WAKE 1",
            ]
        );
    }

    /// Returning is an interaction: an actor whose charges ran it ahead
    /// ends at its own clock, which is where the run ends.
    #[test]
    fn returning_while_ahead_ends_at_the_actors_own_clock() {
        let mut b = SimBuilder::<()>::new().net(NetConfig::ideal());
        let n = b.add_node(NodeConfig::default());
        b.spawn_mail(n, "worker", |ctx| async move {
            for us in [100, 200, 400] {
                ctx.advance_work(CpuWork::from_micros(us)).await;
            }
        });
        let r = b.run();
        assert_eq!(r.end_time, SimTime(700));
        assert_eq!(r.events_processed, 2, "the seed wake and the catch-up");
        assert_eq!((r.sched.charges, r.sched.catch_ups), (3, 1));
        assert_eq!(r.nodes[0].app_cpu, SimDuration::from_micros(700));
    }

    /// A loop of charges alone makes no event, yet it still runs into the
    /// event budget — each actor's charges count against it — instead of
    /// holding the host in one endless poll.
    #[test]
    #[should_panic(expected = "event budget exhausted (1000 events)")]
    fn a_cpu_only_loop_trips_the_event_budget() {
        let mut b = SimBuilder::<()>::new()
            .net(NetConfig::ideal())
            .max_events(1_000);
        let n = b.add_node(NodeConfig::default());
        b.spawn_mail(n, "spinner", |ctx| async move {
            loop {
                ctx.advance_work(CpuWork::from_micros(1)).await;
            }
        });
        b.run();
    }

    /// A queue entry is 24 bytes, a delivery's as a wake's: due time, seq,
    /// actor or slot, and epoch.
    #[test]
    fn a_key_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
    }

    /// Entries due at one instant pop in filing order, a catch-up included:
    /// it is filed when the poll that parks for it is applied. Here the
    /// runner's catch-up is filed at 0 µs, after its two charges, and the
    /// sender's delivery when its send is applied at 0 µs, after that; both
    /// are due at 100 µs, so the catch-up pops first and the look finds the
    /// mailbox empty.
    #[test]
    fn a_catch_up_filed_first_pops_before_a_delivery_due_at_its_instant() {
        let mut b = SimBuilder::<u64>::new().net(NetConfig {
            latency: SimDuration::from_micros(100),
            ..NetConfig::ideal()
        });
        let n0 = b.add_node(NodeConfig::default());
        let n1 = b.add_node(NodeConfig::default());
        let got = Rc::new(RefCell::new(None));
        let seen = Rc::clone(&got);
        b.spawn_mail(n0, "runner", move |ctx| async move {
            ctx.advance_work(CpuWork::from_micros(50)).await;
            ctx.advance_work(CpuWork::from_micros(50)).await;
            let env = ctx.try_recv().await;
            *seen.borrow_mut() = Some((ctx.now(), env.map(|e| e.msg)));
        });
        b.spawn_mail(n1, "sender", |ctx| async move {
            ctx.send(ActorId(0), 7, 8).await;
        });
        let r = b.run();
        assert_eq!(*got.borrow(), Some((SimTime(100), None)));
        assert_eq!((r.sched.charges, r.sched.catch_ups), (2, 1));
    }

    // --- fault injection ---------------------------------------------------

    #[test]
    fn drop_fault_loses_message() {
        let (mut b, n0, n1) = two_node_builder();
        let a1 = ActorId(1);
        b.spawn_mail(n0, "src", move |ctx| async move {
            ctx.send(a1, 5, 8).await;
        });
        b.spawn_mail(n1, "dst", |ctx| async move {
            assert!(ctx.recv_deadline(SimTime(1_000_000)).await.is_none());
        });
        let report = b.fault_plan(FaultPlan::new(1).drop_all(1.0)).run();
        assert_eq!(report.fault.msgs_dropped, 1);
        assert_eq!(report.actors[0].msgs_sent, 1);
        assert_eq!(report.actors[1].msgs_received, 0);
    }

    #[test]
    fn dup_fault_delivers_twice() {
        let (mut b, n0, n1) = two_node_builder();
        let a1 = ActorId(1);
        b.spawn_mail(n0, "src", move |ctx| async move {
            ctx.send(a1, 5, 8).await;
        });
        b.spawn_mail(n1, "dst", |ctx| async move {
            assert_eq!(ctx.recv().await.msg, 5);
            assert_eq!(ctx.recv().await.msg, 5);
        });
        let report = b.fault_plan(FaultPlan::new(1).dup_all(1.0)).run();
        assert_eq!(report.fault.msgs_duplicated, 1);
        assert_eq!(report.actors[1].msgs_received, 2);
    }

    #[test]
    fn jitter_preserves_fifo() {
        let (mut b, n0, n1) = two_node_builder();
        let a1 = ActorId(1);
        b.spawn_mail(n0, "src", move |ctx| async move {
            for i in 0..20u64 {
                ctx.send(a1, i, 1).await;
            }
        });
        b.spawn_mail(n1, "dst", |ctx| async move {
            for i in 0..20u64 {
                assert_eq!(ctx.recv().await.msg, i, "jitter must not reorder a pair");
            }
        });
        let report = b
            .fault_plan(FaultPlan::new(7).jitter_all(1.0, SimDuration::from_millis(50)))
            .run();
        assert_eq!(report.fault.msgs_delayed, 20);
    }

    #[test]
    fn crash_stops_actor_and_discards_mail() {
        let (mut b, n0, n1) = two_node_builder();
        let a1 = ActorId(1);
        b.spawn_mail(n0, "survivor", move |ctx| async move {
            ctx.advance_work(CpuWork::from_millis(100)).await;
            // Sent after the crash: discarded, not delivered.
            ctx.send(a1, 1, 8).await;
            ctx.advance_work(CpuWork::from_millis(100)).await;
        });
        b.spawn_mail(n1, "victim", |ctx| async move {
            loop {
                ctx.sleep(SimDuration::from_millis(10)).await;
            }
        });
        let report = b
            .fault_plan(FaultPlan::new(0).crash(1, SimTime(50_000)))
            .run();
        assert_eq!(report.fault.crashed_nodes, vec![1]);
        assert_eq!(report.fault.deliveries_to_crashed, 1);
        assert_eq!(report.end_time, SimTime(200_000));
    }

    #[test]
    fn freeze_defers_delivery() {
        let (mut b, n0, n1) = two_node_builder();
        let a1 = ActorId(1);
        b.spawn_mail(n0, "src", move |ctx| async move {
            ctx.sleep(SimDuration::from_millis(15)).await;
            ctx.send(a1, 3, 8).await;
        });
        b.spawn_mail(n1, "dst", |ctx| async move {
            let env = ctx.recv().await;
            assert_eq!(env.msg, 3);
            assert!(ctx.now() >= SimTime(50_000), "delivery deferred to thaw");
        });
        let report = b
            .fault_plan(FaultPlan::new(0).freeze(1, SimTime(10_000), SimTime(50_000)))
            .run();
        assert!(report.fault.freeze_deferrals >= 1);
    }

    /// One freeze defers a delivery and a wake alike. Node 1 is frozen over
    /// [100, 5 000) µs with a sleep due at 200; the ideal network lands one
    /// message at 150 and one at 200, filed after that wake. Each is
    /// re-filed at the thaw as it pops, so at 5 000 the first message is
    /// queued, the wake polls the sleeper, which takes it, and the second
    /// message wakes its next receive.
    fn freeze_defers_wake_and_delivery_scenario() -> (SimTime, u64, u64) {
        let (b, n0, n1) = two_node_builder();
        let mut b = b.fault_plan(FaultPlan::new(0).freeze(1, SimTime(100), SimTime(5_000)));
        b.spawn_mail(n0, "src", |ctx| async move {
            ctx.sleep(SimDuration::from_micros(150)).await;
            ctx.send(ActorId(1), 1, 8).await;
            ctx.sleep(SimDuration::from_micros(50)).await;
            ctx.send(ActorId(1), 2, 8).await;
        });
        b.spawn_mail(n1, "sleeper", |ctx| async move {
            ctx.sleep(SimDuration::from_micros(200)).await;
            assert_eq!(ctx.now(), SimTime(5_000), "wake deferred to the thaw");
            assert_eq!(ctx.try_recv().await.map(|e| e.msg), Some(1));
            assert_eq!(ctx.recv().await.msg, 2);
            assert_eq!(ctx.now(), SimTime(5_000));
        });
        let r = b.run();
        assert_eq!(r.fault.freeze_deferrals, 3);
        (r.end_time, r.events_processed, r.trace_hash)
    }

    /// The constants were recorded from the kernel that kept wakes and
    /// deliveries in two heaps merged at every pop.
    #[test]
    fn freeze_defers_wake_and_delivery_in_filing_order() {
        assert_eq!(
            freeze_defers_wake_and_delivery_scenario(),
            (SimTime(5_000), 8, 0x0fbe_e692_9bb8_cbc8)
        );
    }

    #[test]
    fn fault_determinism_same_seed_same_trace() {
        let run_once = |seed: u64| {
            let mut b = SimBuilder::<u64>::new();
            let n0 = b.add_node(NodeConfig::default());
            let n1 = b.add_node(NodeConfig::default());
            let a1 = ActorId(1);
            b.spawn_mail(n0, "src", move |ctx| async move {
                for i in 0..50u64 {
                    ctx.send(a1, i, 16).await;
                    ctx.advance_work(CpuWork::from_micros(200)).await;
                }
            });
            b.spawn_mail(n1, "dst", |ctx| async move {
                while ctx
                    .recv_deadline(ctx.now() + SimDuration::from_millis(20))
                    .await
                    .is_some()
                {}
            });
            let plan = FaultPlan::new(seed)
                .drop_all(0.2)
                .dup_all(0.1)
                .jitter_all(0.3, SimDuration::from_micros(500));
            let r = b.fault_plan(plan).run();
            (r.trace_hash, r.end_time, r.fault.clone())
        };
        assert_eq!(run_once(11), run_once(11));
        let (h_a, _, _) = run_once(11);
        let (h_b, _, _) = run_once(12);
        assert_ne!(h_a, h_b, "different seeds should give different traces");
    }

    #[test]
    fn per_link_faults_override_default() {
        let mut b = SimBuilder::<u64>::new().net(NetConfig::ideal());
        let n0 = b.add_node(NodeConfig::default());
        let n1 = b.add_node(NodeConfig::default());
        let n2 = b.add_node(NodeConfig::default());
        let (a1, a2) = (ActorId(1), ActorId(2));
        b.spawn_mail(n0, "src", move |ctx| async move {
            ctx.send(a1, 1, 8).await; // link 0->1 drops everything
            ctx.send(a2, 2, 8).await; // default link is clean
        });
        b.spawn_mail(n1, "lossy", |ctx| async move {
            assert!(ctx.recv_deadline(SimTime(1_000_000)).await.is_none());
        });
        b.spawn_mail(n2, "clean", |ctx| async move {
            assert_eq!(ctx.recv().await.msg, 2);
        });
        let plan = FaultPlan::new(3).link(
            0,
            1,
            LinkFaults {
                drop_p: 1.0,
                ..Default::default()
            },
        );
        let report = b.fault_plan(plan).run();
        assert_eq!(report.fault.msgs_dropped, 1);
    }

    /// A fault-ridden master/slave scenario over the *default* (non-ideal)
    /// network, so every send and recv charges CPU, exercising the full
    /// op-future footprint: charges, catch-ups, wakes, deliveries, fault
    /// draws.
    fn cross_check_scenario(seed: u64) -> (SimTime, u64, u64) {
        let plan = FaultPlan::new(seed)
            .drop_all(0.15)
            .dup_all(0.15)
            .jitter_all(0.3, SimDuration::from_micros(700));
        let mut b = SimBuilder::<u64>::new().fault_plan(plan);
        let mn = b.add_node(NodeConfig::default());
        let mut slave_nodes = Vec::new();
        for i in 0..4 {
            slave_nodes.push(b.add_node(NodeConfig::with_load(if i == 0 {
                LoadModel::Constant(1)
            } else {
                LoadModel::Dedicated
            })));
        }
        b.spawn_mail(mn, "master", |ctx| async move {
            while let Some(env) = ctx
                .recv_deadline(ctx.now() + SimDuration::from_millis(50))
                .await
            {
                ctx.send(ActorId(env.src), env.msg * 2, 16).await;
            }
        });
        for (i, n) in slave_nodes.into_iter().enumerate() {
            b.spawn_mail(n, format!("slave{i}"), move |ctx| async move {
                ctx.advance_work(CpuWork::from_millis(5 * (i as u64 + 1)))
                    .await;
                ctx.send(ActorId(0), i as u64, 16).await;
                let _ = ctx
                    .recv_deadline(ctx.now() + SimDuration::from_millis(30))
                    .await;
                ctx.sleep(SimDuration::from_millis(2)).await;
                ctx.advance_work(CpuWork::from_millis(1)).await;
            });
        }
        let r = b.run();
        (r.end_time, r.events_processed, r.trace_hash)
    }

    /// The end times are what the thread-per-actor kernel this one
    /// replaced produced for the same scenario (recorded at its last
    /// commit): the virtual time of an actor body must never drift from it.
    /// The event counts and hashes were re-pinned when a charge stopped
    /// being an event (54, 43 and 59 events before): every charge then
    /// parked for a wake of its own.
    #[test]
    fn mail_actors_trace_identical_to_blocking() {
        for (seed, end, events, hash) in [
            (3u64, 71_363, 43, 0x8778_a76b_0644_8ace),
            (11, 65_702, 35, 0xc1b8_0c72_1aec_c1c6),
            (42, 70_781, 47, 0x3ce7_674d_2db2_d8b5),
        ] {
            assert_eq!(
                cross_check_scenario(seed),
                (SimTime(end), events, hash),
                "seed {seed}"
            );
        }
    }

    /// Timed wakes at every distance the event queue has to order: 1 µs,
    /// either side of 64 µs and 4 096 µs, 2¹⁸ µs, 2³⁰ µs and one past
    /// 64⁶ µs (≈ 19.1 h), as relative sleeps and as absolute deadlines;
    /// four-way equal-time ties that only `seq` can break; deadline wakes
    /// that go stale at each of those distances; a freeze window that
    /// re-pushes a wake. The ideal network puts deliveries on the same
    /// microsecond as the wakes they race.
    fn wake_order_scenario() -> (SimTime, u64, u64, u64) {
        const HORIZON: u64 = 1 << 36; // 64⁶ µs
        const LADDER: [u64; 9] = [1, 63, 64, 65, 4_095, 4_096, 1 << 18, 1 << 30, HORIZON + 7];
        // Node 6 is frozen over the wake it has scheduled at t = 200.
        let plan = FaultPlan::new(0).freeze(6, SimTime(150), SimTime(5_000));
        let mut b = SimBuilder::<u64>::new()
            .net(NetConfig::ideal())
            .fault_plan(plan);
        let nodes: Vec<NodeId> = (0..8).map(|_| b.add_node(NodeConfig::default())).collect();
        b.spawn_mail(nodes[0], "ladder", |ctx| async move {
            for d in LADDER {
                ctx.sleep(SimDuration::from_micros(d)).await;
            }
        });
        b.spawn_mail(nodes[1], "absolute", |ctx| async move {
            for t in LADDER {
                assert!(ctx.recv_deadline(SimTime(t)).await.is_none());
                assert_eq!(ctx.now(), SimTime(t));
            }
        });
        // Land on t = 64, 200, 4 096 and 2¹⁸ together with `absolute`.
        for (i, node) in nodes[2..5].iter().enumerate() {
            b.spawn_mail(*node, format!("tie{i}"), |ctx| async move {
                for d in [64, 136, 3_896, (1 << 18) - 4_096] {
                    ctx.sleep(SimDuration::from_micros(d)).await;
                }
            });
        }
        // Every message beats its deadline, which then pops stale.
        b.spawn_mail(nodes[5], "waiter", |ctx| async move {
            for d in [4_096, 1 << 18, 1 << 30, HORIZON + 3] {
                let got = ctx
                    .recv_deadline(ctx.now() + SimDuration::from_micros(d))
                    .await;
                assert!(got.is_some());
            }
        });
        b.spawn_mail(nodes[6], "frozen", |ctx| async move {
            for _ in 0..4 {
                ctx.sleep(SimDuration::from_micros(100)).await;
            }
            assert_eq!(
                ctx.now(),
                SimTime(5_200),
                "wake at 200 deferred to the thaw"
            );
            ctx.sleep(SimDuration::from_micros(1 << 18)).await;
        });
        b.spawn_mail(nodes[7], "pinger", |ctx| async move {
            for i in 0..4 {
                ctx.sleep(SimDuration::from_micros(65)).await;
                ctx.send(ActorId(5), i, 8).await;
            }
        });
        let r = b.run();
        assert_eq!(r.fault.freeze_deferrals, 1);
        (
            r.end_time,
            r.events_processed,
            r.trace_hash,
            r.sched.stale_wakes,
        )
    }

    /// The constants were recorded from the hierarchical timer wheel that
    /// held the wakes before the binary heap did (at its last commit): the
    /// `(time, seq)` pop order must never drift from it.
    #[test]
    fn wake_order_pinned_across_time_scales() {
        assert_eq!(
            wake_order_scenario(),
            (SimTime(69_793_489_095), 59, 0x31b7_62bc_4af4_ac42, 4)
        );
    }

    /// The receive paths, each where a mailbox out of step with the kernel
    /// would show: mail that lands while its reader sleeps with
    /// `wake_on_msg = false`; a predicate that misses (the message must
    /// stay, and stay visible); a node that crashes with mail queued (the
    /// cleared mailbox must not read as non-empty).
    fn read_paths_scenario() -> (SimTime, u64, u64) {
        let mut b = SimBuilder::<u64>::new()
            .net(NetConfig::ideal())
            .fault_plan(FaultPlan::new(0).crash(2, SimTime(50)));
        let nodes: Vec<NodeId> = (0..3).map(|_| b.add_node(NodeConfig::default())).collect();
        b.spawn_mail(nodes[0], "src", |ctx| async move {
            ctx.sleep(SimDuration::from_micros(10)).await;
            for m in [1, 2] {
                ctx.send(ActorId(1), m, 8).await;
                ctx.send(ActorId(2), m, 8).await;
            }
        });
        b.spawn_mail(nodes[1], "sleeper", |ctx| async move {
            assert!(ctx.try_recv().await.is_none());
            // Both messages land at t = 10 and wake nobody.
            ctx.sleep(SimDuration::from_micros(100)).await;
            assert_eq!(ctx.now(), SimTime(100));
            assert!(ctx.try_recv_match(|&m| m == 9).await.is_none());
            assert_eq!(ctx.try_recv_match(|&m| m == 2).await.unwrap().msg, 2);
            assert!(ctx.try_recv_match(|&m| m == 2).await.is_none());
            assert_eq!(ctx.try_recv().await.unwrap().msg, 1);
            assert!(ctx.try_recv().await.is_none());
            assert!(ctx.recv_deadline(SimTime(100)).await.is_none());
        });
        // Never reads its mail; crashes at t = 50 with two messages queued.
        b.spawn_mail(nodes[2], "victim", |ctx| async move {
            ctx.sleep(SimDuration::from_secs(1)).await;
        });
        let r = b.run();
        assert_eq!(r.fault.crashed_nodes, vec![2]);
        assert_eq!(r.actors[1].msgs_received, 2);
        assert_eq!(r.actors[2].msgs_received, 0);
        (r.end_time, r.events_processed, r.trace_hash)
    }

    #[test]
    fn read_paths_see_what_the_kernel_queued() {
        assert_eq!(
            read_paths_scenario(),
            (SimTime(100), 10, 0xdbc6_d6ce_f431_d75d)
        );
    }

    /// Looking makes no event: `now`, a receive on an empty mailbox and a
    /// deadline receive whose deadline has passed leave the event stream
    /// where a run with one look has it. The first look after the charge
    /// is an interaction, so it parks once to catch up; with no look at
    /// all, the sleep's park is the catch-up too.
    #[test]
    fn looking_at_an_empty_mailbox_makes_no_event() {
        let run_with = |looks: usize| {
            let mut b = SimBuilder::<u64>::new().net(NetConfig::ideal());
            let n = b.add_node(NodeConfig::default());
            b.spawn_mail(n, "solo", move |ctx| async move {
                ctx.advance_work(CpuWork::from_micros(500)).await;
                for _ in 0..looks {
                    assert_eq!(ctx.now(), SimTime(500));
                    assert!(ctx.try_recv().await.is_none());
                    assert!(ctx.try_recv_match(|&m| m == 1).await.is_none());
                    assert!(ctx.recv_deadline(SimTime(500)).await.is_none());
                    assert!(ctx
                        .recv_match_deadline(|&m| m == 1, SimTime(0))
                        .await
                        .is_none());
                }
                ctx.sleep(SimDuration::from_micros(1)).await;
            });
            let r = b.run();
            (r.end_time, r.events_processed, r.trace_hash)
        };
        // One wake per park: the seed's and the sleep's, or the seed's, the
        // catch-up's and the sleep's.
        assert_eq!(run_with(0).1, 2);
        let quiet = run_with(1);
        assert_eq!(quiet.1, 3);
        assert_eq!(run_with(100), quiet);
    }

    /// Three actors whose wakes at t = 100 were scheduled in reverse spawn
    /// order: they are polled in that wake-seq order, one per step, so each
    /// note lands right after its own actor's `WAKE`.
    #[test]
    fn same_instant_notes_follow_wake_seq() {
        let mut b = SimBuilder::<u64>::new()
            .net(NetConfig::ideal())
            .record_trace(true);
        for i in 0..3u64 {
            let n = b.add_node(NodeConfig::default());
            b.spawn_mail(n, format!("a{i}"), move |ctx| async move {
                ctx.sleep(SimDuration::from_micros(10 * (2 - i))).await;
                ctx.note(|| format!("parked at {}", ctx.now()));
                ctx.sleep(SimTime(100) - ctx.now()).await;
                ctx.note(|| format!("actor {i}  woke"));
            });
        }
        let text = render_trace(&b.run().trace);
        let at_100: Vec<&str> = text.lines().filter(|l| l.starts_with("EV 100 ")).collect();
        assert_eq!(
            at_100,
            [
                "EV 100 WAKE 2",
                "EV 100 NOTE 2 actor 2  woke",
                "EV 100 WAKE 1",
                "EV 100 NOTE 1 actor 1  woke",
                "EV 100 WAKE 0",
                "EV 100 NOTE 0 actor 0  woke",
            ]
        );
        assert_eq!(parse_trace(&text).map(|t| render_trace(&t)), Ok(text));
    }

    /// Untraced, a note is a flag load: its text is never built, and the
    /// run makes the events and hash of a note-free twin.
    #[test]
    fn an_untraced_note_builds_nothing() {
        let built = Rc::new(Cell::new(0));
        let run_with = |notes: bool, traced: bool| {
            let mut b = SimBuilder::<u64>::new()
                .net(NetConfig::ideal())
                .record_trace(traced);
            let n = b.add_node(NodeConfig::default());
            let built = Rc::clone(&built);
            b.spawn_mail(n, "solo", move |ctx| async move {
                for _ in 0..3 {
                    if notes {
                        ctx.note(|| {
                            built.set(built.get() + 1);
                            "decided".into()
                        });
                    }
                    ctx.advance_work(CpuWork::from_micros(50)).await;
                }
            });
            let r = b.run();
            (r.end_time, r.events_processed, r.trace_hash)
        };
        let twin = run_with(false, false);
        assert_eq!(run_with(true, false), twin);
        assert_eq!(built.get(), 0, "an untraced note ran its closure");
        let traced = run_with(true, true);
        assert_eq!(built.get(), 3);
        assert_eq!(traced, twin, "notes are not events");
    }

    /// 64 slaves wake at one instant and each sends to the master: one step
    /// per event, so each `WAKE` is followed by its own poll's `SEND`
    /// before the next `WAKE`, and every poll is its own step.
    #[test]
    fn same_instant_wakes_are_polled_one_per_step() {
        let mut b = SimBuilder::<u64>::new()
            .net(NetConfig::ideal())
            .record_trace(true);
        let master_node = b.add_node(NodeConfig::default());
        let slave_nodes: Vec<NodeId> = (0..64).map(|_| b.add_node(NodeConfig::default())).collect();
        b.spawn_mail(master_node, "master", |ctx| async move {
            for _ in 0..64 {
                let env = ctx.recv().await;
                ctx.send(ActorId(env.src), env.msg + 1, 8).await;
            }
        });
        for (i, n) in slave_nodes.into_iter().enumerate() {
            b.spawn_mail(n, format!("s{i}"), move |ctx| async move {
                ctx.sleep(SimDuration::from_micros(100)).await;
                ctx.send(ActorId(0), i as u64, 8).await;
                let env = ctx.recv().await;
                assert_eq!(env.msg, i as u64 + 1);
            });
        }
        let report = b.run();
        assert_eq!(report.actors[0].msgs_received, 64);
        let text = render_trace(&report.trace);
        let at_100: Vec<&str> = text.lines().filter(|l| l.starts_with("EV 100 ")).collect();
        let expected: Vec<String> = (1..=64)
            .flat_map(|s| [format!("EV 100 WAKE {s}"), format!("EV 100 SEND {s} 0 8")])
            .collect();
        assert_eq!(at_100[..128], expected[..]);
        assert_eq!(report.sched.batches, report.sched.polls);
        assert_eq!(report.sched.max_batch, 1);
    }

    #[test]
    fn crash_drops_actor_state_machine() {
        let mut b = SimBuilder::<u64>::new().net(NetConfig::ideal());
        let nodes: Vec<NodeId> = (0..3).map(|_| b.add_node(NodeConfig::default())).collect();
        b.spawn_mail(nodes[0], "survivor", |ctx| async move {
            ctx.advance_work(CpuWork::from_millis(100)).await;
        });
        b.spawn_mail(nodes[1], "sleeper", |ctx| async move {
            loop {
                ctx.sleep(SimDuration::from_millis(10)).await;
            }
        });
        // Parked mid-`recv` forever, with no timer pending: only the crash
        // can retire it, or the run would end in the deadlock panic.
        b.spawn_mail(nodes[2], "parked", |ctx| async move {
            let _ = ctx.recv().await;
        });
        let report = b
            .fault_plan(
                FaultPlan::new(0)
                    .crash(1, SimTime(50_000))
                    .crash(2, SimTime(50_000)),
            )
            .run();
        assert_eq!(report.fault.crashed_nodes, vec![1, 2]);
        assert_eq!(report.end_time, SimTime(100_000));
        // The sleeper's pending wake pops stale.
        assert!(report.sched.stale_wakes >= 1);
    }

    // --- exit replies ------------------------------------------------------

    /// One node per actor on a 1 ms, 1 byte/µs wire with free marshalling:
    /// an 8-byte message arrives 1.008 ms after its send.
    fn wire_builder(actors: usize) -> SimBuilder<u64> {
        let mut b = SimBuilder::<u64>::new().record_trace(true).net(NetConfig {
            latency: SimDuration::from_millis(1),
            bandwidth: 1_000_000,
            send_cpu_per_msg: CpuWork::ZERO,
            send_cpu_per_byte_ns: 0,
            recv_cpu_per_msg: CpuWork::ZERO,
        });
        for _ in 0..actors {
            b.add_node(NodeConfig::default());
        }
        b
    }

    /// Actor 0 on node 0: leaves `99` as its answer (if `reply`) and
    /// returns at t = 0.
    fn spawn_finished(b: &mut SimBuilder<u64>, reply: bool) {
        b.spawn_mail(NodeId(0), "finished", move |ctx| async move {
            if reply {
                ctx.exit_reply(99, 8);
            }
        });
    }

    /// Actor 1 on node 1: writes to actor 0 at each of `at` (µs) and waits
    /// up to 5 ms for an answer after each; returns what arrived, and when.
    fn spawn_straggler(
        b: &mut SimBuilder<u64>,
        at: &'static [u64],
        got: Rc<RefCell<Vec<(u64, u64)>>>,
    ) {
        b.spawn_mail(NodeId(1), "straggler", move |ctx| async move {
            for &t in at {
                ctx.sleep(SimTime(t) - ctx.now()).await;
                ctx.send(ActorId(0), 1, 8).await;
                let deadline = ctx.now() + SimDuration::from_millis(5);
                if let Some(env) = ctx.recv_deadline(deadline).await {
                    assert_eq!(env.src, 0);
                    got.borrow_mut().push((ctx.now().0, env.msg));
                }
            }
        });
    }

    /// A finished actor's reply is an ordinary send from its node: a `SEND`
    /// right after the `DELIVER` it answers, one link latency out.
    #[test]
    fn an_exit_reply_crosses_the_link_with_its_latency() {
        let mut b = wire_builder(2);
        let got = Rc::new(RefCell::new(Vec::new()));
        spawn_finished(&mut b, true);
        spawn_straggler(&mut b, &[10_000], Rc::clone(&got));
        let report = b.run();
        // 10 ms + 1.008 ms to the finished actor, 1.008 ms back.
        assert_eq!(*got.borrow(), [(12_016, 99)]);
        assert_eq!(report.deliveries_after_exit, 1);
        assert_eq!(report.actors[0].msgs_sent, 1);
        assert_eq!(report.actors[0].msgs_received, 0);
        let text = render_trace(&report.trace);
        assert!(
            text.contains("EV 11008 DELIVER 1 0 8\nEV 11008 SEND 0 1 8\n"),
            "{text}"
        );
    }

    /// A reply sent into a partition is lost like any send; the first
    /// message after the heal is answered.
    #[test]
    fn an_exit_reply_into_a_partition_is_dropped_and_the_next_is_answered() {
        let mut b = wire_builder(2);
        let got = Rc::new(RefCell::new(Vec::new()));
        spawn_finished(&mut b, true);
        spawn_straggler(&mut b, &[10_000, 30_000], Rc::clone(&got));
        // The link is cut after the first request leaves and before its
        // reply does.
        let plan = FaultPlan::new(0).partition(SimTime(10_500), SimTime(20_000), vec![vec![1]]);
        let report = b.fault_plan(plan).run();
        assert_eq!(*got.borrow(), [(32_016, 99)]);
        assert_eq!(report.fault.partition_dropped, 1);
        assert_eq!(report.deliveries_after_exit, 2);
        assert_eq!(report.actors[0].msgs_sent, 2);
    }

    /// Crash-stop stays silent: a crashed node answers nothing, whether or
    /// not its actor had left a reply, and the delivery counts as one to a
    /// crashed node exactly as it would without the reply.
    #[test]
    fn a_crashed_node_answers_nothing() {
        let run = |reply: bool| {
            let mut b = wire_builder(2);
            let got = Rc::new(RefCell::new(Vec::new()));
            spawn_finished(&mut b, reply);
            spawn_straggler(&mut b, &[10_000], Rc::clone(&got));
            let report = b
                .fault_plan(FaultPlan::new(0).crash(0, SimTime(5_000)))
                .run();
            assert!(got.borrow().is_empty());
            report
        };
        let (with, without) = (run(true), run(false));
        assert_eq!(with.fault.deliveries_to_crashed, 1);
        assert_eq!(with.deliveries_after_exit, 0);
        assert_eq!(with.actors[0].msgs_sent, 0);
        assert_eq!(
            (
                with.trace_hash,
                with.events_processed,
                with.fault.deliveries_to_crashed
            ),
            (
                without.trace_hash,
                without.events_processed,
                without.fault.deliveries_to_crashed
            )
        );
    }

    /// An actor that left no reply answers nothing: the delivery is dropped
    /// and counted, never queued.
    #[test]
    fn an_actor_with_no_reply_answers_nothing() {
        let mut b = wire_builder(2);
        let got = Rc::new(RefCell::new(Vec::new()));
        spawn_finished(&mut b, false);
        spawn_straggler(&mut b, &[10_000], Rc::clone(&got));
        let report = b.run();
        assert!(got.borrow().is_empty());
        assert_eq!(report.deliveries_after_exit, 1);
        assert_eq!(report.actors[0].msgs_sent, 0);
    }

    /// A finished sender gets no answer, so two finished actors that both
    /// left replies cannot ping-pong: actor 1's message reaches actor 0
    /// after both have returned and is dropped unanswered, while actor 2
    /// keeps the run going.
    #[test]
    fn a_finished_sender_gets_no_answer() {
        let mut b = wire_builder(3);
        spawn_finished(&mut b, true);
        b.spawn_mail(NodeId(1), "sends and returns", |ctx| async move {
            ctx.exit_reply(77, 8);
            ctx.send(ActorId(0), 1, 8).await;
        });
        b.spawn_mail(NodeId(2), "keeps the run going", |ctx| async move {
            ctx.sleep(SimDuration::from_millis(50)).await;
        });
        let report = b.run();
        assert_eq!(report.deliveries_after_exit, 1);
        assert_eq!(report.actors[0].msgs_sent, 0);
        assert_eq!(report.end_time, SimTime(50_000));
    }
}
