//! Bounded exhaustive state-space exploration for protocol models.
//!
//! The runtime's fault-tolerance protocols (sequence-numbered restores,
//! ack watermarks, re-sends) were previously validated only by example-based
//! chaos tests. This module provides the other half: a small explicit-state
//! model checker that enumerates *every* interleaving of a pure transition
//! system up to a bound, plus a seeded random-walk mode (driven by the same
//! [`Pcg32`] the rest of the simulator uses) for probing beyond the
//! exhaustive horizon. Counterexamples come back as action traces that
//! replay deterministically.
//!
//! The transition system itself lives with the code it models (e.g.
//! `dlb-core`'s protocol rules); this module only knows how to walk it.

use crate::rng::Pcg32;
use std::collections::{BTreeSet, VecDeque};

/// A pure transition system: states, enabled actions, and invariants.
///
/// `State` must be `Ord` so the explorer can canonicalize and deduplicate
/// visited states; implementors should keep states small and normalized
/// (sorted collections, no floats).
pub trait TransitionSystem {
    type State: Clone + Ord;
    type Action: Clone + std::fmt::Debug;

    /// The single initial state.
    fn initial(&self) -> Self::State;

    /// All actions enabled in `state`. An empty vector means the state is
    /// terminal: accepting if [`TransitionSystem::is_accepting`], a
    /// deadlock otherwise.
    fn actions(&self, state: &Self::State) -> Vec<Self::Action>;

    /// Apply `action` to `state`. Must be deterministic and total for any
    /// action returned by [`TransitionSystem::actions`] on the same state.
    fn apply(&self, state: &Self::State, action: &Self::Action) -> Self::State;

    /// Check safety invariants; `Some(description)` reports a violation.
    fn violation(&self, state: &Self::State) -> Option<String>;

    /// Whether a state with no enabled actions is a legitimate end state
    /// (quiescence) rather than a deadlock.
    fn is_accepting(&self, state: &Self::State) -> bool;
}

/// Why an exploration stopped reporting a state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every reachable state within the bounds satisfies the invariants and
    /// every terminal state is accepting.
    Ok,
    /// A state violated a safety invariant.
    Violation,
    /// A non-accepting state had no enabled actions.
    Deadlock,
}

/// A counterexample: the action sequence from the initial state to the bad
/// state, rendered via each action's `Debug` form. Replaying the actions in
/// order through [`TransitionSystem::apply`] reproduces the state exactly.
#[derive(Clone, Debug)]
pub struct Trace {
    pub steps: Vec<String>,
    /// Invariant-violation detail (empty for deadlocks).
    pub detail: String,
}

/// Everything an exploration produced.
#[derive(Clone, Debug)]
pub struct Exploration {
    pub verdict: Verdict,
    /// Distinct states visited.
    pub states: usize,
    /// Depth of the deepest state expanded.
    pub depth: usize,
    /// True if the state or depth bound cut the search short, so `Ok` only
    /// certifies the explored prefix.
    pub truncated: bool,
    /// Counterexample for `Violation` / `Deadlock`.
    pub trace: Option<Trace>,
}

impl Exploration {
    pub fn ok(&self) -> bool {
        self.verdict == Verdict::Ok
    }
}

/// Exhaustively explore `sys` breadth-first up to `max_depth` actions and
/// `max_states` distinct states. The first invariant violation or deadlock
/// (shallowest, by BFS order) stops the search and yields its trace.
pub fn explore<S: TransitionSystem>(sys: &S, max_depth: usize, max_states: usize) -> Exploration {
    let mut visited = BTreeSet::new();
    bfs(
        sys,
        max_depth,
        max_states,
        |state| state,
        |_, enabled| enabled,
        |state| visited.insert(state.clone()),
    )
}

/// The one breadth-first loop under [`explore`] and
/// [`crate::reduce::explore_reduced`]. The caller supplies the three points
/// a reduction changes: `canon` maps every state to the representative it
/// is stored and expanded as, `ample` picks the enabled actions to expand
/// (called once per expanded state), and `admit` inserts into the visited
/// set, answering whether the state was new.
pub(crate) fn bfs<S: TransitionSystem>(
    sys: &S,
    max_depth: usize,
    max_states: usize,
    canon: impl Fn(S::State) -> S::State,
    mut ample: impl FnMut(&S::State, Vec<S::Action>) -> Vec<S::Action>,
    mut admit: impl FnMut(&S::State) -> bool,
) -> Exploration {
    // Back-pointers for trace reconstruction, one per state ever admitted;
    // full states live only in the frontier.
    struct NodeRec {
        parent: Option<(usize, String)>,
        depth: usize,
    }
    let mut arena: Vec<NodeRec> = vec![NodeRec {
        parent: None,
        depth: 0,
    }];
    let mut frontier: VecDeque<(usize, S::State)> = VecDeque::new();
    let init = canon(sys.initial());
    admit(&init);
    frontier.push_back((0, init));

    let mut truncated = false;
    let mut max_seen_depth = 0;
    let mut bad: Option<(Verdict, usize, String)> = None;
    while let Some((at, state)) = frontier.pop_front() {
        let depth = arena[at].depth;
        max_seen_depth = max_seen_depth.max(depth);

        if let Some(detail) = sys.violation(&state) {
            bad = Some((Verdict::Violation, at, detail));
            break;
        }
        let actions = sys.actions(&state);
        if actions.is_empty() {
            if !sys.is_accepting(&state) {
                bad = Some((Verdict::Deadlock, at, String::new()));
                break;
            }
            continue;
        }
        if depth >= max_depth {
            truncated = true;
            continue;
        }
        let actions = ample(&state, actions);
        debug_assert!(!actions.is_empty(), "ample set must be nonempty");
        for a in actions {
            let next = canon(sys.apply(&state, &a));
            if !admit(&next) {
                continue;
            }
            if arena.len() >= max_states {
                truncated = true;
                continue;
            }
            frontier.push_back((arena.len(), next));
            arena.push(NodeRec {
                parent: Some((at, format!("{a:?}"))),
                depth: depth + 1,
            });
        }
    }

    let (verdict, trace) = match bad {
        None => (Verdict::Ok, None),
        Some((verdict, mut at, detail)) => {
            let mut steps = Vec::new();
            while let Some((p, a)) = &arena[at].parent {
                steps.push(a.clone());
                at = *p;
            }
            steps.reverse();
            (verdict, Some(Trace { steps, detail }))
        }
    };
    Exploration {
        verdict,
        states: arena.len(),
        depth: max_seen_depth,
        truncated,
        trace,
    }
}

/// Seeded random walks: `walks` runs of up to `depth` uniformly-chosen
/// actions each. Far cheaper than [`explore`] per state and reaches depths
/// the exhaustive bound cannot; the same `seed` always reproduces the same
/// walks, so a reported trace is replayable by re-running with that seed.
pub fn random_walks<S: TransitionSystem>(
    sys: &S,
    seed: u64,
    walks: u32,
    depth: usize,
) -> Exploration {
    let mut rng = Pcg32::with_stream(seed, 0x51ed);
    let mut states_seen = 0usize;
    let mut max_depth = 0usize;
    for _ in 0..walks {
        let mut state = sys.initial();
        let mut steps: Vec<String> = Vec::new();
        for d in 0..depth {
            if let Some(detail) = sys.violation(&state) {
                return Exploration {
                    verdict: Verdict::Violation,
                    states: states_seen,
                    depth: max_depth.max(d),
                    truncated: true,
                    trace: Some(Trace { steps, detail }),
                };
            }
            let actions = sys.actions(&state);
            if actions.is_empty() {
                if !sys.is_accepting(&state) {
                    return Exploration {
                        verdict: Verdict::Deadlock,
                        states: states_seen,
                        depth: max_depth.max(d),
                        truncated: true,
                        trace: Some(Trace {
                            steps,
                            detail: String::new(),
                        }),
                    };
                }
                break;
            }
            let a = &actions[rng.gen_index(0, actions.len())];
            steps.push(format!("{a:?}"));
            state = sys.apply(&state, a);
            states_seen += 1;
            max_depth = max_depth.max(d + 1);
        }
    }
    Exploration {
        verdict: Verdict::Ok,
        states: states_seen,
        depth: max_depth,
        truncated: true, // sampling never certifies the full space
        trace: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter that must stay below a limit; `Bump` increments, `Reset`
    /// clears. With `limit` unreachable within the depth bound, exploration
    /// is clean; otherwise it finds the shortest bump sequence.
    struct Counter {
        limit: u32,
        stuck_at: Option<u32>,
    }

    impl TransitionSystem for Counter {
        type State = u32;
        type Action = &'static str;

        fn initial(&self) -> u32 {
            0
        }
        fn actions(&self, s: &u32) -> Vec<&'static str> {
            if Some(*s) == self.stuck_at {
                return Vec::new(); // deadlock: not accepting, no moves
            }
            vec!["bump", "reset"]
        }
        fn apply(&self, s: &u32, a: &&'static str) -> u32 {
            match *a {
                "bump" => s + 1,
                _ => 0,
            }
        }
        fn violation(&self, s: &u32) -> Option<String> {
            (*s >= self.limit).then(|| format!("counter reached {s}"))
        }
        fn is_accepting(&self, _: &u32) -> bool {
            false
        }
    }

    #[test]
    fn finds_shortest_violation() {
        let sys = Counter {
            limit: 3,
            stuck_at: None,
        };
        let ex = explore(&sys, 10, 10_000);
        assert_eq!(ex.verdict, Verdict::Violation);
        let t = ex.trace.unwrap();
        assert_eq!(t.steps, vec!["\"bump\""; 3]);
        assert!(t.detail.contains("3"));
    }

    #[test]
    fn clean_within_bound_is_truncated_ok() {
        let sys = Counter {
            limit: 100,
            stuck_at: None,
        };
        let ex = explore(&sys, 5, 10_000);
        assert_eq!(ex.verdict, Verdict::Ok);
        assert!(ex.truncated, "depth bound must mark the result partial");
        assert_eq!(ex.states, 6); // counter values 0..=5; resets dedup to 0
    }

    #[test]
    fn detects_deadlock() {
        let sys = Counter {
            limit: 100,
            stuck_at: Some(2),
        };
        let ex = explore(&sys, 10, 10_000);
        assert_eq!(ex.verdict, Verdict::Deadlock);
        assert_eq!(ex.trace.unwrap().steps.len(), 2);
    }

    #[test]
    fn random_walks_reproduce_with_seed() {
        let sys = Counter {
            limit: 4,
            stuck_at: None,
        };
        let a = random_walks(&sys, 7, 50, 20);
        let b = random_walks(&sys, 7, 50, 20);
        assert_eq!(a.verdict, b.verdict);
        match (&a.trace, &b.trace) {
            (Some(x), Some(y)) => assert_eq!(x.steps, y.steps),
            (None, None) => {}
            _ => panic!("seeded walks diverged"),
        }
    }
}
