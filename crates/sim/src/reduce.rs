//! State-space reductions for the explicit-state explorer: symmetry
//! (orbit canonicalization), partial-order (ample sets), and 64-bit state
//! fingerprinting.
//!
//! The naive [`crate::explore::explore`] enumerates every interleaving of
//! every concretely-named process, which caps the checkable width of a
//! protocol model at a handful of slaves. The three reductions here close
//! the gap to runtime widths (16 slaves / deputies):
//!
//! * **Symmetry** ([`Symmetric`]): slaves with identical roles are
//!   interchangeable, so the explorer visits one canonical representative
//!   per permutation orbit. `canonical` must return a state *in the orbit
//!   of its input* (i.e. reachable by an admissible relabeling); any
//!   imperfection in which representative is chosen costs deduplication,
//!   never soundness — two states merge only if one is literally a
//!   relabeling of the other.
//! * **Partial order** ([`Ample`]): commuting independent actions (e.g.
//!   an acknowledgement delivery that only advances a sender watermark)
//!   need only one interleaving. `ample` returns a nonempty subset of the
//!   enabled actions to expand; returning the full set opts out.
//! * **Fingerprinting** ([`ReduceConfig::fingerprint`]): the visited set
//!   stores 64-bit FNV-1a hashes of canonical states instead of the states
//!   themselves, cutting the dominant memory cost at wide frontiers. A
//!   hash collision silently merges two distinct states (possible missed
//!   bug, never a false alarm); the exact mode is the escape hatch.
//!
//! Counterexample traces from a symmetry-reduced run are sequences of
//! actions valid from each *canonical* state: replay them by applying the
//! action and then re-canonicalizing after every step.

use crate::explore::{bfs, Exploration, TransitionSystem};
use std::collections::{BTreeSet, HashSet};
use std::hash::{Hash, Hasher};

/// Deterministic 64-bit FNV-1a [`Hasher`] used for state fingerprints, so
/// fingerprints (unlike `std`'s randomly-keyed defaults) are stable across
/// runs and replayable.
#[derive(Clone, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(0xcbf29ce484222325)
    }
}

impl Hasher for Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of a (canonical) state.
pub fn fingerprint<T: Hash>(value: &T) -> u64 {
    let mut h = Fnv64::default();
    value.hash(&mut h);
    h.finish()
}

/// A transition system whose states can be canonicalized under a symmetry
/// group (typically: permutations of interchangeable slave/deputy indices).
pub trait Symmetric: TransitionSystem {
    /// Map `state` to the canonical representative of its orbit. Must
    /// return a state reachable from `state` by an admissible relabeling —
    /// in particular `canonical(canonical(s)) == canonical(s)` and the
    /// invariants ([`TransitionSystem::violation`],
    /// [`TransitionSystem::is_accepting`]) must be permutation-invariant.
    fn canonical(&self, state: &Self::State) -> Self::State;
}

/// A transition system that can name an ample subset of its enabled
/// actions: expanding only the subset must preserve every invariant
/// verdict (the actions left out commute with the chosen ones and stay
/// enabled until taken).
pub trait Ample: TransitionSystem {
    /// Select the subset of `enabled` to expand from `state`. Must be
    /// nonempty whenever `enabled` is; returning `enabled` unchanged opts
    /// out of the reduction for this state.
    fn ample(&self, state: &Self::State, enabled: Vec<Self::Action>) -> Vec<Self::Action>;
}

/// Bounds for [`explore_reduced`], and how it remembers what it visited.
/// Symmetry and ample sets are always on: without both, the search is
/// [`crate::explore::explore`].
#[derive(Clone, Copy, Debug)]
pub struct ReduceConfig {
    pub max_depth: usize,
    pub max_states: usize,
    /// Store 64-bit fingerprints in the visited set instead of full states
    /// (exact mode is the collision-free escape hatch).
    pub fingerprint: bool,
}

impl Default for ReduceConfig {
    fn default() -> ReduceConfig {
        ReduceConfig {
            max_depth: 64,
            max_states: 2_000_000,
            fingerprint: true,
        }
    }
}

/// Counters the reductions expose for benchmarking and capacity planning.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReduceStats {
    /// States whose actions were expanded.
    pub expanded: usize,
    /// Enabled actions skipped by the ample-set reduction.
    pub pruned_actions: usize,
    /// Approximate bytes held by the visited set at the end of the search
    /// (8 per fingerprint; a shallow size estimate per exact state).
    pub visited_bytes: usize,
}

enum Visited<T: Ord + Hash> {
    Exact(BTreeSet<T>),
    Finger(HashSet<u64>),
}

impl<T: Ord + Hash + Clone> Visited<T> {
    /// Insert; true if the state was new.
    fn insert(&mut self, state: &T) -> bool {
        match self {
            Visited::Exact(set) => set.insert(state.clone()),
            Visited::Finger(set) => set.insert(fingerprint(state)),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Visited::Exact(set) => set.len() * std::mem::size_of::<T>(),
            Visited::Finger(set) => set.len() * std::mem::size_of::<u64>(),
        }
    }
}

/// Exhaustive BFS over canonical states, expanding ample subsets. Same
/// contract as [`crate::explore::explore`] — it is the same loop: the
/// shallowest violation or deadlock found stops the search and yields its
/// trace (replay with re-canonicalization after each step).
pub fn explore_reduced<S>(sys: &S, cfg: &ReduceConfig) -> (Exploration, ReduceStats)
where
    S: Symmetric + Ample,
    S::State: Hash,
{
    let mut stats = ReduceStats::default();
    let mut visited: Visited<S::State> = if cfg.fingerprint {
        Visited::Finger(HashSet::new())
    } else {
        Visited::Exact(BTreeSet::new())
    };
    let ex = bfs(
        sys,
        cfg.max_depth,
        cfg.max_states,
        |state| sys.canonical(&state),
        |state, enabled| {
            let full = enabled.len();
            let subset = sys.ample(state, enabled);
            stats.expanded += 1;
            stats.pruned_actions += full - subset.len();
            subset
        },
        |state| visited.insert(state),
    );
    stats.visited_bytes = visited.bytes();
    (ex, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, Verdict};

    /// Tokens on N symmetric pegs: `Add(p)` places one of a bounded pool on
    /// peg `p`, `Take(p)` removes one. The invariant caps any single peg.
    /// Pegs are fully interchangeable, and adds to distinct pegs commute.
    struct Pegs {
        pegs: usize,
        pool: u32,
        cap: u32,
    }

    impl TransitionSystem for Pegs {
        type State = (Vec<u32>, u32);
        type Action = (&'static str, usize);

        fn initial(&self) -> Self::State {
            (vec![0; self.pegs], self.pool)
        }
        fn actions(&self, s: &Self::State) -> Vec<Self::Action> {
            let mut out = Vec::new();
            for p in 0..self.pegs {
                if s.1 > 0 {
                    out.push(("add", p));
                }
                if s.0[p] > 0 {
                    out.push(("take", p));
                }
            }
            out
        }
        fn apply(&self, s: &Self::State, a: &Self::Action) -> Self::State {
            let mut n = s.clone();
            match a.0 {
                "add" => {
                    n.0[a.1] += 1;
                    n.1 -= 1;
                }
                _ => {
                    n.0[a.1] -= 1;
                    n.1 += 1;
                }
            }
            n
        }
        fn violation(&self, s: &Self::State) -> Option<String> {
            s.0.iter()
                .any(|&c| c > self.cap)
                .then(|| format!("peg over cap in {:?}", s.0))
        }
        fn is_accepting(&self, _: &Self::State) -> bool {
            true
        }
    }

    impl Symmetric for Pegs {
        fn canonical(&self, s: &Self::State) -> Self::State {
            let mut n = s.clone();
            n.0.sort_unstable();
            n
        }
    }

    impl Ample for Pegs {
        fn ample(&self, _s: &Self::State, enabled: Vec<Self::Action>) -> Vec<Self::Action> {
            enabled
        }
    }

    fn cfg(fingerprint: bool) -> ReduceConfig {
        ReduceConfig {
            max_depth: 32,
            max_states: 1_000_000,
            fingerprint,
        }
    }

    #[test]
    fn symmetry_collapses_peg_orbits() {
        let sys = Pegs {
            pegs: 6,
            pool: 3,
            cap: 9,
        };
        let full = explore(&sys, 32, 1_000_000);
        let (reduced, _) = explore_reduced(&sys, &cfg(false));
        assert_eq!(full.verdict, Verdict::Ok);
        assert_eq!(reduced.verdict, Verdict::Ok);
        assert!(
            reduced.states * 4 < full.states,
            "orbits must collapse: {} vs {}",
            reduced.states,
            full.states
        );
    }

    #[test]
    fn reduced_still_finds_the_violation() {
        let sys = Pegs {
            pegs: 4,
            pool: 3,
            cap: 2,
        };
        for fingerprint in [false, true] {
            let (ex, _) = explore_reduced(&sys, &cfg(fingerprint));
            assert_eq!(ex.verdict, Verdict::Violation);
            let t = ex.trace.unwrap();
            assert_eq!(t.steps.len(), 3, "shortest path is three adds");
        }
    }

    #[test]
    fn fingerprint_and_exact_agree() {
        let sys = Pegs {
            pegs: 5,
            pool: 4,
            cap: 9,
        };
        let (exact, se) = explore_reduced(&sys, &cfg(false));
        let (finger, sf) = explore_reduced(&sys, &cfg(true));
        assert_eq!(exact.verdict, finger.verdict);
        assert_eq!(exact.states, finger.states);
        assert!(
            sf.visited_bytes < se.visited_bytes,
            "fingerprints must be smaller: {} vs {}",
            sf.visited_bytes,
            se.visited_bytes
        );
    }

    #[test]
    fn fingerprints_are_deterministic() {
        assert_eq!(
            fingerprint(&(1u32, vec![2u8, 3])),
            fingerprint(&(1u32, vec![2u8, 3]))
        );
        assert_ne!(fingerprint(&1u64), fingerprint(&2u64));
    }
}
