//! Randomized property tests for the balancer's pure decision machinery.
//!
//! Driven by the crate's own deterministic PCG generator (seeded loops)
//! so the suite is hermetic — no external property-testing dependency —
//! and every failure reproduces exactly.

use dlb_core::alloc::{
    plan_adjacent_shifts, plan_direct_moves, proportional_allocation, proportional_allocation_into,
};
use dlb_core::RateFilter;
use dlb_sim::Pcg32;

const CASES: u64 = 300;

/// Allocation conserves the total, honors the per-slave minimum when
/// feasible, and is within one unit of the exact proportional share
/// (largest-remainder property).
#[test]
fn allocation_proportionality() {
    let mut rng = Pcg32::new(0xA110C);
    for case in 0..CASES {
        let total = 1 + rng.gen_range(0, 4999);
        let n = 1 + rng.gen_range(0, 15) as usize;
        let rates: Vec<f64> = (0..n).map(|_| 0.01 + rng.next_f64() * 99.99).collect();
        let n = n as u64;
        let a = proportional_allocation(total, &rates, 1);
        assert_eq!(
            a.iter().sum::<u64>(),
            total,
            "case {case}: total not conserved"
        );
        if total >= n {
            assert!(a.iter().all(|&u| u >= 1), "case {case}: minimum violated");
            let sum: f64 = rates.iter().sum();
            let distributable = (total - n) as f64;
            for (i, &u) in a.iter().enumerate() {
                let exact = 1.0 + distributable * rates[i] / sum;
                assert!(
                    (u as f64 - exact).abs() <= 1.0 + 1e-9,
                    "case {case}, slave {i}: {u} vs exact {exact:.3}"
                );
            }
        }
    }
}

/// Direct move plans transform current into target exactly, and no
/// order exceeds the sender's holdings.
#[test]
fn direct_plans_reach_target() {
    let mut rng = Pcg32::new(0xD14EC7);
    for case in 0..CASES {
        let n = 2 + rng.gen_range(0, 10) as usize;
        let current: Vec<u64> = (0..n).map(|_| rng.gen_range(0, 200)).collect();
        let rates: Vec<f64> = (0..n).map(|_| 0.01 + rng.next_f64() * 9.99).collect();
        let total: u64 = current.iter().sum();
        let target = proportional_allocation(total, &rates, 0);
        let orders = plan_direct_moves(&current, &target);
        let mut state = current.clone();
        for (from, o) in &orders {
            assert!(
                state[*from] >= o.count,
                "case {case}: order exceeds holdings"
            );
            state[*from] -= o.count;
            state[o.to] += o.count;
        }
        assert_eq!(state, target, "case {case}: plan missed target");
    }
}

/// Adjacent shift plans also reach the target, and every order is
/// between neighbours.
#[test]
fn adjacent_plans_reach_target() {
    let mut rng = Pcg32::new(0xAD7ACE);
    for case in 0..CASES {
        let n = 2 + rng.gen_range(0, 10) as usize;
        let counts: Vec<u64> = (0..n).map(|_| rng.gen_range(0, 200)).collect();
        let rates: Vec<f64> = (0..n).map(|_| 0.01 + rng.next_f64() * 9.99).collect();
        let total: u64 = counts.iter().sum();
        let target = proportional_allocation(total, &rates, 0);
        // Chains may require receiving before sending; the runtime clamps
        // each order to the sender's holdings and the master re-plans at
        // the next status. Model that: apply clamped rounds until stable;
        // multi-hop chains must converge within n rounds.
        let mut state = counts.clone();
        for _round in 0..n + 1 {
            let orders = plan_adjacent_shifts(&state, &target);
            if orders.is_empty() {
                break;
            }
            for (from, o) in &orders {
                assert!(
                    *from + 1 == o.to || o.to + 1 == *from,
                    "case {case}: non-adjacent order"
                );
                let give = state[*from].min(o.count);
                state[*from] -= give;
                state[o.to] += give;
            }
            assert_eq!(
                state.iter().sum::<u64>(),
                total,
                "case {case}: conservation"
            );
        }
        assert_eq!(state, target, "case {case}: chains failed to converge");
    }
}

/// The rate filter's output always stays within the range of the inputs
/// it has seen (convex updates cannot overshoot the observed history).
#[test]
fn filter_stays_within_observed_range() {
    let mut rng = Pcg32::new(0xF117E6);
    for case in 0..CASES {
        let len = 1 + rng.gen_range(0, 59) as usize;
        let samples: Vec<f64> = (0..len).map(|_| rng.next_f64() * 1000.0).collect();
        let mut f = RateFilter::default();
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for &s in &samples {
            lo = lo.min(s);
            hi = hi.max(s);
            let adj = f.update(s);
            assert!(
                adj >= lo - 1e-9 && adj <= hi + 1e-9,
                "case {case}: {adj} not in [{lo}, {hi}]"
            );
        }
    }
}

/// Feeding a constant rate converges to it exactly.
#[test]
fn filter_converges_to_constant() {
    let mut rng = Pcg32::new(0xC0117E6);
    for case in 0..CASES {
        let rate = 0.1 + rng.next_f64() * 999.9;
        let mut f = RateFilter::default();
        let mut adj = 0.0;
        for _ in 0..50 {
            adj = f.update(rate);
        }
        assert!(
            (adj - rate).abs() < rate * 0.01,
            "case {case}: {adj} did not converge to {rate}"
        );
    }
}

/// The sort-based largest-remainder allocation as it stood before the
/// remainders were computed once and selected: kept verbatim as the
/// reference the current code must match bit for bit.
fn reference_allocation(total: u64, rates: &[f64], min_per_slave: u64) -> Vec<u64> {
    let n = rates.len();
    assert!(n > 0, "no slaves");
    let sum: f64 = rates.iter().sum();
    // `!(sum > 0.0)` deliberately catches NaN as well as zero/negative.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(sum > 0.0) || rates.iter().any(|r| !r.is_finite() || *r < 0.0) {
        // Equal split.
        let base = total / n as u64;
        let rem = (total % n as u64) as usize;
        return (0..n).map(|i| base + u64::from(i < rem)).collect();
    }
    let floor_min = if total >= min_per_slave * n as u64 {
        min_per_slave
    } else {
        0
    };
    let distributable = total - floor_min * n as u64;
    // Largest remainder over the distributable part.
    let exact: Vec<f64> = rates
        .iter()
        .map(|r| distributable as f64 * r / sum)
        .collect();
    let mut shares: Vec<u64> = exact.iter().map(|e| e.floor() as u64).collect();
    let assigned: u64 = shares.iter().sum();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let fa = exact[a] - exact[a].floor();
        let fb = exact[b] - exact[b].floor();
        fb.partial_cmp(&fa).unwrap().then(a.cmp(&b))
    });
    let mut leftover = distributable - assigned;
    for &i in order.iter().cycle() {
        if leftover == 0 {
            break;
        }
        shares[i] += 1;
        leftover -= 1;
    }
    for s in &mut shares {
        *s += floor_min;
    }
    debug_assert_eq!(shares.iter().sum::<u64>(), total);
    shares
}

/// Rates of one of the shapes the balancer meets: random, all equal, a few
/// tied values, some zero, or a mix of tiny and large.
fn rates_of_shape(rng: &mut Pcg32, n: usize, shape: u64) -> Vec<f64> {
    let tied = [3.0, 7.5, 7.5, 0.25];
    (0..n)
        .map(|i| match shape {
            0 => 0.01 + rng.next_f64() * 99.99,
            1 => 42.0,
            2 => tied[rng.gen_index(0, tied.len())],
            3 => {
                if rng.chance(0.3) {
                    0.0
                } else {
                    rng.next_f64() * 10.0
                }
            }
            _ => {
                if i % 3 == 0 {
                    1e-9 * (1.0 + rng.next_f64())
                } else {
                    1e6 * rng.next_f64()
                }
            }
        })
        .collect()
}

/// The allocation equals the sort-based reference exactly: widths 1-300,
/// random / equal / tied / zero / mixed rates, totals below `n *
/// min_per_slave` and up to 10^6, and the equal-split fallbacks. The
/// in-place form runs on buffers reused from case to case, so nothing a
/// previous call left there may leak into the next.
#[test]
fn allocation_matches_sorting_reference() {
    let mut rng = Pcg32::new(0x5E1EC7);
    let (mut shares, mut order) = (vec![0u64; 300], vec![(0.0, 0usize); 300]);
    let fallbacks = [f64::NAN, -1.0, 0.0, f64::INFINITY];
    for case in 0..3_000u64 {
        let n = 1 + rng.gen_index(0, 300);
        let min_per_slave = rng.gen_range(0, 3);
        let total = match case % 3 {
            0 => rng.gen_range(0, n as u64 * min_per_slave.max(1)),
            1 => rng.gen_range(0, 5_000),
            _ => rng.gen_range(0, 1_000_001),
        };
        let mut rates = rates_of_shape(&mut rng, n, case % 5);
        if case % 11 == 0 {
            // An equal-split fallback: a NaN, a negative, a zero sum or an
            // infinite rate somewhere.
            let bad = fallbacks[rng.gen_index(0, fallbacks.len())];
            if bad == 0.0 {
                rates.iter_mut().for_each(|r| *r = 0.0);
            } else {
                rates[rng.gen_index(0, n)] = bad;
            }
        }
        let expected = reference_allocation(total, &rates, min_per_slave);
        let label = format!("case {case}: total {total}, n {n}, min {min_per_slave}");
        assert_eq!(
            proportional_allocation(total, &rates, min_per_slave),
            expected,
            "{label}"
        );
        proportional_allocation_into(
            total,
            &rates,
            min_per_slave,
            &mut shares[..n],
            &mut order[..n],
        );
        assert_eq!(shares[..n], expected[..], "{label} (in place)");
    }
}
