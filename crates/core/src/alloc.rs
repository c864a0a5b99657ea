//! Work allocation and movement planning (§3.2).
//!
//! The master computes a new distribution in which the work assigned to
//! each slave is proportional to its contribution to the aggregate
//! computation rate, then derives movement instructions:
//!
//! * **Direct** (Fig. 1a): applications without loop-carried dependences —
//!   surplus slaves ship units straight to deficit slaves.
//! * **AdjacentOnly** (Fig. 1b): pipelined applications — only boundary
//!   shifts between logically adjacent slaves are allowed, so the block
//!   distribution (and hence the number of processor-boundary dependences)
//!   is preserved; intermediate slaves participate in multi-hop shifts.

use crate::msg::{Edge, MoveOrder};

/// Split `total` units proportionally to `rates` using the largest-remainder
/// method, guaranteeing every slave at least `min_per_slave` (as long as
/// `total >= n * min_per_slave`). Zero or unmeasured rates fall back to an
/// equal split. The by-value form of [`proportional_allocation_into`].
pub fn proportional_allocation(total: u64, rates: &[f64], min_per_slave: u64) -> Vec<u64> {
    let (mut shares, mut order) = (vec![0; rates.len()], vec![(0.0, 0); rates.len()]);
    proportional_allocation_into(total, rates, min_per_slave, &mut shares, &mut order);
    shares
}

/// [`proportional_allocation`] into caller-owned buffers, allocating
/// nothing: `shares` receives the split and `order` is scratch for the
/// `(remainder, slave)` pairs; both are `rates.len()` long. Each slave's
/// exact share, floor and remainder are computed once; the `leftover`
/// extra units go to the largest remainders (ties to the lower index),
/// found by selection rather than a full sort.
pub fn proportional_allocation_into(
    total: u64,
    rates: &[f64],
    min_per_slave: u64,
    shares: &mut [u64],
    order: &mut [(f64, usize)],
) {
    let n = rates.len();
    assert!(n > 0, "no slaves");
    assert!(
        shares.len() == n && order.len() == n,
        "buffers sized to the slaves"
    );
    let sum: f64 = rates.iter().sum();
    // `!(sum > 0.0)` deliberately catches NaN as well as zero/negative.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(sum > 0.0) || rates.iter().any(|r| !r.is_finite() || *r < 0.0) {
        // Equal split.
        let base = total / n as u64;
        let rem = (total % n as u64) as usize;
        for (i, s) in shares.iter_mut().enumerate() {
            *s = base + u64::from(i < rem);
        }
        return;
    }
    let floor_min = if total >= min_per_slave * n as u64 {
        min_per_slave
    } else {
        0
    };
    let distributable = total - floor_min * n as u64;
    // Largest remainder over the distributable part.
    let mut assigned = 0u64;
    for (i, ((r, s), o)) in rates.iter().zip(&mut *shares).zip(&mut *order).enumerate() {
        let exact = distributable as f64 * r / sum;
        let floor = exact.floor();
        *s = floor as u64;
        *o = (exact - floor, i);
        assigned += *s;
    }
    // Every full round of leftovers gives each slave one more unit; the
    // rest go to the largest remainders.
    let leftover = distributable - assigned;
    let (rounds, extra) = (leftover / n as u64, (leftover % n as u64) as usize);
    if extra > 0 {
        let by_remainder =
            |a: &(f64, usize), b: &(f64, usize)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
        order.select_nth_unstable_by(extra - 1, by_remainder);
        for &(_, i) in &order[..extra] {
            shares[i] += 1;
        }
    }
    for s in shares.iter_mut() {
        *s += floor_min + rounds;
    }
    debug_assert_eq!(shares.iter().sum::<u64>(), total);
}

/// Plan direct moves turning `current` into `target` (equal sums): greedy
/// largest-surplus → largest-deficit pairing. Returns per-source orders.
pub fn plan_direct_moves(current: &[u64], target: &[u64]) -> Vec<(usize, MoveOrder)> {
    assert_eq!(current.len(), target.len());
    debug_assert_eq!(current.iter().sum::<u64>(), target.iter().sum::<u64>());
    let mut surplus: Vec<(usize, u64)> = Vec::new();
    let mut deficit: Vec<(usize, u64)> = Vec::new();
    for i in 0..current.len() {
        use std::cmp::Ordering::*;
        match current[i].cmp(&target[i]) {
            Greater => surplus.push((i, current[i] - target[i])),
            Less => deficit.push((i, target[i] - current[i])),
            Equal => {}
        }
    }
    surplus.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    deficit.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut orders = Vec::new();
    let (mut si, mut di) = (0, 0);
    while si < surplus.len() && di < deficit.len() {
        let take = surplus[si].1.min(deficit[di].1);
        orders.push((
            surplus[si].0,
            MoveOrder {
                to: deficit[di].0,
                count: take,
                edge: Edge::High,
            },
        ));
        surplus[si].1 -= take;
        deficit[di].1 -= take;
        if surplus[si].1 == 0 {
            si += 1;
        }
        if deficit[di].1 == 0 {
            di += 1;
        }
    }
    orders
}

/// Plan adjacent-only boundary shifts turning `current` into `target`
/// (slaves own contiguous index blocks in slave order). For each boundary
/// between slave `i` and `i+1`, compare cumulative targets: a positive
/// difference shifts units right-to-left (slave `i+1` sends its lowest
/// units to `i`), negative shifts left-to-right (slave `i` sends its
/// highest units to `i+1`).
pub fn plan_adjacent_shifts(current: &[u64], target: &[u64]) -> Vec<(usize, MoveOrder)> {
    assert_eq!(current.len(), target.len());
    debug_assert_eq!(current.iter().sum::<u64>(), target.iter().sum::<u64>());
    let mut orders = Vec::new();
    let mut cur_cum = 0i128;
    let mut tgt_cum = 0i128;
    for i in 0..current.len().saturating_sub(1) {
        cur_cum += current[i] as i128;
        tgt_cum += target[i] as i128;
        let diff = tgt_cum - cur_cum; // >0: boundary moves right: i+1 -> i
        if diff > 0 {
            orders.push((
                i + 1,
                MoveOrder {
                    to: i,
                    count: diff as u64,
                    edge: Edge::Low,
                },
            ));
        } else if diff < 0 {
            orders.push((
                i,
                MoveOrder {
                    to: i + 1,
                    count: (-diff) as u64,
                    edge: Edge::High,
                },
            ));
        }
    }
    orders
}

/// Projected completion time (arbitrary time units) of `alloc` under
/// `rates`: the slowest slave's `units / rate`. Slaves with zero rate and
/// nonzero units yield infinity.
pub fn projected_time(alloc: &[u64], rates: &[f64]) -> f64 {
    alloc
        .iter()
        .zip(rates)
        .map(|(&u, &r)| {
            if u == 0 {
                0.0
            } else if r > 0.0 {
                u as f64 / r
            } else {
                f64::INFINITY
            }
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_basic() {
        let a = proportional_allocation(100, &[1.0, 1.0, 1.0, 1.0], 1);
        assert_eq!(a, vec![25, 25, 25, 25]);
        let b = proportional_allocation(100, &[3.0, 1.0], 1);
        // min 1 reserved each, 98 split 3:1 = 73.5/24.5; the tie remainder
        // goes to the lower index.
        assert_eq!(b, vec![75, 25]);
        assert_eq!(b.iter().sum::<u64>(), 100);
    }

    #[test]
    fn proportional_conserves_total_exactly() {
        for total in [1u64, 7, 99, 1998] {
            for rates in [
                vec![1.0, 2.0, 3.0],
                vec![0.1, 0.1, 0.7, 0.3],
                vec![5.0; 8],
                vec![1e-9, 1.0],
            ] {
                let a = proportional_allocation(total, &rates, 1);
                assert_eq!(a.iter().sum::<u64>(), total, "{total} {rates:?}");
            }
        }
    }

    #[test]
    fn zero_rates_fall_back_to_equal() {
        let a = proportional_allocation(10, &[0.0, 0.0, 0.0], 1);
        assert_eq!(a, vec![4, 3, 3]);
    }

    #[test]
    fn min_per_slave_respected() {
        // Rate ratio 1000:1 but everyone keeps at least one unit.
        let a = proportional_allocation(10, &[1000.0, 1.0, 1.0, 1.0], 1);
        assert!(a.iter().all(|&u| u >= 1), "{a:?}");
        assert_eq!(a.iter().sum::<u64>(), 10);
        // Unless the total is too small to honor it.
        let b = proportional_allocation(2, &[1.0, 1.0, 1.0], 1);
        assert_eq!(b.iter().sum::<u64>(), 2);
    }

    #[test]
    fn loaded_slave_gets_proportionally_less() {
        // Paper scenario: one slave at half rate (one competing task).
        let a = proportional_allocation(500, &[0.5, 1.0, 1.0, 1.0], 1);
        assert_eq!(a.iter().sum::<u64>(), 500);
        assert!((a[0] as f64 - 500.0 / 7.0).abs() < 2.0, "{a:?}");
        assert!((a[1] as f64 - 1000.0 / 7.0).abs() < 2.0, "{a:?}");
    }

    #[test]
    fn direct_moves_conserve_and_resolve() {
        let cur = vec![40, 20, 20, 20];
        let tgt = vec![10, 30, 30, 30];
        let orders = plan_direct_moves(&cur, &tgt);
        // Apply the orders and check we reach the target.
        let mut state = cur.clone();
        for (from, o) in &orders {
            state[*from] -= o.count;
            state[o.to] += o.count;
            assert_eq!(o.edge, Edge::High);
        }
        assert_eq!(state, tgt);
    }

    #[test]
    fn direct_moves_empty_when_balanced() {
        assert!(plan_direct_moves(&[5, 5], &[5, 5]).is_empty());
    }

    #[test]
    fn adjacent_shifts_simple() {
        // One boundary shift: s0 overloaded.
        let orders = plan_adjacent_shifts(&[30, 10], &[20, 20]);
        assert_eq!(orders.len(), 1);
        assert_eq!(orders[0].0, 0);
        assert_eq!(
            orders[0].1,
            MoveOrder {
                to: 1,
                count: 10,
                edge: Edge::High
            }
        );
    }

    #[test]
    fn adjacent_shifts_chain() {
        // All surplus at s0, deficits at s2: s0->s1 and s1->s2 (multi-hop,
        // the paper's "intermediate processors may be involved").
        let orders = plan_adjacent_shifts(&[30, 10, 10], &[10, 20, 20]);
        assert_eq!(
            orders,
            vec![
                (
                    0,
                    MoveOrder {
                        to: 1,
                        count: 20,
                        edge: Edge::High
                    }
                ),
                (
                    1,
                    MoveOrder {
                        to: 2,
                        count: 10,
                        edge: Edge::High
                    }
                ),
            ]
        );
    }

    #[test]
    fn adjacent_shifts_both_directions() {
        let orders = plan_adjacent_shifts(&[10, 30, 10], &[17, 16, 17]);
        // Boundary 0: s1 sends its low 7 to s0. Boundary 1: s1 sends high 7 to s2.
        assert_eq!(
            orders,
            vec![
                (
                    1,
                    MoveOrder {
                        to: 0,
                        count: 7,
                        edge: Edge::Low
                    }
                ),
                (
                    1,
                    MoveOrder {
                        to: 2,
                        count: 7,
                        edge: Edge::High
                    }
                ),
            ]
        );
    }

    #[test]
    fn adjacent_preserves_contiguity() {
        // Property: applying boundary shifts to contiguous blocks yields
        // contiguous blocks with the target sizes.
        let cur = vec![12u64, 3, 9, 8];
        let tgt = vec![5u64, 9, 9, 9];
        let orders = plan_adjacent_shifts(&cur, &tgt);
        // Simulate contiguous ranges.
        let mut bounds = vec![0u64];
        for c in &cur {
            let last = *bounds.last().unwrap();
            bounds.push(last + c);
        }
        // Apply shifts to cumulative boundaries.
        for (from, o) in &orders {
            let b = if o.to == from + 1 { from + 1 } else { *from };
            if o.to == from + 1 {
                bounds[b] -= o.count; // boundary moves left
            } else {
                bounds[b] += o.count; // boundary moves right
            }
        }
        let result: Vec<u64> = bounds.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(result, tgt);
    }

    #[test]
    fn projected_time_basics() {
        assert_eq!(projected_time(&[10, 10], &[1.0, 2.0]), 10.0);
        assert_eq!(projected_time(&[0, 10], &[0.0, 2.0]), 5.0);
        assert_eq!(projected_time(&[1, 10], &[0.0, 2.0]), f64::INFINITY);
    }
}
