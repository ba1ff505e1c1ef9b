//! Property-based tests for the optimization substrate.

use mobirescue_solver::hungarian::{min_cost_assignment, CostMatrix};
use proptest::prelude::*;

fn matrix(rows: usize, cols: usize, values: &[f64]) -> CostMatrix {
    CostMatrix::from_fn(rows, cols, |r, c| values[r * cols + c])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The Hungarian result is a matching, never worse than any random
    /// permutation, and invariant under adding a constant to a row.
    #[test]
    fn hungarian_optimality_properties(
        n in 2usize..6,
        values in prop::collection::vec(0.0f64..100.0, 36),
        shift in 0.0f64..50.0,
    ) {
        let cost = matrix(n, n, &values);
        let sol = min_cost_assignment(&cost);
        // Matching: all rows assigned, no column reuse.
        let cols: Vec<usize> = sol.row_to_col.iter().flatten().copied().collect();
        prop_assert_eq!(cols.len(), n);
        let distinct: std::collections::HashSet<_> = cols.iter().collect();
        prop_assert_eq!(distinct.len(), n);
        // Not worse than the identity permutation.
        let identity: f64 = (0..n).map(|i| cost.get(i, i)).sum();
        prop_assert!(sol.total_cost <= identity + 1e-9);
        // Row-shift invariance of the argmin (total shifts by `shift`).
        let shifted = CostMatrix::from_fn(n, n, |r, c| {
            cost.get(r, c) + if r == 0 { shift } else { 0.0 }
        });
        let sol2 = min_cost_assignment(&shifted);
        prop_assert!((sol2.total_cost - sol.total_cost - shift).abs() < 1e-6);
    }

    /// Rectangular problems match their square zero-padded equivalents.
    #[test]
    fn hungarian_rectangular_equals_padded(
        rows in 2usize..5,
        extra in 1usize..4,
        values in prop::collection::vec(0.0f64..100.0, 64),
    ) {
        let cols = rows + extra;
        let cost = matrix(rows, cols, &values);
        let rect = min_cost_assignment(&cost).total_cost;
        let padded = CostMatrix::from_fn(cols, cols, |r, c| {
            if r < rows { cost.get(r, c) } else { 0.0 }
        });
        let square = min_cost_assignment(&padded).total_cost;
        prop_assert!((rect - square).abs() < 1e-9);
    }
}

#[test]
fn hungarian_handles_negative_costs() {
    // Potentials-based Hungarian is correct for arbitrary signs.
    let cost = CostMatrix::from_fn(3, 3, |r, c| {
        [[-5.0, 2.0, 8.0], [3.0, -7.0, 1.0], [9.0, 4.0, -2.0]][r][c]
    });
    let sol = min_cost_assignment(&cost);
    assert_eq!(sol.total_cost, -14.0, "diagonal is optimal");
    assert_eq!(sol.row_to_col, vec![Some(0), Some(1), Some(2)]);
}

#[test]
fn hungarian_single_cell() {
    let cost = CostMatrix::new(1, 1, 42.0);
    let sol = min_cost_assignment(&cost);
    assert_eq!(sol.total_cost, 42.0);
    assert_eq!(sol.row_to_col, vec![Some(0)]);
}
