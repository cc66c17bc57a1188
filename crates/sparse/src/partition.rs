//! Row partitioning of distributed systems.
//!
//! The paper's decomposition sends "approximately equal numbers of mesh
//! nodes to each CPU", which — with unstructured connectivity — produces
//! the load imbalance its §3.2 analyzes. We implement that contiguous even
//! split plus a work-balanced split (the paper's proposed future
//! improvement) so the ablation benchmark can compare them.

use crate::error::SparseError;
use std::ops::Range;

/// Offsets of an even contiguous split of `n` rows into `p` parts:
/// first boundary 0, last `n`. Earlier parts get the remainder.
///
/// When more parts than rows are requested (ranks exceed owned rows),
/// the effective part count is clamped to `n` instead of panicking:
/// the returned vector has `min(p, n).max(1) + 1` boundaries, so the
/// caller can read the effective rank count from `offsets.len() - 1`.
pub fn even_offsets(n: usize, p: usize) -> Vec<usize> {
    let p = p.max(1).min(n.max(1));
    if n == 0 {
        return vec![0, 0];
    }
    let base = n / p;
    let rem = n % p;
    let mut offsets = Vec::with_capacity(p + 1);
    let mut acc = 0;
    offsets.push(0);
    for i in 0..p {
        acc += base + usize::from(i < rem);
        offsets.push(acc);
    }
    offsets
}

/// [`even_offsets`] over the nodes of a node-blocked system with `nrows`
/// scalar rows, three per node, returned in scalar rows: every boundary
/// falls between nodes, as the paper's "approximately equal numbers of
/// mesh nodes to each CPU" does. This is the split of every block-Jacobi
/// preconditioner and every rank partition of such a system.
pub fn even_node_offsets(nrows: usize, p: usize) -> Vec<usize> {
    even_offsets(nrows / 3, p).into_iter().map(|o| 3 * o).collect()
}

/// Check that `offsets` cut a node-blocked system of `nrows` scalar rows
/// into parts of whole nodes: from 0 to `nrows`, strictly increasing (no
/// part is empty), every offset a multiple of 3. Anything else is
/// [`SparseError::InvalidOffsets`]. Every block-Jacobi split and every
/// rank partition of such a system is checked here.
pub fn check_node_offsets(nrows: usize, offsets: &[usize]) -> Result<(), SparseError> {
    if offsets.len() < 2 || offsets[0] != 0 || offsets[offsets.len() - 1] != nrows {
        return Err(SparseError::InvalidOffsets {
            reason: format!("offsets must run from 0 to {nrows}, got {offsets:?}"),
        });
    }
    offsets.windows(2).try_for_each(|w| check_node_range(nrows, &(w[0]..w[1])))
}

/// Check that `rows` is a non-empty range of whole nodes within `nrows`
/// scalar rows; anything else is [`SparseError::InvalidOffsets`].
pub(crate) fn check_node_range(nrows: usize, rows: &Range<usize>) -> Result<(), SparseError> {
    let reason = if rows.is_empty() || rows.end > nrows {
        format!("rows {rows:?} are empty or outside 0..{nrows}")
    } else if !rows.start.is_multiple_of(3) || !rows.end.is_multiple_of(3) {
        format!("rows {rows:?} cut a node")
    } else {
        return Ok(());
    };
    Err(SparseError::InvalidOffsets { reason })
}

/// Offsets of a contiguous split balanced by per-row weights (e.g. row
/// non-zeros, or per-node connectivity work): greedily close each part
/// once it reaches the ideal share, while guaranteeing every part is
/// non-empty and later parts still get rows.
pub fn weighted_offsets(weights: &[f64], p: usize) -> Vec<usize> {
    let n = weights.len();
    // Clamp like `even_offsets`: the effective part count is reported via
    // the offsets length instead of asserting when p exceeds the rows.
    let p = p.max(1).min(n.max(1));
    if n == 0 {
        return vec![0, 0];
    }
    let total: f64 = weights.iter().sum();
    let ideal = total / p as f64;
    let mut offsets = Vec::with_capacity(p + 1);
    offsets.push(0);
    let mut row = 0usize;
    for part in 0..p - 1 {
        let remaining_parts = p - part;
        let max_end = n - (remaining_parts - 1); // leave ≥1 row per later part
        let mut end = row;
        let mut part_sum = 0.0;
        // Take at least one row; stop when we'd overshoot the ideal more by
        // including the next row than by excluding it.
        while end < max_end {
            let w = weights[end];
            if end > row && (part_sum + w) - ideal > ideal - part_sum {
                break;
            }
            part_sum += w;
            end += 1;
            if part_sum >= ideal {
                break;
            }
        }
        end = end.max(row + 1).min(max_end);
        offsets.push(end);
        row = end;
    }
    offsets.push(n);
    offsets
}

/// Imbalance factor of a partition under per-row weights: max part weight
/// divided by mean part weight (1.0 = perfectly balanced).
pub fn imbalance(weights: &[f64], offsets: &[usize]) -> f64 {
    debug_assert!(offsets.len() >= 2);
    let p = offsets.len() - 1;
    let sums: Vec<f64> = offsets
        .windows(2)
        .map(|w| weights[w[0]..w[1]].iter().sum())
        .collect();
    let total: f64 = sums.iter().sum();
    if total <= 0.0 {
        return 1.0;
    }
    let mean = total / p as f64;
    sums.into_iter().fold(0.0f64, f64::max) / mean
}

/// Which part a row belongs to under the given offsets.
pub fn part_of(offsets: &[usize], row: usize) -> usize {
    debug_assert!(offsets.last().is_some_and(|&n| row < n));
    match offsets.binary_search(&row) {
        Ok(i) => i.min(offsets.len() - 2),
        Err(i) => i - 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_offsets_cover_all_rows() {
        let o = even_offsets(10, 3);
        assert_eq!(o, vec![0, 4, 7, 10]);
        let o = even_offsets(9, 3);
        assert_eq!(o, vec![0, 3, 6, 9]);
        let o = even_offsets(5, 5);
        assert_eq!(o, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn even_offsets_sizes_differ_by_at_most_one() {
        for n in [7usize, 100, 77511] {
            for p in 1..=16 {
                if n < p {
                    continue;
                }
                let o = even_offsets(n, p);
                let sizes: Vec<usize> = o.windows(2).map(|w| w[1] - w[0]).collect();
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(max - min <= 1);
                assert_eq!(sizes.iter().sum::<usize>(), n);
            }
        }
    }

    #[test]
    fn node_offsets_split_whole_nodes() {
        assert_eq!(even_node_offsets(30, 3), vec![0, 12, 21, 30]);
        assert_eq!(even_node_offsets(9, 5), vec![0, 3, 6, 9]);
        assert_eq!(even_node_offsets(0, 4), vec![0, 0]);
    }

    #[test]
    fn weighted_offsets_balance_skewed_weights() {
        // First half heavy, second half light.
        let mut w = vec![10.0; 50];
        w.extend(vec![1.0; 50]);
        let o_even = even_offsets(100, 4);
        let o_weighted = weighted_offsets(&w, 4);
        assert!(imbalance(&w, &o_weighted) < imbalance(&w, &o_even));
        assert_eq!(o_weighted[0], 0);
        assert_eq!(*o_weighted.last().unwrap(), 100);
        // strictly increasing
        for win in o_weighted.windows(2) {
            assert!(win[0] < win[1]);
        }
    }

    #[test]
    fn weighted_uniform_close_to_even() {
        let w = vec![1.0; 100];
        let o = weighted_offsets(&w, 4);
        assert!(imbalance(&w, &o) < 1.1);
    }

    #[test]
    fn imbalance_of_perfect_split_is_one() {
        let w = vec![1.0; 8];
        assert!((imbalance(&w, &[0, 4, 8]) - 1.0).abs() < 1e-12);
        assert!((imbalance(&w, &[0, 2, 8]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn part_of_maps_rows() {
        let o = vec![0, 4, 7, 10];
        assert_eq!(part_of(&o, 0), 0);
        assert_eq!(part_of(&o, 3), 0);
        assert_eq!(part_of(&o, 4), 1);
        assert_eq!(part_of(&o, 9), 2);
    }

    #[test]
    fn too_many_parts_clamps_to_row_count() {
        // 5 parts requested over 3 rows: effective count is clamped to 3
        // and reported through the offsets length, instead of panicking.
        let o = even_offsets(3, 5);
        assert_eq!(o, vec![0, 1, 2, 3]);
        assert_eq!(o.len() - 1, 3);
        let w = vec![1.0; 3];
        let o = weighted_offsets(&w, 7);
        assert_eq!(o, vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_rows_yield_single_empty_part() {
        assert_eq!(even_offsets(0, 4), vec![0, 0]);
        assert_eq!(weighted_offsets(&[], 4), vec![0, 0]);
    }
}
