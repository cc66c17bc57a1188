//! k-nearest-neighbour classification with a kd-tree.
//!
//! The paper segments intraoperative data "with k-NN classification, a
//! standard classification method which computes the type of tissue
//! present at each voxel by comparing the signal of the voxel to classify
//! with the signal of previously selected prototype voxels of known
//! tissue type". Feature vectors combine MR intensity with the saturated
//! distance transforms of the preoperative tissue models.
//!
//! # Layout
//!
//! The tree is stored structure-of-arrays: inner nodes are parallel
//! `split_axis`/`split_val`/`left`/`right` vectors, and prototypes live
//! in contiguous leaf blocks of up to [`LEAF_SIZE`] points. Each leaf
//! block is *transposed* (dimension-major), so the distance from a query
//! to every point in the leaf is accumulated one axis at a time over a
//! contiguous `f32` run — a branchless loop the compiler vectorizes.
//! Search is iterative over an explicit stack held in [`KnnScratch`];
//! a warm query performs no allocation.
//!
//! # Determinism
//!
//! Candidates are ordered by `(distance², original prototype index)` and
//! the far side of a split is descended whenever the splitting plane is
//! *no farther* than the current k-th candidate, so the returned
//! neighbour set is a pure function of the prototype multiset — it does
//! not depend on build order or traversal order. Votes break ties by
//! lowest label id (see [`KdTree::classify`]).

use crate::error::SegmentError;

/// A labeled training sample in feature space.
#[derive(Debug, Clone)]
pub struct Prototype {
    /// Feature-space coordinates.
    pub features: Vec<f32>,
    /// Tissue class of this prototype.
    pub label: u8,
}

/// Maximum number of prototypes per leaf block.
pub const LEAF_SIZE: usize = 32;

// A leaf's survivor mask is one bit per slot.
const _: () = assert!(LEAF_SIZE <= u32::BITS as usize);

/// High bit of a node reference marks it as a leaf id.
const LEAF_FLAG: u32 = 1 << 31;

/// Reusable per-thread query state: traversal stack and candidate list.
/// One scratch per worker thread turns the per-voxel k-NN query into a
/// zero-allocation operation.
#[derive(Debug, Default)]
pub struct KnnScratch {
    /// DFS stack of `(node ref, plane distance² at push time)`.
    stack: Vec<(u32, f32)>,
    /// Current best candidates, ascending by `(distance², prototype idx)`.
    best: Vec<(f32, u32)>,
    /// Leaf blocks scanned since construction (or the last reset);
    /// accumulates across queries so callers can report traversal cost.
    pub leaf_visits: u64,
}

impl KnnScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> KnnScratch {
        KnnScratch::default()
    }

    /// The candidates found by the last `k_nearest_into` call, ascending
    /// by `(distance², prototype index)`.
    pub fn neighbors(&self) -> &[(f32, u32)] {
        &self.best
    }
}

/// A kd-tree over prototypes for fast k-NN queries.
pub struct KdTree {
    dim: usize,
    /// Labels in original prototype order.
    labels: Vec<u8>,
    /// Features in original prototype order, row-major `n × dim`.
    feats: Vec<f32>,
    /// Inner-node split axes (parallel to `split_val`/`left`/`right`).
    split_axis: Vec<u32>,
    /// Inner-node split values: left subtree ≤ value ≤ right subtree.
    split_val: Vec<f32>,
    /// Child refs; `LEAF_FLAG` bit set ⇒ index into the leaf arrays.
    left: Vec<u32>,
    right: Vec<u32>,
    /// Per-leaf start slot into `leaf_index` (slots are contiguous).
    leaf_start: Vec<u32>,
    /// Per-leaf point count (≤ `LEAF_SIZE`).
    leaf_len: Vec<u32>,
    /// Original prototype index per leaf slot.
    leaf_index: Vec<u32>,
    /// Transposed (dimension-major) feature blocks, one per leaf: the
    /// block for leaf `j` starts at `leaf_start[j] * dim` and holds
    /// `leaf_len[j]` values per axis.
    leaf_feats: Vec<f32>,
    root: u32,
}

impl KdTree {
    /// Build from prototypes (all must share the same nonzero
    /// dimensionality and carry finite features).
    pub fn build(prototypes: Vec<Prototype>) -> Result<KdTree, SegmentError> {
        if prototypes.is_empty() {
            return Err(SegmentError::EmptyPrototypeSet);
        }
        let dim = prototypes[0].features.len();
        if dim == 0 {
            return Err(SegmentError::EmptyFeatureVector { index: 0 });
        }
        for (index, p) in prototypes.iter().enumerate() {
            if p.features.len() != dim {
                return Err(SegmentError::InconsistentFeatureDim {
                    expected: dim,
                    got: p.features.len(),
                    index,
                });
            }
            for (axis, &v) in p.features.iter().enumerate() {
                if !v.is_finite() {
                    return Err(SegmentError::NonFiniteFeature { index, axis });
                }
            }
        }
        let n = prototypes.len();
        let mut labels = Vec::with_capacity(n);
        let mut feats = Vec::with_capacity(n * dim);
        for p in &prototypes {
            labels.push(p.label);
            feats.extend_from_slice(&p.features);
        }
        let mut tree = KdTree {
            dim,
            labels,
            feats,
            split_axis: Vec::new(),
            split_val: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
            leaf_start: Vec::new(),
            leaf_len: Vec::new(),
            leaf_index: Vec::new(),
            leaf_feats: Vec::new(),
            root: 0,
        };
        let mut order: Vec<u32> = (0..n as u32).collect();
        tree.root = tree.build_node(&mut order);
        Ok(tree)
    }

    /// Recursive median build; returns the subtree's node ref. Splitting
    /// at the exact median halves the slice each level, so both children
    /// are always nonempty and depth is `O(log n)`.
    fn build_node(&mut self, order: &mut [u32]) -> u32 {
        if order.len() <= LEAF_SIZE {
            // Leaf slots keep ascending original order: the layout of a
            // tree is then fully determined by the prototype list.
            order.sort_unstable();
            let leaf = self.leaf_start.len() as u32;
            let start = self.leaf_index.len();
            self.leaf_start.push(start as u32);
            self.leaf_len.push(order.len() as u32);
            self.leaf_index.extend_from_slice(order);
            for axis in 0..self.dim {
                for &i in order.iter() {
                    self.leaf_feats.push(self.feats[i as usize * self.dim + axis]);
                }
            }
            return leaf | LEAF_FLAG;
        }
        // Split along the widest axis of this point set (ties → lowest
        // axis): splitting planes then separate where the data actually
        // spreads, which prunes far better than cycling axes by depth.
        // Min/max per axis are multiset properties, so the tree's search
        // behaviour stays a pure function of the prototype multiset.
        let mut axis = 0usize;
        let mut best_spread = f32::NEG_INFINITY;
        for a in 0..self.dim {
            let mut lo = f32::INFINITY;
            let mut hi = f32::NEG_INFINITY;
            for &i in order.iter() {
                let v = self.feats[i as usize * self.dim + a];
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let spread = hi - lo;
            if spread > best_spread {
                best_spread = spread;
                axis = a;
            }
        }
        let mid = order.len() / 2;
        let feats = &self.feats;
        let dim = self.dim;
        order.select_nth_unstable_by(mid, |&a, &b| {
            feats[a as usize * dim + axis].total_cmp(&feats[b as usize * dim + axis])
        });
        let split_val = self.feats[order[mid] as usize * self.dim + axis];
        let node = self.split_axis.len();
        self.split_axis.push(axis as u32);
        self.split_val.push(split_val);
        self.left.push(0);
        self.right.push(0);
        let (lo, hi) = order.split_at_mut(mid);
        let l = self.build_node(lo);
        let r = self.build_node(hi);
        self.left[node] = l;
        self.right[node] = r;
        node as u32
    }

    /// Number of prototypes in the tree.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the tree holds no prototypes (unreachable after a
    /// successful [`KdTree::build`], kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature-space dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Label of the `i`-th prototype (original insertion order).
    pub fn label(&self, i: usize) -> u8 {
        self.labels[i]
    }

    /// Features of the `i`-th prototype (original insertion order).
    pub fn feature(&self, i: usize) -> &[f32] {
        &self.feats[i * self.dim..(i + 1) * self.dim]
    }

    /// The `k` nearest prototypes to `query` (squared Euclidean), as
    /// `(distance², prototype index)` sorted nearest-first, breaking
    /// distance ties by lowest prototype index.
    pub fn k_nearest(&self, query: &[f32], k: usize) -> Vec<(f32, usize)> {
        let mut scratch = KnnScratch::new();
        self.k_nearest_into(&mut scratch, query, k);
        scratch.best.iter().map(|&(d, i)| (d, i as usize)).collect()
    }

    /// Allocation-free k-NN: fills `scratch.neighbors()` with the `k`
    /// nearest prototypes, reusing the scratch's buffers.
    pub fn k_nearest_into(&self, scratch: &mut KnnScratch, query: &[f32], k: usize) {
        debug_assert_eq!(query.len(), self.dim);
        let k = k.min(self.len()).max(1);
        scratch.best.clear();
        scratch.stack.clear();
        scratch.stack.push((self.root, 0.0));
        while let Some((start, plane_d2)) = scratch.stack.pop() {
            // The k-th distance may have shrunk since this subtree was
            // deferred; re-check before descending. `>` (not `>=`) keeps
            // plane-distance ties visited so equal-distance candidates
            // with lower prototype indices are never pruned away.
            if scratch.best.len() == k && plane_d2 > kth_d2(&scratch.best) {
                continue;
            }
            let mut node = start;
            // Walk the near side iteratively, deferring far sides.
            loop {
                if node & LEAF_FLAG != 0 {
                    self.scan_leaf((node & !LEAF_FLAG) as usize, query, k, scratch);
                    break;
                }
                let i = node as usize;
                let axis = self.split_axis[i] as usize;
                let delta = query[axis] - self.split_val[i];
                let (near, far) = if delta < 0.0 {
                    (self.left[i], self.right[i])
                } else {
                    (self.right[i], self.left[i])
                };
                let far_d2 = delta * delta;
                if scratch.best.len() < k || far_d2 <= kth_d2(&scratch.best) {
                    scratch.stack.push((far, far_d2));
                }
                node = near;
            }
        }
    }

    /// Accumulate distances over one transposed leaf block and merge the
    /// slots into the candidate list.
    fn scan_leaf(&self, leaf: usize, query: &[f32], k: usize, scratch: &mut KnnScratch) {
        let start = self.leaf_start[leaf] as usize;
        let len = self.leaf_len[leaf] as usize;
        let block = &self.leaf_feats[start * self.dim..start * self.dim + len * self.dim];
        let index = &self.leaf_index[start..start + len];
        let mut dist = [0.0f32; LEAF_SIZE];
        let dist = &mut dist[..len];
        // Dimension-major accumulation: each axis contributes a straight
        // contiguous fused multiply-add pass over the block row.
        for (axis, &q) in query.iter().enumerate() {
            let row = &block[axis * len..(axis + 1) * len];
            for (d, &v) in dist.iter_mut().zip(row) {
                let t = v - q;
                *d += t * t;
            }
        }
        scratch.leaf_visits += 1;
        // Survivors: the slots not ordered after the current k-th —
        // strictly farther, or equal with a higher index — found without a
        // branch per slot. Until the list is full nothing is rejected.
        let (kd, ki) = if scratch.best.len() == k { scratch.best[k - 1] } else { (f32::INFINITY, u32::MAX) };
        let mut survivors = 0u32;
        for (slot, (&d2, &idx)) in dist.iter().zip(index).enumerate() {
            let rejected = (d2 > kd) | ((d2 == kd) & (idx > ki));
            survivors |= u32::from(!rejected) << slot;
        }
        // Insert in slot order; the k-th may tighten as survivors land.
        while survivors != 0 {
            let slot = survivors.trailing_zeros() as usize;
            survivors &= survivors - 1;
            insert_candidate(&mut scratch.best, k, dist[slot], index[slot]);
        }
    }

    /// Classify by majority vote among the `k` nearest prototypes.
    ///
    /// Ties are broken deterministically: among the top-voted classes the
    /// **lowest label id wins**. The result is a pure function of the
    /// neighbour *set*, which itself is a pure function of the prototype
    /// multiset (see the module docs on determinism).
    pub fn classify(&self, query: &[f32], k: usize) -> u8 {
        let mut scratch = KnnScratch::new();
        self.classify_with(&mut scratch, query, k)
    }

    /// Allocation-free [`KdTree::classify`] reusing a scratch buffer.
    pub fn classify_with(&self, scratch: &mut KnnScratch, query: &[f32], k: usize) -> u8 {
        self.k_nearest_into(scratch, query, k);
        // Tally over the ≤ k distinct labels actually present — for the
        // usual small k this beats zeroing a 256-bin histogram per voxel.
        if scratch.best.len() <= 16 {
            let mut labs = [0u8; 16];
            let mut cnts = [0u32; 16];
            let mut n = 0usize;
            for &(_, idx) in &scratch.best {
                let l = self.labels[idx as usize];
                match labs[..n].iter().position(|&x| x == l) {
                    Some(p) => cnts[p] += 1,
                    None => {
                        labs[n] = l;
                        cnts[n] = 1;
                        n += 1;
                    }
                }
            }
            let mut best_label = labs[0];
            let mut best_count = cnts[0];
            for i in 1..n {
                // Lowest label id wins count ties, as in the histogram scan.
                if cnts[i] > best_count || (cnts[i] == best_count && labs[i] < best_label) {
                    best_count = cnts[i];
                    best_label = labs[i];
                }
            }
            return best_label;
        }
        let mut counts: [u32; 256] = [0; 256];
        for &(_, idx) in &scratch.best {
            counts[self.labels[idx as usize] as usize] += 1;
        }
        // Strict `>` keeps the first (lowest) label among tied counts.
        let mut best_label = 0u8;
        let mut best_count = 0u32;
        for (label, &count) in counts.iter().enumerate() {
            if count > best_count {
                best_count = count;
                best_label = label as u8;
            }
        }
        best_label
    }
}

/// Current k-th (worst kept) squared distance.
#[inline]
fn kth_d2(best: &[(f32, u32)]) -> f32 {
    match best.last() {
        Some(&(d, _)) => d,
        None => f32::INFINITY,
    }
}

/// Insert `(d2, idx)` into the ascending candidate list, keeping at most
/// `k` entries ordered by `(distance², prototype index)`: shift the
/// entries not ordered before it one place toward the tail, from the
/// tail. Nothing moves when it would land at position `k`.
#[inline]
fn insert_candidate(best: &mut Vec<(f32, u32)>, k: usize, d2: f32, idx: u32) {
    let before = |&(d, i): &(f32, u32)| d < d2 || (d == d2 && i < idx);
    if best.len() == k {
        if before(&best[k - 1]) {
            return;
        }
        best.pop();
    }
    let mut pos = best.len();
    best.push((d2, idx));
    while pos > 0 && !before(&best[pos - 1]) {
        best[pos] = best[pos - 1];
        pos -= 1;
    }
    best[pos] = (d2, idx);
}

/// Brute-force k-NN for testing, using the same `(distance², index)`
/// candidate order as the tree.
pub fn k_nearest_brute(protos: &[Prototype], query: &[f32], k: usize) -> Vec<(f32, usize)> {
    let mut d: Vec<(f32, usize)> = protos
        .iter()
        .enumerate()
        .map(|(i, p)| {
            (
                p.features.iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum(),
                i,
            )
        })
        .collect();
    d.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    d.truncate(k.min(protos.len()));
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_protos(n: usize, dim: usize, seed: u64) -> Vec<Prototype> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Prototype {
                features: (0..dim).map(|_| rng.gen_range(-10.0f32..10.0)).collect(),
                label: rng.gen_range(0..4),
            })
            .collect()
    }

    #[test]
    fn kdtree_matches_brute_force_including_indices() {
        let protos = random_protos(300, 4, 1);
        let tree = KdTree::build(protos.clone()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let q: Vec<f32> = (0..4).map(|_| rng.gen_range(-12.0f32..12.0)).collect();
            let fast = tree.k_nearest(&q, 5);
            let brute = k_nearest_brute(&protos, &q, 5);
            assert_eq!(fast.len(), brute.len());
            for (f, b) in fast.iter().zip(&brute) {
                assert!((f.0 - b.0).abs() < 1e-5, "distances differ: {} vs {}", f.0, b.0);
                assert_eq!(f.1, b.1, "indices differ");
            }
        }
    }

    #[test]
    fn duplicate_points_resolve_by_lowest_index() {
        // Many exact duplicates: the neighbour list must prefer lower
        // original indices, regardless of where the tree stored them.
        let protos: Vec<Prototype> = (0..100)
            .map(|i| Prototype { features: vec![1.0, 2.0, 3.0], label: (i % 5) as u8 })
            .collect();
        let tree = KdTree::build(protos).unwrap();
        let nn = tree.k_nearest(&[1.0, 2.0, 3.0], 7);
        let idx: Vec<usize> = nn.iter().map(|&(_, i)| i).collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn exact_match_is_nearest() {
        let protos = random_protos(100, 3, 3);
        let tree = KdTree::build(protos.clone()).unwrap();
        for i in [0usize, 17, 99] {
            let nn = tree.k_nearest(&protos[i].features, 1);
            assert_eq!(nn[0].0, 0.0);
            assert_eq!(tree.label(nn[0].1), protos[i].label);
        }
    }

    #[test]
    fn classify_separable_clusters() {
        // Two well-separated Gaussian-ish clusters.
        let mut protos = Vec::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..50 {
            protos.push(Prototype {
                features: vec![rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0)],
                label: 0,
            });
            protos.push(Prototype {
                features: vec![10.0 + rng.gen_range(-1.0f32..1.0), 10.0 + rng.gen_range(-1.0f32..1.0)],
                label: 1,
            });
        }
        let tree = KdTree::build(protos).unwrap();
        assert_eq!(tree.classify(&[0.0, 0.0], 5), 0);
        assert_eq!(tree.classify(&[10.0, 10.0], 5), 1);
        assert_eq!(tree.classify(&[9.0, 11.0], 3), 1);
    }

    #[test]
    fn k_larger_than_dataset_is_clamped() {
        let protos = random_protos(3, 2, 5);
        let tree = KdTree::build(protos).unwrap();
        let nn = tree.k_nearest(&[0.0, 0.0], 10);
        assert_eq!(nn.len(), 3);
    }

    #[test]
    fn vote_tie_is_independent_of_insertion_order() {
        // Four prototypes all exactly distance 1 from the query: a 2-2
        // vote tie between labels 3 and 1. Whatever order the tree stores
        // them in, the lowest label id must win.
        let protos = vec![
            Prototype { features: vec![1.0, 0.0], label: 3 },
            Prototype { features: vec![-1.0, 0.0], label: 3 },
            Prototype { features: vec![0.0, 1.0], label: 1 },
            Prototype { features: vec![0.0, -1.0], label: 1 },
        ];
        let forward = KdTree::build(protos.clone()).unwrap();
        let mut reversed_protos = protos;
        reversed_protos.reverse();
        let reversed = KdTree::build(reversed_protos).unwrap();
        assert_eq!(forward.classify(&[0.0, 0.0], 4), 1);
        assert_eq!(reversed.classify(&[0.0, 0.0], 4), 1);
    }

    #[test]
    fn single_prototype() {
        let tree = KdTree::build(vec![Prototype { features: vec![1.0, 2.0], label: 7 }]).unwrap();
        assert_eq!(tree.classify(&[0.0, 0.0], 3), 7);
    }

    #[test]
    fn scratch_reuse_is_stateless_across_queries() {
        let protos = random_protos(400, 3, 6);
        let tree = KdTree::build(protos.clone()).unwrap();
        let mut scratch = KnnScratch::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let q: Vec<f32> = (0..3).map(|_| rng.gen_range(-12.0f32..12.0)).collect();
            tree.k_nearest_into(&mut scratch, &q, 5);
            let shared: Vec<(f32, usize)> =
                scratch.neighbors().iter().map(|&(d, i)| (d, i as usize)).collect();
            assert_eq!(shared, k_nearest_brute(&protos, &q, 5));
        }
        assert!(scratch.leaf_visits >= 100, "every query scans at least one leaf");
    }

    #[test]
    fn build_errors_are_typed() {
        assert_eq!(KdTree::build(Vec::new()).err(), Some(SegmentError::EmptyPrototypeSet));
        assert_eq!(
            KdTree::build(vec![Prototype { features: vec![], label: 0 }]).err(),
            Some(SegmentError::EmptyFeatureVector { index: 0 })
        );
        assert_eq!(
            KdTree::build(vec![
                Prototype { features: vec![1.0], label: 0 },
                Prototype { features: vec![1.0, 2.0], label: 1 },
            ])
            .err(),
            Some(SegmentError::InconsistentFeatureDim { expected: 1, got: 2, index: 1 })
        );
        assert_eq!(
            KdTree::build(vec![Prototype { features: vec![1.0, f32::NAN], label: 0 }]).err(),
            Some(SegmentError::NonFiniteFeature { index: 0, axis: 1 })
        );
    }
}
