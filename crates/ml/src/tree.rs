//! CART decision trees (gini impurity, binary classification).
//!
//! Building block of [`crate::forest`]. Trees are stored as a flat node
//! arena — cheap to allocate, cache-friendly to traverse.

use crate::linalg::Matrix;
use kcb_util::Rng;

/// Tree-growing parameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Do not split nodes smaller than this.
    pub min_samples_split: usize,
    /// Each child must keep at least this many samples.
    pub min_samples_leaf: usize,
    /// Features examined per split; `None` = all features.
    pub n_features_per_split: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self { max_depth: 24, min_samples_split: 2, min_samples_leaf: 1, n_features_per_split: None }
    }
}

#[derive(Debug, Clone, Copy)]
enum Node {
    Leaf { proba: f32 },
    Split { feature: u32, threshold: f32, left: u32, right: u32 },
}

/// A fitted CART tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_features: usize,
    /// Impurity-decrease accumulated per feature during growing
    /// (unnormalised; see [`crate::forest::RandomForest::feature_importances`]).
    pub(crate) importance: Vec<f64>,
}

impl DecisionTree {
    /// Fits a tree on the rows of `x` selected by `indices` (with
    /// repetition allowed — bootstrap samples pass duplicated indices).
    pub fn fit(x: &Matrix, y: &[bool], indices: &[usize], cfg: &TreeConfig, rng: &mut Rng) -> Self {
        assert_eq!(x.rows(), y.len(), "row/label mismatch");
        assert!(!indices.is_empty(), "empty training subset");
        let mut tree = Self {
            nodes: Vec::new(),
            n_features: x.cols(),
            importance: vec![0.0; x.cols()],
        };
        let mut idx = indices.to_vec();
        tree.grow(x, y, &mut idx, 0, cfg, rng);
        tree
    }

    /// Probability of the positive class for one feature vector.
    pub fn predict_proba(&self, row: &[f32]) -> f32 {
        debug_assert_eq!(row.len(), self.n_features);
        let mut node = 0usize;
        loop {
            match self.nodes[node] {
                Node::Leaf { proba } => return proba,
                Node::Split { feature, threshold, left, right } => {
                    node = if row[feature as usize] <= threshold { left } else { right } as usize;
                }
            }
        }
    }

    /// Hard prediction at threshold 0.5.
    pub fn predict(&self, row: &[f32]) -> bool {
        self.predict_proba(row) >= 0.5
    }

    /// Width of the feature rows the tree predicts on.
    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn depth_at(nodes: &[Node], i: usize) -> usize {
            match nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_at(nodes, left as usize).max(depth_at(nodes, right as usize))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_at(&self.nodes, 0)
        }
    }

    /// Grows the subtree over `indices[..]`, returning its node id.
    fn grow(
        &mut self,
        x: &Matrix,
        y: &[bool],
        indices: &mut [usize],
        depth: usize,
        cfg: &TreeConfig,
        rng: &mut Rng,
    ) -> u32 {
        let n = indices.len();
        let n_pos = indices.iter().filter(|&&i| y[i]).count();
        let proba = n_pos as f32 / n as f32;

        let make_leaf = |nodes: &mut Vec<Node>| -> u32 {
            nodes.push(Node::Leaf { proba });
            (nodes.len() - 1) as u32
        };

        if depth >= cfg.max_depth || n < cfg.min_samples_split || n_pos == 0 || n_pos == n {
            return make_leaf(&mut self.nodes);
        }

        let Some((feature, threshold, gain)) = self.best_split(x, y, indices, n_pos, cfg, rng)
        else {
            return make_leaf(&mut self.nodes);
        };

        // Partition in place: left = rows with value <= threshold.
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            if x.get(indices[lo], feature) <= threshold {
                lo += 1;
            } else {
                hi -= 1;
                indices.swap(lo, hi);
            }
        }
        if lo < cfg.min_samples_leaf || n - lo < cfg.min_samples_leaf || lo == 0 || lo == n {
            return make_leaf(&mut self.nodes);
        }

        self.importance[feature] += gain * n as f64;

        // Reserve the split slot, then grow children.
        self.nodes.push(Node::Leaf { proba });
        let me = (self.nodes.len() - 1) as u32;
        let (left_idx, right_idx) = indices.split_at_mut(lo);
        let left = self.grow(x, y, left_idx, depth + 1, cfg, rng);
        let right = self.grow(x, y, right_idx, depth + 1, cfg, rng);
        self.nodes[me as usize] =
            Node::Split { feature: feature as u32, threshold, left, right };
        me
    }

    /// Finds the best gini split over a random feature subset. Returns
    /// `(feature, threshold, impurity_decrease)`.
    fn best_split(
        &self,
        x: &Matrix,
        y: &[bool],
        indices: &[usize],
        n_pos: usize,
        cfg: &TreeConfig,
        rng: &mut Rng,
    ) -> Option<(usize, f32, f64)> {
        let n = indices.len();
        let parent_gini = gini(n_pos, n);
        let n_feats = cfg.n_features_per_split.unwrap_or(x.cols()).min(x.cols());
        let features = if n_feats == x.cols() {
            (0..x.cols()).collect::<Vec<_>>()
        } else {
            rng.sample_indices(x.cols(), n_feats)
        };

        let mut best: Option<(usize, f32, f64)> = None;
        // Reusable sort buffer: (value, label).
        let mut vals: Vec<(f32, bool)> = Vec::with_capacity(n);
        for &f in &features {
            vals.clear();
            vals.extend(indices.iter().map(|&i| (x.get(i, f), y[i])));
            vals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN feature value"));
            if vals[0].0 == vals[n - 1].0 {
                continue; // constant feature
            }
            let mut left_n = 0usize;
            let mut left_pos = 0usize;
            for k in 0..n - 1 {
                left_n += 1;
                if vals[k].1 {
                    left_pos += 1;
                }
                // Can only split between distinct values.
                if vals[k].0 == vals[k + 1].0 {
                    continue;
                }
                if left_n < cfg.min_samples_leaf || n - left_n < cfg.min_samples_leaf {
                    continue;
                }
                let right_n = n - left_n;
                let right_pos = n_pos - left_pos;
                let w_gini = (left_n as f64 * gini(left_pos, left_n)
                    + right_n as f64 * gini(right_pos, right_n))
                    / n as f64;
                // Zero-gain splits are accepted (as in scikit-learn): on
                // XOR-like data the first split has zero gini gain but
                // unlocks pure children.
                let gain = (parent_gini - w_gini).max(0.0);
                if best.is_none_or(|b| gain > b.2) {
                    let threshold = midpoint(vals[k].0, vals[k + 1].0);
                    best = Some((f, threshold, gain));
                }
            }
        }
        best
    }
}

impl DecisionTree {
    /// Streams the tree into a checkpoint writer (node arena + importances).
    pub(crate) fn encode(&self, w: &mut kcb_util::bin::Writer) {
        w.u32(self.n_features as u32);
        w.f64s(&self.importance);
        w.u32(self.nodes.len() as u32);
        for n in &self.nodes {
            match *n {
                Node::Leaf { proba } => {
                    w.u8(0);
                    w.f32(proba);
                }
                Node::Split { feature, threshold, left, right } => {
                    w.u8(1);
                    w.u32(feature);
                    w.f32(threshold);
                    w.u32(left);
                    w.u32(right);
                }
            }
        }
    }

    /// Decodes a tree from a checkpoint reader, validating the node arena
    /// so corrupt data errors instead of panicking or looping: features in
    /// range, and every child after its parent, as [`DecisionTree::fit`]
    /// lays them out (so no walk from the root can cycle).
    pub(crate) fn decode(r: &mut kcb_util::bin::Reader<'_>) -> kcb_util::Result<Self> {
        let n_features = r.u32()? as usize;
        let importance = r.f64s()?;
        let n_nodes = r.u32()? as usize;
        r.sized(n_nodes, 5)?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            nodes.push(match r.u8()? {
                0 => Node::Leaf { proba: r.f32()? },
                1 => Node::Split {
                    feature: r.u32()?,
                    threshold: r.f32()?,
                    left: r.u32()?,
                    right: r.u32()?,
                },
                t => {
                    return Err(kcb_util::Error::parse(
                        "decision-tree",
                        format!("unknown node tag {t}"),
                    ))
                }
            });
        }
        if nodes.is_empty() || importance.len() != n_features {
            return Err(kcb_util::Error::parse("decision-tree", "inconsistent tree header"));
        }
        for (i, n) in nodes.iter().enumerate() {
            if let Node::Split { feature, left, right, .. } = *n {
                let child_ok = |c: u32| (i + 1..nodes.len()).contains(&(c as usize));
                if !child_ok(left) || !child_ok(right) || feature as usize >= n_features {
                    return Err(kcb_util::Error::parse(
                        "decision-tree",
                        "node index out of range",
                    ));
                }
            }
        }
        Ok(Self { nodes, n_features, importance })
    }
}

#[inline]
fn gini(pos: usize, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let p = pos as f64 / total as f64;
    2.0 * p * (1.0 - p)
}

/// Split threshold between two adjacent sorted values, guaranteed to
/// separate them under `<=` even when their midpoint rounds to the upper
/// value in f32.
#[inline]
fn midpoint(a: f32, b: f32) -> f32 {
    let m = a + (b - a) * 0.5;
    if m >= b {
        a
    } else {
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit_all(x: &Matrix, y: &[bool], cfg: &TreeConfig) -> DecisionTree {
        let idx: Vec<usize> = (0..x.rows()).collect();
        let mut rng = Rng::seed(1);
        DecisionTree::fit(x, y, &idx, cfg, &mut rng)
    }

    #[test]
    fn learns_single_threshold() {
        let x = Matrix::from_rows((0..20).map(|i| vec![i as f32]).collect::<Vec<_>>());
        let y: Vec<bool> = (0..20).map(|i| i >= 10).collect();
        let t = fit_all(&x, &y, &TreeConfig::default());
        for i in 0..20 {
            assert_eq!(t.predict(&[i as f32]), i >= 10, "i={i}");
        }
        assert!(t.depth() <= 2, "should need one split, got depth {}", t.depth());
    }

    #[test]
    fn learns_xor_with_depth_two() {
        let x = Matrix::from_rows(vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]);
        let y = vec![false, true, true, false];
        let t = fit_all(&x, &y, &TreeConfig::default());
        for (row, &label) in x.iter_rows().zip(&y) {
            assert_eq!(t.predict(row), label);
        }
    }

    #[test]
    fn max_depth_zero_gives_single_leaf() {
        let x = Matrix::from_rows(vec![vec![0.0], vec![1.0], vec![2.0]]);
        let y = vec![false, true, true];
        let cfg = TreeConfig { max_depth: 0, ..TreeConfig::default() };
        let t = fit_all(&x, &y, &cfg);
        assert_eq!(t.n_nodes(), 1);
        assert!((t.predict_proba(&[0.0]) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn pure_node_stops_early() {
        let x = Matrix::from_rows(vec![vec![0.0], vec![1.0]]);
        let y = vec![true, true];
        let t = fit_all(&x, &y, &TreeConfig::default());
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict_proba(&[5.0]), 1.0);
    }

    #[test]
    fn constant_features_become_leaf() {
        let x = Matrix::from_rows(vec![vec![3.0], vec![3.0], vec![3.0]]);
        let y = vec![true, false, true];
        let t = fit_all(&x, &y, &TreeConfig::default());
        assert_eq!(t.n_nodes(), 1);
    }

    #[test]
    fn importance_flags_informative_feature() {
        // Feature 1 is informative, feature 0 is noise-free constant.
        let x = Matrix::from_rows(
            (0..40).map(|i| vec![0.5, (i % 2) as f32]).collect::<Vec<_>>(),
        );
        let y: Vec<bool> = (0..40).map(|i| i % 2 == 0).collect();
        let t = fit_all(&x, &y, &TreeConfig::default());
        assert_eq!(t.importance[0], 0.0);
        assert!(t.importance[1] > 0.0);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let x = Matrix::from_rows((0..10).map(|i| vec![i as f32]).collect::<Vec<_>>());
        let y: Vec<bool> = (0..10).map(|i| i == 9).collect();
        let cfg = TreeConfig { min_samples_leaf: 3, ..TreeConfig::default() };
        let t = fit_all(&x, &y, &cfg);
        // Best split isolating i==9 is forbidden; the 7/3 split leaks the
        // positive into a mixed leaf.
        assert!(t.predict_proba(&[9.0]) < 1.0);
    }

    #[test]
    fn midpoint_separates_adjacent_floats() {
        let a = 1.0f32;
        let b = f32::from_bits(a.to_bits() + 1);
        let m = midpoint(a, b);
        assert!(a <= m && m < b);
    }
}
