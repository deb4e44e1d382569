//! CART decision trees (gini impurity, binary classification).
//!
//! Building block of [`crate::forest`]. Trees are stored as a flat node
//! arena — cheap to allocate, cache-friendly to traverse.
//!
//! Split search runs on ranks, not values. [`Ranks`] gives every cell of
//! the training matrix the dense rank of its value within its column, once
//! per matrix; a tree collapses its bootstrap duplicates into per-row
//! weights; and a node visits a sampled column's distinct values in
//! ascending order through a weighted count histogram over the column's
//! ranks, walked by an occupancy bitmap. Gini is evaluated only between
//! distinct values, where the left counts do not depend on the order of
//! tied rows, so a tree is the one a per-node sort of its duplicated values
//! would grow: same nodes, thresholds, importances and `Rng` draws.

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
    ///
    /// Panics with "NaN feature value" when any cell of `x` is NaN, even in
    /// a row `indices` leaves out or a column no node samples: the whole
    /// matrix is ranked up front.
    pub fn fit(x: &Matrix, y: &[bool], indices: &[usize], cfg: &TreeConfig, rng: &mut Rng) -> Self {
        assert_eq!(x.rows(), y.len(), "row/label mismatch");
        assert!(!indices.is_empty(), "empty training subset");
        Self::fit_ranked(x, &Ranks::new(x), y, indices, cfg, rng)
    }

    /// [`DecisionTree::fit`] over the rank table of `x`, shared by every
    /// tree of a forest.
    pub(crate) fn fit_ranked(
        x: &Matrix,
        ranks: &Ranks,
        y: &[bool],
        indices: &[usize],
        cfg: &TreeConfig,
        rng: &mut Rng,
    ) -> Self {
        // Per row: bootstrap count << 1 | label, 0 for rows out of the bag.
        let mut wl = vec![0u32; x.rows()];
        for &i in indices {
            wl[i] += 2;
        }
        let mut rows = Vec::new();
        for (r, w) in wl.iter_mut().enumerate() {
            if *w > 0 {
                *w |= y[r] as u32;
                rows.push(r as u32);
            }
        }
        let max_distinct = ranks.distinct.iter().max().map_or(0, |&d| d as usize);
        let mut grower = Grower {
            x,
            ranks,
            wl,
            cfg,
            hist: vec![0; max_distinct],
            occupied: vec![0; max_distinct.div_ceil(64)],
            tree: Self { nodes: Vec::new(), n_features: x.cols(), importance: vec![0.0; x.cols()] },
        };
        grower.grow(&mut rows, 0, rng);
        grower.tree
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
}

/// Dense per-column ranks of a training matrix: a cell's rank is the number
/// of distinct values below it in its column, so values equal under f32
/// `==` (`-0.0` and `+0.0` included) share one. Column-major, so a node's
/// gather of one column stays inside one `rows`-long slice. Read-only once
/// built, so one table serves every tree and worker thread of a forest.
pub(crate) struct Ranks {
    rows: usize,
    ranks: Vec<u32>,
    /// Distinct values per column.
    distinct: Vec<u32>,
}

impl Ranks {
    /// Ranks every column of `x`. Panics with "NaN feature value" when any
    /// cell is NaN.
    pub(crate) fn new(x: &Matrix) -> Self {
        let (rows, cols) = (x.rows(), x.cols());
        assert!(u32::try_from(rows).is_ok(), "too many rows to rank");
        let mut ranks = vec![0u32; rows * cols];
        let mut distinct = Vec::with_capacity(cols);
        // `value key << 32 | row`, where the key orders floats as numbers
        // and `+ 0.0` folds `-0.0` into `+0.0`, so equal values (under
        // `==`) get equal keys.
        let mut order: Vec<u64> = Vec::with_capacity(rows);
        for c in 0..cols {
            order.clear();
            order.extend((0..rows).map(|r| {
                let v = x.get(r, c);
                assert!(!v.is_nan(), "NaN feature value");
                let bits = (v + 0.0).to_bits();
                let key = if bits >> 31 == 1 { !bits } else { bits | (1 << 31) };
                (u64::from(key) << 32) | r as u64
            }));
            order.sort_unstable();
            let col = &mut ranks[c * rows..(c + 1) * rows];
            let mut rank = 0u32;
            for (k, &e) in order.iter().enumerate() {
                if k > 0 && e >> 32 != order[k - 1] >> 32 {
                    rank += 1;
                }
                col[e as u32 as usize] = rank;
            }
            distinct.push(if rows == 0 { 0 } else { rank + 1 });
        }
        Self { rows, ranks, distinct }
    }

    fn column(&self, c: usize) -> &[u32] {
        &self.ranks[c * self.rows..(c + 1) * self.rows]
    }
}

/// The best split of a node: its column, the ranks of the largest value
/// that goes left and the smallest that goes right, and its impurity
/// decrease.
#[derive(Clone, Copy)]
struct Split {
    feature: usize,
    left: u32,
    right: u32,
    gain: f64,
}

/// Walks one column's distinct values in ascending order, evaluating gini
/// at every boundary between two of them, and keeps the best split across
/// the columns of a node: only a strictly larger gain replaces it.
struct Scan {
    n: usize,
    n_pos: usize,
    parent_gini: f64,
    min_leaf: usize,
    feature: usize,
    left_n: usize,
    left_pos: usize,
    /// Rank of the last value visited.
    prev: u32,
    best: Option<Split>,
}

impl Scan {
    fn start(&mut self, feature: usize) {
        self.feature = feature;
        self.left_n = 0;
        self.left_pos = 0;
    }

    /// Visits the next distinct value: `count` rows (by weight) hold it,
    /// `pos` of them positive.
    #[inline]
    fn value(&mut self, rank: u32, count: usize, pos: usize) {
        if self.left_n > 0 {
            self.boundary(rank);
        }
        self.left_n += count;
        self.left_pos += pos;
        self.prev = rank;
    }

    /// Scores the split between everything visited so far and `right`.
    fn boundary(&mut self, right: u32) {
        let (n, left_n, left_pos) = (self.n, self.left_n, self.left_pos);
        if left_n < self.min_leaf || n - left_n < self.min_leaf {
            return;
        }
        let right_n = n - left_n;
        let right_pos = self.n_pos - left_pos;
        let w_gini = (left_n as f64 * gini(left_pos, left_n)
            + right_n as f64 * gini(right_pos, right_n))
            / n as f64;
        // Zero-gain splits are accepted (as in scikit-learn): on XOR-like
        // data the first split has zero gini gain but unlocks pure children.
        let gain = (self.parent_gini - w_gini).max(0.0);
        if self.best.is_none_or(|b| gain > b.gain) {
            self.best = Some(Split { feature: self.feature, left: self.prev, right, gain });
        }
    }
}

/// One tree's growing state: its inputs, the per-node buffers it reuses
/// and the arena it builds.
struct Grower<'a> {
    x: &'a Matrix,
    ranks: &'a Ranks,
    /// Per row: bootstrap count << 1 | label.
    wl: Vec<u32>,
    cfg: &'a TreeConfig,
    /// Per rank: `count << 32 | positives`; all zero between columns.
    hist: Vec<u64>,
    /// One bit per rank, set where `hist` is non-zero.
    occupied: Vec<u64>,
    tree: DecisionTree,
}

impl Grower<'_> {
    /// Grows the subtree over the distinct rows `rows`, returning its node
    /// id.
    fn grow(&mut self, rows: &mut [u32], depth: usize, rng: &mut Rng) -> u32 {
        let (mut n, mut n_pos) = (0usize, 0usize);
        for &r in rows.iter() {
            let wl = self.wl[r as usize];
            n += (wl >> 1) as usize;
            n_pos += ((wl >> 1) * (wl & 1)) as usize;
        }
        let proba = n_pos as f32 / n as f32;
        let cfg = self.cfg;
        if depth >= cfg.max_depth || n < cfg.min_samples_split || n_pos == 0 || n_pos == n {
            return self.push(Node::Leaf { proba });
        }
        let Some(split) = self.best_split(rows, n, n_pos, rng) else {
            return self.push(Node::Leaf { proba });
        };

        // Partition in place: left = rows ranked at most `split.left`.
        let col = self.ranks.column(split.feature);
        let mut lo = 0usize;
        let mut hi = rows.len();
        while lo < hi {
            if col[rows[lo] as usize] <= split.left {
                lo += 1;
            } else {
                hi -= 1;
                rows.swap(lo, hi);
            }
        }
        let value = |side: &[u32], rank: u32| {
            let r = side.iter().find(|&&r| col[r as usize] == rank).expect("rank in node");
            self.x.get(*r as usize, split.feature)
        };
        let threshold = midpoint(value(&rows[..lo], split.left), value(&rows[lo..], split.right));
        if threshold.is_nan() {
            // `midpoint(-inf, b)` is NaN, and no row goes left of NaN under
            // `<=`: a leaf, as the per-node sort search made it.
            return self.push(Node::Leaf { proba });
        }
        self.tree.importance[split.feature] += split.gain * n as f64;

        // Reserve the split slot, then grow children.
        let me = self.push(Node::Leaf { proba });
        let (left_rows, right_rows) = rows.split_at_mut(lo);
        let left = self.grow(left_rows, depth + 1, rng);
        let right = self.grow(right_rows, depth + 1, rng);
        self.tree.nodes[me as usize] =
            Node::Split { feature: split.feature as u32, threshold, left, right };
        me
    }

    fn push(&mut self, node: Node) -> u32 {
        self.tree.nodes.push(node);
        (self.tree.nodes.len() - 1) as u32
    }

    /// Finds the best gini split over a random feature subset.
    fn best_split(&mut self, rows: &[u32], n: usize, n_pos: usize, rng: &mut Rng) -> Option<Split> {
        let cols = self.x.cols();
        let n_feats = self.cfg.n_features_per_split.unwrap_or(cols).min(cols);
        let features =
            if n_feats == cols { (0..cols).collect::<Vec<_>>() } else { rng.sample_indices(cols, n_feats) };
        let mut scan = Scan {
            n,
            n_pos,
            parent_gini: gini(n_pos, n),
            min_leaf: self.cfg.min_samples_leaf,
            feature: 0,
            left_n: 0,
            left_pos: 0,
            prev: 0,
            best: None,
        };
        let wl = &self.wl;
        for &f in &features {
            let col = self.ranks.column(f);
            let distinct = self.ranks.distinct[f] as usize;
            scan.start(f);
            for &r in rows {
                let k = col[r as usize] as usize;
                let w = u64::from(wl[r as usize] >> 1);
                self.hist[k] += (w << 32) | (w * u64::from(wl[r as usize] & 1));
                self.occupied[k >> 6] |= 1 << (k & 63);
            }
            for (i, word) in self.occupied[..distinct.div_ceil(64)].iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let k = i * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let h = std::mem::take(&mut self.hist[k]);
                    scan.value(k as u32, (h >> 32) as usize, (h as u32) as usize);
                }
            }
        }
        scan.best
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
pub(crate) mod reference {
    //! The per-node sort search the rank-table search replaced: at every
    //! node, gather each sampled column over the node's (duplicated) rows
    //! and stable-sort it. The oracle the new search must match byte for
    //! byte.

    use super::*;

    /// [`DecisionTree::fit`] by per-node sorting.
    pub(crate) fn fit(
        x: &Matrix,
        y: &[bool],
        indices: &[usize],
        cfg: &TreeConfig,
        rng: &mut Rng,
    ) -> DecisionTree {
        assert_eq!(x.rows(), y.len(), "row/label mismatch");
        assert!(!indices.is_empty(), "empty training subset");
        let mut tree =
            DecisionTree { nodes: Vec::new(), n_features: x.cols(), importance: vec![0.0; x.cols()] };
        let mut idx = indices.to_vec();
        grow(&mut tree, x, y, &mut idx, 0, cfg, rng);
        tree
    }

    fn grow(
        tree: &mut DecisionTree,
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
            return make_leaf(&mut tree.nodes);
        }

        let Some((feature, threshold, gain)) = best_split(x, y, indices, n_pos, cfg, rng) else {
            return make_leaf(&mut tree.nodes);
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
            return make_leaf(&mut tree.nodes);
        }

        tree.importance[feature] += gain * n as f64;

        // Reserve the split slot, then grow children.
        tree.nodes.push(Node::Leaf { proba });
        let me = (tree.nodes.len() - 1) as u32;
        let (left_idx, right_idx) = indices.split_at_mut(lo);
        let left = grow(tree, x, y, left_idx, depth + 1, cfg, rng);
        let right = grow(tree, x, y, right_idx, depth + 1, cfg, rng);
        tree.nodes[me as usize] = Node::Split { feature: feature as u32, threshold, left, right };
        me
    }

    /// Finds the best gini split over a random feature subset. Returns
    /// `(feature, threshold, impurity_decrease)`.
    fn best_split(
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
                let gain = (parent_gini - w_gini).max(0.0);
                if best.is_none_or(|b| gain > b.2) {
                    let threshold = midpoint(vals[k].0, vals[k + 1].0);
                    best = Some((f, threshold, gain));
                }
            }
        }
        best
    }

    /// A generated fitting problem shaped to stress tie handling: each
    /// column is constant, holds 1–4 distinct values (of a pool with both
    /// infinities and both largest finite values), mixes `-0.0` and `+0.0`
    /// with the smallest subnormals, or is continuous; labels are random
    /// and the index sample repeats rows.
    pub(crate) fn problem(seed: u64, rows: usize, cols: usize) -> (Matrix, Vec<bool>, Vec<usize>) {
        let tiny = f32::from_bits(1);
        let pool = [
            f32::NEG_INFINITY,
            f32::MIN,
            -1.5,
            -tiny,
            -0.0,
            0.0,
            tiny,
            0.25,
            f32::from_bits(0.25f32.to_bits() + 1),
            3.0,
            f32::MAX,
            f32::INFINITY,
        ];
        let mut rng = Rng::seed(seed);
        let mut x = Matrix::zeros(rows, cols);
        for c in 0..cols {
            let kind = rng.below(4);
            let few: Vec<f32> = (0..1 + rng.below(4)).map(|_| pool[rng.below(pool.len())]).collect();
            for r in 0..rows {
                x.row_mut(r)[c] = match kind {
                    0 => few[0],
                    1 => few[rng.below(few.len())],
                    2 => [-0.0, 0.0, tiny, -tiny][rng.below(4)],
                    _ => rng.f32_range(-1.0, 1.0),
                };
            }
        }
        let y = (0..rows).map(|_| rng.chance(0.5)).collect();
        let indices = (0..1 + rng.below(2 * rows)).map(|_| rng.below(rows)).collect();
        (x, y, indices)
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
    #[should_panic(expected = "NaN feature value")]
    fn nan_in_an_unsampled_column_panics() {
        // A depth-0 tree samples no column; the rank table still reads
        // every cell.
        let x = Matrix::from_rows(vec![vec![0.0, f32::NAN], vec![1.0, 2.0]]);
        let cfg = TreeConfig { max_depth: 0, ..TreeConfig::default() };
        fit_all(&x, &[false, true], &cfg);
    }

    fn tree_bytes(t: &DecisionTree) -> Vec<u8> {
        let mut w = kcb_util::bin::Writer::new();
        t.encode(&mut w);
        w.into_bytes()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn rank_search_grows_the_reference_tree(
            seed in proptest::any::<u64>(),
            rows in 1usize..120,
            cols in 1usize..6,
            max_depth in 0usize..21,
            min_samples_split in 0usize..5,
            min_samples_leaf in 1usize..4,
            mtry in 0usize..7,
        ) {
            let (x, y, indices) = reference::problem(seed, rows, cols);
            let cfg = TreeConfig {
                max_depth,
                min_samples_split,
                min_samples_leaf,
                n_features_per_split: (mtry > 0).then_some(mtry),
            };
            let (mut rng_fast, mut rng_slow) = (Rng::seed(seed), Rng::seed(seed));
            let fast = DecisionTree::fit(&x, &y, &indices, &cfg, &mut rng_fast);
            let slow = reference::fit(&x, &y, &indices, &cfg, &mut rng_slow);
            proptest::prop_assert_eq!(tree_bytes(&fast), tree_bytes(&slow));
            // Same draws: the two streams are still in step.
            proptest::prop_assert_eq!(rng_fast.below(1 << 30), rng_slow.below(1 << 30));
        }
    }

    #[test]
    fn midpoint_separates_adjacent_floats() {
        let a = 1.0f32;
        let b = f32::from_bits(a.to_bits() + 1);
        let m = midpoint(a, b);
        assert!(a <= m && m < b);
    }
}
