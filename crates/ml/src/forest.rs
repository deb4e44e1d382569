//! Random forests: bootstrap-aggregated CART trees with √d feature
//! sampling, soft-vote probabilities and impurity-based feature
//! importances (the paper's primary supervised learner, §2.6, and the
//! source of the Figure A1 importance analysis).

use crate::linalg::Matrix;
use crate::tree::{DecisionTree, Ranks, TreeConfig};
use kcb_util::{pool, Rng};

/// Random-forest hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Features per split; `None` = √d (the classification default).
    pub n_features_per_split: Option<usize>,
    /// RNG seed; the fitted forest is a pure function of data + config.
    pub seed: u64,
    /// Number of worker threads for tree fitting (1 = sequential).
    pub n_threads: usize,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 60,
            max_depth: 20,
            min_samples_leaf: 2,
            n_features_per_split: None,
            seed: 42,
            n_threads: num_threads(),
        }
    }
}

fn num_threads() -> usize {
    // The workspace-wide pool setting (`kcb_util::pool::set_threads`, driven
    // by `repro --threads`) so forest fan-out follows the same knob as the
    // LM kernels and the cell scheduler.
    pool::threads()
}

/// A fitted random forest.
#[derive(Debug)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_features: usize,
    oob_accuracy: Option<f64>,
}

impl RandomForest {
    /// Fits the forest. Each tree trains on a bootstrap resample of the
    /// rows; per-tree RNG streams are derived from the seed and the tree
    /// index, so results do not depend on thread scheduling. The matrix is
    /// ranked once (see [`crate::tree`]) and every tree reads that table.
    ///
    /// Panics with "NaN feature value" when any cell of `x` is NaN, whether
    /// or not a tree would have sampled its column.
    ///
    /// ```
    /// use kcb_ml::linalg::Matrix;
    /// use kcb_ml::{RandomForest, RandomForestConfig};
    /// let x = Matrix::from_rows((0..40).map(|i| vec![i as f32]).collect::<Vec<_>>());
    /// let y: Vec<bool> = (0..40).map(|i| i >= 20).collect();
    /// let cfg = RandomForestConfig { n_trees: 8, n_threads: 1, ..Default::default() };
    /// let forest = RandomForest::fit(&x, &y, &cfg);
    /// assert!(forest.predict(&[35.0]));
    /// assert!(!forest.predict(&[3.0]));
    /// ```
    pub fn fit(x: &Matrix, y: &[bool], cfg: &RandomForestConfig) -> Self {
        assert_eq!(x.rows(), y.len(), "row/label mismatch");
        assert!(x.rows() > 0, "empty training data");
        assert!(cfg.n_trees > 0, "n_trees must be positive");
        let _span = kcb_obs::span("ml", "forest.fit")
            .arg("trees", cfg.n_trees)
            .arg("rows", x.rows())
            .arg("cols", x.cols());
        kcb_obs::counter("forest.fits", 1);
        let ranks = Ranks::new(x);
        Self::fit_trees(x, y, cfg, |indices, tree_cfg, rng| {
            DecisionTree::fit_ranked(x, &ranks, y, indices, tree_cfg, rng)
        })
    }

    /// Grows `cfg.n_trees` trees with `fit_tree` (on a bootstrap sample, a
    /// tree config and the tree's `Rng` stream) and scores them out of bag.
    fn fit_trees(
        x: &Matrix,
        y: &[bool],
        cfg: &RandomForestConfig,
        fit_tree: impl Fn(&[usize], &TreeConfig, &mut Rng) -> DecisionTree + Sync,
    ) -> Self {
        let mtry = cfg
            .n_features_per_split
            .unwrap_or_else(|| (x.cols() as f64).sqrt().round().max(1.0) as usize);
        let tree_cfg = TreeConfig {
            max_depth: cfg.max_depth,
            min_samples_split: cfg.min_samples_leaf.max(1) * 2,
            min_samples_leaf: cfg.min_samples_leaf,
            n_features_per_split: Some(mtry),
        };

        // Bootstrap indices are derived per tree index so parallel
        // scheduling cannot change them; they also drive the OOB estimate.
        let bootstrap = |t: usize| -> (Vec<usize>, Rng) {
            let mut rng = Rng::seed_stream(cfg.seed, 0xf0_0000 + t as u64);
            let n = x.rows();
            let indices: Vec<usize> = (0..n).map(|_| rng.below(n)).collect();
            (indices, rng)
        };
        let fit_one = |t: usize| -> DecisionTree {
            let (indices, mut rng) = bootstrap(t);
            fit_tree(&indices, &tree_cfg, &mut rng)
        };

        // Pool arbitration: yields to cell-level parallelism (fan-out 1 on
        // scheduler workers in serial mode) and to cores reserved by other
        // threads; per-tree streams keep the result independent of fan-out.
        let workers = pool::fanout(cfg.n_threads, cfg.n_trees);
        let trees: Vec<DecisionTree> = if workers <= 1 || cfg.n_trees == 1 {
            (0..cfg.n_trees).map(fit_one).collect()
        } else {
            // Chunk tree indices across scoped worker threads; each slot is
            // written by exactly one worker.
            let mut slots: Vec<Option<DecisionTree>> = (0..cfg.n_trees).map(|_| None).collect();
            let chunk = cfg.n_trees.div_ceil(workers);
            crossbeam::thread::scope(|s| {
                for (w, slot_chunk) in slots.chunks_mut(chunk).enumerate() {
                    let fit_one = &fit_one;
                    s.spawn(move |_| {
                        for (k, slot) in slot_chunk.iter_mut().enumerate() {
                            *slot = Some(fit_one(w * chunk + k));
                        }
                    });
                }
            })
            .expect("forest worker panicked");
            slots.into_iter().map(|s| s.expect("tree slot filled")).collect()
        };

        // Out-of-bag accuracy: vote each row only with trees whose
        // bootstrap missed it.
        let n = x.rows();
        let mut vote_sum = vec![0.0f32; n];
        let mut vote_n = vec![0u32; n];
        for (t, tree) in trees.iter().enumerate() {
            let (indices, _) = bootstrap(t);
            let mut in_bag = vec![false; n];
            for &i in &indices {
                in_bag[i] = true;
            }
            for i in 0..n {
                if !in_bag[i] {
                    vote_sum[i] += tree.predict_proba(x.row(i));
                    vote_n[i] += 1;
                }
            }
        }
        let mut correct = 0usize;
        let mut counted = 0usize;
        for i in 0..n {
            if vote_n[i] == 0 {
                continue;
            }
            counted += 1;
            if (vote_sum[i] / vote_n[i] as f32 >= 0.5) == y[i] {
                correct += 1;
            }
        }
        let oob_accuracy =
            if counted * 10 >= n { Some(correct as f64 / counted as f64) } else { None };

        Self { trees, n_features: x.cols(), oob_accuracy }
    }

    /// Out-of-bag accuracy estimate, when enough rows were left out of at
    /// least one bootstrap (the usual case; `None` for degenerate
    /// single-tree tiny fits).
    pub fn oob_accuracy(&self) -> Option<f64> {
        self.oob_accuracy
    }

    /// Mean positive-class probability across trees (soft vote).
    pub fn predict_proba(&self, row: &[f32]) -> f32 {
        let sum: f32 = self.trees.iter().map(|t| t.predict_proba(row)).sum();
        sum / self.trees.len() as f32
    }

    /// Hard prediction at threshold 0.5.
    pub fn predict(&self, row: &[f32]) -> bool {
        self.predict_proba(row) >= 0.5
    }

    /// Predictions for every row of a matrix.
    pub fn predict_batch(&self, x: &Matrix) -> Vec<bool> {
        x.iter_rows().map(|r| self.predict(r)).collect()
    }

    /// Probabilities for every row of a matrix.
    pub fn predict_proba_batch(&self, x: &Matrix) -> Vec<f32> {
        x.iter_rows().map(|r| self.predict_proba(r)).collect()
    }

    /// Mean impurity-decrease feature importances, normalised to sum to 1
    /// (all-zero when no split was ever made).
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut imp = vec![0.0f64; self.n_features];
        for t in &self.trees {
            for (a, b) in imp.iter_mut().zip(&t.importance) {
                *a += b;
            }
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    /// Width of the feature rows the forest predicts on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Streams the fitted forest into a checkpoint writer. Bit-exact: a
    /// decoded forest returns identical probabilities for every input.
    pub fn encode(&self, w: &mut kcb_util::bin::Writer) {
        w.raw(b"KCBF");
        w.u32(1);
        w.u32(self.n_features as u32);
        match self.oob_accuracy {
            Some(v) => {
                w.u8(1);
                w.f64(v);
            }
            None => w.u8(0),
        }
        w.u32(self.trees.len() as u32);
        for t in &self.trees {
            t.encode(w);
        }
    }

    /// Decodes a forest previously written by [`RandomForest::encode`].
    pub fn decode(r: &mut kcb_util::bin::Reader<'_>) -> kcb_util::Result<Self> {
        r.magic(b"KCBF")?;
        r.version(1)?;
        let err = |m: &str| kcb_util::Error::parse("random-forest", m.to_string());
        let n_features = r.u32()? as usize;
        let oob_accuracy = match r.u8()? {
            0 => None,
            1 => Some(r.f64()?),
            _ => return Err(err("OOB tag is neither 0 nor 1")),
        };
        let n_trees = r.u32()? as usize;
        r.sized(n_trees, 12)?;
        let trees = (0..n_trees).map(|_| DecisionTree::decode(r)).collect::<kcb_util::Result<Vec<_>>>()?;
        if trees.is_empty() {
            return Err(err("zero trees"));
        }
        // A wider tree would index past the rows this forest is fed.
        if trees.iter().any(|t| t.n_features() != n_features) {
            return Err(err("tree width differs from the forest's"));
        }
        Ok(Self { trees, n_features, oob_accuracy })
    }

    /// Encodes the forest as a standalone byte blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = kcb_util::bin::Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decodes a forest from a standalone byte blob.
    pub fn from_bytes(bytes: &[u8]) -> kcb_util::Result<Self> {
        let mut r = kcb_util::bin::Reader::new(bytes, "random-forest");
        let f = Self::decode(&mut r)?;
        r.finish()?;
        Ok(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::reference;

    /// y = (x0 > 0.5) XOR (x1 > 0.5) with noise features.
    fn xor_data(n: usize, seed: u64) -> (Matrix, Vec<bool>) {
        let mut rng = Rng::seed(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a = rng.f32();
            let b = rng.f32();
            let noise1 = rng.f32();
            let noise2 = rng.f32();
            rows.push(vec![a, b, noise1, noise2]);
            y.push((a > 0.5) != (b > 0.5));
        }
        (Matrix::from_rows(rows), y)
    }

    fn small_cfg() -> RandomForestConfig {
        RandomForestConfig { n_trees: 20, n_threads: 2, ..RandomForestConfig::default() }
    }

    #[test]
    fn learns_xor_with_noise_features() {
        let (x, y) = xor_data(600, 1);
        let f = RandomForest::fit(&x, &y, &small_cfg());
        let (xt, yt) = xor_data(200, 2);
        let preds = f.predict_batch(&xt);
        let acc = preds.iter().zip(&yt).filter(|(p, y)| p == y).count() as f64 / yt.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (x, y) = xor_data(300, 3);
        let cfg1 = RandomForestConfig { n_threads: 1, n_trees: 8, ..RandomForestConfig::default() };
        let cfg4 = RandomForestConfig { n_threads: 4, n_trees: 8, ..RandomForestConfig::default() };
        let f1 = RandomForest::fit(&x, &y, &cfg1);
        let f4 = RandomForest::fit(&x, &y, &cfg4);
        let (xt, _) = xor_data(50, 4);
        for r in xt.iter_rows() {
            assert_eq!(f1.predict_proba(r), f4.predict_proba(r));
        }
    }

    #[test]
    fn importances_identify_signal_features() {
        let (x, y) = xor_data(600, 5);
        let f = RandomForest::fit(&x, &y, &small_cfg());
        let imp = f.feature_importances();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > imp[2], "{imp:?}");
        assert!(imp[1] > imp[3], "{imp:?}");
        assert!(imp[0] + imp[1] > 0.7, "{imp:?}");
    }

    #[test]
    fn probabilities_are_calibrated_direction() {
        let (x, y) = xor_data(600, 6);
        let f = RandomForest::fit(&x, &y, &small_cfg());
        // Clear positives/negatives.
        assert!(f.predict_proba(&[0.9, 0.1, 0.5, 0.5]) > 0.7);
        assert!(f.predict_proba(&[0.9, 0.9, 0.5, 0.5]) < 0.3);
    }

    #[test]
    fn oob_accuracy_tracks_test_accuracy() {
        let (x, y) = xor_data(600, 9);
        let f = RandomForest::fit(&x, &y, &small_cfg());
        let oob = f.oob_accuracy().expect("enough OOB rows");
        let (xt, yt) = xor_data(200, 10);
        let preds = f.predict_batch(&xt);
        let test_acc =
            preds.iter().zip(&yt).filter(|(p, y)| p == y).count() as f64 / yt.len() as f64;
        assert!((oob - test_acc).abs() < 0.12, "oob {oob} vs test {test_acc}");
        assert!(oob > 0.8);
    }

    #[test]
    fn single_tree_single_thread() {
        let (x, y) = xor_data(100, 7);
        let cfg = RandomForestConfig { n_trees: 1, n_threads: 1, ..RandomForestConfig::default() };
        let f = RandomForest::fit(&x, &y, &cfg);
        assert_eq!(f.n_trees(), 1);
    }

    #[test]
    fn codec_round_trip_is_bit_exact() {
        let (x, y) = xor_data(300, 11);
        let f = RandomForest::fit(&x, &y, &small_cfg());
        let bytes = f.to_bytes();
        let g = RandomForest::from_bytes(&bytes).expect("decode");
        assert_eq!(g.n_trees(), f.n_trees());
        assert_eq!(g.oob_accuracy(), f.oob_accuracy());
        assert_eq!(g.feature_importances(), f.feature_importances());
        let (xt, _) = xor_data(80, 12);
        for r in xt.iter_rows() {
            assert_eq!(f.predict_proba(r).to_bits(), g.predict_proba(r).to_bits());
        }
    }

    #[test]
    fn codec_rejects_truncation_and_corruption_without_panicking() {
        let (x, y) = xor_data(100, 13);
        let cfg = RandomForestConfig { n_trees: 4, n_threads: 1, ..RandomForestConfig::default() };
        let f = RandomForest::fit(&x, &y, &cfg);
        let bytes = f.to_bytes();
        // Truncation at every prefix must error, never panic.
        for cut in [0, 3, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(RandomForest::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // A flipped version byte must be rejected.
        let mut flipped = bytes.clone();
        flipped[4] ^= 0xff;
        assert!(RandomForest::from_bytes(&flipped).is_err());
    }

    #[test]
    #[should_panic(expected = "NaN feature value")]
    fn nan_anywhere_panics_even_if_no_tree_samples_it() {
        let (mut x, y) = xor_data(50, 14);
        x.row_mut(7)[3] = f32::NAN;
        let cfg = RandomForestConfig { n_trees: 2, max_depth: 0, n_threads: 1, ..Default::default() };
        let _ = RandomForest::fit(&x, &y, &cfg);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn forest_bytes_match_the_sort_reference(
            seed in proptest::any::<u64>(),
            rows in 1usize..80,
            cols in 1usize..6,
            n_trees in 1usize..5,
            n_threads in 1usize..3,
            max_depth in 0usize..21,
            min_samples_leaf in 1usize..4,
            mtry in 0usize..7,
        ) {
            let (x, y, _) = reference::problem(seed, rows, cols);
            let cfg = RandomForestConfig {
                n_trees,
                max_depth,
                min_samples_leaf,
                n_features_per_split: (mtry > 0).then_some(mtry),
                seed,
                n_threads,
            };
            let slow = RandomForest::fit_trees(&x, &y, &cfg, |indices, tree_cfg, rng| {
                reference::fit(&x, &y, indices, tree_cfg, rng)
            });
            proptest::prop_assert_eq!(RandomForest::fit(&x, &y, &cfg).to_bytes(), slow.to_bytes());
        }
    }

    #[test]
    #[should_panic(expected = "row/label mismatch")]
    fn rejects_mismatched_labels() {
        let (x, _) = xor_data(10, 8);
        let _ = RandomForest::fit(&x, &[true; 9], &small_cfg());
    }
}
