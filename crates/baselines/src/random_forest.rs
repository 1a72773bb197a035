//! A from-scratch random-forest classifier (CART trees, Gini impurity,
//! bootstrap bagging, √d feature subsampling).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random-forest hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_split: usize,
    /// Seed for bootstrapping and feature subsampling.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 100,
            max_depth: 10,
            min_split: 5,
            seed: 17,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        prob: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn predict(&self, x: &[f64]) -> f64 {
        match self {
            Node::Leaf { prob } => *prob,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if x[*feature] <= *threshold {
                    left.predict(x)
                } else {
                    right.predict(x)
                }
            }
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }
}

/// A trained random forest for binary classification.
///
/// # Examples
///
/// ```
/// use snia_baselines::random_forest::{ForestConfig, RandomForest};
/// // XOR-ish data a single linear model cannot fit.
/// let x: Vec<Vec<f64>> = vec![
///     vec![0., 0.], vec![0., 1.], vec![1., 0.], vec![1., 1.],
///     vec![0.1, 0.1], vec![0.1, 0.9], vec![0.9, 0.1], vec![0.9, 0.9],
/// ];
/// let y = vec![false, true, true, false, false, true, true, false];
/// let rf = RandomForest::fit(&x, &y, &ForestConfig { n_trees: 50, ..Default::default() });
/// assert!(rf.predict_proba(&[0.05, 0.95]) > 0.5);
/// assert!(rf.predict_proba(&[0.95, 0.95]) < 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<Node>,
    n_features: usize,
}

impl RandomForest {
    /// Fits a forest on `(x, y)` with `x` row-major samples.
    ///
    /// # Panics
    ///
    /// Panics if the data is empty, ragged, or single-class.
    pub fn fit(x: &[Vec<f64>], y: &[bool], cfg: &ForestConfig) -> Self {
        assert!(!x.is_empty(), "empty training set");
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        let d = x[0].len();
        assert!(x.iter().all(|r| r.len() == d), "ragged feature matrix");
        assert!(
            y.iter().any(|&l| l) && y.iter().any(|&l| !l),
            "training set must contain both classes"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = x.len();
        let mtry = ((d as f64).sqrt().ceil() as usize).clamp(1, d);
        let trees = (0..cfg.n_trees)
            .map(|_| {
                let sample: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                build_tree(x, y, &sample, mtry, cfg.max_depth, cfg.min_split, &mut rng)
            })
            .collect();
        RandomForest {
            trees,
            n_features: d,
        }
    }

    /// The probability of the positive class.
    ///
    /// # Panics
    ///
    /// Panics on a feature-count mismatch.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_features, "feature count mismatch");
        self.trees.iter().map(|t| t.predict(x)).sum::<f64>() / self.trees.len() as f64
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Maximum depth across trees (diagnostics).
    pub fn max_depth(&self) -> usize {
        self.trees.iter().map(Node::depth).max().unwrap_or(0)
    }
}

fn gini(pos: usize, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let p = pos as f64 / total as f64;
    2.0 * p * (1.0 - p)
}

fn build_tree(
    x: &[Vec<f64>],
    y: &[bool],
    indices: &[usize],
    mtry: usize,
    depth_left: usize,
    min_split: usize,
    rng: &mut StdRng,
) -> Node {
    let pos = indices.iter().filter(|&&i| y[i]).count();
    let total = indices.len();
    let prob = pos as f64 / total.max(1) as f64;
    if depth_left == 0 || total < min_split || pos == 0 || pos == total {
        return Node::Leaf { prob };
    }

    let d = x[0].len();
    // Choose mtry distinct candidate features.
    let mut features: Vec<usize> = (0..d).collect();
    for i in 0..mtry.min(d) {
        let j = rng.gen_range(i..d);
        features.swap(i, j);
    }
    let features = &features[..mtry.min(d)];

    let parent_gini = gini(pos, total);
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
    let mut sorted = indices.to_vec();
    for &f in features {
        sorted.sort_by(|&a, &b| x[a][f].partial_cmp(&x[b][f]).expect("NaN feature"));
        let mut left_pos = 0usize;
        for (k, &i) in sorted.iter().enumerate().take(total - 1) {
            if y[i] {
                left_pos += 1;
            }
            let (lv, rv) = (x[sorted[k]][f], x[sorted[k + 1]][f]);
            if lv == rv {
                continue; // can't split between equal values
            }
            let left_n = k + 1;
            let right_n = total - left_n;
            let right_pos = pos - left_pos;
            let w_gini = (left_n as f64 * gini(left_pos, left_n)
                + right_n as f64 * gini(right_pos, right_n))
                / total as f64;
            let gain = parent_gini - w_gini;
            if gain > 1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                best = Some((f, (lv + rv) / 2.0, gain));
            }
        }
    }

    match best {
        None => Node::Leaf { prob },
        Some((feature, threshold, _)) => {
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                indices.iter().partition(|&&i| x[i][feature] <= threshold);
            let left = build_tree(x, y, &left_idx, mtry, depth_left - 1, min_split, rng);
            let right = build_tree(x, y, &right_idx, mtry, depth_left - 1, min_split, rng);
            Node::Split {
                feature,
                threshold,
                left: Box::new(left),
                right: Box::new(right),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<bool>) {
        // Positive class = inside the unit circle; not linearly separable.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a = rng.gen_range(-1.5..1.5);
            let b = rng.gen_range(-1.5..1.5);
            x.push(vec![a, b]);
            y.push(a * a + b * b < 1.0);
        }
        (x, y)
    }

    #[test]
    fn learns_nonlinear_boundary() {
        let (x, y) = ring_data(600, 1);
        let rf = RandomForest::fit(
            &x,
            &y,
            &ForestConfig {
                n_trees: 60,
                ..Default::default()
            },
        );
        let (xt, yt) = ring_data(200, 2);
        let correct = xt
            .iter()
            .zip(&yt)
            .filter(|(r, &l)| (rf.predict_proba(r) > 0.5) == l)
            .count();
        let acc = correct as f64 / yt.len() as f64;
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn probabilities_are_calibrated_endpoints() {
        let (x, y) = ring_data(400, 3);
        let rf = RandomForest::fit(&x, &y, &ForestConfig::default());
        // Deep inside the circle / far outside: near-certain predictions.
        assert!(rf.predict_proba(&[0.0, 0.0]) > 0.9);
        assert!(rf.predict_proba(&[1.45, 1.45]) < 0.1);
    }

    #[test]
    fn prediction_is_deterministic() {
        let (x, y) = ring_data(200, 4);
        let cfg = ForestConfig {
            n_trees: 20,
            ..Default::default()
        };
        let a = RandomForest::fit(&x, &y, &cfg);
        let b = RandomForest::fit(&x, &y, &cfg);
        assert_eq!(a.predict_proba(&[0.3, -0.2]), b.predict_proba(&[0.3, -0.2]));
    }

    #[test]
    fn respects_max_depth() {
        let (x, y) = ring_data(500, 5);
        let rf = RandomForest::fit(
            &x,
            &y,
            &ForestConfig {
                max_depth: 3,
                ..Default::default()
            },
        );
        assert!(rf.max_depth() <= 4); // depth counts nodes, max_depth counts splits
    }

    #[test]
    fn single_feature_data_works() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<bool> = (0..100).map(|i| i >= 50).collect();
        let rf = RandomForest::fit(&x, &y, &ForestConfig::default());
        assert!(rf.predict_proba(&[10.0]) < 0.2);
        assert!(rf.predict_proba(&[90.0]) > 0.8);
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_panics() {
        let x = vec![vec![1.0], vec![2.0]];
        let y = vec![true, true];
        RandomForest::fit(&x, &y, &ForestConfig::default());
    }

    #[test]
    #[should_panic(expected = "feature count")]
    fn feature_mismatch_panics() {
        let x = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        let y = vec![true, false];
        let rf = RandomForest::fit(&x, &y, &ForestConfig::default());
        rf.predict_proba(&[1.0]);
    }
}
