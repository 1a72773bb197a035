//! Evaluation metrics: ROC curves, AUC, accuracy, regression errors.

use serde::{Deserialize, Serialize};

/// One operating point on a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RocPoint {
    /// False-positive rate at this threshold.
    pub fpr: f64,
    /// True-positive rate at this threshold.
    pub tpr: f64,
    /// Score threshold (predictions ≥ threshold are positive).
    pub threshold: f64,
}

/// Computes the ROC curve by sweeping the threshold over the sorted scores.
///
/// Returns points from `(0, 0)` to `(1, 1)` inclusive, in order of
/// decreasing threshold.
///
/// # Tied scores
///
/// Equal scores are deterministic by construction: all samples sharing a
/// score enter the curve **together**, as one point whose threshold is
/// that score — never split across two points, whatever order the inputs
/// arrive in. (Sorting is only stable *within* a tie group, but since the
/// whole group is consumed before the point is emitted, input permutation
/// cannot change the curve.) A tie mixing both classes therefore shows up
/// as a single diagonal step, which is also what makes the trapezoid area
/// of this curve agree with [`auc`]'s average-rank tie correction.
///
/// # Panics
///
/// Panics if inputs are empty, lengths differ, or labels are single-class.
pub fn roc_curve(scores: &[f64], labels: &[bool]) -> Vec<RocPoint> {
    assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
    assert!(!scores.is_empty(), "empty inputs");
    let pos = labels.iter().filter(|&&l| l).count();
    let neg = labels.len() - pos;
    assert!(pos > 0 && neg > 0, "ROC needs both classes present");

    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("NaN score"));

    let mut points = vec![RocPoint {
        fpr: 0.0,
        tpr: 0.0,
        threshold: f64::INFINITY,
    }];
    let (mut tp, mut fp) = (0usize, 0usize);
    let mut i = 0;
    while i < order.len() {
        // Advance through ties together so the curve is threshold-faithful.
        let thr = scores[order[i]];
        while i < order.len() && scores[order[i]] == thr {
            if labels[order[i]] {
                tp += 1;
            } else {
                fp += 1;
            }
            i += 1;
        }
        points.push(RocPoint {
            fpr: fp as f64 / neg as f64,
            tpr: tp as f64 / pos as f64,
            threshold: thr,
        });
    }
    points
}

/// Area under the ROC curve via the rank (Mann–Whitney) statistic with tie
/// correction — exact, no curve integration error.
///
/// # Panics
///
/// Panics if inputs are empty, lengths differ, or labels are single-class.
pub fn auc(scores: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
    let pos = labels.iter().filter(|&&l| l).count();
    let neg = labels.len() - pos;
    assert!(pos > 0 && neg > 0, "AUC needs both classes present");

    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).expect("NaN score"));

    // Assign average ranks to ties.
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j < order.len() && scores[order[j]] == scores[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j + 1) as f64 / 2.0; // 1-based average rank
        for &k in &order[i..j] {
            if labels[k] {
                rank_sum_pos += avg_rank;
            }
        }
        i = j;
    }
    let a = (rank_sum_pos - pos as f64 * (pos as f64 + 1.0) / 2.0) / (pos as f64 * neg as f64);
    snia_telemetry::gauge_set("eval.auc", a);
    a
}

/// Classification accuracy at a fixed threshold.
///
/// # Panics
///
/// Panics on empty or mismatched inputs.
pub fn accuracy(scores: &[f64], labels: &[bool], threshold: f64) -> f64 {
    assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
    assert!(!scores.is_empty(), "empty inputs");
    let correct = scores
        .iter()
        .zip(labels)
        .filter(|(&s, &l)| (s >= threshold) == l)
        .count();
    correct as f64 / scores.len() as f64
}

/// True-positive rate at the largest threshold whose false-positive rate
/// does not exceed `max_fpr` (e.g. "TPR at FPR = 1%", the bogus-rejection
/// literature's metric).
pub fn tpr_at_fpr(scores: &[f64], labels: &[bool], max_fpr: f64) -> f64 {
    roc_curve(scores, labels)
        .iter()
        .filter(|p| p.fpr <= max_fpr)
        .map(|p| p.tpr)
        .fold(0.0, f64::max)
}

/// The smallest false-positive rate among thresholds whose true-positive
/// rate reaches `min_tpr` (e.g. "FPR at TPR = 90%", Morii et al. 2016's
/// bogus-rejection metric). Returns 1.0 if no threshold reaches the TPR.
pub fn fpr_at_tpr(scores: &[f64], labels: &[bool], min_tpr: f64) -> f64 {
    roc_curve(scores, labels)
        .iter()
        .filter(|p| p.tpr >= min_tpr)
        .map(|p| p.fpr)
        .fold(1.0, f64::min)
}

/// Mean squared error between predictions and targets.
///
/// # Panics
///
/// Panics on empty or mismatched inputs.
pub fn mse(pred: &[f64], target: &[f64]) -> f64 {
    assert_eq!(pred.len(), target.len(), "length mismatch");
    assert!(!pred.is_empty(), "empty inputs");
    pred.iter()
        .zip(target)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / pred.len() as f64
}

/// Mean absolute error between predictions and targets.
///
/// # Panics
///
/// Panics on empty or mismatched inputs.
pub fn mae(pred: &[f64], target: &[f64]) -> f64 {
    assert_eq!(pred.len(), target.len(), "length mismatch");
    assert!(!pred.is_empty(), "empty inputs");
    pred.iter()
        .zip(target)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / pred.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_separation_gives_auc_one() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        assert_eq!(auc(&scores, &labels), 1.0);
    }

    #[test]
    fn inverted_scores_give_auc_zero() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [true, true, false, false];
        assert_eq!(auc(&scores, &labels), 0.0);
    }

    #[test]
    fn random_scores_give_auc_half() {
        // Deterministic pseudo-random scores, labels independent of them.
        let n = 10_000;
        let scores: Vec<f64> = (0..n)
            .map(|i| ((i * 2654435761u64) % 1000) as f64)
            .collect();
        let labels: Vec<bool> = (0..n).map(|i| (i * 40503) % 7 < 3).collect();
        let a = auc(&scores, &labels);
        assert!((a - 0.5).abs() < 0.02, "auc {a}");
    }

    #[test]
    fn ties_give_half_credit() {
        let scores = [0.5, 0.5];
        let labels = [true, false];
        assert_eq!(auc(&scores, &labels), 0.5);
    }

    #[test]
    fn auc_matches_trapezoid_on_roc() {
        let scores = [0.9, 0.7, 0.6, 0.55, 0.5, 0.4, 0.3, 0.2];
        let labels = [true, true, false, true, false, true, false, false];
        let a = auc(&scores, &labels);
        let curve = roc_curve(&scores, &labels);
        let mut trap = 0.0;
        for w in curve.windows(2) {
            trap += (w[1].fpr - w[0].fpr) * (w[1].tpr + w[0].tpr) / 2.0;
        }
        assert!((a - trap).abs() < 1e-12, "{a} vs {trap}");
    }

    #[test]
    fn roc_starts_at_origin_ends_at_one_one() {
        let scores = [0.9, 0.1, 0.5, 0.3];
        let labels = [true, false, true, false];
        let curve = roc_curve(&scores, &labels);
        let first = curve.first().unwrap();
        let last = curve.last().unwrap();
        assert_eq!((first.fpr, first.tpr), (0.0, 0.0));
        assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
    }

    #[test]
    fn roc_is_monotonic() {
        let scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.15, 0.1];
        let labels = [
            true, false, true, true, false, true, false, false, true, false,
        ];
        let curve = roc_curve(&scores, &labels);
        for w in curve.windows(2) {
            assert!(w[1].fpr >= w[0].fpr && w[1].tpr >= w[0].tpr);
        }
    }

    #[test]
    fn tied_scores_form_single_threshold_groups() {
        // Three tie groups; the middle one mixes both classes and must
        // appear as ONE diagonal step, not be split by input order.
        let scores = [0.8, 0.8, 0.6, 0.6, 0.6, 0.2];
        let labels = [true, false, true, true, false, false];
        let curve = roc_curve(&scores, &labels);
        assert_eq!(curve.len(), 4); // origin + one point per distinct score
        assert_eq!((curve[0].fpr, curve[0].tpr), (0.0, 0.0));
        assert_eq!(curve[1].threshold, 0.8);
        assert_eq!((curve[1].fpr, curve[1].tpr), (1.0 / 3.0, 1.0 / 3.0));
        assert_eq!(curve[2].threshold, 0.6);
        assert_eq!((curve[2].fpr, curve[2].tpr), (2.0 / 3.0, 1.0));
        assert_eq!(curve[3].threshold, 0.2);
        assert_eq!((curve[3].fpr, curve[3].tpr), (1.0, 1.0));

        // Reversing the inputs must reproduce the identical curve.
        let rev_scores: Vec<f64> = scores.iter().rev().copied().collect();
        let rev_labels: Vec<bool> = labels.iter().rev().copied().collect();
        assert_eq!(curve, roc_curve(&rev_scores, &rev_labels));
    }

    #[test]
    fn accuracy_at_threshold() {
        let scores = [0.9, 0.6, 0.4, 0.1];
        let labels = [true, false, true, false];
        assert_eq!(accuracy(&scores, &labels, 0.5), 0.5);
    }

    #[test]
    fn tpr_at_fpr_basics() {
        let scores = [0.9, 0.8, 0.7, 0.2];
        let labels = [true, true, false, false];
        // At FPR 0 we already capture both positives.
        assert_eq!(tpr_at_fpr(&scores, &labels, 0.0), 1.0);
    }

    #[test]
    fn fpr_at_tpr_basics() {
        let scores = [0.9, 0.8, 0.7, 0.2];
        let labels = [true, true, false, false];
        // Both positives are captured before any negative fires.
        assert_eq!(fpr_at_tpr(&scores, &labels, 0.9), 0.0);
        // An unreachable TPR yields the worst-case FPR of 1.
        let inverted = [false, false, true, true];
        assert_eq!(fpr_at_tpr(&scores, &inverted, 1.0), 1.0);
    }

    #[test]
    fn regression_metrics() {
        let p = [1.0, 2.0, 3.0];
        let t = [1.0, 1.0, 5.0];
        assert!((mse(&p, &t) - (0.0 + 1.0 + 4.0) / 3.0).abs() < 1e-12);
        assert!((mae(&p, &t) - (0.0 + 1.0 + 2.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_auc_panics() {
        auc(&[0.5, 0.6], &[true, true]);
    }
}
