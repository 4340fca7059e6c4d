//! Seeded, stratified k-fold cross-validation and holdout evaluation.
//!
//! Folds are *views*: each fold trains and tests on a borrowed
//! row-index selection over the one columnar [`Instances`], so the CV
//! loop copies zero cells. Fold assignment, training and prediction are
//! bit-identical to the old materializing implementation — only the
//! allocations are gone.

use super::metrics::ConfusionMatrix;
use crate::classify::AlgorithmSpec;
use crate::error::{MiningError, Result};
use crate::instances::{Instances, InstancesView};
use openbi_table::{par, Rng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Aggregate result of evaluating one algorithm on one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResult {
    /// Algorithm display name.
    pub algorithm: String,
    /// Pooled confusion matrix over all test folds.
    pub confusion: ConfusionMatrix,
    /// Accuracy per fold.
    pub fold_accuracies: Vec<f64>,
    /// Total training time (milliseconds).
    pub train_ms: f64,
    /// Total prediction time (milliseconds).
    pub predict_ms: f64,
    /// Mean fitted model size across folds.
    pub model_size: f64,
}

impl EvalResult {
    /// Pooled accuracy.
    pub fn accuracy(&self) -> f64 {
        self.confusion.accuracy()
    }

    /// Pooled macro F1.
    pub fn macro_f1(&self) -> f64 {
        self.confusion.macro_f1()
    }

    /// Pooled minority-class F1.
    pub fn minority_f1(&self) -> f64 {
        self.confusion.minority_f1()
    }

    /// Pooled kappa.
    pub fn kappa(&self) -> f64 {
        self.confusion.kappa()
    }

    /// Standard deviation of per-fold accuracy.
    pub fn accuracy_std(&self) -> f64 {
        let n = self.fold_accuracies.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.fold_accuracies.iter().sum::<f64>() / n as f64;
        (self
            .fold_accuracies
            .iter()
            .map(|a| (a - mean) * (a - mean))
            .sum::<f64>()
            / (n - 1) as f64)
            .sqrt()
    }
}

/// Stratified fold assignment: labeled rows are shuffled per class and
/// dealt round-robin so each fold preserves the class distribution.
/// Returns `folds` lists of row indices.
pub fn stratified_folds(data: &Instances, folds: usize, seed: u64) -> Result<Vec<Vec<usize>>> {
    stratified_folds_view(&data.view(), folds, seed)
}

/// [`stratified_folds`] over a view; the returned indices are
/// view-local.
pub fn stratified_folds_view(
    data: &InstancesView<'_>,
    folds: usize,
    seed: u64,
) -> Result<Vec<Vec<usize>>> {
    if folds < 2 {
        return Err(MiningError::InvalidParameter(
            "cross-validation needs at least 2 folds".into(),
        ));
    }
    let labeled = data.labeled_indices();
    if labeled.len() < folds {
        return Err(MiningError::InvalidDataset(format!(
            "{} labeled rows cannot fill {} folds",
            labeled.len(),
            folds
        )));
    }
    let mut rng = Rng::seed_from_u64(seed);
    let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); data.n_classes().max(1)];
    for &i in &labeled {
        per_class[data.label(i).expect("labeled")].push(i);
    }
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); folds];
    let mut next = 0usize;
    for class_rows in &mut per_class {
        rng.shuffle(class_rows);
        for &row in class_rows.iter() {
            assignment[next % folds].push(row);
            next += 1;
        }
    }
    Ok(assignment)
}

/// Options controlling how [`cross_validate_with`] executes.
#[derive(Debug, Clone, Default)]
pub struct CrossValOptions {
    /// Evaluate the folds through [`par::map`] (the calling thread plus
    /// one scoped helper per further core, each taking the next fold);
    /// outcomes merge in fold order, so fold assignment and the pooled
    /// result are identical either way and only wall-clock time
    /// changes. A fold that panics fails the run with
    /// [`MiningError::Execution`]. Leave off inside already-parallel
    /// experiment grids.
    pub parallel_folds: bool,
}

impl CrossValOptions {
    /// Options with the parallel fold loop enabled.
    pub fn parallel() -> Self {
        CrossValOptions {
            parallel_folds: true,
        }
    }
}

/// Everything one fold contributes to the pooled result, kept separate
/// so folds can run on any thread and still merge in fold order.
struct FoldOutcome {
    actual: Vec<usize>,
    predicted: Vec<usize>,
    accuracy: f64,
    train_ms: f64,
    predict_ms: f64,
    model_size: f64,
}

/// Train and test one fold over borrowed row selections — no cell is
/// copied. `train_buf` is a caller-owned scratch vector for the
/// training-row indices so sequential sweeps reuse one allocation
/// across all folds.
fn run_fold(
    data: &InstancesView<'_>,
    spec: &AlgorithmSpec,
    fold_rows: &[Vec<usize>],
    f: usize,
    train_buf: &mut Vec<usize>,
) -> Result<FoldOutcome> {
    train_buf.clear();
    for (i, rows) in fold_rows.iter().enumerate() {
        if i != f {
            train_buf.extend_from_slice(rows);
        }
    }
    let test_rows = &fold_rows[f];
    let train = data.select_rows(train_buf);
    let test = data.select_rows(test_rows);
    let mut model = spec.build();
    let t0 = Instant::now();
    model.fit_view(&train)?;
    let train_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let predicted = model.predict_view(&test)?;
    let predict_ms = t1.elapsed().as_secs_f64() * 1e3;
    let mut actual = Vec::with_capacity(test_rows.len());
    let mut correct = 0usize;
    for (i, p) in predicted.iter().enumerate() {
        let l = test.label(i).expect("stratified folds hold labeled rows");
        actual.push(l);
        if *p == l {
            correct += 1;
        }
    }
    Ok(FoldOutcome {
        accuracy: correct as f64 / test.len().max(1) as f64,
        actual,
        predicted,
        train_ms,
        predict_ms,
        model_size: model.model_size() as f64,
    })
}

/// `fold()`, with a panic turned into fold `f`'s
/// [`MiningError::Execution`].
fn catch_fold<T>(f: usize, fold: impl FnOnce() -> Result<T>) -> Result<T> {
    catch_unwind(AssertUnwindSafe(fold)).unwrap_or_else(|_| {
        Err(MiningError::Execution(format!(
            "cross-validation fold {f} panicked"
        )))
    })
}

/// Run stratified k-fold cross-validation of an algorithm spec.
pub fn cross_validate(
    data: &Instances,
    spec: &AlgorithmSpec,
    folds: usize,
    seed: u64,
) -> Result<EvalResult> {
    cross_validate_with(data, spec, folds, seed, &CrossValOptions::default())
}

/// [`cross_validate`] with explicit execution options. With
/// `parallel_folds` the folds are shared among the calling thread and
/// its helpers; outcomes are merged in fold-index order, so the result
/// is equal to the sequential run (timings excepted).
pub fn cross_validate_with(
    data: &Instances,
    spec: &AlgorithmSpec,
    folds: usize,
    seed: u64,
    opts: &CrossValOptions,
) -> Result<EvalResult> {
    cross_validate_view(&data.view(), spec, folds, seed, opts)
}

/// Cross-validate directly on a view — lets callers evaluate an
/// attribute projection (`select_attrs`) or row selection without
/// materializing it first.
pub fn cross_validate_view(
    data: &InstancesView<'_>,
    spec: &AlgorithmSpec,
    folds: usize,
    seed: u64,
    opts: &CrossValOptions,
) -> Result<EvalResult> {
    let fold_rows = stratified_folds_view(data, folds, seed)?;
    let n_labeled: usize = fold_rows.iter().map(Vec::len).sum();
    let run = |f: usize, train_buf: &mut Vec<usize>| run_fold(data, spec, &fold_rows, f, train_buf);
    let outcomes: Vec<FoldOutcome> = if opts.parallel_folds {
        par::map((0..folds).collect(), |f| {
            catch_fold(f, || run(f, &mut Vec::with_capacity(n_labeled)))
        })
        .into_iter()
        .collect::<Result<Vec<FoldOutcome>>>()?
    } else {
        let mut train_buf = Vec::with_capacity(n_labeled);
        let mut out = Vec::with_capacity(folds);
        for f in 0..folds {
            out.push(run(f, &mut train_buf)?);
        }
        out
    };
    let mut actual = Vec::with_capacity(n_labeled);
    let mut predicted = Vec::with_capacity(n_labeled);
    let mut fold_accuracies = Vec::with_capacity(folds);
    let mut train_ms = 0.0;
    let mut predict_ms = 0.0;
    let mut model_size_sum = 0.0;
    for o in outcomes {
        actual.extend(o.actual);
        predicted.extend(o.predicted);
        fold_accuracies.push(o.accuracy);
        train_ms += o.train_ms;
        predict_ms += o.predict_ms;
        model_size_sum += o.model_size;
    }
    Ok(EvalResult {
        algorithm: spec.to_string(),
        confusion: ConfusionMatrix::from_predictions(data.class_names(), &actual, &predicted)?,
        fold_accuracies,
        train_ms,
        predict_ms,
        model_size: model_size_sum / folds as f64,
    })
}

/// Single stratified holdout split: returns `(train, test)` views with
/// `test_fraction` of each class in the test set. The views borrow
/// `data` — no rows are copied; call [`InstancesView::materialize`] if
/// an owned dataset is needed.
pub fn holdout_split(
    data: &Instances,
    test_fraction: f64,
    seed: u64,
) -> Result<(InstancesView<'_>, InstancesView<'_>)> {
    if !(0.0..1.0).contains(&test_fraction) || test_fraction == 0.0 {
        return Err(MiningError::InvalidParameter(
            "test fraction must be in (0,1)".into(),
        ));
    }
    let mut rng = Rng::seed_from_u64(seed);
    let labeled = data.labeled_indices();
    let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); data.n_classes().max(1)];
    for &i in &labeled {
        per_class[data.labels[i].expect("labeled")].push(i);
    }
    let mut train_rows = Vec::new();
    let mut test_rows = Vec::new();
    for class_rows in &mut per_class {
        rng.shuffle(class_rows);
        let n_test = ((class_rows.len() as f64 * test_fraction).round() as usize)
            .min(class_rows.len().saturating_sub(1));
        test_rows.extend_from_slice(&class_rows[..n_test]);
        train_rows.extend_from_slice(&class_rows[n_test..]);
    }
    if train_rows.is_empty() || test_rows.is_empty() {
        return Err(MiningError::InvalidDataset(
            "holdout produced an empty split".into(),
        ));
    }
    Ok((
        data.view().select_rows_owned(train_rows),
        data.view().select_rows_owned(test_rows),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::{AttrKind, Attribute};

    fn data(n_per_class: usize) -> Instances {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_per_class {
            let j = (i % 7) as f64 * 0.1;
            rows.push(vec![Some(j)]);
            labels.push(Some(0));
            rows.push(vec![Some(5.0 + j)]);
            labels.push(Some(1));
        }
        Instances::from_rows(
            vec![Attribute {
                name: "x".into(),
                kind: AttrKind::Numeric,
            }],
            rows,
            labels,
            vec!["a".into(), "b".into()],
        )
    }

    #[test]
    fn folds_are_stratified_and_partition() {
        let d = data(25);
        let folds = stratified_folds(&d, 5, 3).unwrap();
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<usize>>());
        for f in &folds {
            let pos = f.iter().filter(|&&i| d.labels[i] == Some(0)).count();
            assert_eq!(pos, 5, "each fold holds 5 of each class");
        }
    }

    #[test]
    fn folds_deterministic_by_seed() {
        let d = data(20);
        assert_eq!(
            stratified_folds(&d, 4, 9).unwrap(),
            stratified_folds(&d, 4, 9).unwrap()
        );
        assert_ne!(
            stratified_folds(&d, 4, 9).unwrap(),
            stratified_folds(&d, 4, 10).unwrap()
        );
    }

    #[test]
    fn cross_validation_on_separable_data_is_accurate() {
        let d = data(30);
        let r = cross_validate(&d, &AlgorithmSpec::NaiveBayes, 5, 1).unwrap();
        assert!(r.accuracy() > 0.95, "accuracy {}", r.accuracy());
        assert_eq!(r.fold_accuracies.len(), 5);
        assert_eq!(r.confusion.total(), 60);
        assert!(r.model_size > 0.0);
    }

    #[test]
    fn parallel_folds_match_sequential() {
        let d = data(30);
        for spec in [AlgorithmSpec::NaiveBayes, AlgorithmSpec::ZeroR] {
            let seq = cross_validate(&d, &spec, 5, 7).unwrap();
            let par = cross_validate_with(&d, &spec, 5, 7, &CrossValOptions::parallel()).unwrap();
            assert_eq!(seq.confusion, par.confusion);
            assert_eq!(seq.fold_accuracies, par.fold_accuracies);
            assert_eq!(seq.model_size, par.model_size);
        }
    }

    #[test]
    fn a_panicking_fold_is_its_own_execution_error() {
        let out = par::map((0..5).collect(), |f| {
            catch_fold(f, || {
                assert_ne!(f, 2, "fold 2 fails");
                Ok(f)
            })
        });
        assert_eq!(out.len(), 5);
        for (f, outcome) in out.into_iter().enumerate() {
            match outcome {
                Err(MiningError::Execution(msg)) => {
                    assert_eq!(f, 2);
                    assert!(msg.contains("fold 2 panicked"), "{msg}");
                }
                other => assert_eq!(other.ok(), Some(f)),
            }
        }
    }

    #[test]
    fn view_cross_validation_matches_instances() {
        let d = data(30);
        let whole = cross_validate(&d, &AlgorithmSpec::NaiveBayes, 5, 7).unwrap();
        let via_view = cross_validate_view(
            &d.view(),
            &AlgorithmSpec::NaiveBayes,
            5,
            7,
            &CrossValOptions::default(),
        )
        .unwrap();
        assert_eq!(whole.confusion, via_view.confusion);
        assert_eq!(whole.fold_accuracies, via_view.fold_accuracies);
    }

    #[test]
    fn zero_r_floor_is_class_prior() {
        let d = data(30);
        let r = cross_validate(&d, &AlgorithmSpec::ZeroR, 5, 1).unwrap();
        assert!((r.accuracy() - 0.5).abs() < 0.1);
        assert!(r.kappa().abs() < 0.1);
    }

    #[test]
    fn too_few_folds_or_rows_rejected() {
        let d = data(30);
        assert!(cross_validate(&d, &AlgorithmSpec::ZeroR, 1, 1).is_err());
        let tiny = data(1);
        assert!(stratified_folds(&tiny, 5, 1).is_err());
    }

    #[test]
    fn holdout_respects_fraction_and_stratification() {
        let d = data(50);
        let (train, test) = holdout_split(&d, 0.2, 4).unwrap();
        assert_eq!(test.len(), 20);
        assert_eq!(train.len(), 80);
        let test_pos = (0..test.len())
            .filter(|&i| test.label(i) == Some(0))
            .count();
        assert_eq!(test_pos, 10);
    }

    #[test]
    fn holdout_views_borrow_without_copying() {
        let d = data(20);
        let (train, test) = holdout_split(&d, 0.25, 1).unwrap();
        // Views map back into the parent rows; materializing them
        // reproduces a plain subset.
        let m = test.materialize();
        assert_eq!(m.len(), test.len());
        for i in 0..test.len() {
            assert_eq!(m.get(i, 0), d.get(test.base_row(i), 0));
        }
        assert_eq!(train.len() + test.len(), d.len());
    }

    #[test]
    fn holdout_invalid_fraction_rejected() {
        let d = data(10);
        assert!(holdout_split(&d, 0.0, 1).is_err());
        assert!(holdout_split(&d, 1.0, 1).is_err());
    }
}
