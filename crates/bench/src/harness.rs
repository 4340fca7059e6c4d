//! Shared experiment harness: the grid runner under experiments E1–E8,
//! A2 and A3, and severity sweeps of one quality criterion across
//! datasets and algorithms.

use crate::result_table::{Cell, ResultTable};
use openbi::experiment::{
    phase1_cells, run_cells, Criterion, ExperimentCell, ExperimentConfig, ExperimentDataset,
};
use openbi::kb::{ExperimentRecord, SnapshotKnowledgeBase};
use openbi::mining::AlgorithmSpec;
use openbi::{OpenBiError, Result};

/// Default experiment datasets: the three clean reference generators.
pub fn default_datasets(seed: u64) -> Vec<ExperimentDataset> {
    openbi::datagen::reference_datasets(seed)
        .into_iter()
        .map(|(name, table, target)| ExperimentDataset::new(name, table, target))
        .collect()
}

/// Default severity grid for the sweeps.
pub const SEVERITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// Run labelled cells on the grid executor into a fresh store and pair
/// each label with its cell's records (one per algorithm, in
/// `config.algorithms` order), in grid order. The first failed cell
/// fails the experiment.
pub fn run_grid<L>(
    datasets: &[ExperimentDataset],
    cells: Vec<(L, ExperimentCell)>,
    config: &ExperimentConfig,
) -> Result<Vec<(L, Vec<ExperimentRecord>)>> {
    let (labels, cells): (Vec<L>, Vec<ExperimentCell>) = cells.into_iter().unzip();
    let kb = SnapshotKnowledgeBase::default();
    let report = run_cells(datasets, cells, config, &kb)?;
    if let Some(failure) = report.failures.first() {
        return Err(OpenBiError::Config(format!(
            "cell {} {:?} (seed {}) failed: {}",
            failure.dataset, failure.degradations, failure.seed, failure.error
        )));
    }
    kb.flush()?;
    let snapshot = kb.snapshot();
    // `max(1)`: with no algorithms there are no records to split.
    let per_cell = snapshot.records().chunks(config.algorithms.len().max(1));
    Ok(labels
        .into_iter()
        .zip(per_cell.map(<[_]>::to_vec))
        .collect())
}

/// Run a one-criterion severity sweep and tabulate
/// `(dataset, severity, algorithm, accuracy, macro_f1, minority_f1,
/// kappa, model_size)` rows.
#[allow(clippy::too_many_arguments)] // experiment harness: each knob is load-bearing
pub fn severity_sweep(
    id: &str,
    title: &str,
    datasets: &[ExperimentDataset],
    criterion: Criterion,
    severities: &[f64],
    algorithms: &[AlgorithmSpec],
    folds: usize,
    seed: u64,
) -> Result<ResultTable> {
    let mut table = ResultTable::new(
        id,
        title,
        &[
            "dataset",
            "severity",
            "algorithm",
            "accuracy",
            "macro_f1",
            "minority_f1",
            "kappa",
            "model_size",
        ],
    );
    let config = ExperimentConfig {
        algorithms: algorithms.to_vec(),
        severities: severities.to_vec(),
        folds,
        seed,
        ..ExperimentConfig::default()
    };
    // One criterion: cell `si` of each dataset has seed `seed + si`.
    let cells = phase1_cells(datasets, &[criterion], &config)?;
    let cells = severities.iter().copied().cycle().zip(cells).collect();
    for (severity, records) in run_grid(datasets, cells, &config)? {
        for r in records {
            table.push(vec![
                Cell::Str(r.dataset),
                severity.into(),
                Cell::Str(r.algorithm),
                r.metrics.accuracy.into(),
                r.metrics.macro_f1.into(),
                r.metrics.minority_f1.into(),
                r.metrics.kappa.into(),
                r.metrics.model_size.into(),
            ]);
        }
    }
    Ok(table)
}

/// Compact algorithm suite used where the full 7-way suite is too slow.
pub fn fast_suite() -> Vec<AlgorithmSpec> {
    vec![
        AlgorithmSpec::ZeroR,
        AlgorithmSpec::NaiveBayes,
        AlgorithmSpec::DecisionTree {
            max_depth: 12,
            min_leaf: 2,
        },
        AlgorithmSpec::Knn { k: 5 },
    ]
}

/// Summarize a sweep: mean accuracy per (severity, algorithm), averaged
/// over datasets — the "series" view of each figure.
pub fn summarize_series(sweep: &ResultTable) -> ResultTable {
    let mut out = ResultTable::new(
        &format!("{}-series", sweep.id),
        &format!("{} (mean accuracy over datasets)", sweep.title),
        &["severity", "algorithm", "mean_accuracy"],
    );
    let mut groups: Vec<(String, String, Vec<f64>)> = Vec::new();
    for row in &sweep.rows {
        let severity = row[1].clone();
        let algo = row[2].clone();
        let acc = match row[3] {
            Cell::Float(f) => f,
            _ => continue,
        };
        let key_sev = match &severity {
            Cell::Float(f) => format!("{f:.3}"),
            other => format!("{other:?}"),
        };
        let key_alg = match &algo {
            Cell::Str(s) => s.clone(),
            other => format!("{other:?}"),
        };
        if let Some(entry) = groups
            .iter_mut()
            .find(|(s, a, _)| *s == key_sev && *a == key_alg)
        {
            entry.2.push(acc);
        } else {
            groups.push((key_sev, key_alg, vec![acc]));
        }
    }
    for (severity, algorithm, accs) in groups {
        let mean = accs.iter().sum::<f64>() / accs.len() as f64;
        out.push(vec![Cell::Str(severity), Cell::Str(algorithm), mean.into()]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use openbi::datagen::{make_blobs, BlobsConfig};

    #[test]
    fn sweep_produces_expected_rows_and_monotone_degradation() {
        let dataset = ExperimentDataset::new(
            "t",
            make_blobs(&BlobsConfig {
                n_rows: 120,
                n_features: 3,
                n_classes: 2,
                class_separation: 3.0,
                seed: 4,
            }),
            "class",
        );
        let sweep = severity_sweep(
            "T1",
            "test sweep",
            &[dataset],
            Criterion::LabelNoise,
            &[0.0, 1.0],
            &[AlgorithmSpec::NaiveBayes],
            3,
            1,
        )
        .unwrap();
        assert_eq!(sweep.rows.len(), 2);
        let acc_at = |sev: f64| {
            sweep
                .rows
                .iter()
                .find(|r| matches!(r[1], Cell::Float(f) if f == sev))
                .map(|r| match r[3] {
                    Cell::Float(f) => f,
                    _ => unreachable!(),
                })
                .unwrap()
        };
        assert!(acc_at(0.0) > acc_at(1.0) + 0.1, "label noise must hurt");
        let series = summarize_series(&sweep);
        assert_eq!(series.rows.len(), 2);
    }
}
