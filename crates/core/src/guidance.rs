//! Guided preprocessing: turn a measured quality profile into an
//! executable, explained preprocessing plan.
//!
//! This is the user-friendliness requirement of Kriegel et al. \[11\] the
//! paper builds on: "data preprocessing should be automated, and all
//! steps undertaken should be reported to the user".

use crate::error::Result;
use openbi_mining::preprocess::{impute_knn, impute_mean_mode};
use openbi_quality::measure::duplicates::exact_duplicate_groups;
use openbi_quality::measure::outliers::iqr_fences;
use openbi_quality::QualityProfile;
use openbi_table::{Column, Table, Value};

/// One automated preprocessing step.
#[derive(Debug, Clone, PartialEq)]
pub enum PreprocessingStep {
    /// Remove exact-duplicate rows (keep the first occurrence).
    Deduplicate,
    /// Fill missing values with k-NN imputation.
    ImputeKnn {
        /// Neighborhood size.
        k: usize,
    },
    /// Fill missing values with mean/mode (fallback for tiny tables).
    ImputeMeanMode,
    /// Drop one column of each pair with |r| above the threshold.
    DropCorrelated {
        /// Absolute-correlation threshold.
        threshold: f64,
    },
    /// Canonicalize string formats (trim, lowercase, ISO dates).
    NormalizeFormats,
    /// Winsorize numeric outliers to the 1.5×IQR fences.
    ClampOutliers,
}

impl PreprocessingStep {
    /// Why the step was recommended, for the user-facing report.
    pub fn rationale(&self) -> String {
        match self {
            PreprocessingStep::Deduplicate => {
                "duplicate records inflate support counts and bias training".to_string()
            }
            PreprocessingStep::ImputeKnn { k } => format!(
                "missing values present; k-NN imputation (k={k}) preserves local structure \
                 better than mean filling (Troyanskaya et al.)"
            ),
            PreprocessingStep::ImputeMeanMode => {
                "missing values present; table too small for k-NN imputation".to_string()
            }
            PreprocessingStep::DropCorrelated { threshold } => format!(
                "attributes correlated above |r|={threshold:.2} yield correct but useless \
                 patterns (paper §3.1); dropping redundant copies"
            ),
            PreprocessingStep::NormalizeFormats => {
                "inconsistent value formats detected; canonicalizing case/whitespace/dates"
                    .to_string()
            }
            PreprocessingStep::ClampOutliers => {
                "outliers beyond the 1.5×IQR fences detected; winsorizing".to_string()
            }
        }
    }
}

/// An ordered, explained preprocessing plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PreprocessingPlan {
    /// Steps in execution order.
    pub steps: Vec<PreprocessingStep>,
}

impl PreprocessingPlan {
    /// Recommend a plan from a measured profile. Thresholds are
    /// deliberately conservative: steps only appear when the profile
    /// shows a real defect.
    pub fn recommend(profile: &QualityProfile) -> Self {
        let mut steps = Vec::new();
        if profile.consistency < 0.9 {
            steps.push(PreprocessingStep::NormalizeFormats);
        }
        if profile.duplicate_ratio > 0.02 {
            steps.push(PreprocessingStep::Deduplicate);
        }
        if profile.completeness < 0.98 {
            if profile.n_rows >= 50 {
                steps.push(PreprocessingStep::ImputeKnn { k: 5 });
            } else {
                steps.push(PreprocessingStep::ImputeMeanMode);
            }
        }
        if profile.max_abs_correlation > 0.95 {
            steps.push(PreprocessingStep::DropCorrelated { threshold: 0.95 });
        }
        if profile.outlier_ratio > 0.03 {
            steps.push(PreprocessingStep::ClampOutliers);
        }
        PreprocessingPlan { steps }
    }

    /// Execute the plan on a table. `protected` columns (target,
    /// identifiers) are never modified or dropped.
    pub fn apply(&self, table: &Table, protected: &[&str]) -> Result<Table> {
        let mut out = table.clone();
        for step in &self.steps {
            out = apply_step(step, &out, protected)?;
        }
        Ok(out)
    }

    /// The user-facing step report (one line per step).
    pub fn report(&self) -> String {
        if self.steps.is_empty() {
            return "No preprocessing needed: the data profile is clean.\n".to_string();
        }
        let mut out = String::from("Automated preprocessing plan:\n");
        for (i, s) in self.steps.iter().enumerate() {
            out.push_str(&format!("  {}. {:?} — {}\n", i + 1, s, s.rationale()));
        }
        out
    }
}

fn canonicalize_string(s: &str) -> String {
    let t = s.trim();
    // DD/MM/YYYY → ISO.
    let b = t.as_bytes();
    if b.len() == 10 && b[2] == b'/' && b[5] == b'/' {
        let (d, m, y) = (&t[0..2], &t[3..5], &t[6..10]);
        if d.chars().all(|c| c.is_ascii_digit())
            && m.chars().all(|c| c.is_ascii_digit())
            && y.chars().all(|c| c.is_ascii_digit())
        {
            return format!("{y}-{m}-{d}");
        }
    }
    t.to_lowercase()
}

fn apply_step(step: &PreprocessingStep, table: &Table, protected: &[&str]) -> Result<Table> {
    Ok(match step {
        PreprocessingStep::Deduplicate => {
            let mut drop: Vec<bool> = vec![false; table.n_rows()];
            for group in exact_duplicate_groups(table) {
                for &row in &group[1..] {
                    drop[row] = true;
                }
            }
            table.filter_by_index(|i| !drop[i])
        }
        PreprocessingStep::ImputeKnn { k } => impute_knn(table, *k, protected)?,
        PreprocessingStep::ImputeMeanMode => impute_mean_mode(table, protected)?,
        PreprocessingStep::DropCorrelated { threshold } => {
            let mut out = table.clone();
            loop {
                let exclude: Vec<&str> = protected.to_vec();
                let report = openbi_quality::measure::correlation::correlation_report(
                    &out, &exclude, *threshold,
                );
                let Some((_, b, _)) = report.redundant_pairs.first() else {
                    break;
                };
                let name = b.clone();
                out.drop_column(&name)?;
            }
            out
        }
        PreprocessingStep::NormalizeFormats => {
            let mut out = table.clone();
            let names: Vec<String> = table
                .columns()
                .iter()
                .filter(|c| c.as_str_slice().is_some() && !protected.contains(&c.name()))
                .map(|c| c.name().to_string())
                .collect();
            for name in names {
                let col = out.column(&name)?;
                let canon: Vec<Option<String>> = col
                    .as_str_slice()
                    .expect("filtered to string columns")
                    .iter()
                    .map(|v| v.as_ref().map(|s| canonicalize_string(s)))
                    .collect();
                out.replace_column(Column::from_opt_str(name, canon))?;
            }
            out
        }
        PreprocessingStep::ClampOutliers => {
            let mut out = table.clone();
            let names: Vec<String> = table
                .columns()
                .iter()
                .filter(|c| c.dtype().is_numeric() && !protected.contains(&c.name()))
                .map(|c| c.name().to_string())
                .collect();
            for name in names {
                let col = table.column(&name)?;
                // The profile's fences, over the present cells; a missing
                // cell (null, NaN or ±∞) stays as it is.
                let values = col.numbers();
                let mut present: Vec<f64> =
                    values.iter().copied().filter(|x| !x.is_nan()).collect();
                let Some((lo, hi)) = iqr_fences(&mut present) else {
                    continue;
                };
                let is_int = col.dtype() == openbi_table::DataType::Int;
                for (row, &x) in values.iter().enumerate() {
                    if !x.is_nan() && (x < lo || x > hi) {
                        let clamped = x.clamp(lo, hi);
                        let v = if is_int {
                            Value::Int(clamped.round() as i64)
                        } else {
                            Value::Float(clamped)
                        };
                        out.set(&name, row, v)?;
                    }
                }
            }
            out
        }
    })
}

/// Guided attribute selection (the "attributes selection" half of the
/// KDD selection phase): run CFS over the table's features and return
/// `(selected feature names, projected table)`. The target and protected
/// columns are always kept.
pub fn select_attributes(
    table: &Table,
    target: &str,
    protected: &[&str],
    max_features: usize,
) -> Result<(Vec<String>, Table)> {
    let exclude: Vec<&str> = protected.iter().copied().filter(|p| *p != target).collect();
    let instances = openbi_mining::Instances::from_table(table, Some(target), &exclude)?;
    let picked = openbi_mining::cfs_select(&instances, max_features)?;
    let selected: Vec<String> = picked
        .iter()
        .map(|&a| instances.attributes[a].name.clone())
        .collect();
    let mut keep: Vec<&str> = Vec::new();
    for name in table.column_names() {
        if selected.iter().any(|s| s == name) || name == target || protected.contains(&name) {
            keep.push(name);
        }
    }
    let projected = table.select(&keep)?;
    Ok((selected, projected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use openbi_quality::{measure_profile, MeasureOptions};

    #[test]
    fn select_attributes_keeps_signal_and_target() {
        let n = 60;
        let t = Table::new(vec![
            Column::from_i64("id", (0..n).collect::<Vec<i64>>()),
            Column::from_f64(
                "signal",
                (0..n)
                    .map(|i| if i % 2 == 0 { 0.0 } else { 9.0 })
                    .collect::<Vec<f64>>(),
            ),
            Column::from_f64(
                "noise",
                (0..n).map(|i| ((i * 31) % 13) as f64).collect::<Vec<f64>>(),
            ),
            Column::from_str_values(
                "label",
                (0..n)
                    .map(|i| if i % 2 == 0 { "a" } else { "b" })
                    .collect::<Vec<&str>>(),
            ),
        ])
        .unwrap();
        let (selected, projected) = select_attributes(&t, "label", &["id", "label"], 4).unwrap();
        assert_eq!(selected, vec!["signal"]);
        assert!(projected.has_column("label"));
        assert!(projected.has_column("id"), "protected columns survive");
        assert!(!projected.has_column("noise"));
    }

    #[test]
    fn clean_profile_needs_no_steps() {
        let plan = PreprocessingPlan::recommend(&QualityProfile::default());
        assert!(plan.steps.is_empty());
        assert!(plan.report().contains("No preprocessing needed"));
    }

    #[test]
    fn dirty_profile_triggers_matching_steps() {
        let profile = QualityProfile {
            n_rows: 100,
            completeness: 0.7,
            duplicate_ratio: 0.1,
            max_abs_correlation: 0.99,
            consistency: 0.5,
            outlier_ratio: 0.08,
            ..Default::default()
        };
        let plan = PreprocessingPlan::recommend(&profile);
        assert!(plan.steps.contains(&PreprocessingStep::NormalizeFormats));
        assert!(plan.steps.contains(&PreprocessingStep::Deduplicate));
        assert!(plan.steps.contains(&PreprocessingStep::ImputeKnn { k: 5 }));
        assert!(plan
            .steps
            .contains(&PreprocessingStep::DropCorrelated { threshold: 0.95 }));
        assert!(plan.steps.contains(&PreprocessingStep::ClampOutliers));
        assert!(plan.report().lines().count() >= 6);
    }

    #[test]
    fn tiny_tables_get_mean_mode() {
        let profile = QualityProfile {
            n_rows: 10,
            completeness: 0.5,
            ..Default::default()
        };
        let plan = PreprocessingPlan::recommend(&profile);
        assert!(plan.steps.contains(&PreprocessingStep::ImputeMeanMode));
    }

    #[test]
    fn deduplicate_keeps_first() {
        let t = Table::new(vec![Column::from_i64("a", [1, 2, 1, 3, 1])]).unwrap();
        let plan = PreprocessingPlan {
            steps: vec![PreprocessingStep::Deduplicate],
        };
        let out = plan.apply(&t, &[]).unwrap();
        assert_eq!(out.n_rows(), 3);
        assert_eq!(out.get("a", 0).unwrap(), Value::Int(1));
    }

    #[test]
    fn drop_correlated_removes_copies_not_protected() {
        let x: Vec<f64> = (0..50).map(f64::from).collect();
        let t = Table::new(vec![
            Column::from_f64("x", x.clone()),
            Column::from_f64("x2", x.iter().map(|v| v * 2.0).collect::<Vec<f64>>()),
            Column::from_f64(
                "z",
                x.iter().map(|v| (v * 37.0) % 11.0).collect::<Vec<f64>>(),
            ),
        ])
        .unwrap();
        let plan = PreprocessingPlan {
            steps: vec![PreprocessingStep::DropCorrelated { threshold: 0.95 }],
        };
        let out = plan.apply(&t, &[]).unwrap();
        assert!(out.has_column("x"));
        assert!(!out.has_column("x2"));
        assert!(out.has_column("z"));
    }

    #[test]
    fn normalize_formats_canonicalizes() {
        let t = Table::new(vec![
            Column::from_str_values("city", [" Madrid ", "MADRID", "madrid"]),
            Column::from_str_values("date", ["15/03/2024", "2024-03-16", "17/03/2024"]),
        ])
        .unwrap();
        let plan = PreprocessingPlan {
            steps: vec![PreprocessingStep::NormalizeFormats],
        };
        let out = plan.apply(&t, &[]).unwrap();
        for i in 0..3 {
            assert_eq!(out.get("city", i).unwrap(), Value::Str("madrid".into()));
        }
        assert_eq!(out.get("date", 0).unwrap(), Value::Str("2024-03-15".into()));
        assert_eq!(out.get("date", 1).unwrap(), Value::Str("2024-03-16".into()));
    }

    #[test]
    fn clamp_outliers_winsorizes() {
        let mut vals: Vec<f64> = (0..40).map(|i| (i % 10) as f64).collect();
        vals.push(1000.0);
        let t = Table::new(vec![Column::from_f64("x", vals)]).unwrap();
        let plan = PreprocessingPlan {
            steps: vec![PreprocessingStep::ClampOutliers],
        };
        let out = plan.apply(&t, &[]).unwrap();
        let max = out
            .column("x")
            .unwrap()
            .numbers()
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(max < 30.0, "outlier clamped, max {max}");
    }

    /// The step clamps to the fences the profile measured: those of the
    /// finite cells, so NaN and ±∞ cells neither move the fences nor get
    /// clamped, and completeness does not change.
    #[test]
    fn clamp_outliers_takes_the_profiles_fences() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let clamp = PreprocessingPlan {
            steps: vec![PreprocessingStep::ClampOutliers],
        };
        // The stored cells, NaN and ±∞ kept.
        let stored = |t: &Table| match t.column("x").unwrap().data() {
            openbi_table::ColumnData::Float(x) => x.clone(),
            other => panic!("x is a float column, got {other:?}"),
        };
        let t = Table::new(vec![Column::from_f64(
            "x",
            [1.0, 2.0, 3.0, 4.0, 5.0, 100.0, nan, nan, nan],
        )])
        .unwrap();
        let profile = measure_profile(&t, &MeasureOptions::default());
        let plan = PreprocessingPlan::recommend(&profile);
        assert!(plan.steps.contains(&PreprocessingStep::ClampOutliers));
        let out = clamp.apply(&t, &[]).unwrap();
        // Quartiles of 1, 2, 3, 4, 5, 100: 2.25 and 4.75, so hi = 8.5.
        let x = stored(&out);
        assert_eq!(x[..6], [1.0, 2.0, 3.0, 4.0, 5.0, 8.5].map(Some));
        assert!(x[6..].iter().all(|v| v.is_some_and(f64::is_nan)));

        let t = Table::new(vec![Column::from_f64(
            "x",
            [1.0, 2.0, 3.0, 4.0, 5.0, 100.0, inf, -inf],
        )])
        .unwrap();
        let out = clamp.apply(&t, &[]).unwrap();
        assert_eq!(
            stored(&out),
            [1.0, 2.0, 3.0, 4.0, 5.0, 8.5, inf, -inf].map(Some)
        );
        let completeness = |t: &Table| measure_profile(t, &MeasureOptions::default()).completeness;
        assert_eq!(completeness(&t), 0.75);
        assert_eq!(completeness(&out), 0.75);
    }

    #[test]
    fn end_to_end_plan_improves_profile() {
        // A deliberately dirty table.
        let t = Table::new(vec![
            Column::from_opt_f64(
                "x",
                (0..60)
                    .map(|i| if i % 5 == 0 { None } else { Some(i as f64) })
                    .collect::<Vec<Option<f64>>>(),
            ),
            Column::from_f64(
                "x_copy",
                (0..60).map(|i| i as f64 * 3.0).collect::<Vec<f64>>(),
            ),
            Column::from_str_values(
                "label",
                (0..60)
                    .map(|i| if i % 2 == 0 { "a" } else { "b" })
                    .collect::<Vec<&str>>(),
            ),
        ])
        .unwrap();
        let opts = MeasureOptions::with_target("label");
        let before = measure_profile(&t, &opts);
        let plan = PreprocessingPlan::recommend(&before);
        assert!(!plan.steps.is_empty());
        let out = plan.apply(&t, &["label"]).unwrap();
        let after = measure_profile(&out, &opts);
        assert!(after.completeness > before.completeness);
        assert!(after.max_abs_correlation < before.max_abs_correlation);
    }

    #[test]
    fn protected_columns_survive_everything() {
        let t = Table::new(vec![
            Column::from_opt_str(
                "target",
                [Some("A".to_string()), None, Some("A".to_string())],
            ),
            Column::from_opt_f64("x", [Some(1.0), Some(2.0), None]),
        ])
        .unwrap();
        let plan = PreprocessingPlan {
            steps: vec![
                PreprocessingStep::NormalizeFormats,
                PreprocessingStep::ImputeMeanMode,
            ],
        };
        let out = plan.apply(&t, &["target"]).unwrap();
        // Target: untouched (still uppercase, still has its null).
        assert_eq!(out.get("target", 0).unwrap(), Value::Str("A".into()));
        assert!(out.get("target", 1).unwrap().is_null());
        // Feature x imputed.
        assert_eq!(out.column("x").unwrap().null_count(), 0);
    }
}
