//! Synthetic classification datasets with known ground truth — the
//! "initial and representative sample … manually cleaned" that the
//! paper's experimental protocol starts from (§3.1). Generators are
//! fully seeded, so every experiment run is reproducible.

use openbi_table::{Column, Rng, Table};

/// Configuration for the Gaussian-blob classification generator.
#[derive(Debug, Clone)]
pub struct BlobsConfig {
    /// Rows to generate.
    pub n_rows: usize,
    /// Informative numeric features.
    pub n_features: usize,
    /// Number of classes (one blob per class).
    pub n_classes: usize,
    /// Distance between class centroids, in units of the within-class
    /// standard deviation — the knob that sets baseline separability.
    pub class_separation: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for BlobsConfig {
    fn default() -> Self {
        BlobsConfig {
            n_rows: 600,
            n_features: 6,
            n_classes: 3,
            class_separation: 3.0,
            seed: 42,
        }
    }
}

/// Generate a Gaussian-blobs classification table: numeric feature
/// columns `f1..fk` plus a string `class` column.
pub fn make_blobs(config: &BlobsConfig) -> Table {
    let mut rng = Rng::seed_from_u64(config.seed);
    let k = config.n_classes.max(2);
    let d = config.n_features.max(1);
    // Centroids on (sign-flipped) coordinate axes at the requested
    // separation, plus a small random jitter. Axis placement guarantees
    // pairwise centroid distance ≥ separation regardless of seed —
    // purely random centroids can land arbitrarily close and silently
    // destroy the separability the experiments calibrate against.
    let centroids: Vec<Vec<f64>> = (0..k)
        .map(|c| {
            let axis = c % d;
            let sign = if (c / d).is_multiple_of(2) { 1.0 } else { -1.0 };
            // Radius grows when classes wrap around the axes, so even
            // k > 2d classes stay distinct.
            let radius = config.class_separation * (1.0 + (c / (2 * d)) as f64);
            (0..d)
                .map(|j| {
                    let base = if j == axis { sign * radius } else { 0.0 };
                    base + rng.gauss() * 0.15 * config.class_separation
                })
                .collect()
        })
        .collect();
    let mut features: Vec<Vec<f64>> = vec![Vec::with_capacity(config.n_rows); d];
    let mut labels: Vec<String> = Vec::with_capacity(config.n_rows);
    for i in 0..config.n_rows {
        let class = i % k; // balanced by construction
        for (j, f) in features.iter_mut().enumerate() {
            f.push(rng.normal(centroids[class][j], 1.0));
        }
        labels.push(format!("c{class}"));
    }
    let mut columns: Vec<Column> = features
        .into_iter()
        .enumerate()
        .map(|(j, f)| Column::from_f64(format!("f{}", j + 1), f))
        .collect();
    columns.push(Column::from_str_values("class", labels));
    Table::new(columns).expect("generated columns are consistent")
}

/// Configuration for the rule-based generator: the class is a boolean
/// combination of feature thresholds, so trees/rules can be exact while
/// linear models cannot.
#[derive(Debug, Clone)]
pub struct RuleConfig {
    /// Rows to generate.
    pub n_rows: usize,
    /// Extra uninformative numeric features beyond the three rule inputs.
    pub n_noise_features: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig {
            n_rows: 600,
            n_noise_features: 3,
            seed: 42,
        }
    }
}

/// Generate a rule-based dataset: class = `"yes"` iff
/// `(a > 0.6 && b < 0.4) || c > 0.8` over uniform features in `[0,1)`,
/// plus noise features `n1..nk` and a categorical `region` column.
pub fn make_rule_based(config: &RuleConfig) -> Table {
    let mut rng = Rng::seed_from_u64(config.seed);
    let n = config.n_rows;
    let mut a = Vec::with_capacity(n);
    let mut b = Vec::with_capacity(n);
    let mut c = Vec::with_capacity(n);
    let mut region = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    let mut noise: Vec<Vec<f64>> = vec![Vec::with_capacity(n); config.n_noise_features];
    const REGIONS: [&str; 4] = ["north", "south", "east", "west"];
    for _ in 0..n {
        let av = rng.f64();
        let bv = rng.f64();
        let cv = rng.f64();
        let yes = (av > 0.6 && bv < 0.4) || cv > 0.8;
        a.push(av);
        b.push(bv);
        c.push(cv);
        region.push(REGIONS[rng.below(REGIONS.len())]);
        labels.push(if yes { "yes" } else { "no" });
        for f in &mut noise {
            f.push(rng.f64());
        }
    }
    let mut columns = vec![
        Column::from_f64("a", a),
        Column::from_f64("b", b),
        Column::from_f64("c", c),
        Column::from_str_values("region", region),
    ];
    for (j, f) in noise.into_iter().enumerate() {
        columns.push(Column::from_f64(format!("n{}", j + 1), f));
    }
    columns.push(Column::from_str_values("class", labels));
    Table::new(columns).expect("generated columns are consistent")
}

/// The three clean reference datasets every phase-1 experiment runs on:
/// `(name, table, target_column)` triples. Sizes are laptop-scale but
/// non-trivial.
pub fn reference_datasets(seed: u64) -> Vec<(String, Table, String)> {
    vec![
        (
            "blobs-easy".to_string(),
            make_blobs(&BlobsConfig {
                class_separation: 4.0,
                seed,
                ..Default::default()
            }),
            "class".to_string(),
        ),
        (
            "blobs-hard".to_string(),
            make_blobs(&BlobsConfig {
                n_features: 10,
                n_classes: 4,
                class_separation: 1.5,
                seed: seed.wrapping_add(1),
                ..Default::default()
            }),
            "class".to_string(),
        ),
        (
            "rules".to_string(),
            make_rule_based(&RuleConfig {
                seed: seed.wrapping_add(2),
                ..Default::default()
            }),
            "class".to_string(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use openbi_table::Value;

    #[test]
    fn blobs_shape_and_balance() {
        let t = make_blobs(&BlobsConfig::default());
        assert_eq!(t.n_rows(), 600);
        assert_eq!(t.n_cols(), 7);
        let counts = openbi_table::stats::value_counts(t.column("class").unwrap());
        assert_eq!(counts.len(), 3);
        for c in counts.values() {
            assert_eq!(*c, 200);
        }
    }

    #[test]
    fn blobs_deterministic_by_seed() {
        let a = make_blobs(&BlobsConfig::default());
        let b = make_blobs(&BlobsConfig::default());
        assert_eq!(a, b);
        let c = make_blobs(&BlobsConfig {
            seed: 1,
            ..Default::default()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn blobs_separation_controls_difficulty() {
        // With large separation, a nearest-centroid check on f1..fk
        // should recover class structure (within-class spread 1.0).
        let t = make_blobs(&BlobsConfig {
            class_separation: 8.0,
            n_classes: 2,
            n_rows: 200,
            ..Default::default()
        });
        // Compute per-class mean of f1; they must differ by much more
        // than the within-class std.
        let f1 = t.column("f1").unwrap().numbers();
        let cls = t.column("class").unwrap();
        let mut by_class: std::collections::HashMap<String, Vec<f64>> = Default::default();
        for (i, v) in f1.iter().enumerate() {
            by_class
                .entry(cls.get(i).unwrap().to_string())
                .or_default()
                .push(*v);
        }
        let means: Vec<f64> = by_class
            .values()
            .map(|v| v.iter().sum::<f64>() / v.len() as f64)
            .collect();
        assert!((means[0] - means[1]).abs() > 3.0);
    }

    #[test]
    fn rule_based_labels_follow_rule() {
        let t = make_rule_based(&RuleConfig::default());
        for i in 0..t.n_rows() {
            let a = t.get("a", i).unwrap().as_f64().unwrap();
            let b = t.get("b", i).unwrap().as_f64().unwrap();
            let c = t.get("c", i).unwrap().as_f64().unwrap();
            let expected = (a > 0.6 && b < 0.4) || c > 0.8;
            let label = t.get("class", i).unwrap();
            assert_eq!(
                label,
                Value::Str(if expected { "yes" } else { "no" }.into())
            );
        }
    }

    #[test]
    fn reference_datasets_are_clean() {
        for (name, table, target) in reference_datasets(7) {
            assert!(table.n_rows() >= 500, "{name} too small");
            assert_eq!(table.total_null_count(), 0, "{name} must start clean");
            assert!(table.has_column(&target));
        }
    }
}
