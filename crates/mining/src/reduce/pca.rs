//! Principal Component Analysis via Jacobi eigen-decomposition of the
//! covariance matrix.
//!
//! The paper (§1) notes that dimensionality reduction like PCA loses
//! information ("data structure cannot be considered") — experiment E9
//! quantifies that trade-off, and this is the implementation it uses.
//!
//! Both the covariance estimate and the projection work on centered
//! dense columns (missing → 0 after mean-centering), walking pairs of
//! contiguous column slices; each accumulator still sees its additions
//! in row order, so results are bit-identical to the row-major code.

use crate::error::{MiningError, Result};
use crate::instances::{AttrKind, Attribute, Instances};
use crate::matrix::Matrix;

/// A fitted PCA transform.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Component count retained.
    pub components: usize,
    /// Attribute indices of the numeric attributes used.
    attr_indices: Vec<usize>,
    /// Per-attribute means (centering).
    means: Vec<f64>,
    /// Projection matrix (d × k, columns = principal axes).
    projection: Matrix,
    /// All eigenvalues, descending.
    eigenvalues: Vec<f64>,
}

/// Centered dense copies of the numeric attribute columns: missing
/// values become 0 (i.e. the mean, after centering).
fn centered_columns(data: &Instances, attr_indices: &[usize], means: &[f64]) -> Vec<Vec<f64>> {
    attr_indices
        .iter()
        .zip(means)
        .map(|(&a, &m)| {
            data.column_values(a)
                .iter()
                .map(|&v| if v.is_nan() { 0.0 } else { v - m })
                .collect()
        })
        .collect()
}

impl Pca {
    /// Fit a PCA with `components` axes on the numeric attributes.
    /// Missing values are mean-imputed for the covariance estimate.
    pub fn fit(data: &Instances, components: usize) -> Result<Pca> {
        let attr_indices: Vec<usize> = data
            .attributes
            .iter()
            .enumerate()
            .filter(|(_, a)| a.kind == AttrKind::Numeric)
            .map(|(i, _)| i)
            .collect();
        let d = attr_indices.len();
        if d == 0 {
            return Err(MiningError::InvalidDataset(
                "PCA needs numeric attributes".into(),
            ));
        }
        if components == 0 || components > d {
            return Err(MiningError::InvalidParameter(format!(
                "components must be in 1..={d}"
            )));
        }
        let n = data.len();
        if n < 2 {
            return Err(MiningError::InvalidDataset("PCA needs >= 2 rows".into()));
        }
        let all_means = data.view().numeric_means();
        let means: Vec<f64> = attr_indices
            .iter()
            .map(|&a| all_means[a].unwrap_or(0.0))
            .collect();
        // Covariance matrix: each upper-triangle cell is a dot product
        // of two centered columns, accumulated in row order.
        let xc = centered_columns(data, &attr_indices, &means);
        let mut cov = Matrix::zeros(d, d);
        for i in 0..d {
            for j in i..d {
                let mut s = 0.0;
                for (xi, xj) in xc[i].iter().zip(&xc[j]) {
                    s += xi * xj;
                }
                cov[(i, j)] = s;
            }
        }
        for i in 0..d {
            for j in i..d {
                let v = cov[(i, j)] / (n - 1) as f64;
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
        }
        let (eigenvalues, vectors) = cov.symmetric_eigen(100)?;
        let mut projection = Matrix::zeros(d, components);
        for i in 0..d {
            for j in 0..components {
                projection[(i, j)] = vectors[(i, j)];
            }
        }
        Ok(Pca {
            components,
            attr_indices,
            means,
            projection,
            eigenvalues,
        })
    }

    /// Fraction of total variance captured by the retained components.
    pub fn explained_variance_ratio(&self) -> f64 {
        let total: f64 = self.eigenvalues.iter().map(|v| v.max(0.0)).sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.eigenvalues
            .iter()
            .take(self.components)
            .map(|v| v.max(0.0))
            .sum::<f64>()
            / total
    }

    /// All eigenvalues, descending.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Project a dataset onto the retained components. Nominal attributes
    /// are dropped; the class labels are carried through, so the output
    /// remains a classification dataset with attributes `pc1..pck`.
    pub fn transform(&self, data: &Instances) -> Result<Instances> {
        let attributes: Vec<Attribute> = (0..self.components)
            .map(|i| Attribute {
                name: format!("pc{}", i + 1),
                kind: AttrKind::Numeric,
            })
            .collect();
        let n = data.len();
        let xc = centered_columns(data, &self.attr_indices, &self.means);
        // One output column per component; every cell accumulates over
        // source columns in ascending order (the old per-row dot
        // product's order), one contiguous column at a time.
        let mut out = vec![vec![0.0f64; n]; self.components];
        for (i, col) in xc.iter().enumerate() {
            for (j, out_col) in out.iter_mut().enumerate() {
                let p = self.projection[(i, j)];
                for (o, xi) in out_col.iter_mut().zip(col) {
                    *o += xi * p;
                }
            }
        }
        let rows: Vec<Vec<Option<f64>>> = (0..n)
            .map(|r| out.iter().map(|c| Some(c[r])).collect())
            .collect();
        Ok(Instances::from_rows(
            attributes,
            rows,
            data.labels.clone(),
            data.class_names.clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn correlated_data() -> Instances {
        correlated_data_with(|_| {})
    }

    /// Points along the line y ≈ 2x with small orthogonal spread, the
    /// rows edited by `edit`.
    fn correlated_data_with(edit: impl FnOnce(&mut [Vec<Option<f64>>])) -> Instances {
        let mut rows = Vec::new();
        for i in 0..50 {
            let t = i as f64 * 0.1;
            let wiggle = if i % 2 == 0 { 0.05 } else { -0.05 };
            rows.push(vec![Some(t + wiggle), Some(2.0 * t - wiggle)]);
        }
        edit(&mut rows);
        let labels = vec![None; rows.len()];
        Instances::from_rows(
            vec![
                Attribute {
                    name: "x".into(),
                    kind: AttrKind::Numeric,
                },
                Attribute {
                    name: "y".into(),
                    kind: AttrKind::Numeric,
                },
            ],
            rows,
            labels,
            vec![],
        )
    }

    #[test]
    fn first_component_captures_most_variance() {
        let pca = Pca::fit(&correlated_data(), 1).unwrap();
        assert!(
            pca.explained_variance_ratio() > 0.99,
            "explained {}",
            pca.explained_variance_ratio()
        );
    }

    #[test]
    fn full_rank_explains_everything() {
        let pca = Pca::fit(&correlated_data(), 2).unwrap();
        assert!((pca.explained_variance_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transform_produces_pc_attributes() {
        let d = correlated_data();
        let pca = Pca::fit(&d, 1).unwrap();
        let t = pca.transform(&d).unwrap();
        assert_eq!(t.n_attributes(), 1);
        assert_eq!(t.attributes[0].name, "pc1");
        assert_eq!(t.len(), d.len());
    }

    #[test]
    fn projected_variance_matches_eigenvalue() {
        let d = correlated_data();
        let pca = Pca::fit(&d, 1).unwrap();
        let t = pca.transform(&d).unwrap();
        let vals: Vec<f64> = (0..t.len()).map(|r| t.get(r, 0).unwrap()).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var =
            vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (vals.len() - 1) as f64;
        assert!((var - pca.eigenvalues()[0]).abs() < 1e-6);
    }

    #[test]
    fn labels_carried_through() {
        let mut d = correlated_data();
        d.class_names = vec!["a".into(), "b".into()];
        d.labels = (0..d.len()).map(|i| Some(i % 2)).collect();
        let pca = Pca::fit(&d, 1).unwrap();
        let t = pca.transform(&d).unwrap();
        assert_eq!(t.labels, d.labels);
        assert_eq!(t.class_names, d.class_names);
    }

    #[test]
    fn invalid_component_counts_rejected() {
        let d = correlated_data();
        assert!(Pca::fit(&d, 0).is_err());
        assert!(Pca::fit(&d, 3).is_err());
    }

    #[test]
    fn missing_values_mean_imputed() {
        let d = correlated_data_with(|rows| rows[0][0] = None);
        let pca = Pca::fit(&d, 1).unwrap();
        let t = pca.transform(&d).unwrap();
        assert!(t.get(0, 0).unwrap().is_finite());
    }
}
