//! ZeroR: the majority-class baseline every real classifier must beat.

use super::{check_attributes, Classifier};
use crate::error::{MiningError, Result};
use crate::instances::InstancesView;

/// Predicts the training majority class for every row.
#[derive(Debug, Clone, Default)]
pub struct ZeroR {
    majority: Option<usize>,
    /// Attribute count of the fitted view.
    n_attributes: usize,
}

impl ZeroR {
    /// Create an untrained ZeroR.
    pub fn new() -> Self {
        ZeroR::default()
    }
}

impl Classifier for ZeroR {
    fn name(&self) -> &'static str {
        "ZeroR"
    }

    fn fit_view(&mut self, data: &InstancesView<'_>) -> Result<()> {
        if data.labeled_indices().is_empty() {
            return Err(MiningError::InvalidDataset(
                "ZeroR needs at least one labeled row".into(),
            ));
        }
        self.majority = Some(data.majority_class());
        self.n_attributes = data.n_attributes();
        Ok(())
    }

    fn predict_view(&self, data: &InstancesView<'_>) -> Result<Vec<usize>> {
        let majority = self.majority.ok_or(MiningError::NotFitted("ZeroR"))?;
        check_attributes("ZeroR", self.n_attributes, data)?;
        Ok(vec![majority; data.len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::predict_one;
    use crate::instances::{AttrKind, Attribute, Instances};

    fn data() -> Instances {
        Instances::from_rows(
            vec![Attribute {
                name: "x".into(),
                kind: AttrKind::Numeric,
            }],
            vec![vec![Some(1.0)], vec![Some(2.0)], vec![Some(3.0)]],
            vec![Some(1), Some(1), Some(0)],
            vec!["a".into(), "b".into()],
        )
    }

    #[test]
    fn predicts_majority() {
        let mut m = ZeroR::new();
        m.fit(&data()).unwrap();
        assert_eq!(predict_one(&m, &data(), &[None]).unwrap(), 1);
        assert_eq!(m.predict(&data()).unwrap(), vec![1, 1, 1]);
    }

    #[test]
    fn unfitted_errors() {
        let m = ZeroR::new();
        assert!(matches!(
            predict_one(&m, &data(), &[Some(0.0)]),
            Err(MiningError::NotFitted(_))
        ));
    }

    #[test]
    fn unlabeled_data_errors() {
        let mut d = data();
        d.labels = vec![None; 3];
        assert!(ZeroR::new().fit(&d).is_err());
    }
}
