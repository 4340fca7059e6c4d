//! OneR (Holte 1993): the best single-attribute rule.
//!
//! Numeric attributes are discretized into equal-width bins; the
//! attribute whose per-bucket majority rule has the lowest training
//! error wins. Missing values form their own bucket.

use super::{check_attributes, Classifier};
use crate::error::{MiningError, Result};
use crate::instances::{AttrKind, InstancesView};

const NUMERIC_BINS: usize = 8;

#[derive(Debug, Clone)]
struct Rule {
    attribute: usize,
    /// For numeric attributes: `(min, width)` of the binning.
    binning: Option<(f64, f64)>,
    /// Majority class per bucket (last bucket = missing).
    bucket_class: Vec<usize>,
    default: usize,
}

/// The OneR classifier.
#[derive(Debug, Clone, Default)]
pub struct OneR {
    rule: Option<Rule>,
    /// Attribute count of the fitted view.
    n_attributes: usize,
}

impl OneR {
    /// Create an untrained OneR.
    pub fn new() -> Self {
        OneR::default()
    }

    /// The chosen attribute index, if fitted.
    pub fn chosen_attribute(&self) -> Option<usize> {
        self.rule.as_ref().map(|r| r.attribute)
    }

    fn bucket_of(rule_binning: Option<(f64, f64)>, n_buckets: usize, v: Option<f64>) -> usize {
        match v {
            None => n_buckets - 1,
            Some(x) => match rule_binning {
                Some((min, width)) => {
                    if width <= 0.0 {
                        0
                    } else {
                        (((x - min) / width).floor() as isize).clamp(0, (n_buckets - 2) as isize)
                            as usize
                    }
                }
                None => (x as usize).min(n_buckets - 2),
            },
        }
    }
}

impl Classifier for OneR {
    fn name(&self) -> &'static str {
        "OneR"
    }

    fn fit_view(&mut self, data: &InstancesView<'_>) -> Result<()> {
        let labeled = data.labeled_indices();
        if labeled.is_empty() {
            return Err(MiningError::InvalidDataset(
                "OneR needs labeled rows".into(),
            ));
        }
        let n_classes = data.n_classes().max(1);
        let default = data.majority_class();
        let ranges = data.numeric_ranges();
        let labels: Vec<usize> = labeled
            .iter()
            .map(|&i| data.label(i).expect("labeled"))
            .collect();
        let mut buckets: Vec<usize> = Vec::with_capacity(labeled.len());
        let mut best: Option<(usize, Rule)> = None; // (errors, rule)
        for (a, range) in ranges.iter().enumerate() {
            let attr = data.attribute(a);
            let (binning, n_value_buckets) = match &attr.kind {
                AttrKind::Numeric => {
                    let Some((lo, hi)) = *range else { continue };
                    let width = (hi - lo) / NUMERIC_BINS as f64;
                    (Some((lo, width)), NUMERIC_BINS)
                }
                AttrKind::Nominal(dict) => {
                    if dict.is_empty() {
                        continue;
                    }
                    (None, dict.len())
                }
            };
            let n_buckets = n_value_buckets + 1; // + missing bucket
            let col = data.col(a);
            buckets.clear();
            buckets.extend(
                labeled
                    .iter()
                    .map(|&i| Self::bucket_of(binning, n_buckets, col.get(i))),
            );
            let mut counts = vec![vec![0usize; n_classes]; n_buckets];
            for (&b, &l) in buckets.iter().zip(&labels) {
                counts[b][l] += 1;
            }
            let bucket_class: Vec<usize> = counts
                .iter()
                .map(|c| {
                    c.iter()
                        .enumerate()
                        .max_by_key(|(_, n)| **n)
                        .map(|(i, n)| if *n == 0 { default } else { i })
                        .unwrap_or(default)
                })
                .collect();
            let errors: usize = buckets
                .iter()
                .zip(&labels)
                .filter(|&(&b, &l)| bucket_class[b] != l)
                .count();
            let rule = Rule {
                attribute: a,
                binning,
                bucket_class,
                default,
            };
            if best.as_ref().map(|(e, _)| errors < *e).unwrap_or(true) {
                best = Some((errors, rule));
            }
        }
        let (_, rule) = best
            .ok_or_else(|| MiningError::InvalidDataset("OneR found no usable attribute".into()))?;
        self.rule = Some(rule);
        self.n_attributes = data.n_attributes();
        Ok(())
    }

    fn predict_view(&self, data: &InstancesView<'_>) -> Result<Vec<usize>> {
        let rule = self.rule.as_ref().ok_or(MiningError::NotFitted("OneR"))?;
        check_attributes("OneR", self.n_attributes, data)?;
        let col = data.col(rule.attribute);
        Ok((0..data.len())
            .map(|i| {
                let b = Self::bucket_of(rule.binning, rule.bucket_class.len(), col.get(i));
                *rule.bucket_class.get(b).unwrap_or(&rule.default)
            })
            .collect())
    }

    fn model_size(&self) -> usize {
        self.rule
            .as_ref()
            .map(|r| r.bucket_class.len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::predict_one;
    use crate::instances::{Attribute, Instances};

    /// Attribute 1 perfectly predicts the class; attribute 0 is noise.
    fn data() -> Instances {
        let rows: Vec<Vec<Option<f64>>> = (0..40)
            .map(|i| {
                let noise = ((i * 13) % 7) as f64;
                let signal = if i % 2 == 0 { 0.0 } else { 10.0 };
                vec![Some(noise), Some(signal)]
            })
            .collect();
        let labels = (0..40).map(|i| Some(i % 2)).collect();
        Instances::from_rows(
            vec![
                Attribute {
                    name: "noise".into(),
                    kind: AttrKind::Numeric,
                },
                Attribute {
                    name: "signal".into(),
                    kind: AttrKind::Numeric,
                },
            ],
            rows,
            labels,
            vec!["even".into(), "odd".into()],
        )
    }

    #[test]
    fn picks_the_informative_attribute() {
        let mut m = OneR::new();
        m.fit(&data()).unwrap();
        assert_eq!(m.chosen_attribute(), Some(1));
        let preds = m.predict(&data()).unwrap();
        let correct = preds
            .iter()
            .zip(&data().labels)
            .filter(|(p, l)| Some(**p) == **l)
            .count();
        assert_eq!(correct, 40);
    }

    #[test]
    fn nominal_attribute_rule() {
        let d = Instances::from_rows(
            vec![Attribute {
                name: "color".into(),
                kind: AttrKind::Nominal(vec!["r".into(), "g".into()]),
            }],
            vec![
                vec![Some(0.0)],
                vec![Some(0.0)],
                vec![Some(1.0)],
                vec![Some(1.0)],
            ],
            vec![Some(0), Some(0), Some(1), Some(1)],
            vec!["a".into(), "b".into()],
        );
        let mut m = OneR::new();
        m.fit(&d).unwrap();
        assert_eq!(predict_one(&m, &d, &[Some(0.0)]).unwrap(), 0);
        assert_eq!(predict_one(&m, &d, &[Some(1.0)]).unwrap(), 1);
    }

    #[test]
    fn missing_goes_to_missing_bucket() {
        let mut m = OneR::new();
        m.fit(&data()).unwrap();
        // Missing signal → majority of missing bucket (empty → default).
        let p = predict_one(&m, &data(), &[Some(1.0), None]).unwrap();
        assert!(p < 2);
    }

    #[test]
    fn unfitted_errors() {
        assert!(matches!(
            OneR::new().predict(&data()),
            Err(MiningError::NotFitted(_))
        ));
    }
}
