//! Synthetic Linked Open Data generation.
//!
//! Two generators:
//! * [`scenario_to_lod`] lifts a tabular scenario into an RDF graph with
//!   entity links (`owl:sameAs` across "portals", `obi`-style relations)
//!   — the integration setting of the paper's §1.
//! * [`HighDimLodConfig`] generates a graph whose entities carry many
//!   sparse extra properties, reproducing the *high dimensionality* that
//!   makes LOD hard to mine (§1) for the dimensionality experiments.

use crate::scenario::Scenario;
use openbi_lod::{publish_table, Graph, Iri, Literal, Term};
use openbi_table::Rng;

/// Lift a scenario into LOD. Every row becomes an entity of class
/// `{base}/dataset/{name}/Row`; `link_density` in `[0,1]` controls how many
/// entities get a `seeAlso` link to another row and an `owl:sameAs`
/// alias on a "mirror portal".
pub fn scenario_to_lod(
    scenario: &Scenario,
    base_iri: &str,
    link_density: f64,
    seed: u64,
) -> openbi_lod::Result<Graph> {
    let mut g = publish_table(&scenario.table, base_iri, &scenario.name)?;
    let mut rng = Rng::seed_from_u64(seed);
    let base = base_iri.trim_end_matches('/');
    let slug: String = scenario
        .name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    let n = scenario.table.n_rows();
    let see_also = Term::Iri(openbi_lod::vocab::rdfs::see_also());
    let same_as = Term::Iri(openbi_lod::vocab::owl::same_as());
    for i in 0..n {
        if rng.f64() >= link_density {
            continue;
        }
        let entity = Term::Iri(Iri::new(format!("{base}/dataset/{slug}/row/{i}"))?);
        let other = rng.below(n);
        if other != i {
            let target = Term::Iri(Iri::new(format!("{base}/dataset/{slug}/row/{other}"))?);
            g.add(entity.clone(), see_also.clone(), target);
        }
        let mirror = Term::Iri(Iri::new(format!(
            "https://mirror.example.org/{slug}/item/{i}"
        ))?);
        g.add(entity, same_as.clone(), mirror);
    }
    Ok(g)
}

/// Configuration for the high-dimensional LOD generator.
#[derive(Debug, Clone)]
pub struct HighDimLodConfig {
    /// Number of entities.
    pub n_entities: usize,
    /// Number of *informative* numeric properties.
    pub n_informative: usize,
    /// Number of extra sparse/noisy properties (the dimensionality knob).
    pub n_extra: usize,
    /// Probability that an entity carries any given extra property
    /// (sparsity: LOD entities rarely share all predicates).
    pub extra_density: f64,
    /// Number of classes encoded in a `category` property.
    pub n_classes: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for HighDimLodConfig {
    fn default() -> Self {
        HighDimLodConfig {
            n_entities: 300,
            n_informative: 4,
            n_extra: 40,
            extra_density: 0.5,
            n_classes: 2,
            seed: 42,
        }
    }
}

/// The `rdf:type` class IRI used by the high-dimensional generator.
pub fn high_dim_class() -> Iri {
    Iri::new("http://openbi.org/gen#Entity").expect("static IRI")
}

/// Generate a high-dimensional LOD graph: entities with a `category`
/// label driven by the informative properties, plus many sparse noise
/// properties.
pub fn high_dim_lod(config: &HighDimLodConfig) -> Graph {
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut g = Graph::new();
    let class = Term::Iri(high_dim_class());
    let type_pred = Term::Iri(openbi_lod::vocab::rdf::type_());
    let ns = "http://openbi.org/gen#";
    let k = config.n_classes.max(2);
    for i in 0..config.n_entities {
        let entity = Term::iri(&format!("{ns}e{i}"));
        g.add(entity.clone(), type_pred.clone(), class.clone());
        let cls = i % k;
        // Informative properties: shifted per class.
        for j in 0..config.n_informative {
            let v = cls as f64 * 3.0 + rng.gauss();
            g.add(
                entity.clone(),
                Term::iri(&format!("{ns}info{j}")),
                Term::Literal(Literal::double(v)),
            );
        }
        // Sparse noise properties.
        for j in 0..config.n_extra {
            if rng.f64() < config.extra_density {
                g.add(
                    entity.clone(),
                    Term::iri(&format!("{ns}extra{j}")),
                    Term::Literal(Literal::double(rng.gauss())),
                );
            }
        }
        g.add(
            entity,
            Term::iri(&format!("{ns}category")),
            Term::Literal(Literal::plain(format!("k{cls}"))),
        );
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::air_quality;
    use openbi_lod::{tabularize, TabularizeOptions};

    #[test]
    fn scenario_lod_contains_rows_and_links() {
        let s = air_quality(50, 1);
        let g = scenario_to_lod(&s, "http://openbi.org", 0.5, 2).unwrap();
        let row_class = Iri::new("http://openbi.org/dataset/air-quality/Row").unwrap();
        assert_eq!(g.subjects_of_type(&row_class).len(), 50);
        let same_as = Term::Iri(openbi_lod::vocab::owl::same_as());
        let links = g.match_pattern(None, Some(&same_as), None);
        assert!(!links.is_empty(), "sameAs links generated");
        assert!(links.len() < 50, "density below 1 leaves some unlinked");
    }

    #[test]
    fn zero_density_means_no_links() {
        let s = air_quality(30, 1);
        let g = scenario_to_lod(&s, "http://openbi.org", 0.0, 2).unwrap();
        let same_as = Term::Iri(openbi_lod::vocab::owl::same_as());
        assert!(g.match_pattern(None, Some(&same_as), None).is_empty());
    }

    #[test]
    fn high_dim_graph_tabularizes_with_nulls() {
        let config = HighDimLodConfig {
            n_entities: 100,
            n_extra: 20,
            extra_density: 0.4,
            ..Default::default()
        };
        let g = high_dim_lod(&config);
        let t = tabularize(&g, &high_dim_class(), &TabularizeOptions::default()).unwrap();
        assert_eq!(t.n_rows(), 100);
        // iri + informative + category + (up to) extra columns.
        assert!(t.n_cols() > config.n_informative + 2);
        // Sparsity shows up as nulls after the pivot.
        assert!(t.total_null_count() > 0, "sparse properties become nulls");
    }

    #[test]
    fn informative_properties_separate_classes() {
        let g = high_dim_lod(&HighDimLodConfig {
            n_entities: 200,
            n_extra: 0,
            ..Default::default()
        });
        let t = tabularize(&g, &high_dim_class(), &TabularizeOptions::default()).unwrap();
        let info = t.column("info0").unwrap().numbers();
        let cat = t.column("category").unwrap();
        let mut m = [0.0f64; 2];
        let mut c = [0usize; 2];
        for (i, v) in info.iter().enumerate() {
            let idx = usize::from(cat.get(i).unwrap().to_string() == "k1");
            m[idx] += v;
            c[idx] += 1;
        }
        let (m0, m1) = (m[0] / c[0] as f64, m[1] / c[1] as f64);
        assert!((m1 - m0) > 2.0, "class means {m0} vs {m1}");
    }

    #[test]
    fn high_dim_deterministic() {
        let a = high_dim_lod(&HighDimLodConfig::default());
        let b = high_dim_lod(&HighDimLodConfig::default());
        assert_eq!(a.len(), b.len());
    }
}
