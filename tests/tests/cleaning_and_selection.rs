//! Integration of the repair & selection layers: record linkage fixes
//! injected duplicates+inconsistency, CFS selection undoes injected
//! dimensionality/redundancy, MDL discretization feeds rule mining, and
//! the Turtle writer round-trips published graphs.

use openbi::datagen::{make_blobs, municipal_budget, BlobsConfig};
use openbi::lod::{parse_turtle, publish_table, write_turtle, PrefixMap};
use openbi::mining::eval::crossval::cross_validate;
use openbi::mining::preprocess::mdl_discretize_column;
use openbi::mining::{cfs_select, project, AlgorithmSpec, Apriori, Instances};
use openbi::quality::{
    find_duplicate_clusters, measure_profile, merge_duplicates, Degradation, DuplicateInjector,
    InconsistencyInjector, IrrelevantInjector, LinkageConfig, MeasureOptions,
};

#[test]
fn record_linkage_repairs_injected_duplicates_despite_mangling() {
    // Clean scenario → inject near-duplicates AND format manglings, so
    // exact-match dedup would miss them — record linkage must not.
    let clean = municipal_budget(150, 3).table;
    let dirty = Degradation::new()
        .then(DuplicateInjector::near(0.2, 0.01).exclude(["district", "category", "overspend"]))
        .then(InconsistencyInjector::new(0.3))
        .apply(&clean, 5)
        .unwrap();
    let injected = dirty.n_rows() - clean.n_rows();
    assert!(injected > 20);
    // Exact-duplicate measurement sees almost nothing…
    let profile = measure_profile(&dirty, &MeasureOptions::default());
    assert!(
        profile.duplicate_ratio < 0.05,
        "exact dups {}",
        profile.duplicate_ratio
    );
    // …record linkage finds and merges the fuzzy pairs.
    let config = LinkageConfig {
        blocking_column: Some("district".into()),
        threshold: 0.05,
        ignore: vec!["id".into()],
    };
    let clusters = find_duplicate_clusters(&dirty, &config).unwrap();
    let clustered_rows: usize = clusters.iter().map(|c| c.len() - 1).sum();
    assert!(
        clustered_rows as f64 > injected as f64 * 0.5,
        "linkage found {clustered_rows} of {injected} injected dups"
    );
    let (merged, removed) = merge_duplicates(&dirty, &config).unwrap();
    assert_eq!(removed, clustered_rows);
    assert!(merged.n_rows() < dirty.n_rows());
    // Over-merge bound: relative to what the same linkage config already
    // collapses on the *clean* data (generated line items can legitimately
    // be near-identical), merging the dirty table must not lose more than
    // the injected rows plus a small slack for dup-of-near-dup chains.
    let (_, clean_removed) = merge_duplicates(&clean, &config).unwrap();
    let extra_removed = removed.saturating_sub(clean_removed);
    assert!(
        extra_removed <= injected + 10,
        "over-merged: removed {extra_removed} beyond the clean baseline for {injected} injected"
    );
}

#[test]
fn cfs_selection_recovers_knn_accuracy_under_dimensionality() {
    let clean = make_blobs(&BlobsConfig {
        n_rows: 240,
        n_features: 4,
        n_classes: 2,
        class_separation: 3.0,
        seed: 9,
    });
    let wide = Degradation::new()
        .then(IrrelevantInjector::gaussian(40))
        .apply(&clean, 11)
        .unwrap();
    let instances = Instances::from_table(&wide, Some("class"), &[]).unwrap();
    let baseline = cross_validate(&instances, &AlgorithmSpec::Knn { k: 5 }, 3, 1)
        .unwrap()
        .accuracy();
    let picked = cfs_select(&instances, 8).unwrap();
    // Selection keeps informative attributes, discards the noise.
    for &a in &picked {
        assert!(
            instances.attributes[a].name.starts_with('f'),
            "selected noise attribute {}",
            instances.attributes[a].name
        );
    }
    let reduced = project(&instances, &picked);
    let selected_acc = cross_validate(&reduced, &AlgorithmSpec::Knn { k: 5 }, 3, 1)
        .unwrap()
        .accuracy();
    assert!(
        selected_acc > baseline + 0.05,
        "selection {selected_acc} must beat wide baseline {baseline}"
    );
}

#[test]
fn mdl_discretization_feeds_sharper_rules_than_raw_numbers() {
    let scenario = municipal_budget(400, 7);
    let sub = scenario.table.select(&["headcount", "overspend"]).unwrap();
    let discretized = mdl_discretize_column(&sub, "headcount", "overspend").unwrap();
    // MDL found at least one cut: the column has >1 distinct bucket.
    let buckets = discretized
        .column("headcount")
        .unwrap()
        .categories()
        .texts();
    assert!(buckets.len() >= 2, "buckets {buckets:?}");
    let apriori = Apriori {
        min_support: 0.1,
        min_confidence: 0.6,
        max_len: 2,
    };
    let rules = apriori.mine_rules(&discretized).unwrap();
    assert!(
        rules
            .iter()
            .any(|r| r.consequent.iter().any(|c| c.starts_with("overspend="))),
        "expected overspend rules from MDL buckets, got {} rules",
        rules.len()
    );
}

#[test]
fn turtle_output_round_trips_published_scenario() {
    let table = municipal_budget(40, 1).table;
    let graph = publish_table(&table, "http://openbi.org", "budget").unwrap();
    let ttl = write_turtle(&graph, &PrefixMap::default());
    assert!(ttl.contains("@prefix obi:"));
    assert!(ttl.contains(" a obi:Dataset"));
    let back = parse_turtle(&ttl).unwrap();
    assert_eq!(back.len(), graph.len());
    for t in graph.iter() {
        assert!(back.contains(&t));
    }
}

#[test]
fn knowledge_base_shares_as_lod_and_advises_after_import() {
    use openbi::experiment::{run_phase1_report, Criterion, ExperimentConfig, ExperimentDataset};
    use openbi::kb::{Advisor, SnapshotKnowledgeBase};
    use openbi::mining::AlgorithmSpec;
    use openbi::quality::QualityProfile;
    use openbi::{import_knowledge_base, publish_knowledge_base};

    // Build a tiny KB from real experiments…
    let dataset = ExperimentDataset::new(
        "blobs",
        make_blobs(&BlobsConfig {
            n_rows: 120,
            n_features: 3,
            n_classes: 2,
            class_separation: 3.0,
            seed: 2,
        }),
        "class",
    );
    let kb = SnapshotKnowledgeBase::default();
    run_phase1_report(
        &[dataset],
        &[Criterion::Completeness],
        &ExperimentConfig {
            algorithms: vec![AlgorithmSpec::ZeroR, AlgorithmSpec::NaiveBayes],
            severities: vec![0.0, 1.0],
            folds: 3,
            seed: 2,
            parallel: false,
            workers: 0,
            ..ExperimentConfig::default()
        },
        &kb,
    )
    .unwrap();
    let snapshot = kb.snapshot();
    // …share it as Turtle LOD, re-import on "another instance"…
    let graph = publish_knowledge_base(&snapshot, "http://openbi.org").unwrap();
    let ttl = write_turtle(&graph, &PrefixMap::default());
    let received = parse_turtle(&ttl).unwrap();
    let imported = import_knowledge_base(&received, "http://openbi.org").unwrap();
    assert_eq!(imported.len(), snapshot.len());
    // …and the imported knowledge still advises correctly.
    let advice = Advisor::default()
        .advise(&imported, &QualityProfile::default())
        .unwrap();
    assert_eq!(advice.best(), "NaiveBayes");
}
