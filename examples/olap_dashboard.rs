//! A citizen-facing dashboard: reporting + OLAP analysis over an
//! open-data scenario (the "reporting, OLAP analysis, dashboards" triad
//! of the paper's §1), rendered as text.
//!
//! Run with: `cargo run --example olap_dashboard`

use openbi::datagen::air_quality;
use openbi::olap::{Cube, CubeOptions, Dashboard, Measure, QualityThresholds};
use openbi::quality::{measure_profile, MeasureOptions};
use openbi::table::{group_by, Aggregate};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = air_quality(1_000, 7);
    let facts = scenario.table;

    let cube = Cube::new(
        facts.clone(),
        &["district", "traffic", "aqi_band"],
        vec![
            Measure::Mean("pm10".into()),
            Measure::Mean("no2".into()),
            Measure::Count("station".into()),
        ],
    )?;

    // A drill-down path: city → one district → its worst pollution band.
    let by_district = cube.rollup(&["district"])?;
    let harbor = cube.slice("district", "harbor")?;
    let harbor_by_traffic = harbor.rollup(&["traffic"])?;

    // A pm10 trend for one station, as a sparkline.
    let st0 = facts.filter(|row| row[0].to_string() == "ST000");
    let pm10_series: Vec<f64> = st0
        .column("pm10")?
        .numbers()
        .into_iter()
        .filter(|x| !x.is_nan())
        .collect();

    // Quality footer so the citizen knows how much to trust the charts.
    let profile = measure_profile(
        &facts,
        &MeasureOptions {
            target: Some("aqi_band".into()),
            exclude: vec!["station".into()],
        },
    );

    let dashboard = Dashboard::new("City Air Quality — Open Data Dashboard")
        .text(format!(
            "{} station-day measurements across {} districts.",
            facts.n_rows(),
            by_district.n_rows()
        ))
        .rollup_chart(
            "mean PM10 by district",
            &cube,
            "district",
            &Measure::Mean("pm10".into()),
            36,
        )?
        .table("harbor district by traffic level", harbor_by_traffic, 10)
        // The sharded engine's quality-annotated rollup: each aggregate
        // cell carries its row support and null ratio, and thin or
        // null-heavy cells are flagged right in the report.
        .quality_rollup(
            "mean PM10 / NO2 by district x traffic (quality-flagged)",
            &cube,
            &["district", "traffic"],
            &QualityThresholds::default(),
            &CubeOptions::default(),
        )?
        .trend("PM10 trend at station ST000", &pm10_series)
        .text(format!(
            "data quality: completeness {:.1}%, class balance {:.2}, consistency {:.2}",
            profile.completeness * 100.0,
            profile.class_balance,
            profile.consistency
        ));
    print!("{}", dashboard.render());

    // A classical grouped report straight off the table layer, too.
    let worst = group_by(
        &facts,
        &["aqi_band"],
        &[
            Aggregate::Count("station".into()),
            Aggregate::Mean("pm10".into()),
            Aggregate::Max("pm10".into()),
        ],
    )?;
    println!("{}", worst.render(10));
    Ok(())
}
