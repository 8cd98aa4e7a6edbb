//! End-to-end reporting: sweep results → figure series → CSV/markdown,
//! verifying the presentation layer faithfully carries the data.

use biosched::metrics::markdown::{figure_to_markdown, table_to_markdown};
use biosched::prelude::*;

fn small_sweep() -> (Vec<usize>, Vec<Vec<PointResult>>) {
    let points = vec![4usize, 8];
    let results = sweep_on(
        &points,
        &[AlgorithmKind::BaseTest, AlgorithmKind::Rbs],
        3,
        EngineKind::Sequential,
        |vms| {
            HeterogeneousScenario {
                vm_count: vms,
                cloudlet_count: 24,
                datacenter_count: 2,
                seed: 3,
            }
            .build()
        },
    );
    (points, results)
}

#[test]
fn sweep_to_figure_to_csv_roundtrip() {
    let (points, results) = small_sweep();
    let mut fig = FigureSeries::new(
        "test",
        "VMs",
        "ms",
        points.iter().map(|p| *p as f64).collect(),
    );
    for (ai, name) in ["Base Test", "RBS"].iter().enumerate() {
        fig.push_series(
            *name,
            results
                .iter()
                .map(|row| row[ai].simulation_time_ms)
                .collect(),
        );
    }
    let csv = fig.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines[0], "VMs,Base Test,RBS");
    assert_eq!(lines.len(), 3);
    // The first data row carries the first point's actual measurement.
    let first_makespan = results[0][0].simulation_time_ms;
    assert!(
        lines[1].contains(&format!("{first_makespan}")),
        "CSV row {} must carry {first_makespan}",
        lines[1]
    );
    // Markdown rendering carries the same series names.
    let md = figure_to_markdown(&fig);
    assert!(md.contains("| VMs | Base Test | RBS |"));
}

#[test]
fn metrics_table_to_markdown() {
    let (_, results) = small_sweep();
    let mut table = Table::new(vec!["algorithm", "makespan"]);
    for r in &results[0] {
        table.push_row(vec![
            r.algorithm.label().to_string(),
            fmt_value(r.simulation_time_ms),
        ]);
    }
    let md = table_to_markdown(&table);
    assert!(md.contains("| algorithm | makespan |"));
    assert!(md.contains("| Base Test | "));
    assert!(md.contains("| RBS | "));
}

#[test]
fn histograms_and_percentiles_over_real_outcomes() {
    use biosched::metrics::distribution::{gini, percentile, Histogram};
    let scenario = HeterogeneousScenario {
        vm_count: 10,
        cloudlet_count: 100,
        datacenter_count: 2,
        seed: 5,
    }
    .build();
    let outcome = scenario
        .simulate(
            AlgorithmKind::BaseTest
                .build(5)
                .schedule(&scenario.problem()),
        )
        .unwrap();
    let execs: Vec<f64> = outcome
        .records
        .iter()
        .filter_map(|r| r.execution_ms)
        .collect();
    let p50 = percentile(&execs, 0.5).unwrap();
    let p99 = percentile(&execs, 0.99).unwrap();
    assert!(p99 >= p50);
    let hist = Histogram::of(&execs, 8).unwrap();
    assert_eq!(hist.count(), 100);
    // Load inequality across VMs is a proper fraction.
    let busy = outcome.per_vm_busy_ms(10);
    let g = gini(&busy).unwrap();
    assert!((0.0..1.0).contains(&g), "gini {g}");
}
