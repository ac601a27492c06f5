//! The benchmark's own tests: a deterministic generator, a valid and
//! complete metric catalogue, a drive that answers exactly what
//! `ScenarioSpec::run` answers, and a golden comparison that notices a
//! changed number.

use std::path::Path;

use vread_bench::json::Json;
use vread_perfbench::drive::{self, quantile, Outcome};
use vread_perfbench::gen::{self, Shape};
use vread_perfbench::layers::{self, END_TO_END};
use vread_perfbench::suite;

/// A workload shrunk to a handful of sessions over small files.
fn small(mut shape: Shape) -> Shape {
    shape.sessions = 6;
    shape.file_mb = 8;
    shape.write_mb = 4;
    shape.request_kb = 1024;
    shape.mean_gap_ms = 20.0;
    shape
}

#[test]
fn generator_is_deterministic_per_seed() {
    for shape in [gen::vanilla_contended(), gen::vread_cas_mixed()] {
        let a = gen::generate(&shape, 7, false).expect("spec builds");
        let b = gen::generate(&shape, 7, false).expect("spec builds");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(gen::digest(&a), gen::digest(&b));
        let other = gen::generate(&shape, 8, false).expect("spec builds");
        assert_ne!(gen::digest(&a), gen::digest(&other));
        // tracing turns recorders on and changes no input
        let traced = gen::generate(&shape, 7, true).expect("spec builds");
        assert!(traced.spans && traced.timeline.is_some());
        assert_eq!(
            format!("{:?}", a.workloads),
            format!("{:?}", traced.workloads)
        );
    }
}

#[test]
fn generator_follows_the_shape() {
    let shape = gen::vread_cas_mixed();
    let spec = gen::generate(&shape, 3, false).expect("spec builds");
    assert_eq!(spec.workloads.len(), shape.sessions);
    let starts: Vec<u64> = spec.workloads.iter().map(|w| w.start_ms).collect();
    assert!(starts.windows(2).all(|p| p[0] <= p[1]), "arrivals in order");
    let writes = spec
        .workloads
        .iter()
        .filter(|w| w.kind.kind_str() == "dfsio-write")
        .count();
    assert!(
        writes > 0 && writes < shape.sessions / 3,
        "about 1 in 6: {writes}"
    );
    assert!(spec
        .files
        .iter()
        .all(|f| f.replicate && f.placement.len() == 2));
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let mut all: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|&(name, unit, _)| (name.to_owned(), unit))
        .collect();
    all.extend(
        layers::per_layer()
            .into_iter()
            .map(|(name, unit, _)| (name, unit)),
    );
    assert!(all.len() <= 3 + 128);
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in &all {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(seen.insert(name.clone()), "duplicate metric {name:?}");
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit:?} for {name}"
        );
    }
    assert_eq!(
        layers::sanitize("data copy(virtio-vqueue)"),
        "data_copy_virtio_vqueue"
    );
}

#[test]
fn benchmark_json_declares_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let j = Json::parse(&text).expect("BENCHMARK.json parses");
    let declared = |key: &str| -> Vec<(String, String, String)> {
        j.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let f = |k: &str| m.get(k).and_then(Json::as_str).expect("field").to_owned();
                (f("name"), f("unit"), f("better"))
            })
            .collect()
    };
    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|&(n, u, b)| (n.to_owned(), u.to_owned(), b.as_str().to_owned()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
    let per_layer: Vec<_> = layers::per_layer()
        .into_iter()
        .map(|(n, u, b)| (n, u.to_owned(), b.as_str().to_owned()))
        .collect();
    assert_eq!(declared("per_layer"), per_layer);
}

#[test]
fn drive_matches_scenario_run() {
    for shape in [gen::vanilla_contended(), gen::vread_cas_mixed()] {
        let spec = gen::generate(&small(shape), 5, false).expect("spec builds");
        let report = spec.run().expect("scenario runs");

        let mut d = drive::deploy(&spec).expect("deploys");
        let sessions = drive::arm(&mut d, &spec).expect("arms");
        assert!(drive::drive(&mut d), "sessions finish");
        let o = Outcome::collect(&d, &sessions);
        assert_eq!(o.failed, 0);
        assert_eq!(o.late_ns, 0);
        assert_eq!(o.makespan_s, report.elapsed_s);
        assert_eq!(o.read_bytes + o.write_bytes, report.bytes);
        // sessions start when due, so due-to-done is the job's own span
        let mut per_session: Vec<f64> = report.per_workload.iter().map(|w| w.elapsed_s).collect();
        per_session.sort_by(f64::total_cmp);
        assert_eq!(o.session_s, per_session);
    }
}

#[test]
fn nearest_rank_quantiles() {
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(quantile(&v, 0.5), 500.0);
    assert_eq!(quantile(&v, 0.999), 999.0);
    assert_eq!(quantile(&v, 1.0), 1000.0);
    assert_eq!(quantile(&[], 0.5), 0.0);
}

#[test]
fn golden_comparison_catches_a_changed_number() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut goldens = suite::load_goldens(&root.join("results")).expect("results/ loads");
    let reg: Vec<_> = suite::ordered_registry(1)
        .into_iter()
        .filter(|(name, _)| *name == "fig6")
        .collect();
    assert_eq!(reg.len(), 1);
    let runs = suite::run(&reg, 1);
    let ok = suite::check(&runs, &goldens);
    assert!(ok.failed.is_empty() && ok.compared == 1, "{ok:?}");

    bump_first_value(goldens.get_mut("fig6").expect("fig6 golden"));
    let bad = suite::check(&runs, &goldens);
    assert_eq!(bad.failed, vec!["fig6".to_owned()]);
}

/// Adds 1 to `rows[0].values[0]` of a golden table.
fn bump_first_value(table: &mut Json) {
    fn field<'a>(j: &'a mut Json, key: &str) -> &'a mut Json {
        match j {
            Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect("field").1,
            _ => panic!("not an object"),
        }
    }
    fn first(j: &mut Json) -> &mut Json {
        match j {
            Json::Arr(xs) => &mut xs[0],
            _ => panic!("not an array"),
        }
    }
    let v = first(field(first(field(table, "rows")), "values"));
    *v = Json::Num(v.as_f64().expect("number") + 1.0);
}

#[test]
fn registry_order_is_a_seeded_permutation() {
    let names = |seed| -> Vec<&str> {
        suite::ordered_registry(seed)
            .into_iter()
            .map(|(n, _)| n)
            .collect()
    };
    assert_eq!(names(4), names(4));
    let mut sorted = names(4);
    sorted.sort_unstable();
    let mut catalogue = layers::SUITE.to_vec();
    catalogue.sort_unstable();
    assert_eq!(
        sorted, catalogue,
        "the catalogue names every registry entry"
    );
}
