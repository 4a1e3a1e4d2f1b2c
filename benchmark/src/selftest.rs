//! Whole-benchmark tests: a `--smoke` pass of every workload, traced and
//! untraced, and the agreement of `BENCHMARK.json` with the code.

use crate::harness::{Ctx, Kind, Spec, Workload};
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run;
use crate::trace::Tracer;
use crate::workloads::{MineRules, PqmatchCold, ServeLive, ViewStream};

fn smoke(kind: Kind, seed: u64) -> Spec {
    Spec {
        kind,
        seed,
        seconds: 1,
        smoke: true,
    }
}

#[test]
fn every_workload_passes_its_checks_under_smoke_and_reports_every_metric() {
    for kind in Kind::ALL {
        let out =
            run::run(smoke(kind, 1), false).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        assert_eq!(out.failed, 0, "{}: an answer failed a check", kind.name());
        assert!(out.attempted >= 10, "{}", kind.name());
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, expected, "{}", kind.name());
        for m in &out.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {}",
                kind.name(),
                m.name
            );
        }
        // The result line is exactly what the driver's contract names.
        let line = Json::parse(&out.result_line()).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    }
}

#[test]
fn a_traced_smoke_run_reports_every_per_layer_metric_and_a_span_tree() {
    for kind in Kind::ALL {
        let out = run::run(smoke(kind, 1), true).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        assert_eq!(out.failed, 0, "{}", kind.name());
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{}", kind.name());
        assert!(
            out.metrics.iter().all(|m| m.value.is_finite()),
            "{}",
            kind.name()
        );

        let trace = out.trace.as_ref().expect("a traced run carries its trace");
        let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
        assert!(spans
            .iter()
            .any(|s| s.get("op").and_then(Json::as_f64) >= Some(1.0)));
        // Every parent id refers to an earlier span.
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.get("parent").and_then(Json::as_f64) {
                assert!((p as usize) < i, "{}: span {i} has parent {p}", kind.name());
            }
        }

        // A layer's counts and self time are non-zero on the workload that
        // exercises it and zero on the ones that bypass it.
        let value = |name: &str| out.metrics.iter().find(|m| m.name == name).unwrap().value;
        let touched = |name: &str, by: &[Kind]| {
            assert_eq!(
                value(name) > 0.0,
                by.contains(&kind),
                "{name} on {}",
                kind.name()
            );
        };
        touched(
            "graph.delta.pending_max",
            &[Kind::ServeLive, Kind::ViewStream],
        );
        touched("update_ms_p50", &[Kind::ServeLive, Kind::ViewStream]);
        touched("core.engine.registry.cache_misses", &[Kind::ServeLive]);
        touched("core.engine.registry.cache_hits", &[Kind::ServeLive]);
        touched(
            "trace.self_ms_per_op.core.engine.registry",
            &[Kind::ServeLive],
        );
        touched("core.engine.view.rechecked_per_batch", &[Kind::ViewStream]);
        touched("trace.self_ms_per_op.core.engine.view", &[Kind::ViewStream]);
        touched("rules.mining.pairs_explored", &[Kind::MineRules]);
        touched("trace.self_ms_per_op.rules.mining", &[Kind::MineRules]);
        touched(
            "trace.self_ms_per_op.core.engine.exec",
            &[Kind::PqmatchCold],
        );
        touched(
            "core.matching.focus_candidates",
            &[Kind::PqmatchCold, Kind::ServeLive, Kind::MineRules],
        );
        touched(
            "core.engine.count.threshold_exits",
            &[Kind::ServeLive, Kind::MineRules],
        );
    }
}

#[test]
fn one_seed_gives_one_load_and_another_seed_another() {
    fn print<W: Workload>(kind: Kind, seed: u64) -> crate::inputs::Fingerprint {
        let spec = smoke(kind, seed);
        W::setup(&Ctx::new(spec, Tracer::disabled()), &W::plan(&spec)).fingerprint()
    }
    macro_rules! check {
        ($w:ty, $kind:expr) => {{
            let (a, b, c) = (
                print::<$w>($kind, 1),
                print::<$w>($kind, 1),
                print::<$w>($kind, 2),
            );
            assert_eq!(a, b, "{}", $kind.name());
            assert_ne!(a.graph, c.graph, "{}", $kind.name());
            // The query mix is the same for every seed by design.
            assert_eq!(a.patterns, c.patterns, "{}", $kind.name());
        }};
    }
    check!(PqmatchCold, Kind::PqmatchCold);
    check!(ServeLive, Kind::ServeLive);
    check!(ViewStream, Kind::ViewStream);
    check!(MineRules, Kind::MineRules);
    let (a, c) = (
        print::<ViewStream>(Kind::ViewStream, 1),
        print::<ViewStream>(Kind::ViewStream, 2),
    );
    assert_ne!(a.stream, c.stream);
}

#[test]
fn benchmark_json_declares_exactly_the_metrics_and_workloads_of_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json =
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses");
    let keys: Vec<&str> = json.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
    let list = |k: &str| json.get(k).and_then(Json::as_arr).unwrap().to_vec();

    let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
    assert_eq!(workloads, Kind::ALL.map(|k| k.name().to_owned()));
    assert!(list("workloads").iter().all(|w| {
        let why = field(w, "why");
        !why.is_empty() && why.len() <= 200 && !why.contains('\n')
    }));

    let declared: Vec<(String, String, String)> = list("end_to_end")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    let coded: Vec<(String, String, String)> = END_TO_END
        .iter()
        .map(|m| (m.0.to_owned(), m.1.to_owned(), m.2.to_owned()))
        .collect();
    assert_eq!(declared, coded);
    for m in list("end_to_end") {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{}", field(&m, "name"));
    }

    let declared: Vec<(String, String, String)> = list("per_layer")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    let coded: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned()))
        .collect();
    assert_eq!(declared, coded);

    assert_eq!(
        json.get("run_seconds").and_then(Json::as_f64),
        Some(crate::harness::NOMINAL_SECONDS as f64)
    );
}
