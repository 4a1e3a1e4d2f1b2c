//! Layer probes of a traced run: each layer of the stack timed in
//! isolation, from outside, on the workload's own graph.
//!
//! A probe reports the median of a few repetitions.  Counts that belong to
//! a layer (cache hits, rechecked foci, compactions, `MatchStats`) are not
//! probed here: they are counted at the span boundaries of the workload's
//! own traced block, where the work happens.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qgp_core::engine::{Engine, ExecOptions, QueryRegistry, ServeRequest};
use qgp_core::matching::{MatchConfig, MatchSession};
use qgp_core::pattern::{library, Pattern};
use qgp_graph::{EdgeOp, Graph, GraphSnapshot, GraphStore, NodeId};
use qgp_parallel::{dpar_with, ParallelConfig, PartitionConfig};
use qgp_rules::{evaluate_rule, mine_qgars_with_report, MiningConfig};
use qgp_runtime::Runtime;

use crate::harness::{Ctx, PROBE_THREADS};
use crate::inputs::{rebuild_graph, sub_seed, Dataset, Edge, Family, UpdateStream};
use crate::stats::{median, percentile};

/// Median of `reps` measurements; `measure` times what it wants timed and
/// keeps the preparation around it (generating a batch, say) out.
fn med_of(reps: usize, measure: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = std::iter::repeat_with(measure).take(reps.max(1)).collect();
    median(&samples).unwrap_or(0.0)
}

/// Median wall time, in seconds, of `reps` runs of `f`.
fn med_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    med_of(reps, || {
        let start = Instant::now();
        black_box(f());
        start.elapsed().as_secs_f64()
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The probe queries of a dataset family: the main one (a negated,
/// counting library pattern) and three more to register beside it, two of
/// which share its projection.
fn probe_patterns(family: Family) -> [Pattern; 4] {
    match family {
        Family::Pokec => [
            library::q3_redmi_negation(2),
            library::q3_redmi_negation(1),
            library::q1_music_club(),
            library::q3_redmi_negation(3),
        ],
        Family::Yago => [
            library::q4_uk_professors(2),
            library::q4_uk_professors(1),
            library::q5_non_uk_professors(),
            library::q4_uk_professors(3),
        ],
    }
}

/// Ten in-edges of the node with the largest in-degree: updates that land
/// on a hub, whose radius ball is a large share of the graph.
fn hub_edges(graph: &Graph) -> Vec<Edge> {
    let hub = graph
        .nodes()
        .max_by_key(|&v| (graph.in_degree(v), std::cmp::Reverse(v)))
        .unwrap_or(NodeId::new(0));
    graph
        .in_edges(hub)
        .take(10)
        .map(|e| (e.from, e.to, e.label))
        .collect()
}

/// Runs every probe and returns `metric name → value` for the timing
/// metrics of [`crate::metrics::PER_LAYER`] (the traced block supplies the
/// counts).
pub fn run(ctx: &Ctx, dataset: &Dataset, graph: &Graph) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let t = &ctx.tracer;
    // The workloads' own runtime, and a wider one for the probes that ask
    // what a second thread buys on this host.
    let rt = &ctx.rt;
    let wide = Runtime::new(PROBE_THREADS);
    // Repetitions shrink under --smoke (debug builds, tiny graphs).
    let reps = |n: usize| if ctx.spec.smoke { n.min(2) } else { n };
    let [main, sibling, other, third] = probe_patterns(dataset.family);
    let config = MatchConfig::qmatch();
    let stream_seed = sub_seed(dataset.seed, 90);

    t.span("probe:datasets", || {
        out.insert(
            "datasets.generate_s",
            med_secs(reps(3), || dataset.generate()),
        );
    });

    t.span("probe:graph.builder", || {
        let edges: Vec<Edge> = graph.edges().map(|e| (e.from, e.to, e.label)).collect();
        let secs = med_secs(reps(3), || rebuild_graph(graph, &edges));
        out.insert("graph.builder.build_s", secs);
        out.insert(
            "graph.builder.edges_per_s",
            edges.len() as f64 / secs.max(1e-12),
        );
    });

    t.span("probe:graph.csr", || {
        let scan = |g: &Graph| {
            let mut acc = 0u64;
            for v in g.nodes() {
                for w in g.out_neighbors_slice(v) {
                    acc = acc.wrapping_add(u64::from(w.0));
                }
            }
            acc
        };
        let per_edge =
            |g: &Graph| med_secs(reps(7), || scan(g)) * 1e9 / g.edge_count().max(1) as f64;
        out.insert("graph.csr.scan_ns_per_edge", per_edge(graph));
        // The same scan through an overlay of 512 pending ops (half the
        // default compaction threshold, so nothing is folded back).
        let mut patched = graph.clone();
        let ops = UpdateStream::new(graph, stream_seed).next_batch(512);
        patched
            .apply_edge_ops(&ops)
            .expect("stream endpoints exist");
        out.insert("graph.csr.scan_ns_per_edge_overlay", per_edge(&patched));
    });

    t.span("probe:graph.delta", || {
        let mut stream = UpdateStream::new(graph, stream_seed + 1);
        let mut live = graph.clone();
        for (name, size, batches) in [
            ("graph.delta.apply_us_per_op.b1", 1usize, 200usize),
            ("graph.delta.apply_us_per_op.b10", 10, 60),
            ("graph.delta.apply_us_per_op.b100", 100, 12),
            ("graph.delta.apply_us_per_op.b1000", 1000, 3),
        ] {
            let value = med_of(reps(batches), || {
                let ops = stream.next_batch(size);
                let start = Instant::now();
                live.apply_edge_ops(&ops).expect("stream endpoints exist");
                start.elapsed().as_secs_f64() * 1e6 / size as f64
            });
            out.insert(name, value);
        }
        let value = med_of(reps(3), || {
            let mut pending = graph.clone();
            pending.set_compaction_threshold(usize::MAX);
            pending
                .apply_edge_ops(&stream.next_batch(1000))
                .expect("stream endpoints exist");
            let start = Instant::now();
            pending.compact_updates();
            start.elapsed().as_secs_f64() * 1e3
        });
        out.insert("graph.delta.compact_ms", value);
    });

    t.span("probe:graph.store", || {
        let store = GraphStore::new(graph.clone());
        let mut stream = UpdateStream::new(graph, stream_seed + 2);
        let value = med_of(reps(64), || {
            let ops = stream.next_batch(10);
            let start = Instant::now();
            store.apply(&ops).expect("stream endpoints exist");
            start.elapsed().as_secs_f64() * 1e3
        });
        out.insert("graph.store.apply_ms_p50", value);
        let pins = 10_000;
        let secs = med_secs(reps(5), || {
            for _ in 0..pins {
                black_box(store.snapshot());
            }
        });
        out.insert("graph.store.snapshot_ns", secs * 1e9 / pins as f64);
        let since = store.epoch().saturating_sub(32);
        out.insert(
            "graph.store.replay_from_us",
            med_secs(reps(50), || store.replay_from(since)) * 1e6,
        );
    });

    let snapshot = Arc::new(GraphSnapshot::new(graph.clone()));
    let engine = Engine::on(Arc::clone(&snapshot));

    t.span("probe:core.pattern", || {
        out.insert(
            "core.pattern.build_us",
            med_secs(reps(100), || probe_patterns(dataset.family)) * 1e6 / 4.0,
        );
        out.insert(
            "core.engine.prepare_us",
            med_secs(reps(100), || engine.prepare(&main)) * 1e6,
        );
    });

    t.span("probe:core.matching", || {
        out.insert(
            "core.matching.session_build_ms",
            med_secs(reps(5), || MatchSession::new(graph, &main, &config)) * 1e3,
        );
        let mut session = MatchSession::new(graph, &main, &config);
        let foci: Vec<NodeId> = session
            .focus_candidates()
            .iter()
            .copied()
            .take(2_000)
            .collect();
        let decide_us: Vec<f64> = foci
            .iter()
            .map(|&v| {
                let start = Instant::now();
                black_box(session.decide(v));
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        for (name, p) in [
            ("core.matching.decide_us_p50", 50.0),
            ("core.matching.decide_us_p90", 90.0),
        ] {
            out.insert(name, percentile(&decide_us, p).map_or(0.0, |x| x.value));
        }
    });

    let mut prepared = engine.prepare(&main).expect("library patterns validate");
    // Build the cached sequential session before anything is timed.
    let _ = prepared.run(ExecOptions::sequential());

    t.span("probe:core.engine.exec", || {
        out.insert(
            "core.engine.exec.sequential_ms",
            med_secs(reps(5), || prepared.run(ExecOptions::sequential())) * 1e3,
        );
        out.insert(
            "core.engine.exec.parallel_ms",
            med_secs(reps(5), || prepared.run(ExecOptions::parallel_on(&wide))) * 1e3,
        );
    });

    t.span("probe:parallel", || {
        let d = main.radius().max(other.radius());
        let start = Instant::now();
        let partition = dpar_with(graph, &PartitionConfig::new(PROBE_THREADS, d), rt);
        out.insert("parallel.partition.dpar_s", start.elapsed().as_secs_f64());
        let stats = partition.stats();
        out.insert(
            "parallel.partition.replication_factor",
            stats.fragment_node_counts.iter().sum::<usize>() as f64
                / stats.total_nodes.max(1) as f64,
        );
        out.insert("parallel.partition.fragment_skew", stats.skew);
        out.insert("parallel.partition.border_nodes", stats.border_nodes as f64);
        out.insert(
            "core.engine.exec.partitioned_ms",
            med_secs(reps(5), || {
                prepared.run(ExecOptions::partitioned_on(partition.fragments(), d, rt))
            }) * 1e3,
        );
        // The `qgp-parallel` entry point (compile + partitioned run), on
        // two threads.
        #[allow(deprecated)]
        let run_ms = med_secs(reps(5), || {
            qgp_parallel::pqmatch_on(
                &main,
                &partition,
                &ParallelConfig::pqmatch(PROBE_THREADS),
                &wide,
            )
        }) * 1e3;
        out.insert("parallel.pqmatch.run_ms", run_ms);
    });

    t.span("probe:core.engine.count", || {
        out.insert(
            "core.engine.count.count_ms",
            med_secs(reps(5), || {
                prepared.count(ExecOptions::sequential().count_only())
            }) * 1e3,
        );
        out.insert(
            "core.engine.count.enumerate_ms",
            med_secs(reps(5), || prepared.run(ExecOptions::sequential())) * 1e3,
        );
    });

    t.span("probe:core.engine.registry", || {
        let store = GraphStore::new(graph.clone());
        let store_engine = Engine::from_store(&store);
        let mut registry = QueryRegistry::new();
        let requests: Vec<ServeRequest> = [&main, &sibling, &other, &third]
            .into_iter()
            .map(|p| {
                let q = store_engine.prepare(p).expect("library patterns validate");
                ServeRequest::new(registry.register(q))
            })
            .collect();
        let mut stream = UpdateStream::new(graph, stream_seed + 3);
        let (mut warm, mut prime, mut fanout, mut same) = (vec![], vec![], vec![], vec![]);
        for _ in 0..reps(5) {
            store
                .apply(&stream.next_batch(10))
                .expect("stream endpoints exist");
            let snap = store.snapshot();
            let mut serve = |reqs: &[ServeRequest], on: &Runtime| {
                let start = Instant::now();
                black_box(registry.serve(&snap, reqs, on));
                start.elapsed().as_secs_f64() * 1e3
            };
            // First serve on an epoch primes every session; the second
            // finds them built.
            let first = serve(&requests, rt);
            let second = serve(&requests, rt);
            // What fanning a batch out over two threads buys, and what two
            // requests for one query lose to its lock.
            let batch = serve(&requests, &wide);
            let singles: f64 = requests
                .iter()
                .map(|r| serve(std::slice::from_ref(r), &wide))
                .sum();
            let one = serve(&requests[..1], &wide);
            let twice = serve(&[requests[0].clone(), requests[0].clone()], &wide);
            warm.push(second);
            prime.push(first - second);
            fanout.push(singles / batch.max(1e-9));
            same.push(twice / one.max(1e-9));
        }
        out.insert(
            "core.engine.registry.serve_warm_ms",
            median(&warm).unwrap_or(0.0),
        );
        out.insert(
            "core.engine.registry.prime_ms",
            median(&prime).unwrap_or(0.0),
        );
        out.insert(
            "core.engine.registry.fanout_speedup",
            median(&fanout).unwrap_or(0.0),
        );
        out.insert(
            "core.engine.registry.same_query_slowdown",
            median(&same).unwrap_or(0.0),
        );
    });

    t.span("probe:core.engine.view", || {
        out.insert(
            "core.engine.view.materialize_ms",
            med_secs(reps(3), || prepared.view()) * 1e3,
        );
        let mut view = prepared.view();
        let mut stream = UpdateStream::new(graph, stream_seed + 4);
        for (name, size, batches) in [
            ("core.engine.view.repair_ms.b1", 1usize, 30usize),
            ("core.engine.view.repair_ms.b10", 10, 20),
            ("core.engine.view.repair_ms.b100", 100, 10),
            ("core.engine.view.repair_ms.b1000", 1000, 3),
        ] {
            let value = med_of(reps(batches), || {
                let ops = stream.next_batch(size);
                let start = Instant::now();
                black_box(view.apply_with(&ops, rt)).expect("stream endpoints exist");
                start.elapsed().as_secs_f64() * 1e3
            });
            out.insert(name, value);
        }
        out.insert(
            "core.engine.view.recompute_ms",
            med_secs(reps(3), || {
                Engine::new(view.graph())
                    .prepare(&main)
                    .and_then(|mut q| q.run(ExecOptions::sequential()))
            }) * 1e3,
        );
        // Ten in-edges of the largest hub, deleted and re-inserted in turn.
        let hub = hub_edges(graph);
        let mut view = prepared.view();
        let mut delete = false;
        let value = med_of(reps(10), || {
            delete = !delete;
            let ops: Vec<EdgeOp> = hub
                .iter()
                .map(|&(f, to, l)| {
                    if delete {
                        EdgeOp::delete(f, to, l)
                    } else {
                        EdgeOp::insert(f, to, l)
                    }
                })
                .collect();
            let start = Instant::now();
            black_box(view.apply_with(&ops, rt)).expect("hub endpoints exist");
            start.elapsed().as_secs_f64() * 1e3
        });
        out.insert("core.engine.view.repair_ms_hub.b10", value);
    });

    t.span("probe:rules", || {
        let mining = MiningConfig::default();
        let mut rules = Vec::new();
        out.insert(
            "rules.mining.run_ms",
            med_secs(reps(3), || {
                if let Ok((mined, _)) = mine_qgars_with_report(graph, &mining, rt) {
                    rules = mined;
                }
            }) * 1e3,
        );
        out.insert(
            "rules.evaluate.rule_ms",
            rules.first().map_or(0.0, |r| {
                med_secs(reps(5), || evaluate_rule(graph, &r.rule, &config)) * 1e3
            }),
        );
    });

    t.span("probe:runtime.executor", || {
        // Threads are spawned per call, so an empty map is its fixed cost.
        out.insert(
            "runtime.executor.map_overhead_us",
            med_secs(reps(200), || wide.map(PROBE_THREADS, |_| ())) * 1e6,
        );
        // One decision per focus candidate: the skewed tasks every
        // parallel mode hands the executor — as many passes over the
        // candidates as fill 40 ms, below which the kernel's per-thread CPU
        // accounting reads zero.
        let mut sequential = MatchSession::new(graph, &main, &config);
        let foci: Vec<NodeId> = sequential.focus_candidates().to_vec();
        let one_pass = med_secs(1, || foci.iter().filter(|&&v| sequential.decide(v)).count());
        let passes = ((0.040 / one_pass.max(1e-6)).ceil() as usize).clamp(1, 256);
        let start = Instant::now();
        let outcome = wide.map_with(
            foci.len() * passes,
            || MatchSession::new(graph, &main, &config),
            |session, i| session.decide(foci[i % foci.len()]),
        );
        let wall = start.elapsed();
        black_box(&outcome.outputs);
        let busy = outcome.total_busy();
        out.insert("runtime.executor.busy_ms", ms(busy));
        out.insert(
            "runtime.executor.critical_path_ms",
            ms(outcome.critical_path()),
        );
        out.insert(
            "runtime.executor.idle_share",
            (1.0 - busy.as_secs_f64() / (wide.threads() as f64 * wall.as_secs_f64()).max(1e-12))
                .max(0.0),
        );
        out.insert("runtime.executor.steals", outcome.steals as f64);
    });

    out
}
