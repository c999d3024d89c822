//! Cost of the telemetry layer around the algorithm driver.
//!
//! Three points per tree size: the plain interval (telemetry off — the
//! baseline every other bench measures), the audited interval draining
//! into a memory sink (decision records + stage timers), and the audited
//! interval serialized to JSONL (what `QUICKSTART_TELEMETRY` pays). The
//! first two bracket the "zero when disabled / bounded when enabled"
//! claim of DESIGN.md §10; `CRITERION_JSON` folds the medians into the
//! same `BENCH_*.json` report as the stage benches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use telemetry::{IntervalAudit, Telemetry};
use toposense::algorithm::{AlgorithmInputs, AlgorithmState};
use toposense::Config;
use toposense_bench::{balanced_session_tree, registry_for_leaves, reports_for_leaves};
use traffic::LayerSpec;

/// Tree sizes: fanout 4 with depths 2..4 = 16, 64, 256 leaves.
const DEPTHS: [usize; 3] = [2, 3, 4];

fn inputs_for<'a>(
    t: u64,
    trees: &'a [topology::SessionTree],
    specs: &'a [&'a LayerSpec],
    registry: &'a [(netsim::AppId, netsim::NodeId, netsim::SessionId)],
    reports: &'a [toposense::algorithm::ReceiverReport],
) -> AlgorithmInputs<'a> {
    AlgorithmInputs {
        now: netsim::SimTime::from_secs(t),
        interval: netsim::SimDuration::from_secs(2),
        trees,
        specs,
        registry,
        reports,
    }
}

fn bench_audited_interval(c: &mut Criterion) {
    let spec = LayerSpec::paper_default();
    for (mode, audited, sink) in
        [("off", false, false), ("memory_sink", true, true), ("jsonl_encode", true, false)]
    {
        let mut g = c.benchmark_group(format!("telemetry_{mode}"));
        for depth in DEPTHS {
            let (tree, leaves) = balanced_session_tree(0, 4, depth);
            let reports = reports_for_leaves(0, &leaves, 3, 4);
            let registry = registry_for_leaves(0, &leaves);
            let trees = vec![tree];
            let specs = vec![&spec];
            g.bench_with_input(BenchmarkId::from_parameter(leaves.len()), &depth, |b, _| {
                let mut state = AlgorithmState::new(Config::default(), 1);
                let (tel, _store) = Telemetry::memory();
                let mut t = 0u64;
                b.iter(|| {
                    t += 2;
                    let inputs = inputs_for(t, &trees, &specs, &registry, &reports);
                    if !audited {
                        return black_box(state.run_incremental(&inputs)).suggestions.len();
                    }
                    let mut audit = IntervalAudit::new(t / 2, t * 1_000_000_000);
                    let out = state.run_incremental_audited(&inputs, Some(&mut audit));
                    if sink {
                        for record in audit.records() {
                            tel.emit(&record);
                        }
                    } else {
                        let bytes: usize = audit.records().iter().map(|r| r.to_jsonl().len()).sum();
                        black_box(bytes);
                    }
                    black_box(out).suggestions.len()
                });
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_audited_interval);
criterion_main!(benches);
