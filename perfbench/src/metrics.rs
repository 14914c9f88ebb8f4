//! The metric catalogue and the per-layer metrics derived from spans.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units and
//! directions; a test keeps the two in step.  Each per-layer metric names
//! the end-to-end metric it should move and the workload it moves it on.

use crate::report::{mean, median, Value};
use crate::trace::{self_times_ns, Span};
use lms::closure::CcdResult;
use std::collections::BTreeMap;

/// An end-to-end metric: what a user of the sampler sees.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Every workload reports all of them.  A job is one engine job on
/// batch-53 and one trajectory call on the trajectory workloads, so
/// `jobs_per_s` counts finished trajectories there and the latencies are
/// call durations.  `best_rmsd_a` averages the fixed quality units only,
/// which makes it a pure function of the seed.
#[rustfmt::skip]
pub const END_TO_END: [Metric; 7] = [
    Metric { name: "setup_s", unit: "s", better: "lower" },
    Metric { name: "member_iters_per_s", unit: "1/s", better: "higher" },
    Metric { name: "jobs_per_s", unit: "1/s", better: "higher" },
    Metric { name: "job_latency_ms_p50", unit: "ms", better: "lower" },
    Metric { name: "job_latency_ms_p80", unit: "ms", better: "lower" },
    Metric { name: "best_rmsd_a", unit: "angstrom", better: "lower" },
    Metric { name: "peak_rss_mb", unit: "MB", better: "lower" },
];

/// A per-layer metric, with the end-to-end metric it should move and the
/// workload where that shows first.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
        on,
    }
}

#[rustfmt::skip]
pub const PER_LAYER: [LayerMetric; 29] = [
    layer("closure.batch.ns_per_closure", "ns", "lower", "member_iters_per_s", "traj-1cex"),
    layer("closure.batch.lane_utilization", "ratio", "higher", "member_iters_per_s", "traj-1cex"),
    layer("closure.batch.sweeps_mean", "count", "lower", "work count", "traj-1cex"),
    layer("closure.batch.rotations_mean", "count", "lower", "work count", "traj-1cex"),
    layer("closure.batch.non_converged_ratio", "ratio", "lower", "best_rmsd_a", "all"),
    layer("protein.backbone.build_ns", "ns", "lower", "member_iters_per_s", "traj-1cex"),
    layer("protein.environment.candidates_per_site", "count", "lower", "member_iters_per_s", "dense-burial"),
    layer("protein.environment.gather_ns", "ns", "lower", "member_iters_per_s", "dense-burial"),
    layer("scoring.vdw_pass_ns", "ns", "lower", "member_iters_per_s", "dense-burial"),
    layer("scoring.dist_pass_ns", "ns", "lower", "member_iters_per_s", "dense-burial"),
    layer("scoring.triplet_pass_ns", "ns", "lower", "member_iters_per_s", "dense-burial"),
    layer("core.mutation.mutate_ns", "ns", "lower", "member_iters_per_s", "traj-1cex"),
    layer("core.pareto.fitness_us", "us", "lower", "member_iters_per_s", "traj-1cex"),
    layer("simt.executor.launch_overhead_us", "us", "lower", "member_iters_per_s", "traj-1cex"),
    layer("simt.executor.launch_overhead_1t_us", "us", "lower", "member_iters_per_s", "traj-1cex"),
    layer("simt.executor.imbalance", "ratio", "lower", "member_iters_per_s", "traj-1cex"),
    layer("simt.thread_scaling", "ratio", "higher", "member_iters_per_s", "traj-1cex"),
    layer("simt.lane_speedup", "ratio", "higher", "member_iters_per_s", "traj-1cex"),
    layer("core.engine.queue_wait_ms_p50", "ms", "lower", "job_latency_ms_p50", "batch-53"),
    layer("core.engine.worker_busy_ratio", "ratio", "higher", "jobs_per_s", "batch-53"),
    layer("core.engine.retries", "count", "lower", "failed_ratio", "batch-53"),
    layer("core.decoyset.harvest_us", "us", "lower", "jobs_per_s", "batch-53"),
    layer("core.decoyset.kept_ratio", "ratio", "higher", "jobs_per_s", "batch-53"),
    layer("decoys.cluster_ms", "ms", "lower", "analysis cost", "batch-53"),
    layer("setup.kb_build_ms", "ms", "lower", "setup_s", "all"),
    layer("setup.targets_ms", "ms", "lower", "setup_s", "all"),
    layer("setup.env_scale_ms", "ms", "lower", "setup_s", "all"),
    layer("setup.engine_build_ms", "ms", "lower", "setup_s", "all"),
    layer("bench.tracing_overhead", "ratio", "lower", "none (measurement cost)", "all"),
];

/// Closure work of one lockstep CCD block, from `CcdBatchScratch::results()`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockSweeps {
    /// Lanes the block has (the executor's CCD block width).
    pub width: usize,
    /// Lanes that held a member.
    pub lanes: usize,
    /// Σ sweeps over the lanes.
    pub sweeps: usize,
    /// Sweeps the block ran: the slowest lane's.
    pub max_sweeps: usize,
    pub rotations: usize,
    pub unconverged: usize,
}

impl BlockSweeps {
    pub fn from_results(width: usize, results: &[CcdResult]) -> BlockSweeps {
        BlockSweeps {
            width,
            lanes: results.len(),
            sweeps: results.iter().map(|r| r.sweeps).sum(),
            max_sweeps: results.iter().map(|r| r.sweeps).max().unwrap_or(0),
            rotations: results.iter().map(|r| r.rotations_applied).sum(),
            unconverged: results.iter().filter(|r| !r.converged).count(),
        }
    }

    /// The counters a block span carries.
    pub fn counters(&self) -> [(&'static str, f64); 5] {
        [
            ("width", self.width as f64),
            ("sweeps", self.sweeps as f64),
            ("max_sweeps", self.max_sweeps as f64),
            ("rotations", self.rotations as f64),
            ("unconverged", self.unconverged as f64),
        ]
    }

    fn from_span(span: &Span) -> BlockSweeps {
        let c = |k| span.counter(k).unwrap_or(0.0) as usize;
        BlockSweeps {
            width: c("width"),
            lanes: span.count as usize,
            sweeps: c("sweeps"),
            max_sweeps: c("max_sweeps"),
            rotations: c("rotations"),
            unconverged: c("unconverged"),
        }
    }
}

/// Σ lane sweeps ÷ Σ (width × block max sweeps): the share of lockstep
/// lane-sweeps that did work rather than wait masked for the block's
/// slowest lane.  Blocks that needed no sweep at all contribute nothing;
/// with no sweep anywhere the answer is 1 (no lane waited).
pub fn lane_utilization(blocks: &[BlockSweeps]) -> f64 {
    let used: usize = blocks.iter().map(|b| b.sweeps).sum();
    let offered: usize = blocks.iter().map(|b| b.width * b.max_sweeps).sum();
    if offered == 0 {
        1.0
    } else {
        used as f64 / offered as f64
    }
}

/// max ÷ mean of per-thread busy time.  1 is perfect balance; a thread
/// that got no work counts as 0 busy.
pub fn imbalance(busy: &[f64]) -> f64 {
    let m = mean(busy);
    if busy.is_empty() || m <= 0.0 {
        return 1.0;
    }
    busy.iter().copied().fold(0.0, f64::max) / m
}

/// Inputs to the per-layer metrics that are not spans.
#[derive(Debug, Clone, Default)]
pub struct TraceContext {
    /// Wall time of each untraced unit (same work as the traced units).
    pub untraced_unit_s: Vec<f64>,
}

/// Derive every per-layer metric of [`PER_LAYER`] from the recorded spans.
pub fn derive_per_layer(spans: &[Span], ctx: &TraceContext) -> Vec<Value> {
    let selfs = self_times_ns(spans);
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_name.entry(s.name).or_default().push(i);
    }
    let ids = |name: &str| by_name.get(name).cloned().unwrap_or_default();
    // Σ self ns ÷ Σ count over the spans named `name`.
    let ns_per_item = |name: &str| {
        let ids = ids(name);
        let ns: u64 = ids.iter().map(|&i| selfs[i]).sum();
        let n: u64 = ids.iter().map(|&i| spans[i].count).sum();
        (ns as f64 / n as f64, n as usize)
    };
    // Mean self time per span, in ns.
    let ns_per_span = |name: &str| {
        let ids = ids(name);
        let v: Vec<f64> = ids.iter().map(|&i| selfs[i] as f64).collect();
        (mean(&v), ids.len())
    };
    let sum_counter = |name: &str, key: &str| -> f64 {
        ids(name)
            .iter()
            .filter_map(|&i| spans[i].counter(key))
            .sum()
    };
    let sum_count = |name: &str| -> f64 { ids(name).iter().map(|&i| spans[i].count as f64).sum() };

    let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();

    // closure.batch — lockstep CCD blocks of the replay.
    let blocks: Vec<BlockSweeps> = ids("closure.batch.close_batch")
        .iter()
        .map(|&i| BlockSweeps::from_span(&spans[i]))
        .collect();
    let closures: usize = blocks.iter().map(|b| b.lanes).sum();
    let per_closure =
        |f: fn(&BlockSweeps) -> usize| blocks.iter().map(f).sum::<usize>() as f64 / closures as f64;
    out.insert(
        "closure.batch.ns_per_closure",
        ns_per_item("closure.batch.close_batch"),
    );
    out.insert(
        "closure.batch.lane_utilization",
        (lane_utilization(&blocks), blocks.len()),
    );
    out.insert(
        "closure.batch.sweeps_mean",
        (per_closure(|b| b.sweeps), closures),
    );
    out.insert(
        "closure.batch.rotations_mean",
        (per_closure(|b| b.rotations), closures),
    );
    out.insert(
        "closure.batch.non_converged_ratio",
        (per_closure(|b| b.unconverged), closures),
    );

    // protein — backbone build and environment gathers of the replay.
    out.insert(
        "protein.backbone.build_ns",
        ns_per_item("protein.backbone.build_into"),
    );
    let gathers = "protein.environment.gather_within";
    out.insert(
        "protein.environment.candidates_per_site",
        (
            sum_counter(gathers, "candidates") / sum_count(gathers),
            sum_count(gathers) as usize,
        ),
    );
    out.insert("protein.environment.gather_ns", ns_per_item(gathers));

    // scoring — the staged passes of the replay.
    out.insert("scoring.vdw_pass_ns", ns_per_item("scoring.vdw_pass"));
    out.insert("scoring.dist_pass_ns", ns_per_item("scoring.dist_pass"));
    out.insert(
        "scoring.triplet_pass_ns",
        ns_per_item("scoring.triplet_pass"),
    );

    // core — mutation and Pareto fitness of the replay.
    out.insert(
        "core.mutation.mutate_ns",
        ns_per_item("core.mutation.mutate_into"),
    );
    let (fit, n) = ns_per_span("core.pareto.fitness_assignment");
    out.insert("core.pareto.fitness_us", (fit / 1e3, n));

    // simt — empty launches, the replay's close launches, scaling runs.
    for (metric, threads) in [
        ("simt.executor.launch_overhead_us", 2.0),
        ("simt.executor.launch_overhead_1t_us", 1.0),
    ] {
        let v: Vec<f64> = ids("simt.executor.empty_launch")
            .iter()
            .filter(|&&i| spans[i].counter("threads") == Some(threads))
            .map(|&i| spans[i].duration_ns() as f64 / 1e3)
            .collect();
        out.insert(metric, (median(&v), v.len()));
    }
    let launches = ids("simt.executor.launch");
    let per_launch: Vec<f64> = launches
        .iter()
        .map(|&l| {
            let threads = spans[l].counter("threads").unwrap_or(1.0) as usize;
            let mut busy: BTreeMap<u64, f64> = BTreeMap::new();
            for s in spans.iter().filter(|s| s.parent == Some(l)) {
                *busy.entry(s.thread).or_default() += s.duration_ns() as f64;
            }
            let mut v: Vec<f64> = busy.into_values().collect();
            v.resize(v.len().max(threads), 0.0);
            imbalance(&v)
        })
        .collect();
    out.insert(
        "simt.executor.imbalance",
        (mean(&per_launch), per_launch.len()),
    );
    let throughput = |name: &str| {
        let ids = ids(name);
        let work: f64 = ids.iter().map(|&i| spans[i].count as f64).sum();
        let ns: f64 = ids.iter().map(|&i| spans[i].duration_ns() as f64).sum();
        work / ns
    };
    let scaling_runs = ids("simt.scaling.simd_x2").len()
        + ids("simt.scaling.simd_x1").len()
        + ids("simt.scaling.scalar_x1").len();
    out.insert(
        "simt.thread_scaling",
        (
            throughput("simt.scaling.simd_x2") / throughput("simt.scaling.simd_x1"),
            scaling_runs,
        ),
    );
    out.insert(
        "simt.lane_speedup",
        (
            throughput("simt.scaling.simd_x1") / throughput("simt.scaling.scalar_x1"),
            scaling_runs,
        ),
    );

    // core.engine — every job span carries the job's own host_wall.  On
    // the trajectory workloads a job is a direct call on one worker, so
    // its "queue wait" is the call's time outside the trajectory's own
    // clock (arena set-up and result assembly).
    let jobs: Vec<usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.counter("host_wall_ms").is_some())
        .map(|(i, _)| i)
        .collect();
    let waits: Vec<f64> = jobs
        .iter()
        .map(|&i| {
            spans[i].duration_ns() as f64 / 1e6 - spans[i].counter("host_wall_ms").unwrap_or(0.0)
        })
        .collect();
    out.insert(
        "core.engine.queue_wait_ms_p50",
        (median(&waits), waits.len()),
    );
    let host_ms: f64 = jobs
        .iter()
        .filter_map(|&i| spans[i].counter("host_wall_ms"))
        .sum();
    let capacity_ms: f64 = ids("workload.unit")
        .iter()
        .map(|&i| spans[i].duration_ns() as f64 / 1e6 * spans[i].counter("workers").unwrap_or(1.0))
        .sum();
    out.insert(
        "core.engine.worker_busy_ratio",
        (host_ms / capacity_ms, jobs.len()),
    );
    let retries: f64 = jobs
        .iter()
        .filter_map(|&i| spans[i].counter("retries"))
        .sum();
    out.insert("core.engine.retries", (retries, jobs.len()));

    // core.decoyset / decoys — harvest and cluster every traced result.
    let harvest = "core.decoyset.harvest_into";
    let (h, n) = ns_per_span(harvest);
    out.insert("core.decoyset.harvest_us", (h / 1e3, n));
    out.insert(
        "core.decoyset.kept_ratio",
        (sum_counter(harvest, "kept") / sum_count(harvest), n),
    );
    let (c, n) = ns_per_span("decoys.cluster_decoys");
    out.insert("decoys.cluster_ms", (c / 1e6, n));

    // setup — one traced set-up.
    for (metric, span) in [
        ("setup.kb_build_ms", "setup.kb_build"),
        ("setup.targets_ms", "setup.targets"),
        ("setup.env_scale_ms", "setup.env_scale"),
        ("setup.engine_build_ms", "setup.engine_build"),
    ] {
        let (v, n) = ns_per_span(span);
        out.insert(metric, (v / 1e6, n));
    }

    // bench — the cost of tracing itself.
    let traced: Vec<f64> = ids("workload.unit")
        .iter()
        .map(|&i| spans[i].duration_ns() as f64 / 1e9)
        .collect();
    out.insert(
        "bench.tracing_overhead",
        (median(&traced) / median(&ctx.untraced_unit_s), traced.len()),
    );

    PER_LAYER
        .iter()
        .map(|m| {
            let (value, samples) = out.get(m.name).copied().unwrap_or((f64::NAN, 0));
            Value {
                name: m.name,
                unit: m.unit,
                better: m.better,
                value,
                samples,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ccd(sweeps: usize, converged: bool) -> CcdResult {
        CcdResult {
            converged,
            sweeps,
            initial_deviation: 3.0,
            final_deviation: if converged { 0.1 } else { 1.0 },
            rotations_applied: sweeps * 2,
        }
    }

    #[test]
    fn lane_utilization_counts_masked_lane_sweeps_as_idle() {
        // Width 4, full block: sweeps 1+2+3+6 = 12 of 4 × 6 = 24 offered.
        let full = BlockSweeps::from_results(
            4,
            &[ccd(1, true), ccd(2, true), ccd(3, true), ccd(6, false)],
        );
        assert_eq!(full.lanes, 4);
        assert_eq!(full.max_sweeps, 6);
        assert_eq!(full.rotations, 24);
        assert_eq!(full.unconverged, 1);
        assert_eq!(lane_utilization(&[full]), 0.5);
        // A ragged block of width 4 with 2 lanes: 2+2 of 4 × 2 offered.
        let ragged = BlockSweeps::from_results(4, &[ccd(2, true), ccd(2, true)]);
        assert_eq!(lane_utilization(&[ragged]), 0.5);
        // Aggregation weights blocks by offered lane-sweeps, not per block.
        assert!((lane_utilization(&[full, ragged]) - 16.0 / 32.0).abs() < 1e-12);
        let even = BlockSweeps::from_results(2, &[ccd(3, true), ccd(3, true)]);
        assert!((lane_utilization(&[full, even]) - 18.0 / 30.0).abs() < 1e-12);
        // Lanes converged before any sweep leave nothing idle.
        let none = BlockSweeps::from_results(8, &[ccd(0, true); 8]);
        assert_eq!(lane_utilization(&[none]), 1.0);
    }

    #[test]
    fn block_counters_round_trip_through_a_span() {
        let b = BlockSweeps::from_results(8, &[ccd(2, true), ccd(5, false), ccd(4, true)]);
        let span = Span {
            name: "closure.batch.close_batch",
            parent: None,
            thread: 0,
            start_ns: 0,
            end_ns: 10,
            count: b.lanes as u64,
            counters: b.counters().to_vec(),
        };
        assert_eq!(BlockSweeps::from_span(&span), b);
    }

    #[test]
    fn imbalance_is_max_over_mean_busy_time() {
        assert_eq!(imbalance(&[3.0, 1.0]), 1.5);
        assert_eq!(imbalance(&[2.0, 2.0]), 1.0);
        // An idle thread doubles the imbalance of two threads.
        assert_eq!(imbalance(&[4.0, 0.0]), 2.0);
        assert_eq!(imbalance(&[5.0]), 1.0);
        assert_eq!(imbalance(&[]), 1.0);
    }

    #[test]
    fn imbalance_from_spans_pads_idle_threads() {
        let mut spans = vec![Span {
            name: "simt.executor.launch",
            parent: None,
            thread: 0,
            start_ns: 0,
            end_ns: 100,
            count: 2,
            counters: vec![("threads", 2.0)],
        }];
        for (thread, (a, b)) in [(7, (0, 30)), (7, (30, 90))] {
            spans.push(Span {
                name: "closure.batch.close_batch",
                parent: Some(0),
                thread,
                start_ns: a,
                end_ns: b,
                count: 8,
                counters: BlockSweeps::from_results(8, &[ccd(1, true); 8])
                    .counters()
                    .to_vec(),
            });
        }
        let values = derive_per_layer(&spans, &TraceContext::default());
        let get = |n: &str| values.iter().find(|v| v.name == n).unwrap().value;
        // One thread did all 90 ns, the other none: max 90 / mean 45.
        assert_eq!(get("simt.executor.imbalance"), 2.0);
        assert_eq!(get("closure.batch.lane_utilization"), 1.0);
        assert_eq!(get("closure.batch.sweeps_mean"), 1.0);
        assert_eq!(get("closure.batch.ns_per_closure"), 90.0 / 16.0);
    }

    /// `(name, unit, better)` of every metric line of one section of the
    /// committed BENCHMARK.json (one JSON object per line).
    fn manifest_section(section: &str) -> Vec<(String, String, String)> {
        let manifest = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let start = manifest
            .find(&format!("\"{section}\""))
            .expect("section present");
        let end = manifest[start..].find(']').expect("section closes") + start;
        let field = |line: &str, key: &str| {
            let at = line.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
            line[at..at + line[at..].find('"').expect("string closes")].to_string()
        };
        manifest[start..end]
            .lines()
            .filter(|l| l.contains("\"name\""))
            .map(|l| (field(l, "name"), field(l, "unit"), field(l, "better")))
            .collect()
    }

    #[test]
    fn printed_metrics_match_the_manifest() {
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(manifest_section("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(manifest_section("per_layer"), layers);
        // Every derived value is one the manifest lists, in order.
        let derived: Vec<_> = derive_per_layer(&[], &TraceContext::default())
            .into_iter()
            .map(|v| v.name.to_string())
            .collect();
        let listed: Vec<_> = layers.into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(derived, listed);
    }

    #[test]
    fn workload_names_match_the_manifest() {
        let manifest = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let names: Vec<&str> = manifest
            .lines()
            .filter(|l| l.contains("\"why\""))
            .map(|l| l.split('"').nth(3).expect("a name string"))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }
}
