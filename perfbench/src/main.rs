//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <traj-1cex|batch-53|dense-burial> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing but outside
//! timers around the public calls; `--trace 1` records spans, replays one
//! staged iteration layer by layer and runs the scaling cross-checks, and
//! reports the per-layer metrics.  Both check the outputs, print every
//! metric with its unit, one provenance record, and as the last line the
//! JSON result; the exit code is non-zero when any check failed.

mod metrics;
mod replay;
mod report;
mod trace;
mod workload;

use lms::decoys::{cluster_decoys, ClusterMetric};
use lms::prelude::{ExecutorConfig, KernelKind, MoscemSampler, RunControls};
use metrics::{derive_per_layer, TraceContext, END_TO_END, PER_LAYER};
use report::{json_number, json_string, median, percentile, result_line, Value};
use std::time::Instant;
use trace::Tracer;
use workload::{
    executor_config, plan, run_unit, set_up, Ledger, Plan, Stack, UnitRun, Workload, THREADS,
};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Empty launches timed per thread count in the traced run.
const EMPTY_LAUNCHES: usize = 200;
/// Batch jobs the traced scaling runs replay one after another.
const SCALING_JOBS: usize = 8;
/// Leader-clustering radius of the traced decoy analysis (Å RMSD).
const CLUSTER_RADIUS: f64 = 1.5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let code = match parse_args().and_then(|args| {
        if args.trace {
            traced(&args)
        } else {
            end_to_end(&args)
        }
    }) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Member-iterations a unit completed.
fn member_iters(stack: &Stack, run: &UnitRun) -> f64 {
    (run.jobs.iter().filter(|j| j.outcome.is_ok()).count()
        * stack.config.population_size
        * stack.config.iterations) as f64
}

fn end_to_end(args: &Args) -> Result<i32, String> {
    let plan = plan(args.workload, args.seed);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous stack first so every set-up starts alike.
        drop(built.take());
        let (stack, phases) = set_up(args.workload)?;
        setup_s.push(phases.total().as_secs_f64());
        built = Some(stack);
    }
    let stack = built.expect("at least one set-up ran");
    let mut ledger = Ledger::default();

    let warm = run_unit(&stack, &plan.units[0]);
    ledger.check_unit(&stack, 0, &warm);
    drop(warm);

    // The plan's units in order from unit 0, whose warm-up digest the
    // first measured run must repeat, until the time is up and every
    // quality unit ran.  Throughputs are medians over units, so a burst of
    // load from outside the process moves them less than a total would.
    let quality_units = args.workload.shape().quality_units;
    let mut member_iters_per_s = Vec::new();
    let mut jobs_per_s = Vec::new();
    let mut latency_ms = Vec::new();
    let start = Instant::now();
    while member_iters_per_s.len() < quality_units || start.elapsed().as_secs_f64() < args.seconds {
        let u = member_iters_per_s.len() % plan.units.len();
        let run = run_unit(&stack, &plan.units[u]);
        let wall = run.wall().as_secs_f64();
        member_iters_per_s.push(member_iters(&stack, &run) / wall);
        jobs_per_s.push(run.jobs.len() as f64 / wall);
        latency_ms.extend(
            run.jobs
                .iter()
                .map(|j| (j.end - j.start).as_secs_f64() * 1e3),
        );
        ledger.check_unit(&stack, u, &run);
    }

    let rss = peak_rss_mb();
    if !rss.is_finite() {
        ledger.record(Some("peak RSS unavailable".to_string()));
    }
    let values = [
        (median(&setup_s), setup_s.len()),
        (median(&member_iters_per_s), member_iters_per_s.len()),
        (median(&jobs_per_s), jobs_per_s.len()),
        (percentile(&latency_ms, 50.0), latency_ms.len()),
        (percentile(&latency_ms, 80.0), latency_ms.len()),
        (ledger.mean_best_rmsd(), ledger.best_rmsd.len()),
        (rss, 1),
    ];
    let metrics: Vec<Value> = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (value, samples))| Value {
            name: m.name,
            unit: m.unit,
            better: m.better,
            value,
            samples,
        })
        .collect();
    finish(args, &stack, ledger, &metrics, None)
}

fn traced(args: &Args) -> Result<i32, String> {
    let plan = plan(args.workload, args.seed);
    let mut tracer = Tracer::new();
    let (stack, phases) = set_up(args.workload)?;
    let setup = tracer.push_interval(
        "setup",
        None,
        (phases.kb_build.0, phases.engine_build.1),
        1,
        &[],
    );
    for (name, interval) in phases.named() {
        tracer.push_interval(name, Some(setup), interval, 1, &[]);
    }
    let mut ledger = Ledger::default();
    let warm = run_unit(&stack, &plan.units[0]);
    ledger.check_unit(&stack, 0, &warm);
    drop(warm);

    // Each unit twice, without and then with spans: the pairs give the
    // tracing overhead, and the second run must repeat the first's digest.
    let mut ctx = TraceContext::default();
    let mut traced_runs = Vec::new();
    let start = Instant::now();
    while traced_runs.is_empty() || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        let u = traced_runs.len() % plan.units.len();
        let plain = run_unit(&stack, &plan.units[u]);
        ctx.untraced_unit_s.push(plain.wall().as_secs_f64());
        ledger.check_unit(&stack, u, &plain);
        drop(plain);
        let run = run_unit(&stack, &plan.units[u]);
        record_unit(&mut tracer, &stack, &run);
        ledger.check_unit(&stack, u, &run);
        traced_runs.push(run);
    }

    // Layer replay of every traced population.
    let replays = tracer.open("bench.replays", None);
    for run in &traced_runs {
        for job in &run.jobs {
            let Ok(t) = &job.outcome else { continue };
            let input = replay::ReplayInput {
                target: &stack.targets[job.input.target],
                kb: &stack.kb,
                config: &stack.config,
                executor: &stack.executor,
                seed: job.input.seed,
                population: &t.population,
            };
            let fault = replay::replay(&mut tracer, replays, &input);
            ledger.record(fault);
        }
    }
    tracer.close(replays, traced_runs.len() as u64, &[]);
    drop(traced_runs);

    empty_launches(&mut tracer, &stack)?;
    scaling(&mut tracer, &stack, &plan, &mut ledger)?;

    let metrics = derive_per_layer(tracer.spans(), &ctx);
    eprintln!("per-layer metric -> end-to-end metric it should move, on workload:");
    for m in PER_LAYER {
        eprintln!("  {:<40} -> {} on {}", m.name, m.moves, m.on);
    }
    let run_id = format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}.jsonl", args.workload.name()));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_jsonl(args.workload.name(), &run_id)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    print_self_times(&tracer);
    finish(args, &stack, ledger, &metrics, Some(&run_id))
}

/// Spans around the public calls one unit made, from its own timestamps.
fn record_unit(tracer: &mut Tracer, stack: &Stack, run: &UnitRun) {
    let workers = stack.workload.shape().workers as f64;
    let unit = tracer.push_interval(
        "workload.unit",
        None,
        (run.start, run.end),
        run.jobs.len() as u64,
        &[("workers", workers)],
    );
    let job_span = if stack.engine.is_some() {
        "core.engine.job"
    } else {
        "core.sampler.run_controlled"
    };
    for job in &run.jobs {
        let host_ms = job
            .outcome
            .as_ref()
            .map_or(0.0, |t| t.host_wall.as_secs_f64() * 1e3);
        let counters = [("host_wall_ms", host_ms), ("retries", job.retries as f64)];
        tracer.push_interval(job_span, Some(unit), (job.start, job.end), 1, &counters);
        let Some(h) = &job.harvest else { continue };
        let kept = [("kept", h.kept as f64)];
        let harvest = "core.decoyset.harvest_into";
        tracer.push_interval(
            harvest,
            Some(unit),
            (h.start, h.end),
            h.offered as u64,
            &kept,
        );
        let t = Instant::now();
        let clusters = cluster_decoys(
            &stack.targets[job.input.target],
            h.set.decoys(),
            ClusterMetric::RmsdAngstrom,
            CLUSTER_RADIUS,
        );
        // Analysis after the unit: a span of its own, outside the unit's.
        let span = (t, Instant::now());
        tracer.push_interval(
            "decoys.cluster_decoys",
            None,
            span,
            clusters.len() as u64,
            &[],
        );
    }
}

/// Empty population-wide launches on 2 threads and on 1.
fn empty_launches(tracer: &mut Tracer, stack: &Stack) -> Result<(), String> {
    let lanes = stack.config.population_size;
    for threads in [THREADS, 1] {
        let executor = executor_config(threads)
            .build()
            .map_err(|e| format!("executor: {e}"))?;
        for _ in 0..EMPTY_LAUNCHES {
            let t = Instant::now();
            let _ = executor.launch(KernelKind::Ccd, lanes, |i| {
                std::hint::black_box(i);
            });
            let span = (t, Instant::now());
            let threads = [("threads", threads as f64)];
            tracer.push_interval(
                "simt.executor.empty_launch",
                None,
                span,
                lanes as u64,
                &threads,
            );
        }
    }
    Ok(())
}

/// The workload's first unit (its first jobs, for the batch) on simd × 2,
/// simd × 1 and scalar × 1: throughput for the scaling ratios, and the
/// bit-identity cross-check against the digests the workload produced.
fn scaling(
    tracer: &mut Tracer,
    stack: &Stack,
    plan: &Plan,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let jobs = &plan.units[0][..plan.units[0].len().min(SCALING_JOBS)];
    let variants = [
        ("simt.scaling.simd_x2", executor_config(THREADS)),
        ("simt.scaling.simd_x1", executor_config(1)),
        (
            "simt.scaling.scalar_x1",
            ExecutorConfig::scalar().ccd_block_width(workload::BLOCK_WIDTH),
        ),
    ];
    for (name, config) in variants {
        let executor = config.build().map_err(|e| format!("executor: {e}"))?;
        let samplers: Vec<MoscemSampler> = jobs
            .iter()
            .map(|j| {
                MoscemSampler::try_new(
                    stack.targets[j.target].clone(),
                    std::sync::Arc::clone(&stack.kb),
                    stack.config.clone(),
                )
                .map_err(|e| format!("sampler: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let span = tracer.open(name, None);
        let mut work = 0u64;
        let mut outcomes = Vec::with_capacity(jobs.len());
        for (sampler, job) in samplers.iter().zip(jobs) {
            let out = sampler.run_controlled(&executor, job.seed, &RunControls::new());
            if out.is_ok() {
                work += (stack.config.population_size * stack.config.iterations) as u64;
            }
            outcomes.push(out);
        }
        tracer.close(span, work, &[("threads", executor.thread_count() as f64)]);
        for (job, out) in jobs.iter().zip(outcomes) {
            let fault = match out {
                Ok(t) => ledger
                    .check_digest(0, job.target, workload::digest(&t.population), name)
                    .err(),
                Err(e) => Some(format!("{name}: {e}")),
            };
            ledger.record(fault);
        }
    }
    Ok(())
}

/// Self time per span name, to stderr.
fn print_self_times(tracer: &Tracer) {
    let selfs = trace::self_times_ns(tracer.spans());
    let mut by_name: std::collections::BTreeMap<&str, (u64, usize)> = Default::default();
    for (s, ns) in tracer.spans().iter().zip(selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0 += ns;
        e.1 += 1;
    }
    eprintln!("self time by span:");
    for (name, (ns, n)) in by_name {
        eprintln!("  {name:<40} {:>12.3} ms  ({n} spans)", ns as f64 / 1e6);
    }
}

/// Peak resident memory of this process (Linux `VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_string()
        } else {
            head.to_string()
        };
    };
    std::fs::read_to_string(git.join(reference))
        .ok()
        .or_else(|| {
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l.split(' ').next().unwrap_or_default().to_string())
        })
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Print the metrics, the provenance record and the result line.
fn finish(
    args: &Args,
    stack: &Stack,
    mut ledger: Ledger,
    metrics: &[Value],
    run_id: Option<&str>,
) -> Result<i32, String> {
    for m in metrics {
        let fault = (!m.value.is_finite()).then(|| format!("{} is not finite", m.name));
        ledger.record(fault);
    }
    let caps = stack.executor.capabilities();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    for f in &ledger.faults {
        eprintln!("check failed: {f}");
    }
    println!(
        "{} seed {} ({}) on {} x{} [{}], block width {}, nproc {}",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        caps.name,
        caps.threads,
        caps.isa,
        caps.ccd_block_width,
        nproc
    );
    for m in metrics {
        println!(
            "  {:<40} {:>16.6} {:<9} ({} samples, {} is better)",
            m.name, m.value, m.unit, m.samples, m.better
        );
    }
    let failed_ratio = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    println!(
        "  {:<40} {:>16.6} {:<9} ({} checked)",
        "failed_ratio", failed_ratio, "1", ledger.attempted
    );
    let record_metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit),
                m.samples
            )
        })
        .collect();
    println!(
        "{{\"record\":{{\"workload\":{},\"seed\":{},\"trace\":{},\"run\":{},\
         \"provenance\":{{\"backend\":{},\"executor\":{},\"isa\":{},\"lane_width\":{},\
         \"threads\":{},\"ccd_block_width\":{},\"concurrent_jobs\":{},\"nproc\":{},\"commit\":{},\
         \"features\":[\"simd\"]}},\
         \"digest\":\"{:016x}\",\"failed_ratio\":{},\"metrics\":{{{}}}}}}}",
        json_string(args.workload.name()),
        args.seed,
        args.trace,
        run_id.map_or("null".to_string(), json_string),
        json_string(caps.backend.name()),
        json_string(caps.name),
        json_string(caps.isa),
        caps.lane_width,
        caps.threads,
        caps.ccd_block_width,
        args.workload.shape().workers,
        nproc,
        json_string(&commit()),
        ledger.combined_digest(),
        json_number(failed_ratio),
        record_metrics.join(",")
    );
    println!("{}", result_line(ledger.attempted, ledger.failed, metrics));
    Ok(if ledger.failed == 0 { 0 } else { 1 })
}
