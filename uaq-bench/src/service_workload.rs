//! The three service workloads: set-up, the saturation and paced phases
//! against one started `PredictionService`, the full-execution probe, and
//! — in a traced run — the per-layer extras.

use crate::inputs::{self, ServiceShape};
use crate::report::{Counts, WorkloadResult};
use crate::service_load::{closed_loop, open_loop, ClosedLoop, OpenLoop, Stream, IN_FLIGHT};
use crate::setup::{
    calibrated_predictor, ms_since, repeat_set_up, timed_full_exec, timed_sample_pass, Reference,
    StepTimes, SAMPLING_RATIO,
};
use crate::summary::{median, percentile, sorted, Measured};
use crate::trace_run::{self, Item};
use crate::RunOptions;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use uaq_core::Predictor;
use uaq_datagen::DbPreset;
use uaq_engine::{plan_query, Plan};
use uaq_service::{
    AdmissionPolicy, CacheConfig, CacheStats, PredictionService, ServiceConfig, ShardedWorkQueue,
};
use uaq_stats::Rng;
use uaq_storage::{Catalog, SampleCatalog};

const SEGMENTS: usize = 5;
/// Share of `--seconds` spent in the saturation phase; the paced phase
/// takes the rest.
const SAT_SHARE: f64 = 0.45;
/// Repetitions of the full-execution probe.
const PROBE_REPS: usize = 5;
/// How often the paced phase is measured before an invalid run is refused.
const PACED_ATTEMPTS: usize = 3;

/// Everything set-up builds, with what each step cost. Dropping it shuts
/// the service down.
struct Setup {
    catalog: Arc<Catalog>,
    samples: Arc<SampleCatalog>,
    predictor: Predictor,
    pool: Vec<Arc<Plan>>,
    /// Pool positions of the MICRO grid, the full-execution probe.
    micro: Vec<usize>,
    refs: Vec<Reference>,
    service: PredictionService,
    cache: CacheConfig,
    warm_counts: Counts,
    seconds: f64,
    steps: StepTimes,
    predict_uncached_us: f64,
}

/// Worker threads: one core is the generator's.
pub fn workers_for(cores: usize) -> usize {
    cores.min(4).saturating_sub(1).max(1)
}

fn service_config(shape: &ServiceShape, workers: usize, record_spans: bool) -> ServiceConfig {
    let mut cache = CacheConfig::default();
    if let Some(max) = shape.max_sel_entries {
        cache.max_sel_entries = max;
    }
    ServiceConfig {
        workers,
        cache,
        record_spans,
        ..ServiceConfig::default()
    }
}

/// One pass over the pool through the service, so that both cache levels
/// hold whatever the workload's capacity lets them hold.
fn warm_pass(service: &PredictionService, pool: &[Arc<Plan>], refs: &[Reference]) -> Counts {
    let picks: Vec<u32> = (0..pool.len() as u32).collect();
    let slacks = vec![1.0f32; pool.len()];
    let stream = Stream {
        service,
        pool,
        refs,
        picks: &picks,
        slacks: &slacks,
    };
    closed_loop(&stream, 1, 0).tally.counts
}

fn set_up(shape: &ServiceShape, seed: u64, workers: usize) -> Setup {
    let start = Instant::now();
    let mut rng = Rng::new(seed);
    let mut steps = StepTimes::default();

    let t = Instant::now();
    let catalog = DbPreset::Uniform1G.build(rng.next_u64());
    steps.datagen_ms = ms_since(t);

    let predictor = calibrated_predictor(&mut rng.fork(), &mut steps);

    let t = Instant::now();
    let samples = catalog.draw_samples(SAMPLING_RATIO, 2, &mut rng.fork());
    steps.draw_samples_ms = ms_since(t);

    let t = Instant::now();
    let specs = inputs::pool_specs(
        &catalog,
        shape.seljoin_per_template,
        shape.tpch_per_template,
        &mut rng.fork(),
    );
    steps.pool_gen_ms = ms_since(t);

    let t = Instant::now();
    let pool: Vec<Arc<Plan>> = specs
        .iter()
        .map(|spec| Arc::new(plan_query(spec, &catalog)))
        .collect();
    steps.plan_ms = ms_since(t);
    steps.plans = pool.len();
    let micro = (0..specs.len())
        .filter(|&i| specs[i].name.starts_with("micro-"))
        .collect();

    let t = Instant::now();
    let refs: Vec<Reference> = pool
        .iter()
        .map(|plan| Reference::of(&predictor, plan, &catalog, &samples))
        .collect();
    let predict_uncached_us = ms_since(t) * 1e3 / pool.len() as f64;

    let (catalog, samples) = (Arc::new(catalog), Arc::new(samples));
    let config = service_config(shape, workers, false);
    let cache = config.cache;
    let service = PredictionService::start(
        predictor.clone(),
        Arc::clone(&catalog),
        Arc::clone(&samples),
        config,
    );
    let warm_counts = warm_pass(&service, &pool, &refs);

    Setup {
        catalog,
        samples,
        predictor,
        pool,
        micro,
        refs,
        service,
        cache,
        warm_counts,
        seconds: start.elapsed().as_secs_f64(),
        steps,
        predict_uncached_us,
    }
}

/// Requests of a phase: the nominal rate times the phase's share of the
/// run, rounded to whole segments so every segment has the same count.
fn phase_count(rate_rps: f64, seconds: f64) -> usize {
    let n = (rate_rps * seconds) as usize;
    (n / SEGMENTS).max(IN_FLIGHT) * SEGMENTS
}

fn us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&x| x as f64 / 1e3).collect()
}

/// Per-segment percentile of request-ordered samples, for the spread.
fn segment_percentiles(samples_us: &[f64], q: f64) -> Vec<f64> {
    samples_us
        .chunks(samples_us.len() / SEGMENTS)
        .take(SEGMENTS)
        .map(|chunk| percentile(&sorted(chunk.to_vec()), q))
        .collect()
}

/// The paced phase, with the validity rule: a generator that ran late or a
/// backlog that had not drained means the box was disturbed (or the service
/// is saturated). Such a run is not reported; the phase is measured again,
/// and refused the third time. The cache statistics returned are those
/// after the first attempt, whose request sequence is the one the seed
/// fixes.
fn paced_phase(
    workload: &str,
    stream: &Stream<'_>,
    due_ns: &[u64],
    problems: &mut Vec<String>,
) -> (OpenLoop, f64, CacheStats) {
    let mut cache_stats = None;
    for attempt in 1.. {
        let paced = open_loop(stream, due_ns);
        let stats = *cache_stats.get_or_insert_with(|| stream.service.cache_stats());
        let late_p99 = percentile(&sorted(us(&paced.late_ns)), 0.99);
        let invalid = if paced.timed_out {
            Some("the paced phase lost responses".to_string())
        } else if late_p99 > 100.0 {
            Some(format!(
                "the generator ran late (p99 {late_p99:.1} us > 100 us)"
            ))
        } else if paced.drain.as_secs_f64() > 0.05 * paced.elapsed.as_secs_f64() {
            Some(format!(
                "the backlog was still growing at the end of the paced phase (drained for {:?})",
                paced.drain
            ))
        } else {
            None
        };
        match invalid {
            Some(why) if attempt < PACED_ATTEMPTS && !paced.timed_out => {
                eprintln!("{workload}: invalid paced phase, measuring it again: {why}");
            }
            Some(why) => {
                problems.push(format!("{workload}: invalid run, {why}"));
                return (paced, late_p99, stats);
            }
            None => return (paced, late_p99, stats),
        }
    }
    unreachable!("the loop returns by the last attempt")
}

/// What the untraced part of a run measured, kept for the per-layer pass.
struct Phases<'a> {
    sat_picks: &'a [u32],
    sat_slacks: &'a [f32],
    /// Requests of the traced pass: the head of the saturation phase.
    trace_n: usize,
    sat: ClosedLoop,
    paced: OpenLoop,
    late_p99: f64,
    cache_stats: CacheStats,
    latency_us: Vec<f64>,
    latency_sorted: Vec<f64>,
    /// Probe times in µs, repetition-major, and the rows produced.
    exec_us: Vec<f64>,
    rows_out: u64,
}

pub fn run(shape: &ServiceShape, opts: &RunOptions, problems: &mut Vec<String>) -> WorkloadResult {
    let mut result = WorkloadResult::default();
    let (setup, setup_s) = repeat_set_up(|| set_up(shape, opts.seed, opts.workers), |s| s.seconds);
    let Setup {
        catalog,
        pool,
        refs,
        service,
        ..
    } = &setup;
    result.counts.insert("warm".into(), setup.warm_counts);
    result.e2e.insert("setup_s".into(), setup_s);

    // Inputs of the timed phases, all from the seed. One request stream,
    // split between the phases: a cycling workload keeps cycling across
    // the phase boundary.
    let mut rng = Rng::new(opts.seed ^ 0x5EED_1A7E);
    let sat_n = phase_count(shape.sat_nominal_rps, opts.seconds * SAT_SHARE);
    let paced_n = phase_count(shape.paced_rps, opts.seconds * (1.0 - SAT_SHARE));
    let picks = inputs::pick_order(shape.picks, pool.len(), sat_n + paced_n, &mut rng.fork());
    let slacks = inputs::deadline_slacks(sat_n + paced_n, &mut rng.fork());
    let (sat_picks, paced_picks) = picks.split_at(sat_n);
    let (sat_slacks, paced_slacks) = slacks.split_at(sat_n);
    let due_ns =
        inputs::arrival_schedule_ns(shape.arrivals, shape.paced_rps, paced_n, &mut rng.fork());
    let trace_n = pool.len().max(4096).min(sat_n);
    let stream = |picks, slacks| Stream {
        service,
        pool,
        refs,
        picks,
        slacks,
    };

    // Saturation: closed loop, fixed count, five equal segments.
    let sat = closed_loop(&stream(sat_picks, sat_slacks), SEGMENTS, trace_n);
    result.counts.insert("sat".into(), sat.tally.counts);
    if sat.timed_out {
        problems.push(format!(
            "{}: the saturation phase lost responses",
            shape.name
        ));
    }
    result.e2e.insert(
        "throughput_rps".into(),
        Measured::median_of(&sat.segment_rps),
    );

    // Paced: open loop on the seeded schedule.
    let (paced, late_p99, cache_stats) = paced_phase(
        shape.name,
        &stream(paced_picks, paced_slacks),
        &due_ns,
        problems,
    );
    result.counts.insert("paced".into(), paced.tally.counts);
    let latency_us = us(&paced.latency_ns);
    let latency_sorted = sorted(latency_us.clone());
    let p50 = percentile(&latency_sorted, 0.5);
    let segment_p50 = segment_percentiles(&latency_us, 0.5);
    result.e2e.insert(
        "latency_us_p50".into(),
        Measured::with_parts(p50, &segment_p50),
    );
    result.e2e.insert(
        "latency_us_p95".into(),
        Measured::with_parts(
            percentile(&latency_sorted, 0.95),
            &segment_percentiles(&latency_us, 0.95),
        ),
    );

    // Full-execution probe: what queries cost to run on this database. The
    // MICRO grid spreads 72 scans and two-way joins evenly over the
    // selectivity space, so it is the same work for every seed — the
    // median over a seeded mix of templates is not: it falls between the
    // cheap and the expensive templates and moves by 15% with the literals.
    let mut exec_us = Vec::with_capacity(setup.micro.len() * PROBE_REPS);
    let mut rows_out = 0;
    for _ in 0..PROBE_REPS {
        for &p in &setup.micro {
            let (us, rows) = timed_full_exec(&pool[p], catalog);
            exec_us.push(us);
            rows_out += rows;
        }
    }
    let rep_p50: Vec<f64> = exec_us.chunks(setup.micro.len()).map(median).collect();
    let full_p50 = median(&exec_us);
    result.e2e.insert(
        "full_exec_us_p50".into(),
        Measured::with_parts(full_p50, &rep_p50),
    );
    let overhead_parts: Vec<f64> = segment_p50.iter().map(|p| p / full_p50).collect();
    result.e2e.insert(
        "rel_overhead".into(),
        Measured::with_parts(p50 / full_p50, &overhead_parts),
    );

    if opts.trace {
        let phases = Phases {
            sat_picks,
            sat_slacks,
            trace_n,
            sat,
            paced,
            late_p99,
            cache_stats,
            latency_us,
            latency_sorted,
            exec_us,
            rows_out,
        };
        layer_metrics(shape, opts, &setup, &phases, &mut result, problems);
    }
    result
}

/// The traced part of a run: the per-layer numbers that fall out of the
/// phases, the spans-on service, the traced pass and the micro-timings.
fn layer_metrics(
    shape: &ServiceShape,
    opts: &RunOptions,
    setup: &Setup,
    phases: &Phases<'_>,
    result: &mut WorkloadResult,
    problems: &mut Vec<String>,
) {
    let Setup {
        catalog,
        samples,
        predictor,
        pool,
        micro,
        refs,
        service,
        ..
    } = setup;
    let Phases {
        sat,
        paced,
        latency_sorted,
        exec_us,
        cache_stats,
        ..
    } = phases;
    let workers = opts.workers;
    let mut layer = |name: &str, value: f64| {
        result.layers.insert(name.to_string(), value);
    };

    let service_us = us(&paced.service_ns);
    let service_sorted = sorted(service_us.clone());
    let wait_sorted = sorted(
        phases
            .latency_us
            .iter()
            .zip(&service_us)
            .map(|(l, s)| (l - s).max(0.0))
            .collect(),
    );
    let answers = paced.tally.counts.attempted as f64;
    let exec_total_s: f64 = exec_us.iter().sum::<f64>() / 1e6;
    layer("service.service_us_p50", percentile(&service_sorted, 0.5));
    layer("service.service_us_p95", percentile(&service_sorted, 0.95));
    layer("service.queue_wait_us_p50", percentile(&wait_sorted, 0.5));
    layer("service.queue_wait_us_p95", percentile(&wait_sorted, 0.95));
    layer("service.latency_us_p99", percentile(latency_sorted, 0.99));
    layer("service.latency_us_p999", percentile(latency_sorted, 0.999));
    layer("service.backlog_max", paced.backlog_max as f64);
    layer(
        "service.worker_busy_share",
        paced.tally.service_seconds / (paced.elapsed.as_secs_f64() * workers as f64),
    );
    layer(
        "service.tier_full_share",
        paced.tally.full_tier as f64 / answers,
    );
    layer("service.admit_share", paced.tally.admitted as f64 / answers);
    layer("service.sel_hit_rate", cache_stats.sel_hit_rate());
    layer("service.fit_hit_rate", cache_stats.fit_hit_rate());
    layer("service.sel_evictions", cache_stats.sel_evictions as f64);
    layer("gen.late_us_p99", phases.late_p99);
    layer("gen.submit_ns", paced.submit_ns_mean);
    layer("engine.full_exec_us", uaq_stats::mean(exec_us));
    layer(
        "engine.full_rows_per_s",
        phases.rows_out as f64 / exec_total_s,
    );
    layer("core.predict_uncached_us", setup.predict_uncached_us);
    for (name, value) in setup.steps.layers() {
        layer(name, value);
    }

    // The paper's narrower §6.4 ratio on the probe: sample pass over full
    // execution, per query.
    let ratios: Vec<f64> = micro
        .iter()
        .enumerate()
        .map(|(k, &p)| {
            let full: Vec<f64> = (0..PROBE_REPS)
                .map(|r| exec_us[r * micro.len() + k])
                .collect();
            timed_sample_pass(&pool[p], samples, catalog) / median(&full)
        })
        .collect();
    layer("selest.rel_sampling_overhead", uaq_stats::mean(&ratios));

    // Telemetry: what a snapshot costs, and what always-on spans would.
    let t = Instant::now();
    for _ in 0..20 {
        black_box(service.telemetry());
    }
    layer("telemetry.snapshot_us", ms_since(t) * 1e3 / 20.0);
    let spans_service = PredictionService::start(
        predictor.clone(),
        Arc::clone(catalog),
        Arc::clone(samples),
        service_config(shape, workers, true),
    );
    let spans_warm = warm_pass(&spans_service, pool, refs);
    // Two segments: the first warms the new service up, the second is
    // compared with the steady segments of the service with spans off.
    let segments = 2 * (phases.sat_picks.len() / SEGMENTS);
    let spans_stream = Stream {
        service: &spans_service,
        pool,
        refs,
        picks: &phases.sat_picks[..segments],
        slacks: &phases.sat_slacks[..segments],
    };
    let spans_on = closed_loop(&spans_stream, 2, 0);
    drop(spans_service);
    layer(
        "telemetry.span_overhead_share",
        1.0 - spans_on.segment_rps[1] / median(&sat.segment_rps[1..]),
    );

    // The traced pass: one pass of the workload's request stream.
    let item = |p: usize| Item {
        db: 0,
        plan: &pool[p],
        reference: &refs[p],
    };
    let warm_items: Vec<Item<'_>> = (0..pool.len()).map(item).collect();
    let items: Vec<Item<'_>> = phases.sat_picks[..phases.trace_n]
        .iter()
        .map(|&p| item(p as usize))
        .collect();
    let traced = trace_run::run(
        predictor,
        &[(catalog.as_ref(), samples.as_ref())],
        setup.cache,
        &warm_items,
        &items,
    );
    for (name, value) in traced.layers() {
        layer(name, value);
    }
    // Same requests, same starting cache state: what the service adds on
    // top of the in-thread call.
    layer(
        "service.overhead_us",
        sat.prefix_service_us - traced.one_shot_ns as f64 / phases.trace_n as f64 / 1e3,
    );
    crate::check_closure(shape.name, traced.closure_ratio(), problems);
    crate::write_spans(opts, shape.name, &traced.spans);

    // Micro-timings of the two service pieces no span can reach from
    // outside: the queue hop and the admission decision.
    let queue: ShardedWorkQueue<u64> = ShardedWorkQueue::new(workers);
    let mut steal = 1u64;
    let hops = 200_000u64;
    let t = Instant::now();
    for i in 0..hops {
        queue.push(i);
        black_box(queue.pop(0, &mut steal));
    }
    layer("service.queue_hop_ns", ms_since(t) * 1e6 / hops as f64);
    let policy = AdmissionPolicy::default();
    let decisions = 200_000usize;
    let t = Instant::now();
    for i in 0..decisions {
        let prediction = &refs[i % refs.len()].prediction;
        black_box(policy.decide(prediction, Some(prediction.mean_ms() * 1.1)));
    }
    layer("service.admission_ns", ms_since(t) * 1e6 / decisions as f64);

    result.counts.insert(
        "spans_on".into(),
        Counts {
            attempted: spans_warm.attempted + spans_on.tally.counts.attempted,
            failed: spans_warm.failed + spans_on.tally.counts.failed,
        },
    );
    result.counts.insert("trace".into(), traced.counts);
}
