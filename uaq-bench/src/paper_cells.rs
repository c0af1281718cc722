//! `paper_cells`: the paper's own §6.4 / Table 4–5 measurement. No
//! service, one thread: uncached `Predictor::predict` and `execute_full`
//! over MICRO + SELJOIN + TPCH on a small uniform and a 10× larger skewed
//! database, so data size and skew vary and the engine runs in *full* mode
//! beside *sample* mode — a sample-path gain that costs full execution
//! shows here.

use crate::report::{Counts, WorkloadResult};
use crate::setup::{
    calibrated_predictor, ms_since, repeat_set_up, timed_full_exec, timed_sample_pass, us_since,
    Reference, StepTimes, SAMPLING_RATIO,
};
use crate::summary::{median, percentile, sorted, Measured};
use crate::trace_run::{self, Item};
use crate::RunOptions;
use std::hint::black_box;
use std::time::Instant;
use uaq_core::Predictor;
use uaq_datagen::DbPreset;
use uaq_engine::{plan_query, Plan};
use uaq_experiments::{metrics, CellConfig, Lab, Machine};
use uaq_service::CacheConfig;
use uaq_stats::Rng;
use uaq_storage::{Catalog, SampleCatalog};
use uaq_workloads::Benchmark;

const DBS: [(DbPreset, &str); 2] = [(DbPreset::Uniform1G, "u1g"), (DbPreset::Skewed10G, "s10g")];
const SELJOIN_PER_TEMPLATE: usize = 8;
const TPCH_PER_TEMPLATE: usize = 4;
/// Timed predict calls per query per sweep (one `execute_full` each).
const PREDICT_REPS: usize = 4;

fn instances(benchmark: Benchmark) -> usize {
    match benchmark {
        Benchmark::Micro => 1,
        Benchmark::SelJoin => SELJOIN_PER_TEMPLATE,
        Benchmark::Tpch => TPCH_PER_TEMPLATE,
    }
}

struct Db {
    catalog: Catalog,
    samples: SampleCatalog,
    plans: Vec<Plan>,
    refs: Vec<Reference>,
}

struct Setup {
    predictor: Predictor,
    dbs: Vec<Db>,
    seconds: f64,
    steps: StepTimes,
}

fn set_up(seed: u64) -> Setup {
    let start = Instant::now();
    let mut rng = Rng::new(seed);
    let mut steps = StepTimes::default();
    let predictor = calibrated_predictor(&mut rng.fork(), &mut steps);
    let dbs: Vec<Db> = DBS
        .iter()
        .map(|(preset, _)| {
            let t = Instant::now();
            let catalog = preset.build(rng.next_u64());
            steps.datagen_ms += ms_since(t);
            let t = Instant::now();
            let samples = catalog.draw_samples(SAMPLING_RATIO, 2, &mut rng.fork());
            steps.draw_samples_ms += ms_since(t);
            let t = Instant::now();
            let mut query_rng = rng.fork();
            let specs: Vec<_> = Benchmark::ALL
                .iter()
                .flat_map(|b| b.queries(&catalog, instances(*b), &mut query_rng))
                .collect();
            steps.pool_gen_ms += ms_since(t);
            let t = Instant::now();
            let plans: Vec<Plan> = specs.iter().map(|s| plan_query(s, &catalog)).collect();
            steps.plan_ms += ms_since(t);
            steps.plans += plans.len();
            let refs = plans
                .iter()
                .map(|plan| Reference::of(&predictor, plan, &catalog, &samples))
                .collect();
            Db {
                catalog,
                samples,
                plans,
                refs,
            }
        })
        .collect();
    Setup {
        predictor,
        dbs,
        seconds: start.elapsed().as_secs_f64(),
        steps,
    }
}

pub fn run(opts: &RunOptions, problems: &mut Vec<String>) -> WorkloadResult {
    let mut result = WorkloadResult::default();
    let (setup, setup_s) = repeat_set_up(|| set_up(opts.seed), |s| s.seconds);
    result.e2e.insert("setup_s".into(), setup_s);
    let predictor = &setup.predictor;

    // One sweep costs about two seconds (the 10× database's full
    // executions dominate); ten sweeps at the default run length.
    let sweeps = ((opts.seconds / 2.0).round() as usize).max(2);
    let queries: usize = setup.dbs.iter().map(|db| db.plans.len()).sum();
    // Per query: every predict and every execute_full time, in µs.
    let mut predict_us: Vec<Vec<f64>> = vec![Vec::new(); queries];
    let mut exec_us: Vec<Vec<f64>> = vec![Vec::new(); queries];
    let mut counts = Counts::default();
    let mut rows_out = 0u64;
    let (mut sweep_rps, mut sweep_p50, mut sweep_p95, mut sweep_exec, mut sweep_overhead) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..sweeps {
        let (mut sweep_predict, mut sweep_full, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        let mut q = 0;
        for db in &setup.dbs {
            for (plan, reference) in db.plans.iter().zip(&db.refs) {
                let mut reps = Vec::with_capacity(PREDICT_REPS);
                for _ in 0..PREDICT_REPS {
                    let t = Instant::now();
                    let prediction = black_box(predictor.predict(plan, &db.catalog, &db.samples));
                    reps.push(us_since(t));
                    counts.attempted += 1;
                    counts.failed += u64::from(!reference.matches(&prediction));
                }
                let (full, rows) = timed_full_exec(plan, &db.catalog);
                rows_out += rows;
                ratios.push(median(&reps) / full);
                sweep_predict.extend_from_slice(&reps);
                sweep_full.push(full);
                predict_us[q].extend_from_slice(&reps);
                exec_us[q].push(full);
                q += 1;
            }
        }
        sweep_rps.push(sweep_predict.len() as f64 / (sweep_predict.iter().sum::<f64>() / 1e6));
        let s = sorted(sweep_predict);
        sweep_p50.push(percentile(&s, 0.5));
        sweep_p95.push(percentile(&s, 0.95));
        sweep_exec.push(median(&sweep_full));
        sweep_overhead.push(uaq_stats::mean(&ratios));
    }
    result.counts.insert("sweeps".into(), counts);

    let all_predict = sorted(predict_us.iter().flatten().copied().collect());
    let all_exec = sorted(exec_us.iter().flatten().copied().collect());
    let exec_median: Vec<f64> = exec_us.iter().map(|x| median(x)).collect();
    let overhead: Vec<f64> = predict_us
        .iter()
        .zip(&exec_median)
        .map(|(p, e)| median(p) / e)
        .collect();
    let e2e = &mut result.e2e;
    e2e.insert("throughput_rps".into(), Measured::median_of(&sweep_rps));
    e2e.insert(
        "latency_us_p50".into(),
        Measured::with_parts(percentile(&all_predict, 0.5), &sweep_p50),
    );
    e2e.insert(
        "latency_us_p95".into(),
        Measured::with_parts(percentile(&all_predict, 0.95), &sweep_p95),
    );
    e2e.insert(
        "full_exec_us_p50".into(),
        Measured::with_parts(percentile(&all_exec, 0.5), &sweep_exec),
    );
    e2e.insert(
        "rel_overhead".into(),
        Measured::with_parts(uaq_stats::mean(&overhead), &sweep_overhead),
    );
    if !opts.trace {
        return result;
    }

    let exec_total_s = all_exec.iter().sum::<f64>() / 1e6;
    let mut layer = |name: &str, value: f64| {
        result.layers.insert(name.to_string(), value);
    };
    layer("engine.full_exec_us", uaq_stats::mean(&all_exec));
    layer("engine.full_rows_per_s", rows_out as f64 / exec_total_s);
    layer("core.predict_uncached_us", uaq_stats::mean(&all_predict));
    for (name, value) in setup.steps.layers() {
        layer(name, value);
    }

    // The paper's narrower §6.4 ratio: sample pass over full execution.
    let plans = setup
        .dbs
        .iter()
        .flat_map(|db| db.plans.iter().map(move |plan| (db, plan)));
    let ratios: Vec<f64> = plans
        .zip(&exec_median)
        .map(|((db, plan), full)| timed_sample_pass(plan, &db.samples, &db.catalog) / full)
        .collect();
    layer("selest.rel_sampling_overhead", uaq_stats::mean(&ratios));

    // Accuracy on the same six cells, from the experiment lab: pure
    // functions of the seed, so any drift is a statistical regression.
    let mut lab = Lab::new(opts.seed);
    let (mut rs_all, mut rp_all, mut dn_all) = (Vec::new(), Vec::new(), Vec::new());
    for (preset, db_label) in DBS {
        for benchmark in Benchmark::ALL {
            let mut cell = CellConfig::new(preset, Machine::Pc1, benchmark, SAMPLING_RATIO);
            cell.instances = instances(benchmark);
            let outcome = lab.run_cell(&cell);
            let (rs, rp) = metrics::correlation(&outcome);
            let dn = metrics::distribution_distance(&outcome);
            let cell_label = format!("{db_label}-{}", benchmark.label().to_lowercase());
            for (stat, value) in [("rs", rs), ("rp", rp), ("dn", dn)] {
                result
                    .layers
                    .insert(format!("experiments.{stat}.{cell_label}"), value);
            }
            rs_all.push(rs);
            rp_all.push(rp);
            dn_all.push(dn);
        }
    }
    for (name, values) in [("corr_rs", &rs_all), ("corr_rp", &rp_all), ("dn", &dn_all)] {
        result
            .layers
            .insert(format!("experiments.{name}"), uaq_stats::mean(values));
    }

    // The traced pass: every query once, through fresh default caches, so
    // every request takes the all-miss path `predict` takes.
    let dbs: Vec<(&Catalog, &SampleCatalog)> = setup
        .dbs
        .iter()
        .map(|db| (&db.catalog, &db.samples))
        .collect();
    let items: Vec<Item<'_>> = setup
        .dbs
        .iter()
        .enumerate()
        .flat_map(|(i, db)| {
            db.plans
                .iter()
                .zip(&db.refs)
                .map(move |(plan, reference)| Item {
                    db: i,
                    plan,
                    reference,
                })
        })
        .collect();
    let traced = trace_run::run(predictor, &dbs, CacheConfig::default(), &[], &items);
    result.counts.insert("trace".into(), traced.counts);
    for (name, value) in traced.layers() {
        result.layers.insert(name.into(), value);
    }
    crate::check_closure("paper_cells", traced.closure_ratio(), problems);
    crate::write_spans(opts, "paper_cells", &traced.spans);
    result
}
