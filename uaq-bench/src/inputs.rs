//! Everything the benchmark feeds the program, as pure functions of the
//! seed: query pools, pick orders, arrival schedules and deadline slacks.
//! The program under test receives only the generated inputs, never the
//! seed.

use uaq_engine::QuerySpec;
use uaq_experiments::ArrivalProcess;
use uaq_stats::{Rng, Zipf};
use uaq_storage::Catalog;
use uaq_workloads::{micro_queries, seljoin, tpch};

/// How a service workload picks the next pool instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Picks {
    Uniform,
    /// Pool order, wrapping: with a pool larger than the cache every
    /// request is a miss.
    Cycle,
    /// Pool position `k` with probability ∝ 1/(k+1)^z.
    Zipf(f64),
}

/// One service workload's fixed shape. Rates are absolute on purpose: a
/// faster program answers the same traffic sooner, it is not sent more.
#[derive(Debug, Clone, Copy)]
pub struct ServiceShape {
    pub name: &'static str,
    pub seljoin_per_template: usize,
    pub tpch_per_template: usize,
    /// `None` keeps the default `CacheConfig`.
    pub max_sel_entries: Option<usize>,
    pub picks: Picks,
    pub arrivals: ArrivalProcess,
    /// Open-loop arrival rate of the paced phase, requests per second.
    pub paced_rps: f64,
    /// Closed-loop requests per second of run time used to size the
    /// fixed request count of the saturation phase (measured on the
    /// 2-core box this benchmark was sized on; see the README).
    pub sat_nominal_rps: f64,
}

pub const WARM_REPEAT: ServiceShape = ServiceShape {
    name: "warm_repeat",
    seljoin_per_template: 10,
    tpch_per_template: 5,
    max_sel_entries: None,
    picks: Picks::Uniform,
    arrivals: ArrivalProcess::Poisson,
    paced_rps: 15_000.0,
    sat_nominal_rps: 72_000.0,
};

pub const COLD_STREAM: ServiceShape = ServiceShape {
    name: "cold_stream",
    seljoin_per_template: 192,
    tpch_per_template: 192,
    max_sel_entries: Some(1024),
    picks: Picks::Cycle,
    arrivals: ArrivalProcess::Poisson,
    paced_rps: 3_000.0,
    sat_nominal_rps: 8_300.0,
};

pub const ZIPF_MIXED: ServiceShape = ServiceShape {
    name: "zipf_mixed",
    seljoin_per_template: 192,
    tpch_per_template: 192,
    max_sel_entries: Some(1024),
    picks: Picks::Zipf(1.0),
    // `ArrivalProcess::bursty()` is not const; same parameters.
    arrivals: ArrivalProcess::Bursty {
        burst_rate: 3.0,
        calm_rate: 0.4,
        switch_prob: 0.08,
    },
    paced_rps: 8_000.0,
    sat_nominal_rps: 24_000.0,
};

pub fn service_shape(name: &str) -> Option<ServiceShape> {
    [WARM_REPEAT, COLD_STREAM, ZIPF_MIXED]
        .into_iter()
        .find(|s| s.name == name)
}

/// MICRO grid + `seljoin_n` instances per SELJOIN template + `tpch_n` per
/// TPCH template, each instance with literals drawn from `rng`, dealt out
/// round-robin over the 22 groups (MICRO, 7 SELJOIN templates, 14 TPCH
/// templates). Every stretch of the pool therefore holds the same mix of
/// templates for every seed; only the literals differ. This is what keeps
/// `zipf_mixed` steady: a third of its requests go to the first ten pool
/// positions, and a seeded shuffle would put a different, differently
/// expensive set of templates there for every seed.
pub fn pool_specs(
    catalog: &Catalog,
    seljoin_n: usize,
    tpch_n: usize,
    rng: &mut Rng,
) -> Vec<QuerySpec> {
    let mut groups = vec![micro_queries(catalog)];
    for (specs, n) in [
        (seljoin::seljoin_queries(seljoin_n, rng), seljoin_n),
        (tpch::tpch_queries(tpch_n, rng), tpch_n),
    ] {
        groups.extend(specs.chunks(n).map(<[QuerySpec]>::to_vec));
    }
    let total = groups.iter().map(Vec::len).sum();
    let mut groups: Vec<_> = groups.into_iter().map(Vec::into_iter).collect();
    let mut pool = Vec::with_capacity(total);
    while pool.len() < total {
        pool.extend(groups.iter_mut().filter_map(Iterator::next));
    }
    pool
}

/// `n` pool indices in request order.
pub fn pick_order(picks: Picks, pool_len: usize, n: usize, rng: &mut Rng) -> Vec<u32> {
    match picks {
        Picks::Uniform => (0..n).map(|_| rng.usize_below(pool_len) as u32).collect(),
        Picks::Cycle => (0..n).map(|i| (i % pool_len) as u32).collect(),
        Picks::Zipf(z) => {
            let zipf = Zipf::new(pool_len, z);
            (0..n).map(|_| zipf.sample(rng) as u32).collect()
        }
    }
}

/// Due times of `n` arrivals, in nanoseconds from the start of the phase.
/// Gaps follow the process (the bursty one is the deadline scenario's
/// two-phase MMPP with per-arrival switching); the whole schedule is then
/// scaled so that it spans exactly `n / rate` seconds, which keeps the
/// offered load identical across seeds while the burst pattern varies.
pub fn arrival_schedule_ns(
    process: ArrivalProcess,
    rate_rps: f64,
    n: usize,
    rng: &mut Rng,
) -> Vec<u64> {
    assert!(rate_rps > 0.0 && n > 0);
    let mut burst = false;
    let mut clock = 0.0f64;
    let mut due: Vec<f64> = (0..n)
        .map(|_| {
            let gap_scale = match process {
                ArrivalProcess::Poisson => 1.0,
                ArrivalProcess::Bursty {
                    burst_rate,
                    calm_rate,
                    switch_prob,
                } => {
                    if rng.f64() < switch_prob {
                        burst = !burst;
                    }
                    if burst {
                        1.0 / burst_rate
                    } else {
                        1.0 / calm_rate
                    }
                }
            };
            clock += -(1.0 - rng.f64()).ln() * gap_scale;
            clock
        })
        .collect();
    let span_ns = n as f64 / rate_rps * 1e9;
    let scale = span_ns / clock;
    for d in &mut due {
        *d *= scale;
    }
    due.into_iter().map(|d| d as u64).collect()
}

/// Deadline slack per request, as a multiple of the instance's reference
/// mean. The range straddles 1 so that admit, defer and reject all occur.
pub fn deadline_slacks(n: usize, rng: &mut Rng) -> Vec<f32> {
    (0..n).map(|_| rng.f64_range(0.7, 1.6) as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uaq_datagen::GenConfig;
    use uaq_engine::plan_query;

    fn literal_keys(seed: u64) -> Vec<String> {
        let catalog = GenConfig::new(0.001, 0.0, 5).build();
        pool_specs(&catalog, 3, 2, &mut Rng::new(seed))
            .iter()
            .map(|s| {
                let plan = plan_query(s, &catalog);
                format!("{}|{}", plan.shape_signature(), plan.literal_key())
            })
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(literal_keys(7), literal_keys(7));
        assert_ne!(literal_keys(7), literal_keys(8));
        assert_eq!(literal_keys(7).len(), 72 + 7 * 3 + 14 * 2);
        // Dealt round-robin: the first 22 positions hold one instance of
        // each group, whatever the seed.
        let templates = |seed| -> Vec<String> {
            let catalog = GenConfig::new(0.001, 0.0, 5).build();
            let specs = pool_specs(&catalog, 3, 2, &mut Rng::new(seed));
            let template = |name: &str| match name.split_once('#') {
                Some((template, _)) => template.to_string(),
                None => "micro".to_string(),
            };
            specs.iter().take(22).map(|s| template(&s.name)).collect()
        };
        assert_eq!(templates(7), templates(8));
        let distinct: std::collections::BTreeSet<_> = templates(7).into_iter().collect();
        assert_eq!(distinct.len(), 22);

        for picks in [Picks::Uniform, Picks::Zipf(1.0)] {
            let order = |seed| pick_order(picks, 500, 2000, &mut Rng::new(seed));
            assert_eq!(order(1), order(1));
            assert_ne!(order(1), order(2));
        }
        assert_eq!(
            pick_order(Picks::Cycle, 3, 7, &mut Rng::new(1)),
            [0, 1, 2, 0, 1, 2, 0]
        );

        for process in [ArrivalProcess::Poisson, ArrivalProcess::bursty()] {
            let schedule = |seed| arrival_schedule_ns(process, 5000.0, 4000, &mut Rng::new(seed));
            assert_eq!(schedule(3), schedule(3));
            assert_ne!(schedule(3), schedule(4));
        }
        assert_eq!(
            deadline_slacks(100, &mut Rng::new(9)),
            deadline_slacks(100, &mut Rng::new(9))
        );
    }

    #[test]
    fn bursty_schedule_keeps_the_target_rate_and_is_bursty() {
        let n = 100_000;
        let rate = 8000.0;
        let cv = |process| {
            let due = arrival_schedule_ns(process, rate, n, &mut Rng::new(11));
            assert!(
                due.windows(2).all(|w| w[0] <= w[1]),
                "due times are ordered"
            );
            let achieved = n as f64 / (*due.last().expect("n > 0") as f64 / 1e9);
            assert!((achieved / rate - 1.0).abs() < 0.02, "rate {achieved}");
            let gaps: Vec<f64> = due.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
            uaq_stats::std_dev(&gaps) / uaq_stats::mean(&gaps)
        };
        let (poisson, bursty) = (cv(ArrivalProcess::Poisson), cv(ArrivalProcess::bursty()));
        assert!((poisson - 1.0).abs() < 0.05, "poisson cv {poisson}");
        assert!(bursty > 1.3, "bursty cv {bursty}");
    }

    /// The hit rate of `zipf_mixed` is a property of the pick order and the
    /// cache policy alone, so it must repeat exactly.
    #[test]
    fn zipf_order_reproduces_the_sel_hit_rate_exactly() {
        use uaq_cost::SelEstCache;
        use uaq_service::{CacheConfig, SharedSelEstCache};
        let replay = || {
            let config = CacheConfig::default();
            let cache = SharedSelEstCache::sharded(1024, config.eviction, config.shards);
            let estimates = uaq_selest::SelEstimates::from_vec(Vec::new());
            for pick in pick_order(Picks::Zipf(1.0), 4104, 30_000, &mut Rng::new(5)) {
                let key = format!("instance-{pick}");
                if cache.get(&key).is_none() {
                    cache.put(&key, &estimates);
                }
            }
            let stats = cache.stats();
            (stats.hits, stats.misses, stats.evictions)
        };
        let (hits, misses, evictions) = replay();
        assert_eq!((hits, misses, evictions), replay());
        let rate = hits as f64 / (hits + misses) as f64;
        assert!((0.6..0.95).contains(&rate), "sel-hit {rate}");
        assert!(evictions > 0);
    }

    #[test]
    fn shapes_match_the_documented_pool_sizes() {
        let pool = |s: ServiceShape| 72 + 7 * s.seljoin_per_template + 14 * s.tpch_per_template;
        assert_eq!(pool(WARM_REPEAT), 212);
        assert_eq!(pool(COLD_STREAM), 4104);
        assert_eq!(pool(ZIPF_MIXED), 4104);
        assert!(matches!(ArrivalProcess::bursty(), a if a == ZIPF_MIXED.arrivals));
    }
}
