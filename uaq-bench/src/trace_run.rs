//! Drives the staged pipeline of [`crate::trace`] over one pass of a
//! workload and turns the spans into per-layer numbers.
//!
//! Three variants run over identical requests against fresh, identically
//! warmed caches: the one-shot call, the staged pipeline untraced, and the
//! staged pipeline traced. Closure compares traced self-times with the
//! one-shot; tracing overhead compares traced with untraced.

use crate::report::Counts;
use crate::setup::Reference;
use crate::trace::{
    self, predict_one_shot, predict_staged, self_times_ns, PredictEnv, Recorder, Span, StageCounts,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use uaq_core::Predictor;
use uaq_engine::Plan;
use uaq_service::{CacheConfig, SharedFitCache, SharedSelEstCache};
use uaq_storage::{Catalog, SampleCatalog};

/// One request of the traced pass.
#[derive(Clone, Copy)]
pub struct Item<'a> {
    /// Index into the database list (`paper_cells` has two).
    pub db: usize,
    pub plan: &'a Plan,
    pub reference: &'a Reference,
}

pub struct TraceOutcome {
    pub counts: Counts,
    pub stage_counts: StageCounts,
    pub requests: usize,
    /// Total nanoseconds of the best round of each variant.
    pub one_shot_ns: u64,
    pub staged_ns: u64,
    pub traced_ns: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
    pub spans: Vec<Span>,
}

impl TraceOutcome {
    pub fn closure_ratio(&self) -> f64 {
        self.self_ns.values().sum::<u64>() as f64 / self.one_shot_ns as f64
    }

    pub fn overhead_share(&self) -> f64 {
        self.traced_ns as f64 / self.staged_ns as f64 - 1.0
    }

    /// Self time of a span name per traced request, in nanoseconds.
    pub fn per_request_ns(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / self.requests as f64
    }

    /// Per-layer metrics read off the spans. Every traced nanosecond lands
    /// in exactly one of them, so they add up to `trace.request_us`.
    pub fn layers(&self) -> Vec<(&'static str, f64)> {
        let ns = |name| self.per_request_ns(name);
        let us = |name| self.per_request_ns(name) / 1e3;
        let request_us = self.traced_ns as f64 / self.requests as f64 / 1e3;
        let hot = us(trace::SAMPLE_EXEC) + us(trace::ESTIMATE) + us(trace::FIT);
        vec![
            ("engine.validate_ns", ns(trace::VALIDATE)),
            ("core.key_build_ns", ns(trace::KEY_BUILD)),
            ("service.sel_cache_get_ns", ns(trace::SEL_GET)),
            ("engine.sample_exec_us", us(trace::SAMPLE_EXEC)),
            ("selest.estimate_us", us(trace::ESTIMATE)),
            ("service.sel_cache_put_ns", ns(trace::SEL_PUT)),
            ("service.fit_cache_get_ns", ns(trace::FIT_GET)),
            ("cost.context_build_us", us(trace::CONTEXT_BUILD)),
            ("cost.fit_us", us(trace::FIT)),
            ("service.fit_cache_put_ns", ns(trace::FIT_PUT)),
            ("core.variance_algebra_us", us(trace::ALGEBRA)),
            ("trace.unattributed_ns", ns(trace::REQUEST)),
            ("trace.request_us", request_us),
            ("trace.hot_share", hot / request_us),
            ("trace.closure_ratio", self.closure_ratio()),
            ("trace.overhead_share", self.overhead_share()),
            (
                "engine.sample_rows_out",
                self.stage_counts.sample_rows_out as f64,
            ),
            ("cost.fit_calls", self.stage_counts.fit_calls as f64),
        ]
    }
}

const ROUNDS: usize = 2;

#[derive(Clone, Copy, PartialEq)]
enum Variant {
    OneShot,
    Staged,
    Traced,
}

/// Runs the three variants `ROUNDS` times each, interleaved, and keeps the
/// fastest round of each (the least disturbed one on a shared box).
pub fn run(
    predictor: &Predictor,
    dbs: &[(&Catalog, &SampleCatalog)],
    cache: CacheConfig,
    warm: &[Item<'_>],
    items: &[Item<'_>],
) -> TraceOutcome {
    let mut out = TraceOutcome {
        counts: Counts::default(),
        stage_counts: StageCounts::default(),
        requests: items.len(),
        one_shot_ns: u64::MAX,
        staged_ns: u64::MAX,
        traced_ns: u64::MAX,
        self_ns: BTreeMap::new(),
        spans: Vec::new(),
    };
    let mut check = |item: &Item<'_>, prediction: &uaq_core::Prediction| {
        out.counts.attempted += 1;
        out.counts.failed += u64::from(!item.reference.matches(prediction));
    };
    for _ in 0..ROUNDS {
        for variant in [Variant::OneShot, Variant::Staged, Variant::Traced] {
            // Fresh caches, configured and warmed like the service's.
            let fit_cache = SharedFitCache::new(cache);
            let sel_cache =
                SharedSelEstCache::sharded(cache.max_sel_entries, cache.eviction, cache.shards);
            let env = |db: usize| PredictEnv {
                predictor,
                catalog: dbs[db].0,
                samples: dbs[db].1,
                fit_cache: &fit_cache,
                sel_cache: &sel_cache,
            };
            for item in warm {
                black_box(predict_one_shot(&env(item.db), item.plan));
            }
            let mut rec = Recorder::new(variant == Variant::Traced);
            let mut stage_counts = StageCounts::default();
            let start = Instant::now();
            for (request, item) in items.iter().enumerate() {
                let prediction = if variant == Variant::OneShot {
                    predict_one_shot(&env(item.db), item.plan)
                } else {
                    rec.begin_request(request as u32);
                    predict_staged(&env(item.db), item.plan, &mut rec, &mut stage_counts)
                };
                check(item, &prediction);
            }
            let total = start.elapsed().as_nanos() as u64;
            match variant {
                Variant::OneShot => out.one_shot_ns = out.one_shot_ns.min(total),
                Variant::Staged => out.staged_ns = out.staged_ns.min(total),
                Variant::Traced if total < out.traced_ns => {
                    out.traced_ns = total;
                    out.self_ns = self_times_ns(rec.spans());
                    out.spans = rec.spans().to_vec();
                    out.stage_counts = stage_counts;
                }
                Variant::Traced => {}
            }
        }
    }
    out
}
