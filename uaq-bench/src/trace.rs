//! The traced run: a bench-side staged pipeline that mirrors
//! `Predictor::predict_with_caches` through public calls only, with a span
//! around every call into a layer. Spans inside the program are a later
//! change; until then the attribution is only trusted while it *closes*:
//! the staged pipeline must return bit-identical predictions and cost
//! within 10% of the one-shot call it mirrors.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use uaq_core::{Prediction, Predictor, PredictorConfig};
use uaq_cost::{FitCache, FitSignature, NodeCostContext, NodeFits, SelEstCache};
use uaq_engine::{execute_on_samples, validate_cached_on_samples, Plan};
use uaq_selest::{estimate_selectivities_with, SelEstimates};
use uaq_storage::{Catalog, SampleCatalog};
use uaq_telemetry::Json;

/// One recorded interval. `parent` indexes the span that caused it; spans
/// of one request share `request`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u32,
}

/// In-memory span recorder; written out once, at exit.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    pub fn begin_request(&mut self, request: u32) {
        self.request = request;
    }

    /// Runs `f` inside a span named `name` (a plain call when disabled).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records an interval measured elsewhere under the current parent.
    fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus the
/// part of it its children cover.
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    let mut by_name = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *by_name.entry(s.name).or_insert(0) += ns;
    }
    by_name
}

pub fn spans_to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (id, s) in spans.iter().enumerate() {
        let line = Json::Obj(vec![
            ("id".into(), Json::u64(id as u64)),
            ("name".into(), Json::str(s.name)),
            ("start_ns".into(), Json::u64(s.start_ns)),
            ("end_ns".into(), Json::u64(s.end_ns)),
            (
                "parent".into(),
                s.parent.map_or(Json::Null, |p| Json::u64(p.into())),
            ),
            ("request".into(), Json::u64(s.request.into())),
        ]);
        line.render(&mut out);
        out.push('\n');
    }
    out
}

/// Span names, one per call into a layer; `REQUEST` is the root whose self
/// time is whatever the stages do not cover (clock reads included).
pub const REQUEST: &str = "request";
pub const VALIDATE: &str = "engine.validate";
pub const KEY_BUILD: &str = "core.key_build";
pub const SEL_GET: &str = "service.sel_cache_get";
pub const SAMPLE_EXEC: &str = "engine.sample_exec";
pub const ESTIMATE: &str = "selest.estimate";
pub const SEL_PUT: &str = "service.sel_cache_put";
pub const FIT_GET: &str = "service.fit_cache_get";
pub const CONTEXT_BUILD: &str = "cost.context_build";
pub const FIT: &str = "cost.fit";
pub const FIT_PUT: &str = "service.fit_cache_put";
pub const ALGEBRA: &str = "core.variance_algebra";

/// What the staged pipeline counted while it ran.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageCounts {
    pub sample_rows_out: u64,
    pub fit_calls: u64,
}

/// Everything one prediction reads besides the plan.
pub struct PredictEnv<'a> {
    pub predictor: &'a Predictor,
    pub catalog: &'a Catalog,
    pub samples: &'a SampleCatalog,
    pub fit_cache: &'a dyn FitCache,
    pub sel_cache: &'a dyn SelEstCache,
}

/// The one-shot call the staged pipeline mirrors: the service edge's
/// validation followed by the worker's `predict_with_caches`.
pub fn predict_one_shot(env: &PredictEnv<'_>, plan: &Plan) -> Prediction {
    validate_cached_on_samples(plan, env.catalog, env.samples).expect("pool plans are valid");
    env.predictor
        .predict_with_caches(plan, env.catalog, env.samples, env.fit_cache, env.sel_cache)
}

/// A call `predict_from_estimates` made into the fit cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FitCall {
    GetFits { hit: bool },
    GetContexts { hit: bool },
    PutContexts,
    PutFits,
}

/// Stands between `predict_from_estimates` and the real fit cache and
/// notes when each cache call began and ended. The fit stage has no public
/// entry point of its own, but every step of it ends in a cache call, so
/// the time between two calls is exactly one step: after a contexts miss,
/// `NodeCostContext::build_all` runs until `put_contexts`; then `fit_node`
/// per node until `put_fits`; then the variance algebra until the return.
struct ObservedFitCache<'a> {
    inner: &'a dyn FitCache,
    origin: Instant,
    calls: Mutex<Vec<(FitCall, u64, u64)>>,
}

impl ObservedFitCache<'_> {
    fn observe<T>(&self, f: impl FnOnce() -> T, call: impl FnOnce(&T) -> FitCall) -> T {
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.calls
            .lock()
            .expect("only this thread records")
            .push((call(&out), start, end));
        out
    }
}

impl FitCache for ObservedFitCache<'_> {
    fn get_contexts(&self, shape: &str) -> Option<Arc<Vec<NodeCostContext>>> {
        self.observe(
            || self.inner.get_contexts(shape),
            |r| FitCall::GetContexts { hit: r.is_some() },
        )
    }

    fn put_contexts(&self, shape: &str, contexts: &Arc<Vec<NodeCostContext>>) {
        self.observe(
            || self.inner.put_contexts(shape, contexts),
            |_| FitCall::PutContexts,
        )
    }

    fn get_fits(&self, shape: &str, sig: &FitSignature) -> Option<Arc<NodeFits>> {
        self.observe(
            || self.inner.get_fits(shape, sig),
            |r| FitCall::GetFits { hit: r.is_some() },
        )
    }

    fn put_fits(&self, shape: &str, sig: &FitSignature, fits: &Arc<NodeFits>) {
        self.observe(
            || self.inner.put_fits(shape, sig, fits),
            |_| FitCall::PutFits,
        )
    }
}

/// `predict_one_shot`, stage by stage: the sample stage through its public
/// pieces, the fit stage through `predict_from_estimates` with the cache
/// calls observed.
pub fn predict_staged(
    env: &PredictEnv<'_>,
    plan: &Plan,
    rec: &mut Recorder,
    counts: &mut StageCounts,
) -> Prediction {
    // The predictor's config is private; the benchmark builds every
    // predictor with the default, which this mirrors.
    let agg_source = PredictorConfig::default().agg_source;
    let (catalog, samples) = (env.catalog, env.samples);
    rec.span(REQUEST, |rec| {
        rec.span(VALIDATE, |_| {
            validate_cached_on_samples(plan, catalog, samples).expect("pool plans are valid")
        });
        let sel_key = rec.span(KEY_BUILD, |_| {
            env.predictor.sel_instance_key(plan, catalog, samples)
        });
        let estimates = match rec.span(SEL_GET, |_| env.sel_cache.get(&sel_key)) {
            Some(estimates) => estimates,
            None => {
                let outcome = rec.span(SAMPLE_EXEC, |_| execute_on_samples(plan, samples));
                counts.sample_rows_out += outcome.num_rows() as u64;
                let estimates = rec.span(ESTIMATE, |_| {
                    SelEstimates::from_vec(estimate_selectivities_with(
                        plan, &outcome, samples, catalog, agg_source,
                    ))
                });
                rec.span(SEL_PUT, |_| env.sel_cache.put(&sel_key, &estimates));
                estimates
            }
        };
        if !rec.enabled {
            return env
                .predictor
                .predict_from_estimates(plan, catalog, estimates, env.fit_cache);
        }
        let observed = ObservedFitCache {
            inner: env.fit_cache,
            origin: rec.origin,
            calls: Mutex::new(Vec::with_capacity(4)),
        };
        let start = rec.now_ns();
        let prediction = env
            .predictor
            .predict_from_estimates(plan, catalog, estimates, &observed);
        let end = rec.now_ns();
        // Until the first cache call: shape key, distributions, signature.
        let mut step = (KEY_BUILD, start);
        for (call, call_start, call_end) in observed.calls.into_inner().expect("not poisoned") {
            rec.record(step.0, step.1, call_start);
            let (probe, next) = match call {
                FitCall::GetFits { hit: true } => (FIT_GET, ALGEBRA),
                FitCall::GetFits { hit: false } => (FIT_GET, KEY_BUILD),
                FitCall::GetContexts { hit: true } => (FIT_GET, FIT),
                FitCall::GetContexts { hit: false } => (FIT_GET, CONTEXT_BUILD),
                FitCall::PutContexts => (FIT_PUT, FIT),
                FitCall::PutFits => {
                    counts.fit_calls += plan.len() as u64;
                    (FIT_PUT, ALGEBRA)
                }
            };
            rec.record(probe, call_start, call_end);
            step = (next, call_end);
        }
        rec.record(step.0, step.1, end);
        prediction
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        };
        let spans = [
            span("request", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("a", 60, 70, Some(2)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own["request"], 30);
        assert_eq!(own["a"], 40);
        assert_eq!(own["b"], 30);
        // Self times add up to the root's duration: the attribution closes.
        assert_eq!(own.values().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_can_be_switched_off() {
        let mut rec = Recorder::new(true);
        rec.begin_request(7);
        let v = rec.span("outer", |rec| rec.span("inner", |_| 5) + 1);
        assert_eq!(v, 6);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans.iter().all(|s| s.request == 7));
        let line = spans_to_jsonl(spans);
        assert_eq!(line.lines().count(), 2);
        assert!(Json::parse(line.lines().next().expect("line")).is_ok());

        let mut off = Recorder::new(false);
        assert_eq!(off.span("outer", |_| 1), 1);
        assert!(off.spans().is_empty());
    }

    /// The staged pipeline is only an attribution if it computes what the
    /// one-shot call computes: same bits on the all-miss path and on the
    /// all-hit path, with the stages each path should and should not run.
    #[test]
    fn staged_pipeline_matches_the_predictor_bit_for_bit() {
        use uaq_cost::{calibrate, CalibrationConfig, HardwareProfile};
        use uaq_engine::plan_query;
        use uaq_service::{SharedFitCache, SharedSelEstCache};
        use uaq_stats::Rng;

        let catalog = uaq_datagen::GenConfig::new(0.001, 0.0, 3).build();
        let mut rng = Rng::new(4);
        let units = calibrate(
            &HardwareProfile::pc1(),
            &CalibrationConfig::default(),
            &mut rng,
        );
        let samples = catalog.draw_samples(0.05, 2, &mut rng);
        let predictor = Predictor::new(units, PredictorConfig::default());
        let (fit_cache, sel_cache) = (SharedFitCache::default(), SharedSelEstCache::default());
        let env = PredictEnv {
            predictor: &predictor,
            catalog: &catalog,
            samples: &samples,
            fit_cache: &fit_cache,
            sel_cache: &sel_cache,
        };
        let specs = crate::inputs::pool_specs(&catalog, 1, 1, &mut rng);
        let mut context_builds = 0;
        for spec in specs.iter().step_by(7) {
            let plan = plan_query(spec, &catalog);
            let reference = predictor.predict(&plan, &catalog, &samples);
            let bits = |p: &Prediction| (p.mean_ms().to_bits(), p.var().to_bits());
            let mut counts = StageCounts::default();

            let mut miss = Recorder::new(true);
            let staged = predict_staged(&env, &plan, &mut miss, &mut counts);
            assert_eq!(bits(&staged), bits(&reference), "{} (miss)", spec.name);
            let ran = |rec: &Recorder, name| rec.spans().iter().any(|s| s.name == name);
            for stage in [SAMPLE_EXEC, ESTIMATE, SEL_PUT, FIT, FIT_PUT, ALGEBRA] {
                assert!(
                    ran(&miss, stage),
                    "{}: {stage} missing on the miss path",
                    spec.name
                );
            }
            assert_eq!(counts.fit_calls, plan.len() as u64);
            // Contexts are per shape: built the first time a shape is seen.
            context_builds += usize::from(ran(&miss, CONTEXT_BUILD));

            let mut hit = Recorder::new(true);
            let staged = predict_staged(&env, &plan, &mut hit, &mut counts);
            assert_eq!(bits(&staged), bits(&reference), "{} (hit)", spec.name);
            for stage in [SAMPLE_EXEC, ESTIMATE, SEL_PUT, CONTEXT_BUILD, FIT, FIT_PUT] {
                assert!(
                    !ran(&hit, stage),
                    "{}: {stage} ran on the hit path",
                    spec.name
                );
            }
            assert!(ran(&hit, SEL_GET) && ran(&hit, FIT_GET) && ran(&hit, ALGEBRA));
            assert_eq!(counts.fit_calls, plan.len() as u64);
            // Every span lies inside its parent: the attribution closes.
            for s in hit.spans().iter().chain(miss.spans()) {
                assert!(s.start_ns <= s.end_ns);
            }
            assert_eq!(bits(&predict_one_shot(&env, &plan)), bits(&reference));
        }
        assert!(context_builds > 1);
    }
}
