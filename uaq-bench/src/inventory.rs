//! The metric and workload inventory: every name the benchmark prints,
//! with its unit, direction, regression bound, and the end-to-end metric it
//! is expected to move (written down *before* measuring, so a layer win
//! that never reaches the end-to-end number is visible as such).
//!
//! `BENCHMARK.json` at the repository root and the README table are both
//! checked against this table by tests, so the three cannot drift.

/// Direction of improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How a metric is judged by `compare`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// End-to-end: may worsen by at most this share of the base value.
    EndToEnd { bound: f64 },
    /// A timing or ratio of one layer: reported, never gated.
    Layer,
    /// A count or statistic that is a pure function of the seed: two runs
    /// of one seed must agree to 1e-9 or something changed behaviour.
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Which end-to-end metric this should move, on which workload.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::EndToEnd { bound },
        moves,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::Layer,
        moves,
    }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::Exact,
        moves,
    }
}

use Better::{Higher, Lower};

const COLD: &str = "throughput_rps, latency_us_* on cold_stream and zipf_mixed; \
                    latency_us_*, rel_overhead on paper_cells; none on warm_repeat";
const WARM: &str = "throughput_rps, latency_us_p50 on warm_repeat; at most 10% of cold_stream";
const SETUP: &str = "setup_s on all workloads";
const QUEUE: &str = "latency_us_* on the service workloads, most on zipf_mixed";
const ACCURACY: &str = "nothing timed: drift is a statistical regression (paper_cells)";
const DIAG: &str = "diagnostic";

/// Every metric, end-to-end first. Every workload reports every metric; a
/// layer a workload does not exercise reads 0.
pub const METRICS: &[Metric] = &[
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "what a restart costs: datagen + calibrate + samples + planning + reference \
         predictions + service start + warm pass (median of three set-ups)",
    ),
    e2e(
        "throughput_rps",
        "1/s",
        Higher,
        0.15,
        "predictions completed per second: closed loop, 64 in flight (service workloads); \
         back-to-back uncached Predictor::predict on one thread (paper_cells)",
    ),
    e2e(
        "latency_us_p50",
        "us",
        Lower,
        0.15,
        "median time from a request's due time to its answer, open loop at the workload's \
         fixed rate (service workloads); median uncached predict call (paper_cells)",
    ),
    e2e(
        "latency_us_p95",
        "us",
        Lower,
        0.25,
        "95th percentile of the same; p99/p999 do not repeat on this box and stay diagnostics",
    ),
    e2e(
        "full_exec_us_p50",
        "us",
        Lower,
        0.20,
        "median execute_full over the workload's probe queries (service workloads: the \
         pool's MICRO grid, the same work for every seed; paper_cells: every query on both \
         databases): the denominator of rel_overhead, so a slower denominator cannot pass \
         as a gain",
    ),
    e2e(
        "rel_overhead",
        "ratio",
        Lower,
        0.20,
        "the paper's section 6.4 claim, prediction cost over query cost (paper_cells: mean \
         over queries of median predict / median execute_full; service workloads: \
         latency_us_p50 / full_exec_us_p50, the answer's delay in median MICRO queries)",
    ),
    // engine
    layer("engine.sample_exec_us", "us", Lower, COLD),
    exact("engine.sample_rows_out", "count", Lower, COLD),
    layer(
        "engine.full_exec_us",
        "us",
        Lower,
        "full_exec_us_p50 on all workloads",
    ),
    layer(
        "engine.full_rows_per_s",
        "1/s",
        Higher,
        "full_exec_us_p50 on all workloads",
    ),
    layer("engine.validate_ns", "ns", Lower, WARM),
    layer("engine.plan_us", "us", Lower, SETUP),
    // selest
    layer("selest.estimate_us", "us", Lower, COLD),
    layer("selest.rel_sampling_overhead", "ratio", Lower, COLD),
    // cost
    layer("cost.context_build_us", "us", Lower, COLD),
    layer("cost.fit_us", "us", Lower, COLD),
    exact("cost.fit_calls", "count", Lower, COLD),
    layer("cost.calibrate_ms", "ms", Lower, SETUP),
    // core
    layer("core.variance_algebra_us", "us", Lower, WARM),
    layer("core.key_build_ns", "ns", Lower, WARM),
    layer(
        "core.predict_uncached_us",
        "us",
        Lower,
        "setup_s (reference predictions); latency_us_* on paper_cells",
    ),
    // service
    layer("service.sel_cache_get_ns", "ns", Lower, WARM),
    layer("service.fit_cache_get_ns", "ns", Lower, WARM),
    layer(
        "service.sel_cache_put_ns",
        "ns",
        Lower,
        "throughput_rps on cold_stream and zipf_mixed (the cache's write path)",
    ),
    layer(
        "service.fit_cache_put_ns",
        "ns",
        Lower,
        "throughput_rps on cold_stream and zipf_mixed (the cache's write path)",
    ),
    exact(
        "service.sel_evictions",
        "count",
        Lower,
        "throughput_rps on cold_stream and zipf_mixed",
    ),
    exact(
        "service.sel_hit_rate",
        "ratio",
        Higher,
        "throughput_rps, latency_us_* on zipf_mixed; pins the layer separation \
           (>= 0.99 warm_repeat, <= 0.10 cold_stream)",
    ),
    exact(
        "service.fit_hit_rate",
        "ratio",
        Higher,
        "throughput_rps on zipf_mixed",
    ),
    layer("service.queue_hop_ns", "ns", Lower, WARM),
    layer("service.admission_ns", "ns", Lower, WARM),
    layer(
        "service.overhead_us",
        "us",
        Lower,
        "throughput_rps on warm_repeat",
    ),
    layer("service.service_us_p50", "us", Lower, QUEUE),
    layer("service.service_us_p95", "us", Lower, QUEUE),
    layer("service.queue_wait_us_p50", "us", Lower, QUEUE),
    layer("service.queue_wait_us_p95", "us", Lower, QUEUE),
    layer("service.worker_busy_share", "ratio", Lower, DIAG),
    layer("service.tier_full_share", "ratio", Higher, DIAG),
    layer("service.admit_share", "ratio", Higher, DIAG),
    layer("service.latency_us_p99", "us", Lower, DIAG),
    layer("service.latency_us_p999", "us", Lower, DIAG),
    layer("service.backlog_max", "count", Lower, DIAG),
    // telemetry
    layer(
        "telemetry.span_overhead_share",
        "ratio",
        Lower,
        "throughput_rps on warm_repeat once spans are always on (ROADMAP 5b gates it under 1%)",
    ),
    layer("telemetry.snapshot_us", "us", Lower, DIAG),
    // set-up
    layer("datagen.build_ms", "ms", Lower, SETUP),
    layer("storage.draw_samples_ms", "ms", Lower, SETUP),
    layer("workloads.pool_gen_ms", "ms", Lower, SETUP),
    // experiments (paper_cells only)
    exact("experiments.corr_rs", "ratio", Higher, ACCURACY),
    exact("experiments.corr_rp", "ratio", Higher, ACCURACY),
    exact("experiments.dn", "ratio", Lower, ACCURACY),
    exact("experiments.rs.u1g-micro", "ratio", Higher, ACCURACY),
    exact("experiments.rs.u1g-seljoin", "ratio", Higher, ACCURACY),
    exact("experiments.rs.u1g-tpch", "ratio", Higher, ACCURACY),
    exact("experiments.rs.s10g-micro", "ratio", Higher, ACCURACY),
    exact("experiments.rs.s10g-seljoin", "ratio", Higher, ACCURACY),
    exact("experiments.rs.s10g-tpch", "ratio", Higher, ACCURACY),
    exact("experiments.rp.u1g-micro", "ratio", Higher, ACCURACY),
    exact("experiments.rp.u1g-seljoin", "ratio", Higher, ACCURACY),
    exact("experiments.rp.u1g-tpch", "ratio", Higher, ACCURACY),
    exact("experiments.rp.s10g-micro", "ratio", Higher, ACCURACY),
    exact("experiments.rp.s10g-seljoin", "ratio", Higher, ACCURACY),
    exact("experiments.rp.s10g-tpch", "ratio", Higher, ACCURACY),
    exact("experiments.dn.u1g-micro", "ratio", Lower, ACCURACY),
    exact("experiments.dn.u1g-seljoin", "ratio", Lower, ACCURACY),
    exact("experiments.dn.u1g-tpch", "ratio", Lower, ACCURACY),
    exact("experiments.dn.s10g-micro", "ratio", Lower, ACCURACY),
    exact("experiments.dn.s10g-seljoin", "ratio", Lower, ACCURACY),
    exact("experiments.dn.s10g-tpch", "ratio", Lower, ACCURACY),
    // the harness itself
    layer(
        "gen.late_us_p99",
        "us",
        Lower,
        "validity: above 100 us the run is refused",
    ),
    layer("gen.submit_ns", "ns", Lower, DIAG),
    layer(
        "trace.unattributed_ns",
        "ns",
        Lower,
        "traced time no stage covers (clock reads included)",
    ),
    layer(
        "trace.request_us",
        "us",
        Lower,
        "the sum of the traced layer times: validate, key build, cache gets and puts, \
           sample execution, estimation, context build, fit, algebra, unattributed",
    ),
    layer(
        "trace.hot_share",
        "ratio",
        Lower,
        "share of traced time in sample execution + estimation + fitting \
           (>= 0.5 cold_stream, <= 0.05 warm_repeat)",
    ),
    layer(
        "trace.closure_ratio",
        "ratio",
        Lower,
        "validity: outside [0.9, 1.1] a stage is missing and the run is refused",
    ),
    layer("trace.overhead_share", "ratio", Lower, DIAG),
];

pub fn end_to_end() -> impl Iterator<Item = &'static Metric> {
    METRICS
        .iter()
        .filter(|m| matches!(m.kind, Kind::EndToEnd { .. }))
}

pub fn per_layer() -> impl Iterator<Item = &'static Metric> {
    METRICS
        .iter()
        .filter(|m| !matches!(m.kind, Kind::EndToEnd { .. }))
}

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "warm_repeat",
        why: "212-instance pool, uniform picks, default caches: both cache levels hit, so core \
              algebra and the service hop do the work; Poisson 15000 req/s",
    },
    WorkloadInfo {
        name: "cold_stream",
        why: "4104 fresh-literal instances cycled against a 1024-entry cache: every request runs \
              the sample pass, the fits and a cache insert + eviction; Poisson 3000 req/s",
    },
    WorkloadInfo {
        name: "zipf_mixed",
        why: "same pool and cache, Zipf(1.0) picks, bursty MMPP arrivals at a mean 8000 req/s: \
              hits, inserts, evictions and queueing interleave",
    },
    WorkloadInfo {
        name: "paper_cells",
        why: "no service, one thread: uncached predict and execute_full over MICRO+SELJOIN+TPCH \
              on Uniform1G and Skewed10G, the paper's own section 6.4 measurement",
    },
];

/// The `uaq-bench list` output: a Markdown table the README embeds verbatim.
pub fn render_list() -> String {
    let mut out = String::new();
    out.push_str("| workload | why |\n|---|---|\n");
    for w in WORKLOADS {
        out.push_str(&format!("| `{}` | {} |\n", w.name, squash(w.why)));
    }
    out.push_str("\n| metric | unit | better | judged | moves |\n|---|---|---|---|---|\n");
    for m in METRICS {
        let judged = match m.kind {
            Kind::EndToEnd { bound } => format!("end-to-end, bound {:.0}%", bound * 100.0),
            Kind::Layer => "layer".to_string(),
            Kind::Exact => "exact for a seed".to_string(),
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.label(),
            judged,
            squash(m.moves)
        ));
    }
    out
}

/// The default length of one workload's timed phases, in seconds.
pub const RUN_SECONDS: u64 = 20;

/// The `uaq-bench list --json` output: the repository's `BENCHMARK.json`,
/// which is generated from this table and checked against it by a test.
pub fn render_benchmark_json() -> String {
    let rows = |rows: Vec<String>| rows.join(",\n");
    let quoted = |s: &str| uaq_telemetry::Json::str(s).to_text();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"uaq-bench/Cargo.toml\", \"--\", \"run\"],\n  \
         \"paths\": [\"uaq-bench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        rows(WORKLOADS
            .iter()
            .map(|w| format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(&squash(w.why))
            ))
            .collect()),
        rows(end_to_end()
            .map(|m| {
                let Kind::EndToEnd { bound } = m.kind else {
                    unreachable!("end_to_end() filters on the kind")
                };
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                    quoted(m.name),
                    quoted(m.unit),
                    quoted(m.better.label())
                )
            })
            .collect()),
        rows(per_layer()
            .map(|m| format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.label())
            ))
            .collect()),
    )
}

/// Collapses the source-level line continuations to single spaces.
fn squash(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use uaq_telemetry::Json;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in METRICS {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(per_layer().count() <= 128);
        for w in WORKLOADS {
            assert!(squash(w.why).len() <= 200, "{} why too long", w.name);
        }
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. Regenerate with `uaq-bench list --json` when this
    /// fails.
    #[test]
    fn benchmark_json_is_generated_from_the_inventory() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, render_benchmark_json());
        let json = Json::parse(committed).expect("BENCHMARK.json parses");
        let Json::Obj(fields) = &json else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
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
        assert!(end_to_end().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(committed.len() < 64 * 1024);
    }

    /// The README embeds `uaq-bench list` between two markers; regenerate
    /// with `uaq-bench list` when this fails.
    #[test]
    fn readme_table_is_the_list_output() {
        let readme = include_str!("../README.md");
        let begin = "<!-- uaq-bench list: begin -->\n";
        let end = "<!-- uaq-bench list: end -->";
        let start = readme.find(begin).expect("begin marker") + begin.len();
        let stop = readme.find(end).expect("end marker");
        assert_eq!(&readme[start..stop], render_list());
    }
}
