//! The one output schema, its JSON form, and `compare`.
//!
//! ```text
//! {env: {cores, workers, rustc, profile, commit, seed}, quick,
//!  workloads: {<name>: {e2e: {<metric>: {value, spread}},
//!                       layers: {<metric>: value},
//!                       counts: {<phase>: {attempted, failed}}}}}
//! ```

use crate::inventory::{self, Better, Kind};
use crate::summary::Measured;
use std::collections::BTreeMap;
use uaq_telemetry::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    pub cores: u64,
    pub workers: u64,
    pub rustc: String,
    pub profile: String,
    pub commit: String,
    pub seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
}

#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadResult {
    pub e2e: BTreeMap<String, Measured>,
    pub layers: BTreeMap<String, f64>,
    /// Per phase (`sat`, `paced`, `trace`, …).
    pub counts: BTreeMap<String, Counts>,
}

impl WorkloadResult {
    pub fn total(&self) -> Counts {
        self.counts
            .values()
            .fold(Counts::default(), |acc, c| Counts {
                attempted: acc.attempted + c.attempted,
                failed: acc.failed + c.failed,
            })
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub env: Env,
    pub quick: bool,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn map_obj<V>(map: &BTreeMap<String, V>, f: impl Fn(&V) -> Json) -> Json {
    Json::Obj(map.iter().map(|(k, v)| (k.clone(), f(v))).collect())
}

impl Report {
    pub fn to_json(&self) -> Json {
        let env = &self.env;
        obj(vec![
            (
                "env",
                obj(vec![
                    ("cores", Json::u64(env.cores)),
                    ("workers", Json::u64(env.workers)),
                    ("rustc", Json::str(&env.rustc)),
                    ("profile", Json::str(&env.profile)),
                    ("commit", Json::str(&env.commit)),
                    ("seed", Json::u64(env.seed)),
                ]),
            ),
            ("quick", Json::Bool(self.quick)),
            (
                "workloads",
                map_obj(&self.workloads, |w| {
                    obj(vec![
                        (
                            "e2e",
                            map_obj(&w.e2e, |m| {
                                obj(vec![
                                    ("value", Json::f64(m.value)),
                                    ("spread", Json::f64(m.spread)),
                                ])
                            }),
                        ),
                        ("layers", map_obj(&w.layers, |v| Json::f64(*v))),
                        (
                            "counts",
                            map_obj(&w.counts, |c| {
                                obj(vec![
                                    ("attempted", Json::u64(c.attempted)),
                                    ("failed", Json::u64(c.failed)),
                                ])
                            }),
                        ),
                    ])
                }),
            ),
        ])
    }

    pub fn from_json(json: &Json) -> Result<Report, String> {
        let need = |j: &Json, k: &str| j.get(k).cloned().ok_or(format!("missing `{k}`"));
        let text = |j: &Json, k: &str| {
            need(j, k)?
                .as_str()
                .map(str::to_string)
                .ok_or(format!("`{k}` is not a string"))
        };
        let uint = |j: &Json, k: &str| need(j, k)?.as_u64().ok_or(format!("`{k}` is not a count"));
        let num = |j: &Json, k: &str| need(j, k)?.as_f64().ok_or(format!("`{k}` is not a number"));
        let entries = |j: &Json, k: &str| match need(j, k)? {
            Json::Obj(fields) => Ok(fields),
            _ => Err(format!("`{k}` is not an object")),
        };

        let env = need(json, "env")?;
        let mut workloads = BTreeMap::new();
        for (name, w) in entries(json, "workloads")? {
            let mut result = WorkloadResult::default();
            for (metric, m) in entries(&w, "e2e")? {
                let measured = Measured {
                    value: num(&m, "value")?,
                    spread: num(&m, "spread")?,
                };
                result.e2e.insert(metric, measured);
            }
            for (metric, v) in entries(&w, "layers")? {
                let v = v
                    .as_f64()
                    .ok_or(format!("layer `{metric}` is not a number"))?;
                result.layers.insert(metric, v);
            }
            for (phase, c) in entries(&w, "counts")? {
                let counts = Counts {
                    attempted: uint(&c, "attempted")?,
                    failed: uint(&c, "failed")?,
                };
                result.counts.insert(phase, counts);
            }
            workloads.insert(name, result);
        }
        Ok(Report {
            env: Env {
                cores: uint(&env, "cores")?,
                workers: uint(&env, "workers")?,
                rustc: text(&env, "rustc")?,
                profile: text(&env, "profile")?,
                commit: text(&env, "commit")?,
                seed: uint(&env, "seed")?,
            },
            quick: matches!(need(json, "quick")?, Json::Bool(true)),
            workloads,
        })
    }

    /// `workload metric unit value` lines, end-to-end first.
    pub fn echo(&self) -> String {
        let mut out = String::new();
        for (name, w) in &self.workloads {
            for m in inventory::METRICS {
                let value = match m.kind {
                    Kind::EndToEnd { .. } => w.e2e.get(m.name).map(|x| x.value),
                    _ => w.layers.get(m.name).copied(),
                };
                if let Some(v) = value {
                    out.push_str(&format!("{name} {} {} {v}\n", m.name, m.unit));
                }
            }
            for (phase, c) in &w.counts {
                out.push_str(&format!(
                    "{name} {phase}.attempted count {}\n{name} {phase}.failed count {}\n",
                    c.attempted, c.failed
                ));
            }
        }
        out
    }
}

/// The line the benchmark driver reads: one workload, either the
/// end-to-end metrics (`layers == false`) or the per-layer ones.
pub fn driver_line(result: &WorkloadResult, layers: bool, correct: bool) -> String {
    let metrics: Vec<(String, Json)> = inventory::METRICS
        .iter()
        .filter(|m| matches!(m.kind, Kind::EndToEnd { .. }) != layers)
        .map(|m| {
            let value = if layers {
                result.layers.get(m.name).copied()
            } else {
                result.e2e.get(m.name).map(|x| x.value)
            };
            let value = obj(vec![
                ("value", Json::f64(value.unwrap_or(0.0))),
                ("unit", Json::str(m.unit)),
            ]);
            (m.name.to_string(), value)
        })
        .collect();
    let total = result.total();
    obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::u64(total.attempted)),
        ("failed", Json::u64(total.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_text()
}

/// Outcome of comparing two reports.
pub struct Comparison {
    pub table: String,
    pub regressions: usize,
}

/// Judges `head` against `base`, one row per workload × metric. Every
/// ratio is printed with its base. Refuses inputs that are not comparable.
pub fn compare(base: &Report, head: &Report) -> Result<Comparison, String> {
    if base.quick || head.quick {
        return Err(
            "refused: a --quick report measures 1/20 of the work and is not comparable".into(),
        );
    }
    for (what, b, h) in [
        ("env.cores", base.env.cores, head.env.cores),
        ("env.workers", base.env.workers, head.env.workers),
        ("env.seed", base.env.seed, head.env.seed),
    ] {
        if b != h {
            return Err(format!("refused: {what} differs (base {b}, head {h})"));
        }
    }

    let mut table = format!(
        "base {} vs head {}: cores {}, workers {}, seed {}\n",
        base.env.commit, head.env.commit, base.env.cores, base.env.workers, base.env.seed
    );
    if base.env.cores == 1 {
        table.push_str("scaling statements refused: env.cores == 1\n");
    } else {
        table.push_str(&format!(
            "scaling: {} worker(s) on {} cores; shard scaling is not exercised below 4 cores\n",
            base.env.workers, base.env.cores
        ));
    }
    table.push_str("workload metric unit base head head/base verdict\n");

    let mut regressions = 0;
    for (name, b) in &base.workloads {
        let Some(h) = head.workloads.get(name) else {
            continue;
        };
        if h.total().failed > b.total().failed {
            regressions += 1;
            table.push_str(&format!(
                "{name} failed count {} {} - REGRESSION (more operations fail)\n",
                b.total().failed,
                h.total().failed
            ));
        }
        for m in inventory::METRICS {
            let (bv, hv, spread) = match m.kind {
                Kind::EndToEnd { .. } => match (b.e2e.get(m.name), h.e2e.get(m.name)) {
                    (Some(x), Some(y)) => (x.value, y.value, x.spread.max(y.spread)),
                    _ => continue,
                },
                _ => match (b.layers.get(m.name), h.layers.get(m.name)) {
                    (Some(x), Some(y)) => (*x, *y, 0.0),
                    _ => continue,
                },
            };
            let verdict = match m.kind {
                Kind::EndToEnd { bound } => {
                    let worse_by = match m.better {
                        Better::Lower => (hv - bv) / bv,
                        Better::Higher => (bv - hv) / bv,
                    };
                    if spread > bound {
                        format!(
                            "unresolved (own spread {:.1}% > bound {:.0}%)",
                            spread * 100.0,
                            bound * 100.0
                        )
                    } else if worse_by > bound {
                        regressions += 1;
                        format!(
                            "REGRESSION (worse by {:.1}% > {:.0}%)",
                            worse_by * 100.0,
                            bound * 100.0
                        )
                    } else {
                        "ok".to_string()
                    }
                }
                Kind::Exact if (hv - bv).abs() > 1e-9 => {
                    regressions += 1;
                    "REGRESSION (must repeat exactly for one seed)".to_string()
                }
                Kind::Exact => "ok".to_string(),
                Kind::Layer => "-".to_string(),
            };
            let ratio = if bv == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", hv / bv)
            };
            table.push_str(&format!(
                "{name} {} {} {bv} {hv} {ratio} {verdict}\n",
                m.name, m.unit
            ));
        }
    }
    Ok(Comparison { table, regressions })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let mut w = WorkloadResult::default();
        w.e2e.insert(
            "throughput_rps".into(),
            Measured {
                value: 71234.5,
                spread: 0.012,
            },
        );
        w.e2e.insert(
            "latency_us_p50".into(),
            Measured {
                value: 33.125,
                spread: 0.02,
            },
        );
        w.layers
            .insert("service.sel_hit_rate".into(), 0.8101851851851852);
        w.layers.insert("core.key_build_ns".into(), 412.75);
        w.counts.insert(
            "sat".into(),
            Counts {
                attempted: 648_000,
                failed: 0,
            },
        );
        w.counts.insert(
            "paced".into(),
            Counts {
                attempted: 165_000,
                failed: 0,
            },
        );
        Report {
            env: Env {
                cores: 2,
                workers: 1,
                rustc: "rustc 1.95.0".into(),
                profile: "release".into(),
                commit: "abc1234".into(),
                seed: 18_446_744_073_709_551_557,
            },
            quick: false,
            workloads: BTreeMap::from([("warm_repeat".to_string(), w)]),
        }
    }

    #[test]
    fn json_round_trips() {
        let report = sample_report();
        let text = report.to_json().to_text();
        let back = Report::from_json(&Json::parse(&text).expect("parses")).expect("schema");
        assert_eq!(back, report);
        assert_eq!(back.to_json().to_text(), text);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let report = sample_report();
        let line = driver_line(&report.workloads["warm_repeat"], false, true);
        let json = Json::parse(&line).expect("one JSON object");
        let Json::Obj(fields) = &json else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(813_000));
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(metrics.len(), inventory::end_to_end().count());
        let layers = driver_line(&report.workloads["warm_repeat"], true, true);
        let Some(Json::Obj(metrics)) = Json::parse(&layers).expect("json").get("metrics").cloned()
        else {
            panic!("metrics")
        };
        assert_eq!(metrics.len(), inventory::per_layer().count());
    }

    #[test]
    fn compare_applies_direction_bound_and_spread() {
        let base = sample_report();
        let verdicts = |head: &Report| compare(&base, head).expect("comparable");

        assert_eq!(verdicts(&base).regressions, 0);

        // Throughput is better-higher with a 10% bound: -15% regresses,
        // +15% does not.
        let mut slow = base.clone();
        let w = slow.workloads.get_mut("warm_repeat").expect("workload");
        w.e2e.get_mut("throughput_rps").expect("metric").value *= 0.85;
        let c = verdicts(&slow);
        assert_eq!(c.regressions, 1);
        assert!(
            c.table.contains("warm_repeat throughput_rps 1/s 71234.5"),
            "{}",
            c.table
        );
        let mut fast = base.clone();
        let w = fast.workloads.get_mut("warm_repeat").expect("workload");
        w.e2e.get_mut("throughput_rps").expect("metric").value *= 1.15;
        assert_eq!(verdicts(&fast).regressions, 0);

        // A run noisier than the bound cannot resolve the same difference.
        let mut noisy = slow.clone();
        let w = noisy.workloads.get_mut("warm_repeat").expect("workload");
        w.e2e.get_mut("throughput_rps").expect("metric").spread = 0.3;
        let c = verdicts(&noisy);
        assert_eq!(c.regressions, 0);
        assert!(c.table.contains("unresolved"));

        // Exact metrics must repeat to 1e-9.
        let mut drift = base.clone();
        let w = drift.workloads.get_mut("warm_repeat").expect("workload");
        *w.layers.get_mut("service.sel_hit_rate").expect("metric") += 1e-6;
        assert_eq!(verdicts(&drift).regressions, 1);
    }

    #[test]
    fn compare_refuses_incomparable_inputs() {
        let base = sample_report();
        let refused = |edit: fn(&mut Report)| {
            let mut head = base.clone();
            edit(&mut head);
            compare(&base, &head).err().expect("refused")
        };
        assert!(refused(|r| r.env.cores = 4).contains("env.cores"));
        assert!(refused(|r| r.env.workers = 3).contains("env.workers"));
        assert!(refused(|r| r.env.seed = 1).contains("env.seed"));
        assert!(refused(|r| r.quick = true).contains("--quick"));

        let mut one_core = base.clone();
        one_core.env.cores = 1;
        let c = compare(&one_core, &one_core).expect("comparable");
        assert!(c.table.contains("scaling statements refused"));
    }
}
