//! Pins the sample pass bit for bit: an FNV-1a digest of
//! `SelEstimates::canonical_bytes` over every MICRO, SELJOIN and TPCH plan
//! on one small uniform and one small skewed database. An executor change
//! that is meant to leave predictions alone (a faster kernel, a shared
//! index) must leave both digests exactly where they are; a change that
//! moves one is a change of results and has to say so.
//!
//! Recompute a digest by running this test and reading the value the
//! failing assertion prints.

use std::collections::BTreeMap;
use uaq_datagen::GenConfig;
use uaq_engine::{execute_on_samples, plan_query, Op};
use uaq_selest::{AggCardinalitySource, SelEstimates};
use uaq_stats::Rng;
use uaq_storage::ColumnType;
use uaq_workloads::Benchmark;

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The digest of every plan's estimates on the `z`-skewed database, plus,
/// per `Str` column a scan predicate reads, the most sample rows any scan
/// on it kept.
fn digest(z: f64, seed: u64) -> (u64, BTreeMap<String, usize>) {
    let catalog = GenConfig::new(0.002, z, seed).build();
    let mut rng = Rng::new(seed ^ 0x5A3D);
    let samples = catalog.draw_samples(0.05, 2, &mut rng);
    let mut hits: BTreeMap<String, usize> = BTreeMap::new();
    let mut fnv = Fnv::new();
    for benchmark in Benchmark::ALL {
        for spec in benchmark.queries(&catalog, 2, &mut rng) {
            let plan = plan_query(&spec, &catalog);
            let estimates =
                SelEstimates::compute(&plan, &samples, &catalog, AggCardinalitySource::Optimizer);
            fnv.write(&estimates.canonical_bytes());
            let outcome = execute_on_samples(&plan, &samples);
            for id in plan.node_ids() {
                let (Op::SeqScan { table, predicate }
                | Op::IndexScan {
                    table, predicate, ..
                }) = plan.op(id)
                else {
                    continue;
                };
                let schema = catalog.table(table).schema();
                for col in predicate.columns() {
                    let is_str = schema
                        .index_of(col)
                        .is_some_and(|i| schema.column(i).ty == ColumnType::Str);
                    if is_str {
                        let kept = hits.entry(col.to_string()).or_default();
                        *kept = (*kept).max(outcome.traces[id].output_rows);
                    }
                }
            }
        }
    }
    (fnv.0, hits)
}

fn check(z: f64, seed: u64, want: u64) {
    let (got, hits) = digest(z, seed);
    // The string predicates must select something, or the digest would not
    // see what a string kernel keeps.
    assert!(hits.len() >= 4, "z={z}: string columns seen: {hits:?}");
    for (col, kept) in &hits {
        assert!(*kept > 0, "z={z}: no scan on {col} kept a sample row");
    }
    assert_eq!(got, want, "z={z}: sample-pass digest is {got:#018x}");
}

#[test]
fn uniform_sample_pass_digest_is_pinned() {
    check(0.0, 41, 0x48796bf9dfe15e50);
}

#[test]
fn skewed_sample_pass_digest_is_pinned() {
    check(1.0, 42, 0x09a1984b10e4b496);
}
