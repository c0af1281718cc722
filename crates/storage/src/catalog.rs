//! The catalog: base tables, their optimizer statistics, and sample sets.

use crate::column::ColumnData;
use crate::histogram::Histogram;
use crate::sample::{sample_size_for_ratio, SampleTable};
use crate::table::Table;
use std::collections::{BTreeMap, HashMap, HashSet};
use uaq_stats::Rng;

/// Number of histogram buckets kept per numeric column.
const HISTOGRAM_BUCKETS: usize = 64;

/// Per-table optimizer statistics (the `pg_statistic` stand-in).
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    /// Equi-depth histogram per numeric column.
    histograms: HashMap<String, Histogram>,
    /// Exact distinct counts per column (numeric and string alike).
    distinct: HashMap<String, usize>,
}

impl TableStats {
    fn build(table: &Table) -> Self {
        let mut histograms = HashMap::new();
        let mut distinct = HashMap::new();
        for (idx, col) in table.schema().columns().iter().enumerate() {
            let mut seen: HashSet<String> = HashSet::new();
            let mut numeric: Vec<f64> = Vec::with_capacity(table.len());
            for row in table.rows() {
                let v = &row[idx];
                seen.insert(v.to_string());
                if let Some(x) = v.numeric() {
                    numeric.push(x);
                }
            }
            distinct.insert(col.name.to_string(), seen.len());
            if !numeric.is_empty() {
                histograms.insert(
                    col.name.to_string(),
                    Histogram::build(&numeric, HISTOGRAM_BUCKETS),
                );
            }
        }
        Self {
            histograms,
            distinct,
        }
    }

    pub fn histogram(&self, column: &str) -> Option<&Histogram> {
        self.histograms.get(column)
    }

    /// Distinct-value count of a column (0 if unknown).
    pub fn distinct(&self, column: &str) -> usize {
        self.distinct.get(column).copied().unwrap_or(0)
    }
}

/// The database: named base tables plus statistics.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
    stats: BTreeMap<String, TableStats>,
    /// Memoized [`Catalog::fingerprint`]; invalidated by [`Catalog::add_table`].
    fingerprint: std::sync::OnceLock<u64>,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a table, rebuilding its statistics and dropping
    /// the memoized fingerprint (the only mutation a catalog supports, so
    /// resetting here keeps the cached digest trustworthy).
    pub fn add_table(&mut self, table: Table) {
        let stats = TableStats::build(&table);
        self.stats.insert(table.name().to_string(), stats);
        self.tables.insert(table.name().to_string(), table);
        self.fingerprint = std::sync::OnceLock::new();
    }

    pub fn table(&self, name: &str) -> &Table {
        self.tables
            .get(name)
            .unwrap_or_else(|| panic!("no table {name:?} in catalog"))
    }

    pub fn try_table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    pub fn stats(&self, name: &str) -> &TableStats {
        self.stats
            .get(name)
            .unwrap_or_else(|| panic!("no stats for table {name:?}"))
    }

    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total number of rows across all tables (for reporting).
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }

    /// FNV-1a digest of everything the cost model reads from the catalog:
    /// per table (in name order) its name, row count, page count, and
    /// per-column distinct counts. Two catalogs with equal fingerprints
    /// yield identical `NodeCostContext`s for any plan, so cache layers
    /// keying on plan shape mix this in to stay safe when one process
    /// serves several databases.
    /// Memoized after the first call; [`Catalog::add_table`] (the only
    /// mutating operation) resets the memo, so a stale digest can never be
    /// served.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = Fnv1a::new();
            for (name, table) in &self.tables {
                h.eat(name.as_bytes());
                h.eat(&(table.len() as u64).to_le_bytes());
                h.eat(&(table.pages() as u64).to_le_bytes());
                let stats = &self.stats[name];
                for col in table.schema().columns() {
                    h.eat(&(stats.distinct(&col.name) as u64).to_le_bytes());
                }
            }
            h.finish()
        })
    }

    /// Draws `copies` independent sample tables per relation at the given
    /// sampling ratio. Empty relations are skipped — they cannot be sampled,
    /// and queries that do not touch them must still be predictable.
    pub fn draw_samples(&self, ratio: f64, copies: usize, rng: &mut Rng) -> SampleCatalog {
        assert!(copies > 0);
        let mut samples = BTreeMap::new();
        for table in self.tables.values() {
            if table.is_empty() {
                continue;
            }
            let n = sample_size_for_ratio(table.len(), ratio);
            let per_table: Vec<SampleTable> = (0..copies)
                .map(|c| SampleTable::draw(table, n, c, rng))
                .collect();
            samples.insert(table.name().to_string(), per_table);
        }
        let fingerprint = fingerprint_samples(&samples);
        SampleCatalog {
            ratio,
            samples,
            fingerprint,
        }
    }
}

/// Incremental FNV-1a — the digest shared by [`Catalog::fingerprint`] and
/// [`fingerprint_samples`], kept in one place so the two fingerprints can
/// never drift apart.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a digest of the full *contents* of a sample set: per relation (in
/// name order), per copy, every cell bit-exactly (floats by bit pattern,
/// matching [`crate::Value`] equality). Selectivity estimates are a pure
/// function of (plan, samples, catalog), so equal fingerprints here — plus
/// equal catalog fingerprints — make cached estimates safe to re-serve, up
/// to the 2⁻⁶⁴-probability collision a 64-bit non-cryptographic digest
/// admits. Computed once at draw time; sample tables are immutable
/// afterwards.
fn fingerprint_samples(samples: &BTreeMap<String, Vec<SampleTable>>) -> u64 {
    let mut h = Fnv1a::new();
    for (name, copies) in samples {
        h.eat(name.as_bytes());
        h.eat(&(copies.len() as u64).to_le_bytes());
        for sample in copies {
            h.eat(&(sample.len() as u64).to_le_bytes());
            for col in sample.table().columns() {
                match col.as_ref() {
                    ColumnData::Int(v) => {
                        h.eat(&[0u8]);
                        for x in v {
                            h.eat(&x.to_le_bytes());
                        }
                    }
                    ColumnData::Float(v) => {
                        h.eat(&[1u8]);
                        for x in v {
                            h.eat(&x.to_bits().to_le_bytes());
                        }
                    }
                    ColumnData::Str(v) => {
                        h.eat(&[2u8]);
                        for s in v {
                            h.eat(&(s.len() as u64).to_le_bytes());
                            h.eat(s.as_bytes());
                        }
                    }
                }
            }
        }
    }
    h.finish()
}

/// Materialized sample tables for every relation of a catalog.
#[derive(Debug, Clone)]
pub struct SampleCatalog {
    ratio: f64,
    samples: BTreeMap<String, Vec<SampleTable>>,
    /// Content digest, see [`fingerprint_samples`].
    fingerprint: u64,
}

impl SampleCatalog {
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// Content digest of the whole sample set: catalogs with bit-identical
    /// sample tables — which produce bit-identical selectivity estimates
    /// for any plan — share a fingerprint. Cache layers keyed on (plan
    /// shape, literals) mix this in so a re-drawn sample set is not served
    /// stale estimates (up to a 64-bit digest collision; see
    /// [`fingerprint_samples`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of independent copies kept per relation.
    pub fn copies(&self) -> usize {
        self.samples.values().next().map_or(0, Vec::len)
    }

    /// Whether any sample tables were drawn for `relation`. Empty base
    /// relations are skipped at draw time, so a plan scanning one would
    /// panic in [`Self::sample`] — validators check this first.
    pub fn has_relation(&self, relation: &str) -> bool {
        self.samples
            .get(relation)
            .is_some_and(|copies| !copies.is_empty())
    }

    /// The `copy`-th independent sample of `relation` (falls back to copy 0
    /// if fewer copies exist than requested — the paper's multi-sample trick
    /// is an optimisation, not a requirement).
    pub fn sample(&self, relation: &str, copy: usize) -> &SampleTable {
        let copies = self
            .samples
            .get(relation)
            .unwrap_or_else(|| panic!("no samples for relation {relation:?}"));
        copies.get(copy).unwrap_or(&copies[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::Value;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![Column::int("id"), Column::str("tag")]);
        let rows = (0..500)
            .map(|i| vec![Value::Int(i % 50), Value::str(format!("t{}", i % 5))])
            .collect();
        c.add_table(Table::new("r", schema, rows));
        c
    }

    #[test]
    fn stats_distinct_counts() {
        let c = catalog();
        let s = c.stats("r");
        assert_eq!(s.distinct("id"), 50);
        assert_eq!(s.distinct("tag"), 5);
        assert_eq!(s.distinct("missing"), 0);
    }

    #[test]
    fn sample_fingerprint_tracks_contents() {
        use uaq_stats::Rng;
        let c = catalog();
        // Same seed ⇒ same draws ⇒ same fingerprint.
        let a = c.draw_samples(0.1, 2, &mut Rng::new(9));
        let b = c.draw_samples(0.1, 2, &mut Rng::new(9));
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Different seed ⇒ different rows ⇒ different fingerprint.
        let d = c.draw_samples(0.1, 2, &mut Rng::new(10));
        assert_ne!(a.fingerprint(), d.fingerprint());
        // Clones share contents and fingerprint.
        assert_eq!(a.clone().fingerprint(), a.fingerprint());
        // Lazily built column indexes are derived data: not part of the digest.
        a.sample("r", 0).join_index(0).expect("id is Int");
        a.sample("r", 1).str_dict(1).expect("tag is Str");
        let indexed_clone = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(indexed_clone.fingerprint(), b.fingerprint());
    }

    #[test]
    fn histogram_only_for_numeric() {
        let c = catalog();
        let s = c.stats("r");
        assert!(s.histogram("id").is_some());
        assert!(s.histogram("tag").is_none());
    }

    #[test]
    #[should_panic(expected = "no table")]
    fn missing_table_panics() {
        catalog().table("nope");
    }

    #[test]
    fn sample_catalog_shape() {
        let c = catalog();
        let mut rng = Rng::new(10);
        let sc = c.draw_samples(0.1, 2, &mut rng);
        assert_eq!(sc.copies(), 2);
        assert!((sc.ratio() - 0.1).abs() < 1e-12);
        assert_eq!(sc.sample("r", 0).len(), 50);
        assert_eq!(sc.sample("r", 1).len(), 50);
        // Requesting a copy beyond what exists falls back to copy 0.
        assert_eq!(sc.sample("r", 7).copy(), 0);
    }

    #[test]
    fn sample_size_capped_reasonably() {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![Column::int("id")]);
        let rows = (0..6).map(|i| vec![Value::Int(i)]).collect();
        c.add_table(Table::new("tiny", schema, rows));
        let mut rng = Rng::new(1);
        let sc = c.draw_samples(0.01, 1, &mut rng);
        // Floor of 30 steps, capped at |R| = 6.
        assert_eq!(sc.sample("tiny", 0).len(), 6);
    }

    #[test]
    fn total_rows() {
        assert_eq!(catalog().total_rows(), 500);
    }

    #[test]
    fn fingerprint_tracks_cost_model_inputs() {
        let base = catalog();
        assert_eq!(base.fingerprint(), catalog().fingerprint(), "deterministic");

        // More rows ⇒ different cardinalities ⇒ different fingerprint.
        let mut bigger = catalog();
        let schema = Schema::new(vec![Column::int("id")]);
        bigger.add_table(Table::new(
            "extra",
            schema,
            (0..10).map(|i| vec![Value::Int(i)]).collect(),
        ));
        assert_ne!(base.fingerprint(), bigger.fingerprint());

        // Same table sizes but different distinct counts (key densities
        // diverge) ⇒ different fingerprint.
        let make = |modulus: i64| {
            let mut c = Catalog::new();
            c.add_table(Table::new(
                "t",
                Schema::new(vec![Column::int("k")]),
                (0..100).map(|i| vec![Value::Int(i % modulus)]).collect(),
            ));
            c
        };
        assert_ne!(make(5).fingerprint(), make(20).fingerprint());
    }
}
