//! Sample tables — the materialized views of §3.2.2.
//!
//! The paper's estimator partitions each relation into blocks and lets the
//! block size be a single tuple, so a "sampling step" draws one tuple
//! uniformly (i.i.d., with replacement). We materialize `n_k` such draws per
//! relation as a sample table whose *row position* is the sampling-step
//! index — that position is the provenance identifier the `Q_{k,j,n}`
//! counters of Algorithm 1 key on ("akin to the idea in data provenance
//! research", §3.2.2).
//!
//! Because estimates for nested operators reuse join results (Example 4),
//! two children of the same join must not share samples of a common base
//! relation (Lemma 2); the catalog therefore supports several *independent*
//! sample tables per relation, addressed by a copy index.
//!
//! Sample tables are drawn once and read by every prediction, so what a
//! sample-mode operator needs from a column that does not depend on the
//! request is computed once per table and column instead of once per
//! execution: which steps hold which join key ([`SampleTable::join_index`],
//! `Int` columns) and an order-preserving dictionary code per step
//! ([`SampleTable::str_dict`], `Str` columns).

use crate::column::ColumnData;
use crate::table::Table;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use uaq_stats::Rng;

/// Join-key index over one `Int` column of a sample table: key → the
/// sampling steps holding it, ascending (the order a hash join over the
/// unfiltered table emits its matches in).
#[derive(Debug, Clone)]
pub struct JoinIndex {
    /// Key → its `start..end` range of `steps`.
    ranges: HashMap<i64, (u32, u32)>,
    /// Step positions grouped by key, ascending within a group.
    steps: Vec<u32>,
}

impl JoinIndex {
    fn build(keys: &[i64]) -> Self {
        // Sorting (key, step) pairs groups equal keys with their steps
        // ascending; one pass over the runs records each key's range.
        let mut pairs: Vec<(i64, u32)> = keys.iter().copied().zip(0u32..).collect();
        pairs.sort_unstable();
        let mut ranges = HashMap::new();
        let mut start = 0u32;
        for run in pairs.chunk_by(|a, b| a.0 == b.0) {
            let end = start + run.len() as u32;
            if let Some(&(key, _)) = run.first() {
                ranges.insert(key, (start, end));
            }
            start = end;
        }
        Self {
            ranges,
            steps: pairs.into_iter().map(|(_, step)| step).collect(),
        }
    }

    /// The steps whose key equals `key`, ascending; empty if none does.
    pub fn steps(&self, key: i64) -> &[u32] {
        self.ranges
            .get(&key)
            .and_then(|&(start, end)| self.steps.get(start as usize..end as usize))
            .unwrap_or(&[])
    }
}

/// Dictionary encoding of one `Str` column of a sample table: the
/// column's distinct strings in ascending order, and per sampling step the
/// position (code) of its string among them. Codes follow string order, so
/// every equality or ordering test against a literal is a test on codes
/// once the literal is placed among the strings ([`StrDict::code_range`]).
#[derive(Debug, Clone)]
pub struct StrDict {
    /// Distinct strings, ascending; code `c` stands for `values[c]`.
    values: Vec<Arc<str>>,
    /// One code per sampling step, in step order.
    codes: Vec<u32>,
}

impl StrDict {
    fn build(cells: &[Arc<str>]) -> Self {
        // Sorting (string, step) pairs groups equal strings in ascending
        // order; each run is one code, written back to its steps.
        let mut pairs: Vec<(&Arc<str>, u32)> = cells.iter().zip(0u32..).collect();
        pairs.sort_unstable();
        let mut values = Vec::new();
        let mut codes = vec![0u32; cells.len()];
        for run in pairs.chunk_by(|a, b| a.0 == b.0) {
            let code = values.len() as u32;
            if let Some(&(value, _)) = run.first() {
                values.push(Arc::clone(value));
            }
            for &(_, step) in run {
                if let Some(slot) = codes.get_mut(step as usize) {
                    *slot = code;
                }
            }
        }
        Self { values, codes }
    }

    /// Each sampling step's code, in step order.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The codes whose string equals `s`: one code if some step holds `s`,
    /// otherwise the empty range at the place `s` would take. Either way
    /// every code below the range orders before `s` and every code from
    /// its end on orders after it.
    pub fn code_range(&self, s: &str) -> Range<u32> {
        let start = self.values.partition_point(|v| **v < *s);
        let found = self.values.get(start).is_some_and(|v| **v == *s);
        start as u32..(start + usize::from(found)) as u32
    }
}

/// The literal-independent index of one sample-table column.
#[derive(Debug, Clone)]
enum ColumnIndex {
    Join(JoinIndex),
    Dict(StrDict),
}

/// One lazily built [`ColumnIndex`] slot per column (`None` inside: the
/// column is `Float`, which nothing indexes). Lives in the table it
/// describes, so it can never outlive or be confused with another table's.
/// An index is a pure function of the immutable sample rows, hence
/// invisible to `Debug` and to the catalog fingerprint whether or not it
/// has been built yet.
#[derive(Clone)]
struct ColumnIndexes(Vec<OnceLock<Option<ColumnIndex>>>);

impl fmt::Debug for ColumnIndexes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ColumnIndexes(..)")
    }
}

/// One i.i.d.-with-replacement sample of a base relation.
#[derive(Debug, Clone)]
pub struct SampleTable {
    /// Name of the sampled base relation.
    base_name: String,
    /// Cardinality of the base relation (`|R|`), needed to scale
    /// selectivities back to cardinalities.
    base_rows: usize,
    /// Which independent sample copy this is (0-based).
    copy: usize,
    /// The sampled rows; row `j` is sampling step `j`.
    table: Table,
    /// Join-key indexes and string dictionaries over `table`'s columns,
    /// built on first use.
    indexes: ColumnIndexes,
}

impl SampleTable {
    /// Draws `n` tuples i.i.d. with replacement from `base`.
    pub fn draw(base: &Table, n: usize, copy: usize, rng: &mut Rng) -> Self {
        assert!(n > 0, "empty sample of {}", base.name());
        assert!(
            !base.is_empty(),
            "cannot sample empty table {}",
            base.name()
        );
        // Gather typed columns by sampled index instead of cloning rows —
        // the draw itself is on the Monte-Carlo hot path, and the row
        // mirror of the resulting table stays unmaterialized unless a row
        // consumer asks for it.
        let idx: Vec<u32> = (0..n).map(|_| rng.usize_below(base.len()) as u32).collect();
        let columns: Vec<_> = base.columns().iter().map(|c| c.gather(&idx)).collect();
        let table = Table::from_columns(
            format!("{}#s{}", base.name(), copy),
            base.schema().clone(),
            columns,
            base.tuples_per_page(),
        );
        Self {
            base_name: base.name().to_string(),
            base_rows: base.len(),
            copy,
            indexes: ColumnIndexes(vec![OnceLock::new(); table.columns().len()]),
            table,
        }
    }

    pub fn base_name(&self) -> &str {
        &self.base_name
    }

    /// `|R|` of the base relation.
    pub fn base_rows(&self) -> usize {
        self.base_rows
    }

    pub fn copy(&self) -> usize {
        self.copy
    }

    /// Number of sampling steps `n_k`.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The sample rows as a regular table (row position = step index).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Effective sampling ratio `n_k / |R|`.
    pub fn ratio(&self) -> f64 {
        self.len() as f64 / self.base_rows as f64
    }

    /// The index of column `col`, built on the first call and shared by
    /// every later one — across threads too: concurrent first calls build
    /// it once (`OnceLock`). Not built at draw time: a Monte-Carlo run
    /// draws a fresh catalog per iteration and must not pay for indexes of
    /// columns it never joins or filters on.
    fn index(&self, col: usize) -> Option<&ColumnIndex> {
        self.indexes
            .0
            .get(col)?
            .get_or_init(|| match self.table.columns().get(col).map(|c| c.as_ref()) {
                Some(ColumnData::Int(keys)) => Some(ColumnIndex::Join(JoinIndex::build(keys))),
                Some(ColumnData::Str(cells)) => Some(ColumnIndex::Dict(StrDict::build(cells))),
                _ => None,
            })
            .as_ref()
    }

    /// The join-key index of column `col` (built once, see above). `None`
    /// for a column the index does not cover (non-`Int`, or out of range).
    pub fn join_index(&self, col: usize) -> Option<&JoinIndex> {
        match self.index(col)? {
            ColumnIndex::Join(index) => Some(index),
            ColumnIndex::Dict(_) => None,
        }
    }

    /// The string dictionary of column `col` (built once, like
    /// [`SampleTable::join_index`]). `None` for a non-`Str` column or one
    /// out of range.
    pub fn str_dict(&self, col: usize) -> Option<&StrDict> {
        match self.index(col)? {
            ColumnIndex::Dict(dict) => Some(dict),
            ColumnIndex::Join(_) => None,
        }
    }
}

/// Computes the per-relation sample size for a target sampling ratio.
///
/// Follows the paper's §6.4 rule of thumb: "the sample size should be larger
/// than or equal to 30 in general" — the CLT normality of `ρ_n` needs a
/// minimum number of sampling steps, so tiny dimension tables are sampled at
/// least 30 times (capped at the relation size; duplicates are fine since
/// steps are i.i.d. with replacement, but beyond `|R|` extra steps add
/// nothing for our in-memory substrate).
pub fn sample_size_for_ratio(base_rows: usize, ratio: f64) -> usize {
    assert!(
        ratio > 0.0 && ratio.is_finite(),
        "bad sampling ratio {ratio}"
    );
    let target = (base_rows as f64 * ratio).round() as usize;
    target.max(30).min(base_rows.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::Value;

    fn base(n: usize) -> Table {
        let schema = Schema::new(vec![Column::int("id")]);
        let rows = (0..n).map(|i| vec![Value::Int(i as i64)]).collect();
        Table::new("base", schema, rows)
    }

    #[test]
    fn draw_has_requested_size_and_metadata() {
        let b = base(1000);
        let mut rng = Rng::new(1);
        let s = SampleTable::draw(&b, 50, 2, &mut rng);
        assert_eq!(s.len(), 50);
        assert_eq!(s.base_rows(), 1000);
        assert_eq!(s.copy(), 2);
        assert_eq!(s.base_name(), "base");
        assert_eq!(s.table().name(), "base#s2");
        assert!((s.ratio() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn draw_rows_come_from_base() {
        let b = base(100);
        let mut rng = Rng::new(2);
        let s = SampleTable::draw(&b, 200, 0, &mut rng);
        for row in s.table().rows() {
            let id = row[0].as_int();
            assert!((0..100).contains(&id));
        }
    }

    #[test]
    fn with_replacement_allows_duplicates() {
        let b = base(3);
        let mut rng = Rng::new(3);
        let s = SampleTable::draw(&b, 50, 0, &mut rng);
        // Pigeonhole: 50 draws from 3 rows must repeat.
        assert_eq!(s.len(), 50);
    }

    #[test]
    fn draws_are_roughly_uniform() {
        let b = base(10);
        let mut rng = Rng::new(4);
        let mut counts = [0u32; 10];
        let s = SampleTable::draw(&b, 100_000, 0, &mut rng);
        for row in s.table().rows() {
            counts[row[0].as_int() as usize] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 10_000).abs() < 700, "{counts:?}");
        }
    }

    #[test]
    fn independent_copies_differ() {
        let b = base(10_000);
        let mut rng = Rng::new(5);
        let s0 = SampleTable::draw(&b, 100, 0, &mut rng);
        let s1 = SampleTable::draw(&b, 100, 1, &mut rng);
        let same = s0
            .table()
            .rows()
            .iter()
            .zip(s1.table().rows())
            .filter(|(a, b)| a[0] == b[0])
            .count();
        assert!(same < 5, "copies look identical ({same} matches)");
    }

    #[test]
    fn join_index_groups_steps_by_key_ascending() {
        let schema = Schema::new(vec![Column::int("k"), Column::str("s")]);
        let rows = (0..7)
            .map(|i| vec![Value::Int(i % 3), Value::str("x")])
            .collect();
        let b = Table::new("base", schema, rows);
        let s = SampleTable::draw(&b, 200, 0, &mut Rng::new(6));
        let ColumnData::Int(keys) = s.table().columns()[0].as_ref() else {
            panic!("k is Int")
        };
        let index = s.join_index(0).expect("Int column is indexed");
        for key in -1..4 {
            let want: Vec<u32> = (0..keys.len() as u32)
                .filter(|&j| keys[j as usize] == key)
                .collect();
            assert_eq!(index.steps(key), want, "key {key}");
        }
        // Same allocation on every later call; no index for other types or
        // columns that do not exist.
        assert!(std::ptr::eq(index, s.join_index(0).expect("built")));
        assert!(s.join_index(1).is_none());
        assert!(s.join_index(2).is_none());
    }

    #[test]
    fn str_dict_codes_follow_string_order() {
        let schema = Schema::new(vec![Column::str("s"), Column::float("f")]);
        let words = ["pear", "apple", "fig", "apple", "kiwi"];
        let rows = (0..words.len())
            .map(|i| vec![Value::str(words[i]), Value::Float(i as f64)])
            .collect();
        let b = Table::new("base", schema, rows);
        let s = SampleTable::draw(&b, 300, 0, &mut Rng::new(8));
        let ColumnData::Str(cells) = s.table().columns()[0].as_ref() else {
            panic!("s is Str")
        };
        let dict = s.str_dict(0).expect("Str column is encoded");
        let values: Vec<&str> = dict.values.iter().map(|v| &**v).collect();
        assert_eq!(values, ["apple", "fig", "kiwi", "pear"]);
        assert_eq!(dict.codes().len(), cells.len());
        for (cell, &code) in cells.iter().zip(dict.codes()) {
            assert_eq!(dict.values[code as usize], *cell);
        }
        // Present literals own one code; absent ones an empty range at the
        // place they would take.
        assert_eq!(dict.code_range("fig"), 1..2);
        assert_eq!(dict.code_range("banana"), 1..1);
        assert_eq!(dict.code_range("a"), 0..0);
        assert_eq!(dict.code_range("zebra"), 4..4);
        // Same allocation on every later call; no dictionary for other
        // types or columns that do not exist, and no join index for Str.
        assert!(std::ptr::eq(dict, s.str_dict(0).expect("built")));
        assert!(s.str_dict(1).is_none());
        assert!(s.str_dict(2).is_none());
        assert!(s.join_index(0).is_none());
    }

    #[test]
    fn building_an_index_is_invisible_to_debug_and_clone() {
        let schema = Schema::new(vec![Column::int("id"), Column::str("tag")]);
        let rows = (0..50)
            .map(|i| vec![Value::Int(i), Value::str(format!("t{}", i % 6))])
            .collect();
        let b = Table::new("base", schema, rows);
        let s = SampleTable::draw(&b, 30, 0, &mut Rng::new(7));
        let before = format!("{s:?}");
        let cold_clone = s.clone();
        s.join_index(0).expect("Int column");
        s.str_dict(1).expect("Str column");
        assert_eq!(format!("{s:?}"), before);
        // A clone works the same whether or not its source had built them.
        for c in [cold_clone, s.clone()] {
            assert_eq!(format!("{c:?}"), before);
            assert_eq!(
                c.join_index(0).expect("Int").steps(3),
                s.join_index(0).expect("Int").steps(3)
            );
            let (dict, built) = (c.str_dict(1).expect("Str"), s.str_dict(1).expect("Str"));
            assert_eq!(dict.codes(), built.codes());
            assert_eq!(dict.values, built.values);
        }
    }

    #[test]
    fn sample_size_floor_of_thirty() {
        assert_eq!(sample_size_for_ratio(1000, 0.05), 50);
        // Rule-of-thumb floor...
        assert_eq!(sample_size_for_ratio(1000, 0.01), 30);
        // ...capped at the relation size for tiny tables.
        assert_eq!(sample_size_for_ratio(10, 0.01), 10);
        assert_eq!(sample_size_for_ratio(1_000_000, 0.001), 1000);
    }
}
