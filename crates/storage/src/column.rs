//! Column-major data: one typed vector per column.
//!
//! The engine's data plane executes over [`ColumnData`] batches instead of
//! `Vec<Row>`: a selection is an index vector into typed columns, a join
//! gathers row indices, and rows are only materialized on explicit request
//! at the edge. The three variants mirror the 3-type [`Value`] model —
//! 64-bit integers, 64-bit floats, and interned strings.
//!
//! Column payloads travel as [`ColumnRef`] — an `Arc`-shared handle that is
//! O(1) to clone, so an operator that passes a column through unchanged (an
//! unfiltered scan, a keep-everything filter, a materialize) *shares* the
//! payload with its input instead of deep-copying it. Code that needs to
//! mutate a possibly-shared column goes through [`ColumnRef::make_mut`],
//! the copy-on-write escape hatch: it clones the payload only when someone
//! else still holds it. (The engine's operators currently never mutate in
//! place — they build fresh columns — so `make_mut` is exercised by the
//! CoW proptests and reserved for in-place builders.)

use crate::schema::{ColumnType, Schema};
use crate::value::{Row, Value};
use std::ops::Deref;
use std::sync::Arc;

/// One column of values, stored contiguously by type.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<Arc<str>>),
}

impl ColumnData {
    /// An empty column of the given type.
    pub fn empty(ty: ColumnType) -> Self {
        match ty {
            ColumnType::Int => ColumnData::Int(Vec::new()),
            ColumnType::Float => ColumnData::Float(Vec::new()),
            ColumnType::Str => ColumnData::Str(Vec::new()),
        }
    }

    /// An empty column of the given type with reserved capacity.
    pub fn with_capacity(ty: ColumnType, cap: usize) -> Self {
        match ty {
            ColumnType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            ColumnType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            ColumnType::Str => ColumnData::Str(Vec::with_capacity(cap)),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn ty(&self) -> ColumnType {
        match self {
            ColumnData::Int(_) => ColumnType::Int,
            ColumnData::Float(_) => ColumnType::Float,
            ColumnData::Str(_) => ColumnType::Str,
        }
    }

    /// Materializes cell `i` as a [`Value`].
    pub fn value(&self, i: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
        }
    }

    /// Appends a value; panics if the value's type does not match the column.
    pub fn push(&mut self, v: &Value) {
        match (self, v) {
            (ColumnData::Int(col), Value::Int(x)) => col.push(*x),
            (ColumnData::Float(col), Value::Float(x)) => col.push(*x),
            // Int widens into a Float column (aggregate outputs may mix the
            // two, e.g. an empty-input MIN defaulting to integer zero).
            (ColumnData::Float(col), Value::Int(x)) => col.push(*x as f64),
            (ColumnData::Str(col), Value::Str(x)) => col.push(x.clone()),
            (col, v) => panic!("cannot push {v:?} into {:?} column", col.ty()),
        }
    }

    /// New column containing `self[idx[0]], self[idx[1]], …`.
    pub fn gather(&self, idx: &[u32]) -> ColumnData {
        match self {
            ColumnData::Int(v) => ColumnData::Int(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Float(v) => ColumnData::Float(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Str(v) => {
                ColumnData::Str(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
        }
    }

    /// Two-level gather `self[inner[outer[k]]]` for every `k` in one typed
    /// pass: the fast path for densifying a depth-2 selection chain without
    /// first composing the index vectors and without per-cell [`Value`]
    /// round-trips.
    pub fn gather2(&self, inner: &[u32], outer: &[u32]) -> ColumnData {
        match self {
            ColumnData::Int(v) => ColumnData::Int(
                outer
                    .iter()
                    .map(|&k| v[inner[k as usize] as usize])
                    .collect(),
            ),
            ColumnData::Float(v) => ColumnData::Float(
                outer
                    .iter()
                    .map(|&k| v[inner[k as usize] as usize])
                    .collect(),
            ),
            ColumnData::Str(v) => ColumnData::Str(
                outer
                    .iter()
                    .map(|&k| v[inner[k as usize] as usize].clone())
                    .collect(),
            ),
        }
    }
}

impl AsRef<ColumnData> for ColumnData {
    fn as_ref(&self) -> &ColumnData {
        self
    }
}

/// A reference-counted column handle: the unit of the zero-copy data plane.
///
/// Cloning a `ColumnRef` bumps a refcount; the typed payload is shared.
/// Every read path (`Deref` to [`ColumnData`]) is free of indirection cost
/// beyond the `Arc`, and [`ColumnRef::make_mut`] gives copy-on-write
/// mutation for the rare paths that build a column in place: semantically
/// identical to eagerly cloning the payload first (a property the storage
/// proptests pin down), but paying for the copy only when the column is
/// actually shared.
#[derive(Debug, Clone)]
pub struct ColumnRef {
    data: Arc<ColumnData>,
}

impl ColumnRef {
    /// Wraps freshly built column data (refcount 1 — not yet shared).
    pub fn new(data: ColumnData) -> Self {
        Self {
            data: Arc::new(data),
        }
    }

    /// Copy-on-write access: clones the payload iff another handle shares
    /// it, so mutating through the returned reference can never be observed
    /// by other holders.
    pub fn make_mut(&mut self) -> &mut ColumnData {
        Arc::make_mut(&mut self.data)
    }

    /// True if both handles share one allocation — what a pass-through
    /// operator guarantees (stronger than payload equality).
    pub fn ptr_eq(&self, other: &ColumnRef) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Number of handles sharing the payload (tests use this to prove that
    /// sharing actually happens, not just compiles).
    pub fn strong_count(&self) -> usize {
        Arc::strong_count(&self.data)
    }

    /// New handle containing `self[idx[0]], self[idx[1]], …` (always a
    /// fresh, unshared payload).
    pub fn gather(&self, idx: &[u32]) -> ColumnRef {
        ColumnRef::new(self.data.gather(idx))
    }
}

impl Deref for ColumnRef {
    type Target = ColumnData;

    fn deref(&self) -> &ColumnData {
        &self.data
    }
}

impl AsRef<ColumnData> for ColumnRef {
    fn as_ref(&self) -> &ColumnData {
        &self.data
    }
}

impl From<ColumnData> for ColumnRef {
    fn from(data: ColumnData) -> Self {
        ColumnRef::new(data)
    }
}

/// Maximum depth of a [`ColumnSlice`] selection chain before it is
/// flattened into a single composed index vector. Selection-over-selection
/// keeps filters zero-copy, but every level adds one dependent load per
/// read; past this bound the chain is composed once (O(rows) u32 writes)
/// so reads stay cache-friendly.
pub const MAX_SELECTION_DEPTH: usize = 3;

/// A late-materialized column view: a shared base column plus an optional
/// chain of shared selection vectors.
///
/// This is the unit of the stage-two zero-copy data plane. A selective
/// operator (filter, join output, sort) no longer gathers fresh payloads —
/// it emits `ColumnSlice`s that layer an `Arc`-shared index vector over the
/// input's slices, with one selection `Arc` shared across *all* columns of
/// a batch. Reads (`value`, [`ColumnSlice::for_each_physical`]) resolve the
/// indirection; [`ColumnSlice::to_dense`] is the single place payloads are
/// actually copied, deferred until a consumer needs dense cells
/// (aggregation state build, sort keys, schema-changing ops, the service
/// edge).
///
/// The chain is stored innermost-first: logical row `i` reads
/// `base[sels[0][sels[1][… sels[k-1][i] …]]]`. Chains deeper than
/// [`MAX_SELECTION_DEPTH`] are flattened on construction.
#[derive(Debug, Clone)]
pub struct ColumnSlice {
    base: ColumnRef,
    sels: Vec<Arc<Vec<u32>>>,
}

impl ColumnSlice {
    /// A dense view of a whole column (no indirection; refcount bump only).
    pub fn dense(base: ColumnRef) -> Self {
        Self {
            base,
            sels: Vec::new(),
        }
    }

    /// A view of `base` restricted to `sel` (shared, not copied).
    pub fn selected(base: ColumnRef, sel: Arc<Vec<u32>>) -> Self {
        debug_assert!(sel.iter().all(|&i| (i as usize) < base.len()));
        Self {
            base,
            sels: vec![sel],
        }
    }

    /// Logical length: rows visible through the selection chain.
    pub fn len(&self) -> usize {
        self.sels.last().map_or(self.base.len(), |s| s.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn ty(&self) -> ColumnType {
        self.base.ty()
    }

    /// True when no selection is layered over the base column.
    pub fn is_dense(&self) -> bool {
        self.sels.is_empty()
    }

    /// Current chain depth (0 for a dense slice, ≤ [`MAX_SELECTION_DEPTH`]).
    pub fn selection_depth(&self) -> usize {
        self.sels.len()
    }

    /// The shared base column the selection chain reads through.
    pub fn base(&self) -> &ColumnRef {
        &self.base
    }

    /// Outermost selection vector (`None` when dense). Tests use the `Arc`
    /// identity to prove one selection is shared across a batch's columns.
    pub fn top_selection(&self) -> Option<&Arc<Vec<u32>>> {
        self.sels.last()
    }

    /// Physical base index of logical row `i`.
    #[inline]
    pub fn physical(&self, i: usize) -> usize {
        let mut p = i;
        for s in self.sels.iter().rev() {
            p = s[p] as usize;
        }
        p
    }

    /// Materializes logical cell `i` as a [`Value`].
    pub fn value(&self, i: usize) -> Value {
        self.base.value(self.physical(i))
    }

    /// Calls `f` with the physical index of every logical row, in logical
    /// order — depth-specialized so reads compile to direct indexed loads
    /// instead of a per-row chain walk.
    #[inline]
    pub fn for_each_physical(&self, mut f: impl FnMut(usize)) {
        match self.sels.as_slice() {
            [] => (0..self.base.len()).for_each(f),
            [s0] => s0.iter().for_each(|&p| f(p as usize)),
            [s0, s1] => s1.iter().for_each(|&p| f(s0[p as usize] as usize)),
            chain => {
                let (outer, inner) = chain.split_last().expect("chain non-empty");
                for &p in outer.iter() {
                    let mut q = p as usize;
                    for s in inner.iter().rev() {
                        q = s[q] as usize;
                    }
                    f(q);
                }
            }
        }
    }

    /// Layers a further selection (over this slice's *logical* rows) on
    /// top, flattening if the chain would exceed [`MAX_SELECTION_DEPTH`].
    /// For whole batches prefer [`ColumnSlice::select_all`], which shares
    /// one flattened vector across columns.
    pub fn select(&self, sel: &Arc<Vec<u32>>) -> ColumnSlice {
        let mut sels = self.sels.clone();
        sels.push(sel.clone());
        if sels.len() > MAX_SELECTION_DEPTH {
            sels = vec![Arc::new(compose_chain(&sels))];
        }
        ColumnSlice {
            base: self.base.clone(),
            sels,
        }
    }

    /// Applies one shared selection to every column of a batch, in place:
    /// each slice keeps its base handle and gains the same selection `Arc`
    /// (no handle or index copies — every caller owns the batch it
    /// re-selects). Chains that exceed [`MAX_SELECTION_DEPTH`] are
    /// flattened, and the composed vector is memoized per distinct input
    /// chain, so columns that shared a chain before still share one
    /// flattened vector after.
    pub fn select_all(cols: Vec<ColumnSlice>, sel: &Arc<Vec<u32>>) -> Vec<ColumnSlice> {
        // Memo key: the chain's Arc pointer identities, so columns sharing
        // a selection chain resolve to one flattened vector.
        type ChainKey = Vec<*const Vec<u32>>;
        let mut flats: Vec<(ChainKey, Arc<Vec<u32>>)> = Vec::new();
        cols.into_iter()
            .map(|mut c| {
                c.sels.push(sel.clone());
                if c.sels.len() > MAX_SELECTION_DEPTH {
                    let key: ChainKey = c.sels.iter().map(Arc::as_ptr).collect();
                    let flat = match flats.iter().find(|(k, _)| *k == key) {
                        Some((_, f)) => f.clone(),
                        None => {
                            let f = Arc::new(compose_chain(&c.sels));
                            flats.push((key, f.clone()));
                            f
                        }
                    };
                    c.sels = vec![flat];
                }
                c
            })
            .collect()
    }

    /// Densifies the view: a column holding exactly the selected cells, in
    /// logical order. This is where deferred gathers finally happen — via
    /// the typed per-variant loops ([`ColumnData::gather`] /
    /// [`ColumnData::gather2`]), never per-cell `Value` round-trips. A
    /// dense slice densifies for free: the base handle is shared, which
    /// preserves the stage-one pass-through `ptr_eq` guarantees.
    pub fn to_dense(&self) -> ColumnRef {
        match self.sels.as_slice() {
            [] => self.base.clone(),
            [s0] => self.base.gather(s0),
            [s0, s1] => ColumnRef::new(self.base.gather2(s0, s1)),
            chain => self.base.gather(&compose_chain(chain)),
        }
    }
}

impl From<ColumnRef> for ColumnSlice {
    fn from(base: ColumnRef) -> Self {
        ColumnSlice::dense(base)
    }
}

impl From<ColumnData> for ColumnSlice {
    fn from(data: ColumnData) -> Self {
        ColumnSlice::dense(ColumnRef::new(data))
    }
}

/// Composes a selection chain (innermost first) into one index vector:
/// `out[i] = sels[0][sels[1][… sels[last][i] …]]`.
fn compose_chain(sels: &[Arc<Vec<u32>>]) -> Vec<u32> {
    let (outer, inner) = sels.split_last().expect("chain non-empty");
    let mut flat: Vec<u32> = outer.as_ref().clone();
    for s in inner.iter().rev() {
        for p in flat.iter_mut() {
            *p = s[*p as usize];
        }
    }
    flat
}

/// Builds column vectors from schema-conformant rows.
pub fn columns_from_rows(schema: &Schema, rows: &[Row]) -> Vec<ColumnData> {
    let mut cols: Vec<ColumnData> = schema
        .columns()
        .iter()
        .map(|c| ColumnData::with_capacity(c.ty, rows.len()))
        .collect();
    for row in rows {
        debug_assert_eq!(row.len(), cols.len(), "row arity mismatch");
        for (col, v) in cols.iter_mut().zip(row) {
            col.push(v);
        }
    }
    cols
}

/// Materializes rows `0..len` from a set of equal-length columns, reading
/// through any column handle (`ColumnData` or [`ColumnRef`]) without copying
/// the columns themselves.
pub fn rows_from_columns<C: AsRef<ColumnData>>(cols: &[C], len: usize) -> Vec<Row> {
    (0..len)
        .map(|i| cols.iter().map(|c| c.as_ref().value(i)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn sample() -> (Schema, Vec<Row>) {
        let schema = Schema::new(vec![Column::int("a"), Column::float("b"), Column::str("c")]);
        let rows = (0..5)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Float(i as f64 * 0.5),
                    Value::str(format!("s{i}")),
                ]
            })
            .collect();
        (schema, rows)
    }

    #[test]
    fn roundtrip_rows_columns_rows() {
        let (schema, rows) = sample();
        let cols = columns_from_rows(&schema, &rows);
        assert_eq!(cols.len(), 3);
        assert!(cols.iter().all(|c| c.len() == 5));
        assert_eq!(rows_from_columns(&cols, 5), rows);
    }

    #[test]
    fn gather_selects_and_reorders() {
        let (schema, rows) = sample();
        let cols = columns_from_rows(&schema, &rows);
        let g = cols[0].gather(&[4, 0, 0]);
        assert_eq!(g, ColumnData::Int(vec![4, 0, 0]));
        let g = cols[2].gather(&[1, 3]);
        assert_eq!(g.value(0), Value::str("s1"));
        assert_eq!(g.value(1), Value::str("s3"));
    }

    #[test]
    fn push_widens_int_into_float() {
        let mut c = ColumnData::empty(ColumnType::Float);
        c.push(&Value::Int(3));
        assert_eq!(c.value(0), Value::Float(3.0));
        // Cross-type Value equality also holds: Int(3) == Float(3.0).
        assert_eq!(c.value(0), Value::Int(3));
    }

    #[test]
    #[should_panic(expected = "cannot push")]
    fn push_rejects_str_into_int() {
        ColumnData::empty(ColumnType::Int).push(&Value::str("x"));
    }

    fn int_col(n: i64) -> ColumnRef {
        ColumnRef::new(ColumnData::Int((0..n).collect()))
    }

    #[test]
    fn slice_reads_through_selection_chain() {
        let base = int_col(10);
        let s1 = ColumnSlice::selected(base, Arc::new(vec![9, 7, 5, 3, 1]));
        assert_eq!(s1.len(), 5);
        assert_eq!(s1.value(0), Value::Int(9));
        assert_eq!(s1.value(4), Value::Int(1));
        // Select logical rows [1, 3] of the view → physical [7, 3].
        let s2 = s1.select(&Arc::new(vec![1, 3]));
        assert_eq!(s2.selection_depth(), 2);
        assert_eq!(s2.len(), 2);
        assert_eq!(s2.physical(0), 7);
        assert_eq!(s2.value(1), Value::Int(3));
        let mut phys = Vec::new();
        s2.for_each_physical(|p| phys.push(p));
        assert_eq!(phys, vec![7, 3]);
    }

    #[test]
    fn slice_gather_matches_eager_composition_at_every_depth() {
        let base = int_col(20);
        let mut slice = ColumnSlice::dense(base);
        let mut eager: Vec<i64> = (0..20).collect();
        // Stack selections well past the flatten bound; after every layer
        // the slice must read exactly what eager gathering would produce.
        for (round, step) in [(0u32, 2usize), (1, 2), (0, 3), (1, 2), (0, 2)] {
            let sel: Vec<u32> = (0..eager.len() as u32)
                .filter(|i| i % step as u32 == round)
                .collect();
            eager = sel.iter().map(|&i| eager[i as usize]).collect();
            slice = slice.select(&Arc::new(sel));
            assert!(slice.selection_depth() <= MAX_SELECTION_DEPTH);
            assert_eq!(slice.len(), eager.len());
            let got: Vec<i64> = (0..slice.len())
                .map(|i| match slice.value(i) {
                    Value::Int(v) => v,
                    v => panic!("unexpected {v:?}"),
                })
                .collect();
            assert_eq!(got, eager);
            assert_eq!(slice.to_dense().as_ref(), &ColumnData::Int(eager.clone()));
        }
    }

    #[test]
    fn dense_slice_densifies_by_sharing() {
        let base = int_col(5);
        let slice = ColumnSlice::dense(base.clone());
        assert!(slice.is_dense());
        assert!(slice.to_dense().ptr_eq(&base));
    }

    #[test]
    fn select_all_shares_one_selection_across_columns() {
        let a = int_col(10);
        let b = ColumnRef::new(ColumnData::Float((0..10).map(|i| i as f64).collect()));
        let sel = Arc::new(vec![1u32, 4, 8]);
        let out = ColumnSlice::select_all(
            vec![ColumnSlice::dense(a.clone()), ColumnSlice::dense(b)],
            &sel,
        );
        let tops: Vec<_> = out
            .iter()
            .map(|s| s.top_selection().expect("selected"))
            .collect();
        assert!(Arc::ptr_eq(tops[0], &sel));
        assert!(Arc::ptr_eq(tops[0], tops[1]));
        // Base payloads are untouched: still shared with the input handles.
        assert!(out[0].base().ptr_eq(&a));
    }

    #[test]
    fn select_all_flatten_memoizes_shared_chains() {
        let a = ColumnSlice::dense(int_col(16));
        let b = ColumnSlice::dense(int_col(16));
        let mut cols = vec![a, b];
        // Push chains to the bound, then once more: both columns shared
        // every chain level, so the flattened vectors must be shared too.
        for _ in 0..MAX_SELECTION_DEPTH {
            let sel = Arc::new((0..cols[0].len() as u32 / 2).map(|i| i * 2).collect());
            cols = ColumnSlice::select_all(cols, &sel);
        }
        assert_eq!(cols[0].selection_depth(), MAX_SELECTION_DEPTH);
        let sel = Arc::new(vec![0u32, 1]);
        let flat = ColumnSlice::select_all(cols.clone(), &sel);
        assert_eq!(flat[0].selection_depth(), 1);
        assert!(Arc::ptr_eq(
            flat[0].top_selection().expect("flattened"),
            flat[1].top_selection().expect("flattened")
        ));
        assert_eq!(flat[0].value(1), cols[0].select(&sel).value(1));
    }

    #[test]
    fn gather2_matches_composed_gather() {
        let (schema, rows) = sample();
        for col in columns_from_rows(&schema, &rows) {
            let inner = [4u32, 2, 0, 3];
            let outer = [3u32, 3, 1, 0];
            let composed: Vec<u32> = outer.iter().map(|&k| inner[k as usize]).collect();
            assert_eq!(col.gather2(&inner, &outer), col.gather(&composed));
        }
    }
}
