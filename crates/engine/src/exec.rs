//! Plan execution over **columnar batches**.
//!
//! One executor serves two purposes:
//!
//! * **Full mode** runs a plan against the base tables, producing the query
//!   answer and the *true* per-operator cardinalities (the ground truth the
//!   simulated hardware charges for, and the reference for selectivity-error
//!   experiments, Tables 6–9).
//! * **Sample mode** runs the *same* plan against the materialized sample
//!   tables, with every intermediate row carrying provenance: the sampling
//!   step index of each contributing sample tuple (one per leaf relation of
//!   the subtree). This is exactly the annotated execution of §3.2.2 from
//!   which `ρ_n` and `S_n²` are computed in one pass. It stops at the first
//!   aggregate on each root path — Algorithm 1 takes the optimizer's
//!   estimate from there up — and it reuses what the sample tables, drawn
//!   once, already know (see [`execute_on_samples`]).
//!
//! # Columnar data plane
//!
//! Intermediate results flow between operators as a [`Batch`]: one
//! [`uaq_storage::ColumnSlice`] per column plus a *flat* provenance matrix
//! ([`ProvData`]). A slice is an `Arc`-shared typed base column
//! ([`uaq_storage::ColumnRef`]) behind a chain of `Arc`-shared selection
//! vectors; **a dense column is the slice with an empty chain**, not a
//! second representation. The operator kernels work on row *indices*:
//!
//! * **selection** — scans and filters alike — is the one predicate kernel
//!   family, [`crate::expr::BoundPred::filter_slices`]: typed loops over the
//!   base column that emit logical row indices. A scan wraps the table's
//!   columns in dense slices and calls it; the kernel sees the empty chain
//!   and runs a plain pass. The surviving indices become one shared
//!   selection layer over every column — no gather. In sample mode a
//!   batch that is still a row subset of one sample table selects through
//!   [`crate::expr::BoundPred::filter_sample`]: a string predicate runs the
//!   same loop over the codes of the table's shared dictionary
//!   ([`uaq_storage::SampleTable::str_dict`]) instead of comparing strings;
//! * **hash join** builds its hash table on borrowed keys (primitive `i64`
//!   fast path, or a [`JoinKey`]-style borrowed view mirroring `Value`
//!   equality) with row-index payloads — no row is cloned until the final
//!   materialization; in sample mode a build side that is still a row
//!   subset of one sample table builds nothing and probes the key index
//!   that table owns ([`uaq_storage::SampleTable::join_index`]);
//! * **hash aggregation** groups on interned key ids (one hash probe per
//!   input row resolving to a dense group index);
//! * **provenance** is carried end-to-end as the flat `arity × rows` matrix
//!   the estimator already consumes, so per-node traces are a handle copy.
//!
//! What a predicate *means* is defined once, on rows:
//! [`crate::expr::BoundPred::eval`] over `Value`'s equality and ordering is
//! the reference semantics, and the kernels are tested against it shape by
//! shape and selection depth by selection depth.
//!
//! # Deferred gathers and lazy rows
//!
//! A pass-through operator (an unfiltered scan, a keep-everything filter, a
//! materialize) shares payloads for the price of a refcount bump; a
//! *selective* operator (filter, join output, sort) layers **one shared
//! selection vector** over all of its input's columns and copies nothing.
//! Selection-over-selection composes, and chains deeper than
//! [`uaq_storage::MAX_SELECTION_DEPTH`] are flattened into one composed
//! vector so reads stay cache-friendly.
//!
//! Gathers are deferred to the consumers that genuinely need dense cells:
//! aggregation state build and sort keys densify the columns they read
//! (only those), schema-changing ops emit fresh columns by construction,
//! and [`ExecOutcome::columns`] densifies at the edge on demand.
//! [`ProvData`] follows the same discipline — an `Arc`-shared matrix
//! behind an optional row selection — so per-operator provenance tracking
//! and per-node trace storage are handle copies, not `arity × rows`
//! gathers.
//!
//! [`ExecOutcome`] has one representation: schema, the root slices, and
//! traces. **Rows are opt-in at the edge** via [`ExecOutcome::rows`] or the
//! paged [`ExecOutcome::row_pages`] — the prediction path (selectivity
//! estimation, cost fitting, experiments) reads only traces and never pays
//! for row materialization.
//!
//! This is the only executor in the library. The row-at-a-time executor it
//! replaced lives on, unoptimized, as the oracle in the engine's test
//! support (`crates/engine/tests/exec_row/`): the golden equivalence tests
//! compare rows, traces and provenance against it bit for bit.

use crate::expr::cell_pair_eq;
use crate::plan::{AggFunc, NodeId, Op, Plan, SortOrder};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};
use uaq_storage::{
    order_f64, Catalog, ColumnData, ColumnRef, ColumnSlice, Row, SampleCatalog, SampleTable,
    Schema, Value,
};

/// Flattened provenance matrix of one operator's sample-mode output:
/// `arity` step indices per output row, aligned with the node's
/// `leaf_tables` order.
///
/// Late-materialized like the columns it travels with: the backing matrix
/// is `Arc`-shared (a per-node trace stores a handle, not a copy) behind an
/// optional selection over its rows, so a selective filter/sort re-selects
/// provenance for the price of one index vector instead of re-gathering
/// `arity × rows` entries. Re-selection composes eagerly — the selection
/// depth never exceeds one. Logical accessors ([`ProvData::row`],
/// [`ProvData::for_each_leaf_step`], `PartialEq`) read through the
/// indirection, so consumers cannot observe the representation.
#[derive(Debug, Clone, Default)]
pub struct ProvData {
    arity: usize,
    data: Arc<Vec<u32>>,
    sel: Option<Arc<Vec<u32>>>,
}

impl ProvData {
    /// Wraps a freshly built dense matrix (row-major, `arity` per row).
    pub fn new(arity: usize, data: Vec<u32>) -> Self {
        Self {
            arity,
            data: Arc::new(data),
            sel: None,
        }
    }

    /// Arity-1 matrix sharing an existing index vector — a scan's
    /// provenance *is* its selection vector, one allocation for both.
    pub fn from_shared(arity: usize, data: Arc<Vec<u32>>) -> Self {
        Self {
            arity,
            data,
            sel: None,
        }
    }

    /// Step indices per row (the number of leaf relations of the subtree).
    pub fn arity(&self) -> usize {
        self.arity
    }

    pub fn rows(&self) -> usize {
        match &self.sel {
            Some(sel) => sel.len(),
            None => self.data.len().checked_div(self.arity).unwrap_or(0),
        }
    }

    pub fn row(&self, i: usize) -> &[u32] {
        let p = match &self.sel {
            Some(sel) => sel[i] as usize,
            None => i,
        };
        &self.data[p * self.arity..(p + 1) * self.arity]
    }

    /// Streams column `k` of the matrix — leaf `k`'s step index for every
    /// logical row, in row order — to `f`. The estimator's counting pass:
    /// depth-specialized (strided scan when dense, indexed loads when
    /// selected) so it never materializes rows.
    pub fn for_each_leaf_step(&self, k: usize, mut f: impl FnMut(u32)) {
        match &self.sel {
            None => {
                if self.data.is_empty() {
                    return;
                }
                for &step in self.data[k..].iter().step_by(self.arity.max(1)) {
                    f(step);
                }
            }
            Some(sel) => {
                for &r in sel.iter() {
                    f(self.data[r as usize * self.arity + k]);
                }
            }
        }
    }

    /// Re-selects logical rows `sel[0], sel[1], …` — shares the backing
    /// matrix and composes with any existing selection (depth stays ≤ 1).
    pub fn select(&self, sel: &Arc<Vec<u32>>) -> ProvData {
        let composed = match &self.sel {
            None => sel.clone(),
            Some(cur) => Arc::new(sel.iter().map(|&i| cur[i as usize]).collect()),
        };
        ProvData {
            arity: self.arity,
            data: self.data.clone(),
            sel: Some(composed),
        }
    }

    /// Row-wise concatenation: output row `k` is `left.row(li[k]) ++
    /// right.row(ri[k])` (the provenance of a join's output).
    pub fn join_rows(left: &ProvData, li: &[u32], right: &ProvData, ri: &[u32]) -> ProvData {
        debug_assert_eq!(li.len(), ri.len());
        let arity = left.arity + right.arity;
        let mut data = Vec::with_capacity(li.len() * arity);
        for (&l, &r) in li.iter().zip(ri) {
            data.extend_from_slice(left.row(l as usize));
            data.extend_from_slice(right.row(r as usize));
        }
        ProvData::new(arity, data)
    }
}

/// Logical equality: same arity and the same step indices row by row,
/// regardless of how each matrix is represented (dense vs selected).
impl PartialEq for ProvData {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && self.rows() == other.rows()
            && (0..self.rows()).all(|i| self.row(i) == other.row(i))
    }
}

impl Eq for ProvData {}

/// Per-operator execution observations.
///
/// Full mode fills every node. Sample mode fills every node *below* the
/// first aggregate on its root path (`!meta.agg_at_or_below`) — the only
/// nodes Algorithm 1 estimates from samples. A node at or above an
/// aggregate is not executed in sample mode (its selectivity is the
/// optimizer's estimate): its `output_rows` is 0, its `prov` is `None`, and
/// an input count is the output of that child if the child itself sits
/// below the aggregate, 0 otherwise.
#[derive(Debug, Clone, Default)]
pub struct NodeTrace {
    /// Output cardinality `M`.
    pub output_rows: usize,
    /// Left input cardinality `N_l` (for scans: the base/sample table size).
    pub left_input_rows: usize,
    /// Right input cardinality `N_r` (0 for unary operators).
    pub right_input_rows: usize,
    /// Sample-mode output provenance (None in full mode, and at or above
    /// aggregates).
    pub prov: Option<ProvData>,
}

/// Result of executing a plan: a **columnar** value. The root columns are
/// `Arc`-shared with whatever produced them (for a pass-through plan, the
/// base table itself), and rows are materialized only when a consumer
/// explicitly asks via [`ExecOutcome::rows`] or [`ExecOutcome::row_pages`].
///
/// Contract for consumers: do **not** assume rows exist. Everything on the
/// prediction path (`uaq_selest`, `uaq_core`, `uaq_experiments`,
/// `uaq_service`) reads only `traces`, `schema`, and cardinalities; row
/// materialization is an edge concern (query answers, debugging, the golden
/// equivalence tests).
#[derive(Debug)]
pub struct ExecOutcome {
    /// Output schema of the root operator.
    pub schema: Schema,
    /// Root output slices exactly as the executor produced them — possibly
    /// selection views over shared base columns, never densified just to
    /// be stored.
    slices: Vec<ColumnSlice>,
    /// Lazy dense mirror, built from `slices` on first
    /// [`ExecOutcome::columns`] call.
    columns: OnceLock<Vec<ColumnRef>>,
    /// Root output cardinality.
    num_rows: usize,
    /// Lazy row mirror, built on first [`ExecOutcome::rows`] call.
    rows: OnceLock<Vec<Row>>,
    /// Per-node traces, indexed by `NodeId`.
    pub traces: Vec<NodeTrace>,
}

impl ExecOutcome {
    fn new(
        schema: Schema,
        slices: Vec<ColumnSlice>,
        num_rows: usize,
        traces: Vec<NodeTrace>,
    ) -> Self {
        debug_assert!(slices.iter().all(|c| c.len() == num_rows));
        Self {
            schema,
            slices,
            columns: OnceLock::new(),
            num_rows,
            rows: OnceLock::new(),
            traces,
        }
    }

    /// Root output cardinality (available without materializing anything).
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// The root output as the executor's late-materialized slices — shared
    /// base columns behind selection chains, no payload copies. Lets tests
    /// observe deferral: sharing, chain depth, and the flatten bound.
    pub fn slices(&self) -> &[ColumnSlice] {
        &self.slices
    }

    /// Column-major *dense* view of the root output, built (and cached) on
    /// first call. A pass-through plan densifies for free — its slices are
    /// dense and the base handles are shared, not copied; selective plans
    /// pay their one deferred gather here.
    pub fn columns(&self) -> &[ColumnRef] {
        self.columns
            .get_or_init(|| self.slices.iter().map(ColumnSlice::to_dense).collect())
    }

    /// Row-major view of the root output, materialized (and cached) on
    /// first call — the explicit opt-in for edge consumers that really
    /// need all rows at once. Prefer [`ExecOutcome::row_pages`] when the
    /// result may be huge.
    pub fn rows(&self) -> &[Row] {
        self.rows.get_or_init(|| self.rows_in(0..self.num_rows))
    }

    /// Rows `range` of the result, assembled through the slices.
    fn rows_in(&self, range: std::ops::Range<usize>) -> Vec<Row> {
        range
            .map(|i| self.slices.iter().map(|s| s.value(i)).collect())
            .collect()
    }

    /// Whether the full row mirror has been built (tests use this to prove
    /// that paged consumption never materializes it).
    pub fn rows_materialized(&self) -> bool {
        self.rows.get().is_some()
    }

    /// Streams the result as pages of at most `page_size` rows (the last
    /// page may be shorter), materializing one page at a time — the
    /// service edge for results too large to hold as rows all at once.
    /// Never populates the full-row cache. A `page_size` of 0 is clamped
    /// to 1.
    pub fn row_pages(&self, page_size: usize) -> RowPages<'_> {
        RowPages {
            outcome: self,
            next: 0,
            page_size: page_size.max(1),
        }
    }
}

/// Iterator over an [`ExecOutcome`]'s rows in fixed-size pages; see
/// [`ExecOutcome::row_pages`]. Peak resident row memory is one page.
#[derive(Debug)]
pub struct RowPages<'a> {
    outcome: &'a ExecOutcome,
    next: usize,
    page_size: usize,
}

impl Iterator for RowPages<'_> {
    type Item = Vec<Row>;

    fn next(&mut self) -> Option<Vec<Row>> {
        if self.next >= self.outcome.num_rows {
            return None;
        }
        let end = (self.next + self.page_size).min(self.outcome.num_rows);
        let page = self.outcome.rows_in(self.next..end);
        self.next = end;
        Some(page)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.outcome.num_rows - self.next;
        let pages = remaining.div_ceil(self.page_size);
        (pages, Some(pages))
    }
}

impl ExactSizeIterator for RowPages<'_> {}

/// Intermediate columnar batch flowing between operators. Columns are
/// late-materialized [`ColumnSlice`]s — `Arc`-shared base payloads behind
/// `Arc`-shared selection chains: a pass-through operator clones handles
/// (O(1)), a selective operator layers one shared index vector over all
/// columns, and payloads are copied only where a consumer densifies.
struct Batch<'a> {
    schema: Schema,
    cols: Vec<ColumnSlice>,
    len: usize,
    /// Flat provenance matrix (sample mode only; dropped above aggregates
    /// because grouped rows have no single lineage).
    prov: Option<ProvData>,
    /// Sample mode: the sample table this batch is an order-preserving row
    /// subset of, columns unchanged — a scan under any filters and
    /// materializes. `None` once a sort reorders the rows or a join
    /// combines two inputs. A hash join building on such a batch probes the
    /// table's shared [`SampleTable::join_index`] instead of hashing it, and
    /// a filter over it selects strings on [`SampleTable::str_dict`] codes.
    sample: Option<&'a SampleTable>,
}

impl Batch<'_> {
    fn col(&self, i: usize) -> &ColumnSlice {
        &self.cols[i]
    }
}

enum Source<'a> {
    Full(&'a Catalog),
    Samples(&'a SampleCatalog),
}

struct Executor<'a> {
    plan: &'a Plan,
    source: Source<'a>,
    traces: Vec<NodeTrace>,
}

/// Executes a plan against the base tables. The returned outcome is
/// columnar; no row is materialized unless the caller asks.
pub fn execute_full(plan: &Plan, catalog: &Catalog) -> ExecOutcome {
    crate::validate::debug_check(plan, Some(catalog), None);
    uaq_telemetry::span::timed(uaq_telemetry::span::Stage::Exec, || {
        let mut ex = Executor {
            plan,
            source: Source::Full(catalog),
            traces: vec![NodeTrace::default(); plan.len()],
        };
        let batch = ex.exec(plan.root());
        ExecOutcome::new(batch.schema, batch.cols, batch.len, ex.traces)
    })
}

/// Executes a plan against sample tables, tracking provenance. Row-free:
/// the estimator consumes only the traces, so the former root-row
/// materialization is gone from the prediction path entirely.
///
/// Does only what Algorithm 1 reads. Every node below the first aggregate
/// on its root path gets its full [`NodeTrace`] — cardinalities and the
/// provenance matrix, rows in the order the row-based reference emits them.
/// A node at or above an aggregate takes the optimizer's estimate, so it is
/// not executed: no grouping, no filter or sort over groups, `prov: None`
/// (see [`NodeTrace`]); a plan with an aggregate therefore returns an empty
/// root batch with an empty schema. Whatever does not depend on the plan's
/// literals is not redone per call: hash joins probe the join-key indexes
/// the sample tables own ([`SampleTable::join_index`]), and string
/// predicates select on their dictionary codes ([`SampleTable::str_dict`]),
/// both built on first use and shared by every caller holding the catalog.
pub fn execute_on_samples(plan: &Plan, samples: &SampleCatalog) -> ExecOutcome {
    crate::validate::debug_check(plan, None, Some(samples));
    crate::fault::fire_sample_pass_hook();
    uaq_telemetry::span::timed(uaq_telemetry::span::Stage::Exec, || {
        let mut ex = Executor {
            plan,
            source: Source::Samples(samples),
            traces: vec![NodeTrace::default(); plan.len()],
        };
        let batch = ex.exec(plan.root());
        ExecOutcome::new(batch.schema, batch.cols, batch.len, ex.traces)
    })
}

/// Borrowed join-key view of one cell, mirroring `Value`'s equality and
/// hashing exactly (Int/Int integer equality, numeric mixes compared on
/// f64 bits, strings by content) without cloning anything.
#[derive(Debug, Clone, Copy)]
enum JoinKey<'a> {
    Int(i64),
    /// An f64 key, stored as bits (`Value::eq` on floats is bit equality).
    Bits(u64),
    Str(&'a str),
}

impl PartialEq for JoinKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (JoinKey::Int(a), JoinKey::Int(b)) => a == b,
            (JoinKey::Bits(a), JoinKey::Bits(b)) => a == b,
            (JoinKey::Int(a), JoinKey::Bits(b)) | (JoinKey::Bits(b), JoinKey::Int(a)) => {
                (*a as f64).to_bits() == *b
            }
            (JoinKey::Str(a), JoinKey::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for JoinKey<'_> {}

impl Hash for JoinKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            // Ints and whole floats that compare equal must hash equally.
            JoinKey::Int(v) => (*v as f64).to_bits().hash(state),
            JoinKey::Bits(b) => b.hash(state),
            JoinKey::Str(s) => s.hash(state),
        }
    }
}

fn join_key_at(col: &ColumnData, i: usize) -> JoinKey<'_> {
    match col {
        ColumnData::Int(v) => JoinKey::Int(v[i]),
        ColumnData::Float(v) => JoinKey::Bits(v[i].to_bits()),
        ColumnData::Str(v) => JoinKey::Str(&v[i]),
    }
}

/// Owned group-by key part. Group keys come from a fixed set of columns, so
/// every row's part for a given column has the same variant and the derived
/// `Eq`/`Hash` partition rows exactly like `Vec<Value>` keys did (float
/// equality is bit equality in both).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum KeyPart {
    Int(i64),
    Bits(u64),
    Str(Arc<str>),
}

impl KeyPart {
    fn at(col: &ColumnData, i: usize) -> KeyPart {
        match col {
            ColumnData::Int(v) => KeyPart::Int(v[i]),
            ColumnData::Float(v) => KeyPart::Bits(v[i].to_bits()),
            ColumnData::Str(v) => KeyPart::Str(v[i].clone()),
        }
    }

    fn into_value(self) -> Value {
        match self {
            KeyPart::Int(v) => Value::Int(v),
            KeyPart::Bits(b) => Value::Float(f64::from_bits(b)),
            KeyPart::Str(s) => Value::Str(s),
        }
    }
}

impl<'a> Executor<'a> {
    fn exec(&mut self, id: NodeId) -> Batch<'a> {
        // Borrow the operator from the plan reference (not through `self`)
        // so recursion needs no per-node `Op` clone.
        let plan = self.plan;
        if matches!(self.source, Source::Samples(_)) && plan.meta(id).agg_at_or_below {
            return self.skip_at_or_above_aggregate(id);
        }
        let batch = match plan.op(id) {
            Op::SeqScan { table, predicate } => self.scan(id, table, predicate),
            Op::IndexScan {
                table, predicate, ..
            } => self.scan(id, table, predicate),
            Op::Filter { input, predicate } => {
                let child = self.exec(*input);
                self.filter(id, child, predicate)
            }
            Op::Sort { input, keys } => {
                let child = self.exec(*input);
                self.sort(id, child, keys)
            }
            Op::Materialize { input } => {
                let child = self.exec(*input);
                self.record_inputs(id, child.len, 0);
                child
            }
            Op::HashJoin {
                left,
                right,
                left_key,
                right_key,
            } => {
                let l = self.exec(*left);
                let r = self.exec(*right);
                self.hash_join(id, l, r, left_key, right_key)
            }
            Op::NestedLoopJoin {
                left,
                right,
                left_key,
                right_key,
            } => {
                let l = self.exec(*left);
                let r = self.exec(*right);
                self.nl_join(id, l, r, left_key, right_key)
            }
            Op::HashAggregate {
                input,
                group_by,
                aggs,
            } => {
                let child = self.exec(*input);
                self.aggregate(id, child, group_by, aggs)
            }
        };
        self.traces[id].output_rows = batch.len;
        if let Some(prov) = &batch.prov {
            debug_assert_eq!(prov.arity(), self.plan.meta(id).leaf_tables.len());
            debug_assert_eq!(prov.rows(), batch.len);
            // Handle copy: the trace shares the batch's backing matrix.
            self.traces[id].prov = Some(prov.clone());
        }
        batch
    }

    fn record_inputs(&mut self, id: NodeId, left: usize, right: usize) {
        let trace = &mut self.traces[id];
        trace.left_input_rows = left;
        trace.right_input_rows = right;
    }

    /// Sample mode, node at or above an aggregate: Algorithm 1 gives it the
    /// optimizer's estimate and reads nothing of its execution, so none
    /// happens. Its children still run — the subtree below the aggregate
    /// holds the nodes that *are* estimated from samples — and their
    /// output counts are recorded as this node's inputs.
    fn skip_at_or_above_aggregate(&mut self, id: NodeId) -> Batch<'a> {
        let mut inputs = [0usize; 2];
        for (rows, child) in inputs.iter_mut().zip(self.plan.op(id).children()) {
            *rows = self.exec(child).len;
        }
        let [left, right] = inputs;
        self.record_inputs(id, left, right);
        Batch {
            schema: Schema::default(),
            cols: Vec::new(),
            len: 0,
            prov: None,
            sample: None,
        }
    }

    fn scan(&mut self, id: NodeId, table: &str, predicate: &crate::expr::Pred) -> Batch<'a> {
        let (schema, cols, sample): (Schema, &[ColumnRef], Option<&'a SampleTable>) =
            match self.source {
                Source::Full(catalog) => {
                    let t = catalog.table(table);
                    (t.schema().clone(), t.columns(), None)
                }
                Source::Samples(samples) => {
                    let occurrence = self.plan.meta(id).leaf_tables[0].occurrence;
                    let s = samples.sample(table, occurrence);
                    (s.table().schema().clone(), s.table().columns(), Some(s))
                }
            };
        let with_prov = sample.is_some();
        let input_len = cols.first().map_or(0, |c| c.len());
        self.record_inputs(id, input_len, 0);
        // Dense slices over the table's columns (refcount bumps): the scan
        // filters through the same kernels as `filter`.
        let dense: Vec<ColumnSlice> = cols.iter().cloned().map(ColumnSlice::dense).collect();
        let bound = predicate.bind(&schema);
        let sel = match sample {
            Some(sample) => bound.filter_sample(&dense, input_len, sample),
            None => bound.filter_slices(&dense, input_len),
        };
        let len = sel.len();
        let (out_cols, prov) = if len == input_len {
            // Nothing filtered: the table's columns pass through shared.
            (dense, with_prov.then(|| ProvData::new(1, sel)))
        } else {
            // One shared selection over every column — and the scan's
            // provenance *is* that selection, so it shares the same `Arc`.
            let sel = Arc::new(sel);
            let out = ColumnSlice::select_all(dense, &sel);
            (out, with_prov.then(|| ProvData::from_shared(1, sel)))
        };
        Batch {
            schema,
            len,
            cols: out_cols,
            prov,
            sample,
        }
    }

    fn filter(&mut self, id: NodeId, child: Batch<'a>, predicate: &crate::expr::Pred) -> Batch<'a> {
        self.record_inputs(id, child.len, 0);
        let bound = predicate.bind(&child.schema);
        let sel = match child.sample {
            Some(sample) => bound.filter_sample(&child.cols, child.len, sample),
            None => bound.filter_slices(&child.cols, child.len),
        };
        if sel.len() == child.len {
            // Keep-everything filter: the child's column handles pass
            // through shared, no copy.
            return child;
        }
        let len = sel.len();
        let sel = Arc::new(sel);
        let cols = ColumnSlice::select_all(child.cols, &sel);
        let prov = child.prov.as_ref().map(|p| p.select(&sel));
        Batch {
            schema: child.schema,
            cols,
            len,
            prov,
            sample: child.sample,
        }
    }

    fn sort(&mut self, id: NodeId, child: Batch<'a>, keys: &[(String, SortOrder)]) -> Batch<'a> {
        self.record_inputs(id, child.len, 0);
        // Densify only the key columns (free when already dense): the
        // comparator runs hot and must not walk a selection chain per
        // probe. Payload columns stay lazy — the permutation is just one
        // more shared selection layer.
        let key_cols: Vec<(ColumnRef, SortOrder)> = keys
            .iter()
            .map(|(k, o)| (child.col(child.schema.expect_index(k)).to_dense(), *o))
            .collect();
        let mut order: Vec<u32> = (0..child.len as u32).collect();
        // Stable sort, same comparator semantics as `Value::cmp` per column
        // (columns are monotype, so only the same-type arms apply).
        order.sort_by(|&a, &b| {
            for (col, dir) in &key_cols {
                let cmp = cell_cmp_same(col, a as usize, b as usize);
                let cmp = if *dir == SortOrder::Desc {
                    cmp.reverse()
                } else {
                    cmp
                };
                if cmp != Ordering::Equal {
                    return cmp;
                }
            }
            Ordering::Equal
        });
        let order = Arc::new(order);
        let cols = ColumnSlice::select_all(child.cols, &order);
        let prov = child.prov.as_ref().map(|p| p.select(&order));
        Batch {
            schema: child.schema,
            cols,
            len: child.len,
            prov,
            sample: None,
        }
    }

    fn hash_join(
        &mut self,
        id: NodeId,
        left: Batch<'a>,
        right: Batch<'a>,
        left_key: &str,
        right_key: &str,
    ) -> Batch<'a> {
        self.record_inputs(id, left.len, right.len);
        let lk = left.schema.expect_index(left_key);
        let rk = right.schema.expect_index(right_key);

        // Build on the right input (the "inner"), probe with the left. The
        // build is a CSR-style grouping — key -> dense id, then row indices
        // grouped contiguously by id — so there is exactly one allocation
        // for the whole table instead of a `Vec` per distinct key. Keys are
        // borrowed from the key columns (i64 fast path, or a `JoinKey` view
        // mirroring `Value` equality); payloads are row indices.
        let mut li_out: Vec<u32> = Vec::new();
        let mut ri_out: Vec<u32> = Vec::new();
        {
            let (lslice, rslice) = (left.col(lk), right.col(rk));
            // Sample mode with the build side still a row subset of one
            // sample table (`Batch::sample`; its columns are the table's, so
            // `rk` is the table's column too): that table's shared key index
            // already groups the steps by key. `None` in full mode, under a
            // sort or a join, and for key types the index does not cover.
            let (lbase, rbase) = (lslice.base().as_ref(), rslice.base().as_ref());
            let indexed = match (lbase, right.sample, &right.prov) {
                (ColumnData::Int(_), Some(sample), Some(prov)) if right.len > 0 => sample
                    .join_index(rk)
                    .map(|index| (index, sample.len(), prov)),
                _ => None,
            };
            match (lbase, rbase, indexed) {
                // No build at all: an unfiltered build side is the sample
                // table itself, row = step, and the index's groups are the
                // matches; a filtered one keeps a subset of the steps in
                // step order, so mapping step -> row and dropping the
                // filtered-out steps yields the same matches in the same
                // (ascending build row) order a fresh build would.
                (ColumnData::Int(lv), _, Some((index, steps, prov))) => {
                    let row_of_step = (right.len < steps).then(|| rows_by_step(prov, steps));
                    let mut li: u32 = 0;
                    lslice.for_each_physical(|lp| {
                        let matches = index.steps(lv[lp]);
                        match &row_of_step {
                            None => {
                                li_out.extend(std::iter::repeat_n(li, matches.len()));
                                ri_out.extend_from_slice(matches);
                            }
                            Some(row_of) => {
                                for &step in matches {
                                    let row = row_of[step as usize];
                                    if row != FILTERED_OUT {
                                        li_out.push(li);
                                        ri_out.push(row);
                                    }
                                }
                            }
                        }
                        li += 1;
                    });
                }
                // Fast path: integer keys on both sides hash and compare as
                // i64, read through the selection chains without densifying.
                (ColumnData::Int(lv), ColumnData::Int(rv), _) => {
                    let (ids, csr) = build_csr(right.len, |i| rv[rslice.physical(i)]);
                    let mut li: u32 = 0;
                    lslice.for_each_physical(|lp| {
                        if let Some(&id) = ids.get(&lv[lp]) {
                            let matches = csr.group(id);
                            li_out.extend(std::iter::repeat_n(li, matches.len()));
                            ri_out.extend_from_slice(matches);
                        }
                        li += 1;
                    });
                }
                (lcol, rcol, _) => {
                    let (ids, csr) =
                        build_csr(right.len, |i| join_key_at(rcol, rslice.physical(i)));
                    for li in 0..left.len {
                        if let Some(&id) = ids.get(&join_key_at(lcol, lslice.physical(li))) {
                            let matches = csr.group(id);
                            li_out.extend(std::iter::repeat_n(li as u32, matches.len()));
                            ri_out.extend_from_slice(matches);
                        }
                    }
                }
            }
        }
        self.join_output(left, right, li_out, ri_out)
    }

    fn nl_join(
        &mut self,
        id: NodeId,
        left: Batch<'a>,
        right: Batch<'a>,
        left_key: &str,
        right_key: &str,
    ) -> Batch<'a> {
        self.record_inputs(id, left.len, right.len);
        let lk = left.schema.expect_index(left_key);
        let rk = right.schema.expect_index(right_key);

        let mut li_out: Vec<u32> = Vec::new();
        let mut ri_out: Vec<u32> = Vec::new();
        {
            let (lslice, rslice) = (left.col(lk), right.col(rk));
            let (lcol, rcol) = (lslice.base().as_ref(), rslice.base().as_ref());
            for li in 0..left.len {
                let lp = lslice.physical(li);
                for ri in 0..right.len {
                    if cell_pair_eq(lcol, lp, rcol, rslice.physical(ri)) {
                        li_out.push(li as u32);
                        ri_out.push(ri as u32);
                    }
                }
            }
        }
        self.join_output(left, right, li_out, ri_out)
    }

    /// Assembles a join result from matched (left, right) index pairs —
    /// as selection layers over the input slices, not fresh payloads: the
    /// match vectors become one shared selection per side.
    fn join_output(
        &self,
        left: Batch<'a>,
        right: Batch<'a>,
        li: Vec<u32>,
        ri: Vec<u32>,
    ) -> Batch<'a> {
        let schema = left.schema.concat(&right.schema);
        let len = li.len();
        let (li, ri) = (Arc::new(li), Arc::new(ri));
        let mut cols = ColumnSlice::select_all(left.cols, &li);
        cols.extend(ColumnSlice::select_all(right.cols, &ri));
        let prov = match (&left.prov, &right.prov) {
            (Some(lp), Some(rp)) => Some(ProvData::join_rows(lp, &li, rp, &ri)),
            _ => None,
        };
        Batch {
            schema,
            cols,
            len,
            prov,
            sample: None,
        }
    }

    fn aggregate(
        &mut self,
        id: NodeId,
        child: Batch<'a>,
        group_by: &[String],
        aggs: &[(String, AggFunc)],
    ) -> Batch<'a> {
        self.record_inputs(id, child.len, 0);
        // The grouping/state loops index cells row-at-a-time and hot; this
        // is one of the sanctioned densification points — but only for the
        // columns the aggregate actually reads, never the whole batch.
        let group_dense: Vec<ColumnRef> = group_by
            .iter()
            .map(|g| child.col(child.schema.expect_index(g)).to_dense())
            .collect();
        let group_cols: Vec<&ColumnData> = group_dense.iter().map(|c| c.as_ref()).collect();
        let agg_dense: Vec<Option<ColumnRef>> = aggs
            .iter()
            .map(|(_, f)| {
                f.input_column()
                    .map(|c| child.col(child.schema.expect_index(c)).to_dense())
            })
            .collect();
        let agg_cols: Vec<Option<&ColumnData>> = agg_dense
            .iter()
            .map(|o| o.as_ref().map(|c| c.as_ref()))
            .collect();

        #[derive(Clone)]
        struct State {
            count: u64,
            sums: Vec<f64>,
            mins: Vec<Option<Value>>,
            maxs: Vec<Option<Value>>,
        }
        let fresh = State {
            count: 0,
            sums: vec![0.0; aggs.len()],
            mins: vec![None; aggs.len()],
            maxs: vec![None; aggs.len()],
        };

        // Intern group keys to dense ids; states live in a vector indexed by
        // id, which also preserves first-seen group order.
        let mut states: Vec<State> = Vec::new();
        let update = |state: &mut State, row: usize| {
            state.count += 1;
            for (k, (_, func)) in aggs.iter().enumerate() {
                if let Some(col) = agg_cols[k] {
                    match func {
                        AggFunc::Sum(_) | AggFunc::Avg(_) => {
                            state.sums[k] += match col {
                                ColumnData::Int(v) => v[row] as f64,
                                ColumnData::Float(v) => v[row],
                                ColumnData::Str(_) => {
                                    panic!("expected numeric, got Str column")
                                }
                            }
                        }
                        AggFunc::Min(_) => {
                            let v = col.value(row);
                            if state.mins[k].as_ref().is_none_or(|m| v < *m) {
                                state.mins[k] = Some(v);
                            }
                        }
                        AggFunc::Max(_) => {
                            let v = col.value(row);
                            if state.maxs[k].as_ref().is_none_or(|m| v > *m) {
                                state.maxs[k] = Some(v);
                            }
                        }
                        AggFunc::CountStar => unreachable!("CountStar has no input column"),
                    }
                }
            }
        };
        let mut keys: Vec<Vec<KeyPart>> = if let [col] = group_cols[..] {
            // Single-column fast path (the common TPC-H case): intern on the
            // bare `KeyPart`, skipping the per-row `Vec` allocation of the
            // general path. Dense ids are assigned in first-seen order
            // either way, so grouping and output order are identical.
            let mut key_ids: HashMap<KeyPart, u32> = HashMap::with_capacity(64);
            let mut keys: Vec<KeyPart> = Vec::new();
            for row in 0..child.len {
                let gid = *key_ids
                    .entry(KeyPart::at(col, row))
                    .or_insert_with_key(|k| {
                        keys.push(k.clone());
                        states.push(fresh.clone());
                        (states.len() - 1) as u32
                    });
                update(&mut states[gid as usize], row);
            }
            keys.into_iter().map(|k| vec![k]).collect()
        } else {
            let mut key_ids: HashMap<Vec<KeyPart>, u32> = HashMap::new();
            let mut keys: Vec<Vec<KeyPart>> = Vec::new();
            for row in 0..child.len {
                let key: Vec<KeyPart> = group_cols.iter().map(|c| KeyPart::at(c, row)).collect();
                let gid = *key_ids.entry(key).or_insert_with_key(|k| {
                    keys.push(k.clone());
                    states.push(fresh.clone());
                    (states.len() - 1) as u32
                });
                update(&mut states[gid as usize], row);
            }
            keys
        };

        // Scalar aggregate over empty input still yields one row.
        if group_by.is_empty() && states.is_empty() {
            keys.push(vec![]);
            states.push(fresh);
        }

        let mut out_schema_cols = Vec::new();
        for (g, col) in group_by.iter().zip(&group_cols) {
            out_schema_cols.push(uaq_storage::Column::new(g.as_str(), col.ty()));
        }
        for (name, func) in aggs {
            let ty = match func {
                AggFunc::CountStar => uaq_storage::ColumnType::Int,
                AggFunc::Sum(_) | AggFunc::Avg(_) => uaq_storage::ColumnType::Float,
                AggFunc::Min(c) | AggFunc::Max(c) => {
                    child.schema.column(child.schema.expect_index(c)).ty
                }
            };
            out_schema_cols.push(uaq_storage::Column::new(name.as_str(), ty));
        }
        let schema = Schema::new(out_schema_cols);

        let n_groups = states.len();
        let mut cols: Vec<ColumnData> = schema
            .columns()
            .iter()
            .map(|c| ColumnData::with_capacity(c.ty, n_groups))
            .collect();
        for (key, state) in keys.into_iter().zip(&states) {
            for (j, part) in key.into_iter().enumerate() {
                cols[j].push(&part.into_value());
            }
            for (k, (_, func)) in aggs.iter().enumerate() {
                let out_ty = schema.column(group_by.len() + k).ty;
                let v = match func {
                    AggFunc::CountStar => Value::Int(state.count as i64),
                    AggFunc::Sum(_) => Value::Float(state.sums[k]),
                    AggFunc::Avg(_) => Value::Float(if state.count == 0 {
                        0.0
                    } else {
                        state.sums[k] / state.count as f64
                    }),
                    AggFunc::Min(_) => state.mins[k]
                        .clone()
                        .unwrap_or_else(|| empty_agg_default(out_ty)),
                    AggFunc::Max(_) => state.maxs[k]
                        .clone()
                        .unwrap_or_else(|| empty_agg_default(out_ty)),
                };
                cols[group_by.len() + k].push(&v);
            }
        }

        // Provenance cannot flow through grouping (Algorithm 1's Agg case).
        Batch {
            schema,
            cols: cols.into_iter().map(ColumnSlice::from).collect(),
            len: n_groups,
            prov: None,
            sample: None,
        }
    }
}

/// [`rows_by_step`]'s marker for a sampling step the build side filtered out
/// (no batch has `u32::MAX` rows: row ids are `u32`).
const FILTERED_OUT: u32 = u32::MAX;

/// For a batch that is a row subset of one sample table, with arity-1
/// provenance `prov` over that table's `steps` sampling steps: the batch row
/// holding each step, [`FILTERED_OUT`] for steps the batch dropped.
fn rows_by_step(prov: &ProvData, steps: usize) -> Vec<u32> {
    let mut row_of = vec![FILTERED_OUT; steps];
    let mut row: u32 = 0;
    prov.for_each_leaf_step(0, |step| {
        row_of[step as usize] = row;
        row += 1;
    });
    row_of
}

/// CSR-grouped hash-table payload: row indices grouped contiguously by
/// dense key id, in first-seen key order and ascending row order within a
/// group (the same match order the row-based reference produces).
struct Csr {
    offsets: Vec<u32>,
    slots: Vec<u32>,
}

impl Csr {
    fn group(&self, id: u32) -> &[u32] {
        &self.slots[self.offsets[id as usize] as usize..self.offsets[id as usize + 1] as usize]
    }
}

/// Two-pass CSR build over `n` keyed rows: assign dense ids in first-seen
/// order, count group sizes, then scatter row indices into one flat slot
/// vector — one allocation for all groups instead of a `Vec` per key.
fn build_csr<K: Eq + std::hash::Hash>(
    n: usize,
    key_at: impl Fn(usize) -> K,
) -> (HashMap<K, u32>, Csr) {
    let mut ids: HashMap<K, u32> = HashMap::with_capacity(n);
    let mut counts: Vec<u32> = Vec::new();
    let mut row_ids: Vec<u32> = Vec::with_capacity(n);
    for i in 0..n {
        let next_id = counts.len() as u32;
        let id = *ids.entry(key_at(i)).or_insert(next_id);
        if id == next_id {
            counts.push(0);
        }
        counts[id as usize] += 1;
        row_ids.push(id);
    }
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0u32;
    offsets.push(0);
    for &c in &counts {
        acc += c;
        offsets.push(acc);
    }
    let mut cursor: Vec<u32> = offsets[..counts.len()].to_vec();
    let mut slots = vec![0u32; n];
    for (i, &id) in row_ids.iter().enumerate() {
        slots[cursor[id as usize] as usize] = i as u32;
        cursor[id as usize] += 1;
    }
    (ids, Csr { offsets, slots })
}

/// Default MIN/MAX output for an empty input, typed to the declared output
/// column (an empty scalar aggregate still emits one row). Int and Float
/// defaults compare equal under `Value`'s cross-type equality.
fn empty_agg_default(ty: uaq_storage::ColumnType) -> Value {
    match ty {
        uaq_storage::ColumnType::Int => Value::Int(0),
        uaq_storage::ColumnType::Float => Value::Float(0.0),
        uaq_storage::ColumnType::Str => Value::str(""),
    }
}

/// `Value::cmp` between two cells of the *same* column (monotype).
fn cell_cmp_same(col: &ColumnData, a: usize, b: usize) -> Ordering {
    match col {
        ColumnData::Int(v) => v[a].cmp(&v[b]),
        ColumnData::Float(v) => order_f64(v[a], v[b]),
        ColumnData::Str(v) => v[a].cmp(&v[b]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Pred;
    use crate::plan::PlanBuilder;
    use uaq_stats::Rng;
    use uaq_storage::{Column, Table};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let s1 = Schema::new(vec![Column::int("a"), Column::int("b")]);
        let rows1 = (0..100)
            .map(|i| vec![Value::Int(i % 10), Value::Int(i)])
            .collect();
        c.add_table(Table::new("t1", s1, rows1));
        let s2 = Schema::new(vec![Column::int("x"), Column::float("y")]);
        let rows2 = (0..20)
            .map(|i| vec![Value::Int(i % 5), Value::Float(i as f64)])
            .collect();
        c.add_table(Table::new("t2", s2, rows2));
        c
    }

    #[test]
    fn seq_scan_with_predicate() {
        let c = catalog();
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t1", Pred::eq("a", Value::Int(3)));
        let plan = b.build(s);
        let out = execute_full(&plan, &c);
        assert_eq!(out.num_rows(), 10);
        assert_eq!(out.traces[0].left_input_rows, 100);
        assert_eq!(out.traces[0].output_rows, 10);
        assert!(out.rows().iter().all(|r| r[0] == Value::Int(3)));
    }

    #[test]
    fn filter_narrows() {
        let c = catalog();
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t1", Pred::True);
        let f = b.filter(s, Pred::lt("b", Value::Int(50)));
        let plan = b.build(f);
        let out = execute_full(&plan, &c);
        assert_eq!(out.num_rows(), 50);
        assert_eq!(out.traces[1].left_input_rows, 100);
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let c = catalog();
        let hash = {
            let mut b = PlanBuilder::new();
            let l = b.seq_scan("t1", Pred::True);
            let r = b.seq_scan("t2", Pred::True);
            let j = b.hash_join(l, r, "a", "x");
            b.build(j)
        };
        let nl = {
            let mut b = PlanBuilder::new();
            let l = b.seq_scan("t1", Pred::True);
            let r = b.seq_scan("t2", Pred::True);
            let j = b.nl_join(l, r, "a", "x");
            b.build(j)
        };
        let hj = execute_full(&hash, &c);
        let nj = execute_full(&nl, &c);
        assert_eq!(hj.num_rows(), nj.num_rows());
        // t1.a ranges 0..10 (10 each); t2.x ranges 0..5 (4 each); matches:
        // for a in 0..5 → 10 * 4 = 40 rows each → 200.
        assert_eq!(hj.num_rows(), 200);
        let mut h: Vec<String> = hj.rows().iter().map(|r| format!("{r:?}")).collect();
        let mut n: Vec<String> = nj.rows().iter().map(|r| format!("{r:?}")).collect();
        h.sort();
        n.sort();
        assert_eq!(h, n);
    }

    #[test]
    fn join_schema_concatenates() {
        let c = catalog();
        let mut b = PlanBuilder::new();
        let l = b.seq_scan("t1", Pred::True);
        let r = b.seq_scan("t2", Pred::True);
        let j = b.hash_join(l, r, "a", "x");
        let plan = b.build(j);
        let out = execute_full(&plan, &c);
        assert_eq!(out.schema.len(), 4);
        assert_eq!(out.schema.index_of("y"), Some(3));
    }

    #[test]
    fn sort_orders_rows() {
        let c = catalog();
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t2", Pred::True);
        let srt = b.sort(s, vec![("y".into(), SortOrder::Desc)]);
        let plan = b.build(srt);
        let out = execute_full(&plan, &c);
        let ys: Vec<f64> = out.rows().iter().map(|r| r[1].as_float()).collect();
        let mut sorted = ys.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert_eq!(ys, sorted);
    }

    #[test]
    fn aggregate_group_by() {
        let c = catalog();
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t2", Pred::True);
        let a = b.aggregate(
            s,
            vec!["x".into()],
            vec![
                ("cnt".into(), AggFunc::CountStar),
                ("total".into(), AggFunc::Sum("y".into())),
                ("avg_y".into(), AggFunc::Avg("y".into())),
                ("min_y".into(), AggFunc::Min("y".into())),
                ("max_y".into(), AggFunc::Max("y".into())),
            ],
        );
        let plan = b.build(a);
        let out = execute_full(&plan, &c);
        assert_eq!(out.num_rows(), 5);
        // Group x=0 holds y ∈ {0, 5, 10, 15}.
        let rows = out.rows();
        let g0 = rows
            .iter()
            .find(|r| r[0] == Value::Int(0))
            .expect("group 0");
        assert_eq!(g0[1], Value::Int(4));
        assert_eq!(g0[2].as_float(), 30.0);
        assert_eq!(g0[3].as_float(), 7.5);
        assert_eq!(g0[4].as_float(), 0.0);
        assert_eq!(g0[5].as_float(), 15.0);
    }

    #[test]
    fn scalar_aggregate_on_empty_input() {
        let c = catalog();
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t1", Pred::eq("a", Value::Int(999)));
        let a = b.aggregate(s, vec![], vec![("cnt".into(), AggFunc::CountStar)]);
        let plan = b.build(a);
        let out = execute_full(&plan, &c);
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(0));
    }

    #[test]
    fn sample_mode_tracks_provenance_for_scans() {
        let c = catalog();
        let mut rng = Rng::new(5);
        let samples = c.draw_samples(0.5, 1, &mut rng);
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t1", Pred::eq("a", Value::Int(3)));
        let plan = b.build(s);
        let out = execute_on_samples(&plan, &samples);
        let prov = out.traces[0].prov.as_ref().expect("prov in sample mode");
        assert_eq!(prov.arity, 1);
        assert_eq!(prov.rows(), out.num_rows());
        let n = samples.sample("t1", 0).len();
        for i in 0..prov.rows() {
            assert!((prov.row(i)[0] as usize) < n);
        }
    }

    #[test]
    fn sample_mode_join_provenance_arity() {
        let c = catalog();
        let mut rng = Rng::new(6);
        let samples = c.draw_samples(0.5, 1, &mut rng);
        let mut b = PlanBuilder::new();
        let l = b.seq_scan("t1", Pred::True);
        let r = b.seq_scan("t2", Pred::True);
        let j = b.hash_join(l, r, "a", "x");
        let plan = b.build(j);
        let out = execute_on_samples(&plan, &samples);
        let prov = out.traces[j].prov.as_ref().expect("join prov");
        assert_eq!(prov.arity, 2);
        assert_eq!(prov.rows(), out.num_rows());
        // Every prov row indexes valid sample steps, and the joined rows
        // really match the sample tuples they claim to come from.
        let s1 = samples.sample("t1", 0);
        let s2 = samples.sample("t2", 0);
        for i in 0..prov.rows() {
            let [p1, p2] = prov.row(i) else { panic!() };
            let t1row = &s1.table().rows()[*p1 as usize];
            let t2row = &s2.table().rows()[*p2 as usize];
            assert_eq!(out.rows()[i][0], t1row[0]);
            assert_eq!(out.rows()[i][2], t2row[0]);
        }
    }

    #[test]
    fn aggregate_drops_provenance() {
        let c = catalog();
        let mut rng = Rng::new(7);
        let samples = c.draw_samples(0.5, 1, &mut rng);
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t1", Pred::True);
        let a = b.aggregate(
            s,
            vec!["a".into()],
            vec![("cnt".into(), AggFunc::CountStar)],
        );
        let f = b.filter(a, Pred::gt("cnt", Value::Int(0)));
        let plan = b.build(f);
        let out = execute_on_samples(&plan, &samples);
        assert!(out.traces[a].prov.is_none());
        assert!(out.traces[f].prov.is_none());
        assert!(out.traces[s].prov.is_some());
    }

    #[test]
    fn sort_keeps_prov_aligned() {
        let c = catalog();
        let mut rng = Rng::new(8);
        let samples = c.draw_samples(0.5, 1, &mut rng);
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t1", Pred::True);
        let srt = b.sort(s, vec![("b".into(), SortOrder::Asc)]);
        let plan = b.build(srt);
        let out = execute_on_samples(&plan, &samples);
        let prov = out.traces[srt].prov.as_ref().expect("prov");
        let sample = samples.sample("t1", 0);
        for i in 0..prov.rows() {
            let j = prov.row(i)[0] as usize;
            assert_eq!(out.rows()[i], sample.table().rows()[j]);
        }
    }

    #[test]
    fn index_scan_same_semantics_as_seq_scan() {
        let c = catalog();
        let pred = Pred::between("b", Value::Int(10), Value::Int(29));
        let seq = {
            let mut b = PlanBuilder::new();
            let s = b.seq_scan("t1", pred.clone());
            b.build(s)
        };
        let idx = {
            let mut b = PlanBuilder::new();
            let s = b.index_scan("t1", "b", pred);
            b.build(s)
        };
        assert_eq!(
            execute_full(&seq, &c).num_rows(),
            execute_full(&idx, &c).num_rows()
        );
    }

    #[test]
    fn filter_passthrough_keeps_prov() {
        // A filter that keeps everything must not lose prov alignment.
        let c = catalog();
        let mut rng = Rng::new(9);
        let samples = c.draw_samples(0.5, 1, &mut rng);
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t1", Pred::True);
        let f = b.filter(s, Pred::ge("b", Value::Int(0)));
        let plan = b.build(f);
        let out = execute_on_samples(&plan, &samples);
        let prov = out.traces[f].prov.as_ref().expect("prov");
        assert_eq!(prov.rows(), out.num_rows());
    }

    #[test]
    fn pass_through_operators_share_columns_not_copy() {
        // The zero-copy contract, observed through refcounts: a plan whose
        // operators change nothing (unfiltered scan → keep-everything
        // filter → materialize) must *share* the base table's column
        // payloads, not clone them. `strong_count > 1` proves sharing
        // actually happened (the table holds one handle, the outcome the
        // other); `ptr_eq` pins down that it is the same allocation.
        let c = catalog();
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t1", Pred::True);
        let f = b.filter(s, Pred::ge("b", Value::Int(0))); // keeps all 100 rows
        let m = b.materialize(f);
        let plan = b.build(m);
        let out = execute_full(&plan, &c);
        assert_eq!(out.num_rows(), 100);
        let table_cols = c.table("t1").columns();
        for (out_col, table_col) in out.columns().iter().zip(table_cols) {
            assert!(
                out_col.ptr_eq(table_col),
                "pass-through column must share the table's allocation"
            );
            assert!(
                out_col.strong_count() > 1,
                "sharing must be observable in the refcount, got {}",
                out_col.strong_count()
            );
        }

        // A filter that actually drops rows detaches: fresh payloads.
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t1", Pred::True);
        let f = b.filter(s, Pred::lt("b", Value::Int(50)));
        let plan = b.build(f);
        let out = execute_full(&plan, &c);
        assert_eq!(out.num_rows(), 50);
        for (out_col, table_col) in out.columns().iter().zip(c.table("t1").columns()) {
            assert!(!out_col.ptr_eq(table_col));
            assert_eq!(out_col.strong_count(), 1);
        }
    }

    #[test]
    fn join_key_mirrors_value_equality() {
        use std::collections::hash_map::DefaultHasher;
        let h = |k: &JoinKey| {
            let mut s = DefaultHasher::new();
            k.hash(&mut s);
            s.finish()
        };
        let i3 = JoinKey::Int(3);
        let f3 = JoinKey::Bits(3.0f64.to_bits());
        assert_eq!(i3, f3);
        assert_eq!(h(&i3), h(&f3));
        assert_ne!(JoinKey::Int(3), JoinKey::Bits(3.5f64.to_bits()));
        assert_ne!(JoinKey::Str("3"), i3);
    }
}
