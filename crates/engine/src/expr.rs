//! Predicate expressions.
//!
//! Predicates are conjunctions/disjunctions of comparisons between a column
//! and a constant (plus closed ranges and IN-lists) — exactly the shape of
//! every predicate in the paper's MICRO / SELJOIN / TPCH benchmarks. Join
//! conditions are expressed separately as key-column equalities on the join
//! operators.

use std::cmp::Ordering;
use std::fmt;
use uaq_storage::{order_f64, ColumnData, ColumnSlice, Row, SampleTable, Schema, StrDict, Value};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Whether the operator holds for an operand pair, given the pair's
    /// equality and ordering. The two are separate inputs because they
    /// disagree on floats: equality is on bits, ordering is numeric
    /// (`-0.0` and `0.0` order as equal but are not equal).
    fn test(self, eq: impl FnOnce() -> bool, cmp: impl FnOnce() -> Ordering) -> bool {
        match self {
            CmpOp::Eq => eq(),
            CmpOp::Ne => !eq(),
            CmpOp::Lt => cmp() == Ordering::Less,
            CmpOp::Le => cmp() != Ordering::Greater,
            CmpOp::Gt => cmp() == Ordering::Greater,
            CmpOp::Ge => cmp() != Ordering::Less,
        }
    }

    /// The reference semantics, on `Value`'s own operators — deliberately
    /// not routed through [`CmpOp::test`], so the kernels are checked
    /// against something they do not share.
    fn eval(&self, lhs: &Value, rhs: &Value) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A predicate over one relation's (or join result's) schema.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// Always true (scan without filter).
    True,
    /// `col <op> value`.
    Cmp {
        col: String,
        op: CmpOp,
        value: Value,
    },
    /// `left_col <op> right_col` (e.g. TPC-H's `l_commitdate < l_receiptdate`).
    ColCmp {
        left: String,
        op: CmpOp,
        right: String,
    },
    /// `lo <= col <= hi` (closed range).
    Between { col: String, lo: Value, hi: Value },
    /// `col IN (values)`.
    InList { col: String, values: Vec<Value> },
    /// Conjunction.
    And(Vec<Pred>),
    /// Disjunction.
    Or(Vec<Pred>),
}

impl Pred {
    pub fn cmp(col: impl Into<String>, op: CmpOp, value: Value) -> Self {
        Pred::Cmp {
            col: col.into(),
            op,
            value,
        }
    }

    pub fn col_cmp(left: impl Into<String>, op: CmpOp, right: impl Into<String>) -> Self {
        Pred::ColCmp {
            left: left.into(),
            op,
            right: right.into(),
        }
    }

    pub fn eq(col: impl Into<String>, value: Value) -> Self {
        Self::cmp(col, CmpOp::Eq, value)
    }

    pub fn le(col: impl Into<String>, value: Value) -> Self {
        Self::cmp(col, CmpOp::Le, value)
    }

    pub fn lt(col: impl Into<String>, value: Value) -> Self {
        Self::cmp(col, CmpOp::Lt, value)
    }

    pub fn ge(col: impl Into<String>, value: Value) -> Self {
        Self::cmp(col, CmpOp::Ge, value)
    }

    pub fn gt(col: impl Into<String>, value: Value) -> Self {
        Self::cmp(col, CmpOp::Gt, value)
    }

    pub fn between(col: impl Into<String>, lo: Value, hi: Value) -> Self {
        Pred::Between {
            col: col.into(),
            lo,
            hi,
        }
    }

    pub fn in_list(col: impl Into<String>, values: Vec<Value>) -> Self {
        Pred::InList {
            col: col.into(),
            values,
        }
    }

    pub fn and(preds: Vec<Pred>) -> Self {
        let mut flat = Vec::new();
        for p in preds {
            match p {
                Pred::True => {}
                Pred::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Pred::True,
            1 => flat.pop().expect("len checked"),
            _ => Pred::And(flat),
        }
    }

    pub fn or(preds: Vec<Pred>) -> Self {
        assert!(!preds.is_empty(), "empty OR");
        if preds.len() == 1 {
            return preds.into_iter().next().expect("len checked");
        }
        Pred::Or(preds)
    }

    /// Is this the trivial predicate?
    pub fn is_true(&self) -> bool {
        matches!(self, Pred::True)
    }

    /// Column names referenced by the predicate.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Pred::True => {}
            Pred::Cmp { col, .. } | Pred::Between { col, .. } | Pred::InList { col, .. } => {
                out.push(col)
            }
            Pred::ColCmp { left, right, .. } => {
                out.push(left);
                out.push(right);
            }
            Pred::And(ps) | Pred::Or(ps) => {
                for p in ps {
                    p.collect_columns(out);
                }
            }
        }
    }

    /// Writes the predicate's *structure* — columns, comparison operators,
    /// connective shape, and IN-list length, but **not** literal values —
    /// into `out`. Two predicates with equal structure exercise the oracle
    /// cost model identically (same [`Pred::op_count`], same columns), so
    /// this is the predicate component of a plan's shape signature used for
    /// fit caching across literal-perturbed queries.
    pub fn shape_into(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            Pred::True => out.push('T'),
            Pred::Cmp { col, op, .. } => {
                let _ = write!(out, "c({col}{})", op.symbol());
            }
            Pred::ColCmp { left, op, right } => {
                let _ = write!(out, "cc({left}{}{right})", op.symbol());
            }
            Pred::Between { col, .. } => {
                let _ = write!(out, "bw({col})");
            }
            Pred::InList { col, values } => {
                let _ = write!(out, "in({col}#{})", values.len());
            }
            Pred::And(ps) => {
                out.push_str("&(");
                for p in ps {
                    p.shape_into(out);
                }
                out.push(')');
            }
            Pred::Or(ps) => {
                out.push_str("|(");
                for p in ps {
                    p.shape_into(out);
                }
                out.push(')');
            }
        }
    }

    /// Writes the predicate's *literal constants* — exactly the part
    /// [`Pred::shape_into`] masks — into `out`, in a canonical encoding
    /// that is injective for a fixed shape: integers in decimal, floats as
    /// their IEEE-754 bit pattern (so `-0.0`, `0.0`, and NaN payloads all
    /// encode distinctly, matching [`uaq_storage::Value`] equality), and
    /// strings length-prefixed (no delimiter ambiguity). Together with the
    /// shape signature this identifies a query *instance*: two plans with
    /// equal shapes and equal literal keys execute identically on any
    /// fixed sample set, which is what the serving-layer
    /// selectivity-estimate cache keys on.
    pub fn literals_into(&self, out: &mut String) {
        use std::fmt::Write;
        fn value_into(v: &Value, out: &mut String) {
            match v {
                Value::Int(x) => {
                    let _ = write!(out, "i{x};");
                }
                Value::Float(x) => {
                    let _ = write!(out, "f{:016x};", x.to_bits());
                }
                Value::Str(s) => {
                    let _ = write!(out, "s{}:{s};", s.len());
                }
            }
        }
        match self {
            Pred::True | Pred::ColCmp { .. } => {}
            Pred::Cmp { value, .. } => value_into(value, out),
            Pred::Between { lo, hi, .. } => {
                value_into(lo, out);
                value_into(hi, out);
            }
            Pred::InList { values, .. } => {
                for v in values {
                    value_into(v, out);
                }
            }
            Pred::And(ps) | Pred::Or(ps) => {
                for p in ps {
                    p.literals_into(out);
                }
            }
        }
    }

    /// Number of primitive comparisons in the predicate (schema-free
    /// counterpart of [`BoundPred::op_count`]; the oracle cost model charges
    /// this many CPU operations per evaluated tuple).
    pub fn op_count(&self) -> usize {
        match self {
            Pred::True => 0,
            Pred::Cmp { .. } | Pred::ColCmp { .. } => 1,
            Pred::Between { .. } => 2,
            Pred::InList { values, .. } => values.len(),
            Pred::And(ps) | Pred::Or(ps) => ps.iter().map(Pred::op_count).sum(),
        }
    }

    /// Compiles the predicate against a schema for fast evaluation.
    pub fn bind(&self, schema: &Schema) -> BoundPred {
        match self {
            Pred::True => BoundPred::True,
            Pred::Cmp { col, op, value } => BoundPred::Cmp {
                idx: schema.expect_index(col),
                op: *op,
                value: value.clone(),
            },
            Pred::ColCmp { left, op, right } => BoundPred::ColCmp {
                left: schema.expect_index(left),
                op: *op,
                right: schema.expect_index(right),
            },
            Pred::Between { col, lo, hi } => BoundPred::Between {
                idx: schema.expect_index(col),
                lo: lo.clone(),
                hi: hi.clone(),
            },
            Pred::InList { col, values } => BoundPred::InList {
                idx: schema.expect_index(col),
                values: values.clone(),
            },
            Pred::And(ps) => BoundPred::And(ps.iter().map(|p| p.bind(schema)).collect()),
            Pred::Or(ps) => BoundPred::Or(ps.iter().map(|p| p.bind(schema)).collect()),
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => write!(f, "true"),
            Pred::Cmp { col, op, value } => write!(f, "{col} {} {value}", op.symbol()),
            Pred::ColCmp { left, op, right } => write!(f, "{left} {} {right}", op.symbol()),
            Pred::Between { col, lo, hi } => write!(f, "{col} BETWEEN {lo} AND {hi}"),
            Pred::InList { col, values } => {
                let vs: Vec<String> = values.iter().map(|v| v.to_string()).collect();
                write!(f, "{col} IN ({})", vs.join(", "))
            }
            Pred::And(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| format!("({p})")).collect();
                write!(f, "{}", parts.join(" AND "))
            }
            Pred::Or(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| format!("({p})")).collect();
                write!(f, "{}", parts.join(" OR "))
            }
        }
    }
}

/// A predicate compiled against a concrete schema (column indices resolved).
#[derive(Debug, Clone)]
pub enum BoundPred {
    True,
    Cmp {
        idx: usize,
        op: CmpOp,
        value: Value,
    },
    ColCmp {
        left: usize,
        op: CmpOp,
        right: usize,
    },
    Between {
        idx: usize,
        lo: Value,
        hi: Value,
    },
    InList {
        idx: usize,
        values: Vec<Value>,
    },
    And(Vec<BoundPred>),
    Or(Vec<BoundPred>),
}

impl BoundPred {
    /// Evaluates the predicate on a row: the **reference semantics** of a
    /// predicate, defined on [`Value`]'s equality and ordering. The slice
    /// kernels below ([`Self::eval_slices`], [`Self::filter_slices`]) must
    /// agree with it on every row, and the engine's tests check that they
    /// do; the executor itself never calls it.
    pub fn eval(&self, row: &Row) -> bool {
        match self {
            BoundPred::True => true,
            BoundPred::Cmp { idx, op, value } => op.eval(&row[*idx], value),
            BoundPred::ColCmp { left, op, right } => op.eval(&row[*left], &row[*right]),
            BoundPred::Between { idx, lo, hi } => {
                let v = &row[*idx];
                v >= lo && v <= hi
            }
            BoundPred::InList { idx, values } => values.iter().any(|v| v == &row[*idx]),
            BoundPred::And(ps) => ps.iter().all(|p| p.eval(row)),
            BoundPred::Or(ps) => ps.iter().any(|p| p.eval(row)),
        }
    }

    /// Number of primitive comparisons (used by the oracle cost model to
    /// charge CPU operations per evaluated tuple).
    pub fn op_count(&self) -> usize {
        match self {
            BoundPred::True => 0,
            BoundPred::Cmp { .. } | BoundPred::ColCmp { .. } => 1,
            BoundPred::Between { .. } => 2,
            BoundPred::InList { values, .. } => values.len(),
            BoundPred::And(ps) | BoundPred::Or(ps) => ps.iter().map(BoundPred::op_count).sum(),
        }
    }

    /// Evaluates the predicate on logical row `i` of a batch of
    /// [`ColumnSlice`]s, reading through each column's selection chain.
    /// Mirrors [`BoundPred::eval`] exactly; note that with per-column
    /// selection views the *physical* index may differ between columns even
    /// though the logical row is the same.
    pub fn eval_slices(&self, cols: &[ColumnSlice], i: usize) -> bool {
        let cell = |idx: usize| {
            let s = &cols[idx];
            (s.base().as_ref(), s.physical(i))
        };
        match self {
            BoundPred::True => true,
            BoundPred::Cmp { idx, op, value } => {
                let (c, p) = cell(*idx);
                op.test(
                    || cell_value_eq(c, p, value),
                    || cell_value_cmp(c, p, value),
                )
            }
            BoundPred::ColCmp { left, op, right } => {
                let ((l, li), (r, ri)) = (cell(*left), cell(*right));
                op.test(
                    || cell_pair_eq(l, li, r, ri),
                    || cell_pair_cmp(l, li, r, ri),
                )
            }
            BoundPred::Between { idx, lo, hi } => {
                let (c, p) = cell(*idx);
                cell_value_cmp(c, p, lo) != Ordering::Less
                    && cell_value_cmp(c, p, hi) != Ordering::Greater
            }
            BoundPred::InList { idx, values } => {
                let (c, p) = cell(*idx);
                values.iter().any(|v| cell_value_eq(c, p, v))
            }
            BoundPred::And(ps) => ps.iter().all(|p| p.eval_slices(cols, i)),
            BoundPred::Or(ps) => ps.iter().any(|p| p.eval_slices(cols, i)),
        }
    }

    /// Vectorized selection over a batch of [`ColumnSlice`]s: *logical* row
    /// indices in `0..len` satisfying the predicate, in logical order — the
    /// engine's one predicate kernel, shared by scans (dense slices: an
    /// empty selection chain) and filters. The common single-comparison
    /// shapes run as tight loops over the typed base column
    /// ([`select_slice`]); everything else falls back to row-at-a-time
    /// [`Self::eval_slices`]. Sample mode adds one arm in front of it,
    /// [`Self::filter_sample`].
    pub fn filter_slices(&self, cols: &[ColumnSlice], len: usize) -> Vec<u32> {
        match self {
            BoundPred::True => (0..len as u32).collect(),
            BoundPred::Cmp { idx, op, value } => {
                let s = &cols[*idx];
                match (s.base().as_ref(), value) {
                    (ColumnData::Int(v), Value::Int(c)) => {
                        let c = *c;
                        // One closure per operator, on the native
                        // comparison: deriving all six from `x.cmp(&c)`
                        // cost a dense Int scan 40% (11.3 -> 16.6 us on
                        // the `exec/full/scan` bench).
                        match op {
                            CmpOp::Eq => select_slice(v, s, |x| x == c),
                            CmpOp::Ne => select_slice(v, s, |x| x != c),
                            CmpOp::Lt => select_slice(v, s, |x| x < c),
                            CmpOp::Le => select_slice(v, s, |x| x <= c),
                            CmpOp::Gt => select_slice(v, s, |x| x > c),
                            CmpOp::Ge => select_slice(v, s, |x| x >= c),
                        }
                    }
                    (ColumnData::Float(v), Value::Float(c)) => select_slice_float(v, s, *op, *c),
                    (ColumnData::Float(v), Value::Int(c)) => {
                        select_slice_float(v, s, *op, *c as f64)
                    }
                    _ => self.select_generic(cols, len),
                }
            }
            BoundPred::Between { idx, lo, hi } => {
                let s = &cols[*idx];
                match (s.base().as_ref(), lo, hi) {
                    (ColumnData::Int(v), Value::Int(lo), Value::Int(hi)) => {
                        let (lo, hi) = (*lo, *hi);
                        select_slice(v, s, |x| x >= lo && x <= hi)
                    }
                    (ColumnData::Float(v), Value::Float(lo), Value::Float(hi)) => {
                        let (lo, hi) = (*lo, *hi);
                        select_slice(v, s, |x| {
                            order_f64(x, lo) != Ordering::Less
                                && order_f64(x, hi) != Ordering::Greater
                        })
                    }
                    _ => self.select_generic(cols, len),
                }
            }
            BoundPred::And(ps) if !ps.is_empty() => {
                // Filter by the first conjunct vectorized, then refine.
                let mut sel = ps[0].filter_slices(cols, len);
                for p in &ps[1..] {
                    sel.retain(|&i| p.eval_slices(cols, i as usize));
                }
                sel
            }
            _ => self.select_generic(cols, len),
        }
    }

    fn select_generic(&self, cols: &[ColumnSlice], len: usize) -> Vec<u32> {
        (0..len as u32)
            .filter(|&i| self.eval_slices(cols, i as usize))
            .collect()
    }

    /// [`Self::filter_slices`] for a batch that is an order-preserving row
    /// subset of `sample`, columns unchanged (sample mode: a scan, or a
    /// filter over one). A `Cmp`, `Between` or `InList` leaf on a `Str`
    /// column places its literal(s) among the column's distinct strings
    /// once ([`SampleTable::str_dict`]) and runs the same `select_slice`
    /// over the table's `u32` codes, through the column's selection chain,
    /// instead of comparing strings row by row. `And` keeps
    /// [`Self::filter_slices`]'s shape — first conjunct here, the rest
    /// retained — and every other shape is [`Self::filter_slices`]
    /// itself, so the selected rows are the same either way.
    pub fn filter_sample(
        &self,
        cols: &[ColumnSlice],
        len: usize,
        sample: &SampleTable,
    ) -> Vec<u32> {
        match self {
            BoundPred::And(ps) => match ps.split_first() {
                Some((first, rest)) => {
                    let mut sel = first.filter_sample(cols, len, sample);
                    for p in rest {
                        sel.retain(|&i| p.eval_slices(cols, i as usize));
                    }
                    sel
                }
                None => self.filter_slices(cols, len),
            },
            leaf => leaf
                .select_coded(cols, sample)
                .unwrap_or_else(|| leaf.filter_slices(cols, len)),
        }
    }

    /// The coded selection of a leaf on a `Str` column of `sample`; `None`
    /// when the leaf is not one (or the column is not the table's own),
    /// and for an ordering against a non-`Str` literal, which is left to
    /// the reference kernel and its panic.
    fn select_coded(&self, cols: &[ColumnSlice], sample: &SampleTable) -> Option<Vec<u32>> {
        let (BoundPred::Cmp { idx, .. }
        | BoundPred::Between { idx, .. }
        | BoundPred::InList { idx, .. }) = self
        else {
            return None;
        };
        let slice = cols.get(*idx)?;
        let dict = sample.str_dict(*idx)?;
        if !slice.base().ptr_eq(sample.table().columns().get(*idx)?) {
            return None;
        }
        let v = dict.codes();
        // Every shape but a longer `IN` list keeps one run of codes,
        // `lo..hi`, or (`<>`) everything outside it; an absent literal's
        // run is empty.
        let ((lo, hi), inside) = match self {
            BoundPred::Cmp { op, value, .. } => {
                let codes = match (op, as_str(value)) {
                    (_, Some(lit)) => dict.code_range(lit),
                    // A `Str` cell never equals a number: like a string
                    // no step holds.
                    (CmpOp::Eq | CmpOp::Ne, None) => 0..0,
                    (_, None) => return None,
                };
                match op {
                    CmpOp::Eq => ((codes.start, codes.end), true),
                    CmpOp::Ne => ((codes.start, codes.end), false),
                    CmpOp::Lt => ((0, codes.start), true),
                    CmpOp::Le => ((0, codes.end), true),
                    CmpOp::Gt => ((codes.end, u32::MAX), true),
                    CmpOp::Ge => ((codes.start, u32::MAX), true),
                }
            }
            BoundPred::Between { lo, hi, .. } => {
                let (lo, hi) = (as_str(lo)?, as_str(hi)?);
                ((dict.code_range(lo).start, dict.code_range(hi).end), true)
            }
            BoundPred::InList { values, .. } => {
                let codes = present_codes(dict, values);
                match codes.as_slice() {
                    [] => ((0, 0), true),
                    &[code] => ((code, code + 1), true),
                    _ => return Some(select_slice(v, slice, |x| codes.contains(&x))),
                }
            }
            _ => return None,
        };
        // One compare per row: `x - lo` wraps past `width` below `lo`.
        let width = hi.saturating_sub(lo);
        Some(if inside {
            select_slice(v, slice, |x| x.wrapping_sub(lo) < width)
        } else {
            select_slice(v, slice, |x| x.wrapping_sub(lo) >= width)
        })
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// The codes of the list's `Str` values that some step holds (the others
/// match no cell).
fn present_codes(dict: &StrDict, values: &[Value]) -> Vec<u32> {
    values
        .iter()
        .filter_map(as_str)
        .map(|s| dict.code_range(s))
        .filter(|codes| !codes.is_empty())
        .map(|codes| codes.start)
        .collect()
}

/// The selection primitive: logical indices of the rows of `slice` (a view
/// over the typed payload `v`) whose cell satisfies `pred`. A dense slice —
/// an empty selection chain, which is what a scan hands in — has physical =
/// logical, so it runs as a plain pass over `v`; otherwise physical indices
/// stream through the chain ([`ColumnSlice::for_each_physical`]). The dense
/// arm pays for itself: sending scans through the chain walk instead cost
/// `uaq-bench` 14% of `full_exec_us_p50` on the service workloads.
fn select_slice<T: Copy>(v: &[T], slice: &ColumnSlice, pred: impl Fn(T) -> bool) -> Vec<u32> {
    if slice.is_dense() {
        return v
            .iter()
            .enumerate()
            .filter_map(|(i, &x)| pred(x).then_some(i as u32))
            .collect();
    }
    let mut out = Vec::new();
    let mut i = 0u32;
    slice.for_each_physical(|p| {
        if pred(v[p]) {
            out.push(i);
        }
        i += 1;
    });
    out
}

/// Float equality is bit equality (`Value` semantics: NaN == NaN,
/// `-0.0 != 0.0`), not numeric equality; ordering is [`order_f64`].
fn select_slice_float(v: &[f64], s: &ColumnSlice, op: CmpOp, c: f64) -> Vec<u32> {
    match op {
        CmpOp::Eq => select_slice(v, s, |x| x.to_bits() == c.to_bits()),
        CmpOp::Ne => select_slice(v, s, |x| x.to_bits() != c.to_bits()),
        CmpOp::Lt => select_slice(v, s, |x| order_f64(x, c) == Ordering::Less),
        CmpOp::Le => select_slice(v, s, |x| order_f64(x, c) != Ordering::Greater),
        CmpOp::Gt => select_slice(v, s, |x| order_f64(x, c) == Ordering::Greater),
        CmpOp::Ge => select_slice(v, s, |x| order_f64(x, c) != Ordering::Less),
    }
}

/// Mirrors `Value::eq` for cell `i` of a column against a constant: Int/Int
/// is integer equality, any numeric mix is f64 *bit* equality, Str/Str is
/// string equality, and mixed Str/numeric is false.
fn cell_value_eq(col: &ColumnData, i: usize, v: &Value) -> bool {
    match (col, v) {
        (ColumnData::Int(c), Value::Int(b)) => c[i] == *b,
        (ColumnData::Float(c), Value::Float(b)) => c[i].to_bits() == b.to_bits(),
        (ColumnData::Int(c), Value::Float(b)) => (c[i] as f64).to_bits() == b.to_bits(),
        (ColumnData::Float(c), Value::Int(b)) => c[i].to_bits() == (*b as f64).to_bits(),
        (ColumnData::Str(c), Value::Str(b)) => *c[i] == **b,
        _ => false,
    }
}

/// Mirrors `Value::cmp` for cell `i` of a column against a constant.
fn cell_value_cmp(col: &ColumnData, i: usize, v: &Value) -> Ordering {
    match (col, v) {
        (ColumnData::Int(c), Value::Int(b)) => c[i].cmp(b),
        (ColumnData::Str(c), Value::Str(b)) => (*c[i]).cmp(b),
        (ColumnData::Int(c), Value::Float(b)) => order_f64(c[i] as f64, *b),
        (ColumnData::Float(c), Value::Float(b)) => order_f64(c[i], *b),
        (ColumnData::Float(c), Value::Int(b)) => order_f64(c[i], *b as f64),
        (c, v) => panic!("cannot order {:?} cell vs {v:?}", c.ty()),
    }
}

/// Mirrors `Value::eq` between cell `li` of one column and `ri` of another
/// (independent indices: two columns behind different selection chains map
/// one logical row to different physical cells).
pub(crate) fn cell_pair_eq(l: &ColumnData, li: usize, r: &ColumnData, ri: usize) -> bool {
    match (l, r) {
        (ColumnData::Int(a), ColumnData::Int(b)) => a[li] == b[ri],
        (ColumnData::Float(a), ColumnData::Float(b)) => a[li].to_bits() == b[ri].to_bits(),
        (ColumnData::Int(a), ColumnData::Float(b)) => (a[li] as f64).to_bits() == b[ri].to_bits(),
        (ColumnData::Float(a), ColumnData::Int(b)) => a[li].to_bits() == (b[ri] as f64).to_bits(),
        (ColumnData::Str(a), ColumnData::Str(b)) => a[li] == b[ri],
        _ => false,
    }
}

/// Mirrors `Value::cmp` between cell `li` of one column and `ri` of another.
fn cell_pair_cmp(l: &ColumnData, li: usize, r: &ColumnData, ri: usize) -> Ordering {
    match (l, r) {
        (ColumnData::Int(a), ColumnData::Int(b)) => a[li].cmp(&b[ri]),
        (ColumnData::Str(a), ColumnData::Str(b)) => a[li].cmp(&b[ri]),
        (ColumnData::Int(a), ColumnData::Float(b)) => order_f64(a[li] as f64, b[ri]),
        (ColumnData::Float(a), ColumnData::Float(b)) => order_f64(a[li], b[ri]),
        (ColumnData::Float(a), ColumnData::Int(b)) => order_f64(a[li], b[ri] as f64),
        (a, b) => panic!("cannot order {:?} cell vs {:?} cell", a.ty(), b.ty()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use uaq_storage::{Column, MAX_SELECTION_DEPTH};

    fn schema() -> Schema {
        Schema::new(vec![Column::int("a"), Column::float("b"), Column::str("c")])
    }

    fn row(a: i64, b: f64, c: &str) -> Row {
        vec![Value::Int(a), Value::Float(b), Value::str(c)]
    }

    #[test]
    fn cmp_ops() {
        let s = schema();
        let r = row(5, 2.5, "x");
        assert!(Pred::eq("a", Value::Int(5)).bind(&s).eval(&r));
        assert!(Pred::lt("b", Value::Float(3.0)).bind(&s).eval(&r));
        assert!(!Pred::gt("b", Value::Float(3.0)).bind(&s).eval(&r));
        assert!(Pred::cmp("c", CmpOp::Ne, Value::str("y")).bind(&s).eval(&r));
        assert!(Pred::ge("a", Value::Int(5)).bind(&s).eval(&r));
        assert!(Pred::le("a", Value::Int(5)).bind(&s).eval(&r));
    }

    #[test]
    fn between_is_closed() {
        let s = schema();
        let p = Pred::between("a", Value::Int(3), Value::Int(5)).bind(&s);
        assert!(p.eval(&row(3, 0.0, "")));
        assert!(p.eval(&row(5, 0.0, "")));
        assert!(!p.eval(&row(6, 0.0, "")));
        assert!(!p.eval(&row(2, 0.0, "")));
    }

    #[test]
    fn in_list() {
        let s = schema();
        let p = Pred::in_list("c", vec![Value::str("x"), Value::str("y")]).bind(&s);
        assert!(p.eval(&row(0, 0.0, "x")));
        assert!(p.eval(&row(0, 0.0, "y")));
        assert!(!p.eval(&row(0, 0.0, "z")));
    }

    #[test]
    fn and_or_combinators() {
        let s = schema();
        let p = Pred::and(vec![
            Pred::ge("a", Value::Int(1)),
            Pred::or(vec![
                Pred::eq("c", Value::str("x")),
                Pred::eq("c", Value::str("y")),
            ]),
        ])
        .bind(&s);
        assert!(p.eval(&row(2, 0.0, "y")));
        assert!(!p.eval(&row(0, 0.0, "y")));
        assert!(!p.eval(&row(2, 0.0, "z")));
    }

    #[test]
    fn and_flattens_and_simplifies() {
        assert!(Pred::and(vec![]).is_true());
        assert!(Pred::and(vec![Pred::True, Pred::True]).is_true());
        let single = Pred::and(vec![Pred::eq("a", Value::Int(1))]);
        assert!(matches!(single, Pred::Cmp { .. }));
        let nested = Pred::and(vec![
            Pred::And(vec![
                Pred::eq("a", Value::Int(1)),
                Pred::eq("a", Value::Int(2)),
            ]),
            Pred::eq("a", Value::Int(3)),
        ]);
        if let Pred::And(ps) = nested {
            assert_eq!(ps.len(), 3);
        } else {
            panic!("expected flattened And");
        }
    }

    #[test]
    fn columns_are_collected_and_deduped() {
        let p = Pred::and(vec![
            Pred::eq("a", Value::Int(1)),
            Pred::between("b", Value::Float(0.0), Value::Float(1.0)),
            Pred::eq("a", Value::Int(2)),
        ]);
        assert_eq!(p.columns(), vec!["a", "b"]);
    }

    #[test]
    fn op_count() {
        let s = schema();
        let p = Pred::and(vec![
            Pred::eq("a", Value::Int(1)),
            Pred::between("b", Value::Float(0.0), Value::Float(1.0)),
            Pred::in_list("c", vec![Value::str("x"), Value::str("y"), Value::str("z")]),
        ])
        .bind(&s);
        assert_eq!(p.op_count(), 6);
        assert_eq!(BoundPred::True.op_count(), 0);
    }

    #[test]
    fn display_roundtrip_is_readable() {
        let p = Pred::and(vec![
            Pred::eq("a", Value::Int(1)),
            Pred::between("b", Value::Float(0.0), Value::Float(1.0)),
        ]);
        assert_eq!(p.to_string(), "(a = 1) AND (b BETWEEN 0 AND 1)");
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn binding_unknown_column_panics() {
        Pred::eq("zz", Value::Int(0)).bind(&schema());
    }

    /// Six columns — Int `a`/`d`, Float `b`/`e`, Str `c`/`f` — each behind
    /// its *own* `depth`-layer selection chain (so one logical row maps to
    /// different physical cells per column), all of one logical length.
    /// The floats carry `-0.0`, `0.0` and whole values that equal Ints.
    fn sliced_batch(depth: usize) -> (Schema, Vec<ColumnSlice>) {
        const N: usize = 48;
        let ints =
            |m: usize, off: i64| ColumnData::Int((0..N).map(|i| (i % m) as i64 - off).collect());
        let floats =
            |cycle: &[f64]| ColumnData::Float((0..N).map(|i| cycle[i % cycle.len()]).collect());
        let strs = |cycle: &[&str]| {
            ColumnData::Str((0..N).map(|i| cycle[i % cycle.len()].into()).collect())
        };
        let schema = Schema::new(vec![
            Column::int("a"),
            Column::float("b"),
            Column::str("c"),
            Column::int("d"),
            Column::float("e"),
            Column::str("f"),
        ]);
        let bases = [
            ints(7, 2),
            floats(&[-0.0, 0.0, 2.0, 2.5, -1.5, 3.0]),
            strs(&["k", "m", "z", "m2"]),
            ints(5, 1),
            floats(&[0.0, -0.0, 2.5, 2.0, 3.0]),
            strs(&["m", "a", "z"]),
        ];
        let cols = bases
            .into_iter()
            .enumerate()
            .map(|(j, base)| {
                let mut slice = ColumnSlice::from(base);
                for k in 1..=depth {
                    let prev = slice.len();
                    let sel = (0..prev - 6)
                        .map(|i| ((i * (2 * (j + k) + 1) + j + k) % prev) as u32)
                        .collect();
                    slice = slice.select(&Arc::new(sel));
                }
                slice
            })
            .collect();
        (schema, cols)
    }

    /// Every predicate shape the kernels distinguish: typed fast paths,
    /// the generic fallback, and the connectives that mix them.
    fn kernel_shapes() -> Vec<Pred> {
        const OPS: [CmpOp; 6] = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let mut shapes = vec![Pred::True];
        for op in OPS {
            for (col, lit) in [
                ("a", Value::Int(3)),
                ("a", Value::Float(3.0)),
                ("a", Value::Float(2.5)),
                ("a", Value::Float(-0.0)),
                ("b", Value::Int(2)),
                ("b", Value::Float(0.0)),
                ("b", Value::Float(-0.0)),
                ("b", Value::Float(2.5)),
                ("c", Value::str("m")),
            ] {
                shapes.push(Pred::cmp(col, op, lit));
            }
            for (l, r) in [("a", "d"), ("a", "b"), ("b", "a"), ("b", "e"), ("c", "f")] {
                shapes.push(Pred::col_cmp(l, op, r));
            }
        }
        // Str against a number is legal under equality only (always false).
        shapes.push(Pred::eq("c", Value::Int(1)));
        shapes.push(Pred::cmp("c", CmpOp::Ne, Value::Float(1.0)));
        shapes.push(Pred::col_cmp("c", CmpOp::Eq, "a"));
        shapes.extend([
            Pred::between("a", Value::Int(-1), Value::Int(2)),
            Pred::between("b", Value::Float(-0.0), Value::Float(2.5)),
            Pred::between("a", Value::Float(-0.5), Value::Float(3.0)),
            Pred::between("b", Value::Int(0), Value::Float(2.0)),
            Pred::between("c", Value::str("l"), Value::str("n")),
            Pred::in_list("a", vec![Value::Int(4), Value::Float(-2.0)]),
            Pred::in_list("b", vec![Value::Float(-0.0), Value::Int(2)]),
            Pred::in_list("c", vec![Value::str("z"), Value::Int(0)]),
            Pred::in_list("a", vec![]),
            Pred::And(vec![]),
            Pred::and(vec![
                Pred::ge("a", Value::Int(0)),
                Pred::col_cmp("b", CmpOp::Le, "e"),
                Pred::between("d", Value::Int(0), Value::Int(2)),
            ]),
            Pred::and(vec![
                Pred::col_cmp("a", CmpOp::Ne, "d"),
                Pred::lt("b", Value::Float(2.5)),
            ]),
            Pred::or(vec![
                Pred::eq("b", Value::Float(0.0)),
                Pred::eq("c", Value::str("z")),
                Pred::and(vec![
                    Pred::gt("e", Value::Int(2)),
                    Pred::or(vec![
                        Pred::lt("a", Value::Int(0)),
                        Pred::eq("f", Value::str("a")),
                    ]),
                ]),
            ]),
        ]);
        shapes
    }

    #[test]
    fn filter_slices_agrees_with_eval_on_every_shape_at_every_depth() {
        let shapes = kernel_shapes();
        // One layer past the bound: the chain flattens back to depth 1.
        for depth in 0..=MAX_SELECTION_DEPTH + 1 {
            let (schema, cols) = sliced_batch(depth);
            let expected_depth = if depth > MAX_SELECTION_DEPTH {
                1
            } else {
                depth
            };
            assert!(cols.iter().all(|c| c.selection_depth() == expected_depth));
            let len = cols[0].len();
            let rows: Vec<Row> = (0..len)
                .map(|i| cols.iter().map(|c| c.value(i)).collect())
                .collect();
            for pred in &shapes {
                let bound = pred.bind(&schema);
                let want: Vec<u32> = (0..len as u32)
                    .filter(|&i| bound.eval(&rows[i as usize]))
                    .collect();
                assert_eq!(
                    bound.filter_slices(&cols, len),
                    want,
                    "depth {depth}: {pred}"
                );
                for (i, row) in rows.iter().enumerate() {
                    assert_eq!(
                        bound.eval_slices(&cols, i),
                        bound.eval(row),
                        "depth {depth} row {i}: {pred}"
                    );
                }
            }
        }
    }

    #[test]
    fn float_kernels_split_equality_from_ordering_at_zero() {
        // `b` cycles [-0.0, 0.0, 2.0, 2.5, -1.5, 3.0] over 48 dense rows.
        let (schema, cols) = sliced_batch(0);
        let count = |p: Pred| p.bind(&schema).filter_slices(&cols, 48).len();
        // Equality is on bits: the two zeros are different values …
        assert_eq!(count(Pred::eq("b", Value::Float(0.0))), 8);
        assert_eq!(count(Pred::eq("b", Value::Float(-0.0))), 8);
        assert_eq!(count(Pred::eq("b", Value::Int(0))), 8);
        // … ordering is numeric: they order as equal.
        assert_eq!(count(Pred::le("b", Value::Float(-0.0))), 24);
        assert_eq!(count(Pred::lt("b", Value::Float(0.0))), 8);
        // A whole float equals the Int it converts from, in either position.
        assert_eq!(count(Pred::eq("b", Value::Int(2))), 8);
        assert_eq!(
            count(Pred::eq("a", Value::Float(3.0))),
            count(Pred::eq("a", Value::Int(3)))
        );
    }
}
