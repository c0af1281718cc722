//! The original row-at-a-time executor, kept verbatim as the **reference
//! semantics** for the columnar data plane in `uaq_engine::exec`.
//!
//! Every operator materializes `Vec<Row>` and (in sample mode) one
//! provenance vector per row. It is deliberately simple and slow; the golden
//! equivalence tests (`columnar_equivalence.rs`, `late_materialization.rs`)
//! assert that the columnar executor produces identical rows, traces, and
//! provenance matrices on the benchmark workloads. Do not optimise this
//! module — its value is being an independently-written oracle.
//!
//! It is test support, not library code: each test target that needs the
//! oracle declares `mod exec_row;`, and it sees `uaq_engine` through its
//! public API only.

// Each test target compiles its own copy and reads a different subset.
#![allow(dead_code)]

use std::collections::HashMap;
use uaq_engine::validate::debug_check;
use uaq_engine::{AggFunc, NodeId, NodeTrace, Op, Plan, Pred, ProvData, SortOrder};
use uaq_storage::{Catalog, Row, SampleCatalog, Schema, Value};

/// What the oracle returns: the root rows and the per-node traces.
pub struct RowOutcome {
    pub schema: Schema,
    pub rows: Vec<Row>,
    pub traces: Vec<NodeTrace>,
}

/// Intermediate batch flowing between operators.
struct Batch {
    schema: Schema,
    rows: Vec<Row>,
    /// One provenance vector per row (sample mode only; dropped above
    /// aggregates because grouped rows have no single lineage).
    prov: Option<Vec<Vec<u32>>>,
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

/// Row-based reference: executes a plan against the base tables.
pub fn execute_full_rows(plan: &Plan, catalog: &Catalog) -> RowOutcome {
    debug_check(plan, Some(catalog), None);
    let mut ex = Executor {
        plan,
        source: Source::Full(catalog),
        traces: vec![NodeTrace::default(); plan.len()],
    };
    let batch = ex.exec(plan.root());
    RowOutcome {
        schema: batch.schema,
        rows: batch.rows,
        traces: ex.traces,
    }
}

/// Row-based reference: executes a plan against sample tables, tracking
/// provenance. Same contract as [`uaq_engine::execute_on_samples`]: nodes at
/// or above an aggregate are not executed.
pub fn execute_on_samples_rows(plan: &Plan, samples: &SampleCatalog) -> RowOutcome {
    debug_check(plan, None, Some(samples));
    let mut ex = Executor {
        plan,
        source: Source::Samples(samples),
        traces: vec![NodeTrace::default(); plan.len()],
    };
    let batch = ex.exec(plan.root());
    RowOutcome {
        schema: batch.schema,
        rows: batch.rows,
        traces: ex.traces,
    }
}

impl<'a> Executor<'a> {
    fn exec(&mut self, id: NodeId) -> Batch {
        // Sample mode does not execute a node at or above an aggregate (see
        // `execute_on_samples`): it runs the children and records their
        // output counts, nothing else.
        if matches!(self.source, Source::Samples(_)) && self.plan.meta(id).agg_at_or_below {
            let children = self.plan.op(id).children();
            let rows: Vec<usize> = children.iter().map(|&c| self.exec(c).rows.len()).collect();
            let trace = &mut self.traces[id];
            trace.left_input_rows = rows.first().copied().unwrap_or(0);
            trace.right_input_rows = rows.get(1).copied().unwrap_or(0);
            return Batch {
                schema: Schema::default(),
                rows: Vec::new(),
                prov: None,
            };
        }
        let batch = match self.plan.op(id).clone() {
            Op::SeqScan { table, predicate } => self.scan(id, &table, &predicate),
            Op::IndexScan {
                table, predicate, ..
            } => self.scan(id, &table, &predicate),
            Op::Filter { input, predicate } => {
                let child = self.exec(input);
                self.filter(id, child, &predicate)
            }
            Op::Sort { input, keys } => {
                let child = self.exec(input);
                self.sort(id, child, &keys)
            }
            Op::Materialize { input } => {
                let child = self.exec(input);
                self.traces[id].left_input_rows = child.rows.len();
                child
            }
            Op::HashJoin {
                left,
                right,
                left_key,
                right_key,
            } => {
                let l = self.exec(left);
                let r = self.exec(right);
                self.hash_join(id, l, r, &left_key, &right_key)
            }
            Op::NestedLoopJoin {
                left,
                right,
                left_key,
                right_key,
            } => {
                let l = self.exec(left);
                let r = self.exec(right);
                self.nl_join(id, l, r, &left_key, &right_key)
            }
            Op::HashAggregate {
                input,
                group_by,
                aggs,
            } => {
                let child = self.exec(input);
                self.aggregate(id, child, &group_by, &aggs)
            }
        };
        self.traces[id].output_rows = batch.rows.len();
        if let Some(prov) = &batch.prov {
            let arity = self.plan.meta(id).leaf_tables.len();
            let mut data = Vec::with_capacity(prov.len() * arity);
            for p in prov {
                debug_assert_eq!(p.len(), arity);
                data.extend_from_slice(p);
            }
            self.traces[id].prov = Some(ProvData::new(arity, data));
        }
        batch
    }

    fn scan(&mut self, id: NodeId, table: &str, predicate: &Pred) -> Batch {
        let (schema, rows, with_prov): (Schema, &[Row], bool) = match &self.source {
            Source::Full(catalog) => {
                let t = catalog.table(table);
                (t.schema().clone(), t.rows(), false)
            }
            Source::Samples(samples) => {
                let occurrence = self.plan.meta(id).leaf_tables[0].occurrence;
                let s = samples.sample(table, occurrence);
                (s.table().schema().clone(), s.table().rows(), true)
            }
        };
        self.traces[id].left_input_rows = rows.len();
        let bound = predicate.bind(&schema);
        let mut out_rows = Vec::new();
        let mut out_prov = if with_prov { Some(Vec::new()) } else { None };
        for (j, row) in rows.iter().enumerate() {
            if bound.eval(row) {
                out_rows.push(row.clone());
                if let Some(p) = &mut out_prov {
                    p.push(vec![j as u32]);
                }
            }
        }
        Batch {
            schema,
            rows: out_rows,
            prov: out_prov,
        }
    }

    fn filter(&mut self, id: NodeId, child: Batch, predicate: &Pred) -> Batch {
        self.traces[id].left_input_rows = child.rows.len();
        let bound = predicate.bind(&child.schema);
        match child.prov {
            Some(prov) => {
                let mut rows = Vec::new();
                let mut out_prov = Vec::new();
                for (row, p) in child.rows.into_iter().zip(prov) {
                    if bound.eval(&row) {
                        rows.push(row);
                        out_prov.push(p);
                    }
                }
                Batch {
                    schema: child.schema,
                    rows,
                    prov: Some(out_prov),
                }
            }
            None => {
                let rows = child.rows.into_iter().filter(|r| bound.eval(r)).collect();
                Batch {
                    schema: child.schema,
                    rows,
                    prov: None,
                }
            }
        }
    }

    fn sort(&mut self, id: NodeId, child: Batch, keys: &[(String, SortOrder)]) -> Batch {
        self.traces[id].left_input_rows = child.rows.len();
        let key_idx: Vec<(usize, SortOrder)> = keys
            .iter()
            .map(|(k, o)| (child.schema.expect_index(k), *o))
            .collect();
        let mut order: Vec<usize> = (0..child.rows.len()).collect();
        order.sort_by(|&a, &b| {
            for &(idx, dir) in &key_idx {
                let cmp = child.rows[a][idx].cmp(&child.rows[b][idx]);
                let cmp = if dir == SortOrder::Desc {
                    cmp.reverse()
                } else {
                    cmp
                };
                if cmp != std::cmp::Ordering::Equal {
                    return cmp;
                }
            }
            std::cmp::Ordering::Equal
        });
        let rows: Vec<Row> = order.iter().map(|&i| child.rows[i].clone()).collect();
        let prov = child
            .prov
            .map(|p| order.iter().map(|&i| p[i].clone()).collect());
        Batch {
            schema: child.schema,
            rows,
            prov,
        }
    }

    fn hash_join(
        &mut self,
        id: NodeId,
        left: Batch,
        right: Batch,
        left_key: &str,
        right_key: &str,
    ) -> Batch {
        self.traces[id].left_input_rows = left.rows.len();
        self.traces[id].right_input_rows = right.rows.len();
        let lk = left.schema.expect_index(left_key);
        let rk = right.schema.expect_index(right_key);
        let schema = left.schema.concat(&right.schema);
        let track = left.prov.is_some() && right.prov.is_some();

        // Build on the right input (the "inner"), probe with the left.
        let mut table: HashMap<Value, Vec<usize>> = HashMap::with_capacity(right.rows.len());
        for (i, row) in right.rows.iter().enumerate() {
            table.entry(row[rk].clone()).or_default().push(i);
        }

        let mut rows = Vec::new();
        let mut prov = if track { Some(Vec::new()) } else { None };
        for (li, lrow) in left.rows.iter().enumerate() {
            if let Some(matches) = table.get(&lrow[lk]) {
                for &ri in matches {
                    let mut row = lrow.clone();
                    row.extend_from_slice(&right.rows[ri]);
                    rows.push(row);
                    if let Some(p) = &mut prov {
                        let mut pr = left.prov.as_ref().expect("tracked")[li].clone();
                        pr.extend_from_slice(&right.prov.as_ref().expect("tracked")[ri]);
                        p.push(pr);
                    }
                }
            }
        }
        Batch { schema, rows, prov }
    }

    fn nl_join(
        &mut self,
        id: NodeId,
        left: Batch,
        right: Batch,
        left_key: &str,
        right_key: &str,
    ) -> Batch {
        self.traces[id].left_input_rows = left.rows.len();
        self.traces[id].right_input_rows = right.rows.len();
        let lk = left.schema.expect_index(left_key);
        let rk = right.schema.expect_index(right_key);
        let schema = left.schema.concat(&right.schema);
        let track = left.prov.is_some() && right.prov.is_some();

        let mut rows = Vec::new();
        let mut prov = if track { Some(Vec::new()) } else { None };
        for (li, lrow) in left.rows.iter().enumerate() {
            for (ri, rrow) in right.rows.iter().enumerate() {
                if lrow[lk] == rrow[rk] {
                    let mut row = lrow.clone();
                    row.extend_from_slice(rrow);
                    rows.push(row);
                    if let Some(p) = &mut prov {
                        let mut pr = left.prov.as_ref().expect("tracked")[li].clone();
                        pr.extend_from_slice(&right.prov.as_ref().expect("tracked")[ri]);
                        p.push(pr);
                    }
                }
            }
        }
        Batch { schema, rows, prov }
    }

    fn aggregate(
        &mut self,
        id: NodeId,
        child: Batch,
        group_by: &[String],
        aggs: &[(String, AggFunc)],
    ) -> Batch {
        self.traces[id].left_input_rows = child.rows.len();
        let group_idx: Vec<usize> = group_by
            .iter()
            .map(|g| child.schema.expect_index(g))
            .collect();
        let agg_idx: Vec<Option<usize>> = aggs
            .iter()
            .map(|(_, f)| f.input_column().map(|c| child.schema.expect_index(c)))
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

        let mut groups: HashMap<Vec<Value>, State> = HashMap::new();
        // Preserve first-seen group order for deterministic output.
        let mut order: Vec<Vec<Value>> = Vec::new();
        for row in &child.rows {
            let key: Vec<Value> = group_idx.iter().map(|&i| row[i].clone()).collect();
            let state = groups.entry(key.clone()).or_insert_with(|| {
                order.push(key.clone());
                fresh.clone()
            });
            state.count += 1;
            for (k, (_, func)) in aggs.iter().enumerate() {
                if let Some(idx) = agg_idx[k] {
                    let v = &row[idx];
                    match func {
                        AggFunc::Sum(_) | AggFunc::Avg(_) => state.sums[k] += v.as_float(),
                        AggFunc::Min(_) => {
                            if state.mins[k].as_ref().is_none_or(|m| v < m) {
                                state.mins[k] = Some(v.clone());
                            }
                        }
                        AggFunc::Max(_) => {
                            if state.maxs[k].as_ref().is_none_or(|m| v > m) {
                                state.maxs[k] = Some(v.clone());
                            }
                        }
                        AggFunc::CountStar => unreachable!("CountStar has no input column"),
                    }
                }
            }
        }

        // Scalar aggregate over empty input still yields one row.
        if group_by.is_empty() && order.is_empty() {
            order.push(vec![]);
            groups.insert(vec![], fresh);
        }

        let mut out_schema_cols = Vec::new();
        for (g, &gi) in group_by.iter().zip(&group_idx) {
            let col = child.schema.column(gi);
            out_schema_cols.push(uaq_storage::Column::new(g.as_str(), col.ty));
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

        let rows: Vec<Row> = order
            .into_iter()
            .map(|key| {
                let state = &groups[&key];
                let mut row = key;
                for (k, (_, func)) in aggs.iter().enumerate() {
                    // Empty-input MIN/MAX defaults to a zero value of the
                    // declared output type (the seed returned Value::Int(0)
                    // unconditionally, which violated the output schema for
                    // Float/Str columns; both executors now share the typed
                    // default so the equivalence contract holds).
                    let out_ty = schema.column(group_idx.len() + k).ty;
                    let zero = || match out_ty {
                        uaq_storage::ColumnType::Int => Value::Int(0),
                        uaq_storage::ColumnType::Float => Value::Float(0.0),
                        uaq_storage::ColumnType::Str => Value::str(""),
                    };
                    row.push(match func {
                        AggFunc::CountStar => Value::Int(state.count as i64),
                        AggFunc::Sum(_) => Value::Float(state.sums[k]),
                        AggFunc::Avg(_) => Value::Float(if state.count == 0 {
                            0.0
                        } else {
                            state.sums[k] / state.count as f64
                        }),
                        AggFunc::Min(_) => state.mins[k].clone().unwrap_or_else(zero),
                        AggFunc::Max(_) => state.maxs[k].clone().unwrap_or_else(zero),
                    });
                }
                row
            })
            .collect();

        // Provenance cannot flow through grouping (Algorithm 1's Agg case).
        Batch {
            schema,
            rows,
            prov: None,
        }
    }
}
