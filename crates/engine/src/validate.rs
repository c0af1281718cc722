//! Static semantic validation of [`Plan`] trees.
//!
//! The executor trusts its input: `output_schema` panics on unknown
//! columns, `Schema::concat` checks for duplicate join outputs only in debug
//! builds (in release the second column of a name is silently unreachable),
//! and `Value`'s ordering panics when a string is ordered against a number.
//! Those panics are fine for plans produced by [`crate::plan_query`] — the
//! planner only lowers well-formed specs — but the service edge accepts
//! `Arc<Plan>`s from callers, and ROADMAP item 1's SQL frontend will lower
//! arbitrary query text into this IR. This module is the binder's backstop:
//! a full semantic pass that rejects malformed plans with a typed
//! [`PlanError`] *before* they reach a worker, so the service answers with
//! a diagnostic instead of burning a `catch_unwind` (see
//! `uaq_service`'s `ServedTier::Invalid`).
//!
//! Checked invariants, in order:
//! - arena sanity: every node reachable from the root (no orphan subtrees),
//!   tree depth bounded by [`MAX_PLAN_DEPTH`] (a stack overflow in the
//!   recursive executor is *not* catchable by `catch_unwind`);
//! - schema resolution: scan tables exist in the catalog, every column
//!   referenced by predicates, sort keys, join keys, group-bys and
//!   aggregates resolves in its node's input schema;
//! - join keys: both sides resolve, with join-compatible types (an Int⋈Str
//!   equi-join can only ever produce the empty — and silently wrong —
//!   result), and the joined output has no duplicate column names;
//! - predicate typing: ordering comparisons (`<`, `<=`, `>`, `>=`,
//!   `BETWEEN`) never mix strings with numerics — the executor's `Value`
//!   ordering panics on exactly that; equality across those types is
//!   well-defined (always false) and allowed — and never carry a NaN
//!   literal, which has no order (the executor's float ordering panics on
//!   it); NaN under `=`, `<>` and `IN` is bit equality and allowed;
//! - index scans: the key column exists, is typed, and is actually
//!   constrained by the scan predicate (the documented `IndexScan`
//!   contract);
//! - aggregates: `Sum`/`Avg` read numeric columns;
//! - sample-mode provenance shape ([`validate_on_samples`]): every leaf
//!   relation has sample tables drawn (empty relations are skipped at draw
//!   time and would panic at scan time).
//!
//! All checks run in one bottom-up pass over the arena with an explicit
//! worklist — validation of a hostile plan must not itself recurse.

use crate::expr::{CmpOp, Pred};
use crate::plan::{AggFunc, NodeId, Op, Plan};
use std::fmt;
use uaq_storage::{Catalog, ColumnType, SampleCatalog, Schema, Value};

/// Maximum operator-tree depth the executors will recurse into. Plans are
/// binary trees, so 128 levels is far beyond any real optimizer output
/// while staying well inside worker stack budgets.
pub const MAX_PLAN_DEPTH: usize = 128;

/// A semantic defect in a plan, attributed to the node that owns it.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A scan references a table the catalog does not have.
    UnknownTable { node: NodeId, table: String },
    /// A column reference does not resolve in the node's input schema.
    UnknownColumn {
        node: NodeId,
        column: String,
        /// Where the reference appears: "predicate", "sort key", …
        context: &'static str,
    },
    /// An ordering comparison mixes a string with a numeric operand.
    OrderingTypeMismatch {
        node: NodeId,
        column: String,
        column_ty: ColumnType,
        other: String,
    },
    /// An ordering comparison (`<`, `<=`, `>`, `>=`, `BETWEEN`) against a
    /// NaN literal: NaN has no order.
    NanLiteral { node: NodeId, column: String },
    /// Join keys resolve to types that can never compare equal.
    JoinKeyTypeMismatch {
        node: NodeId,
        left_key: String,
        left_ty: ColumnType,
        right_key: String,
        right_ty: ColumnType,
    },
    /// Joining these inputs would produce duplicate output column names.
    DuplicateJoinColumn { node: NodeId, column: String },
    /// An index scan whose predicate never constrains its key column.
    IndexKeyUnconstrained { node: NodeId, key_col: String },
    /// `Sum`/`Avg` over a non-numeric column.
    AggregateTypeMismatch {
        node: NodeId,
        column: String,
        column_ty: ColumnType,
        func: &'static str,
    },
    /// Arena nodes not reachable from the root (orphan subtrees).
    UnreachableNodes { nodes: Vec<NodeId> },
    /// Tree depth exceeds [`MAX_PLAN_DEPTH`].
    ExcessiveDepth { depth: usize, max: usize },
    /// A leaf relation has no sample tables (sample-mode execution only).
    MissingSamples { node: NodeId, table: String },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownTable { node, table } => {
                write!(f, "node #{node}: unknown table {table:?}")
            }
            PlanError::UnknownColumn {
                node,
                column,
                context,
            } => write!(f, "node #{node}: unknown column {column:?} in {context}"),
            PlanError::OrderingTypeMismatch {
                node,
                column,
                column_ty,
                other,
            } => write!(
                f,
                "node #{node}: ordering comparison between {column:?} ({column_ty:?}) and \
                 {other} can never be evaluated"
            ),
            PlanError::NanLiteral { node, column } => write!(
                f,
                "node #{node}: ordering comparison between {column:?} and a NaN literal"
            ),
            PlanError::JoinKeyTypeMismatch {
                node,
                left_key,
                left_ty,
                right_key,
                right_ty,
            } => write!(
                f,
                "node #{node}: join keys {left_key:?} ({left_ty:?}) and {right_key:?} \
                 ({right_ty:?}) are not join-compatible"
            ),
            PlanError::DuplicateJoinColumn { node, column } => write!(
                f,
                "node #{node}: join output would contain column {column:?} twice"
            ),
            PlanError::IndexKeyUnconstrained { node, key_col } => write!(
                f,
                "node #{node}: index scan key {key_col:?} is not constrained by the predicate"
            ),
            PlanError::AggregateTypeMismatch {
                node,
                column,
                column_ty,
                func,
            } => write!(
                f,
                "node #{node}: {func} over non-numeric column {column:?} ({column_ty:?})"
            ),
            PlanError::UnreachableNodes { nodes } => {
                write!(f, "arena nodes {nodes:?} are unreachable from the root")
            }
            PlanError::ExcessiveDepth { depth, max } => {
                write!(f, "plan depth {depth} exceeds the executor budget of {max}")
            }
            PlanError::MissingSamples { node, table } => write!(
                f,
                "node #{node}: relation {table:?} has no sample tables (empty at draw time?)"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Stable machine-readable tag for telemetry labels and service responses.
impl PlanError {
    pub fn code(&self) -> &'static str {
        match self {
            PlanError::UnknownTable { .. } => "unknown_table",
            PlanError::UnknownColumn { .. } => "unknown_column",
            PlanError::OrderingTypeMismatch { .. } => "ordering_type_mismatch",
            PlanError::NanLiteral { .. } => "nan_literal",
            PlanError::JoinKeyTypeMismatch { .. } => "join_key_type_mismatch",
            PlanError::DuplicateJoinColumn { .. } => "duplicate_join_column",
            PlanError::IndexKeyUnconstrained { .. } => "index_key_unconstrained",
            PlanError::AggregateTypeMismatch { .. } => "aggregate_type_mismatch",
            PlanError::UnreachableNodes { .. } => "unreachable_nodes",
            PlanError::ExcessiveDepth { .. } => "excessive_depth",
            PlanError::MissingSamples { .. } => "missing_samples",
        }
    }
}

/// Validates a plan against full base tables. Returns the first defect in
/// bottom-up node order.
pub fn validate(plan: &Plan, catalog: &Catalog) -> Result<(), PlanError> {
    validate_inner(plan, Some(catalog), None)
}

/// Validates a plan for sample-mode execution: everything [`validate`]
/// checks, plus per-leaf sample availability (the provenance-shape
/// invariant — a scan of an unsampled relation panics at execution).
pub fn validate_on_samples(
    plan: &Plan,
    catalog: &Catalog,
    samples: &SampleCatalog,
) -> Result<(), PlanError> {
    validate_inner(plan, Some(catalog), Some(samples))
}

/// [`validate`] with the verdict interned on the plan, keyed by the
/// catalog's content fingerprint. The service edge calls this per request
/// on shared `Arc<Plan>`s: after the first request, re-validating a warm
/// plan against an unchanged catalog is one `OnceLock` load plus a `u64`
/// compare. A catalog swap (fingerprint mismatch) falls back to a fresh
/// uncached pass — correct, just not interned, since `OnceLock` is
/// write-once.
pub fn validate_cached(plan: &Plan, catalog: &Catalog) -> Result<(), PlanError> {
    let fp = catalog.fingerprint();
    let (memo_fp, verdict) = plan
        .validation_memo()
        .get_or_init(|| (fp, validate(plan, catalog).err()));
    if *memo_fp == fp {
        match verdict {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    } else {
        validate(plan, catalog)
    }
}

/// [`validate_on_samples`] with the verdict interned on the plan, keyed by
/// the combined catalog + sample fingerprints (the plan shares one memo
/// slot with [`validate_cached`]; a caller mixing both against the same
/// plan gets correctness either way, interning only for whichever keyed it
/// first).
pub fn validate_cached_on_samples(
    plan: &Plan,
    catalog: &Catalog,
    samples: &SampleCatalog,
) -> Result<(), PlanError> {
    let fp = catalog.fingerprint() ^ samples.fingerprint().rotate_left(32);
    let (memo_fp, verdict) = plan
        .validation_memo()
        .get_or_init(|| (fp, validate_on_samples(plan, catalog, samples).err()));
    if *memo_fp == fp {
        match verdict {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    } else {
        validate_on_samples(plan, catalog, samples)
    }
}

/// Debug-build tripwire for the executor entry points: malformed plans
/// panic with the typed diagnostic *before* the executor's less articulate
/// panics fire. Either source may be absent (the sample-mode executor has
/// no base catalog in scope); scan schemas resolve from whichever is
/// present. Release builds skip the pass entirely.
#[inline]
pub fn debug_check(plan: &Plan, catalog: Option<&Catalog>, samples: Option<&SampleCatalog>) {
    #[cfg(debug_assertions)]
    {
        debug_assert!(
            catalog.is_some() || samples.is_some(),
            "debug_check needs at least one schema source"
        );
        if let Err(e) = validate_inner(plan, catalog, samples) {
            panic!("invalid plan reached the executor: {e}");
        }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (plan, catalog, samples);
    }
}

fn validate_inner(
    plan: &Plan,
    catalog: Option<&Catalog>,
    samples: Option<&SampleCatalog>,
) -> Result<(), PlanError> {
    let n = plan.len();
    let root = plan.root();

    // Reachability and depth, with an explicit stack: validation must not
    // recurse over a hostile tree. `Plan::new` guarantees tree-ness (every
    // node has at most one parent, children in range), so a DFS from the
    // root terminates.
    let mut depth_of = vec![0usize; n];
    let mut seen = vec![false; n];
    let mut stack = vec![(root, 1usize)];
    let mut max_depth = 0usize;
    while let Some((id, depth)) = stack.pop() {
        seen[id] = true;
        depth_of[id] = depth;
        max_depth = max_depth.max(depth);
        if depth > MAX_PLAN_DEPTH {
            return Err(PlanError::ExcessiveDepth {
                depth,
                max: MAX_PLAN_DEPTH,
            });
        }
        for c in plan.op(id).children() {
            stack.push((c, depth + 1));
        }
    }
    let orphans: Vec<NodeId> = (0..n).filter(|&id| !seen[id]).collect();
    if !orphans.is_empty() {
        return Err(PlanError::UnreachableNodes { nodes: orphans });
    }

    // Bottom-up schema resolution over the same worklist discipline:
    // `postorder` on a validated-tree-shape plan is safe only up to depth,
    // which we just bounded.
    let mut schemas: Vec<Option<Schema>> = vec![None; n];
    for id in postorder_iterative(plan) {
        let schema = check_node(plan, catalog, samples, id, &schemas)?;
        schemas[id] = Some(schema);
    }
    Ok(())
}

/// Post-order traversal with an explicit stack (children before parents).
fn postorder_iterative(plan: &Plan) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(plan.len());
    let mut stack = vec![(plan.root(), false)];
    while let Some((id, expanded)) = stack.pop() {
        if expanded {
            out.push(id);
        } else {
            stack.push((id, true));
            for c in plan.op(id).children().into_iter().rev() {
                stack.push((c, false));
            }
        }
    }
    out
}

/// Validates one node against its children's (already computed) output
/// schemas and returns its own output schema.
fn check_node(
    plan: &Plan,
    catalog: Option<&Catalog>,
    samples: Option<&SampleCatalog>,
    id: NodeId,
    schemas: &[Option<Schema>],
) -> Result<Schema, PlanError> {
    let input = |child: NodeId| -> &Schema {
        schemas[child]
            .as_ref()
            .expect("postorder resolves children first")
    };
    // Resolves a scanned table's schema from the base catalog when one is
    // in scope, else from the sample set, and enforces the provenance-shape
    // invariant: when samples are a source, every leaf relation must have
    // sample tables drawn (empty relations are skipped at draw time and
    // panic at scan time).
    let scan_schema = |node: NodeId, table: &String| -> Result<Schema, PlanError> {
        let schema = match (catalog, samples) {
            (Some(c), _) => c
                .try_table(table)
                .map(|t| t.schema().clone())
                .ok_or_else(|| PlanError::UnknownTable {
                    node,
                    table: table.clone(),
                })?,
            (None, Some(s)) => {
                if !s.has_relation(table) {
                    return Err(PlanError::UnknownTable {
                        node,
                        table: table.clone(),
                    });
                }
                s.sample(table, 0).table().schema().clone()
            }
            (None, None) => unreachable!("validate_inner callers supply a schema source"),
        };
        if let Some(s) = samples {
            if !s.has_relation(table) {
                return Err(PlanError::MissingSamples {
                    node,
                    table: table.clone(),
                });
            }
        }
        Ok(schema)
    };
    match plan.op(id) {
        Op::SeqScan { table, predicate } => {
            let schema = scan_schema(id, table)?;
            check_predicate(id, predicate, &schema)?;
            Ok(schema)
        }
        Op::IndexScan {
            table,
            key_col,
            predicate,
        } => {
            let schema = scan_schema(id, table)?;
            if schema.index_of(key_col).is_none() {
                return Err(PlanError::UnknownColumn {
                    node: id,
                    column: key_col.clone(),
                    context: "index key",
                });
            }
            check_predicate(id, predicate, &schema)?;
            // The documented IndexScan contract: the predicate must
            // constrain the key column, otherwise the lookup has no key.
            if !predicate.columns().contains(&key_col.as_str()) {
                return Err(PlanError::IndexKeyUnconstrained {
                    node: id,
                    key_col: key_col.clone(),
                });
            }
            Ok(schema)
        }
        Op::Filter {
            input: child,
            predicate,
        } => {
            let schema = input(*child).clone();
            check_predicate(id, predicate, &schema)?;
            Ok(schema)
        }
        Op::Sort { input: child, keys } => {
            let schema = input(*child).clone();
            for (key, _) in keys {
                if schema.index_of(key).is_none() {
                    return Err(PlanError::UnknownColumn {
                        node: id,
                        column: key.clone(),
                        context: "sort key",
                    });
                }
            }
            Ok(schema)
        }
        Op::Materialize { input: child } => Ok(input(*child).clone()),
        Op::HashJoin {
            left,
            right,
            left_key,
            right_key,
        }
        | Op::NestedLoopJoin {
            left,
            right,
            left_key,
            right_key,
        } => {
            let ls = input(*left);
            let rs = input(*right);
            let li = ls
                .index_of(left_key)
                .ok_or_else(|| PlanError::UnknownColumn {
                    node: id,
                    column: left_key.clone(),
                    context: "left join key",
                })?;
            let ri = rs
                .index_of(right_key)
                .ok_or_else(|| PlanError::UnknownColumn {
                    node: id,
                    column: right_key.clone(),
                    context: "right join key",
                })?;
            let (lt, rt) = (ls.column(li).ty, rs.column(ri).ty);
            // Int and Float keys hash/compare as numbers; Str only equals
            // Str. A Str⋈numeric equi-join is always empty — reject it as
            // the type error it is.
            if (lt == ColumnType::Str) != (rt == ColumnType::Str) {
                return Err(PlanError::JoinKeyTypeMismatch {
                    node: id,
                    left_key: left_key.clone(),
                    left_ty: lt,
                    right_key: right_key.clone(),
                    right_ty: rt,
                });
            }
            // `Schema::concat` leaves duplicates to this check (it only
            // debug-asserts): the per-execution path must not pay for it.
            for col in rs.columns() {
                if ls.index_of(&col.name).is_some() {
                    return Err(PlanError::DuplicateJoinColumn {
                        node: id,
                        column: col.name.to_string(),
                    });
                }
            }
            Ok(ls.concat(rs))
        }
        Op::HashAggregate {
            input: child,
            group_by,
            aggs,
        } => {
            let in_schema = input(*child);
            let mut out_cols = Vec::with_capacity(group_by.len() + aggs.len());
            for g in group_by {
                let idx = in_schema
                    .index_of(g)
                    .ok_or_else(|| PlanError::UnknownColumn {
                        node: id,
                        column: g.clone(),
                        context: "group-by key",
                    })?;
                out_cols.push(in_schema.column(idx).clone());
            }
            for (name, func) in aggs {
                let ty = match func {
                    AggFunc::CountStar => ColumnType::Int,
                    AggFunc::Sum(c) | AggFunc::Avg(c) => {
                        let idx =
                            in_schema
                                .index_of(c)
                                .ok_or_else(|| PlanError::UnknownColumn {
                                    node: id,
                                    column: c.clone(),
                                    context: "aggregate input",
                                })?;
                        let cty = in_schema.column(idx).ty;
                        if cty == ColumnType::Str {
                            return Err(PlanError::AggregateTypeMismatch {
                                node: id,
                                column: c.clone(),
                                column_ty: cty,
                                func: if matches!(func, AggFunc::Sum(_)) {
                                    "Sum"
                                } else {
                                    "Avg"
                                },
                            });
                        }
                        ColumnType::Float
                    }
                    AggFunc::Min(c) | AggFunc::Max(c) => {
                        let idx =
                            in_schema
                                .index_of(c)
                                .ok_or_else(|| PlanError::UnknownColumn {
                                    node: id,
                                    column: c.clone(),
                                    context: "aggregate input",
                                })?;
                        in_schema.column(idx).ty
                    }
                };
                out_cols.push(uaq_storage::Column::new(name.as_str(), ty));
            }
            // Aggregate output names may still collide (e.g. a group-by key
            // reused as an aggregate name) — `Schema::new` would assert.
            for (i, a) in out_cols.iter().enumerate() {
                for b in &out_cols[..i] {
                    if a.name == b.name {
                        return Err(PlanError::DuplicateJoinColumn {
                            node: id,
                            column: a.name.to_string(),
                        });
                    }
                }
            }
            Ok(Schema::new(out_cols))
        }
    }
}

/// Type-checks one predicate against its input schema: every referenced
/// column resolves, and ordering comparisons never mix Str with numerics
/// nor take a NaN literal (the executor's ordering panics on both).
fn check_predicate(node: NodeId, pred: &Pred, schema: &Schema) -> Result<(), PlanError> {
    let resolve = |col: &str| -> Result<ColumnType, PlanError> {
        schema
            .index_of(col)
            .map(|i| schema.column(i).ty)
            .ok_or_else(|| PlanError::UnknownColumn {
                node,
                column: col.to_string(),
                context: "predicate",
            })
    };
    let is_ordering = |op: &CmpOp| !matches!(op, CmpOp::Eq | CmpOp::Ne);
    let value_is_str = |v: &Value| matches!(v, Value::Str(_));
    let nan_literal = |col: &String, v: &Value| match v {
        Value::Float(x) if x.is_nan() => Err(PlanError::NanLiteral {
            node,
            column: col.clone(),
        }),
        _ => Ok(()),
    };
    // Explicit worklist: And/Or trees nest arbitrarily deep in untrusted
    // plans, same threat as operator-tree depth.
    let mut work = vec![pred];
    while let Some(p) = work.pop() {
        match p {
            Pred::True => {}
            Pred::Cmp { col, op, value } => {
                let ty = resolve(col)?;
                if is_ordering(op) && ((ty == ColumnType::Str) != value_is_str(value)) {
                    return Err(PlanError::OrderingTypeMismatch {
                        node,
                        column: col.clone(),
                        column_ty: ty,
                        other: format!("literal {value}"),
                    });
                }
                if is_ordering(op) {
                    nan_literal(col, value)?;
                }
            }
            Pred::ColCmp { left, op, right } => {
                let lt = resolve(left)?;
                let rt = resolve(right)?;
                if is_ordering(op) && ((lt == ColumnType::Str) != (rt == ColumnType::Str)) {
                    return Err(PlanError::OrderingTypeMismatch {
                        node,
                        column: left.clone(),
                        column_ty: lt,
                        other: format!("column {right:?} ({rt:?})"),
                    });
                }
            }
            Pred::Between { col, lo, hi } => {
                let ty = resolve(col)?;
                for bound in [lo, hi] {
                    if (ty == ColumnType::Str) != value_is_str(bound) {
                        return Err(PlanError::OrderingTypeMismatch {
                            node,
                            column: col.clone(),
                            column_ty: ty,
                            other: format!("literal {bound}"),
                        });
                    }
                    nan_literal(col, bound)?;
                }
            }
            Pred::InList { col, .. } => {
                // IN uses equality, which is total across types.
                resolve(col)?;
            }
            Pred::And(ps) | Pred::Or(ps) => work.extend(ps.iter()),
        }
    }
    Ok(())
}
