//! Physical query plans.
//!
//! A plan is a rooted binary tree of operators (Table 2 of the paper) stored
//! in an arena; node ids are arena indices, which gives every operator `O` a
//! stable identity for selectivity estimates, cost functions, and the
//! covariance analysis over root-to-leaf paths (Algorithm 3).

use crate::expr::Pred;
use std::fmt;
use uaq_storage::{Catalog, Column, ColumnType, Schema};

/// Operator identifier within one plan (arena index).
pub type NodeId = usize;

/// Aggregate functions supported by [`Op::HashAggregate`].
#[derive(Debug, Clone, PartialEq)]
pub enum AggFunc {
    CountStar,
    Sum(String),
    Avg(String),
    Min(String),
    Max(String),
}

impl AggFunc {
    /// Column the aggregate reads, if any.
    pub fn input_column(&self) -> Option<&str> {
        match self {
            AggFunc::CountStar => None,
            AggFunc::Sum(c) | AggFunc::Avg(c) | AggFunc::Min(c) | AggFunc::Max(c) => Some(c),
        }
    }
}

/// Sort direction per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    Asc,
    Desc,
}

/// A physical operator.
#[derive(Debug, Clone)]
pub enum Op {
    /// Full scan with an optional pushed-down filter.
    SeqScan { table: String, predicate: Pred },
    /// Index lookup: random page fetches proportional to matching tuples.
    /// `key_col` is the indexed column; `predicate` must constrain it.
    IndexScan {
        table: String,
        key_col: String,
        predicate: Pred,
    },
    /// Residual filter above another operator.
    Filter { input: NodeId, predicate: Pred },
    /// In-memory sort (`N log N` CPU operations — the paper's C4 example).
    Sort {
        input: NodeId,
        keys: Vec<(String, SortOrder)>,
    },
    /// Buffers its input (linear pass; the paper's C3 example).
    Materialize { input: NodeId },
    /// Hash equi-join; cost linear in both inputs (the paper's C5 example).
    HashJoin {
        left: NodeId,
        right: NodeId,
        left_key: String,
        right_key: String,
    },
    /// Nested-loop equi-join; cost includes the `N_l · N_r` product term
    /// (the paper's C6 example).
    NestedLoopJoin {
        left: NodeId,
        right: NodeId,
        left_key: String,
        right_key: String,
    },
    /// Hash aggregation with optional grouping.
    HashAggregate {
        input: NodeId,
        group_by: Vec<String>,
        aggs: Vec<(String, AggFunc)>,
    },
}

impl Op {
    /// Child node ids, in (left, right) order.
    pub fn children(&self) -> Vec<NodeId> {
        match self {
            Op::SeqScan { .. } | Op::IndexScan { .. } => vec![],
            Op::Filter { input, .. }
            | Op::Sort { input, .. }
            | Op::Materialize { input }
            | Op::HashAggregate { input, .. } => vec![*input],
            Op::HashJoin { left, right, .. } | Op::NestedLoopJoin { left, right, .. } => {
                vec![*left, *right]
            }
        }
    }

    pub fn is_scan(&self) -> bool {
        matches!(self, Op::SeqScan { .. } | Op::IndexScan { .. })
    }

    pub fn is_join(&self) -> bool {
        matches!(self, Op::HashJoin { .. } | Op::NestedLoopJoin { .. })
    }

    pub fn is_aggregate(&self) -> bool {
        matches!(self, Op::HashAggregate { .. })
    }

    /// Operator name for display / reports.
    pub fn name(&self) -> &'static str {
        match self {
            Op::SeqScan { .. } => "SeqScan",
            Op::IndexScan { .. } => "IndexScan",
            Op::Filter { .. } => "Filter",
            Op::Sort { .. } => "Sort",
            Op::Materialize { .. } => "Materialize",
            Op::HashJoin { .. } => "HashJoin",
            Op::NestedLoopJoin { .. } => "NestedLoopJoin",
            Op::HashAggregate { .. } => "HashAggregate",
        }
    }
}

/// How an operator's selectivity is obtained (Algorithm 1's case split).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelKind {
    /// Scan or join: directly estimable from samples (own `ρ_n`, `S_n²`).
    Estimable,
    /// Sort / materialize: passes its child's selectivity through
    /// (Algorithm 1, line 16: `ρ_n ← μ̂_l`, `S_n² ← σ̂_l²`).
    PassThrough,
    /// Aggregate: uses the optimizer's cardinality estimate with `S_n² = 0`
    /// (Algorithm 1, lines 2–5).
    Aggregate,
}

/// A base-relation occurrence at a plan leaf. The occurrence index selects an
/// independent sample copy so that repeated uses of one relation stay
/// independent (the paper's multi-sample-table workaround, §5.1.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LeafRef {
    pub relation: String,
    pub occurrence: usize,
}

/// Static per-node metadata derived from the tree shape.
#[derive(Debug, Clone)]
pub struct NodeMeta {
    pub id: NodeId,
    pub parent: Option<NodeId>,
    /// Leaf relations of the subtree rooted here, in leaf order. This is the
    /// paper's `R` (with multiplicity).
    pub leaf_tables: Vec<LeafRef>,
    pub sel_kind: SelKind,
    /// True if this node or any descendant is an aggregate — above that
    /// point sampling-based estimation is unavailable (the `Agg` flag of
    /// Algorithm 1).
    pub agg_at_or_below: bool,
}

/// An immutable physical plan.
///
/// Immutability is structural: [`PlanBuilder::build`] (via [`Plan::new`])
/// finalizes the arena, and no `&mut` accessor to nodes, root, or metadata
/// exists afterwards. That is what makes the interned cache keys below
/// ([`Plan::shape_signature`], [`Plan::literal_key`], [`Plan::shape_hash`])
/// safe to compute once per plan instead of once per request; debug builds
/// additionally assert the memos against a fresh recomputation on every
/// access, so any future mutation path trips an assertion instead of
/// serving stale keys.
#[derive(Debug)]
pub struct Plan {
    nodes: Vec<Op>,
    root: NodeId,
    meta: Vec<NodeMeta>,
    /// Interned serving-layer keys, computed on first use.
    keys: PlanKeys,
}

/// Lazily interned cache-key strings for one plan. A separate struct so
/// `Plan`'s manual `Clone` can carry already-computed memos over instead of
/// re-deriving them on the clone.
#[derive(Debug, Default)]
struct PlanKeys {
    shape_signature: std::sync::OnceLock<String>,
    literal_key: std::sync::OnceLock<String>,
    shape_hash: std::sync::OnceLock<u64>,
    /// Memoized [`crate::validate`] verdict, keyed by the catalog
    /// fingerprint it was computed against. `None` in the payload means
    /// the plan validated clean.
    validation: std::sync::OnceLock<(u64, Option<crate::validate::PlanError>)>,
}

impl Clone for Plan {
    fn clone(&self) -> Self {
        // Seed the clone's memos with whatever is already computed: cloning
        // a served plan must not reset its interned keys.
        let seed = |lock: &std::sync::OnceLock<String>| match lock.get() {
            Some(v) => std::sync::OnceLock::from(v.clone()),
            None => std::sync::OnceLock::new(),
        };
        Self {
            nodes: self.nodes.clone(),
            root: self.root,
            meta: self.meta.clone(),
            keys: PlanKeys {
                shape_signature: seed(&self.keys.shape_signature),
                literal_key: seed(&self.keys.literal_key),
                shape_hash: match self.keys.shape_hash.get() {
                    Some(&v) => std::sync::OnceLock::from(v),
                    None => std::sync::OnceLock::new(),
                },
                validation: match self.keys.validation.get() {
                    Some(v) => std::sync::OnceLock::from(v.clone()),
                    None => std::sync::OnceLock::new(),
                },
            },
        }
    }
}

impl Plan {
    /// Wraps an arena + root into a plan, deriving metadata.
    pub fn new(nodes: Vec<Op>, root: NodeId) -> Self {
        assert!(root < nodes.len(), "root out of range");
        let n = nodes.len();
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        for (id, op) in nodes.iter().enumerate() {
            for c in op.children() {
                assert!(c < n, "child id out of range");
                assert!(parent[c].is_none(), "node {c} has two parents");
                parent[c] = Some(id);
            }
        }

        // leaf_tables and agg flags, computed bottom-up by recursion.
        let mut leaf_tables: Vec<Option<Vec<LeafRef>>> = vec![None; n];
        let mut agg: Vec<bool> = vec![false; n];
        let mut occurrence_counter: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        Self::derive(
            &nodes,
            root,
            &mut leaf_tables,
            &mut agg,
            &mut occurrence_counter,
        );

        let meta = (0..n)
            .map(|id| NodeMeta {
                id,
                parent: parent[id],
                leaf_tables: leaf_tables[id].clone().unwrap_or_default(),
                sel_kind: match &nodes[id] {
                    Op::SeqScan { .. }
                    | Op::IndexScan { .. }
                    | Op::Filter { .. }
                    | Op::HashJoin { .. }
                    | Op::NestedLoopJoin { .. } => SelKind::Estimable,
                    Op::Sort { .. } | Op::Materialize { .. } => SelKind::PassThrough,
                    Op::HashAggregate { .. } => SelKind::Aggregate,
                },
                agg_at_or_below: agg[id],
            })
            .collect();

        Self {
            nodes,
            root,
            meta,
            keys: PlanKeys::default(),
        }
    }

    fn derive(
        nodes: &[Op],
        id: NodeId,
        leaf_tables: &mut Vec<Option<Vec<LeafRef>>>,
        agg: &mut Vec<bool>,
        occ: &mut std::collections::HashMap<String, usize>,
    ) {
        let children = nodes[id].children();
        let mut tables = Vec::new();
        let mut has_agg = nodes[id].is_aggregate();
        for &c in &children {
            Self::derive(nodes, c, leaf_tables, agg, occ);
            tables.extend(leaf_tables[c].clone().expect("child derived first"));
            has_agg |= agg[c];
        }
        if children.is_empty() {
            let relation = match &nodes[id] {
                Op::SeqScan { table, .. } | Op::IndexScan { table, .. } => table.clone(),
                other => panic!("leaf operator without table: {other:?}"),
            };
            let counter = occ.entry(relation.clone()).or_insert(0);
            tables.push(LeafRef {
                relation,
                occurrence: *counter,
            });
            *counter += 1;
        }
        leaf_tables[id] = Some(tables);
        agg[id] = has_agg;
    }

    pub fn root(&self) -> NodeId {
        self.root
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn op(&self, id: NodeId) -> &Op {
        &self.nodes[id]
    }

    pub fn meta(&self, id: NodeId) -> &NodeMeta {
        &self.meta[id]
    }

    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.nodes.len()
    }

    /// Operators in bottom-up (post-order) sequence from the root.
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        self.postorder_into(self.root, &mut out);
        out
    }

    fn postorder_into(&self, id: NodeId, out: &mut Vec<NodeId>) {
        for c in self.nodes[id].children() {
            self.postorder_into(c, out);
        }
        out.push(id);
    }

    /// `|R|` — the product of base-table cardinalities under node `id`
    /// (denominator of the selectivity definition, Eq. 3).
    pub fn leaf_cardinality_product(&self, id: NodeId, catalog: &Catalog) -> f64 {
        self.meta[id]
            .leaf_tables
            .iter()
            .map(|l| catalog.table(&l.relation).len() as f64)
            .product()
    }

    /// True if `descendant` lies in the subtree of `ancestor` (strictly).
    pub fn is_descendant(&self, descendant: NodeId, ancestor: NodeId) -> bool {
        let mut cur = self.meta[descendant].parent;
        while let Some(p) = cur {
            if p == ancestor {
                return true;
            }
            cur = self.meta[p].parent;
        }
        false
    }

    /// Output schema of a node, resolved against base-table schemas.
    pub fn output_schema(&self, id: NodeId, catalog: &Catalog) -> Schema {
        match &self.nodes[id] {
            Op::SeqScan { table, .. } | Op::IndexScan { table, .. } => {
                catalog.table(table).schema().clone()
            }
            Op::Filter { input, .. } | Op::Sort { input, .. } | Op::Materialize { input } => {
                self.output_schema(*input, catalog)
            }
            Op::HashJoin { left, right, .. } | Op::NestedLoopJoin { left, right, .. } => self
                .output_schema(*left, catalog)
                .concat(&self.output_schema(*right, catalog)),
            Op::HashAggregate {
                input,
                group_by,
                aggs,
            } => {
                let in_schema = self.output_schema(*input, catalog);
                let mut cols: Vec<Column> = group_by
                    .iter()
                    .map(|g| in_schema.column(in_schema.expect_index(g)).clone())
                    .collect();
                for (name, func) in aggs {
                    let ty = match func {
                        AggFunc::CountStar => ColumnType::Int,
                        AggFunc::Sum(_) | AggFunc::Avg(_) => ColumnType::Float,
                        AggFunc::Min(c) | AggFunc::Max(c) => {
                            in_schema.column(in_schema.expect_index(c)).ty
                        }
                    };
                    cols.push(Column::new(name.as_str(), ty));
                }
                Schema::new(cols)
            }
        }
    }

    /// Canonical encoding of the plan's *shape*: operators, child wiring,
    /// table and column names, and predicate structure — but **not** the
    /// literal constants inside predicates. Two plans with equal signatures
    /// probe the oracle cost model identically (same `NodeCostContext`s
    /// against the same catalog), so the signature is the key of the
    /// serving-layer fit cache: literal-perturbed instances of one query
    /// template collapse onto one entry.
    ///
    /// The encoding is injective over everything that feeds
    /// `NodeCostContext::build` — signature equality (not merely hash
    /// equality) is safe to treat as shape equality for one catalog.
    ///
    /// Interned: computed once per plan (the builder finalizes the plan, so
    /// the signature can never change) and returned as a borrowed `&str`,
    /// so the warm serving path stops re-deriving and re-formatting it per
    /// request. Debug builds re-derive and compare on every access as the
    /// mutation tripwire.
    pub fn shape_signature(&self) -> &str {
        let sig = self
            .keys
            .shape_signature
            .get_or_init(|| self.compute_shape_signature());
        debug_assert_eq!(
            *sig,
            self.compute_shape_signature(),
            "interned shape_signature is stale — Plan mutated after build"
        );
        sig
    }

    fn compute_shape_signature(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(self.nodes.len() * 24);
        let _ = write!(out, "r{};", self.root);
        for (id, op) in self.nodes.iter().enumerate() {
            let _ = write!(out, "{id}:{}", op.name());
            match op {
                Op::SeqScan { table, predicate } => {
                    let _ = write!(out, "[{table}|");
                    predicate.shape_into(&mut out);
                    out.push(']');
                }
                Op::IndexScan {
                    table,
                    key_col,
                    predicate,
                } => {
                    let _ = write!(out, "[{table}@{key_col}|");
                    predicate.shape_into(&mut out);
                    out.push(']');
                }
                Op::Filter { input, predicate } => {
                    let _ = write!(out, "[{input}|");
                    predicate.shape_into(&mut out);
                    out.push(']');
                }
                Op::Sort { input, keys } => {
                    let _ = write!(out, "[{input}|");
                    for (k, o) in keys {
                        let _ = write!(out, "{k}{}", if *o == SortOrder::Asc { '^' } else { 'v' });
                    }
                    out.push(']');
                }
                Op::Materialize { input } => {
                    let _ = write!(out, "[{input}]");
                }
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
                    let _ = write!(out, "[{left},{right}|{left_key}={right_key}]");
                }
                Op::HashAggregate {
                    input,
                    group_by,
                    aggs,
                } => {
                    let _ = write!(out, "[{input}|{}|", group_by.join(","));
                    for (_, func) in aggs {
                        match func {
                            AggFunc::CountStar => out.push_str("n;"),
                            AggFunc::Sum(c) => {
                                let _ = write!(out, "s{c};");
                            }
                            AggFunc::Avg(c) => {
                                let _ = write!(out, "a{c};");
                            }
                            AggFunc::Min(c) => {
                                let _ = write!(out, "m{c};");
                            }
                            AggFunc::Max(c) => {
                                let _ = write!(out, "M{c};");
                            }
                        }
                    }
                    out.push(']');
                }
            }
            out.push(';');
        }
        out
    }

    /// Canonical encoding of the plan's *literal constants* — exactly the
    /// complement of [`Plan::shape_signature`]: for each node in id order,
    /// the predicate literals in [`Pred::literals_into`]'s injective
    /// encoding. For a fixed shape, `(shape_signature, literal_key)`
    /// identifies a query *instance*: equal pairs execute identically over
    /// any fixed sample set and therefore produce bit-identical
    /// selectivity estimates — the contract the serving-layer
    /// selectivity-estimate cache is built on. Operators without literals
    /// (joins, sorts, aggregates) contribute only their node separator, so
    /// the key stays aligned with the shape.
    ///
    /// Interned exactly like [`Plan::shape_signature`], with the same
    /// debug-build staleness assertion.
    pub fn literal_key(&self) -> &str {
        let key = self
            .keys
            .literal_key
            .get_or_init(|| self.compute_literal_key());
        debug_assert_eq!(
            *key,
            self.compute_literal_key(),
            "interned literal_key is stale — Plan mutated after build"
        );
        key
    }

    fn compute_literal_key(&self) -> String {
        let mut out = String::with_capacity(self.nodes.len() * 8);
        for op in &self.nodes {
            match op {
                Op::SeqScan { predicate, .. }
                | Op::IndexScan { predicate, .. }
                | Op::Filter { predicate, .. } => predicate.literals_into(&mut out),
                Op::Sort { .. }
                | Op::Materialize { .. }
                | Op::HashJoin { .. }
                | Op::NestedLoopJoin { .. }
                | Op::HashAggregate { .. } => {}
            }
            out.push('/');
        }
        out
    }

    /// FNV-1a hash of [`Plan::shape_signature`] — a compact shape id for
    /// logs, reports, and property tests. Cache lookups key on the full
    /// signature, not this hash, so hash collisions cannot alias entries.
    /// Interned alongside the signature it digests.
    pub fn shape_hash(&self) -> u64 {
        *self.keys.shape_hash.get_or_init(|| {
            const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
            const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
            let mut h = FNV_OFFSET;
            for b in self.shape_signature().bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
            h
        })
    }

    /// The interned [`crate::validate`] verdict slot. Owned by
    /// [`crate::validate::validate_cached`]; lives in [`PlanKeys`] so the
    /// manual `Clone` carries a served plan's verdict over with its other
    /// memos.
    pub(crate) fn validation_memo(
        &self,
    ) -> &std::sync::OnceLock<(u64, Option<crate::validate::PlanError>)> {
        &self.keys.validation
    }

    /// Multi-line indented plan rendering (EXPLAIN-style).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(self.root, 0, &mut out);
        out
    }

    fn explain_into(&self, id: NodeId, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        let op = &self.nodes[id];
        let detail = match op {
            Op::SeqScan { table, predicate } => {
                if predicate.is_true() {
                    table.to_string()
                } else {
                    format!("{table} [{predicate}]")
                }
            }
            Op::IndexScan {
                table,
                key_col,
                predicate,
            } => format!("{table} via {key_col} [{predicate}]"),
            Op::Filter { predicate, .. } => format!("[{predicate}]"),
            Op::Sort { keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(k, o)| {
                        format!("{k} {}", if *o == SortOrder::Asc { "asc" } else { "desc" })
                    })
                    .collect();
                ks.join(", ")
            }
            Op::Materialize { .. } => String::new(),
            Op::HashJoin {
                left_key,
                right_key,
                ..
            }
            | Op::NestedLoopJoin {
                left_key,
                right_key,
                ..
            } => format!("{left_key} = {right_key}"),
            Op::HashAggregate { group_by, aggs, .. } => {
                let ag: Vec<String> = aggs.iter().map(|(n, _)| n.clone()).collect();
                format!("by [{}] -> [{}]", group_by.join(", "), ag.join(", "))
            }
        };
        let _ = writeln!(out, "{pad}#{id} {} {detail}", op.name());
        for c in op.children() {
            self.explain_into(c, depth + 1, out);
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

/// Convenience builder for plan arenas.
#[derive(Debug, Default)]
pub struct PlanBuilder {
    nodes: Vec<Op>,
}

impl PlanBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, op: Op) -> NodeId {
        self.nodes.push(op);
        self.nodes.len() - 1
    }

    pub fn seq_scan(&mut self, table: impl Into<String>, predicate: Pred) -> NodeId {
        self.add(Op::SeqScan {
            table: table.into(),
            predicate,
        })
    }

    pub fn index_scan(
        &mut self,
        table: impl Into<String>,
        key_col: impl Into<String>,
        predicate: Pred,
    ) -> NodeId {
        self.add(Op::IndexScan {
            table: table.into(),
            key_col: key_col.into(),
            predicate,
        })
    }

    pub fn filter(&mut self, input: NodeId, predicate: Pred) -> NodeId {
        self.add(Op::Filter { input, predicate })
    }

    pub fn sort(&mut self, input: NodeId, keys: Vec<(String, SortOrder)>) -> NodeId {
        self.add(Op::Sort { input, keys })
    }

    pub fn materialize(&mut self, input: NodeId) -> NodeId {
        self.add(Op::Materialize { input })
    }

    pub fn hash_join(
        &mut self,
        left: NodeId,
        right: NodeId,
        left_key: impl Into<String>,
        right_key: impl Into<String>,
    ) -> NodeId {
        self.add(Op::HashJoin {
            left,
            right,
            left_key: left_key.into(),
            right_key: right_key.into(),
        })
    }

    pub fn nl_join(
        &mut self,
        left: NodeId,
        right: NodeId,
        left_key: impl Into<String>,
        right_key: impl Into<String>,
    ) -> NodeId {
        self.add(Op::NestedLoopJoin {
            left,
            right,
            left_key: left_key.into(),
            right_key: right_key.into(),
        })
    }

    pub fn aggregate(
        &mut self,
        input: NodeId,
        group_by: Vec<String>,
        aggs: Vec<(String, AggFunc)>,
    ) -> NodeId {
        self.add(Op::HashAggregate {
            input,
            group_by,
            aggs,
        })
    }

    pub fn build(self, root: NodeId) -> Plan {
        Plan::new(self.nodes, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uaq_storage::Value;

    /// Builds the paper's Figure 1 plan: (R1 ⋈ R2) ⋈ R3.
    fn figure1_plan() -> Plan {
        let mut b = PlanBuilder::new();
        let o1 = b.seq_scan("r1", Pred::True);
        let o2 = b.seq_scan("r2", Pred::True);
        let o4 = b.hash_join(o1, o2, "a", "a");
        let o3 = b.seq_scan("r3", Pred::True);
        let o5 = b.hash_join(o4, o3, "b", "b");
        b.build(o5)
    }

    #[test]
    fn figure1_leaf_tables() {
        let p = figure1_plan();
        // O4 joins R1, R2; O5 joins all three (Example 2 of the paper).
        let names = |id: NodeId| -> Vec<String> {
            p.meta(id)
                .leaf_tables
                .iter()
                .map(|l| l.relation.clone())
                .collect()
        };
        assert_eq!(names(2), vec!["r1", "r2"]);
        assert_eq!(names(4), vec!["r1", "r2", "r3"]);
        assert_eq!(names(0), vec!["r1"]);
    }

    #[test]
    fn parents_and_descendants() {
        let p = figure1_plan();
        assert_eq!(p.meta(0).parent, Some(2));
        assert_eq!(p.meta(2).parent, Some(4));
        assert_eq!(p.meta(4).parent, None);
        assert!(p.is_descendant(0, 4));
        assert!(p.is_descendant(2, 4));
        assert!(!p.is_descendant(4, 2));
        assert!(!p.is_descendant(3, 2));
    }

    #[test]
    fn postorder_visits_children_first() {
        let p = figure1_plan();
        let order = p.postorder();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sel_kinds() {
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("r1", Pred::True);
        let srt = b.sort(s, vec![("a".into(), SortOrder::Asc)]);
        let agg = b.aggregate(srt, vec![], vec![("cnt".into(), AggFunc::CountStar)]);
        let p = b.build(agg);
        assert_eq!(p.meta(0).sel_kind, SelKind::Estimable);
        assert_eq!(p.meta(1).sel_kind, SelKind::PassThrough);
        assert_eq!(p.meta(2).sel_kind, SelKind::Aggregate);
        assert!(!p.meta(0).agg_at_or_below);
        assert!(!p.meta(1).agg_at_or_below);
        assert!(p.meta(2).agg_at_or_below);
    }

    #[test]
    fn agg_flag_propagates_upward() {
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("r1", Pred::True);
        let agg = b.aggregate(s, vec![], vec![("cnt".into(), AggFunc::CountStar)]);
        let f = b.filter(agg, Pred::gt("cnt", Value::Int(10)));
        let p = b.build(f);
        assert!(p.meta(f).agg_at_or_below);
    }

    #[test]
    fn repeated_relation_gets_distinct_occurrences() {
        let mut b = PlanBuilder::new();
        let a = b.seq_scan("r1", Pred::True);
        let c = b.seq_scan("r1", Pred::True);
        let j = b.hash_join(a, c, "a", "a");
        let p = b.build(j);
        let leafs = &p.meta(j).leaf_tables;
        assert_eq!(leafs[0].occurrence, 0);
        assert_eq!(leafs[1].occurrence, 1);
    }

    #[test]
    fn explain_renders_tree() {
        let p = figure1_plan();
        let text = p.explain();
        assert!(text.contains("HashJoin"));
        assert!(text.contains("SeqScan r1"));
        assert_eq!(text.lines().count(), 5);
    }

    #[test]
    fn shape_signature_ignores_literals() {
        let build = |cut: i64| {
            let mut b = PlanBuilder::new();
            let t = b.seq_scan("t", Pred::lt("b", Value::Int(cut)));
            let u = b.seq_scan("u", Pred::True);
            let j = b.hash_join(t, u, "a", "x");
            b.build(j)
        };
        let p1 = build(100);
        let p2 = build(9000);
        assert_eq!(p1.shape_signature(), p2.shape_signature());
        assert_eq!(p1.shape_hash(), p2.shape_hash());
    }

    #[test]
    fn shape_signature_distinguishes_structure() {
        let mut b = PlanBuilder::new();
        let t = b.seq_scan("t", Pred::lt("b", Value::Int(5)));
        let base = b.build(t);

        // Different table.
        let mut b = PlanBuilder::new();
        let t = b.seq_scan("u", Pred::lt("b", Value::Int(5)));
        assert_ne!(base.shape_signature(), b.build(t).shape_signature());

        // Different predicate column.
        let mut b = PlanBuilder::new();
        let t = b.seq_scan("t", Pred::lt("a", Value::Int(5)));
        assert_ne!(base.shape_signature(), b.build(t).shape_signature());

        // Different comparison operator (same op_count, still distinct).
        let mut b = PlanBuilder::new();
        let t = b.seq_scan("t", Pred::ge("b", Value::Int(5)));
        assert_ne!(base.shape_signature(), b.build(t).shape_signature());

        // IN-list length changes op_count and therefore the shape.
        let mut b = PlanBuilder::new();
        let t = b.seq_scan("t", Pred::in_list("b", vec![Value::Int(1)]));
        let one = b.build(t).shape_signature().to_string();
        let mut b = PlanBuilder::new();
        let t = b.seq_scan("t", Pred::in_list("b", vec![Value::Int(1), Value::Int(2)]));
        assert_ne!(one, b.build(t).shape_signature());

        // Join algorithm matters (hash vs nested loop).
        let mut b = PlanBuilder::new();
        let t = b.seq_scan("t", Pred::True);
        let u = b.seq_scan("u", Pred::True);
        let hj = b.hash_join(t, u, "a", "x");
        let hash = b.build(hj).shape_signature().to_string();
        let mut b = PlanBuilder::new();
        let t = b.seq_scan("t", Pred::True);
        let u = b.seq_scan("u", Pred::True);
        let nl = b.nl_join(t, u, "a", "x");
        assert_ne!(hash, b.build(nl).shape_signature());
    }

    #[test]
    fn shape_signature_keeps_in_list_literal_free() {
        let build = |v: Vec<Value>, lo: Value, hi: Value| {
            let mut b = PlanBuilder::new();
            let t = b.seq_scan(
                "t",
                Pred::and(vec![Pred::in_list("b", v), Pred::between("a", lo, hi)]),
            );
            b.build(t).shape_signature().to_string()
        };
        let sig = build(
            vec![Value::Int(3), Value::Int(7)],
            Value::Int(0),
            Value::Int(9),
        );
        assert!(sig.contains("in(b#2)"), "{sig}");
        assert!(sig.contains("bw(a)"), "{sig}");
        assert_eq!(
            sig,
            build(
                vec![Value::Int(-5), Value::Int(123)],
                Value::Int(4),
                Value::Int(40),
            )
        );
    }

    #[test]
    fn literal_key_separates_instances_of_one_shape() {
        let build = |cut: i64| {
            let mut b = PlanBuilder::new();
            let t = b.seq_scan("t", Pred::lt("b", Value::Int(cut)));
            let u = b.seq_scan("u", Pred::True);
            let j = b.hash_join(t, u, "a", "x");
            b.build(j)
        };
        let p1 = build(100);
        let p2 = build(9000);
        assert_eq!(p1.shape_signature(), p2.shape_signature());
        assert_ne!(p1.literal_key(), p2.literal_key());
        assert_eq!(p1.literal_key(), build(100).literal_key());
    }

    #[test]
    fn literal_key_is_injective_on_tricky_values() {
        let key = |p: Pred| {
            let mut b = PlanBuilder::new();
            let t = b.seq_scan("t", p);
            b.build(t).literal_key().to_string()
        };
        // -0.0 vs 0.0: distinct bit patterns, distinct sample-pass results
        // under Value's bit-equality semantics.
        assert_ne!(
            key(Pred::eq("a", Value::Float(0.0))),
            key(Pred::eq("a", Value::Float(-0.0)))
        );
        // Int 1 vs Float 1.0 behave differently for Eq on Int columns.
        assert_ne!(
            key(Pred::eq("a", Value::Int(1))),
            key(Pred::eq("a", Value::Float(1.0)))
        );
        // Length-prefixed strings: no concatenation ambiguity across an
        // IN-list ("ab","c" vs "a","bc").
        assert_ne!(
            key(Pred::in_list("a", vec![Value::str("ab"), Value::str("c")])),
            key(Pred::in_list("a", vec![Value::str("a"), Value::str("bc")]))
        );
        // BETWEEN bounds are positional.
        assert_ne!(
            key(Pred::between("a", Value::Int(1), Value::Int(5))),
            key(Pred::between("a", Value::Int(5), Value::Int(1)))
        );
    }

    #[test]
    fn literal_key_aligns_per_node() {
        // Literals on different nodes of one shape land in different
        // segments: swapping them changes the key.
        let build = |t_cut: i64, u_cut: i64| {
            let mut b = PlanBuilder::new();
            let t = b.seq_scan("t", Pred::lt("a", Value::Int(t_cut)));
            let u = b.seq_scan("u", Pred::lt("x", Value::Int(u_cut)));
            let j = b.hash_join(t, u, "a", "x");
            b.build(j)
        };
        assert_ne!(build(1, 2).literal_key(), build(2, 1).literal_key());
    }

    #[test]
    #[should_panic(expected = "two parents")]
    fn sharing_a_node_is_rejected() {
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("r1", Pred::True);
        let j = b.hash_join(s, s, "a", "a");
        b.build(j);
    }
}
