//! # uaq-engine
//!
//! The relational execution substrate: physical plans (Table 2 of the
//! paper), an executor that runs the same plan against base tables (ground
//! truth) or provenance-annotated samples (§3.2.2), histogram-based
//! cardinality estimation (the optimizer-estimate fallback of Algorithm 1),
//! and a small heuristic planner for the benchmark workloads.

pub mod cardest;
pub mod exec;
pub mod expr;
pub mod fault;
pub mod plan;
pub mod planner;
pub mod validate;

pub use cardest::{estimate_cardinalities, predicate_selectivity};
pub use exec::{execute_full, execute_on_samples, ExecOutcome, NodeTrace, ProvData, RowPages};
pub use expr::{BoundPred, CmpOp, Pred};
pub use plan::{AggFunc, LeafRef, NodeId, NodeMeta, Op, Plan, PlanBuilder, SelKind, SortOrder};
pub use planner::{plan_query, JoinStep, QuerySpec, TableRef};
pub use validate::{
    validate, validate_cached, validate_cached_on_samples, validate_on_samples, PlanError,
    MAX_PLAN_DEPTH,
};
