//! # casa-ilp — 0/1 integer linear programming
//!
//! The paper solves the CASA allocation problem with a commercial ILP
//! solver (CPLEX). No such solver is available here — and the Rust
//! ecosystem's ILP story was one of the reproduction risks — so this
//! crate implements the required machinery from scratch:
//!
//! * a [`model`] builder for linear programs with continuous, integer
//!   and binary variables,
//! * a dense **two-phase primal simplex** ([`simplex`]) for LP
//!   relaxations, with a Bland's-rule fallback against cycling,
//! * an **anytime branch & bound** ([`engine`]) over the integer
//!   variables, best-first by relaxation bound, behind one budgeted
//!   entry point ([`engine::SolveRequest`]) with wall-clock deadlines,
//!   node limits, cooperative cancellation, warm starts, and
//!   gap-reporting outcomes instead of hard failures,
//! * bounded **search-tree telemetry** ([`tree`]) for that search, and
//! * an exact **0/1 knapsack** dynamic program ([`knapsack`]) used by
//!   the Steinke baseline allocator.
//!
//! The solver is exact: property tests compare it against brute-force
//! enumeration on small random instances.
//!
//! # Example
//!
//! ```
//! use casa_ilp::model::{Model, Sense, ConstraintOp};
//! use casa_ilp::engine::{Budget, SolveRequest};
//!
//! // max x + 2y  s.t.  x + y <= 1, binaries.
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.binary("x");
//! let y = m.binary("y");
//! m.set_objective([(x, 1.0), (y, 2.0)]);
//! m.add_constraint([(x, 1.0), (y, 1.0)], ConstraintOp::Le, 1.0);
//! let out = SolveRequest::new(&m).budget(Budget::nodes(10_000)).solve()?;
//! assert!(out.is_optimal());
//! assert_eq!(out.solution.value(y).round() as i32, 1);
//! assert_eq!(out.solution.value(x).round() as i32, 0);
//! # Ok::<(), casa_ilp::solution::SolveError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod knapsack;
pub mod model;
pub mod simplex;
pub mod solution;
pub mod tree;

pub use engine::{
    BbStats, Budget, BudgetKind, CancelToken, EngineStatus, SearchLog, SearchRecorder,
    SolveOutcome, SolveRequest, SolverOptions,
};
pub use knapsack::knapsack_01;
pub use model::{ConstraintOp, Model, Sense, Var};
pub use simplex::solve_lp_counted;
pub use solution::{Solution, SolveError, Status};
pub use tree::{
    parse_tree_log, tree_log_json, TreeEvent, TreeEventKind, TreeLog, TreeRecorder,
    DEFAULT_TREE_CAPACITY, TREE_LOG_SCHEMA,
};
