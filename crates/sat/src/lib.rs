//! # arbitrex-sat
//!
//! A conflict-driven clause-learning (CDCL) SAT solver built from scratch as
//! the decision-procedure substrate for `arbitrex`'s theory-change operators
//! at scales beyond truth-table enumeration.
//!
//! Features:
//!
//! * two-watched-literal unit propagation,
//! * first-UIP conflict analysis with clause minimization,
//! * exponential VSIDS decision heuristic with an indexed binary heap,
//! * phase saving,
//! * Luby-sequence restarts,
//! * learnt-clause database reduction driven by LBD (glue) scores,
//! * incremental solving under assumptions,
//! * AllSAT model enumeration with projection ([`allsat`]),
//! * sequential-counter cardinality constraints ([`card`]) enabling
//!   assumption-driven `≤ k` bounds,
//! * Hamming-distance minimization loops ([`optimize`]) used by the SAT
//!   backend of Dalal revision and arbitration radius search, and
//! * DIMACS CNF reading/writing ([`dimacs`]).
//!
//! The solver is deliberately self-contained: no external solver crates.
//! Global solver counters (conflicts, propagations, ladder searches,
//! AllSAT progress) live in [`telemetry`] and are compiled out unless the
//! workspace's telemetry feature is on.

#![warn(missing_docs)]

pub mod allsat;
pub mod card;
pub mod dimacs;
pub mod error;
pub mod heap;
pub mod lit;
pub mod luby;
pub mod optimize;
pub mod solver;
pub mod telemetry;

pub use allsat::{enumerate_models_budgeted, AllSatLimit, EnumResult, EnumStatus};
pub use arbitrex_telemetry::budget::{
    Budget, BudgetSite, BudgetSpent, CancelToken, Exhausted, FaultPlan, TripReason,
};
pub use card::CardinalityLadder;
pub use dimacs::{parse_dimacs, write_dimacs};
pub use error::DimacsError;
pub use lit::{LBool, Lit};
pub use luby::luby;
pub use optimize::{minimize_true_count_budgeted, MinimizeBound, MinimizeOutcome};
pub use solver::{SolveResult, Solver, SolverStats};
