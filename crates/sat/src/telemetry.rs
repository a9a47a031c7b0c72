//! Solver-side telemetry: process-global counters for the SAT substrate.
//!
//! The counters here cover what the CDCL engine and its satellite
//! procedures (cardinality ladders, distance minimization, AllSAT) did —
//! `arbitrex-core` assembles them into the `"sat"` section of its
//! [`TelemetrySnapshot`](arbitrex_telemetry::TelemetrySnapshot). Every
//! counter is defined in `OBSERVABILITY.md` at the workspace root.
//!
//! All state lives in `arbitrex-telemetry`; when that crate's `enabled`
//! feature is off (i.e. `arbitrex-core` was built without its `telemetry`
//! feature) every static here is zero-sized and every call a no-op.
//!
//! Core solver counters ([`Solver`] decisions, propagations, conflicts,
//! restarts, learnt clauses) are not incremented inside the solve loop —
//! the solver already tracks them in its own [`SolverStats`]. Callers that
//! retire a solver instance report its totals once via [`record_solver`],
//! keeping the hot path free of atomics.

use crate::solver::{Solver, SolverStats};
use arbitrex_telemetry::{Counter, Section};

/// Decisions made across all recorded solver instances.
pub static DECISIONS: Counter = Counter::new("decisions");
/// Literals propagated by unit propagation.
pub static PROPAGATIONS: Counter = Counter::new("propagations");
/// Conflicts analyzed (first-UIP learning invocations).
pub static CONFLICTS: Counter = Counter::new("conflicts");
/// Luby restarts performed.
pub static RESTARTS: Counter = Counter::new("restarts");
/// Learnt clauses added to the database.
pub static LEARNT_CLAUSES: Counter = Counter::new("learnt_clauses");
/// Sequential-counter cardinality ladders encoded ([`crate::card`]).
pub static CARD_LADDERS_ENCODED: Counter = Counter::new("card_ladders_encoded");
/// Solve calls spent binary-searching a cardinality bound — the loop of
/// [`crate::optimize::minimize_true_count_budgeted`] and the radius search of the
/// odist fitting backend.
pub static CARD_BINSEARCH_STEPS: Counter = Counter::new("card_binsearch_steps");
/// Models found during AllSAT enumeration (pre-projection-dedup).
pub static ALLSAT_MODELS: Counter = Counter::new("allsat_models");
/// Blocking clauses added during AllSAT enumeration.
pub static ALLSAT_BLOCKING_CLAUSES: Counter = Counter::new("allsat_blocking_clauses");

/// The `"sat"` section: every counter owned by this crate, in display order.
pub static SAT_SECTION: Section = Section {
    name: "sat",
    counters: &[
        &DECISIONS,
        &PROPAGATIONS,
        &CONFLICTS,
        &RESTARTS,
        &LEARNT_CLAUSES,
        &CARD_LADDERS_ENCODED,
        &CARD_BINSEARCH_STEPS,
        &ALLSAT_MODELS,
        &ALLSAT_BLOCKING_CLAUSES,
    ],
    timers: &[],
};

/// Fold a retiring solver's cumulative [`SolverStats`] into the global
/// counters. Call once per solver instance (the stats are cumulative over
/// the instance's lifetime, so recording twice double-counts).
pub fn record_solver(solver: &Solver) {
    record_stats(&solver.stats());
}

/// Fold an explicit [`SolverStats`] reading into the global counters.
pub fn record_stats(stats: &SolverStats) {
    DECISIONS.add(stats.decisions);
    PROPAGATIONS.add(stats.propagations);
    CONFLICTS.add(stats.conflicts);
    RESTARTS.add(stats.restarts);
    LEARNT_CLAUSES.add(stats.learnt);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    #[test]
    fn record_solver_folds_stats() {
        let before = CONFLICTS.get();
        let mut s = Solver::new();
        s.ensure_vars(3);
        // A small unsat core forces at least one conflict.
        s.add_dimacs_clause(&[1, 2]);
        s.add_dimacs_clause(&[1, -2]);
        s.add_dimacs_clause(&[-1, 2]);
        s.add_dimacs_clause(&[-1, -2]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        record_solver(&s);
        if arbitrex_telemetry::enabled() {
            assert!(CONFLICTS.get() > before);
        } else {
            assert_eq!(CONFLICTS.get(), 0);
        }
    }
}
