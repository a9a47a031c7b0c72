//! # arbitrex — theory change by arbitration
//!
//! A production-quality Rust implementation of
//! *Peter Z. Revesz, "On the Semantics of Theory Change: Arbitration between
//! Old and New Information" (PODS 1993)*, together with the revision and
//! update operator families it is contrasted against (AGM / Katsuno–Mendelzon),
//! postulate checkers for all four axiom systems (R, U, A, F), weighted
//! knowledge bases, a belief-merging application layer, and the substrates
//! they run on: a propositional logic kernel and a CDCL SAT solver — all in
//! this workspace, no external solver dependencies.
//!
//! ## Quickstart
//!
//! Example 3.1 of the paper: an instructor offers `(¬S ∧ D) ∨ (S ∧ D)`; the
//! three students want `S`-only, `D`-only, and `S ∧ D ∧ Q` respectively.
//! Model-fitting picks the offer closest *overall* to the whole class:
//!
//! ```
//! use arbitrex::prelude::*;
//!
//! let mut sig = Sig::new();
//! let (s, d, q) = (sig.var("S"), sig.var("D"), sig.var("Q"));
//! let mu  = parse(&mut sig, "(!S & D & !Q) | (S & D & !Q)").unwrap();
//! let psi = parse(&mut sig, "(S & !D & !Q) | (!S & D & !Q) | (S & D & Q)").unwrap();
//!
//! let n = sig.width();
//! let result = OdistFitting.apply(
//!     &ModelSet::of_formula(&psi, n),
//!     &ModelSet::of_formula(&mu, n),
//! );
//! // The paper's answer: teach both SQL and Datalog.
//! assert_eq!(result.as_singleton(), Some(Interp::from_vars([s, d])));
//! # let _ = q;
//! ```
//!
//! See `examples/` for runnable scenarios and `EXPERIMENTS.md` for the full
//! experiment suite reproducing every worked example and theorem in the paper.

pub use arbitrex_core as core;
pub use arbitrex_logic as logic;
pub use arbitrex_merge as merge;
pub use arbitrex_relational as relational;
pub use arbitrex_sat as sat;

/// One-stop imports for the common API surface.
pub mod prelude {
    pub use arbitrex_core::arbitration::{
        arbitrate, try_arbitrate_with_budget, try_warbitrate_with_budget, warbitrate, Arbitration,
        WeightedArbitration,
    };
    pub use arbitrex_core::budget::{
        Budget, BudgetSite, BudgetSpent, BudgetedChangeOperator, CancelToken, FaultPlan, Outcome,
        Quality, TripReason, WeightedOutcome,
    };
    pub use arbitrex_core::distance::{dist, min_dist, odist, sum_dist, wdist};
    pub use arbitrex_core::fitting::{LexOdistFitting, OdistFitting, SumFitting};
    pub use arbitrex_core::operator::{ChangeOperator, FormulaOperator};
    pub use arbitrex_core::revision::{
        BorgidaRevision, DalalRevision, DrasticRevision, SatohRevision, WeberRevision,
    };
    pub use arbitrex_core::update::{ForbusUpdate, WinslettUpdate};
    pub use arbitrex_core::weighted::WeightedKb;
    pub use arbitrex_core::wfitting::{WdistFitting, WeightedChangeOperator};
    pub use arbitrex_logic::{eval, form_of, parse, Formula, Interp, ModelSet, Sig, Var};
    pub use arbitrex_merge::{
        merge_egalitarian, merge_fold_arbitration, merge_fold_revision, merge_fold_update,
        merge_majority, merge_weighted_arbitration, Source, Table,
    };
}
