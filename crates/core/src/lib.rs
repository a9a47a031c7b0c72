//! # arbitrex-core
//!
//! Theory-change operators from Revesz, *On the Semantics of Theory Change:
//! Arbitration between Old and New Information* (PODS 1993), together with
//! the revision and update families it is contrasted against.
//!
//! The paper's taxonomy, via the jury metaphor of its introduction:
//!
//! * **Revision** (`∘`, AGM postulates R1–R6): the new information is more
//!   reliable than the old — believe the later witness.
//! * **Update** (`⋄`, KM postulates U1–U8): the new information is more
//!   recent — the world changed; update each possible world separately.
//! * **Model-fitting / arbitration** (`▷` / `Δ`, postulates A1–A8): old and
//!   new information are *peers* — find the consensus closest overall to
//!   every voice.
//!
//! All operators here are defined on [`ModelSet`](arbitrex_logic::ModelSet)s (semantic objects), which
//! makes the irrelevance-of-syntax postulates (R4/U4/A4) hold by
//! construction; a formula-level wrapper is provided by
//! [`operator::FormulaOperator`].
//!
//! The [`postulates`] module turns every axiom of all four systems (R, U, A
//! and the weighted F) into an executable check with counterexample
//! reporting, used to validate Theorems 3.1, 3.2 and 4.1 empirically —
//! exhaustively on small universes and by randomized fuzzing on larger ones.
//!
//! Every operator path is instrumented with process-global counters (the
//! default-on `telemetry` feature; see [`telemetry`] and `OBSERVABILITY.md`
//! at the workspace root) that compile to nothing when disabled.

#![warn(missing_docs)]

pub mod arbitration;
pub mod assignment;
pub mod budget;
pub mod cache;
pub mod distance;
pub mod error;
pub mod fitting;
pub mod iterated;
pub mod kernel;
pub mod operator;
pub mod postulates;
pub mod preorder;
pub mod revision;
pub mod satbackend;
pub mod telemetry;
pub mod update;
pub mod weighted;
pub mod wfitting;

pub use arbitration::{
    arbitrate, try_arbitrate_with_budget, try_warbitrate_with_budget, warbitrate, Arbitration,
    WeightedArbitration,
};
pub use budget::{
    Budget, BudgetSite, BudgetSpent, BudgetedChangeOperator, CancelToken, Exhausted, FaultFamily,
    FaultPlan, FaultSite, Faults, Outcome, Quality, TripReason, WeightedOutcome,
};
pub use cache::{
    cached_apply, cached_arbitrate, cached_warbitrate, CacheStatus, CachedValue, OpCache, QueryKey,
};
pub use distance::{dist, min_dist, odist, sum_dist, wdist};
pub use error::CoreError;
pub use fitting::{GMaxFitting, LexOdistFitting, OdistFitting, SumFitting};
pub use operator::{
    budgeted_operator, budgeted_operator_names, operator, ChangeOperator, FormulaOperator,
    OPERATOR_NAMES,
};
pub use revision::{BorgidaRevision, DalalRevision, DrasticRevision, SatohRevision, WeberRevision};
pub use telemetry::TelemetrySnapshot;
pub use update::{ForbusUpdate, WinslettUpdate};
pub use weighted::WeightedKb;
pub use wfitting::{WdistFitting, WeightedChangeOperator};
