//! # arbitrex-bdd
//!
//! Reduced ordered binary decision diagrams (ROBDDs) as a *compiled*
//! representation of model sets.
//!
//! The theory-change operators in `arbitrex-core` work over three
//! interchangeable representations of `Mod(φ)`: explicit enumeration,
//! lazy SAT-based enumeration, and BDDs. BDDs give canonical forms (so
//! equivalence checking — postulates (R4)/(A4) — is pointer equality),
//! exact model counting without enumeration, and polynomial Boolean
//! combinators. They also answer the distance-minimization queries
//! directly: [`distance`] builds the level sets of `min_dist` and `odist`
//! as layered Hamming-ball dilations, so a knowledge base compiled once
//! answers repeated `arbitrate`/`fit` queries by BDD traversal instead of
//! a `2^n` candidate scan (its unit tests hold the levels to brute-force
//! distances).
//!
//! Example 3.1 of the paper, compiled: three teachers' theories become a
//! 3-model BDD, and the egalitarian consensus `{S, D}` is the unique
//! interpretation of the offer `μ` at overall distance 1:
//!
//! ```
//! use arbitrex_bdd::{compile, BddManager, NodeBudget, OdistLayers};
//! use arbitrex_logic::{parse, Sig};
//! // S = bit 0, D = bit 1, Q = bit 2.
//! let mut sig = Sig::new();
//! let psi = parse(&mut sig, "(S & !D & !Q) | (!S & D & !Q) | (S & D & Q)").unwrap();
//! let mu = parse(&mut sig, "D & !Q").unwrap(); // the two offers: {D}, {S,D}
//! let mut m = BddManager::new();
//! let psi_bdd = compile(&mut m, &psi);
//! assert_eq!(m.count_models(psi_bdd, 3), 3);
//! let layers = OdistLayers::build(&mut m, psi_bdd, 3, NodeBudget::unlimited()).unwrap();
//! let mu_bdd = compile(&mut m, &mu);
//! // No offer satisfies every teacher exactly (odist 0)…
//! let at0 = m.and(layers.le(0), mu_bdd);
//! assert!(at0.is_false());
//! // …but teaching S and D is within distance 1 of all three voices.
//! let at1 = m.and(layers.le(1), mu_bdd);
//! assert_eq!(m.models(at1, 3), vec![0b011]);
//! ```

#![warn(missing_docs)]

pub mod distance;
pub mod from_formula;
pub mod manager;

pub use distance::{DistanceLayers, NodeBudget, NodeBudgetExceeded, OdistLayers};
pub use from_formula::compile;
pub use manager::{Bdd, BddManager};
