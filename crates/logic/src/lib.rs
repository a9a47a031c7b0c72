//! # arbitrex-logic
//!
//! Propositional logic kernel underlying the `arbitrex` theory-change
//! library (Revesz, *On the Semantics of Theory Change: Arbitration between
//! Old and New Information*, PODS 1993).
//!
//! The paper works with a finite set of propositional terms `𝒯`,
//! interpretations `I ⊆ 𝒯`, and the model sets `Mod(φ)` of formulas built
//! from `¬`, `∧`, `∨`. This crate provides exactly those objects:
//!
//! * [`Sig`] — an interned signature of named propositional terms,
//! * [`Formula`] — a formula AST with parser ([`parse`]) and pretty printer,
//! * [`Cover`] — a cube cover read straight from text ([`read_cover`]),
//!   the shape request formulas take, expanded without a `Formula`,
//! * [`Interp`] — an interpretation as a bitmask over the signature,
//! * [`ModelSet`] — a finite, explicit `Mod(φ)` with Boolean set algebra,
//! * normal forms (NNF / CNF / DNF / Tseitin) feeding the SAT backend,
//! * [`form_of`] — the `form(I₁,…,I_k)` construction used throughout the
//!   paper's proofs: a formula whose models are exactly the given
//!   interpretations,
//! * random formula/model-set generators for the postulate fuzz harness.
//!
//! The enumeration layer supports up to 64 variables ([`MAX_VARS`]); the SAT
//! layer in `arbitrex-sat` has no such limit.

#![warn(missing_docs)]

pub mod ast;
pub mod canonical;
pub mod cnf;
pub mod cover;
pub mod display;
pub mod dnf;
pub mod error;
pub mod eval;
pub mod formof;
pub mod interp;
pub mod minimize;
pub mod models;
pub mod nnf;
pub mod parser;
pub mod random;
pub mod sig;
pub mod simplify;

pub use ast::Formula;
pub use canonical::{
    canonical_bytes, canonical_key, canonicalize_query, decode_formula, encode_formula,
    numbered_canonical_bytes, rename_formula, CanonicalQuery, DecodeError,
};
pub use cnf::{direct_cnf, to_clauses, to_cnf, tseitin, Cnf};
pub use cover::{read_cover, Cover};
pub use dnf::to_dnf;
pub use error::{LogicError, ParseError};
pub use eval::eval;
pub use formof::form_of;
pub use interp::{Interp, Var, MAX_VARS};
pub use minimize::{minimal_dnf, minimize_formula};
pub use models::{all_interps, ModelSet, ENUM_LIMIT};
pub use nnf::to_nnf;
pub use parser::{parse, MAX_PARSE_DEPTH};
pub use sig::Sig;
pub use simplify::simplify;
