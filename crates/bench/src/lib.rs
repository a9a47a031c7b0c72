//! Shared workload generators for the benchmarks and the experiment
//! harness (`cargo run -p arbitrex-bench --bin experiments`), and the
//! serving experiments' loopback harness ([`serving`]).

pub mod serving;

use arbitrex_logic::random::{random_nonempty_model_set, FormulaGen};
use arbitrex_logic::{Formula, ModelSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A reproducible theory-change workload: `(ψ, μ)` pairs over a given
/// signature width.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Signature width.
    pub n_vars: u32,
    /// The `(ψ, μ)` instances.
    pub pairs: Vec<(ModelSet, ModelSet)>,
}

/// Build a workload of `count` random satisfiable `(ψ, μ)` pairs over
/// `n_vars` variables, each side having at most `max_models` models.
pub fn random_pairs(n_vars: u32, max_models: usize, count: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs = (0..count)
        .map(|_| {
            (
                random_nonempty_model_set(&mut rng, n_vars, max_models),
                random_nonempty_model_set(&mut rng, n_vars, max_models),
            )
        })
        .collect();
    Workload { n_vars, pairs }
}

/// Build `count` random formula pairs over `n_vars` variables (for the
/// backends experiment, where the input is syntax, not model sets).
pub fn random_formula_pairs(
    n_vars: u32,
    max_depth: u32,
    count: usize,
    seed: u64,
) -> Vec<(Formula, Formula)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = FormulaGen {
        n_vars,
        max_depth,
        leaf_bias: 0.25,
    };
    (0..count)
        .map(|_| (gen.sample(&mut rng), gen.sample(&mut rng)))
        .collect()
}

/// Build `count` random 3-CNF formula pairs at clause/variable ratio 4.0
/// (near the satisfiability phase transition, so model counts stay small
/// enough for the enumeration backend to rank them — sparse random trees
/// can have ~2^(n-2) models, which makes Dalal's pairwise distance scan
/// quadratically explosive and would measure the workload, not the
/// backend).
pub fn random_kcnf_pairs(n_vars: u32, count: usize, seed: u64) -> Vec<(Formula, Formula)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = (n_vars as f64 * 4.0) as usize;
    (0..count)
        .map(|_| {
            (
                arbitrex_logic::random::random_kcnf(&mut rng, n_vars, 3, m),
                arbitrex_logic::random::random_kcnf(&mut rng, n_vars, 3, m),
            )
        })
        .collect()
}

/// A conjunction of unit facts over the first `n_vars` variables with a
/// deterministic sign pattern — the "wide database" used to exercise the
/// SAT backend beyond enumeration reach.
pub fn wide_fact_base(n_vars: u32) -> Formula {
    Formula::and((0..n_vars).map(|v| Formula::lit(arbitrex_logic::Var(v), v % 3 != 0)))
}

/// A constraint contradicting a handful of the facts in
/// [`wide_fact_base`].
pub fn wide_constraint(n_vars: u32) -> Formula {
    assert!(n_vars >= 8);
    let v = |i: u32| Formula::Var(arbitrex_logic::Var(i));
    Formula::and([v(0), v(3), Formula::implies(v(1), v(6)), Formula::not(v(7))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_pairs_are_reproducible_and_satisfiable() {
        let a = random_pairs(6, 5, 10, 3);
        let b = random_pairs(6, 5, 10, 3);
        assert_eq!(a.pairs, b.pairs);
        assert!(a.pairs.iter().all(|(p, m)| !p.is_empty() && !m.is_empty()));
    }

    #[test]
    fn wide_fact_base_has_a_unique_model() {
        let f = wide_fact_base(10);
        let models = ModelSet::of_formula(&f, 10);
        assert_eq!(models.len(), 1);
    }

    #[test]
    fn formula_pairs_reproducible() {
        let a = random_formula_pairs(5, 4, 5, 9);
        let b = random_formula_pairs(5, 4, 5, 9);
        assert_eq!(a, b);
    }
}
