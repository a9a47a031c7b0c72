//! Cross-validation of the two model-set backends — truth-table
//! enumeration and CDCL SAT with Tseitin + AllSAT — plus the SAT-backed
//! operators against their enumeration references.

use arbitrex::core::satbackend::{
    dalal_revision_sat_budgeted, models_via_sat, odist_fitting_sat_budgeted,
};
use arbitrex::logic::random::FormulaGen;
use arbitrex::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random formulas: both backends must produce the identical model set,
/// and its size must be the count of satisfying assignments.
#[test]
fn sat_and_enumeration_agree_on_random_formulas() {
    let mut rng = StdRng::seed_from_u64(2024);
    let gen = FormulaGen {
        n_vars: 6,
        max_depth: 6,
        leaf_bias: 0.25,
    };
    for round in 0..200 {
        let f = gen.sample(&mut rng);
        let n = 6;
        let reference = ModelSet::of_formula(&f, n);
        let via_sat = models_via_sat(&f, n, 1 << n, &Budget::unlimited())
            .expect("limit covers the universe")
            .models;
        assert_eq!(via_sat, reference, "SAT backend disagrees on round {round}");
        let count = (0..1u64 << n).filter(|&b| eval(&f, Interp(b))).count();
        assert_eq!(via_sat.len(), count, "SAT count disagrees on round {round}");
    }
}

/// Dalal revision: SAT backend vs enumeration reference on random inputs.
#[test]
fn dalal_sat_backend_agrees_with_enumeration() {
    let mut rng = StdRng::seed_from_u64(7);
    let gen = FormulaGen {
        n_vars: 5,
        max_depth: 5,
        leaf_bias: 0.3,
    };
    let mut nontrivial = 0;
    for round in 0..120 {
        let psi = gen.sample(&mut rng);
        let mu = gen.sample(&mut rng);
        let n = 5;
        let reference = DalalRevision.apply(
            &ModelSet::of_formula(&psi, n),
            &ModelSet::of_formula(&mu, n),
        );
        let sat = dalal_revision_sat_budgeted(&psi, &mu, n, 1 << n, &Budget::unlimited())
            .expect("limit covers the universe");
        assert_eq!(sat.models, reference, "mismatch on round {round}");
        if !reference.is_empty() {
            nontrivial += 1;
        }
    }
    assert!(
        nontrivial > 50,
        "random generator produced too many trivial cases"
    );
}

/// odist fitting: SAT radius search vs enumeration reference.
#[test]
fn odist_sat_backend_agrees_with_enumeration() {
    let mut rng = StdRng::seed_from_u64(11);
    let gen = FormulaGen {
        n_vars: 5,
        max_depth: 5,
        leaf_bias: 0.3,
    };
    for round in 0..80 {
        let mu = gen.sample(&mut rng);
        let n = 5;
        let psi = arbitrex::logic::random::random_nonempty_model_set(&mut rng, n, 4);
        let psi_models: Vec<Interp> = psi.iter().collect();
        let reference = OdistFitting.apply(&psi, &ModelSet::of_formula(&mu, n));
        let sat = odist_fitting_sat_budgeted(&psi_models, &mu, n, 1 << n, &Budget::unlimited())
            .expect("limit covers the universe");
        assert_eq!(sat.models, reference, "mismatch on round {round}");
        if let Some(r) = sat.distance {
            // The reported radius is the actual optimum odist.
            let best = reference.iter().map(|i| odist(&psi, i).unwrap()).min();
            if !reference.is_empty() {
                assert_eq!(Some(r), best, "radius mismatch on round {round}");
            }
        }
    }
}

/// The formula-level operator wrapper produces a formula equivalent to
/// the semantic result: its enumerated models are the reference set.
#[test]
fn formula_wrapper_equivalence_via_enumeration() {
    let mut rng = StdRng::seed_from_u64(23);
    let gen = FormulaGen {
        n_vars: 4,
        max_depth: 5,
        leaf_bias: 0.3,
    };
    let op = FormulaOperator::new(DalalRevision, 4);
    for _ in 0..60 {
        let psi = gen.sample(&mut rng);
        let mu = gen.sample(&mut rng);
        let out = op.apply(&psi, &mu);
        let reference = DalalRevision.apply(
            &ModelSet::of_formula(&psi, 4),
            &ModelSet::of_formula(&mu, 4),
        );
        assert_eq!(ModelSet::of_formula(&out, 4), reference);
    }
}

/// Normal forms preserve models end-to-end across the kernel.
#[test]
fn normal_forms_cross_check() {
    let mut rng = StdRng::seed_from_u64(31);
    let gen = FormulaGen {
        n_vars: 5,
        max_depth: 5,
        leaf_bias: 0.3,
    };
    for _ in 0..100 {
        let f = gen.sample(&mut rng);
        let reference = ModelSet::of_formula(&f, 5);
        assert_eq!(
            ModelSet::of_formula(&arbitrex::logic::to_nnf(&f), 5),
            reference
        );
        assert_eq!(
            ModelSet::of_formula(&arbitrex::logic::simplify(&f), 5),
            reference
        );
        // Tseitin: satisfiability must match (projection equivalence is
        // covered by models_via_sat above).
        let sat = models_via_sat(&f, 5, 64, &Budget::unlimited()).map(|m| !m.models.is_empty());
        assert_eq!(sat, Some(!reference.is_empty()));
    }
}
