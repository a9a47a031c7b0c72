//! Cross-validation of the three model-set backends — truth-table
//! enumeration, CDCL SAT with Tseitin + AllSAT, and ROBDD compilation —
//! plus the SAT-backed operators against their enumeration references.

use arbitrex::bdd::{compile, BddManager};
use arbitrex::core::satbackend::{
    dalal_revision_sat_budgeted, models_via_sat, odist_fitting_sat_budgeted,
};
use arbitrex::logic::random::FormulaGen;
use arbitrex::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random formulas: all three backends must produce the identical model
/// set and model count.
#[test]
fn three_backends_agree_on_random_formulas() {
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
        let via_sat = models_via_sat(&f, n, 1 << n).expect("limit covers the universe");
        assert_eq!(via_sat, reference, "SAT backend disagrees on round {round}");
        let mut mgr = BddManager::new();
        let b = compile(&mut mgr, &f);
        let via_bdd: Vec<u64> = mgr.models(b, n);
        let ref_bits: Vec<u64> = reference.iter().map(|i| i.0).collect();
        assert_eq!(via_bdd, ref_bits, "BDD backend disagrees on round {round}");
        assert_eq!(
            mgr.count_models(b, n),
            reference.len() as u128,
            "BDD count disagrees on round {round}"
        );
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

/// The BDD backend supports equivalence checking by handle equality; use
/// it to verify the formula-level operator wrapper produces equivalents
/// of the semantic result.
#[test]
fn formula_wrapper_equivalence_via_bdd() {
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
        let mut mgr = BddManager::new();
        let out_bdd = compile(&mut mgr, &out);
        let ref_bdd = compile(&mut mgr, &reference.to_formula());
        assert_eq!(out_bdd, ref_bdd);
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
        let sat = models_via_sat(&f, 5, 64).map(|m| !m.is_empty());
        assert_eq!(sat, Some(!reference.is_empty()));
    }
}
