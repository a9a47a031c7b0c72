//! Randomized property tests on the core data structures and the
//! operators' structural invariants. Hand-rolled seeded generators (the
//! offline build vendors only a minimal `rand` shim); every failure
//! message carries the case index for deterministic replay.

use arbitrex::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const N: u32 = 4;
const CASES: usize = 256;

/// A model set over `N` variables from a random 16-bit mask.
fn gen_model_set<R: Rng + ?Sized>(rng: &mut R) -> ModelSet {
    let mask: u16 = rng.random();
    ModelSet::new(N, (0..16u64).filter(|b| mask >> b & 1 == 1).map(Interp))
}

/// A non-empty model set.
fn gen_nonempty_model_set<R: Rng + ?Sized>(rng: &mut R) -> ModelSet {
    loop {
        let m = gen_model_set(rng);
        if !m.is_empty() {
            return m;
        }
    }
}

/// A random formula over `N` variables (literal leaves, depth ≤ 4).
fn gen_formula<R: Rng + ?Sized>(rng: &mut R, depth: u32) -> Formula {
    if depth == 0 || rng.random_bool(0.25) {
        return match rng.random_range(0..4u8) {
            0 => Formula::True,
            1 => Formula::False,
            2 => Formula::Var(Var(rng.random_range(0..N))),
            _ => Formula::not(Formula::Var(Var(rng.random_range(0..N)))),
        };
    }
    match rng.random_range(0..6u8) {
        0 => Formula::not(gen_formula(rng, depth - 1)),
        1 => {
            let k = rng.random_range(2..=3usize);
            Formula::and((0..k).map(|_| gen_formula(rng, depth - 1)))
        }
        2 => {
            let k = rng.random_range(2..=3usize);
            Formula::or((0..k).map(|_| gen_formula(rng, depth - 1)))
        }
        3 => Formula::implies(gen_formula(rng, depth - 1), gen_formula(rng, depth - 1)),
        4 => Formula::iff(gen_formula(rng, depth - 1), gen_formula(rng, depth - 1)),
        _ => Formula::xor(gen_formula(rng, depth - 1), gen_formula(rng, depth - 1)),
    }
}

/// A weighted KB over `N` variables (≤ 6 sparse entries, weights < 5).
fn gen_weighted_kb<R: Rng + ?Sized>(rng: &mut R) -> WeightedKb {
    let k = rng.random_range(0..6usize);
    WeightedKb::from_weights(
        N,
        (0..k).map(|_| {
            (
                Interp(rng.random_range(0..16u64)),
                rng.random_range(0..5u64),
            )
        }),
    )
}

// ------- metric space -------

#[test]
fn dist_is_a_metric() {
    let mut rng = StdRng::seed_from_u64(0x01);
    for _ in 0..CASES {
        let a = Interp(rng.random_range(0..16u64));
        let b = Interp(rng.random_range(0..16u64));
        let c = Interp(rng.random_range(0..16u64));
        assert_eq!(dist(a, b), dist(b, a));
        assert_eq!(dist(a, b) == 0, a == b);
        assert!(dist(a, c) <= dist(a, b) + dist(b, c));
    }
}

// ------- model-set algebra -------

#[test]
fn model_set_boolean_laws() {
    let mut rng = StdRng::seed_from_u64(0x02);
    for _ in 0..CASES {
        let a = gen_model_set(&mut rng);
        let b = gen_model_set(&mut rng);
        assert_eq!(a.union(&b), b.union(&a));
        assert_eq!(a.intersect(&b), b.intersect(&a));
        // De Morgan.
        assert_eq!(
            a.union(&b).complement(),
            a.complement().intersect(&b.complement())
        );
        // Absorption.
        assert_eq!(a.union(&a.intersect(&b)), a);
        assert_eq!(a.intersect(&a.union(&b)), a);
        // Difference via complement.
        assert_eq!(a.difference(&b), a.intersect(&b.complement()));
    }
}

#[test]
fn to_formula_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0x03);
    for _ in 0..CASES {
        let a = gen_model_set(&mut rng);
        assert_eq!(ModelSet::of_formula(&a.to_formula(), N), a);
    }
}

// ------- formula pipeline -------

#[test]
fn display_parse_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x04);
    for _ in 0..CASES {
        let f = gen_formula(&mut rng, 4);
        let sig = Sig::with_anon_vars(N as usize);
        let printed = f.display(&sig).to_string();
        let mut sig2 = sig.clone();
        let reparsed = parse(&mut sig2, &printed).unwrap();
        assert_eq!(
            ModelSet::of_formula(&reparsed, N),
            ModelSet::of_formula(&f, N),
            "pretty-printing changed semantics of {printed}"
        );
    }
}

#[test]
fn nnf_simplify_preserve_semantics() {
    let mut rng = StdRng::seed_from_u64(0x05);
    for case in 0..CASES {
        let f = gen_formula(&mut rng, 4);
        let reference = ModelSet::of_formula(&f, N);
        assert_eq!(
            ModelSet::of_formula(&arbitrex::logic::to_nnf(&f), N),
            reference,
            "nnf, case {case}"
        );
        assert_eq!(
            ModelSet::of_formula(&arbitrex::logic::simplify(&f), N),
            reference,
            "simplify, case {case}"
        );
    }
}

// ------- operator invariants -------

#[test]
fn inclusion_postulate_for_every_operator() {
    let mut rng = StdRng::seed_from_u64(0x07);
    let ops: Vec<&dyn ChangeOperator> = vec![
        &DalalRevision,
        &SatohRevision,
        &BorgidaRevision,
        &WeberRevision,
        &DrasticRevision,
        &WinslettUpdate,
        &ForbusUpdate,
        &OdistFitting,
        &LexOdistFitting,
        &SumFitting,
    ];
    for _ in 0..CASES {
        let psi = gen_model_set(&mut rng);
        let mu = gen_model_set(&mut rng);
        for op in &ops {
            assert!(
                op.apply(&psi, &mu).implies(&mu),
                "{} broke inclusion",
                op.name()
            );
        }
    }
}

#[test]
fn fitting_satisfiability_postulates() {
    let mut rng = StdRng::seed_from_u64(0x08);
    for _ in 0..CASES {
        let psi = gen_nonempty_model_set(&mut rng);
        let mu = gen_nonempty_model_set(&mut rng);
        for op in [
            &OdistFitting as &dyn ChangeOperator,
            &LexOdistFitting,
            &SumFitting,
        ] {
            assert!(!op.apply(&psi, &mu).is_empty(), "{} broke A3", op.name());
        }
        for op in [
            &OdistFitting as &dyn ChangeOperator,
            &LexOdistFitting,
            &SumFitting,
        ] {
            assert!(
                op.apply(&ModelSet::empty(N), &mu).is_empty(),
                "{} broke A2",
                op.name()
            );
        }
    }
}

#[test]
fn arbitration_is_commutative() {
    let mut rng = StdRng::seed_from_u64(0x09);
    for _ in 0..CASES {
        let psi = gen_model_set(&mut rng);
        let phi = gen_model_set(&mut rng);
        assert_eq!(arbitrate(&psi, &phi), arbitrate(&phi, &psi));
    }
}

#[test]
fn arbitration_of_singletons_lies_between() {
    let mut rng = StdRng::seed_from_u64(0x0A);
    for _ in 0..CASES {
        // Consensus between two single worlds is on a geodesic: every
        // chosen model sits within the diameter, and its max distance to
        // the endpoints is minimal = ceil(d/2).
        let a = Interp(rng.random_range(0..16u64));
        let b = Interp(rng.random_range(0..16u64));
        let psi = ModelSet::singleton(N, a);
        let phi = ModelSet::singleton(N, b);
        let consensus = arbitrate(&psi, &phi);
        let d = dist(a, b);
        for i in consensus.iter() {
            assert!(dist(i, a).max(dist(i, b)) == d.div_ceil(2));
        }
    }
}

#[test]
fn revision_with_consistent_input_is_conjunction() {
    let mut rng = StdRng::seed_from_u64(0x0B);
    for _ in 0..CASES {
        let psi = gen_model_set(&mut rng);
        let mu = gen_model_set(&mut rng);
        let both = psi.intersect(&mu);
        if both.is_empty() {
            continue;
        }
        for op in [
            &DalalRevision as &dyn ChangeOperator,
            &SatohRevision,
            &BorgidaRevision,
            &WeberRevision,
            &DrasticRevision,
        ] {
            assert_eq!(op.apply(&psi, &mu), both, "{} broke R2", op.name());
        }
    }
}

#[test]
fn update_distributes_over_kb_disjunction() {
    let mut rng = StdRng::seed_from_u64(0x0C);
    for _ in 0..CASES {
        let psi1 = gen_model_set(&mut rng);
        let psi2 = gen_model_set(&mut rng);
        let mu = gen_model_set(&mut rng);
        for op in [&WinslettUpdate as &dyn ChangeOperator, &ForbusUpdate] {
            assert_eq!(
                op.apply(&psi1.union(&psi2), &mu),
                op.apply(&psi1, &mu).union(&op.apply(&psi2, &mu)),
                "{} broke U8",
                op.name()
            );
        }
    }
}

// ------- weighted lattice -------

#[test]
fn weighted_kb_lattice_laws() {
    let mut rng = StdRng::seed_from_u64(0x0D);
    for _ in 0..CASES {
        let a = gen_weighted_kb(&mut rng);
        let b = gen_weighted_kb(&mut rng);
        let c = gen_weighted_kb(&mut rng);
        assert_eq!(a.join(&b), b.join(&a));
        assert_eq!(a.meet(&b), b.meet(&a));
        assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
        assert_eq!(a.meet(&b).meet(&c), a.meet(&b.meet(&c)));
        // min absorbs over sum: a ⊓ (a ⊔ b) = a.
        assert_eq!(a.meet(&a.join(&b)), a);
        // Implication bounds.
        assert!(a.meet(&b).implies(&a));
        assert!(a.implies(&a.join(&b)));
    }
}

#[test]
fn weighted_arbitration_is_commutative() {
    let mut rng = StdRng::seed_from_u64(0x0E);
    for _ in 0..CASES {
        let a = gen_weighted_kb(&mut rng);
        let b = gen_weighted_kb(&mut rng);
        assert_eq!(warbitrate(&a, &b), warbitrate(&b, &a));
    }
}

#[test]
fn wdist_fitting_result_implied_by_mu() {
    let mut rng = StdRng::seed_from_u64(0x0F);
    for _ in 0..CASES {
        let psi = gen_weighted_kb(&mut rng);
        let mu = gen_weighted_kb(&mut rng);
        let r = WdistFitting.apply(&psi, &mu);
        assert!(r.implies(&mu));
        if psi.is_satisfiable() && mu.is_satisfiable() {
            assert!(r.is_satisfiable());
        } else {
            assert!(!r.is_satisfiable());
        }
    }
}

#[test]
fn weight_scaling_does_not_change_fitting() {
    let mut rng = StdRng::seed_from_u64(0x10);
    for _ in 0..CASES {
        let psi = gen_weighted_kb(&mut rng);
        let mu = gen_weighted_kb(&mut rng);
        let k = rng.random_range(1..9u64);
        assert_eq!(
            WdistFitting.apply(&psi.scale(k), &mu).support_set(),
            WdistFitting.apply(&psi, &mu).support_set()
        );
    }
}
