//! Differential test of model enumeration: `ModelSet::of_formula`, which
//! evaluates 64 interpretations per tree walk, must return exactly the
//! ascending filter `(0..2^n).filter(|i| eval(f, i))` over the
//! per-interpretation evaluator. The naive kernel oracles build their
//! model sets with `of_formula`, so this pins them to `eval` too.

use arbitrex_logic::random::FormulaGen;
use arbitrex_logic::{eval, Formula, Interp, LogicError, ModelSet, Var, ENUM_LIMIT};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The enumeration the word-wide path replaced.
fn oracle(f: &Formula, n: u32) -> Vec<Interp> {
    (0..1u64 << n).map(Interp).filter(|&i| eval(f, i)).collect()
}

/// A formula mixing `FormulaGen` subtrees with every connective built
/// raw, so that `⊤`/`⊥` leaves, nested `¬` and constant operands survive
/// (the smart constructors would fold them away).
fn mixed<R: Rng + ?Sized>(rng: &mut R, n: u32, depth: u32) -> Formula {
    let gen = FormulaGen {
        n_vars: n,
        max_depth: 4,
        leaf_bias: 0.2,
    };
    if depth == 0 {
        return match rng.random_range(0..6u8) {
            0 => Formula::True,
            1 => Formula::False,
            _ => gen.sample(rng),
        };
    }
    let sub = |rng: &mut R| Box::new(mixed(rng, n, depth - 1));
    match rng.random_range(0..8u8) {
        0 => Formula::Not(Box::new(Formula::Not(sub(rng)))),
        1 => Formula::And((0..rng.random_range(1..=3)).map(|_| *sub(rng)).collect()),
        2 => Formula::Or((0..rng.random_range(1..=3)).map(|_| *sub(rng)).collect()),
        3 => Formula::Implies(sub(rng), sub(rng)),
        4 => Formula::Iff(sub(rng), sub(rng)),
        5 => Formula::Xor(sub(rng), sub(rng)),
        6 => Formula::Not(sub(rng)),
        _ => gen.sample(rng),
    }
}

/// Which connectives and constants occur in `f`, as bits.
fn kinds(f: &Formula) -> u16 {
    match f {
        Formula::True => 1,
        Formula::False => 1 << 1,
        Formula::Var(_) => 1 << 2,
        Formula::Not(g) => 1 << 3 | kinds(g),
        Formula::And(gs) => gs.iter().fold(1 << 4, |k, g| k | kinds(g)),
        Formula::Or(gs) => gs.iter().fold(1 << 5, |k, g| k | kinds(g)),
        Formula::Implies(a, b) => 1 << 6 | kinds(a) | kinds(b),
        Formula::Iff(a, b) => 1 << 7 | kinds(a) | kinds(b),
        Formula::Xor(a, b) => 1 << 8 | kinds(a) | kinds(b),
    }
}

#[test]
fn of_formula_matches_the_eval_filter_at_every_width() {
    let mut rng = StdRng::seed_from_u64(0x5eed_e1ab);
    let mut seen = 0u16;
    // Widths 0–5 fill a partial word, 6 exactly one, 7–16 several blocks.
    for n in 0..=16u32 {
        let cases = if n <= 10 { 48 } else { 12 };
        for case in 0..cases {
            let f = mixed(&mut rng, n, 4);
            seen |= kinds(&f);
            let got = ModelSet::of_formula(&f, n);
            assert_eq!(got.n_vars(), n);
            assert_eq!(
                got.as_slice(),
                oracle(&f, n),
                "width {n}, case {case}: {f:?}"
            );
        }
    }
    assert_eq!(seen, (1 << 9) - 1, "every connective and constant occurs");
}

#[test]
fn top_enumerates_the_whole_universe() {
    for n in 0..=8u32 {
        let got = ModelSet::of_formula(&Formula::True, n);
        assert_eq!(got.len(), 1 << n, "width {n}");
        assert_eq!(got, ModelSet::all(n), "width {n}");
        assert!(ModelSet::of_formula(&Formula::False, n).is_empty());
    }
}

#[test]
fn errors_come_back_unchanged() {
    let wide = Formula::Var(Var(ENUM_LIMIT + 5));
    // The width cap is checked before the variable range.
    assert_eq!(
        ModelSet::try_of_formula(&wide, ENUM_LIMIT + 1),
        Err(LogicError::TooManyVars {
            requested: ENUM_LIMIT as usize + 1,
            limit: ENUM_LIMIT as usize,
        })
    );
    let f = Formula::and2(Formula::Var(Var(1)), Formula::Var(Var(7)));
    assert_eq!(
        ModelSet::try_of_formula(&f, 7),
        Err(LogicError::VarOutOfRange { var: 7, width: 7 })
    );
    assert_eq!(
        ModelSet::try_of_formula(&Formula::Var(Var(0)), 0),
        Err(LogicError::VarOutOfRange { var: 0, width: 0 })
    );
}

/// A conjunction of literals over `n` variables that leaves `free` of
/// them undecided, sometimes with a repeated literal, a `⊤` conjunct or
/// the contradiction `x ∧ ¬x` thrown in. One decided variable comes back
/// as a lone literal, none as the raw empty conjunction (`⊤`).
fn random_cube<R: Rng + ?Sized>(rng: &mut R, n: u32, free: u32) -> Formula {
    let mut vars: Vec<u32> = (0..n).collect();
    let mut lits = Vec::new();
    for _ in free..n {
        let v = vars.swap_remove(rng.random_range(0..vars.len()));
        lits.push(Formula::lit(Var(v), rng.random_bool(0.5)));
    }
    match rng.random_range(0..8u8) {
        0 if !lits.is_empty() => lits.push(lits[0].clone()),
        1 if n > 0 => {
            let v = Var(rng.random_range(0..n));
            lits.push(Formula::Var(v));
            lits.push(Formula::lit(v, false));
        }
        2 => lits.push(Formula::True),
        _ => {}
    }
    match lits.len() {
        1 => lits.pop().unwrap(),
        _ => Formula::And(lits),
    }
}

/// Interpretations the cubes of a cube cover hold between them, counted
/// once per cube: the size `of_formula` compares with its block count.
fn expansion(f: &Formula, n: u32) -> u64 {
    let terms = match f {
        Formula::Or(terms) => terms.clone(),
        term => vec![term.clone()],
    };
    terms
        .iter()
        .filter(|t| !oracle(t, n).is_empty())
        .map(|t| oracle(t, n).len() as u64)
        .sum()
}

#[test]
fn cube_covers_match_the_eval_filter_on_both_sides_of_the_expansion_bound() {
    let mut rng = StdRng::seed_from_u64(0xc0be_c0de);
    for n in 0..=16u32 {
        let blocks = 1u64 << n.saturating_sub(6);
        let (mut below, mut above) = (0, 0);
        for case in 0..40 {
            let terms = rng.random_range(1..=6usize);
            // Mostly near-minterms, so small covers fit under the bound;
            // now and then a wide cube that pushes the cover over it.
            let f = Formula::Or(
                (0..terms)
                    .map(|_| {
                        let free = match rng.random_range(0..4u8) {
                            0 => rng.random_range(0..=n),
                            _ => rng.random_range(0..=n.min(2)),
                        };
                        random_cube(&mut rng, n, free)
                    })
                    .collect(),
            );
            if expansion(&f, n) <= blocks {
                below += 1;
            } else {
                above += 1;
            }
            assert_eq!(
                ModelSet::of_formula(&f, n).as_slice(),
                oracle(&f, n),
                "width {n}, case {case}: {f:?}"
            );
        }
        assert!(below > 0, "width {n}: no cover under the bound");
        assert!(n < 2 || above > 0, "width {n}: no cover over the bound");
    }
}

#[test]
fn degenerate_cube_covers() {
    let (x, y) = (Var(0), Var(1));
    let contradiction = Formula::And(vec![Formula::Var(x), Formula::lit(x, false)]);
    let cases = [
        // Overlapping cubes: `x` and `x ∧ y` share the model {x, y}.
        Formula::Or(vec![
            Formula::Var(x),
            Formula::and2(Formula::Var(x), Formula::Var(y)),
        ]),
        // A repeated literal.
        Formula::And(vec![
            Formula::Var(x),
            Formula::Var(x),
            Formula::lit(y, false),
        ]),
        // `x ∧ ¬x`, alone and beside a satisfiable cube.
        contradiction.clone(),
        Formula::Or(vec![contradiction, Formula::lit(y, false)]),
        // A `⊤` term, a `⊥` term, the empty conjunction and disjunction.
        Formula::Or(vec![Formula::Var(x), Formula::True]),
        Formula::Or(vec![Formula::False, Formula::Var(y)]),
        Formula::And(vec![]),
        Formula::Or(vec![]),
        // Lone literals.
        Formula::Var(y),
        Formula::lit(x, false),
    ];
    for n in 2..=8u32 {
        for (k, f) in cases.iter().enumerate() {
            assert_eq!(
                ModelSet::of_formula(f, n).as_slice(),
                oracle(f, n),
                "width {n}, case {k}: {f:?}"
            );
        }
    }
    // Width 0: `⊤` and the empty conjunction hold the empty interpretation.
    for f in [
        Formula::True,
        Formula::And(vec![]),
        Formula::Or(vec![Formula::True]),
    ] {
        assert_eq!(ModelSet::of_formula(&f, 0).as_slice(), [Interp(0)]);
    }
    for f in [Formula::False, Formula::Or(vec![])] {
        assert!(ModelSet::of_formula(&f, 0).is_empty());
    }
}

#[test]
fn minterm_dnfs_enumerate_exactly_at_widths_20_and_28() {
    let mut rng = StdRng::seed_from_u64(0x20_28);
    for n in [20u32, 28] {
        for count in [1usize, 8, 24, 64] {
            let mask = (1u64 << n) - 1;
            let models: Vec<Interp> = (0..count)
                .map(|_| Interp(rng.random::<u64>() & mask))
                .collect();
            let want = ModelSet::new(n, models.iter().copied());
            // Duplicates and descending order in the DNF itself.
            let mut terms = models.clone();
            terms.push(models[0]);
            terms.reverse();
            let f = arbitrex_logic::form_of(n, terms);
            assert_eq!(
                ModelSet::of_formula(&f, n),
                want,
                "width {n}, {count} minterms"
            );
        }
    }
}
