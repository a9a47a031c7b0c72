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
