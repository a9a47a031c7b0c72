//! Formula evaluation under an interpretation, one at a time ([`eval`]) or
//! 64 at a time (`eval_block`, which backs `ModelSet::of_formula`).

use crate::ast::Formula;
use crate::interp::Interp;

/// Evaluate `f` under interpretation `i` (the classical `I ⊨ f` relation).
pub fn eval(f: &Formula, i: Interp) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Var(v) => i.get(*v),
        Formula::Not(g) => !eval(g, i),
        Formula::And(gs) => gs.iter().all(|g| eval(g, i)),
        Formula::Or(gs) => gs.iter().any(|g| eval(g, i)),
        Formula::Implies(a, b) => !eval(a, i) || eval(b, i),
        Formula::Iff(a, b) => eval(a, i) == eval(b, i),
        Formula::Xor(a, b) => eval(a, i) != eval(b, i),
    }
}

/// Lane masks of variables 0–5: bit `t` of `LANES[v]` is bit `v` of `t`.
pub(crate) const LANES: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Evaluate `f` under the 64 interpretations `(block << 6) | t` at once:
/// bit `t` of the result is `eval(f, Interp((block << 6) | t))`.
///
/// Variables 0–5 vary across the lanes; a variable `v ≥ 6` is constant
/// across them, set by bit `v − 6` of `block`. One tree walk thus does
/// the work of 64 [`eval`] calls, with every connective a word operation.
pub(crate) fn eval_block(f: &Formula, block: u64) -> u64 {
    match f {
        Formula::True => !0,
        Formula::False => 0,
        Formula::Var(v) => match v.0 {
            w @ 0..=5 => LANES[w as usize],
            w => 0u64.wrapping_sub(block.checked_shr(w - 6).unwrap_or(0) & 1),
        },
        Formula::Not(g) => !eval_block(g, block),
        Formula::And(gs) => {
            let mut acc = !0;
            for g in gs {
                acc &= eval_block(g, block);
                if acc == 0 {
                    break;
                }
            }
            acc
        }
        Formula::Or(gs) => {
            let mut acc = 0;
            for g in gs {
                acc |= eval_block(g, block);
                if acc == !0 {
                    break;
                }
            }
            acc
        }
        Formula::Implies(a, b) => !eval_block(a, block) | eval_block(b, block),
        Formula::Iff(a, b) => !(eval_block(a, block) ^ eval_block(b, block)),
        Formula::Xor(a, b) => eval_block(a, block) ^ eval_block(b, block),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Var;

    fn v(i: u32) -> Formula {
        Formula::Var(Var(i))
    }

    #[test]
    fn constants() {
        assert!(eval(&Formula::True, Interp::EMPTY));
        assert!(!eval(&Formula::False, Interp::EMPTY));
    }

    #[test]
    fn variables_and_negation() {
        let i = Interp::from_vars([Var(1)]);
        assert!(!eval(&v(0), i));
        assert!(eval(&v(1), i));
        assert!(eval(&Formula::not(v(0)), i));
    }

    #[test]
    fn connectives_truth_tables() {
        for a in [false, true] {
            for b in [false, true] {
                let i = Interp::EMPTY.with(Var(0), a).with(Var(1), b);
                assert_eq!(eval(&Formula::and2(v(0), v(1)), i), a && b);
                assert_eq!(eval(&Formula::or2(v(0), v(1)), i), a || b);
                assert_eq!(
                    eval(&Formula::Implies(Box::new(v(0)), Box::new(v(1))), i),
                    !a || b
                );
                assert_eq!(
                    eval(&Formula::Iff(Box::new(v(0)), Box::new(v(1))), i),
                    a == b
                );
                assert_eq!(
                    eval(&Formula::Xor(Box::new(v(0)), Box::new(v(1))), i),
                    a != b
                );
            }
        }
    }

    #[test]
    fn block_lanes_match_per_interpretation_eval() {
        // Every connective over vars that sit in the lanes (0–5) and in
        // the block index (6, 7), across all four blocks of width 8.
        let f = Formula::Or(vec![
            Formula::And(vec![v(0), Formula::not(v(6)), v(3)]),
            Formula::Implies(Box::new(v(7)), Box::new(v(5))),
            Formula::Iff(Box::new(v(1)), Box::new(v(6))),
            Formula::Xor(Box::new(v(2)), Box::new(Formula::and2(v(4), v(7)))),
            Formula::False,
        ]);
        for block in 0..4u64 {
            let word = eval_block(&f, block);
            for t in 0..64u64 {
                let i = Interp((block << 6) | t);
                assert_eq!(word >> t & 1 == 1, eval(&f, i), "block {block} lane {t}");
            }
        }
        assert_eq!(eval_block(&Formula::True, 0), !0);
        assert_eq!(eval_block(&Formula::False, 0), 0);
    }

    #[test]
    fn intro_example_theory() {
        // {A, B, A ∧ B → C}: satisfied by {A,B,C} but not by {A,B}.
        let theory = Formula::and([
            v(0),
            v(1),
            Formula::implies(Formula::and2(v(0), v(1)), v(2)),
        ]);
        assert!(eval(&theory, Interp::from_vars([Var(0), Var(1), Var(2)])));
        assert!(!eval(&theory, Interp::from_vars([Var(0), Var(1)])));
    }
}
