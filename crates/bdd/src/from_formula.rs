//! Compiling `arbitrex-logic` formulas into BDDs.

use crate::manager::{Bdd, BddManager};
use arbitrex_logic::Formula;

/// Compile a formula into a BDD in the given manager.
///
/// ```
/// use arbitrex_bdd::{compile, BddManager};
/// use arbitrex_logic::{parse, Sig};
/// let mut sig = Sig::new();
/// let f = parse(&mut sig, "(A | B) & !(A & B)").unwrap(); // xor
/// let mut m = BddManager::new();
/// let b = compile(&mut m, &f);
/// assert_eq!(m.count_models(b, 2), 2);
/// ```
pub fn compile(m: &mut BddManager, f: &Formula) -> Bdd {
    match f {
        Formula::True => Bdd::TRUE,
        Formula::False => Bdd::FALSE,
        Formula::Var(v) => m.var(v.0),
        Formula::Not(g) => {
            let b = compile(m, g);
            m.not(b)
        }
        Formula::And(gs) => {
            let mut acc = Bdd::TRUE;
            for g in gs {
                if acc.is_false() {
                    break;
                }
                let b = compile(m, g);
                acc = m.and(acc, b);
            }
            acc
        }
        Formula::Or(gs) => {
            let mut acc = Bdd::FALSE;
            for g in gs {
                if acc.is_true() {
                    break;
                }
                let b = compile(m, g);
                acc = m.or(acc, b);
            }
            acc
        }
        Formula::Implies(a, b) => {
            let ba = compile(m, a);
            let bb = compile(m, b);
            m.implies(ba, bb)
        }
        Formula::Iff(a, b) => {
            let ba = compile(m, a);
            let bb = compile(m, b);
            m.iff(ba, bb)
        }
        Formula::Xor(a, b) => {
            let ba = compile(m, a);
            let bb = compile(m, b);
            m.xor(ba, bb)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitrex_logic::{parse, ModelSet, Sig};

    fn check(s: &str) {
        let mut sig = Sig::new();
        let f = parse(&mut sig, s).unwrap();
        let n = sig.width().max(1);
        let mut m = BddManager::new();
        let b = compile(&mut m, &f);
        let via_bdd: Vec<u64> = m.models(b, n);
        let direct: Vec<u64> = ModelSet::of_formula(&f, n).iter().map(|i| i.0).collect();
        assert_eq!(via_bdd, direct, "BDD compile mismatch for {s}");
        assert_eq!(
            m.count_models(b, n),
            direct.len() as u128,
            "count mismatch for {s}"
        );
    }

    #[test]
    fn compile_agrees_with_enumeration() {
        for s in [
            "true",
            "false",
            "A",
            "!A",
            "A & B",
            "A | B",
            "A -> B",
            "A <-> B",
            "A ^ B",
            "A & B & (A & B -> C)",
            "(!S & D) | (S & D)",
            "(S & !D & !Q) | (!S & D & !Q) | (S & D & Q)",
            "!(A & (B -> !C) <-> (A ^ C))",
            "A & !A",
            "(A | B) & (B | C) & (C | A) & !(A & B & C)",
        ] {
            check(s);
        }
    }

    #[test]
    fn equivalent_formulas_compile_to_same_node() {
        let mut sig = Sig::new();
        let f = parse(&mut sig, "!(A & B)").unwrap();
        let g = parse(&mut sig, "!A | !B").unwrap();
        let mut m = BddManager::new();
        assert_eq!(compile(&mut m, &f), compile(&mut m, &g));
    }

    #[test]
    fn short_circuit_on_contradiction() {
        let mut sig = Sig::new();
        let f = parse(&mut sig, "A & !A & (B | C | D)").unwrap();
        let mut m = BddManager::new();
        assert!(compile(&mut m, &f).is_false());
    }
}
