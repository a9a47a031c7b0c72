//! Randomized tests for the CDCL solver against brute-force ground truth
//! on random instances. Seeded generators replace proptest strategies
//! (offline build); case indices in assertions allow deterministic replay.

use arbitrex_sat::{
    enumerate_models_budgeted, minimize_true_count_budgeted, parse_dimacs, write_dimacs,
    AllSatLimit, Budget, CardinalityLadder, EnumStatus, Lit, MinimizeOutcome, SolveResult, Solver,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

const CASES: usize = 192;

/// A random clause set over `n` variables: up to `max_clauses` clauses of
/// 1–3 literals, repeated/complementary variables allowed.
fn gen_clause_set<R: Rng + ?Sized>(rng: &mut R, n: u32, max_clauses: usize) -> Vec<Vec<i32>> {
    let n_clauses = rng.random_range(0..max_clauses);
    (0..n_clauses)
        .map(|_| {
            let len = rng.random_range(1..4usize);
            (0..len)
                .map(|_| {
                    let v = rng.random_range(1..=n as i32);
                    if rng.random() {
                        v
                    } else {
                        -v
                    }
                })
                .collect()
        })
        .collect()
}

fn brute_force_models(n: u32, clauses: &[Vec<i32>]) -> Vec<u64> {
    (0..1u64 << n)
        .filter(|&bits| {
            clauses.iter().all(|c| {
                c.iter().any(|&l| {
                    let v = l.unsigned_abs() - 1;
                    ((bits >> v) & 1 == 1) == (l > 0)
                })
            })
        })
        .collect()
}

fn solver_with(n: u32, clauses: &[Vec<i32>]) -> Solver {
    let mut s = Solver::new();
    s.ensure_vars(n);
    for c in clauses {
        s.add_dimacs_clause(c);
    }
    s
}

#[test]
fn solve_agrees_with_brute_force() {
    let mut rng = StdRng::seed_from_u64(0x5A71);
    let n = 7;
    for case in 0..CASES {
        let clauses = gen_clause_set(&mut rng, n, 30);
        let brute = brute_force_models(n, &clauses);
        let mut s = solver_with(n, &clauses);
        let got = s.solve() == SolveResult::Sat;
        assert_eq!(got, !brute.is_empty(), "sat verdict, case {case}");
        if got {
            let model_bits: u64 = (0..n)
                .filter(|&v| s.model_value(v) == Some(true))
                .map(|v| 1u64 << v)
                .sum();
            assert!(
                brute.contains(&model_bits),
                "solver model not a real model, case {case}"
            );
        }
    }
}

#[test]
fn allsat_enumerates_exactly_the_brute_force_models() {
    let mut rng = StdRng::seed_from_u64(0x5A72);
    let n = 6;
    for case in 0..CASES {
        let clauses = gen_clause_set(&mut rng, n, 20);
        let brute = brute_force_models(n, &clauses);
        let mut s = solver_with(n, &clauses);
        let got =
            enumerate_models_budgeted(&mut s, n, AllSatLimit::Unlimited, &Budget::unlimited());
        assert_eq!(got.status, EnumStatus::Complete, "allsat, case {case}");
        assert_eq!(got.models, brute, "allsat, case {case}");
    }
}

#[test]
fn assumptions_match_clause_addition() {
    let mut rng = StdRng::seed_from_u64(0x5A73);
    let n = 6;
    for case in 0..CASES {
        // Solving under assumption l must agree with solving clauses+{l}.
        let clauses = gen_clause_set(&mut rng, n, 20);
        let assume = rng.random_range(1..6i32);
        let mut s1 = solver_with(n, &clauses);
        let under_assumption =
            s1.solve_with_assumptions(&[Lit::from_dimacs(assume)]) == SolveResult::Sat;
        let mut with_clause = clauses.clone();
        with_clause.push(vec![assume]);
        let brute = brute_force_models(n, &with_clause);
        assert_eq!(
            under_assumption,
            !brute.is_empty(),
            "assumption, case {case}"
        );
    }
}

#[test]
fn minimize_true_count_is_optimal() {
    let mut rng = StdRng::seed_from_u64(0x5A74);
    let n = 6;
    for case in 0..CASES {
        let clauses = gen_clause_set(&mut rng, n, 16);
        let brute = brute_force_models(n, &clauses);
        let mut s = solver_with(n, &clauses);
        let targets: Vec<Lit> = (0..n).map(Lit::pos).collect();
        match minimize_true_count_budgeted(&mut s, &targets, &Budget::unlimited()) {
            MinimizeOutcome::Unsat => assert!(brute.is_empty(), "spurious UNSAT, case {case}"),
            MinimizeOutcome::Interrupted(trip) => panic!("unlimited budget tripped: {trip:?}"),
            MinimizeOutcome::Bound(bound) => {
                assert!(bound.is_exact(), "case {case}");
                let (k, model) = (bound.k, bound.model);
                let best = brute.iter().map(|b| b.count_ones()).min().unwrap();
                assert_eq!(k as u32, best, "minimum cardinality, case {case}");
                let model_bits: u64 = model
                    .iter()
                    .take(n as usize)
                    .enumerate()
                    .filter(|&(_, &b)| b)
                    .map(|(v, _)| 1u64 << v)
                    .sum();
                assert!(brute.contains(&model_bits), "witness model, case {case}");
                assert_eq!(model_bits.count_ones(), best, "witness weight, case {case}");
            }
        }
    }
}

#[test]
fn cardinality_ladder_bounds_are_exact() {
    let mut rng = StdRng::seed_from_u64(0x5A75);
    let n = 6;
    for case in 0..CASES {
        // Free variables + at-most-k: satisfiable iff forced ≤ k.
        let k = rng.random_range(0..6usize);
        let forced = rng.random_range(0..6u32);
        let mut s = Solver::new();
        s.ensure_vars(n);
        let inputs: Vec<Lit> = (0..n).map(Lit::pos).collect();
        let ladder = CardinalityLadder::encode(&mut s, &inputs);
        let mut assumps: Vec<Lit> = ladder.at_most(k).into_iter().collect();
        assumps.extend((0..forced).map(Lit::pos));
        let sat = s.solve_with_assumptions(&assumps) == SolveResult::Sat;
        assert_eq!(
            sat,
            forced as usize <= k,
            "ladder k={k} forced={forced}, case {case}"
        );
    }
}

#[test]
fn dimacs_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x5A76);
    for case in 0..CASES {
        let clauses = gen_clause_set(&mut rng, 8, 25);
        let text = write_dimacs(8, &clauses);
        let parsed = parse_dimacs(&text).unwrap();
        assert_eq!(parsed.n_vars, 8, "dimacs n_vars, case {case}");
        assert_eq!(parsed.clauses, clauses, "dimacs clauses, case {case}");
    }
}

#[test]
fn unsat_cores_are_sound() {
    let mut rng = StdRng::seed_from_u64(0x5A77);
    let n = 6;
    for case in 0..CASES {
        // Assume a random subset of positive literals; when UNSAT, the
        // reported core must itself be UNSAT with the clause set.
        let clauses = gen_clause_set(&mut rng, n, 16);
        let assume_mask = rng.random_range(1u32..64);
        let assumps: Vec<Lit> = (0..n)
            .filter(|&v| assume_mask >> v & 1 == 1)
            .map(Lit::pos)
            .collect();
        let mut s = solver_with(n, &clauses);
        if s.solve_with_assumptions(&assumps) == SolveResult::Unsat {
            let core: Vec<Lit> = s.unsat_core().to_vec();
            assert!(
                core.iter().all(|l| assumps.contains(l)),
                "core not a subset of assumptions, case {case}"
            );
            let mut s2 = solver_with(n, &clauses);
            assert_eq!(
                s2.solve_with_assumptions(&core),
                SolveResult::Unsat,
                "core not itself UNSAT, case {case}"
            );
        }
    }
}

#[test]
fn incremental_solving_is_consistent() {
    let mut rng = StdRng::seed_from_u64(0x5A78);
    let n = 6;
    for case in 0..CASES {
        // Solving base then adding extra must equal solving base+extra
        // from scratch.
        let base = gen_clause_set(&mut rng, n, 12);
        let extra = gen_clause_set(&mut rng, n, 6);
        let mut incremental = solver_with(n, &base);
        let _ = incremental.solve();
        for c in &extra {
            incremental.add_dimacs_clause(c);
        }
        let inc = incremental.solve() == SolveResult::Sat;
        let mut all = base.clone();
        all.extend(extra.iter().cloned());
        let fresh = !brute_force_models(n, &all).is_empty();
        assert_eq!(inc, fresh, "incremental vs fresh, case {case}");
    }
}
