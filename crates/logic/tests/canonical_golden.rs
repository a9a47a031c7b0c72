//! Golden canonical keys: `canonical_key` and `canonicalize_query` output
//! pinned byte for byte.
//!
//! Canonical bytes are a cross-node contract, not an implementation
//! detail: replicas compare `canonical_key` in their digests and use it to
//! orient the `Δ` merge of divergent copies, so every node must compute
//! the same bytes for the same formula. Any change to the canonicalizer
//! that moves a single byte fails here.
//!
//! `canonical_golden.txt` holds one line per corpus case: the case index,
//! `canonical_key` of the first formula, the FNV-1a fingerprint and length
//! of `key_bytes()`, and the FNV-1a fingerprint of the `forward`
//! permutation. To print the table for a deliberate format change:
//!
//! ```text
//! cargo test -p arbitrex-logic --test canonical_golden -- --ignored --nocapture
//! ```

use arbitrex_logic::canonical::fnv1a;
use arbitrex_logic::random::FormulaGen;
use arbitrex_logic::{canonical_bytes, canonical_key, canonicalize_query, parse, Formula, Sig};
use rand::{rngs::StdRng, Rng, SeedableRng};

const GOLDEN: &str = include_str!("canonical_golden.txt");

/// One canonicalization input: formulas sharing a signature, and the
/// declared universe width.
struct Case {
    formulas: Vec<Formula>,
    n_vars: u32,
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// A DNF of `k` distinct full minterms over `width` variables, written the
/// way the serving benchmark writes them: shuffled minterms, shuffled
/// literals, and variable names in a shuffled order.
fn minterm_dnf(rng: &mut StdRng, names: &[String], k: usize) -> String {
    let width = names.len() as u32;
    let mut models: Vec<u64> = Vec::new();
    while models.len() < k {
        let m = rng.random_range(0..1u64 << width);
        if !models.contains(&m) {
            models.push(m);
        }
    }
    let terms: Vec<String> = models
        .iter()
        .map(|m| {
            let mut lits: Vec<String> = (0..width)
                .map(|i| {
                    let name = &names[i as usize];
                    if m >> i & 1 == 1 {
                        name.clone()
                    } else {
                        format!("!{name}")
                    }
                })
                .collect();
            shuffle(rng, &mut lits);
            format!("({})", lits.join(" & "))
        })
        .collect();
    terms.join(" | ")
}

fn corpus() -> Vec<Case> {
    let mut cases = Vec::new();
    let mut rng = StdRng::seed_from_u64(0x601d_c0de);
    // Random trees with every connective (→, ↔, ⊕ included), widths 3–14.
    for i in 0..300u32 {
        let gen = FormulaGen {
            n_vars: 3 + i % 12,
            max_depth: 3 + i % 4,
            leaf_bias: 0.25,
        };
        cases.push(Case {
            formulas: vec![gen.sample(&mut rng)],
            n_vars: gen.n_vars,
        });
    }
    // Joint (ψ, μ) pairs over one shared universe.
    for i in 0..100u32 {
        let gen = FormulaGen {
            n_vars: 3 + i % 12,
            max_depth: 4,
            leaf_bias: 0.3,
        };
        cases.push(Case {
            formulas: vec![gen.sample(&mut rng), gen.sample(&mut rng)],
            n_vars: gen.n_vars,
        });
    }
    // Full-minterm DNFs, parsed from text: ψ alone and jointly with a
    // small μ (the result cache's key).
    for i in 0..60usize {
        let width = 4 + (i % 11);
        let mut names: Vec<String> = (0..width).map(|v| format!("x{v}")).collect();
        shuffle(&mut rng, &mut names);
        let k_psi = 1 + rng.random_range(0..24usize.min((1 << width) - 1));
        let k_mu = 1 + rng.random_range(0..4usize);
        let psi_text = minterm_dnf(&mut rng, &names, k_psi);
        let mu_text = minterm_dnf(&mut rng, &names, k_mu);
        let mut sig = Sig::new();
        let psi = parse(&mut sig, &psi_text).unwrap();
        let mu = parse(&mut sig, &mu_text).unwrap();
        let n_vars = sig.width();
        cases.push(Case {
            formulas: vec![psi.clone()],
            n_vars,
        });
        cases.push(Case {
            formulas: vec![psi, mu],
            n_vars,
        });
    }
    cases
}

fn record(index: usize, case: &Case) -> String {
    let refs: Vec<&Formula> = case.formulas.iter().collect();
    let cq = canonicalize_query(&refs, case.n_vars);
    let key = cq.key_bytes();
    let forward: Vec<u8> = cq.forward.iter().flat_map(|v| v.to_le_bytes()).collect();
    format!(
        "{index} {:016x} {:016x} {} {:016x}",
        canonical_key(&case.formulas[0]),
        fnv1a(&key),
        key.len(),
        fnv1a(&forward)
    )
}

#[test]
fn canonical_keys_match_the_recorded_golden_values() {
    let expected: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let cases = corpus();
    assert_eq!(expected.len(), cases.len(), "golden table size");
    let mismatches: Vec<String> = cases
        .iter()
        .enumerate()
        .map(|(i, c)| record(i, c))
        .zip(&expected)
        .filter(|(got, want)| got != *want)
        .map(|(got, want)| format!("want {want}\n got {got}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} canonical keys moved:\n{}",
        mismatches.len(),
        cases.len(),
        mismatches.join("\n")
    );
}

#[test]
fn small_formulas_have_exact_canonical_bytes() {
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }
    for (text, want) in [
        ("A & !B", "26020000007600000000217601000000"),
        ("!Y & X", "26020000007600000000217601000000"),
        ("A -> B", "7c020000007600000000217601000000"),
        (
            "(S & !D & !Q) | (!S & D & !Q) | (S & D & Q)",
            "7c03000000260300000076000000007601000000760200000026030000007600000000\
             21760100000021760200000026030000007601000000217600000000217602000000",
        ),
        (
            "(A <-> B) ^ !C",
            "7c02000000260200000076000000007c0200000026020000007601000000760200000026\
             0200000021760100000021760200000026020000002176000000007c02000000260200\
             0000760100000021760200000026020000007602000000217601000000",
        ),
    ] {
        let mut sig = Sig::new();
        let f = parse(&mut sig, text).unwrap();
        assert_eq!(hex(&canonical_bytes(&f)), want, "canonical bytes of {text}");
    }
}

#[test]
#[ignore = "prints the golden table; run by hand after a deliberate format change"]
fn print_golden_table() {
    for (i, case) in corpus().iter().enumerate() {
        println!("{}", record(i, case));
    }
}
