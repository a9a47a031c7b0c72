//! Cached answers against the naive oracles, on the bypass, miss and hit
//! paths alike.
//!
//! The cache keys a query on its model sets up to a renaming of the
//! variables, so a hit replays an answer computed for a *different*
//! formula: a renamed one, a shuffled one, or any rewrite with the same
//! models. These tests drive the cached entry points with exactly such
//! variants and check every answer against `naive::*`:
//!
//! * a seeded stream on a small evicting cache, so first sightings
//!   bypass, second sightings miss and later ones hit;
//! * variants made of random renamings, `∧`/`∨` shuffles and equivalent
//!   rewrites (`¬¬f`, a tautological conjunct, a duplicated minterm),
//!   with arbitration's sides swapped and weighted sides swapped with
//!   their weights;
//! * model sets that leave columns tied after colour refinement, such as
//!   `{1100, 0011}`, where only the search finds the common key;
//! * and, on a cache that never evicts, that every such variant hits.

use arbitrex_core::kernel::naive;
use arbitrex_core::{
    cached_apply, cached_arbitrate, cached_warbitrate, Budget, CacheStatus, DalalRevision,
    OdistFitting, OpCache, WeightedKb,
};
use arbitrex_logic::{form_of, rename_formula, Formula, Interp, ModelSet, Var};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Fisher–Yates.
fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.random_range(0..=i));
    }
}

/// `f` with the children of every `∧`/`∨` shuffled, built without the
/// flattening smart constructors so the tree keeps its shape.
fn shuffle_children(f: &Formula, rng: &mut StdRng) -> Formula {
    match f {
        Formula::Not(g) => Formula::Not(Box::new(shuffle_children(g, rng))),
        Formula::And(gs) | Formula::Or(gs) => {
            let mut kids: Vec<Formula> = gs.iter().map(|g| shuffle_children(g, rng)).collect();
            shuffle(&mut kids, rng);
            if matches!(f, Formula::And(_)) {
                Formula::And(kids)
            } else {
                Formula::Or(kids)
            }
        }
        other => other.clone(),
    }
}

/// `f` rewritten into an equivalent formula over `n` variables.
fn rewrite(f: Formula, n: u32, rng: &mut StdRng) -> Formula {
    match rng.random_range(0..4) {
        0 => Formula::Not(Box::new(Formula::Not(Box::new(f)))),
        1 => {
            let v = Formula::Var(Var(rng.random_range(0..n)));
            let tautology = Formula::Or(vec![v.clone(), Formula::Not(Box::new(v))]);
            Formula::And(vec![f, tautology])
        }
        2 => match f {
            Formula::Or(mut kids) => {
                let twin = kids[rng.random_range(0..kids.len())].clone();
                kids.push(twin);
                Formula::Or(kids)
            }
            other => Formula::Or(vec![other.clone(), other]),
        },
        _ => f,
    }
}

/// A random permutation of `0..n`.
fn permutation(rng: &mut StdRng, n: u32) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n).collect();
    shuffle(&mut perm, rng);
    perm
}

/// `f` renamed by `perm`, rewritten and shuffled.
fn variant(f: &Formula, perm: &[u32], rng: &mut StdRng) -> Formula {
    let n = perm.len() as u32;
    let f = rewrite(rename_formula(f, perm), n, rng);
    shuffle_children(&f, rng)
}

/// A DNF of `1..=max_minterms` random minterms over `n` variables.
fn minterm_dnf(rng: &mut StdRng, n: u32, max_minterms: usize) -> Formula {
    let k = rng.random_range(1..=max_minterms);
    form_of(n, (0..k).map(|_| Interp(rng.random_range(0..1u64 << n))))
}

fn form(n: u32, bits: &[u64]) -> Formula {
    form_of(n, bits.iter().map(|&b| Interp(b)))
}

/// One query: width, ψ, φ (or μ), and the two source weights.
type Query = (u32, Formula, Formula, u64, u64);

/// Queries whose model sets leave columns tied after refinement, plus a
/// few random ones.
fn bases(rng: &mut StdRng) -> Vec<Query> {
    let mut out: Vec<Query> = vec![
        (4, form(4, &[0b1100, 0b0011]), form(4, &[0b1100]), 1, 1),
        (
            4,
            form(4, &[0b0011, 0b0110, 0b1100, 0b1001]),
            form(4, &[0b0000]),
            2,
            1,
        ),
        (
            6,
            form(6, &[0b000011, 0b001100, 0b110000]),
            form(6, &[0b111111]),
            1,
            3,
        ),
        (
            5,
            form(5, &[0b00011, 0b11000]),
            form(5, &[0b00100, 0b11111]),
            2,
            2,
        ),
        (3, Formula::True, form(3, &[0b000]), 1, 2),
    ];
    for i in 0..10 {
        let n = 2 + i % 5;
        let weights = (rng.random_range(1..=3), rng.random_range(1..=3));
        out.push((
            n,
            minterm_dnf(rng, n, 4),
            minterm_dnf(rng, n, 3),
            weights.0,
            weights.1,
        ));
    }
    out
}

fn models(f: &Formula, n: u32) -> ModelSet {
    ModelSet::of_formula(f, n)
}

fn weighted(f: &Formula, weight: u64, n: u32) -> WeightedKb {
    WeightedKb::from_weights(n, models(f, n).iter().map(|i| (i, weight)))
}

/// Every cached entry point on `(psi, phi)`, checked against its oracle;
/// returns the statuses, weighted arbitration's `None` when a side has no
/// models (a weighted source needs some).
fn check_all(cache: &OpCache, q: &Query, what: &str) -> [Option<CacheStatus>; 4] {
    let (n, psi, phi, wp, wf) = q;
    let n = *n;
    let b = Budget::unlimited();
    let (mp, mf) = (models(psi, n), models(phi, n));
    let (arb, s1) = cached_arbitrate(cache, &mp, &mf, &b).unwrap();
    assert_eq!(arb.models, naive::arbitrate(&mp, &mf), "arbitrate {what}");
    let (odist, s2) = cached_apply(cache, &OdistFitting, &mp, &mf, &b).unwrap();
    assert_eq!(odist.models, naive::odist_fitting(&mp, &mf), "odist {what}");
    let (dalal, s3) = cached_apply(cache, &DalalRevision, &mp, &mf, &b).unwrap();
    assert_eq!(
        dalal.models,
        naive::dalal_revision(&mp, &mf),
        "dalal {what}"
    );
    let mut s4 = None;
    if !mp.is_empty() && !mf.is_empty() {
        let (psi_w, phi_w) = (weighted(psi, *wp, n), weighted(phi, *wf, n));
        let (w, s) = cached_warbitrate(cache, &psi_w, &phi_w, &b).unwrap();
        let want = naive::warbitrate(&psi_w, &phi_w);
        assert!(w.kb.equivalent(&want), "warbitrate {what}");
        s4 = Some(s);
    }
    [Some(s1), Some(s2), Some(s3), s4]
}

/// `q` renamed, rewritten and shuffled; `swap` also swaps the sides (and
/// their weights), which only arbitration may ignore.
fn variant_query(q: &Query, swap: bool, rng: &mut StdRng) -> Query {
    let (n, psi, phi, wp, wf) = q;
    let perm = permutation(rng, *n);
    let (p, f) = (variant(psi, &perm, rng), variant(phi, &perm, rng));
    if swap {
        (*n, f, p, *wf, *wp)
    } else {
        (*n, p, f, *wp, *wf)
    }
}

#[test]
fn cached_answers_match_the_oracles_on_every_path() {
    let mut rng = StdRng::seed_from_u64(0xd1ff_0022);
    let bases = bases(&mut rng);
    let cache = OpCache::with_shards(1, 32);
    let mut seen = [0usize; 3];
    for step in 0..700 {
        let q = if rng.random_bool(0.7) {
            let base = &bases[rng.random_range(0..bases.len())];
            variant_query(base, rng.random_bool(0.5), &mut rng)
        } else {
            let n = rng.random_range(2..=6u32);
            let (psi, phi) = (minterm_dnf(&mut rng, n, 4), minterm_dnf(&mut rng, n, 3));
            (n, psi, phi, 1, rng.random_range(1..=3))
        };
        for status in check_all(&cache, &q, &format!("step {step}"))
            .into_iter()
            .flatten()
        {
            seen[status as usize] += 1;
        }
    }
    let [hits, misses, bypasses] = seen;
    assert!(
        hits > 50 && misses > 50 && bypasses > 50,
        "hits {hits}, misses {misses}, bypasses {bypasses}"
    );
}

#[test]
fn equivalent_rewrites_hit() {
    let mut rng = StdRng::seed_from_u64(0xd1ff_0023);
    for base in bases(&mut rng) {
        // Never evicts: every repeat of a stored query must hit.
        let cache = OpCache::new(1024);
        let first = check_all(&cache, &base, "base");
        assert!(!first.contains(&Some(CacheStatus::Hit)), "{first:?}");
        for round in 0..12 {
            let swap = round % 2 == 1;
            let q = variant_query(&base, swap, &mut rng);
            let [arb, odist, dalal, warb] = check_all(&cache, &q, &format!("round {round}"));
            // Arbitration and weighted arbitration read only the joined
            // voices, so swapped sides hit too.
            let hit = Some(CacheStatus::Hit);
            assert_eq!(arb, hit, "arbitrate, round {round}: {q:?}");
            assert!(
                warb.is_none() || warb == hit,
                "warbitrate, round {round}: {q:?}"
            );
            if !swap {
                assert_eq!(odist, hit, "odist, round {round}: {q:?}");
                assert_eq!(dalal, hit, "dalal, round {round}: {q:?}");
            }
        }
    }
}
