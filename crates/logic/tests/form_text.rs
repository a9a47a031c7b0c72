//! Differential test of `ModelSet::write_form`, the text of
//! `form(I₁,…,I_k)` written straight from the interpretations: it must
//! equal `to_formula().display(sig)` byte for byte, and re-parse to a
//! formula whose models are the set.
//!
//! Widths 0–16; empty, full, singleton and random sets; full-length
//! signatures, and signatures shorter than the width, where the
//! variables past the end are written `v{i}`.

use arbitrex_logic::random::random_interp;
use arbitrex_logic::{parse, Interp, ModelSet, Sig};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// `len` names, none of the `v{i}` shape the fallback writes.
fn sig_of(len: u32) -> Sig {
    let mut sig = Sig::new();
    for i in 0..len {
        let name = match i % 3 {
            0 => format!("A{i}"),
            1 => format!("x_{i}'"),
            _ => format!("Long_Name{i}"),
        };
        sig.var(&name);
    }
    sig
}

/// Compare against the formula path, then re-parse and compare models.
fn check(set: &ModelSet, sig: &Sig) {
    let mut text = String::from("prefix:");
    set.write_form(sig.names(), &mut text);
    let text = text.strip_prefix("prefix:").expect("appends");
    let want = set.to_formula().display(sig).to_string();
    assert_eq!(text, want, "n = {}, |sig| = {}", set.n_vars(), sig.len());

    // Re-parsing a full width-16 set would enumerate 2^16 minterms over
    // every block of the universe; the text check above covers it.
    if set.len() > 1 << 12 {
        return;
    }
    // The first minterm lists every variable in index order, so names
    // missing from `sig` are interned at the indices they stand for.
    let mut reparse_sig = sig.clone();
    let f = parse(&mut reparse_sig, text).expect("the text parses");
    assert_eq!(
        &ModelSet::of_formula(&f, set.n_vars()),
        set,
        "`{text}` denotes another set"
    );
}

#[test]
fn write_form_matches_display_and_reparses() {
    let mut rng = StdRng::seed_from_u64(0x5eed_f04a);
    let mut saw_fallback = false;
    for n in 0..=16u32 {
        for sig_len in [n, n / 2, n.saturating_sub(1)] {
            let sig = sig_of(sig_len);
            saw_fallback |= (sig_len as usize) < n as usize && n > 0;
            check(&ModelSet::empty(n), &sig);
            check(&ModelSet::all(n), &sig);
            for _ in 0..4 {
                check(&ModelSet::singleton(n, random_interp(&mut rng, n)), &sig);
                let count = rng.random_range(2..=64usize);
                let set = ModelSet::new(n, (0..count).map(|_| random_interp(&mut rng, n)));
                check(&set, &sig);
            }
        }
    }
    assert!(saw_fallback, "no signature was shorter than its width");
}

#[test]
fn write_form_shapes() {
    let mut sig = Sig::new();
    sig.var("A");
    sig.var("B");
    let text = |set: &ModelSet, sig: &Sig| {
        let mut out = String::new();
        set.write_form(sig.names(), &mut out);
        out
    };
    assert_eq!(text(&ModelSet::empty(2), &sig), "false");
    assert_eq!(text(&ModelSet::all(0), &sig), "true");
    assert_eq!(text(&ModelSet::all(1), &sig), "!A | A");
    assert_eq!(text(&ModelSet::singleton(1, Interp(1)), &sig), "A");
    assert_eq!(
        text(&ModelSet::all(2), &sig),
        "!A & !B | A & !B | !A & B | A & B"
    );
    assert_eq!(
        text(&ModelSet::all(3), &Sig::new()),
        "!v0 & !v1 & !v2 | v0 & !v1 & !v2 | !v0 & v1 & !v2 | v0 & v1 & !v2 | \
         !v0 & !v1 & v2 | v0 & !v1 & v2 | !v0 & v1 & v2 | v0 & v1 & v2"
    );
}
