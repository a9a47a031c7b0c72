//! Robustness fuzzing: the cube-cover reader, the parser and the
//! downstream normal-form pipeline must never panic, whatever bytes
//! arrive — the reader declines what it does not read, malformed inputs
//! are rejected with a typed [`ParseError`] carrying a position, and
//! anything that parses must survive evaluation, simplification, NNF,
//! and CNF conversion.

use arbitrex_logic::{
    eval, parse, read_cover, simplify, to_clauses, to_nnf, Interp, ModelSet, ParseError, Sig,
    ENUM_LIMIT, MAX_PARSE_DEPTH,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Read as a cube cover and expand what is read; then parse, and if the
/// input is well-formed push the formula through the whole downstream
/// pipeline — the "never panics" property covers it all.
fn exercise(input: &str) -> Result<(), ParseError> {
    let mut sig = Sig::new();
    if let Some(cover) = read_cover(&mut sig, input) {
        let n = sig.width();
        assert_eq!(ModelSet::try_of_cover(&cover, n).is_ok(), n <= ENUM_LIMIT);
    } else {
        assert!(sig.is_empty(), "a declined input interned names");
    }
    let mut sig = Sig::new();
    let f = parse(&mut sig, input)?;
    let n = sig.len() as u32;
    let _ = eval(&f, Interp(0));
    let _ = simplify(&f);
    let g = to_nnf(&f);
    let _ = eval(&g, Interp(0));
    let _ = to_clauses(&f, n);
    Ok(())
}

#[test]
fn byte_soup_never_panics() {
    const CHARSET: &[char] = &[
        'a', 'b', 'z', 'A', 'Z', '_', '\'', '0', '1', '7', '(', ')', '!', '~', '-', '&', '|', '^',
        '<', '>', '=', '/', '\\', ' ', '\t', '\n', '@', '#', '.', ',', '*', '+', '[', ']', '{',
        '}', '"', ';', ':', '?', 'λ', 'ø', '∧', '∨', '¬', '→', '↔',
    ];
    let mut rng = StdRng::seed_from_u64(0xb17e_5009);
    for _ in 0..4000 {
        let len = rng.random_range(0..64usize);
        let input: String = (0..len)
            .map(|_| CHARSET[rng.random_range(0..CHARSET.len())])
            .collect();
        let _ = exercise(&input);
    }
}

#[test]
fn token_soup_never_panics() {
    // Valid tokens in random order: parses succeed far more often than
    // with raw bytes, exercising the downstream pipeline too.
    const TOKENS: &[&str] = &[
        "A", "B", "x_1'", "true", "false", "top", "bot", "1", "0", "(", ")", "!", "~", "&", "&&",
        "/\\", "|", "||", "\\/", "^", "->", "=>", "<->", "<=>", "and", "or", "not", "xor",
    ];
    let mut rng = StdRng::seed_from_u64(0x70ce_5009);
    let mut parsed = 0u32;
    for _ in 0..4000 {
        let len = rng.random_range(0..24usize);
        let input: Vec<&str> = (0..len)
            .map(|_| TOKENS[rng.random_range(0..TOKENS.len())])
            .collect();
        if exercise(&input.join(" ")).is_ok() {
            parsed += 1;
        }
    }
    assert!(parsed > 50, "soup too sour: only {parsed} inputs parsed");
}

#[test]
fn adversarial_nesting_never_overflows() {
    let mut rng = StdRng::seed_from_u64(0xdeed_5009);
    for _ in 0..64 {
        let depth = MAX_PARSE_DEPTH + rng.random_range(1..2048usize);
        let opener = ["(", "!", "~", "A -> "][rng.random_range(0..4usize)];
        let input = opener.repeat(depth);
        let e = exercise(&input).expect_err("unclosed nesting cannot parse");
        // Deeper than the cap: must be the depth error, not a crash.
        assert!(e.message.contains("depth"), "{}", e.message);
    }
    // Balanced nesting just under the cap stays fine end-to-end.
    let depth = MAX_PARSE_DEPTH - 1;
    let input = format!("{}A{}", "(".repeat(depth), ")".repeat(depth));
    exercise(&input).expect("depth below the cap parses");
}
