//! Differential test of the cube-cover reader: on every text,
//! `read_cover` either agrees with `parse` + `ModelSet::try_of_formula`
//! on the signature and on the models, or declines and leaves the
//! signature exactly as it was, so that `parse` decides.
//!
//! Inputs: seeded `FormulaGen` formulas and random cube covers in their
//! display text; benchmark-style minterm DNFs with shuffled literals;
//! `write_form` outputs; cover texts in every accepted spelling and
//! whitespace, and the same texts broken; keywords used as names, primes
//! in names, `a & !a`, repeated literals; the empty string, 65 distinct
//! names, `->`, `-x` and Unicode whitespace. Each runs against an empty
//! signature and against one that already holds names, as a stored
//! theory's does.

use arbitrex_logic::random::{random_model_set, FormulaGen};
use arbitrex_logic::{parse, read_cover, Formula, ModelSet, Sig, Var};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Widest signature whose models the check enumerates at extra widths.
const CHECK_WIDTH: u32 = 16;

/// Read `text` against a copy of `sig` and parse it against another.
/// Returns whether the reader accepted.
fn check(sig: &Sig, text: &str) -> bool {
    let mut read_sig = sig.clone();
    let cover = read_cover(&mut read_sig, text);
    let mut parse_sig = sig.clone();
    let parsed = parse(&mut parse_sig, text);
    let Some(cover) = cover else {
        assert_eq!(&read_sig, sig, "declining {text:?} changed the signature");
        return false;
    };
    let f = parsed.unwrap_or_else(|e| panic!("read {text:?}, which does not parse: {e}"));
    assert_eq!(read_sig, parse_sig, "signatures differ on {text:?}");
    // At the signature's own width, and wider: both sides of the
    // expansion limit.
    let n = parse_sig.width();
    for width in [n, n + 1, n + 6, n + 9] {
        if width > CHECK_WIDTH.max(n) {
            break;
        }
        assert_eq!(
            ModelSet::try_of_cover(&cover, width),
            ModelSet::try_of_formula(&f, width),
            "models differ on {text:?} at width {width}"
        );
    }
    true
}

/// `check` against an empty signature and against one holding `held`
/// (names some texts reuse, one they never mention).
fn check_both(text: &str) -> bool {
    let mut held = Sig::new();
    for name in ["b", "p1", "held_only", "x3"] {
        held.var(name);
    }
    let fresh = check(&Sig::new(), text);
    assert_eq!(
        check(&held, text),
        fresh,
        "acceptance of {text:?} depends on the signature"
    );
    fresh
}

/// Names mixing the identifier grammar's corners, some of them words
/// that merely contain a keyword.
fn names(n: usize) -> Vec<String> {
    let pool = [
        "a",
        "b",
        "x'",
        "_u",
        "p1",
        "Q_2'",
        "andy",
        "top_",
        "x_true",
        "notx",
        "Bottom",
        "ORx",
        "z''",
        "Long_Name9",
        "v0",
        "x3",
    ];
    (0..n)
        .map(|i| match pool.get(i) {
            Some(name) => name.to_string(),
            None => format!("n{i}"),
        })
        .collect()
}

fn signature(names: &[String]) -> Sig {
    let mut sig = Sig::new();
    for name in names {
        sig.var(name);
    }
    sig
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

fn pick<'a>(rng: &mut StdRng, options: &[&'a str]) -> &'a str {
    options[rng.random_range(0..options.len())]
}

/// Whitespace the reader skips, or none.
fn space(rng: &mut StdRng) -> &'static str {
    pick(rng, &["", "", " ", " ", "  ", "\t", "\n", "\r\n", "\x0c"])
}

/// A random cube cover in one of the reader's spellings: `&`/`&&`,
/// `|`/`||`, `!`/`~`, optional parentheses, constants, repeated and
/// contradictory literals, and whitespace anywhere between tokens.
fn cover_text(rng: &mut StdRng, names: &[String]) -> String {
    let terms = rng.random_range(1..=4);
    let mut out = String::new();
    for t in 0..terms {
        if t > 0 {
            out += space(rng);
            out += pick(rng, &["|", "||"]);
        }
        out += space(rng);
        let paren = rng.random_bool(0.4);
        if paren {
            out += "(";
            out += space(rng);
        }
        for l in 0..rng.random_range(1..=5) {
            if l > 0 {
                out += space(rng);
                out += pick(rng, &["&", "&&"]);
                out += space(rng);
            }
            if rng.random_bool(0.4) {
                out += pick(rng, &["!", "~", "! ", "~\t"]);
            }
            if rng.random_bool(0.08) {
                out += pick(rng, &["true", "false"]);
            } else {
                out += &names[rng.random_range(0..names.len())];
            }
        }
        if paren {
            out += space(rng);
            out += ")";
        }
    }
    out += space(rng);
    out
}

/// `text` broken by one edit, into something that may or may not still
/// be a cube cover (or parse at all).
fn mutate(rng: &mut StdRng, text: &str) -> String {
    const INSERTS: &[&str] = &[
        "->", "<->", "=>", "^", "-", "-x", "(", ")", "((", "!!", "!(", "/\\", "\\/", "1", "0",
        "and", "TRUE", "bot", "Top", "xor", "&", "|", "&&&", "\u{a0}", "\u{2003}", "\u{3000}",
        "\x0b", "é", "@", "",
    ];
    let at = (0..=text.len())
        .filter(|&i| text.is_char_boundary(i))
        .nth(rng.random_range(0..=text.chars().count()))
        .unwrap_or(text.len());
    let mut out = text.to_string();
    if rng.random_bool(0.3) && at < text.len() {
        let next = text[at..].chars().next().unwrap();
        out.replace_range(at..at + next.len_utf8(), "");
    } else {
        out.insert_str(at, INSERTS[rng.random_range(0..INSERTS.len())]);
    }
    out
}

#[test]
fn reader_agrees_with_parse_on_cover_texts_and_their_mutations() {
    let mut rng = StdRng::seed_from_u64(0xc0fe_0028);
    let (mut accepted, mut declined) = (0, 0);
    for case in 0..3000 {
        let names = names(rng.random_range(1..=16));
        let text = cover_text(&mut rng, &names);
        assert!(
            check_both(&text),
            "case {case}: a cover text {text:?} was declined"
        );
        let broken = mutate(&mut rng, &text);
        if check_both(&broken) {
            accepted += 1;
        } else {
            declined += 1;
        }
    }
    assert!(accepted > 100 && declined > 1000, "{accepted} / {declined}");
}

#[test]
fn reader_agrees_with_parse_on_generated_formulas() {
    let mut rng = StdRng::seed_from_u64(0xf0e0_0028);
    let mut accepted = 0;
    for n in 0..=12u32 {
        let sig = signature(&names(n as usize));
        for depth in 1..=5 {
            for _ in 0..40 {
                let gen = FormulaGen {
                    n_vars: n,
                    max_depth: depth,
                    leaf_bias: 0.3,
                };
                let text = gen.sample(&mut rng).display(&sig).to_string();
                accepted += usize::from(check_both(&text));
            }
        }
        // Random cube covers as formulas, constants included: their
        // display text is always a cover.
        for _ in 0..40 {
            // Built raw, so constants and one-part nodes survive.
            let nary = |mut parts: Vec<Formula>, op: fn(Vec<Formula>) -> Formula| {
                if parts.len() == 1 {
                    parts.pop().unwrap()
                } else {
                    op(parts)
                }
            };
            let literal = |rng: &mut StdRng| match (n, rng.random_range(0..10u8)) {
                (0, _) | (_, 0) => Formula::True,
                (_, 1) => Formula::False,
                _ => Formula::lit(Var(rng.random_range(0..n)), rng.random_bool(0.5)),
            };
            let terms = (0..rng.random_range(1..=4))
                .map(|_| {
                    let k = rng.random_range(1..=4);
                    nary((0..k).map(|_| literal(&mut rng)).collect(), Formula::And)
                })
                .collect();
            let f = nary(terms, Formula::Or);
            let text = f.display(&sig).to_string();
            assert!(check_both(&text), "{text:?} was declined");
        }
    }
    assert!(
        accepted > 100,
        "only {accepted} generated formulas were covers"
    );
}

#[test]
fn reader_reads_benchmark_dnfs_and_write_form_text() {
    let mut rng = StdRng::seed_from_u64(0xd1f0_0028);
    for width in [4u32, 8, 10, 12, 14, 18] {
        let mut vars: Vec<String> = (0..width).map(|i| format!("x{}", i * 7 % 61)).collect();
        for _ in 0..24 {
            // Full minterms, minterms and literals shuffled, as the
            // benchmark's query-hot requests write them.
            shuffle(&mut rng, &mut vars);
            let k = rng.random_range(1..=24usize);
            let terms: Vec<String> = (0..k)
                .map(|_| {
                    let model = rng.random_range(0..1u64 << width);
                    let mut lits: Vec<String> = (0..width as usize)
                        .map(|i| {
                            let bang = if model >> i & 1 == 1 { "" } else { "!" };
                            format!("{bang}{}", vars[i])
                        })
                        .collect();
                    shuffle(&mut rng, &mut lits);
                    format!("({})", lits.join(" & "))
                })
                .collect();
            assert!(check_both(&terms.join(" | ")));
        }
    }
    for n in 0..=12u32 {
        for sig_len in [n, n / 2] {
            let sig = signature(&names(sig_len as usize));
            for _ in 0..12 {
                let set = random_model_set(&mut rng, n, 40, 0.2);
                let mut text = String::new();
                set.write_form(sig.names(), &mut text);
                let mut read_sig = sig.clone();
                let cover = read_cover(&mut read_sig, &text).expect("answer text is a cover");
                // The first minterm names every variable in index order,
                // so the width is the set's own unless it has no models.
                let width = read_sig.width().max(n);
                assert_eq!(ModelSet::try_of_cover(&cover, width).unwrap(), set);
                assert!(check(&sig, &text));
            }
        }
    }
}

#[test]
fn edge_cases_agree_or_decline() {
    let sixty_five: Vec<String> = (0..65).map(|i| format!("v{i}")).collect();
    let accepted = [
        "true",
        "false",
        "!true",
        "~false",
        "x'",
        "x'' & !y'",
        "a & !a",
        "a & !a | b",
        "a & a & !b & !b | a & a",
        "(a && b) || (!a && ~b)",
        "a|b&c",
        "andy & top_ | x_true",
        "\t a \n&\r\n b \x0c",
        "a & false | b & true",
    ];
    for text in accepted {
        assert!(check_both(text), "{text:?} was declined");
    }
    let declined = [
        "",
        "   ",
        "and",
        "a and b",
        "TRUE",
        "True | a",
        "bot",
        "a | BOT",
        "not a",
        "a xor b",
        "a -> b",
        "->",
        "-x",
        "a & -b",
        "!!a",
        "!(a & b)",
        "((a))",
        "(a | b)",
        "(a) & b",
        "a & (b)",
        "1",
        "0 | a",
        "a ^ b",
        "a <-> b",
        "a /\\ b",
        "a \\/ b",
        "a\u{a0}& b",
        "a\u{2003}| b",
        "\u{3000}a",
        "a\x0b& b",
        "a &",
        "| a",
        "a | | b",
        "a &&& b",
        "(a & b",
        "a & b)",
        "é",
    ];
    for text in declined {
        assert!(!check_both(text), "{text:?} was read");
    }
    // 65 names: past the signature's 64 variables, whatever it held.
    for sep in [" | ", " & "] {
        let text = sixty_five.join(sep);
        assert!(!check_both(&text));
        let mut sig = Sig::new();
        assert!(parse(&mut sig, &text).unwrap_err().is_too_many_vars());
    }
    // A signature one short of full takes one fresh name, not two.
    let sig = signature(&sixty_five[..63]);
    assert!(check(&sig, "v0 & !v64"));
    assert!(!check(&sig, "v64 | v65"));
}
