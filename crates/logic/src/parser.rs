//! Text syntax for formulas.
//!
//! Grammar (loosest binding first):
//!
//! ```text
//! iff     := implies ( ("<->" | "<=>") implies )*          left-assoc
//! implies := or ( ("->" | "=>") implies )?                 right-assoc
//! or      := xor ( ("|" | "||" | "\/") xor )*
//! xor     := and ( "^" and )*
//! and     := unary ( ("&" | "&&" | "/\") unary )*
//! unary   := ("!" | "~" | "-") unary | atom
//! atom    := "true" | "false" | "1" | "0" | ident | "(" iff ")"
//! ```
//!
//! Identifiers match `[A-Za-z_][A-Za-z0-9_']*` and are interned into the
//! supplied [`Sig`]. The keywords `true`/`false` (case-insensitive) are the
//! constants.

use crate::ast::Formula;
use crate::error::ParseError;
use crate::sig::Sig;

/// Deepest operator nesting [`parse`] accepts before returning a
/// [`ParseError`] — the recursive-descent parser would otherwise overflow
/// the stack on adversarial inputs like `"((((((…"`. One nesting level
/// costs several stack frames (the whole precedence chain), so the cap is
/// sized for comfort on a 2 MiB test-thread stack, not for maximal reach.
pub const MAX_PARSE_DEPTH: usize = 256;

/// Parse `input` into a [`Formula`], interning variables into `sig`.
///
/// ```
/// use arbitrex_logic::{parse, Sig};
/// let mut sig = Sig::new();
/// let f = parse(&mut sig, "(!S & D) | (S & D)").unwrap();
/// assert_eq!(sig.len(), 2);
/// assert_eq!(f.vars().len(), 2);
/// ```
pub fn parse(sig: &mut Sig, input: &str) -> Result<Formula, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
        sig,
    };
    let f = p.parse_iff()?;
    match p.peek() {
        None => Ok(f),
        Some(t) => Err(ParseError {
            position: t.position,
            message: format!("unexpected trailing token `{}`", t.kind.describe()),
        }),
    }
}

/// A token kind; identifiers borrow their text from the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokKind<'a> {
    Ident(&'a str),
    True,
    False,
    Not,
    And,
    Or,
    Xor,
    Implies,
    Iff,
    LParen,
    RParen,
}

impl TokKind<'_> {
    fn describe(&self) -> String {
        match self {
            TokKind::Ident(s) => s.to_string(),
            TokKind::True => "true".into(),
            TokKind::False => "false".into(),
            TokKind::Not => "!".into(),
            TokKind::And => "&".into(),
            TokKind::Or => "|".into(),
            TokKind::Xor => "^".into(),
            TokKind::Implies => "->".into(),
            TokKind::Iff => "<->".into(),
            TokKind::LParen => "(".into(),
            TokKind::RParen => ")".into(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Tok<'a> {
    kind: TokKind<'a>,
    position: usize,
}

/// Word operators and constants, matched case-insensitively.
const KEYWORDS: [(&str, TokKind<'static>); 8] = [
    ("true", TokKind::True),
    ("top", TokKind::True),
    ("false", TokKind::False),
    ("bot", TokKind::False),
    ("and", TokKind::And),
    ("or", TokKind::Or),
    ("not", TokKind::Not),
    ("xor", TokKind::Xor),
];

/// The keyword `word` spells, if any.
fn keyword(word: &str) -> Option<TokKind<'static>> {
    KEYWORDS
        .iter()
        .find(|(kw, _)| word.eq_ignore_ascii_case(kw))
        .map(|&(_, kind)| kind)
}

/// Is `word` one of the word operators or constants, in any case? Such a
/// word is never a variable name.
pub(crate) fn is_keyword(word: &str) -> bool {
    keyword(word).is_some()
}

/// The end of the identifier whose first byte, a letter or `_`, is
/// `bytes[start]`: the rest of it is letters, digits, `_` and `'`.
pub(crate) fn ident_end(bytes: &[u8], start: usize) -> usize {
    start
        + 1
        + bytes[start + 1..]
            .iter()
            .take_while(|&&d| d.is_ascii_alphanumeric() || d == b'_' || d == b'\'')
            .count()
}

fn lex(input: &str) -> Result<Vec<Tok<'_>>, ParseError> {
    let bytes = input.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        let kind = match c {
            c if c.is_whitespace() => {
                i += 1;
                continue;
            }
            '(' => {
                i += 1;
                TokKind::LParen
            }
            ')' => {
                i += 1;
                TokKind::RParen
            }
            '!' | '~' => {
                i += 1;
                TokKind::Not
            }
            '^' => {
                i += 1;
                TokKind::Xor
            }
            '&' => {
                i += if input[i..].starts_with("&&") { 2 } else { 1 };
                TokKind::And
            }
            '|' => {
                i += if input[i..].starts_with("||") { 2 } else { 1 };
                TokKind::Or
            }
            '/' if input[i..].starts_with("/\\") => {
                i += 2;
                TokKind::And
            }
            '\\' if input[i..].starts_with("\\/") => {
                i += 2;
                TokKind::Or
            }
            '-' if input[i..].starts_with("->") => {
                i += 2;
                TokKind::Implies
            }
            '-' => {
                i += 1;
                TokKind::Not
            }
            '=' if input[i..].starts_with("=>") => {
                i += 2;
                TokKind::Implies
            }
            '<' if input[i..].starts_with("<->") => {
                i += 3;
                TokKind::Iff
            }
            '<' if input[i..].starts_with("<=>") => {
                i += 3;
                TokKind::Iff
            }
            '1' => {
                i += 1;
                TokKind::True
            }
            '0' => {
                i += 1;
                TokKind::False
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let j = ident_end(bytes, i);
                let word = &input[i..j];
                i = j;
                keyword(word).unwrap_or(TokKind::Ident(word))
            }
            other => {
                return Err(ParseError {
                    position: start,
                    message: format!("unexpected character `{other}`"),
                })
            }
        };
        toks.push(Tok {
            kind,
            position: start,
        });
    }
    Ok(toks)
}

struct Parser<'a, 's> {
    tokens: Vec<Tok<'s>>,
    pos: usize,
    depth: usize,
    sig: &'a mut Sig,
}

impl<'s> Parser<'_, 's> {
    fn peek(&self) -> Option<&Tok<'s>> {
        self.tokens.get(self.pos)
    }

    fn eat(&mut self, kind: &TokKind<'_>) -> bool {
        if self.peek().map(|t| &t.kind) == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn end_position(&self) -> usize {
        self.tokens.last().map(|t| t.position + 1).unwrap_or(0)
    }

    /// Guard every recursion cycle (`(...)`, `!`, right-associative `->`)
    /// against stack overflow. Callers decrement `depth` on the success
    /// path; the error path propagates straight out of [`parse`], so a
    /// missed decrement there is harmless.
    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            let position = self
                .peek()
                .map(|t| t.position)
                .unwrap_or_else(|| self.end_position());
            return Err(ParseError {
                position,
                message: format!("formula nesting exceeds the maximum depth of {MAX_PARSE_DEPTH}"),
            });
        }
        Ok(())
    }

    fn parse_iff(&mut self) -> Result<Formula, ParseError> {
        let mut f = self.parse_implies()?;
        while self.eat(&TokKind::Iff) {
            let rhs = self.parse_implies()?;
            f = Formula::iff(f, rhs);
        }
        Ok(f)
    }

    fn parse_implies(&mut self) -> Result<Formula, ParseError> {
        let lhs = self.parse_or()?;
        if self.eat(&TokKind::Implies) {
            self.enter()?;
            let rhs = self.parse_implies()?; // right-associative
            self.depth -= 1;
            Ok(Formula::implies(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn parse_or(&mut self) -> Result<Formula, ParseError> {
        let mut parts = vec![self.parse_xor()?];
        while self.eat(&TokKind::Or) {
            parts.push(self.parse_xor()?);
        }
        Ok(if parts.len() == 1 {
            // invariant: the branch guarantees len == 1.
            parts.pop().unwrap()
        } else {
            Formula::or(parts)
        })
    }

    fn parse_xor(&mut self) -> Result<Formula, ParseError> {
        let mut f = self.parse_and()?;
        while self.eat(&TokKind::Xor) {
            let rhs = self.parse_and()?;
            f = Formula::xor(f, rhs);
        }
        Ok(f)
    }

    fn parse_and(&mut self) -> Result<Formula, ParseError> {
        let mut parts = vec![self.parse_unary()?];
        while self.eat(&TokKind::And) {
            parts.push(self.parse_unary()?);
        }
        Ok(if parts.len() == 1 {
            // invariant: the branch guarantees len == 1.
            parts.pop().unwrap()
        } else {
            Formula::and(parts)
        })
    }

    fn parse_unary(&mut self) -> Result<Formula, ParseError> {
        if self.eat(&TokKind::Not) {
            self.enter()?;
            let inner = self.parse_unary()?;
            self.depth -= 1;
            Ok(Formula::not(inner))
        } else {
            self.parse_atom()
        }
    }

    fn parse_atom(&mut self) -> Result<Formula, ParseError> {
        let end = self.end_position();
        let Some(&tok) = self.peek() else {
            return Err(ParseError {
                position: end,
                message: "unexpected end of input".into(),
            });
        };
        match tok.kind {
            TokKind::True => {
                self.pos += 1;
                Ok(Formula::True)
            }
            TokKind::False => {
                self.pos += 1;
                Ok(Formula::False)
            }
            TokKind::Ident(name) => {
                self.pos += 1;
                match self.sig.try_var(name) {
                    Some(v) => Ok(Formula::Var(v)),
                    None => Err(ParseError::too_many_vars(tok.position)),
                }
            }
            TokKind::LParen => {
                self.pos += 1;
                self.enter()?;
                let inner = self.parse_iff()?;
                self.depth -= 1;
                if self.eat(&TokKind::RParen) {
                    Ok(inner)
                } else {
                    Err(ParseError {
                        position: self.peek().map(|t| t.position).unwrap_or(end),
                        message: "expected `)`".into(),
                    })
                }
            }
            other => Err(ParseError {
                position: tok.position,
                message: format!("expected a formula, found `{}`", other.describe()),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::interp::{Interp, Var};
    use crate::models::ModelSet;

    fn p(s: &str) -> (Formula, Sig) {
        let mut sig = Sig::new();
        let f = parse(&mut sig, s).expect(s);
        (f, sig)
    }

    #[test]
    fn parses_constants_and_vars() {
        assert_eq!(p("true").0, Formula::True);
        assert_eq!(p("FALSE").0, Formula::False);
        assert_eq!(p("1").0, Formula::True);
        assert_eq!(p("0").0, Formula::False);
        assert_eq!(p("A").0, Formula::Var(Var(0)));
    }

    #[test]
    fn operator_precedence() {
        // A | B & C parses as A | (B & C)
        let (f, _) = p("A | B & C");
        assert_eq!(
            f,
            Formula::or2(
                Formula::Var(Var(0)),
                Formula::and2(Formula::Var(Var(1)), Formula::Var(Var(2)))
            )
        );
        // !A & B parses as (!A) & B
        let (g, _) = p("!A & B");
        assert_eq!(
            g,
            Formula::and2(Formula::not(Formula::Var(Var(0))), Formula::Var(Var(1)))
        );
    }

    #[test]
    fn implies_is_right_associative() {
        let (f, _) = p("A -> B -> C");
        let (g, _) = p("A -> (B -> C)");
        assert_eq!(f, g);
    }

    #[test]
    fn alternative_operator_spellings() {
        let (f, _) = p("A && B || !C");
        let (g, _) = p("A /\\ B \\/ ~C");
        let (h, _) = p("A and B or not C");
        assert_eq!(f, g);
        assert_eq!(f, h);
    }

    #[test]
    fn xor_and_iff() {
        let (f, _) = p("A ^ B");
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let i = Interp::EMPTY.with(Var(0), a).with(Var(1), b);
            assert_eq!(eval(&f, i), a != b);
        }
        let (f, _) = p("A <-> B <-> C"); // left-assoc: (A<->B)<->C
        let i = Interp::from_vars([Var(2)]);
        assert!(eval(&f, i)); // (F<->F)<->T = T<->T... (false==false)=true, true==true
    }

    #[test]
    fn paper_intro_theory_parses() {
        let mut sig = Sig::new();
        let f = parse(&mut sig, "A & B & (A & B -> C)").unwrap();
        let m = ModelSet::of_formula(&f, 3);
        assert_eq!(m.as_singleton(), Some(Interp(0b111)));
    }

    #[test]
    fn example_31_formulas_parse_to_expected_models() {
        let mut sig = Sig::new();
        sig.var("S");
        sig.var("D");
        sig.var("Q");
        let mu = parse(&mut sig, "(!S & D & !Q) | (S & D & !Q)").unwrap();
        let m = ModelSet::of_formula(&mu, 3);
        assert_eq!(m.len(), 2);
        assert!(m.contains(Interp(0b010)) && m.contains(Interp(0b011)));
    }

    #[test]
    fn error_positions() {
        let mut sig = Sig::new();
        let e = parse(&mut sig, "A &").unwrap_err();
        assert_eq!(e.position, 3);
        let e = parse(&mut sig, "A @ B").unwrap_err();
        assert_eq!(e.position, 2);
        let e = parse(&mut sig, "(A | B").unwrap_err();
        assert!(e.message.contains(")"));
        let e = parse(&mut sig, "A B").unwrap_err();
        assert!(e.message.contains("trailing"));
    }

    #[test]
    fn nesting_below_the_depth_cap_parses() {
        let depth = MAX_PARSE_DEPTH - 1;
        let mut sig = Sig::new();
        let deep = format!("{}A{}", "(".repeat(depth), ")".repeat(depth));
        assert!(parse(&mut sig, &deep).is_ok());
        let nots = format!("{}A", "!".repeat(depth));
        assert!(parse(&mut sig, &nots).is_ok());
    }

    #[test]
    fn nesting_beyond_the_depth_cap_is_an_error_not_an_overflow() {
        let depth = MAX_PARSE_DEPTH + 10;
        let mut sig = Sig::new();
        for input in [
            format!("{}A{}", "(".repeat(depth), ")".repeat(depth)),
            "(".repeat(depth),
            format!("{}A", "!".repeat(depth)),
            vec!["A"; depth].join(" -> "),
        ] {
            let e = parse(&mut sig, &input).unwrap_err();
            assert!(e.message.contains("depth"), "{}", e.message);
        }
    }

    #[test]
    fn a_sixty_fifth_variable_is_an_error_not_a_panic() {
        let names: Vec<String> = (0..65).map(|i| format!("v{i}")).collect();
        let mut sig = Sig::new();
        assert!(parse(&mut sig, &names[..64].join(" & ")).is_ok());
        let e = parse(&mut sig, &names.join(" | ")).unwrap_err();
        assert!(e.is_too_many_vars(), "{e}");
        assert_eq!(e.position, names[..64].join(" | ").len() + 3);
        // Syntax errors are not mistaken for width errors.
        assert!(!parse(&mut sig, "v0 &").unwrap_err().is_too_many_vars());
    }

    #[test]
    fn idents_allow_primes_and_underscores() {
        let (f, sig) = p("x_1' & y");
        assert_eq!(sig.get("x_1'"), Some(Var(0)));
        assert_eq!(f.vars().len(), 2);
    }
}
