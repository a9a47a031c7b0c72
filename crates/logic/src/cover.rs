//! Cube covers: formulas in the shape every query states its model sets
//! in, read from text and expanded into model sets with no [`Formula`]
//! built on the way.
//!
//! A *cube cover* is `⊤`, `⊥`, a literal, a conjunction of literals, or a
//! disjunction of those — the shape of the paper's `form(I₁,…,I_k)`. Each
//! disjunct fixes some bits and leaves the rest free, so `Mod` is a union
//! of subcubes of `𝓜`. [`read_cover`] reads that shape straight from
//! text; [`ModelSet::try_of_cover`](crate::ModelSet::try_of_cover)
//! expands it. `ModelSet::try_of_formula` takes the same cubes out of a
//! [`Formula`] that is a cube cover and runs the same expansion.

use crate::ast::Formula;
use crate::eval::LANES;
use crate::interp::Interp;
use crate::models::walk_blocks;
use crate::parser::{ident_end, is_keyword};
use crate::sig::Sig;

/// A cube cover: its models are the union of its cubes' models. A cube
/// is the `(ones, zeros)` masks of the bits it forces. Contradictory
/// cubes (`x ∧ ¬x`, or one holding `false`) have no models and are
/// dropped, so `⊥` is the empty cover and `⊤` the one cube `(0, 0)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cover {
    cubes: Vec<(u64, u64)>,
    /// Every variable a literal named, dropped cubes included.
    vars: u64,
}

/// Read `text` as a cube cover over `sig`, interning names in the same
/// first-occurrence order as [`parse`](crate::parse). The accepted text is
///
/// ```text
/// cover   := term ( ("|" | "||") term )*
/// term    := "(" cube ")" | cube
/// cube    := literal ( ("&" | "&&") literal )*
/// literal := ("!" | "~")? ( "true" | "false" | ident )
/// ```
///
/// with ASCII whitespace between tokens, and identifiers as `parse` reads
/// them minus its keywords in any case (`and`, `TRUE`, `bot`, …). Any
/// other text, and a name past [`MAX_VARS`](crate::MAX_VARS), gives
/// `None` and leaves `sig` exactly as it was; `parse` then decides. Where
/// both accept a text they agree on `sig` and on the models.
///
/// ```
/// use arbitrex_logic::{parse, read_cover, ModelSet, Sig};
/// let text = "(S & !D) | (!S && D) || S & D & !S";
/// let mut sig = Sig::new();
/// let cover = read_cover(&mut sig, text).unwrap();
/// let mut parsed = Sig::new();
/// let f = parse(&mut parsed, text).unwrap();
/// assert_eq!(sig, parsed);
/// assert_eq!(
///     ModelSet::try_of_cover(&cover, 2).unwrap(),
///     ModelSet::of_formula(&f, 2)
/// );
/// // Not a cube cover: declined, and nothing interned.
/// assert_eq!(read_cover(&mut sig, "E -> F"), None);
/// assert_eq!(sig.len(), 2);
/// ```
pub fn read_cover(sig: &mut Sig, text: &str) -> Option<Cover> {
    let mark = sig.len();
    let cover = Reader { text, pos: 0 }.cover(sig);
    if cover.is_none() {
        sig.truncate(mark);
    }
    cover
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_space(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, then consume `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_space();
        let found = self.peek() == Some(b);
        self.pos += usize::from(found);
        found
    }

    /// [`Reader::eat`] for `&` or `|`, which may be doubled (`&&`, `||`).
    fn eat_connective(&mut self, b: u8) -> bool {
        let found = self.eat(b);
        if found && self.peek() == Some(b) {
            self.pos += 1;
        }
        found
    }

    fn cover(&mut self, sig: &mut Sig) -> Option<Cover> {
        let mut cover = Cover::default();
        loop {
            let paren = self.eat(b'(');
            let (ones, zeros) = self.cube(sig, &mut cover.vars)?;
            if paren && !self.eat(b')') {
                return None;
            }
            if ones & zeros == 0 {
                cover.cubes.push((ones, zeros));
            }
            self.skip_space();
            if self.pos == self.text.len() {
                return Some(cover);
            }
            if !self.eat_connective(b'|') {
                return None;
            }
        }
    }

    /// One conjunction of literals as its `(ones, zeros)` masks, with a
    /// bit set both ways when it has no models; each name read is also
    /// added to `vars`.
    fn cube(&mut self, sig: &mut Sig, vars: &mut u64) -> Option<(u64, u64)> {
        let (mut ones, mut zeros) = (0u64, 0u64);
        loop {
            let negated = self.eat(b'!') || self.eat(b'~');
            self.skip_space();
            let start = self.pos;
            if !self
                .peek()
                .is_some_and(|b| b.is_ascii_alphabetic() || b == b'_')
            {
                return None;
            }
            self.pos = ident_end(self.text.as_bytes(), start);
            match &self.text[start..self.pos] {
                word @ ("true" | "false") => {
                    if (word == "true") == negated {
                        (ones, zeros) = (!0, !0);
                    }
                }
                word if is_keyword(word) => return None,
                word => {
                    let bit = 1u64 << sig.try_var(word)?.0;
                    *vars |= bit;
                    if negated {
                        zeros |= bit;
                    } else {
                        ones |= bit;
                    }
                }
            }
            if !self.eat_connective(b'&') {
                return Some((ones, zeros));
            }
        }
    }
}

impl Cover {
    /// The cubes of `f` when it is a cube cover, `None` for any other
    /// shape.
    pub(crate) fn of_formula(f: &Formula) -> Option<Cover> {
        let terms = match f {
            Formula::Or(terms) => terms.as_slice(),
            term => std::slice::from_ref(term),
        };
        let mut cover = Cover {
            cubes: Vec::with_capacity(terms.len()),
            vars: 0,
        };
        for term in terms {
            let (ones, zeros, vars) = cube(term)?;
            cover.vars |= vars;
            if ones & zeros == 0 {
                cover.cubes.push((ones, zeros));
            }
        }
        Some(cover)
    }

    /// The highest variable a literal of the cover names.
    pub(crate) fn max_var(&self) -> Option<u32> {
        self.vars.checked_ilog2()
    }

    /// `Mod` over `n_vars` variables (at most 63, and every variable of
    /// the cover below it), ascending. The cubes are expanded one by one
    /// when they hold no more interpretations between them (overlaps
    /// counted once per cube) than the universe has blocks of 64;
    /// otherwise the universe is walked a block at a time, each cube
    /// adding its lanes to the blocks its high bits match.
    pub(crate) fn models(&self, n_vars: u32) -> Vec<Interp> {
        let width = Interp::full(n_vars).0;
        let blocks = 1u64 << n_vars.saturating_sub(6);
        let total = self.cubes.iter().try_fold(0u64, |total, &(ones, zeros)| {
            let total = total + (1 << (width & !(ones | zeros)).count_ones());
            (total <= blocks).then_some(total)
        });
        let Some(total) = total else {
            let rows: Vec<(u64, u64, u64)> = self
                .cubes
                .iter()
                .map(|&(ones, zeros)| (low_lanes(ones, zeros), ones >> 6, zeros >> 6))
                .collect();
            return walk_blocks(n_vars, |block| {
                rows.iter()
                    .filter(|&&(_, ones, zeros)| block & ones == ones && block & zeros == 0)
                    .fold(0, |word, &(lanes, _, _)| word | lanes)
            });
        };
        let mut models = Vec::with_capacity(total as usize);
        for &(ones, zeros) in &self.cubes {
            let free = width & !(ones | zeros);
            // Every subset of `free`, in increasing order.
            let mut sub = 0u64;
            loop {
                models.push(Interp(ones | sub));
                if sub == free {
                    break;
                }
                sub = sub.wrapping_sub(free) & free;
            }
        }
        models.sort_unstable();
        models.dedup();
        models
    }
}

/// The lanes of a block whose low 6 bits meet a cube's `(ones, zeros)`.
fn low_lanes(ones: u64, zeros: u64) -> u64 {
    LANES.iter().enumerate().fold(!0, |word, (v, &lanes)| {
        if ones >> v & 1 == 1 {
            word & lanes
        } else if zeros >> v & 1 == 1 {
            word & !lanes
        } else {
            word
        }
    })
}

/// A literal or constant as the `(ones, zeros)` masks of the bits it
/// forces and the variable it names; `⊥` forces every bit both ways.
fn literal(f: &Formula) -> Option<(u64, u64, u64)> {
    match f {
        Formula::True => Some((0, 0, 0)),
        Formula::False => Some((!0, !0, 0)),
        Formula::Var(v) => Some((1 << v.0, 0, 1 << v.0)),
        Formula::Not(g) => match **g {
            Formula::Var(v) => Some((0, 1 << v.0, 1 << v.0)),
            _ => None,
        },
        _ => None,
    }
}

/// A conjunction of literals (or one literal) as its `(ones, zeros)`
/// masks and the variables it names; `None` for any other shape.
fn cube(t: &Formula) -> Option<(u64, u64, u64)> {
    match t {
        Formula::And(parts) => parts.iter().try_fold((0, 0, 0), |(ones, zeros, vars), p| {
            let (o, z, v) = literal(p)?;
            Some((ones | o, zeros | z, vars | v))
        }),
        _ => literal(t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(text: &str) -> Option<(Cover, Sig)> {
        let mut sig = Sig::new();
        read_cover(&mut sig, text).map(|c| (c, sig))
    }

    #[test]
    fn reads_every_accepted_shape() {
        assert_eq!(read("true").unwrap().0.cubes, [(0, 0)]);
        assert_eq!(read("false").unwrap().0.cubes, []);
        assert_eq!(read("!false").unwrap().0.cubes, [(0, 0)]);
        assert_eq!(read("x").unwrap().0.cubes, [(1, 0)]);
        assert_eq!(read(" ~x ").unwrap().0.cubes, [(0, 1)]);
        assert_eq!(read("x && !y").unwrap().0.cubes, [(1, 2)]);
        assert_eq!(read("( x & ! y )").unwrap().0.cubes, [(1, 2)]);
        let (cover, sig) = read("(b & !a) || a | c & false").unwrap();
        assert_eq!(cover.cubes, [(1, 2), (2, 0)]);
        assert_eq!(sig.names(), ["b", "a", "c"]);
        assert_eq!(cover.max_var(), Some(2));
    }
}
