//! Explicit model sets: the semantic objects `Mod(φ)` of the paper.
//!
//! Theory-change operators in `arbitrex-core` are defined on model sets, so
//! that Dalal's *Principle of Irrelevance of Syntax* — postulates (R4), (U4)
//! and (A4) — holds by construction: two equivalent formulas denote the same
//! `ModelSet`.

use crate::ast::Formula;
use crate::cover::Cover;
use crate::error::LogicError;
use crate::eval::eval_block;
use crate::interp::{Interp, MAX_VARS};

/// Enumerating `Mod(φ)` walks all `2^n` interpretations; beyond this many
/// variables [`ModelSet::of_formula`] refuses (use the SAT backend instead).
pub const ENUM_LIMIT: u32 = 28;

/// A finite set of interpretations over a fixed signature width.
///
/// Internally a sorted, deduplicated vector of bitmasks. Equality of
/// `ModelSet`s is logical equivalence of the underlying theories.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelSet {
    n_vars: u32,
    models: Vec<Interp>,
}

impl ModelSet {
    /// Build from an iterator of interpretations (sorted and deduplicated).
    ///
    /// # Panics
    /// Panics if `n_vars > 64` or any interpretation uses a bit `≥ n_vars`.
    pub fn new<I: IntoIterator<Item = Interp>>(n_vars: u32, models: I) -> ModelSet {
        assert!(n_vars as usize <= MAX_VARS);
        let mask = Interp::full(n_vars).0;
        let mut models: Vec<Interp> = models.into_iter().collect();
        for m in &models {
            assert!(
                m.0 & !mask == 0,
                "interpretation {:#b} uses variables beyond width {}",
                m.0,
                n_vars
            );
        }
        models.sort_unstable();
        models.dedup();
        ModelSet { n_vars, models }
    }

    /// The empty model set (an unsatisfiable theory).
    pub fn empty(n_vars: u32) -> ModelSet {
        ModelSet::new(n_vars, [])
    }

    /// All `2^n` interpretations: the set `𝓜` used to define arbitration
    /// `ψ Δ φ = (ψ ∨ φ) ▷ 𝓜`.
    ///
    /// # Panics
    /// Panics if `n_vars > ENUM_LIMIT`. Use [`ModelSet::try_all`] to get a
    /// [`LogicError::TooManyVars`] instead, or [`all_interps`] to stream
    /// the universe without materializing it at all.
    pub fn all(n_vars: u32) -> ModelSet {
        Self::try_all(n_vars).unwrap()
    }

    /// Fallible version of [`ModelSet::all`]: `Err` instead of panicking
    /// when materializing `2^n` interpretations would exceed [`ENUM_LIMIT`].
    ///
    /// Callers that only need to *scan* the universe should prefer
    /// [`all_interps`], which streams the interpretations without
    /// allocating.
    pub fn try_all(n_vars: u32) -> Result<ModelSet, LogicError> {
        if n_vars > ENUM_LIMIT {
            return Err(LogicError::TooManyVars {
                requested: n_vars as usize,
                limit: ENUM_LIMIT as usize,
            });
        }
        Ok(ModelSet {
            n_vars,
            models: all_interps(n_vars).collect(),
        })
    }

    /// The singleton model set `{i}`.
    pub fn singleton(n_vars: u32, i: Interp) -> ModelSet {
        ModelSet::new(n_vars, [i])
    }

    /// Enumerate `Mod(f)` over `n_vars` variables.
    ///
    /// A cube cover (`⊥`, a literal, a conjunction of literals, or a
    /// disjunction of those — the shape of the paper's `form(I₁,…,I_k)`)
    /// goes through the expansion [`ModelSet::try_of_cover`] runs on a
    /// [`Cover`] read from text: cube by cube whenever that touches no
    /// more interpretations than the exhaustive walk has blocks, else one
    /// block at a time over the cubes. Anything else is evaluated
    /// exhaustively, 64 interpretations per tree walk. Every path returns
    /// the same ascending set.
    ///
    /// # Panics
    /// Panics if `n_vars > ENUM_LIMIT` or `f` mentions a variable
    /// `≥ n_vars`. Use [`ModelSet::try_of_formula`] to get the
    /// corresponding [`LogicError`] instead; past the limit, the SAT
    /// backend (`arbitrex-core`'s `satbackend`) answers the same questions
    /// without enumerating.
    pub fn of_formula(f: &Formula, n_vars: u32) -> ModelSet {
        Self::try_of_formula(f, n_vars).unwrap()
    }

    /// Fallible version of [`ModelSet::of_formula`].
    pub fn try_of_formula(f: &Formula, n_vars: u32) -> Result<ModelSet, LogicError> {
        check_enumerable(n_vars, f.max_var().map(|v| v.0))?;
        let models = match Cover::of_formula(f) {
            Some(cover) => cover.models(n_vars),
            None => walk_blocks(n_vars, |block| eval_block(f, block)),
        };
        Ok(ModelSet { n_vars, models })
    }

    /// Enumerate the models of a cube cover read by
    /// [`read_cover`](crate::read_cover), through the same expansion
    /// [`ModelSet::try_of_formula`] gives a [`Formula`] of that shape.
    /// Fails like it when `n_vars > ENUM_LIMIT` or the cover names a
    /// variable `≥ n_vars`.
    pub fn try_of_cover(cover: &Cover, n_vars: u32) -> Result<ModelSet, LogicError> {
        check_enumerable(n_vars, cover.max_var())?;
        Ok(ModelSet {
            n_vars,
            models: cover.models(n_vars),
        })
    }

    /// Signature width this set is defined over.
    pub fn n_vars(&self) -> u32 {
        self.n_vars
    }

    /// Number of models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Is the underlying theory unsatisfiable?
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Does the set contain interpretation `i`?
    pub fn contains(&self, i: Interp) -> bool {
        self.models.binary_search(&i).is_ok()
    }

    /// Iterate over the models in increasing bitmask order.
    pub fn iter(&self) -> impl Iterator<Item = Interp> + '_ {
        self.models.iter().copied()
    }

    /// Borrow the sorted model slice.
    pub fn as_slice(&self) -> &[Interp] {
        &self.models
    }

    /// The sole model of a singleton set, if it is one.
    pub fn as_singleton(&self) -> Option<Interp> {
        match self.models.as_slice() {
            [i] => Some(*i),
            _ => None,
        }
    }

    fn check_width(&self, other: &ModelSet) {
        assert_eq!(
            self.n_vars, other.n_vars,
            "model sets over different signature widths ({} vs {})",
            self.n_vars, other.n_vars
        );
    }

    /// Set union — the semantics of disjunction: `Mod(ψ ∨ φ)`.
    pub fn union(&self, other: &ModelSet) -> ModelSet {
        self.check_width(other);
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut a, mut b) = (
            self.models.iter().peekable(),
            other.models.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&x), Some(&&y)) => {
                    if x < y {
                        out.push(x);
                        a.next();
                    } else if y < x {
                        out.push(y);
                        b.next();
                    } else {
                        out.push(x);
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    out.push(x);
                    a.next();
                }
                (None, Some(&&y)) => {
                    out.push(y);
                    b.next();
                }
                (None, None) => break,
            }
        }
        ModelSet {
            n_vars: self.n_vars,
            models: out,
        }
    }

    /// Set intersection — the semantics of conjunction: `Mod(ψ ∧ φ)`.
    pub fn intersect(&self, other: &ModelSet) -> ModelSet {
        self.check_width(other);
        let models = self
            .models
            .iter()
            .copied()
            .filter(|i| other.contains(*i))
            .collect();
        ModelSet {
            n_vars: self.n_vars,
            models,
        }
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &ModelSet) -> ModelSet {
        self.check_width(other);
        let models = self
            .models
            .iter()
            .copied()
            .filter(|i| !other.contains(*i))
            .collect();
        ModelSet {
            n_vars: self.n_vars,
            models,
        }
    }

    /// Set complement — the semantics of negation: `Mod(¬φ) = 𝓜 \ Mod(φ)`.
    ///
    /// # Panics
    /// Panics if `n_vars > ENUM_LIMIT`, because the complement materializes
    /// the universe via [`ModelSet::all`]. For a non-panicking check,
    /// compare `n_vars()` against [`ENUM_LIMIT`] first — a `ModelSet` can
    /// legally be *constructed* over up to 64 variables; only universe
    /// materialization is capped.
    pub fn complement(&self) -> ModelSet {
        ModelSet::all(self.n_vars).difference(self)
    }

    /// Logical entailment: every model of `self` is a model of `other`.
    pub fn implies(&self, other: &ModelSet) -> bool {
        self.check_width(other);
        self.models.iter().all(|i| other.contains(*i))
    }

    /// Logical equivalence (which for model sets is plain equality).
    pub fn equivalent(&self, other: &ModelSet) -> bool {
        self == other
    }

    /// A formula whose models are exactly this set (a DNF of minterms; see
    /// [`crate::form_of`]).
    pub fn to_formula(&self) -> Formula {
        crate::formof::form_of(self.n_vars, self.models.iter().copied())
    }

    /// Append the text of `form(I₁,…,I_k)` to `out`: exactly the bytes of
    /// `self.to_formula().display(sig)` when `names` is `sig.names()`,
    /// written from the interpretations' bits with no [`Formula`] built.
    /// That is `false` for no models, `true` at width 0, and otherwise one
    /// minterm per model, ascending, joined by ` | `, each listing every
    /// variable in index order joined by ` & ` with `!` on a false bit.
    /// Variable `i` is spelled `names[i]`, or `v{i}` past the end of
    /// `names`; a caller that must escape the names for its output format
    /// passes them escaped, once.
    ///
    /// ```
    /// use arbitrex_logic::{parse, ModelSet, Sig};
    /// let mut sig = Sig::new();
    /// let f = parse(&mut sig, "(S & !D) | (!S & D)").unwrap();
    /// let models = ModelSet::of_formula(&f, 2);
    /// let mut text = String::new();
    /// models.write_form(sig.names(), &mut text);
    /// assert_eq!(text, "S & !D | !S & D");
    /// assert_eq!(text, models.to_formula().display(&sig).to_string());
    /// ```
    pub fn write_form<S: AsRef<str>>(&self, names: &[S], out: &mut String) {
        use std::fmt::Write as _;
        if self.models.is_empty() {
            out.push_str("false");
            return;
        }
        if self.n_vars == 0 {
            out.push_str("true");
            return;
        }
        for (m, i) in self.models.iter().enumerate() {
            if m > 0 {
                out.push_str(" | ");
            }
            for k in 0..self.n_vars as usize {
                if k > 0 {
                    out.push_str(" & ");
                }
                if i.0 >> k & 1 == 0 {
                    out.push('!');
                }
                match names.get(k) {
                    Some(name) => out.push_str(name.as_ref()),
                    None => {
                        let _ = write!(out, "v{k}");
                    }
                }
            }
        }
    }

    /// Render against a signature, e.g. `{{D}, {S, D}}`.
    pub fn display<'a>(&'a self, sig: &'a crate::Sig) -> ModelSetDisplay<'a> {
        ModelSetDisplay { set: self, sig }
    }
}

/// The errors [`ModelSet::try_of_formula`] and [`ModelSet::try_of_cover`]
/// share: a width past [`ENUM_LIMIT`], or a variable at or past it.
fn check_enumerable(n_vars: u32, max_var: Option<u32>) -> Result<(), LogicError> {
    if n_vars > ENUM_LIMIT {
        return Err(LogicError::TooManyVars {
            requested: n_vars as usize,
            limit: ENUM_LIMIT as usize,
        });
    }
    match max_var {
        Some(var) if var >= n_vars => Err(LogicError::VarOutOfRange { var, width: n_vars }),
        _ => Ok(()),
    }
}

/// `Mod` over `n_vars` variables, ascending, one block of 64 at a time:
/// bit `t` of `word(block)` says whether `block << 6 | t` is a model.
pub(crate) fn walk_blocks(n_vars: u32, mut word: impl FnMut(u64) -> u64) -> Vec<Interp> {
    // Below 6 variables one block holds the whole universe in its low
    // `2^n` lanes; the lanes above it repeat those and are masked.
    let lanes = if n_vars < 6 {
        (1u64 << (1u32 << n_vars)) - 1
    } else {
        !0
    };
    let mut models = Vec::new();
    for block in 0..1u64 << n_vars.saturating_sub(6) {
        // Lanes pop low to high and blocks ascend, so `models` comes out
        // sorted without a sort.
        let mut word = word(block) & lanes;
        while word != 0 {
            models.push(Interp(block << 6 | u64::from(word.trailing_zeros())));
            word &= word - 1;
        }
    }
    models
}

/// Stream all `2^n` interpretations in increasing bitmask order without
/// materializing them — the universe `𝓜` as an iterator.
///
/// Unlike [`ModelSet::all`] this allocates nothing, so scans over the whole
/// universe (e.g. arbitration's candidate pool) keep peak memory
/// proportional to the *answer*, not to `2^n`. There is deliberately no
/// `ENUM_LIMIT` check here: the cost of a streaming scan is the caller's
/// time budget, not this crate's memory.
///
/// # Panics
/// Panics if `n_vars ≥ 64` (the interpretation width).
pub fn all_interps(n_vars: u32) -> impl Iterator<Item = Interp> {
    assert!(
        (n_vars as usize) < MAX_VARS,
        "cannot stream 2^{n_vars} interpretations as u64 bitmasks"
    );
    (0..1u64 << n_vars).map(Interp)
}

impl<'a> IntoIterator for &'a ModelSet {
    type Item = Interp;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Interp>>;
    fn into_iter(self) -> Self::IntoIter {
        self.models.iter().copied()
    }
}

/// Helper returned by [`ModelSet::display`].
pub struct ModelSetDisplay<'a> {
    set: &'a ModelSet,
    sig: &'a crate::Sig,
}

impl std::fmt::Display for ModelSetDisplay<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (k, i) in self.set.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", i.display(self.sig))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Var;

    fn ms(n: u32, bits: &[u64]) -> ModelSet {
        ModelSet::new(n, bits.iter().map(|&b| Interp(b)))
    }

    #[test]
    fn new_sorts_and_dedups() {
        let s = ms(3, &[0b101, 0b001, 0b101]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.as_slice(), &[Interp(0b001), Interp(0b101)]);
    }

    #[test]
    #[should_panic(expected = "uses variables beyond width")]
    fn new_rejects_out_of_width_bits() {
        ms(2, &[0b100]);
    }

    #[test]
    fn all_and_empty() {
        assert_eq!(ModelSet::all(3).len(), 8);
        assert!(ModelSet::empty(3).is_empty());
        assert_eq!(ModelSet::all(0).len(), 1); // the empty interpretation
    }

    #[test]
    fn try_all_respects_enum_limit() {
        assert_eq!(ModelSet::try_all(3).unwrap(), ModelSet::all(3));
        assert!(matches!(
            ModelSet::try_all(ENUM_LIMIT + 1),
            Err(LogicError::TooManyVars { .. })
        ));
    }

    #[test]
    fn all_interps_streams_the_universe_in_order() {
        let streamed: Vec<Interp> = all_interps(3).collect();
        assert_eq!(streamed, ModelSet::all(3).as_slice());
        assert_eq!(all_interps(0).count(), 1);
        // Streams past the materialization limit without allocating.
        let mut wide = all_interps(ENUM_LIMIT + 8);
        assert_eq!(wide.next(), Some(Interp(0)));
    }

    #[test]
    fn of_formula_enumerates_models() {
        // Example 3.1: μ = (¬S ∧ D) ∨ (S ∧ D) over S,D,Q has models {D},{S,D}.
        let s = Formula::Var(Var(0));
        let d = Formula::Var(Var(1));
        let mu = Formula::or2(
            Formula::and2(Formula::not(s.clone()), d.clone()),
            Formula::and2(s, d),
        );
        let mods = ModelSet::of_formula(&mu, 3);
        assert_eq!(mods.len(), 4); // Q free: {D},{S,D},{D,Q},{S,D,Q}
        assert!(mods.contains(Interp(0b010)));
        assert!(mods.contains(Interp(0b011)));
        assert!(mods.contains(Interp(0b110)));
        assert!(mods.contains(Interp(0b111)));
    }

    #[test]
    fn try_of_formula_rejects_wide_signatures_and_stray_vars() {
        let f = Formula::Var(Var(5));
        assert!(matches!(
            ModelSet::try_of_formula(&f, 3),
            Err(LogicError::VarOutOfRange { var: 5, width: 3 })
        ));
        assert!(matches!(
            ModelSet::try_of_formula(&Formula::True, 40),
            Err(LogicError::TooManyVars { .. })
        ));
    }

    #[test]
    fn boolean_algebra() {
        let a = ms(2, &[0b00, 0b01]);
        let b = ms(2, &[0b01, 0b10]);
        assert_eq!(a.union(&b), ms(2, &[0b00, 0b01, 0b10]));
        assert_eq!(a.intersect(&b), ms(2, &[0b01]));
        assert_eq!(a.difference(&b), ms(2, &[0b00]));
        assert_eq!(a.complement(), ms(2, &[0b10, 0b11]));
    }

    #[test]
    fn union_intersect_match_formula_semantics() {
        let f = Formula::Var(Var(0));
        let g = Formula::Var(Var(1));
        let mf = ModelSet::of_formula(&f, 2);
        let mg = ModelSet::of_formula(&g, 2);
        assert_eq!(
            mf.union(&mg),
            ModelSet::of_formula(&Formula::or2(f.clone(), g.clone()), 2)
        );
        assert_eq!(
            mf.intersect(&mg),
            ModelSet::of_formula(&Formula::and2(f.clone(), g.clone()), 2)
        );
        assert_eq!(mf.complement(), ModelSet::of_formula(&Formula::not(f), 2));
    }

    #[test]
    fn implication_and_equivalence() {
        let sub = ms(2, &[0b01]);
        let sup = ms(2, &[0b01, 0b11]);
        assert!(sub.implies(&sup));
        assert!(!sup.implies(&sub));
        assert!(sub.equivalent(&ms(2, &[0b01])));
        assert!(ModelSet::empty(2).implies(&sub)); // ⊥ implies anything
    }

    #[test]
    fn singleton_accessors() {
        let s = ModelSet::singleton(3, Interp(0b101));
        assert_eq!(s.as_singleton(), Some(Interp(0b101)));
        assert_eq!(ms(3, &[0b1, 0b10]).as_singleton(), None);
        assert_eq!(ModelSet::empty(3).as_singleton(), None);
    }

    #[test]
    fn to_formula_roundtrips() {
        let s = ms(3, &[0b010, 0b011, 0b111]);
        let f = s.to_formula();
        assert_eq!(ModelSet::of_formula(&f, 3), s);
        assert_eq!(ModelSet::empty(2).to_formula(), Formula::False);
    }

    #[test]
    fn display_with_signature() {
        let mut sig = crate::Sig::new();
        sig.var("S");
        sig.var("D");
        let s = ms(2, &[0b10, 0b11]);
        assert_eq!(format!("{}", s.display(&sig)), "{{D}, {S, D}}");
    }

    #[test]
    #[should_panic(expected = "different signature widths")]
    fn width_mismatch_panics() {
        let _ = ms(2, &[0b01]).union(&ms(3, &[0b001]));
    }
}
