//! Interned signatures of named propositional terms.

use crate::interp::{Var, MAX_VARS};
use std::collections::HashMap;

/// A finite signature `𝒯` of named propositional terms.
///
/// Variables are interned: the first distinct name becomes `v0`, the next
/// `v1`, and so on. All formulas, interpretations and model sets in a given
/// problem should be built against one shared `Sig`.
///
/// ```
/// use arbitrex_logic::Sig;
/// let mut sig = Sig::new();
/// let s = sig.var("S");
/// let d = sig.var("D");
/// assert_eq!(sig.var("S"), s); // interned
/// assert_eq!(sig.len(), 2);
/// assert_eq!(sig.name(d), "D");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sig {
    names: Vec<String>,
    index: HashMap<String, Var>,
}

impl Sig {
    /// Create an empty signature.
    pub fn new() -> Sig {
        Sig::default()
    }

    /// Create a signature with `n` anonymous variables named `v0..v{n-1}`.
    pub fn with_anon_vars(n: usize) -> Sig {
        let mut sig = Sig::new();
        for i in 0..n {
            sig.var(&format!("v{i}"));
        }
        sig
    }

    /// Intern `name`, returning its variable (existing or fresh).
    ///
    /// # Panics
    /// Panics if interning a fresh name would exceed [`MAX_VARS`].
    pub fn var(&mut self, name: &str) -> Var {
        self.try_var(name)
            .unwrap_or_else(|| panic!("signature limited to {MAX_VARS} variables"))
    }

    /// Intern `name` like [`Sig::var`], or `None` when the name is fresh
    /// and the signature already holds [`MAX_VARS`] variables.
    pub fn try_var(&mut self, name: &str) -> Option<Var> {
        if let Some(&v) = self.index.get(name) {
            return Some(v);
        }
        if self.names.len() == MAX_VARS {
            return None;
        }
        let v = Var(self.names.len() as u32);
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), v);
        Some(v)
    }

    /// Forget every variable interned after the first `len`, so the
    /// signature is again what it was when it held `len` of them.
    pub(crate) fn truncate(&mut self, len: usize) {
        for name in self.names.drain(len..) {
            self.index.remove(&name);
        }
    }

    /// Look up a name without interning.
    pub fn get(&self, name: &str) -> Option<Var> {
        self.index.get(name).copied()
    }

    /// The name of a variable.
    ///
    /// # Panics
    /// Panics if `v` is not in this signature.
    pub fn name(&self, v: Var) -> &str {
        &self.names[v.index()]
    }

    /// Every name, indexed by variable.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of variables in the signature.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the signature empty?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Width as `u32`, convenient for [`crate::ModelSet`] constructors.
    pub fn width(&self) -> u32 {
        self.names.len() as u32
    }

    /// Iterate over `(Var, name)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Var(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut sig = Sig::new();
        let a = sig.var("A");
        let b = sig.var("B");
        assert_eq!(sig.var("A"), a);
        assert_eq!(sig.var("B"), b);
        assert_ne!(a, b);
        assert_eq!(sig.len(), 2);
    }

    #[test]
    fn get_does_not_intern() {
        let mut sig = Sig::new();
        assert_eq!(sig.get("X"), None);
        let x = sig.var("X");
        assert_eq!(sig.get("X"), Some(x));
        assert_eq!(sig.len(), 1);
    }

    #[test]
    fn anon_vars_are_named_vi() {
        let sig = Sig::with_anon_vars(3);
        assert_eq!(sig.len(), 3);
        assert_eq!(sig.name(Var(0)), "v0");
        assert_eq!(sig.name(Var(2)), "v2");
    }

    #[test]
    fn iter_yields_in_index_order() {
        let mut sig = Sig::new();
        sig.var("P");
        sig.var("Q");
        let pairs: Vec<(Var, &str)> = sig.iter().collect();
        assert_eq!(pairs, vec![(Var(0), "P"), (Var(1), "Q")]);
    }

    #[test]
    #[should_panic(expected = "signature limited")]
    fn interning_beyond_limit_panics() {
        let mut sig = Sig::new();
        for i in 0..65 {
            sig.var(&format!("x{i}"));
        }
    }
}
