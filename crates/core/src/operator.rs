//! The operator abstraction: theory change as a function on model sets.

use arbitrex_logic::{Formula, ModelSet};

/// A theory-change operator at the semantic level.
///
/// `apply(ψ, μ)` is `Mod(ψ op μ)` for the operator's `op` — revision `∘`,
/// update `⋄`, or model-fitting `▷`. Working on model sets bakes in the
/// irrelevance-of-syntax postulates (R4/U4/A4): equivalent theories *are*
/// the same argument.
pub trait ChangeOperator {
    /// Human-readable operator name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// `Mod(ψ op μ)`.
    fn apply(&self, psi: &ModelSet, mu: &ModelSet) -> ModelSet;
}

impl<T: ChangeOperator + ?Sized> ChangeOperator for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn apply(&self, psi: &ModelSet, mu: &ModelSet) -> ModelSet {
        (**self).apply(psi, mu)
    }
}

/// Formula-level wrapper: enumerate models, apply the semantic operator,
/// return a canonical formula (DNF of minterms) of the result.
///
/// ```
/// use arbitrex_core::{DalalRevision, FormulaOperator};
/// use arbitrex_logic::{parse, ModelSet, Sig};
/// let mut sig = Sig::new();
/// let psi = parse(&mut sig, "A & B").unwrap();
/// let mu = parse(&mut sig, "!A | !B").unwrap();
/// let op = FormulaOperator::new(DalalRevision, sig.width());
/// let out = op.apply(&psi, &mu);
/// // Dalal revision keeps the models of μ at distance 1 from {A,B}.
/// assert_eq!(ModelSet::of_formula(&out, 2).len(), 2);
/// ```
pub struct FormulaOperator<Op> {
    op: Op,
    n_vars: u32,
}

impl<Op: ChangeOperator> FormulaOperator<Op> {
    /// Wrap `op` for formulas over a signature of `n_vars` variables.
    pub fn new(op: Op, n_vars: u32) -> Self {
        FormulaOperator { op, n_vars }
    }

    /// The underlying semantic operator.
    pub fn inner(&self) -> &Op {
        &self.op
    }

    /// Apply at the formula level via model enumeration.
    ///
    /// # Panics
    /// Panics if the signature exceeds the enumeration limit or a formula
    /// mentions variables beyond it; for wider signatures use
    /// [`crate::satbackend`].
    pub fn apply(&self, psi: &Formula, mu: &Formula) -> Formula {
        let mp = ModelSet::of_formula(psi, self.n_vars);
        let mm = ModelSet::of_formula(mu, self.n_vars);
        self.op.apply(&mp, &mm).to_formula()
    }
}

/// Each alias the registry accepts and the canonical name it stands for.
const ALIASES: &[(&str, &str)] = &[
    ("revise", "dalal"),
    ("revision", "dalal"),
    ("update", "winslett"),
    ("fit", "odist"),
    ("fitting", "odist"),
    ("lex", "lex-odist"),
];

/// The canonical name of a registry name or alias.
fn canonical(name: &str) -> Option<&'static str> {
    ALIASES
        .iter()
        .find(|(alias, _)| *alias == name)
        .map(|(_, canonical)| *canonical)
        .or_else(|| OPERATOR_NAMES.iter().copied().find(|&n| n == name))
}

/// Look up a binary change operator by its stable registry name (the
/// names accepted by the CLI and the service protocol) or one of its
/// aliases.
pub fn operator(name: &str) -> Option<Box<dyn ChangeOperator>> {
    use crate::revision::{BorgidaRevision, DrasticRevision, SatohRevision, WeberRevision};
    let name = canonical(name)?;
    Some(match name {
        "satoh" => Box::new(SatohRevision),
        "borgida" => Box::new(BorgidaRevision),
        "weber" => Box::new(WeberRevision),
        "drastic" => Box::new(DrasticRevision),
        _ => budgeted_operator(name)?,
    })
}

/// Look up the budgeted variant of a change operator by registry name or
/// alias. A subset of [`operator`]: only the operators the selection
/// kernel meters, which degrade gracefully, support budgets.
pub fn budgeted_operator(name: &str) -> Option<Box<dyn crate::budget::BudgetedChangeOperator>> {
    use crate::fitting::{GMaxFitting, LexOdistFitting, OdistFitting, SumFitting};
    use crate::revision::DalalRevision;
    use crate::update::{ForbusUpdate, WinslettUpdate};
    Some(match canonical(name)? {
        "dalal" => Box::new(DalalRevision),
        "winslett" => Box::new(WinslettUpdate),
        "forbus" => Box::new(ForbusUpdate),
        "odist" => Box::new(OdistFitting),
        "lex-odist" => Box::new(LexOdistFitting),
        "gmax" => Box::new(GMaxFitting),
        "sum" => Box::new(SumFitting),
        _ => return None,
    })
}

/// Canonical names accepted by [`operator`], for help output.
pub const OPERATOR_NAMES: &[&str] = &[
    "dalal",
    "satoh",
    "borgida",
    "weber",
    "drastic",
    "winslett",
    "forbus",
    "odist",
    "lex-odist",
    "gmax",
    "sum",
];

/// Canonical names accepted by [`budgeted_operator`], in
/// [`OPERATOR_NAMES`] order, for error messages.
pub fn budgeted_operator_names() -> Vec<&'static str> {
    OPERATOR_NAMES
        .iter()
        .copied()
        .filter(|name| budgeted_operator(name).is_some())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitrex_logic::{parse, Sig};

    /// A toy operator: intersection if nonempty, else μ (drastic revision).
    struct Drastic;
    impl ChangeOperator for Drastic {
        fn name(&self) -> &'static str {
            "drastic"
        }
        fn apply(&self, psi: &ModelSet, mu: &ModelSet) -> ModelSet {
            let both = psi.intersect(mu);
            if both.is_empty() {
                mu.clone()
            } else {
                both
            }
        }
    }

    #[test]
    fn formula_wrapper_roundtrips_models() {
        let mut sig = Sig::new();
        let psi = parse(&mut sig, "A").unwrap();
        let mu = parse(&mut sig, "A | B").unwrap();
        let op = FormulaOperator::new(Drastic, sig.width());
        let out = op.apply(&psi, &mu);
        let expect = ModelSet::of_formula(&parse(&mut sig, "A").unwrap(), 2);
        assert_eq!(ModelSet::of_formula(&out, 2), expect);
        assert_eq!(op.inner().name(), "drastic");
    }

    #[test]
    fn syntax_irrelevance_holds_by_construction() {
        let mut sig = Sig::new();
        let psi1 = parse(&mut sig, "A & (B | !B)").unwrap();
        let psi2 = parse(&mut sig, "A").unwrap();
        let mu = parse(&mut sig, "!A").unwrap();
        let op = FormulaOperator::new(Drastic, sig.width());
        let n = sig.width();
        assert_eq!(
            ModelSet::of_formula(&op.apply(&psi1, &mu), n),
            ModelSet::of_formula(&op.apply(&psi2, &mu), n)
        );
    }

    #[test]
    fn registry_covers_every_listed_name_and_aliases() {
        let aliases = ALIASES.iter().map(|(alias, _)| alias);
        for name in OPERATOR_NAMES.iter().chain(aliases) {
            let op = operator(name).unwrap_or_else(|| panic!("missing operator {name}"));
            // Where both lookups answer, they name the same operator.
            if let Some(budgeted) = budgeted_operator(name) {
                assert_eq!(budgeted.name(), op.name(), "{name}");
            }
        }
        for (alias, target) in ALIASES {
            assert!(!OPERATOR_NAMES.contains(alias), "{alias} shadows a name");
            assert!(OPERATOR_NAMES.contains(target), "{alias} → {target}");
            assert_eq!(
                operator(alias).unwrap().name(),
                operator(target).unwrap().name()
            );
        }
        // The budgeted set is exactly the seven metered operators; the
        // four revisions the kernel cannot meter stay outside it.
        assert_eq!(
            format!(
                "budgeted operators: {}",
                budgeted_operator_names().join(", ")
            ),
            "budgeted operators: dalal, winslett, forbus, odist, lex-odist, gmax, sum"
        );
        for unmetered in ["satoh", "borgida", "weber", "drastic"] {
            assert!(operator(unmetered).is_some());
            assert!(budgeted_operator(unmetered).is_none(), "{unmetered}");
        }
        assert!(operator("no-such-op").is_none());
        assert!(budgeted_operator("no-such-op").is_none());
    }

    #[test]
    fn operator_is_object_safe_through_references() {
        let ops: Vec<&dyn ChangeOperator> = vec![&Drastic];
        let psi = ModelSet::all(2);
        let mu = ModelSet::all(2);
        for op in ops {
            assert!(!op.apply(&psi, &mu).is_empty());
        }
    }
}
