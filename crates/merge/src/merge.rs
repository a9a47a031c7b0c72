//! N-ary merging strategies.
//!
//! The paper's binary `Δ` extends to N equally-important sources two ways:
//!
//! * **semantically**, by fitting the universe to the join of all voices —
//!   [`merge_weighted_arbitration`] (majority-flavoured, Section 4) and
//!   [`merge_egalitarian`] (max-flavoured, Section 3 generalizad to
//!   per-source minimum distances);
//! * **operationally**, by folding a binary operator over the sources —
//!   [`merge_fold_arbitration`], [`merge_fold_revision`],
//!   [`merge_fold_update`] — which makes the outcome depend on the
//!   processing order. Experiment E10 measures how much worse (and how
//!   order-sensitive) the folds are against the semantic merges.

use crate::metrics::{max_dissatisfaction, sum_dissatisfaction};
use crate::source::Source;
use arbitrex_core::arbitration::arbitrate;
use arbitrex_core::{
    Budget, BudgetSpent, ChangeOperator, DalalRevision, Quality, WdistFitting, WeightedKb,
    WinslettUpdate,
};
use arbitrex_logic::ModelSet;

/// Outcome of a merge: the consensus model set plus the objective values
/// achieved (for reporting and for the E10 comparisons).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Strategy name.
    pub strategy: &'static str,
    /// The consensus set.
    pub consensus: ModelSet,
    /// Best max-dissatisfaction over the consensus set.
    pub egalitarian_cost: Option<u32>,
    /// Best weight-summed dissatisfaction over the consensus set.
    pub majority_cost: Option<u64>,
}

impl MergeOutcome {
    fn evaluate(strategy: &'static str, sources: &[Source], consensus: ModelSet) -> MergeOutcome {
        let egalitarian_cost = consensus
            .iter()
            .map(|i| max_dissatisfaction(sources, i))
            .min();
        let majority_cost = consensus
            .iter()
            .map(|i| sum_dissatisfaction(sources, i))
            .min();
        MergeOutcome {
            strategy,
            consensus,
            egalitarian_cost,
            majority_cost,
        }
    }
}

fn check_sources(sources: &[Source]) -> u32 {
    assert!(!sources.is_empty(), "merging needs at least one source");
    let n = sources[0].n_vars();
    for s in sources {
        assert_eq!(s.n_vars(), n, "sources over different signatures");
    }
    n
}

/// Egalitarian merge: pick the interpretations minimizing the **worst**
/// per-source dissatisfaction `max_i min_{J ∈ Mod(ψ_i)} dist(I, J)` —
/// the N-ary generalization of the paper's odist consensus, with each
/// source (not each model) as one voice. Weights are ignored (every voice
/// equal); an optional `constraint` restricts the candidate space (`𝓜` if
/// `None`).
pub fn merge_egalitarian(sources: &[Source], constraint: Option<&ModelSet>) -> MergeOutcome {
    let n = check_sources(sources);
    if let Some(c) = constraint {
        assert_eq!(c.n_vars(), n, "constraint over a different signature width");
    }
    let all = ModelSet::all(n);
    let candidates = constraint.unwrap_or(&all);
    let best = candidates
        .iter()
        .map(|i| max_dissatisfaction(sources, i))
        .min();
    let consensus = match best {
        None => ModelSet::empty(n),
        Some(b) => ModelSet::new(
            n,
            candidates
                .iter()
                .filter(|&i| max_dissatisfaction(sources, i) == b),
        ),
    };
    MergeOutcome::evaluate("egalitarian", sources, consensus)
}

/// Majority merge: pick the interpretations minimizing the weight-summed
/// dissatisfaction `Σ_i w_i · min_{J ∈ Mod(ψ_i)} dist(I, J)`.
pub fn merge_majority(sources: &[Source], constraint: Option<&ModelSet>) -> MergeOutcome {
    let n = check_sources(sources);
    if let Some(c) = constraint {
        assert_eq!(c.n_vars(), n, "constraint over a different signature width");
    }
    let all = ModelSet::all(n);
    let candidates = constraint.unwrap_or(&all);
    let best = candidates
        .iter()
        .map(|i| sum_dissatisfaction(sources, i))
        .min();
    let consensus = match best {
        None => ModelSet::empty(n),
        Some(b) => ModelSet::new(
            n,
            candidates
                .iter()
                .filter(|&i| sum_dissatisfaction(sources, i) == b),
        ),
    };
    MergeOutcome::evaluate("majority", sources, consensus)
}

/// The paper-faithful weighted merge: join every source's weighted KB
/// (each model carries its source's weight) and fit the weighted universe
/// to it — N-ary weighted arbitration exactly as in Section 4.
///
/// Note the difference from [`merge_majority`]: here each *model* of a
/// source is a separate voice (a source claiming two possible worlds pulls
/// twice), whereas `merge_majority` scores each source by its closest
/// model only.
///
/// The fit is the per-bit weighted majority of the join, in closed form:
/// the universe is never materialized. Panics past
/// [`arbitrex_logic::ENUM_LIMIT`] variables.
pub fn merge_weighted_arbitration(sources: &[Source]) -> MergeOutcome {
    merge_weighted_arbitration_with_budget(sources, &Budget::unlimited()).outcome
}

/// Every source's weighted KB joined into one `⊔`.
fn join_sources(sources: &[Source]) -> WeightedKb {
    let n = check_sources(sources);
    sources
        .iter()
        .map(Source::to_weighted_kb)
        .fold(WeightedKb::unsatisfiable(n), |acc, kb| acc.join(&kb))
}

/// A [`MergeOutcome`] together with the budget accounting of the run that
/// produced it — the merge-level view of the containment contract of
/// [`arbitrex_core::Quality`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetedMergeOutcome {
    /// The (possibly degraded) merge outcome. Under
    /// [`Quality::UpperBound`] the consensus is a *superset* of the exact
    /// one; under [`Quality::Interrupted`] it carries no containment
    /// guarantee.
    pub outcome: MergeOutcome,
    /// The containment contract the consensus satisfies.
    pub quality: Quality,
    /// Work charged to the budget, including the trip record.
    pub spent: BudgetSpent,
}

/// [`merge_weighted_arbitration`] under a [`Budget`]: the weighted fitting
/// degrades gracefully on exhaustion instead of running to completion.
/// With an unconstrained budget the consensus is bit-identical to the
/// unbudgeted merge.
pub fn merge_weighted_arbitration_with_budget(
    sources: &[Source],
    budget: &Budget,
) -> BudgetedMergeOutcome {
    // invariant: deliberate documented panic — merges are infallible and
    // enumeration-bound, like the rest of this module.
    let fitted = WdistFitting
        .apply_universe(&join_sources(sources), budget)
        .expect("merge signature exceeds ENUM_LIMIT");
    BudgetedMergeOutcome {
        outcome: MergeOutcome::evaluate("weighted-arbitration", sources, fitted.kb.support_set()),
        quality: fitted.quality,
        spent: fitted.spent,
    }
}

/// Fold the paper's binary arbitration left-to-right over the sources.
/// Commutative pairwise, but **not** associative — the outcome can depend
/// on the fold order (measured in experiment E10).
pub fn merge_fold_arbitration(sources: &[Source]) -> MergeOutcome {
    let _ = check_sources(sources);
    let consensus = sources[1..]
        .iter()
        .fold(sources[0].models.clone(), |acc, s| {
            arbitrate(&acc, &s.models)
        });
    MergeOutcome::evaluate("fold-arbitration", sources, consensus)
}

/// Fold Dalal revision left-to-right: later sources override earlier ones
/// — the "prosecutor orders the witnesses by reliability" regime.
pub fn merge_fold_revision(sources: &[Source]) -> MergeOutcome {
    let _ = check_sources(sources);
    let consensus = sources[1..]
        .iter()
        .fold(sources[0].models.clone(), |acc, s| {
            DalalRevision.apply(&acc, &s.models)
        });
    MergeOutcome::evaluate("fold-revision", sources, consensus)
}

/// Fold Winslett update left-to-right: later sources describe a *changed
/// world* — the chronological-witnesses regime.
pub fn merge_fold_update(sources: &[Source]) -> MergeOutcome {
    let _ = check_sources(sources);
    let consensus = sources[1..]
        .iter()
        .fold(sources[0].models.clone(), |acc, s| {
            WinslettUpdate.apply(&acc, &s.models)
        });
    MergeOutcome::evaluate("fold-update", sources, consensus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitrex_logic::Interp;

    fn src(name: &str, bits: &[u64], w: u64) -> Source {
        Source::weighted(name, ModelSet::new(2, bits.iter().map(|&b| Interp(b))), w)
    }

    #[test]
    fn egalitarian_merge_minimizes_worst_case() {
        // Corner voices ∅ and {a,b}: consensus = the two middles (max 1).
        let sources = vec![src("s1", &[0b00], 1), src("s2", &[0b11], 1)];
        let out = merge_egalitarian(&sources, None);
        assert_eq!(
            out.consensus,
            ModelSet::new(2, [Interp(0b01), Interp(0b10)])
        );
        assert_eq!(out.egalitarian_cost, Some(1));
    }

    #[test]
    fn majority_merge_respects_weights() {
        // 9 voices at {a}, 2 at {b}: the majority wins outright.
        let sources = vec![src("nine", &[0b01], 9), src("two", &[0b10], 2)];
        let out = merge_majority(&sources, None);
        assert_eq!(out.consensus.as_singleton(), Some(Interp(0b01)));
        assert_eq!(out.majority_cost, Some(2 * 2));
        // Egalitarian ignores the weights: symmetric compromise.
        let eg = merge_egalitarian(&sources, None);
        assert_eq!(eg.consensus, ModelSet::new(2, [Interp(0b00), Interp(0b11)]));
    }

    #[test]
    fn budgeted_weighted_merge_matches_and_degrades() {
        use arbitrex_core::{BudgetSite, FaultPlan};
        let sources = vec![src("nine", &[0b01], 9), src("two", &[0b10], 2)];
        let exact = merge_weighted_arbitration(&sources);
        let out = merge_weighted_arbitration_with_budget(&sources, &Budget::unlimited());
        assert_eq!(out.quality, Quality::Exact);
        assert_eq!(out.outcome.consensus, exact.consensus);
        // Tripped on the first scan tick: every exact consensus model must
        // survive into the over-approximation.
        let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Scan, 1));
        let degraded = merge_weighted_arbitration_with_budget(&sources, &budget);
        assert_eq!(degraded.quality, Quality::UpperBound);
        assert!(degraded.spent.trip.is_some());
        for m in exact.consensus.iter() {
            assert!(degraded.outcome.consensus.contains(m));
        }
    }

    #[test]
    fn weighted_merge_matches_the_materialized_universe_fit() {
        use arbitrex_core::WeightedChangeOperator;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x3e26e);
        for case in 0..200 {
            let n = rng.random_range(0..=10u32);
            let sources: Vec<Source> = (0..rng.random_range(1..5))
                .map(|k| {
                    let count = rng.random_range(1..6);
                    let models: Vec<Interp> = (0..count)
                        .map(|_| Interp(rng.random_range(0..1u64 << n)))
                        .collect();
                    let weight = rng.random_range(1..20);
                    Source::weighted(format!("s{k}"), ModelSet::new(n, models), weight)
                })
                .collect();
            let joined = join_sources(&sources);
            let materialized = WdistFitting.apply(&joined, &WeightedKb::all(n));
            let merged = merge_weighted_arbitration(&sources);
            assert_eq!(
                merged.consensus,
                materialized.support_set(),
                "case {case}, n = {n}"
            );
        }
    }

    #[test]
    fn weighted_arbitration_matches_majority_on_singleton_sources() {
        // When every source claims a single world, per-model and per-source
        // voices coincide.
        let sources = vec![src("nine", &[0b01], 9), src("two", &[0b10], 2)];
        let wa = merge_weighted_arbitration(&sources);
        let mj = merge_majority(&sources, None);
        assert_eq!(wa.consensus, mj.consensus);
    }

    #[test]
    fn constraint_restricts_candidates() {
        let sources = vec![src("s1", &[0b00], 1), src("s2", &[0b11], 1)];
        let constraint = ModelSet::new(2, [Interp(0b00), Interp(0b11)]);
        let out = merge_egalitarian(&sources, Some(&constraint));
        // Forced to pick among the corners: both tie at max 2.
        assert_eq!(out.consensus, constraint);
    }

    #[test]
    fn fold_revision_is_order_sensitive() {
        let a = src("a", &[0b00], 1);
        let b = src("b", &[0b01], 1);
        let c = src("c", &[0b11], 1);
        let fwd = merge_fold_revision(&[a.clone(), b.clone(), c.clone()]);
        let rev = merge_fold_revision(&[c, b, a]);
        // Last source always wins under revision.
        assert_eq!(fwd.consensus.as_singleton(), Some(Interp(0b11)));
        assert_eq!(rev.consensus.as_singleton(), Some(Interp(0b00)));
        assert_ne!(fwd.consensus, rev.consensus);
    }

    #[test]
    fn fold_arbitration_beats_fold_revision_on_egalitarian_cost() {
        let sources = vec![src("s1", &[0b00], 1), src("s2", &[0b11], 1)];
        let arb = merge_fold_arbitration(&sources);
        let rev = merge_fold_revision(&sources);
        assert!(arb.egalitarian_cost.unwrap() <= rev.egalitarian_cost.unwrap());
    }

    #[test]
    fn egalitarian_merge_achieves_the_optimal_objective() {
        // The semantic merge is optimal for its own objective by
        // construction; folds can only tie or lose.
        let sources = vec![
            src("s1", &[0b00], 1),
            src("s2", &[0b11], 1),
            src("s3", &[0b01], 1),
        ];
        let opt = merge_egalitarian(&sources, None).egalitarian_cost.unwrap();
        for outcome in [
            merge_fold_arbitration(&sources),
            merge_fold_revision(&sources),
            merge_fold_update(&sources),
        ] {
            assert!(
                outcome.egalitarian_cost.unwrap_or(u32::MAX) >= opt,
                "{} beat the optimum",
                outcome.strategy
            );
        }
    }

    #[test]
    fn single_source_merges_to_itself() {
        let s = src("only", &[0b01, 0b10], 1);
        for out in [
            merge_egalitarian(std::slice::from_ref(&s), None),
            merge_majority(std::slice::from_ref(&s), None),
            merge_fold_arbitration(std::slice::from_ref(&s)),
            merge_fold_revision(std::slice::from_ref(&s)),
            merge_fold_update(std::slice::from_ref(&s)),
        ] {
            assert!(
                out.consensus.implies(&s.models) || s.models.implies(&out.consensus),
                "{} produced an unrelated consensus",
                out.strategy
            );
        }
        // The semantic merges return exactly the source's models.
        assert_eq!(
            merge_egalitarian(std::slice::from_ref(&s), None).consensus,
            s.models
        );
    }

    #[test]
    #[should_panic(expected = "different signature width")]
    fn mismatched_constraint_width_panics() {
        let sources = vec![src("s1", &[0b00], 1)];
        let constraint = ModelSet::all(3);
        merge_egalitarian(&sources, Some(&constraint));
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_source_list_panics() {
        merge_egalitarian(&[], None);
    }

    #[test]
    #[should_panic(expected = "different signatures")]
    fn mixed_signatures_panic() {
        let a = src("a", &[0b00], 1);
        let b = Source::new("b", ModelSet::new(3, [Interp(0)]));
        merge_majority(&[a, b], None);
    }
}
