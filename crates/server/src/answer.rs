//! Answer bodies written straight from the model bits.
//!
//! An operator's answer is a model set; its response lists the models by
//! name (up to [`MAX_LISTED_MODELS`]) and states `form(I₁,…,I_k)`, both of
//! which follow from the interpretations' bits and the signature's names.
//! [`AnswerWriter`] appends one JSON object field by field into the
//! response `String`: each name is escaped once per response, a model list
//! walks the set bits, and the formula text comes from
//! [`ModelSet::write_form`] with no `Formula` built. The bytes are
//! those the `Json`-tree encoder produced (`tests/golden_responses.rs`
//! pins them).

use std::borrow::Cow;
use std::fmt::Write as _;

use arbitrex_core::{BudgetSpent, Outcome, Quality};
use arbitrex_logic::{Interp, ModelSet, Sig};

use crate::json;
use crate::routes::MAX_LISTED_MODELS;

/// The response's `backend` field: every answer is computed by the
/// kernel. Clients that label work by the path that answered read it.
const BACKEND: &str = "kernel";

/// One response object under construction: fields are appended in call
/// order, keys are written verbatim (they are fixed ASCII), and string
/// values are escaped.
pub struct AnswerWriter<'a> {
    out: String,
    /// The signature's names, escaped for a JSON string, by variable.
    names: Vec<Cow<'a, str>>,
}

impl<'a> AnswerWriter<'a> {
    /// Open an object whose models are named by `sig`.
    pub fn new(sig: &'a Sig) -> AnswerWriter<'a> {
        AnswerWriter {
            out: String::from("{"),
            names: sig.iter().map(|(_, name)| json::escaped(name)).collect(),
        }
    }

    fn key(&mut self, key: &str) {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
    }

    /// A string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        json::write_escaped(&mut self.out, value);
        self
    }

    /// An integer field.
    pub fn num(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// An integer field, `null` when absent.
    pub fn opt_num(mut self, key: &str, value: Option<u64>) -> Self {
        match value {
            Some(value) => self.num(key, value),
            None => {
                self.key(key);
                self.out.push_str("null");
                self
            }
        }
    }

    /// A boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// `quality` and `backend`: how the answer was produced.
    pub fn provenance(self, quality: Quality) -> Self {
        self.str("quality", quality.name()).str("backend", BACKEND)
    }

    /// The answer itself: `n_vars`, `n_models`, `models` (up to
    /// [`MAX_LISTED_MODELS`]), `models_truncated`, `formula` and `spent`.
    pub fn answer(mut self, models: &ModelSet, spent: &BudgetSpent) -> Self {
        self.reserve(models);
        let listed = models.len().min(MAX_LISTED_MODELS);
        self = self
            .num("n_vars", models.n_vars() as u64)
            .num("n_models", models.len() as u64);
        self.key("models");
        self.out.push('[');
        for (k, i) in models.iter().take(listed).enumerate() {
            if k > 0 {
                self.out.push(',');
            }
            self.model(i);
        }
        self.out.push(']');
        self.bool("models_truncated", models.len() > listed)
            .formula(models)
            .spent(spent)
    }

    /// [`AnswerWriter::provenance`] then [`AnswerWriter::answer`] for one
    /// operator outcome.
    pub fn outcome(self, outcome: &Outcome) -> Self {
        self.provenance(outcome.quality)
            .answer(&outcome.models, &outcome.spent)
    }

    /// `formula`: the text of `form(I₁,…,I_k)` for `models`.
    pub fn formula(mut self, models: &ModelSet) -> Self {
        self.key("formula");
        self.out.push('"');
        // The connectives, `!`, `true`, `false` and the `v{i}` fallback
        // need no escape; the names are escaped already.
        models.write_form(&self.names, &mut self.out);
        self.out.push('"');
        self
    }

    /// `support`: up to [`MAX_LISTED_MODELS`] `{"model": [...], "weight":
    /// w}` entries, and `support_truncated`.
    pub fn support(
        mut self,
        support: impl Iterator<Item = (Interp, u64)>,
        support_size: usize,
    ) -> Self {
        self.key("support");
        self.out.push('[');
        for (k, (i, weight)) in support.take(MAX_LISTED_MODELS).enumerate() {
            if k > 0 {
                self.out.push(',');
            }
            self.out.push_str("{\"model\":");
            self.model(i);
            let _ = write!(self.out, ",\"weight\":{weight}}}");
        }
        self.out.push(']');
        self.bool("support_truncated", support_size > MAX_LISTED_MODELS)
    }

    /// `spent`: the work the budget was charged.
    pub fn spent(mut self, spent: &BudgetSpent) -> Self {
        self.key("spent");
        let _ = write!(
            self.out,
            "{{\"scans\":{},\"nodes\":{},\"conflicts\":{},\"models\":{},\"ladder_steps\":{},\"tripped\":{}",
            spent.scans,
            spent.nodes,
            spent.conflicts,
            spent.models,
            spent.ladder_steps,
            spent.trip.is_some(),
        );
        if let Some(trip) = spent.trip {
            self.out.push_str(",\"trip_reason\":");
            json::write_escaped(&mut self.out, trip.reason.name());
        }
        self.out.push('}');
        self
    }

    /// Close the object and hand back its text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }

    /// One model as the array of its true variables' names.
    fn model(&mut self, i: Interp) {
        self.out.push('[');
        let mut bits = i.0;
        let mut first = true;
        while bits != 0 {
            let k = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            // Variables past the signature have no name to list.
            let Some(name) = self.names.get(k) else { break };
            if !first {
                self.out.push(',');
            }
            first = false;
            self.out.push('"');
            self.out.push_str(name);
            self.out.push('"');
        }
        self.out.push(']');
    }

    /// Grow the buffer once for the lists and the formula of `models`.
    fn reserve(&mut self, models: &ModelSet) {
        let n = models.n_vars() as usize;
        let names: usize = self.names.iter().map(|name| name.len()).sum();
        let listed = models.len().min(MAX_LISTED_MODELS);
        self.out
            .reserve(256 + listed * (names + 3 * n + 2) + models.len() * (names + 4 * n + 3));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{n, obj, s, Json};
    use arbitrex_core::{BudgetSite, Exhausted, TripReason};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The `Json`-tree encoding the writer replaced, as the oracle.
    fn tree(endpoint: &str, sig: &Sig, outcome: &Outcome) -> String {
        let names = |i: Interp| {
            Json::Arr(
                sig.iter()
                    .filter(|(v, _)| i.get(*v))
                    .map(|(_, name)| s(name))
                    .collect(),
            )
        };
        let spent = &outcome.spent;
        let mut spent_members = vec![
            ("scans", n(spent.scans)),
            ("nodes", n(spent.nodes)),
            ("conflicts", n(spent.conflicts)),
            ("models", n(spent.models)),
            ("ladder_steps", n(spent.ladder_steps)),
            ("tripped", Json::Bool(spent.trip.is_some())),
        ];
        if let Some(trip) = spent.trip {
            spent_members.push(("trip_reason", s(trip.reason.name())));
        }
        let models = &outcome.models;
        obj([
            ("endpoint", s(endpoint)),
            ("quality", s(outcome.quality.name())),
            ("backend", s(BACKEND)),
            ("n_vars", n(models.n_vars() as u64)),
            ("n_models", n(models.len() as u64)),
            (
                "models",
                Json::Arr(models.iter().take(MAX_LISTED_MODELS).map(names).collect()),
            ),
            (
                "models_truncated",
                Json::Bool(models.len() > MAX_LISTED_MODELS),
            ),
            ("formula", s(models.to_formula().display(sig).to_string())),
            ("spent", obj(spent_members)),
        ])
        .to_text()
    }

    #[test]
    fn writer_matches_the_tree_encoding() {
        let mut rng = StdRng::seed_from_u64(20);
        let odd_names = [
            "A",
            "x_1'",
            "quote\"d",
            "back\\slash",
            "tab\there",
            "caf\u{e9}",
        ];
        let qualities = [Quality::Exact, Quality::UpperBound, Quality::Interrupted];
        for n_vars in 0..=10u32 {
            let mut sig = Sig::new();
            for k in 0..n_vars {
                sig.var(&format!("{}{k}", odd_names[k as usize % odd_names.len()]));
            }
            for round in 0..12 {
                let count = match round {
                    0 => 0,
                    1 => 1usize << n_vars,
                    _ => rng.random_range(1..=300),
                };
                let full = (1u64 << n_vars) - 1;
                let models = ModelSet::new(
                    n_vars,
                    (0..count).map(|_| Interp(rng.random::<u64>() & full)),
                );
                let spent = BudgetSpent {
                    scans: rng.random_range(0..1 << 20),
                    nodes: rng.random_range(0..100),
                    trip: (round % 3 == 0).then_some(Exhausted {
                        site: BudgetSite::Scan,
                        reason: TripReason::Deadline,
                    }),
                    ..BudgetSpent::default()
                };
                let outcome = Outcome {
                    models,
                    quality: qualities[round % 3],
                    spent,
                };
                let written = AnswerWriter::new(&sig)
                    .str("endpoint", "arbitrate")
                    .outcome(&outcome)
                    .finish();
                assert_eq!(written, tree("arbitrate", &sig, &outcome));
            }
        }
    }

    #[test]
    fn scalar_fields_match_the_tree_encoding() {
        let sig = Sig::new();
        let written = AnswerWriter::new(&sig)
            .str("s", "a\"b\n")
            .num("n", 9_007_199_254_740_991)
            .opt_num("none", None)
            .opt_num("some", Some(0))
            .bool("t", true)
            .bool("f", false)
            .finish();
        let tree = obj([
            ("s", s("a\"b\n")),
            ("n", n(9_007_199_254_740_991)),
            ("none", Json::Null),
            ("some", n(0)),
            ("t", Json::Bool(true)),
            ("f", Json::Bool(false)),
        ]);
        assert_eq!(written, tree.to_text());
        assert_eq!(AnswerWriter::new(&sig).finish(), "{}");
    }
}
