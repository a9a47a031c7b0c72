//! Answer checks against the in-tree naive oracles
//! (`arbitrex_core::kernel::naive`) over `ModelSet::of_formula`.

use std::collections::HashMap;

use arbitrex_core::kernel::naive;
use arbitrex_logic::{parse, Interp, ModelSet, Sig};
use arbitrex_server::json::{self, Json};

use crate::workload::{var_names, FitOp, Kind, Request, KB_COUNT, KB_WIDTH};

/// Most models the server lists verbatim (`routes::MAX_LISTED_MODELS`).
const MAX_LISTED: usize = 256;

fn parse_json(bytes: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "response is not UTF-8".to_string())?;
    json::parse(text).map_err(|e| format!("response is not JSON: {e}"))
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

/// Checks `/v1/arbitrate` and `/v1/fit` answers.
#[derive(Default)]
pub struct QueryOracle {
    /// `Mod(ψ)` by `ψ` text: `ψ` is parsed first into a fresh signature,
    /// so its variable numbering depends on its text alone.
    psi_models: HashMap<String, ModelSet>,
}

impl QueryOracle {
    /// Check one query answer: `n_models` and every listed model must equal
    /// the naive operator's result.
    pub fn check(&mut self, req: &Request, response: &[u8]) -> Result<(), String> {
        let body = json::parse(req.body.as_deref().unwrap_or_default())
            .map_err(|e| format!("request body: {e}"))?;
        let psi_text = field(&body, "psi")?;
        let other_key = if matches!(req.kind, Kind::Fit(_)) {
            "mu"
        } else {
            "phi"
        };
        let mut sig = Sig::new();
        let psi = parse(&mut sig, psi_text).map_err(|e| e.to_string())?;
        let other = parse(&mut sig, field(&body, other_key)?).map_err(|e| e.to_string())?;
        let n = sig.width();
        let mp = self
            .psi_models
            .entry(psi_text.to_string())
            .or_insert_with(|| ModelSet::of_formula(&psi, n))
            .clone();
        let mo = ModelSet::of_formula(&other, n);
        let expected = match req.kind {
            Kind::Arbitrate => naive::arbitrate(&mp, &mo),
            Kind::Fit(FitOp::Odist) => naive::odist_fitting(&mp, &mo),
            Kind::Fit(FitOp::Dalal) => naive::dalal_revision(&mp, &mo),
            _ => return Err("not a query request".to_string()),
        };
        let answer = parse_json(response)?;
        let n_models = answer.get("n_models").and_then(Json::as_u64);
        if n_models != Some(expected.len() as u64) {
            return Err(format!(
                "{} {psi_text} / {}: n_models {n_models:?}, oracle {}",
                req.path,
                field(&body, other_key)?,
                expected.len()
            ));
        }
        let listed = listed_models(&answer, &sig)?;
        let want: Vec<Interp> = expected.iter().take(MAX_LISTED).collect();
        if listed != want {
            return Err(format!(
                "{} {psi_text}: listed models differ from the oracle",
                req.path
            ));
        }
        Ok(())
    }
}

/// The `models` array of an answer, as interpretations over `sig`.
fn listed_models(answer: &Json, sig: &Sig) -> Result<Vec<Interp>, String> {
    let models = answer
        .get("models")
        .and_then(Json::as_array)
        .ok_or("missing `models`")?;
    let mut out = Vec::with_capacity(models.len());
    for model in models {
        let mut bits = 0u64;
        for name in model.as_array().ok_or("a model is not an array")? {
            let name = name.as_str().ok_or("a model atom is not a string")?;
            let var = sig
                .get(name)
                .ok_or_else(|| format!("unknown atom `{name}`"))?;
            bits |= 1 << var.index();
        }
        out.push(Interp(bits));
    }
    out.sort();
    Ok(out)
}

/// One acknowledged KB commit.
struct Commit {
    seq: u64,
    /// The new theory of a `put`, or the new information of a `fit`.
    input: ModelSet,
    is_put: bool,
    /// The theory the server says it committed.
    answer: ModelSet,
}

/// Every acknowledged `kb-mixed` commit and read, replayed at the end
/// against the naive odist-fitting oracle.
pub struct KbLedger {
    commits: Vec<Vec<Commit>>,
    reads: Vec<Vec<(u64, ModelSet)>>,
    models: HashMap<String, ModelSet>,
}

impl Default for KbLedger {
    fn default() -> KbLedger {
        KbLedger {
            commits: (0..KB_COUNT).map(|_| Vec::new()).collect(),
            reads: (0..KB_COUNT).map(|_| Vec::new()).collect(),
            models: HashMap::new(),
        }
    }
}

impl KbLedger {
    /// `Mod(formula)` over the KB signature `v0..v9`.
    fn models_of(&mut self, text: &str) -> Result<ModelSet, String> {
        if let Some(m) = self.models.get(text) {
            return Ok(m.clone());
        }
        let mut sig = Sig::new();
        for name in var_names(KB_WIDTH) {
            sig.var(&name);
        }
        let f = parse(&mut sig, text).map_err(|e| format!("`{text}`: {e}"))?;
        if sig.width() != KB_WIDTH {
            return Err(format!("`{text}` leaves the KB signature"));
        }
        let m = ModelSet::of_formula(&f, KB_WIDTH);
        self.models.insert(text.to_string(), m.clone());
        Ok(m)
    }

    /// Record an acknowledged (2xx) KB response to `req`.
    pub fn record(&mut self, req: &Request, response: &[u8]) -> Result<(), String> {
        let answer = parse_json(response)?;
        let seq = answer
            .get("seq")
            .and_then(Json::as_u64)
            .ok_or("KB answer without `seq`")?;
        let state = self.models_of(field(&answer, "formula")?)?;
        match req.kind {
            Kind::KbGet(kb) => self.reads[kb].push((seq, state)),
            Kind::KbPut(kb) | Kind::KbFit(kb) => {
                let body = json::parse(req.body.as_deref().unwrap_or_default())
                    .map_err(|e| format!("request body: {e}"))?;
                let input = self.models_of(field(&body, "formula")?)?;
                if matches!(req.kind, Kind::KbFit(_))
                    && answer.get("committed").and_then(Json::as_bool) != Some(true)
                {
                    return Err(format!("{}: fit acknowledged without a commit", req.path));
                }
                self.commits[kb].push(Commit {
                    seq,
                    input,
                    is_put: matches!(req.kind, Kind::KbPut(_)),
                    answer: state,
                });
            }
            _ => return Err("not a KB request".to_string()),
        }
        Ok(())
    }

    /// Replay every KB's commits in `seq` order with the oracle. Every
    /// acknowledged theory and every read must match the replayed state at
    /// its `seq`. Returns each KB's final `(seq, theory)`.
    pub fn verify(&mut self) -> Result<Vec<(u64, ModelSet)>, Vec<String>> {
        let mut errors = Vec::new();
        let mut finals = Vec::with_capacity(KB_COUNT);
        for kb in 0..KB_COUNT {
            let commits = &mut self.commits[kb];
            commits.sort_by_key(|c| c.seq);
            let mut states: Vec<ModelSet> = Vec::with_capacity(commits.len());
            for (i, c) in commits.iter().enumerate() {
                if c.seq != i as u64 + 1 {
                    errors.push(format!(
                        "kb{kb:03}: acknowledged seqs skip or repeat at {}",
                        c.seq
                    ));
                    break;
                }
                let next = match states.last() {
                    _ if c.is_put => c.input.clone(),
                    Some(prev) => naive::odist_fitting(prev, &c.input),
                    None => {
                        errors.push(format!("kb{kb:03}: fit before the KB exists"));
                        break;
                    }
                };
                if next != c.answer {
                    errors.push(format!(
                        "kb{kb:03}: seq {} commits a theory the oracle does not",
                        c.seq
                    ));
                }
                states.push(next);
            }
            for (seq, seen) in &self.reads[kb] {
                match states.get((*seq as usize).wrapping_sub(1)) {
                    Some(state) if state == seen => {}
                    _ => errors.push(format!(
                        "kb{kb:03}: read at seq {seq} disagrees with the oracle"
                    )),
                }
            }
            let last = states
                .last()
                .cloned()
                .unwrap_or_else(|| ModelSet::empty(KB_WIDTH));
            finals.push((states.len() as u64, last));
        }
        if errors.is_empty() {
            Ok(finals)
        } else {
            Err(errors)
        }
    }

    /// Check a post-restart read of `kb` against its final replayed state.
    pub fn check_survived(
        &mut self,
        kb: usize,
        expected: &(u64, ModelSet),
        response: &[u8],
    ) -> Result<(), String> {
        let answer = parse_json(response)?;
        let seq = answer.get("seq").and_then(Json::as_u64);
        let state = self.models_of(field(&answer, "formula")?)?;
        if seq != Some(expected.0) || state != expected.1 {
            return Err(format!(
                "kb{kb:03}: after kill -9 and restart reads seq {seq:?}, acknowledged seq {}",
                expected.0
            ));
        }
        Ok(())
    }
}
