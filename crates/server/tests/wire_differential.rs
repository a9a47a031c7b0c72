//! Wire-level differential suite: every model-returning query route,
//! driven over a real socket, against the naive oracles.
//!
//! A seeded stream of queries goes to `/v1/arbitrate`, `/v1/fit` (every
//! budgeted operator), `/v1/warbitrate` and the KB `arbitrate`, `fit`
//! and `iterate` actions. Each answer's models are checked against
//! `kernel::naive` over `ModelSet::of_formula` of the texts sent, read
//! with the names the server interns (first occurrence, `psi` before
//! `phi`). The answer's `formula` text is parsed back and must have the
//! same models. The stream holds:
//!
//! * texts the cube-cover reader takes (minterm DNFs) and texts it
//!   declines (`→`, `↔`, `⊕`, nested negations);
//! * random renamings, `∧`/`∨` shuffles and equivalent rewrites (`¬¬f`,
//!   a tautological conjunct, a duplicated disjunct) of a few base
//!   queries, including model sets whose variables are hard to tell
//!   apart, such as `{1100, 0011}`;
//! * the same queries with their sides (and weights) swapped.
//!
//! A query wider than the enumeration limit draws the same 400 text on
//! every route.

use arbitrex_core::kernel::naive;
use arbitrex_core::{budgeted_operator_names, WeightedKb};
use arbitrex_logic::random::FormulaGen;
use arbitrex_logic::{
    form_of, parse, read_cover, rename_formula, Formula, Interp, ModelSet, Sig, Var, ENUM_LIMIT,
};
use arbitrex_server::json::{self, Json};
use arbitrex_server::{spawn, RunningServer, ServerConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};

mod common;
use common::{num_of, str_of, Client};

fn server() -> RunningServer {
    spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        queue_depth: 16,
        timeout_ms: 0,
        ..ServerConfig::default()
    })
    .expect("spawn server")
}

// --- query generators ---------------------------------------------------------

/// Fisher–Yates.
fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.random_range(0..=i));
    }
}

/// `f` with the children of every `∧`/`∨` shuffled, built without the
/// flattening smart constructors so the tree keeps its shape.
fn shuffle_children(f: &Formula, rng: &mut StdRng) -> Formula {
    match f {
        Formula::Not(g) => Formula::Not(Box::new(shuffle_children(g, rng))),
        Formula::And(gs) | Formula::Or(gs) => {
            let mut kids: Vec<Formula> = gs.iter().map(|g| shuffle_children(g, rng)).collect();
            shuffle(&mut kids, rng);
            if matches!(f, Formula::And(_)) {
                Formula::And(kids)
            } else {
                Formula::Or(kids)
            }
        }
        other => other.clone(),
    }
}

/// `f` rewritten into an equivalent formula over `n` variables.
fn rewrite(f: Formula, n: u32, rng: &mut StdRng) -> Formula {
    match rng.random_range(0..4) {
        0 => Formula::Not(Box::new(Formula::Not(Box::new(f)))),
        1 if n > 0 => {
            let v = Formula::Var(Var(rng.random_range(0..n)));
            let tautology = Formula::Or(vec![v.clone(), Formula::Not(Box::new(v))]);
            Formula::And(vec![f, tautology])
        }
        2 => match f {
            Formula::Or(mut kids) if !kids.is_empty() => {
                let twin = kids[rng.random_range(0..kids.len())].clone();
                kids.push(twin);
                Formula::Or(kids)
            }
            other => Formula::Or(vec![other.clone(), other]),
        },
        _ => f,
    }
}

/// A random permutation of `0..n`.
fn permutation(rng: &mut StdRng, n: u32) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n).collect();
    shuffle(&mut perm, rng);
    perm
}

/// A DNF of `1..=max_minterms` random minterms over `n` variables: a
/// text the cube-cover reader takes.
fn minterm_dnf(rng: &mut StdRng, n: u32, max_minterms: usize) -> Formula {
    let k = rng.random_range(1..=max_minterms);
    form_of(n, (0..k).map(|_| Interp(rng.random_range(0..1u64 << n))))
}

/// A random formula tree over `n` variables, with `→`, `↔` and `⊕`
/// among its connectives: mostly texts the cube-cover reader declines.
fn tree(rng: &mut StdRng, n: u32) -> Formula {
    FormulaGen {
        n_vars: n,
        max_depth: 4,
        leaf_bias: 0.25,
    }
    .sample(rng)
}

fn form(n: u32, bits: &[u64]) -> Formula {
    form_of(n, bits.iter().map(|&b| Interp(b)))
}

/// One query over variables `0..n`: ψ, φ (or μ), and the two source
/// weights.
#[derive(Debug, Clone)]
struct Query {
    n: u32,
    psi: Formula,
    phi: Formula,
    weights: (u64, u64),
}

fn query(n: u32, psi: Formula, phi: Formula, weights: (u64, u64)) -> Query {
    Query {
        n,
        psi,
        phi,
        weights,
    }
}

/// Base queries whose variables are hard to tell apart, plus random
/// ones of both text shapes.
fn bases(rng: &mut StdRng) -> Vec<Query> {
    let mut out = vec![
        query(4, form(4, &[0b1100, 0b0011]), form(4, &[0b1100]), (1, 1)),
        query(
            4,
            form(4, &[0b0011, 0b0110, 0b1100, 0b1001]),
            form(4, &[0b0000]),
            (2, 1),
        ),
        query(
            6,
            form(6, &[0b000011, 0b001100, 0b110000]),
            form(6, &[0b111111]),
            (1, 3),
        ),
        query(
            5,
            form(5, &[0b00011, 0b11000]),
            form(5, &[0b00100, 0b11111]),
            (2, 2),
        ),
        query(3, Formula::True, form(3, &[0b000]), (1, 2)),
    ];
    for i in 0..8 {
        let n = 2 + i % 5;
        let weights = (rng.random_range(1..=3), rng.random_range(1..=3));
        let (psi, phi) = if i % 2 == 0 {
            (minterm_dnf(rng, n, 4), minterm_dnf(rng, n, 3))
        } else {
            (tree(rng, n), tree(rng, n))
        };
        out.push(query(n, psi, phi, weights));
    }
    out
}

/// `q` renamed, rewritten and shuffled; `swap` also swaps the sides and
/// their weights.
fn variant(q: &Query, swap: bool, rng: &mut StdRng) -> Query {
    let perm = permutation(rng, q.n);
    let mut side = |f: &Formula| {
        let f = rewrite(rename_formula(f, &perm), q.n, rng);
        shuffle_children(&f, rng)
    };
    let (psi, phi) = (side(&q.psi), side(&q.phi));
    if swap {
        query(q.n, phi, psi, (q.weights.1, q.weights.0))
    } else {
        query(q.n, psi, phi, q.weights)
    }
}

/// Names the texts draw from: plain, primed, underscored, mixed case.
const NAMES: &[&str] = &[
    "A", "B", "C", "D", "E", "F", "G", "H", "p", "q", "r", "Rain", "Wind", "x1", "y_2", "z'",
];

/// The two sides of `q` as texts, variable `i` named by a fresh random
/// draw from [`NAMES`]: a renaming of its own on top of the variant's.
fn texts(q: &Query, rng: &mut StdRng) -> (String, String) {
    let mut pool = NAMES.to_vec();
    shuffle(&mut pool, rng);
    let mut sig = Sig::new();
    for name in &pool[..q.n as usize] {
        sig.var(name);
    }
    (
        q.psi.display(&sig).to_string(),
        q.phi.display(&sig).to_string(),
    )
}

/// A seeded stream: 70% variants of the bases, the rest fresh queries
/// of either text shape.
fn stream(seed: u64, len: usize) -> Vec<(String, String, (u64, u64))> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bases = bases(&mut rng);
    (0..len)
        .map(|_| {
            let q = if rng.random_bool(0.7) {
                let base = &bases[rng.random_range(0..bases.len())];
                variant(base, rng.random_bool(0.5), &mut rng)
            } else {
                let n = rng.random_range(1..=6u32);
                let (psi, phi) = if rng.random_bool(0.5) {
                    (minterm_dnf(&mut rng, n, 4), minterm_dnf(&mut rng, n, 3))
                } else {
                    (tree(&mut rng, n), tree(&mut rng, n))
                };
                query(
                    n,
                    psi,
                    phi,
                    (rng.random_range(1..=3), rng.random_range(1..=3)),
                )
            };
            let (psi, phi) = texts(&q, &mut rng);
            (psi, phi, q.weights)
        })
        .collect()
}

// --- the oracle side ----------------------------------------------------------

/// The sides as the server reads them: names interned in first-occurrence
/// order, `psi` first, and `Mod` over the joint width.
fn sides(psi: &str, phi: &str) -> (Sig, ModelSet, ModelSet) {
    let mut sig = Sig::new();
    let p = parse(&mut sig, psi).unwrap();
    let f = parse(&mut sig, phi).unwrap();
    let n = sig.width();
    (
        sig,
        ModelSet::of_formula(&p, n),
        ModelSet::of_formula(&f, n),
    )
}

/// One listed model (an array of names) as an interpretation over `sig`.
fn interp(model: &Json, sig: &Sig) -> Interp {
    let names = model.as_array().expect("a model is an array of names");
    Interp(names.iter().fold(0, |bits, name| {
        let name = name.as_str().expect("a name");
        let v = sig
            .get(name)
            .unwrap_or_else(|| panic!("unknown name {name}"));
        bits | 1 << v.0
    }))
}

/// The models of a parsed `formula` field, over `sig`.
fn formula_models(resp: &Json, sig: &Sig) -> ModelSet {
    let mut sig = sig.clone();
    let n = sig.width();
    let f = parse(&mut sig, str_of(resp, "formula")).expect("the formula field parses");
    assert_eq!(sig.width(), n, "the formula names only known variables");
    ModelSet::of_formula(&f, n)
}

/// Check an exact answer's models, listed and as `formula`, against
/// `want`.
fn check_models(resp: &Json, sig: &Sig, want: &ModelSet, what: &str) {
    assert_eq!(str_of(resp, "quality"), "exact", "{what}: {resp:?}");
    assert_eq!(num_of(resp, "n_vars"), u64::from(sig.width()), "{what}");
    assert_eq!(
        resp.get("models_truncated"),
        Some(&Json::Bool(false)),
        "{what}"
    );
    let listed = resp.get("models").and_then(Json::as_array).expect("models");
    let got = ModelSet::new(sig.width(), listed.iter().map(|m| interp(m, sig)));
    assert_eq!(num_of(resp, "n_models"), got.len() as u64, "{what}");
    assert_eq!(&got, want, "{what}: {resp:?}");
    assert_eq!(&formula_models(resp, sig), want, "{what}: formula");
}

/// `models` with every model carrying `weight`.
fn weighted(models: &ModelSet, weight: u64) -> WeightedKb {
    WeightedKb::from_weights(models.n_vars(), models.iter().map(|i| (i, weight)))
}

/// The naive oracle of the budgeted operator `name`.
fn naive_fit(name: &str) -> fn(&ModelSet, &ModelSet) -> ModelSet {
    match name {
        "dalal" => naive::dalal_revision,
        "winslett" => naive::winslett_update,
        "forbus" => naive::forbus_update,
        "odist" => naive::odist_fitting,
        "lex-odist" => naive::lex_odist_fitting,
        "gmax" => naive::gmax_fitting,
        "sum" => naive::sum_fitting,
        other => panic!("no oracle for `{other}`"),
    }
}

fn body(fields: Vec<(&'static str, Json)>) -> String {
    json::obj(fields).to_text()
}

// --- the suites ---------------------------------------------------------------

#[test]
fn stateless_routes_match_the_naive_oracles() {
    let server = server();
    let mut client = Client::connect_server(&server);
    let ops = budgeted_operator_names();
    let mut covers = [0usize; 2];
    for (step, (psi, phi, (wp, wf))) in stream(0x7e57_0001, 300).into_iter().enumerate() {
        let what = |route: &str| format!("step {step} {route}: {psi:?} / {phi:?}");
        let (sig, mp, mf) = sides(&psi, &phi);
        for text in [&psi, &phi] {
            covers[usize::from(read_cover(&mut Sig::new(), text).is_some())] += 1;
        }

        let (status, resp) = client.request(
            "POST",
            "/v1/arbitrate",
            &body(vec![("psi", json::s(&psi)), ("phi", json::s(&phi))]),
        );
        assert_eq!(status, 200, "{}: {resp:?}", what("arbitrate"));
        check_models(&resp, &sig, &naive::arbitrate(&mp, &mf), &what("arbitrate"));

        let op = ops[step % ops.len()];
        let (status, resp) = client.request(
            "POST",
            "/v1/fit",
            &body(vec![
                ("psi", json::s(&psi)),
                ("mu", json::s(&phi)),
                ("op", json::s(op)),
            ]),
        );
        assert_eq!(status, 200, "{}: {resp:?}", what(op));
        check_models(&resp, &sig, &naive_fit(op)(&mp, &mf), &what(op));

        let (status, resp) = client.request(
            "POST",
            "/v1/warbitrate",
            &body(vec![
                ("psi", json::s(&psi)),
                ("phi", json::s(&phi)),
                ("psi_weight", json::n(wp)),
                ("phi_weight", json::n(wf)),
            ]),
        );
        if mp.is_empty() || mf.is_empty() {
            assert_eq!(status, 400, "{}: {resp:?}", what("warbitrate"));
            assert!(str_of(&resp, "error").contains("unsatisfiable"));
            continue;
        }
        assert_eq!(status, 200, "{}: {resp:?}", what("warbitrate"));
        assert_eq!(str_of(&resp, "quality"), "exact");
        let want = naive::warbitrate(&weighted(&mp, wp), &weighted(&mf, wf));
        let support = resp
            .get("support")
            .and_then(Json::as_array)
            .expect("support");
        let got = WeightedKb::from_weights(
            sig.width(),
            support.iter().map(|row| {
                let model = row.get("model").expect("model");
                (interp(model, &sig), num_of(row, "weight"))
            }),
        );
        assert!(got.equivalent(&want), "{}: {resp:?}", what("warbitrate"));
        assert_eq!(num_of(&resp, "support_size"), want.support_size() as u64);
        assert_eq!(num_of(&resp, "total_weight"), want.total_weight() as u64);
    }
    // Both text shapes reached the server: sides the cube-cover reader
    // declined, and sides it took.
    assert!(covers[0] > 100 && covers[1] > 100, "{covers:?}");
    server.stop().unwrap();
}

#[test]
fn every_budgeted_operator_matches_its_oracle_on_one_stream() {
    let server = server();
    let mut client = Client::connect_server(&server);
    for (step, (psi, mu, _)) in stream(0x7e57_0002, 60).into_iter().enumerate() {
        let (sig, mp, mm) = sides(&psi, &mu);
        for op in budgeted_operator_names() {
            let what = format!("step {step} {op}: {psi:?} / {mu:?}");
            let (status, resp) = client.request(
                "POST",
                "/v1/fit",
                &body(vec![
                    ("psi", json::s(&psi)),
                    ("mu", json::s(&mu)),
                    ("op", json::s(op)),
                ]),
            );
            assert_eq!(status, 200, "{what}: {resp:?}");
            assert_eq!(str_of(&resp, "op"), op);
            check_models(&resp, &sig, &naive_fit(op)(&mp, &mm), &what);
        }
    }
    server.stop().unwrap();
}

#[test]
fn kb_actions_match_the_naive_oracles() {
    let server = server();
    let mut client = Client::connect_server(&server);
    let ops = budgeted_operator_names();
    for (step, (psi, mu, _)) in stream(0x7e57_0003, 150).into_iter().enumerate() {
        let (sig, mp, mm) = sides(&psi, &mu);
        let action = ["arbitrate", "fit", "iterate"][step % 3];
        let op = ops[(step / 3) % ops.len()];
        let what = format!("step {step} kb {action} {op}: {psi:?} / {mu:?}");

        let put = body(vec![("action", json::s("put")), ("formula", json::s(&psi))]);
        let (status, resp) = client.request("POST", "/v1/kb/wire", &put);
        assert_eq!(status, 200, "{what}: {resp:?}");
        let seq = num_of(&resp, "seq");

        let mut fields = vec![("action", json::s(action)), ("formula", json::s(&mu))];
        if action != "arbitrate" {
            fields.push(("op", json::s(op)));
        }
        if action == "iterate" {
            fields.push(("max_steps", json::n(16)));
        }
        let (status, resp) = client.request("POST", "/v1/kb/wire", &body(fields));
        assert_eq!(status, 200, "{what}: {resp:?}");
        assert_eq!(num_of(&resp, "seq"), seq + 1, "{what}");

        match action {
            "arbitrate" | "fit" => {
                let want = if action == "arbitrate" {
                    naive::arbitrate(&mp, &mm)
                } else {
                    naive_fit(op)(&mp, &mm)
                };
                assert_eq!(resp.get("committed"), Some(&Json::Bool(true)), "{what}");
                check_models(&resp, &sig, &want, &what);
            }
            _ => {
                // ψ ← op(ψ, μ) until a state recurs or 16 steps pass.
                let step_fn = naive_fit(op);
                let mut trajectory = vec![mp.clone()];
                let mut period = None;
                for _ in 0..16 {
                    let next = step_fn(trajectory.last().unwrap(), &mm);
                    let seen = trajectory.iter().position(|s| *s == next);
                    trajectory.push(next);
                    if let Some(start) = seen {
                        period = Some(trajectory.len() as u64 - 1 - start as u64);
                        break;
                    }
                }
                let last = trajectory.last().unwrap();
                assert_eq!(
                    num_of(&resp, "steps"),
                    trajectory.len() as u64 - 1,
                    "{what}"
                );
                assert_eq!(resp.get("period").and_then(Json::as_u64), period, "{what}");
                assert_eq!(num_of(&resp, "n_models"), last.len() as u64, "{what}");
                assert_eq!(&formula_models(&resp, &sig), last, "{what}");
            }
        }
    }
    server.stop().unwrap();
}

#[test]
fn a_query_past_the_enumeration_limit_draws_the_same_400_everywhere() {
    let server = server();
    let mut client = Client::connect_server(&server);
    let n = ENUM_LIMIT + 1;
    let wide: Vec<String> = (0..n).map(|i| format!("W{i}")).collect();
    let wide = wide.join(" & ");
    let expected = |n: u32| format!("{n} variables exceed the enumeration limit of {ENUM_LIMIT}");
    let check = |(status, resp): (u16, Json), n: u32, what: &str| {
        assert_eq!(status, 400, "{what}: {resp:?}");
        assert_eq!(str_of(&resp, "error"), expected(n), "{what}");
    };

    for (path, other) in [
        ("/v1/arbitrate", "phi"),
        ("/v1/fit", "mu"),
        ("/v1/warbitrate", "phi"),
    ] {
        for (wide_key, narrow_key) in [("psi", other), (other, "psi")] {
            let request = body(vec![
                (wide_key, json::s(&wide)),
                (narrow_key, json::s("W0")),
            ]);
            let reply = client.request("POST", path, &request);
            check(reply, n, &format!("{path} with a wide `{wide_key}`"));
        }
    }
    for op in budgeted_operator_names() {
        let request = body(vec![
            ("psi", json::s(&wide)),
            ("mu", json::s("W0")),
            ("op", json::s(op)),
        ]);
        check(client.request("POST", "/v1/fit", &request), n, op);
    }

    // A KB over one variable widens past the limit with the query's.
    let put = body(vec![("action", json::s("put")), ("formula", json::s("K"))]);
    let (status, _) = client.request("POST", "/v1/kb/narrow", &put);
    assert_eq!(status, 200);
    for action in ["arbitrate", "fit", "iterate"] {
        let request = body(vec![
            ("action", json::s(action)),
            ("formula", json::s(&wide)),
        ]);
        let reply = client.request("POST", "/v1/kb/narrow", &request);
        check(reply, n + 1, &format!("kb {action}"));
    }
    // Nothing committed.
    let (status, kb) = client.request("GET", "/v1/kb/narrow", "");
    assert_eq!(status, 200);
    assert_eq!(num_of(&kb, "seq"), 1);
    server.stop().unwrap();
}
