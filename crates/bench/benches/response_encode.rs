//! What one answer's response body costs to write: the `Json`-tree
//! composition the server used before (a `Json::Str` per true variable per
//! listed model, the minterm `Formula` from `to_formula()` rendered
//! through `Display`, then `to_text`), against `AnswerWriter`, which
//! appends the same bytes straight from the model bits.
//!
//! The answers are real operator outputs over DNFs of full minterms named
//! `v0..v{n-1}`, the shapes of the serving benchmark: `query-cold`
//! arbitrations at widths 10–12 of sides with 1–8 minterms,
//! `query-hot` arbitrations at widths 4–8 of sides with 1–4 minterms, and
//! `query-compiled` odist fits at width 14 of a 24-minterm ψ by a μ of
//! 1–4. Each iteration encodes the next answer of a pool of 32. Answer
//! sizes are skewed (a few `query-cold` answers hold hundreds of models),
//! so the mean per iteration, which cycles the whole pool, is the
//! per-answer cost; the best batch can miss the large answers.
//!
//! Two more layer rows price what every query request crosses before the
//! kernel: `http_parse` (the request head and body framed out of the read
//! buffer) and `json_parse` (the body into a `Json` value), on the
//! `query-cold` request bytes.
//!
//! `cargo bench -p arbitrex-bench --bench response_encode`

use arbitrex_core::{arbitrate, operator, BudgetSpent, Outcome, Quality};
use arbitrex_logic::{Interp, ModelSet, Sig};
use arbitrex_server::answer::AnswerWriter;
use arbitrex_server::http::{parse_request_buffer, BufferParse, MAX_BODY_BYTES};
use arbitrex_server::json::{self, n, obj, s, Json};
use arbitrex_server::routes::MAX_LISTED_MODELS;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const POOL: usize = 32;

/// One answer as the server holds it when it writes the response.
struct Answer {
    sig: Sig,
    outcome: Outcome,
}

/// `1..=max_models` distinct random interpretations of `n` variables.
fn random_set(rng: &mut StdRng, n_vars: u32, max_models: usize) -> ModelSet {
    let k = rng.random_range(1..=max_models);
    ModelSet::new(
        n_vars,
        (0..k).map(|_| Interp(rng.random_range(0..1u64 << n_vars))),
    )
}

fn answer(models: ModelSet) -> Answer {
    Answer {
        sig: Sig::with_anon_vars(models.n_vars() as usize),
        outcome: Outcome {
            models,
            quality: Quality::Exact,
            spent: BudgetSpent {
                scans: 4096,
                ..BudgetSpent::default()
            },
        },
    }
}

/// The pool of answers for one workload shape.
fn answers(shape: &str, rng: &mut StdRng) -> Vec<Answer> {
    (0..POOL)
        .map(|_| match shape {
            "query-cold" => {
                let n = rng.random_range(10..=12u32);
                answer(arbitrate(&random_set(rng, n, 8), &random_set(rng, n, 8)))
            }
            "query-hot" => {
                let n = rng.random_range(4..=8u32);
                answer(arbitrate(&random_set(rng, n, 4), &random_set(rng, n, 4)))
            }
            _ => {
                let psi = random_set(rng, 14, 24);
                let mu = random_set(rng, 14, 4);
                answer(operator("odist").expect("odist").apply(&psi, &mu))
            }
        })
        .collect()
}

/// The tree composition the writer replaced.
fn tree(endpoint: &str, sig: &Sig, outcome: &Outcome) -> String {
    let names = |i: Interp| {
        Json::Arr(
            sig.iter()
                .filter(|(v, _)| i.get(*v))
                .map(|(_, name)| s(name))
                .collect(),
        )
    };
    let models = &outcome.models;
    let spent = &outcome.spent;
    obj([
        ("endpoint", s(endpoint)),
        ("quality", s(outcome.quality.name())),
        ("backend", s("kernel")),
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
        (
            "spent",
            obj([
                ("scans", n(spent.scans)),
                ("nodes", n(spent.nodes)),
                ("conflicts", n(spent.conflicts)),
                ("models", n(spent.models)),
                ("ladder_steps", n(spent.ladder_steps)),
                ("tripped", Json::Bool(spent.trip.is_some())),
            ]),
        ),
    ])
    .to_text()
}

fn writer(endpoint: &str, sig: &Sig, outcome: &Outcome) -> String {
    AnswerWriter::new(sig)
        .str("endpoint", endpoint)
        .outcome(outcome)
        .finish()
}

fn bench_response_encode(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x0e5c_0de5);
    for shape in ["query-cold", "query-hot", "query-compiled"] {
        let pool = answers(shape, &mut rng);
        let models: usize = pool.iter().map(|a| a.outcome.models.len()).sum();
        let bytes: usize = pool
            .iter()
            .map(|a| writer("arbitrate", &a.sig, &a.outcome).len())
            .sum();
        for a in &pool {
            assert_eq!(
                tree("arbitrate", &a.sig, &a.outcome),
                writer("arbitrate", &a.sig, &a.outcome),
                "the two encodings disagree"
            );
        }
        let largest = pool.iter().map(|a| a.outcome.models.len()).max();
        println!(
            "shape  {shape}: {:.1} models (at most {}) and {} bytes per answer on average",
            models as f64 / POOL as f64,
            largest.unwrap_or(0),
            bytes / POOL
        );
        let mut group = c.benchmark_group(format!("response_encode/{shape}"));
        type Encode = fn(&str, &Sig, &Outcome) -> String;
        for (name, encode) in [("tree", tree as Encode), ("writer", writer as Encode)] {
            group.bench_with_input(BenchmarkId::from_parameter(name), &pool, |b, pool| {
                let mut next = 0;
                b.iter(|| {
                    let a = &pool[next % POOL];
                    next += 1;
                    black_box(encode("arbitrate", &a.sig, &a.outcome))
                })
            });
        }
        group.finish();
    }

    // The request side of a `query-cold` query, as its bytes arrive.
    let names: Vec<String> = (0..12).map(|i| format!("v{i}")).collect();
    let dnf = |rng: &mut StdRng| {
        let k = rng.random_range(1..=8);
        (0..k)
            .map(|_| {
                let m = rng.random_range(0..1u64 << 12);
                let lits: Vec<String> = names
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        if m >> i & 1 == 1 {
                            v.clone()
                        } else {
                            format!("!{v}")
                        }
                    })
                    .collect();
                format!("({})", lits.join(" & "))
            })
            .collect::<Vec<_>>()
            .join(" | ")
    };
    let requests: Vec<(Vec<u8>, String)> = (0..POOL)
        .map(|_| {
            let body = format!("{{\"psi\":\"{}\",\"phi\":\"{}\"}}", dnf(&mut rng), dnf(&mut rng));
            let wire = format!(
                "POST /v1/arbitrate HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            (wire.into_bytes(), body)
        })
        .collect();
    let mut group = c.benchmark_group("request_parse/query-cold");
    group.bench_with_input(
        BenchmarkId::from_parameter("http_parse"),
        &requests,
        |b, requests| {
            let mut next = 0;
            b.iter(|| {
                let (wire, _) = &requests[next % POOL];
                next += 1;
                match parse_request_buffer(wire, MAX_BODY_BYTES) {
                    BufferParse::Complete { request, .. } => black_box(request),
                    other => panic!("the request does not parse: {other:?}"),
                }
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("json_parse"),
        &requests,
        |b, requests| {
            let mut next = 0;
            b.iter(|| {
                let (_, body) = &requests[next % POOL];
                next += 1;
                black_box(json::parse(body).expect("the body parses"))
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_response_encode);
criterion_main!(benches);
