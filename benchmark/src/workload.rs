//! The four traffic mixes: their fixed corpora, request shapes and
//! Poisson arrival schedules. Everything but the corpus comes from the
//! `--seed` alone.
//!
//! Every formula is written as a DNF of full minterms, so each request
//! states its model sets exactly and every variable of the query appears
//! in every disjunct (the compiled tier needs `μ` inside `ψ`'s variable
//! space, and the KB store keeps one signature per theory).

use std::time::Duration;

use rand::{Rng, SeedableRng, StdRng};

/// The fixed set of traffic mixes. Names are part of the benchmark's
/// interface (`--workload`, `BENCHMARK.json`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 512 small base queries under fresh renamings: cache hits.
    QueryHot,
    /// Fits against 8 hot width-14 theories: BDD-served.
    QueryCompiled,
    /// Fresh width-10..12 arbitrations: kernel-served, cache thrashing.
    QueryCold,
    /// Durable KB reads, fits and puts on 256 Zipf-picked KBs.
    KbMixed,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::QueryHot,
        Workload::QueryCompiled,
        Workload::QueryCold,
        Workload::KbMixed,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryHot => "query-hot",
            Workload::QueryCompiled => "query-compiled",
            Workload::QueryCold => "query-cold",
            Workload::KbMixed => "kb-mixed",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Nominal open-loop arrival rate, requests per second: each keeps the
    /// server at roughly a third of one core, so that host slowdowns do not
    /// push it into saturation.
    pub fn rate(self) -> f64 {
        match self {
            Workload::QueryHot => 3000.0,
            Workload::QueryCompiled => 300.0,
            Workload::QueryCold => 400.0,
            Workload::KbMixed => 1500.0,
        }
    }

    /// How many requests of the timed stream the traced replay runs: about
    /// one second of nominal traffic, so the replay stays short even where
    /// every write waits for its own fsync.
    pub fn replay_len(self) -> usize {
        self.rate() as usize
    }

    fn tag(self) -> u64 {
        Workload::ALL.iter().position(|&w| w == self).unwrap_or(0) as u64
    }
}

/// Number of KBs in `kb-mixed`.
pub const KB_COUNT: usize = 256;
/// Signature width of every `kb-mixed` theory.
pub const KB_WIDTH: u32 = 10;
const HOT_BASES: usize = 512;
const COMPILED_THEORIES: usize = 8;
const COMPILED_WIDTH: u32 = 14;
const COMPILED_PSI_MODELS: usize = 24;
const COMPILED_WARMUP_PER_PSI: usize = 5;
const COLD_WARMUP: usize = 1100;
const ZIPF_EXPONENT: f64 = 0.9;
/// Seed of the fixed corpus (base queries, hot theories): `--seed` drives
/// the streams over it, so runs with different seeds serve the same
/// theories and differ only in traffic.
const CORPUS_SEED: u64 = 0x5EED;
/// Names a `query-hot` renaming draws from.
const RENAME_POOL: usize = 64;

/// A fitting operator served by `/v1/fit`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FitOp {
    /// Odist model-fitting (`ψ ▷ μ`).
    Odist,
    /// Dalal revision.
    Dalal,
}

impl FitOp {
    /// The operator's protocol name.
    pub fn name(self) -> &'static str {
        match self {
            FitOp::Odist => "odist",
            FitOp::Dalal => "dalal",
        }
    }
}

/// What a request asks for; the oracle checks its answer by this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `POST /v1/arbitrate` with `psi` and `phi`.
    Arbitrate,
    /// `POST /v1/fit` with `op`, `psi` and `mu`.
    Fit(FitOp),
    /// `GET /v1/kb/{name}` of the KB with this index.
    KbGet(usize),
    /// `POST /v1/kb/{name}` `put` of a new theory.
    KbPut(usize),
    /// `POST /v1/kb/{name}` odist `fit` of new information.
    KbFit(usize),
}

/// One request of a workload stream.
#[derive(Clone, Debug)]
pub struct Request {
    /// What the request asks for.
    pub kind: Kind,
    /// The request target.
    pub path: String,
    /// The JSON body of a `POST`; `None` for a `GET`.
    pub body: Option<String>,
}

impl Request {
    /// The request as HTTP/1.1 wire bytes on a keep-alive connection.
    pub fn wire(&self) -> Vec<u8> {
        match &self.body {
            None => format!("GET {} HTTP/1.1\r\nHost: bench\r\n\r\n", self.path).into_bytes(),
            Some(body) => format!(
                "POST {} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
                self.path,
                body.len(),
                body
            )
            .into_bytes(),
        }
    }

    /// Whether the request commits a KB mutation.
    pub fn is_write(&self) -> bool {
        matches!(self.kind, Kind::KbPut(_) | Kind::KbFit(_))
    }
}

/// The name of the KB with index `i`.
pub fn kb_name(i: usize) -> String {
    format!("kb{i:03}")
}

/// The canonical variable names `v0..v{width-1}`.
pub fn var_names(width: u32) -> Vec<String> {
    (0..width).map(|i| format!("v{i}")).collect()
}

/// A seeded stream of a workload's requests with their due times.
pub struct Plan {
    /// Due time of each request, from the start of the phase, ascending.
    pub due: Vec<Duration>,
    /// The requests, in due order.
    pub requests: Vec<Request>,
}

/// One `query-hot` base query, over variables `v0..v{width-1}`.
#[derive(Clone, Debug)]
struct BaseQuery {
    kind: Kind,
    width: u32,
    psi: Vec<u64>,
    other: Vec<u64>,
}

/// A workload's fixed material (base queries, hot theories, Zipf table),
/// and the source of its seeded streams.
pub struct Corpus {
    workload: Workload,
    seed: u64,
    bases: Vec<BaseQuery>,
    theories: Vec<String>,
    zipf_cdf: Vec<f64>,
}

impl Corpus {
    /// Build `workload`'s corpus, with streams for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Corpus {
        let mut rng = stream_rng(CORPUS_SEED, workload, 0, 0);
        let mut corpus = Corpus {
            workload,
            seed,
            bases: Vec::new(),
            theories: Vec::new(),
            zipf_cdf: Vec::new(),
        };
        match workload {
            Workload::QueryHot => {
                corpus.bases = (0..HOT_BASES)
                    .map(|_| {
                        let width = rng.random_range(4..=8u32);
                        let kind = if rng.random_range(0..3u32) < 2 {
                            Kind::Arbitrate
                        } else {
                            Kind::Fit(FitOp::Odist)
                        };
                        let k = rng.random_range(1..=4usize);
                        let psi = random_models(&mut rng, width, k);
                        let k = rng.random_range(1..=4usize);
                        let other = random_models(&mut rng, width, k);
                        BaseQuery {
                            kind,
                            width,
                            psi,
                            other,
                        }
                    })
                    .collect();
            }
            Workload::QueryCompiled => {
                let names = var_names(COMPILED_WIDTH);
                corpus.theories = (0..COMPILED_THEORIES)
                    .map(|_| {
                        let models = random_models(&mut rng, COMPILED_WIDTH, COMPILED_PSI_MODELS);
                        dnf(&names, &models)
                    })
                    .collect();
            }
            Workload::QueryCold => {}
            Workload::KbMixed => {
                let weights: Vec<f64> = (1..=KB_COUNT)
                    .map(|rank| 1.0 / (rank as f64).powf(ZIPF_EXPONENT))
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                corpus.zipf_cdf = weights
                    .iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect();
            }
        }
        corpus
    }

    /// The workload this corpus serves.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The untimed set-up stream: the KB preload, or the cache and
    /// compiled-tier warm-up.
    pub fn setup(&self) -> Vec<Request> {
        let mut rng = stream_rng(self.seed, self.workload, 0, 1);
        match self.workload {
            Workload::QueryHot => self
                .bases
                .iter()
                .map(|b| {
                    let names = var_names(b.width);
                    query_request(b.kind, dnf(&names, &b.psi), dnf(&names, &b.other))
                })
                .collect(),
            Workload::QueryCompiled => (0..COMPILED_WARMUP_PER_PSI)
                .flat_map(|_| 0..COMPILED_THEORIES)
                .map(|t| self.compiled_request(&mut rng, Some(t)))
                .collect(),
            Workload::QueryCold => (0..COLD_WARMUP).map(|_| cold_request(&mut rng)).collect(),
            Workload::KbMixed => {
                let names = var_names(KB_WIDTH);
                (0..KB_COUNT)
                    .map(|kb| {
                        let k = rng.random_range(1..=4usize);
                        kb_write(
                            Kind::KbPut(kb),
                            dnf(&names, &random_models(&mut rng, KB_WIDTH, k)),
                        )
                    })
                    .collect()
            }
        }
    }

    /// `GET` of every KB, in index order (`kb-mixed` final reads).
    pub fn read_all(&self) -> Vec<Request> {
        (0..KB_COUNT).map(kb_get).collect()
    }

    /// The stream of phase `phase` at `rate` req/s for `seconds`. Request
    /// contents depend only on the seed and the phase; the rate only scales
    /// the same unit-rate arrival gaps.
    pub fn plan(&self, phase: u64, rate: f64, seconds: f64) -> Plan {
        let mut arrivals = stream_rng(self.seed, self.workload, phase, 2);
        let mut contents = stream_rng(self.seed, self.workload, phase, 3);
        let mut due = Vec::new();
        let mut requests = Vec::new();
        let mut t = 0.0;
        loop {
            t += -(1.0 - unit(&mut arrivals)).ln() / rate;
            if t >= seconds {
                break;
            }
            due.push(Duration::from_secs_f64(t));
            requests.push(self.request(&mut contents));
        }
        Plan { due, requests }
    }

    fn request(&self, rng: &mut StdRng) -> Request {
        match self.workload {
            Workload::QueryHot => {
                let base = &self.bases[rng.random_range(0..self.bases.len())];
                let names = rename(rng, base.width);
                query_request(
                    base.kind,
                    shuffled_dnf(rng, &names, &base.psi),
                    shuffled_dnf(rng, &names, &base.other),
                )
            }
            Workload::QueryCompiled => self.compiled_request(rng, None),
            Workload::QueryCold => cold_request(rng),
            Workload::KbMixed => {
                let u = unit(rng);
                let kb = self.zipf_cdf.partition_point(|&c| c < u).min(KB_COUNT - 1);
                let roll = unit(rng);
                let names = var_names(KB_WIDTH);
                if roll < 0.50 {
                    kb_get(kb)
                } else {
                    let k = rng.random_range(1..=4usize);
                    let formula = dnf(&names, &random_models(rng, KB_WIDTH, k));
                    let kind = if roll < 0.85 {
                        Kind::KbFit(kb)
                    } else {
                        Kind::KbPut(kb)
                    };
                    kb_write(kind, formula)
                }
            }
        }
    }

    fn compiled_request(&self, rng: &mut StdRng, theory: Option<usize>) -> Request {
        let t = theory.unwrap_or_else(|| rng.random_range(0..self.theories.len()));
        let op = if rng.random_range(0..3u32) < 2 {
            FitOp::Odist
        } else {
            FitOp::Dalal
        };
        let k = rng.random_range(1..=4usize);
        let mu = dnf(
            &var_names(COMPILED_WIDTH),
            &random_models(rng, COMPILED_WIDTH, k),
        );
        query_request(Kind::Fit(op), self.theories[t].clone(), mu)
    }
}

fn cold_request(rng: &mut StdRng) -> Request {
    let width = rng.random_range(10..=12u32);
    let names = var_names(width);
    let k = rng.random_range(1..=8usize);
    let psi = dnf(&names, &random_models(rng, width, k));
    let k = rng.random_range(1..=8usize);
    let phi = dnf(&names, &random_models(rng, width, k));
    query_request(Kind::Arbitrate, psi, phi)
}

fn query_request(kind: Kind, psi: String, other: String) -> Request {
    let (path, body) = match kind {
        Kind::Fit(op) => (
            "/v1/fit",
            format!(
                "{{\"op\":\"{}\",\"psi\":\"{psi}\",\"mu\":\"{other}\"}}",
                op.name()
            ),
        ),
        _ => (
            "/v1/arbitrate",
            format!("{{\"psi\":\"{psi}\",\"phi\":\"{other}\"}}"),
        ),
    };
    Request {
        kind,
        path: path.to_string(),
        body: Some(body),
    }
}

fn kb_get(kb: usize) -> Request {
    Request {
        kind: Kind::KbGet(kb),
        path: format!("/v1/kb/{}", kb_name(kb)),
        body: None,
    }
}

fn kb_write(kind: Kind, formula: String) -> Request {
    let (kb, body) = match kind {
        Kind::KbPut(kb) => (
            kb,
            format!("{{\"action\":\"put\",\"formula\":\"{formula}\"}}"),
        ),
        Kind::KbFit(kb) => (
            kb,
            format!("{{\"action\":\"fit\",\"op\":\"odist\",\"formula\":\"{formula}\"}}"),
        ),
        _ => unreachable!("kb_write takes a KB mutation"),
    };
    Request {
        kind,
        path: format!("/v1/kb/{}", kb_name(kb)),
        body: Some(body),
    }
}

/// The independent random stream `stream` of `phase` (0 is set-up).
fn stream_rng(seed: u64, workload: Workload, phase: u64, stream: u64) -> StdRng {
    let tag = ((workload.tag() * 256 + phase) * 4 + stream + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    StdRng::seed_from_u64(seed ^ tag)
}

/// A uniform draw from `[0, 1)`.
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// `k` distinct random interpretations of `width` variables.
fn random_models(rng: &mut StdRng, width: u32, k: usize) -> Vec<u64> {
    let mut models: Vec<u64> = Vec::with_capacity(k);
    while models.len() < k {
        let m = rng.random_range(0..1u64 << width);
        if !models.contains(&m) {
            models.push(m);
        }
    }
    models
}

/// `width` distinct names drawn from the renaming pool, in random order.
fn rename(rng: &mut StdRng, width: u32) -> Vec<String> {
    let mut pool: Vec<usize> = (0..RENAME_POOL).collect();
    (0..width as usize)
        .map(|i| {
            let j = rng.random_range(i..RENAME_POOL);
            pool.swap(i, j);
            format!("x{}", pool[i])
        })
        .collect()
}

/// The DNF of `models` (bit `i` of a model is variable `names[i]`), one
/// full minterm per model, literals in variable order.
pub fn dnf(names: &[String], models: &[u64]) -> String {
    let order: Vec<usize> = (0..names.len()).collect();
    models
        .iter()
        .map(|&m| minterm(names, m, &order))
        .collect::<Vec<_>>()
        .join(" | ")
}

/// [`dnf`] with the minterms and each minterm's literals in random order,
/// so the server's signature order differs from request to request.
fn shuffled_dnf(rng: &mut StdRng, names: &[String], models: &[u64]) -> String {
    let mut models = models.to_vec();
    shuffle(rng, &mut models);
    models
        .iter()
        .map(|&m| {
            let mut order: Vec<usize> = (0..names.len()).collect();
            shuffle(rng, &mut order);
            minterm(names, m, &order)
        })
        .collect::<Vec<_>>()
        .join(" | ")
}

fn minterm(names: &[String], model: u64, order: &[usize]) -> String {
    let literals: Vec<String> = order
        .iter()
        .map(|&i| {
            if model >> i & 1 == 1 {
                names[i].clone()
            } else {
                format!("!{}", names[i])
            }
        })
        .collect();
    format!("({})", literals.join(" & "))
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitrex_logic::{parse, Interp, ModelSet, Sig};

    fn stream_bytes(corpus: &Corpus) -> (Vec<u8>, Vec<Duration>) {
        let plan = corpus.plan(1, corpus.workload().rate(), 1.0);
        let mut bytes: Vec<u8> = corpus.setup().iter().flat_map(|r| r.wire()).collect();
        bytes.extend(plan.requests.iter().flat_map(|r| r.wire()));
        (bytes, plan.due)
    }

    #[test]
    fn same_seed_same_stream_and_schedule_other_seed_differs() {
        for w in Workload::ALL {
            let a = stream_bytes(&Corpus::new(w, 7));
            let b = stream_bytes(&Corpus::new(w, 7));
            let c = stream_bytes(&Corpus::new(w, 8));
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a.0, c.0, "{}", w.name());
            assert_ne!(a.1, c.1, "{}", w.name());
        }
    }

    #[test]
    fn arrivals_follow_the_rate_and_stay_in_the_phase() {
        let corpus = Corpus::new(Workload::QueryCold, 3);
        let plan = corpus.plan(1, 800.0, 10.0);
        let n = plan.due.len() as f64;
        assert!((7600.0..8400.0).contains(&n), "{n} arrivals");
        assert!(plan.due.windows(2).all(|w| w[0] <= w[1]));
        assert!(plan.due.last().unwrap() < &Duration::from_secs(10));
    }

    #[test]
    fn dnf_text_denotes_exactly_its_models() {
        let names = var_names(5);
        let models = [0b00000, 0b10110, 0b11111];
        let mut rng = StdRng::seed_from_u64(1);
        for text in [
            dnf(&names, &models),
            shuffled_dnf(&mut rng, &names, &models),
        ] {
            let mut sig = Sig::new();
            for name in &names {
                sig.var(name);
            }
            let f = parse(&mut sig, &text).unwrap();
            let expected = ModelSet::new(5, models.iter().map(|&m| Interp(m)));
            assert_eq!(ModelSet::of_formula(&f, 5), expected, "{text}");
        }
    }

    #[test]
    fn kb_picks_are_skewed_towards_low_ranks() {
        let corpus = Corpus::new(Workload::KbMixed, 5);
        let plan = corpus.plan(1, 1500.0, 4.0);
        let hot = plan
            .requests
            .iter()
            .filter(|r| matches!(r.kind, Kind::KbGet(0) | Kind::KbPut(0) | Kind::KbFit(0)))
            .count();
        let share = hot as f64 / plan.requests.len() as f64;
        // Zipf(0.9) over 256 ranks puts 12.5% of picks on rank 1.
        assert!((0.11..0.14).contains(&share), "{share}");
    }
}
