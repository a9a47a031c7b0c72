//! The experiment harness: regenerates every table/series in
//! EXPERIMENTS.md (E1–E21) and prints paper-value vs measured-value rows.
//!
//! Run with: `cargo run --release -p arbitrex-bench --bin experiments`
//! (optionally pass a subset of experiment ids, e.g. `e1 e3 e9`).
//!
//! E13 compares two builds; the telemetry-off leg is
//! `cargo run --release -p arbitrex-bench --no-default-features \
//!  --features parallel --bin experiments e13` (keep `parallel` on so only
//! the counters differ between the legs).

use arbitrex_bench::{random_kcnf_pairs, random_pairs, wide_constraint, wide_fact_base};
use arbitrex_core::arbitration::arbitrate;
use arbitrex_core::fitting::{LexOdistFitting, OdistFitting, SumFitting};
use arbitrex_core::postulates::harness::{
    satisfaction_matrix, separation_r123_u8, separation_r2_a8, separation_u2_u8_a8,
    SeparationVerdict,
};
use arbitrex_core::postulates::weighted::{wcheck_exhaustive, wcheck_random, WPostulateId};
use arbitrex_core::postulates::{harness::check_exhaustive, PostulateId};
use arbitrex_core::satbackend::dalal_revision_sat;
use arbitrex_core::{
    BorgidaRevision, ChangeOperator, DalalRevision, DrasticRevision, ForbusUpdate, SatohRevision,
    UniverseFitting, WdistFitting, WeberRevision, WeightedChangeOperator, WinslettUpdate,
};
use arbitrex_logic::{Interp, ModelSet};
use arbitrex_merge::scenario::{heterogeneous_databases, jury, Classroom, D, S};
use arbitrex_merge::{
    merge_egalitarian, merge_fold_arbitration, merge_fold_revision, merge_fold_update,
    merge_majority, merge_weighted_arbitration, Table,
};
use std::time::Instant;

/// Where experiments write their machine-readable records: an untracked
/// directory, so a run never rewrites the `BENCH_PR*.json` baselines the
/// repository tracks (`scripts/e17_gate.sh` reads `BENCH_PR4.json`).
const RECORD_DIR: &str = "target/experiments";

/// Write `json` as `file` under [`RECORD_DIR`] and say where, with
/// `detail` after the path.
fn write_record(file: &str, json: &str, detail: String) {
    let path = std::path::Path::new(RECORD_DIR).join(file);
    match std::fs::create_dir_all(RECORD_DIR).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("wrote {}{detail}\n", path.display()),
        Err(e) => println!("could not write {}: {e}\n", path.display()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id);
    println!("arbitrex experiment harness — Revesz, PODS 1993");
    println!("================================================\n");
    if want("e1") {
        e1_example_31();
    }
    if want("e2") {
        e2_example_41();
    }
    if want("e3") {
        e3_separation();
    }
    if want("e4") {
        e4_fitting_axioms();
    }
    if want("e5") {
        e5_weighted_axioms();
    }
    if want("e6") {
        e6_commutativity();
    }
    if want("e7") {
        e7_scaling();
    }
    if want("e8") {
        e8_backends();
    }
    if want("e9") {
        e9_crossover();
    }
    if want("e10") {
        e10_merging();
    }
    if want("e11") {
        e11_dynamics();
    }
    if want("e12") {
        e12_kernel();
        e12_dispatch();
    }
    if want("e13") {
        e13_overhead();
    }
    if want("e14") {
        e14_anytime();
    }
    if want("e15") {
        e15_serving();
    }
    if want("e16") {
        e16_durability();
    }
    if want("e17") {
        e17_event_loop();
    }
    if want("e19") {
        e19_replication();
    }
    if want("e20") {
        e20_sharding();
    }
    if want("e21") {
        e21_failover();
    }
}

fn header(id: &str, title: &str, paper: &str) {
    println!("--- {id}: {title} ---");
    println!("paper artifact: {paper}\n");
}

/// E1 — Example 3.1: classroom model-fitting.
fn e1_example_31() {
    header(
        "E1",
        "classroom model-fitting",
        "Example 3.1 (odist 2 vs 1; result {S,D})",
    );
    let c = Classroom::new();
    let psi = c.example_31_psi();
    let mut t = Table::new(["candidate", "odist paper", "odist measured"]);
    t.row([
        "{D}",
        "2",
        &arbitrex_core::distance::odist(&psi, Interp(D))
            .unwrap()
            .to_string(),
    ]);
    t.row([
        "{S,D}",
        "1",
        &arbitrex_core::distance::odist(&psi, Interp(S | D))
            .unwrap()
            .to_string(),
    ]);
    println!("{}", t.render());
    let fitted = OdistFitting.apply(&psi, &c.offer);
    let revised = DalalRevision.apply(&psi, &c.offer);
    println!(
        "Mod(ψ ▷ μ): paper {{{{S,D}}}}, measured {}",
        fitted.display(&c.sig)
    );
    println!(
        "Dalal contrast: paper {{{{D}}}}, measured {}\n",
        revised.display(&c.sig)
    );
}

/// E2 — Example 4.1: weighted classroom.
fn e2_example_41() {
    header(
        "E2",
        "weighted classroom",
        "Example 4.1 (wdist 30 vs 35; result {D})",
    );
    let c = Classroom::new();
    let psi = c.example_41_psi();
    let mut t = Table::new(["candidate", "wdist paper", "wdist measured"]);
    t.row([
        "{D}",
        "30",
        &arbitrex_core::distance::wdist(&psi, Interp(D))
            .unwrap()
            .to_string(),
    ]);
    t.row([
        "{S,D}",
        "35",
        &arbitrex_core::distance::wdist(&psi, Interp(S | D))
            .unwrap()
            .to_string(),
    ]);
    println!("{}", t.render());
    let result = WdistFitting.apply(&psi, &c.offer_weighted());
    println!(
        "Mod(ψ̃ ▷ μ̃): paper {{{{D}}}}, measured {}\n",
        result.support_set().display(&c.sig)
    );
}

/// E3 — Theorem 3.2: the separation matrix and constructions.
fn e3_separation() {
    header(
        "E3",
        "operator × postulate separation",
        "Theorem 3.2 (revision/update/model-fitting pairwise disjoint)",
    );
    let ops: Vec<&dyn ChangeOperator> = vec![
        &DalalRevision,
        &SatohRevision,
        &BorgidaRevision,
        &WeberRevision,
        &DrasticRevision,
        &WinslettUpdate,
        &ForbusUpdate,
        &OdistFitting,
        &LexOdistFitting,
        &SumFitting,
    ];
    use PostulateId::*;
    let signature = [R2, U2, U8, A2, A8];
    let rows = satisfaction_matrix(&ops, &signature);
    let mut t = Table::new(["operator", "R2", "U2", "U8", "A2", "A8", "family"]);
    for row in &rows {
        let mark = |id| match row.passed(id) {
            Some(true) => "✓",
            Some(false) => "✗",
            None => "?",
        };
        let family = match (row.passed(R2), row.passed(U8), row.passed(A8)) {
            (Some(true), _, _) => "revision",
            (_, Some(true), _) => "update",
            (_, _, Some(true)) => "model-fitting",
            _ => "none (see notes)",
        };
        t.row([
            row.operator.as_str(),
            mark(R2),
            mark(U2),
            mark(U8),
            mark(A2),
            mark(A8),
            family,
        ]);
    }
    println!("{}", t.render());

    let verdict = |v: SeparationVerdict| match v {
        SeparationVerdict::ViolatesFirst => "1st",
        SeparationVerdict::ViolatesSecond => "2nd",
        SeparationVerdict::ViolatesBoth => "both",
        SeparationVerdict::Neither => "NEITHER (refutes thm!)",
    };
    let mut s = Table::new([
        "operator",
        "R2⊥A8 gives up",
        "U2+U8⊥A8 gives up",
        "R123⊥U8 gives up",
    ]);
    for op in &ops {
        s.row([
            op.name(),
            verdict(separation_r2_a8(*op, 2)),
            verdict(separation_u2_u8_a8(*op, 2)),
            verdict(separation_r123_u8(*op, 2)),
        ]);
    }
    println!("{}", s.render());
    println!("expected shape: every row gives up at least one side in every column.\n");
}

/// E4 — Theorem 3.1: fitting axioms, exhaustive + fuzz, with the erratum.
fn e4_fitting_axioms() {
    header(
        "E4",
        "model-fitting axiom validation",
        "Theorem 3.1 + the claim that odist induces a model-fitting operator",
    );
    use PostulateId::*;
    let axioms = [A1, A2, A3, A4, A5, A6, A7, A8];
    let mut t = Table::new([
        "axiom",
        "odist-fitting (paper)",
        "lex-odist-fitting (repair)",
    ]);
    for &ax in &axioms {
        let odist_ok = check_exhaustive(&OdistFitting, &[ax], 2).is_ok();
        let lex_ok = check_exhaustive(&LexOdistFitting, &[ax], 2).is_ok();
        t.row([
            ax.name(),
            if odist_ok {
                "✓ (exhaustive n=2)"
            } else {
                "✗ COUNTEREXAMPLE"
            },
            if lex_ok {
                "✓ (exhaustive n=2)"
            } else {
                "✗"
            },
        ]);
    }
    println!("{}", t.render());
    println!("paper claim: odist satisfies A1–A8. measured: A1–A7 ✓, A8 ✗ —");
    println!("minimal counterexample ψ₁=¬a, ψ₂=⊤, μ=⊤ (see DESIGN.md, erratum).");
    let fuzz = arbitrex_core::postulates::harness::check_random(
        &LexOdistFitting,
        &axioms,
        5,
        50_000,
        1993,
    );
    println!(
        "repair fuzz: lex-odist over n=5, 50k random quadruples: {}\n",
        if fuzz.is_ok() {
            "0 violations"
        } else {
            "VIOLATION FOUND"
        }
    );
}

/// E5 — Theorem 4.1: weighted axioms.
fn e5_weighted_axioms() {
    header(
        "E5",
        "weighted model-fitting axiom validation",
        "Theorem 4.1 (wdist is weighted-loyal)",
    );
    let exhaustive1 = wcheck_exhaustive(&WdistFitting, WPostulateId::all(), 1, 2);
    let exhaustive2 = wcheck_exhaustive(&WdistFitting, WPostulateId::all(), 2, 1);
    let fuzz = wcheck_random(&WdistFitting, WPostulateId::all(), 5, 50_000, 1993);
    let mut t = Table::new(["check", "space", "violations"]);
    t.row([
        "exhaustive",
        "n=1, weights 0..2 (9^4 quadruples)",
        if exhaustive1.is_ok() { "0" } else { "FOUND" },
    ]);
    t.row([
        "exhaustive",
        "n=2, weights 0..1 (16^4 quadruples)",
        if exhaustive2.is_ok() { "0" } else { "FOUND" },
    ]);
    t.row([
        "randomized",
        "n=5, 50k random weighted quadruples",
        if fuzz.is_ok() { "0" } else { "FOUND" },
    ]);
    println!("{}", t.render());
    println!("paper: wdist is 'clearly' weighted-loyal — confirmed mechanically;");
    println!("the weighted ⊔ (sum) is exactly what repairs the classical A8 failure.\n");
}

/// E6 — commutativity rates.
fn e6_commutativity() {
    header(
        "E6",
        "commutativity",
        "Abstract / Corollary 3.1: arbitration is commutative; revision/update are not",
    );
    let wl = random_pairs(5, 6, 3_000, 42);
    type OpFn = Box<dyn Fn(&ModelSet, &ModelSet) -> ModelSet>;
    let ops: Vec<(&'static str, OpFn)> = vec![
        ("arbitration", Box::new(arbitrate)),
        ("dalal-revision", Box::new(|a, b| DalalRevision.apply(a, b))),
        (
            "winslett-update",
            Box::new(|a, b| WinslettUpdate.apply(a, b)),
        ),
        ("odist-fitting", Box::new(|a, b| OdistFitting.apply(a, b))),
    ];
    let mut t = Table::new(["operator", "commutes on", "rate"]);
    for (name, f) in &ops {
        let hits = wl.pairs.iter().filter(|(a, b)| f(a, b) == f(b, a)).count();
        t.row([
            name.to_string(),
            format!("{hits}/{}", wl.pairs.len()),
            format!("{:.1}%", 100.0 * hits as f64 / wl.pairs.len() as f64),
        ]);
    }
    println!("{}", t.render());
    println!("expected shape: arbitration 100%; the others well below.\n");
}

/// E7 — runtime scaling of the enumeration backend (open problem, §5).
fn e7_scaling() {
    header(
        "E7",
        "runtime scaling vs signature width",
        "Section 5 open problem (complexity of revision/update/arbitration)",
    );
    let mut t = Table::new([
        "n_vars",
        "dalal ∘ (µs)",
        "winslett ⋄ (µs)",
        "odist ▷ (µs)",
        "arbitration Δ (µs)",
    ]);
    for n in [6u32, 8, 10, 12, 14] {
        let wl = random_pairs(n, 8, 20, 7);
        let time_op = |f: &dyn Fn(&ModelSet, &ModelSet) -> ModelSet| {
            let start = Instant::now();
            for (a, b) in &wl.pairs {
                std::hint::black_box(f(a, b));
            }
            start.elapsed().as_micros() as f64 / wl.pairs.len() as f64
        };
        let dalal = time_op(&|a, b| DalalRevision.apply(a, b));
        let winslett = time_op(&|a, b| WinslettUpdate.apply(a, b));
        let odist = time_op(&|a, b| OdistFitting.apply(a, b));
        let arb = time_op(&|a, b| arbitrate(a, b));
        t.row([
            n.to_string(),
            format!("{dalal:.1}"),
            format!("{winslett:.1}"),
            format!("{odist:.1}"),
            format!("{arb:.1}"),
        ]);
    }
    println!("{}", t.render());
    println!("expected shape: ∘/⋄/▷ grow with |Mod| products (polynomial in the");
    println!("model counts); Δ materializes all 2^n candidates, so it grows ~2^n.\n");
}

/// E8 — enumeration vs SAT backend for Dalal revision.
fn e8_backends() {
    header(
        "E8",
        "Dalal revision: enumeration vs SAT backend",
        "Section 5 open problem (practical complexity; crossover)",
    );
    let mut t = Table::new(["n_vars", "enumeration (ms)", "SAT backend (ms)", "winner"]);
    for n in [8u32, 12, 16, 20, 24, 40] {
        let pairs = random_kcnf_pairs(n, 5, 11);
        let enum_time = if n <= 20 {
            let start = Instant::now();
            for (psi, mu) in &pairs {
                let pm = ModelSet::of_formula(psi, n);
                let mm = ModelSet::of_formula(mu, n);
                std::hint::black_box(DalalRevision.apply(&pm, &mm));
            }
            Some(start.elapsed().as_secs_f64() * 1000.0 / pairs.len() as f64)
        } else {
            None
        };
        let start = Instant::now();
        for (psi, mu) in &pairs {
            std::hint::black_box(dalal_revision_sat(psi, mu, n, 1024));
        }
        let sat_time = start.elapsed().as_secs_f64() * 1000.0 / pairs.len() as f64;
        let winner = match enum_time {
            Some(e) if e < sat_time => "enumeration",
            Some(_) => "SAT",
            None => "SAT (enum infeasible)",
        };
        t.row([
            n.to_string(),
            enum_time
                .map(|e| format!("{e:.2}"))
                .unwrap_or_else(|| "-".into()),
            format!("{sat_time:.2}"),
            winner.to_string(),
        ]);
    }
    println!("{}", t.render());
    // The wide-database shape check.
    let n = 40;
    let psi = wide_fact_base(n);
    let mu = wide_constraint(n);
    let r = dalal_revision_sat(&psi, &mu, n, 64).unwrap();
    println!(
        "wide fact base (n=40): minimal distance {:?}, |optimal models| = {}",
        r.distance,
        r.models.len()
    );
    println!("expected shape: enumeration wins small n, SAT wins large n and is");
    println!("the only option past the 2^n wall.\n");
}

/// E9 — majority crossover sweep.
fn e9_crossover() {
    header(
        "E9",
        "majority crossover",
        "Example 4.1 generalized: when does the Datalog majority flip the outcome?",
    );
    let c = Classroom::new();
    let mu = c.offer_weighted();
    let mut t = Table::new(["#datalog-only", "wdist({D})", "wdist({S,D})", "outcome"]);
    let mut flip = None;
    for k in 0..=30u64 {
        let psi = c.class_of(10, k, 5);
        let wd = arbitrex_core::distance::wdist(&psi, Interp(D)).unwrap();
        let wsd = arbitrex_core::distance::wdist(&psi, Interp(S | D)).unwrap();
        let outcome = WdistFitting.apply(&psi, &mu).support_set();
        if flip.is_none() && outcome.as_singleton() == Some(Interp(D)) {
            flip = Some(k);
        }
        if k % 5 == 0 || Some(k) == flip {
            t.row([
                k.to_string(),
                wd.to_string(),
                wsd.to_string(),
                outcome.display(&c.sig).to_string(),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "measured flip at k = {:?}; analytic prediction: wdist({{S,D}}) = 15 + k",
        flip
    );
    println!("exceeds wdist({{D}}) = 30 first at k = 16. paper's instance (k = 20)");
    println!("sits on the {{D}} side — consistent with Example 4.1.\n");
}

/// E10 — merging strategy comparison.
fn e10_merging() {
    header(
        "E10",
        "multi-source merging",
        "Section 1 motivation: juries and heterogeneous databases",
    );
    // Jury.
    let sources = jury(9, 2);
    let mut sig = arbitrex_logic::Sig::new();
    sig.var("A");
    sig.var("B");
    let mut t = Table::new(["strategy", "jury 9-vs-2 verdict"]);
    for out in [
        merge_weighted_arbitration(&sources),
        merge_majority(&sources, None),
        merge_egalitarian(&sources, None),
        merge_fold_revision(&sources),
    ] {
        t.row([
            out.strategy.to_string(),
            out.consensus.display(&sig).to_string(),
        ]);
    }
    println!("{}", t.render());

    // Heterogeneous databases, aggregated over seeds.
    let trials = 25;
    let mut eg_wins_max = 0;
    let mut mj_wins_sum = 0;
    let mut fold_order_sensitive = 0;
    for seed in 0..trials {
        let sources = heterogeneous_databases(5, 8, 4, seed);
        let eg = merge_egalitarian(&sources, None);
        let mj = merge_majority(&sources, None);
        let fr = merge_fold_revision(&sources);
        let fu = merge_fold_update(&sources);
        let fa = merge_fold_arbitration(&sources);
        let others = [&mj, &fr, &fu, &fa];
        if others
            .iter()
            .all(|o| eg.egalitarian_cost <= o.egalitarian_cost)
        {
            eg_wins_max += 1;
        }
        let all = [&eg, &fr, &fu, &fa];
        if all.iter().all(|o| mj.majority_cost <= o.majority_cost) {
            mj_wins_sum += 1;
        }
        let reversed: Vec<_> = sources.iter().rev().cloned().collect();
        if merge_fold_revision(&reversed).consensus != fr.consensus {
            fold_order_sensitive += 1;
        }
    }
    // Permutation sweep on one scenario: how many distinct outcomes per
    // strategy across all orderings of 4 sources?
    let sweep_sources = heterogeneous_databases(4, 8, 4, 7);
    let sweeps = [
        (
            "egalitarian",
            arbitrex_merge::order_sweep(&sweep_sources, |s| merge_egalitarian(s, None)),
        ),
        (
            "weighted-arbitration",
            arbitrex_merge::order_sweep(&sweep_sources, merge_weighted_arbitration),
        ),
        (
            "fold-arbitration",
            arbitrex_merge::order_sweep(&sweep_sources, merge_fold_arbitration),
        ),
        (
            "fold-revision",
            arbitrex_merge::order_sweep(&sweep_sources, merge_fold_revision),
        ),
        (
            "fold-update",
            arbitrex_merge::order_sweep(&sweep_sources, merge_fold_update),
        ),
    ];
    let mut o = Table::new(["strategy", "distinct outcomes over 4! orderings"]);
    for (name, sweep) in &sweeps {
        o.row([name.to_string(), sweep.distinct_outcomes().to_string()]);
    }
    println!("{}", o.render());

    let mut h = Table::new(["property", "count", "expected"]);
    h.row([
        "egalitarian merge minimizes worst-source cost".to_string(),
        format!("{eg_wins_max}/{trials}"),
        format!("{trials}/{trials} (optimal by construction)"),
    ]);
    h.row([
        "majority merge minimizes Σ-cost".to_string(),
        format!("{mj_wins_sum}/{trials}"),
        format!("{trials}/{trials} (optimal by construction)"),
    ]);
    h.row([
        "fold-revision changes with source order".to_string(),
        format!("{fold_order_sensitive}/{trials}"),
        "most trials".to_string(),
    ]);
    println!("{}", h.render());
    println!("expected shape: the semantic merges are optimal on their own");
    println!("objective every time; folded revision is order-sensitive.\n");
}

/// E12 — fast-path selection kernel vs the naive oracles.
///
/// Times the retained naive implementations against the pruned streaming
/// kernel for arbitration, odist fitting over `μ = ⊤`, and Dalal
/// revision, profiles one pass of each pruned workload through the
/// telemetry layer, and writes timings + counter columns to
/// `BENCH_PR2.json` (`BENCH_PR1.json` is kept as the pre-telemetry
/// baseline).
fn e12_kernel() {
    use arbitrex_core::kernel::naive;
    header(
        "E12",
        "selection-kernel speedup",
        "perf pass: single-pass ranking + popcount-bound pruning + streaming universe",
    );
    // Median-of-`reps` timing over a fixed workload per width.
    fn time_runs(reps: usize, mut f: impl FnMut()) -> f64 {
        let mut runs: Vec<f64> = (0..reps)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        runs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        runs[reps / 2]
    }

    /// Counter columns recorded per row; every key comes from the kernel
    /// section of the telemetry snapshot (see OBSERVABILITY.md).
    const COUNTER_COLS: [&str; 6] = [
        "candidates_scanned",
        "candidates_pruned",
        "profile_prune_hits",
        "bnb_nodes_opened",
        "bnb_nodes_cut",
        "parallel_shards",
    ];
    struct Row {
        op: &'static str,
        n: u32,
        naive_us: f64,
        pruned_us: f64,
        counters: Vec<u64>,
    }
    // One profiled (untimed) pass over the pruned workload; the timed reps
    // run without the reset/snapshot bracketing.
    fn profile_pass(mut f: impl FnMut()) -> Vec<u64> {
        let (_, snap) = arbitrex_core::telemetry::capture(&mut f);
        COUNTER_COLS
            .iter()
            .map(|c| snap.get("kernel", c).unwrap_or(0))
            .collect()
    }
    let mut rows: Vec<Row> = Vec::new();
    let mut t = Table::new([
        "operator",
        "n_vars",
        "naive (µs)",
        "pruned (µs)",
        "speedup",
        "scanned",
        "bound-pruned",
    ]);
    for n in [10u32, 12, 14, 16] {
        let wl = random_pairs(n, 8, 4, 12);
        let reps = if n >= 16 { 3 } else { 5 };
        let full = ModelSet::all(n);
        let run_arb = || {
            for (psi, phi) in &wl.pairs {
                std::hint::black_box(arbitrate(psi, phi));
            }
        };
        let run_odist = || {
            for (psi, _) in &wl.pairs {
                std::hint::black_box(OdistFitting.apply_universe(psi).unwrap());
            }
        };
        let run_dalal = || {
            for (psi, _) in &wl.pairs {
                std::hint::black_box(DalalRevision.apply(psi, &full));
            }
        };
        let measured: [(&'static str, f64, f64, Vec<u64>); 3] = [
            (
                "arbitration",
                time_runs(reps, || {
                    for (psi, phi) in &wl.pairs {
                        std::hint::black_box(naive::arbitrate(psi, phi));
                    }
                }),
                time_runs(reps, run_arb),
                profile_pass(run_arb),
            ),
            (
                "odist-fitting-vs-top",
                time_runs(reps, || {
                    for (psi, _) in &wl.pairs {
                        std::hint::black_box(naive::odist_fitting(psi, &full));
                    }
                }),
                time_runs(reps, run_odist),
                profile_pass(run_odist),
            ),
            (
                "dalal-revision-vs-top",
                time_runs(reps, || {
                    for (psi, _) in &wl.pairs {
                        std::hint::black_box(naive::dalal_revision(psi, &full));
                    }
                }),
                time_runs(reps, run_dalal),
                profile_pass(run_dalal),
            ),
        ];
        for (op, naive_us, pruned_us, counters) in measured {
            // scanned = explicit candidate evaluations; bound-pruned =
            // popcount-profile rejections + B&B subtree cuts.
            let scanned = counters[0];
            let bound_pruned = counters[2] + counters[4];
            t.row([
                op.to_string(),
                n.to_string(),
                format!("{naive_us:.1}"),
                format!("{pruned_us:.1}"),
                format!("{:.1}x", naive_us / pruned_us),
                scanned.to_string(),
                bound_pruned.to_string(),
            ]);
            rows.push(Row {
                op,
                n,
                naive_us,
                pruned_us,
                counters,
            });
        }
    }
    println!("{}", t.render());
    if !arbitrex_core::telemetry::enabled() {
        println!("(telemetry compiled out — counter columns read 0)");
    }

    // Machine-readable record (hand-rendered: the workspace has no JSON
    // dependency). BENCH_PR1.json is the pre-telemetry baseline; this PR
    // writes the counter-augmented BENCH_PR2.json next to it.
    let mut json = String::from("{\n  \"experiment\": \"e12-kernel-speedup\",\n");
    json.push_str("  \"workload\": \"random_pairs(n, max_models=8, count=4, seed=12), median of repeated runs\",\n");
    json.push_str("  \"unit\": \"microseconds per workload pass\",\n");
    json.push_str(&format!(
        "  \"telemetry_enabled\": {},\n  \"rows\": [\n",
        arbitrex_core::telemetry::enabled()
    ));
    for (k, r) in rows.iter().enumerate() {
        let mut counters = String::new();
        for (name, v) in COUNTER_COLS.iter().zip(&r.counters) {
            counters.push_str(&format!(", \"{name}\": {v}"));
        }
        json.push_str(&format!(
            "    {{\"operator\": \"{}\", \"n_vars\": {}, \"naive_us\": {:.1}, \"pruned_us\": {:.1}, \"speedup\": {:.2}{}}}{}\n",
            r.op,
            r.n,
            r.naive_us,
            r.pruned_us,
            r.naive_us / r.pruned_us,
            counters,
            if k + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    write_record("BENCH_PR2.json", &json, format!(" ({} rows)", rows.len()));
    let arb14 = rows
        .iter()
        .find(|r| r.op == "arbitration" && r.n == 14)
        .map(|r| r.naive_us / r.pruned_us)
        .unwrap_or(0.0);
    println!("arbitration n=14 speedup: {arb14:.1}x (acceptance floor: 4x)\n");
}

/// E12's dispatch tables: the universe selection timed against the
/// predicted work `2^n·|Mod(ψ)|` the kernel dispatches on (`kernel.rs`:
/// `ODIST_WORK_PER_CUBED_MODEL`, `WORK_PER_SCAN_WORKER`).
///
/// The crossover table sets the odist subcube constant. For each
/// `m = |Mod(ψ)|` from 2 to 32 it walks the width up from 6 and reports
/// the first width from which the pairwise-bounded subcube search beats
/// the straight scan at two widths in a row, with the `2^n/m²` that width
/// implies. Timings are medians of 5 runs over 24 random `ψ` per cell;
/// widths stop at 20.
///
/// The grid table shows the chosen rule at `m ∈ {4, 16, 64, 256}`: the
/// straight odist scan and the search, lex-odist universe fitting (the
/// chunked scan) with `ARBITREX_THREADS` at 1 and at the core count — that
/// pair shows the scan's split threshold — odist universe fitting through
/// its public entry point, i.e. whichever shape the dispatcher picked, and
/// weighted-sum universe fitting with distinct weights (1–9), which the
/// per-bit vote tally answers in closed form with no dispatch. 8 random
/// `ψ` per cell for `m ≤ 16`, 3 above; widths 18 and 20 only for the small
/// `ψ` that the search serves.
fn e12_dispatch() {
    use arbitrex_core::kernel::{select_min, select_min_subcube_odist};
    use arbitrex_core::{Budget, WeightedKb, WeightedUniverseFitting};
    use arbitrex_logic::all_interps;

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let threads = cores.max(2);
    let budget = &Budget::unlimited();
    /// Median of 5 runs of `f`, in µs per `ψ` of the cell.
    fn median_us(psis: usize, mut f: impl FnMut()) -> f64 {
        let mut runs: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        runs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        runs[2] / psis as f64
    }
    /// The straight odist scan the dispatcher falls back to.
    fn scan(models: &[Interp], n: u32, budget: &Budget) {
        let mut d = vec![0u32; models.len()];
        let sel = select_min(
            n,
            all_interps(n),
            |j, _| {
                for (dj, i) in d.iter_mut().zip(models) {
                    *dj = (i.0 ^ j.0).count_ones();
                }
                d.iter().copied().max()
            },
            budget,
        );
        std::hint::black_box(sel);
    }
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    // `count` random ψ of exactly `m` distinct models over `n` variables.
    let mut random_psis = |count: usize, m: usize, n: u32| -> Vec<ModelSet> {
        (0..count)
            .map(|_| {
                let mut models = std::collections::BTreeSet::new();
                while models.len() < m {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    models.insert(Interp(x & ((1 << n) - 1)));
                }
                ModelSet::new(n, models)
            })
            .collect()
    };

    let mut t = Table::new(["|Mod(ψ)|", "odist from n", "odist 2^n/m²"]);
    for m in [2usize, 3, 4, 6, 8, 12, 16, 24, 32] {
        let mut cells = vec![m.to_string()];
        let mut wins = 0;
        let mut from = None;
        for n in 6..=20u32 {
            let psis = random_psis(24, m, n);
            let time = |bnb: bool| {
                median_us(psis.len(), || {
                    for psi in &psis {
                        if bnb {
                            std::hint::black_box(select_min_subcube_odist(
                                n,
                                psi.as_slice(),
                                budget,
                            ));
                        } else {
                            scan(psi.as_slice(), n, budget);
                        }
                    }
                })
            };
            if time(true) < time(false) {
                wins += 1;
                from.get_or_insert(n);
                if wins == 2 {
                    break;
                }
            } else {
                wins = 0;
                from = None;
            }
        }
        match from.filter(|_| wins == 2) {
            Some(n) => {
                cells.push(n.to_string());
                cells.push(format!("{:.0}", (1u64 << n) as f64 / (m * m) as f64));
            }
            None => cells.extend(["none to 20".to_string(), "-".to_string()]),
        }
        t.row(cells);
    }
    println!("crossover: first width of two in a row where the subcube search beats the scan:");
    println!("{}\n", t.render());

    let mut t = Table::new([
        "|Mod(ψ)|",
        "n_vars",
        "work",
        "scan (µs)",
        "b&b (µs)",
        "lex x1 (µs)",
        &format!("lex x{threads} (µs)"),
        "odist dispatched (µs)",
        "wdist closed form (µs)",
    ]);
    for m in [4usize, 16, 64, 256] {
        let widths = (8..=16u32).chain(if m <= 16 { vec![18, 20] } else { vec![] });
        for n in widths {
            let psis = &random_psis(if m <= 16 { 8 } else { 3 }, m, n);
            let k = psis.len();
            let odist_scan = median_us(k, || {
                psis.iter().for_each(|p| scan(p.as_slice(), n, budget))
            });
            let bnb = median_us(k, || {
                for psi in psis {
                    std::hint::black_box(select_min_subcube_odist(n, psi.as_slice(), budget));
                }
            });
            let lex = |threads: usize| {
                std::env::set_var("ARBITREX_THREADS", threads.to_string());
                let us = median_us(k, || {
                    for psi in psis {
                        std::hint::black_box(LexOdistFitting.apply_universe(psi).unwrap());
                    }
                });
                std::env::remove_var("ARBITREX_THREADS");
                us
            };
            let (lex1, lext) = (lex(1), lex(threads));
            let odist_dispatched = median_us(k, || {
                for psi in psis {
                    std::hint::black_box(OdistFitting.apply_universe(psi).unwrap());
                }
            });
            // Weights 1..=9, fixed per model position.
            let weighted: Vec<WeightedKb> = psis
                .iter()
                .map(|p| {
                    let weights = p.iter().enumerate().map(|(k, i)| (i, 1 + k as u64 % 9));
                    WeightedKb::from_weights(n, weights)
                })
                .collect();
            let wdist = median_us(k, || {
                for psi in &weighted {
                    std::hint::black_box(WdistFitting.apply_universe(psi).unwrap());
                }
            });
            let work = (1u64 << n) * m as u64;
            t.row([
                m.to_string(),
                n.to_string(),
                work.to_string(),
                format!("{odist_scan:.0}"),
                format!("{bnb:.0}"),
                format!("{lex1:.0}"),
                format!("{lext:.0}"),
                format!("{odist_dispatched:.0}"),
                format!("{wdist:.1}"),
            ]);
        }
    }
    println!("dispatch grid (µs per selection, {cores} cores):");
    println!("{}", t.render());
}

/// E13 — telemetry overhead.
///
/// Times the instrumented hot paths in whichever build is running and
/// reports whether the counters were compiled in. EXPERIMENTS.md pairs the
/// output of the default build (telemetry on) with that of
/// `--no-default-features --features parallel` (telemetry off, parallel
/// kept on so only the counters differ) against the BENCH_PR1.json
/// baseline.
fn e13_overhead() {
    header(
        "E13",
        "telemetry overhead",
        "observability pass: counters must be ~free when on, free when off",
    );
    fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
        let mut runs: Vec<f64> = (0..reps)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        runs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        runs[reps / 2]
    }
    println!(
        "build: telemetry {}\n",
        if arbitrex_core::telemetry::enabled() {
            "ENABLED (default features)"
        } else {
            "COMPILED OUT (--no-default-features --features parallel)"
        }
    );
    let mut t = Table::new(["n_vars", "arbitration (µs)", "odist-fitting-vs-top (µs)"]);
    for n in [12u32, 14, 16] {
        // Same workload/seed as E12 so rows are comparable across builds
        // and against the BENCH_PR1.json baseline.
        let wl = random_pairs(n, 8, 4, 12);
        let reps = if n >= 16 { 5 } else { 9 };
        let arb = median_us(reps, || {
            for (psi, phi) in &wl.pairs {
                std::hint::black_box(arbitrate(psi, phi));
            }
        });
        let odist = median_us(reps, || {
            for (psi, _) in &wl.pairs {
                std::hint::black_box(OdistFitting.apply_universe(psi).unwrap());
            }
        });
        t.row([n.to_string(), format!("{arb:.1}"), format!("{odist:.1}")]);
    }
    println!("{}", t.render());
    println!("acceptance: telemetry-off must sit within 2% of the PR 1 baseline;");
    println!("telemetry-on should stay within a few percent (counters are batched");
    println!("into locals and flushed once per search).\n");
}

/// E14 — anytime degradation curve (robustness pass).
///
/// Two legs, both against exact oracles:
///
/// * **SAT leg**: Dalal revision on a pinned random-3CNF `μ` under a
///   conflict-limit ladder. The best-incumbent distance bound tightens
///   monotonically toward the optimum as the budget grows.
/// * **Enumeration leg**: arbitration over an 11-variable universe under
///   a step-limit ladder. Degraded answers are typed `UpperBound`
///   supersets (minima found so far ∪ not-yet-refuted frontier) that
///   shrink to the exact model set once the budget covers the scan.
///
/// Writes the machine-readable record to BENCH_PR3.json.
fn e14_anytime() {
    use arbitrex_core::kernel::naive;
    use arbitrex_core::satbackend::dalal_revision_sat_budgeted;
    use arbitrex_core::{try_arbitrate_with_budget, Budget};
    use arbitrex_logic::form_of;
    header(
        "E14",
        "anytime degradation curve",
        "robustness pass: budgets degrade to typed bounds, never panic",
    );

    struct JsonRow {
        leg: &'static str,
        budget: String,
        quality: &'static str,
        bound: String,
        models: usize,
        contains_exact: bool,
        work: u64,
    }
    let mut json_rows: Vec<JsonRow> = Vec::new();

    // SAT leg: ψ = the all-ones world, μ = a pinned near-phase-transition
    // 3-CNF (same generator as E8), so the distance ladder has to refute
    // several radii and the solver genuinely conflicts.
    let n_sat = 16u32;
    let psi_f = form_of(n_sat, [Interp((1u64 << n_sat) - 1)]);
    let mu_f = random_kcnf_pairs(n_sat, 1, 21).remove(0).0;
    let model_limit = 1 << 16;
    // A never-tripping conflict limit keeps the budget armed so the
    // exact run still meters its conflicts (unconstrained budgets skip
    // solver bookkeeping entirely).
    let exact_sat = dalal_revision_sat_budgeted(
        &psi_f,
        &mu_f,
        n_sat,
        model_limit,
        &Budget::unlimited().with_conflict_limit(u64::MAX),
    )
    .expect("model limit not reached");
    let mut t = Table::new([
        "conflict limit",
        "quality",
        "distance bound",
        "models",
        "contains exact",
    ]);
    for limit in [1u64, 2, 4, 8, 16, 32, 64, u64::MAX] {
        let budget = Budget::unlimited().with_conflict_limit(limit);
        let out = dalal_revision_sat_budgeted(&psi_f, &mu_f, n_sat, model_limit, &budget)
            .expect("model limit not reached");
        let contains = exact_sat.models.iter().all(|m| out.models.contains(m));
        let bound = out
            .distance
            .map(|d| d.to_string())
            .unwrap_or_else(|| "-".into());
        let label = if limit == u64::MAX {
            "unlimited".to_string()
        } else {
            limit.to_string()
        };
        t.row([
            label.clone(),
            out.quality.name().to_string(),
            bound.clone(),
            out.models.len().to_string(),
            if out.quality.is_exact() || out.quality == arbitrex_core::Quality::UpperBound {
                contains.to_string()
            } else {
                format!("{contains} (subset leg)")
            },
        ]);
        json_rows.push(JsonRow {
            leg: "sat-dalal",
            budget: label,
            quality: out.quality.name(),
            bound,
            models: out.models.len(),
            contains_exact: contains,
            work: out.spent.total(),
        });
    }
    println!("{}", t.render());
    println!(
        "exact optimum: distance {}, {} model(s), {} conflict(s) to prove\n",
        exact_sat.distance.unwrap(),
        exact_sat.models.len(),
        exact_sat.spent.conflicts
    );

    // Enumeration leg: 11 variables keep arbitration on the linear-scan
    // kernel path (2^11 candidates), whose meter charges the budget every
    // 1024 ticks — the step ladder below brackets those checkpoints.
    let wl = random_pairs(11, 8, 1, 12);
    let (psi, phi) = &wl.pairs[0];
    let exact_enum = naive::arbitrate(psi, phi);
    let mut t = Table::new([
        "step limit",
        "quality",
        "models",
        "superset of exact",
        "work units",
    ]);
    for limit in [512u64, 1536, u64::MAX] {
        let budget = Budget::unlimited().with_step_limit(limit);
        let out = try_arbitrate_with_budget(psi, phi, &budget).expect("within enum limit");
        let superset = exact_enum.iter().all(|m| out.models.contains(m));
        let label = if limit == u64::MAX {
            "unlimited".to_string()
        } else {
            limit.to_string()
        };
        t.row([
            label.clone(),
            out.quality.name().to_string(),
            out.models.len().to_string(),
            superset.to_string(),
            out.spent.total().to_string(),
        ]);
        json_rows.push(JsonRow {
            leg: "enum-arbitration",
            budget: label,
            quality: out.quality.name(),
            bound: "-".into(),
            models: out.models.len(),
            contains_exact: superset,
            work: out.spent.total(),
        });
    }
    println!("{}", t.render());
    println!(
        "exact arbitration: {} model(s); degraded rows report supersets that",
        exact_enum.len()
    );
    println!("shrink toward it as the budget covers more of the 2048-candidate scan.\n");

    // Machine-readable record (hand-rendered; no JSON dependency).
    let mut json = String::from("{\n  \"experiment\": \"e14-anytime-degradation\",\n");
    json.push_str(
        "  \"legs\": \"sat-dalal: conflict-limit ladder; enum-arbitration: step-limit ladder\",\n",
    );
    json.push_str(&format!(
        "  \"exact\": {{\"sat_distance\": {}, \"sat_models\": {}, \"enum_models\": {}}},\n",
        exact_sat.distance.unwrap(),
        exact_sat.models.len(),
        exact_enum.len()
    ));
    json.push_str("  \"rows\": [\n");
    for (k, r) in json_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"leg\": \"{}\", \"budget\": \"{}\", \"quality\": \"{}\", \"bound\": \"{}\", \"models\": {}, \"contains_exact\": {}, \"work_units\": {}}}{}\n",
            r.leg,
            r.budget,
            r.quality,
            r.bound,
            r.models,
            r.contains_exact,
            r.work,
            if k + 1 == json_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    write_record(
        "BENCH_PR3.json",
        &json,
        format!(" ({} rows)", json_rows.len()),
    );
}

/// E11 — iterated change dynamics (reproduction extension).
fn e11_dynamics() {
    use arbitrex_core::iterated::iterate_fixed_input;
    header(
        "E11",
        "iterated change dynamics",
        "extension: long-run behaviour of ψ ← op(ψ, μ) on a finite universe",
    );
    let ops: Vec<&dyn ChangeOperator> = vec![
        &DalalRevision,
        &WinslettUpdate,
        &OdistFitting,
        &LexOdistFitting,
        &SumFitting,
    ];
    let mut t = Table::new([
        "operator",
        "period-1 (fixpoint)",
        "period-2 (cycle)",
        "longer",
    ]);
    for op in &ops {
        let (mut p1, mut p2, mut longer) = (0u32, 0u32, 0u32);
        for pmask in 1u32..16 {
            for mmask in 1u32..16 {
                let psi = ModelSet::new(2, (0..4u64).filter(|b| pmask >> b & 1 == 1).map(Interp));
                let mu = ModelSet::new(2, (0..4u64).filter(|b| mmask >> b & 1 == 1).map(Interp));
                match iterate_fixed_input(*op, &psi, &mu, 64).period() {
                    Some(1) => p1 += 1,
                    Some(2) => p2 += 1,
                    _ => longer += 1,
                }
            }
        }
        t.row([
            op.name().to_string(),
            p1.to_string(),
            p2.to_string(),
            longer.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("finding: revision and update always reach a fixpoint (period 1), and");
    println!("so does the tie-breaking lex repair; the paper's tie-keeping odist");
    println!("operator can oscillate with period 2 — ψ = {{01,10}}, μ = ⊤ alternates");
    println!("with {{00,11}}: arbitration between two symmetric camps flips between");
    println!("the camps and their midpoints forever.\n");
}

/// A pool of `(ψ, φ)` query texts.
type QueryPool = Vec<(String, String)>;

/// The serving-bench query pool shared by E15 and E17: 64 structurally
/// distinct queries — widths 6..=9, with three fixed-shape queries plus
/// a polarity ladder (cubes with k positive literals, 1 <= k < n) per
/// width. Distinct widths, connective structure, or positive-literal
/// counts guarantee distinct canonical keys — alpha-renaming can permute
/// variables but never flip a polarity or change a width — so a disjoint
/// partition of the pool across clients makes pass 1 all misses and pass
/// 2 all hits by construction. Widths stay below 10: a wide disjunction
/// side has ~2^n models and the scan is O(candidates x models), so width
/// 13 queries run for seconds and a closed loop would measure one query,
/// not the service.
fn serving_query_pool() -> QueryPool {
    let mut out = Vec::new();
    for n in 6..=9usize {
        let vars: Vec<String> = (0..n).map(|i| format!("V{i}")).collect();
        let disj = vars.join(" | ");
        let conj = vars.join(" & ");
        let neg: Vec<String> = vars.iter().map(|v| format!("!{v}")).collect();
        let negconj = neg.join(" & ");
        let negdisj = neg.join(" | ");
        let pairs = vars
            .chunks(2)
            .map(|c| c.join(" & "))
            .collect::<Vec<_>>()
            .join(" | ");
        out.push((disj.clone(), negconj));
        out.push((conj, negdisj.clone()));
        out.push((pairs, disj.clone()));
        for k in 1..n {
            let cube = vars
                .iter()
                .enumerate()
                .map(|(i, v)| if i < k { v.clone() } else { format!("!{v}") })
                .collect::<Vec<_>>()
                .join(" & ");
            out.push((cube.clone(), disj.clone()));
            out.push((cube, negdisj.clone()));
        }
    }
    out
}

/// E15 — closed-loop serving load: worker scaling × canonicalizing cache
/// (engineering, PR 4).
///
/// Spawns an in-process `arbitrex-server` per leg (threads ∈ {1, 4, 8} ×
/// cache on/off), drives it with 8 keep-alive loopback clients replaying
/// a fixed pool of 24 structurally distinct arbitration queries, and runs
/// the identical workload twice. Pass 2 against a warm cache should be
/// almost all hits (the pool fits in the cache) and show a lower p50.
/// Writes the machine-readable record to BENCH_PR4.json.
fn e15_serving() {
    use arbitrex_server::{spawn, ServerConfig};
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};

    header(
        "E15",
        "service load: workers × canonicalizing result cache",
        "engineering (PR 4); no paper artifact",
    );

    const CLIENTS: usize = 8;

    /// One request on a keep-alive connection; returns latency in ns.
    fn one_request(stream: &mut TcpStream, body: &str) -> u64 {
        let started = Instant::now();
        let head = format!(
            "POST /v1/arbitrate HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        // One buffered write per request: splitting head and body into
        // separate small packets trips Nagle + delayed-ACK (~40 ms per
        // request) and the bench would measure the TCP stack, not the
        // service.
        let mut wire = head.into_bytes();
        wire.extend_from_slice(body.as_bytes());
        stream.write_all(&wire).expect("write request");
        let mut reply = Vec::with_capacity(512);
        let mut byte = [0u8; 1];
        loop {
            match stream.read(&mut byte) {
                Ok(0) => panic!("server closed connection mid-response"),
                Ok(_) => {
                    reply.push(byte[0]);
                    if reply.ends_with(b"\r\n\r\n") {
                        break;
                    }
                }
                Err(e) => panic!("read error: {e}"),
            }
        }
        let head_text = String::from_utf8_lossy(&reply);
        assert!(
            head_text.starts_with("HTTP/1.1 200"),
            "non-200 under load: {head_text}"
        );
        let length: usize = head_text
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("content-length")
            .trim()
            .parse()
            .expect("numeric length");
        let mut body_buf = vec![0u8; length];
        stream.read_exact(&mut body_buf).expect("read body");
        started.elapsed().as_nanos() as u64
    }

    /// Closed loop: each client sends its own disjoint slice of the pool
    /// back-to-back (slices never overlap, so the first pass sees every
    /// query exactly once). The partition is strided so each client gets
    /// a mix of widths — a contiguous split would hand one client every
    /// width-9 query and pin the wall clock to that slice alone.
    /// Returns (per-request latencies ns, wall ns).
    fn run_pass(addr: SocketAddr, queries: &[(String, String)]) -> (Vec<u64>, u64) {
        let wall = Instant::now();
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let slice: Vec<_> = queries
                    .iter()
                    .skip(client)
                    .step_by(CLIENTS)
                    .cloned()
                    .collect();
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream
                        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
                        .unwrap();
                    let _ = stream.set_nodelay(true);
                    let mut latencies = Vec::with_capacity(slice.len());
                    for (psi, phi) in &slice {
                        let body = format!(r#"{{"psi": "{psi}", "phi": "{phi}"}}"#);
                        latencies.push(one_request(&mut stream, &body));
                    }
                    latencies
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("client thread"));
        }
        (all, wall.elapsed().as_nanos() as u64)
    }

    fn quantile_us(sorted: &[u64], q: f64) -> f64 {
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx] as f64 / 1_000.0
    }

    let queries = serving_query_pool();
    assert_eq!(queries.len() % CLIENTS, 0, "pool must split evenly");
    let per_pass = queries.len();
    println!(
        "workload: {per_pass} distinct queries over {CLIENTS} keep-alive clients \
         (disjoint slices), two identical passes per leg\n"
    );
    println!("threads  cache  pass  req/s    p50 µs    p95 µs    hit-rate");

    let mut json_rows: Vec<String> = Vec::new();
    for &threads in &[1usize, 4, 8] {
        for &cache_on in &[true, false] {
            let server = spawn(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                threads,
                queue_depth: 256,
                cache_entries: if cache_on { 4096 } else { 0 },
                timeout_ms: 0,
                ..ServerConfig::default()
            })
            .expect("spawn server");
            let addr = server.addr;

            for pass in 1..=2u32 {
                use arbitrex_core::telemetry::{CACHE_HITS, CACHE_MISSES};
                let (hits0, misses0) = (CACHE_HITS.get(), CACHE_MISSES.get());
                let (mut latencies, wall_ns) = run_pass(addr, &queries);
                let (hits, misses) = (CACHE_HITS.get() - hits0, CACHE_MISSES.get() - misses0);
                latencies.sort_unstable();
                let p50 = quantile_us(&latencies, 0.50);
                let p95 = quantile_us(&latencies, 0.95);
                let rps = per_pass as f64 / (wall_ns as f64 / 1e9);
                let lookups = hits + misses;
                let hit_rate = if lookups == 0 {
                    None // cache disabled (all bypasses) or telemetry off
                } else {
                    Some(hits as f64 / lookups as f64)
                };
                let hit_text = match hit_rate {
                    Some(r) => format!("{:.1}%", r * 100.0),
                    None => "-".to_string(),
                };
                println!(
                    "{threads:<8} {:<6} {pass:<5} {rps:<8.0} {p50:<9.1} {p95:<9.1} {hit_text}",
                    if cache_on { "on" } else { "off" },
                );
                json_rows.push(format!(
                    "    {{\"threads\": {threads}, \"cache\": {cache_on}, \"pass\": {pass}, \
                     \"requests\": {per_pass}, \"wall_ms\": {:.1}, \"rps\": {rps:.0}, \
                     \"p50_us\": {p50:.1}, \"p95_us\": {p95:.1}, \"hit_rate\": {}}}",
                    wall_ns as f64 / 1e6,
                    match hit_rate {
                        Some(r) => format!("{r:.3}"),
                        None => "null".to_string(),
                    },
                ));
            }
            server.stop().expect("clean shutdown");
        }
    }

    let mut json = String::from("{\n  \"experiment\": \"e15-serving-load\",\n");
    json.push_str(
        "  \"workload\": \"64 distinct arbitration queries (widths 6-9, shapes + polarity ladder), \
         8 keep-alive clients with disjoint slices, closed loop, two identical passes per leg\",\n",
    );
    json.push_str("  \"rows\": [\n");
    json.push_str(&json_rows.join(",\n"));
    json.push_str("\n  ]\n}\n");
    write_record(
        "BENCH_PR4.json",
        &json,
        format!(" ({} rows)", json_rows.len()),
    );
}

/// E16 — durability cost (PR 5): what an fsync per commit buys and what
/// it costs. One keep-alive client storms sequential KB `put` commits at
/// a fresh server per leg — commits to a single KB serialize on its
/// entry lock, so one client measures the commit path itself, not lock
/// contention. Legs: the in-memory store (no WAL, the PR-4 baseline)
/// against the durable store at three snapshot cadences (never / every
/// 64 / every 16 records). Durable acks land only after the WAL record
/// is fsync'd, so the memory-vs-wal gap is the per-commit durability
/// bill and the cadence sweep prices the periodic snapshots on top.
/// Writes the machine-readable record to BENCH_PR5.json.
fn e16_durability() {
    use arbitrex_server::metrics::{WAL_FSYNCS, WAL_RECORDS_APPENDED, WAL_SNAPSHOTS_WRITTEN};
    use arbitrex_server::{spawn, ServerConfig};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    header(
        "E16",
        "durability cost: fsync-per-commit and snapshot cadence",
        "engineering (PR 5); no paper artifact",
    );

    const COMMITS: usize = 512;

    /// One `put` commit on a keep-alive connection; returns latency in ns.
    fn one_commit(stream: &mut TcpStream, seq: usize) -> u64 {
        // Alternate the stored formula so consecutive WAL records differ
        // (a constant payload could hide encoding bugs behind caching).
        let formula = if seq.is_multiple_of(2) {
            "A & B"
        } else {
            "A | B"
        };
        let body = format!(r#"{{"action": "put", "formula": "{formula}"}}"#);
        let started = Instant::now();
        let head = format!(
            "POST /v1/kb/e16 HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        // One buffered write per request, as in E15: separate head/body
        // packets trip Nagle + delayed-ACK and dwarf the fsync itself.
        let mut wire = head.into_bytes();
        wire.extend_from_slice(body.as_bytes());
        stream.write_all(&wire).expect("write request");
        let mut reply = Vec::with_capacity(512);
        let mut byte = [0u8; 1];
        loop {
            match stream.read(&mut byte) {
                Ok(0) => panic!("server closed connection mid-response"),
                Ok(_) => {
                    reply.push(byte[0]);
                    if reply.ends_with(b"\r\n\r\n") {
                        break;
                    }
                }
                Err(e) => panic!("read error: {e}"),
            }
        }
        let head_text = String::from_utf8_lossy(&reply);
        assert!(
            head_text.starts_with("HTTP/1.1 200"),
            "non-200 commit: {head_text}"
        );
        let length: usize = head_text
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("content-length")
            .trim()
            .parse()
            .expect("numeric length");
        let mut body_buf = vec![0u8; length];
        stream.read_exact(&mut body_buf).expect("read body");
        started.elapsed().as_nanos() as u64
    }

    fn quantile_us(sorted: &[u64], q: f64) -> f64 {
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx] as f64 / 1_000.0
    }

    println!(
        "workload: {COMMITS} sequential `put` commits to one KB over a \
         keep-alive connection, fresh server + state dir per leg\n"
    );
    println!("mode     snap-every  commits/s  p50 µs    p95 µs    fsyncs  snapshots");

    // (mode label, state dir?, snapshot cadence). `None` cadence means
    // the leg has no state dir at all — the in-memory baseline.
    let legs: [(&str, Option<u64>); 4] = [
        ("memory", None),
        ("wal", Some(0)),
        ("wal", Some(64)),
        ("wal", Some(16)),
    ];
    let mut json_rows: Vec<String> = Vec::new();
    for (leg_no, &(mode, snapshot_every)) in legs.iter().enumerate() {
        let state_dir = snapshot_every.map(|_| {
            let dir =
                std::env::temp_dir().join(format!("arbx-e16-{}-{leg_no}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create state dir");
            dir
        });
        let server = spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            cache_entries: 0,
            state_dir: state_dir.clone(),
            snapshot_every: snapshot_every.unwrap_or(0),
            // One sequential client: group commit could only add flusher
            // handoff, and this experiment prices the fsync *per commit*.
            // E17 measures the batched path.
            group_commit: false,
            ..ServerConfig::default()
        })
        .expect("spawn server");

        let (records0, fsyncs0, snaps0) = (
            WAL_RECORDS_APPENDED.get(),
            WAL_FSYNCS.get(),
            WAL_SNAPSHOTS_WRITTEN.get(),
        );
        let mut stream = TcpStream::connect(server.addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(60)))
            .unwrap();
        let _ = stream.set_nodelay(true);
        let wall = Instant::now();
        let mut latencies: Vec<u64> = (0..COMMITS).map(|i| one_commit(&mut stream, i)).collect();
        let wall_ns = wall.elapsed().as_nanos() as u64;
        drop(stream);
        // Deltas before stop(): clean shutdown writes one extra snapshot
        // that is not part of the measured commit storm.
        let records = WAL_RECORDS_APPENDED.get() - records0;
        let fsyncs = WAL_FSYNCS.get() - fsyncs0;
        let snapshots = WAL_SNAPSHOTS_WRITTEN.get() - snaps0;
        server.stop().expect("clean shutdown");
        if let Some(dir) = &state_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        if snapshot_every.is_some() {
            assert_eq!(records as usize, COMMITS, "every commit must hit the WAL");
        }

        latencies.sort_unstable();
        let p50 = quantile_us(&latencies, 0.50);
        let p95 = quantile_us(&latencies, 0.95);
        let cps = COMMITS as f64 / (wall_ns as f64 / 1e9);
        let snap_text = match snapshot_every {
            None => "-".to_string(),
            Some(0) => "never".to_string(),
            Some(n) => n.to_string(),
        };
        println!(
            "{mode:<8} {snap_text:<11} {cps:<10.0} {p50:<9.1} {p95:<9.1} {fsyncs:<7} {snapshots}"
        );
        json_rows.push(format!(
            "    {{\"mode\": \"{mode}\", \"snapshot_every\": {}, \"commits\": {COMMITS}, \
             \"wall_ms\": {:.1}, \"commits_per_s\": {cps:.0}, \"p50_us\": {p50:.1}, \
             \"p95_us\": {p95:.1}, \"fsyncs\": {fsyncs}, \"snapshots\": {snapshots}}}",
            match snapshot_every {
                None => "null".to_string(),
                Some(n) => n.to_string(),
            },
            wall_ns as f64 / 1e6,
        ));
    }

    let mut json = String::from("{\n  \"experiment\": \"e16-durability-cost\",\n");
    json.push_str(
        "  \"workload\": \"512 sequential KB put commits to one KB over a keep-alive \
         connection; in-memory baseline vs WAL-backed store at snapshot cadences \
         never/64/16; ack only after fsync on the durable legs\",\n",
    );
    json.push_str("  \"rows\": [\n");
    json.push_str(&json_rows.join(",\n"));
    json.push_str("\n  ]\n}\n");
    write_record(
        "BENCH_PR5.json",
        &json,
        format!(" ({} rows)", json_rows.len()),
    );
}

/// E17 — event-loop serving: HTTP/1.1 pipelining × WAL group commit
/// (engineering, PR 6).
///
/// Two halves, both against the epoll event-loop server:
///
/// **Serving**: 8 keep-alive clients at worker counts {1, 4, 8}, cache
/// on and warmed, measured two ways at equal request count — `serial`
/// (one request in flight per client, the E15 closed-loop shape) and
/// `pipelined` (batches of 16 requests per write) — on two workloads:
///
/// * `light` — small-result arbitration queries (opposite cubes, widths
///   3..=6; responses are a few hundred bytes). The RPC shape: per
///   request round-trip and syscall overhead dominate, which is exactly
///   what pipelining amortizes. This is the >= 5x-vs-E15 claim.
/// * `heavy` — the E15 query pool (widths 6..=9; cache-hit responses up
///   to ~31 KB of enumerated models). The bulk shape: the service is
///   bound on response *bytes*, not requests, so pipelining buys little
///   by construction — kept as the honest negative control.
///
/// **Durability**: 8 concurrent clients each storming sequential `put`
/// commits to their own KB, at workers = 4. Legs: in-memory store,
/// durable with group commit (one shared fsync acks a batch), durable
/// with `--group-commit=off` (fsync per commit, the E16/PR-5 path).
/// Group commit must land durable throughput within 2x of memory.
///
/// Writes the machine-readable record to BENCH_PR6.json. With
/// `ARBX_E17_QUICK=1` runs a single reduced serving leg (light pool,
/// workers = 4), prints one greppable `e17-quick ...` line for the CI
/// gate, and does not touch BENCH_PR6.json.
fn e17_event_loop() {
    use arbitrex_server::metrics::{GC_FSYNCS, WAL_FSYNCS};
    use arbitrex_server::{spawn, ServerConfig};
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};

    header(
        "E17",
        "event-loop serving: HTTP pipelining x WAL group commit",
        "engineering (PR 6); no paper artifact",
    );

    const CLIENTS: usize = 8;
    const DEPTH: usize = 16;
    let quick = std::env::var("ARBX_E17_QUICK").is_ok();
    let rounds: usize = if quick { 8 } else { 32 };

    /// Read one full HTTP response off a buffered stream; panic on
    /// non-200. Buffered so the client costs ~1 syscall per response
    /// instead of one per byte — on a small machine unbuffered client
    /// reads steal enough CPU to become the thing being measured.
    fn read_one_response(stream: &mut std::io::BufReader<TcpStream>) {
        let mut reply = Vec::with_capacity(512);
        let mut byte = [0u8; 1];
        loop {
            match stream.read(&mut byte) {
                Ok(0) => panic!("server closed connection mid-response"),
                Ok(_) => {
                    reply.push(byte[0]);
                    if reply.ends_with(b"\r\n\r\n") {
                        break;
                    }
                }
                Err(e) => panic!("read error: {e}"),
            }
        }
        let head_text = String::from_utf8_lossy(&reply);
        assert!(
            head_text.starts_with("HTTP/1.1 200"),
            "non-200 under load: {head_text}"
        );
        let length: usize = head_text
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("content-length")
            .trim()
            .parse()
            .expect("numeric length");
        let mut body_buf = vec![0u8; length];
        stream.read_exact(&mut body_buf).expect("read body");
    }

    fn raw_arbitrate(psi: &str, phi: &str) -> Vec<u8> {
        let body = format!(r#"{{"psi": "{psi}", "phi": "{phi}"}}"#);
        let mut wire = format!(
            "POST /v1/arbitrate HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body.as_bytes());
        wire
    }

    /// Small-result queries: ψ is a cube with k positive literals, φ its
    /// bitwise complement. Two single-model theories arbitrate to the
    /// balanced compromises between the two corners — C(n, n/2)-ish
    /// models, a few hundred bytes of response at widths 3..=6. Distinct
    /// (width, k) pairs are distinct canonical keys.
    fn light_pool() -> QueryPool {
        let mut out = Vec::new();
        for n in 3..=6usize {
            let vars: Vec<String> = (0..n).map(|i| format!("V{i}")).collect();
            for k in 0..n {
                let cube = |flip: bool| {
                    vars.iter()
                        .enumerate()
                        .map(|(i, v)| {
                            if (i < k) != flip {
                                v.clone()
                            } else {
                                format!("!{v}")
                            }
                        })
                        .collect::<Vec<_>>()
                        .join(" & ")
                };
                out.push((cube(false), cube(true)));
            }
        }
        out
    }

    /// Closed loop at a fixed pipeline depth: every client walks the
    /// whole pool (rotated by its index, so clients stay out of phase)
    /// `rounds` times, writing `depth` requests per `write(2)` and
    /// reading the `depth` responses back before the next batch.
    /// `depth == 1` is the E15 closed-loop shape. Returns
    /// (total requests, wall ns).
    fn run_leg(
        addr: SocketAddr,
        queries: &[(String, String)],
        depth: usize,
        rounds: usize,
    ) -> (usize, u64) {
        let wall = Instant::now();
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let offset = (client * queries.len()) / CLIENTS;
                let slice: Vec<Vec<u8>> = (0..queries.len())
                    .map(|i| {
                        let (psi, phi) = &queries[(offset + i) % queries.len()];
                        raw_arbitrate(psi, phi)
                    })
                    .collect();
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    stream
                        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
                        .unwrap();
                    let _ = stream.set_nodelay(true);
                    let mut writer = stream.try_clone().expect("clone stream");
                    let mut reader = std::io::BufReader::with_capacity(64 * 1024, stream);
                    let mut sent = 0usize;
                    let mut batch: Vec<u8> = Vec::with_capacity(4096);
                    let mut in_batch = 0usize;
                    for _ in 0..rounds {
                        for wire in &slice {
                            batch.extend_from_slice(wire);
                            in_batch += 1;
                            if in_batch == depth {
                                writer.write_all(&batch).expect("write batch");
                                for _ in 0..in_batch {
                                    read_one_response(&mut reader);
                                }
                                sent += in_batch;
                                batch.clear();
                                in_batch = 0;
                            }
                        }
                    }
                    if in_batch > 0 {
                        writer.write_all(&batch).expect("write batch");
                        for _ in 0..in_batch {
                            read_one_response(&mut reader);
                        }
                        sent += in_batch;
                    }
                    sent
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().expect("client")).sum();
        (total, wall.elapsed().as_nanos() as u64)
    }

    // --- serving half --------------------------------------------------------

    let worker_counts: &[usize] = if quick { &[4] } else { &[1, 4, 8] };
    let workloads: Vec<(&str, QueryPool, usize)> = if quick {
        vec![("light", light_pool(), rounds)]
    } else {
        // Rounds chosen so both workloads send a few thousand requests
        // per leg; the heavy pool moves ~30 KB per hit, so fewer rounds
        // keep its legs at comparable wall time.
        vec![
            ("light", light_pool(), rounds),
            ("heavy", serving_query_pool(), 4),
        ]
    };
    println!(
        "serving: {CLIENTS} keep-alive clients, warmed cache; serial (depth 1) vs \
         pipelined (depth {DEPTH}); light = small-result cube arbitrations \
         (widths 3-6), heavy = the E15 pool (widths 6-9, ~KB-scale responses)\n"
    );
    println!("workload  threads  mode       req/s     wall ms   speedup");

    let mut serving_rows: Vec<String> = Vec::new();
    let mut quick_line: Option<String> = None;
    for (workload, queries, rounds) in &workloads {
        for &threads in worker_counts {
            let server = spawn(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                threads,
                queue_depth: 256,
                cache_entries: 4096,
                timeout_ms: 0,
                ..ServerConfig::default()
            })
            .expect("spawn server");
            let addr = server.addr;

            // Warm the canonicalizing cache so both legs measure the
            // event loop and not first-touch arbitration compute.
            let _ = run_leg(addr, queries, 1, 1);

            let mut leg_rps = [0.0f64; 2];
            for (i, &depth) in [1usize, DEPTH].iter().enumerate() {
                let (requests, wall_ns) = run_leg(addr, queries, depth, *rounds);
                let rps = requests as f64 / (wall_ns as f64 / 1e9);
                leg_rps[i] = rps;
                let mode = if depth == 1 { "serial" } else { "pipelined" };
                let speedup = if i == 1 {
                    format!("{:.1}x", leg_rps[1] / leg_rps[0])
                } else {
                    "-".to_string()
                };
                println!(
                    "{workload:<9} {threads:<8} {mode:<10} {rps:<9.0} {:<9.1} {speedup}",
                    wall_ns as f64 / 1e6
                );
                serving_rows.push(format!(
                    "    {{\"workload\": \"{workload}\", \"threads\": {threads}, \
                     \"mode\": \"{mode}\", \"depth\": {depth}, \"requests\": {requests}, \
                     \"wall_ms\": {:.1}, \"rps\": {rps:.0}}}",
                    wall_ns as f64 / 1e6,
                ));
            }
            if quick {
                quick_line = Some(format!(
                    "e17-quick threads={threads} serial_rps={:.0} pipelined_rps={:.0} ratio={:.2}",
                    leg_rps[0],
                    leg_rps[1],
                    leg_rps[1] / leg_rps[0]
                ));
            }
            server.stop().expect("clean shutdown");
        }
    }
    println!();

    if let Some(line) = quick_line {
        // The greppable CI-gate line; quick mode stops here and leaves
        // BENCH_PR6.json alone.
        println!("{line}");
        return;
    }

    // --- durability half -----------------------------------------------------

    // More clients than the serving half: group commit's whole point is
    // amortizing the fsync across concurrent commits, so the storm needs
    // enough in-flight writers for one flush to cover a real batch.
    const STORM_CLIENTS: usize = 32;
    const COMMITS_PER_CLIENT: usize = 64;

    /// Concurrent clients, each sequentially committing to its own KB.
    /// Returns (total commits, wall ns).
    fn run_commit_storm(addr: SocketAddr) -> (usize, u64) {
        let wall = Instant::now();
        let handles: Vec<_> = (0..STORM_CLIENTS)
            .map(|client| {
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    stream
                        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
                        .unwrap();
                    let _ = stream.set_nodelay(true);
                    let mut writer = stream.try_clone().expect("clone stream");
                    let mut reader = std::io::BufReader::with_capacity(16 * 1024, stream);
                    for i in 0..COMMITS_PER_CLIENT {
                        let formula = if i % 2 == 0 { "A & B" } else { "A | B" };
                        let body = format!(r#"{{"action": "put", "formula": "{formula}"}}"#);
                        let mut wire = format!(
                            "POST /v1/kb/e17-{client} HTTP/1.1\r\nHost: bench\r\n\
                             Content-Length: {}\r\n\r\n",
                            body.len()
                        )
                        .into_bytes();
                        wire.extend_from_slice(body.as_bytes());
                        writer.write_all(&wire).expect("write commit");
                        read_one_response(&mut reader);
                    }
                    COMMITS_PER_CLIENT
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().expect("client")).sum();
        (total, wall.elapsed().as_nanos() as u64)
    }

    println!(
        "durability: {STORM_CLIENTS} concurrent clients x {COMMITS_PER_CLIENT} sequential \
         `put` commits to distinct KBs, workers = 16 (a committing worker parks in \
         wait-durable, so workers bound the flush batch), fresh server + state dir per leg\n"
    );
    println!("mode             commits/s  wall ms   fsyncs  commits/fsync  vs memory");

    // (label, durable?, group commit?)
    let legs: [(&str, bool, bool); 3] = [
        ("memory", false, false),
        ("group-commit", true, true),
        ("fsync-per-commit", true, false),
    ];
    let mut durability_rows: Vec<String> = Vec::new();
    let mut memory_cps = 0.0f64;
    for &(label, durable, group_commit) in &legs {
        let state_dir = durable.then(|| {
            let dir = std::env::temp_dir().join(format!("arbx-e17-{}-{label}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create state dir");
            dir
        });
        let server = spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 16,
            queue_depth: 256,
            cache_entries: 0,
            state_dir: state_dir.clone(),
            snapshot_every: 0,
            group_commit,
            ..ServerConfig::default()
        })
        .expect("spawn server");

        let (wal_fsyncs0, gc_fsyncs0) = (WAL_FSYNCS.get(), GC_FSYNCS.get());
        let (commits, wall_ns) = run_commit_storm(server.addr);
        let fsyncs = WAL_FSYNCS.get() - wal_fsyncs0;
        let gc_fsyncs = GC_FSYNCS.get() - gc_fsyncs0;
        server.stop().expect("clean shutdown");
        if let Some(dir) = &state_dir {
            let _ = std::fs::remove_dir_all(dir);
        }

        let cps = commits as f64 / (wall_ns as f64 / 1e9);
        if !durable {
            memory_cps = cps;
        }
        let per_fsync = if group_commit && gc_fsyncs > 0 {
            format!("{:.1}", commits as f64 / gc_fsyncs as f64)
        } else if durable && fsyncs > 0 {
            format!("{:.1}", commits as f64 / fsyncs as f64)
        } else {
            "-".to_string()
        };
        let vs_memory = if durable && memory_cps > 0.0 {
            format!("{:.2}x", cps / memory_cps)
        } else {
            "-".to_string()
        };
        println!(
            "{label:<16} {cps:<10.0} {:<9.1} {fsyncs:<7} {per_fsync:<14} {vs_memory}",
            wall_ns as f64 / 1e6
        );
        durability_rows.push(format!(
            "    {{\"mode\": \"{label}\", \"clients\": {STORM_CLIENTS}, \"commits\": {commits}, \
             \"wall_ms\": {:.1}, \"commits_per_s\": {cps:.0}, \"fsyncs\": {fsyncs}, \
             \"vs_memory\": {}}}",
            wall_ns as f64 / 1e6,
            if durable && memory_cps > 0.0 {
                format!("{:.3}", cps / memory_cps)
            } else {
                "null".to_string()
            },
        ));
    }

    let mut json = String::from("{\n  \"experiment\": \"e17-event-loop\",\n");
    json.push_str(
        "  \"workload\": \"serving: light (small-result cube arbitrations, widths 3-6) and \
         heavy (E15 pool, widths 6-9) over 8 keep-alive clients, warmed cache, serial (depth 1) \
         vs pipelined (depth 16) at workers 1/4/8; durability: 32 concurrent clients x 64 put \
         commits to distinct KBs at workers 16, memory vs group-commit vs fsync-per-commit\",\n",
    );
    json.push_str("  \"serving_rows\": [\n");
    json.push_str(&serving_rows.join(",\n"));
    json.push_str("\n  ],\n  \"durability_rows\": [\n");
    json.push_str(&durability_rows.join(",\n"));
    json.push_str("\n  ]\n}\n");
    write_record(
        "BENCH_PR6.json",
        &json,
        format!(
            " ({} serving rows, {} durability rows)",
            serving_rows.len(),
            durability_rows.len()
        ),
    );
}

/// E19 — replicated serving: WAL-shipping lag and failover time
/// (engineering, PR 8).
///
/// Two measurements on a loopback primary/replica pair, both phrased as
/// the client experiences them through the read-your-writes protocol:
///
/// **Replication lag**: commit to the primary, take the ack's
/// `X-Arbitrex-Seq` token, and poll the replica with
/// `X-Arbitrex-Min-Seq` until the 412s stop — the elapsed time is how
/// long the commit took to become readable on the follower. Two legs:
/// an idle pair, and the pair under the E17 load point (8 keep-alive
/// clients pipelining depth-16 arbitrations at the primary), so the lag
/// distribution reflects WAL shipping competing with real serving work.
///
/// **Failover time**: with the replica caught up to the acked
/// watermark, stop the primary, then measure from the
/// `POST /v1/replication/promote` request to the first successful
/// min-seq read at that watermark on the promoted node — the
/// write-visibility gap an explicit failover costs a caught-up replica.
/// A fresh pair per cycle (promotion is one-way).
///
/// Writes the machine-readable record to BENCH_PR8.json. With
/// `ARBX_E19_QUICK=1` runs reduced sample counts, prints one greppable
/// `e19-quick ...` line for `scripts/e19_gate.sh`, and does not touch
/// BENCH_PR8.json.
fn e19_replication() {
    use arbitrex_server::{spawn, RunningServer, ServerConfig};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    header(
        "E19",
        "replicated serving: WAL-shipping lag and failover time",
        "engineering (PR 8); no paper artifact",
    );

    const LOAD_CLIENTS: usize = 8;
    const LOAD_DEPTH: usize = 16;
    let quick = std::env::var("ARBX_E19_QUICK").is_ok();
    let lag_samples: usize = if quick { 40 } else { 200 };
    let failover_cycles: usize = if quick { 5 } else { 20 };

    /// One keep-alive connection speaking just enough HTTP/1.1:
    /// requests are strictly sequential, responses Content-Length
    /// framed, so byte-at-a-time head reads stay off the measured path
    /// (bodies here are tens of bytes).
    struct Conn {
        stream: TcpStream,
    }
    impl Conn {
        fn open(addr: std::net::SocketAddr) -> Conn {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(30)))
                .unwrap();
            let _ = stream.set_nodelay(true);
            Conn { stream }
        }

        /// Send one request with an optional extra header; return
        /// (status, response head).
        fn request(
            &mut self,
            method: &str,
            path: &str,
            extra: Option<(&str, &str)>,
            body: &str,
        ) -> (u16, String) {
            let mut head = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
            if let Some((name, value)) = extra {
                head.push_str(&format!("{name}: {value}\r\n"));
            }
            head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
            self.stream.write_all(head.as_bytes()).expect("write head");
            self.stream.write_all(body.as_bytes()).expect("write body");
            let mut reply = Vec::with_capacity(512);
            let mut byte = [0u8; 1];
            loop {
                match self.stream.read(&mut byte) {
                    Ok(0) => panic!("server closed connection mid-response"),
                    Ok(_) => {
                        reply.push(byte[0]);
                        if reply.ends_with(b"\r\n\r\n") {
                            break;
                        }
                    }
                    Err(e) => panic!("read error: {e}"),
                }
            }
            let head_text = String::from_utf8_lossy(&reply).to_string();
            let status: u16 = head_text
                .split_whitespace()
                .nth(1)
                .expect("status code")
                .parse()
                .expect("numeric status");
            let length: usize = head_text
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .expect("content-length")
                .trim()
                .parse()
                .expect("numeric length");
            let mut body_buf = vec![0u8; length];
            self.stream.read_exact(&mut body_buf).expect("read body");
            (status, head_text)
        }
    }

    fn header_u64(head: &str, name: &str) -> u64 {
        head.lines()
            .find_map(|l| l.strip_prefix(&format!("{name}: ")))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no {name} header in: {head}"))
    }

    fn temp_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("arbx-e19-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create state dir");
        dir
    }

    /// A durable primary/replica pair on fresh state dirs: two plain
    /// nodes, the second enlisted as the first's chain tail.
    fn spawn_pair(label: &str) -> (RunningServer, RunningServer, PathBuf, PathBuf) {
        let p_dir = temp_dir(&format!("{label}-p"));
        let r_dir = temp_dir(&format!("{label}-r"));
        let node = |dir: &PathBuf| {
            spawn(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                threads: 4,
                queue_depth: 256,
                cache_entries: 4096,
                state_dir: Some(dir.clone()),
                snapshot_every: 0,
                ..ServerConfig::default()
            })
            .expect("spawn node")
        };
        let primary = node(&p_dir);
        let replica = node(&r_dir);
        let (status, head) = Conn::open(primary.addr).request(
            "POST",
            "/v1/cluster/enlist",
            None,
            &format!(
                r#"{{"host": "{}", "addr": "{}"}}"#,
                primary.addr, replica.addr
            ),
        );
        assert_eq!(status, 200, "enlist failed: {head}");
        (primary, replica, p_dir, r_dir)
    }

    /// Poll `GET /v1/kb/{kb}` with `X-Arbitrex-Min-Seq: {rseq}` until
    /// the 412s stop; returns the wait in nanoseconds.
    fn wait_visible(conn: &mut Conn, kb: &str, rseq: u64) -> u64 {
        let t0 = Instant::now();
        loop {
            let (status, _) = conn.request(
                "GET",
                &format!("/v1/kb/{kb}"),
                Some(("X-Arbitrex-Min-Seq", &rseq.to_string())),
                "",
            );
            match status {
                200 => return t0.elapsed().as_nanos() as u64,
                412 => std::thread::sleep(std::time::Duration::from_micros(200)),
                other => panic!("unexpected status {other} waiting for rseq {rseq}"),
            }
        }
    }

    fn percentile(sorted: &[u64], p: f64) -> u64 {
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx]
    }

    /// One lag leg: `samples` sequential commits to the primary, each
    /// timed from its ack to its first successful min-seq read on the
    /// replica. Returns sorted waits in ns.
    fn lag_leg(primary: &RunningServer, replica: &RunningServer, samples: usize) -> Vec<u64> {
        let mut writer = Conn::open(primary.addr);
        let mut reader = Conn::open(replica.addr);
        let mut waits = Vec::with_capacity(samples);
        for i in 0..samples {
            let formula = if i % 2 == 0 { "A & B" } else { "A | B" };
            let body = format!(r#"{{"action": "put", "formula": "{formula}"}}"#);
            let (status, head) = writer.request("POST", "/v1/kb/lag", None, &body);
            assert_eq!(status, 200, "commit failed: {head}");
            let rseq = header_u64(&head, "X-Arbitrex-Seq");
            waits.push(wait_visible(&mut reader, "lag", rseq));
        }
        waits.sort_unstable();
        waits
    }

    /// Background load at the E17 light load point: `LOAD_CLIENTS`
    /// keep-alive clients pipelining depth-`LOAD_DEPTH` batches of
    /// small cube arbitrations at the primary until stopped.
    fn spawn_load(
        addr: std::net::SocketAddr,
        stop: Arc<AtomicBool>,
    ) -> Vec<std::thread::JoinHandle<()>> {
        let wires: Vec<Vec<u8>> = (3..=6usize)
            .flat_map(|n| {
                let vars: Vec<String> = (0..n).map(|i| format!("V{i}")).collect();
                (0..n).map(move |k| {
                    let cube = |flip: bool| {
                        vars.iter()
                            .enumerate()
                            .map(|(i, v)| {
                                if (i < k) != flip {
                                    v.clone()
                                } else {
                                    format!("!{v}")
                                }
                            })
                            .collect::<Vec<_>>()
                            .join(" & ")
                    };
                    let body = format!(r#"{{"psi": "{}", "phi": "{}"}}"#, cube(false), cube(true));
                    let mut wire = format!(
                        "POST /v1/arbitrate HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
                        body.len()
                    )
                    .into_bytes();
                    wire.extend_from_slice(body.as_bytes());
                    wire
                })
            })
            .collect();
        (0..LOAD_CLIENTS)
            .map(|client| {
                let stop = Arc::clone(&stop);
                let wires = wires.clone();
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect load");
                    stream
                        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
                        .unwrap();
                    let _ = stream.set_nodelay(true);
                    let mut writer = stream.try_clone().expect("clone stream");
                    let mut reader = std::io::BufReader::with_capacity(64 * 1024, stream);
                    let offset = (client * wires.len()) / LOAD_CLIENTS;
                    let mut cursor = offset;
                    while !stop.load(Ordering::Relaxed) {
                        let mut batch: Vec<u8> = Vec::with_capacity(4096);
                        for _ in 0..LOAD_DEPTH {
                            batch.extend_from_slice(&wires[cursor % wires.len()]);
                            cursor += 1;
                        }
                        writer.write_all(&batch).expect("write load batch");
                        for _ in 0..LOAD_DEPTH {
                            let mut reply = Vec::with_capacity(512);
                            let mut byte = [0u8; 1];
                            loop {
                                match reader.read(&mut byte) {
                                    Ok(0) => panic!("server closed load connection"),
                                    Ok(_) => {
                                        reply.push(byte[0]);
                                        if reply.ends_with(b"\r\n\r\n") {
                                            break;
                                        }
                                    }
                                    Err(e) => panic!("load read error: {e}"),
                                }
                            }
                            let head_text = String::from_utf8_lossy(&reply);
                            let length: usize = head_text
                                .lines()
                                .find_map(|l| l.strip_prefix("Content-Length: "))
                                .expect("content-length")
                                .trim()
                                .parse()
                                .expect("numeric length");
                            let mut body_buf = vec![0u8; length];
                            reader.read_exact(&mut body_buf).expect("read load body");
                        }
                    }
                })
            })
            .collect()
    }

    // --- replication lag -----------------------------------------------------

    println!(
        "lag: {lag_samples} sequential commits, each timed from its ack to the first\n\
         successful X-Arbitrex-Min-Seq read on the replica; loaded leg adds the E17\n\
         light load point ({LOAD_CLIENTS} clients x depth {LOAD_DEPTH} pipelined arbitrations)\n"
    );
    println!("leg     p50 us    p99 us    max us");

    let mut lag_rows: Vec<String> = Vec::new();
    let mut quick_stats = [0u64; 4]; // idle p50/p99, failover p50/p99 (us/ms)
    for leg in ["idle", "loaded"] {
        let (primary, replica, p_dir, r_dir) = spawn_pair(&format!("lag-{leg}"));
        let stop = Arc::new(AtomicBool::new(false));
        let load = if leg == "loaded" {
            // Let the load reach steady state before sampling.
            let handles = spawn_load(primary.addr, Arc::clone(&stop));
            std::thread::sleep(std::time::Duration::from_millis(200));
            handles
        } else {
            Vec::new()
        };
        let waits = lag_leg(&primary, &replica, lag_samples);
        stop.store(true, Ordering::Relaxed);
        for handle in load {
            handle.join().expect("load client");
        }
        let (p50, p99, max) = (
            percentile(&waits, 50.0) / 1_000,
            percentile(&waits, 99.0) / 1_000,
            waits[waits.len() - 1] / 1_000,
        );
        if leg == "idle" {
            quick_stats[0] = p50;
            quick_stats[1] = p99;
        }
        println!("{leg:<7} {p50:<9} {p99:<9} {max}");
        lag_rows.push(format!(
            "    {{\"leg\": \"{leg}\", \"samples\": {lag_samples}, \"p50_us\": {p50}, \
             \"p99_us\": {p99}, \"max_us\": {max}}}"
        ));
        replica.stop().expect("stop replica");
        primary.stop().expect("stop primary");
        let _ = std::fs::remove_dir_all(p_dir);
        let _ = std::fs::remove_dir_all(r_dir);
    }
    println!();

    // --- failover time -------------------------------------------------------

    println!(
        "failover: {failover_cycles} cycles of commit, catch the replica up, stop the\n\
         primary, then time promote -> first successful min-seq read at the acked\n\
         watermark on the promoted node (fresh pair per cycle)\n"
    );
    let mut failover_ns: Vec<u64> = Vec::with_capacity(failover_cycles);
    for cycle in 0..failover_cycles {
        let (primary, replica, p_dir, r_dir) = spawn_pair(&format!("failover-{cycle}"));
        let mut writer = Conn::open(primary.addr);
        let mut last_rseq = 0;
        for i in 0..8usize {
            let formula = if i % 2 == 0 { "A & B" } else { "A | B" };
            let body = format!(r#"{{"action": "put", "formula": "{formula}"}}"#);
            let (status, head) = writer.request("POST", "/v1/kb/failover", None, &body);
            assert_eq!(status, 200, "commit failed: {head}");
            last_rseq = header_u64(&head, "X-Arbitrex-Seq");
        }
        // The replica must hold the acked watermark before the primary
        // dies — this measures failover, not anti-entropy.
        let mut reader = Conn::open(replica.addr);
        wait_visible(&mut reader, "failover", last_rseq);
        primary.stop().expect("stop primary");

        let t0 = Instant::now();
        let (status, _) = reader.request("POST", "/v1/replication/promote", None, "");
        assert_eq!(status, 200, "promote failed");
        wait_visible(&mut reader, "failover", last_rseq);
        failover_ns.push(t0.elapsed().as_nanos() as u64);

        // The promoted node accepts writes (sanity, untimed).
        let body = r#"{"action": "put", "formula": "A"}"#;
        let (status, head) = reader.request("POST", "/v1/kb/failover", None, body);
        assert_eq!(status, 200, "post-failover write refused");
        assert!(
            header_u64(&head, "X-Arbitrex-Seq") > last_rseq,
            "rseq reused across failover"
        );
        replica.stop().expect("stop promoted node");
        let _ = std::fs::remove_dir_all(p_dir);
        let _ = std::fs::remove_dir_all(r_dir);
    }
    failover_ns.sort_unstable();
    let (fo_p50, fo_p99, fo_max) = (
        percentile(&failover_ns, 50.0) / 1_000,
        percentile(&failover_ns, 99.0) / 1_000,
        failover_ns[failover_ns.len() - 1] / 1_000,
    );
    quick_stats[2] = fo_p50;
    quick_stats[3] = fo_p99;
    println!("failover us: p50 {fo_p50}, p99 {fo_p99}, max {fo_max}\n");

    if quick {
        // The greppable CI-gate line; quick mode stops here and leaves
        // BENCH_PR8.json alone.
        println!(
            "e19-quick lag_p50_us={} lag_p99_us={} failover_p50_us={} failover_p99_us={}",
            quick_stats[0], quick_stats[1], quick_stats[2], quick_stats[3]
        );
        return;
    }

    let mut json = String::from("{\n  \"experiment\": \"e19-replication\",\n");
    json.push_str(&format!(
        "  \"workload\": \"lag: {lag_samples} sequential commits timed ack -> first \
         successful X-Arbitrex-Min-Seq read on the replica, idle and under the E17 light \
         load point ({LOAD_CLIENTS} clients x depth {LOAD_DEPTH}); failover: \
         {failover_cycles} cycles timing promote -> first min-seq read at the acked \
         watermark on a caught-up replica\",\n",
    ));
    json.push_str("  \"lag_rows\": [\n");
    json.push_str(&lag_rows.join(",\n"));
    json.push_str(&format!(
        "\n  ],\n  \"failover\": {{\"cycles\": {failover_cycles}, \"p50_us\": {fo_p50}, \
         \"p99_us\": {fo_p99}, \"max_us\": {fo_max}}}\n}}\n"
    ));
    write_record(
        "BENCH_PR8.json",
        &json,
        format!(" ({} lag rows)", lag_rows.len()),
    );
}

/// Two measurements on loopback shard clusters, both phrased as the
/// client experiences them through the consistent-hash routing layer:
///
/// **Multi-primary scaling**: aggregate commit throughput at 1, 2, and
/// 3 primaries on a disjoint-KB workload, with the per-node load held
/// fixed (4 sequential writers per node, each owning one KB pre-routed
/// to its shard owner). Every node runs durable with a 2 ms
/// group-commit flush interval, so a single writer's commit latency is
/// pinned to the flush cadence and per-node throughput is
/// latency-bound, not CPU-bound — the question the experiment answers
/// is whether adding primaries adds proportional capacity or whether
/// ring routing, epoch stamping, and shared-host contention eat it.
///
/// **Handoff blackout**: one writer streams sequential commits to a KB
/// while the node that owns it admits a newcomer whose ring slice
/// captures that KB. The writer follows `307` redirects to the new
/// owner and retries the typed `503` handoff fence; the blackout is
/// the longest gap between consecutive acks across the migration. The
/// KB's `seq` must climb monotonically through the handoff — an acked
/// commit that vanished would show up as a seq regression.
///
/// Writes the machine-readable record to BENCH_PR9.json. With
/// `ARBX_E20_QUICK=1` runs shortened windows, prints one greppable
/// `e20-quick ...` line for `scripts/e20_gate.sh`, and does not touch
/// BENCH_PR9.json.
fn e20_sharding() {
    use arbitrex_server::shard::{ShardRing, DEFAULT_VNODES};
    use arbitrex_server::{spawn, RunningServer, ServerConfig};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    header(
        "E20",
        "sharded serving: multi-primary scaling and handoff blackout",
        "engineering (PR 9); no paper artifact",
    );

    const WRITERS_PER_NODE: usize = 4;
    const FLUSH_US: u64 = 2_000;
    let quick = std::env::var("ARBX_E20_QUICK").is_ok();
    let window_ms: u64 = if quick { 1_200 } else { 4_000 };

    /// One keep-alive connection speaking just enough HTTP/1.1 (same
    /// shape as E19's client, plus the body — shard routing answers
    /// live in headers *and* bodies: `Location` on 307, `seq` on 200).
    struct Conn {
        stream: TcpStream,
    }
    impl Conn {
        fn open(addr: &str) -> Conn {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(30)))
                .unwrap();
            let _ = stream.set_nodelay(true);
            Conn { stream }
        }

        fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, String, String) {
            let head = format!(
                "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
                body.len()
            );
            self.stream.write_all(head.as_bytes()).expect("write head");
            self.stream.write_all(body.as_bytes()).expect("write body");
            let mut reply = Vec::with_capacity(512);
            let mut byte = [0u8; 1];
            loop {
                match self.stream.read(&mut byte) {
                    Ok(0) => panic!("server closed connection mid-response"),
                    Ok(_) => {
                        reply.push(byte[0]);
                        if reply.ends_with(b"\r\n\r\n") {
                            break;
                        }
                    }
                    Err(e) => panic!("read error: {e}"),
                }
            }
            let head_text = String::from_utf8_lossy(&reply).to_string();
            let status: u16 = head_text
                .split_whitespace()
                .nth(1)
                .expect("status code")
                .parse()
                .expect("numeric status");
            let length: usize = head_text
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .expect("content-length")
                .trim()
                .parse()
                .expect("numeric length");
            let mut body_buf = vec![0u8; length];
            self.stream.read_exact(&mut body_buf).expect("read body");
            (
                status,
                head_text,
                String::from_utf8_lossy(&body_buf).to_string(),
            )
        }
    }

    fn header_str(head: &str, name: &str) -> String {
        head.lines()
            .find_map(|l| l.strip_prefix(&format!("{name}: ")))
            .map(|v| v.trim().to_string())
            .unwrap_or_else(|| panic!("no {name} header in: {head}"))
    }

    fn seq_of(body: &str) -> u64 {
        body.split("\"seq\":")
            .nth(1)
            .and_then(|tail| {
                tail.trim_start()
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect::<String>()
                    .parse()
                    .ok()
            })
            .unwrap_or_else(|| panic!("no seq in {body}"))
    }

    fn temp_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("arbx-e20-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create state dir");
        dir
    }

    /// A durable shard member on a fresh state dir, advertising its
    /// bound address as its ring identity (solo ring until joined).
    fn spawn_node(label: &str) -> (RunningServer, PathBuf) {
        let dir = temp_dir(label);
        let node = spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            queue_depth: 256,
            cache_entries: 4096,
            state_dir: Some(dir.clone()),
            snapshot_every: 0,
            flush_interval_us: FLUSH_US,
            ..ServerConfig::default()
        })
        .expect("spawn shard node");
        (node, dir)
    }

    /// Spawn `n` solo members and join them into one cluster through
    /// the real membership path (node 0 is the join coordinator).
    fn spawn_cluster(label: &str, n: usize) -> (Vec<RunningServer>, Vec<PathBuf>, Vec<String>) {
        let mut nodes = Vec::with_capacity(n);
        let mut dirs = Vec::with_capacity(n);
        for i in 0..n {
            let (node, dir) = spawn_node(&format!("{label}-{i}"));
            nodes.push(node);
            dirs.push(dir);
        }
        let addrs: Vec<String> = nodes.iter().map(|node| node.addr.to_string()).collect();
        let mut coordinator = Conn::open(&addrs[0]);
        for addr in &addrs[1..] {
            let (status, _, body) = coordinator.request(
                "POST",
                "/v1/cluster/join",
                &format!(r#"{{"addr": "{addr}"}}"#),
            );
            assert_eq!(status, 200, "join failed: {body}");
        }
        (nodes, dirs, addrs)
    }

    /// For each member, `per_node` KB names the ring places on it.
    fn disjoint_kbs(addrs: &[String], per_node: usize) -> Vec<(usize, String)> {
        let ring = ShardRing::new(addrs.iter().cloned(), DEFAULT_VNODES, addrs.len() as u64);
        let mut counts = vec![0usize; addrs.len()];
        let mut kbs = Vec::with_capacity(addrs.len() * per_node);
        let mut i = 0;
        while kbs.len() < addrs.len() * per_node {
            let name = format!("e20-kb-{i}");
            i += 1;
            let owner = ring.owner_of(&name).expect("nonempty ring");
            let node = addrs.iter().position(|a| a == owner).expect("member");
            if counts[node] < per_node {
                counts[node] += 1;
                kbs.push((node, name));
            }
        }
        kbs
    }

    /// One scaling leg: `WRITERS_PER_NODE` sequential writers per node,
    /// each committing to its own pre-routed KB; aggregate acks/s over
    /// the measured window (after a short warmup).
    fn throughput_leg(label: &str, n: usize, window_ms: u64) -> u64 {
        let (nodes, dirs, addrs) = spawn_cluster(label, n);
        let stop = Arc::new(AtomicBool::new(false));
        let counting = Arc::new(AtomicBool::new(false));
        let acks = Arc::new(AtomicU64::new(0));
        let writers: Vec<_> = disjoint_kbs(&addrs, WRITERS_PER_NODE)
            .into_iter()
            .map(|(node, kb)| {
                let addr = addrs[node].clone();
                let stop = Arc::clone(&stop);
                let counting = Arc::clone(&counting);
                let acks = Arc::clone(&acks);
                std::thread::spawn(move || {
                    let mut conn = Conn::open(&addr);
                    let mut i = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let formula = if i.is_multiple_of(2) {
                            "A & B"
                        } else {
                            "A | B"
                        };
                        i += 1;
                        let body = format!(r#"{{"action": "put", "formula": "{formula}"}}"#);
                        let (status, _, reply) =
                            conn.request("POST", &format!("/v1/kb/{kb}"), &body);
                        assert_eq!(status, 200, "pre-routed commit failed: {reply}");
                        if counting.load(Ordering::Relaxed) {
                            acks.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(300)); // warmup
        counting.store(true, Ordering::Relaxed);
        let t0 = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(window_ms));
        counting.store(false, Ordering::Relaxed);
        let elapsed = t0.elapsed();
        stop.store(true, Ordering::Relaxed);
        for writer in writers {
            writer.join().expect("writer");
        }
        let rate = (acks.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64()) as u64;
        for node in nodes {
            node.stop().expect("stop node");
        }
        for dir in dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        rate
    }

    // --- multi-primary scaling -----------------------------------------------

    println!(
        "scaling: {WRITERS_PER_NODE} sequential writers per node, each owning one KB\n\
         pre-routed to its shard owner; durable, group-commit flush {FLUSH_US} us, so\n\
         per-node throughput is flush-cadence-bound ({window_ms} ms windows)\n"
    );
    println!("primaries   aggregate commits/s   scale");
    let mut aggregate = [0u64; 3];
    for (slot, n) in [1usize, 2, 3].into_iter().enumerate() {
        aggregate[slot] = throughput_leg(&format!("scale-{n}"), n, window_ms);
        let scale = aggregate[slot] as f64 / aggregate[0].max(1) as f64;
        println!("{n:<11} {:<21} {scale:.2}x", aggregate[slot]);
    }
    let scale_x100 = aggregate[2] * 100 / aggregate[0].max(1);
    println!();

    // --- handoff blackout ----------------------------------------------------

    println!(
        "blackout: one writer streams commits to a KB whose slice a joining member\n\
         captures; the writer follows 307s and retries the 503 handoff fence; the\n\
         blackout is the longest ack-to-ack gap across the migration\n"
    );
    let (node_a, dir_a) = spawn_node("blackout-a");
    let (node_b, dir_b) = spawn_node("blackout-b");
    let addr_a = node_a.addr.to_string();
    let addr_b = node_b.addr.to_string();
    // A name the two-member ring will hand to the newcomer.
    let grown = ShardRing::new([addr_a.clone(), addr_b.clone()], DEFAULT_VNODES, 2);
    let moving = (0..)
        .map(|i| format!("e20-move-{i}"))
        .find(|name| grown.owner_of(name) == Some(addr_b.as_str()))
        .expect("some name lands on the newcomer");

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let addrs = [addr_a.clone(), addr_b.clone()];
        let stop = Arc::clone(&stop);
        let moving = moving.clone();
        std::thread::spawn(move || {
            let mut conns: Vec<Option<Conn>> = vec![None, None];
            let mut target = 0usize;
            let mut last_seq = 0u64;
            let mut acks: Vec<Instant> = Vec::with_capacity(4096);
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let formula = if i.is_multiple_of(2) {
                    "A & B"
                } else {
                    "A | B"
                };
                i += 1;
                let body = format!(r#"{{"action": "put", "formula": "{formula}"}}"#);
                let conn = conns[target].get_or_insert_with(|| Conn::open(&addrs[target]));
                let (status, head, reply) =
                    conn.request("POST", &format!("/v1/kb/{moving}"), &body);
                match status {
                    200 => {
                        let seq = seq_of(&reply);
                        assert!(seq > last_seq, "seq regressed {last_seq} -> {seq}: an acked commit vanished in the handoff");
                        last_seq = seq;
                        acks.push(Instant::now());
                    }
                    307 => {
                        let owner = header_str(&head, "X-Arbitrex-Shard-Owner");
                        target = addrs
                            .iter()
                            .position(|a| *a == owner)
                            .expect("redirect inside the cluster");
                    }
                    503 => std::thread::sleep(std::time::Duration::from_millis(1)),
                    other => panic!("unexpected status {other}: {reply}"),
                }
            }
            (acks, last_seq)
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(300)); // baseline cadence
    let mut coordinator = Conn::open(&addr_a);
    let (status, _, body) = coordinator.request(
        "POST",
        "/v1/cluster/join",
        &format!(r#"{{"addr": "{addr_b}"}}"#),
    );
    assert_eq!(status, 200, "join failed: {body}");
    std::thread::sleep(std::time::Duration::from_millis(500)); // post-handoff cadence
    stop.store(true, Ordering::Relaxed);
    let (acks, final_seq) = writer.join().expect("blackout writer");
    assert!(acks.len() > 50, "writer starved: {} acks", acks.len());
    let blackout_ms = acks
        .windows(2)
        .map(|pair| pair[1].duration_since(pair[0]).as_millis() as u64)
        .max()
        .unwrap_or(0);
    println!(
        "blackout ms: {blackout_ms} (longest ack gap; {} acks, final seq {final_seq})\n",
        acks.len()
    );
    node_b.stop().expect("stop newcomer");
    node_a.stop().expect("stop old owner");
    let _ = std::fs::remove_dir_all(dir_a);
    let _ = std::fs::remove_dir_all(dir_b);

    if quick {
        // The greppable CI-gate line; quick mode stops here and leaves
        // BENCH_PR9.json alone.
        println!(
            "e20-quick agg1={} agg2={} agg3={} scale_x100={scale_x100} blackout_ms={blackout_ms}",
            aggregate[0], aggregate[1], aggregate[2]
        );
        return;
    }

    let mut json = String::from("{\n  \"experiment\": \"e20-sharding\",\n");
    json.push_str(&format!(
        "  \"workload\": \"scaling: {WRITERS_PER_NODE} sequential writers per node on \
         disjoint pre-routed KBs, durable with {FLUSH_US} us group-commit flush, \
         {window_ms} ms windows; blackout: one writer across a join-triggered handoff, \
         following 307 redirects and retrying the 503 fence\",\n",
    ));
    json.push_str("  \"scaling_rows\": [\n");
    let rows: Vec<String> = [1usize, 2, 3]
        .into_iter()
        .enumerate()
        .map(|(slot, n)| {
            format!(
                "    {{\"primaries\": {n}, \"writers\": {}, \"aggregate_commits_per_s\": {}}}",
                n * WRITERS_PER_NODE,
                aggregate[slot]
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str(&format!(
        "\n  ],\n  \"scale_3_over_1_x100\": {scale_x100},\n  \
         \"handoff\": {{\"blackout_ms\": {blackout_ms}, \"acks\": {}, \
         \"final_seq\": {final_seq}}}\n}}\n",
        acks.len()
    ));
    write_record("BENCH_PR9.json", &json, String::new());
}

/// E21 — chain failover: the detection + promotion write blackout.
///
/// A three-node chained cluster (head with an enlisted replica, plus
/// one chain-external voter) serves a writer streaming sequential
/// commits to a chain-owned KB. The writer follows `307` redirects,
/// retries typed `503`s, and survives transport errors by rotating to
/// the next live member — exactly what a well-behaved routed client
/// does. Mid-stream the chain head is stopped; the failure detector
/// suspects it, the voter confirms, the replica self-promotes, and the
/// writer's acks resume against the new head. The **blackout** is the
/// longest ack-to-ack gap across the failover: detection
/// (`probe interval × suspect_after`) dominates, promotion and ring
/// broadcast are the tail. Repeated over independent trials for
/// p50/p99.
///
/// Acked commits the dead head never shipped are *not* lost by design
/// — they come back through the revival Δ-reconcile (DESIGN.md §14.4)
/// — but this experiment kills heads for good, so any ack the replica
/// had not yet applied shows up as a per-trial `regressed` count
/// (reported, not failed: it measures the shipping window, not a bug).
///
/// Writes the machine-readable record to BENCH_PR10.json. With
/// `ARBX_E21_QUICK=1` runs fewer trials, prints one greppable
/// `e21-quick ...` line for `scripts/e21_gate.sh`, and does not touch
/// BENCH_PR10.json.
fn e21_failover() {
    use arbitrex_server::shard::{ShardRing, DEFAULT_VNODES};
    use arbitrex_server::{spawn, RunningServer, ServerConfig};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    header(
        "E21",
        "chain failover: detection + promotion write blackout",
        "engineering (PR 10); no paper artifact",
    );

    const PROBE_MS: u64 = 100;
    const SUSPECT_AFTER: u32 = 2;
    const FLUSH_US: u64 = 2_000;
    let quick = std::env::var("ARBX_E21_QUICK").is_ok();
    let trials: usize = if quick { 2 } else { 9 };

    /// E20's keep-alive client, with transport errors surfaced as
    /// `Err` instead of panics — this writer must outlive the server
    /// it is talking to.
    struct Conn {
        stream: TcpStream,
    }
    impl Conn {
        fn open(addr: &str) -> std::io::Result<Conn> {
            let stream = TcpStream::connect(addr)?;
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .unwrap();
            let _ = stream.set_nodelay(true);
            Ok(Conn { stream })
        }

        fn request(
            &mut self,
            method: &str,
            path: &str,
            body: &str,
        ) -> std::io::Result<(u16, String, String)> {
            let head = format!(
                "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
                body.len()
            );
            self.stream.write_all(head.as_bytes())?;
            self.stream.write_all(body.as_bytes())?;
            let mut reply = Vec::with_capacity(512);
            let mut byte = [0u8; 1];
            loop {
                match self.stream.read(&mut byte)? {
                    0 => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "closed mid-response",
                        ))
                    }
                    _ => {
                        reply.push(byte[0]);
                        if reply.ends_with(b"\r\n\r\n") {
                            break;
                        }
                    }
                }
            }
            let head_text = String::from_utf8_lossy(&reply).to_string();
            let status: u16 = head_text
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| std::io::Error::other("bad status line"))?;
            let length: usize = head_text
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| std::io::Error::other("missing content-length"))?;
            let mut body_buf = vec![0u8; length];
            self.stream.read_exact(&mut body_buf)?;
            Ok((
                status,
                head_text,
                String::from_utf8_lossy(&body_buf).to_string(),
            ))
        }
    }

    fn seq_of(body: &str) -> Option<u64> {
        body.split("\"seq\":").nth(1).and_then(|tail| {
            tail.trim_start()
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .ok()
        })
    }

    fn temp_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("arbx-e21-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create state dir");
        dir
    }

    fn spawn_node(
        label: &str,
        configure: impl FnOnce(&mut ServerConfig),
    ) -> (RunningServer, PathBuf) {
        let dir = temp_dir(label);
        let mut config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            queue_depth: 256,
            cache_entries: 1024,
            state_dir: Some(dir.clone()),
            snapshot_every: 0,
            flush_interval_us: FLUSH_US,
            probe_interval_ms: PROBE_MS,
            suspect_after: SUSPECT_AFTER,
            ..ServerConfig::default()
        };
        configure(&mut config);
        (spawn(config).expect("spawn chain node"), dir)
    }

    /// One failover trial: returns (blackout_ms, acks, regressed).
    fn trial(i: usize) -> (u64, usize, u64) {
        // Head, voter, join; then a streaming replica enlisted as the
        // head's chain tail.
        let (head, dir_h) = spawn_node(&format!("{i}-head"), |_| {});
        let (voter, dir_v) = spawn_node(&format!("{i}-voter"), |_| {});
        let head_addr = head.addr.to_string();
        let voter_addr = voter.addr.to_string();
        let mut c = Conn::open(&head_addr).expect("connect head");
        let (status, _, body) = c
            .request(
                "POST",
                "/v1/cluster/join",
                &format!(r#"{{"addr": "{voter_addr}"}}"#),
            )
            .expect("join");
        assert_eq!(status, 200, "join failed: {body}");
        let (replica, dir_r) = spawn_node(&format!("{i}-replica"), |_| {});
        let replica_addr = replica.addr.to_string();
        let (status, _, body) = c
            .request(
                "POST",
                "/v1/cluster/enlist",
                &format!(r#"{{"host": "{head_addr}", "addr": "{replica_addr}"}}"#),
            )
            .expect("enlist");
        assert_eq!(status, 200, "enlist failed: {body}");

        // A name the chain (anchored at the head) owns.
        let ring = ShardRing::new([head_addr.clone(), voter_addr.clone()], DEFAULT_VNODES, 0);
        let kb = (0..)
            .map(|n| format!("e21-kb-{n}"))
            .find(|name| ring.owner_of(name) == Some(head_addr.as_str()))
            .expect("some name lands on the chain");

        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let addrs = [head_addr.clone(), replica_addr.clone(), voter_addr.clone()];
            let stop = Arc::clone(&stop);
            let kb = kb.clone();
            std::thread::spawn(move || {
                let mut conn: Option<Conn> = None;
                let mut target = 0usize;
                let mut last_seq = 0u64;
                let mut regressed = 0u64;
                let mut acks: Vec<Instant> = Vec::with_capacity(4096);
                let mut n = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let formula = if n.is_multiple_of(2) {
                        "A & B"
                    } else {
                        "A | B"
                    };
                    n += 1;
                    let body = format!(r#"{{"action": "put", "formula": "{formula}"}}"#);
                    let live = match conn.as_mut() {
                        Some(live) => live,
                        None => match Conn::open(&addrs[target]) {
                            Ok(fresh) => conn.insert(fresh),
                            Err(_) => {
                                target = (target + 1) % addrs.len();
                                std::thread::sleep(std::time::Duration::from_millis(2));
                                continue;
                            }
                        },
                    };
                    match live.request("POST", &format!("/v1/kb/{kb}"), &body) {
                        Ok((200, _, reply)) => {
                            let seq = seq_of(&reply).expect("seq in commit ack");
                            if seq <= last_seq {
                                // The promoted replica had not applied
                                // every acked frame — the shipping
                                // window, recovered later by the
                                // revival reconcile this trial skips.
                                regressed += last_seq - seq + 1;
                            }
                            last_seq = seq;
                            acks.push(Instant::now());
                        }
                        Ok((307, head_text, _)) => {
                            if let Some(owner) = head_text
                                .lines()
                                .find_map(|l| l.strip_prefix("X-Arbitrex-Shard-Owner: "))
                            {
                                let owner = owner.trim();
                                if let Some(slot) = addrs.iter().position(|a| a == owner) {
                                    target = slot;
                                    conn = None;
                                }
                            }
                        }
                        Ok((503, _, _)) | Ok((421, _, _)) => {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        Ok((other, _, reply)) => panic!("unexpected status {other}: {reply}"),
                        Err(_) => {
                            conn = None;
                            target = (target + 1) % addrs.len();
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                    }
                }
                (acks, regressed)
            })
        };

        // Baseline cadence, then kill the head and wait for the
        // successor to take over and absorb writes again.
        std::thread::sleep(std::time::Duration::from_millis(400));
        head.stop().expect("stop head");
        let killed = Instant::now();
        let mut status_conn: Option<Conn> = None;
        loop {
            assert!(
                killed.elapsed() < std::time::Duration::from_secs(30),
                "successor never promoted"
            );
            let promoted = status_conn
                .get_or_insert_with(|| Conn::open(&replica_addr).expect("connect replica"))
                .request("GET", "/v1/replication/status", "")
                .ok()
                .map(|(_, _, body)| body.contains("\"role\":\"primary\""))
                .unwrap_or(false);
            if promoted {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        std::thread::sleep(std::time::Duration::from_millis(400)); // post-failover cadence
        stop.store(true, Ordering::Relaxed);
        let (acks, regressed) = writer.join().expect("writer");
        assert!(acks.len() > 20, "writer starved: {} acks", acks.len());
        let blackout_ms = acks
            .windows(2)
            .map(|pair| pair[1].duration_since(pair[0]).as_millis() as u64)
            .max()
            .unwrap_or(0);
        replica.stop().expect("stop replica");
        voter.stop().expect("stop voter");
        for dir in [dir_h, dir_v, dir_r] {
            let _ = std::fs::remove_dir_all(dir);
        }
        (blackout_ms, acks.len(), regressed)
    }

    println!(
        "one writer streams durable commits to a chain-owned KB (307-following,\n\
         retrying, reconnecting); the chain head dies mid-stream; the blackout is\n\
         the longest ack gap across detection (probe {PROBE_MS} ms x {SUSPECT_AFTER}),\n\
         quorum confirm, self-promotion, and ring broadcast ({trials} trials)\n"
    );
    println!("trial   blackout ms   acks   regressed");
    let mut blackouts = Vec::with_capacity(trials);
    let mut total_regressed = 0u64;
    for i in 0..trials {
        let (blackout_ms, acks, regressed) = trial(i);
        println!("{i:<7} {blackout_ms:<13} {acks:<6} {regressed}");
        blackouts.push(blackout_ms);
        total_regressed += regressed;
    }
    blackouts.sort_unstable();
    let pct = |p: usize| blackouts[(p * blackouts.len()).div_ceil(100).max(1) - 1];
    let (p50, p99) = (pct(50), pct(99));
    println!(
        "\nblackout p50 {p50} ms, p99 {p99} ms; detection floor {} ms\n",
        PROBE_MS * SUSPECT_AFTER as u64
    );

    if quick {
        println!(
            "e21-quick blackout_p50_ms={p50} blackout_p99_ms={p99} trials={trials} regressed={total_regressed}"
        );
        return;
    }

    let rows: Vec<String> = blackouts.iter().map(|b| b.to_string()).collect();
    let json = format!(
        "{{\n  \"experiment\": \"e21-failover\",\n  \"workload\": \"one 307-following \
         writer on a chain-owned durable KB ({FLUSH_US} us group-commit flush); chain \
         head stopped mid-stream; blackout = longest ack-to-ack gap across detection \
         (probe {PROBE_MS} ms x suspect_after {SUSPECT_AFTER}), quorum confirm, \
         self-promotion, ring broadcast; {trials} independent trials\",\n  \
         \"probe_interval_ms\": {PROBE_MS},\n  \"suspect_after\": {SUSPECT_AFTER},\n  \
         \"blackout_ms_sorted\": [{}],\n  \"blackout_p50_ms\": {p50},\n  \
         \"blackout_p99_ms\": {p99},\n  \"acks_regressed_total\": {total_regressed}\n}}\n",
        rows.join(", ")
    );
    write_record("BENCH_PR10.json", &json, String::new());
}
