//! Heterogeneous database merging (experiment E10) and the SAT backend at
//! scale (experiment E8's qualitative side).
//!
//! The paper's introduction names large heterogeneous databases — "merging
//! of large equally important sets of information" — as the promising
//! application area for arbitration. This example merges several
//! independently-authored fact bases over a shared schema and compares the
//! consensus quality of arbitration-style merges against folding revision
//! or update through the sources; then it runs Dalal revision through the
//! CDCL SAT backend on a 40-variable schema where `2^40` enumeration is
//! impossible.
//!
//! Run with: `cargo run --release --example heterogeneous_merge`

use arbitrex::core::satbackend::dalal_revision_sat_budgeted;
use arbitrex::merge::metrics::{max_dissatisfaction, sum_dissatisfaction};
use arbitrex::merge::scenario::heterogeneous_databases;
use arbitrex::prelude::*;

fn main() {
    // --- Part 1: merge 5 databases over an 8-proposition schema. ---
    let n_vars = 8u32;
    let sources = heterogeneous_databases(5, n_vars, 4, 1993);
    let sig = Sig::with_anon_vars(n_vars as usize);

    println!(
        "merging {} databases over {} propositions:",
        sources.len(),
        n_vars
    );
    for s in &sources {
        println!("  {}: {} candidate worlds", s.name, s.models.len());
    }
    println!();

    let outcomes = [
        merge_egalitarian(&sources, None),
        merge_majority(&sources, None),
        merge_weighted_arbitration(&sources),
        merge_fold_arbitration(&sources),
        merge_fold_revision(&sources),
        merge_fold_update(&sources),
    ];
    let mut table = Table::new([
        "strategy",
        "|consensus|",
        "worst source",
        "Σ dissatisfaction",
    ]);
    for out in &outcomes {
        let best = out
            .consensus
            .iter()
            .map(|i| {
                (
                    max_dissatisfaction(&sources, i),
                    sum_dissatisfaction(&sources, i),
                )
            })
            .min();
        let (worst, total) = match best {
            Some((m, s)) => (m.to_string(), s.to_string()),
            None => ("-".into(), "-".into()),
        };
        table.row([
            out.strategy.to_string(),
            out.consensus.len().to_string(),
            worst,
            total,
        ]);
    }
    println!("{}", table.render());
    println!("shape to expect: egalitarian minimizes the worst-source column;");
    println!("majority minimizes the Σ column; weighted arbitration minimizes the");
    println!("related per-model Σ (each claimed world is a voice, so sprawling");
    println!("sources pull harder); the folds are dominated on both objectives.\n");

    // --- Part 2: the SAT backend beyond enumeration reach. ---
    let wide = 40u32;
    let mut wide_sig = Sig::with_anon_vars(wide as usize);
    // A "database" asserting a long conjunction of facts...
    let psi_text = (0..wide)
        .map(|i| {
            if i % 3 == 0 {
                format!("!v{i}")
            } else {
                format!("v{i}")
            }
        })
        .collect::<Vec<_>>()
        .join(" & ");
    let psi = parse(&mut wide_sig, &psi_text).unwrap();
    // ...revised by an integrity constraint that contradicts a few facts.
    let mu = parse(&mut wide_sig, "v0 & v3 & (v1 -> v6) & !v7").unwrap();
    let result = dalal_revision_sat_budgeted(&psi, &mu, wide, 64, &Budget::unlimited())
        .expect("within model limit");
    println!(
        "SAT-backed Dalal revision over {wide} variables: minimal distance {:?}, {} optimal model(s)",
        result.distance,
        result.models.len()
    );
    let m = result.models.iter().next().unwrap();
    println!(
        "first optimal model flips exactly the contradicted facts: v0={} v3={} v7={}",
        m.get(Var(0)),
        m.get(Var(3)),
        m.get(Var(7))
    );
    let _ = sig;
}
