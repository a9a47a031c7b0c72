//! The postulate audit (experiments E3 and E4): every operator in the
//! library against every axiom of all three classical systems, verified
//! exhaustively over the 2-variable universe, plus the Theorem 3.2
//! separation constructions and the (A8) erratum counterexample.
//!
//! Run with: `cargo run --release --example postulate_audit`

use arbitrex::core::postulates::harness::{
    satisfaction_matrix, separation_r123_u8, separation_r2_a8, separation_u2_u8_a8,
    SeparationVerdict,
};
use arbitrex::core::postulates::PostulateId;
use arbitrex::prelude::*;

fn verdict_str(v: SeparationVerdict) -> &'static str {
    match v {
        SeparationVerdict::ViolatesFirst => "gives up 1st group",
        SeparationVerdict::ViolatesSecond => "gives up 2nd group",
        SeparationVerdict::ViolatesBoth => "gives up both",
        SeparationVerdict::Neither => "survives (!!)",
    }
}

fn main() {
    let arbitration = Arbitration;
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
        &arbitrex::core::fitting::GMaxFitting,
        &SumFitting,
        &arbitration,
    ];
    let ids = PostulateId::all();

    println!("operator × postulate satisfaction (exhaustive, 2-variable universe)");
    println!("✓ = satisfied on all 16^4 theory quadruples; ✗ = counterexample found\n");
    let rows = satisfaction_matrix(&ops, &ids);
    let mut table = Table::new(
        std::iter::once("operator".to_string()).chain(ids.iter().map(|p| p.name().to_string())),
    );
    for row in &rows {
        let cells: Vec<String> = std::iter::once(row.operator.clone())
            .chain(ids.iter().map(|&id| match row.passed(id) {
                Some(true) => "✓".to_string(),
                Some(false) => "✗".to_string(),
                None => "?".to_string(),
            }))
            .collect();
        table.row(cells);
    }
    println!("{}", table.render());

    println!("Theorem 3.2 separation constructions (each operator must give up a side):");
    let mut sep = Table::new(["operator", "R2 vs A8", "U2+U8 vs A8", "R1-R3 vs U8"]);
    for op in &ops {
        sep.row([
            op.name(),
            verdict_str(separation_r2_a8(*op, 2)),
            verdict_str(separation_u2_u8_a8(*op, 2)),
            verdict_str(separation_r123_u8(*op, 2)),
        ]);
    }
    println!("{}", sep.render());

    println!("reproduction finding — the (A8) erratum:");
    println!("the paper claims the odist operator satisfies (A1)-(A8); mechanically");
    println!("it satisfies (A1)-(A7) but NOT (A8). Minimal counterexample (1 var):");
    let psi1 = ModelSet::new(1, [Interp(0)]); // ¬a
    let psi2 = ModelSet::all(1); // ⊤
    let mu = ModelSet::all(1); // ⊤
    let r1 = OdistFitting.apply(&psi1, &mu);
    let r2 = OdistFitting.apply(&psi2, &mu);
    let ru = OdistFitting.apply(&psi1.union(&psi2), &mu);
    let mut sig = Sig::new();
    sig.var("a");
    println!("  ψ₁ = ¬a, ψ₂ = ⊤, μ = ⊤");
    println!("  ψ₁ ▷ μ = {}", r1.display(&sig));
    println!("  ψ₂ ▷ μ = {}", r2.display(&sig));
    println!(
        "  (ψ₁▷μ) ∧ (ψ₂▷μ) = {} (satisfiable)",
        r1.intersect(&r2).display(&sig)
    );
    println!(
        "  (ψ₁∨ψ₂) ▷ μ = {} — does NOT imply the intersection",
        ru.display(&sig)
    );
    println!();
    println!("repairs: lex-odist-fitting (deterministic tie-break, see the ✓ row");
    println!("above) and Section 4's weighted semantics, where ∨ sums weights:\n");

    // The weighted F-matrix (exhaustive n=1/w≤2 + randomized n=2).
    use arbitrex::core::postulates::weighted::{wsatisfaction_matrix, WPostulateId};
    use arbitrex::core::wfitting::{WeightedChangeOperator, WeightedRankFitting};
    let wmax = WeightedRankFitting::new("wmax-fitting", |psi: &WeightedKb, x: Interp| {
        psi.support()
            .map(|(j, w)| x.dist(j) as u128 * w as u128)
            .max()
            .unwrap_or(0)
    });
    let wops: Vec<&dyn WeightedChangeOperator> = vec![&WdistFitting, &wmax];
    let wrows = wsatisfaction_matrix(&wops, WPostulateId::all());
    let mut wtable = Table::new(
        std::iter::once("weighted operator".to_string())
            .chain(WPostulateId::all().iter().map(|p| p.name().to_string())),
    );
    for row in &wrows {
        wtable.row(
            std::iter::once(row.operator.clone())
                .chain(WPostulateId::all().iter().map(|&id| {
                    if row.passed(id) == Some(true) {
                        "✓".to_string()
                    } else {
                        "✗".to_string()
                    }
                }))
                .collect::<Vec<_>>(),
        );
    }
    println!("{}", wtable.render());
    println!("wdist (sum aggregation) passes all of F1-F8; a weighted max");
    println!("aggregator still fails F7/F8 — the repair is the sum, not the weights.");
}
