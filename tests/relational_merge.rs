//! Cross-crate integration: the relational layer driving the merging and
//! theory-change machinery end-to-end — the "heterogeneous databases"
//! story at the relational level.

use arbitrex::logic::Formula;
use arbitrex::prelude::*;
use arbitrex::relational::{parse_relational, RelationalDb, Vocabulary};

/// Build the staffing vocabulary used throughout: On(person, project)
/// over people {ann, bob} and projects {db, web}, with the constraint
/// that everyone is assigned somewhere.
fn staffing() -> (Vocabulary, Formula) {
    let mut v = Vocabulary::new();
    v.relation("On", 2);
    // Intern the meaningful atoms in a fixed order via parsing.
    let _ = parse_relational(
        &mut v,
        "On(ann,db) | On(ann,web) | On(bob,db) | On(bob,web)",
    )
    .unwrap();
    let ic = parse_relational(
        &mut v,
        "(On(ann,db) | On(ann,web)) & (On(bob,db) | On(bob,web))",
    )
    .unwrap();
    (v, ic)
}

#[test]
fn parsed_relational_formulas_drive_the_db() {
    let (mut v, ic) = staffing();
    let a_records = parse_relational(
        &mut v,
        "On(ann,db) & !On(ann,web) & On(bob,web) & !On(bob,db)",
    )
    .unwrap();
    let b_records = parse_relational(
        &mut v,
        "On(ann,web) & !On(ann,db) & On(bob,web) & !On(bob,db)",
    )
    .unwrap();
    let mut db = RelationalDb::new(v, ic);
    db.assert_state(&a_records);
    db.arbitrate(&b_records);
    assert!(db.is_consistent());
    // Bob's assignment is agreed; Ann's resolves to the compromise.
    let certain = db.certain_facts_display();
    assert!(certain.contains(&"On(bob,web)".to_string()));
}

#[test]
fn relational_sources_merge_like_propositional_ones() {
    let (mut v, _ic) = staffing();
    let a = parse_relational(&mut v, "On(ann,db) & !On(ann,web)").unwrap();
    let b = parse_relational(&mut v, "On(ann,web) & !On(ann,db)").unwrap();
    let n = v.width();
    let sources = vec![
        Source::weighted("deptA", ModelSet::of_formula(&a, n), 3),
        Source::weighted("deptB", ModelSet::of_formula(&b, n), 1),
    ];
    let majority = merge_majority(&sources, None);
    // Department A outweighs B 3:1 — the majority consensus satisfies A.
    assert!(majority.consensus.implies(&ModelSet::of_formula(&a, n)));
    // Egalitarian merging does not let the head-count decide.
    let egalitarian = merge_egalitarian(&sources, None);
    assert!(!egalitarian.consensus.implies(&ModelSet::of_formula(&a, n)));
}

#[test]
fn relational_queries_through_the_query_layer() {
    let (mut v, ic) = staffing();
    let facts = parse_relational(
        &mut v,
        "On(ann,db) & On(bob,web) & !On(ann,web) & !On(bob,db)",
    )
    .unwrap();
    let somebody_on_db = parse_relational(&mut v, "On(ann,db) | On(bob,db)").unwrap();
    let mut db = RelationalDb::new(v, ic);
    db.assert_state(&facts);
    assert!(db.entails(&somebody_on_db));
    // Through the generic query layer as well.
    let answer = arbitrex::merge::ask(db.state(), &somebody_on_db);
    assert!(answer.skeptical());
}

#[test]
fn grounded_universe_respects_the_sat_backend_too() {
    // Relational formulas ground to ordinary propositional ones, so the
    // SAT backend applies unchanged.
    let (mut v, _) = staffing();
    let psi = parse_relational(
        &mut v,
        "On(ann,db) & On(bob,db) & !On(ann,web) & !On(bob,web)",
    )
    .unwrap();
    let mu = parse_relational(&mut v, "!On(ann,db)").unwrap();
    let n = v.width();
    let sat = arbitrex::core::satbackend::dalal_revision_sat_budgeted(
        &psi,
        &mu,
        n,
        64,
        &Budget::unlimited(),
    )
    .unwrap();
    let reference = DalalRevision.apply(
        &ModelSet::of_formula(&psi, n),
        &ModelSet::of_formula(&mu, n),
    );
    assert_eq!(sat.models, reference);
    assert_eq!(sat.distance, Some(1));
}
