//! The CDCL solver: two-watched-literal propagation, first-UIP learning,
//! VSIDS, phase saving, Luby restarts and LBD-driven clause-database
//! reduction, in the style of MiniSat.

use crate::heap::ActivityHeap;
use crate::lit::{LBool, Lit};
use crate::luby::luby;
use arbitrex_telemetry::budget::{Budget, BudgetSite, Exhausted};

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::model_value`].
    Sat,
    /// The clause set (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The solve was interrupted by the exhausted [`Budget`] attached with
    /// [`Solver::set_budget`] before reaching a verdict. Neither
    /// satisfiability nor unsatisfiability was established; the solver
    /// state remains valid for further calls.
    Interrupted,
}

/// Counters exposed for the benchmarks and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses added.
    pub learnt: u64,
    /// Learnt clauses removed by database reduction.
    pub removed: u64,
}

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    lbd: u32,
    activity: f64,
    deleted: bool,
}

#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: usize,
    blocker: Lit,
}

const VAR_DECAY: f64 = 0.95;
const CLAUSE_DECAY: f64 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;
const LUBY_UNIT: u64 = 100;

/// A CDCL SAT solver over variables `0..n`.
///
/// ```
/// use arbitrex_sat::{Lit, SolveResult, Solver};
/// let mut s = Solver::new();
/// s.ensure_vars(2);
/// s.add_clause(&[Lit::pos(0), Lit::pos(1)]);
/// s.add_clause(&[Lit::neg_on(0)]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert_eq!(s.model_value(1), Some(true));
/// ```
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    clause_inc: f64,
    heap: ActivityHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    ok: bool,
    model: Vec<bool>,
    stats: SolverStats,
    n_learnt: usize,
    max_learnt: f64,
    budget: Option<Budget>,
    /// Subset of the last call's assumptions responsible for UNSAT.
    conflict_core: Vec<Lit>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Create an empty solver with no variables.
    pub fn new() -> Solver {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            clause_inc: 1.0,
            heap: ActivityHeap::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            ok: true,
            model: Vec::new(),
            stats: SolverStats::default(),
            n_learnt: 0,
            max_learnt: 0.0,
            budget: None,
            conflict_core: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> u32 {
        self.assigns.len() as u32
    }

    /// Number of clauses currently alive (original + learnt).
    pub fn num_clauses(&self) -> usize {
        self.clauses.iter().filter(|c| !c.deleted).count()
    }

    /// Solver statistics so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Attach a shared execution [`Budget`]: every conflict is charged to
    /// [`BudgetSite::Conflict`], and an exhausted budget makes `solve`
    /// return [`SolveResult::Interrupted`]; the solver stays usable —
    /// detach the budget and solve again. A conflict cap is
    /// [`Budget::with_conflict_limit`]. The budget is shared: clones of it
    /// govern other solvers and kernel scans of the same operator
    /// application, and deadlines/cancellation trip here too.
    pub fn set_budget(&mut self, budget: Option<Budget>) {
        self.budget = budget;
    }

    /// The trip behind a [`SolveResult::Interrupted`]: only the attached
    /// budget interrupts a solve, so its record names the cause.
    pub(crate) fn trip(&self) -> Exhausted {
        // invariant: `solve` returns Interrupted only once the attached
        // budget has tripped, and a trip is sticky.
        self.budget
            .as_ref()
            .and_then(Budget::tripped)
            .expect("an interrupted solve has a tripped budget")
    }

    /// Create a fresh variable and return its index.
    pub fn new_var(&mut self) -> u32 {
        let v = self.assigns.len() as u32;
        self.assigns.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.grow_to(v as usize + 1);
        self.heap.insert(v, &self.activity);
        v
    }

    /// Ensure variables `0..n` exist.
    pub fn ensure_vars(&mut self, n: u32) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    #[inline]
    fn value_lit(&self, l: Lit) -> LBool {
        self.assigns[l.var() as usize].of_lit(l)
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Add a clause (given in DIMACS `i32` convention).
    pub fn add_dimacs_clause(&mut self, lits: &[i32]) -> bool {
        let lits: Vec<Lit> = lits.iter().map(|&l| Lit::from_dimacs(l)).collect();
        self.add_clause(&lits)
    }

    /// Add a clause. Returns `false` if the clause set became trivially
    /// unsatisfiable at the top level.
    ///
    /// Must be called at decision level 0 (the solver always returns to
    /// level 0 after `solve`).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert_eq!(self.decision_level(), 0, "clauses must be added at level 0");
        if !self.ok {
            return false;
        }
        for &l in lits {
            assert!(l.var() < self.num_vars(), "literal on unknown variable {l}");
        }
        // Normalize: sort, dedupe, drop false literals, detect tautologies
        // and satisfied clauses.
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        let mut out: Vec<Lit> = Vec::with_capacity(ls.len());
        for &l in &ls {
            if ls.binary_search(&l.negate()).is_ok() {
                return true; // tautology
            }
            match self.value_lit(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop
                LBool::Undef => out.push(l),
            }
        }
        match out.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(out[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_new_clause(out, false, 0);
                true
            }
        }
    }

    fn attach_new_clause(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> usize {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len();
        let w0 = Watcher {
            cref,
            blocker: lits[1],
        };
        let w1 = Watcher {
            cref,
            blocker: lits[0],
        };
        self.watches[lits[0].code()].push(w0);
        self.watches[lits[1].code()].push(w1);
        self.clauses.push(Clause {
            lits,
            learnt,
            lbd,
            activity: 0.0,
            deleted: false,
        });
        if learnt {
            self.n_learnt += 1;
            self.stats.learnt += 1;
        }
        cref
    }

    fn detach_clause(&mut self, cref: usize) {
        let (l0, l1) = {
            let c = &self.clauses[cref];
            (c.lits[0], c.lits[1])
        };
        self.watches[l0.code()].retain(|w| w.cref != cref);
        self.watches[l1.code()].retain(|w| w.cref != cref);
    }

    #[inline]
    fn unchecked_enqueue(&mut self, l: Lit, from: Option<usize>) {
        debug_assert!(self.value_lit(l).is_undef());
        let v = l.var() as usize;
        self.assigns[v] = LBool::from_bool(l.is_pos());
        self.level[v] = self.decision_level();
        self.reason[v] = from;
        self.trail.push(l);
    }

    /// Unit propagation. Returns the conflicting clause reference, if any.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = p.negate();
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            let mut kept = 0;
            let mut conflict = None;
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Fast path: blocker already true.
                if self.value_lit(w.blocker).is_true() {
                    ws[kept] = w;
                    kept += 1;
                    continue;
                }
                let cref = w.cref;
                // Make sure the false literal is at position 1.
                let first = {
                    let c = &mut self.clauses[cref];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    c.lits[0]
                };
                debug_assert_eq!(self.clauses[cref].lits[1], false_lit);
                if first != w.blocker && self.value_lit(first).is_true() {
                    ws[kept] = Watcher {
                        cref,
                        blocker: first,
                    };
                    kept += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                {
                    let n = self.clauses[cref].lits.len();
                    for k in 2..n {
                        let lk = self.clauses[cref].lits[k];
                        if !self.value_lit(lk).is_false() {
                            self.clauses[cref].lits.swap(1, k);
                            self.watches[lk.code()].push(Watcher {
                                cref,
                                blocker: first,
                            });
                            moved = true;
                            break;
                        }
                    }
                }
                if moved {
                    continue; // watcher moved away from false_lit's list
                }
                // Clause is unit or conflicting.
                ws[kept] = Watcher {
                    cref,
                    blocker: first,
                };
                kept += 1;
                if self.value_lit(first).is_false() {
                    // Conflict: keep the remaining watchers and bail out.
                    while i < ws.len() {
                        ws[kept] = ws[i];
                        kept += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(cref);
                } else {
                    self.unchecked_enqueue(first, Some(cref));
                }
            }
            ws.truncate(kept);
            debug_assert!(self.watches[false_lit.code()].is_empty());
            self.watches[false_lit.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        for idx in (bound..self.trail.len()).rev() {
            let l = self.trail[idx];
            let v = l.var() as usize;
            self.phase[v] = l.is_pos();
            self.assigns[v] = LBool::Undef;
            self.reason[v] = None;
            self.heap.insert(l.var(), &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, v: u32) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1.0 / RESCALE_LIMIT;
            }
            self.var_inc *= 1.0 / RESCALE_LIMIT;
        }
        self.heap.decrease_key_of(v, &self.activity);
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
        self.clause_inc /= CLAUSE_DECAY;
    }

    fn bump_clause(&mut self, cref: usize) {
        let c = &mut self.clauses[cref];
        if !c.learnt {
            return;
        }
        c.activity += self.clause_inc;
        if c.activity > RESCALE_LIMIT {
            for cl in self.clauses.iter_mut().filter(|cl| cl.learnt) {
                cl.activity *= 1.0 / RESCALE_LIMIT;
            }
            self.clause_inc *= 1.0 / RESCALE_LIMIT;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, mut confl: usize) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(0)]; // placeholder for the asserting literal
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut to_clear: Vec<u32> = Vec::new();
        loop {
            self.bump_clause(confl);
            let start = if p.is_some() { 1 } else { 0 };
            // The propagated literal of a reason clause sits at lits[0];
            // skip it when walking a reason (but not the initial conflict).
            let clause_lits: Vec<Lit> = self.clauses[confl].lits[start..].to_vec();
            for q in clause_lits {
                let v = q.var();
                if !self.seen[v as usize] && self.level[v as usize] > 0 {
                    self.seen[v as usize] = true;
                    to_clear.push(v);
                    self.bump_var(v);
                    if self.level[v as usize] >= self.decision_level() {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk back the trail to the next marked literal.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var() as usize] {
                    break;
                }
            }
            let lit = self.trail[index];
            self.seen[lit.var() as usize] = false;
            path_count -= 1;
            if path_count == 0 {
                learnt[0] = lit.negate();
                break;
            }
            p = Some(lit);
            confl = self.reason[lit.var() as usize]
                .expect("non-decision literal on conflict path must have a reason");
        }

        // Basic clause minimization: drop literals implied by the rest.
        let keep: Vec<Lit> = learnt[1..]
            .iter()
            .copied()
            .filter(|&l| !self.literal_redundant(l))
            .collect();
        learnt.truncate(1);
        learnt.extend(keep);

        for v in to_clear {
            self.seen[v as usize] = false;
        }

        // Find backtrack level and move the highest-level literal to slot 1.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var() as usize] > self.level[learnt[max_i].var() as usize] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var() as usize]
        };
        (learnt, bt)
    }

    /// Is `l` (a non-asserting learnt literal) implied by the other marked
    /// literals? Checks one reason step — the classic "basic" minimization.
    fn literal_redundant(&self, l: Lit) -> bool {
        let v = l.var() as usize;
        match self.reason[v] {
            None => false,
            Some(cref) => self.clauses[cref].lits[1..].iter().all(|&q| {
                let qv = q.var() as usize;
                self.seen[qv] || self.level[qv] == 0
            }),
        }
    }

    fn lbd_of(&mut self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var() as usize]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn reduce_db(&mut self) {
        // Collect learnt, non-locked, non-binary clauses. Locked = used as
        // a reason; collected into a set once so the scan below is O(C),
        // not O(num_vars x C).
        let locked: std::collections::HashSet<usize> =
            self.reason.iter().flatten().copied().collect();
        let is_locked = |cref: usize| locked.contains(&cref);
        let mut candidates: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| {
                let c = &self.clauses[i];
                c.learnt && !c.deleted && c.lits.len() > 2 && !is_locked(i)
            })
            .collect();
        // Worst first: high LBD, then low activity.
        candidates.sort_by(|&a, &b| {
            let (ca, cb) = (&self.clauses[a], &self.clauses[b]);
            cb.lbd
                .cmp(&ca.lbd)
                .then(ca.activity.partial_cmp(&cb.activity).unwrap())
        });
        let remove_count = candidates.len() / 2;
        for &cref in candidates.iter().take(remove_count) {
            self.detach_clause(cref);
            self.clauses[cref].deleted = true;
            self.n_learnt -= 1;
            self.stats.removed += 1;
        }
    }

    /// Solve the current clause set.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solve under the given assumption literals. The assumptions hold only
    /// for this call; learnt clauses are kept for future calls.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        if let Some(b) = &self.budget {
            if b.tripped().is_some() {
                return SolveResult::Interrupted;
            }
        }
        for &a in assumptions {
            assert!(
                a.var() < self.num_vars(),
                "assumption on unknown variable {a}"
            );
        }
        self.conflict_core.clear();
        self.max_learnt = (self.clauses.len().max(100) as f64) * 0.4;
        let mut restart_idx = 1u64;
        let result = loop {
            let budget = luby(restart_idx) * LUBY_UNIT;
            match self.search(budget, assumptions) {
                Some(r) => break r,
                None => {
                    // Restart.
                    self.stats.restarts += 1;
                    restart_idx += 1;
                    self.cancel_until(0);
                    if self.n_learnt as f64 > self.max_learnt {
                        self.reduce_db();
                        self.max_learnt *= 1.3;
                    }
                }
            }
        };
        self.cancel_until(0);
        result
    }

    /// Search with a conflict budget; `None` means "restart requested".
    fn search(&mut self, budget: u64, assumptions: &[Lit]) -> Option<SolveResult> {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if let Some(b) = &self.budget {
                    if b.charge(BudgetSite::Conflict, 1).is_err() {
                        return Some(SolveResult::Interrupted);
                    }
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SolveResult::Unsat);
                }
                let (learnt, bt) = self.analyze(confl);
                // Never undo assumption levels blindly: if the backtrack
                // level is below the assumption prefix we re-establish the
                // assumptions in the decision loop below.
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let lbd = self.lbd_of(&learnt);
                    let asserting = learnt[0];
                    let cref = self.attach_new_clause(learnt, true, lbd);
                    self.unchecked_enqueue(asserting, Some(cref));
                }
                self.decay_activities();
                if conflicts_here >= budget {
                    return None; // restart
                }
            } else {
                // Establish assumptions, one decision level each.
                let mut next: Option<Lit> = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.value_lit(a) {
                        LBool::True => {
                            // Dummy level so indices stay aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            self.conflict_core = self.analyze_final(a);
                            return Some(SolveResult::Unsat);
                        }
                        LBool::Undef => {
                            next = Some(a);
                            break;
                        }
                    }
                }
                let decision = match next {
                    Some(a) => a,
                    None => match self.pick_branch() {
                        Some(l) => l,
                        None => {
                            // Complete assignment: capture the model.
                            self.model = self.assigns.iter().map(|&a| a.is_true()).collect();
                            return Some(SolveResult::Sat);
                        }
                    },
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.unchecked_enqueue(decision, None);
            }
        }
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if self.assigns[v as usize].is_undef() {
                return Some(Lit::new(v, self.phase[v as usize]));
            }
        }
        None
    }

    /// Which assumptions caused the falsification of assumption `p`:
    /// walk the implication graph from `¬p` back to assumption decisions.
    fn analyze_final(&mut self, p: Lit) -> Vec<Lit> {
        let mut core = vec![p];
        if self.decision_level() == 0 {
            return core;
        }
        let base = self.trail_lim[0];
        self.seen[p.var() as usize] = true;
        for idx in (base..self.trail.len()).rev() {
            let l = self.trail[idx];
            let v = l.var() as usize;
            if !self.seen[v] {
                continue;
            }
            match self.reason[v] {
                None => {
                    // A decision inside the assumption prefix — i.e. an
                    // assumption literal (search decisions cannot be below
                    // the current point, since we are still establishing
                    // assumptions).
                    core.push(l);
                }
                Some(cref) => {
                    for &q in &self.clauses[cref].lits[1..] {
                        if self.level[q.var() as usize] > 0 {
                            self.seen[q.var() as usize] = true;
                        }
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[p.var() as usize] = false;
        core.sort_unstable();
        core.dedup();
        core
    }

    /// After [`Solver::solve_with_assumptions`] returns
    /// [`SolveResult::Unsat`], the subset of the assumptions that (with
    /// the clause set) already forces unsatisfiability. Empty when the
    /// clause set is unsatisfiable on its own.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// The value of variable `v` in the last satisfying model, or `None` if
    /// no model has been found yet / `v` is out of range.
    pub fn model_value(&self, v: u32) -> Option<bool> {
        self.model.get(v as usize).copied()
    }

    /// The last satisfying model as booleans indexed by variable.
    pub fn model(&self) -> &[bool] {
        &self.model
    }

    /// Has the clause set been proven unsatisfiable at the top level?
    pub fn is_known_unsat(&self) -> bool {
        !self.ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i32) -> Lit {
        Lit::from_dimacs(d)
    }

    fn solver_with(n: u32, clauses: &[&[i32]]) -> Solver {
        let mut s = Solver::new();
        s.ensure_vars(n);
        for c in clauses {
            s.add_dimacs_clause(c);
        }
        s
    }

    #[test]
    fn empty_problem_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = solver_with(3, &[&[1], &[-1, 2], &[-2, 3]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(0), Some(true));
        assert_eq!(s.model_value(1), Some(true));
        assert_eq!(s.model_value(2), Some(true));
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut s = solver_with(1, &[&[1], &[-1]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.is_known_unsat());
    }

    #[test]
    fn simple_conflict_driven_case() {
        // (a∨b) ∧ (a∨¬b) ∧ (¬a∨b) ∧ (¬a∨¬b) is unsat.
        let mut s = solver_with(2, &[&[1, 2], &[1, -2], &[-1, 2], &[-1, -2]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let clauses: Vec<Vec<i32>> = vec![
            vec![1, 2, 3],
            vec![-1, -2],
            vec![-2, -3],
            vec![-1, -3],
            vec![2, 3],
        ];
        let mut s = Solver::new();
        s.ensure_vars(3);
        for c in &clauses {
            s.add_dimacs_clause(c);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        for c in &clauses {
            assert!(
                c.iter().any(|&l| {
                    let val = s.model_value(l.unsigned_abs() - 1).unwrap();
                    (l > 0) == val
                }),
                "model violates clause {c:?}"
            );
        }
    }

    #[test]
    fn tautologies_and_duplicates_are_ignored() {
        let mut s = solver_with(2, &[&[1, -1], &[2, 2]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(1), Some(true));
    }

    #[test]
    fn assumptions_constrain_and_are_forgotten() {
        let mut s = solver_with(2, &[&[1, 2]]);
        assert_eq!(s.solve_with_assumptions(&[lit(-1)]), SolveResult::Sat);
        assert_eq!(s.model_value(1), Some(true));
        assert_eq!(
            s.solve_with_assumptions(&[lit(-1), lit(-2)]),
            SolveResult::Unsat
        );
        // Assumptions do not persist.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn conflicting_assumptions_unsat() {
        let mut s = solver_with(2, &[&[-1, 2]]);
        assert_eq!(
            s.solve_with_assumptions(&[lit(1), lit(-2)]),
            SolveResult::Unsat
        );
    }

    #[test]
    fn php_3_pigeons_2_holes_unsat() {
        // Pigeonhole: pigeon i in hole j = var 2i+j+1 (i<3, j<2).
        let p = |i: u32, j: u32| (2 * i + j + 1) as i32;
        let mut s = Solver::new();
        s.ensure_vars(6);
        for i in 0..3 {
            s.add_dimacs_clause(&[p(i, 0), p(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_dimacs_clause(&[-p(i1, j), -p(i2, j)]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn php_5_pigeons_4_holes_unsat_exercises_learning() {
        let holes = 4u32;
        let p = |i: u32, j: u32| (holes * i + j + 1) as i32;
        let mut s = Solver::new();
        s.ensure_vars(5 * holes);
        for i in 0..5 {
            let c: Vec<i32> = (0..holes).map(|j| p(i, j)).collect();
            s.add_dimacs_clause(&c);
        }
        for j in 0..holes {
            for i1 in 0..5 {
                for i2 in (i1 + 1)..5 {
                    s.add_dimacs_clause(&[-p(i1, j), -p(i2, j)]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn solver_is_reusable_after_sat() {
        let mut s = solver_with(2, &[&[1, 2]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        // Add a clause afterwards and re-solve.
        s.add_dimacs_clause(&[-1]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(0), Some(false));
        assert_eq!(s.model_value(1), Some(true));
        s.add_dimacs_clause(&[-2]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unsat_core_is_a_relevant_subset_of_assumptions() {
        // x1 ∧ x2 → ⊥ via clauses; x3 is irrelevant.
        let mut s = solver_with(3, &[&[-1, -2]]);
        let assumps = [lit(1), lit(3), lit(2)];
        assert_eq!(s.solve_with_assumptions(&assumps), SolveResult::Unsat);
        let core: Vec<Lit> = s.unsat_core().to_vec();
        assert!(
            core.iter().all(|l| assumps.contains(l)),
            "core ⊆ assumptions"
        );
        assert!(!core.contains(&lit(3)), "irrelevant assumption excluded");
        // The core alone must still be unsat.
        assert_eq!(s.solve_with_assumptions(&core), SolveResult::Unsat);
        // And the problem is sat without assumptions.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn unsat_core_chains_through_propagation() {
        // x1 → x2 → x3; assuming x1 and ¬x3 conflicts via the chain.
        let mut s = solver_with(4, &[&[-1, 2], &[-2, 3]]);
        let assumps = [lit(4), lit(1), lit(-3)];
        assert_eq!(s.solve_with_assumptions(&assumps), SolveResult::Unsat);
        let core: Vec<Lit> = s.unsat_core().to_vec();
        assert!(core.contains(&lit(1)));
        assert!(core.contains(&lit(-3)));
        assert!(!core.contains(&lit(4)));
        assert_eq!(s.solve_with_assumptions(&core), SolveResult::Unsat);
    }

    #[test]
    fn unsat_core_empty_when_clauses_alone_unsat() {
        let mut s = solver_with(2, &[&[1], &[-1]]);
        assert_eq!(s.solve_with_assumptions(&[lit(2)]), SolveResult::Unsat);
        assert!(s.unsat_core().is_empty());
    }

    #[test]
    fn unsat_core_cleared_between_calls() {
        let mut s = solver_with(2, &[&[-1, -2]]);
        assert_eq!(
            s.solve_with_assumptions(&[lit(1), lit(2)]),
            SolveResult::Unsat
        );
        assert!(!s.unsat_core().is_empty());
        assert_eq!(s.solve_with_assumptions(&[lit(1)]), SolveResult::Sat);
        assert!(s.unsat_core().is_empty());
    }

    #[test]
    fn stats_accumulate() {
        let mut s = solver_with(3, &[&[1, 2, 3], &[-1, -2], &[-1, -3], &[-2, -3]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.stats().propagations > 0);
    }

    /// Brute-force cross-check on random 3-CNF instances.
    #[test]
    fn agrees_with_brute_force_on_random_3cnf() {
        // xorshift for determinism without dev-deps in this unit test.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..60 {
            let n = 5 + (round % 4) as u32; // 5..8 vars
            let m = (n as usize) * 4;
            let mut clauses: Vec<Vec<i32>> = Vec::new();
            for _ in 0..m {
                let mut c = Vec::new();
                while c.len() < 3 {
                    let v = (next() % n as u64) as i32 + 1;
                    if !c.contains(&v) && !c.contains(&-v) {
                        c.push(if next() % 2 == 0 { v } else { -v });
                    }
                }
                clauses.push(c);
            }
            // Brute force.
            let brute_sat = (0..1u64 << n).any(|bits| {
                clauses.iter().all(|c| {
                    c.iter().any(|&l| {
                        let v = l.unsigned_abs() - 1;
                        ((bits >> v) & 1 == 1) == (l > 0)
                    })
                })
            });
            let mut s = Solver::new();
            s.ensure_vars(n);
            for c in &clauses {
                s.add_dimacs_clause(c);
            }
            let got = s.solve() == SolveResult::Sat;
            assert_eq!(got, brute_sat, "mismatch on round {round}: {clauses:?}");
            if got {
                for c in &clauses {
                    assert!(c.iter().any(|&l| {
                        let val = s.model_value(l.unsigned_abs() - 1).unwrap();
                        (l > 0) == val
                    }));
                }
            }
        }
    }

    /// Pigeonhole principle PHP(p, p-1): p pigeons into p-1 holes, unsat
    /// and conflict-hungry — the canonical budget-tripping instance.
    fn pigeonhole(pigeons: u32) -> Solver {
        let holes = pigeons - 1;
        let var = |p: u32, h: u32| (p * holes + h + 1) as i32;
        let mut s = Solver::new();
        s.ensure_vars(pigeons * holes);
        for p in 0..pigeons {
            let c: Vec<i32> = (0..holes).map(|h| var(p, h)).collect();
            s.add_dimacs_clause(&c);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_dimacs_clause(&[-var(p1, h), -var(p2, h)]);
                }
            }
        }
        s
    }

    #[test]
    fn generous_conflict_limit_still_reaches_a_verdict() {
        let mut s = pigeonhole(4);
        s.set_budget(Some(Budget::unlimited().with_conflict_limit(1_000_000)));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn shared_budget_interrupts_search() {
        use arbitrex_telemetry::budget::TripReason;
        let budget = Budget::unlimited().with_conflict_limit(5);
        let mut s = pigeonhole(8);
        s.set_budget(Some(budget.clone()));
        assert_eq!(s.solve(), SolveResult::Interrupted);
        let trip = budget.tripped().unwrap();
        assert_eq!(trip.site, BudgetSite::Conflict);
        assert_eq!(trip.reason, TripReason::Conflicts);
        assert!(budget.spent().conflicts >= 5);
        // A tripped shared budget rejects follow-up solves immediately.
        assert_eq!(s.solve(), SolveResult::Interrupted);
        // Detaching it restores full solving.
        s.set_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn cancel_token_interrupts_search() {
        use arbitrex_telemetry::budget::{CancelToken, TripReason};
        let token = CancelToken::new();
        token.cancel(); // pre-cancelled: trips on the first conflict
        let mut s = pigeonhole(8);
        s.set_budget(Some(Budget::unlimited().with_cancel(token)));
        assert_eq!(s.solve(), SolveResult::Interrupted);
        let b = s.budget.as_ref().unwrap();
        assert_eq!(b.tripped().unwrap().reason, TripReason::Cancelled);
    }
}
