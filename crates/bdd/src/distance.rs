//! Layered Hamming-distance computations over BDDs.
//!
//! Every operator in the paper selects interpretations minimizing a
//! distance aggregated over `Mod(ψ)`: revision minimizes
//! `min_dist(ψ, I) = min_{J ∈ Mod(ψ)} dist(I, J)` and the paper's
//! model-fitting minimizes `odist(ψ, I) = max_{J ∈ Mod(ψ)} dist(I, J)`.
//! When `ψ` is compiled to a BDD both aggregates have *level sets* that
//! are themselves BDDs, built by repeated one-step dilation:
//!
//! * `Dilate_{k+1}(X) = Dilate_k(X) ∨ ⋁_v flip_v(Dilate_k(X))` is the
//!   Hamming ball of radius `k + 1` around `Mod(X)`, so
//!   `min_dist(ψ, I) ≤ k ⟺ I ⊨ Dilate_k(ψ)` ([`DistanceLayers`]);
//! * by the antipodal identity `dist(I, J) = n − dist(I, ¬J)`,
//!   `odist(ψ, I) ≤ k ⟺ I ⊭ Dilate_{n−k−1}(flip_all(ψ))` with
//!   `Dilate_{−1} = ⊥` ([`OdistLayers`]).
//!
//! Selecting the minimal nonempty level then replaces the kernel's
//! `O(2^n · |Mod(ψ)|)` candidate scan with at most `n + 1` BDD
//! conjunctions against precomputed layers.
//!
//! Construction is guarded by a [`NodeBudget`]: layer BDDs of adversarial
//! model sets can blow up, and a caller must be able to fall back to the
//! enumeration kernel instead of stalling. Budget checks are
//! coarse-grained — between whole BDD operations, not per node — so a
//! build may overshoot the cap by one operation's worth of nodes before
//! reporting [`NodeBudgetExceeded`].

use crate::manager::{Bdd, BddManager};

/// Typed failure: a layered build grew the manager past its node budget.
///
/// Never a panic — callers fall back to the enumeration/SAT path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeBudgetExceeded {
    /// Live node count when the check failed.
    pub nodes: usize,
    /// The configured cap.
    pub budget: usize,
}

impl std::fmt::Display for NodeBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BDD node budget exceeded: {} nodes > cap {}",
            self.nodes, self.budget
        )
    }
}

impl std::error::Error for NodeBudgetExceeded {}

/// A cap on manager growth during layered construction.
///
/// Checked between whole BDD operations (coarse-grained), so the manager
/// may briefly exceed the cap by a single apply's worth of nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeBudget {
    max_nodes: usize,
}

impl NodeBudget {
    /// Cap the manager at `max_nodes` live nodes.
    pub fn new(max_nodes: usize) -> NodeBudget {
        NodeBudget { max_nodes }
    }

    /// No cap: layered builds always run to completion.
    pub fn unlimited() -> NodeBudget {
        NodeBudget {
            max_nodes: usize::MAX,
        }
    }

    /// The configured cap.
    pub fn max_nodes(&self) -> usize {
        self.max_nodes
    }

    /// Fail if the manager has outgrown the cap.
    pub fn check(&self, m: &BddManager) -> Result<(), NodeBudgetExceeded> {
        let nodes = m.node_count();
        if nodes > self.max_nodes {
            Err(NodeBudgetExceeded {
                nodes,
                budget: self.max_nodes,
            })
        } else {
            Ok(())
        }
    }
}

/// Hamming-ball dilation layers of a model set `X`:
/// `layers[k] = {I : min_{J ∈ Mod(X)} dist(I, J) ≤ k}`.
///
/// Layer 0 is `X` itself; construction stops early once a layer reaches
/// `⊤` (every universe saturates by layer `n`), and [`DistanceLayers::le`]
/// saturates its index accordingly. If `X` is unsatisfiable every layer is
/// `⊥` — there is nothing to be close to.
#[derive(Debug, Clone)]
pub struct DistanceLayers {
    layers: Vec<Bdd>,
    n_vars: u32,
}

impl DistanceLayers {
    /// Build the dilation layers of `x` over a universe of `n_vars`
    /// variables, growing `m` under `budget`.
    pub fn build(
        m: &mut BddManager,
        x: Bdd,
        n_vars: u32,
        budget: NodeBudget,
    ) -> Result<DistanceLayers, NodeBudgetExceeded> {
        let mut layers = Vec::with_capacity(n_vars as usize + 1);
        layers.push(x);
        let mut cur = x;
        for _ in 0..n_vars {
            if cur.is_true() || cur.is_false() {
                break; // saturated (or empty: dilation of ⊥ stays ⊥)
            }
            let mut next = cur;
            for v in 0..n_vars {
                let flipped = m.flip(cur, v);
                next = m.or(next, flipped);
                budget.check(m)?;
            }
            layers.push(next);
            cur = next;
        }
        Ok(DistanceLayers { layers, n_vars })
    }

    /// `{I : min_dist(X, I) ≤ k}`; indices past the last built layer
    /// saturate (the layers are monotone in `k`).
    pub fn le(&self, k: u32) -> Bdd {
        self.layers[(k as usize).min(self.layers.len() - 1)]
    }

    /// Width of the universe the layers range over.
    pub fn n_vars(&self) -> u32 {
        self.n_vars
    }
}

/// Level sets of the paper's *overall distance*
/// `odist(ψ, I) = max_{J ∈ Mod(ψ)} dist(I, J)`:
/// `le(k) = {I : odist(ψ, I) ≤ k}`.
///
/// Built from the dilation layers of the antipodal set `flip_all(ψ)` via
/// `dist(I, J) = n − dist(I, ¬J)`, so `odist(ψ, I) ≤ k` iff `I` is
/// *outside* the radius-`(n−k−1)` ball around `¬·Mod(ψ)`.
///
/// Requires `ψ` satisfiable: `odist` over an empty model set is undefined
/// (the operators special-case it before reaching here).
#[derive(Debug, Clone)]
pub struct OdistLayers {
    le: Vec<Bdd>,
    n_vars: u32,
}

impl OdistLayers {
    /// Build the odist level sets of satisfiable `psi` over `n_vars`
    /// variables, growing `m` under `budget`.
    pub fn build(
        m: &mut BddManager,
        psi: Bdd,
        n_vars: u32,
        budget: NodeBudget,
    ) -> Result<OdistLayers, NodeBudgetExceeded> {
        debug_assert!(!psi.is_false(), "odist of an unsatisfiable ψ is undefined");
        let anti = m.flip_all(psi);
        budget.check(m)?;
        let dil = DistanceLayers::build(m, anti, n_vars, budget)?;
        let mut le = Vec::with_capacity(n_vars as usize + 1);
        for k in 0..=n_vars {
            let b = if k >= n_vars {
                Bdd::TRUE // Dilate_{−1} = ⊥: every I has odist ≤ n
            } else {
                let ball = dil.le(n_vars - k - 1);
                m.not(ball)
            };
            budget.check(m)?;
            le.push(b);
        }
        Ok(OdistLayers { le, n_vars })
    }

    /// `{I : odist(ψ, I) ≤ k}`; indices past `n_vars` saturate at `⊤`.
    pub fn le(&self, k: u32) -> Bdd {
        self.le[(k as usize).min(self.le.len() - 1)]
    }

    /// Width of the universe the level sets range over.
    pub fn n_vars(&self) -> u32 {
        self.n_vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force min Hamming distance from `i` to a set of bitmasks.
    fn brute_min_dist(set: &[u64], i: u64) -> Option<u32> {
        set.iter().map(|&j| (i ^ j).count_ones()).min()
    }

    /// Brute-force max Hamming distance from `i` to a set of bitmasks.
    fn brute_odist(set: &[u64], i: u64) -> Option<u32> {
        set.iter().map(|&j| (i ^ j).count_ones()).max()
    }

    /// A BDD whose models are exactly `set` over `n` vars.
    fn of_set(m: &mut BddManager, set: &[u64], n: u32) -> Bdd {
        let mut acc = Bdd::FALSE;
        for &bits in set {
            let mut minterm = Bdd::TRUE;
            for v in (0..n).rev() {
                let lit = if bits >> v & 1 == 1 {
                    m.var(v)
                } else {
                    m.nvar(v)
                };
                minterm = m.and(minterm, lit);
            }
            acc = m.or(acc, minterm);
        }
        acc
    }

    /// A deterministic pseudo-random model set (no external RNG).
    fn scrambled_set(seed: u64, n: u32, len: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(len);
        let mut s = seed;
        for _ in 0..len {
            s = s
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(0x2545_F491_4F6C_DD1D);
            out.push((s >> 17) & ((1 << n) - 1));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn dilation_layers_match_brute_force_min_dist() {
        for seed in 1..=6u64 {
            let n = 5;
            let set = scrambled_set(seed, n, 4);
            let mut m = BddManager::new();
            let x = of_set(&mut m, &set, n);
            let layers = DistanceLayers::build(&mut m, x, n, NodeBudget::unlimited()).unwrap();
            for k in 0..=n {
                let lvl = layers.le(k);
                for i in 0..(1u64 << n) {
                    let expect = brute_min_dist(&set, i).unwrap() <= k;
                    assert_eq!(m.eval(lvl, i), expect, "seed={seed} k={k} i={i:b}");
                }
            }
        }
    }

    #[test]
    fn odist_layers_match_brute_force() {
        for seed in 1..=6u64 {
            let n = 5;
            let set = scrambled_set(seed.wrapping_mul(77), n, 3);
            let mut m = BddManager::new();
            let psi = of_set(&mut m, &set, n);
            let layers = OdistLayers::build(&mut m, psi, n, NodeBudget::unlimited()).unwrap();
            for k in 0..=n {
                let lvl = layers.le(k);
                for i in 0..(1u64 << n) {
                    let expect = brute_odist(&set, i).unwrap() <= k;
                    assert_eq!(m.eval(lvl, i), expect, "seed={seed} k={k} i={i:b}");
                }
            }
        }
    }

    #[test]
    fn layers_saturate_and_handle_constants() {
        let mut m = BddManager::new();
        // ⊥: every dilation layer stays empty.
        let d = DistanceLayers::build(&mut m, Bdd::FALSE, 4, NodeBudget::unlimited()).unwrap();
        for k in 0..=6 {
            assert!(d.le(k).is_false());
        }
        // ⊤: layer 0 is already everything; odist of ⊤ is the
        // distance to the farthest corner.
        let d = DistanceLayers::build(&mut m, Bdd::TRUE, 4, NodeBudget::unlimited()).unwrap();
        assert!(d.le(0).is_true());
        let o = OdistLayers::build(&mut m, Bdd::TRUE, 2, NodeBudget::unlimited()).unwrap();
        // odist(⊤, I) = 2 for every I over 2 vars (the antipode is a model).
        assert!(o.le(0).is_false());
        assert!(o.le(1).is_false());
        assert!(o.le(2).is_true());
        assert!(o.le(9).is_true());
    }

    #[test]
    fn singleton_psi_odist_equals_min_dist() {
        // With |Mod(ψ)| = 1 the min and max aggregates coincide.
        let n = 4;
        let set = [0b1010u64];
        let mut m = BddManager::new();
        let psi = of_set(&mut m, &set, n);
        let dil = DistanceLayers::build(&mut m, psi, n, NodeBudget::unlimited()).unwrap();
        let od = OdistLayers::build(&mut m, psi, n, NodeBudget::unlimited()).unwrap();
        for k in 0..=n {
            assert_eq!(dil.le(k), od.le(k), "k={k}");
        }
    }

    #[test]
    fn node_budget_trips_with_typed_error_not_a_panic() {
        let n = 8;
        let set = scrambled_set(3, n, 40);
        let mut m = BddManager::new();
        let x = of_set(&mut m, &set, n);
        let tight = NodeBudget::new(m.node_count()); // no headroom at all
        let err = DistanceLayers::build(&mut m, x, n, tight).unwrap_err();
        assert!(err.nodes > err.budget);
        assert!(err.to_string().contains("node budget"));
        // The same build under no cap succeeds.
        let ok = DistanceLayers::build(&mut m, x, n, NodeBudget::unlimited());
        assert!(ok.is_ok());
    }

    #[test]
    fn example_31_levels() {
        // Example 3.1: Mod(ψ) = {S}, {D}, {S,D,Q} with S=0, D=1, Q=2.
        let mut m = BddManager::new();
        let psi = of_set(&mut m, &[0b001, 0b010, 0b111], 3);
        let od = OdistLayers::build(&mut m, psi, 3, NodeBudget::unlimited()).unwrap();
        // odist(ψ, {S,D}) = 1 and odist(ψ, {D}) = 2, per the paper.
        assert!(m.eval(od.le(1), 0b011));
        assert!(!m.eval(od.le(1), 0b010));
        assert!(m.eval(od.le(2), 0b010));
        // {S,D} is the unique interpretation at overall distance ≤ 1.
        assert_eq!(m.models(od.le(1), 3), vec![0b011]);
    }
}
