//! Renaming-invariant keys for queries given by their model sets.
//!
//! Every operator of `arbitrex-core` is a function of the model sets it is
//! handed (syntax irrelevance, (R4)/(U4)/(A4)), and Dalal's distance is
//! invariant under permutations of the variables. So a query — one or
//! more sides, each a set of interpretations over `n` variables — can be
//! identified by its bit matrix up to a permutation of the columns:
//! `ψ Δ φ`, `φ Δ ψ`, any equivalent rewrite of either and any renaming of
//! the variables all present the same matrix once the columns are put in a
//! canonical order.
//!
//! [`ModelKey`] finds that order by colour refinement on rows and columns
//! jointly. A row starts coloured by its side, its label (a weight, or
//! nothing) and its popcount; a column by nothing. Each round recolours
//! every row by the multiset of the colours of the columns it sets, and
//! every column by the multiset of the colours of the rows that set it,
//! until the column partition stops splitting. Columns left tied either
//! have identical bits in every row (any order of them gives the same
//! matrix) or are broken by individualize-and-refine: each representative
//! of the first tied cell is given a colour of its own and refined in
//! turn, down to a leaf, and the least permuted matrix over the leaves is
//! the key. Two leaves with equal matrices reveal an automorphism of the
//! query, which prunes the branches it maps onto each other (the scheme of
//! McKay's canonical labelling, at a size where nothing more is needed).
//!
//! **Soundness needs no canonicity.** The key bytes are the permuted
//! model sets themselves, so equal bytes mean the two queries' model sets
//! are equal under their own permutations, and replaying an answer
//! through [`ModelKey::forward`] is exact whatever the labelling. A tie
//! broken badly, a hash collision between colours, or a search cut short
//! by its work limit costs a missed hit, never a wrong answer. The work
//! limit bounds the search to a few dozen refinement passes over the rows
//! when a query is highly symmetric (`Mod(⊤)` is the extreme); past it the
//! remaining ties are broken by variable index.
//!
//! ```
//! use arbitrex_logic::{Interp, ModelKey, ModelSet};
//! // ψ = {AB̄}, μ = {ĀB} over (A, B), and the same query with A and B
//! // swapped: one key, and each query's `forward` maps it there.
//! let psi = ModelSet::new(2, [Interp(0b01)]);
//! let mu = ModelSet::new(2, [Interp(0b10)]);
//! let a = ModelKey::new(2, &[psi.as_slice(), mu.as_slice()]);
//! let b = ModelKey::new(2, &[mu.as_slice(), psi.as_slice()]);
//! assert_eq!(a.bytes(), b.bytes());
//! assert_ne!(a.forward(), b.forward());
//! ```

use crate::interp::Interp;

/// A query's model sets in a canonical column order: the key bytes and the
/// variable permutation that produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelKey {
    bytes: Vec<u8>,
    forward: Vec<u32>,
}

impl ModelKey {
    /// Key the sides `sides` of a query over `n_vars` variables. Each side
    /// is a set of interpretations (a model set's slice; any order, no
    /// duplicates); the sides keep their order, so `[ψ, μ]` and `[μ, ψ]`
    /// are different queries unless their sets say otherwise.
    ///
    /// # Panics
    /// Panics if `n_vars > 64` or a row sets a bit at or past `n_vars`.
    pub fn new(n_vars: u32, sides: &[&[Interp]]) -> ModelKey {
        let rows = sides.iter().flat_map(|s| s.iter().map(|i| i.0)).collect();
        let ends = ends(sides.iter().map(|s| s.len()));
        Matrix::new(n_vars, rows, None, ends).key()
    }

    /// Key one weighted side: `support` lists distinct interpretations,
    /// each with its weight, and the weight is part of the row.
    ///
    /// # Panics
    /// Panics if `n_vars > 64` or a row sets a bit at or past `n_vars`.
    pub fn weighted(n_vars: u32, support: &[(Interp, u64)]) -> ModelKey {
        let rows = support.iter().map(|(i, _)| i.0).collect();
        let labels = support.iter().map(|&(_, w)| w).collect();
        Matrix::new(n_vars, rows, Some(labels), vec![support.len()]).key()
    }

    /// The key material: `n`, then for each side its row count and its
    /// rows under the canonical column order, ascending, each in
    /// `⌈n / 8⌉` little-endian bytes followed by its weight when the
    /// query is weighted.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// `forward[i]` is the canonical column of variable `i`: a permutation
    /// of `0..n_vars`.
    pub fn forward(&self) -> &[u32] {
        &self.forward
    }

    /// The key bytes and the permutation, by value.
    pub fn into_parts(self) -> (Vec<u8>, Vec<u32>) {
        (self.bytes, self.forward)
    }
}

/// Exclusive end offsets of consecutive runs of the given lengths.
fn ends(lens: impl Iterator<Item = usize>) -> Vec<usize> {
    lens.scan(0, |end, len| {
        *end += len;
        Some(*end)
    })
    .collect()
}

/// The murmur3 64-bit finalizer: the colour hash every multiset sum feeds
/// its elements through.
fn fmix(mut h: u64) -> u64 {
    h = (h ^ h >> 33).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h = (h ^ h >> 33).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ h >> 33
}

/// Combine a colour with one more word.
fn combine(h: u64, x: u64) -> u64 {
    fmix(h ^ x.wrapping_add(0x9e37_79b9_7f4a_7c15).wrapping_add(h << 6))
}

/// Tag mixed into a column's colour when it is individualized at a depth.
const INDIVIDUALIZED: u64 = 0x1d1d_1d1d_0000_0000;

/// The query as a bit matrix: rows are interpretations, grouped by side.
struct Matrix {
    n: usize,
    rows: Vec<u64>,
    labels: Option<Vec<u64>>,
    /// Exclusive end of each side's run of rows.
    ends: Vec<usize>,
    /// Column `j`'s bits over the rows, `words` u64s from `j * words`.
    cols: Vec<u64>,
    words: usize,
}

/// Refinement state at one search node.
#[derive(Clone)]
struct Colours {
    rows: Vec<u64>,
    cols: Vec<u64>,
}

/// One leaf of the search: a full column order and the matrix under it.
#[derive(Clone)]
struct Leaf {
    /// Per side, the permuted rows ascending (each followed by its label
    /// in a weighted query).
    matrix: Vec<u64>,
    forward: Vec<u32>,
}

/// The first leaf, with what identifies its node: its column colours by
/// canonical position and the columns individualized on its path.
struct FirstLeaf {
    leaf: Leaf,
    colours: Vec<u64>,
    path: Vec<u32>,
}

enum Control {
    Continue,
    /// A leaf matched the first leaf: unwind to the node at this depth,
    /// where the two paths part.
    Unwind(usize),
}

struct Search<'m> {
    m: &'m Matrix,
    first: Option<FirstLeaf>,
    best: Option<Leaf>,
    /// Column automorphisms found, as `gamma[i]` = image of column `i`.
    automorphisms: Vec<Vec<u32>>,
    /// Row visits spent so far, and the budget.
    work: usize,
    limit: usize,
}

impl Matrix {
    fn new(n_vars: u32, rows: Vec<u64>, labels: Option<Vec<u64>>, ends: Vec<usize>) -> Matrix {
        assert!(n_vars <= 64, "at most 64 variables");
        let width = Interp::full(n_vars).0;
        assert!(
            rows.iter().all(|&r| r & !width == 0),
            "a row sets a bit at or past width {n_vars}"
        );
        let n = n_vars as usize;
        let words = rows.len().div_ceil(64);
        let mut cols = vec![0u64; n * words];
        for (r, &bits) in rows.iter().enumerate() {
            let mut b = bits;
            while b != 0 {
                let j = b.trailing_zeros() as usize;
                cols[j * words + r / 64] |= 1 << (r % 64);
                b &= b - 1;
            }
        }
        Matrix {
            n,
            rows,
            labels,
            ends,
            cols,
            words,
        }
    }

    fn column(&self, j: usize) -> &[u64] {
        &self.cols[j * self.words..(j + 1) * self.words]
    }

    fn initial(&self) -> Colours {
        let mut rows = Vec::with_capacity(self.rows.len());
        let mut start = 0;
        for (side, &end) in self.ends.iter().enumerate() {
            for r in start..end {
                let label = self.labels.as_ref().map_or(0, |l| l[r]);
                let seed = combine(side as u64 + 1, label);
                rows.push(combine(seed, u64::from(self.rows[r].count_ones())));
            }
            start = end;
        }
        Colours {
            rows,
            cols: vec![0; self.n],
        }
    }

    fn key(&self) -> ModelKey {
        let mut search = Search {
            m: self,
            first: None,
            best: None,
            automorphisms: Vec::new(),
            work: 0,
            limit: 4096 + 16 * (self.rows.len() + self.n),
        };
        search.dfs(self.initial(), &mut Vec::new());
        // invariant: the first descent always reaches a leaf.
        let best = search.best.expect("the search reaches a leaf");
        ModelKey {
            bytes: self.encode(&best.matrix),
            forward: best.forward,
        }
    }

    /// Number of distinct column colours.
    fn classes(cols: &[u64]) -> usize {
        let mut sorted = cols.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len()
    }

    /// The leaf matrix under `forward`.
    fn permuted(&self, forward: &[u32]) -> Vec<u64> {
        let stride = if self.labels.is_some() { 2 } else { 1 };
        let mut out = Vec::with_capacity(self.rows.len() * stride);
        let mut start = 0;
        for &end in &self.ends {
            let mut side: Vec<(u64, u64)> = (start..end)
                .map(|r| {
                    let mut b = self.rows[r];
                    let mut p = 0u64;
                    while b != 0 {
                        p |= 1 << forward[b.trailing_zeros() as usize];
                        b &= b - 1;
                    }
                    (p, self.labels.as_ref().map_or(0, |l| l[r]))
                })
                .collect();
            side.sort_unstable();
            for (p, label) in side {
                out.push(p);
                if self.labels.is_some() {
                    out.push(label);
                }
            }
            start = end;
        }
        out
    }

    fn encode(&self, matrix: &[u64]) -> Vec<u8> {
        let row_bytes = self.n.div_ceil(8);
        let labelled = self.labels.is_some();
        let mut out = Vec::with_capacity(
            13 + 8 * self.ends.len() + self.rows.len() * (row_bytes + 8 * usize::from(labelled)),
        );
        out.extend_from_slice(&(self.n as u32).to_le_bytes());
        out.push(u8::from(labelled));
        out.extend_from_slice(&(self.ends.len() as u64).to_le_bytes());
        let stride = if labelled { 2 } else { 1 };
        let mut start = 0;
        for &end in &self.ends {
            out.extend_from_slice(&((end - start) as u64).to_le_bytes());
            for row in matrix[start * stride..end * stride].chunks(stride) {
                out.extend_from_slice(&row[0].to_le_bytes()[..row_bytes]);
                if labelled {
                    out.extend_from_slice(&row[1].to_le_bytes());
                }
            }
            start = end;
        }
        out
    }
}

impl Search<'_> {
    /// Refine `c` until the column partition stops splitting.
    fn refine(&mut self, c: &mut Colours) {
        let m = self.m;
        let mut classes = Matrix::classes(&c.cols);
        let mut hashed = vec![0u64; m.n];
        let mut sums = vec![0u64; m.n];
        loop {
            // Rows from the columns they set.
            for (h, &col) in hashed.iter_mut().zip(&c.cols) {
                *h = fmix(col);
            }
            for (colour, &bits) in c.rows.iter_mut().zip(&m.rows) {
                let mut b = bits;
                let mut sum = 0u64;
                while b != 0 {
                    sum = sum.wrapping_add(hashed[b.trailing_zeros() as usize]);
                    b &= b - 1;
                }
                *colour = combine(*colour, sum);
            }
            // Columns from the rows that set them.
            sums.fill(0);
            for (&colour, &bits) in c.rows.iter().zip(&m.rows) {
                let h = fmix(colour);
                let mut b = bits;
                while b != 0 {
                    let j = b.trailing_zeros() as usize;
                    sums[j] = sums[j].wrapping_add(h);
                    b &= b - 1;
                }
            }
            for (col, &sum) in c.cols.iter_mut().zip(&sums) {
                *col = combine(*col, sum);
            }
            self.work += 2 * (m.rows.len() + m.n);
            let now = Matrix::classes(&c.cols);
            if now == classes || now == m.n || self.work > self.limit {
                return;
            }
            classes = now;
        }
    }

    /// Columns in canonical order: by colour, ties by index.
    fn order(&self, c: &Colours) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.m.n as u32).collect();
        order.sort_unstable_by_key(|&j| (c.cols[j as usize], j));
        order
    }

    /// Representatives (one per distinct column vector, lowest index
    /// first) of the first tied cell, in colour order, whose columns are
    /// not all identical; `None` at a leaf.
    fn target_cell(&self, order: &[u32], c: &Colours) -> Option<Vec<u32>> {
        let m = self.m;
        for cell in order.chunk_by(|&a, &b| c.cols[a as usize] == c.cols[b as usize]) {
            let first = m.column(cell[0] as usize);
            if cell.iter().all(|&j| m.column(j as usize) == first) {
                continue;
            }
            let mut reps: Vec<u32> = Vec::new();
            for &j in cell {
                if !reps
                    .iter()
                    .any(|&r| m.column(r as usize) == m.column(j as usize))
                {
                    reps.push(j);
                }
            }
            return Some(reps);
        }
        None
    }

    fn dfs(&mut self, mut c: Colours, path: &mut Vec<u32>) -> Control {
        self.refine(&mut c);
        let order = self.order(&c);
        let cell = if self.work > self.limit {
            None
        } else {
            self.target_cell(&order, &c)
        };
        let Some(reps) = cell else {
            return self.leaf(&order, &c, path);
        };
        let mut explored: Vec<u32> = Vec::new();
        for col in reps {
            if !explored.is_empty() {
                if self.work > self.limit {
                    break;
                }
                if self.same_orbit(col, &explored, path) {
                    continue;
                }
            }
            explored.push(col);
            let mut child = c.clone();
            let j = col as usize;
            child.cols[j] = combine(child.cols[j], INDIVIDUALIZED | path.len() as u64);
            path.push(col);
            let control = self.dfs(child, path);
            path.pop();
            if let Control::Unwind(depth) = control {
                if depth < path.len() {
                    return control;
                }
            }
        }
        Control::Continue
    }

    /// Is `col` the image of an explored column under the automorphisms
    /// found so far that fix every column on `path`?
    fn same_orbit(&self, col: u32, explored: &[u32], path: &[u32]) -> bool {
        let mut parent: Vec<u32> = (0..self.m.n as u32).collect();
        fn root(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        for gamma in &self.automorphisms {
            if path.iter().any(|&p| gamma[p as usize] != p) {
                continue;
            }
            for (i, &g) in gamma.iter().enumerate() {
                let (a, b) = (root(&mut parent, i as u32), root(&mut parent, g));
                parent[a as usize] = b;
            }
        }
        let target = root(&mut parent, col);
        explored.iter().any(|&e| root(&mut parent, e) == target)
    }

    fn leaf(&mut self, order: &[u32], c: &Colours, path: &[u32]) -> Control {
        let m = self.m;
        let mut forward = vec![0u32; m.n];
        for (pos, &j) in order.iter().enumerate() {
            forward[j as usize] = pos as u32;
        }
        let leaf = Leaf {
            matrix: m.permuted(&forward),
            forward,
        };
        self.work += m.rows.len() + m.n;
        let colours: Vec<u64> = order.iter().map(|&j| c.cols[j as usize]).collect();
        let Some(first) = &self.first else {
            self.best = Some(leaf.clone());
            self.first = Some(FirstLeaf {
                leaf,
                colours,
                path: path.to_vec(),
            });
            return Control::Continue;
        };
        if leaf.matrix == first.leaf.matrix {
            self.automorphisms
                .push(automorphism(&leaf.forward, &first.leaf.forward));
            // Equal colours too: the automorphism maps this leaf's node
            // onto the first leaf's, so the branch this path took where
            // the two part is an image of the first, already searched.
            if colours == first.colours {
                let depth = path
                    .iter()
                    .zip(&first.path)
                    .take_while(|(a, b)| a == b)
                    .count();
                return Control::Unwind(depth);
            }
            return Control::Continue;
        }
        // invariant: `best` is set together with `first`.
        let best = self.best.as_mut().expect("best is set with first");
        if leaf.matrix == best.matrix {
            self.automorphisms
                .push(automorphism(&leaf.forward, &best.forward));
        } else if leaf.matrix < best.matrix {
            *best = leaf;
        }
        Control::Continue
    }
}

/// The column permutation taking the leaf ordered by `a` onto the leaf
/// ordered by `b`, when both give the same matrix: `b⁻¹ ∘ a`.
fn automorphism(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut inverse = vec![0u32; b.len()];
    for (j, &pos) in b.iter().enumerate() {
        inverse[pos as usize] = j as u32;
    }
    a.iter().map(|&pos| inverse[pos as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelSet;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn set(n: u32, bits: &[u64]) -> ModelSet {
        ModelSet::new(n, bits.iter().map(|&b| Interp(b)))
    }

    /// `s` with variable `i` moved to `perm[i]`.
    fn renamed(s: &ModelSet, perm: &[u32]) -> ModelSet {
        ModelSet::new(
            s.n_vars(),
            s.iter().map(|i| {
                Interp(
                    perm.iter()
                        .enumerate()
                        .fold(0, |acc, (v, &to)| acc | (i.0 >> v & 1) << to),
                )
            }),
        )
    }

    fn permutation(rng: &mut StdRng, n: u32) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n).collect();
        for i in (1..p.len()).rev() {
            p.swap(i, rng.random_range(0..=i));
        }
        p
    }

    fn key(n: u32, sides: &[&ModelSet]) -> ModelKey {
        let slices: Vec<&[Interp]> = sides.iter().map(|s| s.as_slice()).collect();
        ModelKey::new(n, &slices)
    }

    /// A random query of `sides` sides over `n` variables.
    fn query(rng: &mut StdRng, n: u32, sides: usize, max_models: usize) -> Vec<ModelSet> {
        (0..sides)
            .map(|_| {
                let k = rng.random_range(0..=max_models);
                ModelSet::new(n, (0..k).map(|_| Interp(rng.random_range(0..1u64 << n))))
            })
            .collect()
    }

    #[test]
    fn equal_bytes_mean_equal_permuted_sets() {
        // Small universes, so that distinct queries often share a key: the
        // soundness direction, checked on every collision.
        let mut rng = StdRng::seed_from_u64(0x6b65_7901);
        let queries: Vec<(u32, Vec<ModelSet>)> = (0..400)
            .map(|_| {
                let n = rng.random_range(0..=3u32);
                let sides = rng.random_range(1..=2);
                (n, query(&mut rng, n, sides, 4))
            })
            .collect();
        let keys: Vec<ModelKey> = queries
            .iter()
            .map(|(n, q)| key(*n, &q.iter().collect::<Vec<_>>()))
            .collect();
        let moved = |i: usize| -> Vec<ModelSet> {
            queries[i]
                .1
                .iter()
                .map(|s| renamed(s, keys[i].forward()))
                .collect()
        };
        let mut collisions = 0;
        for i in 0..queries.len() {
            let mut seen = keys[i].forward().to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..queries[i].0).collect::<Vec<_>>());
            for j in i + 1..queries.len() {
                if keys[i].bytes() == keys[j].bytes() {
                    collisions += 1;
                    assert_eq!(moved(i), moved(j), "{:?} vs {:?}", queries[i], queries[j]);
                }
            }
        }
        assert!(collisions > 100, "only {collisions} collisions to check");
    }

    #[test]
    fn renamings_share_a_key() {
        let mut rng = StdRng::seed_from_u64(0x6b65_7902);
        for _ in 0..300 {
            let n = rng.random_range(1..=10u32);
            let [psi, mu] = [8, 4].map(|k| query(&mut rng, n, 1, k).remove(0));
            let perm = permutation(&mut rng, n);
            let a = key(n, &[&psi, &mu]);
            let b = key(n, &[&renamed(&psi, &perm), &renamed(&mu, &perm)]);
            assert_eq!(a.bytes(), b.bytes(), "{psi:?} / {mu:?} under {perm:?}");
        }
    }

    #[test]
    fn symmetric_sets_share_a_key_under_every_renaming() {
        // Sets whose columns stay tied after refinement: the search must
        // still land every renaming on one key.
        let cases = [
            set(4, &[0b0011, 0b1100]),
            set(4, &[0b0011, 0b0110, 0b1100, 0b1001]),
            set(5, &[0b00011, 0b11000, 0b00100]),
            set(6, &[0b000111, 0b111000, 0b001001, 0b110110]),
            ModelSet::all(5),
            set(6, &[0b000011, 0b001100, 0b110000]),
        ];
        let mut rng = StdRng::seed_from_u64(0x6b65_7903);
        for s in &cases {
            let n = s.n_vars();
            let want = key(n, &[s]);
            for _ in 0..40 {
                let perm = permutation(&mut rng, n);
                assert_eq!(key(n, &[&renamed(s, &perm)]).bytes(), want.bytes(), "{s:?}");
            }
        }
    }

    #[test]
    fn sides_and_weights_are_part_of_the_key() {
        let a = set(2, &[0b01]);
        let b = set(2, &[0b11]);
        assert_ne!(key(2, &[&a, &b]).bytes(), key(2, &[&b, &a]).bytes());
        assert_ne!(key(2, &[&a]).bytes(), key(3, &[&set(3, &[0b001])]).bytes());
        let w1 = ModelKey::weighted(2, &[(Interp(0b01), 3), (Interp(0b10), 1)]);
        let w2 = ModelKey::weighted(2, &[(Interp(0b01), 1), (Interp(0b10), 3)]);
        let w3 = ModelKey::weighted(2, &[(Interp(0b01), 3), (Interp(0b10), 2)]);
        assert_eq!(w1.bytes(), w2.bytes()); // swap A and B
        assert_ne!(w1.bytes(), w3.bytes());
    }

    #[test]
    fn empty_and_zero_width_queries_key() {
        let k = key(0, &[&set(0, &[0])]);
        assert!(k.forward().is_empty());
        assert_ne!(k.bytes(), key(0, &[&set(0, &[])]).bytes());
        assert_eq!(key(3, &[&set(3, &[])]).forward().len(), 3);
    }
}
