//! Canonical forms and hash keys for formulas.
//!
//! A serving layer in front of the operators wants to recognize that
//! `A & !B`, `!B & A` and even `X & !Y` (same shape, different names) are
//! *the same query*: every operator in `arbitrex-core` is defined through
//! Dalal's distance on interpretations, which is invariant under
//! permutations of the variable universe, so the answer to one is the
//! answer to the other up to the same renaming. This module computes a
//! deterministic canonical form that quotients out
//!
//! * **derived connectives and negation placement** — via [`crate::to_nnf`],
//! * **argument order and duplication** in `∧`/`∨` — children are sorted
//!   under a structural total order and deduplicated,
//! * **variable identity** — variables are renumbered by first occurrence
//!   in the sorted tree, iterated to a fixed point with the sorting,
//!
//! and hashes it with FNV-1a into a [`canonical_key`]. Alpha-equivalent or
//! syntactically shuffled formulas collide by construction; inequivalent
//! formulas collide only if either the canonicalizer's finite iteration
//! fails to converge (a missed collision, never a false one) or the 64-bit
//! hash collides. A consumer that must not trust 64 bits keys on the full
//! [`canonical_bytes`] instead.
//!
//! [`canonicalize_query`] is the joint form: all formulas of one query
//! share a single renaming (so `ψ` and `μ` stay aligned), and the renaming
//! is returned as a permutation of the full `n`-variable universe so model
//! sets computed in canonical space can be mapped back to the caller's
//! variable order. It serves no request: the server keeps no result
//! cache, and sends every query to its operator. It stays for the serving
//! benchmark's traced replay, which still times it as its `canonical.key`
//! layer.
//!
//! Only the first pass builds a new tree (NNF, then sort-and-dedup). Every
//! later renaming — the initial color order and each fixed-point round —
//! renumbers variables in place and re-sorts `∧`/`∨` children bottom-up,
//! which on an already normalized tree gives exactly what rebuilding it
//! would. Color refinement hashes through one reused working stack instead
//! of a vector per node.
//!
//! **The bytes are a cross-node contract.** [`numbered_canonical_bytes`]
//! shares this serialization and travels in the KB digest of a theory too
//! wide to enumerate, so every node must compute the same bytes for the
//! same formula. Optimizations here must leave the bytes, and the color
//! hash that shapes them, unchanged; `tests/canonical_golden.rs` pins them.

use crate::ast::Formula;
use crate::interp::Var;
use crate::nnf::to_nnf;
use std::cmp::Ordering;

/// A query (one or more formulas over a shared signature) rewritten into
/// canonical form, together with the variable permutation that got it
/// there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalQuery {
    /// The canonicalized formulas, in input order.
    pub formulas: Vec<Formula>,
    /// `forward[i]` is the canonical index of original variable `i`; a
    /// permutation of `0..n_vars`.
    pub forward: Vec<u32>,
    /// Width of the variable universe the permutation ranges over.
    pub n_vars: u32,
}

impl CanonicalQuery {
    /// Serialize the whole query (formula count, then each canonical
    /// formula length-prefixed) — the collision-free cache key material.
    pub fn key_bytes(&self) -> Vec<u8> {
        let size: usize = self.formulas.iter().map(Formula::size).sum();
        let mut out = Vec::with_capacity(8 + 4 * self.formulas.len() + 3 * size);
        out.extend_from_slice(&self.n_vars.to_le_bytes());
        out.extend_from_slice(&(self.formulas.len() as u32).to_le_bytes());
        for f in &self.formulas {
            // Length prefix, patched once the formula is written.
            let at = out.len();
            out.extend_from_slice(&[0; 4]);
            write_node(f, &mut out);
            let len = (out.len() - at - 4) as u32;
            out[at..at + 4].copy_from_slice(&len.to_le_bytes());
        }
        out
    }
}

/// Canonicalize a joint query: every formula is NNF-normalized, sorted,
/// and the variables of the whole group are renumbered consistently.
///
/// `n_vars` is the width of the universe the query ranges over (it may
/// exceed the largest variable actually mentioned); the returned
/// [`CanonicalQuery::forward`] is a permutation of `0..n_vars`, with
/// unmentioned variables assigned the leftover canonical slots in
/// ascending order.
pub fn canonicalize_query(formulas: &[&Formula], n_vars: u32) -> CanonicalQuery {
    let width = formulas
        .iter()
        .filter_map(|f| f.max_var())
        .map(|v| v.0 + 1)
        .max()
        .unwrap_or(0)
        .max(n_vars);
    let mut fs: Vec<Formula> = formulas.iter().map(|f| normalize(&to_nnf(f))).collect();
    // Initial order from index-free color refinement: variables that play
    // different structural roles get different colors no matter how the
    // input happened to number them. First-occurrence renumbering alone
    // is *not* renaming-invariant (two numberings of the same formula can
    // converge to different fixed points); the colors break that tie.
    let colors = refine_colors(&fs, width, 3);
    let initial = order_from_colors(&fs, &colors, width);
    for f in &mut fs {
        renumber(f, &initial);
    }
    // Composed renaming: forward[original] = current canonical index.
    let mut forward: Vec<u32> = initial;
    // Alternate renumber-by-first-occurrence with re-sorting until the
    // numbering stabilizes. Each round is deterministic, so equal inputs
    // always land on equal outputs even if a pathological formula fails
    // to reach a fixed point within the iteration cap.
    for _ in 0..8 {
        let step = first_occurrence_renaming(&fs, width);
        if step.iter().enumerate().all(|(i, &v)| v == i as u32) {
            break;
        }
        for f in &mut fs {
            renumber(f, &step);
        }
        for slot in forward.iter_mut() {
            *slot = step[*slot as usize];
        }
    }
    CanonicalQuery {
        formulas: fs,
        forward,
        n_vars: width,
    }
}

/// The canonical serialization of a single formula. Two formulas get equal
/// bytes iff the canonicalizer identifies them.
pub fn canonical_bytes(f: &Formula) -> Vec<u8> {
    serialize(&canonicalize_query(&[f], 0).formulas[0])
}

/// The canonical serialization of `f` under its own variable numbering:
/// NNF with `∧`/`∨` children sorted and deduplicated, as in
/// [`canonical_bytes`], but no renaming. Number the variables by name first
/// and equal bytes name the same theory over the same names.
pub fn numbered_canonical_bytes(f: &Formula) -> Vec<u8> {
    serialize(&normalize(&to_nnf(f)))
}

/// A 64-bit FNV-1a hash of [`canonical_bytes`] — the cache key promised to
/// collide for alpha-equivalent and syntactically shuffled formulas.
///
/// ```
/// use arbitrex_logic::{canonical_key, parse, Sig};
/// let mut s1 = Sig::new();
/// let f = parse(&mut s1, "A & !B").unwrap();
/// let mut s2 = Sig::new();
/// let g = parse(&mut s2, "!Y & X").unwrap(); // shuffled, renamed
/// assert_eq!(canonical_key(&f), canonical_key(&g));
/// ```
pub fn canonical_key(f: &Formula) -> u64 {
    fnv1a(&canonical_bytes(f))
}

/// Serialize a formula in the canonical prefix byte encoding (the same
/// bytes [`canonical_bytes`] produces, minus the canonicalization step).
///
/// This is the workspace's durable wire format: the server's write-ahead
/// log stores formulas this way and replays them through
/// [`decode_formula`], so `decode_formula(&encode_formula(f)) == Ok(f)`
/// for every formula and the round trip is byte-identical.
pub fn encode_formula(f: &Formula) -> Vec<u8> {
    serialize(f)
}

/// Why [`decode_formula`] rejected a byte string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// What was wrong at that offset.
    pub what: &'static str,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "formula decode error at byte {}: {}",
            self.offset, self.what
        )
    }
}

impl std::error::Error for DecodeError {}

/// Nesting cap for [`decode_formula`] — twice the parser's
/// [`crate::MAX_PARSE_DEPTH`], so anything the workspace can produce
/// round-trips while corrupt input cannot blow the decoder's stack.
pub const DECODE_MAX_DEPTH: usize = 512;

/// Decode a formula from the prefix byte encoding of [`encode_formula`].
///
/// Total: every byte string either decodes or returns a typed
/// [`DecodeError`] — corrupt input never panics, over-allocates, or
/// recurses past [`DECODE_MAX_DEPTH`]. Trailing bytes are an error, so a
/// successful decode consumes the input exactly.
pub fn decode_formula(bytes: &[u8]) -> Result<Formula, DecodeError> {
    let mut pos = 0usize;
    let f = read_node(bytes, &mut pos, 0)?;
    if pos != bytes.len() {
        return Err(DecodeError {
            offset: pos,
            what: "trailing bytes after formula",
        });
    }
    Ok(f)
}

fn read_node(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Formula, DecodeError> {
    if depth >= DECODE_MAX_DEPTH {
        return Err(DecodeError {
            offset: *pos,
            what: "nesting too deep",
        });
    }
    let at = *pos;
    let tag = *bytes.get(at).ok_or(DecodeError {
        offset: at,
        what: "truncated: expected a node tag",
    })?;
    *pos += 1;
    let read_u32 = |pos: &mut usize| -> Result<u32, DecodeError> {
        let start = *pos;
        let end = start.checked_add(4).filter(|&e| e <= bytes.len());
        let end = end.ok_or(DecodeError {
            offset: start,
            what: "truncated: expected 4 bytes",
        })?;
        // invariant: the range is in bounds by the check above.
        let word = u32::from_le_bytes(bytes[start..end].try_into().unwrap());
        *pos = end;
        Ok(word)
    };
    match tag {
        b'T' => Ok(Formula::True),
        b'F' => Ok(Formula::False),
        b'v' => {
            let v = read_u32(pos)?;
            if v as usize >= crate::interp::MAX_VARS {
                return Err(DecodeError {
                    offset: at + 1,
                    what: "variable index out of range",
                });
            }
            Ok(Formula::Var(Var(v)))
        }
        b'!' => Ok(Formula::Not(Box::new(read_node(bytes, pos, depth + 1)?))),
        b'&' | b'|' => {
            let count = read_u32(pos)? as usize;
            // No with_capacity: `count` is untrusted; each child costs at
            // least one input byte, so growth is bounded by the input.
            let mut children = Vec::new();
            for _ in 0..count {
                children.push(read_node(bytes, pos, depth + 1)?);
            }
            Ok(if tag == b'&' {
                Formula::And(children)
            } else {
                Formula::Or(children)
            })
        }
        b'>' | b'=' | b'^' => {
            let a = Box::new(read_node(bytes, pos, depth + 1)?);
            let b = Box::new(read_node(bytes, pos, depth + 1)?);
            Ok(match tag {
                b'>' => Formula::Implies(a, b),
                b'=' => Formula::Iff(a, b),
                _ => Formula::Xor(a, b),
            })
        }
        _ => Err(DecodeError {
            offset: at,
            what: "unknown node tag",
        }),
    }
}

/// FNV-1a over a byte string (the workspace's zero-dependency hash).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Streaming FNV-1a over little-endian 64-bit words — the module's hash
/// combiner. Feeding words one at a time hashes exactly the bytes of their
/// concatenation, so no caller needs to collect its words first.
#[derive(Clone, Copy)]
struct Mix(u64);

impl Mix {
    fn new() -> Mix {
        Mix(0xcbf2_9ce4_8422_2325)
    }

    fn word(self, w: u64) -> Mix {
        let mut h = self.0;
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Mix(h)
    }

    fn words(self, ws: &[u64]) -> Mix {
        ws.iter().fold(self, |h, &w| h.word(w))
    }
}

/// Mix a short, fixed sequence of words.
fn mix(words: &[u64]) -> u64 {
    Mix::new().words(words).0
}

/// Bottom-up structure hash in which a variable contributes only its
/// current color — never its index — and `∧`/`∨` children contribute as a
/// sorted multiset, so the hash is invariant under renaming and shuffling.
///
/// `stack` is working space shared by the whole traversal: each `∧`/`∨`
/// sorts its children's hashes on top of it and pops them again.
fn up_hash(f: &Formula, colors: &[u64], stack: &mut Vec<u64>) -> u64 {
    match f {
        Formula::True => mix(&[1]),
        Formula::False => mix(&[2]),
        Formula::Var(v) => mix(&[3, colors[v.index()]]),
        Formula::Not(g) => mix(&[4, up_hash(g, colors, stack)]),
        Formula::And(gs) | Formula::Or(gs) => {
            let tag = if matches!(f, Formula::And(_)) { 5 } else { 6 };
            let base = stack.len();
            for g in gs {
                let h = up_hash(g, colors, stack);
                stack.push(h);
            }
            stack[base..].sort_unstable();
            let h = Mix::new().word(tag).words(&stack[base..]).0;
            stack.truncate(base);
            h
        }
        Formula::Implies(a, b) => mix(&[7, up_hash(a, colors, stack), up_hash(b, colors, stack)]),
        Formula::Iff(a, b) => mix(&[8, up_hash(a, colors, stack), up_hash(b, colors, stack)]),
        Formula::Xor(a, b) => mix(&[9, up_hash(a, colors, stack), up_hash(b, colors, stack)]),
    }
}

/// Collect `(variable, context)` for every variable occurrence: the
/// top-down path hash at each leaf. Sibling information enters through
/// sorted up-hashes, so contexts are order- and renaming-free.
fn occurrence_contexts(
    f: &Formula,
    colors: &[u64],
    path: u64,
    out: &mut Vec<(u32, u64)>,
    stack: &mut Vec<u64>,
) {
    match f {
        Formula::True | Formula::False => {}
        Formula::Var(v) => out.push((v.0, mix(&[path, 10]))),
        Formula::Not(g) => occurrence_contexts(g, colors, mix(&[path, 11]), out, stack),
        Formula::And(gs) | Formula::Or(gs) => {
            let tag = if matches!(f, Formula::And(_)) { 12 } else { 13 };
            // The children's hashes in child order, then a sorted copy.
            let base = stack.len();
            for g in gs {
                let h = up_hash(g, colors, stack);
                stack.push(h);
            }
            let sorted = base + gs.len();
            stack.extend_from_within(base..sorted);
            stack[sorted..].sort_unstable();
            let sibs = Mix::new().word(tag).words(&stack[sorted..]).0;
            stack.truncate(sorted);
            for (i, g) in gs.iter().enumerate() {
                let h = stack[base + i];
                occurrence_contexts(g, colors, mix(&[path, tag, sibs, h]), out, stack);
            }
            stack.truncate(base);
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) | Formula::Xor(a, b) => {
            let tag = match f {
                Formula::Implies(..) => 14,
                Formula::Iff(..) => 15,
                _ => 16,
            };
            occurrence_contexts(a, colors, mix(&[path, tag, 0]), out, stack);
            occurrence_contexts(b, colors, mix(&[path, tag, 1]), out, stack);
        }
    }
}

/// Weisfeiler-Leman-style color refinement on the variables of a query:
/// each round recolors every variable by the multiset of its occurrence
/// contexts. Variables left with equal colors after `rounds` rounds are
/// either genuinely interchangeable or beyond what refinement separates
/// (the latter only costs cache hits, never correctness).
fn refine_colors(fs: &[Formula], width: u32, rounds: usize) -> Vec<u64> {
    let mut colors = vec![0u64; width as usize];
    let mut contexts: Vec<(u32, u64)> = Vec::new();
    let mut stack: Vec<u64> = Vec::new();
    for _ in 0..rounds {
        contexts.clear();
        for (k, f) in fs.iter().enumerate() {
            occurrence_contexts(f, &colors, mix(&[17, k as u64]), &mut contexts, &mut stack);
        }
        // Sorting by (variable, context) lays out each variable's
        // contexts as one sorted run.
        contexts.sort_unstable();
        let mut run = contexts.iter().peekable();
        for (v, color) in colors.iter_mut().enumerate() {
            let mut h = Mix::new().word(*color);
            while let Some(&(_, ctx)) = run.next_if(|(u, _)| *u as usize == v) {
                h = h.word(ctx);
            }
            *color = h.0;
        }
    }
    colors
}

/// Turn refined colors into a renaming `map[original] = new`: occurring
/// variables sorted by (color, first occurrence), unmentioned variables
/// appended in ascending order.
fn order_from_colors(fs: &[Formula], colors: &[u64], width: u32) -> Vec<u32> {
    let first_occ = first_occurrence_renaming(fs, width);
    let occurring: u32 = fs
        .iter()
        .flat_map(|f| f.vars())
        .collect::<std::collections::BTreeSet<_>>()
        .len() as u32;
    let mut vars: Vec<u32> = (0..width)
        .filter(|&v| first_occ[v as usize] < occurring)
        .collect();
    vars.sort_by_key(|&v| (colors[v as usize], first_occ[v as usize]));
    let mut map = vec![u32::MAX; width as usize];
    let mut next = 0u32;
    for v in vars {
        map[v as usize] = next;
        next += 1;
    }
    for slot in map.iter_mut() {
        if *slot == u32::MAX {
            *slot = next;
            next += 1;
        }
    }
    map
}

/// Sort-and-dedup normalization of an NNF formula. `∧`/`∨` children are
/// flattened (via the smart constructors), ordered under [`cmp_formula`]
/// and deduplicated; everything else is rebuilt as-is. Non-NNF nodes are
/// normalized structurally without expansion (callers NNF first).
fn normalize(f: &Formula) -> Formula {
    match f {
        Formula::True | Formula::False | Formula::Var(_) => f.clone(),
        Formula::Not(g) => Formula::not(normalize(g)),
        Formula::And(gs) => {
            let flat = Formula::and(gs.iter().map(normalize));
            match flat {
                Formula::And(mut kids) => {
                    kids.sort_by(cmp_formula);
                    kids.dedup();
                    Formula::and(kids)
                }
                other => other,
            }
        }
        Formula::Or(gs) => {
            let flat = Formula::or(gs.iter().map(normalize));
            match flat {
                Formula::Or(mut kids) => {
                    kids.sort_by(cmp_formula);
                    kids.dedup();
                    Formula::or(kids)
                }
                other => other,
            }
        }
        Formula::Implies(a, b) => Formula::implies(normalize(a), normalize(b)),
        Formula::Iff(a, b) => Formula::iff(normalize(a), normalize(b)),
        Formula::Xor(a, b) => Formula::xor(normalize(a), normalize(b)),
    }
}

/// Rename variables through `map` in place and restore the sorted order
/// of every `∧`/`∨`, bottom-up.
///
/// For a tree `f` that [`normalize`] produced and a `map` that is
/// injective on `f`'s variables this equals `normalize(&rename(f, map))`
/// without allocating: the tree is already flattened and constant-free,
/// and an injective renaming keeps siblings distinct, so re-sorting the
/// children is all normalization has left to do. Because siblings are
/// distinct under the total order [`cmp_formula`], the sorted order is
/// unique and an unstable sort finds it.
fn renumber(f: &mut Formula, map: &[u32]) {
    match f {
        Formula::True | Formula::False => {}
        Formula::Var(v) => *v = Var(map[v.index()]),
        Formula::Not(g) => renumber(g, map),
        Formula::And(gs) | Formula::Or(gs) => {
            for g in gs.iter_mut() {
                renumber(g, map);
            }
            gs.sort_unstable_by(cmp_formula);
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) | Formula::Xor(a, b) => {
            renumber(a, map);
            renumber(b, map);
        }
    }
}

/// A structural total order on formulas: by node kind, then by contents.
fn cmp_formula(a: &Formula, b: &Formula) -> Ordering {
    fn rank(f: &Formula) -> u8 {
        match f {
            Formula::True => 0,
            Formula::False => 1,
            Formula::Var(_) => 2,
            Formula::Not(_) => 3,
            Formula::And(_) => 4,
            Formula::Or(_) => 5,
            Formula::Implies(..) => 6,
            Formula::Iff(..) => 7,
            Formula::Xor(..) => 8,
        }
    }
    match (a, b) {
        (Formula::Var(x), Formula::Var(y)) => x.cmp(y),
        (Formula::Not(x), Formula::Not(y)) => cmp_formula(x, y),
        (Formula::And(xs), Formula::And(ys)) | (Formula::Or(xs), Formula::Or(ys)) => {
            for (x, y) in xs.iter().zip(ys.iter()) {
                match cmp_formula(x, y) {
                    Ordering::Equal => {}
                    other => return other,
                }
            }
            xs.len().cmp(&ys.len())
        }
        (Formula::Implies(a1, b1), Formula::Implies(a2, b2))
        | (Formula::Iff(a1, b1), Formula::Iff(a2, b2))
        | (Formula::Xor(a1, b1), Formula::Xor(a2, b2)) => {
            cmp_formula(a1, a2).then_with(|| cmp_formula(b1, b2))
        }
        _ => rank(a).cmp(&rank(b)),
    }
}

/// Renumber variables by first occurrence in a left-to-right traversal of
/// the group; variables of the universe that never occur take the leftover
/// slots in ascending order. Returns `map[original] = new`.
fn first_occurrence_renaming(fs: &[Formula], width: u32) -> Vec<u32> {
    const UNSEEN: u32 = u32::MAX;
    let mut map = vec![UNSEEN; width as usize];
    let mut next = 0u32;
    fn walk(f: &Formula, map: &mut [u32], next: &mut u32) {
        match f {
            Formula::True | Formula::False => {}
            Formula::Var(v) => {
                let slot = &mut map[v.index()];
                if *slot == u32::MAX {
                    *slot = *next;
                    *next += 1;
                }
            }
            Formula::Not(g) => walk(g, map, next),
            Formula::And(gs) | Formula::Or(gs) => {
                for g in gs {
                    walk(g, map, next);
                }
            }
            Formula::Implies(a, b) | Formula::Iff(a, b) | Formula::Xor(a, b) => {
                walk(a, map, next);
                walk(b, map, next);
            }
        }
    }
    for f in fs {
        walk(f, &mut map, &mut next);
    }
    for slot in map.iter_mut() {
        if *slot == UNSEEN {
            *slot = next;
            next += 1;
        }
    }
    map
}

/// Apply a variable renaming to a formula: every `Var(v)` becomes
/// `Var(map[v])`. The structural shape is preserved exactly.
///
/// This is the bridge consumers of [`CanonicalQuery`] use to move *other*
/// formulas into an already-computed canonical variable space, and the way
/// tests build alpha-variants of a query.
///
/// # Panics
/// Panics if `f` mentions a variable `v` with `v as usize >= map.len()`.
///
/// ```
/// use arbitrex_logic::{parse, rename_formula, Sig};
/// let mut sig = Sig::new();
/// let f = parse(&mut sig, "A & !B").unwrap();
/// let g = parse(&mut sig, "B & !A").unwrap();
/// assert_eq!(rename_formula(&f, &[1, 0]), g);
/// ```
pub fn rename_formula(f: &Formula, map: &[u32]) -> Formula {
    rename(f, map)
}

/// Apply a variable renaming to a formula.
fn rename(f: &Formula, map: &[u32]) -> Formula {
    match f {
        Formula::True => Formula::True,
        Formula::False => Formula::False,
        Formula::Var(v) => Formula::Var(Var(map[v.index()])),
        Formula::Not(g) => Formula::Not(Box::new(rename(g, map))),
        Formula::And(gs) => Formula::And(gs.iter().map(|g| rename(g, map)).collect()),
        Formula::Or(gs) => Formula::Or(gs.iter().map(|g| rename(g, map)).collect()),
        Formula::Implies(a, b) => {
            Formula::Implies(Box::new(rename(a, map)), Box::new(rename(b, map)))
        }
        Formula::Iff(a, b) => Formula::Iff(Box::new(rename(a, map)), Box::new(rename(b, map))),
        Formula::Xor(a, b) => Formula::Xor(Box::new(rename(a, map)), Box::new(rename(b, map))),
    }
}

/// Compact prefix serialization of a (canonical, NNF) formula.
fn serialize(f: &Formula) -> Vec<u8> {
    let mut out = Vec::with_capacity(f.size() * 3);
    write_node(f, &mut out);
    out
}

fn write_node(f: &Formula, out: &mut Vec<u8>) {
    match f {
        Formula::True => out.push(b'T'),
        Formula::False => out.push(b'F'),
        Formula::Var(v) => {
            out.push(b'v');
            out.extend_from_slice(&v.0.to_le_bytes());
        }
        Formula::Not(g) => {
            out.push(b'!');
            write_node(g, out);
        }
        Formula::And(gs) => {
            out.push(b'&');
            out.extend_from_slice(&(gs.len() as u32).to_le_bytes());
            for g in gs {
                write_node(g, out);
            }
        }
        Formula::Or(gs) => {
            out.push(b'|');
            out.extend_from_slice(&(gs.len() as u32).to_le_bytes());
            for g in gs {
                write_node(g, out);
            }
        }
        Formula::Implies(a, b) => {
            out.push(b'>');
            write_node(a, out);
            write_node(b, out);
        }
        Formula::Iff(a, b) => {
            out.push(b'=');
            write_node(a, out);
            write_node(b, out);
        }
        Formula::Xor(a, b) => {
            out.push(b'^');
            write_node(a, out);
            write_node(b, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelSet;
    use crate::parser::parse;
    use crate::random::FormulaGen;
    use crate::sig::Sig;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn key_of(text: &str) -> u64 {
        let mut sig = Sig::new();
        canonical_key(&parse(&mut sig, text).unwrap())
    }

    #[test]
    fn reordered_conjuncts_and_disjuncts_collide() {
        assert_eq!(key_of("A & B"), key_of("B & A"));
        assert_eq!(key_of("A | B | C"), key_of("C | A | B"));
        assert_eq!(key_of("(A | B) & C"), key_of("C & (B | A)"));
        assert_eq!(key_of("A & A & B"), key_of("B & A"));
    }

    #[test]
    fn alpha_equivalent_formulas_collide() {
        assert_eq!(key_of("A & !B"), key_of("X & !Y"));
        assert_eq!(key_of("!Q & P"), key_of("A & !B"));
        assert_eq!(
            key_of("(S & !D) | (!S & D & Q)"),
            key_of("(!b & a) | (b & !a & c)")
        );
    }

    #[test]
    fn derived_connectives_collide_with_their_nnf() {
        assert_eq!(key_of("A -> B"), key_of("!A | B"));
        assert_eq!(key_of("!(A & B)"), key_of("!A | !B"));
    }

    #[test]
    fn inequivalent_formulas_get_distinct_keys() {
        assert_ne!(key_of("A & B"), key_of("A | B"));
        assert_ne!(key_of("A"), key_of("!A"));
        assert_ne!(key_of("A & B"), key_of("A & B & C"));
        assert_ne!(key_of("true"), key_of("false"));
        assert_ne!(key_of("A & (B | C)"), key_of("(A & B) | C"));
    }

    /// Is `f` semantically equivalent to `g` under *some* permutation of
    /// the `n`-variable universe? (The equivalence the canonical key is
    /// allowed — and wants — to quotient by.)
    fn perm_equivalent(f: &Formula, g: &Formula, n: u32) -> bool {
        let mf = ModelSet::of_formula(f, n);
        let mut perm: Vec<u32> = (0..n).collect();
        // Heap's algorithm, iterative, over at most 4 variables.
        let mut c = vec![0usize; n as usize];
        let check = |perm: &[u32]| {
            let renamed = rename(g, perm);
            mf == ModelSet::of_formula(&renamed, n)
        };
        if check(&perm) {
            return true;
        }
        let mut i = 0usize;
        while i < n as usize {
            if c[i] < i {
                if i.is_multiple_of(2) {
                    perm.swap(0, i);
                } else {
                    perm.swap(c[i], i);
                }
                if check(&perm) {
                    return true;
                }
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
        false
    }

    #[test]
    fn equal_keys_imply_permutation_equivalence_on_small_universes() {
        // The soundness direction, model-checked: over a small universe,
        // whenever two random formulas collide they really are the same
        // query up to variable renaming. (The converse — all equivalent
        // pairs colliding — is graph-canonicalization-hard and only costs
        // cache misses, so it is not asserted.)
        let mut rng = StdRng::seed_from_u64(0xcafe_0015);
        let gen = FormulaGen {
            n_vars: 3,
            max_depth: 4,
            ..Default::default()
        };
        let formulas: Vec<Formula> = (0..60).map(|_| gen.sample(&mut rng)).collect();
        let keys: Vec<u64> = formulas.iter().map(canonical_key).collect();
        let mut collisions = 0;
        for i in 0..formulas.len() {
            for j in (i + 1)..formulas.len() {
                if keys[i] == keys[j] {
                    collisions += 1;
                    assert!(
                        perm_equivalent(&formulas[i], &formulas[j], 3),
                        "key collision between inequivalent formulas:\n  {:?}\n  {:?}",
                        formulas[i],
                        formulas[j]
                    );
                }
            }
        }
        // The corpus is small and random formulas repeat shapes often:
        // the test must actually have exercised the collision path.
        assert!(collisions > 0, "corpus produced no collisions to check");
    }

    #[test]
    fn canonicalize_query_returns_a_permutation_mapping_back() {
        let mut sig = Sig::new();
        let psi = parse(&mut sig, "B & !A").unwrap();
        let mu = parse(&mut sig, "C | B").unwrap();
        let n = sig.width();
        let canon = canonicalize_query(&[&psi, &mu], n);
        assert_eq!(canon.n_vars, n);
        // forward is a permutation of 0..n.
        let mut seen = vec![false; n as usize];
        for &v in &canon.forward {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
        // Renaming the originals by `forward` gives the canonical forms
        // (up to the sort/dedup normalization).
        let renamed_psi = normalize(&to_nnf(&rename(&psi, &canon.forward)));
        assert_eq!(renamed_psi, canon.formulas[0]);
        let renamed_mu = normalize(&to_nnf(&rename(&mu, &canon.forward)));
        assert_eq!(renamed_mu, canon.formulas[1]);
    }

    #[test]
    fn renumber_in_place_equals_rename_then_normalize() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0c7a);
        for width in 2..=10u32 {
            let gen = FormulaGen {
                n_vars: width,
                max_depth: 5,
                leaf_bias: 0.2,
            };
            for _ in 0..40 {
                let f = normalize(&to_nnf(&gen.sample(&mut rng)));
                // A random permutation of the universe (Fisher–Yates).
                let mut map: Vec<u32> = (0..width).collect();
                for i in (1..map.len()).rev() {
                    map.swap(i, rng.random_range(0..=i));
                }
                let mut g = f.clone();
                renumber(&mut g, &map);
                assert_eq!(g, normalize(&rename(&f, &map)), "map {map:?} on {f:?}");
            }
        }
    }

    #[test]
    fn joint_canonicalization_aligns_pairs() {
        // The same pair, written with shuffled names and argument order,
        // produces identical joint key bytes.
        let mut s1 = Sig::new();
        let p1 = parse(&mut s1, "A & !B").unwrap();
        let m1 = parse(&mut s1, "B | C").unwrap();
        let k1 = canonicalize_query(&[&p1, &m1], s1.width()).key_bytes();
        let mut s2 = Sig::new();
        let p2 = parse(&mut s2, "!Y & X").unwrap();
        let m2 = parse(&mut s2, "Z | Y").unwrap();
        let k2 = canonicalize_query(&[&p2, &m2], s2.width()).key_bytes();
        assert_eq!(k1, k2);
        // But swapping which formula is ψ and which is μ does not collide.
        let k3 = canonicalize_query(&[&m1, &p1], s1.width()).key_bytes();
        assert_ne!(k1, k3);
    }

    #[test]
    fn constants_and_empty_queries_are_stable() {
        assert_eq!(key_of("true"), key_of("A | !A | true"));
        let canon = canonicalize_query(&[], 3);
        assert_eq!(canon.forward, vec![0, 1, 2]);
        assert!(canon.formulas.is_empty());
    }

    #[test]
    fn codec_round_trips_every_connective() {
        let mut sig = Sig::new();
        for text in [
            "true",
            "false",
            "A",
            "!A",
            "A & B & !C",
            "A | (B & C) | !D",
            "A -> B",
            "A <-> (B ^ C)",
            "!(A -> (B <-> !C)) ^ (D | E | F)",
        ] {
            let f = parse(&mut sig, text).unwrap();
            let bytes = encode_formula(&f);
            assert_eq!(decode_formula(&bytes).unwrap(), f, "round trip of {text}");
        }
    }

    #[test]
    fn codec_rejects_corrupt_bytes_totally() {
        let mut sig = Sig::new();
        let f = parse(&mut sig, "(A & !B) | (C ^ D)").unwrap();
        let good = encode_formula(&f);
        // Every truncation fails; no truncation panics.
        for cut in 0..good.len() {
            assert!(decode_formula(&good[..cut]).is_err(), "truncated at {cut}");
        }
        // Trailing garbage after a valid formula fails.
        let mut extra = good.clone();
        extra.push(b'T');
        assert!(decode_formula(&extra).is_err());
        // Unknown tag, oversized var index, absurd child count: typed errors.
        assert_eq!(decode_formula(b"Z").unwrap_err().what, "unknown node tag");
        let mut bad_var = vec![b'v'];
        bad_var.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_formula(&bad_var).unwrap_err().what,
            "variable index out of range"
        );
        let mut bomb = vec![b'&'];
        bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_formula(&bomb).is_err());
        // Depth cap holds on a pathological Not-chain.
        let mut deep = vec![b'!'; DECODE_MAX_DEPTH + 1];
        deep.push(b'T');
        assert_eq!(decode_formula(&deep).unwrap_err().what, "nesting too deep");
    }

    #[test]
    fn codec_agrees_with_canonical_bytes() {
        let mut sig = Sig::new();
        let f = parse(&mut sig, "(!B & A) | C").unwrap();
        let canon = decode_formula(&canonical_bytes(&f)).unwrap();
        assert_eq!(encode_formula(&canon), canonical_bytes(&f));
    }
}
