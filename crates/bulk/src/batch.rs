//! The batch-GCD baseline (product tree + scaled remainder tree).
//!
//! This is the attack the literature already had when the paper was written
//! (Heninger et al. / Lenstra et al., implemented by tools like `fastgcd`):
//! instead of `m(m−1)/2` pairwise GCDs it computes, for every modulus,
//! `gcd(n_i, (P mod n_i²)/n_i)` with `P = Π n_j` — quasi-linear in `m` at
//! the price of multi-million-bit multiplications. Implemented here as the
//! comparison baseline the repository's benchmarks pit the paper's
//! pairwise GPU approach against.
//!
//! # Scaled remainder tree
//!
//! The classical descent carries the integer `P mod v²` from each node `v`
//! to its children: a square and a `2L/L`-limb division per node. The
//! descent here follows Bernstein's *Scaled remainder trees* (2004) and
//! divides nowhere below the root. Every node carries a fixed-point
//! fraction `Y_v ≈ (P mod v²)/v² · β^{p_v}` (β = 2³²) of `p_v` limbs, and
//! since `P/c² = (P/v²)·s²` for a child `c` with sibling `s`, the child's
//! fraction is one truncated multiply:
//! `Y_c = ⌊Y_v·s² / β^{p_v − p_c}⌋ mod β^{p_c}`.
//!
//! * **Precision**, in limbs, bottom-up: a leaf `n` has `len(n) + 1`; a
//!   paired node has `max(p_{c₁} + 2·len(c₂), p_{c₂} + 2·len(c₁))`, so
//!   `s² < β^{p_v − p_c}` for either child; an unpaired node carries its
//!   child's fraction unchanged (same precision, no multiply).
//! * **Root**: `Y = ⌊β^p / P⌋` through [`reciprocal_into`] (Knuth below
//!   the Newton-division cutoff, one Newton reciprocal above it).
//! * **Wrapped product**: once `n = next_power_of_two(p_v)` reaches the
//!   NTT cutoff, the product is a cyclic NTT of `n` points
//!   ([`mul_ntt_wrapped_into`]) instead of the full `p_v × len(s²)` one.
//!   Its fold lands below the kept window, because
//!   `len(s²) ≤ p_v − p_c`, and moves the window by at most one unit of
//!   carry.
//! * **Leaf**: `w = ⌊(Y·n + β^p/2) / β^p⌋` is `(P mod n²)/n` exactly, or
//!   `n` where that is 0 (a fraction just below 1), and the result is
//!   `gcd(w, n)`. A modulus that occurs twice gives 0, so its result is
//!   `n` itself.
//!
//! **Why it is exact.** Read every `Y` on the circle mod `β^p` and let
//! `e` be its distance from the true scaled fraction. The root's floor
//! gives `e < 1`. A step scales the parent's error by
//! `s²/β^{p_v−p_c} < 1` and adds under one unit (truncation and fold
//! carry pull in opposite directions), so after the `D ≤ ⌈log₂ m⌉`
//! steps to a leaf `e < D + 1`. At the leaf that is an error of under
//! `(D + 1)·n/β^{len(n)+1} < (D + 1)/β < 1/2` in `Y·n/β^p`, and rounding
//! recovers `w` exactly. The output is bit-identical to the exact tree's.
//!
//! The tree arithmetic rides the `bulkgcd-bigint` dispatch ladder
//! (Toom-3/NTT multiply, Newton reciprocal, half-GCD), and the descent is
//! scratch-reusing: [`batch_gcd_into`] threads a [`BatchScratch`] through
//! every node, so the steady state performs no allocations below the
//! Toom-3 and Newton cutoffs (pinned by `tests/alloc_steady_state.rs`).
//! [`batch_gcd_parallel`] runs the same step function level by level
//! across the rayon pool.

use bulkgcd_bigint::div::{reciprocal_into, DivScratch};
use bulkgcd_bigint::hgcd::gcd_into;
use bulkgcd_bigint::mul::{mul_dispatch_with, MulScratch};
use bulkgcd_bigint::ntt::{mul_ntt_wrapped_into, MAX_NTT_TOTAL_LIMBS};
use bulkgcd_bigint::{ops, thresholds, Limb, Nat, LIMB_BITS};
use rayon::prelude::*;

/// A bottom-up product tree: `levels[0]` are the inputs, each higher level
/// holds pairwise products, `levels.last()` is `[Π inputs]`.
#[derive(Debug, Clone)]
pub struct ProductTree {
    /// Tree levels, leaves first.
    pub levels: Vec<Vec<Nat>>,
}

impl ProductTree {
    /// Build the tree. Panics on empty input, which has no meaningful
    /// product.
    pub fn build(moduli: &[Nat]) -> ProductTree {
        assert!(!moduli.is_empty(), "product tree of nothing");
        let mut prev = moduli.to_vec();
        let mut levels = Vec::new();
        while prev.len() > 1 {
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for chunk in prev.chunks(2) {
                match chunk {
                    [a, b] => {
                        let mut p = Nat::default();
                        a.mul_into(b, &mut p);
                        next.push(p);
                    }
                    [a] => next.push(a.clone()),
                    _ => unreachable!(),
                }
            }
            levels.push(prev);
            prev = next;
        }
        levels.push(prev);
        ProductTree { levels }
    }

    /// The root product `Π n_i`.
    pub fn root(&self) -> &Nat {
        // build() always ends with a single-entry root level.
        &self.levels[self.levels.len() - 1][0]
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels[0].len()
    }

    /// True when the tree has no leaves (never: build rejects empty input).
    pub fn is_empty(&self) -> bool {
        self.levels[0].is_empty()
    }
}

/// Working memory of the descent steps, reused from node to node.
#[derive(Default)]
struct StepScratch {
    /// The sibling's square `s²`; at a leaf, the recovered `w`.
    sq: Nat,
    /// The product `Y_v·s²` (full, or wrapped on the NTT rung); at a
    /// leaf, `Y·n`.
    prod: Vec<Limb>,
    /// Karatsuba/chop workspace for the products below the NTT rung.
    mul: MulScratch,
    /// A leaf's fraction, consumed at once by [`leaf_gcd`].
    leaf: Vec<Limb>,
    /// Binary-GCD scratch for the leaf step.
    gx: Vec<Limb>,
    /// Second binary-GCD scratch buffer.
    gy: Vec<Limb>,
}

/// Working memory for [`batch_gcd_into`]: the product-tree levels, their
/// fixed-point precisions, the two fraction levels of the descent and the
/// per-node temporaries. A warm scratch makes repeated batches over
/// same-shaped corpora allocation-free in the steady state (below the
/// Toom-3 and Newton cutoffs, whose algorithms allocate internally by
/// design).
#[derive(Default)]
pub struct BatchScratch {
    /// Computed product-tree levels, pairwise-up from the moduli
    /// (`levels[0]` pairs the inputs; the last built level is the root).
    levels: Vec<Vec<Nat>>,
    /// `prec[i][j]`: fixed-point precision (limbs) of `levels[i][j]`.
    prec: Vec<Vec<usize>>,
    /// Descent fractions: tree level `i` lives in `ys[i % 2]`, so each
    /// buffer sees the same sizes on every same-shaped batch.
    ys: [Vec<Vec<Limb>>; 2],
    /// Root reciprocal working memory.
    div: DivScratch,
    /// Per-node step temporaries.
    step: StepScratch,
}

impl BatchScratch {
    /// Empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        BatchScratch::default()
    }
}

/// Grow a scratch level to at least `n` slots. Never shrinks: slots left
/// over from a larger batch keep their buffers for reuse.
fn grow_to<T: Default>(v: &mut Vec<T>, n: usize) {
    if v.len() < n {
        v.resize_with(n, T::default);
    }
}

/// Number of product-tree nodes at `levels[ci]` for an `m`-modulus batch:
/// `ceil(m / 2^(ci+1))`, computed by repeated halving to match the build.
fn level_width(m: usize, ci: usize) -> usize {
    let mut w = m;
    for _ in 0..=ci {
        w = w.div_ceil(2);
    }
    w
}

/// The node sharing a parent with `nodes[idx]`, if it has one.
fn sibling(nodes: &[Nat], idx: usize) -> Option<&Nat> {
    nodes.get(idx ^ 1)
}

/// Fill `prec` with the fixed-point precision of every node of `levels`
/// (live widths only), bottom-up from the leaves' `len(n) + 1`.
fn fill_precisions(moduli: &[Nat], levels: &[Vec<Nat>], prec: &mut Vec<Vec<usize>>) {
    let m = moduli.len();
    grow_to(prec, levels.len());
    for i in 0..levels.len() {
        let (below, rest) = prec.split_at_mut(i);
        let child = |k: usize| -> (usize, usize) {
            match i.checked_sub(1) {
                None => (moduli[k].len(), moduli[k].len() + 1),
                Some(b) => (levels[b][k].len(), below[b][k]),
            }
        };
        let children = if i == 0 { m } else { level_width(m, i - 1) };
        let cur = &mut rest[0];
        cur.clear();
        cur.extend((0..level_width(m, i)).map(|j| {
            let (la, pa) = child(2 * j);
            if 2 * j + 1 < children {
                let (lb, pb) = child(2 * j + 1);
                (pa + 2 * lb).max(pb + 2 * la)
            } else {
                pa
            }
        }));
    }
}

/// The root's fraction `⌊β^p / P⌋`, as exactly `p` limbs (mod `β^p`,
/// which only bites for `P = 1`).
fn root_fraction(root: &Nat, p: usize, y: &mut Vec<Limb>, div: &mut DivScratch) {
    reciprocal_into(root.limbs(), p, y, div);
    y.resize(p, 0);
}

/// One descent step: the fraction of a child at precision `p_c` from its
/// parent's fraction `y` (`p_v = y.len()` limbs) and its sibling,
/// `⌊y·s² / β^{p_v − p_c}⌋ mod β^{p_c}`, written to `out` as exactly `p_c`
/// limbs. An unpaired child (`None`) keeps its parent's fraction.
fn descend(y: &[Limb], sib: Option<&Nat>, p_c: usize, out: &mut Vec<Limb>, sx: &mut StepScratch) {
    let p_v = y.len();
    let d = p_v - p_c;
    out.clear();
    let Some(s) = sib else {
        out.extend_from_slice(&y[d..]);
        return;
    };
    s.square_into(&mut sx.sq);
    let s2 = sx.sq.limbs();
    let y = &y[..ops::normalized_len(y)];
    let prod = &mut sx.prod;
    prod.clear();
    let n = p_v.next_power_of_two();
    // The wrapped product takes the NTT rung once its transform reaches
    // the cutoff: an n-point transform then beats the p_v × len(s²)
    // product it replaces (on x86-64, 1.3–1.5× at 1017 × 512 limbs; at
    // 512 points Toom still wins). len(s²) ≤ d, so the fold lands below
    // [d, p_v).
    if n >= thresholds::NTT.get() && n <= MAX_NTT_TOTAL_LIMBS {
        prod.resize(n, 0);
        mul_ntt_wrapped_into(prod, y, s2);
    } else {
        prod.resize(y.len() + s2.len(), 0);
        mul_dispatch_with(prod, y, s2, &mut sx.mul);
    }
    let top = prod.len().min(p_v);
    out.extend_from_slice(prod.get(d..top).unwrap_or(&[]));
    out.resize(p_c, 0);
}

/// The leaf step: the fraction of modulus `n` from its parent's `y`,
/// then `w = ⌊(Y·n + β^p/2) / β^p⌋`, which is `(P mod n²)/n` exactly
/// (or `n` for 0); writes `gcd(w, n)` to `out`.
fn leaf_gcd(y: &[Limb], sib: Option<&Nat>, n: &Nat, sx: &mut StepScratch, out: &mut Nat) {
    let p = n.len() + 1;
    let mut leaf = core::mem::take(&mut sx.leaf);
    descend(y, sib, p, &mut leaf, sx);
    let StepScratch {
        sq,
        prod,
        mul,
        gx,
        gy,
        ..
    } = sx;
    prod.clear();
    prod.resize(p + n.len(), 0);
    mul_dispatch_with(prod, &leaf[..ops::normalized_len(&leaf)], n.limbs(), mul);
    sx.leaf = leaf;
    // Y·n + β^p/2 < β^p·(n + 1/2): no carry out of the buffer.
    let carry = ops::add_assign(&mut prod[p - 1..], &[1 << (LIMB_BITS - 1)]);
    debug_assert_eq!(carry, 0);
    // A fraction just below 1 rounds to w = n, which stands for 0: both
    // give gcd = n, so w needs no reduction.
    sq.assign_limbs(&prod[p..]);
    gcd_into(sq, n, gx, gy, out);
}

/// For every modulus, compute `gcd(n_i, (P mod n_i²) / n_i)` by descending
/// a scaled remainder tree (see the module docs): after the root
/// reciprocal, one truncated multiply per node, each fraction within
/// `D + 1` units of the true one at depth `D`, and a rounding at the leaf
/// that recovers `(P mod n_i²)/n_i` exactly. The result is > 1 exactly for
/// moduli sharing a prime with some other modulus (or appearing twice).
/// Moduli must be non-zero.
///
/// ```
/// use bulkgcd_bigint::Nat;
/// use bulkgcd_bulk::batch_gcd;
///
/// let moduli = vec![
///     Nat::from_u64(101 * 211),
///     Nat::from_u64(101 * 223), // shares 101 with the first
///     Nat::from_u64(103 * 227), // clean
/// ];
/// let g = batch_gcd(&moduli);
/// assert_eq!(g[0], Nat::from_u64(101));
/// assert_eq!(g[1], Nat::from_u64(101));
/// assert!(g[2].is_one());
/// ```
pub fn batch_gcd(moduli: &[Nat]) -> Vec<Nat> {
    let mut scratch = BatchScratch::new();
    let mut out = Vec::new();
    batch_gcd_into(moduli, &mut scratch, &mut out);
    out
}

/// [`batch_gcd`] with caller-owned scratch and output: repeated calls over
/// same-shaped corpora reuse every buffer — tree levels, precisions,
/// fraction levels, multiply/division/GCD scratch and the result `Nat`s.
pub fn batch_gcd_into(moduli: &[Nat], scratch: &mut BatchScratch, out: &mut Vec<Nat>) {
    out.resize_with(moduli.len(), Nat::default);
    if moduli.len() < 2 {
        for o in out.iter_mut() {
            o.assign_limbs(&[1]);
        }
        return;
    }
    let BatchScratch {
        levels,
        prec,
        ys,
        div,
        step,
    } = scratch;

    // Product tree, bottom-up. `levels[0]` pairs the moduli themselves, so
    // the inputs are never copied; `nl` counts the levels in use this call.
    // Scratch vectors only ever grow: a smaller batch after a larger one
    // leaves the extra slots (and their buffers) in place instead of
    // dropping them, so same-shaped repeat calls stay allocation-free and
    // shape changes re-pay only the delta. Live widths are tracked via
    // `level_width`, never via `Vec::len`.
    let m = moduli.len();
    let mut nl = 0usize;
    let mut width = m;
    while width > 1 {
        let next_w = width.div_ceil(2);
        if levels.len() <= nl {
            levels.push(Vec::new());
        }
        let (below, above) = levels.split_at_mut(nl);
        let cur = &mut above[0];
        grow_to(cur, next_w);
        for (i, slot) in cur.iter_mut().take(next_w).enumerate() {
            let pair = |k: usize| -> &Nat {
                if nl == 0 {
                    &moduli[k]
                } else {
                    &below[nl - 1][k]
                }
            };
            if 2 * i + 1 < width {
                pair(2 * i).mul_into(pair(2 * i + 1), slot);
            } else {
                slot.assign_limbs(pair(2 * i).limbs());
            }
        }
        nl += 1;
        width = next_w;
    }
    let levels = &levels[..nl];
    fill_precisions(moduli, levels, prec);

    // Scaled remainder tree, top down: level i's fractions in ys[i % 2].
    let [even, odd] = ys;
    let root_ys = if nl % 2 == 1 { &mut *even } else { &mut *odd };
    grow_to(root_ys, 1);
    root_fraction(&levels[nl - 1][0], prec[nl - 1][0], &mut root_ys[0], div);
    for ci in (0..nl - 1).rev() {
        let (dst, src) = if ci % 2 == 0 {
            (&mut *even, &*odd)
        } else {
            (&mut *odd, &*even)
        };
        let nodes = &levels[ci][..level_width(m, ci)];
        grow_to(dst, nodes.len());
        for (idx, y) in dst.iter_mut().take(nodes.len()).enumerate() {
            descend(&src[idx / 2], sibling(nodes, idx), prec[ci][idx], y, step);
        }
    }
    // The leaves: the moduli themselves, under levels[0]'s fractions.
    for (idx, n) in moduli.iter().enumerate() {
        leaf_gcd(&even[idx / 2], sibling(moduli, idx), n, step, &mut out[idx]);
    }
}

/// Parallel [`batch_gcd`]: same computation with every tree level mapped
/// across the rayon pool. The level-by-level data dependence is inherent
/// (each fraction needs its parent's), but levels are wide near the leaves
/// — exactly where the nodes are numerous. Per-worker scratch
/// (`map_init`) keeps the per-node temporaries off the allocator.
pub fn batch_gcd_parallel(moduli: &[Nat]) -> Vec<Nat> {
    if moduli.len() < 2 {
        return moduli.iter().map(|_| Nat::one()).collect();
    }
    // Product tree above the leaves, parallel within each level.
    let mut levels: Vec<Vec<Nat>> = Vec::new();
    while levels.last().map_or(moduli.len(), Vec::len) > 1 {
        let below = levels.last().map_or(moduli, |l| &l[..]);
        let next: Vec<Nat> = below
            .par_chunks(2)
            .map(|chunk| match chunk {
                [a, b] => a.mul(b),
                [a] => a.clone(),
                _ => unreachable!(),
            })
            .collect();
        levels.push(next);
    }
    let mut prec = Vec::new();
    fill_precisions(moduli, &levels, &mut prec);

    let nl = levels.len();
    let mut ys = vec![Vec::new()];
    let (root, p_root) = (&levels[nl - 1][0], prec[nl - 1][0]);
    root_fraction(root, p_root, &mut ys[0], &mut DivScratch::new());
    for ci in (0..nl - 1).rev() {
        let nodes = &levels[ci];
        ys = nodes
            .par_iter()
            .enumerate()
            .map_init(StepScratch::default, |sx, (idx, _)| {
                let mut y = Vec::new();
                descend(&ys[idx / 2], sibling(nodes, idx), prec[ci][idx], &mut y, sx);
                y
            })
            .collect();
    }
    moduli
        .par_iter()
        .enumerate()
        .map_init(StepScratch::default, |sx, (idx, n)| {
            let mut g = Nat::default();
            leaf_gcd(&ys[idx / 2], sibling(moduli, idx), n, sx, &mut g);
            g
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulkgcd_bigint::prime::random_rsa_prime;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn nat(v: u128) -> Nat {
        Nat::from_u128(v)
    }

    #[test]
    fn product_tree_root_is_product() {
        let xs = [3u128, 5, 7, 11, 13];
        let t = ProductTree::build(&xs.map(nat));
        assert_eq!(t.root(), &nat(3 * 5 * 7 * 11 * 13));
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
    }

    #[test]
    fn product_tree_single_leaf() {
        let t = ProductTree::build(&[nat(42)]);
        assert_eq!(t.root(), &nat(42));
        assert_eq!(t.levels.len(), 1);
    }

    #[test]
    fn batch_gcd_finds_shared_primes() {
        // n0 and n2 share 101; n1 and n3 share 103; n4 is clean.
        let moduli = [
            nat(101 * 211),
            nat(103 * 223),
            nat(101 * 227),
            nat(103 * 229),
            nat(233 * 239),
        ];
        let g = batch_gcd(&moduli);
        assert_eq!(g[0], nat(101));
        assert_eq!(g[1], nat(103));
        assert_eq!(g[2], nat(101));
        assert_eq!(g[3], nat(103));
        assert_eq!(g[4], Nat::one());
    }

    #[test]
    fn batch_gcd_clean_corpus_all_ones() {
        let moduli = [nat(101 * 211), nat(103 * 223), nat(107 * 227)];
        assert!(batch_gcd(&moduli).iter().all(|g| g.is_one()));
    }

    #[test]
    fn batch_gcd_duplicate_modulus_reports_modulus() {
        let n = nat(101 * 211);
        let g = batch_gcd(&[n.clone(), n.clone(), nat(103 * 223)]);
        assert_eq!(g[0], n);
        assert_eq!(g[1], n);
        assert!(g[2].is_one());
    }

    #[test]
    fn batch_gcd_degenerate_sizes() {
        assert!(batch_gcd(&[]).is_empty());
        assert_eq!(batch_gcd(&[nat(15)]), vec![Nat::one()]);
    }

    #[test]
    fn batch_gcd_matches_pairwise_on_rsa_corpus() {
        let mut rng = StdRng::seed_from_u64(1);
        let p_shared = random_rsa_prime(&mut rng, 64);
        let mut moduli: Vec<Nat> = (0..6)
            .map(|_| random_rsa_prime(&mut rng, 64).mul(&random_rsa_prime(&mut rng, 64)))
            .collect();
        moduli.push(p_shared.mul(&random_rsa_prime(&mut rng, 64)));
        moduli.push(p_shared.mul(&random_rsa_prime(&mut rng, 64)));
        let batch = batch_gcd(&moduli);
        // Pairwise oracle.
        for (i, ni) in moduli.iter().enumerate() {
            let mut expect = Nat::one();
            for (j, nj) in moduli.iter().enumerate() {
                if i != j {
                    let g = ni.gcd_reference(nj);
                    if !g.is_one() {
                        expect = g;
                    }
                }
            }
            assert_eq!(batch[i], expect, "modulus {i}");
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng = StdRng::seed_from_u64(5);
        let shared = random_rsa_prime(&mut rng, 48);
        let mut moduli: Vec<Nat> = (0..9)
            .map(|_| random_rsa_prime(&mut rng, 48).mul(&random_rsa_prime(&mut rng, 48)))
            .collect();
        moduli.push(shared.mul(&random_rsa_prime(&mut rng, 48)));
        moduli.push(shared.mul(&random_rsa_prime(&mut rng, 48)));
        assert_eq!(batch_gcd_parallel(&moduli), batch_gcd(&moduli));
        assert_eq!(batch_gcd_parallel(&[]), batch_gcd(&[]));
        assert_eq!(batch_gcd_parallel(&[nat(15)]), batch_gcd(&[nat(15)]));
    }

    #[test]
    fn odd_level_sizes_handled() {
        // 7 leaves exercises the unpaired-node carry at two levels.
        let moduli: Vec<Nat> = [3u128, 5, 7, 11, 13, 17, 19].map(nat).to_vec();
        let t = ProductTree::build(&moduli);
        assert_eq!(t.root(), &nat(3 * 5 * 7 * 11 * 13 * 17 * 19));
        let g = batch_gcd(&moduli);
        assert!(g.iter().all(|x| x.is_one()));
    }

    #[test]
    fn scratch_reuse_across_batches_matches_fresh() {
        // Same scratch across different corpora (including a larger one
        // after a smaller one) must not leak state between runs.
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        let small = [nat(101 * 211), nat(101 * 223), nat(103 * 227)];
        let large: Vec<Nat> = [
            101 * 211,
            103 * 223,
            101 * 227,
            103 * 229,
            233 * 239,
            241 * 251,
            257 * 263,
        ]
        .map(nat)
        .to_vec();
        batch_gcd_into(&small, &mut scratch, &mut out);
        assert_eq!(out, batch_gcd(&small));
        batch_gcd_into(&large, &mut scratch, &mut out);
        assert_eq!(out, batch_gcd(&large));
        batch_gcd_into(&small, &mut scratch, &mut out);
        assert_eq!(out, batch_gcd(&small));
    }
}
