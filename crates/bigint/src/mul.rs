//! Multiplication: the dispatch entry of the arithmetic ladder.
//!
//! [`mul_dispatch`] routes by the *shorter* operand's width: schoolbook →
//! Karatsuba → Toom-Cook-3 → 3-prime NTT, with unbalanced products chopped
//! into balanced chunks first. All cutoffs live in [`crate::thresholds`]
//! (env-overridable); correctness never depends on them. Every recursion —
//! Karatsuba's halves, Toom's pointwise products, the unbalanced chop —
//! re-enters the dispatcher, so each sub-product independently picks the
//! right rung for its own width.

use crate::limb::{mac, Limb};
use crate::nat::Nat;
use crate::ntt;
use crate::ops;
use crate::thresholds;
use crate::toom;

/// Schoolbook product `a * b` into `out`. `out` must be zeroed and have
/// length at least `a.len() + b.len()`.
pub fn mul_schoolbook(out: &mut [Limb], a: &[Limb], b: &[Limb]) {
    debug_assert!(out.len() >= a.len() + b.len());
    debug_assert!(out[..a.len() + b.len()].iter().all(|&w| w == 0));
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0;
        for (j, &bj) in b.iter().enumerate() {
            let (lo, hi) = mac(out[i + j], ai, bj, carry);
            out[i + j] = lo;
            carry = hi;
        }
        out[i + b.len()] = carry;
    }
}

/// `a * b` by one multiplication limb: `out = a * m`, returns carry limb.
/// `out.len() == a.len()`; the returned carry is the limb above the top.
pub fn mul_limb(out: &mut [Limb], a: &[Limb], m: Limb) -> Limb {
    debug_assert_eq!(out.len(), a.len());
    let mut carry = 0;
    for (o, &ai) in out.iter_mut().zip(a.iter()) {
        let (lo, hi) = mac(0, ai, m, carry);
        *o = lo;
        carry = hi;
    }
    carry
}

/// Reusable working memory for the Karatsuba rung and the unbalanced chop
/// of the multiply ladder: every temporary of those recursions (the three
/// Karatsuba sub-products, the operand sums, the chop's chunk product) is
/// carved out of one buffer. A warm scratch makes products below the
/// Toom-3 cutoff allocation-free; the Toom-3 and NTT rungs still allocate
/// internally.
#[derive(Default)]
pub struct MulScratch {
    buf: Vec<Limb>,
}

impl MulScratch {
    /// Empty scratch; it grows on first use and is reused after.
    pub fn new() -> Self {
        MulScratch::default()
    }
}

/// Workspace limbs the Karatsuba/chop rungs need for an `la × lb` product,
/// every recursion frame included; 0 when the product never reaches them.
/// A Karatsuba frame on `n` limbs uses at most `4n + 8` and recurses on
/// operands of at most `n/2 + 2` limbs, so `10n + 64` covers the whole
/// recursion; a chop frame uses `2·lb` and recurses on `lb × lb`.
fn scratch_len(la: usize, lb: usize) -> usize {
    let (long, short) = (la.max(lb), la.min(lb));
    if short < thresholds::KARATSUBA.get() {
        return 0;
    }
    if short >= thresholds::TOOM3.get() {
        // Balanced products go to Toom-3/NTT, which allocate their own.
        return if long > 2 * short { 2 * short } else { 0 };
    }
    10 * long.min(2 * short) + 64
}

/// Width-dispatched product into `out` (zeroed, `len >= a.len()+b.len()`).
/// The single entry point of the multiply ladder; see the module docs.
pub fn mul_dispatch(out: &mut [Limb], a: &[Limb], b: &[Limb]) {
    mul_rec(out, a, b, &mut []);
}

/// [`mul_dispatch`] with caller-owned Karatsuba/chop workspace: the
/// scratch grows to the product's need once and is reused after.
pub fn mul_dispatch_with(out: &mut [Limb], a: &[Limb], b: &[Limb], scratch: &mut MulScratch) {
    let need = scratch_len(a.len(), b.len());
    if scratch.buf.len() < need {
        scratch.buf.resize(need, 0);
    }
    mul_rec(out, a, b, &mut scratch.buf);
}

/// The ladder itself. `ws` is workspace for the Karatsuba and chop frames;
/// a frame that finds it too short allocates its own (so [`mul_dispatch`]
/// passes none and pays one allocation per top-level frame).
fn mul_rec(out: &mut [Limb], a: &[Limb], b: &[Limb], ws: &mut [Limb]) {
    let (a, b) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    // a is the longer operand.
    if b.is_empty() {
        return;
    }
    if b.len() < thresholds::KARATSUBA.get() {
        mul_schoolbook(out, a, b);
        return;
    }
    if a.len() > 2 * b.len() {
        mul_chop(out, a, b, ws);
        return;
    }
    if b.len() >= thresholds::NTT.get() && a.len() + b.len() <= ntt::MAX_NTT_TOTAL_LIMBS {
        ntt::mul_ntt_into(out, a, b);
        return;
    }
    if b.len() >= thresholds::TOOM3.get() {
        toom::mul_toom3_into(out, a, b);
        return;
    }
    mul_karatsuba(out, a, b, ws);
}

/// Unbalanced product (`a.len() > 2·b.len()`): chop `a` into
/// `b.len()`-sized chunks, each near-balanced against `b`.
fn mul_chop(out: &mut [Limb], a: &[Limb], b: &[Limb], ws: &mut [Limb]) {
    let chunk = b.len();
    if ws.len() < 2 * chunk {
        let mut own = vec![0; scratch_len(a.len(), b.len()).max(2 * chunk)];
        return mul_chop(out, a, b, &mut own);
    }
    let (tmp, ws) = ws.split_at_mut(2 * chunk);
    let mut off = 0;
    while off < a.len() {
        let hi = (off + chunk).min(a.len());
        let part = &a[off..hi];
        let t = &mut tmp[..part.len() + b.len()];
        t.fill(0);
        mul_rec(t, part, b, ws);
        let carry = ops::add_assign(&mut out[off..], t);
        debug_assert_eq!(carry, 0);
        off = hi;
    }
}

/// Balanced Karatsuba product into `out` (zeroed, len >= a.len()+b.len()).
/// Requires `a.len() >= b.len()` and `a.len() <= 2·b.len()` (the dispatcher
/// guarantees both); sub-products re-enter the ladder. The frame's
/// temporaries (at most `8m + 4` limbs, `m = ⌈a.len()/2⌉`) come from `ws`.
fn mul_karatsuba(out: &mut [Limb], a: &[Limb], b: &[Limb], ws: &mut [Limb]) {
    debug_assert!(a.len() >= b.len() && a.len() <= 2 * b.len());
    // Split at m = ceil(a.len()/2).
    let m = a.len().div_ceil(2);
    if ws.len() < 8 * m + 4 {
        let mut own = vec![0; scratch_len(a.len(), b.len()).max(8 * m + 4)];
        return mul_karatsuba(out, a, b, &mut own);
    }
    let (a0, a1) = a.split_at(m);
    let (b0, b1) = if b.len() > m {
        b.split_at(m)
    } else {
        (b, &[][..])
    };
    let (z0, ws) = ws.split_at_mut(2 * m);
    let (z2, ws) = ws.split_at_mut(2 * m);
    let (sa, ws) = ws.split_at_mut(m + 1);
    let (sb, ws) = ws.split_at_mut(m + 1);
    let (z1, ws) = ws.split_at_mut(2 * m + 2);

    // z0 = a0*b0, z2 = a1*b1, z1 = (a0+a1)(b0+b1) - z0 - z2.
    let z0 = &mut z0[..a0.len() + b0.len()];
    z0.fill(0);
    mul_rec(z0, a0, b0, ws);
    let z0 = &z0[..ops::normalized_len(z0)];
    let z2 = &mut z2[..a1.len() + b1.len()];
    z2.fill(0);
    if !a1.is_empty() && !b1.is_empty() {
        mul_rec(z2, a1, b1, ws);
    }
    let z2 = &z2[..ops::normalized_len(z2)];

    // sa = a0 + a1, sb = b0 + b1 (each at most m+1 limbs).
    sa.fill(0);
    sa[..a0.len()].copy_from_slice(a0);
    ops::add_assign(sa, a1);
    sb.fill(0);
    sb[..b0.len()].copy_from_slice(b0);
    ops::add_assign(sb, b1);
    let la = ops::normalized_len(sa);
    let lb = ops::normalized_len(sb);
    let z1 = &mut z1[..la + lb];
    z1.fill(0);
    mul_rec(z1, &sa[..la], &sb[..lb], ws);
    let borrow = ops::sub_assign(z1, z0);
    debug_assert_eq!(borrow, 0);
    let borrow = ops::sub_assign(z1, z2);
    debug_assert_eq!(borrow, 0);
    // The middle term a0*b1 + a1*b0 always fits in out[m..]; its *slice* may
    // be one limb longer than that, so drop the (provably zero) high limbs.
    let z1 = &z1[..ops::normalized_len(z1)];

    // out = z0 + z1 << (32*m) + z2 << (64*m)
    out[..z0.len()].copy_from_slice(z0);
    let carry = ops::add_assign(&mut out[m..], z1);
    debug_assert_eq!(carry, 0);
    if !z2.is_empty() {
        let carry = ops::add_assign(&mut out[2 * m..], z2);
        debug_assert_eq!(carry, 0);
    }
}

/// Full product of two limb slices, allocating the result.
pub fn mul_slices(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    let la = ops::normalized_len(a);
    let lb = ops::normalized_len(b);
    if la == 0 || lb == 0 {
        return Vec::new();
    }
    let mut out = vec![0; la + lb];
    mul_dispatch(&mut out, &a[..la], &b[..lb]);
    out.truncate(ops::normalized_len(&out));
    out
}

impl Nat {
    /// `self * other`.
    pub fn mul(&self, other: &Nat) -> Nat {
        let mut out = Nat::default();
        self.mul_into(other, &mut out);
        out
    }

    /// `self * other` into a caller-owned `Nat`, reusing its allocation.
    pub fn mul_into(&self, other: &Nat, out: &mut Nat) {
        let la = self.len();
        let lb = other.len();
        let buf = out.limbs_mut();
        buf.clear();
        if la == 0 || lb == 0 {
            return;
        }
        buf.resize(la + lb, 0);
        mul_dispatch(buf, self.limbs(), other.limbs());
        let n = ops::normalized_len(buf);
        buf.truncate(n);
    }

    /// `self * m` for a single limb `m`.
    pub fn mul_u32(&self, m: Limb) -> Nat {
        if m == 0 || self.is_zero() {
            return Nat::zero();
        }
        let mut out = vec![0; self.len() + 1];
        let carry = mul_limb(&mut out[..self.len()], self.limbs(), m);
        out[self.len()] = carry;
        Nat::from_limbs(&out)
    }

    /// `self * self` (delegates to the dedicated squaring path).
    pub fn square(&self) -> Nat {
        crate::square::square_nat(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schoolbook_matches_u128() {
        let a = 0xffff_ffff_ffffu128;
        let b = 0x1234_5678_9abcu128;
        let prod = Nat::from_u128(a).mul(&Nat::from_u128(b));
        assert_eq!(prod.to_u128(), Some(a * b));
    }

    #[test]
    fn mul_by_zero_and_one() {
        let a = Nat::from_u128(0xdead_beef_cafe);
        assert!(a.mul(&Nat::zero()).is_zero());
        assert_eq!(a.mul(&Nat::one()), a);
        assert_eq!(a.mul_u32(0), Nat::zero());
        assert_eq!(a.mul_u32(1), a);
    }

    #[test]
    fn mul_u32_matches_mul() {
        let a = Nat::from_u128(u128::MAX / 7);
        assert_eq!(a.mul_u32(12345), a.mul(&Nat::from(12345u32)));
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Build operands long enough to take the Karatsuba path.
        let n = thresholds::KARATSUBA.default_value() * 3 + 5;
        let a: Vec<Limb> = (0..n)
            .map(|i| (i as u32).wrapping_mul(0x9e37_79b9) | 1)
            .collect();
        let b: Vec<Limb> = (0..n - 7)
            .map(|i| (i as u32).wrapping_mul(0x85eb_ca6b) ^ 0xdead)
            .collect();
        let mut expect = vec![0; a.len() + b.len()];
        mul_schoolbook(&mut expect, &a, &b);
        expect.truncate(ops::normalized_len(&expect));
        assert_eq!(mul_slices(&a, &b), expect);
    }

    #[test]
    fn karatsuba_unbalanced() {
        let k = thresholds::KARATSUBA.default_value();
        let a: Vec<Limb> = (0..k * 8).map(|i| i as u32 | 1).collect();
        let b: Vec<Limb> = (0..k).map(|i| !(i as u32)).collect();
        let mut expect = vec![0; a.len() + b.len()];
        mul_schoolbook(&mut expect, &a, &b);
        expect.truncate(ops::normalized_len(&expect));
        assert_eq!(mul_slices(&a, &b), expect);
    }

    #[test]
    fn dispatch_covers_toom_and_ntt_widths() {
        // One deterministic product wide enough for each upper rung, checked
        // against the direct algorithm entries (which the proptests in turn
        // check against schoolbook).
        let mut state = 0x00dd_ba11_5eed_f00du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [
            thresholds::TOOM3.default_value() + 5,
            thresholds::NTT.default_value() + 9,
        ] {
            let a: Vec<Limb> = (0..n).map(|_| crate::limb::lo(next())).collect();
            let b: Vec<Limb> = (0..n - 3).map(|_| crate::limb::lo(next())).collect();
            assert_eq!(mul_slices(&a, &b), toom::mul_toom3(&a, &b), "n={n}");
        }
    }

    #[test]
    fn mul_into_reuses_and_matches() {
        let a = Nat::from_u128(u128::MAX - 12345);
        let b = Nat::from_u128(0xfeed_f00d_dead_beef);
        let mut out = Nat::default();
        a.mul_into(&b, &mut out);
        assert_eq!(out, a.mul(&b));
        // Overwrite with a smaller product; buffer shrinks logically.
        a.mul_into(&Nat::one(), &mut out);
        assert_eq!(out, a);
        a.mul_into(&Nat::zero(), &mut out);
        assert!(out.is_zero());
    }

    #[test]
    fn square_is_mul_self() {
        let a = Nat::from_u128(0x0123_4567_89ab_cdef);
        assert_eq!(a.square(), a.mul(&a));
    }
}
