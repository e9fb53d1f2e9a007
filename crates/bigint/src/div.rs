//! Division: single-limb short division, Knuth Algorithm D for the general
//! multiword case (TAOCP vol. 2, §4.3.1 — the same reference the paper
//! cites for Euclidean algorithms), and a width dispatcher that routes
//! large divisors to the Newton reciprocal in [`crate::newton`].
//!
//! [`div_rem_slices`] is the dispatch entry every caller goes through;
//! [`div_rem_knuth`] pins the quadratic algorithm for oracles and for the
//! perf gate's legacy arm. [`reciprocal_into`] is the scaled reciprocal
//! `⌊β^p / v⌋` on the same ladder; below the Newton cutoff it runs in
//! caller-owned buffers ([`DivScratch`]), so the batch-GCD root divides
//! without allocating.

use crate::limb::{div2by1, lo, sbb, Limb, LIMB_BITS};
use crate::nat::Nat;
use crate::newton;
use crate::ops;
use crate::thresholds;

/// Divide `a` by the single limb `d`. Returns `(quotient limbs, remainder)`.
/// Panics if `d == 0`.
pub fn div_rem_limb(a: &[Limb], d: Limb) -> (Vec<Limb>, Limb) {
    let mut q = Vec::new();
    let rem = div_rem_limb_into(a, d, &mut q);
    (q, rem)
}

/// [`div_rem_limb`] into a caller buffer; returns the remainder.
pub fn div_rem_limb_into(a: &[Limb], d: Limb, q: &mut Vec<Limb>) -> Limb {
    assert!(d != 0, "division by zero");
    let n = ops::normalized_len(a);
    q.clear();
    q.resize(n, 0);
    let mut rem: Limb = 0;
    for i in (0..n).rev() {
        let (qi, r) = div2by1(rem, a[i], d);
        q[i] = qi;
        rem = r;
    }
    q.truncate(ops::normalized_len(q));
    rem
}

/// Caller-owned working memory for [`div_rem_knuth_into`] and
/// [`reciprocal_into`]: the shifted dividend and divisor of Knuth's D1
/// normalization step. A reused scratch makes repeated Knuth divisions
/// allocation-free.
#[derive(Default)]
pub struct DivScratch {
    u: Vec<Limb>,
    v: Vec<Limb>,
}

impl DivScratch {
    pub fn new() -> Self {
        DivScratch::default()
    }
}

/// True when the dispatcher routes `(la, lb)`-limb division to the Newton
/// reciprocal: the divisor must clear the cutoff *and* the quotient must be
/// wide enough (≥ half the cutoff) to amortize the fixed reciprocal cost.
pub(crate) fn newton_applies(la: usize, lb: usize) -> bool {
    let cut = thresholds::NEWTON_DIV.get();
    lb >= cut && la >= lb + cut / 2
}

/// Divide `a` by `b` (both little-endian limb slices).
/// Returns `(quotient, remainder)` as normalized limb vectors.
/// Panics if `b == 0`.
///
/// This is the dispatch entry: Knuth Algorithm D below the
/// [`thresholds::NEWTON_DIV`] cutoff, Newton reciprocal division above it.
pub fn div_rem_slices(a: &[Limb], b: &[Limb]) -> (Vec<Limb>, Vec<Limb>) {
    let la = ops::normalized_len(a);
    let lb = ops::normalized_len(b);
    if newton_applies(la, lb) {
        return newton::div_rem_newton(a, b);
    }
    div_rem_knuth(a, b)
}

/// Knuth Algorithm D, unconditionally (no dispatch). The oracle for the
/// Newton cross-checks and the perf gate's legacy arm; also the base case
/// of the Newton recursion itself.
pub fn div_rem_knuth(a: &[Limb], b: &[Limb]) -> (Vec<Limb>, Vec<Limb>) {
    let mut q = Vec::new();
    let mut r = Vec::new();
    let mut scratch = DivScratch::new();
    div_rem_knuth_into(a, b, &mut q, &mut r, &mut scratch);
    (q, r)
}

/// Knuth Algorithm D into caller buffers. `q` and `r` are cleared and
/// left normalized; `scratch` holds the shifted operands between calls.
pub fn div_rem_knuth_into(
    a: &[Limb],
    b: &[Limb],
    q: &mut Vec<Limb>,
    r: &mut Vec<Limb>,
    scratch: &mut DivScratch,
) {
    let la = ops::normalized_len(a);
    let lb = ops::normalized_len(b);
    assert!(lb != 0, "division by zero");
    q.clear();
    r.clear();
    if la < lb || ops::cmp(a, b) == core::cmp::Ordering::Less {
        r.extend_from_slice(&a[..la]);
        return;
    }
    if lb == 1 {
        let rem = div_rem_limb_into(&a[..la], b[0], q);
        if rem != 0 {
            r.push(rem);
        }
        return;
    }

    // Knuth Algorithm D.
    // D1: normalize so the divisor's top limb has its high bit set.
    let shift = b[lb - 1].leading_zeros();
    let u = &mut scratch.u;
    u.clear();
    u.extend_from_slice(&a[..la]);
    u.push(0);
    if shift > 0 {
        ops::shl_in_place(u, shift as u64);
    }
    let v = &mut scratch.v;
    v.clear();
    v.extend_from_slice(&b[..lb]);
    if shift > 0 {
        v.push(0);
        let n = ops::shl_in_place(v, shift as u64);
        v.truncate(n);
    }
    debug_assert_eq!(v.len(), lb, "normalizing shift must not change length");
    knuth_loop(u, v, q);

    // D8: denormalize the remainder.
    r.extend_from_slice(&u[..lb]);
    if shift > 0 {
        ops::shr_in_place(r, shift as u64);
    }
    q.truncate(ops::normalized_len(q));
    r.truncate(ops::normalized_len(r));
}

/// Knuth D2–D7 on a normalized divisor `v` (top bit set, at least two
/// limbs) and a dividend `u` already shifted by the same amount, with its
/// spare top limb: `u.len() = la + 1`, `la ≥ v.len()`. Writes the
/// quotient digits into `q` (`la − v.len() + 1` limbs, unnormalized) and
/// leaves the shifted remainder in `u[..v.len()]`.
fn knuth_loop(u: &mut [Limb], v: &[Limb], q: &mut Vec<Limb>) {
    let n = v.len();
    let m = u.len() - 1 - n;
    q.clear();
    q.resize(m + 1, 0);
    let v_hi = v[n - 1];
    let v_next = v[n - 2];

    // D2-D7: main loop over quotient digits, most significant first.
    for j in (0..=m).rev() {
        // D3: estimate qhat from the top three limbs of the current window.
        let u2 = u[j + n] as u64;
        let u1 = u[j + n - 1] as u64;
        let u0 = u[j + n - 2] as u64;
        let num = (u2 << LIMB_BITS) | u1;
        // Knuth D3: if the top limbs are equal the naive estimate would be
        // >= D (and qhat * v_next could overflow u64), so clamp to D - 1.
        let (mut qhat, mut rhat) = if u2 == v_hi as u64 {
            ((1u64 << LIMB_BITS) - 1, u1 + v_hi as u64)
        } else {
            (num / v_hi as u64, num % v_hi as u64)
        };
        // qhat can overestimate by at most 2; fix it here.
        while rhat < 1 << LIMB_BITS && qhat * v_next as u64 > ((rhat << LIMB_BITS) | u0) {
            qhat -= 1;
            rhat += v_hi as u64;
        }

        // D4: multiply and subtract u[j..j+n+1] -= qhat * v.
        let mut carry: u64 = 0; // high part of product + borrow chain
        let mut borrow: Limb = 0;
        for i in 0..n {
            let p = qhat * v[i] as u64 + carry;
            carry = p >> LIMB_BITS;
            let (d, bo) = sbb(u[j + i], lo(p), borrow);
            u[j + i] = d;
            borrow = bo;
        }
        let (d, bo) = sbb(u[j + n], lo(carry), borrow);
        u[j + n] = d;

        // qhat fits in one limb by the D3 estimate's clamp to D - 1.
        let mut qj = lo(qhat);
        if bo != 0 {
            // D6: qhat was one too large (probability ~ 2/D); add v back.
            qj -= 1;
            let mut carry: Limb = 0;
            for i in 0..n {
                let (s, c) = crate::limb::adc(u[j + i], v[i], carry);
                u[j + i] = s;
                carry = c;
            }
            u[j + n] = u[j + n].wrapping_add(carry);
        }
        q[j] = qj;
    }
}

/// `⌊β^p / v⌋` (β = 2³²) into `q`, normalized: the scaled reciprocal a
/// batch-GCD descent starts from. Dispatched like division: Knuth
/// Algorithm D on `β^p` through `scratch` (allocation-free once warm)
/// below [`thresholds::NEWTON_DIV`], one Newton reciprocal above it —
/// computed at precision `max(p, 2·len(v))` and truncated, since
/// `⌊⌊x⌋/β^j⌋ = ⌊x/β^j⌋`. Panics on a zero divisor.
pub fn reciprocal_into(v: &[Limb], p: usize, q: &mut Vec<Limb>, scratch: &mut DivScratch) {
    let lv = ops::normalized_len(v);
    assert!(lv != 0, "division by zero");
    let v = &v[..lv];
    let wide = p.max(2 * lv);
    if newton_applies(wide + 1, lv) {
        let r = newton::reciprocal(v, wide);
        q.clear();
        q.extend_from_slice(r.get(wide - p..).unwrap_or(&[]));
        return;
    }
    if p + 1 < lv {
        // β^p < β^{lv−1} ≤ v.
        q.clear();
        return;
    }
    // β^p, normalized by the divisor's shift, plus Knuth's spare top limb.
    let shift = v[lv - 1].leading_zeros();
    let u = &mut scratch.u;
    u.clear();
    u.resize(p + 2, 0);
    if lv == 1 {
        u[p] = 1;
        div_rem_limb_into(&u[..p + 1], v[0], q);
        return;
    }
    u[p] = 1 << shift;
    let vs = &mut scratch.v;
    vs.clear();
    vs.extend_from_slice(v);
    if shift > 0 {
        vs.push(0);
        let n = ops::shl_in_place(vs, shift as u64);
        vs.truncate(n);
    }
    knuth_loop(u, vs, q);
    q.truncate(ops::normalized_len(q));
}

impl Nat {
    /// Quotient and remainder: `(self div other, self mod other)`.
    /// Panics if `other` is zero.
    pub fn div_rem(&self, other: &Nat) -> (Nat, Nat) {
        let (q, r) = div_rem_slices(self.limbs(), other.limbs());
        (Nat::from_vec(q), Nat::from_vec(r))
    }

    /// Rounded-down quotient (the paper's `div` operator).
    pub fn div(&self, other: &Nat) -> Nat {
        self.div_rem(other).0
    }

    /// Remainder `self mod other`.
    pub fn rem(&self, other: &Nat) -> Nat {
        self.div_rem(other).1
    }

    /// `self mod d` for a single limb.
    pub fn rem_u32(&self, d: Limb) -> Limb {
        div_rem_limb(self.limbs(), d).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(a: u128, b: u128) {
        let (q, r) = Nat::from_u128(a).div_rem(&Nat::from_u128(b));
        assert_eq!(q.to_u128(), Some(a / b), "quotient a={a:#x} b={b:#x}");
        assert_eq!(r.to_u128(), Some(a % b), "remainder a={a:#x} b={b:#x}");
    }

    #[test]
    fn single_limb_divisor() {
        check(0xdead_beef_cafe_babe_0123_4567, 7);
        check(0xdead_beef_cafe_babe_0123_4567, u32::MAX as u128);
        check(42, 43);
        check(42, 42);
    }

    #[test]
    fn multi_limb_divisor() {
        check(u128::MAX, 0x1_0000_0001);
        check(u128::MAX, 0xffff_ffff_ffff_ffff);
        check(
            0x0123_4567_89ab_cdef_0123_4567_89ab_cdef,
            0x1111_1111_1111_1111,
        );
        check(1 << 127, (1 << 96) + 12345);
    }

    #[test]
    fn dividend_smaller_than_divisor() {
        let a = Nat::from_u128(100);
        let b = Nat::from_u128(1 << 90);
        let (q, r) = a.div_rem(&b);
        assert!(q.is_zero());
        assert_eq!(r, a);
    }

    #[test]
    fn exact_division() {
        let b = Nat::from_u128(0x1_0000_0000_0001);
        let a = b.mul(&Nat::from_u128(0xabcdef));
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.to_u128(), Some(0xabcdef));
        assert!(r.is_zero());
    }

    #[test]
    fn knuth_d6_addback_case() {
        // Classic add-back trigger: dividend with max top limbs over a
        // divisor slightly below a power of D.
        let a_limbs = [0u32, 0, 0x8000_0000, 0x7fff_ffff, 0xffff_fffe];
        let b_limbs = [1u32, 0, 0x8000_0000];
        let a = Nat::from_limbs(&a_limbs);
        let b = Nat::from_limbs(&b_limbs);
        let (q, r) = a.div_rem(&b);
        // Verify via reconstruction rather than a precomputed constant.
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r.cmp(&b) == core::cmp::Ordering::Less);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = Nat::from(1u32).div_rem(&Nat::zero());
    }

    #[test]
    fn reconstruction_randomish() {
        // Deterministic pseudo-random cross-check without pulling in rand.
        let mut state = 0x853c_49e6_748f_ea9bu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let a = Nat::from_u128(((next() as u128) << 64) | next() as u128);
            let b = Nat::from_u128((next() as u128) >> (next() % 64) | 1);
            let (q, r) = a.div_rem(&b);
            assert_eq!(q.mul(&b).add(&r), a);
            assert!(r.cmp(&b) == core::cmp::Ordering::Less);
        }
    }

    #[test]
    fn reciprocal_matches_knuth_on_both_rungs() {
        // ⌊β^p / v⌋ against Knuth on the explicit numerator: narrow
        // divisors (Knuth through the scratch), and divisors on both sides
        // of the Newton cutoff with p around 2·len(v).
        let mut state = 0x5ca1_ed00_f00d_0001u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            lo(state)
        };
        let cut = thresholds::NEWTON_DIV.get().min(1 << 12);
        let mut scratch = DivScratch::new();
        let mut q = Vec::new();
        for (lv, ps) in [
            (1usize, vec![0usize, 1, 5]),
            (2, vec![0, 1, 2, 3, 9]),
            (7, vec![6, 7, 14, 20]),
            (33, vec![66, 67, 80]),
            (cut - 1, vec![2 * cut - 2, 2 * cut + 3]),
            (cut, vec![2 * cut - 5, 2 * cut, 2 * cut + 9]),
            (cut + 40, vec![2 * cut + 80, 2 * cut + 91]),
        ] {
            for top in [1u32, 0x1234, u32::MAX] {
                let mut v: Vec<Limb> = (0..lv).map(|_| next()).collect();
                v[lv - 1] = top;
                for &p in &ps {
                    let mut num = vec![0; p + 1];
                    num[p] = 1;
                    let (expect, _) = div_rem_knuth(&num, &v);
                    reciprocal_into(&v, p, &mut q, &mut scratch);
                    assert_eq!(q, expect, "lv={lv} top={top:#x} p={p}");
                }
            }
        }
    }
}
