//! The batch-GCD entries against the definition, with no tree involved.
//!
//! For every modulus the oracle computes `P = Π n_j` by a left fold and
//! then `gcd(n, (P mod n²)/n)` with plain `Nat::rem`/`Nat::div`. The
//! scaled remainder tree must reproduce it bit for bit through all three
//! entries: `batch_gcd`, `batch_gcd_into` (one scratch reused across
//! every shape, larger corpora after smaller ones and back) and
//! `batch_gcd_parallel`.

use bulk_gcd::bigint::prime::random_rsa_prime;
use bulk_gcd::bigint::{thresholds, Limb, Nat};
use bulk_gcd::bulk::{batch_gcd, batch_gcd_into, batch_gcd_parallel, BatchScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `gcd(n, (P mod n²)/n)` for every modulus, straight from the definition.
fn oracle(moduli: &[Nat]) -> Vec<Nat> {
    if moduli.len() < 2 {
        return moduli.iter().map(|_| Nat::one()).collect();
    }
    let p = moduli.iter().fold(Nat::one(), |acc, n| acc.mul(n));
    moduli
        .iter()
        .map(|n| p.rem(&n.mul(n)).div(n).gcd_reference(n))
        .collect()
}

/// Runs all three entries on `moduli` and checks each against the oracle.
fn check(moduli: &[Nat], scratch: &mut BatchScratch, what: &str) {
    let expect = oracle(moduli);
    assert_eq!(batch_gcd(moduli), expect, "batch_gcd: {what}");
    let mut out = vec![Nat::from_u64(12345); 3];
    batch_gcd_into(moduli, scratch, &mut out);
    assert_eq!(out, expect, "batch_gcd_into: {what}");
    assert_eq!(
        batch_gcd_parallel(moduli),
        expect,
        "batch_gcd_parallel: {what}"
    );
}

/// splitmix64: a seeded limb source independent of the `rand` vendoring.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn limb(&mut self) -> Limb {
        (self.next() >> 32) as Limb
    }

    /// A non-zero modulus of exactly `limbs` limbs whose top limb is drawn
    /// below `top_max` (tiny top limbs stress the precision bookkeeping).
    fn modulus(&mut self, limbs: usize, top_max: u64) -> Nat {
        let mut v: Vec<Limb> = (0..limbs).map(|_| self.limb()).collect();
        v[limbs - 1] = 1 + self.below(top_max) as Limb;
        Nat::from_limbs(&v)
    }

    /// A corpus of `m` moduli of 1..=`max_limbs` limbs each, with some
    /// shared factors and exact duplicates mixed in.
    fn corpus(&mut self, m: usize, max_limbs: u64) -> Vec<Nat> {
        let shared_limbs = 1 + self.below(max_limbs.div_ceil(2)) as usize;
        let shared = self.modulus(shared_limbs, u32::MAX as u64);
        let mut out: Vec<Nat> = (0..m)
            .map(|_| {
                let top = if self.below(4) == 0 {
                    0xff
                } else {
                    u32::MAX as u64
                };
                let limbs = 1 + self.below(max_limbs) as usize;
                self.modulus(limbs, top)
            })
            .collect();
        for i in 0..m {
            match self.below(8) {
                0 => out[i] = out[i].mul(&shared),
                1 if i > 0 => {
                    let j = self.below(i as u64) as usize;
                    out[i] = out[j].clone();
                }
                _ => {}
            }
        }
        out
    }
}

#[test]
fn mixed_width_corpora_match_the_definition() {
    let mut mix = Mix(0xba7c_6cd0);
    let mut scratch = BatchScratch::new();
    for round in 0..40 {
        let m = 2 + mix.below(40) as usize;
        let moduli = mix.corpus(m, 40);
        check(&moduli, &mut scratch, &format!("round {round}, m={m}"));
    }
}

#[test]
fn corpus_sizes_around_the_level_boundaries() {
    let mut mix = Mix(0x51_2e5);
    let mut scratch = BatchScratch::new();
    for m in [2usize, 3, 5, 7, 33, 300, 7, 2] {
        let max_limbs = if m >= 300 { 8 } else { 40 };
        let moduli = mix.corpus(m, max_limbs);
        check(&moduli, &mut scratch, &format!("m={m}"));
    }
}

#[test]
fn duplicates_and_tiny_top_limbs() {
    let mut mix = Mix(0xd0_0b1e);
    let mut scratch = BatchScratch::new();
    // Exact duplicates: w = 0 at the leaf, so the result is n itself.
    let n = mix.modulus(9, u32::MAX as u64);
    let dupes = vec![n.clone(), mix.modulus(9, 3), n.clone(), n.clone()];
    check(&dupes, &mut scratch, "triple duplicate");
    let all_same = vec![n.clone(); 5];
    check(&all_same, &mut scratch, "all equal");
    // Every modulus with a one-byte (or one-bit) top limb.
    for top in [1u64, 0xff] {
        let moduli: Vec<Nat> = (0..37).map(|i| mix.modulus(1 + i % 13, top)).collect();
        check(&moduli, &mut scratch, &format!("top limbs <= {top}"));
    }
    // Single-limb values, including 1.
    let small: Vec<Nat> = [1u64, 1, 3, 15, 5, 1, 0xffff_ffff, 7]
        .map(Nat::from_u64)
        .to_vec();
    check(&small, &mut scratch, "single limbs");
}

#[test]
fn rsa_shaped_corpus_with_planted_primes() {
    // 256-bit moduli p·q; three pairs share a prime and one prime sits in
    // three moduli.
    let mut rng = StdRng::seed_from_u64(0x25_6b17);
    let mut prime = || random_rsa_prime(&mut rng, 128);
    let mut moduli: Vec<Nat> = (0..40).map(|_| prime().mul(&prime())).collect();
    for k in 0..3 {
        let shared = prime();
        moduli[2 * k] = shared.mul(&prime());
        moduli[31 - 3 * k] = shared.mul(&prime());
    }
    let triple = prime();
    for i in [10, 20, 39] {
        moduli[i] = triple.mul(&prime());
    }
    let g = batch_gcd(&moduli);
    assert!(g[0] > Nat::one() && g[39] > Nat::one() && g[1].is_one());
    check(&moduli, &mut BatchScratch::new(), "rsa-shaped 256-bit");
}

#[test]
fn wrapped_product_at_small_widths() {
    // With the NTT rung opened at 32 limbs the descent's truncated
    // multiplies take the wrapped NTT product from tiny nodes up. The
    // cutoff only moves work between exact algorithms, so tests running
    // alongside are unaffected.
    thresholds::NTT.set(32);
    let mut mix = Mix(0x3a_77e0);
    let mut scratch = BatchScratch::new();
    for round in 0..12 {
        let m = 2 + mix.below(70) as usize;
        let moduli = mix.corpus(m, 24);
        check(
            &moduli,
            &mut scratch,
            &format!("NTT=32 round {round}, m={m}"),
        );
    }
    thresholds::reset_ladder();
}
