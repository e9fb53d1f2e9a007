//! The Auto selector's product-tree crossover, pinned end to end.
//!
//! Auto resolves a whole-corpus scan to the product tree once the corpus
//! holds `AUTO_PRODUCT_TREE_MIN_BITS` bits (`m × width`), and `break`
//! scans through Auto. These tests pin the boundary itself, the tree's
//! findings against the scalar scan on a corpus above it, and the
//! launch-driven (checkpointed) fallback to the pairwise rules.

use bulk_gcd::bigint::prime::random_rsa_prime;
use bulk_gcd::bigint::random::random_odd_bits;
use bulk_gcd::bigint::LIMB_BITS;
use bulk_gcd::bulk::AUTO_PRODUCT_TREE_MIN_BITS;
use bulk_gcd::prelude::*;
use bulk_gcd::rsa::key::default_exponent;
use bulk_gcd::rsa::keygen::keypair_from_primes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Modulus width of the shared key corpus: 256 keys of it sit exactly on
/// the crossover.
const BITS: u64 = 256;

/// Planted weak pairs: keys `(2k, 2k + 1)` share a prime.
const PLANTED: usize = 3;

/// 300 keys of [`BITS`] bits: the first `2 × PLANTED` are the planted
/// pairs, the rest are clean. Built once and shared, since key generation
/// dominates the cost of every test here.
fn keys() -> &'static [KeyPair] {
    static KEYS: OnceLock<Vec<KeyPair>> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x7ee);
        let e = default_exponent();
        let mut keys = Vec::with_capacity(300);
        while keys.len() < 2 * PLANTED {
            let p = random_rsa_prime(&mut rng, BITS / 2);
            let k1 =
                keypair_from_primes(p.clone(), random_rsa_prime(&mut rng, BITS / 2), e.clone());
            let k2 = keypair_from_primes(p, random_rsa_prime(&mut rng, BITS / 2), e.clone());
            if let (Some(k1), Some(k2)) = (k1, k2) {
                keys.extend([k1, k2]);
            }
        }
        while keys.len() < 300 {
            keys.push(generate_keypair(&mut rng, BITS));
        }
        keys
    })
}

fn corpus_bits(arena: &ModuliArena) -> usize {
    arena.len() * arena.stride() * LIMB_BITS as usize
}

/// The name Auto reports after an in-memory scan of `moduli`.
fn auto_resolution(moduli: &[Nat]) -> &'static str {
    let arena = ModuliArena::try_from_moduli(moduli).unwrap();
    ScanPipeline::new(&arena)
        .backend(AutoBackend::default())
        .metrics()
        .run()
        .unwrap()
        .metrics
        .unwrap()
        .backend
}

#[test]
fn auto_switches_to_the_tree_exactly_at_the_crossover() {
    let moduli: Vec<Nat> = keys().iter().map(|k| k.public.n.clone()).collect();
    let at = &moduli[..AUTO_PRODUCT_TREE_MIN_BITS / BITS as usize];
    let below = &at[..at.len() - 1];
    let arena = ModuliArena::try_from_moduli(at).unwrap();
    assert_eq!(corpus_bits(&arena), AUTO_PRODUCT_TREE_MIN_BITS);

    assert_eq!(auto_resolution(at), "auto:product-tree");
    // Below the line the width rule decides: 256-bit lanes run scalar.
    assert_eq!(auto_resolution(below), "auto:scalar");
}

#[test]
fn break_above_the_crossover_matches_the_scalar_scan() {
    let keys = keys();
    let mut publics: Vec<PublicKey> = keys.iter().map(|k| k.public.clone()).collect();
    // One exact duplicate of a clean key: flagged, but no GCD splits it.
    let dup = 2 * PLANTED + 1;
    publics.push(publics[dup].clone());
    let moduli: Vec<Nat> = publics.iter().map(|k| k.n.clone()).collect();
    let arena = ModuliArena::try_from_moduli(&moduli).unwrap();
    assert!(corpus_bits(&arena) > AUTO_PRODUCT_TREE_MIN_BITS);

    let report = break_weak_keys(&publics, Algorithm::Approximate).unwrap();
    let scalar = ScanPipeline::new(&arena).run().unwrap().scan;
    assert_eq!(report.scan.findings, scalar.findings);
    assert_eq!(report.scan.pairs_scanned, scalar.pairs_scanned);
    assert_eq!(report.scan.findings.len(), PLANTED + 1);
    assert_eq!(report.scan.duplicate_pairs, 1);
    assert_eq!(auto_resolution(&moduli), "auto:product-tree");

    // Exactly the planted keys break, and each recovered key decrypts.
    let broken: Vec<usize> = report.broken.iter().map(|b| b.index).collect();
    assert_eq!(broken, (0..2 * PLANTED).collect::<Vec<_>>());
    let m = Nat::from(0x5eed_u32);
    for b in &report.broken {
        let c = encrypt(&publics[b.index], &m).unwrap();
        assert_eq!(decrypt(&b.private, &c).unwrap(), m);
        assert_eq!(b.private.d, keys[b.index].private.d);
    }
}

/// A checkpointed scan has launch boundaries and no whole-corpus step, so
/// Auto above the crossover must still pick by width and β probe: wide
/// lanes run compacted lockstep, never a silent scalar fallback.
#[test]
fn checkpointed_auto_above_the_crossover_runs_compacted_lockstep() {
    const WIDE: u64 = 1024;
    let mut rng = StdRng::seed_from_u64(0xc4e);
    let half = |rng: &mut StdRng| random_odd_bits(rng, WIDE / 2);
    let mut moduli: Vec<Nat> = (0..64)
        .map(|_| half(&mut rng).mul(&half(&mut rng)))
        .collect();
    // Plant two pairs sharing a half-width factor.
    for (i, j) in [(3, 40), (17, 62)] {
        let shared = half(&mut rng);
        moduli[i] = shared.mul(&half(&mut rng));
        moduli[j] = shared.mul(&half(&mut rng));
    }
    let arena = ModuliArena::try_from_moduli(&moduli).unwrap();
    assert!(corpus_bits(&arena) >= AUTO_PRODUCT_TREE_MIN_BITS);

    let scalar = ScanPipeline::new(&arena).run().unwrap().scan;
    assert!(scalar.findings.len() >= 2, "planted pairs are found");

    let dir = std::env::temp_dir().join(format!("bulkgcd-auto-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("scan.journal");
    let _ = std::fs::remove_file(&journal);
    let report = ScanPipeline::new(&arena)
        .backend(AutoBackend::default())
        .launch_pairs(256)
        .checkpoint(&journal)
        .metrics()
        .run()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(report.scan.findings, scalar.findings);
    let metrics = report.metrics.unwrap();
    assert_eq!(metrics.backend, "auto:lockstep-compact");
    assert!(
        metrics.total_compactions() > 0,
        "the lockstep queue compacts"
    );
    assert!(metrics.total_refills() > 0, "the lockstep queue refills");
}
