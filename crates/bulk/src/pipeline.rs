//! The end-to-end weak-key attack pipeline: scan → factor → recover keys.
//!
//! This is the "break weak RSA keys" deliverable of the paper's title:
//! given a pile of public keys, find shared-prime pairs by bulk GCD and
//! output working private keys for every vulnerable modulus.

use crate::arena::ModuliArena;
use crate::scan::{AutoBackend, Finding, ScanError, ScanPipeline, ScanReport};
use bulkgcd_core::Algorithm;
use bulkgcd_rsa::{recover_private_key, PrivateKey, PublicKey};

/// A successfully broken key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrokenKey {
    /// Index of the key in the input slice.
    pub index: usize,
    /// The recovered private key.
    pub private: PrivateKey,
    /// The shared prime that broke it.
    pub factor: bulkgcd_bigint::Nat,
}

/// Result of [`break_weak_keys`].
#[derive(Debug, Clone)]
pub struct BreakReport {
    /// The scan that produced the factors.
    pub scan: ScanReport,
    /// Every broken key (deduplicated, ordered by index).
    pub broken: Vec<BrokenKey>,
}

/// Turn scan findings into private keys.
///
/// A finding `gcd(n_i, n_j) = g` breaks both keys when `g` is a proper
/// factor. Identical moduli (`g == n`) factor neither — the pair is flagged
/// by the scan but cannot be split by GCD alone, exactly as in the paper's
/// threat model.
pub fn recover_keys(keys: &[PublicKey], findings: &[Finding]) -> Vec<BrokenKey> {
    let mut broken: Vec<BrokenKey> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for f in findings {
        for idx in [f.i, f.j] {
            if !seen.insert(idx) {
                continue;
            }
            if let Ok(private) = recover_private_key(&keys[idx], &f.factor) {
                broken.push(BrokenKey {
                    index: idx,
                    private,
                    factor: f.factor.clone(),
                });
            }
        }
    }
    broken.sort_by_key(|b| b.index);
    broken
}

/// Scan all pairs of `keys` through [`AutoBackend`] and recover a private
/// key for every vulnerable modulus.
///
/// Corpora of at least [`AUTO_PRODUCT_TREE_MIN_BITS`] bits go through the
/// product tree; smaller ones get the pairwise scan Auto picks, running
/// `algo` with early termination on. On RSA moduli (two half-width primes
/// each) the findings are the same either way.
///
/// An empty key list is a corpus the arena refuses to pack, reported as
/// [`ScanError::Arena`] rather than a panic.
///
/// [`AUTO_PRODUCT_TREE_MIN_BITS`]: crate::scan::AUTO_PRODUCT_TREE_MIN_BITS
pub fn break_weak_keys(keys: &[PublicKey], algo: Algorithm) -> Result<BreakReport, ScanError> {
    let moduli: Vec<_> = keys.iter().map(|k| k.n.clone()).collect();
    let arena = ModuliArena::try_from_moduli(&moduli)?;
    let scan = ScanPipeline::new(&arena)
        .algorithm(algo)
        .backend(AutoBackend::default())
        .run()?
        .scan;
    let broken = recover_keys(keys, &scan.findings);
    Ok(BreakReport { scan, broken })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulkgcd_bigint::Nat;
    use bulkgcd_rsa::{build_corpus, decrypt, encrypt};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn end_to_end_break_and_decrypt() {
        let mut rng = StdRng::seed_from_u64(1);
        let corpus = build_corpus(&mut rng, 10, 128, 2);
        let publics: Vec<_> = corpus.keys.iter().map(|k| k.public.clone()).collect();
        let report = break_weak_keys(&publics, Algorithm::Approximate).unwrap();

        let vulnerable = corpus.vulnerable_indices();
        assert_eq!(
            report.broken.iter().map(|b| b.index).collect::<Vec<_>>(),
            vulnerable
        );
        // Every recovered key actually decrypts.
        for b in &report.broken {
            let kp = &corpus.keys[b.index];
            let m = Nat::from(0xc0ffeeu32);
            let c = encrypt(&kp.public, &m).unwrap();
            assert_eq!(decrypt(&b.private, &c).unwrap(), m);
            assert_eq!(b.private.d, kp.private.d);
        }
    }

    #[test]
    fn findings_break_both_endpoints_once() {
        let mut rng = StdRng::seed_from_u64(2);
        let corpus = build_corpus(&mut rng, 8, 128, 1);
        let publics: Vec<_> = corpus.keys.iter().map(|k| k.public.clone()).collect();
        let report = break_weak_keys(&publics, Algorithm::FastBinary).unwrap();
        assert_eq!(report.broken.len(), 2);
        assert_eq!(report.scan.findings.len(), 1);
    }

    #[test]
    fn clean_corpus_breaks_nothing() {
        let mut rng = StdRng::seed_from_u64(3);
        let corpus = build_corpus(&mut rng, 6, 96, 0);
        let publics: Vec<_> = corpus.keys.iter().map(|k| k.public.clone()).collect();
        let report = break_weak_keys(&publics, Algorithm::Approximate).unwrap();
        assert!(report.broken.is_empty());
        assert_eq!(report.scan.pairs_scanned, 15);
    }

    #[test]
    fn identical_moduli_flagged_but_not_factored() {
        use bulkgcd_rsa::generate_keypair;
        let mut rng = StdRng::seed_from_u64(4);
        let kp = generate_keypair(&mut rng, 96);
        let other = generate_keypair(&mut rng, 96);
        let keys = vec![kp.public.clone(), kp.public.clone(), other.public.clone()];
        let report = break_weak_keys(&keys, Algorithm::Approximate).unwrap();
        // The duplicate pair is found (gcd = n), but n is not a proper
        // factor, so no key is recovered from it.
        assert_eq!(report.scan.findings.len(), 1);
        assert_eq!(report.scan.findings[0].factor, kp.public.n);
        assert!(report.broken.is_empty());
    }
}
