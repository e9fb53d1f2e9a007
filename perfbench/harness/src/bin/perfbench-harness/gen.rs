//! Seeded corpus generator.
//!
//! Ground truth comes from construction: every modulus is the product of
//! two primes whose identities the generator tracks, so the expected
//! findings and broken keys are known without running a single all-pairs
//! GCD.
//!
//! Primes come from one fixed pool per width (seed-independent, built once
//! and cached by the caller); a workload seed picks a permutation of the
//! pool. That keeps a 2048-key corpus at a few milliseconds per seed, while
//! the pool itself costs one prime search per entry, once per checkout.

use bulk_gcd::bigint::prime::is_probable_prime;
use bulk_gcd::bigint::{Limb, Nat};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

/// Seed of the shared prime pool. Changing it changes every corpus.
pub const POOL_SEED: u64 = 0x5eed_b01d_9cd0_0001;
/// Public exponent the CLI's `break` uses; pool primes keep it invertible.
const E: Limb = 65_537;
/// Odd offsets searched from each random start before drawing a new one.
const WINDOW: usize = 4096;
/// Small primes the window is sieved with.
const SIEVE_LIMIT: u32 = 1 << 13;

fn odd_primes_below(limit: u32) -> Vec<u32> {
    let mut composite = vec![false; limit as usize];
    let mut out = Vec::new();
    for p in 3..limit {
        if composite[p as usize] || p % 2 == 0 {
            continue;
        }
        out.push(p);
        let mut k = p * p;
        while k < limit {
            composite[k as usize] = true;
            k += p;
        }
    }
    out
}

/// The `k`-th prime of the stream `seed`: a random `bits`-bit start with
/// its two top bits set (so two such primes multiply to exactly `2·bits`
/// bits), then the odd candidates above it in increasing order. A
/// small-prime sieve strikes most of them; the public `is_probable_prime`
/// decides the survivors. Primes `p ≡ 1 (mod 65537)` are skipped, so
/// `e = 65537` is invertible modulo `p − 1`.
pub fn prime_at(seed: u64, k: u64, bits: u64, small: &[u32]) -> Nat {
    let mut rng = StdRng::seed_from_u64(seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let limbs = bits.div_ceil(32) as usize;
    let top = (bits - 1) % 32;
    let mut composite = vec![false; WINDOW];
    loop {
        let mut v: Vec<Limb> = (0..limbs).map(|_| rng.gen::<u32>()).collect();
        let hi = &mut v[limbs - 1];
        *hi &= if top == 31 {
            u32::MAX
        } else {
            (1u32 << (top + 1)) - 1
        };
        *hi |= 1 << top;
        if top >= 1 {
            *hi |= 1 << (top - 1);
        } else {
            v[limbs - 2] |= 1 << 31;
        }
        v[0] |= 1;
        let start = Nat::from_vec(v);

        composite.iter_mut().for_each(|c| *c = false);
        for &p in small {
            // Strike every t with start + 2t ≡ 0 (mod p).
            let r = start.rem_u32(p) as u64;
            let p64 = p as u64;
            let mut t = ((p64 - r) % p64) * p64.div_ceil(2) % p64;
            while (t as usize) < WINDOW {
                composite[t as usize] = true;
                t += p64;
            }
        }
        for (t, &struck) in composite.iter().enumerate() {
            if struck {
                continue;
            }
            let cand = start.add(&Nat::from_u64(2 * t as u64));
            if cand.bit_len() != bits {
                break;
            }
            if cand.rem_u32(E) == 1 {
                continue;
            }
            if is_probable_prime(&cand, &mut rng) {
                return cand;
            }
        }
    }
}

/// The first `count` primes of the pool stream for `bits`, searched on
/// `threads` threads. Entry `k` depends only on `(POOL_SEED, k, bits)`.
pub fn build_pool(count: usize, bits: u64, threads: usize) -> Vec<Nat> {
    let small = odd_primes_below(SIEVE_LIMIT);
    let threads = threads.max(1);
    let mut parts: Vec<Vec<(usize, Nat)>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let small = &small;
                s.spawn(move || {
                    (t..count)
                        .step_by(threads)
                        .map(|k| (k, prime_at(POOL_SEED, k as u64, bits, small)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            parts.push(h.join().expect("pool worker panicked"));
        }
    });
    let mut pool = vec![Nat::one(); count];
    for (k, p) in parts.into_iter().flatten() {
        pool[k] = p;
    }
    pool
}

/// File name of the cached pool of `bits`-bit primes. It carries a hash of
/// this file's source, so a changed prime search never reuses a pool an
/// older generator wrote.
pub fn pool_file(bits: u64) -> String {
    let hash = include_str!("gen.rs")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    format!("pool-{bits}-{hash:016x}.txt")
}

/// Load the pool cached at `path`, or build it and write it there
/// (through a temporary file, so a killed run never leaves half a pool).
/// A cached pool is used only if its first entry is the prime this build
/// computes for entry 0.
pub fn cached_pool(
    path: &Path,
    count: usize,
    bits: u64,
    threads: usize,
) -> Result<Vec<Nat>, String> {
    if let Ok(text) = std::fs::read_to_string(path) {
        let pool: Result<Vec<Nat>, _> = text.lines().map(Nat::from_hex).collect();
        if let Ok(mut pool) = pool {
            let first = prime_at(POOL_SEED, 0, bits, &odd_primes_below(SIEVE_LIMIT));
            if pool.len() >= count
                && pool.first() == Some(&first)
                && pool.iter().all(|p| p.bit_len() == bits)
            {
                pool.truncate(count);
                return Ok(pool);
            }
        }
    }
    let pool = build_pool(count, bits, threads);
    let mut text = String::new();
    for p in &pool {
        writeln!(text, "{}", p.to_hex()).expect("writing to a String");
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("renaming {}: {e}", tmp.display()))?;
    Ok(pool)
}

/// Shape of a generated corpus.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Distinct well-formed moduli.
    pub keys: usize,
    /// Modulus width in bits (the pool holds primes of half this width).
    pub bits: u64,
    /// Disjoint planted pairs sharing one prime.
    pub weak_pairs: usize,
    /// Exact duplicate lines, as a share of `keys` (Lenstra et al. found
    /// repeated moduli to be the most common defect in collected keys).
    pub duplicate_share: f64,
}

enum Line {
    Key(usize),
    Zero,
    Even(Nat),
    Undersized(Nat),
    Comment(&'static str),
    Blank,
}

/// Draws distinct pool primes in a seed-specific order.
struct Draw<'p> {
    pool: &'p [Nat],
    order: Vec<usize>,
    next: usize,
}

impl Draw<'_> {
    fn prime(&mut self) -> usize {
        let id = *self
            .order
            .get(self.next)
            .expect("prime pool too small for the corpus shape");
        self.next += 1;
        id
    }
}

fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

fn random_odd(rng: &mut StdRng, bits: u64) -> Nat {
    let limbs = bits.div_ceil(32) as usize;
    let mut v: Vec<Limb> = (0..limbs).map(|_| rng.gen::<u32>()).collect();
    let top = (bits - 1) % 32;
    v[limbs - 1] &= if top == 31 {
        u32::MAX
    } else {
        (1u32 << (top + 1)) - 1
    };
    v[limbs - 1] |= 1 << top;
    v[0] |= 1;
    Nat::from_vec(v)
}

/// Generate the corpus for `seed` from `pool` (primes of `bits/2` bits),
/// as file name → contents.
pub fn generate(seed: u64, shape: Shape, pool: &[Nat]) -> Vec<(&'static str, String)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bits = shape.bits;
    assert_eq!(
        pool[0].bit_len() * 2,
        bits,
        "pool primes are half the modulus width"
    );
    let mut order: Vec<usize> = (0..pool.len()).collect();
    shuffle(&mut rng, &mut order);
    let mut draw = Draw {
        pool,
        order,
        next: 0,
    };

    // Keys as prime-id pairs; planted pairs first, then shuffled.
    let mut keys: Vec<(usize, usize)> = Vec::with_capacity(shape.keys);
    for _ in 0..shape.weak_pairs {
        let shared = draw.prime();
        keys.push((shared, draw.prime()));
        keys.push((shared, draw.prime()));
    }
    while keys.len() < shape.keys {
        keys.push((draw.prime(), draw.prime()));
    }
    shuffle(&mut rng, &mut keys);
    let modulus = |&(p, q): &(usize, usize)| draw.pool[p].mul(&draw.pool[q]);
    let moduli: Vec<Nat> = keys.iter().map(modulus).collect();

    // Raw layout: keys, then hostile lines spliced in at random places.
    let mut lines: Vec<Line> = (0..keys.len()).map(Line::Key).collect();
    let dups = ((shape.keys as f64) * shape.duplicate_share).round() as usize;
    let mut hostile: Vec<Line> = Vec::new();
    for _ in 0..dups {
        hostile.push(Line::Key(rng.gen_range(0..keys.len())));
    }
    hostile.push(Line::Zero);
    hostile.push(Line::Zero);
    for _ in 0..3 {
        let mut n = random_odd(&mut rng, bits);
        n = n.sub(&Nat::one());
        hostile.push(Line::Even(n));
    }
    for _ in 0..3 {
        let short = rng.gen_range(bits / 4..bits - 8);
        hostile.push(Line::Undersized(random_odd(&mut rng, short)));
    }
    hostile.push(Line::Comment("# collected keys, batch 1"));
    hostile.push(Line::Comment("#"));
    hostile.push(Line::Blank);
    hostile.push(Line::Blank);
    for h in hostile {
        let at = rng.gen_range(0..=lines.len());
        lines.insert(at, h);
    }

    // Render, numbering raw lines as the CLI does (comments and blank
    // lines take no index) and keeping each key's first occurrence, which
    // is the copy ingest accepts.
    let mut corpus = String::from("# perfbench corpus\n");
    let mut raw_of: Vec<Option<usize>> = vec![None; keys.len()];
    let mut raw = 0usize;
    let mut inline_comments = 2;
    for line in &lines {
        match line {
            Line::Key(k) => {
                corpus.push_str(&moduli[*k].to_hex());
                if inline_comments > 0 && rng.gen_range(0..64) == 0 {
                    inline_comments -= 1;
                    corpus.push_str("  # imported");
                }
                raw_of[*k].get_or_insert(raw);
                raw += 1;
            }
            Line::Zero => {
                corpus.push_str("00");
                raw += 1;
            }
            Line::Even(n) | Line::Undersized(n) => {
                corpus.push_str(&n.to_hex());
                raw += 1;
            }
            Line::Comment(c) => corpus.push_str(c),
            Line::Blank => {}
        }
        corpus.push('\n');
    }
    let raw_of: Vec<usize> = raw_of
        .into_iter()
        .map(|r| r.expect("every key is laid out"))
        .collect();

    // Expected scan findings and broken keys, in raw numbering.
    let mut holders: HashMap<usize, Vec<usize>> = HashMap::new();
    for (k, &(p, q)) in keys.iter().enumerate() {
        holders.entry(p).or_default().push(k);
        holders.entry(q).or_default().push(k);
    }
    let mut findings: Vec<(usize, usize, usize)> = Vec::new();
    for (&prime, ks) in &holders {
        for (a, &ka) in ks.iter().enumerate() {
            for &kb in &ks[a + 1..] {
                let (i, j) = (raw_of[ka].min(raw_of[kb]), raw_of[ka].max(raw_of[kb]));
                findings.push((i, j, prime));
            }
        }
    }
    findings.sort_unstable();
    let mut truth = String::new();
    if findings.is_empty() {
        truth.push_str("no shared factors found\n");
    }
    for &(i, j, p) in &findings {
        writeln!(truth, "{i} {j} {}", pool[p].to_hex()).expect("writing to a String");
    }
    let mut broken: Vec<(usize, usize)> = findings
        .iter()
        .flat_map(|&(i, j, p)| [(i, p), (j, p)])
        .collect();
    broken.sort_unstable();
    broken.dedup_by_key(|b| b.0);
    let mut break_truth = String::new();
    for &(i, p) in &broken {
        writeln!(break_truth, "{i} {}", pool[p].to_hex()).expect("writing to a String");
    }

    vec![
        ("corpus.txt", corpus),
        ("truth.txt", truth),
        ("break_truth.txt", break_truth),
    ]
}

/// Pool stream for the pinned self-test corpus: small, computed directly.
pub fn selftest_pool() -> Vec<Nat> {
    let small = odd_primes_below(SIEVE_LIMIT);
    (0..96)
        .map(|k| prime_at(POOL_SEED, k, 64, &small))
        .collect()
}
