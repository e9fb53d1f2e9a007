//! The calibration loop: a fixed integer kernel that `run.py` times next
//! to every timed pass. The host's speed drifts by up to a factor of two
//! over minutes, and the loop slows and speeds up with it, so pass times
//! divided by the loop's time stay on one scale. It calls no code of the
//! repository, so no change to the program moves it.

use std::hint::black_box;
use std::time::Instant;

/// GCDs per repetition: about 14 ms on a 2-core VM.
const GCDS: u64 = 150_000;

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Binary GCD of two odd values.
fn gcd_odd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
    }
    a
}

/// Seconds taken by each of `reps` repetitions of the loop.
pub fn run(reps: usize) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(7u64);
            let mut acc = 0u64;
            for i in 0..GCDS {
                x = mix(x);
                acc = acc.wrapping_add(gcd_odd(x | 1, mix(x ^ i) | 1));
            }
            black_box(acc);
            start.elapsed().as_secs_f64()
        })
        .collect()
}
