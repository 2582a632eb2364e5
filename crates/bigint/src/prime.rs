//! Primality testing, prime generation, and square roots — the number-theory
//! toolkit used to generate pairing parameters and RSA moduli for the RSW
//! time-lock baseline.

use std::sync::OnceLock;

use rand::RngCore;

use crate::monty::MontyParams;
use crate::uint::Uint;

/// Trial-division bound: all primes below 8192.
fn small_primes() -> &'static [u64] {
    static PRIMES: OnceLock<Vec<u64>> = OnceLock::new();
    PRIMES.get_or_init(|| {
        const N: usize = 8192;
        let mut sieve = vec![true; N];
        sieve[0] = false;
        sieve[1] = false;
        let mut i = 2;
        while i * i < N {
            if sieve[i] {
                let mut j = i * i;
                while j < N {
                    sieve[j] = false;
                    j += i;
                }
            }
            i += 1;
        }
        (0..N as u64).filter(|&i| sieve[i as usize]).collect()
    })
}

/// Miller-Rabin probabilistic primality test with `rounds` random witnesses,
/// preceded by trial division against all primes below 8192.
///
/// A composite passes with probability at most `4^-rounds`; 64 rounds is
/// overkill for parameter generation.
pub fn is_probably_prime<const L: usize>(
    n: &Uint<L>,
    rounds: usize,
    rng: &mut (impl RngCore + ?Sized),
) -> bool {
    if *n < Uint::from_u64(2) {
        return false;
    }
    for &p in small_primes() {
        let pv = Uint::<L>::from_u64(p);
        if *n == pv {
            return true;
        }
        if n.rem(&pv).is_zero() {
            return false;
        }
    }
    // n is odd (2 is in the small-prime list) and > 8192 here.
    let ctx = match MontyParams::new(*n) {
        Some(c) => c,
        None => return false,
    };
    let n_minus_1 = n.wrapping_sub(&Uint::ONE);
    let s = trailing_zeros(&n_minus_1);
    let d = n_minus_1.shr_vartime(s);
    let one = ctx.one();
    let minus_one = ctx.neg(&one);
    'witness: for _ in 0..rounds {
        // a in [2, n-2]
        let a = loop {
            let a = Uint::random_below(rng, &n_minus_1);
            if a >= Uint::from_u64(2) {
                break a;
            }
        };
        let mut x = ctx.pow(&ctx.to_monty(&a), &d);
        if x == one || x == minus_one {
            continue;
        }
        for _ in 0..s - 1 {
            x = ctx.square(&x);
            if x == minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

fn trailing_zeros<const L: usize>(n: &Uint<L>) -> u32 {
    debug_assert!(!n.is_zero());
    let mut tz = 0;
    for (i, &limb) in n.limbs().iter().enumerate() {
        if limb != 0 {
            return tz + limb.trailing_zeros();
        }
        tz = 64 * (i as u32 + 1);
    }
    tz
}

/// Generates a random prime of exactly `bits` bits.
///
/// # Panics
/// Panics if `bits < 2` or `bits > Uint::<L>::BITS`.
pub fn gen_prime<const L: usize>(bits: u32, rng: &mut (impl RngCore + ?Sized)) -> Uint<L> {
    assert!(bits >= 2, "need at least 2 bits for a prime");
    loop {
        let mut cand = Uint::<L>::random_bits(rng, bits);
        cand.limbs_mut()[0] |= 1; // force odd
        if is_probably_prime(&cand, 40, rng) {
            return cand;
        }
    }
}

/// Jacobi symbol `(a/n)` for odd positive `n`; returns −1, 0 or 1.
///
/// Binary (shift-and-subtract) algorithm: strip the twos of `a` with the
/// `(2/n)` rule, swap by quadratic reciprocity when `a < n`, subtract.
/// No division, so a full-width symbol costs about as much as a handful
/// of field multiplications — cheap enough to screen hash-to-curve
/// candidates before a square-root exponentiation.
///
/// # Panics
/// Panics if `n` is even or zero.
pub fn jacobi<const L: usize>(a: &Uint<L>, n: &Uint<L>) -> i32 {
    assert!(n.is_odd() && !n.is_zero(), "jacobi requires odd n");
    let mut a = *a;
    let mut n = *n;
    let mut t = 1i32;
    while !a.is_zero() {
        let tz = trailing_zeros(&a);
        a = a.shr_vartime(tz);
        let r = n.limbs()[0] & 7;
        if tz % 2 == 1 && (r == 3 || r == 5) {
            t = -t;
        }
        // Both odd: (a/n) = (a − n / n), and reciprocity for a < n.
        if a < n {
            core::mem::swap(&mut a, &mut n);
            if a.limbs()[0] & 3 == 3 && n.limbs()[0] & 3 == 3 {
                t = -t;
            }
        }
        a = a.wrapping_sub(&n);
    }
    if n == Uint::ONE {
        t
    } else {
        0
    }
}

/// Square root modulo a prime `p ≡ 3 (mod 4)`: returns `x` with `x² ≡ a`,
/// or `None` if `a` is a non-residue. Computed as `a^((p+1)/4)`.
///
/// # Panics
/// Panics if `p ≢ 3 (mod 4)`.
pub fn sqrt_mod_p3<const L: usize>(a: &Uint<L>, ctx: &MontyParams<L>) -> Option<Uint<L>> {
    let p = ctx.modulus();
    assert_eq!(p.limbs()[0] & 3, 3, "sqrt_mod_p3 requires p ≡ 3 (mod 4)");
    let a = a.rem(p);
    if a.is_zero() {
        return Some(Uint::ZERO);
    }
    let e = p.wrapping_add(&Uint::ONE).shr_vartime(2);
    let am = ctx.to_monty(&a);
    let xm = ctx.pow(&am, &e);
    // Verify: non-residues give x² = -a.
    if ctx.square(&xm) == am {
        Some(ctx.from_monty(&xm))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type U256 = Uint<4>;

    #[test]
    fn small_prime_classification() {
        let mut rng = rand::thread_rng();
        for (n, expect) in [
            (0u64, false),
            (1, false),
            (2, true),
            (3, true),
            (4, false),
            (97, true),
            (561, false), // Carmichael
            (7919, true),
            (8191, true), // Mersenne prime within sieve
            (1_000_003, true),
            (1_000_001, false),
        ] {
            assert_eq!(
                is_probably_prime(&U256::from_u64(n), 20, &mut rng),
                expect,
                "n={}",
                n
            );
        }
    }

    #[test]
    fn known_large_prime() {
        let mut rng = rand::thread_rng();
        // secp256k1 field prime
        let p =
            U256::from_be_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
                .unwrap();
        assert!(is_probably_prime(&p, 20, &mut rng));
        assert!(!is_probably_prime(
            &p.wrapping_add(&U256::from_u64(2)),
            20,
            &mut rng
        ));
    }

    #[test]
    fn gen_prime_size_and_primality() {
        let mut rng = rand::thread_rng();
        let p: Uint<4> = gen_prime(96, &mut rng);
        assert_eq!(p.bits(), 96);
        assert!(is_probably_prime(&p, 40, &mut rng));
    }

    #[test]
    fn jacobi_small() {
        // (a/7): QRs mod 7 are {1,2,4}.
        let n = U256::from_u64(7);
        for (a, expect) in [(1u64, 1), (2, 1), (3, -1), (4, 1), (5, -1), (6, -1), (7, 0)] {
            assert_eq!(jacobi(&U256::from_u64(a), &n), expect, "a={}", a);
        }
    }

    #[test]
    fn jacobi_matches_euler_for_prime() {
        let mut rng = rand::thread_rng();
        let p = U256::from_u64(1_000_003);
        let ctx = MontyParams::new(p).unwrap();
        let e = p.wrapping_sub(&U256::ONE).shr1();
        for _ in 0..50 {
            let a = U256::random_below(&mut rng, &p);
            if a.is_zero() {
                continue;
            }
            let euler = ctx.pow_plain(&a, &e);
            let expect = if euler == U256::ONE { 1 } else { -1 };
            assert_eq!(jacobi(&a, &p), expect);
        }
    }

    #[test]
    fn binary_jacobi_matches_euler_full_width() {
        // Euler's criterion a^((p−1)/2) at a full-width prime, for reduced
        // and unreduced inputs alike (the binary loop never divides).
        let mut rng = rand::thread_rng();
        let p =
            U256::from_be_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
                .unwrap();
        let ctx = MontyParams::new(p).unwrap();
        let e = p.wrapping_sub(&U256::ONE).shr1();
        let euler = |a: &U256| {
            if ctx.pow_plain(a, &e) == U256::ONE {
                1
            } else {
                -1
            }
        };
        let mut seen = [0usize; 2];
        for _ in 0..200 {
            let a = U256::random_below(&mut rng, &p);
            if a.is_zero() {
                continue;
            }
            let expect = euler(&a);
            assert_eq!(jacobi(&a, &p), expect, "a={a:?}");
            seen[(expect == 1) as usize] += 1;
            let small = U256::from_u64(u64::from(rng.next_u32() | 1));
            let unreduced = small.checked_add(&p).expect("p + 2^32 fits 256 bits");
            assert_eq!(jacobi(&unreduced, &p), euler(&small), "a={small:?} + p");
        }
        assert!(seen[0] > 0 && seen[1] > 0, "both residues and non-residues");
        assert_eq!(jacobi(&U256::ZERO, &p), 0);
        assert_eq!(jacobi(&p, &p), 0);
        assert_eq!(jacobi(&U256::ONE, &U256::ONE), 1);
        // A composite modulus: (a/15) = (a/3)(a/5).
        let n = U256::from_u64(15);
        for (a, expect) in [
            (1u64, 1),
            (2, 1),
            (4, 1),
            (7, -1),
            (3, 0),
            (10, 0),
            (14, -1),
        ] {
            assert_eq!(jacobi(&U256::from_u64(a), &n), expect, "a={a}");
        }
    }

    #[test]
    fn sqrt_p3() {
        // p = 1000003 ≡ 3 (mod 4)
        let p = U256::from_u64(1_000_003);
        let ctx = MontyParams::new(p).unwrap();
        let mut rng = rand::thread_rng();
        for _ in 0..50 {
            let x = U256::random_below(&mut rng, &p);
            let sq = ctx.from_monty(&ctx.square(&ctx.to_monty(&x)));
            let r = sqrt_mod_p3(&sq, &ctx).expect("square must have a root");
            let rr = ctx.from_monty(&ctx.square(&ctx.to_monty(&r)));
            assert_eq!(rr, sq);
        }
        // Count non-residues rejected.
        let mut rejected = 0;
        for a in 1u64..100 {
            if sqrt_mod_p3(&U256::from_u64(a), &ctx).is_none() {
                rejected += 1;
            }
        }
        assert!(
            rejected > 30,
            "about half of small values should be non-residues"
        );
    }

    #[test]
    fn sqrt_zero() {
        let ctx = MontyParams::new(U256::from_u64(1_000_003)).unwrap();
        assert_eq!(sqrt_mod_p3(&U256::ZERO, &ctx), Some(U256::ZERO));
    }
}
