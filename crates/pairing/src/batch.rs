//! Randomized small-exponent batch verification of BLS-style equations.
//!
//! The TRE hot path at scale is update verification: every receiver checks
//! `ê(sG, H1(T)) = ê(G, I_T)` — two pairings — for every epoch it
//! consumes. A receiver catching up after downtime holds N such equations
//! against the *same* server key, and the classic small-exponent batch
//! test (Bellare–Garay–Rabin) collapses them into one:
//!
//! ```text
//! pick random e_1..e_N;  P = Σ e_i·H_i,  S = Σ e_i·I_i
//! accept all N  ⇔  ê(sG, P) = ê(G, S)
//! ```
//!
//! Two pairings per **batch** instead of per update. Bilinearity gives
//! completeness; soundness is statistical: a batch containing any forgery
//! passes with probability at most `2^-EXPONENT_BITS` over the verifier's
//! random exponents (the forged lane's error term must hit a random
//! linear relation). On failure, [`Curve::bls_batch_isolate`] bisects to
//! name the offending indices in `O(bad · log N)` batch checks instead of
//! `N` individual ones.

use rand::RngCore;
use tre_bigint::U256;

use crate::curve::{Curve, G1Affine};
use crate::pairing::MillerPrecomp;

/// Bit length of the random batching exponents: soundness error is
/// `2^-64` per batch check, at the cost of one ~64-bit scalar
/// multiplication per equation side per entry (cheap next to a pairing).
pub const EXPONENT_BITS: u32 = 64;

impl<const L: usize> Curve<L> {
    /// Verifies one BLS equation `ê(pk, h) = ê(g, sig)` with a shared
    /// Miller loop — 2 pairing lanes, 1 final exponentiation (vs 2 of
    /// each for two independent [`Curve::pairing`] calls).
    pub fn bls_verify_one(
        &self,
        g: &G1Affine<L>,
        pk: &G1Affine<L>,
        h: &G1Affine<L>,
        sig: &G1Affine<L>,
    ) -> bool {
        // ê(pk, h)·ê(−G, sig) = 1  ⇔  ê(pk, h) = ê(G, sig).
        self.multi_pairing(&[(*pk, *h), (self.g1_neg(g), *sig)])
            .is_one(self)
    }

    /// Small-exponent batch verification of `entries = [(H_i, I_i)]`
    /// against the key `(g, pk)`: accepts iff (whp over `rng`) every
    /// `ê(pk, H_i) = ê(g, I_i)` holds. Performs exactly 2 pairing lanes
    /// regardless of `N`; an empty batch is vacuously valid.
    ///
    /// The caller must reject duplicate/conflicting message points
    /// *before* batching — the linear combination cannot distinguish
    /// `{(H, I), (H, I')}` from `{(H, (I+I')/2) twice}`.
    pub fn bls_batch_verify(
        &self,
        g: &G1Affine<L>,
        pk: &G1Affine<L>,
        entries: &[(G1Affine<L>, G1Affine<L>)],
        rng: &mut (impl RngCore + ?Sized),
    ) -> bool {
        match entries {
            [] => true,
            [(h, sig)] => self.bls_verify_one(g, pk, h, sig),
            _ => {
                let mut p = G1Affine::infinity(self.fp());
                let mut s = G1Affine::infinity(self.fp());
                for (h, sig) in entries {
                    let e = U256::from_u64(rng.next_u64().max(1));
                    p = self.g1_add(&p, &self.g1_mul(h, &e));
                    s = self.g1_add(&s, &self.g1_mul(sig, &e));
                }
                self.bls_verify_one(g, pk, &p, &s)
            }
        }
    }

    /// [`Curve::bls_verify_one`] with **prepared** fixed sides: both lanes
    /// of the verification equation have a fixed first argument (`pk` and
    /// `−g`), so a caller holding [`MillerPrecomp`] tables for them (built
    /// once per key via [`Curve::prepare`]) pays only line evaluations —
    /// no Jacobian point arithmetic — per verification.
    pub fn bls_verify_one_prepared(
        &self,
        neg_g_prep: &MillerPrecomp<L>,
        pk_prep: &MillerPrecomp<L>,
        h: &G1Affine<L>,
        sig: &G1Affine<L>,
    ) -> bool {
        self.multi_pairing_mixed(&[(pk_prep, *h), (neg_g_prep, *sig)], &[])
            .is_one(self)
    }

    /// [`Curve::bls_batch_verify`] with prepared fixed sides. The
    /// small-exponent combination draws the same exponents in the same
    /// order as the generic loop, but forms `Σ eᵢ·Hᵢ` and `Σ eᵢ·Iᵢ` as
    /// two multi-scalar multiplications sharing one doubling chain each;
    /// the final 2-lane pairing check runs prepared.
    ///
    /// The entries' message points need not lie in the order-`q`
    /// subgroup: with `pk_prep` prepared for `(h mod q)·sG`, raw
    /// try-and-increment points verify the same equation (DESIGN.md §10).
    pub fn bls_batch_verify_prepared(
        &self,
        neg_g_prep: &MillerPrecomp<L>,
        pk_prep: &MillerPrecomp<L>,
        entries: &[(G1Affine<L>, G1Affine<L>)],
        rng: &mut (impl RngCore + ?Sized),
    ) -> bool {
        match entries {
            [] => true,
            [(h, sig)] => self.bls_verify_one_prepared(neg_g_prep, pk_prep, h, sig),
            _ => {
                let es: Vec<u64> = entries.iter().map(|_| rng.next_u64().max(1)).collect();
                let p = self.g1_msm_u64(entries.iter().map(|(h, _)| h).zip(es.iter().copied()));
                let s = self.g1_msm_u64(entries.iter().map(|(_, sig)| sig).zip(es.iter().copied()));
                self.bls_verify_one_prepared(neg_g_prep, pk_prep, &p, &s)
            }
        }
    }

    /// [`Curve::bls_batch_isolate`] with prepared fixed sides: the
    /// preparation cost is amortized across every batch check the
    /// bisection performs (`~2·bad·log2(N)` of them on failure).
    pub fn bls_batch_isolate_prepared(
        &self,
        neg_g_prep: &MillerPrecomp<L>,
        pk_prep: &MillerPrecomp<L>,
        entries: &[(G1Affine<L>, G1Affine<L>)],
        rng: &mut (impl RngCore + ?Sized),
    ) -> Result<(), Vec<usize>> {
        let mut bad = Vec::new();
        self.isolate_rec_prepared(neg_g_prep, pk_prep, entries, 0, rng, &mut bad);
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad)
        }
    }

    fn isolate_rec_prepared(
        &self,
        neg_g_prep: &MillerPrecomp<L>,
        pk_prep: &MillerPrecomp<L>,
        entries: &[(G1Affine<L>, G1Affine<L>)],
        offset: usize,
        rng: &mut (impl RngCore + ?Sized),
        bad: &mut Vec<usize>,
    ) {
        if entries.is_empty() || self.bls_batch_verify_prepared(neg_g_prep, pk_prep, entries, rng) {
            return;
        }
        if entries.len() == 1 {
            bad.push(offset);
            return;
        }
        let mid = entries.len() / 2;
        self.isolate_rec_prepared(neg_g_prep, pk_prep, &entries[..mid], offset, rng, bad);
        self.isolate_rec_prepared(neg_g_prep, pk_prep, &entries[mid..], offset + mid, rng, bad);
    }

    /// Batch verification with bisection fall-back: on success returns
    /// `Ok(())` after one 2-pairing batch check; on failure recursively
    /// splits the batch to isolate the offending entries, returning their
    /// indices (ascending). A single forgery hidden in `N` valid entries
    /// is named in `~2·log2(N)` batch checks.
    pub fn bls_batch_isolate(
        &self,
        g: &G1Affine<L>,
        pk: &G1Affine<L>,
        entries: &[(G1Affine<L>, G1Affine<L>)],
        rng: &mut (impl RngCore + ?Sized),
    ) -> Result<(), Vec<usize>> {
        let mut bad = Vec::new();
        self.isolate_rec(g, pk, entries, 0, rng, &mut bad);
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad)
        }
    }

    fn isolate_rec(
        &self,
        g: &G1Affine<L>,
        pk: &G1Affine<L>,
        entries: &[(G1Affine<L>, G1Affine<L>)],
        offset: usize,
        rng: &mut (impl RngCore + ?Sized),
        bad: &mut Vec<usize>,
    ) {
        if entries.is_empty() || self.bls_batch_verify(g, pk, entries, rng) {
            return;
        }
        if entries.len() == 1 {
            bad.push(offset);
            return;
        }
        let mid = entries.len() / 2;
        self.isolate_rec(g, pk, &entries[..mid], offset, rng, bad);
        self.isolate_rec(g, pk, &entries[mid..], offset + mid, rng, bad);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::toy64;

    struct Fixture {
        g: G1Affine<8>,
        pk: G1Affine<8>,
        secret: U256,
    }

    fn fixture() -> Fixture {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let g = curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut rng));
        let secret = curve.random_scalar(&mut rng);
        let pk = curve.g1_mul(&g, &secret);
        Fixture { g, pk, secret }
    }

    fn signed(fx: &Fixture, n: usize) -> Vec<(G1Affine<8>, G1Affine<8>)> {
        let curve = toy64();
        (0..n)
            .map(|i| {
                let h = curve.hash_to_g1(b"batch-test", format!("epoch-{i}").as_bytes());
                (h, curve.g1_mul(&h, &fx.secret))
            })
            .collect()
    }

    #[test]
    fn valid_batch_accepts_with_two_pairings() {
        let curve = toy64();
        let fx = fixture();
        let entries = signed(&fx, 32);
        tre_obs::enable();
        let mut rng = rand::thread_rng();
        assert!(curve.bls_batch_verify(&fx.g, &fx.pk, &entries, &mut rng));
        let trace = tre_obs::finish();
        assert_eq!(
            trace.total_ops().pairings,
            2,
            "one batch = 2 pairing lanes, independent of N"
        );
    }

    #[test]
    fn empty_and_singleton() {
        let curve = toy64();
        let fx = fixture();
        let mut rng = rand::thread_rng();
        assert!(curve.bls_batch_verify(&fx.g, &fx.pk, &[], &mut rng));
        let one = signed(&fx, 1);
        assert!(curve.bls_batch_verify(&fx.g, &fx.pk, &one, &mut rng));
    }

    #[test]
    fn forged_entry_rejects_batch() {
        let curve = toy64();
        let fx = fixture();
        let mut rng = rand::thread_rng();
        let mut entries = signed(&fx, 16);
        entries[7].1 = curve.g1_mul(&fx.g, &curve.random_scalar(&mut rng));
        assert!(!curve.bls_batch_verify(&fx.g, &fx.pk, &entries, &mut rng));
    }

    #[test]
    fn isolation_names_exact_forgeries() {
        let curve = toy64();
        let fx = fixture();
        let mut rng = rand::thread_rng();
        let mut entries = signed(&fx, 16);
        for &i in &[3usize, 11] {
            entries[i].1 = curve.g1_mul(&fx.g, &curve.random_scalar(&mut rng));
        }
        assert_eq!(
            curve.bls_batch_isolate(&fx.g, &fx.pk, &entries, &mut rng),
            Err(vec![3, 11])
        );
        // And a fully valid batch is one cheap check.
        let clean = signed(&fx, 16);
        assert_eq!(
            curve.bls_batch_isolate(&fx.g, &fx.pk, &clean, &mut rng),
            Ok(())
        );
    }

    #[test]
    fn prepared_batch_agrees_with_generic() {
        let curve = toy64();
        let fx = fixture();
        let mut rng = rand::thread_rng();
        let neg_g_prep = curve.prepare(&curve.g1_neg(&fx.g));
        let pk_prep = curve.prepare(&fx.pk);
        let entries = signed(&fx, 12);

        tre_obs::enable();
        assert!(curve.bls_batch_verify_prepared(&neg_g_prep, &pk_prep, &entries, &mut rng));
        let trace = tre_obs::finish();
        assert_eq!(
            trace.total_ops().pairings,
            2,
            "prepared batch is still 2 lanes"
        );

        let mut forged = entries.clone();
        forged[4].1 = curve.g1_mul(&fx.g, &curve.random_scalar(&mut rng));
        assert!(!curve.bls_batch_verify_prepared(&neg_g_prep, &pk_prep, &forged, &mut rng));
        assert_eq!(
            curve.bls_batch_isolate_prepared(&neg_g_prep, &pk_prep, &forged, &mut rng),
            Err(vec![4])
        );
        // Singleton path.
        assert!(curve.bls_verify_one_prepared(&neg_g_prep, &pk_prep, &entries[0].0, &entries[0].1));
    }

    #[test]
    fn infinity_pair_still_isolates() {
        // An infinity point in a batch entry is *dropped* by the
        // multi-pairing lane filter (ê(·, ∞) = 1) — but the equation's
        // other lane stays live, so the check fails and bisection names
        // the entry rather than letting it pass vacuously.
        let curve = toy64();
        let fx = fixture();
        let mut rng = rand::thread_rng();
        let inf = G1Affine::infinity(curve.fp());

        // Infinity signature.
        let mut entries = signed(&fx, 8);
        entries[5].1 = inf;
        assert_eq!(
            curve.bls_batch_isolate(&fx.g, &fx.pk, &entries, &mut rng),
            Err(vec![5])
        );
        assert!(!curve.bls_verify_one(&fx.g, &fx.pk, &entries[5].0, &inf));

        // Infinity message point with a non-trivial signature.
        let mut entries = signed(&fx, 8);
        entries[2].0 = inf;
        assert_eq!(
            curve.bls_batch_isolate(&fx.g, &fx.pk, &entries, &mut rng),
            Err(vec![2])
        );

        // Prepared path agrees on the same degenerate input.
        let neg_g_prep = curve.prepare(&curve.g1_neg(&fx.g));
        let pk_prep = curve.prepare(&fx.pk);
        assert_eq!(
            curve.bls_batch_isolate_prepared(&neg_g_prep, &pk_prep, &entries, &mut rng),
            Err(vec![2])
        );
    }

    #[test]
    fn small_exponent_combination_skips_high_bits() {
        // The 64-bit batching exponents must cost ~64 bits of scalar-mul
        // work, not a full-width walk (satellite op-counter guard).
        let curve = toy64();
        let fx = fixture();
        let h = curve.hash_to_g1(b"batch-test", b"cost-probe");

        tre_obs::enable();
        let _ = curve.g1_mul(&h, &U256::from_u64(u64::MAX));
        let small = tre_obs::finish().total_ops().fp_muls;

        let full = curve.order().wrapping_sub(&U256::ONE);
        tre_obs::enable();
        let _ = curve.g1_mul(&h, &full);
        let wide = tre_obs::finish().total_ops().fp_muls;

        assert!(small > 0, "fp_mul accounting must be live");
        assert!(
            small * 2 < wide,
            "64-bit exponent ({small} fp muls) must cost well under half of a \
             full-width scalar ({wide} fp muls)"
        );
        let _ = fx;
    }

    #[test]
    fn batch_agrees_with_per_entry_verification() {
        let curve = toy64();
        let fx = fixture();
        let mut rng = rand::thread_rng();
        for n in [2usize, 5, 9] {
            let mut entries = signed(&fx, n);
            assert!(curve.bls_batch_verify(&fx.g, &fx.pk, &entries, &mut rng));
            // Tamper each position in turn; the batch must notice every one.
            for i in 0..n {
                let orig = entries[i].1;
                entries[i].1 = curve.g1_add(&orig, &fx.g);
                assert!(
                    !curve.bls_batch_verify(&fx.g, &fx.pk, &entries, &mut rng),
                    "tamper at {i}/{n} must reject"
                );
                entries[i].1 = orig;
            }
        }
    }
}
