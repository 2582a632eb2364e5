//! Random-oracle instantiations: `H1 : {0,1}* → G1` (hash-to-curve) and
//! `H2 : G_T → {0,1}^n` (mask/key derivation), per §5.1 of the paper.

use tre_hashes::{xof, Sha256};

use crate::curve::{Curve, G1Affine};
use crate::pairing::Gt;

impl<const L: usize> Curve<L> {
    /// Hashes an arbitrary message to a point of order `q` (the paper's
    /// `H1`). Try-and-increment: derive a candidate x-coordinate from
    /// `XOF(domain, msg ‖ counter)`, solve for `y`, clear the cofactor;
    /// retry until the result is a non-identity subgroup point.
    ///
    /// Deterministic for fixed `(domain, msg)` and uniform in the subgroup
    /// under the random-oracle model. The expected number of iterations is 2.
    pub fn hash_to_g1(&self, domain: &[u8], msg: &[u8]) -> G1Affine<L> {
        (0u32..=u32::MAX)
            .filter_map(|ctr| self.h1_candidate(domain, msg, ctr))
            .map(|cand| self.g1_mul_uint(&cand, self.cofactor()))
            .find(|cleared| !cleared.is_infinity())
            .expect("hash-to-curve failed for 2^32 counters")
    }

    /// The first try-and-increment point of [`Curve::hash_to_g1`] with the
    /// cofactor **not** cleared: a point of `E(F_p)` whose `h`-multiple is
    /// `hash_to_g1(domain, msg)` (unless that multiple is the identity,
    /// probability ~`1/q`, where `hash_to_g1` moves on to the next
    /// counter). Verifiers fold `h` into the fixed pairing argument
    /// instead — `ê(sG, h·P) = ê((h mod q)·sG, P)` — see DESIGN.md §10.
    pub fn hash_to_g1_raw(&self, domain: &[u8], msg: &[u8]) -> G1Affine<L> {
        (0u32..=u32::MAX)
            .find_map(|ctr| self.h1_candidate(domain, msg, ctr))
            .expect("hash-to-curve failed for 2^32 counters")
    }

    /// One try-and-increment step: the curve point with x-coordinate
    /// derived from `XOF(domain, msg ‖ ctr)`, or `None` when that x has
    /// no `y` on the curve.
    fn h1_candidate(&self, domain: &[u8], msg: &[u8], ctr: u32) -> Option<G1Affine<L>> {
        tre_obs::record_h2c_iter();
        let ctx = self.fp();
        let fp_bytes = tre_bigint::Uint::<L>::BYTES;
        let mut input = Vec::with_capacity(msg.len() + 4);
        input.extend_from_slice(msg);
        input.extend_from_slice(&ctr.to_be_bytes());
        // 16 extra bytes + 1 sign byte so the mod-p reduction bias is
        // negligible and the y-sign is independent of x.
        let h = xof::<Sha256>(&self.h1_domain(domain), &input, fp_bytes + 17);
        let sign_byte = h[fp_bytes + 16];
        let x = ctx.from_be_bytes_mod(&h[..fp_bytes + 16]);
        let rhs = x.square(ctx).mul(&x, ctx).add(&x, ctx);
        // About half the candidates are non-residues: a binary Jacobi
        // symbol rejects them for a fraction of the sqrt exponentiation.
        if tre_bigint::prime::jacobi(&ctx.to_uint(&rhs), ctx.modulus()) == -1 {
            return None;
        }
        let y = rhs.sqrt(ctx)?;
        let y = if (sign_byte & 1 == 1) != y.is_odd(ctx) {
            y.neg(ctx)
        } else {
            y
        };
        let cand = G1Affine { x, y, inf: false };
        debug_assert!(self.is_on_curve(&cand));
        Some(cand)
    }

    /// The paper's `H2 : G_T → {0,1}^n` — expands a pairing value into `n`
    /// mask/key bytes. Domain-separated per parameter set.
    pub fn gt_kdf(&self, k: &Gt<L>, domain: &[u8], n: usize) -> Vec<u8> {
        let mut dom = b"TRE-H2/".to_vec();
        dom.extend_from_slice(self.name().as_bytes());
        dom.push(b'/');
        dom.extend_from_slice(domain);
        xof::<Sha256>(&dom, &k.to_bytes(self), n)
    }

    fn h1_domain(&self, domain: &[u8]) -> Vec<u8> {
        let mut dom = b"TRE-H1/".to_vec();
        dom.extend_from_slice(self.name().as_bytes());
        dom.push(b'/');
        dom.extend_from_slice(domain);
        dom
    }
}

#[cfg(test)]
mod tests {
    use crate::params::{mid96, toy64};

    #[test]
    fn cofactor_times_raw_point_is_the_cleared_hash() {
        let curve = toy64();
        for i in 0..64 {
            let msg = format!("raw-{i}");
            let raw = curve.hash_to_g1_raw(b"h2c-test", msg.as_bytes());
            assert!(curve.is_on_curve(&raw) && !raw.is_infinity());
            assert_eq!(
                curve.g1_mul_uint(&raw, curve.cofactor()),
                curve.hash_to_g1(b"h2c-test", msg.as_bytes()),
                "message {msg}"
            );
        }
        let curve = mid96();
        for i in 0..4 {
            let msg = format!("raw-{i}");
            let raw = curve.hash_to_g1_raw(b"h2c-test", msg.as_bytes());
            assert_eq!(
                curve.g1_mul_uint(&raw, curve.cofactor()),
                curve.hash_to_g1(b"h2c-test", msg.as_bytes()),
                "mid96 message {msg}"
            );
        }
    }

    #[test]
    fn jacobi_pretest_rejects_exactly_the_sqrt_failures() {
        // The pre-test may only skip candidates whose sqrt would fail.
        fn check<const L: usize>(curve: &crate::Curve<L>) {
            let ctx = curve.fp();
            let mut seen = [0usize; 2];
            for i in 0u64..64 {
                let a = ctx.from_be_bytes_mod(&tre_hashes::xof::<tre_hashes::Sha256>(
                    b"jacobi-pretest",
                    &i.to_be_bytes(),
                    tre_bigint::Uint::<L>::BYTES + 16,
                ));
                let symbol = tre_bigint::prime::jacobi(&ctx.to_uint(&a), ctx.modulus());
                assert_eq!(symbol == -1, a.sqrt(ctx).is_none(), "{} #{i}", curve.name());
                seen[(symbol == 1) as usize] += 1;
            }
            assert!(seen[0] > 0 && seen[1] > 0, "both residues and non-residues");
        }
        check(toy64());
        check(mid96());
    }

    #[test]
    fn cofactor_mod_q_acts_like_the_cofactor_on_the_subgroup() {
        let curve = toy64();
        let g = curve.generator();
        assert!(!curve.cofactor_mod_q().is_zero());
        assert_eq!(
            curve.g1_mul(&g, curve.cofactor_mod_q()),
            curve.g1_mul_uint(&g, curve.cofactor())
        );
    }
}
