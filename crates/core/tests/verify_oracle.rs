//! The prepared verification path (cofactor folded into the server key,
//! batches combined by multi-scalar multiplication) against the
//! unmodified oracle [`KeyUpdate::verify`], which hashes with cofactor
//! clearing and evaluates two generic pairings per update.
//!
//! Every case builds a batch of updates, some honest and some faulty,
//! and requires: `verify_prepared` agrees with the oracle per update,
//! `batch_verify_prepared` accepts iff the oracle accepts every update,
//! and `batch_verify_isolate_prepared` names exactly the indices the
//! oracle rejects.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tre_core::{KeyUpdate, ReleaseTag, ServerKeyPair};
use tre_pairing::{mid96, toy64, Curve, G1Affine};

/// How one batch slot is filled.
#[derive(Clone, Copy, Debug)]
enum Slot {
    Honest,
    /// A random subgroup point as σ.
    Forged,
    /// A valid σ, but for a different tag.
    WrongTag,
    /// σ = ∞.
    Infinity,
    /// σ = the 2-torsion point `(0,0)`.
    TwoTorsion,
    /// The honest σ plus `(0,0)`, assembled with `from_parts`: the oracle
    /// accepts it, because `ê(G, ·)` kills the 2-torsion component.
    HonestPlusTwoTorsion,
    /// Two updates for one tag, `σ + D` and `σ − D`: the pair sums to
    /// twice the honest σ, so only unequal batch exponents expose it.
    Equivocating,
    /// The honest update next to a forged one for the same tag.
    HonestThenForged,
}

const SLOTS: [Slot; 8] = [
    Slot::Honest,
    Slot::Forged,
    Slot::WrongTag,
    Slot::Infinity,
    Slot::TwoTorsion,
    Slot::HonestPlusTwoTorsion,
    Slot::Equivocating,
    Slot::HonestThenForged,
];

/// The order-2 point `(0,0)`: x = 0 has y = 0 on `y² = x³ + x`.
fn two_torsion<const L: usize>(curve: &Curve<L>) -> G1Affine<L> {
    let mut bytes = vec![0u8; curve.point_len()];
    bytes[0] = 2;
    let t = curve.g1_from_bytes(&bytes).expect("(0,0) is on the curve");
    assert!(curve.g1_double(&t).is_infinity());
    t
}

fn build_batch<const L: usize>(
    curve: &Curve<L>,
    server: &ServerKeyPair<L>,
    slots: &[Slot],
    rng: &mut StdRng,
) -> Vec<KeyUpdate<L>> {
    let t = two_torsion(curve);
    let random_point =
        |rng: &mut StdRng| curve.g1_mul(server.public().g(), &curve.random_scalar(rng));
    let mut out = Vec::new();
    for (i, slot) in slots.iter().enumerate() {
        let tag = ReleaseTag::time(format!("oracle/{i}"));
        let honest = server.issue_update(curve, &tag);
        let with_sig = |sig| KeyUpdate::from_parts(tag.clone(), sig);
        match slot {
            Slot::Honest => out.push(honest),
            Slot::Forged => out.push(with_sig(random_point(rng))),
            Slot::WrongTag => {
                let other = server.issue_update(curve, &ReleaseTag::time(format!("other/{i}")));
                out.push(with_sig(*other.sig()));
            }
            Slot::Infinity => out.push(with_sig(G1Affine::infinity(curve.fp()))),
            Slot::TwoTorsion => out.push(with_sig(t)),
            Slot::HonestPlusTwoTorsion => out.push(with_sig(curve.g1_add(honest.sig(), &t))),
            Slot::Equivocating => {
                let d = random_point(rng);
                out.push(with_sig(curve.g1_add(honest.sig(), &d)));
                out.push(with_sig(curve.g1_add(honest.sig(), &curve.g1_neg(&d))));
            }
            Slot::HonestThenForged => {
                out.push(honest);
                out.push(with_sig(random_point(rng)));
            }
        }
    }
    out
}

/// Checks the three prepared entry points against the oracle on one
/// batch; returns the oracle's failing indices.
fn check_against_oracle<const L: usize>(
    curve: &Curve<L>,
    server: &ServerKeyPair<L>,
    updates: &[KeyUpdate<L>],
) -> Vec<usize> {
    let pk = server.public();
    let prepared = pk.prepare(curve);
    let oracle: Vec<bool> = updates.iter().map(|u| u.verify(curve, pk)).collect();
    for (i, (u, &ok)) in updates.iter().zip(&oracle).enumerate() {
        assert_eq!(
            u.verify_prepared(curve, &prepared),
            ok,
            "verify_prepared at {i}"
        );
    }
    let bad: Vec<usize> = (0..updates.len()).filter(|&i| !oracle[i]).collect();
    for threads in [1, 2] {
        assert_eq!(
            KeyUpdate::batch_verify_prepared(curve, &prepared, updates, threads),
            bad.is_empty(),
            "batch_verify_prepared ({threads} threads)"
        );
        let expected = if bad.is_empty() {
            Ok(())
        } else {
            Err(bad.clone())
        };
        assert_eq!(
            KeyUpdate::batch_verify_isolate_prepared(curve, &prepared, updates, threads),
            expected,
            "batch_verify_isolate_prepared ({threads} threads)"
        );
    }
    bad
}

fn server_from_seed<const L: usize>(curve: &Curve<L>, seed: u64) -> ServerKeyPair<L> {
    ServerKeyPair::generate(curve, &mut StdRng::seed_from_u64(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prepared_paths_match_oracle_toy64(
        seed in any::<u64>(),
        picks in proptest::collection::vec(0usize..SLOTS.len(), 1..7),
    ) {
        let curve = toy64();
        let server = server_from_seed(curve, seed);
        let slots: Vec<Slot> = picks.iter().map(|&k| SLOTS[k]).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let updates = build_batch(curve, &server, &slots, &mut rng);
        check_against_oracle(curve, &server, &updates);
    }
}

#[test]
fn every_fault_kind_in_one_toy64_batch() {
    let curve = toy64();
    let server = server_from_seed(curve, 7);
    let updates = build_batch(curve, &server, &SLOTS, &mut StdRng::seed_from_u64(8));
    // Slots expand to: honest 0, forged 1, wrong tag 2, ∞ 3, (0,0) 4,
    // honest+(0,0) 5, equivocating pair 6 and 7, honest 8 + forged 9.
    assert_eq!(
        check_against_oracle(curve, &server, &updates),
        vec![1, 2, 3, 4, 6, 7, 9]
    );
}

#[test]
fn every_fault_kind_in_one_mid96_batch() {
    let curve = mid96();
    let server = server_from_seed(curve, 11);
    let updates = build_batch(curve, &server, &SLOTS, &mut StdRng::seed_from_u64(12));
    assert_eq!(
        check_against_oracle(curve, &server, &updates),
        vec![1, 2, 3, 4, 6, 7, 9]
    );
}

#[test]
fn honest_mid96_batches_accept() {
    let curve = mid96();
    let server = server_from_seed(curve, 13);
    let mut rng = StdRng::seed_from_u64(14);
    for n in [1usize, 2, 5] {
        let updates = build_batch(curve, &server, &vec![Slot::Honest; n], &mut rng);
        assert!(check_against_oracle(curve, &server, &updates).is_empty());
    }
}
