//! Property battery for the fault-regime layer (see DESIGN.md §15).
//!
//! The contract is **sampling determinism**: a regime's fault set is a
//! pure function of `(mesh, count, seed, protected)`; resampling is
//! bit-identical, and pinned digests for fixed seeds force the CI
//! thread-matrix legs (`MCC_THREADS=1` vs `=0`) to produce byte-identical
//! populations.

use fault_model::{BorderPolicy, FaultRegime};
use mesh_topo::{Coord, Mesh, Mesh2D, Mesh3D};
use proptest::prelude::*;

const B: BorderPolicy = BorderPolicy::BorderSafe;

/// Arbitrary regime with knobs inside their validated ranges, without
/// the adversarial search, whose annealing loop is too slow for a
/// per-case property run (its determinism is pinned by
/// `fault-model/tests/regime_adversarial.rs`).
fn sampling_regime_strategy() -> impl Strategy<Value = FaultRegime> {
    (0usize..5, 1usize..8, 2usize..16, 1u32..100).prop_map(|(kind, knob, period, pct)| match kind {
        0 => FaultRegime::Uniform,
        1 => FaultRegime::Clustered { clusters: knob },
        2 => FaultRegime::CorrelatedFront {
            fronts: (knob % 5) + 1,
        },
        3 => FaultRegime::SweepingPlane { axis: knob % 2 },
        _ => FaultRegime::TransientSchedule {
            period,
            duty: f64::from(pct) / 100.0,
        },
    })
}

/// FNV-1a over the fault list in injection order: any change to
/// membership *or* placement changes the digest.
fn digest<C: Coord>(mesh: &Mesh<C>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in mesh.faults() {
        for v in &c.xyz()[..C::DIMS] {
            h ^= *v as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Inject `regime` into two fresh copies of `clean`; returns both
/// injected counts and whether the fault lists agree.
fn resample<C: Coord>(
    regime: FaultRegime,
    clean: &Mesh<C>,
    count: usize,
    seed: u64,
) -> (usize, usize, bool) {
    let (mut a, mut b) = (clean.clone(), clean.clone());
    let na = regime.inject(&mut a, count, seed, &[], B);
    let nb = regime.inject(&mut b, count, seed, &[], B);
    (na, nb, a.faults() == b.faults())
}

proptest! {
    /// Regime sampling is a pure function of its inputs: resampling on a
    /// fresh mesh reproduces the fault set bit-for-bit, in both
    /// dimensions, and never exceeds the requested count.
    #[test]
    fn sampling_is_deterministic(
        regime in sampling_regime_strategy(),
        seed in any::<u64>(),
        count in 1usize..24,
    ) {
        for (na, nb, same) in [
            resample(regime, &Mesh2D::new(12, 12), count, seed),
            resample(regime, &Mesh3D::new(6, 6, 6), count, seed),
        ] {
            prop_assert_eq!(na, nb);
            prop_assert!(same);
            prop_assert!(na <= count);
        }
    }
}

/// Pinned digests: the exact fault populations for fixed seeds. Both CI
/// thread-matrix legs run this test, so a sampler whose output depended
/// on the thread budget (or drifted across a refactor) fails here by
/// regime name rather than as an opaque golden diff.
#[test]
fn fixed_seed_fault_sets_match_pinned_digests() {
    let regimes = [
        ("uniform", FaultRegime::Uniform),
        ("clustered", FaultRegime::Clustered { clusters: 3 }),
        ("front", FaultRegime::CorrelatedFront { fronts: 3 }),
        ("plane", FaultRegime::SweepingPlane { axis: 1 }),
        (
            "transient",
            FaultRegime::TransientSchedule {
                period: 4,
                duty: 0.5,
            },
        ),
    ];
    let expected_2d: [u64; 5] = [
        0x25da_b771_2df5_0bc3,
        0xe232_3c47_e733_22c0,
        0x881c_c2c1_d7a1_7b16,
        0xebcf_2eaf_5af0_1a05,
        0xf85f_07d3_35e6_b2ef,
    ];
    let expected_3d: [u64; 5] = [
        0x4406_fbba_6f13_b04c,
        0x3c8c_ad6c_f71f_c1bd,
        0xe01e_beed_1a7a_ac00,
        0x0d8f_f70a_946b_055d,
        0x8732_068b_2722_7c8e,
    ];
    for (i, (name, regime)) in regimes.iter().enumerate() {
        let mut mesh = Mesh2D::new(16, 16);
        regime.inject(&mut mesh, 16, 42, &[], B);
        let got = digest(&mesh);
        assert_eq!(
            got, expected_2d[i],
            "2-D {name} fault set drifted ({got:#x})"
        );
        let mut mesh = Mesh3D::kary(8);
        regime.inject(&mut mesh, 24, 42, &[], B);
        let got = digest(&mesh);
        assert_eq!(
            got, expected_3d[i],
            "3-D {name} fault set drifted ({got:#x})"
        );
    }
}
