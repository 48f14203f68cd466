//! Fault-list pins for every fault regime.
//!
//! Fault sets are a pure function of `(regime, mesh, count, seed,
//! protected)`, and every published table depends on the exact draw
//! order. For each regime × {2-D, 3-D} × {mesh, torus where the regime
//! allows one} this pins the injected `mesh.faults()` — order included —
//! as a 64-bit FNV-1a digest. The scheduled regimes (sweeping plane,
//! transient) also pin their churn schedule: its initial faults and its
//! first three `step`s.
//!
//! On a mismatch the test prints the whole table as it now stands, so an
//! intended change (and only an intended one) can be pasted back in.

use fault_model::{BorderPolicy, FaultRegime, ModelSpace};
use mesh_topo::coord::{c2, c3};
use mesh_topo::{Mesh, Mesh2D, Mesh3D, Space};

const B: BorderPolicy = BorderPolicy::BorderSafe;
const SEED: u64 = 0x005e_ed0f_fa17;
const FLIPS: usize = 3;

/// One line per case: `case inject-digest schedule-digest` (hex; the
/// schedule digest is 0 for regimes without a schedule).
const PINS: &str = "\
uniform/2d/mesh        33a3e1e44aba244b 0
clustered/2d/mesh      f6aa99c5cd1ced6b 0
front/2d/mesh          a38cd2aba9f3d98e 0
plane-axis0/2d/mesh    f8c21ecdd469de2c 73291a02e8f0f560
plane-axis1/2d/mesh    47eee64ba325044a b44c0de066ed08e9
transient/2d/mesh      4420c6fe1bffa7c8 d854cec403365e64
adversarial/2d/mesh    a04a5ffc00bea88f 0
uniform/3d/mesh        7801e81775f9c2d1 0
clustered/3d/mesh      4bb7f5413c1d45d6 0
front/3d/mesh          a160d47547c1fa52 0
plane-axis0/3d/mesh    827e33bb93c0e051 816eff0993d45174
plane-axis1/3d/mesh    0e8b4fcbd6e2a8f5 5b2d75dda57ab1b7
plane-axis2/3d/mesh    d362456bad1581d3 74c5f4a4984a6855
transient/3d/mesh      824edb50f9899e49 954c118a3e148e
adversarial/3d/mesh    17f5069048bc3ff1 0
uniform/2d/torus       33a3e1e44aba244b 0
clustered/2d/torus     bd85d4349a8cb286 0
front/2d/torus         2480f57542691420 0
plane-axis0/2d/torus   f8c21ecdd469de2c 73291a02e8f0f560
plane-axis1/2d/torus   47eee64ba325044a b44c0de066ed08e9
transient/2d/torus     4420c6fe1bffa7c8 d854cec403365e64
uniform/3d/torus       7801e81775f9c2d1 0
clustered/3d/torus     85928ef25c53e3f5 0
front/3d/torus         d48f59b9a42f4b51 0
plane-axis0/3d/torus   827e33bb93c0e051 816eff0993d45174
plane-axis1/3d/torus   0e8b4fcbd6e2a8f5 5b2d75dda57ab1b7
plane-axis2/3d/torus   d362456bad1581d3 74c5f4a4984a6855
transient/3d/torus     824edb50f9899e49 954c118a3e148e
";

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, v: i64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn coords(&mut self, cs: &[[i32; 3]]) {
        self.word(cs.len() as i64);
        for c in cs {
            for &v in c {
                self.word(i64::from(v));
            }
        }
    }
}

fn flat<S: Space>(cs: &[S::Coord]) -> Vec<[i32; 3]> {
    cs.iter().map(|&c| S::xyz(c)).collect()
}

/// The digests of one case: the injected fault list, and the schedule's
/// initial faults plus its first three steps (0 without a schedule).
fn digests<S: ModelSpace>(
    regime: FaultRegime,
    clean: Mesh<S>,
    count: usize,
    protected: &[S::Coord],
) -> (u64, u64) {
    let mut mesh = clean.clone();
    let n = regime.inject(&mut mesh, count, SEED, protected, B);
    assert_eq!(n, mesh.fault_count());
    let mut inject = Fnv::new();
    inject.coords(&flat::<S>(mesh.faults()));
    let Some(mut schedule) = regime.schedule(&clean, count, SEED, protected) else {
        return (inject.0, 0);
    };
    let mut sched = Fnv::new();
    sched.coords(&flat::<S>(&schedule.initial_faults()));
    for _ in 0..3 {
        let (injected, healed) = schedule.step(FLIPS);
        sched.coords(&flat::<S>(&injected));
        sched.coords(&flat::<S>(&healed));
    }
    (inject.0, sched.0)
}

fn regimes(dims: usize) -> Vec<FaultRegime> {
    let mut out = vec![
        FaultRegime::Uniform,
        FaultRegime::Clustered { clusters: 3 },
        FaultRegime::CorrelatedFront { fronts: 2 },
    ];
    out.extend((0..dims).map(|axis| FaultRegime::SweepingPlane { axis }));
    out.push(FaultRegime::TransientSchedule {
        period: 4,
        duty: 0.5,
    });
    out.push(FaultRegime::AdversarialBoundary { restarts: 3 });
    out
}

fn label(regime: &FaultRegime, dims: usize, torus: bool) -> String {
    let shape = if torus { "torus" } else { "mesh" };
    let variant = match regime {
        FaultRegime::SweepingPlane { axis } => format!("-axis{axis}"),
        _ => String::new(),
    };
    format!("{}{variant}/{dims}d/{shape}", regime.name())
}

fn observe() -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    for torus in [false, true] {
        let (mesh2, mesh3) = if torus {
            (Mesh2D::torus(12, 10), Mesh3D::torus(6, 5, 4))
        } else {
            (Mesh2D::new(12, 10), Mesh3D::new(6, 5, 4))
        };
        for dims in [2, 3] {
            for regime in regimes(dims) {
                if torus && matches!(regime, FaultRegime::AdversarialBoundary { .. }) {
                    continue;
                }
                let (inject, schedule) = if dims == 2 {
                    digests(regime, mesh2.clone(), 14, &[c2(1, 2), c2(9, 8)])
                } else {
                    digests(regime, mesh3.clone(), 16, &[c3(1, 1, 0), c3(4, 4, 3)])
                };
                out.push((label(&regime, dims, torus), inject, schedule));
            }
        }
    }
    out
}

#[test]
fn injected_fault_lists_match_their_pins() {
    let got: String = observe()
        .iter()
        .map(|(case, inject, schedule)| format!("{case:<22} {inject:016x} {schedule:x}\n"))
        .collect();
    assert!(
        got == PINS,
        "regime fault lists drifted from their pins; now:\n{got}"
    );
}

#[test]
fn scheduled_regimes_have_schedules() {
    for (case, _, schedule) in observe() {
        let scheduled = case.starts_with("plane") || case.starts_with("transient");
        assert_eq!(schedule != 0, scheduled, "{case}");
    }
}
