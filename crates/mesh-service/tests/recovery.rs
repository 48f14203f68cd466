//! Recovery's error paths: every way a checksum-valid journal can fail to
//! recover, pinned by the exact `Corrupt` path and detail.
//!
//! Each journal is written record by record through [`Wal::append`], so
//! every record passes its checksum and reaches the recovery loop. The
//! k-th record then breaks one rule: a churn batch that fails each
//! [`ChurnError`] check, a batch of the wrong dimension, a payload
//! [`ChurnRecord::decode`] rejects, or a sequence gap. Records at or below
//! the snapshot generation are skipped unread.
//!
//! The fold ≡ replay battery then builds random journals over 2-D and 3-D
//! meshes and tori — a snapshot or none, records the snapshot covers,
//! valid churn, sometimes one bad record of any of the kinds above at a
//! random position, sometimes a torn tail — and requires `ShardCore::open`
//! to reach the same [`StateDigest`] or the same `Corrupt` error as the
//! per-record `IncrementalModels::try_apply` replay in `reference/replay.rs`.
//! `cargo test` runs a slice; the full battery is the ignored test:
//!
//! ```text
//! cargo test --release -p mesh-service --test recovery -- --include-ignored
//! ```

#[path = "reference/replay.rs"]
mod reference;

use std::io::Write;
use std::path::Path;

use fault_model::ChurnError;
use mesh_service::ops::ChurnRecord;
use mesh_service::prelude::*;
use mesh_service::shard::{ShardCore, SNAP_FILE, SNAP_TMP, WAL_FILE};
use mesh_service::snapshot::{self, Snapshot};
use mesh_service::wal::{encode_record, Wal};
use mesh_topo::coord::{c2, c3, C2};
use mesh_topo::{Coord, NodeSet, NodeSpace, NodeSpace2, NodeSpace3, Parallelism};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn spec() -> ShardSpec {
    ShardSpec::new(
        Geometry::M2 {
            width: 6,
            height: 6,
            wrap: false,
        },
        0,
    )
}

fn d2(injected: &[C2], healed: &[C2]) -> Vec<u8> {
    ChurnRecord::D2 {
        injected: injected.to_vec(),
        healed: healed.to_vec(),
    }
    .encode()
}

/// Append `records` (sequence number, payload) to the WAL under `dir`.
fn journal(dir: &Path, records: &[(u64, Vec<u8>)]) {
    let mut wal = Wal::open_at(&dir.join(WAL_FILE), 0, SyncPolicy::Never).expect("open wal");
    for (seq, payload) in records {
        wal.append(*seq, payload, &CrashPoint::none())
            .expect("append");
    }
}

fn open(dir: &Path) -> Result<ShardCore, ServiceError> {
    ShardCore::open(dir, spec(), Parallelism::SEQ, CrashPoint::none())
}

/// Two good records that leave (1,1) and (2,2) faulty, then `bad` as
/// record 3: recovery must fail with `detail` on the WAL.
fn assert_third_record_fails(tag: &str, bad: Vec<u8>, detail: &str) {
    let dir = TempDir::new(tag);
    journal(
        dir.path(),
        &[
            (1, d2(&[c2(1, 1), c2(3, 3)], &[])),
            (2, d2(&[c2(2, 2)], &[c2(3, 3)])),
            (3, bad),
            (4, d2(&[c2(4, 4)], &[])),
        ],
    );
    assert_eq!(
        open(dir.path()).map(|_| ()),
        Err(ServiceError::Corrupt {
            path: dir.join(WAL_FILE),
            detail: detail.to_string(),
        }),
        "{tag}"
    );
}

#[test]
fn a_record_failing_each_churn_check_is_corrupt() {
    let cases: [(&str, Vec<u8>, &str); 6] = [
        (
            "out-of-bounds",
            d2(&[c2(0, 0)], &[c2(6, 1)]),
            "journaled record 3 does not apply: churn node out of bounds: (6,1)",
        ),
        (
            "duplicate-injected",
            d2(&[c2(0, 0), c2(5, 5), c2(0, 0)], &[]),
            "journaled record 3 does not apply: duplicate injected node (0,0)",
        ),
        (
            "duplicate-healed",
            d2(&[], &[c2(1, 1), c2(2, 2), c2(1, 1)]),
            "journaled record 3 does not apply: duplicate healed node (1,1)",
        ),
        (
            "overlap",
            d2(&[c2(4, 4)], &[c2(1, 1), c2(4, 4)]),
            "journaled record 3 does not apply: inject/heal sets overlap at (4,4)",
        ),
        (
            "already-faulty",
            d2(&[c2(0, 5), c2(2, 2)], &[]),
            "journaled record 3 does not apply: injected node already faulty: (2,2)",
        ),
        (
            "not-faulty",
            d2(&[], &[c2(1, 1), c2(3, 3)]),
            "journaled record 3 does not apply: healed node not faulty: (3,3)",
        ),
    ];
    for (tag, bad, detail) in cases {
        assert_third_record_fails(tag, bad, detail);
    }
}

#[test]
fn a_record_of_the_wrong_dimension_is_corrupt() {
    let bad = ChurnRecord::D3 {
        injected: vec![c3(0, 0, 0)],
        healed: vec![],
    }
    .encode();
    assert_third_record_fails(
        "wrong-dim",
        bad,
        "journaled record 3 does not apply: churn batch is 3-D but shard is 2-D",
    );
}

#[test]
fn an_undecodable_payload_is_corrupt() {
    // A bad dimension tag, then two zero counts: the checksum holds, the
    // payload does not decode.
    let mut bad = vec![7];
    bad.extend_from_slice(&[0; 8]);
    assert_third_record_fails("undecodable", bad, "bad churn dimension tag 7");
    let mut trailing = d2(&[c2(0, 0)], &[]);
    trailing.push(0);
    assert_third_record_fails("trailing", trailing, "1 trailing bytes after churn payload");
}

#[test]
fn a_sequence_gap_is_corrupt() {
    let dir = TempDir::new("gap");
    journal(
        dir.path(),
        &[
            (1, d2(&[c2(1, 1)], &[])),
            (2, d2(&[c2(2, 2)], &[])),
            (4, d2(&[c2(3, 3)], &[])),
        ],
    );
    assert_eq!(
        open(dir.path()).map(|_| ()),
        Err(ServiceError::Corrupt {
            path: dir.join(WAL_FILE),
            detail: "sequence gap: have generation 2, next record 4".into(),
        })
    );
}

#[test]
fn records_the_snapshot_covers_are_skipped_unread() {
    let dir = TempDir::new("covered");
    let mut core = open(dir.path()).expect("fresh shard");
    for (i, c) in [c2(1, 1), c2(2, 2), c2(3, 3)].into_iter().enumerate() {
        let r = core.handle(&Request::Churn2 {
            injected: vec![c],
            healed: vec![],
        });
        assert_eq!(r, Ok(Response::Churn { gen: i as u64 + 1 }));
    }
    assert_eq!(core.snapshot_now(), Ok(3));
    let r = core.handle(&Request::Churn2 {
        injected: vec![c2(4, 4)],
        healed: vec![c2(1, 1)],
    });
    assert_eq!(r, Ok(Response::Churn { gen: 4 }));
    let want_digest = core.digest();
    drop(core);

    // The WAL now holds record 4 alone. Rewrite it with records the
    // snapshot covers around it: none of them would apply, one does not
    // even decode, and recovery must read past all of them.
    std::fs::remove_file(dir.join(WAL_FILE)).expect("remove wal");
    let undecodable = vec![9];
    journal(
        dir.path(),
        &[
            (2, d2(&[c2(2, 2)], &[])),
            (3, undecodable.clone()),
            (4, d2(&[c2(4, 4)], &[c2(1, 1)])),
            (1, undecodable),
            (3, d2(&[], &[c2(5, 5)])),
        ],
    );
    let mut core = open(dir.path()).expect("covered records are skipped");
    assert_eq!(core.gen(), 4);
    assert_eq!(core.digest(), want_digest);
    let r = core.handle(&Request::Churn2 {
        injected: vec![c2(5, 5)],
        healed: vec![],
    });
    assert_eq!(r, Ok(Response::Churn { gen: 5 }));
}

/// The kinds of bad record a battery journal may carry.
#[derive(Clone, Copy, Debug)]
enum Bad {
    /// A batch failing one `ChurnError` check (0–5, in variant order).
    Churn(u8),
    /// A batch of the other dimension.
    WrongDim,
    /// A payload `ChurnRecord::decode` rejects.
    Undecodable,
    /// A valid batch under a sequence number past the next.
    Gap,
    /// A valid batch repeating the last sequence number.
    Repeat,
}

/// Builds one random journal over a node space with coordinates `C`.
struct Journal<'a, C: Coord> {
    rng: &'a mut SmallRng,
    space: NodeSpace<C>,
    /// The faults the valid records so far leave.
    faults: NodeSet,
    record: fn(Vec<C>, Vec<C>) -> ChurnRecord,
    other_dim: ChurnRecord,
}

impl<C: Coord> Journal<'_, C> {
    fn node(&mut self, faulty: bool) -> Option<C> {
        let n = self.space.len();
        let have = self.faults.len();
        if (faulty && have == 0) || (!faulty && have == n) {
            return None;
        }
        loop {
            let i = self.rng.gen_range(0..n);
            if self.faults.contains(i) == faulty {
                return Some(self.space.coord(i));
            }
        }
    }

    /// Up to `k` distinct nodes of one state, not among `avoid`.
    fn nodes(&mut self, faulty: bool, k: usize, avoid: &[C]) -> Vec<C> {
        let mut out: Vec<C> = Vec::new();
        for _ in 0..k {
            if let Some(c) = self.node(faulty) {
                if !out.contains(&c) && !avoid.contains(&c) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// A valid batch, folded into `faults`.
    fn valid(&mut self) -> Vec<u8> {
        let k = self.rng.gen_range(0..4);
        let injected = self.nodes(false, k, &[]);
        let k = self.rng.gen_range(0..4);
        let healed = self.nodes(true, k, &[]);
        for c in &injected {
            self.faults.insert(self.space.index(*c));
        }
        for c in &healed {
            self.faults.remove(self.space.index(*c));
        }
        (self.record)(injected, healed).encode()
    }

    /// A batch failing check `which`, or a valid-looking one if the mesh
    /// cannot host that failure (no faults to heal twice, say).
    fn failing(&mut self, which: u8) -> Vec<u8> {
        let mut injected = self.nodes(false, 2, &[]);
        let mut healed = self.nodes(true, 2, &injected);
        match which {
            0 => {
                let ext = self.space.extents();
                let mut p = self.space.coord(0).xyz();
                let axis = self.rng.gen_range(0..C::DIMS);
                p[axis] = if self.rng.gen_bool(0.5) {
                    -1
                } else {
                    ext[axis] as i32
                };
                let at = self.rng.gen_range(0..=healed.len());
                healed.insert(at, C::from_xyz(p));
            }
            1 => injected.extend(injected.first().copied()),
            2 => healed.extend(healed.first().copied()),
            3 => healed.extend(injected.last().copied()),
            4 => {
                healed.clear();
                injected.extend(self.node(true));
            }
            _ => {
                injected.clear();
                healed.extend(self.node(false));
            }
        }
        (self.record)(injected, healed).encode()
    }

    /// Journal `records` valid records past a snapshot at `snap_gen` under
    /// `dir`, with records it covers, and maybe one bad record and a torn
    /// tail.
    fn write(&mut self, dir: &Path, snap_gen: u64, records: u64) {
        let mut wal = Wal::open_at(&dir.join(WAL_FILE), 0, SyncPolicy::Never).expect("open wal");
        let none = CrashPoint::none();
        for _ in 0..self.rng.gen_range(0..=snap_gen.min(3)) {
            let seq = self.rng.gen_range(1..=snap_gen);
            let which = self.rng.gen_range(0..6);
            let payload = self.failing(which);
            wal.append(seq, &payload, &none).expect("append");
        }
        let bad = self.rng.gen_bool(0.5).then(|| {
            let kind = match self.rng.gen_range(0..10) {
                k @ 0..=5 => Bad::Churn(k),
                6 => Bad::WrongDim,
                7 => Bad::Undecodable,
                8 => Bad::Gap,
                _ => Bad::Repeat,
            };
            (self.rng.gen_range(1..=records), kind)
        });
        for k in 1..=records {
            let seq = snap_gen + k;
            let (seq, payload) = match bad {
                Some((at, kind)) if at == k => match kind {
                    Bad::Churn(which) => (seq, self.failing(which)),
                    Bad::WrongDim => (seq, self.other_dim.encode()),
                    Bad::Undecodable => (seq, vec![self.rng.gen_range(4..=255)]),
                    Bad::Gap => (seq + 1, self.valid()),
                    Bad::Repeat => (seq - 1, self.valid()),
                },
                _ => (seq, self.valid()),
            };
            wal.append(seq, &payload, &none).expect("append");
            if self.rng.gen_range(0..20) == 0 && snap_gen > 0 {
                // A covered record between live ones is skipped too.
                let payload = self.failing(0);
                wal.append(self.rng.gen_range(1..=snap_gen), &payload, &none)
                    .expect("append");
            }
        }
        drop(wal);
        if self.rng.gen_bool(0.3) {
            let torn = encode_record(snap_gen + records + 1, &self.valid());
            let cut = self.rng.gen_range(1..torn.len());
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join(WAL_FILE))
                .expect("wal");
            f.write_all(&torn[..cut]).expect("torn tail");
        }
    }
}

/// One random journal: its spec, snapshot and WAL under `dir`.
fn random_journal(rng: &mut SmallRng, dir: &Path) -> ShardSpec {
    let wrap = rng.gen_bool(0.5);
    let lo = if wrap { 3 } else { 2 };
    let geom = if rng.gen_bool(0.5) {
        Geometry::M2 {
            width: rng.gen_range(lo..8),
            height: rng.gen_range(lo..8),
            wrap,
        }
    } else {
        Geometry::M3 {
            nx: rng.gen_range(lo..5),
            ny: rng.gen_range(lo..5),
            nz: rng.gen_range(lo..5),
            wrap,
        }
    };
    let spec = ShardSpec::new(geom, 0);
    let n = geom.node_count();
    let faults = NodeSet::from_indices(
        n,
        (0..rng.gen_range(0..n / 3 + 1)).map(|_| rng.gen_range(0..n)),
    );
    let snap_gen = if rng.gen_bool(0.7) {
        let gen = rng.gen_range(1..6);
        let snap = Snapshot {
            dim: geom.dim(),
            wrap,
            border: spec.border,
            extents: geom.extents(),
            gen,
            nbits: n as u64,
            words: faults.words().to_vec(),
        };
        snapshot::write(
            &dir.join(SNAP_FILE),
            &dir.join(SNAP_TMP),
            &snap,
            SyncPolicy::Never,
            &CrashPoint::none(),
        )
        .expect("snapshot");
        gen
    } else {
        0
    };
    let faults = if snap_gen > 0 {
        faults
    } else {
        NodeSet::new(n)
    };
    let records = rng.gen_range(1..24);
    let e = geom.extents();
    match geom {
        Geometry::M2 { .. } => Journal {
            rng,
            space: if wrap {
                NodeSpace2::torus(e[0], e[1])
            } else {
                NodeSpace2::new(e[0], e[1])
            },
            faults,
            record: |injected, healed| ChurnRecord::D2 { injected, healed },
            other_dim: ChurnRecord::D3 {
                injected: vec![c3(0, 0, 0)],
                healed: vec![],
            },
        }
        .write(dir, snap_gen, records),
        Geometry::M3 { .. } => Journal {
            rng,
            space: if wrap {
                NodeSpace3::torus(e[0], e[1], e[2])
            } else {
                NodeSpace3::new(e[0], e[1], e[2])
            },
            faults,
            record: |injected, healed| ChurnRecord::D3 { injected, healed },
            other_dim: ChurnRecord::D2 {
                injected: vec![],
                healed: vec![c2(0, 0)],
            },
        }
        .write(dir, snap_gen, records),
    }
    spec
}

/// Recover `journals` random journals both ways; returns how many
/// recovered and how many were corrupt.
fn fold_matches_replay(seed: u64, journals: usize) -> (usize, usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut ok, mut corrupt) = (0, 0);
    for j in 0..journals {
        let dir = TempDir::new("fold");
        let spec = random_journal(&mut rng, dir.path());
        // The replay only reads; the fold truncates a torn tail.
        let want = reference::recover(dir.path(), &spec);
        let got = ShardCore::open(dir.path(), spec, Parallelism::SEQ, CrashPoint::none())
            .map(|mut core| core.digest());
        assert_eq!(got, want, "journal {j} of seed {seed} ({spec:?})");
        match want {
            Ok(_) => ok += 1,
            Err(ServiceError::Corrupt { .. }) => corrupt += 1,
            Err(e) => panic!("journal {j}: unexpected {e}"),
        }
    }
    (ok, corrupt)
}

#[test]
fn fold_matches_replay_on_random_journals() {
    let (ok, corrupt) = fold_matches_replay(1, 150);
    assert!(
        ok >= 30 && corrupt >= 30,
        "{ok} recovered, {corrupt} corrupt"
    );
}

#[test]
#[ignore = "full battery; run in release with --include-ignored"]
fn fold_matches_replay_on_random_journals_full() {
    for seed in 2..6 {
        let (ok, corrupt) = fold_matches_replay(seed, 1000);
        assert!(
            ok >= 300 && corrupt >= 300,
            "{ok} recovered, {corrupt} corrupt"
        );
    }
}

/// Each failing batch the battery journals fails the check it names.
#[test]
fn the_failing_batches_fail_the_check_they_name() {
    let mut rng = SmallRng::seed_from_u64(9);
    let space = NodeSpace2::new(6, 6);
    let faults = NodeSet::from_indices(36, [3, 8, 20, 33]);
    let mut journal = Journal {
        rng: &mut rng,
        space,
        faults: faults.clone(),
        record: |injected, healed| ChurnRecord::D2 { injected, healed },
        other_dim: ChurnRecord::D3 {
            injected: vec![],
            healed: vec![],
        },
    };
    for which in 0..6u8 {
        for _ in 0..20 {
            let rec = ChurnRecord::decode(&journal.failing(which)).expect("decodes");
            let ChurnRecord::D2 { injected, healed } = rec else {
                unreachable!("a 2-D record")
            };
            let err = fault_model::CheckedBatch::new(space, &faults, &injected, &healed)
                .expect_err("a failing batch");
            let got = match err {
                ChurnError::OutOfBounds(_) => 0,
                ChurnError::DuplicateInjected(_) => 1,
                ChurnError::DuplicateHealed(_) => 2,
                ChurnError::Overlap(_) => 3,
                ChurnError::AlreadyFaulty(_) => 4,
                ChurnError::NotFaulty(_) => 5,
            };
            assert_eq!(got, which, "{injected:?} / {healed:?}");
        }
    }
}
