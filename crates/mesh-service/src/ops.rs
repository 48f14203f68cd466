//! The one durable operation: a resolved churn batch.
//!
//! Only state-mutating requests reach the WAL, and after admission and
//! validation every one of them has been *resolved* to explicit coordinate
//! lists (seed-driven random churn is sampled by the shard before
//! journaling), so recovery is a pure function of the journal — the
//! determinism argument of the recovery path rests on this.

use mesh_topo::coord::{c2, c3, C2, C3};

use crate::wire::{put_i32, put_u32, Reader};

/// Upper bound on coordinates per list — a structural sanity check so a
/// corrupt length prefix cannot ask the decoder for gigabytes.
const MAX_COORDS: u32 = 1 << 20;

/// A validated, fully-resolved churn batch, ready to journal and apply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnRecord {
    /// A 2-D batch: inject `injected`, heal `healed`.
    D2 {
        /// Nodes to mark faulty.
        injected: Vec<C2>,
        /// Nodes to mark healthy again.
        healed: Vec<C2>,
    },
    /// A 3-D batch.
    D3 {
        /// Nodes to mark faulty.
        injected: Vec<C3>,
        /// Nodes to mark healthy again.
        healed: Vec<C3>,
    },
}

impl ChurnRecord {
    /// The batch's dimensionality (2 or 3).
    pub fn dim(&self) -> u8 {
        match self {
            ChurnRecord::D2 { .. } => 2,
            ChurnRecord::D3 { .. } => 3,
        }
    }

    /// Total coordinates in the batch.
    pub fn len(&self) -> usize {
        match self {
            ChurnRecord::D2 { injected, healed } => injected.len() + healed.len(),
            ChurnRecord::D3 { injected, healed } => injected.len() + healed.len(),
        }
    }

    /// True if the batch flips no node at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encode to the WAL payload form: a dimension tag, two counts, then
    /// the coordinate components as little-endian `i32`s.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.len() * 12);
        match self {
            ChurnRecord::D2 { injected, healed } => {
                out.push(2);
                put_u32(&mut out, injected.len() as u32);
                put_u32(&mut out, healed.len() as u32);
                for c in injected.iter().chain(healed) {
                    put_i32(&mut out, c.x);
                    put_i32(&mut out, c.y);
                }
            }
            ChurnRecord::D3 { injected, healed } => {
                out.push(3);
                put_u32(&mut out, injected.len() as u32);
                put_u32(&mut out, healed.len() as u32);
                for c in injected.iter().chain(healed) {
                    put_i32(&mut out, c.x);
                    put_i32(&mut out, c.y);
                    put_i32(&mut out, c.z);
                }
            }
        }
        out
    }

    /// Decode a payload produced by [`encode`](ChurnRecord::encode).
    ///
    /// Fails (with a human-readable reason) on a bad tag, an implausible
    /// count, a short buffer, or trailing bytes — a checksummed record that
    /// still fails here means the writer and reader disagree, which
    /// recovery reports as corruption rather than guessing.
    pub fn decode(payload: &[u8]) -> Result<ChurnRecord, String> {
        let mut r = Reader::new(payload);
        let tag = *r
            .take(1)
            .ok_or("empty churn payload")?
            .first()
            .expect("one byte");
        let n_inj = r.take_u32().ok_or("churn payload missing inject count")?;
        let n_heal = r.take_u32().ok_or("churn payload missing heal count")?;
        if n_inj > MAX_COORDS || n_heal > MAX_COORDS {
            return Err(format!("implausible churn counts {n_inj}/{n_heal}"));
        }
        let rec = match tag {
            2 => {
                let mut read2 = |n: u32, out: &mut Vec<C2>| -> Result<(), String> {
                    for _ in 0..n {
                        let x = r.take_i32().ok_or("short churn payload")?;
                        let y = r.take_i32().ok_or("short churn payload")?;
                        out.push(c2(x, y));
                    }
                    Ok(())
                };
                let mut injected = Vec::with_capacity(n_inj as usize);
                let mut healed = Vec::with_capacity(n_heal as usize);
                read2(n_inj, &mut injected)?;
                read2(n_heal, &mut healed)?;
                ChurnRecord::D2 { injected, healed }
            }
            3 => {
                let mut read3 = |n: u32, out: &mut Vec<C3>| -> Result<(), String> {
                    for _ in 0..n {
                        let x = r.take_i32().ok_or("short churn payload")?;
                        let y = r.take_i32().ok_or("short churn payload")?;
                        let z = r.take_i32().ok_or("short churn payload")?;
                        out.push(c3(x, y, z));
                    }
                    Ok(())
                };
                let mut injected = Vec::with_capacity(n_inj as usize);
                let mut healed = Vec::with_capacity(n_heal as usize);
                read3(n_inj, &mut injected)?;
                read3(n_heal, &mut healed)?;
                ChurnRecord::D3 { injected, healed }
            }
            t => return Err(format!("bad churn dimension tag {t}")),
        };
        if r.remaining() != 0 {
            return Err(format!(
                "{} trailing bytes after churn payload",
                r.remaining()
            ));
        }
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_2d_and_3d() {
        let a = ChurnRecord::D2 {
            injected: vec![c2(0, 0), c2(5, 7)],
            healed: vec![c2(-1, 3)],
        };
        assert_eq!(ChurnRecord::decode(&a.encode()), Ok(a.clone()));
        let b = ChurnRecord::D3 {
            injected: vec![],
            healed: vec![c3(1, 2, 3)],
        };
        assert_eq!(ChurnRecord::decode(&b.encode()), Ok(b));
    }

    #[test]
    fn decode_rejects_structural_damage() {
        let good = ChurnRecord::D2 {
            injected: vec![c2(1, 1)],
            healed: vec![],
        }
        .encode();
        assert!(ChurnRecord::decode(&[]).is_err());
        assert!(ChurnRecord::decode(&good[..good.len() - 1]).is_err());
        let mut tagged = good.clone();
        tagged[0] = 7;
        assert!(ChurnRecord::decode(&tagged).is_err());
        let mut trailing = good;
        trailing.push(0);
        assert!(ChurnRecord::decode(&trailing).is_err());
    }
}
