//! Shard snapshots: the serialized fault `NodeSet` plus the generation
//! counter it reflects.
//!
//! A snapshot is everything a shard needs to rebuild its
//! `IncrementalModels` without replaying history: the mesh geometry is
//! already in the [`ShardSpec`](crate::shard::ShardSpec) (and is written
//! into the snapshot only to cross-check it), the fault configuration is
//! the `NodeSet`'s backing words verbatim, and every derived model
//! (labellings, components, MCCs) is a pure function of those two — so
//! "fault words + generation" *is* the state.
//!
//! # Format
//!
//! ```text
//! magic "MCCSNAP1" · dim u8 · wrap u8 · border u8 · pad u8
//! extents 3×i32 LE · gen u64 LE · nbits u64 LE · nwords u32 LE
//! words nwords×u64 LE · check u64 LE (FNV-1a over everything before it)
//! ```
//!
//! # Atomicity
//!
//! [`write()`] streams to `snapshot.tmp` and renames it over `snapshot.bin` —
//! the POSIX-atomic publish. A crash before the rename leaves a stale temp
//! file that recovery deletes; a crash after the rename but before the WAL
//! truncation leaves WAL records the snapshot already covers, which recovery
//! skips by sequence number.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::Path;

use fault_model::BorderPolicy;

use crate::crash::{CrashPoint, CrashSite};
use crate::error::ServiceError;
use crate::wal::SyncPolicy;
use crate::wire::{fnv1a64, put_i32, put_u32, put_u64, Reader};

const MAGIC: &[u8; 8] = b"MCCSNAP1";

/// Upper bound on the fault-set word count — a structural sanity check.
const MAX_WORDS: u32 = 1 << 26;

/// A decoded snapshot, not yet checked against any shard spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Mesh dimensionality (2 or 3).
    pub dim: u8,
    /// True for a torus.
    pub wrap: bool,
    /// The border policy the shard labels with.
    pub border: BorderPolicy,
    /// Extents (`[width, height, 0]` in 2-D, `[nx, ny, nz]` in 3-D).
    pub extents: [i32; 3],
    /// The churn generation this fault configuration reflects.
    pub gen: u64,
    /// Node-space size in bits.
    pub nbits: u64,
    /// The fault set's backing words.
    pub words: Vec<u64>,
}

fn border_tag(b: BorderPolicy) -> u8 {
    match b {
        BorderPolicy::BorderSafe => 0,
        BorderPolicy::BorderBlocked => 1,
    }
}

fn border_from_tag(t: u8) -> Option<BorderPolicy> {
    match t {
        0 => Some(BorderPolicy::BorderSafe),
        1 => Some(BorderPolicy::BorderBlocked),
        _ => None,
    }
}

/// Encode a snapshot to its on-disk byte form.
pub fn encode(snap: &Snapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(48 + snap.words.len() * 8);
    out.extend_from_slice(MAGIC);
    out.push(snap.dim);
    out.push(u8::from(snap.wrap));
    out.push(border_tag(snap.border));
    out.push(0);
    for e in snap.extents {
        put_i32(&mut out, e);
    }
    put_u64(&mut out, snap.gen);
    put_u64(&mut out, snap.nbits);
    put_u32(&mut out, snap.words.len() as u32);
    for &w in &snap.words {
        put_u64(&mut out, w);
    }
    let check = fnv1a64(&out);
    put_u64(&mut out, check);
    out
}

/// Decode an on-disk snapshot, verifying structure and checksum.
pub fn decode(buf: &[u8]) -> Result<Snapshot, String> {
    if buf.len() < 8 + MAGIC.len() {
        return Err("snapshot file too short".into());
    }
    let (body, check_bytes) = buf.split_at(buf.len() - 8);
    let check = u64::from_le_bytes(check_bytes.try_into().expect("8 bytes"));
    if fnv1a64(body) != check {
        return Err("snapshot checksum mismatch".into());
    }
    let mut r = Reader::new(body);
    if r.take(8) != Some(MAGIC.as_slice()) {
        return Err("bad snapshot magic".into());
    }
    let head = r.take(4).ok_or("snapshot header truncated")?;
    let (dim, wrap_tag, border_tag) = (head[0], head[1], head[2]);
    if dim != 2 && dim != 3 {
        return Err(format!("bad snapshot dimension {dim}"));
    }
    let border = border_from_tag(border_tag).ok_or("bad snapshot border tag")?;
    let mut extents = [0i32; 3];
    for e in &mut extents {
        *e = r.take_i32().ok_or("snapshot extents truncated")?;
    }
    let gen = r.take_u64().ok_or("snapshot generation truncated")?;
    let nbits = r.take_u64().ok_or("snapshot nbits truncated")?;
    let nwords = r.take_u32().ok_or("snapshot word count truncated")?;
    if nwords > MAX_WORDS {
        return Err(format!("implausible snapshot word count {nwords}"));
    }
    let mut words = Vec::with_capacity(nwords as usize);
    for _ in 0..nwords {
        words.push(r.take_u64().ok_or("snapshot words truncated")?);
    }
    if r.remaining() != 0 {
        return Err(format!("{} trailing snapshot bytes", r.remaining()));
    }
    Ok(Snapshot {
        dim,
        wrap: wrap_tag != 0,
        border,
        extents,
        gen,
        nbits,
        words,
    })
}

/// Load the snapshot at `path` if one exists.
///
/// A missing file means "no snapshot yet" (`Ok(None)`); a present but
/// damaged file is real corruption — snapshot publication is atomic, so
/// unlike a WAL tail there is no benign way for it to be half-written.
pub fn load(path: &Path) -> Result<Option<Snapshot>, ServiceError> {
    let buf = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(ServiceError::io(path, e)),
    };
    decode(&buf)
        .map(Some)
        .map_err(|detail| ServiceError::Corrupt {
            path: path.to_path_buf(),
            detail,
        })
}

/// Atomically publish `snap` at `path` via `tmp`, passing through the two
/// snapshot crash sites.
pub fn write(
    path: &Path,
    tmp: &Path,
    snap: &Snapshot,
    sync: SyncPolicy,
    crash: &CrashPoint,
) -> Result<(), ServiceError> {
    let bytes = encode(snap);
    {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(tmp)
            .map_err(|e| ServiceError::io(tmp, e))?;
        file.write_all(&bytes)
            .map_err(|e| ServiceError::io(tmp, e))?;
        if sync == SyncPolicy::Always {
            file.sync_data().map_err(|e| ServiceError::io(tmp, e))?;
        }
    }
    crash
        .hit(CrashSite::SnapshotTmp)
        .map_err(ServiceError::Injected)?;
    fs::rename(tmp, path).map_err(|e| ServiceError::io(tmp, e))?;
    crash
        .hit(CrashSite::SnapshotRename)
        .map_err(ServiceError::Injected)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            dim: 2,
            wrap: false,
            border: BorderPolicy::BorderSafe,
            extents: [12, 8, 0],
            gen: 42,
            nbits: 96,
            words: vec![0b1011, u64::MAX],
        }
    }

    #[test]
    fn round_trip() {
        let s = sample();
        assert_eq!(decode(&encode(&s)), Ok(s));
    }

    #[test]
    fn any_flip_is_caught() {
        let bytes = encode(&sample());
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x10;
            assert!(decode(&b).is_err(), "flip at byte {i} decoded");
        }
    }
}
