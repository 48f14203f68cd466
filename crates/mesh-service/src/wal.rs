//! The per-shard write-ahead log.
//!
//! # Record format
//!
//! ```text
//! [len: u32 LE] [seq: u64 LE] [payload: len bytes] [check: u64 LE]
//! ```
//!
//! `check` is FNV-1a over everything before it (length, sequence and
//! payload), so a flip of any single covered byte is caught (see
//! [`crate::wire`]) and a damaged length prefix cannot smuggle a phantom
//! record past the checksum: the checksum is read from wherever the
//! corrupted length points, and it would have to match a digest that covers
//! the corrupted length itself.
//!
//! # Torn tails
//!
//! The log is an append-only stream of records. A crash mid-append leaves a
//! torn suffix; [`RecordReader`] stops at the first record that is
//! incomplete or fails its checksum and reports the clean prefix length, and
//! [`Wal::open_at`] truncates the file back to that prefix. The reader
//! streams the log through a bounded buffer; [`decode_records`] is the
//! same decoder over an in-memory stream. Committed
//! records are never reinterpreted: decoding is sequential from offset 0,
//! so damage at byte `t` can only affect records at or after `t`.
//!
//! # Sync policy
//!
//! [`SyncPolicy::Always`] issues `sync_data` after every append (real
//! durability); [`SyncPolicy::Never`] is the fsync-free test mode — the
//! crash battery simulates process death, not power loss, so the page cache
//! survives and fsync would only slow the battery down.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::crash::{CrashPoint, CrashSite};
use crate::error::ServiceError;
use crate::wire::{fnv1a64, put_u32, put_u64, Reader};

/// Fixed overhead of one record: length + sequence + checksum.
pub const RECORD_OVERHEAD: usize = 4 + 8 + 8;

/// Upper bound on a record payload — a structural sanity check so a torn
/// length prefix cannot ask the decoder to skip gigabytes.
pub const MAX_PAYLOAD: usize = 1 << 24;

/// When appends reach the disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `sync_data` after every append and snapshot write.
    Always,
    /// No explicit syncs (test mode; see the module docs).
    Never,
}

/// Encode one record (see the module docs for the layout).
pub fn encode_record(seq: u64, payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_PAYLOAD, "payload exceeds MAX_PAYLOAD");
    let mut out = Vec::with_capacity(RECORD_OVERHEAD + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u64(&mut out, seq);
    out.extend_from_slice(payload);
    let check = fnv1a64(&out);
    put_u64(&mut out, check);
    out
}

/// Bytes a [`RecordReader`] asks its source for at a time: its buffer
/// holds this many, or one whole record if a record is larger.
pub const READ_CHUNK: usize = 64 * 1024;

/// The record decoder: reads a record stream from any byte source through
/// a bounded buffer and yields its intact records one at a time.
///
/// Decoding never fails on the bytes: a short, oversized or
/// checksum-damaged record simply ends the clean prefix (a torn tail is
/// data, not an error), and every later call yields nothing. Only the
/// source's own read errors surface. The buffer holds [`READ_CHUNK`]
/// bytes, or the largest record met, so memory does not grow with the
/// length of the stream.
#[derive(Debug)]
pub struct RecordReader<R> {
    src: R,
    buf: Vec<u8>,
    /// `buf[head..tail]` is read but not yet decoded.
    head: usize,
    tail: usize,
    /// Byte length of the intact records yielded so far.
    clean: u64,
    /// The clean prefix has ended.
    ended: bool,
}

impl<R: Read> RecordReader<R> {
    /// Decode the record stream `src` from its first byte.
    pub fn new(src: R) -> RecordReader<R> {
        RecordReader {
            src,
            buf: vec![0; READ_CHUNK],
            head: 0,
            tail: 0,
            clean: 0,
            ended: false,
        }
    }

    /// Byte length of the clean prefix decoded so far — after the last
    /// record, the length [`Wal::open_at`] truncates the log to.
    pub fn clean_len(&self) -> u64 {
        self.clean
    }

    /// Make `n` unread bytes available; false if the source ends first.
    fn fill(&mut self, n: usize) -> io::Result<bool> {
        while self.tail - self.head < n {
            if self.head + n > self.buf.len() {
                self.buf.copy_within(self.head..self.tail, 0);
                self.tail -= self.head;
                self.head = 0;
                if n > self.buf.len() {
                    self.buf.resize(n, 0);
                }
            }
            match self.src.read(&mut self.buf[self.tail..]) {
                Ok(0) => return Ok(false),
                Ok(k) => self.tail += k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// The next intact record as `(seq, payload)`, or `None` once the
    /// clean prefix has ended.
    pub fn next_record(&mut self) -> io::Result<Option<(u64, &[u8])>> {
        if self.ended || !self.fill(4)? {
            self.ended = true;
            return Ok(None);
        }
        let len = Reader::new(&self.buf[self.head..self.tail])
            .take_u32()
            .expect("four bytes are buffered") as usize;
        if len > MAX_PAYLOAD || !self.fill(RECORD_OVERHEAD + len)? {
            self.ended = true;
            return Ok(None);
        }
        let start = self.head;
        let body = &self.buf[start..start + 12 + len];
        let mut r = Reader::new(&self.buf[start + 4..start + RECORD_OVERHEAD + len]);
        let seq = r.take_u64().expect("the record is buffered");
        let payload = r.take(len).expect("the record is buffered");
        let check = r.take_u64().expect("the record is buffered");
        if fnv1a64(body) != check {
            self.ended = true;
            return Ok(None);
        }
        self.head += RECORD_OVERHEAD + len;
        self.clean += (RECORD_OVERHEAD + len) as u64;
        Ok(Some((seq, payload)))
    }
}

/// Decode the clean prefix of a record stream held in memory.
///
/// Returns the `(seq, payload)` of every intact record in order, plus the
/// byte length of the clean prefix they occupy: [`RecordReader`] over
/// `buf`, collected.
pub fn decode_records(buf: &[u8]) -> (Vec<(u64, Vec<u8>)>, usize) {
    let mut reader = RecordReader::new(buf);
    let mut records = Vec::new();
    while let Some((seq, payload)) = reader.next_record().expect("a byte slice reads infallibly") {
        records.push((seq, payload.to_vec()));
    }
    (records, reader.clean_len() as usize)
}

/// An open write-ahead log file positioned at its clean end.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    sync: SyncPolicy,
    len: u64,
}

impl Wal {
    /// Open (creating if absent) the log at `path`, truncating it to
    /// `clean_len` — the clean-prefix length a prior [`RecordReader`]
    /// pass reported — and positioning for appends.
    pub fn open_at(path: &Path, clean_len: u64, sync: SyncPolicy) -> Result<Wal, ServiceError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| ServiceError::io(path, e))?;
        file.set_len(clean_len)
            .map_err(|e| ServiceError::io(path, e))?;
        let mut wal = Wal {
            path: path.to_path_buf(),
            file,
            sync,
            len: clean_len,
        };
        wal.file
            .seek(SeekFrom::Start(clean_len))
            .map_err(|e| ServiceError::io(&wal.path, e))?;
        Ok(wal)
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current log length in bytes (committed records only).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Append one record, passing through the three append crash sites.
    ///
    /// On [`CrashSite::AppendPartial`] a strict prefix of the record is
    /// written before the error returns — the torn record the recovery path
    /// must discard.
    pub fn append(
        &mut self,
        seq: u64,
        payload: &[u8],
        crash: &CrashPoint,
    ) -> Result<(), ServiceError> {
        crash
            .hit(CrashSite::AppendStart)
            .map_err(ServiceError::Injected)?;
        let rec = encode_record(seq, payload);
        if let Err(site) = crash.hit(CrashSite::AppendPartial) {
            // Simulated death mid-write: leave a torn record behind. The
            // cut lands inside the trailing checksum field (records are at
            // least RECORD_OVERHEAD bytes), so the tail can never validate.
            let _ = self.file.write_all(&rec[..rec.len() - 5]);
            let _ = self.file.flush();
            return Err(ServiceError::Injected(site));
        }
        self.file
            .write_all(&rec)
            .map_err(|e| ServiceError::io(&self.path, e))?;
        if self.sync == SyncPolicy::Always {
            self.file
                .sync_data()
                .map_err(|e| ServiceError::io(&self.path, e))?;
        }
        self.len += rec.len() as u64;
        crash
            .hit(CrashSite::AppendEnd)
            .map_err(ServiceError::Injected)?;
        Ok(())
    }

    /// Empty the log (after a successful snapshot made its records
    /// redundant), passing through the truncate crash site.
    pub fn truncate_all(&mut self, crash: &CrashPoint) -> Result<(), ServiceError> {
        self.file
            .set_len(0)
            .map_err(|e| ServiceError::io(&self.path, e))?;
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| ServiceError::io(&self.path, e))?;
        if self.sync == SyncPolicy::Always {
            self.file
                .sync_data()
                .map_err(|e| ServiceError::io(&self.path, e))?;
        }
        self.len = 0;
        crash
            .hit(CrashSite::WalTruncate)
            .map_err(ServiceError::Injected)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_stream() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&encode_record(1, b"alpha"));
        buf.extend_from_slice(&encode_record(2, b""));
        buf.extend_from_slice(&encode_record(3, b"gamma"));
        let (recs, clean) = decode_records(&buf);
        assert_eq!(clean, buf.len());
        assert_eq!(
            recs,
            vec![
                (1, b"alpha".to_vec()),
                (2, Vec::new()),
                (3, b"gamma".to_vec())
            ]
        );
    }

    #[test]
    fn torn_tail_yields_clean_prefix() {
        let first = encode_record(1, b"alpha");
        let mut buf = first.clone();
        buf.extend_from_slice(&encode_record(2, b"beta")[..7]);
        let (recs, clean) = decode_records(&buf);
        assert_eq!(recs.len(), 1);
        assert_eq!(clean, first.len());
    }

    /// Hands out one byte per read, failing every other call with
    /// `Interrupted`.
    struct Trickle<'a> {
        bytes: &'a [u8],
        interrupt: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = self.bytes.len().min(buf.len()).min(1);
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn the_reader_decodes_any_split_of_the_stream_and_records_past_its_chunk() {
        let big = vec![0xa5; READ_CHUNK + 100];
        let mut buf = Vec::new();
        for (seq, payload) in [(1, b"alpha".as_slice()), (2, &big), (3, b""), (4, b"delta")] {
            buf.extend_from_slice(&encode_record(seq, payload));
        }
        let clean = buf.len();
        buf.extend_from_slice(&encode_record(5, b"torn")[..9]);
        let want = decode_records(&buf);
        assert_eq!((want.0.len(), want.1), (4, clean));
        assert_eq!(want.0[1], (2, big));

        let mut reader = RecordReader::new(Trickle {
            bytes: &buf,
            interrupt: false,
        });
        let mut got = Vec::new();
        while let Some((seq, payload)) = reader.next_record().expect("interrupts are retried") {
            got.push((seq, payload.to_vec()));
        }
        assert_eq!((got, reader.clean_len() as usize), want);
        assert_eq!(
            reader.next_record().expect("ended"),
            None,
            "the end is sticky"
        );
    }

    #[test]
    fn flipped_byte_ends_prefix() {
        let rec = encode_record(9, b"payload");
        for i in 0..rec.len() {
            let mut buf = rec.clone();
            buf[i] ^= 0x40;
            let (recs, clean) = decode_records(&buf);
            assert!(recs.is_empty(), "flip at {i} produced a record");
            assert_eq!(clean, 0);
        }
    }
}
