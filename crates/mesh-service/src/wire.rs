//! Little-endian wire primitives and the FNV-1a checksum shared by the WAL
//! record codec and the snapshot format.
//!
//! Everything on disk is a concatenation of fixed-width little-endian
//! integers, so a `put_*`/`Reader` pair is the entire serialization story —
//! no framing library, no self-describing schema. The checksum is FNV-1a
//! over the raw bytes: every accumulator step (`h ← (h ⊕ b) · P` with odd
//! `P`) is injective in `b` and in `h`, so changing any single covered byte
//! changes the final digest — the property the torn-tail detector and the
//! flipped-byte proptests rely on.

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit, odd — multiplication by it is injective mod 2^64).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit digest of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Append a `u32` in little-endian order.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` in little-endian order.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i32` in little-endian order.
pub fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Sequential little-endian reader over a byte slice.
///
/// Every `take_*` either yields a value or reports the buffer ran short —
/// decoding never panics, which is what lets the WAL treat arbitrary torn
/// tails as data.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    /// Consume a little-endian `u32`.
    pub fn take_u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    /// Consume a little-endian `u64`.
    pub fn take_u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    /// Consume a little-endian `i32`.
    pub fn take_i32(&mut self) -> Option<i32> {
        self.take(4)
            .map(|s| i32::from_le_bytes(s.try_into().expect("4 bytes")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 7);
        put_i32(&mut buf, -12345);
        let mut r = Reader::new(&buf);
        assert_eq!(r.take_u32(), Some(0xdead_beef));
        assert_eq!(r.take_u64(), Some(u64::MAX - 7));
        assert_eq!(r.take_i32(), Some(-12345));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.take_u32(), None);
    }

    #[test]
    fn fnv_single_byte_flip_changes_digest() {
        let base: Vec<u8> = (0..64u8).collect();
        let h = fnv1a64(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(fnv1a64(&flipped), h, "flip at byte {i} bit {bit}");
            }
        }
    }
}
