//! Bit rows along `x`: the layout and the carry-add run fill shared by the
//! three word-parallel closures — the reachability sweep of
//! [`Useful`](crate::oracle::Useful), the labelling closures of
//! [`Labelling`](crate::Labelling) and the block closure of
//! [`FaultBlocks`](crate::FaultBlocks).
//!
//! All three are monotone fills along `x`: a node joins the set once its
//! neighbor on one side of the row has joined, provided it is *free* (open
//! to the fill). With the row stored so that the fill runs toward higher
//! bits, one carry-propagating add per word finds every free run that
//! starts at a seed ([`RunFill`]).

use mesh_topo::{Coord, NodeSet, NodeSpace};

/// The carry of a run fill across the words of one row, low word first.
#[derive(Default)]
pub(crate) struct RunFill {
    carry: u64,
    shifted_in: u64,
}

impl RunFill {
    /// The next word of the fill: every bit of `free` that a run of `free`
    /// bits reaches from a bit of `seeds` (a subset of `free`) stepping
    /// toward higher bits, runs from the previous words included.
    ///
    /// With `rest = free & !seeds`, `(rest + (seeds << 1)) ^ rest` flips
    /// exactly the run above each seed plus the bit that stops it; `& free`
    /// drops that bit unless it is a seed itself.
    #[inline(always)]
    pub(crate) fn word(&mut self, free: u64, seeds: u64) -> u64 {
        let rest = free & !seeds;
        let shifted = (seeds << 1) | self.shifted_in;
        self.shifted_in = seeds >> 63;
        let (sum, c1) = rest.overflowing_add(shifted);
        let (sum, c2) = sum.overflowing_add(self.carry);
        self.carry = u64::from(c1 | c2);
        ((sum ^ rest) & free) | seeds
    }
}

/// A whole node space as bit rows along `x`. Row `r = z·ny + y` holds the
/// nodes `r·nx .. r·nx + nx` in `wpr` words, node `x` at bit `x % 64` of
/// word `x / 64`; the bits past `nx` stay zero.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Rows {
    /// Per-axis extents, `x` first.
    pub(crate) ext: [usize; 3],
    /// Words per row.
    pub(crate) wpr: usize,
    /// The number of axes of the space (2 or 3).
    pub(crate) dims: usize,
    /// True if every axis wraps (a torus).
    pub(crate) wrap: bool,
}

impl Rows {
    pub(crate) fn of<C: Coord>(space: NodeSpace<C>) -> Rows {
        let ext = space.extents();
        Rows {
            ext,
            wpr: ext[0].div_ceil(64),
            dims: C::DIMS,
            wrap: space.wraps(),
        }
    }

    /// The number of rows.
    pub(crate) fn count(self) -> usize {
        self.ext[1] * self.ext[2]
    }

    /// All rows, zeroed.
    pub(crate) fn zeroed(self) -> Vec<u64> {
        vec![0; self.count() * self.wpr]
    }

    /// The valid bits of word `k` of a row.
    #[inline(always)]
    pub(crate) fn mask(self, k: usize) -> u64 {
        if k + 1 < self.wpr {
            u64::MAX
        } else {
            u64::MAX >> (self.wpr * 64 - self.ext[0])
        }
    }

    /// The row one step from row `r` (at `y`, `z`) along axis `a` (1 = `y`,
    /// 2 = `z`), toward `+a` if `up`. `None` past a mesh border; a torus
    /// wraps.
    #[inline(always)]
    pub(crate) fn step(self, r: usize, [y, z]: [usize; 2], a: usize, up: bool) -> Option<usize> {
        let (c, n) = if a == 1 {
            (y, self.ext[1])
        } else {
            (z, self.ext[2])
        };
        let stride = if a == 1 { 1 } else { self.ext[1] };
        if up {
            if c + 1 < n {
                Some(r + stride)
            } else if self.wrap {
                Some(r - c * stride)
            } else {
                None
            }
        } else if c > 0 {
            Some(r - stride)
        } else if self.wrap {
            Some(r + (n - 1) * stride)
        } else {
            None
        }
    }

    /// Flip the node at `[x, y, z]` in `rows`.
    #[inline]
    pub(crate) fn toggle(self, rows: &mut [u64], [x, y, z]: [i32; 3]) {
        let (x, r) = (x as usize, z as usize * self.ext[1] + y as usize);
        rows[r * self.wpr + x / 64] ^= 1 << (x % 64);
    }

    /// `rows` as a [`NodeSet`].
    pub(crate) fn pack(self, rows: &[u64]) -> NodeSet {
        let (nx, wpr) = (self.ext[0], self.wpr);
        let nbits = self.count() * nx;
        let mut words = vec![0u64; nbits.div_ceil(64)];
        if nx % 64 == 0 {
            words.copy_from_slice(rows);
        } else {
            for (r, row) in rows.chunks_exact(wpr).enumerate() {
                for (k, &w) in row.iter().enumerate().filter(|&(_, &w)| w != 0) {
                    let at = r * nx + k * 64;
                    let (i, b) = (at / 64, at % 64);
                    words[i] |= w << b;
                    if b != 0 && w >> (64 - b) != 0 {
                        words[i + 1] |= w >> (64 - b);
                    }
                }
            }
        }
        NodeSet::from_raw_words(nbits, words)
    }

    /// `set`, a [`NodeSet`] over this space, as rows: the inverse of
    /// [`Rows::pack`].
    pub(crate) fn unpack(self, set: &NodeSet) -> Vec<u64> {
        let (nx, mut rows) = (self.ext[0], self.zeroed());
        for (r, row) in rows.chunks_exact_mut(self.wpr).enumerate() {
            put_bits(row, 0, set.words(), r * nx, nx);
        }
        rows
    }
}

/// Append every maximal run `(x0, x1)` of set bits in `row`, `x0..=x1`,
/// to `runs`, in increasing order: first the starts of all runs, then
/// their ends, so no branch depends on how the runs interleave.
pub(crate) fn push_runs(row: &[u64], runs: &mut Vec<(usize, usize)>) {
    let first = runs.len();
    for (k, &w) in row.iter().enumerate() {
        let below = if k > 0 { row[k - 1] >> 63 } else { 0 };
        let mut starts = w & !(w << 1 | below);
        while starts != 0 {
            runs.push((k * 64 + starts.trailing_zeros() as usize, 0));
            starts &= starts - 1;
        }
    }
    let mut i = first;
    for (k, &w) in row.iter().enumerate() {
        let above = row.get(k + 1).map_or(0, |n| n << 63);
        let mut ends = w & !(w >> 1 | above);
        while ends != 0 {
            runs[i].1 = k * 64 + ends.trailing_zeros() as usize;
            i += 1;
            ends &= ends - 1;
        }
    }
}

/// Reverse the low `len` bits of the multi-word `row` in place.
pub(crate) fn reverse_row(row: &mut [u64], len: usize) {
    row.reverse();
    for w in row.iter_mut() {
        *w = w.reverse_bits();
    }
    let pad = row.len() * 64 - len;
    if pad > 0 {
        for k in 0..row.len() {
            let next = row.get(k + 1).map_or(0, |w| w << (64 - pad));
            row[k] = (row[k] >> pad) | next;
        }
    }
}

/// `len` (1–64) bits of `words` starting at bit `start`, low bit first.
#[inline]
pub(crate) fn take_bits(words: &[u64], start: usize, len: usize) -> u64 {
    let (w, b) = (start / 64, start % 64);
    let mut bits = words[w] >> b;
    if b != 0 && b + len > 64 {
        bits |= words[w + 1] << (64 - b);
    }
    bits & (u64::MAX >> (64 - len))
}

/// OR `len` bits of `words` starting at bit `start` into `row` at bit `at`.
pub(crate) fn put_bits(row: &mut [u64], at: usize, words: &[u64], start: usize, len: usize) {
    let mut done = 0;
    while done < len {
        let n = (len - done).min(64);
        let bits = take_bits(words, start + done, n);
        let (w, b) = ((at + done) / 64, (at + done) % 64);
        row[w] |= bits << b;
        if b != 0 && b + n > 64 {
            row[w + 1] |= bits >> (64 - b);
        }
        done += n;
    }
}
