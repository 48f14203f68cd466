//! Bit rows along `x`: the layouts and the carry-add run fill shared by
//! the three word-parallel closures — the reachability sweep of
//! [`Useful`](crate::oracle::Useful), the labelling closures of
//! [`Labelling`](crate::Labelling) and the block closure of
//! [`FaultBlocks`](crate::FaultBlocks).
//!
//! All three are monotone fills along `x`: a node joins the set once its
//! neighbor on one side of the row has joined, provided it is *free* (open
//! to the fill). With the row stored so that the fill runs toward higher
//! bits, one carry-propagating add per word finds every free run that
//! starts at a seed ([`RunFill`]).
//!
//! The labelling and block closures pack rows of at most 64 nodes
//! `⌊64/nx⌋` to a word instead ([`Lanes`]), where the same add is
//! segmented so that no carry crosses a row; wider rows stay on [`Rows`].
//! A lane word is a run of whole rows of one plane, so it packs into a
//! [`NodeSet`] with one shifted OR ([`Lanes::pack`]); when `nx` divides 64
//! and the planes need no padding the words already are the set's.
//! [`Rows::pack`] and [`Rows::unpack`] gather and scatter whole rows a
//! word at a time in that layout when `nx` divides 64.

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

    /// `rows` as a [`NodeSet`]. When `nx` divides 64, each set word is
    /// `64 / nx` whole rows ([`gather`]).
    pub(crate) fn pack(self, rows: &[u64]) -> NodeSet {
        let (nx, wpr) = (self.ext[0], self.wpr);
        let nbits = self.count() * nx;
        let mut words = vec![0u64; nbits.div_ceil(64)];
        if nx % 64 == 0 {
            words.copy_from_slice(rows);
        } else if 64 % nx == 0 {
            gather(rows, nx, &mut words);
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
        if 64 % nx == 0 {
            scatter(set.words(), nx, &mut rows);
            return rows;
        }
        for (r, row) in rows.chunks_exact_mut(self.wpr).enumerate() {
            put_bits(row, 0, set.words(), r * nx, nx);
        }
        rows
    }
}

/// Rows of at most 64 nodes, `per = ⌊64/nx⌋` to a word: row `y` of `z`
/// plane `z` is lane `y % per` of word `z·wpp + y / per`, node `x` at bit
/// `(y % per)·nx + x`. Each plane is padded to `wpp = ⌈ny/per⌉` whole
/// words, so a plane's last word may hold *phantom* lanes (rows `y ≥
/// ny`), and the `64 − per·nx` bits above the last lane are padding; both
/// stay zero. When `nx` divides 64 and the planes need no padding, the
/// words are exactly the [`NodeSet`] layout.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lanes {
    /// The rows the lanes hold.
    pub(crate) rows: Rows,
    /// Lanes (rows) per word.
    pub(crate) per: usize,
    /// Words per `z` plane.
    pub(crate) wpp: usize,
    /// `⌊(2⁶⁴ − 1) / per⌋ + 1` (unused when `per` is 1), for [`Lanes::at`].
    recip: u64,
    /// The words as a grid `[nx, wpp, nz]`, for [`Rows::step`].
    words: Rows,
    /// Bit 0 of each lane, and the bit just past the last lane.
    pub(crate) starts: u64,
    /// The top bit of each lane.
    tops: u64,
    /// The bits of lane 0.
    pub(crate) lane: u64,
    /// The bit offset of the last lane of a word, and of the last real
    /// lane of a plane's last word.
    edge: [u32; 2],
}

impl Lanes {
    /// The lane layout of `rows`, if a row fits in one word.
    pub(crate) fn of(rows: Rows) -> Option<Lanes> {
        let [nx, ny, nz] = rows.ext;
        if nx > 64 {
            return None;
        }
        let per = 64 / nx;
        let wpp = ny.div_ceil(per);
        let low = |n: usize| u64::MAX >> (64 - n);
        let starts = (0..=per)
            .filter(|l| l * nx < 64)
            .fold(0, |m, l| m | 1 << (l * nx));
        Some(Lanes {
            rows,
            per,
            wpp,
            recip: if per > 1 {
                u64::MAX / per as u64 + 1
            } else {
                0
            },
            words: Rows {
                ext: [nx, wpp, nz],
                ..rows
            },
            starts,
            tops: (starts & low(per * nx)) << (nx - 1),
            lane: low(nx),
            edge: [per - 1, (ny - 1) % per].map(|l| (l * nx) as u32),
        })
    }

    /// The number of words.
    pub(crate) fn count(self) -> usize {
        self.wpp * self.rows.ext[2]
    }

    /// All words, zeroed.
    pub(crate) fn zeroed(self) -> Vec<u64> {
        vec![0; self.count()]
    }

    /// The word holding row `y` of plane `z`, and the bit offset of the
    /// row's lane.
    #[inline(always)]
    pub(crate) fn at(self, y: usize, z: usize) -> (usize, u32) {
        // `y / per` by the multiply-high of Lemire, Kaser and Kurz, exact
        // for 32-bit `y` (a coordinate is an `i32`); no division.
        let j = if self.per == 1 {
            y
        } else {
            ((u128::from(self.recip) * y as u128) >> 64) as usize
        };
        (
            z * self.wpp + j,
            ((y - j * self.per) * self.rows.ext[0]) as u32,
        )
    }

    /// The bit offset of the last real lane of word `j` of a plane.
    #[inline(always)]
    pub(crate) fn edge(self, j: usize) -> u32 {
        self.edge[usize::from(j + 1 == self.wpp)]
    }

    /// The bits of the real lanes of word `j` of a plane.
    #[inline(always)]
    pub(crate) fn real(self, j: usize) -> u64 {
        u64::MAX >> (64 - self.rows.ext[0] as u32 - self.edge(j))
    }

    /// The linear node index of bit 0 of each word, in word order: word
    /// `j` of plane `z` starts at row `z·ny + j·per`.
    pub(crate) fn bases(self) -> Bases {
        let [nx, ny, _] = self.rows.ext;
        Bases::new(self.wpp, ny * nx, self.per * nx)
    }

    /// The lane of `word` at bit offset `at`, moved to lane 0.
    #[inline(always)]
    pub(crate) fn take(self, word: u64, at: u32) -> u64 {
        word >> at & self.lane
    }

    /// Lane 0 of `word`, moved to bit offset `at`.
    #[inline(always)]
    pub(crate) fn put(self, word: u64, at: u32) -> u64 {
        (word & self.lane) << at
    }

    /// The word one step from word `w` (word `j` of plane `z`) along axis
    /// `a` (1 = `y`, 2 = `z`), toward `+a` if `up`: [`Rows::step`] on the
    /// grid of words. On a torus whose plane is one word, the `y` step is
    /// `w` itself.
    #[inline(always)]
    pub(crate) fn step(self, w: usize, jz: [usize; 2], a: usize, up: bool) -> Option<usize> {
        self.words.step(w, jz, a, up)
    }

    /// Flip the node at `[x, y, z]` in `words`.
    #[inline]
    pub(crate) fn toggle(self, words: &mut [u64], [x, y, z]: [i32; 3]) {
        let (w, at) = self.at(y as usize, z as usize);
        words[w] ^= 1 << (at + x as u32);
    }

    /// Each node's `-x` and `+x` neighbor in `word`, lane by lane; on a
    /// torus a lane's bit 0 and top bit are neighbors.
    #[inline(always)]
    pub(crate) fn x_neighbors(self, word: u64) -> (u64, u64) {
        let (mut lo, mut hi) = (word << 1 & !self.starts, word >> 1 & !self.tops);
        if self.rows.wrap {
            let edge = self.rows.ext[0] as u32 - 1;
            lo |= (word & self.tops) >> edge;
            hi |= (word & self.starts) << edge;
        }
        (lo, hi)
    }

    /// The run fill of [`RunFill::word`] in every lane at once: every bit
    /// of `free` that a run of `free` bits reaches from a bit of `seeds`
    /// (a subset of `free`) stepping toward higher bits, within its lane.
    /// The add is segmented: each lane's top bit is left out of the sum
    /// and XORed back in, so no carry crosses into the next lane.
    #[inline(always)]
    pub(crate) fn fill_up(self, free: u64, seeds: u64) -> u64 {
        let (rest, h) = (free & !seeds, self.tops);
        let sh = seeds << 1 & !self.starts;
        let sum = ((rest & !h) + (sh & !h)) ^ ((rest ^ sh) & h);
        ((sum ^ rest) & free) | seeds
    }

    /// Every bit of `free` in a run of its lane that holds a bit of
    /// `seeds`: [`Lanes::fill_up`] and, where a run reaches below its
    /// lowest seed, the same fill on the bit-reversed word.
    #[inline(always)]
    pub(crate) fn spread(self, free: u64, seeds: u64) -> u64 {
        let up = self.fill_up(free, seeds);
        if (up >> 1 & !self.tops) & free & !up == 0 {
            return up;
        }
        up | self.reverse(self.fill_up(self.reverse(free), self.reverse(seeds)))
    }

    /// `word` with its lanes in reverse order and each lane reversed: an
    /// involution on words whose padding is zero.
    #[inline(always)]
    fn reverse(self, word: u64) -> u64 {
        word.reverse_bits() >> (64 - self.per * self.rows.ext[0])
    }

    /// `words` as rows of one word each.
    pub(crate) fn to_rows(self, words: &[u64]) -> Vec<u64> {
        let ([nx, ny, _], mut rows) = (self.rows.ext, self.rows.zeroed());
        for (plane, out) in words.chunks_exact(self.wpp).zip(rows.chunks_exact_mut(ny)) {
            scatter(plane, nx, out);
        }
        rows
    }

    /// `words` as a [`NodeSet`]: the words themselves when they are its
    /// layout. Otherwise the real lanes of a word are consecutive rows of
    /// one plane, so each word is ORed in whole at the index of its bit 0
    /// ([`Lanes::bases`]); its phantom lanes are zero.
    pub(crate) fn pack(self, words: Vec<u64>) -> NodeSet {
        let [nx, ny, nz] = self.rows.ext;
        let nbits = self.rows.count() * nx;
        if 64 % nx == 0 && (nz == 1 || ny % self.per == 0) {
            return NodeSet::from_raw_words(nbits, words);
        }
        let mut set = vec![0u64; nbits.div_ceil(64)];
        for (at, &w) in self.bases().zip(&words) {
            let wide = u128::from(w) << (at % 64);
            set[at / 64] |= wide as u64;
            if let Some(next) = set.get_mut(at / 64 + 1) {
                *next |= (wide >> 64) as u64;
            }
        }
        NodeSet::from_raw_words(nbits, set)
    }
}

/// The linear node index of bit 0 of each word of a layout whose words
/// come in groups of `group` (a plane of lanes, or a row): word `j` of
/// group `g` starts at `g·stride + j·step`. Counted up without a division.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Bases {
    group: usize,
    stride: usize,
    step: usize,
    /// The start of the current group, and the next word's index in it.
    at: usize,
    j: usize,
}

impl Bases {
    pub(crate) fn new(group: usize, stride: usize, step: usize) -> Bases {
        Bases {
            group,
            stride,
            step,
            at: 0,
            j: 0,
        }
    }
}

impl Iterator for Bases {
    type Item = usize;

    #[inline(always)]
    fn next(&mut self) -> Option<usize> {
        let base = self.at + self.j * self.step;
        self.j += 1;
        if self.j == self.group {
            (self.at, self.j) = (self.at + self.stride, 0);
        }
        Some(base)
    }
}

/// Gather rows of `nx` bits (`nx` at most 64), one word each, `⌊64/nx⌋`
/// to a word of `words`, row `per·w + l` at bit `l·nx` of word `w`.
fn gather(rows: &[u64], nx: usize, words: &mut [u64]) {
    for (word, group) in words.iter_mut().zip(rows.chunks(64 / nx)) {
        *word = group
            .iter()
            .enumerate()
            .fold(0, |acc, (l, &r)| acc | r << (l * nx));
    }
}

/// The inverse of [`gather`]: fill `rows` from `words`.
fn scatter(words: &[u64], nx: usize, rows: &mut [u64]) {
    let lane = u64::MAX >> (64 - nx);
    for (&word, group) in words.iter().zip(rows.chunks_mut(64 / nx)) {
        for (l, r) in group.iter_mut().enumerate() {
            *r = word >> (l * nx) & lane;
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// [`Lanes::at`] divides by the lanes per word with a multiply: it
    /// must equal the division for every lane count, over small rows and
    /// the largest `y` a coordinate can hold.
    #[test]
    fn lane_position_matches_division() {
        for nx in 1..=64 {
            let rows = Rows {
                ext: [nx, 1, 1],
                wpr: 1,
                dims: 3,
                wrap: false,
            };
            let l = Lanes::of(rows).expect("a row fits in a word");
            let top = i32::MAX as usize;
            for y in (0..5_000).chain(top - 5_000..=top) {
                let want = (y / l.per, (y % l.per * nx) as u32);
                assert_eq!(l.at(y, 0), want, "nx {nx}, y {y}");
            }
        }
    }

    /// `pack`, `unpack` and the lane layout against a bit-by-bit
    /// reference, for every row width from 1 to 130 nodes (one, two and
    /// three words; padded, exact and phantom lanes) over a few `ny·nz`
    /// shapes.
    #[test]
    fn pack_unpack_and_lanes_match_bitwise_reference() {
        let mut rng = SmallRng::seed_from_u64(41);
        for nx in 1..=130 {
            for [ny, nz] in [[1, 1], [3, 1], [5, 2], [4, 3], [7, 2]] {
                let rows = Rows {
                    ext: [nx, ny, nz],
                    wpr: nx.div_ceil(64),
                    dims: 3,
                    wrap: false,
                };
                let mut words = rows.zeroed();
                let mut set = NodeSet::new(rows.count() * nx);
                let lanes = Lanes::of(rows);
                let mut lane_words = lanes.map(Lanes::zeroed);
                for r in 0..rows.count() {
                    for x in 0..nx {
                        if rng.gen_range(0..3) == 0 {
                            let (y, z) = (r % ny, r / ny);
                            rows.toggle(&mut words, [x, y, z].map(|v| v as i32));
                            set.insert(r * nx + x);
                            if let (Some(l), Some(lw)) = (lanes, &mut lane_words) {
                                l.toggle(lw, [x, y, z].map(|v| v as i32));
                            }
                        }
                    }
                }
                let shape = [nx, ny, nz];
                assert_eq!(rows.pack(&words), set, "pack {shape:?}");
                assert_eq!(rows.unpack(&set), words, "unpack {shape:?}");
                assert_eq!(
                    rows.unpack(&rows.pack(&words)),
                    words,
                    "round trip {shape:?}"
                );
                if let (Some(l), Some(lw)) = (lanes, lane_words) {
                    assert_eq!(l.to_rows(&lw), words, "lanes to rows {shape:?}");
                    assert_eq!(l.pack(lw), set, "lanes pack {shape:?}");
                }
            }
        }
    }
}
