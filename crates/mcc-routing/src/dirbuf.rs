//! A fixed-capacity direction buffer for the per-hop candidate set.
//!
//! Every router hop rebuilds the set of allowed forwarding directions.
//! A heap-backed `Vec<Dir>` puts an allocation (and a pointer chase) on
//! the hottest loop of every route; this inline buffer is a `Copy`-sized
//! array plus a length, so the candidate set lives entirely in registers
//! or on the stack. Capacity is the full 3-D direction fan-out (6) even
//! though minimal routing only ever pushes the positive half, so
//! misrouting extensions cannot overflow it in either dimension.

/// Inline candidate set of directions `D` (`[D; 6]` + length).
#[derive(Clone, Copy, Debug)]
pub(crate) struct DirBuf<D> {
    dirs: [D; 6],
    len: usize,
}

impl<D: Copy> DirBuf<D> {
    /// The empty candidate set; `fill` only initializes the unused slots.
    pub(crate) fn new(fill: D) -> DirBuf<D> {
        DirBuf {
            dirs: [fill; 6],
            len: 0,
        }
    }

    /// Drop every candidate.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }

    /// Append a candidate direction.
    ///
    /// # Panics
    /// If the buffer already holds six directions (debug builds).
    #[inline]
    pub(crate) fn push(&mut self, d: D) {
        debug_assert!(self.len < self.dirs.len(), "direction buffer overflow");
        self.dirs[self.len] = d;
        self.len += 1;
    }

    /// The candidates as a slice (what [`crate::policy::Policy::choose`]
    /// consumes).
    #[inline]
    pub(crate) fn as_slice(&self) -> &[D] {
        &self.dirs[..self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_topo::{Dir2, Dir3};

    #[test]
    fn dirbuf2_push_clear_slice() {
        let mut b = DirBuf::new(Dir2::Xp);
        assert!(b.as_slice().is_empty());
        b.push(Dir2::Yp);
        b.push(Dir2::Xp);
        assert_eq!(b.as_slice(), &[Dir2::Yp, Dir2::Xp]);
        b.clear();
        assert!(b.as_slice().is_empty());
    }

    #[test]
    fn dirbuf3_holds_full_fanout() {
        let mut b = DirBuf::new(Dir3::Xp);
        for d in Dir3::ALL {
            b.push(d);
        }
        assert_eq!(b.as_slice(), &Dir3::ALL[..]);
    }
}
