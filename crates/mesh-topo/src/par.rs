//! The worker-pool budget.
//!
//! Every kernel in the workspace runs sequentially on one thread. What
//! does scale is running *independent* units side by side: the seed sweep
//! of `mcc-bench` and the slot/shard worker pools of its load generators.
//! Those pools take their size from one [`Parallelism`] value. The type
//! carries *intent* (`0` = use every detected core) rather than a resolved
//! count, so a scenario file stays machine-independent;
//! [`Parallelism::resolve`] pins it to a concrete thread count at the call
//! site, and [`bands`] splits the units into contiguous per-worker ranges.
//!
//! Every pool scatters its results back in unit order, so the worker count
//! is a pure performance knob: tables, goldens and `RunStats` never depend
//! on it.

use std::ops::Range;

/// A worker-pool budget. `threads == 0` means "all detected cores".
///
/// The value is plain data (no handle to a pool): pools spawn scoped
/// threads on demand, so a `Parallelism` can be stored in configs freely.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Parallelism {
    /// Requested thread count; `0` resolves to the detected core count.
    pub threads: usize,
}

impl Default for Parallelism {
    /// Defaults to sequential: parallelism is strictly opt-in.
    fn default() -> Parallelism {
        Parallelism::SEQ
    }
}

impl Parallelism {
    /// Sequential execution (one thread), the default everywhere.
    pub const SEQ: Parallelism = Parallelism { threads: 1 };

    /// An explicit thread budget (`0` = all detected cores).
    pub fn new(threads: usize) -> Parallelism {
        Parallelism { threads }
    }

    /// The concrete thread count to use: the explicit budget, or the
    /// detected core count when the budget is `0`. Always at least 1.
    pub fn resolve(self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            detected_cores()
        }
    }
}

/// Number of hardware threads the platform reports (at least 1).
///
/// Recorded in every loadgen/service JSON snapshot so perf trajectories
/// are comparable across machines.
pub fn detected_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Split `0..items` into at most `want` contiguous, non-empty, near-equal
/// ranges (fewer when `items < want`). The slot/shard partition of the
/// load generators' worker pools: contiguity is what lets per-worker
/// results merge back in index order, bit-identical to a sequential pass.
pub fn bands(items: usize, want: usize) -> Vec<Range<usize>> {
    if items == 0 || want == 0 {
        return Vec::new();
    }
    let n = want.min(items);
    let base = items / n;
    let extra = items % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for k in 0..n {
        let len = base + usize::from(k < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, items);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_budget_resolves_to_itself() {
        assert_eq!(Parallelism::new(7).resolve(), 7);
        assert_eq!(Parallelism::SEQ.resolve(), 1);
    }

    #[test]
    fn auto_budget_resolves_to_detected_cores() {
        assert_eq!(Parallelism::new(0).resolve(), detected_cores());
        assert!(detected_cores() >= 1);
    }

    #[test]
    fn default_is_sequential() {
        assert_eq!(Parallelism::default(), Parallelism::SEQ);
    }

    #[test]
    fn bands_cover_exactly_and_stay_near_equal() {
        for items in [1usize, 2, 5, 63, 64, 65, 1000] {
            for want in [1usize, 2, 3, 7, 16] {
                let b = bands(items, want);
                assert_eq!(b.len(), want.min(items), "{items}/{want}");
                assert_eq!(b[0].start, 0);
                assert_eq!(b.last().unwrap().end, items);
                for w in b.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "contiguous");
                }
                let (min, max) = b
                    .iter()
                    .map(|r| r.len())
                    .fold((usize::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
                assert!(max - min <= 1, "near-equal: {items}/{want}");
                assert!(min >= 1, "non-empty");
            }
        }
    }

    #[test]
    fn bands_degenerate_inputs() {
        assert!(bands(0, 4).is_empty());
        assert!(bands(4, 0).is_empty());
        assert_eq!(bands(1, 1), vec![0..1]);
    }
}
