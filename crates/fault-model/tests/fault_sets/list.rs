//! Every fault set over a node space, in a fixed order, checked in fixed
//! index ranges.
//!
//! The sets of at most `max` faults among `n` nodes are listed by fault
//! count, then in lexicographic order of their sorted node indices: the
//! empty set is set 0, the single faults follow in index order, and so on.
//! [`FaultSets::first_failure`] splits that list into fixed ranges and
//! checks them on a few threads ([`first_failure_in`], which the Gray-code
//! churn walk also runs on). Within a range the sets run in order, and a
//! range that starts past a failure already found is skipped, so the
//! failure reported is the first in the list — the fewest faults, then the
//! lowest indices — whatever the thread count.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The sets of at most `max` of `n` nodes.
pub struct FaultSets {
    n: usize,
    /// `first[k]`: the list index of the first set of `k` faults; one
    /// entry past the last size holds the list length.
    first: Vec<u64>,
}

/// A fault set that failed its check.
#[derive(Debug)]
pub struct Failure {
    /// Its position in the list.
    pub index: u64,
    /// Its node indices, ascending.
    pub faults: Vec<usize>,
    /// What the check reported.
    pub message: String,
}

/// `n` choose `k`.
fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    (0..k as u64).fold(1, |acc, i| acc * (n as u64 - i) / (i + 1))
}

impl FaultSets {
    /// Every set of at most `max` faults among `n` nodes.
    pub fn new(n: usize, max: usize) -> FaultSets {
        let mut first = vec![0];
        for k in 0..=max.min(n) {
            first.push(first[k] + binomial(n, k));
        }
        FaultSets { n, first }
    }

    /// The number of sets.
    pub fn len(&self) -> u64 {
        *self.first.last().expect("the list has a length")
    }

    /// Set `index` of the list.
    pub fn nth(&self, index: u64) -> Vec<usize> {
        let k = self.first.partition_point(|&f| f <= index) - 1;
        let mut rank = index - self.first[k];
        let mut set = Vec::with_capacity(k);
        let mut v = 0;
        while set.len() < k {
            // The sets that hold `v` as their next node.
            let with_v = binomial(self.n - v - 1, k - set.len() - 1);
            if rank < with_v {
                set.push(v);
            } else {
                rank -= with_v;
            }
            v += 1;
        }
        set
    }

    /// Advance `set` to the next set of the list; false past the last.
    pub(crate) fn advance(&self, set: &mut Vec<usize>) -> bool {
        let k = set.len();
        // The last position that can still grow.
        if let Some(i) = (0..k).rev().find(|&i| set[i] < self.n - k + i) {
            set[i] += 1;
            for j in i + 1..k {
                set[j] = set[j - 1] + 1;
            }
            return true;
        }
        if k + 2 >= self.first.len() {
            return false;
        }
        *set = (0..=k).collect();
        true
    }

    /// Check every set with `check` on up to four threads, `chunk` sets
    /// per range, and return the first failure in list order, if any.
    pub fn first_failure(
        &self,
        chunk: u64,
        check: impl Fn(&[usize]) -> Result<(), String> + Sync,
    ) -> Option<Failure> {
        first_failure_in(self.len(), chunk, workers(), |range| {
            let mut set = self.nth(range.start);
            for index in range {
                if let Err(message) = check(&set) {
                    return Some(Failure {
                        index,
                        faults: set,
                        message,
                    });
                }
                self.advance(&mut set);
            }
            None
        })
    }
}

/// The worker count of the batteries: the available cores, at most four.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// Split `0..len` into the fixed ranges `[k·chunk, (k+1)·chunk)` and check
/// them on `workers` threads. `check` runs one range in order and returns
/// its first failure. Ranges are handed out in order and a range that
/// starts past a failure already found is skipped, so the failure returned
/// is the one with the lowest index whatever `workers` is.
pub fn first_failure_in(
    len: u64,
    chunk: u64,
    workers: usize,
    check: impl Fn(Range<u64>) -> Option<Failure> + Sync,
) -> Option<Failure> {
    let next = AtomicU64::new(0);
    let found: Mutex<Option<Failure>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let lo = next.fetch_add(chunk, Ordering::SeqCst);
                let before_failure = |at: u64| {
                    let found = found.lock().expect("a checker panicked");
                    found.as_ref().is_none_or(|f| at < f.index)
                };
                if lo >= len || !before_failure(lo) {
                    return;
                }
                if let Some(failure) = check(lo..(lo + chunk).min(len)) {
                    let mut found = found.lock().expect("a checker panicked");
                    if found.as_ref().is_none_or(|f| failure.index < f.index) {
                        *found = Some(failure);
                    }
                }
            });
        }
    });
    found.into_inner().expect("a checker panicked")
}
