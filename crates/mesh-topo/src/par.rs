//! The worker-pool budget.
//!
//! Every kernel in the workspace runs sequentially on one thread. What
//! does scale is running *independent* units side by side: the seed sweep
//! of `mcc-bench`, which takes its pool size from one [`Parallelism`]
//! value. The type carries *intent* (`0` = use every detected core) rather
//! than a resolved count, so a scenario file stays machine-independent;
//! [`Parallelism::resolve`] pins it to a concrete thread count at the call
//! site.
//!
//! The sweep scatters its results back in seed order, so the worker count
//! is a pure performance knob: tables, goldens and `RunStats` never depend
//! on it.

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
pub fn detected_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
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
}
