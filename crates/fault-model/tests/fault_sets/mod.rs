//! The fault-set enumerator of `list.rs`, with its own unit tests.
//!
//! `exhaustive.rs` is the one battery that declares this module, so the
//! tests run once. `gray_churn.rs` and `mcc-protocols`' `detection_equiv.rs`
//! include `list.rs` alone, under the same module name.

mod list;

pub use list::*;

use std::ops::Range;

#[test]
fn the_list_runs_by_count_then_lexicographically() {
    let sets = FaultSets::new(4, 2);
    assert_eq!(sets.len(), 1 + 4 + 6);
    let mut set = sets.nth(0);
    let mut all = vec![set.clone()];
    while sets.advance(&mut set) {
        all.push(set.clone());
    }
    let want: Vec<Vec<usize>> = vec![
        vec![],
        vec![0],
        vec![1],
        vec![2],
        vec![3],
        vec![0, 1],
        vec![0, 2],
        vec![0, 3],
        vec![1, 2],
        vec![1, 3],
        vec![2, 3],
    ];
    assert_eq!(all, want);
    for (i, s) in want.iter().enumerate() {
        assert_eq!(&sets.nth(i as u64), s);
    }
}

#[test]
fn the_first_failure_is_reported_whatever_the_ranges() {
    let sets = FaultSets::new(10, 4);
    // Fails on every set holding both 3 and 7; the first is [3, 7].
    let check = |s: &[usize]| {
        if s.contains(&3) && s.contains(&7) {
            Err(format!("{s:?}"))
        } else {
            Ok(())
        }
    };
    for chunk in [1, 7, 64, 1000] {
        let f = sets.first_failure(chunk, check).expect("a set fails");
        assert_eq!(f.faults, vec![3, 7], "chunk {chunk}");
        assert_eq!(sets.nth(f.index), vec![3, 7]);
    }
    assert!(sets.first_failure(16, |_| Ok(())).is_none());
}

#[test]
fn the_first_failure_in_ranges_does_not_depend_on_the_workers() {
    // Every index divisible by 37 past 500 fails.
    let check = |range: Range<u64>| {
        range
            .into_iter()
            .find(|&i| i > 500 && i % 37 == 0)
            .map(|index| Failure {
                index,
                faults: vec![],
                message: String::new(),
            })
    };
    for workers in 1..=4 {
        for chunk in [1, 16, 100, 5000] {
            let f = first_failure_in(2000, chunk, workers, check).expect("an index fails");
            assert_eq!(f.index, 518, "workers {workers}, chunk {chunk}");
        }
    }
    assert!(first_failure_in(2000, 16, 3, |_| None).is_none());
}
