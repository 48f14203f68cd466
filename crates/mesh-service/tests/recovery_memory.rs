//! Recovery's memory is flat in journal length.
//!
//! `ShardCore::open` streams the WAL through `wal::RecordReader`'s
//! bounded buffer and folds each record into the fault set as it is
//! decoded, so the live heap while a shard recovers must not grow with
//! the number of journaled records. A counting global allocator measures
//! the peak live bytes across `open` for a short and a long journal of
//! the same mesh; the long one may exceed the short one by at most one
//! read chunk.
//!
//! The binary holds a single test, so no other test thread allocates
//! while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mesh_service::prelude::*;
use mesh_service::wal::READ_CHUNK;
use mesh_service::ShardCore;
use mesh_topo::Parallelism;

/// Live and peak heap bytes of the whole process.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting the bytes it hands out.
struct Counting;

impl Counting {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::SeqCst) + by;
        PEAK.fetch_max(live, Ordering::SeqCst);
    }

    fn shrank(by: usize) {
        LIVE.fetch_sub(by, Ordering::SeqCst);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters
// are atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Counting::shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Counting::shrank(layout.size());
            Counting::grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Journal `records` random churn batches on a fresh 6³ shard that never
/// snapshots, then reopen it; returns the peak live bytes `open` added
/// above what was live when it started.
fn recovery_peak(records: u64) -> usize {
    let spec = ShardSpec::new(
        Geometry::M3 {
            nx: 6,
            ny: 6,
            nz: 6,
            wrap: false,
        },
        0,
    );
    let dir = TempDir::new("recovery-memory");
    let mut core = ShardCore::open(dir.path(), spec, Parallelism::SEQ, CrashPoint::none())
        .expect("fresh shard");
    for seed in 0..records {
        core.handle(&Request::ChurnRandom { seed }).expect("churn");
    }
    drop(core);

    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let core =
        ShardCore::open(dir.path(), spec, Parallelism::SEQ, CrashPoint::none()).expect("recover");
    let peak = PEAK.load(Ordering::SeqCst) - base;
    assert_eq!(core.gen(), records, "every record was replayed");
    peak
}

#[test]
fn recovery_peak_live_bytes_are_flat_in_journal_length() {
    let short = recovery_peak(500);
    let long = recovery_peak(8_000);
    assert!(
        long <= short + READ_CHUNK,
        "recovering 8,000 records peaked at {long} live bytes, 500 at {short}: \
         more than one read chunk ({READ_CHUNK} bytes) apart"
    );
}
