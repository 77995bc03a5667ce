//! A counting `#[global_allocator]` for the benchmark binary: allocation
//! count and bytes per thread, so a probe's delta is scoped to the probing
//! thread and engine workers or client threads cannot pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `(allocations, bytes)` requested by this thread so far. `const`
    /// initialised and `Drop`-free, so reading it never allocates.
    static TOTALS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

pub struct Counting;

#[inline]
fn note(bytes: usize) {
    // `try_with`: allocations during thread teardown, after the slot is
    // gone, are simply not counted.
    let _ = TOTALS.try_with(|t| {
        let (n, b) = t.get();
        t.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every method forwards to `System` unchanged; the only addition
// is a thread-local counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// What the calling thread allocated while `f` ran: `(result,
/// allocations, bytes)`.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (n0, b0) = TOTALS.with(Cell::get);
    let out = f();
    let (n1, b1) = TOTALS.with(Cell::get);
    (out, n1 - n0, b1 - b0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_are_scoped_to_the_probing_thread() {
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let noisy = std::thread::spawn(move || {
            gate_rx.recv().expect("gate");
            let junk: Vec<Vec<u8>> = (0..1000).map(|i| vec![0u8; 64 + i]).collect();
            std::hint::black_box(&junk);
            done_tx.send(()).expect("done");
        });
        let ((), allocs, bytes) = measure(|| {
            // The other thread allocates a thousand vectors strictly
            // inside this scope; none of it may show up here.
            gate_tx.send(()).expect("open gate");
            done_rx.recv().expect("noisy thread finished");
            let v = std::hint::black_box(vec![0u8; 4096]);
            drop(v);
        });
        noisy.join().expect("join");
        assert!(allocs >= 1, "own allocation counted");
        assert!(
            allocs < 50,
            "other thread's 1000 allocations leaked in: {allocs}"
        );
        assert!((4096..64 * 1024).contains(&bytes), "bytes = {bytes}");
    }

    #[test]
    fn a_scope_that_allocates_nothing_reads_zero() {
        let (sum, allocs, bytes) = measure(|| (0..100u64).sum::<u64>());
        assert_eq!((sum, allocs, bytes), (4950, 0, 0));
    }
}
