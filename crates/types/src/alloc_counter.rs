//! Test-only heap-allocation counter (feature `alloc-count`).
//!
//! The fused publish pipeline claims *zero heap allocations after warm-up*
//! on its hot path. That claim is only worth anything if a test can fail
//! when it regresses, so this module provides [`CountingAlloc`]: a
//! [`GlobalAlloc`] wrapper around the [`System`] allocator that bumps a
//! thread-local counter on every `alloc`/`realloc`. A test binary installs
//! it with `#[global_allocator]`, warms the pipeline up, snapshots the
//! counter with [`allocation_count`], runs the hot path again and asserts
//! the delta is zero.
//!
//! The counter is a plain thread-local [`Cell<u64>`] with a `const`
//! initializer: no lazy allocation, no destructor registration, so it is
//! safe to touch from inside the allocator itself. Counts are per thread —
//! a zero-alloc assertion on the calling thread says nothing about worker
//! threads, which is exactly right: the deterministic parallel paths *do*
//! allocate (thread stacks, scope bookkeeping) and the zero-alloc guarantee
//! is specified for the single-threaded hot path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Number of heap allocations performed by the current thread since it
/// started (only meaningful under a [`CountingAlloc`] global allocator).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A [`System`]-backed global allocator that counts allocations per thread.
///
/// `dealloc` is deliberately not counted: the zero-alloc property under
/// test is "no new heap blocks on the hot path", and frees of warm-up
/// blocks would only add noise.
pub struct CountingAlloc;

/// Bumps the calling thread's counter. Never allocates, so it is safe to
/// call from inside the allocator: the thread-local is `const`-initialized
/// and `Cell<u64>` has no destructor, so access needs no lazy
/// initialization and no destructor registration — and with no
/// destructor the slot never enters a destroyed state in which `with`
/// could panic.
#[inline]
fn count_one() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only extra work is
// `count_one`, which neither allocates (no re-entry) nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract (`layout` has non-zero size) is
        // exactly `System.alloc`'s, and `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as in `alloc` — the caller's `layout` is forwarded
        // unchanged under the same contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller guarantees `ptr` was allocated by this
        // allocator with `layout`; every block this allocator hands out
        // comes from `System` with that same layout, so `ptr` and
        // `layout` satisfy `System.realloc`'s contract, and `new_size`
        // carries the caller's size guarantee through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator with `layout`,
        // i.e. by `System` with `layout` (see `realloc`), which is what
        // `System.dealloc` requires.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_starts_at_a_value_and_is_monotone() {
        // Without the global allocator installed the counter never moves,
        // but the API must still be callable.
        let a = allocation_count();
        let b = allocation_count();
        assert!(b >= a);
    }
}
