//! A `#[global_allocator]` that counts the allocations (and reallocations)
//! each thread makes, so a test reads its own count undisturbed by tests
//! running beside it. One copy serves every test binary that pins an
//! allocation count: the root's `tests/allocations.rs` includes it as a
//! module, and `netsim`'s unit tests through `#[path]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // A const-initialised `Cell` has no destructor: reaching it neither
    // allocates nor fails, even while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` upholds `GlobalAlloc`'s contract for each of them; counting
// touches only a thread-local `Cell` and never re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller's guarantees for `layout` are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (every method forwards
        // to it) with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller's guarantees for `new_size` are `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The allocations this thread has made so far.
pub(crate) fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
