//! A fingerprint's text costs the same heap allocations whatever its
//! value, so a store object path costs the same for every seed.
//!
//! Uses a counting global allocator, as `crates/core/tests/no_alloc.rs`
//! does. The count is per thread, so sibling tests running on other
//! threads cannot disturb a measurement.

use llbp_trace::fingerprint::Fingerprint;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

struct CountingAlloc;

// SAFETY: delegates directly to the system allocator; the counter is a
// const-initialised thread-local `Cell` with no destructor, which never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The fingerprint's text and the heap allocations it took.
fn render(fp: Fingerprint) -> (String, u64) {
    let before = allocations();
    let text = fp.to_string();
    (text, allocations() - before)
}

#[test]
fn fingerprint_text_allocates_the_same_for_any_leading_zeros() {
    // 31, 1 and 0 leading zero nibbles.
    let fps = [Fingerprint(1), Fingerprint(1 << 120), Fingerprint(u128::MAX)];
    let rendered: Vec<(String, u64)> = fps.iter().map(|&fp| render(fp)).collect();
    for (fp, (text, allocs)) in fps.iter().zip(&rendered) {
        assert_eq!(*allocs, rendered[2].1, "{text} allocates differently");
        assert_eq!(Fingerprint::from_hex(text), Some(*fp), "{text} must round-trip");
    }
    assert_eq!(rendered[2].1, 1, "one allocation for the text");
}
