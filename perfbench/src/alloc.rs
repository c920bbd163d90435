//! A counting global allocator. It counts only while switched on, which
//! the traced run does; otherwise each call costs one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since counting was switched on.
/// Frees of earlier blocks make it drift low, so only differences are
/// meaningful.
static CURRENT: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(n: usize) {
    let cur = CURRENT.fetch_add(n as isize, Ordering::Relaxed) + n as isize;
    PEAK.fetch_max(cur, Ordering::Relaxed);
}

fn shrink(n: usize) {
    CURRENT.fetch_sub(n as isize, Ordering::Relaxed);
}

// SAFETY: every call forwards to the system allocator with the caller's
// layout unchanged; the counters are plain atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            grow(layout.size());
        }
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            grow(layout.size());
        }
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Ordering::Relaxed) {
            shrink(layout.size());
        }
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch counting on or off.
pub fn set_counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Start a measurement window: the peak restarts at the current level.
pub fn window_start() -> isize {
    let cur = CURRENT.load(Ordering::Relaxed);
    PEAK.store(cur, Ordering::Relaxed);
    cur
}

/// Peak bytes above the window's starting level.
pub fn window_peak(start: isize) -> u64 {
    (PEAK.load(Ordering::Relaxed) - start).max(0) as u64
}
