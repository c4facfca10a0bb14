//! A counting global allocator. Counting is behind a relaxed flag that
//! only the traced run sets, so the end-to-end runs pay one predictable
//! load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// The system allocator, counting calls and bytes while enabled.
pub struct Counting;

// Relaxed throughout: the three values are statistics that publish no
// other data, and the benchmark is single-threaded.
static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    if ENABLED.load(Relaxed) {
        COUNT.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls and the bytes they asked for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// `alloc`, `alloc_zeroed` and `realloc` calls.
    pub count: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.count += other.count;
        self.bytes += other.bytes;
    }
}

fn read() -> Tally {
    Tally {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Starts an interval; counts only if `enabled`.
pub fn start(enabled: bool) -> Tally {
    ENABLED.store(enabled, Relaxed);
    read()
}

/// Ends the interval begun by the [`start`] that returned `before`, and
/// switches counting off.
pub fn stop(before: Tally) -> Tally {
    let now = read();
    ENABLED.store(false, Relaxed);
    Tally {
        count: now.count - before.count,
        bytes: now.bytes - before.bytes,
    }
}
