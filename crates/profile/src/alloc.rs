//! A counting global allocator wrapper.
//!
//! [`CountingAlloc`] forwards to the system allocator and counts
//! allocation events and requested bytes in relaxed atomics — one
//! `fetch_add` pair per allocation, nothing on the free path. A binary
//! opts in by declaring it as its `#[global_allocator]` (the
//! `perfbench` benchmark does); everything else pays nothing.
//!
//! [`snapshot`] reads the totals. It returns `None` until the first
//! counted allocation, which doubles as runtime detection: a binary
//! that never installed the wrapper reports "no allocation data" rather
//! than a misleading zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Counting totals at one instant; deltas between two snapshots bound
/// the allocation traffic of the code in between.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation events (alloc + realloc) since process start.
    pub allocs: u64,
    /// Bytes requested by those events.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Counts accumulated since `earlier` (saturating).
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Current totals, or `None` when no counting allocator is installed
/// in this binary (nothing was ever counted).
pub fn snapshot() -> Option<AllocSnapshot> {
    let allocs = ALLOCS.load(Relaxed);
    if allocs == 0 {
        return None;
    }
    Some(AllocSnapshot {
        allocs,
        bytes: BYTES.load(Relaxed),
    })
}

/// The wrapper allocator. Declare as the binary's global allocator:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: profile::alloc::CountingAlloc = profile::alloc::CountingAlloc;
/// ```
pub struct CountingAlloc;

// SAFETY: all methods delegate directly to `System`, which upholds the
// GlobalAlloc contract; the wrapper only adds relaxed atomic counting.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_saturates_and_counts() {
        let a = AllocSnapshot {
            allocs: 10,
            bytes: 1000,
        };
        let b = AllocSnapshot {
            allocs: 14,
            bytes: 1500,
        };
        assert_eq!(
            b.since(&a),
            AllocSnapshot {
                allocs: 4,
                bytes: 500
            }
        );
        assert_eq!(a.since(&b), AllocSnapshot::default());
    }
}
